import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import orthonormal_state
from stepprop import eigenstates as eig
from stepprop.errors import (BranchMismatchError, NonFiniteError,
                             UnsupportedFamilyError, ValidationError)
from stepprop.potential import Family, StepModel, potential_value
from stepprop.propagator import THETA, _hbar_columns

KC = math.sqrt(2.0)  # m = V0 = 1


def test_branch_energy_guards(ws_unit):
    with pytest.raises(BranchMismatchError):
        eig.eigenstate_ws(ws_unit, "c", 2.0, 0.0)
    with pytest.raises(BranchMismatchError):
        eig.eigenstate_ws(ws_unit, "plus", 1.0, 0.0)


def test_asymptotic_form_checks_branch_and_family(ws_unit, heaviside_unit):
    # at alpha x = -40 eigenstate_ws takes the plane-wave asymptotic form;
    # k on the wrong side of the threshold has no real companion momentum
    with pytest.raises(BranchMismatchError):
        eig.eigenstate_ws(ws_unit, "c", 2.0, -40.0)
    with pytest.raises(BranchMismatchError):
        eig.eigenstate_ws(ws_unit, "plus", 0.5, -40.0)
    # the sharp step has no gamma-function asymptotics
    with pytest.raises(UnsupportedFamilyError):
        eig.eigenstate_ws(heaviside_unit, "plus", 2.0, -40.0)


def test_right_asymptotics(ws_unit):
    k = 1.5 * KC
    p = math.sqrt(k * k - 2.0)
    x = 40.0
    assert eig.eigenstate_ws(ws_unit, "minus", k, x) == pytest.approx(
        np.exp(-1j * p * x), rel=1e-10)
    assert eig.eigenstate_ws(ws_unit, "plus", k, x) == pytest.approx(
        np.exp(1j * p * x), rel=1e-10)
    kc_below = 0.9 * KC
    mu = math.sqrt(2.0 - kc_below ** 2)
    assert eig.eigenstate_ws(ws_unit, "c", kc_below, x) == pytest.approx(
        math.exp(-mu * x), rel=1e-10)


def test_left_asymptotic_matches_full_form(ws_unit):
    # compare the closed form against the plane-wave asymptotics at alpha*x=-35
    x = -35.0
    for branch, k in (("c", 0.8 * KC), ("plus", 1.3 * KC), ("minus", 1.7 * KC)):
        q = (math.sqrt(2.0 - k * k) if branch == "c"
             else math.sqrt(k * k - 2.0))
        gam = eig._gammas(ws_unit, k, q, eig._BRANCHES[branch != "c"])
        full = eig._phi_ws_full(ws_unit, branch, k, q, x, gam)
        asym = eig._phi_ws_asym_left(ws_unit, branch, k, q, x, gam)
        assert abs(full - asym) < 1e-8 * abs(asym)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("k", [0.0, 1j])
def test_left_asymptotics_raise_at_their_poles(ws_unit, k):
    # k = 0 (sinh) and k = i alpha hbar (gamma) make the alpha x < -30 forms
    # non-finite: an error naming k and x, for a scalar x and for a grid
    q = np.sqrt(complex(2.0 - k * k))
    with pytest.raises(NonFiniteError, match=r"k = .*x = -35\.0"):
        eig.phi(ws_unit, "c", k, q, -35.0)
    with pytest.raises(NonFiniteError, match=r"x = -35\.0"):
        eig.phi_grid(ws_unit, "plus", [1.0, k], [q, q], [-35.0, -36.0])


def test_schrodinger_residual(ws_unit):
    h = 1e-3
    for branch, k in (("c", 0.7 * KC), ("plus", 1.5 * KC), ("minus", 1.2 * KC)):
        if branch != "c" and k <= KC:
            k = 1.5 * KC
        E = k * k / 2.0
        for x in np.linspace(-10, 10, 41):
            f = lambda xx: eig.eigenstate_ws(ws_unit, branch, k, float(xx))
            lap = (f(x + h) - 2 * f(x) + f(x - h)) / h ** 2
            resid = -0.5 * lap + (potential_value(ws_unit, x) - E) * f(x)
            assert abs(resid) < 1e-6 * max(1.0, abs(f(x)))


def test_schrodinger_residual_spec_point(ws_unit):
    k, x, h = 1.5 * KC, 0.37, 1e-3
    f = lambda xx: eig.eigenstate_ws(ws_unit, "plus", k, float(xx))
    lap = (f(x + h) - 2 * f(x) + f(x - h)) / h ** 2
    resid = -0.5 * lap + (potential_value(ws_unit, x) - k * k / 2) * f(x)
    assert abs(resid) < 1e-6


def test_branch_symmetry_p_to_minus_p(ws_unit):
    k = 1.4 * KC
    p = math.sqrt(k * k - 2.0)
    for x in (-3.0, -0.5, 0.4, 2.0):
        a = eig._phi_ws_full(ws_unit, "plus", k, -p, x,
                             eig._gammas(ws_unit, k, -p, ("plus",)))
        b = eig._phi_ws_full(ws_unit, "minus", k, p, x,
                             eig._gammas(ws_unit, k, p, ("plus", "minus")))
        assert a == pytest.approx(b, rel=1e-12)


def test_eigenstate_scaling_invariance():
    base = StepModel(Family.WOODS_SAXON, 1, 1, 1, 1)
    A = 2.5
    scaled = StepModel(Family.WOODS_SAXON, 1, 1, A, 1.0 / A)
    k = 1.3 * KC
    for x in (-4.0, -1.0, 0.3, 2.0):
        v1 = eig.eigenstate_ws(base, "plus", k, x)
        v2 = eig.eigenstate_ws(scaled, "plus", k, x / A)
        assert v1 == pytest.approx(v2, rel=1e-10)


def test_heaviside_threshold_total_reflection(heaviside_unit):
    assert eig.scatter_rates(heaviside_unit, KC) == (1.0, 0.0)
    # one ulp above the threshold p ~ 3e-8: the rates agree to ~1e-7
    r2, t2 = eig.scatter_rates(heaviside_unit, np.nextafter(KC, 2.0))
    assert r2 == pytest.approx(1.0, abs=1e-6)
    assert t2 == pytest.approx(0.0, abs=1e-6)


def test_ws_rates_match_sinh_identity(ws_unit):
    for k in (1.05 * KC, 1.5 * KC, 3.0 * KC):
        p = math.sqrt(k * k - 2.0)
        ah = 1.0
        r2_ref = (math.sinh(math.pi * (k - p) / (2 * ah)) ** 2
                  / math.sinh(math.pi * (k + p) / (2 * ah)) ** 2)
        r2, t2 = eig.scatter_rates(ws_unit, k)
        assert r2 == pytest.approx(r2_ref, rel=1e-12)
        assert r2 + t2 == pytest.approx(1.0, abs=1e-12)
        assert math.exp(eig.log_reflection_rate(ws_unit, k)) == pytest.approx(
            r2_ref, rel=1e-12)


@pytest.mark.parametrize("family", list(Family))
def test_log_reflection_rate_at_zero_step_height(family):
    # p = k at V0 = 0: |R|^2 is exactly 0, as scatter_rates says
    md = StepModel(family, V0=0.0)
    assert eig.log_reflection_rate(md, 1.5) == -math.inf
    assert eig.scatter_rates(md, 1.5) == (0.0, 1.0)


@given(st.floats(1.0001, 10.0), st.sampled_from([0.1, 1.0, 2.0, 3.0, 4.0]))
@settings(max_examples=80, deadline=None)
def test_unitarity_property(kfrac, alpha):
    md = StepModel(Family.WOODS_SAXON, 1, 1, alpha, 1)
    k = kfrac * KC
    r2, t2 = eig.scatter_rates(md, k)
    assert abs(r2 + t2 - 1.0) < 1e-12


def test_heaviside_limit_of_rates_true_gap():
    # the WS -> Heaviside convergence of |R|^2 is O(1/alpha^2); at alpha=100
    # the true gap is ~6e-5 (max near k ~ 1.5), within 1e-4 over the range
    md = StepModel(Family.WOODS_SAXON, 1, 1, 100.0, 1)
    hv = StepModel(Family.HEAVISIDE, 1, 1, 1, 1)
    ks = np.linspace(1.05, 5.0, 200)
    r2_ws, _ = eig.scatter_rates(md, ks)
    r2_h, _ = eig.scatter_rates(hv, ks)
    gap = np.max(np.abs(r2_ws - r2_h))
    assert 1e-6 < gap < 1e-4
    # quadratic convergence in 1/alpha
    md4 = StepModel(Family.WOODS_SAXON, 1, 1, 400.0, 1)
    r2_ws4, _ = eig.scatter_rates(md4, ks)
    gap4 = np.max(np.abs(r2_ws4 - r2_h))
    assert gap4 == pytest.approx(gap / 16.0, rel=0.05)


def test_smallhbar_instanton_asymptote():
    k = 1.5 * KC
    p = math.sqrt(k * k - 2.0)
    ratios = []
    for hbar in (0.1, 0.05, 0.025):
        md = StepModel(Family.WOODS_SAXON, 1, 1, 1, hbar)
        log_r2 = eig.log_reflection_rate(md, k)
        ratios.append(log_r2 * (1.0 * hbar) / (-2.0 * math.pi * p))
    assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0) + 1e-12
    assert ratios[-1] == pytest.approx(1.0, abs=0.01)
    # instanton-action identity exp(2 i S_I / hbar) = exp(-2 pi p/(alpha hbar))
    md = StepModel(Family.WOODS_SAXON, 1, 1, 1, 0.5)
    asym, s_inst = eig.reflection_rate_smallhbar_asymptote(md, k)
    assert np.exp(2j * s_inst / md.hbar) == pytest.approx(asym, rel=1e-12)
    # p = 0 threshold: asymptote tends to 1
    asym0, _ = eig.reflection_rate_smallhbar_asymptote(md, KC)
    assert asym0 == pytest.approx(1.0, abs=1e-6)


def test_heaviside_normalization_closed_forms(heaviside_unit):
    k = 0.8 * KC
    mu = math.sqrt(2.0 - k * k)
    ncc = eig.ncc_analytic(heaviside_unit, k, mu)
    assert ncc == pytest.approx(math.pi / k ** 2, rel=1e-13)
    k = 1.6 * KC
    p = math.sqrt(k * k - 2.0)
    npm = eig.npm_analytic(heaviside_unit, k, p)
    assert npm == pytest.approx(math.pi / k ** 2, rel=1e-13)
    npp = eig.npp_analytic(heaviside_unit, k, p)
    assert npp == pytest.approx(math.pi * (p / k + (k * k + p * p) / (2 * k * k)),
                                rel=1e-13)


def test_ws_norm_combos_match_coefficients(ws_unit):
    for k in (1.2 * KC, 2.0 * KC):
        p = math.sqrt(k * k - 2.0)
        npp = float(np.real(eig.npp_analytic(ws_unit, k, p)))
        npm_abs = abs(eig.npm_analytic(ws_unit, k, p))
        cp, cm = eig.norm_combos(ws_unit, k, p)
        assert complex(cp).real == pytest.approx(npp + npm_abs, rel=1e-10)
        assert complex(cm).real == pytest.approx(npp - npm_abs, rel=1e-10)
        assert npp >= npm_abs


@pytest.mark.parametrize("model", [
    *(StepModel(Family.WOODS_SAXON, 1, 1, a, h)
      for a in (0.3, 1.0, 5.0) for h in (1.0, 0.1)),
    StepModel(Family.HEAVISIDE, 1, 1, 1, 1),
    StepModel(Family.WOODS_SAXON, V0=0.0), StepModel(Family.HEAVISIDE, V0=0.0)],
    ids=lambda md: f"{md.family.value}-a{md.alpha}-h{md.hbar}-V{md.V0}")
def test_npp_is_the_inverse_transmission_rate(model):
    # on the real axis N^{++} = 2 pi p/(k |T|^2) and |N^{+-}/N^{++}|^2 =
    # |R|^2 (measured: 2.2e-16 and 1.1e-14)
    kc = model.k_threshold
    ks = kc + np.geomspace(1e-3, 10.0, 60)
    p = np.sqrt(ks * ks - kc * kc)
    r2, t2 = eig.scatter_rates(model, ks)
    npp = eig.npp_analytic(model, ks, p)
    npm = eig.npm_analytic(model, ks, p)
    assert np.max(np.abs(npp * ks * t2 / (2 * math.pi * p) - 1)) < 1e-12
    assert np.max(np.abs(np.abs(npm / npp) ** 2 - r2)) < 1e-13


@pytest.mark.parametrize("family, alpha", [
    (Family.WOODS_SAXON, 1.0), (Family.WOODS_SAXON, 5.0),
    (Family.WOODS_SAXON, 50.0), (Family.HEAVISIDE, 1.0)])
@pytest.mark.parametrize("V0", [1.0, 0.3])
def test_norm_combos_product_is_the_kernel_denominator(family, alpha, V0):
    # hbar (N^{++} + |N^{+-}|)(N^{++} - |N^{+-}|) = hbar (2 pi p/k) N^{++},
    # the D of the spectral kernel, on real and rotated nodes p = t e^{-i
    # theta} and on hbar columns down to 1/12.  Measured: 2.6e-14 on the
    # sharp step (V0 = 1), 1.8e-14 at alpha = 50 and 2.9e-15 at alpha = 1;
    # the log-space sinh sum that npp_analytic once took was off by 4.6e-13
    # at alpha = 1, hbar = 1/12
    md = _hbar_columns(StepModel(family, 1, V0, alpha, 1),
                       [1.0, 0.5, 1 / 6, 1 / 12])
    kc = md.k_threshold
    t = np.linspace(0.01, 30.0, 300)[:, None]
    for theta in (0.0, THETA):
        p = t * np.exp(-1j * theta)
        k = np.sqrt(kc * kc + p * p)
        plus, minus = eig.norm_combos(md, k, p)
        d = md.hbar * (2 * math.pi * p / k) * eig.npp_analytic(md, k, p)
        assert np.max(np.abs(md.hbar * plus * minus / d - 1)) < 5e-14


@pytest.mark.parametrize("k, error", [
    (-3.0, BranchMismatchError), (0.0, BranchMismatchError),
    ([2.0, -1.0], BranchMismatchError), ([2.0, math.nan], ValidationError),
    ([2.0, math.inf], ValidationError), (-math.inf, ValidationError),
    (math.nan, ValidationError), (math.inf, ValidationError)])
def test_rates_refuse_a_bad_momentum_label(ws_unit, k, error):
    # checked before any arithmetic: no (1, 0) row for k <= 0, no warning.
    # The asymptote and the eigenstates' companion momentum read the same
    # check: no (nan, nan) or (0, nan) asymptote, and no warnings before a
    # 10,000-term series at k = nan
    with pytest.raises(error):
        eig.scatter_rates(ws_unit, k)
    if np.ndim(k) == 0:
        with pytest.raises(error):
            eig.log_reflection_rate(ws_unit, k)
        with pytest.raises(error):
            eig.reflection_rate_smallhbar_asymptote(ws_unit, k)
        for branch in ("c", "plus", "minus"):
            with pytest.raises(error):
                eig.eigenstate_ws(ws_unit, branch, k, -1.0)


def test_heaviside_orthonormal_closed_forms(heaviside_unit):
    k = 1.5 * KC
    p = math.sqrt(k * k - 2.0)
    x = -1.3
    val = orthonormal_state(heaviside_unit, "plus", k, x)
    ref = 2 * k * math.cos(k * x) / math.sqrt(math.pi * ((k + p) ** 2 + 2.0))
    assert val == pytest.approx(ref, rel=1e-10)
    k = 0.7 * KC
    mu = math.sqrt(2.0 - k * k)
    x = 1.1
    val = orthonormal_state(heaviside_unit, "c", k, x)
    ref = k * math.exp(-mu * x) / math.sqrt(math.pi)
    assert val == pytest.approx(ref, rel=1e-10)
    # minus branch on the right: 2 i k sin(p x)/sqrt(pi ((k+p)^2 - 2 m V0))
    k = 1.5 * KC
    x = 0.9
    val = orthonormal_state(heaviside_unit, "minus", k, x)
    ref = 2j * k * math.sin(p * x) / math.sqrt(math.pi * ((k + p) ** 2 - 2.0))
    assert val == pytest.approx(ref, rel=1e-10)


def test_windowed_orthogonality_growth(heaviside_unit):
    # the cross inner product over [-L, L] stays bounded (oscillatory
    # boundary terms), while the same-branch norm grows linearly with L
    k = 1.5 * KC

    def windowed(branch_b, L):
        xs = np.linspace(-L, L, int(80 * L) + 1)
        a = orthonormal_state(heaviside_unit, "plus", k, xs)
        b = orthonormal_state(heaviside_unit, branch_b, k, xs)
        return abs(np.trapezoid(a * np.conj(b), xs))

    cross_50, cross_200 = windowed("minus", 50.0), windowed("minus", 200.0)
    same_50, same_200 = windowed("plus", 50.0), windowed("plus", 200.0)
    assert max(cross_50, cross_200) < 0.5              # bounded, O(1/k) scale
    assert same_200 > 3.0 * same_50                    # delta-like growth
    assert cross_200 < same_200 / math.sqrt(200.0)     # grows slower than sqrt(L)


# positions in all three Woods-Saxon regions (|alpha x| > X_ASYM on both
# sides, z on both sides of 1/2) and on both sides of the sharp step
PHI_XS = np.array([-45.0, -30.5, -12.0, -0.4, 0.0, 0.3, 7.0, 30.5, 40.0])


PHI_FAMILIES = pytest.mark.parametrize(
    "family, V0", [(Family.WOODS_SAXON, 1.0), (Family.HEAVISIDE, 1.0),
                   (Family.WOODS_SAXON, 0.0)], ids=["ws", "heaviside", "free"])


def _phi_nodes(md, branch, reflect, scale=1.0):
    """Complex (k, q) nodes at which the propagator evaluates branch, the
    node array times scale (broadcast: a row of scales gives one column
    of nodes per scale)."""
    kc = md.k_threshold
    if branch == "c":
        # a real node of the below-threshold leg and two nodes on the energy
        # propagator's detour arc below a pole at k = 0.5 kc
        k = np.array([0.6 + 0j, 0.5 + 0.2 * np.exp(1.2j * math.pi),
                      0.5 + 0.2 * np.exp(1.8j * math.pi)])[:, None]
        k = (k * max(kc, 1.0) * scale).squeeze()
        q = np.sqrt(kc * kc - k * k)
    else:
        # nodes of the deformed above-threshold contour p = t e^{-i theta}
        q = np.exp(-0.1j) * np.array([0.05, 0.7, 3.0])[:, None]
        q = (q * scale).squeeze()
        k = np.sqrt(kc * kc + q * q)
    if reflect:
        # the nodes at which the propagator evaluates conjugates
        k, q = np.conj(k), np.conj(q)
    return k, q


@pytest.mark.parametrize("reflect", [False, True])
@pytest.mark.parametrize("branch", ["c", "plus", "minus"])
@PHI_FAMILIES
def test_phi_grid_matches_scalar(family, V0, branch, reflect):
    # phi on a row of x against one call per point: a row's 2F1 series
    # stops on the row's largest z, so the two agree to rounding, not bit
    # for bit
    md = StepModel(family, 1, V0, 1, 1)
    k, q = _phi_nodes(md, branch, reflect)
    row = eig.phi(md, branch, k[:, None], q[:, None], PHI_XS)
    assert row.shape == (k.size, PHI_XS.size)
    for j, x in enumerate(PHI_XS):
        ref = eig.phi(md, branch, k, q, float(x))
        assert row[:, j] == pytest.approx(ref, rel=2e-15)


@pytest.mark.parametrize("branch", ["c", "plus", "minus"])
@PHI_FAMILIES
def test_phi_grid_is_phi_on_a_column_of_nodes(family, V0, branch):
    # phi_grid only lays flat momenta (and their Gamma table) out as one
    # column: bit for bit phi(k[:, None]), with and without the table
    md = StepModel(family, 1, V0, 1, 1)
    k, q = _phi_nodes(md, branch, False)
    gam = eig._gammas(md, k, q, eig._BRANCHES[branch != "c"])
    col = gam if gam is None else gam[..., None]
    np.testing.assert_array_equal(
        eig.phi_grid(md, branch, k, q, PHI_XS),
        eig.phi(md, branch, k[:, None], q[:, None], PHI_XS))
    np.testing.assert_array_equal(
        eig.phi_grid(md, branch, k, q, PHI_XS, gam),
        eig.phi(md, branch, k[:, None], q[:, None], PHI_XS, col))


@pytest.mark.parametrize("reflect", [False, True])
@pytest.mark.parametrize("branch", ["c", "plus", "minus"])
@PHI_FAMILIES
def test_phi_on_hbar_columns_matches_each_column(family, V0, branch, reflect):
    # the sweep layout: (nodes, columns) momenta against an array hbar at a
    # float x, one column per hbar, against a call per column at that hbar.
    # The columns share one 2F1 series, which stops on the slowest column.
    # Measured here: at most 1.2e-14 relative (WS, branch plus reflected,
    # x = 0, hbar = 1/2), 0 on the plane waves.  Where the z -> 1-z
    # connection sum cancels the two differ more: 1.4e-12 on other nodes
    # at x = -0.4, hbar = 1/6, with both 4e-12 from mpmath there
    hbars = np.array([1.0, 0.5, 1.0 / 6.0])
    md = StepModel(family, 1, V0, 1, 1)
    cols = _hbar_columns(md, hbars)
    k, q = _phi_nodes(md, branch, reflect, np.linspace(0.9, 1.1, hbars.size))
    for x in PHI_XS:
        sweep = eig.phi(cols, branch, k, q, float(x))
        assert sweep.shape == k.shape
        for j, h in enumerate(hbars):
            ref = eig.phi(replace(md, hbar=float(h)), branch, k[:, j],
                          q[:, j], float(x))
            assert sweep[:, j] == pytest.approx(ref, rel=1e-13), (x, h)


# the families of the real-axis identities: WS alpha = 1 and 5 at hbar = 1
# and 0.5, the sharp step and the free particle
REAL_AXIS_FAMILIES = [
    StepModel(Family.WOODS_SAXON, 1, 1, 1, 1),
    StepModel(Family.WOODS_SAXON, 1, 1, 5, 1),
    StepModel(Family.WOODS_SAXON, 1, 1, 1, 0.5),
    StepModel(Family.WOODS_SAXON, 1, 1, 5, 0.5),
    StepModel(Family.HEAVISIDE, 1, 1, 1, 1),
    StepModel(Family.WOODS_SAXON, 1, 0.0, 1, 1),
]
REAL_AXIS_IDS = ["ws1", "ws5", "ws1_h05", "ws5_h05", "heaviside", "free"]
# asymptotic-left (alpha x < -30), full 2F1 and right (alpha x > 30) regions
REAL_XS = np.linspace(-60.0, 40.0, 401)


def _real_nodes(md, branch):
    """Real (k, q) nodes of the packet legs: below the step k = kc sin u,
    q = kc cos u; above it q from near threshold to 6."""
    kc = md.k_threshold
    if branch == "c":
        u = np.linspace(0.01, 1.56, 40)
        return kc * np.sin(u) + 0j, kc * np.cos(u) + 0j
    q = np.linspace(0.01, 6.0, 60)
    return np.sqrt(kc * kc + q * q) + 0j, q + 0j


def _mp_reflected_form(mpmath, md, branch, k, q, x):
    """The i -> -i closed form at (k, q): every i of the 2F1 form (or of
    the plane waves) replaced by -i, with mpmath.hyp2f1."""
    j = mpmath.mpc(0, -1)
    k, q, h = mpmath.mpc(k), mpmath.mpc(q), md.hbar
    if md.V0 == 0.0 and branch != "c":
        q = k
    a = {"c": j * q, "plus": q, "minus": -q}[branch]
    if md.family is Family.HEAVISIDE or md.V0 == 0.0:
        if x > 0:
            return mpmath.exp(j * a * x / h)
        return ((k - a) * mpmath.exp(-j * k * x / h)
                + (k + a) * mpmath.exp(j * k * x / h)) / (2 * k)
    ah = md.alpha * h
    nu = j * (k - a) / (2 * ah)
    ax = md.alpha * mpmath.mpf(x)
    return (mpmath.power(2, -nu) * mpmath.exp(j * (k + a) * x / (2 * h))
            * mpmath.sech(ax) ** nu
            * mpmath.hyp2f1(1 + nu, nu, 1 - j * a / ah,
                            1 / (1 + mpmath.exp(2 * ax))))


REAL_AXIS_CASES = [
    pytest.param(md, branch, id=f"{name}-{branch}")
    for md, name in zip(REAL_AXIS_FAMILIES, REAL_AXIS_IDS)
    for branch in ("c", "plus", "minus") if md.V0 > 0 or branch != "c"]


@pytest.mark.parametrize("md, branch", REAL_AXIS_CASES)
def test_conj_form_is_complex_conjugate_on_real_axis(md, branch):
    # the propagator's conjugate, the reflection at (k - 0j, q - 0j), is
    # bit for bit the plain conjugate that packet evolution takes
    k, q = _real_nodes(md, branch)
    assert np.array_equal(
        np.conj(eig.phi_grid(md, branch, np.conj(k), np.conj(q), REAL_XS)),
        eig.phi_grid(md, branch, k, q, REAL_XS).conj())


@pytest.mark.parametrize("md, branch", REAL_AXIS_CASES)
def test_reflection_is_the_i_to_minus_i_form(md, branch):
    # the propagator continues phi^* off the real axis as the reflection
    # conj(phi(conj k, conj q)); at complex nodes of both legs it must be
    # the closed form with i -> -i, here in the 2F1 region |alpha x| <= 30
    mpmath = pytest.importorskip("mpmath")
    kc = md.k_threshold
    tilt = np.exp(-0.1j) * np.linspace(0.05, 1.5, 5)
    if branch == "c":
        k, q = kc * np.sin(tilt), kc * np.cos(tilt)
    else:
        q = 2.0 * tilt
        k = np.sqrt(kc * kc + q * q)
    xs = np.linspace(-30.0, 30.0, 7) / md.alpha
    got = np.conj(eig.phi_grid(md, branch, np.conj(k), np.conj(q), xs))
    for j, x in enumerate(xs):
        with mpmath.workdps(40 + int(abs(md.alpha * x))):
            ref = np.array([complex(_mp_reflected_form(mpmath, md, branch,
                                                       kk, qq, x))
                            for kk, qq in zip(k, q)])
        assert np.all(np.abs(got[:, j] - ref) <= 1e-12 * np.abs(ref)), x


@pytest.mark.parametrize("md", REAL_AXIS_FAMILIES, ids=REAL_AXIS_IDS)
def test_minus_is_conjugate_of_plus_on_real_axis(md):
    # both are the eigenstate at E with e^{-iqx/hbar} on the right
    k, q = _real_nodes(md, "plus")
    plus = eig.phi_grid(md, "plus", k, q, REAL_XS)
    minus = eig.phi_grid(md, "minus", k, q, REAL_XS)
    assert np.max(np.abs(minus - plus.conj()) / np.abs(plus)) <= 1e-12
