import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stepprop import eigenstates as eig
from stepprop.errors import BranchMismatchError, NonFiniteError
from stepprop.potential import Family, StepModel, potential_value

KC = math.sqrt(2.0)  # m = V0 = 1


def test_branch_energy_guards(ws_unit):
    with pytest.raises(BranchMismatchError):
        eig.eigenstate_ws(ws_unit, "c", 2.0, 0.0)
    with pytest.raises(BranchMismatchError):
        eig.eigenstate_ws(ws_unit, "plus", 1.0, 0.0)


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
        full = eig._phi_ws_full(ws_unit, branch, k, q, x)
        asym = eig.eigenstate_ws_asymptotic(ws_unit, branch, k, x, "left")
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
        a = eig._phi_ws_full(ws_unit, "plus", k, -p, x)
        b = eig._phi_ws_full(ws_unit, "minus", k, p, x)
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
    # float(sqrt(2)) leaves p ~ 2e-8, so the rates agree to ~1e-7
    amp = eig.scatter_amplitudes(heaviside_unit, KC)
    assert abs(amp.R) ** 2 == pytest.approx(1.0, abs=1e-6)
    assert abs(amp.T) ** 2 == pytest.approx(0.0, abs=1e-6)


def test_ws_rates_match_sinh_identity(ws_unit):
    for k in (1.05 * KC, 1.5 * KC, 3.0 * KC):
        p = math.sqrt(k * k - 2.0)
        ah = 1.0
        r2_ref = (math.sinh(math.pi * (k - p) / (2 * ah)) ** 2
                  / math.sinh(math.pi * (k + p) / (2 * ah)) ** 2)
        r2, t2 = eig.scatter_rates(ws_unit, k)
        assert r2 == pytest.approx(r2_ref, rel=1e-12)
        amp = eig.scatter_amplitudes(ws_unit, k)
        assert abs(amp.R) ** 2 == pytest.approx(r2_ref, rel=1e-10)
        assert abs(amp.R) ** 2 + abs(amp.T) ** 2 == pytest.approx(1.0, abs=1e-12)


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
    nc = eig.normalization_coeffs(heaviside_unit, k)
    assert nc.Ncc == pytest.approx(math.pi / k ** 2, rel=1e-13)
    k = 1.6 * KC
    p = math.sqrt(k * k - 2.0)
    nc = eig.normalization_coeffs(heaviside_unit, k)
    assert nc.Npm == pytest.approx(math.pi / k ** 2, rel=1e-13)
    assert nc.Npp == pytest.approx(math.pi * (p / k + (k * k + p * p) / (2 * k * k)),
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


def test_heaviside_orthonormal_closed_forms(heaviside_unit):
    k = 1.5 * KC
    p = math.sqrt(k * k - 2.0)
    x = -1.3
    val = eig.orthonormal_state(heaviside_unit, "plus", k, x)
    ref = 2 * k * math.cos(k * x) / math.sqrt(math.pi * ((k + p) ** 2 + 2.0))
    assert val == pytest.approx(ref, rel=1e-10)
    k = 0.7 * KC
    mu = math.sqrt(2.0 - k * k)
    x = 1.1
    val = eig.orthonormal_state(heaviside_unit, "c", k, x)
    ref = k * math.exp(-mu * x) / math.sqrt(math.pi)
    assert val == pytest.approx(ref, rel=1e-10)
    # minus branch on the right: 2 i k sin(p x)/sqrt(pi ((k+p)^2 - 2 m V0))
    k = 1.5 * KC
    x = 0.9
    val = eig.orthonormal_state(heaviside_unit, "minus", k, x)
    ref = 2j * k * math.sin(p * x) / math.sqrt(math.pi * ((k + p) ** 2 - 2.0))
    assert val == pytest.approx(ref, rel=1e-10)


def test_windowed_orthogonality_growth(heaviside_unit):
    # the cross inner product over [-L, L] stays bounded (oscillatory
    # boundary terms), while the same-branch norm grows linearly with L
    k = 1.5 * KC

    def windowed(branch_b, L):
        xs = np.linspace(-L, L, int(80 * L) + 1)
        a = eig.orthonormal_state(heaviside_unit, "plus", k, xs)
        b = eig.orthonormal_state(heaviside_unit, branch_b, k, xs)
        return abs(np.trapezoid(a * np.conj(b), xs))

    cross_50, cross_200 = windowed("minus", 50.0), windowed("minus", 200.0)
    same_50, same_200 = windowed("plus", 50.0), windowed("plus", 200.0)
    assert max(cross_50, cross_200) < 0.5              # bounded, O(1/k) scale
    assert same_200 > 3.0 * same_50                    # delta-like growth
    assert cross_200 < same_200 / math.sqrt(200.0)     # grows slower than sqrt(L)


# positions in all three Woods-Saxon regions (|alpha x| > X_ASYM on both
# sides, z on both sides of 1/2) and on both sides of the sharp step
PHI_XS = np.array([-45.0, -30.5, -12.0, -0.4, 0.0, 0.3, 7.0, 30.5, 40.0])


@pytest.mark.parametrize("conj", [False, True])
@pytest.mark.parametrize("branch", ["c", "plus", "minus"])
@pytest.mark.parametrize("family, V0", [(Family.WOODS_SAXON, 1.0),
                                        (Family.HEAVISIDE, 1.0),
                                        (Family.WOODS_SAXON, 0.0)],
                         ids=["ws", "heaviside", "free"])
def test_phi_grid_matches_scalar(family, V0, branch, conj):
    md = StepModel(family, 1, V0, 1, 1)
    kc = md.k_threshold
    if branch == "c":
        # a real node of the below-threshold leg and two nodes on the energy
        # propagator's detour arc below a pole at k = 0.5 kc
        k = np.array([0.6 + 0j, 0.5 + 0.2 * np.exp(1.2j * math.pi),
                      0.5 + 0.2 * np.exp(1.8j * math.pi)]) * max(kc, 1.0)
        q = np.sqrt(kc * kc - k * k)
    else:
        # nodes of the deformed above-threshold contour p = t e^{-i theta}
        q = np.exp(-0.1j) * np.array([0.05, 0.7, 3.0])
        k = np.sqrt(kc * kc + q * q)
    grid = eig.phi_grid(md, branch, k, q, PHI_XS, conj)
    for j, x in enumerate(PHI_XS):
        ref = eig.phi(md, branch, k, q, float(x), conj)
        assert grid[:, j] == pytest.approx(ref, rel=1e-12)


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


@pytest.mark.parametrize("md, branch", [
    pytest.param(md, branch, id=f"{name}-{branch}")
    for md, name in zip(REAL_AXIS_FAMILIES, REAL_AXIS_IDS)
    for branch in ("c", "plus", "minus") if md.V0 > 0 or branch != "c"])
def test_conj_form_is_complex_conjugate_on_real_axis(md, branch):
    k, q = _real_nodes(md, branch)
    assert np.array_equal(eig.phi_grid(md, branch, k, q, REAL_XS, conj=True),
                          eig.phi_grid(md, branch, k, q, REAL_XS).conj())


@pytest.mark.parametrize("md", REAL_AXIS_FAMILIES, ids=REAL_AXIS_IDS)
def test_minus_is_conjugate_of_plus_on_real_axis(md):
    # both are the eigenstate at E with e^{-iqx/hbar} on the right
    k, q = _real_nodes(md, "plus")
    plus = eig.phi_grid(md, "plus", k, q, REAL_XS)
    minus = eig.phi_grid(md, "minus", k, q, REAL_XS)
    assert np.max(np.abs(minus - plus.conj()) / np.abs(plus)) <= 1e-12
