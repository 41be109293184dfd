import cmath
import math

import numpy as np
import pytest

from stepprop import propagator
from stepprop.errors import NonFiniteError, QuadratureError, ValidationError
from stepprop.oracle import gaussian_packet
from oracles import free_propagator
from stepprop.potential import Family, StepModel, potential_value
from stepprop import eigenstates, specfun
from stepprop.eigenstates import _gammas, _reflect, phi, phi_grid
from stepprop.propagator import (_hbar_columns, _kernel_pairs,
                                 _simpson_weights, _spectral_weight,
                                 energy_propagator, evolve_packet_spectral,
                                 propagate)


def test_retarded_convention_zero_for_nonpositive_time(ws_unit):
    assert propagate(ws_unit, -1.0, -2.0, 0.0).G == 0.0
    assert propagate(ws_unit, -1.0, -2.0, -3.0).G == 0.0


@pytest.mark.parametrize("x0,x1,T", [
    (math.nan, -2.0, 10.0), (-1.0, math.inf, 10.0), (-1.0, -2.0, math.inf),
    (-1.0, -2.0, math.nan), (-1.0, np.array([-2.0, math.nan]), 10.0),
    (-1.0, -2.0, -math.inf)])
def test_propagate_rejects_non_finite_inputs(ws_unit, x0, x1, T):
    # before the panel budget: --T inf once ran 20,000 panels to exit 3
    with pytest.raises(ValidationError, match="finite"):
        propagate(ws_unit, x0, x1, T)


@pytest.mark.parametrize("family", [Family.WOODS_SAXON, Family.HEAVISIDE])
def test_free_particle_reduction(family, rng):
    md = StepModel(family, m=1.0, V0=0.0, alpha=1.0, hbar=1.0)
    for _ in range(6):
        x0 = rng.uniform(-8, 8)
        x1 = rng.uniform(-8, 8)
        T = rng.uniform(1.0, 12.0)
        s = propagate(md, x0, x1, T)
        assert abs(s.G - free_propagator(md, x0, x1, T)) < 1e-8


def test_theta_independence(heaviside_unit, monkeypatch):
    monkeypatch.setattr(propagator, "THETA", 0.05)
    a = propagate(heaviside_unit, -4.0, -6.0, 10.0)
    monkeypatch.setattr(propagator, "THETA", 0.15)
    b = propagate(heaviside_unit, -4.0, -6.0, 10.0)
    tol = 10.0 * max(a.est_error, b.est_error, 1e-12)
    assert abs(a.G - b.G) < tol


def test_symmetry_under_endpoint_exchange(ws_unit, heaviside_unit):
    for md in (ws_unit, heaviside_unit):
        a = propagate(md, -4.0, -6.5, 10.0)
        b = propagate(md, -6.5, -4.0, 10.0)
        assert abs(a.G - b.G) < 10 * max(a.est_error, b.est_error, 1e-12)


def test_heaviside_limit_of_ws_propagator():
    ws = StepModel(Family.WOODS_SAXON, 1, 1, 50.0, 1)
    hv = StepModel(Family.HEAVISIDE, 1, 1, 1, 1)
    for (x0, x1) in ((-4.0, -6.0), (-2.0, -3.5), (2.0, 4.0)):
        g_ws = propagate(ws, x0, x1, 10.0).G
        g_h = propagate(hv, x0, x1, 10.0).G
        assert abs(g_ws - g_h) < 1e-3


ROW_CASES = {
    # (family, V0, alpha, hbar), x0, row of x1
    "ws1": ((Family.WOODS_SAXON, 1.0, 1.0, 1.0), -4.3,
            [-8.0, -6.0, -4.3, -1.0, 0.5, 2.0]),
    "ws1_hbar05": ((Family.WOODS_SAXON, 1.0, 1.0, 0.5), -3.0,
                   [-7.5, -3.0, -0.4, 1.8]),
    # |G| = 0.17: the largest gap measured on these rows, 8.2e-15
    "ws1_hbar12": ((Family.WOODS_SAXON, 1.0, 1.0, 1.0 / 12.0), -3.0, [-1.0]),
    # |alpha x| > 30 on both sides, and the 2F1 region between
    "ws5": ((Family.WOODS_SAXON, 1.0, 5.0, 1.0), -2.0,
            [-8.0, -6.5, -2.0, 0.5, 6.5, 8.0]),
    "ws50": ((Family.WOODS_SAXON, 1.0, 50.0, 1.0), -3.0,
             [-4.0, -0.7, -0.2, 0.3, 0.7, 2.0]),
    "heaviside": ((Family.HEAVISIDE, 1.0, 1.0, 1.0), 1.5,
                  [-5.0, -1.0, 0.0, 1.5, 4.0]),
    "free": ((Family.WOODS_SAXON, 0.0, 1.0, 1.0), -1.0, [-6.0, -1.0, 3.0]),
    "one_point": ((Family.WOODS_SAXON, 1.0, 1.0, 1.0), -4.0, [-6.5]),
}


@pytest.mark.parametrize("case", sorted(ROW_CASES))
def test_row_columns_match_one_point_calls(case):
    (family, v0, alpha, hbar), x0, xs = ROW_CASES[case]
    md = StepModel(family, m=1.0, V0=v0, alpha=alpha, hbar=hbar)
    row = propagate(md, x0, np.array(xs), 10.0)
    assert row.G.shape == (len(xs),) and row.n_evals > 0
    assert row.est_error == max(s.est_error for s in row.samples)
    for x1, s in zip(xs, row.samples):
        one = propagate(md, x0, x1, 10.0)
        assert (s.x0, s.x1, s.T) == (one.x0, one.x1, one.T)
        assert abs(s.G - one.G) <= 1e-14
        assert abs(s.est_error - one.est_error) <= 1e-14


def test_row_zero_for_nonpositive_time(ws_unit):
    row = propagate(ws_unit, -1.0, np.array([-2.0, 0.5]), 0.0)
    assert np.all(row.G == 0.0) and row.est_error == 0.0
    assert row.n_evals == 0


def test_contour_cap_raises_instead_of_padding(ws_unit, monkeypatch):
    # the cap t = 1.01 max(kc, k*, damp, 1) ends before two quiet blocks
    monkeypatch.setattr(propagator, "K_MAX_FACTOR", 1.01)
    with pytest.raises(QuadratureError, match="x1 = -6.0"):
        propagate(ws_unit, -4.0, -6.0, 10.0)


def test_meaningless_G_raises():
    # at WS alpha=5, hbar=1/6, T=5 the panels of (x0, x1) = (-1, 35) cancel
    # to |G| ~ 560 with est_error ~ 7e6; a row reports the same column
    md = StepModel(Family.WOODS_SAXON, 1.0, 1.0, 5.0, 1.0 / 6.0)
    for x1 in (35.0, np.array([3.0, 35.0])):
        with pytest.raises(QuadratureError,
                           match=r"x1 = 35\.0 .*\|G\| = .*est_error = "):
            propagate(md, -1.0, x1, 5.0)


def test_quadrature_diagnostics_populated(ws_unit):
    s = propagate(ws_unit, -4.0, -6.0, 10.0)
    assert s.est_error >= 0 and s.n_evals > 0
    assert np.isfinite(s.G)


def test_energy_propagator_free_closed_form():
    for family in (Family.WOODS_SAXON, Family.HEAVISIDE):
        md = StepModel(family, m=1.0, V0=0.0, alpha=1.0, hbar=1.0)
        for E in (-0.7, 0.5, 2.0):
            for x0, x1 in ((-4.0, -6.0), (1.5, -2.5), (3.0, 3.0)):
                K, err = energy_propagator(md, x0, x1, E)
                kappa = cmath.sqrt(2.0 * E)
                ref = (1.0 / kappa) * np.exp(1j * kappa * abs(x1 - x0))
                assert abs(K - ref) <= 1e-14 * abs(ref) and err == 0.0
        with pytest.raises(ValidationError):
            energy_propagator(md, -4.0, -6.0, 0.0)


def _mp_closed_form(mpmath, model, k, a, x):
    """The eigenstate closed form with momenta (k, a), by mpmath.hyp2f1 at
    z = 1/(1 + e^{2 alpha x}) on the smooth step and by its plane waves on
    the sharp one."""
    h = model.hbar
    if model.family is Family.HEAVISIDE or model.V0 == 0.0:
        if x > 0:
            return mpmath.exp(1j * a * x / h)
        return ((k - a) * mpmath.exp(-1j * k * x / h)
                + (k + a) * mpmath.exp(1j * k * x / h)) / (2 * k)
    ah = model.alpha * h
    nu = 1j * (k - a) / (2 * ah)
    ax = model.alpha * mpmath.mpf(x)
    return (mpmath.power(2, -nu) * mpmath.exp(1j * (k + a) * x / (2 * h))
            * mpmath.sech(ax) ** nu
            * mpmath.hyp2f1(1 + nu, nu, 1 - 1j * a / ah,
                            1 / (1 + mpmath.exp(2 * ax))))


def _mp_energy_propagator(model, x0, x1, E):
    """K of energy_propagator's formula in 40-digit arithmetic (more where
    1 - z needs it), from mpmath.hyp2f1 and mpmath.gamma."""
    mpmath = pytest.importorskip("mpmath")
    lo, hi = min(x0, x1), max(x0, x1)
    with mpmath.workdps(40 + int(model.alpha * max(-lo, hi, 0.0))):
        m, h = model.m, model.hbar
        k = mpmath.sqrt(mpmath.mpc(2 * m * mpmath.mpf(E)))
        a = mpmath.sqrt(mpmath.mpc(2 * m * (mpmath.mpf(E) - model.V0)))
        K = 2 * m / (k + a)
        if model.family is Family.WOODS_SAXON and model.V0 != 0.0:
            ah = model.alpha * h
            K *= (mpmath.gamma(1 - 1j * (k + a) / (2 * ah)) ** 2
                  / mpmath.gamma(1 - 1j * a / ah)
                  / mpmath.gamma(1 - 1j * k / ah))
        K *= (_mp_closed_form(mpmath, model, a, k, -lo)
              * _mp_closed_form(mpmath, model, k, a, hi))
        return complex(K)


def _energy_cases():
    """Seeded (model, x0, x1, E): smooth steps alpha = 0.5 .. 50, the sharp
    step and V0 = 0; endpoints in [-8, 8] with x0 = x1 and x1 = -x0 among
    them, and the mirror endpoints that once raised."""
    rng = np.random.default_rng(14)
    models = [StepModel(Family.WOODS_SAXON, 1.0, 1.0, al, 1.0)
              for al in (0.5, 1.0, 5.0, 50.0)]
    models += [StepModel(Family.HEAVISIDE, 1.0, 1.0, 1.0, 1.0),
               StepModel(Family.WOODS_SAXON, 1.0, 0.0, 1.0, 1.0)]
    cases = []
    for md in models:
        for i in range(12):
            x0, x1 = rng.uniform(-8.0, 8.0, 2)
            x1 = (x0, -x0, x1)[min(i, 2)]
            cases.append((md, float(x0), float(x1), float(rng.uniform(-2.0, 6.0))))
    ws1 = models[1]
    cases += [(ws1, x0, x1, E) for x0, x1 in ((-1.0, 1.0), (0.3, -0.7))
              for E in (-0.5, 0.0, 0.7, 1.0, 2.5)]
    # nu = -1 in psi_<, whose 2F1(0, -1; c; z) is 1.  At V0 = 1 its
    # c - a - b = 3 is an integer and hyp2f1 sums the polynomial; at
    # V0 = 3/4 it is 5/2, and 1/Gamma(nu) = 0 drops the second term of the
    # connection pair (psi_< at -min(x0, x1) < 0)
    ws1_h05 = StepModel(Family.WOODS_SAXON, 1.0, 1.0, 1.0, 0.5)
    cases += [(ws1_h05, x0, x1, -0.125)
              for x0, x1 in ((-0.5, -3.0), (-3.0, 1.0), (-40.0, -35.0))]
    ws1_v34 = StepModel(Family.WOODS_SAXON, 1.0, 0.75, 1.0, 0.5)
    cases += [(ws1_v34, x0, x1, -0.03125) for x0, x1 in ((0.5, 2.0), (3.0, 1.0))]
    return cases


def test_energy_propagator_matches_mpmath():
    for md, x0, x1, E in _energy_cases():
        K, err = energy_propagator(md, x0, x1, E)
        ref = _mp_energy_propagator(md, x0, x1, E)
        assert abs(K - ref) <= 1e-10 * abs(ref), (md, x0, x1, E)
        assert err == 0.0
        assert energy_propagator(md, x1, x0, E)[0] == K


@pytest.mark.parametrize("alpha", [1.0, 5.0])
@pytest.mark.parametrize("hbar", [1.0, 1.0 / 6.0])
def test_reflected_gamma_table_forms_match_mpmath(alpha, hbar):
    # the x0 endpoint of a spectral kernel reads the Gamma table at (k, p)
    # reflected to (conj k, conj p); on the deformed contour, conj phi_+-
    # there in the asymptotic form (alpha x = -35) and in the connection
    # formula of the 2F1 (alpha x = -5) is the closed form at (conj k, +-conj p)
    mpmath = pytest.importorskip("mpmath")
    md = StepModel(Family.WOODS_SAXON, 1.0, 1.0, alpha, hbar)
    p = np.array([0.3, 1.0, 3.0]) * np.exp(-1j * propagator.THETA)
    k = np.sqrt(md.k_threshold ** 2 + p * p)
    gam = _reflect(_gammas(md, k, p, True))
    for ax in (-35.0, -5.0):
        x = ax / alpha
        for branch, sign in (("plus", 1), ("minus", -1)):
            got = np.conj(phi(md, branch, np.conj(k), np.conj(p), x, gam))
            with mpmath.workdps(40 + int(abs(ax))):
                ref = np.array([complex(mpmath.conj(_mp_closed_form(
                    mpmath, md, mpmath.mpc(kk.conjugate()),
                    sign * mpmath.mpc(pp.conjugate()), x)))
                    for kk, pp in zip(k, p)])
            assert np.all(np.abs(got - ref) <= 1e-10 * np.abs(ref)), (ax, branch)


def _loggamma_elements(monkeypatch, model, k, q, x0, x1, above):
    """loggamma elements that one _spectral_weight call evaluates."""
    count = [0]
    plain = specfun._sp.loggamma

    def counted(z):
        count[0] += np.size(z)
        return plain(z)

    monkeypatch.setattr(eigenstates, "loggamma", counted)
    monkeypatch.setattr(specfun._sp, "loggamma", counted)
    _spectral_weight(model, k, q, x0, x1, above)
    return count[0]


def test_one_gamma_table_per_node(monkeypatch):
    # the kernel and both endpoints share one table: 8 loggamma per node and
    # hbar column above the step, 5 below it, on an omega sweep's legs and
    # on a row of x1 (32, 16 and 38 with a loggamma per factor)
    ws5 = StepModel(Family.WOODS_SAXON, 1.0, 1.0, 5.0, 1.0)
    sweep = _hbar_columns(ws5, 1.0 / np.linspace(4.0, 6.0, 8))
    kc = ws5.k_threshold
    p = np.exp(-1j * propagator.THETA) * np.linspace(0.05, 6.0, 61)[:, None]
    k = np.sqrt(kc * kc + p * p)
    n = _loggamma_elements(monkeypatch, sweep, k, p, -5.0, -9.25, True)
    assert n <= 8 * k.shape[0] * 8
    u = np.linspace(0.02, 1.5, 61)[:, None]
    n = _loggamma_elements(monkeypatch, sweep, kc * np.sin(u) + 0j,
                           kc * np.cos(u) + 0j, -5.0, -9.25, False)
    assert n <= 5 * u.size * 8
    ws1 = StepModel(Family.WOODS_SAXON, 1.0, 1.0, 1.0, 1.0)
    n = _loggamma_elements(monkeypatch, ws1, np.sqrt(2.0 + p * p), p, -3.0,
                           np.linspace(-8.0, 2.0, 5), True)
    assert n <= 8 * p.size


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("alpha", [1.0, 5.0])
def test_energy_propagator_at_integer_connection_exponents(n, alpha):
    # E = -(n alpha hbar)^2/2m left of the step and V0 - (n alpha hbar)^2/2m
    # right of it put c - a - b = n in psi_> and psi_<: the asymptotic
    # plane-wave coefficients are 0/0 there
    md = StepModel(Family.WOODS_SAXON, 1.0, 1.0, alpha, 1.0)
    e_n = (n * alpha * md.hbar) ** 2 / (2 * md.m)
    for x0, x1, E in ((-40.0 / alpha, -35.0 / alpha, -e_n),
                      (35.0 / alpha, 40.0 / alpha, md.V0 - e_n),
                      (-0.5, -3.0, -e_n), (1.0, 2.0, md.V0 - e_n)):
        for dE, tol in ((0.0, 1e-10), (1e-7, 1e-7), (-1e-7, 1e-7)):
            K = energy_propagator(md, x0, x1, E + dE)[0]
            ref = _mp_energy_propagator(md, x0, x1, E + dE)
            assert abs(K - ref) <= tol * abs(ref), (x0, x1, E + dE)


def test_energy_propagator_solves_the_resolvent_equation():
    # (hbar^2/2m) d2K/dx1^2 + (E - V(x1)) K = 0 away from x0, and dK/dx1
    # jumps by 2 m i/hbar at x1 = x0
    rng = np.random.default_rng(7)
    h = 1e-3
    steps = np.arange(-2, 3) * h
    for alpha, hbar in ((0.5, 1.0), (1.0, 1.0), (5.0, 1.0), (1.0, 0.5)):
        md = StepModel(Family.WOODS_SAXON, 1.0, 1.0, alpha, hbar)
        c = hbar ** 2 / (2 * md.m)
        for _ in range(8):
            x0, x1 = rng.uniform(-4.0, 4.0, 2)
            E = rng.uniform(-1.5, 4.0)
            if abs(x1 - x0) > 3 * h:
                Ks = [energy_propagator(md, x0, x1 + s, E)[0] for s in steps[1:4]]
                kin = c * (Ks[0] - 2 * Ks[1] + Ks[2]) / h ** 2
                pot = (E - potential_value(md, x1)) * Ks[1]
                assert abs(kin + pot) <= 1e-5 * max(abs(kin), abs(pot))
            Ks = [energy_propagator(md, x0, x0 + s, E)[0] for s in steps]
            right = (-3 * Ks[2] + 4 * Ks[3] - Ks[4]) / (2 * h)
            left = (3 * Ks[2] - 4 * Ks[1] + Ks[0]) / (2 * h)
            jump = 2j * md.m / hbar
            assert abs(right - left - jump) <= 1e-4 * abs(jump)


def test_energy_propagator_heaviside_limit():
    ws = StepModel(Family.WOODS_SAXON, 1.0, 1.0, 1000.0, 1.0)
    hv = StepModel(Family.HEAVISIDE, 1.0, 1.0, 1.0, 1.0)
    for x0, x1 in ((-0.3, -0.2), (-0.05, 0.25), (0.1, 0.3), (-2.0, 3.0)):
        for E in (-0.5, 0.4, 1.7, 3.0):
            K_ws = energy_propagator(ws, x0, x1, E)[0]
            assert abs(K_ws - energy_propagator(hv, x0, x1, E)[0]) <= 1e-5


def test_energy_propagator_plane_wave_zero_over_zero(heaviside_unit):
    # the sharp step's plane waves divide by k left of the step and by a
    # right of it; the smooth step evaluates at both thresholds
    with pytest.raises(ValidationError):
        energy_propagator(heaviside_unit, 1.0, 2.0, 1.0)
    with pytest.raises(ValidationError):
        energy_propagator(heaviside_unit, -1.0, -2.0, 0.0)
    for x0, x1, E in ((-1.0, 2.0, 1.0), (1.0, 2.0, 0.0)):
        assert cmath.isfinite(energy_propagator(heaviside_unit, x0, x1, E)[0])
    ws = StepModel(Family.WOODS_SAXON, 1.0, 1.0, 1.0, 1.0)
    for E in (0.0, 1.0):
        K = energy_propagator(ws, 1.0, 2.0, E)[0]
        assert abs(K - _mp_energy_propagator(ws, 1.0, 2.0, E)) <= 1e-10 * abs(K)


@pytest.mark.parametrize("x0,x1,E", [
    (math.nan, 2.0, 0.5), (1.0, -math.inf, 0.5), (1.0, 2.0, math.nan),
    (1.0, 2.0, math.inf)])
def test_energy_propagator_rejects_non_finite_inputs(ws_unit, x0, x1, E):
    # before the 2F1 series: x0 = nan once summed 10,000 terms to exit 3
    with pytest.raises(ValidationError, match="finite"):
        energy_propagator(ws_unit, x0, x1, E)


def test_energy_propagator_non_finite_raises(heaviside_unit):
    # e^{kappa |x|} overflows and its partner underflows to 0
    with pytest.raises(NonFiniteError), np.errstate(all="ignore"):
        energy_propagator(heaviside_unit, -20.0, -20.0, -1e4)


def test_energy_propagator_threshold_growth(heaviside_unit):
    # |K| grows approaching the k -> 0 edge of the spectrum (retarded side)
    vals = [abs(energy_propagator(heaviside_unit, -3.0, -5.0, E)[0])
            for E in (0.5, 0.1, 0.02)]
    assert vals[2] > vals[1] > vals[0]


@pytest.mark.slow
def test_energy_propagator_vs_time_integral_oracle(heaviside_unit):
    # K(E) = K_free(E) + int_0^oo (G - G_free) e^{iET} dT.  The scattering
    # difference is stationary-phase suppressed at small T (reflected paths
    # need time ~ (|x0|+|x1|)/v), so the integral can start at eps; E < 0
    # keeps the tail free of stationary points and a smooth window kills it.
    E = -0.8
    x0, x1 = -2.0, -3.0
    K, err = energy_propagator(heaviside_unit, x0, x1, E)
    kappa = complex(np.sqrt(complex(2.0 * E)))
    if kappa.imag < 0:
        kappa = -kappa
    k_free = (1.0 / kappa) * np.exp(1j * kappa * abs(x1 - x0))

    def time_integral(eps):
        # step resolves the e^{i m u^2 / (2 hbar T)} oscillation near eps
        ts = [eps]
        while ts[-1] < 240.0:
            ts.append(ts[-1] + min(0.02 * ts[-1] ** 2 + 1e-3, 0.1))
        ts = np.asarray(ts)
        gd = np.array([propagate(heaviside_unit, x0, x1, float(t)).G
                       - free_propagator(heaviside_unit, x0, x1, float(t))
                       for t in ts])
        t1, t2 = 120.0, 240.0
        window = np.ones_like(ts)
        mask = ts > t1
        window[mask] = np.cos(0.5 * math.pi * (ts[mask] - t1) / (t2 - t1)) ** 4
        return np.trapezoid(gd * np.exp(1j * E * ts) * window, ts)

    v1, v2 = time_integral(0.20), time_integral(0.15)
    assert abs(v1 - v2) < 5e-4          # small eps-sensitivity
    assert abs((k_free + v2) - K) < 1e-3


def test_evolve_packet_norm_conservation(ws_unit):
    xs = np.linspace(-26.0, -4.0, 2201)
    psi0 = gaussian_packet(xs, center=-15.0, sigma=1.0, k_mean=1.2)
    out = np.linspace(-30.0, 2.0, 3201)
    psi_t = evolve_packet_spectral(ws_unit, xs, psi0, out, T=2.0, k_max=6.0)
    norm = math.sqrt(float(np.trapezoid(np.abs(psi_t) ** 2, out)))
    assert norm == pytest.approx(1.0, abs=1e-4)


def test_evolve_packet_non_finite_raises(ws_unit):
    xs = np.linspace(-8.0, 8.0, 161)
    psi0 = gaussian_packet(xs, center=-2.0, sigma=1.0, k_mean=1.2)
    psi0[80] = np.nan
    with pytest.raises(NonFiniteError):
        evolve_packet_spectral(ws_unit, xs, psi0, xs[::8], T=1.0,
                               n_below=33, n_above=65)


def test_evolve_packet_rejects_negative_time(ws_unit):
    # G vanishes for T < 0; the resummation must not run the phases backward
    xs = np.linspace(-8.0, 8.0, 161)
    psi0 = gaussian_packet(xs, center=-2.0, sigma=1.0, k_mean=1.2)
    for T in (-1.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="finite and >= 0"):
            evolve_packet_spectral(ws_unit, xs, psi0, xs[::8], T=T)
    psi_0 = evolve_packet_spectral(ws_unit, xs, psi0, xs[::8], T=0.0)
    assert np.max(np.abs(psi_0 - psi0[::8])) < 1e-4


@pytest.mark.parametrize("family", [Family.WOODS_SAXON, Family.HEAVISIDE])
def test_evolve_packet_free_matches_closed_form(family):
    # kc = 0: the k = 0 node carries weight, and the t^2 variable keeps it
    md = StepModel(family, 1, 0.0, 1, 1)
    c, sigma, k, T = -7.0, 1.0, 1.2, 2.0
    xs = np.linspace(-17.0, 3.0, 401)
    out = np.linspace(-15.0, 5.0, 41)
    psi_t = evolve_packet_spectral(md, xs, gaussian_packet(xs, c, sigma, k),
                                   out, T=T)
    a = sigma * sigma + 0.5j * T
    exact = ((2 * math.pi * sigma ** 2) ** 0.25 / np.sqrt(2 * math.pi * a)
             * np.exp(-(out - c - k * T) ** 2 / (4 * a)
                      + 1j * (k * out - 0.5 * k * k * T)))
    assert np.max(np.abs(psi_t - exact)) < 1e-9


@pytest.mark.parametrize("k_max,fraction", [(3.0, "3.167"), (6.0, "0.9772")])
def test_evolve_packet_beyond_k_max_raises(ws_unit, k_max, fraction):
    # a k_mean = 5 packet: k_max = 3 keeps its far tail, k_max = 6 cuts its
    # upper wing; both lose far more of ||psi0||^2 than 1e-6
    xs = np.linspace(-23.0, -7.0, 401)
    psi0 = gaussian_packet(xs, center=-15.0, sigma=1.0, k_mean=5.0)
    with pytest.raises(QuadratureError, match=f"captures {fraction}"):
        evolve_packet_spectral(ws_unit, xs, psi0, xs[::10], T=1.0,
                               k_max=k_max)


def _packet_four_calls(model, x_grid, psi0, x_out, T, k_max, n_below, n_above):
    """The packet convolution with every eigenstate evaluated by phi_grid:
    each branch's conjugate on x_grid and plain form on x_out."""
    psi_w = _simpson_weights(x_grid.size, x_grid[1] - x_grid[0]) * psi0
    m, h, kc = model.m, model.hbar, model.k_threshold
    legs = []
    if kc > 0.0:
        us = np.linspace(0.0, math.pi / 2, n_below)
        wu = _simpson_weights(n_below, us[1] - us[0])[1:]
        us = us[1:]
        legs.append((False, kc * np.sin(us), kc * np.cos(us),
                     wu * kc * np.cos(us)))
    ts = np.linspace(0.0, max(k_max * k_max - kc * kc, 1.0) ** 0.25, n_above)
    wt = _simpson_weights(n_above, ts[1] - ts[0])[1:]
    ts = ts[1:]
    qs = ts ** 2
    ks = np.sqrt(kc * kc + qs ** 2)
    legs.append((True, ks, qs, wt * 2.0 * ts * qs / ks))
    psi_T = np.zeros(x_out.size, dtype=complex)
    for above, ks, qs, wk in legs:
        rows = wk * np.exp(-1j * ks ** 2 * T / (2 * m * h))
        gam = _gammas(model, ks + 0j, qs + 0j, above)
        branches, pairs = _kernel_pairs(model, ks + 0j, qs + 0j, above, gam)
        overlap = {b: np.conj(phi_grid(model, b, ks, qs, x_grid)) @ psi_w
                   for b in branches}
        outm = {b: phi_grid(model, b, ks, qs, x_out) for b in branches}
        for b1, b0, coef in pairs:
            psi_T += (rows * coef * overlap[b0]) @ outm[b1]
    return psi_T


@pytest.mark.parametrize("md", [
    StepModel(Family.WOODS_SAXON, 1, 1, 1, 1),
    StepModel(Family.WOODS_SAXON, 1, 1, 5, 1),
    StepModel(Family.WOODS_SAXON, 1, 1, 1, 0.5),
    StepModel(Family.HEAVISIDE, 1, 1, 1, 1),
    StepModel(Family.WOODS_SAXON, 1, 0.0, 1, 1),
], ids=["ws1", "ws5", "ws1_h05", "heaviside", "free"])
def test_evolve_packet_matches_four_call_assembly(md):
    # one eigenstate matrix per grid and chunk, the other forms by
    # conjugation, against every form evaluated directly
    xs = np.linspace(-12.0, -2.0, 201)
    psi0 = gaussian_packet(xs, center=-7.0, sigma=1.0, k_mean=1.2,
                           hbar=md.hbar)
    out = np.linspace(-40.0, 35.0, 151)
    args = (md, xs, psi0, out, 2.0, 6.0, 65, 513)
    psi_t = evolve_packet_spectral(*args)
    assert np.max(np.abs(psi_t - _packet_four_calls(*args))) <= 1e-14
    assert np.max(np.abs(psi_t)) > 0.1


def test_evolve_packet_rejects_non_uniform_grid(ws_unit):
    # a power-law grid over the same span: Simpson weights from its first
    # spacing would give a wrong packet
    s = np.linspace(0.0, 1.0, 161)
    for xs in (-8.0 + 16.0 * s ** 1.5, np.linspace(8.0, -8.0, 161)):
        psi0 = gaussian_packet(np.sort(xs), center=-2.0, sigma=1.0,
                               k_mean=1.2)
        with pytest.raises(ValidationError):
            evolve_packet_spectral(ws_unit, xs, psi0, xs[::8], T=1.0,
                                   n_below=33, n_above=65)


def test_evolve_packet_rejects_psi0_off_the_grid(ws_unit):
    xs = np.linspace(-8.0, 8.0, 161)
    psi0 = gaussian_packet(xs, center=-2.0, sigma=1.0, k_mean=1.2)
    with pytest.raises(ValidationError):
        evolve_packet_spectral(ws_unit, xs, psi0[:-1], xs[::8], T=1.0,
                               n_below=33, n_above=65)
