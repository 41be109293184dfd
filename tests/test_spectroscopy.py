import math
import re
from dataclasses import replace

import numpy as np
import pytest

from stepprop import classical as cl
from stepprop import propagator
from stepprop import spectroscopy as sp
from stepprop.errors import QuadratureError, ValidationError
from stepprop.potential import Family, StepModel
from stepprop.propagator import propagate


WINDOW = sp.OmegaWindow(A=1.0, B=12.0, n_omega=2048)
FIG16 = cl.BoundarySpec(-5.0, -9.25, 10.0)


def _series_from_samples(kind, samples, grid, window=WINDOW):
    omegas, gv, err = samples
    vals = np.abs(sp._transform(kind, omegas, gv, grid)) ** 2
    sep = 1.6 * 2.0 * math.pi / (window.B - window.A)
    return sp.SpectrumSeries(kind=kind, grid=np.asarray(grid, float),
                             values=vals,
                             peaks=sp.detect_peaks(grid, vals,
                                                   min_separation=sep),
                             est_error=err)


def test_single_synthetic_saddle_peak_position():
    S = -3.7 + 0.0j
    samples = sp.synthetic_omega_samples(WINDOW, [S], [1.0])
    taus = np.linspace(0.0, 8.0, 801)
    series = _series_from_samples("fourier", samples, taus)
    assert series.peaks, "no peak detected"
    top = series.peaks[0]
    step = taus[1] - taus[0]
    assert abs(-top.location - S.real) <= step


def test_peak_width_scales_with_window():
    S = -4.0 + 0.0j
    taus = np.linspace(2.0, 6.0, 4001)
    widths = []
    for B in (7.0, 13.0):
        win = sp.OmegaWindow(A=1.0, B=B, n_omega=2048)
        series = _series_from_samples(
            "fourier", sp.synthetic_omega_samples(win, [S], [1.0]), taus)
        widths.append(series.peaks[0].width)
    ratio = widths[0] / widths[1]
    expected = (13.0 - 1.0) / (7.0 - 1.0)
    assert ratio == pytest.approx(expected, rel=0.2)


def test_two_saddle_calibration_recovers_actions():
    # criterion-13 style synthetic recovery; the tau step is chosen at the
    # transform's resolution scale (a fraction of the 2 pi/(B-A) lobe)
    s1, s2 = -2.0 + 0.15j, -7.5 + 0.25j
    samples = sp.synthetic_omega_samples(WINDOW, [s1, s2], [1.0, 0.8])
    taus = np.linspace(0.0, 10.0, 201)
    series = _series_from_samples("fourier", samples, taus)
    assert len(series.peaks) >= 2
    locs = sorted(-p.location for p in series.peaks[:2])
    step = taus[1] - taus[0]
    assert abs(locs[0] - s2.real) <= step
    assert abs(locs[1] - s1.real) <= step
    actions, amps, residual = sp.complex_actions(samples)
    np.testing.assert_allclose(actions, [s1, s2], rtol=0, atol=1e-10)
    np.testing.assert_allclose(amps, [1.0, 0.8], rtol=0, atol=1e-10)
    assert residual < 1e-10


def test_complex_actions_heaviside_direct_and_reflected():
    # Heaviside (x0, x1, T) = (5, 4, 10): the direct path, S = -9.95 with
    # |c| = 1/sqrt(T), and the path reflected off the step, S = -5.95 with
    # |c| = |r|/sqrt(T), r = (q - k)/(q + k) at E = m (x0 + x1)^2/(2T^2) + V0
    md = StepModel(Family.HEAVISIDE, 1, 1, 1, 1)
    bvp = cl.BoundarySpec(5.0, 4.0, 10.0)
    samples = sp.propagator_omega_samples(
        md, bvp, sp.OmegaWindow(A=1.0, B=12.0, n_omega=256))
    actions, amps, _ = sp.complex_actions(samples)
    E = 81.0 / 200.0 + 1.0
    k, q = math.sqrt(2.0 * E), math.sqrt(2.0 * (E - 1.0))
    np.testing.assert_allclose(actions[:2], [-9.95, -5.95], rtol=0, atol=1e-3)
    np.testing.assert_allclose(
        np.abs(amps[:2]), [1.0, abs((q - k) / (q + k))] / np.sqrt(10.0),
        rtol=1e-2)


def test_complex_actions_raise_without_a_uniform_grid_or_a_floor():
    omegas, gv, _ = sp.synthetic_omega_samples(WINDOW, [-3.0 + 0.1j], [1.0])
    with pytest.raises(ValidationError, match="uniform"):
        sp.complex_actions((omegas ** 1.5, gv, 0.0))
    # white noise has no singular-value floor: every order fills the pencil
    noise = [1.0, 1j] @ np.random.default_rng(3).standard_normal((2, 256))
    with pytest.raises(ValidationError, match="no order"):
        sp.complex_actions((omegas[:256], noise, 0.0))


def test_parseval_invariance_under_refinement():
    samples = sp.synthetic_omega_samples(WINDOW, [-3.0 + 0.1j], [1.0])
    taus1 = np.linspace(0.0, 40.0, 20001)
    taus2 = np.linspace(0.0, 40.0, 40001)
    p1 = np.trapezoid(np.abs(sp._transform("fourier", samples[0], samples[1],
                                           taus1)) ** 2, taus1)
    p2 = np.trapezoid(np.abs(sp._transform("fourier", samples[0], samples[1],
                                           taus2)) ** 2, taus2)
    assert p1 == pytest.approx(p2, rel=1e-6)


def test_real_action_laplace_envelope_monotone():
    samples = sp.synthetic_omega_samples(WINDOW, [-5.0 + 0.0j], [1.0])
    s_grid = np.linspace(0.0, 2.0, 201)
    l_abs = np.abs(sp._transform("laplace", samples[0], samples[1], s_grid))
    assert np.all(np.diff(l_abs) < 0)
    assert np.argmax(l_abs) == 0


def test_residue_against_wkb_trivial_cases():
    S = -3.0 + 0.2j
    samples = sp.synthetic_omega_samples(WINDOW, [S], [0.7])
    s_grid = np.linspace(0.0, 1.0, 101)
    md = StepModel(Family.HEAVISIDE, 1, 1, 1, 1)
    bvp = cl.BoundarySpec(-4.0, -6.0, 10.0)
    # empty saddle set: residue equals ||L_exact||
    (r_empty,) = sp.residue_against_wkb(md, bvp, WINDOW, [[]], s_grid,
                                        samples=samples)
    l_exact = np.abs(sp._transform("laplace", samples[0], samples[1], s_grid))
    ds = s_grid[1] - s_grid[0]
    assert r_empty == pytest.approx(float(np.sqrt(np.sum(l_exact ** 2) * ds)))
    # self-comparison: a saddle reproducing the WKB-shaped synthetic signal,
    # G(omega) = sqrt_vv sqrt(i omega/(2 pi)) e^{i omega S}; the residue is
    # then limited only by the trapezoid quadrature of the samples
    sad = cl.ClassicalSaddle(cl.SaddleKind.CAUSTIC, 1.0, S,
                             0.49 + 0j, sqrt_vv=0.7 + 0j)
    (r_self,) = sp.residue_against_wkb(md, bvp, WINDOW, [[sad]], s_grid,
                                       samples=samples)
    assert r_self < 1e-3 * r_empty


def test_omega_window_validation():
    with pytest.raises(Exception):
        sp.OmegaWindow(A=-1.0, B=2.0)
    with pytest.raises(Exception):
        sp.OmegaWindow(A=1.0, B=2.0, n_omega=8)
    # B = inf once passed, and the sweep ran into its panel budget
    for A, B in ((1.0, math.inf), (-math.inf, 2.0), (math.nan, 2.0),
                 (1.0, math.nan)):
        with pytest.raises(ValidationError):
            sp.OmegaWindow(A=A, B=B)


@pytest.mark.parametrize("kind", ["fourier", "laplace"])
def test_transform_blocks_match_dense_kernel(kind):
    # a grid spanning three kernel blocks gives the dense-kernel result
    omegas, gv, _ = sp.synthetic_omega_samples(
        sp.OmegaWindow(A=1.0, B=12.0, n_omega=64), [-3.0 + 0.1j], [1.0])
    grid = np.linspace(0.0, 4.0, 2 * sp._TRANSFORM_BLOCK + 37)
    sign = 1j if kind == "fourier" else -1.0
    dense = np.trapezoid(np.exp(sign * np.outer(grid, omegas))
                         * sp._kernel_row(omegas, gv)[None, :], omegas, axis=1)
    np.testing.assert_array_equal(sp._transform(kind, omegas, gv, grid), dense)


@pytest.mark.parametrize("alpha", [None, 1.0, 5.0],
                         ids=["heaviside", "ws1", "ws5"])
def test_omega_columns_match_one_point_calls(alpha, monkeypatch):
    md = (StepModel(Family.HEAVISIDE, 1, 1, 1, 1) if alpha is None
          else StepModel(Family.WOODS_SAXON, 1.0, 1.0, alpha, 1.0))
    # the above-threshold block each column stopped on, and the rows
    stops, rows = [], []
    stops_fn, propagate_fn = propagator._stops, sp.propagate

    def spy_stops(*args):
        stops.append(stops_fn(*args))
        return stops[-1]

    def spy_propagate(*args):
        rows.append(propagate_fn(*args))
        return rows[-1]

    monkeypatch.setattr(propagator, "_stops", spy_stops)
    monkeypatch.setattr(sp, "propagate", spy_propagate)
    # eight full blocks and a partial one; from A = 0.2 the first block
    # spans hbar = 5 to 0.69, whose columns stop on different blocks
    window = sp.OmegaWindow(A=0.2, B=12.0, n_omega=8 * sp.OMEGA_BLOCK + 3)
    omegas, G, err = sp.propagator_omega_samples(md, FIG16, window)
    assert [r.G.size for r in rows] == [sp.OMEGA_BLOCK] * 8 + [3]
    assert np.unique(stops[0]).size > 1
    errs = np.concatenate([r.est_errors for r in rows])
    assert err == np.sum(errs) / errs.size
    for w, g, e in zip(omegas, G, errs):
        one = propagate(replace(md, hbar=1.0 / w), FIG16.x0, FIG16.x1, FIG16.T)
        assert abs(one.G - g) <= 1e-14
        assert abs(one.est_error - e) <= 1e-14


def _raises(fn, *args):
    with pytest.raises(QuadratureError) as exc:
        fn(*args)
    return str(exc.value)


def test_sweep_cap_names_the_column(monkeypatch):
    # as in test_contour_cap_raises_instead_of_padding; the sweep raises
    # the message of a one-point call at the hbar it names
    monkeypatch.setattr(propagator, "K_MAX_FACTOR", 1.01)
    md = StepModel(Family.WOODS_SAXON, 1.0, 1.0, 1.0, 1.0)
    window = sp.OmegaWindow(A=1.0, B=12.0, n_omega=64)
    msg = _raises(sp.propagator_omega_samples, md,
                  cl.BoundarySpec(-4.0, -6.0, 10.0), window)
    assert re.search(r"x1 = -6\.0 and hbar = \S+ reached its cap", msg)
    h = float(re.search(r"hbar = (\S+) ", msg).group(1))
    assert np.any(1.0 / window.grid() == h)
    assert _raises(propagate, replace(md, hbar=h), -4.0, -6.0, 10.0) == msg


def test_sweep_meaningless_G_names_the_column():
    # the case of test_meaningless_G_raises, WS alpha = 5, hbar = 1/6,
    # (-1, 35), T = 5, at column 22 of a window whose first columns are
    # sound: the sweep names the first column whose one-point call raises
    md = StepModel(Family.WOODS_SAXON, 1.0, 1.0, 5.0, 1.0)
    bvp = cl.BoundarySpec(-1.0, 35.0, 5.0)
    window = sp.OmegaWindow(A=3.25, B=3.25 + 63 * 0.125, n_omega=64)
    assert window.grid()[22] == 6.0
    msg = _raises(sp.propagator_omega_samples, md, bvp, window)
    assert re.search(r"x1 = 35\.0 and hbar = \S+ is meaningless", msg)
    for j, w in enumerate(window.grid()):
        try:
            propagate(replace(md, hbar=1.0 / w), bvp.x0, bvp.x1, bvp.T)
        except QuadratureError as exc:
            # |G| and est_error of a cancelling column differ beyond rounding
            assert j > 0 and str(exc).split(":")[0] == msg.split(":")[0]
            break
    else:
        pytest.fail("no one-point call raised")
