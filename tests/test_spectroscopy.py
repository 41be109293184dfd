import math

import numpy as np
import pytest

from stepprop import classical as cl
from stepprop import spectroscopy as sp
from stepprop.potential import Family, StepModel


WINDOW = sp.OmegaWindow(A=1.0, B=12.0, n_omega=2048)


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
    s_grid = np.linspace(0.0, 1.5, 161)
    l_vals = sp._transform("laplace", samples[0], samples[1], s_grid)
    im_fit = sp.fit_laplace_actions(WINDOW, s_grid, l_vals,
                                    [s1.real, s2.real])
    assert im_fit[0] == pytest.approx(s1.imag, rel=0.10)
    assert im_fit[1] == pytest.approx(s2.imag, rel=0.10)


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


def test_match_peaks_association():
    s1, s2 = -2.0 + 0.0j, -7.5 + 0.0j
    samples = sp.synthetic_omega_samples(WINDOW, [s1, s2], [1.0, 0.8])
    taus = np.linspace(0.0, 10.0, 1001)
    series = _series_from_samples("fourier", samples, taus)
    sad1 = cl.ClassicalSaddle(cl.SaddleKind.DIRECT, 0.1, s1, -0.1 + 0j)
    sad2 = cl.ClassicalSaddle(cl.SaddleKind.CAUSTIC, 0.2, s2, 0.1 + 0j)
    ghost = cl.ClassicalSaddle(cl.SaddleKind.TOPOLOGICAL, 0.3, -50.0 + 0j,
                               0.1 + 0j)
    matches = sp.match_peaks(series, [sad1, sad2, ghost], tol=0.2)
    assert matches[0][1] is not None and not matches[0][2]
    assert matches[1][1] is not None and not matches[1][2]
    assert matches[2][1] is None              # irrelevant saddle: no peak
    # a degenerate pair maps to one peak with the flag raised
    near = cl.ClassicalSaddle(cl.SaddleKind.TOPOLOGICAL, 0.3, s2 + 0.03, 0.1 + 0j)
    matches = sp.match_peaks(series, [sad2, near], tol=0.2)
    assert matches[1][2] is True


def test_residue_against_wkb_trivial_cases():
    samples = sp.synthetic_omega_samples(WINDOW, [-3.0 + 0.2j], [0.7])
    s_grid = np.linspace(0.0, 1.0, 101)
    md = StepModel(Family.HEAVISIDE, 1, 1, 1, 1)
    bvp = cl.BoundarySpec(-4.0, -6.0, 10.0)
    # empty saddle set: residue equals ||L_exact||
    (r_empty,) = sp.residue_against_wkb(md, bvp, WINDOW, [[]], s_grid,
                                        samples=samples)
    l_exact = np.abs(sp._transform("laplace", samples[0], samples[1], s_grid))
    ds = s_grid[1] - s_grid[0]
    assert r_empty == pytest.approx(float(np.sqrt(np.sum(l_exact ** 2) * ds)))
    # self-comparison: a saddle reproducing an exact-WKB-shaped signal,
    # G(omega) = sqrt_vv sqrt(i omega/(2 pi)) e^{i omega S}; the residue is
    # then limited only by the trapezoid quadrature of the samples
    S = -3.0 + 0.2j
    omegas = WINDOW.grid()
    g_wkb = 0.7 * np.sqrt(1j * omegas / (2 * math.pi)) * np.exp(1j * omegas * S)
    samples_wkb = (omegas, g_wkb, 0.0)
    sad = cl.ClassicalSaddle(cl.SaddleKind.CAUSTIC, 1.0, S,
                             0.49 + 0j, sqrt_vv=0.7 + 0j)
    (r_self,) = sp.residue_against_wkb(md, bvp, WINDOW, [[sad]], s_grid,
                                       samples=samples_wkb)
    (r_none,) = sp.residue_against_wkb(md, bvp, WINDOW, [[]], s_grid,
                                       samples=samples_wkb)
    assert r_self < 1e-3 * r_none


def test_omega_window_validation():
    with pytest.raises(Exception):
        sp.OmegaWindow(A=-1.0, B=2.0)
    with pytest.raises(Exception):
        sp.OmegaWindow(A=1.0, B=2.0, n_omega=8)


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
