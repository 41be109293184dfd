"""Action spectroscopy: transforms of the propagator in omega = 1/hbar.

With G(omega) the propagator evaluated at hbar = 1/omega,

    F(tau) = int_A^B sqrt(2 pi/(i omega)) G e^{i omega tau} d omega,
    L(s)   = int_A^B sqrt(2 pi/(i omega)) G e^{-omega s}   d omega,

computed by the trapezoid rule on a cached uniform omega grid (the integrand
is smooth in omega; the propagator samples dominate the cost and are shared
between both transforms).  A WKB term e^{i omega S} produces a peak of
|F|^2 at tau = -Re S, so detected "peak actions" are reported as -tau_peak;
|L|^2 is compared with the closed form of the WKB sum (wkb_model_laplace).
Both S_j, real and imaginary parts together, and the amplitudes c_j come
straight from the same samples, g(omega) ~ sum_j c_j e^{i omega S_j}, by the
matrix pencil of complex_actions: one SVD and one small eigenproblem, with
the order set by the samples' own error.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from .classical import BoundarySpec
from .errors import ValidationError
from .potential import StepModel
from .propagator import propagate

__all__ = ["OmegaWindow", "SpectrumSeries", "Peak", "propagator_omega_samples",
           "fourier_spectrum", "laplace_spectrum", "wkb_model_laplace",
           "residue_against_wkb", "synthetic_omega_samples",
           "complex_actions", "detect_peaks"]


@dataclass(frozen=True)
class OmegaWindow:
    A: float = 1.0
    B: float = 12.0
    n_omega: int = 2048

    def __post_init__(self):
        if not (0.0 < self.A < self.B):
            raise ValidationError("window must satisfy 0 < A < B")
        if self.n_omega < 64:
            raise ValidationError("need at least 64 omega samples")

    def grid(self):
        return np.linspace(self.A, self.B, self.n_omega)


@dataclass(frozen=True)
class Peak:
    location: float
    height: float
    width: float


@dataclass(frozen=True)
class SpectrumSeries:
    kind: str                      # "fourier" | "laplace"
    grid: np.ndarray
    values: np.ndarray             # |F|^2 or |L|^2
    peaks: list = field(default_factory=list)
    est_error: float = 0.0


def propagator_omega_samples(model: StepModel, bvp: BoundarySpec,
                             window: OmegaWindow, threads: int = 1):
    """G(x1, x0; T) at hbar = 1/omega over the window grid (the shared cache).

    Returns (omegas, G values, aggregated quadrature error).
    """
    omegas = window.grid()
    args = [(replace(model, hbar=1.0 / w), bvp.x0, bvp.x1, bvp.T)
            for w in omegas]
    if threads > 1:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=threads) as ex:
            samples = list(ex.map(propagate, *zip(*args), chunksize=16))
    else:
        samples = [propagate(*a) for a in args]
    values = np.array([s.G for s in samples])
    err = float(np.sum([s.est_error for s in samples]) / len(samples))
    return omegas, values, err


def _kernel_row(omegas, g_values):
    """sqrt(2 pi / (i omega)) G(omega), principal branch."""
    return np.sqrt(2.0 * math.pi / (1j * omegas)) * g_values


def detect_peaks(grid, values, min_separation: float = 0.0):
    """Prominence-based local maxima with quadratic sub-grid refinement.

    A peak must rise by 0.04 x (max - median) above its surroundings and
    clear 1.5 x the median background; peaks closer than min_separation to a
    taller one are treated as window sidelobes and dropped (callers pass
    ~1.6 x 2 pi/(B - A))."""
    from scipy.signal import find_peaks

    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    background = float(np.median(values))
    prom = 0.04 * max(float(np.max(values)) - background, 1e-300)
    idx, _ = find_peaks(values, prominence=prom, height=1.5 * background)
    out = []
    dx = grid[1] - grid[0] if grid.size > 1 else 1.0
    for i in idx:
        if i == 0 or i == len(values) - 1:
            continue
        y0, y1, y2 = values[i - 1], values[i], values[i + 1]
        denom = y0 - 2 * y1 + y2
        shift = float(np.clip(0.5 * (y0 - y2) / denom, -1, 1)) if denom else 0.0
        loc = grid[i] + shift * dx
        height = y1 - 0.25 * (y0 - y2) * shift
        half = height / 2.0
        j = i
        while j > 0 and values[j] > half:
            j -= 1
        kk = i
        while kk < len(values) - 1 and values[kk] > half:
            kk += 1
        out.append(Peak(location=float(loc), height=float(height),
                        width=float(grid[kk] - grid[j])))
    out.sort(key=lambda p: -p.height)
    if min_separation > 0:
        kept = []
        for p in out:
            if all(abs(p.location - q.location) >= min_separation
                   for q in kept):
                kept.append(p)
        out = kept
    return out


#: output points per block of the transform kernel, which holds
#: _TRANSFORM_BLOCK x len(omegas) complex values at a time
_TRANSFORM_BLOCK = 1024


def _transform(kind, omegas, g_values, out_grid):
    row = _kernel_row(omegas, g_values)
    out_grid = np.asarray(out_grid, dtype=float).ravel()
    sign = 1j if kind == "fourier" else -1.0
    out = np.empty(out_grid.size, dtype=complex)
    for i in range(0, out_grid.size, _TRANSFORM_BLOCK):
        block = out_grid[i:i + _TRANSFORM_BLOCK]
        kernel = np.exp(sign * np.outer(block, omegas))
        out[i:i + block.size] = np.trapezoid(kernel * row[None, :], omegas,
                                             axis=1)
    return out


def _spectrum(kind, model, bvp, window, grid, samples, min_separation=0.0):
    """|F|^2 or |L|^2 of the samples (fetched when None) on the grid, with
    detected peaks."""
    grid = np.asarray(grid, dtype=float)
    if samples is None:
        samples = propagator_omega_samples(model, bvp, window)
    omegas, gv, err = samples
    vals = np.abs(_transform(kind, omegas, gv, grid)) ** 2
    return SpectrumSeries(kind=kind, grid=grid, values=vals,
                          peaks=detect_peaks(grid, vals, min_separation),
                          est_error=err)


def fourier_spectrum(model: StepModel, bvp: BoundarySpec, window: OmegaWindow,
                     tau_grid, samples=None) -> SpectrumSeries:
    """|F(tau)|^2 with detected peaks; peak actions are -tau_peak."""
    sep = 1.6 * 2.0 * math.pi / (window.B - window.A)
    return _spectrum("fourier", model, bvp, window, tau_grid, samples, sep)


def laplace_spectrum(model: StepModel, bvp: BoundarySpec, window: OmegaWindow,
                     s_grid, samples=None) -> SpectrumSeries:
    """|L(s)|^2 on the s grid (s >= 0)."""
    if np.any(np.asarray(s_grid, dtype=float) < 0):
        raise ValidationError("Laplace grid must be non-negative")
    return _spectrum("laplace", model, bvp, window, s_grid, samples)


def wkb_model_laplace(saddles, window: OmegaWindow, s_grid):
    """closed-form |L| of the WKB sum: the sqrt(2 pi/(i omega)) prefactor
    cancels sqrt(i omega/(2 pi)) of each term, leaving

        L_model(s) = sum_j sqrt_vv_j (e^{B(iS_j - s)} - e^{A(iS_j - s)})/(iS_j - s).
    """
    s_grid = np.asarray(s_grid, dtype=float)
    total = np.zeros(s_grid.size, dtype=complex)
    for sad in saddles:
        sq = sad.sqrt_vv if sad.sqrt_vv is not None else np.sqrt(complex(sad.vv))
        expo = 1j * sad.S - s_grid
        total += sq * (np.exp(window.B * expo) - np.exp(window.A * expo)) / expo
    return total


def residue_against_wkb(model: StepModel, bvp: BoundarySpec,
                        window: OmegaWindow, saddle_sets, s_grid,
                        samples=None):
    """L2 norm over s of |L_exact| - |L_model| for each saddle set."""
    s_grid = np.asarray(s_grid, dtype=float)
    if samples is None:
        samples = propagator_omega_samples(model, bvp, window)
    omegas, gv, _ = samples
    l_exact = np.abs(_transform("laplace", omegas, gv, s_grid))
    ds = s_grid[1] - s_grid[0] if s_grid.size > 1 else 1.0
    out = []
    for saddles in saddle_sets:
        l_model = np.abs(wkb_model_laplace(saddles, window, s_grid))
        out.append(float(np.sqrt(np.sum((l_exact - l_model) ** 2) * ds)))
    return out


def synthetic_omega_samples(window: OmegaWindow, actions, coeffs):
    """Synthetic G(omega) = sum_j c_j sqrt(i omega/(2 pi)) e^{i omega S_j}, the
    shape of a WKB sum: _kernel_row turns it into sum_j c_j e^{i omega S_j}."""
    omegas = window.grid()
    g = np.zeros(omegas.size, dtype=complex)
    for c, S in zip(coeffs, actions):
        g += c * np.exp(1j * omegas * np.asarray(S, complex))
    return omegas, np.sqrt(1j * omegas / (2.0 * math.pi)) * g, 0.0


def complex_actions(samples):
    """Every complex action S_j and amplitude c_j of g(omega) = _kernel_row
    ~ sum_j c_j e^{i S_j omega} by the matrix pencil (Hua & Sarkar, IEEE
    Trans. ASSP 38, 814 (1990)); for a WKB saddle c_j is its sqrt_vv.

    samples is the (omegas, G, err) of propagator_omega_samples on a uniform
    grid.  The order M counts the singular values of the Hankel matrix of g
    above the floor sqrt(N) err sqrt(2 pi/omega_min) that the samples' own
    error implies (numpy's rank tolerance N eps s_0 at err = 0); an order
    that fills the pencil means no floor was found, and raises.  Returns
    (actions, amplitudes, relative residual), sorted by falling |c_j|."""
    omegas, g_values, err = samples
    omegas = np.asarray(omegas, dtype=float)
    step = np.diff(omegas)
    if not np.allclose(step, step[0], rtol=1e-9, atol=0.0):
        raise ValidationError("the matrix pencil needs a uniform omega grid")
    g = _kernel_row(omegas, g_values)
    n = g.size
    hankel = np.lib.stride_tricks.sliding_window_view(g, n // 2 + 1)
    _, sv, vh = np.linalg.svd(hankel, full_matrices=False)
    floor = (math.sqrt(n) * err * math.sqrt(2.0 * math.pi / omegas[0])
             if err > 0 else n * np.finfo(float).eps * sv[0])
    order = int(np.sum(sv > floor))
    if not 0 < order < sv.size:
        raise ValidationError(f"{order} of {sv.size} singular values above the "
                              f"noise floor {floor:.3g}: no order to fit")
    v = vh[:order].T  # the plain transpose; the conjugate one gives conj(z)
    z = np.linalg.eigvals(np.linalg.pinv(v[:-1]) @ v[1:])
    actions = np.log(z) / (1j * step[0])
    basis = np.exp(1j * np.outer(omegas, actions))
    amps = np.linalg.lstsq(basis, g, rcond=None)[0]
    strongest = np.argsort(-np.abs(amps))
    residual = np.linalg.norm(g - basis @ amps) / np.linalg.norm(g)
    return actions[strongest], amps[strongest], float(residual)
