"""Action spectroscopy: transforms of the propagator in omega = 1/hbar.

With G(omega) the propagator evaluated at hbar = 1/omega,

    F(tau) = int_A^B sqrt(2 pi/(i omega)) G e^{i omega tau} d omega,
    L(s)   = int_A^B sqrt(2 pi/(i omega)) G e^{-omega s}   d omega,

computed by the trapezoid rule on a cached uniform omega grid (the integrand
is smooth in omega; the propagator samples dominate the cost and are shared
between both transforms).  A WKB term e^{i omega S} produces a peak of
|F|^2 at tau = -Re S, so detected "peak actions" are reported as -tau_peak;
|L|^2 envelopes encode Im S through the windowed single-pole model

    P(s) = |c (e^{A(iS - s)} - e^{B(iS - s)}) / (s - i S)|.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from .classical import BoundarySpec
from .errors import ValidationError
from .potential import StepModel
from .propagator import QuadratureConfig, propagate

__all__ = ["OmegaWindow", "SpectrumSeries", "Peak", "propagator_omega_samples",
           "fourier_spectrum", "laplace_spectrum", "wkb_model_laplace",
           "residue_against_wkb", "match_peaks", "synthetic_omega_samples",
           "fit_laplace_actions", "detect_peaks"]


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
                             window: OmegaWindow,
                             cfg: QuadratureConfig | None = None,
                             threads: int = 1):
    """G(x1, x0; T) at hbar = 1/omega over the window grid (the shared cache).

    Returns (omegas, G values, aggregated quadrature error).
    """
    from dataclasses import replace

    omegas = window.grid()
    args = [(replace(model, hbar=1.0 / w), bvp.x0, bvp.x1, bvp.T, cfg)
            for w in omegas]
    if threads > 1:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=threads) as ex:
            samples = list(ex.map(_propagate_star, args, chunksize=16))
    else:
        samples = [_propagate_star(a) for a in args]
    values = np.array([s.G for s in samples])
    err = float(np.sum([s.est_error for s in samples]) / len(samples))
    return omegas, values, err


def _propagate_star(args):
    model, x0, x1, T, cfg = args
    return propagate(model, x0, x1, T, cfg)


def _kernel_row(omegas, g_values):
    """sqrt(2 pi / (i omega)) G(omega), principal branch."""
    return np.sqrt(2.0 * math.pi / (1j * omegas)) * g_values


def detect_peaks(grid, values, prominence_factor: float = 0.04,
                 min_separation: float = 0.0):
    """Prominence-based local maxima with quadratic sub-grid refinement.

    A peak must rise by prominence_factor x (max - median) above its
    surroundings and clear 1.5 x the median background; peaks closer than
    min_separation to a taller one are treated as window sidelobes and
    dropped (callers pass ~1.6 x 2 pi/(B - A))."""
    from scipy.signal import find_peaks, peak_prominences

    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    background = float(np.median(values))
    prom = prominence_factor * max(float(np.max(values)) - background, 1e-300)
    idx, props = find_peaks(values, prominence=prom,
                            height=1.5 * background)
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


def fourier_spectrum(model: StepModel, bvp: BoundarySpec, window: OmegaWindow,
                     tau_grid, samples=None, cfg=None) -> SpectrumSeries:
    """|F(tau)|^2 with detected peaks; peak actions are -tau_peak."""
    if samples is None:
        omegas, gv, err = propagator_omega_samples(model, bvp, window, cfg)
    else:
        omegas, gv, err = samples
    F = _transform("fourier", omegas, gv, tau_grid)
    vals = np.abs(F) ** 2
    sep = 1.6 * 2.0 * math.pi / (window.B - window.A)
    return SpectrumSeries(kind="fourier", grid=np.asarray(tau_grid, float),
                          values=vals,
                          peaks=detect_peaks(tau_grid, vals,
                                             min_separation=sep),
                          est_error=err)


def laplace_spectrum(model: StepModel, bvp: BoundarySpec, window: OmegaWindow,
                     s_grid, samples=None, cfg=None) -> SpectrumSeries:
    """|L(s)|^2 on the s grid (s >= 0)."""
    s_grid = np.asarray(s_grid, dtype=float)
    if np.any(s_grid < 0):
        raise ValidationError("Laplace grid must be non-negative")
    if samples is None:
        omegas, gv, err = propagator_omega_samples(model, bvp, window, cfg)
    else:
        omegas, gv, err = samples
    L = _transform("laplace", omegas, gv, s_grid)
    vals = np.abs(L) ** 2
    return SpectrumSeries(kind="laplace", grid=s_grid, values=vals,
                          peaks=detect_peaks(s_grid, vals), est_error=err)


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
                        samples=None, cfg=None):
    """L2 norm over s of |L_exact| - |L_model| for each saddle set."""
    s_grid = np.asarray(s_grid, dtype=float)
    if samples is None:
        samples = propagator_omega_samples(model, bvp, window, cfg)
    omegas, gv, _ = samples
    l_exact = np.abs(_transform("laplace", omegas, gv, s_grid))
    ds = s_grid[1] - s_grid[0] if s_grid.size > 1 else 1.0
    out = []
    for saddles in saddle_sets:
        l_model = np.abs(wkb_model_laplace(saddles, window, s_grid))
        out.append(float(np.sqrt(np.sum((l_exact - l_model) ** 2) * ds)))
    return out


def match_peaks(series: SpectrumSeries, saddles, tol: float):
    """Greedy nearest association of saddle Re S to Fourier peak actions.

    Returns a list of (saddle, peak or None, degenerate_flag)."""
    if series.kind != "fourier":
        raise ValidationError("peak matching uses the Fourier spectrum")
    actions = [(-p.location, p) for p in series.peaks]
    matches = []
    used = {}
    for sad in saddles:
        best = None
        for act, p in actions:
            d = abs(act - sad.S.real)
            if d <= tol and (best is None or d < best[0]):
                best = (d, p)
        if best is None:
            matches.append((sad, None, False))
        else:
            peak = best[1]
            degenerate = id(peak) in used
            used[id(peak)] = True
            matches.append((sad, peak, degenerate))
    return matches


def synthetic_omega_samples(window: OmegaWindow, actions, coeffs):
    """Synthetic G(omega) = sum_j c_j omega^{-1/2} e^{i omega S_j}."""
    omegas = window.grid()
    g = np.zeros(omegas.size, dtype=complex)
    for c, S in zip(coeffs, actions):
        g += c * omegas ** -0.5 * np.exp(1j * omegas * np.asarray(S, complex))
    return omegas, g, 0.0


def fit_laplace_actions(window: OmegaWindow, s_grid, l_values, re_actions,
                        im_max=1.5, row_power=-1.0, n_omega_fit=None):
    """Extract Im S of each saddle from the Laplace transform.

    Re S values are held fixed (taken from the Fourier stage).  For trial
    imaginary parts the model transform rows c_j omega^row_power
    e^{i omega S_j} are linear in the coefficients, so they are projected
    out by linear least squares (variable projection) and only the Im S_j
    are searched.  row_power = -1 matches the omega^{-1/2} synthetic signal
    family; row_power = 0 matches exact-WKB-shaped signals.  Returns the
    fitted Im S list.
    """
    s_grid = np.asarray(s_grid, dtype=float)
    l_values = np.asarray(l_values, dtype=complex)
    # the trial transform must use the same omega grid as the data, or its
    # quadrature mismatch swamps weak saddles
    omegas = (window.grid() if n_omega_fit is None
              else np.linspace(window.A, window.B, n_omega_fit))
    weight = omegas ** row_power
    n = len(re_actions)
    # im_s only shifts the argument: basis(s; im_s) = B(s + im_s); so each
    # saddle needs a single dense table of B on [0, s_max + im_max]
    # exp(-s omega) factors out of the im_s dependence, so candidates cost
    # one row scaling plus a weighted row-sum instead of a fresh outer exp
    base = np.exp(np.outer(-s_grid, omegas))
    trapz_w = np.gradient(omegas)
    trapz_w[0] *= 0.5
    trapz_w[-1] *= 0.5
    phases = [weight * np.exp(1j * re_s * omegas) for re_s in re_actions]

    def basis_column(j, im_s):
        return base @ (phases[j] * np.exp(-im_s * omegas) * trapz_w)

    # relative weighting keeps the fast-decaying (weak) saddles visible
    wr = 1.0 / (np.abs(l_values) + 1e-3 * float(np.max(np.abs(l_values))))

    def projected_residual(ims):
        M = np.stack([wr * basis_column(j, abs(ims[j])) for j in range(n)],
                     axis=1)
        coef, *_ = np.linalg.lstsq(M, wr * l_values, rcond=None)
        return float(np.linalg.norm(wr * l_values - M @ coef))

    from itertools import product

    from scipy.optimize import minimize
    coarse = np.linspace(5e-3, im_max, 18 if n <= 2 else 8)
    scored = sorted(
        ((projected_residual(np.asarray(combo)), combo)
         for combo in product(coarse, repeat=n)), key=lambda t: t[0])
    best = None
    for _, seed in scored[:3]:
        fit = minimize(projected_residual, np.asarray(seed),
                       method="Nelder-Mead",
                       options={"xatol": 1e-6, "fatol": 1e-14, "maxfev": 800})
        if best is None or fit.fun < best.fun:
            best = fit
    return [abs(float(v)) for v in best.x]
