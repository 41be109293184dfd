"""Real-time propagator via the spectral representation; energy propagator.

    G(x1,x0;T) = Theta(T) [ int_0^kc  w_c(k)  e^{-i k^2 T/(2 m hbar)} dk
                          + int_kc^oo w_pm(k) e^{-i k^2 T/(2 m hbar)} dk ],

with kc = sqrt(2 m V0) and the orthonormal-eigenstate kernels

    w_c  = varphi_c(x1)  varphi_c(x0)^*,
    w_pm = varphi_-(x1) varphi_-(x0)^* + varphi_+(x1) varphi_+(x0)^*,

written as analytic functions of k (each conjugate f(k, q)^* continued as
the reflection conj(f(conj(k), conj(q)))), so the above-threshold leg can be
deformed into the lower half-plane where the kernel decays like a Gaussian.

Substitutions remove the square-root branch points at threshold:
below, k = kc sin(u); above, p = t e^{-i THETA} with k = sqrt(kc^2 + p^2).
The above leg runs in tau = t/damp, damp = sqrt(2 m hbar/(T sin 2 THETA)),
where e^{-i p^2 T/(2 m hbar)} = e^{-i e^{-2i THETA} tau^2/sin 2 THETA} does
not depend on hbar: the hbar columns of an omega sweep share tau panels.

The energy propagator needs no integral: it is the closed-form Wronskian
product of the two outgoing eigenstates (see energy_propagator).

T <= 0 returns an exactly zero amplitude (retarded convention).
"""
from __future__ import annotations

import cmath
import copy
import math
from dataclasses import dataclass

import numpy as np

from .eigenstates import (_BRANCHES, _ROWS, _gammas, _heaviside_like,
                          _norm, _phi_ws_full, _reflect, norm_combos,
                          npp_analytic, phi, phi_grid)
from .errors import NonFiniteError, QuadratureError, ValidationError
from .potential import StepModel
from .quadrature import integrate_adaptive

__all__ = ["QuadratureConfig", "PropagatorSample", "PropagatorRow",
           "propagate", "energy_propagator", "evolve_packet_spectral"]

#: the deformed above-threshold leg of a column ends at K_MAX_FACTOR x
#: max(kc, k_star, damp, 1); a column still loud there raises
K_MAX_FACTOR = 40.0
#: angle of the deformed above-threshold ray p = t e^{-i THETA}, in (0, pi/4)
THETA = 0.1


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance settings for the spectral integrals."""

    abs_tol: float = 1e-9
    rel_tol: float = 1e-8

    def __post_init__(self):
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValidationError("tolerances must be positive")


@dataclass(frozen=True)
class PropagatorSample:
    x0: float
    x1: float
    T: float
    G: complex
    est_error: float
    n_evals: int


@dataclass(frozen=True)
class PropagatorRow:
    """G(x1_j, x0; T) along a row of x1 (or, for a model whose hbar is a 1-D
    array, along those hbar with x1 repeated) from one quadrature per leg.

    ``est_errors[j]`` is the error estimate of column j and ``est_error``
    the row's largest; ``n_evals`` counts the integrand nodes the row shared.
    """

    x0: float
    x1: np.ndarray
    T: float
    G: np.ndarray
    est_errors: np.ndarray
    n_evals: int

    @property
    def est_error(self) -> float:
        return float(np.max(self.est_errors, initial=0.0))

    @property
    def samples(self) -> list:
        """One PropagatorSample per column, each with the shared n_evals."""
        return [PropagatorSample(self.x0, float(x1), self.T, complex(g),
                                 float(e), self.n_evals)
                for x1, g, e in zip(self.x1, self.G, self.est_errors)]


def _kernel_pairs(model, k, q, above, gam):
    """The spectral kernel as a bilinear form in the eigenstates.

    Returns (branches, [(b1, b0, coef)]) with w = sum coef phi_b1(x1)
    phi_b0(x0)^*, each conjugate continued as the reflection
    conj(f(conj(k), conj(q))).  Below the step the only pair is (c, c) with
    coef 1/(hbar N^cc).  Above it the +- orthonormal combinations are
    expanded so that no absolute value appears:

        (+,+), (-,-): N^{++}/D,   (+,-): -Nbar^{+-}/D,   (-,+): -N^{+-}/D,

    with D = hbar (N^{++} + |N^{+-}|)(N^{++} - |N^{+-}|) in the stable
    factorized combinations.  N^cc, N^{+-} and Nbar^{+-} read the rows of
    branch c, plus and minus of gam, the Gamma table at (k, q).
    """
    h = model.hbar
    if not above:
        return ("c",), [("c", "c", 1.0 / (h * _norm(model, k, gam, "c")))]
    combo_p, combo_m = norm_combos(model, k, q)
    denom = h * combo_p * combo_m
    npp = npp_analytic(model, k, q) / denom
    return ("plus", "minus"), [
        ("plus", "plus", npp), ("minus", "minus", npp),
        ("plus", "minus", -_norm(model, k, gam, "minus") / denom),
        ("minus", "plus", -_norm(model, k, gam, "plus") / denom)]


def _spectral_weight(model, k, q, x0, x1, above):
    """Kernel w_c (below the step, q = mu) or w_pm (above, q = p), analytic
    in (k, q), with k and q of shape (nodes, 1), or (nodes, columns) in an
    hbar sweep.  Returns (nodes, columns): the columns are a 1-D row of x1,
    or the hbar columns at a float x1; phi takes either.  One Gamma table
    at (k, q) serves the kernel, x1 and, reflected, x0."""
    gam = _gammas(model, k, q, _BRANCHES[above])
    branches, pairs = _kernel_pairs(model, k, q, above, gam)
    kb, qb, gam_b = np.conj(k), np.conj(q), _reflect(gam)
    bar = {b: np.conj(phi(model, b, kb, qb, x0, gam_b)) for b in branches}
    out = {b: phi(model, b, k, q, x1, gam) for b in branches}
    return sum(coef * out[b1] * bar[b0] for b1, b0, coef in pairs)


def _hbar_columns(model, hbars):
    """model with hbar the 1-D array hbars (finite, > 0), one column each."""
    cols = copy.copy(model)
    object.__setattr__(cols, "hbar", np.asarray(hbars, dtype=float))
    return cols


def _column(model, x1, c):
    """'x1 = .. and hbar = ..' of column c, for error messages."""
    x1c, hc = np.broadcast_arrays(np.atleast_1d(x1), np.atleast_1d(model.hbar))
    return f"x1 = {float(x1c[c])!r} and hbar = {float(hc[c])!r}"


def _stops(vals, block, reach, quiet_level):
    """The block at which each column stops, len(vals) for one that has not:
    block j stops a column when it and block j-1 are quiet and it ends
    beyond the column's reach (block and reach in t, per column)."""
    quiet = np.abs(vals) < quiet_level
    stops = np.zeros(quiet.shape, dtype=bool)
    stops[1:] = quiet[1:] & quiet[:-1]
    stops &= block * np.arange(1, len(vals) + 1)[:, None] > reach
    return np.where(np.any(stops, axis=0), np.argmax(stops, axis=0), len(vals))


def _below_leg(model, x0, x1, T, cfg):
    """Integral over k in [0, kc] via k = kc sin(u); one value per column."""
    kc = model.k_threshold
    m, h = model.m, model.hbar
    if kc == 0.0:
        n = np.broadcast(x1, h).size
        return np.zeros(n, dtype=complex), np.zeros(n), 0

    def f(us):
        us = us[:, None]
        k = kc * np.sin(us)
        mu = kc * np.cos(us)
        w = _spectral_weight(model, k + 0j, mu + 0j, x0, x1, False)
        phase = np.exp(-1j * k * k * T / (2.0 * m * h)) * kc * np.cos(us)
        return w * phase

    return integrate_adaptive(f, 0.0, math.pi / 2, cfg.abs_tol, cfg.rel_tol)


def _above_leg_deformed(model, x0, x1, T, cfg):
    """Deformed above-threshold leg for the real-time propagator.

    The rotated ray is integrated in tau = t/damp and cut into blocks of
    1.5 in tau, 1.5 damping lengths in t, the same for every hbar.  A
    column stops at the second quiet block in a row (|value| below the
    quiet level) that ends beyond its reach, its stationary point plus
    four damping lengths.  The first call integrates every block up to the
    first that ends beyond the largest reach in tau, and two more: the stop
    fell on one of those two on every sweep measured, and a quiet block
    costs one panel level inside the call where a further call costs a
    whole refinement pass.  Further blocks follow one at a time for the
    columns that have not stopped.  A column that reaches its cap
    K_MAX_FACTOR * max(kc, k_star, damp, 1) first raises QuadratureError.
    """
    kc = model.k_threshold
    m, sweep = model.m, np.ndim(model.hbar) != 0
    rot = np.exp(-1j * THETA)

    def integrand(keep):
        md = _hbar_columns(model, model.hbar[keep]) if sweep else model
        cols = x1[keep] if np.ndim(x1) else x1
        dk = damp[keep] if sweep else damp

        def f(taus):
            p = rot * (taus[:, None] * dk)
            k = np.sqrt(kc * kc + p * p)
            w = _spectral_weight(md, k, p, x0, cols, True)
            phase = (np.exp(-1j * k * k * T / (2 * m * md.hbar)) * (p / k)
                     * rot * dk)
            return w * phase
        return f

    # per column: Gaussian damping scale of the rotated phase, stationary
    # point, reach, block and cap, in t
    damp = np.sqrt(2.0 * m * model.hbar / (T * math.sin(2.0 * THETA)))
    k_star = m * (abs(x0) + np.abs(np.atleast_1d(x1))) / T
    reach = k_star + 4 * damp
    block = 1.5 * damp
    t_cap = K_MAX_FACTOR * np.maximum(np.maximum(damp, max(kc, 1.0)), k_star)
    n_col = reach.size
    quiet_level = max(1e-13, cfg.abs_tol * 1e-2)
    n_first = int(np.max(reach // block)) + 3
    edges = 1.5 * np.arange(n_first + 1)
    vals, errs, n_evals = integrate_adaptive(
        integrand(np.ones(n_col, dtype=bool)), edges[:-1], edges[1:],
        cfg.abs_tol, cfg.rel_tol)
    while True:
        n = len(vals)
        last = _stops(vals, block, reach, quiet_level)
        done = last < n
        capped = last * block >= t_cap
        if np.any(capped):
            c = int(np.argmax(capped))
            raise QuadratureError(
                f"above-threshold leg at {_column(model, x1, c)} reached its "
                f"cap t = {float(t_cap[c])!r} without two quiet blocks")
        if np.all(done):
            break
        v, e, ne = integrate_adaptive(integrand(~done), 1.5 * n,
                                      1.5 * (n + 1), cfg.abs_tol, cfg.rel_tol)
        vals = np.vstack([vals, np.zeros(n_col, dtype=complex)])
        errs = np.vstack([errs, np.zeros(n_col)])
        vals[n, ~done], errs[n, ~done] = v, e
        n_evals += ne
    cols = np.arange(n_col)
    total = np.cumsum(vals, axis=0)[last, cols]
    err = np.cumsum(errs, axis=0)[last, cols] + np.abs(vals[last, cols])
    return total, err, n_evals


def propagate(model: StepModel, x0: float, x1, T: float,
              cfg: QuadratureConfig | None = None):
    """Real-time propagator G(x1, x0; T) with quadrature diagnostics.

    x1 is a float (returns a PropagatorSample) or a 1-D row (returns a
    PropagatorRow).  A row shares one adaptive refinement front per leg
    among its columns; each column keeps the panel tree, tolerance and
    stopping rule of a one-point call, so it agrees with one to rounding.
    The columns may instead be hbar values, with a float x1: an omega sweep
    passes a model whose hbar is a 1-D array, and gets a PropagatorRow.
    """
    cfg = cfg or QuadratureConfig()
    row = np.ndim(x1) != 0
    if row:
        x1 = np.asarray(x1, dtype=float)
        if x1.ndim != 1 or np.ndim(model.hbar):
            raise ValidationError("x1 must be a float or a 1-D row")
    else:
        x1 = float(x1)
    if not (math.isfinite(x0) and math.isfinite(T) and np.isfinite(x1).all()):
        raise ValidationError("x0, x1 and T must be finite")
    n_col = np.broadcast(x1, model.hbar).size
    if T <= 0 or n_col == 0:
        G, err, n_evals = np.zeros(n_col, dtype=complex), np.zeros(n_col), 0
    else:
        g_below, e_below, n_below = _below_leg(model, x0, x1, T, cfg)
        g_above, e_above, n_above = _above_leg_deformed(model, x0, x1, T, cfg)
        G, err = g_below + g_above, e_below + e_above
        n_evals = n_below + n_above
        # cancellation between panels can leave an error larger than G
        bad = (err > np.abs(G)) & (err > cfg.abs_tol)
        if np.any(bad):
            c = int(np.argmax(bad))
            raise QuadratureError(
                f"G at {_column(model, x1, c)} is meaningless: "
                f"|G| = {float(abs(G[c]))!r}, est_error = {float(err[c])!r}")
    if row or np.ndim(model.hbar):
        return PropagatorRow(x0, np.broadcast_to(x1, n_col).astype(float), T,
                             G, err, n_evals)
    return PropagatorSample(x0, x1, T, complex(G[0]), float(err[0]), n_evals)


# ---------------------------------------------------------------------------
# energy propagator
# ---------------------------------------------------------------------------

def _closed_form(model, k, a, x, gam):
    """The eigenstate closed form with momenta (k, a) at x, e^{iax/hbar}
    right of the step, with gam the Gamma table at (k, a), read left of
    the step (None on the plane-wave steps).  The smooth step takes the 2F1
    form at every x: the asymptotic left form is not finite at
    k = i n alpha hbar, an integer c - a - b."""
    if _heaviside_like(model):
        return phi(model, "plus", k, a, x)
    return _phi_ws_full(model, "plus", k, a, x, gam)


def energy_propagator(model: StepModel, x0: float, x1: float, E: float):
    """Energy propagator K(x1, x0; E) = i hbar <x1|(E - H + i0)^{-1}|x0>,
    by the Wronskian form of the resolvent:

        K = 2m/(k+a) G(1 - i(k+a)/2ah)^2 / (G(1 - ia/ah) G(1 - ik/ah))
            psi_<(min(x0, x1)) psi_>(max(x0, x1)),

    ah = alpha hbar, with k = sqrt(2mE) and a = sqrt(2m(E - V0)) on the
    retarded sheet (Im >= 0).  psi_> is the closed form with momenta (k, a),
    e^{iax/hbar} on the right.  psi_<(x) is the one with momenta (a, k) at
    -x, an eigenstate of the mirrored step V(-x) = V0 - V(x), and
    e^{-ikx/hbar} on the left.  The gamma factor is 1 on the sharp step and
    at V0 = 0.

    Returns (K, 0.0): as in :func:`propagate`, the rounding of the
    eigenstate layer is not counted.  Where the plane waves are 0/0 (V0 = 0
    at E = 0; the sharp step at E = 0 with an endpoint at or left of the
    step, or at E = V0 with one at or right of it) ValidationError is
    raised, and NonFiniteError for a non-finite K.
    """
    if not all(map(math.isfinite, (x0, x1, E))):
        raise ValidationError("x0, x1 and E must be finite")
    m, h = model.m, model.hbar
    k, a = cmath.sqrt(2.0 * m * E), cmath.sqrt(2.0 * m * (E - model.V0))
    lo, hi = min(x0, x1), max(x0, x1)
    if k + a == 0 or (_heaviside_like(model)
                      and ((k == 0 and hi <= 0) or (a == 0 and lo >= 0))):
        raise ValidationError(
            f"energy propagator at E = {E!r} is 0/0 in the plane-wave form")
    pref = 2.0 * m / (k + a)
    gam = _gammas(model, k, a, ("plus",))
    if gam is not None:
        # G(1+y)^2 / (G(c) G(1+w)) of the plus branch at (k, a)
        lc, _, ly = gam[_ROWS["plus"]:_ROWS["plus"] + 3]
        pref *= np.exp(2.0 * ly - lc - gam[1])
    # psi_< reads its own table, at (a, k), only left of the step
    gam_lo = _gammas(model, a, k, ("plus",)) if lo > 0 else None
    K = complex(pref * _closed_form(model, a, k, -lo, gam_lo)
                * _closed_form(model, k, a, hi, gam))
    if not cmath.isfinite(K):
        raise NonFiniteError(f"non-finite K at E = {E!r}")
    return K, 0.0


# ---------------------------------------------------------------------------
# packet evolution through the spectral representation
# ---------------------------------------------------------------------------

def _simpson_weights(n, dx):
    if n % 2 == 0:
        raise ValidationError("Simpson grid needs an odd number of nodes")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (dx / 3.0)


def evolve_packet_spectral(model: StepModel, x_grid, psi0, x_out, T: float,
                           k_max: float = 6.0, n_below: int = 513,
                           n_above: int = 2049):
    """Convolve psi0 with the propagator, psi_T(x1) = int G(x1,x0;T) psi0(x0) dx0.

    The x0 and k integrals of the spectral representation are exchanged, so
    the packet is expanded once in the orthonormal basis (overlaps on the
    x_grid via Simpson weights) and resummed at the output points.  x_grid
    must be uniform and increasing, with psi0 sampled on it, and resolve the
    packet; k_max bounds the packet's momentum support.  T must be finite
    and >= 0 (T = 0 resums psi0 itself).  A non-finite result raises
    NonFiniteError, and QuadratureError is raised when the expansion
    captures a fraction of ||psi0||^2 that is off 1 by more than 1e-6 (a
    packet beyond k_max, or a basis too coarse for it).

    Every node (k, q) lies on the real axis, where the reflection
    conj(phi(conj(k), conj(q))) is the complex conjugate of phi, and
    phi_minus = conj(phi_plus), both being the eigenstate at energy E with
    e^{-iqx/hbar} on the right.  So each chunk of k evaluates one eigenstate
    matrix (c below the step, plus above it) per grid, x_grid and x_out,
    and takes every other form from it by conjugation.
    """
    x_grid = np.asarray(x_grid, dtype=float)
    psi0 = np.asarray(psi0, dtype=complex)
    if x_grid.ndim != 1 or psi0.shape != x_grid.shape:
        raise ValidationError("psi0 must be sampled on the 1-D x_grid")
    step = np.diff(x_grid)
    if x_grid.size < 3 or not (
            step[0] > 0 and np.all(np.abs(step - step[0]) <= 1e-9 * step[0])):
        raise ValidationError("x_grid must be uniform and increasing, "
                              "with at least 3 nodes")
    if not (math.isfinite(T) and T >= 0):
        raise ValidationError(f"evolution time must be finite and >= 0, "
                              f"got {T!r}")
    psi_w = _simpson_weights(x_grid.size, step[0]) * psi0
    x_out = np.asarray(x_out, dtype=float)
    m, h = model.m, model.hbar
    kc = model.k_threshold
    # legs (above, k, q, dk weight); each drops its first node, where the
    # weight vanishes and the normalizations are singular: k = 0 below, and
    # above q = t^2 makes the Jacobian 2 t q/k vanish even for kc = 0
    legs = []
    if kc > 0.0:
        us = np.linspace(0.0, math.pi / 2, n_below)
        wu = _simpson_weights(n_below, us[1] - us[0])
        us, wu = us[1:], wu[1:]
        legs.append((False, kc * np.sin(us), kc * np.cos(us),
                     wu * kc * np.cos(us)))
    ts = np.linspace(0.0, max(k_max * k_max - kc * kc, 1.0) ** 0.25, n_above)
    wt = _simpson_weights(n_above, ts[1] - ts[0])
    ts, wt = ts[1:], wt[1:]
    qs = ts ** 2
    ks = np.sqrt(kc * kc + qs ** 2)
    legs.append((True, ks, qs, wt * 2.0 * ts * qs / ks))

    psi_T = np.zeros(x_out.size, dtype=complex)
    captured = 0.0  # ||psi0||^2 from the overlaps, the resummation at T = 0
    psi_pair = np.stack([psi_w.conj(), psi_w], axis=1)
    chunk = 256
    for above, ks_all, qs_all, wk_all in legs:
        rows = wk_all * np.exp(-1j * ks_all ** 2 * T / (2 * m * h))
        b = "plus" if above else "c"
        for lo in range(0, ks_all.size, chunk):
            sl = slice(lo, lo + chunk)
            ks, qs = ks_all[sl] + 0j, qs_all[sl] + 0j
            gam = _gammas(model, ks, qs, _BRANCHES[above])
            _, pairs = _kernel_pairs(model, ks, qs, above, gam)
            # <phi_b|psi0> = conj(phi_b @ conj(psi_w)), <phi_minus|psi0> =
            # phi_plus @ psi_w; the x_grid matrix is freed before the x_out one
            ov = phi_grid(model, b, ks, qs, x_grid, gam) @ psi_pair
            overlap = {b: ov[:, 0].conj(), "minus": ov[:, 1]}
            out = phi_grid(model, b, ks, qs, x_out, gam)
            for b1, b0, coef in pairs:
                c = rows[sl] * coef * overlap[b0]
                # c @ phi_minus = conj(conj(c) @ phi_plus)
                psi_T += c @ out if b1 == b else (c.conj() @ out).conj()
                captured += float(np.sum(wk_all[sl] * coef * overlap[b0]
                                         * overlap[b1].conj()).real)
    # a non-finite weight, overlap or eigenstate value propagates to here
    if not np.all(np.isfinite(psi_T)):
        raise NonFiniteError("non-finite amplitude in packet evolution")
    norm0 = float(np.vdot(psi0, psi_w).real)
    if abs(captured - norm0) > 1e-6 * norm0:
        raise QuadratureError(
            f"the eigenstate expansion captures {captured / norm0:.9g} of "
            f"||psi0||^2; raise k_max or refine the k nodes")
    return psi_T
