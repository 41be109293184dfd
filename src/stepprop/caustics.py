"""Caustic curves and Stokes lines in the (x0, x1) configuration plane.

The caustic at fixed T is the image of the critical curve of the
initial-value map x0, v0 -> x1 = x(T) of

    m x'' = -V'(x),  x(0) = x0,  x'(0) = v0,

the (x0, x1) images of the v0 roots of the variational factor
J = dx(T)/dv0,

    m J'' = -V''(x) J,  J(0) = 0,  J'(0) = 1.

One batched integration of both equations over a grid of v0 brackets the
sign flips of J(T); each is refined on the closed-form time relations of
classical._endpoint, where J = m v0 dx1/dE.  integrate_ivp, the scalar
integration, has no caller left in the package: it is the independent
oracle of the tests and a span boundary of bench/layers.py.

For the Heaviside step J never vanishes (reflections are instantaneous) and
the caustic is the analytic triangle of merging closed-form paths.

Stokes lines are the loci where the real parts of two saddle actions agree;
for the step they separate the regions where the reflected (caustic) saddle
does or does not contribute.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .classical import (BoundarySpec, SaddleKind, _bounce_extrema, _endpoint,
                        _t_bounce, caustic_saddle_curve,
                        caustic_triangle_vertices, heaviside_three_path_region,
                        solve_real_paths)
from .errors import (InsideCausticError, QuadratureError, RootBracketError,
                     UnsupportedFamilyError, ValidationError)
from .potential import (Family, StepModel, potential_derivatives,
                        potential_value)

__all__ = ["integrate_ivp", "caustic_curve", "cusp_points", "stokes_lines",
           "relevance_flag", "inside_caustic"]


def _rhs(model):
    m = model.m

    def rhs(t, y):
        x, v, J, Jp = y
        _, vp, vpp = potential_derivatives(model, x)
        return (v, -vp / m, Jp, -vpp * J / m)

    return rhs


def integrate_ivp(model: StepModel, x0: float, v0: float, T: float):
    """Final position x(T) and variational factor J(T) = dx(T)/dv0.

    An integration step moves at most half the wall width 1/alpha at the
    top speed sqrt(2E/m): in free flight the error estimate vanishes, and
    an unbounded step jumped a steep wall whole (at alpha = 50 it carried a
    trajectory with E < V0 across)."""
    if model.family is not Family.WOODS_SAXON:
        raise UnsupportedFamilyError("the IVP integrator needs a smooth potential")
    v_top = math.sqrt(v0 * v0 + 2.0 * potential_value(model, x0) / model.m)
    sol = solve_ivp(_rhs(model), (0.0, T), (x0, v0, 0.0, 1.0),
                    method="DOP853", rtol=1e-10, atol=1e-10,
                    max_step=0.5 / (model.alpha * v_top) if v_top else np.inf)
    if not sol.success:
        raise QuadratureError(f"IVP integration failed: {sol.message}")
    x, _, J, _ = sol.y[:, -1]
    return float(x), float(J)


def _scan_batch(model, x0, v0s, T):
    """x(T), J(T) for many v0 at once (single stacked integration)."""
    m = model.m
    n = v0s.size

    def rhs(t, y):
        x = y[0:n]
        v = y[n:2 * n]
        J = y[2 * n:3 * n]
        Jp = y[3 * n:4 * n]
        _, vp, vpp = potential_derivatives(model, x)
        return np.concatenate([v, -vp / m, Jp, -vpp * J / m])

    y0 = np.concatenate([np.full(n, x0), v0s, np.zeros(n), np.ones(n)])
    sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=1e-8, atol=1e-8)
    if not sol.success:
        raise QuadratureError(f"batched IVP scan failed: {sol.message}")
    y = sol.y[:, -1]
    return y[0:n], y[2 * n:3 * n]


def caustic_curve(model: StepModel, T: float, x0_grid, n_scan: int = 400):
    """Caustic points (x0, x1) for each x0 in the grid.

    The batched IVP scan over n_scan initial velocities up to 5 sqrt(2 V0/m)
    (up to 5 for V0 = 0) brackets the sign flips of J(T); each is refined
    in E = m v0^2/2 + V(x0) on the closed-form endpoint map: J = m v0
    dx1/dE, so the caustic is the root of dx1/dE.  A flip is bracketed on
    its own scan cell, and widened by one cell on either side only when
    dx1/dE has one sign at the cell's ends (the scan can misplace a marginal
    crossing by one cell; two roots in adjacent cells each keep their own
    cell).  A widened bracket whose ends share a sign is skipped.  Empty
    output for an x0 with no critical initial velocity."""
    if model.family is Family.HEAVISIDE:
        verts = caustic_triangle_vertices(model, T)
        pts = []
        for (a, b), (c, d) in zip(verts, verts[1:] + verts[:1]):
            for s in np.linspace(0.0, 1.0, 81)[:-1]:
                pts.append((a + s * (c - a), b + s * (d - b)))
        return pts
    v_cap = 5.0 * (math.sqrt(2.0 * model.V0 / model.m) if model.V0 > 0
                   else 1.0)
    points = []
    for x0 in np.atleast_1d(np.asarray(x0_grid, dtype=float)):
        x0 = float(x0)
        v0s = np.linspace(1e-4, v_cap, n_scan)
        _, Js = _scan_batch(model, x0, v0s, T)
        flips = np.where(np.diff(np.sign(Js)) != 0)[0]
        Es = 0.5 * model.m * v0s ** 2 + potential_value(model, x0)
        f = lambda E: _endpoint(model, x0, E, T)[1]
        for i in flips:
            lo, hi = float(Es[i]), float(Es[i + 1])
            if np.sign(f(lo)) == np.sign(f(hi)):
                lo = float(Es[max(i - 1, 0)])
                hi = float(Es[min(i + 2, n_scan - 1)])
                if np.sign(f(lo)) == np.sign(f(hi)):
                    continue
            E_root = brentq(f, lo, hi, xtol=1e-13, rtol=8.9e-16)
            points.append((x0, float(_endpoint(model, x0, E_root, T)[0])))
    return points


def cusp_points(curve_points):
    """Corner points of an ordered caustic polyline: turning angle above
    0.6 rad."""
    pts = np.asarray(curve_points, dtype=float)
    if len(pts) < 5:
        return []
    center = pts.mean(axis=0)
    order = np.argsort(np.arctan2(*(pts - center).T[::-1]))
    loop = pts[order]
    out = []
    n = len(loop)
    for i in range(n):
        a, b, c = loop[i - 1], loop[i], loop[(i + 1) % n]
        u, v = b - a, c - b
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu < 1e-12 or nv < 1e-12:
            continue
        cosang = np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0)
        if math.acos(cosang) > 0.6:
            out.append(tuple(b))
    return out


def inside_caustic(model: StepModel, bvp: BoundarySpec) -> bool:
    """True when three real classical paths exist at bvp."""
    if model.family is Family.HEAVISIDE:
        return heaviside_three_path_region(model, bvp)
    if not (bvp.x0 < 0 and bvp.x1 < 0) or model.V0 == 0.0:
        return False
    E_min = _bounce_extrema(model, bvp.x0, bvp.x1)[2]
    if E_min is None or _t_bounce(model, E_min, bvp.x0, bvp.x1).real >= bvp.T:
        return False
    # a T_b minimum below T is not enough: count the real paths
    return len(solve_real_paths(model, bvp)) >= 3


def _stokes_gap(model, bvp, caustic):
    """Re S_caustic - Re S_direct at bvp; None when there is no direct path."""
    direct = [s for s in solve_real_paths(model, bvp)
              if s.kind is SaddleKind.DIRECT]
    return caustic.S.real - direct[0].S.real if direct else None


def stokes_lines(model: StepModel, T: float, x0_values):
    """Points (x0, x1) where Re(S_caustic) = Re(S_direct).

    For the Heaviside step this set is exactly the pair of axes bounding the
    reflecting quadrants; they are returned as sampled segments.  For the
    smooth step each requested x0 row is sampled outward from the fold with
    the caustic saddle, and a sign change of the difference of the real
    parts between neighbours is interpolated; rows that stay inside a
    relevant wedge contribute no points.
    """
    if model.family is Family.HEAVISIDE:
        L = math.sqrt(2.0 * model.V0 / model.m) * T
        seg = np.linspace(-1.5 * L, 1.5 * L, 121)
        return [(0.0, float(s)) for s in seg] + [(float(s), 0.0) for s in seg]
    points = []
    for x0 in np.atleast_1d(np.asarray(x0_values, dtype=float)):
        limit = -3.0 * abs(x0) - 3.0
        xs = np.linspace(limit, limit * 0.2, 60)
        try:
            saddles = caustic_saddle_curve(model, float(x0), T, xs)
        except (RootBracketError, ValidationError):
            continue  # no fold on this row, or the row starts inside the loop
        prev = None
        for key in sorted(saddles, reverse=True):
            bvp = BoundarySpec(float(x0), float(key), T)
            diff = _stokes_gap(model, bvp, saddles[key])
            if diff is None:
                continue
            if prev is not None and np.sign(diff) != np.sign(prev[1]):
                x_lo, d_lo = prev
                x_cross = x_lo + (key - x_lo) * d_lo / (d_lo - diff)
                points.append((float(x0), float(x_cross)))
            prev = (key, diff)
    return points


def relevance_flag(model: StepModel, bvp: BoundarySpec) -> bool:
    """True when the reflected (caustic) saddle contributes at bvp.

    Classification by the Stokes criterion Re(S_reflected) >= Re(S_direct);
    ties on the line count as relevant.  Undefined inside the caustic loop.
    """
    if inside_caustic(model, bvp):
        raise InsideCausticError("relevance undefined where three real paths exist")
    if model.family is Family.HEAVISIDE:
        m, V0, T = model.m, model.V0, bvp.T
        s_refl = m * (bvp.x0 + bvp.x1) ** 2 / (2 * T)
        s_dir = m * (bvp.x1 - bvp.x0) ** 2 / (2 * T)
        return s_refl >= s_dir
    if bvp.x0 < 0 and bvp.x1 < 0:
        from .classical import find_caustic_saddle
        gap = _stokes_gap(model, bvp, find_caustic_saddle(model, bvp))
        return gap is None or gap >= 0
    # away from the reflecting quadrant the Heaviside classification applies
    return (bvp.x0 > 0 and bvp.x1 > 0) or (bvp.x0 * bvp.x1 == 0.0)
