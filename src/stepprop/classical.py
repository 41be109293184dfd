"""Real and complex solutions of the classical boundary-value problem.

For the smooth step the motion is solved implicitly.  With

    w0 = (E - V(x)) / (E - V0),   w1 = (E - V(x)) / E,

the time and reduced action along the physical orientation are

    t(x) = sqrt(m/2)/alpha [ A0 / sqrt(E - V0) - A1 / sqrt(E) ],
    s(x) = sqrt(2 m)/alpha [ sqrt(E - V0) A0 - sqrt(E) A1 ],

where A0 = arctanh(-sqrt(w0)) and A1 = arctanh(+sqrt(w1)); both vanish at the
turning point x_t = arctanh(2E/V0 - 1)/alpha (integration constants set to
zero), and dt/dx = 1/v, ds/dx = m v along the classically allowed branch.
Direct paths (_direct) use differences of t and s on the sheet where
dt/dx = 1/v: A0 = arctanh(-sqrt(w0)) below V0 and arctanh(+sqrt(w0)) above
it.  Every real and complex bounce uses the one relation _bounce,
T = -(t(x0)+t(x1)) and S = -ET - (s(x0)+s(x1)), on states made at E.

Complex saddles are analytic continuations of the bounce relation.  Each
state labels its sheet by the sign in front of the principal sqrt(w0).  The
caustic saddle, the complex root that the two real bounces merge into at the
fold, is the root of T_b(E) = T on the sheet A0 = arctanh(+sqrt(w0)), with
the states made afresh at every Newton iterate; a census from 1e-3 off the
fold out to x1 = -20, alpha = 1 ... 200, found no sheet change along a row,
so no path has to carry the labels from the fold.

Van Vleck factors come from implicit differentiation of the time relation:

    d2S/dx0 dx1 = 1 / (v0 v1 dT/dE),

with signed endpoint velocities and the closed-form energy derivative

    dt/dE = sqrt(m/2)/alpha [ (1/y0 - A0)/(2 r0^3) - (1/y1 - A1)/(2 r1^3) ],

where y0, y1 are the signed roots in A0 = arctanh(y0), A1 = arctanh(y1) on
the state's sheet, r0 = sqrt(E - V0), r1 = sqrt(E); the i*pi lattice of the
arctanh drops out.
"""
from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import (BranchDegenerateError, CausticDivergenceError,
                     NewtonError, NoTopologicalSaddleError, RootBracketError,
                     UnsupportedFamilyError, ValidationError)
from .potential import Family, StepModel, potential_value

__all__ = ["BoundarySpec", "SaddleKind", "ClassicalSaddle", "turning_point",
           "time_of_flight", "reduced_action", "endpoint", "heaviside_paths",
           "solve_real_paths", "find_caustic_saddle",
           "caustic_saddle_curve", "topological_saddle", "bounce_fold",
           "caustic_triangle_vertices", "heaviside_three_path_region",
           "heaviside_reflection_action", "EndpointState"]


@dataclass(frozen=True)
class BoundarySpec:
    x0: float
    x1: float
    T: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x0, self.x1, self.T))):
            raise ValidationError("x0, x1 and T must be finite")
        if not (self.T > 0):
            raise ValidationError("propagation time T must be positive")


class SaddleKind(enum.Enum):
    DIRECT = "direct"
    LOW_BOUNCE = "low_bounce"
    HIGH_BOUNCE = "high_bounce"
    CAUSTIC = "caustic"
    TOPOLOGICAL = "topological"


@dataclass(frozen=True)
class ClassicalSaddle:
    kind: SaddleKind
    E: complex
    S: complex
    vv: complex
    #: branch-resolved sqrt of vv entering the WKB sum: the Maslov phase
    #: times |vv|^(1/2) for real kinds, -sqrt(vv) for the complex ones
    sqrt_vv: complex
    relevant: bool = True
    maslov: int | None = None

    def with_sqrt_vv(self, value: complex) -> "ClassicalSaddle":
        return replace(self, sqrt_vv=value)


# ---------------------------------------------------------------------------
# arctanh terms on a labelled sheet
# ---------------------------------------------------------------------------

def _log_sigmoid(y: float) -> float:
    """log(1/(1+e^{-y})) without under/overflow."""
    if y >= 0:
        return -math.log1p(math.exp(-y))
    return y - math.log1p(math.exp(y))


def _log_sigmoid_c(y: complex) -> complex:
    """_log_sigmoid continued to complex y, on the same two forms."""
    if y.real >= 0:
        return -cmath.log(1.0 + cmath.exp(-y))
    return y - cmath.log(1.0 + cmath.exp(y))


def _canon(z: complex) -> complex:
    """Collapse signed-zero imaginary parts so sqrt/log branches are stable."""
    z = complex(z)
    if z.imag == 0.0:
        return complex(z.real, 0.0)
    return z


def _pv(s: int, y: complex, log_u: complex) -> complex:
    """arctanh(s*y) up to the sheet lattice, with log(1-y^2) supplied."""
    sy = s * y
    if abs(1.0 + sy) >= 0.5:
        l1 = cmath.log(1.0 + sy)
    else:
        l1 = log_u - cmath.log(1.0 - sy)
    return l1 - 0.5 * log_u


class _ArcTerm:
    """One arctanh(y) term, y = sign sqrt(w) with the principal sqrt(w);
    keeps the signed root y for the energy derivative."""

    __slots__ = ("y", "val")

    def __init__(self, w, log_u, sign):
        y = cmath.sqrt(_canon(w))
        self.y = sign * y
        self.val = _pv(sign, y, log_u)


#: the arctanh terms take log(V0), and the free particle has no turning point
_FREE = "the implicit solution needs a step, V0 > 0"


class EndpointState:
    """Arctanh terms at a real or complex x and energy E,
    A0 = arctanh(sign sqrt(w0)) and A1 = arctanh(+sqrt(w1))."""

    __slots__ = ("x", "a0", "a1")

    def __init__(self, model: StepModel, x, E: complex, sign: int = -1):
        self.x = x if isinstance(x, complex) and x.imag else float(x.real)
        if model.V0 == 0:
            raise ValidationError(_FREE)
        if E == 0 or E == model.V0:
            raise BranchDegenerateError("implicit solution degenerate at E in {0, V0}")
        v = potential_value(model, self.x)
        y2 = 2.0 * model.alpha * self.x
        log_sig = _log_sigmoid_c if isinstance(y2, complex) else _log_sigmoid
        emv = _canon(E - v)
        lu0 = (math.log(model.V0) + log_sig(-y2)
               + cmath.log(_canon(-1.0 / _canon(E - model.V0))))
        lu1 = math.log(model.V0) + log_sig(y2) - cmath.log(_canon(E))
        self.a0 = _ArcTerm(_canon(emv / _canon(E - model.V0)), lu0, sign)
        self.a1 = _ArcTerm(_canon(emv / _canon(E)), lu1, +1)


def _t_s(model: StepModel, E: complex, state: EndpointState):
    """(t, s) at the energy E at which state was made."""
    a0, a1 = state.a0.val, state.a1.val
    r0 = cmath.sqrt(_canon(E - model.V0))
    r1 = cmath.sqrt(_canon(E))
    c_t = math.sqrt(model.m / 2.0) / model.alpha
    c_s = math.sqrt(2.0 * model.m) / model.alpha
    return c_t * (a0 / r0 - a1 / r1), c_s * (r0 * a0 - r1 * a1)


def _dt_dE(model: StepModel, E: complex, state: EndpointState):
    """dt/dE on the sheet that state, made at E, carries; from
    dA0/dE = 1/(2 y0 (E - V0)), dA1/dE = 1/(2 y1 E), singular where y = 0."""
    a0, a1 = state.a0, state.a1
    r0 = cmath.sqrt(_canon(E - model.V0))
    r1 = cmath.sqrt(_canon(E))
    c_t = math.sqrt(model.m / 2.0) / model.alpha
    return c_t * ((1.0 / a0.y - a0.val) / (2.0 * r0 ** 3)
                  - (1.0 / a1.y - a1.val) / (2.0 * r1 ** 3))


def _d2t_dE2(model: StepModel, E: complex, state: EndpointState):
    """d2t/dE2 on the sheet data of _dt_dE, by dy/dE = (1 - y^2)/(2 y r^2)."""
    g = lambda a, r2: ((a.y ** -3 + 3.0 / a.y - 3.0 * a.val)
                       / (4.0 * cmath.sqrt(r2) ** 5))
    c_t = math.sqrt(model.m / 2.0) / model.alpha
    return -c_t * (g(state.a0, _canon(E - model.V0)) - g(state.a1, _canon(E)))


# ---------------------------------------------------------------------------
# public closed-form operations
# ---------------------------------------------------------------------------

def turning_point(model: StepModel, E) -> complex:
    """x_t = arctanh(2E/V0 - 1)/alpha, the square-root branch point of t(x)."""
    if model.family is not Family.WOODS_SAXON:
        raise UnsupportedFamilyError("turning point defined for the smooth step")
    if model.V0 == 0:
        raise ValidationError(_FREE)
    E = complex(E)
    if E == 0 or E == model.V0:
        raise BranchDegenerateError("turning point degenerate at E in {0, V0}")
    return complex(np.arctanh((2.0 * E - model.V0) / model.V0)) / model.alpha


def _t_s_at(model, E, x, sheet):
    if model.family is not Family.WOODS_SAXON:
        raise UnsupportedFamilyError("implicit t(x), s(x) need the smooth step")
    if sheet not in (1, -1):
        raise ValidationError(f"sheet must be +1 or -1, got {sheet!r}")
    return _t_s(model, complex(E), EndpointState(model, x, complex(E), sheet))


def time_of_flight(model: StepModel, E, x, sheet: int = -1) -> complex:
    """Implicit t(x) at energy E on the sheet A0 = arctanh(sheet sqrt(w0)),
    t(x_t) = 0, with the principal sqrt(w0); x may be complex.  On the real
    axis sheet -1 is the bounce's, and above V0 sheet +1 the direct time's."""
    return _t_s_at(model, E, x, sheet)[0]


def reduced_action(model: StepModel, E, x) -> complex:
    """Implicit s(x) at energy E on sheet -1 of :func:`time_of_flight`."""
    return _t_s_at(model, E, x, -1)[1]


# ---------------------------------------------------------------------------
# direct and bounce relations
# ---------------------------------------------------------------------------

def _fresh(model, E, x0, x1, sign=-1):
    """States at x0 and x1 started at E, A0 = arctanh(sign sqrt(w0))."""
    return EndpointState(model, x0, E, sign), EndpointState(model, x1, E, sign)


def _direct(model, E, x0, x1):
    """(T, W, dT/dE) of the direct path at real E on the dt/dx = 1/v sheet;
    dT/dE is a callable on the same states, so a root search on T never
    evaluates it (it divides by E^(3/2), which is 0.0 below E ~ 1e-216)."""
    s0, s1 = _fresh(model, E, x0, x1, 1 if E > model.V0 else -1)
    (t0, w0), (t1, w1) = _t_s(model, E, s0), _t_s(model, E, s1)
    sgn = math.copysign(1.0, x1 - x0)  # the path runs from x0 to x1
    return (abs((t1 - t0).real), abs((w1 - w0).real),
            lambda: sgn * (_dt_dE(model, E, s1) - _dt_dE(model, E, s0)).real)


def _bounce(model, E, s0, s1):
    """(T, W, dT/dE) of the bounce, T = -(t(x0) + t(x1)) and
    W = -(s(x0) + s(x1)), on the sheets that the states s0, s1, made at E,
    carry; dT/dE is a callable on the same states."""
    (t0, w0), (t1, w1) = _t_s(model, E, s0), _t_s(model, E, s1)
    return (-(t0 + t1), -(w0 + w1),
            lambda: -(_dt_dE(model, E, s0) + _dt_dE(model, E, s1)))


def _t_bounce(model, E, x0, x1):
    return _bounce(model, E, *_fresh(model, E, x0, x1))[0]


def _speed(model, E, x):
    return cmath.sqrt(2.0 * (E - potential_value(model, x)) / model.m)


def endpoint(model: StepModel, x0: float, E: float, T: float):
    """(x1, dx1/dE) of the smooth-step trajectory that leaves x0 to the
    right at real energy E > V(x0) and runs for a time T >= 0: the closed
    form of the map (x0, E, T) -> x(T), on the time relation.

    t(x) rises with x on the allowed sheet (dt/dx = 1/v), +1 above V0 and
    -1 below it up to the turning point x_t, so x1 is the one root of
    t(x1) = t(x0) + T (incoming or transmitted), or of T_b = T,
    t(x1) = -T - t(x0) (bounced, once T exceeds the time -t(x0) to x_t),
    on a bracket from the speed bounds.  Implicit differentiation gives
    dx1/dE = -v1 (dt1/dE - dt0/dE), or -v1 (dt1/dE + dt0/dE) when bounced;
    J = dx(T)/dv0 = m v0 dx1/dE."""
    if model.family is not Family.WOODS_SAXON:
        raise UnsupportedFamilyError("the endpoint map needs the smooth step")
    from scipy.optimize import brentq
    sheet = 1 if E > model.V0 else -1
    t_at = lambda x: _t_s(model, E, EndpointState(model, x, E, sheet))[0].real
    s0 = EndpointState(model, x0, E, sheet)
    t0 = _t_s(model, E, s0)[0].real
    v0 = _speed(model, E, x0).real
    bounced = sheet == -1 and T > -t0
    if sheet == 1:
        v_inf = math.sqrt(2.0 * (E - model.V0) / model.m)
        lo, hi = x0 + v_inf * T, x0 + v0 * T
    else:
        x_t = turning_point(model, E).real
        if bounced:  # the speed on the way back is below sqrt(2E/m)
            lo, hi = x_t - math.sqrt(2.0 * E / model.m) * (T + t0), x_t
        else:
            lo, hi = x0, min(x_t, x0 + v0 * T)
    # a speed bound is attained in the free limit: pad it against rounding
    pad = 1e-9 * (1.0 + hi - lo)
    lo, hi = lo - pad, hi + pad
    tau = -T - t0 if bounced else t0 + T
    f = lambda x: t_at(x) - tau
    if f(lo) > 0 or f(hi) < 0:
        raise RootBracketError(f"endpoint of x0 = {x0:g}, E = {E:.17g}, "
                               f"T = {T:g} not bracketed on [{lo:g}, {hi:g}]")
    x1 = brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16)
    dt1 = _dt_dE(model, E, EndpointState(model, x1, E, sheet)).real
    dt0 = _dt_dE(model, E, s0).real
    v1 = _speed(model, E, x1).real
    return x1, -v1 * (dt1 + dt0 if bounced else dt1 - dt0)


def _vv(model, E, x0, x1, dT, bounce):
    """vv = 1/(v0 v1 dT/dE) at energy E; a bounce leaves x0 forward and
    returns to x1, so v1 = -v(x1), while a direct path has v1 = +v(x1)."""
    if abs(dT) < 1e-12:
        raise CausticDivergenceError("dT/dE vanishes: configuration on a caustic")
    v1 = _speed(model, E, x1)
    return 1.0 / (_speed(model, E, x0) * (-v1 if bounce else v1) * dT)


_MASLOV_PHASE = {0: -1j, 1: -1.0, 2: 1j}


def _real_saddle(model, kind, E, S, vv, maslov):
    sqrt_vv = _MASLOV_PHASE[maslov] * math.sqrt(abs(vv))
    return ClassicalSaddle(kind=kind, E=complex(E), S=complex(S),
                           vv=complex(vv.real), relevant=True,
                           sqrt_vv=complex(sqrt_vv), maslov=maslov)


# ---------------------------------------------------------------------------
# Heaviside closed forms
# ---------------------------------------------------------------------------

def heaviside_three_path_region(model: StepModel, bvp: BoundarySpec) -> bool:
    """True when three real paths exist: x0, x1 < 0 and
    |x0 + x1| < sqrt(2 V0 / m) T (the merger of the two bounce actions)."""
    u = abs(bvp.x0) + abs(bvp.x1)
    return (bvp.x0 < 0 and bvp.x1 < 0
            and u < math.sqrt(2.0 * model.V0 / model.m) * bvp.T)


def caustic_triangle_vertices(model: StepModel, T: float):
    """Vertices of the Heaviside caustic triangle in the (x0, x1) plane."""
    L = math.sqrt(2.0 * model.V0 / model.m) * T
    return [(0.0, 0.0), (0.0, -L), (-L, 0.0)]


def _heaviside_crossing(model, bvp):
    m, V0, T = model.m, model.V0, bvp.T
    xl, xr = (bvp.x0, bvp.x1) if bvp.x0 < 0 else (bvp.x1, bvp.x0)
    al, ar = abs(xl), abs(xr)

    def time_at(E):
        return math.sqrt(m / (2 * E)) * al + math.sqrt(m / (2 * (E - V0))) * ar

    lo, hi = V0 * (1 + 1e-13), V0 + 1.0
    while time_at(hi) > T:
        hi *= 2.0
        if hi > 1e12 * max(V0, 1.0):
            raise RootBracketError("crossing-energy bracket failed")
    from scipy.optimize import brentq
    E = brentq(lambda e: time_at(e) - T, lo, hi, xtol=1e-15, rtol=1e-15)
    S = (math.sqrt(m * E / 2) * al + math.sqrt(m * (E - V0) / 2) * ar
         - V0 * ar * math.sqrt(m / (2 * (E - V0))))
    dTdE = -0.5 * (math.sqrt(m / 2) * al * E ** -1.5
                   + math.sqrt(m / 2) * ar * (E - V0) ** -1.5)
    v0, v1 = math.sqrt(2 * E / m), math.sqrt(2 * (E - V0) / m)
    if bvp.x0 > 0:
        v0, v1 = -v1, -v0
    vv = 1.0 / (v0 * v1 * dTdE)
    return _real_saddle(model, SaddleKind.DIRECT, E, S, vv, maslov=0)


def heaviside_paths(model: StepModel, bvp: BoundarySpec):
    """All real classical saddles of the Heaviside step, closed forms; at
    V0 = 0, where every family is free, the one direct path."""
    if model.family is not Family.HEAVISIDE and model.V0 != 0.0:
        raise UnsupportedFamilyError("heaviside_paths requires the Heaviside family")
    m, V0, T = model.m, model.V0, bvp.T
    x0, x1 = bvp.x0, bvp.x1
    out = []
    if V0 == 0.0 or (x0 <= 0 and x1 <= 0):
        E = m * (x1 - x0) ** 2 / (2 * T * T)
        S = m * (x1 - x0) ** 2 / (2 * T)
        out.append(_real_saddle(model, SaddleKind.DIRECT, E, S, -m / T, maslov=0))
        u = abs(x0) + abs(x1)
        if V0 > 0 and T > math.sqrt(m / (2 * V0)) * u:
            El = m * u * u / (2 * T * T)
            out.append(_real_saddle(model, SaddleKind.LOW_BOUNCE, El,
                                    m * (x0 + x1) ** 2 / (2 * T),
                                    m / T, maslov=1))
            Sh = math.sqrt(2 * m * V0) * u - V0 * T
            out.append(ClassicalSaddle(kind=SaddleKind.HIGH_BOUNCE,
                                       E=complex(V0), S=complex(Sh),
                                       vv=0.0 + 0.0j, relevant=True,
                                       sqrt_vv=0.0 + 0.0j, maslov=2))
    elif x0 > 0 and x1 > 0:
        E = m * (x1 - x0) ** 2 / (2 * T * T) + V0
        S = m * (x1 - x0) ** 2 / (2 * T) - V0 * T
        out.append(_real_saddle(model, SaddleKind.DIRECT, E, S, -m / T, maslov=0))
    else:
        out.append(_heaviside_crossing(model, bvp))
    return out


def heaviside_reflection_action(model: StepModel, bvp: BoundarySpec) -> complex:
    """Action of the (generally non-classical) single-reflection path.

    Continues the instantaneous bounce beyond its existence region; on the
    right of the step this is the quantum-reflection action
    m (x0 + x1)^2 / (2T) - V0 T.
    """
    m, V0, T = model.m, model.V0, bvp.T
    if bvp.x0 >= 0 and bvp.x1 >= 0:
        return m * (bvp.x0 + bvp.x1) ** 2 / (2 * T) - V0 * T
    return m * (bvp.x0 + bvp.x1) ** 2 / (2 * T)


# ---------------------------------------------------------------------------
# smooth-step real paths
# ---------------------------------------------------------------------------

def _solve_direct_ws(model, bvp):
    """Direct-path energy of T_dir(E) = T, None if there is none.

    T_dir = int dx/v falls strictly (dT_dir/dE = -int dx/(m v^3)) from a
    finite value at the energy floor, where an endpoint turns, to 0 as
    E -> infinity, so the root exists and is unique iff T_dir(floor) >= T.
    The speed on the path lies between its endpoint values, which puts
    E - floor in [free - (floor - V_min), free], free = m (x1 - x0)^2/(2T^2);
    the root is solved in u = log(E - floor) on that bracket, so it keeps
    its relative accuracy however close to the floor it lies.  A lower end
    above floor (1 + 1e-12) proves the root exists; otherwise the sign of
    T_dir - T there decides."""
    from scipy.optimize import brentq
    x0, x1, T = bvp.x0, bvp.x1, bvp.T
    pot = [potential_value(model, x) for x in (x0, x1)]
    floor, free = max(pot), model.m * (x1 - x0) ** 2 / (2.0 * T * T)
    if free == 0.0:  # x0 = x1: no direct path takes a time T > 0
        return None
    lo = free - (floor - min(pot))
    proven = lo > floor * 1e-12
    E = lambda u: floor + math.exp(u)
    f = lambda u: _direct(model, E(u), x0, x1)[0] - T
    u_lo, u_hi = math.log(lo if proven else floor * 1e-12), math.log(free)
    f_lo = f(u_lo)
    if f_lo < 0 and not proven:
        return None
    if f_lo <= 0:  # rounding puts the root at or outside a bound: take it
        return E(u_lo)
    if f(u_hi) >= 0:
        return E(u_hi)
    return E(brentq(f, u_lo, u_hi, xtol=1e-15, rtol=8.9e-16))


_E_TOP = 1.0 - 1e-13  # T_b diverges at V0: bracket the bounce branch below


def _bounce_extrema(model, x0, x1):
    """(e_lo, E_max, E_min): the local maximum and minimum of the bounce time
    T_b(E) on (e_lo, V0), None where absent.

    T_b rises from the energy floor (dT_b/dE ~ (E - floor)^-1/2), is concave,
    then convex, and diverges at V0, so dT_b/dE is least where d2T_b/dE2
    changes sign (or at e_lo).  If it is negative there, E_max lies below
    (None if dT_b/dE < 0 at e_lo) and E_min above; if not, T_b is monotone.
    A bracket end whose sign breaks this shape raises RootBracketError."""
    from scipy.optimize import brentq
    floor = max(potential_value(model, x0), potential_value(model, x1))
    e_lo = max(floor * (1 + 1e-10), 1e-12 * model.V0)
    e_hi = model.V0 * _E_TOP
    if e_lo >= e_hi:
        return e_lo, None, None
    def tb_deriv(dt):  # d/dE, d2/dE2 of T_b = -(t0 + t1) on fresh states
        return lambda E: -sum(dt(model, E, s).real
                              for s in _fresh(model, E, x0, x1))
    d1, d2 = tb_deriv(_dt_dE), tb_deriv(_d2t_dE2)
    root = lambda f, a, b: brentq(f, a, b, xtol=1e-16, rtol=8.9e-16)
    if not (d2(e_hi) > 0 and d1(e_hi) > 0):
        raise RootBracketError(f"T_b not rising and convex at V0 (1 - 1e-13) "
                               f"for (x0, x1) = ({x0:g}, {x1:g})")
    e_inf = root(d2, e_lo, e_hi) if d2(e_lo) < 0 else e_lo
    if d1(e_inf) >= 0:
        return e_lo, None, None
    e_max = root(d1, e_lo, e_inf) if d1(e_lo) > 0 else None
    return e_lo, e_max, root(d1, e_inf, e_hi)


def _solve_bounces_ws(model, bvp):
    """Bounce-energy roots of T_b(E) = T on (E_floor, V0) as (E, maslov, kind).

    T_b is monotone between e_lo, its extrema and the divergence at V0, so
    each piece brackets at most one root, however narrow the dip near a fold.
    The Maslov index counts conjugate points: 1 on the falling piece, which
    ends at E_min, 0 on a rising one.  Roots above E_min are high bounces."""
    from scipy.optimize import brentq
    x0, x1, T = bvp.x0, bvp.x1, bvp.T
    e_lo, e_max, e_min = _bounce_extrema(model, x0, x1)
    e_hi = model.V0 * _E_TOP
    if e_lo >= e_hi:
        return []
    knots = [E for E in (e_lo, e_max, e_min, e_hi) if E is not None]
    f = lambda E: float(_t_bounce(model, E, x0, x1).real) - T
    vals = [f(E) for E in knots]
    if not vals[-1] > 0:
        raise RootBracketError(f"T_b(V0 (1 - 1e-13)) < T = {T:g}: bounce "
                               f"root not bracketed below V0")
    return [(brentq(f, a, b, xtol=1e-16, rtol=8.9e-16), int(b == e_min),
             SaddleKind.HIGH_BOUNCE if a == e_min else SaddleKind.LOW_BOUNCE)
            for a, b, fa, fb in zip(knots, knots[1:], vals, vals[1:])
            if fa * fb < 0]


def solve_real_paths(model: StepModel, bvp: BoundarySpec):
    """All real classical saddles (one or three) of the boundary-value problem."""
    if model.family is Family.HEAVISIDE or model.V0 == 0.0:
        return heaviside_paths(model, bvp)
    x0, x1, T = bvp.x0, bvp.x1, bvp.T
    out = []
    E_dir = _solve_direct_ws(model, bvp)
    if E_dir is not None:
        _, W, dT = _direct(model, E_dir, x0, x1)
        vv = _vv(model, E_dir, x0, x1, dT(), bounce=False)
        out.append(_real_saddle(model, SaddleKind.DIRECT, E_dir,
                                -E_dir * T + W, vv, maslov=0))
    for E, nu, kind in _solve_bounces_ws(model, bvp):
        _, W, dT = _bounce(model, E, *_fresh(model, E, x0, x1))
        vv = _vv(model, E, x0, x1, dT().real, bounce=True)
        out.append(_real_saddle(model, kind, E, (-E * T + W).real, vv, nu))
    if not out:
        raise RootBracketError("no real classical path found")
    return out


# ---------------------------------------------------------------------------
# fold caustic and caustic saddle
# ---------------------------------------------------------------------------

def bounce_fold(model: StepModel, x0: float, T: float,
                x1_lo: float, x1_hi: float):
    """x1 of the fold caustic (bounce merger) at fixed x0, T: Newton on
    T_min(x1) = T_b(E_min) = T from x1_lo, which must lie outside the caustic
    loop (else ValidationError), with slope -1/v1 as dT_b/dE = 0 at E_min.
    T_min falls toward the step until E_min merges with E_max: an iterate out
    of the bracket or past the merger is replaced by the bracket's midpoint,
    and a bracket that closes on the merger raises RootBracketError."""
    row = f"no fold on the row x0 = {x0:g}, T = {T:g}"
    def newton_step(x1):  # (T_min - T) v1 > 0 outside the fold; nan past E_min
        E_min = _bounce_extrema(model, x0, x1)[2]
        if E_min is None:
            return math.nan
        return ((float(_t_bounce(model, E_min, x0, x1).real) - T)
                * abs(_speed(model, E_min, x1)))
    lo, hi, x1 = x1_lo, x1_hi, x1_lo
    for it in range(100):
        step = newton_step(x1)
        if it == 0 and step <= 0:
            raise ValidationError(f"x1 = {x1:.6g} lies inside the caustic "
                                  f"loop; no complex saddle")
        if abs(step) <= 1e-12:
            return x1 + step
        lo, hi = (x1, hi) if step > 0 else (lo, x1)
        if hi - lo <= 1e-12:
            raise RootBracketError(f"{row}: T_b has no minimum at or below "
                                   f"T near x1 = {x1:.6g}")
        x1 = x1 + step if lo < x1 + step < hi else 0.5 * (lo + hi)
    raise NewtonError(f"{row}: Newton did not converge")


def _saddle_from_state(model, E, s0, s1, T):
    """Complex bounce saddle on the sheets that s0, s1 carry at E."""
    _, W, dT = _bounce(model, E, s0, s1)
    S = -E * T + W
    vv = _vv(model, E, s0.x, s1.x, dT(), bounce=True)
    return ClassicalSaddle(kind=SaddleKind.CAUSTIC, E=complex(E), S=complex(S),
                           vv=complex(vv), relevant=bool(S.imag >= 0),
                           sqrt_vv=complex(-cmath.sqrt(vv)))


_NEWTON_ITMAX = 60


def _caustic_saddle(model, x0, x1, T):
    """The caustic saddle at (x0, x1, T): the sheet +1 root of T_b(E) = T.

    Damped complex Newton on _bounce with fresh states on the sheet
    A0 = arctanh(+sqrt(w0)), rebuilt at every iterate, from the free
    bounce energy m (|x0| + |x1|)^2 / (2 T^2) shifted by 0.05 i V0.  The
    relation is real on the real axis, so the roots come in conjugate
    pairs; the one with Im E > 0 is taken, whose Im S >= 0."""
    at = lambda E: _bounce(model, E, *_fresh(model, E, x0, x1, 1))
    E = complex(model.m * (abs(x0) + abs(x1)) ** 2 / (2.0 * T * T),
                0.05 * model.V0)
    Tb, _, dT = at(E)
    for _ in range(_NEWTON_ITMAX):
        if abs(Tb - T) < 1e-13 * max(T, 1.0):
            E = E.conjugate() if E.imag < 0 else E
            return _saddle_from_state(model, E, *_fresh(model, E, x0, x1, 1), T)
        dF = dT()
        if dF == 0:
            raise NewtonError("vanishing dT_b/dE in the caustic Newton")
        step, lam = -(Tb - T) / dF, 1.0
        for _ in range(50):
            Tb_t, _, dT_t = at(E + lam * step)
            if abs(Tb_t - T) < abs(Tb - T):
                E, Tb, dT = E + lam * step, Tb_t, dT_t
                break
            lam *= 0.5
        else:
            raise NewtonError("step damping failed in the caustic Newton")
    raise NewtonError(f"caustic Newton did not converge in {_NEWTON_ITMAX} "
                      f"iterations at (x0, x1, T) = ({x0:g}, {x1:g}, {T:g})")


def find_caustic_saddle(model: StepModel, bvp: BoundarySpec) -> ClassicalSaddle:
    """Caustic saddle at bvp: the complex bounce root that the two real
    bounces merge into at the row's fold; caustic_saddle_curve at one x1."""
    return caustic_saddle_curve(model, bvp.x0, bvp.T, [bvp.x1])[0]


def caustic_saddle_curve(model: StepModel, x0: float, T: float, x1_values):
    """Caustic saddles along a row of x1 values, as a list in their order:
    one fold search for the row, from min(x1_values), and one Newton per
    x1.  A row with no fold raises RootBracketError, and an x1 at or past
    the fold (on or inside the caustic loop) ValidationError."""
    if model.family is not Family.WOODS_SAXON:
        raise UnsupportedFamilyError("the caustic saddle needs the smooth step")
    x1s = [float(x1) for x1 in x1_values]
    fold = bounce_fold(model, x0, T, min(x1s), -1e-3)
    for x1 in x1s:
        if not x1 < fold:
            raise ValidationError(f"x1 = {x1:.6g} lies on or inside the "
                                  f"caustic loop; no complex saddle")
    return [_caustic_saddle(model, x0, x1, T) for x1 in x1s]


# ---------------------------------------------------------------------------
# topological saddle
# ---------------------------------------------------------------------------

def topological_saddle(model: StepModel, bvp: BoundarySpec) -> ClassicalSaddle:
    """Real-energy reflecting saddle with E > V0.

    Solves Re T_b(E) = T on the continued bounce relation (principal sheet)
    and assigns Im S = pi sqrt(2 m (E - V0)) / (2 alpha) from the contour
    prescription around the logarithmic singularity (half the reflection
    instanton action).  Re T_b falls strictly above V0, so the root exists
    and is unique iff Re T_b(V0 (1 + 1e-10)) >= T; it is bracketed by
    doubling from 2 V0.
    """
    if model.family is not Family.WOODS_SAXON:
        raise UnsupportedFamilyError("topological saddle needs the smooth step")
    from scipy.optimize import brentq
    x0, x1, T = bvp.x0, bvp.x1, bvp.T
    f = lambda E: float(_t_bounce(model, E, x0, x1).real) - T
    lo = model.V0 * (1.0 + 1e-10)
    if f(lo) < 0:
        raise NoTopologicalSaddleError(
            "Re T(E) never reaches T for E > V0 (minimum-energy condition)")
    hi = 2.0 * model.V0
    while not f(hi) < 0:
        hi *= 2.0
        if hi > 1e300:
            raise RootBracketError(f"topological energy not bracketed for "
                                   f"(x0, x1, T) = ({x0:g}, {x1:g}, {T:g})")
    E = brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)
    sad = _saddle_from_state(model, E, *_fresh(model, E, x0, x1), T)
    im_s = math.pi * math.sqrt(2.0 * model.m * (E - model.V0)) / (2.0 * model.alpha)
    return replace(sad, kind=SaddleKind.TOPOLOGICAL,
                   S=complex(sad.S.real, im_s), relevant=True)
