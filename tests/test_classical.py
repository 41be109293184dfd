import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from stepprop import caustics as ca
from stepprop import classical as cl
from stepprop.errors import (BranchDegenerateError, NewtonError,
                             NoTopologicalSaddleError, RootBracketError,
                             ValidationError)
from stepprop.potential import (Family, StepModel, potential_derivatives,
                                potential_value)

BVP_REFL = cl.BoundarySpec(-5.0, -9.25, 10.0)


# ---------------------------------------------------------------------------
# implicit closed forms
# ---------------------------------------------------------------------------

def test_turning_point_values(ws_unit):
    assert cl.turning_point(ws_unit, 0.5) == pytest.approx(0.0)
    assert cl.turning_point(ws_unit, 0.75) == pytest.approx(math.atanh(0.5))
    with pytest.raises(BranchDegenerateError):
        cl.turning_point(ws_unit, 1.0)


@pytest.mark.parametrize("call", [
    lambda md: cl.turning_point(md, 0.5),
    lambda md: cl.time_of_flight(md, 0.5, -1.0),
    lambda md: cl.reduced_action(md, 0.5, -1.0),
    lambda md: cl.endpoint(md, -1.0, 0.5, 1.0)],
    ids=["turning_point", "time_of_flight", "reduced_action", "endpoint"])
def test_zero_step_height_is_a_validation_error(call):
    # the implicit solution takes log(V0); the free particle has no turning
    # point
    with pytest.raises(ValidationError, match="V0 > 0"):
        call(StepModel(Family.WOODS_SAXON, V0=0.0))


def test_turning_point_defining_identity(ws_unit, rng):
    for _ in range(10):
        E = rng.uniform(0.05, 0.95)
        xt = cl.turning_point(ws_unit, E)
        assert abs(potential_value(ws_unit, complex(xt)) - E) < 1e-12


def test_time_and_action_vanish_at_turning_point(ws_unit):
    E = 0.6
    xt = complex(cl.turning_point(ws_unit, E)).real
    assert abs(cl.time_of_flight(ws_unit, E, xt)) < 1e-7
    assert abs(cl.reduced_action(ws_unit, E, xt)) < 1e-7


def test_free_limit_of_time_of_flight(ws_unit):
    E = 0.5
    t1 = cl.time_of_flight(ws_unit, E, -35.0)
    t0 = cl.time_of_flight(ws_unit, E, -40.0)
    assert abs((t1 - t0).real - 5.0 / math.sqrt(2 * E)) < 1e-6


def test_time_of_flight_at_complex_x(ws_unit):
    # by central differences off the pole lines: (dt/dx)^2 2(E - V)/m = 1 on
    # the sheet where dt/dx = 1/v (+1 above V0), and (ds/dx)^2 = 2m(E - V)
    # for reduced_action, which keeps Im x too, below V0
    h, m = 1e-5, ws_unit.m
    diff = lambda f, x: (f(x + h) - f(x - h)) / (2 * h)
    twice_ke = lambda E, x: 2.0 * (E - potential_value(ws_unit, x))
    for x in (-1.0 + 0.4j, 0.2 + 1.2j, -2.0 - 2.5j):
        dt = diff(lambda y: cl.time_of_flight(ws_unit, 2.0, y, +1), x)
        ds = diff(lambda y: cl.reduced_action(ws_unit, 0.6, y), x)
        assert abs(dt * dt * twice_ke(2.0, x) / m - 1.0) < 1e-8, x
        assert abs(ds * ds / (m * twice_ke(0.6, x)) - 1.0) < 1e-8, x
    # Im x is not dropped, and x + 0j is the real x bit for bit
    assert (cl.time_of_flight(ws_unit, 2.0, 0.5 + 0.3j)
            != cl.time_of_flight(ws_unit, 2.0, 0.5))
    for x in (-3.0, -0.5, 0.7, 2.5):
        for E, sheet in ((2.0, -1), (2.0, 1), (0.6, -1)):
            assert (cl.time_of_flight(ws_unit, E, x + 0j, sheet)
                    == cl.time_of_flight(ws_unit, E, x, sheet))
    with pytest.raises(ValidationError):
        cl.time_of_flight(ws_unit, 2.0, 0.5, 0)


def test_reduced_action_derivative(ws_unit):
    E, x, h = 0.75, -2.0, 1e-6
    ds = (cl.reduced_action(ws_unit, E, x + h)
          - cl.reduced_action(ws_unit, E, x - h)) / (2 * h)
    assert abs(ds - math.sqrt(2 * (E - potential_value(ws_unit, x)))) < 1e-8


def test_hamilton_jacobi_energy_and_time_derivatives(ws_unit):
    # dW/dE = +T for the reduced action W(E), and dS/dT = -E for the
    # composed action at fixed endpoints
    x0, x1 = -6.0, -3.0
    E, h = 0.41, 1e-6
    w_p = cl._direct(ws_unit, E + h, x0, x1)[1]
    w_m = cl._direct(ws_unit, E - h, x0, x1)[1]
    T = cl._direct(ws_unit, E, x0, x1)[0]
    assert abs((w_p - w_m) / (2 * h) - T) < 1e-6

    T0, hT = 10.0, 1e-5
    def action(Tv):
        sads = cl.solve_real_paths(ws_unit, cl.BoundarySpec(x0, x1, Tv))
        return [s for s in sads if s.kind is cl.SaddleKind.DIRECT][0]
    sp = action(T0 + hT)
    sm = action(T0 - hT)
    E0 = action(T0).E.real
    assert abs((sp.S.real - sm.S.real) / (2 * hT) + E0) < 1e-6


# ---------------------------------------------------------------------------
# Heaviside closed forms
# ---------------------------------------------------------------------------

def test_heaviside_ll_actions(heaviside_unit):
    bvp = cl.BoundarySpec(-4.0, -3.0, 10.0)
    saddles = {s.kind: s for s in cl.heaviside_paths(heaviside_unit, bvp)}
    assert saddles[cl.SaddleKind.DIRECT].S.real == pytest.approx(0.05)
    assert saddles[cl.SaddleKind.LOW_BOUNCE].S.real == pytest.approx(49.0 / 20.0)
    assert saddles[cl.SaddleKind.HIGH_BOUNCE].S.real == pytest.approx(
        math.sqrt(2.0) * 7.0 - 10.0)
    assert saddles[cl.SaddleKind.DIRECT].vv == pytest.approx(-0.1)
    assert saddles[cl.SaddleKind.LOW_BOUNCE].vv == pytest.approx(0.1)


def test_heaviside_crossing_consistency(heaviside_unit):
    bvp = cl.BoundarySpec(-3.0, 2.0, 6.0)
    (sad,) = cl.heaviside_paths(heaviside_unit, bvp)
    E = sad.E.real
    assert E > 1.0
    T_check = (math.sqrt(1 / (2 * E)) * 3.0
               + math.sqrt(1 / (2 * (E - 1.0))) * 2.0)
    assert T_check == pytest.approx(6.0, rel=1e-12)
    # action formula against direct kinetic-minus-ET assembly
    S_alt = -E * 6.0 + math.sqrt(2 * E) * 3.0 + math.sqrt(2 * (E - 1.0)) * 2.0
    assert sad.S.real == pytest.approx(S_alt, rel=1e-12)


def test_heaviside_rr_action(heaviside_unit):
    bvp = cl.BoundarySpec(5.0, 4.0, 10.0)
    (sad,) = cl.heaviside_paths(heaviside_unit, bvp)
    assert sad.S.real == pytest.approx(0.05 - 10.0)


def test_heaviside_triangle_census(heaviside_unit):
    L = math.sqrt(2.0) * 10.0
    verts = cl.caustic_triangle_vertices(heaviside_unit, 10.0)
    assert verts[1] == (0.0, -L) and verts[2] == (-L, 0.0)
    inside = cl.BoundarySpec(-4.0, -4.0, 10.0)
    outside = cl.BoundarySpec(-8.0, -7.0, 10.0)
    assert len(cl.heaviside_paths(heaviside_unit, inside)) == 3
    assert len(cl.heaviside_paths(heaviside_unit, outside)) == 1


# ---------------------------------------------------------------------------
# smooth-step real saddles
# ---------------------------------------------------------------------------

def _shoot(model, saddle, bvp):
    sgn = (1.0 if bvp.x1 >= bvp.x0 else -1.0) \
        if saddle.kind is cl.SaddleKind.DIRECT else 1.0
    E = saddle.E.real
    v0 = sgn * math.sqrt(2 * (E - potential_value(model, bvp.x0)) / model.m)

    def rhs(t, y):
        _, vp, _ = potential_derivatives(model, y[0])
        return [y[1], -vp / model.m]

    sol = solve_ivp(rhs, (0, bvp.T), [bvp.x0, v0], rtol=1e-11, atol=1e-13,
                    dense_output=True)
    return sol


def test_real_saddles_shooting_consistency(ws_unit):
    bvp = cl.BoundarySpec(-4.0, -3.0, 10.0)
    saddles = cl.solve_real_paths(ws_unit, bvp)
    assert len(saddles) == 3
    for sad in saddles:
        sol = _shoot(ws_unit, sad, bvp)
        assert abs(sol.y[0, -1] - bvp.x1) < 1e-6
        # energy conservation along the orbit
        xs, vs = sol.y[0], sol.y[1]
        E_t = 0.5 * vs ** 2 + potential_value(ws_unit, xs)
        assert np.max(np.abs(E_t - sad.E.real)) < 1e-8


def test_action_consistency_with_path_quadrature(ws_unit):
    bvp = cl.BoundarySpec(-4.0, -3.0, 10.0)
    for sad in cl.solve_real_paths(ws_unit, bvp):
        sol = _shoot(ws_unit, sad, bvp)
        ts = np.linspace(0, bvp.T, 4001)
        xs, vs = sol.sol(ts)
        lagr = 0.5 * vs ** 2 - potential_value(ws_unit, xs)
        S_quad = float(np.trapezoid(lagr, ts))
        assert abs(S_quad - sad.S.real) < 1e-6


def test_hamilton_jacobi_endpoint_derivatives(ws_unit):
    bvp = cl.BoundarySpec(-4.0, -3.0, 10.0)
    d = 1e-6
    for kind in (cl.SaddleKind.DIRECT, cl.SaddleKind.LOW_BOUNCE,
                 cl.SaddleKind.HIGH_BOUNCE):
        def action_at(x0, x1):
            sads = cl.solve_real_paths(ws_unit, cl.BoundarySpec(x0, x1, 10.0))
            return [s for s in sads if s.kind is kind][0].S.real

        sad = [s for s in cl.solve_real_paths(ws_unit, bvp)
               if s.kind is kind][0]
        E = sad.E.real
        p0 = math.sqrt(2 * (E - potential_value(ws_unit, bvp.x0)))
        p1 = math.sqrt(2 * (E - potential_value(ws_unit, bvp.x1)))
        sgn0 = 1.0 if kind is not cl.SaddleKind.DIRECT else \
            (1.0 if bvp.x1 >= bvp.x0 else -1.0)
        sgn1 = -1.0 if kind is not cl.SaddleKind.DIRECT else sgn0
        dS0 = (action_at(bvp.x0 + d, bvp.x1) - action_at(bvp.x0 - d, bvp.x1)) / (2 * d)
        dS1 = (action_at(bvp.x0, bvp.x1 + d) - action_at(bvp.x0, bvp.x1 - d)) / (2 * d)
        assert abs(dS0 + sgn0 * p0) < 1e-6
        assert abs(dS1 - sgn1 * p1) < 1e-6


def test_van_vleck_finite_difference(ws_unit):
    bvp = cl.BoundarySpec(-4.0, -3.0, 10.0)
    d = 1e-5
    for kind in (cl.SaddleKind.DIRECT, cl.SaddleKind.LOW_BOUNCE):
        def action_at(x0, x1):
            sads = cl.solve_real_paths(ws_unit, cl.BoundarySpec(x0, x1, 10.0))
            return [s for s in sads if s.kind is kind][0].S.real

        sad = [s for s in cl.solve_real_paths(ws_unit, bvp) if s.kind is kind][0]
        vv_fd = (action_at(bvp.x0 + d, bvp.x1 + d)
                 - action_at(bvp.x0 + d, bvp.x1 - d)
                 - action_at(bvp.x0 - d, bvp.x1 + d)
                 + action_at(bvp.x0 - d, bvp.x1 - d)) / (4 * d * d)
        assert sad.vv.real == pytest.approx(vv_fd, rel=1e-4)


def test_direct_van_vleck_far_from_the_step(ws_steep):
    # the direct path at BVP_REFL stays far left of the alpha = 5 step,
    # where vv = -m/T holds to rounding
    (direct,) = [s for s in cl.solve_real_paths(ws_steep, BVP_REFL)
                 if s.kind is cl.SaddleKind.DIRECT]
    assert abs(direct.vv.real + ws_steep.m / BVP_REFL.T) <= 1e-12


def _quad_time_action(md, E, x0, x1):
    """int dx/v and int p dx between the endpoints, by adaptive quadrature."""
    a, b = sorted((x0, x1))
    v = lambda x: math.sqrt(2.0 * (E - float(potential_value(md, x))) / md.m)
    kw = dict(points=[0.0] if a < 0.0 < b else None, epsabs=0.0,
              epsrel=1e-13, limit=200)
    return (quad(lambda x: 1.0 / v(x), a, b, **kw)[0],
            quad(lambda x: md.m * v(x), a, b, **kw)[0])


def _direct_cases():
    # (alpha, x0, x1, E), V0 = 1: endpoints drawn on one side of the step or
    # on both, and E in turn in the allowed range below V0, within 1e-3 below
    # it, within 1e-3 above it, and well above it
    rng = np.random.default_rng(17)
    cases = []
    while len(cases) < 60:
        alpha = (1.0, 5.0, 50.0)[len(cases) % 3]
        x0, x1 = (float(x) for x in rng.uniform(-6.0, 3.0, 2))
        floor = 1.0 / (1.0 + math.exp(-2.0 * alpha * max(x0, x1)))
        E = (floor + rng.uniform(0.1, 0.9) * (1.0 - floor),
             1.0 - rng.uniform(1e-5, 1e-3), 1.0 + rng.uniform(1e-5, 1e-3),
             1.0 + rng.uniform(0.01, 2.0))[len(cases) // 3 % 4]
        if E > floor + 1e-4:
            cases.append((alpha, x0, x1, float(E)))
    return cases


@pytest.mark.parametrize("alpha, x0, x1, E", _direct_cases())
def test_direct_relation_matches_quadrature(alpha, x0, x1, E):
    # T = int dx/v and W = int p dx on either side of V0: A0 lies on the
    # sheet where dt/dx = 1/v, arctanh(-sqrt(w0)) below V0, +sqrt(w0) above
    md = StepModel(Family.WOODS_SAXON, 1.0, 1.0, alpha, 1.0)
    T, W, _ = cl._direct(md, E, x0, x1)
    T_ref, W_ref = _quad_time_action(md, E, x0, x1)
    assert T == pytest.approx(T_ref, rel=1e-10)
    assert W == pytest.approx(W_ref, rel=1e-10)


@pytest.mark.parametrize("alpha, T, x0, x1", [
    (1.0, 5.0, -3.472, 2.15), (5.0, 5.0, -6.579, 0.435),
    (5.0, 10.0, -1.671, 0.84), (1.0, 10.0, 2.646, -5.635)])
def test_crossing_direct_path_solves_time_relation(alpha, T, x0, x1):
    # the one real path across the step has E > V0, however close to V0,
    # its time int dx/v equals T, and vv = -m/J(T) on its orbit
    md = StepModel(Family.WOODS_SAXON, 1.0, 1.0, alpha, 1.0)
    (sad,) = cl.solve_real_paths(md, cl.BoundarySpec(x0, x1, T))
    E = sad.E.real
    assert sad.kind is cl.SaddleKind.DIRECT and E > md.V0
    T_ref, _ = _quad_time_action(md, E, x0, x1)
    assert T_ref == pytest.approx(T, rel=1e-10)
    v0 = math.copysign(math.sqrt(2.0 * (E - float(potential_value(md, x0)))),
                       x1 - x0)
    sol = solve_ivp(ca._rhs(md), (0.0, T), (x0, v0, 0.0, 1.0),
                    method="DOP853", rtol=1e-12, atol=1e-12)
    assert abs(sol.y[0, -1] - x1) < 1e-9
    assert sad.vv.real == pytest.approx(-md.m / sol.y[2, -1], rel=1e-8)


@pytest.mark.parametrize("x0, x1, T", [(-3.0, 2.0, 6.0), (2.0, -3.0, 6.0),
                                       (-1.0, 4.0, 3.0)])
def test_crossing_direct_path_heaviside_limit(heaviside_unit, x0, x1, T):
    # at alpha = 200 the direct path across the step is the Heaviside one
    md = StepModel(Family.WOODS_SAXON, 1.0, 1.0, 200.0, 1.0)
    bvp = cl.BoundarySpec(x0, x1, T)
    (ref,) = cl.heaviside_paths(heaviside_unit, bvp)
    (sad,) = [s for s in cl.solve_real_paths(md, bvp)
              if s.kind is cl.SaddleKind.DIRECT]
    for got, want in ((sad.E, ref.E), (sad.S, ref.S), (sad.vv, ref.vv)):
        assert got.real == pytest.approx(want.real, rel=5e-3)


@pytest.mark.parametrize("alpha, x0, x1, T", [
    (200.0, -3.0, -2.0, 5.0), (50.0, -6.0, -5.5, 5.0), (200.0, -5.0, -4.0, 5.0)])
def test_direct_path_deep_below_the_step_is_free(alpha, x0, x1, T):
    # V(x0), V(x1) < 1e-216 (0.0 at alpha = 200, x = -4): the energy bracket
    # starts where E^(3/2) underflows, and the direct path is the free one
    md = StepModel(Family.WOODS_SAXON, 1.0, 1.0, alpha, 1.0)
    bvp = cl.BoundarySpec(x0, x1, T)
    (sad,) = [s for s in cl.solve_real_paths(md, bvp)
              if s.kind is cl.SaddleKind.DIRECT]
    E = md.m * (x1 - x0) ** 2 / (2 * T ** 2)
    assert sad.E.real == pytest.approx(E, rel=1e-12)
    assert sad.S.real == pytest.approx(E * T, rel=1e-12)
    assert sad.vv.real == pytest.approx(-md.m / T, rel=1e-12)


@pytest.mark.parametrize("dx", [s * 10.0 ** -k for k in range(3, 10)
                                for s in (-1, 1)])
def test_direct_path_near_the_energy_floor(dx):
    # WS alpha = 5 at x0 = -3, V = 9.4e-14: E - V ~ m dx^2/(2T^2) falls to
    # 3e-20, far below an absolute energy tolerance.  V is linear across the
    # path, where T = sqrt(2m)|dx|/(sqrt(E - V(x0)) + sqrt(E - V(x1))) exactly
    md = StepModel(Family.WOODS_SAXON, 1.0, 1.0, 5.0, 1.0)
    x0, T = -3.0, 4.0
    bvp = cl.BoundarySpec(x0, x0 + dx, T)
    (sad,) = [s for s in cl.solve_real_paths(md, bvp)
              if s.kind is cl.SaddleKind.DIRECT]
    free = md.m * dx ** 2 / (2 * T ** 2)
    root_e = [math.sqrt(sad.E.real - float(potential_value(md, x)))
              for x in (x0, x0 + dx)]
    assert sum(root_e) / 2 == pytest.approx(math.sqrt(free), rel=1e-6)
    assert sad.vv.real == pytest.approx(-md.m / T, rel=1e-8)


@pytest.mark.parametrize("E", [1.08 + 0.19j, 0.7 + 0.05j, 1.3 + 0.3j])
def test_bounce_time_derivative_closed_form(ws_steep, E):
    x0, x1 = BVP_REFL.x0, BVP_REFL.x1
    s0, s1 = cl._fresh(ws_steep, E, x0, x1)
    dtb = cl._bounce(ws_steep, E, s0, s1)[2]
    h = 1e-5 * abs(E)
    fd = (cl._t_bounce(ws_steep, E + h, x0, x1)
          - cl._t_bounce(ws_steep, E - h, x0, x1)) / (2 * h)
    assert dtb() == pytest.approx(fd, rel=1e-7)

    def dtb_at(e):  # dT_b/dE on the sheet -1 states made at e
        return cl._bounce(ws_steep, e, *cl._fresh(ws_steep, e, x0, x1))[2]()

    fd2 = (dtb_at(E + h) - dtb_at(E - h)) / (2 * h)
    d2 = -(cl._d2t_dE2(ws_steep, E, s0) + cl._d2t_dE2(ws_steep, E, s1))
    assert d2 == pytest.approx(fd2, rel=1e-6)


def _dtb_fresh(md, E, x0, x1):
    return cl._bounce(md, E, *cl._fresh(md, E, x0, x1))[2]().real


def _extrema_cases():
    rng = np.random.default_rng(5)
    cases = [(float(rng.choice([1.0, 5.0, 50.0])),
              *(float(v) for v in rng.uniform(-6.0, -0.05, 2)))
             for _ in range(17)]
    # monotone T_b; maximum below e_lo (floor < 1e-12 V0); floor within
    # 1e-10 of V0
    return cases + [(1.0, -3.0, -0.6), (5.0, -8.0, -7.0), (5.0, 2.4, 2.6)]


@pytest.mark.parametrize("alpha, x0, x1", _extrema_cases())
def test_bounce_extrema_match_derivative_sign_changes(alpha, x0, x1):
    md = StepModel(Family.WOODS_SAXON, 1.0, 1.0, alpha, 1.0)
    e_lo, e_max, e_min = cl._bounce_extrema(md, x0, x1)
    e_hi = md.V0 * cl._E_TOP
    if e_lo >= e_hi:
        # plateau: no bounce branch, as solve_real_paths reports
        assert e_max is None and e_min is None
        sads = cl.solve_real_paths(md, cl.BoundarySpec(x0, x1, 5.0))
        assert [s.kind for s in sads] == [cl.SaddleKind.DIRECT]
        return
    grid = e_lo + (e_hi - e_lo) * np.geomspace(1e-12, 1.0, 1500)
    d1 = np.array([_dtb_fresh(md, E, x0, x1) for E in grid])
    flips = np.flatnonzero(np.diff(np.sign(d1)) != 0)
    found = [e for e in (e_max, e_min) if e is not None]
    assert len(found) == len(flips)
    for e, i in zip(found, flips):
        assert grid[i] <= e <= grid[i + 1]
        # dT_b/dE changes sign within 1e-9 relative of the root
        below, above = (_dtb_fresh(md, e * (1.0 + d), x0, x1)
                        for d in (-1e-9, 1e-9))
        assert np.sign(below) == np.sign(d1[i]) == -np.sign(above)
    assert (e_max is None) == (d1[0] < 0 or not flips.size)


@pytest.mark.parametrize("alpha, x0, T", [(1.0, -4.0, 10.0), (1.0, -2.0, 6.0),
                                          (5.0, -3.0, 6.0), (50.0, -1.0, 10.0)])
def test_bounce_fold_lies_on_fold_conditions(alpha, x0, T):
    # T_b = T and dT_b/dE = 0 at the fold
    md = StepModel(Family.WOODS_SAXON, 1.0, 1.0, alpha, 1.0)
    fold = cl.bounce_fold(md, x0, T, -math.sqrt(2.0) * T - x0 - 1.5, -1e-3)
    e_min = cl._bounce_extrema(md, x0, fold)[2]
    assert abs(cl._t_bounce(md, e_min, x0, fold).real - T) <= 1e-9


def test_caustic_merger_energies(ws_unit):
    # approaching the fold along x1, the two bounce energies coalesce
    x0, T = -4.0, 10.0
    fold = cl.bounce_fold(ws_unit, x0, T, -4.6, -3.2)
    eps = 1e-6
    sads = cl.solve_real_paths(ws_unit, cl.BoundarySpec(x0, fold + eps, T))
    bounce_E = sorted(s.E.real for s in sads
                      if s.kind is not cl.SaddleKind.DIRECT)
    assert len(bounce_E) == 2
    assert abs(bounce_E[1] - bounce_E[0]) < 1e-3


def test_van_vleck_divergence_near_fold(ws_unit):
    x0, T = -4.0, 10.0
    fold = cl.bounce_fold(ws_unit, x0, T, -4.6, -3.2)
    sads = cl.solve_real_paths(ws_unit, cl.BoundarySpec(x0, fold + 1e-7, T))
    vvs = [abs(s.vv) for s in sads if s.kind is not cl.SaddleKind.DIRECT]
    assert max(vvs) > 1e2


_STEP_SIDE = ([(1.0, 10.0, -4.0, x1, n) for x1, n in
               [(-3.0, 3), (-2.0, 3), (-1.40, 3), (-1.36, 3), (-1.30, 1)]]
              + [(1.0, 10.0, -1.6, -0.9, 1), (1.0, 5.0, -3.0, -0.6, 1)])


@pytest.mark.parametrize(
    "alpha, T, x0, x1, n_paths", _STEP_SIDE,
    ids=[f"{x1}-{n}" if (a, T, x0) == (1.0, 10.0, -4.0)
         else f"a{a:g}-T{T:g}-{x0}-{x1}-{n}" for a, T, x0, x1, n in _STEP_SIDE])
def test_real_paths_match_ivp_near_step_side_caustic(alpha, T, x0, x1,
                                                     n_paths):
    # toward the step T_b(E) rises from the energy floor to a local maximum
    # before it dips; between x1 = -1.431 and the caustic at -1.326 the direct
    # path of the x0 = -4 row has become a bounce and two more bounces lie on
    # either side of that maximum.  The last two rows have a single bounce on
    # a monotone T_b.
    md = StepModel(Family.WOODS_SAXON, 1.0, 1.0, alpha, 1.0)
    bvp = cl.BoundarySpec(x0, x1, T)
    sads = cl.solve_real_paths(md, bvp)
    assert len(sads) == n_paths
    assert ca.inside_caustic(md, bvp) == (n_paths == 3)
    ts = np.linspace(0.0, T, 20001)[1:]
    for sad in sads:
        E = sad.E.real
        v0 = math.sqrt(2.0 * (E - float(potential_value(md, x0))))
        sol = solve_ivp(ca._rhs(md), (0.0, T), (x0, v0, 0.0, 1.0),
                        method="DOP853", rtol=1e-12, atol=1e-12,
                        dense_output=True)
        x_T, J = sol.y[0, -1], sol.y[2, -1]
        assert abs(x_T - x1) < 1e-9
        assert sad.vv.real == pytest.approx(-md.m / J, rel=1e-8)
        # the Maslov index counts the conjugate points, the zeros of J(t)
        n_conj = np.count_nonzero(np.diff(np.sign(sol.sol(ts)[2])))
        assert sad.maslov == n_conj


def test_caustic_saddle_rows_without_fold_raise(ws_unit):
    # T_min > T wherever T_b has a minimum on these rows: no fold, so no
    # complex root that the two real bounces merge into
    for x0, T, x1 in [(-2.0, 5.0, -6.571), (-3.0, 5.0, -5.57),
                      (-4.0, 6.0, -8.0)]:
        with pytest.raises(RootBracketError, match=f"x0 = {x0:g}, T = {T:g}"):
            cl.find_caustic_saddle(ws_unit, cl.BoundarySpec(x0, x1, T))


# ---------------------------------------------------------------------------
# complex saddles (the sheet +1 root of the bounce relation)
# ---------------------------------------------------------------------------

def test_caustic_saddle_reference_configuration(ws_steep):
    sad = cl.find_caustic_saddle(ws_steep, BVP_REFL)
    # frozen regression values, first reached by continuation from the fold
    assert sad.E == pytest.approx(1.0875286669 + 0.1906064118j, rel=1e-6)
    assert sad.S == pytest.approx(10.3844613036 + 0.2562310669j, rel=1e-6)
    assert sad.relevant
    # the root solves the bounce relation on fresh sheet +1 states
    tb = cl._bounce(ws_steep, sad.E, *cl._fresh(ws_steep, sad.E, BVP_REFL.x0,
                                                BVP_REFL.x1, 1))[0]
    assert abs(tb - BVP_REFL.T) < 1e-12
    # the sheet -1 relation is real on the real axis: Schwarz symmetry
    tb = cl._t_bounce(ws_steep, np.conj(sad.E), BVP_REFL.x0, BVP_REFL.x1)
    tb2 = cl._t_bounce(ws_steep, sad.E, BVP_REFL.x0, BVP_REFL.x1)
    assert tb == pytest.approx(np.conj(tb2), rel=1e-10)


def test_caustic_saddle_van_vleck_mixed_partial(ws_steep):
    sad = cl.find_caustic_saddle(ws_steep, BVP_REFL)
    d = 1e-4

    def S_at(x0, x1):
        return cl.find_caustic_saddle(
            ws_steep, cl.BoundarySpec(x0, x1, 10.0)).S

    vv_fd = (S_at(BVP_REFL.x0 + d, BVP_REFL.x1 + d)
             - S_at(BVP_REFL.x0 + d, BVP_REFL.x1 - d)
             - S_at(BVP_REFL.x0 - d, BVP_REFL.x1 + d)
             + S_at(BVP_REFL.x0 - d, BVP_REFL.x1 - d)) / (4 * d * d)
    assert sad.vv == pytest.approx(vv_fd, rel=1e-3)


def test_caustic_saddle_imaginary_part_vanishes_at_fold(ws_steep):
    x0, T = -5.0, 10.0
    fold = cl.bounce_fold(ws_steep, x0, T, -8.0, -5.0)
    sad = cl.find_caustic_saddle(ws_steep, cl.BoundarySpec(x0, fold - 0.01, T))
    assert 0 < sad.E.imag < 0.05
    assert 0 <= sad.S.imag < 5e-3


def test_caustic_saddle_inside_raises(ws_steep):
    with pytest.raises(ValidationError):
        cl.find_caustic_saddle(ws_steep, cl.BoundarySpec(-3.0, -2.0, 10.0))
    # a row from outside the loop, whose fold lies at x1 = -6.698
    with pytest.raises(ValidationError, match="x1 = -6 "):
        cl.caustic_saddle_curve(ws_steep, -5.0, 10.0, [-9.0, -6.0])


@pytest.mark.parametrize("alpha, x0, lo, hi", [(1.0, -3.0, -9.0, -5.2),
                                               (5.0, -5.0, -10.0, -8.0)])
def test_caustic_saddle_curve_matches_single_calls(alpha, x0, lo, hi):
    md = StepModel(Family.WOODS_SAXON, 1.0, 1.0, alpha, 1.0)
    xs = np.linspace(lo, hi, 9)
    row = cl.caustic_saddle_curve(md, x0, 10.0, xs)
    assert len(row) == xs.size
    for x1, sad in zip(xs, row):
        one = cl.find_caustic_saddle(md, cl.BoundarySpec(x0, x1, 10.0))
        for a, b in ((sad.E, one.E), (sad.S, one.S), (sad.vv, one.vv)):
            assert abs(a - b) <= 1e-11 * abs(b)


def test_caustic_saddle_closes_the_gap_at_the_fold(ws_steep):
    # 2.5e-3 from the fold the two conjugate roots have barely split
    fold = cl.bounce_fold(ws_steep, -5.0, 10.0, -8.0, -1e-3)
    sad = cl.find_caustic_saddle(ws_steep,
                                 cl.BoundarySpec(-5.0, fold - 2.5e-3, 10.0))
    assert 0 < sad.S.imag < 1e-4
    assert sad.S.real == pytest.approx(6.8183, abs=1e-4)


def test_caustic_saddle_census_is_continuous():
    # from 1e-3 off the fold out to x1 = -20, on steps from alpha = 1 to 200:
    # each point is its own Newton, and the sheet never flips along a row
    for alpha in (1.0, 5.0, 10.0, 50.0, 200.0):
        md = StepModel(Family.WOODS_SAXON, 1.0, 1.0, alpha, 1.0)
        for x0, T in ((-5.0, 10.0), (-3.0, 10.0), (-2.0, 6.0), (-0.5, 10.0)):
            fold = cl.bounce_fold(md, x0, T, -20.0, -1e-3)
            xs = fold - np.geomspace(1e-3, fold + 20.0, 20)
            row = cl.caustic_saddle_curve(md, x0, T, xs)
            assert len(row) == xs.size
            S = np.array([sad.S for sad in row])
            for x1, sad in zip(xs, row):
                E = sad.E
                tb = cl._bounce(md, E, *cl._fresh(md, E, x0, x1, 1))[0]
                assert abs(tb - T) <= 1e-12, (alpha, x0, T, x1)
            assert S[0].imag >= 0 and np.all(np.diff(S.imag) > 0), (alpha, x0)
            assert np.max(np.abs(np.diff(S) / np.diff(xs))) <= 4.0, (alpha, x0)
    with pytest.raises(RootBracketError):
        cl.caustic_saddle_curve(StepModel(Family.WOODS_SAXON, 1, 1, 1, 1),
                                -2.0, 5.0, [-8.0, -6.571])


def test_caustic_newton_gives_up_within_its_cap(ws_steep, monkeypatch):
    # T_b = T + E^-0.1 never reaches T: every Newton step lowers the
    # residual by a factor 11^-0.1, and Newton raises at its iteration cap
    # instead of looping
    calls = []

    def never(model, E, s0, s1):
        calls.append(E)
        return (10.0 + E ** -0.1, 0.0, lambda: -0.1 * E ** -1.1)

    monkeypatch.setattr(cl, "_bounce", never)
    with pytest.raises(NewtonError, match="did not converge"):
        cl._caustic_saddle(ws_steep, -5.0, -9.25, 10.0)
    assert len(calls) == cl._NEWTON_ITMAX + 1


def test_topological_saddle_reference_configuration(ws_steep):
    sad = cl.topological_saddle(ws_steep, BVP_REFL)
    # frozen regression values from this implementation (see ledger for the
    # comparison against the reference value 10.555)
    assert sad.E.real == pytest.approx(1.1197768327, rel=1e-8)
    assert sad.S.real == pytest.approx(10.6428070441, rel=1e-8)
    im_expected = math.pi * math.sqrt(2.0 * (sad.E.real - 1.0)) / 10.0
    assert sad.S.imag == pytest.approx(im_expected, rel=1e-12)


def test_topological_saddle_imaginary_part_scalings():
    # Im S is suppressed ~ 1/alpha for steeper steps
    bvp = cl.BoundarySpec(-5.0, -9.25, 10.0)
    s5 = cl.topological_saddle(StepModel(Family.WOODS_SAXON, 1, 1, 5, 1), bvp)
    s10 = cl.topological_saddle(StepModel(Family.WOODS_SAXON, 1, 1, 10, 1), bvp)
    assert s10.S.imag < s5.S.imag
    # at each saddle the prescription is exactly pi sqrt(2m(E-V0))/(2 alpha)
    for sad, alpha in ((s5, 5.0), (s10, 10.0)):
        im_expected = math.pi * math.sqrt(2.0 * (sad.E.real - 1.0)) / (2 * alpha)
        assert sad.S.imag == pytest.approx(im_expected, rel=1e-12)


def test_topological_saddle_no_solution_error(ws_steep):
    with pytest.raises(NoTopologicalSaddleError):
        cl.topological_saddle(ws_steep, cl.BoundarySpec(-5.0, -9.25, 50.0))


def test_continued_bounce_time_falls_above_v0():
    # Re dT_b/dE < 0 on the principal sheet above V0: the bracket of
    # topological_saddle holds at most one root
    rng = np.random.default_rng(11)
    for i in range(30):
        md = StepModel(Family.WOODS_SAXON, 1.0, 1.0, (1.0, 5.0, 50.0)[i % 3],
                       1.0)
        x0, x1 = (float(v) for v in rng.uniform(-10.0, 3.0, 2))
        for E in 1.0 + np.geomspace(1e-6, 1e4, 40):
            dtb = cl._bounce(md, E, *cl._fresh(md, E, x0, x1))[2]()
            assert dtb.real < 0, (md.alpha, x0, x1, E)


def _topological_cases():
    rng = np.random.default_rng(13)
    cases = [((1.0, 5.0, 50.0)[i % 3], (5.0, 10.0, 1.0)[(i // 3) % 3],
              *(float(v) for v in rng.uniform(-10.0, 3.0, 2)))
             for i in range(15)]
    # roots at E = 305.7, 193.3, 101.4, 97.7 and 69.3, far above V0
    return cases + [(1.0, 1.0, -6.5, -4.0), (5.0, 1.0, -9.5, -7.5),
                    (50.0, 1.0, -9.0, -5.0), (1.0, 2.0, -8.0, -8.0),
                    (5.0, 1.0, 2.5, -7.0)]


@pytest.mark.parametrize("alpha, T, x0, x1", _topological_cases())
def test_topological_saddle_matches_scan(alpha, T, x0, x1):
    # oracle: the first sign change of Re T_b - T on a 600-point log scan of
    # V0 (1 + 1e-10 .. 1e4), refined by brentq
    md = StepModel(Family.WOODS_SAXON, 1.0, 1.0, alpha, 1.0)
    bvp = cl.BoundarySpec(x0, x1, T)
    f = lambda E: cl._t_bounce(md, E, x0, x1).real - T
    grid = 1.0 + np.geomspace(1e-10, 1e4, 600)
    flips = np.flatnonzero(np.diff(np.sign([f(E) for E in grid])))
    if not flips.size:
        with pytest.raises(NoTopologicalSaddleError):
            cl.topological_saddle(md, bvp)
        return
    E = brentq(f, grid[flips[0]], grid[flips[0] + 1], xtol=1e-15,
               rtol=8.9e-16)
    sad = cl.topological_saddle(md, bvp)
    assert sad.E.real == pytest.approx(E, rel=1e-13)
    im_expected = math.pi * math.sqrt(2.0 * (E - 1.0)) / (2 * alpha)
    assert sad.S.imag == pytest.approx(im_expected, rel=1e-12)


def test_matching_point_regression():
    # real-axis reflection point a with Re[t(a)] = 0 at E = 2, alpha = 1,
    # as fig14 writes it in its config; recorded as a regression number
    from stepprop.cli import _recipes
    *_, config = next(_recipes(True)["fig14"]())
    a = config["a"]
    assert abs(a - (-0.26)) < 0.02          # reported scale of the point
    assert a == pytest.approx(-0.2690131, abs=1e-5)   # frozen regression
