import json
import math

import numpy as np
import pytest

from stepprop import caustics as ca
from stepprop import classical as cl
from stepprop.errors import InsideCausticError, NewtonError, QuadratureError
from stepprop.potential import Family, StepModel, potential_value


def test_ivp_free_particle():
    md = StepModel(Family.WOODS_SAXON, 1, 0.0, 1, 1)
    x, J = ca.integrate_ivp(md, -3.0, 0.7, 10.0)
    assert x == pytest.approx(-3.0 + 7.0, rel=1e-9)
    assert J == pytest.approx(10.0, rel=1e-9)


def test_ivp_energy_conservation(ws_unit):
    from scipy.integrate import solve_ivp
    from stepprop.potential import potential_derivatives

    x0, v0 = -4.0, 1.1

    def rhs(t, y):
        _, vp, _ = potential_derivatives(ws_unit, y[0])
        return [y[1], -vp]

    sol = solve_ivp(rhs, (0, 10.0), [x0, v0], rtol=1e-11, atol=1e-13,
                    dense_output=True)
    ts = np.linspace(0, 10, 500)
    xs, vs = sol.sol(ts)
    E = 0.5 * vs ** 2 + potential_value(ws_unit, xs)
    assert np.max(np.abs(E - E[0])) < 1e-9


def test_ivp_does_not_step_over_a_steep_step():
    # E = V0 - 0.036 at alpha = 50 after 13 units of free flight: an
    # unbounded step jumped the wall and returned x1 = +0.4496, J = 10
    md = StepModel(Family.WOODS_SAXON, 1, 1, 50.0, 1)
    x0, v0, T = -13.435, 1.388464, 10.0
    E = 0.5 * v0 * v0 + potential_value(md, x0)
    x1, J = ca.integrate_ivp(md, x0, v0, T)
    assert x1 < cl.turning_point(md, E).real
    x1_cf, dx1_dE = cl._endpoint(md, x0, E, T)
    assert x1 == pytest.approx(x1_cf, abs=1e-8)
    assert J == pytest.approx(v0 * dx1_dE, rel=1e-6)


def test_variational_sign_change_brackets_conjugate_time(ws_unit):
    # a bouncing orbit acquires a conjugate point: J(T) changes sign in T
    x0, v0 = -4.0, 1.05   # E ~ 0.55 < V0: reflected orbit
    js = [ca.integrate_ivp(ws_unit, x0, v0, T)[1] for T in (2.0, 14.0)]
    assert np.sign(js[0]) != np.sign(js[1])


@pytest.mark.parametrize("alpha", [1.0, 5.0, 50.0])
def test_endpoint_matches_ivp_in_all_branches(alpha):
    # the closed-form endpoint map against the IVP, in every branch: the
    # trajectory still incoming, bounced back, or transmitted above V0
    md = StepModel(Family.WOODS_SAXON, 1, 1, alpha, 1)
    rng = np.random.default_rng(int(alpha))
    cases = []
    for branch in ("incoming", "bounced", "transmitted"):
        for _ in range(2):
            x0 = float(rng.uniform(-8.0, -0.5))
            V = potential_value(md, x0)
            E = (float(rng.uniform(1.05, 1.8)) if branch == "transmitted"
                 else float(rng.uniform(V + 0.05 * (1 - V), 0.95)))
            t_turn = -cl.time_of_flight(md, E, x0).real
            T = {"incoming": float(rng.uniform(0.2, 0.9)) * t_turn,
                 "bounced": t_turn + float(rng.uniform(0.5, 8.0)),
                 "transmitted": float(rng.uniform(1.0, 10.0))}[branch]
            cases.append((branch, x0, math.sqrt(2.0 * (E - V)), E, T))
    for branch, x0, v0, E, T in cases:
        x1, dx1_dE = cl._endpoint(md, x0, E, T)
        x_ivp, J = ca.integrate_ivp(md, x0, v0, T)
        assert x1 == pytest.approx(x_ivp, abs=1e-8), branch
        assert v0 * dx1_dE == pytest.approx(J, rel=1e-6), branch


def _ivp_refined_curve(model, T, x0, n_scan):
    """caustic_curve refined on the IVP: brentq on J(v0) over the widened
    bracket of each scan flip, x1 from one more tight integration."""
    from scipy.optimize import brentq
    v0s = np.linspace(1e-4, 5.0 * math.sqrt(2.0 * model.V0 / model.m),
                      n_scan)
    _, Js = ca._scan_batch(model, x0, v0s, T)
    f = lambda v: ca.integrate_ivp(model, x0, float(v), T)[1]
    out = []
    for i in np.where(np.diff(np.sign(Js)) != 0)[0]:
        lo, hi = v0s[max(i - 1, 0)], v0s[min(i + 2, n_scan - 1)]
        if np.sign(f(lo)) == np.sign(f(hi)):
            continue
        v = brentq(f, lo, hi, xtol=1e-10)
        out.append(ca.integrate_ivp(model, x0, v, T)[0])
    return out


@pytest.mark.parametrize("alpha,x0", [(1.0, -5.9293), (1.0, -2.1764),
                                      (5.0, -7.7029), (5.0, -1.9707)])
def test_caustic_curve_matches_ivp_refinement(alpha, x0):
    md = StepModel(Family.WOODS_SAXON, 1, 1, alpha, 1)
    pts = ca.caustic_curve(md, 10.0, [x0], n_scan=220)
    ref = _ivp_refined_curve(md, 10.0, x0, 220)
    assert len(pts) == len(ref) == 2
    for (a, b), r in zip(pts, ref):
        assert a == x0
        assert b == pytest.approx(r, abs=1e-8)


def test_caustic_curve_encloses_three_path_region(ws_unit):
    pts = ca.caustic_curve(ws_unit, 10.0, [-4.0], n_scan=200)
    assert pts, "no caustic points found on the x0 = -4 row"
    roots = sorted(p[1] for p in pts)
    # directly outside/inside classification against the path census
    fold_lo = min(roots)
    inside = cl.BoundarySpec(-4.0, fold_lo + 0.05, 10.0)
    outside = cl.BoundarySpec(-4.0, fold_lo - 0.05, 10.0)
    assert len(cl.solve_real_paths(ws_unit, inside)) == 3
    assert len(cl.solve_real_paths(ws_unit, outside)) == 1
    assert ca.inside_caustic(ws_unit, inside)
    assert not ca.inside_caustic(ws_unit, outside)


def test_caustic_curve_matches_fold_finder(ws_unit):
    pts = ca.caustic_curve(ws_unit, 10.0, [-4.0], n_scan=300)
    fold_ivp = min(p[1] for p in pts)
    fold_cl = cl.bounce_fold(ws_unit, -4.0, 10.0, -4.6, -3.2)
    assert fold_ivp == pytest.approx(fold_cl, abs=5e-4)


def test_heaviside_caustic_is_analytic_triangle(heaviside_unit):
    pts = ca.caustic_curve(heaviside_unit, 10.0, [-1.0])
    L = math.sqrt(2.0) * 10.0
    # every emitted point lies on one of the three edges
    for (a, b) in pts:
        on_edges = (abs(a) < 1e-9 or abs(b) < 1e-9
                    or abs(a + b + L) < 1e-9)
        assert on_edges


def test_cusp_detection_on_smooth_loop(ws_unit):
    x0s = np.linspace(-4.5, -0.3, 36)
    pts = ca.caustic_curve(ws_unit, 10.0, x0s, n_scan=250)
    cusps = ca.cusp_points(pts)
    assert len(cusps) >= 2


def test_stokes_lines_heaviside_axes(heaviside_unit):
    pts = ca.stokes_lines(heaviside_unit, 10.0, [0.0])
    assert all(abs(a) < 1e-12 or abs(b) < 1e-12 for a, b in pts)


def test_relevance_flag_regions(heaviside_unit):
    # reflecting quadrant outside the triangle: relevant
    assert ca.relevance_flag(heaviside_unit, cl.BoundarySpec(-5.0, -9.25, 10.0))
    # crossing region: not relevant
    assert not ca.relevance_flag(heaviside_unit, cl.BoundarySpec(-5.0, 9.25, 10.0))
    # right-side reflection region: relevant
    assert ca.relevance_flag(heaviside_unit, cl.BoundarySpec(5.0, 4.0, 10.0))
    # on the Stokes line: tie-break counts as relevant
    assert ca.relevance_flag(heaviside_unit, cl.BoundarySpec(0.0, -16.0, 10.0))
    with pytest.raises(InsideCausticError):
        ca.relevance_flag(heaviside_unit, cl.BoundarySpec(-4.0, -4.0, 10.0))


def test_relevance_flag_smooth_reflecting_side(ws_steep):
    assert ca.relevance_flag(ws_steep, cl.BoundarySpec(-5.0, -9.25, 10.0))


def test_relevance_flag_propagates_solver_failure(ws_steep, monkeypatch):
    # a failed caustic solve is an error, not a "not relevant" answer
    def fail(model, bvp):
        raise NewtonError("complex Newton did not converge")

    monkeypatch.setattr(cl, "find_caustic_saddle", fail)
    with pytest.raises(NewtonError):
        ca.relevance_flag(ws_steep, cl.BoundarySpec(-5.0, -9.25, 10.0))


def test_stokes_lines_propagates_programming_errors(ws_unit, monkeypatch):
    # only stepprop's numerical failures skip a row
    def broken(*args, **kwargs):
        raise TypeError("broken continuation")

    monkeypatch.setattr(ca, "caustic_saddle_curve", broken)
    with pytest.raises(TypeError):
        ca.stokes_lines(ws_unit, 10.0, [-3.0])


def test_stokes_lines_propagates_saddle_failure(ws_unit, monkeypatch):
    # only a row with no fold, or one that starts inside the loop, is
    # skipped; a failed caustic Newton on a row with a fold is an error
    def fail(*args):
        raise NewtonError("caustic Newton did not converge")

    monkeypatch.setattr(cl, "_caustic_saddle", fail)
    assert ca.stokes_lines(ws_unit, 10.0, [1.0]) == []
    with pytest.raises(NewtonError):
        ca.stokes_lines(ws_unit, 10.0, [-3.0])


def test_stokes_relevant_wedge_on_smooth_row(ws_unit):
    # a row through the lower-left (relevant) wedge never crosses a Stokes
    # line: Re S_caustic stays above Re S_direct all the way out, and the
    # row-walker correctly returns no crossing points
    pts = ca.stokes_lines(ws_unit, 10.0, [-3.0])
    assert pts == []
    xs = np.linspace(-9.0, -5.2, 9)
    sads = cl.caustic_saddle_curve(ws_unit, -3.0, 10.0, xs)
    for key, sad in sads.items():
        bvp = cl.BoundarySpec(-3.0, float(key), 10.0)
        (direct,) = [s for s in cl.solve_real_paths(ws_unit, bvp)
                     if s.kind is cl.SaddleKind.DIRECT]
        assert sad.S.real > direct.S.real
        assert sad.relevant


def test_ivp_failure_is_never_silent(ws_unit, monkeypatch, capsys):
    # a solver that stops short raises QuadratureError, and the CLI turns
    # it into exit 3 with an error record
    from types import SimpleNamespace
    from stepprop.cli import main

    def stopped(fun, t_span, y0, **kw):
        return SimpleNamespace(success=False, message="forced stop",
                               t=np.array([t_span[0]]),
                               y=np.asarray(y0)[:, None])

    monkeypatch.setattr(ca, "solve_ivp", stopped)
    with pytest.raises(QuadratureError, match="forced stop"):
        ca.integrate_ivp(ws_unit, -4.0, 1.0, 10.0)
    with pytest.raises(QuadratureError, match="forced stop"):
        ca.caustic_curve(ws_unit, 10.0, [-4.0], n_scan=20)
    capsys.readouterr()
    rc = main(["caustics", "--model", json.dumps(ws_unit.to_dict()),
               "--T", "10", "--x0-range=-4:-4:1", "--n-scan", "20"])
    assert rc == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "QuadratureError"
    assert "forced stop" in record["message"]
