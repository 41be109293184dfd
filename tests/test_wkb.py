import numpy as np
import pytest

from oracles import free_propagator
from stepprop import classical as cl
from stepprop.errors import ValidationError
from stepprop.potential import Family, StepModel
from stepprop.propagator import propagate
from stepprop.wkb import fix_complex_saddle_phase, wkb_propagator


def test_free_particle_wkb_is_exact():
    md = StepModel(Family.HEAVISIDE, 1, 0.0, 1, 1)
    bvp = cl.BoundarySpec(-4.0, -7.0, 10.0)
    (sad,) = cl.heaviside_paths(md, bvp)
    g = wkb_propagator(md, bvp, [sad])
    assert g == pytest.approx(free_propagator(md, -4.0, -7.0, 10.0), rel=1e-12)


def test_nonpositive_time_rejected_before_wkb():
    # the retarded Theta(T) of the saddle sum is 1 on every BoundarySpec
    for T in (0.0, -1.0):
        with pytest.raises(ValidationError):
            cl.BoundarySpec(-4.0, -7.0, T)


@pytest.mark.parametrize("x0,x1,T", [
    (np.nan, -7.0, 10.0), (-4.0, -np.inf, 10.0), (-4.0, -7.0, np.inf),
    (-4.0, -7.0, np.nan)])
def test_non_finite_boundary_rejected(x0, x1, T):
    with pytest.raises(ValidationError, match="finite"):
        cl.BoundarySpec(x0, x1, T)


@pytest.mark.parametrize("hbar", [0.0, -1.0, np.nan, np.inf])
def test_wkb_refuses_a_bad_hbar(hbar):
    # hbar = nan once gave a nan sum, and hbar = inf a sum of zeros
    md = StepModel(Family.HEAVISIDE, 1, 1.0, 1, 1)
    bvp = cl.BoundarySpec(-4.0, -3.0, 10.0)
    with pytest.raises(ValidationError, match="finite and positive"):
        wkb_propagator(md, bvp, cl.heaviside_paths(md, bvp), hbar)


def test_hbar_scaling_of_complex_saddle(ws_steep):
    bvp = cl.BoundarySpec(-5.0, -9.25, 10.0)
    sad = cl.find_caustic_saddle(ws_steep, bvp)
    hbars = np.array([1.0, 0.5, 0.25])
    mags = np.array([abs(wkb_propagator(ws_steep, bvp, [sad], h))
                     for h in hbars])
    # log(|amp| sqrt(hbar)) is linear in 1/hbar with slope -Im S
    y = np.log(mags * np.sqrt(hbars))
    x = 1.0 / hbars
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = np.sum((y - fit) ** 2)
    ss_tot = np.sum((y - np.mean(y)) ** 2)
    assert 1.0 - ss_res / ss_tot > 0.999
    assert slope == pytest.approx(-sad.S.imag, rel=1e-9)


def test_caustic_proximity_error(ws_unit):
    sad = cl.ClassicalSaddle(kind=cl.SaddleKind.DIRECT, E=0.1, S=1.0,
                             vv=2e6 + 0j, sqrt_vv=-1j * np.sqrt(2e6))
    with pytest.raises(ValidationError):
        wkb_propagator(ws_unit, cl.BoundarySpec(-4.0, -7.0, 10.0), [sad])


def test_saddle_must_carry_its_branch():
    # the sum takes no square root of its own, so no saddle may omit sqrt_vv
    with pytest.raises(TypeError, match="sqrt_vv"):
        cl.ClassicalSaddle(kind=cl.SaddleKind.CAUSTIC, E=1.0, S=1.0,
                           vv=0.49 + 0j)


def test_branch_continuity_along_row(ws_steep):
    # WKB field continuous along x1 away from caustics and Stokes lines
    hbar = 0.25
    xs = np.linspace(-9.6, -8.6, 21)
    vals = []
    for x1 in xs:
        bvp = cl.BoundarySpec(-5.0, float(x1), 10.0)
        sads = cl.solve_real_paths(ws_steep, bvp)
        sads.append(cl.find_caustic_saddle(ws_steep, bvp))
        vals.append(wkb_propagator(ws_steep, bvp, sads, hbar))
    vals = np.array(vals)
    steps = np.abs(np.diff(vals))
    assert np.max(steps) < 6.0 * np.median(steps)


def test_fix_complex_saddle_phase_picks_better_branch(ws_steep):
    from dataclasses import replace
    hbar = 0.1
    bvp = cl.BoundarySpec(-5.0, -9.0, 10.0)
    g = propagate(replace(ws_steep, hbar=hbar), -5.0, -9.0, 10.0).G
    sads = cl.solve_real_paths(ws_steep, bvp)
    caus = cl.find_caustic_saddle(ws_steep, bvp)
    fixed = fix_complex_saddle_phase(ws_steep, bvp, sads + [caus], g, hbar)
    res_fixed = abs(g - wkb_propagator(ws_steep, bvp, fixed, hbar))
    flipped = fixed[:-1] + [fixed[-1].with_sqrt_vv(-fixed[-1].sqrt_vv)]
    res_flipped = abs(g - wkb_propagator(ws_steep, bvp, flipped, hbar))
    assert res_fixed <= res_flipped


@pytest.mark.parametrize("T, x0, x1", [(10.0, -4.0, -3.0), (10.0, -3.0, -2.5),
                                       (10.0, -1.6, -0.9), (5.0, -3.0, -0.6),
                                       (1.0, 1.0, 3.0), (2.0, -2.0, 2.0),
                                       (5.0, -6.0, 2.0)])
def test_real_saddle_wkb_matches_propagate(ws_unit, T, x0, x1):
    # each real path enters with its Maslov phase; a wrong index flips the
    # sign of its term, which leaves a residual of order one.  The last three
    # have only the direct path, with E > V0
    from dataclasses import replace
    hbar = 0.1
    bvp = cl.BoundarySpec(x0, x1, T)
    g = propagate(replace(ws_unit, hbar=hbar), x0, x1, T).G
    w = wkb_propagator(ws_unit, bvp, cl.solve_real_paths(ws_unit, bvp), hbar)
    assert abs(w - g) <= 0.1 * abs(g)
