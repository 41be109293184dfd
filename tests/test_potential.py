import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from stepprop.errors import (PotentialPoleError, UnsupportedFamilyError,
                             ValidationError)
from stepprop.potential import (POLE_GUARD, Family, StepModel,
                                pole_distance,
                                potential_derivatives, potential_value,
                                rescale, singularity_locations)
from stepprop.propagator import propagate


def test_ws_symmetry_point_and_asymptotes(ws_unit):
    assert potential_value(ws_unit, 0.0) == pytest.approx(0.5)
    assert potential_value(ws_unit, -40.0) == pytest.approx(0.0, abs=1e-30)
    assert potential_value(ws_unit, 40.0) == pytest.approx(1.0)


def test_heaviside_theta_convention(heaviside_unit):
    assert potential_value(heaviside_unit, -1.0) == 0.0
    assert potential_value(heaviside_unit, 1.0) == 1.0
    assert potential_value(heaviside_unit, 0.0) == 0.5


def test_pole_guard(ws_unit):
    with pytest.raises(PotentialPoleError):
        potential_value(ws_unit, 1j * math.pi / 2 * (1 - 1e-9))
    # off the pole it evaluates
    v = potential_value(ws_unit, 0.3 + 1j * 0.6)
    assert np.isfinite(v)


def test_singularity_locations(ws_unit):
    locs = singularity_locations(ws_unit, (0, 0))
    assert locs[0] == pytest.approx(1j * math.pi / 2)
    assert singularity_locations(ws_unit, (-1, -1))[0] == pytest.approx(-1j * math.pi / 2)
    md = StepModel(Family.WOODS_SAXON, alpha=5.0)
    assert singularity_locations(md, (0, 0))[0] == pytest.approx(1j * math.pi / 10)
    with pytest.raises(UnsupportedFamilyError):
        singularity_locations(StepModel(Family.HEAVISIDE), (0, 1))


def test_analyticity_cauchy_riemann(ws_unit, rng):
    h = 1e-5
    for _ in range(20):
        z = complex(rng.uniform(-2, 2), rng.uniform(-1.2, 1.2))
        dx = (potential_value(ws_unit, z + h) - potential_value(ws_unit, z - h)) / (2 * h)
        dy = (potential_value(ws_unit, z + 1j * h) - potential_value(ws_unit, z - 1j * h)) / (2 * h)
        # complex differentiability: directional derivatives agree
        assert abs(dx - dy / 1j) < 1e-6 * max(1.0, abs(dx))


def test_ws_to_heaviside_pointwise():
    md = StepModel(Family.WOODS_SAXON, alpha=50.0)
    hv = StepModel(Family.HEAVISIDE)
    for x in (-0.5, -0.2, 0.2, 0.5, 1.5):
        if x < 0:
            gap = abs(potential_value(md, x) - potential_value(hv, x))
        else:
            # V_h = V0 there, and V(x) - V0 = -V(-x) on the smooth step:
            # the gap without the cancellation in V - V0
            assert abs(potential_value(md, x) - md.V0
                       + potential_value(md, -x)) <= 2.3e-16 * md.V0
            gap = abs(potential_value(md, -x))
        assert gap <= math.exp(-2 * 50.0 * abs(x)) * md.V0 * (1 + 1e-12)


def test_derivative_closed_forms(ws_unit):
    h = 1e-6
    for x in (-1.0, 0.0, 0.7):
        v, vp, vpp = potential_derivatives(ws_unit, x)
        fd1 = (potential_value(ws_unit, x + h) - potential_value(ws_unit, x - h)) / (2 * h)
        assert vp == pytest.approx(fd1, rel=1e-8, abs=1e-10)


def test_rescale_identity_and_mapping(ws_unit):
    same, x0, x1, T = rescale(ws_unit, -4.0, -6.0, 10.0, 1.0)
    assert same == ws_unit and (x0, x1, T) == (-4.0, -6.0, 10.0)
    scaled, x0, x1, T = rescale(ws_unit, -4.0, -6.0, 10.0, 2.0)
    assert scaled.alpha == 2.0 and scaled.hbar == 0.5
    assert (x0, x1, T) == (-2.0, -3.0, 5.0)
    with pytest.raises(ValidationError):
        rescale(ws_unit, 0, 0, 1, -1.0)


def test_rescale_preserves_propagator(ws_unit):
    # the amplitude carries the delta-normalization Jacobian C under x -> x/C
    for C in (2.0, 3.0):
        scaled, x0, x1, T = rescale(ws_unit, -4.0, -6.0, 10.0, C)
        g1 = propagate(ws_unit, -4.0, -6.0, 10.0).G
        g2 = propagate(scaled, x0, x1, T).G
        assert abs(g1 - g2 / C) < 1e-6


def test_model_json_roundtrip_and_validation():
    cfg = {"family": "woods_saxon", "m": 1.0, "V0": 2.0, "alpha": 3.0, "hbar": 0.5}
    md = StepModel.from_dict(cfg)
    assert md.to_dict() == cfg
    with pytest.raises(ValidationError):
        StepModel.from_dict({**cfg, "spurious": 1})
    with pytest.raises(ValidationError):
        StepModel.from_dict({"family": "nonsense"})
    with pytest.raises(ValidationError):
        StepModel(Family.WOODS_SAXON, m=-1.0)
    # V0 = 0 is the free-particle degenerate case and is allowed
    assert StepModel(Family.WOODS_SAXON, V0=0.0).V0 == 0.0


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("key,value", [
    ("V0", math.nan), ("V0", math.inf), ("m", math.inf), ("m", math.nan),
    ("alpha", math.inf), ("alpha", math.nan), ("hbar", math.inf)])
def test_model_rejects_non_finite_parameters(family, key, value):
    # a NaN V0 once gave |R|^2 = 1 and |T|^2 = 0 at every k
    with pytest.raises(ValidationError, match="finite"):
        StepModel(family, **{key: value})
    with pytest.raises(ValidationError, match="finite"):
        StepModel.from_dict({"family": family.value, key: str(value)})


# -- the scalar path against the numpy path ---------------------------------

SCALAR_MODELS = {
    "ws1": StepModel(Family.WOODS_SAXON, V0=1.5, alpha=1.0),
    "ws5": StepModel(Family.WOODS_SAXON, V0=1.5, alpha=5.0),
    "ws50": StepModel(Family.WOODS_SAXON, V0=1.5, alpha=50.0),
    "heaviside": StepModel(Family.HEAVISIDE, V0=1.5),
}


def _on_array(f, md, x):
    """f on the one-element array [x], unpacked: the numpy path."""
    out = f(md, np.array([x]))
    return tuple(o[0] for o in out) if isinstance(out, tuple) else out[0]


def _check_scalar_path(md, x):
    """Scalar results are Python scalars equal to the numpy path's.

    V is bit-identical: a real x takes numpy's exp on one
    float, which runs the array kernel, and a complex x takes the array
    path itself.  On a real x so are V' and V''.  On a complex x, V' and
    V'' are formed from V in Python's complex arithmetic, whose quotients
    round differently from numpy's, and the closed forms V' = 2 alpha V
    (1 - V/V0), V'' = 2 alpha V' (1 - 2V/V0) cancel near V = V0 and
    V = V0/2: they agree to 1e-15 of the size (2 alpha)^k |V|
    (1 + 2|V/V0|)^k of their terms."""
    ws = md.family is Family.WOODS_SAXON
    kind = complex if ws and isinstance(x, complex) else float
    got, want = potential_value(md, x), _on_array(potential_value, md, x)
    assert type(got) is kind
    assert got == want
    if not ws:
        return
    got, want = potential_derivatives(md, x), _on_array(
        potential_derivatives, md, x)
    assert all(type(g) is kind for g in got)
    if kind is float:
        assert got == want
        return
    v = got[0]
    q = abs(v / md.V0)
    for k, (g, w) in enumerate(zip(got, want)):
        tol = 1e-15 * (2.0 * md.alpha) ** k * abs(v) * (1.0 + 2.0 * q) ** k
        assert abs(g - w) <= (tol if k else 0.0)


@pytest.mark.parametrize("name", sorted(SCALAR_MODELS))
@given(x=st.floats(-40.0, 40.0))
@example(x=0.0)
@example(x=-40.0)
@settings(max_examples=300, deadline=None)
def test_scalar_path_matches_array_path_real(name, x):
    md = SCALAR_MODELS[name]
    _check_scalar_path(md, x)
    _check_scalar_path(md, np.float64(x))
    # the real axis of the complex plane, including Heaviside
    _check_scalar_path(md, complex(x, 0.0))


@pytest.mark.parametrize("name", ["ws1", "ws5", "ws50"])
@given(re=st.floats(-40.0, 40.0), im=st.floats(-40.0, 40.0))
@example(re=3 * POLE_GUARD, im=math.pi / 2)
@example(re=0.0, im=0.3)
@settings(max_examples=300, deadline=None)
def test_scalar_path_matches_array_path_complex(name, re, im):
    md = SCALAR_MODELS[name]
    # the examples are in units of 1/alpha, like the pole lattice
    x = complex(re, im) / md.alpha
    assume(pole_distance(md, np.array([x]))[0] >= 2 * POLE_GUARD / md.alpha)
    _check_scalar_path(md, x)
    _check_scalar_path(md, np.complex128(x))


@pytest.mark.parametrize("name", sorted(SCALAR_MODELS))
@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan,
                               complex(math.inf, 0.0), complex(math.nan, 0.0),
                               complex(0.0, math.inf)])
def test_scalar_path_non_finite_like_array_path(name, x):
    md = SCALAR_MODELS[name]
    fs = [potential_value]
    if md.family is Family.WOODS_SAXON:
        fs.append(potential_derivatives)
    for f in fs:
        with np.errstate(invalid="ignore", over="ignore"):
            try:
                want = _on_array(f, md, x)
            except UnsupportedFamilyError:
                with pytest.raises(UnsupportedFamilyError):
                    f(md, x)
                continue
            np.testing.assert_equal(f(md, x), want)


@pytest.mark.parametrize("alpha", [1.0, 5.0, 50.0])
@pytest.mark.parametrize("n", [0, -2])
@pytest.mark.parametrize("direction", [1.0, -1j, cmath.exp(0.25j * math.pi)])
def test_scalar_pole_guard_matches_array_path(alpha, n, direction):
    md = StepModel(Family.WOODS_SAXON, V0=1.5, alpha=alpha)
    pole = singularity_locations(md, (n, n))[0]
    inside = pole + 0.5 * POLE_GUARD / alpha * direction
    for x in (inside, np.complex128(inside), np.array([inside])):
        for f in (potential_value, potential_derivatives):
            with pytest.raises(PotentialPoleError):
                f(md, x)
    outside = pole + 2.0 * POLE_GUARD / alpha * direction
    assert cmath.isfinite(potential_value(md, outside))
    _check_scalar_path(md, outside)


def test_heaviside_complex_scalar_on_the_real_axis_only(heaviside_unit):
    assert potential_value(heaviside_unit, 1 + 0j) == 1.0
    assert potential_value(heaviside_unit, np.complex128(-1 + 0j)) == 0.0
    for x in (1 + 1j, np.complex128(1 + 1j), np.array([1 + 1j])):
        with pytest.raises(UnsupportedFamilyError):
            potential_value(heaviside_unit, x)


def test_scalar_inputs_return_python_scalars(ws_steep, heaviside_unit):
    for md in (ws_steep, heaviside_unit):
        for x in (2, -0.3, np.float64(-0.3)):
            assert type(potential_value(md, x)) is float
    for x in (-0.3 + 0.1j, np.complex128(-0.3 + 0.1j)):
        assert type(potential_value(ws_steep, x)) is complex
    # a 0-d array still leaves as a Python scalar, as before
    assert type(potential_value(ws_steep, np.array(-0.3))) is float


def test_derivatives_at_zero_step_height_keep_the_input_kind():
    free = StepModel(Family.WOODS_SAXON, V0=0.0)
    out = potential_derivatives(free, 0.3)
    assert out == (0.0, 0.0, 0.0) and {type(d) for d in out} == {float}
    out = potential_derivatives(free, 0.3 + 0.2j)
    assert out == (0j, 0j, 0j) and {type(d) for d in out} == {complex}
    for xs in (np.linspace(-1.0, 1.0, 3), np.linspace(-1.0, 1.0, 3) + 0.1j):
        for d in potential_derivatives(free, xs):
            assert d.shape == xs.shape and d.dtype == xs.dtype
            assert not d.any()
