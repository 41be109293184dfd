import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from stepprop.errors import GridTooCoarseError, NonFiniteError, ValidationError
from stepprop.oracle import (MAX_STEPS, GridSpec, evolve_packet,
                             gaussian_packet, norm_l2)
from stepprop.potential import potential_value
from stepprop.potential import Family, StepModel
from stepprop import eigenstates as eig


def _free_gaussian(xs, t, center, sigma, k_mean, hbar=1.0, m=1.0):
    """Analytic spreading Gaussian for the free particle."""
    a = sigma * sigma + 1j * hbar * t / (2 * m)
    pref = (2 * math.pi * sigma ** 2) ** 0.25 / np.sqrt(2 * math.pi * a)
    xc = xs - center - k_mean * t / m
    phase = np.exp(1j * (k_mean * xs - 0.5 * k_mean ** 2 * t) / hbar)
    return pref * np.exp(-xc ** 2 / (4 * a)) * phase


def test_free_gaussian_evolution_matches_closed_form():
    md = StepModel(Family.HEAVISIDE, 1, 0.0, 1, 1)
    grid = GridSpec(-60.0, 40.0, n_x=8192, dt=0.002)
    xs = grid.xs()
    psi0 = gaussian_packet(xs, center=-15.0, sigma=2.0, k_mean=1.0)
    psi = evolve_packet(md, psi0, grid, T=6.0)
    ref = _free_gaussian(xs, 6.0, -15.0, 2.0, 1.0)
    err = norm_l2(psi - ref, xs)
    assert err < 1e-4


def test_unitarity_without_absorber(ws_unit):
    grid = GridSpec(-50.0, 30.0, n_x=4096, dt=0.01)
    xs = grid.xs()
    psi0 = gaussian_packet(xs, center=-15.0, sigma=1.5, k_mean=1.2)
    psi = evolve_packet(ws_unit, psi0, grid, T=5.0)
    n_steps = 5.0 / grid.dt
    assert abs(norm_l2(psi, xs) - 1.0) < 1e-8 * n_steps


def test_second_order_convergence_in_dt(ws_unit):
    grid_c = GridSpec(-40.0, 20.0, n_x=4096, dt=0.04)
    xs = grid_c.xs()
    psi0 = gaussian_packet(xs, center=-12.0, sigma=1.5, k_mean=1.2)
    outs = {}
    for dt in (0.04, 0.02, 0.01):
        grid = GridSpec(-40.0, 20.0, n_x=4096, dt=dt)
        outs[dt] = evolve_packet(ws_unit, psi0, grid, T=4.0)
    # consecutive-level Richardson ratio -> 4 for a second-order scheme
    e1 = norm_l2(outs[0.04] - outs[0.02], xs)
    e2 = norm_l2(outs[0.02] - outs[0.01], xs)
    assert 3.5 < e1 / e2 < 4.5


def test_second_order_convergence_in_dx(ws_unit):
    def solve(n_x):
        grid = GridSpec(-40.0, 20.0, n_x=n_x, dt=0.004)
        xs = grid.xs()
        psi0 = gaussian_packet(xs, center=-12.0, sigma=1.5, k_mean=1.2)
        return xs, evolve_packet(ws_unit, psi0, grid, T=3.0)

    xs1, p1 = solve(2049)
    xs2, p2 = solve(4097)
    xs3, p3 = solve(8193)
    # consecutive-level Richardson ratio -> 4 for the 3-point Laplacian
    e1 = norm_l2(p1 - p2[::2], xs1)
    e2 = norm_l2(p2 - p3[::2], xs2)
    assert 3.5 < e1 / e2 < 4.5


def test_grid_too_coarse_guard(ws_unit):
    grid = GridSpec(-60.0, 60.0, n_x=1024, dt=0.01)
    xs = grid.xs()
    psi0 = gaussian_packet(xs, center=-15.0, sigma=1.0, k_mean=2.0)
    with pytest.raises(GridTooCoarseError):
        evolve_packet(ws_unit, psi0, grid, T=1.0, k_content=30.0)


def _cn_solve_banded(model, psi0, grid, T):
    """Crank-Nicolson by one banded solve per step, refactoring each time."""
    h, m, dx = model.hbar, model.m, grid.dx
    v = potential_value(model, grid.xs())
    kin = h * h / (2.0 * m * dx * dx)
    n_steps = int(round(T / grid.dt))
    lam = 1j * (T / n_steps) / (2.0 * h)
    ab = np.zeros((3, grid.n_x), dtype=complex)
    ab[0, 1:] = ab[2, :-1] = -lam * kin
    ab[1, :] = 1.0 + lam * (2.0 * kin + v)
    psi = np.asarray(psi0, dtype=complex)
    for _ in range(n_steps):
        rhs = (1.0 - lam * (2.0 * kin + v)) * psi
        rhs[:-1] += lam * kin * psi[1:]
        rhs[1:] += lam * kin * psi[:-1]
        psi = solve_banded((1, 1), ab, rhs)
    return psi


def test_factored_step_matches_banded_solve(ws_unit):
    grid = GridSpec(-30.0, 20.0, n_x=1024, dt=0.01)
    psi0 = gaussian_packet(grid.xs(), center=-8.0, sigma=1.5, k_mean=1.2)
    psi = evolve_packet(ws_unit, psi0, grid, T=1.0)
    assert np.array_equal(psi, _cn_solve_banded(ws_unit, psi0, grid, 1.0))


@pytest.mark.parametrize("T", [-1.0, -1e-300, math.nan, math.inf])
def test_negative_or_non_finite_time_raises(ws_unit, T):
    grid = GridSpec(-30.0, 20.0, n_x=1024, dt=0.005)
    psi0 = gaussian_packet(grid.xs(), center=-8.0, sigma=1.5, k_mean=1.2)
    with pytest.raises(ValidationError):
        evolve_packet(ws_unit, psi0, grid, T)


@pytest.mark.parametrize("T, dt", [(1e300, 0.005), (1e10, 1e-300),
                                   (1.001 * MAX_STEPS * 0.005, 0.005)])
def test_step_count_beyond_max_steps_raises(ws_unit, T, dt):
    # checked before any step: T = 1e300 would otherwise run without end,
    # and T / dt = inf would overflow the step count
    grid = GridSpec(-30.0, 20.0, n_x=1024, dt=dt)
    psi0 = gaussian_packet(grid.xs(), center=-8.0, sigma=1.5, k_mean=1.2)
    with pytest.raises(ValidationError, match="steps of dt"):
        evolve_packet(ws_unit, psi0, grid, T)


@pytest.mark.parametrize("bad", [
    {"x_min": -math.inf}, {"x_min": math.nan}, {"x_max": math.inf},
    {"x_max": math.nan}, {"x_min": -1e308, "x_max": 1e308},
    {"dt": math.inf}, {"dt": math.nan}],
    ids=["x_min_inf", "x_min_nan", "x_max_inf", "x_max_nan", "width_inf",
         "dt_inf", "dt_nan"])
def test_grid_rejects_non_finite_settings(bad):
    # width_inf: both ends are finite, but x_max - x_min overflows
    settings = {"x_min": -30.0, "x_max": 20.0, "n_x": 1024, "dt": 0.005}
    with pytest.raises(ValidationError, match="finite"):
        GridSpec(**{**settings, **bad})


def test_time_below_half_step_takes_one_step(ws_unit):
    # round(T / dt) = 0 here; the packet still moves, by one step of T
    grid = GridSpec(-30.0, 20.0, n_x=1024, dt=0.005)
    psi0 = gaussian_packet(grid.xs(), center=-8.0, sigma=1.5, k_mean=1.2)
    psi = evolve_packet(ws_unit, psi0, grid, T=0.002)
    one_step = GridSpec(-30.0, 20.0, n_x=1024, dt=0.002)
    assert np.array_equal(psi, evolve_packet(ws_unit, psi0, one_step, 0.002))
    assert norm_l2(psi - psi0, grid.xs()) > 1e-4
    still = evolve_packet(ws_unit, psi0, grid, T=0.0)
    assert np.array_equal(still, psi0) and still is not psi0


@pytest.mark.parametrize("width, center, sigma", [
    (50.0, -8.0, 0.0), (50.0, -8.0, -1.0), (50.0, -8.0, math.nan),
    (50.0, -8.0, math.inf), (50.0, 1e6, 1.0), (2e300, -8.0, 1e299)],
    ids=["sigma_0", "sigma_negative", "sigma_nan", "sigma_inf",
         "packet_off_the_grid", "squares_overflow"])
def test_gaussian_packet_refuses_a_packet_without_a_norm(width, center,
                                                          sigma):
    # checked before the division: no nan packet and no warning
    xs = np.linspace(-width / 2, width / 2, 1024)
    with pytest.raises(ValidationError):
        gaussian_packet(xs, center=center, sigma=sigma, k_mean=1.0)


def test_non_finite_packet_raises(ws_unit):
    grid = GridSpec(-30.0, 20.0, n_x=1024, dt=0.01)
    psi0 = gaussian_packet(grid.xs(), center=-8.0, sigma=1.5, k_mean=1.2)
    psi0[500] = np.nan
    with pytest.raises(NonFiniteError):
        evolve_packet(ws_unit, psi0, grid, T=0.5)


@pytest.mark.slow
def test_reflected_fraction_matches_rates(ws_unit):
    # narrow-momentum packet: reflected probability ~ int |psi0_hat|^2 |R|^2
    k_mean, sigma = 1.8, 6.0
    grid = GridSpec(-140.0, 100.0, n_x=16384, dt=0.01)
    xs = grid.xs()
    psi0 = gaussian_packet(xs, center=-40.0, sigma=sigma, k_mean=k_mean)
    T = 45.0
    psi = evolve_packet(ws_unit, psi0, grid, T)
    refl = float(np.trapezoid(np.abs(psi[xs < 0]) ** 2, xs[xs < 0]))
    sigma_k = 1.0 / (2.0 * sigma)
    ks = np.linspace(k_mean - 6 * sigma_k, k_mean + 6 * sigma_k, 4001)
    weight = np.exp(-(ks - k_mean) ** 2 / (2 * sigma_k ** 2))
    weight /= np.trapezoid(weight, ks)
    r2, _ = eig.scatter_rates(ws_unit, ks)
    expected = float(np.trapezoid(weight * r2, ks))
    assert abs(refl - expected) < 1e-3
