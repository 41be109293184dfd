"""Independent Crank-Nicolson solver for the time-dependent Schrodinger
equation, used to validate the spectral propagator.

One step advances psi by the Cayley form

    (1 + i dt H / (2 hbar)) psi' = (1 - i dt H / (2 hbar)) psi,

with H the three-point Laplacian plus the (real) potential and an optional
negative imaginary absorbing ramp near both edges.  Without absorption the
step is exactly unitary up to roundoff and second-order accurate in dt and dx.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import GridTooCoarseError, ValidationError
from .potential import StepModel, potential_value

__all__ = ["GridSpec", "gaussian_packet", "evolve_packet", "norm_l2"]


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    n_x: int = 4096
    dt: float = 0.005
    absorbing_width: float = 0.0

    def __post_init__(self):
        if not (self.x_min < self.x_max):
            raise ValidationError("grid needs x_min < x_max")
        if self.n_x < 1024:
            raise ValidationError("grid needs at least 1024 points")
        if not (self.dt > 0):
            raise ValidationError("time step must be positive")

    def xs(self):
        return np.linspace(self.x_min, self.x_max, self.n_x)

    @property
    def dx(self):
        return (self.x_max - self.x_min) / (self.n_x - 1)


def gaussian_packet(xs, center: float, sigma: float, k_mean: float,
                    hbar: float = 1.0):
    """Normalized Gaussian e^{-(x-c)^2/(4 sigma^2)} e^{i k x / hbar}."""
    xs = np.asarray(xs, dtype=float)
    psi = np.exp(-(xs - center) ** 2 / (4.0 * sigma ** 2)
                 + 1j * k_mean * xs / hbar)
    return psi / math.sqrt(float(np.trapezoid(np.abs(psi) ** 2, xs)))


def norm_l2(psi, xs):
    return math.sqrt(float(np.trapezoid(np.abs(np.asarray(psi)) ** 2, xs)))


def _absorber(grid: GridSpec):
    xs = grid.xs()
    w = grid.absorbing_width
    if w <= 0:
        return np.zeros(grid.n_x)
    ramp = np.zeros(grid.n_x)
    left = xs < grid.x_min + w
    right = xs > grid.x_max - w
    ramp[left] = ((grid.x_min + w - xs[left]) / w) ** 4
    ramp[right] = ((xs[right] - (grid.x_max - w)) / w) ** 4
    return ramp


def evolve_packet(model: StepModel, psi0, grid: GridSpec, T: float,
                  k_content: float | None = None):
    """Evolve psi0 (sampled on grid.xs()) to time T.

    k_content, when given, is checked against the grid Nyquist momentum
    pi hbar n_x / (x_max - x_min)."""
    psi = np.asarray(psi0, dtype=complex).copy()
    if psi.size != grid.n_x:
        raise ValidationError("psi0 must be sampled on the grid")
    h, m = model.hbar, model.m
    dx = grid.dx
    if k_content is not None:
        k_nyq = math.pi * h / dx
        if k_content > 0.9 * k_nyq:
            raise GridTooCoarseError(
                f"momentum content {k_content:.3g} exceeds 0.9 x Nyquist {k_nyq:.3g}")
    xs = grid.xs()
    v = potential_value(model, xs) - 1j * _absorber(grid)
    kin = h * h / (2.0 * m * dx * dx)
    n_steps = int(round(T / grid.dt))
    dt = T / max(n_steps, 1)
    lam = 1j * dt / (2.0 * h)
    diag = 1.0 + lam * (2.0 * kin + v)
    off = -lam * kin * np.ones(grid.n_x - 1)
    ab = np.zeros((3, grid.n_x), dtype=complex)
    ab[0, 1:] = off
    ab[1, :] = diag
    ab[2, :-1] = off
    diag_b = 1.0 - lam * (2.0 * kin + v)
    off_b = lam * kin
    for _ in range(n_steps):
        rhs = diag_b * psi
        rhs[:-1] += off_b * psi[1:]
        rhs[1:] += off_b * psi[:-1]
        psi = solve_banded((1, 1), ab, rhs)
    return psi
