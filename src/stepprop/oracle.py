"""Independent Crank-Nicolson solver for the time-dependent Schrodinger
equation, used to validate the spectral propagator.

One step advances psi by the Cayley form

    (1 + i dt H / (2 hbar)) psi' = (1 - i dt H / (2 hbar)) psi,

with H the three-point Laplacian plus the real potential on a closed box.
The step is exactly unitary up to roundoff and second-order accurate in dt
and dx.

The tridiagonal Cayley matrix on the left is the same at every step, so it
is LU-factored once (LAPACK zgttrf, partial pivoting) and each step is one
zgttrs solve against that factorization.  Both are imported in evolve_packet
so that import stepprop loads scipy.special alone (test_public_surface
checks it).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarseError, NonFiniteError, ValidationError
from .potential import StepModel, potential_value

__all__ = ["GridSpec", "gaussian_packet", "evolve_packet", "norm_l2"]

#: Crank-Nicolson steps one evolve_packet call may take; more raise
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class GridSpec:
    x_min: float
    x_max: float
    n_x: int = 4096
    dt: float = 0.005

    def __post_init__(self):
        if not (self.x_min < self.x_max
                and math.isfinite(self.x_max - self.x_min)):
            raise ValidationError("grid needs x_min < x_max, a finite width")
        if self.n_x < 1024:
            raise ValidationError("grid needs at least 1024 points")
        if not (0 < self.dt < math.inf):
            raise ValidationError("time step must be finite and positive")

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


def evolve_packet(model: StepModel, psi0, grid: GridSpec, T: float,
                  k_content: float | None = None):
    """Evolve psi0 (sampled on grid.xs()) to time T in max(round(T / dt), 1)
    equal steps, 0 <= T <= MAX_STEPS dt; T = 0 returns a copy of psi0.

    k_content, when given, is checked against the grid Nyquist momentum
    pi hbar n_x / (x_max - x_min).  A non-finite result raises
    NonFiniteError."""
    psi = np.asarray(psi0, dtype=complex).copy()
    if psi.size != grid.n_x:
        raise ValidationError("psi0 must be sampled on the grid")
    if not (math.isfinite(T) and 0 <= T <= MAX_STEPS * grid.dt):
        raise ValidationError(f"evolution time must be finite, >= 0 and at "
                              f"most {MAX_STEPS} steps of dt, got {T!r}")
    from scipy.linalg.lapack import zgttrf, zgttrs
    h, m = model.hbar, model.m
    dx = grid.dx
    if k_content is not None:
        k_nyq = math.pi * h / dx
        if k_content > 0.9 * k_nyq:
            raise GridTooCoarseError(
                f"momentum content {k_content:.3g} exceeds 0.9 x Nyquist {k_nyq:.3g}")
    v = potential_value(model, grid.xs())
    kin = h * h / (2.0 * m * dx * dx)
    n_steps = max(int(round(T / grid.dt)), 1 if T > 0 else 0)
    dt = T / max(n_steps, 1)
    lam = 1j * dt / (2.0 * h)
    off = -lam * kin * np.ones(grid.n_x - 1)
    dl, d, du, du2, ipiv, info = zgttrf(off, 1.0 + lam * (2.0 * kin + v), off)
    if info != 0:
        raise NonFiniteError(f"Crank-Nicolson matrix is singular "
                             f"(zgttrf info {info})")
    diag_b = 1.0 - lam * (2.0 * kin + v)
    off_b = lam * kin
    for _ in range(n_steps):
        rhs = diag_b * psi
        rhs[:-1] += off_b * psi[1:]
        rhs[1:] += off_b * psi[:-1]
        psi, _ = zgttrs(dl, d, du, du2, ipiv, rhs)
    # a non-finite value at any step propagates to the last
    if not np.all(np.isfinite(psi)):
        raise NonFiniteError("non-finite amplitude in Crank-Nicolson evolution")
    return psi
