"""Closed-form references that the tests compare stepprop against.

free_propagator is the free-particle kernel that the V0 = 0 propagator must
reduce to (acceptance criterion 5).  orthonormal_state is the
delta-normalized eigenbasis varphi^branch_k(x), assembled from the closed
eigenstates and normalization coefficients, with the phase of N^{+-} from
its displayed gamma ratio.
"""
import math

import numpy as np
from scipy.special import loggamma

from stepprop.eigenstates import _companion, ncc_analytic, norm_combos, phi_grid
from stepprop.potential import Family


def free_propagator(model, x0, x1, T):
    """Closed-form free propagator sqrt(m/(2 pi i hbar T)) e^{i m dx^2/(2 hbar T)}."""
    if T <= 0:
        return 0.0 + 0.0j
    m, h = model.m, model.hbar
    return complex(np.sqrt(m / (2j * math.pi * h * T))
                   * np.exp(1j * m * (x1 - x0) ** 2 / (2 * h * T)))


def npm_phase(model, k, p):
    """Deterministic phase N^{+-}/|N^{+-}| from the displayed gamma ratio."""
    if model.family is Family.HEAVISIDE:
        return 1.0 + 0.0j
    ah = model.alpha * model.hbar
    lg = (loggamma(1 - 1j * (k - p) / (2 * ah)) + loggamma(1 - 1j * p / ah)
          + loggamma(1 + 1j * (k + p) / (2 * ah))
          - loggamma(1 + 1j * (k - p) / (2 * ah)) - loggamma(1 + 1j * p / ah)
          - loggamma(1 - 1j * (k + p) / (2 * ah)))
    return complex(np.exp(lg))


def orthonormal_state(model, branch, k, x):
    """Delta-normalized eigenstate varphi^branch_k(x) for real k."""
    q = _companion(model, branch, k)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if branch == "c":
        ncc = float(np.real(ncc_analytic(model, k, q)))
        out = phi_grid(model, "c", k, q, xs)[0] / math.sqrt(model.hbar * ncc)
    else:
        eta = npm_phase(model, k, q)
        cp, cm = norm_combos(model, k, q)
        combo = cp if branch == "plus" else cm
        sgn = 1.0 if branch == "plus" else -1.0
        vals_p = phi_grid(model, "plus", k, q, xs)[0]
        vals_m = phi_grid(model, "minus", k, q, xs)[0]
        out = (vals_p + sgn * eta * vals_m) / np.sqrt(2.0 * model.hbar * np.real(combo))
    if np.isscalar(x) or np.asarray(x).shape == ():
        return complex(out[0])
    return out
