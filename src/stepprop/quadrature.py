"""Adaptive panel quadrature for complex-valued integrands.

Panels carry a 15-point Gauss-Legendre rule; a panel is accepted when the
parent value agrees with the sum of its two children, which doubles as the
error estimate.  The integrand is evaluated in batches (all nodes of all
pending panels at once) so that vectorized special-function evaluation is
amortized across the whole refinement front.

One call may integrate several intervals and several integrand columns.
Each (interval, column) pair keeps its own panel tree, tolerance scale,
acceptance and panel budget, exactly as a one-interval, one-column call
would; only the node evaluation is shared, one f call per level covering
every panel that any pair still refines.
"""
from __future__ import annotations

import numpy as np

from .errors import QuadratureError

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(15)
_CWEIGHTS = _WEIGHTS.astype(complex)
#: accepted plus pending panels one (interval, column) pair may hold;
#: exceeding it raises QuadratureError
MAX_PANELS = 20_000


def _panel_values(f, los, his):
    """The (panel, column) integrals of f on the GL nodes of every (lo, hi)
    panel, evaluated in one batch."""
    mids = 0.5 * (los + his)
    half = 0.5 * (his - los)
    xs = (mids[:, None] + half[:, None] * _NODES[None, :]).ravel()
    vals = np.asarray(f(xs), dtype=complex).reshape(los.size, _NODES.size, -1)
    return half[:, None] * np.matmul(_CWEIGHTS, vals)


def _halves(lo, hi):
    """Interleaved children (lo, mid), (mid, hi) of every panel."""
    mid = 0.5 * (lo + hi)
    c_lo = np.empty(2 * lo.size)
    c_hi = np.empty(2 * lo.size)
    c_lo[0::2], c_lo[1::2] = lo, mid
    c_hi[0::2], c_hi[1::2] = mid, hi
    return c_lo, c_hi


def integrate_adaptive(f, a, b, abs_tol: float = 1e-9,
                       rel_tol: float = 1e-8):
    """Integrate complex-valued f over [a, b].

    f maps a real node array of shape (n,) to complex values of shape
    (n, m) (m integrand columns; shape (n,) is one column); any complex
    path is the caller's parametrization.  a and b are floats or
    equal-length 1-D arrays of interval ends.  Returns (value,
    error_estimate, n_evals): value and error have shape a.shape + (m,),
    and n_evals counts the shared integrand nodes.  A pair whose panels
    outgrow MAX_PANELS raises QuadratureError.
    """
    a_arr, b_arr = np.atleast_1d(np.asarray(a, float), np.asarray(b, float))
    width = b_arr - a_arr
    owner = np.flatnonzero(width != 0)            # interval of each panel
    los, his = a_arr[owner], b_arr[owner]
    parent_vals = np.zeros((0, 1), dtype=complex)
    if owner.size:
        parent_vals = _panel_values(f, los, his)
    n_evals = owner.size * _NODES.size
    n_col = parent_vals.shape[1]
    total = np.zeros((a_arr.size, n_col), dtype=complex)
    err = np.zeros((a_arr.size, n_col))
    n_accepted = np.zeros((a_arr.size, n_col), dtype=np.int64)
    live = np.ones((owner.size, n_col), dtype=bool)  # pairs still refining
    while owner.size:
        # a pair's pending panels never outnumber the front
        if owner.size + n_accepted.max() > MAX_PANELS:
            pending = np.zeros(total.shape, dtype=np.int64)
            np.add.at(pending, owner, live)
            over = n_accepted + pending > MAX_PANELS
            if np.any(over):
                i = int(np.argwhere(over)[0, 0])
                raise QuadratureError(
                    f"panel budget {MAX_PANELS} exhausted "
                    f"(interval [{a_arr[i]}, {b_arr[i]}])")
        c_lo, c_hi = _halves(los, his)
        child_vals = _panel_values(f, c_lo, c_hi)
        n_evals += c_lo.size * _NODES.size
        left, right = child_vals[0::2], child_vals[1::2]
        # tolerance scale of each pair: max(|total|, sum |child|) over the
        # pair's own live panels
        scale = np.zeros(total.shape)
        np.add.at(scale, owner,
                  np.where(live, np.abs(left) + np.abs(right), 0.0))
        scale = np.maximum(np.abs(total), scale)[owner]
        pair = left + right
        delta = np.abs(parent_vals - pair)
        tol = np.maximum(abs_tol, rel_tol * np.maximum(scale, np.abs(pair)))
        narrow = (his - los) < 1e-14 * width[owner]
        accept = live & ((delta <= tol) | narrow[:, None])
        # np.add.at sums in panel order, as a sequential loop would; a
        # pair's values on panels it does not refine are never read
        np.add.at(total, owner, np.where(accept, pair, 0.0))
        np.add.at(err, owner, np.where(accept, delta, 0.0))
        np.add.at(n_accepted, owner, accept)
        live &= ~accept
        keep = np.repeat(np.any(live, axis=1), 2)
        los, his = c_lo[keep], c_hi[keep]
        owner = np.repeat(owner, 2)[keep]
        live = np.repeat(live, 2, axis=0)[keep]
        parent_vals = child_vals[keep]
    shape = np.shape(a) + (n_col,)
    return total.reshape(shape), err.reshape(shape), n_evals
