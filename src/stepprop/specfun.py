"""Gauss hypergeometric function 2F1 for complex parameters.

The hypergeometric function is needed for complex parameters a, b, c and a
real argument z in [0, 1),

    2F1(a, b; c; z) = sum_n (a)_n (b)_n / ((c)_n n!) z^n .

Evaluation strategy
-------------------
Every value is a cell of one grid: parameter columns (n, 1) against an
argument row (1, m), a scalar argument being a one-point row.
:func:`hyp2f1_with_complement` splits the row at z = 1/2 and
:func:`hyp2f1_cols_rows` evaluates each side:

* z <= 1/2 : the power series.  Its term is P_n(col) z^n, so the sum is
  one matrix product of the coefficient columns with the powers of the
  row.  It stops after two consecutive terms whose bound over the grid,
  max_col |P_n| z_max^n, is at most SERIES_TOL / 2.
* z  > 1/2 : linear transformation z -> 1-z,

      2F1(a,b;c;z) = G(c)G(w)/(G(c-a)G(c-b)) 2F1(a,b;1-w;1-z)
                   + (1-z)^w G(c)G(-w)/(G(a)G(b)) 2F1(c-a,c-b;1+w;1-z),

  with w = c-a-b, both series summed as above at 1-z.  Where a column's w
  is within DEGENERATE_EPS of an integer m the two terms are individually
  singular, and that column takes the logarithmic connection formula for
  that m (DLMF 15.8.10; A&S 15.3.11, with Euler's transformation for
  m < 0), or the terminating series where a or b is 0, -1, -2, ...

Callers that know 1-z to better precision than 1 - float(z) (the
eigenstates do, since their argument is a logistic function of position)
pass it, and its logarithm, to :func:`hyp2f1_with_complement`.

Each parameter column of a series is checked for cancellation: the
estimate eps max_n |P_n| z_max^n / min_row |sum| above ``CANCEL_TOL``
raises instead of returning a degraded value.
"""
from __future__ import annotations

import numpy as np
from scipy import special as _sp

from .errors import GammaPoleError, SeriesConvergenceError

__all__ = ["hyp2f1_with_complement", "hyp2f1", "hyp2f1_cols_rows"]

#: termwise stopping tolerance of the power series
SERIES_TOL = 1e-14
#: iteration cap; exceeding it is an error, never a silent truncation
MAX_TERMS = 10_000
#: |c-a-b - nearest integer| below which the limiting (log) form is used
DEGENERATE_EPS = 1e-8
#: raise if estimated cancellation error exceeds this relative level
CANCEL_TOL = 1e-9


def _as_complex(*vals):
    return tuple(np.asarray(v, dtype=complex) for v in vals)


def _at_pole(v):
    """v at 0, -1, -2, ...: the poles of Gamma (v complex)."""
    return (v.imag == 0.0) & (v.real <= 0.0) & (v.real == np.round(v.real))


def _series(a, b, c, z):
    """Power series on parameter columns a, b, c (n, 1) x an argument row
    z (1, m), returned as the (n, m) grid.

    The term factorizes, term_n(col, row) = P_n(col) z_row^n, so the sum is
    a single matrix product P @ Z with P built by the coefficient recurrence
    and Z by a row power recurrence.  The sum stops after two consecutive
    terms whose bound max_col |P_n(col)| z_max^n is at most SERIES_TOL / 2.
    Each column is checked for cancellation at its smallest value against
    its largest term bound, max_n |P_n(col)| z_max^n.
    """
    a, b, c = (v.reshape(-1) for v in _as_complex(a, b, c))
    z = np.asarray(z, dtype=float).reshape(-1)
    z_max = float(np.max(z)) if z.size else 0.0
    coeffs = [np.ones(a.size, dtype=complex)]
    quiet = 0
    n = 0
    while n < MAX_TERMS:
        nxt = coeffs[-1] * (a + n) * (b + n) / ((c + n) * (n + 1.0))
        coeffs.append(nxt)
        n += 1
        bound = float(np.max(np.abs(nxt))) * z_max ** n
        if bound <= 0.5 * SERIES_TOL:
            quiet += 1
            if quiet >= 2:
                break
        else:
            quiet = 0
    else:
        raise SeriesConvergenceError(
            f"2F1 series did not converge within {MAX_TERMS} terms")
    P = np.stack(coeffs, axis=1)                     # (n_col, N+1)
    Z = np.empty((len(coeffs), z.size))              # (N+1, n_row)
    Z[0] = 1.0
    for j in range(1, len(coeffs)):
        Z[j] = Z[j - 1] * z
    out = P @ Z.astype(complex)
    # per-cell estimate eps * peak / |value|, largest at each column's
    # smallest value
    peak = np.max(np.abs(P) * z_max ** np.arange(len(coeffs)), axis=1)
    smallest = np.min(np.abs(out), axis=1, initial=np.inf)
    est = np.finfo(float).eps * peak / (smallest + 1e-300)
    if np.any(est > CANCEL_TOL):
        raise SeriesConvergenceError(
            "2F1 series lost too many digits to cancellation "
            f"(estimated relative error {float(np.max(est)):.2e})")
    return out


def _gamma_ratio(num, den):
    """exp(sum loggamma(num) - sum loggamma(den)); 0 when a denominator
    argument sits at a pole (reciprocal-gamma convention)."""
    num = [np.asarray(v, dtype=complex) for v in num]
    den = [np.asarray(v, dtype=complex) for v in den]
    shape = np.broadcast_shapes(*(v.shape for v in num + den))
    acc = np.zeros(shape, dtype=complex)
    for v in num:
        acc = acc + _sp.loggamma(v)
    kill = np.zeros(shape, dtype=bool)
    for v in den:
        pole = _at_pole(v)
        kill = kill | np.broadcast_to(pole, shape)
        acc = acc - np.where(pole, 0.0, _sp.loggamma(np.where(pole, 1.0, v)))
    out = np.exp(acc)
    return np.where(kill, 0.0, out)


def _transformed(a, b, c, zc, lzc, connection=None):
    """z > 1/2 branch via the z -> 1-z connection formula on parameter
    columns and the row zc = 1-z, lzc = log(zc).  ``connection`` is
    (w, g1, g2) when the caller has the gamma factors."""
    if connection is None:
        w = c - a - b
        connection = (w, _gamma_ratio([c, w], [c - a, c - b]),
                      _gamma_ratio([c, -w], [a, b]))
    w, g1, g2 = connection
    f1 = _series(a, b, 1.0 - w, zc)
    f2 = _series(c - a, c - b, 1.0 + w, zc)
    return g1 * f1 + g2 * np.exp(w * lzc) * f2


def _log_form(a, b, c, m, zc, lzc):
    """2F1(a, b; c; 1-zc) at the integer c - a - b = m (A&S 15.3.11): m
    terms of a finite sum plus a series with digamma and log terms.  m < 0
    goes through Euler's 2F1(a,b;c;z) = (1-z)^{c-a-b} 2F1(c-a,c-b;c;z)."""
    if m < 0:
        return np.exp(m * lzc) * _log_form(c - a, c - b, c, -m, zc, lzc)
    a, b, zc, lzc = np.broadcast_arrays(*_as_complex(a, b, zc, lzc))
    head = np.zeros(a.shape, dtype=complex)
    if m:
        term = head = np.ones(a.shape, dtype=complex)
        for n in range(m - 1):
            term = term * (a + n) * (b + n) / ((n + 1.0) * (n + 1.0 - m)) * zc
            head = head + term
        head = head * _gamma_ratio([m, a + b + m], [a + m, b + m])
    # coef_n = (a+m)_n (b+m)_n / (n! (m+1)_n) zc^n, with psi(n+1),
    # psi(n+m+1), psi(a+m+n) and psi(b+m+n) stepped alongside
    coef = np.ones(a.shape, dtype=complex)
    psi_n1 = _sp.digamma(np.ones(a.shape))
    psi_nm1 = _sp.digamma(np.full(a.shape, m + 1.0))
    psi_a = _sp.digamma(a + m)
    psi_b = _sp.digamma(b + m)
    total = psi_n1 + psi_nm1 - psi_a - psi_b - lzc
    for n in range(MAX_TERMS):
        coef = coef * (a + m + n) * (b + m + n) / ((n + 1.0) * (n + m + 1.0)) * zc
        psi_n1 = psi_n1 + 1.0 / (n + 1.0)
        psi_nm1 = psi_nm1 + 1.0 / (n + m + 1.0)
        psi_a = psi_a + 1.0 / (a + m + n)
        psi_b = psi_b + 1.0 / (b + m + n)
        term = coef * (psi_n1 + psi_nm1 - psi_a - psi_b - lzc)
        total = total + term
        if np.all(np.abs(term) <= SERIES_TOL * (np.abs(total) + 1e-300)):
            break
    else:
        raise SeriesConvergenceError("2F1 logarithmic series did not converge")
    return head + (-zc) ** m * _gamma_ratio([a + b + m], [a, b, m + 1.0]) * total


def hyp2f1_with_complement(a, b, c, z, zc, log_zc=None, connection=None):
    """2F1(a,b;c;z) with the complement zc = 1-z supplied exactly.

    z is real with 0 <= z < 1: a scalar against parameters a, b, c of any
    (broadcast) shape, or a row (1, m) against parameter columns (n, 1),
    which gives the (n, m) grid.  The row is split at z = 1/2 and each
    side goes to :func:`hyp2f1_cols_rows`.  This is the precision-critical
    entry point used by the eigenstates, whose argument approaches 1
    exponentially on the left of the step.  Where zc underflows there,
    log_zc = log(1-z), of z's shape, carries it: zc then enters only as
    the argument of series that it no longer changes.  The eigenstates
    pass ``connection`` = (w, g1, g2) from their Gamma table: w = c-a-b and
    the gamma factors of the two terms of the z -> 1-z formula, read only
    where w is not near an integer.  The two series take that same w:
    close to an integer m the terms cancel like 1/(w - m), and would not
    with a w that differs from the gamma factors' in the last bit.
    """
    a, b, c, z, zc = _as_complex(a, b, c, z, zc)
    # z may round to 1.0 in floating point while the exact complement zc
    # stays positive (or, given log_zc, underflows to 0); the transformed
    # branch only consumes zc and log_zc
    bad_zc = zc.real <= 0.0 if log_zc is None else zc.real < 0.0
    if np.any((z.real < 0.0) | bad_zc | (z.imag != 0.0)):
        raise ValueError("hyp2f1 argument must be real with 0 <= z < 1")
    if np.any(_at_pole(c)):
        raise GammaPoleError("2F1 parameter c at a non-positive integer")
    shape = np.broadcast_shapes(a.shape, b.shape, c.shape)
    a, b, c = (np.broadcast_to(v, shape).reshape(-1, 1) for v in (a, b, c))
    if connection is not None:
        connection = [np.broadcast_to(v, shape).reshape(-1, 1)
                      for v in connection]
    z, zc = np.broadcast_arrays(z.real, zc.real)
    lzc = np.log(zc) if log_zc is None else np.broadcast_to(log_zc, z.shape)
    out_shape = np.broadcast_shapes(shape, z.shape)
    z, zc, lzc = (v.reshape(1, -1) for v in (z, zc, lzc))
    out = np.empty((a.shape[0], z.shape[1]), dtype=complex)
    lo = z[0] <= 0.5
    for side in (lo, ~lo):
        if np.any(side):
            out[:, side] = hyp2f1_cols_rows(a, b, c, z[:, side], zc[:, side],
                                            lzc[:, side], connection)
    out = out.reshape(out_shape)
    if out.shape == ():
        return complex(out)
    return out


def hyp2f1(a, b, c, z):
    """Gauss hypergeometric function for complex parameters, real z in [0,1)."""
    z = np.asarray(z, dtype=complex)
    return hyp2f1_with_complement(a, b, c, z, 1.0 - z)


def hyp2f1_cols_rows(a_col, b_col, c_col, z_row, zc_row, log_zc=None,
                     connection=None):
    """2F1 on parameter columns (n, 1) x an argument row (1, m) on one side
    of z = 1/2; a row that straddles it raises.

    z <= 1/2 sums the power series.  z > 1/2 takes the z -> 1-z formula at
    zc_row = 1-z, with log_zc its logarithm (np.log(zc_row) by default) and
    the gamma factors evaluated once per parameter column, or taken from
    ``connection`` as in :func:`hyp2f1_with_complement`.  A column whose
    w = c-a-b is within DEGENERATE_EPS of an integer m takes the log form
    for that m, or the terminating series where a or b is 0, -1, -2, ...
    """
    a, b, c = (v.reshape(-1, 1) for v in np.broadcast_arrays(
        *_as_complex(a_col, b_col, c_col)))
    z = np.asarray(z_row, dtype=float).reshape(1, -1)
    if np.all(z <= 0.5):
        return _series(a, b, c, z)
    if np.any(z <= 0.5):
        raise ValueError("argument rows must not straddle z = 1/2")
    zc = np.asarray(zc_row, dtype=float).reshape(1, -1)
    lzc = np.log(zc) if log_zc is None else np.reshape(log_zc, (1, -1))
    w = (c - a - b)[:, 0]
    m_int = np.round(w.real)
    degen = ((np.abs(w.imag) < DEGENERATE_EPS)
             & (np.abs(w - m_int) < DEGENERATE_EPS))
    if not np.any(degen):
        return _transformed(a, b, c, zc, lzc, connection)
    out = np.empty((a.shape[0], z.shape[1]), dtype=complex)
    reg = ~degen
    if np.any(reg):
        g = None if connection is None else tuple(
            np.broadcast_to(v, a.shape)[reg] for v in connection)
        out[reg] = _transformed(a[reg], b[reg], c[reg], zc, lzc, g)
    # a or b at 0, -1, -2, ... ends the series at z, where the log form
    # would take digamma at that pole
    poly = degen & (_at_pole(a) | _at_pole(b))[:, 0]
    if np.any(poly):
        out[poly] = _series(a[poly], b[poly], c[poly], z)
    for m in np.unique(m_int[degen & ~poly]):
        s = degen & ~poly & (m_int == m)
        out[s] = _log_form(a[s], b[s], c[s], int(m), zc, lzc)
    return out
