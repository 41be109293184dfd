"""Gauss hypergeometric function 2F1 for complex parameters.

The hypergeometric function is needed for complex parameters a, b, c and a
real argument z in [0, 1),

    2F1(a, b; c; z) = sum_n (a)_n (b)_n / ((c)_n n!) z^n .

Evaluation strategy
-------------------
* z <= 1/2 : direct power series.
* z  > 1/2 : linear transformation z -> 1-z,

      2F1(a,b;c;z) = G(c)G(w)/(G(c-a)G(c-b)) 2F1(a,b;1-w;1-z)
                   + (1-z)^w G(c)G(-w)/(G(a)G(b)) 2F1(c-a,c-b;1+w;1-z),

  with w = c-a-b.  When w is within 1e-8 of an integer m the two terms are
  individually singular, and the logarithmic connection formula for that m
  (DLMF 15.8.10; A&S 15.3.11, with Euler's transformation for m < 0) is
  used instead.

All entry points broadcast over numpy arrays.  Callers that know 1-z to
better precision than 1 - float(z) (the eigenstates do, since their argument
is a logistic function of position) should use :func:`hyp2f1_with_complement`.

The series keeps a running bound on the largest partial term; if alternating
cancellation would push the relative accuracy above ``CANCEL_TOL`` the
evaluation raises instead of returning a degraded value.
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
    """Raw power series sum with termwise convergence + cancellation guard."""
    a, b, c, z = np.broadcast_arrays(*_as_complex(a, b, c, z))
    total = np.ones(a.shape, dtype=complex)
    term = np.ones(a.shape, dtype=complex)
    peak = np.ones(a.shape)
    small_runs = np.zeros(a.shape, dtype=int)
    done = np.zeros(a.shape, dtype=bool)
    n = 0
    while n < MAX_TERMS:
        term = term * (a + n) * (b + n) / ((c + n) * (n + 1.0)) * z
        total = total + np.where(done, 0.0, term)
        mag = np.abs(term)
        peak = np.maximum(peak, mag)
        small = mag <= SERIES_TOL * (np.abs(total) + 1e-300)
        small_runs = np.where(small, small_runs + 1, 0)
        done = done | (small_runs >= 2)
        if np.all(done):
            break
        n += 1
    else:
        raise SeriesConvergenceError(
            f"2F1 series did not converge within {MAX_TERMS} terms")
    est = np.finfo(float).eps * peak / (np.abs(total) + 1e-300)
    if np.any(est > CANCEL_TOL):
        raise SeriesConvergenceError(
            "2F1 series lost too many digits to cancellation "
            f"(estimated relative error {float(np.max(est)):.2e})")
    return total


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


def _transformed(a, b, c, zc, lzc, series=_series):
    """z > 1/2 branch via the z -> 1-z connection formula, zc = 1-z and
    lzc = log(zc); ``series`` sums the two 2F1 at zc."""
    w = c - a - b
    g1 = _gamma_ratio([c, w], [c - a, c - b])
    g2 = _gamma_ratio([c, -w], [a, b])
    f1 = series(a, b, 1.0 - w, zc)
    f2 = series(c - a, c - b, 1.0 + w, zc)
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


def hyp2f1_with_complement(a, b, c, z, zc, log_zc=None):
    """2F1(a,b;c;z) with the complement zc = 1-z supplied exactly.

    z must be real with 0 <= z < 1 (elementwise); a, b, c may be complex
    arrays.  This is the precision-critical entry point used by the
    eigenstates, whose argument approaches 1 exponentially on the left of
    the step.  Where zc underflows there, log_zc = log(1-z) carries it: zc
    then enters only as the argument of series that it no longer changes.
    """
    a, b, c, z, zc = np.broadcast_arrays(*_as_complex(a, b, c, z, zc))
    zr = z.real
    # z may round to 1.0 in floating point while the exact complement zc
    # stays positive (or, given log_zc, underflows to 0); the transformed
    # branch only consumes zc and log_zc
    bad_zc = zc.real <= 0.0 if log_zc is None else zc.real < 0.0
    if np.any((zr < 0.0) | bad_zc | (z.imag != 0.0)):
        raise ValueError("hyp2f1 argument must be real with 0 <= z < 1")
    if np.any(_at_pole(c)):
        raise GammaPoleError("2F1 parameter c at a non-positive integer")
    out = np.empty(a.shape, dtype=complex)
    lo = zr <= 0.5
    if np.any(lo):
        out[lo] = _series(a[lo], b[lo], c[lo], z[lo])
    hi = ~lo
    if np.any(hi):
        ah, bh, ch, zch = a[hi], b[hi], c[hi], zc[hi]
        lzch = (np.log(zch) if log_zc is None
                else np.broadcast_to(log_zc, a.shape)[hi])
        w = ch - ah - bh
        m_int = np.round(w.real)
        degen = ((np.abs(w.imag) < DEGENERATE_EPS)
                 & (np.abs(w - m_int) < DEGENERATE_EPS))
        reg = ~degen
        res = np.empty(ah.shape, dtype=complex)
        if np.any(reg):
            res[reg] = _transformed(ah[reg], bh[reg], ch[reg], zch[reg],
                                    lzch[reg])
        for m in np.unique(m_int[degen]):
            s = degen & (m_int == m)
            # a or b at 0, -1, -2, ... ends the series at z, where the log
            # form would take digamma at that pole
            poly = s & (_at_pole(ah) | _at_pole(bh))
            if np.any(poly):
                res[poly] = _series(ah[poly], bh[poly], ch[poly], z[hi][poly])
                s &= ~poly
            res[s] = _log_form(ah[s], bh[s], ch[s], int(m), zch[s], lzch[s])
        out[hi] = res
    if out.shape == ():
        return complex(out)
    return out


def hyp2f1(a, b, c, z):
    """Gauss hypergeometric function for complex parameters, real z in [0,1)."""
    z = np.asarray(z, dtype=complex)
    return hyp2f1_with_complement(a, b, c, z, 1.0 - z)


def _series_cols_rows(a_col, b_col, c_col, z_row):
    """Power series on a parameter-column x argument-row grid.

    The term factorizes, term_n(col, row) = P_n(col) z_row^n, so the sum is
    a single matrix product P @ Z with P built by the coefficient recurrence
    and Z by a row power recurrence.  Mathematically identical to the
    elementwise loop, but the heavy arithmetic is one BLAS call.  Each cell
    is checked for cancellation against the largest term bound of its
    parameter column, max_n |P_n(col)| z_max^n.
    """
    a = np.asarray(a_col, dtype=complex).reshape(-1)
    b = np.asarray(b_col, dtype=complex).reshape(-1)
    c = np.asarray(c_col, dtype=complex).reshape(-1)
    z = np.asarray(z_row, dtype=float).reshape(-1)
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
            "2F1 grid series lost too many digits to cancellation "
            f"(estimated relative error {float(np.max(est)):.2e})")
    return out


def hyp2f1_cols_rows(a_col, b_col, c_col, z_row, zc_row):
    """2F1 on a parameter-column x argument-row grid.

    Parameters have shape (n, 1) and the real argument shape (1, m); the
    gamma factors of the z -> 1-z connection formula are evaluated once per
    parameter row instead of per grid element.  Rows must be uniformly on
    one side of z = 1/2 (the eigenstate grids split their columns first).
    """
    a_col, b_col, c_col = _as_complex(a_col, b_col, c_col)
    z_row = np.asarray(z_row, dtype=float).reshape(1, -1)
    zc_row = np.asarray(zc_row, dtype=float).reshape(1, -1)
    if np.all(z_row <= 0.5):
        return _series_cols_rows(a_col, b_col, c_col, z_row)
    if np.any(z_row <= 0.5):
        raise ValueError("argument rows must not straddle z = 1/2")
    w = c_col - a_col - b_col
    wdist = np.abs(w - np.round(w.real))
    if np.any((np.abs(w.imag) < DEGENERATE_EPS) & (wdist < DEGENERATE_EPS)):
        # rare in grid evaluation; fall back to the general path
        A, B, C, Z, ZC = np.broadcast_arrays(
            a_col + 0 * z_row, b_col + 0 * z_row, c_col + 0 * z_row,
            z_row + 0 * a_col.real, zc_row + 0 * a_col.real)
        return hyp2f1_with_complement(A, B, C, Z, ZC)
    return _transformed(a_col, b_col, c_col, zc_row, np.log(zc_row + 0j),
                        _series_cols_rows)
