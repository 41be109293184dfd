"""Closed-form eigenstates of the step potentials and their scattering data.

Woods-Saxon eigenstates (energy E = k^2/2m, z = 1/(1+e^{2 alpha x})):

  below the step (k < sqrt(2 m V0), mu = sqrt(2 m V0 - k^2)):
    phi_c = 2^{-(ik+mu)/2ah} e^{(ik-mu)x/2h} sech(ax)^{(ik+mu)/2ah}
            2F1(1 + (ik+mu)/2ah, (ik+mu)/2ah; 1 + mu/ah; z)

  above the step (p = sqrt(k^2 - 2 m V0)):
    phi_+ = 2^{-i(k-p)/2ah} e^{i(k+p)x/2h} sech(ax)^{i(k-p)/2ah}
            2F1(1 + i(k-p)/2ah, i(k-p)/2ah; 1 - ip/ah; z)
    phi_- = phi_+ with p -> -p,

with ah = alpha*hbar, h = hbar.  Beyond |alpha x| > X_ASYM the hypergeometric
argument is exponentially close to its z = 1 pole, so evaluation switches to
the exact plane-wave asymptotics with their gamma-function coefficients.

The scattering rates and the normalization coefficients of the spectral
kernels follow the same closed forms; everything is evaluated in log space
so that the sinh/gamma growth at small alpha*hbar never overflows.

Every Gamma function of the smooth step comes from one table per set of
momenta (_gammas): log Gamma at 1 -/+ ik/ah and, per branch, at c, 1 + nu
and 1 + y = c - nu; 5 loggammas below the step and 8 above it.  The 2F1's
c - a - b = -ik/ah is the same on every branch, so the connection pairs of
the z -> 1-z formula (and the asymptotic left form, their leading term)
follow by Gamma(1+v) = v Gamma(v), and the kernel norms read the same rows.
The table at (conj k, conj q) is the one at (k, q) conjugated, rows
permuted (_reflect): both endpoints of a spectral kernel share it.

All momentum-like arguments may be complex: the propagator module deforms its
integration contour, and every function here is an analytic continuation of
the real-k formula.  The i -> -i form of any of them, analytic in (k, q) and
equal to the complex conjugate on the real axis, is the reflection
conj(f(conj(k), conj(q))): every factor is a principal-branch exp, log, sqrt
or loggamma, or a 2F1 series with real coefficients, at real x.  model.hbar
may be an array that broadcasts against k (the hbar columns of a sweep).
"""
from __future__ import annotations

import math

import numpy as np
from scipy.special import loggamma

from .errors import BranchMismatchError, NonFiniteError, UnsupportedFamilyError
from .potential import Family, StepModel
from .specfun import _at_pole, hyp2f1_cols_rows, hyp2f1_with_complement

#: |alpha x| beyond which eigenstate_ws delegates to the asymptotic forms
X_ASYM = 30.0

__all__ = ["phi", "phi_grid", "eigenstate_ws", "scatter_rates",
           "log_reflection_rate", "reflection_rate_smallhbar_asymptote",
           "ncc_analytic", "npm_analytic", "npp_analytic", "norm_combos"]


def _logsinh(w):
    """log(sinh(w)) for Re(w) > 0, overflow-free."""
    w = np.asarray(w, dtype=complex)
    return w + np.log1p(-np.exp(-2.0 * w)) - math.log(2.0)


def _heaviside_like(model):
    """True when the eigenstates are the sharp-step (or free) plane waves."""
    return model.family is Family.HEAVISIDE or model.V0 == 0.0


# ---------------------------------------------------------------------------
# closed forms, vectorized over momenta k and a scalar x or a row of x
# ---------------------------------------------------------------------------
#
# Every branch is labelled by its transmitted momentum a, the eigenstate's
# behaviour e^{i a x/hbar} on the right of the step:
#
#   a = i mu (branch 'c'),   a = p (branch 'plus'),   a = -p (branch 'minus').
#
# The 2F1 parameters, the exponent and the left plane-wave amplitudes k -/+ a
# all follow from a, so the branch table is written once, in _branch.

def _branch(model, branch, k, q):
    """(k, a): k and the transmitted momentum a of the branch."""
    k = np.asarray(k, dtype=complex)
    q = np.asarray(q, dtype=complex)
    if model.V0 == 0.0 and branch != "c":
        # free particle: both scattering branches degenerate to plane waves
        q = k
    if branch == "c":
        return k, 1j * q
    if branch == "plus":
        return k, q
    if branch == "minus":
        return k, -q
    raise BranchMismatchError(f"unknown branch {branch!r}")


def _ws_params(model, k, a):
    """(nu, c, s): phi = 2^{-nu} e^{s x/2h} sech(alpha x)^nu 2F1(1+nu, nu; c; z)."""
    ah = model.alpha * model.hbar
    return 1j * (k - a) / (2.0 * ah), 1.0 - 1j * a / ah, 1j * (k + a)


def _logistic(model, x):
    """(z, 1-z, log sech(alpha x)) with z = 1/(1+e^{2 alpha x}), each to full
    precision and without overflow; x is a scalar or an array."""
    ax = model.alpha * np.asarray(x, dtype=float)
    e = np.exp(-2.0 * np.abs(ax))
    near, far = e / (1.0 + e), 1.0 / (1.0 + e)
    right = ax >= 0
    return (np.where(right, near, far), np.where(right, far, near),
            -np.abs(ax) + math.log(2.0) - np.log1p(e))


#: first row of each branch's (c, 1 + nu, 1 + y) in the Gamma table, after
#: the rows of w, 1 + w and 1 - w
_ROWS = {"c": 3, "plus": 3, "minus": 6}
#: the rows of the table at (conj k, conj q), read from the one at (k, q):
#: 1 + w <-> 1 - w, plus <-> minus and 1 + nu <-> 1 + y
_REFLECT = {6: [0, 2, 1, 3, 5, 4], 9: [0, 2, 1, 6, 8, 7, 3, 5, 4]}


def _gammas(model, k, q, above):
    """The Gamma table at momenta (k, q), stacked on a new first axis:
    w = c - a - b of the 2F1 (-ik/ah on every branch), then log Gamma at
    1 + w and 1 - w, and at c, 1 + nu and 1 + y of branch c (below the
    step) or of branches plus and minus (above it).  w is the first
    branch's c - a - b to the last bit, so that the 2F1 series and these
    gamma factors share their poles in w.  None on the plane-wave steps,
    which need no Gamma function."""
    if _heaviside_like(model):
        return None
    ah = model.alpha * model.hbar
    k = np.asarray(k, dtype=complex)
    args = []
    for branch in ("plus", "minus") if above else ("c",):
        kb, a = _branch(model, branch, k, q)
        nu, cpar, s = _ws_params(model, kb, a)
        if not args:
            w = cpar - (1.0 + nu) - nu
        args += [cpar, 1.0 + nu, 1.0 - s / (2.0 * ah)]
    args = np.stack(np.broadcast_arrays(w, 1.0 + w, 1.0 - w, *args))
    args[1:] = loggamma(args[1:])
    return args


def _reflect(gam):
    """The Gamma table at (conj k, conj q) from the one at (k, q): w there
    is -conj(w), and log Gamma(conj v) = conj log Gamma(v) (up to 2 pi i)."""
    if gam is None:
        return None
    out = np.conj(gam[_REFLECT[len(gam)]])
    out[0] = -out[0]
    return out


def _connection(model, branch, k, q, gam, ikx=0.0):
    """(w, g1 e^{ikx}, g2 e^{-ikx}): the table's w and the gamma factors of
    the z -> 1-z connection formula (DLMF 15.8.2) of the branch's
    2F1(1+nu, nu; c; z), from the table by Gamma(v) = Gamma(1+v)/v
    (DLMF 5.5.1):

        g1 = G(c) G(w) / (G(y) G(1+y))   =  G(c) G(1+w) y / (w G(1+y)^2),
        g2 = G(c) G(-w) / (G(nu) G(1+nu)) = -G(c) G(1-w) nu / (w G(1+nu)^2),

    the phase +-ikx joining the log Gamma terms in one exponent.  1/Gamma is
    0 at a pole, as in specfun._gamma_ratio: g1 is 0 where y is 0, -1, -2,
    ..., and g2 where nu is.  At k = 0 (an integer w, where hyp2f1 takes
    its log form and the asymptotic form raises) the pair is nan."""
    k, a = _branch(model, branch, k, q)
    ah = model.alpha * model.hbar
    w, row = gam[0], _ROWS[branch]
    zero = k == 0
    lc = np.where(zero, complex(np.nan, np.nan), gam[row])
    w1 = np.where(zero, 1.0, w)
    out = [w]
    for v, lv, lw, phase in ((-1j * (k + a) / (2 * ah), gam[row + 2], gam[1], ikx),
                             (1j * (k - a) / (2 * ah), gam[row + 1], gam[2], -ikx)):
        pole = _at_pole(v)
        g = np.exp(lc + lw - 2.0 * np.where(pole, 0.0, lv) + phase) * (v / w1)
        out.append(np.where(pole, 0.0, g))
    out[2] = -out[2]
    return out


def _phi_ws_full(model, branch, k, q, x, gam):
    """Woods-Saxon 2F1 form; q = mu for 'c', q = p for 'plus'/'minus'.

    A scalar x uses the elementwise 2F1; a row of x uses the column x row
    grid evaluation, split so that no row straddles z = 1/2.  Left of
    z = 1/2 the connection pair comes from the Gamma table gam.
    """
    k, a = _branch(model, branch, k, q)
    nu, cpar, s = _ws_params(model, k, a)
    z, zc, logsech = _logistic(model, x)
    pref = np.exp(-nu * math.log(2.0) + s * x / (2.0 * model.hbar) + nu * logsech)
    g = _connection(model, branch, k, q, gam) if np.any(z > 0.5) else None
    if np.ndim(x) == 0:
        # below alpha x = -354, 1-z is subnormal or 0 and its log is 2 alpha x
        lzc = 2.0 * model.alpha * x if zc < np.finfo(float).tiny else None
        return pref * hyp2f1_with_complement(1.0 + nu, nu, cpar, z, zc, lzc, g)
    vals = np.empty(pref.shape, dtype=complex)
    for cols in (z.ravel() > 0.5, z.ravel() <= 0.5):
        if np.any(cols):
            vals[:, cols] = hyp2f1_cols_rows(1.0 + nu, nu, cpar,
                                             z[:, cols], zc[:, cols], g)
    return pref * vals


def _phi_ws_asym_left(model, branch, k, q, x, gam):
    """x -> -inf plane waves g1 e^{ikx/h} + g2 e^{-ikx/h}, the z -> 1 limit
    of the 2F1 form, with g1, g2 its connection pair, in log space."""
    ikx = 1j * np.asarray(k, dtype=complex) * x / model.hbar
    _, in_, out_ = _connection(model, branch, k, q, gam, ikx)
    out = in_ + out_
    bad = ~np.isfinite(out)
    if np.any(bad):
        # k = 0 or k = i n alpha hbar: an integer w, a pole of Gamma(+-w)
        kb, xb = (np.broadcast_to(v, out.shape)[bad][0] for v in (k, x))
        raise NonFiniteError(f"asymptotic eigenstate non-finite at "
                             f"k = {complex(kb)!r}, x = {float(xb)!r}")
    return out


def _phi_right(model, branch, k, q, x, gam):
    """Right of the step: e^{i a x/h}, for both families."""
    k, a = _branch(model, branch, k, q)
    return np.exp(1j * a * x / model.hbar)


def _phi_heaviside_left(model, branch, k, q, x, gam):
    """Left of the sharp step: ((k - a) e^{-ikx/h} + (k + a) e^{ikx/h}) / 2k."""
    k, a = _branch(model, branch, k, q)
    h = model.hbar
    return ((k - a) / (2 * k) * np.exp(-1j * k * x / h)
            + (k + a) / (2 * k) * np.exp(1j * k * x / h))


def phi(model: StepModel, branch: str, k, q, x: float, gam=None):
    """Un-normalized eigenstate at position x, analytic in (k, q).

    Dispatches between full, asymptotic, and Heaviside forms.  ``q`` is the
    companion momentum (mu below the step, p above it); passing it explicitly
    keeps the analytic continuation single-valued on deformed contours.
    ``gam`` is the Gamma table at (k, q) when the caller shares one.
    """
    if _heaviside_like(model):
        form = _phi_heaviside_left if x <= 0 else _phi_right
    else:
        ax = model.alpha * x
        form = (_phi_ws_asym_left if ax < -X_ASYM
                else _phi_right if ax > X_ASYM else _phi_ws_full)
        if gam is None:
            gam = _gammas(model, k, q, branch != "c")
    return form(model, branch, k, q, x, gam)


def phi_grid(model: StepModel, branch: str, k, q, xs, gam=None):
    """Eigenstate matrix phi[k_i, x_j]; same dispatch rules as :func:`phi`."""
    k = np.asarray(k, dtype=complex).reshape(-1, 1)
    q = np.asarray(q, dtype=complex).reshape(-1, 1)
    xs = np.asarray(xs, dtype=float).reshape(1, -1)
    gam = (_gammas(model, k, q, branch != "c") if gam is None
           else gam.reshape(len(gam), -1, 1))
    if _heaviside_like(model):
        left = xs.ravel() <= 0
        regions = ((left, _phi_heaviside_left), (~left, _phi_right))
    else:
        ax = model.alpha * xs.ravel()
        cols_l, cols_r = ax < -X_ASYM, ax > X_ASYM
        regions = ((cols_l, _phi_ws_asym_left), (cols_r, _phi_right),
                   (~(cols_l | cols_r), _phi_ws_full))
    out = np.empty((k.shape[0], xs.shape[1]), dtype=complex)
    for cols, form in regions:
        if np.any(cols):
            out[:, cols] = form(model, branch, k, q, xs[:, cols], gam)
    return out


def _companion(model, branch, k):
    """The real companion momentum of branch at real k: mu below the step
    for 'c', p above it for 'plus'/'minus'; a k on the wrong side raises."""
    k = float(k)
    if k <= 0:
        raise BranchMismatchError("momentum label k must be positive")
    kc = model.k_threshold
    if branch == "c":
        if k >= kc:
            raise BranchMismatchError("branch 'c' requires k < sqrt(2 m V0)")
        return math.sqrt(2.0 * model.m * model.V0 - k * k)
    if branch in ("plus", "minus"):
        if k <= kc:
            raise BranchMismatchError("branches '+'/'-' require k > sqrt(2 m V0)")
        return math.sqrt(k * k - 2.0 * model.m * model.V0)
    raise BranchMismatchError(f"unknown branch {branch!r}")


def eigenstate_ws(model: StepModel, branch: str, k: float, x: float) -> complex:
    """Woods-Saxon eigenstate phi^branch_k(x) for real k and x."""
    if model.family is not Family.WOODS_SAXON:
        raise UnsupportedFamilyError("eigenstate_ws requires the smooth step")
    return complex(phi(model, branch, k, _companion(model, branch, k), x))


# ---------------------------------------------------------------------------
# scattering rates
# ---------------------------------------------------------------------------

def _log_r2_ws(model, k, p):
    """log |R|^2 = 2 log(sinh(pi (k-p)/2ah) / sinh(pi (k+p)/2ah)) above the
    smooth step, overflow-free; k and p are scalars or arrays."""
    ah = model.alpha * model.hbar
    ls = lambda w: np.real(_logsinh(w))
    return 2.0 * (ls(math.pi * (k - p) / (2 * ah))
                  - ls(math.pi * (k + p) / (2 * ah)))


def scatter_rates(model: StepModel, k):
    """(|R|^2, |T|^2), overflow-free for any alpha*hbar; k vectorized.

    Below the step (E < V0) the reflection rate is exactly 1.
    """
    k = np.asarray(k, dtype=float)
    kc = model.k_threshold
    R2 = np.ones(k.shape)
    T2 = np.zeros(k.shape)
    above = k > kc
    if np.any(above):
        ka = k[above]
        p = np.sqrt(ka * ka - kc * kc)
        if _heaviside_like(model):
            R2[above] = ((ka - p) / (ka + p)) ** 2
            T2[above] = 4.0 * ka * p / (ka + p) ** 2
        else:
            ah = model.alpha * model.hbar
            ls = lambda w: np.real(_logsinh(w))
            lt = (ls(math.pi * ka / ah) + ls(math.pi * p / ah)
                  - 2.0 * ls(math.pi * (ka + p) / (2 * ah)))
            R2[above] = np.exp(_log_r2_ws(model, ka, p))
            T2[above] = np.exp(lt)
    if R2.shape == ():
        return float(R2), float(T2)
    return R2, T2


def log_reflection_rate(model: StepModel, k: float) -> float:
    """log |R|^2 for E > V0, stable deep in the semiclassical regime."""
    if k <= 0:
        raise BranchMismatchError("momentum label k must be positive")
    if not (k * k / (2.0 * model.m) > model.V0):
        return 0.0
    p = math.sqrt(k * k - 2.0 * model.m * model.V0)
    if _heaviside_like(model):  # p = k at V0 = 0, where |R|^2 = 0
        return 2.0 * math.log((k - p) / (k + p)) if p < k else -math.inf
    return float(_log_r2_ws(model, k, p))


def reflection_rate_smallhbar_asymptote(model: StepModel, k: float):
    """Small-hbar asymptote exp(-2 pi p/(alpha hbar)) and the instanton action.

    Returns (asymptote, S_I) with S_I = i pi sqrt(2 m (E - V0)) / alpha; the
    identity exp(2 i S_I / hbar) = exp(-2 pi p / (alpha hbar)) fixes signs.
    """
    if model.family is not Family.WOODS_SAXON:
        raise UnsupportedFamilyError("asymptote defined for the smooth step")
    if k <= 0:
        raise BranchMismatchError("momentum label k must be positive")
    E = k * k / (2.0 * model.m)
    if E < model.V0:
        raise BranchMismatchError("asymptote requires E >= V0")
    # E = V0 can leave k^2 an ulp below 2 m V0: p is then 0
    p = math.sqrt(max(k * k - 2.0 * model.m * model.V0, 0.0))
    asym = math.exp(-2.0 * math.pi * p / (model.alpha * model.hbar))
    s_instanton = 1j * math.pi * math.sqrt(2.0 * model.m * (E - model.V0)) / model.alpha
    return asym, s_instanton


# ---------------------------------------------------------------------------
# normalization coefficients
# ---------------------------------------------------------------------------

def _norm(model, k, gam, branch):
    """N^cc (branch 'c'), N^{+-} ('plus') or conj N^{+-}(conj k, conj p)
    ('minus') from the Gamma table gam at (k, q): one formula,

        N = m V0 pi^2 / (ah k sinh(pi k/ah)) (G(c) / (G(1+nu) G(1+y)))^2

    with the branch's c, nu and y, and pi m V0 / k^2 on the plane-wave
    steps (gam None)."""
    k = np.asarray(k, dtype=complex)
    if gam is None:
        return math.pi * model.m * model.V0 / (k * k)
    ah = model.alpha * model.hbar
    lc, lnu, ly = gam[_ROWS[branch]:_ROWS[branch] + 3]
    return np.exp(math.log(model.m * model.V0 * math.pi ** 2)
                  - np.log(ah * k) - _logsinh(math.pi * k / ah)
                  + 2.0 * (lc - lnu - ly))


def ncc_analytic(model, k, mu):
    """N^cc as an analytic function of (k, mu); real positive on the axis."""
    return _norm(model, k, _gammas(model, k, mu, False), "c")


def npm_analytic(model, k, p):
    """N^{+-} as an analytic function of (k, p)."""
    return _norm(model, k, _gammas(model, k, p, True), "plus")


def npp_analytic(model, k, p):
    """N^{++} via the sinh product identity, analytic and overflow-free."""
    k = np.asarray(k, dtype=complex)
    p = np.asarray(p, dtype=complex)
    if _heaviside_like(model):
        return math.pi * (p / k + (k * k + p * p) / (2.0 * k * k))
    ah = model.alpha * model.hbar
    lg = (np.log(2.0 * math.pi * p / k)
          + 2.0 * _logsinh(math.pi * (k + p) / (2.0 * ah))
          - _logsinh(math.pi * k / ah) - _logsinh(math.pi * p / ah))
    return np.exp(lg)


def norm_combos(model, k, p):
    """(N^{++} + |N^{+-}|, N^{++} - |N^{+-}|) in the factorized forms.

    For Heaviside these are assembled directly from the closed coefficients;
    for Woods-Saxon the displayed exponential factorizations are used, scaled
    so no e^{pi k / ah} overflows.
    """
    k = np.asarray(k, dtype=complex)
    p = np.asarray(p, dtype=complex)
    if _heaviside_like(model):
        npp = npp_analytic(model, k, p)
        npm = npm_analytic(model, k, p)
        return npp + npm, npp - npm
    ah = model.alpha * model.hbar
    ea = np.exp(-math.pi * k / ah)
    eb = np.exp(-math.pi * p / ah)
    base = (2.0 * math.pi * p / k) * (1.0 - ea * eb)
    plus = base / ((1.0 + ea) * (1.0 - eb))
    minus = base / ((1.0 - ea) * (1.0 + eb))
    return plus, minus
