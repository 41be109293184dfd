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

Scattering amplitudes, rates, normalization coefficients and the orthonormal
basis follow the same closed forms; everything is evaluated in log space so
that the sinh/gamma growth at small alpha*hbar never overflows.

All momentum-like arguments may be complex: the propagator module deforms its
integration contour, and every function here is an analytic continuation of
the real-k formula.  Functions with a ``conj`` flag evaluate the i -> -i form,
which equals the complex conjugate for real arguments and stays analytic off
the real axis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import loggamma

from .errors import BranchMismatchError, UnsupportedFamilyError
from .potential import Family, StepModel
from .specfun import hyp2f1_cols_rows, hyp2f1_with_complement

#: |alpha x| beyond which eigenstate_ws delegates to the asymptotic forms
X_ASYM = 30.0

BRANCHES = ("c", "plus", "minus")


@dataclass(frozen=True)
class MomentumSpec:
    """Momentum labels of a spectral branch at incident momentum k."""

    k: float
    E: float
    p: complex
    mu: complex


@dataclass(frozen=True)
class ScatterAmplitudes:
    R: complex
    T: complex


@dataclass(frozen=True)
class NormalizationCoeffs:
    Ncc: float
    Npp: float
    Npm: complex


def momentum_spec(model: StepModel, k: float) -> MomentumSpec:
    k = float(k)
    if k <= 0:
        raise BranchMismatchError("momentum label k must be positive")
    two_m_v0 = 2.0 * model.m * model.V0
    return MomentumSpec(
        k=k,
        E=k * k / (2.0 * model.m),
        p=complex(np.sqrt(complex(k * k - two_m_v0))),
        mu=complex(np.sqrt(complex(two_m_v0 - k * k))),
    )


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

def _branch(model, branch, k, q, conj):
    """(i, k, a): the imaginary unit of the (conj) form, k, and the
    transmitted momentum a of the branch."""
    i = -1j if conj else 1j
    k = np.asarray(k, dtype=complex)
    q = np.asarray(q, dtype=complex)
    if model.V0 == 0.0 and branch != "c":
        # free particle: both scattering branches degenerate to plane waves
        q = k
    if branch == "c":
        return i, k, i * q
    if branch == "plus":
        return i, k, q
    if branch == "minus":
        return i, k, -q
    raise BranchMismatchError(f"unknown branch {branch!r}")


def _ws_params(model, i, k, a):
    """(nu, c, s): phi = 2^{-nu} e^{s x/2h} sech(alpha x)^nu 2F1(1+nu, nu; c; z)."""
    ah = model.alpha * model.hbar
    return i * (k - a) / (2.0 * ah), 1.0 - i * a / ah, i * (k + a)


def _logistic(model, x):
    """(z, 1-z, log sech(alpha x)) with z = 1/(1+e^{2 alpha x}), each to full
    precision and without overflow; x is a scalar or an array."""
    ax = model.alpha * np.asarray(x, dtype=float)
    e = np.exp(-2.0 * np.abs(ax))
    near, far = e / (1.0 + e), 1.0 / (1.0 + e)
    right = ax >= 0
    return (np.where(right, near, far), np.where(right, far, near),
            -np.abs(ax) + math.log(2.0) - np.log1p(e))


def _phi_ws_full(model, branch, k, q, x, conj=False):
    """Woods-Saxon 2F1 form; q = mu for 'c', q = p for 'plus'/'minus'.

    A scalar x uses the elementwise 2F1; a row of x uses the column x row
    grid evaluation, split so that no row straddles z = 1/2.
    """
    i, k, a = _branch(model, branch, k, q, conj)
    nu, cpar, s = _ws_params(model, i, k, a)
    z, zc, logsech = _logistic(model, x)
    pref = np.exp(-nu * math.log(2.0) + s * x / (2.0 * model.hbar) + nu * logsech)
    if np.ndim(x) == 0:
        # below alpha x = -354, 1-z is subnormal or 0 and its log is 2 alpha x
        lzc = 2.0 * model.alpha * x if zc < np.finfo(float).tiny else None
        return pref * hyp2f1_with_complement(1.0 + nu, nu, cpar, z, zc, lzc)
    vals = np.empty(pref.shape, dtype=complex)
    for cols in (z.ravel() > 0.5, z.ravel() <= 0.5):
        if np.any(cols):
            vals[:, cols] = hyp2f1_cols_rows(1.0 + nu, nu, cpar,
                                             z[:, cols], zc[:, cols])
    return pref * vals


def _phi_ws_asym_left(model, branch, k, q, x, conj=False):
    """x -> -inf plane waves (k - a) e^{-ikx/h}, (k + a) e^{ikx/h} with the
    gamma-function coefficients of the z -> 1 limit, in log space."""
    i, k, a = _branch(model, branch, k, q, conj)
    nu, cpar, s = _ws_params(model, i, k, a)
    ah = model.alpha * model.hbar
    h = model.hbar
    logc = (math.log(math.pi) + loggamma(cpar) - math.log(2.0 * ah)
            - _logsinh(math.pi * k / ah))
    den_in = loggamma(1.0 - i * k / ah) + 2.0 * loggamma(1.0 + nu)
    den_out = loggamma(1.0 + i * k / ah) + 2.0 * loggamma(1.0 - s / (2 * ah))
    return ((k - a) * np.exp(logc - den_in - i * k * x / h)
            + (k + a) * np.exp(logc - den_out + i * k * x / h))


def _phi_right(model, branch, k, q, x, conj=False):
    """Right of the step: e^{i a x/h}, for both families."""
    i, k, a = _branch(model, branch, k, q, conj)
    return np.exp(i * a * x / model.hbar)


def _phi_heaviside_left(model, branch, k, q, x, conj=False):
    """Left of the sharp step: ((k - a) e^{-ikx/h} + (k + a) e^{ikx/h}) / 2k."""
    i, k, a = _branch(model, branch, k, q, conj)
    h = model.hbar
    return ((k - a) / (2 * k) * np.exp(-i * k * x / h)
            + (k + a) / (2 * k) * np.exp(i * k * x / h))


def phi(model: StepModel, branch: str, k, q, x: float, conj: bool = False):
    """Un-normalized eigenstate at position x, analytic in (k, q).

    Dispatches between full, asymptotic, and Heaviside forms.  ``q`` is the
    companion momentum (mu below the step, p above it); passing it explicitly
    keeps the analytic continuation single-valued on deformed contours.
    """
    if _heaviside_like(model):
        form = _phi_heaviside_left if x <= 0 else _phi_right
    else:
        ax = model.alpha * x
        form = (_phi_ws_asym_left if ax < -X_ASYM
                else _phi_right if ax > X_ASYM else _phi_ws_full)
    return form(model, branch, k, q, x, conj)


def phi_grid(model: StepModel, branch: str, k, q, xs, conj: bool = False):
    """Eigenstate matrix phi[k_i, x_j]; same dispatch rules as :func:`phi`."""
    k = np.asarray(k, dtype=complex).reshape(-1, 1)
    q = np.asarray(q, dtype=complex).reshape(-1, 1)
    xs = np.asarray(xs, dtype=float).reshape(1, -1)
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
            out[:, cols] = form(model, branch, k, q, xs[:, cols], conj)
    return out


def eigenstate_ws(model: StepModel, branch: str, k: float, x: float) -> complex:
    """Woods-Saxon eigenstate phi^branch_k(x) for real k and x."""
    if model.family is not Family.WOODS_SAXON:
        raise UnsupportedFamilyError("eigenstate_ws requires the smooth step")
    ms = momentum_spec(model, k)
    kc = model.k_threshold
    if branch == "c":
        if ms.k >= kc:
            raise BranchMismatchError("branch 'c' requires k < sqrt(2 m V0)")
        q = ms.mu
    elif branch in ("plus", "minus"):
        if ms.k <= kc:
            raise BranchMismatchError("branches '+'/'-' require k > sqrt(2 m V0)")
        q = ms.p
    else:
        raise BranchMismatchError(f"unknown branch {branch!r}")
    return complex(phi(model, branch, k, q, x))


def eigenstate_ws_asymptotic(model: StepModel, branch: str, k: float, x: float,
                             side: str) -> complex:
    """Plane-wave/evanescent asymptotic form on the requested side."""
    ms = momentum_spec(model, k)
    q = ms.mu if branch == "c" else ms.p
    if side == "left":
        return complex(_phi_ws_asym_left(model, branch, k, q, x))
    if side == "right":
        return complex(_phi_right(model, branch, k, q, x))
    raise ValueError("side must be 'left' or 'right'")


# ---------------------------------------------------------------------------
# scattering amplitudes and rates
# ---------------------------------------------------------------------------

def scatter_amplitudes(model: StepModel, k: float) -> ScatterAmplitudes:
    """Reflection/transmission amplitudes for k at or above the step."""
    ms = momentum_spec(model, k)
    if ms.E < model.V0:
        raise BranchMismatchError("scattering amplitudes require E >= V0")
    p = ms.p.real
    if _heaviside_like(model):
        return ScatterAmplitudes(R=(k - p) / (k + p),
                                 T=2.0 * math.sqrt(k * p) / (k + p))
    ah = model.alpha * model.hbar
    lg_r = (loggamma(1 + 1j * k / ah) + 2 * loggamma(1 - 1j * (k + p) / (2 * ah))
            - loggamma(1 - 1j * k / ah) - 2 * loggamma(1 + 1j * (k - p) / (2 * ah)))
    R = (k - p) / (k + p) * np.exp(lg_r)
    lg_t = (_logsinh(math.pi * k / ah) + loggamma(1 + 1j * k / ah)
            + 2 * loggamma(1 - 1j * (k + p) / (2 * ah))
            - math.log(math.pi) - loggamma(1 - 1j * p / ah))
    T = 2.0 * ah * math.sqrt(p / k) / (k + p) * np.exp(lg_t)
    return ScatterAmplitudes(R=complex(R), T=complex(T))


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
            ls = lambda w: np.real(_logsinh(np.asarray(w, dtype=complex)))
            lr = 2.0 * (ls(math.pi * (ka - p) / (2 * ah))
                        - ls(math.pi * (ka + p) / (2 * ah)))
            lt = (ls(math.pi * ka / ah) + ls(math.pi * p / ah)
                  - 2.0 * ls(math.pi * (ka + p) / (2 * ah)))
            R2[above] = np.exp(lr)
            T2[above] = np.exp(lt)
    if R2.shape == ():
        return float(R2), float(T2)
    return R2, T2


def log_reflection_rate(model: StepModel, k: float) -> float:
    """log |R|^2 for E > V0, stable deep in the semiclassical regime."""
    ms = momentum_spec(model, k)
    if not (ms.E > model.V0):
        return 0.0
    p = ms.p.real
    if _heaviside_like(model):
        return 2.0 * math.log((k - p) / (k + p))
    ah = model.alpha * model.hbar
    ls = lambda w: float(np.real(_logsinh(complex(w))))
    return 2.0 * (ls(math.pi * (k - p) / (2 * ah)) - ls(math.pi * (k + p) / (2 * ah)))


def reflection_rate_smallhbar_asymptote(model: StepModel, k: float):
    """Small-hbar asymptote exp(-2 pi p/(alpha hbar)) and the instanton action.

    Returns (asymptote, S_I) with S_I = i pi sqrt(2 m (E - V0)) / alpha; the
    identity exp(2 i S_I / hbar) = exp(-2 pi p / (alpha hbar)) fixes signs.
    """
    if model.family is not Family.WOODS_SAXON:
        raise UnsupportedFamilyError("asymptote defined for the smooth step")
    ms = momentum_spec(model, k)
    if ms.E < model.V0:
        raise BranchMismatchError("asymptote requires E >= V0")
    p = ms.p.real
    asym = math.exp(-2.0 * math.pi * p / (model.alpha * model.hbar))
    s_instanton = 1j * math.pi * math.sqrt(2.0 * model.m * (ms.E - model.V0)) / model.alpha
    return asym, s_instanton


# ---------------------------------------------------------------------------
# normalization coefficients and the orthonormal basis
# ---------------------------------------------------------------------------

def _log_ncc(model, k, mu):
    ah = model.alpha * model.hbar
    return (math.log(model.m * model.V0 * math.pi ** 2) - np.log(ah * k)
            - _logsinh(math.pi * k / ah)
            + 2.0 * loggamma(1.0 + mu / ah)
            - 2.0 * loggamma(1.0 + (mu + 1j * k) / (2 * ah))
            - 2.0 * loggamma(1.0 + (mu - 1j * k) / (2 * ah)))


def ncc_analytic(model, k, mu):
    """N^cc as an analytic function of (k, mu); real positive on the axis."""
    if _heaviside_like(model):
        return math.pi * model.m * model.V0 / (np.asarray(k, complex) ** 2)
    return np.exp(_log_ncc(model, np.asarray(k, complex), np.asarray(mu, complex)))


def npm_analytic(model, k, p, conj=False):
    """N^{+-} (or its i -> -i partner) as an analytic function of (k, p)."""
    k = np.asarray(k, dtype=complex)
    p = np.asarray(p, dtype=complex)
    if _heaviside_like(model):
        return math.pi * model.m * model.V0 / (k * k) + 0.0 * p
    i = -1j if conj else 1j
    ah = model.alpha * model.hbar
    lg = (math.log(model.m * model.V0 * math.pi ** 2) - np.log(ah * k)
          - _logsinh(math.pi * k / ah)
          + 2.0 * loggamma(1.0 - i * p / ah)
          - 2.0 * loggamma(1.0 + i * (k - p) / (2 * ah))
          - 2.0 * loggamma(1.0 - i * (k + p) / (2 * ah)))
    return np.exp(lg)


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


def normalization_coeffs(model: StepModel, k: float) -> NormalizationCoeffs:
    """Closed-form normalization coefficients at real k.

    Ncc is reported for k below the step (0 if above); Npp/Npm above it.
    """
    ms = momentum_spec(model, k)
    kc = model.k_threshold
    ncc = npp = 0.0
    npm = 0.0 + 0.0j
    if k < kc:
        ncc = float(np.real(ncc_analytic(model, k, ms.mu.real)))
    elif k > kc:
        p = ms.p.real
        npp = float(np.real(npp_analytic(model, k, p)))
        npm = complex(npm_analytic(model, k, p))
    return NormalizationCoeffs(Ncc=ncc, Npp=npp, Npm=npm)


def npm_phase(model: StepModel, k: float) -> complex:
    """Deterministic phase N^{+-}/|N^{+-}| from the displayed gamma ratio."""
    ms = momentum_spec(model, k)
    if model.family is Family.HEAVISIDE:
        return 1.0 + 0.0j
    p = ms.p.real
    ah = model.alpha * model.hbar
    lg = (loggamma(1 - 1j * (k - p) / (2 * ah)) + loggamma(1 - 1j * p / ah)
          + loggamma(1 + 1j * (k + p) / (2 * ah))
          - loggamma(1 + 1j * (k - p) / (2 * ah)) - loggamma(1 + 1j * p / ah)
          - loggamma(1 - 1j * (k + p) / (2 * ah)))
    return complex(np.exp(lg))


def orthonormal_state(model: StepModel, branch: str, k: float, x) -> complex:
    """Delta-normalized eigenstate varphi^branch_k(x) for real k."""
    ms = momentum_spec(model, k)
    kc = model.k_threshold
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if branch == "c":
        if k >= kc:
            raise BranchMismatchError("branch 'c' requires k < sqrt(2 m V0)")
        ncc = float(np.real(ncc_analytic(model, k, ms.mu.real)))
        out = phi_grid(model, "c", k, ms.mu.real, xs)[0] / math.sqrt(model.hbar * ncc)
    elif branch in ("plus", "minus"):
        if k <= kc:
            raise BranchMismatchError("branches '+'/'-' require k > sqrt(2 m V0)")
        p = ms.p.real
        eta = npm_phase(model, k)
        cp, cm = norm_combos(model, k, p)
        combo = cp if branch == "plus" else cm
        sgn = 1.0 if branch == "plus" else -1.0
        vals_p = phi_grid(model, "plus", k, p, xs)[0]
        vals_m = phi_grid(model, "minus", k, p, xs)[0]
        out = (vals_p + sgn * eta * vals_m) / np.sqrt(2.0 * model.hbar * np.real(combo))
    else:
        raise BranchMismatchError(f"unknown branch {branch!r}")
    if np.isscalar(x) or np.asarray(x).shape == ():
        return complex(out[0])
    return out
