"""Semiclassical (WKB) reconstruction of the propagator from classical saddles.

    G(x1,x0;T) ~ Theta(T) sqrt(i/(2 pi hbar)) sum_j sqrt_vv_j e^{i S_j/hbar},

where sqrt_vv_j is the branch-resolved square root of the Van Vleck factor
d2S/dx0 dx1 carried by each saddle: for real saddles it encodes the Maslov
phase (-i)^(nu+1) |vv|^(1/2), fixed by the free-particle limit; for complex
saddles the default branch is -sqrt(vv), the analytic continuation through
the fold (its WKB coefficient tends to one in the semiclassical limit).

The residual Stokes sign of a complex saddle can be pinned against a single
exact propagator sample with :func:`fix_complex_saddle_phase`.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .classical import BoundarySpec, ClassicalSaddle, SaddleKind
from .errors import ValidationError
from .potential import StepModel

__all__ = ["WkbTerm", "wkb_propagator", "wkb_term", "fix_complex_saddle_phase"]

#: |vv| above which the WKB amplitude is considered caustic-divergent
VV_CAUSTIC_LIMIT = 1e6


@dataclass(frozen=True)
class WkbTerm:
    saddle: ClassicalSaddle
    amplitude: complex


def wkb_term(model: StepModel, saddle: ClassicalSaddle,
             hbar: float | None = None) -> WkbTerm:
    """Single-saddle contribution sqrt(i/(2 pi hbar)) sqrt_vv e^{iS/hbar}."""
    h = model.hbar if hbar is None else float(hbar)
    if h <= 0:
        raise ValidationError("hbar must be positive")
    if abs(saddle.vv) > VV_CAUSTIC_LIMIT:
        raise ValidationError(
            "Van Vleck factor diverges: WKB invalid this close to a caustic")
    sqrt_vv = saddle.sqrt_vv
    if sqrt_vv is None:
        sqrt_vv = cmath.sqrt(saddle.vv)
    pref = cmath.sqrt(1j / (2.0 * math.pi * h))
    amp = pref * sqrt_vv * cmath.exp(1j * saddle.S / h)
    return WkbTerm(saddle=saddle, amplitude=complex(amp))


def wkb_propagator(model: StepModel, bvp: BoundarySpec, saddles,
                   hbar: float | None = None) -> complex:
    """Sum of WKB terms over the supplied (relevant) saddles."""
    if bvp.T <= 0:
        return 0.0 + 0.0j
    total = 0.0 + 0.0j
    for sad in saddles:
        total += wkb_term(model, sad, hbar).amplitude
    return complex(total)


def fix_complex_saddle_phase(model: StepModel, bvp: BoundarySpec, saddles,
                             g_exact: complex, hbar: float | None = None):
    """Resolve the +-1 Stokes sign of each complex saddle against one exact
    propagator sample; returns the saddle list with sqrt_vv updated.

    The discrete sign is the only branch freedom the continuation leaves
    open; it is chosen to minimize |g_exact - WKB| at the probe point.
    """
    fixed = list(saddles)
    for idx, sad in enumerate(fixed):
        if sad.kind not in (SaddleKind.CAUSTIC, SaddleKind.TOPOLOGICAL):
            continue
        best = None
        for sign in (1.0, -1.0):
            trial = sad.with_sqrt_vv(complex(sign * sad.sqrt_vv))
            trial_set = fixed[:idx] + [trial] + fixed[idx + 1:]
            resid = abs(g_exact - wkb_propagator(model, bvp, trial_set, hbar))
            if best is None or resid < best[0]:
                best = (resid, trial)
        fixed[idx] = best[1]
    return fixed
