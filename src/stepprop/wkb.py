"""Semiclassical (WKB) reconstruction of the propagator from classical saddles.

    G(x1,x0;T) ~ Theta(T) sqrt(i/(2 pi hbar)) sum_j sqrt_vv_j e^{i S_j/hbar},

where sqrt_vv_j is the branch-resolved square root of the Van Vleck factor
d2S/dx0 dx1 that each saddle must carry (the sum takes no square root of
its own): for real saddles it encodes the Maslov phase (-i)^(nu+1)
|vv|^(1/2), fixed by the free-particle limit; complex saddles carry
-sqrt(vv), the analytic continuation through the fold (its WKB coefficient
tends to one in the semiclassical limit).

BoundarySpec admits only T > 0, so Theta(T) = 1 wherever the sum is taken.
A saddle whose |vv| exceeds VV_CAUSTIC_LIMIT sits too close to a caustic for
the sum to hold, and raises.

The residual Stokes sign of a complex saddle can be pinned against a single
exact propagator sample with :func:`fix_complex_saddle_phase`.
"""
from __future__ import annotations

import cmath
import math

from .classical import BoundarySpec, SaddleKind
from .errors import ValidationError
from .potential import StepModel

__all__ = ["wkb_propagator", "fix_complex_saddle_phase"]

#: |vv| above which the WKB amplitude is considered caustic-divergent
VV_CAUSTIC_LIMIT = 1e6


def wkb_propagator(model: StepModel, bvp: BoundarySpec, saddles,
                   hbar: float | None = None) -> complex:
    """Sum of the single-saddle terms sqrt(i/(2 pi hbar)) sqrt_vv e^{iS/hbar}
    over the supplied (relevant) saddles at the endpoints of bvp."""
    h = model.hbar if hbar is None else float(hbar)
    if h <= 0:
        raise ValidationError("hbar must be positive")
    pref = cmath.sqrt(1j / (2.0 * math.pi * h))
    total = 0.0 + 0.0j
    for sad in saddles:
        if abs(sad.vv) > VV_CAUSTIC_LIMIT:
            raise ValidationError(
                "Van Vleck factor diverges: WKB invalid this close to a caustic")
        total += complex(pref * sad.sqrt_vv * cmath.exp(1j * sad.S / h))
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
