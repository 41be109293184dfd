"""Step-potential family: Woods-Saxon smooth step and Heaviside step.

    V_ws(x) = V0 / (1 + exp(-2 alpha x)),      V_h(x) = V0 * Theta(x),

with Theta(0) = 1/2.  The Woods-Saxon analytic continuation has simple poles
at x = i pi (n + 1/2) / alpha; complex evaluation near a pole is guarded.

The model also carries the exact scaling map

    alpha -> C alpha,  hbar -> hbar / C,  (x0, x1, T) -> (x0, x1, T) / C,

under which the real-time propagator is invariant.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import PotentialPoleError, UnsupportedFamilyError, ValidationError

__all__ = ["Family", "StepModel", "pole_distance", "potential_value",
           "potential_derivatives", "singularity_locations", "rescale"]

#: guard radius around the analytic-continuation poles, in units of 1/alpha
POLE_GUARD = 1e-8


class Family(enum.Enum):
    WOODS_SAXON = "woods_saxon"
    HEAVISIDE = "heaviside"


@dataclass(frozen=True)
class StepModel:
    """Physical parameters of a step potential.

    V0 = 0 is permitted and reduces every family to the free particle.
    """

    family: Family
    m: float = 1.0
    V0: float = 1.0
    alpha: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if isinstance(self.family, str):
            object.__setattr__(self, "family", Family(self.family))
        for k in ("m", "V0", "alpha", "hbar"):
            if not math.isfinite(getattr(self, k)):
                raise ValidationError(f"model key {k!r} must be finite")
        if not (self.m > 0):
            raise ValidationError("mass m must be positive")
        if self.V0 < 0:
            raise ValidationError("step height V0 must be non-negative")
        if not (self.hbar > 0):
            raise ValidationError("hbar must be positive")
        if self.family is Family.WOODS_SAXON and not (self.alpha > 0):
            raise ValidationError("alpha must be positive for the smooth step")

    # -- construction from / to the JSON configuration schema --------------
    _KEYS = ("family", "m", "V0", "alpha", "hbar")

    @classmethod
    def from_dict(cls, cfg: dict) -> "StepModel":
        unknown = set(cfg) - set(cls._KEYS)
        if unknown:
            raise ValidationError(f"unknown model keys: {sorted(unknown)}")
        if "family" not in cfg:
            raise ValidationError("model config requires 'family'")
        kwargs = {k: cfg[k] for k in cls._KEYS if k in cfg}
        try:
            kwargs["family"] = Family(str(kwargs["family"]).lower())
        except ValueError:
            raise ValidationError(f"unknown family {cfg['family']!r}") from None
        for k in ("m", "V0", "alpha", "hbar"):
            if k in kwargs:
                try:
                    kwargs[k] = float(kwargs[k])
                except (TypeError, ValueError):
                    raise ValidationError(f"model key {k!r} must be a number, "
                                          f"got {cfg[k]!r}") from None
        return cls(**kwargs)

    def to_dict(self) -> dict:
        return {"family": self.family.value, "m": self.m, "V0": self.V0,
                "alpha": self.alpha, "hbar": self.hbar}

    @property
    def k_threshold(self) -> float:
        """sqrt(2 m V0), the momentum separating the spectral branches."""
        return math.sqrt(2.0 * self.m * self.V0)


def _is_scalar(x) -> bool:
    """Real scalar (numpy's float64 too): the scalar-branch inputs."""
    return isinstance(x, (int, float))


def _sigmoid(y):
    """1/(1+e^{-y}) without overflow; y may be a real array or complex.
    A real scalar gets a float from numpy's exp on one float, whose array
    kernel keeps both paths bit-identical (math.exp does not)."""
    if _is_scalar(y):
        t = y if y < 0 else -y
        e = float(np.exp(t))
        return e / (1.0 + e) if y < 0 else 1.0 / (1.0 + e)
    y = np.asarray(y)
    out = np.empty(y.shape, dtype=np.result_type(y, float))
    pos = y.real >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-y[pos]))
    e = np.exp(y[~pos])
    out[~pos] = e / (1.0 + e)
    return out if out.shape else out.item()


def pole_distance(model: StepModel, x) -> np.ndarray:
    """Distance from x to the nearest pole i pi (n+1/2)/alpha (Woods-Saxon)."""
    x = np.asarray(x, dtype=complex)
    spacing = math.pi / model.alpha
    n = np.round(x.imag / spacing - 0.5)
    nearest = 1j * spacing * (n + 0.5)
    return np.abs(x - nearest)


def potential_value(model: StepModel, x):
    """V(x); complex x supported for the Woods-Saxon family only.
    A real scalar x on the smooth step skips the array path."""
    if _is_scalar(x) and model.family is Family.WOODS_SAXON:
        return model.V0 * _sigmoid(2.0 * model.alpha * x)
    x = np.asarray(x)
    if model.family is Family.HEAVISIDE:
        if np.iscomplexobj(x) and np.any(x.imag != 0):
            raise UnsupportedFamilyError(
                "Heaviside potential is undefined at complex positions")
        xr = np.real(x).astype(float)
        out = model.V0 * np.where(xr > 0, 1.0, np.where(xr < 0, 0.0, 0.5))
        return out if out.shape else float(out)
    if (np.iscomplexobj(x)
            and np.any(pole_distance(model, x) < POLE_GUARD / model.alpha)):
        raise PotentialPoleError(
            "position within guard radius of a potential pole")
    return model.V0 * _sigmoid(2.0 * model.alpha * x)


def potential_derivatives(model: StepModel, x):
    """(V, V', V'') for the smooth step; closed forms via V itself.
    Python scalars for a scalar x, arrays of x's shape otherwise."""
    if model.family is not Family.WOODS_SAXON:
        raise UnsupportedFamilyError("derivatives defined for the smooth step")
    v = potential_value(model, x)
    if model.V0 == 0.0:
        z = np.zeros_like(v) if isinstance(v, np.ndarray) else type(v)()
        return v, z, z
    vp = 2.0 * model.alpha * v * (1.0 - v / model.V0)
    vpp = 2.0 * model.alpha * vp * (1.0 - 2.0 * v / model.V0)
    return v, vp, vpp


def singularity_locations(model: StepModel, n_range: tuple[int, int]):
    """Poles x_s = i pi (n+1/2)/alpha for n in the inclusive range."""
    if model.family is not Family.WOODS_SAXON:
        raise UnsupportedFamilyError("Heaviside step has no complex poles")
    n0, n1 = n_range
    return [1j * math.pi * (n + 0.5) / model.alpha for n in range(n0, n1 + 1)]


def rescale(model: StepModel, x0: float, x1: float, T: float, C: float):
    """Scaling map alpha -> C alpha, hbar -> hbar/C, (x0, x1, T) -> /C.

    The propagator is preserved up to its delta-normalization Jacobian:
    G'(x1/C, x0/C; T/C) = C G(x1, x0; T) (G carries units of 1/length).
    Returns (model', x0', x1', T')."""
    if not C > 0:
        raise ValidationError("scale factor C must be positive")
    scaled = replace(model, alpha=model.alpha * C, hbar=model.hbar / C)
    return scaled, x0 / C, x1 / C, T / C
