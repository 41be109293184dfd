"""Exception hierarchy for stepprop.

Numerical failures are never silent: every routine that can fail to converge
raises one of these instead of returning a degraded value.
"""


class StepPropError(Exception):
    """Base class for all stepprop errors."""


class ValidationError(StepPropError):
    """Invalid model parameters or configuration (CLI exit code 2)."""


class GammaPoleError(StepPropError):
    """2F1 parameter c at a non-positive integer, a pole of Gamma(c)."""


class SeriesConvergenceError(StepPropError):
    """Hypergeometric series failed to reach tolerance within the term cap,
    or the alternating series lost too many digits to cancellation."""


class PotentialPoleError(StepPropError):
    """Complex position within the guard radius of a potential pole."""


class UnsupportedFamilyError(StepPropError):
    """Operation not defined for this potential family."""


class BranchMismatchError(StepPropError):
    """Eigenstate branch incompatible with the requested energy."""


class QuadratureError(StepPropError):
    """Adaptive quadrature or ODE integration could not meet the tolerance
    within its budget."""


class NonFiniteError(StepPropError):
    """A spectral weight or a propagated amplitude came out inf or nan."""


class BranchDegenerateError(StepPropError):
    """Classical implicit solution evaluated at a degenerate energy (E = 0 or V0)."""


class RootBracketError(StepPropError):
    """Root finding could not bracket a solution."""


class NewtonError(StepPropError):
    """Damped complex Newton iteration failed to converge."""


class CausticDivergenceError(StepPropError):
    """Van Vleck factor requested at (or too close to) a caustic, |dT/dE| ~ 0."""


class NoTopologicalSaddleError(StepPropError):
    """No real energy above the step reproduces the requested propagation time."""


class InsideCausticError(StepPropError):
    """Stokes-region classification requested inside the caustic loop."""


class GridTooCoarseError(StepPropError):
    """Oracle grid cannot represent the packet's momentum content."""
