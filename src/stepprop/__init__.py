"""stepprop: real-time propagators, classical saddles, and action
spectroscopy for smooth (Woods-Saxon) and sharp (Heaviside) step potentials.
"""

from .potential import Family, StepModel, potential_value, rescale
from .classical import BoundarySpec, ClassicalSaddle, SaddleKind
from .propagator import (PropagatorRow, PropagatorSample, QuadratureConfig,
                         propagate)
from .spectroscopy import OmegaWindow, SpectrumSeries

__version__ = "0.1.0"

__all__ = ["Family", "StepModel", "potential_value", "rescale",
           "BoundarySpec", "ClassicalSaddle", "SaddleKind",
           "PropagatorRow", "PropagatorSample", "QuadratureConfig",
           "propagate",
           "OmegaWindow", "SpectrumSeries", "__version__"]
