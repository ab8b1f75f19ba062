"""Computational free probability for a single selfadjoint variable.

The package computes logarithmic energies of compactly supported
spectral measures, Voiculescu's free entropy, the free Hausdorff
dimension, and two-sided bounds on the free Hausdorff entropy, together
with the diagonal microstate constructions and Selberg-integral
asymptotics those bounds rest on.
"""

__version__ = "0.1.0"

# Nothing in the package calls _quad, but the benchmark's tracer
# (perfbench/tracing.py) looks its functions up in sys.modules after
# importing freeprob.cli, so the package still loads it.
from . import _quad  # noqa: F401

# The public surface is each module's __all__; a submodule import also
# binds the module's name here.
from .asymptotics import *
from .energy import *
from .entropy import *
from .measures import *
from .microstates import *

__all__ = ["__version__", *asymptotics.__all__, *energy.__all__,
           *entropy.__all__, *measures.__all__, *microstates.__all__]
