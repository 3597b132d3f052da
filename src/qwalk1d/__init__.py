"""Discrete-time quantum walks on a line with an optional spin-flip defect.

The package covers the full pipeline: initial states (local or truncated
Gaussian envelopes under any Bloch qubit), fast recurrence-based
evolution, observables (position statistics and spin-position
entanglement entropy), qubit-grid ensembles with averaged series and
dispersion-slope fits, and a CSV-emitting command line.  It holds only
what a run reaches; the per-site ring walk that cross-checks the engine
lives with the tests.  The package exports exactly the ``__all__`` of
each module below.
"""

from . import core, ensemble, evolution, observables
from .core import *
from .ensemble import *
from .evolution import *
from .observables import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *evolution.__all__,
    *observables.__all__,
    *ensemble.__all__,
    "__version__",
]
