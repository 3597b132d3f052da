"""Discrete-time quantum walks on a line with an optional spin-flip defect.

The package covers the full pipeline: initial states (local or truncated
Gaussian envelopes under any Bloch qubit), fast recurrence-based
evolution, observables (position statistics and spin-position
entanglement entropy), qubit-grid ensembles with averaged series and
dispersion-slope fits, a per-site ring walk as the reference for
cross-checking, and a CSV-emitting command line.
"""

from .core import (
    HADAMARD_MATRIX,
    NOT_MATRIX,
    SQRT1_2,
    CoinSpec,
    InitialStateSpec,
    LatticeWindow,
    QubitParams,
    WalkState,
    build_initial_state,
    coin_matrix,
    gaussian_envelope,
)
from .ensemble import (
    EnsembleResult,
    QubitGrid,
    WalkRecord,
    fit_dispersion_slope,
    make_qubit_grid,
    run_ensemble,
    run_walk,
)
from .evolution import (
    EvolutionPlan,
    WindowOverflowError,
    evolve,
    prepared,
    reachable_window,
    recorded_steps,
    step,
)
from .observables import (
    PositionDistribution,
    distribution,
    dispersion,
    entanglement_entropy,
    far_peak_weight,
    outer_peak_distance,
    peak_sites,
)
from .oracle import ring_evolve, ring_matrix

__version__ = "0.1.0"

__all__ = [
    "SQRT1_2",
    "HADAMARD_MATRIX",
    "NOT_MATRIX",
    "QubitParams",
    "LatticeWindow",
    "CoinSpec",
    "InitialStateSpec",
    "WalkState",
    "coin_matrix",
    "gaussian_envelope",
    "build_initial_state",
    "EvolutionPlan",
    "WindowOverflowError",
    "reachable_window",
    "prepared",
    "step",
    "recorded_steps",
    "evolve",
    "PositionDistribution",
    "distribution",
    "dispersion",
    "entanglement_entropy",
    "peak_sites",
    "outer_peak_distance",
    "far_peak_weight",
    "QubitGrid",
    "WalkRecord",
    "EnsembleResult",
    "make_qubit_grid",
    "run_walk",
    "run_ensemble",
    "fit_dispersion_slope",
    "ring_evolve",
    "ring_matrix",
    "__version__",
]
