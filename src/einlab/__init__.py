"""einlab: a laboratory for qubit dephasing against a finite spin environment.

One two-level system, n environment spins, a purely diagonal coupling and
no self-Hamiltonians: the model is exactly solvable, so the package pairs a
closed-form O(n) engine (:mod:`einlab.analytic`) with a brute-force
2^(n+1)-amplitude oracle (:mod:`einlab.oracle`) that check each other.
On top sit seeded ensemble statistics and grid scans
(:mod:`einlab.ensemble`) and a batch CLI (:mod:`einlab.cli`).

The point the numbers make: with random couplings and random spin states
the system's off-diagonal terms collapse quickly and stay negligible for a
very long time, yet the dynamics is exactly reversible and structured
environments (coupling eigenstates, balanced equal couplings) keep or
rapidly recover full coherence.  Decoherence here is a property of the
assumed environment statistics, not of the dynamics alone.
"""

__version__ = "0.2.2"

from .analytic import (
    branch_environment_state,
    branch_overlap,
    coherence_in_basis,
    decoherence_abs_sq,
    decoherence_factor,
    decoherence_series,
    ergodic_prediction,
    reduced_density_matrix,
    state_metrics,
    trace_columns,
)
from .ensemble import (
    EnsembleReport,
    RecurrenceReport,
    SeedStatistics,
    TimeGrid,
    decay_time,
    ensemble_statistics,
    recurrence_search,
    scaling_sweep,
)
from .errors import (
    DimensionMismatchError,
    EinlabError,
    InvalidRangeError,
    MissingKeyError,
    NoDecayError,
    ParseError,
    TooLargeError,
)
from .model import (
    EnvironmentSpec,
    ScenarioKind,
    SystemAmplitudes,
    ValidationReport,
    build_environment_random,
    build_environment_scenario,
    validate,
)
from .oracle import (
    CrosscheckReport,
    FullState,
    assemble_full_state,
    crosscheck,
    evolve_full,
    partial_trace_to_system,
)

__all__ = [
    "__version__",
    "CrosscheckReport",
    "DimensionMismatchError",
    "EinlabError",
    "EnsembleReport",
    "EnvironmentSpec",
    "FullState",
    "InvalidRangeError",
    "MissingKeyError",
    "NoDecayError",
    "ParseError",
    "RecurrenceReport",
    "ScenarioKind",
    "SeedStatistics",
    "SystemAmplitudes",
    "TimeGrid",
    "TooLargeError",
    "ValidationReport",
    "assemble_full_state",
    "branch_environment_state",
    "branch_overlap",
    "build_environment_random",
    "build_environment_scenario",
    "coherence_in_basis",
    "crosscheck",
    "decay_time",
    "decoherence_abs_sq",
    "decoherence_factor",
    "decoherence_series",
    "ensemble_statistics",
    "ergodic_prediction",
    "evolve_full",
    "partial_trace_to_system",
    "recurrence_search",
    "reduced_density_matrix",
    "scaling_sweep",
    "state_metrics",
    "trace_columns",
    "validate",
]
