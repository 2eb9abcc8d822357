"""Entanglement dynamics of two qubits coupled pairwise to a probe qubit.

Simulates three-qubit evolution under pairwise Hamiltonians on pairs (1,3)
and (2,3), detects whether the pair Hamiltonians commute, extracts the
canonical commuting form, and tracks concurrence, tangle, entanglement of
formation and the residual three-way tangle of the non-interacting pair.
"""

from .evolution import (
    eigh_spectra,
    evolve,
    measure_probe_grid,
)
from .hamiltonians import (
    canonical_forms,
    heisenberg_chain,
    qnd_zz,
)
from .measures import (
    concurrence_12,
    report_batch,
)
from .scenarios import (
    ConfigError,
    ScenarioConfig,
    SweepResult,
    emit_csv,
    load_config,
    parse_config,
    property_suite,
    residual_periodicity_check,
    run_sweep,
    suite_names,
)
from .states import (
    axis_eigenbases,
    bipartite_12,
    bipartite_13,
    bipartite_23,
    fully_separable,
    ghz_general,
    raw_amplitudes,
    triple,
    zrt,
)

__version__ = "0.1.0"
