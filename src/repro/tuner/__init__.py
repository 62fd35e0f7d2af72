"""The crossover autotuner (``repro-bench tune``).

The paper fixes one collective algorithm per (machine, op); this
package races the machine's fixed 1996 choice against the algorithm
zoo over a (machine, op, m, p) grid, fits per-(machine, op) crossover
points in message size and communicator size, and emits the canonical
byte-stable ``BENCH_tuning.json`` decision table.  Loading that table
(``MachineSpec.with_decision_table`` / ``repro-bench sweep
--decision-table``) flips cells to whichever algorithm measured
fastest; with no table loaded nothing anywhere changes.

Quickstart::

    from repro.core.canonical import write
    from repro.tuner import run_tune

    result = run_tune(["sp2", "t3d", "paragon"], grid="paper")
    write(result.artifact(), "BENCH_tuning.json")
    print(result.summary())
"""

from .candidates import (
    CANDIDATES,
    TUNE_GRIDS,
    TUNE_OPS,
    candidate_algorithms,
    tune_grid,
)
from .fit import fit_decision_table
from .sweep import TuneResult, run_tune, tune_cells
from .table import (
    TUNING_SCHEMA,
    DecisionEntry,
    DecisionRule,
    DecisionTable,
    build_tuning_artifact,
    dumps_tuning,
    load_decision_table,
)

__all__ = [
    "CANDIDATES",
    "DecisionEntry",
    "DecisionRule",
    "DecisionTable",
    "TUNE_GRIDS",
    "TUNE_OPS",
    "TUNING_SCHEMA",
    "TuneResult",
    "build_tuning_artifact",
    "candidate_algorithms",
    "dumps_tuning",
    "fit_decision_table",
    "load_decision_table",
    "run_tune",
    "tune_cells",
    "tune_grid",
]
