"""Parallel sweep runner with content-addressed result caching.

The machinery behind ``repro-bench sweep``/``repro-bench diff``:

* :mod:`~repro.runner.shard` — grid presets, canonical cell
  enumeration, round-robin sharding;
* :mod:`~repro.runner.fingerprint` — cache keys hashed from the
  machine spec, algorithm, protocol, and simulator version;
* :mod:`~repro.runner.cache` — the on-disk content-addressed store;
* :mod:`~repro.runner.pool` — the worker-pool engine (and the
  vectorized closed-form fast paths);
* :mod:`~repro.runner.artifact` — byte-stable ``BENCH_sweep.json``
  documents and the baseline diff gate.

Quickstart::

    from repro.runner import SweepConfig, preset_grid, run_sweep

    grid = preset_grid("smoke")
    result = run_sweep(grid.cells(), SweepConfig(workers=4))
    print(result.summary())
"""

from .artifact import (
    VOLATILE_RESULT_FIELDS,
    scrub_volatile,
    ARTIFACT_SCHEMA,
    ArtifactDiff,
    build_artifact,
    diff_artifacts,
)
from .cache import CacheStats, ResultCache, default_cache_dir
from .fingerprint import (
    canonical_json,
    cell_fingerprint,
    spec_fingerprint,
    to_jsonable,
)
from .pool import (
    SWEEP_MODES,
    SweepConfig,
    SweepResult,
    evaluate_cell,
    run_sweep,
    validate_cell_algorithms,
)
from .shard import (
    GRID_PRESETS,
    SweepCell,
    SweepGrid,
    preset_grid,
    shard_cells,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "ArtifactDiff",
    "CacheStats",
    "GRID_PRESETS",
    "ResultCache",
    "SWEEP_MODES",
    "SweepCell",
    "SweepConfig",
    "SweepGrid",
    "SweepResult",
    "VOLATILE_RESULT_FIELDS",
    "build_artifact",
    "canonical_json",
    "cell_fingerprint",
    "default_cache_dir",
    "diff_artifacts",
    "evaluate_cell",
    "preset_grid",
    "run_sweep",
    "scrub_volatile",
    "shard_cells",
    "spec_fingerprint",
    "to_jsonable",
    "validate_cell_algorithms",
]
