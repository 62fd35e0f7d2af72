"""The parallel sweep engine.

:func:`run_sweep` takes a cell list, consults the content-addressed
:class:`~repro.runner.cache.ResultCache`, and evaluates only the cells
the cache cannot answer:

* ``sim`` and ``predict`` modes shard the missing cells round-robin
  across a ``multiprocessing`` pool: ``sim`` runs the measurement
  protocol per cell, ``predict`` simulates one warm, fenced call with
  the software jitter off (:func:`~repro.core.predict_collective`);
* ``model`` mode groups cells by (machine, op, p) and evaluates each
  group's whole message-size vector in one call to the paper's
  Table 3 expressions (:meth:`TimingExpression.evaluate_grid`) — no
  pool needed.

Determinism: a cell's result depends only on the cell and the
measurement protocol (all simulation seeds derive from them), never on
which worker computed it or in what order, so any worker count — and
any warm/cold cache state — produces bit-identical sweep results.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core import (
    QUICK_CONFIG,
    MeasurementConfig,
    measure_collective,
    paper_expression,
    predict_collective,
)
from ..core.canonical import round9
from ..faults import FaultPlan
from ..machines import get_machine_spec
from .cache import ResultCache
from .fingerprint import cell_fingerprint
from .shard import SweepCell, shard_cells

__all__ = ["SWEEP_MODES", "SweepConfig", "SweepResult", "evaluate_cell",
           "run_sweep", "validate_cell_algorithms"]

#: ``sim`` runs the paper's measurement protocol on the simulator;
#: ``predict`` the simulator's noise-free time of one warm call;
#: ``model`` the paper's Table 3 expressions.
SWEEP_MODES = ("sim", "predict", "model")


@dataclass(frozen=True)
class SweepConfig:
    """How to run a sweep: mode, parallelism, protocol, caching."""

    mode: str = "sim"
    workers: int = 1
    measurement: MeasurementConfig = QUICK_CONFIG
    cache_dir: Optional[str] = None
    use_cache: bool = True
    #: Per-cell wall-clock budget (seconds).  A shard that exceeds
    #: ``cell_timeout_s * len(shard)`` is presumed stuck or its worker
    #: crashed: its cells are requeued one at a time, and a cell that
    #: fails alone is quarantined instead of sinking the sweep.
    #: ``None`` disables the watchdog (a crashed worker then hangs the
    #: sweep, as a plain pool would).
    cell_timeout_s: Optional[float] = None
    #: Attach a per-cell critical-path component breakdown (software /
    #: wire / contention / fault-recovery) to every result.  Requires a
    #: traced run per cell, so it is ``sim``-mode only and opt-in.
    breakdown: bool = False

    def __post_init__(self) -> None:
        if self.mode not in SWEEP_MODES:
            raise ValueError(f"unknown sweep mode {self.mode!r}; "
                             f"expected one of {SWEEP_MODES}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ValueError(f"cell_timeout_s must be > 0, got "
                             f"{self.cell_timeout_s}")
        if self.breakdown and self.mode != "sim":
            raise ValueError("breakdown requires mode='sim' (only the "
                             "measurement protocol is traced)")

    def cell_config(self) -> Optional[MeasurementConfig]:
        """The protocol that keys cache entries (``None`` off the
        measurement protocol — a prediction and the Table 3 forms take
        no protocol knobs)."""
        return self.measurement if self.mode == "sim" else None


@dataclass
class SweepResult:
    """Everything one sweep produced, keyed by cell."""

    cells: Tuple[SweepCell, ...]
    results: Dict[SweepCell, Dict[str, float]]
    fingerprints: Dict[SweepCell, str]
    cache_hits: int = 0
    evaluated: int = 0
    elapsed_s: float = 0.0
    #: Cells that failed or timed out even alone, with the reason.
    #: They have no entry in ``results`` and are never cached.
    quarantined: Dict[SweepCell, str] = field(default_factory=dict)
    #: Cells resubmitted individually after their shard failed.
    requeued: int = 0

    def summary(self) -> str:
        text = (f"{len(self.cells)} cells, {self.evaluated} evaluated, "
                f"{self.cache_hits} cache hits, {self.elapsed_s:.2f} s")
        if self.quarantined:
            text += f", {len(self.quarantined)} quarantined"
        return text


def _cell_breakdown(cell: SweepCell,
                    config: MeasurementConfig) -> Dict[str, object]:
    """One traced run's critical-path components for a sweep cell."""
    from ..obs.capture import capture_collective

    capture = capture_collective(
        cell.machine, cell.op, nbytes=cell.nbytes, num_nodes=cell.p,
        iterations=1, seed=config.seed, contention=config.contention,
        metrics=False, faults=config.faults)
    path = capture.critical_path()
    return {
        "components": {name: round9(value)
                       for name, value in path.components.items()},
        "total_us": round9(path.total_us),
        "steps": len(path.steps),
    }


def evaluate_cell(cell: SweepCell, config: Optional[MeasurementConfig],
                  breakdown: bool = False) -> Dict[str, float]:
    """Simulate one cell from scratch (no cache involved).

    ``config`` is the measurement protocol, or ``None`` for the
    ``predict`` mode's one warm call.  The ``model`` mode never comes
    here: :func:`run_sweep` evaluates it a whole message-size row at a
    time (:func:`_evaluate_batched`).
    """
    machine: object = cell.machine
    if cell.algorithm:
        # Per-cell override: race this algorithm instead of the
        # machine's fixed choice (the tuner's candidate sweeps).
        spec = get_machine_spec(cell.machine)
        machine = dataclasses.replace(
            spec, algorithms={**dict(spec.algorithms),
                              cell.op: cell.algorithm})
    if config is None:
        return {"time_us": predict_collective(machine, cell.op,
                                              cell.nbytes, cell.p)}
    sample = measure_collective(machine, cell.op, cell.nbytes, cell.p,
                                config)
    result = {
        "time_us": sample.time_us,
        "run_times_us": list(sample.run_times_us),
        "process_min_us": sample.process_min_us,
        "process_mean_us": sample.process_mean_us,
        "process_max_us": sample.process_max_us,
    }
    if breakdown:
        result["breakdown"] = _cell_breakdown(cell, config)
    return result


def _rebuild_config(config_kwargs: Dict[str, object]
                    ) -> Optional[MeasurementConfig]:
    """Rebuild a MeasurementConfig from its pickled plain-dict form.

    ``dataclasses.asdict`` flattens a nested :class:`FaultPlan` into
    dicts; restore it so workers inject the same faults the parent
    configured.
    """
    if not config_kwargs:
        return None
    kwargs = dict(config_kwargs)
    faults = kwargs.get("faults")
    if isinstance(faults, Mapping):
        kwargs["faults"] = FaultPlan.from_dict(faults)
    return MeasurementConfig(**kwargs)


def _evaluate_shard(task: Tuple[Tuple[Tuple[str, str, int, int], ...],
                                Dict[str, object], bool]
                    ) -> List[Tuple[Tuple[str, str, int, int],
                                    Dict[str, float]]]:
    """Worker entry point: simulate one shard of cells.

    Takes/returns plain tuples and dicts so the payload pickles under
    any multiprocessing start method.
    """
    cell_tuples, config_kwargs, breakdown = task
    config = _rebuild_config(config_kwargs)
    return [(cell_tuple,
             evaluate_cell(SweepCell(*cell_tuple), config, breakdown))
            for cell_tuple in cell_tuples]


def _shard_task(shard: Sequence[SweepCell],
                config_kwargs: Dict[str, object], breakdown: bool):
    return (tuple(dataclasses.astuple(cell) for cell in shard),
            config_kwargs, breakdown)


def _evaluate_parallel(cells: Sequence[SweepCell],
                       config: SweepConfig
                       ) -> Tuple[Dict[SweepCell, Dict[str, float]],
                                  Dict[SweepCell, str], int]:
    """Fan simulated cells out across a worker pool.

    Returns ``(results, quarantined, requeued)``.  A shard whose worker
    raises, crashes, or blows its time budget is split and resubmitted
    one cell at a time (crash/hang detection needs
    ``config.cell_timeout_s``; exceptions are caught either way); a
    cell that fails alone lands in ``quarantined`` with the reason
    rather than aborting the sweep.
    """
    cell_config = config.cell_config()
    config_kwargs = {} if cell_config is None \
        else dataclasses.asdict(cell_config)
    results: Dict[SweepCell, Dict[str, float]] = {}
    quarantined: Dict[SweepCell, str] = {}
    requeued = 0
    shards = [tuple(shard)
              for shard in shard_cells(tuple(cells), config.workers)
              if shard]
    if config.workers == 1 and config.cell_timeout_s is None:
        # In-process fast path: no pool, but the same per-cell
        # quarantine semantics.
        for cell in cells:
            try:
                results[cell] = evaluate_cell(cell, cell_config,
                                              config.breakdown)
            except Exception as exc:
                quarantined[cell] = repr(exc)
        return results, quarantined, requeued
    with multiprocessing.Pool(processes=config.workers) as pool:
        pending: List[Tuple[SweepCell, ...]] = shards
        while pending:
            batch, pending = pending, []
            handles = [
                (shard, pool.apply_async(
                    _evaluate_shard,
                    (_shard_task(shard, config_kwargs,
                                 config.breakdown),)))
                for shard in batch
            ]
            for shard, handle in handles:
                failure = None
                output = None
                try:
                    if config.cell_timeout_s is None:
                        output = handle.get()
                    else:
                        budget = config.cell_timeout_s * len(shard)
                        output = handle.get(timeout=budget)
                except multiprocessing.TimeoutError:
                    failure = (f"timed out after "
                               f"{config.cell_timeout_s * len(shard):g} s "
                               f"(worker stuck or crashed)")
                except Exception as exc:
                    failure = repr(exc)
                if output is not None:
                    for cell_tuple, result in output:
                        results[SweepCell(*cell_tuple)] = result
                elif len(shard) > 1:
                    # Isolate the poison cell: retry one at a time.
                    requeued += len(shard)
                    pending.extend((cell,) for cell in shard)
                else:
                    quarantined[shard[0]] = failure or "unknown failure"
    return results, quarantined, requeued


def _evaluate_batched(cells: Sequence[SweepCell]
                      ) -> Tuple[Dict[SweepCell, Dict[str, float]],
                                 Dict[SweepCell, str]]:
    """``model`` mode: vectorize each (machine, op, p) row's sizes.

    Returns ``(results, quarantined)`` — a row whose closed form raises
    quarantines its cells with the reason instead of sinking the sweep,
    matching the simulation path's per-cell semantics.
    """
    rows: Dict[Tuple[str, str, int], List[int]] = {}
    for cell in cells:
        rows.setdefault((cell.machine, cell.op, cell.p),
                        []).append(cell.nbytes)
    results: Dict[SweepCell, Dict[str, float]] = {}
    quarantined: Dict[SweepCell, str] = {}
    for (machine, op, p), sizes in sorted(rows.items()):
        sizes = sorted(set(sizes))
        try:
            times = paper_expression(machine, op).evaluate_grid(
                sizes, (p,))[0]
        except Exception as exc:
            for nbytes in sizes:
                quarantined[SweepCell(machine, op, nbytes, p)] = repr(exc)
            continue
        for nbytes, time_us in zip(sizes, times):
            results[SweepCell(machine, op, nbytes, p)] = \
                {"time_us": float(time_us)}
    return results, quarantined


def validate_cell_algorithms(cells: Sequence[SweepCell], mode: str = "sim",
                             breakdown: bool = False) -> None:
    """Reject bad per-cell algorithm overrides before any work starts.

    An unknown name (a hand-edited decision table, a stale file) must
    surface as a clean :class:`ValueError` naming the known algorithms
    — not as a raw ``KeyError`` traceback from ``get_algorithm`` deep
    inside a worker mid-sweep.  Overrides are refused in ``model`` mode
    (the Table 3 forms are keyed to the machines' fixed algorithms) and
    with the breakdown capture path.
    """
    overridden = sorted({cell.algorithm for cell in cells
                         if cell.algorithm})
    if not overridden:
        return
    if mode == "model":
        raise ValueError(
            "per-cell algorithm overrides need a simulated mode; mode "
            "'model' evaluates Table 3 forms keyed to the machines' "
            "fixed algorithms")
    if breakdown:
        raise ValueError("per-cell algorithm overrides are incompatible "
                         "with breakdown=True (the capture path runs "
                         "the machine's fixed algorithm)")
    from ..mpi.collectives import algorithm_names

    known = sorted(algorithm_names())
    unknown = sorted(set(overridden) - set(known))
    if unknown:
        raise ValueError(
            f"unknown collective algorithm(s) {', '.join(unknown)}; "
            f"known algorithms: {', '.join(known)}")


def run_sweep(cells: Sequence[SweepCell],
              config: Optional[SweepConfig] = None,
              cache: Optional[ResultCache] = None) -> SweepResult:
    """Run a sweep over ``cells``, reusing every cached cell.

    Results are returned (and cached) per cell; the cell list is
    deduplicated and sorted first, so the output is independent of
    input order, worker count, and cache temperature.
    """
    config = config or SweepConfig()
    ordered = tuple(sorted(set(cells)))
    validate_cell_algorithms(ordered, config.mode, config.breakdown)
    if cache is None:
        root = config.cache_dir
        cache = ResultCache(root) if root else ResultCache()
        cache.enabled = config.use_cache
    specs = {name: get_machine_spec(name)
             for name in sorted({cell.machine for cell in ordered})}
    cell_config = config.cell_config()
    fingerprints = {
        cell: cell_fingerprint(specs[cell.machine], cell.op,
                               cell.nbytes, cell.p, cell_config,
                               config.mode, config.breakdown,
                               algorithm=cell.algorithm or None)
        for cell in ordered
    }

    started = time.perf_counter()
    results: Dict[SweepCell, Dict[str, float]] = {}
    missing: List[SweepCell] = []
    for cell in ordered:
        payload = cache.get(fingerprints[cell])
        if payload is not None and "result" in payload:
            results[cell] = payload["result"]
        else:
            missing.append(cell)

    quarantined: Dict[SweepCell, str] = {}
    requeued = 0
    if missing:
        if config.mode == "model":
            computed, quarantined = _evaluate_batched(missing)
        else:
            computed, quarantined, requeued = \
                _evaluate_parallel(missing, config)
        for cell in missing:
            if cell in quarantined:
                continue
            results[cell] = computed[cell]
            cache.put(fingerprints[cell], {
                "cell": dataclasses.asdict(cell),
                "mode": config.mode,
                "result": computed[cell],
            })

    return SweepResult(
        cells=ordered,
        results=results,
        fingerprints=fingerprints,
        cache_hits=len(ordered) - len(missing),
        evaluated=len(missing) - len(quarantined),
        elapsed_s=time.perf_counter() - started,
        quarantined=quarantined,
        requeued=requeued,
    )
