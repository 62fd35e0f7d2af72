"""The paper-campaign jobs the end-to-end benchmark times.

Each workload is one fixed job that goes through the entry points users
call (``run_sweep``, ``run_tune``, ``audit_artifact``) at the paper's
k=20 / 2-warm-up / 5-run protocol, against an empty result cache.
``run.py`` starts this file in a fresh interpreter for every job::

    python campaign.py <workload> --seed N --cache-dir DIR [--mode M]

It prints one JSON object: wall time, peak memory, the model error
against Table 3, a digest of every simulated run time and the output
checks.  The mode says how the job runs:

* ``measure`` (the default): as users run it, with the reference
  kernel of :mod:`hostspeed` interleaved, so that ``wall_s`` is the
  job's time at the nominal host speed;
* ``pair``: plain, with ``tune-cold`` on one worker, as the untraced
  partner of a ``trace`` job;
* ``trace``: as ``pair``, under cProfile and with a ``WorkMeter`` on
  every simulated world; adds self time per layer and work counters.

``probe.py`` times the set-up a job does before it simulates:
:func:`plan` and :func:`fingerprints`.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import hashlib
import json
import math
import pstats
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import repro.tuner.sweep as tuner_sweep
from repro.core import MeasurementConfig
from repro.faults import fault_preset
from repro.machines import get_machine_spec
from repro.mpi.world import MpiWorld
from repro.obs.drift import audit_artifact
from repro.obs.perf import WorkMeter
from repro.runner import (SweepCell, SweepConfig, SweepGrid, SweepResult,
                          build_artifact, cell_fingerprint, run_sweep)
from repro.tuner import dumps_tuning, tune_cells, tune_grid

import attribution
import hostspeed

WORKLOADS = ("fig1-startup", "table3-alltoall", "tune-cold", "chaos-faults")
MODES = ("measure", "pair", "trace")

MACHINES = ("sp2", "t3d", "paragon")

#: The paper's protocol (Section 2), written out rather than taken from
#: ``PAPER_CONFIG`` so that a change of the library's defaults cannot
#: move the benchmark's numbers.
ITERATIONS, WARMUP_ITERATIONS, RUNS = 20, 2, 5

FIG1_GRID = SweepGrid(name="fig1-startup",
                      machines=MACHINES,
                      ops=("broadcast", "scatter", "gather", "scan",
                           "reduce"),
                      message_sizes=(4,),
                      machine_sizes=(2, 4, 8, 16),
                      include_barrier=True)

#: Fig. 1's largest machines: broadcast and reduce at p=128 on sp2 and
#: paragon and at p=64, the largest Fig. 1 size, on t3d.
FIG1_LARGE_P = tuple(SweepCell(machine, op, 4, 64 if machine == "t3d" else 128)
                     for machine in MACHINES
                     for op in ("broadcast", "reduce"))

TABLE3_GRID = SweepGrid(name="table3-alltoall",
                        machines=MACHINES,
                        ops=("alltoall",),
                        message_sizes=(65536,),
                        machine_sizes=(8, 16))

#: The two machines of the repository's ``smoke`` sweep grid.
TUNE_MACHINES = ("sp2", "t3d")
TUNE_GRID = "smoke"
TUNE_WORKERS = 2

#: (fault preset, [(op, bytes, p)]) run on every machine.
CHAOS_PLANS: Tuple[Tuple[str, Tuple[Tuple[str, int, int], ...]], ...] = (
    ("chaos", (("broadcast", 65536, 16), ("reduce", 1024, 16),
               ("scan", 4, 8), ("alltoall", 1024, 8))),
    ("midflight-outage", (("broadcast", 65536, 16),)),
)


def protocol(seed: int, faults: Optional[str] = None) -> MeasurementConfig:
    """The paper's measurement protocol with the benchmark's seed."""
    return MeasurementConfig(
        iterations=ITERATIONS, warmup_iterations=WARMUP_ITERATIONS,
        runs=RUNS, seed=seed, contention=True,
        faults=fault_preset(faults) if faults else None)


@dataclass(frozen=True)
class Sweep:
    """One ``run_sweep`` call of a job: a label, its cells and config."""

    label: str
    cells: Tuple[SweepCell, ...]
    config: SweepConfig


def plan(workload: str, seed: int, cache_dir: Optional[str] = None,
         serial: bool = False,
         cells: Optional[Sequence[SweepCell]] = None) -> Tuple[Sweep, ...]:
    """The sweeps ``workload`` runs.

    ``cells`` replaces a sweep workload's cells; the consistency test
    uses it for a cheap in-process smoke.  ``serial`` runs the tune on
    one worker, so that cProfile sees every cell.
    """
    def sweep(label, grid_cells, workers=1, faults=None):
        config = SweepConfig(mode="sim", workers=workers,
                             measurement=protocol(seed, faults),
                             cache_dir=cache_dir)
        chosen = grid_cells if cells is None else cells
        return Sweep(label, tuple(sorted(set(chosen))), config)

    if workload == "fig1-startup":
        return (sweep("fig1-startup", [*FIG1_GRID.cells(), *FIG1_LARGE_P]),)
    if workload == "table3-alltoall":
        return (sweep("table3-alltoall", TABLE3_GRID.cells()),)
    if workload == "tune-cold":
        return (sweep(TUNE_GRID,
                      tune_cells(TUNE_MACHINES, tune_grid(TUNE_GRID)),
                      workers=1 if serial else TUNE_WORKERS),)
    if workload == "chaos-faults":
        return tuple(
            sweep(preset, [SweepCell(machine, op, nbytes, p)
                           for machine in MACHINES
                           for op, nbytes, p in shapes], faults=preset)
            for preset, shapes in CHAOS_PLANS)
    raise ValueError(f"unknown workload {workload!r}; known: "
                     f"{', '.join(WORKLOADS)}")


#: One finished sweep: its label, result and the config it ran under.
Ran = Tuple[str, SweepResult, SweepConfig]


def fingerprints(sweeps: Sequence[Sweep]) -> List[str]:
    """The cache key of every cell, as ``run_sweep`` derives them."""
    keys = []
    for sweep in sweeps:
        config = sweep.config
        for cell in sweep.cells:
            keys.append(cell_fingerprint(
                get_machine_spec(cell.machine), cell.op, cell.nbytes,
                cell.p, config.cell_config(), config.mode,
                config.breakdown, algorithm=cell.algorithm or None))
    return keys


@contextlib.contextmanager
def _patched(owner, name: str, wrap) -> Iterator[None]:
    original = getattr(owner, name)
    setattr(owner, name, wrap(original))
    try:
        yield
    finally:
        setattr(owner, name, original)


def _metering(meters: List[WorkMeter]):
    """``MpiWorld.__init__`` wrapper giving every world its own meter."""
    def wrap(init):
        def metered_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            meter = WorkMeter()
            self.env.work = meter
            meters.append(meter)
        return metered_init
    return wrap


def _capturing(captured: List[Tuple[SweepResult, SweepConfig]]):
    """``run_sweep`` wrapper keeping each result the tuner gets."""
    def wrap(run):
        def capturing_run(cells, config=None, cache=None):
            result = run(cells, config, cache)
            captured.append((result, config))
            return result
        return capturing_run
    return wrap


def sim_digest(results: Sequence[Ran]) -> str:
    """sha256 over the sorted cell keys and their ``run_times_us``."""
    lines = sorted(
        f"{label}/{cell.key()} "
        + ",".join(repr(float(t))
                   for t in result.results[cell]["run_times_us"])
        for label, result, _ in results for cell in result.results)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _positive(value: float) -> bool:
    return math.isfinite(value) and value > 0


def _cell_checks(results: Sequence[Ran]) -> Dict[str, bool]:
    cells = [cell for _, result, _ in results
             for cell in result.results.values()]
    return {
        "cell-time-finite-positive": all(_positive(cell["time_us"])
                                         for cell in cells),
        "cell-has-5-run-times": all(
            len(cell["run_times_us"]) == RUNS
            and all(map(_positive, cell["run_times_us"])) for cell in cells),
    }


def _audit(results: Sequence[Ran]) -> List[float]:
    """|T_sim - T_Table3| / T_Table3 of every cell Table 3 covers.

    Tuner candidates other than the machine's own algorithm are left
    out: Table 3 fits only the algorithms the machines shipped.
    """
    errors: List[float] = []
    for label, result, config in results:
        artifact = build_artifact(result, label, config)
        artifact["cells"] = [
            entry for entry in artifact["cells"]
            if entry.get("algorithm", "") in (
                "", get_machine_spec(entry["machine"]).algorithms.get(
                    entry["op"]))]
        errors.extend(abs(cell.rel_error)
                      for cell in audit_artifact(artifact).cells)
    return errors


def _run(workload: str, sweeps: Sequence[Sweep]) -> Dict[str, object]:
    """Run the job's sweeps; return results and what the checks need."""
    out: Dict[str, object] = {"results": [], "checks": {}}
    if workload != "tune-cold":
        for sweep in sweeps:
            out["results"].append((sweep.label,
                                   run_sweep(sweep.cells, sweep.config),
                                   sweep.config))
        return out

    (sweep,) = sweeps
    config = sweep.config
    captured: List[Tuple[SweepResult, SweepConfig]] = []
    with _patched(tuner_sweep, "run_sweep", _capturing(captured)):
        cold = tuner_sweep.run_tune(
            TUNE_MACHINES, TUNE_GRID, config=config.measurement,
            workers=config.workers, cache_dir=config.cache_dir)
        started = time.perf_counter()
        warm = tuner_sweep.run_tune(
            TUNE_MACHINES, TUNE_GRID, config=config.measurement,
            workers=config.workers, cache_dir=config.cache_dir)
        out["warm_rerun_s"] = time.perf_counter() - started
    out["results"].append((sweep.label, *captured[0]))
    out["warm_cells"] = warm.cells
    out["warm_hits"] = warm.cache_hits
    checks = out["checks"]
    checks["warm-pass-all-cache-hits"] = \
        warm.cells > 0 and warm.cache_hits == warm.cells
    checks["warm-artifact-identical"] = \
        dumps_tuning(warm.artifact()) == dumps_tuning(cold.artifact())
    try:
        cold.table.validate()
        checks["decision-table-valid"] = True
    except ValueError:
        checks["decision-table-valid"] = False
    return out


def _peak_rss_mb() -> float:
    """Largest resident set of this process and its pool workers."""
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kb / 1024.0


def run_job(workload: str, seed: int, cache_dir: str, mode: str = "measure",
            cells: Optional[Sequence[SweepCell]] = None
            ) -> Dict[str, object]:
    """Run one job in ``mode`` (see the module docstring) and report
    what ``run.py`` turns into metrics."""
    trace = mode == "trace"
    sweeps = plan(workload, seed, cache_dir, serial=mode != "measure",
                  cells=cells)
    meters: List[WorkMeter] = []
    profile = cProfile.Profile()
    speed: Dict[str, Optional[float]] = {"kernel_s": None}
    with contextlib.ExitStack() as stack:
        if trace:
            stack.enter_context(
                _patched(MpiWorld, "__init__", _metering(meters)))
            stack.enter_context(profile)
        if mode == "measure":
            speed = stack.enter_context(hostspeed.interleaved())
        started = time.perf_counter()
        out = _run(workload, sweeps)
        host_wall_s = time.perf_counter() - started

    results = out["results"]
    checks = {**_cell_checks(results), **out["checks"]}
    failed = sum(len(result.quarantined) for _, result, _ in results)
    checks["no-failed-cells"] = failed == 0
    errors = _audit(results)
    checks["audit-covers-cells"] = bool(errors)
    attempted = sum(len(result.cells) for _, result, _ in results)
    kernel_s = speed["kernel_s"]
    report: Dict[str, object] = {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "host_wall_s": host_wall_s,
        "kernel_s": kernel_s,
        "wall_s": (host_wall_s if kernel_s is None
                   else hostspeed.rescale(host_wall_s, kernel_s)),
        "peak_rss_mb": _peak_rss_mb(),
        "attempted": attempted + out.get("warm_cells", 0),
        "failed": failed,
        "cells_evaluated": sum(result.evaluated
                               for _, result, _ in results),
        "sim_digest": sim_digest(results),
        "max_abs_rel_err": max(errors) if errors else 0.0,
        "median_abs_rel_err": statistics.median(errors) if errors else 0.0,
        "warm_rerun_s": out.get("warm_rerun_s", 0.0),
        "warm_hit_ratio": (out["warm_hits"] / out["warm_cells"]
                           if out.get("warm_cells") else 0.0),
        "checks": checks,
    }
    if trace:
        stats = pstats.Stats(profile).stats
        report["layers"] = attribution.attribute(stats)
        report["entry_points"] = attribution.entry_points(stats)
        report["work"] = merge_meters(meters)
    return report


def merge_meters(meters: Sequence[WorkMeter]) -> Dict[str, int]:
    """Sum every world's counters; ``heap_peak`` is the largest peak."""
    total: Dict[str, int] = {}
    for meter in meters:
        for name, value in meter.snapshot().items():
            if name == "heap_peak":
                total[name] = max(total.get(name, 0), value)
            else:
                total[name] = total.get(name, 0) + value
    return total


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--mode", choices=MODES, default="measure")
    args = parser.parse_args(argv)
    report = run_job(args.workload, args.seed, args.cache_dir, args.mode)
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
