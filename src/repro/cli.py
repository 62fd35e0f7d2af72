"""Command-line interface: regenerate any of the paper's artifacts.

Examples::

    repro-bench figure 1                # startup latencies
    repro-bench figure 3 --fast         # coarse grid
    repro-bench table3
    repro-bench headline
    repro-bench measure sp2 alltoall --bytes 65536 --nodes 64
    repro-bench trace sp2 broadcast --bytes 4096 --nodes 16 \\
        --out trace.json
    repro-bench profile t3d alltoall --bytes 4096 --nodes 32
    repro-bench perf --out BENCH_engine.json
    repro-bench perf --check BENCH_engine.json --flame engine.folded
    repro-bench sweep --grid fig3 --workers 8 --out BENCH_sweep.json
    repro-bench sweep --grid smoke --faults lossy --cell-timeout 120
    repro-bench chaos t3d broadcast --nodes 64
    repro-bench critpath t3d broadcast --nodes 64 --bytes 1048576 \\
        --faults midflight-outage
    repro-bench audit tests/golden/BENCH_sweep_baseline.json \\
        --out BENCH_drift.json
    repro-bench audit BENCH_sweep.json --trend \\
        --history BENCH_drift.json
    repro-bench diff tests/golden/BENCH_sweep_baseline.json \\
        BENCH_sweep.json
    repro-bench dash --artifacts . --capture t3d:broadcast \\
        --faults single-link-outage --out site
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Tuple

from .bench import (
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
    format_headline,
    format_table3,
    headline_checks,
    table3,
)
from .core import QUICK_CONFIG, MeasurementConfig, measure_collective
from .core.report import format_us

__all__ = ["main"]

_FIGURES = {1: figure1, 2: figure2, 3: figure3, 4: figure4, 5: figure5}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate figures/tables from 'Evaluating MPI "
                    "Collective Communication on the SP2, T3D, and "
                    "Paragon Multicomputers' (HPCA 1997) on the "
                    "simulator.")
    parser.add_argument("--fast", action="store_true",
                        help="coarse grids and single runs "
                             "(sets REPRO_BENCH_FAST=1)")
    sub = parser.add_subparsers(dest="command", required=True)

    figure = sub.add_parser("figure", help="regenerate Figure 1-5")
    figure.add_argument("number", type=int, choices=sorted(_FIGURES))
    figure.add_argument("--csv", metavar="PATH",
                        help="also write the series to a CSV file")
    figure.add_argument("--json", metavar="PATH",
                        help="also write the series to a JSON file")
    figure.add_argument("--plot", action="store_true",
                        help="render the series as an ASCII log-log "
                             "chart")

    sub.add_parser("table3", help="regenerate Table 3 (curve fits)")
    sub.add_parser("headline", help="check the headline claims")

    measure = sub.add_parser("measure",
                             help="measure one (machine, op, m, p) point")
    measure.add_argument("machine", choices=["sp2", "t3d", "paragon"])
    measure.add_argument("op")
    measure.add_argument("--bytes", type=int, default=1024)
    measure.add_argument("--nodes", type=int, default=32)
    measure.add_argument("--iterations", type=int,
                         default=QUICK_CONFIG.iterations)
    measure.add_argument("--runs", type=int, default=QUICK_CONFIG.runs)
    measure.add_argument("--seed", type=int, default=QUICK_CONFIG.seed)

    sensitivity = sub.add_parser(
        "sensitivity",
        help="which machine parameter dominates one (op, m, p) point")
    sensitivity.add_argument("machine",
                             choices=["sp2", "t3d", "paragon"])
    sensitivity.add_argument("op")
    sensitivity.add_argument("--bytes", type=int, default=1024)
    sensitivity.add_argument("--nodes", type=int, default=32)
    sensitivity.add_argument("--top", type=int, default=8)

    apps = sub.add_parser(
        "app", help="run an application kernel with phase breakdown")
    apps.add_argument("name", choices=["stap", "fft2d", "samplesort"])
    apps.add_argument("machine", choices=["sp2", "t3d", "paragon"])
    apps.add_argument("--nodes", type=int, default=16)

    trace = sub.add_parser(
        "trace",
        help="capture a span trace of one collective "
             "(Chrome-trace/Perfetto JSON, CSV)")
    trace.add_argument("machine", choices=["sp2", "t3d", "paragon"])
    trace.add_argument("op")
    trace.add_argument("--bytes", type=int, default=4096)
    trace.add_argument("--nodes", type=int, default=16)
    trace.add_argument("--iterations", type=int, default=1)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--max-spans", type=_positive_int, default=None,
                       help="bounded-memory ring: keep only the newest "
                            "N spans")
    trace.add_argument("--out", metavar="PATH",
                       help="write Chrome-trace JSON (open in "
                            "ui.perfetto.dev or chrome://tracing)")
    trace.add_argument("--csv", metavar="PATH",
                       help="also write the spans as CSV")

    profile = sub.add_parser(
        "profile",
        help="utilization + engine hot-path report for one collective")
    profile.add_argument("machine", choices=["sp2", "t3d", "paragon"])
    profile.add_argument("op")
    profile.add_argument("--bytes", type=int, default=4096)
    profile.add_argument("--nodes", type=int, default=16)
    profile.add_argument("--iterations", type=int, default=1)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--top", type=int, default=8,
                         help="links/process types to list")
    profile.add_argument("--csv", metavar="PATH",
                         help="also write the site rankings as CSV")
    profile.add_argument("--folded", metavar="PATH",
                         help="also write collapsed stacks (feed to "
                              "flamegraph.pl or speedscope)")
    profile.add_argument("--work", action="store_true",
                         help="also print the deterministic work "
                              "counters")

    perf = sub.add_parser(
        "perf",
        help="run the fixed engine perf suite; emit or gate the "
             "BENCH_engine.json trajectory artifact")
    perf.add_argument("--suite", default="default",
                      choices=["smoke", "default"],
                      help="workload set: smoke = micro kernels only, "
                           "default = micro kernels + p=64/256 "
                           "collectives on all three machines")
    perf.add_argument("--out", metavar="PATH",
                      help="write the artifact "
                           "(e.g. BENCH_engine.json)")
    perf.add_argument("--check", metavar="BASELINE",
                      help="gate against a baseline artifact: exits "
                           "non-zero on any work-counter change or on "
                           "throughput below --min-ratio x baseline")
    perf.add_argument("--min-ratio", type=_positive_float,
                      default=None,
                      help="events/sec floor as a fraction of the "
                           "baseline (default 0.33; wall-clock only — "
                           "work counters always compare exactly)")
    perf.add_argument("--flame", metavar="PATH",
                      help="profile the suite and write collapsed "
                           "stacks (flamegraph.pl / speedscope input)")
    perf.add_argument("--top", type=_positive_int, default=10,
                      help="hot sites to list with --flame")

    sweep = sub.add_parser(
        "sweep",
        help="run a (machine, op, m, p) grid through the parallel "
             "sweep runner, reusing cached cells")
    sweep.add_argument("--grid", default="fig3",
                       help="grid preset (fig1, fig2, fig3, smoke, "
                            "full)")
    sweep.add_argument("--mode", default="sim",
                       choices=["sim", "analytic", "model"],
                       help="sim = discrete-event simulator, analytic "
                            "= closed-form cost model, model = the "
                            "paper's Table 3 expressions")
    sweep.add_argument("--workers", type=_positive_int, default=1,
                       help="worker processes for simulated cells")
    sweep.add_argument("--out", metavar="PATH",
                       default="BENCH_sweep.json",
                       help="artifact path (default BENCH_sweep.json)")
    sweep.add_argument("--csv", metavar="PATH",
                       help="also write the cells as CSV")
    sweep.add_argument("--cache-dir", metavar="PATH",
                       help="cache root (default $REPRO_SWEEP_CACHE or "
                            "~/.cache/repro/sweep)")
    sweep.add_argument("--no-cache", action="store_true",
                       help="neither read nor write the result cache")
    sweep.add_argument("--clear-cache", action="store_true",
                       help="drop every cached cell before running")
    sweep.add_argument("--iterations", type=_positive_int,
                       default=QUICK_CONFIG.iterations)
    sweep.add_argument("--runs", type=_positive_int,
                       default=QUICK_CONFIG.runs)
    sweep.add_argument("--seed", type=int, default=QUICK_CONFIG.seed)
    sweep.add_argument("--machines", metavar="NAMES",
                       help="restrict the grid to these machines "
                            "(comma-separated, e.g. sp2,t3d)")
    sweep.add_argument("--ops", metavar="NAMES",
                       help="restrict the grid to these collectives "
                            "(comma-separated)")
    sweep.add_argument("--faults", metavar="PRESET",
                       help="inject a fault-plan preset into every "
                            "cell (single-link-outage, "
                            "midflight-outage, flaky-link, lossy, "
                            "slow-node, chaos); changes every cache "
                            "fingerprint")
    sweep.add_argument("--cell-timeout", type=_positive_float,
                       metavar="SECONDS",
                       help="per-cell wall-clock budget; shards that "
                            "blow it are requeued cell by cell and a "
                            "cell that fails alone is quarantined")
    sweep.add_argument("--breakdown", action="store_true",
                       help="attach a critical-path component "
                            "breakdown (software/wire/contention/"
                            "fault-recovery) to every cell; sim mode "
                            "only, changes every cache fingerprint")
    sweep.add_argument("--decision-table", metavar="PATH",
                       help="BENCH_tuning.json decision table; cells "
                            "it covers run the tuned algorithm instead "
                            "of the machine's fixed choice (sim mode "
                            "only)")

    tune = sub.add_parser(
        "tune",
        help="race candidate collective algorithms per (machine, op, "
             "m, p), fit crossover points, and emit the "
             "BENCH_tuning.json decision table")
    tune.add_argument("--machines", metavar="NAMES",
                      default="sp2,t3d,paragon",
                      help="machines to tune (comma-separated, "
                           "default sp2,t3d,paragon)")
    tune.add_argument("--ops", metavar="NAMES",
                      help="restrict tuning to these collectives "
                           "(comma-separated)")
    tune.add_argument("--grid", default="paper",
                      help="tuning grid preset (paper, smoke)")
    tune.add_argument("--workers", type=_positive_int, default=1,
                      help="worker processes for simulated cells")
    tune.add_argument("--out", metavar="PATH",
                      default="BENCH_tuning.json",
                      help="artifact path (default BENCH_tuning.json)")
    tune.add_argument("--cache-dir", metavar="PATH",
                      help="cache root (default $REPRO_SWEEP_CACHE or "
                           "~/.cache/repro/sweep)")
    tune.add_argument("--no-cache", action="store_true",
                      help="neither read nor write the result cache")
    tune.add_argument("--iterations", type=_positive_int,
                      default=QUICK_CONFIG.iterations)
    tune.add_argument("--runs", type=_positive_int,
                      default=QUICK_CONFIG.runs)
    tune.add_argument("--seed", type=int, default=QUICK_CONFIG.seed)
    tune.add_argument("--top", type=_positive_int, default=10,
                      help="flipped cells to list (default 10)")

    chaos = sub.add_parser(
        "chaos",
        help="run one collective clean and under a fault-plan preset; "
             "report the latency penalty and injector counters")
    chaos.add_argument("machine", choices=["sp2", "t3d", "paragon"])
    chaos.add_argument("op")
    chaos.add_argument("--faults", default="single-link-outage",
                       metavar="PRESET",
                       help="fault-plan preset (default "
                            "single-link-outage)")
    chaos.add_argument("--bytes", type=int, default=4096)
    chaos.add_argument("--nodes", type=int, default=16)
    chaos.add_argument("--iterations", type=_positive_int, default=1)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--curves", action="store_true",
                       help="also print clean vs faulty T0(p) curves "
                            "over the bench node counts")
    chaos.add_argument("--out", metavar="PATH",
                       help="also dump the injector counters and the "
                            "faulty run's full metrics snapshot as "
                            "JSON")

    critpath = sub.add_parser(
        "critpath",
        help="trace one collective and print its causal critical "
             "path with per-component time attribution")
    critpath.add_argument("machine", choices=["sp2", "t3d", "paragon"])
    critpath.add_argument("op")
    critpath.add_argument("--bytes", type=int, default=4096)
    critpath.add_argument("--nodes", type=int, default=16)
    critpath.add_argument("--iterations", type=_positive_int, default=1)
    critpath.add_argument("--seed", type=int, default=0)
    critpath.add_argument("--faults", metavar="PRESET",
                          help="run under a fault-plan preset so "
                               "recovery work (retransmits, backoff, "
                               "detours) appears in the attribution")
    critpath.add_argument("--steps", type=_positive_int, default=None,
                          metavar="N",
                          help="print only the first N chain steps")
    critpath.add_argument("--csv", metavar="PATH",
                          help="also write the chain (plus totals) "
                               "as CSV")

    audit = sub.add_parser(
        "audit",
        help="compare a sweep artifact's cells against the paper's "
             "Table 3 closed forms; exits non-zero on tolerance "
             "breach")
    audit.add_argument("artifact", nargs="?",
                       default="BENCH_sweep.json",
                       help="sweep artifact to audit (default "
                            "BENCH_sweep.json)")
    audit.add_argument("--rtol", type=_positive_float, default=0.25,
                       help="max |relative error| per cell "
                            "(default 0.25)")
    audit.add_argument("--out", metavar="PATH",
                       help="also write the byte-stable drift trend "
                            "artifact (BENCH_drift.json)")
    audit.add_argument("--top", type=_positive_int, default=5,
                       help="worst cells / breaches to list")
    audit.add_argument("--trend", action="store_true",
                       help="also render drift history as terminal "
                            "sparklines (this audit is the newest "
                            "generation)")
    audit.add_argument("--history", action="append", metavar="PATH",
                       help="prior drift artifact for --trend, oldest "
                            "first (repeatable; default: the --out "
                            "path, or BENCH_drift.json, if it already "
                            "exists)")

    dash = sub.add_parser(
        "dash",
        help="index every artifact into the canonical BENCH_ledger."
             "json bundle and render the self-contained HTML "
             "dashboard (replay, drift/perf trends, tuner heatmaps)")
    dash.add_argument("--artifacts", action="append", metavar="PATH",
                      help="artifact file or directory to index "
                           "(repeatable; default: the current "
                           "directory, scanned recursively)")
    dash.add_argument("--capture", metavar="MACHINE:OP",
                      help="also run one traced collective and embed "
                           "its hop-by-hop replay (e.g. t3d:broadcast)")
    dash.add_argument("--bytes", type=int, default=4096,
                      help="message size for --capture")
    dash.add_argument("--nodes", type=int, default=16,
                      help="node count for --capture")
    dash.add_argument("--seed", type=int, default=0,
                      help="seed for --capture")
    dash.add_argument("--faults", metavar="PRESET",
                      help="run the --capture collective under a "
                           "fault-plan preset so the replay shows "
                           "recovery work")
    dash.add_argument("--out", metavar="DIR", default="site",
                      help="output directory (default site/); never "
                           "scanned for inputs")
    dash.add_argument("--open", action="store_true",
                      help="open the generated page in a browser")

    diff = sub.add_parser(
        "diff",
        help="compare a sweep artifact against a baseline; exits "
             "non-zero when they differ")
    diff.add_argument("baseline",
                      help="baseline artifact (e.g. the checked-in "
                           "tests/golden/BENCH_sweep_baseline.json)")
    diff.add_argument("current", nargs="?", default="BENCH_sweep.json",
                      help="artifact to check (default "
                           "BENCH_sweep.json)")
    diff.add_argument("--rtol", type=float, default=0.0,
                      help="relative tolerance (default 0: bitwise)")
    diff.add_argument("--atol", type=float, default=0.0,
                      help="absolute tolerance in us (default 0)")
    return parser


def _csv_names(text: Optional[str]) -> Optional[Tuple[str, ...]]:
    """Parse a ``--machines``/``--ops`` comma list (None = no filter)."""
    if text is None:
        return None
    names = tuple(name.strip() for name in text.split(",")
                  if name.strip())
    return names


def _filter_grid(grid, machines: Optional[Tuple[str, ...]],
                 ops: Optional[Tuple[str, ...]]):
    """Restrict a grid preset to the requested machines/collectives.

    Raises ``ValueError`` when a filter names nothing in the grid or
    empties it — an empty sweep is always a spelling mistake, not a
    request.
    """
    import dataclasses as _dataclasses
    if machines is not None:
        kept = tuple(m for m in grid.machines if m in machines)
        unknown = sorted(set(machines) - set(grid.machines))
        if unknown:
            raise ValueError(
                f"--machines {','.join(unknown)} not in grid "
                f"{grid.name!r} (has {', '.join(grid.machines)})")
        grid = _dataclasses.replace(grid, machines=kept)
    if ops is not None:
        known = grid.ops + (("barrier",) if grid.include_barrier
                            else ())
        unknown = sorted(set(ops) - set(known))
        if unknown:
            raise ValueError(
                f"--ops {','.join(unknown)} not in grid "
                f"{grid.name!r} (has {', '.join(known)})")
        grid = _dataclasses.replace(
            grid, ops=tuple(op for op in grid.ops if op in ops),
            include_barrier=grid.include_barrier and "barrier" in ops)
    if not grid.cells():
        raise ValueError(f"grid {grid.name!r} is empty after "
                         f"filtering; nothing to sweep")
    return grid


def _apply_decision_table(cells, path):
    """Materialize a decision table into per-cell algorithm overrides.

    Overrides are placed on the cells themselves — not smuggled in via
    modified machine specs — so cache fingerprints see exactly which
    algorithm ran and tuned cells never collide with fixed-choice
    results.  Cells the table resolves to the machine's own default
    stay untouched (and keep their existing cache entries).
    """
    import dataclasses as _dataclasses

    from .machines import get_machine_spec
    from .tuner import load_decision_table

    table = load_decision_table(path)
    specs = {}
    out = []
    for cell in cells:
        spec = specs.get(cell.machine)
        if spec is None:
            spec = specs[cell.machine] = get_machine_spec(cell.machine)
        choice = table.lookup(cell.machine, cell.op, cell.nbytes,
                              cell.p)
        if choice and choice != spec.algorithms.get(cell.op):
            cell = _dataclasses.replace(cell, algorithm=choice)
        out.append(cell)
    return tuple(out)


def _run_tune_command(args) -> int:
    from .core import MeasurementConfig
    from .core.canonical import write
    from .tuner import run_tune, tune_grid
    try:
        grid = tune_grid(args.grid)
        ops = _csv_names(args.ops)
        if ops is not None:
            import dataclasses as _dataclasses
            unknown = sorted(set(ops) - set(grid.ops))
            if unknown:
                raise ValueError(
                    f"--ops {','.join(unknown)} not in tuning grid "
                    f"{grid.name!r} (has {', '.join(grid.ops)})")
            grid = _dataclasses.replace(
                grid, ops=tuple(op for op in grid.ops if op in ops))
        machines = _csv_names(args.machines) or ()
        if not machines:
            raise ValueError("--machines names no machines")
    except (KeyError, ValueError) as error:
        print(error.args[0], file=sys.stderr)
        return 2
    measurement = MeasurementConfig(
        iterations=args.iterations,
        warmup_iterations=QUICK_CONFIG.warmup_iterations,
        runs=args.runs, seed=args.seed)
    try:
        result = run_tune(machines, grid, config=measurement,
                          workers=args.workers,
                          cache_dir=args.cache_dir,
                          use_cache=not args.no_cache)
    except (KeyError, ValueError) as error:
        print(error.args[0], file=sys.stderr)
        return 2
    print(f"tune {grid.name} (machines={','.join(sorted(set(machines)))}, "
          f"workers={args.workers}): {result.summary()}")
    for cell, reason in sorted(result.quarantined.items()):
        print(f"quarantined {cell.key()}: {reason}", file=sys.stderr)
    for flip in result.flips[:args.top]:
        print(f"  {flip['machine']}/{flip['op']}/{flip['nbytes']}/"
              f"{flip['p']}: {flip['default_algorithm']} -> "
              f"{flip['algorithm']} ({flip['speedup']:.2f}x)")
    if len(result.flips) > args.top:
        print(f"  ... {len(result.flips) - args.top} more flips")
    print(f"wrote {write(result.artifact(), args.out)}")
    return 1 if result.quarantined else 0


def _run_sweep_command(args) -> int:
    from .bench import write_sweep_csv
    from .core import MeasurementConfig
    from .core.canonical import write
    from .faults import fault_preset
    from .runner import (
        ResultCache,
        SweepConfig,
        build_artifact,
        preset_grid,
        run_sweep,
    )
    try:
        grid = preset_grid(args.grid)
        grid = _filter_grid(grid, _csv_names(args.machines),
                            _csv_names(args.ops))
        faults = None
        if args.faults and args.faults != "none":
            faults = fault_preset(args.faults)
    except (KeyError, ValueError) as error:
        print(error.args[0], file=sys.stderr)
        return 2
    measurement = MeasurementConfig(
        iterations=args.iterations,
        warmup_iterations=QUICK_CONFIG.warmup_iterations,
        runs=args.runs, seed=args.seed, faults=faults)
    if args.breakdown and args.mode != "sim":
        print("--breakdown requires --mode sim (closed forms have no "
              "trace to analyse)", file=sys.stderr)
        return 2
    cells = grid.cells()
    if args.decision_table:
        if args.mode != "sim":
            print("--decision-table requires --mode sim (closed forms "
                  "are keyed to the machines' fixed algorithms)",
                  file=sys.stderr)
            return 2
        try:
            cells = _apply_decision_table(cells, args.decision_table)
        except (OSError, ValueError) as error:
            print(error.args[0], file=sys.stderr)
            return 2
    config = SweepConfig(mode=args.mode, workers=args.workers,
                         measurement=measurement,
                         cache_dir=args.cache_dir,
                         use_cache=not args.no_cache,
                         cell_timeout_s=args.cell_timeout,
                         breakdown=args.breakdown)
    cache = ResultCache(args.cache_dir) if args.cache_dir \
        else ResultCache()
    cache.enabled = config.use_cache
    if args.clear_cache:
        print(f"cleared {cache.clear()} cached cells")
    try:
        result = run_sweep(cells, config, cache)
    except ValueError as error:
        # An invalid per-cell algorithm override (e.g. a stale or
        # hand-edited decision table) is a usage error, not a crash.
        print(error.args[0], file=sys.stderr)
        return 2
    print(f"sweep {grid.name} (mode={config.mode}, "
          f"workers={config.workers}): {result.summary()}")
    for cell, reason in sorted(result.quarantined.items()):
        print(f"quarantined {cell.key()}: {reason}", file=sys.stderr)
    artifact = build_artifact(result, grid.name, config)
    print(f"wrote {write(artifact, args.out)}")
    if args.csv:
        print(f"wrote {write_sweep_csv(artifact, args.csv)}")
    return 1 if result.quarantined else 0


def _run_chaos_command(args) -> int:
    from .bench import degradation_curves, run_chaos
    from .core.canonical import write
    from .faults import fault_preset
    try:
        plan = fault_preset(args.faults)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    run = run_chaos(args.machine, args.op, plan,
                    nbytes=args.bytes, num_nodes=args.nodes,
                    iterations=args.iterations, seed=args.seed,
                    metrics=args.out is not None)
    print(run.format())
    if args.out:
        document = {
            "machine": run.machine,
            "op": run.op,
            "plan": plan.name,
            "nbytes": run.nbytes,
            "nodes": run.num_nodes,
            "iterations": run.iterations,
            "seed": run.seed,
            "clean_us": run.clean_us,
            "faulty_us": run.faulty_us,
            "penalty_us": run.penalty_us,
            "counters": run.counters,
            "metrics": run.metrics_snapshot,
        }
        write(document, args.out)
        print(f"wrote {args.out}")
    if args.curves:
        print()
        print(degradation_curves(args.machine, args.op, plan).format())
    return 0


def _run_critpath_command(args) -> int:
    from .obs.capture import capture_collective
    from .obs.critpath import write_critpath_csv
    faults = None
    if args.faults and args.faults != "none":
        from .faults import fault_preset
        try:
            faults = fault_preset(args.faults)
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 2
    capture = capture_collective(
        args.machine, args.op, nbytes=args.bytes,
        num_nodes=args.nodes, iterations=args.iterations,
        seed=args.seed, metrics=False, faults=faults)
    path = capture.critical_path()
    print(path.format(top=args.steps))
    if args.csv:
        print(f"wrote {write_critpath_csv(path, args.csv)}")
    return 0


def _run_perf_command(args) -> int:
    from .bench.perfsuite import (
        DEFAULT_MIN_RATIO,
        PERF_SCHEMA,
        build_perf_artifact,
        check_perf_artifact,
        run_perf_suite,
    )
    from .core.canonical import load, write
    profiler = None
    if args.flame:
        from .obs import EngineProfiler
        profiler = EngineProfiler()
    runs = run_perf_suite(args.suite, profiler=profiler)
    artifact = build_perf_artifact(runs, suite=args.suite)
    total = artifact["throughput"]["total"]
    print(f"engine perf suite '{args.suite}': {len(runs)} workloads, "
          f"{total['events_fired']} events in {total['wall_s']:.2f} s "
          f"({total['events_per_sec']:,.0f} events/s)")
    for run in runs:
        print(f"  {run.workload:<36s} "
              f"events={run.work['events_fired']:<9d} "
              f"wall={run.wall_s * 1e3:9.1f} ms")
    if profiler is not None:
        from .obs import write_folded_stacks
        print()
        print(profiler.format_report(top=args.top))
        print(f"wrote {write_folded_stacks(profiler, args.flame)}")
    if args.out:
        print(f"wrote {write(artifact, args.out)}")
    if args.check:
        try:
            baseline = load(args.check, PERF_SCHEMA,
                            "an engine-perf artifact")
        except (OSError, ValueError) as error:
            print(error, file=sys.stderr)
            return 2
        min_ratio = args.min_ratio if args.min_ratio is not None \
            else DEFAULT_MIN_RATIO
        result = check_perf_artifact(artifact, baseline,
                                     min_ratio=min_ratio)
        print()
        print(result.format())
        return 0 if result.passed() else 1
    return 0


def _run_audit_command(args) -> int:
    from pathlib import Path

    from .core.canonical import load, write
    from .obs.drift import (
        DRIFT_SCHEMA,
        DriftTolerance,
        audit_artifact,
        build_drift_artifact,
        format_drift_trend,
    )
    from .runner import ARTIFACT_SCHEMA
    try:
        artifact = load(args.artifact, ARTIFACT_SCHEMA, "a sweep artifact")
    except (OSError, ValueError) as error:
        print(error, file=sys.stderr)
        return 2
    report = audit_artifact(artifact,
                            DriftTolerance(max_rel_error=args.rtol))
    print(report.format(top=args.top))
    payload = build_drift_artifact(report, worst=args.top)
    if args.trend:
        # Prior generations load before --out overwrites its file.
        history = args.history
        if history is None:
            default = Path(args.out or "BENCH_drift.json")
            history = [str(default)] if default.is_file() else []
        try:
            generations = [load(path, DRIFT_SCHEMA, "a drift artifact")
                           for path in history]
        except (OSError, ValueError) as error:
            print(error, file=sys.stderr)
            return 2
        generations.append(payload)
        print()
        print(format_drift_trend(generations))
    if args.out:
        print(f"wrote {write(payload, args.out)}")
    return 0 if report.passed() else 1


def _run_dash_command(args) -> int:
    from pathlib import Path

    from .core.canonical import write
    from .dash import write_dashboard
    from .obs.ledger import build_ledger, discover_artifacts
    out_dir = Path(args.out)
    try:
        entries = discover_artifacts(args.artifacts or ["."],
                                     exclude=[out_dir])
    except ValueError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.capture:
        machine, _, op = args.capture.partition(":")
        if machine not in ("sp2", "t3d", "paragon") or not op:
            print(f"--capture wants MACHINE:OP with machine one of "
                  f"sp2/t3d/paragon, got {args.capture!r}",
                  file=sys.stderr)
            return 2
        faults = None
        if args.faults and args.faults != "none":
            from .faults import fault_preset
            try:
                faults = fault_preset(args.faults)
            except KeyError as error:
                print(error.args[0], file=sys.stderr)
                return 2
        from .obs.capture import capture_collective
        capture = capture_collective(
            machine, op, nbytes=args.bytes, num_nodes=args.nodes,
            seed=args.seed, faults=faults)
        print(capture.summary())
        replay = capture.to_replay_frames()
        name = f"replay_{machine}_{op}.json"
        print(f"wrote {write(replay, out_dir / name)}")
        entries.append((name, "replay", replay))
    ledger = build_ledger(entries)
    census = ", ".join(f"{family} x{count}" for family, count
                       in sorted(ledger["families"].items()))
    print(f"ledger: {len(ledger['entries'])} artifact(s) "
          f"({census or 'none'}), bundle digest "
          f"{ledger['bundle_digest'][:16]}")
    print(f"wrote {write(ledger, out_dir / 'BENCH_ledger.json')}")
    page = write_dashboard(ledger, out_dir)
    print(f"wrote {page}")
    if args.open:
        import webbrowser
        webbrowser.open(page.resolve().as_uri())
    return 0


def _run_diff_command(args) -> int:
    from .core.canonical import load
    from .runner import ARTIFACT_SCHEMA, diff_artifacts
    diff = diff_artifacts(
        load(args.baseline, ARTIFACT_SCHEMA, "a sweep artifact"),
        load(args.current, ARTIFACT_SCHEMA, "a sweep artifact"),
        rtol=args.rtol, atol=args.atol)
    print(diff.format())
    return 0 if diff.clean() else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.fast:
        os.environ["REPRO_BENCH_FAST"] = "1"
    try:
        return _dispatch(args)
    except KeyboardInterrupt:
        # The sweep pool's context manager has already terminated its
        # workers by the time the interrupt propagates here.
        print("interrupted", file=sys.stderr)
        return 130


def _dispatch(args) -> int:
    if args.command == "figure":
        data = _FIGURES[args.number]()
        print(data.format())
        if args.plot:
            from .bench import plot_figure
            print()
            print(plot_figure(data))
        if args.csv:
            from .bench import write_figure_csv
            print(f"wrote {write_figure_csv(data, args.csv)}")
        if args.json:
            from .bench import write_figure_json
            print(f"wrote {write_figure_json(data, args.json)}")
    elif args.command == "table3":
        print(format_table3(table3()))
    elif args.command == "headline":
        print(format_headline(headline_checks()))
    elif args.command == "measure":
        config = MeasurementConfig(iterations=args.iterations,
                                   warmup_iterations=1, runs=args.runs,
                                   seed=args.seed)
        sample = measure_collective(args.machine, args.op, args.bytes,
                                    args.nodes, config)
        print(f"T({args.bytes} B, {args.nodes} nodes) on "
              f"{args.machine} {args.op}: {format_us(sample.time_us)}")
        print(f"  per-process min/mean/max: "
              f"{format_us(sample.process_min_us)} / "
              f"{format_us(sample.process_mean_us)} / "
              f"{format_us(sample.process_max_us)}")
        print(f"  runs: {[round(t, 1) for t in sample.run_times_us]}")
    elif args.command == "sensitivity":
        from .core import format_sensitivities, scan_sensitivities
        from .machines import get_machine_spec
        results = scan_sensitivities(get_machine_spec(args.machine),
                                     args.op, args.bytes, args.nodes)
        print(format_sensitivities(results, top=args.top))
    elif args.command == "app":
        from .apps import simulate_fft2d, simulate_samplesort, \
            simulate_stap
        runner = {"stap": simulate_stap, "fft2d": simulate_fft2d,
                  "samplesort": simulate_samplesort}[args.name]
        print(runner(args.machine, args.nodes).format())
    elif args.command == "trace":
        from .obs import write_chrome_trace, write_spans_csv
        from .obs.capture import capture_collective
        capture = capture_collective(
            args.machine, args.op, nbytes=args.bytes,
            num_nodes=args.nodes, iterations=args.iterations,
            seed=args.seed, max_spans=args.max_spans)
        print(capture.summary())
        if args.out:
            print(f"wrote {write_chrome_trace(capture.tracer, args.out)}"
                  f" (open in ui.perfetto.dev)")
        if args.csv:
            print(f"wrote {write_spans_csv(capture.tracer, args.csv)}")
    elif args.command == "profile":
        from .obs import format_utilization_report
        from .obs.capture import capture_collective
        capture = capture_collective(
            args.machine, args.op, nbytes=args.bytes,
            num_nodes=args.nodes, iterations=args.iterations,
            seed=args.seed, trace=False, profile=True,
            work=args.work)
        print(capture.summary())
        print()
        print(format_utilization_report(capture.world.machine,
                                        capture.elapsed_us,
                                        top=args.top))
        print()
        print(capture.profiler.format_report(top=args.top))
        if args.work:
            print()
            print(capture.work.format_report())
        print()
        print(capture.metrics.format_report())
        if args.csv:
            from .obs import write_profile_csv
            print(f"wrote {write_profile_csv(capture.profiler, args.csv)}")
        if args.folded:
            from .obs import write_folded_stacks
            print(f"wrote {write_folded_stacks(capture.profiler, args.folded)}")
    elif args.command == "perf":
        return _run_perf_command(args)
    elif args.command == "sweep":
        return _run_sweep_command(args)
    elif args.command == "tune":
        return _run_tune_command(args)
    elif args.command == "chaos":
        return _run_chaos_command(args)
    elif args.command == "critpath":
        return _run_critpath_command(args)
    elif args.command == "audit":
        return _run_audit_command(args)
    elif args.command == "dash":
        return _run_dash_command(args)
    elif args.command == "diff":
        return _run_diff_command(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
