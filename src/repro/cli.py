"""Command-line interface: regenerate any of the paper's artifacts.

Examples::

    repro-bench figure 1                # startup latencies
    repro-bench --fast figure 3         # coarse grid, one short run
    repro-bench table3
    repro-bench headline
    repro-bench measure sp2 alltoall --bytes 65536 --nodes 64
    repro-bench trace sp2 broadcast --bytes 4096 --nodes 16 \\
        --out trace.json
    repro-bench profile t3d alltoall --bytes 4096 --nodes 32
    repro-bench perf --out BENCH_engine.json
    repro-bench perf --check BENCH_engine.json --flame host.folded
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

Exit status: 0 ok; 1 a gate failed (audit breach, ``diff`` mismatch,
``perf --check`` regression, quarantined sweep/tune cells, a figure,
table or check cell that failed to simulate); 2 usage
error (bad flags, unknown names, unreadable input files); 130
interrupted.

Every subcommand is one entry of a table: :func:`_command` registers
its handler together with its arguments, and :func:`main` runs
``args.run(args)``.  Arguments that several subcommands share (the
collective point, the measurement protocol, the result cache, the
grid filter) are defined once below.  The global ``--fast`` flag is
handed to the builders of the paper's artifacts (``figure``,
``table3``, ``headline``, ``chaos --curves``) as their ``fast``
argument: coarse p and m axes and a two-iteration single-run protocol.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterator, List, Optional, Tuple

from .bench import (
    CampaignError,
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
from .machines import MachineSpec, get_machine_spec, machine_names
from .mpi import COLLECTIVE_OPS
from .runner import SWEEP_MODES

__all__ = ["UsageError", "main"]

_FIGURES = {1: figure1, 2: figure2, 3: figure3, 4: figure4, 5: figure5}

#: Adds one or more arguments to a subcommand's parser.
Adder = Callable[[argparse.ArgumentParser], object]

#: The subcommand table: (name, help, argument adders, handler).
_COMMANDS: List[Tuple[str, str, Tuple[Adder, ...], Callable]] = []


class UsageError(Exception):
    """Bad command-line input; :func:`main` prints it and exits 2."""


@contextmanager
def _usage(*errors: type) -> Iterator[None]:
    """Turn ``errors`` raised by the wrapped block into a UsageError."""
    try:
        yield
    except errors as error:
        # A KeyError's str() is the repr of its message.
        raise UsageError(error.args[0] if isinstance(error, KeyError)
                         else str(error)) from None


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


# -- argument table ---------------------------------------------------------
def _arg(*flags: str, **options) -> Adder:
    """One argument, added when the subcommand's parser is built."""
    return lambda parser: parser.add_argument(*flags, **options)


def _machine(parser: argparse.ArgumentParser) -> None:
    # Choices are read when the parser is built, so machines registered
    # with register_machine_spec() are accepted too.
    parser.add_argument("machine", choices=machine_names())


def _point(nbytes: int, nodes: int) -> Adder:
    """``machine op --bytes --nodes``: one collective point."""
    def add(parser: argparse.ArgumentParser) -> None:
        _machine(parser)
        parser.add_argument("op")
        parser.add_argument("--bytes", type=int, default=nbytes)
        parser.add_argument("--nodes", type=int, default=nodes)
    return add


def _protocol(iterations: int = QUICK_CONFIG.iterations,
              runs: Optional[int] = QUICK_CONFIG.runs,
              seed: int = QUICK_CONFIG.seed) -> Adder:
    """``--iterations [--runs] --seed``: the measurement protocol."""
    def add(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--iterations", type=int, default=iterations)
        if runs is not None:
            parser.add_argument("--runs", type=int, default=runs)
        parser.add_argument("--seed", type=int, default=seed)
    return add


#: Protocol flags of the one-call diagnostics (trace, profile, chaos,
#: critpath).
_SINGLE_CALL = _protocol(iterations=1, runs=None, seed=0)

_CACHE = (
    _arg("--cache-dir", metavar="PATH",
         help="cache root (default $REPRO_SWEEP_CACHE or "
              "~/.cache/repro/sweep)"),
    _arg("--no-cache", action="store_true",
         help="neither read nor write the result cache"),
)


def _filter_args(machines: Optional[str] = None) -> Tuple[Adder, ...]:
    """``--machines --ops``: restrict a sweep or tuning grid."""
    return (
        _arg("--machines", metavar="NAMES", default=machines,
             help="machines to run (comma-separated, default "
                  f"{machines or 'every machine in the grid'})"),
        _arg("--ops", metavar="NAMES",
             help="restrict the grid to these collectives "
                  "(comma-separated)"),
    )


def _command(name: str, summary: str, *adders: Adder
             ) -> Callable[[Callable], Callable]:
    """Register the decorated handler as subcommand ``name``."""
    def register(run: Callable) -> Callable:
        _COMMANDS.append((name, summary, adders, run))
        return run
    return register


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate figures/tables from 'Evaluating MPI "
                    "Collective Communication on the SP2, T3D, and "
                    "Paragon Multicomputers' (HPCA 1997) on the "
                    "simulator.")
    parser.add_argument("--fast", action="store_true",
                        help="figure, table3, headline and chaos "
                             "--curves: machine sizes 2,8,32, message "
                             "sizes 4,1024,65536 and one run of 2 "
                             "timed iterations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary, adders, run in _COMMANDS:
        command = sub.add_parser(name, help=summary)
        for add in adders:
            add(command)
        command.set_defaults(run=run)
    return parser


# -- resolvers: flag values -> checked objects, or UsageError ---------------
def _check_nodes(args) -> MachineSpec:
    """Check ``--nodes`` against the machine; returns the machine spec."""
    spec = get_machine_spec(args.machine)
    if not 2 <= args.nodes <= spec.max_nodes:
        raise UsageError(f"{spec.name} supports 2..{spec.max_nodes} "
                         f"nodes, got --nodes {args.nodes}")
    return spec


def _check_point(args) -> MachineSpec:
    """Validate the collective point; returns the machine spec."""
    if args.op not in COLLECTIVE_OPS:
        raise UsageError(f"unknown collective {args.op!r}; known "
                         f"collectives: {', '.join(COLLECTIVE_OPS)}")
    if args.bytes < 0:
        raise UsageError(f"--bytes must be >= 0, got {args.bytes}")
    if getattr(args, "iterations", 1) < 1:
        raise UsageError(f"--iterations must be >= 1, got "
                         f"{args.iterations}")
    return _check_nodes(args)


def _measurement(args, faults=None) -> MeasurementConfig:
    """The protocol flags as a config (warm-up from ``QUICK_CONFIG``)."""
    with _usage(ValueError):
        return MeasurementConfig(
            iterations=args.iterations,
            warmup_iterations=QUICK_CONFIG.warmup_iterations,
            runs=args.runs, seed=args.seed, faults=faults)


def _faults(args):
    """The ``--faults`` preset's plan (None when unset or ``none``)."""
    if not args.faults or args.faults == "none":
        return None
    from .faults import fault_preset
    with _usage(KeyError):
        return fault_preset(args.faults)


def _csv_names(text: Optional[str]) -> Optional[Tuple[str, ...]]:
    """Parse a ``--machines``/``--ops`` comma list (None = no filter)."""
    if text is None:
        return None
    return tuple(name.strip() for name in text.split(",")
                 if name.strip())


def _filter_grid(grid, ops: Optional[Tuple[str, ...]],
                 machines: Optional[Tuple[str, ...]] = None):
    """Restrict a sweep or tuning grid to ``--ops`` and ``--machines``
    (``tune`` passes no machines: it hands its list straight to the
    tuner).  A name the grid lacks is a usage error."""
    if machines is not None:
        unknown = sorted(set(machines) - set(grid.machines))
        if unknown:
            raise UsageError(
                f"--machines {','.join(unknown)} not in grid "
                f"{grid.name!r} (has {', '.join(grid.machines)})")
        grid = dataclasses.replace(grid, machines=tuple(
            m for m in grid.machines if m in machines))
    if ops is not None:
        barrier = grid.include_barrier
        known = grid.ops + (("barrier",) if barrier else ())
        unknown = sorted(set(ops) - set(known))
        if unknown:
            raise UsageError(
                f"--ops {','.join(unknown)} not in grid {grid.name!r} "
                f"(has {', '.join(known)})")
        changes = {"ops": tuple(op for op in grid.ops if op in ops)}
        if barrier:
            changes["include_barrier"] = "barrier" in ops
        grid = dataclasses.replace(grid, **changes)
    return grid


def _apply_decision_table(cells, path):
    """Materialize a decision table into per-cell algorithm overrides.

    Overrides are placed on the cells themselves — not smuggled in via
    modified machine specs — so cache fingerprints see exactly which
    algorithm ran and tuned cells never collide with fixed-choice
    results.  Cells the table resolves to the machine's own default
    stay untouched (and keep their existing cache entries).
    """
    from .tuner import load_decision_table

    table = load_decision_table(path)
    out = []
    for cell in cells:
        choice = table.lookup(cell.machine, cell.op, cell.nbytes,
                              cell.p)
        if choice and choice != \
                get_machine_spec(cell.machine).algorithms.get(cell.op):
            cell = dataclasses.replace(cell, algorithm=choice)
        out.append(cell)
    return tuple(out)


# -- subcommands (registration order is the --help order) -------------------
@_command("figure", "regenerate Figure 1-5",
          _arg("number", type=int, choices=sorted(_FIGURES)),
          _arg("--csv", metavar="PATH",
               help="also write the series to a CSV file"),
          _arg("--json", metavar="PATH",
               help="also write the series to a JSON file"),
          _arg("--plot", action="store_true",
               help="render the series as an ASCII log-log chart"))
def _figure(args) -> None:
    data = _FIGURES[args.number](fast=args.fast)
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


@_command("table3", "regenerate Table 3 (curve fits)")
def _table3(args) -> None:
    print(format_table3(table3(fast=args.fast)))


@_command("headline", "check the headline claims")
def _headline(args) -> None:
    print(format_headline(headline_checks(fast=args.fast)))


@_command("measure", "measure one (machine, op, m, p) point",
          _point(nbytes=1024, nodes=32), _protocol())
def _measure(args) -> None:
    _check_point(args)
    sample = measure_collective(args.machine, args.op, args.bytes,
                                args.nodes, _measurement(args))
    print(f"T({args.bytes} B, {args.nodes} nodes) on "
          f"{args.machine} {args.op}: {format_us(sample.time_us)}")
    print(f"  per-process min/mean/max: "
          f"{format_us(sample.process_min_us)} / "
          f"{format_us(sample.process_mean_us)} / "
          f"{format_us(sample.process_max_us)}")
    print(f"  runs: {[round(t, 1) for t in sample.run_times_us]}")


@_command("sensitivity",
          "which machine parameter dominates one (op, m, p) point",
          _point(nbytes=1024, nodes=32),
          _arg("--top", type=_positive_int, default=8))
def _sensitivity(args) -> None:
    from .core import format_sensitivities, scan_sensitivities
    spec = _check_point(args)
    results = scan_sensitivities(spec, args.op, args.bytes, args.nodes)
    print(format_sensitivities(results, top=args.top))


@_command("trace",
          "capture a span trace of one collective "
          "(Chrome-trace/Perfetto JSON, CSV)",
          _point(nbytes=4096, nodes=16), _SINGLE_CALL,
          _arg("--max-spans", type=_positive_int, default=None,
               help="bounded-memory ring: keep only the newest N spans"),
          _arg("--out", metavar="PATH",
               help="write Chrome-trace JSON (open in ui.perfetto.dev "
                    "or chrome://tracing)"),
          _arg("--csv", metavar="PATH",
               help="also write the spans as CSV"))
def _trace(args) -> None:
    from .obs import write_chrome_trace, write_spans_csv
    from .obs.capture import capture_collective
    _check_point(args)
    capture = capture_collective(
        args.machine, args.op, nbytes=args.bytes, num_nodes=args.nodes,
        iterations=args.iterations, seed=args.seed,
        max_spans=args.max_spans)
    print(capture.summary())
    if args.out:
        print(f"wrote {write_chrome_trace(capture.tracer, args.out)}"
              f" (open in ui.perfetto.dev)")
    if args.csv:
        print(f"wrote {write_spans_csv(capture.tracer, args.csv)}")


@_command("profile",
          "utilization + host profile report for one collective",
          _point(nbytes=4096, nodes=16), _SINGLE_CALL,
          _arg("--top", type=_positive_int, default=8,
               help="links/modules to list"),
          _arg("--csv", metavar="PATH",
               help="also write the module ranking as CSV "
                    "(module,calls,self_s)"),
          _arg("--folded", metavar="PATH",
               help="also write collapsed stacks (feed to flamegraph.pl "
                    "or speedscope)"),
          _arg("--work", action="store_true",
               help="also print the deterministic work counters"))
def _profile(args) -> None:
    from .obs import (
        format_utilization_report,
        write_folded_stacks,
        write_profile_csv,
    )
    from .obs.capture import capture_collective
    _check_point(args)
    capture = capture_collective(
        args.machine, args.op, nbytes=args.bytes, num_nodes=args.nodes,
        iterations=args.iterations, seed=args.seed, trace=False,
        profile=True, work=args.work)
    print(capture.summary())
    print()
    print(format_utilization_report(capture.world.machine,
                                    capture.elapsed_us, top=args.top))
    print()
    print(capture.profiler.format_report(top=args.top))
    if args.work:
        print()
        print(capture.work.format_report())
    print()
    print(capture.metrics.format_report())
    if args.csv:
        print(f"wrote {write_profile_csv(capture.profiler, args.csv)}")
    if args.folded:
        print(f"wrote {write_folded_stacks(capture.profiler, args.folded)}")


@_command("perf",
          "run the fixed engine perf suite; emit or gate the "
          "BENCH_engine.json trajectory artifact",
          _arg("--suite", default="default", choices=["smoke", "default"],
               help="workload set: smoke = micro kernels only, default "
                    "= micro kernels + p=64/256 collectives on all three "
                    "machines"),
          _arg("--out", metavar="PATH",
               help="write the artifact (e.g. BENCH_engine.json)"),
          _arg("--check", metavar="BASELINE",
               help="gate against a baseline artifact: exits non-zero on "
                    "any work-counter change or on throughput below "
                    "--min-ratio x baseline"),
          _arg("--min-ratio", type=_positive_float, default=None,
               help="events/sec floor as a fraction of the baseline "
                    "(default 0.33; wall-clock only — work counters "
                    "always compare exactly)"),
          _arg("--flame", metavar="PATH",
               help="profile the suite and write collapsed stacks "
                    "(flamegraph.pl / speedscope input)"),
          _arg("--top", type=_positive_int, default=10,
               help="hot modules to list with --flame"))
def _perf(args) -> int:
    from .bench.perfsuite import (
        DEFAULT_MIN_RATIO,
        PERF_SCHEMA,
        build_perf_artifact,
        check_perf_artifact,
        run_perf_suite,
    )
    from .core.canonical import load, write
    from .obs import HostProfile, write_folded_stacks
    profiler = HostProfile() if args.flame else None
    with profiler or nullcontext():
        runs = run_perf_suite(args.suite)
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
        print()
        print(profiler.format_report(top=args.top))
        print(f"wrote {write_folded_stacks(profiler, args.flame)}")
    if args.out:
        print(f"wrote {write(artifact, args.out)}")
    if not args.check:
        return 0
    with _usage(OSError, ValueError):
        baseline = load(args.check, PERF_SCHEMA, "an engine-perf artifact")
    result = check_perf_artifact(
        artifact, baseline, min_ratio=DEFAULT_MIN_RATIO
        if args.min_ratio is None else args.min_ratio)
    print()
    print(result.format())
    return 0 if result.passed() else 1


@_command("sweep",
          "run a (machine, op, m, p) grid through the parallel sweep "
          "runner, reusing cached cells",
          _arg("--grid", default="fig3",
               help="grid preset (fig1, fig2, fig3, smoke, full)"),
          _arg("--mode", default="sim", choices=SWEEP_MODES,
               help="sim = the paper's measurement protocol on the "
                    "simulator, predict = the simulator's noise-free "
                    "time of one warm call, model = the paper's Table 3 "
                    "expressions; --iterations, --runs, --seed and "
                    "--faults apply to sim mode only"),
          _arg("--workers", type=_positive_int, default=1,
               help="worker processes for simulated cells"),
          _arg("--out", metavar="PATH", default="BENCH_sweep.json",
               help="artifact path (default BENCH_sweep.json)"),
          _arg("--csv", metavar="PATH", help="also write the cells as CSV"),
          *_CACHE,
          _arg("--clear-cache", action="store_true",
               help="drop every cached cell before running"),
          _protocol(), *_filter_args(),
          _arg("--faults", metavar="PRESET",
               help="inject a fault-plan preset into every cell "
                    "(single-link-outage, midflight-outage, flaky-link, "
                    "lossy, slow-node, chaos); sim mode only, changes "
                    "every cache fingerprint"),
          _arg("--cell-timeout", type=_positive_float, metavar="SECONDS",
               help="per-cell wall-clock budget; shards that blow it are "
                    "requeued cell by cell and a cell that fails alone "
                    "is quarantined"),
          _arg("--breakdown", action="store_true",
               help="attach a critical-path component breakdown "
                    "(software/wire/contention/fault-recovery) to every "
                    "cell; sim mode only, changes every cache "
                    "fingerprint"),
          _arg("--decision-table", metavar="PATH",
               help="BENCH_tuning.json decision table; cells it covers "
                    "run the tuned algorithm instead of the machine's "
                    "fixed choice (sim and predict modes)"))
def _sweep(args) -> int:
    from .bench import write_sweep_csv
    from .core.canonical import write
    from .runner import (
        ResultCache,
        SweepConfig,
        build_artifact,
        preset_grid,
        run_sweep,
    )
    with _usage(KeyError):
        grid = _filter_grid(preset_grid(args.grid), _csv_names(args.ops),
                            _csv_names(args.machines))
    cells = grid.cells()
    if not cells:
        # An empty sweep is always a spelling mistake, not a request.
        raise UsageError(f"grid {grid.name!r} is empty after filtering; "
                         f"nothing to sweep")
    measurement = _measurement(args, faults=_faults(args))
    if args.breakdown and args.mode != "sim":
        raise UsageError("--breakdown requires --mode sim (only the "
                         "measurement protocol is traced)")
    if args.faults and args.mode != "sim":
        raise UsageError("--faults requires --mode sim (predict and model "
                         "cells run no fault plan)")
    if args.decision_table:
        if args.mode == "model":
            raise UsageError("--decision-table requires --mode sim or "
                             "predict (the Table 3 forms are keyed to "
                             "the machines' fixed algorithms)")
        with _usage(OSError, ValueError):
            cells = _apply_decision_table(cells, args.decision_table)
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
    # An invalid per-cell algorithm override (e.g. a stale or
    # hand-edited decision table) is a usage error, not a crash.
    with _usage(ValueError):
        result = run_sweep(cells, config, cache)
    print(f"sweep {grid.name} (mode={config.mode}, "
          f"workers={config.workers}): {result.summary()}")
    for cell, reason in sorted(result.quarantined.items()):
        print(f"quarantined {cell.key()}: {reason}", file=sys.stderr)
    artifact = build_artifact(result, grid.name, config)
    print(f"wrote {write(artifact, args.out)}")
    if args.csv:
        print(f"wrote {write_sweep_csv(artifact, args.csv)}")
    return 1 if result.quarantined else 0


@_command("tune",
          "race candidate collective algorithms per (machine, op, m, p), "
          "fit crossover points, and emit the BENCH_tuning.json decision "
          "table",
          *_filter_args(machines="sp2,t3d,paragon"),
          _arg("--grid", default="paper",
               help="tuning grid preset (paper, smoke)"),
          _arg("--workers", type=_positive_int, default=1,
               help="worker processes for simulated cells"),
          _arg("--out", metavar="PATH", default="BENCH_tuning.json",
               help="artifact path (default BENCH_tuning.json)"),
          *_CACHE, _protocol(),
          _arg("--top", type=_positive_int, default=10,
               help="flipped cells to list (default 10)"))
def _tune(args) -> int:
    from .core.canonical import write
    from .tuner import run_tune, tune_grid
    with _usage(KeyError):
        grid = _filter_grid(tune_grid(args.grid), _csv_names(args.ops))
    machines = _csv_names(args.machines)
    if not machines:
        raise UsageError("--machines names no machines")
    with _usage(KeyError, ValueError):
        result = run_tune(machines, grid, config=_measurement(args),
                          workers=args.workers, cache_dir=args.cache_dir,
                          use_cache=not args.no_cache)
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


@_command("chaos",
          "run one collective clean and under a fault-plan preset; "
          "report the latency penalty and injector counters",
          _point(nbytes=4096, nodes=16), _SINGLE_CALL,
          _arg("--faults", default="single-link-outage", metavar="PRESET",
               help="fault-plan preset (default single-link-outage)"),
          _arg("--curves", action="store_true",
               help="also print clean vs faulty T0(p) curves over "
                    "Figure 1's node counts"),
          _arg("--out", metavar="PATH",
               help="also dump the injector counters and the faulty "
                    "run's metrics snapshot as JSON (each fault counted "
                    "once: the snapshot's faults.* keys are only the "
                    "NIC stalls and link outages the injector does not "
                    "count)"))
def _chaos(args) -> None:
    from .bench import degradation_curves, run_chaos
    from .core.canonical import write
    from .faults import FAULT_FREE
    _check_point(args)
    plan = _faults(args) or FAULT_FREE
    run = run_chaos(args.machine, args.op, plan,
                    nbytes=args.bytes, num_nodes=args.nodes,
                    iterations=args.iterations, seed=args.seed,
                    metrics=args.out is not None)
    print(run.format())
    if args.out:
        write({
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
        }, args.out)
        print(f"wrote {args.out}")
    if args.curves:
        print()
        print(degradation_curves(args.machine, args.op, plan,
                                 fast=args.fast).format())


@_command("critpath",
          "trace one collective and print its causal critical path with "
          "per-component time attribution",
          _point(nbytes=4096, nodes=16), _SINGLE_CALL,
          _arg("--faults", metavar="PRESET",
               help="run under a fault-plan preset so recovery work "
                    "(retransmits, backoff, detours) appears in the "
                    "attribution"),
          _arg("--steps", type=_positive_int, default=None, metavar="N",
               help="print only the first N chain steps"),
          _arg("--csv", metavar="PATH",
               help="also write the chain (plus totals) as CSV"))
def _critpath(args) -> None:
    from .obs.capture import capture_collective
    from .obs.critpath import write_critpath_csv
    _check_point(args)
    capture = capture_collective(
        args.machine, args.op, nbytes=args.bytes, num_nodes=args.nodes,
        iterations=args.iterations, seed=args.seed, metrics=False,
        faults=_faults(args))
    path = capture.critical_path()
    print(path.format(top=args.steps))
    if args.csv:
        print(f"wrote {write_critpath_csv(path, args.csv)}")


@_command("audit",
          "compare a sweep artifact's cells against the paper's Table 3 "
          "closed forms; exits non-zero on tolerance breach",
          _arg("artifact", nargs="?", default="BENCH_sweep.json",
               help="sweep artifact to audit (default BENCH_sweep.json)"),
          _arg("--rtol", type=_positive_float, default=0.25,
               help="max |relative error| per cell (default 0.25)"),
          _arg("--out", metavar="PATH",
               help="also write the byte-stable drift trend artifact "
                    "(BENCH_drift.json)"),
          _arg("--top", type=_positive_int, default=5,
               help="worst cells / breaches to list"),
          _arg("--trend", action="store_true",
               help="also render drift history as terminal sparklines "
                    "(this audit is the newest generation)"),
          _arg("--history", action="append", metavar="PATH",
               help="prior drift artifact for --trend, oldest first "
                    "(repeatable; default: the --out path, or "
                    "BENCH_drift.json, if it already exists)"))
def _audit(args) -> int:
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
    with _usage(OSError, ValueError):
        artifact = load(args.artifact, ARTIFACT_SCHEMA, "a sweep artifact")
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
        with _usage(OSError, ValueError):
            generations = [load(path, DRIFT_SCHEMA, "a drift artifact")
                           for path in history]
        generations.append(payload)
        print()
        print(format_drift_trend(generations))
    if args.out:
        print(f"wrote {write(payload, args.out)}")
    return 0 if report.passed() else 1


@_command("dash",
          "index every artifact into the canonical BENCH_ledger.json "
          "bundle and render the self-contained HTML dashboard (replay, "
          "drift/perf trends, tuner heatmaps)",
          _arg("--artifacts", action="append", metavar="PATH",
               help="artifact file or directory to index (repeatable; "
                    "default: the current directory, scanned "
                    "recursively)"),
          _arg("--capture", metavar="MACHINE:OP",
               help="also run one traced collective and embed its "
                    "hop-by-hop replay (e.g. t3d:broadcast)"),
          _arg("--bytes", type=int, default=4096,
               help="message size for --capture"),
          _arg("--nodes", type=int, default=16,
               help="node count for --capture"),
          _arg("--seed", type=int, default=0, help="seed for --capture"),
          _arg("--faults", metavar="PRESET",
               help="run the --capture collective under a fault-plan "
                    "preset so the replay shows recovery work"),
          _arg("--out", metavar="DIR", default="site",
               help="output directory (default site/); never scanned "
                    "for inputs"),
          _arg("--open", action="store_true",
               help="open the generated page in a browser"))
def _dash(args) -> None:
    from pathlib import Path

    from .core.canonical import write
    from .dash import write_dashboard
    from .obs.ledger import build_ledger, discover_artifacts
    out_dir = Path(args.out)
    with _usage(ValueError):
        entries = discover_artifacts(args.artifacts or ["."],
                                     exclude=[out_dir])
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.capture:
        args.machine, _, args.op = args.capture.partition(":")
        if args.machine not in machine_names() or not args.op:
            raise UsageError(
                f"--capture wants MACHINE:OP with machine one of "
                f"{'/'.join(machine_names())}, got {args.capture!r}")
        _check_point(args)
        from .obs.capture import capture_collective
        capture = capture_collective(
            args.machine, args.op, nbytes=args.bytes,
            num_nodes=args.nodes, seed=args.seed, faults=_faults(args))
        print(capture.summary())
        replay = capture.to_replay_frames()
        name = f"replay_{args.machine}_{args.op}.json"
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


@_command("diff",
          "compare a sweep artifact against a baseline; exits non-zero "
          "when they differ",
          _arg("baseline",
               help="baseline artifact (e.g. the checked-in "
                    "tests/golden/BENCH_sweep_baseline.json)"),
          _arg("current", nargs="?", default="BENCH_sweep.json",
               help="artifact to check (default BENCH_sweep.json)"),
          _arg("--rtol", type=float, default=0.0,
               help="relative tolerance (default 0: bitwise)"),
          _arg("--atol", type=float, default=0.0,
               help="absolute tolerance in us (default 0)"))
def _diff(args) -> int:
    from .core.canonical import load
    from .runner import ARTIFACT_SCHEMA, diff_artifacts
    with _usage(OSError, ValueError):
        baseline, current = (load(path, ARTIFACT_SCHEMA, "a sweep artifact")
                             for path in (args.baseline, args.current))
    diff = diff_artifacts(baseline, current, rtol=args.rtol,
                          atol=args.atol)
    print(diff.format())
    return 0 if diff.clean() else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args) or 0
    except UsageError as error:
        print(error, file=sys.stderr)
        return 2
    except CampaignError as error:
        print(error, file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        # The sweep pool's context manager has already terminated its
        # workers by the time the interrupt propagates here.
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
