"""End-to-end benchmark of the paper campaign.

Times four fixed jobs at the paper's k=20 / 2-warm-up / 5-run protocol,
each in a fresh interpreter against an empty result cache, and checks
their outputs.  Run from the repository root::

    python benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--out results.json]

Without ``--trace`` every job runs untraced and the end-to-end metrics
are printed, one ``<workload> <metric> <value> <unit>`` line each.
Times are rescaled to a nominal host speed measured during each job
(see ``hostspeed.py``); the raw wall time is printed as ``host_wall_s``.
With ``--trace`` each job runs once untraced and once under cProfile
with a ``WorkMeter`` on every simulated world, and the per-layer
metrics are printed instead.  ``--seconds`` repeats each untraced job
until that much time is used and reports medians.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit status is 1 when an output check
fails and 2 when the repository's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: Scratch space for result caches and temporary files, inside the
#: benchmark's directory so that the benchmark writes nowhere else.
WORK = HERE / ".scratch"

DEFAULT_SEED = 1997
RESULT_SCHEMA = "repro-e2e-result/1"
#: Fresh-interpreter set-up probes per workload; the median is reported.
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150.0

#: Per-layer metric -> WorkMeter counter it reports.
WORK_METRICS = {
    "sim.engine.events_fired": "events_fired",
    "sim.engine.callbacks_dispatched": "callbacks_dispatched",
    "sim.engine.heap_peak": "heap_peak",
    "sim.resources.requests": "resource_requests",
    "sim.resources.occupancies": "resource_occupancies",
    "network.transfers_booked": "transfers_booked",
    "network.transfers_shortcircuited": "transfers_shortcircuited",
    "network.transfers_stalled": "transfers_stalled",
    "network.transfers_rerouted": "transfers_rerouted",
    "network.transfers_aborted": "transfers_aborted",
    "network.link_acquisitions": "link_acquisitions",
    "mpi.transport.messages_sent": "messages_sent",
    "mpi.transport.retransmissions": "retransmissions",
}

#: Per-layer metric -> (entry point, "cum_s" or "calls").
ENTRY_METRICS = {
    "machines.world_build_s": ("machines.world_build", "cum_s"),
    "machines.world_builds": ("machines.world_build", "calls"),
    "core.protocol_runs": ("core.protocol_run", "calls"),
    "runner.cache_get_s": ("runner.cache_get", "cum_s"),
    "runner.cache_put_s": ("runner.cache_put", "cum_s"),
    "runner.fingerprint_s": ("runner.fingerprint", "cum_s"),
    "tuner.fit_s": ("tuner.fit", "cum_s"),
}

#: The model's error against Table 3, reported beside every timing.
#: It depends only on the seed and the simulation, so a speed change
#: must leave it bit-identical; it is a check, not a gated metric,
#: because the fault plans make it swing with the seed.
ACCURACY = ("max_abs_rel_err", "median_abs_rel_err")


def is_deterministic(name: str) -> bool:
    """Whether a value repeats exactly for a given seed and commit.

    Host times, shares of host time and memory vary; counts, ratios of
    counts and the model error do not.
    """
    return not (name.endswith(("_s", ".share", "_mb"))
                or name in ("sim.engine.host_ns_per_event",
                            "bench.trace_overhead_x"))


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


def end_to_end_metrics(samples: Sequence[Mapping], setup_s: float
                       ) -> Dict[str, float]:
    """The end-to-end metrics of one workload from its untraced jobs."""
    return {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer_metrics(untraced: Mapping, traced: Mapping
                      ) -> Dict[str, float]:
    """The per-layer metrics of one workload from a job pair.

    Both jobs run the same way (``tune-cold`` on one worker), so their
    raw wall times compare directly.
    """
    metrics: Dict[str, float] = {}
    layers = traced["layers"]
    total_s = sum(layer["self_s"] for layer in layers.values())
    for name, layer in layers.items():
        metrics[f"{name}.self_s"] = layer["self_s"]
        metrics[f"{name}.share"] = _ratio(layer["self_s"], total_s)
        if name != "external":
            metrics[f"{name}.calls"] = layer["calls"]
    work = traced["work"]
    for name, counter in WORK_METRICS.items():
        metrics[name] = work.get(counter, 0)
    booked = work.get("transfers_booked", 0)
    metrics["network.shortcircuit_ratio"] = _ratio(
        work.get("transfers_shortcircuited", 0), booked)
    metrics["network.stall_ratio"] = _ratio(
        work.get("transfers_stalled", 0), booked)
    metrics["mpi.transport.retransmit_ratio"] = _ratio(
        work.get("retransmissions", 0), work.get("messages_sent", 0))
    metrics["runner.cache_hit_ratio"] = traced["warm_hit_ratio"]
    # The warm pass fires no events, so its time is left out.
    metrics["sim.engine.host_ns_per_event"] = _ratio(
        (untraced["host_wall_s"] - untraced["warm_rerun_s"]) * 1e9,
        work.get("events_fired", 0))
    for name, (entry, field) in ENTRY_METRICS.items():
        metrics[name] = traced["entry_points"][entry][field]
    metrics["runner.cells_evaluated"] = traced["cells_evaluated"]
    metrics["runner.warm_rerun_s"] = untraced["warm_rerun_s"]
    metrics["bench.trace_overhead_x"] = (traced["host_wall_s"]
                                         / untraced["host_wall_s"])
    return metrics


def _child_env(tmp: Path) -> Dict[str, str]:
    """The environment of every child: this checkout's sources, the
    library's defaults (no ``REPRO_*`` overrides), scratch files kept
    inside the checkout."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    return env


def _run_child(script: str, args: Sequence[str],
               env: Mapping[str, str]) -> str:
    """Run ``script`` of this directory with ``args``; return its
    standard output.

    The child gets its own process group so that a timeout also stops
    the pool workers it forked.
    """
    command = f"{script} {' '.join(args)}"
    proc = subprocess.Popen(
        [sys.executable, str(HERE / script), *args],
        stdout=subprocess.PIPE, env=dict(env), cwd=str(ROOT),
        start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{command} timed out after "
                           f"{CHILD_TIMEOUT_S:g} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{command} exited with status "
                           f"{proc.returncode}")
    return out


class Bench:
    """Runs the jobs of one invocation inside one scratch directory."""

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        self.env = _child_env(tmp)

    def job(self, workload: str, mode: str) -> dict:
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.tmp)
        try:
            out = _run_child("campaign.py",
                             [workload, "--seed", str(self.seed),
                              "--cache-dir", cache_dir, "--mode", mode],
                             self.env)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        return json.loads(out.strip().splitlines()[-1])

    def setup_s(self, workload: str) -> float:
        """Median of fresh-interpreter set-up probes (``probe.py``).

        One untimed probe first compiles the bytecode.
        """
        args = [workload, "--seed", str(self.seed)]
        _run_child("probe.py", args, self.env)
        return statistics.median(
            float(_run_child("probe.py", args, self.env))
            for _ in range(SETUP_PROBES))

    def untraced(self, workload: str, seconds: float) -> dict:
        """Repeat the job until ``seconds`` are used (at least once)."""
        setup_s = self.setup_s(workload)
        samples: List[dict] = []
        started = time.perf_counter()
        while True:
            job_started = time.perf_counter()
            samples.append(self.job(workload, "measure"))
            last_s = time.perf_counter() - job_started
            if time.perf_counter() - started + last_s > seconds:
                break
        failed_checks = _failed_checks(samples)
        if len({s["sim_digest"] for s in samples}) != 1:
            failed_checks.append("digest-stable-across-samples")
        result = _summary(samples, end_to_end_metrics(samples, setup_s),
                          failed_checks)
        result["host_wall_s"] = statistics.median(
            s["host_wall_s"] for s in samples)
        return result

    def traced(self, workload: str) -> dict:
        untraced = self.job(workload, "pair")
        traced = self.job(workload, "trace")
        samples = [untraced, traced]
        failed_checks = _failed_checks(samples)
        if traced["sim_digest"] != untraced["sim_digest"]:
            failed_checks.append("traced-digest-matches-untraced")
        return _summary(samples, per_layer_metrics(untraced, traced),
                        failed_checks)


def _failed_checks(samples: Sequence[Mapping]) -> List[str]:
    return sorted({name for sample in samples
                   for name, ok in sample["checks"].items() if not ok})


def _summary(samples: Sequence[Mapping], metrics: Dict[str, float],
             failed_checks: List[str]) -> dict:
    deterministic = {name: value for name, value in metrics.items()
                     if is_deterministic(name)}
    for name in (*ACCURACY, "sim_digest"):
        deterministic[name] = samples[0][name]
    return {
        "samples": len(samples),
        "jobs":[{name: s[name]
                  for name in ("mode", "wall_s", "host_wall_s", "kernel_s")}
                 for s in samples],
        "attempted": sum(s["attempted"] for s in samples),
        "failed": sum(s["failed"] for s in samples),
        "values": metrics,
        "deterministic": deterministic,
        "failed_checks": failed_checks,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a full "
              f"checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the paper campaign.")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="repeat each untraced job for this long")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--out", help="write the full results here")
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    units = {metric["name"]: metric["unit"]
             for metric in spec["per_layer" if trace else "end_to_end"]}

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        bench = Bench(args.seed, tmp)
        results = {workload: (bench.traced(workload) if trace
                              else bench.untraced(workload, args.seconds))
                   for workload in (args.workload or names)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    single = len(results) == 1
    line: Dict[str, object] = {"correct": True, "attempted": 0,
                               "failed": 0, "metrics": {}}
    for workload, result in results.items():
        print(f"{workload} samples: {result['samples']}")
        values = result.pop("values")
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in units.items()}
        for name, metric in result["metrics"].items():
            print(f"{workload} {name} {metric['value']!r} {metric['unit']}")
            line["metrics"][name if single else f"{workload}.{name}"] = metric
        if "host_wall_s" in result:
            print(f"{workload} host_wall_s {result['host_wall_s']!r} s")
        for name in ACCURACY:
            print(f"{workload} {name} {result['deterministic'][name]!r} "
                  f"ratio")
        print(f"{workload} sim_digest {result['deterministic']['sim_digest']}")
        for check in result["failed_checks"]:
            print(f"CHECK FAILED {workload} {check}", file=sys.stderr)
        line["correct"] = line["correct"] and not result["failed_checks"]
        line["attempted"] += result["attempted"]
        line["failed"] += result["failed"]
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"schema": RESULT_SCHEMA, "seed": args.seed, "trace": trace,
             "workloads": results}, indent=2, sort_keys=True) + "\n")
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
