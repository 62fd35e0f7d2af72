"""Property-based guarantees of the sweep runner (Hypothesis).

Two invariants the whole caching/parallelism design rests on:

* the parallel sweep is *bit-identical* to the serial one for any
  sub-grid — workers only change wall-clock time, never results;
* cache keys are stable across interpreter processes (no hash
  randomization leaks in) but change whenever any machine-spec field
  changes, so a cache hit is always a valid result.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.core import MeasurementConfig
from repro.core.canonical import dumps
from repro.machines import get_machine_spec
from repro.runner import (
    ResultCache,
    SweepCell,
    SweepConfig,
    build_artifact,
    cell_fingerprint,
    run_sweep,
    spec_fingerprint,
)

FAST = MeasurementConfig(iterations=1, warmup_iterations=0, runs=1)

#: Cheap cells the parallel-equivalence property samples sub-grids from.
CELL_POOL = sorted(
    SweepCell(machine, op, nbytes, p)
    for machine in ("sp2", "t3d")
    for op in ("broadcast", "reduce")
    for nbytes in (4, 256)
    for p in (2, 4))


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.sampled_from(CELL_POOL), min_size=1, max_size=4,
                unique=True))
def test_parallel_sweep_bit_identical_to_serial(cells):
    serial = run_sweep(
        cells, SweepConfig(mode="sim", workers=1, measurement=FAST,
                           use_cache=False),
        ResultCache(enabled=False))
    parallel = run_sweep(
        cells, SweepConfig(mode="sim", workers=2, measurement=FAST,
                           use_cache=False),
        ResultCache(enabled=False))
    config = SweepConfig(mode="sim", measurement=FAST, use_cache=False)
    assert dumps(build_artifact(serial, "prop", config)) == \
        dumps(build_artifact(parallel, "prop", config))


_SUBPROCESS_SNIPPET = """\
import json
from repro.core import MeasurementConfig
from repro.machines import get_machine_spec
from repro.runner import cell_fingerprint, spec_fingerprint

config = MeasurementConfig(iterations=1, warmup_iterations=0, runs=1)
spec = get_machine_spec("t3d")
print(json.dumps([
    spec_fingerprint(spec),
    cell_fingerprint(spec, "broadcast", 1024, 8, config, "sim"),
    cell_fingerprint(spec, "alltoall", 0, 2, None, "model"),
]))
"""


def _fingerprints_in_subprocess(hash_seed: str):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", _SUBPROCESS_SNIPPET],
                          env=env, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout)


def test_cache_keys_stable_across_processes():
    """Keys computed under different hash seeds are identical, and
    match this process's own."""
    spec = get_machine_spec("t3d")
    local = [
        spec_fingerprint(spec),
        cell_fingerprint(spec, "broadcast", 1024, 8, FAST, "sim"),
        cell_fingerprint(spec, "alltoall", 0, 2, None, "model"),
    ]
    assert _fingerprints_in_subprocess("0") == local
    assert _fingerprints_in_subprocess("424242") == local


#: (attribute path, leaf field) pairs covering every spec subsystem.
FIELD_PATHS = [
    ("software", "call_setup_us"),
    ("software", "send_msg_us"),
    ("software", "recv_msg_us"),
    ("software", "reduce_us_per_byte"),
    ("software", "jitter_sigma"),
    ("memory", "copy_us_per_byte"),
    ("nic", "per_message_us"),
    ("nic", "bandwidth_mbs"),
    ("network", "link_bandwidth_mbs"),
    ("network", "hop_latency_us"),
    (None, "compute_mflops"),
    (None, "clock_skew_us"),
    (None, "timer_resolution_us"),
]


def _mutate_spec(spec, group, leaf, scale):
    if group is None:
        return dataclasses.replace(
            spec, **{leaf: getattr(spec, leaf) * scale})
    inner = getattr(spec, group)
    mutated = dataclasses.replace(
        inner, **{leaf: getattr(inner, leaf) * scale})
    return dataclasses.replace(spec, **{group: mutated})


@settings(max_examples=30, deadline=None)
@given(path=st.sampled_from(FIELD_PATHS),
       machine=st.sampled_from(("sp2", "t3d", "paragon")),
       scale=st.floats(min_value=1.01, max_value=7.5,
                       allow_nan=False, allow_infinity=False))
def test_any_spec_field_change_changes_cache_key(path, machine, scale):
    group, leaf = path
    spec = get_machine_spec(machine)
    mutated = _mutate_spec(spec, group, leaf, scale)
    assert spec_fingerprint(mutated) != spec_fingerprint(spec)
    assert cell_fingerprint(mutated, "broadcast", 16, 4, FAST) != \
        cell_fingerprint(spec, "broadcast", 16, 4, FAST)


def test_algorithm_choice_changes_cache_key():
    spec = get_machine_spec("sp2")
    rewired = dataclasses.replace(
        spec, algorithms={**spec.algorithms,
                          "reduce": "binary_tree_reduce"})
    assert cell_fingerprint(rewired, "reduce", 16, 4, FAST) != \
        cell_fingerprint(spec, "reduce", 16, 4, FAST)
