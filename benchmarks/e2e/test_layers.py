"""The layer table, cProfile attribution and BENCHMARK.json limits."""

import json
import re

import pytest

from attribution import EXTERNAL, LAYERS, PACKAGE, attribute, \
    matching_layers

SPEC = json.loads((PACKAGE.parents[1] / "BENCHMARK.json").read_text())

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_every_module_maps_to_exactly_one_layer():
    files = sorted(PACKAGE.rglob("*.py"))
    assert files
    for path in files:
        relpath = path.relative_to(PACKAGE).as_posix()
        assert len(matching_layers(relpath)) == 1, relpath


def test_most_specific_pattern_wins():
    assert matching_layers("sim/resources.py") == {"sim.resources"}
    assert matching_layers("sim/engine.py") == {"sim.engine"}
    assert matching_layers("mpi/transport.py") == {"mpi.transport"}
    assert matching_layers("mpi/collectives/zoo.py") == {"mpi.collectives"}
    assert matching_layers("mpi/context.py") == {"mpi.context"}


def test_builtin_time_is_charged_to_its_repro_caller():
    engine = (str(PACKAGE / "sim" / "engine.py"), 600, "_dispatch")
    transport = (str(PACKAGE / "mpi" / "transport.py"), 90, "send")
    stdlib = ("/usr/lib/python3/json/encoder.py", 200, "encode")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    stats = {
        engine: (4, 4, 0.5, 1.0, {}),
        transport: (2, 2, 0.25, 0.5, {engine: (2, 2, 0.25, 0.5)}),
        heappush: (7, 7, 0.375, 0.375, {
            engine: (4, 4, 0.25, 0.25),
            transport: (2, 2, 0.0625, 0.0625),
            stdlib: (1, 1, 0.0625, 0.0625),
        }),
    }
    layers = attribute(stats)
    assert layers["sim.engine"] == {"self_s": 0.75, "calls": 4}
    assert layers["mpi.transport"] == {"self_s": 0.3125, "calls": 2}
    assert layers[EXTERNAL]["self_s"] == 0.0625
    assert sum(layer["self_s"] for layer in layers.values()) == 1.125


def test_spec_keys():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 1 <= SPEC["run_seconds"] <= 60
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


@pytest.mark.parametrize("section", ["workloads", "end_to_end", "per_layer"])
def test_spec_names_are_valid_and_unique(section):
    names = [entry["name"] for entry in SPEC[section]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in SPEC[section]:
        if "unit" in entry:
            assert UNIT.fullmatch(entry["unit"]), entry
        if "better" in entry:
            assert entry["better"] in ("lower", "higher"), entry


def test_spec_limits():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in SPEC["end_to_end"])}]


def test_every_layer_has_its_metrics():
    names = {metric["name"] for metric in SPEC["per_layer"]}
    for layer in (*LAYERS, EXTERNAL):
        assert {f"{layer}.self_s", f"{layer}.share"} <= names
        assert (f"{layer}.calls" in names) == (layer != EXTERNAL)
