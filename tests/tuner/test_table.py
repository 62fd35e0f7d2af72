"""Decision-table semantics: lookup, validation, round-tripping."""

import pytest

from repro.tuner import (
    DecisionEntry,
    DecisionRule,
    DecisionTable,
    TUNING_SCHEMA,
    build_tuning_artifact,
    load_decision_table,
)
from repro.core.canonical import write


def _table():
    return DecisionTable(
        entries={
            ("sp2", "broadcast"): (
                DecisionEntry(min_p=0, rules=(
                    DecisionRule(0, "binomial_broadcast"),)),
                DecisionEntry(min_p=8, rules=(
                    DecisionRule(0, "binomial_broadcast"),
                    DecisionRule(16384, "scatter_allgather_broadcast"),
                )),
            ),
        },
        defaults={("sp2", "broadcast"): "binomial_broadcast"},
    )


def test_lookup_band_and_rule_selection():
    table = _table()
    # Small p: the min_p=0 band, always binomial.
    assert table.lookup("sp2", "broadcast", 1 << 20, 4) == \
        "binomial_broadcast"
    # Large p, short message: still binomial.
    assert table.lookup("sp2", "broadcast", 1024, 16) == \
        "binomial_broadcast"
    # Large p, long message: the tuned crossover fires.
    assert table.lookup("sp2", "broadcast", 65536, 16) == \
        "scatter_allgather_broadcast"
    # Exactly at the threshold: the >= band wins.
    assert table.lookup("sp2", "broadcast", 16384, 8) == \
        "scatter_allgather_broadcast"


def test_lookup_below_grid_extrapolates_downward():
    table = _table()
    # p below every band and m below every rule still answer (the
    # nearest band/rule), never None for a tuned (machine, op).
    assert table.lookup("sp2", "broadcast", 0, 2) == \
        "binomial_broadcast"


def test_lookup_untuned_pair_has_no_opinion():
    table = _table()
    assert table.lookup("sp2", "reduce", 1024, 16) is None
    assert table.lookup("t3d", "broadcast", 1024, 16) is None


def test_validate_accepts_registered_and_rejects_unknown():
    _table().validate()
    bad = DecisionTable(entries={
        ("sp2", "broadcast"): (
            DecisionEntry(min_p=0, rules=(
                DecisionRule(0, "warp_drive_broadcast"),)),
        ),
    })
    with pytest.raises(ValueError, match="warp_drive_broadcast"):
        bad.validate()


def test_payload_round_trip(tmp_path):
    table = _table()
    artifact = build_tuning_artifact(table, flips=[], grid_name="unit",
                                     config=None)
    assert artifact["schema"] == TUNING_SCHEMA
    path = write(artifact, tmp_path / "BENCH_tuning.json")
    loaded = load_decision_table(path)
    assert loaded.entries == table.entries
    assert loaded.defaults == table.defaults
    assert loaded.lookup("sp2", "broadcast", 65536, 16) == \
        "scatter_allgather_broadcast"


def test_dumps_is_canonical():
    from repro.core.canonical import dumps
    from repro.tuner import dumps_tuning

    # Kept as an alias of the one canonical serializer.
    assert dumps_tuning is dumps
    artifact = build_tuning_artifact(_table(), flips=[],
                                     grid_name="unit", config=None)
    text = dumps_tuning(artifact)
    assert text.endswith("\n")
    # Key-sorted and stable under re-serialization.
    import json
    assert dumps_tuning(json.loads(text)) == text


def test_load_decision_table_rejects_wrong_schema(tmp_path):
    path = tmp_path / "bogus.json"
    path.write_text('{"schema": "repro-sweep/1"}', "utf-8")
    with pytest.raises(ValueError, match="not a tuning artifact"):
        load_decision_table(path)


def test_flip_times_are_rounded_to_9_digits():
    artifact = build_tuning_artifact(
        _table(),
        flips=[{"machine": "sp2", "op": "broadcast", "nbytes": 65536,
                "p": 16, "algorithm": "scatter_allgather_broadcast",
                "time_us": 1234.5678901234567,
                "default_algorithm": "binomial_broadcast",
                "default_time_us": 2345.6789012345678,
                "speedup": 1.9000123456789012}],
        grid_name="unit", config=None)
    flip = artifact["flips"][0]
    assert flip["time_us"] == float(f"{1234.5678901234567:.9g}")
    assert flip["speedup"] == float(f"{1.9000123456789012:.9g}")


def test_spec_with_decision_table_consults_it():
    from repro.machines import get_machine_spec

    spec = get_machine_spec("sp2")
    tuned = spec.with_decision_table(_table())
    # Fields (and therefore fingerprints) unchanged...
    assert tuned == spec
    # ...but size-aware resolution now flips the long-message cell.
    assert tuned.algorithm_for("broadcast", nbytes=65536, p=16) == \
        "scatter_allgather_broadcast"
    assert tuned.algorithm_for("broadcast", nbytes=16, p=16) == \
        "binomial_broadcast"
    # Without m/p the fixed choice answers (composite sub-stages).
    assert tuned.algorithm_for("broadcast") == "binomial_broadcast"
    # The original spec is untouched.
    assert spec.algorithm_for("broadcast", nbytes=65536, p=16) == \
        "binomial_broadcast"
