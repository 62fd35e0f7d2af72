"""Tests for content-addressed sweep fingerprints."""

import dataclasses

import pytest

from repro.core import MeasurementConfig, QUICK_CONFIG
from repro.machines import get_machine_spec
from repro.runner import (
    canonical_json,
    cell_fingerprint,
    spec_fingerprint,
    to_jsonable,
)

SP2 = get_machine_spec("sp2")
T3D = get_machine_spec("t3d")


def test_to_jsonable_reduces_machine_spec():
    payload = to_jsonable(T3D)
    assert payload["name"] == "t3d"
    assert payload["software"]["send_msg_us"] > 0
    # Enum fields collapse to their values ...
    assert payload["dma"]["kind"] == "blt"
    # ... and the algorithms mapping becomes a plain sorted dict.
    assert payload["algorithms"]["barrier"] == "hardware_barrier"


def test_to_jsonable_rejects_opaque_objects():
    with pytest.raises(TypeError):
        to_jsonable(object())


def test_canonical_json_is_key_order_invariant():
    a = canonical_json({"b": 1, "a": {"d": 2, "c": 3}})
    b = canonical_json({"a": {"c": 3, "d": 2}, "b": 1})
    assert a == b


def test_spec_fingerprint_is_hex_sha256():
    key = spec_fingerprint(SP2)
    assert len(key) == 64
    assert int(key, 16) >= 0
    assert key == spec_fingerprint(SP2)


def test_cell_fingerprint_distinguishes_every_axis():
    base = cell_fingerprint(SP2, "broadcast", 1024, 8, QUICK_CONFIG)
    variants = [
        cell_fingerprint(T3D, "broadcast", 1024, 8, QUICK_CONFIG),
        cell_fingerprint(SP2, "reduce", 1024, 8, QUICK_CONFIG),
        cell_fingerprint(SP2, "broadcast", 4096, 8, QUICK_CONFIG),
        cell_fingerprint(SP2, "broadcast", 1024, 16, QUICK_CONFIG),
        cell_fingerprint(SP2, "broadcast", 1024, 8, None),
        cell_fingerprint(SP2, "broadcast", 1024, 8, QUICK_CONFIG,
                         mode="predict"),
        cell_fingerprint(SP2, "broadcast", 1024, 8,
                         MeasurementConfig(iterations=5)),
    ]
    assert len({base, *variants}) == len(variants) + 1


def test_cell_fingerprint_tracks_simulator_version(monkeypatch):
    import repro.runner.fingerprint as fp

    base = cell_fingerprint(SP2, "broadcast", 1024, 8, QUICK_CONFIG)
    monkeypatch.setattr(fp, "SIM_VERSION", "999-test")
    bumped = cell_fingerprint(SP2, "broadcast", 1024, 8, QUICK_CONFIG)
    assert base != bumped


def test_seed_changes_key_but_contention_flag_too():
    quiet = dataclasses.replace(QUICK_CONFIG, contention=False)
    reseeded = dataclasses.replace(QUICK_CONFIG, seed=7)
    base = cell_fingerprint(SP2, "alltoall", 64, 4, QUICK_CONFIG)
    assert cell_fingerprint(SP2, "alltoall", 64, 4, quiet) != base
    assert cell_fingerprint(SP2, "alltoall", 64, 4, reseeded) != base


def test_breakdown_flag_changes_key_only_when_set():
    base = cell_fingerprint(SP2, "broadcast", 1024, 8, QUICK_CONFIG)
    explicit = cell_fingerprint(SP2, "broadcast", 1024, 8,
                                QUICK_CONFIG, breakdown=False)
    marked = cell_fingerprint(SP2, "broadcast", 1024, 8, QUICK_CONFIG,
                              breakdown=True)
    # Default and explicit False hash identically, so every
    # pre-breakdown cache entry stays valid; True gets its own key.
    assert base == explicit
    assert marked != base
