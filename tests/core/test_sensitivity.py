"""Tests for the parameter-sensitivity scanner."""

from dataclasses import replace

import pytest

from repro.core import (
    format_sensitivities,
    scan_sensitivities,
    tunable_parameters,
)
from repro.machines import PARAGON, SP2, T3D


def test_tunable_parameters_cover_all_blocks():
    names = tunable_parameters(T3D)
    assert "software.send_msg_us" in names
    assert "memory.copy_us_per_byte" in names
    assert "nic.bandwidth_mbs" in names
    assert "network.hop_latency_us" in names
    assert "dma.setup_us" in names  # the T3D has a BLT


def test_sp2_has_no_dma_parameters():
    assert not any(name.startswith("dma.")
                   for name in tunable_parameters(SP2))


def test_scan_sorted_by_magnitude():
    results = scan_sensitivities(SP2, "broadcast", 4, 32)
    magnitudes = [abs(s.elasticity) for s in results]
    assert magnitudes == sorted(magnitudes, reverse=True)


def test_long_alltoall_is_copy_bound_on_sp2():
    results = scan_sensitivities(SP2, "alltoall", 65536, 64)
    assert results[0].parameter == "memory.copy_us_per_byte"
    assert results[0].elasticity > 0.8


def test_short_broadcast_is_software_bound():
    results = scan_sensitivities(T3D, "broadcast", 4, 64)
    top = {s.parameter for s in results[:3]}
    assert top <= {"software.deliver_us", "software.send_msg_us",
                   "software.recv_msg_us", "software.call_setup_us"}


def test_t3d_barrier_bypasses_the_messaging_stack():
    # The hardwired barrier depends only on its own (tiny) call setup;
    # every messaging-stack parameter is off its path.
    results = scan_sensitivities(T3D, "barrier", 0, 64)
    for s in results:
        if s.parameter == "software.barrier_call_setup_us":
            continue
        assert abs(s.elasticity) < 0.05, s.parameter


def test_long_scatter_on_t3d_depends_on_blt():
    results = scan_sensitivities(T3D, "scatter", 65536, 64)
    top = {s.parameter for s in results[:3]}
    assert "dma.us_per_byte" in top


def test_bandwidth_elasticity_is_negative():
    # Raising a bandwidth lowers time.
    results = scan_sensitivities(PARAGON, "alltoall", 65536, 32,
                                 parameters=["nic.bandwidth_mbs"])
    assert results[0].elasticity <= 0.0


def test_scan_keeps_an_attached_decision_table():
    class Table:
        def lookup(self, machine, op, nbytes, p):
            return "scatter_allgather_broadcast"

    tuned = SP2.with_decision_table(Table())
    raced = replace(SP2, algorithms={**dict(SP2.algorithms),
                                     "broadcast":
                                     "scatter_allgather_broadcast"})
    parameters = ["memory.copy_us_per_byte", "nic.bandwidth_mbs"]
    scans = [scan_sensitivities(spec, "broadcast", 65536, 8,
                                parameters=parameters)
             for spec in (tuned, raced, SP2)]
    assert scans[0] == scans[1] != scans[2]


def test_invalid_step_rejected():
    with pytest.raises(ValueError):
        scan_sensitivities(SP2, "broadcast", 4, 8, relative_step=0.0)


def test_format_renders_table():
    results = scan_sensitivities(SP2, "reduce", 1024, 16)
    text = format_sensitivities(results, top=4)
    assert "sensitivity of reduce" in text
    assert "elasticity" in text
    with pytest.raises(ValueError):
        format_sensitivities([])


def test_elasticity_definition():
    results = scan_sensitivities(SP2, "broadcast", 65536, 2,
                                 parameters=["memory.copy_us_per_byte"],
                                 relative_step=0.10)
    s = results[0]
    expected = ((s.perturbed_us - s.baseline_us) / s.baseline_us) / 0.10
    assert s.elasticity == pytest.approx(expected)
