"""A 2-cell in-process smoke through the benchmark's own job function.

It checks that the metric and workload names the benchmark emits are
exactly those of BENCHMARK.json, and that what must repeat does.
"""

import signal

import pytest

import campaign
import run
from repro.runner import SweepCell

SPEC = run.load_spec()
SMOKE_CELLS = (SweepCell("t3d", "broadcast", 4, 2),
               SweepCell("sp2", "barrier", 0, 2))
SIGALRM_HANDLER = signal.getsignal(signal.SIGALRM)


def smoke(tmp_path, name, mode):
    return campaign.run_job("fig1-startup", 1997, str(tmp_path / name),
                            mode=mode, cells=SMOKE_CELLS)


@pytest.fixture(scope="module")
def smokes(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("smoke")
    return {name: smoke(tmp_path, name, mode)
            for name, mode in (("measured", "measure"), ("pair", "pair"),
                               ("traced", "trace"),
                               ("traced-again", "trace"))}


def test_workload_names_match_spec():
    assert campaign.WORKLOADS == tuple(w["name"] for w in SPEC["workloads"])


def test_metric_names_match_spec(smokes):
    end_to_end = run.end_to_end_metrics([smokes["measured"]], setup_s=0.25)
    per_layer = run.per_layer_metrics(smokes["pair"], smokes["traced"])
    assert list(end_to_end) == [m["name"] for m in SPEC["end_to_end"]]
    assert sorted(per_layer) == sorted(m["name"] for m in SPEC["per_layer"])


def test_smoke_passes_its_checks(smokes):
    for report in smokes.values():
        assert report["attempted"] == len(SMOKE_CELLS)
        assert report["failed"] == 0
        assert all(report["checks"].values()), report["checks"]
        assert report["max_abs_rel_err"] > 0


def test_measuring_and_tracing_do_not_change_the_simulation(smokes):
    digests = {report["sim_digest"] for report in smokes.values()}
    assert len(digests) == 1
    assert smokes["traced"]["work"]["events_fired"] > 0


def test_measured_time_is_rescaled_and_the_timer_restored(smokes):
    measured = smokes["measured"]
    assert measured["kernel_s"] > 0
    assert measured["wall_s"] > 0
    assert measured["wall_s"] != measured["host_wall_s"]
    assert smokes["pair"]["wall_s"] == smokes["pair"]["host_wall_s"]
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == SIGALRM_HANDLER


def test_back_to_back_smokes_repeat_exactly(smokes):
    first, second = smokes["traced"], smokes["traced-again"]
    assert first["sim_digest"] == second["sim_digest"]
    assert first["work"] == second["work"]
    assert ({name: layer["calls"] for name, layer in first["layers"].items()}
            == {name: layer["calls"]
                for name, layer in second["layers"].items()})
    deterministic = [name for name in run.per_layer_metrics(first, first)
                     if run.is_deterministic(name)]
    assert deterministic
    assert ({name: run.per_layer_metrics(first, first)[name]
             for name in deterministic}
            == {name: run.per_layer_metrics(second, second)[name]
                for name in deterministic})
