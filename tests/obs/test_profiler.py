"""Tests for the host profile (cProfile grouped by repro module)."""

import pytest

import repro.mpi.context
import repro.mpi.world
import repro.sim.engine
from repro.obs import (
    HostProfile,
    write_folded_stacks,
    write_profile_csv,
)
from repro.obs.capture import capture_collective
from repro.obs.profiler import EXTERNAL, _module_of
from repro.sim import Environment, Resource

ENGINE = repro.sim.engine.__file__
HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")
STDLIB = "/usr/lib/python3/somewhere.py"


def _profile(stats):
    profile = HostProfile()
    profile.stats = stats
    return profile


def test_builtin_time_is_charged_to_its_repro_caller():
    profile = _profile({
        (ENGINE, 10, "_schedule"): (5, 5, 0.002, 0.006, {}),
        HEAPPUSH: (6, 6, 0.004, 0.004, {
            (ENGINE, 10, "_schedule"): (5, 5, 0.003, 0.003),
            (STDLIB, 1, "helper"): (1, 1, 0.001, 0.001),
        }),
    })
    rows = profile.modules()
    assert [(module, calls) for module, calls, _ in rows] == \
        [("sim/engine.py", 5), (EXTERNAL, 0)]
    assert rows[0][2] == pytest.approx(0.005)
    assert rows[1][2] == pytest.approx(0.001)
    assert profile.folded_lines() == [
        "external;<built-in method _heapq.heappush> 1000",
        "sim/engine.py;_schedule 5000",
    ]


def test_rows_tie_broken_by_name():
    profile = _profile({
        (repro.mpi.world.__file__, 1, "run"): (1, 1, 0.5, 0.5, {}),
        (ENGINE, 1, "step"): (1, 1, 0.9, 0.9, {}),
        (repro.mpi.context.__file__, 1, "send"): (1, 1, 0.5, 0.5, {}),
    })
    assert [row[0] for row in profile.modules()] == \
        ["sim/engine.py", "mpi/context.py", "mpi/world.py"]


def test_folded_lines_sorted_with_integer_weights():
    env = Environment()

    def worker():
        for _ in range(50):
            yield env.timeout(1.0)

    env.process(worker())
    with HostProfile() as profile:
        env.run()
    lines = profile.folded_lines()
    assert lines and lines == sorted(lines)
    for line in lines:
        stack, _, weight = line.rpartition(" ")
        assert weight.isdigit()
        assert stack.count(";") >= 1
    assert any(line.startswith("sim/engine.py;") for line in lines)


def test_empty_profile_writes_empty_exports(tmp_path):
    profile = HostProfile()
    assert profile.modules() == []
    assert profile.folded_lines() == []
    assert "across 0 modules" in profile.format_report()
    csv_path = tmp_path / "profile.csv"
    write_profile_csv(profile, str(csv_path))
    assert csv_path.read_text().splitlines() == ["module,calls,self_s"]
    folded_path = tmp_path / "stacks.folded"
    write_folded_stacks(profile, str(folded_path))
    assert folded_path.read_text() == ""


def test_profiled_capture_matches_plain_capture():
    plain = capture_collective("sp2", "broadcast", iterations=5,
                               trace=False, work=True)
    profiled = capture_collective("sp2", "broadcast", iterations=5,
                                  trace=False, work=True, profile=True)
    assert plain.profiler is None
    assert profiled.elapsed_us == plain.elapsed_us
    assert profiled.work == plain.work
    modules = [row[0] for row in profiled.profiler.modules()]
    assert {"sim/engine.py", "mpi/episode.py"} <= set(modules)
    report = profiled.profiler.format_report(top=3)
    assert report.startswith("host profile:")
    assert len(report.splitlines()) == 4


def _two_rank_run():
    env = Environment()

    def worker():
        for _ in range(5):
            yield env.timeout(1.0)

    env.process(worker(), name="rank-0")
    env.process(worker(), name="rank-1")
    return env


def test_module_of_names_files_relative_to_package():
    assert _module_of(ENGINE) == "sim/engine.py"
    assert _module_of(repro.mpi.context.__file__) == "mpi/context.py"
    assert _module_of("~") is None  # cProfile's name for builtins
    assert _module_of("<string>") is None
    assert _module_of(STDLIB) is None


def test_profiler_counts_events_and_times_callbacks():
    env = _two_rank_run()
    with HostProfile() as profile:
        env.run()
    assert env.now == 5.0
    rows = {module: (calls, self_s)
            for module, calls, self_s in profile.modules()}
    calls, self_s = rows["sim/engine.py"]
    assert calls >= 20  # at least one engine call per timeout fired
    assert self_s >= 0
    # The workers live outside the package: their generator frames are
    # charged to the engine function that resumed them.
    assert not any(module.startswith("tests") for module in rows)


def test_profiler_report_ranks_hot_paths():
    env = _two_rank_run()
    with HostProfile() as profile:
        env.run()
    report = profile.format_report(top=3).splitlines()
    rows = profile.modules()
    assert report[0].startswith("host profile:")
    assert f"across {len(rows)} modules" in report[0]
    assert len(report) == 1 + min(3, len(rows))
    assert [line.split()[0] for line in report[1:]] == \
        [module for module, _, _ in rows[:3]]
    self_times = [self_s for _, _, self_s in rows]
    assert self_times == sorted(self_times, reverse=True)


def test_profiler_detached_has_no_effect_on_results():
    def run(profiled):
        env = Environment()

        def worker():
            for _ in range(20):
                yield env.timeout(0.5)

        env.process(worker())
        if profiled:
            with HostProfile():
                env.run()
        else:
            env.run()
        return env.now

    assert run(False) == run(True) == 10.0


def test_profiler_empty_run_reports_cleanly():
    with HostProfile() as profile:
        pass
    rows = profile.modules()
    # Only the profiler's own teardown is on record: no simulator code.
    assert {module for module, _, _ in rows} <= {"obs/profiler.py",
                                                 EXTERNAL}
    assert sum(self_s for _, _, self_s in rows) < 1e-3
    report = profile.format_report()
    assert report.startswith("host profile:")
    assert len(report.splitlines()) == 1 + len(rows)


def test_profiler_nested_regions_split_self_and_cumulative():
    """Resource request/release call into the event machinery, so their
    cumulative time strictly exceeds their self time, and the folded
    export names them under their own module."""
    env = Environment()
    resource = Resource(env, capacity=1)

    def worker():
        for _ in range(25):
            request = resource.request()
            yield request
            yield env.timeout(0.1)
            resource.release(request)

    for index in range(4):
        env.process(worker(), name=f"worker-{index}")
    with HostProfile() as profile:
        env.run()

    by_function = {function: stat
                   for (filename, _, function), stat in profile.stats.items()
                   if _module_of(filename) == "sim/resources.py"}
    _, calls, self_s, cumulative_s, _ = by_function["request"]
    assert calls == 100
    assert self_s < cumulative_s
    assert by_function["release"][1] == 100
    folded = profile.folded_lines()
    assert any(line.startswith("sim/resources.py;request ")
               for line in folded)
    assert any(line.startswith("sim/resources.py;release ")
               for line in folded)
    # Every second of self time is charged exactly once.
    total_us = sum(int(line.rpartition(" ")[2]) for line in folded)
    module_total_s = sum(self_s for _, _, self_s in profile.modules())
    assert total_us == pytest.approx(module_total_s * 1e6,
                                     abs=len(folded))


def test_profiler_attach_detach_mid_run():
    """A profile can wrap any stretch of a run: profiling only its
    second half leaves the result as it would be unprofiled."""
    plain = _two_rank_run()
    plain.run()
    env = _two_rank_run()
    env.run(until=2.5)
    with HostProfile() as second_half:
        env.run()
    assert env.now == plain.now == 5.0
    assert "sim/engine.py" in {module for module, _, _
                               in second_half.modules()}
    # A fresh profile around another run records independently.
    again = _two_rank_run()
    with HostProfile() as other:
        again.run()
    assert other.stats is not second_half.stats
    assert "sim/engine.py" in {module for module, _, _ in other.modules()}


def test_profiler_rankings_tie_broken_by_name():
    profile = _profile({
        (repro.mpi.world.__file__, 1, "run"): (1, 1, 0.5, 0.5, {}),
        (ENGINE, 1, "step"): (1, 1, 0.5, 0.5, {}),
        (repro.mpi.context.__file__, 1, "send"): (1, 1, 0.5, 0.5, {}),
    })
    report = profile.format_report(top=2).splitlines()
    assert [line.split()[0] for line in report[1:]] == \
        ["mpi/context.py", "mpi/world.py"]
    assert "across 3 modules" in report[0]


def test_profiler_csv_and_folded_exports(tmp_path):
    env = _two_rank_run()
    with HostProfile() as profile:
        env.run()
    csv_path = tmp_path / "profile.csv"
    write_profile_csv(profile, str(csv_path))
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "module,calls,self_s"
    assert any(line.startswith("sim/engine.py,") for line in lines[1:])
    folded_path = tmp_path / "engine.folded"
    write_folded_stacks(profile, str(folded_path))
    content = folded_path.read_text()
    assert content.endswith("\n")
    for line in content.strip().splitlines():
        stack, _, weight = line.rpartition(" ")
        assert stack
        assert weight.isdigit()


def test_profiled_capture_keeps_trace_identical():
    plain = capture_collective("t3d", "broadcast", nbytes=4096,
                               num_nodes=8, iterations=2)
    profiled = capture_collective("t3d", "broadcast", nbytes=4096,
                                  num_nodes=8, iterations=2,
                                  profile=True)
    assert profiled.elapsed_us == plain.elapsed_us

    def timeline(capture):
        # Communicator ids come from a process-wide counter, so compare
        # what was traced and when, not the ids.
        return [(span.id, span.parent, span.category, span.name,
                 span.node, span.start, span.end)
                for span in capture.tracer.spans()]

    assert timeline(profiled) == timeline(plain)
    assert len(timeline(plain)) > 1
