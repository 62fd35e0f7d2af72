"""STAP-style trade-off: divided computation vs collective communication.

The paper's data came from STAP (space-time adaptive processing) radar
benchmarks, and its stated purpose is to let developers "optimize
parallel applications by trade-offs between divided computation and
collective communication".  This example performs exactly that study
on the simulator.

Model problem: a radar data cube must be processed in two phases with a
corner turn (data transposition = total exchange) between them.

* With ``p`` nodes, per-node compute per phase is ``W / p``
  microseconds.
* The corner turn exchanges the cube: each node sends every other node
  ``CUBE_BYTES / p**2`` bytes (the classic transpose decomposition).

More nodes cut compute but shrink messages toward the latency-dominated
regime while adding O(p) startup stages — so each machine has a sweet
spot, and the sweet spot differs between machines exactly the way the
paper's latency/bandwidth trade-offs predict.

Usage::

    python examples/stap_tradeoff.py
"""

from repro import MpiWorld
from repro.core.report import format_table, format_us

#: Total work per phase across all nodes, in CPU-microseconds.
TOTAL_WORK_US = 100_000.0
#: Radar data cube size in bytes (4 MB).
CUBE_BYTES = 4 * 2 ** 20


def stap_step_time(machine: str, num_nodes: int) -> float:
    """Simulated wall time of compute -> corner turn -> compute."""
    world = MpiWorld(machine, num_nodes, seed=7)
    compute_us = TOTAL_WORK_US / num_nodes
    message_bytes = max(CUBE_BYTES // (num_nodes * num_nodes), 4)

    def program(ctx):
        yield from ctx.barrier()
        yield from ctx.delay(compute_us)        # phase 1 (e.g. Doppler)
        yield from ctx.alltoall(message_bytes)  # corner turn
        yield from ctx.delay(compute_us)        # phase 2 (beamforming)
        return ctx.env.now

    finish_times = world.run(program)
    return max(finish_times)


def main() -> None:
    machine_sizes = (4, 8, 16, 32, 64, 128)
    rows = []
    best = {}
    for machine in ("sp2", "t3d", "paragon"):
        times = {p: stap_step_time(machine, p) for p in machine_sizes}
        best[machine] = min(times, key=times.get)
        rows.append([machine] +
                    [format_us(times[p]) for p in machine_sizes] +
                    [str(best[machine])])
    print(format_table(
        ["machine"] + [f"p={p}" for p in machine_sizes] + ["best p"],
        rows,
        title="STAP step time: compute + corner turn + compute "
              f"(cube {CUBE_BYTES >> 20} MB, work "
              f"{TOTAL_WORK_US / 1e3:.0f} ms-cpu/phase)"))
    print()
    print("The corner turn's cost grows with p (O(p) startup stages, "
          "shrinking messages), while compute shrinks as 1/p; each "
          "machine's optimum balances the two. Machines with cheaper "
          "collective startup scale further before communication "
          "dominates.")


if __name__ == "__main__":
    main()
