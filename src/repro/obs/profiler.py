"""Host profile: where does the *simulator's own* wall-clock go?

:class:`HostProfile` wraps :class:`cProfile.Profile` as a context
manager.  It is attached from outside, around a call, so the program
it observes carries no hook for it and runs exactly as it would
unprofiled::

    with HostProfile() as profile:
        world.run_collective("broadcast", 4096)
    print(profile.format_report())

Host time is grouped by source file, named relative to the ``repro``
package (``sim/engine.py``, ``mpi/episode.py``).  A builtin or stdlib
function's self time is charged to its immediate ``repro`` callers
using the ``callers`` data cProfile records, so ``heapq`` time called
from the engine lands in ``sim/engine.py``; the rest goes to
``external``.  All rankings and exports are tie-broken by name, so two
profiles of the same workload differ only in the (inherently noisy)
wall-clock figures, never in ordering.
"""

from __future__ import annotations

import cProfile
import functools
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = ["EXTERNAL", "HostProfile"]

#: Module name for time no ``repro`` function can be charged with.
EXTERNAL = "external"

_PACKAGE = Path(__file__).resolve().parents[1]


@functools.lru_cache(maxsize=None)
def _module_of(filename: str) -> Optional[str]:
    """``filename`` relative to the ``repro`` package, or ``None`` for
    builtins and files outside it."""
    if filename.startswith("<") or filename == "~":
        return None
    try:
        return Path(filename).resolve().relative_to(_PACKAGE).as_posix()
    except ValueError:
        return None


class HostProfile:
    """cProfile over the enclosed block, grouped by ``repro`` module.

    ``stats`` holds the raw cProfile statistics (the ``pstats`` format:
    ``(file, line, function) -> (primitive calls, calls, self s,
    cumulative s, callers)``) once the block has exited.
    """

    def __init__(self) -> None:
        self._profile = cProfile.Profile()
        self.stats: Dict[Tuple[str, int, str], tuple] = {}

    def __enter__(self) -> "HostProfile":
        self._profile.enable()
        return self

    def __exit__(self, *exc_info) -> None:
        self._profile.create_stats()
        self.stats = self._profile.stats

    def _charges(self) -> Dict[Tuple[str, str], List[float]]:
        """``(module, function) -> [calls, self seconds]``.

        A ``repro`` function is charged its own calls and self time.  A
        builtin or stdlib function's self time is split over its
        callers: the part spent on behalf of a ``repro`` caller goes to
        that caller, the rest to ``(EXTERNAL, function)``.
        """
        charges: Dict[Tuple[str, str], List[float]] = {}

        def charge(key: Tuple[str, str], calls: int, self_s: float) -> None:
            entry = charges.setdefault(key, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s

        for (filename, _, function), (_, calls, self_s, _, callers) \
                in self.stats.items():
            module = _module_of(filename)
            if module is not None:
                charge((module, function), calls, self_s)
                continue
            charged = 0.0
            for (caller_file, _, caller), (_, _, caller_self_s, _) \
                    in callers.items():
                caller_module = _module_of(caller_file)
                if caller_module is not None:
                    charge((caller_module, caller), 0, caller_self_s)
                    charged += caller_self_s
            if self_s > charged:
                charge((EXTERNAL, function), 0, self_s - charged)
        return charges

    def modules(self) -> List[Tuple[str, int, float]]:
        """``(module, calls, self_s)`` rows, by self time descending,
        then by name.  ``calls`` counts calls of the module's own
        functions; ``external`` has none."""
        totals: Dict[str, List[float]] = {}
        for (module, _function), (calls, self_s) in self._charges().items():
            entry = totals.setdefault(module, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        return sorted(((module, int(calls), self_s)
                       for module, (calls, self_s) in totals.items()),
                      key=lambda row: (-row[2], row[0]))

    def folded_lines(self) -> List[str]:
        """Collapsed-stack export: ``module;function <usec>`` lines.

        The weight is the function's self time in integer microseconds.
        Lines are sorted lexicographically, so two profiles of the same
        workload fold to the same order.  Feed to ``flamegraph.pl`` or
        import into speedscope as-is.
        """
        return sorted(f"{module};{function} {int(round(self_s * 1e6))}"
                      for (module, function), (_calls, self_s)
                      in self._charges().items())

    def format_report(self, top: int = 10) -> str:
        """The ``top`` modules by self time, with their share of the
        profile's total."""
        rows = self.modules()
        total_s = sum(self_s for _, _, self_s in rows)
        lines = [f"host profile: {total_s * 1e3:.2f} ms self time "
                 f"across {len(rows)} modules"]
        for module, calls, self_s in rows[:top]:
            share = self_s / total_s if total_s else 0.0
            lines.append(f"    {module:<28s} calls={calls:<9d} "
                         f"self={self_s * 1e3:9.2f} ms  {share:6.1%}")
        return "\n".join(lines)
