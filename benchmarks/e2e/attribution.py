"""Charge cProfile host time to the repository's layers.

A layer is named after the source files it covers (paths relative to
``src/repro``).  A file belongs to the layer whose matching pattern is
the most specific (longest), so ``sim/resources.py`` lands in
``sim.resources`` although ``sim/*`` matches it too.  Time that no
repro function can be charged for lands in ``external``.

This module imports nothing from ``repro``: the benchmark attributes
the program from outside, so the program stays unchanged.
"""

from __future__ import annotations

import fnmatch
import functools
from pathlib import Path
from typing import Dict, Mapping, Optional, Set, Tuple

__all__ = ["EXTERNAL", "LAYERS", "PACKAGE", "ENTRY_POINTS", "attribute",
           "entry_points", "layer_of", "matching_layers", "relpath_of"]

PACKAGE = Path(__file__).resolve().parents[2] / "src" / "repro"

#: layer -> file patterns relative to ``src/repro``.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "sim.engine": ("sim/*",),
    "sim.resources": ("sim/resources.py",),
    "node": ("node/*",),
    "network": ("network/*",),
    "mpi.transport": ("mpi/transport.py",),
    "mpi.collectives": ("mpi/collectives/*",),
    "mpi.context": ("mpi/*",),
    "machines": ("machines/*",),
    "core": ("core/*",),
    "faults": ("faults/*",),
    "runner": ("runner/*",),
    "tuner": ("tuner/*",),
    "obs": ("obs/*",),
    # The user-facing shells around the library: grid helpers, apps,
    # dashboard, CLI and the package root.
    "frontends": ("bench/*", "apps/*", "dash/*", "cli.py", "__init__.py"),
}

#: Stdlib and builtin time with no repro function as immediate caller.
EXTERNAL = "external"

#: metric stem -> (file, function) of the public entry point it times.
ENTRY_POINTS: Dict[str, Tuple[str, str]] = {
    "machines.world_build": ("mpi/world.py", "__init__"),
    "core.protocol_run": ("mpi/world.py", "run"),
    "runner.cache_get": ("runner/cache.py", "get"),
    "runner.cache_put": ("runner/cache.py", "put"),
    "runner.fingerprint": ("runner/fingerprint.py", "cell_fingerprint"),
    "tuner.fit": ("tuner/fit.py", "fit_decision_table"),
}

#: A pstats function key: (file name, first line, function name).
FuncKey = Tuple[str, int, str]


def matching_layers(relpath: str) -> Set[str]:
    """Layers whose most specific pattern matches ``relpath``.

    A well-formed layer table gives exactly one for every repro file.
    """
    best = -1
    layers: Set[str] = set()
    for layer, patterns in LAYERS.items():
        for pattern in patterns:
            if not fnmatch.fnmatchcase(relpath, pattern):
                continue
            if len(pattern) > best:
                best, layers = len(pattern), {layer}
            elif len(pattern) == best:
                layers.add(layer)
    return layers


def layer_of(relpath: str) -> str:
    """The layer of a file given relative to ``src/repro``."""
    layers = matching_layers(relpath)
    return min(layers) if layers else EXTERNAL


def relpath_of(filename: str) -> Optional[str]:
    """``filename`` relative to the repro package, or ``None`` outside."""
    if filename.startswith("<") or filename == "~":
        return None
    try:
        return Path(filename).resolve().relative_to(PACKAGE).as_posix()
    except ValueError:
        return None


@functools.lru_cache(maxsize=None)
def _layer_of_file(filename: str) -> str:
    """The layer of a profiled function's file (memoised: a profile
    names each file many times)."""
    relpath = relpath_of(filename)
    return EXTERNAL if relpath is None else layer_of(relpath)


def attribute(stats: Mapping[FuncKey, tuple]) -> Dict[str, Dict[str, float]]:
    """Self time and call count per layer from ``pstats.Stats.stats``.

    A repro function's self time goes to its own layer.  A stdlib or
    builtin function's self time is split over its callers using the
    pstats ``callers`` data: the part spent on behalf of a repro caller
    goes to that caller's layer, the rest to :data:`EXTERNAL`.
    """
    totals = {name: {"self_s": 0.0, "calls": 0}
              for name in (*LAYERS, EXTERNAL)}
    for (filename, _, _), (_, calls, self_s, _, callers) in stats.items():
        layer = _layer_of_file(filename)
        if layer != EXTERNAL:
            totals[layer]["self_s"] += self_s
            totals[layer]["calls"] += calls
            continue
        charged = 0.0
        for caller, (_, _, caller_self_s, _) in callers.items():
            caller_layer = _layer_of_file(caller[0])
            if caller_layer != EXTERNAL:
                totals[caller_layer]["self_s"] += caller_self_s
                charged += caller_self_s
        totals[EXTERNAL]["self_s"] += max(0.0, self_s - charged)
    return totals


def entry_points(stats: Mapping[FuncKey, tuple]
                 ) -> Dict[str, Dict[str, float]]:
    """Cumulative time and call count of each :data:`ENTRY_POINTS` function."""
    wanted = {target: stem for stem, target in ENTRY_POINTS.items()}
    found = {stem: {"cum_s": 0.0, "calls": 0} for stem in ENTRY_POINTS}
    for (filename, _, function), (_, calls, _, cum_s, _) in stats.items():
        stem = wanted.get((relpath_of(filename), function))
        if stem is not None:
            found[stem]["cum_s"] += cum_s
            found[stem]["calls"] += calls
    return found
