"""Canonical run ledger: one bundle indexing every artifact family.

Every observability product the simulator emits — sweep artifacts,
tuner decision tables, drift-trend files, engine-perf trajectories,
chaos dumps, Chrome traces, and captured replay documents — is a
standalone JSON file today.  The ledger closes the loop: it
*discovers* those files, *classifies* them by schema (or by shape for
the schema-less chaos/trace documents), *validates* the classification
it made, and *indexes* them into one ``BENCH_ledger.json`` bundle:

* entries are sorted by path and keyed by a content digest of the
  volatile-scrubbed document, so building the ledger twice — in the
  same process or across processes — produces byte-identical bundles;
* every entry embeds the (scrubbed) source document, so the bundle is
  self-contained: the :mod:`repro.dash` dashboard renders from the
  ledger alone and the resulting page works from ``file://`` with no
  other inputs;
* wall-clock and host-identity fields are removed with the sweep
  runner's :func:`~repro.runner.scrub_volatile` machinery (applied at
  every nesting depth), so the bundle can be golden-tested and diffed
  like every other artifact.

Like :mod:`repro.obs.drift`, this module imports upper layers
(:mod:`repro.runner`), so it is deliberately *not* re-exported from
``repro.obs``; import it explicitly::

    from repro.obs.ledger import build_ledger, discover_artifacts
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import (Any, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple, Union)

from ..runner.artifact import scrub_volatile

__all__ = [
    "LEDGER_SCHEMA",
    "ARTIFACT_FAMILIES",
    "classify_document",
    "scrub_volatile_deep",
    "document_digest",
    "summarize_document",
    "discover_artifacts",
    "build_ledger",
    "validate_ledger",
]

PathLike = Union[str, Path]

LEDGER_SCHEMA = "repro-ledger/1"

#: Family name -> the ``schema`` tag its documents carry (``None`` for
#: the schema-less families recognised by shape).
ARTIFACT_FAMILIES: Mapping[str, Optional[str]] = {
    "sweep": "repro-sweep/1",
    "tuning": "repro-tuning/1",
    "drift": "repro-drift/1",
    "engine-perf": "repro-engine-perf/1",
    "replay": "repro-replay/1",
    "chaos": None,
    "trace": None,
}

_SCHEMA_TO_FAMILY = {schema: family
                     for family, schema in ARTIFACT_FAMILIES.items()
                     if schema is not None}

#: Keys whose joint presence identifies a ``repro-bench chaos --out``
#: dump (the one artifact family that predates schema tags).
_CHAOS_KEYS = frozenset({"machine", "op", "plan", "clean_us",
                         "faulty_us", "counters"})

#: Directory names never descended into during discovery.
_SKIP_DIRS = frozenset({"__pycache__", "node_modules"})


def classify_document(payload: Any) -> Optional[str]:
    """Family name of one loaded JSON document, or ``None``.

    Schema-tagged families match on their ``schema`` field; a ledger's
    own schema deliberately classifies as ``None`` so a bundle is
    never indexed into another bundle.  Chrome traces are recognised
    by their ``traceEvents`` list and chaos dumps by their key set.
    """
    if not isinstance(payload, Mapping):
        return None
    schema = payload.get("schema")
    if isinstance(schema, str):
        return _SCHEMA_TO_FAMILY.get(schema)
    if isinstance(payload.get("traceEvents"), list):
        return "trace"
    if _CHAOS_KEYS <= set(payload):
        return "chaos"
    return None


def scrub_volatile_deep(value: Any) -> Any:
    """Volatile-field scrub applied at every nesting depth.

    Extends the sweep runner's top-level
    :func:`~repro.runner.scrub_volatile` to whole documents: every
    mapping at any depth loses its wall-clock/host-identity keys
    (``wall_s``, ``hostname``, ``timestamp``, ...), so regenerating an
    artifact on a different host changes the ledger only where the
    deterministic payload changed.
    """
    if isinstance(value, Mapping):
        return {key: scrub_volatile_deep(item)
                for key, item in scrub_volatile(dict(value)).items()}
    if isinstance(value, list):
        return [scrub_volatile_deep(item) for item in value]
    return value


def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      default=str)


def document_digest(payload: Any) -> str:
    """sha256 hex digest of the scrubbed, canonicalized document."""
    text = _canonical(scrub_volatile_deep(payload))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- per-family summaries -------------------------------------------------

def _summary_sweep(doc: Mapping[str, Any]) -> Dict[str, Any]:
    cells = doc.get("cells", [])
    return {
        "grid": doc.get("grid"),
        "mode": doc.get("mode"),
        "sim_version": doc.get("sim_version"),
        "cells": len(cells),
        "machines": sorted({c.get("machine") for c in cells}),
        "ops": sorted({c.get("op") for c in cells}),
        "quarantined": len(doc.get("quarantined", [])),
    }


def _summary_tuning(doc: Mapping[str, Any]) -> Dict[str, Any]:
    machines = doc.get("machines", {})
    return {
        "grid": doc.get("grid"),
        "sim_version": doc.get("sim_version"),
        "machines": sorted(machines),
        "ops": sorted({op for ops in machines.values() for op in ops}),
        "flips": len(doc.get("flips", [])),
    }


def _summary_drift(doc: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "source": dict(doc.get("source", {})),
        "pass": doc.get("pass"),
        "breaches": doc.get("breaches"),
        "cells": len(doc.get("cells", [])),
    }


def _summary_engine(doc: Mapping[str, Any]) -> Dict[str, Any]:
    work = doc.get("work", {})
    total = doc.get("throughput", {}).get("total", {})
    return {
        "suite": doc.get("suite"),
        "sim_version": doc.get("sim_version"),
        "workloads": len(work),
        "events_fired": total.get("events_fired"),
    }


def _summary_chaos(doc: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "machine": doc.get("machine"),
        "op": doc.get("op"),
        "plan": doc.get("plan"),
        "nbytes": doc.get("nbytes"),
        "nodes": doc.get("nodes"),
        "clean_us": doc.get("clean_us"),
        "faulty_us": doc.get("faulty_us"),
        "penalty_us": doc.get("penalty_us"),
    }


def _summary_trace(doc: Mapping[str, Any]) -> Dict[str, Any]:
    events = doc.get("traceEvents", [])
    other = doc.get("otherData", {})
    return {
        "events": len(events),
        "spans": other.get("spans"),
        "dropped": other.get("dropped"),
        "categories": sorted({e.get("cat") for e in events
                              if isinstance(e, Mapping) and "cat" in e}),
    }


def _summary_replay(doc: Mapping[str, Any]) -> Dict[str, Any]:
    return {
        "machine": doc.get("machine"),
        "op": doc.get("op"),
        "nbytes": doc.get("nbytes"),
        "num_nodes": doc.get("num_nodes"),
        "frames": len(doc.get("frames", [])),
        "faults": doc.get("faults"),
        "has_critical_path": doc.get("critical_path") is not None,
    }


_SUMMARIZERS = {
    "sweep": _summary_sweep,
    "tuning": _summary_tuning,
    "drift": _summary_drift,
    "engine-perf": _summary_engine,
    "chaos": _summary_chaos,
    "trace": _summary_trace,
    "replay": _summary_replay,
}


def summarize_document(family: str,
                       payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Small deterministic digest of one document, per family."""
    try:
        summarize = _SUMMARIZERS[family]
    except KeyError:
        raise ValueError(f"unknown artifact family {family!r}; known: "
                         f"{', '.join(sorted(_SUMMARIZERS))}") from None
    return summarize(payload)


# -- discovery ------------------------------------------------------------

def discover_artifacts(roots: Iterable[PathLike],
                       exclude: Iterable[PathLike] = ()
                       ) -> List[Tuple[str, str, Dict[str, Any]]]:
    """Find and classify artifact files under ``roots``.

    Each root may be a JSON file or a directory (scanned recursively,
    skipping hidden directories and ``exclude`` subtrees — pass the
    dashboard output directory here so a bundle never indexes its own
    previous products).  Returns ``(relative posix path, family,
    document)`` triples sorted by path; unparseable and unclassifiable
    files are silently skipped, while an explicitly named file that
    cannot be classified raises ``ValueError``.
    """
    excluded = [Path(p).resolve() for p in exclude]
    found: Dict[str, Tuple[str, Dict[str, Any]]] = {}
    for root in roots:
        root = Path(root)
        if root.is_file():
            payload = _load_json(root)
            family = classify_document(payload)
            if family is None:
                raise ValueError(
                    f"{root} is not a recognised artifact (families: "
                    f"{', '.join(sorted(ARTIFACT_FAMILIES))})")
            found.setdefault(root.name, (family, payload))
            continue
        if not root.is_dir():
            raise ValueError(f"{root} is neither a file nor a directory")
        for path in sorted(root.rglob("*.json")):
            if _is_excluded(path, excluded):
                continue
            if any(part.startswith(".") or part in _SKIP_DIRS
                   for part in path.relative_to(root).parts[:-1]):
                continue
            try:
                payload = _load_json(path)
            except ValueError:
                continue
            family = classify_document(payload)
            if family is None:
                continue
            rel = path.relative_to(root).as_posix()
            found.setdefault(rel, (family, payload))
    return [(rel, family, payload)
            for rel, (family, payload) in sorted(found.items())]


def _is_excluded(path: Path, excluded: Sequence[Path]) -> bool:
    resolved = path.resolve()
    for root in excluded:
        if resolved == root or root in resolved.parents:
            return True
    return False


def _load_json(path: Path) -> Any:
    try:
        return json.loads(path.read_text("utf-8"))
    except (OSError, UnicodeDecodeError,
            json.JSONDecodeError) as error:
        raise ValueError(f"cannot read {path}: {error}") from None


# -- the bundle -----------------------------------------------------------

def build_ledger(entries: Iterable[Tuple[str, str, Mapping[str, Any]]]
                 ) -> Dict[str, Any]:
    """Assemble the canonical ledger bundle from classified documents.

    ``entries`` are ``(path, family, document)`` triples, normally from
    :func:`discover_artifacts`.  The bundle is deterministic: entries
    sort by path, every embedded document is volatile-scrubbed, and
    ``bundle_digest`` hashes the sorted ``(path, digest)`` index — the
    identity the dashboard page embeds and CI byte-compares.
    """
    indexed: List[Dict[str, Any]] = []
    families: Dict[str, int] = {}
    for path, family, payload in sorted(entries, key=lambda e: e[0]):
        if family not in _SUMMARIZERS:
            raise ValueError(
                f"unknown artifact family {family!r} for {path}")
        scrubbed = scrub_volatile_deep(payload)
        indexed.append({
            "path": path,
            "family": family,
            "schema": ARTIFACT_FAMILIES[family],
            "digest": document_digest(payload),
            "summary": summarize_document(family, scrubbed),
            "document": scrubbed,
        })
        families[family] = families.get(family, 0) + 1
    bundle_digest = hashlib.sha256(_canonical(
        [[entry["path"], entry["digest"]] for entry in indexed]
    ).encode("utf-8")).hexdigest()
    return {
        "schema": LEDGER_SCHEMA,
        "entries": indexed,
        "families": families,
        "bundle_digest": bundle_digest,
    }


def validate_ledger(payload: Mapping[str, Any]) -> None:
    """Raise ``ValueError`` unless ``payload`` is a coherent bundle.

    Checks the schema tag, per-entry structure, path ordering, the
    family census, and that ``bundle_digest`` matches the entries it
    claims to index (the digest the dashboard page embeds).
    """
    if payload.get("schema") != LEDGER_SCHEMA:
        raise ValueError(f"not a ledger bundle (schema "
                         f"{payload.get('schema')!r}, expected "
                         f"{LEDGER_SCHEMA!r})")
    entries = payload.get("entries")
    if not isinstance(entries, list):
        raise ValueError("ledger has no entries list")
    families: Dict[str, int] = {}
    paths: List[str] = []
    for entry in entries:
        for key in ("path", "family", "digest", "summary", "document"):
            if key not in entry:
                raise ValueError(f"ledger entry missing {key!r}: "
                                 f"{entry.get('path', '?')}")
        if entry["family"] not in ARTIFACT_FAMILIES:
            raise ValueError(f"{entry['path']}: unknown family "
                             f"{entry['family']!r}")
        paths.append(entry["path"])
        families[entry["family"]] = families.get(entry["family"], 0) + 1
    if paths != sorted(paths):
        raise ValueError("ledger entries are not sorted by path")
    if len(set(paths)) != len(paths):
        raise ValueError("ledger indexes the same path twice")
    if families != payload.get("families"):
        raise ValueError("ledger family census does not match entries")
    expected = hashlib.sha256(_canonical(
        [[entry["path"], entry["digest"]] for entry in entries]
    ).encode("utf-8")).hexdigest()
    if payload.get("bundle_digest") != expected:
        raise ValueError("bundle_digest does not match the indexed "
                         "entries")
