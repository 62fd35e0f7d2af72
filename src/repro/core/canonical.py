"""The one canonical JSON form every checked-in artifact is written in.

Sweep artifacts, decision tables, drift trends, engine-perf
trajectories, ledger bundles, replay documents, figure and Table 3
exports and the dashboard's embedded ledger are all rendered the same
way: sorted keys, two-space indent, one final newline, and floats
rounded to 9 significant digits where they are host- or libm-sensitive.
That form is what makes them byte-comparable across runs, processes and
worker counts.  Each document carries a ``schema`` tag that
:func:`load` checks.

The compact hash preimages (cache keys, ledger digests) are a separate
form and deliberately do not come from here.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

__all__ = ["round9", "dumps", "write", "load"]

PathLike = Union[str, Path]


def round9(value: float) -> float:
    """9-significant-digit rounding (the repo's golden convention)."""
    return float(f"{value:.9g}")


def dumps(payload: Any) -> str:
    """Canonical serialization: sorted keys, indent 2, final newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write(payload: Any, path: PathLike) -> Path:
    """Write ``payload`` canonically; returns the path."""
    path = Path(path)
    path.write_text(dumps(payload), "utf-8")
    return path


def load(path: PathLike, schema: str, kind: str) -> Dict[str, Any]:
    """Load a document and check that it carries ``schema``.

    ``kind`` names the family, article included (``"a sweep
    artifact"``), so a wrong file fails with ``<path> is not a sweep
    artifact (schema ..., expected ...)``.
    """
    path = Path(path)
    payload = json.loads(path.read_text("utf-8"))
    found = payload.get("schema") if isinstance(payload, dict) else None
    if found != schema:
        raise ValueError(f"{path} is not {kind} (schema {found!r}, "
                         f"expected {schema!r})")
    return payload
