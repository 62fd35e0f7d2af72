"""Export regenerated results as CSV or JSON.

Downstream users (plotting scripts, regression dashboards) want the
figure series and fitted expressions as data, not text.  These writers
keep the schema deliberately flat: one row per point.  JSON goes out in
the repository's one canonical form (:mod:`repro.core.canonical`).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, Tuple, Union

from ..core.canonical import write
from .figures import FigureData
from .tables import Table3Row

__all__ = ["figure_to_rows", "write_figure_csv", "write_figure_json",
           "table3_to_rows", "write_table3_csv", "write_table3_json",
           "sweep_to_rows", "write_sweep_csv"]

PathLike = Union[str, Path]


def figure_to_rows(data: FigureData) -> list:
    """Flatten a figure into ``[series..., x, value]`` rows."""
    rows = []
    for key in sorted(data.series):
        for x in sorted(data.series[key]):
            rows.append({
                "figure": data.figure_id,
                "series": "/".join(str(part) for part in key),
                "x": x,
                "value": data.series[key][x],
                "unit": data.unit,
            })
    return rows


def write_figure_csv(data: FigureData, path: PathLike) -> Path:
    """Write one figure's series to ``path`` as CSV."""
    path = Path(path)
    rows = figure_to_rows(data)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(
            handle, fieldnames=["figure", "series", "x", "value",
                                "unit"])
        writer.writeheader()
        writer.writerows(rows)
    return path


def write_figure_json(data: FigureData, path: PathLike) -> Path:
    """Write one figure's series to ``path`` as JSON."""
    return write({
        "figure": data.figure_id,
        "title": data.title,
        "unit": data.unit,
        "series": {
            "/".join(str(part) for part in key): {
                str(x): value for x, value in sorted(points.items())
            }
            for key, points in sorted(data.series.items())
        },
    }, path)


def sweep_to_rows(artifact: Dict[str, object]) -> list:
    """Flatten a sweep artifact (see :mod:`repro.runner.artifact`)
    into one dict row per cell."""
    rows = []
    for cell in artifact.get("cells", []):
        rows.append({
            "grid": artifact.get("grid"),
            "mode": artifact.get("mode"),
            "machine": cell["machine"],
            "op": cell["op"],
            "nbytes": cell["nbytes"],
            "p": cell["p"],
            "time_us": cell["result"]["time_us"],
            "fingerprint": cell["fingerprint"],
        })
    return rows


def write_sweep_csv(artifact: Dict[str, object], path: PathLike) -> Path:
    """Write a sweep artifact's cells to ``path`` as CSV."""
    path = Path(path)
    rows = sweep_to_rows(artifact)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(
            handle, fieldnames=["grid", "mode", "machine", "op",
                                "nbytes", "p", "time_us", "fingerprint"])
        writer.writeheader()
        writer.writerows(rows)
    return path


def table3_to_rows(rows: Dict[Tuple[str, str], Table3Row]) -> list:
    """Flatten Table 3 comparisons into dict rows."""
    out = []
    for (machine, op), row in sorted(rows.items()):
        out.append({
            "machine": machine,
            "op": op,
            "fitted": row.fitted.format(),
            "published": row.published.format(),
            "startup_form": row.fitted.startup.form,
            "published_startup_form": row.published.startup.form,
            "scaling_matches": row.scaling_matches(),
            "startup_ratio_p32": row.startup_ratio(32),
            "per_byte_ratio_p32": row.per_byte_ratio(32),
        })
    return out


def write_table3_csv(rows: Dict[Tuple[str, str], Table3Row],
                     path: PathLike) -> Path:
    """Write the Table 3 comparison to ``path`` as CSV."""
    path = Path(path)
    flattened = table3_to_rows(rows)
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle,
                                fieldnames=list(flattened[0].keys()))
        writer.writeheader()
        writer.writerows(flattened)
    return path


def write_table3_json(rows: Dict[Tuple[str, str], Table3Row],
                      path: PathLike) -> Path:
    """Write the Table 3 comparison to ``path`` as JSON."""
    return write(table3_to_rows(rows), path)
