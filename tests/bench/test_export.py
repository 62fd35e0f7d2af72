"""Tests for CSV/JSON export of regenerated results."""

import csv
import json

from repro.bench import (
    figure_to_rows,
    table3_to_rows,
    write_figure_csv,
    write_figure_json,
    write_table3_csv,
    write_table3_json,
)
from repro.bench.figures import FigureData
from repro.bench.tables import Table3Row
from repro.core import paper_expression
from repro.core.canonical import dumps


def sample_figure():
    data = FigureData("Figure 1", "startup latencies", "us")
    data.add(("broadcast", "t3d"), 2, 35.0)
    data.add(("broadcast", "t3d"), 4, 58.0)
    data.add(("broadcast", "sp2"), 2, 85.0)
    return data


def sample_table():
    expression = paper_expression("t3d", "alltoall")
    return {("t3d", "alltoall"): Table3Row(
        machine="t3d", op="alltoall", fitted=expression,
        published=expression)}


def test_figure_to_rows_flat_and_sorted():
    rows = figure_to_rows(sample_figure())
    assert len(rows) == 3
    assert rows[0]["series"] == "broadcast/sp2"
    assert rows[1] == {"figure": "Figure 1", "series": "broadcast/t3d",
                       "x": 2, "value": 35.0, "unit": "us"}


def test_write_figure_csv(tmp_path):
    path = write_figure_csv(sample_figure(), tmp_path / "fig1.csv")
    with path.open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 3
    assert rows[1]["series"] == "broadcast/t3d"
    assert float(rows[1]["value"]) == 35.0


def test_write_figure_json(tmp_path):
    path = write_figure_json(sample_figure(), tmp_path / "fig1.json")
    payload = json.loads(path.read_text())
    assert payload["figure"] == "Figure 1"
    assert payload["series"]["broadcast/t3d"]["4"] == 58.0
    # The one canonical form every JSON writer shares.
    assert path.read_text() == dumps(payload)


def test_table3_to_rows():
    rows = table3_to_rows(sample_table())
    assert rows[0]["machine"] == "t3d"
    assert rows[0]["scaling_matches"] is True
    assert rows[0]["startup_ratio_p32"] == 1.0


def test_write_table3_csv_and_json(tmp_path):
    table = sample_table()
    csv_path = write_table3_csv(table, tmp_path / "t3.csv")
    json_path = write_table3_json(table, tmp_path / "t3.json")
    with csv_path.open() as handle:
        rows = list(csv.DictReader(handle))
    assert rows[0]["op"] == "alltoall"
    payload = json.loads(json_path.read_text())
    assert payload[0]["published"] == payload[0]["fitted"]
    assert json_path.read_text() == dumps(payload)


def test_cli_figure_export(tmp_path, capsys):
    from repro.cli import main
    csv_path = tmp_path / "fig4.csv"
    json_path = tmp_path / "fig4.json"
    code = main(["--fast", "figure", "4", "--csv", str(csv_path),
                 "--json", str(json_path)])
    assert code == 0
    assert csv_path.exists() and json_path.exists()
    out = capsys.readouterr().out
    assert "wrote" in out
