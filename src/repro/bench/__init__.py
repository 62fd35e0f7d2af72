"""Benchmark harness: figure/table regeneration and paper comparison."""

from .compare import (
    crossover_message_size,
    document_diff_paths,
    monotonically_increasing,
    ranking,
    winner,
)
from .asciiplot import ascii_plot, plot_figure, sparkline
from .degradation import ChaosRun, chaos_report, degradation_curves, \
    fault_counters, run_chaos
from .diagnostics import RunDiagnostics, collect_diagnostics
from .export import (
    figure_to_rows,
    sweep_to_rows,
    table3_to_rows,
    write_figure_csv,
    write_figure_json,
    write_sweep_csv,
    write_table3_csv,
    write_table3_json,
)
from .figures import CampaignError, FigureData, figure1, figure2, \
    figure3, figure4, figure5
from .headline import HeadlineCheck, format_headline, headline_checks
from .perfsuite import (
    PERF_SCHEMA,
    PerfCheckResult,
    PerfRun,
    build_perf_artifact,
    check_perf_artifact,
    perf_workload_names,
    run_perf_suite,
    run_workload,
    work_section_text,
)
from .tables import Table3Row, format_table3, table3

__all__ = [
    "CampaignError",
    "ChaosRun",
    "FigureData",
    "HeadlineCheck",
    "PERF_SCHEMA",
    "PerfCheckResult",
    "PerfRun",
    "RunDiagnostics",
    "Table3Row",
    "ascii_plot",
    "plot_figure",
    "sparkline",
    "collect_diagnostics",
    "build_perf_artifact",
    "chaos_report",
    "check_perf_artifact",
    "perf_workload_names",
    "run_perf_suite",
    "run_workload",
    "work_section_text",
    "crossover_message_size",
    "degradation_curves",
    "document_diff_paths",
    "fault_counters",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "figure_to_rows",
    "sweep_to_rows",
    "table3_to_rows",
    "write_figure_csv",
    "write_figure_json",
    "write_sweep_csv",
    "write_table3_csv",
    "write_table3_json",
    "format_headline",
    "format_table3",
    "headline_checks",
    "monotonically_increasing",
    "ranking",
    "run_chaos",
    "table3",
    "winner",
]
