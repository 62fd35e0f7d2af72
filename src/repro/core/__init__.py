"""The paper's methodology: measurement, metrics, fitting, published model."""

from .sensitivity import (
    ParameterSensitivity,
    format_sensitivities,
    scan_sensitivities,
    tunable_parameters,
)
from .bandwidth import (
    aggregated_bandwidth_mbs,
    estimate_rinf_two_point,
    rinf_from_expression,
)
from .expressions import CONST_FORM, LINEAR_FORM, LOG_FORM, Term, \
    TimingExpression
from .fitting import (
    classify_scaling,
    fit_line,
    fit_message_length_slices,
    fit_term,
    fit_timing_expression,
)
from .hockney import HockneyFit, fit_hockney, measure_pingpong
from .measurement import (
    PAPER_CONFIG,
    QUICK_CONFIG,
    MeasurementConfig,
    measure_collective,
    measure_startup_latency,
    predict_collective,
)
from .metrics import (
    FIGURE_OPS,
    MACHINES,
    PAPER_MACHINE_SIZES,
    PAPER_MESSAGE_SIZES,
    PAPER_OPS,
    STARTUP_PROBE_BYTES,
    T3D_MAX_NODES,
    CollectiveSample,
    aggregated_length_factor,
    aggregated_message_length,
    machine_sizes_for,
)
from .paper_model import HEADLINE, PAPER_TABLE3, RAW_HARDWARE, \
    paper_expression, table3_grid
from .report import format_ratio, format_series, format_table, format_us

__all__ = [
    "CONST_FORM",
    "CollectiveSample",
    "FIGURE_OPS",
    "HEADLINE",
    "HockneyFit",
    "LINEAR_FORM",
    "LOG_FORM",
    "MACHINES",
    "MeasurementConfig",
    "PAPER_CONFIG",
    "PAPER_MACHINE_SIZES",
    "PAPER_MESSAGE_SIZES",
    "PAPER_OPS",
    "PAPER_TABLE3",
    "ParameterSensitivity",
    "QUICK_CONFIG",
    "RAW_HARDWARE",
    "STARTUP_PROBE_BYTES",
    "T3D_MAX_NODES",
    "Term",
    "TimingExpression",
    "aggregated_bandwidth_mbs",
    "aggregated_length_factor",
    "aggregated_message_length",
    "classify_scaling",
    "estimate_rinf_two_point",
    "fit_hockney",
    "fit_line",
    "fit_message_length_slices",
    "fit_term",
    "fit_timing_expression",
    "machine_sizes_for",
    "measure_pingpong",
    "format_ratio",
    "format_sensitivities",
    "format_series",
    "format_table",
    "format_us",
    "scan_sensitivities",
    "tunable_parameters",
    "measure_collective",
    "measure_startup_latency",
    "paper_expression",
    "predict_collective",
    "rinf_from_expression",
    "table3_grid",
]
