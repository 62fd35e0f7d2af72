"""repro — Evaluating MPI Collective Communication on the SP2, T3D,
and Paragon Multicomputers (HPCA 1997), reproduced on a discrete-event
multicomputer simulator.

Quickstart::

    from repro import MpiWorld

    world = MpiWorld("t3d", num_nodes=16)
    elapsed_us = world.run_collective("broadcast", nbytes=1024)

    from repro import measure_collective, QUICK_CONFIG
    sample = measure_collective("sp2", "alltoall", 65536, 64,
                                QUICK_CONFIG)

Package map:

* :mod:`repro.sim` — discrete-event kernel
* :mod:`repro.network` — mesh / torus / multistage interconnects
* :mod:`repro.node` — node hardware (clock, memory, NIC, DMA, barrier)
* :mod:`repro.machines` — SP2, T3D, Paragon models
* :mod:`repro.mpi` — simulated MPI runtime: transport, communicator,
  episode evaluator
* :mod:`repro.mpi.collectives` — the collective algorithm library
* :mod:`repro.faults` — deterministic fault plans and injection
* :mod:`repro.core` — the paper's measurement/fitting methodology and
  ``predict_collective``
* :mod:`repro.obs` — tracing, metrics, work meter, critical path,
  drift audit, run ledger
* :mod:`repro.runner` — parallel sweep runner and result cache
* :mod:`repro.tuner` — algorithm tuner and decision tables
* :mod:`repro.bench` — figure/table regeneration harness
* :mod:`repro.dash` — static dashboard over a run ledger
"""

from .core import (
    HEADLINE,
    MeasurementConfig,
    PAPER_CONFIG,
    PAPER_MACHINE_SIZES,
    PAPER_MESSAGE_SIZES,
    PAPER_TABLE3,
    QUICK_CONFIG,
    TimingExpression,
    aggregated_message_length,
    fit_timing_expression,
    measure_collective,
    measure_startup_latency,
    paper_expression,
)
from .machines import (
    Machine,
    MachineSpec,
    all_machine_specs,
    get_machine_spec,
    machine_names,
    register_machine_spec,
)
from .mpi import (
    COLLECTIVE_OPS,
    Communicator,
    MpiError,
    MpiWorld,
    RankContext,
)

__version__ = "1.0.0"

__all__ = [
    "COLLECTIVE_OPS",
    "Communicator",
    "HEADLINE",
    "Machine",
    "MachineSpec",
    "MeasurementConfig",
    "MpiError",
    "MpiWorld",
    "PAPER_CONFIG",
    "PAPER_MACHINE_SIZES",
    "PAPER_MESSAGE_SIZES",
    "PAPER_TABLE3",
    "QUICK_CONFIG",
    "RankContext",
    "TimingExpression",
    "__version__",
    "aggregated_message_length",
    "all_machine_specs",
    "fit_timing_expression",
    "get_machine_spec",
    "machine_names",
    "measure_collective",
    "measure_startup_latency",
    "paper_expression",
    "register_machine_spec",
]
