"""Parameter sensitivity analysis over the machine models.

Which hardware/software parameter is each collective's time actually
made of?  This perturbs one scalar parameter of a
:class:`~repro.machines.MachineSpec` at a time and reports the
elasticity of the collective's time with respect to it —
``(dT/T) / (dx/x)`` — where each time is the simulator's prediction
of one warm, fenced call (:func:`~repro.core.measurement
.predict_collective`).  A scan runs one short simulation per
parameter plus one for the baseline: a few milliseconds each for short
messages on a few dozen nodes, about 0.4 s each for a 64 KB total
exchange on 64 SP2 nodes (about 9 s for the whole scan).

An elasticity of 1.0 means the operation's time is proportional to the
parameter (it *is* the bottleneck); near 0.0 means the parameter is
off the critical path at this (op, m, p) point.
"""

from __future__ import annotations

from dataclasses import dataclass, is_dataclass, replace
from typing import List, Optional

from ..machines import MachineSpec
from .measurement import predict_collective
from .report import format_table

__all__ = ["ParameterSensitivity", "scan_sensitivities",
           "format_sensitivities", "tunable_parameters"]


@dataclass(frozen=True)
class ParameterSensitivity:
    """Elasticity of one (op, m, p) point w.r.t. one parameter."""

    parameter: str
    op: str
    nbytes: int
    num_nodes: int
    baseline_us: float
    perturbed_us: float
    relative_step: float

    @property
    def elasticity(self) -> float:
        """``(dT/T) / (dx/x)`` — 1.0 means proportional."""
        if self.baseline_us == 0:
            return 0.0
        relative_change = (self.perturbed_us - self.baseline_us) / \
            self.baseline_us
        return relative_change / self.relative_step


def tunable_parameters(spec: MachineSpec) -> List[str]:
    """Dotted paths of the positive scalar parameters of ``spec``.

    Covers the software costs, memory costs, NIC, network, and DMA
    blocks — everything calibration can turn.
    """
    names: List[str] = []
    for block in ("software", "memory", "nic", "network", "dma"):
        child = getattr(spec, block)
        if child is None or not is_dataclass(child):
            continue
        for field_name, value in vars(child).items():
            if isinstance(value, float) and value > 0:
                names.append(f"{block}.{field_name}")
    return names


def _perturb(spec: MachineSpec, parameter: str,
             relative_step: float) -> MachineSpec:
    block_name, field_name = parameter.split(".", 1)
    block = getattr(spec, block_name)
    value = getattr(block, field_name)
    new_block = replace(block,
                        **{field_name: value * (1.0 + relative_step)})
    return replace(spec, **{block_name: new_block}).with_decision_table(
        spec.decision_table)


def scan_sensitivities(spec: MachineSpec, op: str, nbytes: int,
                       num_nodes: int, relative_step: float = 0.05,
                       parameters: Optional[List[str]] = None
                       ) -> List[ParameterSensitivity]:
    """Elasticities of one (op, m, p) point w.r.t. every parameter.

    Returned sorted by descending absolute elasticity.
    """
    if relative_step <= 0:
        raise ValueError(f"relative step must be positive, got "
                         f"{relative_step}")
    baseline = predict_collective(spec, op, nbytes, num_nodes)
    results = []
    for parameter in (parameters if parameters is not None
                      else tunable_parameters(spec)):
        perturbed_spec = _perturb(spec, parameter, relative_step)
        perturbed = predict_collective(perturbed_spec, op, nbytes,
                                       num_nodes)
        results.append(ParameterSensitivity(
            parameter=parameter, op=op, nbytes=nbytes,
            num_nodes=num_nodes, baseline_us=baseline,
            perturbed_us=perturbed, relative_step=relative_step))
    results.sort(key=lambda s: -abs(s.elasticity))
    return results


def format_sensitivities(results: List[ParameterSensitivity],
                         top: int = 10) -> str:
    """Render the strongest sensitivities as a table."""
    if not results:
        raise ValueError("no sensitivities to format")
    head = results[0]
    rows = [[s.parameter, f"{s.elasticity:+.3f}"]
            for s in results[:top]]
    return format_table(
        ["parameter", "elasticity"], rows,
        title=f"sensitivity of {head.op}(m={head.nbytes}, "
              f"p={head.num_nodes}), baseline "
              f"{head.baseline_us:.1f} us")
