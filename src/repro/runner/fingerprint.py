"""Content-addressed fingerprints for sweep cells.

A sweep cell's result is a pure function of the machine specification,
the collective algorithm it selects, the measurement protocol, and the
simulator's timing-model version.  Hashing exactly those inputs gives a
cache key with the two properties the result cache needs:

* **stable** — the same inputs hash identically in every process and
  interpreter invocation (no ``id()``, no hash randomization, no
  dict-order dependence), so cache entries written by one worker are
  hits for every later run;
* **sensitive** — changing any field of the machine spec (a software
  overhead, a NIC rate, an algorithm choice), the measurement config,
  or :data:`repro.sim.SIM_VERSION` changes the key, so stale results
  are never served.

Keys are hex SHA-256 digests of a canonical JSON rendering.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Mapping, Optional

from ..core import MeasurementConfig
from ..machines import MachineSpec
from ..sim import SIM_VERSION

__all__ = ["to_jsonable", "canonical_json", "spec_fingerprint",
           "cell_fingerprint"]


def to_jsonable(value: Any) -> Any:
    """Recursively reduce dataclasses/mappings/tuples to JSON types.

    Mappings are key-sorted so the rendering is independent of
    insertion order; enums collapse to their values.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, enum.Enum):
        return to_jsonable(value.value)
    if isinstance(value, Mapping):
        return {str(key): to_jsonable(value[key])
                for key in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__!r} "
                    f"for fingerprinting")


def canonical_json(value: Any) -> str:
    """Deterministic compact JSON used as the hash preimage."""
    return json.dumps(to_jsonable(value), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def spec_fingerprint(spec: MachineSpec) -> str:
    """Fingerprint of a complete machine specification."""
    return _digest("machine-spec:" + canonical_json(spec))


def cell_fingerprint(spec: MachineSpec, op: str, nbytes: int, p: int,
                     config: Optional[MeasurementConfig] = None,
                     mode: str = "sim",
                     breakdown: bool = False,
                     algorithm: Optional[str] = None) -> str:
    """Cache key for one (machine, op, m, p) sweep cell.

    ``config`` is the measurement protocol (``None`` for the predict
    and paper-model modes, which take no protocol knobs); ``mode``
    tells the three modes' results apart for otherwise identical
    cells; ``breakdown`` marks cells that also carry a
    critical-path component breakdown (the key gains the marker only
    when set, so existing plain-cell cache entries stay valid).
    ``algorithm`` is a per-cell override of the machine's fixed
    algorithm choice (tuner candidate sweeps); when absent or equal to
    the default, the key is unchanged, so tuner runs share cache
    entries with plain sweeps of the same cells.
    """
    payload = {
        "sim_version": SIM_VERSION,
        "mode": mode,
        "machine": to_jsonable(spec),
        "algorithm": algorithm if algorithm else spec.algorithms.get(op),
        "op": op,
        "nbytes": int(nbytes),
        "p": int(p),
        "config": to_jsonable(config) if config is not None else None,
    }
    if breakdown:
        payload["breakdown"] = True
    return _digest("sweep-cell:" + canonical_json(payload))
