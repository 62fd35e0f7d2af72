"""Build a faulty-broadcast replay dashboard end to end.

Captures a 4-KB broadcast over 16 simulated T3D nodes with a mid-run
link outage, serializes the capture as a replay document, indexes it
(plus any artifacts checked in at the repo root) into the canonical
run ledger, and renders the self-contained dashboard page.  Open
``site/index.html`` in any browser — the page works from ``file://``
— and press Play: the broadcast spreads hop by hop over the torus,
the detour around the dead link rings its node in the fault palette,
and the critical-path toggle highlights the causal chain.

Usage::

    python examples/dashboard_replay.py
"""

from pathlib import Path

from repro.core.canonical import write
from repro.dash import write_dashboard
from repro.faults import fault_preset
from repro.obs.capture import capture_collective
from repro.obs.ledger import build_ledger, discover_artifacts

OUT = Path("site")
OUT.mkdir(exist_ok=True)

# 1. Capture one traced collective under fault injection.
cap = capture_collective("t3d", "broadcast", nbytes=4096, num_nodes=16,
                         seed=7, faults=fault_preset("single-link-outage"))
print(cap.summary())

# 2. Serialize it as a deterministic replay document.
replay = cap.to_replay_frames()
print(f"\nwrote {write(replay, OUT / 'replay.json')}")
recovery = [f for f in replay["frames"]
            if f["category"] in ("retransmit", "backoff", "reroute")]
print(f"replay: {len(replay['frames'])} frames, "
      f"{len(recovery)} recovery span(s), "
      f"critical path {replay['critical_path']['total_us']:.1f} us")

# 3. Index it — together with any checked-in artifacts — into the
#    canonical run ledger, and render the dashboard from the bundle.
entries = discover_artifacts(["."], exclude=[OUT])
entries.append(("replay.json", "replay", replay))
ledger = build_ledger(entries)
print(f"\nledger: {len(ledger['entries'])} artifact(s), "
      f"bundle digest {ledger['bundle_digest'][:16]}")
print(f"wrote {write(ledger, OUT / 'BENCH_ledger.json')}")
print(f"wrote {write_dashboard(ledger, OUT)} (open in any browser)")
