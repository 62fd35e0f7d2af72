"""Headline numeric claims from the abstract and Sections 4-8.

Prints every claim with the paper's value, the simulator's value, and
the ratio; asserts the central ones hold to within a factor of 2 and
that the orderings the abstract emphasizes are preserved.
"""

from repro.bench import format_headline, headline_checks


def test_headline_claims(benchmark, single_shot, fast, capsys):
    checks = single_shot(benchmark, headline_checks, fast=fast)
    with capsys.disabled():
        print()
        print(format_headline(checks))

    by_claim = {c.claim: c for c in checks}

    # T3D barrier ~3 us and at least 30x faster than SP2/Paragon.
    assert by_claim["T3D 64-node barrier"].within(1.5)
    speedup = by_claim[
        "barrier speedup T3D vs best of SP2/Paragon (min 30x)"]
    assert speedup.simulated_value >= speedup.paper_value

    # T3D 2-node broadcast ~35 us.
    assert by_claim["T3D 2-node broadcast latency"].within(1.5)

    # T3D 64-node startup latencies within 2x.
    for op in ("broadcast", "alltoall", "scatter", "gather", "scan",
               "reduce"):
        assert by_claim[f"T3D 64-node {op} startup"].within(2.0), op

    # Aggregated alltoall bandwidths within 2x AND correctly ordered.
    rinf = {m: by_claim[f"{m} 64-node alltoall Rinf"].simulated_value
            for m in ("t3d", "paragon", "sp2")}
    for machine in rinf:
        assert by_claim[f"{machine} 64-node alltoall Rinf"].within(2.0)
    assert rinf["t3d"] > rinf["paragon"] > rinf["sp2"], rinf

    # SP2 64-node 64-KB total exchange ~317 ms.
    assert by_claim["SP2 64-node 64KB alltoall"].within(1.5)

    # The fastest/slowest 64-KB 64-node collectives bracket a range
    # comparable to the paper's (5.12 ms, 675 ms).
    assert by_claim["fastest 64-node 64KB collective"].within(2.0)
    assert by_claim["slowest 64-node 64KB collective"].within(2.5)
