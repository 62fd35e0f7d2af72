"""Figure 5: aggregated bandwidths Rinf(p) of the collectives.

Paper claims reproduced here (Section 8):
* aggregated bandwidth grows monotonically with machine size;
* the broadcast bandwidth ranking is T3D, Paragon, SP2 (descending);
* the reduce ranking changes to SP2 (best) — "one should not use the
  machine ranking for one collective operation to predict another";
* for total exchange at 64 nodes the ranking is T3D, Paragon, SP2.
"""

from repro.bench import figure5, monotonically_increasing, ranking


def test_figure5_aggregated_bandwidth(benchmark, single_shot, fast, capsys):
    data = single_shot(benchmark, figure5, fast=fast)
    with capsys.disabled():
        print()
        print(data.format())

    shared = sorted(set(data.get("broadcast", "t3d")) &
                    set(data.get("broadcast", "sp2")))
    big_p = shared[-1]

    # Bandwidth grows with machine size (more pairs moving bytes).
    for key, series in data.series.items():
        assert monotonically_increasing(series, tolerance=0.2), \
            (key, series)

    def bandwidth_ranking(op):
        values = {m: -data.get(op, m)[big_p]
                  for m in ("sp2", "t3d", "paragon")}
        return ranking(values)  # highest bandwidth first

    # Broadcast: T3D, Paragon, SP2 in descending order.
    assert bandwidth_ranking("broadcast") == ["t3d", "paragon", "sp2"]

    # Reduce: SP2 has the highest aggregated bandwidth (fast POWER2
    # combine), demonstrating the per-op ranking flip.
    assert bandwidth_ranking("reduce")[0] == "sp2"

    # Total exchange: T3D first, then Paragon, then SP2 — the
    # abstract's 1.745 / 0.879 / 0.818 GB/s ordering.
    assert bandwidth_ranking("alltoall") == ["t3d", "paragon", "sp2"]

    # The T3D's alltoall bandwidth advantage is roughly 2x, as in the
    # paper (1.745 vs 0.879).
    t3d = data.get("alltoall", "t3d")[big_p]
    paragon = data.get("alltoall", "paragon")[big_p]
    assert 1.4 < t3d / paragon < 3.0, (t3d, paragon)
