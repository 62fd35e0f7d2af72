"""Figure 2: T(m, 32) as a function of message length.

Paper claims reproduced here (Section 5):
* time grows slowly below ~1 KB and ~linearly beyond 4 KB;
* the T3D is fastest in all collectives except scan (Paragon wins);
* the Paragon is worst for short messages in total exchange, scatter,
  gather, but beats the SP2 for long messages in broadcast, total
  exchange, scatter, gather;
* the SP2/Paragon ranking crosses over as messages grow.
"""

from repro.bench import figure2, winner
from repro.bench.figures import FIGURE2_NODES


def test_figure2_message_length(benchmark, single_shot, fast, capsys):
    data = single_shot(benchmark, figure2, fast=fast)
    with capsys.disabled():
        print()
        print(data.format())

    sizes = sorted(data.get("broadcast", "sp2"))
    short = sizes[0]
    long_ = sizes[-1]
    assert long_ >= 16384

    # T3D fastest for long messages in broadcast/alltoall/scatter/
    # reduce; scan goes to the Paragon (Fig. 2e).  Long gather is
    # ambiguous in the paper itself — the prose says T3D but Table 3's
    # own fits make the Paragon fastest (coprocessor-drained root) —
    # so we only require that the SP2 is worst there, which prose and
    # fits agree on.
    for op in ("broadcast", "alltoall", "scatter"):
        at_long = {m: data.get(op, m)[long_]
                   for m in ("sp2", "t3d", "paragon")}
        assert winner(at_long) == "t3d", (op, at_long)
    # The Paragon's scan advantage (Fig. 2e) is a latency effect: the
    # paper's own Table 3 fits put the crossover near 0.5 KB at p=32
    # (T3D ahead beyond), so we assert the short-message win only.
    scan_short = {m: data.get("scan", m)[short]
                  for m in ("sp2", "t3d", "paragon")}
    assert winner(scan_short) == "paragon", scan_short
    # "To reduce long messages beyond 64 KBytes, the SP2 shows the
    # lowest messaging time (Fig. 2f)."
    reduce_long = {m: data.get("reduce", m)[long_]
                   for m in ("sp2", "t3d", "paragon")}
    assert winner(reduce_long) == "sp2", reduce_long
    gather_long = {m: data.get("gather", m)[long_]
                   for m in ("sp2", "t3d", "paragon")}
    assert max(gather_long, key=gather_long.get) == "sp2", gather_long

    # Paragon worst for short messages in the O(p) operations.
    for op in ("alltoall", "scatter", "gather"):
        at_short = {m: data.get(op, m)[short]
                    for m in ("sp2", "t3d", "paragon")}
        assert max(at_short, key=at_short.get) == "paragon", \
            (op, at_short)

    # Paragon beats SP2 for long messages in these four operations...
    for op in ("broadcast", "alltoall", "scatter", "gather"):
        assert data.get(op, "paragon")[long_] < \
            data.get(op, "sp2")[long_], op
    # ...but not in reduce (Section 5: "except the reduce operation").
    assert data.get("reduce", "sp2")[long_] < \
        data.get("reduce", "paragon")[long_]

    # SP2 is faster than the Paragon for short alltoall/scatter/gather
    # messages: the ranking crossover of Section 5.
    for op in ("alltoall", "scatter", "gather"):
        assert data.get(op, "sp2")[short] < data.get(op, "paragon")[short]

    # Time grows ~linearly for long messages: quadrupling m from 16 KB
    # to 64 KB should scale time by ~4 (within a factor accounting for
    # the startup share).
    if 16384 in sizes and 65536 in sizes:
        for machine in ("sp2", "t3d", "paragon"):
            t_16k = data.get("alltoall", machine)[16384]
            t_64k = data.get("alltoall", machine)[65536]
            assert 2.5 < t_64k / t_16k < 4.5, (machine, t_16k, t_64k)
