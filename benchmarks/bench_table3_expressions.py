"""Table 3: curve-fitted timing expressions for 7 ops x 3 machines.

Runs the full (m, p) measurement grid, applies the paper's two-stage
curve fit, and prints our expressions next to the published ones.
Asserts that every operation lands in the paper's scaling class
(O(log p) vs O(p) startup) and that the fitted magnitudes are within a
small factor of the published coefficients at a reference size.
"""

from repro.bench import format_table3, table3


def test_table3_curve_fits(benchmark, single_shot, fast, capsys):
    rows = single_shot(benchmark, table3, fast=fast)
    with capsys.disabled():
        print()
        print(format_table3(rows))

    for (machine, op), row in rows.items():
        # Startup scaling class matches Section 8's split.
        assert row.scaling_matches(), \
            (machine, op, row.fitted.startup.form,
             row.published.startup.form)

        # Startup magnitude within 2.5x of the published fit at p=32.
        assert 1 / 2.5 < row.startup_ratio(32) < 2.5, \
            (machine, op, row.startup_ratio(32))

        # Per-byte magnitude within 3x at p=32 (the published fits have
        # known artifacts, e.g. negative constants).
        if op != "barrier":
            assert 1 / 3.0 < row.per_byte_ratio(32) < 3.0, \
                (machine, op, row.per_byte_ratio(32))
