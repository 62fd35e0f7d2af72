"""The vectorized Table 3 paths agree with the scalar ones."""

import numpy as np
import pytest

from repro.core import PAPER_TABLE3, table3_grid

POWER_OF_TWO_P = (2, 4, 8, 16, 32, 64, 128)


def test_table3_grid_matches_pointwise_evaluation():
    sizes = (4, 1024, 65536)
    nodes = (2, 16, 128)
    grids = table3_grid(sizes, nodes)
    assert set(grids) == set(PAPER_TABLE3)
    for (machine, op), grid in grids.items():
        expression = PAPER_TABLE3[(machine, op)]
        assert grid.shape == (len(nodes), len(sizes))
        for i, p in enumerate(nodes):
            for j, m in enumerate(sizes):
                assert grid[i, j] == \
                    pytest.approx(expression.evaluate(m, p), rel=1e-12)


def test_table3_grid_key_selection():
    keys = [("sp2", "barrier"), ("t3d", "alltoall")]
    grids = table3_grid((4,), (2,), keys=keys)
    assert sorted(grids) == sorted(keys)


def test_term_evaluate_batch_matches_scalar():
    for (machine, op), expression in PAPER_TABLE3.items():
        batch = expression.startup.evaluate_batch(POWER_OF_TWO_P)
        for p, value in zip(POWER_OF_TWO_P, batch):
            assert value == pytest.approx(
                expression.startup.evaluate(p), rel=1e-12)


def test_term_evaluate_batch_rejects_bad_p():
    term = PAPER_TABLE3[("sp2", "broadcast")].startup
    with pytest.raises(ValueError):
        term.evaluate_batch([2, 0])
    assert isinstance(term.evaluate_batch([2, 4]), np.ndarray)
