"""Shared fixtures for the benchmark harness.

Every bench regenerates one of the paper's artifacts (a figure, a
table, or a headline claim set), prints the regenerated rows/series the
way the paper reports them, and asserts the qualitative *shape* facts
the paper states.  ``pytest benchmarks/ --benchmark-only`` runs them
all; set ``REPRO_BENCH_FAST=1`` for a coarse, quicker grid.  This file
is the one place that reads the variable: the ``fast`` fixture hands
it to the figure, table and headline builders as their ``fast``
argument, the same value ``repro-bench --fast`` passes.

The sweep helpers here are deliberately deterministic: grid iteration
is sorted and any subsampling draws from a fixed-seed RNG, so the
artifact JSON a bench writes is byte-stable across runs (set/dict
iteration order and an unseeded sampler would silently reorder cells
and defeat the bit-identical regression gate).
"""

import os
import random

import pytest

from repro.core import MeasurementConfig


def _single_shot(benchmark, function, *args, **kwargs):
    """Run ``function`` exactly once under pytest-benchmark timing.

    The functions being benchmarked are whole simulation campaigns
    (seconds to minutes); pytest-benchmark's default calibration would
    re-run them dozens of times for no statistical gain.
    """
    return benchmark.pedantic(function, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture
def single_shot():
    return _single_shot


@pytest.fixture
def fast():
    """``REPRO_BENCH_FAST=1``: run the builders' coarse campaign."""
    return os.environ.get("REPRO_BENCH_FAST", "") not in ("", "0")


@pytest.fixture
def quick_point_config():
    """Cheap config for benches that measure individual points."""
    return MeasurementConfig(iterations=2, warmup_iterations=1, runs=1,
                             seed=1997)


def _sweep_subgrid(cells, fraction=0.5, seed=1997):
    """Deterministically subsample a sweep grid.

    Cells are sorted (canonical order) before a fixed-seed RNG draws
    the sample, and the sample is sorted again on the way out — the
    same call always yields the same sub-grid, byte for byte, in every
    process.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    ordered = sorted(set(cells))
    count = max(1, round(len(ordered) * fraction))
    rng = random.Random(seed)
    return tuple(sorted(rng.sample(ordered, count)))


@pytest.fixture
def sweep_subgrid():
    """Seeded, sorted grid subsampler for sweep benches."""
    return _sweep_subgrid


@pytest.fixture
def sweep_fast_config():
    """Measurement protocol for sweep benches: one timed iteration."""
    return MeasurementConfig(iterations=1, warmup_iterations=0, runs=1,
                             seed=1997)
