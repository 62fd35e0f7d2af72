"""Verdicts of compare.py."""

from compare import changed_values, verdict

BASE = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]


def test_within_bound_is_no_worse():
    change = [value * 1.05 for value in BASE]
    assert verdict(BASE, change, bound=0.1) == "no-worse"


def test_beyond_bound_is_a_regression():
    change = [value * 1.2 for value in BASE]
    assert verdict(BASE, change, bound=0.1) == "regression"


def test_consistent_win_beyond_the_spread_is_better():
    change = [value * 0.9 for value in BASE]
    assert verdict(BASE, change, bound=0.1) == "better"


def test_fewer_than_ten_pairs_cannot_be_better():
    change = [value * 0.9 for value in BASE]
    assert verdict(BASE[:3], change[:3], bound=0.1) == "no-worse"


def test_higher_is_better_flips_the_direction():
    change = [value * 0.8 for value in BASE]
    assert verdict(BASE, change, bound=0.1, better="higher") == "regression"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0, 8.5, 11.5, 9.5, 10.5, 10.0]
    assert verdict(BASE, noisy, bound=0.1) == "unresolved"


def test_separated_sides_resolve_despite_the_spread():
    noisy = [4.0, 6.0, 4.5, 5.5, 5.0, 4.2, 5.8, 4.8, 5.2, 5.0]
    assert verdict(BASE, noisy, bound=0.1) == "better"


def test_deterministic_values_must_match_per_seed():
    def result(seed, digest):
        return {"seed": seed, "workloads": {
            "w": {"deterministic": {"sim_digest": digest}}}}
    same = [result(1, "a"), result(1, "a"), result(2, "b")]
    assert changed_values(same, "w") == {}
    assert changed_values([*same, result(2, "c")], "w") == {
        2: ["sim_digest"]}
