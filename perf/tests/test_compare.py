from perf.compare import verdict


def test_unchanged_within_the_bound_and_tight():
    assert verdict([100, 101, 99], [102, 103, 101], "lower", 0.10)[0] == "unchanged"


def test_regressed_when_the_median_is_worse_by_more_than_the_bound():
    outcome, change = verdict([100, 101, 99], [115, 116, 114], "lower", 0.10)
    assert outcome == "regressed" and round(change, 2) == 0.15
    assert verdict([100, 101, 99], [85, 86, 84], "higher", 0.10)[0] == "regressed"


def test_improved_needs_a_resolved_difference():
    assert verdict([100, 101, 99], [80, 81, 79], "lower", 0.10)[0] == "improved"
    # Same medians, but the ranges are wider than the bound and overlap.
    assert verdict([100, 130, 70], [80, 110, 60], "lower", 0.10)[0] == "unresolved"


def test_wide_spread_is_unresolved_unless_every_run_is_better():
    assert verdict([100, 120, 80], [101, 121, 81], "lower", 0.10)[0] == "unresolved"
    # Wide, yet every run of B beats every run of A.
    assert verdict([100, 120, 95], [70, 90, 60], "lower", 0.10)[0] == "improved"


def test_failed_fraction_uses_an_absolute_bound():
    assert verdict([0.0, 0.0, 0.0], [0.001, 0.001, 0.0], "lower", 0.002, absolute=True)[0] == "unchanged"
    assert verdict([0.0, 0.0, 0.0], [0.004, 0.005, 0.003], "lower", 0.002, absolute=True)[0] == "regressed"
