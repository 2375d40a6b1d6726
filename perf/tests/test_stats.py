import math

import pytest

from perf.stats import better_quartile, percentile, self_times, spread


def test_self_time_of_nested_spans():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; second child [5, 9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [-1, 0, 1, 0]
    assert self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    # Two concurrent children [1, 5] and [3, 8] cover [1, 8] of the parent.
    assert self_times([0.0, 1.0, 3.0], [10.0, 5.0, 8.0], [-1, 0, 0])[0] == 3.0


def test_self_time_clips_a_child_to_its_parent():
    # The child outlives the parent (a task that finished later).
    assert self_times([0.0, 2.0], [4.0, 9.0], [-1, 0]) == [2.0, 7.0]


def test_self_time_accepts_spans_in_any_order():
    assert self_times([5.0, 0.0, 1.0], [9.0, 10.0, 4.0], [1, -1, 1]) == [4.0, 3.0, 3.0]


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 1001)]
    assert percentile(values, 50) == 500.0
    assert percentile(values, 99) == 990.0


def test_percentile_refuses_an_unresolved_tail():
    values = [float(v) for v in range(999)]
    with pytest.raises(ValueError):
        percentile(values, 99)  # 9 samples beyond the rank
    assert percentile(values + [999.0], 99) == 989.0  # 10 beyond


def test_failed_operations_rank_after_every_latency():
    delivered = [float(v) for v in range(980)]
    # 1000 attempted, 20 never completed: p99 falls among the failures.
    assert percentile(delivered, 99, population=1000, missing=5000.0) == 5000.0
    assert percentile(delivered, 50, population=1000) == 499.0
    assert percentile(delivered, 99, population=1000) == math.inf


def test_spread_is_interquartile_distance_over_median():
    assert spread([10.0, 10.0, 10.0, 10.0]) == 0.0
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)


def test_better_quartile_sides_with_the_metric():
    episodes = [100.0, 104.0, 108.0, 140.0, 200.0]  # two hit by a noisy neighbour
    assert better_quartile(episodes, "lower") == 104.0
    assert better_quartile(episodes, "higher") == 140.0
    assert better_quartile([7.0], "lower") == 7.0
    assert better_quartile([1.0, 3.0], "lower") == 1.5
