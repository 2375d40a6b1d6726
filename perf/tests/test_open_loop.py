import asyncio

import pytest

from perf.workloads import make_inputs, open_loop, SIZES


def test_latency_is_measured_from_due_time_when_the_generator_is_late():
    """A stall delays the second and third sends; their lateness is
    reported and the schedule (the due times) does not shift."""
    now = [0.0]
    sent_at = []

    async def sleep(seconds):
        # The loop oversleeps by 0.5 s once (a stall), then is on time.
        now[0] += seconds + (0.5 if not sent_at else 0.0)

    async def send(index):
        sent_at.append(now[0])
        now[0] += 0.01

    dues = [0.2, 0.4, 0.6, 0.8]
    late = asyncio.run(open_loop(lambda: now[0], sleep, dues, send))
    assert sent_at[0] == pytest.approx(0.7) and late[0] == pytest.approx(0.5)
    assert late[1] > 0.3  # still behind schedule: sent at once, no sleep
    assert late[3] == 0.0  # caught up
    # A delivery 0.05 s after the first send waited 0.55 s since it was due.
    assert (sent_at[0] + 0.05) - dues[0] == pytest.approx(0.55)


def test_inputs_depend_only_on_the_seed():
    size = SIZES["live_steady"]["check"]
    assert make_inputs("live_steady", 3, 0, size) == make_inputs("live_steady", 3, 0, size)
    assert make_inputs("live_steady", 3, 0, size) != make_inputs("live_steady", 4, 0, size)
    assert make_inputs("live_steady", 3, 0, size) != make_inputs("live_steady", 3, 1, size)
