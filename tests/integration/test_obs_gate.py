"""The observability gate (``make test-obs``).

One seeded N=500 push dissemination, judged entirely from the
observability layer: the tracer's causal spans must show near-atomic
delivery, and rounds-to-99% must stay within the epidemic bound the
coordinator's analysis module predicts (Eugster et al.; see
``repro.core.analysis.expected_rounds``).
"""

import pytest

from repro.core.analysis import expected_rounds
from repro.core.api import GossipConfig

pytestmark = pytest.mark.gate  # run by `make test-obs` (pyproject.toml, markers)

N = 500
FANOUT = 5
SEED = 42
DELIVERY_FLOOR = 0.99


def test_seeded_push_run_meets_delivery_and_round_bounds():
    bound = expected_rounds(N, FANOUT)
    group = GossipConfig(
        n_disseminators=N - 1,
        seed=SEED,
        # Pure push with a couple of slack rounds of hop budget: the gate
        # checks the *traced* rounds against the analytical bound, not
        # the budget.
        params={"fanout": FANOUT, "rounds": bound + 2},
        auto_tune=False,
    ).build()
    group.setup()
    message_id = group.publish({"gate": True})
    group.run_for(12.0)

    assert group.delivered_fraction(message_id) >= DELIVERY_FLOOR

    span = group.hub.tracer.span(message_id)
    assert span is not None
    # Tracer and group-level accounting must agree on who got the rumor.
    assert span.delivered_count == round(
        group.delivered_fraction(message_id) * (N - 1)
    )
    rounds_to_99 = span.rounds_to_fraction(0.99, group.population)
    assert rounds_to_99 is not None, "rumor never reached 99% of the population"
    assert rounds_to_99 <= bound, (
        f"rounds to 99% ({rounds_to_99}) exceeded the epidemic bound ({bound})"
    )

    # The wire path was exercised and attributed to this group's hub.
    assert group.hub.wire.serialize_count > 0
    assert group.message_counts()["net.sent"] > 0
