"""Whole-payload golden for the closed-loop KV runner.

Checks every cell payload of fig8, fig9 and resilience_recovery (scale
0.05, seed 0) against its sha256 in ``data/payload_digests.json``.  A
speed-up of the KV loop must leave these unchanged; a deliberate
behaviour change regenerates the golden and says why.

The same sweep with every op served the slow way
(:func:`~tests.swap.conftest.inline_hits_off`) must match it too: fig8
brings VoltDB's two-page ops and FastSwap's draining cascades, fig9
cold starts, and resilience_recovery op latencies and faults.
"""

from tests.experiments.conftest import (
    GOLDEN_SCALE,
    GOLDEN_SEED,
    KV_EXPERIMENTS,
    cell_digests,
    load_golden,
    sweep,
)
from tests.swap.conftest import inline_hits_off


def _golden():
    golden = load_golden()
    return {module.EXPERIMENT: golden[module.EXPERIMENT] for module in KV_EXPERIMENTS}


def test_kv_payload_digests_match_the_golden(golden_payloads):
    payloads = {module.EXPERIMENT: golden_payloads[module.EXPERIMENT]
                for module in KV_EXPERIMENTS}
    assert cell_digests(payloads) == _golden()


def test_kv_payload_digests_match_with_every_op_served_the_slow_way():
    with inline_hits_off():
        payloads = sweep(KV_EXPERIMENTS, GOLDEN_SCALE, GOLDEN_SEED)
    assert cell_digests(payloads) == _golden()
