"""Whole-payload golden for the closed-loop KV runner.

The per-cell goldens elsewhere pin a few numbers; this pins every byte
of every cell payload of fig8, fig9 and resilience_recovery (scale
0.05, seed 0) as a sha256 over its canonical JSON.  A speed-up of the
KV loop must leave these unchanged; a deliberate behaviour change
regenerates ``data/kv_payload_digests.json`` and says why.

The same sweep with every op served the slow way
(:func:`~tests.swap.conftest.inline_hits_off`) must match it too: fig8
brings VoltDB's two-page ops and FastSwap's draining cascades, fig9
cold starts, and resilience_recovery op latencies and faults.
"""

import json
from pathlib import Path

from tests.experiments.conftest import (
    KV_EXPERIMENTS,
    KV_SCALE,
    KV_SEED,
    cell_digests,
    sweep,
)
from tests.swap.conftest import inline_hits_off

GOLDEN = Path(__file__).parent / "data" / "kv_payload_digests.json"


def _golden():
    golden = json.loads(GOLDEN.read_text())
    assert (golden["scale"], golden["seed"]) == (KV_SCALE, KV_SEED)
    return golden["experiments"]


def test_kv_payload_digests_match_the_golden(kv_payloads):
    assert cell_digests(kv_payloads) == _golden()


def test_kv_payload_digests_match_with_every_op_served_the_slow_way():
    with inline_hits_off():
        payloads = sweep(KV_EXPERIMENTS, KV_SCALE, KV_SEED)
    assert cell_digests(payloads) == _golden()
