"""Whole-payload golden for the closed-loop KV runner.

The per-cell goldens elsewhere pin a few numbers; this pins every byte
of every cell payload of fig9 and resilience_recovery (scale 0.05, seed
0) as a sha256 over its canonical JSON.  A speed-up of the KV loop must
leave these unchanged; a deliberate behaviour change regenerates
``data/kv_payload_digests.json`` and says why.
"""

import json
from pathlib import Path

from tests.experiments.conftest import KV_SCALE, KV_SEED, cell_digests

GOLDEN = Path(__file__).parent / "data" / "kv_payload_digests.json"


def test_kv_payload_digests_match_the_golden(kv_payloads):
    golden = json.loads(GOLDEN.read_text())
    assert (golden["scale"], golden["seed"]) == (KV_SCALE, KV_SEED)
    assert cell_digests(kv_payloads) == golden["experiments"]
