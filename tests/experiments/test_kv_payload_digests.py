"""Whole-payload golden for the closed-loop KV runner.

The per-cell goldens elsewhere pin a few numbers; this pins every byte
of every cell payload of fig9 and resilience_recovery (scale 0.05, seed
0) as a sha256 over its canonical JSON.  A speed-up of the KV loop must
leave these unchanged; a deliberate behaviour change regenerates
``data/kv_payload_digests.json`` and says why.
"""

import hashlib
import json
from pathlib import Path

from tests.experiments.conftest import KV_SCALE, KV_SEED

GOLDEN = Path(__file__).parent / "data" / "kv_payload_digests.json"


def payload_digest(payload):
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def test_kv_payload_digests_match_the_golden(kv_payloads):
    golden = json.loads(GOLDEN.read_text())
    assert (golden["scale"], golden["seed"]) == (KV_SCALE, KV_SEED)
    observed = {
        name: [
            {"cell": spec.to_dict(), "sha256": payload_digest(payload)}
            for spec, payload in cells
        ]
        for name, cells in kv_payloads.items()
    }
    assert observed == golden["experiments"]
