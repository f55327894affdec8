"""Whole-payload golden for the paging runner.

Pins every byte of every cell payload of fig6, fig7 and
open_loop_serving (scale 0.05, seed 0) as a sha256 over its canonical
JSON, the way ``test_kv_payload_digests.py`` pins the KV runner.  A
speed-up of the fault path (fabric lanes, tier waits, the cascade) must
leave these unchanged; a deliberate behaviour change regenerates
``data/paging_payload_digests.json`` and says why.
"""

import json
from pathlib import Path

from repro.experiments import (
    fig6_batching_pbs,
    fig7_ml_completion,
    open_loop_serving,
)
from tests.experiments.conftest import cell_digests, sweep

GOLDEN = Path(__file__).parent / "data" / "paging_payload_digests.json"
SCALE = 0.05
SEED = 0


def test_paging_payload_digests_match_the_golden():
    golden = json.loads(GOLDEN.read_text())
    assert (golden["scale"], golden["seed"]) == (SCALE, SEED)
    payloads = sweep(
        (fig6_batching_pbs, fig7_ml_completion, open_loop_serving),
        SCALE,
        SEED,
    )
    assert cell_digests(payloads) == golden["experiments"]
