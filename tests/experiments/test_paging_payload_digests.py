"""Whole-payload golden for the paging runner.

Checks every cell payload of fig6, fig7 and open_loop_serving (scale
0.05, seed 0) against its sha256 in ``data/payload_digests.json``, the
way ``test_kv_payload_digests.py`` checks the KV runner.  A speed-up of
the fault path (fabric lanes, tier waits, the cascade) must leave these
unchanged; a deliberate behaviour change regenerates the golden and
says why.
"""

from tests.experiments.conftest import (
    PAGING_EXPERIMENTS,
    cell_digests,
    load_golden,
)


def test_paging_payload_digests_match_the_golden(golden_payloads):
    golden = load_golden()
    names = [module.EXPERIMENT for module in PAGING_EXPERIMENTS]
    payloads = {name: golden_payloads[name] for name in names}
    assert cell_digests(payloads) == {name: golden[name] for name in names}
