"""Whole-payload golden for every registered experiment.

Pins every byte of every cell payload of every experiment (scale 0.05,
seed 0) as a sha256 over its canonical JSON.  A speed-up must leave
these unchanged; a deliberate behaviour change regenerates
``data/payload_digests.json`` and lists the cells it moved.  The KV
and paging runners' experiments are checked against it in
``test_kv_payload_digests.py`` and ``test_paging_payload_digests.py``;
this module checks the rest.
"""

import pytest

from repro.experiments import registry
from tests.experiments.conftest import (
    KV_EXPERIMENTS,
    PAGING_EXPERIMENTS,
    cell_digests,
    load_golden,
)

OTHERS = sorted(
    set(registry.names())
    - {module.EXPERIMENT for module in KV_EXPERIMENTS + PAGING_EXPERIMENTS}
)


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def test_the_golden_covers_every_experiment(golden):
    assert sorted(golden) == sorted(registry.names())


@pytest.mark.parametrize("name", OTHERS)
def test_payload_digests_match_the_golden(name, golden, golden_payloads):
    digests = cell_digests({name: golden_payloads[name]})
    assert digests[name] == golden[name]
