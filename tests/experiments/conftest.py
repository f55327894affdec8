"""Keep experiment tests hermetic: never touch the repo's result cache.

Also home of the payload-digest helpers: :func:`sweep` computes every
cell of some experiments the way ``run_serial`` does, :func:`cell_digests`
turns that into the form ``data/payload_digests.json`` holds,
:func:`load_golden` reads that file, and :func:`golden_payloads` is the
sweep of every registered experiment at the golden's scale and seed,
computed once per session and shared by the golden and the report tests
built on the same cells.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import (
    fig6_batching_pbs,
    fig7_ml_completion,
    fig8_distribution_ratio,
    fig9_memcached_timeline,
    open_loop_serving,
    registry,
    resilience_recovery,
)
from repro.experiments.engine import normalize

#: Scale and seed of the payload-digest golden and its shared sweep.
GOLDEN_SCALE = 0.05
GOLDEN_SEED = 0
#: The KV-runner experiments, which the golden also pins with every op
#: served the slow way.
KV_EXPERIMENTS = (
    fig8_distribution_ratio,
    fig9_memcached_timeline,
    resilience_recovery,
)
#: The paging-runner experiments.
PAGING_EXPERIMENTS = (fig6_batching_pbs, fig7_ml_completion, open_loop_serving)
GOLDEN = Path(__file__).parent / "data" / "payload_digests.json"


def load_golden():
    """experiment name -> its cells' specs and payload digests, as
    ``data/payload_digests.json`` pins them."""
    golden = json.loads(GOLDEN.read_text())
    assert (golden["scale"], golden["seed"]) == (GOLDEN_SCALE, GOLDEN_SEED)
    return golden["experiments"]


@pytest.fixture(autouse=True)
def isolated_cache_dir(tmp_path, monkeypatch):
    """Point the default result cache at a per-test temp directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


def sweep(modules, scale, seed):
    """experiment name -> ``[(spec, payload)]`` for every cell of each
    experiment module at ``scale`` and ``seed``."""
    return {
        module.EXPERIMENT: [
            (spec, normalize(module.compute(spec)))
            for spec in module.cells(scale=scale, seed=seed)
        ]
        for module in modules
    }


def payload_digest(payload):
    """sha256 of a cell payload's canonical JSON."""
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")
    ).hexdigest()


def cell_digests(payloads):
    """A :func:`sweep` result as the golden holds it: per experiment,
    every cell's spec and payload digest."""
    return {
        name: [
            {"cell": spec.to_dict(), "sha256": payload_digest(payload)}
            for spec, payload in cells
        ]
        for name, cells in payloads.items()
    }


@pytest.fixture(scope="session")
def golden_payloads():
    """The :func:`sweep` of every registered experiment at
    :data:`GOLDEN_SCALE`, seed :data:`GOLDEN_SEED`."""
    return sweep(
        [registry.load(name) for name in registry.names()],
        GOLDEN_SCALE,
        GOLDEN_SEED,
    )
