"""Keep experiment tests hermetic: never touch the repo's result cache.

Also home of the payload-digest helpers: :func:`sweep` computes every
cell of some experiments the way ``run_serial`` does, :func:`cell_digests`
turns that into the form the ``data/*_payload_digests.json`` goldens
hold, and :func:`kv_payloads` is the KV-runner sweep computed once per
session and shared by its golden and the resilience report tests.
"""

import hashlib
import json

import pytest

from repro.experiments import (
    fig8_distribution_ratio,
    fig9_memcached_timeline,
    resilience_recovery,
)
from repro.experiments.engine import normalize

#: Scale and seed of the shared KV-runner sweeps.
KV_SCALE = 0.05
KV_SEED = 0
#: The experiments the KV payload-digest golden covers.
KV_EXPERIMENTS = (
    fig8_distribution_ratio,
    fig9_memcached_timeline,
    resilience_recovery,
)


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
    """A :func:`sweep` result as the goldens hold it: per experiment,
    every cell's spec and payload digest."""
    return {
        name: [
            {"cell": spec.to_dict(), "sha256": payload_digest(payload)}
            for spec, payload in cells
        ]
        for name, cells in payloads.items()
    }


@pytest.fixture(scope="session")
def kv_payloads():
    """The :func:`sweep` of :data:`KV_EXPERIMENTS` at :data:`KV_SCALE`,
    seed :data:`KV_SEED`."""
    return sweep(KV_EXPERIMENTS, KV_SCALE, KV_SEED)
