"""Keep experiment tests hermetic: never touch the repo's result cache.

Also home of :func:`kv_payloads`, the KV-runner sweeps computed once per
session and shared by the payload digest golden and the resilience
report tests.
"""

import pytest

from repro.experiments import fig9_memcached_timeline, resilience_recovery
from repro.experiments.engine import normalize

#: Scale and seed of the shared KV-runner sweeps.
KV_SCALE = 0.05
KV_SEED = 0


@pytest.fixture(autouse=True)
def isolated_cache_dir(tmp_path, monkeypatch):
    """Point the default result cache at a per-test temp directory."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture(scope="session")
def kv_payloads():
    """experiment name -> ``[(spec, payload)]`` for every cell of fig9 and
    resilience_recovery at :data:`KV_SCALE`, seed :data:`KV_SEED`,
    computed the way ``run_serial`` does."""
    return {
        module.EXPERIMENT: [
            (spec, normalize(module.compute(spec)))
            for spec in module.cells(scale=KV_SCALE, seed=KV_SEED)
        ]
        for module in (fig9_memcached_timeline, resilience_recovery)
    }
