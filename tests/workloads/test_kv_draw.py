"""The KV op draw against the one-op-at-a-time list comprehension.

``KvWorkloadSpec._op_drawer`` runs the draw in C; it must give the same
ops and leave the RNG in the same state as drawing each op's key, then
its write coin, in Python.
"""

import random
from bisect import bisect_left
from itertools import islice

import pytest

from repro.workloads.kv import KV_WORKLOADS, OPS_BLOCK, KvWorkloadSpec


def reference_draw(spec, zipf, count):
    """The per-op draw: the Zipf key, then the write coin."""
    random_ = zipf._rng.random
    cumulative = zipf._cumulative
    total = zipf._total
    top = zipf.n - 1
    mapping = zipf._mapping or range(zipf.n)
    return [
        (mapping[min(bisect_left(cumulative, random_() * total), top)]
         * spec.pages_per_key, spec.pages_per_key,
         random_() >= spec.read_fraction)
        for _ in range(count)
    ]


SPECS = [
    KvWorkloadSpec("one-page", keys=300, read_fraction=0.9, zipf_alpha=1.1),
    KvWorkloadSpec("two-page", keys=257, pages_per_key=2, read_fraction=0.5,
                   zipf_alpha=0.8),
    KvWorkloadSpec("slab", keys=1000, locality_block=8, read_fraction=0.95),
    KvWorkloadSpec("all-writes", keys=64, read_fraction=0, zipf_alpha=0.0),
    KvWorkloadSpec("all-reads", keys=64, pages_per_key=3, read_fraction=1),
    KvWorkloadSpec("one-key", keys=1, pages_per_key=2),
] + list(KV_WORKLOADS.values())


@pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.name)
@pytest.mark.parametrize("seed", [0, 1, 7, 2024])
def test_op_draw_matches_the_per_op_draw(spec, seed):
    fast_rng, slow_rng = random.Random(seed), random.Random(seed)
    draw = spec._op_drawer(spec._sampler(fast_rng))
    reference = spec._sampler(slow_rng)
    for count in (1, 5, OPS_BLOCK):
        assert draw(count) == reference_draw(spec, reference, count)
        assert fast_rng.getstate() == slow_rng.getstate()


def test_a_draw_past_the_last_weight_takes_the_last_rank():
    # bisect_left returns n for a draw past the last cumulative weight
    # (a stand-in RNG returns 1.5); the sentinel maps it to rank n - 1.
    spec = KvWorkloadSpec("edge", keys=5, pages_per_key=2)

    class Past:
        def __init__(self):
            self.draws = iter([1.5, 0.0, 0.0, 0.99])

        def random(self):
            return next(self.draws)

        def shuffle(self, items):
            items.reverse()

    draw = spec._op_drawer(spec._sampler(Past()))
    ops = draw(2)
    assert ops == reference_draw(spec, spec._sampler(Past()), 2)
    assert ops[0][0] == spec._sampler(Past())._mapping[-1] * 2


def test_iter_operations_and_ops_batch_share_the_draw():
    spec = KV_WORKLOADS["voltdb"]
    streamed = list(islice(spec.iter_operations(random.Random(3)), 2500))
    assert streamed == spec.ops_batch(random.Random(3), 2500)
