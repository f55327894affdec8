"""``VirtualMemory.serve_ops`` against the op-at-a-time loop it replaces.

Every scenario runs twice, once with resident ops served in place and
once under :func:`~tests.swap.conftest.inline_hits_off`, and the two
logs must be equal: every op draw with the clock it saw, every backend
call, every cut of ``run(until=...)``, the timeline, the latency
histogram and the paging counters.
"""

import random

import pytest

from repro.mem.page import make_pages
from repro.sim import Environment
from repro.swap.base import SwapBackend, VirtualMemory
from repro.trace.histogram import LatencyHistogram

from tests.swap.conftest import inline_hits_off

PAGES = 48
CAPACITY = 16


class BufferingBackend(SwapBackend):
    """Fixed-cost backend whose swap-outs wait in a buffer that
    ``drain`` (or a full buffer) flushes; logs every call."""

    name = "buffering"

    def __init__(self, env, log, window=3):
        self.env = env
        self.log = log
        self.window = window
        self.buffer = []

    def swap_out(self, page):
        self.log.append(("out", page.page_id, self.env.now))
        self.buffer.append(page.page_id)
        if len(self.buffer) >= self.window:
            yield from self.drain()

    def swap_in(self, page):
        self.log.append(("in", page.page_id, self.env.now))
        yield self.env.timeout(5e-6)
        return []

    def drain(self):
        if self.buffer:
            self.log.append(("drain", tuple(self.buffer), self.env.now))
            self.buffer = []
            yield self.env.timeout(2e-6)

    def buffered(self):
        return bool(self.buffer)

    def discard(self, page):
        self.log.append(("discard", page.page_id, self.env.now))


def _ops(seed):
    """Skewed ops over :data:`PAGES` pages: one to three pages wide,
    30 % writes, four in five on a hot set that fits in memory."""
    rng = random.Random(seed)
    while True:
        width = rng.choice((1, 1, 1, 2, 3))
        span = 12 if rng.random() < 0.8 else PAGES
        yield rng.randrange(span - width + 1), width, rng.random() < 0.3


def _logged(ops, env, mmu, log):
    """``ops``, logging each draw with the clock and whether all of
    the op's pages are resident."""
    for op in ops:
        first_page, count, _write = op
        resident = all(
            page_id in mmu.resident
            for page_id in range(first_page, first_page + count)
        )
        log.append(("draw", op, env.now, resident))
        yield op


def _serve(seed, *, duration=2e-3, window=2e-4, cuts=(), noise=True,
           watch=None):
    """One closed-loop run; returns everything it can be told apart by."""
    env = Environment()
    log = []
    backend = BufferingBackend(env, log)
    pages = make_pages(PAGES)
    mmu = VirtualMemory(env, pages, CAPACITY, backend,
                        compute_per_access=3e-6)
    timeline = []
    histogram = LatencyHistogram(least=1e-7, buckets=32)
    outcome = {}

    def client():
        # Half the pages start with a valid swap copy, so some hits are
        # writes that must discard it.
        for page in pages[::2]:
            mmu.swapped_valid.add(page.page_id)
        outcome["done"] = yield from mmu.serve_ops(
            _logged(_ops(seed), env, mmu, log), env.now, duration, window,
            timeline, histogram,
        )

    def noisy():
        rng = random.Random(seed + 1)
        while True:
            yield env.timeout(rng.expovariate(1 / 4e-5))
            log.append(("noise", env.now))

    def watcher(at):
        yield env.timeout(at)
        log.append(("watch", env.now))

    if watch is not None:
        env.process(watcher(watch))
    process = env.process(client())
    if noise:
        env.process(noisy())
    for cut in cuts:
        env.run(until=cut)
        log.append(("cut", cut, env.now, mmu.stats.snapshot()))
    env.run(until=process)
    return {
        "log": log,
        "outcome": outcome,
        "timeline": timeline,
        "histogram": histogram.to_json(),
        "stats": mmu.stats.snapshot(),
        "resident": list(mmu.resident),
        "dirty": [page.page_id for page in pages if page.dirty],
        "swapped_valid": sorted(mmu.swapped_valid),
        "now": env.now,
    }


def _both(seed, **kwargs):
    served = _serve(seed, **kwargs)
    with inline_hits_off():
        reference = _serve(seed, **kwargs)
    return served, reference


@pytest.mark.parametrize("seed", range(6))
def test_serve_ops_equals_the_op_at_a_time_loop(seed):
    served, reference = _both(seed, cuts=(1.7e-4, 6.1e-4, 1.3e-3))
    assert served == reference
    kinds = {entry[0] for entry in served["log"]}
    assert {"draw", "in", "out", "drain", "discard", "cut"} <= kinds
    assert served["stats"]["resident_hits"] > served["stats"]["major_faults"]
    assert len(served["timeline"]) == 10


@pytest.mark.parametrize("seed", range(3))
def test_without_other_events_most_ops_end_in_place(seed):
    served, reference = _both(seed, noise=False, cuts=(7.3e-4,))
    assert served == reference
    resident = [entry[3] for entry in served["log"] if entry[0] == "draw"]
    assert sum(resident) > len(resident) // 2


def _in_place_op_ends(seed):
    """Where the all-resident ops of a run with no other process ended:
    the clock at the draw after each."""
    log = _serve(seed, noise=False)["log"]
    draws = [entry for entry in log if entry[0] == "draw"]
    ends = [after[2] for before, after in zip(draws, draws[1:]) if before[3]]
    assert len(ends) > len(draws) // 2
    return ends


@pytest.mark.parametrize("seed", range(3))
def test_an_op_ending_on_the_heap_head_yields_to_it(seed):
    # An event due exactly when an in-place op would end fires first:
    # the wait is not strictly next, so the op takes the timeout.
    ends = _in_place_op_ends(seed)
    for at in (ends[len(ends) // 3], ends[2 * len(ends) // 3]):
        served, reference = _both(seed, noise=False, watch=at)
        assert served == reference
        log = served["log"]
        after = log[log.index(("watch", at)) + 1]
        assert after[0] == "draw" and after[2] == at


@pytest.mark.parametrize("seed", range(3))
def test_run_until_stops_in_place_ops_at_the_horizon(seed):
    ends = _in_place_op_ends(seed)
    cuts = [
        (ends[index] + ends[index + 1]) / 2
        for index in (len(ends) // 4, len(ends) // 2)
    ]
    served, reference = _both(seed, noise=False, cuts=cuts)
    assert served == reference
    latest = 0.0
    for entry in served["log"]:
        if entry[0] == "draw":
            latest = entry[2]
        elif entry[0] == "cut":
            assert latest <= entry[1]


def test_an_in_place_op_drains_writes_another_process_buffered():
    env = Environment()
    log = []
    backend = BufferingBackend(env, log)
    pages = make_pages(4)
    mmu = VirtualMemory(env, pages, 4, backend)
    buffered = []

    def client():
        for page in pages:
            yield from mmu.access(page.page_id)
        yield from mmu.flush()
        backend.buffer.append(-1)  # as if another process swapped out
        ops = iter([(0, 1, False)] * 20)

        def logged():
            for op in ops:
                buffered.append(backend.buffered())
                yield op

        yield from mmu.serve_ops(logged(), env.now, 1e-5, 1e-6, [])

    env.run(until=env.process(client()))
    assert buffered[:3] == [True, False, False]
    assert [entry[:2] for entry in log if entry[0] == "drain"] == [
        ("drain", (-1,))
    ]
