"""Regression tests: repairs racing a page's swap-in and re-swap-out.

Re-replication and erasure re-striping copy data before committing a
reservation on the new holder.  If the page is swapped in (forgotten)
and swapped out again while that copy is in flight, committing anyway
leaves a stale reservation behind, and the page's next placement on
that node raised ``duplicate reservation``.  These two
``resilience_recovery`` cells hit that interleaving; each runs in about
a second.
"""

from repro.experiments import resilience_recovery as rr

SCALE = 0.125


def run_cell(seed, scheme, rate, replication):
    spec = next(
        spec
        for spec in rr.cells(scale=SCALE, seed=seed)
        if (
            spec.options["scheme"],
            spec.options["rate"],
            spec.options["replication"],
        ) == (scheme, rate, replication)
    )
    return rr._redundant_row(rr.compute(spec))


def assert_recovered(row):
    assert row["pages_lost"] == 0
    assert row["pages_re_replicated"] > 0
    assert row["repairs_completed"] == row["failures_seen"] > 0


def test_re_replication_skips_a_page_forgotten_mid_copy():
    row = run_cell(47, "replicated", 2.0, 2)
    assert row["tier"] == "replicated"
    assert_recovered(row)


def test_re_striping_skips_a_stripe_replaced_mid_copy():
    row = run_cell(108, "erasure", 6.0, None)
    assert row["tier"] == "erasure"
    assert_recovered(row)
