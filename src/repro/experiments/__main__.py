"""``python -m repro.experiments`` — run experiments from the command line.

Usage::

    python -m repro.experiments list
    python -m repro.experiments run fig7 [--scale 0.5] [--seed 3]
                                         [--jobs 8] [--no-cache] [--json]
                                         [--tiers] [--fast-path]
                                         [--cells 0,3,8-10]
                                         [--trace[=PATH]]
                                         [--trace-filter net,migrate]
    python -m repro.experiments all  [--scale 0.25] [--jobs 8] [--json]
                                     [--fast-path]
    python -m repro.experiments cache [--clear]

``run`` executes one experiment through the parallel engine: the sweep's
cells fan out across ``--jobs`` worker processes (default: all CPUs) and
land in the content-addressed result cache (``.repro-cache/`` or
``$REPRO_CACHE_DIR``), so re-running a figure recomputes only changed
cells.  ``all`` runs every registered experiment in order; ``--json``
emits one machine-readable document instead of tables.  Reports are
assembled in cell order, so any ``--jobs`` value prints byte-identical
tables.
"""

import argparse
import json
import os
import sys

from repro.experiments import engine, registry
from repro.metrics.reporting import format_table


def _list():
    rows = [
        {"experiment": name, "description": registry.description(name)}
        for name in registry.names()
    ]
    print(format_table(rows, title="available experiments"))


def _run_one(name, args, cache):
    trace = getattr(args, "trace", None) is not None
    return engine.run_experiment(
        name,
        scale=args.scale,
        seed=args.seed,
        jobs=args.jobs,
        cache=None if trace else cache,
        trace=trace,
        trace_filter=_parse_trace_filter(getattr(args, "trace_filter", None)),
        fast_path=getattr(args, "fast_path", False),
        cells=_parse_cells(getattr(args, "cells", None)),
    )


def _parse_cells(raw):
    """``"0,3,8-10"`` -> ``[0, 3, 8, 9, 10]`` (None passes through)."""
    if not raw:
        return None
    indices = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part:
            low, _sep, high = part.partition("-")
            indices.extend(range(int(low), int(high) + 1))
        else:
            indices.append(int(part))
    return indices


def _parse_trace_filter(raw):
    """``"net,migrate"`` -> ``("net", "migrate")`` (None passes through)."""
    if not raw:
        return None
    return tuple(
        prefix.strip() for prefix in raw.split(",") if prefix.strip()
    )


def _export_trace(run, args):
    """Write the run's trace artifact; returns the violation count.

    The output format follows the extension: ``.jsonl`` gets the
    internal wire shape, anything else the Chrome ``trace_event``
    document (Perfetto-loadable).  The analyzer runs on the events
    either way, so a traced run doubles as an invariant check.
    """
    from repro.trace import TraceAnalyzer, digest, write_chrome, write_jsonl

    path = args.trace or "{}-trace.json".format(args.experiment)
    events = run.trace_events
    if path.endswith(".jsonl"):
        write_jsonl(events, path)
    else:
        write_chrome(events, path, meta={
            "experiment": args.experiment,
            "scale": args.scale,
            "seed": args.seed,
        })
    print("trace: {} event(s) -> {} (digest {})".format(
        len(events), path, digest(events)[:16]
    ))
    if getattr(args, "trace_filter", None):
        # Cross-family invariants (crash epochs, retry accounting) need
        # the full taxonomy; a filtered trace cannot be checked soundly.
        print("trace: filtered trace; invariant checks skipped")
        return 0
    violations = TraceAnalyzer(events).check()
    if violations:
        print("trace: {} invariant violation(s):".format(len(violations)))
        for violation in violations[:20]:
            print("  [{}] {}".format(violation.invariant, violation.message))
    else:
        print("trace: all invariants hold")
    return len(violations)


def _print_run(name, run, show_tiers):
    module = registry.load(name)
    print(module.render(run.result))
    if show_tiers and run.tier_rows:
        print()
        print(format_table(
            run.tier_rows, title="{} — per-tier breakdown".format(name)
        ))


def _cache_command(args):
    cache = engine.ResultCache(args.cache_dir)
    if args.clear:
        removed = cache.clear()
        print("evicted {} cached cell(s) from {}".format(removed, cache.root))
        return
    entries = cache.entries()
    print(format_table(
        [{
            "cache_dir": str(cache.root),
            "entries": len(entries),
            "bytes": cache.size_bytes(),
            "code_version": cache.salt,
        }],
        title="result cache",
    ))


def _add_run_arguments(parser):
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 1,
                        help="worker processes for sweep cells "
                             "(default: CPU count)")
    parser.add_argument("--no-cache", action="store_true",
                        help="compute every cell; do not read or write "
                             "the result cache")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (default: "
                             "$REPRO_CACHE_DIR or .repro-cache)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit a JSON document instead of tables")
    parser.add_argument("--tiers", action="store_true",
                        help="print the per-tier cascade breakdown")
    parser.add_argument("--fast-path", action=argparse.BooleanOptionalAction,
                        default=False, dest="fast_path",
                        help="drive runner-based cells through the "
                             "two-speed flat-path engine (results are "
                             "byte-identical; cached under a separate key)")
    parser.add_argument("--cells", default=None, metavar="INDICES",
                        help="run only these sweep cells, as a comma list "
                             "of indices and inclusive ranges "
                             "(e.g. 0,3,8-10); the report covers just "
                             "the subset")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="repro.experiments",
                                     description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiments")
    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment", choices=sorted(registry.names()))
    _add_run_arguments(run_parser)
    run_parser.add_argument(
        "--trace", nargs="?", const="", default=None, metavar="PATH",
        help="record an execution trace (bypasses the cache); PATH "
             "ending in .jsonl gets the wire shape, anything else a "
             "Chrome trace_event document "
             "(default: <experiment>-trace.json)")
    run_parser.add_argument(
        "--trace-filter", default=None, metavar="PREFIXES",
        help="comma-separated event-name prefixes to keep "
             "(e.g. net,migrate)")
    all_parser = sub.add_parser("all", help="run every experiment")
    _add_run_arguments(all_parser)
    cache_parser = sub.add_parser("cache", help="inspect the result cache")
    cache_parser.add_argument("--clear", action="store_true",
                              help="evict every cached cell")
    cache_parser.add_argument("--cache-dir", default=None)
    args = parser.parse_args(argv)

    if args.command == "list":
        _list()
        return 0
    if args.command == "cache":
        _cache_command(args)
        return 0

    cache = None if args.no_cache else engine.ResultCache(args.cache_dir)
    if args.command == "run":
        run = _run_one(args.experiment, args, cache)
        if args.as_json:
            print(json.dumps(run.to_json()))
        else:
            _print_run(args.experiment, run, args.tiers)
        if args.trace is not None:
            violations = _export_trace(run, args)
            if violations:
                return 1
    elif args.command == "all":
        documents = []
        for name in registry.names():
            run = _run_one(name, args, cache)
            if args.as_json:
                documents.append(run.to_json())
            else:
                print("\n===== {} =====".format(name))
                _print_run(name, run, args.tiers)
        if args.as_json:
            print(json.dumps({
                "scale": args.scale,
                "seed": args.seed,
                "experiments": documents,
            }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
