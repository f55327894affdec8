"""Strictly parse the result line of a ``perfbench/run.py`` output file.

Usage: ``python3 .github/scripts/check_perfbench_result.py OUTPUT``.

The last line of ``OUTPUT`` must be one JSON object, with no ``NaN`` or
``Infinity``, holding ``correct``, ``attempted``, ``failed`` and
``metrics``; the run must be correct with nothing failed, and every
metric must carry a finite number as its value.  The metric names must
be exactly those ``BENCHMARK.json`` (at the repo root) declares: its
``end_to_end`` names for an untraced run, its ``per_layer`` names for a
traced one, as the output's ``manifest`` line says.  Exits non-zero
with a message otherwise.
"""

import json
import math
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _reject(constant):
    raise ValueError("non-finite constant {} in the result".format(constant))


def declared_names(traced):
    """The metric names ``BENCHMARK.json`` declares for a traced or an
    untraced run."""
    with open(BENCHMARK) as handle:
        declared = json.load(handle)
    return {
        metric["name"]
        for metric in declared["per_layer" if traced else "end_to_end"]
    }


def _traced(lines):
    """The ``trace`` flag of the output's manifest line."""
    for line in lines:
        if line.startswith("manifest "):
            return bool(json.loads(line[len("manifest "):])["trace"])
    raise ValueError("no manifest line in the output")


def check(text):
    """The parsed result of output ``text``; raises ValueError if the
    last line is not a strict, correct result carrying exactly the
    declared metric names."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty output")
    result = json.loads(lines[-1], parse_constant=_reject)
    if not isinstance(result, dict):
        raise ValueError("the last line is not a JSON object")
    missing = {"correct", "attempted", "failed", "metrics"} - set(result)
    if missing:
        raise ValueError("result lacks {}".format(sorted(missing)))
    if result["correct"] is not True or result["failed"] != 0:
        raise ValueError("run not correct: {}".format(lines[-1]))
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        raise ValueError("no metrics in the result")
    for name, metric in metrics.items():
        value = metric.get("value") if isinstance(metric, dict) else None
        if (
            isinstance(value, bool)
            or not isinstance(value, (int, float))
            or not math.isfinite(value)
        ):
            raise ValueError("metric {} has value {!r}".format(name, value))
    traced = _traced(lines)
    expected = declared_names(traced)
    missing = sorted(expected - set(metrics))
    extra = sorted(set(metrics) - expected)
    if missing or extra:
        raise ValueError(
            "{} result carries {} of {} declared metrics; missing {}, "
            "undeclared {}".format(
                "traced" if traced else "untraced",
                len(expected) - len(missing), len(expected), missing, extra,
            )
        )
    return result


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(argv[1]) as handle:
        text = handle.read()
    try:
        result = check(text)
    except ValueError as error:
        tail = text.splitlines()[-1:] or [""]
        sys.exit("{}: {}\nlast line: {}".format(argv[1], error, tail[0][:2000]))
    print("{}: correct, {} attempted, {} metrics".format(
        argv[1], result["attempted"], len(result["metrics"])
    ))


if __name__ == "__main__":
    main(sys.argv)
