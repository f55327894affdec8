"""Strictly parse the result line of a ``perfbench/run.py`` output file.

Usage: ``python3 .github/scripts/check_perfbench_result.py OUTPUT``.

The last line of ``OUTPUT`` must be one JSON object, with no ``NaN`` or
``Infinity``, holding ``correct``, ``attempted``, ``failed`` and
``metrics``; the run must be correct with nothing failed, and every
metric must carry a finite number as its value.  Exits non-zero with a
message otherwise.
"""

import json
import math
import sys


def _reject(constant):
    raise ValueError("non-finite constant {} in the result".format(constant))


def check(text):
    """The parsed result of output ``text``; raises ValueError if the
    last line is not a strict, correct result."""
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
