"""Streaming, mergeable, log-bucketed latency histograms.

A :class:`LatencyHistogram` buckets values geometrically (powers of two
above a ``least`` resolution), which covers the simulator's full
latency range — a ~100 ns DRAM hit to a multi-second degraded disk
path — in a few dozen integer counters.  Histograms are *mergeable*:
bucket counts add, so merging is associative and commutative, and
per-worker histograms collected by the experiment engine fold into one
sweep-wide histogram without losing anything but intra-bucket order.

:class:`HistogramSet` is the keyed collection the tracer records into:
one histogram per ``(category, op)`` pair — per tier, per network op —
exposed on :class:`~repro.experiments.runner.RunContext` beside the
existing tier rows.
"""

import math


class LatencyHistogram:
    """Log2-bucketed histogram of non-negative latencies.

    Bucket ``i`` (for ``i >= 1``) holds values in
    ``(least * 2**(i-1), least * 2**i]``; bucket 0 holds everything at
    or below ``least``; the last bucket additionally absorbs overflow.
    """

    __slots__ = ("least", "buckets", "counts", "total", "sum")

    def __init__(self, least=1e-9, buckets=48):
        if least <= 0:
            raise ValueError("least must be positive")
        if buckets < 2:
            raise ValueError("need at least two buckets")
        self.least = float(least)
        self.buckets = int(buckets)
        self.counts = [0] * self.buckets
        self.total = 0
        self.sum = 0.0

    # -- recording -----------------------------------------------------------

    def bucket_index(self, value):
        """The bucket a value lands in (clamped to the histogram range)."""
        if value <= self.least:
            return 0
        mantissa, exponent = math.frexp(value / self.least)
        # value/least == mantissa * 2**exponent with mantissa in [0.5, 1),
        # so the enclosing power-of-two bound is 2**(exponent-1) exactly
        # when the ratio is itself a power of two.
        index = exponent - 1 if mantissa == 0.5 else exponent
        return min(index, self.buckets - 1)

    def bound(self, index):
        """Upper bound of bucket ``index`` (inf for the overflow bucket)."""
        if not 0 <= index < self.buckets:
            raise IndexError(index)
        if index == self.buckets - 1:
            return math.inf
        return self.least * (2.0 ** index)

    def record(self, value):
        if value < 0:
            raise ValueError("latencies are non-negative")
        # bucket_index, inlined: this runs once per recorded latency.
        least = self.least
        if value <= least:
            index = 0
        else:
            mantissa, exponent = math.frexp(value / least)
            index = exponent - 1 if mantissa == 0.5 else exponent
            if index >= self.buckets:
                index = self.buckets - 1
        self.counts[index] += 1
        self.total += 1
        self.sum += value

    def record_many(self, values):
        """:meth:`record` each of ``values`` in order: the same buckets
        and the same float additions to ``sum``, with one call for the
        lot.  Nothing is recorded if any value is negative."""
        if values and min(values) < 0:
            raise ValueError("latencies are non-negative")
        least = self.least
        top = self.buckets - 1
        counts = self.counts
        frexp = math.frexp
        running = self.sum
        for value in values:
            if value <= least:
                counts[0] += 1
            else:
                mantissa, exponent = frexp(value / least)
                index = exponent - 1 if mantissa == 0.5 else exponent
                counts[index if index < top else top] += 1
            running += value
        self.sum = running
        self.total += len(values)

    # -- queries -------------------------------------------------------------

    @property
    def mean(self):
        return self.sum / self.total if self.total else 0.0

    def percentile(self, fraction):
        """Quantile estimate with linear intra-bucket interpolation.

        Walks the cumulative counts to the bucket holding the
        ``fraction`` quantile, then interpolates linearly between the
        bucket's bounds by the quantile's rank within it (the standard
        assumption that mass is uniform inside a bucket).  Bucket 0
        interpolates over ``[0, least]``; a quantile landing in the
        overflow bucket is clamped to the last finite bound — the
        histogram cannot see past its range.  The estimate is therefore
        never below the true quantile's lower bucket bound nor above
        its upper bound, and error is at most one octave.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.total == 0:
            return 0.0
        target = fraction * self.total
        seen = 0
        for index, count in enumerate(self.counts):
            if count == 0:
                continue
            if seen + count >= target:
                within = (target - seen) / count
                if index >= self.buckets - 1:
                    return self.least * (2.0 ** (self.buckets - 2))
                upper = self.least * (2.0 ** index)
                lower = 0.0 if index == 0 else upper / 2.0
                return lower + (upper - lower) * max(0.0, within)
            seen += count
        return self.least * (2.0 ** (self.buckets - 2))

    def cdf(self, value):
        """Estimated fraction of recorded samples at or below ``value``.

        The inverse of :meth:`percentile` under the same
        uniform-within-bucket assumption: full buckets below ``value``
        count whole, the bucket containing ``value`` contributes the
        linear fraction of its span covered.  Samples in the overflow
        bucket are strictly above the last finite bound, so they never
        count toward a finite ``value`` — the estimate is conservative
        from below.  An empty histogram vacuously reports 1.0.
        """
        if value < 0:
            raise ValueError("latencies are non-negative")
        if self.total == 0:
            return 1.0
        index = self.bucket_index(value)
        seen = sum(self.counts[:index])
        count = self.counts[index]
        if count:
            if index == self.buckets - 1:
                within = 0.0  # overflow samples are above any finite value
            else:
                upper = self.least * (2.0 ** index)
                lower = 0.0 if index == 0 else upper / 2.0
                within = (value - lower) / (upper - lower)
            seen += count * min(1.0, max(0.0, within))
        return min(1.0, seen / self.total)

    @property
    def p50(self):
        return self.percentile(0.50)

    @property
    def p90(self):
        return self.percentile(0.90)

    @property
    def p99(self):
        return self.percentile(0.99)

    @property
    def p999(self):
        return self.percentile(0.999)

    # -- merging -------------------------------------------------------------

    def merge(self, other):
        """Fold ``other`` into this histogram (in place; associative)."""
        if (other.least, other.buckets) != (self.least, self.buckets):
            raise ValueError("cannot merge histograms of different shapes")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total
        self.sum += other.sum
        return self

    def copy(self):
        clone = LatencyHistogram(self.least, self.buckets)
        clone.merge(self)
        return clone

    # -- serialization -------------------------------------------------------

    def to_json(self):
        return {
            "least": self.least,
            "buckets": self.buckets,
            "counts": list(self.counts),
            "total": self.total,
            "sum": self.sum,
        }

    @classmethod
    def from_json(cls, doc):
        histogram = cls(least=doc["least"], buckets=doc["buckets"])
        histogram.counts = list(doc["counts"])
        histogram.total = doc["total"]
        histogram.sum = doc["sum"]
        if len(histogram.counts) != histogram.buckets:
            raise ValueError("count vector does not match bucket count")
        return histogram

    def snapshot(self):
        """One flat row for table rendering / JSON reporting."""
        return {
            "count": self.total,
            "mean_s": self.mean,
            "p50_s": self.p50,
            "p90_s": self.p90,
            "p99_s": self.p99,
            "p999_s": self.p999,
        }


class HistogramSet:
    """Latency histograms keyed by ``(category, op)``.

    The tracer records per-operation service times here — one histogram
    per tier label, one per network op — and the runner copies the rows
    onto the run's :class:`~repro.experiments.runner.RunContext`.
    """

    def __init__(self, least=1e-9, buckets=48):
        self.least = least
        self.buckets = buckets
        self._histograms = {}

    def record(self, category, op, value):
        key = (category, op)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = LatencyHistogram(self.least, self.buckets)
            self._histograms[key] = histogram
        histogram.record(value)

    def get(self, category, op):
        return self._histograms.get((category, op))

    def __len__(self):
        return len(self._histograms)

    def __iter__(self):
        return iter(sorted(self._histograms.items()))

    def merge(self, other):
        for (category, op), histogram in other._histograms.items():
            mine = self._histograms.get((category, op))
            if mine is None:
                self._histograms[(category, op)] = histogram.copy()
            else:
                mine.merge(histogram)
        return self

    def rows(self):
        """Flat per-(category, op) rows, deterministically ordered."""
        return [
            dict({"category": category, "op": op}, **histogram.snapshot())
            for (category, op), histogram in self
        ]

    def to_json(self):
        return [
            {"category": category, "op": op, "histogram": histogram.to_json()}
            for (category, op), histogram in self
        ]

    @classmethod
    def from_json(cls, docs):
        collection = cls()
        for doc in docs:
            histogram = LatencyHistogram.from_json(doc["histogram"])
            collection._histograms[(doc["category"], doc["op"])] = histogram
        return collection
