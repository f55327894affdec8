"""Light statistics primitives for simulation instrumentation."""

import math


class Counter:
    """A named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def increment(self, amount=1):
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def __repr__(self):
        return "Counter({!r}, {})".format(self.name, self.value)


class RunningStats:
    """Streaming mean/variance/min/max (Welford's algorithm)."""

    __slots__ = ("count", "_mean", "_m2", "minimum", "maximum")

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def record(self, value):
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self):
        return self._mean if self.count else 0.0

    @property
    def variance(self):
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stdev(self):
        return math.sqrt(self.variance)

    def snapshot(self):
        return {
            "count": self.count,
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
        }


class TimeSeries:
    """(time, value) samples with simple window aggregation."""

    def __init__(self, name="series"):
        self.name = name
        self.samples = []

    def record(self, time, value):
        self.samples.append((time, value))

    def window_means(self, window):
        """Collapse samples into fixed windows; returns (end, mean) pairs."""
        if window <= 0:
            raise ValueError("window must be positive")
        if not self.samples:
            return []
        result = []
        bucket = []
        edge = self.samples[0][0] + window
        for time, value in self.samples:
            while time >= edge:
                if bucket:
                    result.append((edge, sum(bucket) / len(bucket)))
                    bucket = []
                edge += window
            bucket.append(value)
        if bucket:
            result.append((edge, sum(bucket) / len(bucket)))
        return result
