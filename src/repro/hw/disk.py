"""Block-device models: rotational HDD and flash SSD.

Both devices serve requests through an internal queue (``queue_depth``
concurrent requests); an HDD additionally models head position so that
sequential requests skip the seek penalty — this is what makes batched
swap-out measurably cheaper than random single-page swap-out on disk.
"""

from dataclasses import dataclass

from repro.hw.latency import DiskSpec
from repro.sim import PriorityResource


@dataclass
class DiskStats:
    """Aggregate counters for one block device."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_time: float = 0.0
    sequential_hits: int = 0

    def snapshot(self):
        """A plain-dict copy (for reports)."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "busy_time": self.busy_time,
            "sequential_hits": self.sequential_hits,
        }


class BlockDevice:
    """Common machinery for queued block devices."""

    #: Sync reads jump ahead of background writeback, like the kernel's
    #: deadline/CFQ schedulers.
    READ_PRIORITY = 0
    WRITE_PRIORITY = 1

    def __init__(self, env, spec, name):
        self.env = env
        self.spec = spec
        self.name = name
        self.stats = DiskStats()
        self._queue = PriorityResource(
            env, capacity=spec.queue_depth, name=name + ":q"
        )
        self._head_offset = None  # byte offset after the previous request

    def _access_time(self, offset):
        """Seek/access cost for a request starting at byte ``offset``."""
        if self._head_offset is not None and offset == self._head_offset:
            self.stats.sequential_hits += 1
            return self.spec.sequential_access_time
        return self.spec.access_time

    def _service(self, offset, nbytes, is_write):
        priority = self.WRITE_PRIORITY if is_write else self.READ_PRIORITY
        request = self._queue.request(priority=priority)
        yield request
        try:
            duration = self._access_time(offset) + nbytes / self.spec.bandwidth
            self._head_offset = offset + nbytes
            if not self.env.advance(duration):
                yield self.env.timeout(duration)
            self.stats.busy_time += duration
            if is_write:
                self.stats.writes += 1
                self.stats.bytes_written += nbytes
            else:
                self.stats.reads += 1
                self.stats.bytes_read += nbytes
        finally:
            self._queue.release(request)

    def read(self, offset, nbytes):
        """Generator: timed read of ``nbytes`` at byte ``offset``."""
        yield from self._service(offset, nbytes, is_write=False)

    def write(self, offset, nbytes):
        """Generator: timed write of ``nbytes`` at byte ``offset``."""
        yield from self._service(offset, nbytes, is_write=True)

    def service_time(self, nbytes, sequential=False):
        """Uncontended service time estimate (used by planners, not I/O)."""
        access = (
            self.spec.sequential_access_time if sequential else self.spec.access_time
        )
        return access + nbytes / self.spec.bandwidth


class Hdd(BlockDevice):
    """A 7.2K RPM SATA drive (the paper testbed's swap device)."""

    def __init__(self, env, spec=None, name="hdd"):
        super().__init__(env, spec or DiskSpec(), name)


class Ssd(BlockDevice):
    """A SATA/NVMe-class flash device (alternative swap tier)."""

    DEFAULT_SPEC = DiskSpec(
        access_time=90e-6,
        bandwidth=500 * 1024 * 1024,
        sequential_access_time=60e-6,
        queue_depth=8,
    )

    def __init__(self, env, spec=None, name="ssd"):
        super().__init__(env, spec or self.DEFAULT_SPEC, name)
