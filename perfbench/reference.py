"""A fixed reference kernel that measures how fast this CPU is right now.

Shared machines change speed under their other tenants: on a 2-vCPU
cloud box each vCPU was seen running the same code 1.7x slower for
stretches of 5 to 20 seconds, independently of the other vCPU.  A run
of a few seconds cannot average that away, so while a sweep runs,
:class:`SpeedSampler` times this kernel every tenth of a second on the
same CPU and corrects each slice of host time to the speed of a nominal
CPU.

The kernel is pure Python shaped like the program's hot loops (a heap
of timestamped events resuming generator processes, each doing a
pointer-chasing lookup in a large dict and allocating a small object),
so it slows with the program under contention.  It does not use the
program, so an optimisation of the program moves the corrected figure
exactly as it moves host time.
"""

import heapq
import random
import signal
from time import perf_counter

#: Table entries: a dict of a few MiB, so lookups miss the caches as
#: the program's page tables do.
TABLE_SIZE = 1 << 16
#: Events per timed run (about 2 ms on a 2.1 GHz Xeon vCPU).
EVENTS = 1500
#: Timed runs per reading; the fastest is kept.
REPEATS = 2
#: Seconds between readings while a sweep runs.
INTERVAL = 0.1
#: Kernel reading, in seconds, of the nominal CPU host time is
#: corrected to (about the fast state of a 2.1 GHz Xeon vCPU).
NOMINAL = 0.002
#: How strongly program host time follows the kernel's: the log-log
#: slope of pass time on kernel reading across the speed states of a
#: shared 2-vCPU box, 0.66 to 0.72 on the paging and serving sweeps.
#: Dividing by the plain reading (1.0) over-corrects: the per-pass
#: coefficient of variation was 0.17 raw, 0.08 at 1.0, 0.03 at 0.65.
SENSITIVITY = 0.65
PROCESSES = 64


class _Event:
    __slots__ = ("when", "pid", "cell")

    def __init__(self, when, pid, cell):
        self.when = when
        self.pid = pid
        self.cell = cell


class Kernel:
    """The reference kernel; :meth:`seconds` is one speed reading."""

    def __init__(self):
        self.table = {
            (i * 2654435761) % (1 << 32): [i] for i in range(TABLE_SIZE)
        }
        self.keys = list(self.table)

    def _run(self):
        table, keys = self.table, self.keys
        rng = random.Random(7)
        heap = []

        def process(pid):
            while True:
                cell = table[keys[rng.randrange(TABLE_SIZE)]]
                cell[0] += 1
                yield _Event(cell[0] * 1e-9, pid, cell).when

        for pid in range(PROCESSES):
            each = process(pid)
            heapq.heappush(heap, (next(each), pid, each))
        for _ in range(EVENTS):
            now, pid, each = heapq.heappop(heap)
            heapq.heappush(heap, (now + each.send(None), pid, each))

    def seconds(self):
        """Host seconds of one kernel run: the fastest of a few."""
        best = None
        for _ in range(REPEATS):
            began = perf_counter()
            self._run()
            elapsed = perf_counter() - began
            if best is None or elapsed < best:
                best = elapsed
        return best


class SpeedSampler:
    """Corrects the host time of a stretch of code to the nominal CPU.

    Inside ``with SpeedSampler(kernel) as sampler:`` a timer signal
    interrupts the program every :data:`INTERVAL` seconds to take a
    kernel reading.  Each slice of program time between two readings is
    scaled by ``(NOMINAL / r) ** SENSITIVITY``, ``r`` being the mean of
    the two readings; ``corrected_seconds`` is the sum over the slices.
    ``kernel_seconds`` is the host time the readings took, which callers
    subtract from their own timings.  The handler touches no program
    state (the payload digests check that).
    """

    def __init__(self, kernel):
        self.kernel = kernel
        self.corrected_seconds = 0.0
        self.kernel_seconds = 0.0
        self.readings = 0
        self.last_reading = None
        self.slice_began = None
        self.previous_handler = None

    def _read(self, _signum=None, _frame=None):
        now = perf_counter()
        reading = self.kernel.seconds()
        done = perf_counter()
        self.kernel_seconds += done - now
        self.readings += 1
        if self.last_reading is not None:
            speed = NOMINAL / ((self.last_reading + reading) / 2)
            self.corrected_seconds += (
                (now - self.slice_began) * speed ** SENSITIVITY
            )
        self.last_reading = reading
        self.slice_began = done

    def __enter__(self):
        self._read()
        self.previous_handler = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous_handler)
        self._read()
        return False
