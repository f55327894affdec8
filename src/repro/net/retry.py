"""Retry, timeout and exponential-backoff semantics for network ops.

The paper's resilience story (Section IV-D) assumes that transient
failures — a flapped link, a rebooting peer, a congested fabric — are
absorbed below the data path: operations are retried with exponential
backoff, and only *exhausted* retries surface as failures the failover
policies must handle.  This module provides that layer for every
simulated network op:

* :class:`RetryPolicy` — attempts, base delay, multiplier, cap and
  optional jitter (jitter draws from an explicitly passed RNG stream,
  never the process-global RNG, so schedules stay seed-reproducible);
* :func:`retrying` — drive an attempt factory under a policy, sleeping
  the backoff delay between attempts in *simulated* time;
* :func:`call_with_timeout` — run a generator as a child process with
  a watchdog; a late operation is interrupted and surfaces as
  :class:`~repro.net.errors.OpTimeout`.
"""

from dataclasses import dataclass

from repro.net.errors import NetworkError, OpTimeout


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff: ``base_delay * multiplier**(attempt-1)``.

    ``jitter`` is the +/- fraction applied to each delay when an RNG
    stream is supplied (deterministic backoff otherwise).
    """

    max_attempts: int = 4
    base_delay: float = 20e-6
    multiplier: float = 2.0
    max_delay: float = 10e-3
    jitter: float = 0.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")

    def delay(self, attempt, rng=None):
        """Backoff before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt numbers are 1-based")
        delay = min(
            self.max_delay, self.base_delay * self.multiplier ** (attempt - 1)
        )
        if self.jitter and rng is not None:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


class RetryStats:
    """Counters one retrying call site accumulates across operations."""

    __slots__ = ("attempts", "retries", "exhausted")

    def __init__(self):
        self.attempts = 0
        self.retries = 0
        self.exhausted = 0

    def snapshot(self):
        return {
            "attempts": self.attempts,
            "retries": self.retries,
            "exhausted": self.exhausted,
        }


def retrying(env, policy, attempt, retry_on=(NetworkError,), rng=None,
             stats=None):
    """Generator: run ``attempt()`` under ``policy``; returns its value.

    ``attempt`` is a zero-argument callable returning a *fresh*
    generator per call (each retry re-runs the whole operation, e.g.
    re-establishing a queue pair that moved to ERROR).  Exceptions not
    in ``retry_on`` propagate immediately; the last retryable error is
    re-raised once attempts are exhausted.
    """
    error = None
    for number in range(1, policy.max_attempts + 1):
        if stats is not None:
            stats.attempts += 1
        try:
            result = yield from attempt()
        except retry_on as caught:
            error = caught
            if number == policy.max_attempts:
                break
            if stats is not None:
                stats.retries += 1
            if env.tracer.enabled:
                env.tracer.instant(
                    "net.retry",
                    attempt=number,
                    max_attempts=policy.max_attempts,
                    error=type(caught).__name__,
                )
            backoff = policy.delay(number, rng)
            if backoff > 0:
                yield env.timeout(backoff)
        else:
            return result
    if stats is not None:
        stats.exhausted += 1
    raise error


def call_with_timeout(env, generator, timeout, what=""):
    """Generator: run ``generator`` with a watchdog of ``timeout``.

    The operation runs as a child process; if the watchdog fires first
    the child is interrupted (its ``finally`` blocks release held
    resources; a transfer it was waiting on keeps its booked lanes) and
    :class:`~repro.net.errors.OpTimeout` is raised.
    Failures of the operation itself propagate unchanged.
    """
    if timeout <= 0:
        raise ValueError("timeout must be positive")
    child = env.process(generator, name=what or "with-timeout")
    watchdog = env.timeout(timeout)
    yield env.any_of([child, watchdog])
    if not child.triggered:
        child.interrupt("timeout after {}s".format(timeout))
        if env.tracer.enabled:
            env.tracer.instant("net.timeout", timeout_s=timeout, what=what)
        raise OpTimeout(timeout, what)
    if not child.ok:
        raise child.value
    return child.value
