"""Statistics and accounting rules of the PILOTE benchmark.

Kept free of I/O so perfbench/test_harness.py can pin each rule:
  * percentiles are nearest-rank and refused when fewer than
    MIN_BEYOND samples lie beyond the requested rank;
  * a live window's wait runs from its due time, not its send time;
  * a failed operation is an error, a backpressure reject, a degraded
    answer or an operation lost to an aborted run, and the failed share
    is failed / attempted;
  * the completed share is the smallest over the operation kinds
    (set-ups, updates, windows), so a lost set-up or update shows however
    many windows the run also counted.
"""

import math
import statistics

MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def percentile(values, q):
    """Nearest-rank percentile `q` (0 < q < 1) of `values`.

    The value at rank k = ceil(q * n) is returned only when at least
    MIN_BEYOND samples rank above it; otherwise InsufficientSamples.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("quantile must be in (0, 1), got %r" % (q,))
    n = len(values)
    rank = max(1, math.ceil(q * n - 1e-9))
    if n - rank < MIN_BEYOND:
        raise InsufficientSamples(
            "p%g needs %d samples beyond rank %d, have %d of %d"
            % (100 * q, MIN_BEYOND, rank, n - rank, n))
    return sorted(values)[rank - 1]


def median(values):
    if not values:
        raise InsufficientSamples("median of no samples")
    return statistics.median(values)


def longest_stall(due_ms, done_ms, start_ms, end_ms):
    """Longest due-time latency (resolved - due, not resolved - sent)
    among the windows in flight while an update ran from start_ms to
    end_ms: due before it ended, resolved after it started. Unresolved
    windows (done < 0) are left out and must be counted as failed by the
    caller. None when no window was in flight."""
    if len(due_ms) != len(done_ms):
        raise ValueError("due/done length mismatch")
    waits = [done - due for due, done in zip(due_ms, done_ms)
             if done >= 0 and due < end_ms and done > start_ms]
    return max(waits) if waits else None


def generator_lags(due_ms, sent_ms):
    """How late the generator sent each window (send time - due time)."""
    if len(due_ms) != len(sent_ms):
        raise ValueError("due/sent length mismatch")
    return [sent - due for due, sent in zip(due_ms, sent_ms)]


def failed_ops(errors=0, rejects=0, degraded=0, lost=0):
    parts = (errors, rejects, degraded, lost)
    if any(p < 0 for p in parts):
        raise ValueError("negative failure count")
    return sum(parts)


def failed_share(attempted, failed):
    if attempted < 1:
        raise ValueError("attempted must be >= 1")
    if not 0 <= failed <= attempted:
        raise ValueError("failed %d outside [0, %d]" % (failed, attempted))
    return failed / attempted


def completed_share(kinds):
    """1 - failed share of the worst operation kind; `kinds` maps each
    kind to (attempted, failed)."""
    if not kinds:
        raise ValueError("no operation kinds")
    return min(1 - failed_share(a, f) for a, f in kinds.values())


def quartile_spread(values):
    """(Q3 - Q1) / median, with Python's default quantile method."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
