"""Statistics helpers of the benchmark: medians and quartiles, the tail
percentile with its sample count, and span self time.

Tested by perfbench/test_stats.py (python3 -m unittest discover perfbench).
"""

import math
import statistics

# Percentiles a tail is reported at, highest last.
TAIL_LADDER = (0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999)
TAIL_MIN_BEYOND = 10


def median(values):
    return statistics.median(values)


def second_best(values, better="lower"):
    """The second-best value: the second lowest (better="lower") or second
    highest (better="higher"); the only value when there is one. Contention
    on a shared host only ever slows an iteration, so the best iterations
    of a run are its steadiest estimate, and skipping the very best guards
    against one stray reading. With three values it is the median."""
    ordered = sorted(values, reverse=(better == "higher"))
    return ordered[min(1, len(ordered) - 1)]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Quartile distance as a share of the median (0 when the median is 0)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def tail_percentile(n):
    """(percentile, rank) of the highest TAIL_LADDER percentile that leaves
    at least TAIL_MIN_BEYOND of n samples beyond it; None when even the
    median does not. The rank is nearest-rank: ceil(q * n)."""
    best = None
    for q in TAIL_LADDER:
        rank = max(1, math.ceil(round(q * n, 6)))
        if n - rank < TAIL_MIN_BEYOND:
            break
        best = (q, rank)
    return best


def tail(values):
    """The tail of `values` as (percentile, value, sample_count), or None
    when there are too few samples (see tail_percentile)."""
    ordered = sorted(values)
    found = tail_percentile(len(ordered))
    if found is None:
        return None
    q, rank = found
    return q, ordered[rank - 1], len(ordered)


def covered(start, end, intervals):
    """Length of [start, end) covered by the union of (start, end) intervals."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    total = 0
    cur_start = cur_end = None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start, dur, children):
    """A span's duration minus the part of its interval that its children
    cover. `children` are (start, dur) pairs; they may nest, overlap each
    other, have zero length or reach outside the parent."""
    return dur - covered(start, start + dur, [(s, s + d) for s, d in children])

