"""Arithmetic of the repository benchmark: medians, quartiles, the tail
percentile rule, span self time and failure counting.

Kept apart from ``run.py`` so ``test_benchlib.py`` can check it without
building anything.
"""

import math
import statistics


def median(values):
    return statistics.median(values)


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median, with quartiles as ``statistics.quantiles(values, n=4)`` gives
    them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def tail_percentile(samples):
    """The 99th percentile, or if it has fewer than ten samples beyond it,
    the highest percentile that has, by nearest rank.

    Returns ``(value, percentile, n)``.  Below 100 samples no percentile
    from the 90th up has ten samples beyond it; the sample is too small for
    a tail, and the maximum is returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = min(math.ceil(0.99 * n), n - 10)
    if 10 * rank < 9 * n:
        return ordered[-1], 100.0, n
    return ordered[rank - 1], 100.0 * rank / n, n


def union_length(intervals):
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Per span: its duration minus the part of its interval that its child
    spans cover.  ``spans`` is a list of ``(start, end, parent_index)``;
    overlapping children are counted once and clipped to the parent."""
    children = [[] for _ in spans]
    for start, end, parent in spans:
        if parent is not None:
            children[parent].append((start, end))
    result = []
    for (start, end, _), kids in zip(spans, children):
        clipped = [(max(s, start), min(e, end)) for s, e in kids if min(e, end) > max(s, start)]
        result.append((end - start) - union_length(clipped))
    return result


def request_failed(expected, answer):
    """Whether one serve answer counts against ``error_frac``.

    ``expected`` is ``(status, kind, fingerprint)`` from the committed table;
    ``answer`` is the worker's record of the response.  A dropped connection
    and a 503 always fail.  Any other answer fails unless its status, kind
    and fingerprint are the expected ones, so an expected 400 succeeds.
    """
    if "error" in answer:
        return True
    status = int(answer["status"])
    if status == 503:
        return True
    got = (status, answer.get("kind") or "-", answer.get("fingerprint") or "-")
    return got != tuple(expected)
