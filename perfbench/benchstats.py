"""Spread and drift helpers of steadiness.py.

Quartiles are Python's statistics.quantiles(values, n=4) (the default
"exclusive" method), so a spread computed here matches one computed the same
way from the printed values.
"""

import statistics


def relative_iqr(values):
    """Distance between the first and third quartile as a share of the median."""
    if len(values) < 2:
        raise ValueError("a spread needs at least two values")
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worsening(before, after, better):
    """How much `after` is worse than `before`, as a share of `before`.

    Negative when it is better. `better` is "lower" or "higher".
    """
    if better == "lower":
        return (after - before) / before
    if better == "higher":
        return (before - after) / before
    raise ValueError(f"better must be 'lower' or 'higher', not {better!r}")
