"""Sample statistics and metric-name rules shared by the benchmark."""
import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# Percentiles a tail may be reported at, highest last.
TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9, 99.99)


def valid_name(name):
    """A metric or workload name: starts with a letter or digit, at most 64
    letters, digits, '_', '.' and '-'."""
    return isinstance(name, str) and NAME_RE.match(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.match(unit) is not None


def rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples (rounded
    first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p * n / 100.0, 6)))


def percentile(values, p):
    """Nearest-rank percentile; +inf samples (failed requests) sort last."""
    if not values:
        raise ValueError("percentile of an empty sample")
    return sorted(values)[rank(len(values), p) - 1]


def beyond(n, p):
    """Samples strictly beyond the nearest-rank p-th percentile of n."""
    return n - rank(n, p)


def tail_percentile(n, min_beyond=10):
    """The highest candidate percentile with at least `min_beyond` samples
    beyond it, or None when not even the median has."""
    best = None
    for p in TAIL_CANDIDATES:
        if beyond(n, p) >= min_beyond:
            best = p
    return best


def median(values):
    return statistics.median(values)


def relative_spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def windows(values, times, duration, n):
    """Splits `values` into `n` groups by their `times` in [0, duration);
    empty groups are dropped."""
    groups = [[] for _ in range(n)]
    for v, t in zip(values, times):
        groups[min(n - 1, max(0, int(t / duration * n)))].append(v)
    return [g for g in groups if g]


def window_counts(times, duration, n):
    """Events per window of `duration`/`n`, for times in [0, duration]."""
    counts = [0] * n
    for t in times:
        counts[min(n - 1, max(0, int(t / duration * n)))] += 1
    return counts
