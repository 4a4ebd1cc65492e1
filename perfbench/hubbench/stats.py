"""Order statistics used for every reported timing."""

from dataclasses import dataclass

#: A tail percentile is only reported where at least this many samples lie beyond it.
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """The highest percentile with ``TAIL_MIN_BEYOND`` samples beyond it.

    With ``TAIL_MIN_BEYOND`` samples or fewer no such percentile exists; the
    maximum is reported instead, as percentile 100 with nothing beyond it.
    """

    percentile: float
    value: float
    samples: int
    beyond: int


def median(values) -> float:
    """Median; the mean of the two middle values for an even count."""
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no values")
    mid = len(xs) // 2
    if len(xs) % 2:
        return float(xs[mid])
    return (xs[mid - 1] + xs[mid]) / 2.0


def tail(values) -> Tail:
    """Nearest-rank percentile ``100 * (N - 10) / N`` of N samples.

    The sample at 1-based rank N - 10 has exactly ten samples ranked above it,
    and every higher rank has fewer, so this is the highest percentile the
    rule allows.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of no values")
    if n <= TAIL_MIN_BEYOND:
        return Tail(percentile=100.0, value=float(xs[-1]), samples=n, beyond=0)
    rank = n - TAIL_MIN_BEYOND
    return Tail(percentile=100.0 * rank / n, value=float(xs[rank - 1]), samples=n, beyond=TAIL_MIN_BEYOND)
