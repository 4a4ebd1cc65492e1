import random

import pytest

from hubbench import stats


def test_tail_of_few_samples_is_the_maximum():
    for n in range(1, stats.TAIL_MIN_BEYOND + 1):
        t = stats.tail(list(range(n, 0, -1)))
        assert (t.percentile, t.value, t.samples, t.beyond) == (100.0, float(n), n, 0)


def test_tail_of_eleven_samples_is_the_smallest():
    t = stats.tail([5, 3, 9, 1, 7, 2, 8, 4, 6, 10, 11])
    assert t.value == 1.0
    assert t.percentile == pytest.approx(100.0 / 11)
    assert t.beyond == 10


def test_tail_of_hundred_samples_is_p90():
    t = stats.tail(range(1, 101))
    assert t.percentile == 90.0
    assert t.value == 90.0


@pytest.mark.parametrize("n", [11, 12, 37, 80, 200])
def test_tail_is_the_highest_percentile_with_ten_beyond(n):
    rng = random.Random(n)
    xs = [rng.random() for _ in range(n)]
    t = stats.tail(xs)
    ranked = sorted(xs)
    assert sum(x > t.value for x in xs) == stats.TAIL_MIN_BEYOND
    # the next rank up leaves only nine samples beyond it
    assert sum(x > ranked[ranked.index(t.value) + 1] for x in xs) == stats.TAIL_MIN_BEYOND - 1


def test_median():
    assert stats.median([3, 1, 2]) == 2.0
    assert stats.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])
