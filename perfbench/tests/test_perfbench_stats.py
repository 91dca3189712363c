import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench import stats  # noqa: E402


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 90) == 90
    assert stats.percentile(values, 99.9) == 100
    assert stats.percentile([3.0], 75) == 3.0


def test_tail_needs_ten_samples_beyond():
    assert stats.tail(list(range(10))) is None
    assert stats.tail(list(range(20))) == {"p": 50.0, "value": 9}
    assert stats.tail(list(range(40)))["p"] == 75.0
    assert stats.tail(list(range(100)))["p"] == 90.0
    assert stats.tail(list(range(1000)))["p"] == 99.0


def test_summary():
    assert stats.summary([4.0, 1.0, 3.0, 2.0, 5.0]) == {"median": 3.0, "tail": None, "n": 5}
    assert stats.summary(list(range(21))) == {"median": 10, "tail": {"p": 50.0, "value": 10},
                                               "n": 21}
