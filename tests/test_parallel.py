import pytest

from uawq.errors import BadRange
from uawq.parallel import pmap, worker_count


def test_worker_count_is_capped_by_uawq_threads(monkeypatch):
    monkeypatch.setenv("UAWQ_THREADS", "1")
    assert worker_count() == 1
    assert worker_count(8) == 1
    assert pmap(abs, [-3, 2, -1], 2) == [3, 2, 1]


@pytest.mark.parametrize("value", ["two", "1.5", " "])
def test_non_integer_uawq_threads_is_a_bad_range(monkeypatch, value):
    monkeypatch.setenv("UAWQ_THREADS", value)
    with pytest.raises(BadRange, match=f"UAWQ_THREADS={value!r} is not an integer"):
        worker_count()
