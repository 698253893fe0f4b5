"""The OpenBLAS thread pin: it sets only a count that differs and
restores only a count it changed."""

import pytest

from sdlowrank import _blas


class _CountingOpenBLAS:
    """Stands in for numpy's OpenBLAS and records every set call."""

    def __init__(self, count):
        self.count, self.sets = count, []

    def scipy_openblas_get_num_threads64_(self):
        return self.count

    def scipy_openblas_set_num_threads64_(self, count):
        self.sets.append(count)
        self.count = count


@pytest.mark.parametrize("count, sets", [(1, []), (2, [1, 2])], ids=["at-one", "at-two"])
def test_pin_sets_only_a_count_that_differs(monkeypatch, count, sets):
    # a set call in a forked worker, even 1 -> 1, starts a spinning
    # OpenBLAS thread, so a pin at one thread must make none
    lib = _CountingOpenBLAS(count)
    monkeypatch.setattr(_blas, "_openblas", lambda: lib)
    with _blas._blas_pinned():
        assert lib.count == _blas._BLAS_THREADS == 1
    assert lib.sets == sets
    assert lib.count == count


def test_pin_without_openblas_does_nothing(monkeypatch):
    monkeypatch.setattr(_blas, "_openblas", lambda: None)
    assert _blas._set_blas_threads(2) is None
    with _blas._blas_pinned():
        pass
