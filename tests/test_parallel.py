import sys
import threading
import time

import pytest

from odlc import parallel

needs_openblas = pytest.mark.skipif(parallel._openblas() is None,
                                    reason="no OpenBLAS thread-count entry point loaded")


@pytest.fixture
def two_cores(monkeypatch):
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0, 1})


@needs_openblas
@pytest.mark.usefixtures("two_cores")
class TestRegion:
    def test_results_come_back_in_item_order_when_items_finish_out_of_order(self):
        finished = []

        def slow_first(i):
            time.sleep(0.2 if i == 0 else 0.01)
            finished.append(i)
            return i * i

        assert parallel.map(slow_first, range(6)) == [0, 1, 4, 9, 16, 25]
        assert finished[-1] == 0
        assert sorted(finished) == list(range(6))

    def test_lowest_index_failure_surfaces_and_blas_count_is_restored(self):
        blas = parallel._openblas()
        old = blas.get()
        blas.set(2)
        try:
            inside = []

            def fails_at_1_and_3(i):
                inside.append(blas.get())
                if i == 3:
                    raise KeyError("item 3")
                if i == 1:
                    time.sleep(0.1)  # item 3 fails first
                    raise ValueError("item 1")
                return i

            with pytest.raises(ValueError, match="item 1"):
                parallel.map(fails_at_1_and_3, range(5))
            assert set(inside) == {1}
            assert blas.get() == 2
        finally:
            blas.set(old)

    def test_items_run_on_two_threads_at_one_blas_thread(self):
        blas = parallel._openblas()
        barrier = threading.Barrier(2, timeout=10)

        def meet(i):
            barrier.wait()  # fails unless two items run at once
            return threading.get_ident(), blas.get()

        seen = parallel.map(meet, range(2))
        assert len({ident for ident, _ in seen}) == 2
        assert [count for _, count in seen] == [1, 1]
        assert parallel.last_region() == "workers=2 blas=openblas-pinned"

    def test_nested_call_runs_inline(self):
        def outer(i):
            ident = threading.get_ident()
            inner = parallel.map(lambda j: threading.get_ident(), range(4))
            return inner == [ident] * 4

        assert parallel.map(outer, range(4)) == [True] * 4
        assert parallel.last_region() == "workers=2 blas=openblas-pinned"

    def test_more_workers_than_cores_lose_no_item(self, monkeypatch):
        monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: set(range(8)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for n in range(1, 40):
                assert parallel.map(lambda i: -i, range(n)) == [-i for i in range(n)]
        finally:
            sys.setswitchinterval(interval)
        assert parallel.last_region() == "workers=8 blas=openblas-pinned"


@pytest.mark.usefixtures("two_cores")
def test_without_openblas_the_map_runs_serially_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(parallel, "_openblas", lambda: None)
    caller = threading.get_ident()
    order = []

    def record(i):
        order.append(i)
        return threading.get_ident()

    assert parallel.map(record, range(5)) == [caller] * 5
    assert order == list(range(5))
    assert parallel.last_region() == "workers=1 blas=not-pinned"
    parallel.reset_region()
    assert parallel.last_region() == "unused"


def test_one_usable_core_runs_serially_on_the_calling_thread(monkeypatch):
    monkeypatch.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})
    caller = threading.get_ident()
    assert parallel.map(lambda i: threading.get_ident(), range(3)) == [caller] * 3

    def fails_from_1(i):
        if i >= 1:
            raise ValueError(f"item {i}")

    with pytest.raises(ValueError, match="item 1"):
        parallel.map(fails_from_1, range(3))
