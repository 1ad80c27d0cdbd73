"""parallel.thread_map: item order, one shared queue of items with no
barrier between threads, and errors raised in the caller."""

import threading

import pytest

from sqatk.parallel import thread_map


def test_results_come_in_item_order_and_the_caller_takes_a_share():
    """Items of uneven cost come back in item order, each computed once,
    and the calling thread computes some of them itself."""
    caller, ran = threading.get_ident(), []
    done = threading.Event()

    def fn(i):
        ran.append((i, threading.get_ident()))
        if i == 0:  # held until another thread has run every other item
            assert done.wait(10)
        if len(ran) == 12:
            done.set()
        return i * i

    assert list(thread_map(2, fn, range(12))) == [i * i for i in range(12)]
    assert sorted(i for i, _ in ran) == list(range(12))
    assert len({t for _, t in ran}) == 2 and caller in {t for _, t in ran}


def test_no_thread_waits_for_a_slow_item_while_others_remain():
    """While one thread is held on a slow item, the others run every
    remaining item: a map in rounds of `jobs` items would wait for the
    slow one at the end of its round."""
    release = threading.Event()

    def fn(i):
        if i == 1:
            assert release.wait(10), "the other items waited for item 1"
        if i == 9:
            release.set()
        return i

    assert list(thread_map(3, fn, range(10))) == list(range(10))


def test_an_error_in_a_job_is_raised_in_the_caller_and_the_pool_still_works():
    def fn(i):
        if i == 3:
            raise ValueError("item 3")
        return i

    with pytest.raises(ValueError, match="item 3"):
        list(thread_map(2, fn, range(8)))
    assert list(thread_map(2, lambda i: -i, range(5))) == [0, -1, -2, -3, -4]


def test_one_job_or_one_item_runs_on_the_calling_thread():
    caller = threading.get_ident()
    assert list(thread_map(1, lambda i: threading.get_ident(), range(3))) == [caller] * 3
    assert list(thread_map(4, lambda i: threading.get_ident(), [0])) == [caller]
