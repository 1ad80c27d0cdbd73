"""parallel.thread_map: item order, one shared queue of items with no
barrier between threads, a bounded window of held results, and errors
raised in the caller."""

import sys
import threading
import time
from concurrent.futures import Future

import pytest

from sqatk import parallel
from sqatk.parallel import thread_map


def test_results_come_in_item_order_and_the_caller_takes_a_share():
    """Items of uneven cost come back in item order, each computed once,
    and the calling thread computes some of them itself."""
    caller, ran = threading.get_ident(), []
    done = threading.Event()

    def fn(i):
        ran.append((i, threading.get_ident()))
        if i == 0:  # held until another thread has run the window's other item
            assert done.wait(10)
        if len(ran) == 2:
            done.set()
        return i * i

    assert list(thread_map(2, fn, range(12))) == [i * i for i in range(12)]
    assert sorted(i for i, _ in ran) == list(range(12))
    assert len({t for _, t in ran}) == 2 and caller in {t for _, t in ran}


def test_no_thread_waits_for_a_slow_item_while_the_window_has_room():
    """While a pool thread is held on item 1, the others run the items
    after it that fit in the window, up to item jobs once item 0 is
    yielded: a map in rounds of `jobs` items would wait for item 1 at the
    end of its round."""
    jobs, caller, held = 3, threading.get_ident(), []
    release = threading.Event()

    def fn(i):
        if threading.get_ident() == caller:
            time.sleep(0.001)  # lets the pool threads take items too
        elif i == 1:
            held.append(i)
            assert release.wait(10), "the other items waited for item 1"
        if i == jobs:
            release.set()
        return i

    for _ in range(5):  # until item 1 runs on a pool thread
        release.clear()
        assert list(thread_map(jobs, fn, range(12))) == list(range(12))
        if held:
            break
    assert held, "item 1 never ran on a pool thread"


def test_no_more_than_the_window_is_taken_ahead_of_the_next_result():
    """Results are held until yielded, so while item 1 is held no thread
    takes an item past the window: items 0 to jobs at most have run,
    and the rest wait until item 1 is yielded."""
    jobs, started = 2, []

    def fn(i):
        started.append(i)
        if i == 1:
            time.sleep(0.2)  # time for a thread to take an item it should not
            assert max(started) <= jobs, started
        return i

    assert list(thread_map(jobs, fn, range(12))) == list(range(12))
    assert sorted(started) == list(range(12))


def test_the_window_holds_under_rapid_thread_switches():
    """More workers than cores and a 1 us switch interval: every item
    runs once, the results come in item order, and no item starts more
    than jobs + 1 past the results the caller has received (the window,
    plus the result being handed over)."""
    jobs, n, lock = 4, 2000, threading.Lock()
    started = received = 0

    def fn(i):
        nonlocal started
        with lock:
            started += 1
            ahead = started - received
        assert ahead <= jobs + 1, f"item {i} started {ahead} past the received results"
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = []
        for result in thread_map(jobs, fn, range(n)):
            results.append(result)
            with lock:
                received += 1
    finally:
        sys.setswitchinterval(interval)
    assert results == list(range(n)) and started == n


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


@pytest.mark.parametrize("jobs, n_items, helpers", [(64, 3, 2), (3, 10, 2), (2, 2, 1)])
def test_no_more_helpers_than_items_are_submitted(monkeypatch, jobs, n_items, helpers):
    """thread_map submits min(jobs, len(items)) - 1 helpers to the pool:
    64 jobs over 3 items submitted 63, each of which could start a
    thread that lives as long as the process. The fake pool runs no
    helper and starts no thread, so the caller computes every item."""
    submitted = []

    class RecordingPool:
        def submit(self, fn):
            submitted.append(fn)
            return Future()  # pending, so the caller's cancel succeeds

    monkeypatch.setattr(parallel, "_pool", lambda threads: RecordingPool())
    assert list(thread_map(jobs, lambda i: i * i, range(n_items))) == [i * i for i in range(n_items)]
    assert len(submitted) == helpers
