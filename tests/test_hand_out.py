"""Sweeps and ensembles hand whole seeds to the CPUs and keep their bits.

``scaling_sweep`` and ``ensemble_statistics`` hand their seeds, one at a
time, to the calling thread and the threads of ``einlab.analytic``'s pool
(``analytic._hand_out``).  An ensemble item is one bath; a sweep item is one
seed's bath for every n, evaluated by one kernel call that shares the
``cos(4 g t)`` rows of the largest bath, and its table must equal one kernel
call per ``(n, seed)`` pair.  A report may depend neither on the worker
count nor on the order the seeds were given in; an item that fails stops the
hand-out and reaches the caller as it would on one worker; the pool runs
under the caller's ``np.errstate``; and nothing run on the pool hands out
again.
"""

import random
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import einlab.analytic as analytic
import einlab.ensemble as ensemble
from einlab import InvalidRangeError
from einlab.ensemble import TimeGrid, ensemble_statistics, scaling_sweep

from conftest import assert_golden_digests
from test_abs_sq_block import GOLDEN

WINDOW = TimeGrid(50.0, 60.0, 0.157)
SHORT = TimeGrid(5.0, 6.0, 0.01)


def reports(seeds):
    """repr of a sweep and three ensembles (one with fewer seeds than most
    worker counts below), run with the given ensemble seed order."""
    return repr(
        (
            scaling_sweep((0, 3, 100, 700), 3, WINDOW),
            ensemble_statistics(300, seeds, WINDOW),
            ensemble_statistics(700, [s for s in seeds if s in (1, 2)], SHORT),
            ensemble_statistics(40, (7,), SHORT),
        )
    )


@pytest.mark.parametrize("workers", (1, 2, 3, 5))
def test_reports_do_not_depend_on_the_worker_count_or_seed_order(monkeypatch, workers):
    seeds = [4, 9, 1, 7, 2, 11]
    monkeypatch.setattr(analytic, "_WORKERS", 1)
    expected = reports(sorted(seeds))
    monkeypatch.setattr(analytic, "_WORKERS", workers)
    random.Random(workers).shuffle(seeds)
    # repr prints each float's shortest round trip, so equal text is equal bits
    assert reports(seeds) == expected


@pytest.mark.parametrize("workers", (1, 3, 5))
def test_golden_digests_at_any_worker_count(monkeypatch, tmp_path, workers):
    monkeypatch.setattr(analytic, "_WORKERS", workers)
    assert_golden_digests(tmp_path, GOLDEN)


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize(
    "call",
    [
        lambda: ensemble_statistics(40, (1, 2), SHORT),
        lambda: scaling_sweep((3, 40), 2, SHORT),
    ],
    ids=["ensemble", "sweep"],
)
def test_the_worker_count_is_read_when_the_seeds_are_handed_out(monkeypatch, call, workers):
    # neither caller keeps a worker count of its own: a _WORKERS set after
    # import decides the threads; each of the two seeds is one kernel call
    threads = []
    blocks = analytic._abs_sq_blocks

    def recorded(*args):
        threads.append(threading.current_thread())
        return blocks(*args)

    monkeypatch.setattr(analytic, "_abs_sq_blocks", recorded)
    monkeypatch.setattr(analytic, "_WORKERS", workers)
    call()
    caller = threading.current_thread()
    if workers == 1:
        assert threads == [caller, caller]
    else:
        # the calling thread takes seed 1 and a pool thread seed 2
        assert len(threads) == 2 and threads.count(caller) == 1
        assert [t.name.startswith("einlab-pool") for t in threads if t is not caller] == [True]


def raised(call, workers):
    """(type, message) of the exception ``call()`` raises with ``workers`` CPUs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analytic, "_WORKERS", workers)
        with pytest.raises(Exception) as info:
            call()
    return info.type, str(info.value)


def underflow_sweep():
    with np.errstate(under="raise"):
        scaling_sweep((2000,), 4, WINDOW)


def underflow_ensemble():
    with np.errstate(under="raise"):
        ensemble_statistics(2000, (1, 2, 3), WINDOW)


@pytest.mark.parametrize(
    "call, kind",
    [
        (lambda: scaling_sweep((10, 20), 3, WINDOW, g_min=2.0, g_max=1.0), InvalidRangeError),
        (lambda: ensemble_statistics(10, (1, 2, 3), WINDOW, g_min=-1.0), InvalidRangeError),
        (underflow_sweep, FloatingPointError),
        (underflow_ensemble, FloatingPointError),
    ],
)
def test_an_error_is_the_same_at_one_and_two_workers(call, kind):
    one = raised(call, 1)
    assert one[0] is kind
    assert raised(call, 2) == one
    # the pool takes the next call as before
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analytic, "_WORKERS", 1)
        expected = repr(scaling_sweep((3, 300), 4, WINDOW))
        patch.setattr(analytic, "_WORKERS", 2)
        assert repr(scaling_sweep((3, 300), 4, WINDOW)) == expected


def per_pair_sweep(ns, seeds_per_n, window, g_min):
    """The sweep table with one kernel call per (n, seed) pair."""
    times = window.times()
    return [
        (n, float(np.median(np.sqrt([
            float(np.max(analytic.decoherence_abs_sq(
                ensemble.build_environment_random(n, seed, g_min, 1.0), times
            )))
            for seed in range(1, seeds_per_n + 1)
        ]))))
        for n in ns
    ]


@pytest.mark.parametrize("workers", (1, 2, 3))
@pytest.mark.parametrize("g_min", (None, 0.071015, 0.03))
def test_sweep_equals_one_kernel_call_per_pair(monkeypatch, workers, g_min):
    # WINDOW has 64 points, so k = 512 spins per block: the smaller baths
    # end before, at and after a block edge, and one holds an edge
    monkeypatch.setattr(analytic, "_WORKERS", workers)
    ns = (0, 3, 511, 512, 513, 1100, 2000)
    expected = per_pair_sweep(ns, 5, WINDOW, g_min)
    # repr prints each float's shortest round trip, so equal text is equal bits
    assert repr(scaling_sweep(ns, 5, WINDOW, g_min)) == repr(expected)


@pytest.mark.parametrize("workers", (1, 2, 3))
def test_underflow_sweep_still_raises(monkeypatch, workers):
    # the n = 2000 products underflow while the smaller ones share their cos rows
    monkeypatch.setattr(analytic, "_WORKERS", workers)
    with np.errstate(under="raise"), pytest.raises(FloatingPointError):
        scaling_sweep((100, 1000, 2000), 4, WINDOW)
    assert scaling_sweep((100, 1000, 2000), 4, WINDOW)[-1] == (2000, 0.0)


def test_sweep_checks_the_coupling_prefix(monkeypatch):
    # a builder whose couplings depended on n would make the shared rows wrong
    build = ensemble.build_environment_random
    monkeypatch.setattr(
        ensemble, "build_environment_random", lambda n, seed, *args: build(n, seed + n, *args)
    )
    with pytest.raises(RuntimeError, match="not a prefix"):
        scaling_sweep((3, 5), 2, WINDOW)


class ItemFailed(Exception):
    pass


@pytest.mark.parametrize("failing", ["caller", "pool"])
def test_handing_out_stops_after_a_failure(monkeypatch, failing):
    # each worker holds its first seed until the other has one; then one
    # worker fails while the other is still inside its seed
    monkeypatch.setattr(analytic, "_WORKERS", 2)
    build = ensemble.build_environment_random
    main = threading.get_ident()
    barrier = threading.Barrier(2, timeout=30)
    failed = threading.Event()
    started = []

    def fail_on_one_side(n, seed, *args):
        started.append((n, seed))
        if n == 5:  # the first bath of a seed
            barrier.wait()
            if (threading.get_ident() == main) == (failing == "caller"):
                failed.set()
                raise ItemFailed(failing)
            failed.wait(30)
            time.sleep(0.05)
        return build(n, seed, *args)

    monkeypatch.setattr(ensemble, "build_environment_random", fail_on_one_side)
    with pytest.raises(ItemFailed, match=failing):
        scaling_sweep((5, 6), 5, WINDOW)
    # the caller took seed 1 and the pool seed 2; the other worker built
    # both baths of its seed and took no further seed
    lost, kept = (1, 2) if failing == "caller" else (2, 1)
    assert sorted(started) == sorted([(5, lost), (5, kept), (6, kept)])
    monkeypatch.setattr(ensemble, "build_environment_random", build)
    expected = repr(scaling_sweep((5, 6), 5, WINDOW))
    monkeypatch.setattr(analytic, "_WORKERS", 1)
    assert repr(scaling_sweep((5, 6), 5, WINDOW)) == expected


@pytest.mark.parametrize("workers", (1, 2, 3, 4))
@pytest.mark.parametrize("count", (0, 1, 2, 3, 7))
def test_results_come_in_index_order(monkeypatch, count, workers):
    monkeypatch.setattr(analytic, "_WORKERS", workers)
    threads = []

    def item(i):
        threads.append(threading.current_thread())
        return i * i

    assert analytic._hand_out(item, count) == [i * i for i in range(count)]
    if min(workers, count) < 2:
        # run in turn on the calling thread
        assert threads == [threading.current_thread()] * count
    else:
        assert all(t is threading.current_thread() or t.name.startswith("einlab-pool") for t in threads)


def taken_by_thread(count, item=lambda i: None):
    """Run a hand-out of ``count`` items; per thread name, the items it ran,
    in the order it ran them."""
    taken = {}
    lock = threading.Lock()

    def record(i):
        with lock:
            taken.setdefault(threading.current_thread().name, []).append(i)
        item(i)
        return i

    assert analytic._hand_out(record, count) == list(range(count))
    return taken


@pytest.mark.parametrize("workers, count", [(2, 2), (2, 7), (3, 2), (3, 3), (3, 10), (4, 9)])
def test_worker_w_starts_with_item_w(monkeypatch, workers, count):
    # a pool of workers - 1 threads, and every worker holds its first item
    # until all have one, so each worker runs on a thread of its own
    used = min(workers, count)
    pool = ThreadPoolExecutor(max_workers=workers - 1, thread_name_prefix="einlab-pool")
    monkeypatch.setattr(analytic, "_pool", pool)
    monkeypatch.setattr(analytic, "_WORKERS", workers)
    barrier = threading.Barrier(used, timeout=30)
    try:
        taken = taken_by_thread(count, lambda i: i < used and barrier.wait())
    finally:
        pool.shutdown()
    # the calling thread starts with item 0, and one pool thread per other
    # worker with that worker's item; then each takes the next item left
    caller = threading.current_thread().name
    assert len(taken) == used and taken[caller][0] == 0
    assert sorted(items[0] for items in taken.values()) == list(range(used))
    assert all(name == caller or name.startswith("einlab-pool") for name in taken)
    for items in taken.values():
        assert items[1:] == sorted(items[1:]) and all(i >= used for i in items[1:])


def test_pool_workers_keep_the_callers_errstate(monkeypatch):
    # each worker holds its first item until the other has one, so both run
    monkeypatch.setattr(analytic, "_WORKERS", 2)
    barrier = threading.Barrier(2, timeout=30)

    def item(i):
        if i < 2:
            barrier.wait()
        return threading.current_thread(), np.geterr()

    with np.errstate(all="raise"):
        results = analytic._hand_out(item, 4)
    assert len({thread for thread, _ in results}) == 2
    assert all(set(settings.values()) == {"raise"} for _, settings in results)


def test_a_busy_worker_takes_fewer_items(monkeypatch):
    # the pool worker stays inside its first item until the caller has run
    # every other item, as if its CPU were busy
    monkeypatch.setattr(analytic, "_WORKERS", 2)
    count = 6
    caller = threading.current_thread()
    caller_done = threading.Event()

    def item(i):
        if threading.current_thread() is not caller:
            assert caller_done.wait(30)
        elif i == count - 1:
            caller_done.set()

    taken = taken_by_thread(count, item)
    pool_thread = (taken.keys() - {caller.name}).pop()
    assert taken[caller.name] == [0, *range(2, count)]
    assert taken[pool_thread] == [1]


def test_nothing_on_the_pool_hands_out_or_splits_again(monkeypatch):
    # a hand-out inside a hand-out runs inline instead of waiting on the pool
    # threads it occupies; a kernel call there runs once, on the item's thread
    monkeypatch.setattr(analytic, "_WORKERS", 2)
    env = ensemble.build_environment_random(700, 3)
    times = SHORT.times()
    blocks = analytic._abs_sq_blocks
    serial = blocks(times, *analytic._abs_sq_factors(env))
    outcome = {}
    kernel_threads = []

    def recorded(*args):
        kernel_threads.append(threading.get_ident())
        return blocks(*args)

    def outer(i):
        inner = analytic._hand_out(lambda j: threading.get_ident(), 3)
        values = analytic.decoherence_abs_sq(env, times)
        return inner, analytic._IN_HAND_OUT.get(), values, threading.get_ident()

    def run():
        outcome["results"] = analytic._hand_out(outer, 4)

    monkeypatch.setattr(analytic, "_abs_sq_blocks", recorded)
    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(30)
    assert not runner.is_alive()
    for inner, marked, values, thread in outcome["results"]:
        assert marked and inner == [thread] * 3
        assert values.tobytes() == serial.tobytes()
    assert Counter(kernel_threads) == Counter(r[3] for r in outcome["results"])
    assert analytic._IN_HAND_OUT.get() is False


def test_every_item_is_taken_once_under_fast_thread_switches(monkeypatch):
    # more workers than the pool has threads, and a thread switch every 1 us
    monkeypatch.setattr(analytic, "_WORKERS", 5)
    count, taken = 3000, Counter()
    lock = threading.Lock()

    def item(i):
        with lock:
            taken[i] += 1
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = analytic._hand_out(item, count)
    finally:
        sys.setswitchinterval(interval)
    assert result == list(range(count))
    assert taken == Counter(range(count))
