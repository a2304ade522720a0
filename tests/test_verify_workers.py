"""Verify mode on two workers writes the bytes of one worker.

``cli._run_verify`` hands its cases, one at a time, to the calling thread
and one thread of ``einlab.analytic``'s pool.  Rows are written in case
order, so neither the worker count nor the scheduling may show in the CSV;
a slow worker takes fewer cases, a failing one stops both, and the oracle
holds no more than three full states at once.
"""

import os
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import einlab.analytic as analytic
import einlab.cli as cli
from einlab import build_environment_random, crosscheck, crosscheck_buffers

from conftest import random_system


def verify_csv(tmp_path, n, seed, workers, name="v.csv"):
    """Bytes of a verify run with ``workers`` CPUs in the worker count."""
    config = tmp_path / "verify.cfg"
    config.write_text(f"mode = verify\nn = {n}\nseed = {seed}\ng_max = 1.0\n")
    out = tmp_path / name
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analytic, "_WORKERS", workers)
        assert cli.main([str(config), "--output", str(out), "--quiet"]) == 0
    return out.read_bytes()


def verify_config(n):
    return cli.parse_config(f"mode = verify\nn = {n}\nseed = 4\ng_max = 1.0\noutput = unused.csv\n")


def record_threads(monkeypatch, delay_off_main=0.0):
    """Patch cli.crosscheck to count the cases each thread runs; a thread other
    than the calling one sleeps ``delay_off_main`` seconds after each case."""
    counts = Counter()
    inner = cli.crosscheck
    main = threading.get_ident()

    def counted(*args):
        report = inner(*args)
        counts[threading.get_ident()] += 1
        if threading.get_ident() != main:
            time.sleep(delay_off_main)
        return report

    monkeypatch.setattr(cli, "crosscheck", counted)
    return counts, main


@pytest.mark.parametrize("n, seed", [(0, 5), (1, 11), (3, 2), (9, 123456)])
def test_one_and_two_workers_write_the_same_bytes(monkeypatch, tmp_path, n, seed):
    one = verify_csv(tmp_path, n, seed, 1, "one.csv")
    counts, _ = record_threads(monkeypatch)
    # the barrier holds each worker at its first case until the other arrives
    barrier = threading.Barrier(2, timeout=30)
    counted, seen = cli.crosscheck, set()

    def gated(*args):
        if threading.get_ident() not in seen:
            seen.add(threading.get_ident())
            barrier.wait()
        return counted(*args)

    monkeypatch.setattr(cli, "crosscheck", gated)
    assert verify_csv(tmp_path, n, seed, 2, "two.csv") == one
    assert len(counts) == 2 and sum(counts.values()) == cli.VERIFY_CASES


def test_a_slow_worker_takes_fewer_cases_without_delaying_the_job(monkeypatch, tmp_path):
    expected = verify_csv(tmp_path, 8, 21, 1, "one.csv")
    delay = 0.02
    counts, main = record_threads(monkeypatch, delay_off_main=delay)
    assert verify_csv(tmp_path, 8, 21, 2, "two.csv") == expected
    assert sum(counts.values()) == cli.VERIFY_CASES
    # the fast worker does not wait for the slow one: it takes most cases
    assert counts[main] > cli.VERIFY_CASES - counts[main]


class CaseFailed(Exception):
    pass


@pytest.mark.parametrize("failing", ["caller", "pool"])
def test_a_failure_is_raised_after_both_workers_stop(monkeypatch, failing):
    monkeypatch.setattr(analytic, "_WORKERS", 2)
    inner = cli.crosscheck
    main = threading.get_ident()
    barrier = threading.Barrier(2, timeout=30)
    failed = threading.Event()
    lock = threading.Lock()
    seen, log = set(), {"active": 0, "started": 0}

    def fail_on_one_side(*args):
        me = threading.get_ident()
        if me not in seen:
            seen.add(me)
            barrier.wait()
        with lock:
            log["active"] += 1
            log["started"] += 1
        try:
            if (me == main) == (failing == "caller"):
                failed.set()
                raise CaseFailed(failing)
            # still inside its case when the other worker fails
            failed.wait(30)
            time.sleep(0.05)
            return inner(*args)
        finally:
            with lock:
                log["active"] -= 1

    monkeypatch.setattr(cli, "crosscheck", fail_on_one_side)
    with pytest.raises(CaseFailed, match=failing):
        cli._run_verify(verify_config(4))
    # the other worker finished its case and took no further one
    assert log == {"active": 0, "started": 2}


def test_pool_worker_keeps_the_callers_errstate(monkeypatch):
    monkeypatch.setattr(analytic, "_WORKERS", 2)
    inner = cli.crosscheck
    barrier = threading.Barrier(2, timeout=30)
    settings, seen = {}, set()

    def record(*args):
        if threading.get_ident() not in seen:
            seen.add(threading.get_ident())
            barrier.wait()
        settings[threading.get_ident()] = np.geterr()
        return inner(*args)

    monkeypatch.setattr(cli, "crosscheck", record)
    with np.errstate(all="raise"):
        cli._run_verify(verify_config(3))
    assert len(settings) == 2
    assert all(set(s.values()) == {"raise"} for s in settings.values())


@pytest.mark.parametrize("workers", [1, 2])
def test_the_oracle_holds_at_most_three_states(monkeypatch, workers):
    # one state per worker and one shared conjugate scratch: three arrays of
    # 2^(n+1) amplitudes at two workers, two at one, plus block scratch and
    # the rows of the report
    n = 13
    state = 2 ** (n + 1) * 16
    monkeypatch.setattr(analytic, "_WORKERS", workers)
    config = verify_config(n)
    cli._run_verify(config)
    tracemalloc.start()
    try:
        cli._run_verify(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (workers + 2) * state


def test_crosscheck_buffers_hold_one_state_per_worker_and_one_scratch():
    assert crosscheck_buffers(3, 2).shape == (3, 16)
    env = build_environment_random(3, 1, 0.05, 1.0)
    sys_amp = random_system(np.random.default_rng(3))
    buffers = crosscheck_buffers(3, 2)
    fresh = crosscheck(sys_amp, env, 2.5, 1e-10)
    for worker in (0, 1):
        # worker w's state is the first row it is handed, the scratch the last
        assert repr(crosscheck(sys_amp, env, 2.5, 1e-10, buffers[worker:])) == repr(fresh)


ONE_CPU_VERIFY = """
import os, sys, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import einlab.analytic as analytic
from einlab.cli import main
before = threading.active_count()
assert main([sys.argv[1], "--output", sys.argv[2], "--quiet"]) == 0
print(analytic._WORKERS, threading.active_count() - before)
"""


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_cpu_verify_is_serial_with_the_same_bytes(tmp_path):
    # what ``taskset -c 0`` does: one worker, no thread started
    expected = verify_csv(tmp_path, 10, 77, 2, "two.csv")
    out = tmp_path / "taskset.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(analytic.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", ONE_CPU_VERIFY, str(tmp_path / "verify.cfg"), str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1", "0"]
    assert out.read_bytes() == expected
