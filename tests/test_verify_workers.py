"""Verify mode runs its cases in order on the calling thread.

``cli._run_verify`` runs one crosscheck after another, whatever the CPU
count, so the CSV bytes never depend on it, no pool thread is started, a
failing case stops the job where it fails, and the oracle holds one full
state at a time.  What a hand-out to several workers must keep (a slow
worker takes fewer items, a failure stops every worker, the pool keeps the
caller's ``np.errstate``) is tested on sweep and ensemble hand-outs in
``test_hand_out.py``.
"""

import os
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import einlab.analytic as analytic
import einlab.cli as cli


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


def record_threads(monkeypatch):
    """Patch cli.crosscheck to count the cases each thread runs."""
    counts = Counter()
    inner = cli.crosscheck

    def counted(*args):
        report = inner(*args)
        counts[threading.get_ident()] += 1
        return report

    monkeypatch.setattr(cli, "crosscheck", counted)
    return counts


@pytest.mark.parametrize("n, seed", [(0, 5), (1, 11), (3, 2), (9, 123456)])
def test_one_and_two_workers_write_the_same_bytes(monkeypatch, tmp_path, n, seed):
    one = verify_csv(tmp_path, n, seed, 1, "one.csv")
    counts = record_threads(monkeypatch)
    assert verify_csv(tmp_path, n, seed, 2, "two.csv") == one
    # every case ran on the calling thread
    assert counts == {threading.get_ident(): cli.VERIFY_CASES}


class CaseFailed(Exception):
    pass


def test_a_failing_case_stops_the_job(monkeypatch):
    monkeypatch.setattr(analytic, "_WORKERS", 2)
    lines, _, _ = cli._run_verify(verify_config(4))
    # %.17g round-trips, so these are the first four cases' times to the bit
    first_times = [float(row.split(",")[2]) for row in lines[1:5]]
    inner = cli.crosscheck
    started = []

    def fail_at_case_3(*args):
        started.append(args[2])
        if len(started) == 4:
            raise CaseFailed
        return inner(*args)

    monkeypatch.setattr(cli, "crosscheck", fail_at_case_3)
    with pytest.raises(CaseFailed):
        cli._run_verify(verify_config(4))
    # cases 0-3 were started in order, and none after the failing one
    assert started == first_times


@pytest.mark.parametrize("workers", [1, 2])
def test_the_oracle_holds_at_most_three_states(monkeypatch, workers):
    # one array of 2^(n+1) amplitudes at any worker count, plus evolve_full's
    # block scratch (an eighth of it) and the rows of the report
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
    assert peak < 1.5 * state


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


STARTS_NO_THREAD = """
import sys, threading
import einlab.analytic as analytic
from einlab.cli import main
analytic._WORKERS = 2
before = threading.active_count()
assert main([sys.argv[1], "--output", sys.argv[2], "--quiet"]) == 0
print(threading.active_count() - before)
"""


def test_verify_starts_no_thread_at_two_cpus(tmp_path):
    expected = verify_csv(tmp_path, 6, 31, 1, "one.csv")
    out = tmp_path / "two.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(analytic.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", STARTS_NO_THREAD, str(tmp_path / "verify.cfg"), str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0"]
    assert out.read_bytes() == expected
