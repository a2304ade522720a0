"""The spin-blocked |z|^2 kernel against the spin-by-spin product it replaced.

``decoherence_abs_sq`` folds spins into its running product a block at a
time with one ``np.multiply.reduce``.  Sweep and ensemble CSVs must not
change by a byte, so the reference here is the per-spin loop the kernel ran
before, and every comparison is bit for bit.
"""

import os
import signal
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import einlab.analytic as analytic
from einlab import (
    ScenarioKind,
    build_environment_random,
    build_environment_scenario,
    decoherence_abs_sq,
)
from einlab.ensemble import TimeGrid, scaling_sweep

from conftest import assert_golden_digests, assert_same_bits

BLOCK = analytic._ABS_SQ_BLOCK


def per_spin_abs_sq(env, times):
    times = np.asarray(times, dtype=float)
    out = np.ones(times.shape)
    for g, d in zip(env.couplings(), env.imbalances()):
        mean = 0.5 * (1.0 + d * d)
        swing = 0.5 * (1.0 - d * d)
        out = out * (mean + swing * np.cos((4.0 * g) * times))
    return out


def bath(kind, n, seed):
    if kind == "random":
        return build_environment_random(n, seed, None, 1.0)
    scenario = ScenarioKind.EIGENSTATE if kind == "eigenstate" else ScenarioKind.BALANCED_EQUAL_COUPLING
    return build_environment_scenario(scenario, n, 0.05 + (seed % 97) / 50.0)


kinds = st.sampled_from(("random", "eigenstate", "balanced"))
# grid lengths around the block rule's steps: k = BLOCK // m spins per block
lengths = st.one_of(
    st.integers(1, 400),
    st.sampled_from((BLOCK // 3, BLOCK // 2 - 1, BLOCK // 2 + 1, BLOCK - 1, BLOCK, BLOCK + 1)),
)


@given(kinds, lengths, st.data(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
@example("random", 319, None, 7)
@example("random", BLOCK + 1, None, 3)
@example("balanced", 1, None, 5)
def test_blocked_matches_per_spin_loop(kind, m, data, seed):
    k = max(1, BLOCK // m)
    edges = [q * k + r for q in (1, 2, 3) for r in (-1, 0, 1) if 0 <= q * k + r <= 300]
    if data is None:
        n = edges[-1] if edges else 300
    else:
        # n on either side of a block boundary, or anywhere in 0..300
        n = data.draw(st.one_of(st.integers(0, 300), st.sampled_from(edges or [300])))
    # at most 2M spin-points per example keeps the test quick; long grids
    # have k <= 2, so their block boundaries stay in range
    n = min(n, 2_000_000 // m)
    env = bath(kind, n, seed)
    times = 0.37 * (seed % 11) + np.arange(m) * 0.157
    assert_same_bits(decoherence_abs_sq(env, times), per_spin_abs_sq(env, times))


@given(kinds, st.integers(0, 300), st.floats(-1e3, 1e3), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_zero_d_and_two_d_times(kind, n, t, seed):
    env = bath(kind, n, seed)
    scalar = decoherence_abs_sq(env, t)
    assert scalar.shape == ()
    assert_same_bits(scalar, per_spin_abs_sq(env, t))
    grid = t + 0.01 * np.arange(12).reshape(3, 4)
    assert_same_bits(decoherence_abs_sq(env, grid), per_spin_abs_sq(env, grid))


def test_empty_grid_and_empty_bath():
    env = build_environment_random(40, 1, None, 1.0)
    assert_same_bits(decoherence_abs_sq(env, np.empty(0)), np.ones(0))
    empty = build_environment_random(0, 1, None, 1.0)
    assert_same_bits(decoherence_abs_sq(empty, np.arange(5.0)), np.ones(5))


@given(
    st.integers(0, 200),
    st.integers(1, 3000),
    st.lists(st.integers(0, 3000), max_size=6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_whole_grid_equals_any_split(n, m, cuts, seed):
    # each piece gets its own block size, yet every point keeps its bits
    env = build_environment_random(n, seed, None, 1.0)
    times = 40.0 + np.arange(m) * 0.0731
    bounds = sorted({0, m, *(c for c in cuts if c < m)})
    pieces = [decoherence_abs_sq(env, times[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert_same_bits(np.concatenate(pieces), decoherence_abs_sq(env, times))


def shared_and_alone(sizes, m, seed):
    """The products of one ``_abs_sq_blocks`` call over tables of the given
    ascending sizes, sharing the couplings of the largest, and those of one
    call per table."""
    g4 = 4.0 * build_environment_random(sizes[-1], seed, None, 1.0).couplings()
    # each table's own imbalances, from another seed
    tables = [
        analytic._abs_sq_factors(build_environment_random(n, seed + 1 + i, None, 1.0))[1:]
        for i, n in enumerate(sizes)
    ]
    times = 50.0 + np.arange(m) * 0.157
    shared = analytic._abs_sq_blocks(times, g4, *tables[-1], tables[:-1])
    alone = [analytic._abs_sq_blocks(times, g4[: mean.size], mean, swing) for mean, swing in tables]
    return shared, np.concatenate(alone)


@pytest.mark.parametrize(
    "sizes, m",
    [
        # k = 102 spins per block at 319 points: shorter tables end before,
        # at and after block edges, and a block edge falls inside each
        ((0, 101, 102, 103, 205, 300), 319),
        ((100, 300, 1000, 2000), 319),
        ((7, 7, 7), 319),  # equal lengths
        ((0, 0, 40), 64),
        ((0,), 64),
        ((0, 0), 3),
        ((3, 9), 0),  # an empty grid
        # one point: k = BLOCK, so the edge lies inside the second table
        ((1, BLOCK - 1, BLOCK + 5), 1),
        ((0, 5, 5, 12), 1),
    ],
)
def test_shared_cos_rows_equal_one_call_per_table(sizes, m):
    shared, alone = shared_and_alone(sizes, m, 11)
    assert shared.shape == (len(sizes), m)
    assert_same_bits(shared, alone)


@given(lengths, st.data(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_shared_cos_rows_at_any_block_size(m, data, seed):
    # table lengths anywhere in 0..300 or next to the block edges q * k
    k = max(1, BLOCK // m)
    edges = [q * k + r for q in (1, 2, 3) for r in (-1, 0, 1) if 0 <= q * k + r <= 300]
    size = st.one_of(st.integers(0, 300), st.sampled_from(edges or [300]))
    # at most 2M spin-points per table keeps the test quick
    sizes = sorted(min(n, 2_000_000 // m) for n in data.draw(st.lists(size, min_size=1, max_size=5)))
    shared, alone = shared_and_alone(sizes, m, seed)
    assert_same_bits(shared, alone)


def one_call_abs_sq(env, times, workers):
    """decoherence_abs_sq at ``workers`` CPUs, checked to run as one call.

    Whatever the worker count, the kernel must make one ``_abs_sq_blocks``
    call over the whole grid, on the calling thread, and hand out nothing."""
    calls = []
    blocks = analytic._abs_sq_blocks

    def recorded(flat, *args):
        calls.append((flat.size, threading.current_thread()))
        return blocks(flat, *args)

    def no_hand_out(*args):
        raise AssertionError("decoherence_abs_sq handed out work")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analytic, "_WORKERS", workers)
        patch.setattr(analytic, "_abs_sq_blocks", recorded)
        patch.setattr(analytic, "_hand_out", no_hand_out)
        result = decoherence_abs_sq(env, times)
    assert calls == [(np.size(times), threading.current_thread())]
    return result


@pytest.mark.parametrize("workers", (1, 2, 3))
@pytest.mark.parametrize(
    "n, m",
    [
        (n, m)
        for m in (0, 1, 2, 3, 319, 12_733, 2**18 + 1)
        for n in (0, 1, 7, 100, 2000)
        # at most about 2M spin-points per case keeps the test quick
        if n * m <= 2_000_000
    ],
)
def test_kernel_equals_per_spin_loop_at_table_sizes(n, m, workers):
    # sizes on both sides of the block edges, at worker counts where the
    # kernel used to cut its grid into one slice per CPU
    env = build_environment_random(n, 7, None, 1.0)
    times = 3.0 + np.arange(m) * 0.0173
    assert_same_bits(one_call_abs_sq(env, times, workers), per_spin_abs_sq(env, times))


@pytest.mark.parametrize("workers", (2, 3))
def test_two_d_times_run_as_one_call(workers):
    env = build_environment_random(2000, 3, None, 1.0)
    times = 50.0 + np.arange(319).reshape(11, 29) * 0.157
    result = one_call_abs_sq(env, times, workers)
    assert result.shape == (11, 29)
    assert_same_bits(result, per_spin_abs_sq(env, times))


@given(st.integers(1, 6), st.integers(100, 400), st.integers(300, 3000), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_kernel_equals_per_spin_loop_at_any_worker_count(workers, n, m, seed):
    env = build_environment_random(n, seed, None, 1.0)
    times = 40.0 + np.arange(m) * 0.0731
    assert_same_bits(one_call_abs_sq(env, times, workers), per_spin_abs_sq(env, times))


def test_a_long_grid_runs_once_on_the_calling_thread():
    # at three CPUs this grid has far more than BLOCK spin-points per CPU,
    # yet the kernel neither cuts it nor hands out work
    env = build_environment_random(7, 7, None, 1.0)
    one_call_abs_sq(env, 3.0 + np.arange(2**18 + 1) * 0.0173, 3)


@pytest.mark.parametrize("inf_at", (0, 3999))
def test_pool_items_keep_the_callers_errstate(inf_at):
    # numpy keeps np.errstate in a context variable, which pool threads do
    # not inherit by themselves; item 0 runs on the caller, item 1 on the pool
    env = build_environment_random(50, 6, None, 1.0)
    times = np.linspace(0.0, 100.0, 4000)
    times[inf_at] = np.inf
    halves = times.reshape(2, -1)
    threads = {}

    def item(worker, i):
        threads[i] = threading.current_thread()
        return decoherence_abs_sq(env, halves[i])

    with np.errstate(invalid="raise"), pytest.raises(FloatingPointError):
        analytic._hand_out(item, 2, 2)
    with warnings.catch_warnings(record=True) as caught, np.errstate(invalid="ignore"):
        warnings.simplefilter("always")
        result = np.concatenate(analytic._hand_out(item, 2, 2))
    assert caught == []
    assert threads[0] is threading.current_thread()
    assert threads[1].name.startswith("einlab-pool")
    assert np.isnan(result[inf_at]) and np.isfinite(np.delete(result, inf_at)).all()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_the_parents_bits(monkeypatch, tmp_path):
    # at two workers a two-seed sweep hands its second seed to the pool
    monkeypatch.setattr(analytic, "_WORKERS", 2)
    window = TimeGrid(50.0, 100.0, 0.157)
    expected = repr(scaling_sweep((700,), 2, window))
    # the child inherits a pool whose thread runs only in the parent
    assert any(t.name.startswith("einlab-pool") for t in threading.enumerate())
    result = tmp_path / "child.bin"
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            result.write_text(repr(scaling_sweep((700,), 2, window)))
            status = 0
        finally:
            os._exit(status)
    # a child that submits to the parent's threads waits forever: bound the wait
    deadline = time.monotonic() + 30.0
    while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if done[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("forked child did not finish within 30 s")
    assert os.waitstatus_to_exitcode(done[1]) == 0
    # repr prints each float's shortest round trip, so equal text is equal bits
    assert result.read_text() == expected


ONE_CPU_SWEEP = """
import os, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import einlab.analytic as analytic
from einlab.ensemble import TimeGrid, scaling_sweep
before = threading.active_count()
scaling_sweep((300, 2000), 2, TimeGrid(50.0, 100.0, 0.157))
print(analytic._WORKERS, threading.active_count() - before)
"""

IMPORT_ONLY = """
import threading
before = threading.active_count()
import einlab
print(threading.active_count() - before)
"""


def run_python(script):
    env = dict(os.environ, PYTHONPATH=str(Path(analytic.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_cpu_starts_no_thread():
    # what ``taskset -c 0`` does: the worker count comes from the affinity mask
    assert run_python(ONE_CPU_SWEEP) == ["1", "0"]


def test_import_starts_no_thread():
    # the pool is built at import; its thread starts with the first hand-out
    assert run_python(IMPORT_ONLY) == ["0"]


@given(st.integers(0, 2000), st.integers(0, 2**64 - 1))
@settings(max_examples=25, deadline=None)
@example(2000, 1)
def test_imbalances_equal_per_spin_property(n, seed):
    env = build_environment_random(n, seed, None, 1.0)
    # per spin on Python complex values: abs and float ** 2 (libm pow)
    per_spin = [abs(alpha) ** 2 - abs(beta) ** 2 for alpha, beta in env.amplitudes().tolist()]
    assert_same_bits(env.imbalances(), np.array(per_spin, dtype=float))
    assert env.couplings().shape == env.imbalances().shape == (n,)


# SHA-256 of sweep and ensemble CSVs written before the kernel was blocked.
# The first sweep's n = 2000 row prints 0: |z|^2 underflows there, a known
# defect that this change leaves as it was.  The one-point sweep changes if
# the imbalances are squared as x * x instead of Python's x ** 2.
GOLDEN = {
    "mode = sweep\nn = 1000, 2000\nseeds = 5\ng_max = 1.0\nt_start = 50\nt_max = 100\n":
        "f32d5dd2ef2d58130acf92a3241a40cde2ffebcbc3a29425bab12931d3f30e5a",
    "mode = sweep\nn = 0, 1, 2, 8, 50\nseeds = 7\ng_max = 1.0\nt_start = 20\nt_max = 40\n":
        "d4874ade6f23ea70ca1f386b35ae3ec2c16a8334c601cbb7dfba1e37eab7d793",
    "mode = sweep\nn = 5, 400\nseeds = 3\ng_max = 1.0\nt_start = 7\nt_max = 7.1\ndt = 0.2\n":
        "119f242b507124d39c6245bf1990f304498c3fab83e724748e1ad6b6f1336b16",
    "mode = ensemble\nn = 6\nseeds = 5\ng_max = 1.0\nt_max = 300\n":
        "e91e0c024369f3db79060db91146c208c26894d78cbe6d9345ca5b37563b8f5d",
    "mode = ensemble\nn = 300\nseeds = 4, 9\ng_max = 0.7\nt_max = 50\ndt = 0.05\n":
        "ed23910b286029e4497487fa6a4127ef50db5b3c7df202a3350d3b18ccbd168d",
    "mode = ensemble\nn = 12\nseeds = 2\ng_max = 1.0\nt_max = 2000\ndt = 0.05\n":
        "feb6fa58a859d30e0c5fbc7fc27e090e54fcd3c1fc5afabc2793b43b7b9dedd9",
}


def test_golden_sweep_and_ensemble_digests(tmp_path):
    first = assert_golden_digests(tmp_path, GOLDEN)[0]
    assert first.read_text().splitlines()[-1] == "2000,0"
