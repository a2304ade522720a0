"""Pruned recurrence scans against the plain |z|^2 kernel.

The tail rule ``ensemble._tail_above`` (on any array of times, with the
bounds of ``ensemble._above_plan``) and the grid path of
``recurrence_search`` (phase windows in grid-index space, then the tail
rule) may drop a grid point only when its |z|^2 is below the floor, and must
give every point they keep the exact bits of ``decoherence_abs_sq``.
``recurrence_search`` must report what a plain scan of
``decoherence_abs_sq`` over the whole grid reports, in bounded memory, and
the recurrence CSV must not change by a byte.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import einlab.ensemble as ensemble
from einlab import (
    EnvironmentSpec,
    ScenarioKind,
    SystemAmplitudes,
    TimeGrid,
    build_environment_random,
    build_environment_scenario,
    decoherence_abs_sq,
    recurrence_search,
    validate,
)
from einlab.ensemble import _WINDOW_PHASE_MAX, _above_plan, _tail_above
from einlab.model import NORM_TOL

from conftest import assert_golden_digests

KINDS = {
    "balanced": ScenarioKind.BALANCED_EQUAL_COUPLING,
    "eigenstate": ScenarioKind.EIGENSTATE,
}


def make_env(kind, n, seed, g):
    if kind == "random":
        return build_environment_random(n, seed, 0.05, g)
    if kind == "mixed":
        # spin 0 random, the rest eigenstates whose factors are exactly 1:
        # |z|^2 is spin 0's factor, so a floor taken from the kernel sits on
        # the edge of spin 0's phase window
        spins = build_environment_random(n, seed, 0.05, g)
        alpha, beta = spins.amplitudes().T.copy()
        alpha[1:], beta[1:] = 1.0, 0.0
        return EnvironmentSpec(spins.couplings(), alpha, beta)
    if kind == "overnormed":
        # "mixed" with alpha and beta swapped at random and every norm drawn
        # from [1, 1 + NORM_TOL), which validate accepts: the eigenstate spins
        # then have d^2 > 1, so their factors exceed 1 and |z|^2 can exceed
        # spin 0's factor
        mixed = make_env("mixed", n, seed, g)
        alpha, beta = mixed.amplitudes().T.copy()
        rng = np.random.default_rng(seed)
        flip = rng.random(n) < 0.5
        alpha[flip], beta[flip] = beta[flip], alpha[flip]
        scale = np.sqrt(1.0 + 0.99 * NORM_TOL * rng.random(n))
        env = EnvironmentSpec(mixed.couplings(), alpha * scale, beta * scale)
        assert validate(SystemAmplitudes(1.0, 0.0), env).ok
        return env
    return build_environment_scenario(KINDS[kind], n, g)


# Two spins that pass validate, the second 5e-10 over its norm: the plain
# kernel first reaches |z|^2 >= 1 at t = 431.969, where spin 0's factor is
# about 1 and spin 1's is d^2 > 1.
OVERNORMED = EnvironmentSpec([1.0, 0.37], [0.5**0.5, (1.0 + 5e-10) ** 0.5], [0.5**0.5, 0.0])

# Spins far off normal (validate rejects them; the kernel takes them): at
# t = 1 every phase 4 g t is pi, so each factor is d^2.  22 factors 2^-48
# and one 2^-16 take |z|^2 to the subnormal 4 * 2^-1074, where each product
# rounds to a whole multiple of 2^-1074; 850 factors 2.25 bring it back to
# 4.4e-24, above the tail bound taken where it was subnormal.
CLIMB = EnvironmentSpec(
    [np.pi / 4] * 873, [2.0**-12] * 22 + [2.0**-4] + [1.25] * 850, [0.0] * 23 + [0.25] * 850
)


def plain_scan(env, threshold, grid):
    """(found, scanned_points) of an unpruned, unchunked scan of (t_start, t_end]."""
    times = grid.times()[1:]
    hits = np.nonzero(decoherence_abs_sq(env, times) >= threshold * threshold)[0]
    if hits.size:
        return float(times[hits[0]]), int(hits[0]) + 1
    return None, int(times.size)


baths = st.tuples(
    st.sampled_from(["random", "balanced", "eigenstate", "mixed", "overnormed"]),
    st.integers(min_value=0, max_value=24),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.05, max_value=2.0),
)


def arrange(t_start, dt, size, layout, where):
    """Grid times t_start + k dt, laid out as ``layout`` says: ascending, or
    with one point moved (so not ascending) or made NaN or +-inf at ``where``."""
    times = t_start + dt * np.arange(size)
    if layout == "unsorted" and size > 1:
        times = np.roll(times, 1 + where % (size - 1))
    elif layout in ("nan", "inf", "-inf"):
        times[where % size] = float(layout)
    return times


@settings(max_examples=200, deadline=None)
@given(
    bath=baths,
    t_start=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=50.0)),
    dt=st.floats(min_value=1e-3, max_value=0.5),
    size=st.integers(min_value=1, max_value=400),
    layout=st.sampled_from(["ascending", "ascending", "unsorted", "nan", "inf", "-inf"]),
    where=st.integers(min_value=0, max_value=399),
    floor=st.one_of(
        st.just(1.0),
        st.just("largest"),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        st.integers(min_value=0, max_value=399),
    ),
)
@example(bath=("eigenstate", 24, 0, 1.0), t_start=0.0, dt=0.1, size=50, layout="ascending", where=0, floor=1.0)
@example(bath=("balanced", 24, 0, 0.5), t_start=0.0, dt=0.1, size=100, layout="ascending", where=0, floor=1.0)
@example(bath=("random", 0, 0, 1.0), t_start=3.0, dt=0.1, size=10, layout="ascending", where=0, floor=1.0)
@example(bath=("mixed", 5, 3, 1.0), t_start=0.0, dt=0.01, size=400, layout="ascending", where=0, floor="largest")
@example(bath=OVERNORMED, t_start=0.0, dt=0.001, size=2000001, layout="ascending", where=0, floor=1.0)
@example(bath=CLIMB, t_start=1.0, dt=0.1, size=1, layout="ascending", where=0, floor=0)
def test_kernel_keeps_reachable_points_bit_for_bit(bath, t_start, dt, size, layout, where, floor):
    # the tail-rule contract of _tail_above, which takes any array of times:
    # out of order, NaN and +-inf included
    env = bath if isinstance(bath, EnvironmentSpec) else make_env(*bath)
    times = arrange(t_start, dt, size, layout, where)
    with np.errstate(invalid="ignore"):  # cos(+-inf)
        reference = decoherence_abs_sq(env, times)
    # a floor taken from the plain kernel tests the boundary, and its largest
    # value prunes hardest
    finite = reference[np.isfinite(reference)]
    if floor == "largest":
        floor_sq = float(np.max(finite, initial=1.0))
    elif isinstance(floor, int):
        floor_sq = float(finite[floor % finite.size]) if finite.size else 1.0
    else:
        floor_sq = floor
    with np.errstate(invalid="ignore"):
        index, values, kept, spin_points = _tail_above(
            _above_plan(env, floor_sq), np.arange(size), times
        )
    assert np.all(np.diff(index) > 0)
    assert values.tobytes() == reference[index].tobytes()
    assert kept.tobytes() == times[index].tobytes()
    dropped = np.setdiff1d(np.arange(size), index)
    assert not np.any(reference[dropped] >= floor_sq)
    assert np.all(np.isin(np.nonzero(reference >= floor_sq)[0], index))
    assert spin_points <= env.n * size


def test_kernel_counts_every_factor_when_nothing_is_dropped():
    env = build_environment_scenario(ScenarioKind.EIGENSTATE, 7, 0.5)
    times = np.linspace(0.0, 9.0, 101)
    index, values, _, spin_points = _tail_above(_above_plan(env, 1.0), np.arange(101), times)
    assert index.tolist() == list(range(101))
    assert np.all(values == 1.0)
    assert spin_points == 7 * 101


def test_kernel_applies_no_phase_window():
    # the seed-7 golden bath at its scan threshold, whose phase windows pass
    # about 3% of a grid: on a plain array every point still gets spin 0's
    # factor, as only the tail rule drops points there
    env = build_environment_random(20, 7, 0.05, 1.0)
    times = TimeGrid(1.0, 100.0, 0.01).times()
    index, values, _, spin_points = _tail_above(
        _above_plan(env, 0.81), np.arange(times.size), times
    )
    assert spin_points >= times.size
    reference = decoherence_abs_sq(env, times)
    assert values.tobytes() == reference[index].tobytes()
    assert np.all(np.isin(np.nonzero(reference >= 0.81)[0], index))


def grid_scan(env, floor_sq, grid):
    """(index, values, times, spin_points, window_points) of recurrence_search's
    grid path over every index range of ``grid``, joined."""
    ranges = list(ensemble._scan_ranges(_above_plan(env, floor_sq), grid))
    index, values, times = (np.concatenate([r[i] for r in ranges]) for i in range(3))
    return index, values, times, sum(r[3] for r in ranges), sum(r[4] for r in ranges)


@settings(max_examples=200, deadline=None)
@given(
    bath=baths,
    # log-uniform, so that most grids stay inside |4 g t| <= 2^20
    t_start=st.floats(min_value=-3.0, max_value=6.0).map(lambda e: 10.0**e),
    dt=st.floats(min_value=-6.0, max_value=0.0).map(lambda e: 10.0**e),
    steps=st.integers(min_value=1, max_value=200_000),
    # floors are the kernel's values by rank from the top, 0 the largest:
    # small ranks give the narrowest windows, with reachable points on edges
    rank=st.integers(min_value=0, max_value=200_000),
    cross=st.one_of(st.none(), st.integers(min_value=0, max_value=200_000)),
    chunk=st.sampled_from([1024, ensemble._SCAN_CHUNK]),
)
# |4 g t| of the fastest spin crosses 2^20 inside one index range
@example(bath=("random", 3, 9, 2.0), t_start=1.0, dt=0.5, steps=400, rank=0, cross=200, chunk=1024)
@example(bath=("mixed", 5, 3, 1.0), t_start=1.0, dt=0.01, steps=60000, rank=0, cross=30000, chunk=ensemble._SCAN_CHUNK)
@example(bath=("random", 20, 7, 1.0), t_start=1.0, dt=1e-3, steps=100000, rank=5, cross=70000, chunk=1024)
# narrow windows a few grid points wide, and windows much narrower than a step
@example(bath=("random", 20, 7, 1.0), t_start=1.0, dt=0.01, steps=200000, rank=0, cross=None, chunk=ensemble._SCAN_CHUNK)
@example(bath=("balanced", 24, 0, 0.5), t_start=1e3, dt=0.7, steps=5000, rank=0, cross=None, chunk=1024)
@example(bath=("random", 0, 0, 1.0), t_start=3.0, dt=0.1, steps=10, rank=0, cross=None, chunk=1024)
def test_grid_scan_keeps_reachable_points_bit_for_bit(bath, t_start, dt, steps, rank, cross, chunk):
    env = make_env(*bath)
    if cross is not None and env.n:
        t_start = _WINDOW_PHASE_MAX / float(np.max(4.0 * np.abs(env.couplings()))) - dt * (cross % steps)
        assume(t_start > 0.0)
    grid = TimeGrid(t_start, t_start + dt * (steps + 0.5), dt)
    times = grid.times()
    # the scan covers grid indices 1..steps
    reference = decoherence_abs_sq(env, times)
    floor_sq = float(np.sort(reference[1:])[-1 - rank % steps])
    with mock.patch.object(ensemble, "_SCAN_CHUNK", chunk):
        index, values, kept_times, spin_points, window_points = grid_scan(env, floor_sq, grid)
    assert np.all(np.diff(index) > 0) and (not index.size or index[0] >= 1)
    assert values.tobytes() == reference[index].tobytes()
    assert kept_times.tobytes() == times[index].tobytes()
    assert np.all(np.isin(np.nonzero(reference[1:] >= floor_sq)[0] + 1, index))
    assert index.size <= window_points <= steps
    assert spin_points <= env.n * window_points


@settings(max_examples=80, deadline=None)
@given(
    bath=baths,
    t_start=st.floats(min_value=0.01, max_value=20.0),
    dt=st.floats(min_value=1e-3, max_value=0.2),
    steps=st.integers(min_value=1, max_value=600),
    threshold=st.one_of(st.just(1.0), st.floats(min_value=0.01, max_value=1.0)),
    chunk=st.integers(min_value=1, max_value=64),
)
@example(bath=OVERNORMED, t_start=0.001, dt=0.001, steps=1999999, threshold=1.0, chunk=4096)
def test_recurrence_search_matches_plain_scan(bath, t_start, dt, steps, threshold, chunk):
    env = bath if isinstance(bath, EnvironmentSpec) else make_env(*bath)
    grid = TimeGrid(t_start, t_start + dt * (steps + 0.5), dt)
    with mock.patch.object(ensemble, "_SCAN_CHUNK", chunk):
        report = recurrence_search(env, threshold, grid)
    assert (report.found, report.scanned_points) == plain_scan(env, threshold, grid)
    assert report.spin_points <= env.n * grid.steps()


@pytest.mark.parametrize("where", ["first", "last"])
@pytest.mark.parametrize(
    "env, threshold",
    [
        (build_environment_scenario(ScenarioKind.BALANCED_EQUAL_COUPLING, 12, 0.5), 0.95),
        (build_environment_scenario(ScenarioKind.BALANCED_EQUAL_COUPLING, 3, 0.7), 0.9999),
        (build_environment_random(4, 1, 0.05, 1.0), 0.7),
    ],
)
def test_hit_on_chunk_edge(env, threshold, where):
    grid = TimeGrid(1.0, 12.0, 0.01)
    found, scanned = plain_scan(env, threshold, grid)
    assert found is not None and scanned > 2
    # hit index scanned - 1 opens the second chunk, or closes the first
    chunk = scanned - 1 if where == "first" else scanned
    with mock.patch.object(ensemble, "_SCAN_CHUNK", chunk):
        report = recurrence_search(env, threshold, grid)
    assert (report.found, report.scanned_points) == (found, scanned)


# SHA-256 of the bodies (the bytes after the provenance line) of recurrence
# CSVs written before scans were pruned: the two configs of tests/test_cli.py,
# an n = 20 random scan of (1, 1e4] with no hit, and a balanced scan whose hit
# lies past the first scan chunk.
GOLDEN = {
    "mode = recurrence\nn = 50\nscenario = balanced\ng = 0.5\n"
    "t_start = 0.1\nt_max = 4\ndt = 0.001\nthreshold = 0.999\noutput = rec.csv\n":
        "5291dbd03e61a10cf45e865df9545d6e2a0ce8933a39e64ea8746b83732825af",
    "mode = recurrence\nn = 20\nscenario = random\nseed = 42\ng_max = 1.0\n"
    "t_start = 1\nt_max = 200\ndt = 0.01\n":
        "c5ce465c86323955baa4b01801f32c50c70e813cad304689d9aa4322982eb60b",
    "mode = recurrence\nn = 20\nscenario = random\nseed = 7\ng_min = 0.05\ng_max = 1.0\n"
    "t_start = 1\nt_max = 10000\ndt = 0.01\nthreshold = 0.9\n":
        "1b077ff822c8852f79e2d9ca5305d59f3547eb369b7658af3518a2e333a3364a",
    "mode = recurrence\nn = 20\nscenario = balanced\ng = 0.3\n"
    "t_start = 0.5\nt_max = 20\ndt = 0.0001\nthreshold = 0.9\n":
        "5f4d0060b61e25dab22f77c615855b77955f383852270dda7d952f09065225a2",
}


def test_golden_recurrence_digests(tmp_path):
    assert_golden_digests(tmp_path, GOLDEN)


def test_phase_windows_prune_the_golden_scan():
    # the n = 20, seed 7 scan of GOLDEN: the tail rule alone evaluates about
    # 1.5 factors per grid point, the phase windows cut that to about 0.04
    env = build_environment_random(20, 7, 0.05, 1.0)
    report = recurrence_search(env, 0.9, TimeGrid(1.0, 10000.0, 0.01))
    assert report.found is None and report.scanned_points == 999900
    assert report.spin_points <= 0.25 * report.scanned_points
    assert 0 < report.window_points <= report.spin_points


def traced_peak(env, threshold, grid):
    """(report, peak bytes traced by tracemalloc) of one recurrence_search."""
    tracemalloc.start()
    try:
        report = recurrence_search(env, threshold, grid)
        return report, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("bath", ["windowless", "golden", "wide"])
def test_recurrence_search_memory_stays_within_a_few_chunks(bath):
    # index ranges grow only where phase windows keep few points; a range
    # without windows stays one chunk.  With 2^18-point chunks the
    # benchmark's scan peak RSS rose from 44.2 to 54.0 MB.  The "wide" scan
    # keeps about a fifth of its points: ranges of 2^20 points would take
    # its peak to about 20 chunks.
    if bath == "windowless":
        # every swing (1 - d^2)/2 is 0.00995 < 0.01, so no spin has a window
        couplings = build_environment_random(20, 3, 0.05, 1.0).couplings()
        env = EnvironmentSpec(couplings, [0.995**0.5] * 20, [0.005**0.5] * 20)
        grid = TimeGrid(0.01, 0.01 * (2**21 + 0.5), 0.01)
        threshold = 1.0
    else:
        env = build_environment_random(20, 7, 0.05, 1.0)
        grid = TimeGrid(1.0, 10000.0, 0.01)
        threshold = 0.9 if bath == "golden" else 0.6
    report, peak = traced_peak(env, threshold, grid)
    assert report.found is None and report.scanned_points == grid.steps()
    assert peak < 8 * ensemble._SCAN_CHUNK * 8


def test_balanced_scan_stops_in_its_first_range():
    # the hit at grid index 69 lies among the first _SCAN_FIRST points the
    # phase windows pass, so the rest of the first range (9 796 points and
    # 80 120 factors in all) is not evaluated; the report is that of a
    # plain scan
    env = build_environment_scenario(ScenarioKind.BALANCED_EQUAL_COUPLING, 20, 0.9)
    grid = TimeGrid(1.0, 10000.0, 0.01)
    report = recurrence_search(env, 0.9, grid)
    assert (report.found, report.scanned_points) == plain_scan(env, 0.9, TimeGrid(1.0, 2.0, 0.01))
    assert report.scanned_points == 69
    assert report.window_points <= ensemble._SCAN_FIRST
    assert report.spin_points <= env.n * ensemble._SCAN_FIRST
