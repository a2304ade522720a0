"""Pruned recurrence scans against the plain |z|^2 kernel.

``decoherence_abs_sq_above`` may drop a grid point only when its |z|^2 is
below the floor, and must give every point it keeps the exact bits of
``decoherence_abs_sq``.  ``recurrence_search`` must report what a plain scan
of ``decoherence_abs_sq`` over the whole grid reports, and the recurrence
CSV must not change by a byte.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import einlab.ensemble as ensemble
from einlab import (
    ScenarioKind,
    TimeGrid,
    build_environment_random,
    build_environment_scenario,
    decoherence_abs_sq,
    decoherence_abs_sq_above,
    recurrence_search,
)

from conftest import assert_golden_digests

KINDS = {
    "balanced": ScenarioKind.BALANCED_EQUAL_COUPLING,
    "eigenstate": ScenarioKind.EIGENSTATE,
}


def make_env(kind, n, seed, g):
    if kind == "random":
        return build_environment_random(n, seed, 0.05, g)
    return build_environment_scenario(KINDS[kind], n, g)


def plain_scan(env, threshold, grid):
    """(found, scanned_points) of an unpruned, unchunked scan of (t_start, t_end]."""
    times = grid.times()[1:]
    hits = np.nonzero(decoherence_abs_sq(env, times) >= threshold * threshold)[0]
    if hits.size:
        return float(times[hits[0]]), int(hits[0]) + 1
    return None, int(times.size)


baths = st.tuples(
    st.sampled_from(["random", "balanced", "eigenstate"]),
    st.integers(min_value=0, max_value=24),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.05, max_value=2.0),
)


@settings(max_examples=120, deadline=None)
@given(
    bath=baths,
    t_start=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=50.0)),
    dt=st.floats(min_value=1e-3, max_value=0.5),
    size=st.integers(min_value=1, max_value=400),
    floor=st.one_of(
        st.just(1.0),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        st.integers(min_value=0, max_value=399),
    ),
)
@example(bath=("eigenstate", 24, 0, 1.0), t_start=0.0, dt=0.1, size=50, floor=1.0)
@example(bath=("balanced", 24, 0, 0.5), t_start=0.0, dt=0.1, size=100, floor=1.0)
@example(bath=("random", 0, 0, 1.0), t_start=3.0, dt=0.1, size=10, floor=1.0)
def test_kernel_keeps_reachable_points_bit_for_bit(bath, t_start, dt, size, floor):
    env = make_env(*bath)
    times = t_start + dt * np.arange(size)
    reference = decoherence_abs_sq(env, times)
    # an integer floor picks a value the plain kernel gives, to test the boundary
    floor_sq = float(reference[floor % size]) if isinstance(floor, int) else floor
    index, values, spin_points = decoherence_abs_sq_above(env, times, floor_sq)
    assert np.all(np.diff(index) > 0)
    assert values.tobytes() == reference[index].tobytes()
    dropped = np.setdiff1d(np.arange(size), index)
    assert np.all(reference[dropped] < floor_sq)
    assert np.all(np.isin(np.nonzero(reference >= floor_sq)[0], index))
    assert spin_points <= env.n * size


def test_kernel_counts_every_factor_when_nothing_is_dropped():
    env = build_environment_scenario(ScenarioKind.EIGENSTATE, 7, 0.5)
    index, values, spin_points = decoherence_abs_sq_above(env, np.linspace(0.0, 9.0, 101), 1.0)
    assert index.tolist() == list(range(101))
    assert np.all(values == 1.0)
    assert spin_points == 7 * 101


@settings(max_examples=80, deadline=None)
@given(
    bath=baths,
    t_start=st.floats(min_value=0.01, max_value=20.0),
    dt=st.floats(min_value=1e-3, max_value=0.2),
    steps=st.integers(min_value=1, max_value=600),
    threshold=st.one_of(st.just(1.0), st.floats(min_value=0.01, max_value=1.0)),
    chunk=st.integers(min_value=1, max_value=64),
)
def test_recurrence_search_matches_plain_scan(bath, t_start, dt, steps, threshold, chunk):
    env = make_env(*bath)
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


# SHA-256 of recurrence CSVs written before scans were pruned: the two
# configs of tests/test_cli.py, an n = 20 random scan of (1, 1e4] with no
# hit, and a balanced scan whose hit lies past the first scan chunk.
GOLDEN = {
    "mode = recurrence\nn = 50\nscenario = balanced\ng = 0.5\n"
    "t_start = 0.1\nt_max = 4\ndt = 0.001\nthreshold = 0.999\noutput = rec.csv\n":
        "2a2ae965198aa9cc14d6d158f2eed684e1eaa224241e863edc700eede27ba96f",
    "mode = recurrence\nn = 20\nscenario = random\nseed = 42\ng_max = 1.0\n"
    "t_start = 1\nt_max = 200\ndt = 0.01\n":
        "36602550fac679184a70270a56604b3cd5562f26a87c2a73b29cad804c0716e6",
    "mode = recurrence\nn = 20\nscenario = random\nseed = 7\ng_min = 0.05\ng_max = 1.0\n"
    "t_start = 1\nt_max = 10000\ndt = 0.01\nthreshold = 0.9\n":
        "6b863d997ed0525c9882167dd610add752a184a3b3850747c0b38a21da0daf4f",
    "mode = recurrence\nn = 20\nscenario = balanced\ng = 0.3\n"
    "t_start = 0.5\nt_max = 20\ndt = 0.0001\nthreshold = 0.9\n":
        "bc9eb9c936dc4979d249b25794a0f34855a81b7e487df8f2dba616e3efc530ad",
}


def test_golden_recurrence_digests(tmp_path):
    assert_golden_digests(tmp_path, GOLDEN)
