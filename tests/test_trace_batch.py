"""Trace mode's batched path against the point-by-point scalar functions.

The trace CSV must not change by a byte when rows are computed in chunks of
arrays, so the reference here is the per-row loop over
``decoherence_factor`` / ``reduced_density_matrix`` / ``state_metrics``
that trace mode ran before, formatted the same way.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import einlab.cli as cli
from einlab import (
    TimeGrid,
    build_environment_random,
    decoherence_factor,
    decoherence_series,
    reduced_density_matrix,
    state_metrics,
    trace_columns,
)

from conftest import assert_golden_digests, assert_same_bits, environments, system_amplitudes


def scalar_row(sys_amp, env, t):
    z = decoherence_factor(env, t)
    rho = reduced_density_matrix(sys_amp, env, t)
    purity, entropy = state_metrics(rho)
    return (
        t,
        z.real,
        z.imag,
        abs(z),
        rho[0, 0].real,
        rho[1, 1].real,
        abs(rho[0, 1]),
        purity,
        entropy,
    )


def scalar_trace_lines(config):
    """The CSV lines after the provenance comment, as the per-row loop gave them."""
    sys_amp = cli._system_amplitudes(config)
    env = cli._build_environment(config)
    grid = TimeGrid(config.t_start, config.t_max, config.dt)
    lines = [",".join(cli.TRACE_COLUMNS)]
    for t in grid.times():
        lines.append(",".join(cli._format(v) for v in scalar_row(sys_amp, env, float(t))))
    return lines


def trace_config(n, scenario, a_sq, t_start, dt, steps, seed=1):
    lines = ["mode = trace", f"n = {n}", f"scenario = {scenario}", f"a_sq = {a_sq!r}"]
    if scenario == "random":
        lines += [f"seed = {seed}", "g_max = 1.5"]
    else:
        lines += ["g = 0.7"]
    lines += [f"t_start = {t_start!r}", f"t_max = {t_start + dt * (steps + 0.5)!r}", f"dt = {dt!r}"]
    return cli.parse_config("\n".join(lines) + "\n")


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=24),
    scenario=st.sampled_from(["random", "eigenstate", "balanced"]),
    a_sq=st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    t_start=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=40.0)),
    dt=st.floats(min_value=1e-3, max_value=2.0),
    steps=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
# a_sq = 0 or 1 leaves eigenvalues (0, 1), whose entropy -(0 + 0) must print as 0, not -0
@example(n=5, scenario="random", a_sq=0.0, t_start=0.0, dt=0.1, steps=20, seed=3)
@example(n=5, scenario="balanced", a_sq=1.0, t_start=2.5, dt=0.1, steps=20, seed=3)
@example(n=0, scenario="eigenstate", a_sq=0.3, t_start=0.0, dt=0.5, steps=4, seed=1)
def test_batched_trace_matches_scalar_rows(n, scenario, a_sq, t_start, dt, steps, seed):
    config = trace_config(n, scenario, a_sq, t_start, dt, steps, seed)
    assert cli._run_trace(config)[0] == scalar_trace_lines(config)


def test_grid_longer_than_a_chunk_matches_scalar_rows():
    config = trace_config(3, "random", 0.37, 1.25, 0.01, cli.TRACE_CHUNK + 100, seed=7)
    grid = TimeGrid(config.t_start, config.t_max, config.dt)
    assert grid.steps() + 1 > cli.TRACE_CHUNK
    assert cli._run_trace(config)[0] == scalar_trace_lines(config)


@settings(max_examples=40, deadline=None)
@given(
    sys_amp=system_amplitudes,
    env=environments,
    ts=st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=12),
)
def test_complex_amplitudes_agree_to_rounding(sys_amp, env, ts):
    # a complex system amplitude may round its product differently in the last place
    batch = np.column_stack(trace_columns(sys_amp, env, np.array(ts)))
    scalar = np.array([scalar_row(sys_amp, env, t) for t in ts])
    np.testing.assert_allclose(batch, scalar, rtol=1e-14, atol=1e-13)


# 8193 points: the last chunk is one row, so every column in it is constant
ONE_ROW_LAST_CHUNK = (
    "mode = trace\nn = 7\nseed = 11\nscenario = random\ng_max = 1.0\na_sq = 0.6\nt_max = 1024\n"
    "dt = 0.125\n"
)

# SHA-256 of trace CSVs: the first three written before trace mode was
# batched, the rest, with whole columns constant, before rows came from
# per-chunk templates.
GOLDEN = {
    "mode = trace\nn = 4\nseed = 1\nscenario = random\ng_max = 1.0\nt_max = 50\ndt = 0.01\n":
        "36938f74f37b66a92054e0fcf9eb51edb05ecfcf28ef6becd58589a2108cccec",
    "mode = trace\nn = 12\nscenario = balanced\ng = 0.7\na_sq = 0.3\nt_start = 0.5\n"
    "t_max = 30\ndt = 0.003\n":
        "95f5af4ba92f15f0302a74f7faca57ff12fbcbe58f8191d40a913072a90eed6a",
    "mode = trace\nn = 6\nscenario = eigenstate\ng = 1.0\na_sq = 0.25\nt_max = 10\ndt = 0.01\n":
        "e1cb2335b49af014417dd586c141fc18bee261e20a57cbaa603a8975ca41fb42",
    # a_sq = 0 and 1: abs_rho_pm, purity and entropy are constant
    "mode = trace\nn = 8\nseed = 5\nscenario = random\ng_max = 1.0\na_sq = 0\nt_max = 20\n"
    "dt = 0.01\n":
        "8d09f07377b06bc1ca80ac384603d176db69dd4adcbb6913abd19705d531f5e5",
    "mode = trace\nn = 10\nscenario = balanced\ng = 0.7\na_sq = 1\nt_start = 0.5\nt_max = 15\n"
    "dt = 0.005\n":
        "b55157449f89e9f659df1a714013f6ac392f7ab6cfa70eafee85590b48b7945a",
    # n = 0: every column but t is constant
    "mode = trace\nn = 0\nseed = 2\nscenario = random\ng_max = 1.0\na_sq = 0.3\nt_max = 10\n"
    "dt = 0.01\n":
        "39d6adbdf735c9c3a3d2bb00d2cd86ca34e71625cccefc2f5e763ee5afd8ce49",
    ONE_ROW_LAST_CHUNK: "0cc15870a16ed2019412e016fe3bb36b37491e4e565010e1fa1e01e5170c3b17",
}


def test_golden_trace_digests(tmp_path):
    assert_golden_digests(tmp_path, GOLDEN)


@pytest.mark.parametrize("n", [1, 5, 20, 24])
@pytest.mark.parametrize("seed", [1, 2])
def test_series_bits_do_not_depend_on_array_length(n, seed):
    # 40 000 points make 625 KiB operands, past numpy's 256 KiB threshold for
    # eliding temporaries; each point must keep the bits of a short call
    env = build_environment_random(n, seed, None, 1.0)
    times = 3.0 + 0.01 * np.arange(40_000)
    whole = decoherence_series(env, times)
    bounds = [0, 1, 8, 5000, 21_000, 40_000]
    pieces = [decoherence_series(env, times[a:b]) for a, b in zip(bounds, bounds[1:])]
    assert_same_bits(whole, np.concatenate(pieces))
    for k in range(0, times.size, 397):
        assert_same_bits(whole[k : k + 1], np.array([decoherence_factor(env, float(times[k]))]))


def test_trace_bytes_do_not_depend_on_the_chunk(tmp_path, monkeypatch):
    config = tmp_path / "long.cfg"
    config.write_text(
        "mode = trace\nn = 20\nseed = 1\nscenario = random\ng_max = 1.0\nt_max = 200\ndt = 0.01\n"
    )
    texts = []
    for chunk in (cli.TRACE_CHUNK, 65_536):
        monkeypatch.setattr(cli, "TRACE_CHUNK", chunk)
        out = tmp_path / f"chunk{chunk}.csv"
        assert cli.main([str(config), "--output", str(out), "--quiet"]) == 0
        texts.append(out.read_bytes())
    assert texts[0].count(b"\n") == 20_003  # provenance, header and 20 001 rows
    assert texts[0] == texts[1]


def joined_lines(columns):
    """The rows of ``columns`` with every cell formatted on its own."""
    return [",".join(map(cli._format, row)) for row in zip(*(c.tolist() for c in columns))]


def from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
           2.2250738585072009e-308, 1e-310, 1.0, 0.1]
cell_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(SPECIAL),
    st.integers(min_value=0, max_value=2**64 - 1).map(from_bits),
)


@st.composite
def chunk_columns(draw):
    """1-9 float columns of 1-40 rows: constant, mixed signed zeros or any
    doubles; as separate arrays or as strided views of one table, like the
    views of complex arrays that trace_columns returns."""
    rows = draw(st.integers(min_value=1, max_value=40))
    columns = []
    for _ in range(draw(st.integers(min_value=1, max_value=9))):
        kind = draw(st.sampled_from(["constant", "signed_zeros", "any"]))
        if kind == "constant":
            columns.append(np.full(rows, draw(cell_values)))
        else:
            cells = st.sampled_from([0.0, -0.0]) if kind == "signed_zeros" else cell_values
            values = draw(st.lists(cells, min_size=rows, max_size=rows))
            columns.append(np.array(values, dtype=float))
    if draw(st.booleans()):
        table = np.column_stack(columns)
        columns = [table[:, i] for i in range(table.shape[1])]
    return tuple(columns)


@settings(max_examples=300, deadline=None)
@given(columns=chunk_columns())
# one-row chunk, as the last chunk of a grid one point longer than TRACE_CHUNK
@example(columns=tuple(np.array([v]) for v in (1024.0, 0.5, -0.0, math.nan, 5e-324)))
# every column constant, as at n = 0
@example(columns=(np.full(4, 2.5), np.full(4, -0.0), np.full(4, math.inf), np.full(4, 1e-310)))
@example(columns=(np.array([0.0, -0.0, 0.0]), np.array([-0.0, -0.0, -0.0]), np.zeros(3)))
def test_chunk_lines_equal_cell_by_cell_formatting(columns):
    assert cli._chunk_lines(columns) == joined_lines(columns)


def test_balanced_im_z_keeps_its_negative_zeros():
    # Im z is zero on every row of the balanced scenario, but about half of
    # the zeros are -0.0; an == test for a constant column would print them 0
    config = trace_config(12, "balanced", 0.3, 0.0, 0.01, 2000)
    lines = cli._run_trace(config)[0]
    im_z = [line.split(",")[2] for line in lines[1:]]
    assert set(im_z) == {"0", "-0"}
    assert 100 < im_z.count("-0") < len(im_z) - 100
    assert lines == scalar_trace_lines(config)


def test_one_row_last_chunk_golden_has_a_one_row_last_chunk():
    config = cli.parse_config(ONE_ROW_LAST_CHUNK)
    chunks = list(TimeGrid(config.t_start, config.t_max, config.dt).chunks(cli.TRACE_CHUNK))
    assert [c.size for c in chunks] == [cli.TRACE_CHUNK, 1]
