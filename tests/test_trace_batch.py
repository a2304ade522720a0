"""Trace mode's batched path against the point-by-point scalar functions.

The first seven trace columns must not change by a byte when rows are
computed in chunks of arrays, so their reference is the per-row loop over
``decoherence_factor`` / ``reduced_density_matrix`` that trace mode ran
before, formatted the same way.  Purity and entropy come from a closed form
in the deficit ``1 - |z|^2``; their reference is a 45-digit ``decimal``
evaluation at the same float inputs (``decimal_reference``).
"""

import math
import struct
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import einlab.cli as cli
from einlab import (
    SystemAmplitudes,
    build_environment_random,
    decoherence_factor,
    decoherence_series,
    reduced_density_matrix,
    state_metrics,
    trace_columns,
)

import decimal_reference
from conftest import assert_golden_digests, assert_same_bits, environments, system_amplitudes

# Bounds against the decimal reference: the entropy's relative error and the
# purity's absolute error.
ENTROPY_RTOL = 1e-14
PURITY_ATOL = 4.5e-16


def scalar_row(sys_amp, env, t):
    """The first seven trace columns of one row, from the scalar functions."""
    z = decoherence_factor(env, t)
    rho = reduced_density_matrix(sys_amp, env, t)
    return (t, z.real, z.imag, abs(z), rho[0, 0].real, rho[1, 1].real, abs(rho[0, 1]))


def assert_near_reference(sys_amp, env, t, purity, entropy):
    """``purity`` and ``entropy`` (floats) within the bounds of the decimal
    reference at time ``t``.  The reference entropy is clipped at 0, as trace
    mode prints it; the relative bound is taken of it plus ``|p + q - 1|``,
    the size of the terms that cancel when ``p + q != 1`` and the state is
    nearly pure (with ``p + q = 1`` it is a plain relative bound)."""
    p, q = abs(complex(sys_amp.a)) ** 2, abs(complex(sys_amp.b)) ** 2
    ref_purity, ref_entropy = decimal_reference.purity_entropy(
        p, q, env.couplings().tolist(), env.imbalances().tolist(), t
    )
    assert abs(Decimal(purity) - ref_purity) <= Decimal(PURITY_ATOL), (t, purity, ref_purity)
    ref_entropy = max(ref_entropy, Decimal(0))
    scale = ref_entropy + abs(Decimal(p) + Decimal(q) - 1)
    assert abs(Decimal(entropy) - ref_entropy) <= Decimal(ENTROPY_RTOL) * scale, (
        t, entropy, ref_entropy
    )


def assert_trace_rows(config):
    """Trace mode's text for ``config``: the header, the first seven cells of
    each row as the scalar functions print them, and purity and entropy
    within the bounds of the decimal reference, entropy never ``-0``."""
    sys_amp = cli._system_amplitudes(config)
    env = cli._build_environment(config)
    lines = trace_text(config).split("\n")
    assert lines[0] == ",".join(cli.TRACE_COLUMNS)
    times = config.grid.times().tolist()
    assert len(lines) == len(times) + 1
    for t, line in zip(times, lines[1:]):
        cells = line.split(",")
        assert cells[:7] == [cli._format(v) for v in scalar_row(sys_amp, env, t)]
        assert cells[8] != "-0"
        # 17 significant digits read back as the double that was printed
        assert_near_reference(sys_amp, env, t, float(cells[7]), float(cells[8]))


def trace_text(config):
    """The CSV text after the provenance comment, as trace mode writes it."""
    return "\n".join(cli._run_trace(config)[0])


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
    assert_trace_rows(trace_config(n, scenario, a_sq, t_start, dt, steps, seed))


def test_grid_longer_than_a_chunk_matches_scalar_rows():
    config = trace_config(3, "random", 0.37, 1.25, 0.01, cli.TRACE_CHUNK + 100, seed=7)
    assert config.grid.steps() + 1 > cli.TRACE_CHUNK
    assert_trace_rows(config)


@settings(max_examples=40, deadline=None)
@given(
    sys_amp=system_amplitudes,
    env=environments,
    ts=st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=12),
)
def test_complex_amplitudes_agree_to_rounding(sys_amp, env, ts):
    # a complex system amplitude may round its product differently in the last
    # place; state_metrics' eigensolver agrees with the closed form to rounding
    batch = np.column_stack(trace_columns(sys_amp, env, np.array(ts)))
    scalar = np.array(
        [scalar_row(sys_amp, env, t) + state_metrics(reduced_density_matrix(sys_amp, env, t))
         for t in ts]
    )
    np.testing.assert_allclose(batch, scalar, rtol=1e-14, atol=1e-13)
    for t, (purity, entropy) in zip(ts, batch[:, 7:].tolist()):
        assert_near_reference(sys_amp, env, t, purity, entropy)


# 100 times log-uniform on [1e-9, 1], where |z| is near 1 and 1 - |z|^2
# cancels, and 100 uniform on [0, 100]
REFERENCE_TIMES = np.concatenate(
    [10.0 ** np.random.default_rng(1).uniform(-9.0, 0.0, 100),
     np.random.default_rng(2).uniform(0.0, 100.0, 100)]
)


@pytest.mark.parametrize("n,a_sq", [(20, 0.5), (20, 0.36), (20, 0.0), (20, 1.0), (0, 0.3)])
def test_purity_and_entropy_match_a_decimal_reference(n, a_sq):
    env = build_environment_random(n, 1, None, 1.0)
    sys_amp = SystemAmplitudes(complex(math.sqrt(a_sq)), complex(math.sqrt(1.0 - a_sq)))
    columns = trace_columns(sys_amp, env, REFERENCE_TIMES)
    purity, entropy = columns[7], columns[8]
    for t, pure, ent in zip(REFERENCE_TIMES.tolist(), purity.tolist(), entropy.tolist()):
        assert_near_reference(sys_amp, env, t, pure, ent)
    assert not np.signbit(entropy).any()  # never -0
    if a_sq in (0.0, 1.0):  # a pure state at every time
        assert (purity == 1.0).all() and (entropy == 0.0).all()
    if a_sq == 0.36 and n:
        # p + q = 1 exactly here, so every t > 0 has entropy > 0, down to
        # about 1e-16 at t = 1e-9
        assert (entropy > 0.0).all()


def test_nan_rows_have_entropy_nan():
    # from t = 10 the phases 2 g t of this bath overflow to nan; a nan state
    # has no entropy, so the row must not read 0, a pure state's entropy.
    # Trace mode refuses a config this close to overflow, so the columns are
    # taken directly.
    env = build_environment_random(3, 1, None, 1e307)
    sys_amp = SystemAmplitudes(complex(math.sqrt(0.5)), complex(math.sqrt(0.5)))
    times = np.arange(21.0)
    with np.errstate(over="ignore", invalid="ignore"):
        *_, purity, entropy = trace_columns(sys_amp, env, times)
    nan_rows = np.isnan(purity)
    assert times[nan_rows].tolist() == list(range(10, 21))
    assert (np.isnan(entropy) == nan_rows).all()


def test_trace_columns_keep_the_shape_of_times():
    env = build_environment_random(3, 1, None, 1.0)
    sys_amp = SystemAmplitudes(complex(0.6), complex(0.8))
    grid = np.linspace(0.0, 2.0, 6).reshape(2, 3)
    # |z|^2 >= 1/2 at t = 0.01, < 1/2 at t = 5, and both on the grid
    for times in (np.float64(0.01), np.float64(5.0), grid):
        columns = trace_columns(sys_amp, env, times)
        assert all(np.shape(c) == np.shape(times) for c in columns)
    flat = trace_columns(sys_amp, env, grid.reshape(-1))
    for column, flat_column in zip(trace_columns(sys_amp, env, grid), flat):
        assert_same_bits(column.reshape(-1), flat_column)


# 8193 points: the last chunk is one row, so every column in it is constant
ONE_ROW_LAST_CHUNK = (
    "mode = trace\nn = 7\nseed = 11\nscenario = random\ng_max = 1.0\na_sq = 0.6\nt_max = 1024\n"
    "dt = 0.125\n"
)

# SHA-256 of the bodies (the bytes after the provenance line) of trace CSVs:
# the first three written before trace mode was batched, the rest, with whole
# columns constant, before rows came from per-chunk templates.  Version 0.2.0
# moved the bodies whose purity and entropy the closed form changed: all but
# a_sq = 0, a_sq = 1 and n = 0.
GOLDEN = {
    "mode = trace\nn = 4\nseed = 1\nscenario = random\ng_max = 1.0\nt_max = 50\ndt = 0.01\n":
        "a9643ee260ac1d6a22a597056b7131dbd5175cd2dc9d370010c8c3f657903b30",
    "mode = trace\nn = 12\nscenario = balanced\ng = 0.7\na_sq = 0.3\nt_start = 0.5\n"
    "t_max = 30\ndt = 0.003\n":
        "7cdc38a0d4c468200fa6dbbf74b448da76c87650c51785d5bd41230130d1de2d",
    "mode = trace\nn = 6\nscenario = eigenstate\ng = 1.0\na_sq = 0.25\nt_max = 10\ndt = 0.01\n":
        "fac7de8cbc5da838640b84af17a62949bae86ccd04169969c3f3d1d3a0812d91",
    # a_sq = 0 and 1: abs_rho_pm, purity and entropy are constant
    "mode = trace\nn = 8\nseed = 5\nscenario = random\ng_max = 1.0\na_sq = 0\nt_max = 20\n"
    "dt = 0.01\n":
        "f3dd2c7aa795601c76d14c8f0ff0e4ac4d33841ab838f0920a328091894bba13",
    "mode = trace\nn = 10\nscenario = balanced\ng = 0.7\na_sq = 1\nt_start = 0.5\nt_max = 15\n"
    "dt = 0.005\n":
        "117654acad77262dbbe61194dceb0ebf8049c0e58568d5ad812dca7391a81151",
    # n = 0: every column but t is constant
    "mode = trace\nn = 0\nseed = 2\nscenario = random\ng_max = 1.0\na_sq = 0.3\nt_max = 10\n"
    "dt = 0.01\n":
        "96c99a86fcbca653784b5a8d8ba9773df91473f661fd4a6c997015de694b4423",
    ONE_ROW_LAST_CHUNK: "33b00ec6b0ff9a83a438226469e444a006ee90b3fe5b29cd5f0584a921016e33",
    # Written before rows were formatted as arrays.  The benchmark's balanced
    # n = 20 trace: 594 cells below 1e-160, down to 9e-316, and an im_z
    # column of mixed 0 and -0.
    "mode = trace\nn = 20\nscenario = balanced\ng = 1.0\na_sq = 0.331\nt_max = 314.2\n":
        "4f43998d9145e9fbffa29db9413900d29be3dfb0d45405ed5be841c92dc83def",
    # t from 1e17: the t column prints in exponent form
    "mode = trace\nn = 5\nseed = 3\nscenario = random\ng_max = 1.0\na_sq = 0.7\nt_start = 1e17\n"
    "t_max = 1.00000000001e17\ndt = 25000\n":
        "b2bd6e7ebb29d722fa091d060652f9debe7310b7a2f5bf50b4e6cb5d78dcbeea",
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
    assert "\n".join(cli._chunk_text(columns)) == "\n".join(joined_lines(columns))


def test_balanced_im_z_keeps_its_negative_zeros():
    # Im z is zero on every row of the balanced scenario, but about half of
    # the zeros are -0.0; an == test for a constant column would print them 0
    config = trace_config(12, "balanced", 0.3, 0.0, 0.01, 2000)
    text = trace_text(config)
    im_z = [line.split(",")[2] for line in text.split("\n")[1:]]
    assert set(im_z) == {"0", "-0"}
    assert 100 < im_z.count("-0") < len(im_z) - 100
    assert_trace_rows(config)


def test_one_row_last_chunk_golden_has_a_one_row_last_chunk():
    config = cli.parse_config(ONE_ROW_LAST_CHUNK)
    chunks = list(config.grid.chunks(cli.TRACE_CHUNK))
    assert [c.size for c in chunks] == [cli.TRACE_CHUNK, 1]
