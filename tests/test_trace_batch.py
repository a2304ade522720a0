"""Trace mode's batched path against the point-by-point scalar functions.

The trace CSV must not change by a byte when rows are computed in chunks of
arrays, so the reference here is the per-row loop over
``decoherence_factor`` / ``reduced_density_matrix`` / ``state_metrics``
that trace mode ran before, formatted the same way.
"""

import hashlib

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

from conftest import assert_same_bits, environments, system_amplitudes


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


# SHA-256 of trace CSVs written before trace mode was batched.
GOLDEN = {
    "mode = trace\nn = 4\nseed = 1\nscenario = random\ng_max = 1.0\nt_max = 50\ndt = 0.01\n":
        "36938f74f37b66a92054e0fcf9eb51edb05ecfcf28ef6becd58589a2108cccec",
    "mode = trace\nn = 12\nscenario = balanced\ng = 0.7\na_sq = 0.3\nt_start = 0.5\n"
    "t_max = 30\ndt = 0.003\n":
        "95f5af4ba92f15f0302a74f7faca57ff12fbcbe58f8191d40a913072a90eed6a",
    "mode = trace\nn = 6\nscenario = eigenstate\ng = 1.0\na_sq = 0.25\nt_max = 10\ndt = 0.01\n":
        "e1cb2335b49af014417dd586c141fc18bee261e20a57cbaa603a8975ca41fb42",
}


def test_golden_trace_digests(tmp_path):
    for i, (text, digest) in enumerate(GOLDEN.items()):
        config = tmp_path / f"golden{i}.cfg"
        config.write_text(text)
        out = tmp_path / f"golden{i}.csv"
        assert cli.main([str(config), "--output", str(out), "--quiet"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, text


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
