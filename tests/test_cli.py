import dataclasses
import errno
import itertools
import math
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import einlab.cli as cli
from einlab import (
    InvalidRangeError,
    MissingKeyError,
    ParseError,
    ScenarioKind,
    TimeGrid,
)
from einlab.cli import main, parse_config, run
from einlab.ensemble import MAX_SEEDS

TRACE_TEXT = """\
mode = trace
n = 4
seed = 1
scenario = random
g_max = 1.0
t_max = 50
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_trace_with_defaults(self):
        config = parse_config(TRACE_TEXT)
        assert config.mode == "trace"
        assert config.n == 4
        assert config.seed == 1
        assert config.scenario is ScenarioKind.RANDOM
        assert config.g_max == 1.0
        assert config.grid.t_end == 50.0
        assert config.a_sq == 0.5
        assert config.threshold == 0.9
        assert config.grid.dt == pytest.approx(math.pi / 20.0)
        assert config.g_min == pytest.approx(0.05)
        assert config.grid.t_start == 0.0
        assert len(config.digest) == 64

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nmode = verify  # trailing\nn = 2\nseed = 5\ng_max = 1.0\n"
        config = parse_config(text)
        assert config.mode == "verify"
        assert config.n == 2

    def test_negative_spin_count(self):
        with pytest.raises(InvalidRangeError):
            parse_config("mode = trace\nn = -2\n")

    def test_unknown_mode(self):
        with pytest.raises(ParseError, match="unknown mode 'warp'"):
            parse_config("mode = warp\n")

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_config("mode = trace\nwibble = 3\n")

    def test_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_config("mode = trace\nn = 2\nn = 3\n")

    def test_missing_equals(self):
        with pytest.raises(ParseError):
            parse_config("mode trace\n")

    def test_missing_mode(self):
        with pytest.raises(MissingKeyError):
            parse_config("n = 3\n")

    def test_unknown_scenario(self):
        with pytest.raises(ParseError, match="scenario"):
            parse_config("mode = trace\nscenario = chaotic\n")

    @pytest.mark.parametrize(
        "line",
        ["g_max = 0", "g_max = -1", "t_max = 0", "dt = 0", "threshold = 0", "threshold = 1.5",
         "a_sq = 1.5", "t_start = -1", "seed = -3", "g_max = inf"],
    )
    def test_out_of_range_values(self, line):
        with pytest.raises(InvalidRangeError):
            parse_config(f"mode = trace\n{line}\n")

    def test_missing_required_keys_per_mode(self):
        with pytest.raises(MissingKeyError, match="t_max"):
            parse_config("mode = trace\nn = 2\nscenario = random\nseed = 1\ng_max = 1.0\n")
        with pytest.raises(MissingKeyError, match="'seed'"):
            parse_config("mode = trace\nn = 2\nscenario = random\ng_max = 1.0\nt_max = 5\n")
        with pytest.raises(MissingKeyError, match="'g'"):
            parse_config("mode = trace\nn = 2\nscenario = balanced\nt_max = 5\n")
        with pytest.raises(MissingKeyError, match="seeds"):
            parse_config("mode = ensemble\nn = 2\ng_max = 1.0\nt_max = 5\n")

    def test_seed_count_expansion(self):
        text = "mode = ensemble\nn = 2\nseeds = 3\ng_max = 1.0\nt_max = 5\n"
        assert parse_config(text).seeds == (1, 2, 3)

    def test_explicit_seed_list(self):
        text = "mode = ensemble\nn = 2\nseeds = 5, 9\ng_max = 1.0\nt_max = 5\n"
        assert parse_config(text).seeds == (5, 9)

    def test_sweep_takes_n_list_and_seed_count(self):
        text = "mode = sweep\nn = 5, 10, 15\nseeds = 4\ng_max = 1.0\nt_start = 50\nt_max = 100\n"
        config = parse_config(text)
        assert config.ns == (5, 10, 15)
        assert config.seeds == (1, 2, 3, 4)

    @pytest.mark.parametrize("text,grid", [
        ("mode = trace\nn = 2\nseed = 1\nscenario = random\ng_max = 2.0\nt_max = 5\n",
         TimeGrid(0.0, 5.0, math.pi / 40.0)),
        ("mode = trace\nn = 2\nscenario = balanced\ng = 0.5\nt_start = 1\nt_max = 5\n",
         TimeGrid(1.0, 5.0, math.pi / 10.0)),
        ("mode = recurrence\nn = 2\nscenario = eigenstate\ng = 1.0\nt_start = 0.5\n"
         "t_max = 9\ndt = 0.25\n", TimeGrid(0.5, 9.0, 0.25)),
        ("mode = ensemble\nn = 2\nseeds = 3\ng_max = 1.0\nt_max = 7\n",
         TimeGrid(0.0, 7.0, math.pi / 20.0)),
        ("mode = sweep\nn = 2, 4\nseeds = 2\ng_max = 4.0\nt_start = 50\nt_max = 100\n",
         TimeGrid(50.0, 100.0, math.pi / 80.0)),
    ])
    def test_grid_modes_carry_their_grid(self, text, grid):
        # t_start defaults to 0 and dt to pi / (20 * g_max), or pi / (20 * g)
        assert parse_config(text).grid == grid

    @pytest.mark.parametrize("mode,scenario,extra,coupling", [
        ("trace", "balanced", "g = 4\ng_max = 1\n", 4.0),
        ("recurrence", "eigenstate", "g = 4\ng_max = 1\nt_start = 1\n", 4.0),
        ("trace", "random", "seed = 1\ng_max = 1\ng = 4\n", 1.0),
        ("recurrence", "random", "seed = 1\ng_max = 2\ng = 0.5\nt_start = 1\n", 2.0),
    ])
    def test_default_dt_follows_the_scenario_coupling(self, mode, scenario, extra, coupling):
        # the fixed scenarios use g, so an unused g_max does not set their dt
        text = f"mode = {mode}\nn = 2\nscenario = {scenario}\n{extra}t_max = 5\n"
        assert parse_config(text).grid.dt == math.pi / (20.0 * coupling)

    def test_verify_has_no_grid(self, tmp_path):
        plain = "mode = verify\nn = 3\nseed = 4\ng_max = 1.0\n"
        timed = plain + "t_start = 1\nt_max = 5\ndt = 0.5\n"
        assert parse_config(timed).grid is None
        outputs = []
        for i, text in enumerate((plain, timed)):
            out = tmp_path / f"verify{i}.csv"
            assert main([str(write_config(tmp_path, text)), "--output", str(out), "--quiet"]) == 0
            outputs.append(out.read_text().split("\n", 1)[1])
        assert outputs[0] == outputs[1]

    def test_sweep_rejects_seed_list(self):
        text = "mode = sweep\nn = 5, 10\nseeds = 1, 2\ng_max = 1.0\nt_start = 50\nt_max = 100\n"
        with pytest.raises(InvalidRangeError):
            parse_config(text)

    def test_sweep_rejects_descending_counts(self):
        text = "mode = sweep\nn = 10, 5\nseeds = 4\ng_max = 1.0\nt_start = 50\nt_max = 100\n"
        with pytest.raises(InvalidRangeError):
            parse_config(text)

    def test_n_list_rejected_outside_sweep(self):
        with pytest.raises(InvalidRangeError):
            parse_config("mode = trace\nn = 2, 3\nscenario = balanced\ng = 1.0\nt_max = 5\n")

    def test_recurrence_requires_positive_t_start(self):
        text = "mode = recurrence\nn = 2\nscenario = balanced\ng = 1.0\nt_max = 5\n"
        with pytest.raises(InvalidRangeError, match="t_start"):
            parse_config(text)

    def test_t_start_beyond_t_max(self):
        text = "mode = trace\nn = 2\nscenario = balanced\ng = 1.0\nt_start = 9\nt_max = 5\n"
        with pytest.raises(InvalidRangeError):
            parse_config(text)

    def test_identical_text_identical_digest(self):
        assert parse_config(TRACE_TEXT).digest == parse_config(TRACE_TEXT).digest


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestTraceMode:
    @pytest.fixture()
    def trace_csv(self, tmp_path):
        config = write_config(tmp_path, TRACE_TEXT + "dt = 0.01\noutput = trace.csv\n")
        out = tmp_path / "trace.csv"
        assert main([str(config), "--output", str(out), "--quiet"]) == 0
        return out

    def test_row_count_and_columns(self, trace_csv):
        header, rows = read_rows(trace_csv)
        assert header == list(cli.TRACE_COLUMNS)
        assert len(rows) == 5001

    def test_initial_row_has_full_coherence(self, trace_csv):
        _, rows = read_rows(trace_csv)
        assert float(rows[0]["t"]) == 0.0
        assert float(rows[0]["abs_z"]) == 1.0
        assert float(rows[0]["re_z"]) == 1.0
        assert float(rows[0]["im_z"]) == 0.0

    def test_populations_time_independent(self, trace_csv):
        _, rows = read_rows(trace_csv)
        pp = {row["rho_pp"] for row in rows}
        mm = {row["rho_mm"] for row in rows}
        assert len(pp) == 1 and len(mm) == 1

    def test_provenance_comment(self, trace_csv):
        first = trace_csv.read_text().splitlines()[0]
        assert first.startswith("# einlab ")
        assert re.search(r"config_sha256=[0-9a-f]{64}", first)

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path, TRACE_TEXT + "dt = 0.05\n")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([str(config), "--output", str(out1), "--quiet"]) == 0
        assert main([str(config), "--output", str(out2), "--quiet"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_eigenstate_trace_keeps_coherence(self, tmp_path):
        text = (
            "mode = trace\nn = 6\nscenario = eigenstate\ng = 1.0\nt_max = 10\ndt = 0.01\n"
        )
        config = write_config(tmp_path, text)
        out = tmp_path / "eig.csv"
        assert main([str(config), "--output", str(out), "--quiet"]) == 0
        _, rows = read_rows(out)
        assert all(abs(float(row["abs_z"]) - 1.0) < 1e-12 for row in rows)


class TestOtherModes:
    def test_recurrence_csv(self, tmp_path):
        text = (
            "mode = recurrence\nn = 50\nscenario = balanced\ng = 0.5\n"
            "t_start = 0.1\nt_max = 4\ndt = 0.001\nthreshold = 0.999\noutput = rec.csv\n"
        )
        config = write_config(tmp_path, text)
        out = tmp_path / "rec.csv"
        assert main([str(config), "--output", str(out), "--quiet"]) == 0
        header, rows = read_rows(out)
        assert header == ["threshold", "found", "t_found", "scanned_points"]
        assert rows[0]["found"] == "1"
        assert float(rows[0]["t_found"]) == pytest.approx(math.pi, abs=0.05)

    def test_recurrence_none_found(self, tmp_path):
        text = (
            "mode = recurrence\nn = 20\nscenario = random\nseed = 42\ng_max = 1.0\n"
            "t_start = 1\nt_max = 200\ndt = 0.01\n"
        )
        config = write_config(tmp_path, text)
        out = tmp_path / "rec.csv"
        assert main([str(config), "--output", str(out), "--quiet"]) == 0
        _, rows = read_rows(out)
        assert rows[0]["found"] == "0"
        assert rows[0]["t_found"] == "nan"

    def test_ensemble_csv_matches_prediction_columns(self, tmp_path):
        text = "mode = ensemble\nn = 20\nseeds = 20\ng_max = 1.0\nt_max = 2000\n"
        config = write_config(tmp_path, text)
        out = tmp_path / "ens.csv"
        assert main([str(config), "--output", str(out), "--quiet"]) == 0
        header, rows = read_rows(out)
        assert header == ["seed", "mean_abs_z_sq", "predicted_mean_abs_z_sq", "sup_abs_z_late"]
        assert len(rows) == 20
        assert [int(r["seed"]) for r in rows] == list(range(1, 21))
        for row in rows:
            emp = float(row["mean_abs_z_sq"])
            pred = float(row["predicted_mean_abs_z_sq"])
            # both sides are ~1e-4 here; 5% of the full coherence-squared
            # scale is the reading that is attainable at this t_max
            assert abs(emp - pred) <= 0.05

    def test_ensemble_csv_small_scale_relative_match(self, tmp_path):
        text = "mode = ensemble\nn = 3\nseeds = 30\ng_max = 1.0\nt_max = 2000\n"
        config = write_config(tmp_path, text)
        out = tmp_path / "ens3.csv"
        assert main([str(config), "--output", str(out), "--quiet"]) == 0
        _, rows = read_rows(out)
        within = sum(
            abs(float(r["mean_abs_z_sq"]) - float(r["predicted_mean_abs_z_sq"]))
            <= 0.05 * float(r["predicted_mean_abs_z_sq"])
            for r in rows
        )
        assert within >= 27

    @pytest.mark.parametrize("grid", ["t_max = 5\ndt = 3\n", "t_max = 1e-320\n"])
    def test_ensemble_late_window_holds_the_last_point(self, tmp_path, capsys, grid):
        # grid (0, 3) ends before the trailing quarter [3.75, 5], and 1e-320
        # leaves one point; both printed a traceback and exited 1 before
        config = write_config(tmp_path, "mode = ensemble\nn = 2\nseeds = 1\ng_max = 1\n" + grid)
        out = tmp_path / "late.csv"
        assert main([str(config), "--output", str(out), "--quiet"]) == 0
        assert capsys.readouterr().err == ""
        _, rows = read_rows(out)
        assert len(rows) == 1
        assert 0.0 <= float(rows[0]["sup_abs_z_late"]) <= 1.0

    def test_sweep_csv(self, tmp_path):
        text = (
            "mode = sweep\nn = 2, 8\nseeds = 10\ng_max = 1.0\nt_start = 20\nt_max = 40\n"
        )
        config = write_config(tmp_path, text)
        out = tmp_path / "sweep.csv"
        assert main([str(config), "--output", str(out), "--quiet"]) == 0
        header, rows = read_rows(out)
        assert header == ["n", "median_sup_abs_z"]
        assert [int(r["n"]) for r in rows] == [2, 8]
        assert float(rows[0]["median_sup_abs_z"]) > float(rows[1]["median_sup_abs_z"])

    def test_verify_mode_passes(self, tmp_path):
        text = "mode = verify\nn = 8\nseed = 7\ng_max = 1.0\n"
        config = write_config(tmp_path, text)
        out = tmp_path / "verify.csv"
        assert main([str(config), "--output", str(out), "--quiet"]) == 0
        content = out.read_text()
        match = re.search(r"# max_deviation=([0-9.e+-]+)", content)
        assert match is not None
        assert float(match.group(1)) < 1e-10
        _, rows = read_rows(out)
        assert len(rows) == 100
        assert all(row["passed"] == "1" for row in rows)

    def test_verify_mode_deterministic(self, tmp_path):
        text = "mode = verify\nn = 5\nseed = 3\ng_max = 1.0\n"
        config = write_config(tmp_path, text)
        out1, out2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
        assert main([str(config), "--output", str(out1), "--quiet"]) == 0
        assert main([str(config), "--output", str(out2), "--quiet"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_verify_failure_exits_two(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "VERIFY_TOLERANCE", 1e-30)
        text = "mode = verify\nn = 4\nseed = 7\ng_max = 1.0\n"
        config = write_config(tmp_path, text)
        out = tmp_path / "verify.csv"
        assert main([str(config), "--output", str(out), "--quiet"]) == 2
        assert out.exists()  # the failure report itself is still written


class TestMainEntry:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.cfg")]) == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_config_error_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path, "mode = warp\n")
        assert main([str(config)]) == 1
        assert "unknown mode" in capsys.readouterr().err

    def test_missing_output_exits_one(self, tmp_path, capsys):
        config = write_config(tmp_path, TRACE_TEXT + "dt = 0.5\n")
        assert main([str(config)]) == 1
        assert "output" in capsys.readouterr().err

    def test_unwritable_output_leaves_no_partial_file(self, tmp_path, capsys):
        config = write_config(tmp_path, TRACE_TEXT + "dt = 0.5\n")
        missing = tmp_path / "no_such_dir" / "out.csv"
        assert main([str(config), "--output", str(missing)]) == 1
        assert not missing.parent.exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_foreign_temp_file_survives_a_run(self, tmp_path):
        config = write_config(tmp_path, TRACE_TEXT + "dt = 0.5\n")
        out = tmp_path / "out.csv"
        foreign = tmp_path / "out.csv.tmp"
        foreign.write_text("another run's partial output")
        assert main([str(config), "--output", str(out), "--quiet"]) == 0
        assert foreign.read_text() == "another run's partial output"
        assert out.read_text().startswith("# einlab ")
        assert list(tmp_path.glob("*.tmp")) == [foreign]

    def test_output_gets_the_default_file_mode(self, tmp_path):
        config = write_config(tmp_path, TRACE_TEXT + "dt = 0.5\n")
        out = tmp_path / "out.csv"
        assert main([str(config), "--output", str(out), "--quiet"]) == 0
        umask = os.umask(0o022)
        os.umask(umask)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize("mask", [0o077, 0o002], ids=["umask077", "umask002"])
    def test_output_mode_follows_the_umask_without_setting_it(self, tmp_path, monkeypatch, mask):
        # os.umask sets the mask of the whole process, so it may not be used
        # even to read the mask: a file another thread creates meanwhile
        # would get the wrong mode
        config = write_config(tmp_path, TRACE_TEXT + "dt = 0.5\n")
        out = tmp_path / "out.csv"
        set_umask = os.umask

        def forbidden(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", forbidden)
        old = set_umask(mask)
        try:
            assert main([str(config), "--output", str(out), "--quiet"]) == 0
            # a second run replaces the first run's file
            assert main([str(config), "--output", str(out), "--quiet"]) == 0
        finally:
            set_umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == 0o666 & ~mask
        assert list(tmp_path.glob("*.tmp")) == []

    def test_temp_names_in_use_are_skipped(self, tmp_path, monkeypatch):
        config = write_config(tmp_path, TRACE_TEXT + "dt = 0.5\n")
        out = tmp_path / "out.csv"
        monkeypatch.setattr(cli, "_TEMP_SUFFIXES", itertools.count())
        taken = [Path(f"{out}.{os.getpid()}.{k}.tmp") for k in range(2)]
        for path in taken:
            path.write_text("another run's partial output")
        assert main([str(config), "--output", str(out), "--quiet"]) == 0
        assert out.read_text().startswith("# einlab ")
        assert all(path.read_text() == "another run's partial output" for path in taken)
        assert sorted(tmp_path.glob("*.tmp")) == taken

    def test_no_free_temp_name_exits_one(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path, TRACE_TEXT + "dt = 0.5\n")
        out = tmp_path / "out.csv"
        monkeypatch.setattr(cli, "_TEMP_SUFFIXES", itertools.count())
        monkeypatch.setattr(cli, "_TEMP_TRIES", 3)
        for k in range(3):
            Path(f"{out}.{os.getpid()}.{k}.tmp").write_text("taken")
        assert main([str(config), "--output", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("einlab: cannot write output: ")
        assert not out.exists()
        assert len(list(tmp_path.glob("*.tmp"))) == 3

    def test_failed_write_removes_its_temp_file(self, tmp_path, monkeypatch, capsys):
        config = write_config(tmp_path, TRACE_TEXT + "dt = 0.5\n")
        out = tmp_path / "out.csv"
        out.write_text("the last good output")
        written = []

        def short_then_full_disk(fd, data):
            if written:
                raise OSError(errno.ENOSPC, "No space left on device")
            written.append(fd)
            return os_write(fd, data[:100])  # a short write is carried on

        os_write = os.write
        monkeypatch.setattr(os, "write", short_then_full_disk)
        assert main([str(config), "--output", str(out), "--quiet"]) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert out.read_text() == "the last good output"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_config_that_is_not_utf8_exits_one(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"# \xff\n" + TRACE_TEXT.encode() + b"dt = 0.5\n")
        out = tmp_path / "out.csv"
        assert main([str(config), "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("einlab: cannot read config: ")
        assert "0xff" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_unknown_key_exits_one_under_optimize(self, tmp_path):
        # -O strips asserts; the key check must not be one
        config = write_config(tmp_path, TRACE_TEXT + "dt = 0.5\nextra = 1\n")
        out = tmp_path / "out.csv"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "einlab.cli", str(config), "--output", str(out)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1
        assert "extra" in proc.stderr
        assert not out.exists()

    def test_output_key_in_config(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, TRACE_TEXT + "dt = 0.5\noutput = from_key.csv\n")
        assert main([str(config), "--quiet"]) == 0
        assert (tmp_path / "from_key.csv").exists()

    def test_summary_line_and_quiet(self, tmp_path, capsys):
        config = write_config(tmp_path, TRACE_TEXT + "dt = 0.5\n")
        out = tmp_path / "t.csv"
        assert main([str(config), "--output", str(out)]) == 0
        assert "trace:" in capsys.readouterr().out
        assert main([str(config), "--output", str(out), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_recurrence_summary_reports_spin_points(self, tmp_path, capsys):
        text = (
            "mode = recurrence\nn = 20\nscenario = random\nseed = 42\ng_max = 1.0\n"
            "t_start = 1\nt_max = 200\ndt = 0.01\n"
        )
        config = write_config(tmp_path, text)
        quiet, loud = tmp_path / "quiet.csv", tmp_path / "loud.csv"
        assert main([str(config), "--output", str(quiet), "--quiet"]) == 0
        assert main([str(config), "--output", str(loud)]) == 0
        line = capsys.readouterr().out
        match = re.search(
            r"window_points=(\d+) spin_points=(\d+) of n\*scanned_points=(\d+)", line
        )
        assert match, line
        window_points, spin_points, most = map(int, match.groups())
        assert 0 < spin_points < most == 20 * 19900
        # the grid has 19900 steps; a range's window survivors past a hit
        # count too, so scanned_points is no bound
        assert 0 < window_points <= spin_points and window_points <= 19900
        assert loud.read_bytes() == quiet.read_bytes()

    def test_verify_summary_names_worst_case(self, tmp_path, capsys):
        config = write_config(tmp_path, "mode = verify\nn = 6\nseed = 11\ng_max = 1.0\n")
        quiet, loud = tmp_path / "quiet.csv", tmp_path / "loud.csv"
        assert main([str(config), "--output", str(quiet), "--quiet"]) == 0
        assert main([str(config), "--output", str(loud)]) == 0
        line = capsys.readouterr().out
        match = re.search(r"max_deviation=(\S+) at case=(\d+) env_seed=(\d+) t=(\S+) PASS", line)
        assert match, line
        _, rows = read_rows(loud)
        deviations = [float(r["max_deviation"]) for r in rows]
        worst = rows[deviations.index(max(deviations))]  # the first case reaching the maximum
        assert (worst["case"], worst["env_seed"], worst["t"]) == match.group(2, 3, 4)
        assert float(match.group(1)) == pytest.approx(max(deviations), rel=1e-3)
        assert loud.read_bytes() == quiet.read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_verify_summary_names_a_nan_case(self, tmp_path, capsys):
        # g_max = 1e307 overflows the phases of some cases to nan; nan is the
        # worst deviation, though every comparison with it is false
        config = write_config(tmp_path, "mode = verify\nn = 3\nseed = 1\ng_max = 1e307\n")
        out = tmp_path / "verify.csv"
        assert main([str(config), "--output", str(out)]) == 2
        line = capsys.readouterr().out
        text = out.read_text()
        assert text.splitlines()[-1] == "# max_deviation=nan tolerance=1e-10"
        _, rows = read_rows(out)
        nan_rows = [r for r in rows if r["max_deviation"] == "nan"]
        assert 0 < len(nan_rows) < len(rows)
        first = nan_rows[0]
        assert f"max_deviation=nan at case={first['case']} env_seed={first['env_seed']} " \
            f"t={first['t']} FAIL" in line

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out == "einlab 0.2.1\n"

    def test_consecutive_calls_parse_afresh(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, TRACE_TEXT + "dt = 0.5\noutput = from_key.csv\n")
        override = tmp_path / "override.csv"
        assert main([str(config), "--output", str(override), "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        # neither --output nor --quiet carries over to the next call
        assert main([str(config)]) == 0
        assert capsys.readouterr().out.endswith(" -> from_key.csv\n")
        assert main([str(config), "--quiet"]) == 0
        assert capsys.readouterr().out == ""
        assert (tmp_path / "from_key.csv").read_bytes() == override.read_bytes()
        assert cli._argument_parser() is cli._argument_parser()

    @pytest.mark.parametrize("flag", ["--version", "--help"])
    def test_version_and_help_are_the_same_after_a_run(self, tmp_path, capsys, flag):
        def flag_text():
            with pytest.raises(SystemExit) as excinfo:
                main([flag])
            assert excinfo.value.code == 0
            return capsys.readouterr().out

        cli._argument_parser.cache_clear()
        fresh = flag_text()
        config = write_config(tmp_path, TRACE_TEXT + "dt = 0.5\n")
        assert main([str(config), "--output", str(tmp_path / "out.csv"), "--quiet"]) == 0
        assert flag_text() == fresh
        assert fresh.startswith("einlab" if flag == "--version" else "usage: einlab")

    def test_unknown_flag_exits_two(self, tmp_path, capsys):
        config = write_config(tmp_path, TRACE_TEXT + "dt = 0.5\n")
        out = tmp_path / "out.csv"
        assert main([str(config), "--output", str(out), "--quiet"]) == 0
        for _ in range(2):
            with pytest.raises(SystemExit) as excinfo:
                main([str(config), "--output", str(out), "--bogus"])
            assert excinfo.value.code == 2
            assert "unrecognized arguments: --bogus" in capsys.readouterr().err

    def test_run_requires_output(self):
        config = parse_config(TRACE_TEXT + "dt = 0.5\n")
        assert run(config, quiet=True) == 1


# Config text -> exit code and stderr line, as the commit before the key and
# mode tables gave them (two marked rows excepted): the code comes from where
# an error is raised, not from its class.
EXIT_TABLE = [
    # raised while reading the config: exit 1
    ("mode trace\n", 1, "line 1: expected 'key = value', got 'mode trace'"),
    ("mode = trace\nwibble = 3\n", 1, "line 2: unknown key 'wibble'"),
    ("mode = trace\nn = 2\nn = 3\n", 1, "line 3: duplicate key 'n'"),
    ("mode = trace\nn =  # none\n", 1, "line 2: key 'n' has no value"),
    ("n = 3\n", 1, "required key 'mode' is missing"),
    ("mode = warp\n", 1, "line 1: unknown mode 'warp'"),
    ("mode = trace\nn = two\n", 1, "line 2: key 'n' needs an integer, got 'two'"),
    ("mode = trace\nn = -2\n", 1, "key 'n' must be non-negative, got -2"),
    ("mode = sweep\nn = 10, 5\n", 1, "key 'n' must be strictly ascending in sweep mode, got 10, 5"),
    ("mode = trace\nn = 2, 3\n", 1, "key 'n' takes a single count outside sweep mode, got 2, 3"),
    ("mode = trace\nn = ,\n", 1, "key 'n' takes a single count outside sweep mode, got ,"),
    ("mode = trace\nseed = x\n", 1, "line 2: key 'seed' needs an integer, got 'x'"),
    ("mode = trace\nseed = -3\n", 1, "key 'seed' must be an unsigned 64-bit integer, got -3"),
    ("mode = ensemble\nseeds = 1, x\n", 1, "line 2: key 'seeds' needs an integer, got 'x'"),
    ("mode = sweep\nseeds = 1, 2\n", 1, "sweep mode takes 'seeds' as a count, not a list"),
    ("mode = sweep\nseeds = 0\n", 1, "key 'seeds' must be a positive count, got 0"),
    ("mode = ensemble\nseeds = 0\n", 1, "key 'seeds' names no seeds: '0'"),
    ("mode = ensemble\nseeds = 1, -1\n", 1, "every seed must be an unsigned 64-bit integer"),
    ("mode = trace\nscenario = chaotic\n", 1, "line 2: unknown scenario 'chaotic'"),
    ("mode = trace\ng = abc\n", 1, "line 2: key 'g' needs a number, got 'abc'"),
    ("mode = trace\ng_max = inf\n", 1, "key 'g_max' must be finite, got inf"),
    ("mode = trace\ng_min = nan\n", 1, "key 'g_min' must be finite, got nan"),
    ("mode = trace\ng = 0\n", 1, "key 'g' must be positive, got 0"),
    ("mode = trace\nt_max = -1\n", 1, "key 't_max' must be positive, got -1"),
    ("mode = trace\na_sq = 1.5\n", 1, "key 'a_sq' must lie in [0, 1], got 1.5"),
    ("mode = trace\nt_start = -1\n", 1, "key 't_start' must be non-negative, got -1"),
    ("mode = trace\nthreshold = 0\n", 1, "key 'threshold' must lie in (0, 1], got 0"),
    # several bad values: the first in parse order is reported, not the first line
    ("mode = trace\nthreshold = 5\nt_start = -1\ndt = 0\ng_max = -1\n", 1,
     "key 'g_max' must be positive, got -1"),
    ("mode = trace\nscenario = chaotic\nseed = y\nn = x\n", 1,
     "line 4: key 'n' needs an integer, got 'x'"),
    ("mode = trace\nn = 2\nscenario = random\nseed = 1\ng_max = 1.0\n", 1,
     "mode 'trace' requires key 't_max'"),
    ("mode = trace\nn = 2\nscenario = random\ng_max = 1.0\nt_max = 5\n", 1,
     "mode 'trace' requires key 'seed'"),
    ("mode = recurrence\nn = 2\nscenario = random\nseed = 1\nt_max = 5\n", 1,
     "mode 'recurrence' requires key 'g_max'"),
    ("mode = trace\nn = 2\nscenario = balanced\nt_max = 5\n", 1, "mode 'trace' requires key 'g'"),
    ("mode = trace\nscenario = balanced\ng = 1\n", 1, "mode 'trace' requires key 'n'"),
    ("mode = ensemble\nn = 2\ng_max = 1.0\nt_max = 5\n", 1, "mode 'ensemble' requires key 'seeds'"),
    ("mode = sweep\nseeds = 2\ng_max = 1.0\nt_max = 5\n", 1, "mode 'sweep' requires key 'n'"),
    ("mode = sweep\nn = 2, 3\ng_max = 1.0\nt_max = 5\n", 1, "mode 'sweep' requires key 'seeds'"),
    ("mode = verify\nn = 2\nseed = 1\n", 1, "mode 'verify' requires key 'g_max'"),
    ("mode = recurrence\nn = 2\nscenario = balanced\ng = 1.0\nt_max = 5\n", 1,
     "recurrence mode requires t_start > 0 (set it explicitly)"),
    ("mode = sweep\nn = 2\nseeds = 2\ng_max = 1.0\nt_start = 5\nt_max = 5\n", 1,
     "sweep mode needs a window with t_start < t_max"),
    ("mode = trace\nn = 2\nscenario = balanced\ng = 1.0\nt_start = 9\nt_max = 5\n", 1,
     "need t_start <= t_end, got [9.0, 5.0]"),
    # default dt = pi / 2e301: the step count overflows (exit 2 from the runner before)
    ("mode = trace\nn = 2\nscenario = balanced\ng = 1e300\nt_max = 1e300\n", 1,
     "grid [0.0, 1e+300] with dt = 1.5707963267948965e-301 has no finite step count"),
    # dt below 4 ulps of the times: rows with repeated t (exit 2 from the runner before)
    ("mode = trace\nn = 2\nscenario = balanced\ng = 1.0\nt_start = 1e16\n"
     "t_max = 1.000000000000001e16\ndt = 1\n", 1,
     "grid [1e+16, 1.000000000000001e+16] with dt = 1.0 repeats points; dt must be at least 8.0"),
    # phases 4 g t that overflow to nan: nan rows and a recurrence answer read
    # from nan values (exit 0 before); the grid's own errors still come first
    ("mode = trace\nn = 3\nseed = 1\nscenario = random\ng_max = 1e307\nt_max = 20\ndt = 1\n", 1,
     "phases can overflow: 8 * g_max * t_max must be finite"),
    ("mode = recurrence\nn = 3\nseed = 1\nscenario = random\ng_max = 1e307\nt_start = 1\n"
     "t_max = 20\ndt = 1\n", 1,
     "phases can overflow: 8 * g_max * t_max must be finite"),
    ("mode = trace\nn = 2\nscenario = balanced\ng = 1e300\ng_max = 1\nt_max = 1e9\ndt = 1e6\n", 1,
     "phases can overflow: 8 * g * t_max must be finite"),
    # an empty spin-count list in sweep mode (exit 2 from scaling_sweep before)
    ("mode = sweep\nn = ,\nseeds = 2\ng_max = 1.0\nt_start = 1\nt_max = 5\n", 1,
     "key 'n' names no spin counts: ','"),
    # raised while running: exit 2
    ("mode = ensemble\nn = 2\nseeds = 2\ng_min = 2\ng_max = 1\nt_max = 5\n", 2,
     "need 0 < g_min <= g_max, got g_min=2.0, g_max=1.0"),
    ("mode = verify\nn = 25\nseed = 1\ng_max = 1.0\n", 2,
     "25 spins would need 2**26 amplitudes; cap is 24"),
]

@pytest.mark.parametrize("mode", ("sweep", "ensemble"))
@pytest.mark.parametrize("count", (10**12, 10**30))
def test_a_huge_seed_count_is_a_range_error(tmp_path, capsys, mode, count):
    # rejected before 1..count is expanded: a MemoryError or OverflowError before
    text = f"mode = {mode}\nn = 2\nseeds = {count}\ng_max = 1.0\nt_start = 1\nt_max = 5\n"
    out = tmp_path / "out.csv"
    assert main([str(write_config(tmp_path, text)), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"einlab: key 'seeds' names more than {MAX_SEEDS} seeds\n"
    assert not out.exists()


def test_seed_cap_holds_at_parse_time_and_in_the_sweep(tmp_path, capsys):
    text = "mode = ensemble\nn = 2\nseeds = {}\ng_max = 1.0\nt_max = 5\n"
    assert len(parse_config(text.format(MAX_SEEDS)).seeds) == MAX_SEEDS
    with pytest.raises(InvalidRangeError, match="more than"):
        parse_config(text.format(MAX_SEEDS + 1))
    with pytest.raises(InvalidRangeError, match="more than"):
        parse_config(text.format(", ".join(["1"] * (MAX_SEEDS + 1))))
    # a run handed more seeds than the parser allows stops in scaling_sweep
    sweep = parse_config("mode = sweep\nn = 2\nseeds = 3\ng_max = 1.0\nt_start = 1\nt_max = 5\n")
    out = tmp_path / "out.csv"
    huge = dataclasses.replace(sweep, seeds=range(1, MAX_SEEDS + 2), output=str(out))
    assert run(huge) == 2
    assert capsys.readouterr().err == f"einlab: need 1 to {MAX_SEEDS} seeds per n, got {MAX_SEEDS + 1}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "text",
    [
        "mode = trace\nn = 3\nseed = 1\nscenario = random\ng_max = 1e306\nt_max = 20\ndt = 1\n",
        "mode = recurrence\nn = 3\nseed = 1\nscenario = random\ng_max = 1e306\nt_start = 1\n"
        "t_max = 20\ndt = 1\n",
        "mode = ensemble\nn = 3\nseeds = 3\ng_max = 1e306\nt_max = 20\ndt = 1\n",
        "mode = sweep\nn = 2, 3\nseeds = 3\ng_max = 1e306\nt_start = 1\nt_max = 20\ndt = 1\n",
    ],
    ids=["trace", "recurrence", "ensemble", "sweep"],
)
def test_phases_just_inside_the_overflow_limit_run(tmp_path, text):
    # 8 * g_max * t_max = 1.6e308: every phase 4 g t is finite, so no cell is
    # nan and no overflow warning is raised
    out = tmp_path / "out.csv"
    assert main([str(write_config(tmp_path, text)), "--output", str(out), "--quiet"]) == 0
    assert "nan" not in out.read_text()


@pytest.mark.parametrize("text,code,message", EXIT_TABLE)
def test_exit_code_and_message(tmp_path, capsys, text, code, message):
    config = write_config(tmp_path, text)
    out = tmp_path / "out.csv"
    assert main([str(config), "--output", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.err == f"einlab: {message}\n"
    assert captured.out == ""
    assert not out.exists()
