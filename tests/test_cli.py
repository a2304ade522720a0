import math
import os
import re
import stat

import pytest

import einlab.cli as cli
from einlab import (
    MissingColumnError,
    MissingKeyError,
    ParseError,
    RangeError,
    ScenarioKind,
)
from einlab.cli import emit_svg_plot, main, parse_config, run

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
        assert config.t_max == 50.0
        assert config.a_sq == 0.5
        assert config.threshold == 0.9
        assert config.dt == pytest.approx(math.pi / 20.0)
        assert config.g_min == pytest.approx(0.05)
        assert config.t_start == 0.0
        assert len(config.digest) == 64

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nmode = verify  # trailing\nn = 2\nseed = 5\ng_max = 1.0\n"
        config = parse_config(text)
        assert config.mode == "verify"
        assert config.n == 2

    def test_negative_spin_count(self):
        with pytest.raises(RangeError):
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
        with pytest.raises(RangeError):
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
        assert config.seeds_per_n == 4

    def test_sweep_rejects_seed_list(self):
        text = "mode = sweep\nn = 5, 10\nseeds = 1, 2\ng_max = 1.0\nt_start = 50\nt_max = 100\n"
        with pytest.raises(RangeError):
            parse_config(text)

    def test_sweep_rejects_descending_counts(self):
        text = "mode = sweep\nn = 10, 5\nseeds = 4\ng_max = 1.0\nt_start = 50\nt_max = 100\n"
        with pytest.raises(RangeError):
            parse_config(text)

    def test_n_list_rejected_outside_sweep(self):
        with pytest.raises(RangeError):
            parse_config("mode = trace\nn = 2, 3\nscenario = balanced\ng = 1.0\nt_max = 5\n")

    def test_recurrence_requires_positive_t_start(self):
        text = "mode = recurrence\nn = 2\nscenario = balanced\ng = 1.0\nt_max = 5\n"
        with pytest.raises(RangeError, match="t_start"):
            parse_config(text)

    def test_t_start_beyond_t_max(self):
        text = "mode = trace\nn = 2\nscenario = balanced\ng = 1.0\nt_start = 9\nt_max = 5\n"
        with pytest.raises(RangeError):
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

    def test_unhandled_key_exits_one(self, tmp_path, monkeypatch, capsys):
        # a key the scanner admits but no parser branch consumes; -O must not hide it
        monkeypatch.setattr(cli, "_KEYS", cli._KEYS + ("extra",))
        config = write_config(tmp_path, TRACE_TEXT + "dt = 0.5\nextra = 1\n")
        assert main([str(config), "--output", str(tmp_path / "out.csv")]) == 1
        assert "extra" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

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

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "einlab" in capsys.readouterr().out

    def test_run_requires_output(self):
        config = parse_config(TRACE_TEXT + "dt = 0.5\n")
        assert run(config, quiet=True) == 1


class TestSvgPlot:
    @pytest.fixture()
    def trace_csv(self, tmp_path):
        config = write_config(tmp_path, TRACE_TEXT + "dt = 0.1\n")
        out = tmp_path / "trace.csv"
        assert main([str(config), "--output", str(out), "--quiet"]) == 0
        return out

    @staticmethod
    def polyline_points(svg_text):
        match = re.search(r'points="([^"]+)"', svg_text)
        assert match is not None
        return [tuple(map(float, pair.split(","))) for pair in match.group(1).split()]

    def test_polyline_starts_at_full_coherence(self, trace_csv, tmp_path):
        out = tmp_path / "plot.svg"
        emit_svg_plot(str(trace_csv), "abs_z", str(out))
        svg = out.read_text()
        points = self.polyline_points(svg)
        # t = 0 maps to the left margin; |z| = 1 is the top of the y range
        assert points[0][0] == pytest.approx(70.0, abs=0.01)
        assert points[0][1] == min(p[1] for p in points)

    def test_missing_column(self, trace_csv, tmp_path):
        with pytest.raises(MissingColumnError):
            emit_svg_plot(str(trace_csv), "no_such_column", str(tmp_path / "x.svg"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            emit_svg_plot(str(tmp_path / "absent.csv"), "abs_z", str(tmp_path / "x.svg"))

    def test_constant_series_flattens(self, tmp_path):
        text = "mode = trace\nn = 5\nscenario = eigenstate\ng = 1.0\nt_max = 10\ndt = 0.1\n"
        config = write_config(tmp_path, text)
        csv_path = tmp_path / "eig.csv"
        assert main([str(config), "--output", str(csv_path), "--quiet"]) == 0
        out = tmp_path / "eig.svg"
        emit_svg_plot(str(csv_path), "abs_z", str(out))
        ys = {p[1] for p in self.polyline_points(out.read_text())}
        assert len(ys) == 1

    def test_label_carries_column_and_digest(self, trace_csv, tmp_path):
        out = tmp_path / "plot.svg"
        emit_svg_plot(str(trace_csv), "purity", str(out))
        svg = out.read_text()
        digest = re.search(r"config_sha256=([0-9a-f]{64})", trace_csv.read_text()).group(1)
        assert "purity vs t" in svg
        assert digest[:12] in svg

    def test_deterministic_output(self, trace_csv, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg_plot(str(trace_csv), "abs_z", str(a))
        emit_svg_plot(str(trace_csv), "abs_z", str(b))
        assert a.read_bytes() == b.read_bytes()
