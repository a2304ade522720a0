"""Tests of the benchmark's own logic; run with ``python -m pytest perfbench``.

None of these import einlab: the checker is exercised on CSV text built
from the reference itself.
"""

import hashlib
import math
import statistics

import numpy as np
import pytest

from jobs import WORKLOADS, Job, make_jobs
from metrics import Span, Tracer, layer_metrics, percentile, self_times
from reference import check, draw_environment, sweep_reference, z_series


def test_self_time_subtracts_children():
    spans = [
        Span("root", 0.0, 10.0, None, "j"),
        Span("a", 1.0, 4.0, 0, "j"),
        Span("a.child", 2.0, 3.0, 1, "j"),
        Span("b", 5.0, 9.0, 0, "j"),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


@pytest.mark.parametrize("values", [[3.0], [4.0, 1.0], [5.0, 1.0, 3.0, 2.0], list(range(11))])
def test_percentile_matches_numpy(values):
    for q in (0, 25, 50, 75, 90, 100):
        assert percentile(values, q) == pytest.approx(float(np.percentile(values, q)))
    assert percentile(values, 50) == pytest.approx(statistics.median(values))


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tracer_records_parents_counts_and_restores():
    class Module:
        @staticmethod
        def inner(x):
            return x + 1

        @staticmethod
        def outer(x):
            return Module.inner(x) * 2

    tracer = Tracer()
    Module.inner = tracer.wrap("m.inner", Module.inner, lambda args, result: {"in": args[0]})
    outer = tracer.wrap("m.outer", Module.outer)
    tracer.job = "job-1"
    assert outer(3) == 8
    inner, = (s for s in tracer.spans if s.name == "m.inner")
    assert tracer.spans[0].name == "m.outer" and inner.parent == 0
    assert inner.counts == {"in": 3} and inner.job == "job-1"
    assert all(s.end >= s.start for s in tracer.spans)


def test_layer_metrics_from_synthetic_spans():
    spans = [
        Span("cli.main", 0.0, 10.0, None, "0/a", {"exit": 0}),
        Span("cli.run", 1.0, 9.0, 0, "0/a"),
        Span("ensemble.recurrence_search", 2.0, 8.0, 1, "0/a"),
        Span("analytic.decoherence_abs_sq", 3.0, 6.0, 2, "0/a", {"points": 100, "spin_points": 400, "bytes": 3200}),
        Span("cli.main", 10.0, 11.0, None, "0/b", {"exit": 2}),
    ]
    m = layer_metrics(spans, passes=1)
    assert m["analytic.abs_sq_s"] == pytest.approx(3.0)
    assert m["ensemble.self_s"] == pytest.approx(3.0)
    assert m["ensemble.kernel_share"] == pytest.approx(0.5)
    assert m["ensemble.points_scanned"] == 100
    assert m["analytic.spin_points_per_s"] == pytest.approx(400 / 3.0)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["cli.parse_s"] == pytest.approx(2.0 + 1.0)
    assert m["cli.errors"] == 1
    halved = layer_metrics(spans, passes=2)
    assert halved["analytic.abs_sq_s"] == pytest.approx(1.5)
    doubled = layer_metrics(spans, passes=1, scale=[2.0] * len(spans))
    assert doubled["analytic.abs_sq_s"] == pytest.approx(6.0)
    assert doubled["analytic.spin_points_per_s"] == pytest.approx(400 / 6.0)
    assert doubled["ensemble.kernel_share"] == pytest.approx(0.5)


def test_same_seed_same_jobs():
    for workload in WORKLOADS:
        assert make_jobs(workload, 7) == make_jobs(workload, 7)
        assert make_jobs(workload, 7) != make_jobs(workload, 8)


def _fmt(v):
    return f"{v:.17g}"


def _trace_csv(job: Job, config: str) -> str:
    """A correct trace CSV, written from the reference's own closed forms."""
    n, seed, a_sq = int(job.param("n")), int(job.param("seed")), float(job.param("a_sq"))
    g, d = draw_environment(n, seed, 0.05, 1.0)
    times = (math.pi / 20.0) * np.arange(job.rows)
    z = z_series(g, d, times)
    a, b = math.sqrt(a_sq), math.sqrt(1.0 - a_sq)
    lines = [
        f"# einlab 0.1.0 mode=trace config_sha256={hashlib.sha256(config.encode()).hexdigest()}",
        "t,re_z,im_z,abs_z,rho_pp,rho_mm,abs_rho_pm,purity,entropy",
    ]
    for t, zt in zip(times, z):
        c = abs(zt) * a * b
        root = math.sqrt((a * a - b * b) ** 2 + 4 * c * c)
        lam = [(1 + root) / 2, (1 - root) / 2]
        entropy = -sum(x * math.log(x) for x in lam if x > 0)
        row = (t, zt.real, zt.imag, abs(zt), a_sq, 1 - a_sq, c, a_sq**2 + (1 - a_sq) ** 2 + 2 * c * c, entropy)
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


@pytest.fixture
def trace_case():
    params = (("mode", "trace"), ("scenario", "random"), ("seed", "12345"), ("g_max", "1.0"),
              ("a_sq", "0.3"), ("n", "6"), ("t_max", "3.15"))
    job = Job("t", params, work=6 * 21, rows=21, outputs=21)
    config = job.config_text("out.csv")
    return job, config, _trace_csv(job, config)


def test_checker_accepts_a_correct_trace(trace_case):
    job, config, csv = trace_case
    assert all(o.ok for o in check(job, config, csv))


def test_checker_rejects_a_corrupted_value(trace_case):
    job, config, csv = trace_case
    lines = csv.split("\n")
    fields = lines[7].split(",")
    fields[1] = _fmt(float(fields[1]) + 1e-9)  # re_z of row 5
    lines[7] = ",".join(fields)
    outcomes = check(job, config, "\n".join(lines))
    assert [o.label for o in outcomes if not o.ok] == ["row 5"]
    assert "re_z" in outcomes[5].note


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda csv: csv[: csv.rindex("\n", 0, -1) + 1],  # last row missing
        lambda csv: csv.replace("config_sha256=", "config_sha256=0", 1)[:-1] + "\n",  # bad digest
        lambda csv: csv.replace("\n", "\r\n"),  # CRLF line endings
        lambda csv: csv.replace("abs_z", "absz", 1),  # header renamed
    ],
)
def test_checker_fails_every_output_of_a_malformed_csv(trace_case, corrupt):
    job, config, csv = trace_case
    outcomes = check(job, config, corrupt(csv))
    assert len(outcomes) == job.outputs and not any(o.ok for o in outcomes)


def test_sweep_zero_where_reference_is_representable_is_underflow():
    params = (("mode", "sweep"), ("n", "50, 2000"), ("seeds", "3"), ("g_max", "1.0"),
              ("g_min", "0.05"), ("t_start", "50"), ("t_max", "52"))
    job = Job("s", params, work=0, rows=2, outputs=2)
    config = job.config_text("out.csv")
    times = 50.0 + (math.pi / 20.0) * np.arange(13)
    small = sweep_reference(50, 3, 0.05, 1.0, times)
    large = sweep_reference(2000, 3, 0.05, 1.0, times)
    assert 0.0 < large < 1e-200
    head = f"# einlab 0.1.0 mode=sweep config_sha256={hashlib.sha256(config.encode()).hexdigest()}\n"
    csv = head + f"n,median_sup_abs_z\n50,{_fmt(small)}\n2000,0\n"
    good, bad = check(job, config, csv)
    assert good.ok
    assert (bad.ok, bad.label, bad.note) == (False, "n=2000", "underflow")
    wrong = check(job, config, csv.replace(_fmt(small), _fmt(small * (1 + 1e-6))))
    assert not wrong[0].ok and wrong[0].note != "underflow"


class FakeCli:
    """Stands in for einlab.cli: writes the given CSV texts in turn to the config's output."""

    def __init__(self, texts):
        self.texts = list(texts)

    def main(self, argv):
        config = open(argv[0], encoding="utf-8").read()
        output = config.split("output = ", 1)[1].strip()
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.texts.pop(0))
        return 0


def test_runner_counts_checks_and_determinism(tmp_path):
    from run import Runner

    job = make_jobs("trace", 1)[0]
    config = job.config_text(str(tmp_path / f"{job.name}.csv"))
    good = _trace_csv(job, config)
    runner = Runner(FakeCli([good, good]), "trace", 1, tmp_path)
    assert runner.run(0)[0] and runner.run(0)[0]
    assert runner.verdict() == (True, job.outputs + 1, 0)  # same bytes twice: checked once

    lines = good.split("\n")
    lines[3] = lines[3].replace(",", ",9", 1)  # corrupt row 1
    runner = Runner(FakeCli([good, "\n".join(lines)]), "trace", 1, tmp_path)
    runner.run(0)
    runner.run(0)
    correct, attempted, failed = runner.verdict()
    assert not correct and attempted == 2 * job.outputs + 1  # two distinct CSVs
    assert failed == 1 + 1  # the corrupted row, and the two runs' CSVs differ

    runner = Runner(FakeCli([good] * 5), "trace", 1, tmp_path)
    for _ in range(5):
        runner.run(0)
    assert runner.verdict() == (True, job.outputs + 1, 0)  # no more outputs for more runs
