"""Span tracing and the arithmetic behind the benchmark's metrics.

The traced run replaces einlab functions, at the module attribute each
caller looks up, with wrappers that record one span per call: name, start,
end, parent span and job id, plus counts taken from the arguments and the
result.  Spans stay in memory and are written out when the run ends.
A span's self time is its duration minus the durations of its child spans:
the wrapped calls run on one thread, so a span's children run one after
another inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field


def percentile(values, q: float) -> float:
    """q-th percentile (0..100), linear between closest ranks (numpy's default)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str
    counts: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> list[float]:
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


# Counts taken at the layer boundaries, from (args, result).
def _env_spins(args, result):
    return {"spins": result.n}


def _kernel(args, result):
    env, times = args[0], args[1]
    points = getattr(times, "size", 1)
    return {"points": points, "spin_points": env.n * points, "bytes": env.n * result.nbytes}


def _amplitudes(args, result):
    return {"amplitudes": result.amplitudes.size}


def _exit(args, result):
    return {"exit": result}


def _csv(args, result):
    text = args[1]
    data_lines = sum(1 for line in text.splitlines() if line and not line.startswith("#"))
    return {"rows": max(data_lines - 1, 0), "bytes": len(text.encode("utf-8"))}


# (module, attribute, span name, counter): every name the CLI's call paths look up.
TARGETS = (
    ("einlab.cli", "main", "cli.main", _exit),
    ("einlab.cli", "parse_config", "cli.parse_config", None),
    ("einlab.cli", "run", "cli.run", None),
    ("einlab.cli", "_write_atomic", "cli.write", _csv),
    ("einlab.cli", "build_environment_random", "model.build_environment_random", _env_spins),
    ("einlab.cli", "build_environment_scenario", "model.build_environment_scenario", _env_spins),
    ("einlab.cli", "validate", "model.validate", None),
    ("einlab.ensemble", "build_environment_random", "model.build_environment_random", _env_spins),
    ("einlab.cli", "decoherence_factor", "analytic.decoherence_factor", None),
    ("einlab.analytic", "decoherence_factor", "analytic.decoherence_factor", None),
    ("einlab.analytic", "decoherence_series", "analytic.decoherence_series", _kernel),
    ("einlab.ensemble", "decoherence_abs_sq", "analytic.decoherence_abs_sq", _kernel),
    ("einlab.cli", "reduced_density_matrix", "analytic.reduced_density_matrix", None),
    ("einlab.oracle", "reduced_density_matrix", "analytic.reduced_density_matrix", None),
    ("einlab.cli", "state_metrics", "analytic.state_metrics", None),
    ("einlab.cli", "recurrence_search", "ensemble.recurrence_search", None),
    ("einlab.cli", "ensemble_statistics", "ensemble.ensemble_statistics", None),
    ("einlab.cli", "scaling_sweep", "ensemble.scaling_sweep", None),
    ("einlab.cli", "crosscheck", "oracle.crosscheck", None),
    ("einlab.oracle", "assemble_full_state", "oracle.assemble_full_state", _amplitudes),
    ("einlab.oracle", "evolve_full", "oracle.evolve_full", None),
    ("einlab.oracle", "partial_trace_to_system", "oracle.partial_trace_to_system", None),
)


class Tracer:
    """Records spans for calls through the installed wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = ""
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, clock(), 0.0, stack[-1] if stack else None, self.job)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, counter in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "job": s.job, "counts": s.counts}))
                fh.write("\n")


# name -> unit; the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = {
    "model.build_s": "s",
    "model.envs_built": "count",
    "model.spins_built": "count",
    "analytic.series_s": "s",
    "analytic.series_calls": "count",
    "analytic.rho_s": "s",
    "analytic.rho_calls": "count",
    "analytic.abs_sq_s": "s",
    "analytic.abs_sq_calls": "count",
    "analytic.spin_points": "count",
    "analytic.spin_points_per_s": "1/s",
    "analytic.bytes_computed": "bytes",
    "ensemble.self_s": "s",
    "ensemble.points_scanned": "count",
    "ensemble.kernel_share": "ratio",
    "ensemble.seeds": "count",
    "oracle.assemble_s": "s",
    "oracle.evolve_s": "s",
    "oracle.partial_trace_s": "s",
    "oracle.closed_form_s": "s",
    "oracle.cases": "count",
    "oracle.amplitudes": "count",
    "oracle.amplitudes_per_s": "1/s",
    "cli.parse_s": "s",
    "cli.self_s": "s",
    "cli.write_s": "s",
    "cli.rows": "count",
    "cli.csv_bytes": "bytes",
    "cli.rows_per_s": "1/s",
    "cli.errors": "count",
    "tracing_overhead_s": "s",
}

_ENV_BUILDS = ("model.build_environment_random", "model.build_environment_scenario")
_SCANS = ("ensemble.recurrence_search", "ensemble.ensemble_statistics", "ensemble.scaling_sweep")


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[Span], passes: int, scale: list[float] | None = None) -> dict[str, float]:
    """Per-layer metrics per pass over the workload's jobs (all but tracing overhead).

    ``scale`` holds each span's factor from wall seconds to reported seconds
    (1 when omitted); run.py scales each traced pass to reference-host seconds.
    """
    scale = scale or [1.0] * len(spans)
    selfs = [own * k for own, k in zip(self_times(spans), scale)]
    self_s = defaultdict(float)  # span name -> summed self time
    calls = defaultdict(int)
    counts = defaultdict(float)  # "span name/count key" -> sum
    in_scan = defaultdict(float)  # kernel time, points and envs under an ensemble scan
    scan_total = 0.0
    closed_form = 0.0
    errors = 0
    main_total = 0.0
    for s, own, k in zip(spans, selfs, scale):
        duration = (s.end - s.start) * k
        self_s[s.name] += own
        calls[s.name] += 1
        for key, value in s.counts.items():
            counts[f"{s.name}/{key}"] += value
        parent = spans[s.parent].name if s.parent is not None else None
        if s.name in _SCANS:
            scan_total += duration
        elif parent in _SCANS and s.name == "analytic.decoherence_abs_sq":
            in_scan["kernel_s"] += duration
            in_scan["points"] += s.counts.get("points", 0)
        elif parent in _SCANS and s.name in _ENV_BUILDS:
            in_scan["envs"] += 1
        elif parent == "oracle.crosscheck" and s.name == "analytic.reduced_density_matrix":
            closed_form += duration
        elif s.name == "cli.main":
            main_total += duration
            errors += s.counts.get("exit") != 0

    def total(*names):
        return sum(self_s[n] for n in names)

    series_s = total("analytic.decoherence_series", "analytic.decoherence_factor")
    abs_sq_s = total("analytic.decoherence_abs_sq")
    spin_points = counts["analytic.decoherence_series/spin_points"] + counts[
        "analytic.decoherence_abs_sq/spin_points"
    ]
    oracle_s = total("oracle.assemble_full_state", "oracle.evolve_full", "oracle.partial_trace_to_system")
    amplitudes = counts["oracle.assemble_full_state/amplitudes"]
    rows = counts["cli.write/rows"]
    per_pass = {
        "model.build_s": total(*_ENV_BUILDS, "model.validate"),
        "model.envs_built": sum(calls[n] for n in _ENV_BUILDS),
        "model.spins_built": sum(counts[f"{n}/spins"] for n in _ENV_BUILDS),
        "analytic.series_s": series_s,
        "analytic.series_calls": calls["analytic.decoherence_series"],
        "analytic.rho_s": total("analytic.reduced_density_matrix", "analytic.state_metrics"),
        "analytic.rho_calls": calls["analytic.reduced_density_matrix"],
        "analytic.abs_sq_s": abs_sq_s,
        "analytic.abs_sq_calls": calls["analytic.decoherence_abs_sq"],
        "analytic.spin_points": spin_points,
        "analytic.bytes_computed": counts["analytic.decoherence_series/bytes"]
        + counts["analytic.decoherence_abs_sq/bytes"],
        "ensemble.self_s": total(*_SCANS),
        "ensemble.points_scanned": in_scan["points"],
        "ensemble.seeds": in_scan["envs"],
        "oracle.assemble_s": self_s["oracle.assemble_full_state"],
        "oracle.evolve_s": self_s["oracle.evolve_full"],
        "oracle.partial_trace_s": self_s["oracle.partial_trace_to_system"],
        "oracle.closed_form_s": closed_form,
        "oracle.cases": calls["oracle.crosscheck"],
        "oracle.amplitudes": amplitudes,
        "cli.parse_s": total("cli.main", "cli.parse_config"),
        "cli.self_s": self_s["cli.run"],
        "cli.write_s": self_s["cli.write"],
        "cli.rows": rows,
        "cli.csv_bytes": counts["cli.write/bytes"],
        "cli.errors": errors,
    }
    out = {name: value / passes for name, value in per_pass.items()}
    out["analytic.spin_points_per_s"] = _ratio(spin_points, series_s + abs_sq_s)
    out["ensemble.kernel_share"] = _ratio(in_scan["kernel_s"], scan_total)
    out["oracle.amplitudes_per_s"] = _ratio(amplitudes, oracle_s)
    out["cli.rows_per_s"] = _ratio(rows, main_total)
    return out
