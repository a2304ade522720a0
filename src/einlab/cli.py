"""Batch front door: ``einlab <config-path>``.

Run configurations are plain text, one ``key = value`` per line, with ``#``
starting a comment.  Unknown keys are rejected.  Keys:

    mode        trace | recurrence | ensemble | sweep | verify   (required)
    n           spin count; comma-separated ascending list in sweep mode
    seed        environment seed (random scenario, verify)
    seeds       either a count K (meaning seeds 1..K) or an explicit
                comma-separated list; sweep mode takes the count form only
    scenario    random | eigenstate | balanced
    g           coupling for the fixed-form scenarios
    g_min       lower coupling bound (default 0.05 * g_max)
    g_max       upper coupling bound (random scenario)
    a_sq        system population |a|^2, with a, b real >= 0 (default 0.5)
    t_start     grid start (default 0; recurrence mode requires it > 0)
    t_max       grid end
    dt          grid spacing (default pi / (20 * g_max), resolving the
                fastest oscillation)
    threshold   recurrence threshold in (0, 1] (default 0.9)
    output      CSV destination (may instead come from --output)

Trace mode computes its rows in chunks of grid points as arrays
(:func:`einlab.analytic.trace_columns`), with the same bytes as the scalar
functions give point by point.

Modes write CSV only: `.` decimal separator, fixed column order, LF line
endings, 17 significant digits, and a leading provenance comment carrying
the artifact version and the SHA-256 of the config text.  Identical config
text yields byte-identical output.  Exit codes: 0 success, 1 config or
usage error, 2 validation or numeric failure.

:func:`emit_svg_plot` renders one CSV column against t as a standalone SVG;
it is library-level (the command-line surface stays the single config
argument plus --output/--quiet/--version).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import math
import os
import sys as _sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import trace_columns

# Unused here, but the benchmark's traced run patches them as einlab.cli.<name>.
from .analytic import decoherence_factor, reduced_density_matrix, state_metrics  # noqa: F401
from .ensemble import TimeGrid, ensemble_statistics, recurrence_search, scaling_sweep
from .errors import (
    ConfigError,
    EinlabError,
    MissingColumnError,
    MissingKeyError,
    ParseError,
    RangeError,
)
from .model import (
    DEFAULT_G_MIN_FRACTION,
    ScenarioKind,
    SystemAmplitudes,
    build_environment_random,
    build_environment_scenario,
    validate,
)
from .oracle import crosscheck

MODES = ("trace", "recurrence", "ensemble", "sweep", "verify")

_SCENARIOS = {
    "random": ScenarioKind.RANDOM,
    "eigenstate": ScenarioKind.EIGENSTATE,
    "balanced": ScenarioKind.BALANCED_EQUAL_COUPLING,
}

VERIFY_CASES = 100
VERIFY_T_MAX = 20.0
VERIFY_TOLERANCE = 1e-10

TRACE_COLUMNS = ("t", "re_z", "im_z", "abs_z", "rho_pp", "rho_mm", "abs_rho_pm", "purity", "entropy")

# Grid points per trace_columns call.  Keep it below 16384: from 256 KiB per
# complex128 operand numpy elides temporaries in decoherence_series, which
# moves z in the last place (15 135 of 16 384 points at n = 20), and the CSV
# would no longer match the point-by-point values.
TRACE_CHUNK = 8192


@dataclass(frozen=True)
class RunConfig:
    mode: str
    n: int | None = None
    ns: tuple[int, ...] | None = None
    seed: int | None = None
    seeds: tuple[int, ...] | None = None
    seeds_per_n: int | None = None
    scenario: ScenarioKind | None = None
    g: float | None = None
    g_min: float | None = None
    g_max: float | None = None
    a_sq: float = 0.5
    t_start: float = 0.0
    t_max: float | None = None
    dt: float | None = None
    threshold: float = 0.9
    output: str | None = None
    digest: str = ""


_KEYS = (
    "mode",
    "n",
    "seed",
    "seeds",
    "scenario",
    "g",
    "g_min",
    "g_max",
    "a_sq",
    "t_start",
    "t_max",
    "dt",
    "threshold",
    "output",
)


def _parse_int(key: str, raw: str, line_no: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(line_no, f"key '{key}' needs an integer, got '{raw}'") from None


def _parse_float(key: str, raw: str, line_no: int) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(line_no, f"key '{key}' needs a number, got '{raw}'") from None
    if not math.isfinite(value):
        raise RangeError(f"key '{key}' must be finite, got {raw}")
    return value


def _scan_lines(text: str) -> dict[str, tuple[str, int]]:
    """key -> (raw value, line number); rejects unknown and duplicate keys."""
    raw: dict[str, tuple[str, int]] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(line_no, f"expected 'key = value', got '{stripped}'")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ParseError(line_no, f"unknown key '{key}'")
        if key in raw:
            raise ParseError(line_no, f"duplicate key '{key}'")
        if not value:
            raise ParseError(line_no, f"key '{key}' has no value")
        raw[key] = (value, line_no)
    return raw


def parse_config(text: str) -> RunConfig:
    """Parse and validate a run configuration; fills the documented defaults."""
    raw = _scan_lines(text)

    if "mode" not in raw:
        raise MissingKeyError("required key 'mode' is missing")
    mode_raw, mode_line = raw.pop("mode")
    if mode_raw not in MODES:
        raise ParseError(mode_line, f"unknown mode '{mode_raw}'")
    mode = mode_raw

    fields: dict[str, object] = {"mode": mode}

    if "n" in raw:
        value, line_no = raw.pop("n")
        parts = [p.strip() for p in value.split(",") if p.strip()]
        counts = tuple(_parse_int("n", p, line_no) for p in parts)
        if any(c < 0 for c in counts):
            raise RangeError(f"key 'n' must be non-negative, got {value}")
        if mode == "sweep":
            if any(b <= a for a, b in zip(counts, counts[1:])):
                raise RangeError(f"key 'n' must be strictly ascending in sweep mode, got {value}")
            fields["ns"] = counts
        elif len(counts) == 1:
            fields["n"] = counts[0]
        else:
            raise RangeError(f"key 'n' takes a single count outside sweep mode, got {value}")

    if "seed" in raw:
        value, line_no = raw.pop("seed")
        seed = _parse_int("seed", value, line_no)
        if not 0 <= seed < 2**64:
            raise RangeError(f"key 'seed' must be an unsigned 64-bit integer, got {value}")
        fields["seed"] = seed

    if "seeds" in raw:
        value, line_no = raw.pop("seeds")
        parts = [p.strip() for p in value.split(",") if p.strip()]
        numbers = [_parse_int("seeds", p, line_no) for p in parts]
        explicit = "," in value or len(numbers) != 1
        if mode == "sweep":
            if explicit:
                raise RangeError("sweep mode takes 'seeds' as a count, not a list")
            if numbers[0] < 1:
                raise RangeError(f"key 'seeds' must be a positive count, got {value}")
            fields["seeds_per_n"] = numbers[0]
        else:
            seeds = tuple(numbers) if explicit else tuple(range(1, numbers[0] + 1))
            if not seeds:
                raise RangeError(f"key 'seeds' names no seeds: '{value}'")
            if any(not 0 <= s < 2**64 for s in seeds):
                raise RangeError("every seed must be an unsigned 64-bit integer")
            fields["seeds"] = seeds

    if "scenario" in raw:
        value, line_no = raw.pop("scenario")
        if value not in _SCENARIOS:
            raise ParseError(line_no, f"unknown scenario '{value}'")
        fields["scenario"] = _SCENARIOS[value]

    for key in ("g", "g_min", "g_max", "t_max", "dt"):
        if key in raw:
            value, line_no = raw.pop(key)
            number = _parse_float(key, value, line_no)
            if number <= 0.0:
                raise RangeError(f"key '{key}' must be positive, got {value}")
            fields[key] = number

    if "a_sq" in raw:
        value, line_no = raw.pop("a_sq")
        a_sq = _parse_float("a_sq", value, line_no)
        if not 0.0 <= a_sq <= 1.0:
            raise RangeError(f"key 'a_sq' must lie in [0, 1], got {value}")
        fields["a_sq"] = a_sq

    if "t_start" in raw:
        value, line_no = raw.pop("t_start")
        t_start = _parse_float("t_start", value, line_no)
        if t_start < 0.0:
            raise RangeError(f"key 't_start' must be non-negative, got {value}")
        fields["t_start"] = t_start

    if "threshold" in raw:
        value, line_no = raw.pop("threshold")
        threshold = _parse_float("threshold", value, line_no)
        if not 0.0 < threshold <= 1.0:
            raise RangeError(f"key 'threshold' must lie in (0, 1], got {value}")
        fields["threshold"] = threshold

    if "output" in raw:
        fields["output"] = raw.pop("output")[0]

    if raw:
        raise ConfigError(f"unhandled keys: {sorted(raw)}")

    fields["digest"] = hashlib.sha256(text.encode("utf-8")).hexdigest()
    config = RunConfig(**fields)  # type: ignore[arg-type]
    _check_required(config)
    return _fill_defaults(config)


_FIELD_TO_KEY = {"ns": "n", "seeds_per_n": "seeds"}


def _require(config: RunConfig, *fields: str) -> None:
    for field in fields:
        if getattr(config, field) is None:
            key = _FIELD_TO_KEY.get(field, field)
            raise MissingKeyError(f"mode '{config.mode}' requires key '{key}'")


def _check_required(config: RunConfig) -> None:
    mode = config.mode
    if mode in ("trace", "recurrence"):
        _require(config, "n", "scenario", "t_max")
        if config.scenario is ScenarioKind.RANDOM:
            _require(config, "seed", "g_max")
        else:
            _require(config, "g")
        if mode == "recurrence":
            if config.t_start <= 0.0:
                raise RangeError("recurrence mode requires t_start > 0 (set it explicitly)")
    elif mode == "ensemble":
        _require(config, "n", "seeds", "t_max", "g_max")
    elif mode == "sweep":
        _require(config, "ns", "seeds_per_n", "t_max", "g_max")
        if config.t_start >= config.t_max:
            raise RangeError("sweep mode needs a window with t_start < t_max")
    elif mode == "verify":
        _require(config, "n", "seed", "g_max")
    if config.t_max is not None and config.t_start > config.t_max:
        raise RangeError(f"t_start = {config.t_start} exceeds t_max = {config.t_max}")


def _fill_defaults(config: RunConfig) -> RunConfig:
    updates: dict[str, object] = {}
    g_fast = config.g_max if config.g_max is not None else config.g
    if config.dt is None and g_fast is not None:
        updates["dt"] = math.pi / (20.0 * g_fast)
    if config.g_min is None and config.g_max is not None:
        updates["g_min"] = DEFAULT_G_MIN_FRACTION * config.g_max
    return dataclasses.replace(config, **updates) if updates else config


def _format(value: float) -> str:
    return f"{value:.17g}"


def _provenance(config: RunConfig) -> str:
    return f"# einlab {__version__} mode={config.mode} config_sha256={config.digest}"


def _write_atomic(path: str, text: str) -> None:
    """All-or-nothing file write; a failed run never leaves a partial file.

    The temp file next to the target has a unique name, so two runs writing
    the same output never share one.
    """
    target = Path(path)
    fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp", dir=target.parent)
    try:
        with open(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        # mkstemp creates the file 0600; give the output the mode open() would
        umask = os.umask(0o022)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _build_environment(config: RunConfig):
    if config.scenario is ScenarioKind.RANDOM:
        return build_environment_random(config.n, config.seed, config.g_min, config.g_max)
    return build_environment_scenario(config.scenario, config.n, config.g)


def _system_amplitudes(config: RunConfig) -> SystemAmplitudes:
    a = math.sqrt(config.a_sq)
    b = math.sqrt(1.0 - config.a_sq)
    return SystemAmplitudes(complex(a), complex(b))


def _run_trace(config: RunConfig) -> tuple[str, str]:
    sys_amp = _system_amplitudes(config)
    env = _build_environment(config)
    report = validate(sys_amp, env)
    if not report.ok:
        raise EinlabError("; ".join(report.failures))
    grid = TimeGrid(config.t_start, config.t_max, config.dt)
    lines = [_provenance(config), ",".join(TRACE_COLUMNS)]
    for times in grid.chunks(TRACE_CHUNK):
        columns = [column.tolist() for column in trace_columns(sys_amp, env, times)]
        lines.extend(",".join(map(_format, row)) for row in zip(*columns))
    summary = f"trace: n={env.n} rows={grid.steps() + 1}"
    return "\n".join(lines) + "\n", summary


def _run_recurrence(config: RunConfig) -> tuple[str, str]:
    env = _build_environment(config)
    grid = TimeGrid(config.t_start, config.t_max, config.dt)
    report = recurrence_search(env, config.threshold, grid)
    found_time = report.found if report.found is not None else float("nan")
    lines = [
        _provenance(config),
        "threshold,found,t_found,scanned_points",
        ",".join(
            (
                _format(report.threshold),
                "1" if report.found is not None else "0",
                _format(found_time),
                str(report.scanned_points),
            )
        ),
    ]
    if report.found is not None:
        summary = f"recurrence: |z| >= {config.threshold} first at t={report.found:.6g}"
    else:
        summary = (
            f"recurrence: no |z| >= {config.threshold} in ({grid.t_start}, {grid.t_end}]"
        )
    return "\n".join(lines) + "\n", summary


def _run_ensemble(config: RunConfig) -> tuple[str, str]:
    grid = TimeGrid(config.t_start, config.t_max, config.dt)
    report = ensemble_statistics(config.n, config.seeds, grid, config.g_min, config.g_max)
    quantile_text = " ".join(
        f"q{int(round(q * 100)):02d}={_format(v)}" for q, v in report.abs_z_quantiles
    )
    lines = [
        _provenance(config),
        f"# abs_z_quantiles {quantile_text}",
        f"# median_sup_abs_z_late={_format(report.median_sup_abs_z_late)}",
        "seed,mean_abs_z_sq,predicted_mean_abs_z_sq,sup_abs_z_late",
    ]
    for s in report.per_seed:
        lines.append(
            ",".join(
                (
                    str(s.seed),
                    _format(s.mean_abs_z_sq),
                    _format(s.predicted_mean_abs_z_sq),
                    _format(s.sup_abs_z_late),
                )
            )
        )
    summary = (
        f"ensemble: n={report.n} seeds={len(report.seeds)} "
        f"median_sup_abs_z_late={report.median_sup_abs_z_late:.6g}"
    )
    return "\n".join(lines) + "\n", summary


def _run_sweep(config: RunConfig) -> tuple[str, str]:
    window = TimeGrid(config.t_start, config.t_max, config.dt)
    table = scaling_sweep(config.ns, config.seeds_per_n, window, config.g_min, config.g_max)
    lines = [_provenance(config), "n,median_sup_abs_z"]
    for n, median in table:
        lines.append(f"{n},{_format(median)}")
    summary = "sweep: " + " ".join(f"n={n}:{median:.3g}" for n, median in table)
    return "\n".join(lines) + "\n", summary


def _run_verify(config: RunConfig) -> tuple[str, str, bool]:
    """Drive the brute-force crosscheck on seeded random cases.

    Case stream: PCG64(seed) supplies, per case, an environment seed, a
    Bloch-uniform system state and a time in [0, 20).
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    lines = [_provenance(config), "case,env_seed,t,max_deviation,passed"]
    worst = 0.0
    all_passed = True
    for case in range(VERIFY_CASES):
        env_seed = int(rng.integers(0, 2**63, dtype=np.int64))
        u = rng.random(3)
        half_theta = 0.5 * math.acos(2.0 * u[0] - 1.0)
        sys_amp = SystemAmplitudes(
            complex(math.cos(half_theta)),
            complex(np.exp(2j * math.pi * u[1]) * math.sin(half_theta)),
        )
        t = VERIFY_T_MAX * u[2]
        env = build_environment_random(config.n, env_seed, config.g_min, config.g_max)
        report = crosscheck(sys_amp, env, t, VERIFY_TOLERANCE)
        worst = max(worst, report.max_deviation)
        all_passed = all_passed and report.passed
        lines.append(
            ",".join(
                (
                    str(case),
                    str(env_seed),
                    _format(t),
                    _format(report.max_deviation),
                    "1" if report.passed else "0",
                )
            )
        )
    lines.append(f"# max_deviation={_format(worst)} tolerance={_format(VERIFY_TOLERANCE)}")
    verdict = "PASS" if all_passed else "FAIL"
    summary = f"verify: cases={VERIFY_CASES} max_deviation={worst:.3e} {verdict}"
    return "\n".join(lines) + "\n", summary, all_passed


def run(config: RunConfig, quiet: bool = False) -> int:
    """Execute a parsed configuration; returns the process exit code."""
    if config.output is None:
        _sys.stderr.write("einlab: no output path (config key 'output' or --output)\n")
        return 1
    try:
        if config.mode == "trace":
            text, summary = _run_trace(config)
            ok = True
        elif config.mode == "recurrence":
            text, summary = _run_recurrence(config)
            ok = True
        elif config.mode == "ensemble":
            text, summary = _run_ensemble(config)
            ok = True
        elif config.mode == "sweep":
            text, summary = _run_sweep(config)
            ok = True
        elif config.mode == "verify":
            text, summary, ok = _run_verify(config)
        else:  # pragma: no cover - parse_config only admits the modes above
            raise AssertionError(config.mode)
    except EinlabError as exc:
        _sys.stderr.write(f"einlab: {exc}\n")
        return 2
    try:
        _write_atomic(config.output, text)
    except OSError as exc:
        _sys.stderr.write(f"einlab: cannot write output: {exc}\n")
        return 1
    if not quiet:
        print(f"{summary} -> {config.output}")
    return 0 if ok else 2


def _read_csv_table(csv_path: str) -> tuple[list[str], dict[str, np.ndarray], str]:
    """Header, column arrays and the provenance digest of an einlab CSV."""
    digest = "unknown"
    header: list[str] | None = None
    rows: list[list[str]] = []
    with open(csv_path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("#"):
                for token in line.split():
                    if token.startswith("config_sha256="):
                        digest = token.partition("=")[2]
                continue
            if header is None:
                header = [c.strip() for c in line.split(",")]
            else:
                rows.append(line.split(","))
    if header is None:
        raise MissingColumnError(f"{csv_path} holds no table")
    data = {
        name: np.array([float(r[i]) for r in rows]) for i, name in enumerate(header)
    }
    return header, data, digest


_SVG_WIDTH, _SVG_HEIGHT = 800, 480
_SVG_MARGIN = (70.0, 20.0, 40.0, 50.0)  # left, right, top, bottom


def _svg_axis_ticks(lo: float, hi: float) -> list[float]:
    return [lo + (hi - lo) * i / 4.0 for i in range(5)]


def emit_svg_plot(csv_path: str, column: str, out_path: str) -> str:
    """Render one CSV column against t as a standalone SVG polyline.

    The plot is labeled with the column name and the config digest recorded
    in the CSV's provenance comment.  Output is deterministic text.
    """
    header, data, digest = _read_csv_table(csv_path)
    for needed in ("t", column):
        if needed not in header:
            raise MissingColumnError(f"column '{needed}' not in {csv_path} (has {header})")
    x, y = data["t"], data[column]
    left, right, top, bottom = _SVG_MARGIN
    plot_w = _SVG_WIDTH - left - right
    plot_h = _SVG_HEIGHT - top - bottom
    x_lo, x_hi = float(np.min(x)), float(np.max(x))
    y_lo, y_hi = float(np.min(y)), float(np.max(y))
    # a numerically flat series must render flat, not as amplified noise
    if x_hi - x_lo <= 1e-9 * max(1.0, abs(x_lo), abs(x_hi)):
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo <= 1e-9 * max(1.0, abs(y_lo), abs(y_hi)):
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    def px(v: float) -> float:
        return left + (v - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return _SVG_HEIGHT - bottom - (v - y_lo) / (y_hi - y_lo) * plot_h

    points = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, y))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<text x="{left}" y="24" font-family="monospace" font-size="14">'
        f"{column} vs t (config {digest[:12]})</text>",
        f'<line x1="{left}" y1="{_SVG_HEIGHT - bottom}" x2="{_SVG_WIDTH - right}" '
        f'y2="{_SVG_HEIGHT - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{_SVG_HEIGHT - bottom}" stroke="black"/>',
    ]
    for tick in _svg_axis_ticks(x_lo, x_hi):
        tx = px(tick)
        parts.append(
            f'<line x1="{tx:.2f}" y1="{_SVG_HEIGHT - bottom}" x2="{tx:.2f}" '
            f'y2="{_SVG_HEIGHT - bottom + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{tx:.2f}" y="{_SVG_HEIGHT - bottom + 20}" font-family="monospace" '
            f'font-size="11" text-anchor="middle">{tick:.6g}</text>'
        )
    for tick in _svg_axis_ticks(y_lo, y_hi):
        ty = py(tick)
        parts.append(
            f'<line x1="{left - 5}" y1="{ty:.2f}" x2="{left}" y2="{ty:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{ty + 4:.2f}" font-family="monospace" font-size="11" '
            f'text-anchor="end">{tick:.6g}</text>'
        )
    parts.append(
        f'<text x="{_SVG_WIDTH - right}" y="{_SVG_HEIGHT - 10}" font-family="monospace" '
        f'font-size="12" text-anchor="end">t</text>'
    )
    parts.append(f'<polyline fill="none" stroke="#1f77b4" stroke-width="1.5" points="{points}"/>')
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    _write_atomic(out_path, text)
    return out_path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="einlab",
        description="Dephasing laboratory: run a batch configuration and write CSV.",
    )
    parser.add_argument("config", help="path to a key = value run configuration")
    parser.add_argument("--output", help="override the config's output path")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    parser.add_argument("--version", action="version", version=f"einlab {__version__}")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        _sys.stderr.write(f"einlab: cannot read config: {exc}\n")
        return 1
    try:
        config = parse_config(text)
    except ConfigError as exc:
        _sys.stderr.write(f"einlab: {exc}\n")
        return 1
    if args.output is not None:
        config = dataclasses.replace(config, output=args.output)
    return run(config, quiet=args.quiet)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
