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
functions give point by point.  Each chunk's rows come from one ``%``
template of ``%.17g`` fields; a column that is bit-constant within the chunk
is formatted once, into the template.  The bytes are those of formatting
every cell on its own.

Modes write CSV only: `.` decimal separator, fixed column order, LF line
endings, 17 significant digits, and a leading provenance comment carrying
the artifact version and the SHA-256 of the config text.  Identical config
text yields byte-identical output.

Exit codes follow where an error is raised, not its class: 0 success; 1 for
an error raised while reading the config (a value out of range raises the
one range error, :class:`~einlab.errors.InvalidRangeError`), a missing
output path or a file that cannot be read or written; 2 for an error raised
while running (the library's range checks included) or a failed verify.

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
from typing import Callable

import numpy as np

from . import __version__
from .analytic import trace_columns

# Unused here, but the benchmark's traced run patches them as einlab.cli.<name>.
from .analytic import decoherence_factor, reduced_density_matrix, state_metrics  # noqa: F401
from .ensemble import TimeGrid, ensemble_statistics, recurrence_search, scaling_sweep
from .errors import (
    EinlabError,
    InvalidRangeError,
    MissingColumnError,
    MissingKeyError,
    ParseError,
)
from .model import (
    DEFAULT_G_MIN_FRACTION,
    ScenarioKind,
    SystemAmplitudes,
    build_environment_random,
    build_environment_scenario,
    validate,
)
from .oracle import crosscheck, crosscheck_buffers

VERIFY_CASES = 100
VERIFY_T_MAX = 20.0
VERIFY_TOLERANCE = 1e-10

TRACE_COLUMNS = ("t", "re_z", "im_z", "abs_z", "rho_pp", "rho_mm", "abs_rho_pm", "purity", "entropy")

# Grid points per trace_columns call and per row template.  Any size gives
# the same bytes; the chunk bounds the memory that one call's arrays and row
# lists take, however long the grid is.  A column is formatted once when it is
# bit-constant within its chunk, so a last chunk of one row is one literal.
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


def _parse_int(key: str, raw: str, line_no: int) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(line_no, f"key '{key}' needs an integer, got '{raw}'") from None


def _parse_ints(key: str, raw: str, line_no: int) -> list[int]:
    """The comma-separated integers of ``raw``; empty items are skipped."""
    return [_parse_int(key, p.strip(), line_no) for p in raw.split(",") if p.strip()]


# A key parser takes (key, raw value, line number, mode) and returns the
# RunConfig fields it sets.
_Parser = Callable[[str, str, int, str], dict[str, object]]


def _parse_text(key: str, raw: str, line_no: int, mode: str) -> dict[str, object]:
    return {key: raw}


def _parse_n(key: str, raw: str, line_no: int, mode: str) -> dict[str, object]:
    counts = tuple(_parse_ints(key, raw, line_no))
    if any(c < 0 for c in counts):
        raise InvalidRangeError(f"key 'n' must be non-negative, got {raw}")
    if mode == "sweep":
        if not counts:
            raise InvalidRangeError(f"key 'n' names no spin counts: '{raw}'")
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise InvalidRangeError(f"key 'n' must be strictly ascending in sweep mode, got {raw}")
        return {"ns": counts}
    if len(counts) != 1:
        raise InvalidRangeError(f"key 'n' takes a single count outside sweep mode, got {raw}")
    return {"n": counts[0]}


def _parse_seed(key: str, raw: str, line_no: int, mode: str) -> dict[str, object]:
    seed = _parse_int(key, raw, line_no)
    if not 0 <= seed < 2**64:
        raise InvalidRangeError(f"key 'seed' must be an unsigned 64-bit integer, got {raw}")
    return {"seed": seed}


def _parse_seeds(key: str, raw: str, line_no: int, mode: str) -> dict[str, object]:
    numbers = _parse_ints(key, raw, line_no)
    explicit = "," in raw or len(numbers) != 1
    if mode == "sweep":
        if explicit:
            raise InvalidRangeError("sweep mode takes 'seeds' as a count, not a list")
        if numbers[0] < 1:
            raise InvalidRangeError(f"key 'seeds' must be a positive count, got {raw}")
        return {"seeds_per_n": numbers[0]}
    seeds = tuple(numbers) if explicit else tuple(range(1, numbers[0] + 1))
    if not seeds:
        raise InvalidRangeError(f"key 'seeds' names no seeds: '{raw}'")
    if any(not 0 <= s < 2**64 for s in seeds):
        raise InvalidRangeError("every seed must be an unsigned 64-bit integer")
    return {"seeds": seeds}


def _parse_scenario(key: str, raw: str, line_no: int, mode: str) -> dict[str, object]:
    try:
        return {"scenario": ScenarioKind(raw)}
    except ValueError:
        raise ParseError(line_no, f"unknown scenario '{raw}'") from None


def _number(allowed: Callable[[float], bool], rule: str) -> _Parser:
    """Parser for a finite number that ``allowed`` accepts; the message reads
    "key 'x' must <rule>" otherwise."""

    def parse(key: str, raw: str, line_no: int, mode: str) -> dict[str, object]:
        try:
            value = float(raw)
        except ValueError:
            raise ParseError(line_no, f"key '{key}' needs a number, got '{raw}'") from None
        if not math.isfinite(value):
            raise InvalidRangeError(f"key '{key}' must be finite, got {raw}")
        if not allowed(value):
            raise InvalidRangeError(f"key '{key}' must {rule}, got {raw}")
        return {key: value}

    return parse


_positive = _number(lambda v: v > 0.0, "be positive")

# Keys in parse order: with several bad values, the first key here is reported.
_KEYS: dict[str, _Parser] = {
    "mode": _parse_text,
    "n": _parse_n,
    "seed": _parse_seed,
    "seeds": _parse_seeds,
    "scenario": _parse_scenario,
    "g": _positive,
    "g_min": _positive,
    "g_max": _positive,
    "t_max": _positive,
    "dt": _positive,
    "a_sq": _number(lambda v: 0.0 <= v <= 1.0, "lie in [0, 1]"),
    "t_start": _number(lambda v: v >= 0.0, "be non-negative"),
    "threshold": _number(lambda v: 0.0 < v <= 1.0, "lie in (0, 1]"),
    "output": _parse_text,
}


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
    mode, line_no = raw["mode"]
    if mode not in _MODE_TABLE:
        raise ParseError(line_no, f"unknown mode '{mode}'")
    fields: dict[str, object] = {}
    for key, parse in _KEYS.items():
        if key in raw:
            fields.update(parse(key, *raw[key], mode))

    required = _MODE_TABLE[mode][1]
    if "scenario" in required:
        random_scenario = fields.get("scenario") is ScenarioKind.RANDOM
        required += ("seed", "g_max") if random_scenario else ("g",)
    for key in required:
        if key not in raw:
            raise MissingKeyError(f"mode '{mode}' requires key '{key}'")

    g_fast = fields.get("g_max", fields.get("g"))
    if g_fast is not None:
        fields.setdefault("dt", math.pi / (20.0 * g_fast))
    if "g_max" in fields:
        fields.setdefault("g_min", DEFAULT_G_MIN_FRACTION * fields["g_max"])
    config = RunConfig(digest=hashlib.sha256(text.encode("utf-8")).hexdigest(), **fields)

    if mode == "recurrence" and config.t_start <= 0.0:
        raise InvalidRangeError("recurrence mode requires t_start > 0 (set it explicitly)")
    if mode == "sweep" and config.t_start >= config.t_max:
        raise InvalidRangeError("sweep mode needs a window with t_start < t_max")
    if config.t_max is not None and config.t_start > config.t_max:
        raise InvalidRangeError(f"t_start = {config.t_start} exceeds t_max = {config.t_max}")
    return config


def _format(value: float) -> str:
    return f"{value:.17g}"


def _chunk_lines(columns: tuple[np.ndarray, ...]) -> list[str]:
    """CSV rows of equal-length, non-empty float columns, each cell as
    :func:`_format` prints it.

    The rows come from one ``%`` template.  A column whose values are all
    bit-identical is formatted once, into the template; every other column
    is a ``%.17g`` field, which prints what ``_format`` does.  Identity is
    tested on the bits, not with ``==``: a column mixing ``0.0`` and ``-0.0``
    prints both ``0`` and ``-0``.
    """
    fields = []
    varying = []
    for column in columns:
        bits = column.view(np.int64)
        if (bits == bits[0]).all():
            fields.append(_format(float(column[0])))
        else:
            fields.append("%.17g")
            varying.append(column.tolist())
    template = ",".join(fields)
    if not varying:
        return [template] * columns[0].size
    return [template % row for row in zip(*varying)]


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


# A mode runner returns the CSV lines after the provenance comment, the
# summary line and whether the run passed.
_Result = tuple[list[str], str, bool]


def _run_trace(config: RunConfig) -> _Result:
    sys_amp = _system_amplitudes(config)
    env = _build_environment(config)
    report = validate(sys_amp, env)
    if not report.ok:
        raise EinlabError("; ".join(report.failures))
    grid = TimeGrid(config.t_start, config.t_max, config.dt)
    lines = [",".join(TRACE_COLUMNS)]
    for times in grid.chunks(TRACE_CHUNK):
        lines.extend(_chunk_lines(trace_columns(sys_amp, env, times)))
    return lines, f"trace: n={env.n} rows={grid.steps() + 1}", True


def _run_recurrence(config: RunConfig) -> _Result:
    env = _build_environment(config)
    grid = TimeGrid(config.t_start, config.t_max, config.dt)
    report = recurrence_search(env, config.threshold, grid)
    found_time = report.found if report.found is not None else float("nan")
    lines = [
        "threshold,found,t_found,scanned_points",
        "%.17g,%d,%.17g,%d"
        % (report.threshold, report.found is not None, found_time, report.scanned_points),
    ]
    if report.found is not None:
        summary = f"recurrence: |z| >= {config.threshold} first at t={report.found:.6g}"
    else:
        summary = (
            f"recurrence: no |z| >= {config.threshold} in ({grid.t_start}, {grid.t_end}]"
        )
    summary += (
        f" (spin_points={report.spin_points} of n*scanned_points="
        f"{env.n * report.scanned_points})"
    )
    return lines, summary, True


def _run_ensemble(config: RunConfig) -> _Result:
    grid = TimeGrid(config.t_start, config.t_max, config.dt)
    report = ensemble_statistics(config.n, config.seeds, grid, config.g_min, config.g_max)
    quantile_text = " ".join(
        f"q{int(round(q * 100)):02d}={_format(v)}" for q, v in report.abs_z_quantiles
    )
    lines = [
        f"# abs_z_quantiles {quantile_text}",
        f"# median_sup_abs_z_late={_format(report.median_sup_abs_z_late)}",
        "seed,mean_abs_z_sq,predicted_mean_abs_z_sq,sup_abs_z_late",
    ]
    for s in report.per_seed:
        lines.append(
            "%d,%.17g,%.17g,%.17g"
            % (s.seed, s.mean_abs_z_sq, s.predicted_mean_abs_z_sq, s.sup_abs_z_late)
        )
    summary = (
        f"ensemble: n={report.n} seeds={len(report.seeds)} "
        f"median_sup_abs_z_late={report.median_sup_abs_z_late:.6g}"
    )
    return lines, summary, True


def _run_sweep(config: RunConfig) -> _Result:
    window = TimeGrid(config.t_start, config.t_max, config.dt)
    table = scaling_sweep(config.ns, config.seeds_per_n, window, config.g_min, config.g_max)
    lines = ["n,median_sup_abs_z"]
    lines.extend("%d,%.17g" % row for row in table)
    summary = "sweep: " + " ".join(f"n={n}:{median:.3g}" for n, median in table)
    return lines, summary, True


def _run_verify(config: RunConfig) -> _Result:
    """Drive the brute-force crosscheck on seeded random cases.

    Case stream: PCG64(seed) supplies, per case, an environment seed, a
    Bloch-uniform system state and a time in [0, 20).
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    lines = ["case,env_seed,t,max_deviation,passed"]
    worst = 0.0
    worst_case = None
    all_passed = True
    buffers = None
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
        if buffers is None:
            # after the first build, so a bad coupling range is still reported first
            buffers = crosscheck_buffers(config.n)
        report = crosscheck(sys_amp, env, t, VERIFY_TOLERANCE, buffers)
        if worst_case is None or report.max_deviation > worst:
            worst_case = f"case={case} env_seed={env_seed} t={_format(t)}"
        worst = max(worst, report.max_deviation)
        all_passed = all_passed and report.passed
        lines.append(
            "%d,%d,%.17g,%.17g,%d" % (case, env_seed, t, report.max_deviation, report.passed)
        )
    lines.append(f"# max_deviation={_format(worst)} tolerance={_format(VERIFY_TOLERANCE)}")
    verdict = "PASS" if all_passed else "FAIL"
    summary = f"verify: cases={VERIFY_CASES} max_deviation={worst:.3e} at {worst_case} {verdict}"
    return lines, summary, all_passed


# mode -> (runner, keys it requires); requiring 'scenario' also requires
# 'seed' and 'g_max' for the random scenario, else 'g'.
_MODE_TABLE: dict[str, tuple[Callable[[RunConfig], _Result], tuple[str, ...]]] = {
    "trace": (_run_trace, ("n", "scenario", "t_max")),
    "recurrence": (_run_recurrence, ("n", "scenario", "t_max")),
    "ensemble": (_run_ensemble, ("n", "seeds", "t_max", "g_max")),
    "sweep": (_run_sweep, ("n", "seeds", "t_max", "g_max")),
    "verify": (_run_verify, ("n", "seed", "g_max")),
}


def run(config: RunConfig, quiet: bool = False) -> int:
    """Execute a parsed configuration; returns the process exit code."""
    if config.output is None:
        _sys.stderr.write("einlab: no output path (config key 'output' or --output)\n")
        return 1
    try:
        lines, summary, ok = _MODE_TABLE[config.mode][0](config)
    except EinlabError as exc:
        _sys.stderr.write(f"einlab: {exc}\n")
        return 2
    try:
        _write_atomic(config.output, "\n".join([_provenance(config), *lines]) + "\n")
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
    except EinlabError as exc:
        _sys.stderr.write(f"einlab: {exc}\n")
        return 1
    if args.output is not None:
        config = dataclasses.replace(config, output=args.output)
    return run(config, quiet=args.quiet)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
