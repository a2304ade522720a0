"""Batch front door: ``einlab <config-path>``.

Run configurations are plain text, one ``key = value`` per line, with ``#``
starting a comment.  Unknown keys are rejected.  Keys:

    mode        trace | recurrence | ensemble | sweep | verify   (required)
    n           spin count; comma-separated ascending list in sweep mode
    seed        environment seed (random scenario, verify)
    seeds       either a count K (meaning seeds 1..K) or an explicit
                comma-separated list of distinct seeds; sweep mode takes
                the count form only
    scenario    random | eigenstate | balanced
    g           coupling for the fixed-form scenarios
    g_min       lower coupling bound (default 0.05 * g_max)
    g_max       upper coupling bound (random scenario)
    a_sq        system population |a|^2, with a, b real >= 0 (default 0.5)
    t_start     grid start (default 0; recurrence mode requires it > 0)
    t_max       grid end
    dt          grid spacing (default pi / (20 * g) for the eigenstate and
                balanced scenarios, else pi / (20 * g_max), resolving the
                fastest oscillation)
    threshold   recurrence threshold in (0, 1] (default 0.9)
    output      CSV destination (may instead come from --output)

Trace mode computes its rows in chunks of grid points as arrays
(:func:`einlab.analytic.trace_columns`).  Its first seven columns have the
bytes the scalar functions give point by point; purity and entropy come in
closed form from the deficit ``D = 1 - |z|^2``, taken as ``1 - |z|^2`` where
``|z|^2 < 1/2`` and as a sum of ``log1p`` terms near ``|z| = 1``, within
4.5e-16 (purity, absolute) and a relative 1e-14 (entropy) of a 45-digit
evaluation at the same inputs.  The rows are printed as arrays too: each
cell's 17 significant digits come from an exact double-double product with
a power of ten, and its text from a table of cell layouts.  The bytes are
those of ``"%.17g" % x`` cell by cell; a row holding a cell the arrays
cannot prove (nan, an infinity, or a value within 2^-20 units of the 17th
digit of a rounding tie) is printed by Python's formatting.

Verify mode runs its cases in order on the calling thread: a crosscheck
allocates its own state and keeps nothing, so the oracle holds one
2^(n+1)-amplitude array at a time.  Ensemble and sweep modes hand out their
seeds, one whole seed per thread, to every CPU of the process's affinity
mask (:func:`einlab.analytic._hand_out`; ``taskset -c 0`` keeps them
serial), and their bytes do not depend on the CPU count; a
sweep seed evaluates all its spin counts in one kernel call that shares the
``cos(4 g t)`` rows of their common couplings.  A seed count may name at
most :data:`~einlab.ensemble.MAX_SEEDS` seeds.

Modes write CSV only: `.` decimal separator, fixed column order, LF line
endings, 17 significant digits, and a leading provenance comment carrying
the artifact version and the SHA-256 of the config text.  Identical config
text yields byte-identical output.

Exit codes follow where an error is raised, not its class: 0 success; 1 for
an error raised while reading the config (a value out of range raises the
one range error, :class:`~einlab.errors.InvalidRangeError`; the config's
:class:`~einlab.ensemble.TimeGrid` is built there too, so a grid with no
finite step count, with repeated points or with phases ``4 g t`` that can
overflow exits 1), a missing output path
or a file that cannot be read (a config that is not UTF-8 included) or
written; 2 for an error raised while running (the library's range checks
included, and an allocation the machine cannot make) or a failed verify.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import itertools
import math
import os
import sys as _sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .analytic import trace_columns

# Unused here, but the benchmark's traced run patches them as einlab.cli.<name>.
from .analytic import decoherence_factor, reduced_density_matrix, state_metrics  # noqa: F401
from .ensemble import MAX_SEEDS, TimeGrid, ensemble_statistics, recurrence_search, scaling_sweep
from .errors import EinlabError, InvalidRangeError, MissingKeyError, ParseError
from .model import (
    DEFAULT_G_MIN_FRACTION,
    ScenarioKind,
    SystemAmplitudes,
    build_environment_random,
    build_environment_scenario,
    validate,
)
from .oracle import crosscheck

VERIFY_CASES = 100
VERIFY_T_MAX = 20.0
VERIFY_TOLERANCE = 1e-10

TRACE_COLUMNS = ("t", "re_z", "im_z", "abs_z", "rho_pp", "rho_mm", "abs_rho_pm", "purity", "entropy")

# Grid points per trace_columns call.  Any size gives the same bytes; the
# chunk bounds the memory that one call's arrays and text take, however long
# the grid is.  Its rows are printed _FORMAT_CELLS cells at a time, about
# 1.1 ms per 1 000 rows of nine columns (see _chunk_text).
TRACE_CHUNK = 8192


@dataclass(frozen=True)
class RunConfig:
    mode: str
    n: int | None = None
    ns: tuple[int, ...] | None = None
    seed: int | None = None
    seeds: tuple[int, ...] | None = None
    scenario: ScenarioKind | None = None
    g: float | None = None
    g_min: float | None = None
    g_max: float | None = None
    a_sq: float = 0.5
    grid: TimeGrid | None = None  # None in verify mode
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
    if (len(numbers) if explicit else numbers[0]) > MAX_SEEDS:
        raise InvalidRangeError(f"key 'seeds' names more than {MAX_SEEDS} seeds")
    seeds = tuple(numbers) if explicit else tuple(range(1, numbers[0] + 1))
    if not seeds:
        raise InvalidRangeError(f"key 'seeds' names no seeds: '{raw}'")
    if any(not 0 <= s < 2**64 for s in seeds):
        raise InvalidRangeError("every seed must be an unsigned 64-bit integer")
    ordered = sorted(seeds)
    repeats = [s for s, after in zip(ordered, ordered[1:]) if s == after]
    if repeats:
        raise InvalidRangeError(f"key 'seeds' names seed {repeats[0]} more than once")
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
    """Parse and validate a run configuration: fills the documented defaults
    and builds the grid of every mode but verify."""
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
    # the coupling that sets the fastest oscillation, and so the default dt
    coupling = "g_max"
    if "scenario" in required:
        if fields.get("scenario") is not ScenarioKind.RANDOM:
            coupling = "g"
        required += ("seed", "g_max") if coupling == "g_max" else ("g",)
    for key in required:
        if key not in raw:
            raise MissingKeyError(f"mode '{mode}' requires key '{key}'")

    if "g_max" in fields:
        fields.setdefault("g_min", DEFAULT_G_MIN_FRACTION * fields["g_max"])
    t_start, t_max = fields.pop("t_start", 0.0), fields.pop("t_max", None)
    dt = fields.pop("dt", None)
    if mode == "recurrence" and t_start <= 0.0:
        raise InvalidRangeError("recurrence mode requires t_start > 0 (set it explicitly)")
    if mode == "sweep" and t_start >= t_max:
        raise InvalidRangeError("sweep mode needs a window with t_start < t_max")
    if "t_max" in required:
        if dt is None:  # every grid mode requires its coupling
            dt = math.pi / (20.0 * fields[coupling])
        fields["grid"] = TimeGrid(t_start, t_max, dt)
        # the largest phase 4 g t, doubled for a drawn coupling one rounding
        # above g_max and a last grid point a few ulps past t_max
        if not math.isfinite(8.0 * fields[coupling] * t_max):
            raise InvalidRangeError(f"phases can overflow: 8 * {coupling} * t_max must be finite")
    return RunConfig(digest=hashlib.sha256(text.encode("utf-8")).hexdigest(), **fields)


def _format(value: float) -> str:
    return f"{value:.17g}"


# Trace rows are formatted as arrays, with the bytes of _format cell by cell.
# A finite x != 0 prints as the 17-digit integer D = round(|x| 10^(16 - X)),
# 10^16 <= D < 10^17, with X the decimal exponent of |x| after that rounding
# (round half to even, from the exact binary value).  _digits17 computes D.
# With k = 16 - X, y = |x| 10^k is formed as an exact Dekker product of
# x' = |x| 2^s (exact) and the table's hi + lo ~ 10^k 2^-s, then rounded.
#
# Why D is right.  The table holds 10^k as m 2^q with a 192-bit m, truncated
# at each of at most 633 steps from 10^-292 (relative error < 2^-181); hi is
# m's top 53 bits and lo the rest rounded to a double, so hi + lo is within
# 2^-105 of 10^k 2^-s, relatively (|lo| < 2^-52 hi, rounded by 2^-53 |lo|).
# s = 512 for k > 250, -512 for k < -233 and 0 otherwise keeps x', hi and
# |lo| between 1e-250 and 1e260, and every partial product far from overflow
# and underflow, so Veltkamp's split (C = 2^27 + 1) and Dekker's product are
# exact: p + err = x' hi with p = fl(x' hi) (Dekker 1971; Ogita, Rump and
# Oishi 2005, TwoProduct).  The value computed is p + r, r = fl(err +
# fl(x' lo)), and for y < 10^17 + 1 < 2^56.5: fl(x' lo) errs by at most
# 2^-49 (|x' lo| < 2^-52 y < 2^4.5), the sum by at most 2^-49 (|err| <= 8,
# |r| < 2^5), and the table by y 2^-105 < 2^-48.5; together under 7e-15
# (under 7e-14 for y < 10^18, when the first guess of X is one too low).
# p >= 2^53 is an integer, floor(r) and frac = r - floor(r) are exact, so
# floor(p + r) = p + floor(r) and, unless frac lies within _TIE_MARGIN
# (about 1e-6) of 1/2, D = p + floor(r) + (frac > 1/2) whatever the error.
# Cells within the margin, which takes in every exact tie, are printed by
# _format, so ties keep Python's half-even rounding; so are nan and +-inf.
# X starts as floor(log10 |x|), which can be one off next to a power of
# ten.  If p + floor(r) < 10^16 (y < 10^16), X is one less; if D > 10^17,
# one more, and D is computed again; a cell still out of range is printed
# by _format.  D = 10^17 means 10^16 at X + 1: y in [10^17 - 1/2, 10^17)
# rounds up, and y in [10^17, 10^17 + 1/2) gives 10^16 at X + 1 directly.
# A y within 7e-15 of 10^16 gives 10^16 at X on either side of that test.
_POW10_K_MIN = -292  # k = 16 - X for X = 308; X = -324 gives k = 340
_POW10_K_COUNT = 633
_VELTKAMP = 134217729.0  # 2^27 + 1
_TIE_MARGIN = 2.0**-20
_D_MIN, _D_MAX = 10**16, 10**17


def _powers_of_ten() -> np.ndarray:
    """Rows (hi split high, hi split low, hi, lo, 2^s) over k, where
    hi + lo ~ 10^k 2^-s, for k = _POW10_K_MIN .. _POW10_K_MIN + 632."""
    m = (1 << 1165) // 10**-_POW10_K_MIN
    shift = m.bit_length() - 192
    m >>= shift
    q = shift - 1165
    his, los, scales = [], [], []
    for k in range(_POW10_K_MIN, _POW10_K_MIN + _POW10_K_COUNT):
        s = 512 if k > 250 else -512 if k < -233 else 0
        top = m >> 139
        his.append(math.ldexp(top, q + 139 - s))
        los.append(math.ldexp(m - (top << 139), q - s))
        scales.append(math.ldexp(1.0, s))
        m *= 10
        shift = m.bit_length() - 192
        m >>= shift
        q += shift
    hi = np.array(his)
    c = hi * _VELTKAMP
    hi_high = c - (c - hi)
    return np.array([hi_high, hi - hi_high, hi, los, scales])


def _digits17(a: np.ndarray, exponent: np.ndarray):
    """For finite a > 0 and a guess X of its exponent: D and two masks, X too
    high (y < 10^16) and fraction of y within _TIE_MARGIN of 1/2."""
    rows = 16 - _POW10_K_MIN - exponent
    hi_high, hi_low, hi, lo, scale = _format_tables().pow10.take(rows, axis=1, mode="clip")
    x = a * scale
    c = x * _VELTKAMP
    x_high = c - (c - x)
    x_low = x - x_high
    p = x * hi
    err = ((x_high * hi_high - p) + x_high * hi_low + x_low * hi_high) + x_low * hi_low
    r = err + x * lo
    whole = np.floor(r)
    frac = r - whole
    base = p.astype(np.int64) + whole.astype(np.int64)
    return base + (frac > 0.5), base < _D_MIN, np.abs(frac - 0.5) < _TIE_MARGIN


# Each cell is printed into a field of six little-endian int64 words, whose
# zero bytes are then dropped:
#   bytes 0-5    "-0.000": the sign, then "0." and up to three zeros for
#                1e-4 <= |x| < 1
#   bytes 6-39   digit i at byte 6 + 2i, a "." slot after each of digits 0-15
#   bytes 40-45  "e", the exponent's sign and three digits, then "," or "\n"
# A layout, chosen by sign, form and the number of digits kept, holds "0"
# in each digit byte it keeps and the other characters it prints; the
# digits 0-9 are added on.  A trimmed digit is a trailing 0, so its byte
# stays zero.  Forms 0-20 are fixed notation for X = -4..16; 21 and 22 are
# exponents 17..99 and >= 100, 23 and 24 exponents -5..-99 and <= -100.
_FORMS = 25
_EXPONENT_MIN = -330


class _FormatTables(NamedTuple):
    pow10: np.ndarray  # _powers_of_ten()
    layouts: np.ndarray  # (2 * _FORMS * 17, 6) int64, by (sign, form, digits kept - 1)
    form_layout: np.ndarray  # by X - _EXPONENT_MIN: the first layout of X's form
    exponent_chars: np.ndarray  # by X - _EXPONENT_MIN: word 5's exponent digits
    group_word: np.ndarray  # by a group of four digits: the digits, 16 bits apart
    group_kept: np.ndarray  # (4, 10^4) by group j's value: the index 4j + l of its
    # last nonzero digit l (1-4), or 0; the largest over j is the digits kept - 1


@functools.cache
def _format_tables() -> _FormatTables:
    """The formatter's tables, built on first use: modes other than trace
    never build them."""
    layout = np.arange(2 * _FORMS * 17)
    negative, form, kept = layout // (_FORMS * 17), layout // 17 % _FORMS, layout % 17 + 1
    x = form - 4
    fixed = form < 21
    small = fixed & (x < 0)
    whole = np.where(fixed, np.maximum(x + 1, 0), 1)
    kept = np.maximum(kept, whole)
    cells = np.zeros((layout.size, 48), np.uint8)
    cells[:, 0] = negative * ord("-")
    cells[:, 1] = small * ord("0")
    cells[:, 2] = small * ord(".")
    cells[:, 3:6] = (np.arange(3) < np.where(small, -x - 1, 0)[:, None]) * ord("0")
    cells[:, 6:40:2] = (np.arange(17) < kept[:, None]) * ord("0")
    dot = (np.arange(16) == np.where(small, -1, whole - 1)[:, None]) & (whole < kept)[:, None]
    cells[:, 7:39:2] = dot * ord(".")
    cells[:, 40] = ~fixed * ord("e")
    cells[:, 41] = ~fixed * np.where(form >= 23, ord("-"), ord("+"))
    cells[:, 45] = ord(",")

    exponent = np.arange(_EXPONENT_MIN, 320)
    e = np.maximum(exponent, -exponent)
    fixed = (exponent >= -4) & (exponent <= 16)
    form = np.where(fixed, exponent + 4, 21 + 2 * (exponent < 0) + (e >= 100))
    chars = ((e // 10 % 10 + 48) << 24) + ((e % 10 + 48) << 32)
    chars += (e >= 100) * ((e // 100 + 48) << 16)

    pair = np.arange(100)
    tens = pair // 10
    units = pair - tens * 10
    group = np.arange(10**4)
    high = group // 100
    low = group - high * 100
    pair_word = tens + (units << 16)
    words = np.take(pair_word, high) + (np.take(pair_word, low) << 32)
    pair_last = (pair > 0) * 1 + (units > 0)  # the last nonzero digit of a pair: 0, 1 or 2
    last = np.where(low > 0, 2 + np.take(pair_last, low), np.take(pair_last, high))
    group_kept = np.array([(last > 0) * (last + 4 * j) for j in range(4)], np.int8)
    return _FormatTables(
        _powers_of_ten(), cells.view(np.int64), form * 17, ~fixed * chars, words, group_kept
    )


# Cells per _format_rows call: the call's temporaries stay near 100 KB, in
# cache and below the allocator's mmap threshold.  A call looks its tables
# up with ndarray.take (np.take adds a Python-level wrapper per lookup) and
# _digits17 gathers the five power-of-ten rows in one take.
_FORMAT_CELLS = 2048


def _format_rows(block: np.ndarray) -> str:
    """The CSV rows of a C-contiguous ``(rows, columns)`` float64 block, as
    one text with no newline after the last row."""
    rows, cols = block.shape
    values = block.ravel()
    n = values.size
    a = np.abs(values)
    finite = np.isfinite(a)
    zero = a == 0.0
    computed = finite & ~zero
    a[~computed] = 1.0
    exponent = np.floor(np.log10(a)).astype(np.intp)
    d, high_guess, tie = _digits17(a, exponent)
    fix = (high_guess | (d > _D_MAX)).nonzero()[0]
    if fix.size:
        fixed = exponent[fix] + (d[fix] > _D_MAX) - high_guess[fix]
        d[fix], still, tie[fix] = _digits17(a[fix], fixed)
        tie[fix] |= still | (d[fix] > _D_MAX)
        exponent[fix] = fixed
    carry = d == _D_MAX
    d[carry] = _D_MIN
    exponent += carry
    d[zero] = 0
    exponent[zero] = 0

    # digit 0, then four groups of four digits
    lead = d // _D_MIN
    d -= lead * _D_MIN
    upper = d // 10**8
    d -= upper * 10**8
    groups = np.empty((4, n), np.intp)
    np.floor_divide(upper, 10**4, out=groups[0])
    np.subtract(upper, groups[0] * 10**4, out=groups[1])
    np.floor_divide(d, 10**4, out=groups[2])
    np.subtract(d, groups[2] * 10**4, out=groups[3])
    tables = _format_tables()
    kept = tables.group_kept[0].take(groups[0])
    for j in (1, 2, 3):
        np.maximum(kept, tables.group_kept[j].take(groups[j]), out=kept)

    exponent -= _EXPONENT_MIN
    layout = tables.form_layout.take(exponent) + np.signbit(values) * (_FORMS * 17) + kept
    cells = tables.layouts.take(layout, axis=0)
    cells[:, 0] += lead << 48
    for j in range(4):
        cells[:, j + 1] += tables.group_word.take(groups[j])
    cells[:, 5] += tables.exponent_chars.take(exponent)
    ends = cells.reshape(rows, cols, 6)[:, -1, 5]
    ends += (ord("\n") - ord(",")) << 40
    ends[-1] -= ord("\n") << 40  # the last row ends the text
    text = cells.tobytes().translate(None, b"\0").decode("ascii")
    python_rows = (~finite | (tie & computed)).nonzero()[0] // cols
    if not python_rows.size:
        return text
    lines = text.split("\n")
    for row in set(python_rows.tolist()):
        lines[row] = ",".join(map(_format, block[row].tolist()))
    return "\n".join(lines)


def _chunk_text(columns: tuple[np.ndarray, ...]) -> list[str]:
    """The CSV rows of equal-length, non-empty float columns, each cell as
    :func:`_format` prints it (``-0`` and ``nan`` included): the text of each
    block of _FORMAT_CELLS cells, to be joined by newlines."""
    block = np.column_stack(columns)
    step = max(1, _FORMAT_CELLS // block.shape[1])
    return [_format_rows(block[start : start + step]) for start in range(0, block.shape[0], step)]


def _provenance(config: RunConfig) -> str:
    return f"# einlab {__version__} mode={config.mode} config_sha256={config.digest}"


# Suffixes for _write_atomic's temp files: unique within the process, and
# with the pid across processes.
_TEMP_SUFFIXES = itertools.count()
_TEMP_TRIES = 100
# Characters encoded and written at a time.  The CSVs are ASCII, so a
# slice's copy and its bytes each stay below glibc's 128 KiB mmap threshold.
_WRITE_SLICE = 1 << 16


def _write_atomic(path: str, text: str) -> None:
    """All-or-nothing file write; a failed run never leaves a partial file.

    ``text`` is the whole CSV as one ``str``; it is encoded as UTF-8 and
    written _WRITE_SLICE characters at a time, so no second whole-file
    buffer is made.  UTF-8 encodes each code point on its own, so the file
    holds ``text.encode("utf-8")`` however the slices fall.

    The text goes to a temp file next to the target, named
    ``<path>.<pid>.<count>.tmp`` with a per-process counter and created
    with ``O_EXCL``, so two runs writing the same output never share one
    (a name that exists is skipped, up to _TEMP_TRIES times); it then
    replaces the target.  The file is created with mode 0o666, which the
    kernel masks with the umask, as ``open()`` would.
    """
    for _ in range(_TEMP_TRIES):
        tmp = f"{path}.{os.getpid()}.{next(_TEMP_SUFFIXES)}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    else:
        raise FileExistsError(f"no free temp file name next to '{path}'")
    try:
        try:
            for start in range(0, len(text), _WRITE_SLICE):
                data = memoryview(text[start : start + _WRITE_SLICE].encode("utf-8"))
                while data:
                    data = data[os.write(fd, data) :]
                data.release()  # frees this slice's bytes before the next is made
        finally:
            os.close(fd)
        os.replace(tmp, path)
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


# A mode runner returns the CSV text after the provenance comment, as items
# of one or more lines each with no final newline, then the summary line and
# whether the run passed.
_Result = tuple[list[str], str, bool]


def _run_trace(config: RunConfig) -> _Result:
    sys_amp = _system_amplitudes(config)
    env = _build_environment(config)
    report = validate(sys_amp, env)
    if not report.ok:
        raise EinlabError("; ".join(report.failures))
    lines = [",".join(TRACE_COLUMNS)]
    for times in config.grid.chunks(TRACE_CHUNK):
        lines.extend(_chunk_text(trace_columns(sys_amp, env, times)))
    return lines, f"trace: n={env.n} rows={config.grid.steps() + 1}", True


def _run_recurrence(config: RunConfig) -> _Result:
    env = _build_environment(config)
    report = recurrence_search(env, config.threshold, config.grid)
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
            f"recurrence: no |z| >= {config.threshold}"
            f" in ({config.grid.t_start}, {config.grid.t_end}]"
        )
    summary += (
        f" (window_points={report.window_points} spin_points={report.spin_points}"
        f" of n*scanned_points={env.n * report.scanned_points})"
    )
    return lines, summary, True


def _run_ensemble(config: RunConfig) -> _Result:
    report = ensemble_statistics(config.n, config.seeds, config.grid, config.g_min, config.g_max)
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
    table = scaling_sweep(config.ns, len(config.seeds), config.grid, config.g_min, config.g_max)
    lines = ["n,median_sup_abs_z"]
    lines.extend("%d,%.17g" % row for row in table)
    summary = "sweep: " + " ".join(f"n={n}:{median:.3g}" for n, median in table)
    return lines, summary, True


def _run_verify(config: RunConfig) -> _Result:
    """Drive the brute-force crosscheck on seeded random cases.

    Case stream: PCG64(seed) supplies, per case, an environment seed, a
    Bloch-uniform system state and a time in [0, 20).  The stream is drawn
    first; then the cases run in order on the calling thread.  A crosscheck
    is a few short array calls that hold the GIL between them, so a second
    thread would only take turns with the first: 40 n = 16 crosschecks
    took longer split over two threads than on one.  One thread holds one
    2^(n+1) state at a time and starts no pool thread.  A case builds its
    bath before its crosscheck allocates a state, so a bad coupling range is
    reported before the 24-spin cap.  A coupling near the float range (say
    g_max = 1e307) overflows its phases to nan; the cases run with numpy's
    overflow and invalid warnings off, and the nan reaches the CSV and a
    FAIL summary instead.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    cases = []
    for _ in range(VERIFY_CASES):
        env_seed = int(rng.integers(0, 2**63, dtype=np.int64))
        u = rng.random(3)
        half_theta = 0.5 * math.acos(2.0 * u[0] - 1.0)
        sys_amp = SystemAmplitudes(
            complex(math.cos(half_theta)),
            complex(np.exp(2j * math.pi * u[1]) * math.sin(half_theta)),
        )
        cases.append((env_seed, sys_amp, VERIFY_T_MAX * u[2]))

    with np.errstate(over="ignore", invalid="ignore"):
        reports = [
            crosscheck(
                sys_amp,
                build_environment_random(config.n, env_seed, config.g_min, config.g_max),
                t,
                VERIFY_TOLERANCE,
            )
            for env_seed, sys_amp, t in cases
        ]
    lines = ["case,env_seed,t,max_deviation,passed"]
    for case, ((env_seed, _, t), report) in enumerate(zip(cases, reports)):
        lines.append(
            "%d,%d,%.17g,%.17g,%d" % (case, env_seed, t, report.max_deviation, report.passed)
        )
    # the worst case is the first nan case if there is one, else the first
    # case reaching the largest deviation
    deviations = [report.max_deviation for report in reports]
    nan_cases = [case for case, d in enumerate(deviations) if math.isnan(d)]
    worst_index = nan_cases[0] if nan_cases else deviations.index(max(deviations))
    worst = deviations[worst_index]
    env_seed, _, t = cases[worst_index]
    worst_case = f"case={worst_index} env_seed={env_seed} t={_format(t)}"
    all_passed = all(report.passed for report in reports)
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
    except (EinlabError, MemoryError) as exc:
        _sys.stderr.write(f"einlab: {exc}\n")
        return 2
    try:
        _write_atomic(config.output, "\n".join([_provenance(config), *lines, ""]))
    except OSError as exc:
        _sys.stderr.write(f"einlab: cannot write output: {exc}\n")
        return 1
    if not quiet:
        print(f"{summary} -> {config.output}")
    return 0 if ok else 2


@functools.cache
def _argument_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on first use: a parse keeps no state
    in it, so every call to :func:`main` shares one."""
    parser = argparse.ArgumentParser(
        prog="einlab",
        description="Dephasing laboratory: run a batch configuration and write CSV.",
    )
    parser.add_argument("config", help="path to a key = value run configuration")
    parser.add_argument("--output", help="override the config's output path")
    parser.add_argument("--quiet", action="store_true", help="suppress the summary line")
    parser.add_argument("--version", action="version", version=f"einlab {__version__}")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _argument_parser().parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
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
