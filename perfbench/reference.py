"""Independent checks of einlab CSV output.

Nothing here imports einlab.  Random environments are redrawn straight from
the documented PCG64 stream (3n uniform doubles: n couplings, then n
cos-latitudes, then n azimuths), and every expected value comes from this
module's own closed forms:

* trace: z(t) = prod_j [cos 2g_j t + i d_j sin 2g_j t], populations, and
  purity and entropy from the closed-form eigenvalues of the 2x2 matrix;
* recurrence: a chunked scan of |z|^2 (cos^(2n) for balanced spins);
* ensemble: the ergodic prediction prod_j (1 + d_j^2)/2;
* sweep: the late-window supremum of |z|^2 summed in the log domain, so
  it stays representable where the product underflows;
* verify: the case stream (environment seed and time of every case).

A check returns one Outcome per checked output of the job.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass

import numpy as np

from jobs import Job, default_dt, grid_steps

TRACE_COLUMNS = ("t", "re_z", "im_z", "abs_z", "rho_pp", "rho_mm", "abs_rho_pm", "purity", "entropy")
TRACE_TOL = 1e-12
ERGODIC_TOL = 0.05
PREDICTION_RTOL = 1e-12
SWEEP_RTOL = 1e-9
VERIFY_TOL = 1e-10
VERIFY_T_MAX = 20.0

_CHUNK = 1 << 16
_PROVENANCE = re.compile(r"# einlab \S+ mode=(\w+) config_sha256=([0-9a-f]{64})")


@dataclass(frozen=True)
class Outcome:
    label: str
    ok: bool
    note: str = ""


class BadOutput(Exception):
    """The CSV does not have the layout its mode promises."""


def draw_environment(n: int, seed: int, g_min: float, g_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Couplings g and imbalances d = cos(theta) of a random environment."""
    u = np.random.Generator(np.random.PCG64(seed)).random(3 * n)
    return g_min + (g_max - g_min) * u[:n], 2.0 * u[n : 2 * n] - 1.0


def _environment(job: Job) -> tuple[np.ndarray, np.ndarray]:
    n = int(job.param("n"))
    if job.param("scenario", "random") == "balanced":
        return np.full(n, float(job.param("g"))), np.zeros(n)
    g_max = float(job.param("g_max"))
    g_min = float(job.param("g_min", str(0.05 * g_max)))
    return draw_environment(n, int(job.param("seed")), g_min, g_max)


def _dt(job: Job) -> float:
    if job.param("dt") is not None:
        return float(job.param("dt"))
    return default_dt(float(job.param("g_max") or job.param("g")))


def z_series(g: np.ndarray, d: np.ndarray, times: np.ndarray) -> np.ndarray:
    angle = 2.0 * np.outer(times, g)
    return np.prod(np.cos(angle) + 1j * d * np.sin(angle), axis=1)


def abs_sq(g: np.ndarray, d: np.ndarray, times: np.ndarray) -> np.ndarray:
    d2 = d * d
    return np.prod(0.5 * (1.0 + d2) + 0.5 * (1.0 - d2) * np.cos(4.0 * np.outer(times, g)), axis=1)


def log_abs_sq(g: np.ndarray, d: np.ndarray, times: np.ndarray) -> np.ndarray:
    d2 = d * d
    terms = 0.5 * (1.0 + d2) + 0.5 * (1.0 - d2) * np.cos(4.0 * np.outer(times, g))
    return np.sum(np.log(terms), axis=1)


def ergodic_prediction(d: np.ndarray) -> float:
    return float(np.prod(0.5 * (1.0 + d * d)))


def first_recurrence(job: Job, threshold: float) -> tuple[int | None, int]:
    """(first step k >= 1 with |z| >= threshold or None, last step of the grid)."""
    t_start, dt = float(job.param("t_start")), _dt(job)
    last = grid_steps(t_start, float(job.param("t_max")), dt)
    g, d = _environment(job)
    balanced = job.param("scenario") == "balanced"
    thr_sq = threshold * threshold
    for k0 in range(1, last + 1, _CHUNK):
        k = np.arange(k0, min(k0 + _CHUNK, last + 1))
        times = t_start + dt * k
        vals = np.cos(2.0 * g[0] * times) ** (2 * len(g)) if balanced else abs_sq(g, d, times)
        hits = np.nonzero(vals >= thr_sq)[0]
        if hits.size:
            return int(k[hits[0]]), last
    return None, last


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def _table(job: Job, config_text: str, csv_text: str, header: tuple[str, ...]):
    """(comment lines, data rows) after checking provenance, header and line endings."""
    if not csv_text.endswith("\n") or "\r" in csv_text:
        raise BadOutput("CSV must end in LF and hold no CR")
    lines = csv_text[:-1].split("\n")
    match = _PROVENANCE.fullmatch(lines[0])
    if not match:
        raise BadOutput(f"bad provenance line {lines[0]!r}")
    if match.group(1) != job.mode:
        raise BadOutput(f"provenance names mode {match.group(1)}")
    if match.group(2) != hashlib.sha256(config_text.encode("utf-8")).hexdigest():
        raise BadOutput("provenance digest does not match the config text")
    comments = [ln for ln in lines[1:] if ln.startswith("#")]
    body = [ln for ln in lines[1:] if not ln.startswith("#")]
    if not body or tuple(body[0].split(",")) != header:
        raise BadOutput(f"header is not {','.join(header)}")
    rows = [ln.split(",") for ln in body[1:]]
    if len(rows) != job.rows:
        raise BadOutput(f"{len(rows)} rows, expected {job.rows}")
    if any(len(r) != len(header) for r in rows):
        raise BadOutput("row with the wrong number of fields")
    return comments, rows


def _check_trace(job: Job, comments, rows) -> list[Outcome]:
    try:
        table = np.array([[float(v) for v in r] for r in rows])
    except ValueError as exc:
        raise BadOutput(str(exc)) from None
    t_start, dt = float(job.param("t_start", "0")), _dt(job)
    times = t_start + dt * np.arange(len(rows))
    g, d = _environment(job)
    z = z_series(g, d, times)
    pp = float(job.param("a_sq", "0.5"))
    mm = 1.0 - pp
    pm = np.abs(z) * math.sqrt(pp) * math.sqrt(mm)
    root = np.sqrt((pp - mm) ** 2 + 4.0 * pm * pm)
    lam = np.stack([0.5 * (1.0 + root), 0.5 * (1.0 - root)])
    with np.errstate(divide="ignore", invalid="ignore"):
        entropy = -np.sum(np.where(lam > 0.0, lam * np.log(lam), 0.0), axis=0)
    expected = np.column_stack(
        [times, z.real, z.imag, np.abs(z), np.full(len(times), pp), np.full(len(times), mm),
         pm, pp * pp + mm * mm + 2.0 * pm * pm, entropy]
    )
    err = np.abs(table - expected)
    err[:, 0] /= np.maximum(1.0, np.abs(times))
    err[:, 5] = np.abs(table[:, 4] + table[:, 5] - 1.0)  # rho_pp + rho_mm = 1
    bad = ~(err <= TRACE_TOL)  # NaN counts as bad
    out = []
    for i, row_bad in enumerate(bad):
        cols = [TRACE_COLUMNS[c] for c in np.nonzero(row_bad)[0]]
        out.append(Outcome(f"row {i}", not cols, "off in " + " ".join(cols) if cols else ""))
    return out


def _check_recurrence(job: Job, comments, rows) -> list[Outcome]:
    (threshold, found, t_found, scanned), = rows
    thr = float(job.param("threshold", "0.9"))
    hit, last = first_recurrence(job, thr)
    notes = []
    if float(threshold) != thr:
        notes.append(f"threshold {threshold}")
    if hit is None:
        if (found, t_found, scanned) != ("0", "nan", str(last)):
            notes.append(f"expected no recurrence over {last} points, got {found},{t_found},{scanned}")
    else:
        t_hit = float(job.param("t_start")) + _dt(job) * hit
        if found != "1" or scanned != str(hit) or not _close(float(t_found), t_hit, 1e-12):
            notes.append(f"expected 1,{t_hit!r},{hit}, got {found},{t_found},{scanned}")
    return [Outcome("result", not notes, "; ".join(notes))]


def _check_ensemble(job: Job, comments, rows) -> list[Outcome]:
    seeds = sorted(int(s) for s in job.param("seeds").split(","))
    g_max = float(job.param("g_max"))
    g_min = float(job.param("g_min", str(0.05 * g_max)))
    out = []
    for seed, (seed_text, mean, predicted, sup) in zip(seeds, rows):
        _, d = draw_environment(int(job.param("n")), seed, g_min, g_max)
        pred = ergodic_prediction(d)
        notes = []
        if seed_text != str(seed):
            notes.append(f"seed {seed_text}, expected {seed}")
        if not _close(float(predicted), pred, PREDICTION_RTOL):
            notes.append(f"prediction {predicted}, expected {pred!r}")
        if not abs(float(mean) - pred) <= ERGODIC_TOL:
            notes.append(f"mean {mean} is more than {ERGODIC_TOL} from {pred!r}")
        if not 0.0 <= float(sup) <= 1.0:
            notes.append(f"sup |z| {sup} outside [0, 1]")
        out.append(Outcome(f"seed={seed}", not notes, "; ".join(notes)))
    return out


def sweep_reference(n: int, seeds: int, g_min: float, g_max: float, times: np.ndarray) -> float:
    """Median over seeds 1..seeds of sqrt(sup |z|^2), from log-domain sums.

    Matches the CLI's convention: the square root is taken per seed, then
    the median (the mean of the two middle values for an even count).
    """
    logs = [
        float(np.max(log_abs_sq(*draw_environment(n, seed, g_min, g_max), times)))
        for seed in range(1, seeds + 1)
    ]
    return float(np.median(np.exp(0.5 * np.array(logs))))


def _check_sweep(job: Job, comments, rows) -> list[Outcome]:
    g_max = float(job.param("g_max"))
    g_min = float(job.param("g_min", str(0.05 * g_max)))
    t_start, t_end, dt = float(job.param("t_start")), float(job.param("t_max")), _dt(job)
    times = t_start + dt * np.arange(grid_steps(t_start, t_end, dt) + 1)
    ns = [int(v) for v in job.param("n").split(",")]
    out = []
    for n, (n_text, value) in zip(ns, rows):
        ref = sweep_reference(n, int(job.param("seeds")), g_min, g_max, times)
        got = float(value)
        if n_text != str(n):
            out.append(Outcome(f"n={n}", False, f"row names n={n_text}"))
        elif _close(got, ref, SWEEP_RTOL):
            out.append(Outcome(f"n={n}", True))
        elif got == 0.0 and ref > 0.0:
            out.append(Outcome(f"n={n}", False, "underflow"))
        else:
            out.append(Outcome(f"n={n}", False, f"median sup |z| {value}, reference {ref!r}"))
    return out


def _check_verify(job: Job, comments, rows) -> list[Outcome]:
    rng = np.random.Generator(np.random.PCG64(int(job.param("seed"))))
    out = []
    for case, (case_text, env_seed, t, deviation, passed) in enumerate(rows):
        want_seed = int(rng.integers(0, 2**63, dtype=np.int64))
        want_t = VERIFY_T_MAX * rng.random(3)[2]
        notes = []
        if (case_text, env_seed) != (str(case), str(want_seed)) or float(t) != want_t:
            notes.append(f"case stream: got {case_text},{env_seed},{t}")
        if not float(deviation) < VERIFY_TOL or passed != "1":
            notes.append(f"deviation {deviation} passed={passed}")
        out.append(Outcome(f"case {case}", not notes, "; ".join(notes)))
    summary = [c for c in comments if c.startswith("# max_deviation=")]
    worst = summary[0].split()[1].partition("=")[2] if len(summary) == 1 else "missing"
    try:
        ok = float(worst) < VERIFY_TOL
    except ValueError:
        ok = False
    out.append(Outcome("summary", ok, "" if ok else f"max_deviation {worst}"))
    return out


_HEADERS = {
    "trace": TRACE_COLUMNS,
    "recurrence": ("threshold", "found", "t_found", "scanned_points"),
    "ensemble": ("seed", "mean_abs_z_sq", "predicted_mean_abs_z_sq", "sup_abs_z_late"),
    "sweep": ("n", "median_sup_abs_z"),
    "verify": ("case", "env_seed", "t", "max_deviation", "passed"),
}
_CHECKS = {
    "trace": _check_trace,
    "recurrence": _check_recurrence,
    "ensemble": _check_ensemble,
    "sweep": _check_sweep,
    "verify": _check_verify,
}


def check(job: Job, config_text: str, csv_text: str) -> list[Outcome]:
    """One Outcome per output the job promises; a malformed CSV fails them all."""
    try:
        comments, rows = _table(job, config_text, csv_text, _HEADERS[job.mode])
        outcomes = _CHECKS[job.mode](job, comments, rows)
    except (BadOutput, ValueError) as exc:
        return [Outcome(f"output {i}", False, f"malformed CSV: {exc}") for i in range(job.outputs)]
    return outcomes
