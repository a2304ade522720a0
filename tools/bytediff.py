"""Cell-by-cell difference of einlab's CSV output between two source trees.

Run from the repository root:

    python tools/bytediff.py PARENT_TREE CHANGE_TREE

Each tree is a checkout holding ``src/einlab``.  For each tree, a fresh
Python process imports einlab from that tree's ``src`` and writes, into a
directory of its own under a temporary directory:

* the 45 benchmark CSVs: the jobs that ``perfbench/jobs.py`` (imported
  read-only from this checkout) lists for the workloads trace, scan, sweep
  and verify at seeds 1-3;
* the CSV of every golden config: the keys of the module-level ``GOLDEN``
  tables in ``tests/test_*.py`` of either tree, read with ``ast`` (the
  tests are not run).

Both trees get the same config texts and relative output paths, so their
provenance lines differ only where the version does.  Four more configs
show declared fixes (``FIX_CONFIGS``).
The script prints a Markdown table with one row per file and column that
changed (and per provenance line that differs in more than the version):
how many cells differ and the largest difference in ulps (steps between
the two doubles in float order; a cell that is not a number on one side
counts as ``inf``) and relative to the larger magnitude.  Comment lines are compared
by their ``key=value`` tokens.  A file whose exit codes differ gets an
``(exit code)`` row; if one side wrote no CSV, that row is its only one.
Then it prints each golden config's body digest (the SHA-256 of the CSV
after its provenance line, which the tests pin) at both trees, and a count
of the files whose bodies are the same.

Like ``diff``, it exits 1 if any file's body or exit code differs between
the trees, else 0.  Given one tree twice (``python tools/bytediff.py . .``)
it checks that two fresh processes write the same bytes.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import importlib.util
import json
import math
import struct
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)

# Configs whose bytes or exit codes a declared fix changes.  Version 0.2.0: a
# fixed scenario's default dt comes from g, not from an unused g_max, and
# verify's summary line names a nan deviation (this run exits 2).  Version
# 0.2.1: a trace row whose state is nan printed entropy nan, not 0.  Since
# then a grid whose phases 4 g t can overflow is refused while the config is
# read: fix-trace-nan and fix-recurrence-nan exit 1 and write nothing.  A
# seed list that names a seed twice is refused too: fix-repeated-seeds exits 1.
FIX_CONFIGS = {
    "fix-default-dt": "mode = trace\nn = 4\nscenario = balanced\ng = 4\ng_max = 1\nt_max = 2\n",
    "fix-verify-nan": "mode = verify\nn = 3\nseed = 1\ng_max = 1e307\n",
    "fix-trace-nan": (
        "mode = trace\nn = 3\nseed = 1\nscenario = random\ng_max = 1e307\nt_max = 20\ndt = 1\n"
    ),
    "fix-recurrence-nan": (
        "mode = recurrence\nn = 3\nseed = 1\nscenario = random\ng_max = 1e307\nt_start = 1\n"
        "t_max = 20\ndt = 1\n"
    ),
    "fix-repeated-seeds": "mode = ensemble\nn = 3\nseeds = 1,1,2\ng_max = 1\nt_max = 1\n",
}


def _string(node: ast.AST, names: dict[str, str]) -> str:
    """The value of a string expression built from literals, names bound to
    strings earlier in the module, and ``+``; ValueError otherwise."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name) and node.id in names:
        return names[node.id]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _string(node.left, names) + _string(node.right, names)
    raise ValueError(ast.dump(node))


def golden_configs(tree: Path) -> dict[str, str]:
    """Config text -> label ``<test file>[index]`` for the keys of every
    module-level ``GOLDEN = {...}`` in the tree's tests."""
    configs: dict[str, str] = {}
    for path in sorted((tree / "tests").glob("test_*.py")):
        names: dict[str, str] = {}
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if target.id == "GOLDEN" and isinstance(node.value, ast.Dict):
                for i, key in enumerate(node.value.keys):
                    configs.setdefault(_string(key, names), f"{path.name}[{i}]")
                continue
            try:
                names[target.id] = _string(node.value, names)
            except ValueError:
                pass
    return configs


def benchmark_configs() -> dict[str, str]:
    """File name -> config text for the benchmark jobs at seeds 1-3."""
    spec = importlib.util.spec_from_file_location("perfbench_jobs", ROOT / "perfbench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = jobs  # dataclasses look their module up
    spec.loader.exec_module(jobs)
    configs = {}
    for workload in jobs.WORKLOADS:
        for seed in SEEDS:
            for job in jobs.make_jobs(workload, seed):
                name = f"{workload}-{seed}-{job.name}"
                configs[name] = job.config_text(f"{name}.csv")
    return configs


def write_outputs(tree: Path, out_dir: Path, configs: dict[str, str]) -> dict[str, int]:
    """Run every config through the tree's CLI in a fresh process, writing
    ``<name>.csv`` in ``out_dir``; returns the exit codes."""
    out_dir.mkdir(parents=True)
    (out_dir / "configs.json").write_text(json.dumps(configs), encoding="utf-8")
    subprocess.run(
        [sys.executable, __file__, "--write", str(tree.resolve())], cwd=out_dir, check=True
    )
    return json.loads((out_dir / "exit_codes.json").read_text(encoding="utf-8"))


def _write_here(tree: Path) -> None:
    """The ``--write`` child: runs configs.json in the working directory."""
    sys.path.insert(0, str(tree / "src"))
    import einlab.cli

    if Path(einlab.cli.__file__).resolve().parent != tree / "src" / "einlab":
        raise SystemExit(f"bytediff: imported einlab from {einlab.cli.__file__}, not {tree}")
    warnings.simplefilter("ignore")  # overflow warnings of deliberately extreme configs
    codes = {}
    for name, text in json.loads(Path("configs.json").read_text(encoding="utf-8")).items():
        Path(f"{name}.cfg").write_text(text, encoding="utf-8")
        codes[name] = einlab.cli.main([f"{name}.cfg", "--output", f"{name}.csv", "--quiet"])
    Path("exit_codes.json").write_text(json.dumps(codes), encoding="utf-8")


def _ordinal(x: float) -> int:
    """Position of x in float order, with both zeros at 0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def _distance(a: str, b: str) -> tuple[float, float]:
    """(ulps, relative) between two printed cells; inf when either is not a number."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf, math.inf
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return math.inf, math.inf
    scale = max(abs(x), abs(y))
    return float(abs(_ordinal(x) - _ordinal(y))), abs(x - y) / scale if scale else 0.0


def _cells(body: list[str]) -> dict[tuple[int, str], str]:
    """(line, column) -> cell text: data cells under their header names and
    comment tokens ``key=value`` under their key."""
    cells = {}
    header = None
    for i, line in enumerate(body):
        if line.startswith("#"):
            words = line[1:].split()
            prefix = "".join(f"{w} " for w in words if "=" not in w)
            for word in words:
                if "=" in word:
                    key, _, value = word.partition("=")
                    cells[(i, f"# {prefix}{key}")] = value
        elif header is None:
            header = line.split(",")
        else:
            for column, value in zip(header, line.split(",")):
                cells[(i, column)] = value
    return cells


def _without_version(provenance: str) -> list[str]:
    """The words of a provenance line ``# einlab <version> ...`` but the version."""
    words = provenance.split(" ")
    return words[:2] + words[3:]


def compare(old: str, new: str) -> list[tuple[str, int, int, float, float]]:
    """Rows (column, changed, cells, max ulps, max relative) for the columns
    of one file's body that changed, and a row ``provenance`` if its
    provenance lines differ in more than the version."""
    old_lines, new_lines = old.split("\n"), new.split("\n")
    rows = []
    if _without_version(old_lines[0]) != _without_version(new_lines[0]):
        rows.append(("provenance", 1, 1, math.nan, math.nan))
    old_cells, new_cells = _cells(old_lines[1:]), _cells(new_lines[1:])
    if old_cells.keys() != new_cells.keys():
        layout = f"(layout: {len(old_lines) - 1} -> {len(new_lines) - 1} lines)"
        return rows + [(layout, 1, 1, math.inf, math.inf)]
    stats: dict[str, list] = {}
    for key, value in old_cells.items():
        entry = stats.setdefault(key[1], [0, 0, 0.0, 0.0])
        entry[1] += 1
        if value != new_cells[key]:
            ulps, relative = _distance(value, new_cells[key])
            entry[0] += 1
            entry[2] = max(entry[2], ulps)
            entry[3] = max(entry[3], relative)
    for column, (changed, count, ulps, relative) in stats.items():
        if changed:
            rows.append((column, changed, count, ulps, relative))
    return rows


def _number(x: float) -> str:
    return "-" if math.isnan(x) else "inf" if math.isinf(x) else f"{x:.3g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", type=Path, help="source tree before the change")
    parser.add_argument("change", nargs="?", type=Path, help="source tree after the change")
    parser.add_argument("--write", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.write is not None:
        _write_here(args.write)
        return 0
    if args.parent is None or args.change is None:
        parser.error("give the two source trees")

    goldens = golden_configs(args.parent)
    for text, label in golden_configs(args.change).items():
        goldens.setdefault(text, label)
    configs = benchmark_configs() | FIX_CONFIGS
    golden_names = {}
    for text, label in goldens.items():
        name = "golden-" + hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
        configs[name] = text
        golden_names[name] = label

    with tempfile.TemporaryDirectory(prefix="bytediff-") as tmp:
        dirs = Path(tmp) / "parent", Path(tmp) / "change"
        trees = args.parent, args.change
        codes = [write_outputs(tree, d, configs) for tree, d in zip(trees, dirs)]
        print("| file | column | cells changed | max ulps | max relative |")
        print("|---|---|---|---|---|")
        same = codes_same = 0
        versions = set()
        digests = []
        for name in configs:
            label = golden_names.get(name, name)
            paths = [d / f"{name}.csv" for d in dirs]
            # a run that fails before writing leaves no CSV: its body reads as
            # empty, and its cells are compared only if both sides wrote one
            texts = [p.read_text(encoding="utf-8") if p.exists() else "" for p in paths]
            codes_same += codes[0][name] == codes[1][name]
            if codes[0][name] != codes[1][name]:
                print(f"| {label} | (exit code) | {codes[0][name]} -> {codes[1][name]} | | |")
            versions.add(tuple((text.split(" ", 3) + ["-"] * 3)[2] for text in texts))
            rows = compare(*texts) if all(p.exists() for p in paths) else []
            for column, changed, count, ulps, relative in rows:
                print(
                    f"| {label} | {column} | {changed} of {count} | {_number(ulps)} "
                    f"| {_number(relative)} |"
                )
            bodies = [text.partition("\n")[2] for text in texts]
            same += bodies[0] == bodies[1]
            if name in golden_names:
                digests.append(
                    (label, *(hashlib.sha256(b.encode("utf-8")).hexdigest() for b in bodies))
                )
        print()
        print("| golden config | body SHA-256, parent | body SHA-256, change |")
        print("|---|---|---|")
        for label, old, new in sorted(digests):
            print(f"| {label} | {old} | {new if new != old else 'same'} |")
        print()
        print(f"{same} of {len(configs)} files have the same body at both trees")
        print("versions in the provenance lines: " + ", ".join(f"{a} -> {b}" for a, b in versions))
    return 0 if same == codes_same == len(configs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
