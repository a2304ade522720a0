"""Every name the package imports or defines is read somewhere, every name
it exports resolves and is listed in the README, and the version is the same
wherever it is written."""

import ast
import re
from pathlib import Path

import pytest

import einlab

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "einlab").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")


def unused_imports(tree: ast.Module) -> set[str]:
    """Names bound by the imports of ``tree`` that no expression reads and
    ``__all__`` does not list."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # "import a.b" binds a
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    read = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return bound - read - exported


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_unused_imports(path, perfbench_metrics):
    # the benchmark's traced run patches these names on their module, so a
    # module may import a name only for the tracer to find it there
    module = "einlab" if path.stem == "__init__" else f"einlab.{path.stem}"
    patched = {attr for name, attr, _span, _counter in perfbench_metrics.TARGETS if name == module}
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) - patched == set()


def test_unused_import_is_reported():
    tree = ast.parse("import os\nimport sys as _sys\nfrom a.b import c, d\n__all__ = ['d']\n_sys.exit(0)\n")
    assert unused_imports(tree) == {"os", "c"}


def test_every_exported_name_resolves():
    assert [name for name in einlab.__all__ if not hasattr(einlab, name)] == []


def unread_definitions(trees) -> set[str]:
    """Names of the functions, classes and methods defined in ``trees`` that
    no expression there reads (as a name or an attribute), dunders aside."""
    defined, read = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return {name for name in defined - read if not (name.startswith("__") and name.endswith("__"))}


def test_every_definition_is_read_or_exported():
    # a name that no code of the package reads and that the package does not
    # export is surface that no mode runs
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    assert unread_definitions(trees) - set(einlab.__all__) == set()


def test_unread_definition_is_reported():
    tree = ast.parse(
        "class A:\n    def __init__(self): pass\n    def m(self): pass\n    def used(self): pass\n"
        "def f(): pass\ndef g(): return A().used\ng()\n"
    )
    assert unread_definitions([tree]) == {"m", "f"}


def test_every_exported_name_is_in_the_readme():
    # the "Python API" section lists the names by module, one bullet each
    section = README.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    bullets = {item.split(":", 1)[0].strip("`"): item for item in section.split("\n* ")[1:]}
    missing = []
    for name in einlab.__all__:
        module = "einlab" if name == "__version__" else getattr(einlab, name).__module__
        if f"`{name}`" not in bullets.get(module, ""):
            missing.append((module, name))
    assert missing == []


def test_versions_agree():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    # a regex, as tomllib needs Python 3.11
    project = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
    readme = re.search(r"`--version` prints `einlab ([^`]+)`", README).group(1)
    assert project == readme == einlab.__version__
