"""Every name the package imports is read somewhere, and every name it
exports resolves."""

import ast
from pathlib import Path

import pytest

import einlab

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "einlab").glob("*.py"))


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
