"""The demos and README examples import only public names, and every
docstring cross-reference in the library resolves.

The demos and README are parsed, not run, so this stays fast; running them
is left to the reader.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

import ridgeproj

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SOURCES = sorted((ROOT / "src" / "ridgeproj").glob("*.py"))
REFERENCE = re.compile(r":(?:func|class|meth|mod):`~?([\w.]+)`")


def readme_blocks():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def imported_names(source):
    """Names pulled in by ``from ridgeproj import ...`` statements."""
    return [alias.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "ridgeproj"
            for alias in node.names]


def test_sources_found():
    assert DEMOS and readme_blocks()


@pytest.mark.parametrize(
    "label, source",
    [pytest.param(p.name, p.read_text(encoding="utf-8"), id=p.name) for p in DEMOS]
    + [pytest.param(f"README block {i}", block, id=f"README-{i}")
       for i, block in enumerate(readme_blocks())],
)
def test_imports_are_public(label, source):
    names = imported_names(source)
    assert names, f"{label} imports nothing from ridgeproj"
    missing = sorted(set(names) - set(ridgeproj.__all__))
    assert not missing, f"{label} imports names outside ridgeproj.__all__: {missing}"



def docstring_references(path):
    """``(owner, class path, reference)`` for every :func: / :class: / :meth: / :mod: role.

    ``owner`` is the dotted name of the module, class or function whose
    docstring holds the role.  The class path is the innermost class around
    that docstring (the class itself for a class docstring), or ``""``.
    """
    def visit(node, owner, classes):
        for ref in REFERENCE.findall(ast.get_docstring(node) or ""):
            yield owner, ".".join(classes), ref
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, f"{owner}.{child.name}", classes + [child.name])
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, f"{owner}.{child.name}", classes)

    yield from visit(ast.parse(path.read_text(encoding="utf-8")), module_name(path), [])


def module_name(path):
    return "ridgeproj" if path.stem == "__init__" else f"ridgeproj.{path.stem}"


def lookup(obj, dotted):
    for part in filter(None, dotted.split(".")):
        obj = getattr(obj, part)
    return obj


def resolves(module, class_path, ref):
    """Whether ``ref`` names an object at module scope, in the class, or by absolute path."""
    scope = importlib.import_module(module)
    for base in (scope, lookup(scope, class_path)):
        try:
            lookup(base, ref)
            return True
        except AttributeError:
            pass
    parts = ref.split(".")
    for i in range(len(parts), 0, -1):
        try:
            lookup(importlib.import_module(".".join(parts[:i])), ".".join(parts[i:]))
            return True
        except (ImportError, AttributeError):
            pass
    return False


def test_docstring_references_resolve():
    refs = [(module_name(p), *r) for p in SOURCES for r in docstring_references(p)]
    assert refs
    dangling = [f"{owner}: {ref}" for module, owner, class_path, ref in refs
                if not resolves(module, class_path, ref)]
    assert not dangling, f"docstring references that resolve nowhere: {dangling}"
