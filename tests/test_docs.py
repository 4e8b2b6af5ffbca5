"""The demos run and, like the README examples, import only public names;
every docstring cross-reference in the library resolves, and the public
surface is pinned.

Each demo runs once as a subprocess, in a temporary directory because
demos 01 and 04 write CSV files where they run; the README blocks are
parsed, not run.
"""

import ast
import dataclasses
import importlib
import os
import re
import subprocess
import sys
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


@pytest.mark.parametrize("demo", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(demo, tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    run = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip()


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


def test_readme_layout_names_every_module():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = re.search(r"^## Layout\n\n```\n(.*?)^```", text, flags=re.M | re.S)
    assert layout, "README has no Layout block"
    named = set(re.findall(r"^\s+(\w+\.py)\s", layout.group(1), flags=re.M))
    missing = sorted(p.name for p in SOURCES if p.name != "__init__.py" and p.name not in named)
    assert not missing, f"modules missing from README's Layout block: {missing}"


PUBLIC = sorted([
    "__version__",
    "BudgetExceeded", "ConvergenceFailure", "DimensionMismatch", "RidgeProjError",
    "DesignMatrix", "gram_apply", "gram_norm",
    "SvdFactors", "exact_pcr", "exact_projection", "svd_small",
    "MatrixStats", "matrix_stats", "spectral_norm_estimate",
    "ridge_solve",
    "chebyshev_monomial_approx", "compressed_sign_poly", "integral_step_oracle",
    "p_k_eval", "p_k_grid", "sign_error_bound", "sign_poly_degree",
    "OperatorHandle", "apply_step",
    "ProjectionConfig", "pc_proj", "PcrConfig", "pc_regress",
    "SyntheticProblem", "gen_synthetic",
    "ConvergenceTrace", "convergence_trace", "run_convergence",
    "load_matrix", "load_trace_csv", "load_vector",
    "save_matrix", "save_trace_csv", "save_vector",
])

FIELDS = {
    "ProjectionConfig": ["lam", "gamma", "eps", "q_override", "method"],
    "PcrConfig": ["lam", "gamma", "eps", "q_override"],
    "MatrixStats": ["sigma1_estimate", "lam"],
    "OperatorHandle": ["dimension", "apply", "err_bound"],
}


def test_public_surface():
    """A change to ``__all__`` or to these constructors is an edit to this test."""
    assert sorted(ridgeproj.__all__) == PUBLIC
    assert len(set(ridgeproj.__all__)) == len(ridgeproj.__all__) == 40
    for name, expect in FIELDS.items():
        fields = [f.name for f in dataclasses.fields(getattr(ridgeproj, name)) if f.init]
        assert fields == expect, name
