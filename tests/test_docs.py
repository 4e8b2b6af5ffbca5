"""The demos and README examples import only public names.

They are parsed, not run, so this stays fast; running them is left to the
reader.
"""

import ast
import re
from pathlib import Path

import pytest

import ridgeproj

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


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
