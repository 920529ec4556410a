"""The reference oracles must stay independent of the code they check."""

import ast
from pathlib import Path

import semgraph

PACKAGE = Path(semgraph.__file__).parent


def _imports(name):
    """What the package module `name` imports, as absolute dotted names:
    `from . import x` and `from .m import x` give `semgraph.x` and
    `semgraph.m.x`."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "semgraph" + ("." + base if base else "")
            imported.append(base)
            imported += [f"{base}.{alias.name}" for alias in node.names]
    return imported


def test_reference_imports_nothing_from_semgraph():
    imported = _imports("reference")
    assert imported, "no imports found; is this the right file?"
    offending = [name for name in imported
                 if name.split(".")[0] == "semgraph"]
    assert not offending, f"reference.py imports {offending}"


def test_only_selftest_imports_reference():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert {"hetero", "sideinfo", "embedding", "evaluation", "describe",
            "io", "cli", "selftest"} <= modules
    importers = sorted(
        name for name in modules - {"reference"}
        if any(imported == "semgraph.reference"
               or imported.startswith("semgraph.reference.")
               for imported in _imports(name)))
    assert importers == ["selftest"], (
        f"modules importing semgraph.reference: {importers}")
