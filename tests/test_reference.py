"""The reference oracles must stay independent of the code they check."""

import ast
from pathlib import Path

import semgraph


def test_reference_imports_nothing_from_semgraph():
    path = Path(semgraph.__file__).with_name("reference.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported, "no imports found; is this the right file?"
    offending = [name for name in imported
                 if name.startswith(".") or name.split(".")[0] == "semgraph"]
    assert not offending, f"reference.py imports {offending}"
