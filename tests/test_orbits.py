"""The shared orbit enumerator stays independent of the tree code."""

import ast
from pathlib import Path

import branchgf.orbits


def test_orbits_imports_only_errors_from_the_package():
    tree = ast.parse(Path(branchgf.orbits.__file__).read_text(encoding="utf-8"))
    package_imports = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").startswith("branchgf")
        ):
            package_imports.add(("." * node.level) + (node.module or ""))
        elif isinstance(node, ast.Import):
            package_imports.update(
                alias.name for alias in node.names if alias.name.startswith("branchgf")
            )
    assert package_imports == {".errors"}
