"""The package depends on numpy and the standard library only."""

import ast
import sys
from pathlib import Path

import cahm

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "cahm"}


def _imported_packages(tree):
    """Top-level package of every absolute import in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_modules_import_only_the_standard_library_numpy_and_cahm():
    sources = sorted(Path(cahm.__file__).parent.rglob("*.py"))
    assert len(sources) >= 8
    for path in sources:
        outside = set(_imported_packages(ast.parse(path.read_text(encoding="utf-8")))) - ALLOWED
        assert not outside, f"{path.name} imports {sorted(outside)}"


def test_the_array_models_import_nothing_from_the_dynamics():
    path = Path(cahm.__file__).parent / "rydberg_models.py"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
            assert not any("evolution" in name.split(".") for name in names), ast.unparse(node)
