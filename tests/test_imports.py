"""Every name a module imports is used in it.

Each module under `src/` and `tests/` is parsed, not imported.  A name
counts as used when it appears anywhere in the module's syntax tree,
annotations included.  `from __future__` imports and the names a package
re-exports through `__all__` are exempt.  The package's `__all__` must
list exactly the names its `__init__` imports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import in the module -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exempt = used | _exported(tree)
    return [f"line {line}: {name}" for name, line in sorted(_imported(tree).items(),
                                                            key=lambda kv: kv[1])
            if name not in exempt]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_check_finds_an_unused_import():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport math\nfrom a import b, c as d\n"
           "__all__ = ['d']\n"
           "def f(x: b) -> None:\n    return os.sep\n")
    assert unused_imports(src) == ["line 3: math"]


def test_package_exports_exactly_its_imports():
    """`__all__` lists every name `__init__` imports, no other, and each
    resolves: an export of a deleted name fails here, not at import time."""
    import spdcqkd

    tree = ast.parse((ROOT / "src" / "spdcqkd" / "__init__.py").read_text())
    assert sorted(spdcqkd.__all__) == sorted(_imported(tree))
    for name in spdcqkd.__all__:
        assert hasattr(spdcqkd, name), name
