"""Source hygiene: every module reads each name it imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the package __init__ imports names only to re-export them
MODULES = sorted(p for p in [*(ROOT / "src" / "wave4d").glob("*.py"),
                             *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names a module imports (outside ``from __future__``) and never
    reads, with the line of the import."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in read)


def test_every_module_reads_what_it_imports():
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text())
             for p in MODULES}
    assert {path: names for path, names in found.items() if names} == {}
