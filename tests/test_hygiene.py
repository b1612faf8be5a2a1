"""Source hygiene: every module reads each name it imports, and every
definition in the package is referenced somewhere."""

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


def definitions(source: str) -> list:
    """Top-level functions and classes of a module, and the methods of its
    classes other than dunder methods, as names."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [sub.name for sub in node.body
                      if isinstance(sub, ast.FunctionDef)
                      and not (sub.name.startswith("__")
                               and sub.name.endswith("__"))]
    return names


def referenced_names(source: str) -> set:
    """Names a module reads, as a name, an attribute, an imported alias or
    a string constant (benchmark/tracing.py wraps functions by name)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_every_definition_is_referenced():
    refs = set()
    for folder in ("src", "tests", "benchmark", "scripts"):
        for path in (ROOT / folder).rglob("*.py"):
            refs |= referenced_names(path.read_text())
    found = {p.name: [n for n in definitions(p.read_text()) if n not in refs]
             for p in (ROOT / "src" / "wave4d").glob("*.py")}
    assert {name: dead for name, dead in found.items() if dead} == {}
