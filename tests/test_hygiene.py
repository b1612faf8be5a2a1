"""Source hygiene: every module reads each name it imports, every
definition in the package is referenced somewhere, and the definitions that
only tests reach are the listed ones, each with its reason."""

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


def names_read(tree: ast.AST) -> set:
    """Names an AST reads, as a name, an attribute, an imported alias or
    a string constant (benchmark/tracing.py wraps functions by name)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def definition_reads(tree: ast.Module) -> list:
    """(name, names read) per top-level function and class of a module and
    per method of its classes other than dunder methods.  A class reads
    what it holds outside those methods (bases, decorators, fields, dunder
    methods): that runs wherever the class is used."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            out.append((node.name, names_read(node)))
        elif isinstance(node, ast.ClassDef):
            methods = [sub for sub in node.body
                       if isinstance(sub, ast.FunctionDef)
                       and not (sub.name.startswith("__")
                                and sub.name.endswith("__"))]
            held = set()
            for part in (*node.bases, *node.decorator_list, *node.body):
                if part not in methods:
                    held |= names_read(part)
            out += [(node.name, held)] + [(m.name, names_read(m))
                                          for m in methods]
    return out


def definitions(source: str) -> list:
    """Top-level functions and classes of a module, and the methods of its
    classes other than dunder methods, as names."""
    return [name for name, _ in definition_reads(ast.parse(source))]


def test_every_definition_is_referenced():
    refs = set()
    for folder in ("src", "tests", "benchmark", "scripts"):
        for path in (ROOT / folder).rglob("*.py"):
            refs |= names_read(ast.parse(path.read_text()))
    found = {p.name: [n for n in definitions(p.read_text()) if n not in refs]
             for p in (ROOT / "src" / "wave4d").glob("*.py")}
    assert {name: dead for name, dead in found.items() if dead} == {}


# what runs the package outside the tests: the command line, the benchmark
# and the scripts
ENTRY_POINTS = [ROOT / "src" / "wave4d" / "cli.py",
                *(p for p in (ROOT / "benchmark").glob("*.py")
                  if not p.name.startswith("test_")),
                *(ROOT / "scripts").glob("*.py")]


def unreached_definitions() -> set:
    """Package definitions that no name walk from ENTRY_POINTS reaches.

    The walk starts from every name the entry points read and from the
    module-level statements of the package other than imports (constants
    and tables run on import).  Each definition it reaches adds the names
    it reads.  Names stand for every definition of that name, so a method
    is reached by any attribute of its name."""
    reads, todo = {}, set()
    for path in (ROOT / "src" / "wave4d").glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        for name, names in definition_reads(tree):
            reads.setdefault(name, set()).update(names)
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef,
                                     ast.Import, ast.ImportFrom)):
                todo |= names_read(node)
    for path in ENTRY_POINTS:
        todo |= names_read(ast.parse(path.read_text()))
    reached = set()
    while todo:
        name = todo.pop()
        if name in reads and name not in reached:
            reached.add(name)
            todo |= reads[name]
    return set(reads) - reached


def _criterion(n: int) -> str:
    return f"criterion {n}, awaiting its report row (ROADMAP item 4)"


IDENTITY = "a paper identity, awaiting its report row (ROADMAP item 4)"
REFERENCE = "a reference that a test compares against"
IMPORT_PATH = "the import path of a computed profile"

# every definition reached only from tests, with the reason it stays
TEST_ONLY = {
    "verify_cancellation": _criterion(2),
    "_abs_scale_poly": _criterion(2),
    "z_identity_residual": _criterion(4),
    "inner_pair_l2": _criterion(4),
    "apply_H_ell": _criterion(4),
    "fd_laplacian": _criterion(4),
    "interaction_rate_table": _criterion(5),
    "interaction_integral": _criterion(5),
    "fit_log_linear": _criterion(5),  # and criterion 7
    "slow_pairing_lawcheck": _criterion(7),
    "slow_pairing_series": _criterion(7),
    # the mode rates; the evolve suite reports the rest of criterion 10
    "measure_mode_rates": _criterion(10),
    "grid_modulation": _criterion(10),
    "EnergyReport": IDENTITY,
    # the rank of the generators' span: 5 on W, 8 on the surrogate
    "KernelBasis": IDENTITY,
    "kernel_basis": IDENTITY,
    "_ramp_norms": IDENTITY,
    "conserved_energy_momentum": IDENTITY,
    "energy_functionals": IDENTITY,
    "exp_direction_decay_check": IDENTITY,
    "laplacian": IDENTITY,
    "localized_norms": IDENTITY,
    "modulation_residuals": IDENTITY,
    "omega_lower_bound_gap": IDENTITY,
    "quadratic_form_H": IDENTITY,
    "ramp_slope": IDENTITY,
    "reconstruction_gap": IDENTITY,
    "weighted_form_identity_gap": IDENTITY,
    # the scale invariance of the critical norms
    "hardy_sobolev_check": IDENTITY,
    "norm_l4": IDENTITY,
    # decompose's z and cond(G), and the eigenvalues, are checked
    # against these
    "compute_z": REFERENCE,
    "gram_system": REFERENCE,
    "rayleigh_quotient": REFERENCE,
    # the 15 generators are checked against the derivatives of the group
    "SingularTransform": REFERENCE,
    "TransformParams": REFERENCE,
    "apply_transform": REFERENCE,
    "dilate": REFERENCE,
    "is_identity": REFERENCE,
    "rotate": REFERENCE,
    "rotation_matrix": REFERENCE,
    "_sample_on": IMPORT_PATH,
    "load_field": IMPORT_PATH,
    "load_field_csv": IMPORT_PATH,
    "load_profile": IMPORT_PATH,
    "save_field": IMPORT_PATH,
    "save_pair": IMPORT_PATH,
}


def test_only_the_listed_definitions_are_reached_from_tests_alone():
    """A helper that only tests reach joins TEST_ONLY with its reason, and
    a listed definition that the entry points reach again, or that is
    deleted, leaves it."""
    assert unreached_definitions() == set(TEST_ONLY)


def field_families() -> dict:
    """{class name: names of the methods it defines} for every class of
    the package that derives from fields.ScalarField, directly or through
    other classes of the package."""
    classes = {}
    for path in (ROOT / "src" / "wave4d").glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (
                    {b.id for b in node.bases if isinstance(b, ast.Name)},
                    {f.name for f in node.body
                     if isinstance(f, ast.FunctionDef)})
    families = {"ScalarField"}
    while True:
        more = {name for name, (bases, _) in classes.items()
                if bases & families} - families
        if not more:
            return {name: classes[name][1]
                    for name in families - {"ScalarField"}}
        families |= more


def test_every_field_family_implements_jet_alone():
    """A field family states its rule once, in jet; evaluate and gradient
    are ScalarField's, read off the jet, so no family keeps a second
    protocol beside it."""
    protocol = {"jet", "evaluate", "gradient"}
    found = field_families()
    assert {"FormulaField", "AffineField", "Combination", "SampledField",
            "PolyRadialField", "RadialExpField", "_Bump"} <= set(found)
    assert {name: sorted(methods & protocol)
            for name, methods in found.items()
            if methods & protocol != {"jet"}} == {}
