#!/usr/bin/env python3
"""Planted defects, each with the tests that must catch it.

Each row of DEFECTS holds a file, an exact text that occurs there once, its
replacement, what the defect means, and the pytest node ids that must fail
under it.  The runner first runs every named id on a copy of the tree as
it is, where each must pass.  Then, per defect, it copies the tree (src,
tests and pyproject.toml) to a temporary directory, plants the defect in
the copy and runs each named id there alone.  A defect is killed when
every id it names fails (pytest exit status 1); an id that is not
collected, or a copy that does not import, kills nothing.  The working
tree is only read.

Usage: python scripts/mutants.py [defect name ...]   (default: all)
Exit status 0 when every defect run is killed, 1 otherwise.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# name: (file, text, replacement, meaning, node ids that must fail)
DEFECTS = {
    "form_cross_term": (
        "src/wave4d/boosts.py",
        "return np.sum(h * h, axis=0) + 2.0 * c * h[0] * h[4]",
        "return np.sum(h * h, axis=0)",
        "the transported density without its 2 c (d1 v1) v2 term: the H_ell "
        "form loses its ell cross term",
        ["tests/test_energy.py::test_kernel_pair_neutrality",
         "tests/test_energy.py::test_weighted_form_identity"]),
    "form_speed_zero": (
        "src/wave4d/boosts.py",
        "np.array([[self.ell], [0.0]])",
        "np.array([[0.0], [0.0]])",
        "the H_ell form reads the density at speed 0 instead of ell",
        ["tests/test_energy.py::test_kernel_pair_neutrality"]),
    "laplacian_axis_node": (
        "src/wave4d/fields.py",
        "c[0], hi[0] = -2.0 * dim * ih, 2.0 * dim * ih",
        "c[0], hi[0] = -2.0 * ih, 2.0 * ih",
        "the radial axis node of the grid Laplacian without its factor d",
        ["tests/test_evolver.py::"
         "test_radial_stencil_residual_of_W_refines_at_second_order",
         "tests/test_acceptance.py::test_criterion_11_shooting"]),
    "traveling_velocity_sign": (
        "src/wave4d/boosts.py",
        "component_derivative(ft, 0) * (-ell)",
        "component_derivative(ft, 0) * ell",
        "the traveling pair's velocity -ell d1 f_ell with the opposite sign",
        ["tests/test_energy.py::test_boosted_momentum_sign",
         "tests/test_evolver.py::test_boosted_speed_and_conservation"]),
    "cylindrical_u_rule_by_degree": (
        "src/wave4d/quadrature.py",
        "    if symmetry == SYM_CYL:\n        x4_degree = 0\n",
        "",
        "a cylindrical pass sizes its u rule by the declared x4 degree, as a "
        "bicylindrical one does, instead of taking the one point u = 0",
        ["tests/test_fields.py::test_self_pairings_sample_once_per_slab"]),
    "full_on_polar_rule": (
        "src/wave4d/quadrature.py",
        "if symmetry not in (SYM_RADIAL, SYM_CYL, SYM_BICYL):",
        "if symmetry not in (SYM_RADIAL, SYM_CYL, SYM_BICYL, SYM_FULL):",
        "a full integrand runs on the polar rule instead of being refused",
        ["tests/test_quadrature.py::test_a_tag_with_no_reduction_has_no_pass",
         "tests/test_fields.py::test_symmetry_mismatch_rejected"]),
    "sturm_off_not_squared": (
        "src/wave4d/spectrum.py",
        "    squares = off * off\n",
        "    squares = off\n",
        "the Sturm recurrence reads the off-diagonal where its square belongs",
        ["tests/test_spectrum.py::"
         "test_eigenpairs_match_lapack_on_the_radial_operators[set_up]",
         "tests/test_spectrum.py::"
         "test_eigenpairs_match_lapack_on_the_radial_operators[free_middle]"]),
    "back_substitution_neighbour": (
        "src/wave4d/spectrum.py",
        "x1, x2 = (y - u * x1 - f * x2) / p, x1",
        "x1, x2 = (y - u * x2 - f * x1) / p, x1",
        "the tridiagonal solve's back substitution reads x_{i+2} through the "
        "super-diagonal and x_{i+1} through the fill-in",
        ["tests/test_spectrum.py::"
         "test_not_a_knot_slopes_match_solve_banded[mirrored_uniform]",
         "tests/test_spectrum.py::"
         "test_eigenpairs_match_lapack_on_the_radial_operators[suite_kernel]"]),
}


def copy_tree(dest: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def plant(dest: Path, path: str, text: str, replacement: str) -> None:
    target = dest / path
    source = target.read_text()
    count = source.count(text)
    if count != 1:
        raise SystemExit(f"{path}: the defect's text occurs {count} times, "
                         f"not once: {text!r}")
    target.write_text(source.replace(text, replacement))


def run_tests(dest: Path, ids) -> int:
    """pytest's exit status on the given ids in the copy at dest."""
    env = dict(os.environ, PYTHONPATH=str(dest / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *ids], cwd=dest, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def main(names) -> int:
    unknown = set(names) - set(DEFECTS)
    if unknown:
        raise SystemExit(f"unknown defects {sorted(unknown)}; the table "
                         f"holds {list(DEFECTS)}")
    names = names or list(DEFECTS)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        copy_tree(clean)
        ids = sorted({i for n in names for i in DEFECTS[n][4]})
        if run_tests(clean, ids) != 0:
            print("the named tests do not all pass on the unplanted tree")
            return 1
        survived = []
        for name in names:
            path, text, replacement, meaning, kill = DEFECTS[name]
            dest = Path(tmp) / name
            copy_tree(dest)
            plant(dest, path, text, replacement)
            codes = {i: run_tests(dest, [i]) for i in kill}
            killed = all(code == 1 for code in codes.values())
            if not killed:
                survived.append(name)
            print(f"{'killed' if killed else 'SURVIVED'}  {name}: {meaning}")
            for i, code in codes.items():
                print(f"    {'fails' if code == 1 else f'exit {code}'}  {i}")
    print(f"{len(names) - len(survived)} of {len(names)} defects killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
