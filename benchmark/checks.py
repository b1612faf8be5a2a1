"""Verdicts on the outputs of the benchmark's operations.

Each function takes the values an operation produced and returns the list
of properties they break (empty when they hold).  Every property is one the
method must have, or agreement with a quantity computed apart from the
program (the closed-form integral, the shooting oracle); none compares with
a stored copy of earlier output.
"""

from __future__ import annotations

import math

import numpy as np


def coercivity(c_min: float, negative_control: float | None = None) -> list:
    """Projected coercivity minimum positive; negative control negative."""
    out = []
    if not c_min > 0.0:
        out.append(f"coercivity minimum {c_min!r} is not > 0")
    if negative_control is not None and not negative_control < 0.0:
        out.append(f"negative control {negative_control!r} is not < 0")
    return out


def round_trip(a, b, z_plus, z, rel_tol: float = 1e-8) -> list:
    """Decomposing well-prepared data recovers a = b = 0 and z_plus = z."""
    scale = float(np.linalg.norm(z))
    out = []
    for name, err in (("a", np.max(np.abs(a), initial=0.0)),
                      ("b", np.max(np.abs(b), initial=0.0)),
                      ("z_plus - z", np.max(np.abs(np.asarray(z_plus)
                                                   - np.asarray(z)))),
                      ):
        if not float(err) <= rel_tol * scale:
            out.append(f"|{name}| = {float(err):.3e} exceeds "
                       f"{rel_tol:g} * |z| = {rel_tol * scale:.3e}")
    return out


def shooting(gain: float, sweep_exit_taus, edge_exits) -> list:
    """Tube persistence peaks inside the amplitude bracket."""
    out = []
    if not gain >= 2.0:
        out.append(f"shooting gain {gain!r} is below 2")
    interior = max(sweep_exit_taus[1:-1], default=-math.inf)
    if not interior > max(edge_exits):
        out.append(f"best interior sweep exit time {interior!r} is not above "
                   f"both bracket ends {tuple(edge_exits)!r}")
    return out


def evolution(energy_drift: float, t_span: float, speed: float, ell: float,
              status: str) -> list:
    """Leapfrog run conserves energy, moves at ell and completes."""
    out = []
    per_10 = energy_drift * 10.0 / t_span
    if not per_10 <= 1e-3:
        out.append(f"energy drift {per_10:.3e} per 10 time units > 1e-3")
    if not abs(speed - ell) <= 0.01 * abs(ell):
        out.append(f"centre speed {speed!r} not within 1% of {ell!r}")
    if status != "done":
        out.append(f"run status {status!r} is not 'done'")
    return out


def bootstrap(margins: dict, times) -> list:
    """A finite margin for each of the five inequalities at every monitored
    time t > 1 (earlier rows may be absent or marked not applicable)."""
    rows = {row["t"]: row for row in margins.get("rows", [])}
    out = []
    for t in times:
        if t <= 1.0:
            continue
        row = rows.get(t)
        if row is None:
            out.append(f"no margin row at t = {t!r}")
        elif not all(_finite(row.get(k)) for k in _BOOTSTRAP_KEYS):
            out.append(f"non-finite margin at t = {t!r}")
    return out


_BOOTSTRAP_KEYS = ("a", "b", "phi", "z_minus", "z_plus")


def _finite(v) -> bool:
    try:
        return math.isfinite(v)
    except TypeError:
        return False


def g1_slope(slope: float, expected: float, tol: float = 0.5) -> list:
    """Fitted G1 decay slope near the interaction law."""
    if not abs(slope - expected) <= tol:
        return [f"G1 slope {slope!r} not within {tol} of {expected}"]
    return []


def split_sums(split: float, unsplit: float, rel_tol: float = 1e-12) -> list:
    """Cutting the x1 domain between solitons leaves the integral unchanged."""
    if not abs(split - unsplit) <= rel_tol * abs(unsplit):
        return [f"split sum {split!r} differs from unsplit {unsplit!r} by "
                f"more than {rel_tol:g} relative"]
    return []


def spectrum(lam_grid: float, lam_oracle: float, negative_count: int,
             kernel_count: int, alignment: float, decay_rate: float) -> list:
    """Grid eigensolve against the shooting oracle and the known kernel."""
    out = []
    if not abs(lam_grid - lam_oracle) <= 0.01 * lam_oracle:
        out.append(f"grid rate {lam_grid!r} not within 1% of the shooting "
                   f"oracle {lam_oracle!r}")
    if negative_count != 1:
        out.append(f"{negative_count} negative eigenvalues, expected 1")
    if kernel_count != 1:
        out.append(f"{kernel_count} near-zero modes, expected 1")
    if not alignment >= 0.99:
        out.append(f"near-zero mode alignment {alignment!r} below 0.99")
    if not abs(decay_rate - lam_grid) <= 0.10 * lam_grid:
        out.append(f"eigenfield decay rate {decay_rate!r} not within 10% of "
                   f"{lam_grid!r}")
    return out


def closed_form(value: float, exact: float, rel_tol: float = 1e-6) -> list:
    """Quadrature value against its closed form."""
    if not abs(value - exact) <= rel_tol * abs(exact):
        return [f"quadrature {value!r} not within {rel_tol:g} relative of "
                f"{exact!r}"]
    return []
