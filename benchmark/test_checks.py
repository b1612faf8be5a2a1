"""Each benchmark verdict accepts a right value and rejects a wrong one;
the tracer counts a known quadrature pass exactly and leaves no wrapper.

    python3 -m pytest -q benchmark
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402

# values of the order the workloads produce
LAM, ORACLE = 1.064, 1.0641
SPECTRUM_OK = dict(negative_count=1, kernel_count=1, alignment=0.999,
                   decay_rate=1.06)
W4 = 32.0 * math.pi**2 / 3.0


def test_spectrum_rejects_rate_two_percent_off_the_oracle():
    assert checks.spectrum(LAM, ORACLE, **SPECTRUM_OK) == []
    assert checks.spectrum(1.02 * ORACLE, ORACLE, **SPECTRUM_OK)
    assert checks.spectrum(0.98 * ORACLE, ORACLE, **SPECTRUM_OK)


@pytest.mark.parametrize("field, bad", [
    ("negative_count", 2), ("negative_count", 0), ("kernel_count", 2),
    ("alignment", 0.95), ("decay_rate", 1.25)])
def test_spectrum_rejects_wrong_mode_structure(field, bad):
    assert checks.spectrum(LAM, ORACLE, **dict(SPECTRUM_OK, **{field: bad}))


def test_coercivity_rejects_flipped_signs():
    assert checks.coercivity(0.654, -0.815) == []
    assert checks.coercivity(-0.654, -0.815)
    assert checks.coercivity(0.654, 0.815)
    assert checks.coercivity(-0.602) and checks.coercivity(0.0)
    assert checks.coercivity(math.nan)


def test_split_sums_reject_a_relative_gap_of_1e_9():
    unsplit = 2.1e-4
    assert checks.split_sums(unsplit * (1 + 1e-15), unsplit) == []
    assert checks.split_sums(unsplit * (1 + 1e-9), unsplit)
    assert checks.split_sums(unsplit * (1 - 1e-9), unsplit)


def test_closed_form_rejects_1e_4_relative_error():
    assert checks.closed_form(W4 * (1 + 1e-9), W4) == []
    assert checks.closed_form(W4 * (1 + 1e-4), W4)
    assert checks.closed_form(W4 * (1 - 1e-4), W4)


def test_round_trip_rejects_z_plus_off_by_1e_6():
    z = 0.5 * 20.0**-3.5 * np.array([[0.6], [-0.8]])
    a, b = np.full(2, 1e-18), np.full((2, 2), -1e-18)
    assert checks.round_trip(a, b, z * (1 + 1e-12), z) == []
    off = z + np.array([[1e-6 * np.linalg.norm(z)], [0.0]])
    assert checks.round_trip(a, b, off, z)
    assert checks.round_trip(a, b, z + 1e-6, z)
    assert checks.round_trip(a + 1e-6 * np.linalg.norm(z), b, z, z)


def test_shooting_rejects_small_gain_and_edge_peak():
    sweep = [2.0, 3.5, 6.0, 14.0, 5.0, 3.0, 2.0]
    assert checks.shooting(5.0, sweep, (2.0, 2.8)) == []
    assert checks.shooting(1.9, sweep, (2.0, 2.8))
    assert checks.shooting(5.0, [9.0, 3.0, 2.5, 2.0, 2.5, 3.0, 9.0],
                           (9.0, 9.0))


def test_evolution_rejects_drift_speed_and_status():
    assert checks.evolution(2e-4, 5.0, 0.401, 0.4, "done") == []
    assert checks.evolution(6e-4, 5.0, 0.401, 0.4, "done")
    assert checks.evolution(2e-4, 5.0, 0.405, 0.4, "done")
    assert checks.evolution(2e-4, 5.0, 0.401, 0.4, "blowup")


def test_g1_slope_rejects_the_other_law():
    assert checks.g1_slope(-4.2, -4.0) == []
    assert checks.g1_slope(-2.0, -4.0)
    assert checks.g1_slope(-4.0, -2.0)


def test_bootstrap_rejects_missing_rows_and_non_finite_margins():
    times = [0.0, 0.5, 1.5, 2.0]
    row = dict(a=1.0, b=1.0, phi=1.0, z_minus=1.0, z_plus=1.0)
    rows = [dict(t=t, **row) for t in times]
    assert checks.bootstrap(dict(rows=rows), times) == []
    assert checks.bootstrap(dict(rows=rows[2:]), times) == []
    early = [dict(t=t, **dict.fromkeys(row)) for t in times[:2]]
    assert checks.bootstrap(dict(rows=early + rows[2:]), times) == []
    assert checks.bootstrap(dict(rows=rows[:3]), times)
    assert checks.bootstrap(
        dict(rows=rows[:3] + [dict(rows[3], a=math.inf)]), times)
    assert checks.bootstrap(
        dict(rows=rows[:3] + [dict(rows[3], z_plus=None)]), times)


def test_tracer_counts_a_pass_in_every_namespace_and_restores():
    import tracing
    from wave4d import fields, quadrature

    original = quadrature.integrate_callable
    spec = quadrature.QuadratureSpec(scheme="fixed", nodes=4, r_max=7.0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert fields.integrate_callable is quadrature.integrate_callable
        assert quadrature.integrate_callable is not original
        val = quadrature.integrate_callable(
            lambda X: np.exp(-np.sum(X**2, axis=1)), quadrature.SYM_RADIAL,
            spec).value
    finally:
        tracer.uninstall()
    assert quadrature.integrate_callable is original
    assert fields.integrate_callable is original
    # panels [0, 1, 3, 7] with 4 nodes each, one call
    m = tracer.metrics()
    assert (m["quadrature.passes"], m["quadrature.integrand_calls"],
            m["quadrature.points"]) == (1, 1, 12)
    assert val == pytest.approx(math.pi**2, rel=1e-3)
