import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from wave4d.fields import FormulaField
from wave4d.fitting import fit_loglog
from wave4d.interactions import (PROFILES, GAssembly, MultiSolitonConfig,
                                 cutoff_bump, g_part_norms,
                                 interaction_integral,
                                 interaction_rate_table, pairwise_q_norm,
                                 sigma_rate, slow_pairing_lawcheck,
                                 slow_pairing_series, soliton_config,
                                 two_soliton_config, verify_G_norms)
from wave4d.quadrature import QuadratureSpec, integrate_callable
from wave4d.states import symmetry_generator

SPEC = QuadratureSpec(nodes=8, r_max=40.0)


@pytest.fixture(scope="module")
def surrogate_cfg(Qs):
    slow = symmetry_generator(Qs, "conformal_4")
    kernels = [symmetry_generator(Qs, g)
               for g in ("scaling", "translation_1")]
    return two_soliton_config(Qs, slow, kernels,
                              a=(0.01, -0.02), b=((0.01, 0.0), (0.0, 0.02)))


@pytest.fixture(scope="module")
def ground_cfg():
    return soliton_config("ground", (-0.5, 0.5))


@pytest.mark.parametrize("profile", list(PROFILES))
def test_each_profile_row_states_its_interaction_law(profile):
    """The G1 norm of a row's two-soliton configuration decays at the row's
    power p, within the interactions suite's window -p +- 0.5 at the
    suite's settings (slopes -4.00 and -2.06)."""
    cfg = soliton_config(profile, (-0.5, 0.5))
    fit = verify_G_norms(cfg, (10.0, 20.0, 40.0, 80.0), SPEC)["g1_fit"]
    assert abs(fit.slope + PROFILES[profile].g1_power) <= 0.5


def test_config_validation(W):
    slow = symmetry_generator(W, "scaling")
    with pytest.raises(ValueError):
        two_soliton_config(W, slow, [], speeds=(0.5, -0.5))
    with pytest.raises(ValueError):
        two_soliton_config(W, slow, [], speeds=(-0.5, 1.5))
    with pytest.raises(ValueError):
        two_soliton_config(W, slow, [], a=(0.5, 0.5))


def test_quad_spec_grades_by_the_narrowest_core(surrogate_cfg, ground_cfg):
    """First panels follow the profile core, never wider than 1: the
    surrogate's 1/sqrt(8) core narrows them, W's sqrt(8) core does not."""
    assert surrogate_cfg.quad_spec(10.0, SPEC).core == 1.0 / math.sqrt(8.0)
    assert ground_cfg.quad_spec(10.0, SPEC).core == 1.0
    assert ground_cfg.quad_spec(10.0, replace(SPEC, core=0.5)).core == 0.5
    assert surrogate_cfg.quad_spec(10.0, SPEC).x1_centers == (-5.0, 5.0)


def test_cutoff_bump_shape():
    s = np.linspace(0.0, 3.0, 301)
    v = cutoff_bump(s)
    assert np.all(v[s <= 1.0] == 1.0)
    assert np.all(v[s >= 2.0] == 0.0)
    assert np.all(np.diff(v) <= 1e-12)
    assert np.all((0.0 <= v) & (v <= 1.0))


def test_single_soliton_no_corrections_gives_zero(W, rng):
    cfg = MultiSolitonConfig(profiles=[W], speeds=[0.2], signs=[1],
                             a=np.zeros(1), b=np.zeros((1, 0)),
                             slow=[symmetry_generator(W, "scaling")],
                             kernels=[[]])
    asm = GAssembly(cfg, 10.0)
    pts = rng.normal(scale=3.0, size=(50, 4))
    assert np.max(np.abs(asm.parts(pts)["G"])) < 1e-14


def test_zero_corrections_reduce_to_pure_interaction(ground_cfg, rng):
    asm = GAssembly(ground_cfg, 10.0)
    pts = rng.normal(scale=4.0, size=(60, 4))
    pts[:, 0] += rng.choice([-5.0, 5.0], size=60)
    total = asm.parts(pts)["G"]
    g1 = asm.parts(pts)["G1"]
    assert np.allclose(total, g1, rtol=1e-12, atol=1e-16)


def test_reconstruction_identity(surrogate_cfg, rng):
    asm = GAssembly(surrogate_cfg, 12.0)
    pts = rng.normal(scale=4.0, size=(80, 4))
    pts[:, 0] += 6.0
    assert asm.reconstruction_gap(pts) < 1e-12


def test_direct_total_matches_raw_fields(surrogate_cfg, rng):
    """G = (R+U+V)^3 - sum Q^3 - 3 sum a Q^2 Psi - 3 sum b Q^2 Phi, with
    every field sampled on its own (nonzero a and b)."""
    cfg = surrogate_cfg
    asm = GAssembly(cfg, 12.0)
    pts = rng.normal(scale=4.0, size=(80, 4))
    pts[:, 0] += rng.choice([-6.0, 6.0], size=80)
    Q = [f.evaluate(pts) for f in asm.Q]
    Psi = [f.evaluate(pts) for f in asm.Psi]
    Phi = [[f.evaluate(pts) for f in row] for row in asm.Phi]
    R = sum(Q)
    U = sum(cfg.a[n] * Psi[n] for n in range(cfg.n))
    V = sum(cfg.b[n, k] * Phi[n][k]
            for n in range(cfg.n) for k in range(cfg.n_kernel))
    G = ((R + U + V) ** 3 - sum(q**3 for q in Q)
         - 3.0 * sum(cfg.a[n] * Q[n] ** 2 * Psi[n] for n in range(cfg.n))
         - 3.0 * sum(cfg.b[n, k] * Q[n] ** 2 * Phi[n][k]
                     for n in range(cfg.n) for k in range(cfg.n_kernel)))
    got = asm.parts(pts)
    assert np.max(np.abs(got["G"] - G)) <= 1e-12 * np.max(np.abs(G))
    assert np.max(np.abs(got["RUV"] - (R + U + V))) \
        <= 1e-12 * np.max(np.abs(R + U + V))


def test_zero_coefficient_corrections_are_not_sampled(rng):
    """With a = b = 0 the assembly never samples Psi or Phi."""
    cfg = soliton_config("surrogate", (-0.5, 0.5))

    def refuse(X):
        raise AssertionError("a zero-coefficient field was sampled")

    asm = GAssembly(cfg, 12.0)
    asm.Psi = [FormulaField(refuse)] * cfg.n
    asm.Phi = [[FormulaField(refuse)] * cfg.n_kernel] * cfg.n
    pts = rng.normal(scale=4.0, size=(40, 4))
    parts = asm.parts(pts)
    assert all(np.all(v == 0.0) for v in parts["G2"] + parts["G3"])
    assert np.any(parts["G1"] != 0.0)


def test_decomposition_displays(Qs, rng):
    slow = symmetry_generator(Qs, "conformal_4")
    kern = [symmetry_generator(Qs, "scaling")]
    pts = rng.normal(scale=3.0, size=(40, 4))
    # b = 0: the cubic correction term is U^3
    cfg_b0 = two_soliton_config(Qs, slow, kern, a=(0.02, -0.01),
                                b=((0.0,), (0.0,)))
    asm = GAssembly(cfg_b0, 11.0)
    parts = asm.parts(pts)
    U = sum(cfg_b0.a[n] * asm.Psi[n].evaluate(pts) for n in range(2))
    assert np.allclose(parts["G3"][1], U**3, rtol=1e-12, atol=1e-18)
    # a = 0: the same-soliton quadratic term uses only the kernel fields
    cfg_a0 = two_soliton_config(Qs, slow, kern, b=((0.02,), (-0.01,)))
    asm0 = GAssembly(cfg_a0, 11.0)
    parts0 = asm0.parts(pts)
    for n in range(2):
        w = cfg_a0.b[n, 0] * asm0.Phi[n][0].evaluate(pts)
        qn = asm0.Q[n].evaluate(pts)
        assert np.allclose(parts0["G2"][n], 3.0 * qn * w * w, rtol=1e-12,
                           atol=1e-18)


def test_interaction_rate_laws():
    times = [10.0, 20.0, 40.0, 80.0, 160.0]
    rows = interaction_rate_table(
        [(1.0, 3.0), (0.5, 2.5), (1.5, 3.0),
         (1.5, 1.5), (1.2, 1.8), (1.8, 1.9),
         (1.0, 2.0), (0.5, 2.0), (1.5, 2.0)],
        times, spec=QuadratureSpec(nodes=10))
    for r in rows:
        if r["law"] == "power":
            assert abs(r["fit"].slope - r["expected"]) <= 0.3, r
        else:
            assert r["fit"].slope > 1.0, r  # markedly positive log growth


def test_interaction_integral_validation_and_symmetry():
    kernel = FormulaField(lambda X: (1.0 + np.sum(X * X, axis=1)) ** -1.0,
                          symmetry="radial", decay=2.0)
    with pytest.raises(ValueError):
        interaction_integral(kernel, kernel, 1.0, 0.5, (-0.5, 0.5), 10.0)
    with pytest.raises(ValueError):
        interaction_integral(kernel, kernel, 2.0, 2.0, (0.5, 0.5), 10.0)
    a = interaction_integral(kernel, kernel, 1.5, 1.5, (-0.4, 0.4), 12.0,
                             SPEC)
    b = interaction_integral(kernel, kernel, 1.5, 1.5, (0.4, -0.4), 12.0,
                             SPEC)
    assert a == pytest.approx(b, rel=1e-9)


def test_g1_law_surrogate_and_ground(surrogate_cfg, ground_cfg):
    times = [10.0, 20.0, 40.0, 80.0]
    surr = [g_part_norms(surrogate_cfg, t, SPEC) for t in times]
    fit_s = fit_loglog(times, [r["g1"] for r in surr])
    assert -4.5 <= fit_s.slope <= -3.5
    # every fitted interaction norm is nonincreasing on the grid
    assert all(surr[i]["g1"] >= surr[i + 1]["g1"] for i in range(3))

    grd = [g_part_norms(ground_cfg, t, SPEC) for t in times]
    fit_g = fit_loglog(times, [r["g1"] for r in grd])
    assert -2.5 <= fit_g.slope <= -1.5


def test_g2_and_g3_bounds(surrogate_cfg):
    times = [10.0, 20.0, 40.0]
    rows = [g_part_norms(surrogate_cfg, t, SPEC) for t in times]
    a2b2 = (np.linalg.norm(surrogate_cfg.a) ** 2
            + np.linalg.norm(surrogate_cfg.b) ** 2)
    ratios = [r["g2"] / a2b2 for r in rows]
    # the same-soliton quadratic norm is time-invariant
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-6)
    a2b3 = (np.linalg.norm(surrogate_cfg.a) ** 2
            + np.linalg.norm(surrogate_cfg.b) ** 3)
    consts = [r["g3"] / (a2b3 + t**-4) for r, t in zip(rows, times)]
    assert max(consts) < 10.0 * min(consts) + 1.0


def test_g2_vanishes_without_corrections(ground_cfg):
    r = g_part_norms(ground_cfg, 10.0, SPEC)
    assert r["g2"] == pytest.approx(0.0, abs=1e-14)


def test_pairwise_q_norm(surrogate_cfg, W):
    cfg1 = MultiSolitonConfig(profiles=[W], speeds=[0.1], signs=[1],
                              a=np.zeros(1), b=np.zeros((1, 0)),
                              slow=[symmetry_generator(W, "scaling")],
                              kernels=[[]])
    assert pairwise_q_norm(cfg1, 10.0) == 0.0

    times = [10.0, 20.0, 40.0, 80.0]
    totals = [pairwise_q_norm(surrogate_cfg, t, SPEC) for t in times]
    assert abs(fit_loglog(times, totals).slope + 4.0) < 0.5

    # inner/outer split: inner (around soliton n) carries the t^-8 law of
    # the squared integral and dominates the outer part (near the partner)
    # for t >= 20
    inner, outer = [], []
    for t in times:
        tot, details = pairwise_q_norm(surrogate_cfg, t, SPEC, split=True)
        inner.append(sum(d["inner"] for d in details))
        outer.append(sum(d["outer"] for d in details))
        unsplit = pairwise_q_norm(surrogate_cfg, t, SPEC)
        assert tot == pytest.approx(unsplit, rel=1e-9, abs=0.0)
    assert abs(fit_loglog(times, inner).slope + 8.0) < 0.8
    for t, i, o in zip(times, inner, outer):
        if t >= 20.0:
            assert o <= i


@pytest.mark.parametrize("t", [10.0, 80.0])
def test_pairwise_total_is_converged_at_laws_nodes(surrogate_cfg, t):
    """The laws resolution (nodes 8) gives the pairwise total of a nodes-32
    pass to 1e-6: the angle is exact and the panels resolve the core."""
    fine = pairwise_q_norm(surrogate_cfg, t, replace(SPEC, nodes=32))
    assert pairwise_q_norm(surrogate_cfg, t, SPEC) == pytest.approx(
        fine, rel=1e-6, abs=0.0)


def _pairwise_per_pair(cfg, t, spec):
    """Reference split of pairwise_q_norm: each ordered pair (n, m)
    integrates Q_n^4 Q_m^2 in its own passes, one over its inner region
    |x1 - l_n t| <= half and two over the outer ranges, on the spec's full
    u rule.  Rows (n, m, inner, outer, unsplit)."""
    Q = cfg.traveling_profiles(t)
    sp = cfg.quad_spec(t, spec)
    lo, hi = cfg.x1_window(t, sp)
    rows = []
    for n in range(cfg.n):
        for m in range(cfg.n):
            if m == n:
                continue
            qn, qm = Q[n], Q[m]

            def over(a, b):
                return integrate_callable(
                    lambda X: qn.evaluate(X) ** 4 * qm.evaluate(X) ** 2,
                    qn.symmetry, sp, x1_range=(a, b)).value

            ln, lm = cfg.speeds[n], cfg.speeds[m]
            half = 0.5 * abs(ln - lm) * t * math.sqrt(1.0 - ln * ln)
            c = ln * t
            rows.append((n, m, over(c - half, c + half),
                         over(lo, c - half) + over(c + half, hi),
                         over(lo, hi)))
    return rows


@pytest.mark.parametrize("t", [10.0, 40.0])
def test_fused_pairwise_equals_the_per_pair_passes(t):
    """At unequal speeds the two pairs' regions are no mirror images, so
    each region bound of one pair cuts the other pair's outer range; the
    fused windows still give every pair's inner and outer parts, and both
    totals, of the per-pair passes to 1e-12.  A cut splits the x1 panel
    it falls in, which moves a part by that panel's quadrature error:
    1.2e-11 of the (1, 0) outer part at 8 nodes, round-off from 10 nodes
    on, so the comparison runs at 12."""
    cfg = soliton_config("surrogate", (-0.3, 0.6))
    spec = replace(SPEC, nodes=12)
    ref = _pairwise_per_pair(cfg, t, spec)
    total, details = pairwise_q_norm(cfg, t, spec, split=True)
    assert [(d["n"], d["m"]) for d in details] == [r[:2] for r in ref]
    # abs=0: the parts are far below approx's default absolute 1e-12
    for d, (_, _, inner, outer, _) in zip(details, ref):
        assert d["inner"] == pytest.approx(inner, rel=1e-12, abs=0.0)
        assert d["outer"] == pytest.approx(outer, rel=1e-12, abs=0.0)
    assert total == pytest.approx(
        sum(math.sqrt(i + o) for _, _, i, o, _ in ref), rel=1e-12, abs=0.0)
    assert pairwise_q_norm(cfg, t, spec) == pytest.approx(
        sum(math.sqrt(u) for *_, u in ref), rel=1e-12, abs=0.0)


def test_pairwise_split_rejects_a_region_past_the_window(surrogate_cfg):
    """At t = 200 the regions reach 87 from the centers, past the window's
    40: the split raises, as a reversed x1 range does."""
    with pytest.raises(ValueError, match="outside the x1 window"):
        pairwise_q_norm(surrogate_cfg, 200.0, SPEC, split=True)


def test_slow_pairing_log_law(Qs):
    psi = symmetry_generator(Qs, "conformal_4")
    times = [20.0, 40.0, 80.0, 160.0, 320.0]
    for ell in (0.0, 0.6):
        fit = slow_pairing_lawcheck(psi, ell, times, sigma=0.1,
                                    spec=QuadratureSpec(nodes=10))
        expected = sigma_rate(ell)
        assert abs(fit.slope - expected) / expected < 0.05
        assert fit.r_squared > 0.999


def test_slow_pairing_cross_term_bounded(Qs):
    psi = symmetry_generator(Qs, "conformal_4")
    times = [10.0, 20.0, 40.0, 80.0, 160.0]
    vals = slow_pairing_series(psi, -0.5, 0.1, times, other=psi,
                               other_ell=0.5,
                               spec=QuadratureSpec(nodes=10))
    assert max(abs(v) for v in vals) < 1.0
    # growth across a decade stays within an O(1) band
    assert abs(vals[-1] - vals[0]) < 0.2


def test_sigma_rate_values():
    assert sigma_rate(0.0) == pytest.approx(2 * math.pi**2)
    assert sigma_rate(0.6) == pytest.approx(2 * math.pi**2 * 0.8)


def _factored_g_longdouble(q, w):
    """(G1, G) from the factored formula, in np.longdouble: G1 = 3 sum_{n!=m}
    Q_n^2 Q_m + 6 sum_{i<j<k} Q_i Q_j Q_k and G = G1 + 3 sum_{n!=m} w_n Q_m
    (R + Q_n) + 3 R W^2 + W^3, with no difference of O(1) cubes."""
    q, w = q.astype(np.longdouble), w.astype(np.longdouble)
    R, W = q.sum(axis=0), w.sum(axis=0)
    g1 = np.zeros_like(R)
    cross = np.zeros_like(R)
    for n in range(len(q)):
        for m in range(len(q)):
            if m != n:
                g1 += 3 * q[n] * q[n] * q[m]
                cross += w[n] * q[m] * (R + q[n])
    for i, j, k in combinations(range(len(q)), 3):
        g1 += 6 * q[i] * q[j] * q[k]
    return g1, g1 + 3 * cross + 3 * R * W * W + W * W * W


@pytest.mark.parametrize("corrections,times", [
    (False, (10.0, 20.0, 40.0, 80.0)),  # the laws settings
    (True, (80.0,))])
def test_g_norms_match_extended_precision_reference(surrogate_cfg,
                                                    corrections, times):
    """g and g1 equal an 80-bit evaluation of the factored G on the same
    nodes: the far nodes, where G << Q_n, keep their relative precision."""
    cfg = surrogate_cfg if corrections else soliton_config(
        "surrogate", (-0.5, 0.5))
    for t in times:
        row = g_part_norms(cfg, t, SPEC)
        asm = GAssembly(cfg, t)

        def ref(X):
            g1, g = _factored_g_longdouble(*asm._componentwise(X))
            return np.stack([g1 * g1, g * g], axis=1).astype(float)

        sp = cfg.quad_spec(t, SPEC)
        g1_ref, g_ref = np.sqrt(integrate_callable(
            ref, asm.symmetry, sp, x1_range=cfg.x1_window(t, sp)).value)
        assert row["g1"] == pytest.approx(g1_ref, rel=1e-13, abs=0.0)
        assert row["g"] == pytest.approx(g_ref, rel=1e-13, abs=0.0)
