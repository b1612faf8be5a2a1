import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wave4d.boosts import build_exp_directions, pair_vector, traveling_pair
from wave4d.energy import (CutoffChiN, WeightZeta, _ProjectedForm,
                           _random_bump_pair, coercivity_probe, conserved_energy_momentum,
                           energy_functionals, localized_norms,
                           omega_lower_bound_gap, weighted_form_identity_gap,
                           zeta_smallness)
from wave4d.fields import FieldPair, FormulaField, pair_sum, zero_field
from wave4d.fitting import fit_loglog
from wave4d.interactions import GAssembly, soliton_config, two_soliton_config
from wave4d.quadrature import QuadratureSpec, integrate_callable, join_symmetry
from wave4d.states import symmetry_generator

W4 = 32.0 * math.pi**2 / 3.0


def test_cutoff_example_values():
    chi = CutoffChiN((-0.5, 0.5))
    assert chi.delta == pytest.approx(0.0125)
    t = 10.0
    assert chi(t, np.array([-6.0]))[0] == -0.5
    assert chi(t, np.array([6.0]))[0] == 0.5
    assert chi.ramp_slope(t) == pytest.approx(1.0 / (0.975 * t))
    with pytest.raises(ValueError):
        CutoffChiN((0.5,))
    with pytest.raises(ValueError):
        chi(0.0, np.array([0.0]))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(-0.85, 0.85), min_size=2, max_size=4, unique=True))
def test_cutoff_properties(speeds):
    speeds = sorted(speeds)
    if min(np.diff(speeds)) < 0.05:
        return
    chi = CutoffChiN(tuple(speeds))
    t = 7.0
    x1 = np.linspace(min(speeds) * t - 10, max(speeds) * t + 10, 4001)
    v = chi(t, x1)
    assert np.max(np.abs(v)) <= chi.ell_bar + 1e-12
    assert np.all(np.diff(v) >= -1e-12)
    # continuity: jumps bounded by slope * grid spacing
    h = x1[1] - x1[0]
    assert np.max(np.abs(np.diff(v))) <= 1.1 * chi.ramp_slope(t) * h
    # plateau values
    for ell in speeds:
        assert chi(t, np.array([ell * t]))[0] == pytest.approx(ell, abs=1e-12)


def test_conserved_energy_of_ground_state(W):
    spec = QuadratureSpec(nodes=14, r_max=1000.0)
    E, P = conserved_energy_momentum(FieldPair(W, zero_field()), spec)
    # the u^4/4 potential: E(W) = (1/2 - 1/4) int W^4, since
    # int |grad W|^2 = int W^4
    assert E == pytest.approx(W4 / 4, abs=2e-3)
    assert P == pytest.approx(0.0, abs=1e-10)
    E0, P0 = conserved_energy_momentum(FieldPair(zero_field(), zero_field()))
    assert (E0, P0) == (0.0, 0.0)


@pytest.mark.parametrize("ell", [0.3, 0.6])
def test_boosted_energy_follows_the_lorentz_law(W, ell):
    """E(W_ell) = E(W) / sqrt(1 - ell^2) and P = -ell E.  The r_max = 200
    domain truncates about 1e-3 of E (E(W) itself reads 1.2e-3 low)."""
    spec = QuadratureSpec(nodes=12, r_max=200.0)
    E, P = conserved_energy_momentum(pair_vector(W, ell, 1), spec)
    assert E == pytest.approx(W4 / 4 / math.sqrt(1.0 - ell**2), rel=2e-3)
    assert P == pytest.approx(-ell * E, rel=2e-3)


@settings(max_examples=12, deadline=None)
@given(st.floats(-0.8, 0.8))
def test_boosted_energy_follows_the_lorentz_law_at_any_speed(W, ell):
    """The Lorentz law of the pinned cases above at any speed |ell| <= 0.8,
    at their resolution and tolerance.  P is checked to 1e-6 absolute as
    well, so that near ell = 0, where -ell E vanishes, the check does not
    ask for exact zeros.  Read: E within 5.3e-4 to 1.2e-3 (low), P within
    5.6e-4 of -ell E; 3-4 ms per speed."""
    spec = QuadratureSpec(nodes=12, r_max=200.0)
    E, P = conserved_energy_momentum(pair_vector(W, ell, 1), spec)
    assert E == pytest.approx(W4 / 4 / math.sqrt(1.0 - ell**2), rel=2e-3)
    assert P == pytest.approx(-ell * E, rel=2e-3, abs=1e-6)


def test_boosted_momentum_sign(W):
    spec = QuadratureSpec(nodes=12, r_max=200.0)
    for ell in (0.4, -0.4):
        p = pair_vector(W, ell, 1)
        _, P1 = conserved_energy_momentum(p, spec)
        assert math.copysign(1.0, P1) == -math.copysign(1.0, ell)


@pytest.fixture(scope="module")
def wcfg():
    return soliton_config("ground", (-0.4, 0.4))


def test_functionals_trivial_cases(wcfg):
    spec = QuadratureSpec(nodes=6, r_max=20.0)
    rep = energy_functionals(FieldPair(zero_field(), zero_field()), wcfg,
                             10.0, spec=spec)
    assert rep.energy == pytest.approx(0.0, abs=1e-12)
    assert rep.momentum == 0.0
    assert rep.coupling == 0.0
    assert rep.total == pytest.approx(0.0, abs=1e-12)
    # nonzero a with zero remainder still gives zero ramp and coupling terms
    cfg_a = two_soliton_config(wcfg.profiles[0], wcfg.slow[0],
                               wcfg.kernels[0], speeds=(-0.4, 0.4),
                               a=(0.02, 0.0))
    rep_a = energy_functionals(FieldPair(zero_field(), zero_field()), cfg_a,
                               10.0, spec=spec)
    assert rep_a.coupling == 0.0
    assert all(j == 0.0 for j in rep_a.ramp)
    # the momentum part is odd under flipping the velocity component
    bump = FormulaField(lambda X: np.exp(-np.sum(X * X, axis=1)),
                        symmetry="cylindrical")
    phi = FieldPair(bump, bump)
    phi_flip = FieldPair(bump, bump * (-1.0))
    r1 = energy_functionals(phi, wcfg, 10.0, spec=spec)
    r2 = energy_functionals(phi_flip, wcfg, 10.0, spec=spec)
    assert r1.momentum == pytest.approx(-r2.momentum, rel=1e-10)
    assert r1.total == pytest.approx(sum([r1.energy, r1.momentum,
                                          r1.coupling, *r1.ramp]))


def test_functionals_match_raw_field_formula(wcfg):
    """With nonzero a and b, the functionals equal their integrand written
    out on the raw fields Q_n, Psi_n, Phi_nk (R + U + V and G2 included)."""
    cfg = two_soliton_config(wcfg.profiles[0], wcfg.slow[0], wcfg.kernels[0],
                             speeds=(-0.4, 0.4), a=(0.02, -0.01),
                             b=((0.01,), (-0.02,)))
    t = 10.0
    spec = QuadratureSpec(nodes=6, r_max=20.0)
    bump = FormulaField(lambda X: np.exp(-0.1 * np.sum(X * X, axis=1)),
                        symmetry="cylindrical")
    phi = FieldPair(bump, bump * 0.5)
    rep = energy_functionals(phi, cfg, t, spec=spec)

    asm = GAssembly(cfg, t)
    chi = CutoffChiN(tuple(cfg.speeds))
    slow = [traveling_pair(s, ell, t, 1)
            for s, ell in zip(cfg.slow, cfg.speeds)]

    def fn(X):
        g1 = phi.first.gradient(X)
        p1, p2 = phi.first.evaluate(X), phi.second.evaluate(X)
        q = [f.evaluate(X) for f in asm.Q]
        w = [cfg.a[n] * asm.Psi[n].evaluate(X)
             + sum(cfg.b[n, k] * f.evaluate(X)
                   for k, f in enumerate(asm.Phi[n]))
             for n in range(cfg.n)]
        ruv = sum(q) + sum(w)
        c = chi(t, X[:, 0])
        cols = [np.einsum("ij,ij->i", g1, g1) + p2 * p2
                - 0.5 * (ruv + p1) ** 4 + 0.5 * ruv**4 + 2.0 * ruv**3 * p1,
                2.0 * c * g1[:, 0] * p2,
                -2.0 * p1 * sum(3.0 * qn * wn**2 for qn, wn in zip(q, w))]
        for n, ell in enumerate(cfg.speeds):
            cols.append(2.0 * cfg.a[n] * (ell * g1[:, 0] - p2) * (ell - c)
                        * slow[n].first.gradient(X)[:, 0])
        return np.stack(cols, axis=1)

    sp = cfg.quad_spec(t, spec)
    ref = integrate_callable(fn, join_symmetry(phi.symmetry, asm.symmetry),
                             sp, x1_range=cfg.x1_window(t, sp)).value
    got = [rep.energy, rep.momentum, rep.coupling, *rep.ramp]
    assert all(v != 0.0 for v in got)
    np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)


def test_localized_norms_partition_and_bound(wcfg, rng):
    chi = CutoffChiN((-0.4, 0.4))
    t = 10.0
    spec = QuadratureSpec(nodes=12, r_max=15.0, x1_centers=(6.5,))
    # a bump supported inside the right plateau (the ramp ends at 3.9)
    bump = FormulaField(
        lambda X: np.exp(-4.0 * ((X[:, 0] - 6.5) ** 2
                                 + np.sum(X[:, 1:] ** 2, axis=1))),
        symmetry="cylindrical")
    phi = FieldPair(bump, bump)
    omega, comp = localized_norms(phi, chi, t, spec=spec,
                                  x1_domain=(-12.0, 12.0))
    assert omega == pytest.approx(0.0, abs=1e-10)
    assert comp > 0.0

    # est:Nomega lower bound on 100 seeded random pairs
    gen = np.random.default_rng(3)
    for _ in range(100):
        v = _random_bump_pair(gen, radius=6.0)
        assert omega_lower_bound_gap(v, chi, t, spec) >= -1e-10

    # partition additivity: plain ramp integral + complement = full norm
    def fn_plain(X):
        g = phi.first.gradient(X)
        p2 = phi.second.evaluate(X)
        return np.einsum("ij,ij->i", g, g) + p2 * p2

    ramp_plain = sum(
        integrate_callable(fn_plain, phi.symmetry, spec, x1_range=iv).value
        for iv in chi.omega_intervals(t))
    total = integrate_callable(fn_plain, phi.symmetry, spec,
                               x1_range=(-12.0, 12.0)).value
    _, comp2 = localized_norms(phi, chi, t, spec=spec,
                               x1_domain=(-12.0, 12.0))
    assert ramp_plain + comp2 == pytest.approx(total, rel=1e-4)


def test_zeta_smallness_rate():
    chi = CutoffChiN((-0.5, 0.5))
    for gamma in (0.025, 0.05, 0.1):
        times = [1e3, 2e3, 4e3, 8e3]
        sups = [zeta_smallness(chi, gamma, t)["sup_omega"] for t in times]
        fit = fit_loglog(times, sups)
        assert fit.slope == pytest.approx(-2 * gamma, abs=0.02)
        mism = [zeta_smallness(chi, gamma, t)["sup_mismatch"] for t in times]
        fitm = fit_loglog(times, mism)
        assert fitm.slope == pytest.approx(-2 * gamma, abs=0.02)


def test_weight_validation():
    with pytest.raises(ValueError):
        WeightZeta(0.0)
    with pytest.raises(ValueError):
        WeightZeta(1.5)


def test_weighted_form_identity(W, rng):
    zeta = WeightZeta(0.05)
    for _ in range(3):
        v = _random_bump_pair(rng, radius=5.0)
        out = weighted_form_identity_gap(v, 0.3, W, zeta)
        scale = max(abs(out["pair_form"]), 1.0)
        assert abs(out["gap"]) <= 1e-9 * scale


@pytest.mark.parametrize("ell", [0.0, 0.5])
def test_coercivity_probe(W, ground_eigen, ell):
    lam, Y = ground_eigen
    dirs = build_exp_directions(Y, lam, ell)
    kf = [symmetry_generator(W, "scaling"),
          symmetry_generator(W, "translation_1")]
    rep = coercivity_probe(ell, W, kf, dirs, n_samples=30, seed=5,
                           spec=QuadratureSpec(nodes=8, r_max=25.0),
                           negative_field=Y)
    assert rep.c_min > 0.0
    assert rep.negative_control < 0.0


@settings(max_examples=40, deadline=None)
@given(ell=st.floats(-0.6, 0.6), seed=st.integers(0, 2**32 - 1))
def test_projected_form_is_coercive_at_any_speed(W, ground_eigen, ell, seed):
    """For ell in [-0.6, 0.6] and any bump seed, the projected H_ell form
    of a 40-sample probe stays positive and the negative control negative
    (c_min >= 0.45 and control <= -0.69 over 108 scanned (ell, seed))."""
    lam, Y = ground_eigen
    kf = [symmetry_generator(W, "scaling"),
          symmetry_generator(W, "translation_1")]
    rep = coercivity_probe(ell, W, kf, build_exp_directions(Y, lam, ell),
                           n_samples=40, seed=seed,
                           spec=QuadratureSpec(nodes=8, r_max=25.0),
                           negative_field=Y)
    assert rep.c_min > 0.0
    assert rep.negative_control < 0.0


@pytest.mark.parametrize("ell,gamma", [(0.0, None), (0.5, None),
                                       (0.0, 0.05)])
def test_projected_form_blocks_match_explicit_projection(W, ground_eigen,
                                                         ell, gamma):
    """The probe's projected form and norm, taken of the projected features
    Sv - Sc s, equal the form and norm of the explicitly projected pair
    v - sum_k s_k c_k sampled afresh.

    Both sides use the same quadrature nodes and features are linear in the
    pair, so they agree to round-off; a corrector column out of step with
    its coefficient does not.
    """
    lam, Y = ground_eigen
    kf = [symmetry_generator(W, "scaling"),
          symmetry_generator(W, "translation_1")]
    proj = _ProjectedForm(ell, W, kf, build_exp_directions(Y, lam, ell),
                          gamma, QuadratureSpec(nodes=8, r_max=25.0))
    gen = np.random.default_rng(7)
    for _ in range(3):
        v = _random_bump_pair(gen)
        Fp, Np, s, _ = proj(v)
        w = v
        for sk, c in zip(s, proj.correctors):
            w = pair_sum([w, c], [1.0, -sk])
        F, N = proj.form_and_norm(w)
        assert Fp == pytest.approx(F, rel=1e-10)
        assert Np == pytest.approx(N, rel=1e-10)
        if ell == 0.0:
            assert F >= 0.0


def test_weighted_coercivity_gamma_sweep(W, ground_eigen):
    """c_est(gamma) is reported per weight exponent; positivity holds for
    the smallest exponent and degrades as the weight strengthens (the
    guarantee is only for small enough gamma)."""
    lam, Y = ground_eigen
    dirs = build_exp_directions(Y, lam, 0.0)
    kf = [symmetry_generator(W, "scaling"),
          symmetry_generator(W, "translation_1")]
    mins = {}
    for gamma in (0.025, 0.05, 0.1):
        rep = coercivity_probe(0.0, W, kf, dirs, n_samples=15, seed=9,
                               gamma=gamma,
                               spec=QuadratureSpec(nodes=8, r_max=25.0))
        mins[gamma] = rep.c_min
    assert mins[0.025] > 0.0
    assert mins[0.025] > mins[0.05] > mins[0.1]


@pytest.mark.parametrize("ell", [-0.5, 0.3, 0.5])
def test_kernel_pair_neutrality(W, ground_eigen, ell):
    """The form vanishes on the kernel span relative to the pair norm, at
    the two-soliton suites' speeds +-0.5 too."""
    from wave4d.boosts import quadratic_form_H
    from wave4d.fields import norm_pair

    # the kernel-pair densities decay slowly; the cancellation needs a
    # large truncation radius before the tail stops dominating
    spec = QuadratureSpec(nodes=12, r_max=300.0)
    for gid in ("scaling", "translation_1"):
        kp = pair_vector(symmetry_generator(W, gid), ell, 1)
        val = quadratic_form_H(kp, ell, W, spec)
        scale = norm_pair(kp, spec) ** 2
        assert abs(val) <= 2e-3 * scale
