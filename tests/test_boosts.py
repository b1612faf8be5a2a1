import dataclasses
import math
import warnings

import numpy as np
import pytest

from wave4d.boosts import (apply_H_ell, build_exp_directions,
                           component_derivative, exp_direction_decay_check,
                           lorentz_gamma, pair_vector,
                           quadratic_form_H, traveling_pair,
                           traveling_profile, z_identity_residual)
from wave4d.fields import (AffineField, FieldPair, RadialExpField, inner_l2,
                           inner_pair_l2, norm_pair, zero_field)
from wave4d.quadrature import QuadratureSpec
from wave4d.states import GENERATOR_IDS, symmetry_generator

W4 = 32.0 * math.pi**2 / 3.0


def test_boost_validation():
    with pytest.raises(ValueError):
        lorentz_gamma(1.0)
    assert lorentz_gamma(0.6) == pytest.approx(1.25)


def test_zero_speed_pair_of_every_generator(W, Qs):
    """The zero field combines with every symmetry: the ell = 0 pair of
    each of the 15 generators of W and of Q is (generator, 0), full ones
    included."""
    for profile in (W, Qs):
        for gid in GENERATOR_IDS:
            g = symmetry_generator(profile, gid)
            p = pair_vector(g, 0.0)
            assert p.first is g and p.second.terms == ()
            assert p.symmetry == g.symmetry


def test_boost_identity_and_value(W):
    assert traveling_profile(W, 0.0, 0.0) is W
    f = traveling_profile(W, 0.6, 0.0)
    # x_ell = (0.8/0.8, 0) = e1, so the value is W(e1) = (1 + 1/8)^-1
    assert f(np.array([0.8, 0.0, 0.0, 0.0])) == pytest.approx(8.0 / 9.0)


def test_boost_gradient_norm_change_of_variables(W):
    ell = 0.6
    s = math.sqrt(1 - ell * ell)
    f = traveling_profile(W, ell, 0.0)
    spec = QuadratureSpec(nodes=14, r_max=400.0)
    # int (d1 f_ell)^2 = s / (1 - ell^2) * int (d1 W)^2, etc.
    d1sq = W4 / 4.0  # each axis carries a quarter of the gradient norm
    expected = s * (d1sq / (1 - ell * ell) + 3.0 * d1sq)
    from wave4d.fields import inner_hdot1

    assert inner_hdot1(f, f, spec) == pytest.approx(expected, rel=2e-3)


def test_pair_vector_structure(W):
    p0 = pair_vector(W, 0.0, 1)
    assert p0.second(np.array([1.0, 0, 0, 0])) == 0.0
    p = pair_vector(W, 0.5, 1)
    # second component vanishes at the profile maximum
    assert p.second(np.zeros(4)) == pytest.approx(0.0, abs=1e-12)
    # pair norm is even and continuous in the speed
    spec = QuadratureSpec(nodes=10, r_max=150.0)
    norms = {ell: norm_pair(pair_vector(W, ell, 1), spec)
             for ell in (-0.6, -0.3, 0.0, 0.3, 0.6)}
    assert norms[0.3] == pytest.approx(norms[-0.3], rel=1e-10)
    assert norms[0.6] == pytest.approx(norms[-0.6], rel=1e-10)
    assert abs(norms[0.3] - norms[0.0]) < 0.3 * abs(norms[0.6] - norms[0.0])


def test_traveling_profile_recenters(W):
    f = traveling_profile(W, 0.4, 10.0, tau=-1)
    assert f(np.array([4.0, 0, 0, 0])) == pytest.approx(-1.0)
    p = traveling_pair(W, 0.4, 10.0, 1)
    assert p.second(np.array([4.0, 0, 0, 0])) == pytest.approx(0.0, abs=1e-12)


def test_h_ell_block_decoupling_at_zero_speed(W, rng):
    g = symmetry_generator(W, "scaling")
    v = FieldPair(zero_field(), g)
    out = apply_H_ell(v, 0.0, W)
    pts = rng.normal(size=(10, 4))
    assert np.allclose(out.first.evaluate(pts), 0.0, atol=1e-10)
    assert np.allclose(out.second.evaluate(pts), g.evaluate(pts))


def test_h_ell_kernel_residual_refines(W):
    """H_ell applied to a boosted kernel pair vanishes at stencil order."""
    g = symmetry_generator(W, "scaling")
    spec = QuadratureSpec(nodes=8, r_max=12.0)
    resids = []
    for step in (2e-2, 1e-2):
        out = apply_H_ell(pair_vector(g, 0.4, 1), 0.4, W, fd_step=step)
        resids.append(math.sqrt(max(
            inner_l2(out.first, out.first, spec)
            + inner_l2(out.second, out.second, spec), 0.0)))
    assert math.log2(resids[0] / resids[1]) > 3.0  # 4th-order stencils


def test_quadratic_form_value(W):
    spec = QuadratureSpec(nodes=14, r_max=500.0)
    v = FieldPair(W, zero_field())
    # int |grad W|^2 - 3 int W^4 = -2 * (32 pi^2 / 3)
    assert quadratic_form_H(v, 0.0, W, spec) == pytest.approx(-2 * W4,
                                                              rel=5e-3)


def test_exp_directions_zero_speed_reduction(ground_eigen, rng):
    lam, Y = ground_eigen
    dirs = build_exp_directions(Y, lam, 0.0)
    pts = rng.normal(scale=2.0, size=(20, 4))
    Yv = Y.evaluate(pts)
    for sgn, d in (("+", dirs["+"]), ("-", dirs["-"])):
        assert np.allclose(d.pair.first.evaluate(pts), Yv, rtol=1e-10)
        s = 1.0 if sgn == "+" else -1.0
        assert np.allclose(d.pair.second.evaluate(pts), s * lam * Yv,
                           rtol=1e-10)
        assert d.rate == pytest.approx(lam)


def test_exp_direction_gradients_match_fd(ground_eigen, rng):
    lam, Y = ground_eigen
    d = build_exp_directions(Y, lam, 0.5)["+"]
    pts = rng.normal(scale=1.5, size=(15, 4))
    for f in (d.pair.first, d.pair.second):
        g = f.gradient(pts)
        eps = 1e-5
        for ax in range(4):
            Xp = pts.copy()
            Xp[:, ax] += eps
            Xm = pts.copy()
            Xm[:, ax] -= eps
            fd = (f.evaluate(Xp) - f.evaluate(Xm)) / (2 * eps)
            assert np.max(np.abs(fd - g[:, ax])) < 1e-5


@pytest.mark.parametrize("ell", [0.0, 0.3, 0.6])
def test_z_identity(ground_eigen, W, ell):
    lam, Y = ground_eigen
    dirs = build_exp_directions(Y, lam, ell)
    spec = QuadratureSpec(nodes=8, r_max=18.0)
    for key in ("+", "-"):
        assert z_identity_residual(dirs[key], W, spec, fd_step=5e-3) < 1e-3


@pytest.mark.parametrize("ell", [0.0, 0.5])
def test_exp_direction_decay_bound(ground_eigen, ell):
    lam, Y = ground_eigen
    dirs = build_exp_directions(Y, lam, ell)
    bound = 0.5 * math.sqrt(1.0 - abs(ell)) * lam
    for key in ("+", "-"):
        rate = exp_direction_decay_check(dirs[key], [8.0, 10.0, 12.0])
        assert rate >= bound


def test_kernel_z_orthogonality(ground_eigen, W):
    """Kernel pairs pair to zero against both exponential partners."""
    lam, Y = ground_eigen
    ell = 0.3
    dirs = build_exp_directions(Y, lam, ell)
    spec = QuadratureSpec(nodes=12, r_max=25.0)
    for gid in ("scaling", "translation_1", "conformal_1"):
        kp = pair_vector(symmetry_generator(W, gid), ell, 1)
        scale = norm_pair(kp, spec) * math.sqrt(
            inner_pair_l2(dirs["+"].z_pair, dirs["+"].z_pair, spec))
        for key in ("+", "-"):
            v = inner_pair_l2(kp, dirs[key].z_pair, spec)
            assert abs(v) <= 1e-6 * scale


def test_j_antisymmetry(ground_eigen, rng):
    lam, Y = ground_eigen
    d = build_exp_directions(Y, lam, 0.4)["+"]
    v = d.pair
    jv = FieldPair(v.second, v.first * (-1.0))
    spec = QuadratureSpec(nodes=8, r_max=15.0)
    scale = inner_pair_l2(v, v, spec)
    assert abs(inner_pair_l2(jv, v, spec)) <= 1e-10 * scale


def test_component_derivative(W, rng):
    d1 = component_derivative(W, 0)
    pts = rng.normal(size=(10, 4))
    assert np.allclose(d1.evaluate(pts), W.gradient(pts)[:, 0])


def test_exp_directions_need_radial_parts(ground_eigen, W):
    lam, _ = ground_eigen
    with pytest.raises(TypeError, match="radial_parts"):
        build_exp_directions(W, lam, 0.3)


def _log_space_reference(leaf, X):
    """A direction leaf's value and gradient with the weight e^(kappa u1)
    applied to the bracket in log space throughout."""
    base, A = leaf.base, np.diag(leaf.scale)
    U = X @ A.T + leaf.shift
    v0, g0 = dataclasses.replace(base, kappa=0.0).jet(U)
    g0[:, 0] += base.kappa * v0
    s = base.kappa * U[:, 0]
    with np.errstate(divide="ignore"):
        v = np.sign(v0) * np.exp(s + np.log(np.abs(v0)))
        g = np.sign(g0) * np.exp(s[:, None] + np.log(np.abs(g0)))
    return s, v, g @ A


def test_direction_weight_never_overflows_far_along_x1(ground_eigen):
    """Far along x1, where |kappa u1| > 500 and e^(kappa u1) alone overflows,
    the weighted values and gradients are finite, warn nothing and equal
    the log-space product: for the ell = 0.5 directions, whose eigenfield
    has underflowed there, and for a leaf on slowly decaying radial parts,
    whose product grows past 1e100 while staying finite."""
    lam, Y = ground_eigen
    ell = 0.5
    d = build_exp_directions(Y, lam, ell)
    leaves = [f for s in "+-" for f in (d[s].pair.first, d[s].pair.second)]
    def slow(r, orders):
        return [(-0.25) ** k * np.exp(-0.25 * r) for k in orders]
    leaves.append(AffineField(RadialExpField(slow, 0.5, 1.2, -0.3),
                              leaves[0].scale, np.zeros(4)))
    for leaf in leaves:
        reach = 500.0 / abs(leaf.base.kappa * leaf.scale[0])
        x1 = np.linspace(1.01 * reach, 2.8 * reach, 7)
        X = np.zeros((28, 4))
        X[:, 0] = np.tile(np.concatenate([x1, -x1]), 2)
        X[14:, 1] = 3.0
        s, v_ref, g_ref = _log_space_reference(leaf, X)
        assert np.all(np.abs(s) > 500.0) and np.max(np.abs(s)) > 710.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v, g = leaf.evaluate(X), leaf.gradient(X)
        assert np.all(np.isfinite(v)) and np.all(np.isfinite(g))
        np.testing.assert_allclose(v, v_ref, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(g, g_ref, rtol=1e-13, atol=0.0)
    grows = np.abs(v[X[:, 0] > 0.0])  # the slow leaf's, beyond exp's range
    assert np.all((grows > 1e100) & (grows < 1e305))
