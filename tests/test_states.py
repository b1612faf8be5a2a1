import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wave4d.fields import FormulaField, Grid2DCyl, SampledField, save_field
from wave4d.fitting import check_decay
from wave4d.quadrature import QuadratureSpec
from wave4d.states import (GENERATOR_IDS, SingularTransform, SurrogateSpec,
                           TransformParams, apply_transform,
                           cylindrical_residual_norm, dilate, ground_state,
                           kelvin, kernel_basis, load_profile,
                           radial_residual_norm, rotate, rotation_matrix,
                           surrogate_excited_state, surrogate_seed,
                           symmetric_generator_ids, symmetry_generator,
                           translate)


def test_ground_state_values(W):
    assert W(np.zeros(4)) == 1.0
    assert W(np.array([math.sqrt(8.0), 0, 0, 0])) == pytest.approx(0.5)
    assert W.meta["pde_solution"] is True


def test_stationary_residual_refines_at_stencil_order(W):
    res = [radial_residual_norm(W, 20.0, n) for n in (200, 400, 800)]
    orders = [math.log2(res[i] / res[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8


def test_transformed_states_remain_stationary(W):
    # dilation keeps the profile radial; translation along x1 does not
    f = dilate(W, 1.7)
    res = [radial_residual_norm(f, 20.0, n) for n in (200, 400)]
    assert math.log2(res[0] / res[1]) >= 1.8
    g = translate(W, np.array([0.8, 0.0, 0.0, 0.0]))
    res = [cylindrical_residual_norm(g, (-10.0, 10.0), 8.0, n, n // 2)
           for n in (160, 320)]
    assert math.log2(res[0] / res[1]) >= 1.8


def test_kelvin_closed_forms(W, rng):
    KW = kelvin(W)
    assert KW(np.zeros(4)) == pytest.approx(8.0)
    pts = rng.normal(scale=3.0, size=(1000, 4))
    assert np.max(np.abs(KW.evaluate(pts) - 8.0 * W.evaluate(8.0 * pts))) \
        <= 1e-10
    seed = surrogate_seed()
    Kq = kelvin(seed)
    r2 = np.sum(pts * pts, axis=1)
    closed = 64.0 * pts[:, 3] / (1.0 + 8.0 * r2) ** 2
    assert np.max(np.abs(Kq.evaluate(pts) - closed)) <= 1e-10


@settings(max_examples=20, deadline=None)
@given(st.tuples(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
                 st.floats(-2, 2)))
def test_kelvin_involution(pt):
    x = np.asarray(pt)
    if np.linalg.norm(x) < 0.3:
        x = x + 0.5
    W = ground_state()
    KKW = kelvin(kelvin(W))
    assert KKW(x) == pytest.approx(W(x), rel=1e-9, abs=1e-12)


def test_kelvin_requires_metadata():
    bare = FormulaField(lambda X: np.exp(-np.sum(X * X, axis=1)),
                        symmetry="radial", decay=None)
    with pytest.raises(ValueError):
        kelvin(bare)
    slow = FormulaField(lambda X: (1 + np.sum(X * X, axis=1)) ** -1,
                        symmetry="radial", decay=2.0, asymptote=None)
    with pytest.raises(ValueError):
        kelvin(slow)


def test_elementary_transforms(W, rng):
    pts = rng.normal(size=(20, 4))
    assert np.allclose(dilate(W, 1.0).evaluate(pts), W.evaluate(pts))
    assert np.allclose(rotate(W, np.zeros(6)).evaluate(pts), W.evaluate(pts))
    R = rotation_matrix((0.3, -0.2, 0.1, 0.4, 0.0, -0.5))
    assert np.allclose(R @ R.T, np.eye(4), atol=1e-12)
    # dilate(W, 8) = KW up to the prefactor identity 8 W(8x) = KW(x)
    KW = kelvin(W)
    assert np.allclose(dilate(W, 8.0).evaluate(pts) / 8.0,
                       KW.evaluate(pts) / 8.0, rtol=1e-12)


def test_apply_transform_reductions(W, Qs, rng):
    pts = rng.normal(size=(20, 4))
    ident = apply_transform(W, TransformParams())
    assert np.allclose(ident.evaluate(pts), W.evaluate(pts))
    lam = 1.4
    pure = apply_transform(W, TransformParams(lam=lam))
    assert np.allclose(pure.evaluate(pts), dilate(W, lam).evaluate(pts),
                       rtol=1e-12)
    # full composite at z = 0: translate, rotate, then dilate
    theta = (0.1, 0.0, -0.2, 0.05, 0.0, 0.15)
    xi = (0.3, -0.1, 0.2, 0.0)
    T = apply_transform(Qs, TransformParams(lam=lam, xi=xi, theta=theta))
    composed = dilate(rotate(translate(Qs, np.asarray(xi)), theta), lam)
    assert np.allclose(T.evaluate(pts), composed.evaluate(pts), rtol=1e-10)


def test_transform_derivatives_span_generators(W, Qs, rng):
    """Parameter derivatives at the identity reproduce the generator
    fields (up to the orientation of each parameter)."""
    pts = rng.normal(size=(12, 4))
    h = 1e-5

    def fd(f, plus: TransformParams, minus: TransformParams):
        return (apply_transform(f, plus).evaluate(pts)
                - apply_transform(f, minus).evaluate(pts)) / (2 * h)

    d_lam = fd(W, TransformParams(lam=1 + h), TransformParams(lam=1 - h))
    assert np.allclose(d_lam, symmetry_generator(W, "scaling").evaluate(pts),
                       rtol=1e-4, atol=1e-9)
    e1 = (h, 0.0, 0.0, 0.0)
    m1 = (-h, 0.0, 0.0, 0.0)
    d_xi = fd(W, TransformParams(xi=e1), TransformParams(xi=m1))
    assert np.allclose(d_xi,
                       symmetry_generator(W, "translation_1").evaluate(pts),
                       rtol=1e-4, atol=1e-9)
    d_z = fd(W, TransformParams(z=e1), TransformParams(z=m1))
    assert np.allclose(d_z,
                       -symmetry_generator(W, "conformal_1").evaluate(pts),
                       rtol=1e-4, atol=1e-9)
    th = [0.0] * 6
    th[2] = h  # the (1,4) rotation angle
    d_th = fd(Qs, TransformParams(theta=tuple(th)),
              TransformParams(theta=tuple(-t for t in th)))
    assert np.allclose(d_th,
                       -symmetry_generator(Qs, "rotation_14").evaluate(pts),
                       rtol=1e-4, atol=1e-9)


def test_transform_rejects_singular_points(W):
    T = apply_transform(W, TransformParams(z=(1.0, 0.0, 0.0, 0.0)))
    with pytest.raises(SingularTransform):
        T.evaluate(np.array([[1.0, 0.0, 0.0, 0.0]]))


def test_transform_validation():
    with pytest.raises(ValueError):
        TransformParams(lam=0.0)


def test_generator_values_at_origin(W, Qs):
    origin = np.zeros(4)
    assert symmetry_generator(W, "scaling")(origin) == pytest.approx(1.0)
    assert symmetry_generator(W, "translation_1")(origin) == 0.0
    assert symmetry_generator(Qs, "conformal_4")(origin) == 0.0


def test_rotation_generators_vanish_for_radial(W):
    for gid in GENERATOR_IDS:
        if gid.startswith("rotation"):
            assert getattr(symmetry_generator(W, gid), "is_zero", False)


def test_generator_closed_forms(W, rng):
    pts = rng.normal(scale=2.0, size=(30, 4))
    r2 = np.sum(pts * pts, axis=1)
    Wv = 1.0 / (1.0 + r2 / 8.0)
    assert np.allclose(symmetry_generator(W, "scaling").evaluate(pts),
                       Wv**2 * (1 - r2 / 8.0), rtol=1e-12)
    assert np.allclose(symmetry_generator(W, "conformal_2").evaluate(pts),
                       -2.0 * pts[:, 1] * Wv**2, rtol=1e-12)
    assert np.allclose(symmetry_generator(W, "translation_3").evaluate(pts),
                       -pts[:, 2] / 4.0 * Wv**2, rtol=1e-12)


def test_surrogate_properties(Qs, rng):
    e4 = np.array([0.0, 0.0, 0.0, 1.0])
    assert Qs(e4) == pytest.approx(64.0 / 81.0)
    pts = rng.normal(scale=2.0, size=(50, 4))
    flip = pts.copy()
    flip[:, 3] *= -1
    assert np.allclose(Qs.evaluate(flip), -Qs.evaluate(pts))
    assert Qs.meta["pde_solution"] is False

    # far-field: sup over 10 <= |x| <= 100 of |x|^4 |Q - x4/|x|^4| <= 1/4
    rad = np.linspace(10.0, 100.0, 40)
    dirs = rng.normal(size=(64, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    worst = 0.0
    for R in rad:
        X = R * dirs
        r2 = np.sum(X * X, axis=1)
        gap = np.abs(Qs.evaluate(X) - X[:, 3] / r2**2) * r2**2
        worst = max(worst, float(np.max(gap)))
    assert worst <= 0.25

    # derivative bounds |d^a Q| <= C <x>^-(3+|a|) for |a| <= 2, sampled
    for R in (5.0, 20.0, 80.0):
        X = R * dirs
        g = Qs.gradient(X)
        assert np.max(np.abs(Qs.evaluate(X))) <= 10.0 * (1 + R) ** -3
        assert np.max(np.abs(g)) <= 40.0 * (1 + R) ** -4
        eps = 1e-3 * (1 + R)
        Xp = X.copy()
        Xp[:, 0] += eps
        Xm = X.copy()
        Xm[:, 0] -= eps
        d2 = (Qs.gradient(Xp) - Qs.gradient(Xm)) / (2 * eps)
        assert np.max(np.abs(d2)) <= 400.0 * (1 + R) ** -5


def test_surrogate_normalization_guard():
    bad = SurrogateSpec(seed=ground_state())
    with pytest.raises(ValueError):
        bad.verify()
    good = SurrogateSpec()
    rec = good.verify()
    assert rec["gradient"][3] == pytest.approx(1.0)


def test_surrogate_meta_records_the_seed_normalization():
    normalization = surrogate_excited_state().meta["normalization"]
    assert normalization == SurrogateSpec().verify()


def test_slow_kernel_field_asymptotics(Qs, rng):
    psi = symmetry_generator(Qs, "conformal_4")
    assert psi(np.zeros(4)) == 0.0
    # |x|^2 psi -> 1 with error O(1/|x|)
    for R in (20.0, 40.0, 80.0):
        x = np.array([0.6 * R, 0.5 * R, -0.4 * R,
                      math.sqrt(1 - 0.36 - 0.25 - 0.16) * R])
        assert R * R * psi(x) == pytest.approx(1.0, abs=3.0 / R)
    # psi is even in x4, matching the generator structure
    pts = rng.normal(scale=2.0, size=(30, 4))
    flip = pts.copy()
    flip[:, 3] *= -1
    assert np.allclose(psi.evaluate(flip), psi.evaluate(pts))
    # psi equals the inverted seed derivative away from the origin
    seed = surrogate_seed()
    d4seed = symmetry_generator(seed, "translation_4")
    K = kelvin(FormulaField(d4seed.evaluate, symmetry="bicylindrical",
                            decay=4.0, asymptote=None))
    sample = rng.normal(scale=1.5, size=(20, 4))
    assert np.allclose(K.evaluate(sample), psi.evaluate(sample), rtol=1e-8)


def test_kernel_basis_ranks(W, Qs):
    kbW = kernel_basis(W)
    assert kbW.rank == 5
    assert set(kbW.ids) == {"scaling", "translation_1", "translation_2",
                            "translation_3", "translation_4"}
    kbQ = kernel_basis(Qs)
    assert kbQ.rank == 8
    # full (psi, phi) Gram of the surrogate is positive definite
    assert np.min(np.linalg.eigvalsh(kbQ.gram)) > 0.0
    assert "rotation_23" in kbQ.dropped


def test_symmetric_generator_subsets(W, Qs):
    assert symmetric_generator_ids(W, "cylindrical") == [
        "scaling", "translation_1", "conformal_1"]
    ids = symmetric_generator_ids(Qs, "bicylindrical")
    assert "conformal_4" in ids and "rotation_14" in ids


def test_check_decay_examples(W, Qs):
    radii = [10.0 * 2**k for k in range(5)]
    assert abs(check_decay(W, 2.0, radii).slope + 2.0) < 0.1
    assert abs(check_decay(Qs, 3.0, radii).slope + 3.0) < 0.1
    psi = symmetry_generator(Qs, "conformal_4")
    assert abs(check_decay(psi, 2.0, radii).slope + 2.0) < 0.1
    with pytest.raises(ValueError):
        check_decay(W, 2.0, [10.0, 20.0])
    with pytest.raises(ValueError):
        check_decay(W, 2.0, [10.0, 20.0, 40.0])  # less than a decade


def test_profile_import(tmp_path, W):
    grid = Grid2DCyl(-8.0, 8.0, 161, 8.0, 81)
    X1, RB = np.meshgrid(grid.x1, grid.r, indexing="ij")
    P = np.zeros((X1.size, 4))
    P[:, 0] = X1.ravel()
    P[:, 1] = RB.ravel()
    f = SampledField(grid, W.evaluate(P).reshape(X1.shape), decay=2.0)
    path = tmp_path / "prof.npz"
    save_field(path, f)
    g = load_profile(path)
    # its own generator: the points must not depend on which tests ran first
    pts = (np.random.default_rng(20260810).uniform(-3, 3, size=(20, 4))
           * np.array([1, 0.4, 0.4, 0.4]))
    assert np.max(np.abs(g.evaluate(pts) - W.evaluate(pts))) < 2e-5
    # generators of an imported profile go through the generic path
    lam_g = symmetry_generator(g, "scaling")
    lam_w = symmetry_generator(W, "scaling")
    assert np.max(np.abs(lam_g.evaluate(pts) - lam_w.evaluate(pts))) < 1e-2
