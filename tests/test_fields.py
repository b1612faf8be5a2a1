import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wave4d.fields import (FieldPair, FormulaField, Grid2DCyl,
                           PolyRadialField, SampledField, SymmetryMismatch,
                           cylinder_points, hardy_sobolev_check, inner_hdot1,
                           inner_l2, inner_pair_h, inner_pair_l2,
                           integrate_field, load_field, load_field_csv,
                           load_pair, norm_hdot1, norm_l2, norm_pair,
                           pairing_block, save_field, save_pair, zero_field,
                           zero_pair)
from wave4d.quadrature import QuadratureSpec, integrate_callable, join_symmetry
from wave4d.states import (GENERATOR_IDS, RationalRadial, dilate,
                           ground_state, symmetry_generator)

# oracle: closed-form radial integral by adaptive 1D quadrature
W4_ORACLE = 2 * math.pi**2 * quad(
    lambda r: r**3 * (1 + r * r / 8) ** -4, 0, np.inf)[0]


def test_w4_integral_matches_independent_oracle(W):
    v = integrate_field(W.product(W).product(W).product(W)).require()
    assert v == pytest.approx(W4_ORACLE, rel=1e-10)
    assert v == pytest.approx(32 * math.pi**2 / 3, rel=1e-10)


def test_products_and_gradient_pairings_stay_rational(W, Qs, rng):
    """Products and gradient pairings of kernel generators keep rational
    radial parts, so generators of a product take the exact path, and
    grad_dot is the pointwise dot of the two gradients."""
    pts = rng.uniform(-4.0, 4.0, size=(200, 4))
    for prof in (W, Qs):
        gens = [prof] + [g for g in (symmetry_generator(prof, gid)
                                     for gid in GENERATOR_IDS)
                         if not g.is_zero]
        for i, f in enumerate(gens):
            for g in gens[i:]:
                for h in (f.product(g), f.grad_dot(g)):
                    assert all(isinstance(S, RationalRadial)
                               for _, S in h.poly_radial_terms())
                dot = np.einsum("ij,ij->i", f.gradient(pts), g.gradient(pts))
                gap = f.grad_dot(g).evaluate(pts) - dot
                assert np.max(np.abs(gap)) <= 1e-12 * np.max(np.abs(dot))

    WW = W.product(W)
    exact = symmetry_generator(WW, "scaling")
    assert isinstance(exact, PolyRadialField)
    wrapped = FormulaField(WW.evaluate, WW.gradient, symmetry=WW.symmetry,
                           decay=WW.decay)
    generic = symmetry_generator(wrapped, "scaling").evaluate(pts)
    gap = exact.evaluate(pts) - generic
    assert np.max(np.abs(gap)) <= 1e-12 * np.max(np.abs(generic))


def test_zero_integrand(W):
    assert integrate_field(zero_field()).value == 0.0


def test_odd_integrand_vanishes(W):
    # W^3 * d1 W is odd in x1: exact zero through the angular moments
    d1W = symmetry_generator(W, "translation_1")
    prod = W.product(W).product(W).product(d1W)
    assert prod.integrate_exact().value == 0.0


def test_hdot1_norm_equals_quartic_integral(W):
    # integration by parts against the stationary equation
    assert inner_hdot1(W, W) == pytest.approx(W4_ORACLE, rel=1e-10)
    assert norm_hdot1(W) ** 2 == pytest.approx(W4_ORACLE, rel=1e-10)


def test_l2_norm_of_w_squared(W):
    assert norm_l2(W.product(W)) == pytest.approx(math.sqrt(W4_ORACLE),
                                                  rel=1e-10)


def test_pair_norm_and_trivial_cases(W):
    assert norm_pair(zero_pair()) == 0.0
    p = FieldPair(W, zero_field())
    assert norm_pair(p) ** 2 == pytest.approx(W4_ORACLE, rel=1e-9)


def test_disjoint_pair_components_pair_to_zero(W):
    p = FieldPair(W, zero_field())
    q = FieldPair(zero_field(), W)
    assert inner_pair_l2(p, q) == pytest.approx(0.0, abs=1e-12)


def test_hdot1_orthogonality_radial_vs_odd(W):
    d1W = symmetry_generator(W, "translation_1")
    assert inner_hdot1(W, d1W) == pytest.approx(0.0, abs=1e-12)


def test_mixed_bubble_scales_pair_by_quadrature(W, Qs, monkeypatch):
    """A W-family and a surrogate-family field have radial parts of two
    bubble scales, so they pair by quadrature; pairs within one family keep
    the exact path and never reach integrate_callable."""
    import wave4d.fields as fields

    t4 = symmetry_generator(W, "translation_4")
    spec = QuadratureSpec(scheme="fixed", nodes=12, r_max=1000.0)
    assert inner_l2(t4, Qs, spec) == pytest.approx(-4.49990, rel=1e-4)
    assert inner_hdot1(t4, Qs, spec) == pytest.approx(-3.96393, rel=1e-4)

    def no_quadrature(*args, **kwargs):
        raise AssertionError("a same-scale pairing reached quadrature")

    monkeypatch.setattr(fields, "integrate_callable", no_quadrature)
    assert inner_hdot1(W, W) == pytest.approx(W4_ORACLE, rel=1e-10)
    assert inner_l2(t4, W) == pytest.approx(0.0, abs=1e-12)
    # odd against even in x4: exactly zero through the angular moments
    q4 = symmetry_generator(Qs, "translation_4")
    assert inner_l2(q4, Qs) == 0.0 and inner_hdot1(q4, Qs) == 0.0


def _gaussian(c, w, amp):
    def fn(X, c=c, w=w, amp=amp):
        return amp * np.exp(-((X[:, 0] - c) ** 2
                              + np.sum(X[:, 1:] ** 2, axis=1)) / w**2)

    def grad(X, c=c, w=w, amp=amp):
        Y = X.copy()
        Y[:, 0] -= c
        return -2.0 / w**2 * Y * fn(X)[:, None]

    return FormulaField(fn, grad, symmetry="cylindrical", decay=None)


@settings(max_examples=10, deadline=None)
@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_inner_products_bilinear_symmetric(a, b):
    from wave4d.fields import sum_field

    f = _gaussian(0.5, 1.5, 1.0)
    g = _gaussian(-1.0, 2.0, 0.7)
    h = _gaussian(1.5, 1.0, -0.4)
    spec = QuadratureSpec(scheme="fixed", nodes=8, r_max=12.0)
    combo = sum_field([g, h], [a, b])
    for inner in (inner_l2, inner_hdot1):
        lhs = inner(f, combo, spec)
        rhs = a * inner(f, g, spec) + b * inner(f, h, spec)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)
        assert inner(f, g, spec) == pytest.approx(inner(g, f, spec),
                                                  rel=1e-10, abs=1e-12)


@settings(max_examples=8, deadline=None)
@given(lam=st.floats(0.5, 2.0))
def test_scale_covariance_of_critical_norms(lam):
    """lam f(lam x) preserves the gradient L2 norm and the L4 norm in 4D."""
    W = ground_state()
    f = dilate(W, lam)
    spec = QuadratureSpec(scheme="fixed", nodes=12, r_max=300.0)
    base = math.sqrt(W4_ORACLE)
    assert norm_hdot1(f, spec) == pytest.approx(base, rel=2e-3)
    sob, har = hardy_sobolev_check(f, spec)
    sob0, har0 = hardy_sobolev_check(W, spec)
    assert sob == pytest.approx(sob0, rel=2e-3)
    assert har == pytest.approx(har0, rel=2e-3)


def test_hardy_sobolev_values(W):
    spec = QuadratureSpec(scheme="fixed", nodes=14, r_max=800.0)
    sob, har = hardy_sobolev_check(W, spec)
    assert sob == pytest.approx(W4_ORACLE ** -0.25, rel=2e-3)
    # int W^2/|x|^2 = 8 pi^2 in closed form
    assert har == pytest.approx(math.sqrt(8 * math.pi**2 / W4_ORACLE),
                                rel=2e-3)
    assert hardy_sobolev_check(zero_field()) == (0.0, 0.0)


def test_symmetry_mismatch_rejected(W):
    full = FormulaField(lambda X: np.exp(-np.sum(X * X, axis=1)),
                        symmetry="full")
    cyl = FormulaField(lambda X: np.exp(-np.sum(X * X, axis=1)),
                       symmetry="cylindrical")
    with pytest.raises(SymmetryMismatch):
        inner_l2(full, cyl)


def test_poly_radial_gradient_matches_fd(Qs, rng):
    X = rng.normal(scale=2.0, size=(40, 4))
    g = Qs.gradient(X)
    eps = 1e-6
    for ax in range(4):
        Xp = X.copy()
        Xp[:, ax] += eps
        Xm = X.copy()
        Xm[:, ax] -= eps
        fd = (Qs.evaluate(Xp) - Qs.evaluate(Xm)) / (2 * eps)
        assert np.max(np.abs(fd - g[:, ax])) < 1e-7


def _sampled_W(W):
    """W sampled on the 161 x 81 grid of [-8, 8] x [0, 8]."""
    grid = Grid2DCyl(-8.0, 8.0, 161, 8.0, 81)
    vals = W.evaluate(cylinder_points(grid.x1, grid.r))
    return SampledField(grid, vals.reshape(grid.n1, grid.nr), decay=2.0)


def test_sampled_field_interpolation_and_container(tmp_path, W, rng):
    f = _sampled_W(W)
    pts = rng.uniform(-4, 4, size=(50, 4)) * np.array([1, 0.5, 0.5, 0.5])
    assert np.max(np.abs(f.evaluate(pts) - W.evaluate(pts))) < 1e-5
    g = f.gradient(pts)
    assert np.max(np.abs(g - W.gradient(pts))) < 1e-3
    assert f.meta.get("boundary_stencil") == "one-sided"

    path = tmp_path / "w.npz"
    save_field(path, f)
    f2 = load_field(path)
    assert f2.decay == 2.0
    assert np.max(np.abs(f2.evaluate(pts) - f.evaluate(pts))) < 1e-12


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), box=st.sampled_from([(3.0, 1.2),
                                                           (4.0, 2.0)]))
def test_sampled_field_error_on_any_draw(seed, box):
    """On any 50 points of either test box the sampled W is within 1e-5 in
    value and 1e-3 in gradient: the samples are reflected across the axis,
    so no stencil is one-sided there."""
    W = ground_state()
    f = _sampled_W(W)
    pts = (np.random.default_rng(seed).uniform(-1, 1, size=(50, 4))
           * np.array([box[0], box[1], box[1], box[1]]))
    assert np.max(np.abs(f.evaluate(pts) - W.evaluate(pts))) < 1e-5
    assert np.max(np.abs(f.gradient(pts) - W.gradient(pts))) < 1e-3
    assert f.meta["axis_reflection"] == "even value and d1, odd dr"


def test_symmetry_tag_honored_on_random_point_pairs(Qs, rng):
    """Bicylindrical tag: equal values at points related by the symmetry."""
    pts = rng.normal(size=(30, 4))
    theta = rng.uniform(0, 2 * math.pi, size=30)
    rot = pts.copy()
    rho = np.hypot(pts[:, 1], pts[:, 2])
    phi0 = np.arctan2(pts[:, 2], pts[:, 1])
    rot[:, 1] = rho * np.cos(phi0 + theta)
    rot[:, 2] = rho * np.sin(phi0 + theta)
    assert np.max(np.abs(Qs.evaluate(pts) - Qs.evaluate(rot))) < 1e-12


def test_csv_import(tmp_path, W):
    grid = Grid2DCyl(-2.0, 2.0, 5, 2.0, 5)
    rows = ["# cyl2d"]
    for x1 in grid.x1:
        for r in grid.r:
            v = float(W(np.array([x1, r, 0.0, 0.0])))
            rows.append(f"{x1},{r},{v}")
    path = tmp_path / "w.csv"
    path.write_text("\n".join(rows) + "\n")
    f = load_field_csv(path)
    assert f.values.shape == (5, 5)
    assert f.values[2, 0] == pytest.approx(1.0)


@pytest.mark.parametrize("x1s,rs,r_major", [
    ((0.0, 1.0, 3.0, 7.0), (0.0, 1.0, 2.0, 3.0), False),
    ((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 2.0, 3.0), True),
    ((0.0, 1.0, 2.0, 3.0), (1.0, 2.0, 3.0, 4.0), False),
], ids=["nonuniform_x1", "r_major", "r_from_1"])
def test_csv_import_rejects_layouts_it_would_misplace(tmp_path, x1s, rs,
                                                      r_major):
    """Samples of f = x1 + 10 r on a non-uniform x1 axis, in r-major rows,
    or on an r axis that starts at 1 would land at other points of a uniform
    grid from r = 0: on the axis the first reads 1.43 at x1 = 3, the second
    10.0 at x1 = 1 and the third 10.0 at x1 = 0.  The loader refuses them."""
    order = ([(a, b) for b in rs for a in x1s] if r_major
             else [(a, b) for a in x1s for b in rs])
    rows = ["# cyl2d"] + [f"{a},{b},{a + 10.0 * b}" for a, b in order]
    path = tmp_path / "f.csv"
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError):
        load_field_csv(path)


def test_pair_container_roundtrip(tmp_path, W):
    grid = Grid2DCyl(-6.0, 6.0, 121, 6.0, 61)
    p = FieldPair(W, zero_field())
    path = tmp_path / "pair.npz"
    save_pair(path, p, grid)
    q = load_pair(path)
    pt = np.array([0.3, 0.2, 0.1, -0.4])
    assert q.first(pt) == pytest.approx(W(pt), abs=1e-4)
    assert q.second(pt) == pytest.approx(0.0, abs=1e-12)


def test_l2_pairing_block_takes_no_gradient(W, fast_spec):
    def no_gradient(X):
        raise AssertionError("an L2 pairing asked for a gradient")

    f = FormulaField(W.evaluate, no_gradient, symmetry="radial")
    pairs = [FieldPair(f, zero_field()), FieldPair(zero_field(), f)]
    M = pairing_block(pairs, pairs, "l2", fast_spec)
    assert M[0, 0] == pytest.approx(inner_l2(W, W, fast_spec), rel=1e-10)
    assert M[0, 1] == 0.0 and M[1, 0] == 0.0
    assert M[1, 1] == pytest.approx(M[0, 0], rel=1e-14)


def test_pairing_block_matches_entrywise(W, fast_spec):
    lw = symmetry_generator(W, "scaling")
    pairs = [FieldPair(W, zero_field()), FieldPair(lw, W)]
    M = pairing_block(pairs, pairs, "h", fast_spec)
    for i in range(2):
        for j in range(2):
            assert M[i, j] == pytest.approx(
                inner_pair_h(pairs[i], pairs[j], fast_spec), rel=1e-6)
    assert np.allclose(M, M.T)


@pytest.mark.parametrize("profile, symmetry", [("W", "cylindrical"),
                                               ("Qs", "bicylindrical")])
def test_mixed_kind_block_equals_single_kind_blocks(profile, symmetry,
                                                    request, fast_spec):
    q = request.getfixturevalue(profile)
    lq, tq = (symmetry_generator(q, g) for g in ("scaling", "translation_1"))

    def no_gradient(X):
        raise AssertionError("an L2-only column asked for a gradient")

    l2_only = FieldPair(FormulaField(tq.evaluate, no_gradient,
                                     symmetry=tq.symmetry), lq)
    rows = [FieldPair(q, lq), FieldPair(tq, q)]
    cols = rows + [FieldPair(lq, tq), l2_only]
    assert join_symmetry(*[p.symmetry for p in cols]) == symmetry
    for r, kinds in ((rows, ["h", "l2", "h", "l2"]),
                     (cols[:3], ["h", "h", "h", "l2"]),
                     (cols[:3], ["l2", "l2", "h", "l2"])):
        mixed = pairing_block(r, cols, kinds, fast_spec)
        assert mixed.shape == (len(r), len(cols))
        # every column but the L2-only one can take either kind
        for kind, single_cols in (("h", cols[:3]), ("l2", cols)):
            single = pairing_block(r, single_cols, kind, fast_spec)
            idx = [j for j, k in enumerate(kinds) if k == kind]
            np.testing.assert_allclose(mixed[:, idx], single[:, idx],
                                       rtol=1e-13,
                                       atol=1e-15 * np.abs(single).max())
    assert pairing_block([], cols, kinds, fast_spec).shape == (0, 4)
    for bad in ("both", ["h", "l2"]):
        with pytest.raises(ValueError):
            pairing_block(rows, cols, bad, fast_spec)


def test_self_pairings_sample_once_per_slab(W, fast_spec):
    calls = {"value": 0, "gradient": 0}

    def counted(kind, fn):
        def wrapped(X):
            calls[kind] += 1
            return fn(X)
        return wrapped

    f = FormulaField(counted("value", W.evaluate),
                     counted("gradient", W.gradient), symmetry="cylindrical")
    slabs = []
    integrate_callable(lambda X: slabs.append(X) or X[:, 0], "cylindrical",
                       fast_spec)
    l2 = inner_l2(f, f, fast_spec)
    hd = inner_hdot1(f, f, fast_spec)
    assert calls == {"value": len(slabs), "gradient": len(slabs)}
    # the same value as sampling each side apart
    assert l2 == integrate_callable(
        lambda X: W.evaluate(X) * W.evaluate(X), "cylindrical",
        fast_spec).value
    assert hd == integrate_callable(
        lambda X: np.einsum("ij,ij->i", W.gradient(X), W.gradient(X)),
        "cylindrical", fast_spec).value
