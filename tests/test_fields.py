import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wave4d.fields import (AffineField, Combination, FieldPair, FormulaField,
                           Grid2DCyl, GridRadial, PolyRadialField,
                           RadialExpField, SampledField, cylinder_points,
                           hardy_sobolev_check, inner_hdot1, inner_l2,
                           inner_pair_h, inner_pair_l2, load_field,
                           load_field_csv, load_pair, norm_pair, pair_sampler,
                           pairing_block, save_field, save_pair, sum_field,
                           zero_field)
from wave4d.quadrature import QuadratureSpec, integrate_callable, join_symmetry
from wave4d.states import (GENERATOR_IDS, RationalRadial, dilate,
                           ground_state, symmetry_generator)

# oracle: closed-form radial integral by adaptive 1D quadrature
W4_ORACLE = 2 * math.pi**2 * quad(
    lambda r: r**3 * (1 + r * r / 8) ** -4, 0, np.inf)[0]


def test_w4_integral_matches_independent_oracle(W):
    v = W.product(W).product(W).product(W).integrate_exact().value
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
    assert inner_l2(zero_field(), W) == 0.0


def test_odd_integrand_vanishes(W):
    # W^3 * d1 W is odd in x1: exact zero through the angular moments
    d1W = symmetry_generator(W, "translation_1")
    prod = W.product(W).product(W).product(d1W)
    assert prod.integrate_exact().value == 0.0


def test_hdot1_norm_equals_quartic_integral(W):
    # integration by parts against the stationary equation
    assert inner_hdot1(W, W) == pytest.approx(W4_ORACLE, rel=1e-10)


def test_l2_norm_of_w_squared(W):
    WW = W.product(W)
    assert inner_l2(WW, WW) == pytest.approx(W4_ORACLE, rel=1e-10)


def test_pair_norm_and_trivial_cases(W):
    assert norm_pair(FieldPair(zero_field(), zero_field())) == 0.0
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
    spec = QuadratureSpec(nodes=12, r_max=1000.0)
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


def test_mixed_scale_pairing_on_the_default_spec(W, Qs, monkeypatch):
    """On the default spec the mixed-scale L2 pairing is one pass, at the
    truncation radius its decay gives (1000 for the r^-6 integrand), so it
    equals the explicit r_max = 1000 value."""
    import wave4d.fields as fields

    t4 = symmetry_generator(W, "translation_4")
    ref = inner_l2(t4, Qs, QuadratureSpec(nodes=12, r_max=1000.0))
    passes = []

    def counted(*args, **kwargs):
        passes.append(args[1])
        return integrate_callable(*args, **kwargs)

    monkeypatch.setattr(fields, "integrate_callable", counted)
    assert inner_l2(t4, Qs) == pytest.approx(ref, rel=1e-6)
    assert len(passes) == 1


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
    spec = QuadratureSpec(nodes=8, r_max=12.0)
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
    spec = QuadratureSpec(nodes=12, r_max=300.0)
    base = math.sqrt(W4_ORACLE)
    assert math.sqrt(inner_hdot1(f, f, spec)) == pytest.approx(base,
                                                             rel=2e-3)
    sob, har = hardy_sobolev_check(f, spec)
    sob0, har0 = hardy_sobolev_check(W, spec)
    assert sob == pytest.approx(sob0, rel=2e-3)
    assert har == pytest.approx(har0, rel=2e-3)


def test_hardy_sobolev_values(W):
    spec = QuadratureSpec(nodes=14, r_max=800.0)
    sob, har = hardy_sobolev_check(W, spec)
    assert sob == pytest.approx(W4_ORACLE ** -0.25, rel=2e-3)
    # int W^2/|x|^2 = 8 pi^2 in closed form
    assert har == pytest.approx(math.sqrt(8 * math.pi**2 / W4_ORACLE),
                                rel=2e-3)
    assert hardy_sobolev_check(zero_field()) == (0.0, 0.0)


def test_symmetry_mismatch_rejected(W):
    """A full field pairs with no field: the quadrature has no pass for it."""
    full = FormulaField(lambda X: np.exp(-np.sum(X * X, axis=1)),
                        symmetry="full")
    cyl = FormulaField(lambda X: np.exp(-np.sum(X * X, axis=1)),
                       symmetry="cylindrical")
    with pytest.raises(ValueError, match="no quadrature pass"):
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


@pytest.mark.parametrize("kind,args", [
    (GridRadial, (-1.0, 2)), (GridRadial, (0.0, 11)),
    (GridRadial, (math.nan, 11)), (GridRadial, (5.0, 3)),
    (Grid2DCyl, (1.0, -1.0, 11, 5.0, 11)),
    (Grid2DCyl, (-1.0, math.nan, 11, 5.0, 11)),
    (Grid2DCyl, (-1.0, 1.0, 11, -5.0, 11)),
    (Grid2DCyl, (-1.0, 1.0, 3, 5.0, 11))],
    ids=["radial_negative", "radial_zero", "radial_nan", "radial_3_nodes",
         "cyl_x1_reversed", "cyl_x1_nan", "cyl_negative_r", "cyl_3_nodes"])
def test_grids_reject_empty_ranges_and_too_few_nodes(kind, args):
    with pytest.raises(ValueError):
        kind(*args)


def test_csv_import_needs_rows_of_three_values(tmp_path):
    """f = x1 + 10 r in rows of three values loads; a file without data
    rows, or with rows of two or four values, raises ValueError."""
    points = [(a, b) for a in range(4) for b in range(4)]
    path = tmp_path / "f.csv"

    def load(rows):
        path.write_text("\n".join(["# cyl2d"] + [",".join(map(str, row))
                                                for row in rows]) + "\n")
        return load_field_csv(path)

    good = load([(a, b, a + 10.0 * b) for a, b in points])
    assert good.values.tolist() == [[a + 10.0 * b for b in range(4)]
                                    for a in range(4)]
    for rows in ([], points, [(a, b, a + 10.0 * b, 7.0) for a, b in points]):
        with pytest.raises(ValueError, match="three values"):
            load(rows)


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


def _pointwise_entries(rows, cols, kinds):
    """X -> the (N, rows, cols) integrands of pairing_block, each entry
    formed at the nodes from the components' own values and gradients."""
    def fn(X):
        jets = {id(f): f.jet(X) for p in list(rows) + list(cols)
                for f in (p.first, p.second)}
        out = np.empty((len(X), len(rows), len(cols)))
        for i, p in enumerate(rows):
            (f1, g1), (f2, _) = jets[id(p.first)], jets[id(p.second)]
            for j, (q, kind) in enumerate(zip(cols, kinds)):
                (h1, k1), (h2, _) = jets[id(q.first)], jets[id(q.second)]
                first = np.sum(g1 * k1, axis=1) if kind == "h" else f1 * h1
                out[:, i, j] = first + f2 * h2
        return out
    return fn


def test_pairing_block_keeps_the_digits_of_a_cancelling_difference(
        W, fast_spec):
    """A row f_delta - f, with f_delta = f dilated by 1 + 1e-8, pairs with
    itself as one pass of the difference formed at the nodes does: its
    features are formed node by node.  Pairing the two leaves first and
    combining their pairings after would leave about eight digits of
    ||f_delta - f||^2, which is 1e-16 of the leaves' own."""
    diff = dilate(W, 1.0 + 1e-8) - W
    assert len(diff.terms) == 2
    row = FieldPair(diff, diff)
    for kind in ("h", "l2"):
        got = pairing_block([row], [row], kind, fast_spec)[0, 0]
        ref = integrate_callable(_pointwise_entries([row], [row], [kind]),
                                 row.symmetry, fast_spec).value[0, 0]
        assert 0.0 < ref < 1e-14 * pairing_block(
            [FieldPair(W, W)], [FieldPair(W, W)], kind, fast_spec)[0, 0]
        assert got == pytest.approx(ref, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("spec_kind", ["fixed", "default"])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kinds=st.sampled_from([("h", "l2", "h", "l2"), ("l2", "h", "h", "l2"),
                              ("h", "l2", "l2", "h")]))
def test_pairing_block_equals_one_pass_of_pointwise_products(
        W, fast_spec, spec_kind, seed, kinds):
    """On random combinations of W and its cylindrical generators, with
    kinds whose columns interleave, pairing_block equals one
    integrate_callable pass of the entries formed at the nodes, on a fixed
    spec and on the default one."""
    basis = [W] + [symmetry_generator(W, g)
                   for g in ("scaling", "translation_1", "conformal_1")]
    rng = np.random.default_rng(seed)

    def pair():
        return FieldPair(*(sum_field(basis, rng.normal(size=len(basis)))
                           for _ in range(2)))

    rows, cols = [pair() for _ in range(2)], [pair() for _ in range(4)]
    spec = fast_spec if spec_kind == "fixed" else QuadratureSpec()
    got = pairing_block(rows, cols, list(kinds), spec)
    ref = integrate_callable(_pointwise_entries(rows, cols, kinds),
                             join_symmetry(*[p.symmetry for p in cols]),
                             spec).value
    np.testing.assert_allclose(got, ref, rtol=1e-12,
                               atol=1e-12 * np.abs(ref).max())


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
    # the value of sampling each side apart, to the round-off of the
    # block's sqrt(w) factors
    assert l2 == pytest.approx(integrate_callable(
        lambda X: W.evaluate(X) * W.evaluate(X), "cylindrical",
        fast_spec).value, rel=1e-12, abs=0.0)
    assert hd == pytest.approx(integrate_callable(
        lambda X: np.einsum("ij,ij->i", W.gradient(X), W.gradient(X)),
        "cylindrical", fast_spec).value, rel=1e-12, abs=0.0)


def test_radial_parts_agree_on_floats_and_arrays(W, Qs):
    """A radial part called on a float returns a plain float, and on an
    array an array of r's shape, with the same numbers either way, also
    when the sum starts from a constant term; a part with no terms (the
    derivative of a constant) gives zeros of r's shape."""
    r = np.linspace(0.0, 30.0, 2016)
    parts = [S for prof in (W, Qs) for _, S in prof.poly_radial_terms()]
    parts += [S.deriv() for S in parts] + [S.deriv().deriv() for S in parts]
    parts += [RationalRadial(-0.25, {(0, 0): 2.0}),
              RationalRadial(-0.25, {(0, 0): 2.0, (2, 1): 1.0})]
    for S in parts:
        values = S(r)
        assert values.shape == r.shape
        assert type(S(1.234)) is float
        np.testing.assert_allclose([S(float(x)) for x in r], values,
                                   rtol=1e-14, atol=0.0)
    empty = RationalRadial(-0.25, {(0, 0): 2.0}).deriv()
    assert empty.is_zero
    for shape in ((7,), (3, 5)):
        out = empty(np.ones(shape))
        assert out.shape == shape and not np.any(out)
    assert empty(1.234) == 0.0


def test_sums_are_flat_combinations_over_merged_leaves(W, Qs, rng):
    """(u + Q) - Q keeps exactly u's leaves and evaluates bitwise to u, also
    when Q is built afresh; nested sums flatten, a zero coefficient drops
    its leaf, values and gradients are the term-by-term sums, and the
    symmetry, decay and asymptote metadata are those of the inputs."""
    from wave4d.boosts import traveling_pair
    from wave4d.fields import sum_field

    X = rng.uniform(-5.0, 5.0, size=(300, 4))
    u = traveling_pair(symmetry_generator(W, "scaling"), 0.3, 2.0, 1)
    for part in ("first", "second"):
        f = getattr(u, part)
        q = getattr(traveling_pair(Qs, -0.4, 2.0, 1), part)
        fresh = getattr(traveling_pair(Qs, -0.4, 2.0, 1), part)
        for back in ((f + q) - q, (f + q) - fresh):
            assert [(c, id(leaf)) for c, leaf in back.terms] == \
                [(c, id(leaf)) for c, leaf in sum_field([f]).terms]
            assert np.array_equal(back.evaluate(X), f.evaluate(X))
    assert isinstance(u.first, AffineField) and u.second.terms[0][0] == -0.3

    f, g, h = W, symmetry_generator(Qs, "translation_1"), u.first
    nested = sum_field([sum_field([f, g], [2.0, -1.0]), 3.0 * h - g],
                       [0.5, 2.0])
    assert [leaf for _, leaf in nested.terms] == [f, g, h]
    assert [c for c, _ in nested.terms] == [1.0, -2.5, 6.0]
    assert not any(isinstance(leaf, Combination) for _, leaf in nested.terms)
    for fn in ("evaluate", "gradient"):
        ref = (1.0 * getattr(f, fn)(X) - 2.5 * getattr(g, fn)(X)
               + 6.0 * getattr(h, fn)(X))
        np.testing.assert_allclose(getattr(nested, fn)(X), ref, rtol=1e-13,
                                   atol=1e-13 * np.abs(ref).max())

    assert [leaf for _, leaf in sum_field([f, g], [0.0, 1.0]).terms] == [g]
    assert (0.0 * f).terms == () and not np.any((0.0 * f).evaluate(X))
    assert nested.symmetry == join_symmetry(f.symmetry, g.symmetry, h.symmetry)
    assert sum_field([f, g]).decay == min(f.decay, g.decay)
    assert (2.5 * f).asymptote == 2.5 * W.asymptote
    assert (-f).asymptote == -W.asymptote and (f + g).asymptote is None
    assert (2.5 * f).decay == W.decay and (2.5 * f).symmetry == W.symmetry


def _product_read(leaf, X, part):
    """A leaf's value or gradient through the general matrix products."""
    if not isinstance(leaf, AffineField):
        return leaf.evaluate(X) if part == "value" else leaf.gradient(X)
    A = np.diag(leaf.scale)
    Y = X @ A.T + leaf.shift
    if part == "gradient":
        return leaf.base.gradient(Y) @ A
    if leaf.derivative is None:
        return leaf.base.evaluate(Y)
    return leaf.base.gradient(Y) @ A[:, leaf.derivative]


def test_diagonal_affine_leaves_equal_the_matrix_product(W, ground_eigen,
                                                         rng):
    """Traveling, dilated and translated leaves and an exponential-direction
    component, plain and translated, map, chain and read their derivative
    leaves elementwise, bit for bit the general products (a chain is
    g * scale on a copy), and so do the sampler's "h" and "l2" stacks; a
    rotated field, whose map is not diagonal, is a formula field that takes
    the products f(X R^T) and grad f(X R^T) R."""
    from wave4d.boosts import (build_exp_directions, component_derivative,
                               traveling_pair, traveling_profile)
    from wave4d.states import rotate, rotation_matrix, translate

    X = np.concatenate([rng.uniform(-5.0, 5.0, size=(200, 4)),
                        cylinder_points(np.linspace(-4.0, 4.0, 9),
                                        np.linspace(0.0, 3.0, 7))])
    moving = traveling_profile(W, 0.4, 1.3)
    (lam, dilated), = dilate(W, 1.7).terms
    translated = translate(W, [0.3, 0.0, 0.0, 0.0])
    tilted = translate(W, [0.3, 0.0, 0.0, -0.2])
    theta = [0.3, -0.2, 0.1, 0.4, 0.0, -0.5]
    generator = symmetry_generator(W, "translation_1")
    rotated = rotate(generator, theta)
    direction = build_exp_directions(ground_eigen[1], ground_eigen[0],
                                     0.4)["-"].pair
    shifted = translate(direction.second, [-2.5, 0.0, 0.0, 0.0])
    assert isinstance(shifted.base, RadialExpField) and \
        shifted.base is direction.second.base
    R = rotation_matrix(theta)
    assert lam == 1.7 and np.count_nonzero(R - np.diag(np.diag(R))) > 0
    assert isinstance(rotated, FormulaField)
    assert np.array_equal(rotated.evaluate(X), generator.evaluate(X @ R.T))
    assert np.array_equal(rotated.gradient(X),
                          generator.gradient(X @ R.T) @ R)
    assert np.array_equal(component_derivative(rotated, 2).evaluate(X),
                          (generator.gradient(X @ R.T) @ R)[:, 2])
    for leaf in (moving, dilated, translated, tilted,
                 direction.second, shifted,
                 component_derivative(moving, 0)):
        assert isinstance(leaf, AffineField)
        assert np.array_equal(leaf.evaluate(X),
                              _product_read(leaf, X, "value"))
        if leaf.derivative is None:
            assert np.array_equal(leaf.gradient(X),
                                  _product_read(leaf, X, "gradient"))
        g = rng.normal(size=X.shape)
        kept = g.copy()
        assert np.array_equal(leaf._chain(g), g * leaf.scale)
        assert np.array_equal(g, kept)

    pairs = [traveling_pair(W, 0.4, 1.3), FieldPair(W, moving),
             FieldPair(dilate(W, 1.7), translated),
             FieldPair(rotated, tilted - 0.5 * rotated), direction,
             FieldPair(shifted, direction.first)]
    for kind, got in zip(("h", "l2"), pair_sampler([("h", pairs),
                                                    ("l2", pairs)])(X)):
        # the sampler's accumulation, term by term, from the products
        first = ("gradient", slice(0, 4)) if kind == "h" else ("value", 0)
        ref = np.zeros_like(got)
        for i, p in enumerate(pairs):
            for (part, at), comp in ((first, p.first),
                                     (("value", -1), p.second)):
                terms = comp.terms if isinstance(comp, Combination) \
                    else ((1.0, comp),)
                for c, leaf in terms:
                    ref[i, at] += (c * _product_read(leaf, X, part)).T
        assert np.array_equal(got, ref)


def test_x4_degree_of_each_field_family(W, Qs, ground_eigen):
    """Radial and cylindrical fields have degree 0 by their symmetry, a
    monomial-radial field its largest power of x4, a map that shifts x1
    alone its base's (one more for a derivative leaf), a combination the
    largest among the leaves it keeps; other maps and other bicylindrical
    fields have none (None)."""
    from wave4d.boosts import (build_exp_directions, traveling_pair,
                               traveling_profile)
    from wave4d.states import translate

    def formula(symmetry):
        return FormulaField(lambda X: X[:, 0], symmetry=symmetry)

    assert [formula(s).x4_degree for s in ("radial", "cylindrical",
                                           "bicylindrical", "full")] == \
        [0, 0, None, None]
    lam, Y = ground_eigen
    direction = build_exp_directions(Y, lam, 0.4)["+"].pair
    assert (Y.x4_degree, direction.first.base.x4_degree) == (0, 0)
    assert direction.first.base.symmetry == "cylindrical"
    assert SampledField(Grid2DCyl(-2.0, 2.0, 5, 2.0, 5),
                        np.zeros((5, 5))).x4_degree == 0
    psi = symmetry_generator(Qs, "conformal_4")
    assert (W.x4_degree, Qs.x4_degree, psi.x4_degree) == (0, 1, 2)

    moving = traveling_pair(Qs, 0.5, 10.0)
    leaf = moving.first
    assert (leaf.x4_degree, dilate(Qs, 2.0).x4_degree) == (1, 1)
    assert translate(Qs, [3.0, 0.0, 0.0, 0.0]).x4_degree == 1
    # a shift along x4 makes |x| no polynomial in u = x4 / rbar
    assert translate(Qs, [0.0, 0.0, 0.0, 0.5]).x4_degree is None
    assert translate(leaf, [0.0, 0.3, 0.0, 0.0]).x4_degree is None
    squeezed = AffineField(Qs, np.array([1.0, 1.0, 1.0, 2.0]), np.zeros(4),
                           symmetry="bicylindrical")
    assert squeezed.x4_degree is None
    (_, derivative), = moving.second.terms
    assert derivative.derivative == 0 and derivative.x4_degree == 2
    assert AffineField(Qs, np.ones(4), np.zeros(4),
                       derivative=1).x4_degree is None

    odd = formula("bicylindrical")
    assert sum_field([Qs, W]).x4_degree == 1
    assert sum_field([leaf, psi, W]).x4_degree == 2
    assert zero_field().x4_degree == 0
    assert sum_field([Qs, odd]).x4_degree is None
    # zero coefficients drop their leaves, and their degrees with them
    assert sum_field([Qs, psi, odd], [1.0, 0.0, 0.0]).x4_degree == 1
    assert sum_field([psi, odd], [0.0, 0.0]).x4_degree == 0
    assert traveling_profile(Qs, 0.5, 3.0, -1).x4_degree == 1
