import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from wave4d import quadrature
from wave4d.quadrature import (QuadratureSpec, abs_moment, axis_breaks,
                               default_r_max, gauss_panels, geometric_breaks,
                               integrate_callable, join_symmetry, moment,
                               node_set, sphere_area, tail_bound)

TARGET_W4 = 32.0 * math.pi**2 / 3.0


def w4(X):
    return (1.0 + np.sum(X * X, axis=1) / 8.0) ** -4


def test_sphere_moments_match_closed_forms():
    assert sphere_area(4) == pytest.approx(2 * math.pi**2)
    assert sphere_area(3) == pytest.approx(4 * math.pi)
    assert sphere_area(2) == pytest.approx(2 * math.pi)
    # <x1^2> over S^3 is r^2/4
    assert moment((2, 0, 0, 0)) == pytest.approx(math.pi**2 / 2)
    assert moment((1, 0, 0, 0)) == 0.0
    assert moment((1, 1, 0, 0)) == 0.0
    # consistency: sum of the four quadratic moments equals the area
    assert 4 * moment((2, 0, 0, 0)) == pytest.approx(sphere_area(4))
    assert abs_moment((2, 0, 0, 0)) == pytest.approx(moment((2, 0, 0, 0)))
    assert abs_moment((1, 0, 0, 0)) > 0.0


def test_panel_rule_matches_adaptive_1d_oracle():
    r, w = gauss_panels(geometric_breaks(40.0), 16)
    mine = float(np.sum(w * r**3 * np.exp(-r)))
    oracle, _ = quad(lambda s: s**3 * np.exp(-s), 0, 40.0)
    assert mine == pytest.approx(oracle, rel=1e-12)


def test_default_r_max_enforces_tail_budget():
    tol = quadrature._TAIL_TOL
    r = default_r_max(8.0)
    assert tail_bound(8.0, r) <= tol / 10.0 + 1e-20


@pytest.mark.parametrize("symmetry", ["radial", "cylindrical",
                                      "bicylindrical"])
def test_reduction_agree_on_radial_integrand(symmetry):
    spec = QuadratureSpec(r_max=200.0, nodes=12)
    res = integrate_callable(w4, symmetry, spec, decay=8.0)
    assert res.value == pytest.approx(TARGET_W4, rel=1e-4)


def test_tensor_quadrature_consistency_on_five_integrands():
    """Cylindrical reduction against closed forms over R^4; the cut at
    r_max 24 costs the slowest-decaying integrand, W^4, 4e-4 of its
    value."""
    spec = QuadratureSpec(r_max=24.0, nodes=10)
    w8_r5 = quad(lambda r: r**5 * (1.0 + r * r / 8.0) ** -8, 0.0, np.inf)[0]
    cases = [
        (w4, TARGET_W4),
        (lambda X: np.exp(-np.sum(X * X, axis=1)), math.pi**2),
        # the mean of x1^2 over S^3 is r^2 / 4
        (lambda X: w4(X) ** 2 * X[:, 0] ** 2, math.pi**2 / 2.0 * w8_r5),
        (lambda X: (1.0 + np.sum(X * X, axis=1)) ** -4, math.pi**2 / 6.0),
        (lambda X: np.exp(-0.5 * np.sum(X * X, axis=1)) * np.cos(X[:, 0]),
         (2.0 * math.pi) ** 2 * math.exp(-0.5)),
    ]
    for fn, exact in cases:
        value = integrate_callable(fn, "cylindrical", spec).value
        assert value == pytest.approx(exact, rel=2e-3, abs=5e-3)


def test_vector_integrand_matches_scalar_path():
    spec = QuadratureSpec(r_max=60.0, nodes=10)

    def stacked(X):
        return np.stack([w4(X), 2.0 * w4(X)], axis=1)

    v = integrate_callable(stacked, "cylindrical", spec).value
    s = integrate_callable(w4, "cylindrical", spec).value
    assert v[0] == pytest.approx(s, rel=1e-13)
    assert v[1] == pytest.approx(2 * s, rel=1e-13)


SYMMETRIES = ["radial", "cylindrical", "bicylindrical"]


@pytest.mark.parametrize("symmetry", SYMMETRIES)
def test_node_set_sums_like_integrate_callable(symmetry):
    """The concatenated node set gives the pass's value as a weighted sum,
    and integrate_callable's calls, all of one size here, cover it."""
    spec = QuadratureSpec(nodes=3, r_max=6.0, x1_centers=(1.5,))

    def fn(X):
        return np.exp(-np.sum(X * X, axis=1))

    calls = []

    def counted(X):
        calls.append(len(X))
        return fn(X)

    X, w = node_set(symmetry, spec)
    value = integrate_callable(counted, symmetry, spec).value
    assert float(fn(X) @ w) == pytest.approx(value, rel=1e-12)
    assert sum(calls) == len(w)
    assert len(set(calls)) == 1
    if symmetry == "radial":
        assert len(calls) == 1


def _batch_spec(case):
    # slabs of 4 and 8 points (cylindrical) or 8 and 32 (bicylindrical) at
    # nodes 2 and 4, many to a call.  The case ids are those of the fixed
    # and the adaptive pass that covered these two node counts.
    return QuadratureSpec(nodes={"fixed": 2, "adaptive": 4}[case], r_max=2.0,
                          x1_centers=(-1.0, 2.0))


def _smooth(X):
    g = np.exp(-np.sum(X * X, axis=1))
    return np.column_stack([g * (1.0 + 0.3 * X[:, 0]),
                            np.cos(X[:, 0]) * X[:, 3] ** 2 * g])


def _recorded(fn, calls):
    def counted(X):
        calls.append(X.copy())
        return fn(X)
    return counted


def _slab_size(symmetry, spec):
    """Points per x1 slab of the pass integrate_callable runs on spec."""
    X, _ = node_set(symmetry, spec)
    return int(np.sum(X[:, 0] == X[0, 0]))


@pytest.mark.parametrize("case", ["fixed", "adaptive"])
@pytest.mark.parametrize("symmetry", SYMMETRIES)
def test_batched_pass_matches_slab_by_slab_sum(symmetry, case, monkeypatch):
    """Batching x1 slabs into one call changes a pass only at round-off."""
    spec = _batch_spec(case)
    batched_calls, slab_calls = [], []
    batched = integrate_callable(_recorded(_smooth, batched_calls), symmetry,
                                 spec)
    monkeypatch.setattr(quadrature, "_BATCH_POINTS", 1)
    slabs = integrate_callable(_recorded(_smooth, slab_calls), symmetry, spec)
    np.testing.assert_allclose(batched.value, slabs.value, rtol=1e-13,
                               atol=0.0)
    if symmetry == "radial":
        assert len(batched_calls) == len(slab_calls) == 1
    else:
        assert len(batched_calls) < len(slab_calls)


@pytest.mark.parametrize("case", ["fixed", "adaptive"])
@pytest.mark.parametrize("symmetry", SYMMETRIES)
def test_batches_hold_whole_slabs_within_the_budget(symmetry, case,
                                                    monkeypatch):
    """No call exceeds the point budget unless it is one slab alone, and no
    slab is split between calls."""
    spec = _batch_spec(case)
    calls = []
    integrate_callable(_recorded(_smooth, calls), symmetry, spec)
    size = _slab_size(symmetry, spec)
    for X in calls:
        slab = int(np.sum(X[:, 0] == X[0, 0]))
        assert slab == size
        assert len(X) % slab == 0
        assert len(X) <= quadrature._BATCH_POINTS or len(X) == slab
    if symmetry != "radial":
        # under a budget below one slab, each slab goes alone and whole
        monkeypatch.setattr(quadrature, "_BATCH_POINTS", size - 1)
        calls.clear()
        integrate_callable(_recorded(_smooth, calls), symmetry, spec)
        assert [len(X) for X in calls] == [size] * (len(
            node_set(symmetry, spec)[1]) // size)


@pytest.mark.parametrize("symmetry", SYMMETRIES)
def test_node_set_matches_per_slab_construction_bitwise(symmetry,
                                                        monkeypatch):
    spec = QuadratureSpec(nodes=4, r_max=8.0, x1_centers=(-2.0, 1.5), core=0.5)
    X, w = node_set(symmetry, spec)
    monkeypatch.setattr(quadrature, "_BATCH_POINTS", 1)
    X1, w1 = node_set(symmetry, spec)
    np.testing.assert_array_equal(X, X1)
    np.testing.assert_array_equal(w, w1)
    assert np.sum(w) == np.sum(w1)


def test_node_set_rejects_adaptive_spec():
    # a spec naming any scheme but "fixed" is refused before any node set
    with pytest.raises(ValueError, match="unknown quadrature scheme"):
        node_set("cylindrical", QuadratureSpec(scheme="adaptive"))


def test_axis_breaks_cover_centers():
    b = axis_breaks(-50.0, 70.0, centers=(-5.0, 40.0))
    assert b[0] == -50.0 and b[-1] == 70.0
    assert np.all(np.diff(b) > 0)
    for c in (-5.0, 40.0):
        assert np.min(np.abs(b - c)) < 1e-12


def test_axis_breaks_first_panel_width():
    b = axis_breaks(-10.0, 10.0, centers=(2.0,), first=0.25)
    i = int(np.flatnonzero(b == 2.0)[0])
    np.testing.assert_allclose(b[i - 3:i + 4] - 2.0,
                               [-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0])


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-60.0, 60.0), max_size=3),
       st.lists(st.floats(-80.0, 80.0), min_size=1, max_size=3),
       st.sampled_from([1.0, 1.0 / math.sqrt(8.0), 0.25, 3.0]))
def test_axis_breaks_window_is_restriction_of_domain(centers, cuts, first):
    """A window gets exactly the breaks the full domain has inside it."""
    lo, hi = -80.0, 80.0
    full = axis_breaks(lo, hi, centers, first)
    edges = sorted({lo, hi, *cuts})
    for a, b in zip(edges[:-1], edges[1:]):
        expected = sorted({a, b} | {x for x in full if a < x < b})
        np.testing.assert_array_equal(axis_breaks(a, b, centers, first),
                                      expected)


def test_split_windows_sum_to_unsplit_integral():
    """Cuts away from the cores change only the panels they cut, so the
    split sum matches even for cores far narrower than one panel."""
    centers = (-5.0, 5.0)
    spec = QuadratureSpec(nodes=8, r_max=20.0, x1_centers=centers)

    def fn(X):
        rb2 = np.sum(X[:, 1:] ** 2, axis=1)
        return sum(np.exp(-40.0 * ((X[:, 0] - c) ** 2 + rb2))
                   for c in centers)

    whole = integrate_callable(fn, "cylindrical", spec,
                               x1_range=(-30.0, 30.0)).value
    for cuts in ((0.67,), (-0.67, 0.67), (-17.0, 2.5, 12.0)):
        edges = sorted({-30.0, 30.0, *cuts})
        parts = sum(integrate_callable(fn, "cylindrical", spec,
                                       x1_range=(a, b)).value
                    for a, b in zip(edges[:-1], edges[1:]))
        assert parts == pytest.approx(whole, rel=1e-12)


def _gauss(X):
    return np.exp(-np.sum(X * X, axis=1))


def test_x1_range_must_be_a_finite_increasing_interval():
    """The cylindrical integral of e^(-|x|^2) over (-10, 10) is pi^2; a
    reversed, empty, NaN or infinite x1_range raises instead of returning a
    number (the reversed one read 0.1754, the NaN one nan)."""
    spec = QuadratureSpec(nodes=6, r_max=10.0)
    assert integrate_callable(_gauss, "cylindrical", spec,
                              x1_range=(-10.0, 10.0)).value == \
        pytest.approx(math.pi**2, rel=2e-6)
    for bad in ((10.0, -10.0), (0.0, math.nan), (math.nan, 0.0),
                (1.0, 1.0), (-math.inf, 10.0)):
        with pytest.raises(ValueError, match="x1_range"):
            integrate_callable(_gauss, "cylindrical", spec, x1_range=bad)


def test_bicylindrical_closed_form_integral():
    """int x4^2 exp(-|x|^2) dx over R^4 = pi^2 / 2."""
    spec = QuadratureSpec(nodes=12, r_max=12.0)
    value = integrate_callable(lambda X: X[:, 3] ** 2 * _gauss(X),
                               "bicylindrical", spec).value
    assert value == pytest.approx(math.pi**2 / 2.0, rel=1e-12)


@pytest.mark.parametrize("nodes", [3, 6, 8])
def test_bicylindrical_odd_integrand_vanishes(nodes):
    """Odd in x4 integrates to zero at any degree: the u rule is symmetric."""
    spec = QuadratureSpec(nodes=nodes, r_max=10.0,
                          x1_centers=(-1.0, 2.0), core=0.3)

    def odd(X):
        return np.sin(3.0 * X[:, 3]) * (1.0 + X[:, 0] ** 2) * _gauss(X)

    value = integrate_callable(odd, "bicylindrical", spec).value
    scale = integrate_callable(lambda X: np.abs(odd(X)), "bicylindrical",
                               spec).value
    assert abs(value) <= 1e-15 * scale


@pytest.mark.parametrize("nodes", [3, 6])
def test_bicylindrical_rule_is_exact_up_to_degree_2m_minus_1(nodes):
    """x4^k h(x1, rbar) integrates like h rbar^k / (k + 1) on the
    cylindrical nodes (the mean of u^k over [-1, 1]) for every even
    k <= 2m - 1, to round-off (odd k vanish on both sides); at k = 2m the u
    rule is no longer exact."""
    spec = QuadratureSpec(nodes=nodes, r_max=8.0, x1_centers=(0.5,), core=0.5)

    def h(X):
        return np.exp(-0.5 * np.sum(X * X, axis=1)) / (1.0 + X[:, 0] ** 2)

    def rbar(X):
        return np.sqrt(np.sum(X[:, 1:] ** 2, axis=1))

    for k in range(0, 2 * nodes + 1, 2):
        bicyl = integrate_callable(lambda X: X[:, 3] ** k * h(X),
                                   "bicylindrical", spec).value
        cyl = integrate_callable(lambda X: rbar(X) ** k * h(X) / (k + 1),
                                 "cylindrical", spec).value
        if k < 2 * nodes:
            assert bicyl == pytest.approx(cyl, rel=1e-13)
        else:
            assert abs(bicyl - cyl) > 1e-6 * cyl


def _passes(monkeypatch, module) -> list:
    """Spy on the passes module makes: (declared x4 degree, points) each."""
    seen = []

    def spy(fn, *args, x4_degree=None, **kwargs):
        seen.append([x4_degree, 0])

        def counted(X):
            seen[-1][1] += len(X)
            return fn(X)
        return integrate_callable(counted, *args, x4_degree=x4_degree,
                                  **kwargs)
    monkeypatch.setattr(module, "integrate_callable", spy)
    return seen


def _points(symmetry, spec, x4_degree=None) -> int:
    return sum(len(X) for X, _ in quadrature._slabs(
        symmetry, spec, spec.r_max, (-spec.r_max, spec.r_max), x4_degree))


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_declared_degree_sizes_the_u_rule(k):
    """A pass declaring degree 2k - 1 in x4 takes k u points, so
    x4^(2k-2) h(x1, rbar) integrates exactly (like h rbar^(2k-2) / (2k-1)
    on the cylindrical nodes) and x4^(2k) h does not; declaring 2k takes
    k + 1 points, and no declared degree takes spec.nodes."""
    spec = QuadratureSpec(nodes=8, r_max=8.0, x1_centers=(0.5,), core=0.5)
    slab = _points("bicylindrical", spec) // spec.nodes
    assert _points("bicylindrical", spec, 2 * k - 1) == k * slab
    assert _points("bicylindrical", spec, 2 * k) == (k + 1) * slab
    assert _points("bicylindrical", spec, 99) == spec.nodes * slab

    def h(X):
        return np.exp(-0.5 * np.sum(X * X, axis=1)) / (1.0 + X[:, 0] ** 2)

    for j in (2 * k - 2, 2 * k):
        bicyl = integrate_callable(lambda X: X[:, 3] ** j * h(X),
                                   "bicylindrical", spec,
                                   x4_degree=2 * k - 1).value
        cyl = integrate_callable(
            lambda X: np.sum(X[:, 1:] ** 2, axis=1) ** (j / 2) * h(X)
            / (j + 1), "cylindrical", spec).value
        if j < 2 * k:
            assert bicyl == pytest.approx(cyl, rel=1e-13)
        else:
            assert abs(bicyl - cyl) > 1e-6 * cyl


def test_a_pass_with_a_field_of_unknown_degree_keeps_spec_nodes(
        Qs, monkeypatch):
    """A pairing block over surrogate pairs derives its degree and takes
    fewer u points; one bicylindrical field without a degree among its pairs
    puts the pass back on spec.nodes points."""
    from wave4d import fields
    from wave4d.boosts import traveling_pair
    from wave4d.fields import FieldPair, FormulaField, zero_field

    spec = QuadratureSpec(nodes=6, r_max=6.0)
    p = traveling_pair(Qs, 0.5, 0.0)
    odd = FieldPair(FormulaField(lambda X: X[:, 3] * np.exp(
        -np.sum(X * X, axis=1)), symmetry="bicylindrical"), zero_field())
    seen = _passes(monkeypatch, fields)
    fields.pairing_block([p], [p], "h", spec)
    fields.pairing_block([p, odd], [p, odd], "h", spec)
    fields.pairing_block([p], [odd], "l2", spec)
    slab = _points("bicylindrical", spec) // spec.nodes
    # Q has degree 1 and its derivative leaf 2: an "h" feature reads 2
    assert seen == [[4, 3 * slab], [None, 6 * slab], [None, 6 * slab]]


def test_laws_passes_derive_degree_six(monkeypatch):
    """The surrogate G parts are cubics in Q_n (degree 1) and the
    corrections w_n, whose zero coefficients drop their fields; pairwise
    Q_n^4 Q_m^2 has degree 6 too.  So each laws pass takes 4 u points: the
    G parts' one pass and the split's 5 windows, one per pair of
    consecutive points of the x1 window's ends and the two pairs' region
    bounds.  With nonzero corrections (conformal_4 of Q has degree 2) the
    G parts need 7."""
    from wave4d import interactions
    from wave4d.states import surrogate_excited_state, symmetry_generator

    Q = surrogate_excited_state()
    gens = [symmetry_generator(Q, g)
            for g in ("conformal_4", "scaling", "translation_1")]
    cfg = interactions.two_soliton_config(Q, gens[0], gens[1:])
    spec = QuadratureSpec(nodes=8, r_max=10.0)
    seen = _passes(monkeypatch, interactions)
    interactions.g_part_norms(cfg, 10.0, spec)
    interactions.pairwise_q_norm(cfg, 10.0, spec, split=True)
    assert [d for d, _ in seen] == [6] * 6
    seen.clear()
    moved = interactions.two_soliton_config(Q, gens[0], gens[1:],
                                            a=(0.01, 0.0))
    interactions.g_part_norms(moved, 10.0, spec)
    assert [d for d, _ in seen] == [12]


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2),
                          st.floats(0.5, 2.0)), min_size=1, max_size=3),
       st.integers(1, 2))
def test_degree_sized_pass_equals_the_nodes_sized_pass(factors, terms):
    """The square of a product of monomial-radial fields x1^i x4^j B^b
    (each a sum of up to two such terms) integrates to 1e-13 relative on
    the u rule its degree sizes, as on spec.nodes points."""
    from wave4d.fields import PolyRadialField, RationalRadial

    f = None
    for i, j, c in factors:
        g = PolyRadialField([((i, 0, 0, j + n), RationalRadial(
            -0.25, {(0, i + j + n + 3): c / (1 + n)})) for n in range(terms)])
        f = g if f is None else f.product(g)
    f = f.product(f)
    assert f.x4_degree == 2 * sum(j + terms - 1 for _, j, _ in factors)
    spec = QuadratureSpec(nodes=8, r_max=12.0)
    sized = integrate_callable(f.evaluate, f.symmetry, spec,
                               x4_degree=f.x4_degree).value
    full = integrate_callable(f.evaluate, f.symmetry, spec).value
    assert sized == pytest.approx(full, rel=1e-13)


def _angular_mean(fn, x1, rbar, m):
    """Half the integral over u in [-1, 1] of fn at (x1, rbar sqrt(1-u^2),
    0, rbar u) for each (x1, rbar), by m-point Gauss-Legendre in u; the
    mean of |fn| over the same nodes sets the round-off scale."""
    u, wu = np.polynomial.legendre.leggauss(m)
    X = np.zeros((len(x1), m, 4))
    X[..., 0] = x1[:, None]
    X[..., 1] = rbar[:, None] * np.sqrt(1.0 - u * u)
    X[..., 3] = rbar[:, None] * u
    vals = np.asarray(fn(X.reshape(-1, 4))).reshape(len(x1), m, -1)
    return (0.5 * np.einsum("j,pjc->pc", wu, vals),
            0.5 * np.einsum("j,pjc->pc", wu, np.abs(vals)))


def _integrand_kinds():
    """The bicylindrical integrand kinds the suites form, each as a
    (points -> (N, columns)) callable with its soliton centers: the pairwise
    Q_n^4 Q_m^2, the squared G parts with nonzero corrections, and the
    "h"/"l2" blocks of surrogate pairs with their generators."""
    from wave4d.boosts import traveling_pair
    from wave4d.fields import pair_sampler
    from wave4d.interactions import GAssembly, two_soliton_config
    from wave4d.states import surrogate_excited_state, symmetry_generator

    Q = surrogate_excited_state()
    gens = [symmetry_generator(Q, g)
            for g in ("conformal_4", "scaling", "translation_1")]
    cfg = two_soliton_config(Q, gens[0], gens[1:], a=(0.01, -0.02),
                             b=((0.01, 0.0), (0.0, 0.02)))
    t = 10.0
    q = cfg.traveling_profiles(t)

    def pairwise(X):
        q0, q1 = q[0].evaluate(X), q[1].evaluate(X)
        return np.column_stack([q0**4 * q1**2, q1**4 * q0**2])

    asm = GAssembly(cfg, t)
    T = 20.0
    pairs = [traveling_pair(f, ell, T, 1) for ell in cfg.speeds
             for f in [Q] + gens]

    sample = pair_sampler([("h", pairs), ("l2", pairs)])

    def blocks(X):
        H, L = sample(X)
        h = np.einsum("ikp,jkp->pij", H, H)
        l2 = np.einsum("ikp,jkp->pij", L, L)
        return np.concatenate([h.reshape(len(X), -1),
                               l2.reshape(len(X), -1)], axis=1)

    return {"pairwise": (pairwise, cfg.centers(t)),
            "G_parts_squared": (asm.squared_stack, cfg.centers(t)),
            "pair_blocks": (blocks, cfg.centers(T))}


@pytest.mark.parametrize("kind,m", [("pairwise", 8), ("G_parts_squared", 8),
                                    ("pair_blocks", 6), ("pair_blocks", 8)])
def test_angle_rule_exact_on_suite_integrands(kind, m):
    """m and 2m angular nodes agree to round-off on every bicylindrical
    integrand kind the suites form, in the cores and away from them, at the
    node counts the suites use: 8 in the laws passes, 6 and 8 in the round
    trip.  (The squared G parts with nonzero corrections reach degree 13 in
    u, so they need m >= 7; the other kinds are exact from m = 4.)"""
    fn, centers = _integrand_kinds()[kind]
    x1 = np.array([c + d for c in centers
                   for d in (-2.0, -0.3, 0.0, 0.1, 0.5, 3.0)]
                  + [0.5 * sum(centers)])
    rb = np.array([0.02, 0.2, 0.5, 1.5, 6.0])
    x1, rb = (a.ravel() for a in np.meshgrid(x1, rb))
    coarse, _ = _angular_mean(fn, x1, rb, m)
    fine, scale = _angular_mean(fn, x1, rb, 2 * m)
    assert np.all(np.abs(coarse - fine) <= 1e-12 * scale.max(axis=0))


def test_join_symmetry_order():
    assert join_symmetry("radial", "bicylindrical") == "bicylindrical"
    assert join_symmetry("cylindrical", "full") == "full"
    with pytest.raises(ValueError):
        join_symmetry("spherical")


@pytest.mark.parametrize("symmetry", ["full", "spherical"])
def test_a_tag_with_no_reduction_has_no_pass(symmetry):
    """full is a field tag, and no pass integrates it."""
    spec = QuadratureSpec(nodes=3, r_max=4.0)
    with pytest.raises(ValueError, match="no quadrature pass"):
        integrate_callable(_gauss, symmetry, spec)
    with pytest.raises(ValueError, match="no quadrature pass"):
        node_set(symmetry, spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(nodes=1)
    with pytest.raises(ValueError):
        QuadratureSpec(scheme="adaptive")
    with pytest.raises(ValueError):
        QuadratureSpec(r_max=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(core=0.0)
    # non-finite and non-integer input, which would give a NaN or a silently
    # wrong pass: 7.007 for the cylindrical integral of exp(-|x|^2) (pi^2)
    # at nodes 4 and r_max 6 with core NaN
    for bad in (dict(nodes=4.5), dict(nodes=4.0), dict(r_max=math.nan),
                dict(r_max=math.inf), dict(core=math.nan),
                dict(core=math.inf), dict(x1_centers=(0.0, math.nan)),
                dict(x1_centers=(math.inf,))):
        with pytest.raises(ValueError):
            QuadratureSpec(**bad)
    spec = QuadratureSpec(nodes=np.int64(4), r_max=6.0)
    value = integrate_callable(lambda X: np.exp(-np.sum(X * X, axis=1)),
                               "cylindrical", spec).value
    assert value == pytest.approx(math.pi**2, rel=1e-3)
    with pytest.raises(ValueError):
        spec.with_centers([math.nan])
