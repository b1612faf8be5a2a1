import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wave4d import spectrum
from wave4d.fields import FormulaField, RadialExpField
from wave4d.quadrature import QuadratureSpec
from wave4d.spectrum import (EPS, NEGATIVE_TOL, assemble_radial,
                             kernel_count, negative_spectrum,
                             not_a_knot_spline,
                             radial_eigenfield, rayleigh_quotient,
                             shooting_rate, solve_tridiagonal,
                             tridiagonal_eigenpairs, verify_cancellation,
                             verify_exponential_decay)
from wave4d.states import (RationalRadial, _poly_from, dilate,
                           symmetry_generator)


def _zero_profile():
    return FormulaField(lambda X: np.zeros(X.shape[0]),
                        lambda X: np.zeros_like(X),
                        symmetry="radial", decay=100.0)


def test_free_laplacian_is_nonnegative():
    op = assemble_radial(_zero_profile(), r_max=20.0, n=1000)
    res = negative_spectrum(op, k=3)
    assert res.count == 0
    vals, _ = tridiagonal_eigenpairs(op.main, op.off, -1e12, 1.0)
    assert np.all(vals > 0)


def test_exactly_one_negative_eigenvalue(W):
    op = assemble_radial(W, r_max=30.0, n=3000)
    res = negative_spectrum(op, k=4)
    assert res.count == 1
    assert res.residuals[0] < 1e-9


def test_grid_rate_matches_shooting_oracle(W, ground_eigen):
    lam1, _ = ground_eigen
    lam_shoot = shooting_rate(W)
    assert abs(lam1 - lam_shoot) / lam_shoot < 0.01


def test_shooting_oracle_matches_extrapolated_grid_rate(W):
    """The oracle agrees with the second-order Richardson limit of the
    radial grid rates far inside the grid's own error."""
    lams = [negative_spectrum(assemble_radial(W, r_max=30.0, n=n), k=1).lams[0]
            for n in (1000, 2000, 4000)]
    order = math.log2((lams[1] - lams[0]) / (lams[2] - lams[1]))
    assert order == pytest.approx(2.0, abs=0.05)
    limit = (4.0 * lams[2] - lams[1]) / 3.0
    lam_shoot = shooting_rate(W)
    assert abs(limit - lam_shoot) / lam_shoot < 1e-9


@pytest.mark.parametrize("mu", [0.8, 1.25])
def test_shooting_oracle_respects_scaling(W, mu):
    """-Delta - 3 q_mu^2 with q_mu(x) = mu W(mu x) is the operator of W
    rescaled by mu, so its rate is mu lam_1."""
    q_mu = _poly_from([(np.zeros(4, dtype=int),
                        RationalRadial(-mu * mu / 4.0, {(0, 1): mu}))])
    assert shooting_rate(q_mu) == pytest.approx(mu * shooting_rate(W),
                                                rel=1e-9)


def test_shooting_oracle_refuses_other_profiles_up_front(W, monkeypatch):
    def no_integration(*args, **kwargs):
        raise AssertionError("the oracle integrated before rejecting")
    monkeypatch.setattr(spectrum, "ode", no_integration)
    with pytest.raises(ValueError, match="radial profile"):
        shooting_rate(symmetry_generator(W, "translation_1"))
    with pytest.raises(TypeError, match="monomial-radial"):
        shooting_rate(_zero_profile())


def test_shooting_oracle_raises_when_the_step_budget_runs_out(W, monkeypatch):
    monkeypatch.setattr(spectrum, "ORACLE_NSTEPS", 10)
    with pytest.warns(UserWarning, match="nsteps"), \
            pytest.raises(RuntimeError, match="DOP853 failed"):
        shooting_rate(W)


def test_shooting_oracle_integrates_each_rate_once(W, monkeypatch):
    """The bracket ends are integrated once, for the straddle check and
    brentq alike, and the scaled miss Y(25) e^{-25 lam} takes brentq to
    xtol 1e-10 in 12 integrations in all.  Each integration's lam is read
    off its right-hand side: at r = 1, (Y, Y') = (1, 0) it returns
    lam^2 - 3 W(1)^2 as Y''."""
    seen = []
    real = spectrum.ode

    def counting(rhs):
        seen.append(rhs(1.0, np.array([1.0, 0.0]))[1])
        return real(rhs)

    monkeypatch.setattr(spectrum, "ode", counting)
    shooting_rate(W)
    assert len(seen) <= 12
    assert len(set(seen)) == len(seen)


def test_shooting_oracle_value_is_pinned(W):
    """The ground rate the oracle gave before its miss was scaled."""
    assert shooting_rate(W) == pytest.approx(0.7655592023142896, abs=1e-10)


def test_rate_self_convergence(W):
    lams = []
    for n in (1000, 2000, 4000):
        op = assemble_radial(W, r_max=30.0, n=n)
        lams.append(negative_spectrum(op, k=1).lams[0])
    gaps = [abs(lams[0] - lams[1]), abs(lams[1] - lams[2])]
    assert gaps[1] < gaps[0]
    assert math.log2(gaps[0] / gaps[1]) > 1.5


def test_kernel_count_radial(W, ground_eigen):
    op = assemble_radial(W, r_max=30.0, n=3000)
    kc = kernel_count(op, [symmetry_generator(W, "scaling")])
    assert kc["count"] == 1
    assert kc["alignments"][0] >= 0.99


def test_kernel_count_free_laplacian():
    op = assemble_radial(_zero_profile(), r_max=30.0, n=3000)
    kc = kernel_count(op)
    assert kc["count"] == 0


def test_rayleigh_quotient_consistency(W):
    op = assemble_radial(W, r_max=30.0, n=2000)
    vals, vecs = tridiagonal_eigenpairs(op.main, op.off, -1e12, -1e-10)
    for i in range(len(vals)):
        assert rayleigh_quotient(op, vecs[:, i]) == pytest.approx(
            vals[i], abs=1e-9)


def test_orthonormality(W):
    """The Gram matrix pairs the computed negative eigenvectors."""
    res = negative_spectrum(assemble_radial(W, r_max=30.0, n=2000), k=1)
    assert np.allclose(res.gram, np.eye(res.count), atol=1e-10)


def test_eigenfield_decay_rate(ground_eigen):
    lam1, Y1 = ground_eigen
    fit = verify_exponential_decay(Y1, lam1)
    assert abs(-fit.slope - lam1) / lam1 < 0.10
    assert fit.r_squared > 0.999


def _two_branch_eigenfield():
    """A radial eigenfield and the reference form of its radial parts:
    each part on its own, with both branches evaluated on every point and
    one picked."""
    r = np.linspace(0.05, 12.0, 240)
    values = np.exp(-r) / (1.0 + r * r)
    lam = 1.1
    Y = radial_eigenfield(r, values, lam)
    r_t = Y.trusted_radius
    spline = not_a_knot_spline(np.concatenate([-r[::-1], r]),
                               np.concatenate([values[::-1], values]))
    a_t = float(spline(r_t))

    def two_branch(k, rr):
        far, rs = np.maximum(rr, r_t), np.maximum(rr, 1e-9)
        tail = a_t * np.exp(-lam * (far - r_t)) * (r_t / far) ** 1.5
        factor = (1.0, -lam - 1.5 / rs,
                  (lam + 1.5 / rs) ** 2 + 1.5 / rs**2)[k]
        return np.where(rr <= r_t, spline.derivative(k)(np.minimum(rr, r_t)),
                        tail * factor)

    return lam, Y, two_branch


def test_eigenfield_parts_equal_the_two_branch_form():
    """The parts evaluate the spline only on the points inside the trusted
    radius and the tail only beyond it; bit for bit, that is the form that
    evaluates both branches on every point and picks one, for every subset
    of the parts in any order."""
    _, Y, two_branch = _two_branch_eigenfield()
    r_t = Y.trusted_radius
    edge = np.array([np.nextafter(r_t, 0.0), r_t, np.nextafter(r_t, np.inf)])
    for rr in (edge, np.concatenate([np.linspace(0.0, 20.0, 101), edge]),
               np.linspace(0.0, r_t, 50),
               np.linspace(edge[2], 20.0, 50)):
        for orders in ((0, 1, 2), (2, 0), (1,)):
            for k, part in zip(orders, Y.radial_parts(rr, orders),
                               strict=True):
                np.testing.assert_array_equal(part, two_branch(k, rr))


def test_eigenfield_jets_equal_the_per_part_form():
    """Y and every leaf of the ell = 0.5 exponential directions and their
    Z+- partners give, bit for bit, the values and gradients of the same
    fields on parts evaluated one by one: at the origin, on the trusted
    radius and beyond it."""
    import dataclasses

    from wave4d.boosts import build_exp_directions
    from wave4d.fields import _terms

    lam, Y, two_branch = _two_branch_eigenfield()
    r_t = Y.trusted_radius

    def per_part(rr, orders):
        return [two_branch(k, rr) for k in orders]

    X = np.random.default_rng(5).normal(size=(400, 4))
    X *= np.linspace(0.0, 2.5 * r_t, 400)[:, None] / np.linalg.norm(
        X, axis=1)[:, None]
    X[0] = 0.0
    X[1:5] = r_t * np.eye(4)
    fields = [Y]
    for d in build_exp_directions(Y, lam, 0.5).values():
        for f in (d.pair.first, d.pair.second, d.z_pair.first,
                  d.z_pair.second):
            fields += [leaf for _, leaf in _terms(f)]
    assert len(fields) == 1 + 4 * 2
    for f in fields:
        if isinstance(f, RadialExpField):
            ref = dataclasses.replace(f, radial_parts=per_part)
        else:
            ref = dataclasses.replace(f, base=dataclasses.replace(
                f.base, radial_parts=per_part))
        np.testing.assert_array_equal(f.evaluate(X), ref.evaluate(X))
        np.testing.assert_array_equal(f.gradient(X), ref.gradient(X))


def _mirrored_cell_centers():
    """The knots radial_eigenfield builds on the suites' grid r_max = 25,
    n = 1500: the cell centers and their mirror images at -r."""
    r = (np.arange(1500) + 0.5) * (25.0 / 1500)
    return np.concatenate([-r[::-1], r])


@pytest.mark.parametrize("x", [
    _mirrored_cell_centers(),
    np.sort(np.random.default_rng(3).uniform(-3.0, 7.0, 60))],
    ids=["mirrored_uniform", "non_uniform"])
def test_not_a_knot_spline_matches_scipy(x):
    """Value, first and second derivative equal scipy's not-a-knot
    CubicSpline to 1e-14 of their largest size, at the knots, between them
    and beyond both ends."""
    from scipy.interpolate import CubicSpline

    y = np.exp(-np.abs(x)) / (1.0 + x * x) + 0.1 * np.sin(3.0 * x)
    t = np.concatenate([np.linspace(x[0] - 0.5, x[-1] + 0.5, 10_001), x])
    ours, ref = not_a_knot_spline(x, y), CubicSpline(x, y)
    for k in range(3):
        want = ref.derivative(k)(t)
        err = np.max(np.abs(ours.derivative(k)(t) - want))
        assert err <= 1e-14 * np.max(np.abs(want))
    with pytest.raises(ValueError, match="4 knots"):
        not_a_knot_spline(x[:3], y[:3])


def _not_a_knot_system(x, y):
    """The spline's knot-slope system in LAPACK's banded layout (upper,
    main and lower diagonal rows), with its right side: scipy's
    ``CubicSpline`` assembles the same one."""
    dx = np.diff(x)
    slope = np.diff(y) / dx
    A, b = np.zeros((3, len(x))), np.empty(len(x))
    A[1, 1:-1] = 2.0 * (dx[:-1] + dx[1:])
    A[0, 2:], A[2, :-2] = dx[:-1], dx[1:]
    b[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    A[1, 0], A[0, 1] = dx[1], d
    b[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d
    d = x[-1] - x[-3]
    A[1, -1], A[2, -2] = dx[-2], d
    b[-1] = (dx[-1]**2 * slope[-2]
             + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    return A, b


@pytest.mark.parametrize("x", [
    _mirrored_cell_centers(),
    np.sort(np.random.default_rng(3).uniform(-3.0, 7.0, 60))],
    ids=["mirrored_uniform", "non_uniform"])
def test_not_a_knot_slopes_match_solve_banded(x):
    """The knot slopes, the spline's first derivative at the knots, equal
    LAPACK's banded solve of the same system to 4 EPS of their largest
    size.  Both eliminate with partial pivoting; on these knots they agree
    to the last bit, and the non-uniform knots need row exchanges."""
    from scipy.linalg import solve_banded

    y = np.exp(-np.abs(x)) / (1.0 + x * x) + 0.1 * np.sin(3.0 * x)
    want = solve_banded((1, 1), *_not_a_knot_system(x, y))
    got = not_a_knot_spline(x, y).derivative(1)(x)
    np.testing.assert_allclose(got, want, rtol=0,
                               atol=4 * EPS * np.max(np.abs(want)))


def test_tridiagonal_solve_at_an_exact_eigenvalue_is_finite():
    """T - 1 for T = [[0, 1], [1, 0]] is singular: its zero pivot is
    replaced, and x comes out finite, huge and along the eigenvector
    (1, 1), as inverse iteration needs."""
    x = solve_tridiagonal([1.0], [-1.0, -1.0], [1.0], [1.0, 0.0])
    assert np.all(np.isfinite(x)) and abs(x[0]) > 1e14
    assert x[1] == pytest.approx(x[0], rel=1e-15)


def _tridiagonal_norm(main, off):
    """max_i |main_i| + |off_{i-1}| + |off_i| >= ||T||: the scale of the
    solver's errors."""
    radius = np.zeros(len(main))
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    return float(np.max(np.abs(main) + radius))


def _assert_matches_lapack(main, off, vals, vecs, want_vals, want_vecs,
                           vec_factor=1.0):
    """Each eigenvalue within 4 EPS ||T|| of LAPACK's, each residual
    ||T u - lam u|| within 4 EPS ||T||, the vectors orthonormal to 1e-14,
    and each vector, sign-aligned, within vec_factor EPS ||T|| / gap of
    LAPACK's in every entry, gap the distance to the nearest other
    eigenvalue of T (a tie leaves the vector free, and bounds nothing)."""
    from scipy.linalg import eigh_tridiagonal

    scale = EPS * _tridiagonal_norm(main, off)
    assert len(vals) == len(want_vals)
    np.testing.assert_allclose(vals, want_vals, rtol=0, atol=4.0 * scale)
    every = eigh_tridiagonal(main, off, eigvals_only=True)
    for lam, u, ref in zip(vals, vecs.T, want_vecs.T):
        Tu = main * u
        Tu[:-1] += off * u[1:]
        Tu[1:] += off * u[:-1]
        assert np.linalg.norm(Tu - lam * u) <= 4.0 * scale
        others = np.delete(every, np.argmin(np.abs(every - lam)))
        gap = np.min(np.abs(others - lam), initial=np.inf)
        u = u if u @ ref >= 0 else -u
        assert gap == 0 or np.max(np.abs(u - ref)) * gap <= vec_factor * scale
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(len(vals)), rtol=0,
                               atol=1e-14)


@pytest.mark.parametrize("case", [
    "set_up", "suite_negative", "suite_kernel", "free_low", "free_middle",
    "free_top"])
def test_eigenpairs_match_lapack_on_the_radial_operators(W, case):
    """The eigensolver against LAPACK (scipy's ``eigh_tridiagonal``, bisection
    and inverse iteration) on set-up's operator (r_max 25, n 1500, the
    lowest pair), the spectrum suite's (r_max 30, n 3000: the negative
    pairs among the 3 lowest, and the kernel window) and free Laplacian
    windows (r_max 20, n 1000).  Reached, in units of EPS ||T||
    (7.6e-12, 2.1e-11 and 5.3e-12): eigenvalues 0.02-0.7, residuals
    0.17-0.81, vectors 0.03 / gap at most."""
    from scipy.linalg import eigh_tridiagonal

    if case.startswith("free"):
        op = assemble_radial(_zero_profile(), r_max=20.0, n=1000)
    elif case == "set_up":
        op = assemble_radial(W, r_max=25.0, n=1500)
    else:
        op = assemble_radial(W, r_max=30.0, n=3000)
    if case in ("set_up", "suite_negative"):
        k = 1 if case == "set_up" else 3
        vals, vecs = tridiagonal_eigenpairs(op.main, op.off, -math.inf,
                                            -NEGATIVE_TOL, limit=k)
        want_vals, want_vecs = eigh_tridiagonal(
            op.main, op.off, select="i", select_range=(0, k - 1))
        negative = want_vals < -NEGATIVE_TOL
        want_vals, want_vecs = want_vals[negative], want_vecs[:, negative]
        assert len(vals) == 1
    else:
        lo, hi = {"suite_kernel": (-op.r_max**-2 * 10, op.r_max**-2 * 10),
                  "free_low": (-1e12, 1.0), "free_middle": (100.0, 200.0),
                  "free_top": (1e4, 1e12)}[case]
        vals, vecs = tridiagonal_eigenpairs(op.main, op.off, lo, hi)
        want_vals, want_vecs = eigh_tridiagonal(
            op.main, op.off, select="v", select_range=(lo, hi))
        assert len(vals) >= 1
    _assert_matches_lapack(op.main, op.off, vals, vecs, want_vals,
                           want_vecs)


@st.composite
def _tridiagonal_windows(draw):
    """A random unreduced symmetric tridiagonal, as the radial operators
    are (n 4-300, diagonal entries in [-10, 10], off-diagonal ones of
    either sign and size 0.1-10), and a window whose ends lie between
    eigenvalues, at least 1e-6 ||T|| from each, with a random limit.  A
    matrix that splits can hold exact ties, where the residuals grow with
    the size of the tie (8 EPS ||T|| seen); that case is left out."""
    from scipy.linalg import eigh_tridiagonal

    n = draw(st.integers(4, 300))
    main = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n,
                                  max_size=n)))
    sizes = draw(st.lists(st.floats(0.1, 10.0), min_size=n - 1,
                          max_size=n - 1))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n - 1,
                          max_size=n - 1))
    off = np.array(sizes) * np.array(signs)
    every = eigh_tridiagonal(main, off, eigvals_only=True)
    first = draw(st.integers(0, n - 1))
    last = draw(st.integers(first + 1, n))
    # ends between two eigenvalues, or past the spectrum
    lo = (every[first - 1] + every[first]) / 2 if first else -1e300
    hi = (every[last - 1] + every[last]) / 2 if last < n else 1e300
    ends = [e for e in (lo, hi) if abs(e) < 1e300]
    margin = 1e-6 * max(_tridiagonal_norm(main, off), 1.0)
    assume(all(np.min(np.abs(every - e)) > margin for e in ends))
    limit = draw(st.one_of(st.none(), st.integers(1, last - first)))
    return main, off, lo, hi, limit


@settings(max_examples=60, deadline=None)
@given(_tridiagonal_windows())
def test_eigenpairs_match_lapack_on_random_tridiagonals(case):
    """Any window of any symmetric tridiagonal: the count LAPACK finds and
    the bounds of _assert_matches_lapack, each vector within
    4 EPS ||T|| / gap.  Reached over 600 seeded draws of random,
    splitting, integer and 0/1 matrices, in units of EPS ||T||:
    eigenvalues 1.3 from LAPACK's, which lies as near the exact ones
    (0.3-0.64 on 60 x 60 draws checked in 40-digit arithmetic); residuals
    2.5, vectors 1.2 / gap; orthonormal to 1e-15.  A 4 x 4 draw can put
    LAPACK's eigenvalue 3 ulp (1.02 EPS ||T||) from this one."""
    from scipy.linalg import eigh_tridiagonal

    main, off, lo, hi, limit = case
    vals, vecs = tridiagonal_eigenpairs(main, off, lo, hi, limit)
    want_vals, want_vecs = eigh_tridiagonal(main, off, select="v",
                                            select_range=(lo, hi))
    if limit is not None:
        want_vals, want_vecs = want_vals[:limit], want_vecs[:, :limit]
    _assert_matches_lapack(main, off, vals, vecs, want_vals, want_vecs,
                           vec_factor=4.0)


def test_decay_check_requires_rate():
    with pytest.raises(ValueError):
        verify_exponential_decay(_zero_profile(), 0.0)


def test_decay_check_requires_trusted_window():
    """A positive rate on a field with no trusted radius has no window."""
    with pytest.raises(ValueError, match="trusted window"):
        verify_exponential_decay(_zero_profile(), 1.0)


def test_decay_rate_scales_with_dilation(W):
    """lam(dilated profile) = lam * dilation, and so does the decay rate."""
    scale = 1.5
    q = dilate(W, scale)
    op = assemble_radial(FormulaField(q.evaluate, symmetry="radial",
                                      decay=2.0),
                         r_max=25.0, n=3000)
    res = negative_spectrum(op, k=1)
    op0 = assemble_radial(W, r_max=30.0, n=3000)
    lam0 = negative_spectrum(op0, k=1).lams[0]
    assert res.lams[0] == pytest.approx(scale * lam0, rel=1e-3)
    fit = verify_exponential_decay(res.fields[0], res.lams[0])
    assert -fit.slope == pytest.approx(res.lams[0], rel=0.05)


def test_cancellation_identities(W, rng):
    lam = symmetry_generator(W, "scaling")
    d1 = symmetry_generator(W, "translation_1")
    c1 = symmetry_generator(W, "conformal_1")
    for trip in ((lam, lam, lam), (d1, d1, lam), (d1, c1, lam)):
        val, scale = verify_cancellation(*trip, W)
        assert abs(val) <= 1e-12 * scale

    # 20 seeded random triples from the nonvanishing generators
    ids = [g for g in ("scaling", "translation_1", "translation_2",
                       "translation_3", "translation_4", "conformal_1",
                       "conformal_2", "conformal_3", "conformal_4")]
    gens = {g: symmetry_generator(W, g) for g in ids}
    for _ in range(20):
        trip = rng.choice(ids, size=3)
        val, scale = verify_cancellation(*[gens[g] for g in trip], W)
        assert abs(val) <= 1e-6 * scale

    # negative control: a non-kernel bump makes the pairing generically big
    bump = FormulaField(
        lambda X: np.exp(-(np.sqrt(np.sum(X * X, axis=1)) - 2.0) ** 2),
        symmetry="radial", decay=50.0)
    val, scale = verify_cancellation(lam, lam, bump, W,
                                     QuadratureSpec(r_max=40.0))
    assert abs(val) > 1e-3 * scale


def test_sector_mismatch_rejected(Qs):
    with pytest.raises(ValueError):
        assemble_radial(Qs)
