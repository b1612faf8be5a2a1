import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wave4d.boosts import traveling_pair
from wave4d.fields import (AffineField, FieldPair, FormulaField, norm_pair,
                           pair_sum, pairing_block, sum_field, zero_field)
from wave4d.interactions import PROFILES, soliton_config
from wave4d.modulation import (GramIllConditioned, ModulationState,
                               basis_pairs, build_initial_data, compute_c,
                               compute_z, decompose, default_sigma,
                               exp_direction_family, gram_system,
                               modulation_residuals, shift_pair)
from wave4d.quadrature import QuadratureSpec
from wave4d.states import symmetry_generator

SPEC = QuadratureSpec(nodes=6, r_max=25.0)


@pytest.fixture(scope="module")
def cfg():
    return soliton_config("surrogate", (-0.5, 0.5))


@pytest.fixture(scope="module")
def dirs(cfg, ground_eigen):
    return exp_direction_family(cfg, [ground_eigen])


def _soliton_sum_pair(cfg, t):
    qpairs = [traveling_pair(p, ell, t, tau) for p, ell, tau
              in zip(cfg.profiles, cfg.speeds, cfg.signs)]
    return FieldPair(sum_field([q.first for q in qpairs]),
                     sum_field([q.second for q in qpairs]))


def test_exact_ansatz_decomposes_to_zero(cfg, dirs):
    u = _soliton_sum_pair(cfg, 20.0)
    st_ = decompose(u, cfg, 20.0, SPEC, directions=dirs)
    assert np.max(np.abs(st_.a)) < 1e-12
    assert np.max(np.abs(st_.b)) < 1e-12
    assert st_.remainder_norm < 1e-10
    assert np.max(np.abs(st_.z_plus)) < 1e-12
    assert np.max(np.abs(st_.z_minus)) < 1e-12


def test_slow_direction_coefficient_recovered(cfg, dirs):
    t = 20.0
    base = _soliton_sum_pair(cfg, t)
    psi1 = traveling_pair(cfg.slow[0], cfg.speeds[0], t, 1)
    u = FieldPair(sum_field([base.first, psi1.first], [1.0, 0.01]),
                  sum_field([base.second, psi1.second], [1.0, 0.01]))
    st_ = decompose(u, cfg, t, SPEC, directions=dirs)
    assert st_.a[0] == pytest.approx(0.01, rel=1e-9)
    assert abs(st_.a[1]) < 1e-10
    assert st_.remainder_norm < 1e-9


def test_orthogonal_bump_passes_through(cfg, dirs):
    t = 20.0
    bump = FormulaField(
        lambda X: 0.01 * np.exp(-np.sum((X - np.array([0, 0, 0, 3.0])) ** 2,
                                        axis=1)),
        symmetry="bicylindrical")
    base = _soliton_sum_pair(cfg, t)
    # project the bump against the basis first, then feed it in
    slowk, kern = [], []
    from wave4d.modulation import basis_pairs

    fields, _ = basis_pairs(cfg, t)
    G = pairing_block(fields, fields, "h", cfg.quad_spec(t, SPEC))
    raw = FieldPair(bump, zero_field())
    rhs = pairing_block([raw], fields, "h", cfg.quad_spec(t, SPEC))[0]
    coef = np.linalg.solve(G, rhs)
    ortho_first = sum_field([bump] + [f.first for f in fields],
                            [1.0] + [-float(c) for c in coef])
    ortho_second = sum_field([zero_field()] + [f.second for f in fields],
                             [1.0] + [-float(c) for c in coef])
    u = FieldPair(sum_field([base.first, ortho_first]),
                  sum_field([base.second, ortho_second]))
    st_ = decompose(u, cfg, t, SPEC)
    assert np.max(np.abs(st_.a)) < 1e-10
    assert np.max(np.abs(st_.b)) < 1e-10
    assert st_.remainder_norm == pytest.approx(
        norm_pair(FieldPair(ortho_first, ortho_second),
                  cfg.quad_spec(t, SPEC)), rel=1e-6)


def test_tube_guard(cfg):
    t = 20.0
    big = FormulaField(lambda X: np.exp(-np.sum(X * X, axis=1)),
                       symmetry="bicylindrical")
    base = _soliton_sum_pair(cfg, t)
    u = FieldPair(sum_field([base.first, big]), base.second)
    with pytest.raises(ValueError, match="tube"):
        decompose(u, cfg, t, SPEC, gamma0=0.1)


def test_gram_condition_guard(cfg):
    u = _soliton_sum_pair(cfg, 20.0)
    with pytest.raises(GramIllConditioned):
        decompose(u, cfg, 20.0, SPEC, cond_threshold=1.0)


def test_gram_off_diagonal_decay(cfg):
    """Cross-speed entries of the Gram matrix decay like t^-2."""
    from wave4d.fitting import fit_loglog

    times = [10.0, 20.0, 40.0, 80.0]
    cross = []
    for t in times:
        # the domain must cover the region between the solitons, whose
        # midfield carries the two-center t^-2 law
        sp = QuadratureSpec(nodes=8, r_max=0.75 * t + 20.0)
        g = gram_system(cfg, t, sp)
        # entry pairing the two slow directions of different solitons
        cross.append(abs(g[0, 1]))
    fit = fit_loglog(times, cross)
    assert abs(fit.slope + 2.0) < 0.5


def test_compute_c_examples(cfg):
    t = 40.0
    zero = FieldPair(zero_field(), zero_field())
    assert compute_c(zero.first, cfg, 0, t, 0.1, SPEC) == 0.0
    # phi1 = Psi_n gives c_n -> 1 up to O(1/log t)
    psi40 = traveling_pair(cfg.slow[0], cfg.speeds[0], t, 1).first
    c40 = compute_c(psi40, cfg, 0, t, 0.1, SPEC)
    psi160 = traveling_pair(cfg.slow[0], cfg.speeds[0], 160.0, 1).first
    c160 = compute_c(psi160, cfg, 0, 160.0, 0.1, SPEC)
    assert abs(c40 - 1.0) < 0.6
    assert abs(c160 - 1.0) < abs(c40 - 1.0)
    # cross-soliton component decays like 1/log t
    c_cross = compute_c(psi160, cfg, 1, 160.0, 0.1, SPEC)
    assert abs(c_cross) < 0.1
    with pytest.raises(ValueError):
        compute_c(psi40, cfg, 0, 0.5, 0.1, SPEC)


def test_default_sigma(cfg):
    assert default_sigma(cfg) == pytest.approx(0.1)
    with pytest.raises(ValueError):
        default_sigma(soliton_config("ground", [0.0]))


def test_compute_z_identities(cfg, dirs, ground_eigen):
    t = 20.0
    lam, Y = ground_eigen
    ell = cfg.speeds[0]
    d = dirs[0][0]
    c = ell * t
    # phi = the outgoing direction itself: its own partner pairing vanishes
    ups_plus = shift_pair(d["+"].pair, c)
    zp, zm = compute_z(ups_plus, cfg, dirs, t, SPEC)
    scale = norm_pair(ups_plus, cfg.quad_spec(t, SPEC)) ** 2
    assert abs(zp[0, 0]) < 1e-8 * scale
    # the transversal pairing is generically nonzero
    assert abs(zm[0, 0]) > 1e-3
    # kernel pairs are blind to both partners
    kp = shift_pair(traveling_pair(symmetry_generator(
        cfg.profiles[0], "scaling"), ell, 0.0, 1), c)
    zp2, zm2 = compute_z(kp, cfg, dirs, t, SPEC)
    assert abs(zp2[0, 0]) < 1e-6
    assert abs(zm2[0, 0]) < 1e-6


@settings(max_examples=6, deadline=None)
@given(a=st.floats(-2, 2), b=st.floats(-2, 2))
def test_compute_z_linear(a, b):
    from wave4d.states import ground_state

    W = ground_state()
    cfg = soliton_config("ground", (-0.5, 0.5))
    lamY = (0.7655585592, _cached_Y(W))
    dirs = exp_direction_family(cfg, [lamY])
    f = FormulaField(lambda X: np.exp(-np.sum(X * X, axis=1)),
                     symmetry="cylindrical")
    g = FormulaField(lambda X: X[:, 0] * np.exp(-np.sum(X * X, axis=1)),
                     symmetry="cylindrical")
    t = 15.0
    za = compute_z(FieldPair(f, zero_field()), cfg, dirs, t, SPEC)
    zb = compute_z(FieldPair(g, zero_field()), cfg, dirs, t, SPEC)
    combo = FieldPair(sum_field([f, g], [a, b]), zero_field())
    zc = compute_z(combo, cfg, dirs, t, SPEC)
    assert np.allclose(zc[0], a * za[0] + b * zb[0], rtol=1e-9, atol=1e-12)
    assert np.allclose(zc[1], a * za[1] + b * zb[1], rtol=1e-9, atol=1e-12)


_Y_CACHE = {}


def _cached_Y(W):
    if "Y" not in _Y_CACHE:
        from wave4d.spectrum import assemble_radial, negative_spectrum

        op = assemble_radial(W, r_max=25.0, n=1500)
        _Y_CACHE["Y"] = negative_spectrum(op, k=1).fields[0]
    return _Y_CACHE["Y"]


def test_build_initial_data_roundtrip(cfg, dirs):
    T = 20.0
    z = 0.4 * T**-3.5 * np.array([[1.0], [-0.6]])
    built = build_initial_data(cfg, T, z, dirs, SPEC)
    st_ = decompose(built["u"], cfg, T, SPEC, directions=dirs)
    assert np.max(np.abs(st_.a)) < 1e-8 * np.max(np.abs(z))
    assert np.max(np.abs(st_.b)) < 1e-8 * np.max(np.abs(z))
    assert np.max(np.abs(st_.z_plus - z)) / np.max(np.abs(z)) < 1e-8


@pytest.mark.parametrize("data", ["slow_direction", "round_trip"])
def test_decompose_matches_separate_pairings(cfg, dirs, data):
    """The fused passes of decompose give what the separate public
    pairings give on its remainder."""
    t = 20.0
    if data == "slow_direction":
        base = _soliton_sum_pair(cfg, t)
        psi1 = traveling_pair(cfg.slow[0], cfg.speeds[0], t, 1)
        u = FieldPair(sum_field([base.first, psi1.first], [1.0, 0.01]),
                      sum_field([base.second, psi1.second], [1.0, 0.01]))
    else:
        z = 0.4 * t**-3.5 * np.array([[1.0], [-0.6]])
        u = build_initial_data(cfg, t, z, dirs, SPEC)["u"]
    st_ = decompose(u, cfg, t, SPEC, directions=dirs)
    if data == "slow_direction":
        assert st_.a[0] == pytest.approx(0.01, rel=1e-9)
    assert st_.remainder_norm == pytest.approx(
        norm_pair(st_.remainder, cfg.quad_spec(t, SPEC)), rel=1e-12, abs=0.0)
    zp, zm = compute_z(st_.remainder, cfg, dirs, t, SPEC)
    np.testing.assert_allclose(st_.z_plus, zp, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(st_.z_minus, zm, rtol=1e-12, atol=0.0)
    assert st_.gram_cond == pytest.approx(
        np.linalg.cond(gram_system(cfg, t, SPEC)), rel=1e-12)


@pytest.mark.parametrize("data, blocks", [("round_trip", 1),
                                         ("slow_direction", 2)])
def test_decompose_passes_explicitly_only_on_cancellation(cfg, dirs, data,
                                                          blocks,
                                                          monkeypatch):
    """decompose reads ||phi||^2 and (phi, Z+-) off its one block, and
    takes an explicit pass only where the subtraction cancels: well-prepared
    data keep H_dd / (H_dd - c.h) at 1, while adding 0.01 Psi_1 leaves a
    remainder at round-off: H_dd - c.h is zero to 1e-12 of H_dd (it read
    -5.2e-18 against H_dd = 5.4e-3), of either sign."""
    import wave4d.modulation as modulation

    t = 20.0
    if data == "slow_direction":
        base = _soliton_sum_pair(cfg, t)
        psi1 = traveling_pair(cfg.slow[0], cfg.speeds[0], t, 1)
        u = FieldPair(sum_field([base.first, psi1.first], [1.0, 0.01]),
                      sum_field([base.second, psi1.second], [1.0, 0.01]))
    else:
        z = 0.4 * t**-3.5 * np.array([[1.0], [-0.6]])
        u = build_initial_data(cfg, t, z, dirs, SPEC)["u"]
    seen = []

    def counted(rows, cols, kind, spec=None):
        seen.append(pairing_block(rows, cols, kind, spec))
        return seen[-1]

    monkeypatch.setattr(modulation, "pairing_block", counted)
    st_ = decompose(u, cfg, t, SPEC, directions=dirs)
    assert len(seen) == blocks
    # rows [dev] + basis; their energy columns come first
    H = seen[0][:, :len(seen[0])]
    one_block = H[0, 0] - H[0, 1:] @ np.linalg.solve(H[1:, 1:], H[0, 1:])
    if blocks == 1:
        assert H[0, 0] / one_block == pytest.approx(1.0, rel=1e-9)
    else:
        assert abs(one_block) <= 1e-12 * H[0, 0]
    spec_c = cfg.quad_spec(t, SPEC)
    assert st_.remainder_norm == pytest.approx(
        norm_pair(st_.remainder, spec_c), rel=1e-12, abs=0.0)
    zp, zm = compute_z(st_.remainder, cfg, dirs, t, SPEC)
    np.testing.assert_allclose(st_.z_plus, zp, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(st_.z_minus, zm, rtol=1e-12, atol=0.0)


def test_round_trip_makes_four_passes(cfg, dirs, monkeypatch):
    """The criterion-8 round trip at T = 20: one pass builds the data, one
    block decomposes it and compute_c takes one localized pass a soliton."""
    import sys

    import wave4d.modulation as modulation
    from wave4d.quadrature import integrate_callable

    phase = {"name": None}
    passes = {}

    def counted(*args, **kwargs):
        passes[phase["name"]] = passes.get(phase["name"], 0) + 1
        return integrate_callable(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("wave4d.") and \
                getattr(mod, "integrate_callable", None) is integrate_callable:
            monkeypatch.setattr(mod, "integrate_callable", counted)
    real_compute_c = modulation.compute_c

    def compute_c(*args, **kwargs):
        outer, phase["name"] = phase["name"], "compute_c"
        try:
            return real_compute_c(*args, **kwargs)
        finally:
            phase["name"] = outer

    monkeypatch.setattr(modulation, "compute_c", compute_c)
    T = 20.0
    z = 0.5 * T**-3.5 * np.array([[1.0], [-1.0]]) / math.sqrt(2.0)
    phase["name"] = "build"
    built = build_initial_data(cfg, T, z, dirs, SPEC)
    phase["name"] = "decompose"
    st_ = decompose(built["u"], cfg, T, SPEC, directions=dirs)
    assert passes == {"build": 1, "decompose": 1, "compute_c": 2}
    assert np.max(np.abs(st_.z_plus - z)) / np.max(np.abs(z)) < 1e-8


def test_build_initial_data_matrix_is_the_single_kind_blocks(cfg, dirs):
    """One mixed-kind pass gives the system that the L2 rows of the Z+
    partners and the energy rows of the basis give as separate blocks."""
    from wave4d.modulation import basis_pairs

    T = 20.0
    z = 0.4 * T**-3.5 * np.array([[1.0], [-0.6]])
    built = build_initial_data(cfg, T, z, dirs, SPEC)
    spec_c = cfg.quad_spec(T, SPEC)
    zplus = [shift_pair(dirs[n][0]["+"].z_pair, ell * T)
             for n, ell in enumerate(cfg.speeds)]
    fields, _ = basis_pairs(cfg, T)
    columns = zplus + fields
    A = np.vstack([pairing_block(zplus, columns, "l2", spec_c),
                   pairing_block(fields, columns, "h", spec_c)])
    coef = np.linalg.solve(A, np.concatenate([z.ravel(),
                                              np.zeros(len(fields))]))
    assert built["matrix_cond"] == pytest.approx(np.linalg.cond(A),
                                                 rel=1e-12)
    got = np.array(list(built["coefficients"].values()))
    np.testing.assert_allclose(got, coef, rtol=1e-12,
                               atol=1e-12 * np.abs(coef).max())


def test_build_initial_data_zero_and_linearity(cfg, dirs):
    T = 20.0
    built0 = build_initial_data(cfg, T, np.zeros((2, 1)), dirs, SPEC)
    assert built0["coeff_l1"] < 1e-14
    z = 0.3 * T**-3.5 * np.array([[1.0], [0.5]])
    b1 = build_initial_data(cfg, T, z, dirs, SPEC)
    b2 = build_initial_data(cfg, T, 2.0 * z, dirs, SPEC,
                            enforce_ball=False)
    c1 = np.array(sorted(b1["coefficients"].values()))
    c2 = np.array(sorted(b2["coefficients"].values()))
    assert np.allclose(c2, 2.0 * c1, rtol=1e-9)


def test_build_initial_data_ball_guard(cfg, dirs):
    with pytest.raises(ValueError, match="ball"):
        build_initial_data(cfg, 20.0, np.full((2, 1), 1.0), dirs, SPEC)


def test_coefficient_bound_stable_across_times(cfg, dirs):
    ratios = []
    for T in (20.0, 40.0, 80.0):
        z = 0.5 * T**-3.5 * np.array([[1.0], [-1.0]]) / math.sqrt(2)
        built = build_initial_data(cfg, T, z, dirs, SPEC)
        ratios.append(built["bound_ratio"])
    assert max(ratios) / min(ratios) < 2.0


def test_modulation_residuals_differencer():
    ts = np.arange(10.0, 13.0, 0.5)

    def state(t):
        return ModulationState(t=t, a=np.array([t**-2]),
                               b=np.zeros((1, 1)), remainder=None,
                               z_plus=np.zeros((1, 1)),
                               z_minus=np.zeros((1, 1)),
                               c=np.zeros(1), remainder_norm=0.0,
                               gram_cond=1.0)

    states = [state(t) for t in ts]
    table = modulation_residuals(states)
    # the centered difference of t^-2 against the majorant t^-4 ~ 2 t
    for t, ratio in zip(table["times"], table["ratio"]):
        assert ratio == pytest.approx(t, rel=1e-2)

    flat = [ModulationState(t=t, a=np.zeros(1), b=np.zeros((1, 1)),
                            remainder=None, z_plus=np.zeros((1, 1)),
                            z_minus=np.zeros((1, 1)), c=np.zeros(1),
                            remainder_norm=0.0, gram_cond=1.0) for t in ts]
    table0 = modulation_residuals(flat)
    assert table0["ratio_max"] == 0.0
    with pytest.raises(ValueError):
        modulation_residuals(states[:2])
    bad = [state(10.0), state(10.5), state(11.5)]
    with pytest.raises(ValueError):
        modulation_residuals(bad)


@settings(max_examples=6, deadline=None)
@given(T=st.floats(20.0, 80.0), ell=st.floats(0.3, 0.7),
       size=st.floats(0.1, 1.0), angle=st.floats(0.0, 2.0 * math.pi))
def test_round_trip_recovers_z_over_the_ranges(ground_eigen, T, ell, size,
                                               angle):
    """decompose(build_initial_data(z)) gives a = b = 0 and z_plus = z to
    criterion 8's 1e-8 |z|, for T in [20, 80], speeds -ell, ell with ell in
    [0.3, 0.7] and z of any direction with |z| in [0.1, 1] T^-7/2 (a and b
    are round-off, not proportional to z, hence the lower bound)."""
    cfg = soliton_config("surrogate", (-ell, ell))
    dirs = exp_direction_family(cfg, [ground_eigen])
    z = size * T**-3.5 * np.array([[math.cos(angle)], [math.sin(angle)]])
    st_ = decompose(build_initial_data(cfg, T, z, dirs, SPEC)["u"], cfg, T,
                    SPEC, directions=dirs)
    worst = max(np.max(np.abs(st_.a)), np.max(np.abs(st_.b)),
                np.max(np.abs(st_.z_plus - z)))
    assert worst <= 1e-8 * np.max(np.abs(z))


def _mirror(f):
    """f(-x1, x2, x3, x4): the reflection composes into each affine leaf's
    map, and a derivative leaf along x1 changes sign under it."""
    flip = np.array([-1.0, 1.0, 1.0, 1.0])
    return sum_field([AffineField(g.base, g.scale * flip, g.shift, g.symmetry,
                                  g.decay, g.derivative) for _, g in f.terms],
                     [-c if g.derivative == 0 else c for c, g in f.terms])


@settings(max_examples=5, deadline=None)
@given(ell=st.floats(0.3, 0.7), angle=st.floats(0.0, 2.0 * math.pi))
def test_mirror_image_swaps_the_solitons(ground_eigen, ell, angle):
    """x1 -> -x1 maps the (-ell, ell) configuration onto itself with its
    solitons swapped.  So on the mirror image of data at T = 20 with
    nonzero a and b, a, z+-, c and b swap solitons, and b's translation_1
    column, odd in x1, also flips sign, each to 1e-10 of its largest
    entry."""
    T = 20.0
    cfg = soliton_config("surrogate", (-ell, ell))
    dirs = exp_direction_family(cfg, [ground_eigen])
    z = 0.5 * T**-3.5 * np.array([[math.cos(angle)], [math.sin(angle)]])
    basis, _ = basis_pairs(cfg, T)
    u = pair_sum([build_initial_data(cfg, T, z, dirs, SPEC)["u"]] + basis,
                 [1.0] + list(1e-4 * np.arange(1, len(basis) + 1)))
    mirror = FieldPair(_mirror(u.first), _mirror(u.second))
    st_, im = (decompose(v, cfg, T, SPEC, directions=dirs)
               for v in (u, mirror))
    parity = np.ones(cfg.n_kernel)
    parity[PROFILES["surrogate"].kernels.index("translation_1")] = -1.0
    for got, want in ((im.a, st_.a[::-1]), (im.z_plus, st_.z_plus[::-1]),
                      (im.z_minus, st_.z_minus[::-1]), (im.c, st_.c[::-1]),
                      (im.b, st_.b[::-1] * parity)):
        assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_decompose_block_maps_each_leaf_once_per_batch(cfg, dirs,
                                                      monkeypatch):
    """On the criterion-8 data the decompose block maps each distinct leaf
    at most once per batch: 6 basis leaves, each pair's second component
    read off its first's jet, and 8 Z+- leaves, each of which takes one
    jet of its radial-exponential base.  dev = u - sum Q_n holds no
    soliton leaf, so neither does the remainder."""
    import wave4d.fields as fields
    import wave4d.modulation as modulation
    from wave4d.fields import AffineField, RadialExpField

    T = 20.0
    z = 0.5 * T**-3.5 * np.array([[1.0], [-1.0]]) / math.sqrt(2.0)
    built = build_initial_data(cfg, T, z, dirs, SPEC)
    count = {"on": False, "maps": 0, "jets": 0, "batches": 0}
    real_map, real_block = AffineField._map, modulation.pairing_block
    real_jet = RadialExpField.jet
    real_integrate = fields.integrate_callable

    def counted_map(self, X):
        count["maps"] += count["on"]
        return real_map(self, X)

    def counted_jet(self, *args, **kwargs):
        count["jets"] += count["on"]
        return real_jet(self, *args, **kwargs)

    def counted_integrate(fn, *args, **kwargs):
        def batch(X):
            count["batches"] += count["on"]
            return fn(X)
        return real_integrate(batch, *args, **kwargs)

    def first_block(*args, **kwargs):
        count["on"] = count["batches"] == 0
        try:
            return real_block(*args, **kwargs)
        finally:
            count["on"] = False

    monkeypatch.setattr(AffineField, "_map", counted_map)
    monkeypatch.setattr(RadialExpField, "jet", counted_jet)
    monkeypatch.setattr(fields, "integrate_callable", counted_integrate)
    monkeypatch.setattr(modulation, "pairing_block", first_block)
    st_ = decompose(built["u"], cfg, T, SPEC, directions=dirs)
    assert count["batches"] > 0
    assert count["maps"] <= 14 * count["batches"]
    assert 0 < count["jets"] <= 8 * count["batches"]
    for part in (st_.remainder.first, st_.remainder.second):
        assert all(getattr(leaf, "base", leaf) is not cfg.profiles[0]
                   for _, leaf in part.terms)
