import hashlib
import math

import numpy as np
import pytest

from wave4d.boosts import pair_vector, traveling_pair
from wave4d.evolver import (CFL, CylWaveEvolver, GridBasis,
                            bootstrap_margins, default_grid_for, evolve,
                            grid_energy_momentum, grid_modulation,
                            measure_mode_rates, monitor_times,
                            shooting_experiment, soliton_background,
                            soliton_center, time_step)
from wave4d.fields import (Grid2DCyl, GridRadial, cylinder_points,
                           eval_on_grid, grid_gradient, grid_h_norm_sq,
                           grid_weights, laplacian_operator, pair_sum)
from wave4d.interactions import soliton_config
from wave4d.modulation import (ModulationState, _soliton_pairs,
                               build_initial_data, exp_direction_family,
                               modulation_residuals)
from wave4d.quadrature import QuadratureSpec


def _zero_edges(grid):
    """The background of a free wave: every open edge pinned to zero."""
    zero = np.zeros(grid.shape)
    edges = tuple(zero[e] for e in grid.edges)
    return lambda t: edges


def test_blowup_guard():
    grid = Grid2DCyl(-4.0, 4.0, 41, 4.0, 41)
    u0 = 50.0 * np.exp(-(np.linspace(-4, 4, 41)[:, None] ** 2
                         + np.linspace(0, 4, 41)[None, :] ** 2))
    ev = CylWaveEvolver(grid, u0, np.zeros_like(u0), _zero_edges(grid))
    status = ev.run_until(2.0)
    assert status == "blowup"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_blowup_guard_catches_nonfinite_cells(bad):
    grid = Grid2DCyl(-4.0, 4.0, 41, 4.0, 41)
    u0 = 0.01 * np.exp(-(grid.x1[:, None] ** 2 + grid.r[None, :] ** 2))
    ev = CylWaveEvolver(grid, u0, np.zeros_like(u0), _zero_edges(grid))
    assert ev.step() == "running"
    ev.u[17, 5] = bad
    with np.errstate(invalid="ignore"):
        assert ev.step() == "blowup"


def _slice_laplacian(u, g):
    """The Laplacian stencil written with array slices: the reference that
    laplacian_operator must reproduce."""
    lap = np.zeros_like(u)
    lap[1:-1, :] += (u[2:, :] - 2.0 * u[1:-1, :] + u[:-2, :]) / g.h1**2
    r = g.r
    lap[:, 1:-1] += (u[:, 2:] - 2.0 * u[:, 1:-1] + u[:, :-2]) / g.hr**2
    lap[:, 1:-1] += (2.0 / r[1:-1])[None, :] * (u[:, 2:] - u[:, :-2]) \
        / (2.0 * g.hr)
    # axis: (2/r) dr -> 2 drr, so 3 drr with the even reflection
    lap[:, 0] += 3.0 * 2.0 * (u[:, 1] - u[:, 0]) / g.hr**2
    return lap


_GRIDS = pytest.mark.parametrize("grid", [
    default_grid_for(0.0, 14.0, margin=10.0, h=0.12),  # 401 x 201
    default_grid_for(0.4, 5.0, margin=10.0, h=0.1),  # evolve
    Grid2DCyl(-3.0, 2.0, 9, 4.0, 6),
], ids=["shoot", "evolve", "small"])


@_GRIDS
def test_laplacian_operator_matches_slice_stencil(grid):
    rng = np.random.default_rng(8)
    op = laplacian_operator(grid)
    assert sorted(op.offsets) == [-grid.nr, -1, 0, 1, grid.nr]
    for _ in range(3):
        u = rng.standard_normal((grid.n1, grid.nr))
        got = (op @ u.ravel()).reshape(u.shape)
        ref = _slice_laplacian(u, grid)
        # each edge separately, so the axis column and the open edges are
        # not hidden behind the interior's scale
        for part in (np.s_[:, :], np.s_[:, 0], np.s_[0, :], np.s_[-1, :],
                     np.s_[:, -1]):
            scale = np.max(np.abs(ref[part]))
            assert np.max(np.abs(got[part] - ref[part])) <= 1e-13 * scale


@_GRIDS
def test_grid_gradient_matches_np_gradient(grid):
    rng = np.random.default_rng(9)
    for _ in range(3):
        u = rng.standard_normal((grid.n1, grid.nr))
        for d, axis, h in zip(grid_gradient(u, grid), (0, 1),
                              (grid.h1, grid.hr)):
            assert np.array_equal(d, np.gradient(u, h, axis=axis,
                                                 edge_order=2))


def _slice_radial_laplacian(u, g):
    """drr + (3/r) dr on the radial grid of R^4, written with array slices;
    the pinned edge at r_max gets no term."""
    lap, r, h = np.zeros_like(u), g.r[1:-1], g.h
    lap[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2 \
        + (3.0 / r) * (u[2:] - u[:-2]) / (2.0 * h)
    # axis: (3/r) dr -> 3 drr, so 4 drr with the even reflection
    lap[0] = 4.0 * 2.0 * (u[1] - u[0]) / h**2
    return lap


@pytest.mark.parametrize("grid", [GridRadial(24.0, 201), GridRadial(3.0, 5)],
                         ids=["shoot", "small"])
def test_radial_grid_operators_match_slice_formulas(grid):
    """The radial grid's Laplacian, gradient and weights are the slice
    stencil, np.gradient and the trapezoid rule of 2 pi^2 r^3 dr."""
    rng = np.random.default_rng(10)
    op = laplacian_operator(grid)
    assert sorted(op.offsets) == [-1, 0, 1]
    for _ in range(3):
        u = rng.standard_normal(grid.n)
        got, ref = op @ u, _slice_radial_laplacian(u, grid)
        for part in (np.s_[:], np.s_[:1], np.s_[-1:]):
            scale = np.max(np.abs(ref[part]))
            assert np.max(np.abs(got[part] - ref[part])) <= 1e-13 * scale
        (d,) = grid_gradient(u, grid)
        assert np.array_equal(d, np.gradient(u, grid.h, edge_order=2))
    trapezoid = np.full(grid.n, grid.h)
    trapezoid[[0, -1]] *= 0.5
    assert np.allclose(grid_weights(grid),
                       2.0 * math.pi**2 * grid.r**3 * trapezoid,
                       rtol=1e-14, atol=0.0)


def test_radial_stencil_residual_of_W_refines_at_second_order(W):
    """Delta_h W + W^3 on the radial grid, at every point but the pinned
    edge, shrinks at order 2 from h = 0.12 to 0.06 (3.11e-3 to 7.85e-4),
    and so does the axis point alone (1.80e-3 to 4.50e-4).  An axis row of
    3 drr leaves 0.25 there at both h."""
    worst, axis = [], []
    for h in (0.12, 0.06):
        grid = GridRadial(12.0, int(round(12.0 / h)) + 1)
        w = eval_on_grid(W, grid)
        res = np.abs(laplacian_operator(grid) @ w + w**3)[:-1]
        worst.append(res.max())
        axis.append(res[0])
    assert worst[0] < 5e-3
    assert worst[0] / worst[1] > 3.5
    assert axis[0] / axis[1] > 3.5


def test_cylinder_and_radial_runs_agree_at_second_order(ground_eigen):
    """The shoot data at s = 0.006, stepped to t = 2 on the cylinder and on
    the radial grid of the same spacing: along the x1 = 0 row the two
    differ by 3.75e-4 at h = 0.24 and 9.2e-5 at h = 0.12.  A radial axis
    row of 3 drr still refines at order 2 here, but from 5.7e-3, so the
    bound at h = 0.24 is what catches it."""
    cfg = soliton_config("ground", [0.0])
    dirs = exp_direction_family(cfg, [ground_eigen])
    phi = build_initial_data(cfg, 20.0, np.array([[1e-4]]), dirs,
                             QuadratureSpec(nodes=8, r_max=25.0),
                             enforce_ball=False)["phi"]
    gaps = []
    for h in (0.24, 0.12):
        n = int(round(12.0 / h)) + 1
        runs = []
        for grid in (Grid2DCyl(-12.0, 12.0, 2 * n - 1, 12.0, n),
                     GridRadial(12.0, n)):
            u0 = eval_on_grid(cfg.profiles[0], grid) \
                + 60.0 * eval_on_grid(phi.first, grid)
            ev = CylWaveEvolver(grid, u0,
                                -60.0 * eval_on_grid(phi.second, grid),
                                soliton_background(cfg, grid))
            ev.run_until(2.0)
            runs.append(ev)
        cyl, rad = runs
        assert cyl.t == rad.t and cyl.status == rad.status == "done"
        gaps.append(np.max(np.abs(cyl.u[n - 1] - rad.u)))  # x1 = 0
    assert gaps[0] < 1e-3
    assert gaps[0] / gaps[1] > 3.0


def _reference_leapfrog(grid, u0, v0, background, n):
    """n steps of the leapfrog, written with fresh arrays: the formulas
    the evolver's in-place step must reproduce bit for bit."""
    op = laplacian_operator(grid)
    dt = 0.4 * min(grid.h1, grid.hr)

    def rhs(u):
        return (op @ u.ravel()).reshape(u.shape) + u * u * u

    u, t = np.array(u0), 0.0
    force = rhs(u)
    v = v0 + 0.5 * dt * force
    for _ in range(n):
        u_new = u + dt * v
        u_new[0, :], u_new[-1, :], u_new[:, -1] = background(t + dt)
        force = rhs(u_new)
        v += dt * force
        v[0, :] = (u_new[0, :] - u[0, :]) / dt
        v[-1, :] = (u_new[-1, :] - u[-1, :]) / dt
        v[:, -1] = (u_new[:, -1] - u[:, -1]) / dt
        u, t = u_new, t + dt
    return u, v, force


def test_in_place_step_matches_fresh_array_leapfrog(W):
    """50 in-place steps equal the fresh-array leapfrog bit for bit."""
    grid = Grid2DCyl(-8.0, 8.0, 161, 8.0, 81)
    bump = 0.02 * np.exp(-((grid.x1[:, None] - 1.0) ** 2
                           + grid.r[None, :] ** 2))
    bg = soliton_background(soliton_config("ground", [0.0]), grid)
    u0, v0 = eval_on_grid(W, grid) + bump, -bump
    ev = CylWaveEvolver(grid, u0, v0, background=bg)
    for _ in range(50):
        assert ev.step() == "running"
    u, v, force = _reference_leapfrog(grid, u0, v0, bg, 50)
    assert np.array_equal(ev.u, u) and np.array_equal(ev.v_half, v)
    assert np.array_equal(ev.v_sync(), v - 0.5 * ev.dt * force)


_GRID_KINDS = pytest.mark.parametrize("grid", [
    Grid2DCyl(-8.0, 8.0, 161, 8.0, 81), GridRadial(8.0, 81),
], ids=["cylinder", "radial"])


@_GRID_KINDS
def test_time_reversal_second_order(grid):
    u0 = 0.05 * np.exp(-np.sum(grid.points()**2, axis=1)).reshape(grid.shape)
    ev = CylWaveEvolver(grid, u0, np.zeros_like(u0), _zero_edges(grid))
    ev.run_until(1.0)
    # time reflection: the same u and the negated synchronized velocity
    back = CylWaveEvolver(grid, ev.u, -ev.v_sync(), _zero_edges(grid),
                          t0=ev.t)
    back.run_until(ev.t + 1.0)
    # the reflected run retraces the leapfrog exactly, so the return to
    # the initial data is limited by roundoff, well inside the O(dt^2)
    # guarantee of the time-symmetric scheme
    assert float(np.max(np.abs(back.u - u0))) < 1e-12


def test_v_sync_reuses_the_last_force(W):
    grid = Grid2DCyl(-8.0, 8.0, 161, 8.0, 81)
    background = soliton_background(soliton_config("ground", [0.0]), grid)
    ev = CylWaveEvolver(grid, eval_on_grid(W, grid),
                        np.zeros((grid.n1, grid.nr)), background=background)
    for _ in range(7):
        ev.step()
    expected = ev.v_half - 0.5 * ev.dt * ev.rhs(ev.u)
    assert np.array_equal(ev.v_sync(), expected)


def _counted(monkeypatch, owner, attr) -> list:
    """Wrap owner.attr so that each call appends its first argument."""
    calls, inner = [], getattr(owner, attr)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)
    monkeypatch.setattr(owner, attr, wrapper)
    return calls


def _whole_grid_fills(monkeypatch) -> list:
    """Wrap GridBasis._fill so that each sampling appends its (time, first
    row, end row); every sampling must cover the whole grid, so no sampling
    fills only the rows of a move."""
    calls, inner = [], GridBasis._fill

    def wrapper(self, t, rows):
        assert rows.start <= 0 and rows.stop >= self.grid.n1, rows
        calls.append((t, rows.start, rows.stop))
        return inner(self, t, rows)
    monkeypatch.setattr(GridBasis, "_fill", wrapper)
    return calls


@pytest.mark.parametrize("ell", [0.0, 0.4])
def test_background_edges_evaluated_when_the_centers_move(monkeypatch, ell):
    """The pinned edges equal each edge's own evaluation at t, bit for bit,
    though all edges are evaluated in one call, once across a run at rest
    and once per step when the soliton moves."""
    cfg = soliton_config("ground", [ell])
    grid = default_grid_for(ell, 14.0, margin=10.0, h=0.12)  # 401 x 201
    evals = _counted(monkeypatch, cfg, "traveling_profiles")
    background = soliton_background(cfg, grid)
    steps = []

    def pinned(t):
        steps.append(t)
        return background(t)

    ev = CylWaveEvolver(grid, eval_on_grid(cfg.profiles[0], grid),
                        np.zeros((grid.n1, grid.nr)), background=pinned)
    ev.run_until(1.2)
    assert len(steps) >= 25
    assert len(evals) == (1 if ell == 0.0 else len(steps))
    fresh = soliton_config("ground", [ell])
    for t in (0.0, steps[0], steps[-1], 3.7, 14.0):
        Q = fresh.traveling_profiles(t)
        ref = [sum(q.evaluate(grid.points(e)) for q in Q) for e in grid.edges]
        for got, want in zip(background(t), ref, strict=True):
            assert np.array_equal(got, want)


def test_grid_basis_at_rest_samples_once(monkeypatch, ground_eigen):
    """Across the monitors of a run at rest one GridBasis samples its grid
    once, and every state is bit-identical to a fresh GridBasis's."""
    import wave4d.evolver as evolver

    cfg = soliton_config("ground", [0.0])
    grid = Grid2DCyl(-8.0, 8.0, 81, 8.0, 41)
    wp = pair_vector(cfg.profiles[0], 0.0, 1)
    grid_samples = _counted(monkeypatch, evolver, "eval_on_grid")
    fills = _whole_grid_fills(monkeypatch)
    series = evolve(wp, 0.0, 1.0, grid,
                    basis=GridBasis(cfg, grid, [ground_eigen]), cadence=0.25,
                    background=soliton_background(cfg, grid))
    assert len(series.states) == 5
    assert len(grid_samples) == 2  # the initial data
    assert len(fills) == 1

    basis = GridBasis(cfg, grid, [ground_eigen])
    bump = 1e-3 * np.exp(-(grid.x1[:, None] - 1.0) ** 2 - grid.r[None, :] ** 2)
    ev = CylWaveEvolver(grid, eval_on_grid(wp.first, grid) + bump,
                        np.zeros((grid.n1, grid.nr)),
                        background=soliton_background(cfg, grid),
                        cadence=0.25)
    samplings, pairs = [], []

    def monitor(e):
        v = e.v_sync()
        pairs.append((grid_modulation(e.u, v, basis, e.t),
                      grid_modulation(e.u, v, GridBasis(cfg, grid,
                                                        [ground_eigen]), e.t)))
        samplings.append(basis.sample(e.t))

    ev.run_until(1.0, callback=monitor)
    assert len(pairs) == 5
    assert all(s is samplings[0] for s in samplings)
    for got, ref in pairs:
        for key in ("t", "a", "b", "z_plus", "z_minus", "c",
                    "remainder_norm", "gram_cond"):
            assert np.array_equal(getattr(got, key), getattr(ref, key)), key


def _monitor_times(grid, t1, cadence):
    """The monitor times of a run on grid, from run_until's own float
    clock; monitor_times gives them to 1e-12."""
    z = np.zeros((grid.n1, grid.nr))
    times = []
    ev = CylWaveEvolver(grid, z, z, _zero_edges(grid), cadence=cadence)
    ev.run_until(t1, callback=lambda e: times.append(e.t))
    np.testing.assert_allclose(times, monitor_times(0.0, t1, ev.dt, cadence),
                               rtol=0.0, atol=1e-12)
    return times


def _assert_matches_fresh(got, fresh):
    """A served sampling equals a fresh one to 1e-12 relative."""
    for key in ("first", "H", "Z", "G", "cond"):
        ref = np.asarray(fresh[key])
        err = np.max(np.abs(np.asarray(got[key]) - ref))
        assert err <= 1e-12 * np.max(np.abs(ref)), key
    for a, b in zip(got["q"], fresh["q"], strict=True):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def _mode_rate_grid(lam):
    """measure_mode_rates' t_max and grid at ell = 0.5, h = 0.1."""
    t_max = 0.25 * math.ceil(4.2 / (lam * math.sqrt(1.0 - 0.5**2)) / 0.25)
    return t_max, default_grid_for(0.5, t_max, margin=10.0, h=0.1)


def _served_digests(s: dict) -> list:
    """Each array sample() served, checked to be a read-only view, with
    the digest of its values."""
    out = []
    for a in (s["first"], s["H"], s["Z"], *s["q"]):
        assert a.base is not None and not a.flags.writeable
        out.append((a, hashlib.blake2b(np.ascontiguousarray(a)).digest()))
    return out


def _assert_unchanged(served: list):
    for arrays in served:
        for a, digest in arrays:
            assert hashlib.blake2b(np.ascontiguousarray(a)).digest() == digest


def _serve_and_compare(monkeypatch, basis, times):
    """Plan times on basis and serve them in order, comparing each sampling
    with a fresh one; every served array is a read-only view and is
    unchanged after the later times are served.  Returns basis's own
    samplings."""
    ref = GridBasis(basis.cfg, basis.grid, basis.rates_fields)
    fresh = {}
    for t in dict.fromkeys(times):
        ref.plan([])  # a fresh sampling of the grid's rows alone
        fresh[t] = ref.sample(t)
    calls = _whole_grid_fills(monkeypatch)
    basis.plan(times)
    served = []
    for t in times:
        s = basis.sample(t)
        _assert_matches_fresh(s, fresh[t])
        served.append(_served_digests(s))
    _assert_unchanged(served)
    return calls


def test_phase_served_samplings_match_fresh_ones(monkeypatch, ground_eigen):
    """The evolve suite's monitors (ell = 0.4, cadence 0.5) move the
    soliton 2 x1 rows apiece and so share one sub-grid phase, and the
    ell = 0.5 mode-rate times of its three runs (1.25 rows apiece) fall on
    four; every other sampling is a row window of one of those, and each
    equals a fresh sampling."""
    cfg = soliton_config("ground", [0.4])
    grid = default_grid_for(0.4, 5.0, margin=10.0, h=0.1)
    times = _monitor_times(grid, 5.0, 0.5)
    assert len(times) == 11
    calls = _serve_and_compare(monkeypatch, GridBasis(cfg, grid,
                                                      [ground_eigen]), times)
    # one sampling: the grid plus the 20 rows the soliton crosses behind it
    assert calls == [(0.0, -20, grid.n1)]

    t_max, grid = _mode_rate_grid(ground_eigen[0])
    cfg = soliton_config("ground", [0.5])
    times = _monitor_times(grid, t_max, 0.25)
    calls = _serve_and_compare(monkeypatch, GridBasis(cfg, grid,
                                                      [ground_eigen]),
                               3 * times)
    assert len(calls) == 4


def test_sampled_soliton_sum_is_the_pair_sum_on_the_grid(monkeypatch,
                                                         ground_eigen):
    """At the evolve suite's monitors (ell = 0.4) the sampled soliton sum q
    is one sampling at t = 0 of pair_sum(_soliton_pairs(cfg, 0)), taken on
    the grid's x1 rows and the 20 rows below them: at t = 0 it is
    eval_on_grid bit for bit, and monitor k is served the window of rows
    2 k below the grid's, bit for bit, a view of the same memory.
    Everywhere it is the evaluation at t to 1e-12."""
    cfg = soliton_config("ground", [0.4])
    grid = default_grid_for(0.4, 5.0, margin=10.0, h=0.1)
    basis = GridBasis(cfg, grid, [ground_eigen])
    times = _monitor_times(grid, 5.0, 0.5)
    fills = _whole_grid_fills(monkeypatch)
    basis.plan(times)
    q0 = pair_sum(_soliton_pairs(cfg, 0.0))
    x1 = np.concatenate([grid.x1[0] + grid.h1 * np.arange(-20, 0), grid.x1])
    X = cylinder_points(x1, grid.r)
    rows = np.stack([q0.first.evaluate(X), q0.second.evaluate(X)]).reshape(
        2, len(x1), grid.nr)
    first = None
    for k, t in enumerate(times):
        q = pair_sum(_soliton_pairs(cfg, t))
        at_t = np.stack([eval_on_grid(q.first, grid),
                         eval_on_grid(q.second, grid)])
        served = basis.sample(t)["q"]
        got = np.stack(served)
        assert np.array_equal(got, rows[:, 20 - 2 * k:20 - 2 * k + grid.n1])
        if k == 0:
            first = served
            assert np.array_equal(got, at_t)
        assert all(np.shares_memory(a, b) for a, b in zip(served, first))
        assert np.max(np.abs(got - at_t)) <= 1e-12 * np.max(np.abs(at_t))
    assert len(fills) == 1  # 1 fresh sampling, 10 windows of it


def test_unrepeated_phases_sample_afresh(monkeypatch, ground_eigen):
    """A speed whose monitors never repeat a phase, and two solitons of
    different speeds, sample afresh at every time and still match."""
    grid = default_grid_for(0.37, 3.0, margin=10.0, h=0.1)
    times = _monitor_times(grid, 3.0, 0.5)
    calls = _serve_and_compare(
        monkeypatch, GridBasis(soliton_config("ground", [0.37]), grid,
                               [ground_eigen]), times)
    assert len(calls) == len(times)

    # at ell = 0.25 both centers move by whole rows, but in opposite ways
    two = soliton_config("ground", (-0.25, 0.25))
    times = [0.0, 0.4, 0.8, 0.8, 1.2]
    calls = _serve_and_compare(monkeypatch,
                               GridBasis(two, grid, [ground_eigen]), times)
    assert len(calls) == len(set(times))


def test_mode_rate_seeds_keep_the_initial_soliton(monkeypatch, ground_eigen):
    """Each run of measure_mode_rates starts from the t = 0 soliton plus a
    multiple of one direction, served uncopied from the kept samplings that
    the earlier runs' monitors also read."""
    import wave4d.evolver as evolver

    seeds = []

    class Recording(CylWaveEvolver):
        def __init__(self, grid, u0, v0, **kwargs):
            seeds.append((np.array(u0), np.array(v0)))
            super().__init__(grid, u0, v0, **kwargs)

    monkeypatch.setattr(evolver, "CylWaveEvolver", Recording)
    lam, Y = ground_eigen
    measure_mode_rates(0.5, lam, Y, h=0.1)
    assert len(seeds) >= 3

    _, grid = _mode_rate_grid(lam)
    basis = GridBasis(soliton_config("ground", [0.5]), grid, [ground_eigen])
    q = basis.sample(0.0)["q"]
    dirs = basis.directions[0][0]
    for u0, v0 in seeds:
        # the part along the seeded direction removed, nothing is left
        best = math.inf
        for d in (dirs["+"].pair, dirs["-"].pair):
            du = eval_on_grid(d.first, grid)
            eps = float(np.vdot(u0 - q[0], du) / np.vdot(du, du))
            best = min(best, max(
                np.max(np.abs(u0 - q[0] - eps * du)),
                np.max(np.abs(v0 - q[1] - eps * eval_on_grid(d.second,
                                                             grid)))))
        assert best <= 1e-12 * np.max(np.abs(q[0]))


@pytest.mark.parametrize("grid, cadence", [
    (default_grid_for(0.4, 5.0, margin=10.0, h=0.1), 0.5),
    (default_grid_for(0.5, 6.5, margin=10.0, h=0.1), 0.25),
    (Grid2DCyl(-8.0, 8.0, 81, 8.0, 41), 0.25),
    (GridRadial(24.0, 201), 0.5),
    # 2.1 / 0.06 rounds to 35.0, but 2.1 / 35 exceeds 0.06 by an ulp
    (GridRadial(1.5, 11), 2.1)],
    ids=["evolve", "mode_rates", "coarse", "shoot", "rounding"])
def test_time_step_divides_the_cadence_within_the_cfl_step(grid, cadence):
    """Without a cadence the step is CFL h_min exactly; with one, it is the
    largest step at or below CFL h_min that divides the cadence, and the
    evolver steps at it."""
    cfl = CFL * min(h for _, h, _ in grid.axes)
    assert time_step(grid) == cfl
    dt = time_step(grid, cadence)
    n = round(cadence / dt)
    assert dt <= cfl
    assert abs(n * dt - cadence) <= 1e-12 * cadence
    assert n == 1 or cadence / (n - 1) > cfl
    z = np.zeros(grid.shape)
    assert CylWaveEvolver(grid, z, z, _zero_edges(grid)).dt == cfl
    assert CylWaveEvolver(grid, z, z, _zero_edges(grid),
                          cadence=cadence).dt == dt


def test_a_monitored_run_needs_a_cadence():
    grid = GridRadial(8.0, 81)
    z = np.zeros(grid.shape)
    with pytest.raises(ValueError, match="cadence"):
        CylWaveEvolver(grid, z, z, _zero_edges(grid)).run_until(
            1.0, callback=lambda e: None)


def test_evolve_suite_monitors_on_the_cadence_from_one_sampling(
        monkeypatch, ground_eigen):
    """The evolve suite's run (ell = 0.4, h = 0.1, to t = 5 at cadence 0.5)
    steps 130 times at dt = 0.5 / 13 and monitors at k cadence to 1e-12, so
    modulation_residuals takes its states (at CFL h = 0.04 they fell at 0,
    0.52, 1.0, 1.52, ... and it raised).  The clock is t0 + n dt, so the
    times are monitor_times' bit for bit (a clock summing dt read
    4.999999999999991 at the last one).  Its basis samples once, on the
    grid's rows and the 20 it crosses, and serves every monitor a read-only
    view that later monitors leave as it was."""
    ell = 0.4
    cfg = soliton_config("ground", [ell])
    grid = default_grid_for(ell, 5.0, margin=10.0, h=0.1)
    fills = _whole_grid_fills(monkeypatch)
    steps = _counted(monkeypatch, CylWaveEvolver, "step")
    served, inner = [], GridBasis.sample

    def sample(self, t):
        s = inner(self, t)
        served.append(_served_digests(s))
        return s
    monkeypatch.setattr(GridBasis, "sample", sample)
    series = evolve(pair_vector(cfg.profiles[0], ell, 1), 0.0, 5.0, grid,
                    basis=GridBasis(cfg, grid, [ground_eigen]), cadence=0.5,
                    background=soliton_background(cfg, grid))
    assert series.status == "done" and len(steps) == 130
    np.testing.assert_allclose(series.times, 0.5 * np.arange(11), rtol=0.0,
                               atol=1e-12)
    assert series.times == monitor_times(0.0, 5.0, time_step(grid, 0.5), 0.5)
    assert len(modulation_residuals(series.states)["times"]) == 9
    assert fills == [(0.0, -20, grid.n1)]
    assert len(served) == 2 * 11  # the monitor's and the decomposition's
    _assert_unchanged(served)


def test_linear_regime_energy_drift():
    """Tiny-amplitude drift is monitor discretization, shrinking at order 2."""
    drifts = []
    for h in (0.1, 0.05):
        grid = Grid2DCyl(-10.0, 10.0, int(20 / h) + 1, 10.0, int(10 / h) + 1)
        x1 = grid.x1[:, None]
        r = grid.r[None, :]
        u0 = 1e-4 * np.exp(-(x1**2 + r**2))
        ev = CylWaveEvolver(grid, u0, np.zeros_like(u0), _zero_edges(grid))
        E0, _ = grid_energy_momentum(ev.u, ev.v_sync(), grid)
        ev.run_until(5.0)
        E1, _ = grid_energy_momentum(ev.u, ev.v_sync(), grid)
        drifts.append(abs(E1 - E0) / abs(E0))
    assert drifts[0] <= 1e-2
    assert drifts[1] <= drifts[0] / 3.0


def test_stationary_persistence_and_order(W):
    devs = {}
    for h in (0.1, 0.05):
        grid = Grid2DCyl(-14.0, 14.0, int(28 / h) + 1, 14.0, int(14 / h) + 1)
        cfg = soliton_config("ground", [0.0])
        wp = pair_vector(W, 0.0, 1)
        ev = CylWaveEvolver(grid, eval_on_grid(wp.first, grid),
                            eval_on_grid(wp.second, grid),
                            background=soliton_background(cfg, grid))
        ev.run_until(4.0)
        warr = eval_on_grid(W, grid)
        devs[h] = math.sqrt(grid_h_norm_sq(ev.u - warr, ev.v_sync(), grid))
    # the profile is linearly unstable, so the h^2 seed grows at the known
    # rate; at a fixed window the deviation stays at the discretization
    # scale and refines at order 2
    assert devs[0.1] < 0.1
    assert math.log2(devs[0.1] / devs[0.05]) >= 1.8


def test_boosted_speed_and_conservation(W, ground_eigen):
    ell = 0.4
    cfg = soliton_config("ground", [ell])
    grid = Grid2DCyl(-14.0, 18.0, 641, 14.0, 281)  # h = 0.05
    basis = GridBasis(cfg, grid, [ground_eigen])
    series = evolve(pair_vector(W, ell, 1), 0.0, 6.0, grid, basis=basis,
                    cadence=0.25, background=soliton_background(cfg, grid))
    speed = float(np.polyfit(series.times, series.centers, 1)[0])
    assert abs(speed - ell) / ell < 0.01
    assert series.drift("energy") * 10.0 / 6.0 <= 1e-3
    assert series.drift("momentum") * 10.0 / 6.0 <= 1e-3
    assert series.status == "done"


def test_evolve_speed_error_is_second_order(ground_eigen):
    """The evolve suite's run (ell = 0.4 to t = 5, cadence 0.5) misses the
    speed by 2.25e-2 relative at h = 0.2 (dt = 0.5 / 7) and by 6.13e-3 at
    h = 0.1 (dt = 0.5 / 13)."""
    ell = 0.4
    cfg = soliton_config("ground", [ell])
    errors = []
    for h in (0.2, 0.1):
        grid = default_grid_for(ell, 5.0, margin=10.0, h=h)
        series = evolve(pair_vector(cfg.profiles[0], ell, 1), 0.0, 5.0, grid,
                        basis=GridBasis(cfg, grid, [ground_eigen]),
                        cadence=0.5, background=soliton_background(cfg, grid))
        assert series.status == "done"
        speed = float(np.polyfit(series.times, series.centers, 1)[0])
        errors.append(abs(speed - ell) / ell)
    assert errors[0] / errors[1] > 3.0


def test_grid_modulation_matches_quadrature_decomposition(W, ground_eigen):
    """The in-loop grid decomposition agrees with the quadrature one."""
    from wave4d.fields import FieldPair, sum_field
    from wave4d.modulation import decompose, exp_direction_family
    from wave4d.quadrature import QuadratureSpec

    cfg = soliton_config("ground", [0.0])
    t = 10.0
    psi = traveling_pair(cfg.slow[0], 0.0, t, 1)
    base = traveling_pair(W, 0.0, t, 1)
    u = FieldPair(sum_field([base.first, psi.first], [1.0, 0.01]),
                  sum_field([base.second, psi.second], [1.0, 0.01]))
    grid = Grid2DCyl(-20.0, 20.0, 401, 20.0, 201)
    basis = GridBasis(cfg, grid, [ground_eigen])
    st_grid = grid_modulation(eval_on_grid(u.first, grid),
                              eval_on_grid(u.second, grid), basis, t)
    dirs = exp_direction_family(cfg, [ground_eigen])
    st_quad = decompose(u, cfg, t,
                        QuadratureSpec(nodes=10, r_max=20.0),
                        directions=dirs)
    assert st_grid.a[0] == pytest.approx(st_quad.a[0], rel=1e-3)
    assert st_grid.a[0] == pytest.approx(0.01, rel=1e-2)


def test_mode_rates_match_spectrum(ground_eigen):
    lam, Y = ground_eigen
    for ell in (0.0, 0.5):
        out = measure_mode_rates(ell, lam, Y, h=0.1)
        alpha = out["alpha"]
        assert abs(out["growing"]["rate"] - alpha) / alpha < 0.05
        assert abs(out["decaying"]["rate"] + alpha) / alpha < 0.05


def test_bootstrap_margins_tables():
    def state(t, a, phi, zp, zm):
        return ModulationState(t=t, a=np.array([a]), b=np.zeros((1, 1)),
                               remainder=None,
                               z_plus=np.array([[zp]]),
                               z_minus=np.array([[zm]]),
                               c=np.zeros(1), remainder_norm=phi,
                               gram_cond=1.0)

    from wave4d.evolver import MonitorSeries

    # the exact ansatz at t0 has zero parameters: all margins positive
    s = MonitorSeries()
    s.times = [10.0]
    s.states = [state(10.0, 0.0, 0.0, 0.0, 0.0)]
    out = bootstrap_margins(s, c0=2.0)
    assert out["all_hold"]

    # a synthetic remainder twice the allowed size is flagged everywhere
    c0 = 3.0
    s2 = MonitorSeries()
    s2.times = [10.0, 12.0]
    s2.states = [state(t, 0.0, 2 * c0 * t**-3, 0.0, 0.0)
                 for t in s2.times]
    out2 = bootstrap_margins(s2, c0=c0)
    assert out2["first_violation"] == 10.0
    assert all(r["phi"] < 0 for r in out2["rows"])


def test_bootstrap_margins_start_after_t_one():
    """A series monitored from t = 0 gets finite margins at every t > 1
    and no row where log t <= 0 leaves them undefined."""
    from wave4d.evolver import MonitorSeries

    s = MonitorSeries()
    s.times = [0.0, 0.5, 1.0, 1.5, 2.0, 3.0]
    s.states = [ModulationState(t=t, a=np.zeros(1), b=np.zeros((1, 1)),
                                remainder=None, z_plus=np.zeros((1, 1)),
                                z_minus=np.zeros((1, 1)), c=np.zeros(1),
                                remainder_norm=0.0, gram_cond=1.0)
                for t in s.times]
    out = bootstrap_margins(s, c0=40.0)
    assert [r["t"] for r in out["rows"]] == [1.5, 2.0, 3.0]
    for row in out["rows"]:
        assert all(math.isfinite(row[k])
                   for k in ("a", "b", "phi", "z_minus", "z_plus"))
    assert out["all_hold"]


def test_bootstrap_margins_on_evolved_run(W, ground_eigen):
    ell = 0.0
    cfg = soliton_config("ground", [ell])
    grid = Grid2DCyl(-16.0, 16.0, 641, 16.0, 321)  # h = 0.05
    basis = GridBasis(cfg, grid, [ground_eigen])
    u0 = traveling_pair(W, ell, 10.0, 1)
    # the t^-6 outgoing-pairing budget shrinks while the grid-seeded
    # unstable component grows at the linear rate, so the margins can only
    # hold over a short window at desk resolution
    series = evolve(u0, 10.0, 10.5, grid, basis=basis, cadence=0.25,
                    background=soliton_background(cfg, grid))
    out = bootstrap_margins(series, c0=40.0)
    assert out["all_hold"], out


def test_soliton_center_subgrid(W):
    grid = Grid2DCyl(-10.0, 10.0, 201, 10.0, 101)
    f = traveling_pair(W, 0.0, 0.0, 1).first
    from wave4d.states import translate

    arr = eval_on_grid(translate(f, [-3.271, 0.0, 0.0, 0.0]), grid)
    assert soliton_center(arr, grid) == pytest.approx(3.271, abs=5e-3)


def test_shooting_experiment_structure(ground_eigen):
    rep = shooting_experiment(T=18.0, t_end=6.0, bracket=(-6e-3, 6e-3),
                              h=0.12, n_sweep=5, n_bisect=8,
                              lam_Y=ground_eigen)
    taus = [r["exit_tau"] for r in rep["sweep"]]
    # unimodal in practice: the interior maximum beats both ends
    assert max(taus[1:-1]) > max(taus[0], taus[-1])
    assert rep["gain"] >= 2.0
    # both bracket ends exit with the outgoing component grown past the
    # rescaled threshold
    assert rep["edge_exit"][0] < rep["T"] - rep["t_end"]
    assert rep["edge_exit"][1] < rep["T"] - rep["t_end"]
    signs = {r["exit_sign"] for r in (rep["sweep"][0], rep["sweep"][-1])}
    assert signs == {-1.0, 1.0}
