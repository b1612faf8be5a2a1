import math

import numpy as np
import pytest

from wave4d.boosts import pair_vector, traveling_pair
from wave4d.evolver import (CylWaveEvolver, GridBasis, bootstrap_margins,
                            default_grid_for, eval_on_grid, evolve,
                            grid_energy_momentum, grid_h_norm_sq,
                            grid_modulation, laplacian_operator,
                            measure_mode_rates, shooting_experiment,
                            single_soliton_config, soliton_background,
                            soliton_center)
from wave4d.fields import Grid2DCyl
from wave4d.modulation import ModulationState


def test_cfl_guard(W):
    grid = Grid2DCyl(-4.0, 4.0, 41, 4.0, 41)
    z = np.zeros((41, 41))
    with pytest.raises(ValueError):
        CylWaveEvolver(grid, z, z, cfl=0.6)


def test_blowup_guard():
    grid = Grid2DCyl(-4.0, 4.0, 41, 4.0, 41)
    u0 = 50.0 * np.exp(-(np.linspace(-4, 4, 41)[:, None] ** 2
                         + np.linspace(0, 4, 41)[None, :] ** 2))
    ev = CylWaveEvolver(grid, u0, np.zeros_like(u0))
    status = ev.run_until(2.0)
    assert status == "blowup"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_blowup_guard_catches_nonfinite_cells(bad):
    grid = Grid2DCyl(-4.0, 4.0, 41, 4.0, 41)
    u0 = 0.01 * np.exp(-(grid.x1[:, None] ** 2 + grid.r[None, :] ** 2))
    ev = CylWaveEvolver(grid, u0, np.zeros_like(u0))
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


@pytest.mark.parametrize("grid", [
    default_grid_for(0.0, 14.0, margin=10.0, h=0.12),  # shoot
    default_grid_for(0.4, 5.0, margin=10.0, h=0.1),  # evolve
    Grid2DCyl(-3.0, 2.0, 9, 4.0, 6),
], ids=["shoot", "evolve", "small"])
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


def test_time_reversal_second_order(W):
    grid = Grid2DCyl(-8.0, 8.0, 161, 8.0, 81)
    x1 = grid.x1[:, None]
    r = grid.r[None, :]
    u0 = 0.05 * np.exp(-(x1**2 + r**2))
    v0 = np.zeros_like(u0)
    ev = CylWaveEvolver(grid, u0, v0, cfl=0.4)
    ev.run_until(1.0)
    back = ev.reflected()
    back.run_until(ev.t + 1.0)
    # the reflected copy retraces the leapfrog exactly, so the return to
    # the initial data is limited by roundoff, well inside the O(dt^2)
    # guarantee of the time-symmetric scheme
    assert float(np.max(np.abs(back.u - u0))) < 1e-12


def test_v_sync_reuses_the_last_force(W):
    grid = Grid2DCyl(-8.0, 8.0, 161, 8.0, 81)
    background = soliton_background(single_soliton_config(0.0), grid)
    ev = CylWaveEvolver(grid, eval_on_grid(W, grid),
                        np.zeros((grid.n1, grid.nr)), background=background)
    for _ in range(7):
        ev.step()
    expected = ev.v_half - 0.5 * ev.dt * ev.rhs(ev.u)
    assert np.array_equal(ev.v_sync(), expected)
    assert np.array_equal(ev.state().v, expected)


def _counted(monkeypatch, owner, attr) -> list:
    """Wrap owner.attr so that each call appends its first argument."""
    calls, inner = [], getattr(owner, attr)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return inner(*args, **kwargs)
    monkeypatch.setattr(owner, attr, wrapper)
    return calls


@pytest.mark.parametrize("ell", [0.0, 0.4])
def test_background_edges_evaluated_when_the_centers_move(monkeypatch, ell):
    """The pinned edges are a fresh per-t evaluation's values, bit for bit,
    and are evaluated once across a run at rest and once per step when the
    soliton moves."""
    cfg = single_soliton_config(ell)
    grid = default_grid_for(ell, 14.0, margin=10.0, h=0.12)  # the shoot grid
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
    for t in (0.0, steps[0], steps[-1], 3.7, 14.0):
        fresh = soliton_background(single_soliton_config(ell), grid)(t)
        for got, ref in zip(background(t), fresh, strict=True):
            assert np.array_equal(got, ref)


def test_grid_basis_at_rest_samples_once(monkeypatch, ground_eigen):
    """Across the monitors of a run at rest one GridBasis samples its grid
    once, and every state is bit-identical to a fresh GridBasis's."""
    import wave4d.evolver as evolver

    cfg = single_soliton_config(0.0)
    grid = Grid2DCyl(-8.0, 8.0, 81, 8.0, 41)
    wp = pair_vector(cfg.profiles[0], 0.0, 1)
    grid_samples = _counted(monkeypatch, evolver, "eval_on_grid")
    series = evolve(wp, 0.0, 1.0, grid,
                    basis=GridBasis(cfg, grid, [ground_eigen]), cadence=0.25,
                    background=soliton_background(cfg, grid))
    assert len(series.states) == 5
    assert len(grid_samples) == 4  # the initial data, then q1 and q2 once

    basis = GridBasis(cfg, grid, [ground_eigen])
    bump = 1e-3 * np.exp(-(grid.x1[:, None] - 1.0) ** 2 - grid.r[None, :] ** 2)
    ev = CylWaveEvolver(grid, eval_on_grid(wp.first, grid) + bump,
                        np.zeros((grid.n1, grid.nr)),
                        background=soliton_background(cfg, grid))
    samplings, pairs = [], []

    def monitor(e):
        v = e.v_sync()
        pairs.append((grid_modulation(e.u, v, basis, e.t),
                      grid_modulation(e.u, v, GridBasis(cfg, grid,
                                                        [ground_eigen]), e.t)))
        samplings.append(basis.sample(e.t))

    ev.run_until(1.0, callback=monitor, cadence=0.25)
    assert len(pairs) == 5
    assert all(s is samplings[0] for s in samplings)
    for got, ref in pairs:
        for key in ("t", "a", "b", "z_plus", "z_minus", "c",
                    "remainder_norm", "gram_cond"):
            assert np.array_equal(getattr(got, key), getattr(ref, key)), key


def _monitor_times(grid, t1, cadence):
    """The monitor times of a run on grid, from run_until's own float
    clock."""
    z = np.zeros((grid.n1, grid.nr))
    times = []
    CylWaveEvolver(grid, z, z).run_until(
        t1, callback=lambda e: times.append(e.t), cadence=cadence)
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
    t_max = 4.2 / (lam * math.sqrt(1.0 - 0.5**2))
    return t_max, default_grid_for(0.5, t_max, margin=10.0, h=0.1)


def _serve_and_compare(monkeypatch, basis, times):
    """Serve times in order from basis, comparing each sampling with a
    fresh one; returns the eval_on_grid calls of basis's own samplings."""
    import wave4d.evolver as evolver

    ref = GridBasis(basis.cfg, basis.grid, basis.rates_fields)
    fresh = {}
    for t in dict.fromkeys(times):
        ref.drop_samplings()  # a dropped sampling is never moved
        fresh[t] = ref.sample(t)
    calls = _counted(monkeypatch, evolver, "eval_on_grid")
    for t in times:
        _assert_matches_fresh(basis.sample(t), fresh[t])
    return calls


def test_phase_served_samplings_match_fresh_ones(monkeypatch, ground_eigen):
    """The evolve suite's monitors (ell = 0.4, cadence 0.5) fall on two
    sub-grid phases and the ell = 0.5 mode-rate times of its three runs on
    four; every other sampling is a row shift of one of those, and each
    equals a fresh sampling."""
    cfg = single_soliton_config(0.4)
    grid = default_grid_for(0.4, 5.0, margin=10.0, h=0.1)
    times = _monitor_times(grid, 5.0, 0.5)
    assert len(times) == 11
    calls = _serve_and_compare(monkeypatch, GridBasis(cfg, grid,
                                                      [ground_eigen]), times)
    assert len(calls) == 2 * 2  # q1 and q2 per phase

    t_max, grid = _mode_rate_grid(ground_eigen[0])
    cfg = single_soliton_config(0.5)
    times = _monitor_times(grid, t_max, 0.25)
    calls = _serve_and_compare(monkeypatch, GridBasis(cfg, grid,
                                                      [ground_eigen]),
                               3 * times)
    assert len(calls) == 4 * 2


def test_unrepeated_phases_sample_afresh(monkeypatch, W, ground_eigen):
    """A speed whose monitors never repeat a phase, and two solitons of
    different speeds, sample afresh at every time and still match."""
    grid = default_grid_for(0.37, 3.0, margin=10.0, h=0.1)
    times = _monitor_times(grid, 3.0, 0.5)
    calls = _serve_and_compare(
        monkeypatch, GridBasis(single_soliton_config(0.37), grid,
                               [ground_eigen]), times)
    assert len(calls) == 2 * len(times)

    from wave4d.interactions import MultiSolitonConfig
    from wave4d.states import symmetry_generator

    # at ell = 0.25 both centers move by whole rows, but in opposite ways
    two = MultiSolitonConfig(
        profiles=[W, W], speeds=[-0.25, 0.25], signs=[1, 1],
        a=np.zeros(2), b=np.zeros((2, 1)),
        slow=[symmetry_generator(W, "scaling")] * 2,
        kernels=[[symmetry_generator(W, "translation_1")]] * 2)
    times = [0.0, 0.4, 0.8, 0.8, 1.2]
    calls = _serve_and_compare(monkeypatch,
                               GridBasis(two, grid, [ground_eigen]), times)
    assert len(calls) == 4 * len(set(times))


def test_mode_rate_seeds_keep_the_initial_soliton(monkeypatch, ground_eigen):
    """Each run of measure_mode_rates starts from the t = 0 soliton plus a
    multiple of one direction, although later monitors move the served
    samplings in place."""
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
    basis = GridBasis(single_soliton_config(0.5), grid, [ground_eigen])
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


def test_linear_regime_energy_drift():
    """Tiny-amplitude drift is monitor discretization, shrinking at order 2."""
    drifts = []
    for h in (0.1, 0.05):
        grid = Grid2DCyl(-10.0, 10.0, int(20 / h) + 1, 10.0, int(10 / h) + 1)
        x1 = grid.x1[:, None]
        r = grid.r[None, :]
        u0 = 1e-4 * np.exp(-(x1**2 + r**2))
        ev = CylWaveEvolver(grid, u0, np.zeros_like(u0))
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
        cfg = single_soliton_config(0.0)
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
    cfg = single_soliton_config(ell)
    grid = Grid2DCyl(-14.0, 18.0, 641, 14.0, 281)  # h = 0.05
    basis = GridBasis(cfg, grid, [ground_eigen])
    series = evolve(pair_vector(W, ell, 1), 0.0, 6.0, grid, basis=basis,
                    cadence=0.25, background=soliton_background(cfg, grid))
    speed = float(np.polyfit(series.times, series.centers, 1)[0])
    assert abs(speed - ell) / ell < 0.01
    assert series.drift("energy") * 10.0 / 6.0 <= 1e-3
    assert series.drift("momentum") * 10.0 / 6.0 <= 1e-3
    assert series.status == "done"


def test_grid_modulation_matches_quadrature_decomposition(W, ground_eigen):
    """The in-loop grid decomposition agrees with the quadrature one."""
    from wave4d.fields import FieldPair, sum_field
    from wave4d.modulation import decompose, exp_direction_family
    from wave4d.quadrature import QuadratureSpec

    cfg = single_soliton_config(0.0)
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
                        QuadratureSpec(scheme="fixed", nodes=10, r_max=20.0),
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
    cfg = single_soliton_config(ell)
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
    from wave4d.modulation import shift_field

    arr = eval_on_grid(shift_field(f, 3.271), grid)
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
