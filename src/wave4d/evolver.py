"""Leapfrog evolution of the focusing cubic wave equation on a grid of
fields: the cylindrical reduction u(t, x1, rbar), rbar = |(x2,x3,x4)|
(Grid2DCyl), for moving solitons, or the radial grid u(t, r), r = |x|
(GridRadial), for the radial data of a soliton at rest.  The grids and
their operators live in fields.

A force evaluation is one product with the grid's cached sparse Laplacian
(fields.laplacian_operator) plus the cube, formed as u*u*u.  Time stepping
is kick-drift leapfrog with the cubic term frozen at integer steps (second
order).  The time step is dt = CFL times the smallest spacing; a run that
monitors at a cadence steps at dt = cadence / ceil(cadence / (CFL h_min)),
the largest step at or below that which divides the cadence, so monitor k
falls at t0 + k cadence (time_step, monitor_times).  The grid's edges (both
x1 ends and rbar = R; r = R) are pinned to a background callable's values,
the soliton sum for every run here, and domains are sized so that
radiation does not reach them during the monitored window.  A field
magnitude above the blow-up guard terminates the run with a status instead
of propagating NaNs.

Monitors evaluate conserved quantities, the energy-space distance to the
soliton sum, grid-based modulation parameters, exponential-direction
pairings and the bootstrap-inequality margins on cylinder snapshots.  The
shooting experiment integrates backward in time (exact time reflection),
on the radial grid, and bisects on the outgoing amplitude that maximizes
the time spent inside the deviation tube.  The single soliton of the evolve
suite, the mode rates and the shooting experiment is the ground row of
interactions.PROFILES (soliton_config).  The pinned edges are evaluated in
one call per step, on all the edges' points joined; a configuration at rest
is evaluated once, when its background is built.  GridBasis samples the
soliton sum as one more column of the decomposition basis's one sampling.
Both only translate in a speed-ell configuration, so a run hands GridBasis its
monitor times and GridBasis samples each sub-grid phase ell t / h1 mod 1
among them once, over the x1 rows those times read (the grid plus the rows
beyond it that the solitons cross).  Each time is served the window of
rows at its offset: a view of that sampling, never moved or rewritten.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import (FieldPair, Grid2DCyl, GridRadial, ScalarField,
                     cylinder_points, eval_on_grid, grid_gradient,
                     grid_h_norm_sq, grid_weights, laplacian_operator,
                     pair_sampler, pair_sum)
from .interactions import MultiSolitonConfig, soliton_config
from .modulation import ModulationState, _soliton_pairs, _split_z, \
    _z_columns, basis_pairs, build_initial_data, exp_direction_family
from .quadrature import QuadratureSpec
from .spectrum import ground_eigenpair

BLOWUP_FACTOR = 1e3
# dt / min(h1, hr); the stencil is stable up to 0.5
CFL = 0.4
# soliton_center fits its parabola over 2 * CENTER_HALF_WIDTH + 1 axis points
CENTER_HALF_WIDTH = 6
# a GridBasis keeps the samplings of this many sub-grid phases; two times
# share a phase when the centers move by whole x1 rows to within PHASE_TOL
KEPT_PHASES = 4
PHASE_TOL = 1e-9
# GridBasis samples its rows in blocks of about this many points
_BLOCK_POINTS = 4096
# measure_mode_rates fits the growing mode on amplitudes below this cap
MODE_AMPLITUDE_CAP = 0.02


# no wave4d caller; benchmark/tracing.py wraps it by name
def grad_on_grid(f: ScalarField, grid):
    """Per grid axis, the array of an exact-gradient field's derivative."""
    g = f.gradient(grid.points())
    return tuple(g[:, k].reshape(grid.shape) for k in range(len(grid.shape)))


class CylWaveEvolver:
    """Leapfrog integrator for d_tt u = Delta u + u^3 on either grid kind,
    with time step time_step(grid, cadence): run_until calls its callback
    every cadence.

    background is a callable t -> the field values on grid.edges, in order;
    each step pins the edges to them (right for soliton backgrounds, whose
    static tails an outgoing condition would wrongly radiate away).  A free
    wave takes zero edges.

    The step drifts into a buffer that it then swaps with u, so the array
    ev.u is written again two steps later: a caller that keeps it copies it.
    """

    def __init__(self, grid, u0: np.ndarray, v0: np.ndarray,
                 background, t0: float = 0.0, cadence: float | None = None):
        self.grid = grid
        self.laplacian_op = laplacian_operator(grid)
        self.dt = time_step(grid, cadence)
        self.cadence = cadence
        # the clock is t0 + n dt, so step n falls where monitor_times puts it
        self.t0, self.n, self.t = float(t0), 0, float(t0)
        self.u = np.array(u0, dtype=float)
        self._u_new, self._scratch = np.empty((2, *self.u.shape))
        self.force = self.rhs(self.u)  # rhs(u), kept from the last kick
        self.v_half = np.array(v0, dtype=float) + 0.5 * self.dt * self.force
        self.background = background
        self.status = "running"

    def rhs(self, u: np.ndarray) -> np.ndarray:
        cube = np.multiply(u, u, out=self._scratch)
        cube *= u
        f = (self.laplacian_op @ u.ravel()).reshape(u.shape)
        return np.add(f, cube, out=f)

    def step(self) -> str:
        """Drift u with the half-step velocity, then kick the velocity with
        the force at the new position (v_half always leads u by dt/2)."""
        u, dt = self.u, self.dt
        t = self.t0 + (self.n + 1) * dt
        u_new = np.multiply(self.v_half, dt, out=self._u_new)
        u_new += u
        for e, value in zip(self.grid.edges, self.background(t)):
            u_new[e] = value
        self.force = self.rhs(u_new)
        self.v_half += np.multiply(self.force, dt, out=self._scratch)
        for e in self.grid.edges:
            self.v_half[e] = (u_new[e] - u[e]) / dt
        self.u, self._u_new = u_new, u
        self.n, self.t = self.n + 1, t
        # a NaN propagates through max and min and fails both tests
        if not -BLOWUP_FACTOR <= u_new.min() <= u_new.max() <= BLOWUP_FACTOR:
            self.status = "blowup"
        return self.status

    def v_sync(self) -> np.ndarray:
        return self.v_half - 0.5 * self.dt * self.force

    def run_until(self, t_end: float, callback=None) -> str:
        """Step to the first step time at or past t_end, calling
        callback(self) at monitor_times(self.t, t_end, self.dt,
        self.cadence): now, every cadence, and at the end."""
        if callback and self.cadence is None:
            raise ValueError("a monitored run needs the evolver's cadence")
        if self.status == "done":
            self.status = "running"  # resuming a completed run is fine
        n, every = _schedule(self.t, t_end, self.dt, self.cadence)
        for j in range(n):
            if callback and j % every == 0:
                callback(self)
            if self.step() != "running":
                return self.status
        if callback:
            callback(self)
        self.status = "done"
        return self.status


def time_step(grid, cadence: float | None = None) -> float:
    """CFL times the smallest grid spacing; with a cadence, the largest step
    at or below that which divides the cadence."""
    dt = CFL * min(h for _, h, _ in grid.axes)
    if cadence is None:
        return dt
    n = math.ceil(cadence / dt)
    # cadence / dt can round down onto a whole n whose step exceeds dt
    return cadence / (n if cadence / n <= dt else n + 1)


def _schedule(t0: float, t_end: float, dt: float, cadence) -> tuple:
    """(the steps from t0 to the first step time at or past t_end, the
    steps per cadence or None)."""
    n = max(math.ceil((t_end - t0) / dt - 1e-9), 0)
    return n, None if cadence is None else round(cadence / dt)


def monitor_times(t0: float, t_end: float, dt: float,
                  cadence: float) -> list:
    """The times at which a run from t0 to t_end at step dt calls its
    monitor: t0 + k cadence before the end, and the end."""
    n, every = _schedule(t0, t_end, dt, cadence)
    return [t0 + j * dt for j in (*range(0, n, every), n)]


def grid_energy_momentum(u: np.ndarray, v: np.ndarray,
                         grid: Grid2DCyl) -> tuple:
    """(energy, x1-momentum) grid integrals, with the u^4/4 potential that
    the flow preserves."""
    w = grid_weights(grid)
    d1, dr = grid_gradient(u, grid)
    e = 0.5 * (d1**2 + dr**2 + v**2) - 0.25 * u**4
    p = v * d1
    return float(np.sum(e * w)), float(np.sum(p * w))


@dataclass
class GridBasis:
    """Configuration, grid and exponential-direction family of the in-loop
    decomposition.  The directions of each speed are built once.

    sample(t) takes every column, the soliton sum q among them, from one
    pair_sampler.  In a speed-ell configuration the columns at t are those
    at t0 moved along x1, and times whose centers all lie the same whole
    number k of x1 rows from those at t0 share t0's sub-grid phase (k = 0
    at rest).  plan(times) names the times a run will ask for.  The first
    time asked at a phase samples it once, over the grid's x1 rows and the
    rows beyond the grid that the phase's planned times read, continuing
    the grid's spacing; every time at that phase is then served the window
    of rows at its offset k, a view of that one sampling.  A time that no
    kept sampling covers samples afresh the same way, and evicts the oldest
    of KEPT_PHASES kept samplings.  Solitons of different speeds share a
    phase only while their centers stand still.  A sampling is read-only
    and nothing moves it, so callers may keep served arrays.  G and cond(G)
    are formed per served time, since they depend on where the grid
    truncates the fields.
    """

    cfg: MultiSolitonConfig
    grid: Grid2DCyl
    rates_fields: list

    def __post_init__(self):
        self.directions = exp_direction_family(self.cfg, self.rates_fields)
        self._n_basis = len(self.cfg.slow) + sum(map(len, self.cfg.kernels))
        self._n_z = 2 * sum(map(len, self.directions))
        self._times = []  # the planned times
        # [t0, its x1 rows, columns, last served offset, its serving]
        self._kept = []

    def plan(self, times):
        """Drop every kept sampling and expect times next: each phase among
        them is sampled once, over every row they read."""
        self._times = list(times)
        self._kept.clear()

    def sample(self, t: float) -> dict:
        """The grid sampling at t: the soliton sum q = (q1, q2); per basis
        pair its first component ("first", (n, N)) and its d/dx1, d/drbar
        and second component ("H", (n, 3, N)); the Z+- first and second
        components ("Z", (m, 2, N)); the energy Gram matrix G of the basis
        and cond(G).  At the grid points (x1, rbar, 0, 0) the gradient of
        a cylindrically symmetric field is (d1, dr, 0, 0), so those two
        columns carry it."""
        n1 = self.grid.n1
        for kept in self._kept:
            t0, rows, F, k_served, s = kept
            k = self._rows_moved(t0, t)
            if k == k_served:
                return s
            # at t, grid row i reads row i - k of the sampling at t0
            if k is not None and rows.start <= -k and n1 - k <= rows.stop:
                kept[3:] = k, self._serve(F, -k - rows.start)
                return kept[4]
        ks = [0] + [k for u in self._times
                    if (k := self._rows_moved(t, u)) is not None]
        rows = range(-max(ks), n1 - min(ks))
        if len(self._kept) == KEPT_PHASES:
            del self._kept[0]
        F = self._fill(t, rows)
        self._kept.append([t, rows, F, 0, self._serve(F, -rows.start)])
        return self._kept[-1][4]

    def _rows_moved(self, t0: float, t: float):
        """k when every soliton center at t lies k whole x1 rows (to within
        PHASE_TOL) from where it is at t0, else None."""
        moved = [ell * (t - t0) / self.grid.h1 for ell in self.cfg.speeds]
        k = round(moved[0])
        return k if all(abs(x - k) <= PHASE_TOL for x in moved) else None

    def _fill(self, t: float, rows: range) -> np.ndarray:
        """Every column at time t on the x1 rows in rows, counted from the
        grid's first row (a range that holds 0 to n1 - 1), in the layout of
        sample(): the first components, then (d1, dr, second) per basis
        pair, then (first, second) per Z+- column and of the soliton sum q.
        The rows go in blocks of about _BLOCK_POINTS points, which bounds
        the evaluation temporaries.  Returned read-only."""
        cfg, grid, nb = self.cfg, self.grid, self._n_basis
        # the grid's own rows, and beyond them its spacing continued
        x1 = grid.x1[0] + grid.h1 * np.arange(rows.start, rows.stop)
        x1[-rows.start:grid.n1 - rows.start] = grid.x1
        basis = basis_pairs(cfg, t)[0]
        q = pair_sum(_soliton_pairs(cfg, t))
        sample = pair_sampler([("l2", basis), ("h", basis),
                               ("l2", _z_columns(cfg, self.directions, t)
                                + [q])])
        F = np.empty((4 * nb + 2 * self._n_z + 2, len(x1) * grid.nr))
        step = max(_BLOCK_POINTS // grid.nr, 1)
        for b_lo in range(0, len(x1), step):
            l2, h, zq = sample(cylinder_points(x1[b_lo:b_lo + step], grid.r))
            out = F[:, b_lo * grid.nr:(b_lo + step) * grid.nr]
            out[:nb] = l2[:, 0]
            # "h" features: d1, dr, d3, d4, second
            out[nb:4 * nb] = h[:, (0, 1, 4)].reshape(3 * nb, -1)
            out[4 * nb:] = zq.reshape(len(zq) * 2, -1)
        F.flags.writeable = False
        return F

    def _serve(self, F: np.ndarray, row: int) -> dict:
        """sample()'s dict on the grid's n1 rows of F from row on: views
        of F, plus G and cond(G)."""
        grid, nb = self.grid, self._n_basis
        W = F[:, row * grid.nr:(row + grid.n1) * grid.nr]
        H = W[nb:4 * nb].reshape(nb, 3, -1)
        G = np.einsum("icp,jcp->ij", H * grid_weights(grid).ravel(), H)
        return dict(first=W[:nb], H=H,
                    Z=W[4 * nb:-2].reshape(self._n_z, 2, -1),
                    q=tuple(W[-2:].reshape(2, grid.n1, grid.nr)), G=G,
                    cond=float(np.linalg.cond(G)))


def grid_modulation(u, v, basis: GridBasis, t: float) -> ModulationState:
    """Same decomposition as modulation.decompose, on grid quadrature."""
    q1, q2 = basis.sample(t)["q"]
    return _decompose_on_grid(u - q1, v - q2, basis, t)


def _decompose_on_grid(du, dv, basis: GridBasis, t: float) -> ModulationState:
    """grid_modulation of the deviation (du, dv) from the soliton sum at
    time t.  The localized slow parameter c is not measured on the grid; it
    reads zero."""
    cfg, grid = basis.cfg, basis.grid
    s = basis.sample(t)
    w = grid_weights(grid).ravel()
    H = s["H"]
    D = np.stack([*grid_gradient(du, grid), dv]).reshape(3, -1)
    D *= w
    coef = np.linalg.solve(s["G"], np.einsum("icp,cp->i", H, D))
    phi1 = du - np.einsum("i,ip->p", coef, s["first"]).reshape(du.shape)
    phi2 = dv - np.einsum("i,ip->p", coef, H[:, 2]).reshape(dv.shape)

    a = coef[:cfg.n].copy()
    b = coef[cfg.n:].reshape(cfg.n, cfg.n_kernel)
    phi = np.stack([phi1.ravel(), phi2.ravel()])
    zp, zm = _split_z(np.einsum("ikp,kp->i", s["Z"], phi * w), cfg.n)

    return ModulationState(
        t=t, a=a, b=b, remainder=None, z_plus=zp, z_minus=zm,
        c=np.zeros(cfg.n),
        remainder_norm=math.sqrt(max(grid_h_norm_sq(phi1, phi2, grid), 0.0)),
        gram_cond=s["cond"])


@dataclass
class MonitorSeries:
    times: list = dc_field(default_factory=list)
    energy: list = dc_field(default_factory=list)
    momentum: list = dc_field(default_factory=list)
    energy_ref: list = dc_field(default_factory=list)
    momentum_ref: list = dc_field(default_factory=list)
    deviation: list = dc_field(default_factory=list)
    states: list = dc_field(default_factory=list)
    centers: list = dc_field(default_factory=list)
    status: str = "running"

    def drift(self, which: str = "energy") -> float:
        """Relative conservation drift, background-corrected when a
        reference series is available (box-truncation flux cancels)."""
        raw = np.asarray(getattr(self, which))
        ref = np.asarray(getattr(self, which + "_ref"))
        vals = raw - ref if ref.size == raw.size and ref.size else raw
        scale = max(abs(raw[0]), 1e-12)
        return float(np.max(np.abs(vals - vals[0])) / scale)


def soliton_background(cfg: MultiSolitonConfig, grid):
    """Edge-value callback pinning grid.edges to the soliton sum.  Each
    call evaluates every edge at once, on their points joined; a
    configuration at rest is evaluated once, here."""
    points = [grid.points(e) for e in grid.edges]
    X = np.concatenate(points)
    cuts = np.cumsum([len(P) for P in points])[:-1]

    def edges(t: float):
        values = sum(q.evaluate(X) for q in cfg.traveling_profiles(t))
        return tuple(np.split(values, cuts))

    if any(cfg.speeds):
        return edges
    at_rest = edges(0.0)
    return lambda t: at_rest


def soliton_center(u: np.ndarray, grid: Grid2DCyl) -> float:
    """Sub-grid axis position of the on-axis maximum.

    Least-squares parabola over 2*CENTER_HALF_WIDTH+1 axis points; wider
    than the 3-point fit so the estimate does not oscillate as the peak
    crosses cells."""
    axis = np.abs(u[:, 0])
    i = int(np.argmax(axis))
    lo = max(i - CENTER_HALF_WIDTH, 0)
    hi = min(i + CENTER_HALF_WIDTH + 1, grid.n1)
    xs = grid.x1[lo:hi]
    ys = axis[lo:hi]
    c2, c1, _ = np.polyfit(xs - grid.x1[i], ys, 2)
    if c2 >= 0:
        return float(grid.x1[i])
    return float(grid.x1[i] - 0.5 * c1 / c2)


def evolve(u0: FieldPair, t0: float, t1: float, grid: Grid2DCyl,
           basis: GridBasis, background, cadence: float = 0.5
           ) -> MonitorSeries:
    """Evolve initial data with its edges pinned to background and record
    monitors at t0 + k cadence and at t1; basis samples each sub-grid phase
    of those times once."""
    u_arr = eval_on_grid(u0.first, grid)
    v_arr = eval_on_grid(u0.second, grid)
    ev = CylWaveEvolver(grid, u_arr, v_arr, background, t0=t0,
                        cadence=cadence)
    basis.plan(monitor_times(t0, t1, ev.dt, cadence))
    series = MonitorSeries()

    def monitor(e: CylWaveEvolver):
        v = e.v_sync()
        E, P = grid_energy_momentum(e.u, v, e.grid)
        series.times.append(e.t)
        series.energy.append(E)
        series.momentum.append(P)
        series.centers.append(soliton_center(e.u, e.grid))
        q1, q2 = basis.sample(e.t)["q"]
        du, dv = e.u - q1, v - q2
        series.states.append(_decompose_on_grid(du, dv, basis, e.t))
        Er, Pr = grid_energy_momentum(q1, q2, e.grid)
        series.energy_ref.append(Er)
        series.momentum_ref.append(Pr)
        series.deviation.append(
            math.sqrt(max(grid_h_norm_sq(du, dv, e.grid), 0.0)))

    status = ev.run_until(t1, callback=monitor)
    basis.plan([])  # so no sampling outlives the run
    series.status = status
    return series


def bootstrap_margins(series: MonitorSeries, c0: float) -> dict:
    """Margins of the five bootstrap inequalities per monitored time.

    The inequalities involve log t, so they are defined for t > 1 only;
    earlier monitors get no row.
    """
    rows = []
    first_violation = None
    for t, st in zip(series.times, series.states):
        if t <= 1.0:
            continue
        checks = dict(
            a=c0**2 * t**-2 / math.sqrt(math.log(t))
            - float(np.linalg.norm(st.a)),
            b=c0**2 * t**-2 - float(np.linalg.norm(st.b)),
            phi=c0 * t**-3 - st.remainder_norm,
            z_minus=t**-6 - float(np.sum(st.z_minus**2)),
            z_plus=t**-7 - float(np.sum(st.z_plus**2)),
        )
        rows.append(dict(t=t, **checks))
        if first_violation is None and any(v < 0 for v in checks.values()):
            first_violation = t
    return dict(rows=rows, first_violation=first_violation,
                all_hold=first_violation is None)


def default_grid_for(ell: float, t_span: float, margin: float = 12.0,
                     h: float = 0.1) -> Grid2DCyl:
    """Domain large enough that outgoing radiation cannot return, with x1
    spacing h, so that a soliton moving ell cadence / h rows per monitor
    repeats its sub-grid phase every q monitors when that is p / q rows
    (2 in the evolve suite, 5 / 4 in the ell = 0.5 mode rates)."""
    lo = min(0.0, ell * t_span) - (t_span + margin)
    hi = max(0.0, ell * t_span) + (t_span + margin)
    n1 = int(round((hi - lo) / h)) + 1
    r_max = t_span + margin
    return Grid2DCyl(lo, lo + (n1 - 1) * h, n1,
                     r_max, int(round(r_max / h)) + 1)


def measure_mode_rates(ell: float, lam: float, Y: ScalarField,
                       h: float = 0.1) -> dict:
    """Fitted exponential rates of both direction pairings.

    Seeds W_ell + eps * direction, eps = 1e-3 (8 eps for the decaying
    mode), monitors every cadence 0.25 up to the first one past 4.2 / rate,
    subtracts the unseeded baseline run (the grid's quasistatic drift
    carries its own small pairings), and fits log |z| on the window between
    the baseline floor and the nonlinear amplitude cap; a seeded run with
    no such window raises RuntimeError.  The outgoing pairing decays at -rate and the
    incoming one grows at +rate, rate = lam sqrt(1 - ell^2); the seeded
    direction excites exactly the pairing of the opposite sign.
    """
    eps, cadence = 1e-3, 0.25
    rate = lam * math.sqrt(1.0 - ell**2)
    # whole cadences, so that the last monitor is on one
    t_max = cadence * math.ceil(4.2 / rate / cadence)
    grid = default_grid_for(ell, t_max, margin=10.0, h=h)
    cfg = soliton_config("ground", [ell])
    basis = GridBasis(cfg, grid, [(lam, Y)])
    bg = soliton_background(cfg, grid)
    dirs = basis.directions[0][0]
    # every run monitors at these times, so their phases are sampled once
    basis.plan(monitor_times(0.0, t_max, time_step(grid, cadence), cadence))
    w_u, w_v = basis.sample(0.0)["q"]

    def z_series(du, dv):
        ev = CylWaveEvolver(grid, w_u + du, w_v + dv, t0=0.0, background=bg,
                            cadence=cadence)
        ts, zp, zm = [], [], []

        def monitor(e):
            st = grid_modulation(e.u, e.v_sync(), basis, e.t)
            ts.append(e.t)
            zp.append(float(st.z_plus[0, 0]))
            zm.append(float(st.z_minus[0, 0]))

        ev.run_until(t_max, callback=monitor)
        return np.asarray(ts), np.asarray(zp), np.asarray(zm)

    t_b, zp_b, zm_b = z_series(0.0, 0.0)
    out = {}
    for sign, key in ((+1, "growing"), (-1, "decaying")):
        d = dirs["+" if sign > 0 else "-"]
        du0 = eval_on_grid(d.pair.first, grid)
        dv0 = eval_on_grid(d.pair.second, grid)
        seed_eps = eps if sign > 0 else 8.0 * eps
        ts, zp, zm = z_series(seed_eps * du0, seed_eps * dv0)
        base = zm_b if sign > 0 else zp_b
        z = np.abs((zm if sign > 0 else zp) - base[:len(ts)])
        ok = z > 1e-13
        if sign > 0:
            ok &= z < MODE_AMPLITUDE_CAP
        else:
            ok &= z > max(z[0] * math.exp(-3.0), 1e-13)
            # drop trailing floor-dominated samples
            below = np.nonzero(~ok)[0]
            if below.size:
                ok[below[0]:] = False
        if np.sum(ok) < 4 or z[ok].max() / z[ok].min() < math.e:
            raise RuntimeError(f"no usable fit window for the {key} mode")
        slope, _ = np.polyfit(ts[ok], np.log(z[ok]), 1)
        out[key] = dict(rate=float(slope), eps=seed_eps,
                        expected=rate * sign,
                        window=(float(ts[ok].min()), float(ts[ok].max())))
    out["alpha"] = rate
    return out


def shooting_experiment(T: float = 20.0, bracket=(-6e-3, 6e-3),
                        t_end: float = 4.0, h: float = 0.12, n_sweep: int = 7,
                        n_bisect: int = 10, lam_Y=None) -> dict:
    """Backward-in-time tube persistence versus outgoing amplitude.

    Data at time T carry a prescribed pairing s against the outgoing
    direction of the static soliton; the run is integrated backward (exact
    time reflection), where that component grows at the linear rate.  For
    each amplitude the exit time from the deviation tube (energy-space
    radius 0.12) is recorded; the exit side flips across an optimal
    amplitude, which bisection brackets, and persistence is maximal near it
    (the mechanism that makes the topological selection of initial data work).

    W, the data and the Z- partner are radial, so every run steps the
    radial grid (report key "grid") of spacing h and radius T - t_end + 10.
    A bracket whose ends both persist to the end, or exit on the same side,
    cannot hold the optimum: it raises ValueError.
    """
    lam, Y = ground_eigenpair() if lam_Y is None else lam_Y
    cfg = soliton_config("ground", [0.0])
    dirs = exp_direction_family(cfg, [(lam, Y)])
    spec = QuadratureSpec(nodes=8, r_max=25.0)
    s_ref = 1e-4
    built = build_initial_data(cfg, T, np.array([[s_ref]]), dirs, spec,
                               enforce_ball=False)
    tau_max = T - t_end
    r_max = tau_max + 10.0
    grid = GridRadial(r_max, int(round(r_max / h)) + 1)
    w = grid_weights(grid)
    w_arr = eval_on_grid(cfg.profiles[0], grid)
    phi1 = eval_on_grid(built["phi"].first, grid)
    phi2 = eval_on_grid(built["phi"].second, grid)
    z_pair = dirs[0][0]["-"].z_pair
    # the Z- partner, weighted once for the pairing at every monitor
    zw1, zw2 = (eval_on_grid(z, grid) * w
                for z in (z_pair.first, z_pair.second))
    bg = soliton_background(cfg, grid)

    def run(s: float) -> dict:
        scale = s / s_ref
        u0 = w_arr + scale * phi1
        v0 = -(scale * phi2)  # time reflection of (u, v)
        ev = CylWaveEvolver(grid, u0, v0, t0=0.0, background=bg)
        rec = dict(exit_tau=tau_max, exit_sign=0.0, a_exit=0.0, s=s)
        last = -1.0
        while ev.t < tau_max and ev.status == "running":
            ev.step()
            if ev.t - last >= 0.25:
                last = ev.t
                v = ev.v_sync()
                du = ev.u - w_arr
                dev = math.sqrt(max(grid_h_norm_sq(du, v, grid), 0.0))
                zr = float(np.vdot(du, zw1) + np.vdot(v, zw2))
                rec["a_exit"] = zr * zr
                rec["exit_sign"] = math.copysign(1.0, zr) if zr else 0.0
                if dev > 0.12:
                    rec["exit_tau"] = ev.t
                    break
        if ev.status == "blowup":
            rec["exit_tau"] = min(rec["exit_tau"], ev.t)
        return rec

    runs = {}  # amplitude -> record: no amplitude runs twice

    def record(s: float) -> dict:
        if s not in runs:
            runs[s] = run(s)
        return runs[s]

    lo, hi = bracket
    sweep = [record(float(s)) for s in np.linspace(lo, hi, n_sweep)]
    r_lo, r_hi = record(lo), record(hi)
    if r_lo["exit_tau"] >= tau_max and r_hi["exit_tau"] >= tau_max:
        raise ValueError("both bracket ends persist to the end; "
                         "widen the amplitude bracket")
    if r_lo["exit_sign"] == r_hi["exit_sign"]:
        raise ValueError("bracket ends exit on the same side; widen it")
    a, b = lo, hi
    sa = r_lo["exit_sign"]
    best = max([r_lo, r_hi], key=lambda r: r["exit_tau"])
    for _ in range(n_bisect):
        mid = 0.5 * (a + b)
        rm = record(mid)
        if rm["exit_tau"] > best["exit_tau"]:
            best = rm
        if rm["exit_sign"] == sa or rm["exit_sign"] == 0.0:
            a = mid
        else:
            b = mid
    threshold_scale = max(r["a_exit"] for r in (r_lo, r_hi))
    return dict(sweep=sweep, bracket=(lo, hi), optimum=best,
                edge_exit=(r_lo["exit_tau"], r_hi["exit_tau"]),
                gain=best["exit_tau"] / max(r_lo["exit_tau"],
                                            r_hi["exit_tau"], 1e-9),
                threshold_scale=threshold_scale, T=T, t_end=t_end,
                grid=dict(kind="radial", points=grid.n, h=grid.h,
                          r_max=grid.r_max))
