"""Leapfrog evolution of the focusing cubic wave equation in the cylindrical
reduction u(t, x1, rbar), rbar = |(x2,x3,x4)|.

The Laplacian is d11 + drr + (2/r) dr with the regularized axis limit
(2/r) dr -> 2 drr, so the axis row uses 3 drr.  Each evolver builds this
stencil once as a five-diagonal sparse operator on the flattened grid
(laplacian_operator), so a force evaluation is one sparse product plus the
cube, formed as u*u*u.  Time stepping is kick-drift leapfrog with the cubic
term frozen at integer steps (second order); the outer boundary carries a
first-order outgoing condition as a safety net and domains are sized so
nothing returns during the monitored window.  A field magnitude above the
blow-up guard terminates the run with a status instead of propagating NaNs
(the focusing nonlinearity does blow up for large data).

Monitors evaluate conserved quantities, the energy-space distance to the
soliton sum, grid-based modulation parameters, exponential-direction
pairings and the bootstrap-inequality margins on grid snapshots.  The
shooting experiment integrates backward in time (through exact time
reflection of the data) from well-prepared states with a prescribed
outgoing amplitude and bisects on the amplitude that maximizes the time
spent inside the deviation tube.  Edge values depend on t only through
the soliton centers, so they are evaluated again only when the centers
move.  The soliton sum and the decomposition basis of a speed-ell
configuration only translate, so GridBasis keys its samplings on the
sub-grid phase ell t / h1 mod 1: a later time at a kept phase is served by
an index shift along x1, with only the exposed rows sampled afresh (once in
all for solitons at rest).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy import sparse

from .fields import FieldPair, Grid2DCyl, ScalarField, cylinder_points
from .interactions import MultiSolitonConfig
from .modulation import ModulationState, _flatten_basis, _soliton_pairs, \
    _split_z, _z_columns, basis_pairs, exp_direction_family
from .spectrum import ground_eigenpair
from .states import ground_state, symmetry_generator

BLOWUP_FACTOR = 1e3
# soliton_center fits its parabola over 2 * CENTER_HALF_WIDTH + 1 axis points
CENTER_HALF_WIDTH = 6
# a GridBasis keeps the samplings of this many sub-grid phases; two times
# share a phase when the centers move by whole x1 rows to within PHASE_TOL
KEPT_PHASES = 4
PHASE_TOL = 1e-9
# GridBasis samples a fresh grid in blocks of rows of about this many points
_BLOCK_POINTS = 4096


def eval_on_grid(f: ScalarField, grid: Grid2DCyl) -> np.ndarray:
    return f.evaluate(cylinder_points(grid.x1, grid.r)).reshape(grid.n1,
                                                                 grid.nr)


# no wave4d caller; benchmark/tracing.py wraps it by name
def grad_on_grid(f: ScalarField, grid: Grid2DCyl):
    """(d/dx1, d/drbar) arrays of an exact-gradient field on the grid."""
    g = f.gradient(cylinder_points(grid.x1, grid.r))
    return (g[:, 0].reshape(grid.n1, grid.nr),
            g[:, 1].reshape(grid.n1, grid.nr))


@functools.lru_cache(maxsize=4)
def grid_weights(grid: Grid2DCyl) -> np.ndarray:
    """Trapezoid weights of the measure 4 pi rbar^2 drbar dx1, built once
    per grid and returned read-only."""
    w1 = np.full(grid.n1, grid.h1)
    w1[0] *= 0.5
    w1[-1] *= 0.5
    wr = np.full(grid.nr, grid.hr)
    wr[0] *= 0.5
    wr[-1] *= 0.5
    w = 4.0 * math.pi * np.outer(w1, wr * grid.r**2)
    w.flags.writeable = False
    return w


def grid_gradient(arr: np.ndarray, grid: Grid2DCyl):
    d1 = np.gradient(arr, grid.h1, axis=0, edge_order=2)
    dr = np.gradient(arr, grid.hr, axis=1, edge_order=2)
    return d1, dr


def laplacian_operator(grid: Grid2DCyl) -> sparse.dia_matrix:
    """The grid Laplacian d11 + drr + (2/rbar) drbar as one five-diagonal
    operator on the flattened grid (index i * nr + j, offsets 0, +-1, +-nr).

    Interior rows carry the x1 second difference and interior columns the
    radial one; the axis column is 3 drr with the even reflection
    u(-hr) = u(hr).  The open edges (rows 0 and n1 - 1, column nr - 1) get
    no term along their normal: the step sets their values, but v_sync
    still reads the force there.
    """
    n1, nr = grid.n1, grid.nr
    i1, ir = 1.0 / grid.h1**2, 1.0 / grid.hr**2
    inner = slice(1, -1)
    # radial coefficients per column j: u[j - 1], u[j], u[j + 1]
    r_lo, r_mid, r_hi = np.zeros(nr), np.zeros(nr), np.zeros(nr)
    r_lo[inner] = ir - 1.0 / (grid.r[inner] * grid.hr)
    r_mid[inner] = -2.0 * ir
    r_hi[inner] = ir + 1.0 / (grid.r[inner] * grid.hr)
    r_mid[0], r_hi[0] = -6.0 * ir, 6.0 * ir
    # x1 coefficients per row i: u[i -+ 1] and u[i]
    x_side, x_mid = np.zeros(n1), np.zeros(n1)
    x_side[inner], x_mid[inner] = i1, -2.0 * i1
    # row-indexed diagonals, so entry k multiplies u[k + offset]
    mid = (x_mid[:, None] + r_mid[None, :]).ravel()
    lo, hi = np.tile(r_lo, n1), np.tile(r_hi, n1)
    side = np.repeat(x_side, nr)
    return sparse.diags([mid, hi[:-1], lo[1:], side[:-nr], side[nr:]],
                        [0, 1, -1, nr, -nr], format="dia")


@dataclass
class EvolutionState:
    grid: Grid2DCyl
    u: np.ndarray
    v: np.ndarray
    t: float
    dt: float


class CylWaveEvolver:
    """Leapfrog integrator for d_tt u = Delta u + u^3 on a cylinder grid.

    background, when given, is a callable t -> (row_lo, row_hi, col_rmax)
    with the exact field values on the three open edges; the boundary is
    pinned there (right for soliton backgrounds, whose static tails a plain
    outgoing condition would wrongly radiate away).  Without it the edges
    carry the first-order outgoing condition.
    """

    def __init__(self, grid: Grid2DCyl, u0: np.ndarray, v0: np.ndarray,
                 t0: float = 0.0, cfl: float = 0.4, background=None):
        if cfl > 0.5:
            raise ValueError("CFL number above 0.5 is unstable for this stencil")
        self.grid = grid
        self.laplacian_op = laplacian_operator(grid)
        self.dt = cfl * min(grid.h1, grid.hr)
        self.t = float(t0)
        self.u = np.array(u0, dtype=float)
        self.force = self.rhs(self.u)  # rhs(u), kept from the last kick
        self.v_half = np.array(v0, dtype=float) + 0.5 * self.dt * self.force
        self.background = background
        self.status = "running"

    def rhs(self, u: np.ndarray) -> np.ndarray:
        return (self.laplacian_op @ u.ravel()).reshape(u.shape) + u * u * u

    def step(self) -> str:
        """Drift u with the half-step velocity, then kick the velocity with
        the force at the new position (v_half always leads u by dt/2)."""
        u, dt, g = self.u, self.dt, self.grid
        u_new = u + dt * self.v_half
        if self.background is not None:
            row_lo, row_hi, col_r = self.background(self.t + dt)
            u_new[0, :] = row_lo
            u_new[-1, :] = row_hi
            u_new[:, -1] = col_r
        else:
            # first-order outgoing safety net on the open edges
            u_new[0, :] = u[0, :] + dt * (u[1, :] - u[0, :]) / g.h1
            u_new[-1, :] = u[-1, :] - dt * (u[-1, :] - u[-2, :]) / g.h1
            u_new[:, -1] = u[:, -1] - dt * (u[:, -1] - u[:, -2]) / g.hr
        self.force = self.rhs(u_new)
        self.v_half += dt * self.force
        self.v_half[0, :] = (u_new[0, :] - u[0, :]) / dt
        self.v_half[-1, :] = (u_new[-1, :] - u[-1, :]) / dt
        self.v_half[:, -1] = (u_new[:, -1] - u[:, -1]) / dt
        self.u = u_new
        self.t += dt
        # one reduction: a NaN propagates through max and fails the test
        if not np.max(np.abs(u_new)) <= BLOWUP_FACTOR:
            self.status = "blowup"
        return self.status

    def v_sync(self) -> np.ndarray:
        return self.v_half - 0.5 * self.dt * self.force

    def state(self) -> EvolutionState:
        return EvolutionState(grid=self.grid, u=self.u.copy(),
                              v=self.v_sync(), t=self.t, dt=self.dt)

    def reflected(self) -> "CylWaveEvolver":
        """Time-reflected copy; forward-evolving it retraces the past."""
        out = CylWaveEvolver.__new__(CylWaveEvolver)
        out.grid = self.grid
        out.laplacian_op = self.laplacian_op
        out.dt = self.dt
        out.t = self.t
        out.u = self.u.copy()
        out.force = self.force
        out.v_half = -(self.v_half - self.dt * self.force)
        out.background = self.background  # valid for static backgrounds
        out.status = self.status
        return out

    def run_until(self, t_end: float, callback=None,
                  cadence: float | None = None) -> str:
        if self.status == "done":
            self.status = "running"  # resuming a completed run is fine
        next_cb = self.t if callback else math.inf
        while self.t < t_end - 1e-12:
            if callback and self.t >= next_cb - 1e-12:
                callback(self)
                next_cb += cadence
            if self.step() != "running":
                return self.status
        if callback:
            callback(self)
        self.status = "done"
        return self.status


def grid_energy_momentum(u: np.ndarray, v: np.ndarray,
                         grid: Grid2DCyl) -> tuple:
    """(energy, x1-momentum) grid integrals, with the u^4/4 potential that
    the flow preserves."""
    w = grid_weights(grid)
    d1, dr = grid_gradient(u, grid)
    e = 0.5 * (d1**2 + dr**2 + v**2) - 0.25 * u**4
    p = v * d1
    return float(np.sum(e * w)), float(np.sum(p * w))


def grid_h_norm_sq(du, dv, grid) -> float:
    w = grid_weights(grid)
    d1, dr = grid_gradient(du, grid)
    return float(np.sum((d1**2 + dr**2 + dv**2) * w))


def _by_centers(cfg: MultiSolitonConfig, sample):
    """t -> sample(t), taken again only when cfg.centers(t) moves.  Only
    the last sampling is kept; it is dropped before the next is taken."""
    kept = {}

    def at(t: float):
        centers = cfg.centers(t)
        if centers not in kept:
            kept.clear()
            kept[centers] = sample(t)
        return kept[centers]

    return at


@dataclass
class GridBasis:
    """Configuration, grid and exponential-direction family of the in-loop
    decomposition.  The directions of each speed are built once.

    sample(t) keys its grid samplings on the sub-grid phase of the soliton
    centers.  A time whose centers lie a whole number k of x1 rows from
    those of a kept sampling is served from it: its columns move k rows in
    place and only the k rows that exposes are sampled (k = 0 at rest, so a
    run at rest samples once).  A time at a new phase samples the whole grid
    and evicts the oldest of KEPT_PHASES kept phases.  Solitons of different
    speeds share a phase only while their centers stand still.  G and
    cond(G) are formed per served time, since they depend on where the grid
    truncates the moved fields.  Later times of its phase move a served
    sampling's arrays, so a caller that keeps them copies them.
    """

    cfg: MultiSolitonConfig
    grid: Grid2DCyl
    rates_fields: list

    def __post_init__(self):
        self.directions = exp_direction_family(self.cfg, self.rates_fields)
        self._n_basis = len(self.cfg.slow) + sum(map(len, self.cfg.kernels))
        self._n_z = 2 * sum(map(len, self.directions))
        self._kept = []  # [t0, rows moved since t0, columns, sampling]

    def sample(self, t: float) -> dict:
        """The grid sampling at t: the soliton sum q = (q1, q2); per basis
        pair its first component ("first", (n, N)) and its d/dx1, d/drbar
        and second component ("H", (n, 3, N)); the Z+- first and second
        components ("Z", (m, 2, N)); the energy Gram matrix G of the basis
        and cond(G).  At the grid points (x1, rbar, 0, 0) the gradient of
        a cylindrically symmetric field is (d1, dr, 0, 0), so those two
        columns carry it."""
        h1 = self.grid.h1
        for kept in self._kept:
            t0, k0, F, s = kept
            moved = [ell * (t - t0) / h1 for ell in self.cfg.speeds]
            k = round(moved[0])
            if all(abs(x - k) <= PHASE_TOL for x in moved):
                if k != k0:
                    self._move(F, t, k - k0)
                    kept[1] = k
                    self._gram(s)
                return s
        if len(self._kept) == KEPT_PHASES:
            del self._kept[0]
        grid, nb = self.grid, self._n_basis
        # the whole-grid soliton sum goes through eval_on_grid, which
        # benchmark/tracing.py counts as grid samples; it is taken before the
        # columns exist, so its temporaries do not add to theirs
        q = [sum(eval_on_grid(getattr(p, part), grid).ravel()
                 for p in _soliton_pairs(self.cfg, t))
             for part in ("first", "second")]
        F = np.empty((4 * nb + 2 * self._n_z + 2, grid.n1 * grid.nr))
        F[-2:] = q
        del q
        self._fill(F, t, 0, grid.n1)
        s = dict(first=F[:nb], H=F[nb:4 * nb].reshape(nb, 3, -1),
                 Z=F[4 * nb:-2].reshape(self._n_z, 2, -1),
                 q=tuple(F[-2:].reshape(2, grid.n1, grid.nr)))
        self._gram(s)
        self._kept.append([t, 0, F, s])
        return s

    def drop_samplings(self):
        """Forget every kept phase; the next time samples afresh."""
        self._kept.clear()

    def _fill(self, F, t: float, lo: int, hi: int):
        """Sample x1 rows lo:hi of the basis and Z+- columns of F at time t,
        in the layout of sample(): the first components, then (d1, dr,
        second) per basis pair, then (first, second) per Z+- column.  The
        rows go in blocks of about _BLOCK_POINTS points, which bounds the
        evaluation temporaries."""
        cfg, grid, nb = self.cfg, self.grid, self._n_basis
        basis = _flatten_basis(*basis_pairs(cfg, t))[0]
        z_cols = _z_columns(cfg, self.directions, t)
        step = max(_BLOCK_POINTS // grid.nr, 1)
        for b_lo in range(lo, hi, step):
            b_hi = min(b_lo + step, hi)
            X = cylinder_points(grid.x1[b_lo:b_hi], grid.r)
            out = F[:, b_lo * grid.nr:b_hi * grid.nr]
            for i, p in enumerate(basis):
                g = p.first.gradient(X)
                out[i] = p.first.evaluate(X)
                out[nb + 3 * i] = g[:, 0]
                out[nb + 3 * i + 1] = g[:, 1]
                out[nb + 3 * i + 2] = p.second.evaluate(X)
            for j, p in enumerate(z_cols):
                out[4 * nb + 2 * j] = p.first.evaluate(X)
                out[4 * nb + 2 * j + 1] = p.second.evaluate(X)

    def _move(self, F, t: float, k: int):
        """Move every column of F by k x1 rows in place, the translation of
        the fields by k h1, and sample the rows that exposes at time t."""
        grid = self.grid
        m = abs(k) * grid.nr
        # row by row: numpy moves overlapping 1-D data without a temporary
        for col in F:
            if k > 0:
                col[m:] = col[:-m]
            else:
                col[:-m] = col[m:]
        lo, hi = (0, min(k, grid.n1)) if k > 0 else (max(grid.n1 + k, 0),
                                                   grid.n1)
        self._fill(F, t, lo, hi)
        X = cylinder_points(grid.x1[lo:hi], grid.r)
        for c, part in ((-2, "first"), (-1, "second")):
            F[c, lo * grid.nr:hi * grid.nr] = sum(
                getattr(p, part).evaluate(X)
                for p in _soliton_pairs(self.cfg, t))

    def _gram(self, s: dict):
        H = s["H"]
        w = grid_weights(self.grid).ravel()
        s["G"] = (H * w).reshape(len(H), -1) @ H.reshape(len(H), -1).T
        s["cond"] = float(np.linalg.cond(s["G"]))


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
    d1, dr = grid_gradient(du, grid)
    rhs = H.reshape(len(H), -1) @ (
        np.stack([d1.ravel(), dr.ravel(), dv.ravel()]) * w).ravel()
    coef = np.linalg.solve(s["G"], rhs)
    phi1 = du - (coef @ s["first"]).reshape(du.shape)
    phi2 = dv - (coef @ H[:, 2]).reshape(dv.shape)

    a = coef[:cfg.n].copy()
    b = coef[cfg.n:].reshape(cfg.n, cfg.n_kernel)
    Z = s["Z"]
    zp, zm = _split_z(Z[:, 0] @ (w * phi1.ravel())
                      + Z[:, 1] @ (w * phi2.ravel()), cfg.n)

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


def soliton_background(cfg: MultiSolitonConfig, grid: Grid2DCyl):
    """Edge-value callback pinning the boundary to the soliton sum,
    evaluated again only when the soliton centers move."""
    edge_pts = (cylinder_points([grid.x1_min], grid.r),
                cylinder_points([grid.x1_max], grid.r),
                cylinder_points(grid.x1, [grid.r_max]))

    def edges(t: float):
        Q = cfg.traveling_profiles(t)
        return tuple(sum(q.evaluate(P) for q in Q) for P in edge_pts)

    return _by_centers(cfg, edges)


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
           basis: GridBasis | None = None, cadence: float = 0.5,
           background=None) -> MonitorSeries:
    """Evolve initial data and record monitors at the requested cadence."""
    u_arr = eval_on_grid(u0.first, grid)
    v_arr = eval_on_grid(u0.second, grid)
    ev = CylWaveEvolver(grid, u_arr, v_arr, t0=t0, background=background)
    series = MonitorSeries()

    def monitor(e: CylWaveEvolver):
        v = e.v_sync()
        E, P = grid_energy_momentum(e.u, v, e.grid)
        series.times.append(e.t)
        series.energy.append(E)
        series.momentum.append(P)
        series.centers.append(soliton_center(e.u, e.grid))
        if basis is not None:
            q1, q2 = basis.sample(e.t)["q"]
            du, dv = e.u - q1, v - q2
            series.states.append(_decompose_on_grid(du, dv, basis, e.t))
            Er, Pr = grid_energy_momentum(q1, q2, e.grid)
            series.energy_ref.append(Er)
            series.momentum_ref.append(Pr)
            series.deviation.append(
                math.sqrt(max(grid_h_norm_sq(du, dv, e.grid), 0.0)))

    status = ev.run_until(t1, callback=monitor, cadence=cadence)
    if basis is not None:
        basis.drop_samplings()  # so no sampling outlives the run
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


def single_soliton_config(ell: float) -> MultiSolitonConfig:
    """W traveling at speed ell, with the scaling generator as its slow
    direction and translation_1 as its one kernel direction."""
    W = ground_state()
    return MultiSolitonConfig(
        profiles=[W], speeds=[ell], signs=[1], a=np.zeros(1),
        b=np.zeros((1, 1)),
        slow=[symmetry_generator(W, "scaling")],
        kernels=[[symmetry_generator(W, "translation_1")]])


def default_grid_for(ell: float, t_span: float, margin: float = 12.0,
                     h: float = 0.1) -> Grid2DCyl:
    """Domain large enough that outgoing radiation cannot return."""
    lo = min(0.0, ell * t_span) - (t_span + margin)
    hi = max(0.0, ell * t_span) + (t_span + margin)
    r_max = t_span + margin
    return Grid2DCyl(lo, hi, int(round((hi - lo) / h)) + 1,
                     r_max, int(round(r_max / h)) + 1)


def measure_mode_rates(ell: float, lam: float, Y: ScalarField,
                       eps: float = 1e-3, h: float = 0.1,
                       t_max: float | None = None, cadence: float = 0.25,
                       max_retries: int = 2, amplitude_cap: float = 0.02
                       ) -> dict:
    """Fitted exponential rates of both direction pairings.

    Seeds W_ell + eps * direction, subtracts the unseeded baseline run (the
    grid's quasistatic drift carries its own small pairings), and fits
    log |z| on the window between the baseline floor and the nonlinear
    amplitude cap.  The outgoing pairing decays at -rate and the incoming
    one grows at +rate, rate = lam sqrt(1 - ell^2); the seeded direction
    excites exactly the pairing of the opposite sign.
    """
    rate = lam * math.sqrt(1.0 - ell**2)
    if t_max is None:
        t_max = 4.2 / rate
    grid = default_grid_for(ell, t_max, margin=10.0, h=h)
    cfg = single_soliton_config(ell)
    basis = GridBasis(cfg, grid, [(lam, Y)])
    bg = soliton_background(cfg, grid)
    dirs = basis.directions[0][0]
    # copies: later samplings move the served arrays in place
    w_u, w_v = (q.copy() for q in basis.sample(0.0)["q"])

    def z_series(du, dv, t_stop):
        ev = CylWaveEvolver(grid, w_u + du, w_v + dv, t0=0.0, background=bg)
        ts, zp, zm = [], [], []

        def monitor(e):
            st = grid_modulation(e.u, e.v_sync(), basis, e.t)
            ts.append(e.t)
            zp.append(float(st.z_plus[0, 0]))
            zm.append(float(st.z_minus[0, 0]))

        ev.run_until(t_stop, callback=monitor, cadence=cadence)
        return np.asarray(ts), np.asarray(zp), np.asarray(zm)

    t_b, zp_b, zm_b = z_series(0.0, 0.0, t_max)
    out = {}
    for sign, key in ((+1, "growing"), (-1, "decaying")):
        d = dirs["+" if sign > 0 else "-"]
        du0 = eval_on_grid(d.pair.first, grid)
        dv0 = eval_on_grid(d.pair.second, grid)
        attempt_eps = eps if sign > 0 else 8.0 * eps
        for attempt in range(max_retries + 1):
            ts, zp, zm = z_series(attempt_eps * du0, attempt_eps * dv0, t_max)
            base = zm_b if sign > 0 else zp_b
            z = np.abs((zm if sign > 0 else zp) - base[:len(ts)])
            ok = z > 1e-13
            if sign > 0:
                ok &= z < amplitude_cap
            else:
                ok &= z > max(z[0] * math.exp(-3.0), 1e-13)
                # drop trailing floor-dominated samples
                below = np.nonzero(~ok)[0]
                if below.size:
                    ok[below[0]:] = False
            if np.sum(ok) >= 4 and z[ok].max() / z[ok].min() >= math.e:
                slope, _ = np.polyfit(ts[ok], np.log(z[ok]), 1)
                out[key] = dict(rate=float(slope), eps=attempt_eps,
                                expected=rate * sign,
                                window=(float(ts[ok].min()),
                                        float(ts[ok].max())))
                break
            attempt_eps *= 0.5
        else:
            raise RuntimeError(f"no usable fit window for the {key} mode")
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
    radius 0.12) is recorded; the exit side flips across an optimal amplitude, which bisection brackets,
    and persistence is maximal near it (the mechanism that makes the
    topological selection of initial data work).
    """
    from .modulation import build_initial_data

    lam, Y = ground_eigenpair() if lam_Y is None else lam_Y
    cfg = single_soliton_config(0.0)
    dirs = exp_direction_family(cfg, [(lam, Y)])

    from .quadrature import QuadratureSpec
    spec = QuadratureSpec(scheme="fixed", nodes=8, r_max=25.0)
    s_ref = 1e-4
    built = build_initial_data(cfg, T, np.array([[s_ref]]), dirs, spec,
                               enforce_ball=False)
    tau_max = T - t_end
    grid = default_grid_for(0.0, tau_max, margin=10.0, h=h)
    w = grid_weights(grid)
    w_arr = eval_on_grid(cfg.profiles[0], grid)
    phi1 = eval_on_grid(built["phi"].first, grid)
    phi2 = eval_on_grid(built["phi"].second, grid)
    z_pair = dirs[0][0]["-"].z_pair
    z1 = eval_on_grid(z_pair.first, grid)
    z2 = eval_on_grid(z_pair.second, grid)
    bg = soliton_background(cfg, grid)

    def run(s: float) -> dict:
        scale = s / s_ref
        u0 = w_arr + scale * phi1
        v0 = -(scale * phi2)  # time reflection of (u, v)
        ev = CylWaveEvolver(grid, u0, v0, t0=0.0, background=bg)
        rec = dict(exit_tau=tau_max, exit_sign=0.0, a_exit=0.0, s=s)
        while ev.t < tau_max and ev.status == "running":
            ev.step()
            if ev.t - rec.get("_last", -1.0) >= 0.25:
                rec["_last"] = ev.t
                v = ev.v_sync()
                du = ev.u - w_arr
                dev = math.sqrt(max(grid_h_norm_sq(du, v, grid), 0.0))
                zr = float(np.sum((du * z1 + v * z2) * w))
                rec["a_exit"] = zr * zr
                rec["exit_sign"] = math.copysign(1.0, zr) if zr else 0.0
                if dev > 0.12:
                    rec["exit_tau"] = ev.t
                    break
        if ev.status == "blowup":
            rec["exit_tau"] = min(rec["exit_tau"], ev.t)
        rec.pop("_last", None)
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
        raise RuntimeError("both bracket ends persist to the end; "
                           "widen the amplitude bracket")
    if r_lo["exit_sign"] == r_hi["exit_sign"]:
        raise RuntimeError("bracket ends exit on the same side; widen it")
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
                threshold_scale=threshold_scale, T=T, t_end=t_end)
