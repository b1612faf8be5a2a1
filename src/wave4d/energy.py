"""Speed cutoff, algebraic weight, energy functionals and coercivity probes.

The momentum functional uses a piecewise-linear speed profile chi_N(t, x1)
that equals each soliton speed on a plateau around that soliton and ramps
with slope 1/((1-2 delta) t) in between; delta is a fixed fraction of the
smallest speed gap.  The ramp slabs (times R^3) form the region Omega where
the transported energy density is dissipated.

The total functional combines the remainder energy, the chi_N-weighted
momentum, a coupling correction removing the same-soliton quadratic term of
the nonlinearity, and per-soliton ramp corrections; coercivity of the
underlying quadratic form is probed on seeded random localized pairs after
projecting out the kernel directions (energy pairing) and the exponential
directions (L2 pairing), both in the plain and the <x>^-gamma weighted form.
The ramp norms read ``boosts.transported_density`` at c = chi_N and 0,
and the probe adds only the projection to ``boosts.HForm``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boosts import HForm, pair_vector, transported_density
from .fields import (
    FieldPair,
    FormulaField,
    ScalarField,
    feature_degree,
    pair_sampler,
    zero_field,
)
from .interactions import GAssembly, MultiSolitonConfig
from .quadrature import (SYM_CYL, QuadratureSpec, integrate_callable,
                         join_symmetry, product_degree, sum_degree)


@dataclass
class CutoffChiN:
    """Piecewise-linear interpolation of the soliton speeds along x1."""

    speeds: tuple

    def __post_init__(self):
        ells = np.asarray(self.speeds, dtype=float)
        if ells.size < 2:
            raise ValueError("the speed cutoff needs at least two solitons")
        if np.any(np.diff(ells) <= 0) or np.any(np.abs(ells) >= 1):
            raise ValueError("speeds must be increasing with |ell| < 1")
        self.speeds = tuple(float(v) for v in ells)
        gaps = np.diff(ells)
        self.ell_bar = float(max(abs(ells[0]), abs(ells[-1])))
        self.delta = float((1.0 - self.ell_bar) * np.min(gaps) / 40.0)
        # plateau edges: soliton n keeps its speed until a delta-fraction of
        # the adjacent gap; the ramp between n and n+1 spans the rest
        self.upper = ells[:-1] + self.delta * gaps   # ramp starts (n=1..N-1)
        self.lower = ells[1:] - self.delta * gaps    # ramp ends

    def __call__(self, t: float, x1) -> np.ndarray:
        if t <= 0:
            raise ValueError("cutoff needs t > 0")
        x1 = np.asarray(x1, dtype=float)
        ells = np.asarray(self.speeds)
        out = np.full(x1.shape, ells[0])
        for n in range(len(ells) - 1):
            lo, hi = self.upper[n] * t, self.lower[n] * t
            ramp = (x1 >= lo) & (x1 < hi)
            out[ramp] = (x1[ramp] / ((1.0 - 2.0 * self.delta) * t)
                         - self.delta * (ells[n + 1] + ells[n])
                         / (1.0 - 2.0 * self.delta))
            out[x1 >= hi] = ells[n + 1]
        return out

    def ramp_slope(self, t: float) -> float:
        return 1.0 / ((1.0 - 2.0 * self.delta) * t)

    def omega_intervals(self, t: float) -> list:
        """x1 intervals of the ramp region Omega(t)."""
        return [(u * t, l * t) for u, l in zip(self.upper, self.lower)]


@dataclass
class WeightZeta:
    """<x>^-gamma weight with its derivative combinations."""

    gamma: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")

    def field(self) -> FormulaField:
        g = self.gamma

        def fn(X):
            return (1.0 + np.sum(X * X, axis=1)) ** (-0.5 * g)

        def grad(X):
            s = 1.0 + np.sum(X * X, axis=1)
            return -g * X * (s ** (-0.5 * g - 1.0))[:, None]

        return FormulaField(fn, grad, symmetry="radial", name="zeta")

    def laplacian(self, X) -> np.ndarray:
        g = self.gamma
        r2 = np.sum(X * X, axis=1)
        zeta = (1.0 + r2) ** (-0.5 * g)
        return -g * ((2.0 - g) * r2 + 4.0) * zeta / (1.0 + r2) ** 2


@dataclass
class EnergyReport:
    """Values of the refined energy functionals at one time."""

    t: float
    energy: float
    momentum: float
    coupling: float
    ramp: list
    omega_norm: float
    omega_c_norm: float

    @property
    def total(self) -> float:
        return self.energy + self.momentum + self.coupling + sum(self.ramp)


def conserved_energy_momentum(u: FieldPair,
                              spec: QuadratureSpec | None = None) -> tuple:
    """(E, P1) = (int 1/2 (|grad u1|^2 + u2^2) - u1^4/4, int u2 d1 u1), the
    energy and x1-momentum that the flow conserves."""
    spec = spec or QuadratureSpec()

    def fn(X):
        v1, g = u.first.jet(X)
        v2 = u.second.evaluate(X)
        e = 0.5 * (np.einsum("ij,ij->i", g, g) + v2 * v2) - 0.25 * v1**4
        p1 = v2 * g[:, 0]
        return np.stack([e, p1], axis=1)

    dh, d1 = feature_degree(u, "h"), u.first.x4_degree
    vals = integrate_callable(
        fn, u.symmetry, spec,
        x4_degree=sum_degree(product_degree(dh, dh),
                             product_degree(*4 * [d1]))).value
    return float(vals[0]), float(vals[1])


def energy_functionals(phi: FieldPair, cfg: MultiSolitonConfig, t: float,
                       spec: QuadratureSpec | None = None) -> EnergyReport:
    """All refined functionals of a decomposed state in one pass."""
    cutoff = CutoffChiN(tuple(cfg.speeds))
    sp = cfg.quad_spec(t, spec)
    asm = GAssembly(cfg, t)
    sym = join_symmetry(phi.symmetry, asm.symmetry)
    n = cfg.n

    def fn(X):
        p1, g1 = phi.first.jet(X)
        p2 = phi.second.evaluate(X)
        parts = asm.parts(X)
        ruv = parts["RUV"]
        chi = cutoff(t, X[:, 0])
        grad2 = np.einsum("ij,ij->i", g1, g1)
        cols = [grad2 + p2 * p2 - 0.5 * (ruv + p1) ** 4 + 0.5 * ruv**4
                + 2.0 * ruv**3 * p1,
                2.0 * chi * g1[:, 0] * p2,
                -2.0 * p1 * sum(parts["G2"])]
        for nn in range(n):
            dpsi = asm.Psi[nn].gradient(X)[:, 0]
            cols.append(2.0 * cfg.a[nn]
                        * (cfg.speeds[nn] * g1[:, 0] - p2)
                        * (cfg.speeds[nn] - chi) * dpsi)
        return np.stack(cols, axis=1)

    # chi depends on x1 alone; the quartic in RUV + phi1 bounds the G2 and
    # RUV terms, and d1 of Psi_n has at most one more degree than Psi_n
    dh = feature_degree(phi, "h")
    dr = sum_degree(asm.x4_degree, phi.first.x4_degree)
    degree = sum_degree(
        product_degree(dh, dh), product_degree(*4 * [dr]),
        *(product_degree(dh, psi.x4_degree, 1) for psi in asm.Psi))
    window = cfg.x1_window(t, sp)
    vals = np.asarray(integrate_callable(fn, sym, sp, x1_range=window,
                                         x4_degree=degree).value)
    omega, omega_c = localized_norms(phi, cutoff, t, window, spec=sp)
    return EnergyReport(t=t, energy=float(vals[0]), momentum=float(vals[1]),
                        coupling=float(vals[2]),
                        ramp=[float(v) for v in vals[3:3 + n]],
                        omega_norm=omega, omega_c_norm=omega_c)


def _ramp_norms(phi: FieldPair, cutoff: CutoffChiN, t: float, intervals,
                spec: QuadratureSpec) -> np.ndarray:
    """(transported, plain) norms of phi over the x1 intervals.

    Both are ``transported_density`` of phi's "h" features, at c = chi_N
    and at c = 0, from one pass per interval.
    """
    sample = pair_sampler([("h", [phi])])

    def fn(X):
        h = sample(X)[0][0]
        return np.stack([transported_density(h, cutoff(t, X[:, 0])),
                         transported_density(h, 0.0)], axis=1)

    dh = feature_degree(phi, "h")
    total = np.zeros(2)
    for lo, hi in intervals:
        if hi > lo:
            total += np.asarray(integrate_callable(
                fn, phi.symmetry, spec, x1_range=(lo, hi),
                x4_degree=product_degree(dh, dh)).value)
    return total


def localized_norms(phi: FieldPair, cutoff: CutoffChiN, t: float, x1_domain,
                    spec: QuadratureSpec | None = None) -> tuple:
    """(ramp-region transported norm, complement plain norm).

    The ramp region enters with the 2 chi_N (d1 phi1) phi2 cross term; its
    complement, the rest of the x1 interval x1_domain, uses the plain
    gradient + velocity density.
    """
    spec = spec or QuadratureSpec()
    ramps = cutoff.omega_intervals(t)
    edges = [x1_domain[0]] + [e for iv in ramps for e in iv] + [x1_domain[1]]
    omega = _ramp_norms(phi, cutoff, t, ramps, spec)[0]
    comp = _ramp_norms(phi, cutoff, t, zip(edges[::2], edges[1::2]), spec)[1]
    return float(omega), float(comp)


def omega_lower_bound_gap(phi: FieldPair, cutoff: CutoffChiN, t: float,
                          spec: QuadratureSpec | None = None) -> float:
    """N_Omega - (1 - ell_bar) * plain Omega norm (nonnegative in theory)."""
    total = _ramp_norms(phi, cutoff, t, cutoff.omega_intervals(t),
                        spec or QuadratureSpec())
    return float(total[0] - (1.0 - cutoff.ell_bar) * total[1])


def zeta_smallness(cutoff: CutoffChiN, gamma: float, t: float) -> dict:
    """sup over the ramp region of sum zeta_n^2 and the global sup of
    |(chi_N - ell_n) zeta_n^2| (both decay like t^-2 gamma)."""
    ells = np.asarray(cutoff.speeds)
    sup_omega = 0.0
    for lo, hi in cutoff.omega_intervals(t):
        x1 = np.linspace(lo, hi, 4000)
        z2 = sum((1.0 + (x1 - ell * t) ** 2) ** -gamma for ell in ells)
        sup_omega = max(sup_omega, float(np.max(z2)))
    span = max(abs(ells[0]), abs(ells[-1])) * t + 10.0 * t
    x1 = np.linspace(-span, span, 4000)
    chi = cutoff(t, x1)
    sup_mismatch = 0.0
    for ell in ells:
        v = np.abs(chi - ell) * (1.0 + (x1 - ell * t) ** 2) ** -gamma
        sup_mismatch = max(sup_mismatch, float(np.max(v)))
    return dict(sup_omega=sup_omega, sup_mismatch=sup_mismatch)


# ---------------------------------------------------------------------------
# coercivity probes
# ---------------------------------------------------------------------------

@dataclass
class _Bump(ScalarField):
    """amp e^(-((x1 - c)/a)^2 - rbar^2/b^2) (1 + alpha x1 + beta rbar^2),
    rbar = |(x2, x3, x4)|; its jet takes the exponential and rbar^2 once for
    the value and the gradient."""

    c: float
    a: float
    b: float
    amp: float
    alpha: float
    beta: float
    symmetry: str = "cylindrical"

    def jet(self, X, value: bool = True, gradient: bool = True) -> tuple:
        x1, rb2 = X[:, 0], np.sum(X[:, 1:] ** 2, axis=1)
        e = self.amp * np.exp(-((x1 - self.c) / self.a) ** 2
                              - rb2 / self.b**2)
        poly = 1.0 + self.alpha * x1 + self.beta * rb2
        g = None
        if gradient:
            g = np.empty_like(X)
            g[:, 0] = e * (self.alpha
                           - 2.0 * (x1 - self.c) / self.a**2 * poly)
            g[:, 1:] = e[:, None] * X[:, 1:] * (
                2.0 * self.beta - 2.0 * poly / self.b**2)[:, None]
        return (e * poly if value else None), g


def _random_bump_pair(rng, radius: float = 8.0) -> FieldPair:
    """Seeded smooth localized cylindrical pair."""
    def bump():
        c = rng.uniform(-radius, radius)
        a = rng.uniform(1.0, 3.0)
        b = rng.uniform(1.0, 3.0)
        amp = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
        return _Bump(c, a, b, amp, rng.uniform(-0.5, 0.5),
                     rng.uniform(-0.2, 0.2))

    return FieldPair(bump(), bump())


class _ProjectedForm(HForm):
    """H_ell form and norm of a pair after projecting out the correctors.

    The correctors c_k are the boosted kernel pairs and the two exponential
    directions.  For a pair v the coefficients s solve M s = cons(v), with
    rows pairing against the kernel pairs (energy pairing) and the Z
    partners (L2).  :class:`boosts.HForm` holds the cylindrical node set
    of spec, the weights and the form; this adds the projection.  The
    constraint rows are the weighted features of the kernel pairs and of
    the Z partners, (constraint, feature.node), so cons(v) is one product
    with each.  Features are linear in the pair, so the projected pair
    v - sum_k s_k c_k has the features of v less the correctors' stacks,
    (feature.node, corrector), times s, whose form and norm are the
    projected ones.  The rows, the stacks and M are taken once, so a probe
    sample costs one sampling of v and four matrix-vector products.
    """

    def __init__(self, ell: float, Q: ScalarField, kernel_fields,
                 directions, gamma: float | None, spec: QuadratureSpec):
        super().__init__(ell, Q, SYM_CYL, spec,
                         None if gamma is None else WeightZeta(gamma).field())
        self.correctors = [pair_vector(g, ell, 1) for g in kernel_fields] + [
            directions["+"].pair, directions["-"].pair]
        h, l2, z_l2 = pair_sampler(
            [("h", self.correctors), ("l2", self.correctors),
             ("l2", [directions["+"].z_pair, directions["-"].z_pair])])(self.X)
        # constraint rows: energy pairing with the kernel pairs, L2 pairing
        # with the Z partners
        n_kernel = len(kernel_fields)
        self.kern_rows = (h[:n_kernel] * self.w).reshape(n_kernel, -1)
        self.z_rows = (z_l2 * self.w).reshape(len(z_l2), -1)
        self.Sc_h = h.reshape(len(h), -1).T
        self.Sc_l2 = l2.reshape(len(l2), -1).T
        self.M = self._constraints(self.Sc_h, self.Sc_l2)

    def _constraints(self, h, l2) -> np.ndarray:
        """Constraint pairings with the pairs whose flat features are the
        columns of h and l2 (or with the one pair of vectors h and l2)."""
        return np.concatenate([self.kern_rows @ h, self.z_rows @ l2])

    def __call__(self, v: FieldPair) -> tuple:
        """(projected form, projected norm, coefficients s, constraints)."""
        h, l2 = self.features(v)
        cons = self._constraints(h, l2)
        s = np.linalg.solve(self.M, cons)
        Fp, Np = self.form(h - self.Sc_h @ s, l2 - self.Sc_l2 @ s)
        return Fp, Np, s, cons


@dataclass
class CoercivityReport:
    ell: float
    gamma: float | None
    c_min: float
    ratios: list
    negative_control: float
    penalty_max: float


def coercivity_probe(ell: float, Q: ScalarField, kernel_fields,
                     directions, n_samples: int = 100, seed: int = 12345,
                     gamma: float | None = None,
                     spec: QuadratureSpec | None = None,
                     negative_field: ScalarField | None = None
                     ) -> CoercivityReport:
    """Projected Rayleigh minimum of the H_ell quadratic form.

    Random localized pairs are projected against the kernel pairs (energy
    pairing) and the exponential-direction partners (L2 pairing); the form
    is then evaluated through the correctors' features and constraint rows,
    taken once on the node set of spec, so each sample costs one
    evaluation of the pair.  gamma switches to the weighted form with the
    same projection penalty structure.
    """
    spec = spec or QuadratureSpec(nodes=10, r_max=30.0)
    proj = _ProjectedForm(ell, Q, kernel_fields, directions, gamma, spec)
    rng = np.random.default_rng(seed)
    ratios = []
    penalty_max = 0.0
    for _ in range(n_samples):
        Fp, Np, _, cons = proj(_random_bump_pair(rng))
        if Np <= 1e-12:
            continue
        ratios.append(Fp / Np)
        penalty_max = max(penalty_max, float(np.max(np.abs(cons))))
    control = math.nan
    if negative_field is not None:
        F, N = proj.form_and_norm(FieldPair(negative_field, zero_field()))
        control = F / N
    return CoercivityReport(ell=ell, gamma=gamma, c_min=float(np.min(ratios)),
                            ratios=[float(r) for r in ratios],
                            negative_control=control,
                            penalty_max=penalty_max)


def weighted_form_identity_gap(v: FieldPair, ell: float, Q: ScalarField,
                               zeta: WeightZeta) -> dict:
    """Term-by-term check that the weighted form equals the form of v*zeta
    plus the three commutator integrals (all returned separately); both
    forms are :class:`boosts.HForm` forms on one node set."""
    spec = QuadratureSpec(nodes=12, r_max=30.0)
    w = zeta.field()
    plain = HForm(ell, Q, SYM_CYL, spec)
    weighted = HForm(ell, Q, SYM_CYL, spec, w)
    X = plain.X
    h, l2 = plain.features(v)
    v1, v2 = l2.reshape(2, -1)
    z, gz, lapz = w.evaluate(X), w.gradient(X), zeta.laplacian(X)
    # the weighted pair's features: grad(v1 z) = z grad v1 + v1 grad z
    hz = np.vstack([z * h.reshape(5, -1)[:4] + v1 * gz.T, z * v2])
    lhs = weighted.form(h, l2)[0]
    pair_form = plain.form(hz.ravel(), (z * l2.reshape(2, -1)).ravel())[0]
    # the three commutator integrals: pair_form = lhs + t1 + t2 + t3
    t1 = float(plain.w @ (-v1 * v1 * z * lapz))
    t2 = float(plain.w @ (2.0 * ell * v1 * v2 * z * gz[:, 0]))
    t3 = float(plain.w_pot @ (v1 * v1 * (1.0 - z * z)))
    return dict(weighted_form=lhs, pair_form=pair_form, laplacian_term=t1,
                cross_term=t2, potential_term=t3,
                gap=pair_form - (lhs + t1 + t2 + t3))
