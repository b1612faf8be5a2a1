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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boosts import boost_profile, pair_vector, traveling_pair
from .fields import (
    _H_COLS,
    _H_D1,
    _H_SECOND,
    _L2_COLS,
    FieldPair,
    FormulaField,
    ScalarField,
    _pairing_features,
    zero_field,
)
from .interactions import GAssembly, MultiSolitonConfig
from .quadrature import (QuadratureSpec, integrate_callable, join_symmetry,
                         node_set)


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
        slope = 1.0 / ((1.0 - 2.0 * self.delta) * t)
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
        g = u.first.gradient(X)
        v1 = u.first.evaluate(X)
        v2 = u.second.evaluate(X)
        e = 0.5 * (np.einsum("ij,ij->i", g, g) + v2 * v2) - 0.25 * v1**4
        p1 = v2 * g[:, 0]
        return np.stack([e, p1], axis=1)

    vals = integrate_callable(fn, u.symmetry, spec).value
    return float(vals[0]), float(vals[1])


def energy_functionals(phi: FieldPair, cfg: MultiSolitonConfig, t: float,
                       spec: QuadratureSpec | None = None) -> EnergyReport:
    """All refined functionals of a decomposed state in one pass."""
    cutoff = CutoffChiN(tuple(cfg.speeds))
    sp = cfg.quad_spec(t, spec)
    asm = GAssembly(cfg, t)
    slow_pairs = [traveling_pair(s, ell, t, 1)
                  for s, ell in zip(cfg.slow, cfg.speeds)]
    sym = join_symmetry(phi.symmetry, asm.symmetry)
    n = cfg.n

    def fn(X):
        g1 = phi.first.gradient(X)
        p1 = phi.first.evaluate(X)
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
            dpsi = slow_pairs[nn].first.gradient(X)[:, 0]
            cols.append(2.0 * cfg.a[nn]
                        * (cfg.speeds[nn] * g1[:, 0] - p2)
                        * (cfg.speeds[nn] - chi) * dpsi)
        return np.stack(cols, axis=1)

    window = cfg.x1_window(t, sp)
    vals = np.asarray(integrate_callable(fn, sym, sp, x1_range=window).value)
    omega, omega_c = localized_norms(phi, cutoff, t, window, spec=sp)
    return EnergyReport(t=t, energy=float(vals[0]), momentum=float(vals[1]),
                        coupling=float(vals[2]),
                        ramp=[float(v) for v in vals[3:3 + n]],
                        omega_norm=omega, omega_c_norm=omega_c)


def _ramp_norms(phi: FieldPair, cutoff: CutoffChiN, t: float, intervals,
                spec: QuadratureSpec) -> np.ndarray:
    """(transported, plain) norms of phi over the x1 intervals.

    The plain density is |grad phi1|^2 + phi2^2; the transported one adds
    the 2 chi_N (d1 phi1) phi2 cross term.  Both come from one pass per
    interval.
    """
    def fn(X):
        g = phi.first.gradient(X)
        p2 = phi.second.evaluate(X)
        plain = np.einsum("ij,ij->i", g, g) + p2 * p2
        return np.stack([plain + 2.0 * cutoff(t, X[:, 0]) * g[:, 0] * p2,
                         plain], axis=1)

    total = np.zeros(2)
    for lo, hi in intervals:
        if hi > lo:
            total += np.asarray(integrate_callable(
                fn, phi.symmetry, spec, x1_range=(lo, hi)).value)
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

def _random_bump_pair(rng, radius: float = 8.0) -> FieldPair:
    """Seeded smooth localized cylindrical pair."""
    def bump():
        c = rng.uniform(-radius, radius)
        a = rng.uniform(1.0, 3.0)
        b = rng.uniform(1.0, 3.0)
        amp = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
        alpha = rng.uniform(-0.5, 0.5)
        beta = rng.uniform(-0.2, 0.2)

        def fn(X, c=c, a=a, b=b, amp=amp, alpha=alpha, beta=beta):
            rb2 = np.sum(X[:, 1:] ** 2, axis=1)
            return (amp * np.exp(-((X[:, 0] - c) / a) ** 2 - rb2 / b**2)
                    * (1.0 + alpha * X[:, 0] + beta * rb2))

        def grad(X, c=c, a=a, b=b, amp=amp, alpha=alpha, beta=beta):
            rb2 = np.sum(X[:, 1:] ** 2, axis=1)
            e = amp * np.exp(-((X[:, 0] - c) / a) ** 2 - rb2 / b**2)
            poly = 1.0 + alpha * X[:, 0] + beta * rb2
            g = np.zeros_like(X)
            g[:, 0] = e * (alpha - 2.0 * (X[:, 0] - c) / a**2 * poly)
            g[:, 1:] = e[:, None] * X[:, 1:] * (2.0 * beta
                                                - 2.0 * poly / b**2)[:, None]
            return g

        return FormulaField(fn, grad, symmetry="cylindrical", decay=None)

    return FieldPair(bump(), bump())


class _ProjectedForm:
    """H_ell form and norm of a pair after projecting out the correctors.

    The correctors c_k are the boosted kernel pairs and the two exponential
    directions.  For a pair v the coefficients s solve M s = cons(v), with
    rows pairing against the kernel pairs (energy pairing) and the Z
    partners (L2).  Every pair is sampled once, in the "both" feature layout
    of ``fields``, on the fixed node set of spec: the features of v
    (its first component, that component's gradient and its second
    component) give cons(v), and since features are linear in the pair the
    projected pair v - sum_k s_k c_k has the features Sv - Sc s, whose
    weighted products are its form and norm.  The correctors' features Sc
    and M are taken once, so a probe sample costs one sampling of v.
    """

    def __init__(self, ell: float, Q: ScalarField, kernel_fields,
                 directions, gamma: float | None, spec: QuadratureSpec):
        self.ell = ell
        self.kernel_pairs = [pair_vector(g, ell, 1) for g in kernel_fields]
        self.correctors = self.kernel_pairs + [directions["+"].pair,
                                               directions["-"].pair]
        self.X, w = node_set("cylindrical", spec)
        z2 = (WeightZeta(gamma).field().evaluate(self.X) ** 2
              if gamma is not None else 1.0)
        self.w_zeta = w * z2
        self.w_pot = w * 3.0 * boost_profile(Q, ell).evaluate(self.X) ** 2
        self.Sc = _pairing_features(self.correctors, self.X, "both")
        # constraint rows: energy pairing with the kernel pairs, L2 pairing
        # with the Z partners
        self.kern_rows = (w[:, None, None]
                          * self.Sc[:, :len(kernel_fields), _H_COLS])
        self.z_rows = w[:, None, None] * _pairing_features(
            [directions["+"].z_pair, directions["-"].z_pair], self.X, "l2")
        self.M = self._constraints(self.Sc)

    def _constraints(self, S) -> np.ndarray:
        """Constraint pairings (rows, n) with the pairs whose features are
        S."""
        return np.concatenate([
            np.einsum("pik,pjk->ij", self.kern_rows, S[..., _H_COLS]),
            np.einsum("pik,pjk->ij", self.z_rows, S[..., _L2_COLS])])

    def _form(self, S) -> tuple:
        """(H_ell form, norm) of the pair whose features at the nodes are
        S; both carry the weight when one is set."""
        h = S[:, _H_COLS]
        norm = self.w_zeta @ np.einsum("pk,pk->p", h, h)
        cross = 2.0 * self.w_zeta @ (h[:, _H_SECOND] * h[:, _H_D1])
        pot = self.w_pot @ S[:, 0] ** 2
        return float(norm + self.ell * cross - pot), float(norm)

    def form_and_norm(self, u: FieldPair) -> tuple:
        """(H_ell form, squared norm) of u itself, unprojected; both carry
        the weight when one is set."""
        return self._form(_pairing_features([u], self.X, "both")[:, 0])

    def __call__(self, v: FieldPair) -> tuple:
        """(projected form, projected norm, coefficients s, constraints)."""
        Sv = _pairing_features([v], self.X, "both")
        cons = self._constraints(Sv)[:, 0]
        s = np.linalg.solve(self.M, cons)
        Fp, Np = self._form(Sv[:, 0] - np.einsum("pik,i->pk", self.Sc, s))
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
    is then evaluated through precomputed bilinear blocks on the fixed node
    set of spec (an adaptive spec raises ValueError), so each sample costs
    one evaluation of the pair.  gamma switches to the weighted form with
    the same projection penalty structure.
    """
    spec = spec or QuadratureSpec(scheme="fixed", nodes=10, r_max=30.0)
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
    plus the three commutator integrals (all returned separately)."""
    spec = QuadratureSpec(scheme="fixed", nodes=12, r_max=30.0)
    Ql = boost_profile(Q, ell)
    w = zeta.field()

    def fn(X):
        g1 = v.first.gradient(X)
        v1 = v.first.evaluate(X)
        v2 = v.second.evaluate(X)
        q2 = 3.0 * Ql.evaluate(X) ** 2
        z = w.evaluate(X)
        gz = w.gradient(X)
        lapz = zeta.laplacian(X)
        # weighted form integrand (the localized-coercivity left side)
        lhs = ((np.einsum("ij,ij->i", g1, g1) + v2 * v2
                + 2.0 * ell * g1[:, 0] * v2) * z * z - q2 * v1 * v1)
        # form of the weighted pair: grad(v1 z) = z grad v1 + v1 grad z
        gvz = g1 * z[:, None] + v1[:, None] * gz
        pair_form = (np.einsum("ij,ij->i", gvz, gvz) + (v2 * z) ** 2
                     + 2.0 * ell * gvz[:, 0] * (v2 * z) - q2 * (v1 * z) ** 2)
        # the three commutator integrals: pair_form = lhs + t1 + t2 + t3
        t1 = -v1 * v1 * z * lapz
        t2 = 2.0 * ell * v1 * v2 * z * gz[:, 0]
        t3 = q2 * v1 * v1 * (1.0 - z * z)
        return np.stack([lhs, pair_form, t1, t2, t3], axis=1)

    vals = np.asarray(integrate_callable(fn, "cylindrical", spec).value)
    lhs, pair_form, t1, t2, t3 = [float(x) for x in vals]
    return dict(weighted_form=lhs, pair_form=pair_form, laplacian_term=t1,
                cross_term=t2, potential_term=t3,
                gap=pair_form - (lhs + t1 + t2 + t3))
