"""Nonlinear interaction term of a multi-soliton sum and its decay laws.

For N collinear traveling waves Q_n with distinct speeds and small correction
parameters (a, b) along the kernel directions, the cubic nonlinearity leaves
the interaction remainder

    G = (R + U + V)^3 - sum Q_n^3 - 3 sum a_n Q_n^2 Psi_n
        - 3 sum b_nk Q_n^2 Phi_nk,

R = sum Q_n, U = sum a_n Psi_n, V = sum b_nk Phi_nk.  G splits into a pure
interaction part G1, a pure quadratic same-soliton part G2 and mixed parts
G3_1..G3_4; the split is algebraic and is checked pointwise against the
direct assembly.  The module measures the L2 decay laws of these parts on
geometric time grids: ~t^-4 for G1 built on the anisotropic excited-state
surrogate, ~t^-2 for the same quantity built on the ground state, the
two-center power/log laws for model kernels, and the log-time growth of the
localized self-pairing of the slow kernel direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable

import numpy as np

from .boosts import traveling_profile
from .fields import FormulaField, ScalarField, sum_field
from .fitting import DecayFit, fit_log_linear, fit_loglog
from .quadrature import (QuadratureSpec, integrate_callable, join_symmetry,
                         product_degree, sum_degree)
from .states import (ground_state, surrogate_excited_state,
                     symmetry_generator, translate)

PARAM_THRESHOLD = 0.1


def cutoff_bump(s):
    """Even cutoff: 1 on [0,1], cubic ramp down to 0 at 2, 0 beyond."""
    s = np.abs(np.asarray(s, dtype=float))
    u = np.clip(s - 1.0, 0.0, 1.0)
    return 1.0 - 3.0 * u**2 + 2.0 * u**3


def soliton_frame_radius(X, ell: float, t: float) -> np.ndarray:
    """|((x1 - ell t)/sqrt(1-ell^2), xbar)| for each point."""
    g = 1.0 / math.sqrt(1.0 - ell * ell)
    y1 = (X[:, 0] - ell * t) * g
    return np.sqrt(y1**2 + np.sum(X[:, 1:] ** 2, axis=1))


@dataclass
class MultiSolitonConfig:
    """N traveling profiles with kernel-direction correction parameters.

    slow[n] is the slow kernel field of soliton n (paired with a_n) and
    kernels[n] the remaining basis fields (paired with b_nk).  Speeds must
    be strictly increasing and the corrections small.
    """

    profiles: list
    speeds: list
    signs: list
    a: np.ndarray
    b: np.ndarray
    slow: list
    kernels: list

    def __post_init__(self):
        n = len(self.profiles)
        if n < 1:
            raise ValueError("need at least one soliton")
        if len(self.speeds) != n or len(self.signs) != n:
            raise ValueError("speeds/signs length mismatch")
        ells = np.asarray(self.speeds, dtype=float)
        if np.any(np.abs(ells) >= 1.0):
            raise ValueError("speeds must satisfy |ell| < 1")
        if n > 1 and np.any(np.diff(ells) <= 0):
            raise ValueError("speeds must be strictly increasing")
        self.a = np.asarray(self.a, dtype=float).reshape(n)
        self.b = np.asarray(self.b, dtype=float)
        if self.b.ndim == 1:
            self.b = self.b.reshape(n, -1)
        if self.b.shape[0] != n:
            raise ValueError("b must have one row per soliton")
        size = float(np.linalg.norm(self.a) + np.linalg.norm(self.b))
        if size > PARAM_THRESHOLD:
            raise ValueError(
                f"|a|+|b| = {size:.3g} exceeds threshold {PARAM_THRESHOLD}")

    @property
    def n(self) -> int:
        return len(self.profiles)

    @property
    def n_kernel(self) -> int:
        return self.b.shape[1]

    def centers(self, t: float):
        return tuple(ell * t for ell in self.speeds)

    def quad_spec(self, t: float, base: QuadratureSpec | None = None
                  ) -> QuadratureSpec:
        """base graded around the centers at time t, with first panels no
        wider than the narrowest profile core."""
        base = base or QuadratureSpec()
        core = min([base.core] + [p.core or 1.0 for p in self.profiles])
        return replace(base.with_centers(self.centers(t)), core=core)

    def traveling_profiles(self, t: float) -> list:
        """The signed traveling profiles Q_n at time t."""
        return [traveling_profile(p, ell, t, tau) for p, ell, tau
                in zip(self.profiles, self.speeds, self.signs)]

    def x1_window(self, t: float, spec: QuadratureSpec) -> tuple:
        """x1 range reaching spec.r_max (60 when unset) past every center."""
        reach = spec.r_max or 60.0
        return min(self.centers(t)) - reach, max(self.centers(t)) + reach


def two_soliton_config(profile: ScalarField, slow: ScalarField, kernels,
                       speeds=(-0.5, 0.5), a=None, b=None
                       ) -> MultiSolitonConfig:
    n = len(speeds)
    k = len(kernels)
    return MultiSolitonConfig(
        profiles=[profile] * n, speeds=list(speeds), signs=[1] * n,
        a=np.zeros(n) if a is None else np.asarray(a, dtype=float),
        b=np.zeros((n, k)) if b is None else np.asarray(b, dtype=float),
        slow=[slow] * n, kernels=[list(kernels)] * n)


@dataclass(frozen=True)
class SolitonProfile:
    """A row of PROFILES: the profile's constructor, the generator id of
    its slow direction, those of its kernel directions, and the power p of
    its interaction law ||G1|| ~ t^-p."""

    build: Callable[[], ScalarField]
    slow: str
    kernels: tuple
    g1_power: int

    def fields(self) -> tuple:
        """(profile, slow field, [kernel fields]), built afresh."""
        Q = self.build()
        return (Q, symmetry_generator(Q, self.slow),
                [symmetry_generator(Q, g) for g in self.kernels])


PROFILES = {
    "surrogate": SolitonProfile(surrogate_excited_state, "conformal_4",
                                ("scaling", "translation_1"), 4),
    "ground": SolitonProfile(ground_state, "scaling", ("translation_1",), 2),
}


def soliton_config(profile: str, speeds) -> MultiSolitonConfig:
    """One soliton of PROFILES[profile] per speed, with the row's slow and
    kernel directions and zero corrections."""
    return two_soliton_config(*PROFILES[profile].fields(),
                              speeds=tuple(speeds))


class GAssembly:
    """Shared pointwise evaluation of all interaction-term components."""

    def __init__(self, cfg: MultiSolitonConfig, t: float):
        if t <= 0:
            raise ValueError("interaction assembly needs t > 0")
        self.cfg = cfg
        self.t = float(t)
        self.Q = cfg.traveling_profiles(t)
        self.Psi = [traveling_profile(s, ell, t, 1) for s, ell
                    in zip(cfg.slow, cfg.speeds)]
        self.Phi = [[traveling_profile(pk, ell, t, 1) for pk in row]
                    for row, ell in zip(cfg.kernels, cfg.speeds)]
        self.symmetry = join_symmetry(
            *[f.symmetry for f in self.Q + self.Psi
              + [p for row in self.Phi for p in row]])
        # the per-soliton corrections w_n = a_n Psi_n + sum_k b_nk Phi_nk:
        # a field whose coefficient is zero drops out of its combination,
        # so it is not sampled
        self.w = [sum_field([psi] + phi, [a] + list(b)) for psi, phi, a, b
                  in zip(self.Psi, self.Phi, cfg.a, cfg.b)]
        # of R + U + V, the largest among the fields sampled; a part is a
        # cubic in them
        self.x4_degree = sum_degree(*[f.x4_degree for f in self.Q + self.w])

    def _componentwise(self, X):
        """(q, w): the profiles Q_n and the corrections w_n at X."""
        return (np.stack([f.evaluate(X) for f in self.Q]),
                np.stack([w.evaluate(X) for w in self.w]))

    def parts(self, X) -> dict:
        """G, G1, G2 (per soliton), G3 (four mixed parts) and the sum
        R + U + V ("RUV") at X, from one sampling of every field.

        The total is formed as G1 + 3 sum_n w_n S_n (R + Q_n)
        + 3 R (U+V)^2 + (U+V)^3 with S_n = sum_{m != n} Q_m summed
        directly, and G1 from S_n and the triple products: no O(1) cube is
        cancelled, so G and G1 keep their relative precision where they are
        much smaller than the profiles."""
        cfg = self.cfg
        q, w = self._componentwise(X)
        q2 = q * q
        R = q.sum(axis=0)
        UV = w.sum(axis=0)
        S = [sum((q[m] for m in range(cfg.n) if m != n), np.zeros_like(R))
             for n in range(cfg.n)]
        g1 = np.zeros_like(R)
        qsum2 = np.zeros_like(R)  # sum_{n != n'} Q_n Q_n'
        cross = np.zeros_like(R)  # sum_n w_n S_n (R + Q_n)
        for n in range(cfg.n):
            g1 += 3.0 * q2[n] * S[n]
            qsum2 += q[n] * S[n]
            cross += w[n] * S[n] * (R + q[n])
        for i, j, k in combinations(range(cfg.n), 3):
            g1 += 6.0 * q[i] * q[j] * q[k]
        total = g1 + 3.0 * cross + 3.0 * R * UV * UV + UV * UV * UV
        g2 = [3.0 * q[n] * w[n] ** 2 for n in range(cfg.n)]
        g31 = np.zeros_like(R)
        g33 = np.zeros_like(R)
        g34 = np.zeros_like(R)
        for n in range(cfg.n):
            others_w2 = sum(w[m] ** 2 for m in range(cfg.n) if m != n)
            others_w = sum(w[m] for m in range(cfg.n) if m != n)
            g31 += 3.0 * q[n] * others_w2
            g33 += 3.0 * q2[n] * others_w
            g34 += 3.0 * R * w[n] * others_w
        g33 += 3.0 * qsum2 * UV
        g32 = UV * UV * UV
        return {"G": total, "G1": g1, "G2": g2, "G3": [g31, g32, g33, g34],
                "RUV": R + UV}

    def squared_stack(self, X) -> np.ndarray:
        """Columns [G1^2, G2_1^2..G2_N^2, G3_1^2..G3_4^2, G^2] at X."""
        p = self.parts(X)
        cols = [p["G1"] ** 2] + [v**2 for v in p["G2"]] \
            + [v**2 for v in p["G3"]] + [p["G"] ** 2]
        return np.stack(cols, axis=1)

    def reconstruction_gap(self, X) -> float:
        """Max |sum of the parts - G| / max |G| at the points X."""
        p = self.parts(X)
        tot = p["G"]
        s = p["G1"] + sum(p["G2"]) + sum(p["G3"])
        scale = np.max(np.abs(tot)) or 1.0
        return float(np.max(np.abs(s - tot)) / scale)


def g_part_norms(cfg: MultiSolitonConfig, t: float,
                 spec: QuadratureSpec | None = None) -> dict:
    """All part norms in one vector quadrature pass at time t."""
    asm = GAssembly(cfg, t)
    sp = cfg.quad_spec(t, spec)
    vals = integrate_callable(asm.squared_stack, asm.symmetry, sp,
                              x1_range=cfg.x1_window(t, sp),
                              x4_degree=product_degree(
                                  *6 * [asm.x4_degree])).value
    vals = np.sqrt(np.maximum(np.asarray(vals), 0.0))
    n = cfg.n
    return dict(t=t, g1=float(vals[0]),
                g2=float(np.linalg.norm(vals[1:1 + n])),
                g3=float(np.linalg.norm(vals[1 + n:5 + n])),
                g=float(vals[5 + n]))


def verify_G_norms(cfg: MultiSolitonConfig, times,
                   spec: QuadratureSpec | None = None) -> dict:
    """L2 norms of G1/G2/G3 on a time grid plus the G1 power-law fit.

    Returns the series, the fitted G1 slope, sup_t ||G2|| / (|a|^2+|b|^2),
    and the fitted constant C in ||G3|| <= C (|a|^2 + |b|^3 + t^-4).
    """
    times = sorted(float(t) for t in times)
    if not times[0] > 0.0:
        raise ValueError("times must be positive")
    if times[-1] / times[0] < 4.0:
        raise ValueError("time window too small for a rate fit")
    a2b2 = float(np.linalg.norm(cfg.a) ** 2 + np.linalg.norm(cfg.b) ** 2)
    a2b3 = float(np.linalg.norm(cfg.a) ** 2 + np.linalg.norm(cfg.b) ** 3)
    rows = [g_part_norms(cfg, t, spec) for t in times]
    out = {"rows": rows}
    out["g1_fit"] = fit_loglog([r["t"] for r in rows], [r["g1"] for r in rows])
    if a2b2 > 0:
        out["g2_ratio_sup"] = max(r["g2"] for r in rows) / a2b2
    else:
        out["g2_zero"] = max(r["g2"] for r in rows)
    out["g3_constant"] = max(r["g3"] / (a2b3 + r["t"] ** -4.0) for r in rows)
    return out


def pairwise_q_norm(cfg: MultiSolitonConfig, t: float,
                    spec: QuadratureSpec | None = None,
                    split: bool = False):
    """sum_{n != n'} ||Q_n^2 Q_n'||_L2, optionally with the two-region
    split of each squared integral (inner/outer in the n-frame).

    The integrand samples each profile once per batch and stacks
    Q_n^4 Q_m^2 over the ordered pairs (n, m), n != m, so one pass per x1
    window serves every pair.  Unsplit, one pass covers the window
    [lo, hi] of :meth:`MultiSolitonConfig.x1_window`.  Split, the region
    of pair (n, m) is |x1 - l_n t| <= half = |l_n - l_m| t sqrt(1 - l_n^2)
    / 2, and the passes run between consecutive points of {lo, hi} and
    every pair's region bounds; a pair's inner part sums the windows inside
    its region and its outer part the others.  A region bound outside
    (lo, hi) raises ValueError.
    """
    if cfg.n < 2:
        return (0.0, []) if split else 0.0
    Q = cfg.traveling_profiles(t)
    pairs = [(n, m) for n in range(cfg.n) for m in range(cfg.n) if m != n]
    ns, ms = (list(i) for i in zip(*pairs))

    def fn(X):
        q2 = np.stack([f.evaluate(X) ** 2 for f in Q], axis=1)
        q4 = q2 * q2
        return q4[:, ns] * q2[:, ms]

    sp = cfg.quad_spec(t, spec)
    lo, hi = cfg.x1_window(t, sp)
    sym = join_symmetry(*[f.symmetry for f in Q])
    deg = sum_degree(*[product_degree(*4 * [Q[n].x4_degree],
                                      *2 * [Q[m].x4_degree])
                       for n, m in pairs])

    def over(a, b):
        return integrate_callable(fn, sym, sp, x1_range=(a, b),
                                  x4_degree=deg).value

    if not split:
        return sum(math.sqrt(max(v, 0.0)) for v in over(lo, hi))
    regions = []
    for n, m in pairs:
        ln, lm = cfg.speeds[n], cfg.speeds[m]
        # region boundary |y1| = |l_n - l_m| t / 2 in the n-frame
        half = 0.5 * abs(ln - lm) * t * math.sqrt(1.0 - ln * ln)
        regions.append((ln * t - half, ln * t + half))
    if not all(lo < b < hi for r in regions for b in r):
        raise ValueError(f"a region bound of {regions} lies outside the "
                         f"x1 window ({lo}, {hi})")
    cuts = sorted({lo, hi}.union(*regions))
    windows = [(a, b, over(a, b)) for a, b in zip(cuts, cuts[1:])]
    total = 0.0
    details = []
    for k, ((n, m), (a_in, b_in)) in enumerate(zip(pairs, regions)):
        inner = outer = 0.0
        for a, b, v in windows:
            if a_in <= a and b <= b_in:
                inner += v[k]
            else:
                outer += v[k]
        details.append(dict(n=n, m=m, inner=float(inner),
                            outer=float(outer)))
        total += math.sqrt(max(inner + outer, 0.0))
    return total, details


def interaction_integral(f1: ScalarField, f2: ScalarField,
                         alpha1: float, alpha2: float, ells, t: float,
                         spec: QuadratureSpec | None = None) -> float:
    """integral of |f1(x - l1 t e1)|^a1 |f2(x - l2 t e1)|^a2 dx.

    Model kernels are expected to carry <x>^-2-type bounds; the quadrature
    grid is graded around both centers.
    """
    if not 0 < alpha1 or not 0 < alpha2:
        raise ValueError("exponents must be positive")
    if alpha1 + alpha2 <= 2.0:
        raise ValueError("need alpha1 + alpha2 > 2 for integrability")
    l1, l2 = ells
    if l1 == l2:
        raise ValueError("speeds must be distinct")
    g1 = translate(f1, [-l1 * t, 0.0, 0.0, 0.0])
    g2 = translate(f2, [-l2 * t, 0.0, 0.0, 0.0])
    spec = (spec or QuadratureSpec()).with_centers((l1 * t, l2 * t))
    r = spec.r_max or 5.0 * t
    lo, hi = min(l1, l2) * t - r, max(l1, l2) * t + r

    def fn(X):
        return (np.abs(g1.evaluate(X)) ** alpha1
                * np.abs(g2.evaluate(X)) ** alpha2)

    sym = join_symmetry(g1.symmetry, g2.symmetry)
    return integrate_callable(fn, sym, spec, x1_range=(lo, hi)).value


def interaction_rate_table(alpha_pairs, times,
                           spec: QuadratureSpec | None = None) -> list:
    """Fitted two-center laws for <x>^-2 model kernels at speeds -0.5, 0.5.

    Each row reports the exponent pair, the expected law (power slope
    -2 a1 for a2 > 2, 4 - 2(a1+a2) for a2 < 2, or t^-2a1 log t growth for
    a2 = 2) and the fitted slope / log coefficient.
    """
    kernel = FormulaField(lambda X: (1.0 + np.sum(X * X, axis=1)) ** -1.0,
                          symmetry="radial", decay=2.0, name="<x>^-2")
    rows = []
    for a1, a2 in alpha_pairs:
        vals = [interaction_integral(kernel, kernel, a1, a2, (-0.5, 0.5), t,
                                     spec)
                for t in times]
        if a2 > 2.0:
            fit = fit_loglog(times, vals)
            rows.append(dict(alphas=(a1, a2), law="power",
                             expected=-2.0 * a1, fit=fit))
        elif a2 < 2.0:
            fit = fit_loglog(times, vals)
            rows.append(dict(alphas=(a1, a2), law="power",
                             expected=4.0 - 2.0 * (a1 + a2), fit=fit))
        else:
            scaled = [v * t ** (2.0 * a1) for v, t in zip(vals, times)]
            fit = fit_log_linear(times, scaled)
            rows.append(dict(alphas=(a1, a2), law="log",
                             expected="positive log coefficient", fit=fit))
    return rows


def localized_pairing(f: ScalarField, psi: ScalarField, ell: float,
                      sigma: float, t: float, spec: QuadratureSpec,
                      centers) -> float:
    """(f, psi xi)_L2 with the cutoff xi = cutoff_bump(|y| / (sigma t)) in
    the frame of the soliton of speed ell; xi vanishes beyond 2 sigma t, so
    the pass reaches 2 sigma t + 1.

    spec is graded already; its r_max is raised to that reach, and the x1
    window runs the reach past every center in centers.
    """
    def fn(X):
        xi = cutoff_bump(soliton_frame_radius(X, ell, t) / (sigma * t))
        return f.evaluate(X) * psi.evaluate(X) * xi

    reach = 2.0 * sigma * t + 1.0
    sp = replace(spec, r_max=max(spec.r_max or 0.0, reach))
    sym = join_symmetry(f.symmetry, psi.symmetry)
    lo, hi = min(centers) - reach, max(centers) + reach
    # xi depends on (x1, rbar) alone
    return integrate_callable(
        fn, sym, sp, x1_range=(lo, hi),
        x4_degree=product_degree(f.x4_degree, psi.x4_degree)).value


def slow_pairing_series(slow: ScalarField, ell: float, sigma: float, times,
                        other: ScalarField | None = None,
                        other_ell: float | None = None,
                        spec: QuadratureSpec | None = None) -> list:
    """(Psi_n', Psi_n xi_n)_L2 on a time grid (n' = n when other is None).

    The same-soliton series grows like 2 pi^2 sqrt(1-ell^2) log t; the
    cross-soliton series stays bounded.
    """
    out = []
    for t in times:
        psi_n = traveling_profile(slow, ell, t, 1)
        if other is None:
            psi_m = psi_n
        else:
            psi_m = traveling_profile(other, other_ell, t, 1)
        centers = (ell * t,) if other is None else (ell * t, other_ell * t)
        sp = (spec or QuadratureSpec()).with_centers(centers)
        out.append(localized_pairing(psi_m, psi_n, ell, sigma, t, sp,
                                     centers))
    return out


def slow_pairing_lawcheck(slow: ScalarField, ell: float, times,
                          sigma: float = 0.1,
                          spec: QuadratureSpec | None = None) -> DecayFit:
    """Fit of the same-soliton localized pairing against log t."""
    vals = slow_pairing_series(slow, ell, sigma, times, spec=spec)
    return fit_log_linear(times, vals)


def sigma_rate(ell: float) -> float:
    """Coefficient 2 pi^2 sqrt(1 - ell^2) of the log-time pairing growth."""
    return 2.0 * math.pi**2 * math.sqrt(1.0 - ell * ell)
