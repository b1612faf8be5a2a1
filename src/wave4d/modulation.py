"""Decomposition of a field near a multi-soliton sum.

A field pair close to sum Q_n is written as

    u = sum Q_n + sum a_n Psi_n + sum b_nk Phi_nk + phi,

with phi orthogonal (energy pairing) to every Psi_n and Phi_nk.  Because the
corrections enter linearly, the decomposition is a single Gram solve rather
than a Newton iteration; a condition-number guard replaces the paper-style
implicit-function hypothesis (it fires when solitons are too close or t is
too small).  The same machinery builds well-prepared initial data with
prescribed pairings against the outgoing exponential directions and zero
kernel-direction coefficients, and both directions compose to the identity
up to linear-solver precision.

A round trip costs five quadrature passes, each sampling every field once
per batch of quadrature nodes: ``build_initial_data`` takes its L2 and
energy rows from one "both" block; ``decompose`` gets ||dev||^2, the Gram
matrix and the right-hand side from one energy block of [dev] + basis, then
||phi||^2 and (phi, Z+-)_L2 from one "both" block of [phi] + Z+-;
``compute_c`` takes one localized pass per soliton.  The passes stream
through ``integrate_callable`` in batches of at most 2,048 nodes
instead of stacking features on a ``node_set``: one surrogate pass has about
4.7e4 nodes at nodes 6, r_max 25 (1.2e5 at nodes 8, r_max 30), and six
feature columns per pair on all of them would hold about 2.2 MB (5.7 MB) a
pair at once, 16 MB (40 MB) for the seven pairs of ``decompose``'s first
pass.  A batch holds about 0.1 MB of features a pair, and its largest array
is the per-node block of the pass, about 2 MB at nodes 6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .boosts import build_exp_directions, traveling_pair
from .fields import (
    AffineField,
    FieldPair,
    ScalarField,
    pairing_block,
    sum_field,
)
from .interactions import MultiSolitonConfig, localization_factor, sigma_rate
from .quadrature import QuadratureSpec, integrate_callable, join_symmetry


class GramIllConditioned(RuntimeError):
    pass


def shift_field(f: ScalarField, c: float) -> ScalarField:
    """f(x - c e1)."""
    if c == 0.0:
        return f
    return AffineField(f, np.eye(4), np.array([-c, 0.0, 0.0, 0.0]),
                       symmetry=join_symmetry(f.symmetry, "cylindrical"),
                       decay=f.decay)


def shift_pair(p: FieldPair, c: float) -> FieldPair:
    return FieldPair(shift_field(p.first, c), shift_field(p.second, c))


def _pair_sum(pairs, coeffs=None) -> FieldPair:
    """Componentwise sum_i coeffs_i * pairs_i (all ones by default)."""
    return FieldPair(sum_field([p.first for p in pairs], coeffs),
                     sum_field([p.second for p in pairs], coeffs))


def _soliton_pairs(cfg: MultiSolitonConfig, t: float) -> list:
    """The traveling soliton pairs Q_n at time t."""
    return [traveling_pair(p, ell, t, tau) for p, ell, tau
            in zip(cfg.profiles, cfg.speeds, cfg.signs)]


@dataclass
class ModulationState:
    """Parameters and remainder of one decomposition."""

    t: float
    a: np.ndarray
    b: np.ndarray
    remainder: FieldPair
    z_plus: np.ndarray
    z_minus: np.ndarray
    c: np.ndarray
    remainder_norm: float
    gram_cond: float


@dataclass
class GramSystem:
    matrix: np.ndarray
    labels: list
    cond: float

    @classmethod
    def of(cls, matrix: np.ndarray, labels: list) -> "GramSystem":
        """The system of matrix, with its condition number (1 when empty)."""
        return cls(matrix, labels,
                   float(np.linalg.cond(matrix)) if labels else 1.0)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return np.linalg.solve(self.matrix, rhs)


def basis_pairs(cfg: MultiSolitonConfig, t: float) -> tuple:
    """([Psi-pair per n], [[Phi-pair per k] per n]) at time t."""
    slow = [traveling_pair(s, ell, t, 1)
            for s, ell in zip(cfg.slow, cfg.speeds)]
    kern = [[traveling_pair(pk, ell, t, 1) for pk in row]
            for row, ell in zip(cfg.kernels, cfg.speeds)]
    return slow, kern


def _flatten_basis(slow, kern):
    """(fields, labels): the slow pairs ("a", n), then the kernel pairs
    ("b", n, k) row by row."""
    fields = list(slow) + [p for row in kern for p in row]
    labels = [("a", n) for n in range(len(slow))] + [
        ("b", n, k) for n, row in enumerate(kern) for k in range(len(row))]
    return fields, labels


def gram_system(cfg: MultiSolitonConfig, t: float,
                spec: QuadratureSpec | None = None) -> GramSystem:
    """Energy-pairing Gram matrix of the kernel-direction basis pairs."""
    fields, labels = _flatten_basis(*basis_pairs(cfg, t))
    return GramSystem.of(pairing_block(fields, fields, "h",
                                       cfg.quad_spec(t, spec)), labels)


def exp_direction_family(cfg: MultiSolitonConfig, rates_fields,
                         ) -> list:
    """Per-soliton exponential directions from static eigenpairs.

    rates_fields is a list of (lam_j, Y_j) from the radial eigensolve; the
    same family is boosted to each soliton speed.
    """
    fam = []
    for ell in cfg.speeds:
        per = [build_exp_directions(Y, lam, ell, j=j + 1)
               for j, (lam, Y) in enumerate(rates_fields)]
        fam.append(per)
    return fam


def _z_columns(cfg: MultiSolitonConfig, directions, t: float,
               signs=("+", "-")) -> list:
    """Partners Z_nj of the given signs, shifted to the soliton centers at
    time t; ordered by soliton n, then direction j, then sign."""
    return [shift_pair(dirs[s].z_pair, ell * t)
            for ell, per in zip(cfg.speeds, directions)
            for dirs in per for s in signs]


def _split_z(row: np.ndarray, n_sol: int) -> tuple:
    """(z_plus, z_minus) of shape (N, J) from a row paired with _z_columns."""
    return row[0::2].reshape(n_sol, -1), row[1::2].reshape(n_sol, -1)


def compute_z(phi: FieldPair, cfg: MultiSolitonConfig, directions, t: float,
              spec: QuadratureSpec | None = None) -> tuple:
    """Pairings (phi, Z+-_nj)_L2; returns (z_plus, z_minus) of shape (N, J)."""
    row = pairing_block([phi], _z_columns(cfg, directions, t), "l2",
                        cfg.quad_spec(t, spec))[0]
    return _split_z(row, cfg.n)


def compute_c(phi_first: ScalarField, cfg: MultiSolitonConfig, n: int,
              t: float, sigma: float,
              spec: QuadratureSpec | None = None) -> float:
    """Localized slow-direction average (phi_1, Psi_n xi_n) / (sigma_n log t).

    sigma is the frame-localization width; with one soliton there is no
    speed gap, so the caller must supply it.
    """
    if t <= 1.0:
        raise ValueError("needs t > 1 so log t > 0")
    ell = cfg.speeds[n]
    psi_n = traveling_pair(cfg.slow[n], ell, t, 1).first
    loc = localization_factor(ell, sigma, t)

    def fn(X):
        return phi_first.evaluate(X) * psi_n.evaluate(X) * loc(X)

    sp = cfg.quad_spec(t, spec)
    reach = 2.0 * sigma * t + 1.0
    sp = replace(sp, r_max=max(sp.r_max or 0.0, reach))
    sym = join_symmetry(phi_first.symmetry, psi_n.symmetry)
    lo, hi = ell * t - reach, ell * t + reach
    val = integrate_callable(fn, sym, sp, x1_range=(lo, hi)).value
    return val / (sigma_rate(ell) * math.log(t))


def default_sigma(cfg: MultiSolitonConfig) -> float:
    if cfg.n < 2:
        raise ValueError("sigma is defined from speed gaps; supply it "
                          "explicitly for single-soliton configurations")
    gaps = np.diff(np.asarray(cfg.speeds))
    return 0.1 * float(np.min(gaps))


def decompose(u: FieldPair, cfg: MultiSolitonConfig, t: float,
              spec: QuadratureSpec | None = None,
              directions=None, gamma0: float = 0.1,
              cond_threshold: float = 1e9,
              ) -> ModulationState:
    """Orthogonal decomposition around the soliton sum at time t.

    Raises when the deviation exceeds gamma0 (outside the tube) or the Gram
    matrix is ill-conditioned (solitons too close / t too small).  The slow
    parameters c are localized at default_sigma; a single soliton has no
    speed gap to set it, so its c reads zero.
    """
    spec_c = cfg.quad_spec(t, spec)
    qpairs = _soliton_pairs(cfg, t)
    dev = _pair_sum([u] + qpairs, [1.0] + [-1.0] * len(qpairs))
    fields, labels = _flatten_basis(*basis_pairs(cfg, t))

    # pass 1: ||dev||^2, the Gram matrix and the right-hand side
    P = [dev] + fields
    H = pairing_block(P, P, "h", spec_c)
    dev_norm = math.sqrt(max(H[0, 0], 0.0))
    if dev_norm >= gamma0:
        raise ValueError(f"deviation {dev_norm:.3g} outside the gamma0 = "
                         f"{gamma0} tube; decomposition not attempted")
    gram = GramSystem.of(H[1:, 1:], labels)
    if gram.cond > cond_threshold:
        raise GramIllConditioned(
            f"Gram condition {gram.cond:.3g} exceeds {cond_threshold:.3g}; "
            "solitons too close or t too small")
    coef = gram.solve(H[0, 1:]) if fields else np.zeros(0)

    # labels list the slow directions, then the kernel rows (_flatten_basis)
    a, b = coef[:cfg.n], coef[cfg.n:].reshape(cfg.n, cfg.n_kernel)
    phi = _pair_sum([dev] + fields, [1.0] + [-float(c) for c in coef])

    # pass 2: ||phi||^2 and the pairings (phi, Z+-)_L2
    P = [phi] + (_z_columns(cfg, directions, t) if directions is not None
                 else [])
    H, L = pairing_block(P, P, "both", spec_c)
    zp, zm = _split_z(L[0, 1:], cfg.n)

    cs = np.zeros(cfg.n)
    if cfg.n >= 2:
        sigma = default_sigma(cfg)
        cs = np.array([compute_c(phi.first, cfg, n, t, sigma, spec)
                       for n in range(cfg.n)])

    return ModulationState(t=t, a=a, b=b, remainder=phi, z_plus=zp,
                           z_minus=zm, c=cs,
                           remainder_norm=math.sqrt(max(H[0, 0], 0.0)),
                           gram_cond=gram.cond)


def build_initial_data(cfg: MultiSolitonConfig, T: float, z: np.ndarray,
                       directions, spec: QuadratureSpec | None = None,
                       enforce_ball: bool = True) -> dict:
    """Well-prepared data at time T with prescribed outgoing pairings.

    phi(T) is a combination of outgoing-direction partners Z+_nj and the
    kernel basis pairs, solving the linear system that zeroes every energy
    pairing with the basis and sets (phi, Z+_nj)_L2 = z_nj.  Requires
    |z| <= T^(-7/2); reports the coefficient-to-T^(-7/2) ratio.
    """
    z = np.asarray(z, dtype=float)
    J = len(directions[0])
    if z.shape != (cfg.n, J):
        raise ValueError(f"z must have shape ({cfg.n}, {J})")
    budget = T ** -3.5
    if enforce_ball and float(np.linalg.norm(z)) > budget * (1 + 1e-12):
        raise ValueError(f"|z| = {np.linalg.norm(z):.3g} outside the "
                         f"T^-7/2 = {budget:.3g} ball")
    spec_c = cfg.quad_spec(T, spec)

    fields, labels = _flatten_basis(*basis_pairs(cfg, T))
    columns = _z_columns(cfg, directions, T, signs=("+",)) + fields
    col_labels = [("z", n, j) for n in range(cfg.n) for j in range(J)] + labels

    # one pass: L2 rows of the Z+ partners, energy rows of the basis
    H, L = pairing_block(columns, columns, "both", spec_c)
    A = np.vstack([L[:z.size], H[z.size:]])
    coef = np.linalg.solve(A, np.concatenate([z.ravel(),
                                              np.zeros(len(fields))]))

    phi = _pair_sum(columns, list(coef))
    coeff_l1 = float(np.sum(np.abs(coef)))
    return dict(u=_pair_sum(_soliton_pairs(cfg, T) + [phi]), phi=phi,
                coefficients=dict(zip([str(l) for l in col_labels],
                                      coef.tolist())),
                coeff_l1=coeff_l1, bound_ratio=coeff_l1 / budget,
                matrix_cond=float(np.linalg.cond(A)))


def modulation_residuals(states: list) -> dict:
    """Finite-difference parameter derivatives against their majorants.

    states must sit on a uniform time grid.  Reports max over interior
    times of |da|+|db| over (||phi|| + |a|^2 + |b|^2 + t^-4) and of
    |da_n + dc_n| over the refined majorant with the log factor.
    """
    if len(states) < 3:
        raise ValueError("need at least 3 states on a uniform grid")
    ts = np.array([s.t for s in states])
    dt = np.diff(ts)
    if not np.allclose(dt, dt[0], rtol=1e-8):
        raise ValueError("states must be uniformly spaced in time")
    h = float(dt[0])
    ratios, refined = [], []
    for i in range(1, len(states) - 1):
        da = (states[i + 1].a - states[i - 1].a) / (2 * h)
        db = (states[i + 1].b - states[i - 1].b) / (2 * h)
        dc = (states[i + 1].c - states[i - 1].c) / (2 * h)
        s = states[i]
        major = (s.remainder_norm + np.linalg.norm(s.a) ** 2
                 + np.linalg.norm(s.b) ** 2 + s.t ** -4.0)
        num = float(np.sum(np.abs(da)) + np.sum(np.abs(db)))
        ratios.append(0.0 if num == 0.0 else num / major)
        major_r = (s.remainder_norm / math.sqrt(max(math.log(s.t), 1e-9))
                   + np.linalg.norm(s.a) ** 2 + np.linalg.norm(s.b) ** 2
                   + s.t ** -4.0)
        num_r = float(np.sum(np.abs(da + dc)))
        refined.append(0.0 if num_r == 0.0 else num_r / major_r)
    return dict(times=ts[1:-1].tolist(), ratio=ratios, refined=refined,
                ratio_max=max(ratios), refined_max=max(refined))
