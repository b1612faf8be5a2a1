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

Fields here are flat combinations over leaves (``fields.Combination``).
Built data u = sum Q_n + phi hold the solitons' own leaves, so
dev = u - sum Q_n cancels them exactly.  A round trip costs four quadrature
passes: ``build_initial_data`` takes its system from one block whose Z+
columns pair in L2 and whose basis columns pair in energy; ``decompose``
takes one block of the rows [dev] + basis against the columns [dev] + basis
(energy) and Z+- (L2); ``compute_c`` takes one localized pass per soliton.
The decompose block holds ||dev||^2, the Gram matrix G and the right-hand
side h, and, because phi = dev - sum c_k f_k with G c = h, also
||phi||^2 = H_dd - c.h and (phi, Z+-)_L2 = (dev, Z+-)_L2 - c.(f, Z+-)_L2.
Only where that subtraction cancels (phi much smaller than dev) does
decompose pass over [phi] + Z+- explicitly.  The passes stream through
``integrate_callable`` in batches of at most 2,048 nodes, each block with
the x4 degree its pairs give (``fields.feature_degree``), so the
bicylindrical u rule takes only the points that degree needs.  On the
criterion-8 data (nodes 6, r_max 25; degree 6, so 4 u points and 31,248
nodes a pass) a decompose batch maps each of its 14 distinct leaves once
and holds, per node, 52 leaf reads (values and gradient entries) and 57
features, about 0.9 MB each a batch;
the block is contracted from the features without a per-node block, through
weighted copies of one kind's stacks at a time (at most 70 entries a node,
1.1 MB, for the energy rows and columns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boosts import build_exp_directions, traveling_pair
from .fields import FieldPair, ScalarField, pair_sum, pairing_block
from .interactions import MultiSolitonConfig, localized_pairing, sigma_rate
from .quadrature import QuadratureSpec
from .states import translate


# decompose takes an explicit pass for the remainder once the one-block
# subtraction H_dd - c.h falls below H_dd by this factor: about 4 of 16
# digits of ||phi||^2 and 2 of z
_CANCELLATION = 1e4


class GramIllConditioned(RuntimeError):
    pass


def shift_pair(p: FieldPair, c: float) -> FieldPair:
    """p moved to x1 = c: each component f(x - c e1)."""
    x0 = np.array([-c, 0.0, 0.0, 0.0])
    return FieldPair(translate(p.first, x0), translate(p.second, x0))


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


def basis_pairs(cfg: MultiSolitonConfig, t: float) -> tuple:
    """(pairs, labels) of the basis at time t: the slow pairs ("a", n), then
    the kernel pairs ("b", n, k) row by row."""
    pairs = [traveling_pair(s, ell, t, 1)
             for s, ell in zip(cfg.slow, cfg.speeds)]
    labels = [("a", n) for n in range(cfg.n)]
    for n, (row, ell) in enumerate(zip(cfg.kernels, cfg.speeds)):
        pairs += [traveling_pair(f, ell, t, 1) for f in row]
        labels += [("b", n, k) for k in range(len(row))]
    return pairs, labels


def gram_system(cfg: MultiSolitonConfig, t: float,
                spec: QuadratureSpec | None = None) -> np.ndarray:
    """Energy-pairing Gram matrix of the kernel-direction basis pairs."""
    fields, _ = basis_pairs(cfg, t)
    return pairing_block(fields, fields, "h", cfg.quad_spec(t, spec))


def exp_direction_family(cfg: MultiSolitonConfig, rates_fields,
                         ) -> list:
    """Per-soliton exponential directions from static eigenpairs.

    rates_fields is a list of (lam_j, Y_j) from the radial eigensolve; the
    same family is boosted to each soliton speed.
    """
    return [[build_exp_directions(Y, lam, ell) for lam, Y in rates_fields]
            for ell in cfg.speeds]


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
    val = localized_pairing(phi_first, psi_n, ell, sigma, t,
                            cfg.quad_spec(t, spec), (ell * t,))
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
    dev = pair_sum([u] + _soliton_pairs(cfg, t), [1.0] + [-1.0] * cfg.n)
    fields, _ = basis_pairs(cfg, t)

    # one block: ||dev||^2, the Gram matrix and the right-hand side in the
    # energy pairing, and (dev, Z+-)_L2 with the basis rows' (f, Z+-)_L2
    P = [dev] + fields
    Z = _z_columns(cfg, directions, t) if directions is not None else []
    B = pairing_block(P, P + Z, ["h"] * len(P) + ["l2"] * len(Z), spec_c)
    H, L = B[:, :len(P)], B[:, len(P):]
    dev_norm = math.sqrt(max(H[0, 0], 0.0))
    if dev_norm >= gamma0:
        raise ValueError(f"deviation {dev_norm:.3g} outside the gamma0 = "
                         f"{gamma0} tube; decomposition not attempted")
    # an empty basis has condition number 1
    cond = float(np.linalg.cond(H[1:, 1:])) if fields else 1.0
    if cond > cond_threshold:
        raise GramIllConditioned(
            f"Gram condition {cond:.3g} exceeds {cond_threshold:.3g}; "
            "solitons too close or t too small")
    coef = np.linalg.solve(H[1:, 1:], H[0, 1:]) if fields else np.zeros(0)

    # the basis lists the slow directions, then the kernel rows
    a, b = coef[:cfg.n], coef[cfg.n:].reshape(cfg.n, cfg.n_kernel)
    phi = pair_sum([dev] + fields, [1.0] + [-float(c) for c in coef])

    # phi = dev - sum c_k f_k with G c = h, so ||phi||^2 = H_dd - c.h and
    # (phi, Z)_L2 = (dev, Z)_L2 - c.(f, Z)_L2, unless the subtraction cancels
    phi_sq = H[0, 0] - coef @ H[0, 1:]
    z_row = L[0] - coef @ L[1:]
    if H[0, 0] >= _CANCELLATION * phi_sq:
        row = pairing_block([phi], [phi] + Z,
                            ["h"] + ["l2"] * len(Z), spec_c)[0]
        phi_sq, z_row = row[0], row[1:]
    zp, zm = _split_z(z_row, cfg.n)

    cs = np.zeros(cfg.n)
    if cfg.n >= 2:
        sigma = default_sigma(cfg)
        cs = np.array([compute_c(phi.first, cfg, n, t, sigma, spec)
                       for n in range(cfg.n)])

    return ModulationState(t=t, a=a, b=b, remainder=phi, z_plus=zp,
                           z_minus=zm, c=cs,
                           remainder_norm=math.sqrt(max(phi_sq, 0.0)),
                           gram_cond=cond)


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

    fields, labels = basis_pairs(cfg, T)
    columns = _z_columns(cfg, directions, T, signs=("+",)) + fields
    col_labels = [("z", n, j) for n in range(cfg.n) for j in range(J)] + labels

    # one pass: L2 rows of the Z+ partners, energy rows of the basis; each
    # pairing is symmetric, so they are the transpose of the block whose
    # columns take those kinds
    A = pairing_block(columns, columns,
                      ["l2"] * z.size + ["h"] * len(fields), spec_c).T
    coef = np.linalg.solve(A, np.concatenate([z.ravel(),
                                              np.zeros(len(fields))]))

    phi = pair_sum(columns, list(coef))
    coeff_l1 = float(np.sum(np.abs(coef)))
    return dict(u=pair_sum(_soliton_pairs(cfg, T) + [phi]), phi=phi,
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
