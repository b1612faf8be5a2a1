"""Lorentz boosts along e1, traveling-wave pairs, the matrix operator H_ell
and its exponential directions.

A boosted profile is f_ell(x) = f(x1 / sqrt(1 - ell^2), x2, x3, x4); the
associated energy-space pair is (tau f_ell, -tau ell d/dx1 f_ell).  The
first-order operator pencil around a boosted state is

    H_ell (v1, v2) = ((-Delta - 3 Q_ell^2) v1 - ell d1 v2,  ell d1 v1 + v2)

with symplectic matrix J (v1, v2) = (v2, -v1).  Each negative eigenpair
(lambda_j, Y_j) of the static linearized operator produces a growing/decaying
pair of directions whose evolution rate is lambda_j sqrt(1 - ell^2); their
pairing partners Z~+- can be computed either as H_ell applied to the
directions or from the closed-form J identity, and the two routes are
compared as a consistency check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    AffineField,
    FieldPair,
    FormulaField,
    ScalarField,
    inner_l2,
    inner_pair_l2,
    zero_field,
)
from .fitting import sup_on_spheres
from .quadrature import SYM_CYL, QuadratureSpec, integrate_callable, join_symmetry


@dataclass(frozen=True)
class Boost:
    ell: float

    def __post_init__(self):
        if not abs(self.ell) < 1.0:
            raise ValueError("boost speed must satisfy |ell| < 1")

    @property
    def gamma(self) -> float:
        return 1.0 / math.sqrt(1.0 - self.ell**2)


def boost_profile(f: ScalarField, ell: float) -> ScalarField:
    """f_ell(x) = f(x1/sqrt(1-ell^2), x2, x3, x4), the traveling profile at
    t = 0."""
    return traveling_profile(f, ell, 0.0)


def traveling_profile(f: ScalarField, ell: float, t: float,
                      tau: int = 1) -> ScalarField:
    """tau * f_ell(x - ell t e1), the soliton profile at time t."""
    b = Boost(ell)
    if ell == 0.0 and t == 0.0 and tau == 1:
        return f
    A = np.eye(4)
    A[0, 0] = b.gamma
    shift = np.array([-b.gamma * ell * t, 0.0, 0.0, 0.0])
    sym = f.symmetry if (ell == 0.0 and t == 0.0) else \
        join_symmetry(f.symmetry, SYM_CYL)
    return AffineField(f, A, shift, prefactor=float(tau), symmetry=sym,
                       decay=f.decay)


def traveling_pair(f: ScalarField, ell: float, t: float,
                   tau: int = 1) -> FieldPair:
    """Pair (tau f_ell, -tau ell d1 f_ell) recentred at x1 = ell t."""
    ft = traveling_profile(f, ell, t, tau)
    if ell == 0.0:
        return FieldPair(ft, zero_field())
    return FieldPair(ft, component_derivative(ft, 0) * (-ell))


def component_derivative(f: ScalarField, axis: int) -> FormulaField:
    """The field x -> (grad f)(x)[axis]."""
    dec = None if f.decay is None else f.decay + 1
    return FormulaField(lambda X: f.gradient(X)[:, axis],
                        symmetry=f.symmetry, decay=dec,
                        name=f"d{axis + 1}[{getattr(f, 'name', '')}]")


def pair_vector(f: ScalarField, ell: float, tau: int = 1) -> FieldPair:
    """Traveling-wave pair (tau f_ell, -tau ell d1 f_ell), the traveling pair
    at t = 0."""
    return traveling_pair(f, ell, 0.0, tau)


def fd_laplacian(f: ScalarField, step: float = 1e-2) -> FormulaField:
    """4th-order finite-difference Laplacian of a scalar field."""
    offs = np.array([-2.0, -1.0, 1.0, 2.0]) * step
    cofs = np.array([-1.0, 16.0, 16.0, -1.0]) / (12.0 * step * step)
    center = -30.0 / (12.0 * step * step)

    def fn(X):
        out = 4.0 * center * f.evaluate(X)
        for ax in range(4):
            for o, c in zip(offs, cofs):
                Xs = X.copy()
                Xs[:, ax] += o
                out = out + c * f.evaluate(Xs)
        return out

    return FormulaField(fn, symmetry=f.symmetry, decay=f.decay,
                        name=f"lap[{getattr(f, 'name', '')}]")


def apply_H_ell(v: FieldPair, ell: float, Q: ScalarField,
                fd_step: float = 1e-2) -> FieldPair:
    """H_ell v = ((-Delta - 3 Q_ell^2) v1 - ell d1 v2, ell d1 v1 + v2).

    The Laplacian uses 4th-order stencils with the given step, so kernel
    residuals shrink at that order under step refinement.
    """
    Boost(ell)
    Ql = boost_profile(Q, ell)
    lap = fd_laplacian(v.first, fd_step)
    d1v2 = component_derivative(v.second, 0)
    d1v1 = component_derivative(v.first, 0)

    def first(X):
        return (-lap.evaluate(X) - 3.0 * Ql.evaluate(X) ** 2 * v.first.evaluate(X)
                - ell * d1v2.evaluate(X))

    def second(X):
        return ell * d1v1.evaluate(X) + v.second.evaluate(X)

    sym = join_symmetry(v.symmetry, Ql.symmetry)
    return FieldPair(FormulaField(first, symmetry=sym),
                     FormulaField(second, symmetry=sym))


def quadratic_form_H(v: FieldPair, ell: float, Q: ScalarField,
                     spec: QuadratureSpec | None = None) -> float:
    """(H_ell v, v)_L2 in first-order form (no second derivatives):

    integral of |grad v1|^2 - 3 Q_ell^2 v1^2 + v2^2 + 2 ell v2 d1(v1).
    """
    spec = spec or QuadratureSpec()
    Ql = boost_profile(Q, ell)

    def fn(X):
        g1 = v.first.gradient(X)
        v1 = v.first.evaluate(X)
        v2 = v.second.evaluate(X)
        return (np.einsum("ij,ij->i", g1, g1) + v2 * v2
                + 2.0 * ell * v2 * g1[:, 0]
                - 3.0 * Ql.evaluate(X) ** 2 * v1 * v1)

    return integrate_callable(fn, join_symmetry(v.symmetry, Ql.symmetry),
                              spec, decay=None).value


@dataclass
class ExpDirection:
    """One exponential direction of H_ell (sign +1 grows forward in time)."""

    j: int
    sign: int
    ell: float
    lam: float
    rate: float
    pair: FieldPair
    z_pair: FieldPair

    @property
    def alpha(self) -> float:
        return self.rate


def _safe_exp_product(vals, s):
    """vals * exp(s), assembled in log space once the exponent is large so
    the growing factor never overflows before the decaying profile wins."""
    out = np.zeros_like(vals)
    small = np.abs(s) <= 500.0
    out[small] = vals[small] * np.exp(s[small])
    big = ~small & (vals != 0.0)
    if np.any(big):
        out[big] = np.sign(vals[big]) * np.exp(s[big] + np.log(np.abs(vals[big])))
    return out


def _direction_fields(Yj, lam, ell, sign):
    """(first, second) fields of one exponential direction, with exact
    gradients from the eigenfield's radial derivative data."""
    parts = getattr(Yj, "radial_parts", None)
    if parts is None:
        raise TypeError("exponential directions need a radial eigenfield "
                        "with radial_parts (spectrum.radial_eigenfield)")
    gamma = 1.0 / math.sqrt(1.0 - ell**2)
    kexp = -sign * ell * lam * gamma  # exponent slope along x1
    val_r, d1_r, d2_r = parts
    gvec = np.array([gamma, 1.0, 1.0, 1.0])

    def geometry(X):
        U = X * gvec
        rl = np.linalg.norm(U, axis=1)
        rs = np.maximum(rl, 1e-12)
        n = U / rs[:, None]
        return rl, rs, n

    def first_fn(X):
        rl, _, _ = geometry(X)
        return _safe_exp_product(val_r(rl), kexp * X[:, 0])

    def first_grad(X):
        rl, rs, n = geometry(X)
        v, d1 = val_r(rl), d1_r(rl)
        g = d1[:, None] * n * gvec[None, :]
        g[:, 0] += kexp * v
        return _safe_exp_product(g, np.repeat(kexp * X[:, 0:1], 4, axis=1))

    def core_terms(X):
        rl, rs, n = geometry(X)
        v, d1 = val_r(rl), d1_r(rl)
        return rl, rs, n, v, d1, -ell * gamma * d1 * n[:, 0] + sign * lam * gamma * v

    def second_fn(X):
        *_, core = core_terms(X)
        return _safe_exp_product(core, kexp * X[:, 0])

    def second_grad(X):
        rl, rs, n, v, d1, core = core_terms(X)
        d2 = d2_r(rl)
        g = np.zeros_like(n)
        for jax in range(4):
            gj = gvec[jax]
            dn1 = d2 * n[:, jax] * gj * n[:, 0] + (d1 / rs) * (
                (gamma if jax == 0 else 0.0) - n[:, 0] * n[:, jax] * gj)
            g[:, jax] = -ell * gamma * dn1 + sign * lam * gamma * d1 * n[:, jax] * gj
        g[:, 0] += kexp * core
        return _safe_exp_product(g, np.repeat(kexp * X[:, 0:1], 4, axis=1))

    sym = join_symmetry(Yj.symmetry, SYM_CYL)
    return (FormulaField(first_fn, first_grad, symmetry=sym,
                         name=f"ups{sign:+d},1"),
            FormulaField(second_fn, second_grad, symmetry=sym,
                         name=f"ups{sign:+d},2"))


def build_exp_directions(Yj: ScalarField, lam: float, ell: float,
                         j: int = 1) -> dict:
    """Both exponential directions for one eigenpair of the static operator.

    Yj must be a radial eigenfield carrying ``radial_parts`` (as
    :func:`spectrum.radial_eigenfield` builds them); anything else raises
    TypeError.  Returns {'+': ExpDirection, '-': ExpDirection} with rate
    lam * sqrt(1 - ell^2); z_pair holds the closed-form J-identity partner
    -sign * rate * J(pair).  Consistency with H_ell applied directly is
    checked by :func:`z_identity_residual`.
    """
    if lam <= 0:
        raise ValueError("need a positive rate lambda_j")
    Boost(ell)
    rate = lam * math.sqrt(1.0 - ell**2)
    out = {}
    for sign in (+1, -1):
        first, second = _direction_fields(Yj, lam, ell, sign)
        pair = FieldPair(first, second)
        # Z = -sign * rate * J pair = -sign * rate * (pair2, -pair1)
        z = FieldPair(second * (-sign * rate), first * (sign * rate))
        out["+" if sign > 0 else "-"] = ExpDirection(
            j=j, sign=sign, ell=ell, lam=lam, rate=rate, pair=pair, z_pair=z)
    return out


def z_identity_residual(direction: ExpDirection, Q: ScalarField,
                        spec: QuadratureSpec | None = None,
                        fd_step: float = 1e-2) -> float:
    """Relative L2 gap between H_ell(pair) and the closed-form z_pair."""
    spec = spec or QuadratureSpec(r_max=25.0)
    Hp = apply_H_ell(direction.pair, direction.ell, Q, fd_step=fd_step)
    diff1 = Hp.first - direction.z_pair.first
    diff2 = Hp.second - direction.z_pair.second
    num = math.sqrt(max(inner_l2(diff1, diff1, spec)
                        + inner_l2(diff2, diff2, spec), 0.0))
    den = math.sqrt(max(inner_pair_l2(direction.z_pair, direction.z_pair,
                                      spec), 1e-300))
    return num / den


def exp_direction_decay_check(direction: ExpDirection, radii) -> float:
    """Smallest fitted decay rate of |pair| along sampled rays.

    The claimed lower bound is lam * sqrt(1 - |ell|) / 2.
    """
    first, second = direction.pair.first, direction.pair.second
    size = FormulaField(lambda X: np.abs(first.evaluate(X))
                        + np.abs(second.evaluate(X)))
    radii = np.asarray(sorted(radii), dtype=float)
    sups = sup_on_spheres(size, radii, n_dirs=32, seed=11)
    rates = -np.diff(np.log(sups)) / np.diff(radii)
    return float(np.min(rates))
