"""Lorentz boosts along e1, traveling-wave pairs, the matrix operator H_ell
and its exponential directions.

A boosted profile is f_ell(x) = f(x1 / sqrt(1 - ell^2), x2, x3, x4); the
associated energy-space pair is (tau f_ell, -tau ell d/dx1 f_ell).  The
first-order operator pencil around a boosted state is

    H_ell (v1, v2) = ((-Delta - 3 Q_ell^2) v1 - ell d1 v2,  ell d1 v1 + v2)

with symplectic matrix J (v1, v2) = (v2, -v1).  Each negative eigenpair
(lambda_j, Y_j) of the static linearized operator produces a growing/decaying
pair of directions whose evolution rate is lambda_j sqrt(1 - ell^2), each
component one :class:`fields.RadialExpField` on Y_j's radial parts under the
boost map (so a translation composes into that leaf's map).  Their pairing
partners Z~+- can be computed either as H_ell applied to the directions or
from the closed-form J identity, and the two routes are compared as a
consistency check.

The H_ell form and its density are defined here once: the transported
density |grad v1|^2 + v2^2 + 2 c (d1 v1) v2 at a speed c (ell, chi_N or 0),
and :class:`HForm`, the form and norm on one node set, which the
coercivity probe projects and :func:`quadratic_form_H` reads as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    AffineField,
    Combination,
    FieldPair,
    FormulaField,
    RadialExpField,
    ScalarField,
    inner_pair_l2,
    pair_sampler,
    pair_sum,
    sum_field,
    zero_field,
)
from .fitting import sup_on_spheres
from .quadrature import SYM_CYL, QuadratureSpec, join_symmetry, node_set
from .states import translate


def lorentz_gamma(ell: float) -> float:
    """1 / sqrt(1 - ell^2) of a boost speed ell; |ell| >= 1 raises."""
    if not abs(ell) < 1.0:
        raise ValueError("boost speed must satisfy |ell| < 1")
    return 1.0 / math.sqrt(1.0 - ell**2)


def traveling_profile(f: ScalarField, ell: float, t: float,
                      tau: int = 1) -> ScalarField:
    """tau * f_ell(x - ell t e1), the soliton profile at time t; at t = 0,
    f_ell(x) = f(x1 / sqrt(1 - ell^2), x2, x3, x4)."""
    gamma = lorentz_gamma(ell)
    if ell == 0.0 and t == 0.0 and tau == 1:
        return f
    scale = np.array([gamma, 1.0, 1.0, 1.0])
    shift = np.array([-gamma * ell * t, 0.0, 0.0, 0.0])
    sym = f.symmetry if (ell == 0.0 and t == 0.0) else \
        join_symmetry(f.symmetry, SYM_CYL)
    ft = AffineField(f, scale, shift, symmetry=sym, decay=f.decay)
    return ft if tau == 1 else ft * float(tau)


def traveling_pair(f: ScalarField, ell: float, t: float,
                   tau: int = 1) -> FieldPair:
    """Pair (tau f_ell, -tau ell d1 f_ell) recentred at x1 = ell t; the
    second component is the derivative leaf of the first's map."""
    ft = traveling_profile(f, ell, t, tau)
    if ell == 0.0:
        return FieldPair(ft, zero_field())
    return FieldPair(ft, component_derivative(ft, 0) * (-ell))


def component_derivative(f: ScalarField, axis: int) -> ScalarField:
    """The field x -> (grad f)(x)[axis]: for a combination of affine
    leaves, the combination of their derivative leaves."""
    dec = None if f.decay is None else f.decay + 1
    if isinstance(f, Combination):
        return Combination(tuple((c, component_derivative(g, axis))
                                 for c, g in f.terms), f.symmetry, dec)
    if isinstance(f, AffineField) and f.derivative is None:
        return AffineField(f.base, f.scale, f.shift, symmetry=f.symmetry,
                           decay=dec, derivative=axis)
    return FormulaField(lambda X: f.gradient(X)[:, axis],
                        symmetry=f.symmetry, decay=dec,
                        name=f"d{axis + 1}[{getattr(f, 'name', '')}]")


def pair_vector(f: ScalarField, ell: float, tau: int = 1) -> FieldPair:
    """Traveling-wave pair (tau f_ell, -tau ell d1 f_ell), the traveling pair
    at t = 0."""
    return traveling_pair(f, ell, 0.0, tau)


def fd_laplacian(f: ScalarField, step: float = 1e-2) -> ScalarField:
    """4th-order finite-difference Laplacian of a scalar field: the
    combination of f and its 16 translates by -2..2 steps along each axis."""
    cofs = np.array([-1.0, 16.0, 16.0, -1.0]) / (12.0 * step * step)
    lap = sum_field([f] + [translate(f, o * step * np.eye(4)[ax])
                           for ax in range(4) for o in (-2.0, -1.0, 1.0, 2.0)],
                    [4.0 * (-30.0 / (12.0 * step * step))] + list(cofs) * 4)
    lap.symmetry = f.symmetry  # the translates across e1 read as full
    return lap


def apply_H_ell(v: FieldPair, ell: float, Q: ScalarField,
                fd_step: float = 1e-2) -> FieldPair:
    """H_ell v = ((-Delta - 3 Q_ell^2) v1 - ell d1 v2, ell d1 v1 + v2).

    The Laplacian uses 4th-order stencils with the given step, so kernel
    residuals shrink at that order under step refinement.
    """
    Ql = traveling_profile(Q, ell, 0.0)
    pot = FormulaField(
        lambda X: 3.0 * Ql.evaluate(X) ** 2 * v.first.evaluate(X),
        symmetry=join_symmetry(v.symmetry, Ql.symmetry))
    return FieldPair(
        sum_field([fd_laplacian(v.first, fd_step), pot,
                   component_derivative(v.second, 0)], [-1.0, -1.0, -ell]),
        sum_field([component_derivative(v.first, 0), v.second], [ell, 1.0]))


def transported_density(h: np.ndarray, c) -> np.ndarray:
    """|grad v1|^2 + v2^2 + 2 c (d1 v1) v2 per node, from a pair's "h"
    features h = (d1 v1, ..., d4 v1, v2) along the first axis; the speed c
    is a number, one value per node, or a column of k speeds for k rows."""
    return np.sum(h * h, axis=0) + 2.0 * c * h[0] * h[4]


class HForm:
    """The H_ell form and the energy norm of pairs on the node set of spec
    for their symmetry joined with Q_ell's.  A pair is sampled once, in its
    "h" and "l2" features, each flat over (feature, node); its form sums
    zeta^2 transported_density(h, ell) - 3 Q_ell^2 v1^2 and its norm
    zeta^2 transported_density(h, 0), zeta = 1 unless a weight is given."""

    def __init__(self, ell: float, Q: ScalarField, symmetry: str,
                 spec: QuadratureSpec, zeta: ScalarField | None = None):
        self.ell = ell
        Ql = traveling_profile(Q, ell, 0.0)
        self.X, self.w = node_set(join_symmetry(symmetry, Ql.symmetry), spec)
        self.w_zeta = self.w if zeta is None else \
            self.w * zeta.evaluate(self.X) ** 2
        self.w_pot = self.w * 3.0 * Ql.evaluate(self.X) ** 2

    def features(self, u: FieldPair) -> tuple:
        """The flat "h" and "l2" features of u at the nodes."""
        h, l2 = pair_sampler([("h", [u]), ("l2", [u])])(self.X)
        return h.ravel(), l2.ravel()

    def form(self, h, l2) -> tuple:
        """(H_ell form, squared norm) of the pair whose flat features at
        the nodes are h and l2."""
        h = h.reshape(-1, len(self.X))
        form, norm = transported_density(h, np.array([[self.ell], [0.0]]))
        pot = self.w_pot @ l2[:len(self.X)] ** 2
        return float(self.w_zeta @ form - pot), float(self.w_zeta @ norm)

    def form_and_norm(self, u: FieldPair) -> tuple:
        """(H_ell form, squared norm) of u."""
        return self.form(*self.features(u))


def quadratic_form_H(v: FieldPair, ell: float, Q: ScalarField,
                     spec: QuadratureSpec | None = None) -> float:
    """(H_ell v, v)_L2 in first-order form (no second derivatives):

    integral of |grad v1|^2 - 3 Q_ell^2 v1^2 + v2^2 + 2 ell v2 d1(v1),
    the :class:`HForm` of v on the node set of spec.
    """
    return HForm(ell, Q, v.symmetry,
                 spec or QuadratureSpec()).form_and_norm(v)[0]


@dataclass
class ExpDirection:
    """One exponential direction of H_ell and its J-identity partner."""

    ell: float
    rate: float
    pair: FieldPair
    z_pair: FieldPair


def _direction_fields(Yj, lam, ell, sign):
    """(first, second) fields of one exponential direction, e^(kappa u1) Y
    and e^(kappa u1) (sign lam gamma Y - ell gamma Y' u1 / r) at the boosted
    point u = (gamma x1, x2, x3, x4), kappa = -sign ell lam."""
    if not isinstance(Yj, RadialExpField):
        raise TypeError("exponential directions need a radial eigenfield "
                        "with radial_parts (spectrum.radial_eigenfield)")
    gamma = lorentz_gamma(ell)
    scale = np.array([gamma, 1.0, 1.0, 1.0])
    sym = join_symmetry(Yj.symmetry, SYM_CYL)
    return tuple(
        AffineField(RadialExpField(Yj.radial_parts, -sign * ell * lam, a, b,
                                   name=f"ups{sign:+d},{k}"),
                    scale, np.zeros(4), symmetry=sym)
        for k, a, b in ((1, 1.0, 0.0),
                        (2, sign * lam * gamma, -ell * gamma)))


def build_exp_directions(Yj: ScalarField, lam: float, ell: float) -> dict:
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
    lorentz_gamma(ell)  # refuses |ell| >= 1
    rate = lam * math.sqrt(1.0 - ell**2)
    out = {}
    for sign in (+1, -1):
        first, second = _direction_fields(Yj, lam, ell, sign)
        pair = FieldPair(first, second)
        # Z = -sign * rate * J pair = -sign * rate * (pair2, -pair1)
        z = FieldPair(second * (-sign * rate), first * (sign * rate))
        out["+" if sign > 0 else "-"] = ExpDirection(
            ell=ell, rate=rate, pair=pair, z_pair=z)
    return out


def z_identity_residual(direction: ExpDirection, Q: ScalarField,
                        spec: QuadratureSpec | None = None,
                        fd_step: float = 1e-2) -> float:
    """Relative L2 gap between H_ell(pair) and the closed-form z_pair."""
    spec = spec or QuadratureSpec(r_max=25.0)
    Hp = apply_H_ell(direction.pair, direction.ell, Q, fd_step=fd_step)
    diff = pair_sum([Hp, direction.z_pair], [1.0, -1.0])
    num = math.sqrt(max(inner_pair_l2(diff, diff, spec), 0.0))
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
