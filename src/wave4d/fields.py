"""Scalar fields on R^4, energy-space pairs, norms and inner products.

Fields carry a symmetry tag (radial / cylindrical about e1 / bicylindrical /
full), an optional pointwise decay exponent p (|f| <= C <x>^-p), and evaluate
on (N, 4) arrays of points.  The tag picks the quadrature reduction of a
pairing; a full field evaluates, but the quadrature has no pass for it, so
pairing one outside the RationalRadial algebra raises ValueError.

A family implements one method, ``jet(X, value, gradient)``, the value
and the gradient at the points X, each only when asked for; ``evaluate``
and ``gradient`` read it.  The two fields with no exact gradient take a
4th-order finite difference of their values: a :class:`FormulaField`
without ``grad`` and an :class:`AffineField` derivative leaf.  These
families cover everything the laboratory needs:

* :class:`FormulaField` wraps closed-form callables, optionally with an
  exact gradient.
* :class:`PolyRadialField` represents sums of monomial * radial(|x|) terms
  whose radial parts are :class:`RationalRadial` sums.  Products, gradients
  and gradient pairings keep every radial part in that algebra, and
  integrals are exact in the angular variables, which is what makes the
  kernel-generator identities testable to near machine precision.
* :class:`RadialExpField` e^(kappa x1) (a Y + b Y' x1 / r) is a radial
  eigenfield Y and, under a boost map, each exponential-direction component.
* :class:`Combination` sum_i c_i L_i is every sum and scalar multiple: flat
  over leaves, equal leaves merged and exact zeros dropped.  A leaf is one
  field, typically one base field under one composed :class:`AffineField`
  map x -> diag(scale) x + shift, or its derivative along one axis (a
  traveling pair's second component).  The one sampler
  :func:`pair_sampler` serves every pairing: per batch of points it maps
  each distinct leaf once, takes its value and gradient together where
  they are read, and forms the features from those reads by matrix
  products; :func:`pairing_block` contracts row and column features with
  the quadrature weights in one more product per pairing kind.  A single
  pairing of two fields (:func:`inner_l2`, :func:`inner_hdot1` and the
  pair and norm forms built on them) is the one entry of a block, unless
  both fields pair exactly in the RationalRadial algebra.

Two uniform grids carry the discretization.  :class:`Grid2DCyl` holds
fields of (x1, rbar), rbar = |(x2,x3,x4)|, at the points (x1, rbar, 0, 0),
pinned on both x1 ends and at rbar = R; :class:`GridRadial` holds radial
fields of r = |x| at (r, 0, 0, 0), pinned at r = R.  A grid names its axes
as (nodes, spacing, dimension d: 1 for the line x1, 3 or 4 for a radius),
its pinned edges and its points, and every grid operator serves both kinds
from those: :func:`eval_on_grid` samples a field, :func:`grid_weights` is
the trapezoid rule of the measure, :func:`grid_gradient` the second-order
derivative per axis, :func:`grid_h_norm_sq` the squared energy norm, and
:func:`laplacian_operator` the sparse second-order Laplacian, which sums
over the axes the second difference plus (d - 1)/r dr, with d drr on the
axis of a radius; it imports scipy.sparse when it first builds one, so the
evolver's first run loads it and importing this module does not.  :func:`stationary_residual_norm` measures Delta_h f + f^3
with it over the inner nodes.

Sampled fields live on the cylindrical grid with piecewise-cubic
interpolation and are serialized in a self-describing .npz container
(layout in :func:`save_field`).
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .quadrature import (
    SYM_BICYL,
    SYM_CYL,
    SYM_FULL,
    SYM_RADIAL,
    QuadratureResult,
    QuadratureSpec,
    default_r_max,
    integrate_callable,
    join_symmetry,
    moment,
    product_degree,
    sum_degree,
)

_FD_STEP = 1e-3
# 4th-order central difference coefficients at offsets -2h..2h
_FD4_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_FD4_COEFFS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0
# the area of the unit sphere S^(d-1) of a radial axis of dimension d
_SPHERE_AREA = {3: 4.0 * math.pi, 4: 2.0 * math.pi**2}


def _as_points(x) -> np.ndarray:
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if X.shape[-1] != 4:
        raise ValueError("points must have shape (..., 4)")
    return X


class ScalarField:
    """A scalar function on R^4 with symmetry and decay metadata.  A family
    implements ``jet(X, value=True, gradient=True)``: (value, gradient) at
    the (N, 4) points X, each None unless asked for."""

    symmetry: str = SYM_FULL
    decay: float | None = None
    # coefficient A of the isotropic far-field f ~ A |x|^-decay, when known
    asymptote: float | None = None
    # length scale of the profile's core, when known (None reads as 1)
    core: float | None = None

    @property
    def x4_degree(self) -> int | None:
        """Degree in x4 at fixed (x1, |(x2,x3,x4)|), None when unknown: 0 for
        a radial or cylindrical field, which depends on (x1, rbar) alone."""
        return 0 if self.symmetry in (SYM_RADIAL, SYM_CYL) else None

    def evaluate(self, x) -> np.ndarray:
        return self.jet(_as_points(x), gradient=False)[0]

    def gradient(self, x) -> np.ndarray:
        return self.jet(_as_points(x), value=False)[1]

    def __call__(self, x):
        v = self.evaluate(x)
        return v[0] if np.asarray(x).ndim == 1 else v

    def poly_radial_terms(self):
        """Monomial-radial term list when the field has that structure."""
        return None

    # -- algebra: scalar multiples and sums are flat combinations -----------

    def __mul__(self, c):
        return sum_field([self], [c])

    __rmul__ = __mul__

    def __add__(self, other):
        return sum_field([self, other])

    def __neg__(self):
        return sum_field([self], [-1.0])

    def __sub__(self, other):
        return sum_field([self, other], [1.0, -1.0])


def _fd_gradient(f: ScalarField, X) -> np.ndarray:
    """The 4th-order central-difference gradient of f (step 1e-3) at the
    (N, 4) points X, for the fields that have no exact one."""
    g = np.zeros_like(X)
    for ax in range(4):
        acc = np.zeros(X.shape[0])
        for off, cf in zip(_FD4_OFFSETS, _FD4_COEFFS):
            Xs = X.copy()
            Xs[:, ax] += off * _FD_STEP
            acc += cf * f.evaluate(Xs)
        g[:, ax] = acc / _FD_STEP
    return g


@dataclass
class FormulaField(ScalarField):
    """Closed-form field: fn maps (N, 4) points to N values."""

    fn: object
    grad: object = None
    symmetry: str = SYM_FULL
    decay: float | None = None
    asymptote: float | None = None
    name: str = ""

    def jet(self, X, value: bool = True, gradient: bool = True) -> tuple:
        """fn, and grad or else finite differences of fn."""
        v = np.asarray(self.fn(X), dtype=float) if value else None
        if not gradient:
            return v, None
        if self.grad is None:
            return v, _fd_gradient(self, X)
        return v, np.asarray(self.grad(X), dtype=float)


@dataclass
class AffineField(ScalarField):
    """f(diag(scale) x + shift), with the exact chain-rule gradient.

    Every map the laboratory builds (a boost along e1, a dilation, a
    translation) scales each axis on its own, so a leaf keeps the per-axis
    ``scale`` and maps and chains column by column.  With an axis j as
    ``derivative`` it is d/dx_j of f(diag(scale) x + shift), that is
    scale_j (d_j f)(diag(scale) x + shift), instead; its own gradient falls
    back to finite differences.
    """

    base: ScalarField
    scale: np.ndarray
    shift: np.ndarray
    symmetry: str = SYM_FULL
    decay: float | None = None
    derivative: int | None = None

    def __post_init__(self):
        # the columns the map moves, (j, scale_j, shift_j)
        self._cols = [(j, self.scale[j], self.shift[j]) for j in range(4)
                      if self.scale[j] != 1.0 or self.shift[j] != 0.0]

    @property
    def x4_degree(self) -> int | None:
        """The base's degree, one more for a derivative along x1 or x4:
        a map that shifts x1 alone and scales x2..x4 alike keeps |x| a
        function of (x1, rbar) and x4 a multiple of x4.  Any other map, or
        a derivative along x2 or x3, has no polynomial degree."""
        s = self.scale
        if np.any(self.shift[1:]) or not s[1] == s[2] == s[3] \
                or self.derivative in (1, 2):
            return None
        return product_degree(self.base.x4_degree,
                              int(self.derivative is not None))

    def _map(self, X):
        Y = X.copy()
        for j, a, b in self._cols:
            Y[:, j] = Y[:, j] * a + b
        return Y

    def _chain(self, g):
        """g diag(scale), for gradients g of the base at mapped points; it
        scales the columns the map stretches, on a copy."""
        g = g.copy()
        for j, a, _ in self._cols:
            g[:, j] *= a
        return g

    def _directional(self, g):
        """The derivative leaf's value, for gradients g of the base at
        mapped points."""
        j = self.derivative
        return g[:, j] * self.scale[j]

    def jet(self, X, value: bool = True, gradient: bool = True) -> tuple:
        """The base's jet at the mapped points through the chain rule; a
        derivative leaf's value is the base's gradient there, and its own
        gradient is taken by finite differences."""
        if self.derivative is None:
            v, g = self.base.jet(self._map(X), value, gradient)
            return v, (None if g is None else self._chain(g))
        v = self._directional(self.base.gradient(self._map(X))) \
            if value else None
        return v, (_fd_gradient(self, X) if gradient else None)


@dataclass
class Combination(ScalarField):
    """sum_i c_i L_i over leaves, the fields that are not combinations.
    :func:`sum_field` builds them (and scalar ``*``, ``+``, ``-`` call it)."""

    terms: tuple = ()
    symmetry: str = SYM_FULL
    decay: float | None = None
    asymptote: float | None = None

    @property
    def x4_degree(self) -> int | None:
        """The largest degree among the leaves (0 with none)."""
        return sum_degree(*(leaf.x4_degree for _, leaf in self.terms))

    def jet(self, X, value: bool = True, gradient: bool = True) -> tuple:
        """sum_i c_i (jet of L_i), from zero in the order of the terms."""
        v = np.zeros(X.shape[0]) if value else None
        g = np.zeros_like(X) if gradient else None
        for c, leaf in self.terms:
            lv, lg = leaf.jet(X, value, gradient)
            if value:
                v = v + c * lv
            if gradient:
                g = g + c * lg
        return v, g


def _terms(f: ScalarField) -> tuple:
    """f as ((coefficient, leaf), ...)."""
    return f.terms if isinstance(f, Combination) else ((1.0, f),)


def _leaf_key(leaf: ScalarField) -> tuple:
    """Leaves are equal when they are one field, or one base field under
    byte-equal maps (and derivative axes)."""
    if not isinstance(leaf, AffineField):
        return (id(leaf),)
    return (id(leaf.base), leaf.scale.tobytes(), leaf.shift.tobytes(),
            leaf.derivative)


def zero_field() -> Combination:
    """The zero field, a combination of no leaves."""
    return Combination(symmetry=SYM_RADIAL, decay=100.0, asymptote=0.0)


def sum_field(fields, coeffs=None) -> Combination:
    """sum_i coeffs_i fields_i (all ones by default) as one flat combination:
    nested sums are flattened, equal leaves (:func:`_leaf_key`) merged and
    exact zeros dropped, so a field added and then subtracted leaves no
    term.  Its symmetry joins the inputs', its decay is the least declared
    one, and a single scaled field keeps its scaled asymptote.
    """
    coeffs = [1.0] * len(fields) if coeffs is None else \
        [float(c) for c in coeffs]
    merged = {}
    for f, c in zip(fields, coeffs):
        for ci, leaf in _terms(f):
            merged.setdefault(_leaf_key(leaf), [0.0, leaf])[0] += c * ci
    scaled = len(fields) == 1 and fields[0].asymptote is not None
    return Combination(
        tuple((c, leaf) for c, leaf in merged.values() if c != 0.0),
        symmetry=join_symmetry(*[f.symmetry for f in fields]),
        decay=min((f.decay for f in fields if f.decay is not None),
                  default=None),
        asymptote=coeffs[0] * fields[0].asymptote if scaled else None)


# ---------------------------------------------------------------------------
# monomial * radial fields with exact angular reduction
# ---------------------------------------------------------------------------

class RationalRadial:
    """Sum of c * r^a * B(r)^b with B(r) = (1 - kappa r^2 / 2)^-1.

    B satisfies B' = kappa r B^2, so the family is closed under products,
    d/dr and division by r (whenever every power a >= 1).  kappa = -1/4
    gives the ground-state bubble, kappa = -16 the inverted-scale bubble of
    the surrogate state; sums and products of two scales raise.
    """

    def __init__(self, kappa: float, terms: dict):
        self.kappa = float(kappa)
        self.terms = {(int(a), int(b)): c for (a, b), c in terms.items()
                      if c != 0.0}
        if any(a < 0 or b < 0 for a, b in self.terms):
            raise ValueError("powers of r and B must be >= 0")
        # the largest powers of r and of B a term takes
        self._top = (max((a for a, _ in self.terms), default=0),
                     max((b for _, b in self.terms), default=0))

    def __call__(self, r):
        """The sum at r: a float in plain arithmetic at a float (the oracle
        calls it so), an array of r's shape at an array.  The powers of r
        and B are built once, by repeated products, and serve every term."""
        B = 1.0 / (1.0 - 0.5 * self.kappa * r * r)
        ra, Bb = [1.0], [1.0]
        for _ in range(self._top[0]):
            ra.append(ra[-1] * r)
        for _ in range(self._top[1]):
            Bb.append(Bb[-1] * B)
        out = None
        for (a, b), c in self.terms.items():
            term = c * ra[a] * Bb[b]
            if out is None:
                # a constant first term is a float: it takes r's shape
                out = term + 0.0 * r if a == b == 0 else term
            else:
                out += term
        return 0.0 * r if out is None else out

    def deriv(self) -> "RationalRadial":
        out = {}
        for (a, b), c in self.terms.items():
            if a:
                out[(a - 1, b)] = out.get((a - 1, b), 0.0) + a * c
            if b:
                out[(a + 1, b + 1)] = out.get((a + 1, b + 1), 0.0) + b * c * self.kappa
        return RationalRadial(self.kappa, out)

    def div_r(self) -> "RationalRadial":
        if any(a < 1 for (a, b) in self.terms):
            raise ValueError("division by r requires every power >= 1")
        return RationalRadial(self.kappa,
                              {(a - 1, b): c for (a, b), c in self.terms.items()})

    def scaled(self, s: float) -> "RationalRadial":
        return RationalRadial(self.kappa,
                              {k: s * c for k, c in self.terms.items()})

    def _kappa_with(self, other: "RationalRadial") -> float:
        if other.kappa != self.kappa and other.terms and self.terms:
            raise ValueError("cannot mix bubble scales")
        return self.kappa if self.terms else other.kappa

    def plus(self, other: "RationalRadial") -> "RationalRadial":
        kappa = self._kappa_with(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0.0) + c
        return RationalRadial(kappa, out)

    def times(self, other: "RationalRadial") -> "RationalRadial":
        kappa = self._kappa_with(other)
        out: dict = {}
        for (a, b), c in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a + a2, b + b2)
                out[k] = out.get(k, 0.0) + c * c2
        return RationalRadial(kappa, out)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def decay_exponent(self) -> float:
        """Exact power p with c r^-p leading behavior (B ~ -2/(kappa r^2))."""
        if self.is_zero:
            return math.inf
        return float(min(2 * b - a for (a, b) in self.terms))


class PolyRadialField(ScalarField):
    """Sum of terms x^m * S(|x|), integer exponent vectors m and each radial
    part S a :class:`RationalRadial`.

    Closed under products, symmetry generators and gradient pairings: the
    radial parts of every result stay in the RationalRadial algebra, and
    all angular integrals are done by exact sphere moments.
    """

    def __init__(self, terms, decay=None, name=""):
        self.terms = [(np.asarray(m, dtype=int), S) for m, S in terms]
        self._derivs = [S.deriv() for _, S in self.terms]
        self.decay = decay
        self.name = name
        self.is_zero = False
        axes = set()
        for m, _ in self.terms:
            axes |= {i for i in range(4) if m[i] > 0}
        if axes <= set():
            self.symmetry = SYM_RADIAL
        elif axes <= {0}:
            self.symmetry = SYM_CYL
        elif axes <= {0, 3}:
            self.symmetry = SYM_BICYL
        else:
            self.symmetry = SYM_FULL

    @property
    def x4_degree(self) -> int:
        """The largest power of x4 among the terms."""
        return max((int(m[3]) for m, _ in self.terms), default=0)

    def jet(self, X, value: bool = True, gradient: bool = True) -> tuple:
        """Value and gradient from one evaluation of r and each radial part:
        grad(x^m S) = sum_j m_j x^(m - e_j) S e_j + x^m (S'/r) x."""
        r = np.sqrt(np.einsum("ij,ij->i", X, X))
        rs = np.where(r > 0, r, 1.0) if gradient else None
        g = np.zeros_like(X) if gradient else None
        v = None  # the value sum starts from its first term
        for (m, S), dS in zip(self.terms, self._derivs):
            mono = _monomial(X, m)
            radial = S(r)
            if value:
                if v is None:
                    v = mono * radial
                else:
                    v += mono * radial
            if gradient:
                dradial = dS(r)
                for j in range(4):
                    if m[j]:
                        g[:, j] += m[j] * _monomial(X, m - _unit(j)) * radial
                    g[:, j] += mono * X[:, j] * dradial / rs
        if value and v is None:
            v = np.zeros(X.shape[0])
        return v, g

    def poly_radial_terms(self):
        return self.terms

    def product(self, other: "PolyRadialField") -> "PolyRadialField":
        terms = [(m + n, S.times(T))
                 for m, S in self.terms for n, T in other.terms]
        dec = None
        if self.decay is not None and other.decay is not None:
            dec = self.decay + other.decay
        return PolyRadialField(terms, decay=dec)

    def grad_dot(self, other: "PolyRadialField") -> "PolyRadialField":
        """Exact monomial-radial representation of grad(self) . grad(other).

        grad(x^m S) = sum_j m_j x^(m - e_j) S e_j + x^m (S'/r) x, so the
        pairing of two terms is sum_j m_j n_j x^(m + n - 2 e_j) S T plus
        x^(m + n) ((|m| S T' + |n| S' T) / r + S' T').
        """
        terms = []
        for (m, S), dS in zip(self.terms, self._derivs):
            for (n, T), dT in zip(other.terms, other._derivs):
                for j in range(4):
                    if m[j] and n[j]:
                        terms.append((m + n - 2 * _unit(j),
                                      S.times(T).scaled(float(m[j] * n[j]))))
                cross = S.times(dT).scaled(float(m.sum())).plus(
                    dS.times(T).scaled(float(n.sum())))
                terms.append((m + n, cross.div_r().plus(dS.times(dT))))
        dec = None
        if self.decay is not None and other.decay is not None:
            dec = self.decay + other.decay + 2
        return PolyRadialField(terms, decay=dec)

    def integrate_exact(self, r_max=None) -> QuadratureResult:
        """Integral over R^4 via sphere moments and adaptive 1D quadrature
        (scipy's ``quad``, whose error estimates add up to the error)."""
        # scipy.integrate loads scipy's optimizer stack: imported on use
        from scipy.integrate import quad

        total, err = 0.0, 0.0
        for m, S in self.terms:
            ang = moment(m, 4)
            if ang == 0.0:
                continue
            k = 3 + int(m.sum())
            v, e = quad(lambda r: S(r) * r**k, 0.0,
                        np.inf if r_max is None else r_max, limit=200)
            total += ang * v
            err += abs(ang) * e
        return QuadratureResult(total, err)


def _monomial(X, m):
    """x^m at the (N, 4) points X.  A lone degree-1 axis is returned as its
    column of X, a view: callers must not write into the result."""
    out = None
    for i in range(4):
        if m[i]:
            f = X[:, i] if m[i] == 1 else X[:, i] ** m[i]
            out = f if out is None else out * f
    return np.ones(X.shape[0]) if out is None else out


def _unit(j):
    """Integer exponent vector of the monomial x_j."""
    e = np.zeros(4, dtype=int)
    e[j] = 1
    return e


# ---------------------------------------------------------------------------
# radial-exponential fields: eigenfields and their exponential directions
# ---------------------------------------------------------------------------

def _safe_exp_product(vals, s):
    """vals * exp(s), s broadcast to vals, assembled in log space once the
    exponent is large so the growing factor never overflows before the
    decaying profile wins."""
    small = np.abs(s) <= 500.0
    if small.all():
        return vals * np.exp(s)
    with np.errstate(all="ignore"):  # the unselected branch may overflow
        return np.where(small, vals * np.exp(s),
                        np.sign(vals) * np.exp(s + np.log(np.abs(vals))))


@dataclass
class RadialExpField(ScalarField):
    """e^(kappa x1) (a Y(r) + b Y'(r) x1 / r), r = |x|, from the radial parts
    of a radial eigenfield: Y itself at (kappa, a, b) = (0, 1, 0), and under
    a boost map each component of an exponential direction.
    radial_parts(r, orders) gives Y^(k)(r) for each k in orders (0, 1, 2:
    Y, Y', Y''), so one jet evaluates r, the parts it reads and the weight
    once."""

    radial_parts: object  # (r, orders) -> [Y^(k)(r) for k in orders]
    kappa: float = 0.0
    a: float = 1.0
    b: float = 0.0
    trusted_radius: float | None = None
    decay: float | None = None
    name: str = ""

    def __post_init__(self):
        self.symmetry = SYM_CYL if self.kappa or self.b else SYM_RADIAL

    def jet(self, X, value: bool = True, gradient: bool = True) -> tuple:
        """With n = x / r and v the bracket, the gradient is the weight times
        a Y' n + b (Y'' n1 n + (Y'/r)(e1 - n1 n)) + kappa v e1."""
        r = np.linalg.norm(X, axis=1)
        rs = np.maximum(r, 1e-12)
        n = X / rs[:, None] if gradient or self.b else None
        with_v = value or (gradient and self.kappa)
        orders = [k for k, read in ((0, with_v), (1, n is not None),
                                    (2, gradient and self.b)) if read]
        part = dict(zip(orders, self.radial_parts(r, orders)))
        d1 = part.get(1)
        v = g = None
        if with_v:
            v = self.a * part[0]
            if self.b:
                v = v + self.b * d1 * n[:, 0]
        if gradient:
            g = (self.a * d1)[:, None] * n
            if self.b:
                g += (self.b * (part[2] - d1 / rs) * n[:, 0])[:, None] * n
                g[:, 0] += self.b * d1 / rs
            if self.kappa:
                g[:, 0] += self.kappa * v
        if self.kappa:
            s = self.kappa * X[:, 0]
            v = _safe_exp_product(v, s) if value else None
            g = _safe_exp_product(g, s[:, None]) if gradient else None
        return (v if value else None), g


# ---------------------------------------------------------------------------
# grids and their operators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid2DCyl:
    """Uniform grid in (x1, rbar) for fields of (x1, |(x2,x3,x4)|)."""

    x1_min: float
    x1_max: float
    n1: int
    r_max: float
    nr: int

    edges = (np.s_[0, :], np.s_[-1, :], np.s_[:, -1])

    def points(self, at=np.s_[:, :]) -> np.ndarray:
        i, j = at
        return cylinder_points(self.x1[i], self.r[j])

    @property
    def shape(self):
        return self.n1, self.nr

    @property
    def axes(self):
        return (self.x1, self.h1, 1), (self.r, self.hr, 3)

    def __post_init__(self):
        # written so that a NaN bound fails too
        if not (self.x1_max > self.x1_min and self.r_max > 0):
            raise ValueError("empty grid ranges")
        if self.n1 < 4 or self.nr < 4:
            raise ValueError("need at least 4 nodes per axis")

    @property
    def x1(self):
        return np.linspace(self.x1_min, self.x1_max, self.n1)

    @property
    def r(self):
        return np.linspace(0.0, self.r_max, self.nr)

    @property
    def h1(self):
        return (self.x1_max - self.x1_min) / (self.n1 - 1)

    @property
    def hr(self):
        return self.r_max / (self.nr - 1)


@dataclass(frozen=True)
class GridRadial:
    """Uniform grid of r = |x| in [0, r_max] for radial fields on R^4, at
    the points (r, 0, 0, 0): one axis of dimension 4, pinned at r_max."""

    r_max: float
    n: int

    edges = (np.s_[-1:],)

    def points(self, at=np.s_[:]) -> np.ndarray:
        return cylinder_points(self.r[at], [0.0])

    def __post_init__(self):
        if not self.r_max > 0:  # a NaN r_max fails too
            raise ValueError("empty grid range")
        if self.n < 4:
            raise ValueError("need at least 4 nodes")

    @property
    def shape(self):
        return (self.n,)

    @property
    def axes(self):
        return ((self.r, self.h, 4),)

    @property
    def r(self):
        return np.linspace(0.0, self.r_max, self.n)

    @property
    def h(self):
        return self.r_max / (self.n - 1)


def cylinder_points(x1, r) -> np.ndarray:
    """Points (x1_i, r_j, 0, 0) of the (x1, rbar) tensor grid, i-major."""
    X1, R = np.meshgrid(x1, r, indexing="ij")
    P = np.zeros((X1.size, 4))
    P[:, 0] = X1.ravel()
    P[:, 1] = R.ravel()
    return P


def eval_on_grid(f: ScalarField, grid) -> np.ndarray:
    return f.evaluate(grid.points()).reshape(grid.shape)


@functools.lru_cache(maxsize=4)
def grid_weights(grid) -> np.ndarray:
    """Trapezoid weights of the measure, 4 pi rbar^2 drbar dx1 or
    2 pi^2 r^3 dr, built once per grid and returned read-only."""
    w, area = np.ones(()), 1.0
    for nodes, h, dim in grid.axes:
        wa = np.full(len(nodes), h)
        wa[[0, -1]] *= 0.5
        if dim > 1:
            wa, area = wa * nodes**(dim - 1), _SPHERE_AREA[dim]
        w = np.multiply.outer(w, wa)
    w = area * w
    w.flags.writeable = False
    return w


def grid_gradient(arr: np.ndarray, grid) -> np.ndarray:
    """d/d(axis) per grid axis: np.gradient's edge_order=2 formulas, bit
    for bit, without its temporaries.  Central differences run on the flat
    arrays; the one-sided edges then overwrite the entries that wrap."""
    a, out = arr.ravel(), np.empty((arr.ndim, *arr.shape))
    for axis, (_, h, _) in enumerate(grid.axes):
        k = math.prod(arr.shape[axis + 1:])
        inner = out[axis].ravel()[k:-k]
        np.subtract(a[2 * k:], a[:-2 * k], out=inner)
        inner /= 2.0 * h
        f, e = np.moveaxis(arr, axis, 0), np.moveaxis(out[axis], axis, 0)
        e[0] = -1.5 / h * f[0] + 2.0 / h * f[1] + -0.5 / h * f[2]
        e[-1] = 0.5 / h * f[-3] + -2.0 / h * f[-2] + 1.5 / h * f[-1]
    return out


def grid_h_norm_sq(du, dv, grid) -> float:
    acc, *rest = grid_gradient(du, grid)
    acc *= acc
    for d in rest:
        acc += np.multiply(d, d, out=d)
    acc += dv * dv
    acc *= grid_weights(grid)
    return float(np.sum(acc))


# one kept, so a finished grid's diagonals do not add to the next's peak
@functools.lru_cache(maxsize=1)
def laplacian_operator(grid):
    """The grid Laplacian as one sparse operator (a scipy.sparse
    ``dia_matrix``) on the flattened grid: per axis the second difference at
    offsets 0 and +-its stride, plus (d - 1)/r dr on a radial axis of
    dimension d, whose axis node is d drr with the even reflection
    u(-h) = u(h).  The pinned edges get no term along their normal: the
    evolver sets their values, but v_sync still reads the force there.
    Cached per grid, read-only.  scipy.sparse is imported here, when the
    first grid operator is built: importing the package loads no scipy."""
    from scipy import sparse

    shape, mid, diags, offsets = grid.shape, 0.0, [], []
    # the last axis first: the cylinder's stored results sum in that order
    for axis in reversed(range(len(shape))):
        nodes, h, dim = grid.axes[axis]
        lo, c, hi = np.zeros((3, len(nodes)))  # of u[j - 1], u[j], u[j + 1]
        inner, ih = slice(1, -1), 1.0 / h**2
        first = 0.5 * (dim - 1) / (nodes[inner] * h) if dim > 1 else 0.0
        lo[inner], c[inner], hi[inner] = ih - first, -2.0 * ih, ih + first
        if dim > 1:
            c[0], hi[0] = -2.0 * dim * ih, 2.0 * dim * ih
        along = [-1 if a == axis else 1 for a in range(len(shape))]
        lo, c, hi = (np.broadcast_to(x.reshape(along), shape).ravel()
                     for x in (lo, c, hi))
        k = math.prod(shape[axis + 1:])
        mid = mid + c
        diags += [hi[:-k], lo[k:]]
        offsets += [k, -k]
    op = sparse.diags([mid, *diags], [0, *offsets], format="dia")
    op.data.flags.writeable = False
    return op


def stationary_residual_norm(f: ScalarField, grid) -> float:
    """Weighted L2 norm of Delta_h f + f^3 over the inner nodes: the pinned
    edges are left out, and the axis has zero measure."""
    u = eval_on_grid(f, grid)
    res = (laplacian_operator(grid) @ u.ravel()).reshape(grid.shape) + u**3
    for e in grid.edges:
        res[e] = 0.0
    return float(np.sqrt(np.sum(res**2 * grid_weights(grid))))


# ---------------------------------------------------------------------------
# sampled fields on cylindrical grids
# ---------------------------------------------------------------------------


def _stencil_derivative(values, h, axis):
    """4th-order interior derivative, one-sided 2nd-order at the edges."""
    d = np.gradient(values, h, axis=axis, edge_order=2)
    v = np.moveaxis(values, axis, 0)
    out = np.moveaxis(d, axis, 0)
    if v.shape[0] >= 5:
        out[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
    return np.moveaxis(out, 0, axis)


def _reflect(values, parity=1.0):
    """Samples on rbar >= 0 (last axis) extended to -rbar with the given
    parity; the axis sample is not repeated."""
    return np.concatenate([parity * values[..., :0:-1], values], axis=-1)


class SampledField(ScalarField):
    """Field sampled on a cylindrical grid with cubic interpolation.

    Evaluation outside the grid returns 0 (fields here decay); gradients come
    from stored gradient grids when available, otherwise from 4th-order
    stencils on the samples (one-sided at the outer boundary; this is
    recorded in ``meta['boundary_stencil']``).  The samples are reflected
    across rbar = 0, evenly for the values and d/dx1 and oddly for d/drbar,
    before any stencil or interpolator is built, so both are centered next
    to the axis; ``meta['axis_reflection']`` records it.
    """

    symmetry = SYM_CYL

    def __init__(self, grid, values, gradient_values=None, decay=None):
        if not isinstance(grid, Grid2DCyl):
            raise TypeError("unsupported grid type")
        self.grid = grid
        self.values = np.asarray(values, dtype=float)
        self.gradient_values = gradient_values
        self.decay = decay
        self.asymptote = None
        self.meta = {"axis_reflection": "even value and d1, odd dr"}
        self._interp = self._interpolator(self.values)
        self._grad_interp = None

    def _interpolator(self, values, parity=1.0):
        # scipy.interpolate loads scipy's optimizer stack: imported on use
        from scipy.interpolate import RegularGridInterpolator

        return RegularGridInterpolator(
            (self.grid.x1, _reflect(self.grid.r, -1.0)),
            _reflect(values, parity), method="cubic", bounds_error=False,
            fill_value=0.0)

    @staticmethod
    def _coords(X):
        return np.stack([X[:, 0], np.linalg.norm(X[:, 1:], axis=1)], axis=1)

    def _ensure_grad(self):
        if self._grad_interp is not None:
            return
        if self.gradient_values is None:
            g = self.grid
            dr = _stencil_derivative(_reflect(self.values), g.hr, -1)
            self.gradient_values = (_stencil_derivative(self.values, g.h1, 0),
                                    dr[..., g.nr - 1:])
            self.meta.setdefault("boundary_stencil", "one-sided")
        self._grad_interp = [self._interpolator(gv, parity) for gv, parity
                             in zip(self.gradient_values, (1.0, -1.0))]

    def jet(self, X, value: bool = True, gradient: bool = True) -> tuple:
        """The interpolated samples, and (d1, dr rbar-hat) from the
        interpolated gradient grids."""
        C = self._coords(X)
        v = self._interp(C) if value else None
        if not gradient:
            return v, None
        self._ensure_grad()
        d1 = self._grad_interp[0](C)
        dr = self._grad_interp[1](C)
        rbar = C[:, 1]
        unit = np.zeros((X.shape[0], 3))
        mask = rbar > 0
        unit[mask] = X[mask, 1:] / rbar[mask, None]
        out = np.zeros_like(X)
        out[:, 0] = d1
        out[:, 1:] = dr[:, None] * unit
        return v, out


def save_field(path, f: SampledField):
    """Write the self-describing .npz container: kind "cyl2d", the grid
    axes (x1_min, x1_max, n1, r_max, nr), the samples, the decay exponent
    (NaN when unknown) and any stored gradient grids grad_0, grad_1."""
    decay = f.decay if f.decay is not None else np.nan
    payload = dict(kind="cyl2d", samples=f.values, decay=decay,
                   **asdict(f.grid))
    payload.update((f"grad_{i}", gv)
                   for i, gv in enumerate(f.gradient_values or ()))
    np.savez(path, **payload)


def load_field(path) -> SampledField:
    with np.load(path, allow_pickle=False) as z:
        kind = str(z["kind"])
        if kind != "cyl2d":
            raise ValueError(f"unknown container kind {kind!r}")
        grid = _grid_of(z)
        grads = [z[k] for k in ("grad_0", "grad_1") if k in z]
        decay = float(z["decay"])
        return SampledField(grid, z["samples"],
                            gradient_values=tuple(grads) or None,
                            decay=None if math.isnan(decay) else decay)


def save_pair(path, p: "FieldPair", grid) -> None:
    """Sample an energy-space pair on a grid and write one container."""
    first, second = (f if isinstance(f, SampledField) else _sample_on(f, grid)
                     for f in (p.first, p.second))
    np.savez(path, kind="pair_cyl2d", samples_first=first.values,
             samples_second=second.values, **asdict(first.grid))


def load_pair(path) -> "FieldPair":
    with np.load(path, allow_pickle=False) as z:
        if str(z["kind"]) != "pair_cyl2d":
            raise ValueError("not a pair container")
        grid = _grid_of(z)
        return FieldPair(SampledField(grid, z["samples_first"]),
                         SampledField(grid, z["samples_second"]))


def _grid_of(z) -> Grid2DCyl:
    """The grid whose axes a container stores."""
    return Grid2DCyl(*(z[k].item() for k in ("x1_min", "x1_max", "n1",
                                              "r_max", "nr")))


def _sample_on(f: ScalarField, grid) -> SampledField:
    return SampledField(grid, eval_on_grid(f, grid), decay=f.decay)


def load_field_csv(path) -> SampledField:
    """Plain-text import: header '# cyl2d' then rows x1,r,value in x1-major
    order on a uniform grid whose r axis starts at 0.  Any other layout
    raises ValueError rather than misplacing samples."""
    with open(path) as fh:
        rows = [row for row in csv.reader(fh)
                if row and not row[0].lstrip().startswith("#")]
    data = np.asarray(rows, dtype=float)
    if data.ndim != 2 or data.shape[1] != 3:
        raise ValueError("CSV needs data rows of three values x1,r,value")
    x1 = np.unique(data[:, 0])
    r = np.unique(data[:, 1])
    if len(x1) * len(r) != data.shape[0]:
        raise ValueError("CSV rows do not form a full x1 x r grid")
    if not (np.array_equal(data[:, 0], np.repeat(x1, len(r)))
            and np.array_equal(data[:, 1], np.tile(r, len(x1)))):
        raise ValueError("CSV rows are not in x1-major order")
    grid = Grid2DCyl(x1[0], x1[-1], len(x1), r[-1], len(r))
    if abs(r[0]) > 1e-9 * grid.hr:
        raise ValueError("CSV r axis does not start at 0")
    for axis, nodes, h in (("x1", x1, grid.h1), ("r", r, grid.hr)):
        if np.max(np.abs(nodes - getattr(grid, axis))) > 1e-9 * h:
            raise ValueError(f"CSV {axis} axis is not uniform")
    return SampledField(grid, data[:, 2].reshape(len(x1), len(r)))


# ---------------------------------------------------------------------------
# pairs, norms, inner products
# ---------------------------------------------------------------------------

@dataclass
class FieldPair:
    """(Hdot1 component, L2 component) element of the energy space."""

    first: ScalarField
    second: ScalarField

    def __post_init__(self):
        self.symmetry = join_symmetry(self.first.symmetry, self.second.symmetry)


def pair_sum(pairs, coeffs=None) -> FieldPair:
    """Componentwise sum_i coeffs_i pairs_i (all ones by default), each
    component one flat combination."""
    return FieldPair(sum_field([p.first for p in pairs], coeffs),
                     sum_field([p.second for p in pairs], coeffs))


def _pairs_exactly(f: ScalarField, g: ScalarField) -> bool:
    """Whether f and g pair in the RationalRadial algebra: both are
    monomial-radial, and their radial parts share one bubble scale."""
    tf, tg = f.poly_radial_terms(), g.poly_radial_terms()
    if tf is None or tg is None:
        return False
    return len({S.kappa for _, S in tf + tg if not S.is_zero}) <= 1


def _inner(f: ScalarField, g: ScalarField, spec, exact, kind) -> float:
    """The pairing of kind ("l2" or "h") of f and g: exactly as exact(f, g)
    in the RationalRadial algebra when both allow it, else the one entry of
    :func:`pairing_block` of the pairs (f, 0) and (g, 0), sampling f once
    when g is f.  A spec with no r_max truncates where the product's decay
    (each gradient adds one to its factor's) puts its tail bound."""
    spec = spec or QuadratureSpec()
    if _pairs_exactly(f, g):
        return exact(f, g).integrate_exact(r_max=spec.r_max).value
    if spec.r_max is None:
        spec = replace(spec, r_max=default_r_max(
            None if f.decay is None or g.decay is None else
            f.decay + g.decay + 2 * (kind == "h")))
    p = FieldPair(f, zero_field())
    q = p if g is f else FieldPair(g, zero_field())
    return float(pairing_block([p], [q], kind, spec)[0, 0])


def inner_l2(f: ScalarField, g: ScalarField,
             spec: QuadratureSpec | None = None) -> float:
    return _inner(f, g, spec, PolyRadialField.product, "l2")


def inner_hdot1(f: ScalarField, g: ScalarField,
                spec: QuadratureSpec | None = None) -> float:
    return _inner(f, g, spec, PolyRadialField.grad_dot, "h")


def inner_pair_l2(p: FieldPair, q: FieldPair,
                  spec: QuadratureSpec | None = None) -> float:
    """Componentwise L2 pairing (f1, g1)_L2 + (f2, g2)_L2."""
    return (inner_l2(p.first, q.first, spec) + inner_l2(p.second, q.second, spec))


def inner_pair_h(p: FieldPair, q: FieldPair,
                 spec: QuadratureSpec | None = None) -> float:
    """Energy-space pairing (f1, g1)_Hdot1 + (f2, g2)_L2."""
    return (inner_hdot1(p.first, q.first, spec)
            + inner_l2(p.second, q.second, spec))


def norm_pair(p: FieldPair, spec: QuadratureSpec | None = None) -> float:
    return math.sqrt(max(inner_pair_h(p, p, spec), 0.0))


# features per pair of each pairing kind: "h" reads the first component's
# gradient and the second component, "l2" the two components
_WIDTH = {"h": 5, "l2": 2}


def feature_degree(p: FieldPair, kind: str) -> int | None:
    """The largest x4 degree among the features a pairing of kind reads
    from p; a gradient ("h" first component) has one more than its field,
    and a product of two features the sum of theirs."""
    return sum_degree(product_degree(p.first.x4_degree, int(kind == "h")),
                      p.second.x4_degree)


def pair_sampler(groups):
    """X -> [(len(pairs), _WIDTH[kind], N) features of each group] for
    groups of (kind, pairs) and (N, 4) points X: per pair, per feature, its
    values at the points.

    Leaves of one base field under one map share one jet: X is mapped once
    and the base gives its value and gradient together, each only where a
    feature reads it, so a component paired only in L2 is never
    differentiated.  A batch's reads fill two read matrices, one row per
    distinct read: the values (Lv, N) and the gradients (Lg, 4, N).  A
    feature is a combination of its leaves' reads, so each slot of a
    group's stack (the four gradient entries of an "h" first component, or
    one value) is one product of a coefficient matrix, built here once,
    with one read matrix.  Features are formed node by node, never through
    pairings of the leaves.
    """
    sources, rows, plans = {}, {"value": {}, "gradient": {}}, []

    def read(leaf, part):
        """Register one part ("value" or "gradient") of a leaf; its row in
        that part's read matrix."""
        key = _leaf_key(leaf)
        if key in rows[part]:
            return rows[part][key]
        # a derivative leaf's own gradient is taken whole, by the leaf
        whole = not isinstance(leaf, AffineField) or (
            part == "gradient" and leaf.derivative is not None)
        src = sources.setdefault((id(leaf),) if whole else key[:3], [
            leaf if whole else leaf.base, None if whole else leaf,
            False, False, []])
        # r maps the source's gradient to the read; None reads its value
        if part == "value" and (whole or leaf.derivative is None):
            r = None
        elif part == "value":
            r = leaf._directional
        else:  # the gradient itself, or through the leaf's chain rule
            r = (lambda g: g) if whole else leaf._chain
        src[2 if r is None else 3] = True
        row = rows[part][key] = len(rows[part])
        src[4].append((part, row, r))
        return row

    for kind, pairs in groups:
        k = _WIDTH[kind]
        first = ("gradient", 0) if kind == "h" else ("value", 0)
        slots = {first: [], ("value", k - 1): []}
        for i, p in enumerate(pairs):
            for slot, comp in ((first, p.first), (("value", k - 1), p.second)):
                slots[slot] += [(i, c, read(leaf, slot[0]))
                                for c, leaf in _terms(comp)]
        plans.append((len(pairs), k, slots))
    # per group and slot (part, first feature, coefficients (pairs, reads))
    stacks = []
    for n, k, slots in plans:
        mats = []
        for (part, at), terms in slots.items():
            C = np.zeros((n, len(rows[part])))
            for i, c, row in terms:
                C[i, row] += c
            mats.append((part, at, C))
        stacks.append((n, k, mats))

    def sample(X):
        N = X.shape[0]
        V = np.empty((len(rows["value"]), N))
        G = np.empty((len(rows["gradient"]), 4, N))
        for field, mapping, value, grad, rs in sources.values():
            v, g = field.jet(X if mapping is None else mapping._map(X),
                             value, grad)
            for part, row, r in rs:
                if part == "gradient":
                    G[row] = r(g).T
                else:
                    V[row] = v if r is None else r(g)
        reads = {"value": V, "gradient": G.reshape(len(G), 4 * N)}
        out = []
        for n, k, mats in stacks:
            S = np.empty((n, k * N))
            for part, at, C in mats:
                width = 4 if part == "gradient" else 1
                np.matmul(C, reads[part], out=S[:, at * N:(at + width) * N])
            out.append(S.reshape(n, k, N))
        return out

    return sample


def pairing_block(rows, cols, kind,
                  spec: QuadratureSpec | None = None) -> np.ndarray:
    """Matrix of pairings (rows_i, cols_j) in one shared quadrature pass.

    kind "l2" pairs componentwise in L2 and kind "h" uses the energy pairing
    (Hdot1 on first components, L2 on second); kind may also be a sequence
    of them, one per column.  Per batch of quadrature nodes one
    :func:`pair_sampler` forms a row's features of every kind among the
    columns and a column's of its own kind only, and the integrand hands
    each kind's (row features, column features) to the quadrature, which
    contracts them over features and nodes, with the weights, in one matrix
    product; no per-node block of pairings is formed, and the cost is
    linear in the basis size.
    """
    spec = spec or QuadratureSpec()
    kinds = [kind] * len(cols) if isinstance(kind, str) else list(kind)
    if len(kinds) != len(cols):
        raise ValueError(f"{len(kinds)} kinds for {len(cols)} columns")
    if not set(kinds) <= {"l2", "h"}:
        raise ValueError("kind must be 'l2' or 'h'")
    shape = (len(rows), len(cols))
    if 0 in shape:
        return np.zeros(shape)
    sym = join_symmetry(*[p.symmetry for p in list(rows) + list(cols)])

    groups = {k: [j for j, kj in enumerate(kinds) if kj == k]
              for k in dict.fromkeys(kinds)}
    # per kind the rows' stack, then its columns' unless they are the rows
    requests, stacks = [], []
    for k, idx in groups.items():
        kcols = [cols[j] for j in idx]
        same = len(kcols) == len(rows) and all(
            a is b for a, b in zip(kcols, rows))
        stacks.append((len(requests), len(requests) + (not same)))
        requests += [(k, rows)] + ([] if same else [(k, kcols)])
    sample = pair_sampler(requests)

    def fn(X):
        feats = sample(X)
        return [(feats[r], feats[c]) for r, c in stacks]

    # per kind a row feature times a column feature
    degree = sum_degree(*(product_degree(
        sum_degree(*(feature_degree(p, k) for p in rows)),
        sum_degree(*(feature_degree(cols[j], k) for j in idx)))
        for k, idx in groups.items()))
    out = np.empty(shape)
    # the kinds' column blocks, side by side, in the order of groups
    out[:, [j for idx in groups.values() for j in idx]] = \
        integrate_callable(fn, sym, spec, x4_degree=degree).value
    return out


def norm_l4(f: ScalarField, spec: QuadratureSpec | None = None) -> float:
    spec = spec or QuadratureSpec()
    dec = None if f.decay is None else 4 * f.decay
    v = integrate_callable(lambda X: f.evaluate(X) ** 4, f.symmetry, spec,
                           decay=dec,
                           x4_degree=product_degree(*4 * [f.x4_degree])).value
    return max(v, 0.0) ** 0.25


def hardy_sobolev_check(f: ScalarField,
                        spec: QuadratureSpec | None = None) -> tuple:
    """Ratios (||f||_L4 / ||grad f||_L2, ||f/|x|||_L2 / ||grad f||_L2)."""
    spec = spec or QuadratureSpec()
    gnorm = math.sqrt(max(inner_hdot1(f, f, spec), 0.0))
    if gnorm == 0.0:
        return (0.0, 0.0)
    l4 = norm_l4(f, spec)

    def over_x2(X):
        r2 = np.maximum(np.sum(X * X, axis=1), 1e-300)
        return f.evaluate(X) ** 2 / r2

    dec = None if f.decay is None else 2 * f.decay + 2
    hardy = math.sqrt(max(integrate_callable(
        over_x2, f.symmetry, spec, decay=dec,
        x4_degree=product_degree(f.x4_degree, f.x4_degree)).value, 0.0))
    return (l4 / gnorm, hardy / gnorm)
