"""Scalar fields on R^4, energy-space pairs, norms and inner products.

Fields carry a symmetry tag (radial / cylindrical about e1 / bicylindrical /
full), an optional pointwise decay exponent p (|f| <= C <x>^-p), and evaluate
on (N, 4) arrays of points.  Two families cover everything the laboratory
needs:

* :class:`FormulaField` wraps closed-form callables (optionally with an exact
  gradient; otherwise a 4th-order finite-difference fallback is used).
* :class:`PolyRadialField` represents sums of monomial * radial(|x|) terms
  whose radial parts are :class:`RationalRadial` sums.  Products, gradients
  and gradient pairings keep every radial part in that algebra, and
  integrals are exact in the angular variables, which is what makes the
  kernel-generator identities testable to near machine precision.

Sampled fields live on the cylindrical grid :class:`Grid2DCyl` with
piecewise-cubic interpolation and are serialized in a self-describing .npz
container (layout in :func:`save_field`).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import RegularGridInterpolator

from .quadrature import (
    SYM_BICYL,
    SYM_CYL,
    SYM_FULL,
    SYM_RADIAL,
    QuadratureResult,
    QuadratureSpec,
    integrate_callable,
    join_symmetry,
    moment,
)

_FD_STEP = 1e-3
# 4th-order central difference coefficients at offsets -2h..2h
_FD4_OFFSETS = np.array([-2.0, -1.0, 1.0, 2.0])
_FD4_COEFFS = np.array([1.0, -8.0, 8.0, -1.0]) / 12.0


class SymmetryMismatch(ValueError):
    pass


def _as_points(x) -> np.ndarray:
    X = np.atleast_2d(np.asarray(x, dtype=float))
    if X.shape[-1] != 4:
        raise ValueError("points must have shape (..., 4)")
    return X


class ScalarField:
    """A scalar function on R^4 with symmetry and decay metadata."""

    symmetry: str = SYM_FULL
    decay: float | None = None
    # coefficient A of the isotropic far-field f ~ A |x|^-decay, when known
    asymptote: float | None = None
    # length scale of the profile's core, when known (None reads as 1)
    core: float | None = None

    def evaluate(self, x) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x):
        X = _as_points(x)
        v = self.evaluate(X)
        return v[0] if np.asarray(x).ndim == 1 else v

    def gradient(self, x) -> np.ndarray:
        """Gradient; finite-difference fallback (4th order, step 1e-3)."""
        X = _as_points(x)
        g = np.zeros_like(X)
        for ax in range(4):
            acc = np.zeros(X.shape[0])
            for off, cf in zip(_FD4_OFFSETS, _FD4_COEFFS):
                Xs = X.copy()
                Xs[:, ax] += off * _FD_STEP
                acc += cf * self.evaluate(Xs)
            g[:, ax] = acc / _FD_STEP
        return g

    def poly_radial_terms(self):
        """Monomial-radial term list when the field has that structure."""
        return None

    # -- algebra (value-level closures; gradients by product/sum rule) -------

    def __mul__(self, other):
        if isinstance(other, ScalarField):
            return product_field(self, other)
        return scale_field(self, float(other))

    __rmul__ = __mul__

    def __add__(self, other):
        return sum_field([self, other])

    def __neg__(self):
        return scale_field(self, -1.0)

    def __sub__(self, other):
        return sum_field([self, other], [1.0, -1.0])


@dataclass
class FormulaField(ScalarField):
    """Closed-form field: fn maps (N, 4) points to N values."""

    fn: object
    grad: object = None
    symmetry: str = SYM_FULL
    decay: float | None = None
    asymptote: float | None = None
    name: str = ""

    def evaluate(self, x):
        return np.asarray(self.fn(_as_points(x)), dtype=float)

    def gradient(self, x):
        if self.grad is None:
            return super().gradient(x)
        return np.asarray(self.grad(_as_points(x)), dtype=float)


def zero_field() -> FormulaField:
    return FormulaField(lambda X: np.zeros(X.shape[0]), lambda X: np.zeros_like(X),
                        symmetry=SYM_RADIAL, decay=100.0, asymptote=0.0, name="0")


def scale_field(f: ScalarField, c: float) -> FormulaField:
    return FormulaField(lambda X: c * f.evaluate(X), lambda X: c * f.gradient(X),
                        symmetry=f.symmetry, decay=f.decay,
                        asymptote=None if f.asymptote is None else c * f.asymptote)


def sum_field(fields, coeffs=None) -> FormulaField:
    coeffs = [1.0] * len(fields) if coeffs is None else list(coeffs)

    def fn(X):
        return sum(c * f.evaluate(X) for c, f in zip(coeffs, fields))

    def grad(X):
        return sum(c * f.gradient(X) for c, f in zip(coeffs, fields))

    return FormulaField(fn, grad,
                        symmetry=join_symmetry(*[f.symmetry for f in fields]),
                        decay=min((f.decay for f in fields if f.decay is not None),
                                  default=None))


def product_field(f: ScalarField, g: ScalarField) -> FormulaField:
    def fn(X):
        return f.evaluate(X) * g.evaluate(X)

    def grad(X):
        return (f.gradient(X) * g.evaluate(X)[:, None]
                + g.gradient(X) * f.evaluate(X)[:, None])

    dec = None
    if f.decay is not None and g.decay is not None:
        dec = f.decay + g.decay
    return FormulaField(fn, grad, symmetry=join_symmetry(f.symmetry, g.symmetry),
                        decay=dec)


@dataclass
class AffineField(ScalarField):
    """prefactor * f(A x + b) for a linear map A; exact chain-rule gradient."""

    base: ScalarField
    matrix: np.ndarray
    shift: np.ndarray
    prefactor: float = 1.0
    symmetry: str = SYM_FULL
    decay: float | None = None

    def _map(self, X):
        return X @ self.matrix.T + self.shift

    def evaluate(self, x):
        return self.prefactor * self.base.evaluate(self._map(_as_points(x)))

    def gradient(self, x):
        g = self.base.gradient(self._map(_as_points(x)))
        return self.prefactor * (g @ self.matrix)


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

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        B = 1.0 / (1.0 - 0.5 * self.kappa * r * r)
        out = np.zeros_like(r)
        for (a, b), c in self.terms.items():
            out = out + c * r**a * B**b
        return out

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

    def evaluate(self, x):
        X = _as_points(x)
        r = np.sqrt(np.einsum("ij,ij->i", X, X))
        out = np.zeros(X.shape[0])
        for m, S in self.terms:
            out += _monomial(X, m) * S(r)
        return out

    def gradient(self, x):
        X = _as_points(x)
        r = np.sqrt(np.einsum("ij,ij->i", X, X))
        rs = np.where(r > 0, r, 1.0)
        g = np.zeros_like(X)
        for (m, S), dS in zip(self.terms, self._derivs):
            mono = _monomial(X, m)
            radial = S(r)
            dradial = dS(r)
            for j in range(4):
                if m[j]:
                    g[:, j] += m[j] * _monomial(X, m - _unit(j)) * radial
                g[:, j] += mono * X[:, j] * dradial / rs
        return g

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

    def integrate_exact(self, r_max=None, spec: QuadratureSpec | None = None
                        ) -> QuadratureResult:
        """Integral over R^4 via sphere moments and adaptive 1D quadrature."""
        spec = spec or QuadratureSpec()
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
        conv = err <= max(spec.abs_tol, spec.rel_tol * abs(total))
        return QuadratureResult(total, err, conv)


def _monomial(X, m):
    """x^m at the (N, 4) points X."""
    out = np.ones(X.shape[0])
    for i in range(4):
        if m[i]:
            out *= X[:, i] ** m[i]
    return out


def _unit(j):
    """Integer exponent vector of the monomial x_j."""
    e = np.zeros(4, dtype=int)
    e[j] = 1
    return e


# ---------------------------------------------------------------------------
# sampled fields on cylindrical grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid2DCyl:
    """Uniform grid in (x1, rbar) for fields of (x1, |(x2,x3,x4)|)."""

    x1_min: float
    x1_max: float
    n1: int
    r_max: float
    nr: int

    def __post_init__(self):
        if self.x1_max <= self.x1_min or self.r_max <= 0:
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


def cylinder_points(x1, r) -> np.ndarray:
    """Points (x1_i, r_j, 0, 0) of the (x1, rbar) tensor grid, i-major."""
    X1, R = np.meshgrid(x1, r, indexing="ij")
    P = np.zeros((X1.size, 4))
    P[:, 0] = X1.ravel()
    P[:, 1] = R.ravel()
    return P


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
        return RegularGridInterpolator(
            (self.grid.x1, _reflect(self.grid.r, -1.0)),
            _reflect(values, parity), method="cubic", bounds_error=False,
            fill_value=0.0)

    @staticmethod
    def _coords(X):
        return np.stack([X[:, 0], np.linalg.norm(X[:, 1:], axis=1)], axis=1)

    def evaluate(self, x):
        return self._interp(self._coords(_as_points(x)))

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

    def gradient(self, x):
        X = _as_points(x)
        self._ensure_grad()
        C = self._coords(X)
        d1 = self._grad_interp[0](C)
        dr = self._grad_interp[1](C)
        rbar = C[:, 1]
        unit = np.zeros((X.shape[0], 3))
        mask = rbar > 0
        unit[mask] = X[mask, 1:] / rbar[mask, None]
        out = np.zeros_like(X)
        out[:, 0] = d1
        out[:, 1:] = dr[:, None] * unit
        return out


def save_field(path, f: SampledField):
    """Write the self-describing .npz container: kind "cyl2d", the grid
    axes (x1_min, x1_max, n1, r_max, nr), the samples, the decay exponent
    (NaN when unknown) and any stored gradient grids grad_0, grad_1."""
    g = f.grid
    decay = f.decay if f.decay is not None else np.nan
    payload = dict(kind="cyl2d", samples=f.values, decay=decay,
                   x1_min=g.x1_min, x1_max=g.x1_max, n1=g.n1,
                   r_max=g.r_max, nr=g.nr)
    if f.gradient_values is not None:
        for i, gv in enumerate(f.gradient_values):
            payload[f"grad_{i}"] = gv
    np.savez(path, **payload)


def load_field(path) -> SampledField:
    with np.load(path, allow_pickle=False) as z:
        kind = str(z["kind"])
        if kind != "cyl2d":
            raise ValueError(f"unknown container kind {kind!r}")
        grid = Grid2DCyl(float(z["x1_min"]), float(z["x1_max"]), int(z["n1"]),
                         float(z["r_max"]), int(z["nr"]))
        grads = []
        i = 0
        while f"grad_{i}" in z:
            grads.append(z[f"grad_{i}"])
            i += 1
        decay = float(z["decay"])
        return SampledField(grid, z["samples"],
                            gradient_values=tuple(grads) or None,
                            decay=None if math.isnan(decay) else decay)


def save_pair(path, p: "FieldPair", grid) -> None:
    """Sample an energy-space pair on a grid and write one container."""
    first = p.first if isinstance(p.first, SampledField) else \
        _sample_on(p.first, grid)
    second = p.second if isinstance(p.second, SampledField) else \
        _sample_on(p.second, grid)
    g = first.grid
    payload = dict(kind="pair_cyl2d", samples_first=first.values,
                   samples_second=second.values,
                   x1_min=g.x1_min, x1_max=g.x1_max, n1=g.n1,
                   r_max=g.r_max, nr=g.nr)
    np.savez(path, **payload)


def load_pair(path) -> "FieldPair":
    with np.load(path, allow_pickle=False) as z:
        if str(z["kind"]) != "pair_cyl2d":
            raise ValueError("not a pair container")
        grid = Grid2DCyl(float(z["x1_min"]), float(z["x1_max"]), int(z["n1"]),
                         float(z["r_max"]), int(z["nr"]))
        return FieldPair(SampledField(grid, z["samples_first"]),
                         SampledField(grid, z["samples_second"]))


def _sample_on(f: ScalarField, grid) -> SampledField:
    values = f.evaluate(cylinder_points(grid.x1, grid.r))
    return SampledField(grid, values.reshape(grid.n1, grid.nr), decay=f.decay)


def load_field_csv(path) -> SampledField:
    """Plain-text import: header '# cyl2d' then rows x1,r,value in x1-major
    order on a uniform grid whose r axis starts at 0.  Any other layout
    raises ValueError rather than misplacing samples."""
    with open(path) as fh:
        rows = [row for row in csv.reader(fh)
                if row and not row[0].lstrip().startswith("#")]
    data = np.asarray(rows, dtype=float)
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
        _check_compatible(self.first, self.second)

    def plus(self, other: "FieldPair", coeff: float = 1.0) -> "FieldPair":
        return FieldPair(sum_field([self.first, other.first], [1.0, coeff]),
                         sum_field([self.second, other.second], [1.0, coeff]))


def zero_pair() -> FieldPair:
    return FieldPair(zero_field(), zero_field())


def _check_compatible(*fields):
    tags = [f.symmetry for f in fields]
    if SYM_FULL in tags and any(t != SYM_FULL for t in tags):
        raise SymmetryMismatch(
            "cannot combine a full-4D field with a reduced-symmetry field; "
            f"tags = {tags}")


def _pair_decay(f, g, extra=0.0):
    if f.decay is None or g.decay is None:
        return None
    return f.decay + g.decay + extra


def integrate_field(f: ScalarField) -> QuadratureResult:
    """Integral of f over R^4 (exact angular path for monomial-radial fields)."""
    spec = QuadratureSpec()
    if f.poly_radial_terms() is not None:
        return f.integrate_exact(r_max=spec.r_max, spec=spec)
    return integrate_callable(f.evaluate, f.symmetry, spec, decay=f.decay)


def _pairs_exactly(f: ScalarField, g: ScalarField) -> bool:
    """Whether f and g pair in the RationalRadial algebra: both are
    monomial-radial, and their radial parts share one bubble scale."""
    tf, tg = f.poly_radial_terms(), g.poly_radial_terms()
    if tf is None or tg is None:
        return False
    return len({S.kappa for _, S in tf + tg if not S.is_zero}) <= 1


def inner_l2(f: ScalarField, g: ScalarField,
             spec: QuadratureSpec | None = None) -> float:
    spec = spec or QuadratureSpec()
    if _pairs_exactly(f, g):
        return f.product(g).integrate_exact(r_max=spec.r_max, spec=spec).value
    _check_compatible(f, g)
    sym = join_symmetry(f.symmetry, g.symmetry)

    def fn(X):
        v = f.evaluate(X)
        return v * (v if g is f else g.evaluate(X))

    return integrate_callable(fn, sym, spec, decay=_pair_decay(f, g)).value


def inner_hdot1(f: ScalarField, g: ScalarField,
                spec: QuadratureSpec | None = None) -> float:
    spec = spec or QuadratureSpec()
    if _pairs_exactly(f, g):
        return f.grad_dot(g).integrate_exact(r_max=spec.r_max, spec=spec).value
    _check_compatible(f, g)
    sym = join_symmetry(f.symmetry, g.symmetry)

    def fn(X):
        G = f.gradient(X)
        return np.einsum("ij,ij->i", G, G if g is f else g.gradient(X))

    return integrate_callable(fn, sym, spec,
                              decay=_pair_decay(f, g, 2.0)).value


def norm_l2(f: ScalarField) -> float:
    return math.sqrt(max(inner_l2(f, f), 0.0))


def norm_hdot1(f: ScalarField, spec: QuadratureSpec | None = None) -> float:
    return math.sqrt(max(inner_hdot1(f, f, spec), 0.0))


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


# feature layout of kind "both": the first component, its gradient, the
# second component.  Kind "h" drops column 0 (so d/dx1 of the first
# component sits at _H_D1 and the second at _H_SECOND); kind "l2" keeps
# columns _L2_COLS only, and neither samples what its pairing does not use.
# _H_COLS are the kind "h" columns of a kind "both" row.
_H_D1, _H_SECOND = 0, 4
_L2_COLS = [0, 5]
_H_COLS = slice(1, None)


def _h_features(grad, second) -> np.ndarray:
    """Kind "h" feature rows (N, 5) from the (N, 4) gradient samples of a
    first component and the (N,) samples of a second component."""
    return np.column_stack([grad, second])


def _pairing_features(pairs, X, kind: str) -> np.ndarray:
    """(N, n, k) stack of the pairs' features at X in the layout above:
    k = 6 for kind "both", 5 for "h" and 2 for "l2"."""
    def row(p):
        second = p.second.evaluate(X)
        if kind == "l2":
            return np.column_stack([p.first.evaluate(X), second])
        h = _h_features(p.first.gradient(X), second)
        return h if kind == "h" else np.column_stack([p.first.evaluate(X), h])

    return np.stack([row(p) for p in pairs], axis=1)


def _kind_features(p, X, kinds) -> dict:
    """{kind: (N, k) features of pair p at X} for each of kinds, in the
    layouts above; the second component is sampled once for both."""
    second = p.second.evaluate(X)
    out = {}
    if "h" in kinds:
        out["h"] = _h_features(p.first.gradient(X), second)
    if "l2" in kinds:
        out["l2"] = np.column_stack([p.first.evaluate(X), second])
    return out


def pairing_block(rows, cols, kind,
                  spec: QuadratureSpec | None = None) -> np.ndarray:
    """Matrix of pairings (rows_i, cols_j) in one shared quadrature pass.

    kind "l2" pairs componentwise in L2 and kind "h" uses the energy pairing
    (Hdot1 on first components, L2 on second); kind may also be a sequence
    of them, one per column.  Each distinct pair (by identity) is sampled
    once per batch of quadrature nodes, with only the features its kinds
    read: a row takes those of every kind among the columns, a column those
    of its own kind, so a column paired only in L2 never has its gradient
    sampled.  Each kind's (N, len(rows), columns of that kind) block is one
    stacked matrix product of the feature stacks, so the cost is linear in
    the basis size.
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
    every = list(rows) + list(cols)
    _check_compatible(*[p.first for p in every])
    sym = join_symmetry(*[p.symmetry for p in every])

    groups = {k: [j for j, kj in enumerate(kinds) if kj == k]
              for k in dict.fromkeys(kinds)}
    need = {id(p): (p, set()) for p in every}
    for p in rows:
        need[id(p)][1].update(groups)
    for p, k in zip(cols, kinds):
        need[id(p)][1].add(k)
    row_ids = [id(p) for p in rows]
    col_ids = {k: [id(cols[j]) for j in idx] for k, idx in groups.items()}
    # a kind whose columns are one run is formed in place: the block is a
    # batch's largest array
    where = {k: slice(idx[0], idx[-1] + 1)
             if idx[-1] - idx[0] == len(idx) - 1 else idx
             for k, idx in groups.items()}

    def fn(X):
        feats = {key: _kind_features(p, X, ks)
                 for key, (p, ks) in need.items()}
        out = np.empty((X.shape[0],) + shape)
        for k, at in where.items():
            R = np.stack([feats[key][k] for key in row_ids], axis=1)
            C = R if col_ids[k] == row_ids else np.stack(
                [feats[key][k] for key in col_ids[k]], axis=1)
            if isinstance(at, slice):
                np.matmul(R, C.transpose(0, 2, 1), out=out[:, :, at])
            else:
                out[:, :, at] = R @ C.transpose(0, 2, 1)
        return out

    return np.asarray(integrate_callable(fn, sym, spec).value)


def norm_l4(f: ScalarField, spec: QuadratureSpec | None = None) -> float:
    spec = spec or QuadratureSpec()
    dec = None if f.decay is None else 4 * f.decay
    v = integrate_callable(lambda X: f.evaluate(X) ** 4, f.symmetry, spec,
                           decay=dec).value
    return max(v, 0.0) ** 0.25


def hardy_sobolev_check(f: ScalarField,
                        spec: QuadratureSpec | None = None) -> tuple:
    """Ratios (||f||_L4 / ||grad f||_L2, ||f/|x|||_L2 / ||grad f||_L2)."""
    spec = spec or QuadratureSpec()
    gnorm = norm_hdot1(f, spec)
    if gnorm == 0.0:
        return (0.0, 0.0)
    l4 = norm_l4(f, spec)

    def over_x2(X):
        r2 = np.maximum(np.sum(X * X, axis=1), 1e-300)
        return f.evaluate(X) ** 2 / r2

    dec = None if f.decay is None else 2 * f.decay + 2
    hardy = math.sqrt(max(integrate_callable(over_x2, f.symmetry, spec,
                                             decay=dec).value, 0.0))
    return (l4 / gnorm, hardy / gnorm)
