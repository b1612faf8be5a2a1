"""Stationary states, their transform group, and kernel generators.

The ground state is the explicit bubble W(x) = (1 + |x|^2/8)^-1.  The
15-parameter symmetry group (dilation, translation, rotation, inversion
center) acts on the stationary set; differentiating the group action at the
identity produces the 15 kernel generator fields of the linearized operator
-Delta - 3q^2.

Profiles used here are sums of monomial * rational-radial terms, so the
generators, their gradients and all pairings among them are computed exactly
(see :class:`RationalRadial`).  A closed-form surrogate excited state with
the x4/|x|^4 far field replaces the (non-explicit) true excited state; its
metadata records that it does not solve the elliptic equation, and sampled
profiles can be imported through the field container instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.linalg import expm

from .fields import (
    AffineField,
    FormulaField,
    PolyRadialField,
    RadialPart,
    SampledField,
    ScalarField,
    cylinder_points,
    load_field,
    load_field_csv,
)
from .quadrature import (
    SYM_BICYL,
    SYM_CYL,
    SYM_FULL,
    SYM_RADIAL,
    QuadratureSpec,
    join_symmetry,
)

GENERATOR_IDS = (
    "scaling",
    "translation_1", "translation_2", "translation_3", "translation_4",
    "rotation_12", "rotation_13", "rotation_14",
    "rotation_23", "rotation_24", "rotation_34",
    "conformal_1", "conformal_2", "conformal_3", "conformal_4",
)

# kernel_basis drops candidates below DROP_TOL * the leading Gram diagonal
DROP_TOL = 1e-8


class SingularTransform(ValueError):
    pass


# ---------------------------------------------------------------------------
# exact rational-radial algebra
# ---------------------------------------------------------------------------

class RationalRadial:
    """Sum of c * r^a * B(r)^b with B(r) = (1 - kappa r^2 / 2)^-1.

    B satisfies B' = kappa r B^2, so the family is closed under d/dr and
    division by r (whenever every power a >= 1).  kappa = -1/4 gives the
    ground-state bubble, kappa = -16 the inverted-scale bubble of the
    surrogate state.
    """

    def __init__(self, kappa: float, terms: dict):
        self.kappa = float(kappa)
        self.terms = {}
        for (a, b), c in terms.items():
            if c != 0.0:
                self.terms[(int(a), int(b))] = self.terms.get((int(a), int(b)), 0.0) + c
        self.terms = {k: v for k, v in self.terms.items() if v != 0.0}

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

    def times_r2(self) -> "RationalRadial":
        return RationalRadial(self.kappa,
                              {(a + 2, b): c for (a, b), c in self.terms.items()})

    def scaled(self, s: float) -> "RationalRadial":
        return RationalRadial(self.kappa,
                              {k: s * c for k, c in self.terms.items()})

    def plus(self, other: "RationalRadial") -> "RationalRadial":
        if other.kappa != self.kappa and other.terms and self.terms:
            raise ValueError("cannot mix bubble scales")
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0.0) + c
        return RationalRadial(self.kappa if self.terms else other.kappa, out)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def decay_exponent(self) -> float:
        """Exact power p with c r^-p leading behavior (B ~ -2/(kappa r^2))."""
        if self.is_zero:
            return math.inf
        return float(min(2 * b - a for (a, b) in self.terms))

    def part(self) -> RadialPart:
        d1 = self.deriv()
        d2 = d1.deriv()
        return RadialPart(self, d1, d2)


def _poly_from(terms, name="") -> PolyRadialField:
    cleaned = [(m, rr) for m, rr in terms if not rr.is_zero]
    if not cleaned:
        out = PolyRadialField([(np.zeros(4, dtype=int),
                                RationalRadial(-0.25, {}).part())],
                              decay=100.0, name=name or "0")
        out.is_zero = True
        return out
    decay = min(rr.decay_exponent() - int(np.sum(np.asarray(m)))
                for m, rr in cleaned)
    return PolyRadialField([(m, rr.part()) for m, rr in cleaned],
                           decay=decay, name=name)


def _e(i):
    v = np.zeros(4, dtype=int)
    v[i] = 1
    return v


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def ground_state() -> PolyRadialField:
    """The explicit positive stationary profile (1 + |x|^2/8)^-1."""
    W = _poly_from([(np.zeros(4, dtype=int),
                     RationalRadial(-0.25, {(0, 1): 1.0}))], name="W")
    W.asymptote = 8.0
    W.core = math.sqrt(8.0)
    W.meta = {"pde_solution": True}
    return W


def surrogate_seed() -> PolyRadialField:
    """Default seed x4 * W(x)^2 for the surrogate excited state."""
    q = _poly_from([(_e(3), RationalRadial(-0.25, {(0, 2): 1.0}))], name="seed")
    return q


@dataclass
class SurrogateSpec:
    """Seed profile plus the origin normalization it must satisfy."""

    seed: ScalarField = dc_field(default_factory=surrogate_seed)
    tol: float = 1e-12

    def verify(self):
        origin = np.zeros((1, 4))
        v = float(self.seed.evaluate(origin)[0])
        g = self.seed.gradient(origin)[0]
        ok = (abs(v) <= self.tol and np.all(np.abs(g[:3]) <= self.tol)
              and abs(g[3] - 1.0) <= self.tol)
        if not ok:
            raise ValueError(
                "seed normalization violated: needs value 0, transverse "
                f"gradient 0 and d/dx4 = 1 at the origin, got {v}, {g}")
        return dict(value=v, gradient=g.tolist())


def surrogate_excited_state() -> ScalarField:
    """Closed-form stand-in with the excited-state far field x4/|x|^4.

    The Kelvin inversion of the default seed, done in closed form:
    64 x4 (1 + 8|x|^2)^-2.  The profile is smooth, odd in x4, satisfies the
    |Q - x4/|x|^4| <= C/|x|^4 bound and the <x>^-(3+|a|) derivative bounds,
    but it is not a solution of the elliptic equation; meta records this.
    """
    Q = _poly_from([(_e(3), RationalRadial(-16.0, {(0, 2): 64.0}))],
                   name="Q_surrogate")
    Q.core = 1.0 / math.sqrt(8.0)
    Q.meta = {"pde_solution": False, "normalization": SurrogateSpec().verify()}
    return Q


def load_profile(path) -> SampledField:
    """Import an externally computed profile from the field container."""
    p = str(path)
    f = load_field_csv(p) if p.endswith(".csv") else load_field(p)
    f.meta.setdefault("pde_solution", "unverified")
    return f


# ---------------------------------------------------------------------------
# transform group
# ---------------------------------------------------------------------------

@dataclass
class TransformParams:
    """(dilation, inversion center, translation, rotation angles)."""

    lam: float = 1.0
    z: tuple = (0.0, 0.0, 0.0, 0.0)
    xi: tuple = (0.0, 0.0, 0.0, 0.0)
    theta: tuple = (0.0,) * 6

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("dilation parameter must be positive")

    @property
    def is_identity(self) -> bool:
        return (self.lam == 1.0 and not any(self.z) and not any(self.xi)
                and not any(self.theta))


def rotation_matrix(theta) -> np.ndarray:
    """exp of the antisymmetric matrix with upper entries theta_ij."""
    th = np.asarray(theta, dtype=float)
    if th.shape != (6,):
        raise ValueError("need 6 rotation angles (ij), 1<=i<j<=4")
    A = np.zeros((4, 4))
    k = 0
    for i in range(4):
        for j in range(i + 1, 4):
            A[i, j] = th[k]
            A[j, i] = -th[k]
            k += 1
    return expm(A)


def dilate(f: ScalarField, lam: float) -> ScalarField:
    """lam * f(lam x)."""
    if lam <= 0:
        raise ValueError("dilation parameter must be positive")
    return AffineField(f, lam * np.eye(4), np.zeros(4), prefactor=lam,
                       symmetry=f.symmetry, decay=f.decay)


def translate(f: ScalarField, x0) -> ScalarField:
    """f(x + x0)."""
    x0 = np.asarray(x0, dtype=float)
    sym = f.symmetry
    if np.any(x0[1:] != 0.0):
        sym = SYM_FULL
    elif x0[0] != 0.0:
        sym = join_symmetry(sym, SYM_CYL)
    return AffineField(f, np.eye(4), x0, symmetry=sym, decay=f.decay)


def rotate(f: ScalarField, theta) -> ScalarField:
    """f(R_theta x)."""
    R = rotation_matrix(theta)
    return AffineField(f, R, np.zeros(4), symmetry=SYM_FULL
                       if f.symmetry != SYM_RADIAL else SYM_RADIAL,
                       decay=f.decay)


def kelvin(f: ScalarField) -> FormulaField:
    """Kelvin transform |x|^-2 f(x / |x|^2).

    The value at x = 0 is the declared far-field limit of f: zero when f
    decays faster than |x|^-2, the asymptote coefficient when decay == 2;
    profiles without that metadata are rejected.
    """
    if f.decay is None or f.decay < 2:
        raise ValueError("Kelvin transform needs decay >= 2 metadata")
    if f.decay == 2 and f.asymptote is None:
        raise ValueError("decay-2 profile needs an asymptote for the origin")
    limit = 0.0 if f.decay > 2 else float(f.asymptote)

    def fn(X):
        r2 = np.sum(X * X, axis=1)
        out = np.full(X.shape[0], limit)
        mask = r2 > 1e-16
        Y = X[mask] / r2[mask, None]
        out[mask] = f.evaluate(Y) / r2[mask]
        return out

    def grad(X):
        r2 = np.sum(X * X, axis=1)
        out = np.zeros_like(X)
        mask = r2 > 1e-16
        Xm = X[mask]
        r2m = r2[mask, None]
        Y = Xm / r2m
        fv = f.evaluate(Y)
        gv = f.gradient(Y)
        # grad(|x|^-2) f(y) + |x|^-2 J^T grad f(y),  J = (I - 2 xhat xhat^T)/|x|^2
        gdoty = np.einsum("ij,ij->i", gv, Xm)
        out[mask] = (-2.0 * Xm / r2m**2 * fv[:, None]
                     + (gv - 2.0 * Xm * gdoty[:, None] / r2m[:, 0][:, None])
                     / r2m**2)
        return out

    g = FormulaField(fn, grad, symmetry=f.symmetry, decay=2.0,
                     asymptote=None, name=f"K[{getattr(f, 'name', '')}]")
    origin_val = float(f.evaluate(np.zeros((1, 4)))[0])
    g.asymptote = origin_val  # K f ~ f(0) |x|^-2 at infinity
    return g


def apply_transform(f: ScalarField, params: TransformParams) -> FormulaField:
    """Full 15-parameter group element acting on a profile.

    Evaluation points where the inversion denominator vanishes are rejected
    with a report of the offending points.
    """
    lam = params.lam
    z = np.asarray(params.z, dtype=float)
    xi = np.asarray(params.xi, dtype=float)
    R = rotation_matrix(params.theta)

    def fn(X):
        r2 = np.sum(X * X, axis=1)
        den = 1.0 - 2.0 * X @ z + np.dot(z, z) * r2
        bad = np.abs(den) < 1e-12
        if np.any(bad):
            raise SingularTransform(
                f"transform singular at points {X[bad][:3].tolist()}")
        Y = xi[None, :] + lam * (X - z[None, :] * r2[:, None]) @ R.T / den[:, None]
        return lam * f.evaluate(Y) / den

    if params.is_identity:
        sym = f.symmetry
    elif any(params.z) or any(params.theta) or any(params.xi[1:]):
        sym = SYM_FULL
    elif params.xi[0] != 0.0:
        sym = join_symmetry(f.symmetry, SYM_CYL)
    else:
        sym = f.symmetry
    return FormulaField(fn, symmetry=sym, decay=f.decay, name="T[f]")


# ---------------------------------------------------------------------------
# kernel generators
# ---------------------------------------------------------------------------

def _rational_terms(f: ScalarField):
    terms = f.poly_radial_terms()
    if terms is None:
        return None
    out = []
    for m, p in terms:
        if not isinstance(p.f, RationalRadial):
            return None
        out.append((np.asarray(m, dtype=int), p.f))
    return out


def _generator_exact(terms, gid: str, name: str) -> PolyRadialField:
    out = []
    for m, S in terms:
        am = int(m.sum())
        rS = RationalRadial(S.kappa, {(a + 1, b): c for (a, b), c in S.terms.items()})
        dS = S.deriv()
        if gid == "scaling":
            out.append((m, S.scaled(1.0 + am).plus(
                RationalRadial(S.kappa, {(a + 1, b): c for (a, b), c
                                         in dS.terms.items()}))))
        elif gid.startswith("translation_"):
            i = int(gid[-1]) - 1
            if m[i]:
                out.append((m - _e(i), S.scaled(float(m[i]))))
            out.append((m + _e(i), dS.div_r()))
        elif gid.startswith("rotation_"):
            i, j = int(gid[-2]) - 1, int(gid[-1]) - 1
            if m[j]:
                out.append((m + _e(i) - _e(j), S.scaled(float(m[j]))))
            if m[i]:
                out.append((m + _e(j) - _e(i), S.scaled(-float(m[i]))))
        elif gid.startswith("conformal_"):
            i = int(gid[-1]) - 1
            if m[i]:
                out.append((m - _e(i), S.times_r2().scaled(float(m[i]))))
            out.append((m + _e(i), S.scaled(-2.0 * (1.0 + am)).plus(
                RationalRadial(S.kappa, {(a + 1, b): -c for (a, b), c
                                         in dS.terms.items()}))))
        else:
            raise ValueError(f"unknown generator id {gid!r}")
    merged: dict = {}
    for m, rr in out:
        key = tuple(m)
        merged[key] = merged[key].plus(rr) if key in merged else rr
    return _poly_from([(np.asarray(k, dtype=int), rr)
                       for k, rr in merged.items()], name=name)


def _generator_generic(f: ScalarField, gid: str) -> FormulaField:
    def with_grad(fn_of_x_f_g):
        def fn(X):
            return fn_of_x_f_g(X, f.evaluate(X), f.gradient(X))
        return fn

    if gid == "scaling":
        fn = with_grad(lambda X, v, g: v + np.einsum("ij,ij->i", X, g))
        sym = f.symmetry
    elif gid.startswith("translation_"):
        i = int(gid[-1]) - 1
        fn = with_grad(lambda X, v, g: g[:, i])
        sym = {0: join_symmetry(f.symmetry, SYM_CYL),
               3: join_symmetry(f.symmetry, SYM_BICYL)}.get(i, SYM_FULL)
    elif gid.startswith("rotation_"):
        i, j = int(gid[-2]) - 1, int(gid[-1]) - 1
        fn = with_grad(lambda X, v, g: X[:, i] * g[:, j] - X[:, j] * g[:, i])
        sym = join_symmetry(f.symmetry, SYM_BICYL) if (i, j) == (0, 3) else SYM_FULL
    elif gid.startswith("conformal_"):
        i = int(gid[-1]) - 1
        fn = with_grad(lambda X, v, g: -2.0 * X[:, i] * v
                       + np.sum(X * X, axis=1) * g[:, i]
                       - 2.0 * X[:, i] * np.einsum("ij,ij->i", X, g))
        sym = {0: join_symmetry(f.symmetry, SYM_CYL),
               3: join_symmetry(f.symmetry, SYM_BICYL)}.get(i, SYM_FULL)
    else:
        raise ValueError(f"unknown generator id {gid!r}")
    dec = None if f.decay is None else f.decay + (1 if gid.startswith("t") else 0)
    return FormulaField(fn, symmetry=sym, decay=dec, name=f"{gid}[f]")


def symmetry_generator(f: ScalarField, gid: str) -> ScalarField:
    """One of the 15 kernel generator fields of the linearized operator.

    Exact monomial-radial output whenever the profile has that structure;
    otherwise a closure over f's values and gradients.
    """
    if gid not in GENERATOR_IDS:
        raise ValueError(f"unknown generator id {gid!r}")
    terms = _rational_terms(f)
    if terms is not None:
        return _generator_exact(terms, gid, name=f"{gid}[{getattr(f,'name','')}]")
    return _generator_generic(f, gid)


@dataclass
class KernelBasis:
    """Slow direction (conformal_4 field) plus a rank-filtered spanning set."""

    slow: ScalarField
    fields: list
    ids: list
    gram: np.ndarray
    rank: int
    dropped: list


def kernel_basis(Q: ScalarField) -> KernelBasis:
    """psi = conformal_4 generator; remaining 14 candidates rank-filtered.

    Candidates whose Schur-complement contribution to the Hdot1 Gram matrix
    falls below DROP_TOL * leading diagonal are discarded (symmetric
    profiles degenerate the 15-dimensional span); the achieved rank is
    reported rather than asserted.
    """
    from .fields import inner_hdot1

    spec = QuadratureSpec(r_max=400.0)
    psi = symmetry_generator(Q, "conformal_4")
    cand_ids = [g for g in GENERATOR_IDS if g != "conformal_4"]
    cands = [symmetry_generator(Q, g) for g in cand_ids]

    live = [(g, f) for g, f in zip(cand_ids, cands)
            if not getattr(f, "is_zero", False)]
    dropped = [g for g in cand_ids if g not in [gg for gg, _ in live]]

    n = len(live)
    G = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            G[i, j] = G[j, i] = inner_hdot1(live[i][1], live[j][1], spec)
    lead = max(np.max(np.diag(G)), 1e-300)
    selected: list = []
    for j in range(n):
        if selected:
            Gs = G[np.ix_(selected, selected)]
            gj = G[selected, j]
            resid = G[j, j] - gj @ np.linalg.solve(Gs, gj)
        else:
            resid = G[j, j]
        if resid > DROP_TOL * lead:
            selected.append(j)
        else:
            dropped.append(live[j][0])
    keep_ids = [live[j][0] for j in selected]
    keep_fields = [live[j][1] for j in selected]

    # the kept block is the rank filter's Gram; only psi's row is new
    m = len(selected) + 1
    Gfull = np.empty((m, m))
    Gfull[1:, 1:] = G[np.ix_(selected, selected)]
    Gfull[0, :] = Gfull[:, 0] = [inner_hdot1(psi, f, spec)
                                 for f in [psi] + keep_fields]
    return KernelBasis(slow=psi, fields=keep_fields, ids=keep_ids,
                       gram=Gfull, rank=len(keep_ids), dropped=dropped)


def symmetric_generator_ids(Q: ScalarField, symmetry: str) -> list:
    """Generator ids whose fields stay within the given symmetry class."""
    from .quadrature import symmetry_rank

    out = []
    for gid in GENERATOR_IDS:
        g = symmetry_generator(Q, gid)
        if getattr(g, "is_zero", False):
            continue
        if symmetry_rank(g.symmetry) <= symmetry_rank(symmetry):
            out.append(gid)
    return out


# ---------------------------------------------------------------------------
# stationary-equation residuals on grids
# ---------------------------------------------------------------------------

def radial_residual_norm(f: ScalarField, r_max: float, n: int) -> float:
    """L2(r^3 dr) norm of -(S'' + 3 S'/r) - S^3 with 2nd-order stencils."""
    h = r_max / n
    r = (np.arange(1, n) * h)
    X = np.zeros((r.size, 4))
    X[:, 0] = r
    S = f.evaluate(X)
    Xp = X.copy(); Xp[:, 0] += h
    Xm = X.copy(); Xm[:, 0] -= h
    Sp, Sm = f.evaluate(Xp), f.evaluate(np.abs(Xm))
    lap = (Sp - 2 * S + Sm) / h**2 + (3.0 / r) * (Sp - Sm) / (2 * h)
    res = -lap - S**3
    w = 2 * math.pi**2 * r**3 * h
    return float(np.sqrt(np.sum(res**2 * w)))


def cylindrical_residual_norm(f: ScalarField, x1_range, r_max: float,
                              n1: int, nr: int) -> float:
    """Same residual for x1-dependent profiles on a cylindrical grid."""
    x1 = np.linspace(*x1_range, n1)
    h1 = x1[1] - x1[0]
    hr = r_max / nr
    rb = (np.arange(1, nr) * hr)

    def sample(xs, rs):
        return f.evaluate(cylinder_points(xs, rs)).reshape(xs.size, rs.size)

    S = sample(x1, rb)
    lap = np.zeros_like(S)
    lap[1:-1, :] += (S[2:, :] - 2 * S[1:-1, :] + S[:-2, :]) / h1**2
    Sp = sample(x1, rb + hr)
    Sm = sample(x1, rb - hr)
    lap += (Sp - 2 * S + Sm) / hr**2 + (2.0 / rb)[None, :] * (Sp - Sm) / (2 * hr)
    res = (-lap - S**3)[1:-1, :]
    w = 4 * math.pi * rb**2 * hr * h1
    return float(np.sqrt(np.sum(res**2 * w[None, :])))
