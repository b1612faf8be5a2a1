"""Stationary states, their transform group, and kernel generators.

The ground state is the explicit bubble W(x) = (1 + |x|^2/8)^-1.  The
15-parameter symmetry group (dilation, translation, rotation, inversion
center) acts on the stationary set; differentiating the group action at the
identity produces the 15 kernel generator fields of the linearized operator
-Delta - 3q^2.

Profiles used here are sums of monomial * rational-radial terms, so the
generators, their gradients and all pairings among them are computed exactly
(see :class:`~wave4d.fields.RationalRadial`).  A closed-form surrogate
excited state with the x4/|x|^4 far field replaces the (non-explicit) true
excited state; its metadata records that it does not solve the elliptic
equation, and sampled profiles can be imported through the field container
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.linalg import expm

from .fields import (
    AffineField,
    Combination,
    FormulaField,
    PolyRadialField,
    RationalRadial,
    SampledField,
    ScalarField,
    _unit,
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


def _poly_from(terms, name="") -> PolyRadialField:
    cleaned = [(m, rr) for m, rr in terms if not rr.is_zero]
    if not cleaned:
        out = PolyRadialField([(np.zeros(4, dtype=int),
                                RationalRadial(-0.25, {}))],
                              decay=100.0, name=name or "0")
        out.is_zero = True
        return out
    decay = min(rr.decay_exponent() - int(np.sum(np.asarray(m)))
                for m, rr in cleaned)
    return PolyRadialField(cleaned, decay=decay, name=name)


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
    return _poly_from([(_unit(3), RationalRadial(-0.25, {(0, 2): 1.0}))],
                      name="seed")


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
    Q = _poly_from([(_unit(3), RationalRadial(-16.0, {(0, 2): 64.0}))],
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
    return AffineField(f, np.full(4, float(lam)), np.zeros(4),
                       symmetry=f.symmetry, decay=f.decay) * lam


def translate(f: ScalarField, x0) -> ScalarField:
    """f(x + x0).  The shift composes into the map of each leaf, so a
    translated combination stays flat, one map per leaf."""
    x0 = np.asarray(x0, dtype=float)
    if not np.any(x0):
        return f
    sym = SYM_FULL if np.any(x0[1:] != 0.0) else \
        join_symmetry(f.symmetry, SYM_CYL)
    if isinstance(f, Combination):
        return Combination(tuple((c, translate(g, x0)) for c, g in f.terms),
                           symmetry=sym, decay=f.decay)
    if not isinstance(f, AffineField):
        f = AffineField(f, np.ones(4), np.zeros(4), decay=f.decay)
    return AffineField(f.base, f.scale, f.scale * x0 + f.shift, symmetry=sym,
                       decay=f.decay, derivative=f.derivative)


def rotate(f: ScalarField, theta) -> FormulaField:
    """f(R_theta x), with the exact gradient (grad f)(R_theta x) R_theta."""
    R = rotation_matrix(theta)
    return FormulaField(lambda X: f.evaluate(X @ R.T),
                        lambda X: f.gradient(X @ R.T) @ R,
                        symmetry=SYM_FULL if f.symmetry != SYM_RADIAL
                        else SYM_RADIAL, decay=f.decay,
                        name=f"R[{getattr(f, 'name', '')}]")


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

def _generator_exact(terms, gid: str, name: str) -> PolyRadialField:
    out = []
    for m, S in terms:
        am = int(m.sum())
        dS = S.deriv()
        r = RationalRadial(S.kappa, {(1, 0): 1.0})
        if gid == "scaling":
            out.append((m, S.scaled(1.0 + am).plus(dS.times(r))))
        elif gid.startswith("translation_"):
            i = int(gid[-1]) - 1
            if m[i]:
                out.append((m - _unit(i), S.scaled(float(m[i]))))
            out.append((m + _unit(i), dS.div_r()))
        elif gid.startswith("rotation_"):
            i, j = int(gid[-2]) - 1, int(gid[-1]) - 1
            if m[j]:
                out.append((m + _unit(i) - _unit(j), S.scaled(float(m[j]))))
            if m[i]:
                out.append((m + _unit(j) - _unit(i), S.scaled(-float(m[i]))))
        elif gid.startswith("conformal_"):
            i = int(gid[-1]) - 1
            if m[i]:
                out.append((m - _unit(i),
                            S.times(r).times(r).scaled(float(m[i]))))
            out.append((m + _unit(i),
                        S.scaled(-2.0 * (1.0 + am)).plus(
                            dS.times(r).scaled(-1.0))))
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
            return fn_of_x_f_g(X, *f.jet(X))
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
    terms = f.poly_radial_terms()
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
