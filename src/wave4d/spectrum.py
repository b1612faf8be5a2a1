"""Discretized eigenproblem for the linearized operator -Delta - 3 q^2.

The radial sector reduces to -(d2/dr2 + (3/r) d/dr) - 3 q(r)^2 on (0, R)
with a Dirichlet wall at R.  A finite-volume discretization on cell centers
conserves the r^3 flux exactly at the axis and is symmetrized by the measure
weight, giving a symmetric tridiagonal matrix solved densely (deterministic,
all eigenvalues available).  The cylindrical sector couples a node-centered
x1 axis with the same finite-volume reduction in the 3D transverse radius
and is solved by shift-invert Lanczos around a negative shift with a fixed
start vector.

An independent shooting oracle (outward ODE integration plus bisection on
the sign of the far-field value) cross-checks the negative eigenvalues; the
two routes share nothing but the profile.  The oracle integrates with the
eighth-order Dormand-Prince pair (DOP853), which at its rtol of 1e-11 needs
about a third of the steps of the fifth-order pair; each step samples the
profile point by point, so the step count sets its cost.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq
from scipy.sparse.linalg import eigsh

from .fields import FormulaField, ScalarField, cylinder_points
from .fitting import DecayFit, fit_exponential
from .quadrature import SYM_CYL, SYM_RADIAL, QuadratureSpec, symmetry_rank
from .states import ground_state

# kernel_count aligns modes on the inner TRUSTED_FRACTION of the domain
TRUSTED_FRACTION = 0.25
# relative tolerance of the shooting oracle's DOP853 integration
ORACLE_RTOL = 1e-11


@dataclass
class RadialOperator:
    """Symmetric tridiagonal reduction of -Delta - 3 q^2 in L2(r^3 dr)."""

    r: np.ndarray
    h: float
    main: np.ndarray
    off: np.ndarray
    r_max: float
    sector: str = "radial"

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = self.main * u
        out[:-1] += self.off * u[1:]
        out[1:] += self.off * u[:-1]
        return out


@dataclass
class CylOperator:
    """Sparse symmetric reduction on an (x1, rbar) cylinder grid."""

    matrix: sp.spmatrix
    x1: np.ndarray
    r: np.ndarray
    r_max: float
    length: float
    sector: str = "cylindrical"

    def apply(self, u: np.ndarray) -> np.ndarray:
        return self.matrix @ u


def _profile_on_axis(q: ScalarField, r: np.ndarray) -> np.ndarray:
    X = np.zeros((r.size, 4))
    X[:, 0] = r
    return q.evaluate(X)


def assemble_radial(q: ScalarField, r_max: float = 30.0,
                    n: int = 3000) -> RadialOperator:
    """Finite-volume radial operator; q must be radially symmetric."""
    if q.symmetry != SYM_RADIAL:
        raise ValueError("radial sector requires a radial profile")
    h = r_max / n
    r = (np.arange(n) + 0.5) * h
    faces = np.arange(n + 1) * h
    f3 = faces**3
    qv = _profile_on_axis(q, r)
    main = (f3[:-1] + f3[1:]) / (h * h * r**3) - 3.0 * qv**2
    off = -f3[1:-1] / (h * h * np.sqrt((r[:-1] * r[1:]) ** 3))
    return RadialOperator(r=r, h=h, main=main, off=off, r_max=r_max)


def assemble_cylindrical(q: ScalarField, length: float = 24.0,
                         r_max: float = 24.0, n1: int = 160,
                         nr: int = 160) -> CylOperator:
    """Sparse operator on (x1, rbar); q must be at most cylindrical."""
    if symmetry_rank(q.symmetry) > symmetry_rank(SYM_CYL):
        raise ValueError("cylindrical sector requires x1-cylindrical profile")
    h1 = 2.0 * length / (n1 + 1)
    x1 = -length + h1 * np.arange(1, n1 + 1)
    hr = r_max / nr
    rb = (np.arange(nr) + 0.5) * hr
    faces = np.arange(nr + 1) * hr
    f2 = faces**2

    d_r = (f2[:-1] + f2[1:]) / (hr * hr * rb**2)
    o_r = -f2[1:-1] / (hr * hr * rb[:-1] * rb[1:])
    A_r = sp.diags([d_r, o_r, o_r], [0, -1, 1], format="csr")
    A_1 = sp.diags([np.full(n1, 2.0 / h1**2),
                    np.full(n1 - 1, -1.0 / h1**2),
                    np.full(n1 - 1, -1.0 / h1**2)], [0, -1, 1], format="csr")

    pot = sp.diags(-3.0 * q.evaluate(cylinder_points(x1, rb)) ** 2)
    M = sp.kron(A_1, sp.eye(nr)) + sp.kron(sp.eye(n1), A_r) + pot
    return CylOperator(matrix=M.tocsr(), x1=x1, r=rb, r_max=r_max,
                       length=length)


def radial_eigenfield(r: np.ndarray, values: np.ndarray,
                      lam: float) -> FormulaField:
    """Radial field from eigenvector samples: even cubic spline inside, a
    matched e^{-lam r} r^{-3/2} tail beyond the trusted radius."""
    rs = np.concatenate([-r[::-1], r])
    vs = np.concatenate([values[::-1], values])
    spline = CubicSpline(rs, vs)
    dspline = spline.derivative()
    r_t = r[-1] - min(4.0 / max(lam, 0.2), 0.3 * r[-1])
    a_t = float(spline(r_t))

    def tail(rr):
        return a_t * np.exp(-lam * (rr - r_t)) * (r_t / rr) ** 1.5

    def fn(X):
        rr = np.linalg.norm(X, axis=1)
        out = np.zeros(rr.size)
        inside = rr <= r_t
        out[inside] = spline(rr[inside])
        far = ~inside
        if np.any(far):
            out[far] = tail(rr[far])
        return out

    def grad(X):
        rr = np.linalg.norm(X, axis=1)
        d = np.zeros(rr.size)
        inside = rr <= r_t
        d[inside] = dspline(rr[inside])
        far = ~inside
        if np.any(far):
            d[far] = tail(rr[far]) * (-lam - 1.5 / rr[far])
        unit = np.zeros_like(X)
        pos = rr > 0
        unit[pos] = X[pos] / rr[pos, None]
        return d[:, None] * unit

    def d1_r(rr):
        rr = np.asarray(rr, dtype=float)
        out = np.where(rr <= r_t, dspline(np.minimum(rr, r_t)),
                       tail(np.maximum(rr, r_t)) * (-lam - 1.5 / np.maximum(rr, 1e-9)))
        return out

    def d2_r(rr):
        rr = np.asarray(rr, dtype=float)
        d2s = spline.derivative(2)
        inside = d2s(np.minimum(rr, r_t))
        rr_s = np.maximum(rr, 1e-9)
        far = tail(np.maximum(rr, r_t)) * ((lam + 1.5 / rr_s) ** 2
                                           + 1.5 / rr_s**2)
        return np.where(rr <= r_t, inside, far)

    def val_r(rr):
        rr = np.asarray(rr, dtype=float)
        return np.where(rr <= r_t, spline(np.minimum(rr, r_t)),
                        tail(np.maximum(rr, r_t)))

    f = FormulaField(fn, grad, symmetry=SYM_RADIAL, decay=50.0,
                     name=f"Y(lam={lam:.4f})")
    f.trusted_radius = r_t
    f.radial_parts = (val_r, d1_r, d2_r)
    return f


@functools.lru_cache(maxsize=None)
def ground_eigenpair() -> tuple:
    """(lam_1, Y_1) of -Delta - 3 W^2 on the radial grid r_max = 25,
    n = 1500 that the suites share; solved once per process."""
    res = negative_spectrum(assemble_radial(ground_state(), r_max=25.0,
                                            n=1500), k=1)
    return res.lams[0], res.fields[0]


@dataclass
class SpectralResult:
    """Negative eigenpairs: rates lam_j with eigenvalue -lam_j^2."""

    lams: list
    eigenvalues: list
    fields: list
    residuals: list
    sector: str
    gram: np.ndarray

    @property
    def count(self) -> int:
        return len(self.lams)


def negative_spectrum(op, k: int = 4, tol: float = 1e-10) -> SpectralResult:
    """The k lowest eigenpairs; eigenvalues below -tol count as negative.

    Radial operators are solved densely (tridiagonal); cylindrical ones by
    shift-invert Lanczos around sigma = -4 with a deterministic start.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if isinstance(op, RadialOperator):
        vals, vecs = eigh_tridiagonal(op.main, op.off, select="i",
                                      select_range=(0, k - 1))
        weight = 2.0 * math.pi**2 * op.h  # |u|^2 sums to L2(R^4) with this
        fields, lams, eigs, resid = [], [], [], []
        for i in range(k):
            if vals[i] >= -tol:
                continue
            u = vecs[:, i]
            res = float(np.linalg.norm(op.apply(u) - vals[i] * u)
                        / np.linalg.norm(u))
            Y = u / op.r**1.5
            Y = Y / math.sqrt(weight * float(np.sum(u * u)))
            if Y[0] < 0:
                Y = -Y
            lam = math.sqrt(-vals[i])
            fields.append(radial_eigenfield(op.r, Y, lam))
            lams.append(lam)
            eigs.append(float(vals[i]))
            resid.append(res)
        m = len(lams)
        gram = np.zeros((m, m))
        for i in range(m):
            for j in range(m):
                ui = vecs[:, i] / np.linalg.norm(vecs[:, i])
                uj = vecs[:, j] / np.linalg.norm(vecs[:, j])
                gram[i, j] = float(ui @ uj)
        return SpectralResult(lams=lams, eigenvalues=eigs, fields=fields,
                              residuals=resid, sector="radial", gram=gram)

    if isinstance(op, CylOperator):
        n = op.matrix.shape[0]
        v0 = np.full(n, 1.0 / math.sqrt(n))
        vals, vecs = eigsh(op.matrix, k=k, sigma=-4.0, which="LM", v0=v0)
        order = np.argsort(vals)
        vals, vecs = vals[order], vecs[:, order]
        lams, eigs, resid = [], [], []
        fields = []
        for i in range(k):
            if vals[i] >= -tol:
                continue
            u = vecs[:, i]
            res = float(np.linalg.norm(op.apply(u) - vals[i] * u)
                        / np.linalg.norm(u))
            lams.append(math.sqrt(-vals[i]))
            eigs.append(float(vals[i]))
            resid.append(res)
            fields.append(None)  # cylinder eigenfields stay on their grid
        m = len(lams)
        gram = np.eye(m)
        return SpectralResult(lams=lams, eigenvalues=eigs, fields=fields,
                              residuals=resid, sector="cylindrical",
                              gram=gram)
    raise TypeError("unknown operator type")


def all_eigen_below(op: RadialOperator, cutoff: float):
    """All (eigenvalue, vector) pairs with eigenvalue < cutoff (radial only)."""
    vals, vecs = eigh_tridiagonal(op.main, op.off, select="v",
                                  select_range=(-1e12, cutoff))
    return vals, vecs


def kernel_count(op, near_zero_fields=None) -> dict:
    """Count near-zero modes and align them with supplied generator fields.

    A mode is near zero below eps = max(h^2, 10 / R^2), covering both the
    stencil error and the Dirichlet shift of slowly decaying kernel elements
    while staying below the first continuum eigenvalue of the truncated
    domain.  Alignment inner products are evaluated on
    r <= TRUSTED_FRACTION * R because the wall visibly bends modes whose
    L2(ball) norm grows logarithmically.
    """
    if isinstance(op, RadialOperator):
        h, R = op.h, op.r_max
        eps = max(h * h, 10.0 / (R * R))
        vals, vecs = eigh_tridiagonal(op.main, op.off, select="v",
                                      select_range=(-eps, eps))
        out = {"count": int(len(vals)), "eps": float(eps),
               "eigenvalues": [float(v) for v in vals], "alignments": []}
        if near_zero_fields:
            window = op.r <= TRUSTED_FRACTION * R
            for f in near_zero_fields:
                target = _profile_on_axis(f, op.r) * op.r**1.5
                t = target[window] / np.linalg.norm(target[window])
                best = 0.0
                for i in range(len(vals)):
                    u = vecs[window, i]
                    u = u / np.linalg.norm(u)
                    best = max(best, abs(float(u @ t)))
                out["alignments"].append(best)
        return out

    if isinstance(op, CylOperator):
        h = op.r[1] - op.r[0]
        eps = max(h * h, 10.0 / (op.r_max * op.r_max))
        n = op.matrix.shape[0]
        v0 = np.full(n, 1.0 / math.sqrt(n))
        k = 12
        vals, vecs = eigsh(op.matrix, k=k, sigma=0.0, which="LM", v0=v0)
        sel = np.abs(vals) < eps
        out = {"count": int(np.sum(sel)), "eps": float(eps),
               "eigenvalues": [float(v) for v in vals[sel]],
               "alignments": []}
        if near_zero_fields:
            P = cylinder_points(op.x1, op.r)
            window = (np.abs(P[:, 0]) <= TRUSTED_FRACTION * op.length) & \
                     (P[:, 1] <= TRUSTED_FRACTION * op.r_max)
            wgt = P[:, 1]  # symmetrization weight rbar
            for f in near_zero_fields:
                target = (f.evaluate(P) * wgt)[window]
                t = target / np.linalg.norm(target)
                best = 0.0
                for i in np.nonzero(sel)[0]:
                    u = vecs[window, i]
                    u = u / np.linalg.norm(u)
                    best = max(best, abs(float(u @ t)))
                out["alignments"].append(best)
        return out
    raise TypeError("unknown operator type")


def verify_exponential_decay(Y: ScalarField, lam: float) -> DecayFit:
    """Exponential-rate fit of a radial eigenfield on its trusted window
    [r_t / 4, 3 r_t / 4], r_t its trusted radius.

    The 4D radial prefactor r^-3/2 is removed before fitting so the rate
    isolates lam; the raw (uncorrected) rate overestimates it by ~1.5/r.
    """
    if lam <= 0:
        raise ValueError("decay check needs a positive rate")
    r_t = getattr(Y, "trusted_radius", None)
    if r_t is None:
        raise ValueError("no trusted window available")
    rr = np.linspace(0.25 * r_t, 0.75 * r_t, 24)
    X = np.zeros((rr.size, 4))
    X[:, 0] = rr
    vals = Y.evaluate(X)
    return fit_exponential(rr, vals, poly_correction=1.5)


def shooting_rate(q: ScalarField) -> float:
    """Independent oracle for the ground rate lam_1 of -Delta - 3 q^2.

    Integrates the radial ODE outward from a series start to r = 25 and
    bisects on the sign of the far-field value, with lam in [0.2, 2.5];
    returns lam with eigenvalue -lam^2.  The integrator is the eighth-order
    Dormand-Prince pair (DOP853): at rtol ORACLE_RTOL = 1e-11 it takes about
    a third of the steps of the fifth-order pair, and every step samples q
    point by point.
    """
    X = np.zeros((1, 4))  # one point (r, 0, 0, 0), refilled per sample

    def qsq(r):
        X[0, 0] = r
        v = float(q.evaluate(X)[0])
        return v * v

    q0sq = qsq(0.0)

    def miss(lam):
        lam2 = lam * lam

        def rhs(r, y):
            Y, dY = y
            return [dY, -(3.0 / r) * dY + (lam2 - 3.0 * qsq(r)) * Y]

        c = (lam2 - 3.0 * q0sq) / 8.0
        r0 = 1e-3
        sol = solve_ivp(rhs, (r0, 25.0), [1.0 + c * r0 * r0, 2 * c * r0],
                        method="DOP853", rtol=ORACLE_RTOL, atol=1e-13)
        return sol.y[0, -1]

    lo, hi = 0.2, 2.5
    flo, fhi = miss(lo), miss(hi)
    if flo * fhi > 0:
        raise ValueError("bracket does not straddle an eigenvalue; "
                         f"miss({lo})={flo:.3g}, miss({hi})={fhi:.3g}")
    return float(brentq(miss, lo, hi, xtol=1e-10))


def rayleigh_quotient(op, u: np.ndarray) -> float:
    return float(u @ op.apply(u) / (u @ u))


def verify_cancellation(f1: ScalarField, f2: ScalarField, f3: ScalarField,
                        q: ScalarField,
                        spec: QuadratureSpec | None = None) -> tuple:
    """(integral of f1 f2 f3 q, scale) where scale integrates |f1 f2 f3 q|.

    Exact angular reduction applies when all four fields are monomial-radial
    (kernel generators of radial profiles); the identity asserts the
    integral vanishes for kernel triples.
    """
    spec = spec or QuadratureSpec()
    fields = [f1, f2, f3, q]
    if all(f.poly_radial_terms() is not None for f in fields):
        prod = f1.product(f2).product(f3).product(q)
        val = prod.integrate_exact(r_max=spec.r_max, spec=spec).value
        scale = _abs_scale_poly(prod, spec)
        return val, scale
    from .quadrature import integrate_callable, join_symmetry

    sym = join_symmetry(*[f.symmetry for f in fields])

    def fn(X):
        return (f1.evaluate(X) * f2.evaluate(X) * f3.evaluate(X)
                * q.evaluate(X))

    dec = sum(f.decay for f in fields) if all(f.decay for f in fields) else None
    val = integrate_callable(fn, sym, spec, decay=dec).value
    scale = integrate_callable(lambda X: np.abs(fn(X)), sym, spec,
                               decay=dec).value
    return val, scale


def _abs_scale_poly(prod, spec) -> float:
    """Scale integral with |.| applied per monomial-radial term."""
    from scipy.integrate import quad

    from .quadrature import abs_moment

    total = 0.0
    for m, p in prod.terms:
        ang = abs_moment(m, 4)
        k = 3 + int(np.sum(m))
        v, _ = quad(lambda r: abs(p.f(r)) * r**k, 0.0,
                    spec.r_max or np.inf, limit=200)
        total += ang * v
    return total
