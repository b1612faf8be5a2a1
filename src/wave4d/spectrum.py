"""Discretized eigenproblem for the linearized operator -Delta - 3 q^2.

One sector is solved: the radial one, where the operator reduces to
-(d2/dr2 + (3/r) d/dr) - 3 q(r)^2 on (0, R) with a Dirichlet wall at R.  A
finite-volume discretization on cell centers conserves the r^3 flux exactly
at the axis and is symmetrized by the measure weight, giving a symmetric
tridiagonal matrix.  The non-radial kernel (the translation and conformal
generators) is checked directly instead: acceptance criterion 2 requires
each of the 15 generators that does not vanish on W, translation_1 among
them, to have a residual under -Delta - 3 W^2 that refines at order >= 1.8.

The package solves its tridiagonal systems itself, in numpy and Python
floats.  :func:`solve_tridiagonal` is LAPACK dgtsv's Gaussian elimination
with partial pivoting, one sweep down and one up.
:func:`tridiagonal_eigenpairs` selects eigenpairs by eigenvalue window,
deterministically: Sturm counts (:func:`sturm_count`, the inertia of an
LDL^T factorization) bracket each wanted eigenvalue until it is alone, and
Rayleigh-quotient iteration, one solve per step, converges its pair.
:func:`negative_spectrum` keeps the negative modes among the k lowest and
:func:`kernel_count` reads the near-zero window.  A radial eigenfield is a
:class:`fields.RadialExpField` on its radial parts (Y, Y', Y''), the data
the exponential directions of :mod:`boosts` are built from.  Inside its
trusted radius they are the not-a-knot cubic spline through the eigenvector
samples (:func:`not_a_knot_spline`: one tridiagonal solve for the knot
slopes) and its derivatives, each a piecewise coefficient array.

An independent shooting oracle (outward ODE integration plus bisection on
the sign of the far-field value) cross-checks the negative eigenvalues; the
two routes share nothing but the profile.  It bisects on the far-field
value Y(25; lam) scaled by e^{-25 lam}, which keeps each sign and the root
but leaves a well-scaled function, and integrates each lam at most once,
so the bracket ends serve the straddle check and the bisection alike.  The
oracle steps with Hairer's Fortran eighth-order Dormand-Prince code
(DOP853) behind scipy's ``ode``, and each right-hand-side call samples q^2
through the profile's radial function on a Python float, not through the
point-array ``evaluate``.
scipy.integrate and scipy.optimize load scipy's optimizer stack, so the
oracle imports them when it first runs, not the module; nothing else here
imports scipy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .fields import RadialExpField, ScalarField, cylinder_points
from .fitting import DecayFit, fit_exponential
from .quadrature import (SYM_RADIAL, QuadratureSpec, integrate_callable,
                         join_symmetry, product_degree)
from .states import ground_state

# kernel_count aligns modes on the inner TRUSTED_FRACTION of the domain
TRUSTED_FRACTION = 0.25
# negative_spectrum counts an eigenvalue below -NEGATIVE_TOL as negative
NEGATIVE_TOL = 1e-10
# relative tolerance of the shooting oracle's DOP853 integration
ORACLE_RTOL = 1e-11
# step budget of one oracle integration; one takes about 200 steps
ORACLE_NSTEPS = 10_000
# machine epsilon and the smallest normal float
EPS = float(np.finfo(float).eps)
TINY = float(np.finfo(float).tiny)
# Rayleigh-quotient steps one eigenpair may take; the radial operators'
# pairs take 3
RQI_STEPS = 64


@dataclass
class RadialOperator:
    """Symmetric tridiagonal reduction of -Delta - 3 q^2 in L2(r^3 dr).

    The unknowns are u = r^{3/2} Y at the cell centers r.
    """

    r: np.ndarray
    h: float
    main: np.ndarray
    off: np.ndarray
    r_max: float

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = self.main * u
        out[:-1] += self.off * u[1:]
        out[1:] += self.off * u[:-1]
        return out


def assemble_radial(q: ScalarField, r_max: float = 30.0,
                    n: int = 3000) -> RadialOperator:
    """Finite-volume radial operator; q must be radially symmetric."""
    if q.symmetry != SYM_RADIAL:
        raise ValueError("radial sector requires a radial profile")
    if not n >= 1:
        raise ValueError("need at least 1 cell")
    h = r_max / n
    r = (np.arange(n) + 0.5) * h
    faces = np.arange(n + 1) * h
    f3 = faces**3
    qv = q.evaluate(cylinder_points(r, [0.0]))
    main = (f3[:-1] + f3[1:]) / (h * h * r**3) - 3.0 * qv**2
    off = -f3[1:-1] / (h * h * np.sqrt((r[:-1] * r[1:]) ** 3))
    return RadialOperator(r=r, h=h, main=main, off=off, r_max=r_max)


def sturm_count(diag: list, squares: list, pivmin: float) -> int:
    """How many eigenvalues of the symmetric tridiagonal with diagonal diag
    lie at or below 0, squares holding its squared off-diagonal after a
    leading 0: the negative pivots of its LDL^T factorization, p_i = diag_i
    - squares_i / p_{i-1} (Sylvester's law of inertia).  Lists of Python
    floats.  As in LAPACK dstebz, a pivot smaller than pivmin in magnitude
    counts as -pivmin, so that no quotient divides by 0 or overflows."""
    count, p = 0, 1.0
    for d, q in zip(diag, squares):
        p = d - q / p
        if p < pivmin:
            if p > -pivmin:
                p = -pivmin
            count += 1
    return count


def solve_tridiagonal(lower, diag, upper, b) -> np.ndarray:
    """x with T x = b for the tridiagonal T with sub-diagonal lower,
    diagonal diag and super-diagonal upper.

    LAPACK dgtsv's Gaussian elimination with partial pivoting, in Python
    floats: one sweep down exchanges rows i and i + 1 where the
    sub-diagonal entry is the larger, which fills in a second
    super-diagonal, and one sweep up back-substitutes through both.  As in
    LAPACK dlagts, a pivot smaller in magnitude than EPS times T's largest
    entry (EPS for T = 0) is raised to that size, keeping its sign, so that
    inverse iteration at an eigenvalue gets a finite, huge x along its
    eigenvector, and no quotient overflows.
    """
    return _TridiagonalSolver(lower, upper).solve(diag, b)


class _TridiagonalSolver:
    """solve_tridiagonal for one pair of off-diagonals and any diagonal:
    what a run of Rayleigh-quotient steps reuses, as Python floats."""

    def __init__(self, lower, upper):
        lower = np.asarray(lower, dtype=float)
        upper = np.asarray(upper, dtype=float)
        self.lower, self.upper = lower.tolist(), upper.tolist() + [0.0]
        self.big = np.abs(lower).tolist()
        self.scale = max(float(np.max(np.abs(lower), initial=0.0)),
                         float(np.max(np.abs(upper), initial=0.0)))

    def solve(self, diag, b) -> np.ndarray:
        diag = np.asarray(diag, dtype=float)
        tiny = EPS * (max(self.scale, float(np.max(np.abs(diag)))) or 1.0)
        diag, upper = diag.tolist(), self.upper
        b = np.asarray(b, dtype=float).tolist()
        # the rows of U: pivot, super-diagonal, second super-diagonal, right
        # side
        rows, p, u, y = [], diag[0], upper[0], b[0]
        for lo, big, dn, un, bn in zip(self.lower, self.big, diag[1:],
                                       upper[1:], b[1:]):
            size = p if p >= 0.0 else -p
            if size >= big or big < tiny:
                if size < tiny:
                    p = tiny if p >= 0.0 else -tiny
                w = lo / p
                rows.append((p, u, 0.0, y))
                p, u, y = dn - w * u, un, bn - w * y
            else:  # row i + 1 becomes the pivot row
                w = p / lo
                rows.append((lo, dn, un, bn))
                p, u, y = u - w * dn, -w * un, y - w * bn
        if -tiny < p < tiny:
            p = tiny if p >= 0.0 else -tiny
        rows.append((p, 0.0, 0.0, y))
        x1 = x2 = 0.0  # x_{i+1}, x_{i+2}
        xs = []
        for p, u, f, y in reversed(rows):
            x1, x2 = (y - u * x1 - f * x2) / p, x1
            xs.append(x1)
        xs.reverse()
        return np.array(xs)


def _unit_beside(v: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """v orthogonalized against Q's orthonormal columns (twice, which is
    enough) and normalized."""
    for _ in range(2 if Q.shape[1] else 0):
        v = v - Q @ (Q.T @ v)
    return v / np.linalg.norm(v)


def tridiagonal_eigenpairs(main, off, lo: float, hi: float,
                           limit: int | None = None) -> tuple:
    """(eigenvalues, vectors) of the symmetric tridiagonal T with diagonal
    main and off-diagonal off: every eigenpair with eigenvalue in (lo, hi],
    or only the `limit` lowest of them, ascending, the vectors unit
    columns.

    It works on T / 2^e, 2^e the power of 2 with ||T|| < 2^e <= 2 ||T||
    (||T|| bounded by Gershgorin's discs), which is exact and keeps every
    quotient in range; its tolerances are in units of EPS 2^e.  Sturm
    counts give the window's count and bisect it until each wanted
    eigenvalue is alone in its bracket; eigenvalues closer than 4 EPS 2^e
    share one.  Each bracket is halved further until its midpoint is 16
    times nearer its eigenvalue than any other eigenvalue can be.  Each
    pair then comes from Rayleigh-quotient iteration started at that
    midpoint from a quasi-random vector, one
    :func:`solve_tridiagonal` per step, its right side orthogonalized
    against the window's earlier vectors.  A quotient outside the bracket
    is not taken: a Sturm count halves the bracket and the next step starts
    at its midpoint.  The iteration stops when the quotient's residual
    ||T u - quotient u||, which each step reads off its solve, falls to
    TOL = EPS 2^e.  Then the bracket, or two Sturm counts where the
    quotient lies within 2 TOL of its ends, must confirm that the quotient
    is eigenvalue j to 2 TOL.
    """
    main = np.asarray(main, dtype=float)
    off = np.asarray(off, dtype=float)
    n = len(main)
    # Gershgorin radii: every eigenvalue lies in [floor, ceiling], and
    # ||T|| <= max(|main| + radius)
    radius = np.zeros(n)
    radius[:-1] += np.abs(off)
    radius[1:] += np.abs(off)
    unit = 2.0 ** math.frexp(float(np.max(np.abs(main) + radius)))[1]
    main, off, radius = main / unit, off / unit, radius / unit
    lo, hi = lo / unit, hi / unit
    squares = off * off
    # LAPACK dstebz's pivmin
    pivmin = TINY * max(1.0, float(np.max(squares, initial=0.0)))
    floor, ceiling = np.min(main - radius), np.max(main + radius)
    slack = 2.0 * EPS + pivmin
    lo, hi = max(lo, floor - slack), min(hi, ceiling + slack)
    if not lo < hi:
        return np.empty(0), np.empty((n, 0))
    squares = [0.0] + squares.tolist()

    def count(sigma):
        """How many eigenvalues lie at or below sigma."""
        return sturm_count((main - sigma).tolist(), squares, pivmin)

    # below the Gershgorin interval nothing lies, above it everything
    first = 0 if lo < floor else count(lo)
    top = n if hi > ceiling else count(hi)
    last = top if limit is None else min(top, first + limit)
    brackets, todo = {}, [(lo, hi, first, top)]
    while todo:
        a, b, ca, cb = todo.pop()
        if ca >= min(cb, last):
            continue
        if cb - ca == 1 or b - a <= 4.0 * EPS:
            brackets.update((j, (a, b)) for j in range(ca, cb))
            continue
        m = 0.5 * (a + b)
        cm = count(m)
        todo += [(m, b, cm, cb), (a, m, ca, cm)]
    tol = EPS
    solver = _TridiagonalSolver(off, off)
    # start vectors sin((j + 1) i), one per eigenpair, in place of LAPACK
    # dstein's random ones (numpy.random takes 11 ms to import); none is
    # even or odd under the reflection i -> n + 1 - i, so a persymmetric T's
    # eigenvectors of either parity are reached
    index = np.arange(1, n + 1)
    vals, vecs = [], np.empty((n, 0))
    for j in range(first, last):
        a, b = brackets[j]
        # every other eigenvalue lies outside (outer_a, outer_b]: halve the
        # bracket until its midpoint is 16 times nearer eigenvalue j than
        # that, so that each inverse-iteration step gains that factor
        outer_a, outer_b = a, b
        while b - a > 4.0 * EPS:
            m = 0.5 * (a + b)
            if 8.0 * (b - a) <= min(m - outer_a, outer_b - m):
                break
            a, b = (m, b) if count(m) <= j else (a, m)
        sigma, v = 0.5 * (a + b), np.sin((j + 1.0) * index)
        for _ in range(RQI_STEPS):
            v = _unit_beside(v, vecs)
            x = solver.solve(main - sigma, v)
            size = float(np.linalg.norm(x))
            # (T - sigma) x = v gives x's Rayleigh quotient and, for
            # u = x / size, ||T u - quotient u|| = sin(v, u) / size
            cos = float(v @ x) / size
            quotient = sigma + cos / size
            v = x / size
            if math.sqrt(max(0.0, 1.0 - cos * cos)) <= tol * size:
                break
            if a < quotient < b:
                sigma = quotient
            else:
                m = 0.5 * (a + b)
                a, b = (m, b) if count(m) <= j else (a, m)
                sigma = 0.5 * (a + b)
        else:
            raise RuntimeError(f"eigenpair {j} did not converge in "
                               f"{RQI_STEPS} Rayleigh-quotient steps")
        inside = a + 2.0 * tol < quotient <= b - 2.0 * tol
        if not (inside or count(quotient - 2.0 * tol) <= j
                < count(quotient + 2.0 * tol)):
            raise RuntimeError(f"eigenvalue {j} converged to {quotient!r}, "
                               f"outside its bracket ({a!r}, {b!r}]")
        vals.append(quotient)
        # the last solve amplifies the earlier vectors of a cluster as much
        # as v's own direction: project them out once more
        vecs = np.column_stack([vecs, _unit_beside(v, vecs)])
    return np.array(vals) * unit, vecs


@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise polynomial on increasing knots x: on [x[i], x[i+1]] it is
    sum_j c[j, i] (t - x[i])^(d - j), d = len(c) - 1.  The first and last
    pieces extend beyond the ends."""

    x: np.ndarray
    c: np.ndarray

    def derivative(self, k: int = 1) -> PiecewisePoly:
        """The k-th derivative: the same knots, with each piece's
        coefficients differentiated."""
        c = self.c
        for _ in range(k):
            c = c[:-1] * np.arange(len(c) - 1, 0, -1)[:, None]
        return PiecewisePoly(self.x, c)

    def piece(self, t) -> tuple:
        """(the piece i of each t, t - x[i]): what at_piece reads, so that
        polynomials on the same knots share one lookup."""
        t = np.asarray(t, dtype=float)
        # the piece of t: how many inner knots lie at or below it
        i = np.searchsorted(self.x[1:-1], t, side="right")
        return i, t - self.x.take(i)

    def at_piece(self, i, s):
        """The value at offset s into piece i, by Horner's rule."""
        out = self.c[0].take(i)
        for row in self.c[1:]:
            out *= s
            out += row.take(i)
        return out

    def __call__(self, t):
        return self.at_piece(*self.piece(t))


def not_a_knot_spline(x: np.ndarray, y: np.ndarray) -> PiecewisePoly:
    """The not-a-knot cubic spline through (x, y), x increasing, n >= 4
    knots: twice continuously differentiable, with a continuous third
    derivative at x[1] and x[-2].  The knot slopes s solve one tridiagonal
    system, the one scipy's ``CubicSpline`` solves, by
    :func:`solve_tridiagonal`."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if len(x) < 4:
        raise ValueError("a not-a-knot spline needs at least 4 knots")
    dx = np.diff(x)
    slope = np.diff(y) / dx
    # the tridiagonal rows: sub-diagonal, diagonal, super-diagonal
    lower, diag, upper = np.empty(len(dx)), np.empty(len(x)), np.empty(len(dx))
    lower[:-1], diag[1:-1], upper[1:] = dx[1:], 2.0 * (dx[:-1] + dx[1:]), dx[:-1]
    b = np.empty(len(x))
    b[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    # not-a-knot ends: the first two pieces are one cubic, as are the last two
    d = x[2] - x[0]
    diag[0], upper[0] = dx[1], d
    b[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0]**2 * slope[1]) / d
    d = x[-1] - x[-3]
    diag[-1], lower[-1] = dx[-2], d
    b[-1] = (dx[-1]**2 * slope[-2]
             + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    s = solve_tridiagonal(lower, diag, upper, b)
    # Hermite form of each piece from its end values and slopes
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx
    return PiecewisePoly(x, np.stack([t / dx, (slope - s[:-1]) / dx - t,
                                      s[:-1], y[:-1]]))


def radial_eigenfield(r: np.ndarray, values: np.ndarray,
                      lam: float) -> RadialExpField:
    """Radial field from eigenvector samples: inside the trusted radius, the
    not-a-knot cubic spline through the samples mirrored to -r, so that it
    is even; beyond, a matched e^{-lam r} r^{-3/2} tail.  A RadialExpField
    with (kappa, a, b) = (0, 1, 0), whose radial parts Y, Y', Y'' take the
    spline's derivatives as coefficient arrays.  One call gives every part
    a jet reads from one split at the trusted radius, one piece lookup and
    one tail."""
    rs = np.concatenate([-r[::-1], r])
    vs = np.concatenate([values[::-1], values])
    spline = not_a_knot_spline(rs, vs)
    r_t = r[-1] - min(4.0 / max(lam, 0.2), 0.3 * r[-1])
    a_t = float(spline(r_t))

    def tail(rr):
        return a_t * np.exp(-lam * (rr - r_t)) * (r_t / rr) ** 1.5

    # Y^(k) / tail for k = 0, 1, 2, at rs > r_t > 0
    factors = (lambda rs: 1.0, lambda rs: -lam - 1.5 / rs,
               lambda rs: (lam + 1.5 / rs) ** 2 + 1.5 / rs**2)

    inside = [spline.derivative(k) for k in range(3)]

    def parts(rr, orders) -> list:
        """Y^(k) at rr for each k in orders: the spline's inside the trusted
        radius, the tail's beyond, each evaluated on its own points only."""
        rr = np.asarray(rr, dtype=float)
        near = rr <= r_t
        beyond = ~near
        piece = spline.piece(rr[near])
        far = rr[beyond]
        at_far = tail(far)
        out = []
        for k in orders:
            out.append(np.empty(rr.shape))
            out[-1][near] = inside[k].at_piece(*piece)
            out[-1][beyond] = at_far * factors[k](far)
        return out

    return RadialExpField(parts, trusted_radius=r_t, decay=50.0,
                          name=f"Y(lam={lam:.4f})")


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
    gram: np.ndarray

    @property
    def count(self) -> int:
        return len(self.lams)


def negative_spectrum(op: RadialOperator, k: int = 4) -> SpectralResult:
    """The negative modes among the k lowest eigenpairs: those with
    eigenvalue below -NEGATIVE_TOL, the only ones it solves for.

    Each negative mode's field is normalized in L2(R^4) and positive at
    the axis; the Gram matrix pairs the normalized eigenvectors of the
    negative modes.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    vals, U = tridiagonal_eigenpairs(op.main, op.off, -math.inf,
                                     -NEGATIVE_TOL, limit=k)
    weight = 2.0 * math.pi**2 * op.h  # |u|^2 sums to L2(R^4) with this
    fields, lams, eigs, resid = [], [], [], []
    for val, u in zip(vals, U.T):
        resid.append(float(np.linalg.norm(op.apply(u) - val * u)
                           / np.linalg.norm(u)))
        Y = u / op.r**1.5
        Y = Y / math.sqrt(weight * float(np.sum(u * u)))
        lam = math.sqrt(-val)
        fields.append(radial_eigenfield(op.r, -Y if Y[0] < 0 else Y, lam))
        lams.append(lam)
        eigs.append(float(val))
    U = U / np.linalg.norm(U, axis=0)
    return SpectralResult(lams=lams, eigenvalues=eigs, fields=fields,
                          residuals=resid, gram=U.T @ U)


def kernel_count(op: RadialOperator, near_zero_fields=None) -> dict:
    """Count near-zero modes and align them with supplied generator fields.

    A mode is near zero below eps = max(h^2, 10 / R^2), covering both the
    stencil error and the Dirichlet shift of slowly decaying kernel elements
    while staying below the first continuum eigenvalue of the truncated
    domain.  Alignment inner products, in the unknowns r^{3/2} f(r), are
    evaluated on the trusted window r <= TRUSTED_FRACTION * R because the
    wall visibly bends modes whose L2(ball) norm grows logarithmically.
    """
    eps = max(op.h * op.h, 10.0 / (op.r_max * op.r_max))
    vals, vecs = tridiagonal_eigenpairs(op.main, op.off, -eps, eps)
    out = {"count": int(len(vals)), "eps": float(eps),
           "eigenvalues": [float(v) for v in vals], "alignments": []}
    window = op.r <= TRUSTED_FRACTION * op.r_max
    for f in near_zero_fields or ():
        target = f.evaluate(cylinder_points(op.r, [0.0])) * op.r**1.5
        t = target[window] / np.linalg.norm(target[window])
        best = 0.0
        for i in range(len(vals)):
            u = vecs[window, i]
            u = u / np.linalg.norm(u)
            best = max(best, abs(float(u @ t)))
        out["alignments"].append(best)
    return out


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
    vals = Y.evaluate(cylinder_points(rr, [0.0]))
    return fit_exponential(rr, vals, poly_correction=1.5)


def ode(rhs):
    """scipy's ``ode`` integrator on rhs.  scipy.integrate loads scipy's
    optimizer stack, which only the oracle needs, so it is imported here,
    when the oracle first integrates."""
    from scipy.integrate import ode as scipy_ode

    return scipy_ode(rhs)


def shooting_rate(q: ScalarField) -> float:
    """Independent oracle for the ground rate lam_1 of -Delta - 3 q^2.

    Integrates the radial ODE outward from a series start at r0 = 1e-3 to
    r = 25 and bisects (brentq) on the sign of the far-field value
    Y(25; lam) e^{-25 lam}, with lam in [0.2, 2.5]; returns lam with
    eigenvalue -lam^2.  Each lam is integrated once: the straddle check's
    two ends are the ones brentq starts from.  q must be a radial
    monomial-radial field: a non-radial profile raises ValueError and one
    without monomial-radial terms TypeError, both before any integration.
    q^2 is sampled through the profile's radial functions on a Python float,
    and each integration runs Hairer's Fortran DOP853 through scipy's
    ``ode`` at rtol ORACLE_RTOL = 1e-11, atol 1e-13.  That code is not
    re-entrant: one integration runs at a time, as brentq's sequential
    calls guarantee.
    """
    if q.symmetry != SYM_RADIAL:
        raise ValueError("shooting oracle requires a radial profile")
    terms = q.poly_radial_terms()
    if terms is None:
        raise TypeError("shooting oracle needs a monomial-radial profile")
    from scipy.optimize import brentq

    def qsq(r):
        # a radial field has only m = 0 terms: q(r e1) sums their radial parts
        v = 0.0
        for _, S in terms:
            v += float(S(r))
        return v * v

    q0sq = qsq(0.0)
    r0, r1 = 1e-3, 25.0

    @functools.lru_cache(maxsize=None)
    def miss(lam):
        lam2 = lam * lam

        def rhs(r, y):
            # scipy passes an ndarray: unpacked as floats, not numpy scalars
            Y, dY = y.tolist()
            return [dY, -(3.0 / r) * dY + (lam2 - 3.0 * qsq(r)) * Y]

        c = (lam2 - 3.0 * q0sq) / 8.0
        solver = ode(rhs).set_integrator("dop853", rtol=ORACLE_RTOL,
                                         atol=1e-13, nsteps=ORACLE_NSTEPS)
        solver.set_initial_value([1.0 + c * r0 * r0, 2 * c * r0], r0)
        y = solver.integrate(r1)
        if not solver.successful():
            raise RuntimeError(f"DOP853 failed at lam={lam!r} "
                               f"(return code {solver.get_return_code()})")
        # Y grows like e^{lam r} away from the root; the positive factor
        # keeps its sign and root and leaves brentq a well-scaled function
        return float(y[0]) * math.exp(-r1 * lam)

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
        val = prod.integrate_exact(r_max=spec.r_max).value
        scale = _abs_scale_poly(prod, spec)
        return val, scale
    sym = join_symmetry(*[f.symmetry for f in fields])

    def fn(X):
        return (f1.evaluate(X) * f2.evaluate(X) * f3.evaluate(X)
                * q.evaluate(X))

    dec = sum(f.decay for f in fields) if all(f.decay for f in fields) else None
    # |fn| is no polynomial in x4: its pass keeps the spec's u rule
    val = integrate_callable(
        fn, sym, spec, decay=dec,
        x4_degree=product_degree(*[f.x4_degree for f in fields])).value
    scale = integrate_callable(lambda X: np.abs(fn(X)), sym, spec,
                               decay=dec).value
    return val, scale


def _abs_scale_poly(prod, spec) -> float:
    """Scale integral with |.| applied per monomial-radial term."""
    from scipy.integrate import quad

    from .quadrature import abs_moment

    total = 0.0
    for m, S in prod.terms:
        ang = abs_moment(m, 4)
        k = 3 + int(np.sum(m))
        v, _ = quad(lambda r: abs(S(r)) * r**k, 0.0,
                    spec.r_max or np.inf, limit=200)
        total += ang * v
    return total
