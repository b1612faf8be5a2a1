"""Panel-based Gauss-Legendre quadrature over R^4 with symmetry reductions.

Integrands on R^4 are reduced according to a declared symmetry, on one of
two reductions:

* the radial line, for ``radial`` f = f(|x|);
* the polar half-plane (x1, rbar, u), rbar = |(x2,x3,x4)| and u = x4/rbar,
  for ``cylindrical`` f = f(x1, rbar) and ``bicylindrical``
  f = f(x1, x4, |(x2,x3)|), a polynomial in x4 whose coefficients depend on
  (x1, rbar).

``full`` (no symmetry) is a field tag with no pass: every integrand the
construction forms is symmetric about e1, the solitons' axis of motion, and
integrating a full one raises ValueError.

The reduced domains are covered by geometrically graded panels (width
``spec.core`` near the origin/centers, doubling outward) with a fixed
Gauss-Legendre rule per panel, and u takes one Gauss-Legendre rule on
[-1, 1].  A bicylindrical pass that declares its integrand's degree d in x4
(``x4_degree``) takes ceil((d + 1)/2) u points, never more than
``spec.nodes``, the fewest that are exact for degree d; an integrand of
unknown degree (None) takes ``spec.nodes`` points, exact up to degree
2*nodes - 1.  A cylindrical pass takes the one point u = 0.
:func:`product_degree` and :func:`sum_degree` combine the degrees of fields
into an integrand's.

A pass is built by one routine, which also refuses a tag with no
reduction, as batches of (points, weights): each batch holds the slabs of
consecutive x1 nodes, one slab per node, up to ``_BATCH_POINTS`` points
(the radial reduction is a single slab).
:func:`integrate_callable` sums an integrand over the batches, one call per
batch, and :func:`node_set` concatenates the batches of a spec, so
fields can be sampled once and paired by weighted matrix products.  Exact
angular integrals of monomial weights use the closed-form sphere moments in
:func:`moment`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

SYM_RADIAL = "radial"
SYM_CYL = "cylindrical"
SYM_BICYL = "bicylindrical"
SYM_FULL = "full"

# linear refinement order: a field of each tag can represent those of the
# previous ones (full has no quadrature pass)
_SYM_ORDER = {SYM_RADIAL: 0, SYM_CYL: 1, SYM_BICYL: 2, SYM_FULL: 3}

# tail budget of a decay-derived truncation radius: the <x>^-p tail bound
# stays below a tenth of it
_TAIL_TOL = 1e-8

# points per integrand call: enough slabs that the per-call work of walking
# the field trees is amortized, few enough that the largest per-batch arrays
# (a pair sampler's leaf reads and feature stacks, about 0.9 MB each in the
# decompose block) keep the peak memory flat
_BATCH_POINTS = 2048


def join_symmetry(*tags: str) -> str:
    """Coarsest symmetry able to represent all given tags."""
    for t in tags:
        if t not in _SYM_ORDER:
            raise ValueError(f"unknown symmetry tag {t!r}")
    return max(tags, key=lambda t: _SYM_ORDER[t])


@dataclass(frozen=True)
class QuadratureSpec:
    """Resolution of a Gauss-panel pass over R^4.

    r_max=None derives the truncation radius from the integrand's declared
    decay exponent p (|f| <= C <x>^-p, p > 4) so that the tail bound
    2*pi^2 * R^(4-p)/(p-4) stays below a tenth of ``_TAIL_TOL``.  The bound,
    reported as the pass's error, normalizes the far-field constant to
    C = 1; callers with large far-field constants should pass an explicit
    r_max.  ``scheme`` names the one scheme there is, "fixed".
    """

    scheme: str = "fixed"
    nodes: int = 12           # Gauss-Legendre nodes per panel per axis
    r_max: float | None = None
    x1_centers: tuple = ()    # extra panel grading centers along x1
    core: float = 1.0         # width of the first panel at the origin/centers

    def __post_init__(self):
        # each check is written so that NaN fails it
        if self.scheme != "fixed":
            raise ValueError(f"unknown quadrature scheme {self.scheme!r}")
        if not (isinstance(self.nodes, (int, np.integer)) and self.nodes >= 2):
            raise ValueError("node count must be an integer >= 2")
        if not 0.0 < self.core < math.inf:
            raise ValueError("core width must be positive and finite")
        if self.r_max is not None and not 0.0 < self.r_max < math.inf:
            raise ValueError("r_max must be positive and finite")
        if not all(math.isfinite(c) for c in self.x1_centers):
            raise ValueError("x1_centers must be finite")

    def with_centers(self, centers) -> "QuadratureSpec":
        return replace(self, x1_centers=tuple(float(c) for c in centers))


@dataclass
class QuadratureResult:
    value: float
    error: float  # a pass's tail bound; quad's estimate on the exact path


def moment(exponents, dim: int = 4) -> float:
    """Integral of x^m over the unit sphere S^(dim-1); zero for odd monomials."""
    m = np.asarray(exponents, dtype=int)
    if m.size != dim:
        raise ValueError("exponent vector length must equal dim")
    if np.any(m < 0):
        raise ValueError("negative exponents")
    return 0.0 if np.any(m % 2 == 1) else abs_moment(m, dim)


def abs_moment(exponents, dim: int = 4) -> float:
    """Integral of |x^m| over the unit sphere S^(dim-1) (any exponents)."""
    m = np.asarray(exponents, dtype=int)
    num = 2.0 * np.prod([math.gamma((mi + 1) / 2.0) for mi in m])
    return float(num / math.gamma((m.sum() + dim) / 2.0))


def sphere_area(dim: int = 4) -> float:
    """Surface area of the unit sphere S^(dim-1)."""
    return moment(np.zeros(dim, dtype=int), dim)


def default_r_max(decay: float | None) -> float:
    """Truncation radius making the <x>^-decay tail bound <= _TAIL_TOL/10."""
    if decay is None or decay <= 4.0:
        return 80.0
    p = float(decay)
    r = (20.0 * math.pi**2 / ((p - 4.0) * _TAIL_TOL)) ** (1.0 / (p - 4.0))
    return float(min(max(r, 20.0), 1000.0))


def tail_bound(decay: float | None, r_max: float) -> float:
    if decay is None or decay <= 4.0:
        return 0.0
    p = float(decay)
    return 2.0 * math.pi**2 * r_max ** (4.0 - p) / (p - 4.0)


def geometric_breaks(r_max: float, first: float = 1.0) -> np.ndarray:
    """Panel breakpoints [0, first, 2*first, 4*first, ...] up to r_max."""
    pts = [0.0]
    w = first
    while pts[-1] + w < r_max:
        pts.append(pts[-1] + w)
        w *= 2.0
    pts.append(r_max)
    return np.asarray(pts)


def axis_breaks(lo: float, hi: float, centers=(),
                first: float = 1.0) -> np.ndarray:
    """Breakpoints on [lo, hi] graded geometrically around each center.

    Each center c (0 if none are given) contributes c and c +- first * 2^k,
    k = 0, 1, ..., wherever c lies; the result keeps those in (lo, hi) plus
    the two endpoints.  A window cut out of a larger domain therefore gets
    exactly the larger domain's breaks inside it: splitting a domain only
    subdivides the panels that contain a cut, and nowhere moves a break.
    """
    pts = {lo, hi}
    for c in set(float(c) for c in centers) or {0.0}:
        cand = [c]
        w = first
        while c + w < hi or c - w > lo:
            cand += [c + w, c - w]
            w *= 2.0
        pts.update(x for x in cand if lo < x < hi)
    return np.asarray(sorted(pts))


@functools.lru_cache(maxsize=None)
def _legendre(n: int) -> tuple:
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], built once
    per n (a pass takes up to two: the panels' and the u rule) and returned
    read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_panels(breaks: np.ndarray, n: int):
    """Gauss-Legendre nodes/weights on each [breaks[i], breaks[i+1]] panel."""
    xg, wg = _legendre(n)
    a = breaks[:-1][:, None]
    b = breaks[1:][:, None]
    x = (0.5 * (b - a) * xg[None, :] + 0.5 * (b + a)).ravel()
    w = (0.5 * (b - a) * wg[None, :]).ravel()
    return x, w


def _wsum(vals, w):
    """Weighted sum over the points of (N,) or (N, ...) values, or of a list
    of factor pairs (R_k, C_k), shaped (n, ..., N) and (m_k, ..., N) with the
    points last: the (n, sum m_k) matrix whose k-th column block is
    sum R_k[i, ..., p] w_p C_k[j, ..., p], one product per pair.  The
    weights are nonnegative, and each factor takes sqrt(w), so that a
    factor paired with itself gives a symmetric block."""
    if isinstance(vals, list):
        sw = np.sqrt(w)
        return np.hstack([(R * sw).reshape(len(R), -1)
                          @ (C * sw).reshape(len(C), -1).T for R, C in vals])
    vals = np.asarray(vals)
    if vals.ndim == 1:
        return float(np.dot(vals, w))
    return np.tensordot(w, vals, axes=(0, 0))


def product_degree(*degrees) -> int | None:
    """x4 degree of a product of factors of the given degrees: their sum,
    unknown (None) when one factor's is."""
    return None if None in degrees else sum(degrees)


def sum_degree(*degrees) -> int | None:
    """x4 degree of a sum of terms of the given degrees: the largest (0 for
    no terms), unknown (None) when one term's is."""
    return None if None in degrees else max(degrees, default=0)


def _resolve(spec: QuadratureSpec, decay, x1_range) -> tuple:
    """(r_max, x1_range) of a pass: explicit values, else from the spec."""
    r_max = spec.r_max
    if r_max is None:
        r_max = default_r_max(decay)
    if x1_range is not None:
        lo, hi = x1_range
        # written so that a NaN bound fails too
        if not (hi > lo) or not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"x1_range {x1_range} is not a finite interval "
                             "with lo < hi")
    else:
        span = max((abs(c) for c in spec.x1_centers), default=0.0)
        x1_range = (-r_max - span, r_max + span)
    return r_max, x1_range


def _slabs(symmetry: str, spec: QuadratureSpec, r_max: float,
           x1_range: tuple, x4_degree: int | None = None):
    """(points, weights) of a pass in batches of consecutive x1 nodes.

    The radial reduction is a single slab of points on the x1 axis.  The
    polar reduction, for cylindrical and bicylindrical integrands, tensors
    each x1 node with the polar pair (rbar, u = x4/rbar), at
    (rbar sqrt(1-u^2), 0, rbar u) in the (x2, x4) half-plane, into a slab,
    and a batch stacks the slabs of as many consecutive nodes as fit in
    ``_BATCH_POINTS`` points (at least one), in x1 order.  Weights carry
    the Jacobian of the reduction, so a slab's integral is its weighted sum.
    Any other tag, ``full`` among them, raises ValueError.
    The u rule has ceil((x4_degree + 1)/2) Gauss-Legendre points on
    [-1, 1], at most ``spec.nodes``, or ``spec.nodes`` when the degree is
    None (unknown).  A bicylindrical slab is thus exact for integrands that
    are polynomials in x4 of the declared degree, or of degree
    <= 2*nodes - 1 when none is declared, with coefficients depending on
    (x1, rbar).  A cylindrical integrand has degree 0 whatever its caller
    declares, and takes the one point u = 0 with weight 2.  The first
    radial panel and the first x1 panel on each side of every center are
    ``spec.core`` wide.
    """
    if symmetry not in (SYM_RADIAL, SYM_CYL, SYM_BICYL):
        raise ValueError(f"no quadrature pass for symmetry {symmetry!r}: "
                         "a pass reduces radial, cylindrical or "
                         "bicylindrical integrands")
    rb, wr = gauss_panels(geometric_breaks(r_max, spec.core), spec.nodes)
    if symmetry == SYM_RADIAL:
        X = np.zeros((rb.size, 4))
        X[:, 0] = rb
        yield X, sphere_area(4) * wr * rb**3
        return
    x1, w1 = gauss_panels(axis_breaks(*x1_range, spec.x1_centers, spec.core),
                          spec.nodes)
    if symmetry == SYM_CYL:
        x4_degree = 0
    m = spec.nodes if x4_degree is None else \
        min(spec.nodes, x4_degree // 2 + 1)
    u, wu = _legendre(m)
    R, U = np.meshgrid(rb, u, indexing="ij")
    base = np.zeros((R.size, 4))
    base[:, 1] = (R * np.sqrt(1.0 - U * U)).ravel()
    base[:, 3] = (R * U).ravel()
    wt = np.outer(2.0 * math.pi * wr * rb**2, wu).ravel()
    k = max(1, _BATCH_POINTS // len(base))
    for i in range(0, x1.size, k):
        x1b = x1[i:i + k]
        X = np.tile(base, (x1b.size, 1))
        X[:, 0] = np.repeat(x1b, len(base))
        yield X, np.outer(w1[i:i + k], wt).ravel()


def node_set(symmetry: str, spec: QuadratureSpec) -> tuple:
    """All (points, weights) of a spec, batches concatenated in order.

    A field sampled once on these points integrates (or pairs with another)
    as a weighted sum, giving the values integrate_callable gives on the
    same spec with no decay and no x1_range, up to round-off.  A spec with
    r_max unset takes the truncation radius of decay None, so a pass given
    a decay agrees with the node set only when the spec sets r_max.
    """
    r_max, x1_range = _resolve(spec, None, None)
    pts, wts = zip(*_slabs(symmetry, spec, r_max, x1_range))
    return np.concatenate(pts), np.concatenate(wts)


def integrate_callable(
    fn,
    symmetry: str,
    spec: QuadratureSpec,
    decay: float | None = None,
    x1_range: tuple | None = None,
    x4_degree: int | None = None,
) -> QuadratureResult:
    """Integrate fn over R^4 in one pass at spec's resolution.

    fn maps an (N, 4) array of points to N values (or an (N, ...) stack of
    integrands evaluated together, in which case the value is an array of
    the trailing shape, or a list of per-point factor pairs, which
    :func:`_wsum` contracts into one matrix) and must honor the declared
    symmetry.  It is called once per batch of consecutive x1 slabs (once in
    all for the radial reduction), so each call sees up to
    ``_BATCH_POINTS`` points, or one slab where a slab alone is larger.
    x1_range, when given, must be finite with lo < hi.  x4_degree, when
    given, is fn's degree as a polynomial in x4 and sizes the bicylindrical
    u rule (see :func:`_slabs`); like decay, it describes this integrand
    only.  The error is the tail bound of the decay at the truncation
    radius.
    """
    r_max, x1_range = _resolve(spec, decay, x1_range)
    total = 0.0
    for X, w in _slabs(symmetry, spec, r_max, x1_range, x4_degree):
        total = total + _wsum(fn(X), w)
    return QuadratureResult(total, tail_bound(decay, r_max))
