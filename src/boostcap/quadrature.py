"""Deterministic adaptive Gauss-Kronrod quadrature.

A 7-15 pair is applied on a worklist of intervals; the interval with the
largest error estimate is bisected until the global estimate meets the
requested tolerance.  Integrands receive a numpy array of n abscissae and
return an array of shape (n,), or (k, n) for k integrals over one partition,
so a single subdivision costs one vectorized call.  ``integrate_batch`` runs
many independent problems in one worklist: each round bisects the worst
interval of every unconverged problem, with one integrand call for all of
them; ``integrate`` is its one-problem call.  Splitting order is a pure
function of a problem's own estimates, which makes repeated runs
bit-identical, and the GK15 rule reduces every interval on its own, so each
problem of a batch gets the bits that it gets alone.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError

# 15-point Kronrod abscissae (positive half) and weights, with the embedded
# 7-point Gauss weights on the odd-indexed nodes.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_NODES = np.concatenate((-_XGK[:7], _XGK[::-1]))          # 15 ascending nodes
_WK = np.concatenate((_WGK[:7], _WGK[::-1]))              # Kronrod weights
_WG_FULL = np.zeros(15)
_WG_FULL[1:14:2] = np.concatenate((_WG[:3], _WG[::-1]))   # Gauss weights
_WKG = np.array([_WK, _WG_FULL])

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and subdivision budget for the adaptive integrator.

    The channel's polar integrals, on both methods, and ``normalization``
    integrate the kernel times ``wavepacket.norm_scale``, about 2 pi / N, so
    there ``abs_tol`` applies to N-scaled integrals, of size about 1.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise DomainError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")


DEFAULT_CONFIG = QuadratureConfig()

# Looser preset intended for wide parameter sweeps.
SWEEP_CONFIG = QuadratureConfig(rel_tol=1e-8)


def _gk15(f: Callable[[np.ndarray], np.ndarray], lows: np.ndarray, highs: np.ndarray):
    """The integrand at the 7-15 nodes of a batch of intervals, from one call.

    Returns the values with the nodes last: shape (n, 15), or (k, n, 15) for
    k rows.
    """
    half = 0.5 * (highs - lows)
    mid = 0.5 * (highs + lows)
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    fx = np.asarray(f(x.ravel()), dtype=float)
    fx = fx.reshape(fx.shape[:-1] + x.shape)
    if not np.all(np.isfinite(fx)):
        bad = np.broadcast_to(x, fx.shape)[~np.isfinite(fx)][0]
        raise DomainError(f"integrand returned a non-finite value at x={bad!r}")
    return fx


def _rule(fx: np.ndarray, lows: np.ndarray, highs: np.ndarray):
    """The pair's estimate and error bound of every interval of ``fx``.

    Each interval's 15 values are contracted on their own, in a fixed order,
    so an interval gets the same bits whatever else is in the batch.  Returns
    arrays indexed by interval first: shape (n,), or (n, k) for k rows.
    """
    half = 0.5 * (highs - lows)
    resk, resg = half * np.einsum("...n,wn->w...", fx, _WKG)
    resabs = np.abs(half) * np.einsum("...n,n->...", np.abs(fx), _WK)
    mean = resk / (highs - lows)
    resasc = np.abs(half) * np.einsum("...n,n->...", np.abs(fx - mean[..., None]), _WK)
    err = np.abs(resk - resg)
    scale = np.ones_like(err)
    nz = (resasc != 0) & (err != 0)
    scale[nz] = np.minimum(1.0, (200.0 * err[nz] / resasc[nz]) ** 1.5)
    err = np.where(nz, resasc * scale, err)
    floor = resabs > _TINY / (50.0 * _EPS)
    err[floor] = np.maximum(err[floor], 50.0 * _EPS * resabs[floor])
    return resk.T, err.T


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    breakpoints: Sequence[float] | None = None,
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Integrate a vectorized integrand over [a, b]: the one-problem call of
    :func:`integrate_batch`.

    ``breakpoints`` seeds the initial partition (known kinks, near-singular
    layers); the adaptive loop refines from there.  Returns the estimate and
    an error bound, as arrays of shape (k,) for k components, each of which
    must meet the tolerance.  Raises :class:`ConvergenceError` (``problem``
    0) when the subdivision budget is exhausted before the tolerance is met.
    """
    return _worklist(lambda x, idx: f(x), [a], [b], cfg, [breakpoints])[0]


def integrate_batch(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: Sequence[float],
    b: Sequence[float],
    cfg: QuadratureConfig,
    breakpoints: Sequence[Sequence[float] | None],
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate P independent problems, problem p over [a[p], b[p]].

    ``f(x, idx)`` receives the abscissae of every problem at once and, per
    abscissa, the index of its problem; it returns shape (n,), or (k, n)
    for k rows per problem.  Each problem keeps its own seeds
    (``breakpoints[p]``), worklist, tolerance test and subdivision budget;
    each round bisects the worst interval of every unconverged problem, and
    all new intervals share one integrand call.  Every problem, scalar or
    rows-valued, gets the bits that :func:`integrate` gives it alone.
    Returns estimates and bounds as arrays of shape (P,), or (P, k); a
    zero-width problem integrates to zeros.  The first problem to exhaust
    its budget, the lowest index among those that exhaust it in the same
    round, raises :class:`ConvergenceError` with its own estimate, bound and
    index.  An error that ``f`` raises propagates unchanged.
    """
    pairs = _worklist(f, a, b, cfg, breakpoints)
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


def _worklist(f, a, b, cfg, breakpoints):
    """The adaptive loop of :func:`integrate_batch`, and so of :func:`integrate`.

    Every round gathers the intervals that each unfinished problem asks for
    (first its seed partition, then one bisection), evaluates them in one
    call ``f(x, idx)``, reduces them in one GK15 batch and hands each problem
    its slice.
    """
    results = [None] * len(a)
    pending = {}                         # problem -> (its loop, the intervals it asks for)
    empty = []                           # the zero-width problems
    for p, (lo, hi, bps) in enumerate(zip(a, b, breakpoints)):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError("integration endpoints must be finite")
        if hi < lo:
            raise DomainError("integration range is empty (b < a)")
        if hi > lo:
            loop = _refine(cfg, lo, hi, bps)
            pending[p] = loop, next(loop)
        else:
            empty.append(p)
    if empty:
        # zeros of the row shape that the integrand returns at their points
        shape = np.shape(f(np.array([a[p] for p in empty], dtype=float), np.array(empty)))[:-1]
        for p in empty:
            results[p] = (np.zeros(shape), np.zeros(shape)) if shape else (0.0, 0.0)
    while pending:
        rounds = list(pending.items())
        lows, highs, counts = [], [], []
        for _, (_, (los, his)) in rounds:
            lows += los
            highs += his
            counts.append(len(los))
        lows, highs = np.array(lows), np.array(highs)
        idx = np.array([p for p, _ in rounds]).repeat([15 * c for c in counts])
        fx = _gk15(lambda x: f(x, idx), lows, highs)
        vals, errs = _rule(fx, lows, highs)
        start = 0
        for (p, (loop, _)), end in zip(rounds, itertools.accumulate(counts)):
            share = vals[start:end], errs[start:end]
            start = end
            try:
                pending[p] = loop, loop.send(share)
            except StopIteration as done:
                del pending[p]
                total, total_err, converged = done.value
                if not converged:
                    raise ConvergenceError(
                        f"quadrature did not converge within {cfg.max_subdivisions} subdivisions",
                        estimate=total, error_bound=total_err,
                        problem=p) from None
                results[p] = total, total_err
    return results


def _refine(cfg, a, b, breakpoints):
    """One problem's worklist over [a, b], from its seed partition to convergence.

    Yields the (lows, highs) of the intervals it needs evaluated, first the
    seed partition and then the two halves of each bisection, and receives
    their values and errors; returns (estimate, bound, converged).  Its
    splitting order is a pure function of its own estimates.
    """
    edges = [a, b]
    if breakpoints:
        edges.extend(x for x in breakpoints if a < x < b)
    edges = sorted(set(edges))
    lows, highs = edges[:-1], edges[1:]
    vals, errs = yield lows, highs
    # heap entries, endpoints and running sums are plain floats, or lists of
    # floats for rows: cheaper than numpy scalars, with the same values
    total, total_err = vals.sum(axis=0).tolist(), errs.sum(axis=0).tolist()
    if vals.ndim == 1:
        sub = operator.sub
        advance = lambda t, a, b, old: t + ((a + b) - old)  # noqa: E731
        priorities = lambda es: es  # noqa: E731
        within_tol = lambda t, e: e <= max(cfg.abs_tol, cfg.rel_tol * abs(t))  # noqa: E731
        fsum = math.fsum
        result = float
    else:
        sub = lambda x, y: [p - q for p, q in zip(x, y)]  # noqa: E731
        advance = lambda t, a, b, old: [  # noqa: E731
            ti + ((ai + bi) - oi) for ti, ai, bi, oi in zip(t, a, b, old)]
        # components differ in scale, so an interval ranks by its largest
        # error relative to that component's tolerance after the first pass
        weight = (1.0 / np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(vals.sum(axis=0)))).tolist()
        priorities = lambda es: [max(map(operator.mul, e, weight)) for e in es]  # noqa: E731
        within_tol = lambda t, e: all(  # noqa: E731
            ei <= cfg.abs_tol or ei <= cfg.rel_tol * abs(ti) for ti, ei in zip(t, e))
        fsum = lambda parts: [math.fsum(c) for c in zip(*parts)]  # noqa: E731
        result = np.array

    # (-priority, left endpoint) ordering makes the splitting sequence unique.
    vals, errs = vals.tolist(), errs.tolist()
    heap = list(zip([-k for k in priorities(errs)], lows, highs, vals, errs))
    heapq.heapify(heap)
    n_sub = len(heap)

    def resum():
        # exact re-sum; the running accumulators can lose precision when a
        # transient spike interval passes through them.  fsum is correctly
        # rounded, so the heap's order does not change the result
        return fsum([t[3] for t in heap]), fsum([t[4] for t in heap])

    while True:
        if within_tol(total, total_err):
            total, total_err = resum()
            if within_tol(total, total_err):
                return result(total), result(total_err), True
            continue
        if n_sub >= cfg.max_subdivisions:
            total, total_err = resum()
            return result(total), result(total_err), False
        neg_key, lo, hi, val, err = heapq.heappop(heap)
        m = 0.5 * (lo + hi)
        if neg_key == 0.0:
            # only unsplittable or converged intervals remain
            heapq.heappush(heap, (neg_key, lo, hi, val, err))
            total, total_err = resum()
            return result(total), result(total_err), True
        if m <= lo or m >= hi:
            # interval at floating point resolution: accept its estimate
            heapq.heappush(heap, (0.0, lo, hi, val, sub(err, err)))
            total_err = sub(total_err, err)  # remove its error from the budget
            continue
        v2, e2 = yield [lo, m], [m, hi]
        v2, e2 = v2.tolist(), e2.tolist()
        total = advance(total, v2[0], v2[1], val)
        total_err = advance(total_err, e2[0], e2[1], err)
        k2 = priorities(e2)
        heapq.heappush(heap, (-k2[0], lo, m, v2[0], e2[0]))
        heapq.heappush(heap, (-k2[1], m, hi, v2[1], e2[1]))
        n_sub += 1


def integrate_semi_infinite(
    g: Callable[[np.ndarray], np.ndarray],
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    breakpoints: Sequence[float] | None = None,
) -> tuple[float, float]:
    """Integrate g over [0, inf) after the substitution s = tan^2(t).

    The map sends [0, inf) to [0, pi/2) with Jacobian 2 tan(t) sec^2(t); the
    integrand must decay fast enough that the transformed endpoint vanishes.
    """
    def h(t: np.ndarray) -> np.ndarray:
        tt = np.minimum(t, math.pi / 2 - 1e-12)
        tan = np.tan(tt)
        s = tan * tan
        return g(s) * 2.0 * tan * (1.0 + s)

    mapped = None
    if breakpoints:
        mapped = [math.atan(math.sqrt(p)) for p in breakpoints if p > 0]
    return integrate(h, 0.0, math.pi / 2, cfg, breakpoints=mapped)


_REFINE_RATIO = 0.25
_REFINE_MAX_POINTS = 40


def geometric_refinement(lo: float, hi: float, scale: float) -> list[float]:
    """Breakpoints accumulating geometrically toward ``hi``.

    Used to seed integration of sharply peaked integrands whose feature width
    near the right endpoint is ``scale``; refinement stops once the last layer
    is thinner than scale/4.
    """
    span = hi - lo
    if span <= 0 or scale <= 0:
        return []
    pts = []
    w = span * _REFINE_RATIO
    while w > 0.25 * scale and len(pts) < _REFINE_MAX_POINTS:
        pts.append(hi - w)
        w *= _REFINE_RATIO
    return pts
