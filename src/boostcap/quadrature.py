"""Deterministic adaptive Gauss-Kronrod quadrature.

A 7-15 pair is applied on a worklist of intervals; the interval with the
largest error estimate is bisected until the global estimate meets the
requested tolerance.  Integrands receive a numpy array of n abscissae and
return an array of shape (n,), or (k, n) for k integrals over one partition,
so a single subdivision costs one vectorized call.  Splitting order is a pure
function of the estimates, which makes repeated runs bit-identical.
"""

from __future__ import annotations

import heapq
import math
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

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and subdivision budget for the adaptive integrator."""

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
    """Apply the 7-15 pair to a batch of intervals with one integrand call."""
    half = 0.5 * (highs - lows)
    mid = 0.5 * (highs + lows)
    x = mid[:, None] + half[:, None] * _NODES[None, :]
    fx = np.asarray(f(x.ravel()), dtype=float)
    fx = fx.reshape(fx.shape[:-1] + x.shape)
    if not np.all(np.isfinite(fx)):
        bad = np.broadcast_to(x, fx.shape)[~np.isfinite(fx)][0]
        raise DomainError(f"integrand returned a non-finite value at x={bad!r}")
    resk = half * (fx @ _WK)
    resg = half * (fx @ _WG_FULL)
    resabs = np.abs(half) * (np.abs(fx) @ _WK)
    mean = resk / (highs - lows)
    resasc = np.abs(half) * (np.abs(fx - mean[..., None]) @ _WK)
    err = np.abs(resk - resg)
    scale = np.ones_like(err)
    nz = (resasc != 0) & (err != 0)
    scale[nz] = np.minimum(1.0, (200.0 * err[nz] / resasc[nz]) ** 1.5)
    err = np.where(nz, resasc * scale, err)
    floor = resabs > _TINY / (50.0 * _EPS)
    err[floor] = np.maximum(err[floor], 50.0 * _EPS * resabs[floor])
    return resk.T, err.T                # indexed by interval first


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    breakpoints: Sequence[float] | None = None,
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """Integrate a vectorized integrand over [a, b].

    ``breakpoints`` seeds the initial partition (known kinks, near-singular
    layers); the adaptive loop refines from there.  Returns the estimate and
    an error bound, as arrays of shape (k,) for k components, each of which
    must meet the tolerance.  Raises :class:`ConvergenceError` when the
    subdivision budget is exhausted before the tolerance is met.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("integration endpoints must be finite")
    if b <= a:
        if b == a:
            return 0.0, 0.0
        raise DomainError("integration range is empty (b < a)")

    edges = [a, b]
    if breakpoints:
        edges.extend(p for p in breakpoints if a < p < b)
    edges = sorted(set(edges))
    lows = np.array(edges[:-1])
    highs = np.array(edges[1:])
    vals, errs = _gk15(f, lows, highs)
    if vals.ndim == 1:
        priority = lambda e: e  # noqa: E731
        within_tol = lambda t, e: e <= max(cfg.abs_tol, cfg.rel_tol * abs(t))  # noqa: E731
        fsum = math.fsum
    else:
        # components differ in scale, so an interval ranks by its largest
        # error relative to that component's tolerance after the first pass
        weight = 1.0 / np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(vals.sum(axis=0)))
        priority = lambda e: (e * weight).max(axis=1)  # noqa: E731
        within_tol = lambda t, e: bool(np.all(  # noqa: E731
            e <= np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(t))))
        fsum = lambda parts: np.array([math.fsum(c) for c in zip(*parts)])  # noqa: E731

    # (-priority, left endpoint) ordering makes the splitting sequence unique.
    heap = list(zip(-priority(errs), lows, highs, vals, errs))
    heapq.heapify(heap)
    total = vals.sum(axis=0)
    total_err = errs.sum(axis=0)
    n_sub = len(heap)

    def resum():
        # exact re-sum in endpoint order; the running accumulators can lose
        # precision when a transient spike interval passes through them
        items = sorted(heap, key=lambda t: t[1])
        return fsum([t[3] for t in items]), fsum([t[4] for t in items])

    while True:
        if within_tol(total, total_err):
            total, total_err = resum()
            if within_tol(total, total_err):
                break
            continue
        if n_sub >= cfg.max_subdivisions:
            total, total_err = resum()
            raise ConvergenceError(
                f"quadrature did not converge within {cfg.max_subdivisions} subdivisions",
                estimate=total, error_bound=total_err)
        neg_key, lo, hi, val, err = heapq.heappop(heap)
        m = 0.5 * (lo + hi)
        if neg_key == 0.0:
            # only unsplittable or converged intervals remain
            heapq.heappush(heap, (neg_key, lo, hi, val, err))
            total, total_err = resum()
            break
        if m <= lo or m >= hi:
            # interval at floating point resolution: accept its estimate
            heapq.heappush(heap, (0.0, lo, hi, val, 0.0 * err))
            total_err -= err  # remove its error from the budget
            continue
        v2, e2 = _gk15(f, np.array([lo, m]), np.array([m, hi]))
        k2 = priority(e2)
        total += v2.sum(axis=0) - val
        total_err += e2.sum(axis=0) - err
        heapq.heappush(heap, (-k2[0], lo, m, v2[0], e2[0]))
        heapq.heappush(heap, (-k2[1], m, hi, v2[1], e2[1]))
        n_sub += 1

    return total, total_err


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
