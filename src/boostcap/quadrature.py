"""Deterministic adaptive Gauss-Kronrod quadrature.

A 7-15 pair is applied on a worklist of intervals; the interval with the
largest error estimate is bisected until the global estimate meets the
requested tolerance.  Integrands receive a numpy array of n abscissae and
return an array of shape (n,), or (k, n) for k integrals over one partition,
so a single subdivision costs one vectorized call.  ``integrate_batch`` runs
many independent problems in one worklist: each round bisects the worst
interval of every unconverged problem, with one integrand call for all of
them, or one per block of ``_ROUND_CAP`` intervals; ``integrate`` is its
one-problem call.  Splitting order is a pure function of a problem's own
estimates, which makes repeated runs bit-identical, and the GK15 rule
reduces every interval on its own, so each problem of a batch gets the bits
that it gets alone, blocked or not.  Every problem runs to its own end,
with its own outcome, as QUADPACK's routines return ``ier`` per call
(Piessens et al., *QUADPACK*, Springer 1983).

The worklist runs each problem in one of two loops, with the same floating
point operations, so a problem gets the same bits and the same error from
either.  ``_refine``, a generator per problem with a heap of intervals,
makes every decision, the rare ones too: a problem out of budget, one with
only zero-priority intervals left, and an interval at floating point
resolution.  It costs a few microseconds of Python per problem and round,
and runs small batches and the last few problems of a large one.
``_array_rounds`` holds the intervals of many problems, scalar or rows, in
the columns of one array and runs plain rounds for all of them, the
tolerance test and one bisection each, in a fixed number of array
operations, which costs more per round and little per problem; at the first
round that needs a rare decision it hands every live problem to its
``_refine``.  So the choice goes by the number of live problems:
``_ARRAY_MIN_PROBLEMS``, measured where it is set.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConvergenceError, DomainError, as_count, is_finite

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

# The fewest live problems that _array_rounds runs; fewer go on each in its
# _refine.  A round of L problems of one scalar integrand, best of 60 on a
# 2-core VM (Python 3.11.7, numpy 2.4.6), costs 129, 153, 181 and 352 us in
# the generators at L = 16, 24, 32 and 64, and 178, 154, 165 and 209 us on
# arrays: the two meet at about 24.  Of one 4-row integrand, the median of
# 40 interleaved runs on the same VM, with the integrand's own cost, is 200,
# 313, 403, 371, 534 and 1017 us in the generators at L = 8, 16, 20, 24, 32
# and 64, and 266, 314, 375, 295, 388 and 550 us on arrays: they meet at 16
# to 20.  Rows problems gain a tie to 7 % between 16 and 23, where scalar
# problems would lose up to 38 %, so one threshold of 24 serves both.
_ARRAY_MIN_PROBLEMS = 24

# The most intervals that one integrand call and one GK15 reduction take; a
# larger round runs in blocks.  Medians of 10 interleaved runs on the same VM
# at caps of 128, 256, 512 and 1024 and none: the benchmark's five curves,
# one batch each, take 100, 91, 84, 85 and 91 ms, and tracemalloc's peak over
# the receding one is 2.5, 2.5, 2.8, 3.3 and 9.9 MB; its four oracle frames
# take 102, 100, 96, 93 and 93 ms.  A 32-frame oracle sweep peaks at 7.5 MB
# at 512 and 40 MB with no cap.
_ROUND_CAP = 512


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
        for name in ("abs_tol", "rel_tol"):
            if not (is_finite(getattr(self, name), name) and getattr(self, name) > 0):
                raise DomainError("quadrature tolerances must be positive and finite")
        object.__setattr__(self, "max_subdivisions",
                           as_count(self.max_subdivisions, "max_subdivisions"))
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
    return _checked(_worklist(lambda x, idx: f(x), [a], [b], cfg, [breakpoints]), cfg)[0][:2]


def integrate_batch(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: Sequence[float],
    b: Sequence[float],
    cfg: QuadratureConfig,
    breakpoints: Sequence[Sequence[float] | None],
    outcomes: bool = False,
) -> tuple[np.ndarray, np.ndarray] | list[tuple]:
    """Integrate P independent problems, problem p over [a[p], b[p]].

    ``f(x, idx)`` receives the abscissae of every problem at once and, per
    abscissa, the index of its problem; it returns shape (n,), or (k, n)
    for k rows per problem.  Each problem keeps its own seeds
    (``breakpoints[p]``), worklist, tolerance test and subdivision budget,
    and runs to its own end; each round bisects the worst interval of every
    unconverged problem, all in one integrand call, or one per block of
    ``_ROUND_CAP`` intervals.  Every problem, scalar or rows-valued, gets
    the bits that :func:`integrate` gives it alone.  Returns estimates and
    bounds as arrays of shape (P,), or (P, k); a zero-width problem
    integrates to zeros.  The first problem to exhaust its budget, the
    lowest index among those that exhaust it in the same round, raises
    :class:`ConvergenceError` with its own estimate, bound and index; with
    ``outcomes``, each problem's (estimate, bound, converged, round) is
    returned instead, and none raises.  An error that ``f`` raises
    propagates unchanged, unless a problem ran out of budget before it.
    """
    done = _worklist(f, a, b, cfg, breakpoints)
    if outcomes:
        return done
    _checked(done, cfg)
    return np.array([o[0] for o in done]), np.array([o[1] for o in done])


def _first_failure(outcomes) -> int | None:
    """The lowest index among the problems that failed in the earliest
    round, or None; a problem still running (None) is skipped."""
    failed = [(o[3], p) for p, o in enumerate(outcomes) if o and not o[2]]
    return min(failed)[1] if failed else None


def _checked(outcomes, cfg):
    if (p := _first_failure(outcomes)) is not None:
        raise ConvergenceError(
            f"quadrature did not converge within {cfg.max_subdivisions} subdivisions",
            estimate=outcomes[p][0], error_bound=outcomes[p][1], problem=p) from None
    return outcomes


def _worklist(f, a, b, cfg, breakpoints):
    """The adaptive loop of :func:`integrate_batch`, and so of :func:`integrate`.

    Every round gathers the intervals that each unfinished problem asks for
    (first its seed partition, then one bisection) and evaluates them
    (:func:`_evaluate`).  Problems, scalar or rows, go on in the plain
    rounds of :func:`_array_rounds` while at least ``_ARRAY_MIN_PROBLEMS``
    of them are live; small batches, the last few problems of a large one,
    and every problem live at a round that needs a rare decision each go on
    in their own :func:`_refine`, which makes it.  Returns each problem's
    (estimate, bound, converged, round), round 0 being the seed round.  An
    error that ``f`` raises propagates, after a problem that failed before
    it (see :func:`_checked`).
    """
    results = [None] * len(a)
    live, empty = [], []
    for p, (lo, hi) in enumerate(zip(a, b)):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise DomainError("integration endpoints must be finite")
        if hi < lo:
            raise DomainError("integration range is empty (b < a)")
        (live if hi > lo else empty).append(p)
    if empty:
        # zeros of the row shape that the integrand returns at their points
        shape = np.shape(f(np.array([a[p] for p in empty], dtype=float), np.array(empty)))[:-1]
        for p in empty:
            results[p] = ((np.zeros(shape), np.zeros(shape)) if shape else (0.0, 0.0)) + (True, 0)
    if not live:
        return results
    partitions = {}                      # id(seeds) -> (seeds, (lo, hi), partition)
    lows, highs, counts = [], [], []
    for p in live:
        los, his = _partition(a[p], b[p], breakpoints[p], partitions)
        lows += los
        highs += his
        counts.append(len(los))
    vals, errs = _evaluate(f, np.array(live), np.array(counts), np.array(lows), np.array(highs))
    if len(live) >= _ARRAY_MIN_PROBLEMS:
        rest, rnd = _array_rounds(f, cfg, live, counts, lows, highs, vals, errs, results)
    else:
        ends = list(itertools.accumulate(counts))
        rest, rnd = [(p, lows[s:e], highs[s:e], vals[s:e], errs[s:e], None, None)
                     for p, s, e in zip(live, [0, *ends], ends)], 0

    pending = {}                         # problem -> (its loop, the intervals it asks for)
    for p, *state in rest:
        loop = _refine(cfg, *state)
        try:
            pending[p] = loop, next(loop)
        except StopIteration as done:
            results[p] = (*done.value, rnd)
    while pending:
        rounds = list(pending.items())
        lows, highs = [], []
        for _, (_, (los, his)) in rounds:
            lows += los
            highs += his
        try:
            vals, errs = _evaluate(f, np.array([p for p, _ in rounds]), 2, np.array(lows),
                                   np.array(highs))
        except Exception:
            _checked(results, cfg)
            raise
        rnd += 1
        for k, (p, (loop, _)) in enumerate(rounds):
            try:
                pending[p] = loop, loop.send((vals[2 * k:2 * k + 2], errs[2 * k:2 * k + 2]))
            except StopIteration as done:
                del pending[p]
                results[p] = (*done.value, rnd)
    return results


def _partition(lo, hi, bps, partitions):
    """The lows and highs of a problem's seed partition of [lo, hi].

    Problems handed the same seeds object share one partition; the memo
    holds that object, so its id stays its own for the whole call.
    """
    hit = partitions.get(id(bps))
    if hit is not None and hit[0] is bps and hit[1] == (lo, hi):
        return hit[2]
    edges = [lo, hi]
    if bps:
        edges.extend(x for x in bps if lo < x < hi)
    edges = sorted(set(edges))
    partitions[id(bps)] = bps, (lo, hi), (edges[:-1], edges[1:])
    return edges[:-1], edges[1:]


def _evaluate(f, problems, counts, lows, highs):
    """One round's values and errors: the intervals of ``problems[i]`` are
    the next ``counts[i]`` of (lows, highs), or the next ``counts`` if it is
    one number.  A round of more than ``_ROUND_CAP`` intervals is evaluated
    and reduced in blocks of that many, which bounds its node arrays and
    moves no bits: ``_rule`` reduces each interval on its own.  ``_gk15``
    and ``_rule`` are looked up in the module when called."""
    if len(lows) > _ROUND_CAP:
        owners, c = problems.repeat(counts), _ROUND_CAP
        blocks = [_evaluate(f, owners[s:s + c], 1, lows[s:s + c], highs[s:s + c])
                  for s in range(0, len(lows), c)]
        return tuple(np.concatenate(parts) for parts in zip(*blocks))
    idx = problems.repeat(15 * counts)
    return _rule(_gk15(lambda x: f(x, idx), lows, highs), lows, highs)


def _refine(cfg, lows, highs, vals, errs, totals=None, weight=None):
    """One problem's worklist, from its evaluated intervals to convergence.

    A generator: it yields the (lows, highs) of the two halves of each
    bisection and receives their values and errors; it returns (estimate,
    bound, converged).  ``lows`` and ``highs`` are lists of floats, ``vals``
    and ``errs`` arrays.  It starts from a seed partition, or, given the
    running ``totals`` (and, for rows, the seed pass's ``weight``), from the
    intervals that :func:`_array_rounds` hands over.  Its splitting order is
    a pure function of its own estimates.
    """
    # heap entries, endpoints and running sums are plain floats, or lists of
    # floats for rows: cheaper than numpy scalars, with the same values
    total, total_err = totals or (vals.sum(axis=0).tolist(), errs.sum(axis=0).tolist())
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
        # error relative to that component's tolerance after the seed pass
        weight = weight or (1.0 / np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))).tolist()
        priorities = lambda es: [max(map(operator.mul, e, weight)) for e in es]  # noqa: E731
        within_tol = lambda t, e: all(  # noqa: E731
            ei <= cfg.abs_tol or ei <= cfg.rel_tol * abs(ti) for ti, ei in zip(t, e))
        fsum = lambda parts: [math.fsum(c) for c in zip(*parts)]  # noqa: E731
        result = np.array

    # (-priority, left endpoint) ordering makes the splitting sequence unique.
    # Every bisection adds one interval, so the heap's size counts them.
    vals, errs = vals.tolist(), errs.tolist()
    heap = list(zip([-k for k in priorities(errs)], lows, highs, vals, errs))
    heapq.heapify(heap)

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
        if len(heap) >= cfg.max_subdivisions:
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


def _array_rounds(f, cfg, problems, counts, lows, highs, vals, errs, results):
    """The plain rounds of :func:`_refine` for many problems at once, on arrays.

    Problem ``problems[i]`` owns ``n[i]`` consecutive columns of ``iv``, in
    the order of lo.  The rows of ``iv`` are its intervals' lo, hi, values
    and errors, one row each for scalar problems and k each for k-row
    problems, and last their priority: for a scalar problem that is its
    error row, for rows the largest error times the seed pass's weight.
    ``tot`` holds the running totals, value rows over error rows, one
    column per problem.  Each round is ``_refine``'s plain round for every
    problem, in its floating point operations: the tolerance test, with
    ``math.fsum``, row by row, where ``_refine`` re-sums, then a bisection of
    each unconverged problem's worst interval (largest priority, ties to the
    smaller lo), all in one integrand call.  Problems leave as they converge,
    with their outcomes in ``results``.  Once fewer than
    ``_ARRAY_MIN_PROBLEMS`` are live, or at the first round that needs a
    rare decision (see the module docstring), returns each live one's
    (problem, lows, highs, values, errors, totals, weight) for its
    ``_refine`` to go on from and decide, and the number of rounds run.
    """
    rows = vals.ndim > 1
    k = vals.shape[1] if rows else 1
    pid, n = np.array(problems), np.array(counts)
    iv = np.empty((2 + 2 * k + rows, len(lows)))
    iv[0], iv[1], iv[2:2 + k], iv[2 + k:2 + 2 * k] = lows, highs, vals.T, errs.T
    starts = np.cumsum(n) - n
    # _refine's seed totals are each problem's .sum(axis=0); a row sum over
    # the problems of one count, gathered C-ordered by np.take, has those
    # bits, where reduceat, or a sum down _rule's transposed slice, may not.
    # (np.unique would import numpy.ma, about 1 MB, on its first call.)
    tot = np.empty((2 * k, len(n)))
    for c in set(counts):
        same = np.flatnonzero(n == c)
        tot[:, same] = np.take(iv[2:2 + 2 * k], starts[same, None] + np.arange(c), axis=1).sum(2)
    if rows:
        weight = 1.0 / np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(tot[:k]))
        iv[-1] = (iv[2 + k:2 + 2 * k] * weight.repeat(n, axis=1)).max(axis=0)

    def within_tol():                     # of every problem
        ok = tot[k:] <= np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(tot[:k]))
        return ok.all(0) if rows else ok[0]

    def resum(some):
        sums = []
        for s, c in zip(starts[some].tolist(), n[some].tolist()):
            sums += map(math.fsum, iv[2:2 + 2 * k, s:s + c].tolist())
        tot[:, some] = np.array(sums).reshape(len(some), 2 * k).T

    rnd = 0
    while len(n) >= _ARRAY_MIN_PROBLEMS:
        key = iv[-1]
        done = np.zeros(len(n), dtype=bool)
        passed = np.flatnonzero(within_tol())
        if passed.size:
            resum(passed)
            done[passed] = within_tol()[passed]
        finished = np.flatnonzero(done)
        some = tot[:, finished]
        pairs = zip(some[:k].T, some[k:].T) if rows else zip(*some.tolist())
        for p, (total, total_err) in zip(pid[finished].tolist(), pairs):
            results[p] = total, total_err, True, rnd
        live = np.flatnonzero(~done)
        if not live.size:
            return [], rnd
        # each live problem's worst interval: its first of largest priority,
        # as _refine's heap orders them
        at = np.flatnonzero(key == np.maximum.reduceat(key, starts).repeat(n))
        if len(at) > len(n):
            at = at[np.searchsorted(at, starts)]
        at = at[live]
        a, b = iv[0, at], iv[1, at]
        m = 0.5 * (a + b)
        if ((n[live] >= cfg.max_subdivisions).any() or (key[at] == 0.0).any()
                or ((m <= a) | (m >= b)).any()):
            # a budget, zero-priority or resolution decision: _refine makes it
            iv, tot, pid, n = iv[:, ~done.repeat(n)], tot[:, live], pid[live], n[live]
            starts = np.cumsum(n) - n
            if rows:
                weight = weight[:, live]
            break
        # the two halves of every bisection, left then right, as columns of iv
        halves = np.empty((len(iv), 2 * len(at)))
        halves[0, 0::2], halves[0, 1::2], halves[1, 0::2], halves[1, 1::2] = a, m, m, b
        v, e = _evaluate(f, pid[live], 2, halves[0], halves[1])
        rnd += 1
        halves[2:2 + k], halves[2 + k:2 + 2 * k] = v.T, e.T
        new = halves[2:2 + 2 * k]
        tot = tot.take(live, 1) + ((new[:, 0::2] + new[:, 1::2]) - iv[2:2 + 2 * k].take(at, 1))
        if rows:
            weight = weight.take(live, 1)
            halves[-1] = (halves[2 + k:2 + 2 * k] * weight.repeat(2, axis=1)).max(axis=0)
        # the left half replaces the interval and the right half follows it:
        # columns gathered from iv and the new ones, without the problems
        # that finished
        iv[:, at] = halves[:, 0::2]
        ext = np.concatenate((iv, halves[:, 1::2]), axis=1)
        grown = n[live] + 1
        off = np.arange(grown.sum()) - (np.cumsum(grown) - grown).repeat(grown)
        old = starts[live].repeat(grown) + off
        cut = (at - starts[live]).repeat(grown)
        right = np.arange(iv.shape[1], ext.shape[1]).repeat(grown)
        iv = ext[:, np.where(off <= cut, old, np.where(off == cut + 1, right, old - 1))]
        pid, n = pid[live], grown
        starts = np.cumsum(n) - n
    if rows:
        vals, errs = iv[2:2 + k].T, iv[2 + k:2 + 2 * k].T
        totals, weights = zip(tot[:k].T.tolist(), tot[k:].T.tolist()), weight.T.tolist()
    else:
        vals, errs = iv[2], iv[3]
        totals, weights = zip(tot[0].tolist(), tot[1].tolist()), [None] * len(n)
    return [(p, iv[0, s:s + c].tolist(), iv[1, s:s + c].tolist(), vals[s:s + c], errs[s:s + c],
             t, w) for p, s, c, t, w in
            zip(pid.tolist(), starts.tolist(), n.tolist(), totals, weights)], rnd


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
