"""Minimal double-double (hi, lo) arithmetic for cancellation-prone series.

A value is an unevaluated sum hi + lo with |lo| <= ulp(hi)/2, giving roughly
32 significant decimal digits.  Only the handful of operations the
alternating 2F2(1,1;5/2,3;p) series needs are provided.  No FMA is assumed:
products are split with Dekker's algorithm.
"""

from __future__ import annotations

_SPLITTER = 134217729.0  # 2**27 + 1


def two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    err = (a - (s - bb)) + (b - bb)
    return s, err


def fast_two_sum(a: float, b: float) -> tuple[float, float]:
    # requires |a| >= |b|
    s = a + b
    err = b - (s - a)
    return s, err


def _split(a: float) -> tuple[float, float]:
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    err = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, err


def dd_add(ahi: float, alo: float, bhi: float, blo: float) -> tuple[float, float]:
    s, e = two_sum(ahi, bhi)
    e += alo + blo
    return fast_two_sum(s, e)


def dd_mul_f(ahi: float, alo: float, b: float) -> tuple[float, float]:
    p, e = two_prod(ahi, b)
    e += alo * b
    return fast_two_sum(p, e)


def dd_div_f(ahi: float, alo: float, b: float) -> tuple[float, float]:
    q1 = ahi / b
    p, e = two_prod(q1, b)
    # remainder of a - q1*b, then one Newton correction
    rhi, rlo = dd_add(ahi, alo, -p, -e)
    q2 = (rhi + rlo) / b
    return fast_two_sum(q1, q2)
