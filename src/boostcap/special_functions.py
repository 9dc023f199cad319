"""Real special functions needed by the channel integrals.

The error function family with a scaled complement (libm's erf and erfc
below a switch, a continued fraction above it), complete elliptic
integrals in the *parameter* convention
K(m), E(m) = int_0^{pi/2} (1 - m sin^2 t)^{-+1/2} dt, the generalized
hypergeometric value 2F2(1,1;5/2,3;p), and the base-2 Shannon entropy.

Convention warning: elliptic arguments here are always the parameter m,
not the modulus k (m = k^2).  Mixing the two silently corrupts every
downstream channel eigenvalue, which is why the pair type carries the
convention in its docstring and the tests pin negative-m values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._ddouble import dd_add, dd_div_f, dd_mul_f
from .errors import ConvergenceError, DomainError, RangeError

_TWO_OVER_SQRT_PI = 1.1283791670955126
_SQRT_PI = 1.7724538509055160273

# branch switch for the error function family: libm below, the continued
# fraction above; exp(x^2) erfc(x) from libm and the continued fraction
# agree to 2.2e-15 relative on [2.0, 3.5] (see tests)
_ERF_SWITCH = 2.5

HYP2F2_MAX_P = 50.0


@dataclass(frozen=True)
class ErfTriple:
    """erf(x), erfc(x) and the scaled complement erfcx(x) = exp(x^2) erfc(x)."""

    erf: float
    erfc: float
    erfcx: float


@dataclass(frozen=True)
class EllipticPair:
    """Complete elliptic integrals of the first and second kind, parameter m."""

    K: float
    E: float


def _erfcx_cf(x: float) -> float:
    """erfcx(x) for x >= _ERF_SWITCH by the Laplace continued fraction.

    erfcx(x) = (1/sqrt(pi)) / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
    evaluated with the modified Lentz algorithm.
    """
    tiny = 1e-300
    f = x if x != 0 else tiny
    c = f
    d = 0.0
    for n in range(1, 501):
        an = 0.5 * n
        d = x + an * d
        d = tiny if d == 0 else d
        c = x + an / c
        c = tiny if c == 0 else c
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 1e-17:
            return 1.0 / (_SQRT_PI * f)
    raise ConvergenceError("erfcx continued fraction stalled", estimate=1.0 / (_SQRT_PI * f),
                           error_bound=math.inf)


def erf_family(x: float) -> ErfTriple:
    """Consistent (erf, erfc, erfcx) triple for finite real x.

    erfcx stays accurate without overflow for arbitrarily large positive x;
    for x < -26.6 it overflows mathematically and is reported as +inf.
    """
    if not math.isfinite(x):
        raise DomainError(f"erf_family requires finite input, got {x!r}")
    ax = abs(x)
    if ax <= _ERF_SWITCH:
        erf_p, erfc_p = math.erf(ax), math.erfc(ax)
        erfcx_p = math.exp(ax * ax) * erfc_p
    else:
        erfcx_p = _erfcx_cf(ax)
        # exp(-x^2) underflows to 0 beyond |x| ~ 27; erfc follows it
        erfc_p = math.exp(-ax * ax) * erfcx_p
        erf_p = 1.0 - erfc_p
    if x >= 0:
        return ErfTriple(erf_p, erfc_p, erfcx_p)
    try:
        erfcx_n = 2.0 * math.exp(ax * ax) - erfcx_p
    except OverflowError:
        erfcx_n = math.inf
    return ErfTriple(-erf_p, 2.0 - erfc_p, erfcx_n)


def erfi(x: float) -> float:
    """Imaginary error function (2/sqrt(pi)) int_0^x exp(t^2) dt.

    All Maclaurin terms are positive, so plain double summation is accurate;
    used by the closed-form channel eigenvalue where it appears as the real
    rewriting of erf of an imaginary argument.
    """
    if not math.isfinite(x):
        raise DomainError(f"erfi requires finite input, got {x!r}")
    x2 = x * x
    if x2 > 700.0:
        raise RangeError("erfi argument too large for double precision")
    t = x
    s = x
    for n in range(1, 400):
        t *= x2 / n
        s += t / (2 * n + 1)
        if abs(t) < 1e-18 * abs(s):
            break
    return _TWO_OVER_SQRT_PI * s


def _agm_ked(m: float | np.ndarray, one_minus_m: float | np.ndarray | None = None) -> tuple:
    """(K, E, (K-E)/m) for parameter 0 <= m < 1 via the AGM.

    The third value is formed from the AGM correction sum directly, so it
    stays fully accurate as m -> 0 where the naive difference K - E loses
    all significance.  ``one_minus_m`` lets callers supply the complement
    exactly when m itself is the rounded end of a cancellation.  Works
    elementwise on arrays; iteration stops once every element has converged.
    """
    a = 1.0
    b = np.sqrt(1.0 - m if one_minus_m is None else one_minus_m)
    c2 = m                              # c_0^2, exact
    c2_scaled = 0.0                     # sum_{n>=1} 2^(n-1) c_n^2
    pow2 = 1.0
    for _ in range(60):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        c2 = c2 * c2 / (16.0 * a * a)   # c_n = c_{n-1}^2 / (4 a_n), cancellation-free
        c2_scaled += pow2 * c2
        pow2 *= 2.0
        if (c2 <= 1e-34 * a * a).all():
            break
    K = math.pi / (2.0 * a)
    E = K * (1.0 - 0.5 * m - c2_scaled)
    D = K * (0.5 + c2_scaled / np.where(m != 0.0, m, 1.0))    # c2_scaled = 0 at m = 0
    return K, E, D


def _elliptic_ked(m: float) -> tuple[float, float, float]:
    if not math.isfinite(m):
        raise DomainError(f"elliptic parameter must be finite, got {m!r}")
    if m > 1.0:
        raise DomainError(f"elliptic parameter m must be <= 1, got {m!r}")
    if m == 1.0:
        return math.inf, 1.0, math.inf
    if m >= 0.0:
        return _agm_ked(m)
    # imaginary modulus transformation to the positive parameter mu
    mp_ = -m
    s = math.sqrt(1.0 + mp_)
    mu = mp_ / (1.0 + mp_)
    K_mu, E_mu, D_mu = _agm_ked(mu, one_minus_m=1.0 / (1.0 + mp_))
    K = K_mu / s
    E = s * E_mu
    D = E_mu / s - D_mu / (s * s * s)
    return K, E, D


def elliptic(m: float) -> EllipticPair:
    """K(m) and E(m), parameter convention, for m <= 1 (negative m included)."""
    K, E, _ = _elliptic_ked(m)
    return EllipticPair(float(K), float(E))


def hyp2f2_11_52_3(p: float) -> float:
    """2F2(1, 1; 5/2, 3; p) by its ascending series with dd accumulation.

    The series converges for every finite p, but for negative p the terms
    peak near |p| at size ~e^|p|/|p|^3.5 before the alternating sum collapses
    to an O(1/|p|) value.  Double-double term recurrence and accumulation
    keep ~1e-12 relative accuracy up to |p| = 50; beyond that the inputs are
    rejected so callers can fall back to quadrature.
    """
    if not math.isfinite(p):
        raise DomainError(f"hyp2f2 requires finite input, got {p!r}")
    if abs(p) > HYP2F2_MAX_P:
        raise RangeError(f"hyp2f2 validated for |p| <= {HYP2F2_MAX_P}, got {p!r}")
    if p == 0.0:
        return 1.0
    t = (1.0, 0.0)
    s = (1.0, 0.0)
    for n in range(0, 400):
        t = dd_mul_f(*t, p)
        t = dd_mul_f(*t, float(n + 1))
        t = dd_div_f(*t, n + 2.5)
        t = dd_div_f(*t, float(n + 3))
        s = dd_add(*s, *t)
        if n > abs(p) and abs(t[0]) < 1e-25 * abs(s[0]):
            break
    return s[0] + s[1]


def entropy(probs) -> float:
    """Shannon entropy in bits of a probability vector; 0 log 0 = 0.

    Components may dip to -1e-9 (clamped) and the sum may deviate from one
    by up to 1e-9 (renormalized); anything worse is a domain error.
    """
    p = [float(v) for v in probs]
    if not p or any(not math.isfinite(v) for v in p):
        raise DomainError("entropy requires a non-empty finite probability vector")
    if min(p) < -1e-9:
        raise DomainError(f"negative probability component: {min(p)!r}")
    p = [max(0.0, v) for v in p]
    total = sum(p)
    if abs(total - 1.0) > 1e-9:
        raise DomainError(f"probabilities sum to {total!r}, not 1")
    h = 0.0
    for v in p:
        if v > 0.0:
            v /= total
            h -= v * math.log2(v)
    return h
