"""Capacity functionals of Pauli channels and the boost/spread threshold solvers.

For a Pauli channel with Bloch eigenvalues (l1, l2, l3) and probabilities
(p0..p3):

- classical capacity      C = 1 - H2((1 + max_i |l_i|)/2)
- hashing (random-coding) lower bound on the quantum capacity
                          Q_raw = 1 - H(p0, p1, p2, p3), clamped at 0
- no-cloning indicator    c0 = p1+p2+p3 + sqrt(p1 p2) + sqrt(p2 p3) + sqrt(p1 p3);
                          c0 >= 1/2 certifies exactly zero quantum capacity
- entanglement breaking   iff the partial transpose of the Choi matrix is
                          positive semidefinite (qubit channels): max p_i <= 1/2

The two theorems are mutually consistent: whenever c0 >= 1/2 the hashing
bound cannot be positive, and the report constructor enforces that.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import (PacketFrame, PauliLambda, PauliProbs, apply_pauli_matrix,
                      compose, lambda_batch, lambda_numeric, lambda_probs, probs_lambda)
from .errors import (BoostcapError, DomainError, IntegrityError, PreconditionError,
                     RangeError, ThresholdNotFoundError)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig
from .special_functions import entropy

CERF_THRESHOLD = 0.5
_EB_EIG_TOL = 1e-10


@dataclass(frozen=True)
class CapacityReport:
    """All capacity bounds of one channel; hashing is the clamped lower bound."""

    classical: float
    hashing_raw: float
    hashing: float
    cerf: float
    cerf_zero_capacity: bool
    entanglement_breaking: bool


@dataclass(frozen=True)
class Eq7Report:
    """Composite no-unrotation channel check: depolarizing after a one-Pauli map."""

    depolarizing_strength: float
    hashing_p2_raw: float
    cerf_p2: float
    cerf_composite: float
    composite_zero_capacity: bool


def classical_capacity(lam: PauliLambda) -> float:
    """1 - H2(x) with x = (1 + max_i |l_i|)/2 (unital qubit channel formula)."""
    x = 0.5 * (1.0 + max(abs(v) for v in lam.as_tuple()))
    return 1.0 - entropy((x, 1.0 - x))


def hashing_bound(p: PauliProbs) -> tuple[float, float]:
    """(raw, clamped) hashing bound 1 - H(p); raw may be negative."""
    raw = 1.0 - entropy(p.as_tuple())
    return raw, max(0.0, raw)


def cerf_indicator(p: PauliProbs) -> float:
    p0, p1, p2, p3 = p.as_tuple()
    return (p1 + p2 + p3 + math.sqrt(p1 * p2) + math.sqrt(p2 * p3)
            + math.sqrt(p1 * p3))


def choi_matrix(lam: PauliLambda) -> np.ndarray:
    """Choi operator: channel applied to half of a maximally entangled pair."""
    out = np.zeros((4, 4), dtype=complex)
    for a in range(2):
        for c in range(2):
            basis = np.zeros((2, 2), dtype=complex)
            basis[a, c] = 1.0
            block = apply_pauli_matrix(lam, basis)
            out[2 * a: 2 * a + 2, 2 * c: 2 * c + 2] = 0.5 * block
    return out


def is_entanglement_breaking(lam: PauliLambda) -> bool:
    """Positive partial transpose of the Choi matrix (min eigenvalue >= -1e-10).

    The Choi matrix is Bell-diagonal with weights p_i, so the eigenvalues of
    its partial transpose are 1/2 - p_i."""
    return bool(max(lambda_probs(lam).as_tuple()) <= 0.5 + _EB_EIG_TOL)


def capacity_report(lam: PauliLambda) -> CapacityReport:
    """Assemble all bounds.

    The no-cloning indicator certifies zero capacity for channels whose
    identity component dominates (always the case for channels this package
    produces); for those, a zero-capacity flag is incompatible with a
    positive hashing bound, which the verification suite asserts on the
    produced family.  For arbitrary hand-built channels (e.g. a near-unitary
    flip, p1 ~ 1) the indicator does not apply and the report simply records
    both numbers.
    """
    p = lambda_probs(lam)
    raw, clamped = hashing_bound(p)
    cerf = cerf_indicator(p)
    zero = cerf >= CERF_THRESHOLD
    return CapacityReport(
        classical=classical_capacity(lam),
        hashing_raw=raw,
        hashing=clamped,
        cerf=cerf,
        cerf_zero_capacity=zero,
        entanglement_breaking=is_entanglement_breaking(lam),
    )


def frame_report(gamma: float, zeta: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
                 method: str = "closed_profile") -> tuple[PauliLambda, CapacityReport]:
    lam = lambda_numeric(PacketFrame(gamma, zeta), cfg, method)
    return lam, capacity_report(lam)


def _hashing_raw(lam: PauliLambda) -> float:
    return hashing_bound(lambda_probs(lam))[0]


def _hashing_raw_at(zeta: float, gamma: float, cfg: QuadratureConfig, method: str) -> float:
    return _hashing_raw(lambda_numeric(PacketFrame(gamma, zeta), cfg, method))


def _no_cloning_margin(lam: PauliLambda) -> float:
    return cerf_indicator(lambda_probs(lam)) - CERF_THRESHOLD


def _checked(entry: PauliLambda | BoostcapError) -> PauliLambda:
    if isinstance(entry, BoostcapError):
        raise entry
    return entry


def _positive_tolerance(name: str, tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0.0):
        raise DomainError(f"{name} must be positive and finite, got {tol!r}")


def _crossing(f, lo: float, hi: float, f_lo: float, f_hi: float, width: float) -> float:
    """The crossing of ``f`` on a bracket with f(lo) > 0 >= f(hi), to ``width``.

    ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2021) with kappa1 =
    0.2 / (hi - lo), kappa2 = 2 and n0 = 2: each step takes the regula falsi
    point, truncates it toward the midpoint and projects it into the ball
    that keeps bisection's worst case, so a solve makes at most two more
    evaluations than bisection's ceil(log2((hi - lo) / width)) and
    superlinearly fewer near a simple root.  The bracket keeps its signs and
    shrinks until it is no wider than ``width`` (or down to adjacent floats);
    its midpoint, within width/2 of the crossing, is returned.
    """
    kappa1 = 0.2 / (hi - lo)
    n_max = math.ceil(max(0.0, math.log2(hi - lo) - math.log2(width))) + 2
    for j in itertools.count():
        mid = 0.5 * (lo + hi)
        if hi - lo <= width or not lo < mid < hi:
            return mid
        x = (hi * f_lo - lo * f_hi) / (f_lo - f_hi)
        sigma = math.copysign(1.0, mid - x)
        delta = kappa1 * (hi - lo) ** 2
        x = x + sigma * delta if delta <= abs(mid - x) else mid
        radius = math.ldexp(width, n_max - j - 1) - 0.5 * (hi - lo)
        if abs(x - mid) > radius:
            x = mid - sigma * radius
        if not lo < x < hi:     # as when f(hi) = 0; an end would not shrink the bracket
            x = mid
        y = f(x)
        if y > 0.0:
            lo, f_lo = x, y
        else:
            hi, f_hi = x, y


def boost_threshold(gamma: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
                    method: str = "closed_profile", zeta_min: float = -10.0,
                    zeta_tol: float = 1e-4) -> float:
    """Rapidity at which the raw hashing bound of a zero-capacity packet crosses 0.

    Samples zeta_min, its three quarter points and 0 in one
    :func:`lambda_batch`, then solves on the quarter-range bracket they give
    (:func:`_crossing`), to within zeta_tol/2 of the crossing.  Requires the
    rest-frame channel to have a non-positive raw hashing bound (otherwise
    there is nothing to boost past) and validates that the bound decreases
    monotonically along the samples toward zeta = 0.  zeta_min must lie in
    [-10, 0), the validated domain.
    """
    _positive_tolerance("zeta_tol", zeta_tol)
    if not (math.isfinite(zeta_min) and zeta_min < 0.0):
        raise DomainError(f"zeta_min must be negative and finite, got {zeta_min!r}")
    if zeta_min < -10.0:
        raise RangeError(f"zeta_min {zeta_min!r} is outside the validated domain |zeta| <= 10")
    samples = [zeta_min, 0.75 * zeta_min, 0.5 * zeta_min, 0.25 * zeta_min, 0.0]
    lams = lambda_batch([PacketFrame(gamma, z) for z in samples], cfg, method)
    f0 = _hashing_raw(_checked(lams[-1]))
    if f0 > 0.0:
        raise PreconditionError(
            f"hashing bound already positive at rest ({f0!r}); no boost threshold")
    fmin = _hashing_raw(_checked(lams[0]))
    if fmin <= 0.0:
        raise ThresholdNotFoundError(
            f"no sign change of the hashing bound on [{zeta_min}, 0]")
    values = [fmin] + [_hashing_raw(_checked(lam)) for lam in lams[1:-1]] + [f0]
    for a, b in zip(values, values[1:]):
        if b > a + 1e-9:
            raise IntegrityError(
                f"hashing bound not monotone on the bracketing samples: {values!r}")
    k = next(i for i, v in enumerate(values) if v <= 0.0)
    return _crossing(lambda z: _hashing_raw_at(z, gamma, cfg, method),
                     samples[k - 1], samples[k], values[k - 1], values[k], zeta_tol)


def gamma_threshold(zeta: float, cfg: QuadratureConfig = DEFAULT_CONFIG,
                    method: str = "closed_profile",
                    inv_gamma_range: tuple[float, float] = (1e-4, 2.0),
                    rel_tol: float = 1e-4) -> float:
    """Inverse spread 1/Gamma at which the no-cloning indicator crosses 1/2.

    The indicator decreases with 1/Gamma (less noise).  Both ends of
    inv_gamma_range are evaluated in one :func:`lambda_batch`; the solve
    (:func:`_crossing`) runs in u = log(1/Gamma) to the width
    2 atanh(rel_tol/2), the log-width of a bracket [a, b] with b - a =
    rel_tol (a + b)/2, and returns exp of the midpoint, within rel_tol/2 of
    the crossing, relatively, to first order.  The range must satisfy
    0 < lo < hi < inf.
    """
    _positive_tolerance("rel_tol", rel_tol)
    lo, hi = inv_gamma_range
    if not 0.0 < lo < hi < math.inf:
        raise DomainError(
            f"inv_gamma_range must satisfy 0 < lo < hi < inf, got {inv_gamma_range!r}")
    lam_lo, lam_hi = lambda_batch([PacketFrame(1.0 / lo, zeta), PacketFrame(1.0 / hi, zeta)],
                                  cfg, method)
    mlo = _no_cloning_margin(_checked(lam_lo))
    mhi = _no_cloning_margin(_checked(lam_hi))
    if not (mlo > 0.0 > mhi):
        raise ThresholdNotFoundError(
            f"no-cloning indicator does not cross 1/2 on {inv_gamma_range!r} "
            f"(margins {mlo!r}, {mhi!r})")
    # every bracket meets a relative tolerance of 2 or more
    width = 2.0 * math.atanh(rel_tol / 2.0) if rel_tol < 2.0 else math.inf
    u = _crossing(
        lambda u: _no_cloning_margin(
            lambda_numeric(PacketFrame(1.0 / math.exp(u), zeta), cfg, method)),
        math.log(lo), math.log(hi), mlo, mhi, width)
    return math.exp(u)


ONE_PAULI_Y = probs_lambda(PauliProbs(0.5, 0.0, 0.5, 0.0))


def eq7_check(depolarizing_strength: float) -> Eq7Report:
    """Zero quantum capacity of the composite channel without the unrotation.

    The detection channel of an un-prepared packet factors as a depolarizing
    channel after a one-Pauli channel with p = (1/2, 0, 1/2, 0).  The
    one-Pauli factor has hashing bound exactly 0 (equal to its quantum
    capacity), so the bottleneck inequality forces the composite's capacity
    to 0; the report confirms it via the no-cloning indicator.
    """
    c = float(depolarizing_strength)
    if not (0.0 <= c <= 1.0):
        raise DomainError(f"depolarizing strength must lie in [0, 1], got {c!r}")
    depol = PauliLambda(c, c, c)
    p2 = lambda_probs(ONE_PAULI_Y)
    raw_p2, _ = hashing_bound(p2)
    composite = compose(depol, ONE_PAULI_Y)
    cerf_comp = cerf_indicator(lambda_probs(composite))
    return Eq7Report(
        depolarizing_strength=c,
        hashing_p2_raw=raw_p2,
        cerf_p2=cerf_indicator(p2),
        cerf_composite=cerf_comp,
        composite_zero_capacity=cerf_comp >= CERF_THRESHOLD,
    )
