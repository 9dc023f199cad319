"""Self-verification suites: every cross-route identity the package rests on.

Each check reports its worst residual against a pinned tolerance.  The
``fast`` level runs a thinned grid and finishes in well under a minute; the
``full`` level runs the complete acceptance grid.  ``lambda2_sign_flip``
deliberately corrupts the channel's second eigenvalue before the keystone
comparison; it exists as a negative control for the reporting pipeline and
must make the suite fail.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import channel, lorentz
from .capacity import capacity_report, eq7_check
from .channel import (PacketFrame, PauliLambda, PauliProbs, QubitState,
                      apply_pauli, apply_pauli_matrix, compose,
                      identity_residuals, lambda12_series, lambda3_closed,
                      lambda_numeric, lambda_probs, phi_profile,
                      phi_profile_closed, probs_lambda, rho_direct,
                      state_density)
from .quadrature import DEFAULT_CONFIG
from .special_functions import elliptic, entropy, erf_family, hyp2f2_11_52_3
from .wavepacket import normalization, rest_frame_trace

VERIFY_CONFIG = DEFAULT_CONFIG

ZETA_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
GAMMA_GRID = (0.1, 0.5, 1.0, 5.0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    seconds: float
    note: str = ""


@dataclass(frozen=True)
class VerifyReport:
    level: str
    passed: bool
    wall_seconds: float
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)


def _grids(level: str):
    if level == "full":
        return ZETA_GRID, GAMMA_GRID, 8
    return (-1.0, 0.0, 1.0), (0.5, 1.0), 2


def _random_states(n: int, seed: int = 20240229) -> list[QubitState]:
    rng = np.random.default_rng(seed)
    return [QubitState(float(rng.uniform(0, 2 * math.pi)),
                       float(rng.uniform(0, math.pi))) for _ in range(n)]


def _check_erf_identities(level: str) -> tuple[float, float, str]:
    xs = [k * 0.25 for k in range(-60, 61)]
    worst = max(abs(erf_family(x).erf + erf_family(x).erfc - 1.0) for x in xs)
    return worst, 1e-14, ""


def _check_erfcx_scaling(level: str) -> tuple[float, float, str]:
    worst = 0.0
    for x in [k * 0.5 for k in range(0, 61)]:
        t = erf_family(x)
        if t.erfc > 0:
            worst = max(worst, abs(t.erfcx * math.exp(-x * x) - t.erfc) / t.erfc)
    return worst, 1e-13, ""


def _check_legendre(level: str) -> tuple[float, float, str]:
    worst = 0.0
    for m in (0.05, 0.2, 0.5, 0.8, 0.95, 0.999):
        a, b = elliptic(m), elliptic(1.0 - m)
        worst = max(worst, abs(a.E * b.K + b.E * a.K - a.K * b.K - math.pi / 2))
    return worst, 1e-10, ""


def _brute_force_2f2(p: float) -> float:
    terms = [1.0]
    t = 1.0
    for n in range(0, 500):
        t *= p * (n + 1) / ((n + 2.5) * (n + 3))
        terms.append(t)
        if abs(t) < 1e-18 * abs(math.fsum(terms)):
            break
    return math.fsum(terms)


def _check_hyp2f2(level: str) -> tuple[float, float, str]:
    # the plain-double oracle itself carries ~1e3*eps noise at p = -20 from
    # its exponentially large alternating terms, hence the tolerance
    worst = 0.0
    for p in (-20.0, -10.0, -5.0, -1.0, 0.5, 1.0, 5.0, 12.0, 20.0):
        ref = _brute_force_2f2(p)
        worst = max(worst, abs(hyp2f2_11_52_3(p) - ref) / abs(ref))
    return worst, 2e-9, ""


def _check_entropy(level: str) -> tuple[float, float, str]:
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(200):
        p = rng.dirichlet(np.ones(4))
        h = entropy(p)
        worst = max(worst, abs(h - entropy(p[::-1])))
        if h > 2.0 + 1e-12:
            worst = max(worst, h - 2.0)
    return worst, 1e-12, ""


def _check_lorentz_metric(level: str) -> tuple[float, float, str]:
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(50):
        m = (lorentz.rotation("z", rng.uniform(0, 2 * math.pi))
             @ lorentz.rotation("y", rng.uniform(0, math.pi))
             @ lorentz.boost_z(rng.uniform(-3, 3)))
        worst = max(worst, lorentz.metric_residual(m))
    return worst, 1e-12, ""


def little_group_worst(samples: int, seed: int) -> dict[str, float]:
    """Worst residuals of the little-group theorem over random z-boosts of
    random null momenta, for verify's little-group check."""
    rng = np.random.default_rng(seed)
    worst = dict.fromkeys(("wigner_angle", "a2", "a1_vs_theory", "reconstruction",
                           "fixes_standard_vector"), 0.0)
    for _ in range(samples):
        z = rng.uniform(-3, 3)
        th = rng.uniform(0.01, math.pi - 0.01)
        ph = rng.uniform(0, 2 * math.pi)
        w = rng.uniform(0.2, 5.0)
        p = lorentz.null_momentum(w, th, ph)
        boost = lorentz.boost_z(z)
        dec = lorentz.little_group(boost, p)
        a1_theory = (math.sinh(z) * math.sin(th)
                     / (w * (math.cosh(z) - math.sinh(z) * math.cos(th))))
        wmat = (np.linalg.inv(lorentz.standard_boost(boost @ p))
                @ boost @ lorentz.standard_boost(p))
        fix = float(np.abs(wmat @ lorentz.STANDARD_MOMENTUM
                           - lorentz.STANDARD_MOMENTUM).max())
        for key, v in (("wigner_angle", abs(dec.wigner_angle)), ("a2", abs(dec.a2)),
                       ("a1_vs_theory", abs(dec.a1 - a1_theory)),
                       ("reconstruction", dec.residual), ("fixes_standard_vector", fix)):
            worst[key] = max(worst[key], v)
    return worst


def _check_little_group(level: str) -> tuple[float, float, str]:
    worst = little_group_worst(100 if level == "full" else 20, seed=42)
    return max(worst.values()), 1e-10, ""


def _check_normalization(level: str) -> tuple[float, float, str]:
    gammas = GAMMA_GRID if level == "full" else (0.5, 1.0)
    worst = 0.0
    for g in gammas:
        closed = normalization(PacketFrame(g, 0.0), "closed_form")
        for z in ZETA_GRID:
            quad = normalization(PacketFrame(g, z), "quadrature", VERIFY_CONFIG)
            worst = max(worst, abs(quad - closed) / closed)
        trace = 2.0 * math.pi * rest_frame_trace(g, VERIFY_CONFIG)
        worst = max(worst, abs(trace - closed) / closed)
    return worst, 1e-8, ""


def _keystone_worst(level: str, sign_flip: bool) -> float:
    zg, gg, n_states = _grids(level)
    states = _random_states(n_states)
    worst = 0.0
    for z in zg:
        for g in gg:
            frame = PacketFrame(g, z)
            lam = lambda_numeric(frame, VERIFY_CONFIG, method="closed_profile")
            for st in states:
                direct = rho_direct(st, frame, VERIFY_CONFIG)
                pauli = apply_pauli(lam, st)
                if sign_flip:
                    # negative control: flipping the second eigenvalue flips
                    # the imaginary part of the off-diagonal output entries
                    pauli = pauli.copy()
                    pauli[0, 1] = pauli[0, 1].conjugate()
                    pauli[1, 0] = pauli[1, 0].conjugate()
                worst = max(worst, float(np.abs(direct - pauli).max()))
    return worst


@functools.lru_cache(maxsize=4)
def _eq6_worst(level: str) -> tuple[float, float]:
    zg, gg, _ = _grids(level)
    worst1 = worst2 = 0.0
    for z in zg:
        for g in gg:
            r1, r2 = identity_residuals(PacketFrame(g, z), VERIFY_CONFIG)
            worst1, worst2 = max(worst1, r1), max(worst2, r2)
    return worst1, worst2


def _check_eq6_first(level: str) -> tuple[float, float, str]:
    return _eq6_worst(level)[0], 1e-10, "oracle frame integrals g1 - g3; both integrands are 1/2"


def _check_eq6_second(level: str) -> tuple[float, float, str]:
    return _eq6_worst(level)[1], 1e-8, "quarter-turn-shifted integrand pair"


def _check_cp_simplex(level: str) -> tuple[float, float, str]:
    zg, gg, _ = _grids(level)
    worst = 0.0
    for z in zg:
        for g in gg:
            lam = lambda_numeric(PacketFrame(g, z), VERIFY_CONFIG, "closed_profile")
            p0, p1, p2, p3 = lambda_probs(lam).as_tuple()
            worst = max(worst, -min(p0, p1, p2, p3), abs(p0 + p1 + p2 + p3 - 1.0))
    return worst, 1e-9, ""


def _check_lambda3_closed(level: str) -> tuple[float, float, str]:
    worst = 0.0
    for g in (0.5, 1.0, 2.0, 5.0):
        quad = lambda_numeric(PacketFrame(g, 0.0), VERIFY_CONFIG, "closed_profile").l3
        worst = max(worst, abs(lambda3_closed(g) - quad) / abs(quad))
    return worst, 1e-6, ""


def _check_fastpath(level: str) -> tuple[float, float, str]:
    frames = [(0.5, 0.0), (1.0, 1.0), (5.0, -1.0)]
    if level == "full":
        frames += [(0.1, 2.0), (5.0, 2.0), (20.0, -0.5)]
    worst = 0.0
    for g, z in frames:
        a = lambda_numeric(PacketFrame(g, z), VERIFY_CONFIG, "quadrature")
        b = lambda_numeric(PacketFrame(g, z), VERIFY_CONFIG, "closed_profile")
        worst = max(worst, max(abs(x - y) for x, y in zip(a.as_tuple(), b.as_tuple())))
    return worst, 1e-9, ""


def _check_series(level: str) -> tuple[float, float, str]:
    # violations, each <= 0 when the contract holds: the error must not grow
    # with n_max, and at Gamma = 5, n_max = 6 the relative error must be
    # within 1e-4 of the numeric eigenvalues
    n_top = 6 if level == "full" else 4
    worst_violation = 0.0
    for g in (5.0, 10.0):
        target = lambda_numeric(PacketFrame(g, 0.0), VERIFY_CONFIG, "closed_profile")
        errs = []
        for n_max in range(n_top + 1):
            l1, l2 = lambda12_series(g, n_max)
            errs.append(max(abs(l1 - target.l1), abs(l2 - target.l2)))
        for a, b in zip(errs, errs[1:]):
            worst_violation = max(worst_violation, b - a)
    target = lambda_numeric(PacketFrame(5.0, 0.0), VERIFY_CONFIG, "closed_profile")
    l1, l2 = lambda12_series(5.0, 6)
    rel = max(abs(l1 - target.l1) / target.l1, abs(l2 - target.l2) / target.l2)
    worst_violation = max(worst_violation, rel - 1e-4)
    return (worst_violation, 1e-9,
            "series error must not grow with n_max; rel err at Gamma=5, n_max=6 <= 1e-4")


def _check_capacity_bounds(level: str) -> tuple[float, float, str]:
    zg, gg, _ = _grids(level)
    worst = 0.0
    for z in zg:
        for g in gg:
            lam = lambda_numeric(PacketFrame(g, z), VERIFY_CONFIG, "closed_profile")
            rep = capacity_report(lam)
            worst = max(worst, rep.hashing - rep.classical)
            if rep.cerf_zero_capacity:
                worst = max(worst, rep.hashing)
    return worst, 1e-12, "hashing <= classical; zero-capacity flag forces hashing 0"


def _check_composition(level: str) -> tuple[float, float, str]:
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        # random channels drawn through the probability simplex are always valid
        lams = [probs_lambda(PauliProbs(*rng.dirichlet(np.ones(4)))) for _ in range(3)]
        a, b, c = lams
        ab_c = compose(compose(a, b), c)
        a_bc = compose(a, compose(b, c))
        worst = max(worst, max(abs(x - y) for x, y in
                               zip(ab_c.as_tuple(), a_bc.as_tuple())))
        ident = compose(a, PauliLambda(1.0, 1.0, 1.0))
        worst = max(worst, max(abs(x - y) for x, y in
                               zip(ident.as_tuple(), a.as_tuple())))
        rho = state_density(QubitState(rng.uniform(0, 6.28), rng.uniform(0, 3.14)))
        seq = apply_pauli_matrix(a, apply_pauli_matrix(b, rho))
        comp = apply_pauli_matrix(compose(a, b), rho)
        worst = max(worst, float(np.abs(seq - comp).max()))
    for c_val in [0.1 * k for k in range(11)]:
        rep = eq7_check(c_val)
        worst = max(worst, abs(rep.hashing_p2_raw), 0.5 - rep.cerf_composite)
    return worst, 1e-12, ""


def _check_monotone_localization(level: str) -> tuple[float, float, str]:
    gammas = (1.0, 5.0, 20.0) if level == "full" else (5.0,)
    worst = 0.0
    for g in gammas:
        prev = None
        for z in sorted(ZETA_GRID, reverse=True):        # decreasing zeta
            l1 = lambda_numeric(PacketFrame(g, z), VERIFY_CONFIG, "closed_profile").l1
            if prev is not None:
                worst = max(worst, prev - l1)             # must not decrease
            prev = l1
    return worst, 1e-9, "l1 nondecreasing as zeta decreases"


def _check_max_lambda_monitor(level: str) -> tuple[float, float, str]:
    # the dominant-eigenvalue claim holds on the approaching-observer side;
    # monitored there, not assumed anywhere
    worst = 0.0
    for z in (z for z in ZETA_GRID if z <= 0.0):
        for g in GAMMA_GRID:
            lam = lambda_numeric(PacketFrame(g, z), VERIFY_CONFIG, "closed_profile")
            worst = max(worst, max(abs(lam.l2), abs(lam.l3)) - abs(lam.l1))
    return worst, 1e-9, "max |l_i| attained by l1 for zeta <= 0"


def _check_profiles(level: str) -> tuple[float, float, str]:
    # pi/2 and its neighbours sample the |cos t|-thin azimuthal layers
    band = (math.pi / 2 - 1e-7, math.pi / 2, math.pi / 2 + 1e-7)
    thetas = ((0.3, 1.0, 1.5, 1.65, 2.5) if level == "full" else (0.3, 1.5)) + band
    worst = 0.0
    for th in thetas:
        for kind in channel.PROFILE_KINDS:
            worst = max(worst, float(abs(phi_profile(kind, th, VERIFY_CONFIG)
                                         - phi_profile_closed(kind, th))))
    return worst, 1e-9, ""


def run_verify(level: str = "fast", lambda2_sign_flip: bool = False) -> VerifyReport:
    if level not in ("fast", "full"):
        raise ValueError(f"verify level must be 'fast' or 'full', got {level!r}")
    checks = [
        ("special.erf_complement", _check_erf_identities),
        ("special.erfcx_scaling", _check_erfcx_scaling),
        ("special.legendre_relation", _check_legendre),
        ("special.hyp2f2_series", _check_hyp2f2),
        ("special.entropy_properties", _check_entropy),
        ("lorentz.metric_preservation", _check_lorentz_metric),
        ("lorentz.little_group_translation", _check_little_group),
        ("wavepacket.normalization_invariance", _check_normalization),
        ("channel.azimuthal_profiles", _check_profiles),
        ("channel.keystone_pauli_identification",
         lambda lv: (_keystone_worst(lv, lambda2_sign_flip), 1e-7, "")),
        ("channel.diagonal_identity_first", _check_eq6_first),
        ("channel.diagonal_identity_second", _check_eq6_second),
        ("channel.complete_positivity", _check_cp_simplex),
        ("channel.lambda3_closed_form", _check_lambda3_closed),
        ("channel.fast_path_agreement", _check_fastpath),
        ("channel.series_monotone_improvement", _check_series),
        ("capacity.bound_ordering", _check_capacity_bounds),
        ("capacity.composition_and_bottleneck", _check_composition),
        ("channel.monotone_localization", _check_monotone_localization),
        ("channel.dominant_eigenvalue_monitor", _check_max_lambda_monitor),
    ]
    results = []
    t_start = time.perf_counter()
    for name, fn in checks:
        t0 = time.perf_counter()
        residual, tol, note = fn(level)
        results.append(CheckResult(name=name, residual=float(residual),
                                   tolerance=tol, passed=residual <= tol,
                                   seconds=time.perf_counter() - t0, note=note))
    wall = time.perf_counter() - t_start
    return VerifyReport(level=level, passed=all(c.passed for c in results),
                        wall_seconds=wall, checks=tuple(results))
