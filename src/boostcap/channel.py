"""The induced Pauli channel of a boosted, axially-detected photon packet.

Averaging the linear-polarizer detection response over the packet's momentum
distribution turns the helicity qubit map into a Pauli channel.  Its three
Bloch eigenvalues are kernel-weighted angular integrals

    l1 = (2/N) int K(t) g5(t,p) / sqrt((1-cos^2 p sin^2 t)(1-sin^2 p sin^2 t))
    l2 = -(2/N) int K(t) g6(t,p) / (same square roots)
    l3 = (2/N) int K(t) g2(t,p) / (1-cos^2 p sin^2 t)

over t in [0, theta_c) x p in [0, 2*pi), normalized by N = the kernel's own
double integral.  Sign convention: l2 carries the minus sign above so that
the zero-spread limit is the identity channel, l -> (1,1,1); the keystone
consistency test (direct density-matrix integration against the Pauli form)
pins this choice.

Two evaluation routes exist for every azimuthal profile: adaptive quadrature
(the baseline and oracle) and closed forms in complete elliptic integrals;
the fast route must track the baseline to 1e-9 and is what parameter sweeps
use.  Both run many frames as one polar worklist (:func:`_polar_integrals`),
the oracle with the azimuthal integrals of every kind in each polar round as
one batched worklist.
A notable consequence of the closed forms: the l3 profile vanishes
identically on the backward hemisphere t > pi/2.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BoostcapError, ConvergenceError, DomainError, IntegrityError,
                     NotAChannelError, RangeError, as_count, is_finite)
from .quadrature import (_REFINE_MAX_POINTS, DEFAULT_CONFIG, QuadratureConfig, _first_failure,
                         geometric_refinement, integrate, integrate_batch)
from .special_functions import _agm_ked, _elliptic_ked, erf_family, erfi, hyp2f2_11_52_3
from .wavepacket import (PacketFrame, frame_coefficients, frames_kernel_values, kernel_values,
                         norm_scale, theta_breakpoints, theta_c)

EULER_GAMMA = 0.5772156649015328606

# integration constant of the closed-form l3 antiderivative, fixed by the
# vanishing of N*l3 as Gamma -> 0 and validated against quadrature
LAMBDA3_CONSTANT = -4.0 * math.pi * (EULER_GAMMA + 1.0 + math.log(4.0))

# closed-form l3 loses the exponential-size cancellation fight in double
# precision beyond p = 1/Gamma^2 ~ 25
LAMBDA3_MIN_GAMMA = 0.2

SERIES_MIN_GAMMA = 3.0

_SIMPLEX_TOL = 1e-9

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class PauliProbs:
    """Probability vector over {I, X, Y, Z}; tiny negatives are clamped."""

    p0: float
    p1: float
    p2: float
    p3: float

    def __post_init__(self):
        vals = (self.p0, self.p1, self.p2, self.p3)
        if any(not math.isfinite(v) for v in vals):
            raise NotAChannelError(f"non-finite probability in {vals!r}")
        if min(vals) < -_SIMPLEX_TOL:
            raise NotAChannelError(f"probability {min(vals)!r} below -{_SIMPLEX_TOL}")
        if abs(sum(vals) - 1.0) > _SIMPLEX_TOL:
            raise NotAChannelError(f"probabilities sum to {sum(vals)!r}")
        for name, v in zip(("p0", "p1", "p2", "p3"), vals):
            if v < 0.0:
                object.__setattr__(self, name, 0.0)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p0, self.p1, self.p2, self.p3)


@dataclass(frozen=True)
class PauliLambda:
    """Bloch-diagonal channel eigenvalues (action on the x, y, z axes)."""

    l1: float
    l2: float
    l3: float

    def __post_init__(self):
        vals = (self.l1, self.l2, self.l3)
        if any(not math.isfinite(v) for v in vals):
            raise NotAChannelError(f"non-finite eigenvalue in {vals!r}")
        if max(abs(v) for v in vals) > 1.0 + _SIMPLEX_TOL:
            raise NotAChannelError(f"eigenvalue outside [-1, 1]: {vals!r}")
        # complete positivity, and the probabilities that lambda_probs returns
        object.__setattr__(self, "_probs", lambda_probs(vals))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.l1, self.l2, self.l3)


@dataclass(frozen=True)
class QubitState:
    """Channel input angles (chi, xi).

    In this parametrization the input qubit carries the Bloch vector
    (sin chi sin xi, cos xi, cos chi sin xi); see :func:`state_density`.
    Both angles are unconstrained beyond finiteness.
    """

    chi: float
    xi: float

    def __post_init__(self):
        if not (is_finite(self.chi, "state angle chi") and is_finite(self.xi, "state angle xi")):
            raise DomainError(f"state angles must be finite, got {self!r}")


def lambda_probs(lam: PauliLambda | tuple) -> PauliProbs:
    """Pauli probabilities from eigenvalues: p0 = (1+l1+l2+l3)/4 etc."""
    if isinstance(lam, PauliLambda):
        return lam._probs
    l1, l2, l3 = lam
    return PauliProbs(
        0.25 * (1.0 + l1 + l2 + l3),
        0.25 * (1.0 + l1 - l2 - l3),
        0.25 * (1.0 - l1 + l2 - l3),
        0.25 * (1.0 - l1 - l2 + l3),
    )


def probs_lambda(p: PauliProbs) -> PauliLambda:
    """Inverse of :func:`lambda_probs`; the round trip is exact."""
    p0, p1, p2, p3 = p.as_tuple()
    return PauliLambda(p0 + p1 - p2 - p3, p0 - p1 + p2 - p3, p0 - p1 - p2 + p3)


def compose(a: PauliLambda, b: PauliLambda) -> PauliLambda:
    """Concatenation of Pauli channels: eigenvalues multiply componentwise."""
    return PauliLambda(a.l1 * b.l1, a.l2 * b.l2, a.l3 * b.l3)


def g_funcs(theta: float, phi: float) -> tuple[float, float, float, float, float, float]:
    """The six angular polynomials entering the output density matrix."""
    ct, st = math.cos(theta), math.sin(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    c2p, s2p = math.cos(2.0 * phi), math.sin(2.0 * phi)
    g1 = 0.5 * (cp * cp * ct * ct + sp * sp)
    g2 = 0.5 * (cp * cp * c2p * ct * ct - c2p * sp * sp + ct * s2p * s2p)
    g3 = 0.5 * (sp * sp * ct * ct + cp * cp)
    g4 = 0.5 * (sp * sp * c2p * ct * ct - c2p * cp * cp - ct * s2p * s2p)
    g5 = 0.25 * (2.0 * c2p * c2p * ct + s2p * s2p + ct * ct * s2p * s2p)
    g6 = -0.5 * ct
    return g1, g2, g3, g4, g5, g6


PROFILE_KINDS = ("g1_cos", "g2_cos", "g3_sin", "g4_sin", "g5_sqrt", "g6_sqrt")


def _phi_integrand(kind: str, ct: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """The ``kind`` azimuthal integrand; ct = cos t broadcasts against phis."""
    cp2 = np.cos(phis) ** 2
    sp2 = np.sin(phis) ** 2
    # 1 - cos^2 p sin^2 t and 1 - sin^2 p sin^2 t as sums of squares, which
    # do not cancel near t = pi/2
    den_c = sp2 + cp2 * ct * ct
    den_s = cp2 + sp2 * ct * ct
    if kind == "g1_cos":
        return 0.5 * (cp2 * ct * ct + sp2) / den_c
    if kind == "g3_sin":
        return 0.5 * (sp2 * ct * ct + cp2) / den_s
    if kind == "g6_sqrt":
        return -0.5 * ct / np.sqrt(den_c * den_s)
    # the double angles, only for the kinds that read them
    c2p = np.cos(2.0 * phis)
    s2p2 = np.sin(2.0 * phis) ** 2
    if kind == "g2_cos":
        return 0.5 * (cp2 * c2p * ct * ct - c2p * sp2 + ct * s2p2) / den_c
    if kind == "g4_sin":
        return 0.5 * (sp2 * c2p * ct * ct - c2p * cp2 - ct * s2p2) / den_s
    if kind == "g5_sqrt":
        return 0.25 * (2.0 * c2p * c2p * ct + s2p2 + ct * ct * s2p2) / np.sqrt(den_c * den_s)
    raise DomainError(f"unknown profile kind {kind!r}")


# geometric_refinement(0, pi/2, s) keeps the points pi/2 - w of the gaps
# w = (pi/2) 4^-k, k = 1, 2, ..., for as long as w > s/4: so every node's
# quarter seeds are a prefix of one sequence, set by their count
_QUARTER_GAPS = (math.pi / 2) * 0.25 ** np.arange(1, _REFINE_MAX_POINTS + 1)


@functools.lru_cache(maxsize=None)
def _quarter_seeds(count: int) -> tuple[float, ...]:
    # near t = pi/2 the denominators develop narrow layers of width |cos t|
    # at the axes; ``count`` geometric breakpoints toward each axis seed them
    stack = [math.pi / 2 - w for w in _QUARTER_GAPS[:count].tolist()]
    return tuple(stack + [math.pi / 2 - b for b in stack])


def _located(where: str, cfg: QuadratureConfig, estimate: float, error_bound: float,
             problem: int | None = None) -> ConvergenceError:
    return ConvergenceError(f"{where} did not converge within {cfg.max_subdivisions} subdivisions",
                            estimate=estimate, error_bound=error_bound, problem=problem)


def _azimuthal_profiles(kinds, thetas, cfg: QuadratureConfig) -> np.ndarray:
    """The profile of kind ``kinds[i]`` at polar angle ``thetas[i]``, for
    every i: one batched worklist of independent adaptive integrals.

    ``kinds`` holds indices into PROFILE_KINDS, or is one kind's name for
    every angle.  The problems run kind-major, so each kind's angles are one
    slice of every round's abscissae.  Every integrand is symmetric under
    phi -> -phi and phi -> pi - phi, so each integral runs over [0, pi/2)
    and is multiplied by 4.  A ConvergenceError names the kind and angle of
    the lowest (kind, angle) problem that fails in the earliest round that
    any fails, and carries that angle's index.
    """
    if isinstance(kinds, str):
        if kinds not in PROFILE_KINDS:
            raise DomainError(f"unknown profile kind {kinds!r}")
        kinds = [PROFILE_KINDS.index(kinds)] * len(thetas)
    order = np.argsort(kinds, kind="stable")
    kinds, thetas = np.asarray(kinds)[order], np.asarray(thetas, dtype=float)[order]
    # libm's cos t; numpy's vectorized one can differ in the last bit
    ct = np.array([math.cos(t) for t in thetas.tolist()])
    counts = np.count_nonzero(_QUARTER_GAPS > 0.25 * np.abs(ct)[:, None], axis=1)
    firsts = np.searchsorted(kinds, np.arange(len(PROFILE_KINDS) + 1))

    def integrand(phis: np.ndarray, i: np.ndarray) -> np.ndarray:
        out = np.empty_like(phis)
        ends = np.searchsorted(i, firsts)
        for k, kind in enumerate(PROFILE_KINDS):
            if ends[k] < ends[k + 1]:
                mine = slice(ends[k], ends[k + 1])
                out[mine] = _phi_integrand(kind, ct[i[mine]], phis[mine])
        return out

    try:
        vals, _ = integrate_batch(integrand, [0.0] * len(ct), [math.pi / 2] * len(ct), cfg,
                                  [_quarter_seeds(c) for c in counts.tolist()])
    except ConvergenceError as exc:
        kind, theta = PROFILE_KINDS[kinds[exc.problem]], float(thetas[exc.problem])
        raise _located(f"{kind} azimuthal profile at theta={theta!r}", cfg,
                       4.0 * exc.estimate, 4.0 * exc.error_bound, int(order[exc.problem])) from exc
    out = np.empty_like(vals)
    out[order] = 4.0 * vals
    return out


def phi_profile(kind: str, theta: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Azimuthal integral of one g-kernel over [0, 2*pi) by adaptive quadrature.

    The one-node call of the oracle's batched profiles: [0, pi/2] is
    integrated and the result multiplied by 4.
    """
    return float(_azimuthal_profiles(kind, [theta], cfg)[0])


def phi_profile_closed(kind: str, theta: float | np.ndarray) -> float | np.ndarray:
    """Closed form of :func:`phi_profile` via complete elliptic integrals.

    With u = sin^2 t, c = cos t and parameter m = (u/(2-u))^2:

        g1, g3:  pi                                (the integrands are 1/2)
        g2:      4 pi c/(1+c)^2 for c > 0, else 0
        g4:      the negative of g2's profile
        g5:      (2/(2-u)) [2 c D(m) + (1+c^2)(K(m) - D(m))]
        g6:      -4 c K(m)/(2-u)

    where D(m) = (K-E)/m is evaluated cancellation-free and 1 - m =
    4 c^2/(1+c^2)^2 is passed exactly.  Logarithmically divergent (integrably)
    at t = pi/2 for g5 and g6.  Works elementwise on arrays of angles.
    """
    g2, g5, g6 = _closed_rows(theta)
    flat = math.pi + 0.0 * g2
    profiles = {"g1_cos": flat, "g2_cos": g2, "g3_sin": flat, "g4_sin": -g2,
                "g5_sqrt": g5, "g6_sqrt": g6}
    if kind not in profiles:
        raise DomainError(f"unknown profile kind {kind!r}")
    return profiles[kind]


def _closed_rows(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The g2, g5 and g6 closed profiles that the eigenvalues read; one AGM."""
    c = np.cos(theta)
    u = np.sin(theta) ** 2
    c_pos = np.maximum(c, 0.0)
    K, _E, D = _agm_ked((u / (2.0 - u)) ** 2, 4.0 * c * c / (1.0 + c * c) ** 2)
    return (4.0 * math.pi * c_pos / (1.0 + c_pos) ** 2,
            (2.0 / (2.0 - u)) * (2.0 * c * D + (1.0 + c * c) * (K - D)),
            -4.0 * c * K / (2.0 - u))


def _polar_integrals(frames: list[PacketFrame], cfg: QuadratureConfig, kinds: tuple,
                     integrand, seeds, entry) -> list:
    """Kernel-weighted polar integrals of every frame and kind, in one worklist.

    Problem ``p * len(kinds) + k`` is frame p's kind k over [0, theta_c),
    seeded by ``seeds(frame)``, with its own partition, heap and budget.
    ``integrand(ts, idx, kv)`` gets every problem's nodes, each node's
    problem index and s K there; a kind is a name, or its rows' names.  s is
    the frame's :func:`norm_scale`, a power of two near 2 pi / N, so
    ``cfg.abs_tol`` applies to N-scaled integrals; it is divided out after,
    exactly.  Each frame gets the bits it gets alone; a one-frame call reads
    :func:`kernel_values` and skips the per-node gather.  Returns, per
    frame, ``entry(*integrals)`` of its unscaled integrals, from one pass.

    A frame whose polar integral does not converge gets, as its entry, the
    ConvergenceError of its first kind to fail; it names the frame and the
    kind, or the row furthest from its tolerance, and carries that row's
    unscaled estimate and bound as floats and the frame's index.  An error
    that the integrand raises (an azimuthal one, located already) ends the
    pass and propagates, after a polar failure of an earlier round.
    """
    n = len(kinds)
    scales = np.array([norm_scale(f.gamma) for f in frames])
    if len(frames) == 1:
        def weighted(ts: np.ndarray, idx: np.ndarray) -> np.ndarray:
            return integrand(ts, idx, scales[0] * kernel_values(ts, frames[0]))
    else:
        # each node's frame coefficients, gathered from one row per frame
        table = np.array([frame_coefficients(f) for f in frames]).T

        def weighted(ts: np.ndarray, idx: np.ndarray) -> np.ndarray:
            at = idx // n if n > 1 else idx
            return integrand(ts, idx, scales[at] * frames_kernel_values(ts, *table[:, at]))

    def located(p: int, k: int, est, err) -> ConvergenceError:
        where = f"{kinds[k]} polar integral"
        if not isinstance(kinds[k], str):
            row = int(np.argmax(err / np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(est))))
            est, err, where = est[row], err[row], f"{kinds[k][row]} row of the polar integral"
        return _located(f"{where} at {frames[p]!r}", cfg, float(est / scales[p]),
                        float(err / scales[p]), p)

    try:
        outcomes = integrate_batch(weighted, [0.0] * (n * len(frames)),
                                   [theta_c(f.zeta) for f in frames for _ in kinds], cfg,
                                   [bps for f in frames for bps in [seeds(f)] * n], outcomes=True)
    except ConvergenceError as exc:
        if exc.__cause__ is not None:   # the polar worklist's own error has none
            raise
        raise located(*divmod(exc.problem, n), exc.estimate, exc.error_bound) from exc
    vals = np.array([o[0] for o in outcomes]).reshape(len(frames), -1) / scales[:, None]
    out = [entry(*row) for row in vals.tolist()]
    for p in {q // n for q, o in enumerate(outcomes) if not o[2]}:
        k = _first_failure(outcomes[p * n:(p + 1) * n])
        out[p] = located(p, k, *outcomes[p * n + k][:2])
    return out


def _oracle_integrals(frames: list[PacketFrame], cfg: QuadratureConfig) -> list:
    """Polar integrals of K times the adaptive profile of every kind, and of
    K alone (the quadrature N), for every frame: seven problems per frame
    of :func:`_polar_integrals`, seeded by :func:`theta_breakpoints`.

    Each polar round runs one batched azimuthal worklist on every live
    (node, kind) pair (:func:`_azimuthal_profiles`), so each problem gets
    the bits it gets alone, and N those of ``normalization(frame,
    "quadrature", cfg)``.  An azimuthal ConvergenceError is that of the
    lowest (kind, node) problem to fail in the earliest azimuthal round
    that any fails, among the nodes of its block of the polar round, and
    carries the index of its node's frame; it is raised, not an entry.
    """
    kinds = (*PROFILE_KINDS, "N")

    def outer(ts: np.ndarray, idx: np.ndarray, kv: np.ndarray) -> np.ndarray:
        at, node_kinds = np.divmod(idx, len(kinds))
        vals = kv.copy()                # the N problems' integrand, and 0 where K is
        mine = (node_kinds < len(PROFILE_KINDS)) & (kv > 0.0)
        try:
            vals[mine] *= _azimuthal_profiles(node_kinds[mine], ts[mine], cfg)
        except ConvergenceError as exc:
            exc.problem = int(at[mine][exc.problem])        # the node's frame
            raise
        return vals

    return _polar_integrals(
        frames, cfg, kinds, outer, theta_breakpoints,
        lambda *row: dict(zip(PROFILE_KINDS, row), norm=2.0 * math.pi * row[-1]))


def _closed_seeds(frame: PacketFrame) -> list[float]:
    """The fast path's polar seeds: :func:`theta_breakpoints` and, on receding
    frames, geometric stacks toward pi/2 from both sides.

    The g5 and g6 profiles are log-singular at t = pi/2; without the stacks
    the adaptive rule spends most of a receding frame's bisections closing
    in on it.
    """
    seeds = theta_breakpoints(frame)
    tc = theta_c(frame.zeta)
    if tc > math.pi / 2:
        w = min(math.pi / 2, tc - math.pi / 2)
        gaps = [w - p for p in geometric_refinement(0.0, w, 1e-6)]
        seeds += [math.pi / 2 - g for g in gaps] + [math.pi / 2 + g for g in gaps]
    return seeds


def _closed_integrals(frames: list[PacketFrame], cfg: QuadratureConfig) -> list:
    """The fast path's frame integrals: one rows problem K (g2, g5, g6, 1)
    per frame of :func:`_polar_integrals`, seeded by :func:`_closed_seeds`,
    with the closed profiles' AGM on the whole array of nodes.
    """
    return _polar_integrals(
        frames, cfg, (("g2_cos", "g5_sqrt", "g6_sqrt", "N"),),
        lambda ts, idx, kv: kv * np.array([*_closed_rows(ts), np.ones_like(ts)]), _closed_seeds,
        lambda g2, g5, g6, n_val: {"g2_cos": g2, "g5_sqrt": g5, "g6_sqrt": g6,
                                   "norm": 2.0 * math.pi * n_val})


def _cutoff_error(frame: PacketFrame) -> RangeError | None:
    """The error of a frame whose cutoff angle rounds to 0 (zeta <= -19.25),
    whose polar range is empty; None for every other frame."""
    if theta_c(frame.zeta) > 0.0:
        return None
    return RangeError(f"cutoff angle of {frame!r} rounds to 0, far outside the validated "
                      "domain |zeta| <= 10")


def _integrals(method: str):
    """The function ``(frames, cfg) -> list[dict]`` of ``method``, looked up when called."""
    if method == "closed_profile":
        return _closed_integrals
    if method == "quadrature":
        return _oracle_integrals
    raise DomainError(f"unknown lambda method {method!r}")


@functools.lru_cache(maxsize=512)
def _frame_integrals(gamma: float, zeta: float, cfg: QuadratureConfig, method: str) -> dict:
    """Kernel-weighted angular integrals of the profiles, plus N: the cached
    one-frame call of :func:`_closed_integrals` or :func:`_oracle_integrals`.

    The fast path's N comes from the same vector-valued pass as the
    numerators, so their quadrature errors correlate.  The oracle's entry
    holds all six kinds, for every oracle reader.
    """
    integrals = _integrals(method)
    frame = PacketFrame(gamma, zeta)
    ints = _cutoff_error(frame) or integrals([frame], cfg)[0]
    if isinstance(ints, BoostcapError):
        raise ints
    return ints


def _pauli_lambda(frame: PacketFrame, ints: dict) -> PauliLambda:
    n = ints["norm"]
    raw = (2.0 * ints["g5_sqrt"] / n,
           -2.0 * ints["g6_sqrt"] / n,
           2.0 * ints["g2_cos"] / n)
    clipped = tuple(min(1.0, max(-1.0, v)) for v in raw)
    if max(abs(r - c) for r, c in zip(raw, clipped)) > _SIMPLEX_TOL:
        raise IntegrityError(f"channel eigenvalues outside [-1,1]: {raw!r}")
    try:
        return PauliLambda(*clipped)
    except NotAChannelError as exc:
        raise IntegrityError(f"complete positivity violated at {frame!r}: {exc}") from exc


def lambda_numeric(frame: PacketFrame, cfg: QuadratureConfig = DEFAULT_CONFIG,
                   method: str = "quadrature") -> PauliLambda:
    """Channel eigenvalues by angular integration.

    ``method="quadrature"`` is the baseline (azimuthal integrals by adaptive
    quadrature at every polar node); ``method="closed_profile"`` replaces
    the azimuthal integrals with their elliptic closed forms and is used by
    sweeps and solvers.  On both, ``cfg.abs_tol`` applies to N-scaled polar
    integrals (see :func:`_polar_integrals`).  Validated domain: Gamma from
    1e-3 to 1e4 and |zeta| <= 10, where the fast path converges at the
    default and sweep configs; a frame whose cutoff angle rounds to 0 (zeta
    <= -19.25) raises RangeError before any quadrature.  Eigenvalue
    excursions past [-1, 1] or outside the probability simplex beyond 1e-9
    raise IntegrityError; smaller ones are clamped (quadrature noise).
    """
    return _pauli_lambda(frame, _frame_integrals(frame.gamma, frame.zeta, cfg, method))


def lambda_batch(frames: list[PacketFrame], cfg: QuadratureConfig,
                 method: str = "closed_profile") -> list[PauliLambda | BoostcapError]:
    """Eigenvalues of many frames from one batched worklist of the method.

    Each frame's entry is bit-identical to ``lambda_numeric(frame, cfg,
    method)``, or is the error that belongs to that frame, from one pass: a
    polar integral that did not converge, eigenvalues that fail the channel
    checks, or a cutoff angle that rounds to 0, found before any quadrature,
    as is an unknown method's DomainError.  A ConvergenceError that the
    pass raises (from inside the oracle's integrand, an azimuthal one)
    becomes its frame's entry, and the batch runs again without that frame;
    any other error propagates.
    """
    integrals = _integrals(method)
    out: list = [_cutoff_error(frame) for frame in frames]
    live = [k for k, exc in enumerate(out) if exc is None]
    while live:
        try:
            ints = integrals([frames[k] for k in live], cfg)
        except ConvergenceError as exc:
            k = live.pop(exc.problem)
            exc.problem = k             # its index in ``frames``, not in this pass
            out[k] = exc
            continue
        for k, frame_ints in zip(live, ints):
            if isinstance(frame_ints, ConvergenceError):
                frame_ints.problem = k
                out[k] = frame_ints
                continue
            try:
                out[k] = _pauli_lambda(frames[k], frame_ints)
            except IntegrityError as exc:
                out[k] = exc
        break
    return out


def identity_residuals(frame: PacketFrame,
                       cfg: QuadratureConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """|LHS - RHS| of the two diagonal-consistency identities.

    The first identity's integrands are pointwise equal (each reduces to
    1/2); the second pair agrees only after a quarter-turn shift of the
    azimuth.  Both read the oracle's cached frame integrals, the numbers
    :func:`rho_direct` assembles, so the identities are checked on the
    integrals whose trace they guarantee.  At a frame that is not cached
    this runs the whole oracle, N included.
    """
    ints = _frame_integrals(frame.gamma, frame.zeta, cfg, "quadrature")
    return (abs(ints["g1_cos"] - ints["g3_sin"]),
            abs(ints["g2_cos"] + ints["g4_sin"]))


def apply_pauli(lam: PauliLambda, state: QubitState) -> np.ndarray:
    """Closed-form channel output for a pure input state."""
    cs = math.cos(state.chi) * math.sin(state.xi)
    ss = math.sin(state.chi) * math.sin(state.xi)
    cx = math.cos(state.xi)
    return 0.5 * np.array([
        [1.0 + lam.l3 * cs, lam.l1 * ss - 1j * lam.l2 * cx],
        [lam.l1 * ss + 1j * lam.l2 * cx, 1.0 - lam.l3 * cs],
    ])


def apply_pauli_matrix(lam: PauliLambda, rho: np.ndarray) -> np.ndarray:
    """Channel action sum_i p_i tau_i rho tau_i on an arbitrary 2x2 matrix."""
    p = lambda_probs(lam).as_tuple()
    rho = np.asarray(rho, dtype=complex)
    return sum(p[i] * (PAULI[i] @ rho @ PAULI[i]) for i in range(4))


def state_density(state: QubitState) -> np.ndarray:
    """Input density matrix in the channel's (chi, xi) parametrization.

    The channel acts diagonally on a pure state with Bloch vector
    (sin chi sin xi, cos xi, cos chi sin xi); this is the matrix the closed
    form reproduces at unit eigenvalues.  (The mapping from logical qubit
    amplitudes to this helicity-frame vector is part of the packet
    preparation, not of the channel.)
    """
    cs = math.cos(state.chi) * math.sin(state.xi)
    ss = math.sin(state.chi) * math.sin(state.xi)
    cx = math.cos(state.xi)
    return 0.5 * (PAULI[0] + ss * PAULI[1] + cx * PAULI[2] + cs * PAULI[3])


def rho_direct(state: QubitState, frame: PacketFrame,
               cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Output density matrix by direct integration of its three components.

    The state enters each component integrand linearly through cos(chi)
    sin(xi), sin(chi) sin(xi) and cos(xi), so the kernel-weighted profile
    integrals are evaluated once per frame and combined per state; this is
    the same integral, split by linearity.  Hermitian by construction; the
    trace equals 1 only by virtue of the diagonal-consistency identities,
    making it a genuine check rather than an enforced normalization.
    """
    ints = _frame_integrals(frame.gamma, frame.zeta, cfg, "quadrature")
    n = ints["norm"]
    cs = math.cos(state.chi) * math.sin(state.xi)
    ss = math.sin(state.chi) * math.sin(state.xi)
    cx = math.cos(state.xi)
    r00 = (ints["g1_cos"] + cs * ints["g2_cos"]) / n
    r11 = (ints["g3_sin"] + cs * ints["g4_sin"]) / n
    r01 = (ss * ints["g5_sqrt"] + 1j * cx * ints["g6_sqrt"]) / n
    return np.array([[r00, r01], [np.conj(r01), r11]])


def lambda3_bracket(p: float) -> float:
    """Antiderivative bracket of the closed-form l3 at rest, before the constant.

    (4*pi/3) [ 2 p^2 2F2(1,1;5/2,3;p)
               + 3 ( -pi (2p-1) erfi(sqrt p) + 2 sqrt(pi p) e^p
                     - log p + 2 p (euler_gamma - 3 + log 4p) ) ]

    The erfi term is the real rewriting of an error function of imaginary
    argument.  As p grows the bracket tends to -LAMBDA3_CONSTANT; the
    exponentially large pieces cancel, which is what limits the validated
    range in double precision.
    """
    if not (math.isfinite(p) and p > 0):
        raise DomainError(f"bracket requires p > 0, got {p!r}")
    sq = math.sqrt(p)
    tail = (-math.pi * (2.0 * p - 1.0) * erfi(sq)
            + 2.0 * math.sqrt(math.pi * p) * math.exp(p)
            - math.log(p) + 2.0 * p * (EULER_GAMMA - 3.0 + math.log(4.0 * p)))
    return (4.0 * math.pi / 3.0) * (2.0 * p * p * hyp2f2_11_52_3(p) + 3.0 * tail)


def lambda3_closed(gamma: float) -> float:
    """Closed-form l3 of the rest-frame channel (zeta = 0).

    l3 = (bracket(p) + LAMBDA3_CONSTANT) / N with p = 1/Gamma^2 and
    N = pi^{3/2} Gamma erfcx(1/Gamma).  Validated for gamma >= 0.2; smaller
    spreads push p past the double-precision cancellation budget and raise
    RangeError (callers fall back to the quadrature path).
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise DomainError(f"packet spread must be positive, got {gamma!r}")
    if gamma < LAMBDA3_MIN_GAMMA:
        raise RangeError(
            f"closed-form l3 validated for gamma >= {LAMBDA3_MIN_GAMMA}, got {gamma!r}")
    p = 1.0 / (gamma * gamma)
    n = math.pi ** 1.5 * gamma * erf_family(1.0 / gamma).erfcx
    return (lambda3_bracket(p) + LAMBDA3_CONSTANT) / n


def _q_polynomials(s: float) -> tuple[float, float, float, float]:
    r = math.sqrt(1.0 + s)
    s2 = s * s
    q1 = -2.0 * r / s2 + 2.0 / (s2 * (1.0 + s)) + 3.0 / (s * (1.0 + s)) + 1.0 / (1.0 + s)
    q2 = (2.0 / (s2 * r) - 2.0 / (s2 * (1.0 + s)) + 2.0 / (s * r) + 0.5 / r
          - 3.0 / (s * (1.0 + s)) - 1.0 / (1.0 + s))
    q3 = -2.0 / s2 + 2.0 / (s2 * r) - 1.0 / s + 2.0 / (s * r) + 0.5 / r
    q4 = 2.0 / s2 - 2.0 / (s2 * r) + 1.0 / s - 2.0 / (s * r)
    return q1, q2, q3, q4


def _kappa_integrand_q(s: float) -> float:
    """Rational-coefficient elliptic combination; 1/s^2 poles cancel pairwise."""
    q1, q2, q3, q4 = _q_polynomials(s)
    km, em, _ = _elliptic_ked(-s * s / (4.0 * (1.0 + s)))
    kp, ep, _ = _elliptic_ked((s / (2.0 + s)) ** 2)
    return q1 * em + q2 * km + q3 * ep + q4 * kp


def _kappa_integrand(s: float | np.ndarray) -> float | np.ndarray:
    """Pole-free regrouping: 2 K/(1+r)^2 + (2+s) E/(r (1+r)^2), r = sqrt(1+s)."""
    r = np.sqrt(1.0 + s)
    K, E, _ = _agm_ked((s / (2.0 + s)) ** 2, 4.0 * (1.0 + s) / (2.0 + s) ** 2)
    return 2.0 * K / (1.0 + r) ** 2 + (2.0 + s) * E / (r * (1.0 + r) ** 2)


def _iota_integrand(s: float | np.ndarray) -> float | np.ndarray:
    """2 K((s/(2+s))^2)/(2+s), equivalently K(-s^2/(4(1+s)))/sqrt(1+s)."""
    K, _, _ = _agm_ked((s / (2.0 + s)) ** 2, 4.0 * (1.0 + s) / (2.0 + s) ** 2)
    return 2.0 * K / (2.0 + s)


_Q_CHECKPOINTS = (0.08, 0.4, 2.0)


def _check_pole_cancellation() -> None:
    for s in _Q_CHECKPOINTS:
        a, b = _kappa_integrand_q(s), _kappa_integrand(s)
        if abs(a - b) > 1e-9 * abs(b):
            raise IntegrityError(
                f"pole cancellation failure in the elliptic moment integrand at s={s}: "
                f"{a!r} vs {b!r}")


def series_coeffs(kind: str, n: int, L: float,
                  cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Truncated moment coefficients of the large-spread expansion of l1 (kappa) and l2 (iota).

    coefficient_n = ((-1)^n / n!) * int_0^L s^n * integrand(s) ds.  They are
    independent of the packet spread.  The integrands decay only slowly
    (kappa like s^{-1/2}, iota like log(s)/s), so these truncated moments
    grow like L^{n+1/2} and have no L -> inf limit; :func:`lambda12_series`
    adds the finite part of the large-s expansion over [L, inf) to make them
    independent of L.
    """
    if kind not in ("kappa", "iota"):
        raise DomainError(f"series kind must be 'kappa' or 'iota', got {kind!r}")
    if as_count(n, "moment order") < 0:
        raise DomainError(f"moment order must be a non-negative integer, got {n!r}")
    if not (math.isfinite(L) and L > 0):
        raise DomainError(f"truncation length must be positive, got {L!r}")
    if kind == "kappa":
        _check_pole_cancellation()
        base = _kappa_integrand
    else:
        base = _iota_integrand

    val, _ = integrate(lambda ss: ss ** n * base(ss), 0.0, L, cfg,
                       breakpoints=[min(1.0, 0.5 * L)])
    return ((-1.0) ** n / math.factorial(n)) * val


# Large-s expansion of the moment integrands in u = (1+s)^{-1/2} and log(1+s).
# Its coefficients grow only linearly in j, so at the smallest admissible
# matching point (u^2 = 1/5) order 64 leaves a remainder far below rounding.
_LARGE_S_ORDER = 64
SERIES_MIN_MATCH = 4.0
SERIES_MATCH_POINT = 10.0
_EXPANSION_CHECKPOINTS = (SERIES_MIN_MATCH, 12.0, 60.0)


@functools.cache
def _large_s_expansion() -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Coefficients with integrand(s) = sum_j u^j (alpha_j + beta_j log t), t = 1 + s.

    Here u = t^{-1/2}.  Both integrands are elliptic integrals of parameter
    m = (s/(2+s))^2 = ((1-u^2)/(1+u^2))^2, the descending Landen image of
    the parameter 1 - u^4 (DLMF 19.8(ii)):

        K(m) = (1+u^2)/2 K(1-u^4),  E(m) = [E(1-u^4) + u^2 K(1-u^4)]/(1+u^2)

    so, from the pole-free form of kappa (r = 1/u) and iota = 2 K(m)/(2+s),

        kappa = [u^2 (1+u+u^2) K(1-u^4) + u E(1-u^4)] / (1+u)^2
        iota  = u^2 K(1-u^4)

    The complementary modulus of 1 - u^4 is u^2 = 1/t, and near m = 1
    (DLMF 19.12.1-2)

        K = sum_k a_k u^(4k) (log t + d_k)
        E = 1 + sum_k e_k u^(4k+4) (log t + d_k - 1/((2k+1)(2k+2)))

    where a_k = ((1/2)_k/k!)^2, e_k = (1/2)_k (3/2)_k / (2 (2)_k k!) and
    d_k = psi(k+1) - psi(k+1/2) = 2 log 2 + sum_{i<=k} (1/i - 2/(2i-1)).
    The series converge for u < 1, i.e. every s > 0.  Validated at runtime
    by :func:`_check_large_s_expansion`.
    """
    order = _LARGE_S_ORDER
    k_alpha, k_beta = np.zeros(order + 1), np.zeros(order + 1)
    e_alpha, e_beta = np.zeros(order + 1), np.zeros(order + 1)
    e_alpha[0] = 1.0
    a_k, e_k, d_k = 1.0, 0.5, 2.0 * math.log(2.0)
    for j in range(0, order + 1, 4):
        k = j // 4
        k_alpha[j], k_beta[j] = a_k * d_k, a_k
        if j + 4 <= order:
            e_alpha[j + 4] = e_k * (d_k - 1.0 / ((2 * k + 1) * (2 * k + 2)))
            e_beta[j + 4] = e_k
        a_k *= ((k + 0.5) / (k + 1)) ** 2
        e_k *= (k + 0.5) * (k + 1.5) / ((k + 2) * (k + 1))
        d_k += 1.0 / (k + 1) - 2.0 / (2 * k + 1)

    def mul(a, b) -> np.ndarray:
        return np.convolve(a, b)[:order + 1]

    idx = np.arange(order + 1)
    inv_1pu_sq = (-1.0) ** idx * (idx + 1)                  # 1/(1+u)^2
    pre_k = mul([0.0, 0.0, 1.0, 1.0, 1.0], inv_1pu_sq)      # u^2 (1+u+u^2)/(1+u)^2
    pre_e = mul([0.0, 1.0], inv_1pu_sq)                     # u/(1+u)^2
    u2 = [0.0, 0.0, 1.0]
    out = {
        "kappa": (mul(pre_k, k_alpha) + mul(pre_e, e_alpha),
                  mul(pre_k, k_beta) + mul(pre_e, e_beta)),
        "iota": (mul(u2, k_alpha), mul(u2, k_beta)),
    }
    for arrays in out.values():
        for a in arrays:
            a.setflags(write=False)     # shared by every caller of the cache
    return out


def _check_large_s_expansion() -> None:
    expansion = _large_s_expansion()
    exponents = -0.5 * np.arange(_LARGE_S_ORDER + 1)
    for s in _EXPANSION_CHECKPOINTS:
        t = 1.0 + s
        for kind, base in (("kappa", _kappa_integrand), ("iota", _iota_integrand)):
            alpha, beta = expansion[kind]
            approx = float(np.dot(alpha + beta * math.log(t), t ** exponents))
            exact = base(s)
            if abs(approx - exact) > 1e-12 * abs(exact):
                raise IntegrityError(
                    f"large-s expansion of the {kind} integrand fails at s={s}: "
                    f"{approx!r} vs {exact!r}")


def _laplace_finite_part(alpha: np.ndarray, beta: np.ndarray, p: float) -> float:
    """Non-analytic part: e^p * FP int_0^inf e^{-pt} sum_j t^{-j/2} (alpha_j + beta_j log t) dt.

    The e^p comes from t = 1 + s.  With z = 1 - j/2, a half-integer z gives
    Gamma(z) p^{-z} (alpha + beta (psi(z) - log p)).  At z = -n (j = 2n + 2)
    Gamma has a pole; the Hadamard finite part is the constant (alpha) and
    linear (beta) Laurent coefficient of Gamma(z) p^{-z} there:

        ((-p)^n / n!) [alpha (psi - log p) + beta (c - psi log p + log^2(p)/2)]

    with psi = psi(n+1) and c = (pi^2/3 + psi^2 - psi'(n+1))/2.
    """
    log_p = math.log(p)
    terms = []
    gamma_z, psi_z = math.sqrt(math.pi), -EULER_GAMMA - 2.0 * math.log(2.0)  # z = 1/2
    psi_n, trigamma_n = -EULER_GAMMA, math.pi ** 2 / 6.0                     # at n + 1 = 1
    for j in range(1, len(alpha)):
        if j % 2:
            z = 1.0 - 0.5 * j
            terms.append(gamma_z * p ** (-z)
                         * (alpha[j] + beta[j] * (psi_z - log_p)))
            gamma_z /= z - 1.0
            psi_z -= 1.0 / (z - 1.0)
        else:
            n = j // 2 - 1
            c = 0.5 * (math.pi ** 2 / 3.0 + psi_n * psi_n - trigamma_n)
            terms.append(((-p) ** n / math.factorial(n))
                         * (alpha[j] * (psi_n - log_p)
                            + beta[j] * (c - psi_n * log_p + 0.5 * log_p * log_p)))
            psi_n += 1.0 / (n + 1)
            trigamma_n -= 1.0 / (n + 1) ** 2
    return math.exp(p) * math.fsum(terms)


def _tail_finite_part(alpha: np.ndarray, beta: np.ndarray, n: int, L: float) -> float:
    """FP int_L^inf s^n sum_j t^{-j/2} (alpha_j + beta_j log t) ds, t = 1 + s.

    s^n = (t - 1)^n is expanded binomially and each t^w (log t)^{0,1} is
    integrated from T = 1 + L to its finite part at infinity:
    -T^{w+1}/(w+1) and -T^{w+1} (log T/(w+1) - 1/(w+1)^2), or -log T and
    -log^2(T)/2 at w = -1.  This is the same regularization that
    :func:`_laplace_finite_part` applies at t = 0.
    """
    j = np.arange(1, len(alpha))
    a, b = alpha[1:], beta[1:]
    big_t = 1.0 + L
    log_t = math.log(big_t)
    terms = []
    for i in range(n + 1):
        w1 = i + 1.0 - 0.5 * j
        pole = w1 == 0.0
        w1[pole] = 1.0                  # placeholder; pole terms are set below
        power = big_t ** w1
        f0 = -power / w1
        f1 = -power * (log_t - 1.0 / w1) / w1
        f0[pole] = -log_t
        f1[pole] = -0.5 * log_t * log_t
        terms.extend(math.comb(n, i) * (-1.0) ** (n - i) * (a * f0 + b * f1))
    return math.fsum(terms)


@functools.lru_cache(maxsize=256)
def _finite_part_coeff(kind: str, n: int, L: float, cfg: QuadratureConfig) -> float:
    """((-1)^n/n!) times the finite-part moment FP int_0^inf s^n integrand(s) ds.

    The quadrature moment over [0, L] plus the finite part of the large-s
    expansion over [L, inf); the sum does not depend on L.
    """
    alpha, beta = _large_s_expansion()[kind]
    tail = _tail_finite_part(alpha, beta, n, L)
    return series_coeffs(kind, n, L, cfg) + ((-1.0) ** n / math.factorial(n)) * tail


def lambda12_series(gamma: float, n_max: int, L: float | None = None,
                    cfg: QuadratureConfig = DEFAULT_CONFIG) -> tuple[float, float]:
    """Large-spread expansion of (l1, l2) at rest, truncated at order n_max.

    lam_i = (2/N) int_0^inf e^{-ps} f_i(s) ds with p = 1/Gamma^2 and f the
    kappa (l1) or iota (l2) integrand.  These decay only like s^{-1/2} and
    log(s)/s, so the small-p expansion is not a power series (Watson's lemma
    with Mellin-transform asymptotics; Bleistein & Handelsman, ch. 4).  It
    has two parts, matched at s = L:

    - non-analytic part: the convergent large-s expansion
      f = sum_j t^{-j/2} (alpha_j + beta_j log t), t = 1 + s, integrated
      against e^{-ps} in closed form.  Odd j gives Gamma-function terms in
      p^{j/2-1}; even j gives p^{j/2-1} times log p and log^2 p.  This part
      is exact at every order in p;
    - regular part: sum_{n<=n_max} p^n * coefficient_n, where the
      finite-part moment coefficient_n is :func:`series_coeffs` (the moment
      over [0, L]) plus ((-1)^n/n!) times the finite part of the expansion's
      moment over [L, inf).

    Only the regular part is truncated, so the error falls like
    p^{n_max+1}.  L is a matching point, not a truncation: the result does
    not depend on it beyond quadrature accuracy, which degrades slowly for
    large L because both pieces of a coefficient grow like L^{n+1/2}.  The
    default is SERIES_MATCH_POINT; L must be at least SERIES_MIN_MATCH so
    that the expansion converges fast there.  Validated regime: gamma >= 3.
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise DomainError(f"packet spread must be positive, got {gamma!r}")
    if gamma < SERIES_MIN_GAMMA:
        raise RangeError(
            f"series expansion validated for gamma >= {SERIES_MIN_GAMMA}, got {gamma!r}")
    if as_count(n_max, "n_max") < 0:
        raise DomainError(f"n_max must be non-negative, got {n_max!r}")
    if L is None:
        L = SERIES_MATCH_POINT
    if not (math.isfinite(L) and L >= SERIES_MIN_MATCH):
        raise DomainError(f"matching point must be >= {SERIES_MIN_MATCH}, got {L!r}")
    _check_large_s_expansion()
    p = 1.0 / (gamma * gamma)
    n_norm = math.pi ** 1.5 * gamma * erf_family(1.0 / gamma).erfcx
    out = []
    for kind in ("kappa", "iota"):
        alpha, beta = _large_s_expansion()[kind]
        terms = [_laplace_finite_part(alpha, beta, p)]
        terms += [p ** n * _finite_part_coeff(kind, n, float(L), cfg)
                  for n in range(n_max + 1)]
        out.append(2.0 * math.fsum(terms) / n_norm)
    return out[0], out[1]
