"""Boosted axially-symmetric wave packet: kernel, cutoff angle, normalization.

The squared envelope of the boosted packet, after the narrow longitudinal
spread is integrated out, depends on the polar angle through

    D(t)        = sinh(zeta) + cosh(zeta) cos(t)
    kernel K(t) = exp(-sin^2 t / (Gamma^2 D^2)) * sin(t) / D^2

supported on t in [0, theta_c) with theta_c = arccos(-tanh zeta), the
aberration cutoff separating forward- from backward-propagating components.
All exponentials are evaluated in log space: the t -> theta_c endpoint is an
exp(-inf) * inf form that must resolve to 0, never NaN.

Conventions: ``normalization`` is the plain double integral of the kernel
over [0, theta_c) x [0, 2*pi); every constant prefactor of the momentum
measure is dropped, since all channel quantities downstream are ratios of
such integrals.  Closed form (validated against quadrature to machine
precision and invariant under the boost): pi^{3/2} Gamma erfcx(1/Gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, is_finite
from .quadrature import (DEFAULT_CONFIG, QuadratureConfig, geometric_refinement,
                         integrate, integrate_semi_infinite)
from .special_functions import erf_family

_LOG_TINY = -745.0  # exp underflows to 0 below this


@dataclass(frozen=True)
class PacketFrame:
    """Dimensionless radial spread Gamma = sigma/k_p and boost rapidity.

    Any positive finite Gamma and finite zeta make a frame, but the channel
    is validated only for Gamma from 1e-3 to 1e4 and |zeta| <= 10, where
    the fast path converges at the default and sweep configs.  A frame with
    zeta <= -19.25, whose cutoff angle :func:`theta_c` rounds to 0, raises
    RangeError in the channel before any quadrature.
    """

    gamma: float
    zeta: float

    def __post_init__(self):
        if not (is_finite(self.gamma, "packet spread") and self.gamma > 0):
            raise DomainError(f"packet spread must be positive and finite, got {self.gamma!r}")
        if not is_finite(self.zeta, "rapidity"):
            raise DomainError(f"rapidity must be finite, got {self.zeta!r}")


def theta_c(zeta: float) -> float:
    """Aberration cutoff angle arccos(-tanh zeta); pi/2 at rest, increasing in zeta."""
    if not math.isfinite(zeta):
        raise DomainError(f"rapidity must be finite, got {zeta!r}")
    return math.acos(-math.tanh(zeta))


def d_values(thetas: np.ndarray, zeta: float) -> np.ndarray:
    """sinh(zeta) + cosh(zeta) cos(theta), evaluated as -2 cosh(zeta)
    sin((theta + theta_c)/2) sin((theta - theta_c)/2).

    The product subtracts nothing nearly equal but theta - theta_c, which
    is exact near the cutoff, so D keeps a relative accuracy of about
    eps / (pi - theta_c) up to the cutoff (2.4e-12 at zeta = 10); the sum of
    sinh(zeta) and cosh(zeta) cos(theta) keeps only ~eps * e^zeta absolute,
    which is no relative accuracy at all as D falls to 0.
    """
    return _d(np.asarray(thetas, dtype=float), theta_c(zeta), math.cosh(zeta))


def _d(t: np.ndarray, cutoff, cosh_zeta) -> np.ndarray:
    return -2.0 * cosh_zeta * np.sin(0.5 * (t + cutoff)) * np.sin(0.5 * (t - cutoff))


def frame_coefficients(frame: PacketFrame) -> tuple[float, float, float]:
    """(theta_c, cosh zeta, Gamma^2): the frame's scalars in the kernel.

    They come from libm, once per frame; numpy's vectorized functions can
    differ in the last bit, so kernels of many frames in one array are built
    from these.
    """
    return theta_c(frame.zeta), math.cosh(frame.zeta), frame.gamma * frame.gamma


def kernel_values(thetas: np.ndarray, frame: PacketFrame) -> np.ndarray:
    return frames_kernel_values(np.asarray(thetas, dtype=float), *frame_coefficients(frame))


def frames_kernel_values(t: np.ndarray, cutoff, cosh_zeta, gamma_sq) -> np.ndarray:
    """K at every angle of ``t``, assumed inside [0, theta_c), from
    :func:`frame_coefficients` given per angle (arrays, for the nodes of many
    frames at once) or shared (scalars); computed in log space."""
    st = np.sin(t)
    d = _d(t, cutoff, cosh_zeta)
    lk = np.full(t.shape, -np.inf)
    ok = (d > 0.0) & (st > 0.0)
    if isinstance(gamma_sq, np.ndarray):
        gamma_sq = gamma_sq[ok]
    lk[ok] = (-(st[ok] * st[ok]) / (gamma_sq * d[ok] * d[ok])
              + np.log(st[ok]) - 2.0 * np.log(d[ok]))
    out = np.zeros_like(lk)
    live = lk > _LOG_TINY
    out[live] = np.exp(lk[live])
    return out


def kernel(theta: float, frame: PacketFrame) -> float:
    """K(theta) for theta in [0, theta_c); 0 at both endpoints, never NaN/inf."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise DomainError(f"angle must be finite, got {theta!r}")
    tc = theta_c(frame.zeta)
    if not 0.0 <= theta < tc:
        raise DomainError(f"kernel defined on [0, {tc!r}), got {theta!r}")
    return float(kernel_values(np.array([theta]), frame)[0])


def theta_breakpoints(frame: PacketFrame) -> list[float]:
    """Initial partition of [0, theta_c) for the adaptive integrator.

    The kernel develops a layer of width ~Gamma e^zeta at 0 (narrow packets)
    and a spike of width ~1/(Gamma cosh zeta) below the cutoff (wide
    packets); geometric point stacks at both ends let the 7-15 pair find
    them regardless of the parameter regime.
    """
    tc = theta_c(frame.zeta)
    pts: set[float] = set()
    if tc > math.pi / 2:
        pts.add(math.pi / 2)
    scale_hi = min(tc, 1.0 / (frame.gamma * math.cosh(frame.zeta)))
    pts.update(geometric_refinement(0.0, tc, scale_hi))
    scale_lo = min(tc, frame.gamma * math.exp(frame.zeta))
    pts.update(tc - p for p in geometric_refinement(0.0, tc, scale_lo))
    return sorted(p for p in pts if 0.0 < p < tc)


def normalization(frame: PacketFrame, method: str = "quadrature",
                  cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Double integral of the kernel over [0, theta_c) x [0, 2*pi).

    The value is independent of the boost at fixed Gamma.  The closed form
    pi^{3/2} Gamma erfcx(1/Gamma) uses the scaled complementary error
    function so narrow packets (Gamma -> 0) do not underflow.  The
    quadrature integrates the kernel times :func:`norm_scale`, as both
    channel methods do, so ``cfg.abs_tol`` applies to this N-scaled
    integral, and divides the scale out exactly.
    """
    if method == "closed_form":
        g = frame.gamma
        return math.pi ** 1.5 * g * erf_family(1.0 / g).erfcx
    if method != "quadrature":
        raise DomainError(f"unknown normalization method {method!r}")
    s = norm_scale(frame.gamma)
    val, _ = integrate(lambda t: s * kernel_values(t, frame), 0.0, theta_c(frame.zeta), cfg,
                       breakpoints=theta_breakpoints(frame))
    return 2.0 * math.pi * (val / s)


def norm_scale(gamma: float) -> float:
    """A power of two within a factor 2 of 2*pi / N, from libm alone.

    With x = 1/Gamma, 2*pi / N = 2 x / (sqrt(pi) erfcx(x)).  erfcx(x) is
    exp(x^2) erfc(x), or its leading asymptotic term 1/(sqrt(pi) x) once
    x >= 25, before erfc underflows; either is far closer than the rounding
    to a power of two needs.  Multiplying by a power of two and dividing by
    it again is exact, so an integrand scaled by it integrates to the
    scaled bits of the unscaled integral.
    """
    x = 1.0 / gamma
    erfcx = math.exp(x * x) * math.erfc(x) if x < 25.0 else 1.0 / (math.sqrt(math.pi) * x)
    return math.ldexp(1.0, round(math.log2(2.0 * x / (math.sqrt(math.pi) * erfcx))))


def rest_frame_trace(gamma: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Unnormalized output-state trace at rest, as a radial-variable integral.

    Integrates exp(-s/Gamma^2)/(2 sqrt(1+s)) over s in [0, inf) via the
    s = tan^2 t substitution.  Up to the azimuthal factor, this is an
    independent route to the packet normalization:
    2*pi * rest_frame_trace(Gamma) == normalization(zeta=0, Gamma).
    """
    if not (math.isfinite(gamma) and gamma > 0):
        raise DomainError(f"packet spread must be positive and finite, got {gamma!r}")
    g2 = gamma * gamma

    def g(s: np.ndarray) -> np.ndarray:
        return np.exp(-s / g2) / (2.0 * np.sqrt(1.0 + s))

    val, _ = integrate_semi_infinite(g, cfg, breakpoints=[g2, 4 * g2, 16 * g2])
    return val


def log_envelope_sq(theta: float, frame: PacketFrame) -> float:
    """log of the normalized squared envelope at polar angle theta.

    The envelope normalizer is half the kernel normalization (the azimuthal
    2*pi and the measure's 1/2 folded together under the dropped-constant
    convention).
    """
    theta = float(theta)
    tc = theta_c(frame.zeta)
    if not (math.isfinite(theta) and 0.0 <= theta < tc):
        raise DomainError(f"envelope defined on [0, {tc!r}), got {theta!r}")
    d = float(d_values(np.array([theta]), frame.zeta)[0])
    if d <= 0.0:
        return -math.inf
    n_env = 0.5 * normalization(frame, "closed_form")
    st = math.sin(theta)
    return -(st * st) / (frame.gamma ** 2 * d * d) - math.log(d) - math.log(n_env)


def envelope_sq(theta: float, frame: PacketFrame) -> float:
    lv = log_envelope_sq(theta, frame)
    return 0.0 if lv < _LOG_TINY else math.exp(lv)
