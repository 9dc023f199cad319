import math

import mpmath
import numpy as np
import pytest

from boostcap.errors import DomainError
from boostcap.wavepacket import (PacketFrame, envelope_sq, kernel,
                                 log_envelope_sq, norm_scale, normalization,
                                 rest_frame_trace, theta_c)


def kernel_direct(theta: float, zeta: float, gamma: float) -> float:
    """Naive formula evaluation, valid away from the cutoff (test oracle)."""
    d = math.sinh(zeta) + math.cosh(zeta) * math.cos(theta)
    return (math.exp(-math.sin(theta) ** 2 / (gamma * gamma * d * d))
            * math.sin(theta) / (d * d))


class TestThetaC:
    def test_rest(self):
        assert theta_c(0.0) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_exact_trig_value(self):
        assert theta_c(math.atanh(0.5)) == pytest.approx(2 * math.pi / 3, rel=1e-14)

    def test_strong_receding_limit(self):
        # frozen from direct evaluation
        assert theta_c(-5.0) == pytest.approx(0.013475690068847303, rel=1e-12)
        assert theta_c(-12.0) > 0.0

    def test_monotone_increasing(self):
        zs = np.linspace(-4, 4, 41)
        vals = [theta_c(float(z)) for z in zs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            theta_c(math.inf)


class TestKernel:
    def test_zero_at_origin(self):
        assert kernel(0.0, PacketFrame(1.0, 0.0)) == 0.0

    def test_vanishes_at_cutoff_without_nan(self):
        for z in (-1.5, 0.0, 2.0):
            tc = theta_c(z)
            for eps in (1e-6, 1e-10, 1e-13):
                v = kernel(tc * (1 - eps), PacketFrame(0.5, z))
                assert math.isfinite(v) and v >= 0.0
            assert kernel(tc * (1 - 1e-13), PacketFrame(0.5, z)) == 0.0

    def test_formula_value(self):
        # exp(-1) * sqrt(2) at theta = pi/4, rest frame, unit spread
        got = kernel(math.pi / 4, PacketFrame(1.0, 0.0))
        assert got == pytest.approx(math.sqrt(2.0) * math.exp(-1.0), rel=1e-14)
        assert got == pytest.approx(kernel_direct(math.pi / 4, 0.0, 1.0), rel=1e-14)

    def test_direct_evaluation_grid(self):
        for z in (-1.0, 0.0, 1.0):
            tc = theta_c(z)
            for frac in (0.1, 0.4, 0.7):
                th = frac * tc
                got = kernel(th, PacketFrame(0.7, z))
                assert got == pytest.approx(kernel_direct(th, z, 0.7), rel=1e-12)

    def test_nonnegative_on_domain(self):
        frame = PacketFrame(2.0, 0.8)
        tc = theta_c(0.8)
        for th in np.linspace(0, tc * (1 - 1e-12), 200):
            assert kernel(float(th), frame) >= 0.0

    def test_domain_errors(self):
        frame = PacketFrame(1.0, 0.0)
        with pytest.raises(DomainError):
            kernel(-0.1, frame)
        with pytest.raises(DomainError):
            kernel(theta_c(0.0), frame)
        with pytest.raises(DomainError):
            PacketFrame(-1.0, 0.0)
        with pytest.raises(DomainError):
            PacketFrame(1.0, math.nan)
        with pytest.raises(DomainError, match="packet spread"):
            PacketFrame("1", 0.0)
        with pytest.raises(DomainError, match="rapidity"):
            PacketFrame(1.0, None)


class TestNormalization:
    def test_quadrature_matches_closed_form(self, cfg):
        for g in (0.05, 0.3, 1.0, 5.0, 20.0):
            frame = PacketFrame(g, 0.0)
            quad = normalization(frame, "quadrature", cfg)
            closed = normalization(frame, "closed_form")
            assert quad == pytest.approx(closed, rel=1e-8)

    def test_boost_invariance(self, cfg):
        for g in (0.5, 1.0, 20.0):
            ref = normalization(PacketFrame(g, 0.0), "quadrature", cfg)
            for z in (-2.0, -1.0, 1.0, 2.0):
                val = normalization(PacketFrame(g, z), "quadrature", cfg)
                assert val == pytest.approx(ref, rel=1e-8)

    def test_closed_form_against_mpmath(self):
        # 1/g on both sides of the erf_family branch switch at 2.5
        for g in (1e-3, 0.1, 0.39, 0.41, 1.0, 1e4):
            with mpmath.workdps(40):
                ref = mpmath.mpf(g)
                exact = mpmath.pi ** 1.5 * ref * mpmath.exp(1 / ref**2) * mpmath.erfc(1 / ref)
            assert normalization(PacketFrame(g, 0.0), "closed_form") == pytest.approx(
                float(exact), rel=1e-15, abs=0)

    def test_monotone_in_spread(self, cfg):
        gammas = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0)
        vals = [normalization(PacketFrame(g, 0.0), "closed_form") for g in gammas]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            normalization(PacketFrame(1.0, 0.0), "monte_carlo")


class TestNormScale:
    # Gamma <= 0.04 takes the asymptotic branch, 1/Gamma >= 25
    @pytest.mark.parametrize("gamma", [*np.logspace(-3, 4, 15).tolist(), 0.04, 0.0400001])
    def test_power_of_two_within_a_factor_two_of_two_pi_over_n(self, gamma):
        s = norm_scale(gamma)
        assert math.frexp(s)[0] == 0.5
        ratio = s * normalization(PacketFrame(gamma, 0.0), "closed_form") / (2.0 * math.pi)
        assert 0.5 < ratio < 2.0


class TestRestFrameTrace:
    def test_matches_normalization(self, cfg):
        # independent radial representation: 2*pi * trace == normalization
        for g in (0.3, 1.0, 7.0):
            lhs = 2.0 * math.pi * rest_frame_trace(g, cfg)
            rhs = normalization(PacketFrame(g, 0.0), "quadrature", cfg)
            assert lhs == pytest.approx(rhs, rel=1e-8)

    def test_narrow_packet_asymptotics(self, cfg):
        # leading behavior Gamma^2/2 with relative correction O(Gamma^2)
        for g in (0.02, 0.005):
            ratio = rest_frame_trace(g, cfg) / (g * g / 2.0)
            assert ratio == pytest.approx(1.0, abs=3 * g * g)

    def test_domain(self):
        with pytest.raises(DomainError):
            rest_frame_trace(-1.0)


class TestEnvelope:
    def test_forward_value_at_rest(self):
        frame = PacketFrame(1.0, 0.0)
        n_env = 0.5 * normalization(frame, "closed_form")
        assert envelope_sq(0.0, frame) == pytest.approx(1.0 / n_env, rel=1e-12)

    def test_direct_evaluation(self):
        frame = PacketFrame(0.5, -1.0)
        th = 0.3
        d = math.sinh(-1.0) + math.cosh(-1.0) * math.cos(th)
        expected = (math.exp(-math.sin(th) ** 2 / (0.25 * d * d)) / d
                    / (0.5 * normalization(frame, "closed_form")))
        assert envelope_sq(th, frame) == pytest.approx(expected, rel=1e-12)

    def test_concentration_in_log_space(self):
        frame = PacketFrame(0.01, 0.0)
        gap = log_envelope_sq(0.5, frame) - log_envelope_sq(0.01, frame)
        assert gap < -100 * math.log(10.0)  # ratio below 1e-100

    def test_domain(self):
        with pytest.raises(DomainError):
            envelope_sq(theta_c(0.0) + 0.2, PacketFrame(1.0, 0.0))
