"""Special function tests: every implementation is checked against an
independent oracle (series/quadrature/AGM cross-routes), then against frozen
golden values produced by those oracles."""

import math

import mpmath
import numpy as np
import pytest

from boostcap.errors import DomainError, RangeError
from boostcap.quadrature import QuadratureConfig, integrate
from boostcap.special_functions import (EllipticPair, ErfTriple, _elliptic_ked,
                                        _erfcx_cf, elliptic,
                                        entropy, erf_family, erfi,
                                        hyp2f2_11_52_3)

mpmath.mp.dps = 40


def gaussian_quadrature_erf(x: float, cfg: QuadratureConfig) -> float:
    """Independent oracle: erf by adaptive quadrature of the Gaussian."""
    val, _ = integrate(lambda t: np.exp(-t * t), 0.0, x, cfg)
    return 2.0 / math.sqrt(math.pi) * val


class TestErfFamily:
    def test_origin(self):
        t = erf_family(0.0)
        assert t == ErfTriple(0.0, 1.0, 1.0)

    def test_golden_at_one(self, cfg):
        # frozen from the Taylor + continued-fraction oracle, cross-checked
        # against quadrature of the Gaussian
        t = erf_family(1.0)
        assert t.erf == pytest.approx(0.8427007929497149, abs=1e-15)
        assert t.erfc == pytest.approx(0.15729920705028513, abs=1e-15)
        assert t.erfcx == pytest.approx(0.42758357615580704, abs=1e-15)
        assert t.erf == pytest.approx(gaussian_quadrature_erf(1.0, cfg), abs=1e-12)

    def test_quadrature_oracle_grid(self, cfg):
        for x in (0.25, 0.8, 1.7, 2.4, 3.1):
            assert erf_family(x).erf == pytest.approx(
                gaussian_quadrature_erf(x, cfg), abs=5e-12)

    def test_odd_symmetry(self):
        for x in (0.3, 1.1, 2.6, 7.0):
            assert erf_family(-x).erf == -erf_family(x).erf

    def test_complement_identity(self):
        for x in np.linspace(-15, 15, 301):
            t = erf_family(float(x))
            assert abs(t.erf + t.erfc - 1.0) < 1e-14

    def test_erfcx_scaling(self):
        for x in np.linspace(0.0, 30.0, 121):
            t = erf_family(float(x))
            assert t.erfcx * math.exp(-x * x) == pytest.approx(t.erfc, rel=1e-13)

    def test_branch_overlap(self):
        # libm branch and continued-fraction branch agree around the switch
        for x in np.linspace(1.8, 2.5, 15):
            libm_erfcx = math.exp(x * x) * math.erfc(x)
            assert _erfcx_cf(float(x)) == pytest.approx(libm_erfcx, rel=1e-13)

    def test_libm_branch_against_mpmath(self):
        for x in [k / 80 for k in range(-200, 201)]:
            t = erf_family(x)
            ref = mpmath.mpf(x)
            erfc = mpmath.erfc(ref)
            if x == 0:
                assert t.erf == pytest.approx(0.0, abs=1e-15)
            else:
                assert t.erf == pytest.approx(float(mpmath.erf(ref)), rel=1e-15, abs=0)
            assert t.erfc == pytest.approx(float(erfc), rel=1e-15, abs=0)
            assert t.erfcx == pytest.approx(float(mpmath.exp(ref * ref) * erfc),
                                            rel=1e-15, abs=0)

    def test_no_overflow_large_argument(self):
        for x in (10.0, 40.0):
            assert erf_family(x).erfcx == pytest.approx(
                float(mpmath.exp(x * x) * mpmath.erfc(x)), rel=1e-13)
        for x in (1e3, 1e6):
            t = erf_family(x)
            asym = 1.0 / (x * math.sqrt(math.pi))
            assert t.erfcx == pytest.approx(asym * (1 - 0.5 / x**2 + 0.75 / x**4),
                                            rel=1e-12)
            assert t.erf == 1.0
        assert erf_family(-30.0).erfcx == math.inf

    def test_domain(self):
        with pytest.raises(DomainError):
            erf_family(math.nan)
        with pytest.raises(DomainError):
            erf_family(math.inf)

    def test_erfi(self):
        assert erfi(1.0) == pytest.approx(float(mpmath.erfi(1)), rel=1e-14)
        assert erfi(5.0) == pytest.approx(float(mpmath.erfi(5)), rel=1e-13)
        assert erfi(-2.0) == -erfi(2.0)


def elliptic_quadrature_oracle(m: float, cfg: QuadratureConfig) -> EllipticPair:
    """Defining integrals by adaptive quadrature (independent of the AGM)."""
    k, _ = integrate(lambda t: 1.0 / np.sqrt(1.0 - m * np.sin(t) ** 2),
                     0.0, math.pi / 2, cfg)
    e, _ = integrate(lambda t: np.sqrt(1.0 - m * np.sin(t) ** 2),
                     0.0, math.pi / 2, cfg)
    return EllipticPair(k, e)


class TestElliptic:
    def test_zero_parameter(self):
        p = elliptic(0.0)
        assert p.K == pytest.approx(math.pi / 2, abs=1e-15)
        assert p.E == pytest.approx(math.pi / 2, abs=1e-15)

    def test_unit_parameter(self):
        p = elliptic(1.0)
        assert p.K == math.inf
        assert p.E == 1.0

    def test_negative_one_golden(self):
        # frozen from the AGM + imaginary-modulus route, checked below
        # against quadrature of the defining integrals
        p = elliptic(-1.0)
        assert p.K == pytest.approx(1.3110287771460599, rel=1e-14)
        assert p.E == pytest.approx(1.9100988945138561, rel=1e-14)

    def test_quadrature_oracle(self, cfg):
        for m in (-9.0, -1.0, -0.2, 0.1, 0.6, 0.95):
            ref = elliptic_quadrature_oracle(m, cfg)
            got = elliptic(m)
            assert got.K == pytest.approx(ref.K, rel=1e-12)
            assert got.E == pytest.approx(ref.E, rel=1e-12)

    def test_near_unit_accuracy(self):
        for m in (1 - 1e-6, 1 - 1e-10):
            got = elliptic(m)
            assert got.K == pytest.approx(float(mpmath.ellipk(m)), rel=1e-12)
            assert got.E == pytest.approx(float(mpmath.ellipe(m)), rel=1e-12)

    def test_negative_parameter_positive_values(self):
        for m in (-0.5, -4.0, -100.0):
            p = elliptic(m)
            assert p.K > 0 and p.E > 0

    def test_domain(self):
        with pytest.raises(DomainError):
            elliptic(1.0000001)
        with pytest.raises(DomainError):
            elliptic(math.nan)

    def test_legendre_relation(self):
        for m in (0.05, 0.25, 0.5, 0.75, 0.99):
            a, b = elliptic(m), elliptic(1.0 - m)
            resid = a.E * b.K + b.E * a.K - a.K * b.K - math.pi / 2
            assert abs(resid) < 1e-10

    def test_cancellation_free_difference(self):
        # (K - E)/m stays accurate where the naive difference loses all digits
        for m in (1e-14, 1e-8, 1e-3, -1e-12, -0.7, 0.9):
            ref = float((mpmath.ellipk(m) - mpmath.ellipe(m)) / m) if m else math.pi / 4
            assert _elliptic_ked(m)[2] == pytest.approx(ref, rel=1e-13)
        assert _elliptic_ked(0.0)[2] == pytest.approx(math.pi / 4, rel=1e-15)


def brute_force_2f2(p: float) -> float:
    """Plain term-by-term partial summation until term < 1e-18 * sum."""
    terms = [1.0]
    t = 1.0
    for n in range(0, 500):
        t *= p * (n + 1) / ((n + 2.5) * (n + 3))
        terms.append(t)
        if abs(t) < 1e-18 * abs(math.fsum(terms)):
            break
    return math.fsum(terms)


class TestHyp2F2:
    def test_origin(self):
        assert hyp2f2_11_52_3(0.0) == 1.0

    def test_golden_values(self):
        # frozen from the series oracle (alternating case included)
        assert hyp2f2_11_52_3(1.0) == pytest.approx(1.1552660244928118, rel=1e-12)
        assert hyp2f2_11_52_3(-5.0) == pytest.approx(0.6147080640697156, rel=1e-10)

    def test_brute_force_oracle(self):
        for p in (-10.0, -5.0, -1.0, 0.3, 1.0, 5.0, 10.0, 20.0):
            assert hyp2f2_11_52_3(p) == pytest.approx(brute_force_2f2(p), rel=1e-10)
        # at p = -20 the double-precision oracle's own term noise dominates
        assert hyp2f2_11_52_3(-20.0) == pytest.approx(brute_force_2f2(-20.0), rel=2e-9)

    def test_high_precision_reference_full_range(self):
        for p in (-50.0, -35.0, -20.0, 20.0, 35.0, 50.0):
            ref = float(mpmath.hyper([1, 1], [mpmath.mpf(5) / 2, 3], p))
            assert hyp2f2_11_52_3(p) == pytest.approx(ref, rel=1e-10)

    def test_range_error(self):
        with pytest.raises(RangeError):
            hyp2f2_11_52_3(50.5)
        with pytest.raises(DomainError):
            hyp2f2_11_52_3(math.inf)


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy((0.5, 0.5)) == 1.0

    def test_deterministic(self):
        assert entropy((1.0, 0.0, 0.0, 0.0)) == 0.0

    def test_half_half_four(self):
        assert entropy((0.5, 0.0, 0.5, 0.0)) == 1.0

    def test_permutation_invariance(self, rng):
        for _ in range(100):
            p = rng.dirichlet(np.ones(4))
            q = rng.permutation(p)
            assert entropy(p) == pytest.approx(entropy(q), abs=1e-12)

    def test_uniform_maximizes(self, rng):
        n = 4
        h_max = entropy([1.0 / n] * n)
        for _ in range(100):
            assert entropy(rng.dirichlet(np.ones(n))) <= h_max + 1e-12

    def test_renormalizes_inside_tolerance(self):
        assert entropy((0.5 + 4e-10, 0.5 + 4e-10)) == pytest.approx(1.0, abs=1e-12)
        assert entropy((0.25, 0.25, 0.25, 0.25 - 1e-10)) <= 2.0

    def test_domain(self):
        with pytest.raises(DomainError):
            entropy((0.6, 0.6))
        with pytest.raises(DomainError):
            entropy((-1e-6, 1.0 + 1e-6))
        with pytest.raises(DomainError):
            entropy(())
