import math

import numpy as np
import pytest

from boostcap import quadrature
from boostcap.errors import ConvergenceError, DomainError
from boostcap.quadrature import (QuadratureConfig, geometric_refinement,
                                 integrate, integrate_batch, integrate_semi_infinite)
from boostcap.special_functions import erf_family


class TestConfig:
    def test_defaults_valid(self):
        cfg = QuadratureConfig()
        assert cfg.abs_tol > 0 and cfg.rel_tol > 0 and cfg.max_subdivisions >= 1

    def test_validation(self):
        with pytest.raises(DomainError):
            QuadratureConfig(abs_tol=0.0)
        with pytest.raises(DomainError):
            QuadratureConfig(max_subdivisions=0)


class TestIntegrate:
    def test_polynomial_exact(self):
        val, err = integrate(lambda x: x * x, 0.0, 1.0)
        assert val == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_oscillatory(self, cfg):
        val, _ = integrate(np.sin, 0.0, 20.0 * math.pi, cfg)
        assert val == pytest.approx(0.0, abs=1e-10)

    def test_gaussian(self, cfg):
        val, _ = integrate(lambda x: np.exp(-x * x), -8.0, 8.0, cfg)
        assert val == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    def test_breakpoints_help_kinks(self, cfg):
        f = lambda x: np.abs(x - 1.0 / 3.0)  # noqa: E731
        val, _ = integrate(f, 0.0, 1.0, cfg, breakpoints=[1.0 / 3.0])
        exact = ((1 / 3) ** 2 + (2 / 3) ** 2) / 2
        assert val == pytest.approx(exact, rel=1e-12)

    def test_log_singularity(self, cfg):
        val, _ = integrate(lambda x: np.log(x), 1e-300, 1.0,
                           QuadratureConfig(1e-12, 1e-10, 4000),
                           breakpoints=geometric_refinement(0.0, 1.0, 1e-12))
        assert val == pytest.approx(-1.0, abs=1e-9)

    def test_empty_and_reversed(self):
        assert integrate(np.sin, 2.0, 2.0) == (0.0, 0.0)
        with pytest.raises(DomainError):
            integrate(np.sin, 2.0, 1.0)
        with pytest.raises(DomainError):
            integrate(np.sin, 0.0, math.inf)

    def test_nonfinite_integrand_rejected(self):
        def f(x):
            with np.errstate(divide="ignore"):
                return 1.0 / x
        with pytest.raises(DomainError):
            integrate(f, -1.0, 1.0)

    def test_convergence_error_carries_estimate(self):
        f = lambda x: 1.0 / np.sqrt(np.abs(x - 0.3) + 1e-300)  # noqa: E731
        with pytest.raises(ConvergenceError) as exc:
            integrate(f, 0.0, 1.0, QuadratureConfig(1e-14, 1e-13, 16))
        assert math.isfinite(exc.value.estimate)
        assert exc.value.error_bound > 0
        # integrate is the one-problem call of the batched worklist
        assert exc.value.problem == 0

    def test_deterministic(self, cfg):
        f = lambda x: np.exp(-x) * np.cos(13.0 * x)  # noqa: E731
        vals = {integrate(f, 0.0, 9.0, cfg)[0] for _ in range(5)}
        assert len(vals) == 1


class TestVectorIntegrand:
    ROWS = (lambda x: np.exp(-x * x),
            lambda x: 1e-7 * np.cos(3.0 * x),     # a small component
            lambda x: 1.0 / np.sqrt(np.abs(x - 0.3) + 1e-6),
            lambda x: x ** 3)

    def test_components_match_scalar_integrals(self, cfg):
        vals, errs = integrate(lambda x: np.array([r(x) for r in self.ROWS]),
                               -1.0, 2.0, cfg, breakpoints=[0.3])
        assert vals.shape == errs.shape == (len(self.ROWS),)
        for row, val, err in zip(self.ROWS, vals, errs):
            alone, alone_err = integrate(row, -1.0, 2.0, cfg, breakpoints=[0.3])
            assert abs(val - alone) <= err + alone_err
            assert err <= max(cfg.abs_tol, cfg.rel_tol * abs(val))

    def test_zero_width_rows_integrate_to_zero_rows(self):
        vals, errs = integrate(lambda x: np.array([x, x]), 1.0, 1.0)
        assert vals.shape == errs.shape == (2,)
        assert not vals.any() and not errs.any()

    def test_nonfinite_component_rejected(self):
        def f(x):
            with np.errstate(divide="ignore"):
                return np.array([x, 1.0 / x])
        with pytest.raises(DomainError):
            integrate(f, -1.0, 1.0)


@pytest.mark.parametrize("rows", [None, 1, 4])
def test_rule_gives_each_interval_its_own_bits(rows):
    # an interval's estimate and bound must not depend on the rest of the
    # batch, so that a problem's bits are those it gets alone
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 7, 15, 16, 31, 100, 333):
        shape = (n, 15) if rows is None else (rows, n, 15)
        fx = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
        lows = rng.uniform(-2.0, 1.0, n)
        highs = lows + 10.0 ** rng.uniform(-6.0, 0.0, n)
        vals, errs = quadrature._rule(fx, lows, highs)
        for i in range(n):
            alone = quadrature._rule(fx[..., i:i + 1, :], lows[i:i + 1], highs[i:i + 1])
            assert vals[i:i + 1].tobytes() == alone[0].tobytes(), (n, i)
            assert errs[i:i + 1].tobytes() == alone[1].tobytes(), (n, i)


class TestBatch:
    # (integrand, a, b, seeds): a polynomial that converges on its seed
    # partition, a near-singular peak that needs many bisections, and
    # problems with different seed counts
    PROBLEMS = ((lambda x: x * x, 0.0, 1.0, None),
                (lambda x: 1.0 / np.sqrt(np.abs(x - 0.3) + 1e-9), 0.0, 1.0, [0.5]),
                (lambda x: np.exp(-x * x), -8.0, 8.0, [-1.0, 0.0, 1.0]),
                (lambda x: np.cos(20.0 * x), 0.0, 3.0, [1.0, 2.0]))

    @classmethod
    def batched(cls, problems):
        def f(x, idx):
            out = np.empty_like(x)
            for p, (g, a, b, _) in enumerate(problems):
                mine = idx == p
                assert np.all((x[mine] > a) & (x[mine] < b))
                out[mine] = g(x[mine])
            return out
        return f

    def test_each_problem_matches_its_own_integral(self, cfg):
        vals, errs = integrate_batch(self.batched(self.PROBLEMS),
                                     [p[1] for p in self.PROBLEMS],
                                     [p[2] for p in self.PROBLEMS], cfg,
                                     [p[3] for p in self.PROBLEMS])
        assert vals.shape == errs.shape == (len(self.PROBLEMS),)
        # every problem gets the bits that it gets alone
        for (g, a, b, seeds), val, err in zip(self.PROBLEMS, vals, errs):
            assert (val, err) == integrate(g, a, b, cfg, breakpoints=seeds)
            assert err <= max(cfg.abs_tol, cfg.rel_tol * abs(val))

    def test_one_problem_is_the_one_problem_loop(self, cfg):
        # a batch of one makes the same GK15 batches as integrate itself
        g, a, b, seeds = self.PROBLEMS[1]
        vals, errs = integrate_batch(lambda x, idx: g(x), [a], [b], cfg, [seeds])
        assert (vals[0], errs[0]) == integrate(g, a, b, cfg, breakpoints=seeds)

    def test_empty_batch_calls_nothing(self, cfg):
        def f(x, idx):
            raise AssertionError("integrand called for an empty batch")
        vals, errs = integrate_batch(f, [], [], cfg, [])
        assert vals.shape == errs.shape == (0,)

    def test_zero_width_rows_problem_in_a_batch(self, cfg):
        # zeros of the row shape beside a problem of positive width, which
        # keeps the bits that it gets alone
        def rows(x):
            return np.array([x, x * x])
        vals, errs = integrate_batch(lambda x, idx: rows(x), [0.0, 1.0], [1.0, 1.0], cfg,
                                     [None, None])
        assert vals.shape == errs.shape == (2, 2)
        alone = integrate(rows, 0.0, 1.0, cfg)
        assert vals[0].tobytes() == alone[0].tobytes()
        assert errs[0].tobytes() == alone[1].tobytes()
        assert not vals[1].any() and not errs[1].any()

    def test_exhausted_problem_raises_its_own_estimate(self):
        starved = QuadratureConfig(1e-14, 1e-13, 16)
        problems = (self.PROBLEMS[0], self.PROBLEMS[1], self.PROBLEMS[0])
        with pytest.raises(ConvergenceError) as exc:
            integrate_batch(self.batched(problems), [0.0] * 3, [1.0] * 3, starved,
                            [p[3] for p in problems])
        g, a, b, seeds = problems[1]
        with pytest.raises(ConvergenceError) as alone:
            integrate(g, a, b, starved, breakpoints=seeds)
        assert exc.value.problem == 1
        assert exc.value.estimate == alone.value.estimate
        assert exc.value.error_bound == alone.value.error_bound


class TestSemiInfinite:
    def test_exponential_sqrt_weight(self, cfg):
        # int_0^inf exp(-s)/(2 sqrt(1+s)) ds = (sqrt(pi)/2) erfcx(1)
        val, _ = integrate_semi_infinite(
            lambda s: np.exp(-s) / (2.0 * np.sqrt(1.0 + s)), cfg)
        exact = 0.5 * math.sqrt(math.pi) * erf_family(1.0).erfcx
        assert val == pytest.approx(exact, rel=1e-10)

    def test_plain_exponential(self, cfg):
        val, _ = integrate_semi_infinite(lambda s: np.exp(-3.0 * s), cfg,
                                         breakpoints=[1.0, 5.0])
        assert val == pytest.approx(1.0 / 3.0, rel=1e-10)


def test_geometric_refinement_structure():
    pts = geometric_refinement(0.0, 1.0, 1e-3)
    assert all(0.0 < p < 1.0 for p in pts)
    assert pts == sorted(pts)
    widths = [1.0 - p for p in pts]
    assert widths[-1] <= 1e-3
    assert geometric_refinement(0.0, 1.0, 2.0) == []
