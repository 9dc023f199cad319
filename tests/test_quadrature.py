import math

import numpy as np
import pytest

from boostcap import channel, quadrature
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

    @pytest.mark.parametrize("kwargs", [
        {"max_subdivisions": 2.5}, {"max_subdivisions": 2000.0}, {"max_subdivisions": "9"},
        {"abs_tol": math.inf}, {"rel_tol": math.inf}, {"rel_tol": math.nan}])
    def test_counts_are_integers_and_tolerances_finite(self, kwargs):
        # an infinite tolerance would pass every integral on its seed pass
        with pytest.raises(DomainError):
            QuadratureConfig(**kwargs)

    @pytest.mark.parametrize("name, bad", [
        ("abs_tol", None), ("abs_tol", "1e-9"), ("rel_tol", "1e-9"), ("rel_tol", 1j)])
    def test_non_number_tolerances_are_domain_errors(self, name, bad):
        with pytest.raises(DomainError, match=name):
            QuadratureConfig(**{name: bad})

    def test_accepted_tolerances_are_stored_unchanged(self):
        cfg = QuadratureConfig(abs_tol=1, rel_tol=np.float64(1e-9))
        assert type(cfg.abs_tol) is int and type(cfg.rel_tol) is np.float64
        assert cfg == QuadratureConfig(1.0, 1e-9)

    def test_numpy_integer_budget_is_an_int(self):
        cfg = QuadratureConfig(max_subdivisions=np.int64(40))
        assert type(cfg.max_subdivisions) is int and cfg == QuadratureConfig(1e-12, 1e-10, 40)


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


class TestScalarRounds:
    # _array_rounds runs _refine's plain rounds on arrays and hands the
    # rare decisions to _refine: every problem gets the same bits, or the
    # same ConvergenceError, from the array loop throughout, from the
    # generators alone, and with the hand-over between them at 3 live
    # problems.  x * x converges on its seeds; the 2-ulp problem bisects once
    # and then reaches floating point resolution; the zero integrand has
    # only zero errors
    LEAST = (1, 3, 10 ** 9)
    U = 2.0 ** -52
    ULP2 = 1.0 + 2 * U
    PROBLEMS = (*TestBatch.PROBLEMS,
                (lambda x: 1.0 / (x - 0.999), 1.0, ULP2, None),
                (lambda x: 0.0 * x, 0.0, 2.0, [0.5, 1.0]),
                (lambda x: np.sqrt(np.abs(x - 0.7)), 0.0, 1.0, None))

    @staticmethod
    def batched(problems):
        # the 2-ulp problem's nodes round to its endpoints, so no check that
        # they lie inside
        def f(x, idx):
            out = np.empty_like(x)
            for p, (g, *_) in enumerate(problems):
                out[idx == p] = g(x[idx == p])
            return out
        return f

    @classmethod
    def each_loop(cls, monkeypatch, a, b, cfg, seeds, f=None):
        f = f or cls.batched(cls.PROBLEMS)
        outs = []
        for least in cls.LEAST:
            monkeypatch.setattr(quadrature, "_ARRAY_MIN_PROBLEMS", least)
            try:
                vals, errs = integrate_batch(f, a, b, cfg, seeds)
                outs.append((vals.tobytes(), errs.tobytes()))
            except ConvergenceError as exc:
                outs.append((str(exc), exc.problem, exc.estimate.hex(), exc.error_bound.hex()))
        return outs

    def test_every_problem_gets_the_bits_of_refine(self, monkeypatch, cfg):
        problems = self.PROBLEMS
        outs = self.each_loop(monkeypatch, [p[1] for p in problems], [p[2] for p in problems],
                              cfg, [p[3] for p in problems])
        assert outs[0] == outs[1] == outs[2]
        vals = np.frombuffer(outs[0][0])
        assert vals[4] > 0.0 and vals[5] == 0.0

    @pytest.mark.parametrize("seeds, table, tol", [
        # errors 1e100, 1 and 1.5 * 2^-53 on three 1-ulp seeds: the running
        # error loses the two small ones, and leaves 2^-54 once all three
        # are accepted at resolution, so the problem re-sums after passing
        # on the running sum, and ends on an error-0 interval while the
        # running error is not 0
        ([0, 1, 2, 3], {(0, 1): 1e100, (1, 2): 1.0, (2, 3): 1.5 * 2.0 ** -53}, 1e-300),
        # seed errors that sum to the tolerance exactly converge on the seeds
        ([0, 1, 2, 3], {(0, 1): 0.5, (1, 2): 0.25, (2, 3): 0.25}, 1.0),
        # bisecting [0, 2] leaves the running error at 3 * 2^-53, within the
        # tolerance, as _refine associates its update; summed in another
        # order it would read 2^-51 and go on
        ([0, 2, 4, 5], {(0, 2): 1.0, (2, 4): 2.0 ** -60, (4, 5): 2.0 ** -80,
                        (0, 1): 2.0 ** -53, (1, 2): 2.0 ** -52}, 3 * 2.0 ** -53 + 2.0 ** -58),
        # after one round the two quick problems have converged, and the
        # others go on in _refine with their running error, 1: within the
        # tolerance 1 + 1 ulp, where a fresh sum of their intervals' errors
        # would read 1 + 2 ulps and bisect [0, 2]
        ([0, 4, 5, 6], {(0, 4): 4.0, (4, 5): 0.6 * U, (5, 6): 0.6 * U, (0, 2): 1.0, (2, 4): 0.0,
                        (0, 1): 2.0 ** -60, (1, 2): 2.0 ** -60}, 1.0 + U),
    ], ids=["residue", "tolerance", "association", "hand-over"])
    def test_stand_in_errors_at_the_edges(self, monkeypatch, seeds, table, tol):
        # seed edges and intervals in ulps above 1, and the intervals'
        # errors from a stand-in rule; each value is its left end in ulps.
        # Two more problems, above 3, have errors 0 and converge on their
        # seeds
        def rule(fx, lows, highs):
            ends = [(round((lo - 1.0) / self.U), round((hi - 1.0) / self.U))
                    for lo, hi in zip(lows.tolist(), highs.tolist())]
            return (np.array([float(e[0]) for e in ends]),
                    np.array([table.get(e, 0.0) for e in ends]))

        monkeypatch.setattr(quadrature, "_rule", rule)
        edges = [1.0 + k * self.U for k in seeds]
        outs = self.each_loop(monkeypatch, [1.0, 1.0, 3.0, 3.0], [edges[-1]] * 2 + [3.5] * 2,
                              QuadratureConfig(tol, 1e-300, 10), [edges] * 2 + [None] * 2,
                              lambda x, idx: 0.0 * x)
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("seed", range(20))
    def test_stand_in_errors_with_ties_and_rounding(self, monkeypatch, seed):
        # a stand-in rule gives each interval an error from a hash of its
        # ends, a few mantissas over a few binades: errors tie exactly,
        # running sums round, and totals land on the power-of-two tolerance;
        # every decision must still be _refine's
        rng = np.random.default_rng(seed)

        def rule(fx, lows, highs):
            keys = [hash((lo, hi)) for lo, hi in zip(lows.tolist(), highs.tolist())]
            return (np.array([k % 1009 / 7.0 for k in keys]),
                    np.array([(1.0 + k % 5 / 4.0) * 2.0 ** -(k % 13) for k in keys]))

        monkeypatch.setattr(quadrature, "_rule", rule)
        n = 12
        a = rng.uniform(-1.0, 1.0, n)
        b = [x + w for x, w in zip(a.tolist(), 10.0 ** rng.uniform(-15.0, 0.0, n))]
        seeds = [sorted(rng.uniform(x, y, rng.integers(0, 4))) for x, y in zip(a, b)]
        cfg = QuadratureConfig(2.0 ** -int(rng.integers(-4, 8)), 1e-300, int(rng.integers(4, 40)))
        outs = self.each_loop(monkeypatch, a.tolist(), b, cfg, seeds, lambda x, idx: 0.0 * x)
        assert outs[0] == outs[1] == outs[2]

    def test_zero_width_problem(self, monkeypatch, cfg):
        outs = self.each_loop(monkeypatch, [0.0, 1.0, -8.0], [1.0, 1.0, 8.0], cfg,
                              [None, None, [0.0]], self.batched(self.PROBLEMS[:3]))
        assert outs[0] == outs[1] == outs[2]
        assert np.frombuffer(outs[0][0])[1] == 0.0

    @pytest.mark.parametrize("budget", [1, 16, 40])
    def test_the_lowest_index_of_the_first_round_to_fail_is_raised(self, monkeypatch, budget):
        # problems 1 and 3 are the same near-singular peak: they exhaust the
        # budget in the same round, and problem 1 is raised
        problems = (self.PROBLEMS[0], self.PROBLEMS[1], self.PROBLEMS[6], self.PROBLEMS[1])
        starved = QuadratureConfig(1e-14, 1e-13, budget)
        outs = self.each_loop(monkeypatch, [0.0] * 4, [1.0] * 4, starved,
                              [p[3] for p in problems], self.batched(problems))
        assert outs[0] == outs[1] == outs[2]
        assert outs[0][1] == 1


class TestRowsRounds:
    # _array_rounds runs the plain rounds of rows problems as _refine runs
    # them, and hands the rare decisions to _refine: seed totals, priorities
    # weighted by the seed pass, the row-by-row tolerance test and re-sum,
    # and the weights carried over at every hand-over must all give the
    # same bits, or the same ConvergenceError, on every loop
    LEAST = TestScalarRounds.LEAST
    U = TestScalarRounds.U
    # (rows integrand, a, b, seeds)
    PROBLEMS = (
        # rows of very different scales, with a near-singular peak: which
        # interval splits next depends on the weights
        (lambda x: np.array([np.exp(-x * x), 1e-9 * np.cos(3.0 * x),
                             1e6 / np.sqrt(np.abs(x - 0.3) + 1e-6), x ** 3]), -1.0, 2.0, [0.3]),
        # the second row integrates to 0, so it passes only on abs_tol
        (lambda x: np.array([x * x, np.sin(7.0 * x), np.cos(x), 1.0 + 0.0 * x]), -1.0, 1.0,
         None),
        # an all-zero integrand: every priority is 0 from the seeds on
        (lambda x: np.zeros((4, x.size)), 0.0, 2.0, [0.5, 1.0]),
        # two ulps: one bisection, then floating point resolution
        (lambda x: np.array([1.0 / (x - 0.999), x, -x, 2.0 + 0.0 * x]), 1.0, 1.0 + 2 * U, None),
        # many seeds, of two counts: seed totals summed pairwise
        (lambda x: np.array([np.sqrt(np.abs(x - 0.7)), 1e3 * x, np.exp(x), 1e-4 * np.sin(x)]),
         0.0, 1.0, np.linspace(0.05, 0.95, 19).tolist()),
        (lambda x: np.array([1.0 / (1.0 + 400.0 * (x - 0.2) ** 2), 1e-8 * x, x * x,
                             np.abs(x - 0.55)]), 0.0, 1.0, np.linspace(0.1, 0.9, 11).tolist()),
        (lambda x: np.array([np.cos(20.0 * x), 1e5 * np.exp(-x), 1e-6 / np.sqrt(x + 1e-7),
                             x]), 0.0, 3.0, [1.0, 2.0]),
    )

    @staticmethod
    def batched(problems):
        def f(x, idx):
            out = np.empty((4, x.size))
            for p, (g, *_) in enumerate(problems):
                out[:, idx == p] = g(x[idx == p])
            return out
        return f

    @classmethod
    def each_loop(cls, monkeypatch, problems, cfg):
        outs = []
        for least in cls.LEAST:
            monkeypatch.setattr(quadrature, "_ARRAY_MIN_PROBLEMS", least)
            try:
                vals, errs = integrate_batch(cls.batched(problems), [p[1] for p in problems],
                                             [p[2] for p in problems], cfg,
                                             [p[3] for p in problems])
                outs.append((vals.tobytes(), errs.tobytes()))
            except ConvergenceError as exc:
                assert exc.estimate.shape == exc.error_bound.shape == (4,)
                outs.append((str(exc), exc.problem, exc.estimate.tobytes(),
                             exc.error_bound.tobytes()))
        return outs

    @pytest.mark.parametrize("cfg", [QuadratureConfig(1e-12, 1e-10, 2000),
                                     QuadratureConfig(1e-10, 1e-13, 2000),
                                     QuadratureConfig(1e-8, 1e-12, 2000)],
                             ids=["default", "relative", "absolute"])
    def test_every_problem_gets_the_bits_of_refine(self, monkeypatch, cfg):
        outs = self.each_loop(monkeypatch, self.PROBLEMS, cfg)
        assert outs[0] == outs[1] == outs[2]
        vals, errs = (np.frombuffer(b).reshape(len(self.PROBLEMS), 4) for b in outs[0])
        assert not vals[2].any() and not errs[2].any()
        # the zero row met abs_tol and not rel_tol
        assert cfg.rel_tol * abs(vals[1, 1]) < errs[1, 1] <= cfg.abs_tol
        # and each one the bits that it gets alone
        for (g, a, b, seeds), val, err in zip(self.PROBLEMS, vals, errs):
            alone = integrate(g, a, b, cfg, breakpoints=seeds)
            assert (val.tobytes(), err.tobytes()) == (alone[0].tobytes(), alone[1].tobytes())

    @pytest.mark.parametrize("seed", range(20))
    def test_stand_in_errors_with_ties_and_rounding(self, monkeypatch, seed):
        # a stand-in rule gives each interval's rows values of both signs
        # over many binades, from a hash of its ends: running totals drift
        # far from the seed pass's, and with them the weights that _refine
        # would compute from what it is handed.  Errors come from a few
        # mantissas and binades, some 0, so priorities tie; problems a few
        # ulps wide reach floating point resolution.  It returns the
        # transposed layout of _rule, whose slices _refine sums
        rng = np.random.default_rng(seed)
        scale = 2.0 ** rng.integers(-30, 30, 4)

        def rule(fx, lows, highs):
            keys = np.array([[hash((lo, hi, r)) for lo, hi in zip(lows.tolist(), highs.tolist())]
                             for r in range(4)])
            vals = (keys % 1009 - 504) / 7.0 * 2.0 ** (keys % 17 - 8) * scale[:, None]
            # shrinking with the width, but not on intervals of a few ulps
            shrink = np.where(highs - lows < 2.0 ** -40, 1.0, (1e3 * (highs - lows)) ** 2)
            errs = keys % 5 / 4.0 * 2.0 ** -(keys % 13) * scale[:, None] * shrink
            return vals.T, errs.T

        monkeypatch.setattr(quadrature, "_rule", rule)
        n = 12
        a = rng.uniform(-1.0, 1.0, n)
        widths = np.where(np.arange(n) % 3 == 0, rng.integers(1, 8, n) * 2.0 ** -52,
                          10.0 ** rng.uniform(-3.0, 0.0, n))
        b = [x + w for x, w in zip(a.tolist(), widths.tolist())]
        seeds = [sorted(rng.uniform(x, y, rng.integers(0, 16))) for x, y in zip(a, b)]
        cfg = QuadratureConfig(2.0 ** -int(rng.integers(0, 30)), 2.0 ** -int(rng.integers(0, 12)),
                               int(rng.integers(10, 200)))
        problems = [(lambda x: np.zeros((4, x.size)), lo, hi, sd)
                    for lo, hi, sd in zip(a.tolist(), b, seeds)]
        outs = self.each_loop(monkeypatch, problems, cfg)
        assert outs[0] == outs[1] == outs[2]

    def test_hand_over_carries_the_seed_totals_and_weights_of_refine(self, monkeypatch):
        # with more problems live than the array loop runs, it hands every
        # one over as it was seeded: the totals and weights must be those
        # that _refine computes from the seed pass, whose rows it sums down
        # _rule's transposed slices
        rng = np.random.default_rng(5)
        counts = [1, 3, 9, 9, 16, 9, 40, 130, 3, 16]
        size = sum(counts)
        vals = (rng.standard_normal((4, size)) * 10.0 ** rng.uniform(-9, 9, (4, size))).T
        errs = (rng.uniform(0.0, 1.0, (4, size)) * 10.0 ** rng.uniform(-16, 2, (4, size))).T
        lows = np.sort(rng.uniform(0.0, 1.0, size)).tolist()
        cfg = QuadratureConfig(1e-12, 1e-10, 2000)
        monkeypatch.setattr(quadrature, "_ARRAY_MIN_PROBLEMS", len(counts) + 1)
        for v, e in ((vals, errs), (vals[:, 0].copy(), errs[:, 0].copy())):
            rest, _ = quadrature._array_rounds(None, cfg, list(range(len(counts))), counts, lows,
                                            lows, v, e, [None] * len(counts))
            ends = np.cumsum(counts)
            for (p, *_, totals, weight), s, t in zip(rest, ends - counts, ends):
                total = v[s:t].sum(axis=0)
                assert totals == (total.tolist(), e[s:t].sum(axis=0).tolist()), p
                if v.ndim > 1:
                    seeded = 1.0 / np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
                    assert weight == seeded.tolist(), p

    @pytest.mark.parametrize("budget", [1, 12, 30])
    def test_starved_budget_raises_the_same_error(self, monkeypatch, budget):
        starved = QuadratureConfig(1e-14, 1e-13, budget)
        outs = self.each_loop(monkeypatch, self.PROBLEMS, starved)
        assert outs[0] == outs[1] == outs[2]
        assert len(outs[0]) == 4


class TestBlockedRounds:
    # _evaluate runs a round of more than _ROUND_CAP intervals in blocks, an
    # integrand call and a GK15 reduction each; _rule reduces every interval
    # on its own, so every cap gives the same estimates and bounds, or the
    # same ConvergenceError, on every loop
    CAPS = (1, 7, quadrature._ROUND_CAP)
    STARVED = QuadratureConfig(1e-14, 1e-13, 16)

    @classmethod
    def each_cap(cls, monkeypatch, run):
        outs = []
        for cap in cls.CAPS:
            monkeypatch.setattr(quadrature, "_ROUND_CAP", cap)
            outs.append(run())
        return outs

    @pytest.mark.parametrize("budget", [STARVED, QuadratureConfig(1e-12, 1e-10, 2000)],
                             ids=["starved", "converged"])
    def test_scalar_problems(self, monkeypatch, budget):
        problems = TestScalarRounds.PROBLEMS
        outs = self.each_cap(monkeypatch, lambda: TestScalarRounds.each_loop(
            monkeypatch, [p[1] for p in problems], [p[2] for p in problems], budget,
            [p[3] for p in problems]))
        assert all(out == [outs[0][0]] * 3 for out in outs)
        assert isinstance(outs[0][0][0], str) == (budget is self.STARVED)

    @pytest.mark.parametrize("budget", [STARVED, QuadratureConfig(1e-12, 1e-10, 2000)],
                             ids=["starved", "converged"])
    def test_rows_problems(self, monkeypatch, budget):
        outs = self.each_cap(monkeypatch, lambda: TestRowsRounds.each_loop(
            monkeypatch, TestRowsRounds.PROBLEMS, budget))
        assert all(out == [outs[0][0]] * 3 for out in outs)
        assert isinstance(outs[0][0][0], str) == (budget is self.STARVED)

    @pytest.mark.parametrize("frame, budget, where", [
        ((1.0, -1.0), 2000, None),
        ((0.5, 0.5), 2000, None),
        ((1.0, -1.0), 1, " polar integral at "),
        ((1.0, 0.5), 1, " azimuthal profile at "),
        ((1.0, 0.5), 30, " azimuthal profile at "),
    ], ids=["approaching", "receding", "polar-error", "seed-azimuthal-error",
            "azimuthal-error"])
    def test_nested_problems(self, monkeypatch, frame, budget, where):
        # the oracle's azimuthal worklists run inside its polar integrand,
        # both blocked at the cap
        cfg = QuadratureConfig(1e-12, 1e-8, budget)

        def run():
            try:
                ints = channel._frame_integrals.__wrapped__(*frame, cfg, "quadrature")
            except ConvergenceError as exc:
                return str(exc), exc.problem, exc.estimate.hex(), exc.error_bound.hex()
            return sorted((kind, v.hex()) for kind, v in ints.items())

        outs = self.each_cap(monkeypatch, run)
        assert outs[0] == outs[1] == outs[2]
        assert (where is None) == isinstance(outs[0], list)
        assert where is None or where in outs[0][0]


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
