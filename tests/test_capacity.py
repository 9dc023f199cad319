import math

import numpy as np
import pytest

from boostcap import capacity, quadrature
from boostcap.capacity import (CERF_THRESHOLD, boost_threshold, capacity_report,
                               cerf_indicator, choi_matrix, classical_capacity,
                               eq7_check, frame_report, gamma_threshold,
                               hashing_bound, is_entanglement_breaking)
from boostcap.channel import (PacketFrame, PauliLambda, PauliProbs, lambda_numeric,
                              lambda_probs, probs_lambda)
from boostcap.errors import (ConvergenceError, DomainError, IntegrityError,
                             PreconditionError, RangeError, ThresholdNotFoundError)
from boostcap.quadrature import DEFAULT_CONFIG, SWEEP_CONFIG
from boostcap.special_functions import entropy


class TestClassicalCapacity:
    def test_noiseless(self):
        assert classical_capacity(PauliLambda(1, 1, 1)) == 1.0

    def test_depolarizing(self):
        assert classical_capacity(PauliLambda(0, 0, 0)) == 0.0

    def test_half_eigenvalue(self):
        lam = probs_lambda(lambda_probs(PauliLambda(0.5, 0.25, 0.25)))
        expected = 1.0 - entropy((0.75, 0.25))
        assert classical_capacity(lam) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(0.18872187554086717, abs=1e-10)

    def test_depends_only_on_max_abs(self):
        a = classical_capacity(PauliLambda(0.5, 0.25, 0.25))
        b = classical_capacity(PauliLambda(0.25, -0.5, 0.25))
        assert a == pytest.approx(b, abs=1e-15)

    def test_permutation_and_sign_flip_invariance(self):
        # all single-axis sign flips and permutations of a valid eigenvalue
        # triple that stay channels give the same classical capacity
        base = (0.5, 0.3, 0.2)
        ref = classical_capacity(PauliLambda(*base))
        import itertools
        for perm in itertools.permutations(base):
            for signs in itertools.product((1, -1), repeat=3):
                cand = tuple(s * v for s, v in zip(signs, perm))
                try:
                    lam = PauliLambda(*cand)
                except Exception:
                    continue
                assert classical_capacity(lam) == pytest.approx(ref, abs=1e-15)


class TestHashingBound:
    def test_noiseless(self):
        assert hashing_bound(PauliProbs(1, 0, 0, 0)) == (1.0, 1.0)

    def test_uniform(self):
        raw, clamped = hashing_bound(PauliProbs(0.25, 0.25, 0.25, 0.25))
        assert raw == pytest.approx(-1.0, abs=1e-14)
        assert clamped == 0.0

    def test_one_pauli_boundary(self):
        raw, clamped = hashing_bound(PauliProbs(0.5, 0.0, 0.5, 0.0))
        assert raw == 0.0 and clamped == 0.0

    def test_one_pauli_reduces_to_binary_entropy(self, rng):
        # p = (p0, 0, 1-p0, 0): the bound equals 1 - H2(p0)
        for _ in range(20):
            p0 = float(rng.uniform(0.01, 0.99))
            raw, _ = hashing_bound(PauliProbs(p0, 0.0, 1.0 - p0, 0.0))
            assert raw == pytest.approx(1.0 - entropy((p0, 1.0 - p0)), abs=1e-13)

    def test_permutation_invariance_of_noise(self, rng):
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            a = hashing_bound(PauliProbs(p[0], p[1], p[2], p[3]))[0]
            b = hashing_bound(PauliProbs(p[0], p[3], p[1], p[2]))[0]
            assert a == pytest.approx(b, abs=1e-13)


class TestCerfIndicator:
    def test_noiseless(self):
        assert cerf_indicator(PauliProbs(1, 0, 0, 0)) == 0.0

    def test_one_pauli_boundary_is_exactly_half(self):
        p = PauliProbs(0.5, 0.0, 0.5, 0.0)
        assert cerf_indicator(p) == 0.5
        # boundary counts as zero capacity
        rep = capacity_report(probs_lambda(p))
        assert rep.cerf_zero_capacity is True

    def test_uniform(self):
        assert cerf_indicator(PauliProbs(0.25, 0.25, 0.25, 0.25)) == pytest.approx(
            1.5, abs=1e-15)


class TestEntanglementBreaking:
    def test_identity_not_breaking(self):
        assert is_entanglement_breaking(PauliLambda(1, 1, 1)) is False

    def test_full_depolarization_breaking(self):
        assert is_entanglement_breaking(PauliLambda(0, 0, 0)) is True

    def test_depolarizing_transition_at_one_third(self):
        # eigenvalue-sign oracle on the partial transpose brackets t = 1/3
        lo, hi = 0.0, 1.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if is_entanglement_breaking(PauliLambda(mid, mid, mid)):
                lo = mid
            else:
                hi = mid
        assert 0.5 * (lo + hi) == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_matches_max_prob_criterion(self, rng):
        # for Pauli channels, breaking iff max_i p_i <= 1/2
        for _ in range(100):
            p = PauliProbs(*rng.dirichlet(np.ones(4)))
            if abs(max(p.as_tuple()) - 0.5) < 1e-12:
                continue
            expected = max(p.as_tuple()) <= 0.5
            assert is_entanglement_breaking(probs_lambda(p)) == expected

    def test_matches_choi_partial_transpose(self, rng):
        # the flag against the smallest eigenvalue of the partial transpose
        # of the Choi matrix itself
        def ppt(lam):
            pt = choi_matrix(lam).reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
            return bool(np.linalg.eigvalsh(pt).min() >= -1e-10)

        lams = [probs_lambda(PauliProbs(*rng.dirichlet(np.ones(4)))) for _ in range(200)]
        lams += [PauliLambda(t, t, t) for t in (1 / 3 - 1e-6, 1 / 3 + 1e-6)]
        for lam in lams:
            assert is_entanglement_breaking(lam) is ppt(lam), lam
        assert is_entanglement_breaking(lams[-2]) and not is_entanglement_breaking(lams[-1])

    def test_choi_properties(self):
        c = choi_matrix(PauliLambda(0.3, -0.2, 0.1))
        assert np.abs(c - c.conj().T).max() < 1e-14
        assert np.trace(c).real == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.eigvalsh(c).min() > -1e-14


class TestBoostThreshold:
    def test_exists_for_wide_packet(self):
        zstar = boost_threshold(20.0, SWEEP_CONFIG)
        assert -0.5 < zstar < 0.0
        # frozen from the sweep oracle
        assert zstar == pytest.approx(-0.0524, abs=2e-3)

    def test_wider_packet_needs_stronger_boost(self):
        z_wide = boost_threshold(200.0, SWEEP_CONFIG)
        z_narrow = boost_threshold(20.0, SWEEP_CONFIG)
        assert z_wide < z_narrow < 0.0

    def test_precondition_violated_when_already_positive(self):
        with pytest.raises(PreconditionError):
            boost_threshold(1.0 / 0.3, SWEEP_CONFIG)


class TestGammaThreshold:
    def test_rest_frame_crossing(self):
        ig = gamma_threshold(0.0, SWEEP_CONFIG)
        assert 0.05 < ig < 0.3
        # frozen from the quadrature oracle
        assert ig == pytest.approx(0.054813, abs=5e-4)

    def test_boost_enlarges_good_region(self):
        assert gamma_threshold(-0.05, SWEEP_CONFIG) < gamma_threshold(0.0, SWEEP_CONFIG)

    def test_strong_boost_removes_zero_capacity_region_entirely(self):
        # beyond zeta ~ -0.12 even arbitrarily wide packets concentrate at
        # the cutoff angle and carry positive capacity: no crossing exists
        with pytest.raises(ThresholdNotFoundError):
            gamma_threshold(-1.0, SWEEP_CONFIG)

    def test_not_found_without_crossing(self):
        with pytest.raises(ThresholdNotFoundError):
            gamma_threshold(0.0, SWEEP_CONFIG, inv_gamma_range=(1.5, 2.0))


class TestSolverArguments:
    # every bad argument is rejected before any channel is evaluated
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_boost_tolerance(self, tol):
        with pytest.raises(DomainError, match="zeta_tol"):
            boost_threshold(20.0, zeta_tol=tol)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.inf, math.nan])
    def test_spread_tolerance(self, tol):
        with pytest.raises(DomainError, match="rel_tol"):
            gamma_threshold(0.0, rel_tol=tol)

    @pytest.mark.parametrize("zeta_min", [0.0, 1.0, -math.inf, math.nan])
    def test_zeta_min_domain(self, zeta_min):
        with pytest.raises(DomainError, match="zeta_min"):
            boost_threshold(20.0, zeta_min=zeta_min)

    def test_zeta_min_outside_validated_domain(self):
        with pytest.raises(RangeError, match="zeta_min"):
            boost_threshold(20.0, zeta_min=-40.0)

    @pytest.mark.parametrize("solve", [boost_threshold, gamma_threshold])
    def test_unknown_method(self, solve, monkeypatch):
        monkeypatch.setattr(quadrature, "_gk15", None)      # no quadrature runs
        with pytest.raises(DomainError, match="unknown lambda method 'bogus'"):
            solve(0.5 if solve is gamma_threshold else 20.0, SWEEP_CONFIG, method="bogus")

    @pytest.mark.parametrize("bounds", [(0.0, 2.0), (-1.0, 2.0), (2.0, 1e-4), (0.5, 0.5),
                                        (1e-4, math.inf), (math.nan, 2.0)])
    def test_inv_gamma_range(self, bounds):
        with pytest.raises(DomainError, match="inv_gamma_range"):
            gamma_threshold(0.0, inv_gamma_range=bounds)


def _decreasing(kind: str, root: float):
    if kind == "linear_cubic":
        return lambda x: (root - x) + (root - x) ** 3
    if kind == "tanh":
        return lambda x: math.tanh(50.0 * (root - x))
    if kind == "triple":
        return lambda x: (root - x) ** 3
    return lambda x: 1.0 if x < root else -1.0


def test_crossing_meets_its_width_within_the_itp_budget():
    # the accuracy contract of bisection, and at most bisection's count plus
    # ITP's n0 = 2 (and 1 for rounding); a triple root is where Brent-Dekker
    # would take up to three times bisection's count
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @hypothesis.given(kind=st.sampled_from(["linear_cubic", "tanh", "triple", "step"]),
                      lo=st.floats(-10.0, 10.0), span=st.floats(1e-3, 20.0),
                      frac=st.floats(1e-3, 1.0), log_width=st.floats(-8.0, -2.0))
    def check(kind, lo, span, frac, log_width):
        hi, width = lo + span, 10.0 ** log_width
        root = lo + frac * span                 # lo < root <= hi
        f = _decreasing(kind, root)
        calls = []
        x = capacity._crossing(lambda t: calls.append(t) or f(t), lo, hi, f(lo), f(hi), width)
        # the midpoint of a bracket no wider than width, up to its rounding
        assert abs(x - root) <= 0.5 * width + math.ulp(root)
        assert len(calls) <= math.ceil(math.log2((hi - lo) / width)) + 3

    check()


@pytest.mark.parametrize("width", [1e-10, 1e-12, 1e-14])
def test_crossing_near_float_resolution(width):
    # below the property test's widths; without the projection step a triple
    # root here takes thousands of evaluations
    f = _decreasing("triple", 0.9)
    calls = []
    x = capacity._crossing(lambda t: calls.append(t) or f(t), 0.0, 1.0, f(0.0), f(1.0), width)
    assert abs(x - 0.9) <= 0.5 * width + math.ulp(0.9)
    assert len(calls) <= math.ceil(math.log2(1.0 / width)) + 3


def test_crossing_with_the_root_at_the_end_of_the_bracket():
    # f(hi) = 0 puts the regula falsi point on hi itself, where an evaluation
    # would not shrink the bracket; the midpoint is taken instead
    f = _decreasing("linear_cubic", 1.0)
    calls = []
    x = capacity._crossing(lambda t: calls.append(t) or f(t), 0.0, 1.0, f(0.0), f(1.0), 1e-12)
    assert abs(x - 1.0) <= 0.5e-12
    assert len(calls) <= 20             # bisection: 40; without the midpoint: 37


def test_crossing_stops_at_adjacent_floats():
    f = _decreasing("linear_cubic", 0.3)
    assert abs(capacity._crossing(f, 0.0, 1.0, f(0.0), f(1.0), 1e-300) - 0.3) <= math.ulp(0.3)


class TestSolverBudgets:
    @pytest.fixture
    def frames(self, monkeypatch):
        # frames, not calls: a batch of five counts five
        count = [0]
        numeric, batch = capacity.lambda_numeric, capacity.lambda_batch

        def one(frame, *args):
            count[0] += 1
            return numeric(frame, *args)

        def many(frames, *args):
            count[0] += len(frames)
            return batch(frames, *args)

        monkeypatch.setattr(capacity, "lambda_numeric", one)
        monkeypatch.setattr(capacity, "lambda_batch", many)
        return count

    def test_boost_threshold(self, frames):
        boost_threshold(20.0, DEFAULT_CONFIG)
        assert frames[0] <= 12          # bisection took 22

    def test_gamma_threshold(self, frames):
        gamma_threshold(0.0, DEFAULT_CONFIG)
        assert frames[0] <= 10          # bisection took 21

    # the benchmark's six solves; its check reads the sign change across
    # root -/+ one tolerance
    @pytest.mark.parametrize("gamma", [20.0, 50.0, 200.0])
    def test_boost_root_brackets_the_sign_change(self, gamma):
        root = boost_threshold(gamma, SWEEP_CONFIG)

        def raw(z):
            lam = lambda_numeric(PacketFrame(gamma, z), SWEEP_CONFIG, "closed_profile")
            return hashing_bound(lambda_probs(lam))[0]

        assert raw(root - 1e-4) > 0.0 >= raw(root + 1e-4)

    @pytest.mark.parametrize("zeta", [0.0, 0.5, 1.0])
    def test_spread_root_brackets_the_sign_change(self, zeta):
        root = gamma_threshold(zeta, SWEEP_CONFIG)

        def margin(inv_gamma):
            lam = lambda_numeric(PacketFrame(1.0 / inv_gamma, zeta), SWEEP_CONFIG,
                                 "closed_profile")
            return cerf_indicator(lambda_probs(lam)) - CERF_THRESHOLD

        assert margin(root * (1 - 1e-4)) > 0.0 >= margin(root * (1 + 1e-4))


class TestBoostErrorPrecedence:
    # the five guard samples come from one batch; their errors are raised in
    # the order the serial guard met them: rest, precondition, zeta_min, no
    # crossing, interior samples, monotonicity
    @pytest.fixture
    def guard(self, monkeypatch):
        good = {z: lambda_numeric(PacketFrame(20.0, z), SWEEP_CONFIG, "closed_profile")
                for z in (-10.0, -7.5, -5.0, -2.5, 0.0)}
        entries = list(good.values())
        monkeypatch.setattr(capacity, "lambda_batch", lambda frames, *args: list(entries))
        return entries

    @staticmethod
    def _error(where):
        return ConvergenceError(f"at {where}", 0.0, 1.0)

    def test_rest_error_first(self, guard):
        guard[4], guard[0], guard[2] = self._error(0), self._error(-10), self._error(-5)
        with pytest.raises(ConvergenceError, match="at 0 "):
            boost_threshold(20.0, SWEEP_CONFIG)

    def test_precondition_before_zeta_min_error(self, guard):
        guard[4], guard[0] = PauliLambda(1.0, 1.0, 1.0), self._error(-10)
        with pytest.raises(PreconditionError):
            boost_threshold(20.0, SWEEP_CONFIG)

    def test_zeta_min_error_before_no_crossing_and_interior(self, guard):
        guard[0], guard[2] = self._error(-10), self._error(-5)
        with pytest.raises(ConvergenceError, match="at -10 "):
            boost_threshold(20.0, SWEEP_CONFIG)

    def test_no_crossing_before_interior_error(self, guard):
        guard[0], guard[2] = guard[4], self._error(-5)
        with pytest.raises(ThresholdNotFoundError):
            boost_threshold(20.0, SWEEP_CONFIG)

    def test_interior_error_before_monotonicity(self, guard):
        guard[1], guard[3] = guard[4], self._error(-2.5)
        with pytest.raises(ConvergenceError, match="at -2.5 "):
            boost_threshold(20.0, SWEEP_CONFIG)

    def test_monotonicity(self, guard):
        guard[1] = guard[4]
        with pytest.raises(IntegrityError, match="not monotone"):
            boost_threshold(20.0, SWEEP_CONFIG)


class TestEq7:
    def test_identity_depolarizing(self):
        rep = eq7_check(1.0)
        assert rep.hashing_p2_raw == 0.0
        assert rep.cerf_p2 == 0.5
        assert rep.cerf_composite == pytest.approx(0.5, abs=1e-15)
        assert rep.composite_zero_capacity is True

    def test_fully_depolarizing(self):
        rep = eq7_check(0.0)
        assert rep.cerf_composite == pytest.approx(1.5, abs=1e-15)

    def test_sweep_always_zero_capacity(self):
        for c in [0.1 * k for k in range(11)]:
            rep = eq7_check(c)
            assert rep.hashing_p2_raw == 0.0
            assert rep.cerf_composite >= CERF_THRESHOLD - 1e-15
            assert rep.composite_zero_capacity is True

    def test_domain(self):
        with pytest.raises(DomainError):
            eq7_check(1.2)


class TestReportConsistency:
    def test_bound_ordering_random_channels(self, rng):
        # hashing <= classical holds for every channel: the classical formula
        # coarse-grains the four-outcome distribution into two bins
        for _ in range(100):
            lam = probs_lambda(PauliProbs(*rng.dirichlet(np.ones(4))))
            rep = capacity_report(lam)
            assert 0.0 <= rep.classical <= 1.0 + 1e-12
            assert rep.hashing <= rep.classical + 1e-12
            assert rep.cerf >= 0.0

    def test_zero_capacity_flag_consistent_on_produced_family(self):
        # the no-cloning certificate and the hashing bound must agree on
        # channels the pipeline actually produces (identity-dominant)
        for inv_g in (0.01, 0.05, 0.2, 0.5):
            _, rep = frame_report(1.0 / inv_g, 0.0, SWEEP_CONFIG)
            if rep.cerf_zero_capacity:
                assert rep.hashing == 0.0
            else:
                assert rep.hashing_raw > 0.0 or rep.cerf < CERF_THRESHOLD

    def test_frame_report_smoke(self):
        lam, rep = frame_report(1.0 / 0.3, 0.0, SWEEP_CONFIG)
        assert rep.hashing_raw > 0.5
        assert rep.cerf < 0.2
        assert rep.entanglement_breaking is False
