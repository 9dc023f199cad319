import numpy as np
import pytest

from boostcap.capacity import (CERF_THRESHOLD, boost_threshold, capacity_report,
                               cerf_indicator, choi_matrix, classical_capacity,
                               eq7_check, frame_report, gamma_threshold,
                               hashing_bound, is_entanglement_breaking)
from boostcap.channel import PauliLambda, PauliProbs, lambda_probs, probs_lambda
from boostcap.errors import (DomainError, PreconditionError,
                             ThresholdNotFoundError)
from boostcap.quadrature import SWEEP_CONFIG
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
