"""Channel tests.

The central oracle is a fixed-order 2D Gauss-Legendre evaluation of the
eigenvalue integrals at high resolution, written directly from the angular
formulas with no code shared with the adaptive path.  Golden eigenvalues at
reference points were frozen from an earlier independent run of that oracle.
"""

import math

import numpy as np
import pytest

from boostcap import channel, quadrature, sweep
from boostcap.channel import (LAMBDA3_CONSTANT, PacketFrame, PauliLambda,
                              PauliProbs, QubitState, apply_pauli,
                              apply_pauli_matrix, compose, g_funcs,
                              identity_residuals, lambda12_series,
                              lambda3_bracket, lambda3_closed, lambda_numeric,
                              lambda_probs, phi_profile, phi_profile_closed,
                              probs_lambda, rho_direct, series_coeffs,
                              state_density)
from boostcap.errors import (ConvergenceError, DomainError, IntegrityError,
                             NotAChannelError, RangeError)
from boostcap.quadrature import (DEFAULT_CONFIG, SWEEP_CONFIG, QuadratureConfig,
                                 geometric_refinement, integrate)
from boostcap.wavepacket import (kernel_values, norm_scale, normalization, theta_breakpoints,
                                 theta_c)

# the validated domain of the fast path, Gamma 1e-3 to 1e4 and |zeta| <= 10
VALIDATED_GRID = [PacketFrame(g, z)
                  for g in (1e-3, 0.01, 0.1, 0.5, 1.0, 5.0, 20.0, 200.0, 1e3, 1e4)
                  for z in (-10.0, -3.0, -1.0, -0.3, 0.0, 0.5, 1.0, 2.0,
                            4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)]


def gauss_legendre_lambda_oracle(gamma, zeta, n_theta=1600, n_phi=700):
    """Brute-force fixed-order tensor-grid evaluation of the three eigenvalue
    integrals, an order of magnitude above the resolution the adaptive path
    needs.  Independent code path: naive kernel formula, no symmetry
    reductions, no closed-form profiles."""
    tc = theta_c(zeta)
    xt, wt = np.polynomial.legendre.leggauss(n_theta)
    th = 0.5 * tc * (xt + 1.0)
    wth = 0.5 * tc * wt
    xp, wp = np.polynomial.legendre.leggauss(n_phi)
    ph = math.pi * (xp + 1.0)
    wph = math.pi * wp

    d = np.sinh(zeta) + np.cosh(zeta) * np.cos(th)
    kern = np.where(d > 0,
                    np.exp(-np.sin(th) ** 2 / (gamma ** 2 * d ** 2))
                    * np.sin(th) / d ** 2, 0.0)

    ct = np.cos(th)[:, None]
    u = (np.sin(th) ** 2)[:, None]
    cp2 = (np.cos(ph) ** 2)[None, :]
    sp2 = 1.0 - cp2
    c2p = np.cos(2 * ph)[None, :]
    s2p2 = (np.sin(2 * ph) ** 2)[None, :]
    den_c = 1.0 - cp2 * u
    root = np.sqrt(den_c * (1.0 - sp2 * u))

    g2 = 0.5 * (cp2 * c2p * ct * ct - c2p * sp2 + ct * s2p2)
    g5 = 0.25 * (2.0 * c2p * c2p * ct + s2p2 + ct * ct * s2p2)
    g6 = -0.5 * ct * np.ones_like(c2p)

    i5 = wth @ (kern * ((g5 / root) @ wph))
    i6 = wth @ (kern * ((g6 / root) @ wph))
    i2 = wth @ (kern * ((g2 / den_c) @ wph))
    norm = 2.0 * math.pi * (wth @ kern)
    return 2 * i5 / norm, -2 * i6 / norm, 2 * i2 / norm


class TestGFuncs:
    def test_forward_direction_values(self, rng):
        for ph in rng.uniform(0, 2 * math.pi, 25):
            g1, g2, g3, g4, g5, g6 = g_funcs(0.0, float(ph))
            assert g1 == pytest.approx(0.5, abs=1e-15)
            assert g3 == pytest.approx(0.5, abs=1e-15)
            assert g5 == pytest.approx(0.5, abs=1e-15)
            assert g6 == pytest.approx(-0.5, abs=1e-15)

    def test_diagonal_ratios_are_half(self, rng):
        for _ in range(50):
            th, ph = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            g = g_funcs(th, ph)
            u = math.sin(th) ** 2
            assert g[0] / (1 - math.cos(ph) ** 2 * u) == pytest.approx(0.5, abs=1e-13)
            assert g[2] / (1 - math.sin(ph) ** 2 * u) == pytest.approx(0.5, abs=1e-13)

    def test_quarter_turn_antisymmetry(self, rng):
        for _ in range(50):
            th, ph = rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)
            assert g_funcs(th, ph + math.pi / 2)[1] == pytest.approx(
                -g_funcs(th, ph)[3], abs=1e-14)


class TestProfiles:
    def test_closed_matches_quadrature(self, cfg):
        kinds = ("g1_cos", "g2_cos", "g3_sin", "g4_sin", "g5_sqrt", "g6_sqrt")
        for th in (0.05, 0.4, 1.0, 1.45, 1.62, 2.3, 3.0):
            for kind in kinds:
                a = phi_profile(kind, th, cfg)
                b = phi_profile_closed(kind, th)
                assert a == pytest.approx(b, abs=1e-9), (kind, th)

    @pytest.mark.parametrize("offset", [0.0, 1e-9, -1e-9, 1e-7, -1e-7, 1e-5, -1e-5])
    def test_quadrature_matches_closed_across_half_pi(self, offset):
        # the azimuthal denominators shrink to cos^2 t at the axes here; the
        # adaptive profiles must neither fail nor lose digits in this band
        th = math.pi / 2 + offset
        for kind in channel.PROFILE_KINDS:
            got = phi_profile(kind, th, DEFAULT_CONFIG)
            assert got == pytest.approx(float(phi_profile_closed(kind, th)), abs=1e-12), kind

    def test_backward_hemisphere_l3_profile_vanishes(self):
        for th in (1.6, 2.0, 2.9):
            assert phi_profile_closed("g2_cos", th) == 0.0


class TestLambdaNumeric:
    def test_noiseless_limit(self, cfg):
        lam = lambda_numeric(PacketFrame(1e-3, 0.0), cfg)
        for v in lam.as_tuple():
            assert v == pytest.approx(1.0, abs=1e-3)
        # the second eigenvalue limit is +1; this pins the sign convention
        assert lam.l2 > 0.999

    def test_brute_force_oracle_rest(self, cfg):
        ref = gauss_legendre_lambda_oracle(1.0, 0.0)
        lam = lambda_numeric(PacketFrame(1.0, 0.0), cfg)
        for got, want in zip(lam.as_tuple(), ref):
            assert got == pytest.approx(want, abs=1e-7)

    def test_brute_force_oracle_boosted(self, cfg):
        ref = gauss_legendre_lambda_oracle(0.5, -1.0)
        lam = lambda_numeric(PacketFrame(0.5, -1.0), cfg)
        for got, want in zip(lam.as_tuple(), ref):
            assert got == pytest.approx(want, abs=1e-7)

    def test_golden_rest_frame_point(self, cfg):
        # frozen from an independent adaptive-quadrature oracle run
        lam = lambda_numeric(PacketFrame(1.0, 0.0), cfg)
        assert lam.l1 == pytest.approx(0.999584854, abs=2e-8)
        assert lam.l2 == pytest.approx(0.975632931, abs=2e-8)
        assert lam.l3 == pytest.approx(0.975257499, abs=2e-8)

    @pytest.mark.parametrize("gamma, zeta, expected", [
        (5.0, 0.0, (0.972617083, 0.749886442, 0.733632267)),
        (20.0, 0.0, (0.880300332, 0.440080341, 0.399232648)),
        (1.0, 1.0, (0.669916082, 0.205919715, 0.419622238)),
        (20.0, -1.0, (0.999964994, 0.989031099, 0.988996562)),
    ])
    def test_golden_grid_cross_run(self, cfg, gamma, zeta, expected):
        # frozen from an independent oracle run on a different numerical
        # stack (nested globally-adaptive quadrature over the same formulas)
        lam = lambda_numeric(PacketFrame(gamma, zeta), cfg, "closed_profile")
        for got, want in zip(lam.as_tuple(), expected):
            assert got == pytest.approx(want, abs=3e-8)

    def test_boost_amplifies_first_eigenvalue(self, cfg):
        g = 20.0
        rest = lambda_numeric(PacketFrame(g, 0.0), cfg, "closed_profile")
        boosted = lambda_numeric(PacketFrame(g, -2.0), cfg, "closed_profile")
        assert boosted.l1 > rest.l1

    def test_methods_agree(self, cfg):
        # includes a wide boosted packet whose kernel is a near-cutoff spike
        for (g, z) in ((0.5, 0.0), (1.0, 1.0), (5.0, -1.0), (5.0, 2.0),
                       (200.0, -0.5)):
            a = lambda_numeric(PacketFrame(g, z), cfg, "quadrature")
            b = lambda_numeric(PacketFrame(g, z), cfg, "closed_profile")
            for x, y in zip(a.as_tuple(), b.as_tuple()):
                assert x == pytest.approx(y, abs=1e-9)

    def test_unknown_method(self, cfg):
        with pytest.raises(DomainError):
            lambda_numeric(PacketFrame(1.0, 0.0), cfg, "fft")

    @pytest.mark.parametrize("gamma, zeta, expected", [
        (1.0, 8.0, (8.6655281180877e-07, -0.9999984287664014, 3.9596886030348837e-07)),
        (1e-3, 5.0, (0.9999999944832224, 0.9999393601049176, 0.9999393545931553)),
        (1.0, 2.0, (0.13048237256344747, -0.7644451051379622, 0.06353901818511795)),
    ])
    def test_fast_path_against_mpmath_references(self, gamma, zeta, expected):
        # 40-digit mpmath rest-frame quadrature with dense seeds; a change of
        # polar variable or breakpoints can converge to a wrong value (a lost
        # spike or Gaussian tail) that fast-path vs oracle agreement misses.
        # The oracle is held to the same references
        for method in ("closed_profile", "quadrature"):
            lam = lambda_numeric(PacketFrame(gamma, zeta), DEFAULT_CONFIG, method)
            for got, want in zip(lam.as_tuple(), expected):
                assert got == pytest.approx(want, abs=1e-10), method

    @pytest.mark.parametrize("gamma, zeta, expected", [
        (1e-3, 7.0, (0.9640152362812834, 0.8396791782389343, 0.8473204077472724)),
        (1.0, 0.5, (0.97362440403452465, 0.82627121128368223, 0.82010943558747050)),
        (0.1, 2.0, (0.99801392006267020, 0.96530600473777774, 0.96429935028889504)),
    ])
    def test_fast_path_against_receding_references(self, gamma, zeta, expected):
        # 30-digit mpmath lab-frame tanh-sinh with breakpoints at pi/2 and
        # 15 equal cuts of [0, theta_c]; the g5 and g6 profiles are
        # log-singular at pi/2, which cost the fast path 2.0e-10 at
        # (1e-3, 7) without its seed stacks toward it.  The oracle meets
        # (1e-3, 7) only with abs_tol applied to N-scaled integrals: the raw
        # ones are about 1e-6 there
        for method in ("closed_profile", "quadrature"):
            lam = lambda_numeric(PacketFrame(gamma, zeta), DEFAULT_CONFIG, method)
            for got, want in zip(lam.as_tuple(), expected):
                assert got == pytest.approx(want, abs=1e-12), method

    @pytest.mark.parametrize("cfg", [SWEEP_CONFIG, DEFAULT_CONFIG], ids=["sweep", "default"])
    def test_fast_path_converges_on_the_validated_domain(self, cfg):
        # Gamma 1e-3 to 1e4 and |zeta| <= 10; receding frames near the top
        # of this range once exhausted the subdivision budget
        lams = channel.lambda_batch(VALIDATED_GRID, cfg)
        failed = [(f, lam) for f, lam in zip(VALIDATED_GRID, lams)
                  if not isinstance(lam, PauliLambda)]
        assert failed == []

    def test_fast_path_norm_matches_closed_form(self):
        # N divides every eigenvalue; its quadrature, on rows scaled by a
        # power of two near 2 pi / N, tracks the closed form on the whole
        # domain (worst 5.5e-9, at |zeta| = 10)
        for frame, ints in zip(VALIDATED_GRID,
                               channel._closed_integrals(VALIDATED_GRID, DEFAULT_CONFIG)):
            n = normalization(frame, "closed_form")
            assert ints["norm"] == pytest.approx(n, rel=1e-8, abs=0.0), frame

    def test_fast_path_is_one_integral_per_frame(self, monkeypatch):
        # one worklist with one rows problem per uncached frame, none when cached
        problems = []

        def counting_batch(f, a, *args, **kwargs):
            problems.append(len(a))
            return integrate_batch(f, a, *args, **kwargs)

        integrate_batch = channel.integrate_batch
        monkeypatch.setattr(channel, "integrate_batch", counting_batch)
        monkeypatch.setattr(channel, "integrate", None)
        frame = PacketFrame(0.8123, -0.4567)   # used by no other test: uncached
        lam = lambda_numeric(frame, DEFAULT_CONFIG, "closed_profile")
        assert problems == [1]
        assert lambda_numeric(frame, DEFAULT_CONFIG, "closed_profile") == lam
        assert problems == [1]

    def test_oracle_batches_its_azimuthal_integrals(self, monkeypatch):
        # the six kinds and N are seven problems of one polar worklist, and
        # each polar round runs one azimuthal worklist for all six kinds
        # inside it: no integral per kind or per polar node; measured 303
        # GK15 calls at this frame, 487 with one azimuthal worklist per kind
        polar, azimuthal, polar_rounds, batches, depth = [], [], [], [], []

        def counting_batch(f, a, *args, **kwargs):
            (azimuthal if depth else polar).append(len(a))
            depth.append(1)
            try:
                return integrate_batch(f, a, *args, **kwargs)
            finally:
                depth.pop()

        def counting_gk15(*args):
            batches.append(len(args[1]))
            if len(depth) == 1:
                polar_rounds.append(len(args[1]))
            return gk15(*args)

        integrate_batch, gk15 = channel.integrate_batch, quadrature._gk15
        monkeypatch.setattr(channel, "integrate_batch", counting_batch)
        monkeypatch.setattr(channel, "integrate", None)
        monkeypatch.setattr(quadrature, "_gk15", counting_gk15)
        channel._frame_integrals.__wrapped__(1.0, 0.5, DEFAULT_CONFIG, "quadrature")
        assert polar == [len(channel.PROFILE_KINDS) + 1]
        assert len(azimuthal) == len(polar_rounds) > 1
        assert len(batches) < 330

    def test_azimuthal_worklist_loops_agree_near_half_pi(self, monkeypatch):
        # at least the array loop's threshold of azimuthal problems, all six
        # kinds in no particular order, within 1e-6 of pi/2 where the layers
        # are narrowest: the array loop, with or without its hand-over to
        # the generators, gives the generators' bits
        n = 2 * quadrature._ARRAY_MIN_PROBLEMS
        rng = np.random.default_rng(17)
        thetas = (math.pi / 2 + rng.uniform(-1e-6, 1e-6, n)).tolist()
        kinds = rng.integers(0, len(channel.PROFILE_KINDS), n).tolist()
        assert set(kinds) == set(range(len(channel.PROFILE_KINDS)))
        got = []
        for least in (1, quadrature._ARRAY_MIN_PROBLEMS, 10 ** 9):
            monkeypatch.setattr(quadrature, "_ARRAY_MIN_PROBLEMS", least)
            got.append(channel._azimuthal_profiles(kinds, thetas, DEFAULT_CONFIG).tobytes())
        assert got[0] == got[1] == got[2]

    # approaching, rest and receding frames across the validated domain,
    # twice the array loop's threshold of them, shuffled
    LOOP_FRAMES = [PacketFrame(g, z) for g, z in np.random.default_rng(23).permutation(
        [(g, z) for g in (1e-3, 0.1, 1.0, 20.0, 1e4)
         for z in (-10.0, -9.5, -3.0, -0.5, 0.0, 0.7, 2.0, 5.0, 9.0, 10.0)]).tolist()]

    @staticmethod
    def each_loop(monkeypatch, run):
        # run() under the array loop throughout, with its hand-over to the
        # generators at its threshold, and on the generators alone
        outs = []
        for least in (1, quadrature._ARRAY_MIN_PROBLEMS, 10 ** 9):
            monkeypatch.setattr(quadrature, "_ARRAY_MIN_PROBLEMS", least)
            outs.append(run())
        return outs

    @pytest.mark.parametrize("cfg", [SWEEP_CONFIG, DEFAULT_CONFIG], ids=["sweep", "default"])
    def test_fast_path_worklist_loops_agree(self, monkeypatch, cfg):
        frames = self.LOOP_FRAMES
        assert len(frames) >= 2 * quadrature._ARRAY_MIN_PROBLEMS
        outs = self.each_loop(monkeypatch, lambda: [
            tuple(v.hex() for v in lam.as_tuple()) for lam in channel.lambda_batch(frames, cfg)])
        assert outs[0] == outs[1] == outs[2]

    def test_fast_path_worklist_loops_fail_the_same_frames(self, monkeypatch):
        # under this budget some frames fail; each one's error, with its
        # row's estimate and bound and its frame's index, is the same on
        # every loop
        starved = QuadratureConfig(1e-12, 1e-8, 35)

        def run():
            return [(str(e), e.estimate.hex(), e.error_bound.hex(), e.problem)
                    if isinstance(e, ConvergenceError) else tuple(v.hex() for v in e.as_tuple())
                    for e in channel.lambda_batch(self.LOOP_FRAMES, starved)]

        outs = self.each_loop(monkeypatch, run)
        assert outs[0] == outs[1] == outs[2]
        failed = [k for k, e in enumerate(outs[0]) if len(e) == 4]
        assert 0 < len(failed) < len(self.LOOP_FRAMES)
        assert [outs[0][k][3] for k in failed] == failed

    @pytest.mark.parametrize("run", [
        lambda: sweep.run_sweep(sweep.SweepSpec("inv_gamma", 0.001, 1.0, 200, 1.0), SWEEP_CONFIG,
                                jobs=1),
        lambda: channel._frame_integrals.__wrapped__(1.0, 0.5, DEFAULT_CONFIG, "quadrature"),
    ], ids=["receding-curve", "oracle-frame"])
    def test_large_batches_stay_on_the_array_loop(self, monkeypatch, run):
        # the array loop hands a batch to the generators early only for a
        # rare decision (budget, zero priority, floating point resolution),
        # which these inputs never need: a worklist of at least
        # _ARRAY_MIN_PROBLEMS problems starts generators only for its last
        # few.  Worklists nest: the oracle's azimuthal ones run inside its
        # polar integrand
        least = quadrature._ARRAY_MIN_PROBLEMS
        worklist, refine = quadrature._worklist, quadrature._refine
        started, sizes = [], []

        def counting_worklist(f, a, *args):
            started.append(0)
            try:
                return worklist(f, a, *args)
            finally:
                sizes.append((len(a), started.pop()))

        def counting_refine(*args):
            started[-1] += 1
            return refine(*args)

        monkeypatch.setattr(quadrature, "_worklist", counting_worklist)
        monkeypatch.setattr(quadrature, "_refine", counting_refine)
        run()
        large = [n for problems, n in sizes if problems >= least]
        assert large and max(large) <= least - 1

    def test_quarter_seeds_are_the_geometric_stack(self, monkeypatch):
        # a node's seeds come from a table by their count; they must be the
        # geometric_refinement stack toward both axes that they replace
        thetas = [0.01, 0.7, 1.2, 1.5, 1.57, math.pi / 2, math.pi / 2 + 1e-13,
                  math.pi / 2 - 1e-9, 1.6, 2.5, 3.1]
        seen = []

        def spying_batch(f, a, b, cfg, seeds):
            seen.extend(seeds)
            return integrate_batch(f, a, b, cfg, seeds)

        integrate_batch = channel.integrate_batch
        monkeypatch.setattr(channel, "integrate_batch", spying_batch)
        channel._azimuthal_profiles("g5_sqrt", thetas, SWEEP_CONFIG)
        for theta, seeds in zip(thetas, seen):
            stack = geometric_refinement(0.0, math.pi / 2, abs(math.cos(theta)))
            assert list(seeds) == stack + [math.pi / 2 - p for p in stack], theta

    @pytest.mark.parametrize("frame", [PacketFrame(1.0, 0.0), PacketFrame(0.5, -1.0),
                                       PacketFrame(0.5, 0.5), PacketFrame(1e-3, 7.0)])
    def test_oracle_kinds_are_their_polar_integrals_run_alone(self, frame):
        # one worklist for the six kinds changes no kind's bits: each equals
        # its own polar integral of s K times its adaptive profile, s the
        # frame's norm_scale, divided by s; at Gamma = 1e-3 the unscaled
        # integrals are about 1e-6 and meet abs_tol far sooner
        scale = norm_scale(frame.gamma)

        def alone(kind):
            def outer(ts):
                kv = scale * kernel_values(ts, frame)
                live = kv > 0.0
                vals = np.zeros_like(kv)
                vals[live] = kv[live] * channel._azimuthal_profiles(kind, ts[live], SWEEP_CONFIG)
                return vals
            return integrate(outer, 0.0, theta_c(frame.zeta), SWEEP_CONFIG,
                             breakpoints=theta_breakpoints(frame))[0] / scale

        [got] = channel._oracle_integrals([frame], SWEEP_CONFIG)
        assert list(got) == [*channel.PROFILE_KINDS, "norm"]
        assert got["norm"] == normalization(frame, "quadrature", SWEEP_CONFIG)
        for kind in channel.PROFILE_KINDS:
            assert got[kind].hex() == alone(kind).hex(), kind

    def test_receding_oracle_frame_has_no_roundoff_tail(self, monkeypatch):
        # polar nodes near t = pi/2 must not bisect their azimuthal layers
        # down to rounding; measured 383 GK15 calls at this frame, 594 with
        # one azimuthal worklist per kind
        batches = []

        def counting_gk15(*args):
            batches.append(len(args[1]))
            return gk15(*args)

        gk15 = quadrature._gk15
        monkeypatch.setattr(quadrature, "_gk15", counting_gk15)
        channel._frame_integrals.__wrapped__(5.0, 0.5, DEFAULT_CONFIG, "quadrature")
        assert len(batches) < 420

    def test_oracle_convergence_error_says_where(self):
        # with one subdivision the kinds' polar integrals fail in their
        # first round at an approaching frame, g1 first by its index; at a
        # receding one the g2 azimuthal profiles fail inside the first polar
        # round, and that error passes through the polar worklist unchanged
        starved = QuadratureConfig(max_subdivisions=1)
        frame = PacketFrame(1.0, -1.0)
        with pytest.raises(ConvergenceError) as exc:
            lambda_numeric(frame, starved, "quadrature")
        assert str(exc.value).startswith(f"g1_cos polar integral at {frame!r} did not "
                                         "converge within 1 subdivisions")
        frame = PacketFrame(1.0, 0.5)
        with pytest.raises(ConvergenceError) as exc:
            lambda_numeric(frame, starved, "quadrature")
        kind, _, rest = str(exc.value).partition(" azimuthal profile at theta=")
        assert kind == "g2_cos"
        assert 0.0 < float(rest.split()[0]) < theta_c(frame.zeta)
        assert "within 1 subdivisions" in rest
        assert type(exc.value.estimate) is float and math.isfinite(exc.value.estimate)
        assert type(exc.value.error_bound) is float and exc.value.error_bound > 0

    @pytest.mark.parametrize("batched", [False, True])
    def test_fast_path_convergence_error_carries_floats(self, batched):
        # the budget that fails only zeta = 6 of the frames at Gamma = 1
        # (see TestBatchedSweep); the error names the row furthest from its
        # tolerance and carries that row's estimate and bound
        starved = QuadratureConfig(1e-12, 1e-8, 35)
        frame = PacketFrame(1.0, 6.0)
        if batched:
            exc = channel.lambda_batch([PacketFrame(1.0, 2.0), frame], starved)[1]
            assert isinstance(exc, ConvergenceError) and exc.problem == 1
        else:
            with pytest.raises(ConvergenceError) as info:
                lambda_numeric(frame, starved, "closed_profile")
            exc = info.value
        row, _, rest = str(exc).partition(" row of the polar integral at ")
        assert row in ("g2_cos", "g5_sqrt", "g6_sqrt", "N")
        assert rest.startswith(f"{frame!r} did not converge within 35 subdivisions")
        assert type(exc.estimate) is float and math.isfinite(exc.estimate)
        assert type(exc.error_bound) is float and exc.error_bound > 0
        assert "array(" not in str(exc)

    @pytest.mark.parametrize("method", ["closed_profile", "quadrature"])
    def test_zero_cutoff_angle_is_a_range_error(self, method):
        # theta_c = acos(-tanh zeta) rounds to 0 for zeta <= -19.25: the polar
        # range is empty, and the frame is refused before any quadrature
        assert theta_c(-20.0) == 0.0 < theta_c(-19.0)
        with pytest.raises(RangeError, match="cutoff angle"):
            lambda_numeric(PacketFrame(20.0, -20.0), DEFAULT_CONFIG, method)

    def test_zero_cutoff_angle_is_its_frame_entry_in_a_batch(self):
        frames = [PacketFrame(20.0, -20.0), PacketFrame(20.0, -1.0), PacketFrame(1.0, -25.0)]
        out = channel.lambda_batch(frames, DEFAULT_CONFIG)
        assert isinstance(out[0], RangeError) and isinstance(out[2], RangeError)
        assert out[1] == lambda_numeric(frames[1], DEFAULT_CONFIG, "closed_profile")

    def test_oracle_batch_is_each_frame_alone(self):
        # approaching, rest and receding frames share one oracle worklist,
        # and the cutoff frame is refused before it
        frames = [PacketFrame(0.5, -1.0), PacketFrame(1.0, 0.0), PacketFrame(0.5, 0.5),
                  PacketFrame(20.0, -21.0)]
        out = channel.lambda_batch(frames, SWEEP_CONFIG, "quadrature")
        assert isinstance(out[3], RangeError)
        channel._frame_integrals.cache_clear()
        for frame, lam in zip(frames[:3], out):
            alone = lambda_numeric(frame, SWEEP_CONFIG, "quadrature")
            assert [v.hex() for v in lam.as_tuple()] == [v.hex() for v in alone.as_tuple()]

    @pytest.mark.parametrize("budget, frames, failing, where", [
        # (20, -1) alone exhausts 8 polar subdivisions
        (8, [(1.0, -1.0), (20.0, -1.0), (0.1, -2.0)], 1, " polar integral at "),
        # (1, 0.5) alone exhausts 30 subdivisions of a g6 azimuthal profile
        (30, [(1.0, -1.0), (1.0, 0.0), (1.0, 0.5), (0.5, 0.5)], 2, " azimuthal profile at "),
    ], ids=["polar", "azimuthal"])
    def test_oracle_batch_flags_the_frame_that_fails(self, budget, frames, failing, where):
        starved = QuadratureConfig(SWEEP_CONFIG.abs_tol, SWEEP_CONFIG.rel_tol, budget)
        frames = [PacketFrame(*f) for f in frames]
        out = channel.lambda_batch(frames, starved, "quadrature")
        assert [k for k, lam in enumerate(out) if not isinstance(lam, PauliLambda)] == [failing]
        assert isinstance(out[failing], ConvergenceError) and out[failing].problem == failing
        assert where in str(out[failing])
        for k, (frame, lam) in enumerate(zip(frames, out)):
            if k != failing:
                alone = lambda_numeric(frame, starved, "quadrature")
                assert [v.hex() for v in lam.as_tuple()] == [v.hex() for v in alone.as_tuple()]

    def test_unknown_method_is_refused_before_any_quadrature(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_gk15", None)
        frames = [PacketFrame(1.0, 0.5), PacketFrame(20.0, -21.0)]
        with pytest.raises(DomainError, match="unknown lambda method 'bogus'"):
            channel.lambda_batch(frames, SWEEP_CONFIG, "bogus")
        with pytest.raises(DomainError, match="unknown lambda method 'bogus'"):
            lambda_numeric(frames[0], SWEEP_CONFIG, "bogus")

    @pytest.mark.parametrize("method", ["closed_profile", "quadrature"])
    def test_eigenvalues_are_python_floats(self, cfg, method):
        # numpy scalars would leak numpy bools into sweep rows and manifests
        lam = lambda_numeric(PacketFrame(0.5, 0.5), cfg, method)
        assert all(type(v) is float for v in lam.as_tuple())


class TestIdentities:
    def test_residuals_small_on_grid(self, cfg):
        for (g, z) in ((1.0, 0.0), (0.2, 1.5), (5.0, -2.0)):
            r1, r2 = identity_residuals(PacketFrame(g, z), cfg)
            assert r1 < 1e-10
            assert r2 < 1e-8

    def test_specific_boosted_point(self, cfg):
        r1, r2 = identity_residuals(PacketFrame(0.2, 1.5), cfg)
        assert r2 < 1e-8

    def test_residuals_read_the_oracle_cache(self, monkeypatch):
        # after an oracle evaluation at a frame the identities cost no
        # quadrature: they read the same cached frame integrals
        frame = PacketFrame(0.8123, -0.4567)
        lambda_numeric(frame, DEFAULT_CONFIG, "quadrature")
        batches = []

        def counting_gk15(*args):
            batches.append(len(args[1]))
            return gk15(*args)

        gk15 = quadrature._gk15
        monkeypatch.setattr(quadrature, "_gk15", counting_gk15)
        identity_residuals(frame, DEFAULT_CONFIG)
        assert batches == []

    @pytest.mark.parametrize("kind, which, tol", [("g3_sin", 0, 1e-10), ("g4_sin", 1, 1e-8)])
    def test_perturbed_integrand_breaks_an_identity(self, monkeypatch, kind, which, tol):
        # one integrand scaled by 1 + 1e-6 must push its identity's residual
        # past verify's tolerance
        plain = channel._phi_integrand

        def perturbed(k, ct, phis):
            out = plain(k, ct, phis)
            return out * (1.0 + 1e-6) if k == kind else out

        monkeypatch.setattr(channel, "_phi_integrand", perturbed)
        channel._frame_integrals.cache_clear()
        try:
            residuals = identity_residuals(PacketFrame(0.8123, -0.4567), DEFAULT_CONFIG)
        finally:
            channel._frame_integrals.cache_clear()
        assert residuals[which] > tol


class TestOraclePinned:
    # oracle values of the version that ran one adaptive azimuthal integral
    # per polar node, at DEFAULT_CONFIG: eigenvalues, the six frame
    # integrals (g1..g6) and the identity residuals.  Batching the profiles
    # changes no splitting decision, and the GK15 rule reduces each interval
    # on its own, so a batched profile has the bits of its one-node call.
    # The rule's reduction order has changed since these were pinned, which
    # moved some of them in their last bits, within 1e-15 relative.
    PINNED = (
        ((0.5, -2.0), (0.99999999999829092, 0.99999866162146189, 0.99999866161975293),
         (0.35553172366738944, 0.35553124783075329, 0.35553172366738944,
          -0.35553124783075329, 0.35553172366678182, -0.35553124783136086),
         (0.0, 0.0)),
        ((1.0, -1.0), (0.99999986106806227, 0.99954696397069198, 0.99954682529198935),
         (1.1904627990469012, 1.1899233114155456, 1.1904627990469012,
          -1.1899233114155456, 1.1904626336535977, -1.1899234765073821),
         (0.0, 0.0)),
        ((0.5, -0.5), (0.99999972185344499, 0.99946033599841566, 0.99946005887166478),
         (0.35553172366738939, 0.35533975746735341, 0.35553172366738939,
          -0.35533975746735347, 0.35553162477746519, -0.3553398559947048),
         (0.0, 0.0)),
        ((1.0, 0.5), (0.97362440403452866, 0.82627121128368619, 0.82010943558747029),
         (1.1904627990469012, 0.97630977421423437, 1.1904627990469012,
          -0.97630977421423437, 1.1590636332473163, -0.98364513895665073),
         (0.0, 0.0)),
        ((0.1, 2.0), (0.99801392006263578, 0.96530600473779871, 0.96429935028889502),
         (0.015630573083267658, 0.01507255146883809, 0.015630573083267658,
          -0.01507255146883809, 0.015599529515657472, -0.015088286054771275),
         (0.0, 1.7347234759768071e-18)),
    )

    @pytest.mark.parametrize("frame, lam, ints, residuals", PINNED)
    def test_oracle_values_unchanged(self, frame, lam, ints, residuals):
        got = lambda_numeric(PacketFrame(*frame), DEFAULT_CONFIG, "quadrature")
        for g, w in zip(got.as_tuple(), lam):
            assert g == pytest.approx(w, rel=1e-15, abs=0.0)
        got_ints = channel._frame_integrals(*frame, DEFAULT_CONFIG, "quadrature")
        for kind, w in zip(channel.PROFILE_KINDS, ints):
            assert got_ints[kind] == pytest.approx(w, rel=1e-15, abs=0.0), kind
        # a residual is the difference of two integrals of size |g1|, so it
        # is held to 1e-15 relative to them
        for g, w in zip(identity_residuals(PacketFrame(*frame), DEFAULT_CONFIG), residuals):
            assert g == pytest.approx(w, rel=0.0, abs=1e-15 * ints[0])


class TestRhoDirect:
    def test_trace_one(self, cfg, rng):
        frame = PacketFrame(1.0, 0.5)
        for _ in range(4):
            st = QubitState(float(rng.uniform(0, 2 * math.pi)),
                            float(rng.uniform(0, math.pi)))
            rho = rho_direct(st, frame, cfg)
            assert abs(np.trace(rho) - 1.0) < 1e-9
            assert np.abs(rho - rho.conj().T).max() < 1e-10
            assert np.linalg.eigvalsh(rho).min() > -1e-9

    def test_basis_state_structure(self, cfg):
        # xi = 0: diagonal is (1/2, 1/2); off-diagonal purely imaginary (l2)
        frame = PacketFrame(1.0, 0.0)
        st = QubitState(0.7, 0.0)
        rho = rho_direct(st, frame, cfg)
        lam = lambda_numeric(frame, cfg)
        assert rho[0, 0] == pytest.approx(0.5, abs=1e-9)
        assert rho[1, 1] == pytest.approx(0.5, abs=1e-9)
        assert rho[0, 1].real == pytest.approx(0.0, abs=1e-12)
        assert rho[0, 1].imag == pytest.approx(-0.5 * lam.l2, abs=1e-9)
        pauli = apply_pauli(lam, st)
        assert np.abs(rho - pauli).max() < 1e-7

    def test_keystone_single_point(self, cfg):
        frame = PacketFrame(1.0, 0.0)
        st = QubitState(0.0, math.pi / 2)
        rho = rho_direct(st, frame, cfg)
        lam = lambda_numeric(frame, cfg, "closed_profile")
        assert np.abs(rho - apply_pauli(lam, st)).max() < 1e-7


class TestApplyPauli:
    def test_identity_channel(self, rng):
        lam = PauliLambda(1.0, 1.0, 1.0)
        for _ in range(10):
            st = QubitState(float(rng.uniform(0, 6.3)), float(rng.uniform(0, 3.14)))
            rho = state_density(st)
            np.testing.assert_allclose(apply_pauli(lam, st), rho, atol=1e-14)
            # pure input: unit trace, rank one
            assert np.trace(rho) == pytest.approx(1.0, abs=1e-14)
            assert np.linalg.eigvalsh(rho).min() == pytest.approx(0.0, abs=1e-14)

    def test_closed_form_matches_kraus_sum(self, rng):
        # the explicit output matrix must equal sum_i p_i tau_i rho tau_i
        for _ in range(25):
            lam = probs_lambda(PauliProbs(*rng.dirichlet(np.ones(4))))
            st = QubitState(float(rng.uniform(0, 6.3)), float(rng.uniform(0, 3.14)))
            closed = apply_pauli(lam, st)
            kraus = apply_pauli_matrix(lam, state_density(st))
            assert np.abs(closed - kraus).max() < 1e-14

    def test_full_depolarization(self):
        out = apply_pauli(PauliLambda(0.0, 0.0, 0.0), QubitState(0.3, 1.1))
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-15)

    def test_diagonal_entries(self):
        lam = PauliLambda(1.0, -1.0, -1.0)
        out = apply_pauli(lam, QubitState(0.0, math.pi / 2))
        assert out[0, 0] == pytest.approx(0.5 * (1 + lam.l3), abs=1e-15)
        assert out[1, 1] == pytest.approx(0.5 * (1 - lam.l3), abs=1e-15)


class TestProbsConversion:
    def test_trivial_cases(self):
        assert lambda_probs(PauliLambda(1, 1, 1)).as_tuple() == (1.0, 0.0, 0.0, 0.0)
        assert lambda_probs(PauliLambda(0, 0, 0)).as_tuple() == (
            0.25, 0.25, 0.25, 0.25)

    def test_one_pauli_channel(self):
        lam = probs_lambda(PauliProbs(0.5, 0.0, 0.5, 0.0))
        assert lam.as_tuple() == (0.0, 1.0, 0.0)

    def test_round_trip(self, rng):
        for _ in range(200):
            p = PauliProbs(*rng.dirichlet(np.ones(4)))
            q = lambda_probs(probs_lambda(p))
            for a, b in zip(p.as_tuple(), q.as_tuple()):
                assert a == pytest.approx(b, abs=1e-14)

    def test_not_a_channel(self):
        with pytest.raises(NotAChannelError):
            PauliProbs(0.7, 0.7, -0.2, -0.2)
        with pytest.raises(NotAChannelError):
            PauliLambda(1.0, 1.0, -1.0)  # probs (0.5, 0.5, -0.5, 0.5)/..
        with pytest.raises(NotAChannelError):
            PauliLambda(1.2, 0.0, 0.0)

    def test_tiny_negatives_clamped(self):
        p = PauliProbs(0.5 + 5e-10, 0.5 + 5e-10, -5e-10, -5e-10)
        assert p.p2 == 0.0 and p.p3 == 0.0


class TestCompose:
    def test_identity_neutral(self, rng):
        for _ in range(10):
            lam = probs_lambda(PauliProbs(*rng.dirichlet(np.ones(4))))
            out = compose(lam, PauliLambda(1, 1, 1))
            assert out.as_tuple() == lam.as_tuple()

    def test_componentwise(self):
        out = compose(PauliLambda(0, 1, 0), PauliLambda(0.6, 0.6, 0.6))
        assert out.as_tuple() == (0.0, 0.6, 0.0)

    def test_matrix_composition_oracle(self, rng):
        for _ in range(20):
            a = probs_lambda(PauliProbs(*rng.dirichlet(np.ones(4))))
            b = probs_lambda(PauliProbs(*rng.dirichlet(np.ones(4))))
            st = QubitState(float(rng.uniform(0, 6.3)), float(rng.uniform(0, 3.14)))
            rho = state_density(st)
            seq = apply_pauli_matrix(a, apply_pauli_matrix(b, rho))
            comp = apply_pauli_matrix(compose(a, b), rho)
            assert np.abs(seq - comp).max() < 1e-14


class TestLambda3Closed:
    def test_matches_quadrature(self, cfg):
        for g in (1.0, 2.0):
            quad = lambda_numeric(PacketFrame(g, 0.0), cfg).l3
            assert lambda3_closed(g) == pytest.approx(quad, rel=1e-6)

    def test_bracket_approaches_constant(self):
        # N*l3 -> 0 at vanishing spread forces bracket -> -constant
        gaps = [abs(lambda3_bracket(p) + LAMBDA3_CONSTANT)
                for p in (2.0, 5.0, 10.0, 20.0, 25.0)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.2

    def test_bracket_equals_radial_integral(self, cfg):
        # independent route: 4*pi * int_0^inf e^{-ps} (1+sqrt(1+s))^{-2} ds
        for p in (0.25, 1.0, 4.0):
            val, _ = integrate(
                lambda s: np.exp(-p * s) / (1.0 + np.sqrt(1.0 + s)) ** 2,
                0.0, 60.0 / p, cfg)
            assert lambda3_bracket(p) + LAMBDA3_CONSTANT == pytest.approx(
                4.0 * math.pi * val, rel=1e-9)

    def test_range_error(self):
        with pytest.raises(RangeError):
            lambda3_closed(0.1)
        with pytest.raises(DomainError):
            lambda3_closed(-2.0)


class TestSeriesCoeffs:
    def test_refined_quadrature_oracle(self, cfg):
        tight = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-12,
                                 max_subdivisions=20000)
        for kind in ("kappa", "iota"):
            a = series_coeffs(kind, 0, 50.0, cfg)
            b = series_coeffs(kind, 0, 50.0, tight)
            assert a == pytest.approx(b, rel=1e-8)

    def test_integrand_pole_cancellation_near_zero(self):
        from boostcap.channel import _kappa_integrand, _kappa_integrand_q
        for s in (1e-3, 1e-2, 0.1, 1.0, 10.0):
            assert _kappa_integrand_q(s) == pytest.approx(
                _kappa_integrand(s), rel=1e-8)
        # both approach pi/2 at the origin
        assert _kappa_integrand(1e-12) == pytest.approx(math.pi / 2, rel=1e-10)

    @pytest.mark.parametrize("s", [1e3, 1e5, 1e7])
    def test_integrands_against_mpmath_at_large_s(self, s):
        # the parameter m = (s/(2+s))^2 approaches 1; forming 1 - m by
        # subtraction loses digits there (1.5e-11 relative at s = 1e7)
        import mpmath
        from boostcap.channel import _iota_integrand, _kappa_integrand
        with mpmath.workdps(40):
            big_s = mpmath.mpf(s)
            m = (big_s / (2 + big_s)) ** 2
            r = mpmath.sqrt(1 + big_s)
            iota = 2 * mpmath.ellipk(m) / (2 + big_s)
            kappa = (2 * mpmath.ellipk(m) / (1 + r) ** 2
                     + (2 + big_s) * mpmath.ellipe(m) / (r * (1 + r) ** 2))
        assert _iota_integrand(s) == pytest.approx(float(iota), rel=1e-14, abs=0.0)
        assert _kappa_integrand(s) == pytest.approx(float(kappa), rel=1e-14, abs=0.0)

    def test_iota_equivalent_elliptic_forms(self):
        from boostcap.channel import _iota_integrand
        from boostcap.special_functions import elliptic
        for s in (0.5, 5.0, 50.0):
            alt = elliptic(-s * s / (4.0 * (1.0 + s))).K / math.sqrt(1.0 + s)
            assert _iota_integrand(s) == pytest.approx(alt, rel=1e-13)

    def test_truncation_growth_matches_tail_quadrature(self, cfg):
        # the moment integrand decays only like s^{-1/2}, so the truncated
        # moments grow with the truncation length (like L^{n+1/2}); the
        # L-difference must equal an independent quadrature of the integrand
        # over [50, 100]
        from boostcap.channel import _kappa_integrand
        diff = (series_coeffs("kappa", 0, 100.0, cfg)
                - series_coeffs("kappa", 0, 50.0, cfg))
        tail, _ = integrate(lambda s: np.array([_kappa_integrand(float(v))
                                                for v in s]), 50.0, 100.0, cfg)
        assert diff == pytest.approx(tail, rel=1e-9)
        assert diff > 1.0

    def test_validation(self, cfg):
        with pytest.raises(DomainError):
            series_coeffs("sigma", 0, 50.0, cfg)
        with pytest.raises(DomainError):
            series_coeffs("kappa", -1, 50.0, cfg)
        with pytest.raises(DomainError):
            series_coeffs("kappa", 0, -5.0, cfg)
        # a moment order is a count: 2.0 is refused, a numpy integer is one
        with pytest.raises(DomainError, match="integer"):
            series_coeffs("iota", 2.0, 10.0, cfg)
        assert series_coeffs("iota", np.int64(2), 10.0, cfg) == series_coeffs("iota", 2, 10.0, cfg)


class TestLambda12Series:
    def test_error_shrinks_with_order(self, cfg):
        for g in (5.0, 10.0):
            target = lambda_numeric(PacketFrame(g, 0.0), cfg, "closed_profile")
            errs = []
            for n_max in range(5):
                l1, l2 = lambda12_series(g, n_max)
                errs.append(max(abs(l1 - target.l1) / target.l1,
                                abs(l2 - target.l2) / target.l2))
            assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_leading_term_sign(self):
        l1, l2 = lambda12_series(5.0, 0)
        assert l1 > 0 and l2 > 0

    def test_achieved_accuracy_at_default_length(self, cfg):
        # with the non-analytic terms exact, only the regular moment series
        # is truncated: the order-6 series meets the 1e-4 cross-check, and
        # the length is a matching point rather than a truncation
        target = lambda_numeric(PacketFrame(5.0, 0.0), cfg, "closed_profile")
        l1, l2 = lambda12_series(5.0, 6)
        assert abs(l1 - target.l1) / target.l1 < 1e-4
        assert abs(l2 - target.l2) / target.l2 < 1e-4
        for length in (37.5, 62.5, 100.0):
            a, b = lambda12_series(5.0, 6, length)
            assert abs(a - l1) < 1e-8 and abs(b - l2) < 1e-8

    def test_large_s_expansion_leading_terms(self):
        # by hand from K(m) ~ log(4/k') and E(m) -> 1 at m -> 1, with
        # u = t^{-1/2}: kappa ~ u + (2 log 2 - 2 + log t) u^2 and
        # iota ~ (log 4 + log t) u^2
        from boostcap.channel import _large_s_expansion
        exp = _large_s_expansion()
        alpha, beta = exp["kappa"]
        assert (alpha[0], beta[0], alpha[1], beta[1], alpha[2], beta[2]) == pytest.approx(
            (0.0, 0.0, 1.0, 0.0, 2.0 * math.log(2.0) - 2.0, 1.0), abs=1e-15)
        alpha, beta = exp["iota"]
        assert (alpha[1], beta[1], alpha[2], beta[2]) == pytest.approx(
            (0.0, 0.0, math.log(4.0), 1.0), abs=1e-15)

    def test_large_s_expansion_matches_integrands(self):
        from boostcap.channel import (_iota_integrand, _kappa_integrand,
                                      _large_s_expansion)
        exp = _large_s_expansion()
        for s in (4.0, 9.0, 30.0, 200.0, 5000.0):
            t = 1.0 + s
            powers = t ** (-0.5 * np.arange(len(exp["kappa"][0])))
            for kind, base in (("kappa", _kappa_integrand), ("iota", _iota_integrand)):
                alpha, beta = exp[kind]
                approx = float(np.dot(alpha + beta * math.log(t), powers))
                assert approx == pytest.approx(base(s), rel=1e-13)

    def test_corrupted_expansion_raises(self, monkeypatch):
        from boostcap import channel
        good = channel._large_s_expansion()
        bad_alpha = good["iota"][0].copy()
        bad_alpha[6] *= 1.0 + 1e-6
        monkeypatch.setattr(channel, "_large_s_expansion",
                            lambda: {**good, "iota": (bad_alpha, good["iota"][1])})
        with pytest.raises(IntegrityError):
            lambda12_series(5.0, 2)

    def test_regime_validation(self):
        with pytest.raises(RangeError):
            lambda12_series(1.0, 4)
        with pytest.raises(DomainError):
            lambda12_series(5.0, -1)
        with pytest.raises(DomainError, match="integer"):
            lambda12_series(5.0, 2.0)
        with pytest.raises(DomainError):
            lambda12_series(5.0, 2, 1.0)


class TestStateValidation:
    def test_qubit_state_finite(self):
        with pytest.raises(DomainError):
            QubitState(math.nan, 0.0)
        with pytest.raises(DomainError, match="chi"):
            QubitState("a", 0.0)
        with pytest.raises(DomainError, match="xi"):
            QubitState(0.0, None)
