"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see every line as it
completes.  Tolerances are pinned here, not configurable.  All numeric
targets were frozen from independent oracles (brute-force quadrature,
high-precision evaluation, sweep bisection).
"""

import math
import time

import numpy as np
import pytest

from boostcap.capacity import (boost_threshold, frame_report,
                               gamma_threshold, eq7_check)
from boostcap.channel import (PacketFrame, QubitState, apply_pauli,
                              identity_residuals, lambda12_series,
                              lambda3_closed, lambda_numeric, lambda_probs,
                              rho_direct)
from boostcap.lorentz import (STANDARD_MOMENTUM, boost_z, little_group,
                              null_momentum)
from boostcap.quadrature import SWEEP_CONFIG
from boostcap.sweep import SweepSpec, run_sweep
from boostcap.verify import VERIFY_CONFIG, run_verify
from boostcap.wavepacket import normalization, rest_frame_trace

ZETA_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
GAMMA_GRID = (0.1, 0.5, 1.0, 5.0)


def _report(num: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"[acceptance] criterion {num:02d} {name}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert passed, line


def test_criterion_01_keystone_pauli_identification():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240229)
    states = [QubitState(float(rng.uniform(0, 2 * math.pi)),
                         float(rng.uniform(0, math.pi))) for _ in range(8)]
    worst = 0.0
    for z in ZETA_GRID:
        for g in GAMMA_GRID:
            frame = PacketFrame(g, z)
            # dual numerical routes: direct integration of the output matrix
            # vs the closed Pauli form fed by the elliptic-profile eigenvalues
            lam = lambda_numeric(frame, VERIFY_CONFIG, "closed_profile")
            for st in states:
                diff = np.abs(rho_direct(st, frame, VERIFY_CONFIG)
                              - apply_pauli(lam, st)).max()
                worst = max(worst, float(diff))
    elapsed = time.perf_counter() - t0
    _report(1, "keystone Pauli identification",
            worst < 1e-7 and elapsed < 180.0,
            f"worst elementwise {worst:.3e} (tol 1e-7), {elapsed:.1f}s (< 180s)")


def test_criterion_02_diagonal_identities():
    worst1 = worst2 = 0.0
    for z in ZETA_GRID:
        for g in GAMMA_GRID:
            r1, r2 = identity_residuals(PacketFrame(g, z), VERIFY_CONFIG)
            worst1, worst2 = max(worst1, r1), max(worst2, r2)
    _report(2, "diagonal consistency identities",
            worst1 < 1e-10 and worst2 < 1e-8,
            f"first {worst1:.3e} (tol 1e-10), second {worst2:.3e} (tol 1e-8)")


def test_criterion_03_normalization_invariance():
    worst_inv = worst_trace = 0.0
    for g in GAMMA_GRID:
        closed = normalization(PacketFrame(g, 0.0), "closed_form")
        for z in ZETA_GRID:
            quad = normalization(PacketFrame(g, z), "quadrature", VERIFY_CONFIG)
            worst_inv = max(worst_inv, abs(quad - closed) / closed)
        trace = 2.0 * math.pi * rest_frame_trace(g, VERIFY_CONFIG)
        worst_trace = max(worst_trace, abs(trace - closed) / closed)
    _report(3, "normalization boost invariance + independent trace route",
            worst_inv < 1e-8 and worst_trace < 1e-8,
            f"invariance {worst_inv:.3e}, trace route {worst_trace:.3e} (tol 1e-8)")


def test_criterion_04_lambda3_closed_form():
    worst = 0.0
    for g in (0.5, 0.8, 1.0, 2.0, 3.0, 5.0):
        quad = lambda_numeric(PacketFrame(g, 0.0), VERIFY_CONFIG, "closed_profile").l3
        worst = max(worst, abs(lambda3_closed(g) - quad) / abs(quad))
    _report(4, "closed-form l3 vs quadrature on [0.5, 5]",
            worst < 1e-6, f"worst rel {worst:.3e} (tol 1e-6)")


def test_criterion_05_series_cross_check():
    # the series is the exact non-analytic Laplace terms plus finite-part
    # moments matched at s = L (default SERIES_MATCH_POINT); only the latter
    # are truncated, so the error falls like Gamma^(-2(n_max+1))
    target = lambda_numeric(PacketFrame(5.0, 0.0), VERIFY_CONFIG, "closed_profile")
    l1, l2 = lambda12_series(5.0, 6)
    err = max(abs(l1 - target.l1) / target.l1, abs(l2 - target.l2) / target.l2)

    monotone = True
    for g in (5.0, 10.0):
        tgt = lambda_numeric(PacketFrame(g, 0.0), VERIFY_CONFIG, "closed_profile")
        errs = []
        for n_max in range(7):
            a, b = lambda12_series(g, n_max)
            errs.append(max(abs(a - tgt.l1) / tgt.l1, abs(b - tgt.l2) / tgt.l2))
        monotone &= all(x >= y for x, y in zip(errs, errs[1:]))

    # scan the matching point: L is not a truncation, so the error stays at
    # the same ~1e-13 level across the scan
    floor = min(
        max(abs(a - target.l1) / target.l1, abs(b - target.l2) / target.l2)
        for ll in (1.5, 2.0, 2.5, 3.0, 4.0)
        for a, b in [lambda12_series(5.0, 6, ll * 25.0)])
    _report(5, "large-spread series cross-check",
            err < 1e-4 and monotone,
            f"rel err {err:.3e} at n_max=6 (target 1e-4; best over length "
            f"scan {floor:.3e}), error monotone in n_max: {monotone}")


def test_criterion_06_little_group_theorem():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        z = rng.uniform(-3, 3)
        th = rng.uniform(0.01, math.pi - 0.01)
        ph = rng.uniform(0, 2 * math.pi)
        w = rng.uniform(0.2, 5.0)
        p = null_momentum(w, th, ph)
        boost = boost_z(z)
        dec = little_group(boost, p)
        a1_theory = (math.exp(-math.log(w)) * math.sin(th)
                     / (1.0 / math.tanh(z) - math.cos(th)))
        from boostcap.lorentz import standard_boost
        wmat = np.linalg.inv(standard_boost(boost @ p)) @ boost @ standard_boost(p)
        fixes = float(np.abs(wmat @ STANDARD_MOMENTUM - STANDARD_MOMENTUM).max())
        worst = max(worst, abs(dec.wigner_angle), abs(dec.a2),
                    abs(dec.a1 - a1_theory), dec.residual, fixes)
    _report(6, "vanishing rotation part of the little group",
            worst < 1e-10, f"worst residual {worst:.3e} (tol 1e-10)")


def test_criterion_07_capacity_curves_shape():
    spec = SweepSpec(axis="inv_gamma", start=0.001, stop=1.0, steps=60, fixed=0.0)
    rows = run_sweep(spec, SWEEP_CONFIG, jobs=1)
    assert all(r["status"] == "ok" for r in rows)
    caps = [r["classical_capacity"] for r in rows]
    # the classical capacity is monotone along the noise axis: it grows with
    # the inverse spread (narrower packets y more aligned helicities)
    monotone = all(b >= a - 1e-12 for a, b in zip(caps, caps[1:]))
    bounds_ok = all(0.0 <= r["hashing"] <= r["classical_capacity"] <= 1.0 + 1e-12
                    for r in rows)
    crossings = sum(1 for a, b in zip(rows, rows[1:])
                    if (a["cerf"] - 0.5) * (b["cerf"] - 0.5) < 0)
    ig_star = gamma_threshold(0.0, SWEEP_CONFIG)
    # golden value frozen from the quadrature oracle
    golden_ok = abs(ig_star - 0.054813) < 5e-4
    _report(7, "capacity curves vs inverse spread",
            monotone and bounds_ok and crossings == 1
            and 0.05 < ig_star < 0.3 and golden_ok,
            f"monotone={monotone}, bounds={bounds_ok}, crossings={crossings}, "
            f"boundary at 1/Gamma = {ig_star:.6f} (golden 0.054813)")


def test_criterion_08_boost_amplification():
    ok = True
    details = []
    for ig in (0.005, 0.05):
        _, rep = frame_report(1.0 / ig, 0.0, SWEEP_CONFIG)
        rest_zero = rep.hashing == 0.0
        zstar = boost_threshold(1.0 / ig, SWEEP_CONFIG)
        _, boosted = frame_report(1.0 / ig, zstar - 0.05, SWEEP_CONFIG)
        ok &= rest_zero and zstar < 0.0 and boosted.hashing > 0.0
        details.append(f"1/G={ig}: zero at rest, positive past zeta*={zstar:.4f}")
    qs = [frame_report(1.0 / 0.3, z, SWEEP_CONFIG)[1].hashing
          for z in (0.0, -0.5, -1.0, -2.0)]
    increasing = all(b > a for a, b in zip(qs, qs[1:]))
    ok &= increasing
    maximal = True
    for ig in (0.005, 0.05, 0.3):
        _, rep = frame_report(1.0 / ig, -6.0, SWEEP_CONFIG)
        maximal &= rep.classical > 0.99 and rep.hashing > 0.99
    ok &= maximal
    _report(8, "boost amplification of the quantum capacity", ok,
            "; ".join(details) + f"; increasing along -zeta at 1/G=0.3: "
            f"{increasing}; near-unit capacities at zeta=-6: {maximal}")


def test_criterion_09_bottleneck_consequence():
    ok = True
    for c in [round(0.1 * k, 1) for k in range(11)]:
        rep = eq7_check(c)
        ok &= rep.hashing_p2_raw == 0.0 and rep.cerf_composite >= 0.5 - 1e-15
    _report(9, "zero capacity of the unrotated composite channel", ok,
            "hashing of the one-Pauli factor exactly 0; composite certified "
            "zero for all depolarizing strengths")


def test_criterion_10_entanglement_breaking_onset():
    flagged_ok = True
    samples = [0.002, 0.004, 0.006, 0.0065, 0.0072, 0.008, 0.01, 0.02, 0.05, 0.2]
    for ig in samples:
        _, rep = frame_report(1.0 / ig, 0.0, SWEEP_CONFIG)
        if rep.entanglement_breaking:
            flagged_ok &= rep.cerf_zero_capacity

    def eb_margin(ig: float) -> float:
        lam = lambda_numeric(PacketFrame(1.0 / ig, 0.0), SWEEP_CONFIG,
                             "closed_profile")
        return max(lambda_probs(lam).as_tuple()) - 0.5

    lo, hi = 0.001, 0.2
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if eb_margin(mid) < 0:
            lo = mid
        else:
            hi = mid
    eb_onset = 0.5 * (lo + hi)
    cerf_onset = gamma_threshold(0.0, SWEEP_CONFIG)
    _report(10, "entanglement breaking deep inside the zero-capacity region",
            flagged_ok and eb_onset < cerf_onset,
            f"EB onset 1/Gamma = {eb_onset:.5f} strictly below zero-capacity "
            f"onset {cerf_onset:.5f}; every EB channel also certified zero")


def test_criterion_11_full_verify_suite():
    # cold-start measurement: drop every memoized frame integral first
    from boostcap.channel import _frame_integrals
    from boostcap.verify import _eq6_worst
    _frame_integrals.cache_clear()
    _eq6_worst.cache_clear()
    rep = run_verify("full")
    failed = [c.name for c in rep.checks if not c.passed]
    _report(11, "full self-verification suite",
            rep.passed and rep.wall_seconds < 300.0,
            f"{len(rep.checks)} checks, failures: {failed or 'none'}, "
            f"wall {rep.wall_seconds:.1f}s (< 300s)")
