"""Tests of the benchmark itself: seed discipline, checks, negative controls.

Run from the root of the repository:

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

import checks
import run
import spans
import speed
import workloads
from boostcap import channel, sweep
from boostcap.sweep import SweepSpec

ROUNDS = 400    # more rounds than any run of the benchmark reaches
PROCS = run.MEASURE_PROCS + run.SETUP_PROBES


def _frames(op: workloads.Op) -> list[tuple[float, float]]:
    """The (inverse spread or spread, rapidity) inputs an operation starts from."""
    if op.kind == "curve":
        return [(x, op.args[4]) if op.args[0] == "inv_gamma" else (op.args[4], x)
                for x in SweepSpec(*op.args).grid()]
    if op.kind == "bundle":
        return list(op.args)
    return [(op.kind, op.args[0])]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_order_not_make_up(workload):
    for index in range(6):
        a = workloads.round_ops(workload, 1, index)
        b = workloads.round_ops(workload, 2, index)
        assert Counter(op.label for op in a) == Counter(op.label for op in b)
        assert Counter(op.kind for op in a) == Counter(op.kind for op in b)
        assert [op.args for op in a] != [op.args for op in b]
    assert workloads.round_ops(workload, 7, 3) == workloads.round_ops(workload, 7, 3)


def test_solves_alternate_between_kinds():
    for seed in range(20):
        kinds = [op.kind for op in workloads.round_ops("thresholds", seed, 0)]
        assert all(a != b for a, b in zip(kinds, kinds[1:]))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_nudges_are_tiny(workload):
    base = {label: args for _, label, args in workloads._base_ops(workload)}
    for index in (0, ROUNDS - 1, -PROCS):
        for op in workloads.round_ops(workload, 3, index):
            want = base[op.label]
            if op.kind == "bundle":
                want, got = sorted(want), sorted(op.args)
                pairs = [(x, y) for w, g in zip(want, got) for x, y in zip(w, g)]
            else:
                pairs = [(x, y) for x, y in zip(want, op.args) if isinstance(x, float)]
            for x, y in pairs:
                assert x != y
                assert abs(y - x) <= 1e-6 * (abs(x) or 1.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_no_input_repeats_and_warmup_is_outside(workload):
    measured = Counter()
    for index in range(ROUNDS):
        for op in workloads.round_ops(workload, 11, index):
            measured.update(_frames(op))
    assert max(measured.values()) == 1
    for proc in range(PROCS):
        op = workloads.warmup_op(workload, 11, proc)
        assert not set(_frames(op)) & set(measured)


@pytest.fixture(scope="module")
def curve():
    op = workloads.Op("curve", "short", ("zeta", -3.0, 0.0, 9, 0.05))
    return op, workloads.run_op(op, jobs=1)


def test_curve_checks_and_controls(curve):
    op, out = curve
    assert checks.check_op(op, out) == []
    assert checks.negative_controls(op, out) == {"flipped_l2_sign": True,
                                                 "edited_csv_cell": True}
    # each corruption trips the check named for it
    assert checks.capacity_columns(checks._flip_l2(out["rows"]))
    assert checks.csv_roundtrip(out["rows"], checks._edit_cell(out["csv"]))


def test_monotonicity_check_catches_a_swap(curve):
    _, out = curve
    rows = [dict(r) for r in out["rows"]]
    rows[0]["l1"], rows[-1]["l1"] = rows[-1]["l1"], rows[0]["l1"]
    assert checks.monotone_l1(rows)


@pytest.mark.parametrize("kind,arg", [("gamma_threshold", 1.0), ("boost_threshold", 20.0)])
def test_threshold_checks_and_controls(kind, arg):
    op = workloads.Op(kind, "test", (arg,))
    root = workloads.run_op(op)
    assert checks.check_op(op, root) == []
    assert checks.negative_controls(op, root) == {"moved_root": True}


def test_oracle_checks_and_controls():
    op = workloads.Op("bundle", "test", ((0.5, -2.0),))
    out = workloads.run_op(op)
    assert checks.check_op(op, out) == []
    assert checks.negative_controls(op, out) == {"flipped_l2_sign": True}


def test_tracer_self_times_add_up_and_uninstall_restores():
    originals = (channel.integrate, channel._frame_integrals, sweep.run_sweep)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert channel.integrate is not originals[0]
        tracer.span("bench.op", workloads.run_op,
                    workloads.Op("curve", "short", ("zeta", -1.0, 0.0, 3, 2.0)), 1)
    finally:
        tracer.uninstall()
    assert (channel.integrate, channel._frame_integrals, sweep.run_sweep) == originals
    a = tracer.arrays()
    root = float(a["end"][0] - a["start"][0])
    own = tracer.self_seconds()
    bench_own = root - sum(float(a["end"][i] - a["start"][i])
                           for i in range(len(a["parent"])) if a["parent"][i] == 0)
    assert math.isclose(sum(own.values()) + bench_own, root, rel_tol=1e-9)
    layer = spans.per_layer(tracer, 1)
    assert layer["quadrature.integrate_calls"][0] == 7 * 3
    assert layer["channel.frame_evals"][0] == 3
    assert layer["channel.frame_cache_hit_ratio"][0] == 0.0


def test_scaled_clock_uses_the_kernel_on_either_side(monkeypatch):
    times = iter([0.02, 0.04, 0.01])
    monkeypatch.setattr(speed, "kernel_s", lambda: next(times))
    clock = speed.ScaledClock()
    assert clock.scale() == pytest.approx(speed.REF_S / 0.03)
    assert clock.scale() == pytest.approx(speed.REF_S / 0.025)
