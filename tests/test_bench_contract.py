"""The benchmark's workloads and checks still fit the package.

``bench/workloads.py`` runs a curve through ``run_sweep`` with ``jobs=None``
when timed and ``jobs=1`` when traced, and the threshold solves and oracle
bundles through their public entry points; ``bench/checks.py`` judges the
output.  The benchmark's own tests live outside this suite, so a change to
the sweep, the solvers or the oracle that breaks a call or an output check
would otherwise go unseen here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # the dataclasses in it look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    return _load("workloads"), _load("checks")


def test_curve_op_passes_its_checks_at_both_job_settings(bench):
    workloads, checks = bench
    op = workloads.Op("curve", "short", ("inv_gamma", 0.05, 0.5, 12, 0.0))
    timed = workloads.run_op(op, None)
    traced = workloads.run_op(op, 1)
    assert checks.check_op(op, timed) == []
    assert checks.check_op(op, traced) == []
    assert timed["csv"] == traced["csv"]
    assert all(checks.negative_controls(op, timed).values())


@pytest.mark.parametrize("kind, label, args", [
    ("boost_threshold", "boost@gamma=20", (20.0,)),
    ("gamma_threshold", "spread@zeta=0.5", (0.5,)),
    ("bundle", "bundle", ((1.0, 0.5),)),
], ids=["boost", "spread", "bundle"])
def test_solver_and_oracle_ops_pass_their_checks(bench, kind, label, args):
    # a solver or oracle change that the benchmark would refuse as an
    # incorrect output fails here first
    workloads, checks = bench
    op = workloads.Op(kind, label, args)
    out = workloads.run_op(op)
    assert checks.check_op(op, out) == []
    controls = checks.negative_controls(op, out)
    assert controls and all(controls.values())
