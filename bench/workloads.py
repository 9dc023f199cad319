"""The three workloads: a fixed round of operations, seeded nudges, warm-up.

A round's make-up never depends on the seed.  The seed only shuffles the
order of the operations within a round and moves every input by a relative
amount of order 1e-10 to 1e-7, far too small to change what an operation
costs.  Each input slot of a run gets its own nudge, and warm-up slots get
nudges of the opposite sign, so no input repeats within a run and the frame
cache in ``boostcap.channel`` never serves a measured operation from an
earlier round or from the warm-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from boostcap import capacity, channel, sweep
from boostcap.channel import PacketFrame, QubitState
from boostcap.quadrature import DEFAULT_CONFIG, SWEEP_CONFIG
from boostcap.sweep import SweepSpec

# verify's oracle tolerances; the oracle workload runs at these
from boostcap.verify import VERIFY_CONFIG

WORKLOADS = ("curves", "thresholds", "oracle")

# relative size of one nudge step; slot k of a run moves its inputs by
# (k + 1 + v) steps with v in [0, 1) drawn from the seed
NUDGE = 1e-10


@dataclass(frozen=True)
class Op:
    """One operation: ``label`` names its base input, ``args`` the nudged one."""

    kind: str
    label: str
    args: tuple


# Curves of the lengths the README examples plot: 200 points along the
# inverse spread, 120 along the rapidity.  Inverse-spread curves at
# approaching, rest and receding rapidities; rapidity curves (approaching
# side) for a narrow and a wide packet.  The fast path succeeds at every
# point of these grids.
CURVES = (
    ("inv_gamma@zeta=-1", ("inv_gamma", 0.001, 1.0, 200, -1.0)),
    ("inv_gamma@zeta=0", ("inv_gamma", 0.001, 1.0, 200, 0.0)),
    ("inv_gamma@zeta=+1", ("inv_gamma", 0.001, 1.0, 200, 1.0)),
    ("zeta@gamma=0.5", ("zeta", -3.0, 0.0, 120, 2.0)),
    ("zeta@gamma=20", ("zeta", -3.0, 0.0, 120, 0.05)),
)

# Boost solves at spreads whose rest-frame hashing bound is negative, and
# spread solves at rapidities where the no-cloning indicator crosses 1/2
# inside the default inverse-spread range.
BOOST_GAMMAS = (20.0, 50.0, 200.0)
GAMMA_ZETAS = (0.0, 0.5, 1.0)

# Frames from verify's grid: three cheap approaching frames and one costly
# receding frame (its quadrature channel takes about half the bundle).
ORACLE_FRAMES = ((0.5, -2.0), (1.0, -1.0), (0.5, -0.5), (1.0, 0.5))

# input states of the direct output-state integration; every one re-reads
# the frame integrals the quadrature channel just cached
ORACLE_STATES = (QubitState(0.3, 1.1), QubitState(2.0, 0.4),
                 QubitState(4.1, 2.6), QubitState(5.5, 1.9))


def nudged(x: float, step: float) -> float:
    """``x`` moved by ``step`` nudges, relative to |x| (absolute at 0)."""
    return x + step * NUDGE * (abs(x) or 1.0)


def _steps(k: int, v: float) -> float:
    # measured slots (k >= 0) land in [1, inf), warm-up slots (k < 0) in
    # (-inf, -1]: the two sets of inputs never meet
    return k + 1 + v if k >= 0 else k - v


def _base_ops(workload: str) -> list[tuple[str, str, tuple]]:
    if workload == "curves":
        return [("curve", label, spec) for label, spec in CURVES]
    if workload == "thresholds":
        out = []
        for g, z in zip(BOOST_GAMMAS, GAMMA_ZETAS):
            out.append(("boost_threshold", f"boost@gamma={g:g}", (g,)))
            out.append(("gamma_threshold", f"spread@zeta={z:g}", (z,)))
        return out
    if workload == "oracle":
        return [("bundle", "bundle", ORACLE_FRAMES)]
    raise ValueError(f"unknown workload {workload!r}")


def _nudge_args(kind: str, args: tuple, step: float) -> tuple:
    if kind == "curve":
        axis, start, stop, steps, fixed = args
        return (axis, nudged(start, step), nudged(stop, step), steps, nudged(fixed, step))
    if kind == "bundle":
        return tuple((nudged(g, step), nudged(z, step)) for g, z in args)
    return tuple(nudged(x, step) for x in args)


def _order(workload: str, rng: random.Random, n: int) -> list[int]:
    if workload != "thresholds":
        order = list(range(n))
        rng.shuffle(order)
        return order
    # the two kinds of solve keep alternating; each kind is shuffled in place
    boosts, spreads = list(range(0, n, 2)), list(range(1, n, 2))
    rng.shuffle(boosts)
    rng.shuffle(spreads)
    if rng.random() < 0.5:
        boosts, spreads = spreads, boosts
    return [i for pair in zip(boosts, spreads) for i in pair]


def round_ops(workload: str, seed: int, index: int) -> list[Op]:
    """Round ``index`` of a run; a negative index is a warm-up round."""
    base = _base_ops(workload)
    rng = random.Random(f"{workload}:{seed}:{index}")
    vs = [rng.random() for _ in base]
    ops = []
    for slot in _order(workload, rng, len(base)):
        kind, label, args = base[slot]
        if kind == "bundle":
            frames = list(args)
            rng.shuffle(frames)
            args = tuple(frames)
        step = _steps(index * len(base) + slot, vs[slot])
        ops.append(Op(kind, label, _nudge_args(kind, args, step)))
    return ops


# the cheapest operation of each round, run once before timing starts
WARMUP_LABELS = {"curves": "zeta@gamma=0.5", "thresholds": "spread@zeta=0",
                 "oracle": "bundle"}


def warmup_op(workload: str, seed: int, proc: int) -> Op:
    """The warm-up of process ``proc``: the round's cheapest operation, or for
    ``oracle`` the bundle's most approaching frame alone, on inputs outside
    the measured set."""
    op = next(op for op in round_ops(workload, seed, -1 - proc)
              if op.label == WARMUP_LABELS[workload])
    if op.kind == "bundle":
        return Op("bundle", "warm-up frame", (min(op.args, key=lambda f: f[1]),))
    return op


def run_op(op: Op, jobs: int | None = None):
    """Run one operation through the package's public entry points.

    Calls go through module attributes so the tracer's wrappers see them.
    ``jobs=None`` is the program's default parallelism.
    """
    if op.kind == "curve":
        rows = sweep.run_sweep(SweepSpec(*op.args), SWEEP_CONFIG, "closed_profile", jobs)
        sweep.check_no_nan(rows)
        return {"rows": rows, "csv": sweep.render_csv(rows)}
    if op.kind == "boost_threshold":
        return capacity.boost_threshold(op.args[0], DEFAULT_CONFIG)
    if op.kind == "gamma_threshold":
        return capacity.gamma_threshold(op.args[0], DEFAULT_CONFIG)
    if op.kind == "bundle":
        out = []
        for g, z in op.args:
            frame = PacketFrame(g, z)
            quad = channel.lambda_numeric(frame, VERIFY_CONFIG, "quadrature")
            rhos = [((s.chi, s.xi), channel.rho_direct(s, frame, VERIFY_CONFIG))
                    for s in ORACLE_STATES]
            residuals = channel.identity_residuals(frame, VERIFY_CONFIG)
            fast = channel.lambda_numeric(frame, VERIFY_CONFIG, "closed_profile")
            out.append({"frame": (g, z), "quad": quad.as_tuple(), "fast": fast.as_tuple(),
                        "rhos": rhos, "residuals": residuals})
        return out
    raise ValueError(f"unknown operation kind {op.kind!r}")
