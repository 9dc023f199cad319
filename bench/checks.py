"""Output checks and the negative controls that prove each check can fail.

Every check compares against a computation written here, independent of the
code path under test, or against a property the method must have; none
compares against stored output.  A check returns a list of problems, empty
when the output passes.
"""

from __future__ import annotations

import copy
import csv
import io
import math

import numpy as np

from boostcap import channel
from boostcap.channel import PacketFrame
from boostcap.quadrature import DEFAULT_CONFIG

# solver tolerances at their defaults, as the workloads call the solvers
ZETA_TOL = 1e-4
INV_GAMMA_REL_TOL = 1e-4

COLUMN_TOL = 1e-12          # recomputed capacity columns
MONOTONE_TOL = 1e-9         # l1 along an approaching rapidity curve
FAST_VS_ORACLE_TOL = 1e-9
IDENTITY_TOLS = (1e-10, 1e-8)
RHO_TOL = 1e-7
EB_BAND = 1e-9              # |l1|+|l2|+|l3| this close to 1 is not judged


# -- capacity formulas, written independently of boostcap.capacity ---------
def probs(l1: float, l2: float, l3: float) -> tuple[float, float, float, float]:
    return ((1 + l1 + l2 + l3) / 4, (1 + l1 - l2 - l3) / 4,
            (1 - l1 + l2 - l3) / 4, (1 - l1 - l2 + l3) / 4)


def shannon(ps) -> float:
    return -sum(p * math.log2(p) for p in ps if p > 0)


def hashing_raw(ps) -> float:
    return 1.0 - shannon([max(p, 0.0) for p in ps])


def no_cloning(ps) -> float:
    _, p1, p2, p3 = (max(p, 0.0) for p in ps)
    return p1 + p2 + p3 + math.sqrt(p1 * p2) + math.sqrt(p2 * p3) + math.sqrt(p1 * p3)


def classical(l1: float, l2: float, l3: float) -> float:
    x = (1 + max(abs(l1), abs(l2), abs(l3))) / 2
    return 1.0 - shannon((x, 1 - x))


def pauli_output(lam, chi: float, xi: float) -> np.ndarray:
    """Output of the Pauli channel with eigenvalues ``lam`` for a pure input
    with Bloch vector (sin chi sin xi, cos xi, cos chi sin xi)."""
    l1, l2, l3 = lam
    x, y, z = math.sin(chi) * math.sin(xi), math.cos(xi), math.cos(chi) * math.sin(xi)
    return 0.5 * np.array([[1 + l3 * z, l1 * x - 1j * l2 * y],
                           [l1 * x + 1j * l2 * y, 1 - l3 * z]])


# -- curves ---------------------------------------------------------------
def capacity_columns(rows: list[dict]) -> list[str]:
    """Each row's probability and capacity columns, recomputed from l1, l2, l3."""
    problems = []
    for row in rows:
        lam = (row["l1"], row["l2"], row["l3"])
        ps = probs(*lam)
        raw = hashing_raw(ps)
        cerf = no_cloning(ps)
        expect = {"p0": ps[0], "p1": ps[1], "p2": ps[2], "p3": ps[3],
                  "hashing_raw": raw, "hashing": max(raw, 0.0),
                  "classical_capacity": classical(*lam), "cerf": cerf}
        for col, want in expect.items():
            if not abs(row[col] - want) <= COLUMN_TOL:
                problems.append(f"row {row['index']}: {col} {row[col]!r} != {want!r}")
        if abs(cerf - 0.5) > COLUMN_TOL and row["cerf_zero_capacity"] != (cerf >= 0.5):
            problems.append(f"row {row['index']}: zero-capacity flag wrong")
        if row["hashing"] > row["classical_capacity"] + COLUMN_TOL:
            problems.append(f"row {row['index']}: hashing bound above classical capacity")
        # a unital qubit channel breaks entanglement iff sum |l_i| <= 1
        weight = sum(abs(v) for v in lam)
        if abs(weight - 1) > EB_BAND and row["entanglement_breaking"] != (weight < 1):
            problems.append(f"row {row['index']}: entanglement-breaking flag wrong")
    return problems


def _cell(value) -> str | float:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return value
    return str(value)


def csv_roundtrip(rows: list[dict], data: bytes) -> list[str]:
    """The CSV parses back to exactly the row values."""
    table = list(csv.reader(io.StringIO(data.decode())))
    header, body = table[0], table[1:]
    if len(body) != len(rows):
        return [f"CSV has {len(body)} data rows, expected {len(rows)}"]
    problems = []
    for row, line in zip(rows, body):
        for col, text in zip(header, line):
            want = _cell(row.get(col))
            got = float(text) if isinstance(want, float) else text
            if got != want:
                problems.append(f"CSV row {row['index']} column {col}: {text!r} != {want!r}")
    return problems


def monotone_l1(rows: list[dict]) -> list[str]:
    """l1 does not decrease as the rapidity decreases (approaching boosts)."""
    ordered = sorted(rows, key=lambda r: r["zeta"])
    return [f"l1 decreases between zeta {a['zeta']!r} and {b['zeta']!r}"
            for a, b in zip(ordered, ordered[1:])
            if a["l1"] < b["l1"] - MONOTONE_TOL]


def check_curve(args: tuple, out: dict) -> list[str]:
    rows = out["rows"]
    bad = [r["index"] for r in rows if r["status"] != "ok"]
    if bad:
        return [f"flagged rows {bad}"]
    problems = capacity_columns(rows) + csv_roundtrip(rows, out["csv"])
    if args[0] == "zeta":
        problems += monotone_l1(rows)
    return problems


# -- thresholds -----------------------------------------------------------
def _fast_probs(gamma: float, zeta: float):
    lam = channel.lambda_numeric(PacketFrame(gamma, zeta), DEFAULT_CONFIG, "closed_profile")
    return probs(*lam.as_tuple())


def boost_sign_change(gamma: float, root: float) -> list[str]:
    """The raw hashing bound is positive below the root and not above it."""
    below = hashing_raw(_fast_probs(gamma, root - ZETA_TOL))
    above = hashing_raw(_fast_probs(gamma, root + ZETA_TOL))
    if below > 0.0 >= above:
        return []
    return [f"boost root {root!r} at gamma {gamma!r}: hashing {below!r}, {above!r} "
            f"at root -/+ {ZETA_TOL}"]


def spread_sign_change(zeta: float, root: float) -> list[str]:
    """The no-cloning margin is positive below the root and not above it."""
    lo, hi = root * (1 - INV_GAMMA_REL_TOL), root * (1 + INV_GAMMA_REL_TOL)
    below = no_cloning(_fast_probs(1.0 / lo, zeta)) - 0.5
    above = no_cloning(_fast_probs(1.0 / hi, zeta)) - 0.5
    if below > 0.0 >= above:
        return []
    return [f"spread root {root!r} at zeta {zeta!r}: margins {below!r}, {above!r}"]


# -- oracle ---------------------------------------------------------------
def fast_vs_oracle(out: list[dict]) -> list[str]:
    problems = []
    for f in out:
        diff = max(abs(a - b) for a, b in zip(f["quad"], f["fast"]))
        if not diff <= FAST_VS_ORACLE_TOL:
            problems.append(f"frame {f['frame']}: fast path vs oracle {diff:.3g}")
    return problems


def identities(out: list[dict]) -> list[str]:
    return [f"frame {f['frame']}: identity residual {r:.3g} > {tol}"
            for f in out for r, tol in zip(f["residuals"], IDENTITY_TOLS)
            if not r <= tol]


def direct_vs_pauli(out: list[dict]) -> list[str]:
    """Directly integrated output states against the closed Pauli form of the
    fast-path eigenvalues."""
    problems = []
    for f in out:
        for (chi, xi), rho in f["rhos"]:
            dev = float(np.abs(rho - pauli_output(f["fast"], chi, xi)).max())
            if not dev <= RHO_TOL:
                problems.append(f"frame {f['frame']}: direct output vs Pauli form {dev:.3g}")
    return problems


# -- dispatch and negative controls ----------------------------------------
def check_op(op, out) -> list[str]:
    if op.kind == "curve":
        return check_curve(op.args, out)
    if op.kind == "boost_threshold":
        return boost_sign_change(op.args[0], out)
    if op.kind == "gamma_threshold":
        return spread_sign_change(op.args[0], out)
    return fast_vs_oracle(out) + identities(out) + direct_vs_pauli(out)


def _flip_l2(rows: list[dict]) -> list[dict]:
    rows = copy.deepcopy(rows)
    row = max(rows, key=lambda r: abs(r["l2"]))
    row["l2"] = -row["l2"]
    return rows


def _edit_cell(data: bytes) -> bytes:
    lines = data.decode().split("\r\n")
    cells = lines[1].split(",")
    cells[3] = format(float(cells[3]) * (1 + 1e-6), ".17g")  # the first row's l1
    lines[1] = ",".join(cells)
    return "\r\n".join(lines).encode()


def negative_controls(op, out) -> dict[str, bool]:
    """Corrupt one output and report, per control, whether its check caught it."""
    if op.kind == "curve":
        return {"flipped_l2_sign": bool(capacity_columns(_flip_l2(out["rows"]))),
                "edited_csv_cell": bool(csv_roundtrip(out["rows"], _edit_cell(out["csv"])))}
    if op.kind == "boost_threshold":
        return {"moved_root": bool(boost_sign_change(op.args[0], out + 10 * ZETA_TOL))}
    if op.kind == "gamma_threshold":
        moved = out * (1 + 10 * INV_GAMMA_REL_TOL)
        return {"moved_root": bool(spread_sign_change(op.args[0], moved))}
    flipped = [dict(f, fast=(f["fast"][0], -f["fast"][1], f["fast"][2])) for f in out]
    return {"flipped_l2_sign": bool(direct_vs_pauli(flipped))}
