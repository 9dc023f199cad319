"""Parameter sweeps over spread and rapidity, with deterministic outputs.

A sweep evaluates the channel and its capacity bounds on a uniform grid
along one axis (inverse spread at fixed rapidity, or rapidity at fixed
inverse spread), in one process.  Rows are emitted in grid order, numeric
cells carry 17 significant digits, and a manifest (tool version, quadrature
settings, resolved conventions) accompanies every data file; identical
manifests imply byte-identical CSV output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace
from datetime import datetime, timezone

from . import __version__
from .capacity import capacity_report
from .channel import (PacketFrame, PauliLambda, _integrals, lambda_batch, lambda_numeric,
                      lambda_probs)
from .errors import BoostcapError, DomainError, as_count, is_finite
from .quadrature import QuadratureConfig, SWEEP_CONFIG

AXES = ("inv_gamma", "zeta")

# numerical conventions resolved against the quadrature oracles; recorded in
# every manifest so data files are self-describing
CONVENTIONS = {
    "elliptic_argument": "parameter m (not modulus k)",
    "lambda2_sign": "+1 in the zero-spread limit (identity channel)",
    "normalization_closed_form": "pi^(3/2) * Gamma * erfcx(1/Gamma)",
    "lambda3_integration_constant": "-4*pi*(euler_gamma + 1 + log 4)",
    "rapidity_sign": "negative rapidity = approaching observers",
    "measure_prefactor": "constant momentum-measure prefactor dropped throughout",
}

COLUMNS = (
    "index", "inv_gamma", "zeta", "l1", "l2", "l3",
    "p0", "p1", "p2", "p3",
    "classical_capacity", "hashing_raw", "hashing", "cerf",
    "cerf_zero_capacity", "entanglement_breaking", "status",
)

_FLOAT_COLUMNS = frozenset(COLUMNS[1:14])


@dataclass(frozen=True)
class SweepSpec:
    """One-axis grid: ``axis`` runs from start to stop; ``fixed`` is the other."""

    axis: str
    start: float
    stop: float
    steps: int
    fixed: float

    def __post_init__(self):
        for name in ("start", "stop", "fixed"):
            if not is_finite(getattr(self, name), f"sweep {name}"):
                raise DomainError(f"sweep {name} must be finite, got {getattr(self, name)!r}")
        if self.axis not in AXES:
            raise DomainError(f"axis must be one of {AXES}, got {self.axis!r}")
        if not (self.start < self.stop):
            raise DomainError("sweep range is empty (start must be < stop)")
        object.__setattr__(self, "steps", as_count(self.steps, "sweep steps"))
        if self.steps < 2:
            raise DomainError("a sweep needs at least 2 steps")
        if self.axis == "inv_gamma" and self.start <= 0:
            raise DomainError("inverse spread must be positive")
        if self.axis == "zeta" and self.fixed <= 0:
            raise DomainError("fixed inverse spread must be positive")

    def grid(self) -> list[float]:
        h = (self.stop - self.start) / (self.steps - 1)
        return [self.start + i * h for i in range(self.steps)]


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a data file, plus its identity hash."""

    tool: str
    version: str
    spec: dict
    quadrature: dict
    method: str
    conventions: dict
    manifest_id: str
    timestamp: str
    data_files: dict = field(default_factory=dict)


def make_manifest(spec: SweepSpec, cfg: QuadratureConfig, method: str) -> RunManifest:
    payload = {
        "tool": "boostcap",
        "version": __version__,
        "spec": asdict(spec),
        "quadrature": asdict(cfg),
        "method": method,
        "conventions": CONVENTIONS,
    }
    digest = hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()).hexdigest()
    return RunManifest(manifest_id=digest,
                       timestamp=datetime.now(timezone.utc).isoformat(),
                       **payload)


def _eval_point(index: int, inv_gamma: float, zeta: float, cfg: QuadratureConfig,
                method: str) -> dict:
    try:
        lam = lambda_numeric(PacketFrame(1.0 / inv_gamma, zeta), cfg, method)
    except BoostcapError as exc:
        lam = exc
    return _row(index, inv_gamma, zeta, lam)


def _row(index: int, inv_gamma: float, zeta: float, lam: PauliLambda | BoostcapError) -> dict:
    row = {"index": index, "inv_gamma": inv_gamma, "zeta": zeta, "status": "ok"}
    if isinstance(lam, BoostcapError):
        row["status"] = f"error:{type(lam).__name__}"
        return row
    rep = capacity_report(lam)
    p = lambda_probs(lam)
    row.update(l1=lam.l1, l2=lam.l2, l3=lam.l3,
               p0=p.p0, p1=p.p1, p2=p.p2, p3=p.p3,
               classical_capacity=rep.classical, hashing_raw=rep.hashing_raw,
               hashing=rep.hashing, cerf=rep.cerf,
               cerf_zero_capacity=rep.cerf_zero_capacity,
               entanglement_breaking=rep.entanglement_breaking)
    return row


def _eval_chunk(points: list[tuple], cfg: QuadratureConfig, method: str) -> list[dict]:
    """Rows of grid points (index, inv_gamma, zeta, frame) from one batched
    worklist of the method.

    ``lambda_batch`` returns each frame's own error as its entry, from one
    pass.  The per-point fallback is for an error that it raises instead,
    which belongs to no one frame of the batch: an integrand that returns a
    non-finite value.  Each point then flags its own error.  An unknown
    method never gets here: :func:`run_sweep` refuses it first.
    """
    try:
        lams = lambda_batch([frame for *_, frame in points], cfg, method)
    except BoostcapError:
        # not an error of one frame: each point on its own flags its own
        return [_eval_point(i, ig, z, cfg, method) for i, ig, z, _ in points]
    return [_row(i, ig, z, lam) for (i, ig, z, _), lam in zip(points, lams)]


def run_sweep(spec: SweepSpec, cfg: QuadratureConfig = SWEEP_CONFIG,
              method: str = "closed_profile", jobs: int | None = None) -> list[dict]:
    """Evaluate the sweep grid in this process; failed points are flagged rows.

    The frames are made first: a point whose frame cannot be made (its
    1/inv_gamma overflows, a DomainError) is its own flagged row.  Every
    other point, on either method, runs in one batched worklist
    (:func:`_eval_chunk`), whose rounds the quadrature evaluates in blocks
    of bounded size, each row bit-identical to its point evaluated alone.
    ``jobs`` is accepted and ignored: sweeps start no worker processes, and
    callers that still pass it keep working.  An unknown method raises
    DomainError before any quadrature.
    """
    _integrals(method)
    rows, points = {}, []
    for i, x in enumerate(spec.grid()):
        inv_gamma, zeta = (x, spec.fixed) if spec.axis == "inv_gamma" else (spec.fixed, x)
        try:
            points.append((i, inv_gamma, zeta, PacketFrame(1.0 / inv_gamma, zeta)))
        except DomainError as exc:
            rows[i] = _row(i, inv_gamma, zeta, exc)
    rows.update((row["index"], row) for row in _eval_chunk(points, cfg, method))
    return [rows[i] for i in range(spec.steps)]


def _format_cell(column: str, value) -> str:
    if value is None:
        return ""
    if column in _FLOAT_COLUMNS:
        return format(float(value), ".17g")
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def render_csv(rows: list[dict]) -> bytes:
    """RFC-4180 CSV ('.' decimal separator, 17 significant digits)."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\r\n")
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow([_format_cell(c, row.get(c)) for c in COLUMNS])
    return buf.getvalue().encode()


def write_csv(path: str, rows: list[dict], manifest: RunManifest) -> None:
    """Write the data file plus its side-car ``<path>.manifest.json``.

    The manifest records the data file's name and SHA-256, tying each data
    file to exactly one manifest.
    """
    payload = render_csv(rows)
    with open(path, "wb") as fh:
        fh.write(payload)
    doc = asdict(manifest)
    doc["data_files"] = {os.path.basename(path): hashlib.sha256(payload).hexdigest()}
    with open(path + ".manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def render_json(rows: list[dict], manifest: RunManifest) -> str:
    doc = {"manifest": asdict(manifest), "rows": rows}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_json(path: str, rows: list[dict], manifest: RunManifest) -> None:
    with open(path, "w") as fh:
        fh.write(render_json(rows, manifest))


def _cerf_crossing(rows: list[dict], axis: str) -> float | None:
    prev = None
    for row in rows:
        if row["status"] != "ok":
            continue
        x, margin = row[axis], row["cerf"] - 0.5
        if prev is not None:
            x0, m0 = prev
            if m0 > 0.0 >= margin or m0 >= 0.0 > margin or margin > 0.0 >= m0:
                return x0 + (x - x0) * m0 / (m0 - margin)
        prev = (x, margin)
    return None


def render_svg(rows: list[dict], spec: SweepSpec) -> str:
    """Static two-curve plot (classical capacity and clamped hashing bound)
    against the sweep axis, with a vertical rule at the zero-capacity
    boundary when it is crossed."""
    width, height, pad = 640.0, 440.0, 56.0
    ok = [r for r in rows if r["status"] == "ok"]
    xs = [r[spec.axis] for r in ok]
    if not xs:
        raise DomainError("no successful rows to plot")
    x0, x1 = min(xs), max(xs)
    span = (x1 - x0) or 1.0

    def sx(x: float) -> float:
        return pad + (x - x0) / span * (width - 2 * pad)

    def sy(y: float) -> float:
        return height - pad - max(0.0, min(1.0, y)) * (height - 2 * pad)

    def path(column: str) -> str:
        pts = [f"{sx(r[spec.axis]):.2f},{sy(r[column]):.2f}" for r in ok]
        return " ".join(pts)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<rect x="{pad:.0f}" y="{pad:.0f}" width="{width - 2 * pad:.0f}" '
        f'height="{height - 2 * pad:.0f}" fill="none" stroke="black"/>',
    ]
    crossing = _cerf_crossing(rows, spec.axis)
    if crossing is not None and x0 <= crossing <= x1:
        parts.append(f'<line x1="{sx(crossing):.2f}" y1="{pad:.0f}" '
                     f'x2="{sx(crossing):.2f}" y2="{height - pad:.0f}" '
                     'stroke="gray" stroke-dasharray="3,3"/>')
    parts.append(f'<polyline points="{path("classical_capacity")}" fill="none" '
                 'stroke="steelblue" stroke-dasharray="6,3" stroke-width="1.5"/>')
    parts.append(f'<polyline points="{path("hashing")}" fill="none" '
                 'stroke="firebrick" stroke-width="1.5"/>')
    parts.append(f'<text x="{width / 2:.0f}" y="{height - 14:.0f}" '
                 f'text-anchor="middle" font-size="14">{spec.axis}</text>')
    parts.append(f'<text x="16" y="{height / 2:.0f}" font-size="14" '
                 f'transform="rotate(-90 16 {height / 2:.0f})" '
                 'text-anchor="middle">bits per channel</text>')
    parts.append(f'<text x="{pad:.0f}" y="{pad - 10:.0f}" font-size="12">'
                 f'C dashed blue, Q lower bound red; axis {x0:.6g} to {x1:.6g}, '
                 f'fixed {spec.fixed:.6g}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path: str, rows: list[dict], spec: SweepSpec) -> None:
    with open(path, "w") as fh:
        fh.write(render_svg(rows, spec))


def load_config_file(path: str) -> dict:
    """key = value lines; '#' starts a comment; unknown keys rejected."""
    known = {f.name: type(f.default) for f in fields(QuadratureConfig)}
    out: dict = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in known:
                raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                out[key] = known[key](value.strip())
            except ValueError as exc:
                raise DomainError(f"{path}:{lineno}: bad value for {key!r}") from exc
    return out


def resolve_quadrature_config(file_values: dict, **flags) -> QuadratureConfig:
    """Flags override file values override sweep defaults; a flag of None is unset."""
    set_flags = {key: value for key, value in flags.items() if value is not None}
    return replace(SWEEP_CONFIG, **{**file_values, **set_flags})


def check_no_nan(rows: list[dict]) -> None:
    """Outputs must be finite or explicitly flagged; NaN never leaks."""
    for row in rows:
        for col in _FLOAT_COLUMNS:
            v = row.get(col)
            if v is not None and not math.isfinite(float(v)):
                raise DomainError(f"non-finite value {v!r} in column {col} "
                                  f"of row {row['index']}")
