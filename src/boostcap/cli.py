"""Command-line interface.

Subcommands: lambdas, capacity, sweep-gamma, sweep-zeta, threshold-boost,
threshold-gamma, verify.  Exit codes: 0 success, 1 invariant
failure, 2 usage error, 3 numerical non-convergence.

Quadrature settings come from (in increasing precedence) built-in sweep
defaults, a key=value config file named by --config or the BOOSTCAP_CONFIG
environment variable, and explicit flags.  Rapidity may be given directly
(--zeta) or as a velocity (--velocity v, converted via zeta = atanh v).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields

from . import __version__
from .capacity import boost_threshold, capacity_report, gamma_threshold
from .channel import PacketFrame, lambda_numeric, lambda_probs
from .errors import (BoostcapError, ConvergenceError, DomainError,
                     PreconditionError, RangeError, ThresholdNotFoundError)
from .quadrature import QuadratureConfig
from .sweep import (SweepSpec, check_no_nan, load_config_file, make_manifest,
                    render_csv, resolve_quadrature_config, run_sweep,
                    write_csv, write_json, write_svg)
from .verify import run_verify
from .wavepacket import normalization

_USAGE_ERRORS = (DomainError, RangeError, PreconditionError)
_NUMERIC_ERRORS = (ConvergenceError, ThresholdNotFoundError)


def _add_quadrature_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file (or $BOOSTCAP_CONFIG)")
    p.add_argument("--abs-tol", type=float, default=None)
    p.add_argument("--rel-tol", type=float, default=None)
    p.add_argument("--max-subdivisions", type=int, default=None)
    p.add_argument("--lambda-method", choices=("closed_profile", "quadrature"),
                   default="closed_profile",
                   help="azimuthal profiles by elliptic closed forms (default) "
                        "or adaptive quadrature (the oracle path)")


def _add_gamma_args(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--gamma", type=float, help="packet spread")
    g.add_argument("--inv-gamma", type=float, help="inverse packet spread")


def _add_zeta_args(p: argparse.ArgumentParser) -> None:
    z = p.add_mutually_exclusive_group()
    z.add_argument("--zeta", type=float, help="boost rapidity (default 0)")
    z.add_argument("--velocity", type=float,
                   help="boost velocity, |v| < 1; converted to rapidity")


def _quadrature_from(args) -> QuadratureConfig:
    path = args.config or os.environ.get("BOOSTCAP_CONFIG")
    file_values = load_config_file(path) if path else {}
    flags = {f.name: getattr(args, f.name) for f in fields(QuadratureConfig)}
    return resolve_quadrature_config(file_values, **flags)


def _zeta_from(args) -> float:
    if getattr(args, "velocity", None) is not None:
        v = args.velocity
        if not -1.0 < v < 1.0:
            raise DomainError(f"velocity must satisfy |v| < 1, got {v!r}")
        return math.atanh(v)
    return args.zeta if getattr(args, "zeta", None) is not None else 0.0


def _gamma_from(args) -> float:
    if getattr(args, "inv_gamma", None) is not None:
        if args.inv_gamma <= 0:
            raise DomainError("inverse spread must be positive")
        return 1.0 / args.inv_gamma
    if getattr(args, "gamma", None) is None:
        raise DomainError("one of --gamma/--inv-gamma is required")
    return args.gamma


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_lambdas(args) -> int:
    cfg = _quadrature_from(args)
    frame = PacketFrame(_gamma_from(args), _zeta_from(args))
    lam = lambda_numeric(frame, cfg, args.lambda_method)
    p = lambda_probs(lam)
    _emit({
        "gamma": frame.gamma, "inv_gamma": 1.0 / frame.gamma, "zeta": frame.zeta,
        "l1": lam.l1, "l2": lam.l2, "l3": lam.l3,
        "p0": p.p0, "p1": p.p1, "p2": p.p2, "p3": p.p3,
        "normalization": normalization(frame, "closed_form"),
        "method": args.lambda_method,
    })
    return 0


def _cmd_capacity(args) -> int:
    cfg = _quadrature_from(args)
    frame = PacketFrame(_gamma_from(args), _zeta_from(args))
    lam = lambda_numeric(frame, cfg, args.lambda_method)
    rep = capacity_report(lam)
    doc = {"gamma": frame.gamma, "inv_gamma": 1.0 / frame.gamma, "zeta": frame.zeta}
    doc.update(asdict(rep))
    _emit(doc)
    return 0


def _run_sweep_command(args, axis: str) -> int:
    cfg = _quadrature_from(args)
    fixed = _zeta_from(args) if axis == "inv_gamma" else 1.0 / _gamma_from(args)
    spec = SweepSpec(axis=axis, start=args.start, stop=args.stop,
                     steps=args.steps, fixed=fixed)
    manifest = make_manifest(spec, cfg, args.lambda_method)
    rows = run_sweep(spec, cfg, args.lambda_method)
    check_no_nan(rows)
    emitted = False
    if args.out:
        write_csv(args.out, rows, manifest)
        emitted = True
    if args.json:
        write_json(args.json, rows, manifest)
        emitted = True
    if args.svg:
        write_svg(args.svg, rows, spec)
        emitted = True
    if not emitted:
        sys.stdout.write(render_csv(rows).decode())
    failed = sum(1 for r in rows if r["status"] != "ok")
    if failed:
        print(f"warning: {failed} of {len(rows)} grid points flagged",
              file=sys.stderr)
    return 0


def _add_sweep_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--start", type=float, required=True)
    p.add_argument("--stop", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", help="CSV output path (side-car manifest "
                                 "<out>.manifest.json)")
    p.add_argument("--json", help="JSON output path (manifest embedded)")
    p.add_argument("--svg", help="SVG plot path (capacity curves vs axis)")


def _cmd_verify(args) -> int:
    rep = run_verify(args.level, lambda2_sign_flip=args.inject_lambda2_sign_flip)
    for c in rep.checks:
        status = "PASS" if c.passed else "FAIL"
        line = (f"{status}  {c.name:42s} residual={c.residual:.3e} "
                f"tol={c.tolerance:.0e} ({c.seconds:.2f}s)")
        if c.note:
            line += f"  [{c.note}]"
        print(line, file=sys.stderr)
    _emit(asdict(rep))
    return 0 if rep.passed else 1


def _cmd_threshold_boost(args) -> int:
    cfg = _quadrature_from(args)
    gamma = _gamma_from(args)
    zstar = boost_threshold(gamma, cfg, args.lambda_method)
    _emit({"gamma": gamma, "inv_gamma": 1.0 / gamma, "zeta_threshold": zstar,
           "velocity_threshold": math.tanh(zstar)})
    return 0


def _cmd_threshold_gamma(args) -> int:
    cfg = _quadrature_from(args)
    zeta = _zeta_from(args)
    ig = gamma_threshold(zeta, cfg, args.lambda_method)
    _emit({"zeta": zeta, "inv_gamma_threshold": ig, "gamma_threshold": 1.0 / ig})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boostcap",
        description="Boosted photonic wave packets, the induced Pauli channel, "
                    "and its capacity bounds.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambdas", help="channel eigenvalues at a single point")
    _add_quadrature_args(p)
    _add_gamma_args(p)
    _add_zeta_args(p)
    p.set_defaults(fn=_cmd_lambdas)

    p = sub.add_parser("capacity", help="capacity report at a single point")
    _add_quadrature_args(p)
    _add_gamma_args(p)
    _add_zeta_args(p)
    p.set_defaults(fn=_cmd_capacity)

    p = sub.add_parser("sweep-gamma", help="sweep the inverse spread at fixed boost")
    _add_quadrature_args(p)
    _add_zeta_args(p)
    _add_sweep_args(p)
    p.set_defaults(fn=lambda a: _run_sweep_command(a, "inv_gamma"))

    p = sub.add_parser("sweep-zeta", help="sweep the rapidity at fixed spread")
    _add_quadrature_args(p)
    _add_gamma_args(p)
    _add_sweep_args(p)
    p.set_defaults(fn=lambda a: _run_sweep_command(a, "zeta"))

    p = sub.add_parser("threshold-boost",
                       help="rapidity where the hashing bound turns positive")
    _add_quadrature_args(p)
    _add_gamma_args(p)
    p.set_defaults(fn=_cmd_threshold_boost)

    p = sub.add_parser("threshold-gamma",
                       help="inverse spread where the zero-capacity region ends")
    _add_quadrature_args(p)
    _add_zeta_args(p)
    p.set_defaults(fn=_cmd_threshold_gamma)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.add_argument("--inject-lambda2-sign-flip", action="store_true",
                   help=argparse.SUPPRESS)  # negative control for the suite
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _USAGE_ERRORS as exc:
        print(f"boostcap: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"boostcap: {exc}", file=sys.stderr)
        return 3
    except BoostcapError as exc:
        print(f"boostcap: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
