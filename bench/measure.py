"""One measuring process of a benchmark run; ``run.py`` starts it.

Modes:

- ``setup``: import ``boostcap``, run the workload's warm-up, report the
  set-up time and exit;
- ``measure``: set up, then run whole rounds of the workload, untraced,
  until their time reaches this process's share of the run; the speed
  kernel runs after every operation and scales its time (``speed.py``);
- ``trace``: set up, then alternate one untraced and one traced round until
  the run's length has passed or ``MAX_SPANS`` spans are held; report
  per-layer numbers and the tracing overhead, and write the spans out.

In ``measure`` and ``trace``, every output is checked as its round ends,
and the negative controls run.

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process; the monotonic clock is system-wide on Linux, so set-up time
runs from process start.  It is reported in two parts, up to the end of
numpy's import and after it, with the speed kernel's time right after the
warm-up.  The last line of standard output is one JSON
object.
"""

from __future__ import annotations

import time

# numpy first and nothing else before it: set-up time splits where its
# import ends, and ``speed.startup_s`` times the same span in a fresh
# interpreter
import numpy as np

NUMPY_READY = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from boostcap.errors import BoostcapError  # noqa: E402

# the traced pass stops after the round that fills this many spans (24 bytes
# each); a round of curves records about 0.6 million
MAX_SPANS = 1_000_000


def _max_rss_mb() -> float:
    """Peak resident memory of this process or of its largest waited-for
    child (the sweep's pool workers), in MiB (Linux reports KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _round(args, jobs, index: int, on_op=None, clock=None) -> list[dict]:
    """Run round ``index`` and time each operation; with a ``clock``, also
    give each time scaled to the reference machine."""
    records = []
    for op in workloads.round_ops(args.workload, args.seed, index):
        t0 = time.perf_counter()
        try:
            out = on_op(op, jobs) if on_op else workloads.run_op(op, jobs)
            error = None
        except BoostcapError as exc:
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        records.append({"op": op, "out": out, "error": error, "seconds": seconds,
                        "scaled": seconds * clock.scale() if clock else seconds})
    return records


class Verdict:
    """Checks each round's outputs as the round ends, then drops them, so a
    process never holds more than one round of outputs; the negative
    controls run on the first output of each kind of operation."""

    def __init__(self):
        self.problems: list[str] = []
        self.controls: dict[str, bool] = {}

    def check(self, records: list[dict]) -> None:
        for rec in records:
            out = rec.pop("out")
            if rec["error"] is not None:
                continue
            op = rec["op"]
            self.problems += checks.check_op(op, out)
            if not any(name.startswith(op.kind + ".") for name in self.controls):
                for name, caught in checks.negative_controls(op, out).items():
                    self.controls[f"{op.kind}.{name}"] = caught


def _summary(records) -> dict:
    failed = sum(rec["error"] is not None for rec in records)
    return {"attempted": len(records), "failed": failed,
            "errors": sorted({rec["error"] for rec in records if rec["error"]}),
            "measured_s": sum(rec["seconds"] for rec in records),
            "scaled_s": sum(rec["scaled"] for rec in records),
            "op_seconds": [rec["seconds"] for rec in records],
            "op_scaled": [rec["scaled"] for rec in records],
            "labels": [rec["op"].label for rec in records]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--proc", type=int, default=0, help="index of this process in the run")
    p.add_argument("--procs", type=int, default=1, help="measuring processes in the run")
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--trace-out", default=None)
    args = p.parse_args(argv)

    # tracing collects spans in this process only, so the traced pass runs
    # curves serially; the timed passes use the program's default parallelism
    jobs = 1 if args.mode == "trace" else None
    workloads.run_op(workloads.warmup_op(args.workload, args.seed, args.proc), jobs)
    ready = time.monotonic()
    result = {"setup_s": ready - args.spawned, "start_s": NUMPY_READY - args.spawned,
              "package_s": ready - NUMPY_READY, "kernel_s": speed.probe_s()}

    verdict = Verdict()
    if args.mode == "measure":
        # whole rounds until their operations' wall time reaches this
        # process's share; the speed kernel and the checks are not timed
        clock = speed.ScaledClock()
        records, measured, index = [], 0.0, args.proc
        while measured < args.seconds:
            batch = _round(args, jobs, index, clock=clock)
            measured += sum(rec["seconds"] for rec in batch)
            verdict.check(batch)
            records += batch
            index += args.procs
        result.update(_summary(records))
        result["peak_rss_mb"] = _max_rss_mb()
    elif args.mode == "trace":
        import spans

        # untraced and traced rounds alternate, so the tracing overhead is
        # measured against rounds that ran on the same machine state
        tracer = spans.Tracer()
        ref, records, index = [], [], 0
        t_start = time.perf_counter()
        while (time.perf_counter() - t_start < args.seconds
               and len(tracer.start) < MAX_SPANS) or not records:
            batch = _round(args, jobs, index)
            verdict.check(batch)
            ref += batch
            tracer.install()
            try:
                batch = _round(args, jobs, index + 1, on_op=lambda op, j:
                               tracer.span("bench.op", workloads.run_op, op, j))
            finally:
                tracer.uninstall()
            verdict.check(batch)
            records += batch
            index += 2
        ok = [rec for rec in records if rec["error"] is None]
        result.update(_summary(records))
        result["per_layer"] = spans.per_layer(tracer, max(len(ok), 1))
        result["overhead"] = (statistics.fmean(rec["seconds"] for rec in records)
                              / statistics.fmean(rec["seconds"] for rec in ref) - 1.0)
        result["untraced_op_seconds"] = [rec["seconds"] for rec in ref]
        result["spans"] = len(tracer.start)
        result["peak_rss_mb"] = _max_rss_mb()
        if args.trace_out:
            np.savez(args.trace_out, **tracer.arrays())
    result["problems"], result["controls"] = verdict.problems, verdict.controls
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
