"""Benchmark of boostcap: capacity curves, threshold solves, quadrature oracle.

Usage, from the root of a checkout:

    python3 bench/run.py --workload curves|thresholds|oracle --seed N \
        --seconds S --trace 0|1

``--trace 0`` times the workload untraced and prints the end-to-end
metrics.  The run is split over ``MEASURE_PROCS`` fresh measuring processes,
one after another, each running whole rounds for its share of ``S``
seconds, so that no single process start or memory layout sets the whole
run.  ``SETUP_PROBES`` more processes only set up; the set-up time reported
is the median over all of them.  Every time reported is scaled to a
reference machine (``speed.py``): operation times by a kernel that each
process runs between operations; set-up time in two parts, by start-up
probes run before each process and by that kernel; the wall times go to
the run's details.

``--trace 1`` runs the separate traced pass in one process and prints the
per-layer metrics; its spans go to ``bench/results/trace-<workload>.npz``.

Every output is checked and every negative control must be caught, or
``correct`` is false.  The last line of standard output is one JSON object;
details of the run go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# as in workloads.py; this file imports nothing from the package, so that it
# can report a checkout without sources
WORKLOADS = ("curves", "thresholds", "oracle")
MEASURE_PROCS = 3
SETUP_PROBES = 4
# every run ends within 180 s; leave room to stop a stuck process
DEADLINE_S = 170.0


class RunFailed(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    # a fixed hash seed removes one source of process-to-process variation
    env["PYTHONHASHSEED"] = "0"
    return env


def _startup() -> float:
    """One start-up probe (``speed.startup_s``)."""
    try:
        return speed.startup_s(_env())
    except subprocess.SubprocessError as exc:
        raise RunFailed(f"start-up probe failed: {exc}")


def _spawn(mode: str, args, deadline: float, proc: int = 0, seconds: float = 0.0,
           extra: tuple = ()) -> dict:
    """Run one ``measure.py`` process to completion and parse its report."""
    env = _env()
    cmd = [sys.executable, str(HERE / "measure.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--proc", str(proc),
           "--procs", str(MEASURE_PROCS), *extra]
    spawned = time.monotonic()
    p = subprocess.Popen(cmd + ["--spawned", repr(spawned)], cwd=ROOT, env=env,
                         stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # the process group holds the sweep's pool workers too
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        raise RunFailed(f"{mode} process {proc} overran the run's deadline")
    if p.returncode != 0 or not out.strip():
        raise RunFailed(f"{mode} process {proc} exited with code {p.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _verdict(reports: list[dict]) -> tuple[bool, list[str]]:
    problems = [p for r in reports for p in r["problems"]]
    problems += [f"negative control {name} not caught"
                 for r in reports for name, caught in r["controls"].items() if not caught]
    return not problems, problems


def _timed(args, deadline: float) -> tuple[dict, dict]:
    # a start-up probe right before every process
    share = args.seconds / MEASURE_PROCS
    starts, reports = [], []
    for j in range(MEASURE_PROCS):
        starts.append(_startup())
        reports.append(_spawn("measure", args, deadline, proc=j, seconds=share))
    # the set-up probes run last: the first process of a run may find the
    # interpreter's and the package's files out of the page cache
    setups = list(reports)
    for i in range(SETUP_PROBES):
        starts.append(_startup())
        setups.append(_spawn("setup", args, deadline, proc=MEASURE_PROCS + i))
    # each process's set-up up to numpy's import scaled by the start-up
    # probes, the package's import and the warm-up by its own speed kernel
    start_scale = speed.REF_START_S / statistics.median(starts)
    setup_scaled = [r["start_s"] * start_scale + r["package_s"] * speed.REF_S / r["kernel_s"]
                    for r in setups]
    op_scaled = [t for r in reports for t in r["op_scaled"]]
    correct, problems = _verdict(reports)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    metrics = {
        "setup_s": (statistics.median(setup_scaled), "s"),
        "ops_per_s": ((attempted - failed) / sum(r["scaled_s"] for r in reports), "1/s"),
        "op_s_p50": (statistics.median(op_scaled), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in reports), "MB"),
    }
    detail = {"setups_s": setup_scaled, "startups_s": starts, "problems": problems,
              "processes": reports, "setup_probes": setups[MEASURE_PROCS:]}
    return ({"correct": correct, "attempted": attempted,
             "failed": failed, "metrics": metrics}, detail)


def _traced(args, deadline: float) -> tuple[dict, dict]:
    trace_file = RESULTS / f"trace-{args.workload}.npz"
    report = _spawn("trace", args, deadline, seconds=float(args.seconds),
                    extra=("--trace-out", str(trace_file)))
    correct, problems = _verdict([report])
    metrics = {name: tuple(v) for name, v in report["per_layer"].items()}
    detail = {"problems": problems, "trace_file": str(trace_file.relative_to(ROOT)),
              "process": report}
    return ({"correct": correct, "attempted": report["attempted"],
             "failed": report["failed"], "metrics": metrics}, detail)


def main(argv=None) -> int:
    t0 = time.monotonic()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "boostcap" / "__init__.py").is_file():
        print(f"run.py: no boostcap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    deadline = t0 + DEADLINE_S
    try:
        result, detail = (_traced if args.trace else _timed)(args, deadline)
    except RunFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    detail.update(vars(args), result=result)
    name = f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(detail, indent=1) + "\n")
    for problem in detail["problems"][:20]:
        print(f"run.py: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
