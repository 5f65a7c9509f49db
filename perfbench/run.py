#!/usr/bin/env python3
"""varinterp benchmark: seeded CLI jobs through `varinterp.cli.main`.

    python3 perfbench/run.py --workload aho_curves --seed 1 --seconds 30 --trace 0

Run from the repository root.  One long-lived process, one client, one job
at a time (closed loop): each job is an argv for `cli.main`, generated from
the seed (see jobs.py), and the next starts when the previous returns.  Jobs
run until their summed wall time reaches --seconds; every output is then
checked outside the timed region (checks.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs the jobs of half
the budget untraced, replays the same jobs under the outside-in tracer
(layertrace.py) and prints the per-layer metrics.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.  The exit
code is 1 when an output check fails and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"

# One process, no extra threads: the load matches one CLI user on a small box.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
# a latency percentile needs at least this many jobs beyond it
TAIL_BEYOND = 10


@dataclass
class Outcome:
    job: object
    seconds: float
    code: int | None
    error: str | None  # exception escaping cli.main, "Type: message"
    stdout: str
    csv: str | None
    problems: list | None = None

    @property
    def failure(self) -> str | None:
        """Failure class for the tally, or None for a correct job."""
        if self.error is not None:
            return re.sub(r"[-+]?\d[\d.e+-]*", "#", self.error)
        if self.code != 0:
            return f"exit {self.code}"
        if self.problems:
            return "output check"
        return None


def run_job(cli, job, work: str, tracer=None) -> Outcome:
    for name, text in job.files.items():
        with open(os.path.join(work, name), "w") as fh:
            fh.write(text)
    argv = job.concrete_argv(work)
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    if tracer is not None:
        tracer.job = job.index
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects an argv
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # any escaping exception is a failed job
        error = f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    csv = None
    if job.kind == "interpolate" and code == 0:
        with open(os.path.join(work, "curve.csv")) as fh:
            csv = fh.read()
    return Outcome(job, dt, code, error, out.getvalue(), csv)


def run_for(cli, jobs, seconds: float, work: str) -> list[Outcome]:
    """Closed loop: run jobs from the stream until their time sums to `seconds`."""
    outcomes, total = [], 0.0
    while total < seconds:
        o = run_job(cli, next(jobs), work)
        outcomes.append(o)
        total += o.seconds
    return outcomes


def check_all(checker, outcomes: list[Outcome]) -> None:
    for o in outcomes:
        if o.code != 0 or o.error is not None:
            continue
        if o.job.kind == "interpolate":
            o.problems = checker.curve(o.job.model, o.job.grid, o.csv)
        else:
            o.problems = checker.inference(o.job, o.stdout)


def items(o: Outcome) -> int:
    if o.failure is not None:
        return 0
    return o.job.grid[2] if o.job.kind == "interpolate" else 1


def latency_stats(outcomes: list[Outcome]) -> tuple[float, float, float, int]:
    """p50, tail, tail percentile and n.

    The tail is the highest percentile with TAIL_BEYOND jobs beyond it, but
    never below the median: a run of at most 2 * TAIL_BEYOND jobs has no
    such percentile and reports its (upper) median there.  A failed job ranks above
    every completed one: it is given the run's total time.
    """
    total = sum(o.seconds for o in outcomes)
    lat = sorted(total if o.failure else o.seconds for o in outcomes)
    n = len(lat)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return statistics.median(lat), lat[rank - 1], 100.0 * rank / n, n


def measure_setup() -> list[float]:
    """Wall times of fresh interpreters that import varinterp.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import varinterp.cli"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            **{v: os.environ.get(v) for v in BLAS_VARS}}


def summarize(outcomes: list[Outcome]) -> dict:
    """Failed jobs tallied by exit code, exception type or failed check."""
    return dict(Counter(o.failure for o in outcomes if o.failure))


def _result(outcomes: list[Outcome], metrics: dict) -> dict:
    return {
        "correct": not any(o.problems for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.failure),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "varinterp" / "cli.py").is_file():
        print(f"perfbench: no program at {SRC / 'varinterp'}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ.setdefault(var, "1")
    os.environ.pop("VARINTERP_LEDGER", None)  # ledgers go where --out says
    sys.path.insert(0, str(SRC))

    import checks
    import jobs as jobgen
    from varinterp import cli

    if args.workload not in jobgen.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(jobgen.WORKLOADS)}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK)
    try:
        run_job(cli, _warmup_job(jobgen, args.workload), work)
        if args.trace:
            lines, result = _traced(cli, checks, jobgen, args, work)
        else:
            lines, result = _untraced(cli, checks, jobgen, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _warmup_job(jobgen, workload: str):
    return jobgen.Job(index=-1, kind="warmup", model="", argv=jobgen.WARMUP_ARGV[workload])


def _header(jobgen, args) -> list[str]:
    return [f"manifest: {json.dumps(jobgen.manifest(args.workload, args.seed))}",
            f"environment: {json.dumps(environment())}",
            "load: closed loop, 1 client, 1 job at a time, 1 process"]


def _failures(outcomes: list[Outcome]) -> list[str]:
    lines = []
    for o in outcomes:
        if o.problems:
            lines.append(f"check failed, job {o.job.index} {' '.join(o.job.argv)}: "
                         + "; ".join(o.problems[:3]))
    return lines


def _untraced(cli, checks, jobgen, args, work):
    setup = measure_setup()
    outcomes = run_for(cli, jobgen.generate(args.workload, args.seed), args.seconds, work)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_all(checks.Checker(), outcomes)

    total = sum(o.seconds for o in outcomes)
    failed = sum(1 for o in outcomes if o.failure)
    p50, tail, pct, n = latency_stats(outcomes)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (sum(items(o) for o in outcomes) / total, "items/s"),
        "job_s.p50": (p50, "s"),
        "job_s.tail": (tail, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    lines = _header(jobgen, args)
    lines.append(f"setup_s samples: {', '.join(f'{s:.4f}' for s in setup)}")
    lines.append(f"jobs: {n} attempted, {failed} failed, timed {total:.3f} s")
    lines.append(f"fail_ratio: {failed / n} ratio; failures by type: {json.dumps(summarize(outcomes))}")
    for name, (value, unit) in metrics.items():
        extra = f"  (p{pct:.1f} of n={n} jobs)" if name == "job_s.tail" else ""
        lines.append(f"{name}: {value:.6g} {unit}{extra}")
    return lines + _failures(outcomes), _result(outcomes, metrics)


def _traced(cli, checks, jobgen, args, work):
    import layertrace

    plain = run_for(cli, jobgen.generate(args.workload, args.seed), args.seconds / 2, work)
    with layertrace.Tracer() as tracer:
        traced = [run_job(cli, o.job, work, tracer) for o in plain]
    outcomes = plain + traced
    check_all(checks.Checker(), outcomes)

    rows = sum(items(o) for o in traced if o.job.kind == "interpolate")
    feynman_rows = sum(items(o) for o in traced if o.job.model.startswith("polaron"))
    metrics = layertrace.layer_metrics(tracer.spans, rows, feynman_rows, len(traced))
    overhead = sum(o.seconds for o in traced) - sum(o.seconds for o in plain)
    metrics["trace.overhead_s"] = (overhead, "s")

    TRACE_OUT.mkdir(exist_ok=True)
    span_file = TRACE_OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(str(span_file))
    lines = _header(jobgen, args)
    lines.append(f"traced {len(traced)} jobs ({rows} rows); {len(tracer.spans)} spans "
                 f"written to {span_file.relative_to(ROOT)}")
    lines.append(f"failures by type: {json.dumps(summarize(outcomes))}")
    for name, (value, unit) in metrics.items():
        lines.append(f"{name}: {value:.6g} {unit}")
    return lines + _failures(outcomes), _result(outcomes, metrics)


if __name__ == "__main__":
    sys.exit(main())
