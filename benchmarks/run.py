"""Benchmark of the rodpade command line.

    python3 benchmarks/run.py --workload wide-det --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

Each job is ``python -m rodpade ...`` in a fresh interpreter, as a user of
the CLI runs it: the process-global moment caches start cold every time, and
in-process repetition would hide that cost.  Jobs run one at a time in a
closed loop with one client (the machine this was sized on has two cores:
one for this driver, one for the job).  Jobs are started until ``--seconds``
have passed; the last one runs to completion.

Times are calibrated to the host's speed.  Wall time of the same job on a
shared host swings by up to 2x over tens of seconds, far more than a
regression bound.  So a fixed exact-arithmetic loop in this process, which
shares no code with the program, is timed before and after every job; the
job's wall time is scaled by ``REFERENCE_NOMINAL_S`` over the mean of the
two.  A faster program still reads faster; the host's swings mostly cancel.
Raw wall times are printed beside and kept in the per-job records.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every job
twice, untraced and then under ``tracer.py``, and reports per-layer metrics
and the tracing overhead.  Outputs are checked after the timed loop; a job
that fails a check, exits badly or times out counts as failed and stays in
the timing samples.  Per-job records (argv, wall time, peak RSS, stdout
sha256, spans) go to ``.bench_out/`` in the checkout.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
JOB_TIMEOUT_S = 45.0
SETUP_ARGS = ("-c", "import rodpade.cli")
REFERENCE_TERMS = 3000
REFERENCE_NOMINAL_S = 0.014  # the reference loop's time on the host the bounds were set on

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


@dataclass
class Proc:
    """One finished child interpreter."""

    wall_s: float
    exit_code: int
    timed_out: bool
    rss_mb: float  # this child's own peak RSS, from wait4
    stdout: bytes
    stderr: bytes

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.stdout).hexdigest()


@dataclass
class JobResult:
    job: workloads.Job
    run: Proc
    scale: float  # host-speed calibration factor for run.wall_s
    traced: Proc | None = None
    failure: str | None = None
    coeff_bits: int = 0


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _exits_within(pid: int, timeout: float) -> bool:
    fd = os.pidfd_open(pid)
    try:
        return bool(select.select([fd], [], [], timeout)[0])
    finally:
        os.close(fd)


def run_process(args, timeout: float = JOB_TIMEOUT_S) -> Proc:
    """Run ``python <args>`` to completion, killing it after ``timeout`` seconds."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=out, stderr=err, env=_child_env(), cwd=ROOT
        )
        exited = False
        try:
            exited = _exits_within(proc.pid, timeout)
        finally:
            if not exited:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(wall, proc.returncode, not exited, usage.ru_maxrss / 1024, out.read(), err.read())


def reference_s() -> float:
    """Wall time of a fixed harmonic sum in exact rationals, run in this process."""
    start = perf_counter()
    total = Fraction(0)
    for k in range(1, REFERENCE_TERMS):
        total += Fraction(1, k)
    return perf_counter() - start


def _bracketed(args, before: float) -> tuple[Proc, float, float]:
    """Run a child between two reference timings: (proc, calibration scale, reference after)."""
    proc = run_process(args)
    after = reference_s()
    return proc, REFERENCE_NOMINAL_S / ((before + after) / 2), after


def preflight() -> None:
    """Fail before measuring anything when the program is not in the checkout."""
    if not (SRC / "rodpade" / "cli.py").is_file():
        raise SystemExit(f"error: no program at {SRC / 'rodpade'}; run from a full checkout")
    probe = run_process(SETUP_ARGS, timeout=60)
    if probe.exit_code != 0:
        raise SystemExit("error: cannot import rodpade.cli:\n" + probe.stderr.decode(errors="replace"))
    sys.path.insert(0, str(SRC))


def tail(samples: list[float]) -> tuple[float, int, int]:
    """Highest percentile with at least 10 samples beyond it: (value, percentile, samples).

    Below 21 samples that percentile falls under the median; the median
    sample is reported then, so the value does not jump as the count moves.
    """
    xs = sorted(samples)
    i = max(len(xs) - 11, len(xs) // 2)
    return xs[i], 100 * (i + 1) // len(xs), len(xs)


def run_loop(jobs, seconds: float, spans_dir: Path | None) -> tuple[list[JobResult], list[float]]:
    """Jobs until ``seconds`` have passed.

    Untraced, each job is followed by one set-up sample, so that set-up time
    is sampled across the whole run, as the jobs are.
    """
    results: list[JobResult] = []
    setup: list[float] = []
    ref = reference_s()
    start = perf_counter()
    while not results or perf_counter() - start < seconds:
        job_id, job = len(results), next(jobs)
        run, scale, ref = _bracketed(["-m", "rodpade", *job.argv], ref)
        traced = None
        if spans_dir is None:
            probe, probe_scale, ref = _bracketed(SETUP_ARGS, ref)
            setup.append(probe.wall_s * probe_scale)
        else:
            spans = spans_dir / f"{job_id}.json"
            traced = run_process([str(HERE / "tracer.py"), str(spans), str(job_id), *job.argv])
            ref = reference_s()
        results.append(JobResult(job, run, scale, traced))
    return results, setup


def _proc_failure(proc: Proc) -> str | None:
    if proc.timed_out:
        return f"timed out after {JOB_TIMEOUT_S:g} s"
    return None


def evaluate(results: list[JobResult]) -> None:
    """Correctness of every job, outside the timed region."""
    import checks

    for res in results:
        failure, payload = checks.check(res.run.exit_code, res.run.stdout, res.run.stderr)
        failure = _proc_failure(res.run) or failure
        if res.traced is not None and failure is None:
            failure = _proc_failure(res.traced)
            if failure is None and res.traced.exit_code != res.run.exit_code:
                failure = f"traced exit code {res.traced.exit_code}"
            if failure is None and res.traced.sha256 != res.run.sha256:
                failure = "traced stdout differs from untraced stdout"
        res.failure = failure
        if payload is not None:
            res.coeff_bits = checks.max_coeff_bits(payload)


def end_to_end(results: list[JobResult], setup: list[float]) -> tuple[dict, dict]:
    walls = [r.run.wall_s * r.scale for r in results]
    ok = sum(1 for r in results if r.failure is None)
    tail_value, tail_pct, tail_n = tail(walls)
    metrics = {
        # one client, so the loop's wall time is the jobs' wall time
        "jobs_per_s": (ok / sum(walls), "1/s"),
        "job_s.p50": (statistics.median(walls), "s"),
        "job_s.tail": (tail_value, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(r.run.rss_mb for r in results), "MB"),
    }
    notes = {
        "jobs_per_s": f"raw {ok / sum(r.run.wall_s for r in results):.6g} 1/s",
        "job_s.p50": f"median of {len(walls)} jobs; raw {statistics.median(r.run.wall_s for r in results):.6g} s",
        "job_s.tail": f"p{tail_pct} of {tail_n} jobs",
        "setup_s": f"median of {len(setup)} interpreter starts",
        "fail_ratio": f"{len(results) - ok}/{len(results)} = {(len(results) - ok) / len(results):g}",
    }
    return metrics, notes


def per_layer(results: list[JobResult], spans_dir: Path) -> tuple[dict, list[dict]]:
    import tracer

    docs = []
    for job_id, res in enumerate(results):
        path = spans_dir / f"{job_id}.json"
        if path.is_file():
            docs.append(json.loads(path.read_text(encoding="utf-8")))
        elif res.failure is None:
            res.failure = "traced job wrote no spans"
    missing = sorted({target for doc in docs for target in doc["missing"]})
    if missing:
        print("tracer found no " + ", ".join(missing) + "; their metrics read 0")
    values = tracer.aggregate(docs)
    values["exact.max_coeff_bits"] = max(r.coeff_bits for r in results)
    values["cli.stdout_bytes"] = statistics.fmean(len(r.run.stdout) for r in results)
    values["trace.overhead_ratio"] = sum(r.traced.wall_s for r in results) / sum(
        r.run.wall_s for r in results
    )
    units = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    return {m["name"]: (values[m["name"]], m["unit"]) for m in units}, docs


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        spans_dir = Path(tmp) if trace else None
        results, setup = run_loop(workloads.generate(name, seed), seconds, spans_dir)
        evaluate(results)
        if trace:
            metrics, docs = per_layer(results, spans_dir)
            notes = {}
        else:
            metrics, notes = end_to_end(results, setup)
            docs = []
    failed = sum(1 for r in results if r.failure is not None)
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "setup_samples_s": setup,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
        "jobs": [
            {
                "slot": r.job.slot,
                "argv": list(r.job.argv),
                "wall_s": r.run.wall_s,
                "calibration_scale": r.scale,
                "exit_code": r.run.exit_code,
                "peak_rss_mb": r.run.rss_mb,
                "stdout_sha256": r.run.sha256,
                "traced_wall_s": r.traced.wall_s if r.traced else None,
                "traced_stdout_sha256": r.traced.sha256 if r.traced else None,
                "failure": r.failure,
            }
            for r in results
        ],
        "spans": docs,
    }
    out = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record), encoding="utf-8")
    for res in results:
        if res.failure is not None:
            print(f"FAILED {' '.join(res.job.argv)}: {res.failure}")
    for key, (value, unit) in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{name:12s} {key:24s} {value:14.6g} {unit}{note}")
    if "fail_ratio" in notes:
        print(f"{name:12s} {'fail_ratio':24s} {notes['fail_ratio']}")
    return {"attempted": len(results), "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    preflight()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += summary["attempted"]
        failed += summary["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        for key, (value, unit) in summary["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
