"""Self-tests of the benchmark: python -m pytest benchmarks/test_benchmark.py"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from rodpade import criterion  # noqa: E402


def _jobs(name: str, seed: int, count: int = 40) -> list[workloads.Job]:
    return list(itertools.islice(workloads.generate(name, seed), count))


def test_generator_is_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        assert _jobs(name, 7) == _jobs(name, 7)
        assert _jobs(name, 7) != _jobs(name, 8)


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    job = run.JobResult(workloads.Job("x", ("det",)), run.Proc(1.0, 0, False, 1.0, b"", b""), 1.0)
    metrics, _ = run.end_to_end([job], [0.1])
    assert [m["name"] for m in spec["end_to_end"]] == list(metrics)
    layer_names = set(tracer.aggregate([])) | {"exact.max_coeff_bits", "cli.stdout_bytes", "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == layer_names


def _alphas(job: workloads.Job) -> list[Fraction]:
    (arg,) = [a for a in job.argv if a.startswith("--alphas")]
    assert arg.startswith("--alphas="), "alphas must be passed as --alphas=<list>"
    return [Fraction(x) for x in arg.split("=", 1)[1].split(",")]


def test_generator_covers_signed_and_fractional_alphas():
    alphas = [a for name in workloads.WORKLOADS for job in _jobs(name, 1) if "--alphas=" in " ".join(job.argv)
              for a in _alphas(job)]
    assert any(a < 0 for a in alphas)
    assert any(a.denominator > 1 for a in alphas)


def test_generated_betas_exceed_the_local_height():
    for seed in range(5):
        for job in _jobs("audit", seed):
            argv = list(job.argv)
            place = criterion.Place.parse(argv[argv.index("--place") + 1])
            beta = Fraction(argv[argv.index("--beta") + 1])
            assert criterion.abs_v(beta, place) > criterion.H_v_vec(_alphas(job), place)


def test_tail_leaves_ten_samples_beyond():
    samples = [float(k) for k in range(30)]
    value, percentile, count = run.tail(samples)
    assert sum(1 for x in samples if x > value) == 10
    assert (percentile, count) == (66, 30)
    assert run.tail(samples[:15]) == (7.0, 53, 15)


def test_span_self_times_are_nonnegative():
    rec = tracer.Recorder(job_id=0)

    def outer():
        rec.call("inner", sum, range(1000))
        return rec.call("inner", sorted, range(1000, 0, -1))

    rec.call("outer", outer)
    spans = rec.to_json([])["spans"]
    assert [s[0] for s in spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in spans] == [None, 0, 0]
    own = tracer.self_times(spans)
    assert all(x >= 0 for x in own)
    assert abs(sum(own) - (spans[0][2] - spans[0][1])) < 1e-9


def test_traced_job_matches_untraced_and_records_every_layer(tmp_path):
    run.preflight()
    argv = ("pade", "--m", "1", "--r", "2", "--alphas=-1/2", "--n", "1")
    plain = run.run_process(["-m", "rodpade", *argv])
    spans = tmp_path / "spans.json"
    traced = run.run_process([str(HERE / "tracer.py"), str(spans), "3", *argv])
    assert plain.exit_code == traced.exit_code == 0
    assert plain.sha256 == traced.sha256
    doc = json.loads(spans.read_text())
    assert doc["job"] == 3 and doc["missing"] == []
    assert all(x >= 0 for x in tracer.self_times(doc["spans"]))
    names = {s[0] for s in doc["spans"]}
    assert {"cli.main", "mpl.table", "weyl.adjoint", "transform.delta", "mpl.moments"} <= names
    metrics = tracer.aggregate([doc])
    assert metrics["weyl.adjoint_calls"] == 2
    assert metrics["transform.delta_points"] > 0


def test_oracle_rejects_a_corrupted_column():
    run.preflight()
    proc = run.run_process(["-m", "rodpade", "pade", "--m", "1", "--r", "2", "--alphas=3/2", "--n", "2"])
    assert checks.check(proc.exit_code, proc.stdout, proc.stderr)[0] is None
    payload = json.loads(proc.stdout)
    payload["table"]["P"][1][0] = str(Fraction(payload["table"]["P"][1][0]) + 1)
    bad = json.dumps(payload).encode()
    failure, _ = checks.check(0, bad, b"")
    assert failure is not None and "not orthogonal" in failure


def test_timed_out_job_counts_as_failed_and_is_kept():
    run.preflight()
    hung = run.run_process(["-c", "import time; time.sleep(30)"], timeout=0.3)
    assert hung.timed_out and hung.exit_code != 0 and hung.wall_s < 10
    done = run.run_process(["-m", "rodpade", "det", "--m", "1", "--r", "1", "--alphas=2", "--n", "1"])
    job = workloads.Job("test", ("det",))
    results = [run.JobResult(job, hung, 1.0), run.JobResult(job, done, 1.0)]
    run.evaluate(results)
    assert results[0].failure is not None and "timed out" in results[0].failure
    assert results[1].failure is None
    metrics, notes = run.end_to_end(results, [0.1])
    assert notes["fail_ratio"].startswith("1/2")
    assert metrics["jobs_per_s"][0] == 1 / (hung.wall_s + done.wall_s)
