"""Digests of the first jobs of a benchmark workload, run in process or each in a fresh interpreter.

    python3 tools/job_digests.py --workload wide-det --seed 7 --count 40
    python3 tools/job_digests.py --workload edge [--fresh]

Each job of ``benchmarks/workloads.py`` (loaded by path, read only), or of
the fixed ``edge`` list below, runs through ``rodpade.cli.main`` in this
process, and one line is printed per job: the exit code, sha256 of its
stdout, sha256 of its stderr, and its argv.
A job that raises prints ``raised`` as its exit code and the digest of its
traceback as its stderr.  With ``--fresh`` each job runs as ``python -m
rodpade`` in a new interpreter, with ``PYTHONPATH`` the checkout's ``src``,
so the lines show the process entry's own exit code and bytes.  An argv
token ``<doc>.json`` names ``CONFIG_DOC``, written to a temporary directory
for the run; the printed argv keeps the token.  Running the script in two
checkouts (``--root`` names the checkout whose ``src/`` is run) and diffing
the outputs shows whether a change kept every job's bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import importlib.util
import io
import itertools
import os
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: jobs the benchmark workloads do not reach: other formats, places and
#: subcommands, inputs that exit 1 or 2, and a long decay
EDGE = [
    ("pade", "--m", "1", "--r", "1", "--alphas=-7/3", "--n", "3", "--format", "csv"),
    ("pade", "--appendix-logpow", "--m", "3", "--n", "4"),
    ("det", "--appendix-logpow", "--m", "2", "--n", "6"),
    ("det", "--m", "2", "--r", "1", "--alphas=-2,1/3", "--n", "3", "--format", "csv"),
    ("criterion", "--m", "2", "--r", "1", "--alphas=3/2,-5/3", "--beta", "4000000"),
    ("criterion", "--m", "1", "--r", "2", "--alphas=1/3", "--beta", "1/59049", "--place", "p3",
     "--products"),
    ("audit", "--m", "2", "--r", "1", "--alphas=3/2,-5/3", "--n", "1..4", "--beta", "40",
     "--format", "csv"),
    ("audit", "--lcm", "10000"),
    ("logpow-identities", "--n", "4"),
    ("logpow-identities", "--n", "12"),
    ("logpow-identities", "--n", "0"),
    # the p-adic decay that exits 1 on a valid input
    ("audit", "--m", "2", "--r", "1", "--alphas=4,-3", "--n", "1..6", "--beta", "11/4", "--place", "p2"),
    # its smallest case, exit 1 with every bound row holding: log|R_n|_2 = 0, -log 2, -log 2
    # falls in steps of two weights, so the slope -0.3466 exceeds -log 2 + 0.1; still exit 1
    # with --n 1..6, exit 0 with --n 1..12 (slope -0.6156)
    ("audit", "--m", "1", "--r", "1", "--alphas=-1", "--n", "1..3", "--beta", "1/2", "--place", "p2"),
    # exit 2
    ("audit", "--m", "2", "--r", "1", "--alphas=3/2,-5/3", "--n", "1..8", "--beta", "40", "--place", "p2"),
    # |beta|_v = H_v(alpha) exactly: exit 2 from audit, and 3 from criterion, since the hypothesis is strict
    ("audit", "--m", "1", "--r", "1", "--alphas=5", "--n", "1..3", "--beta", "5"),
    ("audit", "--m", "1", "--r", "1", "--alphas=1/3", "--n", "1..3", "--beta", "1/3", "--place", "p3"),
    ("audit", "--m", "1", "--r", "1", "--alphas=1", "--n", "4", "--beta", "1"),
    ("criterion", "--m", "1", "--r", "1", "--alphas=1/3", "--beta", "1/3", "--place", "p3"),
    ("criterion", "--m", "1", "--alphas", "1", "--beta", "1e4300"),
    ("criterion", "--m", "1", "--alphas", "1", "--beta", "123e4299"),
    ("criterion", "--m", "1", "--alphas", "1,1", "--beta", "3"),
    ("pade", "--m", "1", "--alphas", "1"),
    # decimal literals that parse
    ("criterion", "--m", "1", "--alphas", "1", "--beta", "1e400"),
    ("criterion", "--m", "1", "--alphas", "1", "--beta", "1.5e2"),
    ("criterion", "--m", "1", "--alphas", "1", "--beta", "1e-3"),
    # the (2,2) decay frontier
    ("audit", "--m", "2", "--r", "2", "--alphas=3/2,-5/3", "--n", "1..8", "--beta", "400"),
    # flag forms: a unique prefix, a value after "=" or as the next token, a repeated flag
    ("pade", "--m", "1", "--r", "1", "--alph=1/2", "--n", "2"),
    ("det", "--m", "2", "--alphas=1,-2", "--n", "2"),
    ("det", "--m=2", "--alphas=1,-2", "--n", "2"),
    ("pade", "--m", "1", "--alphas", "1", "--n", "5", "--n", "2"),
    # usage errors (exit 2), help (exit 0), and a value "-1/2" as its own token
    ("pade", "--m", "1", "--n", "1", "--xyz"),
    ("criterion", "--m", "1", "--beta"),
    ("audit", "--lcm", "100", "--format", "xml"),
    ("audit", "--help"),
    ("pade", "--help"),
    ("det", "--help"),
    ("criterion", "--help"),
    ("logpow-identities", "--help"),
    ("--help",),
    ("criterion", "--m", "1", "--alphas", "-1/2", "--beta", "30"),
    # usage errors that name their flag: a place that is not inf or p<prime>, a weight that is no integer
    ("criterion", "--m", "1", "--alphas", "1", "--beta", "30", "--place", "pabc"),
    ("pade", "--m", "1", "--alphas", "1", "--n", "a..b"),
    # a run-config document, the one input read through json
    ("pade", "--config", "<doc>.json"),
    # beta = 0, whose heights are 1: exit 3 from criterion, 2 from audit
    ("criterion", "--m", "1", "--alphas", "1", "--beta", "0"),
    ("audit", "--m", "1", "--alphas", "1", "--n", "1..2", "--beta", "0"),
    # a negative beta, at a prime (exit 3) and at infinity (exit 0)
    ("criterion", "--m", "2", "--r", "1", "--alphas=3/2,-5/3", "--beta=-1/59049", "--place", "p3"),
    ("criterion", "--m", "2", "--r", "1", "--alphas=3/2,-5/3", "--beta=-4000000"),
    # each run's own flag checks, in their order: exit 2, and 1 for --lcm, which ignores --n
    ("criterion", "--alphas", "1", "--beta", "3"),
    ("pade", "--m", "1"),
    ("pade", "--m", "0", "--n", "x"),
    ("audit", "--m", "1"),
    ("audit", "--lcm", "100", "--n", "abc"),
    # non-empty product lists, as JSON and as CSV
    ("criterion", "--m", "1", "--r", "2", "--alphas", "1", "--beta", "1000000000", "--products"),
    ("criterion", "--m", "2", "--r", "1", "--alphas=3/2,-5/3", "--beta", "4000000", "--products",
     "--format", "csv"),
    # V inside the float band: indeterminate, exit 3
    ("criterion", "--m", "1", "--alphas", "1", "--beta", "29556224395723/1000000"),
    # no beta: no decay and a null beta; one weight with a beta: no decay
    ("audit", "--m", "1", "--alphas=-1/2", "--n", "1..3"),
    ("audit", "--m", "2", "--alphas=3/2,-5/3", "--n", "3", "--beta", "40"),
    # a run's missing-flag errors, and usage errors: an unknown subcommand, an ambiguous
    # prefix, an invalid int, a switch given a value; then -h (exit 0); all but -h exit 2
    ("criterion", "--m", "1", "--alphas", "1"),
    ("pade", "--n", "1"),
    ("frobnicate",),
    ("pade", "--a", "1", "--n", "1"),
    ("pade", "--m", "x", "--n", "1"),
    ("criterion", "--m", "1", "--alphas", "1", "--beta", "30", "--products=yes"),
    ("pade", "-h"),
    # a weight range that starts at 0, exit 2
    ("audit", "--m", "1", "--alphas", "1", "--n", "0..2", "--beta", "30"),
    # depth-2 rows with f_0 = 0: empty measured and slack cells in CSV
    ("audit", "--m", "1", "--r", "2", "--alphas", "1", "--n", "1..2", "--beta", "30", "--format", "csv"),
    # lcm(1..0) is refused, exit 2; a place p<n> with n not prime, exit 2; and a prime
    # past trial division, decided by Miller-Rabin, exit 0
    ("audit", "--lcm", "0"),
    ("criterion", "--m", "1", "--alphas", "1", "--beta", "30", "--place", "p4"),
    ("criterion", "--m", "1", "--alphas", "1", "--beta", "1/1000003", "--place", "p1000003"),
    # log-power m = 0, exit 2
    ("pade", "--appendix-logpow", "--m", "0", "--n", "1"),
    ("det", "--appendix-logpow", "--m", "0", "--n", "1"),
    # invalid (m, r, alphas), exit 2: m = 0, r = 0, a wrong count, a zero and a repeated alpha
    *(
        (command, *config, *rest)
        for command, rest in (("pade", ("--n", "1")), ("det", ("--n", "1")), ("audit", ("--n", "1..2")))
        for config in (
            ("--m", "0", "--alphas", "1"),
            ("--m", "1", "--r", "0", "--alphas", "1"),
            ("--m", "2", "--alphas", "1"),
            ("--m", "2", "--alphas=1,0"),
            ("--m", "2", "--alphas=2,4/2"),
        )
    ),
    # an exact value past the int-string limit: Delta prints all its 4721 digits, exit 0
    ("det", "--m", "1", "--r", "2", "--alphas", "12345678901234567890", "--n", "20"),
    # a weight range with no weight, exit 2
    ("pade", "--m", "1", "--alphas", "1", "--n", "3..1"),
    # a place at the Miller-Rabin bound, exit 2
    ("criterion", "--m", "1", "--alphas", "1", "--beta", "30", "--place", "p3317044064679887385961981"),
    # lcm(1..1) = 1, growth ratio 0, exit 1
    ("audit", "--lcm", "1"),
    # a run of digits past the int-string limit, in beta, its exponent and an alpha's denominator, exit 2
    ("criterion", "--m", "1", "--alphas", "1", "--beta", "1" * 4401),
    ("criterion", "--m", "1", "--alphas", "1", "--beta", "1e" + "1" * 4301),
    ("pade", "--m", "1", "--alphas=1/" + "3" * 4401, "--n", "1"),
    # exactly the limit's 4300 digits: beta parses and prints in full, exit 0
    ("criterion", "--m", "1", "--alphas", "1", "--beta", "1" * 4300),
    # a p-adic remainder of exactly 0, R_2(1/4) at p2: the p-adic term cap ends its sum, exit 2
    ("audit", "--m", "1", "--alphas", "1/2", "--n", "1..2", "--beta", "1/4", "--place", "p2"),
    # flag tokens of 4401 digits, shown cut to 64 characters with their length, exit 2
    ("pade", "--m", "1" * 4401, "--alphas", "1", "--n", "1"),
    ("criterion", "--m", "1", "--alphas", "1", "--beta", "30", "--place", "p" + "1" * 4401),
    # long invalid literals in beta and in an alpha: Fraction's refusal, shown cut, exit 2
    ("criterion", "--m", "1", "--alphas", "1", "--beta", "x" * 5000),
    ("criterion", "--m", "1", "--alphas", "1," + "y" * 3000, "--beta", "3"),
]
CONFIG_DOC = '{"m": 2, "r": 1, "alphas": ["3/2", "-5/3"], "n": 2}\n'


def _load_workloads(root: Path):
    path = root / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves annotations through it
    spec.loader.exec_module(module)
    return module


def selected_jobs(parser: argparse.ArgumentParser, args) -> list:
    """The argv of each job that ``args.workload``, ``args.seed`` and ``args.count`` name, on ``args.root``.

    ``edge`` is the first ``--count`` jobs of ``EDGE`` (all without it); a
    benchmark workload needs ``--seed`` and ``--count``.
    """
    if args.workload == "edge":
        return EDGE[: args.count]
    if args.seed is None or args.count is None:
        parser.error("a benchmark workload needs --seed and --count")
    generated = _load_workloads(args.root.resolve()).generate(args.workload, args.seed)
    return [job.argv for job in itertools.islice(generated, args.count)]


def run_job(main, argv) -> tuple[str, bytes, bytes]:
    """(exit, stdout, stderr) of one in-process ``main(argv)``, the streams as UTF-8 bytes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(list(argv)))
        except Exception:  # a traceback is a result to compare, not a reason to stop
            code = "raised"
            err.write(traceback.format_exc())
    return code, out.getvalue().encode(), err.getvalue().encode()


def run_fresh(root: Path, argv) -> tuple[str, bytes, bytes]:
    """(exit, stdout, stderr) of ``python -m rodpade argv`` in a new interpreter on ``root``'s ``src``."""
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-m", "rodpade", *argv], capture_output=True, env=env)
    return str(proc.returncode), proc.stdout, proc.stderr


def run_jobs(run, jobs):
    """(argv, exit, stdout, stderr) of ``run(argv)`` for each job in turn, ``<doc>.json`` naming ``CONFIG_DOC``."""
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "doc.json"
        doc.write_text(CONFIG_DOC, encoding="utf-8")
        for argv in jobs:
            yield argv, *run([str(doc) if a == "<doc>.json" else a for a in argv])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a benchmark workload, or edge")
    parser.add_argument("--seed", type=int, help="workload seed (not for edge)")
    parser.add_argument("--count", type=int, help="jobs to run (default for edge: all)")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to run (default: this one)")
    parser.add_argument("--fresh", action="store_true", help="run each job as python -m rodpade in a new interpreter")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    jobs = selected_jobs(parser, args)
    if args.fresh:
        run = functools.partial(run_fresh, root)
    else:
        sys.path.insert(0, str(root / "src"))
        from rodpade.cli import main as cli_main

        run = functools.partial(run_job, cli_main)
    for argv, code, out, err in run_jobs(run, jobs):
        print(code, hashlib.sha256(out).hexdigest(), hashlib.sha256(err).hexdigest(), " ".join(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
