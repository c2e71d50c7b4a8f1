"""Digests of the first jobs of a benchmark workload, run in process.

    python3 tools/job_digests.py --workload wide-det --seed 7 --count 40
    python3 tools/job_digests.py --workload edge

Each job of ``benchmarks/workloads.py`` (loaded by path, read only), or of
the fixed ``edge`` list below, runs through ``rodpade.cli.main`` in this
process, and one line is printed per job: the exit code, sha256 of its
stdout, sha256 of its stderr, and its argv.
A job that raises prints ``raised`` as its exit code and the digest of its
traceback as its stderr.  An argv token ``<doc>.json`` names ``CONFIG_DOC``,
written to a temporary directory for the run; the printed argv keeps the token.  Running the script in two checkouts (``--root``
names the checkout whose ``src/`` is imported) and diffing the outputs shows
whether a change kept every job's bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import itertools
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
    # the p-adic decay that exits 1 on a valid input
    ("audit", "--m", "2", "--r", "1", "--alphas=4,-3", "--n", "1..6", "--beta", "11/4", "--place", "p2"),
    # exit 2
    ("audit", "--m", "2", "--r", "1", "--alphas=3/2,-5/3", "--n", "1..8", "--beta", "40", "--place", "p2"),
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
]
CONFIG_DOC = '{"m": 2, "r": 1, "alphas": ["3/2", "-5/3"], "n": 2}\n'


def _load_workloads(root: Path):
    path = root / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves annotations through it
    spec.loader.exec_module(module)
    return module


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_job(main, argv) -> tuple[str, str, str]:
    """(exit, stdout, stderr) of one in-process ``main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = str(main(list(argv)))
        except Exception:  # a traceback is a result to compare, not a reason to stop
            code = "raised"
            err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a benchmark workload, or edge")
    parser.add_argument("--seed", type=int, help="workload seed (not for edge)")
    parser.add_argument("--count", type=int, help="jobs to run (default for edge: all)")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to run (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if args.workload == "edge":
        jobs = EDGE[: args.count]
    elif args.seed is None or args.count is None:
        parser.error("a benchmark workload needs --seed and --count")
    else:
        generated = _load_workloads(root).generate(args.workload, args.seed)
        jobs = [job.argv for job in itertools.islice(generated, args.count)]
    sys.path.insert(0, str(root / "src"))
    from rodpade.cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "doc.json"
        doc.write_text(CONFIG_DOC, encoding="utf-8")
        for argv in jobs:
            code, out, err = run_job(cli_main, [str(doc) if a == "<doc>.json" else a for a in argv])
            print(code, _sha(out), _sha(err), " ".join(argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
