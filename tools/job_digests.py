"""Digests of the first jobs of a benchmark workload, run in process.

    python3 tools/job_digests.py --workload wide-det --seed 7 --count 40

Each job of ``benchmarks/workloads.py`` (loaded by path, read only) runs
through ``rodpade.cli.main`` in this process, and one line is printed per
job: the exit code, sha256 of its stdout, sha256 of its stderr, and its argv.
A job that raises prints ``raised`` as its exit code and the digest of its
traceback as its stderr.  Running the script in two checkouts (``--root``
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
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to run (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    workloads = _load_workloads(root)
    sys.path.insert(0, str(root / "src"))
    from rodpade.cli import main as cli_main

    for job in itertools.islice(workloads.generate(args.workload, args.seed), args.count):
        code, out, err = run_job(cli_main, job.argv)
        print(code, _sha(out), _sha(err), " ".join(job.argv), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
