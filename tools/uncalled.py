"""Functions of ``src/rodpade`` that no edge job, or no job of a benchmark workload, enters.

    python3 tools/uncalled.py [--root CHECKOUT]
    python3 tools/uncalled.py --workload deep-tail --seed 7 --count 40

Runs every ``EDGE`` job of ``tools/job_digests.py``, or the first ``--count``
jobs of a benchmark workload at ``--seed`` (the jobs ``job_digests.py``
runs for the same options), through ``rodpade.cli.main`` in this process,
under a profile hook (``sys.setprofile``) that records each code object
entered, then prints one line per function, method or nested function
defined in ``src/rodpade/*.py`` whose code never ran: ``file:line name
(lines)``, with ``name`` the qualified name and ``lines`` the length of the
definition.  The edge jobs reach every function that the first 40 jobs of
each benchmark workload reach, so a function listed for them is one that
no subcommand runs.  For a workload, the functions listed from the modules
its jobs load (README, Layout) are the ones they compile but never run.
``--root`` names the checkout whose ``src/`` is imported (default: this
one).  Standard library only; the exit code is 1 when a job raised, else 0.
"""

from __future__ import annotations

import argparse
import ast
import functools
import sys
from pathlib import Path

import job_digests

ROOT = Path(__file__).resolve().parent.parent


def defined_functions(package: Path) -> dict[tuple[str, int], tuple[str, int]]:
    """{(file, first line of its code object): (qualified name, lines)} of every def in ``package``.

    A decorated function's code starts at its first decorator.
    """
    found = {}

    def walk(node, path: str, prefix: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                    found[path, first] = name, child.end_lineno - first + 1
                walk(child, path, name + ".")
            else:
                walk(child, path, prefix)

    for path in sorted(package.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), str(path.resolve()), "")
    return found


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="edge", help="a benchmark workload, or edge (default)")
    parser.add_argument("--seed", type=int, help="workload seed (not for edge)")
    parser.add_argument("--count", type=int, help="jobs to run (default for edge: all)")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to run (default: this one)")
    args = parser.parse_args(argv)
    jobs = job_digests.selected_jobs(parser, args)
    root = args.root.resolve()
    package = root / "src" / "rodpade"
    sys.path.insert(0, str(root / "src"))
    from rodpade.cli import main as cli_main

    entered = set()

    def hook(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    run = functools.partial(job_digests.run_job, cli_main)
    sys.setprofile(hook)
    try:
        codes = [code for _, code, _, _ in job_digests.run_jobs(run, jobs)]
    finally:
        sys.setprofile(None)
    ran = {(c.co_filename, c.co_firstlineno) for c in entered}
    for (path, first), (name, lines) in defined_functions(package).items():
        if (path, first) not in ran:
            print(f"{Path(path).relative_to(root)}:{first} {name} ({lines})")
    return int("raised" in codes)


if __name__ == "__main__":
    sys.exit(main())
