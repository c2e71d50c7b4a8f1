"""Start-up cost of each subcommand: the rodpade source it compiles, and the import time.

    python3 tools/import_cost.py [--runs 15] [--root CHECKOUT]

For ``import rodpade.cli`` and for one fixed argv per subcommand, runs
``--runs`` fresh interpreters with ``-X importtime`` and
``PYTHONDONTWRITEBYTECODE=1``, taking the jobs in turn in every round, and
prints per job each rodpade module it loads with the module's source lines
and its median import self time (compiling and executing the module body,
without the modules it imports), then a table of each job's totals: source
lines and the median over runs of the summed self times.  ``--root`` names
the checkout whose ``src/`` is imported (default: this one), so two
checkouts can be compared.  ``rodpade.__main__``, which ``-m`` runs without
an import statement, is not reported.  A checkout with compiled files under
``src/rodpade/__pycache__`` is refused: the figures are for compiling from
source.  Standard library only.
"""

from __future__ import annotations

import argparse
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ALPHAS = "--alphas=3/2,-5/3"
#: job -> interpreter arguments
JOBS = {
    "import rodpade.cli": ["-c", "import rodpade.cli"],
    "pade": ["-m", "rodpade", "pade", "--m", "2", "--r", "1", ALPHAS, "--n", "2"],
    "det": ["-m", "rodpade", "det", "--m", "2", "--r", "1", ALPHAS, "--n", "2"],
    "criterion": ["-m", "rodpade", "criterion", "--m", "2", "--r", "1", ALPHAS, "--beta", "4000000"],
    "audit": ["-m", "rodpade", "audit", "--m", "2", "--r", "1", ALPHAS, "--n", "1..4", "--beta", "40"],
    "audit --lcm": ["-m", "rodpade", "audit", "--lcm", "10000"],
    "logpow-identities": ["-m", "rodpade", "logpow-identities", "--n", "2"],
}
_LINE = re.compile(r"import time:\s+(\d+) \|\s+\d+ \|\s*(rodpade(?:\.\w+)?)\s*$")


def self_times(root: Path, args: list[str]) -> dict[str, int]:
    """{module: import self time in us} of one fresh interpreter running ``args``."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args], env=env, capture_output=True, text=True
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return {m[2]: int(m[1]) for m in map(_LINE.match, proc.stderr.splitlines()) if m}


def source_lines(root: Path, module: str) -> int:
    """Lines of the module's source file: a package's ``__init__.py``."""
    path = root / "src" / Path(*module.split("."))
    path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
    return len(path.read_text(encoding="utf-8").splitlines())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=15, help="fresh interpreters per job (default 15)")
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to measure (default: this one)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    cache = root / "src" / "rodpade" / "__pycache__"
    if any(cache.glob("*.pyc")):
        raise SystemExit(f"error: {cache} holds compiled files; remove it to measure compiling from source")
    runs: dict[str, list[dict[str, int]]] = {job: [] for job in JOBS}
    for _ in range(args.runs):
        for job, job_args in JOBS.items():
            runs[job].append(self_times(root, job_args))
    totals = []
    for job, samples in runs.items():
        modules = sorted(set().union(*samples))
        lines = {module: source_lines(root, module) for module in modules}
        print(f"{job}: python {' '.join(JOBS[job])}")
        for module in modules:
            median = statistics.median(s.get(module, 0) for s in samples) / 1000
            print(f"  {module:<22}{lines[module]:>6} lines {median:>8.2f} ms")
        total_ms = statistics.median(sum(s.values()) for s in samples) / 1000
        totals.append((job, len(modules), sum(lines.values()), total_ms))
    print(f"\ntotals, median of {args.runs} runs")
    print(f"  {'job':<20}{'modules':>8}{'lines':>8}{'self ms':>10}")
    for job, count, lines, total_ms in totals:
        print(f"  {job:<20}{count:>8}{lines:>8}{total_ms:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
