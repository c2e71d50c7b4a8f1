"""Functions of ``src/rodpade`` that a pytest run never calls.

    python3 tools/uncalled.py [--root CHECKOUT] [PYTEST_ARG ...]

Runs pytest in this process (by default on the checkout's ``tests/``, or
on the given pytest arguments) with a profile hook on every thread
(``sys.setprofile`` and ``threading.setprofile``) that records each code
object entered, then prints one line per function, method or nested
function defined in ``src/rodpade/*.py`` whose code never ran:
``file:line name (lines)``, with ``name`` the qualified name and ``lines``
the length of the definition.  Code run in a subprocess (the command-line
tests that start ``python -m rodpade``) is not seen.  ``--root`` names the
checkout whose ``src/`` is imported and whose tests run (default: this
one).  Standard library only, apart from the pytest it runs; the exit code
is pytest's.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from pathlib import Path

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
    parser.add_argument("--root", type=Path, default=ROOT, help="checkout to run (default: this one)")
    args, pytest_args = parser.parse_known_args(argv)
    root = args.root.resolve()
    package = root / "src" / "rodpade"
    src = str(root / "src")
    sys.path.insert(0, src)
    # the command-line tests start interpreters of their own: they import the same sources
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    import pytest

    entered = set()

    def hook(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        code = pytest.main(pytest_args or ["-q", "-p", "no:cacheprovider", str(root / "tests")])
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    ran = {(c.co_filename, c.co_firstlineno) for c in entered}
    for (path, first), (name, lines) in defined_functions(package).items():
        if (path, first) not in ran:
            print(f"{Path(path).relative_to(root)}:{first} {name} ({lines})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
