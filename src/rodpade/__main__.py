"""The process entry: ``python -m rodpade`` and the installed ``rodpade`` script run ``run``."""

import gc
import sys

from .cli import main


def run() -> int:
    """``main()`` on ``sys.argv``, then the garbage collector frozen for the interpreter's exit.

    In-process callers use ``cli.main(argv)``, which never freezes.
    """
    code = main()
    # the exit's full collections would only walk objects that the process's end frees anyway
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
