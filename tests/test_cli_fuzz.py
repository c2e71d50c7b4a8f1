"""The command line on generated argument vectors: an exit code, never a traceback.

Every subcommand is run with small sizes (m <= 3, r <= 2, (m+1)^r <= 9,
weights <= 2), so that one run stays well under a second.  Each argument
vector breaks up to two of its fields with a value a user can mistype: m or
r zero; zero, repeated, infinite or non-numeric alphas; a negative, empty,
reversed or garbage weight; a non-prime or unparsable place; a zero, infinite
or non-numeric beta.  The unbroken runs reach the tables, determinants and
audits.
"""

from __future__ import annotations

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rodpade.cli import EXIT_CONFIG, EXIT_CRITERION, EXIT_OK, EXIT_VERIFY, main  # noqa: E402

COMMANDS = ["pade", "det", "criterion", "audit", "logpow-identities"]
DISTINCT_ALPHAS = ["3/2", "-3", "2"]
VALID = {
    "size": [(m, r) for m in range(1, 4) for r in range(1, 3) if (m + 1) ** r <= 9],
    "n": ["1", "2", "1..2"],
    "place": ["inf", "p2", "p3"],
    "beta": [None, "40", "1/8", "1/27"],
}
MALFORMED = {
    "size": [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (3, 0)],
    "alphas": ["0", "1,1", "1/0", "nan", "x", "", "3/2,0,-3", "2,-3,2"],
    "n": ["0", "-1", "2..1", "0..1", "", "x", "1.5"],
    "place": ["p4", "p1", "p-3", "q", ""],
    "beta": ["0", "1/0", "nan", "-7/3"],
}


@st.composite
def argvs(draw) -> list[str]:
    broken = draw(st.sets(st.sampled_from(sorted(MALFORMED)), max_size=2))

    def pick(field):
        return draw(st.sampled_from((MALFORMED if field in broken else VALID)[field]))

    command = draw(st.sampled_from(COMMANDS))
    if command == "logpow-identities":
        return [command, f"--n={pick('n')}"]
    m, r = pick("size")
    alphas = pick("alphas") if "alphas" in broken else ",".join(DISTINCT_ALPHAS[:m])
    argv = [command, f"--m={m}", f"--r={r}", f"--alphas={alphas}"]
    if command != "criterion":
        argv.append(f"--n={pick('n')}")
    if command in ("pade", "det") and draw(st.booleans()):
        argv.append("--appendix-logpow")
    if command in ("criterion", "audit"):
        argv.append(f"--place={pick('place')}")
        beta = pick("beta")
        if beta is not None:
            argv.append(f"--beta={beta}")
    return argv


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(argvs())
def test_generated_argv_ends_in_a_documented_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (EXIT_OK, EXIT_VERIFY, EXIT_CONFIG, EXIT_CRITERION), argv
