"""Correctness of one job's output, checked after the timed region.

Besides the exit code and the program's own flags, every printed column P
is checked to be orthogonal to every row through an independent moment
oracle (the brute-force multiple sum for polylogarithm rows, the Stirling
closed form for log-power rows), which shares no code with the moment
generators the program times.
"""

from __future__ import annotations

import json
from fractions import Fraction

from rodpade.logpow import logpow_moment_stirling
from rodpade.mpl import MplConfig, index_set, mpl_moment_oracle


def _oracle_rows(payload: dict) -> list[tuple[str, object]]:
    """(label, j -> moment j) per row, in the program's row order."""
    config = payload["config"]
    if payload["kind"] == "logpow":
        return [(f"log^{s}", lambda j, s=s: logpow_moment_stirling(s, j)) for s in range(1, config["m"] + 1)]
    cfg = MplConfig(m=config["m"], r=config["r"], alphas=tuple(Fraction(a) for a in config["alphas"]))
    return [
        (idx.label(cfg), lambda j, idx=idx: mpl_moment_oracle(idx, j, cfg))
        for idx in index_set(cfg.m, cfg.r)
    ]


def _orthogonality_error(payload: dict) -> str | None:
    table = payload["table"]
    n = payload["n"]
    rows = _oracle_rows(payload)
    labels = [row["label"] for row in table["rows"]]
    if labels != [label for label, _ in rows]:
        return "row labels differ from the oracle's index set"
    columns = [[Fraction(c) for c in col] for col in table["P"]]
    if len(columns) != table["M"] + 1:
        return "wrong number of columns"
    for label, moment in rows:
        cache: dict[int, Fraction] = {}
        for ell, p in enumerate(columns):
            if not any(p):
                return f"column {ell} is zero"
            for k in range(n):
                total = Fraction(0)
                for i, c in enumerate(p):
                    if c:
                        j = i + k
                        if j not in cache:
                            cache[j] = moment(j)
                        total += c * cache[j]
                if total:
                    return f"column {ell} is not orthogonal to {label} at t^{k}"
    return None


def max_coeff_bits(payload: dict) -> int:
    """Largest numerator or denominator bit length in the printed P and Q."""
    table = payload.get("table")
    if table is None:
        return 0
    polys = list(table["P"]) + [q for row in table["rows"] for q in row["Q"]]
    best = 0
    for poly in polys:
        for text in poly:
            x = Fraction(text)
            best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


def check(exit_code: int, stdout: bytes, stderr: bytes) -> tuple[str | None, dict | None]:
    """Returns (failure reason or None, parsed payload)."""
    if exit_code != 0:
        return f"exit code {exit_code}", None
    if b"Traceback" in stderr:
        return "traceback on stderr", None
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON", None
    command = payload.get("command")
    if command == "pade":
        if payload.get("ok") is not True:
            return "ok flag not set", payload
        return _orthogonality_error(payload), payload
    if command == "det":
        if payload.get("determinant", {}).get("abs_identity_ok") is not True:
            return "abs_identity_ok not set", payload
        return None, payload
    if command == "audit":
        if payload.get("all_hold") is not True:
            return "all_hold not set", payload
        return None, payload
    if command == "criterion":
        checks = payload.get("hypothesis_checks", {})
        if checks.get("abs_beta_gt_local_height_alpha") is not True or checks.get("V_positive") != "pass":
            return "criterion hypotheses not met", payload
        if not payload.get("conclusion"):
            return "empty conclusion", payload
        return None, payload
    return f"unexpected command {command!r}", payload
