"""Command-line front end: tables, determinants, criterion, audits.

Output is deterministic for a fixed configuration: fixed key order, fixed row
ordering, rationals as exact strings, floats rounded to 15 significant
digits.  Exit codes: 0 success, 1 verification failure, 2 invalid
configuration, 3 criterion hypotheses not satisfied.

A subcommand loads only the modules it uses: ``criterion``, ``mpl``,
``logpow`` and ``csv`` are imported inside the commands that need them, so
``pade`` on log-power rows never loads ``mpl`` or ``criterion``.  No
subcommand loads ``dataclasses``: the package's values derive from
``exact.Record``.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from fractions import Fraction

from .exact import format_rational, parse_rational
from .transform import (
    DegreeLemmaError,
    ZeroDeterminantError,
    table_determinants,
    verify_pade,
)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_CRITERION = 3


def _parse_alphas(text: str) -> tuple[Fraction, ...]:
    return tuple(parse_rational(part) for part in text.split(",") if part.strip())


def load_run_config(path: str) -> dict:
    """Read {m, r, alphas, n, ...} from a JSON (or, on 3.11+, TOML) document."""
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError as exc:  # Python 3.10
            raise ValueError("TOML configs need Python 3.11+; use JSON") from exc
        with open(path, "rb") as fh:
            return tomllib.load(fh)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _apply_config_file(args) -> None:
    """Config-document values fill in any argument not given on the command line."""
    if getattr(args, "config", None) is None:
        return
    doc = load_run_config(args.config)
    # `type(...) is int` also turns away booleans: `"m": true` is no m = 1
    if not isinstance(doc, dict) or any(type(doc.get(k, 0)) is not int for k in ("m", "r")):
        raise ValueError(f"config document {args.config} must be a table with integer m and r")
    for key in ("m", "r", "beta", "place", "n"):
        if key in doc and getattr(args, key, None) is None:
            setattr(args, key, str(doc[key]) if key in ("n", "beta", "place") else doc[key])
    if "alphas" in doc and getattr(args, "alphas", None) is None:
        alphas = doc["alphas"]
        args.alphas = ",".join(str(a) for a in alphas) if isinstance(alphas, list) else str(alphas)


def _parse_n_range(text: str) -> list[int]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError("empty range")
        return list(range(lo, hi + 1))
    return [int(text)]


def _emit(payload: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        _payload_to_csv(writer, payload)
        text = buf.getvalue()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _payload_to_csv(writer, payload: dict, prefix: str = "") -> None:
    """Flatten nested dicts/lists into key,value rows; exact strings stay exact."""
    for key, value in payload.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            _payload_to_csv(writer, value, prefix=f"{path}.")
        elif isinstance(value, list):
            if value and all(isinstance(v, (str, int, float, bool)) for v in value):
                writer.writerow([path] + [str(v) for v in value])
            else:
                for i, v in enumerate(value):
                    if isinstance(v, dict):
                        _payload_to_csv(writer, v, prefix=f"{path}[{i}].")
                    elif isinstance(v, list) and all(
                        isinstance(x, (str, int, float, bool)) for x in v
                    ):
                        writer.writerow([f"{path}[{i}]"] + [str(x) for x in v])
                    else:
                        writer.writerow([f"{path}[{i}]", str(v)])
        else:
            writer.writerow([path, "" if value is None else str(value)])


def _build_table(args):
    """Returns (kind, config, table).

    The table carries its rows, each with its integer moment window, and,
    per cell, the run phi_j(t^k P_l), k <= n, over the window's scale; the
    verification and determinant blocks read both.
    Only the module of the chosen row family is imported.
    """
    if args.appendix_logpow:
        from . import logpow as logpow_mod

        config = logpow_mod.LogPowConfig(m=args.m, n=args.n)
        return "logpow", config, logpow_mod.logpow_table(config)
    from . import mpl as mpl_mod

    config = mpl_mod.MplConfig(m=args.m, r=args.r, alphas=_parse_alphas(args.alphas))
    return "mpl", config, mpl_mod.pade_table(config, args.n)


def _verification_block(table) -> dict:
    """Checks of every cell; the kernel route and remainder starts read ``cell.heads``."""
    n = table.n  # column l has degree M n + l; M is m for log-power rows
    orth = all(verify_pade(cell, table.seqs, table.M * n + cell.ell) for cell in table.cells)
    degrees = all(cell.degree == table.M * n + cell.ell for cell in table.cells)
    starts = []
    starts_ok = True
    for label in table.row_labels:
        row = []
        for cell in table.cells:
            # the tail of P_l f_j - Q starts at z^-(k+1) for its first nonzero phi_j(t^k P_l)
            first = next((k for k, v in enumerate(cell.heads[label][0][:n]) if v), n)
            row.append(first + 1)
            starts_ok = starts_ok and first == n
        starts.append({"label": label, "starts": row})
    return {
        "orthogonality_ok": orth,
        "degrees_ok": degrees,
        "remainder_starts_ok": starts_ok,
        "remainder_starts": starts,
    }


def _determinant_block(table) -> dict:
    delta, theta = table_determinants(table)
    nums, den = table.cells[-1].column
    lc = Fraction(nums[-1], den)
    ok = abs(delta) == abs(lc * theta)
    return {
        "delta": format_rational(delta),
        "theta": format_rational(theta),
        "lc_last_column": format_rational(lc),
        "abs_identity_ok": ok,
        "sign": 1 if lc * theta == delta else -1,
    }


def _cmd_pade(args) -> int:
    kind, config, table = _build_table(args)
    verification = _verification_block(table)
    try:
        determinant = _determinant_block(table)
    except (DegreeLemmaError, ZeroDeterminantError) as exc:
        _emit({"command": "pade", "error": str(exc)}, args.format, args.out)
        return EXIT_VERIFY
    payload = {
        "command": "pade",
        "kind": kind,
        "config": config.to_json(),
        "n": args.n,
        "table": table.to_json(),
        "verification": verification,
        "determinant": determinant,
    }
    ok = (
        verification["orthogonality_ok"]
        and verification["degrees_ok"]
        and verification["remainder_starts_ok"]
        and determinant["abs_identity_ok"]
    )
    payload["ok"] = ok
    _emit(payload, args.format, args.out)
    return EXIT_OK if ok else EXIT_VERIFY


def _cmd_det(args) -> int:
    kind, config, table = _build_table(args)
    try:
        determinant = _determinant_block(table)
    except (DegreeLemmaError, ZeroDeterminantError) as exc:
        _emit({"command": "det", "error": str(exc)}, args.format, args.out)
        return EXIT_VERIFY
    payload = {
        "command": "det",
        "kind": kind,
        "config": config.to_json(),
        "n": args.n,
        "determinant": determinant,
    }
    _emit(payload, args.format, args.out)
    return EXIT_OK if determinant["abs_identity_ok"] else EXIT_VERIFY


def _cmd_criterion(args) -> int:
    from . import criterion as crit

    if args.beta is None:
        raise ValueError("criterion needs --beta (flag or config document)")
    place = crit.Place.parse(args.place)
    report = crit.evaluate_criterion(
        _parse_alphas(args.alphas),
        parse_rational(args.beta),
        args.m,
        args.r,
        place,
        include_products=args.products,
    )
    payload = {"command": "criterion", **report.to_json()}
    _emit(payload, args.format, args.out)
    return EXIT_OK if report.passed else EXIT_CRITERION


def _cmd_audit(args) -> int:
    from . import criterion as crit
    from . import mpl as mpl_mod

    if args.lcm is not None:
        n = args.lcm
        ratio = crit.log_lcm_upto(n) / n
        ok = 0.95 <= ratio <= 1.05
        payload = {
            "command": "audit",
            "lcm_n": n,
            "growth_ratio": crit._round15(ratio),
            "window": [0.95, 1.05],
            "ok": ok,
        }
        _emit(payload, args.format, args.out)
        return EXIT_OK if ok else EXIT_VERIFY

    config = mpl_mod.MplConfig(m=args.m, r=args.r, alphas=_parse_alphas(args.alphas))
    place = crit.Place.parse(args.place)
    beta = parse_rational(args.beta) if args.beta is not None else None
    if beta is not None and crit.abs_v(beta, place) <= crit.H_v_vec(config.alphas, place):
        raise crit.BadBetaError("|beta|_v must exceed the local height of the alphas")
    ns = _parse_n_range(args.n)
    tables = mpl_mod.pade_tables(config, ns)
    reports = [crit.bounds_audit(config, tables[n], place, beta=beta) for n in ns]
    decay = None
    if beta is not None and len(ns) >= 2:
        decay = crit.remainder_decay(config, beta, place, tables)
    all_hold = all(rep.all_hold for rep in reports) and (decay is None or decay.ok)
    payload = {
        "command": "audit",
        "config": config.to_json(),
        "place": str(place),
        "beta": format_rational(beta) if beta is not None else None,
        "reports": [rep.to_json() for rep in reports],
        "decay": decay.to_json() if decay is not None else None,
        "all_hold": all_hold,
    }
    _emit(payload, args.format, args.out)
    return EXIT_OK if all_hold else EXIT_VERIFY


def _cmd_logpow_identities(args) -> int:
    from . import weyl

    ok = weyl.verify_En_identities(args.n)
    payload = {"command": "logpow-identities", "n_max": args.n, "ok": ok}
    _emit(payload, args.format, args.out)
    return EXIT_OK if ok else EXIT_VERIFY


def _add_common(parser, *, alphas=True, n=True):
    parser.add_argument("--m", type=int, default=None, help="number of alphas / top log power")
    if alphas:
        parser.add_argument("--r", type=int, default=None, help="depth budget")
        parser.add_argument("--alphas", type=str, default=None, help="comma-separated rationals")
    if n:
        parser.add_argument("--n", type=str, default=None, help="weight, or range lo..hi where supported")
    parser.add_argument("--config", type=str, default=None, help="JSON/TOML run-config document")
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--out", type=str, default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rodpade",
        description="Exact Pade-type tables for multiple polylogarithms and log powers, "
        "with height-based independence checks.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_pade = sub.add_parser("pade", help="build and verify a weight-n table")
    _add_common(p_pade)
    p_pade.add_argument("--appendix-logpow", action="store_true", help="log-power rows instead")
    p_pade.add_argument("--depth", type=int, help="no longer changes output or work")
    p_pade.set_defaults(func=_cmd_pade)

    p_det = sub.add_parser("det", help="determinant constants of a table")
    _add_common(p_det)
    p_det.add_argument("--appendix-logpow", action="store_true")
    p_det.set_defaults(func=_cmd_det)

    p_crit = sub.add_parser("criterion", help="evaluate the independence criterion")
    _add_common(p_crit, n=False)
    p_crit.add_argument("--beta", type=str, default=None)
    p_crit.add_argument("--place", type=str, default=None, help="inf or p<prime>")
    p_crit.add_argument("--products", action="store_true", help="also list product labels")
    p_crit.set_defaults(func=_cmd_criterion)

    p_audit = sub.add_parser("audit", help="check the proven norm/decay bounds")
    p_audit.add_argument("--lcm", type=int, default=None, help="lcm growth check mode")
    _add_common(p_audit)
    p_audit.add_argument("--beta", type=str, default=None)
    p_audit.add_argument("--place", type=str, default=None, help="inf or p<prime>")
    p_audit.set_defaults(func=_cmd_audit)

    p_ids = sub.add_parser("logpow-identities", help="exact operator identities check")
    p_ids.add_argument("--n", type=int, default=4, help="verify up to this n")
    p_ids.add_argument("--format", choices=("json", "csv"), default="json")
    p_ids.add_argument("--out", type=str, default=None)
    p_ids.set_defaults(func=_cmd_logpow_identities)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config_file(args)
        if getattr(args, "r", None) is None:
            args.r = 1
        if getattr(args, "alphas", None) is None:
            args.alphas = "1"
        if getattr(args, "place", None) is None:
            args.place = "inf"
        if args.subcommand in ("pade", "det", "criterion") and args.m is None:
            parser.error(f"{args.subcommand} needs --m (flag or config document)")
        if args.subcommand in ("pade", "det"):
            ns = _parse_n_range(args.n) if args.n else []
            if len(ns) != 1 or ns[0] < 1:
                parser.error("pade/det need a single weight --n >= 1")
            args.n = ns[0]
        if args.subcommand == "audit" and args.lcm is None:
            if args.m is None or args.n is None:
                parser.error("audit needs --lcm, or --m/--alphas/--n")
        return args.func(args)
    except SystemExit as exc:  # argparse reports usage errors by exiting
        return int(exc.code or 0)
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:  # a size taken from the input exceeds a machine index
        print(f"error: input too large: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:  # e.g. the sieve of `audit --lcm` for a huge bound
        print("error: input too large", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
