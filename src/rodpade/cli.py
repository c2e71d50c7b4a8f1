"""Command-line front end: tables, determinants, criterion, audits.

Output is deterministic for a fixed configuration: fixed key order, fixed row
ordering, rationals as exact strings, floats rounded to 15 significant
digits.  Exit codes: 0 success, 1 verification failure, 2 invalid
configuration, 3 criterion hypotheses not satisfied.

A subcommand loads only the modules it uses: ``criterion``, ``mpl``,
``logpow`` and ``csv`` are imported inside the commands that need them, so
``pade`` on log-power rows never loads ``mpl`` or ``criterion``.  No
subcommand loads ``dataclasses``: the package's values derive from
``exact.Record``.  Nor does one load ``argparse`` (with ``gettext`` and
``locale``): ``read_argv`` reads the flags from one table, ``FLAGS``.
"""

from __future__ import annotations

import io
import json
import sys
from fractions import Fraction
from types import SimpleNamespace

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

    n = 4 if args.n is None else args.n
    ok = weyl.verify_En_identities(n)
    payload = {"command": "logpow-identities", "n_max": n, "ok": ok}
    _emit(payload, args.format, args.out)
    return EXIT_OK if ok else EXIT_VERIFY


#: The flags of each subcommand, in help order: flag -> (kind, help), where kind
#: is int, str, bool (a switch, given without a value) or a tuple of the
#: allowed values, the first of which is the default.
_ROW = {
    "--m": (int, "number of alphas / top log power"),
    "--r": (int, "depth budget"),
    "--alphas": (str, "comma-separated rationals"),
    "--config": (str, "JSON/TOML run-config document"),
}
_N = {"--n": (str, "weight, or range lo..hi where supported")}
_OUTPUT = {
    "--format": (("json", "csv"), "output format (default json)"),
    "--out": (str, "output path (default stdout)"),
}
_BETA = {"--beta": (str, "the rational beta"), "--place": (str, "inf or p<prime>")}
FLAGS = {
    "pade": {
        **_ROW, **_N, **_OUTPUT,
        "--appendix-logpow": (bool, "log-power rows instead"),
        "--depth": (int, "no longer changes output or work"),
    },
    "det": {**_ROW, **_N, **_OUTPUT, "--appendix-logpow": (bool, "log-power rows instead")},
    "criterion": {**_ROW, **_OUTPUT, **_BETA, "--products": (bool, "also list product labels")},
    "audit": {"--lcm": (int, "lcm growth check mode"), **_ROW, **_N, **_OUTPUT, **_BETA},
    "logpow-identities": {"--n": (int, "verify up to this n (default 4)"), **_OUTPUT},
}
#: subcommand -> (handler, one-line summary)
COMMANDS = {
    "pade": (_cmd_pade, "build and verify a weight-n table"),
    "det": (_cmd_det, "determinant constants of a table"),
    "criterion": (_cmd_criterion, "evaluate the independence criterion"),
    "audit": (_cmd_audit, "check the proven norm/decay bounds"),
    "logpow-identities": (_cmd_logpow_identities, "exact operator identities check"),
}
_HELP = {"--help": (bool, "show this help and exit (also -h)")}


def _flag_of(token: str, names) -> tuple[str | None, str | None] | None:
    """None for a token read as a value, else (flag, text after "=" or None).

    A flag may be cut to a prefix that only it starts with (an exact name
    wins; a prefix of several is refused), and ``-h`` is ``--help``.  The
    flag is None for a token that names none.  Besides the tokens that do
    not start with "-", these are values: "-" itself, a token with a digit
    or "." after its "-" (``-1/2``, ``-.5``), and one with a space that
    names no flag.
    """
    if token[:1] != "-" or len(token) == 1 or token[1] in "0123456789.":
        return None
    if token[1] != "-":
        if token.startswith("-h"):
            return "--help", token[2:] or None
        return None if " " in token else (None, None)
    name, eq, text = token.partition("=")
    explicit = text if eq else None
    if name in names:
        return name, explicit
    matches = [flag for flag in names if flag.startswith(name)]
    if len(matches) > 1:
        raise ValueError(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], explicit
    return None if " " in token else (None, None)


def _dest(flag: str) -> str:
    """The attribute a flag sets: ``--appendix-logpow`` sets ``appendix_logpow``."""
    return flag[2:].replace("-", "_")


def _value(flag: str, kind, text: str):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"argument {flag}: invalid int value: {text!r}") from None
    if kind is not str and text not in kind:
        raise ValueError(f"argument {flag}: invalid choice: {text!r} (choose from {', '.join(kind)})")
    return text


def _help(command: str | None) -> str:
    if command is None:
        lines = ["usage: rodpade <subcommand> [flags]", "", "subcommands:"]
        lines += [f"  {name:<20}{summary}" for name, (_, summary) in COMMANDS.items()]
        lines += ["", "'rodpade <subcommand> --help' lists the flags of a subcommand."]
        return "\n".join(lines) + "\n"
    lines = [f"usage: rodpade {command} [flags]", "", COMMANDS[command][1], "", "flags:"]
    for flag, (kind, text) in {**_HELP, **FLAGS[command]}.items():
        if kind is not bool:
            flag += " N" if kind is int else " TEXT" if kind is str else f" {{{','.join(kind)}}}"
        lines.append(f"  {flag:<22}{text}")
    return "\n".join(lines) + "\n"


def read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The subcommand and its flags' values, or None once a help text is printed.

    A flag not given is None, False for a switch, or a choice flag's first
    choice; the last of a repeated flag wins.  A value is the text after
    "=" or the next token, and tokens from "--" on are not flags.  Every
    usage error raises ValueError.  Tokens that name no flag, and stray
    values, are reported after the last token, so ``--help`` anywhere still
    prints the help; any other usage error before ``--help`` comes first.
    """
    if not argv or argv[0] not in FLAGS:
        if argv and argv[0] != "--" and _flag_of(argv[0], _HELP) == ("--help", None):
            sys.stdout.write(_help(None))
            return None
        found = f"unknown subcommand {argv[0]!r}" if argv else "no subcommand"
        raise ValueError(f"{found} (choose from {', '.join(FLAGS)})")
    command, tokens = argv[0], argv[1:]
    flags = {**_HELP, **FLAGS[command]}
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    # an ambiguous prefix is refused wherever it stands, even past --help
    reads = [_flag_of(token, flags) for token in tokens[:cut]]
    values = {
        _dest(flag): False if kind is bool else kind[0] if type(kind) is tuple else None
        for flag, (kind, _) in FLAGS[command].items()
    }
    extras = []
    i = 0
    while i < cut:
        read, i = reads[i], i + 1
        if read is None or read[0] is None:
            extras.append(tokens[i - 1])
            continue
        flag, text = read
        kind = flags[flag][0]
        if kind is bool:
            if text is not None:
                raise ValueError(f"argument {flag}: takes no value, got {text!r}")
            if flag == "--help":
                sys.stdout.write(_help(command))
                return None
            values[_dest(flag)] = True
            continue
        if text is None:
            if i == cut or reads[i] is not None:
                raise ValueError(f"argument {flag}: expected a value")
            text, i = tokens[i], i + 1
        values[_dest(flag)] = _value(flag, kind, text)
    extras += tokens[cut:]
    if extras:
        raise ValueError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(subcommand=command, **values)


def main(argv: list[str] | None = None) -> int:
    try:
        args = read_argv(sys.argv[1:] if argv is None else argv)
        if args is None:
            return EXIT_OK
        _apply_config_file(args)
        if getattr(args, "r", None) is None:
            args.r = 1
        if getattr(args, "alphas", None) is None:
            args.alphas = "1"
        if getattr(args, "place", None) is None:
            args.place = "inf"
        if args.subcommand in ("pade", "det", "criterion") and args.m is None:
            raise ValueError(f"{args.subcommand} needs --m (flag or config document)")
        if args.subcommand in ("pade", "det"):
            ns = _parse_n_range(args.n) if args.n else []
            if len(ns) != 1 or ns[0] < 1:
                raise ValueError("pade/det need a single weight --n >= 1")
            args.n = ns[0]
        if args.subcommand == "audit" and args.lcm is None:
            if args.m is None or args.n is None:
                raise ValueError("audit needs --lcm, or --m/--alphas/--n")
        return COMMANDS[args.subcommand][0](args)
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
