"""Command-line front end: the flag table, argv reading, dispatch and the JSON/CSV writers.

Output is deterministic for a fixed configuration: fixed key order, fixed row
ordering, rationals as exact strings, floats rounded to 15 significant
digits.  Exit codes: 0 success, 1 verification failure, 2 invalid
configuration, 3 criterion hypotheses not satisfied.

The work of each subcommand lives in the module it drives, as
``run(args) -> (payload, ok)`` (``COMMANDS``): ``pade`` and ``det`` in
``determinant``, ``criterion`` in ``criterion``, ``audit`` in ``audit`` and
``logpow-identities`` in ``logpow``.  Each ``run`` checks its own flags, and
``main`` alone turns ``ok`` into an exit code; no module but ``__main__``
imports this one.  ``main`` imports the subcommand's module when it runs,
so a job compiles only the modules its work uses: ``criterion`` loads no
table, audit or determinant code, ``audit`` no verdict or determinant, and
``pade`` and ``det`` no heights, verdict or audit.  Importing this module
loads no other rodpade module.

Nor does a job load what it does not ask for: ``runconfig`` (with ``json``)
reads a ``--config`` document, ``csv`` writes ``--format csv``, and
``_json_text`` writes the JSON payload.  No subcommand loads
``dataclasses``: the package's values derive from ``exact.Record``.  Nor
does one load ``argparse`` (with ``gettext`` and ``locale``): ``read_argv``
reads the flags from one table, ``FLAGS``.
"""

from __future__ import annotations

import io
import sys
from types import SimpleNamespace

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_CRITERION = 3


def _json_text(value, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2)``, written without loading ``json`` for what a payload holds.

    Importing ``json`` takes about 2.5 ms, and with ``indent`` it encodes in
    pure Python: 2.4 ms against 1.8 ms here for a 58 KB audit payload
    (CPython 3.11).  ``pad`` is a newline and the indent of the value's own
    line.  Written here: None, bools, ints, finite floats, printable ASCII
    strings with no quote or backslash, and lists, tuples and str-keyed dicts
    of these (another key raises TypeError).  ``json.dumps`` writes any other
    value, such as a string to escape or NaN, and raises TypeError for a type
    it cannot write.
    """
    if isinstance(value, str) and (
        value.isascii() and value.isprintable() and '"' not in value and "\\" not in value
    ):
        return f'"{value}"'
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float) and value - value == 0.0:  # finite
        return float.__repr__(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in value]) + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, v in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(_json_text(key) + ": " + _json_text(v, inner))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    import json

    return json.dumps(value, indent=2)  # a scalar: its text has no newline to pad


def _emit(payload: dict, fmt: str, out_path: str | None) -> None:
    if fmt == "json":
        text = _json_text(payload) + "\n"
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
#: subcommand -> (the module whose ``run(args)`` does its work, one-line summary)
COMMANDS = {
    "pade": ("determinant", "build and verify a weight-n table"),
    "det": ("determinant", "determinant constants of a table"),
    "criterion": ("criterion", "evaluate the independence criterion"),
    "audit": ("audit", "check the proven norm/decay bounds"),
    "logpow-identities": ("logpow", "exact operator identities check"),
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
        raise ValueError(f"ambiguous option: {_shown(token)} could match {', '.join(matches)}")
    if matches:
        return matches[0], explicit
    return None if " " in token else (None, None)


def _dest(flag: str) -> str:
    """The attribute a flag sets: ``--appendix-logpow`` sets ``appendix_logpow``."""
    return flag[2:].replace("-", "_")


def _shown(token: str) -> str:
    from .exact import shown  # only a usage error that quotes a token loads exact
    return shown(token)


def _value(flag: str, kind, text: str):
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"argument {flag}: invalid int value: {_shown(text)!r}") from None
    if kind is not str and text not in kind:
        raise ValueError(f"argument {flag}: invalid choice: {_shown(text)!r} (choose from {', '.join(kind)})")
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
        found = f"unknown subcommand {_shown(argv[0])!r}" if argv else "no subcommand"
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
                raise ValueError(f"argument {flag}: takes no value, got {_shown(text)!r}")
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
        raise ValueError(f"unrecognized arguments: {' '.join(map(_shown, extras))}")
    return SimpleNamespace(subcommand=command, **values)


def handler(command: str):
    """``run(args) -> (payload, ok)`` of the subcommand, from its module, imported here.

    ``__import__`` is the import statement's own machinery, so ``-X
    importtime`` reports the module; ``importlib.import_module`` bypasses it.
    """
    return __import__(f"{__package__}.{COMMANDS[command][0]}", fromlist=("run",)).run


def main(argv: list[str] | None = None) -> int:
    try:
        args = read_argv(sys.argv[1:] if argv is None else argv)
        if args is None:
            return EXIT_OK
        if getattr(args, "config", None) is not None:
            from .runconfig import apply_run_config

            apply_run_config(args)
        if getattr(args, "r", None) is None:
            args.r = 1
        if getattr(args, "alphas", None) is None:
            args.alphas = "1"
        if getattr(args, "place", None) is None:
            args.place = "inf"
        payload, ok = handler(args.subcommand)(args)
        _emit(payload, args.format, args.out)
        if ok:
            return EXIT_OK
        return EXIT_CRITERION if args.subcommand == "criterion" else EXIT_VERIFY
    except (ValueError, OSError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OverflowError as exc:  # a size taken from the input exceeds a machine index
        print(f"error: input too large: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:  # e.g. the sieve of `audit --lcm` for a huge bound
        print("error: input too large", file=sys.stderr)
        return EXIT_CONFIG
