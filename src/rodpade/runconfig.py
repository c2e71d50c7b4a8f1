"""Run-config documents: flag values read from a JSON (or, on 3.11+, TOML) file.

A ``--config`` flag names one; the command line imports this module, and
``json`` or ``tomllib`` with it, only for a job that gives that flag.
"""

from __future__ import annotations

__all__ = ["load_run_config", "apply_run_config"]


def load_run_config(path: str) -> dict:
    """Read {m, r, alphas, n, ...} from a JSON (or, on 3.11+, TOML) document."""
    if path.endswith(".toml"):
        try:
            import tomllib
        except ImportError as exc:  # Python 3.10
            raise ValueError("TOML configs need Python 3.11+; use JSON") from exc
        with open(path, "rb") as fh:
            return tomllib.load(fh)
    import json

    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def apply_run_config(args) -> None:
    """Values of the ``args.config`` document fill in any argument not given on the command line."""
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
