"""Command-line surface: exit codes, output shapes, determinism."""

from __future__ import annotations

import ast
import atexit
import contextlib
import gc
import hashlib
import io
import json
import re
import runpy
import shutil
import subprocess
import sys
import time
import warnings
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from rodpade import cli, determinant
from rodpade import logpow as logpow_mod
from rodpade import mpl as mpl_mod
from rodpade import transform
from rodpade.cli import main

CLI = [sys.executable, "-m", "rodpade"]


def run_cli(*args):
    return subprocess.run(CLI + list(args), capture_output=True, text=False)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_pade_legendre_summary(capsys):
    code, data = run_json(capsys, ["pade", "--m", "1", "--r", "1", "--alphas", "1", "--n", "1"])
    assert code == 0
    assert data["ok"] is True
    assert data["table"]["P"][0] == ["1", "-2"]
    assert data["determinant"]["delta"] == "1/2"
    assert data["verification"]["orthogonality_ok"] is True


def test_pade_rejects_weight_zero(capsys):
    code = main(["pade", "--m", "1", "--r", "1", "--alphas", "1", "--n", "0"])
    assert code == 2


def test_pade_weight_zero_exits_2():
    proc = run_cli("pade", "--m", "1", "--r", "1", "--alphas", "1", "--n", "0")
    assert proc.returncode == 2


def test_pade_appendix_logpow(capsys):
    code, data = run_json(capsys, ["pade", "--appendix-logpow", "--m", "2", "--n", "1"])
    assert code == 0
    assert data["kind"] == "logpow"
    assert data["determinant"]["delta"] == "-1/6"
    assert [row["label"] for row in data["table"]["rows"]] == ["log^1", "log^2"]


def test_det_subcommand(capsys):
    code, data = run_json(capsys, ["det", "--m", "1", "--r", "1", "--alphas", "1", "--n", "2"])
    assert code == 0
    assert data["determinant"]["delta"] == "1/3"
    assert data["determinant"]["abs_identity_ok"] is True


def test_criterion_exit_codes(capsys):
    code, data = run_json(
        capsys, ["criterion", "--m", "1", "--r", "1", "--alphas", "1", "--beta", "30", "--place", "inf"]
    )
    assert code == 0
    assert data["conclusion"] == ["Li_1(1/30)"]
    code, data = run_json(
        capsys, ["criterion", "--m", "1", "--r", "1", "--alphas", "1", "--beta", "29", "--place", "inf"]
    )
    assert code == 3
    assert data["conclusion"] == []


def test_criterion_validation_exit(capsys):
    code = main(["criterion", "--m", "2", "--r", "1", "--alphas", "1,1", "--beta", "30"])
    assert code == 2


def test_audit_lcm(capsys):
    code, data = run_json(capsys, ["audit", "--lcm", "10000"])
    assert code == 0
    assert data["ok"] is True
    assert 0.9 < data["growth_ratio"] < 1.1


def test_audit_bounds_range(capsys):
    code, data = run_json(
        capsys,
        ["audit", "--m", "1", "--r", "1", "--alphas", "1", "--n", "1..3", "--place", "inf"],
    )
    assert code == 0
    assert data["all_hold"] is True
    assert len(data["reports"]) == 3
    assert data["decay"] is None


def test_audit_with_decay(capsys):
    code, data = run_json(
        capsys,
        [
            "audit", "--m", "1", "--r", "1", "--alphas", "1",
            "--n", "2..5", "--place", "inf", "--beta", "30",
        ],
    )
    assert code == 0
    assert data["decay"]["ok"] is True


def test_audit_bad_beta_exits_2(capsys):
    code = main(
        ["audit", "--m", "1", "--r", "1", "--alphas", "1", "--beta", "1", "--place", "inf", "--n", "1"]
    )
    assert code == 2


def test_logpow_identities(capsys):
    code, data = run_json(capsys, ["logpow-identities", "--n", "3"])
    assert code == 0
    assert data["ok"] is True


def test_csv_format_runs(capsys):
    code = main(["det", "--m", "1", "--r", "1", "--alphas", "1", "--n", "1", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert "determinant.delta,1/2" in out


def test_csv_table_rows(capsys):
    code = main(["pade", "--m", "1", "--r", "1", "--alphas", "1", "--n", "1", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert "table.P[0],1,-2" in out
    assert "table.rows[0].label,Li_1(1/z)" in out


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(
        ["criterion", "--m", "1", "--r", "1", "--alphas", "1", "--beta", "30", "--out", str(path)]
    )
    assert code == 0
    assert json.loads(path.read_text())["conclusion"] == ["Li_1(1/30)"]


_CONFIG_DOCS = {
    "run.json": '{"m": 2, "r": 1, "alphas": ["3/2", "-5/3"], "n": 2}\n',
    "run.toml": 'm = 2\nr = 1\nalphas = ["3/2", "-5/3"]\nn = 2\n',
}


@pytest.mark.parametrize("name", list(_CONFIG_DOCS))
def test_config_document_json(tmp_path, capsys, name):
    # either format gives the bytes of the same run from flags (GOLDEN in test_golden.py)
    path = tmp_path / name
    path.write_text(_CONFIG_DOCS[name])
    assert main(["pade", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert main(["pade", "--m", "2", "--r", "1", "--alphas=3/2,-5/3", "--n", "2"]) == 0
    assert out == capsys.readouterr().out
    digest = "d85da3b2e0863ec7c16634d41a487046b4225a48ec8bf88aee9b346ac9273c51"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_config_document_flags_win(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"m": 1, "r": 1, "alphas": ["1"], "n": 1}))
    code, data = run_json(capsys, ["det", "--config", str(path), "--n", "2"])
    assert code == 0
    assert data["n"] == 2
    assert data["determinant"]["delta"] == "1/3"


def test_missing_config_document_exits_2():
    proc = run_cli("pade", "--m", "1", "--n", "1", "--config", "/nonexistent/run.json")
    assert proc.returncode == 2
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "/nonexistent/run.json" in lines[0]


@pytest.mark.parametrize("command", ["pade", "audit"])
@pytest.mark.parametrize(
    "name, text",
    [
        ("run.json", "5"),
        ("run.json", '["m"]'),
        ("run.json", '{"m": "x"}'),
        ("run.toml", 'm = "2"\n'),
        ("run.json", '{"m": true}'),
        # documents that do not parse
        ("run.json", "{"),
        ("run.toml", "m = "),
        # nesting past the recursion limit, and a document that is no UTF-8
        ("run.json", "[" * 100000 + "]" * 100000),
        ("run.toml", "a = " + "[" * 5000 + "]" * 5000 + "\n"),
        ("run.json", b'\xff\xfe{"m": 1}'),
    ],
    ids=lambda value: value if len(value) < 20 else f"{value[:8]!r}...",
)
def test_malformed_config_document_exits_2(tmp_path, monkeypatch, capsys, command, name, text):
    # a short relative path, which every message quotes whole
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main([command, "--config", name, "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert name in lines[0]


def test_config_document_messages_cut_a_long_path(tmp_path, monkeypatch, capsys):
    # a path is an input token: shown whole up to 64 characters, else cut, as every other message shows one
    monkeypatch.chdir(tmp_path)
    name = "r" * 100 + ".json"
    for text in ("5", "{"):
        (tmp_path / name).write_text(text)
        assert main(["pade", "--config", name, "--n", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"error: config document {'r' * 64}... (105 characters)")


@pytest.mark.parametrize(
    "name, text",
    [
        ("run.json", '{"m": 1, "alphas": ["1"], "beta": %s}\n' % ("1" * 4401)),
        ("run.toml", 'm = 1\nalphas = ["1"]\nbeta = %s\n' % ("1" * 4401)),
    ],
    ids=["json", "toml"],
)
def test_config_document_integer_past_the_limit_exits_2_in_the_programs_words(tmp_path, capsys, name, text):
    # the parsers would refuse it in the interpreter's words, naming sys.set_int_max_str_digits
    path = tmp_path / name
    path.write_text(text)
    assert main(["criterion", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: a run of 4401 digits is past the limit of 4300 digits"]


@pytest.mark.parametrize(
    "argv",
    [
        ("criterion", "--m", "1", "--alphas", "1", "--beta", "1e-99999999"),
        ("criterion", "--m", "1", "--alphas", "1", "--beta", "1e999999"),
        ("audit", "--m", "1", "--alphas", "1e-99999", "--n", "1..2", "--beta", "30"),
    ],
)
def test_huge_decimal_exponent_exits_2_at_once(argv):
    # Fraction("1e-99999999") alone forms 10^99999999; the parser refuses it first
    start = time.perf_counter()
    proc = run_cli(*argv)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: exponent ") and "past the limit" in lines[0]
    assert elapsed < 1.0


def test_beta_with_too_many_integer_digits_exits_2_at_once():
    # 123e4299 has 4302 digits: refused when parsed, not when printed
    start = time.perf_counter()
    proc = run_cli("criterion", "--m", "1", "--alphas", "1", "--beta", "123e4299")
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert lines == ["error: '123e4299' has 4302 integer digits, past the limit of 4300"]
    assert elapsed < 1.0


def test_p_adic_remainder_of_exactly_zero_exits_2_at_once():
    # |1/4|_2 = 4 > H_2(1/2) = 2, but Q_(2,0)(1/4) = 0 and Li_1(2) = -log_2(-1) = 0 in Q_2, so
    # R_2(1/4) = 0 exactly and no partial sum certifies: the p-adic term cap ends the sum
    argv = ["audit", "--m", "1", "--alphas", "1/2", "--n", "1..2", "--beta", "1/4", "--place", "p2"]
    start = time.perf_counter()
    proc = subprocess.run(CLI + argv, capture_output=True, timeout=60)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode().splitlines() == ["error: remainder summation did not certify"]
    assert elapsed < 2.0


def test_weight_past_machine_index_exits_2():
    proc = run_cli("det", "--m", "1", "--alphas", "1", "--n", "99999999999999999999")
    assert proc.returncode == 2
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: input too large")


def test_verification_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(logpow_mod, "verify_En_identities", lambda n: False)
    code, data = run_json(capsys, ["logpow-identities", "--n", "2"])
    assert code == 1
    assert data["ok"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ("pade", "--m", "1", "--r", "2", "--alphas", "1", "--n", "1"),
        ("criterion", "--m", "2", "--r", "1", "--alphas", "1,2", "--beta", "30", "--place", "p2"),
        ("audit", "--m", "1", "--r", "1", "--alphas", "1", "--n", "1..2", "--place", "p3"),
        ("det", "--appendix-logpow", "--m", "2", "--n", "1"),
    ],
)
def test_byte_identical_reruns(argv):
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first.returncode == second.returncode
    assert first.stdout == second.stdout


def _record_calls(monkeypatch, fns, modules=None):
    """Replace bindings of each of ``fns`` by a wrapper that records (args, result).

    All calls go to one list.  By default every loaded rodpade module that
    binds one of the functions is patched.
    """
    calls = []
    if modules is None:
        modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "rodpade"]
    for fn in fns:

        def recording(*args, fn=fn, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((args, result))
            return result

        for module in modules:
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, recording)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ("pade", "--m", "1", "--r", "2", "--alphas", "1/2", "--n", "1"),
        ("det", "--m", "2", "--r", "1", "--alphas", "1,-2", "--n", "2"),
        ("pade", "--appendix-logpow", "--m", "2", "--n", "2"),
        ("det", "--appendix-logpow", "--m", "3", "--n", "1"),
    ],
)
def test_rstar_and_moment_seqs_built_once_per_run(capsys, monkeypatch, argv):
    families = _record_calls(monkeypatch, [mpl_mod.moment_seqs, logpow_mod.moment_seqs])
    tables = _record_calls(monkeypatch, [mpl_mod.pade_table, logpow_mod.logpow_table])
    builds = _record_calls(monkeypatch, [transform.build_table])
    # the pade job calls verify_pade in determinant, which defines it: patch that binding only
    verifies = _record_calls(monkeypatch, [determinant.verify_pade], [determinant])
    assert main(list(argv)) == 0
    capsys.readouterr()
    assert len(families) == len(tables) == len(builds) == 1
    table = tables[0][1]
    assert table is builds[0][1]
    # verification, Delta and theta read the one run of values per row and column
    assert len(table.runs) == len(table.scales) == len(table.seqs)
    assert all(len(runs) == table.M + 1 for runs in table.runs)
    assert all(len(run) == table.n + 1 for runs in table.runs for run in runs)
    assert len(table.seqs) == len(families[0][1])
    assert all(f is g for f, g in zip(table.seqs, families[0][1]))
    # the series route reads the integer windows of the run's own rows, the table's
    assert all(len(args) == 1 and args[0] is table for args, _ in verifies)
    # only pade verifies: det reads the determinants alone
    assert bool(verifies) == (argv[0] == "pade")


def test_audit_builds_one_moment_family_for_every_weight(capsys, monkeypatch):
    families = _record_calls(monkeypatch, [mpl_mod.moment_seqs])
    builds = _record_calls(monkeypatch, [transform.build_table])
    argv = ["audit", "--m", "2", "--r", "1", "--alphas=4,-3", "--n", "1..4",
            "--beta", "11/4", "--place", "p2"]
    assert main(argv) == 0
    capsys.readouterr()
    assert len(families) == 1
    family = families[0][1]
    tables = [table for _, table in builds]
    assert [table.n for table in tables] == [1, 2, 3, 4]
    for table in tables:
        assert len(table.seqs) == len(family)
        assert all(f is g for f, g in zip(table.seqs, family))


def test_pade_depth_changes_neither_output_nor_moment_work(capsys, monkeypatch):
    argv = ["pade", "--m", "1", "--r", "2", "--alphas=-3", "--n", "1"]
    builds = _record_calls(monkeypatch, [transform.build_table])
    outs = []
    for extra in ([], ["--depth", "500"]):
        assert main(argv + extra) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    # moments reached by each row of the run's own table
    plain, deep = ([len(f._cache) for f in table.seqs] for _, table in builds)
    assert all(d <= p for p, d in zip(plain, deep))


@pytest.mark.parametrize(
    "argv",
    [
        ("pade", "--m", "2", "--r", "2", "--alphas=3/2,-5/3", "--n", "2"),
        ("pade", "--m", "1", "--r", "1", "--alphas=-7/3", "--n", "3", "--format", "csv"),
        ("pade", "--appendix-logpow", "--m", "2", "--n", "3"),
        ("det", "--m", "2", "--r", "1", "--alphas=-2,1/3", "--n", "3"),
        ("det", "--appendix-logpow", "--m", "2", "--n", "4"),
        ("audit", "--m", "2", "--r", "1", "--alphas=3/2,-5/3", "--n", "1..4", "--beta", "40"),
        ("audit", "--m", "1", "--r", "1", "--alphas=-6/5", "--n", "1..6", "--beta", "2/125", "--place", "p5"),
        ("criterion", "--m", "2", "--r", "1", "--alphas=3/2,-5/3", "--beta", "4000000", "--products"),
        ("criterion", "--m", "1", "--r", "1", "--alphas=1/2", "--beta", "1/4096", "--place", "p2"),
    ],
    ids=lambda argv: " ".join(argv),
)
def test_no_fraction_is_copied_into_a_fraction(capsys, monkeypatch, argv):
    # values travel as integer pairs or as the Fractions they already are:
    # no constructor or helper on a command's path re-wraps a Fraction
    copies = []
    new = Fraction.__new__

    def counting(cls, numerator=0, denominator=None, **kwargs):
        if isinstance(numerator, Fraction) or isinstance(denominator, Fraction):
            copies.append((numerator, denominator))
        return new(cls, numerator, denominator, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    assert main(list(argv)) == 0
    capsys.readouterr()
    assert copies == []
    # the counter sees a copy when there is one
    assert Fraction(Fraction(1, 3)) == Fraction(1, 3) and copies == [(Fraction(1, 3), None)]


def _counting_window_growth(monkeypatch, inside=(None,)):
    """Record, per ``MomentSeq.ints`` call, where it ran and whether the window grew."""
    reads, grown = [], []
    ints = transform.MomentSeq.ints

    def counting(self, stop):
        before = len(self._ints[0])
        window = ints(self, stop)
        reads.append(inside[0])
        if len(window[0]) != before:
            grown.append((inside[0], len(window[0])))
        return window

    monkeypatch.setattr(transform.MomentSeq, "ints", counting)
    return reads, grown


def test_pade_takes_each_orthogonality_value_once(capsys, monkeypatch):
    # one lcm per row per table: each row's integer window f_0..f_(n + deg P_M)
    # grows once, when the table is built, and every run phi_j(t^k P_l),
    # k <= n, and every Q is read off it; verify_pade's two routes, the
    # remainder starts, the degree lemma (k < n) and theta (k = n) read the
    # table's runs and the same windows, and take no value of their own
    _, grown = _counting_window_growth(monkeypatch)
    for command in ("pade", "det"):
        grown.clear()
        assert main([command, "--m", "2", "--r", "2", "--alphas=3/2,-5/3", "--n", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["determinant"]["abs_identity_ok"] is True
        # 8 rows, each window f_0..f_(n + deg P_M), n + deg P_M = 2 + (8 * 2 + 8)
        assert grown == [(None, 27)] * 8


def test_bounds_audit_reads_phi_of_tnp_off_the_table(capsys, monkeypatch):
    from rodpade import audit as audit_mod

    inside = [None]
    reads, grown = _counting_window_growth(monkeypatch, inside)
    audit, build = audit_mod.bounds_audit, transform.build_table

    def within(name, fn):
        def wrapped(*args, **kwargs):
            inside[0] = name
            try:
                return fn(*args, **kwargs)
            finally:
                inside[0] = None

        return wrapped

    monkeypatch.setattr(audit_mod, "bounds_audit", within("audit", audit))
    # mpl.pade_tables imports build_table when it runs, from transform
    monkeypatch.setattr(transform, "build_table", within("build", build))
    argv = ["audit", "--m", "2", "--r", "1", "--alphas=3/2,-5/3", "--n", "1..8", "--beta", "40"]
    assert main(argv) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert len(reports) == 8
    # one window per row, grown by each of the 8 tables of 2 rows; the audit
    # reads no window and takes no value, and the tables take no run of
    # their own: only the remainder decay, past k = n, grows the windows further
    assert [where for where, _ in grown].count("build") == 8 * 2
    assert "audit" not in reads
    assert set(reads) == {"build", None} and {where for where, _ in grown} == {"build", None}


def _perturbed_last_column(monkeypatch):
    """Make mpl tables carry P_M + 1 as their last column."""
    real = mpl_mod.pade_table

    def perturbed(config, n):
        table = real(config, n)
        columns = list(table.columns)
        nums, den = columns[-1]
        columns[-1] = ((nums[0] + den,) + nums[1:], den)
        return transform.build_table(columns, table.seqs, n)

    monkeypatch.setattr(mpl_mod, "pade_table", perturbed)


def _flipped_first_tail_coefficient(monkeypatch):
    """Make the series route of ``verify_pade`` see a nonzero first tail coefficient."""
    real = determinant._series_coefficients

    def flipped(nums, ws, n):
        tail, part = real(nums, ws, n)
        return [tail[0] + 1, *tail[1:]], part

    monkeypatch.setattr(determinant, "_series_coefficients", flipped)


_TABLE_CHECK_FAILURES = [
    (
        "zero-delta",
        ("pade", "det"),
        ["--m", "1", "--alphas", "1", "--n", "1"],
        lambda mp: mp.setattr(determinant, "_int_det", lambda matrix: 0),
        "determinant is zero",
    ),
    (
        "lemma-failure",
        ("pade", "det"),
        ["--m", "1", "--alphas=3/2", "--n", "2"],
        _perturbed_last_column,
        "weight-2 table fails the degree lemma: Delta is not certified constant",
    ),
    # det never verifies, so only pade reaches the two routes
    (
        "route-disagreement",
        ("pade",),
        ["--m", "1", "--alphas", "1", "--n", "2"],
        _flipped_first_tail_coefficient,
        "row Li_1(1/z): kernel test says True, series test says False",
    ),
]


@pytest.mark.parametrize(
    "command, argv, breakage, message",
    [
        pytest.param(command, argv, breakage, message, id=f"{name}-{command}")
        for name, commands, argv, breakage, message in _TABLE_CHECK_FAILURES
        for command in commands
    ],
)
def test_determinant_errors_exit_1_with_one_error_payload(
    capsys, monkeypatch, command, argv, breakage, message
):
    breakage(monkeypatch)
    assert main([command, *argv]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out) == {"command": command, "error": message}
    assert err == ""


def test_pade_table_extra_fields_leave_equality_and_json_alone():
    table = mpl_mod.pade_table(mpl_mod.MplConfig(m=1, r=2, alphas=(1,)), 1)
    rebuilt = transform.PadeTable(table.n, table.columns, table.seqs, table.scales, table.qs, table.runs)
    text = json.dumps(table.to_json())
    assert rebuilt == table and json.dumps(rebuilt.to_json()) == text
    assert all(key not in text for key in ("rstar", "seqs", "scales", "runs"))


def test_exact_values_print_in_full_past_the_int_string_limit(capsys):
    # Delta has 4721 digits; the limit is lifted for printing only, so input keeps it
    limit = sys.get_int_max_str_digits()
    assert main(["det", "--m", "1", "--r", "2", "--alphas", "12345678901234567890", "--n", "20"]) == 0
    assert sys.get_int_max_str_digits() == limit
    out = json.loads(capsys.readouterr().out)["determinant"]
    assert len(out["delta"]) > sys.int_info.default_max_str_digits and out["abs_identity_ok"]
    config = mpl_mod.MplConfig(m=1, r=2, alphas=(12345678901234567890,))
    sys.set_int_max_str_digits(0)
    try:
        printed = Fraction(out["delta"]), Fraction(out["theta"])
    finally:
        sys.set_int_max_str_digits(limit)
    assert printed == determinant.table_determinants(mpl_mod.pade_table(config, 20))
    parsed = limit or sys.int_info.default_max_str_digits
    assert main(["criterion", "--m", "1", "--alphas", "1", "--beta", f"1e{parsed}"]) == 2
    assert sys.get_int_max_str_digits() == limit
    assert capsys.readouterr().err.endswith(f"past the limit of {parsed} digits\n")


_OUTPUT_FLAGS = {"--format", "--out"}
_ROW_FLAGS = {"--m", "--r", "--alphas", "--config"} | _OUTPUT_FLAGS


@pytest.mark.parametrize(
    "command, flags",
    [
        ("pade", _ROW_FLAGS | {"--n", "--appendix-logpow", "--depth"}),
        ("det", _ROW_FLAGS | {"--n", "--appendix-logpow"}),
        ("criterion", _ROW_FLAGS | {"--beta", "--place", "--products"}),
        ("audit", _ROW_FLAGS | {"--lcm", "--n", "--beta", "--place"}),
        ("logpow-identities", _OUTPUT_FLAGS | {"--n"}),
    ],
    ids=["pade", "det", "criterion", "audit", "logpow-identities"],
)
def test_help_lists_every_flag(capsys, command, flags):
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    assert set(re.findall(r"--[a-z-]+", out)) == flags | {"--help"}
    assert all(text in out for _, text in cli.FLAGS[command].values())
    assert main([command, "-h"]) == 0 and capsys.readouterr().out == out


def test_help_without_a_subcommand_lists_the_subcommands(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert all(f"\n  {command} " in out for command in cli.FLAGS)
    assert main(["-h"]) == 0 and capsys.readouterr().out == out


# Values per kind that both parsers take: signed and spaced ints, "-" alone,
# a space, and rationals with a "-" before a digit or "." (argparse read
# "-1" and "-.5" as values, but "-1/2,3" as a flag); then values one refuses.
_GOOD = {
    int: ["1", "3", "0", "-1", "+2", " 4"],
    str: ["1", "1/2,3", "1..3", "-1", "-.5", "-1/2,3", "-", "a b", ""],
    ("json", "csv"): ["json", "csv"],
}
_BAD = {int: ["x", "1.5", ""], str: ["-x", "--m"], ("json", "csv"): ["xml", ""]}
# tokens that name no flag of some subcommand, and stray values
_UNKNOWN = ["--xyz", "--xyz=1", "--m2", "-x", "stray", "--", "--products", "--lcm", "--depth"]


def _argparse_read(argv):
    """The former parser's flag values, or its exit code."""
    from oracles import build_parser

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            values = vars(build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code
    return values


def _table_read(argv):
    try:
        values = vars(cli.read_argv(argv))
    except ValueError:
        return cli.EXIT_CONFIG
    if values["subcommand"] == "logpow-identities" and values["n"] is None:
        values["n"] = 4  # the default the command applies, which argparse held
    return values


def test_flag_table_reads_argv_as_the_argparse_parser_did():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def argvs(draw):
        command = draw(st.sampled_from(list(cli.FLAGS)))
        argv = [command]
        for _ in range(draw(st.integers(0, 5))):
            if draw(st.integers(0, 11)) == 0:
                argv.append(draw(st.sampled_from(_UNKNOWN)))
                continue
            flag, (kind, _) = draw(st.sampled_from(list(cli.FLAGS[command].items())))
            # the name, or a short prefix of it: "--a" and "--p" are shared, "--al" is not
            name = flag if draw(st.integers(0, 2)) else flag[: draw(st.integers(3, 4))]
            form = draw(st.sampled_from(["space"] * 4 + ["equals"] * 4 + ["alone"]))
            if kind is bool:
                given = draw(st.integers(0, 3)) == 0
                argv.append(f"{name}={draw(st.sampled_from(['', '1']))}" if given else name)
                continue
            value = draw(st.sampled_from(_BAD[kind] if draw(st.integers(0, 9)) == 0 else _GOOD[kind]))
            argv += {"alone": [name], "space": [name, value], "equals": [f"{name}={value}"]}[form]
        return argv

    @hypothesis.settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @hypothesis.given(argvs())
    @hypothesis.example(["criterion", "--alph", "-1/2,3", "--beta", "-.5", "--place=p2", "--products"])
    @hypothesis.example(["audit", "--n", "-1..2", "--m", "-1", "--n=1..2", "--out", "a b"])
    @hypothesis.example(["pade", "--m", "1", "--a", "1"])
    @hypothesis.example(["criterion", "--m", "1", "--products=1"])
    def check(argv):
        got, want = _table_read(argv), _argparse_read(argv)
        if want == cli.EXIT_CONFIG and got != cli.EXIT_CONFIG:
            # the one widening: a separate value with a digit or "." after its "-",
            # which argparse read as a flag unless it was a plain number; given
            # after "=" instead, argparse read it too
            joined = argv[:1]
            for token in argv[1:]:
                if re.match(r"-[\d.]", token):
                    joined[-1] += "=" + token
                else:
                    joined.append(token)
            assert joined != argv, argv
            want = _argparse_read(joined)
        assert got == want, argv

    check()


_LOADED_MODULES = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "from rodpade.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(code, *sorted(set(sys.modules) - before), file=sys.stderr)\n"
)


@pytest.mark.parametrize(
    "argv, family, other",
    [
        (("pade", "--m", "1", "--r", "2", "--alphas", "1/2", "--n", "1"), "mpl", "logpow"),
        (("det", "--m", "2", "--r", "1", "--alphas", "1,-2", "--n", "1"), "mpl", "logpow"),
        (("pade", "--appendix-logpow", "--m", "2", "--n", "1"), "logpow", "mpl"),
        (("det", "--appendix-logpow", "--m", "2", "--n", "1"), "logpow", "mpl"),
    ],
)
def test_pade_and_det_load_only_their_row_family(argv, family, other):
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, *argv], capture_output=True, text=True
    )
    code, *loaded = proc.stderr.split()
    assert code == "0"
    assert f"rodpade.{family}" in loaded
    assert f"rodpade.{other}" not in loaded
    assert "rodpade.criterion" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ("pade", "--m", "1", "--r", "2", "--alphas", "1/2", "--n", "1"),
        ("pade", "--appendix-logpow", "--m", "2", "--n", "1"),
        ("det", "--m", "2", "--r", "1", "--alphas", "1,-2", "--n", "1"),
        ("audit", "--m", "1", "--alphas", "1", "--n", "1..3", "--beta", "30"),
        ("criterion", "--m", "1", "--alphas", "1", "--beta", "30", "--place", "inf"),
        ("logpow-identities", "--n", "2"),
    ],
)
def test_no_subcommand_loads_dataclasses(argv):
    # module presence, not time: a run that imports dataclasses pays for inspect, ast and dis
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, *argv], capture_output=True, text=True
    )
    code, *loaded = proc.stderr.split()
    assert code == "0"
    assert "dataclasses" not in loaded and "inspect" not in loaded
    # the flag table's reader stands in for argparse, which loads gettext and, through it, locale
    assert not {"argparse", "gettext", "locale"} & set(loaded)
    # the payload is written by cli's own JSON writer: json is loaded only to read --config
    assert "json" not in loaded
    if argv[0] == "criterion":
        assert "rodpade.transform" not in loaded


_RODPADE_MODULES = (
    "import sys\n"
    "from rodpade.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(code, *sorted(name for name in sys.modules if name.split('.')[0] == 'rodpade'), file=sys.stderr)\n"
)


@pytest.mark.parametrize(
    "argv, modules",
    [
        (("pade", "--m", "1", "--r", "2", "--alphas", "1/2", "--n", "1"), {"determinant", "mpl", "transform"}),
        (("pade", "--appendix-logpow", "--m", "2", "--n", "1"), {"determinant", "logpow", "transform"}),
        (("det", "--m", "2", "--r", "1", "--alphas", "1,-2", "--n", "1"), {"determinant", "mpl", "transform"}),
        (("det", "--appendix-logpow", "--m", "2", "--n", "1"), {"determinant", "logpow", "transform"}),
        # V needs heights, and mpl for the check of (m, r, alphas) and the conclusion's labels:
        # no table, audit or determinant
        (("criterion", "--m", "1", "--alphas", "1", "--beta", "30", "--place", "inf"), {"criterion", "heights", "mpl"}),
        # tables but no determinant, and no verdict
        (("audit", "--m", "1", "--alphas", "1", "--n", "1..3", "--beta", "30"), {"audit", "heights", "mpl", "transform"}),
        # no table: neither mpl nor transform
        (("audit", "--lcm", "10000"), {"audit", "heights"}),
        (("logpow-identities", "--n", "2"), {"logpow", "transform"}),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, tuple) else None,
)
def test_each_subcommand_loads_only_its_own_modules(argv, modules):
    proc = subprocess.run(
        [sys.executable, "-c", _RODPADE_MODULES, *argv], capture_output=True, text=True
    )
    code, *loaded = proc.stderr.split()
    assert code == "0", proc.stderr
    assert set(loaded) == {"rodpade", "rodpade.cli", "rodpade.exact"} | {f"rodpade.{m}" for m in modules}


def test_every_subcommand_handler_resolves():
    # a wrong module name in COMMANDS fails here, not on a user's first job
    assert list(cli.COMMANDS) == list(cli.FLAGS)
    for command, (module, _) in cli.COMMANDS.items():
        run = cli.handler(command)
        assert callable(run) and (run.__module__, run.__name__) == (f"rodpade.{module}", "run")


def _imports_cli(node) -> bool:
    if isinstance(node, ast.Import):
        return any(alias.name == "rodpade.cli" for alias in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    # the package's modules import each other relatively, one level up
    module = ".".join(filter(None, ["rodpade" if node.level else "", node.module]))
    return module == "rodpade.cli" or (module == "rodpade" and any(a.name == "cli" for a in node.names))


def test_no_module_but_main_imports_cli():
    # the exit codes and the flag reading are cli's own: no subcommand's run reaches back into it
    package = Path(cli.__file__).parent
    importers = {
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _imports_cli(node)
    }
    assert importers == {"__main__.py"}


@pytest.mark.parametrize(
    "argv, ok",
    [
        (("pade", "--m", "1", "--r", "1", "--alphas", "1", "--n", "2"), True),
        (("det", "--appendix-logpow", "--m", "2", "--n", "1"), True),
        (("criterion", "--m", "1", "--r", "1", "--alphas", "1", "--beta", "30", "--place", "inf"), True),
        (("criterion", "--m", "1", "--r", "1", "--alphas", "1", "--beta", "1", "--place", "inf"), False),
        (("audit", "--m", "1", "--r", "1", "--alphas", "1", "--n", "1..2", "--beta", "30", "--place", "inf"), True),
        (("audit", "--lcm", "10"), False),
        (("logpow-identities", "--n", "2"), True),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, tuple) else None,
)
def test_each_run_returns_its_payload_and_whether_it_holds(argv, ok):
    # every flag a run reads is given, so no default of main's is needed; main alone picks the exit code
    payload, holds = cli.handler(argv[0])(cli.read_argv(list(argv)))
    assert payload["command"] == argv[0]
    assert holds is ok


def test_import_cost_tool_reports_every_job(tmp_path):
    # a copy of the sources, so that no compiled file of this run makes the tool refuse them
    tool = Path(__file__).resolve().parent.parent / "tools" / "import_cost.py"
    package = Path(cli.__file__).parent
    shutil.copytree(package, tmp_path / "src" / "rodpade", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tool), "--runs", "1", "--root", str(tmp_path)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    jobs = runpy.run_path(str(tool))["JOBS"]
    totals = proc.stdout.split("\ntotals, median of 1 runs\n")[1].splitlines()[1:]
    rows = {job: line.split()[-3:] for job, line in zip(jobs, totals)}
    assert [line.split()[:-3] for line in totals] == [job.split() for job in jobs]
    # importing the front end compiles the package's __init__ and cli, nothing else
    lines = sum(len((package / name).read_text(encoding="utf-8").splitlines()) for name in ("__init__.py", "cli.py"))
    assert rows["import rodpade.cli"][:2] == ["2", str(lines)]


#: functions of src/rodpade that no subcommand runs, and why each stays
_UNCALLED_ALLOWED = {
    # what a value offers its reader: repr, copy and the write guards
    ("exact.py", "Record.__repr__"),
    ("exact.py", "Record.__setattr__"),
    ("exact.py", "Record.__delattr__"),
    ("exact.py", "Record.__reduce__"),
    ("transform.py", "MomentSeq.__repr__"),
    # read by benchmarks/checks.py and the benchmark's self-tests
    ("heights.py", "H_v_vec"),
    ("heights.py", "abs_v"),
    ("logpow.py", "_stirling_cycle"),
    ("logpow.py", "logpow_moment_stirling"),
    ("mpl.py", "mpl_moment_oracle"),
    # the process entry: in-process jobs cannot enter it
    ("__main__.py", "run"),
}


def test_every_function_of_the_package_runs_in_some_edge_job():
    # src/rodpade holds only what a subcommand runs: a new function that no edge job enters fails here
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "tools" / "uncalled.py")], capture_output=True, text=True, cwd=root
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    listed = re.findall(r"^src/rodpade/(\w+\.py):\d+ ([\w.]+) \(\d+\)$", proc.stdout, re.M)
    assert len(listed) == len(proc.stdout.splitlines())
    assert set(listed) == _UNCALLED_ALLOWED


def test_uncalled_tool_lists_what_a_workloads_jobs_never_enter():
    # deep-tail builds log-power and depth-2 tables and never proves the E_n identities
    root = Path(__file__).resolve().parent.parent
    argv = ["--workload", "deep-tail", "--seed", "7", "--count", "4"]
    proc = subprocess.run(
        [sys.executable, str(root / "tools" / "uncalled.py"), *argv], capture_output=True, text=True, cwd=root
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    listed = set(re.findall(r"^src/rodpade/(\w+\.py):\d+ ([\w.]+) \(\d+\)$", proc.stdout, re.M))
    assert ("logpow.py", "verify_En_identities") in listed
    assert ("transform.py", "build_table") not in listed


def test_json_writer_matches_json_dumps(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    # quotes, backslashes, controls, DEL, Latin-1, BMP, lone surrogates and astral characters
    texts = st.text(
        st.one_of(
            st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\ud7ff\ud800\udfff\ue000\uffff\U0001f600\U0010ffff'),
            st.characters(),
        ),
        max_size=12,
    )
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(-(10**80), 10**80),
        st.sampled_from([10**400, -(2**1000) - 1]),
        st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e300, 1e16, 0.1, float("nan"), float("inf"), float("-inf")]),
        st.floats(allow_nan=True, allow_infinity=True),
        texts,
    )
    payloads = st.recursive(
        scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=5),
            st.lists(inner, max_size=5).map(tuple),
            st.dictionaries(texts, inner, max_size=5),
        ),
        max_leaves=20,
    )

    @hypothesis.settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @hypothesis.given(payloads)
    @hypothesis.example({"": [], "a": {}, "b": [[], {}, ()], "c": {"d": [1, -2.5, True, None, "x"]}})
    def check(payload):
        assert cli._json_text(payload) == json.dumps(payload, indent=2)

    check()
    for bad in ({1: "int key"}, {"value": Fraction(1, 2)}, [Fraction(3)], {"k": {None: 0}}):
        with pytest.raises(TypeError):
            cli._json_text(bad)

    # no job's payload holds a value that the writer hands to json.dumps
    digests = runpy.run_path(str(Path(__file__).resolve().parent.parent / "tools" / "job_digests.py"))

    def refuse(*args, **kwargs):
        raise AssertionError("json.dumps called")

    monkeypatch.setattr(json, "dumps", refuse)
    results = list(digests["run_jobs"](lambda argv: digests["run_job"](main, argv), digests["EDGE"]))
    assert len(results) == len(digests["EDGE"])
    assert [argv for argv, code, _, _ in results if code == "raised"] == []


def test_no_source_file_imports_dataclasses():
    import ast
    from pathlib import Path

    imported = set()
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {(path.name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                imported.add((path.name, node.module.split(".")[0]))
    assert len({name for name, _ in imported}) >= 9
    assert [pair for pair in imported if pair[1] == "dataclasses"] == []


def test_the_operator_algebra_and_recurrences_live_in_the_tests():
    # the package has one polynomial representation, integer coefficient lists
    for name in ("rodpade.weyl", "rodpade.holonomic"):
        with pytest.raises(ModuleNotFoundError):
            __import__(name)


def test_benchmark_checks_import():
    # the benchmark's correctness check imports program names; a rename must fail here
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "benchmarks" / "checks.py"
    spec = importlib.util.spec_from_file_location("benchmark_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.check) and callable(module.max_coeff_bits)


def test_benchmark_program_names_resolve():
    # the benchmark's self-test and tracer read these outside checks.py
    from rodpade import criterion, heights, logpow, mpl, transform

    assert (criterion.Place, criterion.abs_v, criterion.H_v_vec) == (heights.Place, heights.abs_v, heights.H_v_vec)
    assert mpl.MomentSeq is transform.MomentSeq and logpow.MomentSeq is transform.MomentSeq


#: what each subcommand needs besides (m, r, alphas) to reach the check of them
_TABLE_AND_VERDICT_ARGS = {
    "pade": ("--n", "1"),
    "det": ("--n", "1"),
    "criterion": ("--beta", "40"),
    "audit": ("--n", "1..2", "--beta", "40"),
}


@pytest.mark.parametrize(
    "config, message",
    [
        (("--m", "0", "--alphas", "1"), "error: m must be positive, got 0"),
        (("--m", "1", "--r", "0", "--alphas", "1"), "error: r must be positive, got 0"),
        (("--m", "2", "--alphas", "1"), "error: expected 2 alphas, got 1"),
        (("--m", "2", "--alphas=1,0"), "error: alphas must be nonzero"),
        (("--m", "2", "--alphas=2,4/2"), "error: alphas must be pairwise distinct"),
    ],
    ids=["m=0", "r=0", "count", "zero", "repeated"],
)
def test_invalid_config_gives_one_error_line_from_every_subcommand(config, message):
    # MplConfig is the one check of (m, r, alphas): every subcommand words it alike
    for command, rest in _TABLE_AND_VERDICT_ARGS.items():
        proc = run_cli(command, *config, *rest)
        assert (proc.returncode, proc.stdout, proc.stderr.decode().splitlines()) == (2, b"", [message]), command


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("criterion", "--m", "2", "--alphas", "1,1", "--beta", "100"),
            "error: alphas must be pairwise distinct",
        ),
        (
            ("audit", "--m", "1", "--alphas", "5", "--n", "1..2", "--beta", "2"),
            "error: |beta|_v must exceed the local height of the alphas",
        ),
        (
            ("criterion", "--m", "0", "--r", "1", "--alphas=", "--beta", "40", "--place", "p2"),
            "error: m must be positive, got 0",
        ),
        (
            ("criterion", "--m", "1", "--r", "0", "--alphas=2", "--beta", "40", "--place", "p2"),
            "error: r must be positive, got 0",
        ),
        (
            ("criterion", "--m", "1", "--r", "0", "--alphas=2", "--beta", "40", "--place", "inf"),
            "error: r must be positive, got 0",
        ),
        (
            ("pade", "--m", "2", "--alphas=1,2/0", "--n", "1"),
            "error: zero denominator in '2/0'",
        ),
        (
            ("criterion", "--m", "1", "--alphas", "1", "--beta", "1/0"),
            "error: zero denominator in '1/0'",
        ),
        (
            ("audit", "--m", "1", "--alphas", "1", "--n", "1..2", "--beta", "1/0"),
            "error: zero denominator in '1/0'",
        ),
        # usage errors take the same path
        (
            ("criterion", "--m", "1", "--beta", "40", "--format", "xml"),
            "error: argument --format: invalid choice: 'xml' (choose from json, csv)",
        ),
        (("pade", "--a", "1"), "error: ambiguous option: --a could match --alphas, --appendix-logpow"),
        ((), "error: no subcommand (choose from pade, det, criterion, audit, logpow-identities)"),
        # a value that is no place or weight names its flag
        (
            ("criterion", "--m", "1", "--alphas", "1", "--beta", "30", "--place", "pabc"),
            "error: argument --place: expected inf or p<prime>, got 'pabc'",
        ),
        (
            ("audit", "--m", "1", "--alphas", "1", "--n", "a..b", "--beta", "30"),
            "error: argument --n: expected N or LO..HI, got 'a..b'",
        ),
        (("pade", "--m", "1", "--alphas", "1", "--n", "a..b"), "error: argument --n: expected N or LO..HI, got 'a..b'"),
        # a literal past the int-string limit is refused in the program's words
        (
            ("criterion", "--m", "1", "--alphas", "1", "--beta", "1" * 4401),
            "error: a run of 4401 digits is past the limit of 4300 digits",
        ),
        # a long token is shown cut to its first 64 characters, with its length
        (
            ("pade", "--m", "1" * 4401, "--alphas", "1", "--n", "1"),
            "error: argument --m: invalid int value: '%s... (4401 characters)'" % ("1" * 64),
        ),
        (("audit", "--lcm", "1" * 4401), "error: argument --lcm: invalid int value: '%s... (4401 characters)'" % ("1" * 64)),
        (
            ("pade", "--m", "1", "--alphas", "1", "--n", "1" * 4401),
            "error: argument --n: expected N or LO..HI, got '%s... (4401 characters)'" % ("1" * 64),
        ),
        (
            ("criterion", "--m", "1", "--alphas", "1", "--beta", "30", "--place", "p" + "1" * 4401),
            "error: argument --place: expected inf or p<prime>, got 'p%s... (4402 characters)'" % ("1" * 63),
        ),
        (
            ("criterion", "--m", "1", "--alphas", "1", "--beta", "30", "--format", "1" * 4401),
            "error: argument --format: invalid choice: '%s... (4401 characters)' (choose from json, csv)" % ("1" * 64),
        ),
        # a value that parses, 4300 digits long, is shown cut too
        (
            ("criterion", "--m", "1", "--alphas", "1", "--beta", "30", "--place", "p" + "1" * 4300),
            "error: primality of %s... (4300 characters) is only decided below 3317044064679887385961981" % ("1" * 64),
        ),
        (
            ("pade", "--m", "1" * 4300, "--alphas", "1", "--n", "1"),
            "error: expected %s... (4300 characters) alphas, got 1" % ("1" * 64),
        ),
        # Fraction's own refusal: a short literal is quoted whole, a long one cut
        (
            ("criterion", "--m", "1", "--alphas", "1", "--beta", "1/x"),
            "error: Invalid literal for Fraction: '1/x'",
        ),
        (
            ("criterion", "--m", "1", "--alphas", "1", "--beta", "x" * 5000),
            "error: Invalid literal for Fraction: '%s... (5000 characters)'" % ("x" * 64),
        ),
        (
            ("criterion", "--m", "1", "--alphas", "1," + "y" * 3000, "--beta", "3"),
            "error: Invalid literal for Fraction: '%s... (3000 characters)'" % ("y" * 64),
        ),
    ],
)
def test_criterion_errors_exit_2_with_one_error_line(argv, message):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode().splitlines() == [message]
    assert len(proc.stderr) < 200


def test_audit_lcm_out_of_memory_exits_2(capsys, monkeypatch):
    import rodpade.audit

    def no_memory(_n):
        raise MemoryError

    monkeypatch.setattr(rodpade.audit, "_primes_upto", no_memory)
    assert main(["audit", "--lcm", "99999999999"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: input too large"]


def test_remainder_sum_past_its_term_cap_exits_2(capsys, monkeypatch):
    # a decay whose sum does not certify within the cap: one error line, no traceback
    import rodpade.audit

    argv = ["audit", "--m", "1", "--alphas", "1", "--n", "1..2", "--beta", "30"]
    monkeypatch.setattr(rodpade.audit, "_REMAINDER_TERMS", 1)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: remainder summation did not certify"]
    monkeypatch.undo()
    assert main(argv) == 0


_IMPORT_ONLY = (
    "import sys\n"
    "import rodpade.cli\n"
    "loaded = sorted(name for name in sys.modules if name.startswith('rodpade'))\n"
    "import rodpade.exact\n"
    "print(*loaded, hasattr(rodpade.exact, 'Poly'), hasattr(rodpade, 'Poly'))\n"
)


def test_cli_import_leaves_the_operator_algebra_unloaded():
    proc = subprocess.run([sys.executable, "-c", _IMPORT_ONLY], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # the front end alone: each subcommand's modules, exact among them, load with its handler;
    # neither exact nor the package serves algebra names
    assert proc.stdout.split() == ["rodpade", "rodpade.cli", "False", "False"]


@pytest.mark.parametrize(
    "argv",
    [
        ("pade", "--m", "2", "--r", "2", "--alphas", "1/2,-3", "--n", "1"),
        ("det", "--appendix-logpow", "--m", "3", "--n", "2"),
        ("audit", "--m", "1", "--alphas", "1", "--n", "1..3", "--beta", "30"),
        ("criterion", "--m", "1", "--alphas", "1", "--beta", "30", "--place", "inf"),
    ],
)
def test_table_runs_never_load_the_operator_algebra(argv):
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, *argv], capture_output=True, text=True
    )
    code, *loaded = proc.stderr.split()
    assert code == "0"
    # criterion builds no table, so it loads no transform either
    assert ("rodpade.transform" in loaded) == (argv[0] != "criterion")


def test_job_digests_runs_every_edge_job():
    # the byte-identity tool that compares two checkouts: one line per edge job, none raised
    tool = Path(__file__).resolve().parent.parent / "tools" / "job_digests.py"
    edge = runpy.run_path(str(tool))["EDGE"]
    proc = subprocess.run([sys.executable, str(tool), "--workload", "edge"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(" ", 3)[3] for line in lines] == [" ".join(argv) for argv in edge]
    assert [line for line in lines if line.startswith("raised ")] == []


def test_job_digests_fresh_lines_match_the_in_process_lines():
    # --fresh runs each job through the process entry, which must print what main(argv) prints
    tool = Path(__file__).resolve().parent.parent / "tools" / "job_digests.py"
    args = [sys.executable, str(tool), "--workload", "deep-tail", "--seed", "7", "--count", "4"]
    in_process = subprocess.run(args, capture_output=True, text=True)
    fresh = subprocess.run(args + ["--fresh"], capture_output=True, text=True)
    assert in_process.returncode == fresh.returncode == 0, in_process.stderr + fresh.stderr
    assert len(in_process.stdout.splitlines()) == 4
    assert fresh.stdout == in_process.stdout


#: exit 0 as JSON and as CSV, exit 1, 2 and 3, --help, and a usage error
_ENTRY_JOBS = [
    ("pade", "--m", "1", "--r", "1", "--alphas", "1", "--n", "2"),
    ("det", "--m", "2", "--r", "1", "--alphas=-2,1/3", "--n", "3", "--format", "csv"),
    ("audit", "--lcm", "1"),
    ("pade", "--m", "0", "--alphas", "1", "--n", "1"),
    ("criterion", "--m", "1", "--r", "1", "--alphas", "1", "--beta", "1"),
    ("criterion", "--help"),
    ("pade", "--m", "1", "--n", "1", "--xyz"),
]


@pytest.mark.parametrize("argv", _ENTRY_JOBS, ids=" ".join)
def test_process_entry_prints_what_main_prints(capsys, argv):
    proc = run_cli(*argv)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out.encode(), captured.err.encode())


def test_process_entry_writes_the_out_file_main_writes(tmp_path, capsys):
    argv = ["criterion", "--m", "2", "--r", "1", "--alphas=3/2,-5/3", "--beta", "4000000", "--products", "--out"]
    proc = run_cli(*argv, str(tmp_path / "entry.json"))
    assert main(argv + [str(tmp_path / "main.json")]) == proc.returncode == 0
    assert proc.stdout == proc.stderr == b"" and capsys.readouterr() == ("", "")
    assert (tmp_path / "entry.json").read_bytes() == (tmp_path / "main.json").read_bytes()


def test_entry_freezes_the_collector_once_after_the_payload(monkeypatch):
    from rodpade import __main__ as entry

    out, written = io.StringIO(), []

    def freeze():
        written.append(out.getvalue())
        real_freeze()

    real_freeze = gc.freeze
    monkeypatch.setattr(gc, "freeze", freeze)
    monkeypatch.setattr(sys, "argv", ["rodpade", "criterion", "--m", "1", "--alphas", "1", "--beta", "1"])
    try:
        with contextlib.redirect_stdout(out):
            code = entry.run()
    finally:
        gc.unfreeze()
    assert code == 3
    assert written == [out.getvalue()] and json.loads(written[0])["command"] == "criterion"


def test_main_never_freezes_the_collector(capsys):
    frozen = gc.get_freeze_count()
    assert main(["pade", "--m", "1", "--r", "1", "--alphas", "1", "--n", "2"]) == 0
    assert gc.get_freeze_count() == frozen


def test_a_job_leaves_no_file_open_and_no_atexit_handler(tmp_path, monkeypatch, capsys):
    # what the entry's freeze relies on: no object whose collection at exit does work the job needs
    for name, text in _CONFIG_DOCS.items():
        (tmp_path / name).write_text(text)
    jobs = [
        ["criterion", "--m", "1", "--r", "1", "--alphas", "1", "--beta", "30", "--out", str(tmp_path / "out.json")],
        *(["pade", "--config", str(tmp_path / name)] for name in _CONFIG_DOCS),
    ]
    opened, unraisable = [], []
    real_open = open

    def tracked_open(*args, **kwargs):
        fh = real_open(*args, **kwargs)
        opened.append(weakref.ref(fh))
        return fh

    monkeypatch.setattr("builtins.open", tracked_open)
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    handlers = atexit._ncallbacks()  # a CPython detail: the count of registered atexit handlers
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        for argv in jobs:
            assert main(argv) == 0
        gc.collect()
    assert atexit._ncallbacks() == handlers
    assert unraisable == []
    assert len(opened) == len(jobs)
    assert all(ref() is None or ref().closed for ref in opened)
