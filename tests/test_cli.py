"""Command-line surface: exit codes, output shapes, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from rodpade import cli, determinant
from rodpade import logpow as logpow_mod
from rodpade import mpl as mpl_mod
from rodpade import transform
from rodpade.cli import main
from rodpade.weyl import adjoint

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


def test_config_document_json(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"m": 1, "r": 1, "alphas": ["1"], "n": 1}))
    code, data = run_json(capsys, ["pade", "--config", str(path)])
    assert code == 0
    assert data["table"]["P"][0] == ["1", "-2"]


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
    ],
)
def test_malformed_config_document_exits_2(tmp_path, capsys, command, name, text):
    path = tmp_path / name
    path.write_text(text)
    assert main([command, "--config", str(path), "--n", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


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


def test_weight_past_machine_index_exits_2():
    proc = run_cli("det", "--m", "1", "--alphas", "1", "--n", "99999999999999999999")
    assert proc.returncode == 2
    assert proc.stdout == b""
    lines = proc.stderr.decode().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: input too large")


def test_verification_failure_exits_1(capsys, monkeypatch):
    import rodpade.weyl

    monkeypatch.setattr(rodpade.weyl, "verify_En_identities", lambda n: False)
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
    adjoints = _record_calls(monkeypatch, [adjoint])
    families = _record_calls(monkeypatch, [mpl_mod.moment_seqs, logpow_mod.moment_seqs])
    tables = _record_calls(monkeypatch, [mpl_mod.pade_table, logpow_mod.logpow_table])
    builds = _record_calls(monkeypatch, [transform.build_table])
    # the pade job reads verify_pade off transform where it verifies, so the binding is transform's
    verifies = _record_calls(monkeypatch, [transform.verify_pade], [transform])
    assert main(list(argv)) == 0
    capsys.readouterr()
    # the columns come from the Rodrigues chain: R_n* is never formed
    assert adjoints == []
    assert len(families) == len(tables) == len(builds) == 1
    table = tables[0][1]
    assert table is builds[0][1]
    # verification, Delta and theta read the one run of values each cell carries
    for cell in table.cells:
        assert list(cell.heads) == list(table.row_labels)
        assert all(len(run) == table.n + 1 for run, _ in cell.heads.values())
    assert all(any(args[0] is cell for cell in table.cells) for args, _ in verifies)
    assert len(table.seqs) == len(families[0][1])
    assert all(f is g for f, g in zip(table.seqs, families[0][1]))
    # the series route reads the integer windows of the run's own rows
    assert all(args[1] is table.seqs for args, _ in verifies)
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
    # cells and the same windows, and take no value of their own
    _, grown = _counting_window_growth(monkeypatch)
    common = []
    # det_bareiss's row scaling, the one use on a pade or det job's modules, stays unused
    monkeypatch.setattr(determinant, "over_common_denominator", common.append)
    for command in ("pade", "det"):
        grown.clear()
        assert main([command, "--m", "2", "--r", "2", "--alphas=3/2,-5/3", "--n", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["determinant"]["abs_identity_ok"] is True
        # 8 rows, each window f_0..f_(n + deg P_M), n + deg P_M = 2 + (8 * 2 + 8)
        assert grown == [(None, 27)] * 8
    assert common == []


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
        columns = [cell.column for cell in table.cells]
        nums, den = columns[-1]
        columns[-1] = ((nums[0] + den,) + nums[1:], den)
        return transform.build_table(columns, table.seqs, n)

    monkeypatch.setattr(mpl_mod, "pade_table", perturbed)


@pytest.mark.parametrize("command", ["pade", "det"])
@pytest.mark.parametrize(
    "argv, breakage, message",
    [
        (
            ["--m", "1", "--alphas", "1", "--n", "1"],
            lambda mp: mp.setattr(determinant, "_int_det", lambda matrix: 0),
            "determinant is zero",
        ),
        (
            ["--m", "1", "--alphas=3/2", "--n", "2"],
            _perturbed_last_column,
            "weight-2 table fails the degree lemma: Delta is not certified constant",
        ),
    ],
    ids=["zero-delta", "lemma-failure"],
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
    bare = transform.PadeTable(table.n, table.M, table.row_labels, table.cells, seqs=())
    assert bare == table
    assert bare.to_json() == table.to_json()
    assert repr(bare) == repr(table)
    assert "rstar" not in json.dumps(table.to_json()) and "seqs" not in repr(table)


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
        (("logpow-identities", "--n", "2"), {"weyl"}),
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


def test_json_writer_matches_json_dumps():
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


def _imports_by_function(node, owner=None):
    """(innermost enclosing function or None, import node) for every import under node."""
    import ast

    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _imports_by_function(child, child.name)
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield owner, child
        yield from _imports_by_function(child, owner)


def _imports_weyl(node) -> bool:
    import ast

    if isinstance(node, ast.Import):
        return any(alias.name == "rodpade.weyl" for alias in node.names)
    module = node.module or ""
    if module.split(".")[-1] == "weyl":
        return True
    return module in ("", "rodpade") and any(alias.name == "weyl" for alias in node.names)


def test_only_the_operator_entry_points_import_weyl():
    # table jobs must never load the operator algebra; this pins who may
    import ast
    from pathlib import Path

    importers = set()
    for path in Path(cli.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        importers |= {
            (path.name, owner) for owner, node in _imports_by_function(tree) if _imports_weyl(node)
        }
    assert importers == {
        ("holonomic.py", None),
        ("__init__.py", "__getattr__"),
    }
    # the command line imports a handler's module by name: only this subcommand's is weyl
    assert [command for command, (module, _) in cli.COMMANDS.items() if module == "weyl"] == [
        "logpow-identities"
    ]


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
    ],
)
def test_criterion_errors_exit_2_with_one_error_line(argv, message):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.decode().splitlines() == [message]


def test_audit_lcm_out_of_memory_exits_2(capsys, monkeypatch):
    import rodpade.audit

    def no_memory(_n):
        raise MemoryError

    monkeypatch.setattr(rodpade.audit, "_primes_upto", no_memory)
    assert main(["audit", "--lcm", "99999999999"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: input too large"]


_IMPORT_ONLY = (
    "import sys\n"
    "import rodpade.cli\n"
    "loaded = sorted(name for name in sys.modules if name.startswith('rodpade'))\n"
    "import rodpade.exact\n"
    "from rodpade import DiffOp, LaurentTail, Poly, ord_inf\n"
    "print(*loaded, hasattr(rodpade.exact, 'Poly'), DiffOp.__module__, Poly.__module__,\n"
    "      LaurentTail.__module__, ord_inf.__module__)\n"
)


def test_cli_import_leaves_the_operator_algebra_unloaded():
    proc = subprocess.run([sys.executable, "-c", _IMPORT_ONLY], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    # the front end alone: each subcommand's modules, exact among them, load with its handler
    loaded = ["rodpade", "rodpade.cli"]
    assert proc.stdout.split() == loaded + ["False"] + ["rodpade.weyl"] * 4


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
    assert "rodpade.weyl" not in loaded
