"""Golden stdout: exact-only CLI jobs must keep printing the same bytes.

Each entry is (argv, exit code, sha256 of stdout).  The hashes were recorded
from the program before the table columns moved from the composed operator
R_n* to the Rodrigues derivative chain, so a change to any printed digit,
key order or line of these jobs fails here.  Only exact payloads are listed:
`audit` and `criterion` print floats whose last digit may differ with the
platform's `log`.  For `audit`, the exact rationals behind those floats are
pinned instead (``AUDIT_GOLDEN``).
"""

from __future__ import annotations

import hashlib
from fractions import Fraction as F

import pytest
from oracles import audit_rows, poly

from rodpade.cli import main
from rodpade.audit import _remainder_sum
from rodpade.heights import H_v_vec, Place, abs_v
from rodpade.exact import format_pair
from rodpade.mpl import MplConfig, pade_tables

GOLDEN = [
    (("pade", "--m", "1", "--r", "1", "--alphas", "1", "--n", "4"), 0,
     "ec12dc7f0fe7294127be4a090e0ccc3a3eaf17f8a26d2b059779e29bdf2348e5"),
    (("pade", "--m", "2", "--r", "1", "--alphas=3/2,-5/3", "--n", "2"), 0,
     "d85da3b2e0863ec7c16634d41a487046b4225a48ec8bf88aee9b346ac9273c51"),
    (("det", "--m", "2", "--r", "1", "--alphas=-2,1/3", "--n", "3"), 0,
     "054ee4d9c2caff6d91e21b178800ac6f15c26ea5f03abe04bf30c56dba81edc5"),
    (("pade", "--m", "1", "--r", "2", "--alphas=-3/4", "--n", "2"), 0,
     "8263df32006038661f3a3b59b861042248562498116c4ab22e4d99afc8bb2fb2"),
    (("det", "--m", "1", "--r", "2", "--alphas", "7/2", "--n", "3"), 0,
     "4d1afdfa5e70e8738381b1d099131dc1f0a93fd419edfa92dd6e1c8a8e85d263"),
    (("pade", "--m", "2", "--r", "2", "--alphas=1,-1/2", "--n", "1"), 0,
     "9ecf22cb39b2a6182cb36057e41395e8afc30f6fe2c6fd236c7bec5c7ddd6ea0"),
    (("pade", "--m", "1", "--r", "3", "--alphas", "2/3", "--n", "1"), 0,
     "61ff508b284b20ed69b75be0a354836a0cadc0bb939600402c1b6ef8fb9ae560"),
    (("det", "--m", "1", "--r", "3", "--alphas=-5", "--n", "1"), 0,
     "5ad0d8ee97754eb08690af3553a2245ff00161c5a9ef6227387003e8e6b10cc8"),
    (("pade", "--m", "3", "--r", "1", "--alphas=1,-2,1/2", "--n", "2"), 0,
     "2f2760f2aca7839bf2dbe200135be516aa11a13b80b5d46aae61fc94dad97cc4"),
    (("pade", "--m", "1", "--r", "2", "--alphas", "4", "--n", "1", "--depth", "30"), 0,
     "314c2e29e035b54e26564c63e7d33fff5b644924e9c91e09b1403c22a799eb2b"),
    (("pade", "--m", "1", "--r", "1", "--alphas=-7/3", "--n", "3", "--format", "csv"), 0,
     "712354f463ad916d0d532061bcd0da0212d879b3d1088c70722ccf0f9f6906c5"),
    (("pade", "--appendix-logpow", "--m", "3", "--n", "4"), 0,
     "7120bb85ec38212e020f1d2c4208b26c53f61bcd361d9edda62b304e66ec5372"),
    (("det", "--appendix-logpow", "--m", "2", "--n", "6"), 0,
     "4be58f4f5146700f7372fc58af1f37d67c97f944fc5928c8a293d650a45b74fe"),
    (("pade", "--appendix-logpow", "--m", "1", "--n", "5", "--format", "csv"), 0,
     "d6d6e36ab381b9d76b3686b3e75612c178c2dd775afb6494744050702b93bb2d"),
    # wide tables, recorded while Delta still came from D+1 evaluations and the
    # series route still multiplied Fractions term by term
    (("pade", "--m", "2", "--r", "3", "--alphas", "1,2", "--n", "1"), 0,
     "5c548785265f8f380323dde699d1547c5baf0ffaeaf5d2a76613bcf0509a454e"),
    (("pade", "--m", "1", "--r", "4", "--alphas", "1", "--n", "1"), 0,
     "028eb2f3400e036f79fdeadf3e9aeb00bb2579cdd21353d2c96be05575918937"),
    (("pade", "--appendix-logpow", "--m", "6", "--n", "10"), 0,
     "3cb8cfb893b34c1eb52ba330e0f0859045f1c04c9abb7648f9a03f6e533c46da"),
    # benchmark slot shapes, recorded while every table value was still a
    # Fraction (columns, Q, the runs phi_j(t^k P_l) and the series route)
    (("pade", "--m", "3", "--r", "1", "--alphas=-5/6,7/5,4/3", "--n", "4"), 0,
     "f7aad1d8c3102c3e3dbc783c3b84a761f82555e841493e526ef216a64026c7e4"),
    (("det", "--m", "3", "--r", "1", "--alphas=6,1,-5", "--n", "4"), 0,
     "237aa60882ef1ea42c96a38ffcab4d838ba9a0bda66aaca42700568142a2fe85"),
    (("det", "--m", "1", "--r", "3", "--alphas=-5/2", "--n", "1"), 0,
     "4a067df3ccaec95f7776e52c751692117c358ef67b27ff2b9f281d707c8af05a"),
    (("pade", "--m", "2", "--r", "2", "--alphas=2,3", "--n", "1"), 0,
     "a65eb24020194c30c55e6b18bb834082385946ff99830a155fdc02f3565a8220"),
    (("pade", "--m", "1", "--r", "1", "--alphas=-1/7", "--n", "40"), 0,
     "6025caddd454ad0901f03d94273dbf001d507782ed38c6701fa859685e050cdc"),
    (("pade", "--m", "1", "--r", "2", "--alphas=1/3", "--n", "6"), 0,
     "02875d075e6996cb96a0d83ab80e1b877309807eac06f315163385bbe51a8db4"),
    (("pade", "--appendix-logpow", "--m", "1", "--n", "40"), 0,
     "a2414d169d05d908b98fc391e3861f00d1e7430758740545d971c6f2d9224f74"),
    (("pade", "--appendix-logpow", "--m", "2", "--n", "11"), 0,
     "2cea893a325df50cb6026f517925f68ccb346c85eca123a52ad9604df5ffb83a"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_stdout_bytes_unchanged(capsys, argv, code, digest):
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# (m, r, alphas, weights, place, beta, digest of every report's rows, digest
# of the decay's certified partial sums).  Recorded from the program while the
# norms, values at beta and remainder sums were still Fraction arithmetic; the
# rows digests were re-recorded when weight 1 stopped listing moment j = 1 twice,
# and equal the old rows with each repeated (n, name) row dropped.
AUDIT_GOLDEN = [
    (2, 1, (F(3, 2), F(-5, 3)), range(1, 9), Place(), F(40),
     "0bb2932199cbdfadb740ef8836c05eb29850ac16dd569b386ac6a92eafba6e5c",
     "a264630c615716d48003a6c3e7777fa3a6cb496bb81c13eb2e1313514071939c"),
    (2, 1, (F(3, 2), F(-5, 3)), range(1, 9), Place(2), F(1, 64),
     "f2d5cbeac6cbc114876cf8a0b75a1282839bf862213ce46972fbd6f8d14a9f06",
     "fd88f9e4fced89e98687ca67fdeaf7196592d9e6f59bebed0c0e56f2969f5ea1"),
    (1, 2, (F(2),), range(1, 5), Place(3), F(1, 9),
     "cb74f8dfae405fd923fc089f77d836e33a5e67e7d15cba83e37f1c34d76ae942",
     "018e5d8162ff032b1ac2985e978b0adeb644368989bb79ffc35f0d41fb9babac"),
    (1, 1, (F(-7, 3),), range(1, 6), Place(), None,
     "5bd8a3d232b615aa16d28d98a0d0e77c07a4aafc2b316cdb94cf03aeced66dd9", None),
    (2, 1, (F(4), F(-3)), range(1, 4), Place(3), None,
     "77883c4d126b0a56da0cac6c725d9c1b5251948362da86d4c0eb26e2245bfe0b", None),
    # long sums, recorded while each run of the decay brought its own moment
    # window over a denominator: at beta = 2 the sums run up to 85 terms past
    # n, across three runs; the second is the p-adic decay that exits 1
    (1, 1, (F(5, 7),), range(1, 13), Place(), F(2),
     "f23016177a56c3b4e109d0f33480619079fe23dc6b676f553331edfded92075d",
     "695bd8003a9b487bf001889f8ebd3441109186e9fa4b0e40e3189657ee45fdbd"),
    (2, 1, (F(4), F(-3)), range(1, 7), Place(2), F(11, 4),
     "7dd0c1fabb4c605c0eb618470af488826650544d6cf659a2872f8a97c666b3dc",
     "595e4675b1c1fd865b7dc847f94a1f8e0251da11e5e4aeddf95fb7adea7d4379"),
]


def _sha(lines):
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "m, r, alphas, ns, place, beta, rows_digest, sums_digest",
    AUDIT_GOLDEN,
    ids=[f"m{g[0]}r{g[1]}-{g[4]}-beta={g[5]}" for g in AUDIT_GOLDEN],
)
def test_audit_rationals_unchanged(m, r, alphas, ns, place, beta, rows_digest, sums_digest):
    config = MplConfig(m=m, r=r, alphas=alphas)
    tables = pade_tables(config, ns)
    rows = [
        f"{n} {name} {format_pair((measured[0],), measured[1])[0]} {format_pair((bound[0],), bound[1])[0]}"
        for n in ns
        for name, measured, bound in audit_rows(config, tables[n], place, beta=beta)
    ]
    assert _sha(rows) == rows_digest
    if beta is None:
        return
    H_alpha = H_v_vec(config.alphas, place)
    H_alpha = H_alpha.numerator, H_alpha.denominator
    abs_beta = abs_v(beta, place)
    abs_beta = abs_beta.numerator, abs_beta.denominator
    sums = []
    for n in ns:
        for ell, column in enumerate(tables[n].columns):
            normp = max(abs_v(c, place) for c in poly(column).coeffs)
            normp = normp.numerator, normp.denominator
            for j, f in enumerate(tables[n].seqs):
                (num, den), last = _remainder_sum(tables[n], j, ell, normp, beta, place, r, H_alpha, abs_beta)
                sums.append(f"{n} {f.label} {ell} {format_pair((num,), den)[0]} {last}")
    assert _sha(sums) == sums_digest
