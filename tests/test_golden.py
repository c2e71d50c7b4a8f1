"""Golden stdout: exact-only CLI jobs must keep printing the same bytes.

Each entry is (argv, exit code, sha256 of stdout).  The hashes were recorded
from the program before the table columns moved from the composed operator
R_n* to the Rodrigues derivative chain, so a change to any printed digit,
key order or line of these jobs fails here.  Only exact payloads are listed:
`audit` and `criterion` print floats whose last digit may differ with the
platform's `log`.
"""

from __future__ import annotations

import hashlib

import pytest

from rodpade.cli import main

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
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_stdout_bytes_unchanged(capsys, argv, code, digest):
    assert main(list(argv)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
