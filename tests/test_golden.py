"""Golden stdout of the orbit and search verbs: exit code and sha256 of the
exact bytes written, so a change of arithmetic kernel cannot move a single
character of the output.

The two d=1 searches differ only in the height bound: at 3 bits the search
prunes (``pruned_by_height`` true), at 4 bits it does not, which pins the
coefficient-height semantics. The digests were recorded with the earlier
Mat/QuadRat implementation of the orbit ball and the word search.
"""

import hashlib

import pytest

from picardhyb.cli import main

GOLDEN = [
    ("orbit --d 1 --max-depth 3", 0,
     "2b41737771045db8c28446fe6f11f180dc53859a8b0966beadd136675300895e"),
    ("orbit --d 3 --max-depth 3 --variant primed", 0,
     "36087e7e929c2e20d614c3498e34bcd46172132694fb386ec47cfe16bdb0ba17"),
    ("orbit --d 3 --max-depth 5", 0,
     "08bcd689eb82ae5f2b5bf1999a1111129c8db9bbae44d9d4b74b8025953fd315"),
    ("orbit --d 7 --max-depth 3", 0,
     "c8426b543dca5d1457c05141ec3982fc24cb7ccf0e0633440e68c2efdff5d123"),
    ("search --d 1 --target E1 --max-depth 10 --max-coeff-bits 3", 0,
     "c3906e688e1fbe7510cd062c94dac8ee02e45c0dc6b6d60c818dd51bcc21f591"),
    ("search --d 1 --target E1 --max-depth 10 --max-coeff-bits 4", 0,
     "ac64fb8b1dcd66f8394aaee5a8fb3f84fbd34872036f184d63c06eea493050b8"),
    ("search --d 3 --target E1 --gens hybrid --max-depth 6", 0,
     "b1494e0fcf1c909cc1b511f03a18983d965651d3ca7b19a9937410b7337134c4"),
]


@pytest.mark.parametrize("argv,code,sha", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_stdout(argv, code, sha, capsys):
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha
