"""Golden stdout of all six verbs: exit code and the exact bytes written,
so a change of arithmetic kernel or word evaluator cannot move a single
character of the output.

The small outputs (verify, dump, classify and abelianize, each under
8 KB) are stored as text in tests/golden/ and compared as text, so a
moved byte shows as a diff. The orbit and search outputs (up to 150 KB)
are pinned by the sha256 of their bytes. GOLDEN keeps a digest for every
output, and test_golden_files_hold_the_recorded_digests holds each text
file to it, so a file cannot drift from the output it was recorded from.

A deliberate change of the verify output has one procedure: update the
text file and its digest in GOLDEN, re-record benchmarks/expected.json
(which pins the verify digests) with ``benchmarks/run.py
--record-expected`` in a change that may touch benchmarks/, and show the
diff of the text file in CHANGES.md.

The two d=1 searches differ only in the height bound: at 3 bits the search
prunes (``pruned_by_height`` true), at 4 bits it does not, which pins the
coefficient-height semantics. The orbit and search digests were recorded
with the earlier Mat/QuadRat implementation of the orbit ball and the word
search; the verify, dump, classify and abelianize digests with the separate
per-module word evaluators that preceded ``fpgroups.eval_word``. The d=7
depth-5 and d=1 primed orbits were recorded with the integer kernel's
plain ball, before it skipped the products it knows are repeats. The
depth-0 and depth-2 orbits were recorded while orbit still multiplied out
the last sphere of its ball and formatted each row through BoundaryPoint.
The orbit digests must also hold when the CSV is written in blocks of
other sizes than cli.ROW_BLOCK.
"""

import hashlib
from pathlib import Path

import pytest

from picardhyb import cli
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
    ("orbit --d 7 --max-depth 5", 0,
     "b3aac6429cd8e0935a96641448ef96e12792781f11a663fa1af2eb0c1c152f56"),
    ("orbit --d 1 --max-depth 4 --variant primed", 0,
     "39ff411684a6f5f1a74c28be205351e54f0e52f0bb4c1b72304790c6418dfa77"),
    # edge cases of the last sphere: depth 0 has none, and both points at
    # infinity of d=7 at depth 2 come from it
    ("orbit --d 7 --max-depth 0", 0,
     "411493f8bcafd877cad3b0d87fabfa106365645418f64e0a4b5a6acfcefe6cfc"),
    ("orbit --d 7 --max-depth 2", 0,
     "17fff481b9223c39a0f460788b96700179d4b8577cff8a55f1aa785834f42be3"),
    ("orbit --d 1 --max-depth 2", 0,
     "962d5102d8083cdb1ce16ad5928c28a34f2962033e111b614f75539fef41e698"),
    ("search --d 1 --target E1 --max-depth 10 --max-coeff-bits 3", 0,
     "c3906e688e1fbe7510cd062c94dac8ee02e45c0dc6b6d60c818dd51bcc21f591"),
    ("search --d 1 --target E1 --max-depth 10 --max-coeff-bits 4", 0,
     "ac64fb8b1dcd66f8394aaee5a8fb3f84fbd34872036f184d63c06eea493050b8"),
    ("search --d 3 --target E1 --gens hybrid --max-depth 6", 0,
     "b1494e0fcf1c909cc1b511f03a18983d965651d3ca7b19a9937410b7337134c4"),
    ("verify --d 1", 0,
     "ca651c2ee6b4957a08a95a89ed5d9a79c02e5027dcbb7334b4c3b8a79a9e5766"),
    ("verify --d 3", 0,
     "02c181551fff8acbe73498a7ba1fb3cd015ba916286a8abe20933e531c2dd680"),
    ("verify --d 7", 0,
     "986cd1daa3643a8ab2f0f58ee806891cefa59e90a83b29ac6b200d780a53778a"),
    ("verify --d 1 --format json", 0,
     "a2bca6142639e86aee7445c90d980d8fac955b97f0ba75c15ea312433f65a7be"),
    # the d=3 file holds the theorem-3.4 witness, the image of a^3 b
    ("verify --d 3 --format json", 0,
     "fbbdd18948c583d6925121337776dce9fbaf88f25390825ec38e0474e54d523d"),
    ("verify --d 7 --format json", 0,
     "3403d8995e9bc8b33d730ed2301143efff061b9a46af5f004aa2bf7691e18b96"),
    ("dump --d 1", 0,
     "54a66d7bfd45ecb206c415bae7a0354d4b841b8d7d884688c0084a922567a73d"),
    ("dump --d 3", 0,
     "ec7718e050f25ea421315bd610a58b0f2d6bbb08df6618ce2a0a6b51c78ddfea"),
    ("dump --d 7", 0,
     "f10957a25f81b3a682c347029d667a0599a6c74dce049efcfe0b2cfb76f05b7f"),
    ("classify --d 7 --element A1", 0,
     "d1e42f791b16244904794bbfa5f502e75bf1a9f15dbd01fa34420726b5d8244c"),
    # det P = w: decided from the characteristic polynomial, with no cube root
    ("classify --d 3 --element P", 0,
     "1a2171e82adb0f178c105fc886e02c02096e089796407be3de4b2f3e1f8ef709"),
    ("classify --d 7 --element B1", 0,
     "363a27468751be8b88470b202942a51a7ac4b994a7ef88e3011f293722765aa7"),
    # picard-1 is the one ring with two invariant factors
    ("abelianize --presentation picard-1", 0,
     "6750d0361a2e16cb775a00bf474fe71fcf5e5d7bca676d7c86f48d950afbbd5f"),
    ("abelianize --presentation picard-3", 0,
     "ff5ee7b0717bcc0e7d6c2a95d6b1aa94573881fff8d395cf523ca190f9f850ab"),
    ("abelianize --presentation picard-7", 0,
     "444b5dda6de229be8f0741e5984efbe4369cf5c3fd425e6a96dd6ccf4f89f64c"),
]


GOLDEN_DIR = Path(__file__).parent / "golden"
# argv -> the file in GOLDEN_DIR that holds its exact stdout
GOLDEN_FILES = {
    "verify --d 1": "verify-d1.txt",
    "verify --d 3": "verify-d3.txt",
    "verify --d 7": "verify-d7.txt",
    "verify --d 1 --format json": "verify-d1-json.txt",
    "verify --d 3 --format json": "verify-d3-json.txt",
    "verify --d 7 --format json": "verify-d7-json.txt",
    "dump --d 1": "dump-d1.txt",
    "dump --d 3": "dump-d3.txt",
    "dump --d 7": "dump-d7.txt",
    "classify --d 7 --element A1": "classify-d7-A1.txt",
    "classify --d 3 --element P": "classify-d3-P.txt",
    "classify --d 7 --element B1": "classify-d7-B1.txt",
    "abelianize --presentation picard-1": "abelianize-picard-1.txt",
    "abelianize --presentation picard-3": "abelianize-picard-3.txt",
    "abelianize --presentation picard-7": "abelianize-picard-7.txt",
}


def _golden_text(argv: str) -> str:
    return (GOLDEN_DIR / GOLDEN_FILES[argv]).read_bytes().decode()


@pytest.mark.parametrize("argv,code,sha", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_stdout(argv, code, sha, capsys):
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    if argv in GOLDEN_FILES:
        assert out == _golden_text(argv)
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == sha


def test_golden_files_hold_the_recorded_digests():
    digests = {argv: sha for argv, _code, sha in GOLDEN}
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(GOLDEN_FILES.values())
    for argv in GOLDEN_FILES:
        assert hashlib.sha256(_golden_text(argv).encode()).hexdigest() == digests[argv], argv


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("argv,code,sha", [g for g in GOLDEN if g[0].startswith("orbit")],
                         ids=[g[0] for g in GOLDEN if g[0].startswith("orbit")])
def test_orbit_stdout_is_independent_of_the_row_block(argv, code, sha, block, capsys,
                                                      monkeypatch):
    monkeypatch.setattr(cli, "ROW_BLOCK", block)
    test_golden_stdout(argv, code, sha, capsys)
