"""End-to-end command line behavior with deterministic outputs."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import picardhyb

from picardhyb import catalog, certify, cli, fpgroups
from picardhyb.cli import main


def run(args):
    return main(args)


def test_verify_md(tmp_path, capsys):
    out = tmp_path / "report.md"
    assert run(["verify", "--d", "7", "--out", str(out)]) == 0
    text = out.read_text()
    assert "[PASS]" in text and "[FAIL]" not in text
    assert "theorem-5.5" in text


def test_verify_json_schema(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "--d", "1", "--format", "json", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert isinstance(payload, list)
    for report in payload:
        assert set(report) >= {"title", "passed", "checks"}
        for check in report["checks"]:
            assert set(check) >= {"check_id", "description", "passed"}


def test_verify_scope_filter(tmp_path, capsys):
    out = tmp_path / "scoped.md"
    assert run(["verify", "--d", "3", "--scope", "lemma-3.6",
                "--out", str(out)]) == 0
    text = out.read_text()
    assert "lemma-3.6" in text and "lemma-3.3" not in text


def test_verify_reports_every_failure(monkeypatch, capsys):
    first = certify.Report("fake one")
    first.add("check-a", "first failing check", False)
    first.add("check-ok", "passing check", True)
    second = certify.Report("fake two")
    second.add("check-b", "second failing check", False)
    monkeypatch.setattr(cli, "_reports_for", lambda d, max_cosets: [first, second])
    assert run(["verify", "--d", "3"]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] check-a" in captured.out and "[FAIL] check-b" in captured.out
    assert captured.err.splitlines() == [
        "FAILED: fake one: check-a: first failing check",
        "FAILED: fake two: check-b: second failing check",
    ]


@pytest.mark.parametrize("d", ["1", "7"])
def test_verify_coset_cap_is_a_failed_row(d, capsys):
    assert run(["verify", "--d", d, "--max-cosets", "1"]) == 1
    captured = capsys.readouterr()
    theorem = {"1": "theorem-4.5", "7": "theorem-5.5"}[d]
    assert f"- [FAIL] {theorem}: " in captured.out
    assert "overflowed the cap of 1 cosets" in captured.out
    # the checks the cap does not touch are still reported
    assert "[PASS] lemma-" in captured.out and "## normality" in captured.out
    failed = captured.err.splitlines()
    assert failed and all(line.startswith("FAILED: ") for line in failed)
    assert any(theorem in line for line in failed)
    if d == "1":
        assert any("primed hybrid d=1: corollary-4.6" in line for line in failed)


# the certify functions verify calls, each at most once per run
REPORT_FUNCTIONS = (
    "verify_word_identities", "verify_normality", "index_report",
    "verify_tietze_substitution", "lemma31_index_bound", "lemma36_relations",
    "hybrid_abelianization_bounds", "primed_d3_closure", "primed_d1_equality",
)


def test_verify_evaluates_each_word_once(monkeypatch, capsys):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in REPORT_FUNCTIONS:
        monkeypatch.setattr(certify, name, counted(name, getattr(certify, name)))
    seen = []
    word_key = catalog.Catalog.word_key

    def counting(self, text, names=None):
        seen.append((self.d, text, names))
        return word_key(self, text, names)

    monkeypatch.setattr(catalog.Catalog, "word_key", counting)
    called = set()
    for d in ("1", "3", "7"):
        calls.clear()
        assert run(["verify", "--d", d]) == 0
        assert calls and set(calls.values()) == {1}, (d, calls)
        called |= set(calls)
    capsys.readouterr()
    assert called == set(REPORT_FUNCTIONS)
    assert seen and len(seen) == len(set(seen))


def test_verify_failed_premise_fails_its_claims(monkeypatch, capsys):
    real = catalog.get_catalog(3)
    idents = real.conjugation_identities
    assert idents[-1].lhs == "R^-1 E1 R"
    # E1 has order 3, so R^-1 E1 R = E1^-1 is not E1
    corrupted = real._replace(conjugation_identities=idents[:-1] + (
        idents[-1]._replace(rhs="E1"),))
    monkeypatch.setattr(certify, "get_catalog",
                        lambda d: corrupted if d == 3 else catalog.get_catalog(d))
    assert run(["verify", "--d", "3"]) == 1
    captured = capsys.readouterr()
    out = captured.out
    for title in ("word identities d=3", "normality d=3", "index d=3",
                  "index bound [H(3):H~(3)] | 4", "relations among E1, U1, U2",
                  "abelianization bounds d=3", "primed hybrid d=3",
                  "corrected readings d=3"):
        assert f"## {title}\n" in out
    assert "- [FAIL] lemma-3.3: R^-1 E1 R = E1\n" in out
    for claim in ("theorem-3.4", "proposition-6.2", "proposition-6.3"):
        assert f"- [FAIL] {claim}: " in out and f"- [PASS] {claim}: " not in out
    # rows that do not rest on normality still pass
    assert "- [PASS] corollary-3.12: " in out and "- [PASS] lemma-3.6: " in out
    failed = captured.err.splitlines()
    assert all(line.startswith("FAILED: ") for line in failed)
    assert {line.split(": ")[2] for line in failed} == {
        "lemma-3.3", "theorem-3.4", "proposition-6.2", "proposition-6.3"}
    assert "certification failure" not in captured.out + captured.err


def test_verify_wrong_index_is_a_failed_row(monkeypatch, capsys):
    index_two = fpgroups.todd_coxeter(catalog.get_catalog(1).quotient_presentation())
    assert index_two.index == 2
    monkeypatch.setattr(certify, "todd_coxeter", lambda *args, **kwargs: index_two)
    assert run(["verify", "--d", "7"]) == 1
    captured = capsys.readouterr()
    assert ("- [FAIL] theorem-5.5: quotient PU(2,1,O_7)/H(7) has order 2, "
            "expected 1 (complete coset table, 2 cosets)\n") in captured.out
    assert "## normality d=7" in captured.out
    assert captured.err.splitlines() == [
        "FAILED: index d=7: theorem-5.5: quotient PU(2,1,O_7)/H(7) has order 2, expected 1"]


def test_every_premise_is_a_row():
    # a mistyped premise would fail its claim in every run, and a mistyped
    # claim would never be held to its premises
    rows = {d: {c.check_id for r in cli._reports_for(d, 10**6) for c in r.checks}
            for d in (1, 3, 7)}
    for claim, premises in cli.RESTS_ON.items():
        assert any(claim in ids and set(premises) <= ids for ids in rows.values()), claim


def test_verify_unknown_scope(capsys):
    assert run(["verify", "--d", "3", "--scope", "lemma-999"]) == 2


def test_verify_is_deterministic(tmp_path):
    a = tmp_path / "a.md"
    b = tmp_path / "b.md"
    run(["verify", "--d", "1", "--out", str(a)])
    run(["verify", "--d", "1", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_orbit_csv(tmp_path):
    out = tmp_path / "orbit.csv"
    assert run(["orbit", "--d", "3", "--max-depth", "1", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "re_z,im_z,t"
    assert lines[-1].startswith("# points_at_infinity=")
    body = lines[1:-1]
    assert len(body) >= 4
    # the vertical translation by 2*sqrt(3) appears at depth 1
    assert any(abs(float(row.split(",")[2]) - 3.46410161513775) < 1e-9
               for row in body)


def test_orbit_grows_with_depth(tmp_path):
    sizes = []
    for depth in (1, 2):
        out = tmp_path / f"o{depth}.csv"
        run(["orbit", "--d", "3", "--max-depth", str(depth), "--out", str(out)])
        sizes.append(len(out.read_text().strip().splitlines()) - 2)
    assert sizes[0] < sizes[1]


def test_search_cmd(tmp_path):
    out = tmp_path / "search.json"
    assert run(["search", "--d", "3", "--target", "U1", "--gens", "picard",
                "--max-depth", "3", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["found"] and payload["word"] == "Q^2"
    assert payload["verified"] is True


def test_search_unknown_target(capsys):
    assert run(["search", "--d", "3", "--target", "nope"]) == 2


def test_classify_cmd(tmp_path):
    out = tmp_path / "c.txt"
    assert run(["classify", "--d", "3", "--element", "U1", "--out", str(out)]) == 0
    assert out.read_text().strip() == "U1: unipotent-2-step"


def test_abelianize_cmd(tmp_path):
    out = tmp_path / "ab.txt"
    assert run(["abelianize", "--presentation", "picard-3",
                "--out", str(out)]) == 0
    assert out.read_text().strip() == "picard-3: Z/6"


def test_abelianize_unknown(capsys):
    assert run(["abelianize", "--presentation", "nope"]) == 2


def test_dump_cmd(tmp_path):
    out = tmp_path / "dump.txt"
    assert run(["dump", "--d", "1", "--out", str(out)]) == 0
    text = out.read_text()
    assert "# catalog d=1" in text
    assert "E1 =" in text and "## presentation relators" in text
    assert "corrected readings" in text


@pytest.mark.parametrize("argv", [
    "orbit --d 7 --variant primed",
    "orbit --d 3 --max-depth -1",
    "search --d 1 --target E1 --max-depth -1",
    "search --d 1 --target E1 --max-coeff-bits 0",
    "verify --d 1 --max-cosets 0",
    "dump --d 7 --out /nonexistent/x",
    "verify --d 7 --out /nonexistent/x",
    "orbit --d 3 --out .",
])
def test_bad_input_exits_2_without_traceback(argv):
    src = str(Path(picardhyb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "picardhyb.cli", *argv.split()],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, reason", [
    ("dump --d 7 --out /nonexistent/x", "No such file or directory"),
    ("orbit --d 3 --out .", "Is a directory"),
])
def test_unwritable_out_is_one_error_line(argv, reason, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    path = argv.split()[-1]
    assert capsys.readouterr().err == f"error: cannot write {path}: {reason}\n"


def test_import_needs_no_dataclasses_or_inspect():
    # importing the CLI and building every catalog stays clear of the
    # dataclasses and inspect modules, whose import dominated set-up time
    src = str(Path(picardhyb.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import picardhyb.cli; "
            "from picardhyb.catalog import get_catalog; "
            "[get_catalog(d) for d in (1, 3, 7)]; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
