"""End-to-end command line behavior with deterministic outputs."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import picardhyb

from picardhyb import catalog, certify, cli, cxhyp, fpgroups
from picardhyb.cli import main
from picardhyb.exactring import QuadInt, QuadRat


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
    monkeypatch.setattr(certify, "verify_reports", lambda d, max_cosets: [first, second])
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
    "lemma31_index_bound", "lemma36_relations",
    "_commutator_table_reports", "primed_d1_equality",
)


def test_verify_evaluates_each_word_once(monkeypatch, capsys):
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # the coset enumerations: the table of H(1) (both d=1 index rows read
    # it) or of H(7), and the commutator table, which two d=3 reports read
    for name in (*REPORT_FUNCTIONS, "todd_coxeter", "derived_subgroup_table"):
        monkeypatch.setattr(certify, name, counted(name, getattr(certify, name)))
    # each d's one coset table is checked once (coset_table_holds) from the
    # hybrid words parsed once (hybrid_words); the d=3 commutator table also
    # rests on Gamma(3)^ab, derived once
    facts = Counter()
    gamma3, holds, abelianization = (catalog.get_catalog(3).presentation,
                                     certify.coset_table_holds, certify.abelianization)

    def counted_holds(*args):
        facts["coset_table_holds"] += 1
        return holds(*args)

    def counted_abelianization(p):
        facts["abelianization of Gamma(3)"] += p == gamma3
        return abelianization(p)

    monkeypatch.setattr(certify, "coset_table_holds", counted_holds)
    monkeypatch.setattr(certify, "abelianization", counted_abelianization)
    hybrid_words = catalog.Catalog.hybrid_words

    def counted_hybrid_words(self):
        facts["hybrid_words"] += 1
        return hybrid_words(self)

    monkeypatch.setattr(catalog.Catalog, "hybrid_words", counted_hybrid_words)
    # each word evaluated, keyed by its text and name tuple (seen) and by its
    # signed generator names (words), which one word has however it is
    # written and over whichever name tuple
    seen, words = [], Counter()
    word_key = catalog.Catalog.word_key

    def counting(self, text, names=None):
        seen.append((self.d, text, names))
        names = tuple(self.int_env) if names is None else names
        words[tuple(names[abs(g) - 1] + ("" if g > 0 else "^-1")
                    for g in fpgroups.parse_word(text, names))] += 1
        return word_key(self, text, names)

    monkeypatch.setattr(catalog.Catalog, "word_key", counting)
    called = set()
    for d in ("1", "3", "7"):
        calls.clear()
        words.clear()
        facts.clear()
        assert run(["verify", "--d", d]) == 0
        assert calls and set(calls.values()) == {1}, (d, calls)
        assert ("derived_subgroup_table" in calls) == (d == "3")
        assert facts == Counter({"coset_table_holds": 1, "hybrid_words": 1,
                                 "abelianization of Gamma(3)": int(d == "3")}), (d, facts)
        if d == "3":
            assert calls["derived_subgroup_table"] == 1
        assert ("todd_coxeter" in calls) == (d != "3")
        called |= set(calls)
        # a generator may be read on its own by several rows; no longer word
        # is evaluated twice
        assert words and all(n == 1 for w, n in words.items() if len(w) > 1), (d, words)
    capsys.readouterr()
    assert called == {*REPORT_FUNCTIONS, "todd_coxeter", "derived_subgroup_table"}
    assert seen and len(seen) == len(set(seen))
    # the two d=3 table reports parse each COMMUTATOR_WORDS and each
    # PRIMED_D3_WORDS text once
    parsed = Counter()
    picard_word = catalog.Catalog.picard_word

    def counted_picard_word(self, text):
        parsed[text] += 1
        return picard_word(self, text)

    monkeypatch.setattr(catalog.Catalog, "picard_word", counted_picard_word)
    certify._commutator_table_reports()
    assert parsed == Counter(certify.COMMUTATOR_WORDS) + Counter(certify.PRIMED_D3_WORDS)
    assert sum(parsed.values()) == 9


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


_THEOREM_34 = {"theorem-3.4", "proposition-6.2", "proposition-6.3"}


@pytest.mark.parametrize("d, function, claims", [
    (1, "verify_word_identities", {"theorem-4.5"}),
    (1, "verify_normality", {"theorem-4.5"}),
    (7, "verify_word_identities", {"theorem-5.5"}),
    (7, "verify_normality", {"theorem-5.5"}),
    (3, "lemma31_index_bound", _THEOREM_34),
    (3, "verify_word_identities", _THEOREM_34),
    (3, "lemma36_relations", {"corollary-3.12"}),
])
def test_verify_premises_of_each_claim(d, function, claims, monkeypatch, capsys):
    # the real report of one premise gains a failing row under its own id;
    # exactly the claims resting on it fail, and every other claim passes
    real = getattr(certify, function)

    def failing(*args, **kwargs):
        report = real(*args, **kwargs)
        report.add(report.checks[0].check_id, "injected failure", False)
        return report

    monkeypatch.setattr(certify, function, failing)
    assert run(["verify", "--d", str(d)]) == 1
    captured = capsys.readouterr()
    rows = [line[2:].split(": ")[0].split(" ") for line in captured.out.splitlines()
            if line.startswith("- [")]
    status = {}
    for mark, check_id in rows:
        if check_id.startswith(("theorem-", "proposition-", "corollary-")):
            status.setdefault(check_id, set()).add(mark)
    assert claims <= set(status)
    assert status == {c: {"[FAIL]" if c in claims else "[PASS]"} for c in status}
    # stderr names the claims and the one injected row
    (injected,) = {line.split(": ")[2] for line in captured.err.splitlines()} - claims
    assert injected.startswith("lemma-")


def test_cli_holds_no_premise_table():
    # the claims and their premises are stated in certify.verify_reports;
    # cli binds no table of them and names no claim or lemma row
    tree = ast.parse(Path(cli.__file__).read_text())
    bound = {n.id for n in ast.walk(tree)
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    bound |= {n.name for n in ast.walk(tree)
              if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert "RESTS_ON" not in bound
    row_ids = [n.value for n in ast.walk(tree)
               if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.startswith(
                   ("lemma-", "theorem-", "proposition-", "corollary-", "section-"))]
    assert not row_ids


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


def test_search_cmd(tmp_path, monkeypatch):
    out = tmp_path / "search.json"
    argv = ["search", "--d", "3", "--target", "U1", "--gens", "picard",
            "--max-depth", "3", "--out", str(out)]
    assert run(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["found"] and payload["word"] == "Q^2"
    assert payload["verified"] is True
    # verified compares the key of the word, evaluated again over the
    # generators, with the target's key: another matrix turns it false
    u2 = catalog.get_catalog(3).int_env["U2"]
    monkeypatch.setattr(cli, "int_word", lambda *args: u2)
    assert run(argv) == 0
    payload = json.loads(out.read_text())
    assert payload["word"] == "Q^2" and payload["verified"] is False


def test_search_unknown_target(capsys):
    assert run(["search", "--d", "3", "--target", "nope"]) == 2


def test_classify_cmd(tmp_path):
    out = tmp_path / "c.txt"
    assert run(["classify", "--d", "3", "--element", "U1", "--out", str(out)]) == 0
    assert out.read_text().strip() == "U1: unipotent-2-step"


def test_classify_cmd_determinant_w(capsys):
    # det P = w has no unit cube root in O_3; P still classifies
    assert run(["classify", "--d", "3", "--element", "P"]) == 0
    assert capsys.readouterr().out == "P: other-boundary\n"


# a verify of every ring, both orbit variants, both search generator sets
# and classify: each reads its kernel matrices from the catalog's int_env
KERNEL_VERBS = (
    ["verify", "--d", "1"], ["verify", "--d", "3"], ["verify", "--d", "7"],
    ["orbit", "--d", "3", "--max-depth", "2"],
    ["orbit", "--d", "1", "--variant", "primed", "--max-depth", "2"],
    ["search", "--d", "1", "--target", "E1"],
    ["search", "--d", "3", "--target", "E1p", "--gens", "hybrid", "--max-depth", "4"],
    ["classify", "--d", "7", "--element", "B1"],
)


# the ring operations of QuadInt and QuadRat: +, -, *, /, negation, conj, norm
RING_OPERATIONS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                   "__truediv__", "__neg__", "conj", "norm")


def test_no_verb_converts_a_mat_after_set_up(monkeypatch, capsys):
    # in either direction, and runs no ring arithmetic: after the catalogs
    # are built, every verb computes on the integer kernel alone
    for d in (1, 3, 7):
        assert catalog.get_catalog(d).int_env

    def refuse(*args):
        raise AssertionError(f"converted between Mat and the kernel: {args}")

    def refuse_arithmetic(x, *other):
        raise AssertionError(f"ring arithmetic on {x!r}")

    for module in (cxhyp, catalog):
        monkeypatch.setattr(module, "int_mat", refuse)
        monkeypatch.setattr(module, "mat_from_int", refuse)
    for ring in (QuadInt, QuadRat):
        for name in RING_OPERATIONS:
            monkeypatch.setattr(ring, name, refuse_arithmetic, raising=False)
    for argv in KERNEL_VERBS:
        assert run(argv) == 0, argv
    capsys.readouterr()


def test_abelianize_cmd(tmp_path):
    out = tmp_path / "ab.txt"
    assert run(["abelianize", "--presentation", "picard-3",
                "--out", str(out)]) == 0
    assert out.read_text().strip() == "picard-3: Z/6"


def test_abelianize_unknown(capsys):
    assert run(["abelianize", "--presentation", "nope"]) == 2
    assert capsys.readouterr().err == ("unknown presentation 'nope'; choose from "
                                       "['picard-1', 'picard-3', 'picard-7']\n")


def test_abelianize_builds_only_the_catalog_it_prints(capsys):
    catalog.get_catalog.cache_clear()
    assert run(["abelianize", "--presentation", "picard-3"]) == 0
    assert capsys.readouterr().out == "picard-3: Z/6\n"
    assert catalog.get_catalog.cache_info().currsize == 1


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
    "",
    "prove --d 7",
    "verify --d 7 --bogus 1",
    "verify --d 7 --scope",
    "verify --d",
    "verify --d 2",
    "verify --d x",
    "verify --d 7 --format xml",
    "search --d 1",
    "search --d 1 --target E1 --max-depth two",
    "verify --d 7 --max-c 5",
])
def test_bad_input_exits_2_without_traceback(argv):
    src = str(Path(picardhyb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "picardhyb.cli", *argv.split()],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


# what each verb accepts, stated apart from cli.COMMANDS
VERB_FLAGS = {
    "verify": "--d --out --scope --format --max-cosets",
    "orbit": "--d --out --variant --max-depth",
    "search": "--d --out --target --gens --max-depth --max-coeff-bits",
    "classify": "--d --out --element",
    "abelianize": "--out --presentation",
    "dump": "--d --out",
}
LOWER_BOUNDS = {"--max-cosets": 1, "--max-depth": 0, "--max-coeff-bits": 1}
CHOICES = {"--d": (1, 3, 7), "--format": ("json", "md"),
           "--variant": ("plain", "primed"), "--gens": ("picard", "hybrid")}
REQUIRED = {"--d": "7", "--target": "E1", "--element": "A1", "--presentation": "picard-3"}
FLAGS = sorted({f for flags in VERB_FLAGS.values() for f in flags.split()} | {"--bogus"})
VALUES = ["1", "3", "7", "2", "x", "-1", "0", "12", "two", "md", "xml", "primed",
          "hybrid", "E1", "", "a=b", "--out"]


@pytest.mark.parametrize("argv, flag", [
    ("", None),
    ("prove --d 7", None),
    ("verify --d 7 --bogus 1", "--bogus"),
    ("verify --d 7 --scope", "--scope"),
    ("verify --d 2", "--d"),
    ("verify --d 7 --format xml", "--format"),
    ("search --d 1", "--target"),
    ("search --d 1 --target E1 --max-depth two", "--max-depth"),
    ("abelianize", "--presentation"),
])
def test_usage_error_is_usage_and_one_error_line(argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    verb = argv.split()[0] if argv and argv.split()[0] in VERB_FLAGS else "{"
    assert usage.startswith(f"usage: picardhyb {verb}")
    assert error.startswith("picardhyb: error: ")
    if flag:
        assert flag in error


def test_help_lists_every_verb_and_flag(capsys):
    for argv in (["--help"], ["-h"], ["verify", "--help"], ["verify", "--d", "7", "-h"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        listed = VERB_FLAGS["verify"] if argv[0] == "verify" else " ".join(VERB_FLAGS)
        assert all(f"  {word} " in captured.out for word in listed.split()), argv


def test_flag_equals_value_is_the_spaced_form(capsys):
    assert run(["classify", "--d=7", "--element=A1"]) == 0
    joined = capsys.readouterr().out
    assert run(["classify", "--d", "7", "--element", "A1"]) == 0
    assert capsys.readouterr().out == joined == "A1: loxodromic\n"


def _accepted(verb, pairs):
    """The values a line sets, or None when it must be refused."""
    allowed, given = VERB_FLAGS[verb].split(), {}
    for flag, text, spaced in pairs:
        if flag not in allowed or spaced and text.startswith("--"):
            return None
        if flag in CHOICES:
            match = [c for c in CHOICES[flag] if str(c) == text]
            if not match:
                return None
            given[flag] = match[0]
        elif flag in LOWER_BOUNDS:
            if not text.lstrip("-").isdigit() or int(text) < LOWER_BOUNDS[flag]:
                return None
            given[flag] = int(text)
        else:
            given[flag] = text
    return None if set(REQUIRED) & set(allowed) - set(given) else given


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(VERB_FLAGS)), st.booleans(), st.lists(st.tuples(
    st.sampled_from(FLAGS), st.sampled_from(VALUES), st.booleans()), max_size=5))
@example("verify", True, [("--scope", "--out", True)])
@example("search", True, [("--max-depth", "-1", False), ("--max-depth", "0", True)])
def test_parse_args_follows_the_stated_rules(verb, complete, pairs):
    # a line is refused with UsageError, or parsed to the last value of each flag
    if complete:
        pairs = [(f, v, True) for f, v in REQUIRED.items() if f in VERB_FLAGS[verb].split()] + pairs
    argv = [verb]
    for flag, text, spaced in pairs:
        argv += [flag, text] if spaced else [f"{flag}={text}"]
    expected = _accepted(verb, pairs)
    if expected is None:
        with pytest.raises(cli.UsageError):
            cli.parse_args(argv)
        return
    _func, args = cli.parse_args(argv)
    for flag, value in expected.items():
        assert getattr(args, flag[2:].replace("-", "_")) == value, argv


def test_parse_args_defaults_and_repeated_flags():
    func, args = cli.parse_args(["search", "--d", "3", "--target", "E1", "--d", "1"])
    assert func is cli.cmd_search
    assert vars(args) == {"command": "search", "d": 1, "out": None, "target": "E1",
                          "gens": "picard", "max_depth": 10, "max_coeff_bits": 512}
    _func, args = cli.parse_args(["verify", "--d", "7", "--scope=a=b"])
    assert (args.scope, args.format, args.max_cosets) == (
        "a=b", "md", fpgroups.DEFAULT_MAX_COSETS)
    _func, args = cli.parse_args(["orbit", "--d", "3"])
    assert (args.variant, args.max_depth) == ("plain", 2)


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


# every verb on small arguments, for the start-up import check
START_UP_RUNS = (
    ["verify", "--d", "1"], ["verify", "--d", "3"], ["verify", "--d", "7"],
    ["orbit", "--d", "3", "--max-depth", "2"], ["orbit", "--d", "1", "--variant", "primed"],
    ["search", "--d", "1", "--target", "E1"], ["classify", "--d", "3", "--element", "P"],
    ["dump", "--d", "7"], ["abelianize", "--presentation", "picard-3"],
)
# modules whose import dominated set-up and parse time: argparse, gettext and
# locale (the parser), dataclasses and inspect (records), typing (NamedTuple
# records) and fractions, which loads decimal and numbers
START_UP_FREE = ("argparse", "gettext", "locale", "dataclasses", "inspect",
                 "typing", "fractions", "decimal", "numbers")


def test_import_needs_no_dataclasses_or_inspect():
    # importing the CLI and running every verb stay clear of START_UP_FREE;
    # -I -S keeps the interpreter's site packages from importing them first
    src = str(Path(picardhyb.__file__).resolve().parents[1])
    code = ("import io, sys; sys.path.insert(0, sys.argv[1]); import picardhyb.cli; "
            "out, sys.stdout = sys.stdout, io.StringIO(); "
            f"codes = [picardhyb.cli.main(a) for a in {START_UP_RUNS!r}]; "
            "report, sys.stdout = sys.stdout.getvalue(), out; "
            "print(codes, report.count('[PASS] theorem-'), "
            f"sorted(set({START_UP_FREE!r}) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{[0] * len(START_UP_RUNS)} 3 []\n"


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
