"""End-to-end command line behavior with deterministic outputs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import picardhyb

from picardhyb import certify, cli
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
])
def test_bad_input_exits_2_without_traceback(argv):
    src = str(Path(picardhyb.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "picardhyb.cli", *argv.split()],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])
