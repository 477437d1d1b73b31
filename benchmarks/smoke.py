#!/usr/bin/env python3
"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root::

    python3 benchmarks/smoke.py

It runs one end-to-end run and one traced run over the tiny ``SMOKE``
invocations (``orbit --max-depth 1``, ``search --max-depth 3`` and
``verify --d 7``) with a scaled-down kernel pass, and checks that

* every metric named in ``BENCHMARK.json`` is emitted with its unit, and
  every per-invocation metric is reported;
* every output matched its recorded digest, so ``ops_failed_frac`` is 0;
* the traced workers restored every wrapped attribute, and the tracer
  patches the names re-bound by ``from ... import`` and puts them back;
* the JSON result line has exactly the keys correct, attempted, failed and
  metrics;
* compare mode reads result files.

It exits 0 and prints ``smoke ok``, or prints each problem and exits 1.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import worker

# Names bound by ``from ... import`` that the tracer must patch as well.
ALIASES = (
    ("picardhyb.cli", "canonical_rep"), ("picardhyb.cli", "boundary_action"),
    ("picardhyb.cli", "find_word"), ("picardhyb.search", "canonical_rep"),
    ("picardhyb.search", "proj_eq"), ("picardhyb.certify", "get_catalog"),
    ("picardhyb.certify", "proj_eq"), ("picardhyb.certify", "todd_coxeter"),
    ("picardhyb.certify", "reidemeister_schreier"),
    ("picardhyb.catalog", "canonical_rep"), ("picardhyb.catalog", "proj_eq"),
)


def check_tracer(problems: list[str]) -> None:
    sys.path.insert(0, str(run.SRC))
    modules = worker._import_modules()
    tracer = worker.Tracer(modules)
    tracer.install()
    try:
        for mod, name in ALIASES:
            if not getattr(getattr(modules[mod], name), worker._WRAPPER_MARK, False):
                problems.append(f"tracer left {mod}.{name} unwrapped")
        if tracer.restored():
            problems.append("restored() is true while the wrappers are installed")
    finally:
        tracer.uninstall()
    if not tracer.restored():
        problems.append("tracer did not restore every wrapped attribute")


def check_metrics(result: dict, spec_metrics: list[dict], problems: list[str]) -> None:
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    for name in sorted(want.keys() | got.keys()):
        if want.get(name) != got.get(name):
            problems.append(f"trace={result['trace']} metric {name}: emitted unit "
                            f"{got.get(name)!r}, BENCHMARK.json unit {want.get(name)!r}")
    line = run.contract_line(result)
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result line keys {sorted(line)}")
    if not line["correct"] or result["ops_failed_frac"] != 0:
        problems.append(f"trace={result['trace']}: {result['failed']} of "
                        f"{result['attempted']} operations failed")


def main() -> int:
    with open(run.BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    problems: list[str] = []
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    check_tracer(problems)

    expected = run.load_expected()
    e2e = run.measure("smoke", run.SMOKE, seed=7, seconds=1, trace=False,
                      expected=expected)
    traced = run.measure("smoke", run.SMOKE, seed=7, seconds=1, trace=True,
                         expected=expected, kernel_scale=0.05)
    check_metrics(e2e, spec["end_to_end"], problems)
    check_metrics(traced, spec["per_layer"], problems)
    if set(e2e["invocations"]) != {inv.metric for inv in run.SMOKE}:
        problems.append(f"per-invocation metrics {sorted(e2e['invocations'])}")
    if not traced["restored"]:
        problems.append("a traced worker did not restore every wrapped attribute")

    with tempfile.TemporaryDirectory(dir=run.BENCH_DIR) as tmp:
        base, new = Path(tmp) / "base.json", Path(tmp) / "new.json"
        run.append_result(base, e2e)
        run.append_result(new, e2e)
        if run.compare(base, new) != 0:
            problems.append("compare mode flags a run against itself")

    for p in problems:
        print(f"PROBLEM: {p}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
