#!/usr/bin/env python3
"""Benchmark of the ``picardhyb`` command line, end to end and per layer.

Run from the repository root::

    python3 benchmarks/run.py --workload verify --seed 1 --seconds 40 --trace 0
    python3 benchmarks/run.py --workload all                 # every workload
    python3 benchmarks/run.py --workload orbit --trace 1 --out BENCH.json
    python3 benchmarks/run.py --compare BASE.json NEW.json
    python3 benchmarks/run.py --record-expected

Load shape: one client in a closed loop. The harness starts one worker
interpreter per CLI invocation, waits for it, then starts the next; it
uses no threads. Each worker (``worker.py``) imports ``picardhyb`` from
``src/``, builds the catalogs its invocation needs, runs ``cli.main`` and
reports its timings, its max RSS and a digest of its stdout. A pass runs
every invocation of the workload once, in an order drawn from the seed;
passes repeat until the next one would end after ``--seconds``.

With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``. With ``--trace 1`` it runs the kernel pass
(``kernel.py``, seeded inputs), then alternates untraced and traced passes
and reports the per-layer metrics. The last line of stdout is the JSON
result; the lines above it are the full report, with every per-invocation
metric by name. ``--out`` appends the full report to a result file, which
``--compare`` reads.

The harness imports nothing from ``picardhyb`` and needs only the standard
library.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKER = BENCH_DIR / "worker.py"
EXPECTED = BENCH_DIR / "expected.json"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

LOAD_SHAPE = "1 client, closed loop, sequential worker subprocesses, no threads"
WORKER_TIMEOUT_S = 120
SETUP_PROBES = 5       # set-up-only workers per invocation in a --trace 0 run


@dataclass(frozen=True)
class Invocation:
    metric: str                  # per-invocation metric name
    argv: tuple[str, ...]

    @property
    def d(self) -> int:
        return int(self.argv[self.argv.index("--d") + 1])

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _inv(metric: str, text: str) -> Invocation:
    return Invocation(metric, tuple(text.split()))


# Why each workload: see "workloads" in BENCHMARK.json.
WORKLOADS: dict[str, tuple[Invocation, ...]] = {
    "verify": (
        _inv("verify_d1_s", "verify --d 1"),
        _inv("verify_d3_s", "verify --d 3"),
        _inv("verify_d7_s", "verify --d 7"),
    ),
    "orbit": (
        _inv("orbit_d3_L4_s", "orbit --d 3 --max-depth 4"),
        _inv("orbit_d7_L4_s", "orbit --d 7 --max-depth 4"),
    ),
    "search": (
        _inv("search_d1_E1_s", "search --d 1 --target E1 --max-depth 12"),
        _inv("search_d3_E1_s", "search --d 3 --target E1 --max-depth 12"),
    ),
}

# Tiny invocations for the harness's own smoke test (smoke.py).
SMOKE: tuple[Invocation, ...] = (
    _inv("orbit_d3_L1_s", "orbit --d 3 --max-depth 1"),
    _inv("search_d1_E1_L3_s", "search --d 1 --target E1 --max-depth 3"),
    _inv("verify_d7_s", "verify --d 7"),
)

INVOCATION_METRICS = {inv.metric for invs in (*WORKLOADS.values(), SMOKE) for inv in invs}

LAYERS = ("cli", "certify", "catalog", "fpgroups", "search", "cxhyp")


def _per_layer_units() -> dict[str, str]:
    units = {"exactring.quadint_mul_ns": "ns", "exactring.quadrat_div_us": "us"}
    for d in (1, 3, 7):
        units[f"cxhyp.mat_mul_us.d{d}"] = "us"
        units[f"cxhyp.canonical_rep_us.d{d}"] = "us"
        units[f"cxhyp.mat_inverse_us.d{d}"] = "us"
    for d in (3, 7):
        units[f"cxhyp.boundary_action_us.d{d}"] = "us"
    for d in (1, 3, 7):
        units[f"catalog.build_s.d{d}"] = "s"
    units.update({
        "fpgroups.todd_coxeter_d3_overflow_s": "s",
        "fpgroups.todd_coxeter_d1_s": "s",
        "fpgroups.smith_normal_form_us": "us",
        "fpgroups.reidemeister_schreier_us": "us",
    })
    for d in (1, 3, 7):
        units[f"certify.verify_normality_s.d{d}"] = "s"
        units[f"certify.index_report_s.d{d}"] = "s"
    units["certify.hybrid_abelianization_bounds_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    for name in ("cxhyp.mat_mul.calls", "cxhyp.inverse.calls",
                 "cxhyp.canonical_rep.calls", "cxhyp.boundary_action.calls",
                 "certify.verify_normality.calls",
                 "certify.verify_word_identities.calls",
                 "fpgroups.todd_coxeter.cosets", "fpgroups.todd_coxeter.overflows"):
        units[name] = "count"
    units["orbit.points_per_key"] = "ratio"
    units["search.keys_per_find"] = "ratio"
    units["trace_overhead_frac"] = "frac"
    return units


PER_LAYER_UNITS = _per_layer_units()

# traced count metric -> (entry point key in worker.ENTRY_POINTS, stat field)
TRACE_COUNTS = {
    "cxhyp.mat_mul.calls": ("cxhyp.Mat.__mul__", "calls"),
    "cxhyp.inverse.calls": ("cxhyp.Mat.inverse", "calls"),
    "cxhyp.canonical_rep.calls": ("cxhyp.canonical_rep", "calls"),
    "cxhyp.boundary_action.calls": ("cxhyp.boundary_action", "calls"),
    "certify.verify_normality.calls": ("certify.verify_normality", "calls"),
    "certify.verify_word_identities.calls": ("certify.verify_word_identities", "calls"),
    "fpgroups.todd_coxeter.cosets": ("fpgroups.todd_coxeter", "cosets"),
    "fpgroups.todd_coxeter.overflows": ("fpgroups.todd_coxeter", "overflows"),
}


class HarnessError(RuntimeError):
    """The program could not be run at all; no result is printed."""


# -- statistics ---------------------------------------------------------------

def summary(values: list[float], unit: str) -> dict:
    """Median with quartiles and sample count."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"value": med, "q1": q1, "q3": q3, "n": len(values), "unit": unit,
            "samples": values}


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else 0.0


# -- workers ------------------------------------------------------------------

def run_worker(job: dict) -> tuple[dict, float]:
    """Run one job in a fresh interpreter; return its result and wall time."""
    job = dict(job, src=str(SRC))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-I", str(WORKER), json.dumps(job)],
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {WORKER_TIMEOUT_S} s"}, WORKER_TIMEOUT_S
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"error": f"worker exited {proc.returncode} without a result"}
    if "error" in out:
        sys.stderr.write(proc.stderr)
    return out, wall


def load_expected() -> dict:
    with open(EXPECTED) as fh:
        return json.load(fh)


def output_ok(inv: Invocation, out: dict, expected: dict) -> bool:
    """Exit code, byte count and sha256 of stdout match the recorded ones."""
    want = expected.get(inv.key)
    return (want is not None and "error" not in out
            and out.get("restored", True)
            and all(out.get(k) == want[k] for k in ("exit", "bytes", "sha256")))


def probe(inv: Invocation) -> dict:
    """A set-up-only worker for inv; raises HarnessError if it cannot run."""
    out, _wall = run_worker({"mode": "invoke", "argv": None, "ds": [inv.d]})
    if "error" in out:
        raise HarnessError(out["error"])
    return out


@dataclass
class Call:
    inv: Invocation
    out: dict
    wall_s: float
    ok: bool


def run_pass(invs, traced: bool, expected: dict) -> list[Call]:
    calls = []
    for inv in invs:
        out, wall = run_worker({"mode": "invoke", "argv": list(inv.argv),
                                "ds": [inv.d], "trace": traced})
        ok = output_ok(inv, out, expected)
        if not ok:
            print(f"# FAILED: {inv.key}: {out.get('error') or _mismatch(inv, out, expected)}",
                  file=sys.stderr)
        calls.append(Call(inv, out, wall, ok))
    return calls


def _mismatch(inv: Invocation, out: dict, expected: dict) -> str:
    want = expected.get(inv.key, {})
    got = {k: out.get(k) for k in ("exit", "bytes", "sha256", "restored")}
    return f"got {got}, expected {want}"


# -- the two kinds of run ------------------------------------------------------

def _loop(invs, seconds: float, rng: random.Random, deadline_start: float, body):
    """Call body(order) until the next call would end past the deadline."""
    deadline = deadline_start + seconds
    results = []
    while True:
        t0 = time.perf_counter()
        order = list(invs)
        rng.shuffle(order)
        results.append(body(order))
        step = time.perf_counter() - t0
        if time.perf_counter() + step > deadline:
            return results


def end_to_end_run(invs, seed: int, seconds: float, expected: dict) -> dict:
    rng = random.Random(seed)
    start = time.perf_counter()
    probe(invs[0])                                   # warm-up, not counted
    setup = {inv: [probe(inv)["setup_s"] for _ in range(SETUP_PROBES)] for inv in invs}
    passes = _loop(invs, seconds - (time.perf_counter() - start), rng,
                   time.perf_counter(), lambda order: run_pass(order, False, expected))
    calls = [c for p in passes for c in p]
    good = [c for c in calls if "error" not in c.out]
    for c in good:
        setup[c.inv].append(c.out["setup_s"])
    # k-th set-up of every invocation summed: the set-up of one pass
    nset = min(len(v) for v in setup.values())
    setup_samples = [sum(setup[inv][k] for inv in invs) for k in range(nset)]
    metrics = {
        "setup_s": summary(setup_samples, "s"),
        "pass_s": summary([sum(c.wall_s for c in p) for p in passes], "s"),
        "main_s": summary([sum(c.out.get("main_s", 0.0) for c in p) for p in passes], "s"),
        "peak_rss_mb": summary([max(c.out["max_rss_kb"] for c in good) / 1024.0]
                               if good else [0.0], "MB"),
    }
    invocations = {inv.metric: summary([c.out.get("main_s", 0.0) for c in calls
                                        if c.inv == inv], "s") for inv in invs}
    failed = sum(not c.ok for c in calls)
    return {"metrics": metrics, "invocations": invocations, "attempted": len(calls),
            "failed": failed, "ops_failed_frac": failed / len(calls) if calls else 1.0}


def _trace_metrics(calls: list[Call]) -> dict[str, float]:
    """Per-layer figures of one traced pass, summed over its invocations."""
    total: dict[str, dict[str, float]] = {}
    for c in calls:
        for key, st in c.out.get("trace", {}).items():
            acc = total.setdefault(key, {})
            for field, v in st.items():
                acc[field] = acc.get(field, 0) + v
    out = {f"{layer}.self_s": sum(st["self_s"] for key, st in total.items()
                                  if key.split(".")[0] == layer)
           for layer in LAYERS}
    for name, (key, field) in TRACE_COUNTS.items():
        out[name] = total.get(key, {}).get(field, 0)
    keys = total.get("cxhyp.canonical_rep", {})
    points = sum(c.out.get("csv_points", 0) for c in calls)
    out["orbit.points_per_key"] = points / keys["calls"] if points else 0.0
    finds = total.get("search.find_word", {}).get("calls", 0)
    out["search.keys_per_find"] = keys.get("calls_in_find", 0) / finds if finds else 0.0
    return out


def traced_run(invs, seed: int, seconds: float, expected: dict,
               kernel_scale: float = 1.0) -> dict:
    rng = random.Random(seed)
    start = time.perf_counter()
    probe(invs[0])                                   # warm-up, not counted
    kernel, _wall = run_worker({"mode": "kernel", "seed": seed, "scale": kernel_scale})
    kernel_ok = "error" not in kernel and not kernel.get("failed_checks")
    if not kernel_ok:
        print(f"# FAILED: kernel pass: {kernel.get('error') or kernel.get('failed_checks')}",
              file=sys.stderr)

    def pair(order):
        return run_pass(order, False, expected), run_pass(order, True, expected)

    pairs = _loop(invs, seconds - (time.perf_counter() - start), rng,
                  time.perf_counter(), pair)
    untraced = [sum(c.wall_s for c in p) for p, _t in pairs]
    traced = [sum(c.wall_s for c in t) for _p, t in pairs]
    per_pass = [_trace_metrics(t) for _p, t in pairs]
    metrics = {}
    for name, unit in PER_LAYER_UNITS.items():
        if name in kernel.get("metrics", {}):
            metrics[name] = summary([kernel["metrics"][name]], unit)
        elif per_pass and name in per_pass[0]:
            metrics[name] = summary([m[name] for m in per_pass], unit)
    metrics["trace_overhead_frac"] = summary(
        [statistics.median(traced) / statistics.median(untraced) - 1.0], "frac")
    calls = [c for p, t in pairs for c in p + t]
    failed = sum(not c.ok for c in calls) + (not kernel_ok)
    attempted = len(calls) + 1
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "ops_failed_frac": failed / attempted,
            "restored": all(c.out.get("restored", False) for _p, t in pairs for c in t),
            "kernel_inputs": kernel.get("inputs")}


# -- metadata, reports, result files --------------------------------------------

def metadata() -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True,
                                 timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {"python": platform.python_version(), "git_sha": sha,
            "nproc": len(os.sched_getaffinity(0)), "src_lines": src_lines,
            "load_shape": LOAD_SHAPE, "platform": platform.platform()}


def measure(workload: str, invs, seed: int, seconds: float, trace: bool,
            expected: dict, kernel_scale: float = 1.0) -> dict:
    if trace:
        result = traced_run(invs, seed, seconds, expected, kernel_scale)
    else:
        result = end_to_end_run(invs, seed, seconds, expected)
    result.update(workload=workload, seed=seed, seconds=seconds, trace=int(trace),
                  argv=[inv.key for inv in invs], meta=metadata())
    return result


def print_report(result: dict) -> None:
    meta = result["meta"]
    print(f"# workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print(f"# python={meta['python']} git={meta['git_sha']} nproc={meta['nproc']} "
          f"src_lines={meta['src_lines']} load={meta['load_shape']}")
    rows = dict(result["metrics"])
    rows.update(result.get("invocations", {}))
    for name, m in rows.items():
        print(f"{result['workload']:8s} {name:42s} {m['value']:14.6g} {m['unit']:6s}"
              f" q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}")
    print(f"{result['workload']:8s} {'ops_failed_frac':42s} "
          f"{result['ops_failed_frac']:14.6g} {'frac':6s} "
          f"failed={result['failed']} attempted={result['attempted']}")


def contract_line(result: dict) -> dict:
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                        for name, m in result["metrics"].items()}}


def append_result(path: Path, result: dict) -> None:
    runs = []
    if path.exists():
        with open(path) as fh:
            runs = json.load(fh)["runs"]
    runs.append(result)
    with open(path, "w") as fh:          # one run per line
        fh.write('{"runs": [\n' + ",\n".join(json.dumps(r) for r in runs) + "\n]}\n")


# -- compare mode -------------------------------------------------------------------

def _bounds() -> dict[str, float]:
    with open(BENCHMARK_JSON) as fh:
        spec = json.load(fh)
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def _values(runs: list[dict], workload: str, trace: int) -> dict[str, list[float]]:
    """Per metric: one median per run, or the samples of a single run."""
    sel = [{**r["metrics"], **r.get("invocations", {})} for r in runs
           if r["workload"] == workload and r["trace"] == trace]
    if len(sel) == 1:
        return {name: m["samples"] for name, m in sel[0].items()}
    return {name: [r[name]["value"] for r in sel if name in r] for name in sel[0]}


def compare(base_path: Path, new_path: Path) -> int:
    with open(base_path) as fh:
        base_runs = json.load(fh)["runs"]
    with open(new_path) as fh:
        new_runs = json.load(fh)["runs"]
    bounds = _bounds()
    keys = sorted({(r["workload"], r["trace"]) for r in base_runs}
                  & {(r["workload"], r["trace"]) for r in new_runs})
    print(f"{'workload':8s} {'metric':42s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'bound':>6s}  verdict")
    regressions = 0
    for workload, trace in keys:
        base = _values(base_runs, workload, trace)
        new = _values(new_runs, workload, trace)
        for name in base:
            if name not in new:
                continue
            b, n = statistics.median(base[name]), statistics.median(new[name])
            ratio = n / b if b else float("nan")
            # per-invocation times share the bound of main_s, their sum
            bound = bounds["main_s"] if name in INVOCATION_METRICS else bounds.get(name)
            if bound is None:
                verdict = "(no bound)"
            elif max(spread(base[name]), spread(new[name])) > bound:
                verdict = "unresolved: spread wider than bound"
            elif ratio > 1 + bound:
                verdict = "REGRESSION: worse by more than the bound"
                regressions += 1
            elif ratio < 1 - bound:
                verdict = "better by more than the bound"
            else:
                verdict = "within bound"
            print(f"{workload:8s} {name:42s} {b:12.6g} {n:12.6g} {ratio:9.4f} "
                  f"{'' if bound is None else f'{bound:.2f}':>6s}  {verdict}")
    return 1 if regressions else 0


# -- expected outputs -----------------------------------------------------------------

def record_expected() -> None:
    expected = {}
    for inv in [i for invs in WORKLOADS.values() for i in invs] + list(SMOKE):
        out, _wall = run_worker({"mode": "invoke", "argv": list(inv.argv), "ds": [inv.d]})
        if "error" in out:
            raise HarnessError(out["error"])
        expected[inv.key] = {k: out[k] for k in ("exit", "bytes", "sha256")}
        print(f"{inv.key}: {expected[inv.key]}")
    with open(EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- command line ------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the full report to this file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    parser.add_argument("--record-expected", action="store_true",
                        help="record exit code, size and sha256 of every invocation")
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    try:
        if args.record_expected:
            record_expected()
            return 0
        if not args.workload:
            parser.error("--workload is required")
        if not (SRC / "picardhyb").is_dir():
            raise HarnessError(f"no picardhyb sources under {SRC}")
        expected = load_expected()
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        results = []
        for name in names:
            result = measure(name, WORKLOADS[name], args.seed, args.seconds,
                             bool(args.trace), expected)
            print_report(result)
            if args.out:
                append_result(args.out, result)
            results.append(result)
    except HarnessError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        line = contract_line(results[0])
    else:
        lines = {r["workload"]: contract_line(r) for r in results}
        line = {"correct": all(x["correct"] for x in lines.values()),
                "attempted": sum(x["attempted"] for x in lines.values()),
                "failed": sum(x["failed"] for x in lines.values()),
                "metrics": {f"{w}.{k}": v for w, x in lines.items()
                            for k, v in x["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
