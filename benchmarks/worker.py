"""One benchmark worker: a fresh interpreter that runs a single job and
prints one JSON line.

Started by ``run.py`` as ``python3 -I benchmarks/worker.py '<job json>'``.
The job names the ``src`` directory to import ``picardhyb`` from and a
``mode``:

* ``invoke`` imports ``picardhyb``, builds the catalogs the invocation
  needs (timed as ``setup_s``), then runs ``cli.main(argv)`` with stdout
  captured (timed as ``main_s``). It reports the exit code, the byte count
  and sha256 of stdout, and the worker's own max RSS. With ``argv`` null it
  stops after set-up. With ``trace`` true the layer entry points are
  wrapped for the duration of the job (see ``Tracer``).
* ``kernel`` runs the per-layer kernel pass in ``kernel.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

# Layer entry points wrapped by the traced run, as (module, attribute path).
# The layer of an entry point is its module. Scalar exactring operators are
# left out on purpose: they cost about as much as a wrapper call, so their
# time stays in the self time of the cxhyp caller and their cost comes from
# the kernel pass instead.
ENTRY_POINTS = (
    ("cxhyp", "Mat.__mul__"),
    ("cxhyp", "Mat.inverse"),
    ("cxhyp", "canonical_rep"),
    ("cxhyp", "proj_eq"),
    ("cxhyp", "boundary_action"),
    ("catalog", "get_catalog"),
    ("catalog", "Catalog.eval_word"),
    ("fpgroups", "todd_coxeter"),
    ("fpgroups", "smith_normal_form"),
    ("fpgroups", "reidemeister_schreier"),
    ("search", "find_word"),
    ("certify", "verify_word_identities"),
    ("certify", "verify_normality"),
    ("certify", "verify_tietze_substitution"),
    ("certify", "verify_primed_d1_word"),
    ("certify", "index_report"),
    ("certify", "lemma31_index_bound"),
    ("certify", "lemma36_relations"),
    ("certify", "hybrid_abelianization_bounds"),
    ("certify", "primed_d3_closure"),
    ("certify", "primed_d1_equality"),
    ("cli", "main"),
)

# Modules scanned for names bound to a wrapped function, so that aliases
# made by ``from ... import`` are patched along with the definition.
MODULES = ("picardhyb", "picardhyb.exactring", "picardhyb.cxhyp",
           "picardhyb.fpgroups", "picardhyb.catalog", "picardhyb.search",
           "picardhyb.certify", "picardhyb.cli")

_WRAPPER_MARK = "__bench_wrapper__"


class Tracer:
    """Wraps the layer entry points and aggregates their spans in memory.

    Each wrapped call is one span. The tracer keeps, per entry point, the
    call count, the total time and the self time (total minus the time of
    the wrapped calls made inside it). It also counts the entry-point calls
    made while ``find_word`` is running, for the search ratios, and the
    cosets and overflows of the tables ``todd_coxeter`` returns.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        # key -> [calls, total s, self s, calls made while find_word runs,
        #         cosets of returned tables, overflowed tables]
        self.stats: dict[str, list] = {}
        self._stack: list[float] = []        # child time of each open span
        self._in_find = 0
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for mod_name, path in ENTRY_POINTS:
            owner = self.modules["picardhyb." + mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            key = f"{mod_name}.{path}"
            wrapper = self._wrap(original, key)
            self._patch(owner, attr, original, wrapper)
            if not cls_path:
                for mod in self.modules.values():
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        self._patches.append((owner, name, original))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)

    def restored(self) -> bool:
        """True when every patched name is back and no wrapper is left."""
        if any(vars(owner)[name] is not original
               for owner, name, original in self._patches):
            return False
        for mod in self.modules.values():
            for value in vars(mod).values():
                if getattr(value, _WRAPPER_MARK, False):
                    return False
                if isinstance(value, type) and any(
                        getattr(v, _WRAPPER_MARK, False) for v in vars(value).values()):
                    return False
        return True

    def _wrap(self, fn, key: str):
        stats = self.stats.setdefault(key, [0, 0.0, 0.0, 0, 0, 0])
        stack = self._stack
        clock = time.perf_counter
        is_find = key == "search.find_word"
        is_enum = key == "fpgroups.todd_coxeter"

        def wrapper(*args, **kwargs):
            if self._in_find:
                stats[3] += 1
            if is_find:
                self._in_find += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if stack:
                    stack[-1] += dt
                if is_find:
                    self._in_find -= 1
            if is_enum:
                stats[4] += result.index
                stats[5] += not result.complete
            return result

        setattr(wrapper, _WRAPPER_MARK, True)
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def report(self) -> dict:
        return {key: {"calls": s[0], "total_s": s[1], "self_s": s[2],
                      "calls_in_find": s[3], "cosets": s[4], "overflows": s[5]}
                for key, s in self.stats.items()}


def _import_modules() -> dict:
    import importlib
    return {name: importlib.import_module(name) for name in MODULES}


def invoke(job: dict) -> dict:
    t0 = time.perf_counter()
    modules = _import_modules()
    tracer = Tracer(modules) if job.get("trace") else None
    out: dict = {}
    try:
        if tracer:
            tracer.install()
        get_catalog = modules["picardhyb.catalog"].get_catalog
        for d in job["ds"]:
            get_catalog(d)
        t1 = time.perf_counter()
        out["setup_s"] = t1 - t0
        if job.get("argv") is not None:
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = modules["picardhyb.cli"].main(list(job["argv"]))
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            out["main_s"] = time.perf_counter() - t1
            data = buf.getvalue().encode()
            out.update(exit=code, bytes=len(data),
                       sha256=hashlib.sha256(data).hexdigest(),
                       csv_points=_csv_points(job["argv"], data))
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        out["trace"] = tracer.report()
        out["restored"] = tracer.restored()
    return out


def _csv_points(argv, data: bytes) -> int:
    """Data rows of an orbit CSV: everything but the header and comments."""
    if argv[0] != "orbit":
        return 0
    lines = data.decode().splitlines()
    return sum(1 for line in lines[1:] if line and not line.startswith("#"))


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    try:
        if job["mode"] == "kernel":
            sys.path.insert(0, str(Path(__file__).resolve().parent))
            import kernel
            out = kernel.run(job["seed"], job.get("scale", 1.0))
        else:
            out = invoke(job)
    except Exception:  # report any failure of the job as a result line
        traceback.print_exc()
        out = {"error": traceback.format_exc(limit=3)}
    out["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
