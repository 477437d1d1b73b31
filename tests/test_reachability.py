"""Reachability of ``src/``: every function in the package is entered by a
command-line verb or by the benchmark's kernel pass, or is kept in ``KEEP``
with the reason it stays.

A fresh interpreter installs ``sys.setprofile`` before it imports
``picardhyb``, so module-level calls count too. It runs each invocation of
the workflow's installed-script step through ``cli.main``, then
``benchmarks/kernel.run(1, 0.05)``, and prints the ``(file, first line)`` of
every code object it entered. A function is named ``module:qualname``, with
nested functions under their parent's name. The test asserts that the
functions never entered are exactly the keys of ``KEEP``: a new function that
nothing runs fails it, and so does a keeper that something now runs or that
is gone.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import picardhyb

PACKAGE = Path(picardhyb.__file__).resolve().parent
ROOT = PACKAGE.parents[1]

# the invocations of the workflow's installed-script step, in its order
INVOCATIONS = (
    "orbit --d 3 --max-depth 2",
    *(f"{verb} --d {d}" for d in (1, 3, 7)
      for verb in ("verify", "verify --format json", "dump")),
    "classify --d 7 --element A1",
    *(f"abelianize --presentation picard-{d}" for d in (1, 3, 7)),
    "classify --d 3 --element P", "orbit --d 1 --variant primed --max-depth 2",
    "search --d 3 --target E1p --gens hybrid --max-depth 4",
    "classify --d 7 --element B1", "search --d 1 --target E1 --max-depth 12",
    "--help", "search --help", "verify --d 2",
    "verify --d 7 --max-cosets 522", "verify --d 7 --max-cosets 523",
)

_PROBE = """
import contextlib, io, json, os, sys
package, benchmarks, invocations = sys.argv[1:]
sys.path[:0] = [os.path.dirname(package), benchmarks]
entered = set()    # (file, first line) of each code object of the package called

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package):
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(profile)    # before the import, so module-level calls count
from picardhyb import cli
for argv in json.loads(invocations):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv.split())
        except SystemExit:
            pass
import kernel
kernel.run(1, 0.05)
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""

# module:qualname -> why the function stays although no verb and no kernel
# case enters it
KEEP = {
    # named by benchmarks/worker.py::ENTRY_POINTS, which the traced run wraps
    "catalog:Catalog.eval_word": "a benchmark entry point; also the tests' Mat reference evaluator",
    "certify:verify_tietze_substitution": "a benchmark entry point",
    "certify:primed_d3_closure": "a benchmark entry point",
    # without them tuple concatenation and repetition would give a plain tuple
    "cxhyp:Mat.__add__": "guard: m + m would concatenate",
    "cxhyp:Mat.__rmul__": "guard: 2 * m would repeat",
    "cxhyp:Mat.__radd__": "guard: (1,) + m would concatenate",
    "exactring:QuadRat.__rmul__": "guard: 2 * x would repeat",
    "exactring:QuadRat.__radd__": "guard: (1,) + x would concatenate",
    # _replace builds its copy with _make, which would skip __new__'s checks
    "exactring:QuadInt._make": "record invariant: _replace runs __new__'s ring check",
    "exactring:QuadRat._make": "record invariant: _replace runs __new__'s reduction",
    # oracles that the tests compare the integer kernel against
    "cxhyp:Mat.max_coeff_bits": "oracle of int_height",
    "cxhyp:BoundaryPoint.from_key": "oracle of int_origin_key and key_rows",
    "cxhyp:BoundaryPoint.key": "oracle of int_origin_key",
    "cxhyp:BoundaryPoint.approx": "oracle of key_rows' floats",
    "exactring:QuadInt.approx": "oracle of key_rows' floats",
    "exactring:QuadRat.approx": "oracle of key_rows' floats",
    "exactring:QuadRat.conj": "oracle of int_is_unitary",
    "exactring:parse": "the inverse of render, which the tests round-trip",
    "fpgroups:_inverse": "eval_word's default inverse, for the tests' Mat reference evaluator",
}


def _functions(node, prefix=""):
    """(qualified name, first line with decorators) of every function."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([child.lineno] + [d.lineno for d in child.decorator_list])
            yield prefix + child.name, first
            yield from _functions(child, prefix + child.name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, prefix + child.name + ".")
        else:
            yield from _functions(child, prefix)


def test_every_function_is_run_or_kept():
    probe = subprocess.run(
        [sys.executable, "-I", "-c", _PROBE, str(PACKAGE), str(ROOT / "benchmarks"),
         json.dumps(INVOCATIONS)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    entered = {(Path(f), line) for f, line in json.loads(probe.stdout)}
    unreached = {f"{path.stem}:{name}"
                 for path in sorted(PACKAGE.glob("*.py"))
                 for name, first in _functions(ast.parse(path.read_text()))
                 if (path, first) not in entered}
    assert unreached == set(KEEP), (
        f"unreached and not kept: {sorted(unreached - set(KEEP))}; "
        f"kept but reached or gone: {sorted(set(KEEP) - unreached)}")
