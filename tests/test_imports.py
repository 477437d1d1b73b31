"""Import hygiene of the package modules, checked with the standard
library's ast (no linter is assumed): every imported name is used, every
import marked ``# noqa: F401`` is one that the benchmark's tracer expects
to find bound (``benchmarks/smoke.py::ALIASES``), and the package root
imports nothing and binds only ``__version__``, so callers import the
modules by name."""

import ast
from pathlib import Path

import picardhyb

PACKAGE = Path(picardhyb.__file__).resolve().parent
SMOKE = PACKAGE.parents[1] / "benchmarks" / "smoke.py"
NOQA = "# noqa: F401"


def _modules():
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imports(path):
    """(bound name, line) of every name an import statement binds."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], alias.lineno


def _aliases():
    tree = ast.parse(SMOKE.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["ALIASES"]:
            return set(ast.literal_eval(node.value))
    raise AssertionError("benchmarks/smoke.py defines no ALIASES")


def test_every_imported_name_is_used():
    unused = []
    for path in _modules():
        source = path.read_text()
        lines = source.splitlines()
        used = {n.id for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in _imports(path)
                   if name not in used and NOQA not in lines[line - 1]]
    assert not unused


def test_every_noqa_import_is_a_benchmark_alias():
    aliases = _aliases()
    marked = set()
    for path in _modules():
        lines = path.read_text().splitlines()
        marked |= {(f"picardhyb.{path.stem}", name) for name, line in _imports(path)
                   if NOQA in lines[line - 1]}
    assert marked and marked <= aliases, marked - aliases


def test_package_root_binds_only_the_version():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    statements = tree.body[1:] if ast.get_docstring(tree) is not None else tree.body
    assert [ast.unparse(n) for n in statements] == [f"__version__ = {picardhyb.__version__!r}"]
