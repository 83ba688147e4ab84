"""Command-line interface.

Subcommands: check, map, enumerate, count, verify, table. Each count
quantity and enumerate kind is one table entry naming the flags it reads and
what answers it; any other flag given to it is refused. map and enumerate
share one writer table. `--out` writes to a file instead of stdout, except
that verify writes to both. Exit codes: 0 success, 1 a semantic check
failed (family not separating, counts disagree, input not a spanning tree,
verification failures), 2 usage, parse, capacity or out-of-memory errors, 3
an internal arithmetic error (a closed form that did not divide exactly or
came out negative).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import sys
from pathlib import Path

from . import counting, documents, oracle, tree
from .core import bipartition_count
from .counting import decimal_text

# The tables call module attributes at call time, through lambdas, so a
# function swapped in after import (a tracing wrapper) is the one that runs.
# --format -> how one tree (edges, prufer) or one family (compact, doc) is written
WRITERS = {
    "edges": lambda t: documents.edges_to_text(t),
    "prufer": lambda t: documents.code_to_text(tree.prufer_encode(t)),
    "compact": lambda f: documents.family_to_compact(f),
    "doc": lambda f: json.dumps(documents.family_to_doc(f)),
}

# --method -> the sum or scan that counts tau (proper=False) or sigma
METHODS = {
    None: lambda n, k, proper: counting.count_separating(n, k, proper),
    "v1": lambda n, k, proper: counting._count_family_side(n, k, proper),
    "v2": lambda n, k, proper: counting.count_separating_dual(n, k, proper),
    "brute": lambda n, k, proper: oracle.brute_count_separating(n, k, proper_only=proper),
}


def _read_input(args) -> str:
    return sys.stdin.read() if args.input in (None, "-") else Path(args.input).read_text()


def _write(args, lines) -> None:
    """Print each line to the --out file, or to stdout without --out. The first line
    is made before the file is opened, so a refused request leaves the file as it was."""
    lines = iter(lines)
    first = list(itertools.islice(lines, 1))
    with open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout) as fh:
        for line in itertools.chain(first, lines):
            print(line, file=fh)


def _writer(args, action: str, formats: tuple[str, ...]):
    """The writer --format names, or the first of `formats` without it."""
    fmt = args.format or formats[0]
    if fmt not in formats:
        raise ValueError(f"{action} does not take --format {fmt}; it writes {' or '.join(formats)}")
    return WRITERS[fmt]


def _check_flags(args, action: str, flags: tuple[str, ...], needs=(), takes=()) -> None:
    """Refuse each of `flags` given but not read, then require `needs`; a flag is
    given when it differs from its default, None or False (so `--k 0` is given)."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value is not False and flag not in needs and flag not in takes:
            raise ValueError(f"{action} does not take --{flag}")
    missing = [f"--{flag}" for flag in needs if getattr(args, flag) is None]
    if missing:
        raise ValueError(f"{action} requires {' and '.join(missing)}")


def _note_relabel(parsed: documents.ParsedFamily) -> None:
    if parsed.relabeled:
        mapping = ", ".join(f"{a}->{b}" for a, b in sorted(parsed.label_map.items()))
        print(f"note: labels normalized: {mapping}", file=sys.stderr)


def _cmd_check(args) -> int:
    parsed = documents.family_from_text(_read_input(args))
    _note_relabel(parsed)
    fam = parsed.family
    sep = fam.is_separating()
    parts = [f"separating: {'yes' if sep else 'no'}"]
    ok = sep
    if args.minimal:
        mini = fam.is_minimal_separating()
        parts.append(f"minimal: {'yes' if mini else 'no'}")
        ok = ok and mini
    print(", ".join(parts))
    return 0 if ok else 1


def _cmd_map(args) -> int:
    if args.direction == "family-to-tree":
        write = _writer(args, "map family-to-tree", ("edges", "prufer"))
        parsed = documents.family_from_text(_read_input(args))
        _note_relabel(parsed)
        fam = parsed.family
        if len(fam) != fam.n - 1:
            print(
                f"error: family has {len(fam)} members; the tree correspondence "
                f"needs a minimal separating family of size n-1 = {fam.n - 1}",
                file=sys.stderr,
            )
            return 1
        if not fam.is_minimal_separating():
            print("error: family is not a minimal separating family", file=sys.stderr)
            return 1
        item = tree.unique_cut_graph(fam)
    else:
        write = _writer(args, "map tree-to-family", ("doc", "compact"))
        g = documents.graph_from_edge_text(_read_input(args))
        try:
            item = tree.edge_cut_family(g)
        except ValueError:
            print("error: edge list is not a spanning tree", file=sys.stderr)
            return 1
    _write(args, [write(item)])
    return 0


# kind -> (flags it reads beyond --n --limit --format --out, formats default first, items)
ENUMERATIONS = {
    "trees": ((), ("edges", "prufer"), lambda a: tree.spanning_trees(a.n)),
    "minimal-max-families": ((), ("compact", "doc"), lambda a: tree.minimal_max_families(a.n)),
    "families": (("size", "proper", "minimal"), ("compact", "doc"), lambda a: oracle.separating_families(
        a.n, size=a.size, proper_only=a.proper, minimal_only=a.minimal)),
}


def _limited(items, limit: int | None, write):
    """The written items, at most `limit` of them, then the total line."""
    count = 0
    for item in items:
        if count == limit:
            yield f"total: {count} (limit reached)"
            return
        yield write(item)
        count += 1
    yield f"total: {count}"


def _cmd_enumerate(args) -> int:
    action = f"enumerate {args.kind}"
    takes, formats, items = ENUMERATIONS[args.kind]
    _check_flags(args, action, ("size", "proper", "minimal"), takes=takes)
    for flag in ("limit", "size"):
        value = getattr(args, flag)
        if value is not None and value < 0:
            raise ValueError(f"--{flag} must be >= 0, got {value}")
    _write(args, _limited(items(args), args.limit, _writer(args, action, formats)))
    return 0


def _closed_form(args, proper: bool) -> int:
    n, k = args.n, args.k
    if args.method != "all":
        print(decimal_text(METHODS[args.method](n, k, proper)))
        return 0
    names = ["v1", "v2"] + (["brute"] if 2 <= n <= oracle.ORACLE_MAX_N and k >= 0 else [])
    vals = {name: METHODS[name](n, k, proper) for name in names}
    print(", ".join(f"{name}: {decimal_text(v)}" for name, v in vals.items()))
    return 0 if len(set(vals.values())) == 1 else 1


def _print(text: str) -> int:
    print(text)
    return 0


# quantity -> (flags it needs, flags it may also take, its answer: prints, returns the exit code)
COUNTS = {
    "tau": (("n", "k"), ("method",), lambda a: _closed_form(a, False)),
    "sigma": (("n", "k"), ("method",), lambda a: _closed_form(a, True)),
    "min-size": (("n",), (), lambda a: _print(str(counting.min_separating_size(a.n)))),
    "min-size-count": (("n",), (), lambda a: _print(decimal_text(counting.count_min_size_families(a.n)))),
    "min-ground": (("k",), ("proper",), lambda a: _print(f"size: {counting.min_ground_size(a.k, a.proper)}, "
                   f"count: {decimal_text(counting.count_min_ground_families(a.k, a.proper))}")),
    "stirling1": (("n", "k"), (), lambda a: _print(decimal_text(counting.stirling1_unsigned(a.n, a.k)))),
    "stirling2": (("n", "k"), (), lambda a: _print(decimal_text(counting.stirling2(a.n, a.k)))),
}


def _cmd_count(args) -> int:
    needs, takes, answer = COUNTS[args.quantity]
    _check_flags(args, f"count {args.quantity}", ("n", "k", "method", "proper"), needs, takes)
    return answer(args)


def _cmd_verify(args) -> int:
    if args.n_max > oracle.ORACLE_MAX_N:
        sweeps = f" and tree sweeps at n={oracle.TREE_SWEEP_MAX_N}" if args.n_max > oracle.TREE_SWEEP_MAX_N else ""
        print(
            f"note: oracle comparisons stop at n={oracle.ORACLE_MAX_N}{sweeps}; "
            f"formula checks run up to n={args.n_max}",
            file=sys.stderr,
        )
    rep = oracle.cross_validate(args.n_max, args.k_max)
    text = "\n".join(rep.summary_lines()) + "\n"
    sys.stdout.write(text)
    if args.out:
        Path(args.out).write_text(text)
    return 0 if rep.passed else 1


def _cmd_table(args) -> int:
    q = args.quantity
    proper = q == "sigma"
    n_max = args.n_max
    if n_max < 2:
        raise ValueError(f"--n-max must be >= 2, got {n_max}")
    k_max = args.k_max if args.k_max is not None else bipartition_count(n_max, proper=proper)
    if k_max < 1:
        raise ValueError(f"--k-max must be >= 1, got {k_max}")
    rows = {}
    for n in range(2, n_max + 1):
        cells = []
        for k in range(1, k_max + 1):
            if counting.is_forced_zero(n, k, proper):
                cells.append("0 (forced)")
            else:
                cells.append(decimal_text(counting.count_separating(n, k, proper)))
        rows[str(n)] = cells
    doc = {"quantity": q, "n_max": n_max, "k_max": k_max, "k": list(range(1, k_max + 1)), "rows": rows}
    _write(args, [json.dumps(doc, indent=1)])
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `sepfam` parser, built once per process; nothing changes it after."""
    p = argparse.ArgumentParser(
        prog="sepfam",
        description="Exact combinatorics of separating families of bipartitions.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="test whether a family separates its ground set")
    c.add_argument("--input", metavar="PATH", help="family document (JSON or compact); '-' or absent reads stdin")
    c.add_argument("--minimal", action="store_true", help="also require minimality")
    c.set_defaults(handler=_cmd_check)

    m = sub.add_parser("map", help="convert between max-size minimal families and spanning trees")
    m.add_argument("direction", choices=["family-to-tree", "tree-to-family"])
    m.add_argument("--input", metavar="PATH", help="'-' or absent reads stdin")
    m.add_argument("--format", choices=WRITERS, help="trees: edges (default), prufer; families: doc (default), compact")
    m.add_argument("--out", metavar="PATH", help="write to this file instead of stdout")
    m.set_defaults(handler=_cmd_map)

    e = sub.add_parser("enumerate", help="stream trees or separating families")
    e.add_argument("kind", choices=ENUMERATIONS)
    e.add_argument("--n", type=int, required=True, help="ground set size")
    e.add_argument("--size", type=int, help="families: only this size")
    e.add_argument("--proper", action="store_true", help="families: two-block bipartitions only")
    e.add_argument("--minimal", action="store_true", help="families: minimal separating families only")
    e.add_argument("--limit", type=int, help="stop after this many items")
    e.add_argument("--format", choices=WRITERS, help="trees: edges (default), prufer; families: compact (default), doc")
    e.add_argument("--out", metavar="PATH", help="write to this file instead of stdout")
    e.set_defaults(handler=_cmd_enumerate)

    k = sub.add_parser("count", help="evaluate an exact count")
    k.add_argument(
        "quantity",
        choices=COUNTS,
        help="tau: separating families of k bipartitions; sigma: same with two-block members only",
    )
    k.add_argument("--n", type=int)
    k.add_argument("--k", type=int)
    k.add_argument(
        "--method",
        choices=["v1", "v2", "brute", "all"],
        help="tau/sigma: v1 forces the family-side sum, v2 the ground-side (dual) sum, brute the "
        "exhaustive scan, all every applicable one; omitted, the sum with fewer terms",
    )
    k.add_argument("--proper", action="store_true", help="min-ground: two-block members only")
    k.set_defaults(handler=_cmd_count)

    v = sub.add_parser("verify", help="cross-check formulas, identities, and bijections")
    v.add_argument("--n-max", type=int, default=5, help="default %(default)s")
    v.add_argument("--k-max", type=int, default=8, help="default %(default)s")
    v.add_argument("--out", metavar="PATH", help="also write the summary to a file")
    v.set_defaults(handler=_cmd_verify)

    t = sub.add_parser("table", help="emit a count table as JSON")
    t.add_argument("quantity", choices=["tau", "sigma"])
    t.add_argument("--n-max", type=int, default=5, help="default %(default)s")
    t.add_argument("--k-max", type=int, help="default: the full pool at n-max")
    t.add_argument("--out", metavar="PATH", help="write to this file instead of stdout")
    t.set_defaults(handler=_cmd_table)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (ValueError, OSError, OverflowError) as exc:
        # CapacityError is a ValueError; OverflowError: an input too large for math.comb and the like
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        # an input whose answer or table cannot be allocated, e.g. 2^(n-1) at n = 10^19
        print("error: out of memory for this input size", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # any other: an inexact division or a negative count, a fault of the program
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
