"""Command-line interface.

Subcommands: check, map, enumerate, count, verify, table. Exit codes:
0 success, 1 a semantic check failed (family not separating, counts
disagree, input not a spanning tree, verification failures), 2 usage,
parse, capacity or out-of-memory errors, 3 an internal arithmetic error
(a closed form that did not divide exactly or came out negative).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import counting, documents, oracle, tree
from .core import CapacityError, bipartition_count
from .counting import decimal_text


def _read_input(args) -> str:
    path = getattr(args, "input", None)
    if path is None or path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _write_out(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _note_relabel(parsed: documents.ParsedFamily) -> None:
    if parsed.relabeled:
        mapping = ", ".join(f"{a}->{b}" for a, b in sorted(parsed.label_map.items()))
        print(f"note: labels normalized: {mapping}", file=sys.stderr)


def _need(args, *names) -> None:
    missing = [f"--{name.replace('_', '-')}" for name in names if getattr(args, name) is None]
    if missing:
        raise ValueError(f"{args.command} {getattr(args, 'quantity', '')} requires {' and '.join(missing)}".strip())


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
    text = _read_input(args)
    if args.direction == "family-to-tree":
        parsed = documents.family_from_text(text)
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
        g = tree.unique_cut_graph(fam)
        fmt = args.format or "edges"
        if fmt == "edges":
            out = documents.edges_to_text(g)
        elif fmt == "prufer":
            out = documents.code_to_text(tree.prufer_encode(g))
        else:
            raise ValueError(f"format {fmt!r} does not apply to a tree output")
        _write_out(args, out + "\n")
        return 0
    g = documents.graph_from_edge_text(text)
    try:
        fam = tree.edge_cut_family(g)
    except ValueError:
        print("error: edge list is not a spanning tree", file=sys.stderr)
        return 1
    fmt = args.format or "doc"
    if fmt == "doc":
        out = json.dumps(documents.family_to_doc(fam))
    elif fmt == "compact":
        out = documents.family_to_compact(fam)
    else:
        raise ValueError(f"format {fmt!r} does not apply to a family output")
    _write_out(args, out + "\n")
    return 0


def _cmd_enumerate(args) -> int:
    for flag in ("limit", "size"):
        value = getattr(args, flag)
        if value is not None and value < 0:
            raise ValueError(f"--{flag} must be >= 0, got {value}")
    n = args.n
    kind = args.kind
    if kind == "trees":
        fmt = args.format or "edges"
        if fmt == "edges":
            items = (documents.edges_to_text(t) for t in tree.spanning_trees(n))
        elif fmt == "prufer":
            items = (documents.code_to_text(tree.prufer_encode(t)) for t in tree.spanning_trees(n))
        else:
            raise ValueError(f"format {fmt!r} does not apply to trees")
    else:
        if kind == "minimal-max-families":
            fams = tree.minimal_max_families(n)
        else:
            fams = oracle.separating_families(
                n, size=args.size, proper_only=args.proper, minimal_only=args.minimal
            )
        fmt = args.format or "compact"
        if fmt == "compact":
            items = (documents.family_to_compact(f) for f in fams)
        elif fmt == "doc":
            items = (json.dumps(documents.family_to_doc(f)) for f in fams)
        else:
            raise ValueError(f"format {fmt!r} does not apply to families")
    fh = open(args.out, "w") if args.out else sys.stdout
    try:
        count = 0
        truncated = False
        for line in items:
            if args.limit is not None and count >= args.limit:
                truncated = True
                break
            print(line, file=fh)
            count += 1
        tail = " (limit reached)" if truncated else ""
        print(f"total: {count}{tail}", file=fh)
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


def _cmd_count(args) -> int:
    q = args.quantity
    if q in ("tau", "sigma"):
        _need(args, "n", "k")
        n, k, proper = args.n, args.k, q == "sigma"
        method = args.method
        if method == "all":
            vals: dict[str, int] = {
                "v1": counting._count_family_side(n, k, proper),
                "v2": counting.count_separating_dual(n, k, proper),
            }
            if 2 <= n <= oracle.ORACLE_MAX_N and k >= 0:
                vals["brute"] = oracle.brute_count_separating(n, k, proper_only=proper)
            print(", ".join(f"{name}: {decimal_text(v)}" for name, v in vals.items()))
            return 0 if len(set(vals.values())) == 1 else 1
        if method is None:
            value = counting.count_separating(n, k, proper)
        elif method == "v1":
            value = counting._count_family_side(n, k, proper)
        elif method == "v2":
            value = counting.count_separating_dual(n, k, proper)
        else:
            value = oracle.brute_count_separating(n, k, proper_only=proper)
        print(decimal_text(value))
        return 0
    if q == "min-size":
        _need(args, "n")
        print(counting.min_separating_size(args.n))
        return 0
    if q == "min-size-count":
        _need(args, "n")
        print(decimal_text(counting.count_min_size_families(args.n)))
        return 0
    if q == "min-ground":
        _need(args, "k")
        size = counting.min_ground_size(args.k, args.proper)
        count = counting.count_min_ground_families(args.k, args.proper)
        print(f"size: {size}, count: {decimal_text(count)}")
        return 0
    # stirling quantities
    _need(args, "n", "k")
    fn = counting.stirling1_unsigned if q == "stirling1" else counting.stirling2
    print(decimal_text(fn(args.n, args.k)))
    return 0


def _cmd_verify(args) -> int:
    if args.n_max > oracle.ORACLE_MAX_N:
        print(
            f"note: oracle comparisons stop at n={oracle.ORACLE_MAX_N}; "
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
    _write_out(args, json.dumps(doc, indent=1) + "\n")
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
    m.add_argument("--format", choices=["edges", "prufer", "doc", "compact"])
    m.add_argument("--out", metavar="PATH")
    m.set_defaults(handler=_cmd_map)

    e = sub.add_parser("enumerate", help="stream trees or separating families")
    e.add_argument("kind", choices=["trees", "minimal-max-families", "families"])
    e.add_argument("--n", type=int, required=True, help="ground set size")
    e.add_argument("--size", type=int, help="restrict families to this size")
    e.add_argument("--proper", action="store_true", help="two-block bipartitions only")
    e.add_argument("--minimal", action="store_true", help="minimal separating families only")
    e.add_argument("--limit", type=int, help="stop after this many items")
    e.add_argument("--format", choices=["edges", "prufer", "doc", "compact"])
    e.add_argument("--out", metavar="PATH")
    e.set_defaults(handler=_cmd_enumerate)

    k = sub.add_parser("count", help="evaluate an exact count")
    k.add_argument(
        "quantity",
        choices=["tau", "sigma", "min-size", "min-size-count", "min-ground", "stirling1", "stirling2"],
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
    t.add_argument("--out", metavar="PATH")
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
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, OverflowError) as exc:
        # OverflowError: an input too large for math.comb and the like
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
