"""Spans around sepfam's public functions, installed from the benchmark's side.

`install` replaces each traced function wherever a sepfam module holds it,
so a call from one module into another (cli -> counting.count_separating,
oracle -> tree.minimal_max_families) is caught as well as the benchmark's
own calls; methods are replaced on their class. A span records its name,
start, end, parent span and request. Spans stay in memory until the run
writes them out. A layer's self time is its spans' duration minus that of
their child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

# span name -> (module, attribute) targets; "Class.method" for methods
LAYERS: dict[str, list[tuple[str, str]]] = {
    "counting.count_separating": [("counting", "count_separating")],
    "counting.count_separating_dual": [("counting", "count_separating_dual")],
    "counting.identities": [
        ("counting", "check_matrix_count_identity"),
        ("counting", "check_trivial_split"),
        ("counting", "check_transpose_symmetry"),
        ("counting", "check_stirling_first_sum"),
    ],
    "oracle.brute_count_separating": [("oracle", "brute_count_separating")],
    "oracle.brute_minimal_size_profile": [("oracle", "brute_minimal_size_profile")],
    "oracle.separating_families": [("oracle", "separating_families")],
    "core.is_separating": [("core", "BipartitionFamily.is_separating")],
    "core.is_minimal_separating": [("core", "BipartitionFamily.is_minimal_separating")],
    "matrix.encode_family": [("matrix", "encode_family")],
    "matrix.CharMatrix.encode": [("matrix", "CharMatrix.encode")],
    "matrix.has_distinct_rows": [("matrix", "CharMatrix.has_distinct_rows")],
    "tree.unique_cut_graph": [("tree", "unique_cut_graph")],
    "tree.prufer_decode": [("tree", "prufer_decode")],
    "tree.edge_cut_family": [("tree", "edge_cut_family")],
    "tree.prufer_encode": [("tree", "prufer_encode")],
    "documents.parse": [
        ("documents", "family_from_text"),
        ("documents", "family_from_compact"),
        ("documents", "family_from_doc"),
        ("documents", "graph_from_edge_text"),
    ],
    "documents.serialize": [
        ("documents", "family_to_compact"),
        ("documents", "family_to_doc"),
        ("documents", "edges_to_text"),
        ("documents", "code_to_text"),
    ],
    "cli.main": [("cli", "main")],
}

# counters kept beside the spans; each must repeat exactly on the same seed
COUNTERS = (
    "counting.result_bits",
    "oracle.families_yielded",
    "documents.parse.bytes",
    "documents.serialize.bytes",
)


def _count_bits(counts: Counter, args, result) -> None:
    counts["counting.result_bits"] += result.bit_length()


def _parse_bytes(counts: Counter, args, result) -> None:
    if args and isinstance(args[0], str):
        counts["documents.parse.bytes"] += len(args[0].encode())


def _serialize_bytes(counts: Counter, args, result) -> None:
    if isinstance(result, str):
        counts["documents.serialize.bytes"] += len(result.encode())


_MEASURES = {
    "counting.count_separating": _count_bits,
    "counting.count_separating_dual": _count_bits,
    "documents.parse": _parse_bytes,
    "documents.serialize": _serialize_bytes,
}


class Tracer:
    """In-memory span log; spans are [name, start, end, parent index, request]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.request = -1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][0] == name

    def self_seconds(self) -> dict[str, float]:
        out: dict[str, float] = {name: 0.0 for name in LAYERS}
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            out[name] = out.get(name, 0.0) + dur
            if parent is not None:
                pname = self.spans[parent][0]
                out[pname] = out.get(pname, 0.0) - dur
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request}) + "\n")


def _wrap(tracer: Tracer, name: str, fn):
    measure = _MEASURES.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        # a call made straight from a span of the same name is part of it
        if tracer.inside(name):
            return fn(*args, **kwargs)
        tracer.calls[name] += 1
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if measure is not None:
            measure(tracer.counts, args, result)
        return result

    return traced


def _wrap_generator(tracer: Tracer, name: str, fn):
    # the work happens as items are pulled, so each resumption is a span
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.calls[name] += 1
        items = fn(*args, **kwargs)
        while True:
            idx = tracer.open(name)
            try:
                item = next(items)
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            tracer.counts["oracle.families_yielded"] += 1
            yield item

    return traced


def install(tracer: Tracer):
    """Put the wrappers in place; returns a function that takes them out."""
    modules = [m for key, m in list(sys.modules.items())
               if key == "sepfam" or key.startswith("sepfam.")]
    undo: list[tuple[object, str, object]] = []
    for name, targets in LAYERS.items():
        for module, attr in targets:
            owner = sys.modules[f"sepfam.{module}"]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(_wrap(tracer, name, raw.__func__))
                else:
                    wrapped = _wrap(tracer, name, raw)
                undo.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            fn = getattr(owner, attr)
            make = _wrap_generator if inspect.isgeneratorfunction(fn) else _wrap
            wrapped = make(tracer, name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        undo.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def uninstall() -> None:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)

    return uninstall
