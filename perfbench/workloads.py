"""The four workloads: seeded requests, how each is sent, and its check.

Request i of a workload is a pure function of (workload, seed, i), so the
check after the timed loop regenerates it instead of keeping inputs alive
during the loop. Request kinds come in shuffled blocks that hold every kind
in fixed proportion, so two seeds differ in their draws but not in their
mix. Every call into sepfam goes through a module attribute at call time
(`counting.count_separating`, `cli.main`), which is where the tracer's
wrappers sit.

Parameters that set a request's cost are stratified as well: a block entry
names a stratum, the request draws inside it, and when two parameters are
stratified the second one's stratum is paired with the first (`partner`).
Every block then spans the same range of sizes, which keeps the spread
between seeds well below the spread between requests.

A request's record is (code, value): code is the exit code (0 for a
library call that returned; the runner stores -1 when the call raised) and
value a 64-bit summary of the answer: a count's residue modulo reference.P,
or a hash of the text printed. Fixed-size records let the runner keep all of
them in arrays sized before the loop, so the number of requests a run gets
through does not move its memory. The check compares a record against
reference.py, never against the code path the request took, and returns
one of OK, WRONG (an answer came back and it is wrong), ERROR (no answer) or
KNOWN (no answer, for a reason the check predicts from the true answer: a
`sepfam count` result over Python's 4300-digit int-to-str limit).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
import sys

from sepfam import cli, counting, documents, oracle, tree

import reference as ref

OK, WRONG, ERROR, KNOWN = "ok", "wrong", "error", "known"

TEN_4300 = 10**4300  # smallest int whose str() exceeds the default digit limit
DISAGREE = (1 << 64) - 1  # a verify request whose two sides differ


def digest(text: str) -> int:
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "little")


def call_cli(argv: list[str], stdin_text: str = "") -> tuple[int, str]:
    """Run `sepfam <argv>` in process; returns (exit code, stdout)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def random_code(rng: random.Random, n: int) -> list[int]:
    return [rng.randint(1, n) for _ in range(n - 2)]


def draw(rng: random.Random, lo: int, hi: int, j: int, strata: int, geometric=False) -> int:
    """An integer from the j-th of `strata` equal slices of [lo, hi].

    With geometric=True the slices are equal in log scale, for sizes whose
    cost grows as a power of them.
    """
    u = (j + rng.random()) / strata
    if geometric:
        return min(hi, int(lo * (hi + 1 - 1e-9) ** u / lo ** u))
    return min(hi, lo + int((hi - lo + 1) * u))


def partner(j: int, strata: int) -> int:
    """Stratum of a second parameter for entry j: a fixed shuffle of the
    strata, so large and small values of the two parameters mix (5 is
    coprime to every strata count used here)."""
    return 5 * j % strata


class Workload:
    name = ""
    block: tuple = ()
    # requests per second the runner sizes its record arrays for, about ten
    # times what sepfam 0.1.0 reaches on a 2-core machine
    max_rate = 0

    def pairs(self, req) -> bool:
        """Whether the request's time is scaled by the kernel with its
        pair-cut part (worker.kernel_seconds) instead of the plain one."""
        return False

    def make(self, seed: int, i: int):
        b, pos = divmod(i, len(self.block))
        order = list(self.block)
        random.Random(f"{self.name}:{seed}:block:{b}").shuffle(order)
        return self.build(order[pos], random.Random(f"{self.name}:{seed}:{i}"))

    def build(self, entry, rng: random.Random):
        raise NotImplementedError

    def run(self, req):
        raise NotImplementedError

    def check(self, req, record) -> str:
        raise NotImplementedError


class Count(Workload):
    """Exact counts in three shape bands, 70% closed form, 30% dual form."""

    name = "count"
    max_rate = 1500
    BANDS = {
        "tall": ((100, 1000), (2, 16)),
        "wide": ((12, 40), (50, 600)),
        "square": ((10, 120), (10, 120)),
    }
    STRATA = {"v1": 21, "dual": 9}
    block = tuple((band, form, j) for band, (form, strata) in itertools.product(BANDS, STRATA.items())
                  for j in range(strata))

    def build(self, entry, rng):
        band, form, j = entry
        (n_lo, n_hi), (k_lo, k_hi) = self.BANDS[band]
        strata = self.STRATA[form]
        n = draw(rng, n_lo, n_hi, j, strata)
        k = draw(rng, k_lo, k_hi, partner(j, strata), strata)
        return form, n, k, rng.random() < 0.5, rng.random() < 0.1

    def run(self, req):
        form, n, k, proper, via_cli = req
        if via_cli:
            argv = ["count", "sigma" if proper else "tau", "--n", str(n), "--k", str(k),
                    "--method", "v2" if form == "dual" else "v1"]
            code, out = call_cli(argv)
            return code, ref.residue_of_decimal(out) if code == 0 else 0
        fn = counting.count_separating_dual if form == "dual" else counting.count_separating
        return 0, fn(n, k, proper) % ref.P

    def check(self, req, record):
        form, n, k, proper, via_cli = req
        code, residue = record
        if code == 0:
            return OK if residue == ref.count_residue(n, k, proper) else WRONG
        if via_cli and code == 2:
            # exact answer from the orientation the request did not take
            other = counting.count_separating if form == "dual" else counting.count_separating_dual
            if other(n, k, proper) >= TEN_4300:
                return KNOWN
        return ERROR


class Verify(Workload):
    """Single checks from the cross_validate battery; each compares two sides."""

    name = "verify"
    max_rate = 5000
    # the full minimal-family scan at n = 5 costs ~100x any other request, so it
    # comes exactly once per block and scans elsewhere have their n fixed by
    # the block too: per-request cost then varies inside a kind, not the mix
    block = (
        tuple(("brute", n, j) for n in (3, 4, 5) for j in range(32))
        + ("identity",) * 72 + ("stirling",) * 24
        + (("max-families", 3), ("max-families", 4), ("max-families", 5)) * 12
        + (("profile", 3), ("profile", 4)) * 5 + (("profile", 5),)
    )

    def build(self, entry, rng):
        kind = entry if isinstance(entry, str) else entry[0]
        if kind == "brute":
            _, n, j = entry
            proper = rng.random() < 0.5
            k = draw(rng, 1, (1 << (n - 1)) - proper, j, 32)
            dual = rng.random() < 0.5 and (proper or k >= 2)
            return kind, n, k, proper, dual
        if kind == "identity":
            which = rng.choice(("matrix", "trivial-split", "transpose"))
            n = rng.randint(2, 12)
            k = rng.randint(1 if which == "matrix" else 2, min(40, 1 << (n - 1)))
            return kind, which, n, k
        if kind == "stirling":
            k = rng.randint(0, 60)
            return kind, k, rng.randint(0, k)
        return entry

    def run(self, req):
        kind = req[0]
        if kind == "brute":
            _, n, k, proper, dual = req
            form = counting.count_separating_dual if dual else counting.count_separating
            brute = oracle.brute_count_separating(n, k, proper_only=proper)
            return 0, brute % ref.P if brute == form(n, k, proper) else DISAGREE
        if kind == "identity":
            _, which, n, k = req
            fn = {
                "matrix": counting.check_matrix_count_identity,
                "trivial-split": counting.check_trivial_split,
                "transpose": counting.check_transpose_symmetry,
            }[which]
            res = fn(n, k)
            return 0, 1 if res.lhs == res.rhs else DISAGREE
        if kind == "stirling":
            res = counting.check_stirling_first_sum(req[1], req[2])
            return 0, 1 if res.lhs == res.rhs else DISAGREE
        n = req[1]
        if kind == "profile":
            prof = oracle.brute_minimal_size_profile(n)
            agree = prof.get(counting.min_separating_size(n), 0) == counting.count_min_size_families(n)
        else:
            agree = set(oracle.brute_minimal_max_families(n)) == set(tree.minimal_max_families(n))
        return 0, 1 if agree else DISAGREE

    def check(self, req, record):
        code, value = record
        if code != 0:
            return ERROR
        if req[0] == "brute":
            # the oracle's count, checked once more against the benchmark's own
            _, n, k, proper, _ = req
            return OK if value == ref.count_residue(n, k, proper) else WRONG
        return OK if value == 1 else WRONG


class Families(Workload):
    """`sepfam check --minimal` and both `sepfam map` directions, in process."""

    name = "families"
    max_rate = 200
    # `check` cost grows about as n^2 and swings with k, so n is stratified in
    # log scale and k, for the plain checks, paired with it; a third of the
    # checks have a planted repeated row. The light tree-to-family requests
    # are numerous enough that the median falls among them, where requests
    # are dense, instead of between kinds
    STRATA = {"check": 12, "check-planted": 6, "family-to-tree": 7, "tree-to-family": 45}
    block = tuple((kind, j) for kind, strata in STRATA.items() for j in range(strata))

    def build(self, entry, rng):
        kind, j = entry
        strata = self.STRATA[kind]
        if kind.startswith("check"):
            n = draw(rng, 32, 384, j, strata, geometric=True)
            low = (n - 1).bit_length()
            if kind == "check":
                k = draw(rng, low, 2 * low, partner(j, strata), strata)
            else:
                k = rng.randint(low, 2 * low)
            rows = ref.random_rows(rng, n, k)
            if kind == "check-planted":
                i, i2 = rng.sample(range(n), 2)
                rows[i2] = rows[i]
            return kind, rows, k, ref.family_text(n, ref.columns(rows, k), rng)
        n = draw(rng, 8, 40, j, strata)
        edges = ref.prufer_decode(n, random_code(rng, n))
        if kind == "family-to-tree":
            return kind, n, edges, ref.family_text(n, ref.edge_cut_coblocks(n, edges), rng)
        shown = [(i, j) if rng.random() < 0.5 else (j, i) for i, j in edges]
        rng.shuffle(shown)
        return kind, n, edges, ",".join(f"{i}-{j}" for i, j in shown)

    def pairs(self, req):
        # check and family-to-tree call a method per element pair and member
        # on masks of up to 384 bits; a slower host slows that more than it
        # slows the plain kernel
        return req[0] != "tree-to-family"

    def run(self, req):
        kind, text = req[0], req[-1]
        if kind.startswith("check"):
            argv = ["check", "--minimal"]
        elif kind == "family-to-tree":
            argv = ["map", "family-to-tree"]
        else:
            argv = ["map", "tree-to-family", "--format", "compact"]
        code, out = call_cli(argv, text)
        return code, digest(out)

    def check(self, req, record):
        kind = req[0]
        if kind.startswith("check"):
            _, rows, k, _ = req
            line, code = ref.check_line(rows, k)
            want = (code, digest(line))
        else:
            _, n, edges, _ = req
            if kind == "family-to-tree":
                want = (0, digest(ref.edges_text(edges) + "\n"))
            else:
                want = (0, digest(ref.family_text(n, ref.edge_cut_coblocks(n, edges)) + "\n"))
        if record == want:
            return OK
        return ERROR if record[0] not in (0, 1) else WRONG


class Trees(Workload):
    """Per-item work of `sepfam enumerate`: code -> tree -> edge-cut family -> text."""

    name = "trees"
    max_rate = 10000
    block = ("family", "family", "family+edges", "family+code")

    def build(self, entry, rng):
        n = rng.randint(8, 40)
        return entry, n, random_code(rng, n)

    def run(self, req):
        kind, n, code = req
        t = tree.prufer_decode(n, code)
        out = [documents.family_to_compact(tree.edge_cut_family(t))]
        if kind == "family+edges":
            out.append(documents.edges_to_text(t))
        elif kind == "family+code":
            out.append(documents.code_to_text(tree.prufer_encode(t)))
        return 0, digest("\n".join(out))

    def check(self, req, record):
        kind, n, code = req
        if record[0] != 0:
            return ERROR
        edges = ref.prufer_decode(n, code)
        want = [ref.family_text(n, ref.edge_cut_coblocks(n, edges))]
        if kind == "family+edges":
            want.append(ref.edges_text(edges))
        elif kind == "family+code":
            want.append(",".join(map(str, code)))
        return OK if record[1] == digest("\n".join(want)) else WRONG


WORKLOADS = {w.name: w for w in (Count(), Verify(), Families(), Trees())}
