"""The command-line surface, driven in-process through main()."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sepfam.counting
import sepfam.oracle
import sepfam.tree
from sepfam.cli import build_parser, main
from sepfam.counting import decimal_text

P_DOC = '{"n": 4, "bipartitions": [[[1, 2], [3, 4]], [[1, 3], [2, 4]]]}'
Q_COMPACT = "1|2,3,4;1,2|3,4;1,2,3|4"
Q_CANONICAL = "1,2,3|4;1,2|3,4;1|2,3,4"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_run(*argv):
    """Exit code and stdout of `sepfam <argv>` in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(sepfam.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "sepfam.cli", *argv],
        stdin=subprocess.DEVNULL, capture_output=True, text=True, env=env, timeout=60,
    )
    return proc.returncode, proc.stdout


def test_reused_parser_keeps_no_state(tmp_path, capsys):
    assert build_parser() is build_parser()
    edges = tmp_path / "t.txt"
    edges.write_text("1-2,2-3,3-4")
    fam = tmp_path / "fam.txt"
    fam.write_text("1|2,3,4;1,2|3,4;1,2,3|4;1,3|2,4")  # separating, not minimal
    out = tmp_path / "out.json"
    calls = [
        ("map", "tree-to-family", "--input", str(edges), "--out", str(out)),
        ("map", "tree-to-family", "--input", str(edges)),
        ("check", "--input", str(fam), "--minimal"),
        ("check", "--input", str(fam)),
    ]
    results = [run(capsys, *argv)[:2] for argv in calls]
    written = out.read_text()
    assert results[0] == (0, "")
    assert results[1] == (0, written)  # no --out: stdout
    assert results[2] == (1, "separating: yes, minimal: no\n")
    assert results[3] == (0, "separating: yes\n")  # no --minimal: no minimal part
    assert results == [fresh_run(*argv) for argv in calls]


def test_no_arguments_is_usage_error(capsys):
    assert run(capsys, )[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_check_separating_minimal(tmp_path, capsys):
    f = tmp_path / "fam.json"
    f.write_text(P_DOC)
    code, out, _ = run(capsys, "check", "--input", str(f), "--minimal")
    assert code == 0
    assert out.strip() == "separating: yes, minimal: yes"


def test_check_single_member_fails(tmp_path, capsys):
    f = tmp_path / "fam.json"
    f.write_text('{"n": 4, "bipartitions": [[[1, 2], [3, 4]]]}')
    code, out, _ = run(capsys, "check", "--input", str(f))
    assert code == 1
    assert out.strip() == "separating: no"


def test_check_non_minimal_flagged(tmp_path, capsys):
    f = tmp_path / "fam.txt"
    f.write_text("1|2,3,4;1,2|3,4;1,2,3|4;1,3|2,4")
    code, out, _ = run(capsys, "check", "--input", str(f), "--minimal")
    assert code == 1
    assert out.strip() == "separating: yes, minimal: no"


def test_check_reports_relabeling(tmp_path, capsys):
    f = tmp_path / "fam.txt"
    f.write_text("3|7")
    code, out, err = run(capsys, "check", "--input", str(f))
    assert code == 0
    assert out.strip() == "separating: yes"
    assert "labels normalized" in err and "3->1" in err and "7->2" in err


def test_check_malformed_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.json"
    f.write_text('{"bipartitions": [[[1, 2], [2, 3]]]}')
    code, _, err = run(capsys, "check", "--input", str(f))
    assert code == 2
    assert "error:" in err
    f2 = tmp_path / "not.json"
    f2.write_text("{broken")
    assert run(capsys, "check", "--input", str(f2))[0] == 2
    assert run(capsys, "check", "--input", str(tmp_path / "absent.json"))[0] == 2


def test_map_family_to_tree(tmp_path, capsys):
    f = tmp_path / "q.txt"
    f.write_text(Q_COMPACT)
    code, out, _ = run(capsys, "map", "family-to-tree", "--input", str(f))
    assert code == 0
    assert out.strip() == "1-2,2-3,3-4"
    code, out, _ = run(capsys, "map", "family-to-tree", "--input", str(f), "--format", "prufer")
    assert code == 0
    assert out.strip() == "2,3"


def test_map_tree_to_family(tmp_path, capsys):
    f = tmp_path / "t.txt"
    f.write_text("1-2,2-3,3-4")
    code, out, _ = run(capsys, "map", "tree-to-family", "--input", str(f), "--format", "compact")
    assert code == 0
    assert out.strip() == Q_CANONICAL
    code, out, _ = run(capsys, "map", "tree-to-family", "--input", str(f))
    doc = json.loads(out)
    assert doc["n"] == 4
    assert len(doc["bipartitions"]) == 3


def test_map_rejects_wrong_size_family(tmp_path, capsys):
    f = tmp_path / "p.json"
    f.write_text(P_DOC)  # size 2, not n-1 = 3
    code, _, err = run(capsys, "map", "family-to-tree", "--input", str(f))
    assert code == 1
    assert "n-1" in err


def test_map_rejects_non_minimal_family(tmp_path, capsys):
    f = tmp_path / "fam.txt"
    # size 3 over n=4 but redundant: drops to separating subfamily
    f.write_text("1|2,3,4;1,2|3,4;1,3|2,4")
    code, _, err = run(capsys, "map", "family-to-tree", "--input", str(f))
    assert code == 1
    assert "minimal" in err


def test_map_rejects_non_tree(tmp_path, capsys):
    # a triangle and a 4-cycle have n edges; the last has n - 1 but never reaches 4 or 5
    f = tmp_path / "g.txt"
    for edges in ("1-2,2-3,1-3", "1-2,2-3,3-4,1-4", "1-2,1-3,2-3,4-5"):
        f.write_text(edges)
        code, out, err = run(capsys, "map", "tree-to-family", "--input", str(f))
        assert (code, out, err) == (1, "", "error: edge list is not a spanning tree\n"), edges


def test_map_malformed_edges_exit_2(tmp_path, capsys):
    f = tmp_path / "g.txt"
    f.write_text("1-2,thing")
    assert run(capsys, "map", "tree-to-family", "--input", str(f))[0] == 2


def test_map_roundtrip_through_files(tmp_path, capsys):
    fam = tmp_path / "fam.txt"
    fam.write_text(Q_COMPACT)
    edges = tmp_path / "edges.txt"
    assert main(["map", "family-to-tree", "--input", str(fam), "--out", str(edges)]) == 0
    back = tmp_path / "back.txt"
    assert main(["map", "tree-to-family", "--input", str(edges), "--format", "compact", "--out", str(back)]) == 0
    assert back.read_text().strip() == Q_CANONICAL
    capsys.readouterr()


def test_enumerate_trees(capsys):
    code, out, _ = run(capsys, "enumerate", "trees", "--n", "4")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[-1] == "total: 16"
    assert len(lines) == 17
    assert len(set(lines[:-1])) == 16


def test_enumerate_prufer_format(capsys):
    code, out, _ = run(capsys, "enumerate", "trees", "--n", "4", "--format", "prufer")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "1,1"
    assert lines[-2] == "4,4"
    assert lines[-1] == "total: 16"


def test_enumerate_minimal_max_families(capsys):
    code, out, _ = run(capsys, "enumerate", "minimal-max-families", "--n", "4")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[-1] == "total: 16"
    assert Q_CANONICAL in lines


def test_enumerate_families_filters(capsys):
    code, out, _ = run(capsys, "enumerate", "families", "--n", "4", "--size", "2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "total: 3"
    _, out, _ = run(capsys, "enumerate", "families", "--n", "4", "--size", "3", "--proper")
    assert out.strip().splitlines()[-1] == "total: 29"
    _, out, _ = run(capsys, "enumerate", "families", "--n", "4", "--minimal")
    assert out.strip().splitlines()[-1] == "total: 19"


def test_enumerate_doc_format_reparses(capsys):
    from sepfam.documents import family_from_doc

    code, out, _ = run(capsys, "enumerate", "families", "--n", "4", "--size", "2", "--format", "doc")
    *items, total = out.strip().splitlines()
    assert total == "total: 3"
    for line in items:
        fam = family_from_doc(json.loads(line)).family
        assert fam.is_separating()


def test_enumerate_limit(capsys):
    code, out, _ = run(capsys, "enumerate", "trees", "--n", "5", "--limit", "10")
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 11
    assert lines[-1] == "total: 10 (limit reached)"


def test_enumerate_negative_limit_exits_2(capsys):
    code, out, err = run(capsys, "enumerate", "trees", "--n", "3", "--limit", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --limit must be >= 0, got -1\n"


def test_enumerate_negative_size_exits_2(capsys):
    code, out, err = run(capsys, "enumerate", "families", "--n", "4", "--size", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --size must be >= 0, got -1\n"


def test_enumerate_to_file(tmp_path, capsys):
    out_path = tmp_path / "trees.txt"
    assert main(["enumerate", "trees", "--n", "3", "--out", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert out_path.read_text().strip().splitlines()[-1] == "total: 3"


def test_enumerate_capacity_exit_2(capsys):
    code, _, err = run(capsys, "enumerate", "trees", "--n", "10")
    assert code == 2
    assert "capped" in err
    assert run(capsys, "enumerate", "families", "--n", "6")[0] == 2


def test_enumerate_requires_n(capsys):
    assert run(capsys, "enumerate", "trees")[0] == 2


def test_enumerate_limit_boundaries(capsys):
    code, out, _ = run(capsys, "enumerate", "trees", "--n", "3", "--limit", "3")
    assert code == 0
    assert out.splitlines()[-1] == "total: 3"  # no fourth tree, so no marker
    code, out, _ = run(capsys, "enumerate", "trees", "--n", "3", "--limit", "0")
    assert (code, out) == (0, "total: 0 (limit reached)\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "trees", "--n", "10"),
        ("enumerate", "families", "--n", "6"),
        ("enumerate", "families", "--n", "6", "--limit", "0"),
        ("enumerate", "trees", "--n", "4", "--format", "doc"),
        ("enumerate", "trees", "--n", "4", "--minimal"),
        ("map", "tree-to-family", "--format", "edges"),
        ("table", "tau", "--n-max", "1"),
    ],
)
def test_refused_request_keeps_out_file(tmp_path, capsys, argv):
    keep = tmp_path / "keep.txt"
    keep.write_text("earlier output\n")
    code, out, err = run(capsys, *argv, "--out", str(keep))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    assert keep.read_text() == "earlier output\n"


# command and action with the flags it needs -> flags it does not read
UNREAD = {
    ("count", "tau", "--n", "4", "--k", "3"): [("--proper",)],
    ("count", "sigma", "--n", "4", "--k", "3"): [("--proper",)],
    ("count", "min-size", "--n", "5"): [("--k", "3"), ("--k", "0"), ("--method", "v1"), ("--proper",)],
    ("count", "min-size-count", "--n", "5"): [("--k", "3"), ("--method", "v2"), ("--proper",)],
    ("count", "min-ground", "--k", "5"): [("--n", "4"), ("--n", "0"), ("--method", "all")],
    ("count", "stirling1", "--n", "4", "--k", "2"): [("--method", "brute"), ("--proper",)],
    ("count", "stirling2", "--n", "5", "--k", "2"): [("--method", "v2"), ("--proper",)],
    ("enumerate", "trees", "--n", "4"): [("--size", "2"), ("--size", "0"), ("--proper",), ("--minimal",)],
    ("enumerate", "minimal-max-families", "--n", "4"): [("--size", "3"), ("--proper",), ("--minimal",)],
}


@pytest.mark.parametrize(
    "action, flag", [(action, flag) for action, flags in UNREAD.items() for flag in flags], ids=str
)
def test_unread_flag_exits_2(capsys, action, flag):
    code, out, err = run(capsys, *action, *flag)
    assert (code, out) == (2, "")
    assert err == f"error: {action[0]} {action[1]} does not take {flag[0]}\n"


@pytest.mark.parametrize(
    "argv, formats",
    [
        (("map", "family-to-tree"), "edges or prufer"),
        (("map", "tree-to-family"), "doc or compact"),
        (("enumerate", "trees", "--n", "4"), "edges or prufer"),
        (("enumerate", "minimal-max-families", "--n", "4"), "compact or doc"),
        (("enumerate", "families", "--n", "4"), "compact or doc"),
    ],
)
def test_misapplied_format_exits_2(capsys, argv, formats):
    for fmt in ("edges", "prufer", "compact", "doc"):
        if fmt in formats.split(" or "):
            continue
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out) == (2, "")
        assert err == f"error: {argv[0]} {argv[1]} does not take --format {fmt}; it writes {formats}\n"


def test_writers_look_up_documents_at_call_time(tmp_path, capsys, monkeypatch):
    # a wrapper put on the module attribute after import is the one called
    monkeypatch.setattr(sepfam.documents, "family_to_compact", lambda fam: "family-marker")
    monkeypatch.setattr(sepfam.documents, "edges_to_text", lambda t: "tree-marker")
    f = tmp_path / "t.txt"
    f.write_text("1-2,2-3,3-4")
    assert run(capsys, "map", "tree-to-family", "--input", str(f), "--format", "compact")[:2] == (0, "family-marker\n")
    code, out, _ = run(capsys, "enumerate", "trees", "--n", "3")
    assert (code, out) == (0, "tree-marker\n" * 3 + "total: 3\n")
    code, out, _ = run(capsys, "enumerate", "minimal-max-families", "--n", "3")
    assert (code, out) == (0, "family-marker\n" * 3 + "total: 3\n")


def test_count_methods_agree(capsys):
    code, out, _ = run(capsys, "count", "tau", "--n", "4", "--k", "3", "--method", "all")
    assert code == 0
    assert out.strip() == "v1: 32, v2: 32, brute: 32"
    code, out, _ = run(capsys, "count", "sigma", "--n", "4", "--k", "3", "--method", "all")
    assert code == 0
    assert out.strip() == "v1: 29, v2: 29, brute: 29"


def test_count_all_skips_inapplicable_methods(capsys):
    code, out, _ = run(capsys, "count", "tau", "--n", "2", "--k", "1", "--method", "all")
    assert code == 0
    assert out.strip() == "v1: 1, v2: 1, brute: 1"
    code, out, _ = run(capsys, "count", "tau", "--n", "6", "--k", "3", "--method", "all")
    assert code == 0
    assert "brute" not in out
    pairs = dict(part.split(": ") for part in out.strip().split(", "))
    assert pairs["v1"] == pairs["v2"]


def test_count_single_methods(capsys):
    assert run(capsys, "count", "tau", "--n", "4", "--k", "3")[1].strip() == "32"
    assert run(capsys, "count", "tau", "--n", "4", "--k", "3", "--method", "v1")[1].strip() == "32"
    assert run(capsys, "count", "tau", "--n", "4", "--k", "3", "--method", "v2")[1].strip() == "32"
    assert run(capsys, "count", "tau", "--n", "2", "--k", "1", "--method", "v2")[1].strip() == "1"
    assert run(capsys, "count", "sigma", "--n", "4", "--k", "3")[1].strip() == "29"
    assert run(capsys, "count", "sigma", "--n", "4", "--k", "3", "--method", "brute")[1].strip() == "29"


def test_count_mismatch_exits_1(capsys, monkeypatch):
    real = sepfam.counting.count_separating_dual

    def warped(n, k, proper=False):
        return real(n, k, proper) + 1

    monkeypatch.setattr(sepfam.counting, "count_separating_dual", warped)
    code, out, _ = run(capsys, "count", "tau", "--n", "4", "--k", "3", "--method", "all")
    assert code == 1
    assert "v2: 33" in out


def test_count_methods_pick_their_sum(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the other sum ran")

    # v1 is the family-side sum even where count_separating would take the other
    monkeypatch.setattr(sepfam.counting, "_ground_sum", refuse)
    v1 = run(capsys, "count", "tau", "--n", "12", "--k", "50", "--method", "v1")[1].strip()
    monkeypatch.undo()
    assert int(v1) == sepfam.counting.count_separating(12, 50)
    monkeypatch.setattr(sepfam.counting, "_family_sum", refuse)
    v2 = run(capsys, "count", "sigma", "--n", "30", "--k", "8", "--method", "v2")[1].strip()
    assert int(v2) == sepfam.counting.count_separating_dual(30, 8, proper=True)
    # with --method omitted the shorter (here ground-side) sum answers
    assert run(capsys, "count", "tau", "--n", "12", "--k", "50")[1].strip() == v1


def test_count_other_quantities(capsys):
    assert run(capsys, "count", "min-size", "--n", "5")[1].strip() == "3"
    assert run(capsys, "count", "min-size-count", "--n", "5")[1].strip() == "140"
    assert run(capsys, "count", "min-ground", "--k", "5")[1].strip() == "size: 4, count: 56"
    assert run(capsys, "count", "min-ground", "--k", "5", "--proper")[1].strip() == "size: 4, count: 21"
    assert run(capsys, "count", "min-ground", "--k", "1")[1].strip() == "size: 1, count: 1"
    assert run(capsys, "count", "stirling1", "--n", "4", "--k", "2")[1].strip() == "11"
    assert run(capsys, "count", "stirling2", "--n", "4", "--k", "2")[1].strip() == "7"


def _from_decimal(text):
    # int() refuses strings over 4300 digits too, so read 4000 at a time
    value = 0
    for s in range(0, len(text), 4000):
        chunk = text[s:s + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_count_prints_answers_past_the_digit_limit(capsys):
    code, out, _ = run(capsys, "count", "tau", "--n", "1000", "--k", "40")
    digits = out.strip()
    assert code == 0 and digits.isdigit() and len(digits) > 4300
    assert _from_decimal(digits) == sepfam.counting.count_separating(1000, 40)


def test_decimal_keeps_zero_chunks():
    assert decimal_text(0) == "0"
    assert decimal_text(10**4000 - 1) == "9" * 4000
    assert decimal_text(10**4000) == "1" + "0" * 4000
    assert decimal_text(10**8000 + 5) == "1" + "0" * 7999 + "5"


def test_count_usage_and_domain_errors(capsys):
    assert run(capsys, "count", "tau", "--n", "4") == (2, "", "error: count tau requires --k\n")
    assert run(capsys, "count", "stirling2") == (2, "", "error: count stirling2 requires --n and --k\n")
    assert run(capsys, "count", "min-size")[0] == 2
    assert run(capsys, "count", "tau", "--n", "1", "--k", "1")[0] == 2
    assert run(capsys, "count", "tau", "--n", "1", "--k", "1", "--method", "v2")[0] == 2
    assert run(capsys, "count", "tau", "--n", "6", "--k", "2", "--method", "brute")[0] == 2
    assert run(capsys, "count", "nonsense", "--n", "4", "--k", "2")[0] == 2


def test_verify_passes_and_writes_report(tmp_path, capsys):
    report = tmp_path / "report.txt"
    code, out, _ = run(capsys, "verify", "--n-max", "4", "--k-max", "6", "--out", str(report))
    assert code == 0
    assert "result: PASS" in out
    assert report.read_text() == out


def test_verify_minimal_bounds(capsys):
    code, out, _ = run(capsys, "verify", "--n-max", "2", "--k-max", "2")
    assert code == 0
    assert "result: PASS" in out


def test_verify_clamp_note(capsys):
    for n_max, note in [
        (5, ""),
        (6, "note: oracle comparisons stop at n=5; formula checks run up to n=6\n"),
        (7, "note: oracle comparisons stop at n=5 and tree sweeps at n=6; formula checks run up to n=7\n"),
    ]:
        code, out, err = run(capsys, "verify", "--n-max", str(n_max), "--k-max", "4")
        assert (code, err) == (0, note), n_max


def test_verify_fault_injection_exits_1(capsys, monkeypatch):
    real = sepfam.counting.stirling1_unsigned

    def warped(k, i):
        if (k, i) == (4, 2):
            return real(k, i) + 1
        return real(k, i)

    monkeypatch.setattr(sepfam.counting, "stirling1_unsigned", warped)
    code, out, _ = run(capsys, "verify", "--n-max", "4", "--k-max", "6")
    assert code == 1
    assert "result: FAIL" in out
    assert any(line.startswith("FAIL stirling-first-sum") for line in out.splitlines())


def test_verify_fault_in_a_stirling_row_exits_1(capsys, monkeypatch):
    # the sums read whole rows from the store, not stirling1_unsigned
    real = sepfam.counting._FIRST.row

    def warped(k):
        row = real(k)
        return (*row[:2], row[2] + 1, *row[3:]) if k == 4 else row

    monkeypatch.setattr(sepfam.counting._FIRST, "row", warped)
    code, out, _ = run(capsys, "verify", "--n-max", "4", "--k-max", "6")
    assert code == 1
    assert "result: FAIL" in out
    groups = {line.split()[1] for line in out.splitlines() if line.startswith("FAIL ")}
    assert any(
        g.startswith("closed-forms-agree-") or g.endswith("-vs-oracle") or g == "transpose-symmetry"
        for g in groups
    ), groups


@pytest.mark.parametrize(
    "module, name, error, when, failing",
    [
        # the tree sweep, and the oracle match that reads the tree families: minimal_max_families
        # turns each code's stripping order into coblocks through this helper
        (
            "tree", "_cut_coblocks", ValueError("planted"), lambda args: args[0] == 4,
            {"tree-roundtrip", "edge-cut-minimal", "cayley-count", "enumeration-matches-oracle"},
        ),
        # the oracle side of the four count groups, and min-ground's search through n = 3
        (
            "oracle", "brute_count_separating", ArithmeticError("planted"), lambda args: args[0] == 3,
            {
                "arbitrary-count-vs-oracle", "proper-count-vs-oracle", "arbitrary-dual-vs-oracle",
                "proper-dual-vs-oracle", "min-ground-size-arbitrary", "min-ground-count-arbitrary",
                "min-ground-size-proper", "min-ground-count-proper",
            },
        ),
        (
            "oracle", "_brute_min_ground", sepfam.oracle.CapacityError("planted"), lambda args: True,
            {
                "min-ground-size-arbitrary", "min-ground-count-arbitrary",
                "min-ground-size-proper", "min-ground-count-proper",
            },
        ),
        # each side below looks its function up when it runs, not when the module is imported
        (
            "counting", "count_separating_dual", ValueError("planted"), lambda args: args[0] == 3,
            {
                "arbitrary-dual-vs-oracle", "proper-dual-vs-oracle",
                "closed-forms-agree-arbitrary", "closed-forms-agree-proper",
            },
        ),
        ("counting", "check_trivial_split", ValueError("planted"), lambda args: args[0] == 3, {"trivial-split"}),
        ("tree", "prufer_encode", ValueError("planted"), lambda args: args[0].n == 4, {"prufer-roundtrip"}),
    ],
)
def test_verify_records_a_raising_side_as_a_failure(capsys, monkeypatch, module, name, error, when, failing):
    target = getattr(sepfam, module)
    real = getattr(target, name)

    def planted(*args, **kwargs):
        if when(args):
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(target, name, planted)
    code, out, _ = run(capsys, "verify", "--n-max", "4", "--k-max", "6")
    assert code == 1
    fails = [line for line in out.splitlines() if line.startswith("FAIL ")]
    assert {line.split()[1] for line in fails} == failing
    assert all(line.endswith(": lhs=error: planted rhs=unavailable") for line in fails)
    assert out.splitlines()[-1].startswith("result: FAIL")


@pytest.mark.parametrize("n, k", [(6, 4), (40, 400)])
def test_internal_arithmetic_error_exits_3(capsys, monkeypatch, n, k):
    # at (40, 400) the dividend has over 4300 digits, past what str() may print
    real = sepfam.counting.factorial
    monkeypatch.setattr(sepfam.counting, "factorial", lambda m: real(m) * (1000003 if m == k else 1))
    code, out, err = run(capsys, "count", "tau", "--n", str(n), "--k", str(k), "--method", "v1")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: inexact division") and err.count("\n") == 1


def test_min_size_count_inexact_division_exits_3(capsys, monkeypatch):
    real = sepfam.counting.factorial
    monkeypatch.setattr(sepfam.counting, "factorial", lambda m: real(m) * 1000003)
    code, out, err = run(capsys, "count", "min-size-count", "--n", "9")
    assert (code, out) == (3, "")
    assert err.startswith("internal error: inexact division")


def test_check_answers_a_huge_empty_family_from_the_size_bound(tmp_path, capsys):
    doc = tmp_path / "fam.json"
    doc.write_text('{"n": 1000000000000, "bipartitions": []}')
    assert run(capsys, "check", "--input", str(doc)) == (1, "separating: no\n", "")
    assert run(capsys, "check", "--minimal", "--input", str(doc))[:2] == (1, "separating: no, minimal: no\n")


def test_overflowing_input_exits_2_not_3(capsys):
    code, out, err = run(capsys, "count", "min-ground", "--k", str(10**30))
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_unallocatable_input_exits_2(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(sepfam.counting, "count_separating", exhausted)
    code, out, err = run(capsys, "count", "tau", "--n", "12", "--k", "5")
    assert (code, out) == (2, "")
    assert err == "error: out of memory for this input size\n"


def test_huge_ground_set_below_pool_counts_0(capsys):
    # the pool of 2^(n-1) bipartitions at n = 10^19 is never built: k = 3
    # has fewer bits than n - 1, and 3 members cannot separate 10^19 elements
    code, out, err = run(capsys, "count", "tau", "--n", "10000000000000000000", "--k", "3")
    assert (code, out, err) == (0, "0\n", "")


def test_verify_bad_bounds_exit_2(capsys):
    assert run(capsys, "verify", "--n-max", "1")[0] == 2


def test_table_tau(capsys):
    code, out, _ = run(capsys, "table", "tau", "--n-max", "4", "--k-max", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == [1, 2, 3, 4]
    assert doc["rows"]["4"] == ["0", "3", "32", "64"]
    assert doc["rows"]["2"] == ["1", "1", "0 (forced)", "0 (forced)"]
    assert doc["rows"]["3"] == ["0", "3", "4", "1"]


def test_table_sigma_defaults(capsys):
    code, out, _ = run(capsys, "table", "sigma", "--n-max", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["k_max"] == 1
    assert doc["rows"]["2"] == ["1"]


def test_table_to_file(tmp_path, capsys):
    p = tmp_path / "t.json"
    assert main(["table", "tau", "--n-max", "3", "--out", str(p)]) == 0
    capsys.readouterr()
    doc = json.loads(p.read_text())
    assert doc["rows"]["3"] == ["0", "3", "4", "1"]


def test_table_unwritable_out_exit_2(tmp_path, capsys):
    bad = tmp_path / "missing_dir" / "t.json"
    assert run(capsys, "table", "tau", "--n-max", "3", "--out", str(bad))[0] == 2
