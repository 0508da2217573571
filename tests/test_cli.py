import io
import json
import re
import shlex
import sys
import time
import traceback
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from regcat import cli
from regcat.cli import Report, main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MAPS = str(FIXTURES / "maps.rcw")
TRIANGLE = str(FIXTURES / "triangle.rcw")
BRAID = str(FIXTURES / "braid.rcw")


# p, q: A -> B disagree, r: B -> A, s: a constant loop at B
PQ = """set A = { a0, a1 }
set B = { b0, b1 }
map p : A -> B { a0 -> b0, a1 -> b1 }
map q : A -> B { a0 -> b1, a1 -> b0 }
map r : B -> A { b0 -> a0, b1 -> a1 }
map s : B -> B { b0 -> b0, b1 -> b0 }
diagram D { p, q, r, s }
"""


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


class TestCheckMap:
    def test_classification(self, capsys):
        code, rep = run_json(capsys, "check-map", MAPS, "--map", "f")
        assert code == 0 and rep["ok"]
        r = rep["result"]
        assert r["surjective"] and not r["injective"]
        assert r["retraction"] and not r["coretraction"]
        assert r["inner_inverse"] == {"p": "a", "q": "c"}

    def test_json_key_order(self, capsys):
        _, out = run(capsys, "check-map", MAPS, "--map", "f", "--json")
        keys = list(json.loads(out).keys())
        assert keys == ["command", "ok", "result", "witnesses", "counts"]

    def test_unknown_map_is_usage_error(self, capsys):
        code, _ = run(capsys, "check-map", MAPS, "--map", "nope")
        assert code == 2


class TestInverses:
    def test_inner_listing(self, capsys):
        code, rep = run_json(capsys, "inverses", MAPS, "--map", "f", "--kind", "inner")
        assert code == 0
        assert rep["counts"]["inverses"] == 2
        assert rep["result"]["inverses"] == [
            {"p": "a", "q": "c"},
            {"p": "b", "q": "c"},
        ]

    def test_count_only(self, capsys):
        code, rep = run_json(
            capsys, "inverses", MAPS, "--map", "f", "--kind", "outer", "--count-only"
        )
        assert code == 0 and rep["counts"]["inverses"] == 5
        assert "inverses" not in rep["result"]

    def test_max_space_exit3(self, capsys):
        code, _ = run(
            capsys, "inverses", MAPS, "--map", "f", "--kind", "inner", "--max-space", "2"
        )
        assert code == 3

    @pytest.mark.parametrize("limit, truncated", [("1", True), ("2", False)])
    def test_truncated_only_past_the_last_inverse(self, capsys, limit, truncated):
        # f has exactly 2 inner inverses
        code, rep = run_json(
            capsys, "inverses", MAPS, "--map", "f", "--kind", "inner", "--limit", limit
        )
        assert code == 0 and rep["result"]["truncated"] is truncated
        assert rep["counts"]["inverses"] == int(limit)

    def test_counts_nodes(self, capsys):
        nodes = {}
        for kind in ("inner", "outer", "generalized"):
            _, rep = run_json(capsys, "inverses", MAPS, "--map", "f", "--kind", kind)
            assert list(rep["counts"]) == ["inverses", "nodes"]
            nodes[kind] = rep["counts"]["nodes"]
        assert nodes == {"inner": 2, "outer": 12, "generalized": 4}


class TestChainAndProjector:
    def test_check_periodic(self, capsys):
        code, rep = run_json(
            capsys, "chain", MAPS, "--map", "f", "--n", "3",
            "--stars", "fstar,f,fstar",
        )
        assert code == 0 and rep["ok"]
        r = rep["result"]
        assert r["odd_closure"] and r["even_closure"] and r["ef_form"]
        assert r["obstructor"] == {"a": "a", "b": "a", "c": "c"}

    def test_check_failure_exit1(self, capsys):
        # f itself cannot be its own star (typing) -> usage error instead
        code, _ = run(capsys, "chain", MAPS, "--map", "f", "--n", "1", "--stars", "f")
        assert code == 2

    def test_search(self, capsys):
        code, rep = run_json(capsys, "chain", MAPS, "--map", "f", "--n", "1", "--search")
        assert code == 0 and rep["counts"]["chains"] == 2

    def test_search_counts_nodes(self, capsys):
        code, rep = run_json(capsys, "chain", MAPS, "--map", "f", "--n", "2", "--search")
        assert code == 0 and rep["counts"] == {"chains": 4, "nodes": 6}
        assert rep["result"]["truncated"] is False

    def test_missing_stars_and_search(self, capsys):
        code, _ = run(capsys, "chain", MAPS, "--map", "f", "--n", "1")
        assert code == 2

    def test_projector(self, capsys):
        code, rep = run_json(capsys, "projector", MAPS, "--map", "f", "--stars", "fstar")
        assert code == 0 and rep["ok"]
        assert rep["result"]["side"] == "codomain"
        assert rep["result"]["projector"] == {"p": "p", "q": "q"}


class TestDiagramCommands:
    def test_semicommutative_ok(self, capsys):
        code, rep = run_json(
            capsys, "diagram", TRIANGLE, "--name", "D",
            "--mode", "semicommutative", "--max-len", "3",
        )
        assert code == 0 and rep["ok"] and rep["witnesses"] == []

    def test_commutative_fails_with_witness(self, capsys):
        code, rep = run_json(
            capsys, "diagram", TRIANGLE, "--name", "D",
            "--mode", "commutative", "--max-len", "3",
        )
        assert code == 1 and not rep["ok"]
        kinds = {w["kind"] for w in rep["witnesses"]}
        assert "cycle" in kinds or "parallel_paths" in kinds

    def test_obstruction_number(self, capsys):
        code, rep = run_json(
            capsys, "obstruction", TRIANGLE, "--name", "D",
            "--object", "X", "--max-n", "5",
        )
        # a found obstruction is an answer, not a failed property
        assert code == 0
        assert rep["result"]["n_obstr"] == 3
        assert rep["result"]["cycle"]["edges"] == ["f", "g", "h"]

    def test_cycles3(self, capsys):
        code, rep = run_json(capsys, "cycles3", TRIANGLE, "--name", "D")
        assert code == 0 and rep["counts"]["cycles3"] == 1
        c = rep["result"]["cycles"][0]
        assert c["edges"] == ["f", "g", "h"]
        assert c["obstructor"] == {"x0": "x0", "x1": "x1", "x2": "x1"}

    @pytest.mark.parametrize("argv, counts", [
        # the triangle holds: the element pass decides, and no trail is walked
        (("diagram", TRIANGLE, "--name", "D", "--mode", "semicommutative", "--max-len", "3"),
         {"paths": 0, "cycles": 0, "states": 21}),
        # the pass fails at the third element of X, then the walk names the cycle
        (("diagram", TRIANGLE, "--name", "D", "--mode", "commutative", "--max-len", "3"),
         {"paths": 9, "cycles": 1, "states": 9}),
        (("obstruction", TRIANGLE, "--name", "D", "--object", "X", "--max-n", "5"),
         {"paths": 3, "cycles": 1, "states": 10}),
        # the source and the target walk, 9 prefixes and 3 closed paths each
        (("functor", TRIANGLE, "--from", "D", "--to", "D", "--objects", "X=X,Y=Y,Z=Z",
          "--maps", "f=f,g=g,h=h", "--n", "3"), {"paths": 18, "cycles": 6, "states": 0}),
        # one walk of three edges from each base closes the one rotation class 3 times
        (("cycles3", TRIANGLE, "--name", "D"),
         {"cycles3": 1, "paths": 9, "cycles": 3, "states": 0}),
        # p, q: A -> B disagree, so the pass stops after 4 states; the walk then
        # composes 8 prefixes to find the first disagreeing pair
        (("diagram", "<pq>", "--name", "D", "--mode", "commutative", "--max-len", "3"),
         {"paths": 8, "cycles": 4, "states": 4}),
    ])
    def test_walk_counters(self, capsys, tmp_path, argv, counts):
        # prefixes composed, closed paths checked and states expanded, the same on every run
        pq = tmp_path / "pq.rcw"
        pq.write_text(PQ)
        argv = [str(pq) if a == "<pq>" else a for a in argv]
        runs = [run_json(capsys, *argv)[1]["counts"] for _ in range(2)]
        assert runs == [counts, counts]

    @pytest.mark.parametrize("argv, paths", [
        # the triangle holds: the element pass decides, and no trail is walked
        (("diagram", TRIANGLE, "--name", "D", "--mode", "semicommutative", "--max-len", "3"), 0),
        (("diagram", TRIANGLE, "--name", "D", "--mode", "commutative", "--max-len", "3"), 9),
        (("obstruction", TRIANGLE, "--name", "D", "--object", "X", "--max-n", "5"), 3),
        # each of the functor's two walks, source and target, composes 9 prefixes
        (("functor", TRIANGLE, "--from", "D", "--to", "D", "--objects", "X=X,Y=Y,Z=Z",
          "--maps", "f=f,g=g,h=h", "--n", "3"), 9),
        # three bases, each with paths of one and two edges and one closed path of three
        (("cycles3", TRIANGLE, "--name", "D"), 9),
        # more prefixes than states: the walk alone exceeds a bound below 8
        (("diagram", "<pq>", "--name", "D", "--mode", "commutative", "--max-len", "3"), 8),
    ])
    def test_max_space_bounds_the_walk(self, capsys, tmp_path, argv, paths):
        # the element pass may expand as many states as the bound, and the trail
        # walk compose as many path prefixes, each on its own, and no more
        pq = tmp_path / "pq.rcw"
        pq.write_text(PQ)
        argv = [str(pq) if a == "<pq>" else a for a in argv]
        code, rep = run_json(capsys, *argv)
        states = rep["counts"].get("states", 0)
        # the functor reports its two walks together
        walks = 2 if argv[0] == "functor" else 1
        assert rep["counts"].get("paths", walks * paths) == walks * paths
        assert run(capsys, *argv, "--max-space", str(max(states, paths)))[0] == code
        for count, unit in ((states, "element states"), (paths, "path prefixes")):
            if count:
                bound = count - 1
                # the pass runs first, so it refuses first when both exceed the bound
                unit = "element states" if states > bound else unit
                assert main([*argv, "--max-space", str(bound)]) == 3
                assert capsys.readouterr() == (
                    "", f"error: search space of {bound + 1} {unit} exceeds the bound {bound}\n")

    def test_long_ring_needs_no_recursion(self, tmp_path, capsys):
        # 1,200 one-element objects in a ring: the only cycle has 1,200 edges
        n = 1200
        lines = [f"set O{i} = {{ o{i} }}" for i in range(n)]
        lines += [f"map l{i} : O{i} -> O{(i + 1) % n} {{ o{i} -> o{(i + 1) % n} }}" for i in range(n)]
        lines.append("diagram L { " + ", ".join(f"l{i}" for i in range(n)) + " }")
        ring = tmp_path / "ring.rcw"
        ring.write_text("\n".join(lines) + "\n")
        # the ring holds on the element graph: each start reaches every object once
        code, rep = run_json(capsys, "obstruction", str(ring), "--name", "L",
                             "--object", "O0", "--max-n", str(n))
        assert code == 0 and rep["result"]["n_obstr"] is None
        assert rep["counts"] == {"paths": 0, "cycles": 0, "states": n}
        code, rep = run_json(capsys, "diagram", str(ring), "--name", "L",
                             "--mode", "commutative", "--max-len", str(n))
        assert code == 0 and rep["result"]["verdict"]
        assert rep["counts"] == {"paths": 0, "cycles": 0, "states": n * n}
        # a second element at O0 that the cycle moves: the pass fails, and the
        # trail walk goes once round the ring to name the 1,200-edge cycle
        lines[0] = "set O0 = { o0, p0 }"
        lines[n] = "map l0 : O0 -> O1 { o0 -> o1, p0 -> o1 }"
        ring.write_text("\n".join(lines) + "\n")
        code, rep = run_json(capsys, "obstruction", str(ring), "--name", "L",
                             "--object", "O0", "--max-n", str(n))
        assert code == 0 and rep["result"]["n_obstr"] == n
        # o0 goes round once; p0 goes round to o0, whose next step is known
        assert rep["counts"] == {"paths": n, "cycles": 1, "states": 2 * n}

    @pytest.mark.parametrize("argv, code", [
        (("diagram", TRIANGLE, "--name", "D", "--mode", "semicommutative", "--max-len"), 0),
        (("diagram", TRIANGLE, "--name", "D", "--mode", "commutative", "--max-len"), 1),
        (("obstruction", TRIANGLE, "--name", "D", "--object", "X", "--max-n"), 0),
        (("functor", TRIANGLE, "--from", "D", "--to", "D", "--objects", "X=X,Y=Y,Z=Z",
          "--maps", "f=f,g=g,h=h", "--n"), 0),
    ])
    def test_a_huge_length_bound_costs_nothing_by_itself(self, capsys, argv, code):
        # the triangle's paths have at most 3 edges, whatever the bound on their length
        start = time.perf_counter()
        assert main([*argv, "1000000000"]) == code
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == ""

    def test_functor_identity(self, capsys):
        code, rep = run_json(
            capsys, "functor", TRIANGLE, "--from", "D", "--to", "D",
            "--objects", "X=X,Y=Y,Z=Z", "--maps", "f=f,g=g,h=h", "--n", "3",
        )
        assert code == 0 and rep["ok"]
        assert rep["result"]["composition_preserved"]
        assert rep["result"]["e_preserved"]


class TestBraidCommands:
    def test_braid_check_with_e(self, capsys):
        code, rep = run_json(
            capsys, "braid-check", BRAID, "--braiding", "swap", "--e", "e0"
        )
        assert code == 0 and rep["result"]["ybe_holds"]
        assert rep["result"]["bijective"]

    def test_braid_check_canonical_star(self, capsys):
        code, rep = run_json(capsys, "braid-check", BRAID, "--braiding", "swap")
        assert code == 0 and rep["result"]["regular_with_canonical_star"]

    def test_ybe_classical_s2(self, capsys):
        code, rep = run_json(
            capsys, "ybe", "--size", "2", "--mode", "classical", "--count-only"
        )
        assert code == 0 and rep["counts"]["solutions"] == 43

    def test_ybe_regular_all(self, capsys):
        code, rep = run_json(
            capsys, "ybe", "--size", "2", "--mode", "regular", "--e", "all",
            "--count-only",
        )
        assert rep["counts"]["solutions"] == 141

    def test_ybe_explicit_table(self, capsys):
        code, rep = run_json(
            capsys, "ybe", "--size", "2", "--mode", "regular",
            "--e", "table:0,0", "--count-only",
        )
        assert code == 0 and rep["counts"]["solutions"] > 0

    @pytest.mark.parametrize("table, entries", [("0,1,0", 3), ("0", 1)])
    def test_ybe_table_of_the_wrong_length_is_usage_error(self, capsys, table, entries):
        code = main(["ybe", "--size", "2", "--mode", "regular", "--e", f"table:{table}"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: --e table has {entries} entries, expected 2\n"

    def test_ybe_bad_e_spec(self, capsys):
        code, _ = run(capsys, "ybe", "--size", "2", "--mode", "regular", "--e", "huh")
        assert code == 2

    def test_ybe_negative_size_is_usage_error(self, capsys):
        code, out = run(capsys, "ybe", "--size", "-1", "--mode", "regular", "--count-only")
        assert code == 2 and out == ""

    def test_ybe_zero_jobs_is_usage_error(self, capsys):
        code, out = run(
            capsys, "ybe", "--size", "2", "--mode", "regular", "--count-only", "--jobs", "0"
        )
        assert code == 2 and out == ""

    def test_ybe_max_space_bounds_the_search(self, capsys):
        start = time.perf_counter()
        code, out = run(
            capsys, "ybe", "--size", "4", "--mode", "regular", "--count-only",
            "--max-space", "10",
        )
        assert code == 3 and out == ""
        assert time.perf_counter() - start < 10

    def test_ybe_all_idempotents_of_a_large_carrier_stops_at_the_bound(self, capsys):
        # the 6,322 idempotents of 7 elements are built, not found among 7^7 maps
        start = time.perf_counter()
        code, out = run(
            capsys, "ybe", "--size", "7", "--mode", "regular", "--e", "all",
            "--max-space", "10",
        )
        assert code == 3 and out == ""
        assert time.perf_counter() - start < 3

    @pytest.mark.parametrize("argv", [
        # the triple list grows s at a time as the search first reaches each entry
        ("--size", "30"),
        ("--size", "200"),
        # the 293,608 idempotents of 9 elements are built as the search takes them
        ("--size", "9", "--e", "all"),
    ])
    def test_ybe_set_up_stays_within_the_bound(self, capsys, argv):
        start = time.perf_counter()
        code, out = run(capsys, "ybe", *argv, "--mode", "regular", "--max-space", "10")
        assert code == 3 and out == ""
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("e", ["identity", "all"])
    def test_ybe_refuses_a_large_carrier_before_building_it(self, capsys, e):
        # 10⁵ labels would take megabytes; the refusal needs only s²
        argv = ("ybe", "--size", "100000", "--mode", "regular", "--e", e, "--max-space", "10")
        run(capsys, "ybe", "--size", "4", "--mode", "regular", "--max-space", "10")  # imports
        tracemalloc.start()
        try:
            code = main(list(argv))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, capsys.readouterr()) == (3, (
            "", "error: search space of 10000000000 candidate tables exceeds the bound 10\n"))
        assert peak < 1_000_000

    def test_ybe_counts_a_member_at_its_class_representatives_cost(self, capsys):
        # table:2,2,2 is searched through table:0,0,0, whatever member is asked for
        argv = ("ybe", "--size", "3", "--mode", "regular", "--bijective", "--count-only")
        _, member = run_json(capsys, *argv, "--e", "table:2,2,2")
        _, rep = run_json(capsys, *argv, "--e", "table:0,0,0")
        assert member["counts"] == rep["counts"] == {
            "solutions": 150, "nodes": 2555, "triples": 4463}

    def test_ybe_reports_work_counters(self, capsys):
        argv = ("ybe", "--size", "2", "--mode", "regular", "--e", "all")
        _, one = run_json(capsys, *argv, "--jobs", "1")
        _, two = run_json(capsys, *argv, "--jobs", "2")
        assert one["counts"]["solutions"] == 141
        assert one["counts"]["nodes"] > 0 and one["counts"]["triples"] > 0
        assert json.dumps(one) == json.dumps(two)


# S's identity i and swap t go to T's constant k and swap w: the composites
# t∘i, i∘t and t∘t miss their images, i is not sent to an identity, and each
# 2-cycle at A is sent to a path that differs from the other 2-cycle at B
FUNCTOR = """set A = { a0, a1 }
set B = { b0, b1 }
map i : A -> A { a0 -> a0, a1 -> a1 }
map t : A -> A { a0 -> a1, a1 -> a0 }
map k : B -> B { b0 -> b0, b1 -> b0 }
map w : B -> B { b0 -> b1, b1 -> b0 }
diagram S { i, t }
diagram T { k, w }
"""

# swap is not regular with the constant flat, and bad breaks the YBE for the identity
BRAIDINGS = """set A = { a0, a1 }
map idA : A -> A { a0 -> a0, a1 -> a1 }
braiding swap : A * A { (a0, a0) -> (a0, a0), (a0, a1) -> (a1, a0),
                        (a1, a0) -> (a0, a1), (a1, a1) -> (a1, a1) }
braiding flat : A * A { (a0, a0) -> (a0, a0), (a0, a1) -> (a0, a0),
                        (a1, a0) -> (a0, a0), (a1, a1) -> (a0, a0) }
braiding bad : A * A { (a0, a0) -> (a0, a1), (a0, a1) -> (a0, a0),
                       (a1, a0) -> (a0, a0), (a1, a1) -> (a0, a0) }
"""

# P = f∘s is the 3-cycle f itself; P = g∘k is the constant b, idempotent but not absorbing
PROJECTORS = """set X = { a, b, c }
map f : X -> X { a -> b, b -> c, c -> a }
map s : X -> X { a -> a, b -> b, c -> c }
map g : X -> X { a -> b, b -> a, c -> c }
map k : X -> X { a -> a, b -> a, c -> a }
"""


def _cycle(base, *edges):
    return {"base": base, "edges": list(edges)}


class TestFailureWitnesses:
    # each command's --json report when its check fails, pinned byte for byte

    @pytest.mark.parametrize("workspace, argv, result, witnesses, counts", [
        (FUNCTOR, ["functor", "--from", "S", "--to", "T", "--objects", "A=B",
                   "--maps", "i=k,t=w", "--n", "2"],
         {"from": "S", "to": "T", "n": 2, "composition_preserved": False,
          "e_preserved": False},
         [{"kind": "composition", "edges": ["i", "t"], "composite": "t"},
          {"kind": "composition", "edges": ["t", "i"], "composite": "t"},
          {"kind": "composition", "edges": ["t", "t"], "composite": "i"},
          {"kind": "identity", "edge": "i"},
          {"kind": "obstructor", "source_cycle": _cycle("A", "i", "t"),
           "target_cycle": _cycle("B", "w", "k")},
          {"kind": "obstructor", "source_cycle": _cycle("A", "t", "i"),
           "target_cycle": _cycle("B", "k", "w")}],
         # the source and the target walk together; no element pass runs
         {"paths": 8, "cycles": 8, "states": 0}),
        (BRAIDINGS, ["braid-check", "--braiding", "swap", "--star", "flat"],
         {"braiding": "swap", "bijective": True, "regular_with_star": False},
         [{"kind": "regularity", "star": "flat"}], {}),
        (BRAIDINGS, ["braid-check", "--braiding", "bad", "--e", "idA"],
         {"braiding": "bad", "bijective": False,
          "canonical_star": {"(a0,a0)": "(a0,a1)", "(a0,a1)": "(a0,a0)",
                             "(a1,a0)": "(a0,a0)", "(a1,a1)": "(a0,a0)"},
          "regular_with_canonical_star": True, "ybe_holds": False},
         [{"kind": "ybe", "triple": ["a0", "a0", "a0"]}], {}),
        (PROJECTORS, ["projector", "--map", "f", "--stars", "s"],
         {"map": "f", "order": 1, "side": "codomain", "idempotent": False,
          "absorption": False, "projector": {"a": "b", "b": "c", "c": "a"}},
         [{"projector": {"a": "b", "b": "c", "c": "a"}}], {}),
        (PROJECTORS, ["projector", "--map", "g", "--stars", "k"],
         {"map": "g", "order": 1, "side": "codomain", "idempotent": True,
          "absorption": False, "projector": {"a": "b", "b": "b", "c": "b"}},
         [{"projector": {"a": "b", "b": "b", "c": "b"}}], {}),
    ], ids=["functor", "braid-check-star", "braid-check-e", "projector-not-idempotent",
            "projector-not-absorbing"])
    def test_json_report_of_a_failure(self, workspace, argv, result, witnesses, counts,
                                      tmp_path, capsys):
        path = tmp_path / "w.rcw"
        path.write_text(workspace)
        code, out = run(capsys, argv[0], str(path), *argv[1:], "--json")
        report = {"command": argv[0], "ok": False, "result": result,
                  "witnesses": witnesses, "counts": counts}
        assert (code, out) == (1, json.dumps(report, indent=2) + "\n")


# the constant a absorbs every obstructor and the swap b none: each of the
# cycles [a], [b], [a, b] and [b, a] fails at b, and [a, b] begins with [a]
LOOPS = """set X = { x0, x1 }
map a : X -> X { x0 -> x0, x1 -> x0 }
map b : X -> X { x0 -> x1, x1 -> x0 }
diagram L { a, b }
"""

# the tower u, k, v over f fails at orders 1 and 3 at c, and at order 2 at q
CHAIN = """set X = { a, b, c }
set Y = { p, q }
map f : X -> Y { a -> p, b -> p, c -> q }
map u : Y -> X { p -> a, q -> b }
map k : X -> Y { a -> p, b -> p, c -> p }
map v : Y -> X { p -> a, q -> a }
"""


@pytest.mark.parametrize("workspace, argv, failures", [
    (LOOPS, ["diagram", "--name", "L", "--mode", "semicommutative", "--max-len", "2"], 4),
    (CHAIN, ["chain", "--map", "f", "--n", "3", "--stars", "u,k,v"], 3),
    (FUNCTOR, ["functor", "--from", "S", "--to", "T", "--objects", "A=B",
               "--maps", "i=k,t=w", "--n", "2"], 6),
], ids=["diagram", "chain", "functor"])
def test_json_lists_the_witnesses_in_the_order_of_the_text(workspace, argv, failures,
                                                           tmp_path, capsys):
    path = tmp_path / "w.rcw"
    path.write_text(workspace)
    code, text = run(capsys, argv[0], str(path), *argv[1:])
    _, rep = run_json(capsys, argv[0], str(path), *argv[1:])
    lines = [line for line in text.splitlines() if line.startswith("  witness: ")]
    assert code == 1 and len(lines) == failures
    assert [f"  witness: {w}" for w in rep["witnesses"]] == lines


class TestTopLevel:
    def test_missing_file(self, capsys):
        code = main(["check-map", "--map", "f"])
        assert code == 2

    def test_nonexistent_file(self, capsys):
        code = main(["check-map", "/no/such/file.rcw", "--map", "f"])
        assert code == 2

    def test_parse_error_exit2(self, tmp_path, capsys):
        bad = tmp_path / "bad.rcw"
        bad.write_text("set X = { a\n")
        code = main(["check-map", str(bad), "--map", "f"])
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("command, options", [
        ("check-map", ["--map"]),
        ("inverses", ["--max-space", "--map", "--kind", "--count-only", "--limit"]),
        ("chain", ["--max-space", "--map", "--n", "--search", "--limit", "--stars"]),
        ("projector", ["--map", "--stars"]),
        ("diagram", ["--max-space", "--name", "--mode", "--max-len"]),
        ("obstruction", ["--max-space", "--name", "--object", "--max-n"]),
        ("cycles3", ["--max-space", "--name"]),
        ("functor", ["--max-space", "--from", "--to", "--objects", "--maps", "--n"]),
        ("braid-check", ["--braiding", "--star", "--e"]),
        ("ybe", ["--max-space", "--size", "--mode", "--e", "--bijective", "--count-only",
                 "--jobs"]),
    ])
    def test_subcommand_help_lists_its_options(self, command, options, capsys):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: regcat {command} ")
        positionals = [] if command == "ybe" else ["file"]
        listed = re.findall(r"^  (-h, --help|\S+)", out, re.M)
        assert listed == [*positionals, "-h, --help", "--json", *options]

    @pytest.mark.parametrize("argv", [
        ("check-map", MAPS, "--map", "f"),
        ("projector", MAPS, "--map", "f", "--stars", "fstar"),
        ("braid-check", BRAID, "--braiding", "swap"),
    ])
    def test_max_space_is_refused_where_nothing_is_searched(self, argv, capsys):
        assert main(list(argv)) == 0
        capsys.readouterr()
        assert main([*argv, "--max-space", "5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.endswith("error: unrecognized arguments: --max-space 5\n")

    def test_an_option_a_subcommand_does_not_take_is_reported_with_its_usage(self, capsys):
        assert main(["check-map", MAPS, "--map", "f", "--max-space", "5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: regcat check-map [-h] ")
        assert err.endswith("\nregcat check-map: error: unrecognized arguments: --max-space 5\n")
        # one placed before the subcommand is left to the top-level parser
        assert main(["--bogus", "check-map", MAPS, "--map", "f"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: regcat [-h]")
        assert err.endswith("\nregcat: error: unrecognized arguments: --bogus\n")

    def test_text_output_mentions_verdict(self, capsys):
        code, out = run(
            capsys, "diagram", TRIANGLE, "--name", "D",
            "--mode", "semicommutative", "--max-len", "3",
        )
        assert code == 0 and out.startswith("diagram: ok")

    def test_json_byte_identical(self, capsys):
        _, out1 = run(capsys, "cycles3", TRIANGLE, "--name", "D", "--json")
        _, out2 = run(capsys, "cycles3", TRIANGLE, "--name", "D", "--json")
        assert out1 == out2


SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, "\u00e9\U0001f600",
                       "\x00\x1f\"\\\n\u2028"])
)
# json turns an int, float, bool or None key into text
ANY_KEYS = st.text(max_size=3) | st.integers() | st.booleans() | st.none() | st.floats()


def _containers_with(keys):
    def extend(inner):
        lists = st.lists(inner, max_size=3)
        return lists | lists.map(tuple) | st.dictionaries(keys, inner, max_size=3)

    return extend


def _values(keys):
    return st.recursive(SCALARS, _containers_with(keys), max_leaves=10)


WITNESSES = st.lists(st.dictionaries(ANY_KEYS, _values(ANY_KEYS), max_size=3), max_size=6)


@settings(max_examples=100, deadline=None)
@given(WITNESSES)
def test_json_report_keeps_the_witnesses_order(witnesses):
    # read back, the report's witnesses are json's reading of them, in the same order
    listed = json.loads(Report("c", {}, witnesses).to_json())["witnesses"]
    assert json.dumps(listed) == json.dumps(json.loads(json.dumps(witnesses)))


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(ANY_KEYS, _values(ANY_KEYS), max_size=4),
    WITNESSES,
    st.dictionaries(ANY_KEYS, _values(ANY_KEYS), max_size=2),
)
def test_json_report_is_the_indented_dump(result, witnesses, counts):
    payload = {
        "command": "c",
        "ok": not witnesses,
        "result": result,
        "witnesses": witnesses,
        "counts": counts,
    }
    assert Report("c", result, witnesses, counts).to_json() == json.dumps(payload, indent=2)


@given(_values(ANY_KEYS))
def test_any_value_is_written_as_the_indented_dump(value):
    assert cli._indented_json(value) == json.dumps(value, indent=2)


@given(_containers_with(ANY_KEYS)(_values(ANY_KEYS)), _values(ANY_KEYS))
def test_a_shared_container_is_written_as_the_indented_dump(shared, other):
    # one container repeated within a level and at three depths, as the
    # witnesses of one cycle share its dict; each copy takes its depth's indent
    value = [shared, {"a": shared, "b": [shared, other, shared]}, shared, other]
    assert cli._indented_json(value) == json.dumps(value, indent=2)
    assert cli._indented_json([value, value]) == json.dumps([value, value], indent=2)


@pytest.mark.parametrize("key", [(1, 2), b"k", frozenset()])
def test_a_key_json_cannot_write_is_refused_as_json_refuses_it(key):
    with pytest.raises(TypeError) as want:
        json.dumps({key: 1}, indent=2)
    with pytest.raises(TypeError) as got:
        Report("c", {key: 1}).to_json()
    assert str(got.value) == str(want.value)


def test_deep_nesting_needs_no_recursion():
    value = 0
    for i in range(300):
        value = {"k": value} if i % 2 else [value, []]
    want = json.dumps({"command": "c", "ok": True, "result": {"deep": value},
                       "witnesses": [], "counts": {}}, indent=2)
    # 100 frames above this one: too few for a writer that recurses per level
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(traceback.extract_stack()) + 100)
    try:
        out = Report("c", {"deep": value}).to_json()
    finally:
        sys.setrecursionlimit(limit)
    assert out == want


README_FIXTURE_COMMANDS = [
    shlex.split(line)[1:]
    for line in (Path(__file__).resolve().parent.parent / "README.md").read_text()
    .replace("\\\n", "").splitlines()
    if line.startswith("regcat ") and "fixtures/" in line
]


@pytest.mark.parametrize("argv", README_FIXTURE_COMMANDS, ids=" ".join)
def test_readme_commands_print_the_indented_dump_of_their_report(argv, monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES.parent)
    main([*argv, "--json"])
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_readme_lists_the_fixture_commands():
    assert {argv[0] for argv in README_FIXTURE_COMMANDS} == set(cli.SUBCOMMANDS) - {"ybe"}


def test_a_large_report_is_written_without_the_encoder_chunks():
    # 10,000 witnesses of the shape a semicommutative check finds, about 2 MB
    # of JSON: on Python 3.11 json.dumps(indent=2) peaks at 15.5 MB, since it
    # joins a list of every chunk, and the writer at 6.9 MB
    witnesses = [
        {"kind": "absorption",
         "cycle": {"base": f"R{i % 40}",
                   "edges": [f"e{(7 * i + j) % 300}" for j in range(1 + i % 6)]},
         "edge": f"e{i % 300}"}
        for i in range(10_000)
    ]
    report = Report("diagram", {"verdict": False}, witnesses, {"paths": 1})
    tracemalloc.start()
    try:
        out = report.to_json()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out == json.dumps(json.loads(out), indent=2)
    assert peak < 10_000_000


NOT_UTF8 = "<a workspace file that is not UTF-8>"

# a search under --limit is not sized; it stops at one node past --max-space
INVERSES_LIMITED = ("inverses", MAPS, "--map", "f", "--kind", "inner", "--limit", "5")
CHAIN_LIMITED = ("chain", MAPS, "--map", "f", "--n", "100000", "--search", "--limit", "0")
LIMITED = [  # (argv, the nodes it builds, what they are)
    (INVERSES_LIMITED, 2, "inverse tables"),
    (("inverses", MAPS, "--map", "f", "--kind", "outer", "--limit", "1"), 4, "table entries"),
    (("inverses", MAPS, "--map", "f", "--kind", "generalized", "--limit", "0"), 2,
     "table entries"),
    (("chain", MAPS, "--map", "f", "--n", "1000", "--search", "--limit", "0"), 1000,
     "star tables"),
]


class TestExitCodes:
    @pytest.mark.parametrize("argv", [
        ("diagram", TRIANGLE, "--name", "D", "--mode", "commutative", "--max-len", "-3"),
        ("obstruction", TRIANGLE, "--name", "D", "--object", "X", "--max-n", "-1"),
        ("inverses", MAPS, "--map", "f", "--kind", "inner", "--limit", "-1"),
        ("inverses", MAPS, "--map", "f", "--kind", "inner", "--max-space", "-5"),
        ("chain", MAPS, "--map", "f", "--n", "0", "--search"),
        ("ybe", "--size", "2", "--mode", "regular", "--e", "table:x,y"),
        ("check-map", NOT_UTF8, "--map", "f"),
        ("ybe", "--size", "2", "--mode", "classical", "--e", "table:0,0"),
        ("projector", MAPS, "--map", "f", "--stars", ","),
    ])
    def test_bad_input_is_usage_error(self, argv, tmp_path, capsys):
        bad = tmp_path / "latin1.rcw"
        bad.write_bytes("set X = { \u00e9 }\n".encode("latin-1"))
        code = main([str(bad) if a == NOT_UTF8 else a for a in argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert "error:" in err and "Traceback" not in err
        if NOT_UTF8 in argv:
            assert f"error: {bad}: " in err

    @pytest.mark.parametrize("argv, counted", [
        (("functor", TRIANGLE, "--from", "D", "--to", "D", "--objects", "X=X,Y=Y,Z=Z",
          "--maps", "f=f,g=g,h=h", "--n", "3", "--max-space", "8"),
         "9 path prefixes exceeds the bound 8\n"),
        (("ybe", "--size", "2", "--mode", "classical", "--count-only", "--max-space", "3"),
         "4 candidate tables exceeds the bound 3\n"),
        (("inverses", MAPS, "--map", "f", "--kind", "inner", "--max-space", "2"),
         "3^2 candidate maps exceeds the bound 2; pass a limit to truncate\n"),
        (("chain", MAPS, "--map", "f", "--n", "2", "--search", "--max-space", "2"),
         "3^2*2^3 candidate towers exceeds the bound 2; pass a limit to truncate\n"),
        (("diagram", TRIANGLE, "--name", "D", "--mode", "semicommutative", "--max-len", "3",
          "--max-space", "8"), "9 element states exceeds the bound 8\n"),
    ])
    def test_bound_names_what_it_counts(self, argv, counted, capsys):
        assert main(list(argv)) == 3
        assert capsys.readouterr() == ("", f"error: search space of {counted}")

    @pytest.mark.parametrize("argv, bound, counted", [
        (INVERSES_LIMITED, 0, "inverse tables"),
        (CHAIN_LIMITED, 10, "star tables"),
        *((argv, nodes - 1, counted) for argv, nodes, counted in LIMITED),
    ])
    def test_a_limited_search_is_refused_past_the_bound(self, argv, bound, counted, capsys):
        assert main([*argv, "--max-space", str(bound)]) == 3
        assert capsys.readouterr() == (
            "", f"error: search space of {bound + 1} {counted} exceeds the bound {bound}\n")

    @pytest.mark.parametrize("argv, nodes, counted", LIMITED)
    def test_a_limited_search_runs_up_to_the_bound(self, argv, nodes, counted, capsys):
        code, rep = run_json(capsys, *argv, "--max-space", str(nodes))
        assert code == 0 and rep["counts"]["nodes"] == nodes

    @pytest.mark.parametrize("argv, shown", [
        (("chain", MAPS, "--map", "f", "--n", "20000", "--search"), "3^20000*2^30000"),
        (("chain", MAPS, "--map", "f", "--n", str(2**53), "--search"),
         "3^9007199254740992*2^13510798882111488"),
        (("chain", MAPS, "--map", "f", "--n", str(10**30), "--search"),
         "3^1000000000000000000000000000000*2^1500000000000000000000000000000"),
        # one candidate map per map from the 16,000-element codomain
        (("inverses", "<wide>", "--map", "f", "--kind", "inner"), "2^16000"),
        (("inverses", "<wide>", "--map", "f", "--kind", "generalized"), "2^16000"),
    ])
    def test_a_large_space_is_shown_as_exact_powers(self, argv, shown, tmp_path, capsys):
        wide = tmp_path / "wide.rcw"
        codomain = ", ".join(f"b{i}" for i in range(16_000))
        wide.write_text(f"set A = {{ a0, a1 }}\nset B = {{ {codomain} }}\n"
                        "map f : A -> B { a0 -> b0, a1 -> b1 }\n")
        t = time.perf_counter()
        assert main([str(wide) if a == "<wide>" else a for a in argv]) == 3
        assert time.perf_counter() - t < 0.5
        assert capsys.readouterr() == ("", f"error: search space of {shown} candidate "
                                       f"{'maps' if argv[0] == 'inverses' else 'towers'} exceeds "
                                       "the bound 100000000; pass a limit to truncate\n")

    def test_an_integer_past_the_digit_limit_ends_in_one_error_line(self, capsys):
        # int() reads and str() writes at most `digits` digits
        digits = sys.get_int_max_str_digits()
        entry = "9" * (digits + 700)
        assert main(["ybe", "--size", "1", "--mode", "regular", "--e", f"table:{entry}"]) == 2
        assert capsys.readouterr() == (
            "", f"error: --e table has an entry of more than {digits} digits\n")
        # both exponents of the tower space have more digits than --n
        assert main(["chain", MAPS, "--map", "f", "--n", "9" * digits, "--search"]) == 3
        huge = f"<more than {digits} digits>"
        assert capsys.readouterr() == (
            "", f"error: search space of 3^{huge}*2^{huge} candidate towers exceeds the bound "
            "100000000; pass a limit to truncate\n")

    def test_out_of_memory_is_a_resource_error(self, monkeypatch, capsys):
        def exhausted(ws, ns):
            raise MemoryError

        monkeypatch.setitem(cli.HANDLERS, "check-map", exhausted)
        assert main(["check-map", MAPS, "--map", "f"]) == 3
        assert capsys.readouterr() == ("", "error: out of memory\n")


# argv for main(): every subcommand with its flags, the three fixtures, names
# declared in them and small integers, negatives included.  Each call stays
# cheap: --size and --jobs at most 2, short paths and towers.
SMALL = st.integers(-2, 4).map(str)
MAPS_IN_FIXTURES = st.sampled_from(["f", "fstar", "g", "h", "e0", "idA"])
STARS = st.sampled_from(["", "fstar", "fstar,f", "fstar,f,fstar", "f", "g,h", ",,"])
MAX_SPACE = st.sampled_from(["-1", "0", "3", "100000"])
FLAGS = {
    "check-map": {"--map": MAPS_IN_FIXTURES},
    "inverses": {
        "--max-space": MAX_SPACE,
        "--map": MAPS_IN_FIXTURES,
        "--kind": st.sampled_from(["inner", "outer", "generalized", "bogus"]),
        "--count-only": st.none(),
        "--limit": SMALL,
    },
    "chain": {
        "--max-space": MAX_SPACE, "--map": MAPS_IN_FIXTURES, "--n": SMALL,
        "--search": st.none(), "--limit": SMALL, "--stars": STARS,
    },
    "projector": {"--map": MAPS_IN_FIXTURES, "--stars": STARS},
    "diagram": {
        "--max-space": MAX_SPACE,
        "--name": st.just("D"),
        "--mode": st.sampled_from(["commutative", "semicommutative", "bogus"]),
        "--max-len": SMALL,
    },
    "obstruction": {
        "--max-space": MAX_SPACE, "--name": st.just("D"),
        "--object": st.sampled_from(["X", "Y", "W"]), "--max-n": SMALL,
    },
    "cycles3": {"--max-space": MAX_SPACE, "--name": st.just("D")},
    "functor": {
        "--max-space": MAX_SPACE,
        "--from": st.just("D"),
        "--to": st.just("D"),
        "--objects": st.sampled_from(["X=X,Y=Y,Z=Z", "X=Y,Y=Z,Z=X", "X=X", "X", ""]),
        "--maps": st.sampled_from(["f=f,g=g,h=h", "f=g,g=h,h=f", "f=f", "f", ""]),
        "--n": SMALL,
    },
    "braid-check": {
        "--braiding": st.sampled_from(["swap", "e0"]),
        "--star": st.sampled_from(["swap", "e0"]),
        "--e": MAPS_IN_FIXTURES,
    },
    "ybe": {
        "--max-space": MAX_SPACE,
        "--size": st.integers(-1, 2).map(str),
        "--mode": st.sampled_from(["classical", "regular"]),
        "--e": st.sampled_from(
            ["identity", "all", "table:0,0", "table:1,1", "table:0,1", "table:1,0",
             "table:0", "table:x,y", "table:", "huh"]
        ),
        "--bijective": st.none(),
        "--count-only": st.none(),
        "--jobs": st.integers(-1, 2).map(str),
    },
}
COMMON = {"--json": st.none()}
OPTIONAL = {
    "--json", "--max-space", "--count-only", "--limit", "--search", "--star", "--e",
    "--bijective", "--jobs",
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = [command]
    if command != "ybe":
        argv.append(draw(st.sampled_from([MAPS, TRIANGLE, BRAID])))
    flags = {**COMMON, **FLAGS[command]}
    chosen = draw(st.fixed_dictionaries(
        {k: v for k, v in flags.items() if k not in OPTIONAL},
        optional={k: v for k, v in flags.items() if k in OPTIONAL},
    ))
    for flag, value in chosen.items():
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=150, deadline=None)
@given(argvs())
def test_main_returns_an_exit_code(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)
