import io
import json
import re
import time
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
        assert nodes == {"inner": 2, "outer": 12, "generalized": 2}


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
        (("diagram", TRIANGLE, "--name", "D", "--mode", "semicommutative", "--max-len", "3"),
         {"paths": 9, "cycles": 3}),
        (("diagram", TRIANGLE, "--name", "D", "--mode", "commutative", "--max-len", "3"),
         {"paths": 9, "cycles": 1}),
        (("obstruction", TRIANGLE, "--name", "D", "--object", "X", "--max-n", "5"),
         {"paths": 3, "cycles": 1}),
    ])
    def test_walk_counters(self, capsys, argv, counts):
        # prefixes composed and closed paths checked, the same on every run
        runs = [run_json(capsys, *argv)[1]["counts"] for _ in range(2)]
        assert runs == [counts, counts]

    @pytest.mark.parametrize("argv, paths", [
        (("diagram", TRIANGLE, "--name", "D", "--mode", "semicommutative", "--max-len", "3"), 9),
        (("diagram", TRIANGLE, "--name", "D", "--mode", "commutative", "--max-len", "3"), 9),
        (("obstruction", TRIANGLE, "--name", "D", "--object", "X", "--max-n", "5"), 3),
        # each of the functor's two walks, source and target, composes 9 prefixes
        (("functor", TRIANGLE, "--from", "D", "--to", "D", "--objects", "X=X,Y=Y,Z=Z",
          "--maps", "f=f,g=g,h=h", "--n", "3"), 9),
        # three bases, each with paths of one and two edges and one closed path of three
        (("cycles3", TRIANGLE, "--name", "D"), 9),
    ])
    def test_max_space_bounds_the_walk(self, capsys, argv, paths):
        # a walk may compose as many path prefixes as the bound, and no more
        code, _ = run(capsys, *argv)
        assert run(capsys, *argv, "--max-space", str(paths))[0] == code
        assert run(capsys, *argv, "--max-space", str(paths - 1)) == (3, "")

    def test_long_ring_needs_no_recursion(self, tmp_path, capsys):
        # 1,200 one-element objects in a ring: the only cycle has 1,200 edges
        n = 1200
        lines = [f"set O{i} = {{ o{i} }}" for i in range(n)]
        lines += [f"map l{i} : O{i} -> O{(i + 1) % n} {{ o{i} -> o{(i + 1) % n} }}" for i in range(n)]
        lines.append("diagram L { " + ", ".join(f"l{i}" for i in range(n)) + " }")
        ring = tmp_path / "ring.rcw"
        ring.write_text("\n".join(lines) + "\n")
        code, rep = run_json(capsys, "obstruction", str(ring), "--name", "L",
                             "--object", "O0", "--max-n", str(n))
        assert code == 0 and rep["result"]["n_obstr"] is None
        assert rep["counts"] == {"paths": n, "cycles": 1}
        code, rep = run_json(capsys, "diagram", str(ring), "--name", "L",
                             "--mode", "commutative", "--max-len", str(n))
        assert code == 0 and rep["result"]["verdict"]
        assert rep["counts"] == {"paths": n * n, "cycles": n}

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

    def test_ybe_reports_work_counters(self, capsys):
        argv = ("ybe", "--size", "2", "--mode", "regular", "--e", "all")
        _, one = run_json(capsys, *argv, "--jobs", "1")
        _, two = run_json(capsys, *argv, "--jobs", "2")
        assert one["counts"]["solutions"] == 141
        assert one["counts"]["nodes"] > 0 and one["counts"]["triples"] > 0
        assert json.dumps(one) == json.dumps(two)


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
        ("inverses", ["--map", "--kind", "--count-only", "--limit"]),
        ("chain", ["--map", "--n", "--search", "--limit", "--stars"]),
        ("projector", ["--map", "--stars"]),
        ("diagram", ["--name", "--mode", "--max-len"]),
        ("obstruction", ["--name", "--object", "--max-n"]),
        ("cycles3", ["--name"]),
        ("functor", ["--from", "--to", "--objects", "--maps", "--n"]),
        ("braid-check", ["--braiding", "--star", "--e"]),
        ("ybe", ["--size", "--mode", "--e", "--bijective", "--count-only", "--jobs"]),
    ])
    def test_subcommand_help_lists_its_options(self, command, options, capsys):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: regcat {command} ")
        positionals = [] if command == "ybe" else ["file"]
        listed = re.findall(r"^  (-h, --help|\S+)", out, re.M)
        assert listed == [*positionals, "-h, --help", "--json", "--max-space", *options]

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


def _json_containers(inner):
    return st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4)
    | st.floats(allow_nan=False, allow_infinity=False),
    _json_containers,
    max_leaves=8,
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.dictionaries(st.text(max_size=3), JSON_VALUES, max_size=3), max_size=8))
def test_witnesses_sort_by_their_sorted_json(witnesses):
    # the report's shared encoder orders them as json.dumps(w, sort_keys=True) does
    listed = json.loads(Report("c", {}, witnesses).to_json())["witnesses"]
    assert listed == sorted(witnesses, key=lambda w: json.dumps(w, sort_keys=True))


NOT_UTF8 = "<a workspace file that is not UTF-8>"


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
        (("diagram", TRIANGLE, "--name", "D", "--mode", "semicommutative", "--max-len", "3",
          "--max-space", "8"), "9 path prefixes exceeds the bound 8\n"),
        (("ybe", "--size", "2", "--mode", "classical", "--count-only", "--max-space", "3"),
         "4 candidate tables exceeds the bound 3\n"),
        (("inverses", MAPS, "--map", "f", "--kind", "inner", "--max-space", "2"),
         "9 candidate maps exceeds the bound 2; pass a limit to truncate\n"),
        (("chain", MAPS, "--map", "f", "--n", "2", "--search", "--max-space", "2"),
         "72 candidate towers exceeds the bound 2; pass a limit to truncate\n"),
    ])
    def test_bound_names_what_it_counts(self, argv, counted, capsys):
        assert main(list(argv)) == 3
        assert capsys.readouterr() == ("", f"error: search space of {counted}")

    @pytest.mark.parametrize("argv, shown", [
        # 72^10000 candidate towers
        (("chain", MAPS, "--map", "f", "--n", "20000", "--search"), "at least 10^18573"),
        # 2^16000 candidate maps, one per map from the 16,000-element codomain
        (("inverses", "<wide>", "--map", "f", "--kind", "inner"), "at least 10^4816"),
        (("inverses", "<wide>", "--map", "f", "--kind", "generalized"), "at least 10^4816"),
    ])
    def test_a_space_too_large_to_print_is_shown_as_a_power_of_ten(
        self, argv, shown, tmp_path, capsys
    ):
        wide = tmp_path / "wide.rcw"
        codomain = ", ".join(f"b{i}" for i in range(16_000))
        wide.write_text(f"set A = {{ a0, a1 }}\nset B = {{ {codomain} }}\n"
                        "map f : A -> B { a0 -> b0, a1 -> b1 }\n")
        assert main([str(wide) if a == "<wide>" else a for a in argv]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"error: search space of {shown} ")

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
FLAGS = {
    "check-map": {"--map": MAPS_IN_FIXTURES},
    "inverses": {
        "--map": MAPS_IN_FIXTURES,
        "--kind": st.sampled_from(["inner", "outer", "generalized", "bogus"]),
        "--count-only": st.none(),
        "--limit": SMALL,
    },
    "chain": {
        "--map": MAPS_IN_FIXTURES, "--n": SMALL, "--search": st.none(), "--limit": SMALL,
        "--stars": STARS,
    },
    "projector": {"--map": MAPS_IN_FIXTURES, "--stars": STARS},
    "diagram": {
        "--name": st.just("D"),
        "--mode": st.sampled_from(["commutative", "semicommutative", "bogus"]),
        "--max-len": SMALL,
    },
    "obstruction": {
        "--name": st.just("D"), "--object": st.sampled_from(["X", "Y", "W"]), "--max-n": SMALL,
    },
    "cycles3": {"--name": st.just("D")},
    "functor": {
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
COMMON = {"--json": st.none(), "--max-space": st.sampled_from(["-1", "0", "3", "100000"])}
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
