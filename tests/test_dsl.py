from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from regcat.dsl import parse_workspace, render_workspace
from regcat.errors import (
    AssignedTwice,
    DslSyntaxError,
    DuplicateName,
    NotTotal,
    UnknownReference,
    WorkspaceError,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

BASIC = """
set X = { a, b, c }
set Y = { p, q }
map f : X -> Y { a -> p, b -> p, c -> q }
diagram D { f }
"""


class TestParse:
    def test_sets_and_maps(self):
        ws = parse_workspace(BASIC)
        assert ws.sets["X"].elements == ("a", "b", "c")
        assert ws.maps["f"].table == (0, 0, 1)
        assert ws.diagrams["D"] == ("f",)

    def test_comments_and_whitespace(self):
        ws = parse_workspace("# hi\nset X={a}# tail\nmap f:X->X{a->a}\n")
        assert ws.maps["f"].table == (0,)

    def test_braiding(self):
        src = (
            "set A = { a0, a1 }\n"
            "braiding swap : A * A {\n"
            "  (a0, a0) -> (a0, a0), (a0, a1) -> (a1, a0),\n"
            "  (a1, a0) -> (a0, a1), (a1, a1) -> (a1, a1)\n"
            "}\n"
        )
        ws = parse_workspace(src)
        assert ws.braidings["swap"].map.table == (0, 2, 1, 3)

    def test_diagram_members_sorted(self):
        ws = parse_workspace(
            "set X = { a }\nmap g : X -> X { a -> a }\n"
            "map f : X -> X { a -> a }\ndiagram D { g, f }\n"
        )
        assert ws.diagrams["D"] == ("f", "g")

    def test_build_diagram_collects_endpoints(self):
        ws = parse_workspace(BASIC)
        d = ws.build_diagram("D")
        assert set(d.objects) == {"X", "Y"}
        assert list(d.edges) == ["f"]

    def test_fixture_files_parse(self):
        for p in sorted(FIXTURES.glob("*.rcw")):
            ws = parse_workspace(p.read_text())
            assert ws.sets


class TestParseErrors:
    def test_syntax_error_position(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse_workspace("set X = { a }\nmap f X -> X { a -> a }\n")
        assert exc.value.line == 2 and exc.value.col == 7

    def test_unknown_set(self):
        with pytest.raises(UnknownReference):
            parse_workspace("map f : X -> X { a -> a }")

    def test_unknown_element(self):
        with pytest.raises(UnknownReference):
            parse_workspace("set X = { a }\nmap f : X -> X { a -> b }")

    def test_not_total(self):
        with pytest.raises(NotTotal) as exc:
            parse_workspace("set X = { a, b }\nmap f : X -> X { a -> a }")
        assert exc.value.map_name == "f" and exc.value.element == "b"

    def test_braiding_not_total(self):
        with pytest.raises(NotTotal):
            parse_workspace(
                "set A = { a0, a1 }\nbraiding b : A * A { (a0, a0) -> (a0, a0) }"
            )

    def test_duplicate_names(self):
        with pytest.raises(DuplicateName):
            parse_workspace("set X = { a }\nset X = { b }")
        with pytest.raises(DuplicateName):
            parse_workspace("set X = { a, a }")

    # a body the parser would reject shows that the name is checked first
    @pytest.mark.parametrize("first, again", [
        ("set D = { d }", "set D = { a, a }"),
        ("map D : A -> A { a -> a, b -> b }", "map D : Nowhere -> A { a -> a }"),
        ("map f : A -> A { a -> a, b -> b }\ndiagram D { f }", "diagram D { nothing }"),
        ("braiding D : A * A { (a, a) -> (a, a), (a, b) -> (a, b), (b, a) -> (b, a),"
         " (b, b) -> (b, b) }", "braiding D : Nowhere * A { (a, a) -> (a, a) }"),
    ], ids=["set", "map", "diagram", "braiding"])
    def test_a_name_declared_twice_is_refused_before_its_body(self, first, again):
        with pytest.raises(DuplicateName) as exc:
            parse_workspace(f"set A = {{ a, b }}\n{first}\n{again}\n")
        assert (exc.value.name, str(exc.value)) == ("D", "name 'D' declared twice")

    def test_kinds_have_separate_names(self):
        ws = parse_workspace(
            "set A = { a }\nmap A : A -> A { a -> a }\ndiagram A { A }\n"
            "braiding A : A * A { (a, a) -> (a, a) }\n"
        )
        kinds = (ws.sets, ws.maps, ws.diagrams, ws.braidings)
        assert [list(kind) for kind in kinds] == [["A"]] * 4

    @pytest.mark.parametrize("source, message", [
        ("set = { a }", "line 1, column 5: expected set name"),
        ("set A = { a }\nmap -> A", "line 2, column 5: expected map name"),
        ("diagram\n  { f }", "line 2, column 3: expected diagram name"),
        ("braiding (", "line 1, column 10: expected braiding name"),
        ("set A = { a }\nbraiding", "line 2, column 9: expected braiding name"),
    ])
    def test_a_keyword_needs_a_name(self, source, message):
        with pytest.raises(DslSyntaxError) as exc:
            parse_workspace(source)
        assert str(exc.value) == message

    def test_duplicate_map_pair(self):
        with pytest.raises(AssignedTwice) as exc:
            parse_workspace("set X = { a }\nmap f : X -> X { a -> a, a -> a }")
        assert exc.value.map_name == "f" and exc.value.element == "a"

    def test_duplicate_braiding_pair(self):
        with pytest.raises(AssignedTwice) as exc:
            parse_workspace(
                "set A = { a }\nbraiding b : A * A { (a, a) -> (a, a), (a, a) -> (a, a) }"
            )
        assert exc.value.map_name == "b" and exc.value.element == "(a,a)"

    def test_stray_token(self):
        with pytest.raises(DslSyntaxError):
            parse_workspace("bogus X = { a }")

    def test_unknown_diagram_member(self):
        with pytest.raises(UnknownReference):
            parse_workspace("set X = { a }\ndiagram D { f }")


def _raised(source: str) -> tuple[type, dict]:
    with pytest.raises(WorkspaceError) as exc:
        parse_workspace("set A = { a, b }\n" + source)
    return type(exc.value), vars(exc.value)


class TestMapAndBraidingDefects:
    # a braiding is built as a map between the product carriers, whose labels
    # name its pairs, so both report a defect by the same rule

    @pytest.mark.parametrize("map_pairs, braiding_pairs, error, map_element, braiding_element", [
        ("a -> a, a -> b, b -> a", "(a, a) -> (a, a), (a, a) -> (b, b)",
         AssignedTwice, "a", "(a,a)"),
        ("a -> a", "(a, a) -> (a, a), (a, b) -> (b, a), (b, a) -> (a, b)",
         NotTotal, "b", "(b,b)"),
    ])
    def test_same_error_and_fields(self, map_pairs, braiding_pairs, error, map_element,
                                   braiding_element):
        assert _raised(f"map g : A -> A {{ {map_pairs} }}") == (
            error, {"map_name": "g", "element": map_element}
        )
        assert _raised(f"braiding g : A * A {{ {braiding_pairs} }}") == (
            error, {"map_name": "g", "element": braiding_element}
        )

    @pytest.mark.parametrize("map_pairs, braiding_pairs", [
        ("z -> a", "(a, z) -> (a, a)"),
        ("a -> z", "(a, a) -> (z, a)"),
        ("a -> a, b -> z", "(a, a) -> (a, a), (a, b) -> (a, z)"),
    ])
    def test_unknown_element_is_named_alone(self, map_pairs, braiding_pairs):
        for source in (f"map g : A -> A {{ {map_pairs} }}",
                       f"braiding g : A * A {{ {braiding_pairs} }}"):
            assert _raised(source) == (UnknownReference, {"name": "z"})

    @pytest.mark.parametrize("source, error", [
        ("map g : A -> A { a -> a, a -> b, b }", DslSyntaxError),
        ("braiding g : A * A { (a, a) -> (a, a), (a, a) -> (b, b), (b) }", DslSyntaxError),
        # a braiding looks up a pair's elements as it reads the pair
        ("braiding g : A * A { (a, a) -> (a, a), (a, a) -> (b, b), (a, z) -> (a, a) }",
         UnknownReference),
    ])
    def test_assigned_twice_is_reported_after_the_list(self, source, error):
        # so a later error that is found while the list is read wins
        assert _raised(source)[0] is error


# Near-grammatical workspaces over tiny name pools, after fixed declarations
# of X and Y, so that declarations often parse far enough to reach the semantic
# checks (repeated elements, unknown labels, missing assignments) and not
# just the tokenizer.
_SETS = st.sampled_from(["X", "Y"])
_LABELS = st.sampled_from(["a", "b"])


def _listed(item):
    return st.lists(item, min_size=1, max_size=3).map(", ".join)


_STATEMENTS = st.one_of(
    st.builds("set {} = {{ {} }}".format, _SETS, _listed(_LABELS)),
    st.builds(
        "map {} : {} -> {} {{ {} }}".format,
        st.sampled_from(["f", "g"]), _SETS, _SETS,
        _listed(st.builds("{} -> {}".format, _LABELS, _LABELS)),
    ),
    st.builds("diagram D {{ {} }}".format, _listed(st.sampled_from(["f", "g", "X"]))),
    st.builds(
        "braiding b : {} * {} {{ {} }}".format,
        _SETS, _SETS,
        _listed(st.builds("({}, {}) -> ({}, {})".format, _LABELS, _LABELS, _LABELS, _LABELS)),
    ),
    st.sampled_from(["{", "}", "->", "(", "# note", "set", "map X", "\u00e9"]),
)


class TestParseFuzz:
    @settings(max_examples=300)
    @given(st.one_of(st.text(), st.lists(_STATEMENTS, max_size=6).map(
        lambda stmts: "\n".join(["set X = { a, b }", "set Y = { a }", *stmts])
    )))
    def test_only_workspace_errors(self, source):
        try:
            parse_workspace(source)
        except WorkspaceError:
            pass


class TestRender:
    def test_fixpoint_on_fixtures(self):
        for p in sorted(FIXTURES.glob("*.rcw")):
            ws = parse_workspace(p.read_text())
            canon = render_workspace(ws)
            assert render_workspace(parse_workspace(canon)) == canon

    def test_fixpoint_basic(self):
        canon = render_workspace(parse_workspace(BASIC))
        assert render_workspace(parse_workspace(canon)) == canon

    def test_empty_workspace(self):
        assert render_workspace(parse_workspace("")) == ""

    def test_kinds_grouped_and_sorted(self):
        ws = parse_workspace(
            "set B = { b }\nset A = { a }\nmap z : A -> B { a -> b }\n"
            "map y : B -> A { b -> a }\n"
        )
        lines = render_workspace(ws).splitlines()
        assert lines[0].startswith("set A") and lines[1].startswith("set B")
        assert lines[2].startswith("map y")

    @given(
        st.integers(min_value=1, max_value=4),
        st.data(),
    )
    def test_fixpoint_random_maps(self, n, data):
        table = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1), min_size=n, max_size=n
            )
        )
        labels = ", ".join(f"x{i}" for i in range(n))
        pairs = ", ".join(f"x{i} -> x{v}" for i, v in enumerate(table))
        src = f"set X = {{ {labels} }}\nmap f : X -> X {{ {pairs} }}\n"
        canon = render_workspace(parse_workspace(src))
        assert render_workspace(parse_workspace(canon)) == canon
        assert parse_workspace(canon).maps["f"].table == tuple(table)
