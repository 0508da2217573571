import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    S,
    fm,
    oracle_all_cycles,
    oracle_cycles_at,
    oracle_functor_composition,
    oracle_functor_obstructors,
    oracle_is_commutative,
    oracle_is_semicommutative,
    oracle_obstruction_number,
    oracle_regular_3cycles,
)
from regcat.core import FiniteSet, compose, compose_path, identity, tensor
from regcat.diagrams import (
    Cycle,
    Diagram,
    FunctorData,
    RegularThreeCycle,
    all_cycles,
    check_regular_functor,
    cycles_at,
    find_regular_3cycles,
    is_commutative,
    is_cycle_morphism,
    is_semicommutative,
    obstruction_number,
    obstructor,
    path_compose,
    product_3cycle,
)
from regcat.errors import (
    BrokenPath,
    DuplicateName,
    IncompatibleEdgeMap,
    NotRegular,
    TypeMismatch,
    UnknownObject,
    UnknownReference,
)

X = S("X", 3)
Y = S("Y", 2)
Z = S("Z", 2)
TRI = Diagram.build(
    [X, Y, Z],
    [
        fm("f", X, Y, (0, 1, 1)),
        fm("g", Y, Z, (0, 1)),
        fm("h", Z, X, (0, 1)),
    ],
)


class TestDiagramBuild:
    def test_duplicate_object(self):
        with pytest.raises(DuplicateName):
            Diagram.build([X, X], [])

    def test_dangling_edge(self):
        with pytest.raises(UnknownReference):
            Diagram.build([X], [fm("f", X, Y, (0, 1, 1))])

    def test_endpoint_must_be_the_declared_object(self):
        # an edge whose endpoint shares an id with a declared object but not its size
        with pytest.raises(TypeMismatch):
            Diagram.build([X, Y], [fm("f", S("X", 2), Y, (0, 1))])

    def test_endpoint_labels_may_differ(self):
        # same id and size, other labels: accepted, as compose accepts it, and checked
        relabelled = FiniteSet("X", ("p", "q", "r"))
        d = Diagram.build([X, Y], [fm("f", relabelled, Y, (0, 1, 1)), fm("g", Y, X, (0, 2))])
        assert obstruction_number(d, "X", 2).n_obstr == 2
        assert is_semicommutative(d, 2).semicommutative

    def test_edges_from_sorted(self):
        d = Diagram.build([X, Y], [fm("b", X, Y, (0, 0, 0)), fm("a", X, Y, (0, 0, 1))])
        assert d.edges_from("X") == ["a", "b"]


class TestPaths:
    def test_path_compose(self):
        assert path_compose(TRI, ["f", "g", "h"]).table == (0, 1, 1)

    def test_path_compose_is_compose_path(self):
        # same table and name as composing the path's FinMaps
        for path in (["f"], ["f", "g"], ["f", "g", "h"], ["g", "h", "f", "g"]):
            got = path_compose(TRI, path)
            want = compose_path([TRI.edges[name] for name in path])
            assert (got, got.name) == (want, want.name)

    def test_broken_path(self):
        with pytest.raises(BrokenPath):
            path_compose(TRI, ["f", "h"])

    def test_unknown_edge(self):
        with pytest.raises(UnknownReference):
            path_compose(TRI, ["nope"])

    def test_cycles_at_triangle(self):
        cs = list(cycles_at(TRI, "X", 3))
        assert cs == [Cycle("X", ("f", "g", "h"))]
        assert list(cycles_at(TRI, "X", 1)) == []
        assert list(cycles_at(TRI, "X", 2)) == []

    def test_unknown_base(self):
        with pytest.raises(UnknownObject):
            list(cycles_at(TRI, "W", 3))

    def test_all_cycles_covers_rotations(self):
        bases = {c.base for c in all_cycles(TRI, 3)}
        assert bases == {"X", "Y", "Z"}


class TestObstructorsAndCommutativity:
    def test_triangle_obstructor(self):
        rep = obstructor(TRI, Cycle("X", ("f", "g", "h")))
        assert rep.e.table == (0, 1, 1)
        assert not rep.is_identity and rep.is_idempotent

    def test_triangle_semicommutative_not_commutative(self):
        assert is_semicommutative(TRI, 3).semicommutative
        rep = is_commutative(TRI, 3)
        assert not rep.commutative
        assert rep.violations[0][0] == "cycle"

    def test_identity_triangle_commutative(self):
        A = S("A", 2)
        d = Diagram.build([A], [fm("i", A, A, (0, 1))])
        assert is_commutative(d, 2).commutative
        assert is_semicommutative(d, 2).semicommutative

    def test_parallel_path_violation(self):
        A, B = S("A", 2), S("B", 2)
        d = Diagram.build(
            [A, B], [fm("p", A, B, (0, 1)), fm("q", A, B, (1, 0))]
        )
        rep = is_commutative(d, 1)
        assert not rep.commutative
        assert rep.violations[0][0] == "parallel_paths"

    def test_semicommutative_violation_names_edge(self):
        A = S("A", 2)
        d = Diagram.build([A], [fm("e", A, A, (1, 0))])  # swap: e∘e=id but e∘e≠e... cycle length 1
        rep = is_semicommutative(d, 1)
        assert not rep.semicommutative
        kind, cyc, edge = rep.violations[0]
        assert kind == "absorption" and edge == "e"

    def test_obstruction_number_triangle(self):
        rep = obstruction_number(TRI, "X", 5)
        assert rep.n_obstr == 3
        assert rep.witness == Cycle("X", ("f", "g", "h"))

    def test_obstruction_number_none(self):
        A = S("A", 2)
        d = Diagram.build([A], [fm("i", A, A, (0, 1))])
        rep = obstruction_number(d, "A", 4)
        assert rep.n_obstr is None and rep.witness is None

    def test_random_semicommutative_obstructors_idempotent(self):
        # the absorption law forces e∘e = e whenever e factors through an
        # edge leaving the base; sample random triangles and check
        rng = random.Random(7)
        checked = 0
        while checked < 200:
            nx, ny, nz = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            A, B, C = S("A", nx), S("B", ny), S("C", nz)
            f = fm("f", A, B, tuple(rng.randrange(ny) for _ in range(nx)))
            g = fm("g", B, C, tuple(rng.randrange(nz) for _ in range(ny)))
            h = fm("h", C, A, tuple(rng.randrange(nx) for _ in range(nz)))
            d = Diagram.build([A, B, C], [f, g, h])
            if not is_semicommutative(d, 3).semicommutative:
                continue
            for c in all_cycles(d, 3):
                assert obstructor(d, c).is_idempotent
            checked += 1


class TestRegularThreeCycles:
    def test_triangle_has_exactly_one(self):
        cycles = find_regular_3cycles(TRI)
        assert len(cycles) == 1
        c = cycles[0]
        assert (c.f.name, c.g.name, c.h.name) == ("f", "g", "h")
        assert c.obstructor.table == (0, 1, 1)

    def test_not_regular_raises(self):
        A = S("A", 2)
        sw = fm("s", A, A, (1, 0))
        cn = fm("c", A, A, (0, 0))
        with pytest.raises(NotRegular):
            RegularThreeCycle(A, A, A, sw, cn, sw)

    def test_identity_cycle_morphism(self):
        c = find_regular_3cycles(TRI)[0]
        assert is_cycle_morphism(identity(X), c, c)

    def test_obstructor_itself_is_morphism(self):
        c = find_regular_3cycles(TRI)[0]
        assert is_cycle_morphism(c.obstructor, c, c)

    def test_product_cycle(self):
        c = find_regular_3cycles(TRI)[0]
        p = product_3cycle(c, c)
        assert p.x.cardinality == 9
        assert p.obstructor == tensor(c.obstructor, c.obstructor)
        assert compose(p.f, p.obstructor) == p.f


class TestFunctors:
    def _identity_functor(self, d):
        return FunctorData(
            d,
            d,
            {o: o for o in d.objects},
            {e: e for e in d.edges},
        )

    def test_identity_functor_passes(self):
        rep = check_regular_functor(self._identity_functor(TRI), 3)
        assert rep.composition_preserved and rep.e_preserved
        assert rep.violations == ()

    def test_level1_identity_preservation(self):
        A, B = S("A", 2), S("B", 2)
        src = Diagram.build([A], [fm("i", A, A, (0, 1))])
        tgt = Diagram.build([B], [fm("j", B, B, (0, 0))])
        fd = FunctorData(src, tgt, {"A": "B"}, {"i": "j"})
        rep = check_regular_functor(fd, 1)
        assert not rep.e_preserved
        assert rep.violations[0] == ("identity", "i")

    def test_composition_violation(self):
        A = S("A", 2)
        sw = fm("s", A, A, (1, 0))
        idm = fm("i", A, A, (0, 1))
        cn = fm("c", A, A, (0, 0))
        src = Diagram.build([A], [sw, idm])   # s∘s = i is a named edge
        tgt = Diagram.build([A], [fm("s", A, A, (1, 0)), fm("i", A, A, (0, 0))])
        fd = FunctorData(src, tgt, {"A": "A"}, {"s": "s", "i": "i"})
        rep = check_regular_functor(fd, 1)
        assert not rep.composition_preserved

    def test_endpoint_validation(self):
        A, B = S("A", 2), S("B", 3)
        src = Diagram.build([A], [fm("i", A, A, (0, 1))])
        tgt = Diagram.build([A, B], [fm("j", A, B, (0, 1))])
        fd = FunctorData(src, tgt, {"A": "A"}, {"i": "j"})
        with pytest.raises(IncompatibleEdgeMap):
            check_regular_functor(fd, 1)

    def test_level3_obstructor_preservation(self):
        # collapse the triangle onto its obstructor's image inside one object
        e = fm("e", X, X, (0, 1, 1))
        tgt = Diagram.build([X], [e, fm("k", X, X, (0, 1, 1)), fm("l", X, X, (0, 1, 2))])
        fd = FunctorData(
            TRI,
            tgt,
            {"X": "X", "Y": "X", "Z": "X"},
            {"f": "e", "g": "l", "h": "l"},
        )
        # images compose to e∘l∘l = e at X; single length-3 target cycle per
        # rotation uses e exactly once, so all obstructors are e as well
        rep = check_regular_functor(fd, 3)
        assert rep.e_preserved


class TestWalk:
    # p, q: A -> B disagree, r: B -> A, s: a constant loop at B
    A2, B2 = S("A", 2), S("B", 2)
    D = Diagram.build([A2, B2], [
        fm("p", A2, B2, (0, 1)), fm("q", A2, B2, (1, 0)),
        fm("r", B2, A2, (0, 1)), fm("s", B2, B2, (0, 0)),
    ])

    def test_semicommutative_counters(self):
        # cycle walks skip paths of full length that leave their base:
        # (p, s), (q, s) and (s, r) are never composed
        rep = is_semicommutative(self.D, 2)
        assert (rep.paths, rep.cycles) == (8, 5)
        assert [v[1:] for v in rep.violations] == [
            (Cycle("B", ("s",)), "r"),
            (Cycle("A", ("q", "r")), "p"), (Cycle("A", ("q", "r")), "q"),
            (Cycle("B", ("r", "q")), "r"),
        ]

    def test_commutative_counters(self):
        # at A, q disagrees with p and (q, r) is not the identity, so the walk
        # stops at one edge; at B only the loop s, shorter still, is composed
        rep = is_commutative(self.D, 2)
        assert (rep.paths, rep.cycles) == (6, 3)
        assert rep.violations == (
            ("cycle", Cycle("B", ("s",))), ("parallel_paths", ("p",), ("q",)))

    def test_obstruction_counters(self):
        rep = obstruction_number(self.D, "B", 2)
        assert (rep.n_obstr, rep.witness) == (1, Cycle("B", ("s",)))
        assert (rep.paths, rep.cycles) == (4, 3)

    def test_counters_take_no_part_in_equality(self):
        rep = is_commutative(self.D, 2)
        assert rep == type(rep)(rep.commutative, rep.violations)

    def test_absorption_is_decided_per_base(self):
        # both loops have the obstructor (0, 0); only A's edge f fails to absorb it
        A, B, C = S("A", 2), S("B", 2), S("C", 2)
        d = Diagram.build([A, B, C], [
            fm("ea", A, A, (0, 0)), fm("f", A, C, (0, 1)), fm("eb", B, B, (0, 0)),
        ])
        rep = is_semicommutative(d, 1)
        assert rep.violations == (("absorption", Cycle("A", ("ea",)), "f"),)
        assert rep == oracle_is_semicommutative(d, 1)

    def test_long_cycle(self):
        # the walk keeps no Python frame per edge
        n = 3000
        d = ring(n)
        rep = obstruction_number(d, "O0", n)
        assert rep.n_obstr is None and (rep.paths, rep.cycles) == (n, 1)
        assert [c.length for c in cycles_at(d, "O0", n)] == [n]

    def test_ring_walk_keeps_no_path_per_end(self):
        # each of the 300 ends is reached first by a path of up to 300 edges; the
        # walk keeps it as a link to its parent, not as a tuple of 150 names on average
        d = ring(300)
        tracemalloc.start()
        try:
            rep = is_commutative(d, 300)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rep.commutative and rep.paths == 300 * 300
        assert peak < 300_000

    @pytest.mark.parametrize("check", [
        is_semicommutative,
        is_commutative,
        lambda d, bound: list(all_cycles(d, bound)),
        lambda d, bound: check_regular_functor(
            FunctorData(d, d, {o: o for o in d.objects}, {e: e for e in d.edges}), bound),
    ], ids=["semicommutative", "commutative", "all_cycles", "functor"])
    def test_a_large_bound_costs_nothing_by_itself(self, check):
        # the triangle's longest simple path has 3 edges, so a bound of 10⁶
        # reads the same paths as a bound of 3 and keeps nothing per length
        tracemalloc.start()
        try:
            got = check(TRI, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == check(TRI, 3)
        assert peak < 1_000_000

    def test_ring_3cycles_and_composition_are_not_quadratic(self):
        # the ring has no 3-cycle and no edge that is a composite: a sweep of
        # all pairs of its 3,000 edges takes seconds, a walk milliseconds
        d = ring(3000)
        fd = FunctorData(d, d, {o: o for o in d.objects}, {e: e for e in d.edges})
        for check, empty in ((lambda: find_regular_3cycles(d), []),
                             (lambda: check_regular_functor(fd, 1).violations, ())):
            start = time.perf_counter()
            assert check() == empty
            assert time.perf_counter() - start < 0.5


def ring(n):
    """n one-element objects in a ring of n edges."""
    objs = [S(f"O{i}", 1) for i in range(n)]
    return Diagram.build(objs, [fm(f"l{i}", objs[i], objs[(i + 1) % n], (0,)) for i in range(n)])


# --- the walk against the length-by-length oracle -----------------------------


def assert_walk_matches_oracle(d, max_len):
    """Every walk-based check returns the oracle's report, violations in order."""
    assert is_commutative(d, max_len) == oracle_is_commutative(d, max_len)
    assert is_semicommutative(d, max_len) == oracle_is_semicommutative(d, max_len)
    assert list(all_cycles(d, max_len)) == list(oracle_all_cycles(d, max_len))
    for base in sorted(d.objects):
        assert obstruction_number(d, base, max_len) == oracle_obstruction_number(d, base, max_len)
        for n in range(1, max_len + 1):
            assert list(cycles_at(d, base, n)) == list(oracle_cycles_at(d, base, n))


@st.composite
def diagrams(draw, prefix="O", max_objects=3, max_edges=5):
    """Up to 3 objects of up to 3 elements and up to 5 edges, loops and parallels included."""
    sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=max_objects))
    objs = [S(f"{prefix}{i}", n) for i, n in enumerate(sizes)]
    edges = []
    for k in range(draw(st.integers(0, max_edges))):
        a = draw(st.sampled_from(objs))
        b = draw(st.sampled_from([o for o in objs if o.cardinality or not a.cardinality]))
        table = draw(st.lists(st.integers(0, max(b.cardinality - 1, 0)),
                              min_size=a.cardinality, max_size=a.cardinality))
        edges.append(fm(f"{prefix.lower()}{k}", a, b, table))
    return Diagram.build(objs, edges)


@settings(max_examples=150, deadline=None)
@given(diagrams(), st.integers(1, 4))
def test_walk_matches_oracle(d, max_len):
    assert_walk_matches_oracle(d, max_len)


@st.composite
def functors(draw):
    """A source diagram, a target holding an image for each source edge, and the maps."""
    src = draw(diagrams("A"))
    # images of empty objects are empty, of the others not, so every image edge exists
    tgt_objs = [S("B0", 0)] + [S(f"B{i}", n) for i, n in enumerate(
        draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)), start=1)]
    object_map = {}
    for o in sorted(src.objects):
        fits = [t for t in tgt_objs if bool(t.cardinality) == bool(src.objects[o].cardinality)]
        object_map[o] = draw(st.sampled_from(fits)).id
    tgt = draw(diagrams("C"))  # extra edges, on objects of their own
    by_id = {t.id: t for t in tgt_objs}
    edges, edge_map = [], {}
    for name in sorted(src.edges):
        m = src.edges[name]
        a, b = by_id[object_map[m.dom.id]], by_id[object_map[m.cod.id]]
        reuse = [e for e in edges if e.dom.id == a.id and e.cod.id == b.id]
        if reuse and draw(st.booleans()):
            edge_map[name] = draw(st.sampled_from(reuse)).name
            continue
        table = draw(st.lists(st.integers(0, max(b.cardinality - 1, 0)),
                              min_size=a.cardinality, max_size=a.cardinality))
        edges.append(fm(f"img{len(edges)}", a, b, table))
        edge_map[name] = edges[-1].name
    for k in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(tgt_objs)), draw(st.sampled_from(tgt_objs))
        if a.cardinality and not b.cardinality:
            continue
        table = draw(st.lists(st.integers(0, max(b.cardinality - 1, 0)),
                              min_size=a.cardinality, max_size=a.cardinality))
        edges.append(fm(f"extra{k}", a, b, table))
    target = Diagram.build([*tgt_objs, *tgt.objects.values()], [*edges, *tgt.edges.values()])
    return FunctorData(src, target, object_map, edge_map)


@settings(max_examples=100, deadline=None)
@given(functors(), st.integers(1, 4))
def test_functor_obstructors_match_oracle(fd, n):
    rep = check_regular_functor(fd, n)
    obstructed = [v for v in rep.violations if v[0] == "obstructor"]
    assert obstructed == oracle_functor_obstructors(fd, n)
    identity_ok = not any(v[0] == "identity" for v in rep.violations)
    assert rep.e_preserved == (identity_ok and not obstructed)


@settings(max_examples=200, deadline=None)
@given(diagrams(max_edges=6))
def test_regular_3cycles_match_oracle(d):
    def summary(cycles):
        return [((c.f.name, c.g.name, c.h.name), c.obstructor.table) for c in cycles]

    assert summary(find_regular_3cycles(d)) == summary(oracle_regular_3cycles(d))


@settings(max_examples=100, deadline=None)
@given(functors())
def test_functor_composition_matches_oracle(fd):
    rep = check_regular_functor(fd, 1)
    composition = [v for v in rep.violations if v[0] == "composition"]
    assert composition == oracle_functor_composition(fd)
    assert rep.composition_preserved == (not composition)


def test_walk_matches_oracle_on_criterion_6_samples():
    # the generator of acceptance criterion 6, same seed, first 300 samples
    rng = random.Random(20260823)
    for _ in range(300):
        objs = [S(f"O{i}", rng.randint(1, 3)) for i in range(rng.randint(1, 3))]
        edges = []
        for k in range(rng.randint(1, 5)):
            a, b = rng.choice(objs), rng.choice(objs)
            edges.append(fm(f"e{k}", a, b, tuple(rng.randrange(b.cardinality) for _ in range(a.cardinality))))
        assert_walk_matches_oracle(Diagram.build(objs, edges), 4)
