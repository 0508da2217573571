from itertools import product

import pytest
from hypothesis import given, strategies as st

from helpers import S, fm, maps_between, pointwise_compose
from regcat.core import (
    FinMap,
    FiniteSet,
    ProductSet,
    Subset,
    build_map,
    check_subset_regularity,
    classify_map,
    compose,
    compose_path,
    direct_image,
    identity,
    inverse_image,
    subsets_lex,
    tensor,
)
from regcat.errors import (
    DuplicateAssignment,
    MissingAssignment,
    SubsetDomainMismatch,
    TypeMismatch,
    UnknownLabel,
)

X3 = S("X", 3)
Y2 = S("Y", 2)
Z2 = S("Z", 2)


class TestBuildMap:
    def test_transcription(self):
        X = FiniteSet("X", ("a", "b", "c"))
        Y = FiniteSet("Y", ("p", "q"))
        f = build_map("f", X, Y, [("a", "p"), ("b", "p"), ("c", "q")])
        assert f.table == (0, 0, 1)

    def test_singleton(self):
        X = FiniteSet("X", ("a",))
        Y = FiniteSet("Y", ("p",))
        assert build_map("f", X, Y, [("a", "p")]).table == (0,)

    def test_missing_assignment(self):
        X = FiniteSet("X", ("a", "b"))
        Y = FiniteSet("Y", ("p",))
        with pytest.raises(MissingAssignment) as exc:
            build_map("f", X, Y, [("a", "p")])
        assert exc.value.label == "b"

    def test_duplicate_assignment(self):
        X = FiniteSet("X", ("a",))
        Y = FiniteSet("Y", ("p",))
        with pytest.raises(DuplicateAssignment):
            build_map("f", X, Y, [("a", "p"), ("a", "p")])

    def test_unknown_label(self):
        X = FiniteSet("X", ("a",))
        Y = FiniteSet("Y", ("p",))
        with pytest.raises(UnknownLabel):
            build_map("f", X, Y, [("a", "nope")])


class TestCompose:
    def test_pointwise(self):
        f = fm("f", X3, Y2, (0, 0, 1))
        g = fm("g", Y2, Z2, (1, 0))
        assert compose(g, f).table == (1, 1, 0)

    def test_identity_unit(self):
        f = fm("f", X3, Y2, (0, 0, 1))
        assert compose(identity(Y2), f) == f
        assert compose(f, identity(X3)) == f

    def test_type_mismatch(self):
        f = fm("f", X3, Y2, (0, 0, 1))
        g = fm("g", Z2, X3, (0, 1))
        with pytest.raises(TypeMismatch):
            compose(g, f)

    def test_associativity_exhaustive_size2(self):
        sets = [S("A", 1), S("B", 2), S("C", 2), S("D", 1)]
        for f in maps_between(sets[0], sets[1]):
            for g in maps_between(sets[1], sets[2]):
                for h in maps_between(sets[2], sets[3]):
                    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


class TestComposePath:
    def test_is_the_compose_fold(self):
        # the name written out and the table folded pointwise, one step at a time
        A, B, C = S("A", 2), S("B", 3), S("C", 2)
        h = fm("h", C, A, (1, 0))
        for f in maps_between(A, B, "f"):
            for g in maps_between(B, C, "g")[::7]:
                for path, name in (
                    ([f], f.name),
                    ([f, g], f"({g.name}.{f.name})"),
                    ([f, g, h, f], f"({f.name}.(h.({g.name}.{f.name})))"),
                ):
                    want = path[0]
                    for m in path[1:]:
                        want = fm("w", want.dom, m.cod, pointwise_compose(m, want))
                    got = compose_path(path)
                    assert (got.name, got.dom, got.cod, got.table) == (
                        name, A, path[-1].cod, want.table
                    )
                    if len(path) == 2:
                        assert compose(g, f).name == name and compose(g, f) == got

    def test_type_mismatch(self):
        f = fm("f", X3, Y2, (0, 0, 1))
        with pytest.raises(TypeMismatch):
            compose_path([f, fm("g", Z2, X3, (0, 1))])
        # same id, other size
        with pytest.raises(TypeMismatch):
            compose_path([f, fm("g", S("Y", 3), X3, (0, 1, 2))])


class TestIdentity:
    def test_table(self):
        assert identity(X3).table == (0, 1, 2)

    def test_empty(self):
        assert identity(S("E", 0)).table == ()

    def test_idempotent(self):
        i = identity(X3)
        assert compose(i, i) == i


class TestClassify:
    def test_surjection(self):
        c = classify_map(fm("f", X3, Y2, (0, 0, 1)))
        assert (c.injective, c.surjective, c.bijective, c.idempotent) == (
            False,
            True,
            False,
            None,
        )

    def test_idempotent_endomap(self):
        c = classify_map(fm("f", X3, X3, (0, 1, 1)))
        assert not c.injective and not c.surjective and not c.bijective
        assert c.idempotent is True

    def test_identity(self):
        c = classify_map(identity(X3))
        assert c.injective and c.surjective and c.bijective and c.idempotent


class TestImages:
    def test_direct(self):
        f = fm("f", X3, Y2, (0, 0, 1))
        assert direct_image(f, Subset(X3, frozenset({0, 1}))).members == {0}

    def test_inverse(self):
        f = fm("f", X3, Y2, (0, 0, 1))
        assert inverse_image(f, Subset(Y2, frozenset({0}))).members == {0, 1}

    def test_domain_mismatch(self):
        f = fm("f", X3, Y2, (0, 0, 1))
        with pytest.raises(SubsetDomainMismatch):
            direct_image(f, Subset(Y2, frozenset({0})))

    def test_roundtrip_iff_injective(self):
        # f⁻¹(f(A)) = A for all A exactly when f is injective, |X| <= 3
        for nx in range(4):
            for ny in range(4):
                X, Y = S("X", nx), S("Y", ny)
                for f in maps_between(X, Y):
                    holds = all(
                        inverse_image(f, direct_image(f, A)).members == A.members
                        for A in subsets_lex(X)
                    )
                    assert holds == classify_map(f).injective


class TestSubsetRegularity:
    def test_image_mode_holds(self):
        f = fm("f", X3, Y2, (0, 0, 1))
        g = fm("g", Y2, X3, (0, 2))
        assert check_subset_regularity(f, g, "image").holds

    def test_identity_both_modes(self):
        i = identity(X3)
        assert check_subset_regularity(i, i, "image").holds
        assert check_subset_regularity(i, i, "reflexive").holds

    def test_brute_force_agreement(self):
        # independent subset sweep over every (f, g) pair at size 2
        X, Y = S("X", 2), S("Y", 2)
        for f in maps_between(X, Y):
            for g in maps_between(Y, X):
                expected = True
                for mask in range(4):
                    a = {i for i in range(2) if mask >> i & 1}
                    fa = {f.table[i] for i in a}
                    gfa = {g.table[i] for i in fa}
                    if {f.table[i] for i in gfa} != fa:
                        expected = False
                        break
                assert check_subset_regularity(f, g, "image").holds == expected

    def test_witness_is_least(self):
        # non-surjective f with a g that breaks Eq. (1r) somewhere
        X, Y = S("X", 2), S("Y", 2)
        f = fm("f", X, Y, (0, 1))
        g = fm("g", Y, X, (1, 1))
        res = check_subset_regularity(f, g, "image")
        assert not res.holds
        assert res.witness.key() == (0,)

    def test_inner_inverse_implies_image_mode(self):
        # Eq. (1r) holds for every subset whenever g is an inner inverse
        for nx in range(1, 4):
            for ny in range(1, 4):
                X, Y = S("X", nx), S("Y", ny)
                for f in maps_between(X, Y):
                    for g in maps_between(Y, X):
                        fgf = tuple(f.table[g.table[f.table[x]]] for x in range(nx))
                        if fgf == f.table:
                            assert check_subset_regularity(f, g, "image").holds


class TestTensor:
    def test_swap_tensor_id(self):
        swap = fm("s", Y2, Y2, (1, 0))
        t = tensor(swap, identity(Z2))
        assert t.table == (2, 3, 0, 1)

    def test_identity_tensor(self):
        t = tensor(identity(X3), identity(Y2))
        assert t.is_identity()

    def test_interchange_exhaustive(self):
        A, B, C = S("A", 2), S("B", 2), S("C", 2)
        for f in maps_between(B, C):
            for fp in maps_between(A, B):
                for g in maps_between(B, C):
                    for gp in maps_between(A, B):
                        lhs = compose(tensor(f, g), tensor(fp, gp))
                        rhs = tensor(compose(f, fp), compose(g, gp))
                        assert lhs == rhs


class TestProductSet:
    @given(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3))
    def test_rank_roundtrip(self, sizes):
        ps = ProductSet.of(*(S(f"S{i}", n) for i, n in enumerate(sizes)))
        for i in range(ps.carrier.cardinality):
            assert ps.rank(ps.unrank(i)) == i

    def test_row_major(self):
        ps = ProductSet.of(S("A", 2), S("B", 3))
        assert ps.rank((1, 2)) == 5
        assert ps.unrank(3) == (1, 0)


class TestCancellation:
    def test_epi_iff_surjective(self):
        # right cancellative == surjective, exhaustive |X|,|Y|,|Z| <= 2
        X, Y = S("X", 2), S("Y", 2)
        for f in maps_between(X, Y):
            cancellative = True
            for nz in range(1, 3):
                Z = S("Z", nz)
                gs = maps_between(Y, Z)
                for g1 in gs:
                    for g2 in gs:
                        if compose(g1, f) == compose(g2, f) and g1 != g2:
                            cancellative = False
            assert cancellative == classify_map(f).surjective

    def test_mono_iff_injective(self):
        X, Y = S("X", 2), S("Y", 2)
        for f in maps_between(X, Y):
            cancellative = True
            for nz in range(1, 3):
                Z = S("Z", nz)
                hs = maps_between(Z, X)
                for h1 in hs:
                    for h2 in hs:
                        if compose(f, h1) == compose(f, h2) and h1 != h2:
                            cancellative = False
            assert cancellative == classify_map(f).injective
