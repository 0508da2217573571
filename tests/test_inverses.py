import pytest
from hypothesis import given, strategies as st

from helpers import S, fm, generalized_pairs, maps_between, naive_inverses, sizes_upto
from regcat import inverses
from regcat.core import classify_map, compose, identity
from regcat.errors import (
    NoInverseExists,
    NotAnInnerInverse,
    SearchSpaceTooLarge,
    TypeMismatch,
)
from regcat.inverses import (
    INVERSE_KINDS,
    closure_composite,
    count_inverses,
    enumerate_inverses,
    generalized_from_inner,
    invertibility_class,
    is_inverse,
    projectors,
    section_inner_inverse,
    unique_generalized_inverse,
)

X3 = S("X", 3)
Y2 = S("Y", 2)
Z2 = S("Z", 2)
F = fm("f", X3, Y2, (0, 0, 1))


class TestSection:
    def test_least_preimage(self):
        g = section_inner_inverse(F)
        assert g.table == (0, 2)
        assert is_inverse(F, g, "inner")

    def test_identity(self):
        assert section_inner_inverse(identity(X3)) == identity(X3)

    def test_bijection(self):
        f = fm("f", Y2, Z2, (1, 0))
        assert section_inner_inverse(f).table == (1, 0)

    def test_empty_domain_nonempty_codomain(self):
        f = fm("f", S("E", 0), Y2, ())
        with pytest.raises(NoInverseExists):
            section_inner_inverse(f)

    def test_always_inner_exhaustive(self):
        for nx in range(1, 5):
            for ny in range(1, 5):
                X, Y = S("X", nx), S("Y", ny)
                for f in maps_between(X, Y):
                    assert is_inverse(f, section_inner_inverse(f), "inner")


class TestEnumerate:
    def test_inner(self):
        res = enumerate_inverses(F, "inner")
        assert [g.table for g in res.maps] == [(0, 2), (1, 2)]
        assert res.count == 2 and not res.truncated

    def test_outer(self):
        res = enumerate_inverses(F, "outer")
        assert [g.table for g in res.maps] == [(0, 0), (0, 2), (1, 1), (1, 2), (2, 2)]
        assert res.count == 5

    def test_identity(self):
        for kind in ("inner", "generalized"):
            res = enumerate_inverses(identity(X3), kind)
            assert res.count == 1 and res.maps[0] == identity(X3)
        # outer inverses of the identity are exactly the idempotent endomaps
        outer = enumerate_inverses(identity(X3), "outer")
        assert outer.count == 10
        for g in outer.maps:
            assert compose(g, g) == g

    def test_limit_truncates(self):
        res = enumerate_inverses(F, "outer", limit=2)
        assert res.count == 2 and res.truncated

    def test_space_bound(self, monkeypatch):
        # a bound below the inverse count refuses before any table is built
        def unreachable(*args):
            raise AssertionError("the search started")

        monkeypatch.setattr(inverses, "all_maps", unreachable)
        monkeypatch.setattr(inverses, "_OuterTables", unreachable)
        for kind, count in (("inner", 2), ("outer", 5), ("generalized", 2)):
            with pytest.raises(SearchSpaceTooLarge, match=f"^search space of {count} {kind} "):
                enumerate_inverses(F, kind, max_space=count - 1)

    @pytest.mark.parametrize("kind, count, nodes", [
        ("inner", 2, 2), ("outer", 5, 12), ("generalized", 2, 4),
    ])
    def test_inverse_count_and_nodes_are_bounded(self, kind, count, nodes):
        # the 3^2 maps Y2 -> X3 are not sized: a bound below the inverse count
        # refuses at once, and one below the nodes refuses as the search runs
        with pytest.raises(SearchSpaceTooLarge) as info:
            enumerate_inverses(F, kind, max_space=count - 1)
        assert str(info.value) == (f"search space of {count} {kind} inverses exceeds the bound "
                                   f"{count - 1}; pass a limit to truncate")
        full = enumerate_inverses(F, kind, max_space=nodes)
        assert full == enumerate_inverses(F, kind)
        assert (full.count, full.nodes) == (count, nodes)
        if nodes > count:
            with pytest.raises(SearchSpaceTooLarge) as info:
                enumerate_inverses(F, kind, max_space=nodes - 1)
            assert str(info.value) == (f"search space of {nodes} table entries exceeds the bound "
                                       f"{nodes - 1}")

    def test_matches_naive_filter(self):
        for nx in range(1, 4):
            for ny in range(1, 4):
                X, Y = S("X", nx), S("Y", ny)
                for f in maps_between(X, Y):
                    for kind in ("inner", "outer", "generalized"):
                        got = enumerate_inverses(f, kind).maps
                        assert got == naive_inverses(f, kind)


class TestConstructive:
    """The inverses are built, not swept: check them against the naive sweep."""

    def test_every_map_up_to_4x4(self):
        for nx in sizes_upto(4, include_empty=True):
            for ny in sizes_upto(4, include_empty=True):
                X, Y = S("X", nx), S("Y", ny)
                for f in maps_between(X, Y):
                    for kind in INVERSE_KINDS:
                        got = [g.table for g in enumerate_inverses(f, kind).maps]
                        assert got == [g.table for g in naive_inverses(f, kind)], (f.table, kind)

    def test_limit_gives_a_prefix(self):
        for nx in sizes_upto(3):
            for ny in sizes_upto(3):
                X, Y = S("X", nx), S("Y", ny)
                for f in maps_between(X, Y):
                    for kind in INVERSE_KINDS:
                        full = [g.table for g in enumerate_inverses(f, kind).maps]
                        for limit in range(len(full) + 2):
                            res = enumerate_inverses(f, kind, limit=limit)
                            assert [g.table for g in res.maps] == full[:limit]
                            assert res.count == min(limit, len(full))
                            assert res.truncated == (len(full) > limit)

    @pytest.mark.parametrize("n", range(4))
    def test_empty_domain(self, n):
        # f: 0 -> n; a map n -> 0 with n > 0 does not exist, so this is the
        # only empty-carrier shape: g: n -> 0 exists only for n = 0
        f = fm("f", S("E", 0), S("Y", n), ())
        for kind in INVERSE_KINDS:
            res = enumerate_inverses(f, kind)
            assert [g.table for g in res.maps] == ([()] if n == 0 else [])

    def test_long_codomain_under_a_limit(self):
        # the outer search keeps no Python frame per position
        f = fm("f", S("X", 2), S("Y", 1500), (0, 1))
        res = enumerate_inverses(f, "outer", limit=1)
        assert res.truncated and res.maps[0].table == (0,) * 1500

    def test_truncated_only_past_the_last_inverse(self):
        # F has exactly 2 inner and 2 generalized inverses
        for kind in ("inner", "generalized"):
            assert not enumerate_inverses(F, kind, limit=2).truncated
            assert enumerate_inverses(F, kind, limit=1).truncated
            assert not enumerate_inverses(F, kind, limit=3).truncated

    def test_nodes(self):
        # inner: the product [{0, 1}, {2}] builds 2 tables; generalized tries
        # the fibre {0, 1} at position 0, then the fibre {2} at 1 under each;
        # outer tries 3 values at position 0, then 3 at 1 under each
        assert enumerate_inverses(F, "inner").nodes == 2
        assert enumerate_inverses(F, "generalized").nodes == 4
        assert enumerate_inverses(F, "outer").nodes == 12
        # under a limit the search runs on to the next inverse, (0, 2): value 0
        # at position 0, then values 0, 1 and 2 at position 1
        assert enumerate_inverses(F, "outer", limit=1).nodes == 4
        assert enumerate_inverses(F, "inner", limit=0).nodes == 1

    def test_generalized_under_a_limit_builds_no_candidate_sweep(self):
        # a constant map X -> X has |X| generalized inverses, the constant
        # maps, among |X|^(|X|-1) inner ones
        c = fm("c", S("X", 12), S("X", 12), (0,) * 12)
        res = enumerate_inverses(c, "generalized", limit=1, max_space=156)
        assert res.maps[0].table == (0,) * 12 and res.truncated
        assert res.nodes == 156
        with pytest.raises(SearchSpaceTooLarge, match="156 table entries exceeds the bound 155"):
            enumerate_inverses(c, "generalized", limit=1, max_space=155)
        full = enumerate_inverses(c, "generalized", max_space=12**12)
        assert full.count == 12 and full.nodes == 1596

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            enumerate_inverses(F, "left")


class TestIsInverse:
    def test_examples(self):
        assert is_inverse(F, fm("g", Y2, X3, (0, 2)), "inner")
        assert not is_inverse(F, fm("g", Y2, X3, (0, 0)), "inner")
        assert is_inverse(F, fm("g", Y2, X3, (0, 0)), "outer")
        assert is_inverse(identity(X3), identity(X3), "generalized")

    def test_typing(self):
        with pytest.raises(TypeMismatch):
            is_inverse(F, fm("g", Y2, Y2, (0, 1)), "inner")


class TestGeneralizedFromInner:
    def test_already_reflexive(self):
        g = fm("g", Y2, X3, (1, 2))
        assert generalized_from_inner(F, g).table == (1, 2)

    def test_other_witness(self):
        g = fm("g", Y2, X3, (0, 2))
        assert generalized_from_inner(F, g).table == (0, 2)

    def test_identity(self):
        assert generalized_from_inner(identity(X3), identity(X3)) == identity(X3)

    def test_rejects_non_inner(self):
        with pytest.raises(NotAnInnerInverse):
            generalized_from_inner(F, fm("g", Y2, X3, (0, 0)))

    def test_soundness_exhaustive_size2(self):
        for nx in range(1, 3):
            for ny in range(1, 3):
                X, Y = S("X", nx), S("Y", ny)
                for f in maps_between(X, Y):
                    for g in naive_inverses(f, "inner"):
                        gen = generalized_from_inner(f, g)
                        assert is_inverse(f, gen, "generalized")


class TestProjectors:
    def test_example_pair(self):
        pp = projectors(F, fm("g", Y2, X3, (0, 2)))
        assert pp.p_f == identity(Y2)
        assert pp.p_fstar.table == (0, 0, 2)
        assert pp.p_f_idempotent and pp.p_fstar_idempotent
        assert pp.absorbs_f and pp.absorbs_fstar

    def test_identity(self):
        pp = projectors(identity(X3), identity(X3))
        assert pp.p_f == identity(X3) and pp.p_fstar == identity(X3)

    def test_second_witness(self):
        pp = projectors(F, fm("g", Y2, X3, (1, 2)))
        assert pp.p_fstar.table == (1, 1, 2)
        assert pp.p_fstar_idempotent


class TestInvertibilityClass:
    def test_surjection_is_retraction(self):
        c = invertibility_class(F)
        assert c.retraction and not c.coretraction
        assert c.retraction_witness.table == (0, 2)

    def test_injection_is_coretraction(self):
        f = fm("f", Y2, X3, (0, 2))
        c = invertibility_class(f)
        assert c.coretraction and not c.retraction
        assert compose(c.coretraction_witness, f) == identity(Y2)
        assert c.coretraction_witness.table == (0, 0, 1)

    def test_bijection(self):
        c = invertibility_class(fm("f", Y2, Z2, (1, 0)))
        assert c.retraction and c.coretraction

    def test_implications_exhaustive(self):
        # retraction => surjective, coretraction => injective, sizes <= 3
        for nx in range(1, 4):
            for ny in range(1, 4):
                X, Y = S("X", nx), S("Y", ny)
                for f in maps_between(X, Y):
                    c = invertibility_class(f)
                    cls = classify_map(f)
                    assert c.retraction == cls.surjective
                    assert c.coretraction == cls.injective
                    if c.retraction:
                        assert compose(f, c.retraction_witness).is_identity()
                    if c.coretraction:
                        assert compose(c.coretraction_witness, f).is_identity()


class TestClosure:
    def test_identity_pair(self):
        i = identity(X3)
        rep = closure_composite(i, i, i, i)
        assert rep.projectors_commute and rep.composite_regular
        assert rep.composite_star == i

    def test_with_identity_second_leg(self):
        fstar = fm("fs", Y2, X3, (0, 2))
        rep = closure_composite(F, fstar, identity(Y2), identity(Y2))
        assert rep.projectors_commute and rep.composite_regular
        assert rep.composite_star.table == (0, 2)

    def test_commute_implies_regular_size2(self):
        A, B, C = S("A", 2), S("B", 2), S("C", 2)
        for f in maps_between(A, B):
            fstars = generalized_pairs(f)
            for g in maps_between(B, C):
                gstars = generalized_pairs(g)
                for fs in fstars:
                    for gs in gstars:
                        rep = closure_composite(f, fs, g, gs)
                        if rep.projectors_commute:
                            assert rep.composite_regular


class TestUniqueGeneralized:
    def test_bijection(self):
        assert unique_generalized_inverse(fm("f", Y2, Z2, (1, 0)))

    def test_fold_map(self):
        assert not unique_generalized_inverse(F)

    def test_identity(self):
        assert unique_generalized_inverse(identity(X3))

    def test_a_large_identity_takes_no_space_bound(self):
        # 12^12 = 8,916,100,448,256 candidate maps, one generalized inverse
        assert unique_generalized_inverse(identity(S("X", 12)))

    def test_a_large_constant_map_is_answered_at_its_second_inverse(self):
        assert not unique_generalized_inverse(fm("c", S("X", 12), S("X", 12), (0,) * 12))


# every map f: X -> Y with |X|, |Y| <= 5 (only the empty one when Y is empty)
MAPS_UP_TO_5 = st.integers(0, 5).flatmap(
    lambda ny: st.lists(st.integers(0, max(ny - 1, 0)), max_size=5 if ny else 0).map(
        lambda t: fm("f", S("X", len(t)), S("Y", ny), tuple(t))))


class TestCountInverses:
    """The closed forms of ``count_inverses`` against the naive sweep and the search."""

    def test_equals_the_naive_sweep(self):
        for nx in sizes_upto(3, include_empty=True):
            for ny in sizes_upto(3, include_empty=True):
                for f in maps_between(S("X", nx), S("Y", ny)):
                    for kind in INVERSE_KINDS:
                        assert count_inverses(f, kind) == len(naive_inverses(f, kind)), (
                            f.table, kind)

    @given(MAPS_UP_TO_5, st.sampled_from(INVERSE_KINDS))
    def test_equals_the_search(self, f, kind):
        assert count_inverses(f, kind) == enumerate_inverses(f, kind).count

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            count_inverses(F, "left")


class TestInnerCountFormula:
    def test_formula_matches(self):
        for nx in range(1, 4):
            for ny in range(1, 4):
                X, Y = S("X", nx), S("Y", ny)
                for f in maps_between(X, Y):
                    fibers = 1
                    img = set(f.table)
                    for y in img:
                        fibers *= sum(1 for v in f.table if v == y)
                    expected = fibers * nx ** (ny - len(img))
                    assert enumerate_inverses(f, "inner").count == expected


class TestCompositionPropositions:
    def test_factorization_witnesses(self):
        # with c = f∘g regular via w: if g is epi, g∘w is an inner inverse of f;
        # if f is mono, w∘f is an inner inverse of g
        W, X, Y = S("W", 2), S("X", 2), S("Y", 2)
        for g in maps_between(W, X):
            for f in maps_between(X, Y):
                c = compose(f, g)
                for w in maps_between(Y, W):
                    if compose(c, compose(w, c)) != c:
                        continue
                    if classify_map(g).surjective:
                        assert is_inverse(f, compose(g, w), "inner")
                    if classify_map(f).injective:
                        assert is_inverse(g, compose(w, f), "inner")
