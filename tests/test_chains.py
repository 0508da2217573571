import pytest
from hypothesis import given, strategies as st

import math
import random
import time
import tracemalloc

from helpers import (
    S,
    compose_path_verdict,
    fm,
    generalized_pairs,
    maps_between,
    naive_chains,
    naive_closes,
    sizes_upto,
)
from regcat import chains
from regcat.chains import (
    StarChain,
    chain_obstructor,
    check_chain,
    extend_periodic,
    find_chains,
    higher_projector,
    make_chain,
    star_compose,
)
from regcat.core import compose, identity
from regcat.errors import (
    AlternationViolation,
    NotAGeneralizedInverse,
    OrderMismatch,
    SearchSpaceTooLarge,
    refuse_large_space,
)

X3 = S("X", 3)
Y2 = S("Y", 2)
F = fm("f", X3, Y2, (0, 0, 1))
FS = fm("fs", Y2, X3, (0, 2))


class TestMakeChain:
    def test_alternation_enforced(self):
        bad = fm("b", X3, Y2, (0, 0, 0))  # star 1 must go Y -> X
        with pytest.raises(AlternationViolation):
            make_chain(F, [bad])

    def test_order(self):
        c = make_chain(F, [FS, F, FS])
        assert c.order == 3


class TestPeriodic:
    def test_rejects_non_generalized(self):
        with pytest.raises(NotAGeneralizedInverse):
            extend_periodic(F, fm("g", Y2, X3, (0, 0)), 2)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_all_orders_valid(self, n):
        v = check_chain(extend_periodic(F, FS, n))
        assert v.valid and v.ef_form and v.obstructor_idempotent

    def test_obstructor_stabilizes(self):
        # odd orders give the canonical idempotent on the domain
        for n in (1, 3, 5):
            e = chain_obstructor(extend_periodic(F, FS, n))
            assert e.table == (0, 0, 2)
        # even orders collect only stars, landing on the domain as well
        assert chain_obstructor(extend_periodic(F, FS, 2)).table == (0, 0, 2)

    def test_periodic_valid_for_all_generalized_pairs(self):
        for nx in range(1, 3):
            for ny in range(1, 3):
                X, Y = S("X", nx), S("Y", ny)
                for f in maps_between(X, Y):
                    for g in generalized_pairs(f):
                        for n in range(1, 6):
                            assert check_chain(extend_periodic(f, g, n)).valid


class TestCheckChain:
    def test_failure_reports_equation_and_witness(self):
        c = make_chain(F, [fm("g", Y2, X3, (0, 0))])
        v = check_chain(c)
        assert not v.valid and v.odd_closure is False
        assert v.failures[0][0] == "nreg2[1]"
        assert v.failures[0][1] == "x2"

    def test_even_failure_id(self):
        # order-1 closure holds but the order-2 prefix breaks
        c = make_chain(F, [FS, fm("h", X3, Y2, (1, 1, 0))])
        v = check_chain(c)
        assert v.odd_closure is True and v.even_closure is False
        assert v.failures == (("nreg1[2]", "p"),) or v.failures[0][0] == "nreg1[2]"

    def test_closure_flags_none_when_absent(self):
        v = check_chain(make_chain(F, [FS]))
        assert v.even_closure is None and v.odd_closure is True

    def test_deep_tower_checks_in_linear_time(self):
        # the prefix composite is carried from one order to the next
        c = find_chains(F, 1500, limit=1).chains[0]
        t = time.perf_counter()
        v = check_chain(c)
        assert time.perf_counter() - t < 1.0
        assert v.valid and v.odd_closure and v.even_closure

    def test_matches_compose_path_route(self):
        # valid towers from the search and random, mostly failing, ones
        rng = random.Random(5)
        checked = 0
        for nx in sizes_upto(3):
            for ny in sizes_upto(3):
                X, Y = S("X", nx), S("Y", ny)
                odd, even = maps_between(Y, X, prefix="s"), maps_between(X, Y, prefix="s")
                for f in maps_between(X, Y, prefix="f"):
                    for n in range(1, 5):
                        chains = find_chains(f, n, limit=3).chains
                        for _ in range(3):
                            stars = [rng.choice(odd if k % 2 else even) for k in range(1, n + 1)]
                            chains.append(make_chain(f, stars))
                        for c in chains:
                            v = check_chain(c)
                            got = (v.odd_closure, v.even_closure, v.ef_form, v.obstructor,
                                   v.obstructor_idempotent, v.failures)
                            assert got == compose_path_verdict(c)
                            checked += 1
        assert checked > 1000


class TestFindChains:
    def test_order1_equals_inner_inverses(self):
        r = find_chains(F, 1)
        assert [c.stars[0].table for c in r.chains] == [(0, 2), (1, 2)]
        assert not r.truncated

    def test_order2_count_matches_naive(self):
        r = find_chains(F, 2)
        naive = 0
        for s1 in maps_between(Y2, X3):
            if tuple(F.table[s1.table[F.table[x]]] for x in range(3)) != F.table:
                continue
            for s2 in maps_between(X3, Y2):
                if tuple(s1.table[s2.table[s1.table[y]]] for y in range(2)) == s1.table:
                    naive += 1
        assert len(r.chains) == naive == 4

    def test_order3_count(self):
        assert len(find_chains(F, 3).chains) == 8

    def test_every_result_checks_out(self):
        for c in find_chains(F, 3).chains:
            assert check_chain(c).valid

    def test_limit(self):
        r = find_chains(F, 2, limit=2)
        assert len(r.chains) == 2 and r.truncated

    def test_space_bound(self):
        with pytest.raises(SearchSpaceTooLarge):
            find_chains(F, 3, max_space=100)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7])
    def test_space_is_the_product_of_the_level_spaces(self, n):
        # odd levels map Y -> X (3^2 maps), even levels X -> Y (2^3 maps)
        space = 1
        for k in range(1, n + 1):
            space *= 9 if k % 2 == 1 else 8
        with pytest.raises(SearchSpaceTooLarge) as info:
            find_chains(F, n, max_space=space - 1)
        shown = {1: "3^2", 2: "3^2*2^3", 3: "3^4*2^3", 4: "3^4*2^6", 7: "3^8*2^9"}
        assert info.value.size == shown[n]
        assert find_chains(F, n, max_space=space).chains == find_chains(F, n).chains
        assert find_chains(F, n, limit=0, max_space=space - 1).chains == []

    def test_space_of_a_deep_tower_is_not_multiplied_level_by_level(self):
        t = time.perf_counter()
        with pytest.raises(SearchSpaceTooLarge):
            find_chains(F, 10**6)
        assert time.perf_counter() - t < 1.0

    def test_a_space_too_long_to_print_is_refused_by_its_bit_length(self):
        # 72^(5·10^6) has 30,852,901 bits; its exponents alone exceed the bound's 27 bits
        t = time.perf_counter()
        with pytest.raises(SearchSpaceTooLarge) as info:
            find_chains(F, 10**7)
        assert time.perf_counter() - t < 0.5
        assert str(info.value) == (
            "search space of 3^10000000*2^15000000 candidate towers exceeds the bound 100000000; "
            "pass a limit to truncate"
        )

    def test_a_limit_skips_the_space(self, monkeypatch):
        # under a limit the space is not sized: the star tables built are
        # bounded instead, and one past the bound refuses the search
        def unreachable(*args):
            raise AssertionError("the space was sized")

        monkeypatch.setattr(chains, "refuse_large_space", unreachable)
        r = find_chains(F, 3, limit=2, max_space=6)
        assert len(r.chains) == 2 and r.truncated and r.nodes == 6
        with pytest.raises(SearchSpaceTooLarge) as info:
            find_chains(F, 3, limit=2, max_space=5)
        assert str(info.value) == "search space of 6 star tables exceeds the bound 5"
        with pytest.raises(SearchSpaceTooLarge, match="of 1 star tables"):
            find_chains(F, 3, limit=2, max_space=0)
        with pytest.raises(AssertionError, match="sized"):
            find_chains(F, 3, max_space=0)

    def test_a_deep_tower_under_a_limit_takes_linear_memory(self):
        # the prefix composites are kept as tables, not as maps whose names
        # nest every earlier star's name
        tracemalloc.start()
        try:
            r = find_chains(F, 4000, limit=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.truncated and len(r.chains[0].stars) == 4000
        assert peak < 10 * 2**20

    def test_lexicographic_order(self):
        keys = [
            tuple(t for s in c.stars for t in s.table)
            for c in find_chains(F, 2).chains
        ]
        assert keys == sorted(keys)


class TestRefuseLargeSpace:
    """The shared check of a map space given as powers, against building the product."""

    @given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 40)), min_size=1, max_size=3),
           st.sampled_from([-1, 0, 1]), st.integers(-2, 10**40))
    def test_refuses_exactly_when_the_product_exceeds_the_bound(self, powers, offset, other):
        space = math.prod(b**e for b, e in powers)
        for bound in (space + offset, other):
            try:
                refuse_large_space(powers, bound, "maps")
            except SearchSpaceTooLarge as exc:
                assert space > bound, (powers, bound)
                assert exc.bound == bound
            else:
                assert space <= bound, (powers, bound)

    @pytest.mark.parametrize("powers, bound, shown", [
        ([(3, 2)], 8, "3^2"),
        ([(3, 2), (2, 0)], 8, "3^2"),
        ([(3, 2), (2, 3)], 71, "3^2*2^3"),
        ([(1, 5), (2, 0)], 0, "1^5"),
        ([(0, 0)], 0, "1"),
        ([(0, 3)], -1, "0^3"),
    ])
    def test_the_space_is_shown_as_its_powers(self, powers, bound, shown):
        with pytest.raises(SearchSpaceTooLarge) as info:
            refuse_large_space(powers, bound, "candidate maps")
        assert str(info.value) == (f"search space of {shown} candidate maps exceeds the bound "
                                   f"{bound}; pass a limit to truncate")

    @pytest.mark.parametrize("powers, bound", [
        ([(3, 2)], 9), ([(0, 3), (5, 9)], 0), ([(1, 10**30)], 1), ([(7, 0)], 1),
    ])
    def test_a_space_within_the_bound_passes(self, powers, bound):
        refuse_large_space(powers, bound, "candidate maps")


def _tables(result):
    return [tuple(s.table for s in c.stars) for c in result.chains]


class TestConstructiveSearch:
    """Each level is built from fibres, not swept: check it against the naive filter."""

    def test_every_map_up_to_3x3(self):
        for nx in sizes_upto(3, include_empty=True):
            for ny in sizes_upto(3, include_empty=True):
                X, Y = S("X", nx), S("Y", ny)
                for f in maps_between(X, Y):
                    for n in (1, 2, 3):
                        assert _tables(find_chains(f, n)) == naive_chains(f, n), (f.table, n)

    def test_orders_4_and_5(self):
        # from order 4 on, an image point of s1 can fall outside the image of
        # s1∘s2∘s3; its column must then be empty, not free
        for nx in sizes_upto(3, include_empty=True):
            for ny in sizes_upto(3, include_empty=True):
                if nx * ny > 6:
                    continue
                X, Y = S("X", nx), S("Y", ny)
                for f in maps_between(X, Y):
                    for n in (4, 5):
                        assert _tables(find_chains(f, n)) == naive_chains(f, n), (f.table, n)

    def test_limit_gives_a_prefix(self):
        for f in maps_between(S("X", 2), S("Y", 3)):
            for n in (1, 2, 3):
                full = _tables(find_chains(f, n))
                for limit in range(len(full) + 2):
                    r = find_chains(f, n, limit=limit)
                    assert _tables(r) == full[:limit]
                    assert r.truncated == (len(full) > limit)

    @pytest.mark.parametrize("m", range(4))
    def test_empty_domain(self, m):
        # f: 0 -> m; star 1 maps m -> 0, which exists only for m = 0
        f = fm("f", S("E", 0), S("Y", m), ())
        for n in (1, 2, 3):
            assert _tables(find_chains(f, n)) == ([((),) * n] if m == 0 else [])

    def test_truncated_only_past_the_last_chain(self):
        assert not find_chains(F, 2, limit=4).truncated
        assert find_chains(F, 2, limit=3).truncated

    def test_nodes(self):
        # 2 first stars, 2 second stars under each, 2 third stars under each of those
        assert [find_chains(F, n).nodes for n in (1, 2, 3)] == [2, 6, 14]

    def test_deep_tower_under_a_limit(self):
        # the search keeps no Python frame per level, so the order may exceed
        # the recursion limit
        r = find_chains(F, 1500, limit=1)
        assert r.truncated and r.nodes == 1501
        tables = [s.table for s in r.chains[0].stars]
        assert len(tables) == 1500
        for k in (1, 2, 3, 1499, 1500):
            assert naive_closes(F, tables[:k])


class TestHigherProjector:
    def test_odd_side(self):
        hp = higher_projector(extend_periodic(F, FS, 1))
        assert hp.side == "codomain"
        assert hp.projector.table == (0, 1)
        assert hp.idempotent and hp.absorption

    def test_even_side(self):
        hp = higher_projector(extend_periodic(F, FS, 2))
        assert hp.side == "domain"
        assert hp.projector.table == (0, 0, 2)
        assert hp.idempotent and hp.absorption

    def test_laws_on_searched_chains(self):
        for n in (1, 2, 3):
            for c in find_chains(F, n).chains:
                hp = higher_projector(c)
                assert hp.idempotent and hp.absorption


class TestStarCompose:
    def test_with_identity_leg(self):
        ci = extend_periodic(identity(Y2), identity(Y2), 3)
        comp, verdict = star_compose(extend_periodic(F, FS, 3), ci)
        assert verdict.valid
        assert comp.base.table == (0, 0, 1)
        assert [s.table for s in comp.stars] == [(0, 2), (0, 0, 1), (0, 2)]

    def test_order_mismatch(self):
        with pytest.raises(OrderMismatch):
            star_compose(extend_periodic(F, FS, 2), extend_periodic(F, FS, 3))

    def test_periodic_composites_at_size2(self):
        # composites of periodic towers over commuting-projector pairs stay valid
        A, B, C = S("A", 2), S("B", 2), S("C", 2)
        for f in maps_between(A, B):
            for fs in generalized_pairs(f):
                pf = compose(f, fs)
                for g in maps_between(B, C):
                    for gs in generalized_pairs(g):
                        pgs = compose(gs, g)
                        if compose(pf, pgs) != compose(pgs, pf):
                            continue
                        comp, verdict = star_compose(
                            extend_periodic(f, fs, 3), extend_periodic(g, gs, 3)
                        )
                        assert verdict.valid


@given(st.integers(min_value=1, max_value=9))
def test_obstructor_idempotent_for_periodic(n):
    v = check_chain(extend_periodic(F, FS, n))
    assert v.obstructor_idempotent and v.ef_form
