import inspect
import sys
import tracemalloc
from collections import Counter
from functools import cache
from itertools import accumulate, permutations, product
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    S,
    braiding_from_table,
    fm,
    full_ybe_search,
    kernel_ybe_search,
    maps_between,
    naive_is_inner,
    oracle_check_ybe,
    ordered_ybe_search,
    pointwise_compose,
    ybe_side_maps,
)
from regcat import braiding
from regcat.braiding import (
    Braiding,
    ObstructorAssignment,
    YbeProblem,
    _cell_order,
    _consistent,
    _first_violation,
    _lookups,
    _reading,
    _representative,
    _search_group,
    _stabilizer,
    _triples_from,
    canonical_braiding_star,
    check_prebraid_regularity,
    check_regular_braiding,
    check_symmetry,
    check_ybe,
    composite_prebraid,
    enumerate_idempotents,
    prebraid,
    solve_ybe,
)
from regcat.core import FinMap, ProductSet, identity
from regcat.errors import NotIdempotent, SearchSpaceTooLarge, TypeMismatch

A2 = S("A", 2)
B2 = S("B", 2)
SWAP = braiding_from_table("swap", A2, A2, (0, 2, 1, 3))
E0 = fm("e0", A2, A2, (0, 0))
ID2 = identity(A2)


def naive_ybe_holds(s, tab, e):
    """Independent pointwise YBE check on index triples."""
    def bl(x, y, z):
        a, b = divmod(tab[s * y + z], s)
        return (e[x], a, b)

    def br(x, y, z):
        a, b = divmod(tab[s * x + y], s)
        return (a, b, e[z])

    return all(
        br(*bl(*br(x, y, z))) == bl(*br(*bl(x, y, z)))
        for x, y, z in product(range(s), repeat=3)
    )


class TestBraidingType:
    def test_table_roundtrip(self):
        assert SWAP.map.table == (0, 2, 1, 3)
        assert SWAP.dom_product.rank((1, 0)) == 2

    def test_wrong_carrier(self):
        X = ProductSet.of(A2, A2).carrier
        for m, got in ((fm("b", A2, X, (0, 1)), "A->(AxA)"),
                       (fm("b", X, A2, (0, 0, 0, 0)), "(AxA)->A")):
            with pytest.raises(TypeMismatch) as exc:
                Braiding(A2, A2, m)
            assert str(exc.value) == f"expected object '(AxA)->(AxA)', got {got!r}"

    def test_products_are_read_from_the_map(self):
        assert SWAP.dom_product == ProductSet.of(A2, A2) == SWAP.cod_product
        assert SWAP.dom_product.carrier is SWAP.map.dom
        assert SWAP.cod_product.carrier is SWAP.map.cod


class TestObstructorAssignment:
    def test_non_idempotent_rejected(self):
        with pytest.raises(NotIdempotent):
            ObstructorAssignment({"A": fm("s", A2, A2, (1, 0))})

    def test_default_is_identity(self):
        ea = ObstructorAssignment({})
        assert ea.for_object(A2) == ID2


class TestRegularity:
    def test_swap_symmetric(self):
        assert check_symmetry(SWAP, SWAP)

    def test_swap_regular_with_itself(self):
        assert check_regular_braiding(SWAP, SWAP)

    def test_constant_braiding_regular(self):
        b = braiding_from_table("c", A2, A2, (0, 0, 0, 0))
        assert not check_symmetry(b, b)
        assert check_regular_braiding(b, canonical_braiding_star(b))

    def test_canonical_star_always_works(self):
        for tab in product(range(4), repeat=4):
            b = braiding_from_table("b", A2, A2, tab)
            assert check_regular_braiding(b, canonical_braiding_star(b))

    def test_prebraid_regularity(self):
        bl = prebraid(SWAP, "L", ID2, (A2, A2, A2))
        assert check_prebraid_regularity(bl, bl)

    @settings(max_examples=200)
    @given(st.lists(st.integers(0, 3), min_size=4, max_size=4),
           st.lists(st.integers(0, 3), min_size=4, max_size=4))
    def test_regular_braiding_matches_pointwise(self, tab, star_tab):
        # b∘b*∘b = b read pointwise, for b: A⊗B -> B⊗A and b*: B⊗A -> A⊗B
        b = braiding_from_table("b", A2, B2, tab)
        for star in (braiding_from_table("s", B2, A2, star_tab), canonical_braiding_star(b)):
            assert check_regular_braiding(b, star) == naive_is_inner(b.map, star.map)

    @settings(max_examples=200)
    @given(st.lists(st.integers(0, 3), min_size=4, max_size=4),
           st.lists(st.integers(0, 3), min_size=4, max_size=4),
           st.sampled_from("LR"), st.sampled_from([(0, 0), (0, 1), (1, 1)]))
    def test_prebraid_regularity_matches_pointwise(self, tab, star_tab, side, e):
        # prebraids of size-2 braidings, with a random star and with the canonical one
        b = braiding_from_table("b", A2, A2, tab)
        e = fm("e", A2, A2, e)
        p = prebraid(b, side, e, (A2, A2, A2))
        for star in (braiding_from_table("s", A2, A2, star_tab), canonical_braiding_star(b)):
            p_star = prebraid(star, side, e, (A2, A2, A2))
            assert check_prebraid_regularity(p, p_star) == naive_is_inner(p, p_star)

    def test_swapped_factors_are_a_type_mismatch(self):
        b = braiding_from_table("b", A2, B2, (0, 2, 1, 3))
        with pytest.raises(TypeMismatch):
            check_regular_braiding(b, b)
        p = prebraid(b, "L", ID2, (A2, A2, B2))  # A⊗A⊗B -> A⊗B⊗A
        with pytest.raises(TypeMismatch) as exc:
            check_prebraid_regularity(p, p)
        assert (exc.value.expected, exc.value.got) == (
            f"{p.cod.id}->{p.dom.id}", f"{p.dom.id}->{p.cod.id}"
        )


class TestPrebraids:
    def test_left_swap_permutation(self):
        bl = prebraid(SWAP, "L", ID2, (A2, A2, A2))
        dom = ProductSet.of(A2, A2, A2)
        for i in range(8):
            x, y, z = dom.unrank(i)
            assert dom.unrank(bl.table[i]) == (x, z, y)

    def test_right_swap_permutation(self):
        br = prebraid(SWAP, "R", ID2, (A2, A2, A2))
        dom = ProductSet.of(A2, A2, A2)
        for i in range(8):
            x, y, z = dom.unrank(i)
            assert dom.unrank(br.table[i]) == (y, x, z)

    def test_obstructor_applied_to_passive_slot(self):
        bl = prebraid(SWAP, "L", E0, (A2, A2, A2))
        dom = ProductSet.of(A2, A2, A2)
        for i in range(8):
            x, y, z = dom.unrank(i)
            assert dom.unrank(bl.table[i]) == (0, z, y)

    def test_bad_slot_typing(self):
        B3 = S("B", 3)
        with pytest.raises(TypeMismatch):
            prebraid(SWAP, "L", identity(B3), (B3, B3, B3))

    def test_composite_first_with_swaps(self):
        comp = composite_prebraid(SWAP, SWAP, ObstructorAssignment({}), "first")
        dom = ProductSet.of(A2, A2, A2)
        for i in range(8):
            x, y, z = dom.unrank(i)
            assert dom.unrank(comp.table[i]) == (z, x, y)

    def test_composite_second_with_swaps(self):
        comp = composite_prebraid(SWAP, SWAP, ObstructorAssignment({}), "second")
        dom = ProductSet.of(A2, A2, A2)
        for i in range(8):
            x, y, z = dom.unrank(i)
            assert dom.unrank(comp.table[i]) == (y, z, x)


class TestCheckYbe:
    def test_swap_classical(self):
        assert check_ybe(SWAP, ID2).holds

    def test_swap_regular_with_constant(self):
        assert check_ybe(SWAP, E0).holds

    def test_witness_is_least_failing_triple(self):
        b = braiding_from_table("b", A2, A2, (1, 0, 0, 0))
        res = check_ybe(b, ID2)
        assert not res.holds and res.witness == ("a0", "a0", "a0")

    def test_agrees_with_compositional_route(self):
        # pointwise evaluation vs composing prebraid maps, all tables, all e
        for e in enumerate_idempotents(A2):
            for tab in product(range(4), repeat=4):
                b = braiding_from_table("b", A2, A2, tab)
                lhs, rhs = ybe_side_maps(b, e)
                assert check_ybe(b, e).holds == (lhs == rhs)

    def test_agrees_with_naive_indices(self):
        for e in enumerate_idempotents(A2):
            for tab in product(range(4), repeat=4):
                b = braiding_from_table("b", A2, A2, tab)
                assert check_ybe(b, e).holds == naive_ybe_holds(
                    2, tab, e.table
                )


IDEMPOTENTS = [e for s in range(4) for e in enumerate_idempotents(S("U", s))]


@pytest.mark.parametrize("e", IDEMPOTENTS, ids=lambda e: ",".join(map(str, e.table)) or "empty")
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_check_ybe_matches_pointwise_oracle(e, data):
    # verdict and least failing triple, for every idempotent of a carrier of 0..3 elements
    X = e.dom
    n2 = X.cardinality ** 2
    table = data.draw(st.lists(st.integers(0, max(n2 - 1, 0)), min_size=n2, max_size=n2))
    b = braiding_from_table("b", X, X, table)
    assert check_ybe(b, e) == oracle_check_ybe(b, e)


class TestIdempotents:
    def test_counts(self):
        assert len(enumerate_idempotents(S("U", 1))) == 1
        assert len(enumerate_idempotents(S("U", 2))) == 3
        assert len(enumerate_idempotents(S("U", 3))) == 10

    def test_lex_order(self):
        tabs = [e.table for e in enumerate_idempotents(A2)]
        assert tabs == [(0, 0), (0, 1), (1, 1)]

    @pytest.mark.parametrize("s, count", [(0, 1), (1, 1), (2, 3), (3, 10), (4, 41), (5, 196)])
    def test_match_pointwise_sweep(self, s, count):
        # tables and order against every map e with e∘e = e, read pointwise
        X = S("U", s)
        sweep = [m.table for m in maps_between(X, X) if pointwise_compose(m, m) == m.table]
        assert [e.table for e in enumerate_idempotents(X)] == sweep
        assert len(sweep) == count


def outcome(res):
    """What a solve must give for every job count: its count, work counters and listing."""
    return res.count, res.nodes, res.triples, [(b.map.table, e.table) for b, e in res.solutions]


class TestSolveYbe:
    def test_classical_s2_count(self):
        res = solve_ybe(YbeProblem(A2))
        assert res.count == 43 and len(res.solutions) == 43

    def test_classical_s2_matches_naive(self):
        got = {b.map.table for b, _ in solve_ybe(YbeProblem(A2)).solutions}
        naive = {
            tab
            for tab in product(range(4), repeat=4)
            if naive_ybe_holds(2, tab, (0, 1))
        }
        assert got == naive

    def test_classical_s2_bijective(self):
        res = solve_ybe(YbeProblem(A2, require_bijective=True))
        assert res.count == 5
        assert SWAP.map.table in {b.map.table for b, _ in res.solutions}

    def test_regular_all_idempotents(self):
        res = solve_ybe(YbeProblem(A2, e_spec="all"))
        assert res.count == 141
        assert (SWAP.map.table, (0, 0)) in {
            (b.map.table, e.table) for b, e in res.solutions
        }

    def test_regular_all_bijective(self):
        res = solve_ybe(
            YbeProblem(A2, e_spec="all", require_bijective=True)
        )
        assert res.count == 11

    def test_explicit_obstructor(self):
        res = solve_ybe(YbeProblem(A2, e_spec=E0))
        naive = sum(
            1 for tab in product(range(4), repeat=4) if naive_ybe_holds(2, tab, (0, 0))
        )
        assert res.count == naive

    def test_solutions_actually_hold(self):
        for b, e in solve_ybe(YbeProblem(A2, e_spec="all")).solutions:
            assert check_ybe(b, e).holds

    def test_count_only(self):
        res = solve_ybe(YbeProblem(A2, count_only=True))
        assert res.count == 43 and res.solutions == []

    def test_lex_output_order(self):
        keys = [
            (e.table, b.map.table)
            for b, e in solve_ybe(YbeProblem(A2, e_spec="all")).solutions
        ]
        assert keys == sorted(keys)

    def test_jobs_agree(self):
        seq = solve_ybe(YbeProblem(A2, e_spec="all"))
        par = solve_ybe(YbeProblem(A2, e_spec="all", jobs=2))
        assert outcome(seq) == outcome(par)

    @pytest.mark.parametrize("s", [0, 1])
    @pytest.mark.parametrize("mode", ["classical", "regular"])
    def test_empty_and_singleton_carriers_have_one_solution(self, s, mode):
        # at s = 1 the factor swap is the identity, so it must not double the count;
        # the classical equation is e = identity, and the regular one is taken over all e
        problem = YbeProblem(S("U", s), e_spec={"classical": "identity", "regular": "all"}[mode])
        res = solve_ybe(problem)
        assert res.count == len(res.solutions) == 1
        assert solve_ybe(problem._replace(count_only=True)).count == 1

    def test_counters_agree_across_jobs(self):
        seq = solve_ybe(YbeProblem(A2, e_spec="all", count_only=True))
        par = solve_ybe(YbeProblem(A2, e_spec="all", count_only=True, jobs=2))
        assert outcome(seq) == outcome(par)
        # 3 idempotents x 4 roots, plus 4 candidates at every consistent inner node
        assert seq.nodes > 12 and seq.triples > 0

    def test_work_counters_are_pinned(self):
        # counts.triples is fixed by the order of the watch lists as well as their contents;
        # at s = 3 both counters are those of the shell order (ordered_ybe_search has the nodes)
        X = S("U", 3)
        pinned = [("identity", 41652, 83180), (fm("e", X, X, (0, 1, 0)), 100314, 254431)]
        for spec, nodes, triples in pinned:
            res = solve_ybe(YbeProblem(X, e_spec=spec, count_only=True))
            assert (res.nodes, res.triples) == (nodes, triples)
        assert full_ybe_search(2, (0, 0), count_only=True) == (49, 128, 257)
        # the row-major kernel with S₃ alone, without the factor swap: the solver's counters
        # before the swap joined the group and before the shell order
        assert kernel_ybe_search(3, (0, 1, 2), PERMUTATIONS[3], count_only=True) == (
            5707, 93951, 181447
        )

    def test_count_only_matches_listing(self):
        listed = solve_ybe(YbeProblem(A2, e_spec="all"))
        counted = solve_ybe(YbeProblem(A2, e_spec="all", count_only=True))
        assert (listed.count, listed.nodes, listed.triples) == (
            counted.count, counted.nodes, counted.triples
        )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_node_budget(self, jobs):
        problem = YbeProblem(A2, e_spec="all")
        total = solve_ybe(problem._replace(count_only=True)).nodes
        # at the roots, inside class 0's first branch, inside class 1's first branch
        for budget in (0, 10, 120, total - 1):
            refusals = []
            for k in (1, jobs):
                with pytest.raises(SearchSpaceTooLarge) as exc:
                    solve_ybe(problem._replace(jobs=k, max_nodes=budget))
                refusals.append((exc.value.size, exc.value.bound))
            assert refusals[0] == refusals[1] and refusals[0][1] == budget
        res = solve_ybe(problem._replace(jobs=jobs, max_nodes=total))
        assert res.count == 141 and res.nodes == total
        assert outcome(res) == outcome(solve_ybe(problem))

    def test_node_budget_stops_large_carrier(self):
        with pytest.raises(SearchSpaceTooLarge):
            solve_ybe(YbeProblem(S("U", 4), count_only=True, max_nodes=1000))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_node_budget_below_the_roots_refuses_before_the_search(self, jobs, monkeypatch):
        # every first entry's root is tested, so a solve tests at least s² tables
        def unreachable(*args):
            raise AssertionError("the search was set up")

        monkeypatch.setattr(braiding, "_solve_branch", unreachable)
        monkeypatch.setattr(braiding, "Pool", unreachable)
        with pytest.raises(SearchSpaceTooLarge) as exc:
            solve_ybe(YbeProblem(S("U", 1000), count_only=True, jobs=jobs, max_nodes=10))
        assert (exc.value.size, exc.value.bound) == (1_000_000, 10)

    def test_bad_jobs(self):
        with pytest.raises(ValueError):
            solve_ybe(YbeProblem(A2, jobs=0))

    def test_obstructor_spec_is_the_identity_all_or_an_idempotent(self):
        with pytest.raises(NotIdempotent):
            solve_ybe(YbeProblem(A2, e_spec=fm("s", A2, A2, (1, 0))))
        with pytest.raises(ValueError):
            solve_ybe(YbeProblem(A2, e_spec="bogus"))
        for spec in ("identity", ID2):
            problem = YbeProblem(A2, e_spec=spec, count_only=True)
            assert solve_ybe(problem).count == 43

    @pytest.mark.parametrize("e_spec, bijective, count_only, count, calls", [
        (fm("e", S("U", 3), S("U", 3), (0, 1, 0)), False, False, 38_483, 1),
        ("all", True, False, 553, 1),
        (fm("e", S("U", 3), S("U", 3), (0, 1, 0)), False, True, 38_483, 0),
    ])
    def test_a_listing_builds_one_pair_carrier(self, monkeypatch, e_spec, bijective,
                                               count_only, count, calls):
        # every listed braiding is a map on the same carrier of X⊗X, built
        # once per solve; a count-only solve builds none
        of, built = ProductSet.of, []
        monkeypatch.setattr(ProductSet, "of", staticmethod(lambda *f: built.append(f) or of(*f)))
        res = solve_ybe(YbeProblem(S("U", 3), e_spec=e_spec, require_bijective=bijective,
                                   count_only=count_only))
        assert (res.count, len(built)) == (count, calls)
        carriers = {id(m) for b, _ in res.solutions for m in (b.map.dom, b.map.cod)}
        assert len(carriers) == calls

    def test_deep_search_needs_no_recursion(self):
        # the all-zero table solves the identity, so the first 49 nodes go straight down
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 40)
        try:
            with pytest.raises(SearchSpaceTooLarge):
                solve_ybe(YbeProblem(S("U", 7), count_only=True, max_nodes=60))
        finally:
            sys.setrecursionlimit(limit)

    def test_deep_search_holds_one_list_of_triples(self):
        # the all-zero table solves the identity, so the search reaches every one of
        # the 400 entries and its triple list grows to all 8,000 triples, not s⁵/3
        tracemalloc.start()
        try:
            with pytest.raises(SearchSpaceTooLarge):
                solve_ybe(YbeProblem(S("U", 20), count_only=True, max_nodes=400))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class InProcessPool:
    """Stands in for ``braiding.Pool``: records the workers asked for and the
    first entries of the branches it is given, and runs them in the parent."""

    def __init__(self, processes):
        self.processes = processes
        self.firsts = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, func, tasks):
        for task in tasks:
            self.firsts.append(task[3])
            yield func(task)


@pytest.fixture
def pools(monkeypatch):
    """The in-process pools a solve starts, in order."""
    made = []

    def start(processes):
        made.append(InProcessPool(processes))
        return made[-1]

    monkeypatch.setattr(braiding, "Pool", start)
    return made


class TestParentFirst:
    """A solve runs every branch in the parent unless it has more than one job
    and at least 3 elements; then one pool runs them all."""

    def test_a_solve_that_fits_in_the_parent_starts_no_pool(self, pools):
        for s, spec, jobs in product(range(3), ("identity", "all"), (2, 9, 64)):
            solve_ybe(YbeProblem(S("U", s), e_spec=spec, jobs=jobs))
        assert pools == []

    @pytest.mark.parametrize("jobs", [2, 9, 64])
    def test_a_solve_on_3_elements_starts_one_pool_first(self, pools, monkeypatch, jobs):
        # the pools started when each branch runs in the parent
        started = []
        branch = braiding._solve_branch
        monkeypatch.setattr(braiding, "_solve_branch",
                            lambda task: started.append(len(pools)) or branch(task))
        # the identity is one class; --e all searches three, one per fibre-size pattern
        for spec, classes in (("identity", 1), ("all", 3)):
            pools.clear()
            started.clear()
            solve_ybe(YbeProblem(S("U", 3), e_spec=spec, require_bijective=True, jobs=jobs))
            assert [(p.processes, p.firsts) for p in pools] == [
                (min(jobs, 9), list(range(9)) * classes)]
            assert started == [1] * 9 * classes

    # the size-3 --bijective solves: 2,833 nodes for the identity, 8,354 for --e all,
    # the sum of its three representatives' 2,833, 2,966 and 2,555
    @pytest.mark.parametrize("spec, total", [("identity", 2833), ("all", 8354)])
    def test_a_forked_solve_gives_what_one_job_gives(self, pools, spec, total):
        problem = YbeProblem(S("U", 3), e_spec=spec, require_bijective=True)
        expected = outcome(solve_ybe(problem))
        assert expected[1] == total
        for jobs in (2, 64):
            assert outcome(solve_ybe(problem._replace(jobs=jobs))) == expected
            counted = solve_ybe(problem._replace(jobs=jobs, count_only=True))
            assert (counted.count, counted.nodes, counted.triples) == expected[:3]
        e = (0, 0, 0) if spec == "all" else (0, 1, 2)  # the first class searched
        group = _search_group(_stabilizer(e, 9))
        ends = list(accumulate(
            braiding._solve_branch((3, e, group, first, True, True, 10**9))[1]
            for first in range(2)
        ))
        inside_branch_1 = (ends[0] + ends[1]) // 2
        assert ends[0] < inside_branch_1 < ends[1]
        # below the roots, inside branch 0, inside branch 1, one below the total
        for budget in (0, 9, inside_branch_1, total - 1):
            refusals = set()
            for jobs in (1, 2, 64):
                with pytest.raises(SearchSpaceTooLarge) as exc:
                    solve_ybe(problem._replace(jobs=jobs, max_nodes=budget))
                refusals.add((exc.value.size, exc.value.bound))
            assert len(refusals) == 1 and refusals.pop()[1] == budget
        # one pool per solve with jobs > 1, but for those refused before the search
        assert len(pools) == 2 * 2 + 3 * 2

    def test_a_forked_solve_on_worker_processes(self):
        problem = YbeProblem(S("U", 3), e_spec="all", require_bijective=True, jobs=2)
        assert outcome(solve_ybe(problem)) == outcome(solve_ybe(problem._replace(jobs=1)))

    # node budgets for the 2,833-node identity solve, whose branches end at
    # 1,401, 1,823, 1,824, 1,825, 2,212, ...: at the roots, inside branch 1,
    # at the end of branch 4
    @pytest.mark.parametrize("budget", [0, 1647, 2212])
    def test_a_split_solve_on_worker_processes(self, budget):
        problem = YbeProblem(S("U", 3), require_bijective=True, max_nodes=budget)
        refusals = []
        for jobs in (1, 2):
            with pytest.raises(SearchSpaceTooLarge) as exc:
                solve_ybe(problem._replace(jobs=jobs))
            refusals.append((exc.value.size, exc.value.bound))
        assert refusals[0] == refusals[1] and refusals[0][1] == budget


# --- incremental consistency check ----------------------------------------------

IDEMPOTENT_TABLES = {s: [e.table for e in enumerate_idempotents(S("U", s))] for s in (1, 2, 3)}


@st.composite
def partial_tables(draw):
    """A carrier size, an idempotent, a partial braiding table with -1 for
    unassigned entries, an unassigned position and a value for it."""
    s = draw(st.integers(min_value=1, max_value=3))
    e = draw(st.sampled_from(IDEMPOTENT_TABLES[s]))
    n2 = s * s
    entry = st.one_of(st.just(-1), st.integers(min_value=0, max_value=n2 - 1))
    table = draw(st.lists(entry, min_size=n2, max_size=n2))
    pos = draw(st.integers(min_value=0, max_value=n2 - 1))
    table[pos] = -1
    return s, e, table, pos, draw(st.integers(min_value=0, max_value=n2 - 1))


def _index_triples(s):
    return list(product(range(s), repeat=3))


def _all_triples(s, e):
    """The constants of all s³ triples, in lex order, as check_ybe builds them."""
    return [t for pos in range(s * s) for t in _triples_from(s, e, pos)]


def _lex_constants(s, e):
    """The constants (s*x+y, e[z], s*y+z, s*e[x]) of all triples, written out in lex order."""
    return [
        (s * x + y, e[z], s * y + z, s * e[x])
        for x in range(s)
        for y in range(s)
        for z in range(s)
    ]


@st.composite
def search_tables(draw):
    """A partial table as the search holds it: entries before pos assigned,
    pos and every later entry unassigned."""
    s = draw(st.integers(min_value=1, max_value=3))
    e = draw(st.sampled_from(IDEMPOTENT_TABLES[s]))
    n2 = s * s
    pos = draw(st.integers(min_value=0, max_value=n2 - 1))
    values = st.integers(min_value=0, max_value=n2 - 1)
    table = draw(st.lists(values, min_size=pos, max_size=pos)) + [-1] * (n2 - pos)
    return s, e, table, pos


@st.composite
def shell_search_tables(draw):
    """A partial table as the search holds it at some depth: the cells before
    that depth in ``_cell_order`` assigned, the cell at it and every later one
    unassigned."""
    s = draw(st.integers(min_value=1, max_value=3))
    e = draw(st.sampled_from(IDEMPOTENT_TABLES[s]))
    order = _cell_order(s)
    depth = draw(st.integers(min_value=0, max_value=s * s - 1))
    table = [-1] * (s * s)
    for c in order[:depth]:
        table[c] = draw(st.integers(min_value=0, max_value=s * s - 1))
    return s, e, table, depth


class TestIncrementalCheck:
    @settings(max_examples=300)
    @given(partial_tables())
    def test_kernel_matches_ybe_sides(self, case):
        s, e, table, pos, v = case
        table[pos] = v
        bad = _first_violation(table, _all_triples(s, e), _lookups(s, e))
        verdicts = [_consistent(s, table, e, [t]) for t in _index_triples(s)]
        assert bad == (verdicts.index(False) + 1 if False in verdicts else 0)

    @settings(max_examples=300)
    @given(partial_tables())
    def test_unwatched_triples_keep_their_verdict(self, case):
        s, e, table, pos, v = case
        constants = _all_triples(s, e)
        watch = set(_reading(table, pos, constants, _lookups(s, e)))
        before = [_consistent(s, table, e, [t]) for t in _index_triples(s)]
        table[pos] = v
        after = [_consistent(s, table, e, [t]) for t in _index_triples(s)]
        for c, b, a in zip(constants, before, after):
            assert c in watch or a == b

    @settings(max_examples=300)
    @given(partial_tables())
    def test_incremental_verdict_equals_full_check(self, case):
        s, e, table, pos, v = case
        triples = _index_triples(s)
        lookups = _lookups(s, e)
        if not _consistent(s, table, e, triples):
            return  # the incremental check assumes a consistent parent
        watch = _reading(table, pos, _all_triples(s, e), lookups)
        table[pos] = v
        assert (_first_violation(table, watch, lookups) == 0) == _consistent(s, table, e, triples)

    @pytest.mark.parametrize("s", range(5))
    def test_builder_runs_make_the_lex_list_of_all_triples(self, s):
        # in order too: the order fixes counts.triples
        for e in (m.table for m in enumerate_idempotents(S("U", s))):
            assert _all_triples(s, e) == _lex_constants(s, e)

    @settings(max_examples=300)
    @given(search_tables())
    def test_lex_prefix_gives_the_watch_list_of_the_triples_within_reach(self, case):
        # the search reads the first s*(pos+1) lex triples; those that also read
        # nothing past pos on the right are the ones that can be watched
        s, e, table, pos = case
        full, lookups = _lex_constants(s, e), _lookups(s, e)
        within = [t for t in full if t[0] <= pos and t[2] <= pos]
        prefix = full[: s * (pos + 1)]
        assert _reading(table, pos, prefix, lookups) == _reading(table, pos, within, lookups)

    @settings(max_examples=300)
    @given(shell_search_tables())
    def test_cell_order_prefix_gives_the_watch_list_of_the_triples_within_reach(self, case):
        # the search reads the first s*(depth+1) triples of its list in cell order;
        # those that also read no unassigned cell but the current one on the right
        # are the ones that can be watched, in the same order
        s, e, table, depth = case
        order, lookups = _cell_order(s), _lookups(s, e)
        listed = [t for c in order for t in _triples_from(s, e, c)]
        reach = set(order[: depth + 1])
        within = [t for t in listed if t[0] in reach and t[2] in reach]
        prefix = listed[: s * (depth + 1)]
        cell = order[depth]
        assert _reading(table, cell, prefix, lookups) == _reading(table, cell, within, lookups)

    def test_incremental_verdict_on_every_size2_prefix(self):
        # every consistent prefix the search can meet, every value at the next position
        for e in IDEMPOTENT_TABLES[2]:
            lookups, constants, triples = _lookups(2, e), _all_triples(2, e), _index_triples(2)
            for n in range(4):
                for prefix in product(range(4), repeat=n):
                    table = list(prefix) + [-1] * (4 - n)
                    if not _consistent(2, table, e, triples):
                        continue
                    watch = _reading(table, n, constants, lookups)
                    for v in range(4):
                        table[n] = v
                        incremental = _first_violation(table, watch, lookups) == 0
                        assert incremental == _consistent(2, table, e, triples)


# --- symmetry reduction -------------------------------------------------------------

PERMUTATIONS = {s: list(permutations(range(s))) for s in (1, 2, 3)}


@settings(max_examples=300)
@given(st.data())
def test_conjugation_carries_solutions_to_solutions(data):
    # check_ybe(σ·B, σ∘e∘σ⁻¹) agrees with check_ybe(B, e): the lemma the reduction rests on
    s = data.draw(st.integers(min_value=1, max_value=3))
    e = data.draw(st.sampled_from(IDEMPOTENT_TABLES[s]))
    sigma = data.draw(st.sampled_from(PERMUTATIONS[s]))
    tab = data.draw(st.lists(st.integers(0, s * s - 1), min_size=s * s, max_size=s * s))
    moved = [0] * (s * s)
    for x, y in product(range(s), repeat=2):
        a, b = divmod(tab[s * x + y], s)
        moved[s * sigma[x] + sigma[y]] = s * sigma[a] + sigma[b]
    conjugate = [0] * s
    for x in range(s):
        conjugate[sigma[x]] = sigma[e[x]]
    X = S("U", s)
    before = check_ybe(braiding_from_table("b", X, X, tab), fm("e", X, X, e))
    after = check_ybe(braiding_from_table("b", X, X, moved), fm("e", X, X, conjugate))
    assert before.holds == after.holds


def _mirror(s, tab):
    """τ·B = τ∘B∘τ, τ(x, y) = (y, x) swapping the factors of X⊗X."""
    moved = [0] * (s * s)
    for x, y in product(range(s), repeat=2):
        a, b = divmod(tab[s * x + y], s)
        moved[s * y + x] = s * b + a
    return moved


def _solves_by_composition(s, tab, e):
    X = S("U", s)
    lhs, rhs = ybe_side_maps(braiding_from_table("b", X, X, tab), fm("e", X, X, e))
    return lhs == rhs


def test_mirror_carries_solutions_to_solutions_on_every_table_of_size_2():
    # B solves the equation for e exactly when τ·B does, for the same e
    solved = 0
    for e in IDEMPOTENT_TABLES[2]:
        for tab in product(range(4), repeat=4):
            holds = _solves_by_composition(2, tab, e)
            assert _solves_by_composition(2, _mirror(2, tab), e) == holds
            solved += holds
    assert solved == 141


@pytest.mark.parametrize("e", IDEMPOTENT_TABLES[3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mirror_carries_solutions_to_solutions_at_size_3(e, data):
    # random tables rarely solve, so half the draws are solutions the full search found
    random_table = st.lists(st.integers(0, 8), min_size=9, max_size=9)
    tab = data.draw(st.one_of(random_table, st.sampled_from(_full_listing(3, e, True))))
    assert _solves_by_composition(3, _mirror(3, tab), e) == _solves_by_composition(3, tab, e)


def _full_listing(s, e, bijective=False):
    return _full_search(s, tuple(e), bijective)


@cache  # keyed on every argument, so that each search runs once
def _full_search(s, e, bijective):
    return full_ybe_search(s, e, bijective)[0]


# every idempotent at s <= 2; at s = 3 the identity, (0,1,0), whose stabilizer is
# trivial, and the other members of its class: all but the constants, whose
# 5,164,591-solution listings are left to the bijective case
REDUCED_CASES = [(s, e) for s in (1, 2) for e in IDEMPOTENT_TABLES[s]] + [
    (3, (0, 1, 2)), (3, (0, 1, 0)),
    (3, (0, 0, 2)), (3, (0, 1, 1)), (3, (0, 2, 2)), (3, (1, 1, 2)), (3, (2, 1, 2)),
]

# each class's frozen solution count, by sorted fibre sizes, without and with --bijective
FROZEN_COUNTS = {
    (1,): (1, 1), (1, 1): (43, 5), (2,): (49, 3),
    (1, 1, 1): (5707, 73), (1, 2): (38483, 5), (3,): (5164591, 150),
}


def _fibre_sizes(e):
    return tuple(sorted(Counter(e).values()))


@cache
def _representative_work(s, rep, bijective):
    """The count, nodes and triples of a count-only solve of ``rep`` on s elements."""
    X = S("U", s)
    res = solve_ybe(YbeProblem(X, e_spec=fm("e", X, X, rep), require_bijective=bijective,
                               count_only=True))
    return res.count, res.nodes, res.triples


def _assert_solved_as_its_class(s, e, bijective, listed, counted):
    """A solve of e: the full search's listing, the frozen count of e's class, and
    the work of the class's representative, whichever member e is."""
    full = _full_listing(s, e, bijective)
    assert [b.map.table for b, _ in listed.solutions] == full
    assert listed.count == counted.count == len(full) == FROZEN_COUNTS[_fibre_sizes(e)][bijective]
    rep = _representative(Counter(e).values())
    work = (counted.count, counted.nodes, counted.triples)
    assert work == (listed.count, listed.nodes, listed.triples) == _representative_work(
        s, rep, bijective
    )


class TestSymmetryReduction:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("s, e", REDUCED_CASES)
    def test_reduced_solve_equals_full_search(self, s, e, jobs):
        X = S("U", s)
        problem = YbeProblem(X, e_spec=fm("e", X, X, e), jobs=jobs)
        counted = solve_ybe(problem._replace(count_only=True))
        _assert_solved_as_its_class(s, e, False, solve_ybe(problem), counted)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("e", IDEMPOTENT_TABLES[3])
    def test_reduced_bijective_solve_equals_full_search(self, e, jobs):
        X = S("U", 3)
        problem = YbeProblem(X, e_spec=fm("e", X, X, e), require_bijective=True, jobs=jobs)
        counted = solve_ybe(problem._replace(count_only=True))
        _assert_solved_as_its_class(3, e, True, solve_ybe(problem), counted)

    def test_a_costly_member_is_solved_at_its_representatives_cost(self):
        # (2,2,2) searched as given tested 15,916,608 tables; (0,0,0) tests 1,716,111,
        # the same at every job count
        X = S("U", 3)
        problem = YbeProblem(X, e_spec=fm("e", X, X, (2, 2, 2)), jobs=2, count_only=True)
        res = solve_ybe(problem)
        assert (res.count, res.nodes, res.triples) == (5164591, 1716111, 7895832)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_classical_solve_equals_full_search(self, jobs):
        X = S("U", 3)
        full = _full_listing(3, (0, 1, 2))
        listed = solve_ybe(YbeProblem(X, jobs=jobs))
        assert [b.map.table for b, _ in listed.solutions] == full and listed.count == 5707

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("s", [1, 2])
    def test_all_idempotents_equal_full_search(self, s, jobs):
        X = S("U", s)
        full = [(e, tab) for e in IDEMPOTENT_TABLES[s] for tab in _full_listing(s, e)]
        problem = YbeProblem(X, e_spec="all", jobs=jobs)
        listed = solve_ybe(problem)
        assert [(e.table, b.map.table) for b, e in listed.solutions] == full
        assert listed.count == solve_ybe(problem._replace(count_only=True)).count == len(full)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_conjugate_is_carried_over_from_its_class_representative(self, monkeypatch, jobs):
        # under --e all, neither (0,0,2) nor (2,1,2) is searched: the solutions of each
        # are those of their class's representative (0,1,0), moved
        X = S("U", 3)
        es = [fm("e", X, X, (0, 0, 2)), fm("e", X, X, (2, 1, 2))]
        monkeypatch.setattr(braiding, "_idempotents", lambda _: iter(es))
        listed = solve_ybe(YbeProblem(X, e_spec="all", jobs=jobs))
        assert listed.nodes == 100314  # those of (0,1,0) alone
        for e in es:
            got = [b.map.table for b, f in listed.solutions if f is e]
            assert got == _full_listing(3, e.table)


class TestRepresentative:
    @pytest.mark.parametrize("s", range(6))
    def test_is_the_lex_least_idempotent_of_the_class_with_an_initial_image(self, s):
        tables = [m.table for m in enumerate_idempotents(S("U", s))]  # in lex order
        for e in tables:
            rep = _representative(Counter(e).values())
            assert rep in tables and set(rep) == set(range(len(set(e))))
            assert _fibre_sizes(rep) == _fibre_sizes(e)
            assert rep == next(
                f for f in tables
                if set(f) == set(range(len(set(f)))) and _fibre_sizes(f) == _fibre_sizes(e)
            )

    def test_every_task_searches_a_representative(self, monkeypatch):
        searched = []
        branch = braiding._solve_branch
        monkeypatch.setattr(braiding, "_solve_branch",
                            lambda task: searched.append(task[1]) or branch(task))
        for s in (1, 2, 3):
            X = S("U", s)
            reps = {_representative(Counter(e).values()) for e in IDEMPOTENT_TABLES[s]}
            for e in ["identity", "all", *IDEMPOTENT_TABLES[s]]:
                spec = e if isinstance(e, str) else fm("e", X, X, e)
                searched.clear()
                solve_ybe(YbeProblem(X, e_spec=spec, require_bijective=True, count_only=True))
                if e == "all":  # each class once, all s² branches of it
                    assert Counter(searched) == {rep: s * s for rep in reps}
                else:
                    table = tuple(range(s)) if e == "identity" else e
                    assert searched == [_representative(Counter(table).values())] * (s * s)


# every idempotent at s <= 2; at s = 3 the identity, (0,1,0) and the bijective identity
ORDERED_CASES = [(s, e, False) for s in (1, 2) for e in IDEMPOTENT_TABLES[s]] + [
    (3, (0, 1, 2), False), (3, (0, 1, 0), False), (3, (0, 1, 2), True),
]


@cache
def _ordered_search(s, e, bijective):
    return ordered_ybe_search(s, e, _cell_order(s), bijective)


class TestShellOrder:
    @pytest.mark.parametrize("s", range(6))
    def test_cells_come_in_shells(self, s):
        order = _cell_order(s)
        assert sorted(order) == list(range(s * s))
        shells = [max(divmod(c, s)) for c in order]
        assert shells == sorted(shells)
        if s <= 2:
            assert order == list(range(s * s))  # so size-2 counters are those of row-major
        if s == 3:
            assert order == [0, 1, 3, 4, 2, 6, 5, 7, 8]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("s, e, bijective", ORDERED_CASES)
    def test_solve_equals_the_ordered_oracle(self, s, e, bijective, jobs):
        # the solver's listings of these cases at jobs 1 and 2 are held to the
        # frozen row-major search by TestSymmetryReduction; every e is searched
        # through its class's representative, so the nodes are the representative's
        count, _, tables = _ordered_search(s, e, bijective)
        assert tables == _full_listing(s, e, bijective)
        X = S("U", s)
        problem = YbeProblem(
            X, e_spec=fm("e", X, X, e), require_bijective=bijective, jobs=jobs, count_only=True
        )
        counted = solve_ybe(problem)
        rep = _representative(Counter(e).values())
        assert (counted.count, counted.nodes) == (count, _ordered_search(s, rep, bijective)[1])


class TestStabilizer:
    @pytest.mark.parametrize("s", range(6))
    def test_matches_filter_of_all_permutations(self, s):
        for e in (m.table for m in enumerate_idempotents(S("U", s))):
            commuting = [
                p for p in permutations(range(s)) if all(p[e[x]] == e[p[x]] for x in range(s))
            ]
            fibre_sizes = Counter(e).values()
            order = prod(factorial(m) for m in Counter(fibre_sizes).values())
            order *= prod(factorial(k - 1) for k in fibre_sizes)
            built = _stabilizer(e, float("inf"))
            assert sorted(built) == commuting and len(commuting) == order

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_search_group_adds_the_factor_swap_once(self, s):
        n2 = s * s
        tau = tuple(s * y + x for x in range(s) for y in range(s))
        for e in IDEMPOTENT_TABLES[s]:
            stab = _stabilizer(e, n2)
            group = _search_group(stab)
            assert len(set(group)) == len(group) == (1 if s == 1 else 2 * len(stab))
            members = set(group)
            assert tau in members and all(sorted(p) == list(range(n2)) for p in group)
            assert all(tuple(p[q] for q in r) in members for p in group for r in group)

    def test_groups_larger_than_s_squared_are_not_used(self):
        assert _stabilizer((0, 1, 2), 9) == sorted(permutations(range(3)))
        assert _stabilizer((0, 1, 0), 9) == [(0, 1, 2)]  # |G| = 1
        assert _stabilizer((0, 1, 2, 3), 16) == [(0, 1, 2, 3)]  # |G| = 24
