"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the lines
even on success).  Every check is backed by an independent brute-force oracle
or an exact frozen value.
"""

import io
import random
from contextlib import redirect_stdout
from itertools import permutations, product
from pathlib import Path

from helpers import (
    S, all_cycles, braiding_from_table, fm, full_ybe_search, generalized_pairs,
    kernel_ybe_search, maps_between, naive_inverses,
)
from regcat.braiding import (
    YbeProblem,
    check_ybe,
    enumerate_idempotents,
    solve_ybe,
)
from regcat.chains import check_chain, extend_periodic, find_chains
from regcat.cli import main
from regcat.core import compose, identity
from regcat.diagrams import (
    Diagram,
    FunctorData,
    check_regular_functor,
    find_regular_3cycles,
    is_commutative,
    is_semicommutative,
    obstruction_number,
    obstructor,
)
from regcat.dsl import parse_workspace, render_workspace
from regcat.inverses import (
    enumerate_inverses,
    generalized_from_inner,
    is_inverse,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def report(n, ok, label):
    print(f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {label}")
    assert ok, f"criterion {n} failed: {label}"


def all_size_pairs(lo=1, hi=3):
    for nx in range(lo, hi + 1):
        for ny in range(lo, hi + 1):
            yield S("X", nx), S("Y", ny)


def test_criterion_01_inner_inverse_completeness():
    ok = True
    for X, Y in all_size_pairs():
        for f in maps_between(X, Y):
            got = enumerate_inverses(f, "inner")
            naive = naive_inverses(f, "inner")
            img = set(f.table)
            fibers = 1
            for y in img:
                fibers *= sum(1 for v in f.table if v == y)
            expected = fibers * X.cardinality ** (Y.cardinality - len(img))
            if got.maps != naive or got.count != expected:
                ok = False
    report(1, ok, "inner-inverse enumeration matches naive filter and count formula")


def test_criterion_02_generalized_from_inner_sound():
    ok = True
    for X, Y in all_size_pairs():
        for f in maps_between(X, Y):
            for g in naive_inverses(f, "inner"):
                gen = generalized_from_inner(f, g)
                if not (is_inverse(f, gen, "inner") and is_inverse(f, gen, "outer")):
                    ok = False
    report(2, ok, "g∘f∘g of any inner inverse is inner and outer")


def test_criterion_03_projector_laws():
    ok = True
    for X, Y in all_size_pairs():
        for f in maps_between(X, Y):
            for g in generalized_pairs(f):
                p_f = compose(f, g)
                p_fs = compose(g, f)
                if compose(p_f, p_f) != p_f or compose(p_fs, p_fs) != p_fs:
                    ok = False
                if compose(p_f, f) != f or compose(f, p_fs) != f:
                    ok = False
    report(3, ok, "projectors idempotent and absorb f on both sides")


def test_criterion_04_closure_theorem():
    ok = True
    for nx in range(1, 4):
        for ny in range(1, 4):
            for nz in range(1, 4):
                X, Y, Z = S("X", nx), S("Y", ny), S("Z", nz)
                fpairs = [
                    (f, fs) for f in maps_between(X, Y) for fs in generalized_pairs(f)
                ]
                gpairs = [
                    (g, gs) for g in maps_between(Y, Z) for gs in generalized_pairs(g)
                ]
                for f, fs in fpairs:
                    p_f = compose(f, fs)
                    for g, gs in gpairs:
                        p_gs = compose(gs, g)
                        if compose(p_f, p_gs) != compose(p_gs, p_f):
                            continue
                        c = compose(g, f)
                        cs = compose(fs, gs)
                        if compose(c, compose(cs, c)) != c or compose(
                            cs, compose(c, cs)
                        ) != cs:
                            ok = False
    report(4, ok, "commuting projectors make g∘f regular with star f*∘g*")


def test_criterion_05_chain_towers():
    ok = True
    for X, Y in all_size_pairs():
        for f in maps_between(X, Y):
            for g in generalized_pairs(f):
                for n in range(1, 8):
                    if not check_chain(extend_periodic(f, g, n)).valid:
                        ok = False
            if Y.cardinality > 0:
                found = find_chains(f, 1)
                if [c.stars[0] for c in found.chains] != enumerate_inverses(
                    f, "inner"
                ).maps:
                    ok = False
    report(5, ok, "periodic towers valid up to n=7; order-1 search = inner inverses")


def test_criterion_06_obstructor_idempotence():
    rng = random.Random(20260823)
    ok = True
    samples = 0
    passing = 0
    while samples < 10_000:
        samples += 1
        n_obj = rng.randint(1, 3)
        objs = [S(f"O{i}", rng.randint(1, 3)) for i in range(n_obj)]
        n_edges = rng.randint(1, 5)
        edges = []
        for k in range(n_edges):
            a = rng.choice(objs)
            b = rng.choice(objs)
            tab = tuple(rng.randrange(b.cardinality) for _ in range(a.cardinality))
            edges.append(fm(f"e{k}", a, b, tab))
        d = Diagram.build(objs, edges)
        if not is_semicommutative(d, 4).semicommutative:
            continue
        passing += 1
        for c in all_cycles(d, 4):
            if not obstructor(d, c).is_idempotent:
                ok = False
    assert passing > 100  # the sample actually exercises the property
    report(6, ok, f"obstructors idempotent in {passing} semicommutative samples")


def test_criterion_07_triangle_fixture():
    ws = parse_workspace((FIXTURES / "triangle.rcw").read_text())
    d = ws.build_diagram("D")
    e = compose(ws.maps["h"], compose(ws.maps["g"], ws.maps["f"]))
    cycles = find_regular_3cycles(d).found
    ok = (
        e.table == (0, 1, 1)
        and is_semicommutative(d, 3).semicommutative
        and not is_commutative(d, 3).commutative
        and obstruction_number(d, "X", 5).n_obstr == 3
        and len(cycles) == 1
        and cycles[0].obstructor.table == (0, 1, 1)
    )
    report(7, ok, "triangle fixture: e=[0,1,1], semi ok, non-commutative, n_obstr=3")


def test_criterion_08_ybe_reduction():
    # with e = Id the regularized equation is the classical braid relation, held here to
    # the naive pointwise sweep, an independent route
    X = S("A", 2)
    e = identity(X)
    classical = _naive_ybe_solutions(2, (0, 1), False)
    ok = True
    for tab in product(range(4), repeat=4):
        b = braiding_from_table("b", X, X, tab)
        if check_ybe(b, e).holds != (tab in classical):
            ok = False
    report(8, ok, "regular check with e=Id matches the classical relation on all 256 braidings")


def _naive_ybe_solutions(s, e, bijective):
    def bl(x, y, z, tab):
        a, b = divmod(tab[s * y + z], s)
        return (e[x], a, b)

    def br(x, y, z, tab):
        a, b = divmod(tab[s * x + y], s)
        return (a, b, e[z])

    out = set()
    n2 = s * s
    for tab in product(range(n2), repeat=n2):
        if bijective and len(set(tab)) != n2:
            continue
        if all(
            br(*bl(*br(x, y, z, tab), tab), tab) == bl(*br(*bl(x, y, z, tab), tab), tab)
            for x, y, z in product(range(s), repeat=3)
        ):
            out.add(tab)
    return out


def test_criterion_09_solver_vs_oracle():
    X = S("A", 2)
    ok = True
    for bij in (False, True):
        got = {
            b.map.table
            for b, _ in solve_ybe(
                YbeProblem(X, e_spec="identity", require_bijective=bij)
            ).solutions
        }
        if got != _naive_ybe_solutions(2, (0, 1), bij):
            ok = False
    for bij in (False, True):
        got = {
            (e.table, b.map.table)
            for b, e in solve_ybe(
                YbeProblem(X, e_spec="all", require_bijective=bij)
            ).solutions
        }
        naive = {
            (e.table, tab)
            for e in enumerate_idempotents(X)
            for tab in _naive_ybe_solutions(2, e.table, bij)
        }
        if got != naive:
            ok = False
    swap_const0 = ((0, 0), (0, 2, 1, 3)) in {
        (e.table, b.map.table)
        for b, e in solve_ybe(YbeProblem(X, e_spec="all")).solutions
    }
    ok = ok and swap_const0
    report(9, ok, "solver output equals naive enumeration; (swap, const0) present")


def test_criterion_10_solver_scale():
    X = S("A", 3)
    one = solve_ybe(YbeProblem(X, e_spec="identity", count_only=True))
    eight = solve_ybe(
        YbeProblem(X, e_spec="identity", count_only=True, jobs=8)
    )
    ok = one.count == eight.count == 5707
    # the symmetry-reduced search: one table per orbit of S_3 × ⟨τ⟩, τ the factor swap,
    # filled in shell order
    ok = ok and one.nodes == eight.nodes == 41652 and one.triples == eight.triples
    # the row-major kernel with S_3 alone, the group the solver cut by before τ joined it
    ok = ok and kernel_ybe_search(3, (0, 1, 2), permutations(range(3)), count_only=True) == (
        5707, 93951, 181447
    )
    # the node count of the full-check search: the incremental check prunes exactly as it did
    count, nodes, triples = full_ybe_search(3, (0, 1, 2), count_only=True)
    ok = ok and count == 5707 and nodes == 716697 and triples <= 2_000_000
    report(10, ok, f"size-3 count-only solve: {one.count} with jobs 1 and 8, {one.nodes} nodes")


def test_criterion_11_dsl_determinism():
    ok = True
    for p in sorted(FIXTURES.glob("*.rcw")):
        ws = parse_workspace(p.read_text())
        canon = render_workspace(ws)
        if render_workspace(parse_workspace(canon)) != canon:
            ok = False
    outs = []
    for _ in range(3):
        with redirect_stdout(io.StringIO()) as out:
            code = main(["cycles3", str(FIXTURES / "triangle.rcw"), "--name", "D", "--json"])
        outs.append(out.getvalue())
    ok = ok and code == 0 and len(set(outs)) == 1
    report(11, ok, "parse/render fixpoint and byte-identical reports")


def _standard_functor_ok(fd):
    """Reference check: identities to identities, named composites preserved."""
    src, tgt = fd.source, fd.target
    for name, m in src.edges.items():
        if m.is_identity() and not tgt.edges[fd.edge_map[name]].is_identity():
            return False
    names = sorted(src.edges)
    for a in names:
        for b in names:
            if src.edges[b].dom.id != src.edges[a].cod.id:
                continue
            comp = compose(src.edges[b], src.edges[a])
            for c in names:
                if src.edges[c] == comp:
                    img = compose(
                        tgt.edges[fd.edge_map[b]], tgt.edges[fd.edge_map[a]]
                    )
                    if img != tgt.edges[fd.edge_map[c]]:
                        return False
    return True


def test_criterion_12_functor_reduction():
    rng = random.Random(99)
    ok = True
    for _ in range(100):
        n_obj = rng.randint(1, 2)
        objs = [S(f"O{i}", rng.randint(1, 3)) for i in range(n_obj)]
        edges = [fm(f"id{i}", o, o, tuple(range(o.cardinality))) for i, o in enumerate(objs)]
        for k in range(rng.randint(1, 3)):
            a, b = rng.choice(objs), rng.choice(objs)
            edges.append(
                fm(f"e{k}", a, b, tuple(rng.randrange(b.cardinality) for _ in range(a.cardinality)))
            )
        src = Diagram.build(objs, edges)
        # target: image of each edge under a random relabelling of tables
        tgt_edges = []
        for m in src.edges.values():
            if rng.random() < 0.8:
                tgt_edges.append(fm(f"t_{m.name}", m.dom, m.cod, m.table))
            else:
                tgt_edges.append(
                    fm(
                        f"t_{m.name}",
                        m.dom,
                        m.cod,
                        tuple(rng.randrange(m.cod.cardinality) for _ in m.table),
                    )
                )
        tgt = Diagram.build(objs, tgt_edges)
        fd = FunctorData(
            src,
            tgt,
            {o.id: o.id for o in objs},
            {n: f"t_{n}" for n in src.edges},
        )
        rep = check_regular_functor(fd, 1)
        if (rep.composition_preserved and rep.e_preserved) != _standard_functor_ok(fd):
            ok = False
    report(12, ok, "n=1 functor check agrees with the standard verification")
