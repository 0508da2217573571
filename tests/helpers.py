"""Shared builders, brute-force oracles and test-only routes for the test suite.

Oracles here are deliberately naive (full enumeration, pointwise filters) so
they stay independent of the library code paths they check.  The library
runs none of this module: ``all_cycles`` lists the library walk's cycles for
the tests, ``ybe_side_maps`` is the compositional route to the YBE,
``row_major_branch`` is the YBE kernel as it was before it filled cells in
shell order, and ``braiding_from_table`` builds a braiding from a bare table
on fresh product carriers.
"""

from itertools import islice, permutations, product

from regcat.braiding import (
    Braiding,
    YbeResult,
    _act,
    _consistent,
    _first_violation,
    _lookups,
    _reading,
    _triples_from,
    _ybe_sides,
    prebraid,
)
from regcat.core import FinMap, FiniteSet, ProductSet, compose, compose_path
from regcat.diagrams import (
    CommutativityReport,
    Cycle,
    Diagram,
    ObstructionReport,
    RegularThreeCycle,
    SemicommutativityReport,
    _cycles,
    _Walk,
)
from regcat.errors import TypeMismatch


def S(sid: str, n: int) -> FiniteSet:
    return FiniteSet(sid, tuple(f"{sid.lower()}{i}" for i in range(n)))


def fm(name, dom, cod, table) -> FinMap:
    return FinMap(name, dom, cod, tuple(table))


def braiding_from_table(name: str, X: FiniteSet, Y: FiniteSet, table) -> Braiding:
    dom, cod = ProductSet.of(X, Y), ProductSet.of(Y, X)
    return Braiding(X, Y, fm(name, dom.carrier, cod.carrier, table))


def maps_between(dom: FiniteSet, cod: FiniteSet, prefix="m") -> list[FinMap]:
    """All maps dom -> cod in lexicographic table order (independent of core.all_maps)."""
    if dom.cardinality == 0:
        return [FinMap(f"{prefix}0", dom, cod, ())]
    if cod.cardinality == 0:
        return []
    out = []
    for k, t in enumerate(product(range(cod.cardinality), repeat=dom.cardinality)):
        out.append(FinMap(f"{prefix}{k}", dom, cod, t))
    return out


def pointwise_compose(g: FinMap, f: FinMap) -> tuple[int, ...]:
    return tuple(g.table[v] for v in f.table)


def naive_is_inner(f: FinMap, g: FinMap) -> bool:
    return tuple(f.table[g.table[f.table[x]]] for x in range(len(f.table))) == f.table


def naive_is_outer(f: FinMap, g: FinMap) -> bool:
    return tuple(g.table[f.table[g.table[y]]] for y in range(len(g.table))) == g.table


def naive_inverses(f: FinMap, kind: str) -> list[FinMap]:
    out = []
    for g in maps_between(f.cod, f.dom, prefix="g"):
        inner = naive_is_inner(f, g)
        outer = naive_is_outer(f, g)
        keep = {"inner": inner, "outer": outer, "generalized": inner and outer}[kind]
        if keep:
            out.append(g)
    return out


def generalized_pairs(f: FinMap) -> list[FinMap]:
    return naive_inverses(f, "generalized")


def sizes_upto(n, include_empty=False):
    lo = 0 if include_empty else 1
    return range(lo, n + 1)


def naive_closes(f: FinMap, stars: list[tuple[int, ...]]) -> bool:
    """The order-k closure equation of a tower prefix of k star tables, pointwise."""
    if len(stars) % 2 == 1:
        # f ∘ s1 ∘ ... ∘ sk ∘ f = f
        m = f.table
        for s in reversed(stars):
            m = tuple(s[v] for v in m)
        return tuple(f.table[v] for v in m) == f.table
    # s1 ∘ s2 ∘ ... ∘ sk ∘ s1 = s1
    m = stars[0]
    for s in reversed(stars[1:]):
        m = tuple(s[v] for v in m)
    return tuple(stars[0][v] for v in m) == stars[0]


def naive_chains(f: FinMap, n: int) -> list[tuple[tuple[int, ...], ...]]:
    """Star tables of every valid order-n tower over f, in lex order.

    Each level sweeps every map of its type and keeps those that close the
    equation of that order.
    """
    X, Y = f.dom, f.cod
    out = []

    def extend(stars):
        if len(stars) == n:
            out.append(tuple(stars))
            return
        dom, cod = (Y, X) if len(stars) % 2 == 0 else (X, Y)
        for s in maps_between(dom, cod):
            if naive_closes(f, [*stars, s.table]):
                extend([*stars, s.table])

    extend([])
    return out


# --- diagram walk oracle --------------------------------------------------------
# A recursive walk, one length at a time, independent of diagrams._Walk: every
# path is rebuilt from its edges with compose_path and compared as a FinMap.


def oracle_path_compose(d, path):
    return compose_path([d.edges[name] for name in path])


def oracle_paths(d, start, length):
    """Simple paths (no repeated edge) of exactly the given length from start."""
    def dfs(at, used):
        if len(used) == length:
            yield used
            return
        for name in d.edges_from(at):
            if name not in used:
                yield from dfs(d.edges[name].cod.id, used + (name,))

    yield from dfs(start, ())


def oracle_cycles_at(d, base, length):
    for path in oracle_paths(d, base, length):
        if d.edges[path[-1]].cod.id == base:
            yield Cycle(base, path)


def oracle_all_cycles(d, max_len):
    for n in range(1, max_len + 1):
        for base in sorted(d.objects):
            yield from oracle_cycles_at(d, base, n)


def all_cycles(d: Diagram, max_len: int):
    """Simple cycles of 1..max_len edges by (length, base, path), from the
    library's own walk; the tests hold it to oracle_all_cycles."""
    for c, _ in _cycles(_Walk(d), sorted(d.objects), max_len):
        yield c


def oracle_is_commutative(d, max_len):
    violations = []
    for c in oracle_all_cycles(d, max_len):
        if not oracle_path_compose(d, c.edges).is_identity():
            violations.append(("cycle", c))
            break
    done = False
    for start in sorted(d.objects):
        if done:
            break
        by_target = {}
        for n in range(1, max_len + 1):
            for path in oracle_paths(d, start, n):
                end = d.edges[path[-1]].cod.id
                comp = oracle_path_compose(d, path)
                for other_path, other in by_target.get(end, []):
                    if other != comp:
                        violations.append(("parallel_paths", other_path, path))
                        done = True
                        break
                if done:
                    break
                by_target.setdefault(end, []).append((path, comp))
            if done:
                break
    return CommutativityReport(not violations, tuple(violations))


def oracle_is_semicommutative(d, max_len):
    violations = []
    for c in oracle_all_cycles(d, max_len):
        e = oracle_path_compose(d, c.edges)
        for name in d.edges_from(c.base):
            f = d.edges[name]
            if compose(f, e) != f:
                violations.append(("absorption", c, name))
    return SemicommutativityReport(not violations, tuple(violations))


def oracle_obstruction_number(d, X, max_n):
    for n in range(1, max_n + 1):
        for c in oracle_cycles_at(d, X, n):
            if not oracle_path_compose(d, c.edges).is_identity():
                return ObstructionReport(n, c)
    return ObstructionReport(None, None)


def oracle_functor_obstructors(fd, n):
    """The level-2..n obstructor violations of check_regular_functor, in its order."""
    src, tgt = fd.source, fd.target
    violations = []
    for length in range(2, n + 1):
        for base in sorted(src.objects):
            tgt_cycles = list(oracle_cycles_at(tgt, fd.object_map[base], length))
            if not tgt_cycles:
                continue
            for c in oracle_cycles_at(src, base, length):
                p = oracle_path_compose(tgt, [fd.edge_map[e] for e in c.edges])
                for c2 in tgt_cycles:
                    if oracle_path_compose(tgt, c2.edges) != p:
                        violations.append(("obstructor", c, c2))
    return violations


def oracle_regular_3cycles(d):
    """find_regular_3cycles by sweeping every triple of edge names."""
    triples = []
    names = sorted(d.edges)
    for a in names:
        ea = d.edges[a]
        for b in names:
            if b == a:
                continue
            eb = d.edges[b]
            if eb.dom.id != ea.cod.id:
                continue
            for c in names:
                if c in (a, b):
                    continue
                ec = d.edges[c]
                if ec.dom.id == eb.cod.id and ec.cod.id == ea.dom.id:
                    triples.append((a, b, c))
    seen = set()
    out = []
    for t in sorted(triples):
        rots = sorted([t, (t[1], t[2], t[0]), (t[2], t[0], t[1])])
        key = rots[0]
        if key in seen:
            continue
        seen.add(key)
        for fa, fb, fc in rots:
            if (fa, fb, fc) not in triples:
                continue
            f, g, h = d.edges[fa], d.edges[fb], d.edges[fc]
            e = compose(h, compose(g, f))
            if compose(f, e) == f:
                out.append(RegularThreeCycle(f.dom, g.dom, h.dom, f, g, h))
                break
    return out


def oracle_functor_composition(fd):
    """The composition violations of check_regular_functor, by sweeping every
    pair of source edges and every candidate composite."""
    src, tgt = fd.source, fd.target
    violations = []
    names = sorted(src.edges)
    for a in names:
        ea = src.edges[a]
        for b in names:
            eb = src.edges[b]
            if eb.dom.id != ea.cod.id:
                continue
            comp = compose(eb, ea)
            for cname in names:
                if src.edges[cname] == comp:
                    img = compose(tgt.edges[fd.edge_map[b]], tgt.edges[fd.edge_map[a]])
                    if img != tgt.edges[fd.edge_map[cname]]:
                        violations.append(("composition", a, b, cname))
    return violations


# --- YBE verdict oracle -------------------------------------------------------------


def ybe_side_maps(b: Braiding, e: FinMap) -> tuple[FinMap, FinMap]:
    """Both sides of the regularized YBE as maps on X³, built from prebraids.

    Single-carrier only; the compositional route against which the triple
    kernel of check_ybe is cross-checked.
    """
    if b.left.id != b.right.id:
        raise TypeMismatch(b.left.id, b.right.id, "single-carrier check")
    X = b.left
    bl = prebraid(b, "L", e, (X, X, X))
    br = prebraid(b, "R", e, (X, X, X))
    lhs = compose(br, compose(bl, br))
    rhs = compose(bl, compose(br, bl))
    return lhs, rhs


def oracle_check_ybe(b, e):
    """check_ybe's verdict, comparing both sides triple by triple with _ybe_sides."""
    X = b.left
    s = X.cardinality
    table = list(b.map.table)
    for x in range(s):
        for y in range(s):
            for z in range(s):
                lhs, rhs = _ybe_sides(s, table, e.table, x, y, z)
                if lhs != rhs:
                    return YbeResult(False, (X.label(x), X.label(y), X.label(z)))
    return YbeResult(True, None)


def full_ybe_search(s, e, bijective=False, count_only=False):
    """The YBE search without symmetry reduction: the row-major kernel with the
    trivial group, summed over every first entry.  Returns (found, nodes,
    triples), found being the count or the solution tables in lex order."""
    return kernel_ybe_search(s, e, [tuple(range(s))], bijective, count_only)


def kernel_ybe_search(s, e, sigmas, bijective=False, count_only=False):
    """The row-major kernel with the group {σ⊗σ : σ in sigmas} on the pair
    indices, without the factor swap, summed over every first entry; sigmas
    must be a group of permutations commuting with e.  Returns what
    full_ybe_search does; a listing comes in lex order."""
    group = tuple({tuple(s * a + b for a in sigma for b in sigma) for sigma in sigmas})
    found, nodes, triples = (0 if count_only else []), 0, 0
    for first in range(s * s):
        args = (s, tuple(e), group, first, bijective, count_only, float("inf"))
        f, n, t = row_major_branch(args)
        found, nodes, triples = found + f, nodes + n, triples + t
    return found if count_only else sorted(found), nodes, triples


def ordered_ybe_search(s, e, order, bijective=False):
    """The symmetry-reduced YBE search in a given cell order, written out
    naively: cells are assigned in ``order``, every candidate table is checked
    on all s³ triples with ``_consistent``, and it is cut when some π·T is
    smaller than T in ``order`` on the cells both determine, π running over
    σ⊗σ and τ∘(σ⊗σ) for every permutation σ that commutes with e, τ swapping
    the factors.  Each leaf counts and lists its whole orbit.  Returns
    (count, nodes, tables), the tables in lex order; for 1 <= s."""
    n2 = s * s
    triples = list(product(range(s), repeat=3))
    group = set()
    for p in permutations(range(s)):
        if all(p[e[x]] == e[p[x]] for x in range(s)):
            group.add(tuple(s * p[x] + p[y] for x in range(s) for y in range(s)))
            group.add(tuple(s * p[y] + p[x] for x in range(s) for y in range(s)))
    table = [-1] * n2
    tables = []
    nodes = 0

    def moved(pi):
        out = [-1] * n2
        for q, v in enumerate(table):
            if v >= 0:
                out[pi[q]] = pi[v]
        return out

    def least():
        for pi in group:
            other = moved(pi)
            for c in order:
                if other[c] < 0 or table[c] < 0:
                    break
                if other[c] != table[c]:
                    if other[c] < table[c]:
                        return False
                    break
        return True

    def extend(depth):
        nonlocal nodes
        cell = order[depth]
        for v in range(n2):
            if bijective and v in table:
                continue
            nodes += 1
            table[cell] = v
            if not (_consistent(s, table, e, triples) and least()):
                continue
            if depth + 1 < n2:
                extend(depth + 1)
            else:
                tables.extend({tuple(moved(pi)) for pi in group})
        table[cell] = -1

    extend(0)
    return len(tables), nodes, sorted(tables)


# --- frozen row-major kernel -------------------------------------------------------
# The solver's search as it was before it filled cells in shell order, kept
# verbatim so the counters pinned on it stay comparable across changes.


def _row_major_undecided(table, pos: int, live):
    """Compare σ·T with T on the entries both determine, for each σ in ``live``.

    ``live`` holds (σ⊗σ, its inverse, q) for the σ whose comparison is still
    open, q being the first entry not yet seen equal.  Entries 0..pos of T
    are assigned, and (σ·T)[q] = σ⊗σ(T[σ⊗σ⁻¹(q)]) is known when that index is
    too.  Returns None if some σ·T is lex-smaller than T; otherwise the σ still
    open, dropping those with σ·T already larger, since further entries decide
    neither of these again.
    """
    kept = []
    for pairs, inverse, q in live:
        while q <= pos and inverse[q] <= pos:
            w = pairs[table[inverse[q]]]
            if w != table[q]:
                if w < table[q]:
                    return None
                break
            q += 1
        else:
            kept.append((pairs, inverse, q))
    return kept


def row_major_branch(args):
    """The solver's kernel as it was when it filled the table in row-major
    order, frozen as an oracle: solutions with a fixed first table entry.

    Returns ``(found, nodes, triples)``: the solution tables, or only their
    number under ``count_only``; the candidate tables tested; and the triple
    evaluations spent on them.  A branch stops once ``nodes`` exceeds
    ``budget``.

    Entries are assigned in index order by a depth-first search that keeps its
    own stack, one frame per assigned entry: the values left to try there,
    the triples ``_reading`` picks for that position, and the σ still open.
    Each candidate value re-checks only those triples; the rest kept the
    verdict they had at the parent, which passed.  Position 0 starts from the
    empty table, so the root gets the same exact check.

    The triples are kept in one lex list, grown by ``_triples_from(s, e,
    pos)`` the first time the search reaches pos, so it holds at most s³.
    Its first s*(pos+1) entries are the triples with s*x+y <= pos, and only
    they can be watched at pos: entries past pos are unassigned, so the rest
    stop on the left before reading pos, and ``_reading`` drops the triples
    of the prefix that stop on the right at an entry past pos.

    ``group`` is a group of permutations π of the pair indices, each a
    tuple, that carry solutions for e to solutions for e under
    (π·T)[π(q)] = π(T[q]): ``_search_group`` builds Stab(e) × ⟨τ⟩.  A table
    that passes is cut when some π·T is lex-smaller
    (``_row_major_undecided``), so each leaf is the lex-least member of its
    orbit, and the leaf stands for the whole orbit: |group| / |Stab(T)|
    solutions, listed in no particular order.  With the trivial group this
    is the full search.
    """
    s, e, group, first, bijective, count_only, budget = args
    n2 = s * s
    lookups = _lookups(s, e)
    lex: list[tuple[int, int, int, int]] = []
    acting = [pairs for pairs in group if pairs != tuple(range(n2))]
    table = [-1] * n2
    used = [False] * n2
    found = 0 if count_only else []
    nodes = evals = 0

    def frame(pos: int, values, live) -> tuple:
        if len(lex) == s * pos:
            lex.extend(_triples_from(s, e, pos))
        return iter(values), _reading(table, pos, islice(lex, s * (pos + 1)), lookups), live

    live = [(pairs, sorted(range(n2), key=pairs.__getitem__), 0) for pairs in acting]
    stack = [frame(0, (first,), live)]
    while stack:
        pos = len(stack) - 1
        values, watch, live = stack[-1]
        for v in values:
            if bijective and used[v]:
                continue
            nodes += 1
            if nodes > budget:
                return found, nodes, evals
            table[pos] = v
            bad = _first_violation(table, watch, lookups)
            evals += bad or len(watch)
            if bad:
                continue
            kept = live
            if live:
                kept = _row_major_undecided(table, pos, live)
                if kept is None:
                    continue
            if pos + 1 < n2:
                used[v] = True
                stack.append(frame(pos + 1, range(n2), kept))
                break
            if count_only:
                found += len(group) // (1 + len(kept))
            else:
                found.extend({tuple(table), *(_act(pairs, table) for pairs in acting)})
        else:
            stack.pop()
            table[pos] = -1
            if pos:
                used[table[pos - 1]] = False
    return found, nodes, evals


# --- chain verdict oracle ----------------------------------------------------------


def compose_path_verdict(c):
    """check_chain's verdict fields, rebuilding every prefix with compose_path.

    Returns (odd_closure, even_closure, ef_form, obstructor,
    obstructor_idempotent, failures).
    """
    f = c.base
    closures = {1: None, 0: None}  # odd, even
    failures = []
    for k in range(1, c.order + 1):
        prefix = c.stars[:k]
        if k % 2 == 1:
            lhs, rhs = compose_path([f, *reversed(prefix), f]), f
            eq, carrier = f"nreg2[{k}]", f.dom
        else:
            lhs, rhs = compose_path([prefix[0], *reversed(prefix[1:]), prefix[0]]), prefix[0]
            eq, carrier = f"nreg1[{k}]", f.cod
        holds = lhs == rhs
        closures[k % 2] = holds if closures[k % 2] is None else closures[k % 2] and holds
        if not holds:
            i = next(i for i in range(len(rhs.table)) if lhs.table[i] != rhs.table[i])
            failures.append((eq, carrier.label(i)))
    if c.order % 2 == 1:
        e = compose_path([f, *reversed(c.stars)])
    else:
        e = compose_path(list(reversed(c.stars)))
    return closures[1], closures[0], compose(f, e) == f, e, compose(e, e) == e, tuple(failures)
