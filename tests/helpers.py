"""Shared builders and brute-force oracles for the test suite.

Oracles here are deliberately naive (full enumeration, pointwise filters) so
they stay independent of the library code paths they check.
"""

from itertools import product

from regcat.core import FinMap, FiniteSet


def S(sid: str, n: int) -> FiniteSet:
    return FiniteSet(sid, tuple(f"{sid.lower()}{i}" for i in range(n)))


def fm(name, dom, cod, table) -> FinMap:
    return FinMap(name, dom, cod, tuple(table))


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
