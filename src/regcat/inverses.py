"""Inner, outer and generalized inverses of finite maps, and their projectors.

A map g: cod(f) -> dom(f) is an *inner* inverse of f when f∘g∘f = f, an
*outer* inverse when g∘f∘g = g, and a *generalized* inverse when it is both.
Every finite map with a nonempty domain (or empty codomain) has an inner
inverse, so "regular" is not a restriction here; what varies is how many
inverses exist and whether the generalized one is unique.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import islice
from math import prod
from typing import Iterator, NamedTuple, Optional

from .core import FinMap, all_maps, classify_map, compose, fibre_columns
from .errors import (
    NoInverseExists,
    NotAnInnerInverse,
    SearchSpaceTooLarge,
    TypeMismatch,
)

INVERSE_KINDS = ("inner", "outer", "generalized")

DEFAULT_MAX_SPACE = 10**8


def _check_reversed_typing(f: FinMap, g: FinMap) -> None:
    if g.dom.id != f.cod.id or g.cod.id != f.dom.id:
        raise TypeMismatch(f"{f.cod.id}->{f.dom.id}", f"{g.dom.id}->{g.cod.id}")


def is_inverse(f: FinMap, g: FinMap, kind: str) -> bool:
    """Pointwise check of the defining equation(s) of the given inverse kind."""
    _check_reversed_typing(f, g)
    if kind not in INVERSE_KINDS:
        raise ValueError(f"unknown inverse kind {kind!r}")
    inner = compose(compose(f, g), f) == f
    if kind == "inner":
        return inner
    outer = compose(compose(g, f), g) == g
    if kind == "outer":
        return outer
    return inner and outer


def section_inner_inverse(f: FinMap) -> FinMap:
    """Canonical inner inverse: least-index preimage on the image, index 0 off it."""
    if f.dom.cardinality == 0 and f.cod.cardinality > 0:
        raise NoInverseExists(f"{f.name!r} has empty domain and nonempty codomain")
    first_preimage: dict[int, int] = {}
    for x, y in enumerate(f.table):
        first_preimage.setdefault(y, x)
    table = tuple(first_preimage.get(y, 0) for y in range(f.cod.cardinality))
    return FinMap(f"{f.name}_sec", f.cod, f.dom, table)


class InverseEnumeration(NamedTuple):
    maps: list[FinMap]
    count: int
    truncated: bool  # a further inverse exists beyond the limit
    nodes: int       # candidate or partial tables tested


class _OuterTables:
    """Tables of the outer inverses of f in lex order, built as they are taken.

    A depth-first search over the positions y of cod(f) in order, trying at
    each the ascending values of ``columns[y]`` (all of dom(f) where None).
    g∘f∘g = g says g(f(x)) = x for every value x = g(y), so setting g(y) = x
    forces position f(x): x is rejected when an earlier position forced g(y)
    otherwise, when f(x) < y and g(f(x)) ≠ x, or when f(x) > y is already
    forced to another value.  ``nodes`` is the number of (position, value)
    pairs tested so far; the search stops once it exceeds ``bound``.
    """

    def __init__(self, f: FinMap, columns: Optional[list[Optional[list[int]]]] = None,
                 bound: int = sys.maxsize):
        self.f = f
        whole = range(f.dom.cardinality)
        self.columns = [whole if c is None else c for c in columns or [None] * f.cod.cardinality]
        self.bound = bound
        self.nodes = 0

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        ny, ft, columns, bound = self.f.cod.cardinality, self.f.table, self.columns, self.bound
        g = [0] * ny
        at = [0] * ny  # at[y]: the index of g(y) in columns[y]
        forced: list[Optional[int]] = [None] * ny
        claims: list[Optional[int]] = [None] * ny  # claims[y]: the position g(y) forced
        nodes = 0
        y, i = 0, 0  # the position being filled and the index of the next value to try
        while y >= 0 and nodes <= bound:
            if y < ny and i < len(columns[y]):
                nodes += 1
                x = columns[y][i]
                t = ft[x]
                if forced[y] not in (None, x):
                    fits = False
                elif t < y:
                    fits = g[t] == x
                else:
                    fits = t == y or forced[t] in (None, x)
                if not fits:
                    i += 1
                    continue
                g[y], at[y] = x, i
                if t > y and forced[t] is None:
                    forced[t], claims[y] = x, t
                y, i = y + 1, 0
                continue
            if y == ny:
                self.nodes = nodes
                yield tuple(g)
            y -= 1  # backtrack: undo the choice at y and try its next value
            if y >= 0:
                if claims[y] is not None:
                    forced[claims[y]], claims[y] = None, None
                i = at[y] + 1
        self.nodes = nodes


def count_inverses(f: FinMap, kind: str) -> int:
    """The number of inverses of the given kind, from the fibre sizes of f.

    With n_y = |f⁻¹(y)| for y in im f, m = |im f| and Y = cod(f):
    inner ∏n_y · |X|^(|Y|−m), generalized ∏n_y · m^(|Y|−m), and outer
    Σₖ eₖ · k^(|Y|−k) over k = 0..m, where eₖ is the k-th elementary
    symmetric sum of the n_y.  An outer inverse g is fixed by its image A:
    g∘f fixes A, so f is injective on A, g sends f(a) to a, and every other
    point of Y goes into A; eₖ counts the sets A of size k on which f is
    injective.  The k = 0 term counts the empty map when Y is empty.
    O(|X| + m²) operations.
    """
    if kind not in INVERSE_KINDS:
        raise ValueError(f"unknown inverse kind {kind!r}")
    ny = f.cod.cardinality
    fibres = list(Counter(f.table).values())
    m = len(fibres)
    if kind != "outer":
        return prod(fibres) * (f.dom.cardinality if kind == "inner" else m) ** (ny - m)
    e = [1] + [0] * m
    for i, n in enumerate(fibres, start=1):
        for k in range(i, 0, -1):
            e[k] += e[k - 1] * n
    return sum(e[k] * k ** (ny - k) for k in range(m + 1))


def enumerate_inverses(
    f: FinMap,
    kind: str,
    limit: Optional[int] = None,
    max_space: int = DEFAULT_MAX_SPACE,
) -> InverseEnumeration:
    """All inverses of the given kind, in lexicographic table order.

    The inverses are built, not filtered out of all |dom|^|cod| maps g.
    Inner ones are the product of the fibres f⁻¹(y) over im f, with any
    value elsewhere.  Outer ones come from a depth-first search
    (``_OuterTables``); generalized ones from the same search with the
    value at each y of im f taken from the fibre f⁻¹(y).

    max_space bounds the nodes the search builds: the tables for inner
    inverses, the table entries for outer and generalized ones.
    SearchSpaceTooLarge is raised once the search has built more than
    max_space nodes.  Without a limit the count is exact, and since every
    inverse costs at least one node, the search is refused before it
    starts when ``count_inverses`` exceeds max_space.  With a limit nothing
    is counted in advance, and at most `limit` inverses are returned,
    flagged truncated exactly when a further one exists.
    """
    if kind not in INVERSE_KINDS:
        raise ValueError(f"unknown inverse kind {kind!r}")
    if limit is None:
        count = count_inverses(f, kind)
        if count > max_space:
            raise SearchSpaceTooLarge(count, max_space, f"{kind} inverses",
                                      "pass a limit to truncate")
    stop = None if limit is None else limit + 1
    columns = fibre_columns(f.table, f.cod.cardinality, f.table)
    if kind == "inner":
        # each table is a node, so one past the bound is the last one built
        tables = all_maps(f.cod, f.dom, f"{f.name}_inv", columns)
        found = list(islice(tables, max_space + 1 if stop is None else min(stop, max_space + 1)))
        nodes = len(found)
    else:
        search = _OuterTables(f, columns if kind == "generalized" else None, max_space)
        found = [FinMap(f"{f.name}_inv{k}", f.cod, f.dom, t)
                 for k, t in enumerate(islice(search, stop))]
        nodes = search.nodes
    if nodes > max_space:
        unit = "inverse tables" if kind == "inner" else "table entries"
        raise SearchSpaceTooLarge(nodes, max_space, unit)
    truncated = limit is not None and len(found) > limit
    found = found[:limit]
    return InverseEnumeration(found, len(found), truncated, nodes)


def generalized_from_inner(f: FinMap, g_in: FinMap) -> FinMap:
    """Reflexive (generalized) inverse g∘f∘g obtained from an inner inverse g."""
    if not is_inverse(f, g_in, "inner"):
        raise NotAnInnerInverse(f"{g_in.name!r} is not an inner inverse of {f.name!r}")
    return compose(g_in, compose(f, g_in))


class ProjectorPair(NamedTuple):
    """The two projection operators of a pair (f, f*)."""

    p_f: FinMap        # f∘f*, endomap of cod(f)
    p_fstar: FinMap    # f*∘f, endomap of dom(f)
    p_f_idempotent: bool
    p_fstar_idempotent: bool
    absorbs_f: bool      # p_f∘f = f = f∘p_fstar
    absorbs_fstar: bool  # p_fstar∘f* = f* = f*∘p_f


def projectors(f: FinMap, fstar: FinMap) -> ProjectorPair:
    _check_reversed_typing(f, fstar)
    p_f = compose(f, fstar)
    p_fstar = compose(fstar, f)
    return ProjectorPair(
        p_f=p_f,
        p_fstar=p_fstar,
        p_f_idempotent=compose(p_f, p_f) == p_f,
        p_fstar_idempotent=compose(p_fstar, p_fstar) == p_fstar,
        absorbs_f=compose(p_f, f) == f and compose(f, p_fstar) == f,
        absorbs_fstar=compose(p_fstar, fstar) == fstar and compose(fstar, p_f) == fstar,
    )


class InvertibilityClass(NamedTuple):
    retraction: bool
    coretraction: bool
    retraction_witness: Optional[FinMap]
    coretraction_witness: Optional[FinMap]


def invertibility_class(f: FinMap) -> InvertibilityClass:
    """Right/left invertibility with canonical witnesses.

    f is a retraction iff some g has f∘g = Id (for finite sets: f surjective),
    and a coretraction iff some g has g∘f = Id (f injective and, when the
    domain is empty, the codomain empty too).  The least-preimage section
    ``section_inner_inverse(f)`` is such a g in either case.
    """
    cls = classify_map(f)
    coretraction = cls.injective and (f.dom.cardinality > 0 or f.cod.cardinality == 0)
    g = section_inner_inverse(f) if cls.surjective or coretraction else None
    return InvertibilityClass(
        retraction=cls.surjective,
        coretraction=coretraction,
        retraction_witness=g if cls.surjective else None,
        coretraction_witness=g if coretraction else None,
    )


class ClosureReport(NamedTuple):
    projectors_commute: bool
    composite_regular: bool
    composite_star: FinMap


def closure_composite(f: FinMap, fstar: FinMap, g: FinMap, gstar: FinMap) -> ClosureReport:
    """Closure of regularity under composition via projector commutativity.

    With f: X->Y and g: Y->Z, checks whether 𝒫_f = f∘f* and 𝒫_{g*} = g*∘g
    commute on Y, and whether f*∘g* is a generalized inverse of g∘f.
    """
    _check_reversed_typing(f, fstar)
    _check_reversed_typing(g, gstar)
    if f.cod.id != g.dom.id:
        raise TypeMismatch(g.dom.id, f.cod.id, "closure_composite")
    p_f = compose(f, fstar)
    p_gstar = compose(gstar, g)
    commute = compose(p_f, p_gstar) == compose(p_gstar, p_f)
    composite = compose(g, f)
    composite_star = compose(fstar, gstar)
    regular = is_inverse(composite, composite_star, "generalized")
    return ClosureReport(commute, regular, composite_star)


def unique_generalized_inverse(f: FinMap) -> bool:
    """True iff exactly one map satisfies both regularity equations for f.

    That is, ``count_inverses(f, "generalized")`` is 1; nothing is searched.
    """
    return count_inverses(f, "generalized") == 1
