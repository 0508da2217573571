"""Towers of higher star maps and the n-regularity closure equations.

A star chain over a base f: X -> Y is a finite tower f, f(1), ..., f(n) with
alternating typing: odd stars map Y -> X, even stars map X -> Y.  The chain is
valid at order k when the order-k closure equation holds:

* odd k:   f ∘ f(1) ∘ ... ∘ f(k) ∘ f = f            (literal n-regularity)
* even k:  f(1) ∘ f(2) ∘ ... ∘ f(k) ∘ f(1) = f(1)   (type-corrected form)

The even form drops the leading f of the published equation, which does not
typecheck under the stated domain assignments; at k = 2 it reduces to
reflexive regularity of f(1) with witness f(2), which is the evident intent.
``check_chain`` verifies the closure of every prefix order 1..n, which is what
makes the level-by-level construction in ``find_chains`` sound.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .core import FinMap, all_maps, compose, compose_path, fibre_columns
from .errors import (
    AlternationViolation,
    NotAGeneralizedInverse,
    OrderMismatch,
    SearchSpaceTooLarge,
    TypeMismatch,
    refuse_large_space,
)
from .inverses import DEFAULT_MAX_SPACE, is_inverse


class StarChain(NamedTuple):
    base: FinMap
    stars: tuple[FinMap, ...]

    @property
    def order(self) -> int:
        return len(self.stars)


def make_chain(base: FinMap, stars) -> StarChain:
    """Validate alternating typing and wrap the tower."""
    stars = tuple(stars)
    X, Y = base.dom, base.cod
    for k, s in enumerate(stars, start=1):
        dom, cod = (Y, X) if k % 2 == 1 else (X, Y)
        if s.dom.id != dom.id or s.cod.id != cod.id:
            raise AlternationViolation(k, dom.id, cod.id, f"{s.dom.id}->{s.cod.id}")
    return StarChain(base, stars)


def _closure_holds(c: StarChain, k: int, head: FinMap) -> tuple[bool, Optional[int]]:
    """Order-k closure equation, given head = s1∘...∘sk; returns (holds, witness)."""
    f = c.base
    if k % 2 == 1:
        # f ∘ s1 ∘ ... ∘ sk ∘ f = f, rightmost applied first
        lhs = compose(f, compose(head, f))
        rhs = f
    else:
        # s1 ∘ s2 ∘ ... ∘ sk ∘ s1 = s1
        rhs = c.stars[0]
        lhs = compose(head, rhs)
    if lhs == rhs:
        return True, None
    witness = next(i for i in range(len(rhs.table)) if lhs.table[i] != rhs.table[i])
    return False, witness


def chain_obstructor(c: StarChain) -> FinMap:
    """The endomap of dom(base) collecting the whole tower.

    Odd order:  e = f(1) ∘ ... ∘ f(n) ∘ f;  even order:  e = f(1) ∘ ... ∘ f(n).
    """
    if c.order % 2 == 1:
        return compose_path([c.base, *reversed(c.stars)])
    return compose_path(list(reversed(c.stars)))


class ChainVerdict(NamedTuple):
    odd_closure: Optional[bool]    # conjunction over odd prefix orders, None if none
    even_closure: Optional[bool]   # conjunction over even prefix orders, None if none
    ef_form: bool                  # base ∘ obstructor = base
    obstructor: FinMap
    obstructor_idempotent: bool
    failures: tuple[tuple[str, str], ...]  # (equation id, witness element label)

    @property
    def valid(self) -> bool:
        return not self.failures


def check_chain(c: StarChain) -> ChainVerdict:
    """Closure verdict for every prefix order of the tower.

    The prefix composite s1∘...∘sk is carried from order k to k+1, so an
    order-n tower takes O(n) composes.  ``failures`` holds one entry per
    failing order k, by k.
    """
    odd: Optional[bool] = None
    even: Optional[bool] = None
    failures: list[tuple[str, str]] = []
    head = None  # s1∘...∘sk
    for k, s in enumerate(c.stars, start=1):
        head = s if head is None else compose(head, s)
        holds, witness = _closure_holds(c, k, head)
        if k % 2 == 1:
            odd = holds if odd is None else odd and holds
            eq = f"nreg2[{k}]"
            carrier = c.base.dom
        else:
            even = holds if even is None else even and holds
            eq = f"nreg1[{k}]"
            carrier = c.base.cod
        if not holds:
            failures.append((eq, carrier.label(witness)))
    e = chain_obstructor(c)
    return ChainVerdict(
        odd_closure=odd,
        even_closure=even,
        ef_form=compose(c.base, e) == c.base,
        obstructor=e,
        obstructor_idempotent=compose(e, e) == e,
        failures=tuple(failures),
    )


def extend_periodic(f: FinMap, fstar: FinMap, n: int) -> StarChain:
    """The canonical chain [f*, f, f*, f, ...] of a generalized pair."""
    if not is_inverse(f, fstar, "generalized"):
        raise NotAGeneralizedInverse(
            f"{fstar.name!r} is not a generalized inverse of {f.name!r}"
        )
    stars = tuple(fstar if k % 2 == 1 else f for k in range(1, n + 1))
    return StarChain(f, stars)


class ChainSearchResult(NamedTuple):
    chains: list[StarChain]
    truncated: bool  # a further tower exists beyond the limit
    nodes: int       # star tables built over all levels


def _next_stars(f: FinMap, stars: list[FinMap], c: Optional[tuple[int, ...]]) -> Iterator[FinMap]:
    """Every star s that closes the order-(k+1) equation after the valid prefix ``stars``.

    ``c`` is the table of s1∘...∘sk, None for the empty prefix.  At odd order
    the equation is P∘s∘f = f with P = f∘c, so s(y) is free off im f and lies
    in the fibre P⁻¹(y) on it; at even order it is c∘s∘s1 = s1, the same with
    c and im s1.  The maps come in lex order, as the product of those columns.
    """
    k = len(stars)
    prefix = f"{f.name}_s{k + 1}_"
    if k % 2 == 0:
        p = f.table if c is None else [f.table[x] for x in c]
        return all_maps(f.cod, f.dom, prefix, columns=fibre_columns(p, f.cod.cardinality, f.table))
    return all_maps(f.dom, f.cod, prefix,
                    columns=fibre_columns(c, f.dom.cardinality, stars[0].table))


def find_chains(
    f: FinMap,
    n: int,
    limit: Optional[int] = None,
    max_space: int = DEFAULT_MAX_SPACE,
) -> ChainSearchResult:
    """Depth-first enumeration of all valid order-n towers over f.

    Each level builds only the stars that keep the prefix valid
    (``_next_stars``), so every emitted chain passes check_chain and no
    candidate is rejected.  Results come in lexicographic order of the
    concatenated star tables.

    max_space bounds the star tables built: SearchSpaceTooLarge is raised
    once more than max_space are built.  Towers have no closed count, so
    without a limit the tower space, the product of the n map spaces
    (|X|^|Y| at odd levels, |Y|^|X| at even ones), is refused first when it
    exceeds max_space.  When f has an inner inverse it has a tower of every
    order, of n tables each, so n > max_space is refused before any table
    is built, with the error the search would raise.  With a limit at most
    `limit` towers are returned, flagged truncated exactly when a further
    one exists.
    """
    if n < 1:
        raise ValueError("chain order must be >= 1")
    nx, ny = f.dom.cardinality, f.cod.cardinality
    if limit is None:
        refuse_large_space([(nx, ny * ((n + 1) // 2)), (ny, nx * (n // 2))], max_space,
                           "candidate towers")
    if n > max_space and (nx > 0 or ny == 0):  # f has an inner inverse
        raise SearchSpaceTooLarge(max_space + 1, max_space, "star tables")
    stop = None if limit is None else limit + 1
    found: list[StarChain] = []
    nodes = 0
    stars: list[FinMap] = []
    heads: list[tuple[int, ...]] = []  # heads[i]: the table of s1∘...∘s(i+1)
    levels = [_next_stars(f, stars, None)]  # levels[-1] offers the star after ``stars``
    while levels and len(found) != stop and nodes <= max_space:
        s = next(levels[-1], None)
        if s is None:
            levels.pop()
            if stars:
                stars.pop()
                heads.pop()
            continue
        nodes += 1
        if len(stars) + 1 == n:
            found.append(StarChain(f, (*stars, s)))
        else:
            stars.append(s)
            heads.append(tuple([heads[-1][v] for v in s.table]) if heads else s.table)
            levels.append(_next_stars(f, stars, heads[-1]))
    if nodes > max_space:
        raise SearchSpaceTooLarge(nodes, max_space, "star tables")
    truncated = limit is not None and len(found) > limit
    return ChainSearchResult(found[:limit], truncated, nodes)


class HigherProjector(NamedTuple):
    projector: FinMap
    side: str  # "codomain" for odd order, "domain" for even order
    idempotent: bool
    absorption: bool


def higher_projector(c: StarChain) -> HigherProjector:
    """The higher projector of a tower and its absorption law.

    Odd order n:  P = f ∘ f(1) ∘ ... ∘ f(n) on cod(f), absorption P∘f = f.
    Even order n: P = f(1) ∘ ... ∘ f(n) on dom(f), absorption P∘f(1) = f(1)
    (the type-corrected reading of the even absorption law).
    """
    if c.order % 2 == 1:
        p = compose_path([*reversed(c.stars), c.base])
        absorption = compose(p, c.base) == c.base
        side = "codomain"
    else:
        p = compose_path(list(reversed(c.stars)))
        absorption = compose(p, c.stars[0]) == c.stars[0]
        side = "domain"
    return HigherProjector(p, side, compose(p, p) == p, absorption)


def star_compose(cf: StarChain, cg: StarChain) -> tuple[StarChain, ChainVerdict]:
    """Formal composite tower over g∘f.

    The k-th star is f(k)∘g(k) for odd k and g(k)∘f(k) for even k.  The
    construction is purely formal: the composite is returned together with
    its verdict, which may be negative.
    """
    if cf.order != cg.order:
        raise OrderMismatch(f"orders {cf.order} and {cg.order} differ")
    if cf.base.cod.id != cg.base.dom.id:
        raise TypeMismatch(cg.base.dom.id, cf.base.cod.id, "star_compose")
    base = compose(cg.base, cf.base)
    stars = []
    for k in range(1, cf.order + 1):
        fk, gk = cf.stars[k - 1], cg.stars[k - 1]
        stars.append(compose(fk, gk) if k % 2 == 1 else compose(gk, fk))
    chain = make_chain(base, stars)
    return chain, check_chain(chain)
