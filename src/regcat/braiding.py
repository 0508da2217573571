"""Braidings on products of finite sets and the regularized Yang-Baxter search.

A braiding is any map B: X⊗Y -> Y⊗X; no bijectivity is assumed.  The classical
prebraidings Id⊗B and B⊗Id are weakened by replacing the identity in the
passive slot with an idempotent obstructor e, giving

    B^L = e⊗B,   B^R = B⊗e,

and the regularized Yang-Baxter equation B^R∘B^L∘B^R = B^L∘B^R∘B^L on triple
products.  The solver enumerates braiding tables on a single carrier with
constraint propagation: a partial table is rejected as soon as any component
of any triple is determined on both sides and unequal.

A permutation σ of X acts on tables by (σ·B)(σx, σy) = (σa, σb) where
B(x, y) = (a, b), and B solves the equation for e exactly when σ·B solves it
for σ∘e∘σ⁻¹.  So the search for one e visits only the lex-least table of each
orbit of Stab(e) = {σ : σ∘e = e∘σ} and counts or lists the whole orbit, and
under ``--e all`` it solves one e per conjugacy class and carries the
solutions over to the other members.
"""

from __future__ import annotations

from contextlib import nullcontext
from itertools import chain, groupby, islice, permutations, product
from math import factorial, prod
from multiprocessing import Pool
from typing import Iterator, NamedTuple, Optional, Union

from .core import FinMap, FiniteSet, ProductSet, _Record, compose, identity
from .errors import NotIdempotent, SearchSpaceTooLarge, TypeMismatch
from .inverses import DEFAULT_MAX_SPACE, _OuterTables, is_inverse, section_inner_inverse


class Braiding(_Record):
    """A map X⊗Y -> Y⊗X on row-major product carriers."""

    _args = ("left", "right", "map")
    __slots__ = (*_args, "dom_product", "cod_product")

    def __init__(self, left: FiniteSet, right: FiniteSet, map: FinMap):
        dom = ProductSet.of(left, right)
        cod = ProductSet.of(right, left)
        if map.dom.id != dom.carrier.id or map.cod.id != cod.carrier.id:
            raise TypeMismatch(
                f"{dom.carrier.id}->{cod.carrier.id}",
                f"{map.dom.id}->{map.cod.id}",
            )
        self._fill(left, right, map, dom, cod)


def braiding_from_table(name: str, X: FiniteSet, Y: FiniteSet, table) -> Braiding:
    dom = ProductSet.of(X, Y)
    cod = ProductSet.of(Y, X)
    return Braiding(X, Y, FinMap(name, dom.carrier, cod.carrier, tuple(table)))


def _require_idempotent_endo(e: FinMap, obj: FiniteSet) -> None:
    if e.dom.id != obj.id or e.cod.id != obj.id:
        raise TypeMismatch(f"{obj.id}->{obj.id}", f"{e.dom.id}->{e.cod.id}")
    if compose(e, e) != e:
        raise NotIdempotent(e.name)


class ObstructorAssignment(_Record):
    """Per-object idempotent obstructors; objects without an entry get the identity."""

    __slots__ = _args = ("obstructors", "level")

    def __init__(self, obstructors: dict[str, FinMap], level: int = 2):
        for e in obstructors.values():
            _require_idempotent_endo(e, e.dom)
            if level == 1 and not e.is_identity():
                raise NotIdempotent(f"{e.name} (level 1 forces the identity)")
        self._fill(obstructors, level)

    @staticmethod
    def identities() -> "ObstructorAssignment":
        return ObstructorAssignment({}, level=1)

    def for_object(self, obj: FiniteSet) -> FinMap:
        return self.obstructors.get(obj.id, identity(obj))


def check_symmetry(b: Braiding, b_rev: Braiding) -> bool:
    """Classical symmetry: b_rev∘b is the identity of X⊗Y."""
    if b_rev.left.id != b.right.id or b_rev.right.id != b.left.id:
        raise TypeMismatch(f"{b.right.id}⊗{b.left.id}", f"{b_rev.left.id}⊗{b_rev.right.id}")
    return compose(b_rev.map, b.map).is_identity()


def check_regular_braiding(b: Braiding, b_star: Braiding) -> bool:
    """Regularity b∘b*∘b = b, the weakened symmetry condition."""
    if b_star.left.id != b.right.id or b_star.right.id != b.left.id:
        raise TypeMismatch(f"{b.right.id}⊗{b.left.id}", f"{b_star.left.id}⊗{b_star.right.id}")
    return is_inverse(b.map, b_star.map, "inner")


def check_prebraid_regularity(p: FinMap, p_star: FinMap) -> bool:
    """Regularity p∘p*∘p = p of a prebraid p: p* is an inner inverse of p."""
    return is_inverse(p, p_star, "inner")


def canonical_braiding_star(b: Braiding) -> Braiding:
    """A concrete witness for the regularity of any finite braiding."""
    return Braiding(b.right, b.left, section_inner_inverse(b.map))


def prebraid(b: Braiding, side: str, e: FinMap, slot_objects) -> FinMap:
    """Slot-extended braiding on X⊗Y⊗Z.

    side "L": e_X ⊗ B_{Y,Z} mapping X⊗Y⊗Z -> X⊗Z⊗Y;
    side "R": B_{X,Y} ⊗ e_Z mapping X⊗Y⊗Z -> Y⊗X⊗Z.
    """
    if side not in ("L", "R"):
        raise ValueError(f"unknown prebraid side {side!r}")
    # the slot e acts on, and the two slots B braids
    passive, i, j = (0, 1, 2) if side == "L" else (2, 0, 1)
    slots = list(slot_objects)
    _require_idempotent_endo(e, slots[passive])
    if b.left.id != slots[i].id or b.right.id != slots[j].id:
        raise TypeMismatch(f"{slots[i].id}⊗{slots[j].id}", f"{b.left.id}⊗{b.right.id}")
    out = list(slots)
    out[i], out[j] = slots[j], slots[i]
    dom, cod = ProductSet.of(*slots), ProductSet.of(*out)
    table = []
    for k in range(dom.carrier.cardinality):
        t = list(dom.unrank(k))
        t[i], t[j] = b.cod_product.unrank(b.map.table[b.dom_product.rank((t[i], t[j]))])
        t[passive] = e.table[t[passive]]
        table.append(cod.rank(t))
    return FinMap(f"{side}({b.map.name})", dom.carrier, cod.carrier, tuple(table))


def composite_prebraid(
    b_inner: Braiding,
    b_outer: Braiding,
    e: ObstructorAssignment,
    which: str,
) -> FinMap:
    """Two-step prebraid composite moving a tensor pair past a third object.

    which "first"  (B_{X⊗Y,Z}):  R(B_{X,Z}, e_Y) ∘ L(e_X, B_{Y,Z}),
        with b_inner = B_{Y,Z} and b_outer = B_{X,Z};
    which "second" (B_{Z,X⊗Y}):  L(e_Y, B_{X,Z}) ∘ R(B_{X,Y}, e_Z),
        with b_inner = B_{X,Y} and b_outer = B_{X,Z}.

    Each step braids two adjacent slots of the current factor ordering and
    applies the passive slot's obstructor.
    """
    if which == "first":
        if b_inner.right.id != b_outer.right.id:
            raise TypeMismatch(b_inner.right.id, b_outer.right.id, "shared Z factor")
        X, Y, Z = b_outer.left, b_inner.left, b_inner.right
        step1 = prebraid(b_inner, "L", e.for_object(X), (X, Y, Z))
        step2 = prebraid(b_outer, "R", e.for_object(Y), (X, Z, Y))
        return compose(step2, step1)
    if which == "second":
        if b_inner.left.id != b_outer.left.id:
            raise TypeMismatch(b_inner.left.id, b_outer.left.id, "shared X factor")
        X, Y, Z = b_inner.left, b_inner.right, b_outer.right
        step1 = prebraid(b_inner, "R", e.for_object(Z), (X, Y, Z))
        step2 = prebraid(b_outer, "L", e.for_object(Y), (Y, X, Z))
        return compose(step2, step1)
    raise ValueError(f"unknown composite kind {which!r}")


def ybe_side_maps(b: Braiding, e: FinMap) -> tuple[FinMap, FinMap]:
    """Both sides of the regularized YBE as maps on X³, built from prebraids.

    Single-carrier only; serves as the compositional route against which the
    triple kernel of check_ybe can be cross-checked.
    """
    if b.left.id != b.right.id:
        raise TypeMismatch(b.left.id, b.right.id, "single-carrier check")
    X = b.left
    bl = prebraid(b, "L", e, (X, X, X))
    br = prebraid(b, "R", e, (X, X, X))
    lhs = compose(br, compose(bl, br))
    rhs = compose(bl, compose(br, bl))
    return lhs, rhs


# --- Yang-Baxter on a single carrier -------------------------------------------


def _ybe_sides(s: int, table, e, x: int, y: int, z: int):
    """Both sides of the regularized YBE at one triple, per component.

    ``table`` may contain -1 for unassigned braiding entries; undetermined
    components come back as None so partial tables can be checked.  With
    ``_consistent``, the reference the tests hold ``_first_violation`` to.
    """
    # LHS = B^R ∘ B^L ∘ B^R
    l0 = l1 = l2 = None
    p = table[s * x + y]
    if p >= 0:
        a1, b1 = divmod(p, s)
        ez = e[z]
        q = table[s * b1 + ez]
        if q >= 0:
            a2, b2 = divmod(q, s)
            l2 = e[b2]
            r = table[s * e[a1] + a2]
            if r >= 0:
                l0, l1 = divmod(r, s)
    # RHS = B^L ∘ B^R ∘ B^L
    r0 = r1 = r2 = None
    p = table[s * y + z]
    if p >= 0:
        a1, b1 = divmod(p, s)
        q = table[s * e[x] + a1]
        if q >= 0:
            a2, b2 = divmod(q, s)
            r0 = e[a2]
            r = table[s * b2 + e[b1]]
            if r >= 0:
                r1, r2 = divmod(r, s)
    return (l0, l1, l2), (r0, r1, r2)


def _consistent(s: int, table, e, triples) -> bool:
    for x, y, z in triples:
        lhs, rhs = _ybe_sides(s, table, e, x, y, z)
        for lc, rc in zip(lhs, rhs):
            if lc is not None and rc is not None and lc != rc:
                return False
    return True


class YbeResult(NamedTuple):
    holds: bool
    witness: Optional[tuple[str, str, str]]


def check_ybe(b: Braiding, e: FinMap, mode: str) -> YbeResult:
    """The (regularized) Yang-Baxter equation on X³, with the least failing triple.

    On a full table every component is determined, so the solver's triple
    kernel, run over all triples in lex order, stops at that triple.
    """
    if b.left.id != b.right.id:
        raise TypeMismatch(b.left.id, b.right.id, "single-carrier check")
    X = b.left
    _require_idempotent_endo(e, X)
    if mode == "classical" and not e.is_identity():
        raise NotIdempotent(f"{e.name} (classical mode requires the identity)")
    elif mode not in ("classical", "regular"):
        raise ValueError(f"unknown mode {mode!r}")
    s = X.cardinality
    triples = chain.from_iterable(_triples_from(s, e.table, p) for p in range(s * s))
    bad = _first_violation(b.map.table, triples, _lookups(s, e.table))
    if not bad:
        return YbeResult(True, None)
    x, yz = divmod(bad - 1, s * s)
    y, z = divmod(yz, s)
    return YbeResult(False, (X.label(x), X.label(y), X.label(z)))


def _idempotents(X: FiniteSet) -> Iterator[FinMap]:
    """The idempotent endomaps of X in lexicographic table order, built as taken.

    e∘e = e says that e is an outer inverse of the identity, so the outer
    inverse search builds them without sweeping all |X|^|X| maps.
    """
    for k, t in enumerate(_OuterTables(identity(X))):
        yield FinMap(f"e_{X.id}{k}", X, X, t)


def enumerate_idempotents(X: FiniteSet) -> list[FinMap]:
    """All idempotent endomaps of X in lexicographic table order."""
    return list(_idempotents(X))


def _blocks(e) -> list[tuple[int, ...]]:
    """The fibres of the idempotent e, each as its image point followed by the
    rest of the fibre, sorted by size and then by image point."""
    fibres = {y: [y] for y in sorted(set(e))}
    for x, y in enumerate(e):
        if x != y:
            fibres[y].append(x)
    return sorted(map(tuple, fibres.values()), key=len)


def _stabilizer(e, bound) -> list[tuple[int, ...]]:
    """The permutations σ with σ∘e = e∘σ, or only the identity if there are
    more than ``bound`` of them.

    Such a σ maps each fibre of e onto a fibre of the same size, its image
    point onto that fibre's image point; every such choice commutes with e.
    So there are ∏ₖ mₖ! · ∏_y (|e⁻¹(y)|−1)! of them, mₖ being the number of
    fibres of size k, and they are built from the fibres rather than found
    among all |X|! permutations.
    """
    blocks = _blocks(e)
    by_size = [list(same) for _, same in groupby(blocks, len)]
    order = prod(factorial(len(same)) for same in by_size)
    order *= prod(factorial(len(b) - 1) for b in blocks)
    if order > bound:
        return [tuple(range(len(e)))]
    group = []
    for moves in product(*map(permutations, by_size)):
        # each block goes to the one in the same place of ``targets``, its
        # image point first and the rest of it permuted
        targets = list(chain(*moves))
        for rests in product(*(permutations(t[1:]) for t in targets)):
            images = [(t[0], *rest) for t, rest in zip(targets, rests)]
            group.append(_conjugator(blocks, images))
    return group


def _conjugator(blocks, images) -> tuple[int, ...]:
    """The permutation σ that maps each point of ``blocks`` to the point in
    the same place of ``images``.  For the blocks of idempotents rep and e
    whose fibres have the same sizes, e = σ∘rep∘σ⁻¹."""
    sigma = [0] * sum(map(len, blocks))
    for x, y in zip(chain(*blocks), chain(*images)):
        sigma[x] = y
    return tuple(sigma)


def _on_pairs(sigma) -> list[int]:
    """σ⊗σ on the row-major indices s*x + y of X⊗X."""
    s = len(sigma)
    return [s * a + b for a in sigma for b in sigma]


def _act(pairs, table) -> tuple[int, ...]:
    """σ·B for ``pairs`` = σ⊗σ: (σ·B)[σ⊗σ(q)] = σ⊗σ(B[q])."""
    out = [0] * len(table)
    for q, v in enumerate(table):
        out[pairs[q]] = pairs[v]
    return tuple(out)


def _lookups(s: int, e) -> tuple:
    """Index lists that let the triple kernel avoid divmod and products.

    For a braiding entry p = s*a + b: hi[p] = a, lo[p] = b, slo[p] = s*b,
    sehi[p] = s*e[a], elo[p] = e[b], ehi[p] = e[a].
    """
    hi = [p // s for p in range(s * s)]
    lo = [p % s for p in range(s * s)]
    slo = [s * b for b in lo]
    sehi = [s * e[a] for a in hi]
    return hi, lo, slo, sehi, [e[b] for b in lo], [e[a] for a in hi]


def _triples_from(s: int, e, pos: int) -> list[tuple[int, int, int, int]]:
    """Per-triple constants (s*x+y, e[z], s*y+z, s*e[x]) of the s triples
    (x, y, z) with s*x+y = ``pos``, in lex order.  Concatenated over
    0..s²-1 they are all s³ triples in lex order."""
    x, y = divmod(pos, s)
    return [(pos, e[z], s * y + z, s * e[x]) for z in range(s)]


def _first_violation(table, watch, lookups) -> int:
    """1-based position in ``watch`` of the first triple whose two sides
    disagree on a component determined on both, or 0 if there is none.

    The same evaluation as ``_ybe_sides`` on constants from
    ``_triples_from``: each side reads at most three entries and every
    comparable component needs the second entry of both sides.
    """
    hi, lo, slo, sehi, elo, ehi = lookups
    i = 0
    for ia, ez, ib, sex in watch:
        i += 1
        p = table[ia]
        if p < 0:
            continue
        q = table[slo[p] + ez]
        if q < 0:
            continue
        p2 = table[ib]
        if p2 < 0:
            continue
        q2 = table[sex + hi[p2]]
        if q2 < 0:
            continue
        r2 = table[slo[q2] + elo[p2]]
        if r2 >= 0 and elo[q] != lo[r2]:
            return i
        r = table[sehi[p] + hi[q]]
        if r >= 0 and (hi[r] != ehi[q2] or (r2 >= 0 and lo[r] != hi[r2])):
            return i
    return 0


def _reading(table, pos: int, triples, lookups) -> list:
    """The triples whose verdict can change when the unassigned ``table[pos]``
    gets a value.

    Evaluating a triple only reads table entries, and each side stops at its
    first unassigned one, so only a side stopped at ``pos`` can move.  A side
    stopped before its second entry anywhere else leaves nothing to compare,
    so such triples are left out as well, among them every triple whose
    first read on either side is an unassigned entry past ``pos``.  The
    triples kept are in the order of ``triples``.
    """
    hi, _, slo, sehi, elo, _ = lookups
    out = []
    for t in triples:
        ia, ez, ib, sex = t
        p = table[ia]
        if p < 0:
            if ia != pos:
                continue
            hit = True
        else:
            j = slo[p] + ez
            q = table[j]
            if q < 0:
                if j != pos:
                    continue
                hit = True
            else:
                hit = sehi[p] + hi[q] == pos
        p = table[ib]
        if p < 0:
            if ib != pos:
                continue
            hit = True
        else:
            j = sex + hi[p]
            q = table[j]
            if q < 0:
                if j != pos:
                    continue
                hit = True
            elif slo[q] + elo[p] == pos:
                hit = True
        if hit:
            out.append(t)
    return out


def _undecided(table, pos: int, live):
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


def _solve_branch(args):
    """Solutions with a fixed first table entry (worker task).

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

    ``group`` is a group of permutations commuting with e.  A table that
    passes is cut when some σ·T is lex-smaller (``_undecided``), so each leaf
    is the lex-least member of its orbit, and the leaf stands for the whole
    orbit: |group| / |Stab(T)| solutions, listed in no particular order.
    With the trivial group this is the full search.
    """
    s, e, group, first, bijective, count_only, budget = args
    n2 = s * s
    lookups = _lookups(s, e)
    lex: list[tuple[int, int, int, int]] = []
    acting = [_on_pairs(sigma) for sigma in group if sigma != tuple(range(s))]
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
                kept = _undecided(table, pos, live)
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


class YbeProblem(NamedTuple):
    carrier: FiniteSet
    mode: str = "regular"  # "classical" | "regular"
    e_spec: Union[str, FinMap] = "identity"  # "identity" | "all" | explicit map
    require_bijective: bool = False
    jobs: int = 1
    count_only: bool = False
    max_nodes: int = DEFAULT_MAX_SPACE  # bound on candidate tables tested


class YbeSolutionSet(NamedTuple):
    solutions: list[tuple[Braiding, FinMap]]
    count: int
    nodes: int = 0  # candidate tables tested, one root per branch included
    triples: int = 0  # triple evaluations spent on them


def require_root_budget(s: int, max_nodes: int) -> None:
    """Refuse a solve on s elements whose first tables alone exceed ``max_nodes``.

    Every first entry's root is tested, so a solve tests at least s² tables,
    and the empty carrier's one table.
    """
    roots = max(s * s, 1)
    if roots > max_nodes:
        raise SearchSpaceTooLarge(roots, max_nodes, "candidate tables")


def solve_ybe(problem: YbeProblem) -> YbeSolutionSet:
    """Exhaustive pruned search for YBE solutions on a single carrier.

    Candidate braidings are enumerated table-entry by table-entry in
    lexicographic order, one lex-least table per orbit of the obstructor's
    stabilizer when it has at most s² elements; output is ordered
    lexicographically in (e, B) and is identical regardless of the worker
    count, and so are the work counters.  Under ``e_spec="all"`` only the
    lex-least idempotent of each conjugacy class is searched; classical mode
    takes only the identity, as check_ybe does.  Raises SearchSpaceTooLarge
    once more than ``max_nodes`` candidate tables have been tested, and
    before the search when its s² roots alone are more than that.
    """
    X = problem.carrier
    s = X.cardinality
    if problem.mode not in ("classical", "regular"):
        raise ValueError(f"unknown mode {problem.mode!r}")
    if problem.jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {problem.jobs}")

    if problem.e_spec == "identity":
        es = [identity(X)]
    elif isinstance(problem.e_spec, FinMap):
        _require_idempotent_endo(problem.e_spec, X)
        if problem.mode == "classical" and not problem.e_spec.is_identity():
            raise NotIdempotent(f"{problem.e_spec.name} (classical mode requires the identity)")
        es = [problem.e_spec]
    elif problem.e_spec == "all" and problem.mode == "regular":
        es = _idempotents(X)
    else:
        raise ValueError(f"bad obstructor spec {problem.e_spec!r} for {problem.mode} mode")

    require_root_budget(s, problem.max_nodes)
    if s == 0:
        # one empty braiding, vacuously a solution
        b = braiding_from_table("B0", X, X, ())
        sols = [(b, identity(X))]
        return YbeSolutionSet([] if problem.count_only else sols, 1, nodes=1)

    # Every branch gets the whole budget and the running total is checked in
    # task order, so whether the bound is hit does not depend on the jobs.
    # Idempotents are conjugate exactly when their fibre sizes agree, and the
    # first of a class in lex order is the one solved.
    solutions: list[tuple[Braiding, FinMap]] = []
    count = nodes = triples = 0
    solved: dict[tuple[int, ...], tuple] = {}  # fibre sizes -> (e's blocks, its solutions)
    with Pool(problem.jobs) if problem.jobs > 1 else nullcontext() as pool:
        run = pool.imap if pool else map
        for e in es:
            blocks = _blocks(e.table)
            sizes = tuple(map(len, blocks))
            if sizes not in solved:
                group = _stabilizer(e.table, s * s)
                tasks = (
                    (s, e.table, group, first, problem.require_bijective,
                     problem.count_only, problem.max_nodes)
                    for first in range(s * s)
                )
                found = 0 if problem.count_only else []
                for f, n, t in run(_solve_branch, tasks):
                    nodes += n
                    triples += t
                    if nodes > problem.max_nodes:
                        raise SearchSpaceTooLarge(nodes, problem.max_nodes, "candidate tables")
                    found += f
                solved[sizes] = (blocks, found if problem.count_only else sorted(found))
            rep, found = solved[sizes]
            if problem.count_only:
                count += found
                continue
            if rep != blocks:
                pairs = _on_pairs(_conjugator(rep, blocks))
                found = sorted(_act(pairs, tab) for tab in found)
            count += len(found)
            for tab in found:
                solutions.append((braiding_from_table(f"B{len(solutions)}", X, X, tab), e))
    return YbeSolutionSet(solutions, count, nodes, triples)
