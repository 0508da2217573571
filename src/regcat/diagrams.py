"""Diagrams of finite sets: commutativity, obstructors, and regular 3-cycles.

A diagram is a directed multigraph whose vertices are named finite sets and
whose edges are maps between them.  Composing a closed path at a base object
yields an endomap, the *obstructor* of the cycle; commutative diagrams have
identity obstructors everywhere, semicommutative ones only demand that every
edge leaving the base absorbs the obstructor (f∘e = f).

Cycles and paths are enumerated as edge sequences without repeated edges
(simple in the edge multigraph).  Obstructors of valid semicommutative cycles
are idempotent, so longer powers of a cycle add nothing.

Every check reads one walk (``_Walk``).  Its adjacency, each object's
outgoing edges sorted by name with their codomain and raw table, is built
once per check.  From a start object the walk visits every simple path of
up to a given length in preorder, composing each prefix once from its
parent's table, on its own stack rather than one Python frame per edge.
Preorder lists the paths of any one length in lexicographic order of their
edge names, so a stable sort by length alone orders what the checks find by
(length, base, path): the order of a search that walks each length in turn.
A check that only needs the first violation cuts the walk to shorter paths
once it has one.  Absorption f∘e = f is decided once per base and obstructor
table, since a diagram's many cycles share few obstructors.  A walk that
composes more path prefixes than its bound raises ``SearchSpaceTooLarge``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional

from .core import FinMap, FiniteSet, _Record, compose, compose_path, tensor
from .errors import (
    BrokenPath,
    DuplicateName,
    IncompatibleEdgeMap,
    NotRegular,
    SearchSpaceTooLarge,
    TypeMismatch,
    UnknownObject,
    UnknownReference,
)
from .inverses import DEFAULT_MAX_SPACE


class Diagram(NamedTuple):
    objects: dict[str, FiniteSet]
    edges: dict[str, FinMap]

    @staticmethod
    def build(objects: Iterable[FiniteSet], edges: Iterable[FinMap]) -> "Diagram":
        objs: dict[str, FiniteSet] = {}
        for s in objects:
            if s.id in objs:
                raise DuplicateName(s.id)
            objs[s.id] = s
        eds: dict[str, FinMap] = {}
        for m in edges:
            if m.name in eds:
                raise DuplicateName(m.name)
            if m.dom.id not in objs or m.cod.id not in objs:
                missing = m.dom.id if m.dom.id not in objs else m.cod.id
                raise UnknownReference(missing)
            # the checks compose raw tables, so each endpoint must have its object's size
            for end in (m.dom, m.cod):
                if end.cardinality != objs[end.id].cardinality:
                    raise TypeMismatch(objs[end.id].elements, end.elements, f"edge {m.name!r}")
            eds[m.name] = m
        return Diagram(objs, eds)

    def edges_from(self, object_id: str) -> list[str]:
        return sorted(n for n, m in self.edges.items() if m.dom.id == object_id)


class Cycle(NamedTuple):
    base: str
    edges: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.edges)


def path_compose(d: Diagram, path: Iterable[str]) -> FinMap:
    """Compose the named edges of a path, first edge applied first."""
    names = list(path)
    maps = []
    for i, name in enumerate(names):
        if name not in d.edges:
            raise UnknownReference(name)
        m = d.edges[name]
        if maps and maps[-1].cod.id != m.dom.id:
            raise BrokenPath(i)
        maps.append(m)
    if not maps:
        raise BrokenPath(0)
    return compose_path(maps)


class _Walk:
    """One diagram's adjacency, built once per check, and the work done walking it."""

    def __init__(self, d: Diagram, bound: int = DEFAULT_MAX_SPACE):
        self.out: dict[str, list[tuple[str, str, tuple[int, ...]]]] = {o: [] for o in d.objects}
        for name in sorted(d.edges):
            m = d.edges[name]
            self.out[m.dom.id].append((name, m.cod.id, m.table))
        self.unit = {o: tuple(range(s.cardinality)) for o, s in d.objects.items()}
        self.bound = bound  # the most path prefixes the walk may compose
        self.depth = 0   # the longest paths the walk in progress still visits
        self.paths = 0   # path prefixes composed
        self.cycles = 0  # closed paths checked

    def paths_from(
        self, start: str, depth: int, close: Optional[str] = None
    ) -> Iterator[tuple[list[str], str, tuple[int, ...]]]:
        """Every simple path of 1..depth edges from start, in preorder, as (path, end, composite).

        The path list is the walk's own and changes as the walk goes on: copy
        it to keep it.  Lowering ``self.depth`` during the walk cuts it to
        shorter paths.  With ``close`` given, paths of the full depth are
        built only when they end there.
        """
        self.depth = depth
        out, used, path = self.out, set(), []
        tables = [self.unit[start]]
        stack = [iter(out[start])]
        while stack:
            k = len(stack)  # the length of the paths the top level offers
            name = None
            if k <= self.depth:
                leaf = close is not None and k == self.depth
                for name, end, t in stack[-1]:
                    if name not in used and not (leaf and end != close):
                        break
                else:
                    name = None
            if name is None:
                stack.pop()
                if path:
                    used.discard(path.pop())
                    tables.pop()
                continue
            table = tuple([t[v] for v in tables[-1]])
            self.paths += 1
            if self.paths > self.bound:
                raise SearchSpaceTooLarge(self.paths, self.bound, "path prefixes")
            path.append(name)
            yield path, end, table
            if k < self.depth:
                used.add(name)
                tables.append(table)
                stack.append(iter(out[end]))
            else:
                path.pop()

    def cycles_at(self, base: str, depth: int) -> Iterator[tuple[list[str], tuple[int, ...]]]:
        """The closed paths among ``paths_from(base, depth)``, with their obstructor tables."""
        for path, end, e in self.paths_from(base, depth, base):
            if end == base:
                self.cycles += 1
                yield path, e


def _cycles(walk: _Walk, bases: Iterable[str], depth: int) -> list[tuple[Cycle, tuple[int, ...]]]:
    """Cycles of 1..depth edges at the bases with their obstructors, by (length, base, path)."""
    found = [(Cycle(base, tuple(path)), e)
             for base in bases for path, e in walk.cycles_at(base, depth)]
    found.sort(key=lambda ce: ce[0].length)
    return found


def _first_failures(
    walk: _Walk, bases: Iterable[str], depth: int, pairs: bool
) -> tuple[Optional[Cycle], Optional[tuple[tuple[str, ...], tuple[str, ...]]]]:
    """The first cycle, by (length, base, path), whose obstructor is not the
    identity and, with ``pairs``, the first pair of parallel paths that
    disagree, from the first base that has one.

    A pair is the first path, by (length, path), to some end and the first
    path whose composite differs from it.  The walk meets the paths of one
    length in that order but a shorter path may come later, so per end it
    keeps the first path so far and the first that disagrees with it; when a
    shorter path takes over and disagrees with the old first, the old first
    is the first that disagrees.

    One walk per base serves both searches, each cutting it to what may still
    come first: once a cycle is found, only shorter cycles, at this base and
    at every later one; once a path of n edges disagrees, paths of fewer.
    """
    cycle = pair = None
    for base in bases:
        unit = walk.unit[base]
        reach = depth if cycle is None else cycle.length - 1
        span = depth if pairs and pair is None else 0  # the pair search's depth
        # A path is kept as a (last edge, parent) link, O(1) to record: in
        # preorder the parent of a path is the latest path one edge shorter.
        # Only the paths that may be reported are spelled out as tuples.
        links: list = [None]
        # end -> [first path, its length, its composite, (length, link) of the first to disagree]
        seen: dict[str, list] = {}
        for path, end, table in walk.paths_from(base, max(reach, span), None if span else base):
            n = len(path)
            if end == base and n <= reach:
                walk.cycles += 1
                if table != unit:
                    cycle, reach = Cycle(base, tuple(path)), n - 1
                    walk.depth = max(reach, span)
            if n > span:
                continue
            link = (path[-1], links[n - 1])
            links[n:] = [link]
            first = seen.get(end)
            if first is None:
                seen[end] = [link, n, table, None]
            elif n < first[1]:
                if table != first[2]:
                    first[3] = (first[1], first[0])
                    span = min(span, first[1] - 1)
                    walk.depth = max(reach, span)
                first[:3] = link, n, table
            elif table != first[2]:  # once one disagrees, span keeps later paths shorter
                first[3], span = (n, link), n - 1
                walk.depth = max(reach, span)
        # the later paths end at distinct ends, so no two of them tie
        found = [(later[0], _spelled(later[1]), first[0])
                 for first in seen.values() if (later := first[3])]
        if found:
            _, later, earlier = min(found)
            pair = _spelled(earlier), later
    return cycle, pair


def _spelled(link) -> tuple[str, ...]:
    """The edge names of a path kept as a (last edge, parent) link."""
    names = []
    while link is not None:
        names.append(link[0])
        link = link[1]
    return tuple(reversed(names))


def cycles_at(d: Diagram, base: str, length: int) -> Iterator[Cycle]:
    """Simple cycles of exactly the given length based at an object."""
    if base not in d.objects:
        raise UnknownObject(base)
    for c, _ in _cycles(_Walk(d), [base], length):
        if c.length == length:
            yield c


def all_cycles(d: Diagram, max_len: int) -> Iterator[Cycle]:
    """Simple cycles of 1..max_len edges by (length, base, path)."""
    for c, _ in _cycles(_Walk(d), sorted(d.objects), max_len):
        yield c


class ObstructorReport(NamedTuple):
    e: FinMap
    is_identity: bool
    is_idempotent: bool


def obstructor(d: Diagram, c: Cycle) -> ObstructorReport:
    e = path_compose(d, c.edges)
    return ObstructorReport(e, e.is_identity(), compose(e, e) == e)


# Reports carry the walk's work counters, their last two fields, which take
# no part in equality or hashing.
def _verdict_eq(self, other) -> bool:
    if other.__class__ is not self.__class__:
        return NotImplemented
    return self[:-2] == other[:-2]


def _verdict_ne(self, other) -> bool:
    eq = _verdict_eq(self, other)
    return eq if eq is NotImplemented else not eq


def _verdict_hash(self) -> int:
    return hash(self[:-2])


class CommutativityReport(NamedTuple):
    commutative: bool
    violations: tuple[tuple, ...]  # at most one per violation class
    paths: int = 0
    cycles: int = 0

    __eq__, __ne__, __hash__ = _verdict_eq, _verdict_ne, _verdict_hash


def is_commutative(
    d: Diagram, max_len: int, max_space: int = DEFAULT_MAX_SPACE
) -> CommutativityReport:
    """True iff all cycles compose to the identity and parallel paths agree.

    Parallel-path equality is the standard reading of a commutative diagram;
    the cycle condition alone is what the obstructor calculus refines.  Each
    path is compared with the first path to its end only: every path met
    before it agrees with that one, or the check would have stopped.
    """
    walk = _Walk(d, max_space)
    cycle, pair = _first_failures(walk, sorted(d.objects), max_len, pairs=True)
    violations: list[tuple] = []
    if cycle is not None:
        violations.append(("cycle", cycle))
    if pair is not None:
        violations.append(("parallel_paths", *pair))
    return CommutativityReport(not violations, tuple(violations), walk.paths, walk.cycles)


class SemicommutativityReport(NamedTuple):
    semicommutative: bool
    violations: tuple[tuple, ...]
    paths: int = 0
    cycles: int = 0

    __eq__, __ne__, __hash__ = _verdict_eq, _verdict_ne, _verdict_hash


def is_semicommutative(
    d: Diagram, max_len: int, max_space: int = DEFAULT_MAX_SPACE
) -> SemicommutativityReport:
    """Every cycle obstructor must be absorbed by every edge leaving its base.

    Violations come by (length, base, path), then edge name.  The failing
    edges depend only on the base and the obstructor table, so they are
    worked out once per pair.
    """
    walk = _Walk(d, max_space)
    violations: list[tuple] = []
    failing: dict[tuple[str, tuple[int, ...]], list[str]] = {}
    for base in sorted(d.objects):
        for path, e in walk.cycles_at(base, max_len):
            bad = failing.get((base, e))
            if bad is None:
                bad = failing[base, e] = [
                    name for name, _, f in walk.out[base]
                    if any(f[v] != f[i] for i, v in enumerate(e))
                ]
            if bad:
                c = Cycle(base, tuple(path))
                violations.extend(("absorption", c, name) for name in bad)
    violations.sort(key=lambda v: v[1].length)
    return SemicommutativityReport(not violations, tuple(violations), walk.paths, walk.cycles)


class ObstructionReport(NamedTuple):
    n_obstr: Optional[int]  # None: no non-identity obstructor up to max_n
    witness: Optional[Cycle]
    paths: int = 0
    cycles: int = 0

    __eq__, __ne__, __hash__ = _verdict_eq, _verdict_ne, _verdict_hash


def obstruction_number(
    d: Diagram, X: str, max_n: int, max_space: int = DEFAULT_MAX_SPACE
) -> ObstructionReport:
    """Least cycle length at X whose obstructor differs from the identity."""
    if X not in d.objects:
        raise UnknownObject(X)
    walk = _Walk(d, max_space)
    c, _ = _first_failures(walk, [X], max_n, pairs=False)
    return ObstructionReport(None if c is None else c.length, c, walk.paths, walk.cycles)


# --- regular 3-cycles ---------------------------------------------------------


class RegularThreeCycle(_Record):
    """A triple f: X->Y, g: Y->Z, h: Z->X with f∘h∘g∘f = f.

    Y is the first regular dual of X and Z the second; the obstructor is
    e = h∘g∘f.
    """

    _args = ("x", "y", "z", "f", "g", "h")
    __slots__ = (*_args, "obstructor")

    def __init__(self, x: FiniteSet, y: FiniteSet, z: FiniteSet, f: FinMap, g: FinMap, h: FinMap):
        e = compose(h, compose(g, f))
        if compose(f, e) != f:
            raise NotRegular(f"({f.name},{g.name},{h.name})")
        self._fill(x, y, z, f, g, h, e)


def find_regular_3cycles(
    d: Diagram, max_space: int = DEFAULT_MAX_SPACE
) -> list[RegularThreeCycle]:
    """All regular 3-cycles of the diagram, one per rotation class.

    Directed 3-cycles of distinct edges are grouped up to cyclic rotation;
    for each class the lexicographically least rotation (by edge names)
    whose own regularity condition holds is emitted.  Classes come in the
    order of their least rotations.  The walk closes every rotation at its
    own base, so each class is found whole.
    """
    walk = _Walk(d, max_space)
    closed = {c.edges: e for c, e in _cycles(walk, sorted(d.objects), 3) if c.length == 3}
    out = []
    for t in sorted(closed):
        rots = sorted([t, (t[1], t[2], t[0]), (t[2], t[0], t[1])])
        if t != rots[0]:
            continue
        for names in rots:
            f, g, h = (d.edges[name] for name in names)
            if tuple([f.table[v] for v in closed[names]]) == f.table:
                out.append(RegularThreeCycle(f.dom, g.dom, h.dom, f, g, h))
                break
    return out


def is_cycle_morphism(m: FinMap, c1: RegularThreeCycle, c2: RegularThreeCycle) -> bool:
    """Whether m: base(c1) -> base(c2) intertwines the two obstructors."""
    if m.dom.id != c1.x.id or m.cod.id != c2.x.id:
        raise TypeMismatch(f"{c1.x.id}->{c2.x.id}", f"{m.dom.id}->{m.cod.id}")
    return compose(m, c1.obstructor) == compose(c2.obstructor, m)


def product_3cycle(c1: RegularThreeCycle, c2: RegularThreeCycle) -> RegularThreeCycle:
    """Factorwise monoidal product; regularity is inherited from the factors."""
    f = tensor(c1.f, c2.f)
    g = tensor(c1.g, c2.g)
    h = tensor(c1.h, c2.h)
    return RegularThreeCycle(f.dom, g.dom, h.dom, f, g, h)


# --- generalized functors -----------------------------------------------------


class FunctorData(NamedTuple):
    source: Diagram
    target: Diagram
    object_map: dict[str, str]
    edge_map: dict[str, str]


class FunctorReport(NamedTuple):
    composition_preserved: bool
    e_preserved: bool
    violations: tuple[tuple, ...]


def check_regular_functor(
    fd: FunctorData, n: int, max_space: int = DEFAULT_MAX_SPACE
) -> FunctorReport:
    """Composition preservation plus level-n obstructor preservation.

    Composition is checked on composable edge pairs whose composite is itself
    a named source edge, in order of the three names.  Obstructor
    preservation at level 1 is the standard identity-preservation requirement
    (source identity edges must map to identity maps).  At level m >= 2 the
    composed image of every source cycle of length m is compared against the
    obstructor of every target cycle of the same length at the image object;
    verdicts are reported per pair since no selection rule is available when
    several cycles share a base.
    """
    src, tgt = fd.source, fd.target
    for oid in src.objects:
        if fd.object_map.get(oid) not in tgt.objects:
            raise IncompatibleEdgeMap(f"object {oid!r} is not mapped into the target")
    for name, m in src.edges.items():
        img_name = fd.edge_map.get(name)
        if img_name not in tgt.edges:
            raise IncompatibleEdgeMap(f"edge {name!r} is not mapped into the target")
        img = tgt.edges[img_name]
        if (
            img.dom.id != fd.object_map[m.dom.id]
            or img.cod.id != fd.object_map[m.cod.id]
        ):
            raise IncompatibleEdgeMap(
                f"image of edge {name!r} has endpoints "
                f"{img.dom.id}->{img.cod.id}, expected "
                f"{fd.object_map[m.dom.id]}->{fd.object_map[m.cod.id]}"
            )

    violations: list[tuple] = []
    src_walk, tgt_walk = _Walk(src, max_space), _Walk(tgt, max_space)

    # images share their composites' endpoints, so their tables decide
    named: dict[tuple[str, str, tuple[int, ...]], list[str]] = {}
    names = sorted(src.edges)
    for name in names:
        m = src.edges[name]
        named.setdefault((m.dom.id, m.cod.id, m.table), []).append(name)
    image = {name: tgt.edges[fd.edge_map[name]].table for name in names}
    for a in names:
        ea = src.edges[a]
        for b, cod, tb in src_walk.out[ea.cod.id]:
            for c in named.get((ea.dom.id, cod, tuple([tb[v] for v in ea.table])), ()):
                ib = image[b]
                if tuple([ib[v] for v in image[a]]) != image[c]:
                    violations.append(("composition", a, b, c))
    composition = len(violations)  # the violations after these break obstructor preservation

    for name in names:
        if src.edges[name].is_identity() and not tgt.edges[fd.edge_map[name]].is_identity():
            violations.append(("identity", name))
    obstructed: list[tuple] = []
    by_length: dict[str, dict[int, list]] = {}  # target base -> length -> its cycles
    for base in sorted(src.objects):
        tgt_base = fd.object_map[base]
        if tgt_base not in by_length:
            by_length[tgt_base] = {}
            for c2, e in _cycles(tgt_walk, [tgt_base], n):
                by_length[tgt_base].setdefault(c2.length, []).append((c2, e))
        for c, _ in _cycles(src_walk, [base], n):
            targets = by_length[tgt_base].get(c.length)
            if c.length < 2 or not targets:
                continue
            p = path_compose(tgt, [fd.edge_map[name] for name in c.edges]).table
            obstructed.extend(("obstructor", c, c2) for c2, e in targets if e != p)
    obstructed.sort(key=lambda v: v[1].length)
    violations.extend(obstructed)
    return FunctorReport(not composition, len(violations) == composition, tuple(violations))
