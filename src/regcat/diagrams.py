"""Diagrams of finite sets: commutativity, obstructors, and regular 3-cycles.

A diagram is a directed multigraph whose vertices are named finite sets and
whose edges are maps between them.  Composing a closed path at a base object
yields an endomap, the *obstructor* of the cycle; commutative diagrams have
identity obstructors everywhere, semicommutative ones only demand that every
edge leaving the base absorbs the obstructor (f∘e = f).

Cycles and paths are enumerated as edge sequences without repeated edges
(simple in the edge multigraph).  Obstructors of valid semicommutative cycles
are idempotent, so longer powers of a cycle add nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .core import FinMap, FiniteSet, compose, compose_path, tensor
from .errors import (
    BrokenPath,
    DuplicateName,
    IncompatibleEdgeMap,
    NotRegular,
    TypeMismatch,
    UnknownObject,
    UnknownReference,
)


@dataclass(frozen=True)
class Diagram:
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
            eds[m.name] = m
        return Diagram(objs, eds)

    def edges_from(self, object_id: str) -> list[str]:
        return sorted(n for n, m in self.edges.items() if m.dom.id == object_id)


@dataclass(frozen=True)
class Cycle:
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


def _paths(d: Diagram, start: str, length: int) -> Iterator[tuple[str, ...]]:
    """Simple paths (no repeated edge) of exactly the given length from start."""
    def dfs(at: str, used: tuple[str, ...]):
        if len(used) == length:
            yield used
            return
        for name in d.edges_from(at):
            if name not in used:
                yield from dfs(d.edges[name].cod.id, used + (name,))

    yield from dfs(start, ())


def cycles_at(d: Diagram, base: str, length: int) -> Iterator[Cycle]:
    """Simple cycles of exactly the given length based at an object."""
    if base not in d.objects:
        raise UnknownObject(base)
    for path in _paths(d, base, length):
        if d.edges[path[-1]].cod.id == base:
            yield Cycle(base, path)


def all_cycles(d: Diagram, max_len: int) -> Iterator[Cycle]:
    for n in range(1, max_len + 1):
        for base in sorted(d.objects):
            yield from cycles_at(d, base, n)


@dataclass(frozen=True)
class ObstructorReport:
    e: FinMap
    is_identity: bool
    is_idempotent: bool


def obstructor(d: Diagram, c: Cycle) -> ObstructorReport:
    e = path_compose(d, c.edges)
    return ObstructorReport(e, e.is_identity(), compose(e, e) == e)


@dataclass(frozen=True)
class CommutativityReport:
    commutative: bool
    violations: tuple[tuple, ...]  # at most one per violation class


def is_commutative(d: Diagram, max_len: int) -> CommutativityReport:
    """True iff all cycles compose to the identity and parallel paths agree.

    Parallel-path equality is the standard reading of a commutative diagram;
    the cycle condition alone is what the obstructor calculus refines.
    """
    violations: list[tuple] = []
    for c in all_cycles(d, max_len):
        if not path_compose(d, c.edges).is_identity():
            violations.append(("cycle", c))
            break
    done = False
    for start in sorted(d.objects):
        if done:
            break
        by_target: dict[str, list[tuple[tuple[str, ...], FinMap]]] = {}
        for n in range(1, max_len + 1):
            for path in _paths(d, start, n):
                end = d.edges[path[-1]].cod.id
                comp = path_compose(d, path)
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


@dataclass(frozen=True)
class SemicommutativityReport:
    semicommutative: bool
    violations: tuple[tuple, ...]


def is_semicommutative(d: Diagram, max_len: int) -> SemicommutativityReport:
    """Every cycle obstructor must be absorbed by every edge leaving its base."""
    violations: list[tuple] = []
    for c in all_cycles(d, max_len):
        e = path_compose(d, c.edges)
        for name in d.edges_from(c.base):
            f = d.edges[name]
            if compose(f, e) != f:
                violations.append(("absorption", c, name))
    return SemicommutativityReport(not violations, tuple(violations))


@dataclass(frozen=True)
class ObstructionReport:
    n_obstr: Optional[int]  # None: no non-identity obstructor up to max_n
    witness: Optional[Cycle]


def obstruction_number(d: Diagram, X: str, max_n: int) -> ObstructionReport:
    """Least cycle length at X whose obstructor differs from the identity."""
    if X not in d.objects:
        raise UnknownObject(X)
    for n in range(1, max_n + 1):
        for c in cycles_at(d, X, n):
            if not path_compose(d, c.edges).is_identity():
                return ObstructionReport(n, c)
    return ObstructionReport(None, None)


# --- regular 3-cycles ---------------------------------------------------------


@dataclass(frozen=True)
class RegularThreeCycle:
    """A triple f: X->Y, g: Y->Z, h: Z->X with f∘h∘g∘f = f.

    Y is the first regular dual of X and Z the second; the obstructor is
    e = h∘g∘f.
    """

    x: FiniteSet
    y: FiniteSet
    z: FiniteSet
    f: FinMap
    g: FinMap
    h: FinMap
    obstructor: FinMap = field(init=False)

    def __post_init__(self):
        e = compose(self.h, compose(self.g, self.f))
        if compose(self.f, e) != self.f:
            raise NotRegular(f"({self.f.name},{self.g.name},{self.h.name})")
        object.__setattr__(self, "obstructor", e)


def find_regular_3cycles(d: Diagram) -> list[RegularThreeCycle]:
    """All regular 3-cycles of the diagram, one per rotation class.

    Directed 3-cycles of distinct edges are grouped up to cyclic rotation;
    for each class the lexicographically least rotation (by edge names)
    whose own regularity condition holds is emitted.
    """
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
    seen: set[tuple[str, str, str]] = set()
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


@dataclass(frozen=True)
class FunctorData:
    source: Diagram
    target: Diagram
    object_map: dict[str, str]
    edge_map: dict[str, str]


@dataclass(frozen=True)
class FunctorReport:
    composition_preserved: bool
    e_preserved: bool
    violations: tuple[tuple, ...]


def check_regular_functor(fd: FunctorData, n: int) -> FunctorReport:
    """Composition preservation plus level-n obstructor preservation.

    Composition is checked on composable edge pairs whose composite is itself
    a named source edge.  Obstructor preservation at level 1 is the standard
    identity-preservation requirement (source identity edges must map to
    identity maps).  At level m >= 2 the composed image of every source cycle
    of length m is compared against the obstructor of every target cycle of
    the same length at the image object; verdicts are reported per pair since
    no selection rule is available when several cycles share a base.
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

    comp_ok = True
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
                        comp_ok = False
                        violations.append(("composition", a, b, cname))

    e_ok = True
    for name in names:
        m = src.edges[name]
        if m.is_identity() and not tgt.edges[fd.edge_map[name]].is_identity():
            e_ok = False
            violations.append(("identity", name))
    for length in range(2, n + 1):
        for base in sorted(src.objects):
            tgt_base = fd.object_map[base]
            tgt_cycles = list(cycles_at(tgt, tgt_base, length))
            if not tgt_cycles:
                continue
            for c in cycles_at(src, base, length):
                img_path = [fd.edge_map[e] for e in c.edges]
                p = path_compose(tgt, img_path)
                for c2 in tgt_cycles:
                    if path_compose(tgt, c2.edges) != p:
                        e_ok = False
                        violations.append(("obstructor", c, c2))
    return FunctorReport(comp_ok, e_ok, tuple(violations))
