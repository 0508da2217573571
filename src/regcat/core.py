"""Finite sets, total maps between them, and the basic calculus on both.

Everything downstream (inverses, chains, diagrams, braidings) is built out of
two value types defined here: :class:`FiniteSet` and :class:`FinMap`.  Both are
immutable; all operations are pure functions returning new values.

Conventions fixed here and relied on everywhere else:

* object identity is nominal -- two sets are the same object iff their ids
  are equal, even when the carriers coincide;
* elements are addressed by dense index in declaration order;
* product sets use row-major indexing with the leftmost factor most
  significant, so product tables are reproducible bit-for-bit;
* subset sweeps quantify over *all* subsets, the empty and the full one
  included, and report witnesses in lexicographic order.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    DuplicateAssignment,
    MissingAssignment,
    SubsetDomainMismatch,
    TypeMismatch,
    UnknownLabel,
)

# The records that validate or derive a field are ``_Record``s; the rest are
# ``NamedTuple``s.  Neither needs ``dataclasses``, whose import and per-class
# code generation would cost every CLI call more than most commands spend on
# their work.


def _read_only(self, name, value=None):
    raise AttributeError(f"cannot assign to field {name!r}")


class _Record:
    """A read-only value defined by its constructor arguments.

    Each subclass names those arguments, in order, in ``_args`` and lists them
    first in ``__slots__``; any further slot is derived from them.  Equality
    (only with the same class), hashing, copying, pickling and repr all go by
    ``_key()``, the values of ``_args``.
    """

    __slots__ = ()
    _args: tuple[str, ...] = ()
    __setattr__ = __delattr__ = _read_only

    def _fill(self, *values) -> None:
        """Set the slots, in ``__slots__`` order, once, in ``__init__``."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._args])

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return self.__class__, self._key()

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._args, self._key()))
        return f"{self.__class__.__name__}({fields})"


class FiniteSet(_Record):
    """A named finite carrier with ordered, labelled elements."""

    _args = ("id", "elements")
    __slots__ = (*_args, "_index")

    def __init__(self, id: str, elements: tuple[str, ...]):
        if len(set(elements)) != len(elements):
            seen = set()
            for lbl in elements:
                if lbl in seen:
                    raise DuplicateAssignment(lbl)
                seen.add(lbl)
        self._fill(id, elements, {l: i for i, l in enumerate(elements)})

    @property
    def cardinality(self) -> int:
        return len(self.elements)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(label, self.id) from None

    def label(self, i: int) -> str:
        return self.elements[i]


class FinMap(_Record):
    """A total map between two finite sets, stored as a table of indices.

    Value equality ignores the name: two maps are equal iff their dom id,
    cod id and table coincide.
    """

    __slots__ = _args = ("name", "dom", "cod", "table")

    def __init__(self, name: str, dom: FiniteSet, cod: FiniteSet, table: tuple[int, ...]):
        self._fill(name, dom, cod, table)
        self.__post_init__()

    def __post_init__(self):
        """Check the table against the carriers, once per construction."""
        if len(self.table) != self.dom.cardinality:
            raise MissingAssignment(
                self.dom.elements[len(self.table)]
                if len(self.table) < self.dom.cardinality
                else "<extra entries>"
            )
        for i, v in enumerate(self.table):
            if not 0 <= v < self.cod.cardinality:
                raise UnknownLabel(f"index {v}", self.cod.id)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinMap):
            return NotImplemented
        return (
            self.dom.id == other.dom.id
            and self.cod.id == other.cod.id
            and self.table == other.table
        )

    def __hash__(self) -> int:
        return hash((self.dom.id, self.cod.id, self.table))

    def is_endo(self) -> bool:
        return self.dom.id == self.cod.id

    def is_identity(self) -> bool:
        return self.is_endo() and all(v == i for i, v in enumerate(self.table))


class Subset(_Record):
    """A subset of a finite set, as a frozen set of element indices."""

    __slots__ = _args = ("of", "members")

    def __init__(self, of: FiniteSet, members: frozenset[int]):
        for i in members:
            if not 0 <= i < of.cardinality:
                raise SubsetDomainMismatch(f"index {i} outside {of.id!r}")
        self._fill(of, members)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.of.label(i) for i in sorted(self.members))

    def key(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))


class ProductSet(NamedTuple):
    """An ordered product of finite sets with a flat row-major carrier."""

    factors: tuple[FiniteSet, ...]
    carrier: FiniteSet

    @staticmethod
    def of(*factors: FiniteSet) -> "ProductSet":
        labels = [
            "(" + ",".join(t) + ")"
            for t in product(*(s.elements for s in factors))
        ]
        pid = "(" + "x".join(s.id for s in factors) + ")"
        return ProductSet(tuple(factors), FiniteSet(pid, tuple(labels)))

    def rank(self, indices: Sequence[int]) -> int:
        # leftmost factor most significant
        i = 0
        for s, v in zip(self.factors, indices):
            i = i * s.cardinality + v
        return i

    def unrank(self, i: int) -> tuple[int, ...]:
        out = []
        for s in reversed(self.factors):
            i, r = divmod(i, s.cardinality)
            out.append(r)
        return tuple(reversed(out))


# --- constructors ------------------------------------------------------------


def build_map(
    name: str,
    dom: FiniteSet,
    cod: FiniteSet,
    assignments: Iterable[tuple[str, str]],
) -> FinMap:
    """Build a validated map from (dom-label, cod-label) pairs."""
    table: list[Optional[int]] = [None] * dom.cardinality
    for src, dst in assignments:
        i = dom.index(src)
        if table[i] is not None:
            raise DuplicateAssignment(src)
        table[i] = cod.index(dst)
    for i, v in enumerate(table):
        if v is None:
            raise MissingAssignment(dom.label(i))
    return FinMap(name, dom, cod, tuple(table))  # type: ignore[arg-type]


def identity(X: FiniteSet) -> FinMap:
    return FinMap(f"id_{X.id}", X, X, tuple(range(X.cardinality)))


def compose(g: FinMap, f: FinMap) -> FinMap:
    """Composite g∘f, applying f first, named ``(g.f)``."""
    return compose_path((f, g))


def compose_path(maps: Sequence[FinMap]) -> FinMap:
    """Compose a nonempty sequence written in application order (first applied first).

    ``[f, g, h]`` gives h∘g∘f named ``(h.(g.f))``, with one FinMap built for
    the whole path instead of one per step.
    """
    first = maps[0]
    name, cod, table = first.name, first.cod, first.table
    for m in maps[1:]:
        if cod.id != m.dom.id or cod.cardinality != m.dom.cardinality:
            raise TypeMismatch(m.dom.id, cod.id, "compose")
        t = m.table
        name, cod, table = f"({m.name}.{name})", m.cod, tuple([t[v] for v in table])
    return FinMap(name, first.dom, cod, table)


def tensor(f: FinMap, g: FinMap) -> FinMap:
    """Product map (f⊗g)(x, y) = (f(x), g(y)) on row-major product carriers."""
    dom = ProductSet.of(f.dom, g.dom)
    cod = ProductSet.of(f.cod, g.cod)
    table = []
    for x in range(f.dom.cardinality):
        for y in range(g.dom.cardinality):
            table.append(cod.rank((f.table[x], g.table[y])))
    return FinMap(f"({f.name}*{g.name})", dom.carrier, cod.carrier, tuple(table))


# --- predicates and subset calculus ------------------------------------------


class MapClassification(NamedTuple):
    injective: bool
    surjective: bool
    bijective: bool
    idempotent: Optional[bool]  # None when dom != cod


def classify_map(f: FinMap) -> MapClassification:
    inj = len(set(f.table)) == len(f.table)
    surj = len(set(f.table)) == f.cod.cardinality
    idem = None
    if f.is_endo():
        idem = all(f.table[v] == v for v in f.table)
    return MapClassification(inj, surj, inj and surj, idem)


def direct_image(f: FinMap, A: Subset) -> Subset:
    if A.of.id != f.dom.id:
        raise SubsetDomainMismatch(f"subset of {A.of.id!r}, map from {f.dom.id!r}")
    return Subset(f.cod, frozenset(f.table[i] for i in A.members))


def inverse_image(f: FinMap, B: Subset) -> Subset:
    if B.of.id != f.cod.id:
        raise SubsetDomainMismatch(f"subset of {B.of.id!r}, map into {f.cod.id!r}")
    return Subset(f.dom, frozenset(i for i, v in enumerate(f.table) if v in B.members))


def subsets_lex(X: FiniteSet) -> Iterator[Subset]:
    """All subsets of X ordered lexicographically by sorted index tuple."""
    keys = []
    for r in range(X.cardinality + 1):
        keys.extend(combinations(range(X.cardinality), r))
    for key in sorted(keys):
        yield Subset(X, frozenset(key))


class SubsetRegularityResult(NamedTuple):
    holds: bool
    witness: Optional[Subset]


def check_subset_regularity(f: FinMap, g: FinMap, mode: str) -> SubsetRegularityResult:
    """Subset-level regularity sweep.

    mode "image":     f(g(f(A))) = f(A) for every A ⊆ dom(f);
    mode "reflexive": g(f(g(B))) = g(B) for every B ⊆ cod(f).
    The witness, when present, is the lexicographically least counterexample.
    """
    if g.dom.id != f.cod.id or g.cod.id != f.dom.id:
        raise TypeMismatch(f"{f.cod.id}->{f.dom.id}", f"{g.dom.id}->{g.cod.id}")
    if mode == "reflexive":
        f, g = g, f  # the image sweep of the pair read the other way round
    elif mode != "image":
        raise ValueError(f"unknown mode {mode!r}")
    for A in subsets_lex(f.dom):
        fa = direct_image(f, A)
        if direct_image(f, direct_image(g, fa)).members != fa.members:
            return SubsetRegularityResult(False, A)
    return SubsetRegularityResult(True, None)


# --- exhaustive enumeration helpers -------------------------------------------


def all_maps(
    dom: FiniteSet,
    cod: FiniteSet,
    prefix: str = "m",
    columns: Optional[Sequence[Optional[Sequence[int]]]] = None,
) -> Iterator[FinMap]:
    """Every map dom -> cod in lexicographic table order.

    ``columns``, when given, has one entry per element of dom: the ascending
    codomain indices allowed there, or None for all of them.  The maps yielded
    are then exactly the tables in the product of the columns, still in lex
    order, and an empty column yields none.
    """
    whole = range(cod.cardinality)
    if columns is None:
        columns = [whole] * dom.cardinality
    else:
        columns = [whole if c is None else c for c in columns]
    for k, table in enumerate(product(*columns)):
        yield FinMap(f"{prefix}{k}", dom, cod, table)


def fibre_columns(p: FinMap, on: Iterable[int]) -> list[Optional[list[int]]]:
    """Per element c of cod(p): the fibre p⁻¹(c), ascending, if c is in ``on``, else None.

    As ``columns`` of ``all_maps(p.cod, p.dom, ...)`` this yields exactly the
    maps g with p(g(c)) = c for every c in ``on``.
    """
    fibres: list[list[int]] = [[] for _ in range(p.cod.cardinality)]
    for x, c in enumerate(p.table):
        fibres[c].append(x)
    on = set(on)
    return [fibres[c] if c in on else None for c in range(p.cod.cardinality)]


def map_space_size(dom: FiniteSet, cod: FiniteSet) -> int:
    if dom.cardinality == 0:
        return 1
    return cod.cardinality ** dom.cardinality
