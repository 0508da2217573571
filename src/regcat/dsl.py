"""Workspace language: declarations of sets, maps, diagrams and braidings.

One workspace file holds every object a CLI invocation can refer to.  The
renderer produces a canonical form (kinds grouped, names sorted, one
assignment per line) on which parse -> render -> parse is the identity.

Grammar (UTF-8 text, '#' starts a line comment)::

    workspace := stmt*
    stmt      := setdecl | mapdecl | diagdecl | braiddecl
    setdecl   := "set" NAME "=" "{" NAME ("," NAME)* "}"
    mapdecl   := "map" NAME ":" NAME "->" NAME "{" pair ("," pair)* "}"
    pair      := NAME "->" NAME
    diagdecl  := "diagram" NAME "{" NAME ("," NAME)* "}"
    braiddecl := "braiding" NAME ":" NAME "*" NAME "{" bpair ("," bpair)* "}"
    bpair     := "(" NAME "," NAME ")" "->" "(" NAME "," NAME ")"
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, NamedTuple, Optional

from .core import FinMap, FiniteSet, ProductSet, _Record, build_map
from .errors import (
    AssignedTwice,
    DslSyntaxError,
    DuplicateAssignment,
    DuplicateName,
    MissingAssignment,
    NotTotal,
    UnknownLabel,
    UnknownReference,
)

if TYPE_CHECKING:  # imported where they are built, so that parsing maps loads neither
    from .braiding import Braiding
    from .diagrams import Diagram

_TOKEN_RE = re.compile(r"->|[A-Za-z_][A-Za-z0-9_]*|[={},:*()]")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class _Token(NamedTuple):
    kind: str  # "name" | "punct" | "eof"
    value: str
    line: int
    col: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    for lineno, line in enumerate(source.splitlines(), start=1):
        line = line.split("#", 1)[0]
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            if not m:
                raise DslSyntaxError(lineno, pos + 1, "a name or punctuation")
            text = m.group(0)
            kind = "name" if _NAME_RE.match(text) else "punct"
            tokens.append(_Token(kind, text, lineno, pos + 1))
            pos = m.end()
    last = tokens[-1] if tokens else None
    tokens.append(_Token("eof", "", last.line if last else 1, last.col + len(last.value) if last else 1))
    return tokens


class Workspace(_Record):
    """The declarations of one workspace file, by kind and name."""

    __slots__ = _args = ("sets", "maps", "diagrams", "braidings")

    def __init__(
        self,
        sets: Optional[dict[str, FiniteSet]] = None,
        maps: Optional[dict[str, FinMap]] = None,
        diagrams: Optional[dict[str, tuple[str, ...]]] = None,
        braidings: Optional[dict[str, Braiding]] = None,
    ):
        self._fill(*({} if d is None else d for d in (sets, maps, diagrams, braidings)))

    def require_set(self, name: str) -> FiniteSet:
        if name not in self.sets:
            raise UnknownReference(name)
        return self.sets[name]

    def require_map(self, name: str) -> FinMap:
        if name not in self.maps:
            raise UnknownReference(name)
        return self.maps[name]

    def require_braiding(self, name: str) -> Braiding:
        if name not in self.braidings:
            raise UnknownReference(name)
        return self.braidings[name]

    def build_diagram(self, name: str) -> Diagram:
        """Materialize a declared diagram: its maps plus their endpoint sets."""
        from .diagrams import Diagram

        if name not in self.diagrams:
            raise UnknownReference(name)
        edges = [self.maps[m] for m in self.diagrams[name]]
        objects: dict[str, FiniteSet] = {}
        for m in edges:
            objects.setdefault(m.dom.id, m.dom)
            objects.setdefault(m.cod.id, m.cod)
        return Diagram.build(objects.values(), edges)


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self, kind: str, value: str | None = None, expected: str | None = None) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind or (value is not None and tok.value != value):
            raise DslSyntaxError(tok.line, tok.col, expected or value or kind)
        self.pos += 1
        return tok

    def name(self, what: str) -> str:
        return self.take("name", expected=what).value

    def punct(self, value: str) -> None:
        self.take("punct", value, f"'{value}'")


def parse_workspace(source: str) -> Workspace:
    """Parse one workspace file; errors carry line/column positions."""
    p = _Parser(_tokenize(source))
    ws = Workspace()
    while p.peek().kind != "eof":
        tok = p.peek()
        if tok.kind != "name" or tok.value not in _DECLARATIONS:
            raise DslSyntaxError(tok.line, tok.col, "'set', 'map', 'diagram' or 'braiding'")
        p.take("name")
        field, parse = _DECLARATIONS[tok.value]
        name = p.name(f"{tok.value} name")
        declared = getattr(ws, field)
        if name in declared:
            raise DuplicateName(name)
        declared[name] = parse(p, ws, name)
    return ws


def _items(p: _Parser, item) -> list:
    """A braced list of one or more ``item(p)``, separated by commas."""
    p.punct("{")
    items = [item(p)]
    while p.peek().value == ",":
        p.punct(",")
        items.append(item(p))
    p.punct("}")
    return items


def _map_from_pairs(
    name: str, dom: FiniteSet, cod: FiniteSet, pairs: list[tuple[str, str]]
) -> FinMap:
    try:
        return build_map(name, dom, cod, pairs)
    except DuplicateAssignment as exc:
        raise AssignedTwice(name, exc.label) from None
    except MissingAssignment as exc:
        raise NotTotal(name, exc.label) from None
    except UnknownLabel as exc:
        raise UnknownReference(exc.label) from None


def _parse_set(p: _Parser, ws: Workspace, name: str) -> FiniteSet:
    p.punct("=")
    labels = _items(p, lambda p: p.name("element label"))
    if len(set(labels)) != len(labels):
        raise DuplicateName(next(l for i, l in enumerate(labels) if l in labels[:i]))
    return FiniteSet(name, tuple(labels))


def _map_pair(p: _Parser) -> tuple[str, str]:
    src = p.name("domain element")
    p.punct("->")
    return src, p.name("codomain element")


def _parse_map(p: _Parser, ws: Workspace, name: str) -> FinMap:
    p.punct(":")
    dom = ws.require_set(p.name("domain set"))
    p.punct("->")
    cod = ws.require_set(p.name("codomain set"))
    return _map_from_pairs(name, dom, cod, _items(p, _map_pair))


def _parse_diagram(p: _Parser, ws: Workspace, name: str) -> tuple[str, ...]:
    members = _items(p, lambda p: p.name("member map name"))
    for m in members:
        ws.require_map(m)
    if len(set(members)) != len(members):
        raise DuplicateName(next(m for i, m in enumerate(members) if m in members[:i]))
    return tuple(sorted(members))


def _parse_braiding(p: _Parser, ws: Workspace, name: str) -> Braiding:
    from .braiding import Braiding

    p.punct(":")
    left = ws.require_set(p.name("left factor set"))
    p.punct("*")
    right = ws.require_set(p.name("right factor set"))

    def pair(p: _Parser) -> tuple[str, str]:
        p.punct("(")
        a = p.name("left element")
        p.punct(",")
        b = p.name("right element")
        p.punct(")")
        p.punct("->")
        p.punct("(")
        c = p.name("left image element")
        p.punct(",")
        d = p.name("right image element")
        p.punct(")")
        try:
            left.index(a), right.index(b), right.index(c), left.index(d)
        except UnknownLabel as exc:
            raise UnknownReference(exc.label) from None
        return f"({a},{b})", f"({c},{d})"  # labels on the product carriers

    dom, cod = ProductSet.of(left, right), ProductSet.of(right, left)
    m = _map_from_pairs(name, dom.carrier, cod.carrier, _items(p, pair))
    return Braiding(left, right, m)


# each keyword's Workspace field and the parser of what follows the declared name
_DECLARATIONS = {
    "set": ("sets", _parse_set),
    "map": ("maps", _parse_map),
    "diagram": ("diagrams", _parse_diagram),
    "braiding": ("braidings", _parse_braiding),
}


# --- rendering ----------------------------------------------------------------


def render_workspace(ws: Workspace) -> str:
    """Canonical text: kinds grouped, names sorted, one assignment per line."""
    lines: list[str] = []
    for name in sorted(ws.sets):
        s = ws.sets[name]
        lines.append(f"set {name} = {{ {', '.join(s.elements)} }}")
    for name in sorted(ws.maps):
        m = ws.maps[name]
        lines.append(f"map {name} : {m.dom.id} -> {m.cod.id} {{")
        for i, v in enumerate(m.table):
            sep = "," if i + 1 < len(m.table) else ""
            lines.append(f"  {m.dom.label(i)} -> {m.cod.label(v)}{sep}")
        lines.append("}")
    for name in sorted(ws.diagrams):
        lines.append(f"diagram {name} {{ {', '.join(ws.diagrams[name])} }}")
    for name in sorted(ws.braidings):
        b = ws.braidings[name]
        lines.append(f"braiding {name} : {b.left.id} * {b.right.id} {{")
        n = b.map.dom.cardinality
        for i in range(n):
            x, y = b.dom_product.unrank(i)
            c, d = b.cod_product.unrank(b.map.table[i])
            sep = "," if i + 1 < n else ""
            lines.append(
                f"  ({b.left.label(x)}, {b.right.label(y)}) -> "
                f"({b.right.label(c)}, {b.left.label(d)}){sep}"
            )
        lines.append("}")
    return "\n".join(lines) + ("\n" if lines else "")
