"""Command-line driver: load a workspace file, run one check, emit a report.

Exit codes: 0 the checked property holds / the search completed, 1 the
property fails (the report carries at least one witness), 2 usage, parse or
input error, 3 a resource limit was exceeded or the report could not be written.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, NoReturn, Optional, Sequence

# chains, diagrams and braiding are imported by the handlers that run them,
# so that a call loads only its own subcommand's modules
from . import inverses
from .core import FinMap, FiniteSet, _Record, classify_map
from .dsl import Workspace, parse_workspace
from .errors import RegcatError, SearchSpaceTooLarge

if TYPE_CHECKING:
    from . import chains, diagrams

USAGE_ERROR = 2
RESOURCE_ERROR = 3

_CONTAINERS = (list, tuple, dict)


def _json_key(k) -> str:
    """A dict key as json writes it: a str as itself, an int, float, bool or None as its text."""
    if not isinstance(k, (str, int, float)) and k is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")
    return encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k))


def _indented_json(value) -> str:
    """``json.dumps(value, indent=2)``, written level by level without recursion.

    The non-empty containers are collected a level at a time, each distinct
    one (by ``id``) once per level, so a container shared by many parents is
    written once at each depth it appears at. The deepest level is written
    first, and each container looks its children's texts up by ``id`` in the
    level below. Strings and ints are written here; other scalars go to
    ``json.dumps``, which with ``indent`` set would run its pure-Python
    encoder over the whole value.
    """
    levels = []
    level = {id(value): value} if isinstance(value, _CONTAINERS) and value else {}
    while level:
        levels.append(level)
        level = {id(v): v for c in level.values()
                 for v in (c.values() if isinstance(c, dict) else c)
                 if isinstance(v, _CONTAINERS) and v}
    below: dict = {}
    enc = encode_basestring_ascii

    def text(v) -> str:
        if v.__class__ is str:
            return enc(v)
        if v.__class__ is int:
            return int.__repr__(v)
        if isinstance(v, _CONTAINERS):
            return below[id(v)] if v else "{}" if isinstance(v, dict) else "[]"
        return json.dumps(v)

    for depth in reversed(range(len(levels))):
        inner = "\n" + "  " * (depth + 1)
        sep, close = "," + inner, "\n" + "  " * depth
        # strings, most of a report's scalars, are encoded without a call to text
        below = {
            key: "{" + inner + sep.join([
                f"{enc(k) if k.__class__ is str else _json_key(k)}: "
                f"{enc(v) if v.__class__ is str else text(v)}"
                for k, v in c.items()
            ]) + close + "}"
            if isinstance(c, dict) else
            "[" + inner + sep.join([enc(v) if v.__class__ is str else text(v) for v in c])
            + close + "]"
            for key, c in levels[depth].items()
        }
    return text(value)


class Report(_Record):
    """One subcommand's outcome: its result, the witnesses of any failure, its work counters."""

    __slots__ = _args = ("command", "result", "witnesses", "counts")

    def __init__(
        self,
        command: str,
        result: dict,
        witnesses: Optional[list] = None,
        counts: Optional[dict] = None,
    ):
        self._fill(command, result, [] if witnesses is None else witnesses,
                   {} if counts is None else counts)

    @property
    def ok(self) -> bool:
        return not self.witnesses

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def to_json(self) -> str:
        payload = {
            "command": self.command,
            "ok": self.ok,
            "result": self.result,
            "witnesses": self.witnesses,
            "counts": self.counts,
        }
        return _indented_json(payload)

    def to_text(self) -> str:
        lines = [f"{self.command}: {'ok' if self.ok else 'FAIL'}"]
        for k, v in self.result.items():
            lines.append(f"  {k}: {v}")
        for k, v in self.counts.items():
            lines.append(f"  {k} = {v}")
        for w in self.witnesses:
            lines.append(f"  witness: {w}")
        return "\n".join(lines)


def _map_as_labels(m: FinMap) -> dict:
    return {m.dom.label(i): m.cod.label(v) for i, v in enumerate(m.table)}


def _cycle_as_json(c: diagrams.Cycle) -> dict:
    return {"base": c.base, "edges": list(c.edges)}


def _walk_counts(rep) -> dict:
    """A diagram check's work: trail prefixes composed, closed trails checked, states expanded."""
    return {"paths": rep.paths, "cycles": rep.cycles, "states": rep.states}


# --- subcommand handlers --------------------------------------------------------


def _cmd_check_map(ws: Workspace, ns) -> Report:
    f = ws.require_map(ns.map)
    cls = classify_map(f)
    g = inverses.section_inner_inverse(f)
    inv = inverses.invertibility_class(f)
    return Report(
        command="check-map",
        result={
            "map": ns.map,
            "injective": cls.injective,
            "surjective": cls.surjective,
            "bijective": cls.bijective,
            "idempotent": cls.idempotent,
            "retraction": inv.retraction,
            "coretraction": inv.coretraction,
            "inner_inverse": _map_as_labels(g),
        },
    )


def _cmd_inverses(ws: Workspace, ns) -> Report:
    f = ws.require_map(ns.map)
    enum = inverses.enumerate_inverses(f, ns.kind, limit=ns.limit, max_space=ns.max_space)
    result = {"map": ns.map, "kind": ns.kind, "truncated": enum.truncated}
    if not ns.count_only:
        result["inverses"] = [_map_as_labels(g) for g in enum.maps]
    return Report(
        command="inverses",
        result=result,
        counts={"inverses": enum.count, "nodes": enum.nodes},
    )


def _chain_from_names(ws: Workspace, base: FinMap, star_names: str) -> chains.StarChain:
    from . import chains

    stars = [ws.require_map(n) for n in star_names.split(",") if n]
    if not stars:
        raise UsageError("--stars must name at least one map")
    return chains.make_chain(base, stars)


def _cmd_chain(ws: Workspace, ns) -> Report:
    from . import chains

    f = ws.require_map(ns.map)
    if ns.search:
        found = chains.find_chains(f, ns.n, limit=ns.limit, max_space=ns.max_space)
        return Report(
            command="chain",
            result={
                "map": ns.map,
                "order": ns.n,
                "truncated": found.truncated,
                "chains": [
                    [_map_as_labels(s) for s in c.stars] for c in found.chains
                ],
            },
            counts={"chains": len(found.chains), "nodes": found.nodes},
        )
    chain = _chain_from_names(ws, f, ns.stars)
    if chain.order != ns.n:
        raise UsageError(f"--n {ns.n} does not match {chain.order} stars")
    verdict = chains.check_chain(chain)
    return Report(
        command="chain",
        result={
            "map": ns.map,
            "order": chain.order,
            "odd_closure": verdict.odd_closure,
            "even_closure": verdict.even_closure,
            "ef_form": verdict.ef_form,
            "obstructor": _map_as_labels(verdict.obstructor),
            "obstructor_idempotent": verdict.obstructor_idempotent,
        },
        witnesses=[
            {"equation": eq, "element": el} for eq, el in verdict.failures
        ],
    )


def _cmd_projector(ws: Workspace, ns) -> Report:
    from . import chains

    f = ws.require_map(ns.map)
    chain = _chain_from_names(ws, f, ns.stars)
    hp = chains.higher_projector(chain)
    witnesses = []
    if not (hp.idempotent and hp.absorption):
        witnesses.append({"projector": _map_as_labels(hp.projector)})
    return Report(
        command="projector",
        result={
            "map": ns.map,
            "order": chain.order,
            "side": hp.side,
            "idempotent": hp.idempotent,
            "absorption": hp.absorption,
            "projector": _map_as_labels(hp.projector),
        },
        witnesses=witnesses,
    )


def _cmd_diagram(ws: Workspace, ns) -> Report:
    from . import diagrams

    d = ws.build_diagram(ns.name)
    check = diagrams.is_commutative if ns.mode == "commutative" else diagrams.is_semicommutative
    rep = check(d, ns.max_len, max_space=ns.max_space)
    witnesses = []
    cycles: dict = {}  # one dict per cycle, shared by its witnesses and written once
    for v in rep.violations:
        if v[0] == "cycle":
            witnesses.append({"kind": "cycle", "cycle": _cycle_as_json(v[1])})
        elif v[0] == "parallel_paths":
            witnesses.append({"kind": "parallel_paths", "paths": [list(v[1]), list(v[2])]})
        else:
            c = cycles.get(v[1]) or cycles.setdefault(v[1], _cycle_as_json(v[1]))
            witnesses.append({"kind": "absorption", "cycle": c, "edge": v[2]})
    return Report(
        command="diagram",
        result={"diagram": ns.name, "mode": ns.mode, "max_len": ns.max_len,
                "verdict": not witnesses},
        witnesses=witnesses,
        counts=_walk_counts(rep),
    )


def _cmd_obstruction(ws: Workspace, ns) -> Report:
    from . import diagrams

    d = ws.build_diagram(ns.name)
    rep = diagrams.obstruction_number(d, ns.object, ns.max_n, max_space=ns.max_space)
    result = {
        "diagram": ns.name,
        "object": ns.object,
        "max_n": ns.max_n,
        "n_obstr": rep.n_obstr,
    }
    if rep.witness is not None:
        result["cycle"] = _cycle_as_json(rep.witness)
    return Report(command="obstruction", result=result, counts=_walk_counts(rep))


def _cmd_cycles3(ws: Workspace, ns) -> Report:
    from . import diagrams

    d = ws.build_diagram(ns.name)
    rep = diagrams.find_regular_3cycles(d, max_space=ns.max_space)
    return Report(
        command="cycles3",
        result={
            "diagram": ns.name,
            "cycles": [
                {
                    "objects": [c.x.id, c.y.id, c.z.id],
                    "edges": [c.f.name, c.g.name, c.h.name],
                    "obstructor": _map_as_labels(c.obstructor),
                }
                for c in rep.found
            ],
        },
        counts={"cycles3": len(rep.found), **_walk_counts(rep)},
    )


def _parse_pairs(spec: str, what: str) -> dict:
    out = {}
    for item in spec.split(","):
        if not item:
            continue
        if "=" not in item:
            raise UsageError(f"bad {what} entry {item!r}, expected A=B")
        k, v = item.split("=", 1)
        out[k] = v
    return out


def _cmd_functor(ws: Workspace, ns) -> Report:
    from . import diagrams

    src = ws.build_diagram(ns.src)
    tgt = ws.build_diagram(ns.dst)
    fd = diagrams.FunctorData(
        source=src,
        target=tgt,
        object_map=_parse_pairs(ns.objects, "--objects"),
        edge_map=_parse_pairs(ns.maps, "--maps"),
    )
    rep = diagrams.check_regular_functor(fd, ns.n, max_space=ns.max_space)
    witnesses = []
    for v in rep.violations:
        if v[0] == "composition":
            witnesses.append({"kind": "composition", "edges": [v[1], v[2]], "composite": v[3]})
        elif v[0] == "identity":
            witnesses.append({"kind": "identity", "edge": v[1]})
        else:
            witnesses.append(
                {
                    "kind": "obstructor",
                    "source_cycle": _cycle_as_json(v[1]),
                    "target_cycle": _cycle_as_json(v[2]),
                }
            )
    return Report(
        command="functor",
        result={
            "from": ns.src,
            "to": ns.dst,
            "n": ns.n,
            "composition_preserved": rep.composition_preserved,
            "e_preserved": rep.e_preserved,
        },
        witnesses=witnesses,
        counts=_walk_counts(rep),
    )


def _cmd_braid_check(ws: Workspace, ns) -> Report:
    from . import braiding as br

    b = ws.require_braiding(ns.braiding)
    result = {"braiding": ns.braiding}
    witnesses = []
    cls = classify_map(b.map)
    result["bijective"] = cls.bijective
    if ns.star:
        star = ws.require_braiding(ns.star)
        regular = br.check_regular_braiding(b, star)
        result["regular_with_star"] = regular
        if not regular:
            witnesses.append({"kind": "regularity", "star": ns.star})
    else:
        canon = br.canonical_braiding_star(b)
        result["canonical_star"] = _map_as_labels(canon.map)
        result["regular_with_canonical_star"] = br.check_regular_braiding(b, canon)
    if ns.e:
        e = ws.require_map(ns.e)
        res = br.check_ybe(b, e)
        result["ybe_holds"] = res.holds
        if not res.holds:
            witnesses.append({"kind": "ybe", "triple": list(res.witness)})
    return Report(command="braid-check", result=result, witnesses=witnesses)


def _cmd_ybe(ws: Optional[Workspace], ns) -> Report:
    from . import braiding as br

    if ns.mode == "classical" and ns.e != "identity":
        raise UsageError(f"--mode classical takes only --e identity, got {ns.e!r}")
    named = ns.e in ("identity", "all")
    if not (named or re.fullmatch(r"table:[0-9]+(,[0-9]+)*", ns.e)):
        raise UsageError(f"bad --e value {ns.e!r}, expected identity, all or table:I,J,...")
    if named:
        # refused before the carrier's labels are built; a table is checked
        # first, as solve_ybe does, and spells out an entry per element anyway
        br.require_root_budget(ns.size, ns.max_space)
    else:
        entries = ns.e[len("table:"):].split(",")
        if len(entries) != ns.size:
            raise UsageError(f"--e table has {len(entries)} entries, expected {ns.size}")
        try:
            table = tuple(int(v) for v in entries)
        except ValueError:  # int() refuses more digits than the interpreter's limit
            raise UsageError(f"--e table has an entry of more than "
                             f"{sys.get_int_max_str_digits()} digits") from None
    carrier = FiniteSet("X", tuple(f"x{i}" for i in range(ns.size)))
    e_spec = ns.e if named else FinMap("e", carrier, carrier, table)
    problem = br.YbeProblem(
        carrier=carrier,
        e_spec=e_spec,
        require_bijective=ns.bijective,
        jobs=ns.jobs,
        count_only=ns.count_only,
        max_nodes=ns.max_space,
    )
    sols = br.solve_ybe(problem)
    result = {"size": ns.size, "mode": ns.mode, "bijective": ns.bijective}
    if not ns.count_only:
        result["solutions"] = [
            {"braiding": _map_as_labels(b.map), "e": _map_as_labels(e)}
            for b, e in sols.solutions
        ]
    return Report(
        command="ybe",
        result=result,
        counts={"solutions": sols.count, "nodes": sols.nodes, "triples": sols.triples},
    )


class UsageError(RegcatError):
    pass


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in its "invalid int value" error
    return parse


NON_NEGATIVE = _int_at_least(0)
POSITIVE = _int_at_least(1)

# arguments that several subcommands take, each as (flag, add_argument keywords)
_MAX_SPACE = ("--max-space", {"type": NON_NEGATIVE, "default": inverses.DEFAULT_MAX_SPACE,
                              "help": "bound on exhaustive search spaces"})
_FILE = ("file", {"help": "workspace file"})
_MAP = ("--map", {"required": True})
_NAME = ("--name", {"required": True})
_N = ("--n", {"type": POSITIVE, "required": True})
_LIMIT = ("--limit", {"type": NON_NEGATIVE, "default": None})
_COUNT_ONLY = ("--count-only", {"action": "store_true"})

# One row per subcommand, in the order ``regcat --help`` lists them: its help,
# its handler, and its arguments in the order its help lists them after --json.
# A subcommand with a file argument runs on that workspace.
SUBCOMMANDS = {
    "check-map": ("classify a map and report a regularity witness", _cmd_check_map,
                  [_FILE, _MAP]),
    "inverses": ("enumerate inner/outer/generalized inverses", _cmd_inverses, [
        _MAX_SPACE, _FILE, _MAP,
        ("--kind", {"required": True, "choices": list(inverses.INVERSE_KINDS)}),
        _COUNT_ONLY, _LIMIT]),
    "chain": ("check or search star chains", _cmd_chain, [
        _MAX_SPACE, _FILE, _MAP, _N, ("--search", {"action": "store_true"}), _LIMIT,
        ("--stars", {"default": ""})]),
    "projector": ("higher projector of a star chain", _cmd_projector,
                  [_FILE, _MAP, ("--stars", {"required": True})]),
    "diagram": ("commutativity or semicommutativity check", _cmd_diagram, [
        _MAX_SPACE, _FILE, _NAME,
        ("--mode", {"required": True, "choices": ["commutative", "semicommutative"]}),
        ("--max-len", {"type": POSITIVE, "required": True})]),
    "obstruction": ("least cycle length with non-identity obstructor", _cmd_obstruction, [
        _MAX_SPACE, _FILE, _NAME, ("--object", {"required": True}),
        ("--max-n", {"type": POSITIVE, "required": True})]),
    "cycles3": ("list the regular 3-cycles of a diagram", _cmd_cycles3,
                [_MAX_SPACE, _FILE, _NAME]),
    "functor": ("generalized functor check between two diagrams", _cmd_functor, [
        _MAX_SPACE, _FILE, ("--from", {"required": True, "dest": "src"}),
        ("--to", {"required": True, "dest": "dst"}), ("--objects", {"required": True}),
        ("--maps", {"required": True}), _N]),
    "braid-check": ("symmetry/regularity/YBE checks for a braiding", _cmd_braid_check, [
        _FILE, ("--braiding", {"required": True}), ("--star", {"default": None}),
        ("--e", {"default": None})]),
    "ybe": ("solve the YBE on a fresh carrier", _cmd_ybe, [
        _MAX_SPACE, ("--size", {"type": NON_NEGATIVE, "required": True}),
        ("--mode", {"required": True, "choices": ["classical", "regular"]}),
        ("--e", {"default": "identity"}), ("--bijective", {"action": "store_true"}),
        _COUNT_ONLY, ("--jobs", {"type": POSITIVE, "default": 1})]),
}
HANDLERS = {name: handler for name, (_, handler, _) in SUBCOMMANDS.items()}


class _SubcommandParser(argparse.ArgumentParser):
    """A subcommand's parser, which rejects the arguments it does not take
    with its own usage rather than leaving them to the top-level parser."""

    def parse_known_args(self, args=None, namespace=None):
        ns, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return ns, extras


def build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    """The regcat parser, with arguments only for the subcommands named in ``argv``.

    Every subcommand is listed with its help, so the top-level help and
    errors do not depend on ``argv``; argparse runs at most one subcommand's
    parser, and it is always one named in ``argv``.  An argument after the
    subcommand that it does not take is reported with the subcommand's
    usage, one before it with the top-level usage.
    """
    parser = argparse.ArgumentParser(prog="regcat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)
    for name, (help, _, arguments) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help)
        if name in argv:
            p.add_argument("--json", action="store_true", help="emit the JSON report")
            for flag, kwargs in arguments:
                p.add_argument(flag, **kwargs)
    return parser


def _error(message: str) -> None:
    """Print an ``error:`` line on stderr, or nothing if the process has none:
    ``print`` would write it on stdout when ``sys.stderr`` is None."""
    if sys.stderr is not None:
        print(f"error: {message}", file=sys.stderr)


def main(argv=None) -> int:
    """Parse, load the workspace, run one handler, render; return the exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    try:
        ws = None
        if "file" in ns:
            with open(ns.file, encoding="utf-8") as fh:
                ws = parse_workspace(fh.read())
        report = HANDLERS[ns.command](ws, ns)
    except (RegcatError, OSError, UnicodeDecodeError) as exc:
        # a decode error does not name the file it read; OSError already does
        where = f"{ns.file}: " if isinstance(exc, UnicodeDecodeError) else ""
        _error(f"{where}{exc}")
        return RESOURCE_ERROR if isinstance(exc, SearchSpaceTooLarge) else USAGE_ERROR
    except MemoryError:
        _error("out of memory")
        return RESOURCE_ERROR
    print(report.to_json() if ns.json else report.to_text())
    return report.exit_code


def run() -> NoReturn:
    """The process entry point: run ``main``, flush its output and end with its code.

    ``os._exit`` skips the interpreter's teardown, which costs a call more
    than most commands' work and which nothing here needs: regcat registers
    no exit handler and writes no file, and a ``ybe`` pool is joined before
    the solve returns. An exception escaping ``main`` ends the process as
    usual, with its traceback. A report that cannot be written, as into a
    pipe whose reader has gone, ends with one ``error:`` line and exit 3.
    """
    try:
        code = main()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the interpreter started with it closed
                stream.flush()
    except OSError as exc:
        code = RESOURCE_ERROR
        with contextlib.suppress(OSError, AttributeError):  # stderr closed or None too
            sys.stderr.write(f"error: cannot write the report: {exc}\n")
            sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
