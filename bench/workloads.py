"""Seeded workloads: the workspace files and the CLI calls of one iteration.

Each ``build_*`` function takes the workload seed, the directory the workspace files will
live in, ``smoke`` (small inputs for the self-test) and ``fault`` (add one to
the first expected count, so the checker must report a failure).  The program
only ever sees the generated ``.rcw`` text and the argv of each call.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from itertools import product
from typing import Callable, Optional

import checks

# Frozen solver counts.  5,707, 141 and 43 are the counts the test suite
# freezes; 38,483 was taken from the solver, and all six rank-2 idempotents of
# a 3-element set, which are conjugate under S3, gave it.  Smoke runs count
# size 2 by brute force instead.
YBE3_IDENTITY = 5707
YBE3_RANK2 = 38483
YBE2_ALL = 141
YBE2_CLASSICAL = 43

# The rank-2 idempotent used for size 3.  Solving its conjugates took from 4 s
# to 79 s when this benchmark was written, so a seeded choice would make runs
# of one workload incomparable; this is the cheapest of the six.
RANK2_E = "table:0,1,0"


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``python -m regcat.cli *argv``."""

    argv: tuple[str, ...]
    check: Callable[[dict], Optional[str]]
    exit_code: int = 0
    key: Optional[str] = None  # calls sharing a key must print identical JSON

    @property
    def same_as(self) -> str:
        return self.key or " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    setup: Call  # trivial call on the workspace, timed as set-up
    calls: tuple[Call, ...]  # one iteration
    files: dict = field(default_factory=dict)  # file name -> workspace text


def _equal(what, got, want) -> Optional[str]:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def _all_ok(*results) -> Optional[str]:
    return next((r for r in results if r), None)


# --- workspace text -------------------------------------------------------------


def _set(name, labels) -> str:
    return f"set {name} = {{ {', '.join(labels)} }}\n"


def _map(name, dom, cod, table) -> str:
    (dname, dl), (cname, cl) = dom, cod
    pairs = ", ".join(f"{dl[i]} -> {cl[v]}" for i, v in enumerate(table))
    return f"map {name} : {dname} -> {cname} {{ {pairs} }}\n"


def _labels(prefix, n):
    return tuple(f"{prefix}{i}" for i in range(n))


def _labels_of(report_map, dom, cod):
    """A ``{label: label}`` map from a report back to an index tuple."""
    (_, dl), (_, cl) = dom, cod
    return tuple(cl.index(report_map[lbl]) for lbl in dl)


# --- ybe ------------------------------------------------------------------------


def _ybe_argv(size, e, jobs, count_only=True, mode="regular"):
    argv = ["ybe", "--size", str(size), "--mode", mode, "--e", e, "--jobs", str(jobs), "--json"]
    if count_only:
        argv.append("--count-only")
    return tuple(argv)


def _count_check(key, want):
    return lambda r: _equal(key, r["counts"].get(key), want)


def _ybe_listing_check(s, want, classical):
    """Count, distinctness and an independent YBE check of every listed pair."""
    labels = _labels("x", s)
    pair = tuple(f"({a},{b})" for a, b in product(labels, repeat=2))

    def check(r):
        sols = r["result"].get("solutions", [])
        seen = set()
        for sol in sols:
            braid = _labels_of(sol["braiding"], ("", pair), ("", pair))
            e = _labels_of(sol["e"], ("", labels), ("", labels))
            if not checks.ybe_holds(s, braid, e, classical):
                return f"listed braiding {braid} with e={e} is not a solution"
            seen.add((braid, e))
        return _all_ok(
            _count_check("solutions", want)(r),
            _equal("listed solutions", len(sols), want),
            _equal("distinct solutions", len(seen), want),
        )

    return check


def _brute_ybe_count(s, e):
    return sum(
        checks.ybe_holds(s, braid, e, False)
        for braid in product(range(s * s), repeat=s * s)
    )


def _ybe_setup():
    return Call(("ybe", "--size", "1", "--mode", "regular", "--count-only", "--json"),
                _count_check("solutions", 1))


def build_ybe(seed, workdir, smoke=False, fault=False) -> Workload:
    """Size-3 count-only solves (identity e, a rank-2 idempotent) on one worker,
    then size-2 ``--e all`` listings on two workers, so one pool starts per
    idempotent, with a one-worker twin that must print the same bytes."""
    if smoke:
        runs = [("identity", _brute_ybe_count(2, (0, 1))), ("table:0,0", _brute_ybe_count(2, (0, 0)))]
        size = 2
    else:
        runs = [("identity", YBE3_IDENTITY), (RANK2_E, YBE3_RANK2)]
        size = 3
    calls = [
        Call(_ybe_argv(size, e, 1), _count_check("solutions", want + (fault and i == 0)))
        for i, (e, want) in enumerate(runs)
    ]
    listing = _ybe_listing_check(2, YBE2_ALL, classical=False)
    calls += [Call(_ybe_argv(2, "all", 2, count_only=False), listing, key="ybe2-all")] * 2
    calls.append(Call(_ybe_argv(2, "all", 1, count_only=False), listing, key="ybe2-all"))
    calls.append(Call(_ybe_argv(2, "identity", 2, count_only=False, mode="classical"),
                      _ybe_listing_check(2, YBE2_CLASSICAL, classical=True)))
    return Workload(_ybe_setup(), tuple(calls))


# --- tables ---------------------------------------------------------------------


def _seeded_map(rng, cod_size, fibre_sizes):
    """A map with the given nonempty fibre sizes, placed at random."""
    image = rng.sample(range(cod_size), len(fibre_sizes))
    table = [y for y, n in zip(image, fibre_sizes) for _ in range(n)]
    rng.shuffle(table)
    return tuple(table)


def _seeded_generalized_inverse(rng, table, cod_size):
    """g with f∘g∘f = f and g∘f∘g = g: a preimage per image point, reps elsewhere."""
    pre = {}
    for x, y in enumerate(table):
        pre.setdefault(y, []).append(x)
    reps = {y: rng.choice(xs) for y, xs in sorted(pre.items())}
    chosen = sorted(reps.values())
    return tuple(reps[y] if y in reps else rng.choice(chosen) for y in range(cod_size))


def _check_map_check(f, dom, cod):
    injective = len(set(f)) == len(dom[1])
    surjective = len(set(f)) == len(cod[1])

    def check(r):
        res = r["result"]
        g = _labels_of(res["inner_inverse"], cod, dom)
        return _all_ok(
            _equal("injective", res["injective"], injective),
            _equal("surjective", res["surjective"], surjective),
            _equal("bijective", res["bijective"], injective and surjective),
            _equal("idempotent", res["idempotent"], None),  # dom and cod differ
            _equal("f.g.f", checks.compose(f, checks.compose(g, f)), f),
        )

    return check


def _projector_check(f, stars, dom, cod):
    p = f
    for s in stars:
        p = checks.compose(p, s)
    want = {cod[1][i]: cod[1][v] for i, v in enumerate(p)}

    def check(r):
        res = r["result"]
        return _all_ok(
            _equal("idempotent", res["idempotent"], True),
            _equal("absorption", res["absorption"], True),
            _equal("projector", res["projector"], want),
        )

    return check


def _chain_check(f, dom, cod, want):
    def check(r):
        chains = r["result"]["chains"]
        for c in chains:
            stars = tuple(
                _labels_of(s, cod, dom) if k % 2 == 0 else _labels_of(s, dom, cod)
                for k, s in enumerate(c)
            )
            if not checks.closure_holds(f, stars):
                return f"listed chain {stars} breaks a closure equation"
        return _all_ok(
            _equal("chains", r["counts"]["chains"], want),
            _equal("listed chains", len(chains), want),
            _equal("truncated", r["result"]["truncated"], False),
        )

    return check


def build_tables(seed, workdir, smoke=False, fault=False) -> Workload:
    """Inverse counts, chain listings, check-map and projectors on seeded maps."""
    rng = random.Random(seed)
    if smoke:
        inv_shapes = [(3, 4, (2, 1))]
        chain_shape = (3, 3, (2, 1))
    else:
        # (|X|, |Y|, fibre sizes): the sweeps cover |X|^|Y| candidates each
        inv_shapes = [(5, 6, (2, 1, 1, 1)), (6, 5, (2, 2, 1, 1))]
        chain_shape = (4, 4, (2, 1, 1))
    path = os.path.join(workdir, "tables.rcw")
    text = []
    calls = []
    maps = []  # (name, dom, cod, f, a generalized inverse of f)
    for k, (n, m, fib) in enumerate([*inv_shapes, chain_shape]):
        dom, cod = (f"X{k}", _labels("a", n)), (f"Y{k}", _labels("b", m))
        f = _seeded_map(rng, m, fib)
        g = _seeded_generalized_inverse(rng, f, m)
        text += [_set(*dom), _set(*cod), _map(f"f{k}", dom, cod, f), _map(f"g{k}", cod, dom, g)]
        maps.append((f"f{k}", dom, cod, f, g))

    def call(*argv, check):
        calls.append(Call((argv[0], path, *argv[1:], "--json"), check))

    for name, dom, cod, f, _ in maps[:-1]:
        m = len(cod[1])
        wants = {
            "inner": checks.inner_count(f, len(dom[1]), m),
            "outer": checks.outer_count(f, m),
            "generalized": checks.generalized_count(f, m),
        }
        for kind, want in wants.items():
            want += fault and not calls
            call("inverses", "--map", name, "--kind", kind, "--count-only",
                 check=_count_check("inverses", want))
    name, dom, cod, f, g = maps[-1]
    for n in (2, 3):
        want = checks.chain_count(f, len(dom[1]), len(cod[1]), n)
        call("chain", "--map", name, "--n", str(n), "--search",
             check=_chain_check(f, dom, cod, want))
    for name, dom, cod, f, g in maps:
        call("check-map", "--map", name, check=_check_map_check(f, dom, cod))
    for (name, dom, cod, f, g), order in zip(maps[-2:], (1, 3)):
        stars = [g, f, g][:order]
        names = [f"g{name[1:]}", name, f"g{name[1:]}"][:order]
        call("projector", "--map", name, "--stars", ",".join(names),
             check=_projector_check(f, stars, dom, cod))
    name, dom, cod, f, g = maps[0]
    setup = Call(("check-map", path, "--map", name, "--json"), _check_map_check(f, dom, cod))
    return Workload(setup, tuple(calls), {path: "".join(text)})


# --- diagrams -------------------------------------------------------------------

# Edge shapes (dom index, cod index): every ordered pair of three objects,
# twice, so parallel paths and cycles abound up to the walk bounds.
DIAGRAM_EDGES = [(a, b) for a in range(3) for b in range(3) if a != b] * 2
SMOKE_EDGES = [(0, 1), (1, 2), (2, 0), (0, 2)]


def _permutation(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def _diagram_text(name, objects, edges):
    text = [_set(*o) for o in objects]
    names = []
    for k, (a, b, table) in enumerate(edges):
        names.append(f"{name.lower()}{k}")
        text.append(_map(names[-1], objects[a], objects[b], table))
    text.append(f"diagram {name} {{ {', '.join(names)} }}\n")
    return text, {n: (objects[a][0], objects[b][0], t) for n, (a, b, t) in zip(names, edges)}


def build_diagrams(seed, workdir, smoke=False, fault=False) -> Workload:
    """A diagram that commutes by construction, and one of random permutations."""
    rng = random.Random(seed)
    size = 5
    shape = SMOKE_EDGES if smoke else DIAGRAM_EDGES
    len_c, len_s, len_r = (3, 3, 3) if smoke else (5, 7, 6)  # walk bounds
    n_obj = 1 + max(max(e) for e in shape)
    labels = _labels("v", size)

    # commuting: edge A -> B is σ_B∘σ_A⁻¹, so every path A -> B composes alike
    objs_c = [(f"K{i}", labels) for i in range(n_obj)]
    sigma = [_permutation(rng, size) for _ in objs_c]
    inv = [tuple(p.index(x) for x in range(size)) for p in sigma]
    edges_c = [(a, b, checks.compose(sigma[b], inv[a])) for a, b in shape]
    text_c, by_name_c = _diagram_text("K", objs_c, edges_c)

    objs_r = [(f"R{i}", labels) for i in range(n_obj)]
    edges_r = [(a, b, _permutation(rng, size)) for a, b in shape]
    text_r, by_name_r = _diagram_text("R", objs_r, edges_r)
    ids_r = [o[0] for o in objs_r]

    path = os.path.join(workdir, "diagrams.rcw")
    holds = lambda r: _equal("verdict", r["result"]["verdict"], True)
    classes = checks.three_cycle_classes(by_name_c) + (fault and 1)

    def cycles3_check(r):
        cyc = r["result"]["cycles"]
        return _all_ok(
            _equal("cycles3", r["counts"]["cycles3"], classes),
            next((f"obstructor of {c['edges']} is not the identity"
                  for c in cyc if any(k != v for k, v in c["obstructor"].items())), None),
        )

    violations = checks.absorption_violations(by_name_r, ids_r, len_r)
    n_obstr = checks.obstruction_number(by_name_r, ids_r, "R0", len_r)

    def violation_check(r):
        kinds = {w["kind"] for w in r["witnesses"]}
        return _all_ok(
            _equal("absorption witnesses", len(r["witnesses"]), violations),
            _equal("witness kinds", kinds, {"absorption"} if violations else set()),
        )

    def c(*argv):
        return (argv[0], path, *argv[1:], "--json")

    calls = [
        Call(c("cycles3", "--name", "K"), cycles3_check),
        Call(c("diagram", "--name", "K", "--mode", "commutative", "--max-len", str(len_c)), holds),
        Call(c("diagram", "--name", "K", "--mode", "semicommutative", "--max-len", str(len_s)), holds),
        Call(c("obstruction", "--name", "K", "--object", "K0", "--max-n", str(len_s)),
             lambda r: _equal("n_obstr", r["result"]["n_obstr"], None)),
        Call(c("diagram", "--name", "R", "--mode", "semicommutative", "--max-len", str(len_r)),
             violation_check, exit_code=1 if violations else 0),
        Call(c("obstruction", "--name", "R", "--object", "R0", "--max-n", str(len_r)),
             lambda r: _equal("n_obstr", r["result"]["n_obstr"], n_obstr)),
    ]
    setup = Call(c("cycles3", "--name", "K"), cycles3_check)
    return Workload(setup, tuple(calls), {path: "".join(text_c + text_r)})


WORKLOADS = {
    "ybe": build_ybe,
    "tables": build_tables,
    "diagrams": build_diagrams,
}
