"""Outside-in tracing of regcat: spans and counters from wrapped module names.

Nothing under ``src/`` knows about this file.  ``Tracer.install`` replaces
module-level names (``regcat.diagrams.compose``, ``regcat.braiding._consistent``
and so on) with wrappers that open a span or bump a counter, and
``Tracer.restore`` puts the originals back.  A span records its name, start,
end, parent and the id of the CLI call it belongs to; spans stay in memory
until the run writes them out.

Hot leaf functions are not spans.  ``compose`` only adds its duration to a
total and to the open span's child time, so the caller's self time excludes
it; ``_consistent``, ``_ybe_sides``, ``is_inverse`` and the like only count.
"""

from __future__ import annotations

import json
import re
import time
from collections import Counter
from functools import wraps
from itertools import count

# the report's timing field, left out of byte counts so that they repeat exactly
ELAPSED_RE = re.compile(r'(?<="elapsed_ms": )\d+')

LAYERS = ("core", "inverses", "chains", "diagrams", "braiding", "dsl", "cli")


class Tracer:
    def __init__(self):
        self.spans = []  # [call id, span id, parent id, name, start, end, self]
        self.counts = Counter()
        self.leaf_s = Counter()  # total seconds of untracked leaf calls, per layer
        self.call_id = None
        self._stack = []  # open spans: [span id, name, start, child seconds]
        self._ids = count()
        self._patches = []

    # --- spans ----------------------------------------------------------------

    def open(self, name):
        self._stack.append([next(self._ids), name, time.perf_counter(), 0.0])

    def close(self):
        span_id, name, start, child = self._stack.pop()
        end = time.perf_counter()
        if self._stack:
            self._stack[-1][3] += end - start
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([self.call_id, span_id, parent, name, start, end, end - start - child])

    def spanned(self, fn, name, after=None):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def timed_leaf(self, fn, key, layer):
        counts, leaf_s, stack, clock = self.counts, self.leaf_s, self._stack, time.perf_counter

        @wraps(fn)
        def wrapper(*args):
            counts[key] += 1
            t = clock()
            result = fn(*args)
            dt = clock() - t
            leaf_s[layer] += dt
            if stack:
                stack[-1][3] += dt
            return result

        return wrapper

    def counted(self, fn, key, hit_key=None):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            result = fn(*args, **kwargs)
            if hit_key is not None and result is True:
                counts[hit_key] += 1
            return result

        return wrapper

    def counted_in(self, fn, key, layer):
        """Count calls made while a span of ``layer`` is the innermost one."""
        counts, stack = self.counts, self._stack

        @wraps(fn)
        def wrapper(*args):
            if stack and stack[-1][1].startswith(layer):
                counts[key] += 1
            return fn(*args)

        return wrapper

    def counted_yields(self, fn, key):
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper

    # --- patching -------------------------------------------------------------

    def patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def install(self):
        """Wrap every layer boundary and counter named in BENCHMARK.json."""
        from regcat import braiding, chains, cli, core, diagrams, dsl, inverses

        def add(key, value):
            return lambda args, result: self.counts.update({key: value(args, result)})

        compose = self.timed_leaf(core.compose, "core.compose.calls", "core")
        for module in (core, inverses, chains, diagrams, braiding):
            self.patch(module, "compose", compose)
        all_maps = self.counted_yields(core.all_maps, "core.all_maps.yielded")
        for module in (core, inverses, chains):
            self.patch(module, "all_maps", all_maps)
        self.patch(core.FinMap, "__post_init__",
                   self.counted(core.FinMap.__post_init__, "core.finmap.constructed"))
        for attr in ("__eq__", "is_identity"):
            self.patch(core.FinMap, attr,
                       self.counted_in(getattr(core.FinMap, attr), "diagrams.map_compares", "diagrams"))
        self.patch(cli, "classify_map", self.spanned(cli.classify_map, "core.classify"))

        self.patch(cli, "parse_workspace", self.spanned(
            cli.parse_workspace, "dsl.parse", add("dsl.parse.bytes", lambda a, r: len(a[0].encode()))))
        self.patch(dsl.Workspace, "build_diagram",
                   self.spanned(dsl.Workspace.build_diagram, "dsl.build_diagram"))
        self.patch(cli, "HANDLERS", {
            name: self.spanned(fn, "cli.handler") for name, fn in cli.HANDLERS.items()})
        for attr in ("to_json", "to_text"):
            self.patch(cli.Report, attr, self.spanned(
                getattr(cli.Report, attr), "cli.render",
                add("cli.render.bytes", lambda a, r: len(ELAPSED_RE.sub("0", r).encode()))))

        self.patch(inverses, "enumerate_inverses",
                   self.spanned(inverses.enumerate_inverses, "inverses.enumerate"))
        self.patch(inverses, "is_inverse",
                   self.counted(inverses.is_inverse, "inverses.candidates", "inverses.hits"))
        self.patch(inverses, "section_inner_inverse",
                   self.spanned(inverses.section_inner_inverse, "inverses.section"))
        self.patch(inverses, "invertibility_class",
                   self.spanned(inverses.invertibility_class, "inverses.invertibility"))

        self.patch(chains, "find_chains", self.spanned(
            chains.find_chains, "chains.find", add("chains.found", lambda a, r: len(r.chains))))
        self.patch(chains, "_closure_holds", self.counted(chains._closure_holds, "chains.candidates"))
        self.patch(chains, "make_chain", self.spanned(chains.make_chain, "chains.make"))
        self.patch(chains, "higher_projector", self.spanned(chains.higher_projector, "chains.projector"))

        for attr, name in (("is_commutative", "commutative"), ("is_semicommutative", "semicommutative"),
                           ("obstruction_number", "obstruction"), ("find_regular_3cycles", "cycles3")):
            self.patch(diagrams, attr, self.spanned(getattr(diagrams, attr), f"diagrams.{name}"))
        self.patch(diagrams.Diagram, "edges_from",
                   self.counted(diagrams.Diagram.edges_from, "diagrams.edges_from.calls"))
        self.patch(diagrams, "path_compose",
                   self.counted(diagrams.path_compose, "diagrams.paths_composed"))
        self.patch(diagrams, "cycles_at",
                   self.counted_yields(diagrams.cycles_at, "diagrams.cycles_walked"))

        self.patch(braiding, "solve_ybe", self.spanned(
            braiding.solve_ybe, "braiding.solve", add("braiding.solutions", lambda a, r: r.count)))
        self.patch(braiding, "_solve_branch", self.spanned(braiding._solve_branch, "braiding.branch"))
        self.patch(braiding, "enumerate_idempotents",
                   self.spanned(braiding.enumerate_idempotents, "braiding.idempotents"))
        self.patch(braiding, "_consistent", self.counted(braiding._consistent, "braiding.nodes"))
        self.patch(braiding, "_ybe_sides", self.counted(braiding._ybe_sides, "braiding.triples"))

    def install_pool_probe(self):
        """Time the parent's side of each worker pool: start-up and shutdown."""
        from regcat import braiding

        pool_factory = braiding.Pool
        counts, leaf_s, clock = self.counts, self.leaf_s, time.perf_counter

        def timed_pool(*args, **kwargs):
            t = clock()
            pool = pool_factory(*args, **kwargs)
            leaf_s["pool"] += clock() - t
            counts["braiding.pool.created"] += 1
            terminate = pool.terminate

            def timed_terminate():
                t = clock()
                terminate()
                leaf_s["pool"] += clock() - t

            pool.terminate = timed_terminate
            return pool

        self.patch(braiding, "Pool", timed_pool)

    # --- output ---------------------------------------------------------------

    def busy_s(self, name):
        return sum(s[5] - s[4] for s in self.spans if s[3] == name)

    def self_s(self, layer):
        spans = sum(s[6] for s in self.spans if s[3].split(".", 1)[0] == layer)
        return spans + self.leaf_s[layer]

    def write(self, path, run_id):
        with open(path, "a", encoding="utf-8") as out:
            for call, span, parent, name, start, end, _ in self.spans:
                out.write(json.dumps({"run": run_id, "call": call, "span": span, "parent": parent,
                                      "name": name, "start": start, "end": end}) + "\n")
