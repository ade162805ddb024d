"""Spans and counts at the library's module boundaries, from outside the library.

:class:`Tracer` replaces each public function listed in :data:`WRAPPED` by a
wrapper in every ``antipodal`` module namespace that holds it, so a function
is counted under its home module whichever module calls it (the equivariance
audit is ``structures.automorphisms`` also when ``completion`` calls it).
Spans ``(name, start, end, parent)`` stay in memory until the run ends; a
span's self time is its length minus the time its child spans cover.
Generators get one span per ``next()``, so their time is the time spent
producing items, and work done inside them nests under them.

The label read ``EdgeLabelledGraph.dist`` and the triangle predicate are
counted without spans: they run millions of times, and a span each would
cost more than the work it measures.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, function, kind).  Kinds: "call" (one span per call), "gen" (one
# span per item produced), "count" (calls counted, no span).
WRAPPED = [
    ("structures", "automorphisms", "call"),
    ("structures", "partial_automorphisms", "gen"),
    ("membership", "is_forbidden_triangle", "count"),
    ("membership", "is_member", "call"),
    ("membership", "delta_matching", "call"),
    ("membership", "fold", "call"),
    ("membership", "unfold", "call"),
    ("membership", "antipodal_closure", "call"),
    ("completion", "antipodal_complete", "call"),
    ("completion", "check_f_conditions", "call"),
    ("completion", "forbidden_cycle_oracle", "call"),
    ("valuations", "build_suitable_expansion", "call"),
    ("valuations", "is_suitable_expansion", "call"),
    ("valuations", "pad_bipartition", "call"),
    ("extension", "witness_candidates", "gen"),
    ("extension", "expand_witness", "call"),
    ("extension", "verify_eppa_witness", "call"),
    ("extension", "gamma_partial_automorphisms", "gen"),
    ("extension", "compatible_language_parts", "call"),
    ("extension", "pipeline", "call"),
    ("extension", "extend_partial_automorphism", "call"),
    ("generation", "random_member", "call"),
    ("fileformat", "read_structure_file", "call"),
    ("fileformat", "write_structure_text", "call"),
    ("cli", "run", "call"),
]


def _verify_key(args, kwargs):
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "plain")
    return "extension.verify_" + ("gamma" if mode == "gamma" else "plain")


class Tracer:
    """Installs the wrappers, records spans and counts, and removes itself."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- recording ---------------------------------------------------------
    def push(self, name_id: int) -> int:
        idx = len(self.spans)
        self.spans.append([name_id, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def pop(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _call_wrapper(self, fn, key: str):
        tracer, counts = self, self.counts
        fixed = self.name_id(key)
        is_verify = key == "extension.verify_eppa_witness"

        def wrapper(*args, **kwargs):
            name = _verify_key(args, kwargs) if is_verify else key
            counts[name + ".calls"] += 1
            idx = tracer.push(tracer.name_id(name) if is_verify else fixed)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.pop(idx)
            if is_verify:
                counts[name + ".ok"] += bool(result.ok)
                counts[name + ".checked"] += result.checked
            elif isinstance(result, list):
                counts[name + ".returned"] += len(result)
            elif isinstance(result, str):
                counts[name + ".bytes"] += len(result.encode())
            elif key == "extension.expand_witness":
                counts[name + ".found"] += result is not None
            return result

        return wrapper

    def _gen_wrapper(self, fn, key: str):
        tracer, counts = self, self.counts
        fixed = self.name_id(key)

        def wrapper(*args, **kwargs):
            counts[key + ".calls"] += 1
            inner = fn(*args, **kwargs)

            def produce():
                while True:
                    idx = tracer.push(fixed)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.pop(idx)
                    counts[key + ".yielded"] += 1
                    yield item

            return produce()

        return wrapper

    def _count_wrapper(self, fn, key: str):
        counts = self.counts
        name = key + ".calls"

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "antipodal" or name.startswith("antipodal."))]
        structures = sys.modules["antipodal.structures"]
        graph_cls = structures.EdgeLabelledGraph
        original = graph_cls.dist
        graph_cls.dist = self._count_wrapper(original, "structures.dist")
        self._undo.append((graph_cls, "dist", original))
        for module_name, func, kind in WRAPPED:
            original = getattr(sys.modules["antipodal." + module_name], func)
            key = f"{module_name}.{func}"
            make = {"call": self._call_wrapper, "gen": self._gen_wrapper,
                    "count": self._count_wrapper}[kind]
            wrapper = make(original, key)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------
    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def layer_stats(self) -> dict[str, float]:
        """Counts plus ``.s`` (inclusive) and ``.self_s`` per span name."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = dict(self.counts)
        for i, (name_id, start, end, parent) in enumerate(self.spans):
            name = self.names[name_id]
            out[name + ".s"] = out.get(name + ".s", 0.0) + (end - start)
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + (end - start - child[i])
        return out

    def dump(self, path, passes: list) -> None:
        """Write the span names and, per pass, its spans as ``[name, start, end, parent]``."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "passes": passes}, handle)
