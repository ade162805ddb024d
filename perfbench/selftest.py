"""Self-tests of the checkers: a right output passes, a corrupted one fails.

Run from the repository root (exit code 0 when every checker behaves):

    python3 perfbench/selftest.py

``run.py`` runs the same tests before it times anything, so a run whose
checkers could not catch a wrong output never reports a result.
"""

from __future__ import annotations

import os
import random
import sys
import types

import checkers
import inputs
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def _lib():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import antipodal.completion
    import antipodal.extension
    import antipodal.membership
    import antipodal.structures
    import antipodal.valuations
    return types.SimpleNamespace(
        completion=antipodal.completion, extension=antipodal.extension,
        membership=antipodal.membership, structures=antipodal.structures,
        valuations=antipodal.valuations)


def _copy(s):
    out = checkers.Parsed()
    out.delta, out.vertices = s.delta, list(s.vertices)
    out.labels, out.mates = dict(s.labels), dict(s.mates)
    out.marks = dict(s.marks)
    return out


def _plant_triangle(s, u, v, w):
    """Copy of ``s`` in which ``(u, v, w)`` carries the labels ``(1, 1, delta)``."""
    bad = inputs.Structure(s.delta, s.vertices, s.labels)
    bad.labels[frozenset((u, v))] = 1
    bad.labels[frozenset((v, w))] = 1
    bad.labels[frozenset((u, w))] = s.delta
    return bad


def cases():
    """Pairs ``(name, problem)``: ``problem`` is ``None`` when the checker behaved."""
    lib = _lib()
    rng = random.Random("selftest")
    d, K = 3, 1
    s, pairs = inputs.member(rng, d, K, 8)
    (x0, y0), (x1, y1), (x2, _), _ = pairs
    bad = _plant_triangle(s, x0, x1, x2)

    def expect(name, good, corrupted):
        if good is not None:
            return name, f"rejects a right output: {good}"
        if corrupted is None:
            return name, "accepts a corrupted output"
        return name, None

    yield expect("membership", checkers.member_problem(s, d, K),
                 checkers.member_problem(bad, d, K))
    yield expect("validate", checkers.check_validate("member", s, d, K),
                 checkers.check_validate("member", bad, d, K))

    renamed = {v: v if v in dict(pairs) else v + "'" for v in s.vertices}
    result = checkers.Parsed()
    result.vertices = list(renamed.values())
    result.labels = {frozenset(renamed[v] for v in p): l for p, l in s.labels.items()}
    broken = _copy(result)
    broken.labels[frozenset((x0, x1))] = 3 - s.dist(x0, x1)
    yield expect("fold/unfold round trip", checkers.check_roundtrip(s, pairs, result, d),
                 checkers.check_roundtrip(s, pairs, broken, d))

    desc = lib.membership.ClassDescriptor(d, K)
    graph = lib.structures.EdgeLabelledGraph(s.vertices, d, list(s.edges()))
    expansion = lib.valuations.build_suitable_expansion(graph, desc)
    e = checkers.from_graph(expansion)
    flipped = _copy(e)
    i, chi = flipped.marks[x1]
    flipped.marks[x1] = (i, (1 - chi[0],) + chi[1:])
    yield expect("expansion", checkers.check_expansion(e, s, d, K),
                 checkers.check_expansion(flipped, s, d, K))

    phi = {x0: y0, x1: y1}
    got = lib.extension.extend_partial_automorphism(expansion, phi, desc)
    closure = dict(got.vmap.pairs)
    psi = {j: got.lang.psi(j) for j in range(1, len(pairs) + 1)}
    flips = set(got.lang.flips.pairs)
    i0 = e.marks[x0][0]
    j0 = 1 if i0 != 1 else 2
    toggled = flips ^ {(i0, j0), (j0, i0)}
    yield expect("extend", checkers.check_extend(closure, psi, flips, phi, e),
                 checkers.check_extend(closure, psi, toggled, phi, e))

    partial = inputs.drop_folded_pairs(rng, s, pairs, 0.5)
    f = {}
    for u, v, _ in s.edges():
        (iu, cu), (iv, cv) = e.marks[u], e.marks[v]
        f[frozenset((u, v))] = int(cu[iv - 1] != cv[iu - 1])
    completed = checkers.Parsed()
    completed.vertices, completed.labels = list(s.vertices), dict(s.labels)
    dropped = next(p for p in s.labels if p not in partial.labels)
    off_side = _copy(completed)
    off_side.labels[dropped] = d - s.labels[dropped]
    yield expect("completion", checkers.check_completion(partial, f, completed, d, K),
                 checkers.check_completion(partial, f, off_side, d, K))

    yield expect("gen", checkers.check_generated(s, 8, d, K),
                 checkers.check_generated(bad, 8, d, K))

    quad, _ = inputs.member(rng, d, K, 4)
    quad_graph = lib.structures.EdgeLabelledGraph(quad.vertices, d, list(quad.edges()))
    r = lib.extension.pipeline(quad_graph, desc, "search", max_vertices=8)
    closed, small = checkers.from_graph(r.base), checkers.from_graph(r.expansion)
    witness, witness_exp = checkers.from_graph(r.witness), checkers.from_graph(r.witness_expansion)
    fresh = [v for v in witness.vertices if v not in closed.vertices]
    changed, changed_exp = _copy(witness), _copy(witness_exp)
    pair = frozenset((fresh[0], fresh[2]))
    changed.labels[pair] = changed_exp.labels[pair] = 3 - witness.labels[pair] if \
        witness.labels[pair] < 3 else 1
    yield expect("witness", checkers.check_witness(closed, witness, witness_exp, small, d, K),
                 checkers.check_witness(closed, changed, changed_exp, small, d, K))

    found = next(op for op in workloads.search_ops(lib, "search-deep", 0)
                 if op.kind == "search_found")
    none = types.SimpleNamespace(ok=False, witness=None, witness_expansion=None,
                                 base=r.base, expansion=r.expansion)
    yield expect("verdict table", None, found.check(none))


def first_failure() -> str | None:
    for name, problem in cases():
        if problem:
            return f"{name}: {problem}"
    return None


def main() -> int:
    failures = 0
    for name, problem in cases():
        print(f"{name}: {problem or 'ok'}")
        failures += problem is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
