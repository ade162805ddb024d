"""Shared fixtures and independent brute-force oracles.

The oracles here deliberately avoid the library's own enumeration strategies:
automorphisms come from filtering all vertex bijections, partial automorphisms
from filtering all injective partial maps, and members from filtering raw
label assignments.  Tests compare library output against these.
"""

from __future__ import annotations

import itertools
import random

import pytest

from antipodal import (Automorphism, ClassDescriptor, EdgeLabelledGraph,
                       FlipSet, GammaLStructure, GammaPartialAutomorphism,
                       IndexPermutation, LanguagePermutation, OrientationSet,
                       PartialMap, PipelineResult, ValuationFunction, Variant,
                       WitnessReport, antipodal_closure, build_suitable_expansion,
                       delta_matching, expand_witness, gamma_automorphisms,
                       gamma_partial_automorphisms, is_forbidden_triangle,
                       pad_bipartition, suitable_expansion_violations,
                       verify_eppa_witness, witness_candidates)


def graph(vertices, delta, edges=()):
    return EdgeLabelledGraph(vertices, delta, edges)


@pytest.fixture
def edge3():
    """A single pair at distance 3."""
    return graph("uv", 3, [("u", "v", 3)])


@pytest.fixture
def quadruple():
    """The four-point member of the diameter-3 antipodal family."""
    return graph("uvwx", 3, [("u", "v", 3), ("w", "x", 3),
                             ("u", "w", 1), ("v", "x", 1),
                             ("u", "x", 2), ("v", "w", 2)])


@pytest.fixture
def desc31():
    return ClassDescriptor(3, 1)


def brute_automorphisms(g: EdgeLabelledGraph) -> list[Automorphism]:
    """Oracle: filter all vertex bijections for label-pattern preservation."""
    out = []
    verts = g.vertices
    for images in itertools.permutations(verts):
        m = dict(zip(verts, images))
        if all(g.dist(u, v) == g.dist(m[u], m[v])
               for u, v in itertools.combinations(verts, 2)):
            out.append(Automorphism(frozenset(m.items())))
    return out


def brute_partial_automorphisms(g: EdgeLabelledGraph) -> set[PartialMap]:
    """Oracle: filter all injective partial maps for label-pattern preservation."""
    verts = g.vertices
    out = set()
    for k in range(len(verts) + 1):
        for dom in itertools.combinations(verts, k):
            for img in itertools.permutations(verts, k):
                m = dict(zip(dom, img))
                if all(g.dist(a, b) == g.dist(m[a], m[b])
                       for a, b in itertools.combinations(dom, 2)):
                    out.add(PartialMap(frozenset(m.items())))
    return out


def brute_gamma_vertex_maps(structure) -> set[PartialMap]:
    """Oracle: injective partial maps of a marked structure, filtered.

    A map is kept when it preserves labels, its domain is closed under the
    mate map, it commutes with the mate map, and it keeps the mark pattern:
    marked vertices go to marked vertices, and two marks share an index
    exactly when the marks of their images do.
    """
    mate, mark = structure.mate, structure.mark
    out = set()
    for pm in brute_partial_automorphisms(structure.base):
        m = pm.mapping()
        if any(mate(v) is not None and mate(v) not in m for v in m):
            continue
        if any((mate(v) is None) != (mate(t) is None) or
               (mate(v) is not None and m[mate(v)] != mate(t)) for v, t in m.items()):
            continue
        if any((mark(v) is None) != (mark(t) is None) for v, t in m.items()):
            continue
        marked = [v for v in m if mark(v) is not None]
        if any((mark(a)[0] == mark(b)[0]) != (mark(m[a])[0] == mark(m[b])[0])
               for a, b in itertools.combinations(marked, 2)):
            continue
        out.add(pm)
    return out


def brute_language_parts(structure, vmap: PartialMap, lang_partition=None
                         ) -> list[LanguagePermutation]:
    """Oracle: filter all language permutations by their action on the marks.

    Every index permutation is paired with every symmetric flip set; a pair
    is kept when it carries the mark of each ``s`` onto the mark of
    ``vmap[s]`` (and respects ``lang_partition`` when one is given).  The
    result is sorted by ``(psi.images, flips.sorted_pairs())``.
    """
    m = structure.mark_size or 0
    mark = structure.mark
    if any((mark(s) is None) != (mark(t) is None) for s, t in vmap.pairs):
        return []
    marked = [(mark(s), mark(t)) for s, t in vmap.pairs if mark(s) is not None]
    unordered = [(i, j) for i in range(1, m + 1) for j in range(i, m + 1)]
    flip_sets = [FlipSet.symmetric(chosen) for k in range(len(unordered) + 1)
                 for chosen in itertools.combinations(unordered, k)]
    out = []
    for images in itertools.permutations(range(1, m + 1)):
        psi = IndexPermutation(images)
        if lang_partition is not None and psi.partition_action(*lang_partition) is None:
            continue
        for flips in flip_sets:
            g = LanguagePermutation(psi, flips)
            if all(g.act(ms) == mt for ms, mt in marked):
                out.append(g)
    return sorted(out, key=lambda g: (g.psi.images, g.flips.sorted_pairs()))


def all_complete_graphs(vertices, delta):
    """Every complete labelling of the given vertices."""
    verts = tuple(vertices)
    pairs = list(itertools.combinations(verts, 2))
    for labels in itertools.product(range(1, delta + 1), repeat=len(pairs)):
        yield EdgeLabelledGraph(
            verts, delta, [(u, v, l) for (u, v), l in zip(pairs, labels)])


def brute_is_member(g: EdgeLabelledGraph, desc) -> bool:
    """Oracle membership: scan all triples with the triangle predicate."""
    for a, b, c in itertools.combinations(g.vertices, 3):
        if is_forbidden_triangle(g.dist(a, b), g.dist(a, c), g.dist(b, c), desc):
            return False
    return True


def brute_first_forbidden_triple(g: EdgeLabelledGraph, desc):
    """Oracle: the first forbidden triple by the plain ``i < j < k`` loop.

    Reads every label with ``dist`` and calls the triangle predicate on every
    triple in canonical order, so it raises wherever the predicate does.
    """
    vs = g.vertices
    n = len(vs)
    for i in range(n):
        for j in range(i + 1, n):
            dij = g.dist(vs[i], vs[j])
            for k in range(j + 1, n):
                if is_forbidden_triangle(dij, g.dist(vs[i], vs[k]),
                                         g.dist(vs[j], vs[k]), desc):
                    return vs[i], vs[j], vs[k]
    return None


def perfect_matchings(items):
    """All pairings of an even-sized sequence."""
    items = list(items)
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        rest = items[1:i] + items[i + 1:]
        for sub in perfect_matchings(rest):
            yield [(first, items[i])] + sub


def matched_members(vertices, desc: ClassDescriptor):
    """All members on the given vertices whose long edges match perfectly.

    Built from the antipodal correspondence: a matching plus the distances
    between canonical representatives determine the whole space.  Everything
    constructed is filtered through the brute-force membership oracle, so this
    is an independent enumeration.
    """
    verts = tuple(vertices)
    delta = desc.delta
    if len(verts) % 2:
        return
    for matching in perfect_matchings(verts):
        m = len(matching)
        cross = list(itertools.combinations(range(m), 2))
        for bs in itertools.product(range(1, delta), repeat=len(cross)):
            edges = [(x, y, delta) for x, y in matching]
            for (i, j), b in zip(cross, bs):
                xi, yi = matching[i]
                xj, yj = matching[j]
                edges += [(xi, xj, b), (yi, yj, b),
                          (xi, yj, delta - b), (yi, xj, delta - b)]
            g = EdgeLabelledGraph(verts, delta, edges)
            if brute_is_member(g, desc):
                yield g


def brute_completions(g: EdgeLabelledGraph, desc, limit=None):
    """All complete members extending ``g``, by depth-first label assignment.

    Independent of the folded completion path: it works directly on raw pairs
    with triangle pruning only.
    """
    holes = g.undefined_pairs()
    out = []

    def ok(filled, u, v, label):
        for w in g.vertices:
            if w in (u, v):
                continue
            a = filled.get(frozenset((u, w)))
            b = filled.get(frozenset((v, w)))
            if a is not None and b is not None and is_forbidden_triangle(label, a, b, desc):
                return False
        return True

    filled = {frozenset((u, v)): l for u, v, l in g.edges()}

    def rec(pos):
        if limit is not None and len(out) > limit:
            return
        if pos == len(holes):
            out.append(dict(filled))
            return
        u, v = holes[pos]
        for label in range(1, desc.delta + 1):
            if ok(filled, u, v, label):
                filled[frozenset((u, v))] = label
                rec(pos + 1)
                del filled[frozenset((u, v))]

    rec(0)
    return out


def random_connected_partial(rng: random.Random, n: int, max_label: int,
                             extra_prob: float = 0.35) -> EdgeLabelledGraph:
    """Random connected partial graph: a random spanning tree plus extras."""
    verts = tuple(f"v{i}" for i in range(n))
    edges = {}
    order = list(range(1, n))
    rng.shuffle(order)
    connected = [0]
    for i in order:
        j = rng.choice(connected)
        edges[frozenset((verts[i], verts[j]))] = rng.randint(1, max_label)
        connected.append(i)
    for a, b in itertools.combinations(range(n), 2):
        key = frozenset((verts[a], verts[b]))
        if key not in edges and rng.random() < extra_prob:
            edges[key] = rng.randint(1, max_label)
    return EdgeLabelledGraph(
        verts, max_label, [(min(k, key=str), max(k, key=str), l)
                           for k, l in sorted(edges.items(), key=lambda e: sorted(map(str, e[0])))])


def brute_simple_cycles(g: EdgeLabelledGraph, bound: int) -> list[tuple[tuple, tuple]]:
    """Oracle: every simple cycle of 3..``bound`` labelled pairs, once each.

    All vertex sequences are tried and a cycle is kept in the one writing
    that starts at its least vertex (canonical order) and goes on to the
    lesser of that vertex's two cycle neighbours.  The ``(labels, vertices)``
    pairs are listed in lexicographic order of the vertex positions.
    """
    verts = g.vertices
    found = []
    for k in range(3, bound + 1):
        for seq in itertools.permutations(range(len(verts)), k):
            if seq[0] != min(seq) or seq[1] > seq[-1]:
                continue
            labels = tuple(g.dist(verts[seq[i]], verts[seq[(i + 1) % k]]) for i in range(k))
            if None not in labels:
                found.append((seq, labels))
    return [(labels, tuple(verts[i] for i in seq)) for seq, labels in sorted(found)]


def mated_extensions(g: EdgeLabelledGraph, count: int):
    """Every complete graph adding ``count`` fresh mated pairs to ``g``, members or not.

    ``g`` is complete and its ``delta``-labelled pairs match its vertices
    perfectly.  Fresh pair ``k`` is ``(rk, sk)`` at distance ``delta``.  Each
    ``rk`` takes every label in ``1..delta-1`` to the first vertex of every
    earlier pair (in ``g``'s edge order, then the fresh pairs), and the other
    three labels of the two pairs follow antipodally: ``d(s, y) = d(r, x)``
    and ``d(r, y) = d(s, x) = delta - d(r, x)`` for fresh ``(r, s)`` and
    earlier ``(x, y)``.  No membership filter is applied.
    """
    delta = g.delta
    pairs = [(u, v) for u, v, label in g.edges() if label == delta]
    fresh = [(f"r{k}", f"s{k}") for k in range(1, count + 1)]
    mate = {}
    for u, v in pairs + fresh:
        mate[u], mate[v] = v, u
    slots = [(r, x) for k, (r, _) in enumerate(fresh) for x, _ in pairs + fresh[:k]]
    vertices = g.vertices + tuple(v for pair in fresh for v in pair)
    for labels in itertools.product(range(1, delta), repeat=len(slots)):
        edges = list(g.edges()) + [(r, s, delta) for r, s in fresh]
        for (r, x), b in zip(slots, labels):
            edges += [(r, x, b), (mate[r], mate[x], b),
                      (r, mate[x], delta - b), (mate[r], x, delta - b)]
        yield EdgeLabelledGraph(vertices, delta, edges)


def brute_expand_witness(big: EdgeLabelledGraph, small_expansion, desc,
                         orientation=None):
    """Oracle: the first full mark assignment that passes the suitability audit.

    Each matched edge of ``big`` whose first vertex the small expansion
    lacks takes every mark ``(i, chi)``, indices ascending and valuations in
    ``itertools.product((0, 1), repeat=m)`` order, its second vertex the
    complement.  The assignments are tried in ``itertools.product`` order
    over the edges in matching order, and the first whose expansion passes
    ``suitable_expansion_violations`` (with the small expansion's index
    bipartition in the bipartite case) is returned; ``None`` when none does.
    The audit fails every assignment on a ``big`` that is not a member, so
    then the answer is ``None`` without trying them.
    """
    matching = delta_matching(big, require_perfect=True)
    if not brute_is_member(big, desc):
        return None
    m = small_expansion.mark_size or 0
    marks = {v: small_expansion.mark(v) for v in small_expansion.vertices}
    todo = [(x, y) for x, y in matching.edges if x not in marks]
    choices = [(i, ValuationFunction(bits)) for i in range(1, m + 1)
               for bits in itertools.product((0, 1), repeat=m)]
    lang_partition = None
    if desc.variant is Variant.EVEN_BIPARTITE:
        small_matching = delta_matching(small_expansion.base, desc, require_perfect=True)
        d_one = small_matching.part_one or frozenset()
        lang_partition = (d_one, frozenset(range(1, m + 1)) - d_one)
    mates = [e for x, y in matching.edges for e in ((x, y), (y, x))]
    for assignment in itertools.product(choices, repeat=len(todo)):
        full = dict(marks)
        for (x, y), (i, chi) in zip(todo, assignment):
            full[x], full[y] = (i, chi), (i, chi.complement())
        expansion = GammaLStructure(big, mates, full)
        if not suitable_expansion_violations(expansion, big, desc, orientation,
                                             lang_partition):
            return expansion
    return None


def brute_labellings(verts, fixed: dict, domains: dict, gdesc) -> list[dict]:
    """Oracle: every labelling of the open pairs, filtered, in product order.

    Every choice of one candidate per open pair, in ``itertools.product``
    order over ``domains``, is kept when no triangle whose three labels are
    all fixed or chosen is forbidden by the predicate.
    """
    triangles = [(frozenset((a, b)), frozenset((a, c)), frozenset((b, c)))
                 for a, b, c in itertools.combinations(verts, 3)]
    out = []
    for labels in itertools.product(*domains.values()):
        chosen = {**fixed, **dict(zip(domains, labels))}
        known = {frozenset(pair): label for pair, label in chosen.items()}
        if not any(all(side in known for side in sides) and
                   is_forbidden_triangle(*(known[side] for side in sides), gdesc)
                   for sides in triangles):
            out.append(chosen)
    return out


def brute_gamma_audit(small, big, lang_partition=None) -> WitnessReport:
    """Oracle: the Gamma_L witness audit by filtering the automorphisms of ``big``.

    Every automorphism of ``big`` with its language part is listed once
    (``gamma_automorphisms``).  Each partial automorphism of ``small``, in
    ``gamma_partial_automorphisms`` order, extends when a listed one has the
    same language part and contains its vertex map; the least such, by the
    positions of the images in vertex order, goes in the table.  The first
    one that does not extend is the counterexample.
    """
    vertices = big.vertices
    auts = sorted(gamma_automorphisms(big, max_vertices=len(big)),
                  key=lambda g: [big.index(g.vmap[v]) for v in vertices])
    table, checked = {}, 0
    for gpa in gamma_partial_automorphisms(small, lang_partition):
        checked += 1
        ext = next((g for g in auts
                    if g.lang == gpa.lang and g.vmap.extends(gpa.vmap)), None)
        if ext is None:
            return WitnessReport(False, "gamma", checked, counterexample=gpa)
        table[gpa] = GammaPartialAutomorphism(gpa.lang, ext.vmap)
    return WitnessReport(True, "gamma", checked, extension_table=table)


def brute_pipeline_search(graph: EdgeLabelledGraph, desc, max_vertices: int):
    """Oracle: ``pipeline(graph, desc, "search", max_vertices=...)`` with no reuse.

    The input is closed, padded and expanded as ``pipeline`` does.  Every
    candidate of ``witness_candidates`` is expanded by the public
    ``expand_witness`` and audited in full, by :func:`brute_gamma_audit`
    and the plain ``verify_eppa_witness``; the first that passes both is
    the witness.
    """
    orientation = lang_partition = None
    closed, _ = antipodal_closure(graph, desc)
    if desc.variant is Variant.EVEN_BIPARTITE:
        orientation = OrientationSet.default(desc.delta)
        closed = pad_bipartition(closed, desc)
        matching = delta_matching(closed, desc, require_perfect=True)
        lang_partition = (matching.part_one, matching.part_two)
    expansion = build_suitable_expansion(closed, desc, orientation)
    for candidate in witness_candidates(closed, desc, max_vertices):
        cand_expansion = expand_witness(candidate, expansion, desc, orientation)
        if cand_expansion is None:
            continue
        gamma_report = brute_gamma_audit(expansion, cand_expansion, lang_partition)
        if not gamma_report.ok:
            continue
        plain_report = verify_eppa_witness(closed, candidate, "plain",
                                           max_domain=len(closed), max_witness=max_vertices)
        if plain_report.ok:
            return PipelineResult(True, "done", "witness found and verified", closed,
                                  expansion, candidate, cand_expansion,
                                  gamma_report, plain_report)
    return PipelineResult(False, "witness-search",
                          f"no witness with at most {max_vertices} vertices",
                          closed, expansion)
