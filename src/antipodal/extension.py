"""Partial-automorphism extension recipe, witness verification, and search.

A witness for a structure is a superstructure in which every partial
automorphism of the structure extends to a full automorphism.  Verification
here is exhaustive and desk-scale: it enumerates every partial automorphism
and hunts for the lexicographically least extension, so reports are
reproducible.  Enumeration is lazy: vertex maps and the language parts of
each map are produced one at a time in canonical order, so an audit that
stops at a counterexample builds only what it checked.  For marked
structures a partial automorphism carries a whole language permutation next
to the partial vertex map, and an extension must keep that language part
exactly.  Every vertex map here, partial or total,
enumerated or least, comes from the one backtracker
:func:`~antipodal.structures.vertex_maps`; marked structures add one
predicate, :func:`_structure_fits`, for marks and mates.

The extension recipe turns a plain partial automorphism of a perfectly
matched member into a verified marked-structure partial automorphism of its
suitable expansion: close the domain under mates, extend the index action
order-preservingly, and flip exactly the index pairs where the image's
valuations disagree with the source's.

Every label and mark assignment, the labels of witness candidates and the
marks that :func:`expand_witness` gives a witness, comes from the one
backtracking loop :func:`~antipodal.completion._backtrack`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from .completion import (OrientationSet, _backtrack, _label_side_ok, _orientation_args,
                         solve_labels)
from .errors import InputError, InternalError, SizeLimitError
from .membership import (ClassDescriptor, DeltaMatching, Variant, _doubled_edges,
                         _fresh_name, antipodal_closure, delta_matching, is_member,
                         parity_parts)
from .structures import (Automorphism, EdgeLabelledGraph, PartialMap,
                         automorphisms, partial_automorphisms, vertex_maps)
from .valuations import (FlipSet, GammaLStructure, IndexPermutation,
                         LanguagePermutation, Mark, ValuationFunction,
                         build_suitable_expansion, flip_permute, pad_bipartition)

FREE_FLIP_BOUND = 20  # free index-pair count above which enumeration refuses


@dataclass(frozen=True)
class GammaPartialAutomorphism:
    """A language permutation paired with a partial vertex map."""

    lang: LanguagePermutation
    vmap: PartialMap

    def __repr__(self):
        return f"({self.lang}, {self.vmap!r})"


@dataclass
class WitnessReport:
    """Outcome of a witness audit over every partial automorphism."""

    ok: bool
    mode: str
    checked: int
    counterexample: object = None
    extension_table: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.ok != (self.counterexample is None):
            raise InputError("report is ok exactly when there is no counterexample")


def _check_substructure(small: EdgeLabelledGraph, big: EdgeLabelledGraph):
    if small.delta != big.delta:
        raise InputError("structures use different diameter bounds")
    for v in small.vertices:
        if v not in big:
            raise InputError(f"vertex {v!r} of the substructure is missing")
    for u, v in small.pairs():
        if small.dist(u, v) != big.dist(u, v):
            raise InputError(
                f"pair ({u!r}, {v!r}) differs between structure and superstructure")


def _check_gamma_substructure(small: GammaLStructure, big: GammaLStructure):
    _check_substructure(small.base, big.base)
    for v in small.vertices:
        if small.mate(v) != big.mate(v):
            raise InputError(f"mate of {v!r} differs between structure and superstructure")
        if small.mark(v) != big.mark(v):
            raise InputError(f"mark of {v!r} differs between structure and superstructure")
    if small.mark_size is not None and big.mark_size is not None and \
            small.mark_size != big.mark_size:
        raise InputError("structures use different valuation sizes")


def _structure_fits(structure: GammaLStructure, lang: LanguagePermutation | None = None):
    """The ``fits`` predicate of :func:`vertex_maps` on a marked structure.

    ``v -> t`` fits when ``t`` is marked exactly when ``v`` is, has a mate
    exactly when ``v`` has, and the map commutes with the mate map on the
    vertices already mapped.  With ``lang`` the mark of ``v`` must go to the
    mark of ``t``.  Without it only the mark pattern is kept (two marks share
    an index exactly when the marks of their images do), and the caller pairs
    each map with its compatible language permutations.
    """
    mark = {v: structure.mark(v) for v in structure.vertices}.get
    mate = {v: structure.mate(v) for v in structure.vertices}.get
    moved: dict = {}  # v -> the image of its mark under lang

    def fits(v, t, assigned) -> bool:
        mv, mt = mark(v), mark(t)
        if (mv is None) != (mt is None):
            return False
        if lang is not None and mv is not None:
            if v not in moved:
                moved[v] = lang.act(mv)
            if moved[v] != mt:
                return False
        mate_v, mate_t = mate(v), mate(t)
        if (mate_v is None) != (mate_t is None):
            return False
        for s, ft in assigned.items():
            if (s == mate_v and ft != mate_t) or (mate(s) == v and mate(ft) != t):
                return False
            if lang is None and mv is not None:
                ms = mark(s)
                if ms is not None and (mv[0] == ms[0]) != (mt[0] == mark(ft)[0]):
                    return False
        return True

    return fits


def compatible_language_parts(structure: GammaLStructure, vmap: PartialMap,
                              lang_partition: tuple[frozenset, frozenset] | None = None
                              ) -> Iterator[LanguagePermutation]:
    """Every language permutation under which ``vmap`` transports the marks, lazily.

    Index rows touched by the domain are forced; the index action is completed
    by every permutation of the untouched indices (partition-preserving ones
    only, when an index bipartition is given), and index pairs with both ends
    untouched are free flip choices.

    Parts come in canonical order, ascending in ``(psi.images,
    flips.sorted_pairs())``, and none is built before the caller asks for it;
    an audit that stops at its first failure pays only for the parts it
    checked.  The order needs no sort:

    - ``itertools.permutations`` of the ascending pool of free targets yields
      the free positions of ``psi`` in lexicographic order, and every other
      position is the same for all of them, so ``psi.images`` ascend.
    - Within one ``psi``, :func:`_flip_sets` walks the trie of sorted pair
      lists in preorder, children in ascending order.  Preorder puts a list
      before its extensions and otherwise orders two lists by their first
      differing pair, which is the lexicographic order ``sorted()`` gives
      those keys.  A trie node is a prefix of some flip set (append the pairs
      it still owes), and every flip set is reached along its own pairs, so
      each is yielded exactly once.

    :class:`SizeLimitError` is raised when more than :data:`FREE_FLIP_BOUND`
    free pairs would be enumerated.  The free indices are the untouched ones,
    the same for every ``psi``, so it fires at the first ``psi`` that passes
    the row checks, before any part is yielded; since the parts are produced
    lazily, that is on the first ``next()``, not at the call.
    """
    m = structure.mark_size or 0
    if m == 0:
        yield LanguagePermutation.identity(0)
        return
    index_map: dict[int, int] = {}
    for s, t in vmap.pairs:
        ms, mt = structure.mark(s), structure.mark(t)
        if (ms is None) != (mt is None):
            return
        if ms is None:
            continue
        if index_map.setdefault(ms[0], mt[0]) != mt[0]:
            return
    if len(set(index_map.values())) != len(index_map):
        return
    sources = [i for i in range(1, m + 1) if i not in index_map]
    target_pool = [i for i in range(1, m + 1) if i not in set(index_map.values())]
    free_pairs = len(sources) * (len(sources) + 1) // 2
    for perm in itertools.permutations(target_pool):
        mapping = dict(index_map)
        mapping.update(zip(sources, perm))
        psi = IndexPermutation.from_mapping(m, mapping)
        if lang_partition is not None and psi.partition_action(*lang_partition) is None:
            continue
        rows: dict[int, frozenset] = {}
        good = True
        for s, t in vmap.pairs:
            ms = structure.mark(s)
            if ms is None:
                continue
            i, chi = ms
            tchi = structure.mark(t)[1]
            row = frozenset(j for j in range(1, m + 1) if tchi(psi(j)) != chi(j))
            if rows.setdefault(i, row) != row:
                good = False
                break
        if good:
            for i in rows:
                for j in rows:
                    if (j in rows[i]) != (i in rows[j]):
                        good = False
        if not good:
            continue
        if free_pairs > FREE_FLIP_BOUND:
            raise SizeLimitError(
                f"too many free flip pairs ({free_pairs}) to enumerate",
                FREE_FLIP_BOUND)
        for flips in _flip_sets(m, rows):
            yield LanguagePermutation(psi, flips)


def _flip_sets(m: int, rows: dict[int, frozenset]) -> Iterator[FlipSet]:
    """Flip sets holding the forced ``rows``, ascending in their sorted pairs.

    The universe is every ordered pair that a flip set may hold, in ascending
    order: a forced pair (an end in ``rows`` whose row holds the other end)
    or a pair of free indices (neither end in ``rows``).  A flip set is a
    subset of it that holds every forced pair and is symmetric.  The walk is
    the preorder of the trie of their sorted pair lists.  A node owes every
    forced pair after its last pair and the mirror ``(b, a)`` of every free
    ``(a, b)``, ``a < b``, it holds; it is a flip set when it owes nothing.
    Its children append a free ``(a, b)`` with ``a <= b`` before the first
    owed pair, or that owed pair itself, and no pair after it: a skipped
    owed pair could never be added again.
    """
    universe, forced = [], []
    position = {}
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            if i in rows and j in rows[i] or j in rows and i in rows[j]:
                forced.append(True)
            elif i not in rows and j not in rows:
                forced.append(False)
            else:
                continue
            position[i, j] = len(universe)
            universe.append((i, j))
    end = len(universe)
    mirror = [position[j, i] for i, j in universe]
    next_forced = [end] * (end + 1)  # the first forced position at or after q
    for q in range(end - 1, -1, -1):
        next_forced[q] = q if forced[q] else next_forced[q + 1]
    stack = [(0, (), frozenset())]  # (next position, pairs held, owed mirrors)
    while stack:
        start, held, owed_mirrors = stack.pop()
        owed = min(next_forced[start], min(owed_mirrors, default=end))
        if owed == end:
            yield FlipSet(frozenset(held))
        children = []
        for q in range(start, min(owed + 1, end)):
            if q == owed:
                children.append((q + 1, held + (universe[q],), owed_mirrors - {q}))
            elif not forced[q] and mirror[q] >= q:
                more = {mirror[q]} if mirror[q] > q else set()
                children.append((q + 1, held + (universe[q],), owed_mirrors | more))
        stack.extend(reversed(children))


def gamma_automorphisms(structure: GammaLStructure, *, max_vertices: int = 12,
                        lang_partition: tuple[frozenset, frozenset] | None = None
                        ) -> list[GammaPartialAutomorphism]:
    """All automorphisms of a marked structure, as (language, vertex map) pairs."""
    if len(structure) > max_vertices:
        raise SizeLimitError(
            f"automorphism enumeration is bounded at {max_vertices} vertices",
            max_vertices)
    out = []
    for pairs in vertex_maps(structure.base, fits=_structure_fits(structure)):
        vmap = Automorphism(pairs)
        for lang in compatible_language_parts(structure, vmap, lang_partition):
            out.append(GammaPartialAutomorphism(lang, vmap))
    return out


def gamma_partial_automorphisms(structure: GammaLStructure,
                                lang_partition: tuple[frozenset, frozenset] | None = None
                                ) -> Iterator[GammaPartialAutomorphism]:
    """Every partial automorphism of a marked structure, lazily.

    Vertex maps come from :func:`vertex_maps` with mate-closed domains, in its
    depth-first order; each is paired with its compatible language parts.
    """
    for pairs in vertex_maps(structure.base, partial=True,
                             fits=_structure_fits(structure), mate=structure.mate):
        vmap = PartialMap(pairs)
        for lang in compatible_language_parts(structure, vmap, lang_partition):
            yield GammaPartialAutomorphism(lang, vmap)


def _canonical_layout(expansion: GammaLStructure, desc: ClassDescriptor):
    """Matching of the base, verified against the expansion's mark indices."""
    matching = delta_matching(expansion.base, desc, require_perfect=True)
    for i, (x, y) in enumerate(matching.edges, start=1):
        if expansion.mark_index(x) != i or expansion.mark_index(y) != i:
            raise InputError(
                "expansion does not use the canonical matching enumeration; "
                "build it with build_suitable_expansion")
    return matching


def extend_partial_automorphism(expansion: GammaLStructure, phi,
                                desc: ClassDescriptor,
                                orientation: OrientationSet | None = None
                                ) -> GammaPartialAutomorphism:
    """Lift a plain partial automorphism to the suitable expansion.

    The domain is first closed under mates (the lift of a mate is forced).
    The index action of the closed map is extended to a full index permutation
    order-preservingly; in the bipartite case within each part, swapping the
    parts only when the map itself does.  A pair ``(i, j)`` is flipped exactly
    when the image of edge ``i``'s representative disagrees with its source on
    the reindexed bit ``j``.  The pair is audited against the marked structure
    before it is returned; an audit failure is a hard error, never a silent
    result.
    """
    _orientation_args(desc, orientation)
    graph = expansion.base
    matching = _canonical_layout(expansion, desc)
    if not isinstance(phi, PartialMap):
        phi = PartialMap.of(phi)
    for v in phi.domain | phi.image:
        if v not in graph:
            raise InputError(f"map uses unknown vertex {v!r}")
    if not phi.preserves_labels(graph):
        raise InputError("the map is not a partial automorphism (labels break)")
    closed = phi.mapping()
    for u in list(closed):
        mate = matching.mate(u)
        forced = matching.mate(closed[u])
        if closed.setdefault(mate, forced) != forced:
            raise InputError("the map tears a mated pair apart")
    closed_map = PartialMap.of(closed)
    if not closed_map.preserves_labels(graph):
        raise InternalError("internal: mate closure broke label preservation")

    m = matching.m
    index_map: dict[int, int] = {}
    for i, (x, _) in enumerate(matching.edges, start=1):
        if x in closed:
            index_map[i] = matching.index_of(closed[x])
    if len(set(index_map.values())) != len(index_map):
        raise InternalError("internal: index action of an injective map collided")
    if desc.variant is Variant.EVEN_BIPARTITE:
        d_one, d_two = matching.part_one, matching.part_two
        swap = None
        for i, ti in index_map.items():
            crosses = (i in d_one) != (ti in d_one)
            if swap is None:
                swap = crosses
            elif swap != crosses:
                raise InternalError("internal: inconsistent part action")
        swap = bool(swap)
        mapping = dict(index_map)
        for src_part, tgt_part in ((d_one, d_two if swap else d_one),
                                   (d_two, d_one if swap else d_two)):
            srcs = sorted(i for i in src_part if i not in index_map)
            tgts = sorted(t for t in tgt_part if t not in set(index_map.values()))
            if len(srcs) != len(tgts):
                raise InputError("index parts cannot be matched; pad the bipartition")
            mapping.update(zip(srcs, tgts))
    else:
        mapping = dict(index_map)
        srcs = sorted(i for i in range(1, m + 1) if i not in index_map)
        tgts = sorted(t for t in range(1, m + 1) if t not in set(index_map.values()))
        mapping.update(zip(srcs, tgts))
    psi = IndexPermutation.from_mapping(m, mapping)

    pairs = set()
    for i, (x, _) in enumerate(matching.edges, start=1):
        if x not in closed:
            continue
        chi = expansion.valuation(x)
        target_chi = expansion.valuation(closed[x])
        for j in range(1, m + 1):
            if target_chi(psi(j)) != chi(j):
                pairs.add((i, j))
                pairs.add((j, i))
    flips = FlipSet(frozenset(pairs))
    lang = LanguagePermutation(psi, flips)

    for v, fv in closed.items():
        if expansion.mark_index(fv) != psi(expansion.mark_index(v)):
            raise InternalError("internal: index transport failed the audit")
        expected = flip_permute(expansion.valuation(v),
                                flips.row(expansion.mark_index(v)), psi)
        if expansion.valuation(fv) != expected:
            raise InternalError("internal: valuation transport failed the audit")
        if closed.get(matching.mate(v)) != matching.mate(fv):
            raise InternalError("internal: mate transport failed the audit")
    return GammaPartialAutomorphism(lang, closed_map)


def verify_eppa_witness(small, big, mode: str = "plain", *,
                        max_domain: int = 6, max_witness: int = 12,
                        lang_partition: tuple[frozenset, frozenset] | None = None
                        ) -> WitnessReport:
    """Audit the extension property of ``big`` over ``small`` exhaustively.

    Plain mode checks every label-preserving partial map; marked mode checks
    every (language permutation, partial map) pair and demands an extension
    with exactly the same language part.  The first failing partial
    automorphism in canonical order becomes the counterexample; on success the
    table records the least extension of each.
    """
    if mode not in ("plain", "gamma"):
        raise InputError(f"unknown mode {mode!r}")
    if len(small) > max_domain:
        raise SizeLimitError(
            f"witness audit enumerates at most {max_domain} structure vertices",
            max_domain)
    if len(big) > max_witness:
        raise SizeLimitError(
            f"witness audit enumerates at most {max_witness} witness vertices",
            max_witness)
    table: dict = {}
    checked = 0
    if mode == "plain":
        if not isinstance(small, EdgeLabelledGraph) or not isinstance(big, EdgeLabelledGraph):
            raise InputError("plain mode works on edge-labelled graphs")
        _check_substructure(small, big)
        for pm in partial_automorphisms(small):
            checked += 1
            ext = next(vertex_maps(big, seed=pm.pairs), None)
            if ext is None:
                return WitnessReport(False, mode, checked, counterexample=pm)
            table[pm] = Automorphism(ext)
        return WitnessReport(True, mode, checked, extension_table=table)
    if not isinstance(small, GammaLStructure) or not isinstance(big, GammaLStructure):
        raise InputError("gamma mode works on marked structures")
    _check_gamma_substructure(small, big)
    for gpa in gamma_partial_automorphisms(small, lang_partition):
        checked += 1
        ext = _gamma_extension(big, gpa)
        if ext is None:
            return WitnessReport(False, mode, checked, counterexample=gpa)
        table[gpa] = GammaPartialAutomorphism(gpa.lang, Automorphism(ext))
    return WitnessReport(True, mode, checked, extension_table=table)


def _gamma_extension(big: GammaLStructure, gpa: GammaPartialAutomorphism):
    """The least vertex map of ``big`` extending ``gpa`` with its language part.

    ``None`` when there is none: the witness audit's test of one partial
    automorphism, also used to try kept counterexamples in :func:`pipeline`.
    """
    fits = _structure_fits(big, gpa.lang)
    if not all(fits(s, t, {}) for s, t in gpa.vmap.pairs):
        return None
    return next(vertex_maps(big.base, seed=gpa.vmap.pairs, fits=fits), None)


def verify_irreducible_faithful(small: EdgeLabelledGraph, big: EdgeLabelledGraph,
                                *, max_witness: int = 12) -> bool:
    """Every complete induced substructure of ``big`` maps into ``small``
    under some automorphism of ``big``."""
    _check_substructure(small, big)
    if len(big) > max_witness:
        raise SizeLimitError(
            f"faithfulness audit enumerates at most {max_witness} vertices", max_witness)
    auts = automorphisms(big, max_vertices=max_witness)
    small_set = set(small.vertices)
    verts = big.vertices
    for r in range(1, len(verts) + 1):
        for combo in itertools.combinations(verts, r):
            if not big.induced(combo).is_complete():
                continue
            if not any(all(g[c] in small_set for c in combo) for g in auts):
                return False
    return True


def witness_candidates(graph: EdgeLabelledGraph, desc: ClassDescriptor,
                       max_vertices: int) -> Iterator[EdgeLabelledGraph]:
    """Members with a perfect matching containing ``graph``, smallest first.

    Fresh vertices are interchangeable until labelled, so the matching layout
    is canonical: each unmatched input vertex mates the next fresh vertex, and
    leftover fresh vertices pair up consecutively.  Only the folded distances
    between fresh edges remain free; every leaf of :func:`solve_labels` over
    them, in canonical order, is unfolded by
    :func:`~antipodal.membership._doubled_edges` and kept when it is a
    member, which makes the stream deterministic.
    """
    if not is_member(graph, desc):
        raise InputError("witness candidates extend class members")
    delta = desc.delta
    gdesc = desc.folded()
    base_matching = delta_matching(graph)
    unmatched = [v for v in graph.vertices if v not in base_matching.covered()]
    # the input's representatives: every vertex but the later end of a long edge
    later = {y for _, y in base_matching.edges}
    inner = graph.induced(v for v in graph.vertices if v not in later)
    fixed = {(u, v): label for u, v, label in inner.edges()}
    for n in range(len(graph), max_vertices + 1):
        if n % 2 == 1:
            continue
        extra = n - len(graph)
        if extra < len(unmatched) or (extra - len(unmatched)) % 2 == 1:
            continue
        if extra == 0:
            yield graph
            continue
        taken = set(graph.vertices)
        fresh = [_fresh_name(f"w{i}", "+", taken) for i in range(1, extra + 1)]
        leftover = fresh[len(unmatched):]
        pairs = list(base_matching.edges) + list(zip(unmatched, fresh)) + \
            list(zip(leftover[::2], leftover[1::2]))
        reps = inner.vertices + tuple(leftover[::2])
        domains = {(u, v): range(1, delta) for i, u in enumerate(reps)
                   for v in reps[i + 1:] if (u, v) not in fixed}
        for labels in solve_labels(reps, fixed, domains, gdesc):
            candidate = EdgeLabelledGraph(
                graph.vertices + tuple(fresh), delta,
                _doubled_edges(pairs, ((u, v, a) for (u, v), a in labels.items()), delta))
            if is_member(candidate, desc):
                yield candidate


def search_witness(graph: EdgeLabelledGraph, desc: ClassDescriptor,
                   max_vertices: int = 8) -> EdgeLabelledGraph | None:
    """Smallest canonical member witnessing the extension property for ``graph``.

    Returns ``None`` when no member with a perfect matching on at most
    ``max_vertices`` vertices passes the audit.
    """
    if len(graph) > max_vertices:
        raise SizeLimitError(
            f"witness search is bounded at {max_vertices} vertices", max_vertices)
    for candidate in witness_candidates(graph, desc, max_vertices):
        report = verify_eppa_witness(graph, candidate, "plain",
                                     max_domain=len(graph), max_witness=max_vertices)
        if report.ok:
            return candidate
    return None


def expand_witness(big: EdgeLabelledGraph, small_expansion: GammaLStructure,
                   desc: ClassDescriptor, orientation: OrientationSet | None = None
                   ) -> GammaLStructure | None:
    """Suitable expansion of ``big`` extending the given one, if any exists.

    The small expansion must be fully marked and a marked substructure of
    ``big``: its vertices, labels and mates are those of ``big``, so both
    ends of every long edge of ``big`` lie in it or neither does.  Anything
    else raises :class:`InputError` naming the problem, as do a ``big``
    whose diameter is not the class's and one whose long edges do not match
    its vertices perfectly.  When ``big`` is not a member (in a bipartite
    class, also when it has no parity bipartition), or the small expansion
    is not suitable, the answer is ``None``; the suitability check covers
    the pairs of the small expansion only.

    Each unmarked matched edge gets a mark ``(i, chi)`` on its
    representative and ``i`` with the complement of ``chi`` on its mate.
    Its domain is built once, in matching order: indices ascending,
    valuations in ``itertools.product((0, 1), repeat=m)`` order, keeping the
    marks that agree with every small vertex and, in the bipartite case,
    whose index side the small marks tie to the representative's vertex
    part.  Indices may repeat across edges.
    :func:`~antipodal.completion._backtrack` then picks one mark per edge,
    rejecting a mark that disagrees with one already chosen, and the first
    leaf is the answer.  Two marks agree when
    :func:`~antipodal.completion._label_side_ok` puts the label of their
    vertices on the side their mutual valuations pick.

    No leaf needs the audit of :func:`suitable_expansion_violations`, since
    every leaf passes it:

    - A mate carries the complement valuation, which flips the mutual bit of
      its pairs, and in a member ``d(y, v) = delta - d(x, v)`` when ``y`` is
      the mate of ``x``, which flips the side of the label.  So a check
      between two representatives covers their mates, and mates themselves
      always agree.  Comparing representatives only covers every pair.
    - Pairs inside the small expansion hold because it is suitable and a
      substructure of ``big``; pairs with a new vertex hold by the domains,
      pairs of new vertices by the search.  The mates are the long edges of
      ``big``, and ``big`` is a member.
    - In the bipartite case the side rule puts every index of one side of
      the small expansion's index bipartition in one vertex part and every
      index of the other side in the other part (a side no small mark uses
      lies opposite the one that is used), which is the part condition.

    The work that does not depend on ``big`` is done by
    :class:`_SmallExpansion`, which :func:`pipeline` builds once per search.
    """
    small = _SmallExpansion(small_expansion, desc, orientation)
    matching = small.witness_matching(big)
    if not is_member(big, desc):
        return None
    return small.expand_member(big, matching)


class _SmallExpansion:
    """The part of :func:`expand_witness` that is the same for every witness.

    Built once per small expansion: the orientation check, its marks, their
    size and the ``2^m`` valuations of every domain; the index bipartition
    of its matching is taken at the first witness that reaches the marks.
    The checks still raise in the order :func:`expand_witness` documents:
    whether the small expansion is fully marked is decided here but raised
    after ``big``'s own checks, and the index bipartition is taken only
    after ``big`` passed them, where the small expansion is known to be a
    perfectly matched substructure of it.
    """

    def __init__(self, expansion: GammaLStructure, desc: ClassDescriptor,
                 orientation: OrientationSet | None):
        _orientation_args(desc, orientation)
        self.expansion, self.desc, self.orientation = expansion, desc, orientation
        self.base = expansion.base
        self.fully_marked = expansion.fully_marked()
        self.marks = {v: expansion.mark(v) for v in self.base.vertices}
        m = expansion.mark_size or 0
        self.indices = range(1, m + 1)
        self.valuations = [ValuationFunction(bits)
                           for bits in itertools.product((0, 1), repeat=m)]
        self.d_one = None  # indices of the matched edges in the first parity part

    def witness_matching(self, big: EdgeLabelledGraph) -> DeltaMatching:
        """``big``'s matching, after the input checks of :func:`expand_witness`."""
        small, expansion = self.base, self.expansion
        delta = self.desc.delta
        if delta != big.delta:
            raise InputError(f"descriptor diameter {delta} != graph delta {big.delta}")
        # without ``desc`` no index bipartition is built, which would need the
        # parity parts of ``big`` before its membership is known
        matching = delta_matching(big, require_perfect=True)
        if not self.fully_marked:
            raise InputError("the small expansion must be fully marked")
        for x, y in matching.edges:
            if (x in small) != (y in small):
                inside, outside = (x, y) if x in small else (y, x)
                raise InputError(f"long edge ({x!r}, {y!r}) pairs {inside!r} of the small "
                                 f"expansion with {outside!r}, which is outside it")
            if x in small and (expansion.mate(x), expansion.mate(y)) != (y, x):
                raise InputError(f"mates of ({x!r}, {y!r}) differ between the small "
                                 "expansion and the witness")
        _check_substructure(small, big)
        return matching

    def expand_member(self, big: EdgeLabelledGraph, matching: DeltaMatching
                      ) -> GammaLStructure | None:
        """The marks search of :func:`expand_witness` on a checked member ``big``.

        ``matching`` is :meth:`witness_matching` of ``big``.  Membership is
        not checked again: :func:`expand_witness` checks it, and every
        candidate of :func:`witness_candidates` is a member.
        """
        desc, orientation, small, marks = self.desc, self.orientation, self.base, self.marks
        rows = big._rows

        def clashes(x: int, mark: Mark, others) -> bool:
            """Whether ``mark`` on vertex position ``x`` disagrees with a placed mark."""
            i, chi = mark
            row = rows[x]
            return any(not _label_side_ok(row[v], chi.bits[j - 1] ^ psi.bits[i - 1],
                                          desc, orientation)
                       for v, (j, psi) in others)

        if self.d_one is None:
            self.d_one = delta_matching(small, desc, require_perfect=True).part_one or \
                frozenset()
        d_one = self.d_one
        # Outside the bipartite case part1 and d_one are empty, so every index is
        # on the side outside d_one, tied to the part outside part1: allowed for all.
        part1 = parity_parts(big)[0] if desc.variant is Variant.EVEN_BIPARTITE else frozenset()
        place: dict[bool, bool] = {}  # index side (in d_one) -> its vertices lie in part1
        placed = []  # (vertex position, mark) of each small representative
        for x, y in matching.edges:
            if x in small:
                i, chi = marks[x]
                if marks[y] != (i, chi.complement()) or \
                        place.setdefault(i in d_one, x in part1) != (x in part1):
                    return None
                placed.append((big.index(x), (i, chi)))
        for side in (True, False):  # a side no small mark uses lies opposite the other
            place.setdefault(side, not place.get(not side))
        if place[True] == place[False] or \
                any(clashes(x, mark, placed[:k]) for k, (x, mark) in enumerate(placed)):
            return None
        allowed = {in_one: [i for i in self.indices if place[i in d_one] == in_one]
                   for in_one in (True, False)}
        todo = [(x, y) for x, y in matching.edges if x not in small]
        positions = [big.index(x) for x, _ in todo]
        domains = {pos: [(i, chi) for i in allowed[x in part1] for chi in self.valuations
                         if not clashes(positions[pos], (i, chi), placed)]
                   for pos, (x, _) in enumerate(todo)}
        chosen = [None] * len(todo)  # (vertex position, mark) per decided edge

        def rejects(pos, mark) -> bool:
            return clashes(positions[pos], mark, chosen[:pos])

        def record(pos, mark):
            chosen[pos] = (positions[pos], mark)

        leaf = next(_backtrack(domains, rejects, record), None)
        if leaf is None:
            return None
        out = dict(marks)
        for (x, y), (i, chi) in zip(todo, leaf):
            out[x], out[y] = (i, chi), (i, chi.complement())
        return GammaLStructure(big, [e for x, y in matching.edges for e in ((x, y), (y, x))],
                               out)


@dataclass
class PipelineResult:
    """End-to-end outcome: closed input, expansion, witness, and both audits."""

    ok: bool
    stage: str
    detail: str
    base: EdgeLabelledGraph
    expansion: GammaLStructure = None
    witness: EdgeLabelledGraph = None
    witness_expansion: GammaLStructure = None
    gamma_report: WitnessReport = None
    plain_report: WitnessReport = None


def pipeline(graph: EdgeLabelledGraph, desc: ClassDescriptor,
             witness_source="search", *, max_vertices: int = 8,
             orientation: OrientationSet | None = None) -> PipelineResult:
    """Close, pad, expand, find or take a witness, and audit everything.

    ``witness_source`` is ``"search"`` or a user-supplied marked witness.  On
    success the returned witness is a member containing the closed input, its
    marked version passes the language-level audit, and the reduct passes the
    plain audit.  A search refuses a member input of more than
    ``max_vertices`` vertices with :class:`SizeLimitError`, as
    :func:`search_witness` does; the closure's own checks of the input come
    first.

    A search tries the candidates of :func:`witness_candidates` in order and
    returns the first whose expansion (:func:`expand_witness`) passes both
    audits.  The small expansion's part of the expansion is prepared once
    (:class:`_SmallExpansion`), and membership is not checked again, since
    every candidate is a member.  The counterexample of each rejecting
    Gamma_L audit is kept, and a later candidate on which a kept one has no
    extension (:func:`_gamma_extension`, the audit's own test) is rejected
    without its audit.  A candidate that no kept one refutes gets both full
    audits, so the answer and its reports are the ones the full audits of
    every candidate give.  That is sound:

    - The input expansion and ``lang_partition`` are fixed for the whole
      call.  So a kept counterexample is a Gamma_L partial automorphism of
      the same small structure that the audit of every candidate
      enumerates, and the full audit of a candidate it refutes would fail
      too, at it or earlier.
    - Every exception the full audit can raise depends only on the small
      expansion and the bounds: ``max_domain``, ``max_witness``, and
      :data:`FREE_FLIP_BOUND` on the empty map, which is checked first.  So
      such an exception is raised at the first audited candidate, before
      any counterexample is kept.
    - The kept counterexamples live in a list local to the call; no state
      outlives it.
    """
    if desc.variant is Variant.EVEN_BIPARTITE and orientation is None:
        orientation = OrientationSet.default(desc.delta)
    closed, matching = antipodal_closure(graph, desc)
    if witness_source == "search" and len(graph) > max_vertices:
        raise SizeLimitError(
            f"witness search is bounded at {max_vertices} vertices", max_vertices)
    if desc.variant is Variant.EVEN_BIPARTITE:
        closed = pad_bipartition(closed, desc)
        matching = delta_matching(closed, desc, require_perfect=True)
    expansion = build_suitable_expansion(closed, desc, orientation)
    lang_partition = None
    if desc.variant is Variant.EVEN_BIPARTITE and matching.part_one is not None:
        lang_partition = (matching.part_one, matching.part_two)

    if isinstance(witness_source, GammaLStructure):
        supplied = witness_source
        try:
            _check_gamma_substructure(expansion, supplied)
        except InputError as exc:
            return PipelineResult(False, "witness-validation", str(exc), closed,
                                  expansion)
        reduct = supplied.base
        if not is_member(reduct, desc):
            return PipelineResult(False, "witness-validation",
                                  "supplied witness is not a class member",
                                  closed, expansion)
        gamma_report = verify_eppa_witness(
            expansion, supplied, "gamma", max_domain=len(closed),
            max_witness=len(reduct), lang_partition=lang_partition)
        if not gamma_report.ok:
            return PipelineResult(
                False, "gamma-witness",
                f"partial automorphism without extension: {gamma_report.counterexample!r}",
                closed, expansion, reduct, supplied, gamma_report)
        plain_report = verify_eppa_witness(
            closed, reduct, "plain", max_domain=len(closed), max_witness=len(reduct))
        if not plain_report.ok:
            return PipelineResult(
                False, "plain-witness",
                f"reduct fails on: {plain_report.counterexample!r}",
                closed, expansion, reduct, supplied, gamma_report, plain_report)
        return PipelineResult(True, "done", "witness verified", closed, expansion,
                              reduct, supplied, gamma_report, plain_report)

    if witness_source != "search":
        raise InputError("witness source must be 'search' or a marked structure")
    small = _SmallExpansion(expansion, desc, orientation)
    refuters: list[GammaPartialAutomorphism] = []  # counterexamples of rejected candidates
    for candidate in witness_candidates(closed, desc, max_vertices):
        cand_expansion = small.expand_member(candidate, small.witness_matching(candidate))
        if cand_expansion is None or \
                any(_gamma_extension(cand_expansion, gpa) is None for gpa in refuters):
            continue
        gamma_report = verify_eppa_witness(
            expansion, cand_expansion, "gamma", max_domain=len(closed),
            max_witness=max_vertices, lang_partition=lang_partition)
        if not gamma_report.ok:
            refuters.append(gamma_report.counterexample)
            continue
        plain_report = verify_eppa_witness(
            closed, candidate, "plain", max_domain=len(closed),
            max_witness=max_vertices)
        if not plain_report.ok:
            continue
        return PipelineResult(True, "done", "witness found and verified", closed,
                              expansion, candidate, cand_expansion,
                              gamma_report, plain_report)
    return PipelineResult(
        False, "witness-search",
        f"no witness with at most {max_vertices} vertices", closed, expansion)
