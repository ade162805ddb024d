"""Completion procedures: shortest-path, cycle oracles, and antipodal completion.

Three layers live here.  :func:`shortest_path_completion` fills a partial
integer metric space canonically, so every symmetry of the input survives into
the completion (the completion may gain symmetries: an asymmetric definedness
pattern can complete to a symmetric space).  :func:`forbidden_cycle_oracle` decides by exhaustive search whether a
labelled cycle can be completed inside a five-parameter family, which powers
:func:`local_finiteness_bound`.  :func:`antipodal_complete` fills a partial
antipodal graph whose long edges form a perfect matching, steering the parity
of every new distance with a two-valued pair function and auditing afterwards
that the completion is a member, matches the parities, and keeps every
parity-preserving symmetry of the input.  It enumerates the cycles of the
folded image only when its search finds no completion, to name the forbidden
cycle that stands in the way.

Every label and mark assignment in the package comes from the one
backtracking loop :func:`_backtrack`: labels through :func:`solve_labels`,
which the cycle oracle, the completion and the witness candidates call, and
the marks of a witness through :func:`~antipodal.extension.expand_witness`.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

from .errors import (CompletionError, CompletionNotEquivariant, InputError,
                     InternalError, NonMetricCycleError, PreconditionError,
                     SizeLimitError)
from .membership import (ClassDescriptor, GeneralClassDescriptor, Variant,
                         _doubled_edges, _suspect_pairs, delta_matching, fold, is_member)
from .structures import (Automorphism, EdgeLabelledGraph, Vertex, is_completion_of,
                         vertex_maps)

CYCLE_BOUND = 8  # longest folded cycle the completion's forbidden-cycle walk checks


class ParityFunction:
    """Total two-valued function on unordered vertex pairs.

    On labelled pairs it must agree with the label's parity class; across two
    disjoint long edges its values must be coherent (equal on parallel pairs,
    opposite on crossing pairs).  :func:`check_f_conditions` verifies both.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        store: dict[frozenset, int] = {}
        items = values.items() if hasattr(values, "items") else values
        for entry in items:
            if hasattr(values, "items"):
                (u, v), bit = entry
            else:
                u, v, bit = entry
            if u == v:
                raise InputError("parity function is defined on distinct pairs only")
            if bit not in (0, 1):
                raise InputError(f"parity value must be 0 or 1, got {bit!r}")
            key = frozenset((u, v))
            if key in store and store[key] != bit:
                raise InputError(f"conflicting parity values on pair ({u!r}, {v!r})")
            store[key] = bit
        self._values = store

    def value(self, u: Vertex, v: Vertex) -> int:
        try:
            return self._values[frozenset((u, v))]
        except KeyError:
            raise InputError(f"parity function undefined on pair ({u!r}, {v!r})") from None

    def defined(self, u: Vertex, v: Vertex) -> bool:
        return frozenset((u, v)) in self._values

    def pair_count(self) -> int:
        return len(self._values)

    def items_sorted(self) -> list[tuple[tuple, int]]:
        entries = [(tuple(sorted(k, key=str)), bit) for k, bit in self._values.items()]
        return sorted(entries, key=lambda e: (str(e[0][0]), str(e[0][1])))

    def __eq__(self, other):
        if not isinstance(other, ParityFunction):
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(frozenset(self._values.items()))

    def __repr__(self):
        body = ", ".join(f"{u}{v}:{bit}" for (u, v), bit in self.items_sorted())
        return f"ParityFunction({body})"


@dataclass(frozen=True)
class OrientationSet:
    """Subset of ``{0..delta}`` selecting one side of each pair ``{a, delta-a}``.

    ``delta`` itself always belongs; for even ``delta`` the self-paired value
    ``delta/2`` must belong as well, so that it counts as lying on both sides.
    """

    delta: int
    members: frozenset

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        if not all(isinstance(a, int) and 0 <= a <= self.delta for a in self.members):
            raise InputError("orientation values must lie in 0..delta")
        if self.delta not in self.members:
            raise InputError("delta itself must belong to the orientation set")
        for a in range(self.delta + 1):
            b = self.delta - a
            if a == b:
                if a not in self.members:
                    raise InputError("the half distance must belong to the orientation set")
            elif (a in self.members) == (b in self.members):
                raise InputError(
                    f"exactly one of {a} and {b} must belong to the orientation set")

    @classmethod
    def default(cls, delta: int) -> "OrientationSet":
        return cls(delta, frozenset(a for a in range(delta + 1) if 2 * a >= delta))

    def __contains__(self, a: int) -> bool:
        return a in self.members

    def co_contains(self, a: int) -> bool:
        """True when ``a`` lies on the complementary side (``delta - a`` is in)."""
        return (self.delta - a) in self.members

    def sorted_members(self) -> list[int]:
        return sorted(self.members)


@dataclass(frozen=True)
class CycleSpec:
    """Labels around a cycle ``v_1 .. v_k`` (``labels[i]`` joins ``v_i`` to ``v_{i+1}``).

    ``vertices`` is optional: concrete witnesses carry them, abstract cycles
    used by the oracle do not.
    """

    labels: tuple[int, ...]
    vertices: tuple = None  # type: ignore[assignment]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) < 3:
            raise InputError("a cycle needs at least three edges")
        if not all(isinstance(l, int) and l >= 1 for l in self.labels):
            raise InputError("cycle labels must be positive integers")
        if self.vertices is not None:
            object.__setattr__(self, "vertices", tuple(self.vertices))
            if len(self.vertices) != len(self.labels):
                raise InputError("a cycle has as many vertices as labels")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def is_non_metric(self) -> bool:
        return 2 * max(self.labels) > sum(self.labels)


def _shortest_avoiding(graph: EdgeLabelledGraph, source: Vertex, target: Vertex):
    """Shortest weighted path from source to target that skips the direct edge.

    Returns ``(total, path)`` or ``None``.  Ties break on canonical vertex
    order, so the returned path is deterministic.
    """
    dist = {source: 0}
    prev: dict = {}
    heap = [(0, graph.index(source), source)]
    while heap:
        d, _, u = heapq.heappop(heap)
        if d > dist.get(u, math.inf):
            continue
        if u == target:
            path = [u]
            while path[-1] != source:
                path.append(prev[path[-1]])
            return d, list(reversed(path))
        for v in graph.vertices:
            if v == u or {u, v} == {source, target}:
                continue
            w = graph.dist(u, v)
            if w is None:
                continue
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, graph.index(v), v))
    return None


def find_non_metric_cycle(graph: EdgeLabelledGraph) -> CycleSpec | None:
    """First cycle whose closing label exceeds the path around it, if any."""
    for u, v, label in graph.edges():
        found = _shortest_avoiding(graph, u, v)
        if found is not None and found[0] < label:
            _, path = found
            labels = tuple(graph.dist(path[i], path[i + 1]) for i in range(len(path) - 1))
            return CycleSpec(labels + (label,), tuple(path))
    return None


def shortest_path_completion(graph: EdgeLabelledGraph) -> EdgeLabelledGraph:
    """Complete a connected partial graph with weighted shortest-path distances.

    The formula is canonical, hence every symmetry of the input is a symmetry
    of the completion.  When the input contains a non-metric cycle the stored labels
    cannot survive, and the witness cycle is raised instead.  Completed
    distances may exceed the input's diameter bound, in which case the bound
    grows to fit.
    """
    if len(graph) <= 1:
        return graph
    verts = graph.vertices
    n = len(verts)
    d = [[math.inf] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = 0
    for u, v, label in graph.edges():
        i, j = graph.index(u), graph.index(v)
        d[i][j] = d[j][i] = label
    for k in range(n):
        for i in range(n):
            dik = d[i][k]
            if dik is math.inf:
                continue
            row = d[i]
            for j in range(n):
                alt = dik + d[k][j]
                if alt < row[j]:
                    row[j] = alt
                    d[j][i] = alt
    # a vertex is the first of its component when no earlier one reaches it
    comps = sum(all(x == math.inf for x in d[i][:i]) for i in range(n))
    if comps > 1:
        raise InputError(
            f"graph is disconnected ({comps} components); complete per component")
    for u, v, label in graph.edges():
        if d[graph.index(u)][graph.index(v)] < label:
            cycle = find_non_metric_cycle(graph)
            raise NonMetricCycleError(cycle)
    edges = []
    top = graph.delta
    for i in range(n):
        for j in range(i + 1, n):
            value = int(d[i][j])
            top = max(top, value)
            edges.append((verts[i], verts[j], value))
    return EdgeLabelledGraph(verts, top, edges)


def _backtrack(domains: dict, rejects, record) -> Iterator[tuple]:
    """Every choice of one value per variable that ``rejects`` lets through.

    This is the one backtracking loop behind every label and mark
    assignment in the package: :func:`solve_labels` and
    :func:`~antipodal.extension.expand_witness` run on it.  ``domains`` maps
    each variable, in the order they are decided, to its list of values,
    tried in list order.  ``rejects(var, value)`` says whether ``value``
    clashes with the values chosen for the variables before ``var``;
    ``record(var, value)`` tells the caller a value was chosen, and
    ``record(var, None)`` that ``var`` is undecided again.  Leaves are
    yielded as tuples of the chosen values, in lexicographic order of their
    places in the lists, so the first leaf is the least.  The loop is
    iterative, so the number of variables is not bounded by the recursion
    limit.
    """
    variables, lists = list(domains), list(domains.values())
    tried = [0] * len(lists)
    pos = 0
    while pos >= 0:
        if pos == len(lists):
            yield tuple(values[k - 1] for values, k in zip(lists, tried))
            pos -= 1
            continue
        var, values = variables[pos], lists[pos]
        k = tried[pos]
        while k < len(values) and rejects(var, values[k]):
            k += 1
        if k == len(values):
            tried[pos] = 0
            record(var, None)
            pos -= 1
            continue
        record(var, values[k])
        tried[pos] = k + 1
        pos += 1


def solve_labels(verts, fixed: dict, domains: dict, gdesc) -> Iterator[dict]:
    """Every labelling of the open pairs that closes no forbidden triangle.

    ``fixed`` maps pairs of ``verts`` to their labels; ``domains`` maps each
    open pair to its ordered candidate values.  Every fixed label and
    candidate value must lie in ``1..gdesc.diameter``; one outside raises
    :class:`InputError` with the predicate's message before the search.
    Yields nothing when the fixed labels already close a forbidden triangle.
    Otherwise :func:`_backtrack` decides the open pairs in ``domains`` order,
    values in candidate order, and rejects a value as soon as it closes a
    forbidden triangle with two labels already present; every leaf is
    yielded as a dict holding the fixed and the chosen labels.  The first
    leaf is the least labelling in that order.

    A triangle is looked up in the per-descriptor table of suspect label
    pairs that :func:`~antipodal.membership.find_forbidden_triple` scans.
    With every label in range a suspect pair is a forbidden one, so each
    lookup answers as :func:`is_forbidden_triangle` would, and the leaves and
    their order are the same as with the predicate.

    Before the search each domain drops the values that close a forbidden
    triangle with two fixed labels, and nothing is yielded if a domain
    empties.  A dropped value belongs to no leaf, so the leaves and their
    order stay the same.  Without this pass a pair that no value fits is met
    only after every pair before it is chosen, and the search then tries
    every combination of those choices.
    """
    diameter = gdesc.diameter
    for label in itertools.chain(fixed.values(), *domains.values()):
        if not isinstance(label, int) or not 1 <= label <= diameter:
            raise InputError(f"label {label!r} outside 1..{diameter}")
    suspect = _suspect_pairs(gdesc)
    known: dict = {}
    for (u, v), label in fixed.items():
        known[u, v] = known[v, u] = label

    def closes_forbidden(pair, a) -> bool:
        u, v = pair
        pairs = suspect[a]
        for w in verts:
            if w == u or w == v:
                continue
            x = known.get((u, w))
            if x is None:
                continue
            y = known.get((v, w))
            if y is not None and (x, y) in pairs:
                return True
        return False

    if any(closes_forbidden(pair, label) for pair, label in fixed.items()):
        return
    domains = {pair: [a for a in values if not closes_forbidden(pair, a)]
               for pair, values in domains.items()}
    if not all(domains.values()):
        return

    def record(pair, a):
        u, v = pair
        if a is None:
            known.pop((u, v), None)
            known.pop((v, u), None)
        else:
            known[u, v] = known[v, u] = a

    for labels in _backtrack(domains, closes_forbidden, record):
        yield {**fixed, **dict(zip(domains, labels))}


def forbidden_cycle_oracle(cycle: CycleSpec, gdesc: GeneralClassDescriptor,
                           *, max_length: int = 8) -> bool:
    """True when no chord labelling completes the cycle into a member.

    Decided by :func:`solve_labels` over all chord labellings: the cycle is
    forbidden exactly when it has no first leaf.  Refuses cycles longer than
    ``max_length``.
    """
    k = len(cycle)
    if k > max_length:
        raise SizeLimitError(
            f"cycle oracle is bounded at length {max_length} (got {k})", max_length)
    diameter = gdesc.diameter
    for label in cycle.labels:
        if not 1 <= label <= diameter:
            raise InputError(f"cycle label {label} outside 1..{diameter}")
    fixed = {(i, (i + 1) % k): cycle.labels[i] for i in range(k)}
    chords = {(i, j): range(1, diameter + 1) for i in range(k) for j in range(i + 2, k)
              if (i, j) != (0, k - 1)}
    return next(solve_labels(range(k), fixed, chords, gdesc), None) is None


@dataclass(frozen=True)
class BoundSearch:
    """Result of a forbidden-cycle sweep: the locality bound and its provenance.

    ``n`` is ``max(4, 2 * largest_forbidden)``.  ``exhaustive`` is True when
    the top examined length carried no forbidden cycle, which is evidence (not
    proof) that longer ones do not exist; bipartite families always have
    forbidden cycles of every odd perimeter, so there it stays False.
    """

    n: int
    cycle_bound: int
    largest_forbidden: int
    exhaustive: bool
    example: CycleSpec | None


def _cycle_class(labels: tuple[int, ...]) -> tuple[int, ...]:
    """The least of the label tuple's rotations and reflections.

    Two cycles get the same key exactly when one is a rotation or a
    reflection of the other.
    """
    k = len(labels)
    rev = labels[::-1]
    return min(min(labels[i:] + labels[:i], rev[i:] + rev[:i]) for i in range(k))


def _canonical_cycles(length: int, diameter: int) -> Iterator[tuple[int, ...]]:
    """Label tuples of the given length, one per rotation/reflection class."""
    for labels in itertools.product(range(1, diameter + 1), repeat=length):
        if labels == _cycle_class(labels):
            yield labels


def local_finiteness_bound(desc: ClassDescriptor, cycle_bound: int) -> BoundSearch:
    """Sweep all cycles up to ``cycle_bound`` and derive the locality bound.

    The bound is at least 4 and at least twice the length of the largest
    forbidden cycle found.  No minimality filtering is applied, so the bound
    is conservative.
    """
    if cycle_bound < 3:
        raise InputError("cycle bound must be at least 3")
    gdesc = desc.folded()
    largest = 0
    example = None
    for k in range(3, cycle_bound + 1):
        for labels in _canonical_cycles(k, gdesc.diameter):
            spec = CycleSpec(labels)
            if forbidden_cycle_oracle(spec, gdesc, max_length=cycle_bound):
                largest = k
                example = spec
                break
    return BoundSearch(max(4, 2 * largest), cycle_bound, largest,
                       largest < cycle_bound, example)


@dataclass(frozen=True)
class FViolation:
    """One broken parity-function condition, for diagnostics."""

    kind: str
    vertices: tuple
    message: str


def _orientation_args(desc: ClassDescriptor, orientation: OrientationSet | None):
    if desc.variant is Variant.ODD_NON_BIPARTITE:
        if orientation is not None:
            raise InputError("orientation sets apply to even-bipartite classes only")
    elif desc.variant is Variant.EVEN_BIPARTITE:
        if orientation is None:
            raise InputError(
                "even-bipartite classes need an orientation set (OrientationSet.default(delta))")
        if orientation.delta != desc.delta:
            raise InputError("orientation set diameter differs from the class diameter")
    else:
        raise InputError(
            "parity-driven completion is defined for odd-non-bipartite and "
            "even-bipartite classes only")


def _label_side_ok(label: int, bit: int, desc: ClassDescriptor,
                   orientation: OrientationSet | None) -> bool:
    if desc.variant is Variant.ODD_NON_BIPARTITE:
        return label % 2 == bit
    return label in orientation if bit == 1 else orientation.co_contains(label)


def check_f_conditions(graph: EdgeLabelledGraph, f: ParityFunction,
                       desc: ClassDescriptor, orientation: OrientationSet | None = None
                       ) -> list[FViolation]:
    """All broken invariants of the pair function ``f`` against ``graph``.

    Checks totality, agreement with stored labels (parity, or orientation
    side for bipartite classes), and coherence across pairs of long edges:
    parallel pairs agree, crossing pairs differ.
    """
    _orientation_args(desc, orientation)
    out: list[FViolation] = []
    for u, v in graph.pairs():
        if not f.defined(u, v):
            out.append(FViolation("missing", (u, v), f"f undefined on ({u}, {v})"))
    for u, v, label in graph.edges():
        if not f.defined(u, v):
            continue
        if not _label_side_ok(label, f.value(u, v), desc, orientation):
            out.append(FViolation(
                "label-side", (u, v),
                f"f({u},{v})={f.value(u, v)} incompatible with distance {label}"))
    try:
        matching = delta_matching(graph)
    except InputError as exc:
        out.append(FViolation("matching", (), str(exc)))
        return out
    edges = matching.edges
    for a in range(len(edges)):
        x1, y1 = edges[a]
        for b in range(a + 1, len(edges)):
            x2, y2 = edges[b]
            if not all(f.defined(p, q) for p, q in
                       ((x1, x2), (y1, y2), (x1, y2), (x2, y1))):
                continue
            if f.value(x1, x2) != f.value(y1, y2):
                out.append(FViolation("parallel", (x1, x2, y1, y2),
                                      f"f({x1},{x2}) != f({y1},{y2})"))
            if f.value(x1, y2) != f.value(x2, y1):
                out.append(FViolation("parallel", (x1, y2, x2, y1),
                                      f"f({x1},{y2}) != f({x2},{y1})"))
            if f.value(x1, x2) == f.value(x1, y2):
                out.append(FViolation("crossing", (x1, x2, y2),
                                      f"f({x1},{x2}) == f({x1},{y2})"))
    return out


def _folded_cycles(folded: EdgeLabelledGraph, bound: int) -> Iterator[CycleSpec]:
    """Simple cycles of a partial graph up to the given length, each once.

    A cycle is walked from its least vertex towards the lesser of that
    vertex's two cycle neighbours, so it is met once.  The walks are depth
    first with neighbours in canonical order, which yields the cycles in
    lexicographic order of their vertex positions.  Neighbour lists are read
    off the label matrix once.
    """
    verts, rows = folded.vertices, folded._rows
    neighbours = [[j for j, label in enumerate(row) if label] for row in rows]
    for start in range(len(verts)):
        path = [start]  # vertex positions; the start is the least on the cycle
        todo = [iter(neighbours[start])]  # the neighbours left to try, per path vertex
        while todo:
            for v in todo[-1]:
                if v <= start:
                    u = path[-1]
                    # close only in one direction to avoid the mirrored duplicate
                    if v == start and len(path) >= 3 and path[1] < u:
                        labels = tuple(rows[a][b] for a, b in zip(path, path[1:]))
                        yield CycleSpec(labels + (rows[u][start],),
                                        tuple(verts[a] for a in path))
                elif v not in path and len(path) < bound:
                    path.append(v)
                    todo.append(iter(neighbours[v]))
                    break
            else:
                todo.pop()
                path.pop()


def _first_forbidden_cycle(folded: EdgeLabelledGraph, gdesc: GeneralClassDescriptor,
                           cycle_bound: int) -> CycleSpec | None:
    """The first cycle of :func:`_folded_cycles` that the oracle forbids, or ``None``.

    The oracle decides each rotation/reflection class (:func:`_cycle_class`)
    once per call; :func:`antipodal_complete` says why that gives the answer
    of a sweep deciding every cycle afresh.  The verdicts live only as long
    as the call.
    """
    # label tuple -> verdict of its class, filled for each class key and for
    # each label tuple met
    verdicts: dict[tuple[int, ...], bool] = {}
    for cyc in _folded_cycles(folded, min(cycle_bound, len(folded))):
        verdict = verdicts.get(cyc.labels)
        if verdict is None:
            key = _cycle_class(cyc.labels)
            if key not in verdicts:
                verdicts[key] = forbidden_cycle_oracle(cyc, gdesc, max_length=cycle_bound)
            verdict = verdicts[cyc.labels] = verdicts[key]
        if verdict:
            return cyc
    return None


def _f_preserving_maps(graph: EdgeLabelledGraph, f: ParityFunction) -> Iterator[frozenset]:
    """The automorphisms of ``graph`` that preserve the total pair function ``f``.

    :func:`~antipodal.structures.vertex_maps` rejects ``v -> t`` when
    ``f(v, s) != f(t, g(s))`` for a vertex ``s`` already mapped, so every
    pair is compared once its later vertex is mapped.  The maps come in the
    order of :func:`~antipodal.structures.automorphisms`, as the subsequence
    that preserves ``f`` (the argument is in :func:`antipodal_complete`).
    """
    values = {u: {v: f.value(u, v) for v in graph.vertices if v != u}
              for u in graph.vertices}

    def fits(v, t, assigned) -> bool:
        fv, ft = values[v], values[t]
        return all(fv[s] == ft[g] for s, g in assigned.items())

    return vertex_maps(graph, fits=fits)


def _complete_folded(folded: EdgeLabelledGraph, gdesc: GeneralClassDescriptor,
                     domains: dict[tuple[Vertex, Vertex], list[int]]):
    """Fill the unlabelled pairs of a folded partial graph, or return ``None``.

    ``domains`` maps each unlabelled pair to its ordered candidate list; the
    order encodes the selection policy.  The answer is the first leaf of
    :func:`solve_labels` over the pairs in canonical order.  With canonical
    candidate order it is exactly the per-pair canonical selection whenever
    that selection is globally consistent.

    Domains are not pruned to a fixpoint against the input labels and the
    one-value domains.  A value such pruning removes closes a forbidden
    triangle with labels every full labelling must use, so it belongs to no
    leaf: the leaves and their order are the same without it.
    """
    fixed = {(u, v): l for u, v, l in folded.edges()}
    for u, v in folded.pairs():
        key = (u, v)
        if key not in fixed and key not in domains:
            raise InputError(f"no candidate domain supplied for pair ({u!r}, {v!r})")
    order = sorted(domains, key=lambda p: (folded.index(p[0]), folded.index(p[1])))
    return next(solve_labels(folded.vertices, fixed, {p: domains[p] for p in order},
                             gdesc), None)


def antipodal_complete(graph: EdgeLabelledGraph, f: ParityFunction,
                       desc: ClassDescriptor, orientation: OrientationSet | None = None,
                       *, verify_limit: int = 12) -> EdgeLabelledGraph:
    """Complete a partial antipodal graph, steering parities with ``f``.

    Preconditions (each failure raises :class:`PreconditionError` naming the
    clause): the long edges form a perfect matching; any vertex joined to one
    endpoint of a long edge is joined to both, with the two distances summing
    to the diameter; ``f`` passes :func:`check_f_conditions`; the folded
    image contains no forbidden cycle up to :data:`CYCLE_BOUND` edges.

    The completion works on the folded image: each undecided pair of long
    edges gets one unknown, whose candidate values are the side of
    ``{a, delta-a}`` selected by ``f``, ordered centre-first.  A deterministic
    search fills them, :func:`~antipodal.membership._doubled_edges` turns the
    folded labels into every label, and the result is audited: it must be a
    member extending the input, every pair must sit on its ``f`` side, and
    every input symmetry preserving ``f`` must remain a symmetry (otherwise
    :class:`CompletionNotEquivariant` is raised).  The input's own labels
    come back unchanged, since the antipodal-sum precondition makes each of
    them the law's value.

    Three shortcuts keep every answer and message the same:

    - The forbidden cycles are looked for only when the search fails.  A
      completion of the folded image, restricted to the vertices of one of
      its cycles, completes that cycle inside the folded family, so no cycle
      of a completable folded image is forbidden: a completion found means
      the precondition holds.  When the search fails, the cycle walk names
      the first forbidden cycle that checking the precondition first would
      name, or finds none, and then :class:`CompletionError` is raised.
      Inputs with a forbidden cycle pay for the failing search first.
    - The cycle walk decides each rotation/reflection class of cycle labels
      once per call and reuses the verdict for the rest of the class.
      Rotating or reflecting a cycle gives an isomorphic partial structure,
      so the oracle's verdict cannot change.  The cycles are still met in
      the same order, and the first forbidden one is named, not the
      representative of its class.
    - The equivariance audit enumerates only the symmetries that preserve
      ``f``: the vertex-map search drops a partial map as soon as it breaks
      ``f`` on two mapped vertices.  Every extension of such a map breaks
      ``f`` as well, so no ``f``-preserving symmetry is lost, and the rest
      come in the same depth-first order as :func:`automorphisms` gives
      them, so the same first broken symmetry is named.
    """
    _orientation_args(desc, orientation)
    if len(graph) > verify_limit:
        raise SizeLimitError(
            f"completion audit is bounded at {verify_limit} vertices", verify_limit)
    if graph.delta != desc.delta:
        raise InputError(f"graph delta {graph.delta} != class diameter {desc.delta}")
    if len(graph) == 0:
        return graph
    delta = desc.delta
    try:
        matching = delta_matching(graph, require_perfect=True)
    except InputError as exc:
        raise PreconditionError("perfect-matching", str(exc)) from None
    for x, y in matching.edges:
        for w in graph.vertices:
            if w in (x, y):
                continue
            a, b = graph.dist(x, w), graph.dist(y, w)
            if (a is None) != (b is None):
                raise PreconditionError(
                    "antipodal-sum", f"{w!r} is joined to only one endpoint of "
                    f"the long edge ({x!r}, {y!r})", (x, y, w))
            if a is not None and a + b != delta:
                raise PreconditionError(
                    "antipodal-sum", f"distances from {w!r} to ({x!r}, {y!r}) "
                    f"sum to {a + b}, expected {delta}", (x, y, w))
    violations = check_f_conditions(graph, f, desc, orientation)
    if violations:
        first = violations[0]
        raise PreconditionError(
            "parity-function",
            f"{len(violations)} condition(s) broken, first: {first.message}",
            first.vertices)
    folded = fold(graph, matching)
    gdesc = desc.folded()
    mid = (delta + 1) // 2
    domains: dict[tuple[Vertex, Vertex], list[int]] = {}
    for u, v in folded.undefined_pairs():
        bit = f.value(u, v)
        cands = [a for a in range(1, delta)
                 if _label_side_ok(a, bit, desc, orientation)]
        domains[(u, v)] = sorted(cands, key=lambda a: (abs(a - mid), a))
    solution = _complete_folded(folded, gdesc, domains)
    if solution is None:
        cyc = _first_forbidden_cycle(folded, gdesc, CYCLE_BOUND)
        if cyc is not None:
            raise PreconditionError(
                "forbidden-cycle", f"folded image contains the forbidden cycle "
                f"{cyc.labels} on {cyc.vertices}", cyc.vertices)
        raise CompletionError(
            "no completion matches the parity function within the class")
    completed = EdgeLabelledGraph(graph.vertices, delta, _doubled_edges(
        matching.edges, ((u, v, b) for (u, v), b in solution.items()), delta))
    if not (completed.is_complete() and is_completion_of(completed, graph)
            and is_member(completed, desc)):
        raise InternalError("internal: folded solution pulled back inconsistently")
    for u, v, label in completed.edges():
        if not _label_side_ok(label, f.value(u, v), desc, orientation):
            raise InternalError("internal: completion broke the parity function")
    rows, n = completed._rows, len(completed)
    for pairs in _f_preserving_maps(graph, f):
        image = dict(pairs)
        moved = [completed.index(image[v]) for v in completed.vertices]
        if any(rows[i][j] != rows[moved[i]][moved[j]]
               for i in range(n) for j in range(i + 1, n)):
            g = Automorphism(pairs)
            raise CompletionNotEquivariant(
                f"completion drops the parity-preserving symmetry {g!r}", g)
    return completed
