"""Class descriptors, forbidden-triangle predicates, and antipodal structure ops.

The antipodal family with diameter ``delta`` and parameter ``K`` consists of
the complete edge-labelled graphs (integer metric spaces) that avoid a finite
family of triangles.  Its members have the antipodal property: edges of length
``delta`` pair vertices into mates, and the two distances from any third
vertex to a mated pair always sum to ``delta``.  Selecting one vertex per
mated pair lands in a companion family of diameter ``delta - 1`` described by
a five-parameter descriptor; :func:`fold` and :func:`unfold` move between the
two pictures.

An antipodal graph is fixed by its fold: the labels between the
representatives of mated pairs give every other label.  :func:`_doubled_edges`
is the one place that law builds labels; :func:`unfold`,
:func:`antipodal_closure`, ``pad_bipartition``, ``witness_candidates`` and
``antipodal_complete`` all call it.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import Iterable

from .errors import InputError, InternalError
from .structures import EdgeLabelledGraph, Vertex


class Variant(enum.Enum):
    """Which expansion machinery applies to a class."""

    ODD_NON_BIPARTITE = "odd-non-bipartite"
    EVEN_BIPARTITE = "even-bipartite"
    UNRESTRICTED = "unrestricted"


@dataclass(frozen=True)
class ClassDescriptor:
    """Antipodal class parameters ``(delta, K)`` plus the machinery variant.

    Valid parameters satisfy ``1 <= K <= delta/2`` or ``K == delta``.  When no
    variant is given it is inferred: odd ``delta`` with small ``K`` is
    odd-non-bipartite, even ``delta`` with ``K == delta`` is even-bipartite,
    anything else is unrestricted (membership and folding still work there,
    the expansion machinery refuses).
    """

    delta: int
    K: int
    variant: Variant = None  # type: ignore[assignment]

    def __post_init__(self):
        if not isinstance(self.delta, int) or self.delta < 2:
            raise InputError(f"delta must be an integer >= 2, got {self.delta!r}")
        if not isinstance(self.K, int) or not (1 <= 2 * self.K <= self.delta or self.K == self.delta):
            raise InputError(
                f"K must satisfy 1 <= K <= delta/2 or K == delta, got K={self.K!r}")
        if self.variant is None:
            object.__setattr__(self, "variant", self._infer_variant())
        elif not isinstance(self.variant, Variant):
            object.__setattr__(self, "variant", Variant(self.variant))
        self._check_variant()

    def _infer_variant(self) -> Variant:
        if self.delta % 2 == 1 and 2 * self.K <= self.delta:
            return Variant.ODD_NON_BIPARTITE
        if self.delta % 2 == 0 and self.K == self.delta:
            return Variant.EVEN_BIPARTITE
        return Variant.UNRESTRICTED

    def _check_variant(self):
        if self.variant is Variant.ODD_NON_BIPARTITE and not (
                self.delta % 2 == 1 and 2 * self.K <= self.delta):
            raise InputError("odd-non-bipartite requires odd delta and K <= delta/2")
        if self.variant is Variant.EVEN_BIPARTITE and not (
                self.delta % 2 == 0 and self.K == self.delta):
            raise InputError("even-bipartite requires even delta and K == delta")

    @property
    def diameter(self) -> int:
        return self.delta

    @property
    def bipartite(self) -> bool:
        return self.K == self.delta

    def folded(self) -> "GeneralClassDescriptor":
        """Descriptor of the diameter ``delta - 1`` family seen by folding."""
        return GeneralClassDescriptor.from_antipodal(self)


@dataclass(frozen=True)
class GeneralClassDescriptor:
    """Five-parameter triangle-constraint descriptor at diameter ``delta``.

    ``K1`` may be ``math.inf``, which forbids every odd perimeter.
    """

    delta: int
    K1: float
    K2: int
    C0: int
    C1: int

    def __post_init__(self):
        if not isinstance(self.delta, int) or self.delta < 1:
            raise InputError(f"diameter must be a positive integer, got {self.delta!r}")
        if not (self.K1 == math.inf or (isinstance(self.K1, int) and self.K1 >= 1)):
            raise InputError(f"K1 must be a positive integer or infinity, got {self.K1!r}")
        for name in ("K2", "C0", "C1"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 0:
                raise InputError(f"{name} must be a nonnegative integer, got {value!r}")

    @classmethod
    def from_antipodal(cls, desc: ClassDescriptor) -> "GeneralClassDescriptor":
        k1 = math.inf if desc.K == desc.delta else desc.K
        return cls(desc.delta - 1, k1, desc.delta - desc.K,
                   2 * desc.delta + 2, 2 * desc.delta + 1)

    @property
    def diameter(self) -> int:
        return self.delta


Descriptor = ClassDescriptor | GeneralClassDescriptor


def is_forbidden_triangle(a: int, b: int, c: int, desc: Descriptor) -> bool:
    """True when the label triple can never occur in a member.

    A triple is excluded when it breaks the triangle inequality or when its
    perimeter hits one of the descriptor's constraints: for the antipodal
    form, perimeter above ``2*delta``, odd perimeter below ``2K``, or odd
    perimeter above ``2(delta-K) + 2*min``; for the general form, odd
    perimeter below ``2*K1`` or above ``2*K2 + 2*min``, and perimeter at least
    ``C0`` (even) or ``C1`` (odd).
    """
    diameter = desc.diameter
    for x in (a, b, c):
        if not isinstance(x, int) or not 1 <= x <= diameter:
            raise InputError(f"label {x!r} outside 1..{diameter}")
    if 2 * max(a, b, c) > a + b + c:
        return True
    p = a + b + c
    if isinstance(desc, ClassDescriptor):
        if p > 2 * desc.delta:
            return True
        if p % 2 == 1 and (p < 2 * desc.K or p > 2 * (desc.delta - desc.K) + 2 * min(a, b, c)):
            return True
        return False
    if p % 2 == 1:
        return p < 2 * desc.K1 or p > 2 * desc.K2 + 2 * min(a, b, c) or p >= desc.C1
    return p >= desc.C0


@functools.lru_cache(maxsize=64)
def _suspect_pairs(desc: Descriptor) -> tuple[frozenset, ...]:
    """Per first label ``a``, the ``(b, c)`` that make ``(a, b, c)`` suspect.

    A triple is suspect when :func:`is_forbidden_triangle` would return True
    or raise because a label lies outside ``1..diameter``.  Labels above the
    diameter all stand as ``diameter + 1``, so the table is finite: entry
    ``a`` for ``a`` in ``1..diameter + 1`` holds pairs over
    ``1..diameter + 1``, and every pair when ``a`` itself is out of range.
    Entry 0 is empty; no labelled pair carries 0.  Callers clamp larger
    labels to ``diameter + 1`` or reject them first.  Built once per
    descriptor from the predicate itself.
    """
    out = desc.diameter + 1
    labels = range(1, out + 1)
    return (frozenset(),) + tuple(
        frozenset((b, c) for b in labels for c in labels
                  if out in (a, b, c) or is_forbidden_triangle(a, b, c, desc))
        for a in labels)


def find_forbidden_triple(graph: EdgeLabelledGraph, desc: Descriptor):
    """First vertex triple carrying a forbidden triangle, or ``None``.

    Requires a complete graph; the canonical vertex order makes the answer
    deterministic.  Labels outside ``1..diameter`` raise :class:`InputError`
    at the first triple, in canonical order, that carries one, unless a
    forbidden triple comes earlier.

    For each pair ``i < j`` the rows of the label matrix are scanned at once
    for a ``k > j`` whose pair ``(d(i, k), d(j, k))`` is suspect for
    ``a = d(i, j)`` in the per-descriptor table: forbidden or out of range.
    Only then is ``k`` walked, and :func:`is_forbidden_triangle` decides each
    triple there, returning the triple or raising.  A triple that is not
    suspect is one the predicate accepts, so the scan meets the same first
    triple, and the same first error, as calling the predicate on every
    triple in canonical order.
    """
    if not graph.is_complete():
        raise InputError(
            "membership needs a complete graph; fill the missing labels with the "
            "completion operations first")
    suspect = _suspect_pairs(desc)
    out = desc.diameter + 1
    rows = graph._rows
    scan = rows
    if graph.delta >= out:  # the table reads every label above the diameter as `out`
        scan = [tuple(min(x, out) for x in row) for row in rows]
    vs = graph.vertices
    n = len(vs)
    for i in range(n):
        row_i = scan[i]
        for j in range(i + 1, n - 1):
            row_j = scan[j]
            if suspect[row_i[j]].isdisjoint(zip(row_i[j + 1:], row_j[j + 1:])):
                continue
            dij = rows[i][j]
            for k in range(j + 1, n):
                if is_forbidden_triangle(dij, rows[i][k], rows[j][k], desc):
                    return vs[i], vs[j], vs[k]
    return None


def is_member(graph: EdgeLabelledGraph, desc: Descriptor) -> bool:
    """Membership test for a complete graph: no triple is forbidden."""
    return find_forbidden_triple(graph, desc) is None


@dataclass(frozen=True)
class DeltaMatching:
    """The pairs at distance ``delta``, enumerated canonically.

    ``edges[i-1] == (x_i, y_i)`` with ``x_i`` the canonical representative
    (the endpoint that comes first in vertex order); indices are 1-based.  For
    even-bipartite contexts ``part_one``/``part_two`` split the indices by the
    parity class their edge lies in.
    """

    edges: tuple[tuple[Vertex, Vertex], ...]
    part_one: frozenset = None  # type: ignore[assignment]
    part_two: frozenset = None  # type: ignore[assignment]

    @property
    def m(self) -> int:
        return len(self.edges)

    def index_of(self, v: Vertex) -> int:
        for i, (x, y) in enumerate(self.edges, start=1):
            if v == x or v == y:
                return i
        raise InputError(f"vertex {v!r} is not covered by the matching")

    def mate(self, v: Vertex) -> Vertex:
        for x, y in self.edges:
            if v == x:
                return y
            if v == y:
                return x
        raise InputError(f"vertex {v!r} is not covered by the matching")

    def representative(self, i: int) -> Vertex:
        return self.edges[i - 1][0]

    def covered(self) -> frozenset:
        return frozenset(v for e in self.edges for v in e)

    def covers(self, graph: EdgeLabelledGraph) -> bool:
        return self.covered() == frozenset(graph.vertices)


def delta_matching(graph: EdgeLabelledGraph, desc: ClassDescriptor | None = None,
                   *, require_perfect: bool = False) -> DeltaMatching:
    """Extract the matching formed by the ``delta``-labelled edges.

    Raises when two such edges share a vertex.  With an even-bipartite
    descriptor and a complete graph the index bipartition is attached.
    """
    delta = graph.delta
    if desc is not None and desc.delta != delta:
        raise InputError(f"descriptor diameter {desc.delta} != graph delta {delta}")
    long_edges = [(u, v) for u, v, label in graph.edges() if label == delta]
    seen: dict = {}
    for u, v in long_edges:
        for w in (u, v):
            if w in seen:
                raise InputError(
                    f"edges of length {delta} do not form a matching: {w!r} is doubly matched")
            seen[w] = True
    ordered = sorted(long_edges, key=lambda e: (graph.index(e[0]), graph.index(e[1])))
    edges = tuple((u, v) if graph.index(u) < graph.index(v) else (v, u)
                  for u, v in ordered)
    matching = DeltaMatching(edges)
    if require_perfect and not matching.covers(graph):
        uncovered = sorted(set(graph.vertices) - matching.covered(), key=graph.index)
        raise InputError(f"matching is not perfect; uncovered vertices {uncovered!r}")
    if desc is not None and desc.variant is Variant.EVEN_BIPARTITE and graph.is_complete() \
            and len(graph) > 0:
        part1, _ = parity_parts(graph)
        ones = frozenset(i for i, (x, _) in enumerate(edges, start=1) if x in part1)
        twos = frozenset(range(1, len(edges) + 1)) - ones
        matching = DeltaMatching(edges, ones, twos)
    return matching


def parity_parts(graph: EdgeLabelledGraph) -> tuple[frozenset, frozenset]:
    """The two classes of the even-distance relation on a complete graph.

    The first part contains the first vertex in canonical order.  Raises when
    the relation fails to be an equivalence (some triangle has odd parity
    count), which cannot happen in bipartite members.
    """
    if len(graph) == 0:
        return frozenset(), frozenset()
    if not graph.is_complete():
        raise InputError("parity classes need a complete graph")
    anchor = graph.vertices[0]
    part1 = {anchor}
    part2 = set()
    for v in graph.vertices[1:]:
        (part1 if graph.dist(anchor, v) % 2 == 0 else part2).add(v)
    for u, v, label in graph.edges():
        same = (u in part1) == (v in part1)
        if same != (label % 2 == 0):
            raise InputError("graph is not parity-consistent (odd cycle present)")
    return frozenset(part1), frozenset(part2)


def _doubled_edges(pairs, edges, delta: int) -> list[tuple[Vertex, Vertex, int]]:
    """Every label of the antipodal graph that the mated ``pairs`` span.

    ``pairs`` lists each mated pair ``(x, x')`` with its representative
    ``x`` first; ``edges`` holds labels ``(x, y, a)`` between
    representatives.  The law gives ``d(x, x') = delta`` and, for each such
    label, ``d(x', y') = a`` and ``d(x, y') = d(x', y) = delta - a``.  A pair
    of representatives without a label leaves its four pairs unlabelled.

    Callers may pass labels their input already holds; regenerating them is
    exact.  In a member, ``d(x, w) + d(x', w) >= delta`` by the triangle
    inequality and ``<= delta`` because the perimeter is at most
    ``2 * delta``, so every label at ``x'`` is the ``delta``-complement of the
    one at ``x``.  A partial graph that passes the antipodal-sum
    precondition of ``antipodal_complete`` has the same sums by assumption.
    """
    mate = dict(pairs)
    out = [(x, y, delta) for x, y in pairs]
    for x, y, a in edges:
        out += [(x, y, a), (mate[x], mate[y], a), (x, mate[y], delta - a),
                (mate[x], y, delta - a)]
    return out


def _fresh_name(name: str, pad: str, taken: set) -> str:
    """``name``, with ``pad`` appended until ``taken`` lacks it; ``taken`` then holds it."""
    while name in taken:
        name += pad
    taken.add(name)
    return name


def antipodal_closure(graph: EdgeLabelledGraph, desc: ClassDescriptor
                      ) -> tuple[EdgeLabelledGraph, DeltaMatching]:
    """Minimal member extension in which every vertex has a mate at ``delta``.

    Each unmatched vertex ``u`` gets a new mate named ``u*`` with
    ``d(u*, w) = delta - d(u, w)``; distances between two new mates equal the
    distances between their originals.  The extension is unique, so the
    operation is idempotent, and the result is verified to stay a member.
    The labels come from :func:`_doubled_edges` over the representatives,
    the canonical ones of the matched pairs and the unmatched vertices.
    """
    if not is_member(graph, desc):
        raise InputError("antipodal closure requires a class member")
    matching = delta_matching(graph, None)
    unmatched = [v for v in graph.vertices if v not in matching.covered()]
    if not unmatched:
        return graph, delta_matching(graph, desc)
    taken = set(graph.vertices)
    pairs = list(matching.edges) + [(u, _fresh_name(f"{u}*", "*", taken)) for u in unmatched]
    reps = graph.induced(x for x, _ in pairs)
    closed = EdgeLabelledGraph(graph.vertices + tuple(y for _, y in pairs[matching.m:]),
                               desc.delta, _doubled_edges(pairs, reps.edges(), desc.delta))
    if not is_member(closed, desc):
        raise InternalError("internal: antipodal closure left the class")
    return closed, delta_matching(closed, desc, require_perfect=True)


def fold(graph: EdgeLabelledGraph, matching: DeltaMatching | None = None,
         representatives: Iterable[Vertex] | None = None,
         desc: ClassDescriptor | None = None) -> EdgeLabelledGraph:
    """Select one vertex per mated pair and take the induced space.

    The default representative is the canonical one (first in vertex order).
    The result has diameter bound ``delta - 1``; which representative is
    chosen only changes labels by the ``a ~ delta - a`` relabelling on the
    edges incident to the switched pair.
    """
    if desc is not None and not is_member(graph, desc):
        raise InputError("fold requires a class member")
    if matching is None:
        matching = delta_matching(graph, desc)
    if not matching.covers(graph):
        raise InputError("fold requires a perfect matching of the long edges")
    if representatives is None:
        reps = [x for x, _ in matching.edges]
    else:
        reps = list(representatives)
        if len(reps) != matching.m:
            raise InputError("one representative per matched edge is required")
        for i, r in enumerate(reps, start=1):
            if r not in matching.edges[i - 1]:
                raise InputError(f"representative {r!r} does not belong to edge {i}")
    reps_in_order = sorted(reps, key=graph.index)
    edges = []
    for i, u in enumerate(reps_in_order):
        for v in reps_in_order[i + 1:]:
            label = graph.dist(u, v)
            if label is not None:
                if label >= graph.delta:
                    raise InputError("matched pairs must be disjoint before folding")
                edges.append((u, v, label))
    return EdgeLabelledGraph(reps_in_order, graph.delta - 1, edges)


def unfold(folded: EdgeLabelledGraph, desc: ClassDescriptor) -> EdgeLabelledGraph:
    """Double a member of the folded family into an antipodal member.

    Every vertex ``v`` acquires a copy ``v'`` at distance ``delta``; distances
    to a copy are the ``delta``-complements of the distances to the original.
    Folding the result at the canonical representatives returns the input.
    """
    if not is_member(folded, desc.folded()):
        raise InputError("unfold requires a member of the folded family")
    taken = set(folded.vertices)
    pairs = [(v, _fresh_name(f"{v}'", "'", taken)) for v in folded.vertices]
    doubled = EdgeLabelledGraph(folded.vertices + tuple(y for _, y in pairs), desc.delta,
                                _doubled_edges(pairs, folded.edges(), desc.delta))
    if not is_member(doubled, desc):
        raise InternalError("internal: unfold left the class")
    return doubled
