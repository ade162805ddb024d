"""Edge-labelled graphs, partial maps, and brute-force symmetry enumeration.

Everything downstream works on :class:`EdgeLabelledGraph`: an immutable finite
graph whose edges carry integer labels from ``{1..delta}``.  The label map is
partial and symmetric, and it is stored as one n×n integer matrix indexed by
vertex position, with 0 for an unlabelled pair and on the diagonal.  Vertex
insertion order doubles as the canonical total order used by every
deterministic tie-break in the package (fold representatives, matching
enumeration, search orders) and is the row and column order of the matrix.

:func:`vertex_maps` is the one enumeration path for vertex maps: plain and
marked automorphisms, partial automorphisms and least extensions are all
depth-first walks of it, differing only in a seed, a consistency predicate
and a mate map.  It compares rows of the label matrix by vertex position
instead of reading labels pair by pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator

from .errors import InputError, SizeLimitError

Vertex = Hashable


class EdgeLabelledGraph:
    """Finite graph with a partial symmetric labelling of vertex pairs.

    The labels live in one n×n integer matrix, rows and columns in canonical
    vertex order, built once in the constructor: entry ``[i][j]`` is the
    label of the i-th and j-th vertices, 0 when the pair is unlabelled and
    on the diagonal.  The matrix is a tuple of row tuples, so equality and
    hashing compare it directly.

    Instances are value-semantic and immutable: derived graphs are built with
    :meth:`with_edges`, :meth:`with_vertices` or :meth:`induced`.
    """

    __slots__ = ("_vertices", "_index", "_delta", "_rows", "_edge_count")

    def __init__(self, vertices: Iterable[Vertex], delta: int,
                 edges: Iterable[tuple[Vertex, Vertex, int]] = ()):
        self._vertices = tuple(vertices)
        self._index = {v: i for i, v in enumerate(self._vertices)}
        if len(self._index) != len(self._vertices):
            raise InputError("duplicate vertex ids")
        if not isinstance(delta, int) or delta < 1:
            raise InputError(f"delta must be a positive integer, got {delta!r}")
        self._delta = delta
        n = len(self._vertices)
        rows = [[0] * n for _ in range(n)]
        count = 0
        for u, v, label in edges:
            iu, iv = self._position(u, v)
            if not isinstance(label, int) or not 1 <= label <= delta:
                raise InputError(
                    f"label {label!r} outside 1..{delta} on pair ({u!r}, {v!r})")
            if rows[iu][iv]:
                raise InputError(f"duplicate edge ({u!r}, {v!r})")
            rows[iu][iv] = rows[iv][iu] = label
            count += 1
        self._rows = tuple(map(tuple, rows))
        self._edge_count = count

    def _position(self, u: Vertex, v: Vertex) -> tuple[int, int]:
        iu = self._index.get(u)
        iv = self._index.get(v)
        if iu is None or iv is None:
            missing = u if iu is None else v
            raise InputError(f"unknown vertex {missing!r}")
        if iu == iv:
            raise InputError(f"self-distance requested for {u!r}")
        return iu, iv

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return self._vertices

    @property
    def delta(self) -> int:
        return self._delta

    def __len__(self) -> int:
        return len(self._vertices)

    def __contains__(self, v: Vertex) -> bool:
        return v in self._index

    def index(self, v: Vertex) -> int:
        """Canonical rank of ``v`` (its insertion position)."""
        if v not in self._index:
            raise InputError(f"unknown vertex {v!r}")
        return self._index[v]

    def dist(self, u: Vertex, v: Vertex):
        """Label on the pair, or ``None`` when the pair is unlabelled."""
        iu, iv = self._position(u, v)
        return self._rows[iu][iv] or None

    def pairs(self) -> Iterator[tuple[Vertex, Vertex]]:
        """All unordered vertex pairs, in canonical order."""
        vs = self._vertices
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                yield vs[i], vs[j]

    def edges(self) -> Iterator[tuple[Vertex, Vertex, int]]:
        """All labelled pairs ``(u, v, label)`` in canonical order."""
        vs = self._vertices
        for i, row in enumerate(self._rows):
            for j in range(i + 1, len(vs)):
                if row[j]:
                    yield vs[i], vs[j], row[j]

    def edge_count(self) -> int:
        return self._edge_count

    def is_complete(self) -> bool:
        n = len(self._vertices)
        return self._edge_count == n * (n - 1) // 2

    def undefined_pairs(self) -> list[tuple[Vertex, Vertex]]:
        vs = self._vertices
        return [(vs[i], vs[j]) for i, row in enumerate(self._rows)
                for j in range(i + 1, len(vs)) if not row[j]]

    def induced(self, keep: Iterable[Vertex]) -> "EdgeLabelledGraph":
        """Substructure on ``keep``, preserving relative vertex order."""
        wanted = set(keep)
        unknown = wanted - set(self._vertices)
        if unknown:
            raise InputError(f"unknown vertices {sorted(map(repr, unknown))}")
        vs = tuple(v for v in self._vertices if v in wanted)
        edges = [(u, v, l) for u, v, l in self.edges() if u in wanted and v in wanted]
        return EdgeLabelledGraph(vs, self._delta, edges)

    def with_edges(self, extra: Iterable[tuple[Vertex, Vertex, int]],
                   delta: int | None = None) -> "EdgeLabelledGraph":
        """New graph with additional labels; relabelling an existing pair is an error."""
        edges = list(self.edges()) + list(extra)
        return EdgeLabelledGraph(self._vertices, delta or self._delta, edges)

    def with_vertices(self, extra: Iterable[Vertex]) -> "EdgeLabelledGraph":
        return EdgeLabelledGraph(self._vertices + tuple(extra), self._delta, self.edges())

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeLabelledGraph):
            return NotImplemented
        return (self._vertices == other._vertices and self._delta == other._delta
                and self._rows == other._rows)

    def __hash__(self) -> int:
        return hash((self._vertices, self._delta, self._rows))

    def __repr__(self) -> str:
        es = ",".join(f"{u}-{v}:{l}" for u, v, l in self.edges())
        return f"EdgeLabelledGraph(delta={self._delta}, vertices={list(self._vertices)}, edges=[{es}])"


@dataclass(frozen=True)
class PartialMap:
    """Injective partial map between vertex subsets of one structure.

    Stored as a frozenset of ``(source, target)`` pairs, so equality and
    hashing ignore construction order.
    """

    pairs: frozenset

    def __post_init__(self):
        sources = [s for s, _ in self.pairs]
        targets = [t for _, t in self.pairs]
        if len(set(sources)) != len(sources):
            raise InputError("partial map is not functional")
        if len(set(targets)) != len(targets):
            raise InputError("partial map is not injective")

    @classmethod
    def of(cls, mapping) -> "PartialMap":
        """Build from a dict or an iterable of pairs."""
        if hasattr(mapping, "items"):
            mapping = mapping.items()
        return cls(frozenset((s, t) for s, t in mapping))

    @classmethod
    def empty(cls) -> "PartialMap":
        return cls(frozenset())

    def mapping(self) -> dict:
        return dict(self.pairs)

    @property
    def domain(self) -> frozenset:
        return frozenset(s for s, _ in self.pairs)

    @property
    def image(self) -> frozenset:
        return frozenset(t for _, t in self.pairs)

    def __getitem__(self, v):
        for s, t in self.pairs:
            if s == v:
                return t
        raise KeyError(v)

    def get(self, v, default=None):
        for s, t in self.pairs:
            if s == v:
                return t
        return default

    def __len__(self) -> int:
        return len(self.pairs)

    def items_sorted(self) -> list:
        return sorted(self.pairs, key=lambda p: (str(p[0]), str(p[1])))

    def inverse(self) -> "PartialMap":
        return type(self)(frozenset((t, s) for s, t in self.pairs))

    def extends(self, other: "PartialMap") -> bool:
        return other.pairs <= self.pairs

    def preserves_labels(self, graph: EdgeLabelledGraph) -> bool:
        """True when the map is label-pattern preserving on its domain."""
        items = list(self.pairs)
        for i, (s, t) in enumerate(items):
            for s2, t2 in items[:i]:
                if graph.dist(s, s2) != graph.dist(t, t2):
                    return False
        return True

    def __repr__(self) -> str:
        body = ", ".join(f"{s}->{t}" for s, t in self.items_sorted())
        return "{" + body + "}"


@dataclass(frozen=True, repr=False)
class Automorphism(PartialMap):
    """Total label-preserving vertex bijection; same value semantics as PartialMap."""


def vertex_maps(graph: EdgeLabelledGraph, *, seed=(), partial: bool = False,
                fits=None, mate=None) -> Iterator[frozenset]:
    """Label-preserving injective vertex maps, depth first, as pair frozensets.

    The maps extend ``seed`` (pairs taken as given).  Every other vertex is
    decided in canonical order: first left out of the domain when ``partial``,
    then sent to each unused target in canonical order that keeps the labels
    to the vertices already mapped and passes ``fits(v, t, assigned)``.
    With ``mate`` (a partial function on vertices) domains stay closed under
    it: a vertex whose mate is mapped cannot be left out, and a vertex whose
    mate was left out is not mapped.  Without ``partial`` only total maps are
    yielded, so ``next(vertex_maps(...), None)`` is the least total extension.
    """
    verts = graph.vertices
    rows = graph._rows
    assigned = dict(seed)
    # positions (source, image) of the assigned pairs, in assignment order
    placed = [(graph.index(s), graph.index(t)) for s, t in assigned.items()]
    used = set(assigned.values())
    todo = [v for v in verts if v not in assigned]
    dropped: set = set()

    def rec(k: int) -> Iterator[frozenset]:
        if k == len(todo):
            yield frozenset(assigned.items())
            return
        v = todo[k]
        if partial and (mate is None or all(mate(s) != v for s in assigned)):
            dropped.add(v)
            yield from rec(k + 1)
            dropped.remove(v)
        if mate is not None and mate(v) is not None and mate(v) in dropped:
            return
        iv = graph.index(v)
        row_v = rows[iv]
        for it, t in enumerate(verts):
            if t in used or (fits is not None and not fits(v, t, assigned)):
                continue
            row_t = rows[it]
            if any(row_v[s] != row_t[ft] for s, ft in placed):
                continue
            assigned[v] = t
            placed.append((iv, it))
            used.add(t)
            yield from rec(k + 1)
            del assigned[v]
            placed.pop()
            used.remove(t)

    return rec(0)


def automorphisms(graph: EdgeLabelledGraph, *, max_vertices: int = 10) -> list[Automorphism]:
    """All label-pattern preserving bijections of the vertex set.

    Exhaustive backtracking through :func:`vertex_maps`; refuses graphs larger
    than ``max_vertices``.  The result is sorted by image tuple in canonical
    vertex order, so it is stable across runs.
    """
    n = len(graph)
    if n > max_vertices:
        raise SizeLimitError(
            f"automorphism enumeration is bounded at {max_vertices} vertices (got {n})",
            max_vertices)
    return [Automorphism(pairs) for pairs in vertex_maps(graph)]


def partial_automorphisms(graph: EdgeLabelledGraph) -> Iterator[PartialMap]:
    """Every isomorphism between induced substructures, as a lazy iterator.

    The count grows super-exponentially with the vertex count, which is why
    this is an iterator: callers bound consumption.  The empty map comes
    first; the order is otherwise the depth-first order of :func:`vertex_maps`
    over the canonical vertex sequence.
    """
    return (PartialMap(pairs) for pairs in vertex_maps(graph, partial=True))


def is_irreducible(structure) -> bool:
    """True when every pair of distinct vertices carries some binary relation.

    For the languages used here (distances, one unary function, unary marks)
    this is exactly completeness of the underlying edge-labelled graph.
    Accepts a plain graph or any object exposing one via ``.base``.
    """
    base = getattr(structure, "base", structure)
    return base.is_complete()


def is_completion_of(completed: EdgeLabelledGraph, original: EdgeLabelledGraph) -> bool:
    """True when ``completed`` keeps every label of ``original`` intact.

    Both graphs must live on the same vertex set (the identity is the
    underlying map); new labels may appear only on previously unlabelled
    pairs, which is implied by exact preservation.
    """
    if set(completed.vertices) != set(original.vertices):
        raise InputError("completion check requires identical vertex sets")
    return all(completed.dist(u, v) == label for u, v, label in original.edges())
