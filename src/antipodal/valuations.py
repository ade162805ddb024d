"""Valuation functions, language permutations, marked structures, expansions.

A valuation function assigns a bit to every index of the matching of long
edges.  The language carries one unary mark per (index, valuation) pair, a
unary mate function, and the distance relations.  Language permutations act on
marks only and normalize as "flip some mutual valuations, then permute the
index set": the pair ``(psi, F)`` with ``F`` a symmetric set of index pairs.

A suitable expansion of a member marks each vertex with its matching index and
a valuation, so that mates carry complementary valuations and the mutual
valuation bits of any two vertices disagree exactly on the selected parity
side of their distance.  That mutual-disagreement function on pairs is
invariant under every automorphism, which is what makes parity-steered
completion symmetry-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .completion import OrientationSet, _label_side_ok, _orientation_args
from .errors import CompletionError, InputError, InternalError
from .membership import (ClassDescriptor, Variant, _doubled_edges, delta_matching,
                         is_member, parity_parts)
from .structures import EdgeLabelledGraph, Vertex


@dataclass(frozen=True)
class ValuationFunction:
    """Total bit vector on the index set ``{1..m}``."""

    bits: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "bits", tuple(self.bits))
        if not all(b in (0, 1) for b in self.bits):
            raise InputError("valuation bits must be 0 or 1")

    @classmethod
    def zeros(cls, m: int) -> "ValuationFunction":
        return cls((0,) * m)

    @classmethod
    def from_string(cls, text: str) -> "ValuationFunction":
        if not set(text) <= {"0", "1"}:
            raise InputError(f"valuation string must be binary, got {text!r}")
        return cls(tuple(int(c) for c in text))

    @property
    def size(self) -> int:
        return len(self.bits)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.bits):
            raise InputError(f"valuation index {i} outside 1..{len(self.bits)}")
        return self.bits[i - 1]

    def flipped(self, positions: Iterable[int]) -> "ValuationFunction":
        pos = set(positions)
        return ValuationFunction(tuple(1 - b if i + 1 in pos else b
                                       for i, b in enumerate(self.bits)))

    def permuted(self, psi: "IndexPermutation") -> "ValuationFunction":
        inv = psi.inverse()
        return ValuationFunction(tuple(self(inv(i)) for i in range(1, self.size + 1)))

    def complement(self) -> "ValuationFunction":
        return ValuationFunction(tuple(1 - b for b in self.bits))

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class IndexPermutation:
    """Bijection of ``{1..m}``, stored as the image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise InputError(f"not a permutation of 1..{len(self.images)}: {self.images}")

    @classmethod
    def identity(cls, m: int) -> "IndexPermutation":
        return cls(tuple(range(1, m + 1)))

    @classmethod
    def from_mapping(cls, m: int, mapping: Mapping[int, int]) -> "IndexPermutation":
        return cls(tuple(mapping[i] for i in range(1, m + 1)))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.images):
            raise InputError(f"index {i} outside 1..{len(self.images)}")
        return self.images[i - 1]

    def inverse(self) -> "IndexPermutation":
        out = [0] * len(self.images)
        for i, img in enumerate(self.images, start=1):
            out[img - 1] = i
        return IndexPermutation(tuple(out))

    def __mul__(self, other: "IndexPermutation") -> "IndexPermutation":
        """Composition ``(self * other)(i) == self(other(i))``."""
        if self.size != other.size:
            raise InputError("composing permutations of different index sets")
        return IndexPermutation(tuple(self(other(i)) for i in range(1, self.size + 1)))

    def is_identity(self) -> bool:
        return all(self(i) == i for i in range(1, self.size + 1))

    def partition_action(self, part_one: frozenset, part_two: frozenset):
        """``"fixes"`` or ``"swaps"`` when the bipartition is respected, else ``None``."""
        if all(self(i) in part_one for i in part_one) and \
                all(self(i) in part_two for i in part_two):
            return "fixes"
        if all(self(i) in part_two for i in part_one) and \
                all(self(i) in part_one for i in part_two):
            return "swaps"
        return None

    def __str__(self) -> str:
        return ",".join(f"{i}:{img}" for i, img in enumerate(self.images, start=1))


@dataclass(frozen=True)
class FlipSet:
    """Symmetric subset of index pairs; row ``i`` drives the flip of mark ``i``."""

    pairs: frozenset

    def __post_init__(self):
        object.__setattr__(self, "pairs", frozenset(self.pairs))
        for i, j in self.pairs:
            if not (isinstance(i, int) and isinstance(j, int) and i >= 1 and j >= 1):
                raise InputError("flip pairs must be positive index pairs")
            if (j, i) not in self.pairs:
                raise InputError(f"flip set is not symmetric: ({i},{j}) without ({j},{i})")

    @classmethod
    def symmetric(cls, pairs: Iterable[tuple[int, int]]) -> "FlipSet":
        closed = set()
        for i, j in pairs:
            closed.add((i, j))
            closed.add((j, i))
        return cls(frozenset(closed))

    @classmethod
    def empty(cls) -> "FlipSet":
        return cls(frozenset())

    def row(self, i: int) -> frozenset:
        return frozenset(j for a, j in self.pairs if a == i)

    def __xor__(self, other: "FlipSet") -> "FlipSet":
        return FlipSet(self.pairs ^ other.pairs)

    def mapped(self, psi: IndexPermutation) -> "FlipSet":
        return FlipSet(frozenset((psi(i), psi(j)) for i, j in self.pairs))

    def __contains__(self, pair) -> bool:
        return pair in self.pairs

    def __len__(self) -> int:
        return len(self.pairs)

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)

    def __str__(self) -> str:
        return ";".join(f"{i},{j}" for i, j in self.sorted_pairs()) or "-"


Mark = tuple[int, ValuationFunction]


@dataclass(frozen=True)
class LanguagePermutation:
    """Normal form of a language permutation: flip by ``F``, then permute by ``psi``.

    The action on a mark ``(i, chi)`` is ``(psi(i), chi flipped on row_i then
    reindexed by psi)``.  Two normal forms are equal exactly when they act the
    same way on every mark, so dataclass equality is the group equality.
    """

    psi: IndexPermutation
    flips: FlipSet

    def __post_init__(self):
        m = self.psi.size
        for i, j in self.flips.pairs:
            if i > m or j > m:
                raise InputError(f"flip pair ({i},{j}) outside 1..{m}")

    @classmethod
    def identity(cls, m: int) -> "LanguagePermutation":
        return cls(IndexPermutation.identity(m), FlipSet.empty())

    @property
    def size(self) -> int:
        return self.psi.size

    def is_identity(self) -> bool:
        return self.psi.is_identity() and len(self.flips) == 0

    def act(self, mark: Mark) -> Mark:
        i, chi = mark
        return self.psi(i), flip_permute(chi, self.flips.row(i), self.psi)

    def __mul__(self, other: "LanguagePermutation") -> "LanguagePermutation":
        return compose(self, other)

    def inverse(self) -> "LanguagePermutation":
        return invert(self)

    def __str__(self) -> str:
        return f"psi[{self.psi}] flips[{self.flips}]"


def flip_permute(chi: ValuationFunction, flip_positions: Iterable[int],
                 psi: IndexPermutation) -> ValuationFunction:
    """Flip ``chi`` on the given positions, then reindex by ``psi``.

    The same valuation as ``chi.flipped(flip_positions).permuted(psi)``,
    built in one pass: bit ``k`` of ``chi``, flipped when ``k`` is a given
    position, is bit ``psi(k)`` of the image.  ``chi`` and ``psi`` must
    share their index set.
    """
    if chi.size != psi.size:
        raise InputError(f"valuation of size {chi.size} reindexed by a permutation "
                         f"of 1..{psi.size}")
    flip = frozenset(flip_positions)
    bits = [0] * chi.size
    for k, (bit, target) in enumerate(zip(chi.bits, psi.images), start=1):
        bits[target - 1] = bit ^ (k in flip)
    return ValuationFunction(bits)


def compose(g: LanguagePermutation, h: LanguagePermutation) -> LanguagePermutation:
    """Normal form of ``g`` after ``h`` (``compose(g, h).act == g.act(h.act(.))``)."""
    if g.size != h.size:
        raise InputError("composing language permutations over different index sets")
    psi = g.psi * h.psi
    flips = g.flips.mapped(h.psi.inverse()) ^ h.flips
    return LanguagePermutation(psi, flips)


def invert(g: LanguagePermutation) -> LanguagePermutation:
    return LanguagePermutation(g.psi.inverse(), g.flips.mapped(g.psi))


class GammaLStructure:
    """Edge-labelled graph enriched with a partial mate map and unary marks.

    ``mates`` is a partial unary function on vertices; suitable expansions
    keep it symmetric (it pairs antipodes), but the type admits arbitrary
    partial maps so that function-closure behaviour is representable.  Each
    vertex carries at most one mark ``(index, valuation)``; all valuations
    must share one size.  Instances are immutable and compare by value.
    """

    __slots__ = ("_base", "_mates", "_marks")

    def __init__(self, base: EdgeLabelledGraph,
                 mates: Mapping[Vertex, Vertex] | Iterable[tuple[Vertex, Vertex]] = (),
                 marks: Mapping[Vertex, Mark] | Iterable[tuple[Vertex, int, ValuationFunction]] = ()):
        self._base = base
        mate_map: dict = {}
        items = mates.items() if hasattr(mates, "items") else mates
        for u, v in items:
            if u not in base or v not in base:
                raise InputError(f"mate pair ({u!r}, {v!r}) uses unknown vertices")
            if u in mate_map and mate_map[u] != v:
                raise InputError(f"conflicting mate images for {u!r}")
            mate_map[u] = v
        self._mates = mate_map
        mark_map: dict = {}
        if hasattr(marks, "items"):
            entries = [(v, i, chi) for v, (i, chi) in marks.items()]
        else:
            entries = list(marks)
        size = None
        for v, i, chi in entries:
            if v not in base:
                raise InputError(f"mark on unknown vertex {v!r}")
            if not isinstance(i, int) or i < 1:
                raise InputError(f"mark index must be a positive integer, got {i!r}")
            if not isinstance(chi, ValuationFunction):
                raise InputError("mark valuation must be a ValuationFunction")
            if size is None:
                size = chi.size
            elif chi.size != size:
                raise InputError("all valuations must share one size")
            if i > chi.size:
                raise InputError(f"mark index {i} outside the valuation size {chi.size}")
            if v in mark_map:
                raise InputError(f"vertex {v!r} carries more than one mark")
            mark_map[v] = (i, chi)
        self._marks = mark_map

    @property
    def base(self) -> EdgeLabelledGraph:
        return self._base

    @property
    def vertices(self) -> tuple:
        return self._base.vertices

    @property
    def delta(self) -> int:
        return self._base.delta

    def __len__(self) -> int:
        return len(self._base)

    def index(self, v: Vertex) -> int:
        return self._base.index(v)

    def dist(self, u: Vertex, v: Vertex):
        return self._base.dist(u, v)

    def mate(self, v: Vertex):
        if v not in self._base:
            raise InputError(f"unknown vertex {v!r}")
        return self._mates.get(v)

    def mate_pairs(self) -> list[tuple[Vertex, Vertex]]:
        return sorted(self._mates.items(), key=lambda p: self._base.index(p[0]))

    def mark(self, v: Vertex):
        if v not in self._base:
            raise InputError(f"unknown vertex {v!r}")
        return self._marks.get(v)

    def mark_index(self, v: Vertex) -> int:
        mark = self.mark(v)
        if mark is None:
            raise InputError(f"vertex {v!r} does not carry exactly one mark")
        return mark[0]

    def valuation(self, v: Vertex) -> ValuationFunction:
        mark = self.mark(v)
        if mark is None:
            raise InputError(f"vertex {v!r} does not carry exactly one mark")
        return mark[1]

    @property
    def mark_size(self):
        for _, chi in self._marks.values():
            return chi.size
        return None

    def fully_marked(self) -> bool:
        return len(self._marks) == len(self._base)

    def induced(self, keep: Iterable[Vertex]) -> "GammaLStructure":
        wanted = set(keep)
        for v in wanted:
            target = self._mates.get(v)
            if target is not None and target not in wanted:
                raise InputError(
                    f"vertex set is not closed under the mate map ({v!r} -> {target!r})")
        return GammaLStructure(
            self._base.induced(wanted),
            {u: v for u, v in self._mates.items() if u in wanted},
            {v: mark for v, mark in self._marks.items() if v in wanted})

    def __eq__(self, other):
        if not isinstance(other, GammaLStructure):
            return NotImplemented
        return (self._base == other._base and self._mates == other._mates
                and self._marks == other._marks)

    def __hash__(self):
        return hash((self._base, frozenset(self._mates.items()),
                     frozenset(self._marks.items())))

    def __repr__(self):
        marks = ", ".join(f"{v}:U_{i}^{chi}" for v, (i, chi) in
                          sorted(self._marks.items(), key=lambda p: self._base.index(p[0])))
        return f"GammaLStructure({self._base!r}, mates={self.mate_pairs()}, marks=[{marks}])"


def closure(structure: GammaLStructure, seeds: Iterable[Vertex]) -> GammaLStructure:
    """Smallest substructure containing ``seeds``: close forward under mates.

    Monotone and idempotent.
    """
    closed = set(seeds)
    frontier = list(closed)
    while frontier:
        v = frontier.pop()
        target = structure.mate(v)
        if target is not None and target not in closed:
            closed.add(target)
            frontier.append(target)
    return structure.induced(closed)


def f_from_marks(structure: GammaLStructure, u: Vertex, v: Vertex) -> int:
    """Mutual-valuation disagreement bit: 0 when the two bits agree, else 1."""
    if u == v:
        raise InputError("the pair function is defined on distinct vertices")
    return 0 if structure.valuation(u)(structure.mark_index(v)) == \
        structure.valuation(v)(structure.mark_index(u)) else 1


def build_suitable_expansion(graph: EdgeLabelledGraph, desc: ClassDescriptor,
                             orientation: OrientationSet | None = None) -> GammaLStructure:
    """Mark a perfectly matched member so that parities become mark-definable.

    Edge ``i`` of the matching gets valuation ``chi_i`` on its canonical
    representative, where ``chi_i(j) = 1`` exactly when ``i > j`` and the
    distance between the representatives of edges ``i`` and ``j`` lies on the
    selected parity side; the mate carries the complement.  The output always
    passes :func:`is_suitable_expansion`.
    """
    _orientation_args(desc, orientation)
    if not is_member(graph, desc):
        raise InputError("suitable expansions are defined for class members")
    matching = delta_matching(graph, desc, require_perfect=True)
    if desc.variant is Variant.EVEN_BIPARTITE and matching.m > 0 and \
            len(matching.part_one) != len(matching.part_two):
        raise InputError(
            "bipartite expansion needs equally many long edges in both parts; "
            "apply pad_bipartition first")
    m = matching.m
    marks = []
    for i, (x, y) in enumerate(matching.edges, start=1):
        bits = []
        for j in range(1, m + 1):
            if i > j and _label_side_ok(graph.dist(x, matching.representative(j)),
                                        1, desc, orientation):
                bits.append(1)
            else:
                bits.append(0)
        chi = ValuationFunction(tuple(bits))
        marks.append((x, i, chi))
        marks.append((y, i, chi.complement()))
    mates = []
    for x, y in matching.edges:
        mates.append((x, y))
        mates.append((y, x))
    expansion = GammaLStructure(graph, mates, marks)
    problems = suitable_expansion_violations(expansion, graph, desc, orientation)
    if problems:
        raise InternalError(f"internal: built expansion is not suitable: {problems[0]}")
    return expansion


def suitable_expansion_violations(expansion: GammaLStructure, graph: EdgeLabelledGraph,
                                  desc: ClassDescriptor,
                                  orientation: OrientationSet | None = None,
                                  lang_partition: tuple[frozenset, frozenset] | None = None
                                  ) -> list[str]:
    """All broken suitable-expansion conditions, as readable strings."""
    _orientation_args(desc, orientation)
    out: list[str] = []
    if expansion.base != graph:
        return ["expansion and member differ in vertices or distances"]
    if not is_member(graph, desc):
        return ["underlying graph is not a class member"]
    delta = desc.delta
    vs, rows = graph.vertices, graph._rows
    mate = {v: expansion.mate(v) for v in vs}
    mark = {v: expansion.mark(v) for v in vs}
    for i, u in enumerate(vs):
        for j, v in enumerate(vs):
            if i != j and (mate[u] == v) != (rows[i][j] == delta):
                out.append(f"mate map disagrees with distance {delta} on ({u}, {v})")
    unmarked = [v for v in vs if mark[v] is None]
    if unmarked:
        out.append(f"vertices without a mark: {unmarked}")
        return out
    for u, v, label in graph.edges():
        if label == delta:
            iu, chiu = mark[u]
            iv, chiv = mark[v]
            if iu != iv or chiv != chiu.complement():
                out.append(f"mates ({u}, {v}) do not carry complementary marks")
    for u, v, label in graph.edges():
        # the mutual bit of f_from_marks; every index lies within every valuation
        (iu, chiu), (iv, chiv) = mark[u], mark[v]
        differ = chiu.bits[iv - 1] != chiv.bits[iu - 1]
        if desc.variant is Variant.ODD_NON_BIPARTITE:
            if differ != (label % 2 == 1):
                out.append(f"mutual valuations on ({u}, {v}) disagree with parity {label}")
        else:
            if differ and label not in orientation:
                out.append(f"valuations differ on ({u}, {v}) but {label} is off-side")
            if not differ and not orientation.co_contains(label):
                out.append(f"valuations agree on ({u}, {v}) but {label} is on-side")
    if desc.variant is Variant.EVEN_BIPARTITE and len(graph) > 0:
        part1, part2 = parity_parts(graph)
        if lang_partition is None:
            matching = delta_matching(graph, desc, require_perfect=False)
            lang_partition = (matching.part_one, matching.part_two)
        d1, d2 = lang_partition
        if d1 is None:
            out.append("no index bipartition available for the partition condition")
        else:
            p1 = frozenset(v for v in vs if mark[v][0] in d1)
            p2 = frozenset(v for v in vs if mark[v][0] in d2)
            if p1 | p2 != frozenset(vs):
                out.append("some mark index lies outside the index bipartition")
            elif not ((p1 == part1 and p2 == part2) or (p1 == part2 and p2 == part1)):
                out.append("mark indices do not respect the vertex bipartition")
    return out


def is_suitable_expansion(expansion: GammaLStructure, graph: EdgeLabelledGraph,
                          desc: ClassDescriptor,
                          orientation: OrientationSet | None = None,
                          lang_partition: tuple[frozenset, frozenset] | None = None) -> bool:
    return not suitable_expansion_violations(expansion, graph, desc, orientation,
                                             lang_partition)


def pad_bipartition(graph: EdgeLabelledGraph, desc: ClassDescriptor) -> EdgeLabelledGraph:
    """Balance the two parts' long-edge counts by adding edges to the thinner part.

    New mates are joined to the rest at canonical near-half distances of the
    right parity and the result is verified to stay a member; balanced inputs
    come back unchanged.  The labels come from
    :func:`~antipodal.membership._doubled_edges` over the representatives.
    """
    if desc.variant is not Variant.EVEN_BIPARTITE:
        raise InputError("padding applies to even-bipartite classes only")
    if not is_member(graph, desc):
        raise InputError("padding is defined for class members")
    matching = delta_matching(graph, desc, require_perfect=True)
    if matching.m == 0 or len(matching.part_one) == len(matching.part_two):
        return graph
    part1, part2 = parity_parts(graph)
    thin_is_one = len(matching.part_one) < len(matching.part_two)
    thin_part = part1 if thin_is_one else part2
    k = abs(len(matching.part_one) - len(matching.part_two))
    delta = desc.delta
    half = delta // 2
    even_value = half if half % 2 == 0 else half + 1
    odd_value = half if half % 2 == 1 else half + 1
    if k > 1 and even_value >= delta:
        raise CompletionError("cannot place several padding edges at this diameter")
    taken = set(graph.vertices)
    new_pairs = []
    for t in range(1, k + 1):
        a, b = f"p{t}", f"p{t}*"
        while a in taken or b in taken:
            a, b = a + "+", b + "+"
        taken.update((a, b))
        new_pairs.append((a, b))
    vertices = graph.vertices + tuple(v for pair in new_pairs for v in pair)
    reps = graph.induced(x for x, _ in matching.edges)
    edges = list(reps.edges())
    for s, (a, _) in enumerate(new_pairs):
        edges += [(a, x, even_value if x in thin_part else odd_value)
                  for x, _ in matching.edges]
        edges += [(a, a2, even_value) for a2, _ in new_pairs[s + 1:]]
    padded = EdgeLabelledGraph(
        vertices, delta, _doubled_edges(list(matching.edges) + new_pairs, edges, delta))
    if not is_member(padded, desc):
        raise CompletionError("padding left the class; no extension found")
    check = delta_matching(padded, desc, require_perfect=True)
    if len(check.part_one) != len(check.part_two):
        raise CompletionError("padding failed to balance the bipartition")
    return padded
