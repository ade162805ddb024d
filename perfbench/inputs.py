"""Seeded benchmark inputs, built without calling the library.

Every structure here is plain data: a diameter, a vertex tuple and a dict
from unordered pairs (frozensets) to labels.  Members come from folded
labellings that are members for every draw, doubled by the benchmark itself:

* (3,1): folded labels in {1, 2};
* (5,2): folded labels in {2, 3};
* (4,4): a balanced 2-colouring, label 2 inside a colour, 1 or 3 across.

The seed chooses the labels, the vertex names and the vertex order.  Search
instances are fixed folded labellings (listed in ``workloads.py``) whose
names come from the seed, so every seed runs the same searches up to
renaming; that keeps their cost, and their verdicts, seed-independent.
Partial members for completion are drawn once per instance and renamed per
seed (:func:`rename`), for the same reason.
"""

from __future__ import annotations

import random


class Structure:
    """Partial edge-labelled graph as plain data."""

    __slots__ = ("delta", "vertices", "labels")

    def __init__(self, delta, vertices, labels):
        self.delta = delta
        self.vertices = tuple(vertices)
        self.labels = dict(labels)

    def dist(self, u, v):
        return self.labels.get(frozenset((u, v)))

    def induced(self, keep):
        keep = set(keep)
        return Structure(self.delta, [v for v in self.vertices if v in keep],
                         {k: l for k, l in self.labels.items() if k <= keep})

    def edges(self):
        """Labelled pairs in vertex order, each once."""
        vs = self.vertices
        for i, u in enumerate(vs):
            for v in vs[i + 1:]:
                label = self.labels.get(frozenset((u, v)))
                if label is not None:
                    yield u, v, label


def fresh_names(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct seeded tokens, usable as vertex names in files."""
    names: list[str] = []
    seen = set()
    while len(names) < count:
        token = "%08x" % rng.getrandbits(32)
        if token not in seen:
            seen.add(token)
            names.append(token)
    return names


def folded_labels(rng: random.Random, delta: int, K: int, m: int) -> dict:
    """Labels on the pairs of ``m`` folded vertices (index pairs ``(i, j)``, i < j)."""
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    if (delta, K) == (3, 1):
        return {p: rng.choice((1, 2)) for p in pairs}
    if (delta, K) == (5, 2):
        return {p: rng.choice((2, 3)) for p in pairs}
    if (delta, K) == (4, 4):
        colour = [0] * (m // 2) + [1] * (m - m // 2)
        rng.shuffle(colour)
        return {(i, j): 2 if colour[i] == colour[j] else rng.choice((1, 3))
                for i, j in pairs}
    raise ValueError(f"no member family for ({delta},{K})")


def double(rng: random.Random, delta: int, m: int, folded: dict,
           shuffle: bool = True) -> tuple[Structure, list[tuple[str, str]]]:
    """Antipodal doubling of a folded labelling on ``m`` vertices.

    Folded vertex ``i`` becomes the pair ``(x_i, y_i)`` at distance ``delta``;
    ``d(x_i, x_j) = d(y_i, y_j) = a`` and the crossing pairs get
    ``delta - a``.  Returns the structure and its pairs ``(x_i, y_i)``.
    """
    tokens = fresh_names(rng, m)
    pairs = [("x" + t, "y" + t) for t in tokens]
    labels = {}
    for x, y in pairs:
        labels[frozenset((x, y))] = delta
    for (i, j), a in folded.items():
        (xi, yi), (xj, yj) = pairs[i], pairs[j]
        labels[frozenset((xi, xj))] = a
        labels[frozenset((yi, yj))] = a
        labels[frozenset((xi, yj))] = delta - a
        labels[frozenset((yi, xj))] = delta - a
    order = [v for pair in pairs for v in pair]
    if shuffle:
        rng.shuffle(order)
    return Structure(delta, order, labels), pairs


def member(rng: random.Random, delta: int, K: int, size: int):
    """Seeded member of ``(delta, K)`` on ``size`` vertices, with its mate pairs."""
    m = size // 2
    return double(rng, delta, m, folded_labels(rng, delta, K, m))


def rename(rng: random.Random, structure: Structure, pairs):
    """Copy with fresh seeded names; vertex order and labels stay as they are."""
    new = {}
    for (x, y), token in zip(pairs, fresh_names(rng, len(pairs))):
        new[x], new[y] = "x" + token, "y" + token
    labels = {frozenset(new[v] for v in key): label for key, label in structure.labels.items()}
    return (Structure(structure.delta, [new[v] for v in structure.vertices], labels),
            [(new[x], new[y]) for x, y in pairs])


def drop_folded_pairs(rng: random.Random, structure: Structure, pairs, share: float):
    """Copy with ``share`` of the folded pairs unlabelled.

    A folded pair ``(i, j)`` stands for the four pairs between the mated
    pairs ``i`` and ``j``; all four are dropped together, so the long edges
    still form a perfect matching and antipodal sums still hold.
    """
    folded = [(i, j) for i in range(len(pairs)) for j in range(i + 1, len(pairs))]
    drop = rng.sample(folded, round(share * len(folded)))
    labels = dict(structure.labels)
    for i, j in drop:
        (xi, yi), (xj, yj) = pairs[i], pairs[j]
        for u, v in ((xi, xj), (yi, yj), (xi, yj), (yi, xj)):
            del labels[frozenset((u, v))]
    return Structure(structure.delta, structure.vertices, labels)


def elg_text(structure: Structure, K: int | None = None) -> str:
    """The structure in the library's ``elg 1`` file format."""
    lines = ["elg 1", f"delta {structure.delta}"]
    if K is not None:
        lines.append(f"K {K}")
    lines += [f"vertex {v}" for v in structure.vertices]
    lines += [f"edge {u} {v} {l}" for u, v, l in structure.edges()]
    return "\n".join(lines) + "\n"
