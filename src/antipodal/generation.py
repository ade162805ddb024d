"""Seeded random instance generation.

Members are produced by completing a random partial folded graph with a
seeded value order and unfolding the result; failed attempts are rejected and
retried.  Every random draw comes from the one generator passed in, so a seed
reproduces the instance stream exactly.
"""

from __future__ import annotations

import random

from .completion import _complete_folded
from .errors import CompletionError, InputError
from .membership import ClassDescriptor, is_member, unfold
from .structures import EdgeLabelledGraph

EDGE_PROB = 0.5  # chance that a folded pair is labelled before the completion
MAX_ATTEMPTS = 200  # rejected attempts after which generation gives up


def random_member(desc: ClassDescriptor, size: int, rng: random.Random) -> EdgeLabelledGraph:
    """Random member with a perfect matching on ``size`` vertices.

    ``size`` must be even and not negative; the matching pairs ``p{i}``
    with ``p{i}'``.  At most :data:`MAX_ATTEMPTS` attempts are made, each
    labelling a folded pair with chance :data:`EDGE_PROB`.
    """
    if size < 0:
        raise InputError(f"member size must not be negative, got {size}")
    if size % 2:
        raise InputError("members with a perfect matching have an even size")
    if size == 0:
        return EdgeLabelledGraph((), desc.delta)
    m = size // 2
    names = tuple(f"p{i}" for i in range(1, m + 1))
    gdesc = desc.folded()
    for _ in range(MAX_ATTEMPTS):
        edges = []
        for i in range(m):
            for j in range(i + 1, m):
                if rng.random() < EDGE_PROB:
                    edges.append((names[i], names[j], rng.randint(1, desc.delta - 1)))
        folded = EdgeLabelledGraph(names, desc.delta - 1, edges)
        domains = {}
        for u, v in folded.pairs():
            if folded.dist(u, v) is None:
                values = list(range(1, desc.delta))
                rng.shuffle(values)
                domains[(u, v)] = values
        solution = _complete_folded(folded, gdesc, domains)
        if solution is None:
            continue
        complete = EdgeLabelledGraph(
            names, desc.delta - 1,
            [(u, v, solution[(u, v)]) for u, v in folded.pairs()])
        if not is_member(complete, gdesc):
            continue
        return unfold(complete, desc)
    raise CompletionError(
        f"no member found in {MAX_ATTEMPTS} attempts for size {size}")
