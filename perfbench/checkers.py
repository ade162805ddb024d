"""Independent checkers for every output the benchmark times.

Nothing here calls the library's predicates.  Class membership is written out
from the definition of the antipodal class ``(delta, K)``: Cherlin's
parameters ``K1 = K``, ``K2 = delta - K``, ``C0 = 2 delta + 2`` and
``C1 = 2 delta + 1``, with ``K1`` infinite (no odd perimeter at all) when
``K == delta``.  Structures are plain data: a vertex tuple and a dict from
frozenset pairs to labels, read from the library's result objects or parsed
here from the files the command line writes.

Every ``check_*`` function returns ``None`` when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import itertools


class Parsed:
    """A structure file: labels, mates and marks, as plain data."""

    def __init__(self):
        self.delta = None
        self.vertices: list = []
        self.labels: dict = {}
        self.mates: dict = {}
        self.marks: dict = {}          # vertex -> (index, bits tuple)

    def dist(self, u, v):
        return self.labels.get(frozenset((u, v)))


def parse_elg(text: str) -> Parsed:
    out = Parsed()
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        key, args = tokens[0], tokens[1:]
        if key == "delta":
            out.delta = int(args[0])
        elif key == "vertex":
            out.vertices.append(args[0])
        elif key == "edge":
            out.labels[frozenset(args[:2])] = int(args[2])
        elif key == "mate":
            out.mates[args[0]] = args[1]
        elif key == "mark":
            out.marks[args[0]] = (int(args[1]), tuple(int(c) for c in args[2]))
    return out


def from_graph(graph) -> Parsed:
    """Plain copy of a library graph (or of the base of a marked structure)."""
    out = Parsed()
    base = getattr(graph, "base", graph)
    out.delta = base.delta
    out.vertices = list(base.vertices)
    out.labels = {frozenset((u, v)): l for u, v, l in base.edges()}
    if base is not graph:
        for v in out.vertices:
            if graph.mate(v) is not None:
                out.mates[v] = graph.mate(v)
            mark = graph.mark(v)
            if mark is not None:
                out.marks[v] = (mark[0], tuple(mark[1].bits))
    return out


def forbidden(a: int, b: int, c: int, delta: int, K: int) -> bool:
    """Whether the triangle ``(a, b, c)`` is excluded from the class ``(delta, K)``."""
    if a > b + c or b > a + c or c > a + b:
        return True
    p = a + b + c
    if p % 2 == 0:
        return p >= 2 * delta + 2
    if K == delta:
        return True
    return p < 2 * K or p > 2 * (delta - K) + 2 * min(a, b, c) or p >= 2 * delta + 1


def _table(delta: int, K: int):
    r = range(delta + 1)
    return [[[a and b and c and forbidden(a, b, c, delta, K) for c in r] for b in r] for a in r]


def member_problem(s, delta: int, K: int):
    """Why ``s`` is not a complete member of ``(delta, K)``, or ``None``."""
    vs = list(s.vertices)
    n = len(vs)
    if len(set(vs)) != n:
        return "duplicate vertices"
    if s.delta is not None and s.delta != delta:
        return f"diameter {s.delta}, expected {delta}"
    index = {v: i for i, v in enumerate(vs)}
    mat = [[0] * n for _ in range(n)]
    for pair, label in s.labels.items():
        u, v = tuple(pair)
        if not 1 <= label <= delta:
            return f"label {label} outside 1..{delta}"
        mat[index[u]][index[v]] = mat[index[v]][index[u]] = label
    if len(s.labels) != n * (n - 1) // 2:
        return f"{n * (n - 1) // 2 - len(s.labels)} pairs unlabelled"
    bad = _table(delta, K)
    for i in range(n):
        row_i = mat[i]
        for j in range(i + 1, n):
            t = bad[row_i[j]]
            row_j = mat[j]
            for k in range(j + 1, n):
                if t[row_i[k]][row_j[k]]:
                    return f"forbidden triangle on {vs[i]}, {vs[j]}, {vs[k]}"
    return None


def _same_up_to(s, t, rename: dict):
    """Why ``t`` is not ``s`` with ``t``'s vertices renamed by ``rename``."""
    if sorted(rename.values()) != sorted(s.vertices) or len(rename) != len(t.vertices):
        return "vertex sets do not correspond"
    if len(t.labels) != len(s.labels):
        return "label counts differ"
    for pair, label in t.labels.items():
        u, v = tuple(pair)
        if s.dist(rename[u], rename[v]) != label:
            return f"label on ({u}, {v}) differs from the original"
    return None


def _antipode(t, v, delta):
    for w in t.vertices:
        if w != v and t.dist(v, w) == delta:
            return w
    return None


def check_validate(outcome: str, s, delta: int, K: int):
    expected = "member" if member_problem(s, delta, K) is None else "non-member"
    return None if outcome == expected else f"validate said {outcome}, checker says {expected}"


def check_roundtrip(original, pairs, result, delta: int):
    """``result`` (unfold of a fold, or close of one side) equals ``original`` up to names.

    Vertices of ``result`` that ``original`` has keep their names; every other
    one must be the antipode of an original vertex ``x`` and stands for the
    original mate of ``x``.
    """
    mate = {}
    for x, y in pairs:
        mate[x], mate[y] = y, x
    rename = {}
    for v in result.vertices:
        if v in mate:
            rename[v] = v
            continue
        partner = _antipode(result, v, delta)
        if partner not in mate:
            return f"new vertex {v} has no original antipode"
        rename[v] = mate[partner]
    return _same_up_to(original, result, rename)


def _on_side(label: int, bit: int, delta: int, bipartite: bool) -> bool:
    if not bipartite:
        return label % 2 == bit
    return 2 * label >= delta if bit == 1 else 2 * (delta - label) >= delta


def expansion_problem(e, delta: int, K: int, lang_part=None):
    """Why the marked structure ``e`` is not a suitable expansion of its base.

    Mates are exactly the pairs at distance ``delta`` and carry one index with
    complementary valuations; the two mutual valuation bits of a pair differ
    exactly when its label lies on the selected side (odd labels, or the
    default orientation ``2a >= delta`` in the bipartite case).  In the
    bipartite case the indices of the two parity classes are disjoint and,
    when ``lang_part`` is given, each class uses one side of it.
    """
    bipartite = K == delta
    vs = e.vertices
    for v in vs:
        if v not in e.marks:
            return f"vertex {v} has no mark"
    for u, v in itertools.combinations(vs, 2):
        label = e.dist(u, v)
        if label is None:
            return f"pair ({u}, {v}) unlabelled"
        if (e.mates.get(u) == v) != (label == delta) or (e.mates.get(v) == u) != (label == delta):
            return f"mate map disagrees with distance {label} on ({u}, {v})"
        (iu, cu), (iv, cv) = e.marks[u], e.marks[v]
        if label == delta and (iu != iv or any(a == b for a, b in zip(cu, cv))):
            return f"mates ({u}, {v}) do not carry complementary marks"
        differ = cu[iv - 1] != cv[iu - 1]
        if bipartite:
            ok = (2 * label >= delta) if differ else (2 * (delta - label) >= delta)
        else:
            ok = differ == (label % 2 == 1)
        if not ok:
            return f"mutual valuations on ({u}, {v}) disagree with label {label}"
    if bipartite and vs:
        anchor = vs[0]
        classes = ({e.marks[v][0] for v in vs if v == anchor or e.dist(anchor, v) % 2 == 0},
                   {e.marks[v][0] for v in vs if v != anchor and e.dist(anchor, v) % 2 == 1})
        if classes[0] & classes[1]:
            return "an index is used in both parity classes"
        if lang_part is not None and not any(
                classes[0] <= a and classes[1] <= b for a, b in (lang_part, lang_part[::-1])):
            return "parity classes do not follow the index bipartition"
    return None


def check_expansion(e, member, delta: int, K: int):
    if sorted(e.vertices) != sorted(member.vertices) or e.labels != member.labels:
        return "expansion changed the member"
    return expansion_problem(e, delta, K)


def act(psi: dict, flips: set, mark):
    """Image of the mark ``(i, chi)``: flip row ``i`` of ``flips``, then reindex by ``psi``."""
    i, chi = mark
    out = [0] * len(chi)
    for j in range(1, len(chi) + 1):
        out[psi[j] - 1] = chi[j - 1] ^ ((i, j) in flips)
    return psi[i], tuple(out)


def parse_extend_report(lines: dict):
    closure = dict(item.split(":") for item in lines["closure"].split(","))
    psi = {int(a): int(b) for a, b in (item.split(":") for item in lines["psi"].split(","))}
    text = lines["flips"]
    flips = set() if text == "-" else {tuple(map(int, item.split(","))) for item in text.split(";")}
    return closure, psi, flips


def check_extend(closure: dict, psi: dict, flips: set, phi: dict, e):
    """The closed map extends ``phi``, is mate-closed and label-preserving, and
    the language part ``(psi, flips)`` carries each mark onto the image's mark."""
    m = len(next(iter(e.marks.values()))[1])
    if sorted(psi) != list(range(1, m + 1)) or sorted(psi.values()) != list(range(1, m + 1)):
        return "psi is not a permutation of the indices"
    if any((j, i) not in flips for i, j in flips):
        return "flip set is not symmetric"
    if any(closure.get(s) != t for s, t in phi.items()):
        return "closure does not extend the given map"
    if len(set(closure.values())) != len(closure):
        return "closure is not injective"
    for s, t in closure.items():
        if closure.get(e.mates[s]) != e.mates[t]:
            return f"closure is not mate-closed at {s}"
        if e.marks[t] != act(psi, flips, e.marks[s]):
            return f"language part does not carry the mark of {s} onto that of {t}"
    for (s1, t1), (s2, t2) in itertools.combinations(closure.items(), 2):
        if e.dist(s1, s2) != e.dist(t1, t2):
            return f"closure breaks the label on ({s1}, {s2})"
    return None


def check_completion(partial, f: dict, completed, delta: int, K: int):
    """A member on the same vertices that keeps every input label and puts
    every pair on the side ``f`` selects."""
    if list(completed.vertices) != list(partial.vertices):
        return "completion changed the vertex set"
    for pair, label in partial.labels.items():
        if completed.labels.get(pair) != label:
            return f"completion changed the input label on {sorted(pair)}"
    bipartite = K == delta
    for pair, label in completed.labels.items():
        if not _on_side(label, f[pair], delta, bipartite):
            return f"label {label} on {sorted(pair)} is off the side f selects"
    return member_problem(completed, delta, K)


def check_generated(g, size: int, delta: int, K: int):
    if len(g.vertices) != size:
        return f"generated {len(g.vertices)} vertices, asked for {size}"
    return member_problem(g, delta, K)


def automorphisms(s) -> list[dict]:
    """All label-preserving permutations of ``s``, by exhaustive backtracking."""
    vs = list(s.vertices)
    out = []
    image: dict = {}

    def rec(k):
        if k == len(vs):
            out.append(dict(image))
            return
        v = vs[k]
        for t in vs:
            if t in image.values():
                continue
            if all(s.dist(v, u) == s.dist(t, image[u]) for u in vs[:k]):
                image[v] = t
                rec(k + 1)
                del image[v]

    rec(0)
    return out


def partial_isomorphisms(s) -> list[dict]:
    """All injective label-preserving partial maps of ``s`` into itself."""
    vs = list(s.vertices)
    out = []
    for k in range(len(vs) + 1):
        for dom in itertools.combinations(vs, k):
            for img in itertools.permutations(vs, k):
                if all(s.dist(a, b) == s.dist(img[i], img[j])
                       for (i, a), (j, b) in itertools.combinations(enumerate(dom), 2)):
                    out.append(dict(zip(dom, img)))
    return out


def check_witness(closed, witness, witness_exp, small_exp, delta: int, K: int, lang_part=None):
    """Brute-force re-audit of a found witness.

    The witness contains the closed input, is a member, its expansion is
    suitable and extends the small one, and every partial automorphism of the
    closed input is the restriction of an automorphism of the witness.
    """
    for pair, label in closed.labels.items():
        if witness.labels.get(pair) != label:
            return "witness does not contain the closed input"
    problem = member_problem(witness, delta, K)
    if problem:
        return "witness: " + problem
    if witness_exp.labels != witness.labels:
        return "witness expansion has another base"
    for v, mark in small_exp.marks.items():
        if witness_exp.marks.get(v) != mark:
            return f"witness expansion changed the mark of {v}"
    problem = expansion_problem(witness_exp, delta, K, lang_part)
    if problem:
        return "witness expansion: " + problem
    auts = automorphisms(witness)
    for p in partial_isomorphisms(closed):
        if not any(all(g[s] == t for s, t in p.items()) for g in auts):
            return f"partial automorphism {p} does not extend"
    return None


def lang_partition(small_exp, delta: int, K: int):
    """Index bipartition of a bipartite small expansion: indices by parity class."""
    if K != delta or not small_exp.vertices:
        return None
    anchor = small_exp.vertices[0]
    one = frozenset(small_exp.marks[v][0] for v in small_exp.vertices
                    if v == anchor or small_exp.dist(anchor, v) % 2 == 0)
    m = len(next(iter(small_exp.marks.values()))[1])
    return one, frozenset(range(1, m + 1)) - one
