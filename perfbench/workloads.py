"""The three workloads: their instances, their operations and how each is checked.

An operation is one ``pipeline(graph, desc, "search", max_vertices=B)``
call, one in-process ``antipodal.cli.run(argv)``, or one
``antipodal_complete`` call.  :func:`build` turns a workload name and a seed
into a list of :class:`Op`; a pass runs every op once, in order.
"""

from __future__ import annotations

import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import checkers
import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
VERDICTS = os.path.join(HERE, "verdicts.json")

# Search instances: (id, delta, K, folded labels on the matched pairs, bound).
# Folded pair (i, j) with label a means d(x_i, x_j) = a in the doubled input.
# No operation may take more than a small share of a pass: an operation's
# time is a median over the run's passes, and a run of 30 s holds too few
# samples of a multi-second search (README.md).  That keeps 3-pair (5,2)
# inputs, 6 to 26 s at bound 10, at bound 8.
SEARCH_WIDE = [
    ("wide-31-122-b10", 3, 1, {(0, 1): 1, (0, 2): 2, (1, 2): 2}, 10),
    ("wide-44-213-b10", 4, 4, {(0, 1): 2, (0, 2): 1, (1, 2): 3}, 10),
    ("wide-52-134-b8", 5, 2, {(0, 1): 1, (0, 2): 3, (1, 2): 4}, 8),
    ("wide-52-232-b8", 5, 2, {(0, 1): 2, (0, 2): 3, (1, 2): 2}, 8),
]
# Two matched pairs keep the language parts few.  (4,4) with a = 2 puts both
# pairs in one parity class, padding adds two more, so it runs at bound 8 only;
# (6,6) with a = 5 at bound 10 takes 6 s, so it too runs at bound 8 only.
SEARCH_DEEP = [
    (f"deep-{d}{K}-{a}-b{bound}", d, K, {(0, 1): a}, bound)
    for d, K, a, bounds in [
        (4, 4, 1, (8, 10)), (5, 1, 2, (8, 10)), (5, 2, 2, (8, 10)),
        (6, 6, 3, (8, 10)), (7, 2, 3, (8, 10)), (7, 3, 3, (8, 10)),
        (4, 4, 2, (8,)), (5, 2, 1, (8,)), (6, 6, 5, (8,)),
        (7, 2, 6, (8,)), (7, 3, 1, (8,)),
    ]
    for bound in bounds
]
SEARCHES = {"search-wide": SEARCH_WIDE, "search-deep": SEARCH_DEEP}

# members-at-scale: CLI operations per (delta, K, size); gen sizes at which
# random_member succeeded for 400 of 400 seeds tried; completion (delta, K,
# size, share of folded pairs dropped).  Sparse (4,4) completion is left out:
# it raises CompletionNotEquivariant on some seeds (see CHANGES.md).
CLI_MEMBERS = [(3, 1, 96), (5, 2, 64), (4, 4, 64)]
GEN_SIZES = [(3, 1, 48), (5, 2, 20), (4, 4, 16)]
COMPLETIONS = [(3, 1, 20, 0.5), (5, 2, 20, 0.5), (4, 4, 20, 0.5),
               (3, 1, 16, 0.5), (5, 2, 16, 0.5), (4, 4, 16, 0.5),
               (3, 1, 16, 0.7), (5, 2, 16, 0.7)]

WORKLOADS = ("search-wide", "search-deep", "members-at-scale")


@dataclass
class Op:
    """One timed call.  ``digest`` and ``check`` run outside the timed region."""

    kind: str
    label: str
    call: Callable[[], object]
    digest: Callable[[object], object]
    check: Callable[[object], str | None]


def load_verdicts() -> dict:
    with open(VERDICTS, encoding="utf-8") as handle:
        return json.load(handle)["verdicts"]


def to_graph(lib, s):
    return lib.structures.EdgeLabelledGraph(s.vertices, s.delta, list(s.edges()))


def search_input(lib, inst, rng: random.Random, shuffle: bool = False):
    """The doubled input of a search instance, with seeded names."""
    _, d, K, folded, _ = inst
    m = 1 + max(j for _, j in folded)
    s, _ = inputs.double(rng, d, m, folded, shuffle=shuffle)
    return to_graph(lib, s), lib.membership.ClassDescriptor(d, K)


def search_ops(lib, name: str, seed: int) -> list[Op]:
    verdicts = load_verdicts()
    ops = []
    for inst in SEARCHES[name]:
        ident, d, K, _, bound = inst
        graph, desc = search_input(lib, inst, random.Random(f"{name}/{seed}/{ident}"))
        if ident not in verdicts:
            raise KeyError(f"no verdict for {ident}; rebuild perfbench/verdicts.json")
        expected = verdicts[ident]
        kind = "search_none" if expected is None else "search_found"

        def call(graph=graph, desc=desc, bound=bound):
            return lib.extension.pipeline(graph, desc, "search", max_vertices=bound)

        def digest(r):
            return (r.ok, tuple(r.witness.edges()) if r.ok else None,
                    repr(r.witness_expansion) if r.ok else None)

        def check(r, graph=graph, d=d, K=K, expected=expected):
            got = len(r.witness) if r.ok else None
            if got != expected:
                return f"verdict {got}, the verdict table says {expected}"
            closed = checkers.from_graph(r.base)
            for u, v, label in graph.edges():
                if closed.dist(u, v) != label:
                    return "the closed input lost an input label"
            small = checkers.from_graph(r.expansion)
            problem = checkers.expansion_problem(small, d, K)
            if problem:
                return "input expansion: " + problem
            if not r.ok:
                return None
            return checkers.check_witness(
                closed, checkers.from_graph(r.witness), checkers.from_graph(r.witness_expansion),
                small, d, K, checkers.lang_partition(small, d, K))

        ops.append(Op(kind, ident, call, digest, check))
    return ops


class Files:
    """Input and output files of the command-line operations, in one directory."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def write(self, name: str, text: str) -> str:
        path = self.path(name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return path

    def read(self, path: str) -> str:
        with open(path, encoding="utf-8") as handle:
            return handle.read()


def cli_op(lib, files: Files, kind: str, label: str, argv: list, out: str | None,
           check: Callable) -> Op:
    """A ``cli.run`` call; its result is (exit code, report lines, output file text)."""

    def call():
        if out is not None and os.path.exists(out):
            os.remove(out)
        buffer = io.StringIO()
        code = lib.cli.run(argv, buffer)
        return code, buffer.getvalue()

    def digest(result):
        code, report = result
        text = files.read(out) if out is not None and os.path.exists(out) else None
        return code, report, text

    def checked(result):
        code, report = result
        lines = dict(line.split("\t", 1) for line in report.splitlines())
        text = files.read(out) if out is not None and os.path.exists(out) else None
        return check(code, lines, text)

    return Op(kind, label, call, digest, checked)


def _member_ops(lib, files: Files, rng: random.Random, d: int, K: int, n: int) -> list[Op]:
    s, pairs = inputs.member(rng, d, K, n)
    half = s.induced(x for x, _ in pairs)
    tag = f"{d}{K}-{n}"
    member_file = files.write(f"member-{tag}.elg", inputs.elg_text(s, K))
    half_file = files.write(f"half-{tag}.elg", inputs.elg_text(half, K))
    folded_file, unfolded_file = files.path(f"folded-{tag}.elg"), files.path(f"unfolded-{tag}.elg")
    closed_file, expanded_file = files.path(f"closed-{tag}.elg"), files.path(f"expanded-{tag}.elg")
    phi = dict(rng.sample(pairs, 4))
    state = {}

    def exit_ok(code, lines, text, outcome):
        if code != 0 or lines.get("outcome") != outcome:
            return f"exit {code}, outcome {lines.get('outcome')}"
        return None

    def check_validate(code, lines, text):
        outcome = lines.get("outcome")
        return checkers.check_validate(outcome, s, d, K) or (
            None if code == {"member": 0, "non-member": 1}[outcome] else f"exit {code}")

    def check_fold(code, lines, text):
        return exit_ok(code, lines, text, "folded") or (
            None if len(checkers.parse_elg(text).vertices) == n // 2 else "fold kept the wrong vertices")

    def check_unfold(code, lines, text):
        return exit_ok(code, lines, text, "unfolded") or checkers.check_roundtrip(
            s, pairs, checkers.parse_elg(text), d)

    def check_close(code, lines, text):
        return exit_ok(code, lines, text, "closed") or checkers.check_roundtrip(
            s, pairs, checkers.parse_elg(text), d)

    def check_expand(code, lines, text):
        problem = exit_ok(code, lines, text, "expanded")
        if problem:
            return problem
        state["expansion"] = checkers.parse_elg(text)
        return checkers.check_expansion(state["expansion"], s, d, K)

    def check_extend(code, lines, text):
        problem = exit_ok(code, lines, text, "extended")
        if problem:
            return problem
        if "expansion" not in state:
            return "no checked expansion of this member to compare with"
        return checkers.check_extend(*checkers.parse_extend_report(lines), phi, state["expansion"])

    common = ["--delta", str(d), "--K", str(K)]
    pad = ["--pad"] if d == K else []
    return [
        cli_op(lib, files, "validate", f"validate {tag}", ["validate", member_file], None, check_validate),
        cli_op(lib, files, "fold", f"fold {tag}", ["fold", member_file, "--out", folded_file],
               folded_file, check_fold),
        cli_op(lib, files, "fold", f"unfold {tag}",
               ["unfold", folded_file, *common, "--out", unfolded_file], unfolded_file, check_unfold),
        cli_op(lib, files, "fold", f"close {tag}", ["close", half_file, "--out", closed_file],
               closed_file, check_close),
        cli_op(lib, files, "expand", f"expand {tag}",
               ["expand", member_file, *pad, "--out", expanded_file], expanded_file, check_expand),
        cli_op(lib, files, "extend", f"extend {tag}",
               ["extend", member_file, "--map", ",".join(f"{a}:{b}" for a, b in phi.items())],
               None, check_extend),
    ]


def _gen_op(lib, files: Files, rng: random.Random, d: int, K: int, n: int) -> Op:
    out = files.path(f"gen-{d}{K}-{n}.elg")
    argv = ["gen", "--delta", str(d), "--K", str(K), "--size", str(n),
            "--seed", str(rng.randrange(10 ** 6)), "--out", out]

    def check(code, lines, text):
        if code != 0 or lines.get("outcome") != "generated":
            return f"exit {code}, outcome {lines.get('outcome')}"
        return checkers.check_generated(checkers.parse_elg(text), n, d, K)

    return cli_op(lib, files, "gen", f"gen {d}{K}-{n}", argv, out, check)


def _completion_op(lib, rng: random.Random, d: int, K: int, n: int, share: float) -> Op:
    """Completion of one partial member, the same for every seed up to the names
    ``rng`` gives: the cost of sparse completion depends on the instance (at
    16 vertices one seed in ten took 2.6 s against a median of 0.1 s)."""
    desc = lib.membership.ClassDescriptor(d, K)
    orientation = lib.completion.OrientationSet.default(d) if d == K else None
    shape = random.Random(f"complete/{d}{K}/{n}/{share}")
    s, pairs = inputs.rename(rng, *inputs.member(shape, d, K, n))
    expansion = checkers.from_graph(
        lib.valuations.build_suitable_expansion(to_graph(lib, s), desc, orientation))
    marks = expansion.marks
    f = {}
    for u, v, _ in s.edges():
        (iu, cu), (iv, cv) = marks[u], marks[v]
        f[frozenset((u, v))] = int(cu[iv - 1] != cv[iu - 1])
    parity = lib.completion.ParityFunction([(*sorted(p), bit) for p, bit in f.items()])
    partial = inputs.drop_folded_pairs(shape, s, pairs, share)
    graph = to_graph(lib, partial)
    kind = "complete_dense" if share <= 0.5 else "complete_sparse"

    def call():
        return lib.completion.antipodal_complete(graph, parity, desc, orientation, verify_limit=n)

    def check(completed):
        problem = checkers.expansion_problem(expansion, d, K)
        if problem:
            return "the expansion that gives f: " + problem
        return checkers.check_completion(partial, f, checkers.from_graph(completed), d, K)

    return Op(kind, f"{kind} {d}{K}-{n}", call, lambda g: tuple(g.edges()), check)


def build(lib, name: str, seed: int, workdir: str) -> list[Op]:
    """All operations of one pass of workload ``name`` for ``seed``."""
    if name in SEARCHES:
        return search_ops(lib, name, seed)
    if name != "members-at-scale":
        raise ValueError(f"unknown workload {name!r}")
    files = Files(workdir)
    ops: list[Op] = []
    for d, K, n in CLI_MEMBERS:
        ops += _member_ops(lib, files, random.Random(f"{name}/{seed}/cli/{d}{K}/{n}"), d, K, n)
    for d, K, n in GEN_SIZES:
        ops.append(_gen_op(lib, files, random.Random(f"{name}/{seed}/gen/{d}{K}/{n}"), d, K, n))
    for d, K, n, share in COMPLETIONS:
        ops.append(_completion_op(
            lib, random.Random(f"{name}/{seed}/complete/{d}{K}/{n}/{share}"), d, K, n, share))
    return ops
