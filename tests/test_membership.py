import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipodal import (ClassDescriptor, CompletionError, EdgeLabelledGraph,
                       GeneralClassDescriptor, InputError, Variant, antipodal_closure,
                       automorphisms, delta_matching, find_forbidden_triple, fold,
                       is_forbidden_triangle, is_member, parity_parts, unfold)
from antipodal.generation import random_member
from antipodal.membership import _doubled_edges, _suspect_pairs

from conftest import (all_complete_graphs, brute_first_forbidden_triple, graph,
                      matched_members)

PARAMETERS = ((3, 1), (4, 4), (5, 1), (5, 2), (6, 6), (7, 2), (7, 3))
DESCRIPTORS = [ClassDescriptor(d, k) for d, k in PARAMETERS] + \
    [ClassDescriptor(d, k).folded() for d, k in PARAMETERS]


class TestDescriptors:
    def test_variant_inference(self):
        assert ClassDescriptor(3, 1).variant is Variant.ODD_NON_BIPARTITE
        assert ClassDescriptor(4, 4).variant is Variant.EVEN_BIPARTITE
        assert ClassDescriptor(3, 3).variant is Variant.UNRESTRICTED
        assert ClassDescriptor(4, 2).variant is Variant.UNRESTRICTED

    def test_parameter_validation(self):
        with pytest.raises(InputError):
            ClassDescriptor(3, 2)  # 2 > 3/2 and 2 != 3
        with pytest.raises(InputError):
            ClassDescriptor(1, 1)
        with pytest.raises(InputError):
            ClassDescriptor(4, 4, Variant.ODD_NON_BIPARTITE)

    def test_folded_parameters(self):
        got = ClassDescriptor(5, 2).folded()
        assert (got.delta, got.K1, got.K2, got.C0, got.C1) == (4, 2, 3, 12, 11)
        bip = ClassDescriptor(4, 4).folded()
        assert bip.K1 == float("inf")
        assert (bip.delta, bip.K2, bip.C0, bip.C1) == (3, 0, 10, 9)


class TestForbiddenTriangles:
    def test_delta3_k1_examples(self):
        desc = ClassDescriptor(3, 1)
        assert is_forbidden_triangle(1, 1, 3, desc)    # breaks the triangle inequality
        assert not is_forbidden_triangle(1, 1, 1, desc)
        assert is_forbidden_triangle(3, 3, 2, desc)
        assert is_forbidden_triangle(2, 2, 3, desc)

    def test_bipartite_forbids_odd(self):
        assert is_forbidden_triangle(1, 1, 1, ClassDescriptor(4, 4))

    def test_delta3_k1_full_forbidden_list(self):
        # the family omits exactly (1,1,3), (2,2,3) and (3,3,a) for 1 <= a <= 3
        desc = ClassDescriptor(3, 1)
        forbidden = {m for m in itertools.combinations_with_replacement(range(1, 4), 3)
                     if is_forbidden_triangle(*m, desc)}
        assert forbidden == {(1, 1, 3), (2, 2, 3), (1, 3, 3), (2, 3, 3), (3, 3, 3)}

    def test_out_of_range_labels(self):
        with pytest.raises(InputError):
            is_forbidden_triangle(1, 1, 4, ClassDescriptor(3, 1))
        with pytest.raises(InputError):
            is_forbidden_triangle(0, 1, 1, ClassDescriptor(3, 1))

    def test_k_equals_delta_shape(self):
        # with K = delta the constraint collapses to parity plus perimeter
        for delta in (3, 4, 5):
            desc = ClassDescriptor(delta, delta)
            for t in itertools.product(range(1, delta + 1), repeat=3):
                p = sum(t)
                nonmetric = 2 * max(t) > p
                assert is_forbidden_triangle(*t, desc) == \
                    (nonmetric or p % 2 == 1 or p > 2 * delta)

    def test_general_matches_antipodal(self):
        for delta in (3, 4, 5):
            for K in list(range(1, delta // 2 + 1)) + [delta]:
                desc = ClassDescriptor(delta, K)
                gen = GeneralClassDescriptor(
                    delta, float("inf") if K == delta else K,
                    delta - K, 2 * delta + 2, 2 * delta + 1)
                for t in itertools.product(range(1, delta + 1), repeat=3):
                    assert is_forbidden_triangle(*t, desc) == \
                        is_forbidden_triangle(*t, gen)


class TestMembership:
    def test_quadruple_is_member(self, quadruple, desc31):
        assert is_member(quadruple, desc31)

    def test_flattened_quadruple_is_not(self, desc31):
        g = graph("uvwx", 3, [("u", "v", 3), ("w", "x", 3),
                              ("u", "w", 1), ("u", "x", 1),
                              ("v", "x", 1), ("v", "w", 2)])
        assert not is_member(g, desc31)
        # first forbidden triple in canonical scan order; (u, w, x) is forbidden too
        assert find_forbidden_triple(g, desc31) == ("u", "v", "x")

    def test_trivial_members(self, desc31):
        assert is_member(graph("", 3), desc31)
        assert is_member(graph("u", 3), desc31)

    def test_incomplete_graph_refused(self, desc31):
        with pytest.raises(InputError, match="completion"):
            is_member(graph("uv", 3), desc31)


def _outcome(find, g, desc):
    try:
        return "triple", find(g, desc)
    except InputError as exc:
        return "error", str(exc)


def _random_complete(rng, n, top):
    vs = tuple(f"v{i}" for i in range(n))
    return graph(vs, top, [(u, v, rng.randint(1, top))
                           for u, v in itertools.combinations(vs, 2)])


def _member(rng, desc, size):
    for _ in range(5):
        try:
            return random_member(desc, size, rng)
        except CompletionError:
            continue
    raise AssertionError(f"no member of size {size} for {desc!r}")


def _near_member(rng, desc, n, top):
    """Part of a member, vertices shuffled, often with one label redrawn in ``1..top``."""
    if isinstance(desc, ClassDescriptor):
        member = _member(rng, desc, n + n % 2)
    else:
        antipodal = ClassDescriptor(desc.delta + 1, desc.delta + 1 - desc.K2)
        member = fold(_member(rng, antipodal, 2 * n))
    keep = rng.sample(member.vertices, n)
    edges = {frozenset((u, v)): l for u, v, l in member.induced(keep).edges()}
    if edges and rng.random() < 0.75:
        edges[rng.choice(sorted(edges, key=sorted))] = rng.randint(1, top)
    return graph(keep, max(top, member.delta),
                 [(*sorted(pair), l) for pair, l in edges.items()])


class TestForbiddenTripleKernel:
    """The table scan against the per-triple loop of ``brute_first_forbidden_triple``."""

    @pytest.mark.parametrize("desc", DESCRIPTORS, ids=repr)
    def test_table_matches_predicate(self, desc):
        table = _suspect_pairs(desc)
        d = desc.diameter
        assert len(table) == d + 2 and not table[0]
        for a, b, c in itertools.product(range(1, d + 1), repeat=3):
            assert ((b, c) in table[a]) == is_forbidden_triangle(a, b, c, desc)
        labels = range(1, d + 2)
        for b in labels:
            assert all((b, d + 1) in table[a] and (d + 1, b) in table[a] for a in labels)
        assert table[d + 1] == frozenset(itertools.product(labels, repeat=2))

    @pytest.mark.parametrize("desc", DESCRIPTORS, ids=repr)
    def test_same_first_triple_or_error(self, desc):
        rng = random.Random(f"kernel/{desc!r}")
        d = desc.diameter
        seen = set()
        for n in range(10):
            for top in (d, d + 1, d + 3):
                for _ in range(4):
                    for g in (_random_complete(rng, n, top), _near_member(rng, desc, n, top)):
                        want = _outcome(brute_first_forbidden_triple, g, desc)
                        assert _outcome(find_forbidden_triple, g, desc) == want, g
                        if n >= 3:
                            seen.add("error" if want[0] == "error" else
                                     "member" if want[1] is None else "triple")
        # the folded (3, 1) family forbids no triangle in range
        forbids = any(is_forbidden_triangle(*t, desc)
                      for t in itertools.product(range(1, d + 1), repeat=3))
        assert seen == {"member", "error"} | ({"triple"} if forbids else set())

    def test_labels_above_the_diameter_need_a_triple(self):
        desc = ClassDescriptor(3, 1).folded()
        assert find_forbidden_triple(graph("uv", 3, [("u", "v", 3)]), desc) is None
        g = graph("uvw", 3, [("u", "v", 1), ("u", "w", 1), ("v", "w", 3)])
        with pytest.raises(InputError, match=r"label 3 outside 1\.\.2"):
            find_forbidden_triple(g, desc)


class TestDeltaMatching:
    def test_enumeration_order(self, quadruple):
        m = delta_matching(quadruple)
        assert m.edges == (("u", "v"), ("w", "x"))
        assert m.index_of("x") == 2 and m.mate("u") == "v"

    def test_rejects_double_matching(self):
        g = graph("abc", 3, [("a", "b", 3), ("a", "c", 3)])
        with pytest.raises(InputError, match="matching"):
            delta_matching(g)

    def test_matching_and_sum_rule_hold_in_all_members(self):
        # exhaustive over complete labelled graphs on 4 vertices
        for delta, K in ((3, 1), (4, 4), (4, 1)):
            desc = ClassDescriptor(delta, K)
            for g in all_complete_graphs("abcd", delta):
                if not is_member(g, desc):
                    continue
                matching = delta_matching(g)  # would raise if not a matching
                for x, y in matching.edges:
                    for w in g.vertices:
                        if w not in (x, y):
                            assert g.dist(x, w) + g.dist(y, w) == delta

    def test_parity_parts(self):
        g = graph("abcd", 4, [("a", "b", 4), ("c", "d", 4),
                              ("a", "c", 2), ("b", "d", 2),
                              ("a", "d", 2), ("b", "c", 2)])
        p1, p2 = parity_parts(g)
        assert p1 == frozenset("abcd") and p2 == frozenset()


class TestAntipodalClosure:
    def test_already_matched_unchanged(self, edge3, desc31):
        closed, matching = antipodal_closure(edge3, desc31)
        assert closed == edge3 and matching.m == 1

    def test_single_vertex(self, desc31):
        closed, matching = antipodal_closure(graph("u", 3), desc31)
        assert closed.vertices == ("u", "u*")
        assert closed.dist("u", "u*") == 3
        assert matching.edges == (("u", "u*"),)

    def test_three_points_at_distance_two(self, desc31):
        g = graph("abc", 3, [("a", "b", 2), ("a", "c", 2), ("b", "c", 2)])
        closed, _ = antipodal_closure(g, desc31)
        assert len(closed) == 6
        for v in "abc":
            assert closed.dist(v, f"{v}*") == 3
        assert closed.dist("a*", "b") == 1 and closed.dist("a*", "c") == 1
        assert closed.dist("a*", "b*") == 2
        assert is_member(closed, desc31)

    def test_idempotent(self, desc31):
        g = graph("abc", 3, [("a", "b", 2), ("a", "c", 2), ("b", "c", 2)])
        closed, _ = antipodal_closure(g, desc31)
        again, _ = antipodal_closure(closed, desc31)
        assert again == closed

    def test_non_member_rejected(self, desc31):
        bad = graph("abc", 3, [("a", "b", 1), ("a", "c", 1), ("b", "c", 3)])
        with pytest.raises(InputError):
            antipodal_closure(bad, desc31)


class TestDoubledEdges:
    @pytest.mark.parametrize("params", [(3, 1), (5, 2), (4, 4)])
    def test_rebuilds_every_matched_member(self, params):
        # every member with a perfect matching on at most six vertices
        desc = ClassDescriptor(*params)
        sizes = []
        for n in (2, 4, 6):
            members = list(matched_members("abcdef"[:n], desc))
            for g in members:
                edges = _doubled_edges(delta_matching(g).edges, fold(g).edges(), desc.delta)
                assert EdgeLabelledGraph(g.vertices, desc.delta, edges) == g, g
            sizes.append(len(members))
        assert all(sizes) and sizes[2] > 30

    def test_unlabelled_representatives_leave_four_pairs_open(self):
        edges = _doubled_edges([("a", "b"), ("c", "d"), ("e", "f")], [("a", "c", 1)], 3)
        g = EdgeLabelledGraph("abcdef", 3, edges)
        assert g.undefined_pairs() == [("a", "e"), ("a", "f"), ("b", "e"), ("b", "f"),
                                       ("c", "e"), ("c", "f"), ("d", "e"), ("d", "f")]
        assert [g.dist(*p) for p in (("a", "c"), ("b", "d"), ("a", "d"), ("b", "c"))] == \
            [1, 1, 2, 2]


seeded_folded_members = st.builds(
    lambda params, m, seed: (ClassDescriptor(*params),
                             fold(random_member(ClassDescriptor(*params), 2 * m,
                                                random.Random(seed)))),
    st.sampled_from(PARAMETERS), st.integers(1, 6), st.integers(0, 199))


class TestDoublingProperties:
    @given(seeded_folded_members)
    @settings(max_examples=60, deadline=None)
    def test_fold_undoes_unfold(self, case):
        desc, folded = case
        assert fold(unfold(folded, desc)) == folded

    @given(seeded_folded_members, st.integers(0, 2 ** 12 - 1))
    @settings(max_examples=60, deadline=None)
    def test_closure_is_idempotent(self, case, drop):
        # drop the vertices of a seeded subset; the closure mates the rest again
        desc, folded = case
        g = unfold(folded, desc)
        part = g.induced(v for i, v in enumerate(g.vertices) if not drop >> i & 1)
        closed, matching = antipodal_closure(part, desc)
        assert antipodal_closure(closed, desc) == (closed, matching)
        assert closed.induced(part.vertices) == part
        touched = {delta_matching(g).index_of(v) for v in part.vertices}
        assert len(closed) == 2 * len(touched) == 2 * matching.m


class TestFoldUnfold:
    def test_fold_canonical(self, quadruple, desc31):
        folded = fold(quadruple, desc=desc31)
        assert folded.vertices == ("u", "w")
        assert folded.dist("u", "w") == 1 and folded.delta == 2

    def test_fold_other_representatives(self, quadruple):
        folded = fold(quadruple, representatives=["u", "x"])
        assert folded.dist("u", "x") == 2

    def test_fold_single_edge(self, edge3):
        folded = fold(edge3)
        assert folded.vertices == ("u",) and folded.delta == 2

    def test_fold_requires_perfect_matching(self):
        with pytest.raises(InputError):
            fold(graph("uvw", 3, [("u", "v", 3), ("u", "w", 1), ("v", "w", 2)]))

    def test_unfold_single_vertex(self, desc31):
        got = unfold(graph("a", 2), desc31)
        assert got.vertices == ("a", "a'") and got.dist("a", "a'") == 3

    def test_unfold_edge_gives_quadruple(self, desc31):
        got = unfold(graph("uw", 2, [("u", "w", 1)]), desc31)
        expected = graph(["u", "w", "u'", "w'"], 3,
                         [("u", "w", 1), ("u", "u'", 3), ("w", "w'", 3),
                          ("u", "w'", 2), ("w", "u'", 2), ("u'", "w'", 1)])
        assert got == expected
        assert is_member(got, desc31)

    def test_unfold_triangle_diameter5(self):
        desc = ClassDescriptor(5, 2)
        tri = graph("abc", 4, [("a", "b", 2), ("a", "c", 2), ("b", "c", 2)])
        got = unfold(tri, desc)
        assert len(got) == 6
        for u in "abc":
            for v in "abc":
                if u != v:
                    assert got.dist(u, f"{v}'") == 3
        assert is_member(got, desc)

    def test_fold_after_unfold_is_identity(self, desc31):
        for g in (graph("a", 2), graph("ab", 2, [("a", "b", 2)]),
                  graph("abc", 2, [("a", "b", 1), ("a", "c", 2), ("b", "c", 1)])):
            assert fold(unfold(g, desc31), desc=desc31) == g

    def test_unfold_after_fold_is_isomorphic(self, desc31):
        for g in itertools.islice(matched_members("abcdef", desc31), 0, None, 7):
            folded = fold(g, desc=desc31)
            back = unfold(folded, desc31)
            # brute-force isomorphism via relabelling by the canonical layout
            rename = {}
            for v in folded.vertices:
                rename[v] = v
                rename[f"{v}'"] = delta_matching(g).mate(v)
            assert all(back.dist(a, b) == g.dist(rename[a], rename[b])
                       for a, b in back.pairs())

    def test_fold_equivalence_between_representative_choices(self, desc31):
        # switching one representative flips incident labels a -> delta - a
        g = next(matched_members("abcdef", desc31))
        matching = delta_matching(g)
        reps_a = [x for x, _ in matching.edges]
        reps_b = list(reps_a)
        reps_b[1] = matching.mate(reps_b[1])
        fa = fold(g, representatives=reps_a)
        fb = fold(g, representatives=reps_b)
        switched = {reps_b[1]}
        for u, v in fa.pairs():
            u2 = matching.mate(u) if matching.mate(u) in switched else u
            v2 = matching.mate(v) if matching.mate(v) in switched else v
            flip = (u2 in switched) != (v2 in switched)
            expect = 3 - fa.dist(u, v) if flip else fa.dist(u, v)
            assert fb.dist(u2, v2) == expect

    def test_unfold_membership_sweep(self):
        # every folded member of the diameter-3 family on 3 points unfolds to a member
        desc = ClassDescriptor(3, 1)
        for folded in all_complete_graphs("abc", 2):
            assert is_member(unfold(folded, desc), desc)
