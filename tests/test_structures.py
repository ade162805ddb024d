import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antipodal import (Automorphism, EdgeLabelledGraph, InputError, PartialMap,
                       SizeLimitError, automorphisms, is_completion_of,
                       is_irreducible, partial_automorphisms)

from conftest import brute_automorphisms, brute_partial_automorphisms, graph


def as_sets(maps):
    return {m.pairs for m in maps}


class TestGraphBasics:
    def test_symmetry_and_range(self):
        g = graph("abc", 3, [("a", "b", 2)])
        assert g.dist("a", "b") == g.dist("b", "a") == 2
        assert g.dist("a", "c") is None
        with pytest.raises(InputError, match="unknown vertex 'z'"):
            g.dist("a", "z")
        with pytest.raises(InputError, match="self-distance"):
            g.dist("a", "a")

    def test_rejects_bad_labels(self):
        with pytest.raises(InputError, match=r"label 4 outside 1\.\.3"):
            graph("ab", 3, [("a", "b", 4)])
        with pytest.raises(InputError, match=r"label 0 outside 1\.\.3"):
            graph("ab", 3, [("a", "b", 0)])
        with pytest.raises(InputError, match=r"label 1\.0 outside 1\.\.3"):
            graph("ab", 3, [("a", "b", 1.0)])
        with pytest.raises(InputError, match="self-distance"):
            graph("ab", 3, [("a", "a", 1)])
        with pytest.raises(InputError, match="unknown vertex 'z'"):
            graph("ab", 3, [("a", "z", 1)])

    def test_rejects_duplicate_pairs(self):
        for edges in ([("a", "b", 1), ("b", "a", 2)], [("a", "b", 1), ("a", "b", 1)]):
            with pytest.raises(InputError, match="duplicate edge"):
                graph("ab", 3, edges)
        with pytest.raises(InputError, match="duplicate edge"):
            graph("ab", 3, [("a", "b", 1)]).with_edges([("b", "a", 3)])

    def test_value_equality(self):
        g1 = graph("ab", 3, [("a", "b", 2)])
        g2 = graph("ab", 3, [("b", "a", 2)])
        assert g1 == g2 and hash(g1) == hash(g2)

    def test_value_semantics_of_the_label_matrix(self):
        rng = random.Random("matrix")
        vs = tuple("abcdef")
        labelled = {pair: rng.randint(1, 4) for pair in itertools.combinations(vs, 2)
                    if rng.random() < 0.6}
        canonical = [(u, v, l) for (u, v), l in labelled.items()]
        holes = [pair for pair in itertools.combinations(vs, 2) if pair not in labelled]
        base = graph(vs, 4, canonical)
        for _ in range(10):
            shuffled = [(v, u, l) if rng.random() < 0.5 else (u, v, l)
                        for u, v, l in rng.sample(canonical, len(canonical))]
            g = graph(vs, 4, shuffled)
            assert g == base and hash(g) == hash(base)
            assert list(g.edges()) == canonical
            assert g.undefined_pairs() == holes
            assert g.edge_count() == len(canonical) and not g.is_complete()
        assert base != graph(vs, 5, canonical) and base != graph(vs[::-1], 4, canonical)
        for u, v in holes:
            assert base.dist(u, v) is None and base.dist(v, u) is None
        keep = {"b", "d", "e", "f"}
        sub = base.induced(keep)
        assert sub.vertices == ("b", "d", "e", "f")
        assert list(sub.edges()) == [e for e in canonical if {e[0], e[1]} <= keep]
        grown = base.with_edges([(v, u, 1) for u, v in holes])
        assert grown.is_complete()
        assert list(grown.edges()) == sorted(canonical + [(u, v, 1) for u, v in holes],
                                             key=lambda e: (vs.index(e[0]), vs.index(e[1])))
        wider = base.with_vertices(["g"])
        assert wider.vertices == vs + ("g",)
        assert list(wider.edges()) == canonical
        assert wider.undefined_pairs() == [pair for pair in itertools.combinations(
            vs + ("g",), 2) if pair not in labelled]

    def test_induced_keeps_order(self, quadruple):
        sub = quadruple.induced({"x", "u"})
        assert sub.vertices == ("u", "x")
        assert sub.dist("u", "x") == 2


class TestAutomorphisms:
    def test_single_edge(self, edge3):
        got = as_sets(automorphisms(edge3))
        assert got == {frozenset({("u", "u"), ("v", "v")}),
                       frozenset({("u", "v"), ("v", "u")})}

    def test_quadruple_is_klein_four(self, quadruple):
        # oracle: filter all 24 bijections
        oracle = as_sets(brute_automorphisms(quadruple))
        got = as_sets(automorphisms(quadruple))
        assert got == oracle
        klein = {
            frozenset({("u", "u"), ("v", "v"), ("w", "w"), ("x", "x")}),
            frozenset({("u", "v"), ("v", "u"), ("w", "x"), ("x", "w")}),
            frozenset({("u", "w"), ("w", "u"), ("v", "x"), ("x", "v")}),
            frozenset({("u", "x"), ("x", "u"), ("v", "w"), ("w", "v")}),
        }
        assert got == klein

    def test_edge_plus_isolated_vertex(self):
        # w has no edges, u and v do, so nothing can move w onto them
        g = graph("uvw", 3, [("u", "v", 1)])
        assert as_sets(automorphisms(g)) == as_sets(brute_automorphisms(g))
        assert len(automorphisms(g)) == 2  # identity and the u-v swap

    def test_group_laws(self, quadruple):
        for g in (quadruple, graph("abc", 4, [("a", "b", 1), ("b", "c", 2)])):
            auts = automorphisms(g)
            maps = [a.mapping() for a in auts]
            assert {frozenset((v, v) for v in g.vertices)} <= as_sets(auts)
            for m1 in maps:
                inv = {t: s for s, t in m1.items()}
                assert frozenset(inv.items()) in as_sets(auts)
                for m2 in maps:
                    comp = {v: m1[m2[v]] for v in g.vertices}
                    assert frozenset(comp.items()) in as_sets(auts)

    def test_size_refusal(self):
        g = graph([f"v{i}" for i in range(11)], 2)
        with pytest.raises(SizeLimitError) as err:
            automorphisms(g)
        assert err.value.bound == 10

    def test_deterministic_order(self, quadruple):
        assert automorphisms(quadruple) == automorphisms(quadruple)


class TestPartialAutomorphisms:
    def test_single_vertex(self):
        g = graph("u", 3)
        got = list(partial_automorphisms(g))
        assert as_sets(got) == {frozenset(), frozenset({("u", "u")})}

    def test_single_edge_has_seven(self, edge3):
        got = list(partial_automorphisms(edge3))
        assert len(got) == 7
        assert as_sets(got) == as_sets(brute_partial_automorphisms(edge3))

    def test_empty_map_comes_first(self, edge3):
        assert next(iter(partial_automorphisms(edge3))) == PartialMap.empty()

    def test_quadruple_matches_brute_force(self, quadruple):
        got = list(partial_automorphisms(quadruple))
        oracle = brute_partial_automorphisms(quadruple)
        assert len(got) == len(oracle)
        assert as_sets(got) == as_sets(oracle)
        # every pair-to-pair map with equal labels shows up
        for (a, b), (c, d) in itertools.product(
                itertools.permutations("uvwx", 2), repeat=2):
            if quadruple.dist(a, b) == quadruple.dist(c, d) and len({a, b, c, d}) >= 2:
                assert frozenset({(a, c), (b, d)}) in as_sets(got)

    def test_restrictions_of_automorphisms_appear(self, quadruple):
        all_partials = as_sets(partial_automorphisms(quadruple))
        for aut in automorphisms(quadruple):
            for k in range(5):
                for dom in itertools.combinations("uvwx", k):
                    restricted = frozenset((v, aut[v]) for v in dom)
                    assert restricted in all_partials

    def test_all_yields_preserve_labels(self, quadruple):
        for pm in partial_automorphisms(quadruple):
            assert pm.preserves_labels(quadruple)


class TestPartialMap:
    def test_injectivity_enforced(self):
        with pytest.raises(InputError):
            PartialMap(frozenset({("a", "c"), ("b", "c")}))
        with pytest.raises(InputError):
            PartialMap(frozenset({("a", "b"), ("a", "c")}))

    def test_inverse_roundtrip(self):
        pm = PartialMap.of({"a": "b", "b": "c"})
        assert pm.inverse().inverse() == pm

    @given(st.dictionaries(st.integers(0, 6), st.integers(0, 6), max_size=7))
    @settings(max_examples=60, deadline=None)
    def test_of_accepts_injective_dicts(self, d):
        if len(set(d.values())) != len(d):
            with pytest.raises(InputError):
                PartialMap.of(d)
        else:
            pm = PartialMap.of(d)
            assert pm.mapping() == d


class TestIrreducibilityAndCompletion:
    def test_complete_triangle_irreducible(self):
        g = graph("abc", 3, [("a", "b", 1), ("a", "c", 1), ("b", "c", 2)])
        assert is_irreducible(g)

    def test_two_vertices_no_edge(self):
        assert not is_irreducible(graph("ab", 3))

    def test_quadruple_minus_edge(self, quadruple):
        # drop the u-x pair: that pair is uncovered
        edges = [(u, v, l) for u, v, l in quadruple.edges() if {u, v} != {"u", "x"}]
        assert not is_irreducible(graph("uvwx", 3, edges))

    def test_completion_accepts_added_labels(self):
        g = graph("uvw", 5, [("u", "v", 2), ("v", "w", 2)])
        gp = g.with_edges([("u", "w", 4)])
        assert is_completion_of(gp, g)

    def test_completion_rejects_changed_labels(self):
        g = graph("uvw", 5, [("u", "v", 2), ("v", "w", 2)])
        bad = graph("uvw", 5, [("u", "v", 1), ("v", "w", 2), ("u", "w", 4)])
        assert not is_completion_of(bad, g)

    def test_identity_completion(self, quadruple):
        assert is_completion_of(quadruple, quadruple)

    def test_vertex_mismatch_is_an_error(self, quadruple, edge3):
        with pytest.raises(InputError):
            is_completion_of(quadruple, edge3)
