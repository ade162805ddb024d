import itertools
import random

import pytest

from antipodal import (ClassDescriptor, EdgeLabelledGraph, FlipSet,
                       GammaLStructure, IndexPermutation, InputError,
                       LanguagePermutation, OrientationSet, ValuationFunction,
                       build_suitable_expansion, closure, compose,
                       delta_matching, f_from_marks, flip_permute, invert,
                       is_member, is_suitable_expansion, pad_bipartition,
                       parity_parts, suitable_expansion_violations)

from conftest import graph, matched_members


def vf(bits):
    return ValuationFunction(tuple(bits))


def all_language_elements(m):
    """Every normal form over the index set {1..m}."""
    indices = list(range(1, m + 1))
    diag = [(i, j) for i in indices for j in indices if i <= j]
    for images in itertools.permutations(indices):
        psi = IndexPermutation(images)
        for picks in itertools.product((False, True), repeat=len(diag)):
            pairs = set()
            for pick, (i, j) in zip(picks, diag):
                if pick:
                    pairs.add((i, j))
                    pairs.add((j, i))
            yield LanguagePermutation(psi, FlipSet(frozenset(pairs)))


def all_marks(m):
    for i in range(1, m + 1):
        for bits in itertools.product((0, 1), repeat=m):
            yield (i, vf(bits))


class TestFlipPermute:
    def test_identity(self):
        assert flip_permute(vf((0, 1)), set(), IndexPermutation.identity(2)) == vf((0, 1))

    def test_full_flip(self):
        assert flip_permute(vf((0, 1)), {1, 2}, IndexPermutation.identity(2)) == vf((1, 0))

    def test_flip_then_permute(self):
        # flip position 1 first: (1,1); then reindex by the swap: still (1,1)
        swap = IndexPermutation((2, 1))
        assert flip_permute(vf((0, 1)), {1}, swap) == vf((1, 1))
        # contrast: permuting first would give (1, 0) flipped at 1 -> (0, 0)
        assert vf((0, 1)).permuted(swap).flipped({1}) == vf((0, 0))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_one_pass_matches_flip_then_permute(self, m):
        # the two-step definition: flip on the row, then reindex by psi
        for g in all_language_elements(m):
            for i, chi in all_marks(m):
                row = g.flips.row(i)
                expect = chi.flipped(row).permuted(g.psi)
                assert flip_permute(chi, row, g.psi) == expect
                assert g.act((i, chi)) == (g.psi(i), expect)

    def test_sizes_must_agree(self):
        with pytest.raises(InputError, match=r"^valuation of size 2 reindexed by a "
                                             r"permutation of 1\.\.3$"):
            flip_permute(vf((0, 1)), (), IndexPermutation.identity(3))


class TestComposeInvert:
    def test_flip_composition_is_symmetric_difference(self):
        f1 = FlipSet.symmetric([(1, 2)])
        f2 = FlipSet.symmetric([(1, 2), (1, 1)])
        g = LanguagePermutation(IndexPermutation.identity(2), f1)
        h = LanguagePermutation(IndexPermutation.identity(2), f2)
        assert compose(g, h).flips == FlipSet.symmetric([(1, 1)])
        assert compose(g, g).is_identity()

    def test_permutation_composition(self):
        swap = LanguagePermutation(IndexPermutation((2, 1)), FlipSet.empty())
        assert compose(swap, swap).is_identity()

    def test_flip_slides_past_permutation(self):
        # alpha^F after alpha_psi equals alpha_psi after alpha^{psi^-1 F}
        flips = FlipSet.symmetric([(1, 2)])
        g = LanguagePermutation(IndexPermutation.identity(2), flips)
        h = LanguagePermutation(IndexPermutation((2, 1)), FlipSet.empty())
        combined = compose(g, h)
        assert combined.psi == IndexPermutation((2, 1))
        assert combined.flips == flips.mapped(h.psi.inverse())
        for mark in all_marks(2):
            assert combined.act(mark) == g.act(h.act(mark))

    def test_invert_examples(self):
        ident = LanguagePermutation.identity(3)
        assert invert(ident) == ident
        pure_flip = LanguagePermutation(IndexPermutation.identity(2),
                                        FlipSet.symmetric([(1, 2), (2, 2)]))
        assert invert(pure_flip) == pure_flip

    def test_exhaustive_group_laws_m2(self):
        elements = list(all_language_elements(2))
        marks = list(all_marks(2))
        ident = LanguagePermutation.identity(2)
        for g in elements:
            gi = invert(g)
            assert compose(g, gi) == ident and compose(gi, g) == ident
            for h in elements:
                gh = compose(g, h)
                for mark in marks:
                    assert gh.act(mark) == g.act(h.act(mark))

    def test_random_words_reduce_m3(self):
        rng = random.Random(321)
        elements = list(all_language_elements(3))
        marks = list(all_marks(3))
        for _ in range(200):
            word = [rng.choice(elements) for _ in range(rng.randint(1, 5))]
            normal = word[0]
            for piece in word[1:]:
                normal = compose(normal, piece)
            for mark in rng.sample(marks, 6):
                expect = mark
                for piece in reversed(word):
                    expect = piece.act(expect)
                assert normal.act(mark) == expect

    def test_act_examples(self):
        g = LanguagePermutation(IndexPermutation.identity(2),
                                FlipSet.symmetric([(1, 1), (1, 2)]))
        assert g.act((1, vf((0, 0)))) == (1, vf((1, 1)))
        assert g.act((2, vf((1, 0)))) == (2, vf((0, 0)))

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(InputError):
            compose(LanguagePermutation.identity(2), LanguagePermutation.identity(3))


class TestFlipSetValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(InputError):
            FlipSet(frozenset({(1, 2)}))

    def test_symmetric_factory(self):
        f = FlipSet.symmetric([(1, 2)])
        assert (2, 1) in f and f.row(2) == frozenset({1})


class TestGammaLStructure:
    def test_mark_validation(self):
        base = graph("uv", 3, [("u", "v", 3)])
        with pytest.raises(InputError):
            GammaLStructure(base, [], [("u", 1, vf((0,))), ("u", 1, vf((1,)))])
        with pytest.raises(InputError):
            GammaLStructure(base, [], [("u", 2, vf((0,)))])

    def test_closure_follows_the_function(self):
        # a one-way mate map: b1 points to b2, b2 points nowhere
        base = graph(["b1", "b2"], 3)
        s = GammaLStructure(base, [("b1", "b2")])
        assert closure(s, ["b2"]).vertices == ("b2",)
        assert closure(s, ["b1"]).vertices == ("b1", "b2")
        assert closure(s, ["b1", "b2"]).vertices == ("b1", "b2")

    def test_closure_monotone_and_idempotent(self, quadruple):
        s = GammaLStructure(quadruple, [("u", "v"), ("v", "u")])
        small = closure(s, ["u"])
        big = closure(s, ["u", "w"])
        assert set(small.vertices) <= set(big.vertices)
        assert closure(small, small.vertices) == small

    def test_induced_requires_mate_closure(self, quadruple):
        s = GammaLStructure(quadruple, [("u", "v"), ("v", "u")])
        with pytest.raises(InputError):
            s.induced({"u", "w"})


class TestFFromMarks:
    def test_disagreement(self):
        base = graph("uv", 3, [("u", "v", 3)])
        s = GammaLStructure(base, [("u", "v"), ("v", "u")],
                            [("u", 1, vf((0,))), ("v", 1, vf((1,)))])
        assert f_from_marks(s, "u", "v") == 1
        assert f_from_marks(s, "v", "u") == 1

    def test_agreement(self):
        base = graph("uv", 2, [("u", "v", 2)])
        s = GammaLStructure(base, [], [("u", 1, vf((1,))), ("v", 1, vf((1,)))])
        assert f_from_marks(s, "u", "v") == 0

    def test_unmarked_vertex_is_an_error(self):
        base = graph("uv", 3, [("u", "v", 3)])
        s = GammaLStructure(base, [], [("u", 1, vf((0,)))])
        with pytest.raises(InputError):
            f_from_marks(s, "u", "v")


class TestBuildSuitableExpansion:
    def test_single_edge(self, edge3, desc31):
        got = build_suitable_expansion(edge3, desc31)
        assert got.mark("u") == (1, vf((0,)))
        assert got.mark("v") == (1, vf((1,)))
        assert got.mate("u") == "v" and got.mate("v") == "u"

    def test_quadruple_marks(self, quadruple, desc31):
        got = build_suitable_expansion(quadruple, desc31)
        assert got.mark("u") == (1, vf((0, 0)))
        assert got.mark("v") == (1, vf((1, 1)))
        assert got.mark("w") == (2, vf((1, 0)))
        assert got.mark("x") == (2, vf((0, 1)))
        assert is_suitable_expansion(got, quadruple, desc31)
        # the disagreement bits follow the distance parities
        for a, b in quadruple.pairs():
            assert f_from_marks(got, a, b) == quadruple.dist(a, b) % 2

    def test_single_edge_has_exactly_two_expansions(self, edge3, desc31):
        # enumerate every one-index mark assignment and keep the suitable ones
        suitable = []
        for bits_u, bits_v in itertools.product([(0,), (1,)], repeat=2):
            cand = GammaLStructure(edge3, [("u", "v"), ("v", "u")],
                                   [("u", 1, vf(bits_u)), ("v", 1, vf(bits_v))])
            if is_suitable_expansion(cand, edge3, desc31):
                suitable.append(cand)
        assert len(suitable) == 2
        built = build_suitable_expansion(edge3, desc31)
        assert built in suitable

    def test_corrupted_mark_fails(self, quadruple, desc31):
        got = build_suitable_expansion(quadruple, desc31)
        marks = {v: got.mark(v) for v in got.vertices}
        marks["v"] = (1, vf((0, 0)))
        bad = GammaLStructure(quadruple, dict(got.mate_pairs()), marks)
        problems = suitable_expansion_violations(bad, quadruple, desc31)
        assert any("complementary" in p for p in problems)
        assert any("parity" in p or "valuations" in p for p in problems)

    def test_every_small_member_expands(self, desc31):
        for g in matched_members("abcd", desc31):
            expansion = build_suitable_expansion(g, desc31)
            assert is_suitable_expansion(expansion, g, desc31)

    def test_imperfect_matching_rejected(self, desc31):
        g = graph("abc", 3, [("a", "b", 2), ("a", "c", 2), ("b", "c", 2)])
        with pytest.raises(InputError):
            build_suitable_expansion(g, desc31)

    def test_bipartite_expansion(self):
        desc = ClassDescriptor(4, 4)
        orientation = OrientationSet.default(4)
        g = graph(["u1", "v1", "u2", "v2"], 4,
                  [("u1", "v1", 4), ("u2", "v2", 4),
                   ("u1", "u2", 1), ("v1", "v2", 1),
                   ("u1", "v2", 3), ("v1", "u2", 3)])
        got = build_suitable_expansion(g, desc, orientation)
        assert is_suitable_expansion(got, g, desc, orientation)

    def test_bipartite_imbalance_points_to_padding(self):
        desc = ClassDescriptor(4, 4)
        g = graph(["u1", "v1"], 4, [("u1", "v1", 4)])
        with pytest.raises(InputError, match="pad_bipartition"):
            build_suitable_expansion(g, desc, OrientationSet.default(4))


class TestPadBipartition:
    def test_balanced_unchanged(self):
        desc = ClassDescriptor(4, 4)
        g = graph(["u1", "v1", "u2", "v2"], 4,
                  [("u1", "v1", 4), ("u2", "v2", 4),
                   ("u1", "u2", 1), ("v1", "v2", 1),
                   ("u1", "v2", 3), ("v1", "u2", 3)])
        assert pad_bipartition(g, desc) == g

    def test_single_edge_gets_one_partner(self):
        desc = ClassDescriptor(4, 4)
        g = graph(["u1", "v1"], 4, [("u1", "v1", 4)])
        padded = pad_bipartition(g, desc)
        assert len(padded) == 4 and is_member(padded, desc)
        matching = delta_matching(padded, desc, require_perfect=True)
        assert len(matching.part_one) == len(matching.part_two) == 1
        # the new edge lives in the other parity class
        p1, p2 = parity_parts(padded)
        rest = frozenset(padded.vertices) - frozenset({"u1", "v1"})
        assert {p1, p2} == {frozenset({"u1", "v1"}), rest}
        expansion = build_suitable_expansion(padded, desc, OrientationSet.default(4))
        assert is_suitable_expansion(expansion, padded, desc, OrientationSet.default(4))

    def test_two_edges_get_two_partners(self):
        desc = ClassDescriptor(4, 4)
        g = graph(["u1", "v1", "u2", "v2"], 4,
                  [("u1", "v1", 4), ("u2", "v2", 4),
                   ("u1", "u2", 2), ("v1", "v2", 2),
                   ("u1", "v2", 2), ("v1", "u2", 2)])
        assert len(parity_parts(g)[1]) == 0  # everything in one part
        padded = pad_bipartition(g, desc)
        assert len(padded) == 8 and is_member(padded, desc)
        matching = delta_matching(padded, desc, require_perfect=True)
        assert len(matching.part_one) == len(matching.part_two) == 2

    def test_wrong_variant_rejected(self, quadruple, desc31):
        with pytest.raises(InputError):
            pad_bipartition(quadruple, desc31)
