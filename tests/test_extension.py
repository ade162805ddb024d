import itertools
from random import Random

import pytest

from antipodal import (ClassDescriptor, FlipSet, GammaLStructure,
                       GammaPartialAutomorphism, IndexPermutation, InputError,
                       LanguagePermutation, OrientationSet, PartialMap,
                       SizeLimitError, ValuationFunction, Variant, automorphisms,
                       build_suitable_expansion, compatible_language_parts,
                       delta_matching, expand_witness,
                       extend_partial_automorphism, f_from_marks,
                       gamma_automorphisms, gamma_partial_automorphisms,
                       is_member, pad_bipartition, parity_parts,
                       partial_automorphisms, pipeline, search_witness, verify_eppa_witness,
                       verify_irreducible_faithful, witness_candidates)
from antipodal.generation import random_member

from conftest import (brute_expand_witness, brute_gamma_audit, brute_gamma_vertex_maps,
                      brute_language_parts, brute_partial_automorphisms,
                      brute_pipeline_search, graph, matched_members, mated_extensions)


def vf(bits):
    return ValuationFunction(tuple(bits))


@pytest.fixture
def quad_expansion(quadruple, desc31):
    return build_suitable_expansion(quadruple, desc31)


class TestExtendPartialAutomorphism:
    def test_edge_swap_flips_everything(self, quad_expansion, desc31):
        got = extend_partial_automorphism(quad_expansion, {"u": "v", "v": "u"}, desc31)
        assert got.lang.psi == IndexPermutation.identity(2)
        assert got.lang.flips == FlipSet.symmetric([(1, 1), (1, 2)])
        # the language part moves the mark of u onto the mark of v
        assert got.lang.act((1, vf((0, 0)))) == (1, vf((1, 1)))

    def test_identity_map(self, quad_expansion, quadruple, desc31):
        ident = {v: v for v in quadruple.vertices}
        got = extend_partial_automorphism(quad_expansion, ident, desc31)
        assert got.lang.is_identity()

    def test_cross_edge_map_closes_and_swaps(self, quad_expansion, desc31):
        got = extend_partial_automorphism(quad_expansion, {"u": "w"}, desc31)
        # the mate pair is pulled in: v must go to the mate of w
        assert got.vmap.mapping() == {"u": "w", "v": "x"}
        assert got.lang.psi == IndexPermutation((2, 1))
        assert got.lang.flips == FlipSet.symmetric([(1, 2)])

    def test_rejects_label_breaking_maps(self, quad_expansion, desc31):
        # u and w sit at distance 1 but their images at distance 2
        with pytest.raises(InputError):
            extend_partial_automorphism(quad_expansion, {"u": "u", "w": "x"}, desc31)

    def test_audit_passes_on_every_partial_automorphism(self, quadruple,
                                                        quad_expansion, desc31):
        matching = delta_matching(quadruple)
        for pm in partial_automorphisms(quadruple):
            got = extend_partial_automorphism(quad_expansion, pm, desc31)
            # flip set symmetric by construction
            assert all((j, i) in got.lang.flips for i, j in got.lang.flips.pairs)
            # recomputing the flips from the mates gives the same set
            pairs = set()
            for i, (x, y) in enumerate(matching.edges, start=1):
                if y in got.vmap.domain:
                    chi = quad_expansion.valuation(y)
                    tchi = quad_expansion.valuation(got.vmap[y])
                    for j in range(1, matching.m + 1):
                        if tchi(got.lang.psi(j)) != chi(j):
                            pairs.add((i, j))
                            pairs.add((j, i))
            assert FlipSet(frozenset(pairs)) == got.lang.flips

    def test_shared_domain_indices_agree(self, desc31):
        # if two representatives sit in the domain, either one determines the
        # flips between their indices
        for g in itertools.islice(matched_members("abcdef", desc31), 0, 40, 3):
            expansion = build_suitable_expansion(g, desc31)
            matching = delta_matching(g)
            x1, x2 = matching.edges[0][0], matching.edges[1][0]
            for pm in partial_automorphisms(g):
                if x1 not in pm.domain or x2 not in pm.domain:
                    continue
                got = extend_partial_automorphism(expansion, pm, desc31)
                i, j = matching.index_of(x1), matching.index_of(x2)
                from_i = (i, j) in got.lang.flips
                chi_j = expansion.valuation(x2)
                t_chi_j = expansion.valuation(got.vmap[x2])
                from_j = t_chi_j(got.lang.psi(i)) != chi_j(i)
                assert from_i == from_j


class TestGammaAutomorphisms:
    def test_quadruple_expansion_group(self, quad_expansion):
        auts = gamma_automorphisms(quad_expansion)
        assert len(auts) == 4  # the plain group, each with its unique language part
        by_vmap = {a.vmap.pairs: a.lang for a in auts}
        ident = frozenset((v, v) for v in "uvwx")
        assert by_vmap[ident].is_identity()
        swap_both = frozenset({("u", "v"), ("v", "u"), ("w", "x"), ("x", "w")})
        assert by_vmap[swap_both].flips == FlipSet.symmetric(
            [(1, 1), (1, 2), (2, 2)])

    def test_observation_f_invariance(self, quad_expansion, quadruple):
        for aut in gamma_automorphisms(quad_expansion):
            for a, b in quadruple.pairs():
                assert f_from_marks(quad_expansion, a, b) == \
                    f_from_marks(quad_expansion, aut.vmap[a], aut.vmap[b])

    def test_reduct_soundness(self, quad_expansion, quadruple):
        plain = {a.pairs for a in automorphisms(quadruple)}
        for aut in gamma_automorphisms(quad_expansion):
            assert aut.vmap.pairs in plain

    @pytest.mark.parametrize("delta,K", [(3, 1), (5, 2), (4, 4)])
    def test_partial_vertex_maps_match_brute_force(self, delta, K):
        desc = ClassDescriptor(delta, K)
        orientation = None
        if desc.variant is Variant.EVEN_BIPARTITE:
            orientation = OrientationSet.default(delta)
        checked = 0
        for n in (2, 4):
            for g in matched_members([f"v{i}" for i in range(n)], desc):
                if orientation is not None:
                    g = pad_bipartition(g, desc)
                if len(g) > 4:
                    continue
                expansion = build_suitable_expansion(g, desc, orientation)
                got = list(gamma_partial_automorphisms(expansion))
                assert len(set(got)) == len(got)
                oracle = {pm for pm in brute_gamma_vertex_maps(expansion)
                          if next(compatible_language_parts(expansion, pm), None)
                          is not None}
                assert {gpa.vmap for gpa in got} == oracle
                checked += 1
        assert checked


def _matched_expansions(desc, n):
    """``(expansion, bipartition)`` for each ``matched_members`` graph on ``n`` vertices.

    Even-bipartite members are padded first and come with the index
    bipartition of their matching; every other class comes with ``None``.
    """
    orientation = None
    if desc.variant is Variant.EVEN_BIPARTITE:
        orientation = OrientationSet.default(desc.delta)
    for g in matched_members([f"v{i}" for i in range(n)], desc):
        if orientation is not None:
            g = pad_bipartition(g, desc)
        expansion = build_suitable_expansion(g, desc, orientation)
        partition = None
        if orientation is not None:
            matching = delta_matching(g, desc, require_perfect=True)
            partition = (matching.part_one, matching.part_two)
        yield expansion, partition


class TestCompatibleLanguageParts:
    @pytest.mark.parametrize("delta,K,n", [
        (3, 1, 2), (3, 1, 4), (3, 1, 6), (5, 2, 4), (5, 2, 6), (4, 4, 2), (4, 4, 4)])
    def test_matches_brute_force_in_order(self, delta, K, n):
        desc = ClassDescriptor(delta, K)
        checked = 0
        members = itertools.islice(_matched_expansions(desc, n), 0, None, 5 if n == 6 else 1)
        for expansion, partition in itertools.islice(members, 4):
            if expansion.mark_size > 3:
                continue
            mate = expansion.mate
            for pm in brute_partial_automorphisms(expansion.base):
                if any(mate(v) not in pm.domain for v in pm.domain):
                    continue
                for lp in {None, partition}:
                    assert list(compatible_language_parts(expansion, pm, lp)) == \
                        brute_language_parts(expansion, pm, lp)
                    checked += 1
        assert checked

    @pytest.mark.parametrize("delta,K", [(3, 1), (5, 2), (4, 4)])
    def test_empty_map_at_four_pairs(self, delta, K):
        desc = ClassDescriptor(delta, K)
        expansion, partition = next((e, p) for e, p in _matched_expansions(desc, 8)
                                    if e.mark_size == 4)
        for lp in {None, partition}:
            got = list(compatible_language_parts(expansion, PartialMap.of({}), lp))
            assert got == brute_language_parts(expansion, PartialMap.of({}), lp)

    def test_free_flip_bound_fires_before_any_part(self):
        desc = ClassDescriptor(3, 1)
        g = random_member(desc, 12, Random(0))
        expansion = build_suitable_expansion(g, desc)
        assert expansion.mark_size == 6  # 21 free pairs on the empty map
        parts = compatible_language_parts(expansion, PartialMap.of({}))
        with pytest.raises(SizeLimitError):
            next(parts)
        with pytest.raises(SizeLimitError):
            pipeline(g, desc, "search", max_vertices=12)


class TestVerifyWitness:
    def test_edge_into_quadruple(self, edge3, quadruple):
        report = verify_eppa_witness(edge3, quadruple)
        assert report.ok and report.checked == 7
        assert len(automorphisms(quadruple)) == 4
        # the one-sided swap extends through the mate exchange
        key = PartialMap.of({"u": "v"})
        assert report.extension_table[key].mapping() == {
            "u": "v", "v": "u", "w": "x", "x": "w"}

    def test_single_vertex_self_witness(self):
        g = graph("u", 3)
        report = verify_eppa_witness(g, g)
        assert report.ok and report.checked == 2

    def test_flattened_completion_fails_with_counterexample(self, edge3):
        # both crossing patterns equal: u -> w cannot extend
        bad = graph("uvwx", 3, [("u", "v", 3), ("w", "x", 3),
                                ("u", "w", 1), ("u", "x", 1),
                                ("v", "w", 2), ("v", "x", 2)])
        report = verify_eppa_witness(edge3, bad)
        assert not report.ok
        # the first failing map in canonical order is the one-sided swap:
        # nothing in bad carries v onto u while keeping the crossing labels
        assert report.counterexample == PartialMap.of({"v": "u"})
        # the swap of u and v has no extension either, by direct audit
        swapped = {a.pairs for a in automorphisms(bad)}
        assert not any({("u", "v"), ("v", "u")} <= set(p) for p in swapped)
        # identity-like maps do extend
        assert verify_eppa_witness(edge3, bad.induced("uv")).ok

    def test_non_substructure_rejected(self, quadruple):
        other = graph("uv", 3, [("u", "v", 1)])
        with pytest.raises(InputError):
            verify_eppa_witness(other, quadruple)

    def test_gamma_self_witness_of_edge_expansion(self, edge3, desc31):
        expansion = build_suitable_expansion(edge3, desc31)
        report = verify_eppa_witness(expansion, expansion, "gamma")
        # four partial automorphisms: empty map with both language elements,
        # the identity, and the swap with the flip
        assert report.ok and report.checked == 4

    def test_gamma_quadruple_expansion_is_not_its_own_witness(self, quad_expansion):
        report = verify_eppa_witness(quad_expansion, quad_expansion, "gamma")
        assert not report.ok
        # the lone-diagonal flip with an empty vertex map has no extension
        cx = report.counterexample
        assert len(cx.vmap) == 0
        assert cx.lang.psi.is_identity()
        assert cx.lang.flips == FlipSet.symmetric([(1, 1)])


class TestIrreducibleFaithful:
    def test_disjoint_edges_witness(self):
        small = graph("uvw", 3, [("u", "v", 1)])
        big = graph("uvwx", 3, [("u", "v", 1), ("w", "x", 1)])
        assert verify_irreducible_faithful(small, big)

    def test_self_witness(self, quadruple):
        assert verify_irreducible_faithful(quadruple, quadruple)

    def test_unreachable_long_edge(self):
        small = graph("uv", 3, [("u", "v", 1)])
        big = graph("uvwx", 3, [("u", "v", 1), ("w", "x", 2)])
        assert not verify_irreducible_faithful(small, big)


class TestSearchWitness:
    def test_edge_is_its_own_witness(self, edge3, desc31):
        # the lone long edge already extends all seven of its partial
        # automorphisms, so the canonical search stops immediately
        got = search_witness(edge3, desc31, 4)
        assert got == edge3

    def test_single_vertex_needs_its_mate(self, desc31):
        got = search_witness(graph("u", 3), desc31, 2)
        assert got is not None and len(got) == 2
        assert got.dist(*got.vertices) == 3

    def test_bound_too_small_returns_none(self, desc31):
        assert search_witness(graph("u", 3), desc31, 1) is None

    def test_candidates_stream_is_deterministic(self, edge3, desc31):
        a = list(itertools.islice(witness_candidates(edge3, desc31, 4), 8))
        b = list(itertools.islice(witness_candidates(edge3, desc31, 4), 8))
        assert a == b
        assert a[0] == edge3
        # the four-vertex candidates are the two antipodal quadruples over
        # the canonical fresh pair
        assert all(len(c) == 4 and is_member(c, desc31) for c in a[1:3])


class TestExpandWitness:
    def test_quadruple_expands_over_edge_language(self, edge3, quadruple, desc31):
        small = build_suitable_expansion(edge3, desc31)
        got = expand_witness(quadruple, small, desc31)
        assert got is not None
        assert got.mark("u") == small.mark("u") and got.mark("v") == small.mark("v")
        assert got.mark_size == 1
        # disagreement bits still follow the parities
        for a, b in quadruple.pairs():
            assert f_from_marks(got, a, b) == quadruple.dist(a, b) % 2

    def test_impossible_extension_returns_none(self, edge3, desc31):
        small = build_suitable_expansion(edge3, desc31)
        bad = graph("uvwx", 3, [("u", "v", 3), ("w", "x", 3),
                                ("u", "w", 1), ("u", "x", 1),
                                ("v", "w", 2), ("v", "x", 2)])
        # not a member (crossing distances clash), marks cannot exist
        assert expand_witness(bad, small, desc31) is None

    def test_long_edge_leaving_the_small_expansion_raises(self, edge3, desc31):
        small = build_suitable_expansion(edge3, desc31)
        big = graph("wxuv", 3, [("w", "u", 3), ("x", "v", 3), ("w", "x", 1),
                                ("u", "v", 1), ("w", "v", 2), ("x", "u", 2)])
        with pytest.raises(InputError, match=r"long edge \('w', 'u'\) pairs 'u' of "
                                             r"the small expansion with 'w'"):
            expand_witness(big, small, desc31)

    def test_labels_differing_from_the_witness_raise(self, quad_expansion, desc31):
        other = graph("uvwx", 3, [("u", "v", 3), ("w", "x", 3), ("u", "w", 2),
                                  ("v", "x", 2), ("u", "x", 1), ("v", "w", 1)])
        assert is_member(other, desc31)
        with pytest.raises(InputError, match=r"pair \('u', 'w'\) differs"):
            expand_witness(other, quad_expansion, desc31)

    def test_mates_differing_from_the_witness_raise(self, edge3, quadruple, desc31):
        small = build_suitable_expansion(edge3, desc31)
        unmated = GammaLStructure(edge3, [], {v: small.mark(v) for v in "uv"})
        with pytest.raises(InputError, match=r"mates of \('u', 'v'\) differ"):
            expand_witness(quadruple, unmated, desc31)

    def test_diameter_differing_from_the_class_raises(self, edge3, quadruple):
        small = build_suitable_expansion(edge3, ClassDescriptor(3, 1))
        with pytest.raises(InputError, match=r"^descriptor diameter 5 != graph delta 3$"):
            expand_witness(quadruple, small, ClassDescriptor(5, 2))


def _outcome(call, *args) -> str:
    """``repr`` of the answer, or the message of the :class:`InputError` raised."""
    try:
        return repr(call(*args))
    except InputError as exc:
        return f"InputError: {exc}"


def _spoiled(expansion: GammaLStructure) -> list[GammaLStructure]:
    """Unsuitable variants of a suitable expansion.

    The first mate keeps its representative's valuation instead of the
    complement.  With a second edge, also: the first edge's valuation is
    flipped at the second edge's index, which breaks the side rule between
    them; or the second edge takes the first edge's index, which in the
    bipartite case puts one index side in both vertex parts.
    """
    edges = delta_matching(expansion.base).edges
    (x1, y1), (i1, chi1) = edges[0], expansion.mark(edges[0][0])
    variants = [{y1: (i1, chi1)}]
    if len(edges) > 1:
        (x2, y2), (i2, chi2) = edges[1], expansion.mark(edges[1][0])
        flipped = chi1.flipped([i2])
        variants += [{x1: (i1, flipped), y1: (i1, flipped.complement())},
                     {x2: (i1, chi2), y2: (i1, chi2.complement())}]
    out = []
    for changes in variants:
        marks = {v: expansion.mark(v) for v in expansion.vertices}
        marks.update(changes)
        out.append(GammaLStructure(expansion.base, expansion.mate_pairs(), marks))
    return out


class TestExpandWitnessAgainstOracle:
    def test_first_leaf_matches_brute_force(self):
        # small expansions of matched members with m <= 3 (padded in (4,4)),
        # sampled at 6 vertices, and their spoiled variants; every graph
        # adding one fresh mated pair (two when m = 1), members or not
        seen = set()
        unsplit = []  # outcomes on (4,4) graphs that have no parity bipartition
        for delta, K, sizes, step in [(3, 1, (2, 4, 6), 41), (5, 2, (2, 4, 6), 661),
                                      (4, 4, (2, 4), 1)]:
            desc = ClassDescriptor(delta, K)
            orientation = None
            if desc.variant is Variant.EVEN_BIPARTITE:
                orientation = OrientationSet.default(delta)
            for n in sizes:
                members = matched_members("abcdef"[:n], desc)
                for g in itertools.islice(members, 0, None, step if n == 6 else 1):
                    if orientation is not None:
                        g = pad_bipartition(g, desc)
                    expansion = build_suitable_expansion(g, desc, orientation)
                    fresh_pairs = (1, 2) if expansion.mark_size == 1 else (1,)
                    for small in [expansion] + _spoiled(expansion):
                        for big in itertools.chain.from_iterable(
                                mated_extensions(g, t) for t in fresh_pairs):
                            got = _outcome(expand_witness, big, small, desc, orientation)
                            assert got == _outcome(brute_expand_witness, big, small,
                                                   desc, orientation), (big, small)
                            member = not got.startswith("InputError") and \
                                is_member(big, desc)
                            seen.add((got.split("(")[0], member, small is expansion))
                            if orientation is not None and not member:
                                try:
                                    parity_parts(big)
                                except InputError:
                                    unsplit.append(got)
        assert seen >= {("GammaLStructure", True, True), ("None", True, True),
                        ("None", False, True), ("None", True, False)}
        # a non-member answers None also when it has no parity bipartition
        assert unsplit and set(unsplit) == {"None"}

    def test_index_sides_tied_to_one_vertex_part(self):
        # both small edges lie in one parity part, but their indices 1 and 3
        # lie on the two sides of the index bipartition ({1, 2}, {3})
        desc = ClassDescriptor(4, 4)
        orientation = OrientationSet.default(4)
        big = graph("abcdef", 4, [(x, y, 4) for x, y in ("ab", "cd", "ef")] +
                    [(u, v, 2) for u, v in itertools.combinations("abcdef", 2)
                     if {u, v} not in ({"a", "b"}, {"c", "d"}, {"e", "f"})])
        chi = vf((0, 0, 0))
        small = GammaLStructure(big.induced("abcd"), ["ab", "ba", "cd", "dc"],
                                {"a": (1, chi), "b": (1, chi.complement()),
                                 "c": (3, chi), "d": (3, chi.complement())})
        assert is_member(big, desc)
        assert brute_expand_witness(big, small, desc, orientation) is None
        assert expand_witness(big, small, desc, orientation) is None


class TestPipeline:
    def test_single_long_edge(self, edge3, desc31):
        result = pipeline(edge3, desc31, "search", max_vertices=8)
        assert result.ok
        assert result.gamma_report.ok and result.plain_report.ok
        assert is_member(result.witness, desc31)
        # deterministic across runs
        again = pipeline(edge3, desc31, "search", max_vertices=8)
        assert again.witness == result.witness

    def test_empty_structure(self, desc31):
        result = pipeline(graph("", 3), desc31, "search", max_vertices=4)
        assert result.ok and len(result.witness) == 0

    def test_single_vertex_closes_first(self, desc31):
        result = pipeline(graph("u", 3), desc31, "search", max_vertices=4)
        assert result.ok and len(result.base) == 2

    def test_user_supplied_witness_that_fails(self, quadruple, desc31):
        expansion = build_suitable_expansion(quadruple, desc31)
        result = pipeline(quadruple, desc31, expansion)
        assert not result.ok and result.stage == "gamma-witness"
        assert "without extension" in result.detail

    def test_user_supplied_witness_that_passes(self, edge3, desc31):
        expansion = build_suitable_expansion(edge3, desc31)
        result = pipeline(edge3, desc31, expansion)
        assert result.ok and result.witness == edge3

    def test_quadruple_search_finds_a_bigger_witness(self, quadruple, desc31):
        # the quadruple expansion is not its own language-level witness, so
        # the pipeline keeps searching and finds one on 8 vertices
        result = pipeline(quadruple, desc31, "search", max_vertices=8)
        assert result.ok and result.stage == "done"
        assert len(result.witness) == 8
        assert is_member(result.witness, desc31)

    def test_bipartite_single_edge(self):
        desc = ClassDescriptor(4, 4)
        g = graph(["u1", "v1"], 4, [("u1", "v1", 4)])
        result = pipeline(g, desc, "search", max_vertices=8)
        assert result.ok
        assert len(result.base) == 4  # padding added one edge
        assert is_member(result.witness, desc)


def doubled(delta: int, folded: dict):
    """Antipodal doubling of folded labels: pair ``i`` is ``(x{i}, y{i})``.

    ``d(x_i, y_i) = delta``; a folded label ``a`` on ``(i, j)`` gives
    ``d(x_i, x_j) = d(y_i, y_j) = a`` and ``delta - a`` across.
    """
    m = 1 + max(j for _, j in folded)
    edges = [(f"x{i}", f"y{i}", delta) for i in range(m)]
    for (i, j), a in folded.items():
        edges += [(f"x{i}", f"x{j}", a), (f"y{i}", f"y{j}", a),
                  (f"x{i}", f"y{j}", delta - a), (f"y{i}", f"x{j}", delta - a)]
    return graph([v for i in range(m) for v in (f"x{i}", f"y{i}")], delta, edges)


# two matched pairs with one folded label a, in every class of the deep
# searches, and the (3,1) and (4,4) three-pair inputs of the wide ones
SEARCH_INPUTS = [(d, K, {(0, 1): a}) for d, K, a in [
    (4, 4, 1), (5, 1, 2), (5, 2, 2), (6, 6, 3), (7, 2, 3), (7, 3, 3),
    (4, 4, 2), (5, 2, 1), (6, 6, 5), (7, 2, 6), (7, 3, 1)]] + [
    (3, 1, {(0, 1): 1, (0, 2): 2, (1, 2): 2}),
    (4, 4, {(0, 1): 2, (0, 2): 1, (1, 2): 3})]


def _summary(result) -> tuple:
    """Everything a search result says, in comparable form."""
    reports = tuple(None if r is None else
                    (r.ok, r.checked, repr(r.counterexample), r.extension_table)
                    for r in (result.gamma_report, result.plain_report))
    return (result.ok, result.stage, result.detail, result.base, repr(result.expansion),
            None if result.witness is None else tuple(result.witness.edges()),
            repr(result.witness_expansion), reports)


class TestPipelineAgainstExhaustiveSearch:
    def test_search_matches_the_search_without_reuse(self):
        # the kept counterexamples must neither reject a witness nor carry
        # over from one call to the next, so the searches run one after the
        # other; some find a witness after rejected candidates, some none
        outcomes = set()
        for delta, K, folded in SEARCH_INPUTS:
            g, desc = doubled(delta, folded), ClassDescriptor(delta, K)
            got = pipeline(g, desc, "search", max_vertices=8)
            assert _summary(got) == _summary(brute_pipeline_search(g, desc, 8)), \
                (delta, K, folded)
            outcomes.add(got.stage)
        assert outcomes == {"done", "witness-search"}

    def test_audit_matches_the_filtered_automorphisms(self):
        # the audit and the test of kept counterexamples are one helper; on
        # the first candidates of every search it agrees with the oracle
        for delta, K, folded in SEARCH_INPUTS:
            desc = ClassDescriptor(delta, K)
            first = pipeline(doubled(delta, folded), desc, "search", max_vertices=8)
            closed, small = first.base, first.expansion
            orientation, lang_partition = None, None
            if desc.variant is Variant.EVEN_BIPARTITE:
                orientation = OrientationSet.default(delta)
                matching = delta_matching(closed, desc, require_perfect=True)
                lang_partition = (matching.part_one, matching.part_two)
            for candidate in itertools.islice(witness_candidates(closed, desc, 8), 20):
                big = expand_witness(candidate, small, desc, orientation)
                if big is None:
                    continue
                got = verify_eppa_witness(small, big, "gamma", max_domain=len(small),
                                          lang_partition=lang_partition)
                want = brute_gamma_audit(small, big, lang_partition)
                assert (got.ok, got.checked, got.counterexample, got.extension_table) == \
                    (want.ok, want.checked, want.counterexample, want.extension_table)

    def test_audit_extends_the_map_itself(self):
        # a, b, c carry one mark and their copies a2, b2, c2 its flip, so the
        # identity and the swap of the copies keep every language part of the
        # empty map; no automorphism sends a (the one vertex of its copy with
        # two labels 1) to b, so a map between them is the counterexample
        zero, one = vf((0,)), vf((1,))
        edges = [(u, v, 2) for u in "abc" for v in ("a2", "b2", "c2")]
        for suffix in ("", "2"):
            a, b, c = (v + suffix for v in "abc")
            edges += [(a, b, 1), (a, c, 1), (b, c, 2)]
        big = GammaLStructure(graph(["a", "b", "c", "a2", "b2", "c2"], 2, edges), (),
                              {v: (1, one if v.endswith("2") else zero)
                               for v in ("a", "b", "c", "a2", "b2", "c2")})
        small = big.induced("ab")
        got = verify_eppa_witness(small, big, "gamma")
        want = brute_gamma_audit(small, big)
        assert not got.ok and len(got.counterexample.vmap) == 1
        assert (got.checked, got.counterexample) == (want.checked, want.counterexample)
