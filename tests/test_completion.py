import itertools
import pathlib
import random

import pytest

from antipodal import (Automorphism, ClassDescriptor, CompletionError,
                       CompletionNotEquivariant, CycleSpec,
                       GeneralClassDescriptor, InputError, NonMetricCycleError,
                       OrientationSet, ParityFunction, PreconditionError,
                       Variant, antipodal_complete, automorphisms,
                       check_f_conditions, find_non_metric_cycle,
                       forbidden_cycle_oracle, is_completion_of, is_member,
                       local_finiteness_bound, shortest_path_completion)

from antipodal.completion import (CYCLE_BOUND, _canonical_cycles, _f_preserving_maps,
                                  _first_forbidden_cycle, _folded_cycles,
                                  solve_labels)
from antipodal.fileformat import read_structure_file

from conftest import (brute_completions, brute_labellings, brute_simple_cycles,
                      graph, random_connected_partial)

COMPLETION_FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "completion"


class TestShortestPathCompletion:
    def test_path_of_twos(self):
        g = graph("uvw", 5, [("u", "v", 2), ("v", "w", 2)])
        got = shortest_path_completion(g)
        assert got.dist("u", "w") == 4
        assert is_completion_of(got, g)

    def test_complete_input_unchanged(self, quadruple):
        assert shortest_path_completion(quadruple) == quadruple

    def test_non_metric_triangle_raises_with_witness(self):
        g = graph("abc", 5, [("a", "b", 1), ("b", "c", 1), ("a", "c", 5)])
        with pytest.raises(NonMetricCycleError) as err:
            shortest_path_completion(g)
        assert sorted(err.value.cycle.labels) == [1, 1, 5]

    def test_disconnected_raises(self):
        for edges, count in [
                ([("a", "b", 1), ("c", "d", 1)], 2),
                ([("a", "c", 1)], 3),
                # counted before the non-metric triangle on a, b, c is found
                ([("a", "b", 1), ("b", "c", 1), ("a", "c", 3)], 2)]:
            with pytest.raises(InputError) as err:
                shortest_path_completion(graph("abcd", 3, edges))
            assert str(err.value) == \
                f"graph is disconnected ({count} components); complete per component"

    def test_bound_grows_when_needed(self):
        g = graph("abc", 3, [("a", "b", 3), ("b", "c", 3)])
        got = shortest_path_completion(g)
        assert got.dist("a", "c") == 6 and got.delta == 6

    def test_random_graphs_metric_and_symmetry_preserving(self):
        rng = random.Random(20240811)
        done = 0
        while done < 60:
            g = random_connected_partial(rng, rng.randint(2, 6), 5)
            if find_non_metric_cycle(g) is not None:
                continue
            done += 1
            got = shortest_path_completion(g)
            assert got.is_complete() and is_completion_of(got, g)
            for a, b, c in itertools.combinations(got.vertices, 3):
                x, y, z = got.dist(a, b), got.dist(a, c), got.dist(b, c)
                assert x <= y + z and y <= x + z and z <= x + y
            # every input symmetry survives; the completion may gain symmetries
            # when an asymmetric definedness pattern completes symmetrically
            out = {a.pairs for a in automorphisms(got)}
            assert all(a.pairs in out for a in automorphisms(g))


class TestNonMetricCycles:
    def test_triangle_found(self):
        g = graph("abc", 5, [("a", "b", 1), ("b", "c", 1), ("a", "c", 5)])
        cycle = find_non_metric_cycle(g)
        assert cycle.is_non_metric and sorted(cycle.labels) == [1, 1, 5]

    def test_complete_metric_space_has_none(self, quadruple):
        assert find_non_metric_cycle(quadruple) is None

    def test_square_cycle(self):
        g = graph("abcd", 5, [("a", "b", 1), ("b", "c", 1), ("c", "d", 1),
                              ("a", "d", 5)])
        cycle = find_non_metric_cycle(g)
        assert sorted(cycle.labels) == [1, 1, 1, 5]
        assert set(cycle.vertices) == set("abcd")


class TestForbiddenCycleOracle:
    def test_non_metric_triangle_is_forbidden(self):
        gdesc = ClassDescriptor(7, 1).folded()
        assert forbidden_cycle_oracle(CycleSpec((1, 1, 5)), gdesc)

    def test_allowed_triangle_is_not(self):
        gdesc = ClassDescriptor(5, 2).folded()
        assert not forbidden_cycle_oracle(CycleSpec((2, 2, 2)), gdesc)

    def test_odd_perimeter_forbidden_in_bipartite(self):
        gdesc = ClassDescriptor(4, 4).folded()
        assert forbidden_cycle_oracle(CycleSpec((1, 1, 1)), gdesc)
        assert forbidden_cycle_oracle(CycleSpec((1, 1, 1, 1, 1)), gdesc)
        assert not forbidden_cycle_oracle(CycleSpec((1, 1, 1, 1)), gdesc)

    def test_oracle_agrees_with_triangle_predicate(self):
        gdesc = ClassDescriptor(5, 1).folded()
        for t in itertools.product(range(1, 5), repeat=3):
            from antipodal import is_forbidden_triangle
            assert forbidden_cycle_oracle(CycleSpec(t), gdesc) == \
                is_forbidden_triangle(*t, gdesc)

    @pytest.mark.parametrize("delta,K", [(3, 1), (4, 4), (5, 2)])
    def test_oracle_agrees_with_brute_completions(self, delta, K):
        gdesc = ClassDescriptor(delta, K).folded()
        for k in range(4, 7):
            for labels in _canonical_cycles(k, gdesc.diameter):
                cycle = graph(range(k), gdesc.diameter,
                              [(i, (i + 1) % k, labels[i]) for i in range(k)])
                assert forbidden_cycle_oracle(CycleSpec(labels), gdesc) == \
                    (not brute_completions(cycle, gdesc, limit=0)), labels

    def test_solver_refuses_labels_out_of_range(self):
        gdesc = ClassDescriptor(5, 2).folded()
        with pytest.raises(InputError, match=r"label 5 outside 1\.\.4"):
            next(solve_labels(range(3), {(0, 1): 5}, {(0, 2): [1]}, gdesc), None)
        with pytest.raises(InputError, match=r"label 0 outside 1\.\.4"):
            next(solve_labels(range(3), {(0, 1): 1}, {(0, 2): [2, 0]}, gdesc), None)

    @pytest.mark.parametrize("delta,K", [(3, 1), (4, 4), (5, 2), (7, 3)])
    def test_solver_leaves_match_product_and_filter(self, delta, K):
        # seeded folded instances on 4-5 vertices: each pair fixed, open with
        # a random ordered domain, or left unlabelled
        gdesc = ClassDescriptor(delta, K).folded()
        labels = range(1, gdesc.diameter + 1)
        rng = random.Random(f"solve-labels/{delta}/{K}")
        leaves = 0
        for _ in range(40):
            verts = range(rng.randint(4, 5))
            fixed, domains = {}, {}
            for pair in itertools.combinations(verts, 2):
                roll = rng.random()
                if roll < 0.3:
                    fixed[pair] = rng.choice(labels)
                elif roll < 0.85:
                    domains[pair] = rng.sample(labels, rng.randint(1, min(3, len(labels))))
            want = brute_labellings(verts, fixed, domains, gdesc)
            assert list(solve_labels(verts, fixed, domains, gdesc)) == want
            leaves += len(want)
        assert leaves > 0

    def test_length_refusal(self):
        gdesc = ClassDescriptor(3, 1).folded()
        with pytest.raises(Exception, match="bounded"):
            forbidden_cycle_oracle(CycleSpec((1,) * 9), gdesc)


class TestLocalFinitenessBound:
    def test_diameter3_is_unconstrained(self):
        # the folded diameter-2 family has no forbidden cycles at all
        got = local_finiteness_bound(ClassDescriptor(3, 1), 6)
        assert got.largest_forbidden == 0 and got.n == 4 and got.exhaustive

    def test_bipartite_odd_cycles_push_the_bound(self):
        got = local_finiteness_bound(ClassDescriptor(4, 4), 5)
        assert got.largest_forbidden == 5 and got.n == 10 and not got.exhaustive

    def test_diameter5(self):
        got = local_finiteness_bound(ClassDescriptor(5, 1), 5)
        assert got.n == max(4, 2 * got.largest_forbidden)
        assert got.largest_forbidden >= 3  # (1, 1, 4) breaks the triangle inequality


class TestOrientationSet:
    def test_default_is_valid(self):
        o = OrientationSet.default(4)
        assert o.sorted_members() == [2, 3, 4]

    def test_delta_must_belong(self):
        with pytest.raises(InputError):
            OrientationSet(4, frozenset({0, 1, 2}))

    def test_pairing_rule(self):
        with pytest.raises(InputError):
            OrientationSet(4, frozenset({1, 2, 3, 4}))  # both 1 and 3 inside

    def test_half_must_belong(self):
        with pytest.raises(InputError):
            OrientationSet(4, frozenset({3, 4}))


def canonical_f(g, delta=3):
    """Parity function read off the stored labels, free bits chosen as 1."""
    values = []
    for u, v in g.pairs():
        d = g.dist(u, v)
        values.append((u, v, (d % 2) if d is not None else 1))
    return ParityFunction(values)


class TestCheckFConditions:
    def test_quadruple_canonical_f_is_clean(self, quadruple, desc31):
        assert check_f_conditions(quadruple, canonical_f(quadruple), desc31) == []

    def test_constant_zero_breaks_label_side(self, edge3, desc31):
        f = ParityFunction([("u", "v", 0)])
        kinds = {v.kind for v in check_f_conditions(edge3, f, desc31)}
        assert "label-side" in kinds

    def test_crossing_violation(self, desc31):
        g = graph("abcd", 3, [("a", "b", 3), ("c", "d", 3)])
        f = ParityFunction([("a", "b", 1), ("c", "d", 1),
                            ("a", "c", 1), ("b", "d", 1),
                            ("a", "d", 1), ("b", "c", 1)])
        kinds = {v.kind for v in check_f_conditions(g, f, desc31)}
        assert "crossing" in kinds

    def test_missing_pairs_reported(self, quadruple, desc31):
        f = ParityFunction([("u", "v", 1)])
        kinds = {v.kind for v in check_f_conditions(quadruple, f, desc31)}
        assert "missing" in kinds


def two_disjoint_long_edges():
    return graph(["u1", "v1", "u2", "v2"], 3, [("u1", "v1", 3), ("u2", "v2", 3)])


def coherent_f(pairs_to_one, g):
    ones = {frozenset(p) for p in pairs_to_one}
    return ParityFunction([(u, v, 1 if frozenset((u, v)) in ones else 0)
                           for u, v in g.pairs()])


class TestAntipodalComplete:
    def test_two_long_edges(self, desc31):
        g = two_disjoint_long_edges()
        f = coherent_f([("u1", "v1"), ("u2", "v2"), ("u1", "u2"), ("v1", "v2")], g)
        got = antipodal_complete(g, f, desc31)
        assert got.dist("u1", "u2") == 1 and got.dist("u1", "v2") == 2
        assert got.dist("v1", "v2") == 1 and got.dist("v1", "u2") == 2
        assert is_member(got, desc31)

    def test_complete_input_unchanged(self, quadruple, desc31):
        got = antipodal_complete(quadruple, canonical_f(quadruple), desc31)
        assert got == quadruple

    def test_three_long_edges_against_brute_force(self, desc31):
        g = graph(["u1", "v1", "u2", "v2", "u3", "v3"], 3,
                  [("u1", "v1", 3), ("u2", "v2", 3), ("u3", "v3", 3)])
        f = coherent_f([("u1", "v1"), ("u2", "v2"), ("u3", "v3"),
                        ("u1", "u2"), ("v1", "v2"),
                        ("u1", "u3"), ("v1", "v3"),
                        ("u2", "u3"), ("v2", "v3")], g)
        got = antipodal_complete(g, f, desc31)
        # oracle: every completion by raw assignment, then filter by f
        oracle = brute_completions(g, desc31)
        assert any(all(got.dist(u, v) == labels[frozenset((u, v))]
                       for u, v in got.pairs()) for labels in oracle)
        for u, v in got.pairs():
            assert got.dist(u, v) % 2 == f.value(u, v)
        f_preserving = [a for a in automorphisms(g)
                        if all(f.value(u, v) == f.value(a[u], a[v])
                               for u, v in g.pairs())]
        for a in f_preserving:
            assert all(got.dist(u, v) == got.dist(a[u], a[v])
                       for u, v in got.pairs())

    def test_imperfect_matching_precondition(self, desc31):
        g = graph("uvw", 3, [("u", "v", 3)])
        with pytest.raises(PreconditionError) as err:
            antipodal_complete(g, canonical_f(g), desc31)
        assert err.value.clause == "perfect-matching"

    def test_half_joined_precondition(self, desc31):
        g = graph(["u1", "v1", "u2", "v2"], 3,
                  [("u1", "v1", 3), ("u2", "v2", 3), ("u1", "u2", 1)])
        with pytest.raises(PreconditionError) as err:
            antipodal_complete(g, canonical_f(g), desc31)
        assert err.value.clause == "antipodal-sum"

    def test_broken_f_precondition(self, desc31):
        g = two_disjoint_long_edges()
        f = coherent_f([("u1", "v1"), ("u2", "v2"),
                        ("u1", "u2"), ("u1", "v2")], g)  # crossing pair agrees
        with pytest.raises(PreconditionError) as err:
            antipodal_complete(g, f, desc31)
        assert err.value.clause == "parity-function"

    def test_forbidden_cycle_precondition(self):
        desc = ClassDescriptor(7, 1)
        # folded triangle (1, 1, 5) breaks the triangle inequality
        g = graph(["u1", "v1", "u2", "v2", "u3", "v3"], 7,
                  [("u1", "v1", 7), ("u2", "v2", 7), ("u3", "v3", 7),
                   ("u1", "u2", 1), ("v1", "v2", 1), ("u1", "v2", 6), ("v1", "u2", 6),
                   ("u1", "u3", 1), ("v1", "v3", 1), ("u1", "v3", 6), ("v1", "u3", 6),
                   ("u2", "u3", 5), ("v2", "v3", 5), ("u2", "v3", 2), ("v2", "u3", 2)])
        f = canonical_f(g)
        with pytest.raises(PreconditionError) as err:
            antipodal_complete(g, f, desc)
        assert err.value.clause == "forbidden-cycle"

    def test_bipartite_completion(self):
        desc = ClassDescriptor(4, 4)
        orientation = OrientationSet.default(4)
        g = graph(["u1", "v1", "u2", "v2"], 4, [("u1", "v1", 4), ("u2", "v2", 4)])
        f = coherent_f([("u1", "v1"), ("u2", "v2"), ("u1", "u2"), ("v1", "v2")], g)
        got = antipodal_complete(g, f, desc, orientation)
        assert is_member(got, desc)
        for u, v in got.pairs():
            d = got.dist(u, v)
            if f.value(u, v) == 1:
                assert d in orientation
            else:
                assert orientation.co_contains(d)

    def test_orientation_argument_policing(self, quadruple, desc31):
        with pytest.raises(InputError):
            antipodal_complete(quadruple, canonical_f(quadruple), desc31,
                               OrientationSet.default(3))
        with pytest.raises(InputError):
            antipodal_complete(quadruple, canonical_f(quadruple),
                               ClassDescriptor(4, 4))


def random_folded(rng: random.Random, n: int, diameter: int, density: float):
    """Partial graph on ``x0 .. x{n-1}`` with random labels on some pairs."""
    verts = [f"x{i}" for i in range(n)]
    return graph(verts, diameter,
                 [(u, v, rng.randint(1, diameter))
                  for u, v in itertools.combinations(verts, 2) if rng.random() < density])


def sweep_first_forbidden(folded, gdesc, cycle_bound):
    """The first forbidden cycle, deciding every cycle afresh, or ``None``."""
    for labels, verts in brute_simple_cycles(folded, min(cycle_bound, len(folded))):
        if forbidden_cycle_oracle(CycleSpec(labels), gdesc, max_length=cycle_bound):
            return labels, verts
    return None


def doubled(folded, desc: ClassDescriptor, rng: random.Random):
    """Partial antipodal graph folding to ``folded``, with a coherent ``f``.

    Folded vertex ``x<i>`` keeps its name and gets the mate ``y<i>``.  ``f``
    follows the labels on labelled pairs and is drawn at random on the
    others, equal on parallel pairs and opposite on crossing ones.
    """
    delta = desc.delta
    orientation = None
    if desc.variant is Variant.EVEN_BIPARTITE:
        orientation = OrientationSet.default(delta)

    def side(a):
        if a is None or 2 * a == delta:
            return rng.randint(0, 1)
        return a % 2 if orientation is None else int(a in orientation)

    pairs = [(x, "y" + x[1:]) for x in folded.vertices]
    edges, bits = [], []
    for x, y in pairs:
        edges.append((x, y, delta))
        bits.append((x, y, 1))
    for (xi, yi), (xj, yj) in itertools.combinations(pairs, 2):
        a = folded.dist(xi, xj)
        bit = side(a)
        if a is not None:
            edges += [(xi, xj, a), (yi, yj, a), (xi, yj, delta - a), (yi, xj, delta - a)]
        bits += [(xi, xj, bit), (yi, yj, bit), (xi, yj, 1 - bit), (yi, xj, 1 - bit)]
    verts = [v for pair in pairs for v in pair]
    return graph(verts, delta, edges), ParityFunction(bits), orientation


class TestFoldedCycles:
    def test_cycles_match_brute_force(self):
        # seeded partial graphs of 0-7 vertices: the same cycles in the same order
        rng = random.Random(11)
        lengths = set()
        for _ in range(150):
            g = random_folded(rng, rng.randint(0, 7), 3, rng.choice((0.3, 0.6, 1.0)))
            bound = rng.randint(3, 7)
            got = [(c.labels, c.vertices) for c in _folded_cycles(g, bound)]
            assert got == brute_simple_cycles(g, bound), (g, bound)
            lengths.update(len(labels) for labels, _ in got)
        assert lengths == {3, 4, 5, 6, 7}


class TestForbiddenCyclePrecondition:
    CLASSES = [(3, 1), (5, 1), (5, 2), (7, 1), (7, 2), (7, 3), (4, 4), (6, 6)]

    def test_first_forbidden_cycle_matches_unmemoised_sweep(self):
        # seeded folded partial graphs of 3-7 vertices in eight classes
        rng = random.Random(5)
        outcomes = set()
        for trial in range(400):
            gdesc = ClassDescriptor(*self.CLASSES[trial % len(self.CLASSES)]).folded()
            g = random_folded(rng, rng.randint(3, 7), gdesc.diameter,
                              rng.choice((0.4, 0.6, 0.8)))
            cycle_bound = rng.randint(3, 8)
            got = _first_forbidden_cycle(g, gdesc, cycle_bound)
            want = sweep_first_forbidden(g, gdesc, cycle_bound)
            assert (got and (got.labels, got.vertices)) == want, (g, gdesc, cycle_bound)
            outcomes.add(want and len(want[0]))
        assert {None, 3, 4, 5} <= outcomes

    def test_precondition_message_matches_unmemoised_sweep(self):
        # folded graphs of 3-5 vertices doubled into partial antipodal graphs
        rng = random.Random(6)
        outcomes = set()
        for trial in range(120):
            desc = ClassDescriptor(*self.CLASSES[trial % len(self.CLASSES)])
            g = random_folded(rng, rng.randint(3, 5), desc.delta - 1,
                              rng.choice((0.4, 0.7)))
            partial, f, orientation = doubled(g, desc, rng)
            want = sweep_first_forbidden(g, desc.folded(), 8)
            try:
                antipodal_complete(partial, f, desc, orientation, verify_limit=10)
                got = None
            except PreconditionError as exc:
                got = str(exc)
            except CompletionError:
                got = None
            assert got == (want and "forbidden-cycle: folded image contains the "
                           f"forbidden cycle {want[0]} on {want[1]}"), (partial, desc)
            outcomes.add(want and len(want[0]))
        assert {None, 3, 4} <= outcomes


    def test_complete_first_matches_precondition_first(self):
        # the seeded inputs of the test above; the whole outcome must agree
        # with checking the forbidden-cycle precondition before the search
        rng = random.Random(6)
        outcomes = set()
        for trial in range(120):
            desc = ClassDescriptor(*self.CLASSES[trial % len(self.CLASSES)])
            g = random_folded(rng, rng.randint(3, 5), desc.delta - 1,
                              rng.choice((0.4, 0.7)))
            partial, f, orientation = doubled(g, desc, rng)
            cyc = _first_forbidden_cycle(g, desc.folded(), CYCLE_BOUND)
            if cyc is not None:
                want = ("PreconditionError", "forbidden-cycle: folded image contains "
                        f"the forbidden cycle {cyc.labels} on {cyc.vertices}")
            else:
                want = completion_outcome(partial, f, desc, orientation)
            assert completion_outcome(partial, f, desc, orientation) == want, (partial, desc)
            outcomes.add(want[0])
        assert outcomes == {"PreconditionError", "CompletionError",
                            "CompletionNotEquivariant", "EdgeLabelledGraph"}


def completion_outcome(partial, f, desc, orientation):
    """``(type name, message or completed graph)`` of one completion call."""
    try:
        completed = antipodal_complete(partial, f, desc, orientation, verify_limit=10)
    except (CompletionError, PreconditionError) as exc:
        return type(exc).__name__, str(exc)
    return type(completed).__name__, completed


class TestEquivarianceAudit:
    def test_f_preserving_maps_filter_automorphisms(self):
        # seeded partial graphs with few labels; f is the disagreement of a
        # random 2-colouring, sometimes with noise, so that many symmetries
        # exist and many of them break f
        rng = random.Random(9)
        kept = dropped = 0
        for _ in range(150):
            n = rng.randint(0, 7)
            g = random_folded(rng, n, 2, rng.choice((0.0, 0.3, 0.6)))
            colour = [rng.randint(0, 1) for _ in range(n)]
            noise = rng.choice((0.0, 0.1))
            f = ParityFunction([(u, v, colour[i] ^ colour[j] ^ (rng.random() < noise))
                                for (i, u), (j, v) in itertools.combinations(
                                    enumerate(g.vertices), 2)])
            everything = automorphisms(g, max_vertices=7)
            want = [a.pairs for a in everything
                    if all(f.value(u, v) == f.value(a[u], a[v]) for u, v in g.pairs())]
            assert list(_f_preserving_maps(g, f)) == want, (g, f)
            kept += len(want)
            dropped += len(everything) - len(want)
        assert kept > 500 and dropped > 5000

    # (4,4) partial members whose f comes from the member's own suitable
    # expansion; the completion breaks an f-preserving symmetry that swaps
    # two long edges and fixes every other vertex
    @pytest.mark.parametrize("name, swapped", [
        ("c48", [("x4a9f0859", "y7835fdae"), ("y4a9f0859", "x7835fdae")]),
        ("c211", [("x2306d930", "xaf7d2d2a"), ("y2306d930", "yaf7d2d2a")]),
    ])
    def test_completion_not_equivariant(self, name, swapped):
        parsed = read_structure_file(COMPLETION_FIXTURES / f"{name}.elg")
        moved = {}
        for u, v in swapped:
            moved[u], moved[v] = v, u
        g = Automorphism.of({v: moved.get(v, v) for v in parsed.graph.vertices})
        with pytest.raises(CompletionNotEquivariant) as err:
            antipodal_complete(parsed.graph, parsed.parity, parsed.descriptor,
                               OrientationSet.default(4), verify_limit=16)
        assert str(err.value) == f"completion drops the parity-preserving symmetry {g!r}"
        assert err.value.automorphism == g
