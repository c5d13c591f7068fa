"""Graph-sum machinery: enumeration, automorphisms, conventions, invariants."""

from __future__ import annotations

import hashlib
import itertools
from fractions import Fraction
from math import comb, factorial

import pytest

from ocmirror import localization
from ocmirror.correspondence import disk_potential_bessel, disk_potential_localized
from ocmirror.geometry import phi_p1
from ocmirror.localization import (
    DecoratedGraph,
    _block_factors,
    _compositions,
    _edge_adjacency,
    _edge_coefficient,
    _graph_contribution,
    _leaf_order,
    _least_placements,
    _on_edges,
    _open_classes,
    _open_sum,
    _orbit_representatives,
    _rooted_forests,
    _rooted_key,
    _rooted_order,
    _rooted_sum,
    _shape_catalogue,
    _sibling_swaps,
    _vertex_scalar,
    _with_factors,
    automorphism_count,
    count_labeled_graphs,
    disk_factor,
    enumerate_graph_classes,
    graph_class_rows,
    open_invariant,
    open_via_closed,
)
from ocmirror.series import FormalSeries, TruncationWindow, mono

from second_routes import (
    canonical_key,
    class_rows_by_class,
    closed_descendant,
    hyperplane_p1,
    j_degree_part_from_graphs,
    j_reduced_component,
    phi_dual_p1,
    psi_integral_by_string,
    scale,
    shape_key,
    unit_p1,
    v_term,
    validate_graph,
    vertex_integral,
    vertex_integral_by_ladder,
    walk_blocks,
    walk_shapes,
)

F = Fraction

# ---------------------------------------------------------------------------
# psi integrals
# ---------------------------------------------------------------------------


# the psi integrals are the vertex integrals with no flags: num/den * v^0
def test_psi_closed_form_examples():
    assert _vertex_scalar([], [0, 0, 0]) == (1, 1, 0)
    assert _vertex_scalar([], [1, 0, 0, 0]) == (1, 1, 0)
    assert _vertex_scalar([], [2, 0, 0, 0]) == (0, 1, 0)  # wrong total degree
    assert _vertex_scalar([], [1, 1, 0, 0, 0]) == (2, 1, 0)
    assert _vertex_scalar([], [2, 0, 0, 0, 0]) == (1, 1, 0)


def test_psi_rejects_bad_input():
    with pytest.raises(ValueError):
        psi_integral_by_string((0,))


def test_psi_string_recursion_agrees_small():
    for n in range(3, 7):
        for exps in itertools.product(range(n - 2), repeat=n):
            if sum(exps) == n - 3:
                want = psi_integral_by_string(exps)
                assert _vertex_scalar([], list(exps)) == (want, 1, 0), exps


# ---------------------------------------------------------------------------
# graphs and automorphisms
# ---------------------------------------------------------------------------


def test_validate_rejects_malformed_graphs():
    with pytest.raises(ValueError):
        validate_graph(DecoratedGraph((1, 1), ((0, 1, 1),)))  # same label across edge
    with pytest.raises(ValueError):
        validate_graph(DecoratedGraph((1, 2), ((0, 1, 0),)))  # degree zero
    with pytest.raises(ValueError):
        validate_graph(DecoratedGraph((1, 2, 1), ((0, 1, 1),)))  # not a tree
    with pytest.raises(ValueError):
        validate_graph(DecoratedGraph((1, 2), ((0, 1, 1),), (5,)))  # marking off graph
    with pytest.raises(ValueError):
        validate_graph(DecoratedGraph((1, 3), ((0, 1, 1),)))  # label out of range


def test_class_counts_small():
    assert len(enumerate_graph_classes(0, 1)) == 1
    assert len(enumerate_graph_classes(0, 2)) == 3
    assert len(enumerate_graph_classes(1, 1)) == 2
    # d=3: one double-labeled edge class on 2 vertices, two 3-chains, and on
    # 4 vertices two stars plus a single path class (the two alternating
    # labelings of a path are isomorphic under reversal)
    assert len(enumerate_graph_classes(0, 3)) == 6


def test_enumeration_rejects_degree_zero():
    with pytest.raises(ValueError):
        enumerate_graph_classes(0, 0)


def test_automorphism_orders_degree_two():
    auts = sorted(automorphism_count(g) for g in enumerate_graph_classes(0, 2))
    assert auts == [1, 2, 2]


def test_star_automorphisms():
    star = DecoratedGraph((2, 1, 1, 1), ((0, 1, 1), (0, 2, 1), (0, 3, 1)))
    validate_graph(star)
    assert automorphism_count(star) == 6
    marked = DecoratedGraph((2, 1, 1, 1), ((0, 1, 1), (0, 2, 1), (0, 3, 1)), (1,))
    assert automorphism_count(marked) == 2


def test_path_with_distinct_degrees_is_rigid():
    path = DecoratedGraph((1, 2, 1), ((0, 1, 1), (1, 2, 2)))
    assert automorphism_count(path) == 1


def _enumerate_by_dedupe(n, d):
    """Oracle: every labeled graph of the Pruefer walk, deduped by canonical
    key, no block skipping."""
    found = {}
    for V in range(2, d + 2):
        for tree, labels in walk_blocks(V):
            for degs in _compositions(d, V - 1):
                edges = tuple((u, v, de) for (u, v), de in zip(tree, degs))
                for marks in itertools.product(range(V), repeat=n):
                    g = DecoratedGraph(labels, edges, tuple(marks))
                    found.setdefault(canonical_key(g), g)
    return list(found.values())


def _aut_brute(g):
    """Oracle: count label-, marking- and degree-preserving vertex permutations."""
    V = len(g.labels)
    edge_map = {(u, v): de for u, v, de in g.edges}
    count = 0
    for perm in itertools.permutations(range(V)):
        if any(g.labels[perm[v]] != g.labels[v] for v in range(V)):
            continue
        if any(perm[mv] != mv for mv in g.markings):
            continue
        if all(
            edge_map.get((min(perm[u], perm[v]), max(perm[u], perm[v]))) == de
            for (u, v), de in edge_map.items()
        ):
            count += 1
    return count


ORACLE_GRID = [(n, d) for n in range(3) for d in range(1, 5)] + [(0, 5), (3, 3), (4, 3)]
# points only the dedupe oracle reads, beyond the grid the slower oracles share
BEYOND_ORACLE_GRID = [(1, 5), (0, 6), (5, 3)]


@pytest.mark.parametrize("n,d", ORACLE_GRID + BEYOND_ORACLE_GRID)
def test_enumeration_matches_dedupe_oracle(n, d):
    # to degree 3 (four vertices) the catalogue's trees are the walk's: the
    # same classes, representatives and order as the unskipped walk.  Beyond,
    # the shapes are other trees, so each of the oracle's classes maps one to
    # one onto a class with its key, its order and its unit-class summand
    classes = enumerate_graph_classes(n, d)
    oracle = _enumerate_by_dedupe(n, d)
    if d <= 3:
        assert classes == oracle
    else:
        by_key = {canonical_key(g): g for g in classes}
        assert len(by_key) == len(classes) == len(oracle)
        insertions = [(unit_p1(), 0)] * n
        for want in oracle:
            g = by_key[canonical_key(want)]
            assert automorphism_count(g) == automorphism_count(want), g
            assert _contribution(g, insertions) == _contribution(want, insertions), g
    for g in classes:
        validate_graph(g)
        # the order read off the placement's orbit is the order a fresh copy
        # of the graph counts from its key
        fresh = DecoratedGraph(g.labels, g.edges, g.markings)
        assert g.__dict__["_aut"] == automorphism_count(fresh), g


# (n, d) -> (class count, sha256 over each class's (labels, edges, markings,
# aut) repr in enumeration order), recorded while marked trees were placed by
# a listed group up to V^n placements and by orbit search past it; (1, 10)
# reaches the 11-vertex star, past that bound, and (2, 6) the first trees
# where a second marking's orbits hang on the first one's root path
ENUMERATION_DIGESTS = {
    (1, 4): (48, "0bc49d49953ccb38a5e2efe549a12158da872fa3a2be044d0dee4b9b00471f6f"),
    (2, 4): (170, "ff071c4521e8f746ace2cd8ccf589574a03c4b6e172f9843b8e3cf6138d303d4"),
    (3, 3): (156, "9d17d142606c6cefc28d00fd97ac042f48373b0d369fb2eb17bfe8e61db04e73"),
    (4, 3): (536, "a2a30d891dc329cbdf0df58810223e7037e9d3b124f426eb8d8764679df7507b"),
    (4, 5): (13344, "45310db6c7c8d29b6d0d0bd744f0b731ca1d0626e5bb6aa633d5f0eaab485394"),
    (8, 2): (6818, "b58760e329a71be2950a7519d4d827fa060598687c74e2651f8b69ae0d4062f5"),
    (1, 8): (4636, "c81af6d3b996885ab5f53591f4c85e24020699c1fd70a4399d4ef1cdbb723946"),
    (1, 10): (51406, "bf9748bd7027e7b46f01ddaf843fee0187c94183b284e5f6d5c1ba88d95471a7"),
    (2, 6): (2178, "9e133f68b25bb613f688613e5c59bd58ebc278ced1d1969007d18ec5bb3ddc20"),
}


@pytest.mark.parametrize("n,d", list(ENUMERATION_DIGESTS))
def test_enumeration_matches_recorded_digest(n, d):
    # the same classes, representatives, order and class orders as recorded
    classes = enumerate_graph_classes(n, d)
    digest = hashlib.sha256()
    for g in classes:
        digest.update(repr((g.labels, g.edges, g.markings, automorphism_count(g))).encode())
    assert (len(classes), digest.hexdigest()) == ENUMERATION_DIGESTS[n, d]


# bare shapes (2-coloured trees up to isomorphism) on V = 2..12 vertices
SHAPE_COUNTS = [1, 2, 3, 6, 10, 22, 42, 94, 203, 470, 1082]


@pytest.mark.parametrize("V,count", zip(range(2, 13), SHAPE_COUNTS))
def test_shape_walk_stops_with_every_shape_found(V, count):
    # the catalogue is complete: its shapes are distinct, and their orbits
    # V!/|Aut| cover all 2 * V^(V-2) labeled 2-coloured trees
    # (orbit-stabiliser).  The orders are the brute-force search's to V = 7,
    # as the record test below checks
    catalogue = _shape_catalogue(V)
    assert len({shape_key(tree, labels) for tree, labels, *_ in catalogue}) == count
    assert len(catalogue) == count
    assert sum(F(factorial(V), aut) for *_, aut, _ in catalogue) == 2 * V ** (V - 2)


def test_shape_catalogue_walks_each_vertex_count_once(monkeypatch):
    # each vertex count's catalogue is grown once per process, from the one
    # on a vertex fewer (a lone vertex for V = 2): one tree per vertex of
    # each smaller shape
    grown = []

    def counted_order(V, edges):
        grown.append(V)
        return _leaf_order(V, edges)

    monkeypatch.setattr(localization, "_leaf_order", counted_order)
    _shape_catalogue.cache_clear()  # earlier tests filled it
    enumerate_graph_classes(1, 4)
    parents = {2: 1, 3: 1, 4: 2, 5: 3}
    assert grown == [V for V in range(2, 6) for _ in range((V - 1) * parents[V])]
    # other markings, the same vertex counts: no catalogue is grown again
    enumerate_graph_classes(2, 4)
    enumerate_graph_classes(0, 4)
    assert len(grown) == 1 + 2 + 6 + 12


def _closure(V, swaps):
    """Every vertex permutation the swaps generate, the identity included."""
    group = {tuple(range(V))}
    stack = list(group)
    while stack:
        perm = stack.pop()
        for swap in swaps:
            composed = tuple(swap[v] for v in perm)
            if composed not in group:
                group.add(composed)
                stack.append(composed)
    return group


@pytest.mark.parametrize("V", range(2, 7))
def test_sibling_swaps_generate_the_automorphism_group(V):
    # every block of every shape, degree-decorated with each composition of
    # V-1 to V+1 into V-1 parts, and no markings
    unmarked = [()] * V
    for tree, labels, order, *_ in _shape_catalogue(V):
        for d in range(V - 1, V + 2):
            for degs in _compositions(d, V - 1):
                _, aut, below = _rooted_key(labels, order, degs, unmarked)
                swaps = _sibling_swaps(order, degs, below)
                edges = {frozenset((u, v)): de for (u, v), de in zip(tree, degs)}
                for swap in swaps:
                    assert sorted(swap) == list(range(V))
                    assert [labels[u] for u in swap] == list(labels)
                    moved = {frozenset((swap[u], swap[v])): de for (u, v), de in zip(tree, degs)}
                    assert moved == edges
                g = DecoratedGraph(labels, tuple((u, v, de) for (u, v), de in zip(tree, degs)))
                assert len(_closure(V, swaps)) == _aut_brute(g) == aut, g


def test_enumeration_keys_each_composition_once(monkeypatch):
    # the placement walk keys a kept composition's tree once, unmarked, only
    # when markings meet its automorphisms: without markings, or on a tree
    # with none, nothing is keyed
    for V in range(2, 11):
        _shape_catalogue(V)  # its keys are not counted
    symmetric = {}
    for n, d in [(4, 3), (1, 8)]:
        trees = dict.fromkeys((g.labels, g.edges) for g in enumerate_graph_classes(n, d))
        symmetric[n, d] = [
            (labels, tuple(de for *_, de in edges))
            for labels, edges in trees
            if automorphism_count(DecoratedGraph(labels, edges)) > 1
        ]
    calls = []

    def counted_key(*args):
        calls.append(args)
        return _rooted_key(*args)

    monkeypatch.setattr(localization, "_rooted_key", counted_key)
    assert len(enumerate_graph_classes(0, 9)) == 2387
    assert calls == []
    for n, d in [(4, 3), (1, 8)]:
        calls.clear()
        enumerate_graph_classes(n, d)
        assert [(labels, tuple(degs)) for labels, _, degs, _ in calls] == symmetric[n, d]
        assert all(marks == [()] * len(labels) for labels, _, _, marks in calls)
    # (4, 3): only the two 3-leaf stars have automorphisms
    assert len(symmetric[4, 3]) == 2


def _on_vertices(marks: tuple, perm) -> tuple:
    """A placement moved by a vertex permutation: each marking follows its vertex."""
    return tuple([perm[v] for v in marks])


def _placements_by_search(labels, order, degs, n, aut):
    """The breadth-first route: each orbit's first placement under the
    sibling swaps of the keyed tree, with its tree's order over its orbit's
    size."""
    V = len(labels)
    _, _, below = _rooted_key(labels, order, degs, [()] * V)
    swaps = _sibling_swaps(order, degs, below)
    placements = itertools.product(range(V), repeat=n)
    orbits = _orbit_representatives(placements, swaps, _on_vertices)
    return [(marks, aut // size) for marks, size in orbits]


@pytest.mark.parametrize("V", range(2, 7))
def test_stabiliser_chain_matches_the_orbit_search(V):
    # every kept composition of degree V-1 to V+1 of every shape, at 1 to 4
    # markings: the walk down the stabiliser chain, its orbits read off the
    # fixed root paths, gives the search's representatives, in its order,
    # with its class orders.  Then the enumeration gives them too
    want = {}
    for tree, labels, order, shape_aut, edge_swaps in _shape_catalogue(V):
        for d in range(V - 1, V + 2):
            kept = _orbit_representatives(_compositions(d, V - 1), edge_swaps, _on_edges)
            for degs, orbit in kept:
                aut = shape_aut // orbit
                edges = tuple((u, v, de) for (u, v), de in zip(tree, degs))
                for n in range(1, 5):
                    search = _placements_by_search(labels, order, degs, n, aut)
                    placed = list(_least_placements(labels, order, degs, n, aut))
                    assert placed == search, (labels, degs, n)
                    want[n, d, labels, edges] = search
    for n in range(1, 5):
        for d in range(V - 1, V + 2):
            got = {}
            for g in enumerate_graph_classes(n, d):
                if len(g.labels) == V:
                    got.setdefault((n, d, g.labels, g.edges), []).append(
                        (g.markings, automorphism_count(g))
                    )
            assert got == {key: value for key, value in want.items() if key[:2] == (n, d)}


@pytest.mark.parametrize("V", range(2, 8))
def test_compositions_walked_up_to_the_shape_automorphisms(V):
    # the kept compositions of each shape are the first of their orbits under
    # its edge swaps: the orbits cover every composition once, and each kept
    # tree's order, the shape's over its orbit size, is the one its key counts
    unmarked = [()] * V
    for tree, labels, order, aut, edge_swaps in _shape_catalogue(V):
        for d in range(V - 1, V + 3):
            kept = list(_orbit_representatives(_compositions(d, V - 1), edge_swaps, _on_edges))
            assert sum(size for _, size in kept) == comb(d - 1, V - 2), (labels, d)
            keys = set()
            for degs, size in kept:
                key, tree_aut, _ = _rooted_key(labels, order, degs, unmarked)
                assert aut % size == 0 and aut // size == tree_aut, (labels, degs)
                keys.add(key)
            assert len(keys) == len(kept)  # no two kept compositions isomorphic


def _made_of_tuples(x) -> bool:
    return not isinstance(x, list) and (not isinstance(x, tuple) or all(map(_made_of_tuples, x)))


@pytest.mark.parametrize("V", range(2, 8))
def test_shape_catalogue_is_the_walk_as_tuples(V):
    # the catalogue holds the shapes of the unstopped Pruefer walk, and to
    # V = 4 each record holds its shape's first block in the walk: its tree,
    # labels and rooted order.  Tuples all through
    catalogue = _shape_catalogue(V)
    walk = walk_shapes(V)
    if V <= 4:
        assert [record[:3] for record in catalogue] == [
            (tree, labels, tuple(_rooted_order(labels, _edge_adjacency(V, tree))))
            for tree, labels in walk
        ]
    assert len(catalogue) == len(walk)
    keys = {shape_key(tree, labels) for tree, labels, *_ in catalogue}
    assert keys == {shape_key(tree, labels) for tree, labels in walk}
    assert isinstance(catalogue, tuple) and _made_of_tuples(catalogue)
    # each shape's order and edge swaps: involutions of the edges that keep
    # which edges meet, and at which fixed point, and generate a group of
    # the brute-force order
    for tree, labels, _, aut, edge_swaps in catalogue:
        shape = DecoratedGraph(labels, tuple((u, v, 1) for u, v in tree))

        def meeting(e, f):
            common = set(tree[e]) & set(tree[f])
            return labels[common.pop()] if common else None

        pairs = list(itertools.permutations(range(V - 1), 2))
        for swap in edge_swaps:
            assert sorted(swap) == list(range(V - 1))
            assert all(swap[swap[e]] == e for e in range(V - 1))
            assert all(meeting(e, f) == meeting(swap[e], swap[f]) for e, f in pairs)
        assert len(_closure(V - 1, edge_swaps)) == aut == _aut_brute(shape)


@pytest.mark.parametrize("n,d", ORACLE_GRID)
def test_automorphism_count_matches_brute_force(n, d):
    for g in enumerate_graph_classes(n, d):
        assert automorphism_count(g) == _aut_brute(g), g


def test_equal_branches_multiply_child_orders():
    # a root with two equal branches, each a vertex with two equal leaves:
    # the run contributes 2! * aut(branch)^2 = 2 * 2^2.  Degrees up to 5 have
    # too few vertices for such a run, so the grid above never reaches it.
    labels = (1, 2, 2, 1, 1, 1, 1)
    edges = ((0, 1, 1), (0, 2, 1), (1, 3, 1), (1, 4, 1), (2, 5, 1), (2, 6, 1))
    for markings, order in [((), 8), ((3,), 2)]:
        g = DecoratedGraph(labels, edges, markings)
        assert automorphism_count(g) == _aut_brute(g) == order


def test_orbit_counts_match_labeled_enumeration():
    # sum over classes of V!/|Aut| must reproduce the labeled count, per V;
    # Cayley's count never goes through the canonical key or its root
    for n, d in ORACLE_GRID:
        by_v = {}
        for g in enumerate_graph_classes(n, d):
            V = len(g.labels)
            by_v[V] = by_v.get(V, F(0)) + F(factorial(V), automorphism_count(g))
        for V in range(2, d + 2):
            assert by_v.get(V, 0) == count_labeled_graphs(n, d, V), (n, d, V)


# ---------------------------------------------------------------------------
# contribution factors
# ---------------------------------------------------------------------------


def test_edge_factors():
    # h(d) = coefficient * v^(-2d)
    assert F(*_edge_coefficient(1)) == -1
    assert F(*_edge_coefficient(2)) == 4
    with pytest.raises(ValueError):
        _edge_coefficient(0)


def test_vertex_integral_conventions():
    # three flags of weight v: 1/v^3
    assert vertex_integral([F(1), F(1), F(1)]) == v_term(1, -3)
    # two flags v and -v/2: 1/(v - v/2) = 2/v
    assert vertex_integral([F(1), F(-1, 2)]) == v_term(2, -1)
    # flag + psi^2 marking: (-v)^2
    assert vertex_integral([F(1)], [2]) == v_term(1, 2)
    # lone flag: the weight itself
    assert vertex_integral([F(1)]) == v_term(1, 1)
    assert vertex_integral([F(-1, 3)]) == v_term(F(-1, 3), 1)


def test_vertex_integral_stable_expansion_terminates():
    # flag + open + marking: dimension 0, single term 1/(w_f w_o)
    got = vertex_integral([F(1)], [0], F(1, 2))
    assert got == v_term(2, -2)
    # psi-budget overdrawn: zero, not an error
    assert vertex_integral([F(1)], [5], F(1, 2)) == 0


def test_vertex_integral_rejects_unhandled_shapes():
    with pytest.raises(ValueError):
        vertex_integral([], [0])  # single marking alone
    with pytest.raises(ValueError):
        vertex_integral([F(0)])
    with pytest.raises(ValueError):
        vertex_integral([], [1, 1])


def _contribution_by_series(g, insertions, open_vertex=None, mu=None):
    """Oracle: one class's summand as a running product of one-term series,
    with each vertex integral summed over its ladder; a boundary flag on
    ``open_vertex`` has weight v/mu."""
    total = v_term(F(1, automorphism_count(g)))
    for _, _, de in g.edges:
        h = v_term(F((-1) ** de * de ** (2 * de), factorial(de) ** 2), -2 * de)
        total = total * scale(h, F(1, de))
    for v, label in enumerate(g.labels):
        sign = -1 if label == 1 else 1
        flags = [F(sign, de) for a, b, de in g.edges if v in (a, b)]
        exps = []
        for i, mv in enumerate(g.markings):
            if mv == v and i < len(insertions):
                restriction, a = insertions[i]
                exps.append(a)
                total = total * v_term(*restriction[label - 1])
        k = len(flags) - 1
        total = scale(total, F(sign) ** k, mono(V=k))
        ow = F(1, mu) if v == open_vertex else None
        total = total * vertex_integral_by_ladder(flags, exps, ow)
        if total.is_zero():
            return total
    return total


def _contribution(g, insertions, open_vertex=None, mu=None, factors=None):
    """The program's summand num/den * v^k as a series, for the oracle to
    compare, from its tree's factors, fresh ones unless given; its
    denominator must be positive."""
    factors = factors or _block_factors(g.labels, g.edges)
    num, den, k = _graph_contribution(g, insertions, factors, open_vertex, mu)
    assert den > 0, (num, den, k)
    return v_term(F(num, den), k)


def _outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raises."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


# integer and non-unit rational weights of both signs; a flag of weight 1
# or -2 beside a boundary flag of the opposite weight, and the edge flags
# 2/3 and -2/3, sum to zero
LADDER_WEIGHTS = [F(1), F(-2), F(3), F(2, 3), F(-2, 3), F(-3, 2)]
LADDER_OPEN_WEIGHTS = [None, F(1), F(-1), F(2), F(-2), F(1, 3)]


def test_closed_vertex_integral_matches_the_ladder():
    outcomes = []
    for n_flags in range(4):
        for flags in itertools.combinations_with_replacement(LADDER_WEIGHTS, n_flags):
            for n_exps in range(3):
                for exps in itertools.combinations_with_replacement(range(4), n_exps):
                    for ow in LADDER_OPEN_WEIGHTS:
                        args = (list(flags), list(exps), ow)
                        want = _outcome(vertex_integral_by_ladder, *args)
                        assert _outcome(vertex_integral, *args) == want, args
                        outcomes.append(want)
    # the grid reaches every branch: nonzero values, overdrawn budgets,
    # zero sums and vertices with no convention
    assert sum(isinstance(o, FormalSeries) and not o.is_zero() for o in outcomes) > 1000
    assert any(isinstance(o, FormalSeries) and o.is_zero() for o in outcomes)
    assert (ZeroDivisionError, "Fraction(1, 0)") in outcomes
    assert any(isinstance(o, tuple) and o[0] is ValueError for o in outcomes)


def _insertion_lists(n):
    unit = unit_p1()
    for a in range(3):
        yield [(unit, a)] * n
    yield [(unit, i % 3) for i in range(n)]
    for cls in (hyperplane_p1(), phi_p1(1), phi_p1(2), phi_dual_p1(1), phi_dual_p1(2)):
        yield [(cls, i % 2) for i in range(n)]


@pytest.mark.parametrize("n,d", ORACLE_GRID)
def test_scalar_contribution_matches_series_oracle(n, d):
    # each class alone, and with its tree's factors, whose memo of vertex
    # integrals all the tree's classes and insertion lists share
    for g, factors in _with_factors(enumerate_graph_classes(n, d)):
        for insertions in _insertion_lists(n):
            want = _contribution_by_series(g, insertions)
            assert _contribution(g, insertions) == want, (g, insertions)
            assert _contribution(g, insertions, None, None, factors) == want, (g, insertions)


@pytest.mark.parametrize("n,d", [(n, d) for n, d in ORACLE_GRID if n >= 1])
def test_scalar_contribution_matches_series_oracle_with_open_vertex(n, d):
    # the last marking carries the boundary flag, as in open_via_closed; a
    # lone edge flag of weight -1/mu beside it divides by zero.  The lists
    # take turns over the classes to keep the grid fast.
    lists = list(_insertion_lists(n - 1))
    raised = 0
    for j, g in enumerate(enumerate_graph_classes(n, d)):
        for mu in (1, -1, 2, -2):
            args = (g, lists[j % len(lists)], g.markings[n - 1], mu)
            want = _outcome(_contribution_by_series, *args)
            assert _outcome(_contribution, *args) == want, args
            raised += isinstance(want, tuple)
    assert raised > 0


@pytest.mark.parametrize("n,d", ORACLE_GRID)
def test_class_rows_match_series_oracle_on_fresh_graphs(n, d):
    # each row's order and summand, built from its tree's shared factors and
    # its orbit size, against a fresh copy of its graph that keys itself
    insertions = [(unit_p1(), 0)] * n
    for g, aut, contribution in graph_class_rows(n, d):
        fresh = DecoratedGraph(g.labels, g.edges, g.markings)
        assert "_aut" not in fresh.__dict__
        assert contribution == _contribution_by_series(fresh, insertions), g
        assert aut == automorphism_count(fresh), g


@pytest.mark.parametrize("n,d", [(n, d) for n in range(5) for d in range(1, 5)])
def test_class_rows_match_the_per_class_route(n, d):
    # each summand computed once per tree and marking count vector, against
    # each class's own contribution: graph, order and value, row for row
    assert graph_class_rows(n, d) == class_rows_by_class(n, d)


def test_vertex_integral_raises_before_a_vanishing_restriction_returns():
    # the restriction is zero at the vertex whose integral raises: the
    # integral comes first, so the call raises instead of returning zero
    args = (DecoratedGraph((1,), (), (0, 0)), [(phi_p1(2), 0)] * 2)  # no convention
    want = _outcome(_contribution_by_series, *args)
    assert isinstance(want, tuple), args
    assert _outcome(_contribution, *args) == want, args


def test_disk_factors():
    # D(mu) = num/den * v^k as (num, den, k), in lowest terms with den > 0
    assert disk_factor(1) == (1, 1, 1)
    assert disk_factor(-1) == (1, 1, 1)
    assert disk_factor(2) == (1, 2, 0)
    assert disk_factor(-2) == (-1, 2, 0)
    assert disk_factor(3) == (1, 2, -1)
    assert disk_factor(-3) == (1, 2, -1)
    assert disk_factor(4) == (2, 3, -2)
    assert disk_factor(-4) == (-2, 3, -2)
    assert disk_factor(5) == (25, 24, -3)
    with pytest.raises(ValueError):
        disk_factor(0)


# ---------------------------------------------------------------------------
# closed invariants
# ---------------------------------------------------------------------------


def test_unmarked_degree_one_and_two():
    assert closed_descendant([], 1) == v_term(1, 0)
    assert closed_descendant([], 2) == 0


def test_point_insertion_degree_one():
    assert closed_descendant([(phi_p1(2), 0)], 1) == v_term(1, -1)
    assert closed_descendant([(phi_p1(1), 0)], 1) == v_term(-1, -1)
    # fundamental-class insertion with no descendant dies by dimension
    assert closed_descendant([(unit_p1(), 0)], 1) == 0


WJ = TruncationWindow(max_q=4, max_t=2, max_abs_x=0, min_v=-8, max_v=8, min_z=-10, max_z=0)


@pytest.mark.parametrize("alpha", [1, 2])
@pytest.mark.parametrize("d", [1, 2])
def test_graph_sums_rebuild_curve_series(alpha, d):
    got = j_degree_part_from_graphs(alpha, d, WJ)
    full = j_reduced_component(alpha, WJ)
    want = FormalSeries(
        {m: c for m, c in full.items() if m.T == 0 and m.Q == 2 * d}, WJ
    )
    assert got == want


# ---------------------------------------------------------------------------
# open invariants
# ---------------------------------------------------------------------------


def test_graph_sums_compute_no_key(monkeypatch):
    # every class the program builds carries its order, and each vertex
    # count's shapes are grown once per process: with the catalogue warm,
    # no graph sum roots a tree (a symmetric tree's placements are walked
    # from its shape's rooted order)
    for V in range(2, 6):
        _shape_catalogue(V)

    def refused(*args):
        raise AssertionError("a graph sum keyed a tree")

    monkeypatch.setattr(localization, "_rooted_order", refused)
    assert len(graph_class_rows(2, 3)) == 48
    assert open_invariant(0, 1) == v_term(1)
    assert open_invariant(2, 0) == v_term(F(1, 2), -1)
    assert open_via_closed(1, 3) == open_invariant(1, 3)
    window = TruncationWindow(max_q=8, max_t=3, max_abs_x=3, min_v=-8, max_v=1)
    assert disk_potential_localized(window) == disk_potential_bessel(window)


def test_bare_disk_values():
    assert open_invariant(0, 1) == v_term(1)
    assert open_invariant(1, 0) == v_term(-1)
    assert open_invariant(0, 2) == v_term(F(1, 2), -1)
    assert open_invariant(2, 0) == v_term(F(1, 2), -1)


def test_one_sphere_component_values():
    assert open_invariant(1, 2) == v_term(F(1, 2), -2)
    assert open_invariant(2, 1) == v_term(F(-1, 2), -2)


def test_winding_zero_rejected():
    with pytest.raises(ValueError):
        open_invariant(1, 1)
    with pytest.raises(ValueError):
        open_via_closed(0, 0)


@pytest.mark.parametrize(
    "dm,dp",
    [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)],
)
def test_two_open_routes_agree(dm, dp):
    assert open_invariant(dm, dp) == open_via_closed(dm, dp), (dm, dp)


def _degree_zero_calls():
    """Both routes at degree zero: windings +-1..+-5 against 0-3 insertions
    of the unit, phi_1 or phi_2, each with psi-exponent 0-2."""
    choices = [(cls, a) for cls in (unit_p1(), phi_p1(1), phi_p1(2)) for a in range(3)]
    for mu in (1, -1, 2, -2, 3, -3, 4, -4, 5, -5):
        for n in range(4):
            for insertions in itertools.product(choices, repeat=n):
                for route in (open_invariant, open_via_closed):
                    yield route, max(0, -mu), max(0, mu), list(insertions)


# sha256 over the value, or the exception type and message, of every call
# of _degree_zero_calls, recorded while degree zero had a route of its own
DEGREE_ZERO_SHA256 = "54ae542c539e04b6b2c4f5b2a73fb5684dda93cf726923c676b050bc4241e495"


def test_degree_zero_open_invariants_match_recorded_digest():
    digest = hashlib.sha256()
    nonzero = 0
    for call in _degree_zero_calls():
        got = _outcome(*call)
        if isinstance(got, FormalSeries):
            nonzero += not got.is_zero()
            got = [(str(m), str(c)) for m, c in got.items()]
        else:
            got = (got[0].__name__, got[1])
        digest.update(f"{got}\n".encode())
    assert nonzero == 860
    assert digest.hexdigest() == DEGREE_ZERO_SHA256


WINDINGS = [mu for mu in range(-5, 6) if mu]


def _rooted_tables(top):
    return list(itertools.islice(_rooted_forests(), top + 1))


def test_rooted_recursion_matches_the_enumerated_sums():
    # the recursion over child tuples, against the one-boundary sum over the
    # enumerated classes, at every sphere degree to 6 and winding to 5
    tables = _rooted_tables(6)
    for d in range(7):
        classes = list(_with_factors(_open_classes(0, d)))
        for mu in WINDINGS:
            want = {m.V: F(num, den) for m, num, den in _open_sum(mu, classes)}
            got = {vk: F(*value) for vk, value in _rooted_sum(mu, d, tables[d]).items()}
            assert got == want, (mu, d)


def test_rooted_recursion_matches_the_closed_form():
    # mu^(2d+|mu|-2) / (d! (d+|mu|)!) at v^(1-2d-|mu|), reduced, for d <= 16
    tables = _rooted_tables(16)
    for d, forests in enumerate(tables):
        for mu in WINDINGS:
            value = F(mu ** abs(2 * d + abs(mu) - 2), factorial(d) * factorial(d + abs(mu)))
            want = {1 - 2 * d - abs(mu): (value.numerator, value.denominator)}
            assert _rooted_sum(mu, d, forests) == want, (mu, d)


def test_open_routes_agree_with_insertions():
    ins = [(phi_p1(2), 1)]
    assert open_invariant(1, 2, ins) == open_via_closed(1, 2, ins)
    ins2 = [(unit_p1(), 0), (phi_p1(1), 0)]
    assert open_invariant(2, 1, ins2) == open_via_closed(2, 1, ins2)
