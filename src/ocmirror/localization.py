"""Fixed-point graph sums for genus-zero invariants of the projective line.

A torus-fixed stable map of degree d to the line is encoded by a decorated
tree: vertices carry fixed-point labels (adjacent labels differ, since every
invariant curve joins the two fixed points), edges carry covering degrees
summing to d, and each marking sits on a vertex.  The sum over isomorphism
classes of

    1/|Aut| * prod_edges  h(d_e)/d_e
            * prod_vertices  w^(valence-1) * (insertion restrictions)
            * prod_vertices  (psi/flag moduli integral)

computes the equivariant descendant invariants.  Here w is the tangent weight
at the vertex's fixed point (-v or +v), a flag on an edge of degree d_e has
weight w/d_e, and

    h(d) = (-1)^d d^(2d) / ((d!)^2 v^(2d))

is the edge factor.  Every class's summand is one exact monomial
num/den * v^k, carried as the integer triple (num, den, k) with den > 0;
the summands of a sum are merged per V-power in lowest terms, and become a
:class:`~ocmirror.series.FormalSeries` once, where a sum is returned.

Vertex moduli integrals: a vertex with F flags, marking psi-exponents a_j and
optionally one boundary ("open") flag is stable when N = F + #markings +
#open >= 3.  Every 1/(w - psi) is then expanded *inside* the integral, where
the psi-class is nilpotent, into a finite sum over ladder indices k with
sum k = B = N-3 - sum a_j; by the multinomial theorem, in the inverse
weights u_f = 1/w_f of the flags (the boundary flag among them), that sum is

    sum_k (N-3)!/(prod a_j! prod k_f!) prod u_f^(k_f+1)
        = (N-3)!/(prod a_j! B!) * prod u_f * (sum u_f)^B,

times v^-(B + #flags), and zero when B < 0.  The coefficient is a
multinomial, and on a graph every u is an integer (+-d_e on an edge flag of
degree d_e, mu on the boundary flag), so the integral is an exact integer
with no sum over k; the tests keep the ladder as a second route.
(Expanding 1/(w - psi) outside, against a fixed descendant insertion,
produces a divergent ladder.)  Unstable vertices take the usual conventions:

    one flag                ->  w
    one boundary flag       ->  w_o
    flag + flag             ->  1/(w_1 + w_2)
    flag + boundary         ->  1/(w_f + w_o)
    flag or boundary + psi^a -> (-w)^a

With one boundary component of winding mu != 0 against degree
(d_minus, d_plus) = (d + max(0,-mu), d + max(0,mu)), the disk contributes a
closed-form factor

    D(mu) = mu^(mu-2)/(mu! v^(mu-2))          for mu > 0 (at the + point),
    D(mu) = (-1)^(|mu|+1)|mu|^(|mu|-2)/(|mu|! v^(|mu|-2))  for mu < 0,

an overall mu/v, and a boundary flag of weight v/mu on the vertex carrying
the disk, which the sums carry as its integer inverse mu.  At d = 0 the
graph is a lone vertex, at either fixed point, that carries the boundary
flag and every marking; it takes the same conventions (w^(valence-1) with
valence 0 is 1/w, and a lone boundary flag is w_o).  Two independently
coded routes evaluate the same invariant through one contribution
function: the direct one sums over graphs whose disk vertex sits at the
forced fixed point; the factored one sums over *all* graphs against an
extra fixed-point-class insertion that kills the wrong assignments
numerically.  Their agreement is an acceptance requirement, not an
implementation shortcut.  The tests hold two more routes against these
sums: the string recursion for the psi integrals, and the reduced curve
series J~ of the projective line, which the one-point descendant sums
rebuild degree by degree.

The graph classes are decorations of bare 2-coloured tree shapes, which
depend on the vertex count V alone: one function grows each V's shapes,
once per process, from those on V - 1 by attaching a leaf to each vertex,
and stores each shape with its automorphism order and the swaps that
generate its group.  Every enumeration walks a shape's degree
compositions, and then a tree's marking placements, up to those
automorphisms, so every class the program builds carries its order.
Placements are walked by orderly generation (R. C. Read, 1978), and no
group is listed: a placement grows one marking at a time, onto the first
vertex of each orbit of the automorphisms fixing the markings placed so
far, so only the least placement of each orbit is reached.  Such an
automorphism fixes each marked vertex's path to the root, so their orbits
are read off the unmarked subtrees' keys (the tree case of B. D. McKay's
canonical refinement, 1998), and each marking placed divides their number
by its vertex's orbit size (orbit-stabiliser).  A summand's
factors that depend on the tree alone, its vertex integrals among them,
are computed once per tree; a class row's, whose unit insertions restrict
to 1, once per tree and marking count on each vertex.

The unmarked one-boundary sums list no graph.  Rooted at the disk vertex,
which every automorphism fixes, the sum of 1/|Aut| over trees is the sum of
1/k! over *ordered* tuples of k child subtrees, recursively.  A vertex's
flags share the sign sigma of its point (-1 at point 1), so with s its child
edges' degree sum, a vertex below an edge of degree e weighs
sigma^(k+1) * e * (e+s)^(k-2) * v^(1-k), the root
sigma^(k-1) * mu * (|mu|+s)^(k-2) * v^(-k), and each child edge h(e).
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from math import comb, factorial, gcd, perm, prod
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .geometry import P1_POINTS, P1Class, phi_p1
from .series import (
    FormalSeries,
    Monomial,
    RawTerm,
    TruncationWindow,
    _built,
    _from_raw,
    lowest_terms,
)

__all__ = [
    "DecoratedGraph",
    "enumerate_graph_classes",
    "count_labeled_graphs",
    "automorphism_count",
    "disk_factor",
    "open_invariant",
    "open_via_closed",
    "graph_class_rows",
]


# ===========================================================================
# decorated graphs
# ===========================================================================


@dataclass(frozen=True)
class DecoratedGraph:
    """Labeled tree with edge degrees and marking placements.

    ``labels[v]`` is the fixed point (1 or 2) of vertex v; ``edges`` holds
    (u, v, degree) with u < v; ``markings[i]`` is the vertex carrying marking
    i+1.  Markings are individually distinguished: an isomorphism must fix
    each one, not just their multiset.
    """

    labels: Tuple[int, ...]
    edges: Tuple[Tuple[int, int, int], ...]
    markings: Tuple[int, ...] = ()


def _edge_adjacency(V: int, edges) -> List[List[Tuple[int, int]]]:
    """(neighbour, edge index) pairs per vertex; edges start with (u, v)."""
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(V)]
    for e, (u, v, *_) in enumerate(edges):
        adj[u].append((v, e))
        adj[v].append((u, e))
    return adj


def _rooted_order(labels: Sequence[int], adj) -> List[Tuple[int, tuple]]:
    """Each vertex with its (child, edge index) branches, children first.

    The root, last in the list, is the center of the underlying tree, found
    by leaf stripping; of two centers, the one at fixed point 1.  Two
    centers are adjacent, so their labels differ, and every isomorphism of
    decorated trees carries this root to the other tree's root.
    """
    root = min(_tree_centers(len(labels), adj), key=labels.__getitem__)
    order = []
    stack = [(root, -1)]
    while stack:
        v, parent = stack.pop()
        branches = tuple((u, e) for u, e in adj[v] if u != parent)
        order.append((v, branches))
        stack.extend((u, v) for u, _ in branches)
    order.reverse()
    return order


def _rooted_key(labels, order, degrees, markings_by_vertex) -> Tuple[tuple, int, List[tuple]]:
    """The tree's key, its automorphism order, and the key of the subtree
    below each vertex.

    ``order`` comes from :func:`_rooted_order`, ``degrees[e]`` is the degree
    of edge e, and ``markings_by_vertex[v]`` the markings on vertex v.  A
    subtree's key is (label, markings, sorted (edge degree, child key)
    branches), and the tree's is its root's.  Since every isomorphism
    carries root to root, the key is an isomorphism-class invariant, and
    complete: two decorated trees are isomorphic exactly when their keys
    are equal.  Every automorphism fixes the root, so a run of k equal
    (edge degree, child) branches contributes k! * aut(child)^k: the
    product of k! over all runs.
    """
    key: List[tuple] = [()] * len(labels)
    aut = 1
    for v, branches in order:
        children = tuple(sorted([(degrees[e], key[u]) for u, e in branches])) if branches else ()
        key[v] = (labels[v], markings_by_vertex[v], children)
        for _, run in itertools.groupby(children):
            aut *= factorial(len(list(run)))
    return key[order[-1][0]], aut, key


def _sibling_swaps(order, degrees, below) -> List[List[int]]:
    """Generators of the automorphism group of the tree :func:`_rooted_key`
    gave ``below``: for neighbours in each run of equal sibling branches, the
    vertex permutation swapping their subtrees in canonical child order."""
    ranked: List[list] = [[] for _ in below]  # children in canonical order
    swaps = []
    for v, branches in order:
        ranked[v] = sorted(((degrees[e], below[u]), u) for u, e in branches)
        for (a, x), (b, y) in zip(ranked[v], ranked[v][1:]):
            if a == b:
                perm = list(range(len(below)))
                pairs = [(x, y)]  # grows as the walk descends both subtrees
                for p, q in pairs:
                    perm[p], perm[q] = q, p
                    pairs.extend((s, t) for (_, s), (_, t) in zip(ranked[p], ranked[q]))
                swaps.append(perm)
    return swaps


def _orbit_representatives(points: Iterable[tuple], swaps, act) -> Iterator[Tuple[tuple, int]]:
    """The first of ``points``, in their order, of each orbit under the group
    the ``swaps`` generate, with its orbit's size, closed beforehand;
    ``act(point, swap)`` is the point's image under one swap."""
    if not swaps:  # every orbit is one point
        yield from zip(points, itertools.repeat(1))
        return
    seen = set()
    for point in points:
        if point in seen:
            continue
        before = len(seen)
        seen.add(point)
        stack = [point]
        while stack:
            x = stack.pop()
            for perm in swaps:
                image = act(x, perm)
                if image not in seen:
                    seen.add(image)
                    stack.append(image)
        yield point, len(seen) - before


def _on_edges(degrees: tuple, perm: tuple) -> tuple:
    """A composition moved by an edge involution: edge e takes perm[e]'s degree."""
    return tuple([degrees[e] for e in perm])


def _markings_by_vertex(V: int, markings: Sequence[int]) -> List[Tuple[int, ...]]:
    by_vertex: List[Tuple[int, ...]] = [()] * V
    for i, v in enumerate(markings):
        by_vertex[v] += (i,)
    return by_vertex


def _tree_centers(V: int, adj) -> List[int]:
    """Central vertices of the underlying tree, by repeated leaf removal."""
    degree = [len(adj[v]) for v in range(V)]
    removed = [False] * V
    layer = [v for v in range(V) if degree[v] <= 1]  # a lone vertex is its own center
    remaining = V
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            removed[v] = True
            for u, _ in adj[v]:
                if not removed[u]:
                    degree[u] -= 1
                    if degree[u] == 1:
                        nxt.append(u)
        layer = nxt
    return sorted(layer)


def _leaf_order(V: int, edges: Iterable[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
    """A tree's edges, each as (u, v) with u < v, in the order its Pruefer
    sequence lists them: the smallest leaf's edge, stripped, each time, and
    last the edge joining the two vertices left."""
    adj = [set() for _ in range(V)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    leaves = [v for v in range(V) if len(adj[v]) == 1]
    heapq.heapify(leaves)
    order = []
    for _ in range(V - 2):
        leaf = heapq.heappop(leaves)
        (x,) = adj[leaf]
        adj[x].remove(leaf)
        order.append((min(leaf, x), max(leaf, x)))
        if len(adj[x]) == 1:
            heapq.heappush(leaves, x)
    order.append(tuple(sorted(leaves)))
    return tuple(order)


@functools.cache  # the shapes depend on V alone; each V is grown once
def _shape_catalogue(V: int) -> Tuple[Tuple[tuple, tuple, tuple, int, tuple], ...]:
    """The first tree of each bare shape on V >= 2 vertices, grown from the
    shapes on V - 1, as tuples all through, so every caller shares one copy
    that none can change.

    A shape is a 2-coloured tree up to isomorphism (unit degrees, no
    markings).  Each has a leaf, and the tree left without it is a shape on
    V - 1 vertices, so attaching a leaf of the other colour to each vertex
    of each smaller shape grows every shape.  The parents are taken in
    catalogue order (a lone vertex at point 1 for V = 2), each vertex in
    turn, each with the parent's colouring and then with its swap; a
    tree's edges are numbered by :func:`_leaf_order`, and the first tree of
    each shape is kept.  For V <= 4 these are the first trees of the shapes
    in the Pruefer walk of the labeled trees.  Each record is (tree,
    labels, rooted order, automorphism order, edge swaps): the order of the
    bare shape, and the :func:`_sibling_swaps` that generate its
    automorphism group, each written as the edge involution it induces
    (``swap[e]`` is the index of the edge that edge e goes to).
    """
    unit, unmarked = [1] * (V - 1), [()] * V
    parents = _shape_catalogue(V - 1) if V > 2 else [((), (1,))]
    shapes, catalogue = set(), []
    for parent, colours, *_ in parents:
        swapped = tuple(3 - c for c in colours)
        for stem in range(V - 1):
            tree = _leaf_order(V, parent + ((stem, V - 1),))
            for labels in (colours, swapped):
                grown = labels + (3 - labels[stem],)
                order = _rooted_order(grown, _edge_adjacency(V, tree))
                shape, aut, below = _rooted_key(grown, order, unit, unmarked)
                if shape in shapes:
                    continue
                shapes.add(shape)
                index = {edge: e for e, edge in enumerate(tree)}
                swaps = tuple(
                    tuple(index[min(perm[u], perm[v]), max(perm[u], perm[v])] for u, v in tree)
                    for perm in _sibling_swaps(order, unit, below)
                )
                catalogue.append((tree, grown, tuple(order), aut, swaps))
    return tuple(catalogue)


def _least_placements(labels, order, degs, n: int, aut: int) -> Iterable[Tuple[tuple, int]]:
    """The least placement in product order of each orbit of placements of
    n markings on the catalogued tree with edge degrees ``degs``, under its
    automorphisms, ``aut`` of them, in that order, each with the order of
    its own stabiliser.

    A placement is least in its orbit exactly when no automorphism fixing
    its first i markings' vertices moves the next one lower, for every i:
    the first place where an automorphism changes the placement is such a
    move.  Every automorphism fixes the root, so one fixing a vertex fixes
    its path to the root: a prefix's stabiliser fixes the root and its
    vertices' root paths, and permutes the unmarked subtrees hanging off
    them.  So a vertex's orbit is itself if fixed, and else is read off its
    parent's orbit, its edge degree and its :func:`_rooted_key` subtree key.
    A prefix is extended by the first vertex of each orbit, the stabiliser's
    order divided by the orbit's size (orbit-stabiliser).  Once the order
    is 1, every completion is least, with order 1."""
    V = len(labels)
    if aut == 1 or not n:  # nothing to key
        return zip(itertools.product(range(V), repeat=n), itertools.repeat(aut))
    _, _, below = _rooted_key(labels, order, degs, [()] * V)
    root = order[-1][0]
    up, down, kinds = [(root,)] * V, [], {}  # up[x]: x's path to the root
    for v, branches in reversed(order):  # each parent before its children
        for u, e in branches:
            up[u] = (u,) + up[v]
            down.append((u, v, kinds.setdefault((degs[e], below[u]), len(kinds))))
    found: List[Tuple[tuple, int]] = []

    def place(prefix: tuple, fixed: frozenset, aut: int) -> None:
        if aut == 1:
            rest = itertools.product(range(V), repeat=n - len(prefix))
            found.extend((prefix + tail, 1) for tail in rest)
        elif len(prefix) == n:
            found.append((prefix, aut))
        else:
            orbit = [~v for v in range(V)]  # a fixed vertex's own
            ids: Dict[tuple, int] = {}
            for u, v, kind in down:
                if u not in fixed:
                    orbit[u] = ids.setdefault((orbit[v], kind), len(ids))
            for x, i in enumerate(orbit):
                if orbit.index(i) == x:  # the first vertex of its orbit
                    place(prefix + (x,), fixed.union(up[x]), aut // orbit.count(i))

    place((), frozenset(up[root]), aut)
    return found


def enumerate_graph_classes(n: int, d: int) -> List[DecoratedGraph]:
    """Isomorphism classes of decorated trees: n markings, total degree d >= 1.

    Returns the first decoration of each class in (shape, degree
    composition, marking placement) order, as deduplicating every
    decoration of the catalogued trees by its :func:`_rooted_key` would.
    Only the one tree of each shape in :func:`_shape_catalogue` is
    decorated: two of its decorations are isomorphic exactly when an
    automorphism of the tree carries one onto the other.  So compositions
    are walked up to the shape's edge swaps, which generate its
    automorphism group, and each kept composition's tree has the shape's
    order over its orbit size (orbit-stabiliser).

    Placements are walked up to the automorphisms of the degree-decorated
    tree by :func:`_least_placements`, one node per class, which keys the
    tree, unmarked, only when n > 0 and it has automorphisms.  Each class
    carries its order, unkeyed, and is its orbit's first placement in
    product order.  The tests validate every class.
    """
    if d < 1:
        raise ValueError("graph sums need positive total degree")
    classes: List[DecoratedGraph] = []
    for V in range(2, d + 2):
        for tree, labels, order, shape_aut, edge_swaps in _shape_catalogue(V):
            compositions = _compositions(d, V - 1)
            for degs, orbit in _orbit_representatives(compositions, edge_swaps, _on_edges):
                edges = tuple((u, v, de) for (u, v), de in zip(tree, degs))
                for marks, aut in _least_placements(labels, order, degs, n, shape_aut // orbit):
                    classes.append(_graph(labels, edges, marks, aut))
    return classes


def _graph(labels: tuple, edges: tuple, markings: tuple, aut: int) -> DecoratedGraph:
    """A class the program built, with its automorphism order, unchecked
    and unkeyed: the caller guarantees tuples that form a decorated tree."""
    g = object.__new__(DecoratedGraph)
    g.__dict__.update(labels=labels, edges=edges, markings=markings, _aut=aut)
    return g


def count_labeled_graphs(n: int, d: int, V: int) -> int:
    """Number of *labeled* decorated trees on exactly V vertices (orbit check):
    Cayley's V^(V-2) trees on V >= 2 vertices, two colourings, C(d-1, V-2)
    compositions of d into the V - 1 edge degrees, and V^n placements."""
    if not 2 <= V <= d + 1:
        return 0
    return 2 * V ** (V - 2) * comb(d - 1, V - 2) * V**n


def _compositions(total: int, parts: int) -> Iterable[Tuple[int, ...]]:
    """Positive compositions in lexicographic order: stars and bars."""
    return (
        tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))
        for cuts in itertools.combinations(range(1, total), parts - 1)
    )


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------


def automorphism_count(g: DecoratedGraph) -> int:
    """Order of the decoration-preserving automorphism group: the order
    every class the program builds carries, or else, for a graph built by
    hand, the one :func:`_rooted_key` counts; the tests check it against a
    brute-force search."""
    if "_aut" in g.__dict__:
        return g.__dict__["_aut"]
    V = len(g.labels)
    order = _rooted_order(g.labels, _edge_adjacency(V, g.edges))
    degrees = [de for *_, de in g.edges]
    return _rooted_key(g.labels, order, degrees, _markings_by_vertex(V, g.markings))[1]


# ===========================================================================
# contribution factors
# ===========================================================================


def _edge_coefficient(d: int) -> Tuple[int, int]:
    """The coefficient of h(d) as (numerator, denominator)."""
    if d < 1:
        raise ValueError("edge degrees are positive")
    return (-1) ** d * d ** (2 * d), factorial(d) ** 2


def _vertex_scalar(inverse: List[int], exps: List[int]) -> Tuple[int, int, int]:
    """The integral at a vertex as num/den * v^k.

    ``inverse`` holds u = 1/w for each flag, the boundary flag last, and
    ``exps`` the marking psi-exponents.  On a graph every u is an integer,
    and so are num and den.
    """
    n_special = len(inverse) + len(exps)
    if n_special >= 3:
        budget = n_special - 3 - sum(exps)
        if budget < 0:
            return 0, 1, 0
        multinomial = factorial(n_special - 3) // factorial(budget)
        for a in exps:
            multinomial //= factorial(a)
        num = multinomial * prod(inverse) * sum(inverse) ** budget
        return num, 1, -(budget + len(inverse))
    if n_special == 1 and len(inverse) == 1:
        return 1, inverse[0], 1
    if n_special == 2:
        if len(inverse) == 2:
            u1, u2 = inverse
            if not u1 + u2:  # the weights sum to zero: 1/(w_1 + w_2) divides by it
                raise ZeroDivisionError("Fraction(1, 0)")
            return u1 * u2, u1 + u2, -1
        if len(inverse) == 1 and len(exps) == 1:
            a = exps[0]
            return (-1) ** a, inverse[0] ** a, a
    raise ValueError(
        f"no convention for a vertex with {len(inverse)} flags and {len(exps)} markings"
    )


def disk_factor(mu: int) -> Tuple[int, int, int]:
    """Closed-form disk multiple cover factor D(mu) = num/den * v^k, mu != 0,
    as the integer triple (num, den, k) in lowest terms with den > 0."""
    if mu == 0:
        raise ValueError("winding zero has no disk")
    m = abs(mu)
    num, den = m ** max(m - 2, 0), factorial(m)  # m^(m-2) is 1 at m = 1
    if mu < 0:
        num *= (-1) ** (m + 1)
    common = gcd(num, den)
    return num // common, den // common, 2 - m


# ===========================================================================
# graph sums
# ===========================================================================

Insertion = Tuple[P1Class, int]  # (restriction pair, psi exponent)

#: the window of every returned series: exact V-Laurent polynomials
WIDE = TruncationWindow.wide()

_W_SIGN = {1: -1, 2: 1}


def _block_factors(labels: Sequence[int], edges) -> Tuple[int, int, int, List[List[int]], dict]:
    """The factors of a summand that depend on its decorated tree alone, as
    (num, den, k, inverses, memo): every h(d_e)/d_e and w^(valence-1) folded
    into num/den * v^k, ``inverses[v]`` the u = 1/w of vertex v's edge flags,
    and ``memo`` an empty store for the tree's vertex integrals, keyed by
    (vertex, psi exponents, boundary flag's inverse), or for its class rows'
    summands, keyed by the marking count on each vertex."""
    num, den, k = 1, 1, 0
    inverses: List[List[int]] = [[] for _ in labels]
    for u, v, de in edges:
        hn, hd = _edge_coefficient(de)
        num, den, k = num * (hn // de), den * hd, k - 2 * de  # h(d_e)/d_e
        for x in (u, v):
            inverses[x].append(_W_SIGN[labels[x]] * de)  # a flag of weight w/d_e
    for label, inverse in zip(labels, inverses):
        valence_k = len(inverse) - 1  # w^(valence-1), counting only edge flags
        if _W_SIGN[label] < 0 and valence_k % 2:
            num = -num
        k += valence_k
    return num, den, k, inverses, {}


def _graph_contribution(
    g: DecoratedGraph,
    insertions: Sequence[Insertion],
    factors: tuple,
    open_vertex: Optional[int] = None,
    open_inverse: Optional[int] = None,
) -> Tuple[int, int, int]:
    # the class's factors fold into its tree's ``_block_factors``
    # num/den * v^k, returned as the integers (num, den, k) with den > 0.  A
    # boundary flag on ``open_vertex`` has weight v/mu, given as its inverse
    # mu; each vertex takes its restrictions before its integral, which may
    # raise; an integral is computed once per tree and stored in its memo
    num, den, k, inverses, memo = factors
    den *= automorphism_count(g)
    marks = _markings_by_vertex(len(g.labels), g.markings)
    for v, label in enumerate(g.labels):
        exps = []
        for i in marks[v]:
            if i < len(insertions):
                restriction, a = insertions[i]
                exps.append(a)
                c, rk = restriction[label - 1]
                num, den, k = num * c.numerator, den * c.denominator, k + rk
        u = open_inverse if v == open_vertex else None
        key = (v, tuple(exps), u)
        if key not in memo:
            memo[key] = _vertex_scalar(inverses[v] if u is None else inverses[v] + [u], exps)
        vn, vd, kv = memo[key]
        num, den = num * vn, den * vd
        k += kv
        if not num:
            break
    return (-num, -den, k) if den < 0 else (num, den, k)


def _with_factors(classes: Iterable[DecoratedGraph]) -> Iterator[Tuple[DecoratedGraph, tuple]]:
    """Each class with its tree's :func:`_block_factors`, computed once per
    run of classes on one tree: enumeration emits a tree's classes together."""
    for tree, run in itertools.groupby(classes, lambda g: (g.labels, g.edges)):
        yield from zip(run, itertools.repeat(_block_factors(*tree)))


def _open_data(d_minus: int, d_plus: int) -> Tuple[int, int]:
    mu = d_plus - d_minus
    if mu == 0:
        raise ValueError("winding zero has no boundary disk")
    d = min(d_minus, d_plus)
    if d < 0:
        raise ValueError("degrees must be nonnegative")
    return mu, d


def _open_classes(n: int, d: int) -> List[DecoratedGraph]:
    """The classes carrying n insertions and, last, the disk marking.

    At degree zero these are the lone vertex at either fixed point; its one
    boundary flag and the markings take the vertex conventions.
    """
    if d == 0:
        return [_graph((label,), (), (0,) * (n + 1), 1) for label in P1_POINTS]
    return enumerate_graph_classes(n + 1, d)


def _open_terms(mu: int, summands: Iterable[Tuple[int, int, int]]) -> List[RawTerm]:
    """mu/v * D(mu) times the sum of the summands num/den * v^k, given as
    (num, den, k), as raw (V^k, num, den) terms, one per V-power."""
    cn, cd, k = disk_factor(mu)
    merged = lowest_terms((vk, vn, vd) for vn, vd, vk in summands)
    return [(Monomial(V=k - 1 + vk), mu * cn * vn, cd * vd) for vk, vn, vd in merged]


def _open_sum(
    mu: int, classes: Iterable[Tuple[DecoratedGraph, tuple]], insertions: Sequence[Insertion] = ()
) -> List[RawTerm]:
    """The one-boundary graph sum of winding ``mu`` as :func:`_open_terms`,
    over ``classes``: those of :func:`_open_classes` for ``insertions``
    at one degree, each with its tree's factors, as :func:`_with_factors`
    pairs them."""
    h = 1 if mu < 0 else 2  # the disk vertex's forced point
    n = len(insertions)
    summands = (
        _graph_contribution(g, insertions, factors, g.markings[n], mu)
        for g, factors in classes
        if g.labels[g.markings[n]] == h
    )
    return _open_terms(mu, summands)


def open_invariant(
    d_minus: int, d_plus: int, insertions: Sequence[Insertion] = ()
) -> FormalSeries:
    """One-boundary invariant, direct route: disk vertex at its forced point."""
    mu, d = _open_data(d_minus, d_plus)
    classes = _with_factors(_open_classes(len(insertions), d))
    return _from_raw(_open_sum(mu, classes, insertions), WIDE)


def open_via_closed(
    d_minus: int, d_plus: int, insertions: Sequence[Insertion] = ()
) -> FormalSeries:
    """One-boundary invariant, factored route: unrestricted graph sum against
    a fixed-point class at the extra marking (wrong assignments die through
    the restriction value instead of a combinatorial filter).

    The restriction factor is applied before the vertex conventions are
    consulted: a vanishing integrand never reaches a moduli integral, so the
    boundary weight cannot collide with an opposite edge weight on a graph
    that contributes nothing.
    """
    mu, d = _open_data(d_minus, d_plus)
    point_class = phi_p1(1 if mu < 0 else 2)  # the disk vertex's forced point
    n = len(insertions)
    summands = []
    for g, factors in _with_factors(_open_classes(n, d)):
        disk_vertex = g.markings[n]
        rc, rk = point_class[g.labels[disk_vertex] - 1]
        if not rc:
            continue
        num, den, k = _graph_contribution(g, insertions, factors, disk_vertex, mu)
        summands.append((num * rc.numerator, den * rc.denominator, k + rk))
    return _from_raw(_open_terms(mu, summands), WIDE)


# ===========================================================================
# the unmarked one-boundary sums by rooted trees
# ===========================================================================

#: (children k, their edge degrees' sum s, V-power) -> numerator over (t!)^2
Forest = Dict[Tuple[int, int, int], int]


def _vertex_sums(forest: Forest, sigma: int, a: int, D: int) -> Tuple[Dict[int, int], int]:
    """A vertex at sign ``sigma`` below an edge of degree ``a`` over its child
    tuples of total degree D: sigma^(k+1) * a * (a+s)^(k-2) / k! times each,
    summed per V-power vk + 1 - k over (D!)^2 * delta.  delta = a * D! *
    (a+D)!/a! makes each term whole: k <= D, and a + s is in [a, a+D]."""
    delta = a * factorial(D) * perm(a + D, D)
    sums: Dict[int, int] = {}
    for (k, s, vk), w in forest.items():
        x = a * delta * (a + s) ** k // (factorial(k) * (a + s) ** 2) * w
        sums[vk + 1 - k] = sums.get(vk + 1 - k, 0) + sigma ** (k + 1) * x
    return sums, delta


def _rooted_forests() -> Iterator[Dict[int, Forest]]:
    """The ordered child tuples below a vertex at each sign, by total degree
    t = 0, 1, ...: their products of planted values h(e) * T(e, D), each kept
    times (e+D)!^2, summed times (t!)^2; a last child of total c adds C(t, c)^2."""
    forests = {1: [{(0, 0, 0): 1}], -1: [{(0, 0, 0): 1}]}
    planted: Dict[int, List[list]] = {1: [[]], -1: [[]]}  # a sign's children by total
    for t in itertools.count(1):
        yield {sigma: tables[t - 1] for sigma, tables in forests.items()}
        for sigma in (1, -1):
            row = []  # (e, V-power, value): the children of total t, at -sigma
            for e in range(1, t + 1):
                sums, delta = _vertex_sums(forests[-sigma][t - e], -sigma, e, t - e)
                hn, hd = _edge_coefficient(e)  # h(e), rescaled from (D!)^2 to (t!)^2
                scale = hn * perm(t, e) ** 2 // hd
                row += [(e, vk - 2 * e, scale * x // delta) for vk, x in sums.items()]
            planted[sigma].append(row)
            grown: Forest = {}
            for c in range(1, t + 1):
                b = comb(t, c) ** 2
                for (k, s, vk), w in forests[sigma][t - c].items():
                    w *= b
                    for e, ve, value in planted[sigma][c]:
                        key = (k + 1, s + e, vk + ve)
                        grown[key] = grown.get(key, 0) + w * value
            forests[sigma].append(grown)


def _rooted_sum(mu: int, d: int, forests: Dict[int, Forest]) -> Dict[int, Tuple[int, int]]:
    """The unmarked one-boundary sum of winding ``mu`` at sphere degree d
    from the degree's :func:`_rooted_forests`, as reduced (num, den) per
    nonzero V-power.  The root weighs sigma^(k-1) * mu * (|mu|+s)^(k-2) *
    v^(-k): sigma times a non-root vertex with a = |mu|, one V-power lower."""
    sigma = 1 if mu > 0 else -1  # the disk vertex's forced point
    sums, delta = _vertex_sums(forests[sigma], sigma, abs(mu), d)
    cn, cd, ck = disk_factor(mu)
    terms = {}
    for vk, x in sums.items():
        if x:
            num, den = sigma * mu * cn * x, cd * delta * factorial(d) ** 2
            common = gcd(num, den)
            terms[vk - 2 + ck] = num // common, den // common
    return terms


# ===========================================================================
# inspection table of the graph classes
# ===========================================================================


GraphClassRow = Tuple[DecoratedGraph, int, FormalSeries]


def graph_class_rows(n: int, d: int) -> List[GraphClassRow]:
    """Inspection table for the degree-d classes carrying n plain markings.

    Each row is (graph, |Aut|, contribution) where the contribution is the
    class's exact summand — including its 1/|Aut| weight — in the graph sum
    for n unit-class markings with no cotangent powers.  Rows keep the
    deterministic enumeration order, so the table is snapshot-stable.  No
    contribution is zero (a unit class restricts to 1, and the flags at a
    vertex share one weight sign), so each is built as its one reduced term.
    """
    rows = []
    for g, (num, den, k, inverses, memo) in _with_factors(enumerate_graph_classes(n, d)):
        counts = tuple(map(g.markings.count, range(len(inverses))))
        if counts not in memo:  # the summand times |Aut|, by the markings on each vertex
            for inverse, c in zip(inverses, counts):
                vn, vd, kv = _vertex_scalar(inverse, [0] * c)
                num, den, k = num * vn, den * vd, k + kv
            memo[counts] = num, den, k
        num, den, k = memo[counts]
        den *= automorphism_count(g)
        common = gcd(num, den) if den > 0 else -gcd(num, den)
        series = _built({Monomial(V=k): num // common}, den // common, WIDE)
        rows.append((g, automorphism_count(g), series))
    return rows
