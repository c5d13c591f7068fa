"""Exact-arithmetic engine for an equivariant open/closed correspondence.

The package certifies, coefficient by coefficient over the rationals, that
the multiple-cover disk potential of the equivariant projective line matches
a distinguished double-descendant slice of a non-compact toric surface's
hypergeometric curve series, and cross-checks both sides against an
independent fixed-point graph-sum oracle plus a floating-point asymptotic
expansion of the same slice.

Modules
-------
series
    Truncated multivariate Laurent series over the rationals, stored as
    integer numerators over one reduced denominator per series — the
    container every series result is returned in, built once from raw
    integer terms.
geometry
    Equivariant fixed-point data for the line: the unit and the fixed-point
    basis classes that the graph sums insert, each restriction an exact
    monomial c * V^k carried as the pair (c, k).
closed
    The surface series, one integer term per curve class, and exact
    extraction of descendant-slice coefficients.
localization
    Fixed-point graph sums: decorated-tree enumeration, automorphisms,
    vertex/edge conventions, graph-class rows and one-boundary invariants.
correspondence
    Both sides of the headline identity, their exceptional correction, and
    the machine-checkable comparison report.
asymptotics
    Floating-point large-weight validation of the descendant slice.
cli
    Command-line front end over all of the above.
"""

__version__ = "0.1.0"
