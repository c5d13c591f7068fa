"""Expected answers the benchmark checks the program's outputs against.

Nothing here imports ocmirror.  Each verifier derives the expected output
from a closed form, a counting formula or a digest recorded earlier, so a
wrong answer from the program cannot also be the expected one.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from math import comb, factorial
from typing import Dict, List, Optional, Sequence, Tuple

F_COLUMNS = ["mu", "q_power", "t0_power", "v_power", "value"]

# closed-invariant class counts at n = 0 markings, degrees 1..6
CLOSED_CLASS_COUNTS = {1: 1, 2: 3, 3: 6, 4: 16, 5: 37, 6: 105}

Window = Tuple[int, int, int, int, int]  # max_q, max_t, max_mu, min_v, max_v
Key = Tuple[int, int, int, int]  # mu, q_power, t0_power, v_power


def rational_text(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


# ---------------------------------------------------------------------------
# disk potential: closed-form coefficients
# ---------------------------------------------------------------------------


def disk_coefficient(mu: int, l: int, m: int) -> Fraction:
    """Coefficient of T^l Q^(2m+|mu|) X^mu V^(1-l-2m-|mu|) in the disk potential:
    mu^(l+2m+|mu|-2) / (l! m! (m+|mu|)!)."""
    a = abs(mu)
    return Fraction(mu) ** (l + 2 * m + a - 2) / (
        factorial(l) * factorial(m) * factorial(m + a)
    )


def disk_monomials(window: Window) -> Dict[Key, Tuple[int, int, int]]:
    """Every disk monomial inside ``window``: (mu, q, t, v) -> (mu, l, m)."""
    max_q, max_t, max_mu, min_v, max_v = window
    out: Dict[Key, Tuple[int, int, int]] = {}
    for mu in range(-max_mu, max_mu + 1):
        a = abs(mu)
        if a == 0:
            continue
        for m in range((max_q - a) // 2 + 1):
            q = 2 * m + a
            for l in range(max_t + 1):
                v = 1 - l - q
                if min_v <= v <= max_v:
                    out[(mu, q, l, v)] = (mu, l, m)
    return out


def parse_table(text: str, fmt: str, columns: Sequence[str]) -> List[List[str]]:
    """Rows of a CLI table as strings, in printed order, from CSV or JSON."""
    if fmt == "json":
        return [[str(row[c]) for c in columns] for row in json.loads(text)]
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != list(columns):
        raise ValueError(f"bad CSV header {rows[:1]}")
    return rows[1:]


def check_disk_table(
    rows: Sequence[Sequence[str]], window: Window, sample: Optional[Sequence[int]] = None
) -> Optional[str]:
    """None when ``rows`` are exactly the disk potential on ``window``.

    The full row set and its order (the kernel's Q, T, X, V order) are
    checked; values are checked at the row positions in ``sample`` (taken
    modulo the row count), or at every row when ``sample`` is None.
    """
    expected = disk_monomials(window)
    keys = [(int(r[0]), int(r[1]), int(r[2]), int(r[3])) for r in rows]
    if len(keys) != len(expected) or set(keys) != set(expected):
        return f"row set differs: {len(keys)} rows, expected {len(expected)}"
    if keys != sorted(keys, key=lambda k: (k[1], k[2], k[0], k[3])):
        return "rows are not in monomial order"
    for i in range(len(keys)) if sample is None else sample:
        if not keys:
            break
        i %= len(keys)
        want = rational_text(disk_coefficient(*expected[keys[i]]))
        if rows[i][4] != want:
            return f"value at {keys[i]} is {rows[i][4]}, expected {want}"
    return None


def corrupt_check_diff(window: Window) -> List[Dict[str, object]]:
    """Diff rows ``check --corrupt-exc`` must report on ``window``.

    Flipping the V^-1 part of the exceptional correction (-T^2/(2v) - Q^2/v)
    leaves LHS - RHS = -T^2/v - 2 Q^2/v, restricted to the window.
    """
    max_q, max_t, _, min_v, max_v = window
    rows: List[Dict[str, object]] = []
    if not min_v <= -1 <= max_v:
        return rows
    if max_t >= 2:
        rows.append({"Q": 0, "T": 2, "V": -1, "X": 0, "value": "-1/1"})
    if max_q >= 2:
        rows.append({"Q": 2, "T": 0, "V": -1, "X": 0, "value": "-2/1"})
    return rows


# ---------------------------------------------------------------------------
# graph sums: counting formulas
# ---------------------------------------------------------------------------


def labeled_graph_count(n: int, d: int, V: int) -> int:
    """Labelled decorated trees on V vertices: Cayley's V^(V-2) trees, two
    bipartite labellings, C(d-1, V-2) edge-degree compositions of d, and V^n
    marking placements."""
    if V < 2 or V - 1 > d:
        return 0
    return V ** (V - 2) * 2 * comb(d - 1, V - 2) * V**n


def orbit_counts(vertex_counts_and_auts: Sequence[Tuple[int, int]]) -> Dict[int, Fraction]:
    """Sum of V!/|Aut| per vertex count V (orbit-stabiliser)."""
    out: Dict[int, Fraction] = {}
    for V, aut in vertex_counts_and_auts:
        out[V] = out.get(V, Fraction(0)) + Fraction(factorial(V), aut)
    return out


def check_orbit_stabiliser(
    n: int, d: int, vertex_counts_and_auts: Sequence[Tuple[int, int]]
) -> Optional[str]:
    """None when the classes' orbits add up to every labelled tree, per V."""
    got = orbit_counts(vertex_counts_and_auts)
    for V in range(2, d + 2):
        want = labeled_graph_count(n, d, V)
        if got.get(V, 0) != want:
            return f"(n={n}, d={d}, V={V}): orbits sum to {got.get(V, 0)}, expected {want}"
    if set(got) - set(range(2, d + 2)):
        return f"classes with vertex counts {sorted(got)} outside 2..{d + 1}"
    return None


# ---------------------------------------------------------------------------
# asymptotics: exact ratio - 1
# ---------------------------------------------------------------------------


class AsymptoticReference:
    """Exact ratio - 1 of the excess-component asymptotic table.

    Uses the subtraction-free remainder form

        ratio - 1 = sum_mu (-1)^mu (mu z)^(N+1) inner_mu / (v - mu z)
                    / sum_mu (-1)^mu (mu z)^N inner_mu,

    inner_mu = sum_d q1^d q2^(d+mu) / (d! (d+mu)! z^(2d+mu)), in Fraction
    arithmetic at rational parameters (component 2).  The factorial tail is
    cut at ``mu_max`` and ``d_max``; at the default parameters the first
    omitted term is below 1e-40 of the kept sum, far under the three
    significant digits the benchmark checks.
    """

    def __init__(
        self,
        q1: Fraction = Fraction(1, 4),
        q2: Fraction = Fraction(1, 4),
        z: Fraction = Fraction(1),
        mu_max: int = 24,
        d_max: int = 12,
    ) -> None:
        self.z = Fraction(z)
        self.inner = [
            sum(
                Fraction(q1) ** d
                * Fraction(q2) ** (d + mu)
                / (factorial(d) * factorial(d + mu) * self.z ** (2 * d + mu))
                for d in range(d_max + 1)
            )
            for mu in range(1, mu_max + 1)
        ]

    def ratio_minus_one(self, N: int, l: int) -> Fraction:
        v = (l + Fraction(1, 2)) * self.z
        num = Fraction(0)
        den = Fraction(0)
        for mu, inner in enumerate(self.inner, start=1):
            w = (-1) ** mu * (mu * self.z) ** N * inner
            num += w * mu * self.z / (v - mu * self.z)
            den += w
        return num / den


def agrees_to_three_digits(got: float, exact: Fraction) -> bool:
    """True when ``got`` matches ``exact`` to three significant digits
    (relative error below 5e-3)."""
    return abs(Fraction(got) - exact) < Fraction(5, 1000) * abs(exact)


# ---------------------------------------------------------------------------
# recorded digests (outputs with no independent route)
# ---------------------------------------------------------------------------


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
