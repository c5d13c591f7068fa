"""Mutation runner: each mutant is one small edit of ``src/`` that its tests
must catch.

Run it from anywhere, with pytest installed::

    python tests/mutants.py

Every mutant names a file under ``src/``, an exact snippet of it, the
replacement, what the edit breaks, and the tests that should catch it.  The
runner copies ``src/`` to a temporary directory and first runs all the named
tests against the unedited copy, which must pass.  Then, for each mutant
alone, it applies the edit to a fresh copy and runs that mutant's tests with
``PYTHONPATH`` set to the copy; at least one of them must fail.  A snippet
that does not occur exactly once in its file is an error: the list follows
the source.  The exit status is 0 when every mutant is caught, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterable, NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[1]

LOC = "ocmirror/localization.py"
CLOSED = "ocmirror/closed.py"
CORR = "ocmirror/correspondence.py"
SERIES = "ocmirror/series.py"
ASYM = "ocmirror/asymptotics.py"
CLI = "ocmirror/cli.py"
TL = "tests/test_localization.py"
TC = "tests/test_closed.py"
TCO = "tests/test_correspondence.py"
TCL = "tests/test_cli.py"
TS = "tests/test_series.py"
TA = "tests/test_asymptotics.py"


class Mutant(NamedTuple):
    file: str  # relative to src/
    snippet: str
    replacement: str
    reason: str
    tests: Tuple[str, ...]  # pytest node ids, relative to the repo root


MUTANTS = (
    Mutant(
        LOC,
        "_W_SIGN = {1: -1, 2: 1}",
        "_W_SIGN = {1: 1, 2: -1}",
        "tangent weights swapped between the fixed points",
        (f"{TL}::test_bare_disk_values",),
    ),
    Mutant(
        LOC,
        "if _W_SIGN[label] < 0 and valence_k % 2:",
        "if _W_SIGN[label] < 0:",
        "w^(valence-1) negated at -v whatever the valence's parity",
        (f"{TL}::test_one_sphere_component_values",),
    ),
    Mutant(
        LOC,
        "return (-1) ** d * d ** (2 * d)",
        "return (-1) ** (d + 1) * d ** (2 * d)",
        "edge factor h(d) with the wrong sign",
        (f"{TL}::test_edge_factors",),
    ),
    Mutant(
        LOC,
        "budget = n_special - 3 - sum(exps)",
        "budget = n_special - 2 - sum(exps)",
        "psi budget of a stable vertex off by one",
        (f"{TL}::test_psi_closed_form_examples",),
    ),
    Mutant(
        LOC,
        "aut *= factorial(len(list(run)))",
        "aut *= len(list(run))",
        "k equal branches permuted in k ways instead of k!",
        (f"{TL}::test_star_automorphisms",),
    ),
    Mutant(
        LOC,
        "zip(ranked[v], ranked[v][1:])",
        "zip(ranked[v], ranked[v][1:2])",
        "a run of equal sibling branches swapped only at its first two",
        (f"{TL}::test_sibling_swaps_generate_the_automorphism_group[4]",),
    ),
    Mutant(
        LOC,
        "for perm in _sibling_swaps(order, unit, below)",
        "for perm in _sibling_swaps(order, unit, below)[:1]",
        "composition orbits closed under the first edge swap only",
        (f"{TL}::test_enumeration_matches_dedupe_oracle[0-5]",),
    ),
    Mutant(
        LOC,
        "fixed.union(up[x]), aut // orbit.count(i))",
        "fixed.union(up[x]), aut)",
        "a placement's stabiliser order kept, not divided by its vertex's orbit size",
        (f"{TL}::test_stabiliser_chain_matches_the_orbit_search[4]",),
    ),
    Mutant(
        LOC,
        "if orbit.index(i) == x:",
        "if i in orbit:",
        "the walk extends a prefix by every vertex, not only the first of its orbit",
        (f"{TL}::test_stabiliser_chain_matches_the_orbit_search[4]",),
    ),
    Mutant(
        LOC,
        "ids.setdefault((orbit[v], kind), len(ids))",
        "ids.setdefault(kind, len(ids))",
        "a vertex's orbit read off its subtree alone, not its parent's orbit",
        (f"{TL}::test_stabiliser_chain_matches_the_orbit_search[6]",),
    ),
    Mutant(
        LOC,
        "fixed.union(up[x])",
        "fixed.union((x,))",
        "placing a marking fixes its vertex but not the vertex's path to the root",
        (f"{TL}::test_enumeration_matches_recorded_digest[2-6]",),
    ),
    Mutant(
        LOC,
        "        before = len(seen)\n        seen.add(point)\n",
        "        seen.add(point)\n        before = len(seen)\n",
        "each orbit counted one short",
        (f"{TL}::test_orbit_counts_match_labeled_enumeration",),
    ),
    Mutant(
        LOC,
        "_orbit_representatives(compositions, edge_swaps, _on_edges)",
        "_orbit_representatives(compositions, (), _on_edges)",
        "a composition isomorphic to an earlier one of its block decorated again",
        (f"{TL}::test_enumeration_matches_dedupe_oracle[0-3]",),
    ),
    Mutant(
        LOC,
        "for label in P1_POINTS]",
        "for label in P1_POINTS[:1]]",
        "degree-zero lone vertex only at fixed point 1",
        (f"{TL}::test_bare_disk_values",),
    ),
    Mutant(
        LOC,
        "itertools.combinations(range(1, total), parts - 1)",
        "itertools.combinations(range(2, total), parts - 1)",
        "compositions whose first part is 1 dropped",
        (f"{TL}::test_class_counts_small",),
    ),
    Mutant(
        LOC,
        "inverses[x].append(_W_SIGN[labels[x]] * de)",
        "inverses[x].append(_W_SIGN[labels[x]])",
        "edge flags weighted w instead of w/d_e",
        (f"{TL}::test_scalar_contribution_matches_series_oracle[2-2]",),
    ),
    Mutant(
        CLOSED,
        "top = min(max_abs_slope, e)",
        "top = min(max_abs_slope + 1, e)",
        "surface terms one slope beyond the bound kept",
        (f"{TC}::test_slope_bound_keeps_exactly_the_terms_within_it",),
    ),
    Mutant(
        CLOSED,
        "sign = -1 if mu % 2 else 1",
        "sign = 1",
        "surface terms of odd slope without their sign",
        (f"{TCO}::test_check_passes_on_medium_window",),
    ),
    Mutant(
        CORR,
        "kaehler = -1 if e % 2 else 1",
        "kaehler = 1",
        "right-side ladders without the Kaehler map's sign of (-Q)^(d1+d2)",
        (
            f"{TCO}::test_rhs_walk_matches_the_three_stage_route",
            f"{TCO}::test_check_passes_on_medium_window",
        ),
    ),
    Mutant(
        CORR,
        "num = (-1 if mu % 2 else 1) * kaehler",
        "num = kaehler",
        "right-side ladders without the class's sign (-1)^|mu|",
        (
            f"{TCO}::test_rhs_walk_matches_the_three_stage_route",
            f"{TCO}::test_check_passes_on_medium_window",
        ),
    ),
    Mutant(
        CORR,
        "lo = max(0, 2 - e, 1 - e - window.max_v)",
        "lo = max(0, 1 - e - window.max_v)",
        "right-side ladders below the expansion index k = 0: the floor 2 - e dropped",
        (
            f"{TCO}::test_rhs_walk_matches_the_three_stage_route",
            f"{TCO}::test_check_passes_on_medium_window",
        ),
    ),
    Mutant(
        CORR,
        "mu ** abs(2 * m + abs(mu) - 2)",
        "mu ** abs(2 * m + abs(mu) - 1)",
        "disk coefficient's power of the winding off by one",
        (f"{TCO}::test_disk_coefficient_formula",),
    ),
    Mutant(
        CORR,
        "facts[m] * facts[m + abs(mu)]",
        "facts[m] * facts[m]",
        "disk coefficient divided by m! m! instead of m! (m+|mu|)!",
        (f"{TCO}::test_disk_coefficient_formula",),
    ),
    Mutant(
        CORR,
        "(e, 0, mu, 1 - e, 0, 0, num * mu**lo,",
        "(e, 0, mu, -e, 0, 0, num * mu**lo,",
        "disk ladder one V-step too low",
        (f"{TCO}::test_disk_coefficient_formula",),
    ),
    Mutant(
        CLOSED,
        "lo = max(0, -t0, shift, shift + v - max_v)",
        "lo = max(0, -t0, shift, shift + v - max_v - 1)",
        "z-slice terms one V-step above the ceiling kept",
        (f"{TCO}::test_check_passes_below_a_v_ceiling_of_minus_two",),
    ),
    Mutant(
        CLOSED,
        "hi = min(max_t - max(t0, 0), shift + v - min_v)",
        "hi = min(max_t - max(t0, 0), shift + v - min_v - 1)",
        "z-slice terms at the V floor dropped",
        (f"{TCO}::test_check_passes_on_medium_window",),
    ),
    Mutant(
        CLOSED,
        "nums[i] *= a",
        "nums[i] *= -a",
        "ladder expansion with the sign of each ratio flipped",
        (f"{TC}::test_excess1_z2_closed_formula", f"{TC}::test_ladder_expansion_writes_each_rung"),
    ),
    Mutant(
        CLOSED,
        "p * slope ** (lo - shift)",
        "p * slope ** (lo - shift + 1)",
        "expansion index off by one in the slope's power",
        (f"{TC}::test_excess1_z2_closed_formula",),
    ),
    Mutant(
        CLOSED,
        "(Q, t0 + l, x, v - l, 0, q1, q2)",
        "(Q, t0 + l, x, v - l - 1, 0, q1, q2)",
        "every expanded term one V-step too low, on both sides alike",
        (f"{TC}::test_excess1_z2_closed_formula", f"{TCO}::test_disk_coefficient_formula"),
    ),
    Mutant(
        CORR,
        "(mono(Q=1, X=-1), -1, 1),",
        "(mono(Q=1, X=-1), 1, 1),",
        "exceptional correction's Q/X term with the wrong sign",
        (f"{TCO}::test_check_passes_on_medium_window",),
    ),
    Mutant(
        CORR,
        "(mono(T=2, V=-1), -1, 2),",
        "(mono(T=2, V=-2), -1, 2),",
        "exceptional correction's T^2 term at the wrong V-power",
        (f"{TCO}::test_check_passes_on_medium_window",),
    ),
    Mutant(
        CORR,
        "return lowest_terms([(m, n * c, d) for (m, n, d), c in unmatched.items() if c])",
        "return []",
        "slice fallback dropped: terms of a slice that are not identical taken as equal",
        (
            f"{TCO}::test_corrupted_correction_fails_at_v_floor",
            f"{TCO}::test_check_settles_each_slice_by_value",
        ),
    ),
    Mutant(
        SERIES,
        "else (n * d1 + n1 * d, d * d1)",
        "else (n + n1, d * d1)",
        "a slice's terms at one monomial over different denominators compared by numerators only",
        (
            f"{TCO}::test_raw_difference_settles_unequal_terms_by_their_values",
            f"{TCO}::test_check_settles_each_slice_by_value",
        ),
    ),
    Mutant(
        CORR,
        "if extra or left != right:",
        "if extra or len(left) != len(right):",
        "slices compared by their ladder counts only",
        (f"{TCO}::test_check_settles_each_slice_by_value",),
    ),
    Mutant(
        CORR,
        "if extra or left != right:",
        "if extra or [d[:10] for d in left] != [d[:10] for d in right]:",
        "ladders compared without their ratio a",
        (f"{TCO}::test_check_settles_each_slice_by_value",),
    ),
    Mutant(
        CORR,
        "if extra or left != right:",
        "if extra or [d[:9] + d[10:] for d in left] != [d[:9] + d[10:] for d in right]:",
        "ladders compared without their top rung hi",
        (f"{TCO}::test_check_settles_each_slice_by_value",),
    ),
    Mutant(
        CORR,
        "if extra or left != right:",
        "if left != right:",
        "a slice with correction terms taken as agreeing when its ladders are equal",
        (f"{TCO}::test_check_settles_each_slice_by_value",),
    ),
    Mutant(
        CLOSED,
        "raw.append((monomial, nums[i], den * f))",
        "raw.append((monomial, nums[i], den))",
        "ladder expansion dropping each rung's 1/l!",
        (f"{TC}::test_ladder_expansion_writes_each_rung",),
    ),
    Mutant(
        CORR,
        "leftover += raw_difference(expand_ladders(left), expand_ladders(right) + extra)",
        "pass",
        "a slice that is not equal skipped instead of settled",
        (
            f"{TCO}::test_corrupted_correction_fails_at_v_floor",
            f"{TCO}::test_check_settles_each_slice_by_value",
        ),
    ),
    Mutant(
        LOC,
        "num, den = m ** max(m - 2, 0), factorial(m)",
        "num, den = m ** max(m - 2, 0) * (2 if m >= 4 else 1), factorial(m)",
        "disk multiple-cover factor doubled from winding 4 on",
        (f"{TCO}::test_localized_route_matches_bessel_route_to_winding_five",),
    ),
    Mutant(
        CORR,
        "den, lo, hi, mu))",
        "den, lo, hi, abs(mu)))",
        "the disk ladder's dressing exp(mu*t0/v) with |mu| for mu",
        (
            f"{TCO}::test_disk_terms_match_the_series_products",
            f"{TCO}::test_check_passes_on_medium_window",
        ),
    ),
    Mutant(
        CORR,
        "_rooted_sum(mu, m, by_degree[m])",
        "_rooted_sum(mu, m, by_degree[max(m - 1, 0)])",
        "localized route reads each graph value off the tables one sphere degree low",
        (f"{TCO}::test_localized_route_matches_bessel_route_to_winding_five",),
    ),
    Mutant(
        CORR,
        "if list(terms) != [1 - 2 * m - abs(mu)]:",
        "if len(terms) != 1:",
        "localized route places a graph sum at the walk's V-power whatever its own",
        (f"{TCO}::test_localized_route_certifies_the_grading_of_each_graph_sum",),
    ),
    Mutant(
        LOC,
        "// (factorial(k) * (a + s) ** 2)",
        "// (a + s) ** 2",
        "rooted-tree recursion summing ordered child tuples without their 1/k!",
        (
            f"{TL}::test_rooted_recursion_matches_the_enumerated_sums",
            f"{TL}::test_rooted_recursion_matches_the_closed_form",
        ),
    ),
    Mutant(
        LOC,
        "num, den = sigma * mu * cn * x,",
        "num, den = mu * cn * x,",
        "the root's sign sigma^(k-1) flipped: the disk vertex weighed sigma^k * mu",
        (
            f"{TL}::test_rooted_recursion_matches_the_enumerated_sums",
            f"{TL}::test_rooted_recursion_matches_the_closed_form",
        ),
    ),
    Mutant(
        LOC,
        "counts = tuple(map(g.markings.count, range(len(inverses))))",
        "counts = tuple(sorted(map(g.markings.count, range(len(inverses)))))",
        "class-row summands memoized by sorted marking counts, not the count on each vertex",
        (f"{TL}::test_class_rows_match_the_per_class_route[1-2]",),
    ),
    Mutant(
        LOC,
        "den * c.denominator, k + rk",
        "den * c.denominator, k",
        "an insertion's restriction c * v^k taken as c",
        (f"{TL}::test_scalar_contribution_matches_series_oracle[1-1]",),
    ),
    Mutant(
        LOC,
        "return (-num, -den, k) if den < 0 else (num, den, k)",
        "return num, den, k",
        "a summand's negative denominator left unnormalised",
        (f"{TL}::test_scalar_contribution_matches_series_oracle[1-1]",),
    ),
    Mutant(
        SERIES,
        "acc = dict(a) if fa == 1 else {m: n * fa for m, n in a.items()}",
        "acc = dict(a)",
        "left operand of a sum not rescaled to the common denominator",
        (f"{TS}::test_equal_values_reached_through_different_denominators",),
    ),
    Mutant(
        CORR,
        "    _refuse_over_budget(window)\n    correction =",
        "    correction =",
        "right-side table answers a window beyond the mass budget",
        (f"{TCL}::test_window_beyond_the_mass_budget_exits_2",),
    ),
    Mutant(
        LOC,
        "return tuple(catalogue)",
        "return tuple(catalogue[::-1])",
        "shape catalogue in reverse order",
        (f"{TL}::test_enumeration_matches_dedupe_oracle[0-3]",),
    ),
    Mutant(
        LOC,
        "return tuple(catalogue)",
        "return tuple(catalogue[:-1])",
        "shape growth stopped one shape early: the last shape it finds left out",
        (f"{TL}::test_shape_walk_stops_with_every_shape_found[5-6]",),
    ),
    Mutant(
        LOC,
        "for stem in range(V - 1):",
        "for stem in range(V - 2, V - 1):",
        "leaf attached only to the last vertex: only paths grow",
        (f"{TL}::test_shape_walk_stops_with_every_shape_found[4-3]",),
    ),
    Mutant(
        LOC,
        "for labels in (colours, swapped):",
        "for labels in (colours,):",
        "colour swap dropped: shapes grown from other trees than the walk's",
        (
            f"{TL}::test_shape_catalogue_is_the_walk_as_tuples[3]",
            f"{TCL}::test_every_localize_table_matches_its_recorded_digest[2-0-csv]",
        ),
    ),
    Mutant(
        LOC,
        "u = open_inverse if v == open_vertex else None",
        "u = -open_inverse if v == open_vertex else None",
        "boundary flag's inverse weight negated",
        (f"{TL}::test_bare_disk_values",),
    ),
    Mutant(
        ASYM,
        "return replace(params, q1=params.q2, q2=params.q1), -1",
        "return params, -1",
        "first component mirrored without swapping q1 and q2",
        (f"{TA}::test_component_mirror_is_exact",),
    ),
    Mutant(
        ASYM,
        "value -= phis[k] * v_l**-k",
        "value -= phis[N] * v_l**-k",
        "ratio subtracts phi_N where it should subtract phi_k",
        (f"{TA}::test_frozen_ratio_values",),
    ),
    Mutant(
        ASYM,
        "_mu_walk(_mirror(unit, component)[0])",
        "_mu_walk(unit)",
        "a table's shared walk over mu taken from the unmirrored parameters",
        (f"{TA}::test_shared_walk_matches_independent_sums[1]",),
    ),
    Mutant(
        LOC,
        "key = (v, tuple(exps), u)",
        "key = (v, len(exps), u)",
        "a tree's vertex integrals memoized without their psi exponents",
        (f"{TL}::test_scalar_contribution_matches_series_oracle[1-1]",),
    ),
    Mutant(
        CLI,
        "    sys.set_int_max_str_digits(0)\n",
        "",
        "tables written under the default limit on an int's digits",
        (f"{TCL}::test_tables_past_the_int_digit_limit",),
    ),
    Mutant(
        ASYM,
        "if not 2.0**-1022 <= self.z * self.z < math.inf:",
        "if False:",
        "a z whose square is not a normal double let through to the sums",
        (f"{TCL}::test_asymptotics_out_of_double_range_exits_2_naming_its_parameter",),
    ),
    Mutant(
        ASYM,
        "except OverflowError:\n        raise ValueError(",
        "except ZeroDivisionError:\n        raise ValueError(",
        "an overflowing order-N power escapes as a raw floating-point error",
        (f"{TCL}::test_asymptotics_out_of_double_range_exits_2_naming_its_parameter",),
    ),
    Mutant(
        ASYM,
        "if not math.isfinite(ratio):",
        "if False:",
        "a ratio that is not finite printed as a row (nan, or NaN in JSON)",
        (f"{TCL}::test_asymptotics_non_finite_ratio_exits_2_naming_l",),
    ),
    Mutant(
        ASYM,
        "if not math.isfinite(inner):",
        "if False:",
        "a sum whose terms overflow to inf reported as not converging, without naming z",
        (f"{TCL}::test_asymptotics_overflowing_terms_exit_2_naming_z[1e-10]",),
    ),
    Mutant(
        CLI,
        "            if action.choices is not None and value not in action.choices:\n"
        "                return None\n",
        "",
        "an exact request's value taken without its flag's choices check",
        (
            f"{TCL}::test_dispatch_matches_the_top_level_parser[check --format xml]",
            f"{TCL}::test_every_request_has_the_top_level_parsers_outcome",
        ),
    ),
    Mutant(
        CLI,
        'if text is None or text[:1] == "-" and not text[1:].isdecimal():',
        "if text is None:",
        "any value starting with '-' taken in an exact request, where argparse sees an option",
        (
            f"{TCL}::test_dispatch_matches_the_top_level_parser[asymptotics --z -inf]",
            f"{TCL}::test_every_request_has_the_top_level_parsers_outcome",
        ),
    ),
    Mutant(
        CLI,
        "    if not command.required <= seen:\n        return None\n",
        "",
        "an exact request missing a required flag resolved without it",
        (
            f"{TCL}::test_dispatch_matches_the_top_level_parser[localize --markings 1]",
            f"{TCL}::test_every_request_has_the_top_level_parsers_outcome",
        ),
    ),
    Mutant(
        CLI,
        "action(command.parser, args, value, flag)",
        "setattr(args, action.dest, value)",
        "each flag's own action replaced by a plain store: --l no longer appends",
        (
            f"{TCL}::test_an_exact_request_reaches_no_argparse_parse[asymptotics]",
            f"{TCL}::test_every_request_has_the_top_level_parsers_outcome",
        ),
    ),
    Mutant(
        CLI,
        "    _refuse_missing_values(args)\n",
        "",
        "a flag holding no value (--flag=--) handed to its subcommand",
        (f"{TCL}::test_flag_holding_no_value_exits_2",),
    ),
    Mutant(
        CLI,
        '_WINDOW = _object_template(("maxQ", "maxT",',
        '_WINDOW = _object_template(("maxT", "maxQ",',
        "the check report's maxQ and maxT keys swapped in its template",
        (f"{TCL}::test_check_json_is_the_reports_dict_as_json",),
    ),
    Mutant(
        CLI,
        "g3 = gcd(step_n, step_d)",
        "g3 = 1",
        "a rung's value not reduced by the common factor of a and l",
        (f"{TCL}::test_rungs_reduced_from_the_rung_before_are_the_terms_reduced_alone",),
    ),
    Mutant(
        CLI,
        "g1, g2 = gcd(n, l), gcd(a, d)",
        "g1, g2 = 1, gcd(a, d)",
        "a rung's value not reduced by the common factor of the previous numerator and l",
        (f"{TCL}::test_rungs_reduced_from_the_rung_before_are_the_terms_reduced_alone",),
    ),
    Mutant(
        CLI,
        "degrees = (args.zcoeff - args.min_v, args.zcoeff - args.max_t)",
        "degrees = (args.zcoeff - args.min_v, args.zcoeff - args.max_t + 1)",
        "ifunction's degree floor one above the lowest degree that reaches its slice",
        (f"{TCL}::test_ifunction_builds_only_the_classes_that_reach_its_slice",),
    ),
)


def _copy_src(dest: Path) -> Path:
    shutil.copytree(ROOT / "src", dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _mutated(mutant: Mutant) -> str:
    """The mutant's file with its one edit applied."""
    text = (ROOT / "src" / mutant.file).read_text()
    count = text.count(mutant.snippet)
    if count != 1:
        raise LookupError(f"{mutant.file}: {mutant.snippet!r} occurs {count} times")
    return text.replace(mutant.snippet, mutant.replacement)


def _pytest(src: Path, tests: Iterable[str]) -> int:
    """pytest's exit status on ``tests`` with the package imported from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    return done.returncode


def main() -> int:
    mutated = [_mutated(mutant) for mutant in MUTANTS]  # every snippet, before any run
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        every_test = sorted({t for mutant in MUTANTS for t in mutant.tests})
        if _pytest(_copy_src(Path(tmp) / "clean"), every_test) != 0:
            print("the unedited source fails the mutants' tests")
            return 1
        survived = 0
        for i, (mutant, text) in enumerate(zip(MUTANTS, mutated)):
            src = _copy_src(Path(tmp) / f"mutant{i}")
            (src / mutant.file).write_text(text)
            status = _pytest(src, mutant.tests)
            # 1: a test failed; anything else means the tests did not run
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"ERROR (pytest exit {status})")
            survived += status != 1
            print(f"{verdict:<10} {mutant.file}: {mutant.reason}")
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
