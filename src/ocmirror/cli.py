"""Command-line front door: compute, check, and export the package's tables.

Subcommands
-----------

``disk``
    Coefficient table of the equivariant disk potential.
``rhs``
    Coefficient table of the assembled sphere-side series (descendant slice,
    distinguished pairing, variable substitution, exceptional correction).
``check``
    Build both sides independently as T-ladders and compare them one
    Q-power slice at a time, a slice whose ladders differ, or that the
    correction joins, by the values of its terms; exit 0 on exact equality,
    1 otherwise, with a machine-readable report.
``localize``
    Enumerate fixed-locus graph classes at a given degree and marking count,
    with automorphism orders and exact per-class contributions.
``ifunction``
    Coefficient table of one descendant-slice extraction of the surface
    series, in the unsubstituted area variables.
``asymptotics``
    Floating-point large-weight ratio table for the excess component.

All exact values are printed whole, however many digits they have, as
``num/den`` strings, each series row in its own lowest terms; series tables
iterate in the kernel's lexicographic monomial order and graph tables in
the deterministic enumeration order, so identical configurations produce
byte-identical output.  ``disk``, ``rhs`` and ``ifunction`` write their
rows straight from the T-ladders, already in that order, each rung reduced
from the one before; ``disk`` and ``rhs`` write each Q-power slice as it is
built, so their memory does not grow with the table.  Every refusal comes
before the first byte.  Every JSON table and the ``check`` report are written from
``%`` templates, byte for byte as ``json.dumps(..., sort_keys=True,
indent=2)`` writes them.  Exit codes: 0 success (check passed), 1 check
failure, 2 usage or configuration error, or an ``--output`` path that
cannot be written.

A request made only of exact ``--flag value`` tokens (a bare ``--flag``
for ``--corrupt-exc``) is read off its subcommand's flag table: each
value through its flag's own type, choices and action, a value starting
with '-' only as a plain negative integer, and every required flag
given.  The top-level parser parses every other request (``-h``,
``--flag=value``, abbreviations, unknown or missing tokens, values it would
refuse), so argparse alone writes usage, help and error messages.  After
either route, a flag that takes one value but holds none (argparse's
reading of ``--flag=--``) exits 2 as a flag given without its value.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import sys
from math import factorial, gcd
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .asymptotics import NumericParams, ratio_table
from .closed import Ladder, expand_ladders, surface_series_terms, z_coeff_ladders
from .correspondence import _bessel_value, _disk_walk, _rhs_walk, run_check
from .localization import graph_class_rows
from .series import FormalSeries, RawTerm, TruncationWindow, lowest_terms

__all__ = ["main"]

# hard caps keeping the graph enumeration interactive (class counts grow
# super-exponentially in the degree)
MAX_LOCALIZE_DEGREE = 3
MAX_LOCALIZE_MARKINGS = 4

F_COLUMNS = ("mu", "q_power", "t0_power", "v_power", "value")
SLICE_COLUMNS = ("t0_power", "q1_power", "q2_power", "v_power", "value")
GRAPH_COLUMNS = ("labels", "edges", "markings", "aut", "contribution")
RATIO_COLUMNS = ("l", "v_l", "N", "ratio", "abs_error")


def _window_from(args: argparse.Namespace) -> TruncationWindow:
    return TruncationWindow(args.max_q, args.max_t, args.max_mu, args.min_v, max_v=1)


def _laurent_str(series: FormalSeries) -> str:
    """Canonical string for an exact weight-Laurent scalar, e.g. '-1/2*v^-2'."""
    parts = []
    for m, c in series.items():
        frac = f"{c.numerator}/{c.denominator}"
        parts.append(frac if m.V == 0 else f"{frac}*v^{m.V}")
    return " + ".join(parts) if parts else "0"


def _object_template(columns: Sequence[str], depth: int) -> Tuple[str, itemgetter]:
    """A ``%`` template of one JSON object as ``json.dumps(..., sort_keys=True,
    indent=2)`` lays it out at ``depth``, and the picker that puts a row
    given in ``columns`` order into the template's order.

    A ``value`` is quoted; every other field must already be JSON text laid
    out at the depth of the object's fields (see :func:`_json_array`).
    """
    keys = sorted(columns)
    pad = "\n" + "  " * depth
    fields = (f'{pad}  "{k}": ' + ('"%s"' if k == "value" else "%s") for k in keys)
    return "{" + ",".join(fields) + pad + "}", itemgetter(*map(columns.index, keys))


@functools.cache  # each slice of a table reads it
def _row_template(columns: Sequence[str], fmt: str) -> Tuple[str, Callable[[tuple], tuple]]:
    """The ``%`` template of one row of a ``fmt`` table, and the picker that
    puts a row given in ``columns`` order into the template's order.

    CSV fields are written as they are: no field of any table holds a comma,
    a quote or a line break.  A JSON row is its dict, byte for byte as
    indented ``json.dumps`` writes it, from :func:`_object_template`: with
    an indent, ``json`` encodes in pure Python, several times slower.
    """
    if fmt == "csv":
        return ",".join(["%s"] * len(columns)) + "\n", tuple
    template, pick = _object_template(columns, 1)
    return "  " + template, pick


def _texts(columns: Sequence[str], rows: Iterable[tuple], fmt: str) -> List[str]:
    """Each row's text in a ``fmt`` table of ``columns``."""
    template, pick = _row_template(columns, fmt)
    return [template % pick(row) for row in rows]


def _table(columns: Sequence[str], chunks: Iterable[List[str]], fmt: str) -> Iterator[str]:
    """A ``fmt`` table's text: its header, then one string per chunk of row texts."""
    if fmt == "csv":
        yield ",".join(columns) + "\n"
        yield from map("".join, chunks)
        return
    sep = "[\n"  # then each nonempty chunk after the first starts with a comma
    for text in filter(None, map(",\n".join, chunks)):
        yield sep + text
        sep = ",\n"
    yield "[]\n" if sep == "[\n" else "\n]\n"


def _json_array(items: Iterable[str], depth: int = 2) -> str:
    """Nonempty JSON texts as one array at ``depth``, as indented ``json.dumps`` lays it out."""
    pad = "\n" + "  " * (depth + 1)
    body = ("," + pad).join(items)
    return "[" + pad + body + "\n" + "  " * depth + "]" if body else "[]"


# the check report's objects, each with its keys in the order ``_report_json``
# gives their fields: the report, its window, a diff row
_REPORT = _object_template(("window", "pass", "diff"), 0)
_WINDOW = _object_template(("maxQ", "maxT", "maxAbsMu", "minV", "maxV"), 1)
_DIFF_ROW = _object_template(("X", "Q", "T", "V", "value"), 2)


def _report_json(w: TruncationWindow, rows: List[tuple]) -> str:
    """The check report on window ``w`` with its diff rows (mu, Q, T, V, value),
    passed iff there are none, from object templates."""
    (top, pick), (window, pick_window), (row, pick_row) = _REPORT, _WINDOW, _DIFF_ROW
    fields = (
        window % pick_window((w.max_q, w.max_t, w.max_abs_x, w.min_v, w.max_v)),
        "false" if rows else "true",
        _json_array((row % pick_row(r) for r in rows), 1),
    )
    return top % pick(fields) + "\n"


def _f_rows(terms: Iterable[RawTerm]) -> List[tuple]:
    """Rows of (monomial, num, den) terms, each reduced by its own gcd."""
    return [
        (X, Q, T, V, f"{n // g}/{d // g}")
        for (Q, T, X, V, _, _, _), n, d in terms
        for g in (gcd(n, d),)
    ]


#: a ``disk``/``rhs`` row and an ``ifunction`` row, from (Q, T, X, V, q1, q2, value)
_F_ROW, _SLICE_ROW = itemgetter(2, 0, 1, 3, 6), itemgetter(1, 4, 5, 3, 6)


def _ladder_texts(
    ladders: Sequence[Ladder], columns: Sequence[str], layout: itemgetter, fmt: str
) -> List[str]:
    """The row texts of the terms of ``ladders``, in :func:`expand_ladders`' order.

    A ladder's row of ``columns``, which ``layout`` picks from (Q, T, X, V,
    q1, q2, value), is written once with ``%s`` at T, V and the value, in
    that order in every table; each rung fills them.  The first rung is
    reduced by one gcd, each later one is the rung before, n/d in lowest
    terms, times a/(b*l): gcds against that small step alone reduce it.
    """
    template, pick = _row_template(columns, fmt)
    by_l: List[List[str]] = [[] for _ in range(max((L[9] for L in ladders), default=-1) + 1)]
    for Q, t0, x, v, q1, q2, n, d, lo, hi, a, b in ladders:
        text = template % pick(layout((Q, "%s", x, "%s", q1, q2, "%s/%s")))
        d *= factorial(lo)
        g = gcd(n, d)
        n, d = n // g, d // g
        for l in range(lo, hi + 1):
            if l > lo:
                g1, g2 = gcd(n, b * l), gcd(a, d)
                step_n, step_d = a // g2, b * l // g1
                g3 = gcd(step_n, step_d)
                n, d = n // g1 * (step_n // g3), d // g2 * (step_d // g3)
            by_l[l].append(text % (t0 + l, v - l, n, d))
    return [text for texts in by_l for text in texts]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit code, output text in chunks)
# ---------------------------------------------------------------------------


def cmd_side(args: argparse.Namespace) -> Tuple[int, Iterable[str]]:
    """``disk`` or ``rhs``: the side's rows, one chunk per Q-power slice."""

    def slice_texts(ladders: List[Ladder], extra: List[RawTerm]) -> List[str]:
        if extra:  # the correction repeats monomials of the slice: summed per monomial
            rows = _f_rows(lowest_terms(expand_ladders(ladders) + extra))
            return _texts(F_COLUMNS, rows, args.format)
        return _ladder_texts(ladders, F_COLUMNS, _F_ROW, args.format)

    window = _window_from(args)
    if args.command == "rhs":
        walk = _rhs_walk(window)
    else:  # the disk potential has no correction
        walk = ((ladders, []) for ladders in _disk_walk(window, _bessel_value))
    return 0, _table(F_COLUMNS, itertools.starmap(slice_texts, walk), args.format)


def cmd_check(args: argparse.Namespace) -> Tuple[int, Iterable[str]]:
    report = run_check(_window_from(args), corrupt_correction=args.corrupt_exc)
    rows = _f_rows((m, c.numerator, c.denominator) for m, c in report.diff.items())
    code = 0 if report.passed else 1
    if args.format == "json":
        return code, [_report_json(report.window, rows)]
    return code, _table(F_COLUMNS, [_texts(F_COLUMNS, rows, "csv")], "csv")


def cmd_localize(args: argparse.Namespace) -> Tuple[int, Iterable[str]]:
    if not 1 <= args.degree <= MAX_LOCALIZE_DEGREE:
        raise ValueError(
            f"degree must lie in [1, {MAX_LOCALIZE_DEGREE}] "
            "(graph classes grow super-exponentially)"
        )
    if not 0 <= args.markings <= MAX_LOCALIZE_MARKINGS:
        raise ValueError(f"markings must lie in [0, {MAX_LOCALIZE_MARKINGS}]")
    table = graph_class_rows(args.markings, args.degree)
    rows = []  # enumeration emits a tree's classes together: its text is made once
    for (labels, edges), run in itertools.groupby(table, lambda r: (r[0].labels, r[0].edges)):
        if args.format == "json":
            tree = (
                _json_array(map(str, labels)),
                _json_array(_json_array(map(str, edge), 3) for edge in edges),
            )
            rows += [
                (*tree, _json_array(map(str, g.markings)), aut, f'"{_laurent_str(c)}"')
                for g, aut, c in run
            ]
        else:
            tree = ("|".join(map(str, labels)), "|".join(f"{u}-{v}:{de}" for u, v, de in edges))
            rows += [
                (*tree, "|".join(map(str, g.markings)), aut, _laurent_str(c)) for g, aut, c in run
            ]
    return 0, _table(GRAPH_COLUMNS, [_texts(GRAPH_COLUMNS, rows, args.format)], args.format)


def cmd_ifunction(args: argparse.Namespace) -> Tuple[int, Iterable[str]]:
    # outputs carry no Q; the window's max_q is the joint q1+q2 cap, and
    # the slice keeps every Kaehler excess up to it.  A class of degree
    # e = d1 + d2 lands at T^l V^(zcoeff - e - l) with 0 <= l <= max_t and
    # zcoeff - e - l <= 0, so only degrees from zcoeff - max_t to
    # zcoeff - min_v reach the table.
    window = TruncationWindow(
        max_q=args.max_q, max_t=args.max_t, max_abs_x=0, min_v=args.min_v, max_v=1
    )
    degrees = (args.zcoeff - args.min_v, args.zcoeff - args.max_t)
    terms = surface_series_terms(window, window.max_q, *degrees)
    # at each T-power the rows run by V upwards, then q1: degree down, then slope down
    ladders = z_coeff_ladders(terms[::-1], args.zcoeff, window)
    texts = _ladder_texts(ladders, SLICE_COLUMNS, _SLICE_ROW, args.format)
    return 0, _table(SLICE_COLUMNS, [texts], args.format)


def cmd_asymptotics(args: argparse.Namespace) -> Tuple[int, Iterable[str]]:
    params = NumericParams(q0=args.q0, q1=args.q1, q2=args.q2, z=args.z)
    ls = args.l if args.l else [200]
    rows = ratio_table(params, args.N, ls, component=args.component)
    # a finite float's repr is its JSON text, as for an int
    texts = _texts(RATIO_COLUMNS, (tuple(map(repr, row)) for row in rows), args.format)
    return 0, _table(RATIO_COLUMNS, [texts], args.format)


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _add_window_flags(sub: argparse.ArgumentParser) -> List[argparse.Action]:
    return [
        sub.add_argument("--max-q", type=int, default=10, help="square-root-area order cap"),
        sub.add_argument("--max-t", type=int, default=4, help="logarithm order cap"),
        sub.add_argument("--max-mu", type=int, default=4, help="winding magnitude cap"),
        sub.add_argument("--min-v", type=int, default=-8, help="weight-Laurent floor"),
    ]


def _add_format_flags(sub: argparse.ArgumentParser, default: str) -> List[argparse.Action]:
    return [
        sub.add_argument("--format", choices=("csv", "json"), default=default),
        sub.add_argument("--output", default=None, help="write here instead of stdout"),
    ]


class _Subcommand:
    """A subcommand's parser, after ``set_defaults(**defaults)``, and the
    flag table of its ``actions``, those ``add_argument`` returned.

    ``flags`` maps each option string to its action (those taking one value
    or none), ``required`` holds the required actions, ``valued`` those
    taking one value, and ``start`` is the namespace before any flag is
    read, as argparse starts it: each action's default over the parser's
    defaults (the subcommand's name among them), a string default
    converted by the action's type.
    """

    __slots__ = ("parser", "flags", "start", "required", "valued")

    def __init__(
        self, parser: argparse.ArgumentParser, actions: List[argparse.Action], **defaults: object
    ) -> None:
        parser.set_defaults(**defaults)
        self.parser = parser
        self.flags = {s: a for a in actions if a.nargs in (None, 0) for s in a.option_strings}
        self.required = frozenset(a for a in actions if a.required)
        self.valued = [a for a in actions if a.nargs is None]
        self.start = dict(defaults)
        for a in actions:
            d = a.default
            self.start[a.dest] = a.type(d) if a.type and isinstance(d, str) else d


@functools.cache  # built on the first call; parsing leaves it unchanged
def _build_parser() -> Tuple[argparse.ArgumentParser, Dict[str, _Subcommand]]:
    """The top-level parser and each subcommand, by name."""
    parser = argparse.ArgumentParser(
        prog="ocmirror",
        description="Exact disk-potential / sphere-series correspondence tools.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    commands: Dict[str, _Subcommand] = {}

    for name, summary in (
        ("disk", "disk potential coefficient table"),
        ("rhs", "assembled sphere-side coefficient table"),
    ):
        sub = subs.add_parser(name, help=summary)
        actions = _add_window_flags(sub) + _add_format_flags(sub, "csv")
        commands[name] = _Subcommand(sub, actions, command=name, handler=cmd_side)

    check = subs.add_parser("check", help="compare both sides exactly")
    actions = [
        *_add_window_flags(check),
        *_add_format_flags(check, "json"),
        check.add_argument(
            "--corrupt-exc",
            action="store_true",
            help="deliberately flip part of the exceptional correction (mutation test)",
        ),
    ]
    commands["check"] = _Subcommand(check, actions, command="check", handler=cmd_check)

    localize = subs.add_parser("localize", help="fixed-locus graph class table")
    actions = [
        localize.add_argument("--degree", type=int, required=True),
        localize.add_argument("--markings", type=int, default=0),
        *_add_format_flags(localize, "csv"),
    ]
    commands["localize"] = _Subcommand(localize, actions, command="localize", handler=cmd_localize)

    ifunction = subs.add_parser(
        "ifunction", help="descendant-slice table of the surface series"
    )
    actions = [
        ifunction.add_argument("--zcoeff", type=int, default=2, help="slice index"),
        ifunction.add_argument("--max-q", type=int, default=10, help="joint area-order cap"),
        ifunction.add_argument("--max-t", type=int, default=4),
        ifunction.add_argument("--min-v", type=int, default=-8),
        *_add_format_flags(ifunction, "csv"),
    ]
    commands["ifunction"] = _Subcommand(
        ifunction, actions, command="ifunction", handler=cmd_ifunction
    )

    asym = subs.add_parser("asymptotics", help="large-weight ratio table")
    actions = [
        asym.add_argument("--q0", type=float, default=1.0),
        asym.add_argument("--q1", type=float, default=0.25),
        asym.add_argument("--q2", type=float, default=0.25),
        asym.add_argument("--z", type=float, default=1.0),
        asym.add_argument("--N", type=int, default=1, help="asymptotic order"),
        asym.add_argument("--l", type=int, action="append", help="sequence index (repeatable)"),
        asym.add_argument("--component", type=int, choices=(1, 2), default=2),
        *_add_format_flags(asym, "csv"),
    ]
    commands["asymptotics"] = _Subcommand(
        asym, actions, command="asymptotics", handler=cmd_asymptotics
    )

    return parser, commands


def _exact(command: _Subcommand, tokens: Sequence[str]) -> Optional[argparse.Namespace]:
    """What ``command.parser.parse_known_args(tokens)`` returns, with nothing
    left over, when every token is an exact ``--flag`` of the table or its
    value and argparse would accept them all; None otherwise.

    Each value goes through its action's own type, choices and call (store,
    store_true or append).  A value starting with '-' is taken only as a
    plain negative integer, which every supported argparse reads as a value.
    """
    args = argparse.Namespace(**command.start)
    seen = set()
    rest = iter(tokens)
    for flag in rest:
        action = command.flags.get(flag)
        if action is None:
            return None
        value: object = []  # what argparse hands an action that takes no value
        if action.nargs is None:
            text = next(rest, None)
            if text is None or text[:1] == "-" and not text[1:].isdecimal():
                return None
            try:
                value = action.type(text) if action.type else text
            except (TypeError, ValueError):  # argparse reports these as usage errors
                return None
            if action.choices is not None and value not in action.choices:
                return None
        action(command.parser, args, value, flag)
        seen.add(action)
    if not command.required <= seen:
        return None
    return args


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """The arguments as the top-level parser reads them.

    An exact request is resolved against the named subcommand's flag table
    (see :func:`_exact`); any other goes to the top-level parser, so
    argparse writes every usage, help and error message.
    """
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    args = None if command is None else _exact(command, argv[1:])
    return parser.parse_args(argv) if args is None else args


@contextlib.contextmanager
def _all_int_digits() -> Iterator[None]:
    """Lift CPython's limit on the digits of an int written as text, and
    restore it after: an exact value may pass its 4,300 digits.  Pythons
    without the limit have no ``set_int_max_str_digits``."""
    limit = getattr(sys, "get_int_max_str_digits", None)
    if limit is None:
        yield
        return
    saved = limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


#: what argparse makes of ``--flag=--``: ``[]`` on the Pythons that drop the
#: ``--``, the text ``--`` on those that keep it
_NO_VALUE = ([], "--")


def _refuse_missing_values(args: argparse.Namespace) -> None:
    """Exit 2 through the subcommand's parser, as for a flag given without
    its value, when a flag taking one value holds none (``--flag=--``)."""
    command = _build_parser()[1][args.command]
    for action in command.valued:
        value = getattr(args, action.dest)
        if value in _NO_VALUE or isinstance(value, list) and any(v in _NO_VALUE for v in value):
            flag = "/".join(action.option_strings)
            command.parser.error(f"argument {flag}: expected one argument")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    _refuse_missing_values(args)
    with _all_int_digits():
        try:
            code, chunks = args.handler(args)
        except (ValueError, ArithmeticError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.writelines(chunks)
            except OSError as exc:
                print(f"error: cannot write {args.output}: {exc.strerror}", file=sys.stderr)
                return 2
        else:
            sys.stdout.writelines(chunks)
    return code


if __name__ == "__main__":
    sys.exit(main())
