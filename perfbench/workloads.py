"""The benchmark's workloads: inputs made from a seed, operations, verifiers.

Each workload turns ``--seed`` into inputs and one list of operations; every
pass of a run replays that list.  An operation calls the program (the library or the CLI
through ``cli.main``), and a verifier then checks its output against
:mod:`oracles`, never against the code path that produced it.  A wrong answer
is a failed operation, not a fast one.

Program functions are always looked up through their module at call time
(``localization.enumerate_graph_classes``), so the traced run's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ocmirror import cli, correspondence, localization
from ocmirror.series import Monomial, TruncationWindow

import oracles

RATIO_COLUMNS = ("l", "v_l", "N", "ratio", "abs_error")
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


@dataclass
class Verdict:
    """What a verifier found: ``error`` is None when the output is right."""

    error: Optional[str] = None
    terms: int = 0  # exact coefficients produced and verified
    classes: int = 0  # graph classes produced and verified
    output_bytes: int = 0  # bytes the CLI printed


@dataclass
class Op:
    """One request: ``run`` calls the program, ``verify`` checks its output.

    ``exact`` is False only for floating-point rows, which are checked to a
    tolerance; every other output is checked exactly.
    """

    kind: str
    run: Callable[[], object]
    verify: Callable[[object], Verdict]
    exact: bool = True


def call_cli(argv: Sequence[str]) -> Tuple[int, str]:
    """Run ``cli.main`` with stdout and stderr captured: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def window_flags(window: oracles.Window) -> List[str]:
    q, t, mu, v, _ = window
    return ["--max-q", str(q), "--max-t", str(t), "--max-mu", str(mu), "--min-v", str(v)]


def _monomial(key: oracles.Key) -> Monomial:
    mu, q, t, v = key
    return Monomial(Q=q, T=t, X=mu, V=v)


def _verify_check_report(report, window: oracles.Window, sample: Sequence[int]) -> Verdict:
    """A library ``run_check`` report: passed, empty diff, and a left side
    whose monomials and sampled values are the disk potential's."""
    if not report.passed or not report.diff.is_zero():
        return Verdict(f"check failed on {window}: {len(report.diff)} leftover terms")
    expected = oracles.disk_monomials(window)
    if len(report.lhs) != len(expected):
        return Verdict(f"{len(report.lhs)} terms on {window}, expected {len(expected)}")
    keys = sorted(expected)
    for i in sample:
        key = keys[i % len(keys)]
        want = oracles.disk_coefficient(*expected[key])
        if report.lhs.coeff(_monomial(key)) != want:
            return Verdict(f"coefficient at {key} differs from the closed form")
    return Verdict(terms=len(report.lhs))


def _verify_disk_text(
    code: int, text: str, fmt: str, window: oracles.Window, sample: Optional[Sequence[int]]
) -> Verdict:
    if code != 0:
        return Verdict(f"exit {code}")
    rows = oracles.parse_table(text, fmt, oracles.F_COLUMNS)
    error = oracles.check_disk_table(rows, window, sample)
    return Verdict(error, terms=len(rows), output_bytes=len(text.encode()))


# ===========================================================================
# check-large: both sides at large windows, plus table exports
# ===========================================================================


class CheckLarge:
    """``run_check`` at four windows from q20/t6/x8/v-18 to q32/t10/x14/v-30,
    then the disk and rhs CSV tables at the largest through ``cli.main``.

    The seed moves max_v of every window by up to 2 (so max_v != 1 is
    covered), min_v by up to 1, and max_t of the two smaller windows by up
    to 1, which changes the work by a few percent only.  Kernel-heavy:
    series products of thousands of terms, ``series_exp``, ``z_coeff`` and
    ``substitute``; no graph sums.  Each operation stays under a second (see
    the module docstring of ``run``).
    """

    name = "check-large"
    BASE = ((20, 6, 8, -18), (24, 8, 10, -22), (28, 8, 12, -26), (32, 10, 14, -30))

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.windows: List[oracles.Window] = []
        for i, (q, t, x, v) in enumerate(self.BASE):
            dt = rng.randint(-1, 1) if i < 2 else 0
            self.windows.append((q, t + dt, x, v + rng.randint(-1, 1), 1 + rng.randint(-2, 2)))
        q, t, x, v, _ = self.windows[-1]
        self.export: oracles.Window = (q, t, x, v, 1)  # the CLI fixes max_v = 1
        self.sample = [rng.randrange(1 << 30) for _ in range(64)]
        for w in self.windows + [self.export]:
            oracles.disk_monomials(w)  # input generation cost belongs to set-up
        self._disk_text: Optional[str] = None

    def warmup(self) -> None:
        correspondence.run_check(TruncationWindow(10, 4, 4, -8))

    def ops(self) -> List[Op]:
        ops = [self._check(w) for w in self.windows]
        flags = window_flags(self.export)
        ops.append(Op("disk", lambda: call_cli(["disk", *flags]), self._verify_disk))
        ops.append(Op("rhs", lambda: call_cli(["rhs", *flags]), self._verify_rhs))
        return ops

    def _check(self, window: oracles.Window) -> Op:
        return Op(
            "check",
            lambda: correspondence.run_check(TruncationWindow(*window)),
            lambda report: _verify_check_report(report, window, self.sample),
        )

    def _verify_disk(self, result: Tuple[int, str]) -> Verdict:
        code, text = result
        self._disk_text = text
        return _verify_disk_text(code, text, "csv", self.export, self.sample)

    def _verify_rhs(self, result: Tuple[int, str]) -> Verdict:
        code, text = result
        verdict = _verify_disk_text(code, text, "csv", self.export, self.sample)
        if verdict.error is None and text != self._disk_text:
            verdict.error = "rhs table differs from the disk table"
        return verdict


# ===========================================================================
# graph-sums: fixed-locus graph enumeration and the graph-sum oracle route
# ===========================================================================


class GraphSums:
    """Graph-class enumeration at (n, d) = (0, 5), (1, 4), (2, 4), (3, 3) and
    (4, 3) with automorphism orders, the n = 0 class-count sequence,
    ``graph_class_rows(3, 3)``, ``open_invariant(4, 5)`` and the localized
    disk potential at q8/t3/x3/v-8 against the Bessel route.

    Localization-heavy; the inputs are fixed, and the seed orders the
    operations.  Each operation stays under a second (see the module
    docstring of ``run``).
    """

    name = "graph-sums"
    ENUMERATIONS = ((0, 5), (1, 4), (2, 4), (3, 3), (4, 3))
    LOCALIZED_WINDOW: oracles.Window = (8, 3, 3, -8, 1)
    OPEN = (4, 5)  # open_invariant(d, d + 1): winding 1, sphere degree d

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def warmup(self) -> None:
        localization.enumerate_graph_classes(0, 3)

    def ops(self) -> List[Op]:
        ops = [self._enumerate(n, d) for n, d in self.ENUMERATIONS]
        ops += [
            Op("sequence", self._sequence, self._verify_sequence),
            Op("class_rows", lambda: localization.graph_class_rows(3, 3), self._verify_rows),
            Op(
                "open_invariant",
                lambda: localization.open_invariant(*self.OPEN),
                self._verify_open,
            ),
            Op("localized", self._localized, self._verify_localized),
        ]
        random.Random(self.seed).shuffle(ops)
        return ops

    def _enumerate(self, n: int, d: int) -> Op:
        def run():
            classes = localization.enumerate_graph_classes(n, d)
            auts = [localization.automorphism_count(g) for g in classes]
            labeled = {V: localization.count_labeled_graphs(n, d, V) for V in range(2, d + 2)}
            return classes, auts, labeled

        def verify(result) -> Verdict:
            classes, auts, labeled = result
            error = oracles.check_orbit_stabiliser(
                n, d, [(len(g.labels), a) for g, a in zip(classes, auts)]
            )
            for V, count in labeled.items():
                if count != oracles.labeled_graph_count(n, d, V):
                    error = error or f"count_labeled_graphs({n}, {d}, {V}) = {count}"
            if n == 0 and len(classes) != oracles.CLOSED_CLASS_COUNTS[d]:
                error = error or f"{len(classes)} classes at d={d}"
            return Verdict(error, classes=len(classes))

        return Op("enumerate", run, verify)

    @staticmethod
    def _sequence() -> List[int]:
        return [len(localization.enumerate_graph_classes(0, d)) for d in range(1, 5)]

    @staticmethod
    def _verify_sequence(counts: List[int]) -> Verdict:
        want = [oracles.CLOSED_CLASS_COUNTS[d] for d in range(1, 5)]
        error = None if counts == want else f"class counts {counts}, expected {want}"
        return Verdict(error, classes=sum(counts))

    @staticmethod
    def _verify_rows(rows) -> Verdict:
        # all-unit insertions at positive degree vanish (string equation), so
        # the class contributions must cancel exactly
        error = oracles.check_orbit_stabiliser(3, 3, [(len(g.labels), a) for g, a, _ in rows])
        total: Dict[Monomial, Fraction] = {}
        terms = 0
        for _, _, contribution in rows:
            for m, c in contribution.items():
                total[m] = total.get(m, Fraction(0)) + c
                terms += 1
        if any(total.values()):
            error = error or "class contributions do not cancel"
        return Verdict(error, terms=terms, classes=len(rows))

    def _verify_open(self, value) -> Verdict:
        # open_invariant(d, d + mu) is the disk coefficient at l = 0, m = d
        d, mu = self.OPEN[0], self.OPEN[1] - self.OPEN[0]
        want = {Monomial(V=1 - 2 * d - mu): oracles.disk_coefficient(mu, 0, d)}
        error = None if dict(value.items()) == want else f"open_invariant{self.OPEN} = {value}"
        return Verdict(error, terms=len(value))

    def _localized(self):
        w = TruncationWindow(*self.LOCALIZED_WINDOW)
        return (
            correspondence.disk_potential_localized(w),
            correspondence.disk_potential_bessel(w),
        )

    def _verify_localized(self, result) -> Verdict:
        localized, bessel = result
        expected = oracles.disk_monomials(self.LOCALIZED_WINDOW)
        want = {_monomial(k): oracles.disk_coefficient(*v) for k, v in expected.items()}
        if dict(bessel.items()) != want:
            return Verdict("Bessel route differs from the closed form")
        if dict(localized.items()) != want:
            return Verdict("localized route differs from the Bessel route")
        return Verdict(terms=len(localized) + len(bessel))


# ===========================================================================
# cli-mix: a seeded stream of small CLI requests
# ===========================================================================


class CliMix:
    """A seeded stream of 399 small ``cli.main`` requests.

    Fixed counts per request kind keep every stream the same size.  Within a
    kind, every parameter takes each of its values equally often (to within
    one) and the seed decides how they pair up and the order of the stream,
    so seeds differ in the mix but hardly in the total work.  Windows come
    from the small check grid (max_q 0-8, max_t 0-4, max_mu 0-4, min_v
    -10..1).  Every (degree <= 3, markings <= 4) localize pair appears once.
    Asymptotics rows are the whole grid of N 0-5, l at half-decade steps over
    10^2..10^5 and both formats, checked against an exact reference computed
    in set-up.  The grid is the same for every seed, so the rows the program
    gets wrong (40% of them at this grid) are the same in every run.
    """

    name = "cli-mix"
    QUOTAS = (
        ("check", 150),
        ("check-corrupt", 30),
        ("disk", 40),
        ("rhs", 40),
        ("ifunction", 40),
    )
    GRID = (range(9), range(5), range(5), range(-10, 2))  # max_q, max_t, max_mu, min_v
    LOCALIZE = tuple((d, n) for d in (1, 2, 3) for n in range(5))
    IFUNCTION = {"zcoeff": range(4), "max_q": range(9), "max_t": range(5), "min_v": (-10, -6, -2)}
    FORMATS = ("csv", "json")
    ASYMPTOTIC_LS = tuple(round(10 ** (2 + i / 2)) for i in range(7))  # 100 .. 100000

    def __init__(self, seed: int) -> None:
        self.seed = seed
        reference = oracles.AsymptoticReference()
        self.exact = {
            (N, l): reference.ratio_minus_one(N, l) for N in range(6) for l in self.ASYMPTOTIC_LS
        }
        with open(DIGESTS_PATH, encoding="utf-8") as fh:
            self.digests: Dict[str, Dict[str, str]] = json.load(fh)

    def warmup(self) -> None:
        call_cli(["check"])

    def ops(self) -> List[Op]:
        rng = random.Random(self.seed + 1)

        def balanced(values: Sequence, n: int) -> list:
            out = [values[i % len(values)] for i in range(n)]
            rng.shuffle(out)
            return out

        ops: List[Op] = []
        for kind, n in self.QUOTAS:
            space = tuple(self.IFUNCTION.values()) if kind == "ifunction" else self.GRID
            columns = [balanced(values, n) for values in space]
            build = getattr(self, "_" + kind.replace("-", "_"))
            ops += [build(p, f) for p, f in zip(zip(*columns), balanced(self.FORMATS, n))]
        formats = balanced(self.FORMATS, len(self.LOCALIZE))
        ops += [self._localize(dn, fmt) for dn, fmt in zip(self.LOCALIZE, formats)]
        ops += [
            self._asymptotics((N, l), fmt)
            for N in range(6)
            for l in self.ASYMPTOTIC_LS
            for fmt in self.FORMATS
        ]
        rng.shuffle(ops)
        return ops

    # -- request builders: (drawn parameters, output format) -> Op ----------

    def _check(self, params: Sequence[int], fmt: str, flags: Sequence[str] = ()) -> Op:
        window = (*params, 1)
        argv = ["check", *flags, *window_flags(window), "--format", "json"]
        diff = oracles.corrupt_check_diff(window) if flags else []
        kind = "check-corrupt" if flags else "check"
        return Op(kind, lambda: call_cli(argv), lambda r: self._verify_check(r, window, diff))

    def _check_corrupt(self, params: Sequence[int], fmt: str) -> Op:
        return self._check(params, fmt, ["--corrupt-exc"])

    def _disk(self, params: Sequence[int], fmt: str, sub: str = "disk") -> Op:
        window = (*params, 1)
        argv = [sub, *window_flags(window), "--format", fmt]
        return Op(sub, lambda: call_cli(argv), lambda r: _verify_disk_text(*r, fmt, window, None))

    def _rhs(self, params: Sequence[int], fmt: str) -> Op:
        return self._disk(params, fmt, "rhs")

    def _ifunction(self, params: Sequence[int], fmt: str) -> Op:
        argv, key = self.ifunction_request(params, fmt)
        verify = lambda r: self._verify_digest(r, "ifunction", key)  # noqa: E731
        return Op("ifunction", lambda: call_cli(argv), verify)

    def _localize(self, degree_markings: Tuple[int, int], fmt: str) -> Op:
        argv, key = self.localize_request(*degree_markings, fmt)
        verify = lambda r: self._verify_digest(r, "localize", key)  # noqa: E731
        return Op("localize", lambda: call_cli(argv), verify)

    @classmethod
    def ifunction_request(cls, params: Sequence[int], fmt: str) -> Tuple[List[str], str]:
        """argv and digest key of one ifunction request."""
        argv = ["ifunction"]
        for flag, value in zip(cls.IFUNCTION, params):
            argv += ["--" + flag.replace("_", "-"), str(value)]
        return argv + ["--format", fmt], ",".join(map(str, [*params, fmt]))

    @staticmethod
    def localize_request(degree: int, markings: int, fmt: str) -> Tuple[List[str], str]:
        """argv and digest key of one localize request."""
        argv = ["localize", "--degree", str(degree), "--markings", str(markings), "--format", fmt]
        return argv, f"{degree},{markings},{fmt}"

    def _asymptotics(self, params: Tuple[int, int], fmt: str) -> Op:
        N, l = params
        argv = ["asymptotics", "--N", str(N), "--l", str(l), "--format", fmt]
        verify = lambda r: self._verify_asymptotics(r, N, l, fmt)  # noqa: E731
        return Op("asymptotics", lambda: call_cli(argv), verify, exact=False)

    # -- verifiers -----------------------------------------------------------

    @staticmethod
    def _verify_check(result: Tuple[int, str], window: oracles.Window, diff: list) -> Verdict:
        code, text = result
        report = json.loads(text)
        q, t, mu, v, max_v = window
        echo = {"maxQ": q, "maxT": t, "maxAbsMu": mu, "minV": v, "maxV": max_v}
        verdict = Verdict(
            terms=len(oracles.disk_monomials(window)), output_bytes=len(text.encode())
        )
        if code != (1 if diff else 0) or report["pass"] != (not diff):
            verdict.error = f"exit {code}, pass {report['pass']}, expected {len(diff)} leftovers"
        elif report["diff"] != diff or report["window"] != echo:
            verdict.error = f"diff {report['diff']} on {report['window']}, expected {diff}"
        return verdict

    def _verify_digest(self, result: Tuple[int, str], table: str, key: str) -> Verdict:
        code, text = result
        rows = len(json.loads(text)) if key.endswith("json") else text.count("\n") - 1
        verdict = Verdict(
            terms=rows,
            classes=rows if table == "localize" else 0,
            output_bytes=len(text.encode()),
        )
        if code != 0 or oracles.digest(text) != self.digests[table][key]:
            verdict.error = f"{table} {key}: exit {code}, output differs from the recorded digest"
        return verdict

    def _verify_asymptotics(self, result: Tuple[int, str], N: int, l: int, fmt: str) -> Verdict:
        code, text = result
        if code != 0:
            return Verdict(f"asymptotics N={N} l={l} refused with exit {code}")
        (row,) = oracles.parse_table(text, fmt, RATIO_COLUMNS)
        got_l, v_l, got_n, ratio = int(row[0]), float(row[1]), int(row[2]), float(row[3])
        verdict = Verdict(output_bytes=len(text.encode()))
        exact = self.exact[(N, l)]
        if (got_l, v_l, got_n) != (l, l + 0.5, N):
            verdict.error = f"row {row} does not echo N={N} l={l}"
        elif not oracles.agrees_to_three_digits(ratio - 1.0, exact):
            verdict.error = f"N={N} l={l}: ratio - 1 = {ratio - 1.0:.4g}, exact {float(exact):.4g}"
        return verdict


WORKLOADS = {w.name: w for w in (CheckLarge, GraphSums, CliMix)}
