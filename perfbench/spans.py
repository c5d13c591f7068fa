"""Span recorder for the traced benchmark run.

The benchmark wraps chosen functions of each ocmirror module (one module is
one layer) from the outside, so the program itself is unchanged.  Every call
through a wrapper records a span: name, start, end and the span that was open
when it began.  Spans stay in memory and are written out when the run ends.

A span's self time is its duration minus the durations of its child spans
(single thread, so children never overlap) minus the time the recorder spent
on its own counting inside it.  Self times over all spans, plus that counting
time, add up to the duration of the root spans exactly; the run checks this
against an independent clock reading.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from oracles import labeled_graph_count

LAYERS = (
    "series",
    "geometry",
    "closed",
    "localization",
    "correspondence",
    "asymptotics",
    "cli",
)

CountFn = Callable[["Tracer", tuple, object], None]


class Tracer:
    """In-memory spans with parent links, plus work counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.excluded = array("d")  # recorder time spent inside each span
        self._stack: List[int] = []
        self.counts: Dict[str, float] = {}
        self.maxima: Dict[str, int] = {}
        self.bookkeeping_s = 0.0
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------------

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.excluded.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of order")

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def self_times(self) -> List[float]:
        return self_times(self.parent, self.start, self.end, self.excluded)

    def summary(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (calls, self seconds, inclusive seconds).

        Inclusive time counts only outermost spans of a name, so a name that
        nests inside itself is not counted twice.
        """
        own = self.self_times()
        out: Dict[str, List[float]] = {n: [0, 0.0, 0.0] for n in self.names}
        for i, nid in enumerate(self.name):
            row = out[self.names[nid]]
            row[0] += 1
            row[1] += own[i]
            p = self.parent[i]
            while p >= 0 and self.name[p] != nid:
                p = self.parent[p]
            if p < 0:
                row[2] += self.end[i] - self.start[i]
        return {n: (int(r[0]), r[1], r[2]) for n, r in out.items()}

    def write(self, path: str) -> None:
        """Write every span as gzipped CSV: id, parent, name, start_s, end_s."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, nid in enumerate(self.name):
                fh.write(
                    f"{i},{self.parent[i]},{self.names[nid]},"
                    f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f}\n"
                )

    # -- counters --------------------------------------------------------------

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key: str, value: int) -> None:
        if value > self.maxima.get(key, 0):
            self.maxima[key] = value

    # -- wrapping the program --------------------------------------------------

    def wrap(self, name: str, fn: Callable, count: Optional[CountFn] = None) -> Callable:
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                t0 = self.clock()
                count(self, args, result)
                dt = self.clock() - t0
                self.bookkeeping_s += dt
                if self._stack:
                    self.excluded[self._stack[-1]] += dt
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        """Replace every target with a recording wrapper, wherever it is bound.

        A target the program no longer has is skipped; its metrics read 0.
        """
        for mod in LAYERS:
            importlib.import_module(f"ocmirror.{mod}")
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("ocmirror.")]
        for name, modname, attr, count in TARGETS:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                if cls is not None and meth in cls.__dict__:
                    self._patch(cls, meth, self.wrap(name, cls.__dict__[meth], count))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapper = self.wrap(name, orig, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, old = self._patches.pop()
            setattr(owner, key, old)

    def _patch(self, owner: object, key: str, new: object) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)


def self_times(
    parent: Sequence[int],
    start: Sequence[float],
    end: Sequence[float],
    excluded: Optional[Sequence[float]] = None,
) -> List[float]:
    """Duration of each span minus its children's durations and ``excluded``."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    if excluded is not None:
        for i, x in enumerate(excluded):
            own[i] -= x
    return own


# ---------------------------------------------------------------------------
# what is wrapped, and the work counted at each boundary
# ---------------------------------------------------------------------------


def _count_construct(t: Tracer, args: tuple, result: object) -> None:
    t.peak("series.max_terms", len(args[0]))


def _count_mul(t: Tracer, args: tuple, result: object) -> None:
    t.add("series.mul.pairs", len(args[0]) * len(args[1]))
    t.add("series.mul.out", len(result))  # type: ignore[arg-type]


def _count_den_bits(t: Tracer, args: tuple, result: object) -> None:
    dens = (c.denominator for _, c in result.items())  # type: ignore[attr-defined]
    bits = max((d.bit_length() for d in dens), default=0)
    t.peak("series.max_den_bits", bits)


def _count_z_coeff(t: Tracer, args: tuple, result: object) -> None:
    t.add("closed.z_coeff.terms_in", len(args[0]))


def _count_enumerate(t: Tracer, args: tuple, result: object) -> None:
    n, d = args[0], args[1]
    t.add("localization.enumerate.classes", len(result))  # type: ignore[arg-type]
    t.add(
        "localization.enumerate.labeled",
        sum(labeled_graph_count(n, d, V) for V in range(2, d + 2)),
    )


# (span name, module, attribute, counter)
TARGETS: Tuple[Tuple[str, str, str, Optional[CountFn]], ...] = (
    ("series.construct", "ocmirror.series", "FormalSeries.__init__", _count_construct),
    ("series.add", "ocmirror.series", "FormalSeries.__add__", None),
    ("series.neg", "ocmirror.series", "FormalSeries.__neg__", None),
    ("series.mul", "ocmirror.series", "FormalSeries.__mul__", _count_mul),
    ("series.scale", "ocmirror.series", "FormalSeries.scale", None),
    ("series.truncate", "ocmirror.series", "FormalSeries.truncate", None),
    ("series.exp", "ocmirror.series", "series_exp", _count_den_bits),
    ("series.substitute", "ocmirror.series", "substitute", _count_den_bits),
    ("series.expand_factor", "ocmirror.series", "expand_factor", None),
    ("geometry.pairing", "ocmirror.geometry", "distinguished_pairing_prefactor", None),
    ("closed.bessel", "ocmirror.closed", "bessel_first_kind", None),
    ("closed.surface_terms", "ocmirror.closed", "surface_series_terms", None),
    ("closed.z_coeff", "ocmirror.closed", "z_coeff", _count_z_coeff),
    (
        "localization.enumerate",
        "ocmirror.localization",
        "enumerate_graph_classes",
        _count_enumerate,
    ),
    ("localization.count_labeled", "ocmirror.localization", "count_labeled_graphs", None),
    ("localization.aut", "ocmirror.localization", "automorphism_count", None),
    ("localization.contribution", "ocmirror.localization", "_graph_contribution", None),
    ("localization.vertex_integral", "ocmirror.localization", "vertex_integral", None),
    ("localization.psi_integral", "ocmirror.localization", "psi_integral", None),
    ("localization.edge_factor", "ocmirror.localization", "edge_factor", None),
    ("localization.open_invariant", "ocmirror.localization", "open_invariant", None),
    ("localization.class_rows", "ocmirror.localization", "graph_class_rows", None),
    ("correspondence.lhs", "ocmirror.correspondence", "disk_potential_bessel", _count_den_bits),
    ("correspondence.localized", "ocmirror.correspondence", "disk_potential_localized", None),
    ("correspondence.rhs", "ocmirror.correspondence", "rhs_assemble", _count_den_bits),
    ("correspondence.diff", "ocmirror.correspondence", "run_check", None),
    ("asymptotics.eval_I2", "ocmirror.asymptotics", "eval_I2", None),
    ("asymptotics.eval_phi_k", "ocmirror.asymptotics", "eval_phi_k", None),
    ("asymptotics.ratio_table", "ocmirror.asymptotics", "ratio_table", None),
    ("cli", "ocmirror.cli", "main", None),
)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced run
# ---------------------------------------------------------------------------

# (metric, unit, how): how is (kind, key...) with kind one of
#   calls / self / total  -- span name, per traced pass
#   layer                 -- self time of every span of a layer, per pass
#   count                 -- work counter, per pass
#   max                   -- largest value seen
#   ratio                 -- counter / counter
PER_LAYER: Tuple[Tuple[str, str, tuple], ...] = (
    ("series.construct.calls", "count", ("calls", "series.construct")),
    ("series.construct.self_s", "s", ("self", "series.construct")),
    ("series.mul.calls", "count", ("calls", "series.mul")),
    ("series.mul.self_s", "s", ("self", "series.mul")),
    ("series.mul.yield", "ratio", ("ratio", "series.mul.out", "series.mul.pairs")),
    ("series.add.self_s", "s", ("self", "series.add")),
    ("series.exp.self_s", "s", ("self", "series.exp")),
    ("series.substitute.self_s", "s", ("self", "series.substitute")),
    ("series.max_terms", "count", ("max", "series.max_terms")),
    ("series.max_den_bits", "bits", ("max", "series.max_den_bits")),
    ("series.self_s", "s", ("layer", "series")),
    ("closed.bessel.self_s", "s", ("self", "closed.bessel")),
    ("closed.surface_terms.self_s", "s", ("self", "closed.surface_terms")),
    ("closed.z_coeff.self_s", "s", ("self", "closed.z_coeff")),
    ("closed.z_coeff.terms_in", "count", ("count", "closed.z_coeff.terms_in")),
    ("closed.self_s", "s", ("layer", "closed")),
    ("geometry.pairing.calls", "count", ("calls", "geometry.pairing")),
    ("geometry.pairing.self_s", "s", ("self", "geometry.pairing")),
    ("geometry.self_s", "s", ("layer", "geometry")),
    ("correspondence.lhs_s", "s", ("total", "correspondence.lhs")),
    ("correspondence.rhs_s", "s", ("total", "correspondence.rhs")),
    ("correspondence.diff.self_s", "s", ("self", "correspondence.diff")),
    ("correspondence.self_s", "s", ("layer", "correspondence")),
    ("localization.enumerate.self_s", "s", ("self", "localization.enumerate")),
    ("localization.enumerate.classes", "count", ("count", "localization.enumerate.classes")),
    (
        "localization.enumerate.yield",
        "ratio",
        ("ratio", "localization.enumerate.classes", "localization.enumerate.labeled"),
    ),
    ("localization.aut.calls", "count", ("calls", "localization.aut")),
    ("localization.aut.self_s", "s", ("self", "localization.aut")),
    ("localization.vertex_integral.self_s", "s", ("self", "localization.vertex_integral")),
    ("localization.psi_integral.calls", "count", ("calls", "localization.psi_integral")),
    ("localization.self_s", "s", ("layer", "localization")),
    ("asymptotics.eval_I2.calls", "count", ("calls", "asymptotics.eval_I2")),
    ("asymptotics.eval_I2.self_s", "s", ("self", "asymptotics.eval_I2")),
    ("asymptotics.eval_phi_k.calls", "count", ("calls", "asymptotics.eval_phi_k")),
    ("asymptotics.eval_phi_k.self_s", "s", ("self", "asymptotics.eval_phi_k")),
    ("asymptotics.self_s", "s", ("layer", "asymptotics")),
    ("cli.self_s", "s", ("self", "cli")),
    ("cli.output_bytes", "bytes", ("count", "cli.output_bytes")),
    ("bench.self_s", "s", ("layer", "bench")),
)


def layer_metrics(tracer: Tracer, passes: int) -> Dict[str, float]:
    """Every PER_LAYER metric of a tracer that recorded ``passes`` passes."""
    summary = tracer.summary()
    by_layer: Dict[str, float] = {}
    for name, (_, own, _) in summary.items():
        layer = name.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + own
    out: Dict[str, float] = {}
    for metric, _, how in PER_LAYER:
        kind = how[0]
        if kind in ("calls", "self", "total"):
            calls, own, total = summary.get(how[1], (0, 0.0, 0.0))
            value = {"calls": calls, "self": own, "total": total}[kind] / passes
        elif kind == "layer":
            value = by_layer.get(how[1], 0.0) / passes
        elif kind == "count":
            value = tracer.counts.get(how[1], 0) / passes
        elif kind == "max":
            value = tracer.maxima.get(how[1], 0)
        else:
            den = tracer.counts.get(how[2], 0)
            value = tracer.counts.get(how[1], 0) / den if den else 0.0
        out[metric] = value
    return out
