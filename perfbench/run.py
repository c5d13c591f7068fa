"""ocmirror benchmark: closed-loop workloads, verified outputs, layer traces.

Run from the repository root:

    python3 perfbench/run.py --workload check-large --seed 1 --seconds 38 --trace 0

One caller in one thread sends the next operation only after the previous
one has returned and been verified (a closed loop).  The seed gives one list
of operations, and the run replays it in passes for ``--seconds``.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports per-layer metrics and the
tracing overhead, and writes every span to ``perfbench/out/``.  The last line
of stdout is one JSON object; the lines before it are a readable report that
also records the machine.

Shared hosts switch between fast and slow phases; a slow phase can make
the same Python code 1.7 times slower for a minute and more, so seconds
measured in one run are not comparable with seconds measured in the next.
The tracked time metrics are therefore in reference units: between every
two operations the run times ``reference_work``, a fixed stdlib-only
computation, and an operation's cost is its time divided by the mean of
the reference times on either side of it.  ``wall_ref`` sums, over the
operations of one pass, each one's median cost over the passes.
``setup_s`` must be in seconds: each fresh-process set-up is measured in
reference units the same way (reference timed in that process before and
after) and converted at 1 ms per reference.  The report also prints the
times as measured in seconds, the median reference time, and the latency
median and tail.

Workloads and the reason for each are in ``BENCHMARK.json``.  The program is
imported from ``src/`` of the checkout, with ``OC_MIRROR_THREADS`` removed
from the environment so its thread-pool path stays off.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 7
REF_NOMINAL_S = 1e-3  # setup_s is given at a speed where reference_work takes 1 ms
END_TO_END = (
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("terms_per_ref", "1/ref"),
    ("peak_rss_mb", "MB"),
)
TAIL_LADDER = (50, 75, 90, 95, 97.5, 99, 99.5, 99.9, 99.95, 99.99)
MIN_BEYOND = 10
ACCOUNTING_TOLERANCE = 0.01

clock = time.perf_counter


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """Highest ladder percentile with at least ten samples beyond it.

    Returns (percentile, value, samples beyond) using nearest-rank
    percentiles, or None when even the median has fewer than ten samples
    beyond it.
    """
    xs = sorted(samples)
    best = None
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * len(xs))
        if rank >= 1 and len(xs) - rank >= MIN_BEYOND:
            best = (p, xs[rank - 1], len(xs) - rank)
    return best


# ---------------------------------------------------------------------------
# running passes
# ---------------------------------------------------------------------------


@dataclass
class OpRecord:
    kind: str
    seconds: float
    exact: bool
    error: Optional[str]
    terms: int
    classes: int
    crashed: bool = False
    ref: float = 0.0  # mean reference time on either side of the operation


@dataclass
class PassRecord:
    ops: List[OpRecord] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(op.seconds for op in self.ops)


def reference_work() -> Fraction:
    """Fixed stdlib-only work, about a millisecond: the unit of ``wall_ref``.

    Rational additions keyed by small tuples, the same kind of work as the
    program's kernel, so host slow phases slow both alike.
    """
    acc: Dict[Tuple[int, int], Fraction] = {}
    for i in range(1, 41):
        for j in range(1, 8):
            key = (i % 9, j)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(i, i + j)
    return sum(acc.values(), Fraction(0))


def time_reference() -> float:
    started = clock()
    reference_work()
    return clock() - started


def op_costs(passes: Sequence[PassRecord]) -> List[float]:
    """Each operation's median cost, in reference units, over the passes."""
    return [
        statistics.median(p.ops[j].seconds / p.ops[j].ref for p in passes if j < len(p.ops))
        for j in range(len(passes[0].ops))
    ]


def best_times(passes: Sequence[PassRecord]) -> List[float]:
    """Each operation's fastest time over the passes that reached it."""
    return [
        min(p.ops[j].seconds for p in passes if j < len(p.ops))
        for j in range(len(passes[0].ops))
    ]


def verified(passes: Sequence[PassRecord], attr: str) -> float:
    """Median over whole passes of the terms or classes of verified operations."""
    whole = [p for p in passes if len(p.ops) == len(passes[0].ops)]
    return statistics.median(
        sum(getattr(op, attr) for op in p.ops if op.error is None) for p in whole
    )


def run_op(op, tracer=None) -> OpRecord:
    """Run one operation, timing only the program call, then verify it."""
    from workloads import Verdict

    span = tracer.open("bench.op") if tracer else None
    started = clock()
    try:
        out, crash = op.run(), None
    except Exception:  # a crash is a failed operation; keep measuring
        out, crash = None, traceback.format_exc(limit=4)
    seconds = clock() - started
    if tracer:
        tracer.close(span)
    verdict = Verdict()
    if crash is None:
        try:
            verdict = op.verify(out)
        except Exception:  # unreadable output
            crash = traceback.format_exc(limit=4)
    if tracer and verdict.output_bytes:
        tracer.add("cli.output_bytes", verdict.output_bytes)
    return OpRecord(
        op.kind, seconds, op.exact, crash or verdict.error, verdict.terms, verdict.classes,
        crash is not None,
    )


def run_pass(ops, tracer=None) -> PassRecord:
    return PassRecord([run_op(op, tracer) for op in ops])


def measure(
    ops, seconds: float, setup: Callable[[], Dict[str, float]]
) -> Tuple[List[PassRecord], List[Dict[str, float]]]:
    """Replay ``ops`` in passes until ``seconds`` is used up.

    The first pass always completes; after that an operation starts only if
    its previous duration still fits, so the last pass may be partial.  The
    reference work is timed between every two operations, and the
    ``SETUP_SAMPLES`` set-up measurements are spread evenly over the run so
    that they do not all fall into one phase of the host.
    """
    started = clock()
    deadline = started + seconds
    passes: List[PassRecord] = []
    setups: List[Dict[str, float]] = []
    before = time_reference()
    while True:
        record = PassRecord()
        passes.append(record)
        for j, op in enumerate(ops):
            if len(passes) > 1 and clock() + passes[-2].ops[j].seconds > deadline:
                setups += [setup() for _ in range(SETUP_SAMPLES - len(setups))]
                return (passes if record.ops else passes[:-1]), setups
            if len(setups) < min(SETUP_SAMPLES, SETUP_SAMPLES * (clock() - started) / seconds):
                setups.append(setup())
                before = time_reference()
            rec = run_op(op)
            after = time_reference()
            rec.ref = (before + after) / 2
            before = after
            record.ops.append(rec)


def measure_traced(
    ops, seconds: float, tracer
) -> Tuple[List[PassRecord], List[PassRecord], List[float]]:
    """Pairs of (untraced, traced) passes over the operations.

    Returns the untraced passes, the traced passes and, per traced pass, the
    wall-clock time of the whole pass including verification.
    """
    deadline = clock() + seconds
    plain: List[PassRecord] = []
    traced: List[PassRecord] = []
    traced_walls: List[float] = []
    longest = 0.0
    while True:
        started = clock()
        plain.append(run_pass(ops))
        tracer.install()
        try:
            t0 = clock()
            with tracer.span("bench.pass"):
                traced.append(run_pass(ops, tracer))
            traced_walls.append(clock() - t0)
        finally:
            tracer.uninstall()
        longest = max(longest, clock() - started)
        if clock() + longest > deadline:
            return plain, traced, traced_walls


# ---------------------------------------------------------------------------
# set-up time, machine record
# ---------------------------------------------------------------------------


def setup_probe(workload_name: str, seed: int) -> int:
    """In a fresh process: import ocmirror, make the inputs, run one warm-up.

    Prints the time in seconds and in reference units, against the
    reference work timed in this process just before and after.
    """
    before = statistics.median(time_reference() for _ in range(3))
    started = clock()
    import workloads

    workload = workloads.WORKLOADS[workload_name](seed)
    workload.ops()
    workload.warmup()
    seconds = clock() - started
    after = statistics.median(time_reference() for _ in range(3))
    print(json.dumps({"seconds": seconds, "ref": seconds / ((before + after) / 2)}))
    return 0


def measure_setup(workload_name: str, seed: int) -> Dict[str, float]:
    """Set-up time of one fresh process, as that process measured it."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", workload_name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> Optional[str]:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ocmirror")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def machine(caller_threads: Optional[str]) -> Dict[str, object]:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "OC_MIRROR_THREADS": "unset" if "OC_MIRROR_THREADS" not in os.environ else "set",
        "OC_MIRROR_THREADS_in_caller": caller_threads,
    }


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def failure_lines(passes: Sequence[PassRecord]) -> Tuple[int, int, bool, List[str]]:
    """(attempted, failed, correct, report lines) over the distinct operations.

    ``attempted`` is the number of operations in the seeded list.  Each one
    is run and verified on every pass, and counts as failed once if any of
    its runs failed, so both numbers depend on the seed only, not on how
    many passes fit in the time.  ``correct`` is False when an
    exactly-checked output was wrong or any operation crashed;
    floating-point rows outside their tolerance are counted as failed but
    do not clear it.
    """
    by_kind: Dict[str, List[int]] = {}
    first_errors: Dict[str, str] = {}
    correct = True
    runs = failed_runs = 0
    for j in range(len(passes[0].ops)):
        done = [p.ops[j] for p in passes if j < len(p.ops)]
        bad = [op for op in done if op.error is not None]
        runs += len(done)
        failed_runs += len(bad)
        row = by_kind.setdefault(done[0].kind, [0, 0])
        row[0] += 1
        if bad:
            row[1] += 1
            first_errors.setdefault(done[0].kind, bad[0].error.strip().splitlines()[-1])
            if any(op.exact or op.crashed for op in bad):
                correct = False
    attempted = sum(r[0] for r in by_kind.values())
    failed = sum(r[1] for r in by_kind.values())
    lines = [
        f"  failed_share   {failed / attempted:.4f}   ({failed} of {attempted} operations; "
        f"{failed_runs} of {runs} runs over {len(passes)} passes)"
    ]
    for kind, (n, bad) in sorted(by_kind.items()):
        lines.append(f"    {kind:<16} {bad / n:.4f}   ({bad} of {n})")
    for kind, error in sorted(first_errors.items()):
        lines.append(f"    first {kind} failure: {error}")
    return attempted, failed, correct, lines


def end_to_end(
    passes: Sequence[PassRecord], setup: Sequence[Dict[str, float]]
) -> Tuple[Dict[str, float], List[str]]:
    best = best_times(passes)
    wall = sum(best)
    wall_ref = sum(op_costs(passes))
    terms = verified(passes, "terms")
    values = {
        "setup_s": statistics.median(s["ref"] for s in setup) * REF_NOMINAL_S,
        "wall_ref": wall_ref,
        "terms_per_ref": terms / wall_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    classes = verified(passes, "classes") / wall
    ref_ms = statistics.median(op.ref for p in passes for op in p.ops) * 1e3
    timed_setup = statistics.median(s["seconds"] for s in setup)
    samples = [op.seconds for p in passes for op in p.ops]
    whole = [p.wall_s for p in passes if len(p.ops) == len(best)]
    tail = tail_percentile(samples)
    tail_text = (
        f"{tail[1] * 1e3:.4f} ms   (p{tail[0]:g} of every run; {tail[2]} of {len(samples)} beyond)"
        if tail else f"n/a        (only {len(samples)} runs of operations)"
    )
    lines = [
        f"  setup_s        {values['setup_s']:.4f} s    (median of {len(setup)} fresh-process "
        f"set-ups at 1 ms per reference; as timed {timed_setup:.4f} s)",
        f"  wall_ref       {wall_ref:.2f} ref   ({len(best)} operations at their median cost "
        f"over {len(passes)} passes; median reference time {ref_ms:.4f} ms)",
        f"  terms_per_ref  {values['terms_per_ref']:.4f} 1/ref",
        f"  wall_s         {wall:.4f} s    (each operation at its fastest of {len(passes)} "
        f"passes; median whole pass {statistics.median(whole):.4f} s)",
        f"  terms_per_s    {terms / wall:.1f} 1/s",
        "  classes_per_s  " + (f"{classes:.1f} 1/s" if classes else "n/a (no graph classes)"),
        f"  op_p50_ms      {statistics.median(best) * 1e3:.4f} ms   (median of every run: "
        f"{statistics.median(samples) * 1e3:.4f} ms)",
        f"  op_tail_ms     {tail_text}",
        f"  peak_rss_mb    {values['peak_rss_mb']:.1f} MB",
    ]
    return values, lines


def per_layer(
    plain: Sequence[PassRecord], traced: Sequence[PassRecord], walls: Sequence[float], tracer
) -> Tuple[Dict[str, float], Dict[str, str], List[str]]:
    from spans import LAYERS, PER_LAYER, layer_metrics

    values = layer_metrics(tracer, len(traced))
    traced_wall = sum(best_times(traced))
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - sum(best_times(plain))
    units = {m: u for m, u, _ in PER_LAYER}
    units.update({"trace.wall_s": "s", "trace.overhead_s": "s"})

    accounted = sum(tracer.self_times()) + tracer.bookkeeping_s
    gap = abs(sum(walls) - accounted) / sum(walls)
    if gap > ACCOUNTING_TOLERANCE:
        raise RuntimeError(f"self times miss {gap:.2%} of the traced wall time")
    per_pass_wall = sum(walls) / len(walls)
    lines = [
        f"  traced passes {len(traced)}; wall_s untraced {sum(best_times(plain)):.4f} s, "
        f"traced {traced_wall:.4f} s, overhead {values['trace.overhead_s']:+.4f} s",
        f"  self times + recorder time = {accounted:.4f} s of {sum(walls):.4f} s traced wall "
        f"(gap {gap:.2e})",
        "  share of traced wall by layer (self time):",
    ]
    for layer in LAYERS + ("bench",):
        own = values[f"{layer}.self_s"]
        lines.append(f"    {layer:<16} {own:.4f} s  {own / per_pass_wall:7.2%}")
    lines.append(f"    {'recorder':<16} {tracer.bookkeeping_s / len(walls):.4f} s")
    return values, units, lines


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("check-large", "graph-sums", "cli-mix")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    caller_threads = os.environ.pop("OC_MIRROR_THREADS", None)
    if not os.path.isfile(os.path.join(SRC, "ocmirror", "__init__.py")):
        print(f"error: no ocmirror sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    ops = workload.ops()
    workload.warmup()

    print(f"ocmirror benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine " + json.dumps(machine(caller_threads), sort_keys=True))
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        plain, traced, walls = measure_traced(ops, args.seconds, tracer)
        passes = plain + traced
        values, units, lines = per_layer(plain, traced, walls, tracer)
        out_dir = os.path.join(BENCH_DIR, "out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.csv.gz")
        tracer.write(spans_path)
        lines.append(f"  spans: {len(tracer.name)} written to {os.path.relpath(spans_path, ROOT)}")
    else:
        passes, setup = measure(
            ops, args.seconds, lambda: measure_setup(args.workload, args.seed)
        )
        values, lines = end_to_end(passes, setup)
        units = dict(END_TO_END)
    attempted, failed, correct, fail_lines = failure_lines(passes)
    print("\n".join(lines + fail_lines))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
