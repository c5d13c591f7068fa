"""Tests of the benchmark's own helpers, plus a short run of each workload.

Stdlib only, so both interpreters can run them from the repository root:

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from ocmirror import cli, localization  # noqa: E402
from ocmirror.asymptotics import NumericParams, asym_ratio  # noqa: E402
from ocmirror.correspondence import disk_potential_bessel  # noqa: E402
from ocmirror.series import FormalSeries, Monomial, TruncationWindow  # noqa: E402
from workloads import call_cli, window_flags  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(range(1, 101)), (90, 90, 10))
        self.assertEqual(run.tail_percentile(range(1, 1001)), (99, 990, 10))
        self.assertEqual(run.tail_percentile(range(1, 2001)), (99.5, 1990, 10))

    def test_one_short_of_ten_beyond_drops_to_the_next_percentile(self):
        self.assertEqual(run.tail_percentile(range(1, 100))[0], 75)
        self.assertEqual(run.tail_percentile(range(1, 21)), (50, 10, 10))
        self.assertIsNone(run.tail_percentile(range(1, 20)))

    def test_order_of_samples_does_not_matter(self):
        xs = [(7 * i) % 101 for i in range(101)]
        self.assertEqual(run.tail_percentile(xs), run.tail_percentile(sorted(xs)))


class OpCostTest(unittest.TestCase):
    def test_median_cost_per_operation_over_ragged_passes(self):
        def op(seconds, ref):
            return run.OpRecord("k", seconds, True, None, 0, 0, ref=ref)

        passes = [
            run.PassRecord([op(2.0, 1.0), op(9.0, 3.0)]),
            run.PassRecord([op(6.0, 2.0), op(4.0, 2.0)]),
            run.PassRecord([op(5.0, 1.0)]),
        ]
        self.assertEqual(run.op_costs(passes), [3.0, 2.5])
        self.assertEqual(run.best_times(passes), [2.0, 4.0])

    def test_reference_work_is_fixed(self):
        self.assertEqual(run.reference_work(), run.reference_work())


class FailureCountTest(unittest.TestCase):
    @staticmethod
    def op(kind, error=None, exact=True):
        return run.OpRecord(kind, 1.0, exact, error, 0, 0)

    def test_failures_count_distinct_operations_not_runs(self):
        row = [self.op("a"), self.op("b", "off", exact=False), self.op("c")]
        one = run.failure_lines([run.PassRecord(row)])
        three = run.failure_lines([run.PassRecord(row)] * 2 + [run.PassRecord(row[:2])])
        self.assertEqual(one[:3], (3, 1, True))
        self.assertEqual(three[:3], (3, 1, True))

    def test_a_wrong_exact_output_in_any_pass_clears_correct(self):
        passes = [
            run.PassRecord([self.op("a"), self.op("b")]),
            run.PassRecord([self.op("a"), self.op("b", "wrong")]),
        ]
        self.assertEqual(run.failure_lines(passes)[:3], (2, 1, False))


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_from_their_parent_only(self):
        # mul [0, 10] holds init [1, 3] and init [4, 5]; init [4, 5] holds [4.2, 4.6]
        parent = [-1, 0, 0, 2]
        start = [0.0, 1.0, 4.0, 4.2]
        end = [10.0, 3.0, 5.0, 4.6]
        own = spans.self_times(parent, start, end)
        for got, want in zip(own, [7.0, 2.0, 0.6, 0.4]):
            self.assertAlmostEqual(got, want)

    def test_init_inside_mul_via_spans(self):
        tracer = spans.Tracer(clock=FakeClock([0.0, 2.0, 5.0, 6.0, 6.5, 9.0]))
        with tracer.span("series.mul"):
            with tracer.span("series.construct"):
                pass
            with tracer.span("series.construct"):
                pass
        summary = tracer.summary()
        self.assertEqual(summary["series.mul"], (1, 5.5, 9.0))
        self.assertEqual(summary["series.construct"], (2, 3.5, 3.5))

    def test_a_name_nested_in_itself_counts_its_outer_span_once(self):
        tracer = spans.Tracer(clock=FakeClock([0.0, 1.0, 3.0, 4.0]))
        with tracer.span("a"):
            with tracer.span("a"):
                pass
        self.assertEqual(tracer.summary()["a"], (2, 4.0, 4.0))

    def test_wrapped_kernel_records_nested_spans_and_restores_originals(self):
        window = TruncationWindow(6, 2, 2, -6)
        a = FormalSeries({Monomial(Q=1): 1, Monomial(T=1): 2}, window)
        b = FormalSeries({Monomial(Q=2, V=-1): Fraction(1, 3)}, window)
        original = FormalSeries.__mul__
        tracer = spans.Tracer()
        tracer.install()
        try:
            with tracer.span("bench.pass"):
                product = a * b
        finally:
            tracer.uninstall()
        self.assertIs(FormalSeries.__mul__, original)
        self.assertEqual(product, original(a, b))
        names = [tracer.names[i] for i in tracer.name]
        mul = names.index("series.mul")
        construct = names.index("series.construct", mul)
        self.assertEqual(tracer.parent[construct], mul)
        own = tracer.self_times()
        inner = tracer.end[construct] - tracer.start[construct]
        self.assertAlmostEqual(
            own[mul], tracer.end[mul] - tracer.start[mul] - inner - tracer.excluded[mul]
        )
        root = tracer.end[0] - tracer.start[0]
        self.assertAlmostEqual(sum(own) + tracer.bookkeeping_s, root)
        self.assertEqual(tracer.counts["series.mul.pairs"], 2)
        self.assertEqual(tracer.counts["series.mul.out"], len(product))

    def test_cli_calls_are_traced_through_every_module_binding(self):
        tracer = spans.Tracer()
        tracer.install()
        try:
            with tracer.span("bench.pass"):
                call_cli(["localize", "--degree", "2", "--markings", "1"])
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        self.assertEqual(summary["cli"][0], 1)
        self.assertEqual(summary["localization.class_rows"][0], 1)
        self.assertEqual(summary["localization.enumerate"][0], 1)
        # once per class for the row, once inside its contribution
        self.assertEqual(summary["localization.aut"][0], 12)
        self.assertIs(cli.graph_class_rows, localization.graph_class_rows)
        metrics = spans.layer_metrics(tracer, passes=1)
        self.assertEqual(metrics["localization.enumerate.classes"], 6)
        labeled = sum(oracles.labeled_graph_count(1, 2, V) for V in (2, 3))
        self.assertAlmostEqual(metrics["localization.enumerate.yield"], 6 / labeled)


class AsymptoticReferenceTest(unittest.TestCase):
    reference = oracles.AsymptoticReference()

    def test_matches_high_precision_values(self):
        # true ratio - 1 from a 60-digit evaluation of the direct sums
        for N, l, want in ((2, 100000, 4.25e-6), (3, 100000, -1.18e-5), (5, 10000, 1.57e-4)):
            got = self.reference.ratio_minus_one(N, l)
            self.assertTrue(oracles.agrees_to_three_digits(want, got), (N, l, float(got)))

    def test_agrees_with_the_float_module_where_it_is_stable(self):
        for l in (100, 200, 1000):
            got = asym_ratio(NumericParams(), 1, l) - 1.0
            exact = self.reference.ratio_minus_one(1, l)
            self.assertLess(abs(Fraction(got) - exact), Fraction(1, 10**8) * abs(exact))

    def test_flags_the_known_wrong_sign(self):
        got = asym_ratio(NumericParams(), 2, 100000) - 1.0
        exact = self.reference.ratio_minus_one(2, 100000)
        self.assertFalse(oracles.agrees_to_three_digits(got, exact))

    def test_truncation_is_far_below_the_checked_digits(self):
        wider = oracles.AsymptoticReference(mu_max=40, d_max=20)
        for N, l in ((0, 100), (5, 100000)):
            a, b = self.reference.ratio_minus_one(N, l), wider.ratio_minus_one(N, l)
            self.assertLess(abs(a - b), Fraction(1, 10**20) * abs(b))

    def test_three_digit_rule(self):
        self.assertTrue(oracles.agrees_to_three_digits(1.004e-5, Fraction(1, 10**5)))
        self.assertFalse(oracles.agrees_to_three_digits(1.006e-5, Fraction(1, 10**5)))
        self.assertFalse(oracles.agrees_to_three_digits(-1e-5, Fraction(1, 10**5)))


class OracleTest(unittest.TestCase):
    def test_disk_closed_form_matches_the_program(self):
        for window in ((6, 3, 3, -7, 1), (5, 2, 2, -5, -1), (4, 4, 1, -9, 0)):
            series = disk_potential_bessel(TruncationWindow(*window))
            want = {
                Monomial(Q=q, T=t, X=mu, V=v): oracles.disk_coefficient(*mlm)
                for (mu, q, t, v), mlm in oracles.disk_monomials(window).items()
            }
            self.assertEqual(dict(series.items()), want)

    def test_disk_table_verifier_rejects_a_changed_value(self):
        window = (4, 2, 2, -6, 1)
        code, text = call_cli(["disk", *window_flags(window)])
        rows = oracles.parse_table(text, "csv", oracles.F_COLUMNS)
        self.assertEqual(code, 0)
        self.assertIsNone(oracles.check_disk_table(rows, window))
        rows[3][4] = "7/1"
        self.assertIn("value", oracles.check_disk_table(rows, window))
        self.assertIn("row set", oracles.check_disk_table(rows[1:], window))

    def test_corrupt_check_diff(self):
        for window in ((3, 3, 1, -3, 1), (1, 3, 1, -3, 1), (3, 1, 1, -3, 1), (3, 3, 1, 0, 1)):
            q, t, mu, v, _ = window
            code, text = call_cli(["check", "--corrupt-exc", "--max-q", str(q), "--max-t", str(t),
                                   "--max-mu", str(mu), "--min-v", str(v)])
            diff = oracles.corrupt_check_diff(window)
            self.assertEqual(json.loads(text)["diff"], diff)
            self.assertEqual(code, 1 if diff else 0)

    def test_labeled_counts_match_the_program(self):
        for n, d in ((0, 4), (2, 3), (1, 5)):
            for V in range(2, d + 2):
                self.assertEqual(
                    oracles.labeled_graph_count(n, d, V), localization.count_labeled_graphs(n, d, V)
                )


class BenchmarkSpecTest(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END))
        layer = [(m, u) for m, u, _ in spans.PER_LAYER]
        layer += [("trace.wall_s", "s"), ("trace.overhead_s", "s")]
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]], layer)


def bench(*args, cwd=ROOT, timeout=300):
    env = dict(os.environ, OC_MIRROR_THREADS="4")
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        capture_output=True, text=True, timeout=timeout, cwd=cwd, env=env,
    )


class SmokeTest(unittest.TestCase):
    """One short run per workload: exits 0, verifies every operation, and
    prints every metric BENCHMARK.json names."""

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def check_run(self, workload, trace):
        proc = bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        self.assertIn('"OC_MIRROR_THREADS": "unset"', lines[1])
        self.assertIn('"OC_MIRROR_THREADS_in_caller": "4"', lines[1])
        result = json.loads(lines[-1])
        self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], proc.stdout)
        self.assertGreaterEqual(result["attempted"], 1)
        kind = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in self.spec[kind]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, want)
        return result

    def test_check_large(self):
        result = self.check_run("check-large", 0)
        self.assertEqual(result["failed"], 0)

    def test_graph_sums(self):
        result = self.check_run("graph-sums", 0)
        self.assertEqual(result["failed"], 0)

    def test_cli_mix(self):
        self.check_run("cli-mix", 0)

    def test_cli_mix_traced(self):
        metrics = self.check_run("cli-mix", 1)["metrics"]
        self.assertGreater(metrics["asymptotics.eval_I2.calls"]["value"], 0)
        self.assertGreater(metrics["cli.output_bytes"]["value"], 0)

    def test_refuses_to_run_without_the_program(self):
        bare = os.path.join(BENCH_DIR, "out", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(os.path.join(bare, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for name in os.listdir(BENCH_DIR):
            if name.endswith((".py", ".json")):
                shutil.copy(os.path.join(BENCH_DIR, name), os.path.join(bare, "perfbench"))
        try:
            proc = bench(
                "--workload", "cli-mix", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=bare, timeout=60,
            )
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
