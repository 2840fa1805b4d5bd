"""Self-tests of the benchmark harness:  python3 bench/selftest.py"""

from __future__ import annotations

import json
import re
import sys
import time
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import known  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Check, Outcome  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def ops(text: str):
    return known.parse_operator(text)


class KnownAnswers(unittest.TestCase):
    def test_word_in_dn_iff_level_reaches_length(self):
        for k in range(1, 4):
            for n in range(1, 5):
                word = tuple((i % 3) + 1 for i in range(k))
                self.assertEqual(known.dn_member([(Fraction(1), word)], n), n >= k)

    def test_combinations(self):
        self.assertTrue(known.dn_member(ops("D1.D2 - D2.D1"), 1))
        self.assertFalse(known.dn_member(ops("D1.D2 + D2.D1"), 1))
        self.assertFalse(known.dn_member(ops("-D3 + 2*D2.D3"), 1))
        self.assertTrue(known.dn_member(ops("-D3 + 2*D2.D3"), 2))
        self.assertIsNone(known.dn_member(ops("D1.D2.D3 - D3.D2.D1"), 1))

    def test_parse_operator(self):
        self.assertEqual(ops("-D1.D3 + 1/2*D2.D2"), [(Fraction(-1), (1, 3)), (Fraction(1, 2), (2, 2))])

    def test_coset_rule(self):
        powers = [[1 if j == i else 0 for j in range(4)] for i in range(4)]
        self.assertFalse(known.coset_related(powers))
        self.assertTrue(known.coset_related([[1, 2], [2, 4]]))

    def test_evaluate_rendered(self):
        values = {"x1": Fraction(2), "D2.D1(x1)": Fraction(-3)}
        got = known.evaluate_rendered("(3/2*x1^2 - D2.D1(x1))/(x1 + 1)", values.__getitem__)
        self.assertEqual(got, Fraction(3))
        self.assertEqual(known.evaluate_rendered("-x1^3 + 4", values.__getitem__), -4)

    def test_leibniz_oracle(self):
        # D1.D2(x^2) = 2*D1(x)*D2(x) + 2*x*D1.D2(x)
        jets = {(1,): Fraction(5), (2,): Fraction(7), (1, 2): Fraction(11)}
        series = [Fraction(9), Fraction(6), Fraction(1)]  # x^2 around x0 = 3
        self.assertEqual(known.operator_value(ops("D1.D2"), series, jets.__getitem__), 2 * 5 * 7 + 2 * 3 * 11)
        line = [Fraction(3), Fraction(1), Fraction(0), Fraction(0)]
        self.assertEqual(known.dn_defect_value(ops("D1"), 1, line, jets.__getitem__), 0)
        self.assertEqual(known.dn_defect_value(ops("D1.D1"), 1, line, {(1,): 5, (1, 1): 1}.__getitem__), 50)

    def test_series_of_ratio(self):
        self.assertEqual(known.series_of_ratio([1], [1, -1], Fraction(0), 3), [1, 1, 1, 1])

    def test_witness_check_catches_a_wrong_value(self):
        witness = {"assignments": [{"var": "x1", "value": "2"}], "value": "5"}
        self.assertIsNone(workloads.check_witness(Outcome("refuted", "x1^2 + 1", witness)))
        witness["value"] = "4"
        self.assertIsNotNone(workloads.check_witness(Outcome("refuted", "x1^2 + 1", witness)))


class SelfTime(unittest.TestCase):
    def test_self_times_and_outside_add_up(self):
        t = tracing.Tracer()
        spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 5.0, 7.0, 0), ("d", 5.5, 6.0, 2), ("e", 11.0, 11.5, -1)]
        for name, start, end, parent in spans:
            t.kind.append(t.name_id(name))
            t.start.append(start)
            t.end.append(end)
            t.parent.append(parent)
            t.check.append(0)
        self.assertEqual(t.self_times(), [5.0, 3.0, 1.5, 0.5, 0.5])
        self.assertEqual(t.top_level_seconds(), 10.5)
        m = t.layer_metrics(wall_s=12.0)
        self.assertEqual(sum(t.self_times()) + m["trace.outside_s"], 12.0)

    def test_install_records_and_uninstall_restores(self):
        from derivcover import cover, dclass, jets
        from derivcover.jets import Operator

        original = jets.apply_operator
        t = tracing.Tracer()
        t.install()
        try:
            self.assertIsNot(dclass.apply_operator, original)
            dclass.is_in_dn(Operator.word((0, 0)), 1)
        finally:
            t.uninstall()
        self.assertIs(dclass.apply_operator, original)
        self.assertIs(cover.apply_operator, original)
        names = {t.names[k] for k in t.kind}
        self.assertTrue({"dclass.is_in_dn", "jets.apply_operator", "jets.context", "dclass.find_witness"} <= names)
        self_t = t.self_times()
        self.assertAlmostEqual(sum(self_t), t.top_level_seconds(), places=9)


class Deadline(unittest.TestCase):
    def test_deadline_fires_and_is_recorded(self):
        def spin() -> Outcome:
            while True:
                pass

        start = time.perf_counter()
        result = harness.run_check(Check("spin", "spin", spin, lambda out: None), 0.05)
        self.assertEqual(result.status, "deadline")
        self.assertGreaterEqual(result.elapsed, 0.05)
        self.assertLess(time.perf_counter() - start, 2.0)

    def test_exception_is_recorded(self):
        def boom() -> Outcome:
            raise RuntimeError("boom")

        result = harness.run_check(Check("boom", "boom", boom, lambda out: None), 1.0)
        self.assertEqual((result.status, result.why), ("error", "RuntimeError: boom"))

    def test_tail_has_ten_beyond(self):
        value, pct = harness.tail([i / 100 for i in range(100)])
        self.assertEqual((value, pct), (0.89, 90.0))

    def test_middle_mean(self):
        self.assertEqual(harness.middle_mean([float(i) for i in range(100)]), 49.5)
        self.assertEqual(harness.middle_mean([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(harness.middle_mean([1.0] * 50 + [2.0] * 50), 1.5)


class Names(unittest.TestCase):
    def test_metric_names_and_benchmark_file(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(per_layer, tracing.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        for name in [n for n, _ in e2e] + [n for n, _, _ in per_layer] + list(workloads.WORKLOADS):
            self.assertIsNotNone(NAME.fullmatch(name), name)
            self.assertLessEqual(len(name), 64)


class Seeds(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            first = [c.label for c in workloads.build(workload, 7)]
            again = [c.label for c in workloads.build(workload, 7)]
            other = [c.label for c in workloads.build(workload, 8)]
            self.assertEqual(first, again)
            self.assertNotEqual(first, other)


if __name__ == "__main__":
    unittest.main()
