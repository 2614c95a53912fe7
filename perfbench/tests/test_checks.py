"""Self-test of the benchmark: every output check accepts a right answer
and rejects a planted wrong one.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import program  # noqa: E402

vg = program.load()

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _chain(n: int):
    g = vg.gen_venn3()
    for _ in range(n - 3):
        g = vg.winkler_extend(g)
    return g


class ExtensionCheck(unittest.TestCase):
    def setUp(self):
        self.venn4 = vg.write_arr(_chain(4))

    def test_accepts_real_output(self):
        self.assertIsNone(checks.check_extension(self.venn4, 3))

    def test_rejects_non_venn_output(self):
        # 14 crossings like a 4-Venn diagram, but two curves weaving
        weave = vg.write_arr(vg.gen_weave(7))
        self.assertIn("not a simple 4-Venn", checks.check_extension(weave, 3))

    def test_rejects_diagram_with_wrong_curve_count(self):
        self.assertIsNotNone(checks.check_extension(self.venn4, 4))

    def test_rejects_non_canonical_text(self):
        self.assertIsNotNone(checks.check_extension("# comment\n" + self.venn4, 3))


class HamiltonCheck(unittest.TestCase):
    def setUp(self):
        self.g = _chain(4)
        self.order = list(vg.find_hamilton(self.g).order)

    def _stdout(self, order):
        return "cycle: " + " ".join(map(str, order)) + "\n"

    def test_accepts_real_cycle(self):
        self.assertIsNone(checks.check_cli_hamilton(0, self._stdout(self.order), self.g))

    def test_rejects_repeated_vertex(self):
        bad = list(self.order)
        bad[1] = bad[0]
        self.assertIsNotNone(checks.check_cli_hamilton(0, self._stdout(bad), self.g))

    def test_rejects_bad_exit_code(self):
        self.assertIsNotNone(checks.check_cli_hamilton(2, self._stdout(self.order), self.g))


class SvgCheck(unittest.TestCase):
    def setUp(self):
        self.g = _chain(4)
        self.svg = vg.render_svg(self.g, labels=True)

    def test_accepts_real_svg(self):
        self.assertIsNone(checks.check_svg(self.svg, self.g, 4))

    def test_rejects_missing_path(self):
        lines = self.svg.splitlines(keepends=True)
        first = next(i for i, x in enumerate(lines) if x.startswith("<path "))
        planted = "".join(lines[:first] + lines[first + 1:])
        self.assertIn("<path> elements", checks.check_svg(planted, self.g, 4))

    def test_rejects_missing_label(self):
        lines = self.svg.splitlines(keepends=True)
        kept = [x for x in lines if 'class="region-label"' not in x or ">0000<" not in x]
        self.assertIn("region labels", checks.check_svg("".join(kept), self.g, 4))

    def test_rejects_malformed_xml(self):
        self.assertIn("not XML", checks.check_svg(self.svg[:-8], self.g, 4))


class RejectionCheck(unittest.TestCase):
    def test_rejects_corrupted_text_that_parses(self):
        text = vg.write_arr(_chain(4))
        # swap two whole rotation lines' ids: still a valid arrangement
        lines = text.splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        planted = "\n".join(lines) + "\n"
        vg.parse_arr(planted)  # the planted corruption really parses
        w = workloads.RandomArrangements()
        w.inputs = [workloads.Input("corrupt", 0, planted, False, None,
                                    ("ArrSyntaxError", len(lines)))]
        ops = w.run_pass(spans.NullTracer())
        self.assertEqual([(op.kind, op.outcome) for op in ops], [("parse", "fail")])
        self.assertIn("corrupted text parsed", ops[0].note)

    def test_rejects_wrong_line_or_class(self):
        exc = vg.ArrSemanticError(3, "twin mismatch")
        self.assertIsNone(checks.check_rejected(exc, "ArrSemanticError", 3))
        self.assertIsNotNone(checks.check_rejected(exc, "ArrSemanticError", 4))
        self.assertIsNotNone(checks.check_rejected(exc, "ArrSyntaxError", 3))

    def test_predicted_lines_match_the_parser(self):
        w = workloads.RandomArrangements()
        w.CIRCLE_FAMILIES, w.ROTATION_MAPS, w.CORRUPTED = 20, 20, 200
        w.setup(7, spans.NullTracer())
        corrupt = [inp for inp in w.inputs if inp.want is not None]
        self.assertEqual(len(corrupt), 200)
        for inp in corrupt:
            try:
                vg.parse_arr(inp.text)
                exc = None
            except checks.ARR_ERRORS as caught:
                exc = caught
            self.assertIsNone(checks.check_rejected(exc, *inp.want))


class ValidateCheck(unittest.TestCase):
    def setUp(self):
        self.g = _chain(4)
        self.report = vg.validate(self.g)

    def test_accepts_real_report(self):
        self.assertTrue(self.report.is_vgraph)
        self.assertIsNone(checks.check_validate_report(self.report, 0, True))

    def test_rejects_vgraph_reported_as_not_one(self):
        planted = dataclasses.replace(self.report, is_vgraph=False)
        self.assertIn("V-graph verdict", checks.check_validate_report(planted, 0, True))

    def test_rejects_non_vgraph_reported_as_one(self):
        planted = dataclasses.replace(self.report, curve_count=2)
        self.assertIn("V-graph verdict", checks.check_validate_report(planted, 0, True))


class CliOutputChecks(unittest.TestCase):
    def setUp(self):
        self.g = _chain(4)
        self.pairs = checks.unique_pairs(self.g)

    def _certify_stdout(self, pairs: int, paths_each: int = 4) -> str:
        out = ["k: 4", f"pairs: {pairs}", "fallbacks: 0", "certified: yes"]
        for i in range(pairs):
            out.append(f"pair 0 {i} via 1")
            out.extend(["path: 0 1"] * paths_each)
        return "\n".join(out) + "\n"

    def test_certify(self):
        self.assertIsNone(checks.check_cli_certify(0, self._certify_stdout(self.pairs), self.g))
        self.assertIsNotNone(
            checks.check_cli_certify(0, self._certify_stdout(self.pairs - 1), self.g))
        self.assertIsNotNone(
            checks.check_cli_certify(0, self._certify_stdout(self.pairs, 3), self.g))

    def test_connectivity(self):
        self.assertIsNone(checks.check_cli_connectivity(0, "connectivity: 4\n"))
        self.assertIsNotNone(checks.check_cli_connectivity(1, "connectivity: 3\ncut: 1 2 3\n"))

    def test_uncertified_vgraph_is_rejected(self):
        cx = vg.Counterexample(0, 5, 3, None)
        result = vg.Distance2Certification(4, self.pairs, (), 0, cx)
        self.assertIn("V-graph", checks.check_certification(result, None, self.g, True))

    def test_cut_that_does_not_separate_is_rejected(self):
        # the diagram is 4-connected, so no three vertices separate a pair
        u, _, v = self.g.distance2_pairs()[0]
        cut = frozenset([x for x in range(self.g.vertex_count) if x not in (u, v)][:3])
        cx = vg.Counterexample(u, v, 3, vg.CutCertificate(cut, (frozenset(), frozenset())))
        result = vg.Distance2Certification(4, self.pairs, (), 0, cx)
        self.assertIn("does not separate", checks.check_certification(result, None, self.g, False))


class Workloads(unittest.TestCase):
    def test_inputs_follow_the_seed(self):
        def texts(seed):
            w = workloads.RandomArrangements()
            w.CIRCLE_FAMILIES, w.ROTATION_MAPS, w.CORRUPTED = 10, 10, 10
            w.setup(seed, spans.NullTracer())
            return [inp.text for inp in w.inputs]

        self.assertEqual(texts(3), texts(3))
        self.assertNotEqual(texts(3), texts(4))

    def test_max_curves(self):
        op = workloads.OpResult
        tally = run.Tally()
        tally.add([op("a", 5, 0.1, "ok"), op("b", 6, 0.1, "ok"), op("c", 7, 0.1, "gap"),
                   op("d", 8, 0.1, "ok"), op("e", 0, 0.1, "fail")])
        self.assertEqual(tally.max_curves(), 6)
        self.assertEqual(tally.counts, {"ok": 3, "gap": 1, "fail": 1})
        tally = run.Tally()
        tally.add([op("a", 4, 0.1, "fail")])
        self.assertEqual(tally.max_curves(), 3)

    def test_pass_counts_are_fixed(self):
        counts = {name: run.pass_count(run.run_seconds(), w.PASS_SECONDS, w.CYCLE)
                  for name, w in workloads.WORKLOADS.items()}
        self.assertEqual(counts, {"extend_chain": 2, "certify_render": 2,
                                  "random_arrangements": 7})
        self.assertEqual(run.pass_count(1, 19.0), 1)
        self.assertEqual(run.pass_count(1, 3.75, 7), 7)

    def test_a_cycle_certifies_every_connected_input_once(self):
        w = workloads.RandomArrangements()
        w.CIRCLE_FAMILIES, w.ROTATION_MAPS, w.CORRUPTED = 30, 30, 0
        w.setup(5, spans.NullTracer())
        certified = [sum(op.kind == "certify" for op in w.run_pass(spans.NullTracer(), i))
                     for i in range(w.CYCLE)]
        self.assertEqual(sum(certified), sum(inp.connected for inp in w.inputs))
        self.assertTrue(all(certified))

    def test_latency_percentiles_pool_a_cycle(self):
        op = workloads.OpResult
        tally = run.Tally(cycle=2)
        tally.add([op("a", 0, 0.001 * i, "ok") for i in range(1, 101)])
        self.assertEqual(tally.p99s, [])
        tally.add([op("a", 0, 1.0, "ok") for _ in range(100)])
        self.assertEqual(tally.timed, 200)
        self.assertEqual(tally.p99s, [1.0])

    def test_fixed_inputs_match_manifest(self):
        w = workloads.CertifyRender()
        w.setup(0, spans.NullTracer())
        self.assertEqual([n for n, _, _ in w.inputs], [5, 6, 7, 8])


class BenchmarkJson(unittest.TestCase):
    """BENCHMARK.json names exactly the metrics the runner prints."""

    def test_metric_names_and_units(self):
        spec = json.loads((program.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(e2e, run.END_TO_END_UNITS)
        names = set(spans.layer_metrics(spans.Tracer(), 1)) | {
            "generators.from_circles_s", "trace.wall_s", "trace.overhead_ratio"}
        layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(set(layer), names)
        for name, unit in layer.items():
            self.assertEqual(unit, run.per_layer_unit(name), name)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOAD_NAMES))


if __name__ == "__main__":
    unittest.main()
