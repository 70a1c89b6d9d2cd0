"""Fast self-test of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

Covers the generators (two seeds), the output checks (passing and failing),
hash comparison across passes, and the span self-time arithmetic.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (pins BLAS before numpy loads)
from checks import check_report  # noqa: E402
from egf_lab import cli  # noqa: E402
from tracing import (  # noqa: E402
    LAYER_METRICS,
    Tracer,
    instrument,
    layer_metrics,
    self_times,
)
from workloads import WORKLOADS, Job, make_jobs  # noqa: E402


class TempDir(unittest.TestCase):
    def setUp(self):
        self.tmp = Path(tempfile.mkdtemp(prefix="perfbench-selftest-"))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


class GeneratorTest(TempDir):
    def test_seed_fixes_data_not_structure(self):
        for workload in WORKLOADS:
            a = make_jobs(workload, 1, self.tmp / f"{workload}-a")
            again = make_jobs(workload, 1, self.tmp / f"{workload}-b")
            b = make_jobs(workload, 2, self.tmp / f"{workload}-c")
            self.assertEqual(json.dumps([j.configs for j in a], default=str)
                             .replace(f"{workload}-a", "X"),
                             json.dumps([j.configs for j in again], default=str)
                             .replace(f"{workload}-b", "X"))
            self.assertEqual([j.name for j in a if not j.name.startswith("ricci")],
                             [j.name for j in b if not j.name.startswith("ricci")])
            self.assertNotEqual(json.dumps([j.configs for j in a], default=str),
                                json.dumps([j.configs for j in b], default=str))

    def test_static_mode_table_is_dense(self):
        jobs = make_jobs("static", 3, self.tmp)
        rows = jobs[0].configs[0]["h"]["modes"]
        self.assertEqual(len(rows), 17_969)
        self.assertEqual(len({tuple(r[:3]) for r in rows}), 17_969)
        self.assertTrue((self.tmp / "inputs" / "h_grid_256_0.csv").is_file())


class CheckTest(unittest.TestCase):
    FLOW = {"scenario": "umbilical-flow"}

    def report(self, **results):
        return {"exit_status": 0, "results": results}

    def test_oracle_within_tolerance_passes(self):
        self.assertEqual(check_report(self.FLOW, self.report(oracle_sup_error=1e-3), {}), [])

    def test_failures_are_detected(self):
        bad = [
            (self.FLOW, self.report(oracle_sup_error=0.2), {}),
            (self.FLOW, self.report(oracle_sup_error=None), {}),
            (self.FLOW, self.report(oracle_sup_error=1e-3, oracle_note="crossed"), {}),
            ({"scenario": "cohomology"}, self.report(residual=1e-6), {}),
            ({"scenario": "soliton-check"}, self.report(verdict="not_soliton"),
             {"verdict": "soliton"}),
            ({"scenario": "cohomology"}, {"exit_status": 0, "results": {}},
             {"exit": 4, "worst_mode": [1, -2]}),
            ({"scenario": "cohomology"},
             {"exit_status": 4, "error": "mode u = (2, -3) is resonant"},
             {"exit": 4, "worst_mode": [1, -2]}),
            ({"scenario": "ricci-classify"}, self.report(spectra=[]),
             {"spectrum": {"roots": [1.0, -1.0], "multiplicities": [2, 2]}}),
        ]
        for config, report, expect in bad:
            with self.subTest(report=report, expect=expect):
                self.assertNotEqual(check_report(config, report, expect), [])

    def test_resonance_named_either_sign(self):
        for mode in ("(1, -2)", "(-1, 2)"):
            report = {"exit_status": 4, "error": f"mode u = {mode} is resonant"}
            self.assertEqual(check_report({"scenario": "cohomology"}, report,
                                          {"exit": 4, "worst_mode": [1, -2]}), [])


TINY_JOBS = [
    Job("flow", "run", [{
        "scenario": "umbilical-flow", "n": 2, "functional": {"name": "umbilical_square"},
        "initial": {"kind": "sine", "amplitude": 0.1, "mean": 0.9},
        "numerics": {"grid": 64, "t_end": 0.1}, "output": {"snapshot_stride": 4},
    }]),
    Job("resonant", "run", [{
        "scenario": "cohomology", "v": [1.0, 0.5], "K": 3,
        "h": {"modes": [[1, -2, 1.0, 0.0]]},
    }], {"exit": 4, "worst_mode": [1, -2]}),
    Job("sweep", "sweep", [
        {"scenario": "umbilical-flow", "n": 2, "functional": {"name": "b1"},
         "initial": {"kind": "sine"}, "numerics": {"grid": 32, "t_end": 0.1, "cfl": c}}
        for c in (0.5, 1.0)
    ], {"largest_stable_cfl": 1.0}, axis="cfl"),
]


class PassTest(TempDir):
    def test_passes_check_and_repeat_bytes(self):
        reference: dict = {}
        first = run.run_pass(cli, TINY_JOBS, self.tmp / "p", reference)
        second = run.run_pass(cli, TINY_JOBS, self.tmp / "p", reference)
        self.assertEqual(first.failures + second.failures, [])
        self.assertEqual(len(second.samples), len(TINY_JOBS))

    def test_changed_bytes_are_a_failure(self):
        reference = {0: {"timeseries.csv": "0" * 64}}
        done = run.run_pass(cli, TINY_JOBS[:1], self.tmp / "p", reference)
        self.assertEqual(len(done.failures), 1)
        self.assertIn("differ", done.failures[0])

    def test_traced_pass_counts(self):
        tracer = Tracer()
        restore = instrument(tracer)
        try:
            done = run.run_pass(cli, TINY_JOBS, self.tmp / "p", {}, tracer)
        finally:
            restore()
        self.assertEqual(done.failures, [])
        self.assertFalse(hasattr(cli.write_csv, "__wrapped__"))
        m = layer_metrics(tracer.spans)
        self.assertEqual(set(m), {name for name, _ in LAYER_METRICS})
        self.assertEqual(m["sym_curvature.psi_evals_per_step"], 4.0)
        self.assertEqual(m["flow_engine.validations_per_step"], 1.0)
        self.assertEqual(m["cohomology_solver.errors"], 1)
        self.assertEqual(m["flow_engine.errors"], 0)
        self.assertGreater(m["cli.write_csv.bytes"], 0)
        self.assertGreater(m["flow_engine.step_umbilical.calls"], 0)


def span(name, start, end, parent=-1, attr=None, error=False):
    return [name, start, end, parent, 0, attr, error]


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_overlapping_children(self):
        spans = [
            span("a", 0.0, 10.0),
            span("b", 1.0, 4.0, 0),
            span("c", 2.0, 3.0, 1),
            span("d", 3.5, 6.0, 0),   # overlaps b by 0.5
            span("e", 9.0, 12.0, 0),  # runs past its parent's end
        ]
        got = self_times(spans)
        self.assertAlmostEqual(got[0], 10.0 - (6.0 - 1.0) - 1.0)
        self.assertAlmostEqual(got[1], 2.0)
        self.assertAlmostEqual(got[2], 1.0)
        self.assertAlmostEqual(got[3], 2.5)
        self.assertAlmostEqual(got[4], 3.0)

    def test_error_counted_once_where_it_started(self):
        spans = [
            span("cli.run", 0.0, 5.0),
            span("flow_engine.evolve_umbilical", 1.0, 4.0, 0, error=True),
            span("flow_engine.step_umbilical", 2.0, 3.0, 1, attr=256, error=True),
        ]
        m = layer_metrics(spans)
        self.assertEqual(m["flow_engine.errors"], 1)
        self.assertEqual(m["flow_engine.step_umbilical.calls"], 1)
        self.assertAlmostEqual(m["flow_engine.step_umbilical.us_per_node.G256"],
                               1e6 / 256)
        self.assertAlmostEqual(m["flow_engine.evolve_umbilical.self_s"], 2.0)


class TailTest(unittest.TestCase):
    def test_eleventh_largest(self):
        value, pct = run.tail([float(i) for i in range(1, 41)])
        self.assertEqual(value, 30.0)
        self.assertEqual(pct, 75.0)
        with self.assertRaises(ValueError):
            run.tail([1.0] * 10)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_every_metric(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         [name for name, _ in run.END_TO_END])
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         [name for name, _ in LAYER_METRICS]
                         + ["bench.tracing_overhead_s"])
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))


if __name__ == "__main__":
    unittest.main()
