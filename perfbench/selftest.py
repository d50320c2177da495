"""Quick self-test of the benchmark at toy size (a few seconds).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that perfbench/metrics.json describes exactly the metrics that
BENCHMARK.json declares, that both modes print every named metric with its
unit and nothing else in the result line, that the traced run reproduces the
untraced AUCs, and that the benchmark refuses to run where there are no
acdkit sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The fifteen end-to-end figures: nine are result-line metrics, the rest are in the report line.
END_TO_END_FIGURES = {
    "setup_s", "acda_s", "cc_s", "ce_s", "diffrx_s", "eval_s", "sweep_s", "acda_peak_rss_mb",
    "baseline_peak_rss_mb", "acda_auc", "cc_auc", "ce_auc", "diffrx_auc", "sweep_auc_mean",
    "failed_ops",
}


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tagged_line(stdout: str, tag: str) -> dict:
    for line in stdout.splitlines():
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    raise AssertionError(f"no '{tag}' line in output")


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        cls.registry = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
        toy = ("--workload", "toy", "--seed", "3", "--seconds", "1")
        cls.plain = run_bench(*toy, "--trace", "0")
        cls.traced = run_bench(*toy, "--trace", "1")

    def result(self, done: subprocess.CompletedProcess) -> dict:
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), RESULT_KEYS)
        self.assertTrue(result["correct"], done.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        return result

    def assert_metrics(self, printed: dict, declared: list[dict]):
        self.assertEqual(sorted(printed), sorted(m["name"] for m in declared))
        for metric in declared:
            entry = printed[metric["name"]]
            self.assertEqual(set(entry), {"value", "unit"})
            self.assertEqual(entry["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(entry["value"]), metric["name"])

    def test_registry_names_the_declared_metrics(self):
        workloads = {w["name"] for w in self.bench["workloads"]}
        for section in ("end_to_end", "per_layer"):
            declared = {m["name"] for m in self.bench[section]}
            self.assertEqual(declared, set(self.registry[section]), section)
        for name, spec in self.registry["end_to_end"].items():
            self.assertTrue(set(spec["workloads"]) <= workloads, name)
        for name, spec in self.registry["per_layer"].items():
            for target in spec["moves"]:
                self.assertIn(target, END_TO_END_FIGURES, name)
            self.assertTrue(set(spec["on"]) <= workloads, name)

    def test_untraced_run_prints_every_end_to_end_metric(self):
        result = self.result(self.plain)
        self.assert_metrics(result["metrics"], self.bench["end_to_end"])
        report = tagged_line(self.plain.stdout, "report")
        named = set(result["metrics"]) | set(report)
        self.assertEqual(named, END_TO_END_FIGURES)
        for name, entry in report.items():
            self.assertEqual(set(entry), {"value", "unit"}, name)
        env = tagged_line(self.plain.stdout, "env")
        for key in ("nproc", "python", "numpy", "blas", "blas_threads", "ACDKIT_THREADS",
                    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "git_commit", "seed"):
            self.assertIn(key, env)

    def test_traced_run_prints_every_per_layer_metric(self):
        result = self.result(self.traced)
        self.assert_metrics(result["metrics"], self.bench["per_layer"])

    def test_traced_aucs_match_untraced(self):
        plain = tagged_line(self.plain.stdout, "report")
        traced = self.result(self.traced)["metrics"]
        for name in ("acda_auc", "cc_auc", "ce_auc", "diffrx_auc", "sweep_auc_mean"):
            self.assertEqual(plain[name]["value"], traced[name]["value"], name)

    def test_refuses_to_run_without_sources(self):
        bare = ROOT / ".perfbench_work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            done = run_bench("--workload", "toy", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
