"""The benchmark's own tests, on the reduced ("small") campaigns.

Run from the root of a checkout (builds perfbench on first use):

    python3 -m unittest discover -s perfbench/tests -v
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace=0, seed=7, extra=()):
    """Runs one small workload for a second; returns (result, stdout)."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "small", *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600)
    if proc.returncode != 0:
        raise AssertionError(
            f"{workload}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


class MetricsPrinted(unittest.TestCase):
    def test_every_metric_is_printed_with_its_unit(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for w in SPEC["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    result, _ = run(w["name"], trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, v in result["metrics"].items():
                        self.assertIsInstance(v["value"], (int, float), name)


class CorrectnessGate(unittest.TestCase):
    def test_tampered_export_counts_as_a_failed_pass(self):
        for workload in ("gate_units", "perfi_epr", "rtl_tmxm"):
            with self.subTest(workload=workload):
                # Pass 1 is the reference; pass 2 repeats its campaign seed.
                result, out = run(workload, extra=("--tamper-pass", "2"))
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1, out)

    def test_untampered_passes_reproduce_each_other(self):
        result, out = run("perfi_epr", trace=1)
        self.assertTrue(result["correct"], out)
        self.assertIn("no pinned digest", out)


class Fleet(unittest.TestCase):
    def test_fleet_drains_without_lost_leases(self):
        result, out = run("fleet_mixed", trace=1)
        self.assertTrue(result["correct"], out)
        m = result["metrics"]
        self.assertEqual(m["net.lost_leases"]["value"], 0)
        self.assertGreater(m["net.units"]["value"], 0)
        self.assertEqual(m["gate.jit.compiles"]["value"], 0)


class Standalone(unittest.TestCase):
    def test_fails_without_the_repository_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "gate_units",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, timeout=170)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
