"""Tests of the benchmark itself (not of the program).

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root. They build the harness like run.py does,
then check that the input generators are seeded (same seed, same inputs;
other seed, other inputs), that every workload emits exactly the metrics
BENCHMARK.json names with the units it names, and that the benchmark
refuses to run without the program's sources.
"""
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)

spec = importlib.util.spec_from_file_location("perfbench_run",
                                              os.path.join(BENCH, "run.py"))
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out = run.build_dir()
        run.build(cls.out)

    def test_generators_are_seeded(self):
        proc = subprocess.run([os.path.join(self.out, "perfbench_selftest")],
                              capture_output=True, text=True, timeout=120)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def test_every_metric_is_emitted_with_its_unit(self):
        bench = load_benchmark()
        wanted = {
            0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]},
        }
        for workload in (w["name"] for w in bench["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = subprocess.run(
                        [sys.executable, os.path.join(BENCH, "run.py"),
                         "--workload", workload, "--seed", "3",
                         "--seconds", "1", "--trace", str(trace)],
                        cwd=ROOT, capture_output=True, text=True, timeout=170)
                    self.assertEqual(proc.returncode, 0, proc.stdout)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(
                        sorted(result),
                        ["attempted", "correct", "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, wanted[trace])
                    for name, m in result["metrics"].items():
                        self.assertTrue(math.isfinite(m["value"]), name)
                        if trace == 0:
                            self.assertGreater(m["value"], 0, name)

    def test_refuses_without_program_sources(self):
        lonely = os.path.join(self.out, "lonely")
        shutil.rmtree(lonely, ignore_errors=True)
        os.makedirs(lonely)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lonely)
        shutil.copytree(BENCH, os.path.join(lonely, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(lonely, "b"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "dpi_inspect", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=lonely, env=env, capture_output=True, text=True, timeout=170)
        shutil.rmtree(lonely, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
