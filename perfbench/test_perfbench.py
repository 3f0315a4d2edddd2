"""Tests of the benchmark harness.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They rely only on the ellcy command line, whose output must stay
byte-identical, and on stand-in programs written to temporary trees.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import textwrap
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402

SMALL = [
    ["series", "inv-sqrt-delta", "--json", "--prec", "6"],
    ["gv", "section", "--method", "direct", "--prec", "4"],
    ["gv", "fiber", "--method", "direct", "--prec", "5"],
    ["nl", "--h", "0", "--d1", "3", "--d2", "1"],
    ["check", "--prec", "4"],
    ["gv", "multifiber", "--m", "1"],  # usage error, exit 1
]

# Stand-in for the ellcy CLI: prints "ok" for euler, a wrong NL number,
# exits 3 on "crash" and sleeps on "hang".
FAKE_MAIN = textwrap.dedent("""\
    import sys, time
    cmd = sys.argv[1]
    if cmd == "euler":
        print("ok")
    elif cmd == "nl":
        print("12345")
    elif cmd == "crash":
        sys.exit(3)
    elif cmd == "hang":
        time.sleep(30)
    """)
NL = ["nl", "--h", "0", "--d1", "3", "--d2", "1"]


def fake_tree(base: Path) -> Path:
    pkg = base / "src" / "ellcy"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "__main__.py").write_text(FAKE_MAIN)
    return base


class TracedRunTest(unittest.TestCase):
    def test_traced_output_is_byte_identical(self):
        with bench.Spawner(bench.ROOT) as spawner:
            for argv in SMALL:
                plain = spawner.run(argv, 60)
                traced = spawner.run(argv, 60, trace=True)
                self.assertEqual(traced.code, plain.code, argv)
                self.assertEqual(traced.stdout, plain.stdout, argv)
                self.assertEqual(traced.stderr, plain.stderr, argv)
                self.assertIsNotNone(traced.trace, argv)

    def test_every_declared_per_layer_metric_is_reported(self):
        with bench.Spawner(bench.ROOT) as spawner:
            traced = [spawner.run(argv, 60, trace=True) for argv in SMALL[:3]]
        values = bench.per_layer(traced, 0.1)
        self.assertEqual(set(values), set(bench.per_layer_units()))
        self.assertGreater(values["series.mul.calls"], 0)
        self.assertGreater(values["cli.self_s"], 0)

    def test_self_time_excludes_children_and_total_skips_recursion(self):
        spans = [["a", 0, 100, -1, 0],
                 ["b", 10, 40, 0, 0],
                 ["b", 15, 25, 1, 1],
                 ["c", 50, 60, 0, 0]]
        stats = bench.layer_stats(spans)
        self.assertAlmostEqual(stats["a"]["self_s"], 60e-9, places=15)
        self.assertAlmostEqual(stats["b"]["self_s"], 30e-9, places=15)
        self.assertAlmostEqual(stats["b"]["total_s"], 30e-9, places=15)
        self.assertEqual(stats["b"]["calls"], 2)
        self.assertEqual(stats["b"]["repeats"], 1)


class GateTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.root = fake_tree(Path(self.tmp.name))
        self.reference = {"euler": bench.digest(b"ok\n"),
                          " ".join(NL): bench.digest(b"12345\n")}

    def tearDown(self):
        self.tmp.cleanup()

    def gate(self, commands):
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return bench.benchmark("fake", 0, 0.01, False, root=self.root,
                                   reference=self.reference,
                                   commands=commands)

    def test_correct_outputs_pass(self):
        self.reference[" ".join(NL)] = bench.digest(
            bench.expected_nl(NL))
        (self.root / "src" / "ellcy" / "__main__.py").write_text(
            FAKE_MAIN.replace('"12345"', repr(bench.expected_nl(NL)
                                              .decode().strip())))
        result = self.gate([NL])
        self.assertEqual(result["failed"], 0)
        self.assertTrue(result["correct"])

    def test_wrong_output_is_an_error_even_if_recorded(self):
        result = self.gate([NL])
        self.assertEqual(result["failed"], 1)
        self.assertFalse(result["correct"])

    def test_output_differing_from_reference_is_an_error(self):
        self.reference["euler"] = bench.digest(b"something else\n")
        result = self.gate([NL])
        # warm-up, the SETUP_PER_ROUND start-up calls and the NL number
        self.assertEqual(result["failed"], 2 + bench.SETUP_PER_ROUND)

    def test_nonzero_exit_is_an_error(self):
        self.reference["crash"] = bench.digest(b"")
        result = self.gate([["crash"]])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(result["attempted"], 1)

    def test_hang_is_killed_and_counted(self):
        self.reference["hang"] = bench.digest(b"")
        saved = bench.COMMAND_TIMEOUT_S
        bench.COMMAND_TIMEOUT_S = 0.5
        try:
            result = self.gate([["hang"]])
        finally:
            bench.COMMAND_TIMEOUT_S = saved
        self.assertEqual(result["failed"], 1)


class TreeTest(unittest.TestCase):
    def test_missing_tree_aborts(self):
        with tempfile.TemporaryDirectory() as tmp:
            with self.assertRaises(bench.TreeError):
                bench.check_tree(Path(tmp) / "missing")

    def test_tree_resolving_elsewhere_aborts(self):
        with tempfile.TemporaryDirectory() as tmp:
            real = fake_tree(Path(tmp) / "real")
            link = Path(tmp) / "link" / "src"
            link.mkdir(parents=True)
            (link / "ellcy").symlink_to(real / "src" / "ellcy")
            bench.check_tree(real)
            with self.assertRaises(bench.TreeError):
                bench.check_tree(link.parent)

    def test_benchmark_alone_exits_nonzero_without_a_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(bench.HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(bench.ROOT / "BENCHMARK.json", tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "nl-sum",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn(b'"correct"', proc.stdout)


class DefinitionTest(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics_reported(self):
        spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(bench.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         bench.END_TO_END_UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         bench.per_layer_units())

    def test_every_pickable_command_has_a_reference(self):
        reference = json.loads(bench.REFERENCE.read_text())
        for slots in bench.WORKLOADS.values():
            for slot in slots:
                for argv in slot:
                    self.assertIn(" ".join(argv), reference)

    def test_seed_fixes_the_commands(self):
        for name in bench.WORKLOADS:
            self.assertEqual(bench.pick_commands(name, 7),
                             bench.pick_commands(name, 7))

    def test_nl_oracle_matches_the_cli(self):
        points = [NL, ["nl", "--h", "1", "--d1", "0", "--d2", "0"],
                  ["nl", "--h", "5", "--d1", "0", "--d2", "0"],
                  ["nl", "--h", "2", "--d1", "7", "--d2", "2"]]
        with bench.Spawner(bench.ROOT) as spawner:
            for argv in points:
                self.assertEqual(spawner.run(argv, 60).stdout,
                                 bench.expected_nl(argv), argv)


class CalibrationTest(unittest.TestCase):
    def test_calibration_prints_its_checksum(self):
        with bench.Spawner(bench.ROOT) as spawner:
            self.assertGreater(spawner.calibrate(), 0)

    def test_times_scale_with_the_calibration(self):
        def run(wall_s):
            return bench.Run(["x"], 0, b"", b"", wall_s, 1024)
        setup = [run(0.1), run(0.3), run(0.2)]
        runs = {0: [run(1.0), run(3.0)], 1: [run(4.0)]}
        slow = bench.CAL_REF_S * 2
        metrics = bench.end_to_end(setup, runs, [slow, slow])
        self.assertAlmostEqual(metrics["wall_s"], (2.0 + 4.0) / 2)
        self.assertAlmostEqual(metrics["setup_s"], 0.2 / 2)
        self.assertEqual(metrics["peak_rss_mb"], 1.0)


if __name__ == "__main__":
    unittest.main()
