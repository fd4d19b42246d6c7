#!/usr/bin/env python3
"""Self-tests of the perfbench benchmark, on the small fixture (seconds).

Run from anywhere inside a hoyan checkout:

  python3 perfbench/test_run.py
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

RUN = os.path.join(bench.BENCH, "run.py")
SCRATCH = os.path.join(bench.WORK, "selftest")


def digest_dir(d):
    h = hashlib.sha256()
    for name in sorted(os.listdir(d)):
        h.update(name.encode())
        with open(os.path.join(d, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def smoke(workload, extra=(), env=None):
    out = subprocess.run(
        [sys.executable, RUN, "--smoke", "--workload", workload, *extra],
        cwd=bench.ROOT, env=dict(os.environ, **(env or {})),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if out.returncode != 0:
        raise AssertionError(f"smoke {workload} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])[workload]


class SelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.hoyan, cls.probe = bench.build()
        shutil.rmtree(SCRATCH, ignore_errors=True)
        os.makedirs(SCRATCH)

    def test_every_workload_passes_its_checks(self):
        for trace in ("0", "1"):
            for w in bench.WORKLOADS:
                r = smoke(w, ["--trace", trace])
                self.assertTrue(r["correct"], (w, trace, r))
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)

    def test_injected_family_fault_is_one_failed_operation(self):
        r = smoke("wan-paper-sweep", env={"HOYAN_FAULTS": "verify.family@1=error"})
        self.assertEqual((r["attempted"], r["failed"], r["correct"]), (1, 1, False))

    def test_corrupted_digest_is_flagged(self):
        with open(os.path.join(bench.BENCH, "expected.json")) as f:
            expected = json.load(f)
        entry = expected["small"][str(bench.DEFAULT_SEED)]
        entry["sweep_body_sha256"] = entry["sweep_body_sha256"][::-1]
        with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        r = bench.run_workload(self.hoyan, self.probe, "wan-paper-sweep", bench.DEFAULT_SEED,
                               0, 0, "small", expected, spec)
        self.assertEqual((r["failed"], r["correct"]), (1, False))

    def test_oracle_disagreement_is_flagged(self):
        fragile = {"10.0.0.0/24": ["CR0x0"]}
        pairs = [("10.0.0.0/24", "CR0x0"), ("10.0.0.0/24", "DC0x0"), ("10.0.1.0/24", "CR0x0")]
        agree = [{"min_failures": 1}, {"min_failures": None}, {"min_failures": 0}]
        self.assertEqual(bench.check_sweep_sample(pairs, fragile, agree), [])
        disagree = [{"min_failures": None}, {"min_failures": 1}, {"min_failures": 1}]
        self.assertEqual(len(bench.check_sweep_sample(pairs, fragile, disagree)), 3)
        q = {"kind": "verify", "prefix": "10.0.0.0/24", "device": "CR0x0", "k": 1}
        verdict = {"now": True, "resilient": False}
        self.assertIsNone(bench.check_oneshot(q, verdict, {"min_failures": 1}))
        self.assertIsNotNone(bench.check_oneshot(q, verdict, {"min_failures": None}))
        scope = {"kind": "scope", "prefix": "10.0.0.0/24"}
        self.assertIsNotNone(
            bench.check_oneshot(scope, {"devices": ["A"]}, {"devices": ["A", "B"]}))

    def test_seeds_give_different_fixtures(self):
        digests = {}
        for name, seed in (("a", 1), ("b", 2), ("c", 1)):
            d = os.path.join(SCRATCH, f"fixture-{name}")
            subprocess.run([self.hoyan, "gen", d, "--size", "small", "--seed", str(seed)],
                           check=True, stdout=subprocess.DEVNULL)
            digests[name] = digest_dir(d)
        self.assertNotEqual(digests["a"], digests["b"])
        self.assertEqual(digests["a"], digests["c"])

    def test_fails_without_the_program_sources(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.copytree(bench.BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), bare)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "wan-paper-sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=180,
        )
        self.assertNotEqual(out.returncode, 0)
        self.assertEqual(out.stdout, "")


if __name__ == "__main__":
    unittest.main()
