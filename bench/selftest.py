"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. Every workload runs end to end, untraced and traced, at a tiny size, with
   every command passing its checks.
2. Every output check fails when one value of the output it reads is altered,
   and a repeated command whose output differs from its first run fails.
"""

import dataclasses
import json
import os
import shutil
import tempfile
import unittest

import checks
import gen
import run as bench

SEED = 9001
TINY = {
    "wide_report": gen.Shape(
        days=12, hubs=30, hub_groups=5, miners=4, genesis_holders=300,
        max_regular=10**9, coinbase=3, payments=40, deposits=5, consolidations=8,
        batches=3, batch_outputs=8, hub_transfers=5, new_share=0.3, disorder=0.05,
    ),
    "long_queries": gen.Shape(
        days=40, hubs=30, hub_groups=5, miners=4, genesis_holders=100,
        max_regular=200, coinbase=2, payments=10, deposits=3, consolidations=3,
        batches=1, batch_outputs=5, hub_transfers=4, new_share=0.1, disorder=0.05,
    ),
}

with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as _fp:
    SPEC = json.load(_fp)


def tiny_run(name: str) -> bench.Run:
    os.makedirs(bench.WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"selftest-{name}-", dir=bench.WORK)
    workload = dataclasses.replace(bench.WORKLOADS[name], shape=TINY[name])
    return bench.Run(workload, SEED, work)


class EndToEnd(unittest.TestCase):
    def test_untraced(self):
        for name in bench.WORKLOADS:
            with self.subTest(name):
                run = tiny_run(name)
                try:
                    result, detail = bench.measure(run, seconds=1)
                finally:
                    shutil.rmtree(run.work)
                self.assertEqual(run.errors, [])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                per_round = bench.INGESTS_PER_ROUND + len(run.workload.commands)
                self.assertEqual(result["attempted"], per_round * len(detail["rounds"]))
                self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC["end_to_end"]})
                self.assertTrue(all(m["value"] > 0 for m in result["metrics"].values()))

    def test_traced(self):
        for name in bench.WORKLOADS:
            with self.subTest(name):
                run = tiny_run(name)
                try:
                    result, detail = bench.traced(run)
                finally:
                    shutil.rmtree(run.work)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(detail["absent"], [])
                self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC["per_layer"]})
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                self.assertEqual(metrics["ledger.txs"], run.truth.transactions)
                self.assertEqual(metrics["ledger.out_of_order"], run.truth.out_of_order)
                self.assertGreater(metrics["balances.day_applies"], 0)


def alter_csv(path: str, match, column: int, change) -> None:
    """Rewrite every data row of `path` for which match(row) holds (one
    value, or its duplicates), replacing row[column] with change(row[column])."""
    with open(path) as fp:
        lines = fp.readlines()
    header_seen = altered = False
    for i, line in enumerate(lines):
        if line.startswith("#"):
            continue
        if not header_seen:
            header_seen = True
            continue
        row = line.rstrip("\n").split(",")
        if match(row):
            row[column] = change(row[column])
            lines[i] = ",".join(row) + "\n"
            altered = True
    if not altered:
        raise AssertionError(f"no row of {path} to alter")
    with open(path, "w") as fp:
        fp.writelines(lines)


def scaled(factor: float):
    return lambda cell: repr(float(cell) * factor)


def plus(delta: float):
    return lambda cell: repr(float(cell) + delta)


class Mutations(unittest.TestCase):
    """Round 0 of a tiny run of each workload, checked as is and then with
    one value altered."""

    @classmethod
    def setUpClass(cls):
        cls.runs = {}
        for name in bench.WORKLOADS:
            run = tiny_run(name)
            run.truth = gen.generate(run.workload.shape, SEED, run.export)
            run.round(0, run.child.ledgerlens, 1)
            cls.runs[name] = run

    @classmethod
    def tearDownClass(cls):
        for run in cls.runs.values():
            shutil.rmtree(run.work)

    def assert_caught(self, name: str, rel: str, alter, check) -> None:
        """`check(out_dir, expected)` passes on the output and fails once
        `alter(path)` changed one value of the file at `rel`."""
        run = self.runs[name]
        base = os.path.join(run.work, "round0")
        self.assertEqual(check(base, run.expected), [])
        copy = tempfile.mkdtemp(dir=run.work)
        try:
            shutil.copytree(base, copy, dirs_exist_ok=True)
            alter(os.path.join(copy, rel))
            self.assertNotEqual(check(copy, run.expected), [], f"{rel} alteration not caught")
        finally:
            shutil.rmtree(copy)

    def sampled_day(self, name: str) -> int:
        exp = self.runs[name].expected
        return exp.sample(list(range(1, exp.days)), checks.DISPERSION_SAMPLES, "dispersion")[0]

    def test_meta(self):
        def alter(path):
            with open(path) as fp:
                meta = json.load(fp)
            meta["out_of_order"] += 1
            with open(path, "w") as fp:
                json.dump(meta, fp)
        run = self.runs["long_queries"]
        self.assert_caught("long_queries", "store0/meta.json", alter,
                           lambda base, exp: checks.check_meta(
                               os.path.join(base, "store0", "meta.json"), run.truth))

    def test_proportions(self):
        for name, rel in (("long_queries", "out/proportions.csv"),
                          ("wide_report", "out/report/proportions.csv")):
            with self.subTest(name):
                self.assert_caught(
                    name, rel, lambda p: alter_csv(p, lambda r: r[0] == "5", 3, scaled(1 + 1e-9)),
                    lambda base, exp, rel=rel: checks.check_proportions(
                        os.path.join(base, rel), exp))

    def test_d_static(self):
        for name, rel in (("long_queries", "out/d_static.csv"),
                          ("wide_report", "out/report/d_static.csv")):
            with self.subTest(name):
                self.assert_caught(
                    name, rel, lambda p: alter_csv(p, lambda r: r[0] == "7", 1, plus(1e-8)),
                    lambda base, exp, rel=rel: checks.check_d_static(
                        os.path.join(base, rel), exp))

    def test_retention(self):
        rel = "out/report/stability.csv"
        self.assert_caught(
            "wide_report", rel,
            lambda p: alter_csv(p, lambda r: r[1] == "retention" and r[2] == "300", 4,
                                lambda cell: repr(float(cell) - 1 / 300)),
            lambda base, exp: checks.check_stability_report(os.path.join(base, rel), exp))

    def test_spearman(self):
        for name, rel, check in (
            ("long_queries", "out/stability.csv", checks.check_stability_query),
            ("wide_report", "out/report/stability.csv", checks.check_stability_report),
        ):
            with self.subTest(name):
                exp = self.runs[name].expected
                header, rows = checks.read_csv(os.path.join(self.runs[name].work, "round0", rel))
                if name == "long_queries":
                    day = exp.sample(rows, checks.SPEARMAN_SAMPLES, "spearman")[0][0]
                    match, column = (lambda r: r[0] == day), 1
                else:
                    keyed = [((m, int(n), int(i)), int(d), v) for d, m, n, i, v in rows
                             if m == "spearman"]
                    (m, n, i), d, _ = exp.sample(keyed, checks.SPEARMAN_SAMPLES, "spearman")[0]
                    match = lambda r: (r[0], r[1], r[2], r[3]) == (str(d), m, str(n), str(i))
                    column = 4
                self.assert_caught(name, rel, lambda p: alter_csv(p, match, column, plus(1e-9)),
                                   lambda base, exp, rel=rel: check(os.path.join(base, rel), exp))

    def test_dispersion(self):
        for name, rel in (("long_queries", "out/dispersion.csv"),
                          ("wide_report", "out/report/dispersion.csv")):
            day = str(self.sampled_day(name))
            for metric, change in (("degree", scaled(1 + 1e-15)), ("pagerank", scaled(1 + 1e-4))):
                with self.subTest(f"{name} {metric}"):
                    self.assert_caught(
                        name, rel,
                        lambda p: alter_csv(p, lambda r: r[:2] == [day, metric], 2, change),
                        lambda base, exp, rel=rel: checks.check_dispersion(
                            os.path.join(base, rel), exp))

    def test_hhi(self):
        rel = "out/report/hhi.csv"
        check = lambda base, exp: checks.check_hhi([os.path.join(base, rel)], exp,
                                                   ("a1", "a2", "a3"))
        cases = {
            "a1 value": (lambda r: r[:2] == ["3", "a1"], 2, scaled(1 + 1e-6)),
            "a2 below a1": (lambda r: r[:2] == ["4", "a2"], 2, scaled(1e-6)),
            "a3 above 10000": (lambda r: r[:2] == ["6", "a3"], 2, lambda c: "10001.0"),
            "class": (lambda r: r[:2] == ["2", "a2"], 3, lambda c: "competitive"
                      if c != "competitive" else "highly_concentrated"),
        }
        for label, (match, column, change) in cases.items():
            with self.subTest(label):
                self.assert_caught("wide_report", rel,
                                   lambda p: alter_csv(p, match, column, change), check)
        long_check = lambda base, exp: checks.check_hhi(
            [os.path.join(base, "out/hhi_a2.csv"), os.path.join(base, "out/hhi_a3.csv")],
            exp, ("a2", "a3"))
        self.assert_caught("long_queries", "out/hhi_a3.csv",
                           lambda p: alter_csv(p, lambda r: r[0] == "9", 2, scaled(1e-6)),
                           long_check)

    def test_d_hhi(self):
        rel = "out/d_hhi.csv"
        self.assert_caught(
            "long_queries", rel,
            lambda p: alter_csv(p, lambda r: float(r[1]) == 1.0, 1, lambda c: "0.99"),
            lambda base, exp: checks.check_d_hhi(os.path.join(base, rel), exp))

    def test_snapshot(self):
        rel = "out/snapshot.csv"
        _, rows = checks.read_csv(os.path.join(self.runs["long_queries"].work, "round0", rel))
        self.assert_caught(
            "long_queries", rel,
            lambda p: alter_csv(p, lambda r: r[0] == rows[0][0], 1, lambda c: str(int(c) + 1)),
            lambda base, exp: checks.check_snapshot(os.path.join(base, rel), exp))

    def test_repetition_must_match(self):
        run = self.runs["long_queries"]
        first = os.path.join(run.work, "round0", "out", "d_static.csv")
        other = os.path.join(tempfile.mkdtemp(dir=run.work), "d_static.csv")
        shutil.copyfile(first, other)
        alter_csv(other, lambda r: r[0] == "3", 1, plus(1e-12))
        probe = bench.Run(run.workload, SEED, run.work)
        probe.record("dstatic", 0, [first], lambda: [])
        probe.record("dstatic", 0, [first], lambda: [])
        probe.record("dstatic", 0, [other], lambda: [])
        probe.record("dstatic", 1, [first], lambda: [])
        probe.settle()
        self.assertEqual((probe.attempted, probe.failed), (4, 2))


if __name__ == "__main__":
    unittest.main()
