"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured figure.  Tolerances are fixed here, not
calibrated elsewhere.  Run with `pytest -s tests/test_acceptance.py` to see
the per-criterion lines as they complete.
"""

import time

import numpy as np
import pytest

from ledgerlens import (
    SynthConfig,
    Transaction,
    compute_rankings,
    compute_snapshots,
    cumulative_curve,
    d_hhi,
    d_static,
    dispersion,
    expand_edges,
    generate,
    hhi,
    classify,
    hhi_series,
    pagerank,
    spearman,
)
from ledgerlens.cli import run
from ledgerlens.lorenz import d_static_series
from ledgerlens.market import HHISeries
from ledgerlens.txgraph import MetricVector, TransactionGraph

from oracles import gini_pairwise_np, pagerank_dense
from test_stability import mk_ranking, oracle_spearman


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


class TestAcceptance:
    def test_01_edge_expansion(self):
        rng = np.random.default_rng(101)
        txs = []
        for i in range(10_000):
            n_in = int(rng.integers(0, 21))  # 0 inputs = coinbase
            n_out = int(rng.integers(1, 21))
            ins = [(f"a{v}", int(rng.integers(1, 100)))
                   for v in rng.integers(0, 50, n_in)]
            outs = [(f"b{v}", int(rng.integers(1, 100)))
                    for v in rng.integers(0, 50, n_out)]
            txs.append(Transaction(f"t{i}", 0, ins, outs))

        t0 = time.perf_counter()
        counts = [len(expand_edges(tx)) for tx in txs]
        elapsed = time.perf_counter() - t0

        exact = 0
        for tx, got in zip(txs, counts):
            n = len(set(a for a, _ in tx.inputs)) or 1  # coinbase pseudo-input
            m = len(set(a for a, _ in tx.outputs))
            if got == n * m:
                exact += 1
        report(
            1,
            exact == len(txs) and elapsed < 1.0,
            f"edge count exact in {exact}/10000 cases, {elapsed:.3f}s (< 1 s)",
        )

    def test_02_conservation(self):
        t0 = time.perf_counter()
        checked_days = 0
        total_txs = 0
        ok = True
        for seed in range(50):
            cfg = SynthConfig(
                seed=seed, days=50, txs_per_day=2040, pool=3000,
                regime="uniform" if seed % 2 else "preferential",
                alpha=0.8, growth=5.0,
                initial_supply=10**13, reward=10**9,
            )
            ledger = generate(cfg)
            total_txs += len(ledger)
            # Independent per-day totals straight from the raw entry arrays.
            n = len(ledger)
            is_cb = np.diff(ledger.in_ptr) == 0
            out_sums = np.add.reduceat(ledger.out_val, ledger.out_ptr[:-1])
            in_sums = np.zeros(n, dtype=np.int64)
            has_in = ~is_cb
            in_sums[has_in] = np.add.reduceat(
                ledger.in_val, ledger.in_ptr[:-1][has_in]
            )
            minted_tx = np.where(is_cb, out_sums, 0)
            fees_tx = np.where(is_cb, 0, in_sums - out_sums)
            minted_cum = 0
            fees_cum = 0
            for snap in compute_snapshots(ledger):
                lo, hi = ledger.day_range(snap.day)
                minted_cum += int(minted_tx[lo:hi].sum())
                fees_cum += int(fees_tx[lo:hi].sum())
                if int(snap.balances.sum()) + fees_cum != minted_cum:
                    ok = False
                checked_days += 1
        elapsed = time.perf_counter() - t0
        report(
            2,
            ok and total_txs >= 50 * 100_000 and elapsed < 30.0,
            f"exact conservation on {checked_days} days across 50 ledgers "
            f"({total_txs} txs), {elapsed:.1f}s (< 30 s)",
        )

    def test_03_spearman_oracle(self):
        hand_a = mk_ranking([1, 2, 3, 4, 5], [50, 40, 30, 20, 10])
        hand_b = mk_ranking([2, 1, 4, 3, 5], [50, 40, 30, 20, 10])
        hand = spearman(hand_a, hand_b)

        rng = np.random.default_rng(103)
        worst = 0.0
        compared = 0
        for _ in range(1000):
            size = int(rng.integers(2, 1001))
            overlap = int(rng.integers(0, size + 1))
            pool = rng.permutation(3 * size)
            ids_a = pool[:size]
            ids_b = np.concatenate((pool[:overlap], pool[size:2 * size - overlap]))
            # Heavy ties: values drawn from a small range.
            a = mk_ranking(ids_a.tolist(), rng.integers(1, 12, size).tolist())
            b = mk_ranking(ids_b.tolist(), rng.integers(1, 12, size).tolist())
            got = spearman(a, b)
            want = oracle_spearman(a, b)
            if want is None:
                assert got is None
                continue
            compared += 1
            worst = max(worst, abs(got - want))
        report(
            3,
            hand == 0.8 and worst <= 1e-12 and compared > 500,
            f"hand case = {hand} (exact 0.8), max |err| vs Pearson-on-ranks "
            f"oracle = {worst:.2e} over {compared} defined pairs (<= 1e-12)",
        )

    def test_04_d_static(self):
        equal = mk_ranking(list(range(100)), [7] * 100)
        equality_value = d_static(cumulative_curve(equal, 100))

        rng = np.random.default_rng(104)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 501))
            balances = rng.integers(1, 10**9, n).tolist()
            r = mk_ranking(list(range(n)), balances)
            got = d_static(cumulative_curve(r, n))
            want = 1.0 - gini_pairwise_np(balances)
            worst = max(worst, abs(got - want))

        monotone = True
        balances = sorted(rng.integers(10, 10**6, 200).tolist(), reverse=True)
        base = d_static(cumulative_curve(mk_ranking(list(range(200)), balances), 200))
        for _ in range(1000):
            b = list(balances)
            i, j = sorted(rng.integers(0, 200, 2).tolist())
            if i == j or b[j] < 2:
                continue
            amount = int(rng.integers(1, b[j]))
            b[i] += amount
            b[j] -= amount
            moved = d_static(cumulative_curve(mk_ranking(list(range(200)), b), 200))
            if moved > base + 1e-12:
                monotone = False
        report(
            4,
            equality_value == 1.0 and worst <= 1e-9 and monotone,
            f"equality = {equality_value} (exact 1.0), max |err| vs pairwise "
            f"Gini oracle = {worst:.2e} (<= 1e-9), monotone under 1000 "
            f"rich-ward transfers = {monotone}",
        )

    def test_05_pagerank(self):
        rng = np.random.default_rng(105)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 11))
            m = int(rng.integers(1, 4 * n))
            pairs = [
                (int(a), int(b))
                for a, b in zip(rng.integers(0, n, m), rng.integers(0, n, m))
                if a != b
            ]
            graph = TransactionGraph.from_edges(pairs, nodes=range(n))
            if graph.n_nodes == 0:
                continue
            vec = pagerank(graph)
            weights = [
                (int(s), int(t), int(c))
                for s, t, c in zip(graph.src, graph.dst, graph.counts)
            ]
            want = pagerank_dense(n, weights)
            got = np.zeros(n)
            got[graph.nodes] = vec.values
            worst = max(worst, float(np.abs(got - want).max()))

        big_n = 100_000
        src = rng.integers(0, big_n, 500_000)
        dst = rng.integers(0, big_n, 500_000)
        keep = src != dst
        big = TransactionGraph.from_edges(
            list(zip(src[keep].tolist(), dst[keep].tolist())), nodes=range(big_n)
        )
        big_sum = float(pagerank(big).values.sum())

        cyc2 = pagerank(TransactionGraph.from_edges([(0, 1), (1, 0)])).values
        cyc3 = pagerank(TransactionGraph.from_edges([(0, 1), (1, 2), (2, 0)])).values
        cycle_err = max(
            float(np.abs(cyc2 - 0.5).max()), float(np.abs(cyc3 - 1 / 3).max())
        )
        report(
            5,
            worst <= 1e-8 and abs(big_sum - 1.0) <= 1e-9 and cycle_err <= 1e-12,
            f"max |err| vs dense solve = {worst:.2e} (<= 1e-8) on 200 graphs, "
            f"sum at 1e5 nodes = {big_sum:.12f} (1 +/- 1e-9), "
            f"cycle error = {cycle_err:.2e} (<= 1e-12)",
        )

    def test_06_dispersion(self):
        one = np.zeros(100)
        one[0] = 1.0
        two = np.zeros(100)
        two[:2] = 1.0
        d100 = dispersion(MetricVector("x", np.arange(100), one))
        d50 = dispersion(MetricVector("x", np.arange(100), two))

        rng = np.random.default_rng(106)
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(2, 300))
            vals = rng.random(n) * rng.integers(1, 1000)
            base = dispersion(MetricVector("x", np.arange(n), vals))
            factor = float(rng.random() * 999 + 1e-3)
            scaled = dispersion(MetricVector("x", np.arange(n), vals * factor))
            if base != 1.0 or scaled != 1.0:
                worst = max(worst, abs(scaled - base) / abs(base))
        report(
            6,
            d100 == 100.0 and d50 == 50.0 and worst <= 1e-9,
            f"analytic cases d = {d100}, {d50} (exact 100, 50), "
            f"scale-invariance max rel err = {worst:.2e} (<= 1e-9)",
        )

    def test_07_hhi(self):
        trivial = (
            hhi([1000], 1000) == 10000.0
            and hhi([500, 500], 1000) == 5000.0
            and abs(hhi([100] * 10, 1000) - 1000.0) <= 1e-9
            and classify(1000) == "competitive"
            and classify(1500) == "moderately_concentrated"
            and classify(2000) == "moderately_concentrated"
            and classify(2500) == "highly_concentrated"
        )

        rng = np.random.default_rng(107)
        merges_ok = True
        for _ in range(1000):
            n = int(rng.integers(2, 60))
            holdings = rng.integers(1, 10**6, n).tolist()
            total = sum(holdings) + int(rng.integers(0, 10**6))
            i, j = rng.choice(n, size=2, replace=False).tolist()
            merged = [
                h for k, h in enumerate(holdings) if k not in (i, j)
            ] + [holdings[i] + holdings[j]]
            if hhi(merged, total) <= hhi(holdings, total):
                merges_ok = False

        ordering_ok = True
        for seed in range(20):
            cfg = SynthConfig(
                seed=seed, days=8, txs_per_day=60, pool=40,
                regime="preferential", alpha=1.0,
                initial_supply=10**10, reward=10**7,
            )
            ledger = generate(cfg)
            rankings = list(compute_rankings(ledger, 100))
            a1 = hhi_series(ledger, "a1", rankings)
            a2 = hhi_series(ledger, "a2", rankings)
            for d, v in a1.values.items():
                if a2.values[d] < v - 1e-9:
                    ordering_ok = False
        report(
            7,
            trivial and merges_ok and ordering_ok,
            f"monopoly/two-equal/ten-equal with 1500/2500 thresholds = {trivial}, "
            f"merge raises HHI on 1000 partitions = {merges_ok}, "
            f"A1 <= A2 pointwise on 20 ledgers = {ordering_ok}",
        )

    def test_08_d_hhi_minmax(self):
        hand = d_hhi(HHISeries("a3", {0: 2000.0, 1: 3000.0, 2: 4000.0}))
        rng = np.random.default_rng(108)
        extremes_ok = True
        for _ in range(50):
            days = int(rng.integers(2, 40))
            vals = {d: float(v) for d, v in enumerate(rng.random(days) * 9000 + 500)}
            out = d_hhi(HHISeries("a3", vals))
            arg_min = min(vals, key=vals.get)
            arg_max = max(vals, key=vals.get)
            if out[arg_min] != 1.0 or out[arg_max] != 0.0:
                extremes_ok = False
        report(
            8,
            hand == {0: 1.0, 1: 0.5, 2: 0.0} and extremes_ok,
            f"hand series -> {sorted(hand.values(), reverse=True)} "
            f"(exact [1, 0.5, 0]), extremes map to (0, 1) = {extremes_ok}",
        )

    def test_09_report_determinism(self, tmp_path):
        chain = tmp_path / "chain.jsonl"
        store = str(tmp_path / "store")
        assert run(["synth", "--seed", "99", "--days", "25", "--txs-per-day",
                    "120", "--pool", "80", "--regime", "preferential",
                    "--alpha", "0.9", "--out", str(chain)]) == 0
        assert run(["ingest", "-i", str(chain), "--store", store]) == 0
        args = ["report", "--store", store, "--tops", "10,20,40",
                "--intervals", "1,3", "--focus", "20"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        identical = files1 == files2 and all(
            (out1 / f).read_bytes() == (out2 / f).read_bytes() for f in files1
        )
        report(
            9,
            identical and len(files1) > 10,
            f"two report runs produced byte-identical trees "
            f"({len(files1)} files) = {identical}",
        )

    def test_10_regime_discrimination(self):
        alphas = (0.0, 0.75, 1.5)
        seeds = range(10)
        ordered_pairs = 0
        total_pairs = 0
        all_ordered = True
        for seed in seeds:
            ds_means = []
            hhi_means = []
            for alpha in alphas:
                cfg = SynthConfig(
                    seed=seed, days=20, txs_per_day=300, pool=250,
                    regime="preferential", alpha=alpha,
                    initial_supply=10**12, reward=10**8,
                )
                ledger = generate(cfg)
                rankings = list(compute_rankings(ledger, 200))
                ds = d_static_series(rankings, 200)
                ds_means.append(float(np.mean(list(ds.values.values()))))
                a1 = hhi_series(ledger, "a1", rankings)
                hhi_means.append(float(np.mean(list(a1.values.values()))))
            for k in range(len(alphas) - 1):
                total_pairs += 1
                if ds_means[k] > ds_means[k + 1] and hhi_means[k] < hhi_means[k + 1]:
                    ordered_pairs += 1
                else:
                    all_ordered = False
        report(
            10,
            all_ordered,
            f"{ordered_pairs}/{total_pairs} (alpha level, seed) pairs ordered: "
            f"D_static strictly falls and A1-HHI strictly rises with alpha "
            f"(sign test: all 10 seeds agree)",
        )

    @pytest.mark.slow
    def test_11_scale_smoke(self, tmp_path):
        cfg = SynthConfig(
            seed=11, days=125, txs_per_day=8100, pool=20000, growth=40.0,
            regime="preferential", alpha=0.8,
            initial_supply=10**14, reward=50 * 10**8,
        )
        ledger = generate(cfg)
        assert len(ledger) >= 1_000_000
        chain = tmp_path / "big.jsonl"
        with open(chain, "w") as fp:
            ledger.serialize(fp)
        del ledger

        from ledgerlens import parse_ledger
        from ledgerlens.report import build_report

        t0 = time.perf_counter()
        with open(chain) as fp:
            parsed = parse_ledger(fp)
        bundle = build_report(parsed, str(tmp_path / "report"))
        elapsed = time.perf_counter() - t0
        report(
            11,
            elapsed < 300.0 and bundle["meta"]["transactions"] >= 1_000_000,
            f"ingest + full metric suite on {bundle['meta']['transactions']} "
            f"txs in {elapsed:.1f}s (< 300 s)",
        )
