import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from ledgerlens import (
    SynthConfig,
    compute_rankings,
    generate,
    retention,
    spearman,
    stability_series,
    summarize,
)
from ledgerlens.balances import Ranking
from ledgerlens.report import _cell, build_report
from ledgerlens.stability import _DayList, _doubled_ranks, stability_table
from conftest import make_ledger, rec
from oracles import average_ranks, pearson_fsum, spearman_int


def mk_ranking(ids, balances, day=0, n=None):
    order = sorted(range(len(ids)), key=lambda i: (-balances[i], ids[i]))
    ids = np.asarray([ids[i] for i in order], dtype=np.int64)
    balances = np.asarray([balances[i] for i in order], dtype=np.int64)
    return Ranking(day, n or len(ids), ids, balances)


def ranking_from_positions(positions):
    """Ranking whose member id m sits at rank positions[m] (1-based, no ties)."""
    n = len(positions)
    pairs = sorted(positions.items(), key=lambda kv: kv[1])
    ids = [m for m, _ in pairs]
    balances = [n - p + 1 for _, p in pairs]
    return mk_ranking(ids, balances)


def oracle_spearman(rank_a, rank_b):
    ra = dict(zip((int(i) for i in rank_a.ids),
                  average_ranks(rank_a.balances.tolist())))
    rb = dict(zip((int(i) for i in rank_b.ids),
                  average_ranks(rank_b.balances.tolist())))
    common = sorted(set(ra) & set(rb))
    if len(common) < 2:
        return None
    return pearson_fsum([ra[i] for i in common], [rb[i] for i in common])


def ref_tie_ranks(balances):
    m = len(balances)
    ranks = np.arange(1, m + 1, dtype=np.float64)
    if m:
        boundaries = np.flatnonzero(np.diff(balances) != 0) + 1
        starts = np.concatenate(([0], boundaries))
        stops = np.concatenate((boundaries, [m]))
        for s, e in zip(starts, stops):
            if e - s > 1:
                ranks[s:e] = 0.5 * (s + 1 + e)
    return ranks


# Reference stability: the per-pair algorithm on Python sets and {id: rank}
# dicts that the array kernel replaced, with the kernel's arithmetic: the
# Pearson coefficient of doubled tie ranks (integers) from exact Python-int
# moments (`oracles.spearman_int`).  The kernel's sums are exact too, so it
# must match exactly.

def ref_spearman(rank_a, rank_b, mode):
    return spearman_int(list(zip(rank_a.ids.tolist(), rank_a.balances.tolist())),
                        list(zip(rank_b.ids.tolist(), rank_b.balances.tolist())), mode)


def ref_series(rankings, n, interval, metric, mode):
    values = {}
    for d in range(len(rankings) - interval):
        a = rankings[d].truncated(n)
        b = rankings[d + interval].truncated(n)
        if metric == "retention":
            ma = {int(i) for i in a.ids}
            mb = {int(i) for i in b.ids}
            denom = max(len(ma), len(mb))
            values[d] = 1.0 if denom == 0 else len(ma & mb) / denom
        elif not len(a) or not len(b):
            values[d] = None
        else:
            values[d] = ref_spearman(a, b, mode)
    return values


# One day's ranking: distinct ids from a small pool (so lists overlap) with
# balances from a small range (so tie runs are common and cross the cut).
day_rankings = st.dictionaries(st.integers(0, 25), st.integers(1, 4), max_size=14)


class TestKernelMatchesReference:
    @given(
        days=st.lists(day_rankings, min_size=0, max_size=7),
        n=st.integers(1, 16),
        interval=st.integers(1, 9),
        kind=st.sampled_from([("spearman", "intersection"), ("spearman", "penalized"),
                              ("retention", "intersection")]),
    )
    def test_series_equals_reference(self, days, n, interval, kind):
        metric, mode = kind
        rankings = [mk_ranking(list(d), list(d.values()), day=i) for i, d in enumerate(days)]
        got = stability_series(rankings, n, interval, metric, mode)
        assert got.values == ref_series(rankings, n, interval, metric, mode)

    @given(
        days=st.lists(day_rankings, min_size=0, max_size=7),
        specs=st.lists(st.tuples(st.sampled_from(["spearman", "retention"]),
                                 st.integers(1, 16), st.integers(1, 9)),
                       min_size=1, max_size=8),
        mode=st.sampled_from(["intersection", "penalized"]),
    )
    # An empty day, a tie run of three cut at N = 1, 2 and 3, and intervals
    # as long as the history and longer.
    @example(days=[{1: 3, 2: 3, 3: 3, 4: 1}, {}, {3: 3, 2: 3, 1: 2, 5: 1}],
             specs=[("spearman", 2, 1), ("spearman", 3, 2), ("retention", 1, 1),
                    ("retention", 2, 2), ("spearman", 2, 3), ("retention", 3, 9)],
             mode="penalized")
    def test_table_equals_reference(self, days, specs, mode):
        # One call for several series gives each the reference series.
        rankings = [mk_ranking(list(d), list(d.values()), day=i) for i, d in enumerate(days)]
        table = stability_table(rankings, specs, mode)
        assert list(table) == list(dict.fromkeys(specs))
        for (metric, n, interval), series in table.items():
            assert (series.metric, series.top_n, series.interval) == (metric, n, interval)
            assert series.values == ref_series(rankings, n, interval, metric, mode)

    def test_table_rejects_bad_specs(self):
        rankings = [mk_ranking([1, 2], [5, 3])]
        for spec, message in (((("retention", 0, 1),), "n must be"),
                              ((("retention", 1, 0),), "interval must be"),
                              ((("kendall", 1, 1),), "unknown stability metric")):
            with pytest.raises(ValueError, match=message):
                stability_table(rankings, spec)
        with pytest.raises(ValueError, match="unknown spearman mode"):
            stability_table(rankings, [("spearman", 1, 1)], "weird")
        assert stability_table(rankings, [("retention", 1, 1)], "weird")

    @given(a=day_rankings, b=day_rankings,
           mode=st.sampled_from(["intersection", "penalized"]))
    def test_public_spearman_equals_reference(self, a, b, mode):
        ra = mk_ranking(list(a), list(a.values()))
        rb = mk_ranking(list(b), list(b.values()))
        if not len(ra) or not len(rb):
            return
        assert spearman(ra, rb, mode) == ref_spearman(ra, rb, mode)

    def test_tie_run_cut_by_truncation(self):
        # Day 0 ranks ids 1, 2, 3 as 1, 2, 3.5 in full but 1, 2, 3 in its
        # top 3; the series ranks the truncated lists: x = [1, 2, 3] against
        # y = [3, 1, 2] gives exactly -0.5 (full-list ranks would not).
        day0 = Ranking(0, 4, np.array([1, 2, 3, 4]), np.array([9, 8, 5, 5]))
        day1 = Ranking(1, 3, np.array([2, 3, 1]), np.array([9, 8, 1]))
        for mode in ("intersection", "penalized"):
            got = stability_series([day0, day1], 3, 1, "spearman", mode).values
            assert got == ref_series([day0, day1], 3, 1, "spearman", mode)
        assert stability_series([day0, day1], 3, 1, "spearman").values == {0: -0.5}

    def test_empty_and_one_member_lists(self):
        empty = Ranking(0, 5, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        one = mk_ranking([4], [7])
        rankings = [empty, one, one, empty, empty]
        for mode in ("intersection", "penalized"):
            got = stability_series(rankings, 5, 1, "spearman", mode).values
            assert got == {0: None, 1: None, 2: None, 3: None}
        assert stability_series(rankings, 5, 1, "retention").values == {
            0: 0.0, 1: 1.0, 2: 0.0, 3: 1.0}

    def test_interval_longer_than_history(self):
        rankings = [mk_ranking([1, 2], [5, 3], day=d) for d in range(3)]
        for metric in ("spearman", "retention"):
            assert stability_series(rankings, 2, 3, metric).values == {}
            assert stability_series(rankings, 2, 50, metric).values == {}

    @given(days=st.lists(day_rankings, min_size=2, max_size=6), n=st.integers(1, 16),
           mode=st.sampled_from(["intersection", "penalized"]), seed=st.integers(0, 99))
    def test_id_permutation_keeps_every_bit(self, days, n, mode, seed):
        # Renaming the ids keeps every list's order, so every coefficient
        # is made from the same integer sums whatever order the ids sort in.
        rankings = [mk_ranking(list(d), list(d.values()), day=i) for i, d in enumerate(days)]
        new_id = np.random.default_rng(seed).permutation(1000)
        renamed = [Ranking(r.day, r.n, new_id[r.ids], r.balances) for r in rankings]
        specs = [("spearman", n, i) for i in range(1, len(days))]
        for spec, series in stability_table(rankings, specs, mode).items():
            assert stability_table(renamed, [spec], mode)[spec].values == series.values

    @pytest.mark.parametrize("mode", ["intersection", "penalized"])
    def test_deep_pair_takes_python_int_sums(self, mode):
        # 60 000 members a list: m * sum(x * x) passes 2**63, where int64
        # arithmetic would wrap.
        rng = np.random.default_rng(11)
        pool = rng.permutation(70_000)
        a = mk_ranking(pool[:60_000].tolist(), rng.integers(1, 5_000, 60_000).tolist())
        b = mk_ranking(pool[10_000:].tolist(), rng.integers(1, 5_000, 60_000).tolist())
        xs = [int(2 * r) for r in average_ranks(a.balances.tolist())]
        assert len(xs) * sum(x * x for x in xs) > 2**63
        got = stability_series([a, b], 60_000, 1, "spearman", mode).values[0]
        assert got == ref_spearman(a, b, mode)
        assert abs(got) > 1e-3

    @given(runs=st.lists(st.integers(1, 4), max_size=12))
    @example(runs=[2, 1])  # balances 5, 5, 3: tie ranks 1.5, 1.5, 3
    def test_tie_ranks_match_loop(self, runs):
        # Non-increasing balances built from run lengths: one run per value.
        # Ids ascend with position, so the day list keeps ranking order; a
        # cut at c must rank as the ranking's top c alone would.
        balances = np.repeat(np.arange(len(runs), 0, -1), runs).astype(np.int64)
        ranking = Ranking(0, len(balances), np.arange(len(balances)), balances)
        day = _DayList(ranking, len(balances))
        for c in range(len(balances) + 1):
            got = _doubled_ranks(day.start[:c], day.stop[:c], c)
            assert got.dtype == np.float64
            assert got.tolist() == (2 * ref_tie_ranks(balances[:c])).tolist()


class TestSpearman:
    def test_identical_is_one(self):
        a = mk_ranking([1, 2, 3, 4, 5], [50, 40, 30, 20, 10])
        assert spearman(a, a) == 1.0

    def test_reversal_is_minus_one(self):
        a = mk_ranking([1, 2, 3, 4, 5], [50, 40, 30, 20, 10])
        b = mk_ranking([1, 2, 3, 4, 5], [10, 20, 30, 40, 50])
        assert spearman(a, b) == -1.0

    def test_hand_case_exactly_08(self):
        a = ranking_from_positions({10: 1, 11: 2, 12: 3, 13: 4, 14: 5})
        b = ranking_from_positions({10: 2, 11: 1, 12: 4, 13: 3, 14: 5})
        # ranks X=[1..5] vs Y=[2,1,4,3,5]: 1 - 6*4/120 = 0.8
        assert spearman(a, b) == 0.8

    def test_symmetric_bitwise(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            ids_a = rng.choice(200, size=50, replace=False)
            ids_b = rng.choice(200, size=50, replace=False)
            a = mk_ranking(ids_a.tolist(), rng.integers(1, 20, 50).tolist())
            b = mk_ranking(ids_b.tolist(), rng.integers(1, 20, 50).tolist())
            assert spearman(a, b) == spearman(b, a)

    def test_small_intersection_undefined(self):
        a = mk_ranking([1, 2], [5, 3])
        b = mk_ranking([2, 3], [5, 3])
        assert spearman(a, b) is None

    def test_all_tied_undefined(self):
        a = mk_ranking([1, 2, 3], [5, 5, 5])
        b = mk_ranking([1, 2, 3], [9, 4, 1])
        assert spearman(a, b) is None

    def test_empty_raises(self):
        a = mk_ranking([1], [5])
        empty = Ranking(0, 5, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        with pytest.raises(ValueError):
            spearman(a, empty)

    def test_matches_oracle_with_ties(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            pool = rng.choice(500, size=120, replace=False)
            ids_a = pool[:80]
            ids_b = pool[40:]
            a = mk_ranking(ids_a.tolist(), rng.integers(1, 15, len(ids_a)).tolist())
            b = mk_ranking(ids_b.tolist(), rng.integers(1, 15, len(ids_b)).tolist())
            got = spearman(a, b)
            want = oracle_spearman(a, b)
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("mode", ["intersection", "penalized"])
    def test_within_1e15_of_fsum_oracle(self, mode):
        rng = np.random.default_rng(43)
        for _ in range(300):
            pool = rng.choice(400, size=150, replace=False)
            cut = int(rng.integers(2, 100))
            a = mk_ranking(pool[:100].tolist(), rng.integers(1, 12, 100).tolist())
            b = mk_ranking(pool[50:].tolist(), rng.integers(1, 12, 100).tolist())
            got = stability_series([a, b], cut, 1, "spearman", mode).values[0]
            ra = dict(zip(a.ids[:cut].tolist(), average_ranks(a.balances[:cut].tolist())))
            rb = dict(zip(b.ids[:cut].tolist(), average_ranks(b.balances[:cut].tolist())))
            members = set(ra) & set(rb) if mode == "intersection" else set(ra) | set(rb)
            want = pearson_fsum([ra.get(i, cut + 1.0) for i in members],
                                [rb.get(i, cut + 1.0) for i in members]) \
                if len(members) > 1 else None
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, rel=0, abs=1e-15)

    def test_penalized_mode_identical(self):
        a = mk_ranking([1, 2, 3], [9, 5, 2])
        assert spearman(a, a, mode="penalized") == 1.0

    def test_penalized_detects_dropout(self):
        # Same order on shared members, but b replaces the tail member.
        a = mk_ranking([1, 2, 3], [9, 5, 2])
        b = mk_ranking([1, 2, 4], [9, 5, 2])
        assert spearman(a, b) == 1.0
        penalized = spearman(a, b, mode="penalized")
        assert penalized is not None and penalized < 1.0

    def test_unknown_mode(self):
        a = mk_ranking([1, 2], [5, 3])
        with pytest.raises(ValueError):
            spearman(a, a, mode="weird")


class TestRetention:
    def test_identical(self):
        a = mk_ranking([1, 2, 3], [9, 5, 2])
        assert retention(a, a, 3) == 1.0

    def test_disjoint(self):
        a = mk_ranking([1, 2], [9, 5])
        b = mk_ranking([3, 4], [9, 5])
        assert retention(a, b, 2) == 0.0

    def test_three_of_five(self):
        a = mk_ranking([1, 2, 3, 4, 5], [9, 8, 7, 6, 5])
        b = mk_ranking([1, 2, 3, 8, 9], [9, 8, 7, 6, 5])
        assert retention(a, b, 5) == 0.6

    def test_truncation_applies(self):
        a = mk_ranking([1, 2, 3, 4], [9, 8, 7, 6])
        b = mk_ranking([3, 4, 1, 2], [9, 8, 7, 6])
        assert retention(a, b, 2) == 0.0

    @given(
        xs=st.sets(st.integers(0, 30), min_size=1, max_size=15),
        ys=st.sets(st.integers(0, 30), min_size=1, max_size=15),
    )
    def test_symmetric_and_bounded(self, xs, ys):
        a = mk_ranking(sorted(xs), list(range(len(xs), 0, -1)))
        b = mk_ranking(sorted(ys), list(range(len(ys), 0, -1)))
        r = retention(a, b, 20)
        assert 0.0 <= r <= 1.0
        assert r == retention(b, a, 20)
        assert (r == 1.0) == (set(a.ids.tolist()) == set(b.ids.tolist()))


class TestSeries:
    def test_constant_ledger_all_ones(self):
        lines = [rec("c0", 0, [], [[f"h{i}", 10 + i] for i in range(8)])]
        ledger = make_ledger(lines, epoch=None)
        # Extend history with empty days via a later no-op day boundary tx.
        lines.append(rec("t", 4 * 86_400, [["h0", 1]], [["h0", 1]]))
        ledger = make_ledger(lines)
        rankings = list(compute_rankings(ledger, 5))
        for metric in ("spearman", "retention"):
            series = stability_series(rankings, 5, 1, metric)
            assert len(series.values) == 4
            assert all(v == 1.0 for v in series.values.values())

    def test_interval_exceeding_history_empty(self):
        lines = [rec("c0", 0, [], [["a", 5]])]
        rankings = compute_rankings(make_ledger(lines), 5)
        series = stability_series(rankings, 5, 10)
        assert series.values == {}

    def test_churn_ledger_retention_constant(self):
        cfg = SynthConfig(seed=3, days=12, regime="churn", churn_rate=0.1,
                          pool=120, reward=0, initial_supply=10**10)
        ledger = generate(cfg)
        rankings = compute_rankings(ledger, 100)
        series = stability_series(rankings, 100, 1, "retention")
        assert len(series.values) == 11
        assert all(v == pytest.approx(0.9) for v in series.values.values())

    def test_churn_spearman_survivors_keep_order(self):
        cfg = SynthConfig(seed=3, days=8, regime="churn", churn_rate=0.1,
                          pool=120, reward=0, initial_supply=10**10)
        rankings = compute_rankings(generate(cfg), 100)
        series = stability_series(rankings, 100, 1, "spearman")
        assert all(v == pytest.approx(1.0) for v in series.values.values())

    def test_retention_decreases_with_churn_rate(self):
        means = []
        for rate in (0.05, 0.1, 0.2):
            cfg = SynthConfig(seed=4, days=10, regime="churn", churn_rate=rate,
                              pool=150, reward=0, initial_supply=10**10)
            rankings = compute_rankings(generate(cfg), 100)
            series = stability_series(rankings, 100, 1, "retention")
            means.append(summarize(series).mean)
        assert means[0] > means[1] > means[2]


class TestReportStability:
    @pytest.mark.parametrize("mode", ["intersection", "penalized"])
    def test_csv_rows_equal_per_series(self, tmp_path, mode):
        # `report` builds all its series in one stability_table call; its
        # rows are those of building each series alone, windowed.
        cfg = SynthConfig(seed=3, days=16, txs_per_day=30, pool=40,
                          regime="preferential", alpha=1.0,
                          initial_supply=10**6, reward=10**3)
        ledger = generate(cfg)
        tops, intervals, focus_n, window = [3, 5, 8], [1, 2, 20], 5, (2, 11)
        build_report(ledger, str(tmp_path), tops=tops, intervals=intervals,
                     focus_n=focus_n, spearman_mode=mode, day_range=window, charts=False)
        rankings = list(compute_rankings(ledger, max(tops)))
        specs = dict.fromkeys((metric, n, interval) for metric in ("spearman", "retention")
                              for n, interval in [(focus_n, i) for i in intervals]
                              + [(t, 1) for t in tops])
        rows = ["day,metric,top,interval,value"]
        for metric, n, interval in specs:
            series = stability_series(rankings, n, interval, metric, mode)
            rows += [",".join(_cell(v) for v in (d, metric, n, interval, value))
                     for d, value in sorted(series.values.items())
                     if window[0] <= d <= window[1]]
        lines = (tmp_path / "stability.csv").read_text().splitlines()
        assert [line for line in lines if not line.startswith("#")] == rows
        assert len(rows) > 50 and any(-1.0 < float(row.rsplit(",", 1)[1]) < 1.0
                                      for row in rows[1:] if ",spearman," in row)


class TestSummarize:
    def test_constant(self):
        s = summarize([0.5] * 10)
        assert s.mean == 0.5
        assert s.std == 0.0
        assert s.iqr == 0.0

    def test_linear_interpolation_quartiles(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.median == 2.5
        assert s.q1 == 1.75
        assert s.q3 == 3.25
        assert s.iqr == pytest.approx(1.5)

    def test_drops_undefined(self):
        s = summarize([1.0, None, 3.0])
        assert s.mean == 2.0
        assert s.min == 1.0 and s.max == 3.0

    def test_empty_is_error(self):
        with pytest.raises(ValueError):
            summarize([None, None])
