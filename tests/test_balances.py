import numpy as np
import pytest
from hypothesis import given, strategies as st

from ledgerlens import BalanceError, compute_rankings, compute_snapshots
from ledgerlens.balances import (
    Ranking, adjacent_diff, proportion_series, rank_balances, snapshot_at,
)
from ledgerlens.ledger import AddressTable
from conftest import DAY, make_ledger, rec

BTC = 10**8


def snapshots_list(ledger):
    return list(compute_snapshots(ledger))


def top(snap, n):
    return rank_balances(snap.balances, n, snap.addresses, snap.day)


def share(snap, n):
    """Top-n share of the day's minted supply, through proportion_series."""
    return float(proportion_series([top(snap, n)], [snap.total_supply], [n])[0, 0])


def diffs(snap, step, max_n):
    """Adjacent top-bucket share differences at x = 0, step, ..., max_n - step."""
    tops = range(step, max_n + 1, step)
    return adjacent_diff(proportion_series([top(snap, max_n)], [snap.total_supply], tops))


class TestSnapshots:
    def test_single_coinbase(self):
        ledger = make_ledger([rec("c0", 0, [], [["A", 50 * BTC]])])
        snaps = snapshots_list(ledger)
        assert len(snaps) == 1
        assert snaps[0].as_dict() == {"A": 50 * BTC}
        assert snaps[0].total_supply == 50 * BTC

    def test_payment_debits_and_credits(self):
        ledger = make_ledger([
            rec("c0", 0, [], [["A", 50 * BTC]]),
            rec("p1", DAY, [["A", 20 * BTC]], [["B", 20 * BTC]]),
        ])
        snaps = snapshots_list(ledger)
        assert snaps[1].as_dict() == {"A": 30 * BTC, "B": 20 * BTC}

    def test_fee_reduces_balance_total(self):
        fee = 1_000_000
        ledger = make_ledger([
            rec("c0", 0, [], [["A", 50 * BTC]]),
            rec("p1", DAY, [["A", 20 * BTC]], [["B", 20 * BTC - fee]]),
        ])
        last = snapshots_list(ledger)[-1]
        assert int(last.balances.sum()) == last.total_supply - fee

    def test_conservation_every_day(self, simple_ledger):
        for snap in compute_snapshots(simple_ledger):
            assert int(snap.balances.sum()) + snap.fees_to_date == snap.total_supply

    def test_snapshot_at_matches_walk(self, simple_ledger):
        for snap in compute_snapshots(simple_ledger):
            one = snapshot_at(simple_ledger, snap.day)
            assert (one.balances == snap.balances).all()
            assert (one.total_supply, one.fees_to_date) == (snap.total_supply, snap.fees_to_date)
        for day in (-1, simple_ledger.n_days):
            with pytest.raises(ValueError):
                snapshot_at(simple_ledger, day)

    def test_incremental_equals_batch(self, simple_ledger):
        last = snapshots_list(simple_ledger)[-1]
        batch = np.zeros(len(simple_ledger.addresses), dtype=np.int64)
        np.subtract.at(batch, simple_ledger.in_addr, simple_ledger.in_val)
        np.add.at(batch, simple_ledger.out_addr, simple_ledger.out_val)
        assert (batch == last.balances).all()

    def test_intra_day_order_is_net(self):
        # B spends coins it only receives later the same day; the end-of-day
        # state is what matters.
        ledger = make_ledger([
            rec("c0", 0, [], [["A", 100]]),
            rec("p1", DAY, [["B", 30]], [["C", 30]]),
            rec("p2", DAY + 5, [["A", 30]], [["B", 30]]),
        ])
        assert snapshots_list(ledger)[-1].as_dict() == {"A": 70, "C": 30}

    def test_negative_balance_names_txid(self):
        ledger = make_ledger([
            rec("c0", 0, [], [["A", 10]]),
            rec("p1", DAY, [["A", 10]], [["B", 10]]),
            rec("p2", 2 * DAY, [["A", 5]], [["B", 5]]),
        ])
        with pytest.raises(BalanceError) as err:
            snapshots_list(ledger)
        assert err.value.txid == "p2"
        assert err.value.day == 2


class TestTopN:
    def test_basic(self):
        ledger = make_ledger([
            rec("c0", 0, [], [["A", 5], ["B", 3], ["C", 1]]),
        ])
        ranking = top(snapshots_list(ledger)[0], 2)
        assert ranking.entries() == [("A", 5), ("B", 3)]

    def test_n_larger_than_funded(self):
        ledger = make_ledger([rec("c0", 0, [], [["A", 5], ["B", 3]])])
        ranking = top(snapshots_list(ledger)[0], 10)
        assert ranking.entries() == [("A", 5), ("B", 3)]

    def test_tie_breaks_by_address(self):
        ledger = make_ledger([
            rec("c0", 0, [], [["zed", 5], ["amy", 5], ["bob", 3]]),
        ])
        snap = snapshots_list(ledger)[0]
        ranking = top(snap, 3)
        oracle = sorted(snap.as_dict().items(), key=lambda kv: (-kv[1], kv[0]))
        assert ranking.entries() == oracle

    def test_boundary_tie_cut_is_deterministic(self):
        ledger = make_ledger([
            rec("c0", 0, [], [["d", 5], ["c", 5], ["b", 5], ["a", 9]]),
        ])
        ranking = top(snapshots_list(ledger)[0], 2)
        assert ranking.entries() == [("a", 9), ("b", 5)]

    def test_zero_balances_excluded(self):
        ledger = make_ledger([
            rec("c0", 0, [], [["A", 5], ["B", 3]]),
            rec("p1", DAY, [["B", 3]], [["A", 3]]),
        ])
        ranking = top(snapshots_list(ledger)[-1], 10)
        assert [a for a, _ in ranking.entries()] == ["A"]

    def test_tie_ranks_average(self):
        ledger = make_ledger([
            rec("c0", 0, [], [["A", 5], ["B", 5], ["C", 3]]),
        ])
        ranking = top(snapshots_list(ledger)[0], 3)
        assert ranking.tie_ranks().tolist() == [1.5, 1.5, 3.0]

    @pytest.mark.parametrize("n", [0, -5])
    def test_truncated_below_one(self, n):
        # Unchecked, -5 would slice ids[:-5]: every member but the last five.
        ledger = make_ledger([rec("c0", 0, [], [[f"h{i}", 10 + i] for i in range(8)])])
        ranking = top(snapshots_list(ledger)[0], 8)
        with pytest.raises(ValueError, match="n must be >= 1"):
            ranking.truncated(n)


def reference_rank_balances(balances, n, addresses, day):
    """The ranking as first written, with Python sorts on address strings:
    the oracle for the vectorized `rank_balances`."""
    if n < 1:
        raise ValueError("n must be >= 1")
    names = addresses.names
    funded = np.flatnonzero(balances > 0)
    vals = balances[funded]
    if len(funded) > n:
        part = np.argpartition(vals, len(vals) - n)[len(vals) - n:]
        threshold = vals[part].min()
        above = funded[vals > threshold]
        need = n - len(above)
        if need > 0:
            tied = sorted(funded[vals == threshold], key=lambda i: names[i])
            chosen = np.concatenate((above, np.asarray(tied[:need], dtype=np.int64)))
        else:
            chosen = above
    else:
        chosen = funded
    chosen_vals = balances[chosen]
    order = sorted(range(len(chosen)), key=lambda j: (-chosen_vals[j], names[chosen[j]]))
    order = np.asarray(order, dtype=np.int64)
    return Ranking(day, n, chosen[order], chosen_vals[order], addresses)


def assert_same_ranking(balances, n, table):
    got = rank_balances(balances, n, table, 3)
    want = reference_rank_balances(balances, n, table, 3)
    for a, b in ((got.ids, want.ids), (got.balances, want.balances)):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert (got.day, got.n) == (want.day, want.n)


def table_of(names):
    table = AddressTable()
    for name in names:
        table.intern(name)
    return table


# Few characters, so names share prefixes; NUL and non-ASCII code points make
# string order differ from both id order and numpy 'U' order.
NAME_CHARS = st.sampled_from(["a", "b", "Z", "\x00", "\x7f", "\xe9", "\u4e2d", "\U0001f600"])


@st.composite
def ranking_inputs(draw):
    names = draw(st.lists(st.text(NAME_CHARS, min_size=1, max_size=4),
                          min_size=1, max_size=40, unique=True))
    table = table_of(names)
    # Mostly tiny values, so tie groups straddle the cut; zeros are unfunded.
    value = st.one_of(st.integers(0, 3), st.integers(1, 2**62))
    balances = np.asarray(draw(st.lists(value, min_size=len(table), max_size=len(table))),
                          dtype=np.int64)
    return balances, draw(st.integers(1, len(table) + 2)), table


class TestRankKernel:
    @given(ranking_inputs())
    def test_matches_reference(self, case):
        balances, n, table = case
        funded = int((balances > 0).sum())
        for k in {n, funded - 1, funded, funded + 1}:
            if k >= 1:
                assert_same_ranking(balances, k, table)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_ties_across_cut_by_code_point(self, n):
        # "a\x00" is interned before "a" but sorts after it; numpy 'U'
        # strings would call the two equal.
        table = table_of(["b", "a\x00", "\xe9", "a", "Z"])
        balances = np.array([0, 7, 7, 7, 7, 9], dtype=np.int64)
        assert_same_ranking(balances, n, table)
        ranking = rank_balances(balances, 5, table, 0)
        assert ranking.entries() == [("Z", 9), ("a", 7), ("a\x00", 7), ("b", 7), ("\xe9", 7)]

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_all_zero(self, n):
        table = table_of(["a", "b"])
        balances = np.zeros(len(table), dtype=np.int64)
        assert_same_ranking(balances, n, table)
        assert len(rank_balances(balances, n, table, 0)) == 0

    def test_name_rank_refreshes_after_intern(self):
        table = table_of(["b", "c"])
        balances = np.array([0, 5, 5], dtype=np.int64)
        assert rank_balances(balances, 1, table, 0).entries() == [("b", 5)]
        table.intern("\x00")
        balances = np.append(balances, 5)
        assert len(table.name_rank) == len(table)
        assert_same_ranking(balances, 1, table)
        assert rank_balances(balances, 1, table, 0).entries() == [("\x00", 5)]

    @given(ranking_inputs())
    def test_funded_totals_cover_every_funded_address(self, case):
        # The totals are those of all funded balances in id order, whatever
        # the depth, and a truncated ranking keeps them; the sum of squares
        # is numpy's pairwise sum, never a BLAS dot.
        balances, n, table = case
        funded = balances[balances > 0]
        as_float = funded.astype(np.float64)
        ranking = rank_balances(balances, n, table, 3)
        for r in (ranking, ranking.truncated(1)):
            assert r.funded_total == int(funded.sum())
            assert r.funded_sq == float(np.add.reduce(as_float * as_float))


class TestProportion:
    def test_single_holder_everything(self):
        ledger = make_ledger([rec("c0", 0, [], [["A", 1000]])])
        assert share(snapshots_list(ledger)[0], 100) == 1.0

    def test_equal_holders_symmetry(self):
        outs = [[f"h{i:04d}", 10] for i in range(2000)]
        ledger = make_ledger([rec("c0", 0, [], outs)])
        assert share(snapshots_list(ledger)[0], 100) == pytest.approx(0.05)

    def test_no_supply_is_error(self):
        # A day before any minting has no share base: its row is NaN.
        ledger = make_ledger([rec("c0", 2 * DAY, [], [["A", 10]])], epoch=0)
        snaps = snapshots_list(ledger)
        assert snaps[0].total_supply == 0
        assert np.isnan(share(snaps[0], 10))

    def test_monotone_in_n_and_reaches_one(self):
        outs = [[f"h{i}", (i + 1) * 7] for i in range(50)]
        ledger = make_ledger([rec("c0", 0, [], outs)])
        snap = snapshots_list(ledger)[0]
        values = [share(snap, n) for n in range(1, 60)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0  # n >= funded count, no fees


class TestProportionDiffs:
    def test_first_column_equals_top_step(self):
        outs = [[f"h{i:03d}", 100 - i] for i in range(40)]
        ledger = make_ledger([rec("c0", 0, [], outs)])
        snap = snapshots_list(ledger)[0]
        matrix = diffs(snap, 10, 40)
        assert matrix.shape == (1, 4)
        assert matrix[0, 0] == pytest.approx(share(snap, 10))

    def test_uniform_rows_equal(self):
        outs = [[f"h{i:03d}", 5] for i in range(40)]
        ledger = make_ledger([rec("c0", 0, [], outs)])
        matrix = diffs(snapshots_list(ledger)[0], 10, 40)
        assert np.allclose(matrix[0], matrix[0, 0])

    def test_geometric_strictly_decreasing_and_closed_form(self):
        n = 40
        outs = [[f"h{i:03d}", 2 ** (n - i)] for i in range(1, n + 1)]
        ledger = make_ledger([rec("c0", 0, [], outs)])
        row = diffs(snapshots_list(ledger)[0], 10, n)[0]
        assert all(row[j] > row[j + 1] for j in range(len(row) - 1))
        total = 2 ** n - 1
        for j, x in enumerate(range(0, n, 10)):
            expected = ((2 ** n - 2 ** (n - (x + 10))) - (2 ** n - 2 ** (n - x))) / total
            assert row[j] == pytest.approx(expected, rel=1e-12)


class TestRankingsPass:
    def test_matches_snapshot_path(self, simple_ledger):
        rankings = compute_rankings(simple_ledger, 5)
        for snap, ranking in zip(compute_snapshots(simple_ledger), rankings):
            assert ranking.entries() == top(snap, 5).entries()

    def test_proportion_series_matches_pointwise(self, simple_ledger):
        rankings = compute_rankings(simple_ledger, 5)
        supplies = [simple_ledger.supply_at(d) for d in range(simple_ledger.n_days)]
        matrix = proportion_series(rankings, supplies, [1, 2, 5])
        for d, snap in enumerate(compute_snapshots(simple_ledger)):
            held = sorted(snap.as_dict().values(), reverse=True)
            for j, n in enumerate([1, 2, 5]):
                assert matrix[d, j] == pytest.approx(sum(held[:n]) / snap.total_supply)
