import numpy as np
import pytest

from ledgerlens import (
    BalanceError,
    compute_rankings,
    compute_snapshots,
    proportion,
    proportion_diff_series,
    top_n,
)
from ledgerlens.balances import proportion_series, snapshot_at
from conftest import DAY, make_ledger, rec

BTC = 10**8


def snapshots_list(ledger):
    return list(compute_snapshots(ledger))


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
        ranking = top_n(snapshots_list(ledger)[0], 2)
        assert ranking.entries() == [("A", 5), ("B", 3)]

    def test_n_larger_than_funded(self):
        ledger = make_ledger([rec("c0", 0, [], [["A", 5], ["B", 3]])])
        ranking = top_n(snapshots_list(ledger)[0], 10)
        assert ranking.entries() == [("A", 5), ("B", 3)]

    def test_tie_breaks_by_address(self):
        ledger = make_ledger([
            rec("c0", 0, [], [["zed", 5], ["amy", 5], ["bob", 3]]),
        ])
        snap = snapshots_list(ledger)[0]
        ranking = top_n(snap, 3)
        oracle = sorted(snap.as_dict().items(), key=lambda kv: (-kv[1], kv[0]))
        assert ranking.entries() == oracle

    def test_boundary_tie_cut_is_deterministic(self):
        ledger = make_ledger([
            rec("c0", 0, [], [["d", 5], ["c", 5], ["b", 5], ["a", 9]]),
        ])
        ranking = top_n(snapshots_list(ledger)[0], 2)
        assert ranking.entries() == [("a", 9), ("b", 5)]

    def test_zero_balances_excluded(self):
        ledger = make_ledger([
            rec("c0", 0, [], [["A", 5], ["B", 3]]),
            rec("p1", DAY, [["B", 3]], [["A", 3]]),
        ])
        ranking = top_n(snapshots_list(ledger)[-1], 10)
        assert [a for a, _ in ranking.entries()] == ["A"]

    def test_tie_ranks_average(self):
        ledger = make_ledger([
            rec("c0", 0, [], [["A", 5], ["B", 5], ["C", 3]]),
        ])
        ranking = top_n(snapshots_list(ledger)[0], 3)
        assert ranking.tie_ranks().tolist() == [1.5, 1.5, 3.0]


class TestProportion:
    def test_single_holder_everything(self):
        ledger = make_ledger([rec("c0", 0, [], [["A", 1000]])])
        assert proportion(snapshots_list(ledger)[0], 100) == 1.0

    def test_equal_holders_symmetry(self):
        outs = [[f"h{i:04d}", 10] for i in range(2000)]
        ledger = make_ledger([rec("c0", 0, [], outs)])
        assert proportion(snapshots_list(ledger)[0], 100) == pytest.approx(0.05)

    def test_no_supply_is_error(self):
        ledger = make_ledger([rec("c0", 2 * DAY, [], [["A", 10]])], epoch=0)
        snaps = snapshots_list(ledger)
        assert snaps[0].total_supply == 0
        with pytest.raises(ValueError):
            proportion(snaps[0], 10)

    def test_monotone_in_n_and_reaches_one(self):
        outs = [[f"h{i}", (i + 1) * 7] for i in range(50)]
        ledger = make_ledger([rec("c0", 0, [], outs)])
        snap = snapshots_list(ledger)[0]
        values = [proportion(snap, n) for n in range(1, 60)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0  # n >= funded count, no fees


class TestProportionDiffs:
    def test_first_column_equals_top_step(self):
        outs = [[f"h{i:03d}", 100 - i] for i in range(40)]
        ledger = make_ledger([rec("c0", 0, [], outs)])
        days, xs, matrix = proportion_diff_series(
            compute_snapshots(ledger), step=10, max_n=40
        )
        snap = snapshots_list(ledger)[0]
        assert days == [0]
        assert xs == [0, 10, 20, 30]
        assert matrix[0, 0] == pytest.approx(proportion(snap, 10))

    def test_uniform_rows_equal(self):
        outs = [[f"h{i:03d}", 5] for i in range(40)]
        ledger = make_ledger([rec("c0", 0, [], outs)])
        _, _, matrix = proportion_diff_series(
            compute_snapshots(ledger), step=10, max_n=40
        )
        assert np.allclose(matrix[0], matrix[0, 0])

    def test_geometric_strictly_decreasing_and_closed_form(self):
        n = 40
        outs = [[f"h{i:03d}", 2 ** (n - i)] for i in range(1, n + 1)]
        ledger = make_ledger([rec("c0", 0, [], outs)])
        days, xs, matrix = proportion_diff_series(
            compute_snapshots(ledger), step=10, max_n=n
        )
        row = matrix[0]
        assert all(row[j] > row[j + 1] for j in range(len(row) - 1))
        total = 2 ** n - 1
        for j, x in enumerate(xs):
            expected = ((2 ** n - 2 ** (n - (x + 10))) - (2 ** n - 2 ** (n - x))) / total
            assert row[j] == pytest.approx(expected, rel=1e-12)

    def test_step_must_divide(self):
        with pytest.raises(ValueError):
            proportion_diff_series(iter(()), step=3, max_n=10)


class TestRankingsPass:
    def test_matches_snapshot_path(self, simple_ledger):
        rankings = compute_rankings(simple_ledger, 5)
        for snap, ranking in zip(compute_snapshots(simple_ledger), rankings):
            assert ranking.entries() == top_n(snap, 5).entries()

    def test_proportion_series_matches_pointwise(self, simple_ledger):
        rankings = compute_rankings(simple_ledger, 5)
        supplies = [simple_ledger.supply_at(d) for d in range(simple_ledger.n_days)]
        matrix = proportion_series(rankings, supplies, [1, 2, 5])
        for d, snap in enumerate(compute_snapshots(simple_ledger)):
            for j, n in enumerate([1, 2, 5]):
                assert matrix[d, j] == pytest.approx(proportion(snap, n))
