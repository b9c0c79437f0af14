import io
import json

import pytest
from hypothesis import given, strategies as st

from ledgerlens import (
    COINBASE,
    LedgerError,
    ParseError,
    Transaction,
    expand_edges,
    parse_ledger,
)
from ledgerlens.ledger import MAX_DAYS, MIN_TIME
from conftest import DAY, make_ledger, rec
from oracles import brute_force_pairs


class TestParse:
    def test_empty_stream(self):
        ledger = make_ledger([])
        assert len(ledger) == 0
        assert ledger.n_days == 0
        assert ledger.genesis_time is None

    def test_single_coinbase(self):
        ledger = make_ledger([rec("c0", 0, [], [["a", 50_0000_0000]])])
        assert len(ledger) == 1
        assert ledger.n_days == 1
        assert ledger.supply_at(0) == 50_0000_0000
        tx = ledger.transaction(0)
        assert tx.is_coinbase
        assert tx.minted == 50_0000_0000

    def test_day_index_two_days(self):
        lines = [
            rec("a", 100, [], [["x", 10]]),
            rec("b", 200, [], [["y", 10]]),
            rec("c", DAY + 1, [], [["z", 10]]),
        ]
        ledger = make_ledger(lines)
        assert ledger.n_days == 2
        assert ledger.day_index == {0: (0, 2), 1: (2, 3)}

    def test_empty_day_in_middle(self):
        lines = [
            rec("a", 0, [], [["x", 10]]),
            rec("b", 2 * DAY, [], [["y", 10]]),
        ]
        ledger = make_ledger(lines)
        assert ledger.n_days == 3
        assert ledger.day_range(1) == (1, 1)

    def test_resort_out_of_order(self):
        lines = [
            rec("b", 500, [], [["y", 10]]),
            rec("a", 100, [], [["x", 10]]),
        ]
        ledger = make_ledger(lines)
        assert ledger.out_of_order == 1
        assert ledger.txids == ["a", "b"]

    def test_tie_broken_by_txid(self):
        lines = [
            rec("z", 100, [], [["x", 10]]),
            rec("a", 100, [], [["y", 10]]),
        ]
        ledger = make_ledger(lines)
        assert ledger.txids == ["a", "z"]

    def test_duplicate_addresses_merged(self):
        ledger = make_ledger([
            rec("c0", 0, [], [["a", 30], ["a", 20]]),
        ])
        tx = ledger.transaction(0)
        assert tx.outputs == [("a", 50)]

    def test_fee_accounting(self, simple_ledger):
        assert simple_ledger.fees_through(1) == 0
        assert simple_ledger.fees_through(2) == 1_0000_0000

    def test_supply_monotone(self, simple_ledger):
        supplies = [simple_ledger.supply_at(d) for d in range(simple_ledger.n_days)]
        assert supplies == sorted(supplies)

    def test_configured_epoch(self):
        ledger = make_ledger([rec("a", 5 * DAY + 7, [], [["x", 1]])], epoch=3 * DAY)
        assert ledger.n_days == 3
        assert ledger.day_range(2) == (0, 1)

    def test_epoch_after_first_tx_rejected(self):
        with pytest.raises(LedgerError):
            make_ledger([rec("a", 0, [], [["x", 1]])], epoch=DAY)


class TestDaySpan:
    @pytest.mark.parametrize("first,last", [
        (0, 9 * 10**18),            # 1.04e14 days of per-day arrays
        (MIN_TIME, 2**63 - 1),      # span beyond int64 seconds
        (0, MAX_DAYS * DAY),        # one day too many
    ])
    def test_span_beyond_max_days_rejected(self, first, last):
        with pytest.raises(LedgerError, match="days"):
            make_ledger([rec("a", first, [], [["x", 5]]),
                         rec("b", last, [], [["y", 5]])])

    def test_epoch_far_before_first_tx_rejected(self):
        with pytest.raises(LedgerError, match="days"):
            make_ledger([rec("a", 0, [], [["x", 5]])], epoch=MIN_TIME)

    def test_max_days_accepted(self):
        ledger = make_ledger([rec("a", 0, [], [["x", 5]]),
                              rec("b", MAX_DAYS * DAY - 1, [], [["y", 5]])])
        assert ledger.n_days == MAX_DAYS
        assert ledger.supply_at(MAX_DAYS - 1) == 10


class TestParseErrors:
    def test_malformed_line_number(self):
        lines = [rec("a", 0, [], [["x", 1]]), "not json"]
        with pytest.raises(ParseError) as err:
            make_ledger(lines)
        assert err.value.line == 2

    def test_negative_value(self):
        with pytest.raises(ParseError, match="negative"):
            make_ledger([rec("a", 0, [], [["x", -5]])])

    def test_zero_value(self):
        with pytest.raises(ParseError, match="zero"):
            make_ledger([rec("a", 0, [], [["x", 0]])])

    def test_float_value(self):
        with pytest.raises(ParseError, match="integer"):
            make_ledger([rec("a", 0, [], [["x", 1.5]])])

    def test_outputs_exceed_inputs(self):
        with pytest.raises(ParseError, match="exceed"):
            make_ledger([
                rec("c", 0, [], [["x", 10]]),
                rec("a", 1, [["x", 5]], [["y", 6]]),
            ])

    def test_reserved_coinbase_address(self):
        with pytest.raises(ParseError, match="reserved"):
            make_ledger([rec("a", 0, [], [[COINBASE, 1]])])

    def test_duplicate_txid(self):
        with pytest.raises(ParseError, match="duplicate"):
            make_ledger([
                rec("a", 0, [], [["x", 1]]),
                rec("a", 5, [], [["y", 1]]),
            ])

    @pytest.mark.parametrize("time", [2**63, 10**30, -(2**63), -(2**63) + 1])
    def test_time_outside_int64_days(self, time):
        # Times must be int64 and no earlier than the first whole UTC day in
        # int64, so that the floored day-0 boundary stays an int64.
        with pytest.raises(ParseError, match="time") as err:
            make_ledger([rec("c", 0, [], [["x", 1]]), rec("a", time, [], [["y", 5]])])
        assert err.value.line == 2

    def test_time_bounds_accepted(self):
        first_day = -(2**63 // DAY) * DAY
        assert make_ledger([rec("a", 2**63 - 1, [], [["x", 5]])]).n_days == 1
        assert make_ledger([rec("a", first_day, [], [["x", 5]])]).n_days == 1

    def test_epoch_outside_int64_is_usage_error(self):
        with pytest.raises(ValueError, match="epoch"):
            make_ledger([rec("a", 0, [], [["x", 5]])], epoch=-(10**20))

    def test_missing_outputs(self):
        with pytest.raises(ParseError, match="outputs"):
            make_ledger([rec("a", 0, [], [])])

    def test_value_beyond_int64(self):
        with pytest.raises(ParseError, match="2\\^63") as err:
            make_ledger([rec("a", 0, [], [["x", 2**63]])])
        assert err.value.line == 1

    def test_merged_value_beyond_int64(self):
        with pytest.raises(ParseError, match="2\\^63"):
            make_ledger([rec("a", 0, [], [["x", 2**62], ["x", 2**62]])])

    def test_transaction_total_beyond_int64(self):
        lines = [
            rec("c", 0, [], [["x", 2**62], ["y", 2**62 - 1]]),
            rec("p", 1, [["x", 2**62], ["y", 2**62 - 1], ["z", 1]], [["w", 1]]),
        ]
        with pytest.raises(ParseError, match="total") as err:
            make_ledger(lines)
        assert err.value.line == 2

    def test_minted_supply_beyond_int64(self):
        lines = [rec(f"c{i}", i, [], [[f"m{i}", 2**62]]) for i in range(3)]
        with pytest.raises(ParseError, match="minted") as err:
            make_ledger(lines)
        assert err.value.line == 2

    def test_blank_lines_skipped(self):
        ledger = make_ledger(["", rec("a", 0, [], [["x", 1]]), "  "])
        assert len(ledger) == 1


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self, simple_ledger):
        buf = io.StringIO()
        simple_ledger.serialize(buf)
        reparsed = parse_ledger(io.StringIO(buf.getvalue()))
        buf2 = io.StringIO()
        reparsed.serialize(buf2)
        assert buf.getvalue() == buf2.getvalue()

    def test_canonical_record_shape(self, simple_ledger):
        record = simple_ledger.canonical_record(0)
        assert list(record) == ["txid", "time", "in", "out"]
        assert json.loads(json.dumps(record)) == record


class TestExpandEdges:
    def test_two_by_three(self):
        tx = Transaction("t", 0,
                         [("a", 5), ("b", 5)],
                         [("x", 3), ("y", 3), ("z", 3)])
        edges = expand_edges(tx)
        assert len(edges) == 6
        assert {(e.src, e.dst) for e in edges} == brute_force_pairs(tx.inputs, tx.outputs)

    def test_coinbase_single_output(self):
        tx = Transaction("t", 0, [], [("x", 50)])
        edges = expand_edges(tx, day=3)
        assert len(edges) == 1
        assert edges[0].src == COINBASE
        assert edges[0].dst == "x"
        assert edges[0].day == 3

    def test_duplicate_inputs_dedup(self):
        tx = Transaction("t", 0, [("a", 1), ("a", 2)], [("b", 3)])
        edges = expand_edges(tx)
        assert len(edges) == 1
        assert {(e.src, e.dst) for e in edges} == brute_force_pairs(tx.inputs, tx.outputs)

    def test_self_loop_kept_at_expansion(self):
        tx = Transaction("t", 0, [("a", 5)], [("a", 5)])
        assert [(e.src, e.dst) for e in expand_edges(tx)] == [("a", "a")]

    @given(
        ins=st.lists(st.integers(0, 30), min_size=1, max_size=20),
        outs=st.lists(st.integers(0, 30), min_size=1, max_size=20),
    )
    def test_count_is_distinct_product(self, ins, outs):
        tx = Transaction(
            "t", 0,
            [(f"i{v}", 1) for v in ins] + [("pad", len(outs))],
            [(f"o{v}", 1) for v in outs],
        )
        edges = expand_edges(tx)
        n_in = len(set(a for a, _ in tx.inputs))
        n_out = len(set(a for a, _ in tx.outputs))
        assert len(edges) == n_in * n_out
        assert len(set(edges)) == len(edges)


class TestExpandedArrays:
    def test_matches_per_tx_expansion(self, simple_ledger):
        arrays = simple_ledger.expanded_edges()
        names = simple_ledger.addresses.names
        got = [
            (names[s], names[t], int(d))
            for s, t, d in zip(arrays.src, arrays.dst, arrays.day)
        ]
        expected = []
        for d in range(simple_ledger.n_days):
            lo, hi = simple_ledger.day_range(d)
            for i in range(lo, hi):
                for e in expand_edges(simple_ledger.transaction(i), day=d):
                    expected.append((e.src, e.dst, e.day))
        assert got == expected

    def test_day_ptr_slices(self, simple_ledger):
        arrays = simple_ledger.expanded_edges()
        assert arrays.day_ptr[0] == 0
        assert arrays.day_ptr[-1] == len(arrays.src)

    def test_value_split_conserves_outputs(self):
        lines = [
            rec("c0", 0, [], [["a", 100], ["b", 50]]),
            rec("p", DAY, [["a", 60], ["b", 40]], [["c", 70], ["d", 20]]),
        ]
        ledger = make_ledger(lines)
        arrays = ledger.expanded_edges(with_values=True)
        lo, hi = arrays.day_ptr[1], arrays.day_ptr[2]
        assert arrays.values[lo:hi].sum() == pytest.approx(90.0)
