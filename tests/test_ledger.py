import io
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ledgerlens import (
    COINBASE,
    LedgerError,
    ParseError,
    parse_ledger,
)
from ledgerlens.ledger import MAX_DAYS, MIN_TIME, AddressTable, _Columns
from conftest import DAY, make_ledger, rec
from oracles import brute_force_pairs, expand_ledger


class TestParse:
    def test_empty_stream(self):
        ledger = make_ledger([])
        assert len(ledger) == 0
        assert ledger.n_days == 0
        assert len(ledger.times) == 0

    def test_single_coinbase(self):
        ledger = make_ledger([rec("c0", 0, [], [["a", 50_0000_0000]])])
        assert len(ledger) == 1
        assert ledger.n_days == 1
        assert ledger.supply_at(0) == 50_0000_0000
        assert ledger.canonical_record(0) == {
            "txid": "c0", "time": 0, "in": [], "out": [["a", 50_0000_0000]]}

    def test_day_index_two_days(self):
        lines = [
            rec("a", 100, [], [["x", 10]]),
            rec("b", 200, [], [["y", 10]]),
            rec("c", DAY + 1, [], [["z", 10]]),
        ]
        ledger = make_ledger(lines)
        assert ledger.n_days == 2
        assert [ledger.day_range(d) for d in range(ledger.n_days)] == [(0, 2), (2, 3)]

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
        assert ledger.canonical_record(0)["out"] == [["a", 50]]

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


class TestInterning:
    def test_ids_in_first_appearance_order(self):
        table = AddressTable(["b"])
        assert table.intern_all(["c", "b", "c", "a", "d", "a"]).tolist() == [2, 1, 2, 3, 4, 3]
        assert table.names == [COINBASE, "b", "c", "a", "d"]
        assert table.intern_all(["d", "e"]).tolist() == [4, 5]

    def test_id_of_interns_nothing(self):
        table = AddressTable(["a"])
        assert table.id_of("a") == 1
        with pytest.raises(KeyError):
            table.id_of("b")
        assert table.names == [COINBASE, "a"]

    def test_refused_chunk_interns_nothing(self):
        # The second record's zero value refuses the whole chunk after its
        # first record's addresses were read.
        cols = _Columns()
        assert not cols.take([rec("a", 0, [], [["x", 5]]), rec("b", 0, [], [["y", 0]])])
        assert cols.table.names == [COINBASE]
        assert cols.take([rec("a", 0, [], [["y", 5], ["x", 1]])])
        assert cols.table.names == [COINBASE, "y", "x"]

    def test_parsed_ledger_drops_its_name_index(self):
        ledger = make_ledger([rec("a", 0, [], [["x", 5]]), rec("b", 1, [["x", 5]], [["y", 5]])])
        table = ledger.addresses
        assert table._index is None
        assert table.intern_all(["y", "z"]).tolist() == [2, 3]


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

    @pytest.mark.parametrize("line", [
        rec("\ud800x", 0, [], [["x", 1]]),
        rec("a", 0, [], [["x\udfff", 1]]),
        rec("a", 0, [["x\udc80", 1]], [["y", 1]]),
    ])
    def test_lone_surrogate_rejected(self, line):
        # json.loads turns a lone "\ud800" escape into a str that cannot be
        # written out as UTF-8, so ingest refuses it with the line number.
        with pytest.raises(ParseError, match="surrogate") as err:
            make_ledger([rec("c", 0, [], [["x", 1]]), line])
        assert err.value.line == 2

    def test_non_ascii_names_accepted(self):
        # A surrogate pair escape is one valid astral code point.
        ledger = make_ledger([rec("t\ud83d\ude00", 0, [], [["\xe9", 1], ["\u4e2d", 2]])])
        assert ledger.txids == ["t\U0001f600"]
        assert ledger.addresses.names[1:] == ["\xe9", "\u4e2d"]

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


def _everyone(ledger):
    return np.ones(len(ledger.addresses), dtype=bool)


def _expanded_pairs(ins, outs):
    """The (input, output) address pairs that `Ledger._expand` gives the one
    parsed transaction of `ins` and `outs`, every address in focus, checked
    against the brute-force pairs of its distinct addresses (COINBASE the
    one input of a coinbase)."""
    ledger = make_ledger([rec("t", 0, ins, outs)])
    edges = ledger._expand(0, 1, _everyone(ledger))
    names = ledger.addresses.names
    pairs = [(names[s], names[d]) for s, d in zip(edges.src.tolist(), edges.dst.tolist())]
    assert edges.tx.tolist() == [0] * len(pairs)
    assert len(set(pairs)) == len(pairs)
    assert set(pairs) == brute_force_pairs(ins or [[COINBASE, 0]], outs)
    return pairs


class TestExpandEdges:
    def test_two_by_three(self):
        pairs = _expanded_pairs([["a", 5], ["b", 5]], [["x", 3], ["y", 3], ["z", 3]])
        assert len(pairs) == 6

    def test_coinbase_single_output(self):
        assert _expanded_pairs([], [["x", 50]]) == [(COINBASE, "x")]
        # An edge's day is its transaction's.
        ledger = make_ledger([rec("t", 3 * DAY, [], [["x", 50]])], epoch=0)
        assert ledger.days[ledger._expand(0, 1, _everyone(ledger)).tx].tolist() == [3]

    def test_duplicate_inputs_dedup(self):
        assert _expanded_pairs([["a", 1], ["a", 2]], [["b", 3]]) == [("a", "b")]

    def test_self_loop_kept_at_expansion(self):
        assert _expanded_pairs([["a", 5]], [["a", 5]]) == [("a", "a")]

    @given(
        ins=st.lists(st.integers(0, 30), min_size=1, max_size=20),
        outs=st.lists(st.integers(0, 30), min_size=1, max_size=20),
    )
    def test_count_is_distinct_product(self, ins, outs):
        ins = [[f"i{v}", 1] for v in ins] + [["pad", len(outs)]]
        outs = [[f"o{v}", 1] for v in outs]
        pairs = _expanded_pairs(ins, outs)
        assert len(pairs) == len({a for a, _ in ins}) * len({b for b, _ in outs})


class TestExpandedArrays:
    def test_matches_per_tx_expansion(self, simple_ledger):
        # The reference whole-ledger expansion against one built from each
        # transaction's canonical record, then the focus expansion with
        # every address in focus.
        arrays = expand_ledger(simple_ledger)
        names = simple_ledger.addresses.names
        got = [
            (names[s], names[t], int(d))
            for s, t, d in zip(arrays.src, arrays.dst, arrays.day)
        ]
        expected = []
        for d in range(simple_ledger.n_days):
            lo, hi = simple_ledger.day_range(d)
            for i in range(lo, hi):
                record = simple_ledger.canonical_record(i)
                ins = [a for a, _ in record["in"]] or [COINBASE]
                expected += [(a, b, d) for a in ins for b, _ in record["out"]]
        assert got == expected
        edges = simple_ledger._expand(0, len(simple_ledger), _everyone(simple_ledger))
        assert edges.src.tolist() == arrays.src.tolist()
        assert edges.dst.tolist() == arrays.dst.tolist()
        assert edges.tx.tolist() == arrays.tx.tolist()
        assert edges.values is None

    def test_day_ptr_slices(self, simple_ledger):
        arrays = expand_ledger(simple_ledger)
        assert arrays.day_ptr[0] == 0
        assert arrays.day_ptr[-1] == len(arrays.src)
        for d in range(simple_ledger.n_days):
            lo, hi = arrays.day_ptr[d], arrays.day_ptr[d + 1]
            edges = simple_ledger._expand(*simple_ledger.day_range(d),
                                          _everyone(simple_ledger))
            assert edges.src.tolist() == arrays.src[lo:hi].tolist()
            assert edges.dst.tolist() == arrays.dst[lo:hi].tolist()

    def test_value_split_conserves_outputs(self):
        lines = [
            rec("c0", 0, [], [["a", 100], ["b", 50]]),
            rec("p", DAY, [["a", 60], ["b", 40]], [["c", 70], ["d", 20]]),
        ]
        ledger = make_ledger(lines)
        edges = ledger._expand(*ledger.day_range(1), _everyone(ledger), with_values=True)
        assert edges.values.sum() == pytest.approx(90.0)


POOL = [f"a{i}" for i in range(6)]
entries = st.lists(st.tuples(st.sampled_from(POOL), st.integers(1, 40)),
                   min_size=1, max_size=5)


@st.composite
def focus_expansions(draw):
    """A ledger of coinbases and payments over six addresses (repeats on a
    side merged, self-loops and empty days included), a transaction range
    and a focus mask over every address id, COINBASE too."""
    lines = []
    for i in range(draw(st.integers(1, 10))):
        outs = draw(entries)
        ins = [] if draw(st.booleans()) else draw(entries) + [("a0", sum(v for _, v in outs))]
        day = draw(st.integers(0, 4))
        lines.append(rec(f"t{i}", day * DAY + i, [list(e) for e in ins],
                         [list(e) for e in outs]))
    ledger = make_ledger(lines)
    start = draw(st.integers(0, len(ledger)))
    stop = draw(st.integers(start, len(ledger)))
    n = len(ledger.addresses)
    focus = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    return ledger, start, stop, focus


class TestFocusExpansion:
    @given(focus_expansions())
    def test_matches_filtered_reference(self, case):
        ledger, start, stop, focus = case
        ref = expand_ledger(ledger, with_values=True)
        sel = (ref.tx >= start) & (ref.tx < stop) & (focus[ref.src] | focus[ref.dst])
        got = ledger._expand(start, stop, focus, with_values=True)
        assert got.src.tolist() == ref.src[sel].tolist()
        assert got.dst.tolist() == ref.dst[sel].tolist()
        assert got.tx.tolist() == ref.tx[sel].tolist()
        assert got.values.dtype == np.float64
        assert got.values.tolist() == ref.values[sel].tolist()
        plain = ledger._expand(start, stop, focus)
        assert plain.values is None
        assert plain.src.tolist() == got.src.tolist()
        assert plain.dst.tolist() == got.dst.tolist()

    def test_empty_ledger(self):
        ledger = make_ledger([])
        edges = ledger._expand(0, 0, np.ones(1, dtype=bool), with_values=True)
        assert len(edges.src) == len(edges.dst) == len(edges.tx) == len(edges.values) == 0
