"""Columnar ingest against the record-at-a-time reference parser.

`parse_ledger` decodes and checks a chunk of lines at once and walks a chunk
record by record only when it fails a check.  These tests hold it to the
reference in `oracles.parse_ledger_records`: the same arrays, names and hash
for every valid export, and the same (line, message) for every bad one,
wherever the bad line falls against the chunk boundaries.
"""

import io
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ledgerlens import (
    COINBASE,
    Ledger,
    LedgerError,
    ParseError,
    compute_rankings,
    d_static_series,
    dispersion_series,
    hhi_series,
    load_ledger,
    parse_ledger,
)
from ledgerlens import ledger as ledger_mod
from ledgerlens.cli import run
from ledgerlens.store import content_hash
from conftest import DAY, rec
from oracles import parse_ledger_records

ARRAYS = ("times", "in_ptr", "in_addr", "in_val", "out_ptr", "out_addr", "out_val")


def assert_same_ledger(got, want):
    assert got.txids == want.txids
    for name in ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype == np.int64, name
        assert np.array_equal(a, b), name
    assert got.addresses.names == want.addresses.names
    assert got.out_of_order == want.out_of_order
    assert got.epoch_start == want.epoch_start
    assert content_hash(got) == content_hash(want)


def outcome(parse, lines, epoch=None):
    """The ledger a parser returns, the (line, message) of the ParseError it
    raises, or the text of another LedgerError."""
    try:
        return parse(iter(lines), epoch=epoch)
    except ParseError as exc:
        return (exc.line, exc.message)
    except LedgerError as exc:
        return str(exc)


def assert_same_outcome(lines, epoch=None):
    want = outcome(parse_ledger_records, lines, epoch)
    got = outcome(parse_ledger, lines, epoch)
    if isinstance(want, Ledger):
        assert_same_ledger(got, want)
    else:
        assert got == want


def chunk_lines(n):
    return mock.patch.object(ledger_mod, "_CHUNK_LINES", n)


# NUL and non-ASCII code points: txids "a" and "a\x00" differ only in a
# trailing NUL, and string order differs from UTF-8 byte order.
CHARS = st.sampled_from(["a", "b", "\x00", "\xe9", "中", "\U0001f600"])
NAMES = st.text(CHARS, min_size=1, max_size=3)
VALUES = st.one_of(st.integers(1, 9), st.integers(1, 2**40))
# Few times, so records tie and arrive out of order.
TIMES = st.sampled_from([0, 7, DAY - 1, DAY, 3 * DAY + 5])


@st.composite
def valid_records(draw, max_records=14):
    txids = draw(st.lists(NAMES, max_size=max_records, unique=True))
    pool = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    entry = st.tuples(st.sampled_from(pool), VALUES).map(list)
    records = []
    for txid in txids:
        outs = draw(st.lists(entry, min_size=1, max_size=4))
        ins = draw(st.lists(entry, max_size=4))
        short = sum(v for _, v in outs) - sum(v for _, v in ins)
        if ins and short > 0:
            ins.append([draw(st.sampled_from(pool)), short])
        records.append({"txid": txid, "time": draw(TIMES), "in": ins, "out": outs})
    return records


@st.composite
def export_lines(draw, records):
    """`records` as the lines of a str or bytes stream, escaped or not, with
    blank and whitespace-only lines between them and \\n or \\r\\n ends."""
    ascii_only = draw(st.booleans())
    lines = []
    for r in records:
        lines += draw(st.lists(st.sampled_from(["", "  ", "\t"]), max_size=1))
        lines.append(json.dumps(r, ensure_ascii=ascii_only))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = [line + end for line in lines]
    if draw(st.booleans()):
        lines = [line.encode("utf-8") for line in lines]
    return lines


class TestValidParity:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from([1, 2, 3, 256]))
    def test_same_ledger_as_reference(self, data, chunk):
        records = data.draw(valid_records())
        lines = data.draw(export_lines(records))
        with chunk_lines(chunk):
            assert_same_outcome(lines)

    @settings(max_examples=30, deadline=None)
    @given(valid_records(max_records=6), st.sampled_from([0, DAY, -5 * DAY + 3]))
    def test_same_ledger_with_epoch(self, records, epoch):
        lines = [json.dumps(r) for r in records]
        with chunk_lines(2):
            assert_same_outcome(lines, epoch=epoch)

    def test_file_streams_across_real_chunks(self, tmp_path):
        # Records in reverse time order with shared times, duplicate
        # addresses and non-ASCII names, over several real chunks.
        n = 3 * ledger_mod._CHUNK_LINES + 17
        lines = [rec("c", 0, [], [["\xe9", 10**12]])]
        for i in range(1, n):
            addr = f"a{i % 37}"
            lines.append(rec(f"t{i}\x00" if i % 5 == 0 else f"t{i}", (n - i) // 3,
                             [["\xe9", 3], ["\xe9", 2]], [[addr, 2], [addr, 1], ["中", 1]]))
        path = tmp_path / "chain.jsonl"
        path.write_bytes("\r\n".join(lines).encode("utf-8") + b"\r\n")
        want = parse_ledger_records(iter(path.read_bytes().splitlines(keepends=True)))
        assert want.out_of_order > 0
        with open(path, "rb") as fp:
            assert_same_ledger(parse_ledger(fp), want)
        with open(path, encoding="utf-8") as fp:
            assert_same_ledger(parse_ledger(fp), want)
        assert_same_ledger(parse_ledger(io.StringIO(path.read_text("utf-8"))), want)


def _line(txid, time=5, ins=(), outs=(("z", 1),)):
    return rec(txid, time, [list(e) for e in ins], [list(e) for e in outs])


# One bad line of each kind.  A callable gets the txid of an earlier record.
DEFECTS = {
    "json": "not json",
    "extra data": _line("x") + " {}",
    "utf8": b'{"txid": "\xff"}',
    "object": "[1, 2]",
    "txid missing": json.dumps({"time": 5, "in": [], "out": [["z", 1]]}),
    "txid empty": _line(""),
    "txid type": json.dumps({"txid": 7, "time": 5, "in": [], "out": [["z", 1]]}),
    "txid surrogate": _line("x\ud800"),
    "time missing": json.dumps({"txid": "x", "in": [], "out": [["z", 1]]}),
    "time bool": _line("x", time=True),
    "time float": _line("x", time=5.0),
    "time high": _line("x", time=2**63),
    "time low": _line("x", time=ledger_mod.MIN_TIME - 1),
    "in missing": json.dumps({"txid": "x", "time": 5, "out": [["z", 1]]}),
    "out type": json.dumps({"txid": "x", "time": 5, "in": [], "out": {"z": 1}}),
    "no outputs": _line("x", outs=()),
    "entry short": json.dumps({"txid": "x", "time": 5, "in": [], "out": [["z"]]}),
    "entry flat": json.dumps({"txid": "x", "time": 5, "in": [], "out": ["z", 1]}),
    "address empty": _line("x", outs=(("", 1),)),
    "address type": _line("x", outs=((3, 1),)),
    "address surrogate": _line("x", ins=(("a\udfff", 5),), outs=(("z", 1),)),
    "coinbase address": _line("x", outs=((COINBASE, 1),)),
    "value bool": _line("x", outs=(("z", True),)),
    "value float": _line("x", outs=(("z", 1.5),)),
    "value string": _line("x", outs=(("z", "1"),)),
    "value negative": _line("x", outs=(("z", -1),)),
    "value zero": _line("x", outs=(("y", 1), ("z", 0))),
    "input zero": _line("x", ins=(("a", 0), ("b", 5)), outs=(("z", 1),)),
    "value high": _line("x", outs=(("z", 2**63),)),
    "merged high": _line("x", outs=(("z", 2**62), ("z", 2**62))),
    "total high": _line("x", outs=(("y", 2**62), ("z", 2**62))),
    "inputs short": _line("x", ins=(("a", 1),), outs=(("z", 2),)),
    "duplicate txid": lambda earlier: _line(earlier),
    "minted": _line("x", outs=(("z", 2**62 + 1),)),
}


def base_lines(n):
    """`n` valid lines: the first mints 2^62, so one more large coinbase
    anywhere later overflows the minted supply."""
    lines = [_line("t0", time=0, outs=(("a", 2**62),))]
    for i in range(1, n):
        lines.append(_line(f"t{i}", time=i, ins=(("a", 2),), outs=(("b", 1),))
                     if i % 3 else _line(f"t{i}", time=i, outs=(("a", 7),)))
    return lines


def with_defect(n, pos, kind):
    """A valid export of `n` lines with line `pos` (0-based) replaced by a
    defect; a bytes stream when the defect is bytes."""
    lines = base_lines(n)
    defect = DEFECTS[kind]
    lines[pos] = defect("t0") if callable(defect) else defect
    if any(isinstance(line, bytes) for line in lines):
        lines = [line if isinstance(line, bytes) else line.encode() for line in lines]
    return lines


class TestDefectParity:
    @pytest.mark.parametrize("kind", sorted(DEFECTS))
    @pytest.mark.parametrize("pos", [1, 3, 4, 5, 8])
    def test_same_error_around_chunk_boundaries(self, kind, pos):
        # Chunks of four lines: 3 is a chunk's last line, 4 the next one's
        # first, 5 just past the boundary.
        lines = with_defect(10, pos, kind)
        with chunk_lines(4):
            want = outcome(parse_ledger_records, lines)
            assert want[0] == pos + 1
            assert outcome(parse_ledger, lines) == want

    @pytest.mark.parametrize("kind", ["json", "value zero", "duplicate txid", "minted"])
    @pytest.mark.parametrize("pos", [255, 256, 257, 511])
    def test_same_error_at_real_chunk_boundaries(self, kind, pos):
        lines = with_defect(600, pos, kind)
        want = outcome(parse_ledger_records, lines)
        assert want[0] == pos + 1
        assert outcome(parse_ledger, lines) == want

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from([1, 3, 4]))
    def test_first_bad_line_wins(self, data, chunk):
        n = data.draw(st.integers(2, 14))
        positions = data.draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=3,
                                       unique=True))
        lines = base_lines(n)
        for pos in positions:
            kind = data.draw(st.sampled_from(sorted(k for k in DEFECTS if k != "utf8")))
            defect = DEFECTS[kind]
            lines[pos] = defect(f"t{pos - 1}") if callable(defect) else defect
        with chunk_lines(chunk):
            want = outcome(parse_ledger_records, lines)
            assert want[0] == min(positions) + 1
            assert outcome(parse_ledger, lines) == want


class TestDecoderLimits:
    """Inputs the JSON decoder refuses with a RecursionError or a plain
    ValueError, which escaped parsing as such."""

    @pytest.mark.parametrize("pos", [0, 3, 4])
    def test_deep_nesting(self, pos):
        lines = base_lines(8)
        lines[pos] = "[" * 100_000
        with chunk_lines(4):
            assert outcome(parse_ledger, lines) == (pos + 1, "invalid JSON (nested too deeply)")

    @pytest.mark.parametrize("literal", ["1" * 5000, "-" + "9" * 4301], ids=["5000", "-4301"])
    def test_integer_literal_too_long(self, literal):
        lines = base_lines(3)
        lines[2] = '{"txid": "x", "time": 5, "in": [], "out": [["z", %s]]}' % literal
        line, message = outcome(parse_ledger, lines)
        assert line == 3
        assert message.startswith("invalid JSON (integer literal longer than")

    def test_long_float_literal_is_a_value_error(self):
        lines = ['{"txid": "x", "time": 5, "in": [], "out": [["z", %s.5]]}' % ("1" * 5000)]
        assert outcome(parse_ledger, lines) == (1, "out value must be an integer")


class TestIngestRoundTrip:
    def test_store_gives_the_same_metrics(self, tmp_path):
        export = tmp_path / "chain.jsonl"
        assert run(["synth", "--seed", "4", "--days", "25", "--txs-per-day", "60",
                    "--pool", "40", "--out", str(export)]) == 0
        assert run(["ingest", "--input", str(export), "--out", str(tmp_path / "s")]) == 0
        stored = load_ledger(str(tmp_path / "s"))
        with open(export, "rb") as fp:
            parsed = parse_ledger(fp)
        assert_same_ledger(stored, parsed)

        def metrics(ledger):
            rankings = list(compute_rankings(ledger, 100))
            return (
                [(r.day, r.ids.tolist(), r.balances.tolist(), r.funded_total, r.funded_sq)
                 for r in rankings],
                {s: hhi_series(ledger, s, rankings).values for s in ("a1", "a2", "a3")},
                dispersion_series(ledger, rankings),
                d_static_series(rankings, 100).values,
            )

        assert metrics(stored) == metrics(parsed)
