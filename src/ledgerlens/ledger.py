"""Transaction ledger model: JSON-lines parsing, canonical serialization,
day indexing, and N x M input/output edge expansion.

A ledger is an immutable, totally ordered sequence of transactions.  Values
are integer base units end to end; floating point only appears at reporting
boundaries.  Internally transactions live in flat numpy arrays (one row per
input/output entry) so that balance reconstruction and graph building stay
vectorized; `Transaction` objects are materialized on demand.
"""

import json
from dataclasses import dataclass
from typing import IO, Iterable, Iterator, NamedTuple

import numpy as np

from .errors import LedgerError, ParseError

SECONDS_PER_DAY = 86_400

# Reserved pseudo-address for mined coins.  Always interned at id 0 and
# rejected if it appears as a literal address in an input stream.
COINBASE = "COINBASE"

# Values are stored as int64 base units; every merged value, per-transaction
# total and the running minted supply must fit.
MAX_VALUE = 2**63 - 1
# Times (and an explicit epoch) are int64 seconds no earlier than the first
# whole UTC day in int64, so the floored day-0 boundary is an int64 too.
MIN_TIME = -(2**63 // SECONDS_PER_DAY) * SECONDS_PER_DAY
# Largest day span (day-0 boundary through the latest transaction) a ledger
# may cover: about 274 years, against about 6 300 days of Bitcoin history.
# Per-day arrays are allocated for the whole span, so a wider one is a
# data error rather than a huge allocation or a wrapped int64 day index.
MAX_DAYS = 100_000


class AddressTable:
    """Interns opaque address strings to dense integer ids.

    Id 0 is always the COINBASE pseudo-address.  Ids are assigned in first
    appearance order on ingest, so a given input stream always produces the
    same numbering.
    """

    __slots__ = ("names", "_index", "_name_rank")

    def __init__(self):
        self.names: list[str] = [COINBASE]
        self._index: dict[str, int] = {COINBASE: 0}
        self._name_rank: np.ndarray | None = None

    def intern(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = len(self.names)
            self.names.append(name)
            self._index[name] = idx
        return idx

    def id_of(self, name: str) -> int:
        return self._index[name]

    def __len__(self) -> int:
        return len(self.names)

    @property
    def name_rank(self) -> np.ndarray:
        """Position of each id's name in Python `sorted(names)` order.

        Built on first use and rebuilt whenever `intern` has grown the table
        since.  The sort is Python's code-point order on `str`; a numpy 'U'
        array would drop trailing NULs and treat "a" and "a\\x00" as equal.
        """
        rank = self._name_rank
        if rank is None or len(rank) != len(self.names):
            order = sorted(range(len(self.names)), key=self.names.__getitem__)
            rank = np.empty(len(order), dtype=np.int64)
            rank[order] = np.arange(len(order), dtype=np.int64)
            self._name_rank = rank
        return rank


@dataclass(frozen=True)
class Transaction:
    """One validated transaction.

    Inputs and outputs are (address, value) pairs with distinct addresses
    per side (duplicates are merged on parse).  An empty input list marks a
    coinbase transaction; its outputs are newly minted coins.
    """

    txid: str
    time: int
    inputs: list[tuple[str, int]]
    outputs: list[tuple[str, int]]

    @property
    def is_coinbase(self) -> bool:
        return not self.inputs

    @property
    def input_total(self) -> int:
        return sum(v for _, v in self.inputs)

    @property
    def output_total(self) -> int:
        return sum(v for _, v in self.outputs)

    @property
    def minted(self) -> int:
        return self.output_total if self.is_coinbase else 0

    @property
    def fee(self) -> int:
        return 0 if self.is_coinbase else self.input_total - self.output_total


class Edge(NamedTuple):
    """A directed ledger edge produced by input/output expansion."""

    src: str
    dst: str
    txid: str
    day: int


class EdgeArrays(NamedTuple):
    """Flat, day-ordered expansion of every transaction into directed edges.

    `src`/`dst` hold interned address ids; `day_ptr[d]:day_ptr[d+1]` slices
    the edges of day d.  `values` carries the proportional value attributed
    to each edge and is only populated when requested.
    """

    src: np.ndarray
    dst: np.ndarray
    day: np.ndarray
    day_ptr: np.ndarray
    values: np.ndarray | None


def expand_edges(tx: Transaction, day: int = 0) -> list[Edge]:
    """Expand a transaction into one edge per (input address, output address).

    Duplicate addresses within a side are collapsed first, so the result has
    exactly ``distinct_inputs * distinct_outputs`` edges.  A coinbase
    transaction yields one edge from the COINBASE pseudo-address to each
    output address.  Self-loop edges (same address on both sides) are kept;
    graph construction drops them later.
    """
    outs = list(dict.fromkeys(a for a, _ in tx.outputs))
    if tx.is_coinbase:
        ins = [COINBASE]
    else:
        ins = list(dict.fromkeys(a for a, _ in tx.inputs))
    txid = tx.txid
    return [Edge(a, b, txid, day) for a in ins for b in outs]


def _encodes(text: str) -> bool:
    """Whether `text` encodes to UTF-8: False when it holds a lone surrogate
    (JSON's "\\ud800" escape decodes to one), which no output file can hold."""
    if text.isascii():
        return True
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _merge_side(entries, line: int, side: str) -> list[tuple[str, int]]:
    """Validate one `in`/`out` list and merge duplicate addresses."""
    merged: dict[str, int] = {}
    for item in entries:
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ParseError(line, f"{side} entry is not an [address, value] pair")
        addr, value = item
        if not isinstance(addr, str) or not addr:
            raise ParseError(line, f"{side} address must be a non-empty string")
        if not _encodes(addr):
            raise ParseError(line, f"{side} address is not valid Unicode (lone surrogate)")
        if addr == COINBASE:
            raise ParseError(line, f"reserved address {COINBASE!r} in {side}")
        if isinstance(value, bool) or not isinstance(value, int):
            raise ParseError(line, f"{side} value must be an integer")
        if value < 0:
            raise ParseError(line, f"negative value in {side}")
        if value == 0:
            raise ParseError(line, f"zero value in {side}")
        total = merged.get(addr, 0) + value
        if total > MAX_VALUE:
            raise ParseError(line, f"{side} value of {addr!r} exceeds 2^63-1")
        merged[addr] = total
    return list(merged.items())


def _validate_record(rec, line: int) -> tuple[str, int, list, list]:
    if not isinstance(rec, dict):
        raise ParseError(line, "record is not a JSON object")
    txid = rec.get("txid")
    if not isinstance(txid, str) or not txid:
        raise ParseError(line, "missing or invalid txid")
    if not _encodes(txid):
        raise ParseError(line, "txid is not valid Unicode (lone surrogate)")
    time = rec.get("time")
    if isinstance(time, bool) or not isinstance(time, int):
        raise ParseError(line, "missing or invalid time")
    if not MIN_TIME <= time <= MAX_VALUE:
        raise ParseError(line, f"time {time} outside [{MIN_TIME}, {MAX_VALUE}]")
    raw_in = rec.get("in")
    raw_out = rec.get("out")
    if not isinstance(raw_in, list) or not isinstance(raw_out, list):
        raise ParseError(line, "missing 'in' or 'out' list")
    if not raw_out:
        raise ParseError(line, "transaction has no outputs")
    inputs = _merge_side(raw_in, line, "in")
    outputs = _merge_side(raw_out, line, "out")
    in_total = sum(v for _, v in inputs)
    out_total = sum(v for _, v in outputs)
    if in_total > MAX_VALUE or out_total > MAX_VALUE:
        raise ParseError(line, "transaction total exceeds 2^63-1")
    if inputs and in_total < out_total:
        raise ParseError(line, "outputs exceed inputs")
    return txid, time, inputs, outputs


class Ledger:
    """An immutable, day-indexed transaction ledger.

    Transactions are ordered by (timestamp, txid).  Day 0 starts at the UTC
    midnight preceding the epoch (the first transaction by default) and each
    day covers a contiguous transaction range.
    """

    def __init__(
        self,
        addresses: AddressTable,
        txids: list[str],
        times: np.ndarray,
        in_ptr: np.ndarray,
        in_addr: np.ndarray,
        in_val: np.ndarray,
        out_ptr: np.ndarray,
        out_addr: np.ndarray,
        out_val: np.ndarray,
        epoch_start: int | None,
        out_of_order: int = 0,
    ):
        self.addresses = addresses
        self.txids = txids
        self.times = times
        self.in_ptr = in_ptr
        self.in_addr = in_addr
        self.in_val = in_val
        self.out_ptr = out_ptr
        self.out_addr = out_addr
        self.out_val = out_val
        self.out_of_order = out_of_order
        self._edges: EdgeArrays | None = None
        self._edges_valued: EdgeArrays | None = None

        n = len(txids)
        if n == 0:
            self.epoch_start = epoch_start
            self.days = np.zeros(0, dtype=np.int64)
            self.n_days = 0
            self._day_tx_ptr = np.zeros(1, dtype=np.int64)
            self.minted_by_day = np.zeros(0, dtype=np.int64)
            self.fees_by_day = np.zeros(0, dtype=np.int64)
            self._minted_cum = np.zeros(0, dtype=np.int64)
            self._fees_cum = np.zeros(0, dtype=np.int64)
            return

        if epoch_start is None:
            epoch_start = int(times[0]) // SECONDS_PER_DAY * SECONDS_PER_DAY
        if int(times[0]) < epoch_start:
            raise LedgerError("transaction precedes the configured epoch")
        n_days = (int(times[-1]) - epoch_start) // SECONDS_PER_DAY + 1
        if n_days > MAX_DAYS:
            raise LedgerError(f"ledger spans {n_days} days, more than {MAX_DAYS}")
        self.epoch_start = epoch_start
        self.days = (times - epoch_start) // SECONDS_PER_DAY
        self.n_days = n_days
        # Transaction range per day: tx i belongs to day d iff
        # _day_tx_ptr[d] <= i < _day_tx_ptr[d+1].
        self._day_tx_ptr = np.searchsorted(
            self.days, np.arange(self.n_days + 1, dtype=np.int64)
        )

        is_cb = np.diff(in_ptr) == 0
        out_sums = np.add.reduceat(out_val, out_ptr[:-1]) if len(out_val) else np.zeros(n, dtype=np.int64)
        in_sums = np.zeros(n, dtype=np.int64)
        has_in = ~is_cb
        if has_in.any():
            sums = np.add.reduceat(in_val, in_ptr[:-1][has_in])
            in_sums[has_in] = sums
        fees = np.where(is_cb, 0, in_sums - out_sums)
        minted = np.where(is_cb, out_sums, 0)
        self.minted_by_day = np.zeros(self.n_days, dtype=np.int64)
        self.fees_by_day = np.zeros(self.n_days, dtype=np.int64)
        np.add.at(self.minted_by_day, self.days, minted)
        np.add.at(self.fees_by_day, self.days, fees)
        self._minted_cum = np.cumsum(self.minted_by_day)
        self._fees_cum = np.cumsum(self.fees_by_day)

    # -- basic access --------------------------------------------------

    def __len__(self) -> int:
        return len(self.txids)

    @property
    def genesis_time(self) -> int | None:
        return int(self.times[0]) if len(self.txids) else None

    def transaction(self, i: int) -> Transaction:
        names = self.addresses.names
        ins = [
            (names[self.in_addr[j]], int(self.in_val[j]))
            for j in range(self.in_ptr[i], self.in_ptr[i + 1])
        ]
        outs = [
            (names[self.out_addr[j]], int(self.out_val[j]))
            for j in range(self.out_ptr[i], self.out_ptr[i + 1])
        ]
        return Transaction(self.txids[i], int(self.times[i]), ins, outs)

    def __iter__(self) -> Iterator[Transaction]:
        for i in range(len(self.txids)):
            yield self.transaction(i)

    def day_range(self, day: int) -> tuple[int, int]:
        """Half-open transaction-index range [start, stop) for one day."""
        if not 0 <= day < self.n_days:
            raise ValueError(f"day {day} outside ledger range")
        return int(self._day_tx_ptr[day]), int(self._day_tx_ptr[day + 1])

    @property
    def day_index(self) -> dict[int, tuple[int, int]]:
        return {d: self.day_range(d) for d in range(self.n_days)}

    def supply_at(self, day: int) -> int:
        """Cumulative minted supply through the end of `day`."""
        if not 0 <= day < self.n_days:
            raise ValueError(f"day {day} outside ledger range")
        return int(self._minted_cum[day])

    def fees_through(self, day: int) -> int:
        if not 0 <= day < self.n_days:
            raise ValueError(f"day {day} outside ledger range")
        return int(self._fees_cum[day])

    # -- canonical serialization ----------------------------------------

    def canonical_record(self, i: int) -> dict:
        names = self.addresses.names
        return {
            "txid": self.txids[i],
            "time": int(self.times[i]),
            "in": [
                [names[self.in_addr[j]], int(self.in_val[j])]
                for j in range(self.in_ptr[i], self.in_ptr[i + 1])
            ],
            "out": [
                [names[self.out_addr[j]], int(self.out_val[j])]
                for j in range(self.out_ptr[i], self.out_ptr[i + 1])
            ],
        }

    def serialize(self, fp: IO[str]) -> None:
        """Write the canonical JSON-lines form (stable key order, compact)."""
        for i in range(len(self.txids)):
            fp.write(json.dumps(self.canonical_record(i), separators=(",", ":")))
            fp.write("\n")

    def canonical_bytes(self) -> bytes:
        import io

        buf = io.StringIO()
        self.serialize(buf)
        return buf.getvalue().encode("utf-8")

    # -- edge expansion --------------------------------------------------

    def expanded_edges(self, with_values: bool = False) -> EdgeArrays:
        """Whole-ledger edge expansion as flat arrays, cached after first use."""
        if with_values:
            if self._edges_valued is None:
                self._edges_valued = self._expand(True)
            return self._edges_valued
        if self._edges is None:
            self._edges = self._expand(False)
        return self._edges

    def _expand(self, with_values: bool) -> EdgeArrays:
        n = len(self.txids)
        if n == 0:
            z = np.zeros(0, dtype=np.int64)
            return EdgeArrays(z, z, z.copy(), np.zeros(1, dtype=np.int64),
                              np.zeros(0) if with_values else None)
        m = np.diff(self.in_ptr)
        k = np.diff(self.out_ptr)
        m_eff = np.where(m == 0, 1, m)  # coinbase contributes one pseudo-input

        # Effective input ids: real inputs copied in, coinbase slots left at 0.
        eff_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(m_eff, out=eff_ptr[1:])
        eff_in_addr = np.zeros(eff_ptr[-1], dtype=np.int64)
        dest = np.zeros(0, dtype=np.int64)
        if len(self.in_addr):
            tx_of_entry = np.repeat(np.arange(n), m)
            dest = (
                eff_ptr[tx_of_entry] - self.in_ptr[:-1][tx_of_entry]
                + np.arange(len(self.in_addr))
            )
            eff_in_addr[dest] = self.in_addr

        edges_per_tx = m_eff * k
        total = int(edges_per_tx.sum())
        edge_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(edges_per_tx, out=edge_ptr[1:])

        src = np.repeat(eff_in_addr, np.repeat(k, m_eff))
        tx_of_edge = np.repeat(np.arange(n), edges_per_tx)
        local = np.arange(total, dtype=np.int64) - edge_ptr[tx_of_edge]
        out_pos = self.out_ptr[:-1][tx_of_edge] + local % k[tx_of_edge]
        dst = self.out_addr[out_pos]
        day = self.days[tx_of_edge]
        day_ptr = np.searchsorted(day, np.arange(self.n_days + 1, dtype=np.int64))

        values = None
        if with_values:
            # Split each output's value across inputs proportionally to the
            # input values; a coinbase edge carries the full output value.
            eff_in_val = np.zeros(eff_ptr[-1], dtype=np.float64)
            in_total = np.ones(n, dtype=np.float64)
            if len(self.in_val):
                eff_in_val[dest] = self.in_val
                has_in = m > 0
                if has_in.any():
                    in_total[has_in] = np.add.reduceat(
                        self.in_val, self.in_ptr[:-1][has_in]
                    )
            is_cb = m == 0
            eff_in_val[eff_ptr[:-1][is_cb]] = 1.0
            src_val = np.repeat(eff_in_val, np.repeat(k, m_eff))
            values = (
                self.out_val[out_pos].astype(np.float64)
                * src_val
                / in_total[tx_of_edge]
            )
        return EdgeArrays(src, dst, day, day_ptr, values)


def parse_ledger(stream: Iterable[str] | IO[str], epoch: int | None = None) -> Ledger:
    """Parse a JSON-lines transaction stream into a validated Ledger.

    Each line holds one record: ``{"txid": str, "time": int, "in": [[addr,
    value], ...], "out": [[addr, value], ...]}`` with integer base-unit
    values.  Coinbase records have an empty ``in`` list.  Malformed lines
    raise ParseError with their line number.  Records out of timestamp order
    are accepted, counted on ``Ledger.out_of_order``, and re-sorted.

    `epoch` optionally fixes the day-0 boundary (a UTC timestamp, floored to
    midnight); by default day 0 is the UTC day of the earliest transaction.
    """
    if epoch is not None and not MIN_TIME <= epoch <= MAX_VALUE:
        raise ValueError(f"epoch {epoch} outside [{MIN_TIME}, {MAX_VALUE}]")
    table = AddressTable()
    txids: list[str] = []
    seen: set[str] = set()
    times: list[int] = []
    sides: list[tuple[list, list]] = []
    out_of_order = 0
    prev_time = None
    minted = 0

    for line_no, line in enumerate(stream, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            rec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, f"invalid JSON ({exc.msg})") from exc
        txid, time, inputs, outputs = _validate_record(rec, line_no)
        if txid in seen:
            raise ParseError(line_no, f"duplicate txid {txid!r}")
        if not inputs:
            minted += sum(v for _, v in outputs)
            if minted > MAX_VALUE:
                raise ParseError(line_no, "minted supply exceeds 2^63-1")
        seen.add(txid)
        if prev_time is not None and time < prev_time:
            out_of_order += 1
        prev_time = time
        txids.append(txid)
        times.append(time)
        ins = [(table.intern(a), v) for a, v in inputs]
        outs = [(table.intern(a), v) for a, v in outputs]
        sides.append((ins, outs))

    n = len(txids)
    order = sorted(range(n), key=lambda i: (times[i], txids[i]))

    in_ptr = np.zeros(n + 1, dtype=np.int64)
    out_ptr = np.zeros(n + 1, dtype=np.int64)
    in_addr_l: list[int] = []
    in_val_l: list[int] = []
    out_addr_l: list[int] = []
    out_val_l: list[int] = []
    sorted_txids = []
    sorted_times = np.zeros(n, dtype=np.int64)
    for pos, i in enumerate(order):
        ins, outs = sides[i]
        for a, v in ins:
            in_addr_l.append(a)
            in_val_l.append(v)
        for a, v in outs:
            out_addr_l.append(a)
            out_val_l.append(v)
        in_ptr[pos + 1] = len(in_addr_l)
        out_ptr[pos + 1] = len(out_addr_l)
        sorted_txids.append(txids[i])
        sorted_times[pos] = times[i]

    if epoch is not None:
        epoch = epoch // SECONDS_PER_DAY * SECONDS_PER_DAY

    return Ledger(
        addresses=table,
        txids=sorted_txids,
        times=sorted_times,
        in_ptr=in_ptr,
        in_addr=np.asarray(in_addr_l, dtype=np.int64),
        in_val=np.asarray(in_val_l, dtype=np.int64),
        out_ptr=out_ptr,
        out_addr=np.asarray(out_addr_l, dtype=np.int64),
        out_val=np.asarray(out_val_l, dtype=np.int64),
        epoch_start=epoch,
        out_of_order=out_of_order,
    )
