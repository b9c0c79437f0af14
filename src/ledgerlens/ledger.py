"""The ledger model: JSON-lines parsing, canonical serialization,
day indexing, and N x M input/output edge expansion.

A ledger is an immutable, totally ordered sequence of transactions.  Values
are integer base units end to end; floating point only appears at reporting
boundaries.  Internally transactions live in flat numpy arrays (one row per
input/output entry) so that balance reconstruction and graph building stay
vectorized.  `canonical_record` reads one transaction back as its JSON
record.

Graphs expand a range of transactions into edges on request, keeping only
the edges with an end in a focus set, so their memory is O(entries + focus
edges) rather than the sum of N x M over the ledger.  A ledger holds no
cache of them.
"""

import gc
import json
import sys
from itertools import chain, islice, repeat
from operator import itemgetter
from typing import IO, Iterable, NamedTuple, NoReturn

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


def _pack_strings(items: list[str]) -> np.ndarray:
    """`items` as one compact JSON array in UTF-8 bytes: the store's form
    of a string table."""
    blob = json.dumps(items, separators=(",", ":")).encode("utf-8")
    return np.frombuffer(blob, dtype=np.uint8)


def _unpack_strings(arr: np.ndarray) -> list[str]:
    """The strings of a `_pack_strings` table; ValueError when it is not a
    JSON list of strings."""
    items = json.loads(str(arr, "utf-8"))
    if not isinstance(items, list) or not set(map(type, items)) <= {str}:
        raise ValueError("string table is not a list of strings")
    return items


class _NameIndex(dict):
    """The name -> id index of the table `names`.  Looking up a name it
    lacks interns it: the name gets the next id and is appended to `names`,
    so interning takes one lookup per name."""

    __slots__ = ("names",)

    def __init__(self, names: list[str]):
        super().__init__(zip(names, range(len(names))))
        self.names = names

    def __missing__(self, name: str) -> int:
        self[name] = new = len(self.names)
        self.names.append(name)
        return new


class AddressTable:
    """Interns opaque address strings to dense integer ids.

    Id 0 is always the COINBASE pseudo-address.  Ids are assigned in first
    appearance order on ingest, so a given input stream always produces the
    same numbering.  The name -> id index is built when interning or
    `id_of` first needs it, so a table that is only read (a loaded store)
    keeps its names alone.
    """

    __slots__ = ("names", "_index", "_name_rank")

    def __init__(self, names: Iterable[str] = ()):
        """A table of COINBASE and then `names`, interned in order."""
        self.names: list[str] = list(dict.fromkeys(chain((COINBASE,), names)))
        self._index: _NameIndex | None = None
        self._name_rank: np.ndarray | None = None

    def _ids(self) -> _NameIndex:
        """The name -> id index, built on first use."""
        if self._index is None:
            self._index = _NameIndex(self.names)
        return self._index

    def drop_index(self) -> None:
        """Free the name -> id index; the next lookup rebuilds it."""
        self._index = None

    def intern_all(self, names: list[str]) -> np.ndarray:
        """Intern every name of `names` in order; returns their ids."""
        return np.fromiter(map(self._ids().__getitem__, names), dtype=np.int64,
                           count=len(names))

    def id_of(self, name: str) -> int:
        """The id of an interned `name`; KeyError for any other."""
        index = self._ids()
        if name not in index:
            raise KeyError(name)
        return index[name]

    def __len__(self) -> int:
        return len(self.names)

    @property
    def name_rank(self) -> np.ndarray:
        """Position of each id's name in Python `sorted(names)` order.

        Built on first use and rebuilt whenever interning has grown the table
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


class EdgeArrays(NamedTuple):
    """Expanded edges of a transaction range, as flat arrays.

    The i-th edge runs from address id `src[i]` to `dst[i]` in transaction
    `tx[i]`.  `values` carries the proportional value attributed to each
    edge and is only populated when requested.
    """

    src: np.ndarray
    dst: np.ndarray
    tx: np.ndarray
    values: np.ndarray | None


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

    `txids` is the `_pack_strings` table of the transaction ids.  The
    ledger keeps it in `txid_table` and decodes it only when something
    reads `txids` (serialization, a BalanceError).
    """

    def __init__(
        self,
        addresses: AddressTable,
        txids: np.ndarray,
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
        self.txid_table, self._txids = txids, None
        self.times = times
        self.in_ptr = in_ptr
        self.in_addr = in_addr
        self.in_val = in_val
        self.out_ptr = out_ptr
        self.out_addr = out_addr
        self.out_val = out_val
        self.out_of_order = out_of_order

        n = len(times)
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
        # The transaction range of each day: tx i belongs to day d iff
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

    @property
    def txids(self) -> list[str]:
        if self._txids is None:
            self._txids = _unpack_strings(self.txid_table)
        return self._txids

    def __len__(self) -> int:
        return len(self.times)

    def day_range(self, day: int) -> tuple[int, int]:
        """Half-open transaction-index range [start, stop) for one day."""
        if not 0 <= day < self.n_days:
            raise ValueError(f"day {day} outside ledger range")
        return int(self._day_tx_ptr[day]), int(self._day_tx_ptr[day + 1])

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
        for i in range(len(self)):
            fp.write(json.dumps(self.canonical_record(i), separators=(",", ":")))
            fp.write("\n")

    def canonical_bytes(self) -> bytes:
        import io

        buf = io.StringIO()
        self.serialize(buf)
        return buf.getvalue().encode("utf-8")

    # -- edge expansion --------------------------------------------------

    def _expand(self, start: int, stop: int, focus: np.ndarray,
                with_values: bool = False) -> EdgeArrays:
        """The input x output edges of transactions [start, stop) that have
        at least one end in `focus`, a bool per address id.

        A coinbase transaction has the one pseudo-input COINBASE (id 0).
        Edges keep the (transaction, input, output) order of the full
        expansion, so sums over them add in the same order: an input in the
        focus keeps every output of its transaction, any other input only
        the focus outputs.  With `with_values`, each edge carries its
        output's value times the input's share of the transaction's inputs;
        a coinbase edge carries the whole output value.
        """
        in_ptr = self.in_ptr[start:stop + 1]
        out_ptr = self.out_ptr[start:stop + 1] - self.out_ptr[start]
        n = stop - start
        m = np.diff(in_ptr)
        is_cb = m == 0
        m_eff = np.where(is_cb, 1, m)
        # Effective inputs: the real ones in order, COINBASE in each
        # coinbase transaction's one slot.
        real = np.repeat(~is_cb, m_eff)
        ins = np.zeros(len(real), dtype=np.int64)
        ins[real] = self.in_addr[in_ptr[0]:in_ptr[-1]]
        tx_of_in = np.repeat(np.arange(n), m_eff)
        outs = self.out_addr[self.out_ptr[start]:self.out_ptr[stop]]

        # Output positions of the range, then the focus ones alone; a focus
        # input reads its transaction's run of the first part, any other
        # input its run of the second.
        in_focus = focus[ins]
        out_focus = focus[outs]
        focus_pos = np.flatnonzero(out_focus)
        focus_ptr = np.zeros(len(outs) + 1, dtype=np.int64)
        np.cumsum(out_focus, out=focus_ptr[1:])
        focus_ptr = focus_ptr[out_ptr]
        table = np.concatenate((np.arange(len(outs)), focus_pos))
        count = np.where(in_focus, np.diff(out_ptr)[tx_of_in], np.diff(focus_ptr)[tx_of_in])
        first = np.where(in_focus, out_ptr[:-1][tx_of_in], len(outs) + focus_ptr[:-1][tx_of_in])
        total = int(count.sum())
        run_start = np.cumsum(count) - count
        out_pos = table[np.repeat(first - run_start, count) + np.arange(total)]
        tx = np.repeat(tx_of_in, count)

        values = None
        if with_values:
            share = np.ones(len(ins), dtype=np.float64)
            in_total = np.ones(n, dtype=np.float64)
            in_val = self.in_val[in_ptr[0]:in_ptr[-1]]
            share[real] = in_val
            if not is_cb.all():
                in_total[~is_cb] = np.add.reduceat(in_val, (in_ptr[:-1] - in_ptr[0])[~is_cb])
            out_val = self.out_val[self.out_ptr[start]:self.out_ptr[stop]]
            values = (out_val[out_pos].astype(np.float64) * np.repeat(share, count)
                      / in_total[tx])
        return EdgeArrays(np.repeat(ins, count), outs[out_pos], tx + start, values)


# Lines decoded and checked together.  Each chunk costs a few dozen numpy
# calls, spread over its lines; its decoded records are freed by refcounting
# once the next chunk is read, so memory beyond the columns is one chunk's.
_CHUNK_LINES = 1024

# The scanner `json.loads` runs; it returns (value, end) and leaves the
# whole-line check to the caller.
_scan = json.JSONDecoder().scan_once


def _json_error(exc: ValueError | RecursionError) -> str:
    """Why `json.loads` refused a line, for its ParseError."""
    if isinstance(exc, json.JSONDecodeError):
        return exc.msg
    if isinstance(exc, RecursionError):
        return "nested too deeply"
    # The only other ValueError is int()'s limit on literal length.
    return f"integer literal longer than {sys.get_int_max_str_digits()} digits"


def _all_encode(texts: list[str]) -> bool:
    """Whether every string of `texts` passes `_encodes`."""
    return all(map(str.isascii, texts)) or all(map(_encodes, texts))


def _segment_totals(values: np.ndarray, lens: np.ndarray) -> np.ndarray | None:
    """Exact sum of each run of positive int64 `values` (run i holds the next
    lens[i] values), or None when one exceeds 2^63-1.

    The high and low 32 bits are summed apart, so no partial sum wraps for
    fewer than 2^31 values.
    """
    ptr = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=ptr[1:])
    sums = []
    for part in (values >> 32, values & 0xFFFFFFFF):
        cum = np.zeros(len(values) + 1, dtype=np.int64)
        np.cumsum(part, out=cum[1:])
        sums.append(cum[ptr[1:]] - cum[ptr[:-1]])
    high, low = sums
    high += low >> 32
    if (high > MAX_VALUE >> 32).any():
        return None
    return (high << 32) | (low & 0xFFFFFFFF)


def _gather_index(lens: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Put the runs of a column (record i owns the next lens[i] entries) in
    record order `order`: returns the new pointer array and the index that
    gathers the column's entries in that order."""
    start = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=start[1:])
    lens = lens[order]
    ptr = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=ptr[1:])
    return ptr, np.repeat(start[:-1][order] - ptr[:-1], lens) + np.arange(ptr[-1])


def _time_txid_order(times: np.ndarray, txids: list[str]) -> np.ndarray:
    """Record order by (time, txid).  Only records that share a time are
    sorted by txid, with Python's code-point order on `str` (a numpy 'U'
    array would drop trailing NULs and needs the longest txid's width for
    every record)."""
    order = np.argsort(times, kind="stable")
    same = np.diff(times[order]) == 0
    tied = np.zeros(len(order), dtype=bool)
    tied[1:] = same
    tied[:-1] |= same
    if tied.any():
        pos = np.flatnonzero(tied)
        by_txid = np.array(sorted(order[pos].tolist(), key=txids.__getitem__), dtype=np.int64)
        order[pos] = by_txid[np.argsort(times[by_txid], kind="stable")]
    return order


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def _drain(parts: list[np.ndarray]) -> np.ndarray:
    """`_concat` of `parts`, emptying `parts`."""
    col = _concat(parts)
    parts.clear()
    return col


class _Columns:
    """The records accepted so far, as flat columns in file order.

    Per record: its txid and time.  Per side (in, then out) of each record:
    the count of its merged entries; per entry: address id and value.  Each
    column is a list of one array per chunk.  `seen` and `minted` carry the
    checks that span lines; nothing changes unless a whole chunk passes.
    """

    def __init__(self):
        self.table = AddressTable()
        self.seen: set[str] = set()
        self.minted = 0
        self.txids: list[str] = []
        self.times: list[np.ndarray] = []
        # Indexed by side: 0 in, 1 out.
        self.lens: tuple[list[np.ndarray], ...] = ([], [])
        self.ids: tuple[list[np.ndarray], ...] = ([], [])
        self.vals: tuple[list[np.ndarray], ...] = ([], [])

    def take(self, raw: list) -> bool:
        """Append one chunk of lines when every record passes every check;
        return False, with nothing appended, when any line fails one.

        Each check covers the whole chunk at once and accepts exactly what
        `_validate_record` and the duplicate and minted-supply checks accept.
        """
        try:
            texts = [line.decode("utf-8") if isinstance(line, bytes) else line
                     for line in raw]
            texts = list(filter(None, map(str.strip, texts)))
            # A comprehension, not map(): `_scan` raises StopIteration on a
            # bad first character, which would end a map() early.
            decoded = [_scan(text, 0) for text in texts]
        except (StopIteration, ValueError, RecursionError):
            return False
        if not decoded:
            return True
        recs, ends = zip(*decoded)
        if ends != tuple(map(len, texts)) or set(map(type, recs)) != {dict}:
            return False
        txids, times, ins, outs = (list(map(dict.get, recs, repeat(key)))
                                   for key in ("txid", "time", "in", "out"))
        if (set(map(type, txids)) != {str} or not all(txids) or not _all_encode(txids)
                or set(map(type, times)) != {int}
                or min(times) < MIN_TIME or max(times) > MAX_VALUE
                or set(map(type, ins)) != {list} or set(map(type, outs)) != {list}
                or not all(outs)):
            return False
        sides = list(chain.from_iterable(zip(ins, outs)))  # in, out, in, out, ...
        entries = list(chain.from_iterable(sides))
        if set(map(type, entries)) != {list} or set(map(len, entries)) != {2}:
            return False
        addrs = list(map(itemgetter(0), entries))
        vals = list(map(itemgetter(1), entries))
        if (set(map(type, addrs)) != {str} or not all(addrs) or COINBASE in addrs
                or not _all_encode(addrs)
                or set(map(type, vals)) != {int} or min(vals) <= 0 or max(vals) > MAX_VALUE):
            return False
        lens = np.fromiter(map(len, sides), dtype=np.int64, count=len(sides))
        values = np.array(vals, dtype=np.int64)
        totals = _segment_totals(values, lens)
        if totals is None:
            return False
        in_total, out_total = totals[0::2], totals[1::2]
        has_in = lens[0::2] > 0
        if (in_total[has_in] < out_total[has_in]).any():
            return False
        minted = self.minted + sum(out_total[~has_in].tolist())
        if (minted > MAX_VALUE or len(set(txids)) < len(txids)
                or not self.seen.isdisjoint(txids)):
            return False

        self.seen.update(txids)
        self.minted = minted
        ids = self.table.intern_all(addrs)
        # Merge repeats of an address on one side, summing their values at
        # its first appearance.
        side_of = np.repeat(np.arange(len(lens)), lens)
        key = side_of * len(self.table) + ids
        uniq, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        if len(uniq) < len(key):
            sums = np.zeros(len(uniq), dtype=np.int64)
            np.add.at(sums, inverse, values)
            by_pos = np.argsort(first)
            keep = first[by_pos]
            ids, values = ids[keep], sums[by_pos]
            lens = np.bincount(side_of[keep], minlength=len(lens))
        self.txids += txids
        self.times.append(np.array(times, dtype=np.int64))
        is_out = np.repeat(np.arange(len(lens)) % 2 == 1, lens)
        for side, mask in enumerate((~is_out, is_out)):
            self.lens[side].append(lens[side::2])
            self.ids[side].append(ids[mask])
            self.vals[side].append(values[mask])
        return True

    def ledger(self, epoch: int | None) -> Ledger:
        """The records re-sorted by (time, txid), as a Ledger.

        Every line has been checked by now, so the duplicate check's txid
        set and the name index go first.  The txids are packed, and then
        each column is joined and gathered, one at a time, freeing its
        chunks: beside the result, memory holds the txid strings or one
        column in file order.  The columns are left empty.
        """
        self.seen.clear()
        self.table.drop_index()
        times = _drain(self.times)
        order = _time_txid_order(times, self.txids)
        # An object-array gather: no Python int per record, as order.tolist() makes.
        txid_table = _pack_strings(np.array(self.txids, dtype=object)[order].tolist())
        self.txids.clear()
        sides = []
        for side in (0, 1):
            ptr, idx = _gather_index(_drain(self.lens[side]), order)
            sides.append((ptr, _drain(self.ids[side])[idx], _drain(self.vals[side])[idx]))
        (in_ptr, in_addr, in_val), (out_ptr, out_addr, out_val) = sides
        return Ledger(
            addresses=self.table,
            txids=txid_table,
            times=times[order],
            in_ptr=in_ptr,
            in_addr=in_addr,
            in_val=in_val,
            out_ptr=out_ptr,
            out_addr=out_addr,
            out_val=out_val,
            epoch_start=epoch,
            out_of_order=int(np.count_nonzero(times[1:] < times[:-1])),
        )


def _raise_first_error(raw: list, line_no: int, seen: set[str], minted: int) -> NoReturn:
    """Walk a refused chunk record by record, from the state carried into
    it, and raise the ParseError of its first bad line.

    `line_no` is the number of the chunk's first line.
    """
    fresh: set[str] = set()
    for line_no, line in enumerate(raw, start=line_no):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                bad = exc.object[exc.start]
                raise ParseError(
                    line_no, f"not valid UTF-8 (byte {bad:#04x} at column {exc.start + 1})"
                ) from exc
        text = line.strip()
        if not text:
            continue
        try:
            rec = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ParseError(line_no, f"invalid JSON ({_json_error(exc)})") from exc
        txid, time, inputs, outputs = _validate_record(rec, line_no)
        if txid in seen or txid in fresh:
            raise ParseError(line_no, f"duplicate txid {txid!r}")
        if not inputs:
            minted += sum(v for _, v in outputs)
            if minted > MAX_VALUE:
                raise ParseError(line_no, "minted supply exceeds 2^63-1")
        fresh.add(txid)
    raise AssertionError("chunk checks refused lines that the record checks accept")


def parse_ledger(
    stream: Iterable[str] | Iterable[bytes] | IO[str] | IO[bytes],
    epoch: int | None = None,
) -> Ledger:
    """Parse a JSON-lines transaction stream into a validated Ledger.

    Each line holds one record: ``{"txid": str, "time": int, "in": [[addr,
    value], ...], "out": [[addr, value], ...]}`` with integer base-unit
    values.  Coinbase records have an empty ``in`` list.  Malformed lines
    raise ParseError with their line number; so does a line of a binary
    stream that is not valid UTF-8, JSON nested too deeply for the decoder
    and an integer literal too long for `int`.  Records out of timestamp
    order are accepted, counted on ``Ledger.out_of_order``, and re-sorted.

    The stream is read in chunks of `_CHUNK_LINES` (1024) lines.  Each
    chunk is decoded and checked as flat columns and kept as int64 arrays
    and strings, so memory beyond the result is one chunk's decoded records
    and the duplicate check's txid set while lines are read, and one
    column being sorted once they are all in (`_Columns.ledger`).  The
    cyclic garbage collector is paused for the whole parse, and left
    enabled or disabled as the caller had it, on success and on error.
    When a chunk fails a check, its lines are walked again one record at a
    time from the state before it (txids seen, supply minted), so the error
    raised is the one of the first bad line in file order.

    `epoch` optionally fixes the day-0 boundary (a UTC timestamp, floored to
    midnight); by default day 0 is the UTC day of the earliest transaction.
    """
    if epoch is not None and not MIN_TIME <= epoch <= MAX_VALUE:
        raise ValueError(f"epoch {epoch} outside [{MIN_TIME}, {MAX_VALUE}]")
    cols = _Columns()
    lines = iter(stream)
    line_no = 1
    # Decoded records hold no reference cycles, so a collection here frees
    # nothing and traverses every live container, the growing parse state
    # included.
    enabled = gc.isenabled()
    gc.disable()
    try:
        while raw := list(islice(lines, _CHUNK_LINES)):
            if not cols.take(raw):
                _raise_first_error(raw, line_no, cols.seen, cols.minted)
            line_no += len(raw)
        if epoch is not None:
            epoch = epoch // SECONDS_PER_DAY * SECONDS_PER_DAY
        return cols.ledger(epoch)
    finally:
        if enabled:
            gc.enable()
