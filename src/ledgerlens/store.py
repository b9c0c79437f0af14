"""On-disk store: a versioned binary cache of the parsed ledger, so
expensive ingestion runs once and metric passes restart cheaply.

Layout of a store directory::

    meta.json       store version, counts, epoch, content hash
    ledger.npz      flat transaction arrays + interned string blobs

The content hash is the SHA-256 of every array's bytes in store order.
Loading checks it, then the two string tables, then the arrays against
each other (lengths, pointers, address ids, values, time order), then
meta.json's epoch and out-of-order count, so a damaged store is a
StoreError even when its hash was recomputed, and so is an edited
meta.json (the hash does not cover it).  A ledger, parsed or loaded,
keeps its txid table packed, decoding it when `Ledger.txids` is first
read, and a loaded one has an address table whose name index is built
only when a name is looked up.
"""

import hashlib
import json
import os
import zipfile

import numpy as np

# `_apply_day` is not called here; it stays importable under this module's
# name because the benchmark's tracer (bench/tracer.py) wraps it here.
from .balances import _apply_day
from .errors import LedgerError, StoreError
from .ledger import (COINBASE, MAX_VALUE, MIN_TIME, SECONDS_PER_DAY, AddressTable, Ledger,
                     _pack_strings, _segment_totals, _unpack_strings)

STORE_VERSION = 1

_META = "meta.json"
_LEDGER = "ledger.npz"


# The arrays of ledger.npz, in the order they are written and hashed.
_ARRAYS = ("times", "in_ptr", "in_addr", "in_val", "out_ptr", "out_addr", "out_val",
           "txids", "addresses")


def _columns(ledger: Ledger) -> dict[str, np.ndarray]:
    """The ledger as the arrays of ledger.npz, string tables packed (the
    txid table as the ledger holds it)."""
    cols = {name: getattr(ledger, name) for name in _ARRAYS[:-2]}
    cols["txids"] = ledger.txid_table
    cols["addresses"] = _pack_strings(ledger.addresses.names)
    return cols


def _digest(cols: dict[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name in _ARRAYS:
        h.update(np.ascontiguousarray(cols[name]))
    return h.hexdigest()[:16]


def content_hash(ledger: Ledger) -> str:
    """Order-sensitive digest of the ledger's arrays and string tables."""
    return _digest(_columns(ledger))


def _write_npz(fp, cols: dict[str, np.ndarray]) -> None:
    """Write `cols` as the members of an uncompressed .npz, the bytes
    `np.savez` writes, each array's data from its own buffer (`np.savez`
    copies each one through `tobytes`)."""
    with zipfile.ZipFile(fp, "w", zipfile.ZIP_STORED, allowZip64=True) as zf:
        for name, arr in cols.items():
            arr = np.ascontiguousarray(arr)
            with zf.open(name + ".npy", "w", force_zip64=True) as fid:
                np.lib.format.write_array_header_1_0(
                    fid, np.lib.format.header_data_from_array_1_0(arr))
                fid.write(memoryview(arr).cast("B"))


def save_ledger(ledger: Ledger, store_dir: str) -> dict:
    """Write the binary ledger cache and meta.json; returns the meta dict.

    Both files are written under temporary names first.  meta.json is then
    removed, ledger.npz moved into place and meta.json moved in last, so an
    interrupted save leaves the earlier store or no store (no meta.json),
    never a meta.json beside a ledger.npz it does not describe.
    """
    os.makedirs(store_dir, exist_ok=True)
    cols = _columns(ledger)
    meta = {
        "store_version": STORE_VERSION,
        "transactions": len(ledger),
        "addresses": len(ledger.addresses),
        "days": ledger.n_days,
        "epoch_start": ledger.epoch_start,
        "out_of_order": ledger.out_of_order,
        "content_hash": _digest(cols),
    }
    final = {name: os.path.join(store_dir, name) for name in (_LEDGER, _META)}
    tmp = {name: os.path.join(store_dir, f".{name}.{os.getpid()}.tmp") for name in final}
    try:
        with open(tmp[_LEDGER], "wb") as fp:
            _write_npz(fp, cols)
        with open(tmp[_META], "w") as fp:
            json.dump(meta, fp, indent=2, sort_keys=True)
            fp.write("\n")
        if os.path.exists(final[_META]):
            os.unlink(final[_META])
        os.replace(tmp[_LEDGER], final[_LEDGER])
        os.replace(tmp[_META], final[_META])
    finally:
        for path in tmp.values():
            if os.path.exists(path):
                os.unlink(path)
    return meta


def load_meta(store_dir: str) -> dict:
    path = os.path.join(store_dir, _META)
    if not os.path.exists(path):
        raise StoreError(f"no store at {store_dir!r} (missing {_META})")
    # ValueError covers bad JSON, bad UTF-8 and an integer too long for
    # `int`; a deeply nested document is a RecursionError.
    try:
        with open(path, encoding="utf-8") as fp:
            meta = json.load(fp)
    except (ValueError, RecursionError) as exc:
        raise StoreError(f"store at {store_dir!r} has an unreadable {_META} ({exc})") from exc
    if not isinstance(meta, dict):
        raise StoreError(f"store at {store_dir!r} has an unreadable {_META} (not a JSON object)")
    version = meta.get("store_version")
    # JSON true and 1.0 compare equal to 1; only the integer is a version.
    if type(version) is not int or version != STORE_VERSION:
        raise StoreError(f"store version {version!r} unsupported (expected {STORE_VERSION})")
    return meta


def _inconsistency(cols: dict[str, np.ndarray], n_txids: int, n_names: int) -> str | None:
    """Why the arrays of a store whose hash matches cannot be a ledger of
    `n_txids` txids and `n_names` addresses, or None: each is a 1-D array of
    its type; times are in order, one per txid; each side's pointers run
    from 0 to its entry count without decreasing (every transaction has an
    output); address ids name a real address (1 up to the table's last id)
    and values are positive; and, as ingest checks, no transaction total
    exceeds 2^63-1 or has outputs above its inputs, and neither does the
    minted supply."""
    for name in _ARRAYS:
        dtype = np.uint8 if name in ("txids", "addresses") else np.int64
        if cols[name].ndim != 1 or cols[name].dtype != dtype:
            return f"{name} is not a 1-D {np.dtype(dtype)} array"
    n = len(cols["times"])
    if n_txids != n:
        return f"txid table has {n_txids} entries for {n} transactions"
    if (np.diff(cols["times"]) < 0).any():
        return "times out of order"
    for side, least in (("in", 0), ("out", 1)):
        ptr, addr, val = (cols[f"{side}_{part}"] for part in ("ptr", "addr", "val"))
        if len(ptr) != n + 1:
            return f"{side}_ptr has {len(ptr)} entries for {n} transactions"
        if len(addr) != len(val):
            return f"{side}_addr and {side}_val differ in length"
        if ptr[0] != 0 or ptr[-1] != len(addr) or (np.diff(ptr) < least).any():
            return f"{side}_ptr does not run from 0 to the {len(addr)} {side} entries"
        if len(addr) and not 1 <= addr.min() <= addr.max() < n_names:
            return f"{side}_addr holds an address id outside 1..{n_names - 1}"
        if (val <= 0).any():
            return f"{side}_val holds a value <= 0"
    in_lens = np.diff(cols["in_ptr"])
    in_total = _segment_totals(cols["in_val"], in_lens)
    out_total = _segment_totals(cols["out_val"], np.diff(cols["out_ptr"]))
    if in_total is None or out_total is None:
        return "a transaction total exceeds 2^63-1"
    has_in = in_lens > 0
    if (in_total[has_in] < out_total[has_in]).any():
        return "a transaction's outputs exceed its inputs"
    if sum(out_total[~has_in].tolist()) > MAX_VALUE:
        return "minted supply exceeds 2^63-1"
    return None


def _bad_meta(epoch_start, out_of_order) -> str | None:
    """Why meta.json's epoch and out-of-order count are not ones ingest
    writes, or None: the epoch is null or a whole UTC day in [MIN_TIME,
    MAX_VALUE], and the count a non-negative integer (never a bool)."""
    if epoch_start is not None:
        if type(epoch_start) is not int:
            return f"epoch_start is a {type(epoch_start).__name__}, not an integer or null"
        if epoch_start % SECONDS_PER_DAY or not MIN_TIME <= epoch_start <= MAX_VALUE:
            return f"epoch_start is not a UTC midnight in [{MIN_TIME}, {MAX_VALUE}]"
    if type(out_of_order) is not int or out_of_order < 0:
        return "out_of_order is not a non-negative integer"
    return None


def load_ledger(store_dir: str) -> Ledger:
    """Reload a ledger from its binary cache.

    The arrays are checked against each other, and meta.json's epoch and
    out-of-order count against what ingest writes, before the ledger is
    built.  A damaged store whose hash was recomputed, an edited meta.json
    and an epoch after the first transaction or too many days before the
    last are StoreErrors too.  The txid table is decoded once to check it
    and kept packed: the ledger decodes it again only when its txids are
    read.
    """
    meta = load_meta(store_dir)
    path = os.path.join(store_dir, _LEDGER)
    if not os.path.exists(path):
        raise StoreError(f"store at {store_dir!r} has no {_LEDGER}")
    try:
        epoch_start = meta["epoch_start"]
    except KeyError:
        raise StoreError(f"store at {store_dir!r} has no epoch_start in {_META}") from None
    out_of_order = meta.get("out_of_order", 0)
    # A truncated or damaged file fails in the zip layer, in an array
    # header or in the string tables.  The hash covers the arrays as
    # written, so it is checked before the tables are decoded.  The zip
    # layer refuses an entry that its directory marks as encrypted, or as
    # compressed by a method it lacks, with a RuntimeError (the latter a
    # NotImplementedError); RecursionError is one too.
    try:
        with np.load(path) as z:
            cols = {name: z[name] for name in _ARRAYS}
        if _digest(cols) != meta.get("content_hash"):
            raise StoreError(f"store at {store_dir!r} is corrupt (hash mismatch)")
        n_txids = len(_unpack_strings(cols["txids"]))
        names = _unpack_strings(cols["addresses"])
        addresses = AddressTable(names[1:])
        if names[:1] != [COINBASE] or len(addresses) != len(names):
            raise StoreError(f"store at {store_dir!r} is corrupt "
                             f"(address table repeats a name or lacks {COINBASE} first)")
        why = _inconsistency(cols, n_txids, len(addresses)) or _bad_meta(epoch_start, out_of_order)
        if why is not None:
            raise StoreError(f"store at {store_dir!r} is corrupt ({why})")
        try:
            return Ledger(addresses=addresses,
                          txids=cols["txids"],
                          **{name: cols[name] for name in _ARRAYS[:-2]},
                          epoch_start=epoch_start, out_of_order=out_of_order)
        except LedgerError as exc:
            raise StoreError(f"store at {store_dir!r} is corrupt ({exc})") from exc
    except (zipfile.BadZipFile, EOFError, KeyError, OSError, ValueError, RuntimeError) as exc:
        raise StoreError(f"store at {store_dir!r} has an unreadable {_LEDGER} ({exc})") from exc
