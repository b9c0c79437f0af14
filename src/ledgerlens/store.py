"""On-disk store: a versioned binary cache of the parsed ledger, so
expensive ingestion runs once and metric passes restart cheaply.

Layout of a store directory::

    meta.json       store version, counts, epoch, content hash
    ledger.npz      flat transaction arrays + interned string blobs
"""

import hashlib
import json
import os
import zipfile

import numpy as np

# `_apply_day` is not called here; it stays importable under this module's
# name because the benchmark's tracer (bench/tracer.py) wraps it here.
from .balances import _apply_day
from .errors import StoreError
from .ledger import AddressTable, Ledger

STORE_VERSION = 1

_META = "meta.json"
_LEDGER = "ledger.npz"


def _pack_strings(items: list[str]) -> np.ndarray:
    blob = json.dumps(items, separators=(",", ":")).encode("utf-8")
    return np.frombuffer(blob, dtype=np.uint8)


def _unpack_strings(arr: np.ndarray) -> list[str]:
    return json.loads(arr.tobytes().decode("utf-8"))


def content_hash(ledger: Ledger) -> str:
    """Order-sensitive digest of the ledger's arrays and string tables."""
    h = hashlib.sha256()
    for arr in (
        ledger.times,
        ledger.in_ptr,
        ledger.in_addr,
        ledger.in_val,
        ledger.out_ptr,
        ledger.out_addr,
        ledger.out_val,
    ):
        h.update(np.ascontiguousarray(arr).tobytes())
    h.update(json.dumps(ledger.txids, separators=(",", ":")).encode("utf-8"))
    h.update(json.dumps(ledger.addresses.names, separators=(",", ":")).encode("utf-8"))
    return h.hexdigest()[:16]


def save_ledger(ledger: Ledger, store_dir: str) -> dict:
    """Write the binary ledger cache and meta.json; returns the meta dict."""
    os.makedirs(store_dir, exist_ok=True)
    np.savez(
        os.path.join(store_dir, _LEDGER),
        times=ledger.times,
        in_ptr=ledger.in_ptr,
        in_addr=ledger.in_addr,
        in_val=ledger.in_val,
        out_ptr=ledger.out_ptr,
        out_addr=ledger.out_addr,
        out_val=ledger.out_val,
        txids=_pack_strings(ledger.txids),
        addresses=_pack_strings(ledger.addresses.names),
    )
    meta = {
        "store_version": STORE_VERSION,
        "transactions": len(ledger),
        "addresses": len(ledger.addresses),
        "days": ledger.n_days,
        "epoch_start": ledger.epoch_start,
        "out_of_order": ledger.out_of_order,
        "content_hash": content_hash(ledger),
    }
    with open(os.path.join(store_dir, _META), "w") as fp:
        json.dump(meta, fp, indent=2, sort_keys=True)
        fp.write("\n")
    return meta


def load_meta(store_dir: str) -> dict:
    path = os.path.join(store_dir, _META)
    if not os.path.exists(path):
        raise StoreError(f"no store at {store_dir!r} (missing {_META})")
    with open(path) as fp:
        meta = json.load(fp)
    if meta.get("store_version") != STORE_VERSION:
        raise StoreError(
            f"store version {meta.get('store_version')!r} unsupported "
            f"(expected {STORE_VERSION})"
        )
    return meta


def load_ledger(store_dir: str) -> Ledger:
    """Reload a ledger from its binary cache."""
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
    # header or in the string tables.
    try:
        with np.load(path) as z:
            txids = _unpack_strings(z["txids"])
            names = _unpack_strings(z["addresses"])
            table = AddressTable()
            for name in names[1:]:  # index 0 is always COINBASE
                table.intern(name)
            ledger = Ledger(
                addresses=table,
                txids=txids,
                times=z["times"],
                in_ptr=z["in_ptr"],
                in_addr=z["in_addr"],
                in_val=z["in_val"],
                out_ptr=z["out_ptr"],
                out_addr=z["out_addr"],
                out_val=z["out_val"],
                epoch_start=epoch_start,
                out_of_order=out_of_order,
            )
    except (zipfile.BadZipFile, EOFError, KeyError, OSError, ValueError) as exc:
        raise StoreError(f"store at {store_dir!r} has an unreadable {_LEDGER} ({exc})") from exc
    if content_hash(ledger) != meta["content_hash"]:
        raise StoreError(f"store at {store_dir!r} is corrupt (hash mismatch)")
    return ledger
