import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

from ledgerlens import (
    StoreError,
    SynthConfig,
    compute_snapshots,
    generate,
    load_ledger,
    save_ledger,
)
from ledgerlens.balances import snapshot_at
from ledgerlens.store import _pack_strings, content_hash, load_meta
from conftest import make_ledger, rec


@pytest.fixture
def ledger():
    return generate(SynthConfig(seed=9, days=10, txs_per_day=40, pool=30, growth=1.0))


class TestLedgerStore:
    def test_roundtrip(self, ledger, tmp_path):
        store = str(tmp_path / "store")
        meta = save_ledger(ledger, store)
        loaded = load_ledger(store)
        assert loaded.canonical_bytes() == ledger.canonical_bytes()
        assert loaded.n_days == ledger.n_days
        assert meta["transactions"] == len(ledger)

    def test_missing_store(self, tmp_path):
        with pytest.raises(StoreError, match="no store"):
            load_ledger(str(tmp_path / "nowhere"))

    def test_version_check(self, ledger, tmp_path):
        store = str(tmp_path / "store")
        save_ledger(ledger, store)
        meta = load_meta(store)
        meta["store_version"] = 999
        with open(tmp_path / "store" / "meta.json", "w") as fp:
            json.dump(meta, fp)
        with pytest.raises(StoreError, match="version"):
            load_ledger(store)

    def test_corruption_detected(self, ledger, tmp_path):
        store = str(tmp_path / "store")
        save_ledger(ledger, store)
        meta = load_meta(store)
        meta["content_hash"] = "0" * 16
        with open(tmp_path / "store" / "meta.json", "w") as fp:
            json.dump(meta, fp)
        with pytest.raises(StoreError, match="corrupt"):
            load_ledger(store)

    def test_truncated_ledger_file(self, ledger, tmp_path):
        store = tmp_path / "store"
        save_ledger(ledger, str(store))
        npz = store / "ledger.npz"
        data = npz.read_bytes()
        npz.write_bytes(data[: len(data) // 2])
        with pytest.raises(StoreError, match="unreadable"):
            load_ledger(str(store))

    @pytest.mark.parametrize("names,match", [
        (lambda names: names + [names[1]], "corrupt"),       # a repeated name
        (lambda names: names[:-1] + [5], "unreadable"),      # not a string
        (lambda names: {"a": 1}, "unreadable"),              # not a list
        (lambda names: ["genesis"] + names[1:], "corrupt"),  # no COINBASE first
    ], ids=["repeat", "int", "object", "no_coinbase"])
    def test_bad_address_table(self, ledger, tmp_path, names, match):
        # The meta hash is made to match the damaged table, so only the
        # table check can refuse the store.
        store = tmp_path / "store"
        save_ledger(ledger, str(store))
        with np.load(store / "ledger.npz") as z:
            arrays = dict(z)
        bad = names(list(ledger.addresses.names))
        arrays["addresses"] = _pack_strings(bad)
        np.savez(store / "ledger.npz", **arrays)
        meta = json.loads((store / "meta.json").read_text())
        fake = SimpleNamespace(**{k: getattr(ledger, k) for k in (
            "times", "in_ptr", "in_addr", "in_val", "out_ptr", "out_addr", "out_val",
            "txids")}, addresses=SimpleNamespace(names=bad))
        meta["content_hash"] = content_hash(fake)
        (store / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(StoreError, match=match):
            load_ledger(str(store))

    def test_meta_without_hash_is_corrupt(self, ledger, tmp_path):
        store = tmp_path / "store"
        save_ledger(ledger, str(store))
        meta = json.loads((store / "meta.json").read_text())
        del meta["content_hash"]
        (store / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(StoreError, match="corrupt"):
            load_ledger(str(store))

    def test_meta_without_epoch_names_meta(self, ledger, tmp_path):
        store = tmp_path / "store"
        save_ledger(ledger, str(store))
        meta = json.loads((store / "meta.json").read_text())
        del meta["epoch_start"]
        (store / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(StoreError, match="epoch_start in meta.json"):
            load_ledger(str(store))

    @pytest.mark.parametrize("content", [None, b"[1, 2]", b"\xff\xfe{"],
                             ids=["truncated", "not_object", "not_utf8"])
    def test_unreadable_meta_names_meta(self, ledger, tmp_path, content):
        # None: meta.json cut to 40 bytes.
        store = tmp_path / "store"
        save_ledger(ledger, str(store))
        meta = store / "meta.json"
        meta.write_bytes(meta.read_bytes()[:40] if content is None else content)
        with pytest.raises(StoreError, match="unreadable meta.json"):
            load_ledger(str(store))

    def test_save_leaves_only_store_files(self, ledger, tmp_path):
        store = tmp_path / "store"
        save_ledger(ledger, str(store))
        save_ledger(ledger, str(store))
        assert sorted(os.listdir(store)) == ["ledger.npz", "meta.json"]

    def test_interrupted_npz_write_keeps_previous_store(self, ledger, tmp_path, monkeypatch):
        store = tmp_path / "store"
        save_ledger(ledger, str(store))
        before = {name: (store / name).read_bytes() for name in os.listdir(store)}
        other = make_ledger([rec("c0", 0, [], [["x", 5]])])

        def savez_then_fail(fp, **arrays):
            fp.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", savez_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_ledger(other, str(store))
        monkeypatch.undo()
        assert {name: (store / name).read_bytes() for name in os.listdir(store)} == before
        assert load_ledger(str(store)).canonical_bytes() == ledger.canonical_bytes()

    def test_interrupted_move_leaves_no_store(self, ledger, tmp_path, monkeypatch):
        # Interrupted between moving ledger.npz and meta.json into place: the
        # directory reads as no store, not as the old meta.json beside the
        # new ledger.npz.
        store = tmp_path / "store"
        save_ledger(ledger, str(store))
        other = make_ledger([rec("c0", 0, [], [["x", 5]])])
        real_replace = os.replace

        def replace(src, dst):
            if os.path.basename(dst) == "meta.json":
                raise KeyboardInterrupt
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(KeyboardInterrupt):
            save_ledger(other, str(store))
        monkeypatch.undo()
        assert os.listdir(store) == ["ledger.npz"]
        with pytest.raises(StoreError, match="no store"):
            load_ledger(str(store))

    def test_empty_ledger_roundtrip(self, tmp_path):
        empty = make_ledger([])
        store = str(tmp_path / "store")
        save_ledger(empty, store)
        loaded = load_ledger(store)
        assert len(loaded) == 0 and loaded.n_days == 0


class TestSnapshotStore:
    @pytest.mark.parametrize("interval", [1, 3, 32])
    def test_reconstruction_matches_direct(self, ledger, tmp_path, interval):
        # Snapshots replayed from a stored ledger, queried every `interval`
        # days and on the last day, equal the walk of the in-memory ledger.
        store = str(tmp_path / "store")
        save_ledger(ledger, store)
        loaded = load_ledger(store)
        direct = list(compute_snapshots(ledger))
        days = sorted(set(range(0, ledger.n_days, interval)) | {ledger.n_days - 1})
        for day in days:
            rebuilt = snapshot_at(loaded, day)
            assert (rebuilt.balances == direct[day].balances).all()
            assert rebuilt.total_supply == direct[day].total_supply
            assert rebuilt.fees_to_date == direct[day].fees_to_date
