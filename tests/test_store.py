import json

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
from ledgerlens.store import load_meta
from conftest import make_ledger


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

    def test_meta_without_epoch_names_meta(self, ledger, tmp_path):
        store = tmp_path / "store"
        save_ledger(ledger, str(store))
        meta = json.loads((store / "meta.json").read_text())
        del meta["epoch_start"]
        (store / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(StoreError, match="epoch_start in meta.json"):
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
