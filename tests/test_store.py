import hashlib
import json
import os

import numpy as np
import pytest

from ledgerlens import (
    BalanceError,
    StoreError,
    SynthConfig,
    compute_rankings,
    compute_snapshots,
    generate,
    load_ledger,
    save_ledger,
)
from ledgerlens import store as store_mod
from ledgerlens.balances import snapshot_at
from ledgerlens.cli import run
from ledgerlens.ledger import MAX_VALUE, MIN_TIME
from ledgerlens.store import STORE_VERSION, _pack_strings, content_hash, load_meta
from conftest import DAY, make_ledger, rec, rewrite_arrays


NOT_MIDNIGHT = f"epoch_start is not a UTC midnight in [{MIN_TIME}, {MAX_VALUE}]"


@pytest.fixture
def ledger():
    return generate(SynthConfig(seed=9, days=10, txs_per_day=40, pool=30, growth=1.0))


def three_records():
    return make_ledger([
        rec("c0", 0, [], [["alice", 5000], ["bob", 3000]]),
        rec("p1", DAY + 10, [["alice", 2000]], [["carol", 1500], ["bob", 400]]),
        rec("p2", 2 * DAY + 5, [["bob", 1000], ["carol", 500]], [["dave", 1400]]),
    ])


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

    @pytest.mark.parametrize("offset, value", [(8, 1), (10, 99)],
                             ids=["encrypted", "unknown_compression"])
    def test_zip_entry_the_zip_layer_cannot_read(self, ledger, tmp_path, offset, value):
        # A byte of the zip directory marks the first entry as encrypted
        # (flag bit 0) or compressed by method 99: the zip layer raises
        # RuntimeError or NotImplementedError for these, not BadZipFile.
        store = tmp_path / "store"
        save_ledger(ledger, str(store))
        npz = store / "ledger.npz"
        data = bytearray(npz.read_bytes())
        data[data.index(b"PK\x01\x02") + offset] = value
        npz.write_bytes(data)
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
        rewrite_arrays(store, lambda a: a.update(
            addresses=_pack_strings(names(list(ledger.addresses.names)))))
        with pytest.raises(StoreError, match=match):
            load_ledger(str(store))

    @pytest.mark.parametrize("txids,match", [
        (lambda txids: _pack_strings({"a": 1}), "unreadable"),         # not a list
        (lambda txids: _pack_strings(txids[:-1] + [7]), "unreadable"),  # not strings
        (lambda txids: np.frombuffer(b"[" * 100_000, dtype=np.uint8), "unreadable"),
        (lambda txids: _pack_strings(txids[:-1]),
         "corrupt .txid table has 312 entries for 313 "),
        (lambda txids: _pack_strings(txids + ["extra"]), "corrupt .txid table has 314 entries"),
    ], ids=["object", "int", "nested", "short", "long"])
    def test_bad_txid_table(self, ledger, tmp_path, txids, match):
        store = tmp_path / "store"
        save_ledger(ledger, str(store))
        rewrite_arrays(store, lambda a: a.update(txids=txids(list(ledger.txids))))
        with pytest.raises(StoreError, match=match):
            load_ledger(str(store))

    @pytest.mark.parametrize("change,match", [
        (lambda a: a.update(out_addr=np.where(np.arange(len(a["out_addr"])) == 3,
                                              10**6, a["out_addr"])),
         "out_addr holds an address id outside 1..39"),
        (lambda a: a.update(in_addr=np.where(np.arange(len(a["in_addr"])) == 0,
                                             0, a["in_addr"])),
         "in_addr holds an address id outside"),
        (lambda a: a.update(in_ptr=a["in_ptr"][:-1]), "in_ptr has 313 entries for 313 "),
        (lambda a: a.update(out_ptr=a["out_ptr"] + 1), "out_ptr does not run from 0"),
        (lambda a: a.update(out_ptr=np.concatenate((a["out_ptr"][:-1],
                                                    a["out_ptr"][-1:] - 1))),
         "out_ptr does not run from 0"),
        (lambda a: a.update(in_ptr=np.where(np.arange(len(a["in_ptr"])) == 200,
                                            a["in_ptr"][-1], a["in_ptr"])),
         "in_ptr does not run from 0"),
        # The first transaction's outputs moved to the second: it has none.
        (lambda a: a["out_ptr"].__setitem__(1, 0), "out_ptr does not run from 0"),
        (lambda a: a.update(in_val=a["in_val"][:-1]), "in_addr and in_val differ"),
        (lambda a: a.update(out_val=-a["out_val"]), "out_val holds a value <= 0"),
        (lambda a: a.update(times=a["times"][::-1].copy()), "times out of order"),
        (lambda a: a["out_val"].fill(2**62), "a transaction total exceeds 2.63-1"),
        (lambda a: a.update(out_val=a["out_val"] + 10**12),
         "a transaction's outputs exceed its inputs"),
        (lambda a: a["out_val"].__setitem__(a["out_ptr"][:-1][np.diff(a["in_ptr"]) == 0], 2**62),
         "minted supply exceeds 2.63-1"),
        (lambda a: a.update(in_addr=a["in_addr"].astype(np.int32)),
         "in_addr is not a 1-D int64 array"),
        (lambda a: a.update(times=a["times"][1:].reshape(2, -1)),
         "times is not a 1-D int64 array"),
        (lambda a: a.update(txids=a["txids"].view(np.int8)),
         "txids is not a 1-D uint8 array"),
    ], ids=["out_addr_huge", "in_addr_coinbase", "in_ptr_short", "out_ptr_offset",
            "out_ptr_short_end", "in_ptr_decreasing", "no_output", "in_val_short",
            "negative_value", "times_reversed", "total_overflow", "outputs_above_inputs",
            "minted_overflow", "int32", "two_d", "txids_int8"])
    def test_inconsistent_arrays(self, ledger, tmp_path, change, match):
        store = tmp_path / "store"
        save_ledger(ledger, str(store))
        rewrite_arrays(store, change)
        with pytest.raises(StoreError, match=f"is corrupt .{match}"):
            load_ledger(str(store))

    def test_balance_error_names_txid(self, tmp_path):
        # "t1" spends more than "a" holds; the loaded ledger names it.
        bad = make_ledger([rec("c0", 0, [], [["a", 5]]),
                           rec("t1", DAY, [["a", 9]], [["b", 9]])])
        save_ledger(bad, str(tmp_path / "store"))
        loaded = load_ledger(str(tmp_path / "store"))
        with pytest.raises(BalanceError, match="transaction 't1' .day 1. drives the balance "
                                               "of 'a' negative"):
            list(compute_rankings(loaded, 5))

    def test_txids_decoded_on_first_read(self, ledger, tmp_path):
        # Loaded and parsed ledgers alike hold the packed table alone.
        save_ledger(ledger, str(tmp_path / "store"))
        loaded = load_ledger(str(tmp_path / "store"))
        parsed = make_ledger(ledger.canonical_bytes().decode().splitlines())
        for held in (loaded, parsed):
            assert len(held) == len(ledger)
            assert held.times.tolist() == ledger.times.tolist()
            list(compute_rankings(held, 5))
            assert held._txids is None
            assert held.txids == ledger.txids
            assert held.canonical_record(3) == ledger.canonical_record(3)

    def test_parsed_and_reloaded_ledgers_write_the_same_bytes(self, ledger, tmp_path):
        # Reversed, every record is out of order and re-sorted by ingest.
        parsed = make_ledger(ledger.canonical_bytes().decode().splitlines()[::-1])
        assert parsed.out_of_order == len(ledger) - 1
        save_ledger(parsed, str(tmp_path / "parsed"))
        save_ledger(load_ledger(str(tmp_path / "parsed")), str(tmp_path / "reloaded"))
        for name in ("ledger.npz", "meta.json"):
            assert ((tmp_path / "parsed" / name).read_bytes()
                    == (tmp_path / "reloaded" / name).read_bytes())

    def test_loaded_table_has_no_name_index(self, ledger, tmp_path):
        save_ledger(ledger, str(tmp_path / "store"))
        table = load_ledger(str(tmp_path / "store")).addresses
        assert table._index is None
        name = ledger.addresses.names[7]
        assert table.id_of(name) == 7
        assert table.intern_all([name, "fresh"]).tolist() == [7, len(ledger.addresses)]

    def test_golden_content_hash(self, tmp_path):
        # Pins the digest: the bytes of each array in store order.
        assert content_hash(three_records()) == "80c339c512ebf4ea"
        meta = save_ledger(three_records(), str(tmp_path / "store"))
        assert meta["content_hash"] == "80c339c512ebf4ea"
        assert load_meta(str(tmp_path / "store"))["content_hash"] == "80c339c512ebf4ea"
        assert load_ledger(str(tmp_path / "store")).canonical_bytes() == (
            three_records().canonical_bytes())

    # SHA-256 of the files, taken when the store was written by `np.savez`
    # (numpy 2.4.6): the zip container and the .npy headers, not only the
    # array bytes that the content hash covers.
    GOLDEN_FILES = {
        "three_records": {
            "ledger.npz": "474860d5ce9141d9729e130f3cdf5935e5b214ac5a736f0925e744f551a95af8",
            "meta.json": "3e318ac8bfcc889d65db09dd9d51627f80578852cd06264085b5114729685ba3",
        },
        "synth_30_days": {
            "ledger.npz": "214d35252d7504eb7e3703e87210dc494e56835b701fddc617f75e2e5b3e15fc",
            "meta.json": "ca795bfc583df70c523d41ce407316c264339db8eae31af425466cd8a00f0855",
        },
    }

    @staticmethod
    def file_digests(store):
        return {name: hashlib.sha256((store / name).read_bytes()).hexdigest()
                for name in ("ledger.npz", "meta.json")}

    def test_golden_store_files(self, tmp_path):
        save_ledger(three_records(), str(tmp_path / "three"))
        assert self.file_digests(tmp_path / "three") == self.GOLDEN_FILES["three_records"]

    def test_golden_store_files_through_ingest(self, tmp_path):
        # 2930 lines: three chunks of the parser.
        export = tmp_path / "chain.jsonl"
        assert run(["synth", "--days", "30", "--seed", "1", "--out", str(export)]) == 0
        assert run(["ingest", "--input", str(export), "--out", str(tmp_path / "s")]) == 0
        assert self.file_digests(tmp_path / "s") == self.GOLDEN_FILES["synth_30_days"]

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

    @pytest.mark.parametrize("field, value, message", [
        ("epoch_start", "x", "epoch_start is a str, not an integer or null"),
        ("epoch_start", [], "epoch_start is a list, not an integer or null"),
        ("epoch_start", True, "epoch_start is a bool, not an integer or null"),
        ("epoch_start", 0.0, "epoch_start is a float, not an integer or null"),
        ("epoch_start", 3600, NOT_MIDNIGHT),
        ("epoch_start", MIN_TIME - DAY, NOT_MIDNIGHT),
        ("epoch_start", (MAX_VALUE // DAY + 1) * DAY, NOT_MIDNIGHT),
        ("epoch_start", DAY, "transaction precedes the configured epoch"),
        ("epoch_start", -200_000 * DAY, "ledger spans 200003 days, more than 100000"),
        ("out_of_order", -1, "out_of_order is not a non-negative integer"),
        ("out_of_order", "3", "out_of_order is not a non-negative integer"),
        ("out_of_order", False, "out_of_order is not a non-negative integer"),
        ("out_of_order", None, "out_of_order is not a non-negative integer"),
    ], ids=["epoch_str", "epoch_list", "epoch_bool", "epoch_float", "epoch_not_midnight",
            "epoch_below_min", "epoch_above_max", "epoch_after_first", "epoch_span",
            "count_negative", "count_str", "count_bool", "count_null"])
    def test_edited_meta_is_corrupt(self, tmp_path, field, value, message):
        # meta.json is not covered by the hash: each value here is one
        # ingest never writes, or one the ledger's times refute.
        store = tmp_path / "store"
        save_ledger(three_records(), str(store))
        meta = json.loads((store / "meta.json").read_text())
        meta[field] = value
        (store / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(StoreError) as info:
            load_ledger(str(store))
        assert str(info.value) == f"store at {str(store)!r} is corrupt ({message})"

    @pytest.mark.parametrize("version", [True, 1.0], ids=["bool", "float"])
    def test_edited_store_version_is_refused(self, tmp_path, capsys, version):
        # Both compare equal to the integer version 1; neither is one.
        store = tmp_path / "store"
        save_ledger(three_records(), str(store))
        meta = json.loads((store / "meta.json").read_text())
        meta["store_version"] = version
        (store / "meta.json").write_text(json.dumps(meta))
        message = f"store version {version!r} unsupported (expected {STORE_VERSION})"
        with pytest.raises(StoreError) as info:
            load_ledger(str(store))
        assert str(info.value) == message
        capsys.readouterr()
        assert run(["snapshot", "--store", str(store), "--dump-day", "0", "--out",
                    str(tmp_path / "snap.csv")]) == 2
        assert capsys.readouterr().err == f"ledgerlens: {message}\n"

    @pytest.mark.parametrize("field, value", [("epoch_start", -DAY), ("epoch_start", None),
                                              ("out_of_order", 7)],
                             ids=["epoch_day_before", "epoch_null", "count"])
    def test_edited_meta_that_ingest_could_write_loads(self, tmp_path, field, value):
        store = tmp_path / "store"
        save_ledger(three_records(), str(store))
        meta = json.loads((store / "meta.json").read_text())
        meta[field] = value
        (store / "meta.json").write_text(json.dumps(meta))
        loaded = load_ledger(str(store))
        assert getattr(loaded, field) == (0 if value is None else value)
        assert loaded.n_days == (4 if value == -DAY else 3)

    @pytest.mark.parametrize("content", [None, b"[1, 2]", b"\xff\xfe{", b"[" * 100_000,
                                         b'{"epoch_start": 1' + b"0" * 5000 + b"}"],
                             ids=["truncated", "not_object", "not_utf8", "nested",
                                  "long_integer"])
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

        def write_then_fail(fp, cols):
            fp.write(b"PK\x03\x04 half an archive")
            raise OSError("disk full")

        monkeypatch.setattr(store_mod, "_write_npz", write_then_fail)
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
