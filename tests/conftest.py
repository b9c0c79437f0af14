import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ledgerlens import parse_ledger
from ledgerlens.store import _digest

DAY = 86_400


def rec(txid, time, ins, outs):
    return json.dumps({"txid": txid, "time": time, "in": ins, "out": outs})


def make_ledger(lines, epoch=None):
    return parse_ledger(iter(lines), epoch=epoch)


def rewrite_arrays(store, change) -> None:
    """Apply `change` to the arrays of a saved store's ledger.npz and
    recompute meta.json's hash, so only the load checks can refuse it."""
    store = Path(store)
    with np.load(store / "ledger.npz") as z:
        arrays = dict(z)
    change(arrays)
    np.savez(store / "ledger.npz", **arrays)
    meta = json.loads((store / "meta.json").read_text())
    meta["content_hash"] = _digest(arrays)
    (store / "meta.json").write_text(json.dumps(meta))


@pytest.fixture
def simple_ledger():
    """Coinbase day 0, one payment day 1, a fee-paying payment day 2."""
    lines = [
        rec("c0", 0, [], [["alice", 50_0000_0000]]),
        rec("p1", DAY + 10, [["alice", 20_0000_0000]], [["bob", 20_0000_0000]]),
        rec("p2", 2 * DAY + 5,
            [["bob", 10_0000_0000]],
            [["carol", 9_0000_0000]]),  # 1 BTC fee
    ]
    return make_ledger(lines)
