"""Seeded ledger generator for the benchmark, with its own ground truth.

The generator is deliberately independent of ``ledgerlens.synth``: the
benchmark must feed the same bytes to every commit it compares, whatever
that commit does to the package's own generator.  It writes a JSON-lines
export in the documented input format and keeps, as it goes, everything the
output checks need: each address's end-of-day balance, the minted supply per
day, the distinct input and output addresses of every transaction, and the
counts ``meta.json`` must report.

The chain is a set of "hubs" (exchanges and pools, which hold most of the
supply and form the top-100) and many regular addresses.  Every day has a
fixed number of transactions of each shape:

* coinbase     - block rewards to the mining hubs;
* payment      - a regular address spends its whole balance to a payee and
                 takes change back (or to a fresh change address);
* deposit      - the same, paid to a hub;
* consolidation- several regular addresses sweep into one;
* batch payout - a hub pays equal amounts to many regular addresses;
* hub transfer - a hub pays another hub, mostly inside its own group, so
                 the cumulative graph among the top-100 has communities.

A small share of transactions lists one address twice on a side, and a small
share of records is written out of time order.  Values are integers and every
spend is covered by the spender's running balance, so every day-end balance is
non-negative and no record is rejected.
"""

import hashlib
import random
from dataclasses import dataclass

import numpy as np

SECONDS_PER_DAY = 86_400
EPOCH = 1_500_000_000 // SECONDS_PER_DAY * SECONDS_PER_DAY
COINBASE = "COINBASE"
REWARD = 50 * 10**8
# Genesis holdings: hubs are large and unequal, regular holders equal (ties).
HUB_GENESIS = 2 * 10**12
REGULAR_GENESIS = 10**8
REPEAT_SHARE = 0.05   # transactions that list one address twice on a side
FEE = 1_000
# Hub transfers that leave the hub's group.  Kept rare so the cumulative
# top-100 graph stays clustered instead of filling in over a long history.
HUB_CROSS_SHARE = 0.02


@dataclass(frozen=True)
class Shape:
    """Per-day make-up of a generated chain; every count is per day."""

    days: int
    hubs: int
    hub_groups: int
    miners: int
    genesis_holders: int
    max_regular: int
    coinbase: int
    payments: int
    deposits: int
    consolidations: int
    batches: int
    batch_outputs: int
    hub_transfers: int
    new_share: float
    disorder: float


@dataclass
class Truth:
    """What the generator knows about the chain it wrote.

    Generator ids index ``names``; id 0 is the coinbase pseudo-address.
    ``changes[d]`` holds the ids whose balance day ``d`` touched and their
    balances at its end (see ``day_end_balances``); ``edges[d]`` holds the (source id, destination id) pairs of the N x M
    expansion of day ``d``'s transactions, coinbase edges leaving id 0.
    """

    names: list
    changes: list
    minted_cum: list
    edges: list
    transactions: int
    out_of_order: int

    @property
    def days(self) -> int:
        return len(self.minted_cum)

    @property
    def addresses(self) -> int:
        """Distinct addresses in the export, the coinbase pseudo-address excluded."""
        return len(self.names) - 1

    def day_end_balances(self):
        """Yield (day, balances) for every day in order.

        The same array is updated in place from one day to the next; copy it
        to keep a day's state.
        """
        balances = np.zeros(len(self.names), dtype=np.int64)
        for day, (ids, values) in enumerate(self.changes):
            balances[ids] = values
            yield day, balances


def _address_name(gid: int, salt: int) -> str:
    # A bijection of the id, so names are unique but their sort order is
    # unrelated to creation order (ties in a ranking break by name).
    return "bc1q%08x" % ((gid * 0x9E3779B1 + salt) & 0xFFFFFFFF)


class _Chain:
    def __init__(self, shape: Shape, rnd: random.Random, salt: int):
        self.shape = shape
        self.rnd = rnd
        self.salt = salt
        self.names = [COINBASE]
        self.bal = [0]
        self.hubs: list[int] = []
        self.regular: list[int] = []
        self.touched: set[int] = set()

    def new_address(self, hub: bool = False) -> int:
        gid = len(self.names)
        self.names.append(_address_name(gid, self.salt))
        self.bal.append(0)
        (self.hubs if hub else self.regular).append(gid)
        return gid

    def pick(self, items: list[int]) -> int:
        return items[int(self.rnd.random() * len(items))]

    def fresh_or(self, gid: int, share: float) -> int:
        """A new regular address with probability `share` (while the pool
        is below its cap), else `gid`."""
        if len(self.regular) < self.shape.max_regular and self.rnd.random() < share:
            return self.new_address()
        return gid

    def payee(self) -> int:
        return self.fresh_or(self.pick(self.regular), self.shape.new_share)

    def funded_regular(self) -> int:
        for _ in range(10_000):
            gid = self.pick(self.regular)
            if self.bal[gid] > FEE:
                return gid
        raise RuntimeError("no funded regular address")

    def hub_in_group(self, hub: int) -> int:
        s = self.shape
        if self.rnd.random() >= HUB_CROSS_SHARE:
            group = (hub - 1) % s.hub_groups  # hubs hold gids 1..hubs
            members = self.hubs[group::s.hub_groups]
        else:
            members = self.hubs
        other = self.pick(members)
        return other if other != hub else self.pick(self.hubs)

    # Each builder returns (inputs, outputs) as lists of [gid, value] and
    # applies the transaction to the running balances.

    def _spend(self, sender: int, pay_to: list[int], amounts: list[int],
               change_fresh: float) -> tuple[list, list]:
        total = self.bal[sender]
        spent = sum(amounts)
        change = total - spent - FEE
        if change < 0:
            raise RuntimeError("generator overdraft")
        inputs = [[sender, total]]
        if self.rnd.random() < REPEAT_SHARE and total > 1:
            part = self.rnd.randint(1, total - 1)
            inputs = [[sender, part], [sender, total - part]]
        outputs = [[g, a] for g, a in zip(pay_to, amounts)]
        if change > 0:
            back = self.fresh_or(sender, change_fresh)
            outputs.append([back, change])
        self._apply(inputs, outputs)
        return inputs, outputs

    def _apply(self, inputs, outputs) -> None:
        for g, v in inputs:
            self.bal[g] -= v
            self.touched.add(g)
        for g, v in outputs:
            self.bal[g] += v
            self.touched.add(g)

    def coinbase(self) -> tuple[list, list]:
        miner = self.hubs[self.rnd.randrange(self.shape.miners)]
        if self.rnd.random() < REPEAT_SHARE:
            outputs = [[miner, REWARD // 2], [miner, REWARD - REWARD // 2]]
        else:
            outputs = [[miner, REWARD]]
        self._apply([], outputs)
        return [], outputs

    def payment(self, to_hub: bool) -> tuple[list, list]:
        sender = self.funded_regular()
        room = self.bal[sender] - FEE
        amount = max(1, int(room * self.rnd.uniform(0.05, 0.9)) // 1000 * 1000)
        payee = self.pick(self.hubs) if to_hub else self.payee()
        return self._spend(sender, [payee], [amount], change_fresh=0.3)

    def consolidation(self) -> tuple[list, list]:
        k = self.rnd.randint(2, 5)
        senders: list[int] = []
        while len(senders) < k:
            gid = self.funded_regular()
            if gid not in senders:
                senders.append(gid)
        inputs = [[g, self.bal[g]] for g in senders]
        if self.rnd.random() < REPEAT_SHARE:
            g, v = inputs[0]
            inputs[0:1] = [[g, v // 2], [g, v - v // 2]]
        total = sum(v for _, v in inputs)
        dest = self.fresh_or(senders[0], 0.5)
        outputs = [[dest, total - FEE]]
        self._apply(inputs, outputs)
        return inputs, outputs

    def batch(self) -> tuple[list, list]:
        s = self.shape
        hub = max(self.rnd.sample(self.hubs, 3), key=lambda g: self.bal[g])
        m = self.rnd.randint(3, s.batch_outputs)
        unit = self.pick([1, 2, 5, 10, 20, 50]) * 10**6
        unit = min(unit, max(1, (self.bal[hub] // 20) // m))
        payees = [self.payee() for _ in range(m - 1)]
        payees.append(payees[0] if self.rnd.random() < REPEAT_SHARE else self.payee())
        return self._spend(hub, payees, [unit] * m, change_fresh=0.0)

    def hub_transfer(self) -> tuple[list, list]:
        hub = self.pick(self.hubs)
        other = self.hub_in_group(hub)
        amount = max(1, int(self.bal[hub] * self.rnd.uniform(0.01, 0.1)))
        return self._spend(hub, [other], [amount], change_fresh=0.0)


def _distinct(side) -> list[int]:
    return list(dict.fromkeys(g for g, _ in side))


def _line(txid: str, time: int, inputs, outputs, names) -> str:
    ins = ",".join('["%s",%d]' % (names[g], v) for g, v in inputs)
    outs = ",".join('["%s",%d]' % (names[g], v) for g, v in outputs)
    return '{"txid":"%s","time":%d,"in":[%s],"out":[%s]}\n' % (txid, time, ins, outs)


def generate(shape: Shape, seed: int, path: str) -> Truth:
    """Write the export for (shape, seed) to `path` and return its truth.

    The same shape and seed always give the same bytes.
    """
    rnd = random.Random(f"ledgerlens-bench:{seed}:{shape}")
    salt = rnd.getrandbits(32)
    chain = _Chain(shape, rnd, salt)
    for _ in range(shape.hubs):
        chain.new_address(hub=True)
    for _ in range(shape.genesis_holders):
        chain.new_address()

    kinds = (["payment"] * shape.payments + ["deposit"] * shape.deposits
             + ["consolidation"] * shape.consolidations + ["batch"] * shape.batches
             + ["hub_transfer"] * shape.hub_transfers + ["coinbase"] * shape.coinbase)
    minted = 0
    minted_cum: list[int] = []
    changes: list[tuple[np.ndarray, np.ndarray]] = []
    edges: list[tuple[np.ndarray, np.ndarray]] = []
    n_tx = 0
    out_of_order = 0
    prev_time = None
    with open(path, "w") as fp:
        for day in range(shape.days):
            txs = []
            if day == 0:
                weights = [min(50.0, rnd.paretovariate(1.2)) for _ in chain.hubs]
                outputs = [[g, int(HUB_GENESIS * w)] for g, w in zip(chain.hubs, weights)]
                outputs += [[g, REGULAR_GENESIS] for g in chain.regular]
                chain._apply([], outputs)
                txs.append(([], outputs))
            order = kinds[:]
            rnd.shuffle(order)
            for kind in order:
                if kind == "payment":
                    txs.append(chain.payment(to_hub=False))
                elif kind == "deposit":
                    txs.append(chain.payment(to_hub=True))
                elif kind == "consolidation":
                    txs.append(chain.consolidation())
                elif kind == "batch":
                    txs.append(chain.batch())
                elif kind == "hub_transfer":
                    txs.append(chain.hub_transfer())
                else:
                    txs.append(chain.coinbase())

            start = EPOCH + day * SECONDS_PER_DAY
            times = sorted(int(rnd.random() * SECONDS_PER_DAY) for _ in txs)
            rows = []
            src: list[int] = []
            dst: list[int] = []
            for time_off, (inputs, outputs) in zip(times, txs):
                n_tx += 1
                txid = hashlib.blake2b(b"%d:%d:%d" % (salt, day, n_tx),
                                       digest_size=16).hexdigest()
                rows.append((start + time_off, txid, inputs, outputs))
                ins = _distinct(inputs) if inputs else [0]
                outs = _distinct(outputs)
                for a in ins:
                    src.extend([a] * len(outs))
                    dst.extend(outs)
                minted += 0 if inputs else sum(v for _, v in outputs)
            # Swap a few adjacent records so they reach the file out of order.
            i = 0
            while i + 1 < len(rows):
                if rows[i][0] < rows[i + 1][0] and rnd.random() < shape.disorder:
                    rows[i], rows[i + 1] = rows[i + 1], rows[i]
                    i += 2
                else:
                    i += 1
            for time, txid, inputs, outputs in rows:
                if prev_time is not None and time < prev_time:
                    out_of_order += 1
                prev_time = time
                fp.write(_line(txid, time, inputs, outputs, chain.names))
            minted_cum.append(minted)
            ids = sorted(chain.touched)
            chain.touched.clear()
            changes.append((np.asarray(ids, dtype=np.int64),
                            np.asarray([chain.bal[g] for g in ids], dtype=np.int64)))
            edges.append((np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)))

    return Truth(
        names=chain.names,
        changes=changes,
        minted_cum=minted_cum,
        edges=edges,
        transactions=n_tx,
        out_of_order=out_of_order,
    )
