"""Deterministic synthetic ledgers with controllable concentration dynamics.

Randomness comes from the counter-based Philox generator keyed by the
config seed, consumed in a fixed per-day order, so equal configs produce
byte-identical canonical serializations.  Weighted sampling without
replacement uses Gumbel top-k keys; each address sends at most one payment
per day, which keeps day generation fully vectorized while balances stay
non-negative by construction.

Wealth regimes:

* ``uniform`` - senders uniform over funded addresses, receivers uniform
  over the whole pool.
* ``preferential`` - receivers drawn with probability proportional to
  (balance + 1) ** alpha; alpha 0 reduces to uniform.  Addresses that
  `growth` adds start unfunded, so each is drawn with weight 1 against
  the funded addresses' (balance + 1) ** alpha, and few of them ever
  transact: the ledger's address set barely grows, where ``uniform``
  reaches them.
* ``hub`` - half the payments flow from random spokes into one of `hubs`
  hub addresses, half from hubs back out to random spokes.
* ``churn`` - a rotating window of round(churn_rate * 100) current top-100
  members each send their full balance to a brand-new address every day
  (fee-free, so ranking positions are preserved exactly); `txs_per_day` is
  ignored by this regime.
"""

# Annotations stay unevaluated, so importing the package does not import
# numpy.random (about 10 ms) for the `np.random.Generator` hints.
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ledger import MAX_VALUE, AddressTable, Ledger, SECONDS_PER_DAY

REGIMES = ("uniform", "preferential", "hub", "churn")
# A payment's fee: amount * FEE_PER_1024 / 1024 rounded down, below the amount.
FEE_PER_1024 = 1
# The most addresses a config may make room for: the pool, `growth` a day
# and the churn regime's fresh addresses.  `generate` sizes its balance
# table for all of them before the first day (128 MiB at this bound).
MAX_ADDRESSES = 2**24


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    days: int = 30
    txs_per_day: int = 100
    pool: int = 200
    growth: float = 0.0
    regime: str = "uniform"
    alpha: float = 0.0
    hubs: int = 5
    churn_rate: float = 0.1
    initial_supply: int = 10**12
    reward: int = 50 * 10**8
    halving_days: int = 0
    amount_frac: float = 0.5

    def validate(self) -> None:
        if not 0 <= self.seed < 2**128:
            raise ValueError("seed must be in [0, 2**128), the Philox key range")
        if self.days < 0 or self.txs_per_day < 0:
            raise ValueError("days and txs_per_day must be >= 0")
        if self.txs_per_day + 1 > SECONDS_PER_DAY:
            raise ValueError("txs_per_day must fit within one day of seconds")
        if self.pool < 1:
            raise ValueError("pool must be >= 1")
        if not (math.isfinite(self.growth) and self.growth >= 0):
            raise ValueError("growth must be finite and >= 0")
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ValueError("alpha must be finite and >= 0")
        if not 0.0 <= self.churn_rate <= 1.0:
            raise ValueError("churn_rate must be in [0, 1]")
        if self.regime == "hub" and not 1 <= self.hubs <= self.pool:
            raise ValueError("hubs must be in [1, pool]")
        if self.reward < 0 or self.initial_supply < 0:
            raise ValueError("rewards must be >= 0")
        if self.halving_days < 0:
            raise ValueError("halving_days must be >= 0")
        if self.days > 0 and self._minted() > MAX_VALUE:
            raise ValueError("initial_supply plus every day's reward exceeds 2^63-1, "
                             "the largest supply a ledger holds")
        if self.days > 0 and self.initial_supply < self._initial_weight_total():
            raise ValueError("initial_supply too small for the pool")
        if not 0.0 < self.amount_frac <= 1.0:
            raise ValueError("amount_frac must be in (0, 1]")
        if self.growth * self.days > MAX_ADDRESSES or self._capacity() > MAX_ADDRESSES:
            raise ValueError("pool plus growth * days plus churned addresses exceeds "
                             f"{MAX_ADDRESSES}, the most addresses synth generates")

    def _capacity(self) -> int:
        """The addresses a chain may make: COINBASE, the pool, int(growth *
        days) and the churn regime's fresh addresses of every day."""
        return 1 + self.pool + int(self.growth * self.days) + self._churn_count() * self.days

    def _churn_count(self) -> int:
        """Top-100 members the churn regime replaces each day."""
        return round(self.churn_rate * 100) if self.regime == "churn" else 0

    def _minted(self) -> int:
        """The supply a chain of `days` >= 1 days mints, in Python ints: the
        initial supply on day 0, then reward >> k on each later day of
        halving period k (days [k * halving_days, (k + 1) * halving_days);
        one period when halving_days is 0)."""
        period = self.halving_days or self.days
        total, k = self.initial_supply, 0
        while self.reward >> k and k * period < self.days:
            first, stop = max(k * period, 1), min((k + 1) * period, self.days)
            total += (self.reward >> k) * (stop - first)
            k += 1
        return total

    def _initial_weight_total(self) -> int:
        if self.regime == "churn":
            return self.pool * (self.pool + 1) // 2
        return self.pool


class _Builder:
    """Accumulates flat transaction arrays and finalizes a Ledger."""

    def __init__(self, capacity: int):
        self.table = AddressTable()
        self.balances = np.zeros(capacity + 1, dtype=np.int64)
        self.times: list[np.ndarray] = []
        self.in_counts: list[np.ndarray] = []
        self.out_counts: list[np.ndarray] = []
        self.in_addr: list[np.ndarray] = []
        self.in_val: list[np.ndarray] = []
        self.out_addr: list[np.ndarray] = []
        self.out_val: list[np.ndarray] = []
        self.n_tx = 0

    def new_addresses(self, k: int) -> np.ndarray:
        """Intern `k` fresh addresses, named by id; returns their ids."""
        first = len(self.table)
        ids = self.table.intern_all([f"a{i:07d}" for i in range(first, first + k)])
        short = len(self.table) - len(self.balances)
        if short > 0:
            grow = max(64, len(self.balances) // 2, short)
            self.balances = np.concatenate((self.balances, np.zeros(grow, dtype=np.int64)))
        return ids

    def add_coinbase(self, time: int, out_ids: np.ndarray, out_vals: np.ndarray) -> None:
        self.times.append(np.array([time], dtype=np.int64))
        self.in_counts.append(np.zeros(1, dtype=np.int64))
        self.out_counts.append(np.array([len(out_ids)], dtype=np.int64))
        self.in_addr.append(np.zeros(0, dtype=np.int64))
        self.in_val.append(np.zeros(0, dtype=np.int64))
        self.out_addr.append(out_ids.astype(np.int64))
        self.out_val.append(out_vals.astype(np.int64))
        np.add.at(self.balances, out_ids, out_vals)
        self.n_tx += 1

    def add_payments(
        self,
        base_time: int,
        senders: np.ndarray,
        receivers: np.ndarray,
        amounts: np.ndarray,
        fees: np.ndarray,
    ) -> None:
        """Append one-input/one-output payments, debiting and crediting."""
        k = len(senders)
        if k == 0:
            return
        self.times.append(base_time + np.arange(k, dtype=np.int64))
        self.in_counts.append(np.ones(k, dtype=np.int64))
        self.out_counts.append(np.ones(k, dtype=np.int64))
        self.in_addr.append(senders.astype(np.int64))
        self.in_val.append(amounts.astype(np.int64))
        self.out_addr.append(receivers.astype(np.int64))
        self.out_val.append((amounts - fees).astype(np.int64))
        np.subtract.at(self.balances, senders, amounts)
        np.add.at(self.balances, receivers, amounts - fees)
        self.n_tx += k

    def finish(self) -> Ledger:
        n = self.n_tx
        txids = [f"t{i:08d}" for i in range(n)]
        if n == 0:
            z = np.zeros(0, dtype=np.int64)
            p = np.zeros(1, dtype=np.int64)
            return Ledger(self.table, [], z, p, z.copy(), z.copy(),
                          p.copy(), z.copy(), z.copy(), None)
        times = np.concatenate(self.times)
        in_counts = np.concatenate(self.in_counts)
        out_counts = np.concatenate(self.out_counts)
        in_ptr = np.zeros(n + 1, dtype=np.int64)
        out_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(in_counts, out=in_ptr[1:])
        np.cumsum(out_counts, out=out_ptr[1:])
        return Ledger(
            self.table,
            txids,
            times,
            in_ptr,
            np.concatenate(self.in_addr),
            np.concatenate(self.in_val),
            out_ptr,
            np.concatenate(self.out_addr),
            np.concatenate(self.out_val),
            epoch_start=None,
        )


def _gumbel_topk(rng: np.random.Generator, weights: np.ndarray, k: int) -> np.ndarray:
    """Indices of a weighted sample without replacement (Gumbel top-k)."""
    u = rng.random(len(weights))
    keys = np.log(weights) - np.log(-np.log(u))
    if k >= len(weights):
        return np.argsort(-keys, kind="stable")
    part = np.argpartition(-keys, k)[:k]
    return part


def _weighted_pick(rng: np.random.Generator, weights: np.ndarray, k: int) -> np.ndarray:
    """k indices drawn with replacement, probability proportional to weights."""
    cum = np.cumsum(weights)
    if not np.isfinite(cum[-1]):
        raise ValueError("alpha too large: the receiver weights (balance + 1) ** alpha "
                         "overflow float64")
    u = rng.random(k) * cum[-1]
    return np.searchsorted(cum, u, side="right")


def generate(config: SynthConfig) -> Ledger:
    """Generate a deterministic ledger for a config (same config, same bytes)."""
    cfg = config
    cfg.validate()
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))

    churn_count = cfg._churn_count()
    b = _Builder(cfg._capacity() + 8)
    if cfg.days == 0:
        return b.finish()

    pool_ids = b.new_addresses(cfg.pool)

    # Day-0 allocation.
    if cfg.regime == "churn":
        unit = cfg.initial_supply // (cfg.pool * (cfg.pool + 1) // 2)
        vals = unit * np.arange(cfg.pool, 0, -1, dtype=np.int64)
    else:
        unit = cfg.initial_supply // cfg.pool
        vals = np.full(cfg.pool, unit, dtype=np.int64)
    vals[0] += cfg.initial_supply - int(vals.sum())
    b.add_coinbase(0, pool_ids, vals)

    growth_acc = 0.0
    for day in range(1, cfg.days):
        base = day * SECONDS_PER_DAY

        # Pool growth: one address for each whole unit the running total holds.
        growth_acc += cfg.growth
        b.new_addresses(int(growth_acc))
        growth_acc -= int(growth_acc)

        # Daily coinbase.
        reward = cfg.reward
        if cfg.halving_days:
            reward >>= day // cfg.halving_days
        if reward >= 1:
            n_real = len(b.table) - 1
            miner = 1 + int(rng.random() * n_real)
            b.add_coinbase(base, np.array([miner]), np.array([reward], dtype=np.int64))

        if cfg.regime == "churn":
            _churn_day(b, cfg, day, base, churn_count)
        else:
            _payments_day(b, cfg, rng, base)

    return b.finish()


def _payments_day(b: _Builder, cfg: SynthConfig, rng: np.random.Generator, base: int) -> None:
    bal = b.balances
    n_real = len(b.table) - 1
    real = np.arange(1, n_real + 1, dtype=np.int64)
    funded = real[bal[real] > 0]
    if cfg.txs_per_day == 0 or not len(funded):
        return

    if cfg.regime == "hub":
        _hub_day(b, cfg, rng, base, real, funded)
        return

    k = min(cfg.txs_per_day, len(funded))
    senders = funded[_gumbel_topk(rng, np.ones(len(funded)), k)]
    if cfg.regime == "preferential":
        with np.errstate(over="ignore"):  # an overflow is refused in _weighted_pick
            weights = (bal[real].astype(np.float64) + 1.0) ** cfg.alpha
        receivers = real[_weighted_pick(rng, weights, k)]
    else:
        receivers = real[(rng.random(k) * n_real).astype(np.int64)]
    start = bal[senders]
    raw = (rng.random(k) * start * cfg.amount_frac).astype(np.int64)
    amounts = np.clip(raw, 1, start)
    fees = np.minimum(amounts * FEE_PER_1024 >> 10, amounts - 1)
    b.add_payments(base + 1, senders, receivers, amounts, fees)


def _hub_day(
    b: _Builder,
    cfg: SynthConfig,
    rng: np.random.Generator,
    base: int,
    real: np.ndarray,
    funded: np.ndarray,
) -> None:
    bal = b.balances
    hubs = real[: cfg.hubs]
    spokes = real[cfg.hubs:]
    funded_spokes = spokes[bal[spokes] > 0] if len(spokes) else spokes
    n_in = cfg.txs_per_day // 2
    n_out = cfg.txs_per_day - n_in

    senders_l: list[np.ndarray] = []
    receivers_l: list[np.ndarray] = []
    amounts_l: list[np.ndarray] = []

    k_in = min(n_in, len(funded_spokes))
    if k_in:
        s = funded_spokes[_gumbel_topk(rng, np.ones(len(funded_spokes)), k_in)]
        r = hubs[(rng.random(k_in) * len(hubs)).astype(np.int64)]
        start = bal[s]
        raw = (rng.random(k_in) * start * cfg.amount_frac).astype(np.int64)
        senders_l.append(s)
        receivers_l.append(r)
        amounts_l.append(np.clip(raw, 1, start))

    funded_hubs = hubs[bal[hubs] > 0]
    if n_out and len(funded_hubs) and len(spokes):
        hs = funded_hubs[(rng.random(n_out) * len(funded_hubs)).astype(np.int64)]
        per_hub = np.bincount(hs, minlength=len(bal))
        budget = (bal * cfg.amount_frac).astype(np.int64)
        amt = budget[hs] // per_hub[hs]
        keep = amt >= 1
        if keep.any():
            r = spokes[(rng.random(n_out) * len(spokes)).astype(np.int64)]
            senders_l.append(hs[keep])
            receivers_l.append(r[keep])
            amounts_l.append(amt[keep])

    if not senders_l:
        return
    senders = np.concatenate(senders_l)
    receivers = np.concatenate(receivers_l)
    amounts = np.concatenate(amounts_l)
    fees = np.minimum(amounts * FEE_PER_1024 >> 10, amounts - 1)
    b.add_payments(base + 1, senders, receivers, amounts, fees)


def _churn_day(b: _Builder, cfg: SynthConfig, day: int, base: int, count: int) -> None:
    """Replace a rotating window of current top-100 members with fresh
    addresses carrying identical balances."""
    if count == 0:
        return
    bal = b.balances
    funded = np.flatnonzero(bal > 0)
    top_size = min(100, len(funded))
    if top_size == 0:
        return
    vals = bal[funded]
    order = np.argsort(-vals, kind="stable")[:top_size]
    top = funded[order]
    c = min(count, top_size)
    start = ((day - 1) * c) % top_size
    picks = top[[(start + j) % top_size for j in range(c)]]
    senders = picks.astype(np.int64)
    receivers = b.new_addresses(c)
    amounts = bal[senders].copy()
    fees = np.zeros(c, dtype=np.int64)
    b.add_payments(base + 1, senders, receivers, amounts, fees)
