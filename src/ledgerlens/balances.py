"""End-of-day balance reconstruction, top-N rankings, and supply proportions.

Balances are exact int64 base units.  A day's transactions are applied as a
net batch (only end-of-day state is defined), debiting inputs and crediting
outputs; fees are the input/output difference and belong to no address.
"""

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BalanceError
from .ledger import AddressTable, Ledger

TOP_N_DEFAULT = 2000


@dataclass
class BalanceSnapshot:
    """Per-address balances at one day boundary.

    `balances` is indexed by interned address id and owned by the snapshot
    (callers may keep or mutate it).  `total_supply` is the cumulative minted
    amount through this day; the invariant ``balances.sum() + fees_to_date ==
    total_supply`` holds for every snapshot of a valid ledger.
    """

    day: int
    balances: np.ndarray
    total_supply: int
    fees_to_date: int
    addresses: AddressTable

    def as_dict(self) -> dict[str, int]:
        """Funded addresses only, as an address -> balance map."""
        ids = np.flatnonzero(self.balances > 0)
        names = self.addresses.names
        return {names[i]: int(self.balances[i]) for i in ids}


class Ranking:
    """Top-N addresses by balance for one day, largest first.

    Ties are broken by ascending address string so rankings are reproducible
    regardless of ingestion order.  Zero balances never appear.
    `funded_total` and `funded_sq` are the sum and the float64 sum of
    squares (`pairwise_dot`, in id order) of every funded balance of the
    day, ranked or not.

    A ranking from `rank_balances` holds its sorted `balances` at once but
    orders its `ids` by name only when `ids` is first read; until then it
    keeps the candidate ids and balances that the order is made from.
    """

    def __init__(
        self,
        day: int,
        n: int,
        ids: np.ndarray | None,
        balances: np.ndarray,
        addresses: AddressTable | None = None,
        funded_total: int = 0,
        funded_sq: float = 0.0,
    ):
        self.day = day
        self.n = n
        self._ids = ids
        self.balances = balances
        self.addresses = addresses
        self.funded_total = funded_total
        self.funded_sq = funded_sq
        self._candidates: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def ids(self) -> np.ndarray:
        if self._ids is None:
            # Descending balance, then ascending address string (its
            # position in `name_rank`), cut at n.
            funded, vals = self._candidates
            order = np.lexsort((self.addresses.name_rank[funded], -vals))[:self.n]
            self._ids, self._candidates = funded[order], None
        return self._ids

    def __len__(self) -> int:
        return len(self.balances)

    def truncated(self, n: int) -> "Ranking":
        """The top `n` of this ranking, on copied arrays (a slice would keep
        the parent's whole arrays alive); `n` must be at least 1."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if n >= len(self):
            return self
        return Ranking(self.day, n, self.ids[:n].copy(), self.balances[:n].copy(),
                       self.addresses, self.funded_total, self.funded_sq)


def pairwise_dot(x: np.ndarray, y: np.ndarray) -> float:
    """The sum of ``x * y`` as numpy's pairwise sum, in a fixed order.

    ``np.dot`` hands vectors of more than 10 000 floats to a threaded BLAS,
    which splits the sum across its threads, so the last digits would
    depend on the thread count.  Every float sum of products in ledgerlens
    goes through here.
    """
    return float(np.add.reduce(x * y))


def _apply_day(ledger: Ledger, day: int, balances: np.ndarray) -> None:
    """Apply one day's transactions to `balances` in place (net of the day)."""
    start, stop = ledger.day_range(day)
    i0, i1 = ledger.in_ptr[start], ledger.in_ptr[stop]
    o0, o1 = ledger.out_ptr[start], ledger.out_ptr[stop]
    in_ids = ledger.in_addr[i0:i1]
    np.subtract.at(balances, in_ids, ledger.in_val[i0:i1])
    np.add.at(balances, ledger.out_addr[o0:o1], ledger.out_val[o0:o1])
    if len(in_ids) and balances[in_ids].min() < 0:
        _raise_negative(ledger, day, balances)


def _raise_negative(ledger: Ledger, day: int, balances: np.ndarray) -> None:
    bad = {int(i) for i in np.flatnonzero(balances < 0)}
    start, stop = ledger.day_range(day)
    for t in range(start, stop):
        for j in range(ledger.in_ptr[t], ledger.in_ptr[t + 1]):
            if int(ledger.in_addr[j]) in bad:
                addr = ledger.addresses.names[ledger.in_addr[j]]
                raise BalanceError(ledger.txids[t], day, addr)
    raise BalanceError(ledger.txids[start], day, "<unknown>")


def _replay(ledger: Ledger) -> Iterator[tuple[int, np.ndarray]]:
    """The one balance replay: yield (day, balances) after each day, in order.

    The same array is updated in place between yields; callers copy it to
    keep a day.  A debit that would leave an address negative at a day
    boundary raises BalanceError naming the txid.
    """
    balances = np.zeros(len(ledger.addresses), dtype=np.int64)
    for day in range(ledger.n_days):
        _apply_day(ledger, day, balances)
        yield day, balances


def compute_snapshots(ledger: Ledger) -> Iterator[BalanceSnapshot]:
    """Yield one BalanceSnapshot per day, day 0 through the last day.

    Snapshots are produced incrementally; each day applies only that day's
    transactions to the previous day's state.
    """
    for day, balances in _replay(ledger):
        yield _snapshot(ledger, day, balances)


def _snapshot(ledger: Ledger, day: int, balances: np.ndarray) -> BalanceSnapshot:
    return BalanceSnapshot(
        day=day,
        balances=balances.copy(),
        total_supply=ledger.supply_at(day),
        fees_to_date=ledger.fees_through(day),
        addresses=ledger.addresses,
    )


def snapshot_at(ledger: Ledger, day: int) -> BalanceSnapshot:
    """The end-of-day snapshot of one day (replays days 0..day, copying
    only that day's balances)."""
    if not 0 <= day < ledger.n_days:
        raise ValueError(f"day {day} outside ledger range")
    for d, balances in _replay(ledger):
        if d == day:
            break
    return _snapshot(ledger, day, balances)


def rank_balances(
    balances: np.ndarray, n: int, addresses: AddressTable, day: int
) -> Ranking:
    """Build the top-n ranking of a balance vector.

    Order is descending balance, then ascending address string in Python
    code-point order.  Only funded (positive) balances participate.  When
    more than n are funded, `np.partition` finds the n-th largest balance
    and every id at or above it is kept, so the whole tie group at the cut
    competes on its names.  One `np.sort` of the kept balances gives the
    ranking's balances now; its ids are ordered on their first read, by one
    `np.lexsort` on (balance, name position), the name positions coming
    from `addresses.name_rank`, built once per table.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    funded = np.flatnonzero(balances > 0)
    vals = balances[funded]
    as_float = vals.astype(np.float64)
    funded_total, funded_sq = int(vals.sum()), pairwise_dot(as_float, as_float)
    if len(funded) > n:
        threshold = np.partition(vals, len(vals) - n)[len(vals) - n]
        keep = vals >= threshold
        funded, vals = funded[keep], vals[keep]
    # Funded balances are positive, so negating sorts them descending.
    ranking = Ranking(day, n, None, -np.sort(-vals)[:n], addresses, funded_total, funded_sq)
    ranking._candidates = funded, vals
    return ranking


def compute_rankings(ledger: Ledger, n: int = TOP_N_DEFAULT) -> Iterator[Ranking]:
    """Yield each day's top-n ranking, day 0 first, as the one balance
    replay reaches that day; a caller that reads the rankings more than
    once keeps them with ``list(compute_rankings(ledger, n))``."""
    for day, balances in _replay(ledger):
        yield rank_balances(balances, n, ledger.addresses, day)


def proportion_series(
    rankings: Iterable[Ranking], supplies: Sequence[int], tops: Sequence[int]
) -> np.ndarray:
    """Matrix of top-n proportions: one row per day of `supplies`, one
    column per n, read from one pass over the day rankings."""
    out = np.zeros((len(supplies), len(tops)))
    for d, (r, c) in enumerate(zip(rankings, supplies)):
        if c <= 0:
            out[d, :] = np.nan
            continue
        csum = np.cumsum(r.balances, dtype=np.float64)
        total = float(c)
        for j, n in enumerate(tops):
            take = min(n, len(csum))
            out[d, j] = csum[take - 1] / total if take else 0.0
    return out


def adjacent_diff(matrix: np.ndarray) -> np.ndarray:
    """Column j minus column j-1 of a proportion matrix; column 0 is kept
    as is (its predecessor is the empty top-0 list)."""
    return np.diff(np.concatenate((np.zeros((len(matrix), 1)), matrix), axis=1))

