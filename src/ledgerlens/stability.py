"""Ranking stability across day intervals: Spearman coefficient and
membership retention, plus the distribution summaries behind boxplots.

Spearman is computed as Pearson correlation on within-list positions, with
tied balances given average (fractional) ranks.  Addresses present in only
one list are dropped by default (`mode="intersection"`); `mode="penalized"`
keeps the union and assigns absentees rank len(list)+1.  Pairs with fewer
than two usable members, or with no rank variance, yield None rather than a
number.

Every series comes from one kernel, `stability_table`, which reads the
rankings once, a day at a time, and holds the lists of the last
max(interval) + 1 days: each ranking cut at the largest N, as ascending ids
with each id's position and the start and stop of its tie run.  Day d is
paired with day d - i for each distinct interval i, and one match scores
every (metric, N) of that interval:

* one `np.searchsorted` finds the ids the two lists share;
* an id is in both top-N lists when the deeper of its two positions is
  below N, so with the shared ids in depth order each N is a prefix;
* twice an id's tie rank in a list cut at N is the integer ``start + 1 +
  min(stop, N)``, so a tie run cut at N averages only its kept positions;
* retention is the prefix length over the longer list's length;
* Spearman takes the prefix's count and sums of x, y, x², y² and xy over
  those doubled ranks, and penalized mode adds the members only one list
  holds from that list's own sums.

The sums are of integers, exact in float64 below 2**53 (lists up to
119 000 deep; rounded, never wrapped, beyond), and each coefficient is
finished in Python ints, so no value depends on the order of its members
or on the BLAS thread count.  Memory is O(max interval x N).
`stability_series`, `spearman` and `retention` are batches of one through
the same kernel.
"""

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .balances import Ranking

SPEARMAN_MODES = ("intersection", "penalized")
METRICS = ("spearman", "retention")


@dataclass
class StabilitySeries:
    """Per-day stability coefficients for one (metric, top-N, interval)."""

    metric: str
    top_n: int
    interval: int
    values: dict[int, float | None]

    def defined(self) -> list[float]:
        return [v for v in self.values.values() if v is not None]


@dataclass
class DistributionSummary:
    mean: float
    std: float
    median: float
    q1: float
    q3: float
    iqr: float
    min: float
    max: float

    def to_dict(self) -> dict[str, float]:
        return {
            "mean": self.mean,
            "std": self.std,
            "median": self.median,
            "q1": self.q1,
            "q3": self.q3,
            "iqr": self.iqr,
            "min": self.min,
            "max": self.max,
        }


def _check_mode(mode: str) -> None:
    if mode not in SPEARMAN_MODES:
        raise ValueError(f"unknown spearman mode {mode!r}")


class _DayList:
    """One day's ranking cut at `depth`: its ids ascending, each id's
    0-based position in the ranking and the [start, stop) positions of its
    tie run, plus the sums of its squared doubled ranks by cut."""

    def __init__(self, ranking: Ranking, depth: int):
        # Balances descend, so a tie run is the positions of one balance.
        neg = -ranking.balances[:depth]
        ids = ranking.ids[:depth]
        self.pos = np.argsort(ids)
        self.ids = ids[self.pos]
        self.start = np.searchsorted(neg, neg, "left")[self.pos]
        self.stop = np.searchsorted(neg, neg, "right")[self.pos]
        self._squares: dict[int, int] = {}

    def square_sum(self, cut: int) -> int:
        """The sum of the squared doubled ranks of this list cut at `cut`."""
        cut = min(cut, len(self.ids))  # the same list
        if cut not in self._squares:
            kept = self.pos < cut
            x = _doubled_ranks(self.start[kept], self.stop[kept], cut)
            self._squares[cut] = int(np.einsum("i,i", x, x))
        return self._squares[cut]


def _doubled_ranks(start: np.ndarray, stop: np.ndarray, cut: int) -> np.ndarray:
    """Twice the tie ranks of the entries with tie runs [start, stop) in
    their lists cut at `cut`, as exact integers in float64.  A tie rank is
    the 1-based position with tied balances averaged: run [s, e) of 0-based
    positions ranks (s + 1 + e) / 2.  A run cut at `cut` averages only its
    kept positions, so it ranks (s + 1 + min(e, cut)) / 2."""
    return start + (np.minimum(stop, cut) + 1.0)


def _pearson(m: int, sx: int, sy: int, sxx: int, syy: int, sxy: int) -> float | None:
    """The Pearson coefficient of a pair from its moments m, Σx, Σy, Σx²,
    Σy² and Σxy (Python ints, so the cross terms cannot wrap, and rounding
    starts only at the final square root and division), or None when it
    has fewer than two members or either side has no variance."""
    vx, vy = m * sxx - sx * sx, m * syy - sy * sy
    if m < 2 or vx <= 0 or vy <= 0:
        return None
    return min(1.0, max(-1.0, (m * sxy - sx * sy) / math.sqrt(vx * vy)))


def _pair_values(
    a: _DayList, b: _DayList, by_n: dict[int, list[str]], mode: str
) -> Iterator[tuple[str, int, float | None]]:
    """(metric, n, value) for each n of `by_n` and each of its metrics, on
    the pair of lists (a, b)."""
    # The ids of a found in b: entry ia of a is entry ib of b.
    j = np.minimum(np.searchsorted(b.ids, a.ids), max(len(b.ids) - 1, 0))
    found = b.ids[j] == a.ids if len(b.ids) else np.zeros(len(a.ids), dtype=bool)
    ia, ib = np.flatnonzero(found), j[found]
    # An id is in both top-n lists when the deeper of its two positions is
    # below n, so in depth order each n's shared ids are a prefix.
    deepest = np.maximum(a.pos[ia], b.pos[ib])
    order = np.argsort(deepest)
    ia, ib = ia[order], ib[order]
    # Row 0 holds the shared ids' tie runs in a, row 1 in b.
    starts = np.array((a.start[ia], b.start[ib]))
    stops = np.array((a.stop[ia], b.stop[ib]))
    lens = [(min(len(a.ids), n), min(len(b.ids), n)) for n in by_n]
    # Cut at the longer list's length, which keeps what a cut at n keeps.
    cuts = [max(ls) for ls in lens]
    shared = np.searchsorted(deepest[order], cuts).tolist()
    for (n, metrics), (len_a, len_b), cut, m in zip(by_n.items(), lens, cuts, shared):
        if "retention" in metrics:
            yield "retention", n, 1.0 if cut == 0 else m / cut
        if "spearman" not in metrics:
            continue
        ranks = _doubled_ranks(starts[:, :m], stops[:, :m], cut)
        sx, sy = map(int, ranks.sum(axis=1).tolist())
        (sxx, sxy), (_, syy) = (map(int, row)
                                for row in np.einsum("ij,kj->ik", ranks, ranks).tolist())
        if mode == "penalized":
            # Each list's members that the other lacks join the pair at the
            # other's absent rank, doubled 2 * len + 2.  A list's doubled
            # ranks sum to len * (len + 1), since a tie run keeps the sum
            # of its positions, so those members' sums are the list's sums
            # less the shared ones.
            pa, pb = 2 * len_a + 2, 2 * len_b + 2
            only_a, only_b = len_a - m, len_b - m
            ta, tb = len_a * (len_a + 1), len_b * (len_b + 1)
            m, sx, sy, sxx, syy, sxy = (
                m + only_a + only_b, ta + only_b * pa, tb + only_a * pb,
                a.square_sum(cut) + only_b * pa * pa, b.square_sum(cut) + only_a * pb * pb,
                sxy + (ta - sx) * pb + (tb - sy) * pa)
        yield "spearman", n, _pearson(m, sx, sy, sxx, syy, sxy)


def stability_table(
    rankings: Iterable[Ranking],
    specs: Iterable[tuple[str, int, int]],
    mode: str = "intersection",
) -> dict[tuple[str, int, int], StabilitySeries]:
    """Every (metric, top-N, interval) series of `specs` over the day
    rankings, keyed by spec in the order given (repeats dropped).

    Each series is the one `stability_series` describes; Spearman series
    use `mode`.  The rankings are read once, in one pass, holding the last
    max(interval) + 1 days' lists, and each pair of days is matched once
    for all the specs of its interval.
    """
    specs = list(dict.fromkeys(specs))
    by_interval: dict[int, dict[int, list[str]]] = {}
    for metric, n, interval in specs:
        if interval < 1:
            raise ValueError("interval must be >= 1")
        if metric not in METRICS:
            raise ValueError(f"unknown stability metric {metric!r}")
        if n < 1:
            raise ValueError("n must be >= 1")
        if metric == "spearman":
            _check_mode(mode)
        by_interval.setdefault(interval, {}).setdefault(n, []).append(metric)
    values: dict[tuple[str, int, int], dict[int, float | None]] = {s: {} for s in specs}
    if specs:
        depth = max(n for _, n, _ in specs)
        longest = max(by_interval)
        held: deque[_DayList] = deque()
        for day, ranking in enumerate(rankings):
            held.append(_DayList(ranking, depth))
            if len(held) > longest + 1:
                held.popleft()
            for interval, by_n in by_interval.items():
                if interval < len(held):
                    for metric, n, value in _pair_values(held[-1 - interval], held[-1],
                                                         by_n, mode):
                        values[(metric, n, interval)][day - interval] = value
    return {s: StabilitySeries(*s, values[s]) for s in specs}


def stability_series(
    rankings: Iterable[Ranking],
    n: int,
    interval: int,
    metric: str = "spearman",
    mode: str = "intersection",
) -> StabilitySeries:
    """Per-day stability between day d and day d+interval of the top-n
    lists.

    The series covers every day d where both endpoints have rankings; an
    interval longer than the history yields an empty series.  A Spearman
    pair with an empty list is None.  A batch of one through
    `stability_table`.
    """
    return stability_table(rankings, [(metric, n, interval)], mode)[(metric, n, interval)]


def spearman(
    rank_a: Ranking, rank_b: Ranking, mode: str = "intersection"
) -> float | None:
    """Spearman coefficient between two rankings, or None when undefined.

    Member ranks come from each address's position within its own list
    (average ranks on tied balances).  Undefined cases: fewer than two
    shared members, or zero rank variance on either side.
    """
    _check_mode(mode)
    if not len(rank_a) or not len(rank_b):
        raise ValueError("rankings must be non-empty")
    n = max(len(rank_a), len(rank_b))
    return stability_series([rank_a, rank_b], n, 1, "spearman", mode).values[0]


def retention(rank_a: Ranking, rank_b: Ranking, n: int) -> float:
    """Fraction of top-n membership shared by two rankings.

    Both rankings are truncated to n first.  The denominator is the larger
    truncated size, so identical memberships score 1.0 even when fewer than
    n addresses are funded.  Two empty rankings coincide and score 1.0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return stability_series([rank_a, rank_b], n, 1, "retention").values[0]


def summarize(series: StabilitySeries | Iterable[float]) -> DistributionSummary:
    """Mean, spread, and quartiles of a series, undefined entries dropped.

    Quartiles use linear interpolation between closest ranks; the standard
    deviation is the population form (ddof=0).
    """
    if isinstance(series, StabilitySeries):
        data = series.defined()
    else:
        data = [v for v in series if v is not None]
    if not data:
        raise ValueError("cannot summarize an empty series")
    arr = np.asarray(data, dtype=np.float64)
    q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
    return DistributionSummary(
        mean=float(arr.mean()),
        std=float(arr.std()),
        median=float(med),
        q1=float(q1),
        q3=float(q3),
        iqr=float(q3 - q1),
        min=float(arr.min()),
        max=float(arr.max()),
    )
