"""Ranking stability across day intervals: Spearman coefficient and
membership retention, plus the distribution summaries behind boxplots.

Spearman is computed as Pearson correlation on within-list positions, with
tied balances given average (fractional) ranks.  Addresses present in only
one list are dropped by default (`mode="intersection"`); `mode="penalized"`
keeps the union and assigns absentees rank len(list)+1.  Pairs with fewer
than two usable members, or with no rank variance, yield None rather than a
number.

Every series comes from one kernel, `stability_table`, which builds any
set of (metric, N, interval) series over the same rankings in one pass.
Each day's ranking, cut at the largest N, becomes one list of ascending
ids, with each id's position in its ranking and the start and stop of its
tie run.  For each distinct interval, `np.searchsorted` over the keys
``day * span + id`` finds every id that day d shares with day d +
interval.  Each N then needs no set operation of its own:

* an id is in both top-N lists when both its positions are below N;
* twice its tie rank in a list cut at N is the integer ``start + 1 +
  min(stop, N)``, so a tie run cut at N averages only its kept positions;
* retention counts those ids per pair;
* Spearman takes each pair's count and sums of x, y, x², y² and xy over
  those doubled ranks with one `np.bincount` per sum, and penalized mode
  adds the members only one list holds from that list's own sums.

The sums are of integers, exact in float64 below 2**53 (lists up to
119 000 deep; rounded, never wrapped, beyond), and each pair's coefficient
is finished in Python ints, so no value depends on the order of its
members, on the day blocks or on the BLAS thread count.  The kernel works
on blocks of days, so its working set stays small however deep the lists
are.  `stability_series`, `spearman` and `retention` are batches of one
through the same kernel.
"""

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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


# The kernel works on blocks of whole days holding about this many list
# entries (one day at least), so its working set beyond the day lists stays
# near 3 MB however deep the lists are.
_BLOCK_ENTRIES = 1 << 15


def _check_mode(mode: str) -> None:
    if mode not in SPEARMAN_MODES:
        raise ValueError(f"unknown spearman mode {mode!r}")


def _blocks(ptr: np.ndarray, last: int) -> Iterator[tuple[int, int]]:
    """Consecutive day ranges [d0, d1) covering days 0..last-1, each
    holding at most _BLOCK_ENTRIES entries of `ptr` or a single day."""
    d0 = 0
    while d0 < last:
        d1 = int(np.searchsorted(ptr, ptr[d0] + _BLOCK_ENTRIES, side="right")) - 1
        d1 = min(max(d1, d0 + 1), last)
        yield d0, d1
        d0 = d1


def _join(parts: list[np.ndarray], dtype) -> np.ndarray:
    """The concatenation of `parts`, which it empties, so that the parts
    can be freed before the next column is joined."""
    out = np.concatenate(parts) if parts else np.empty(0, dtype=dtype)
    parts.clear()
    return out


def _sort_block(block: list[tuple[np.ndarray, np.ndarray]]) -> tuple[np.ndarray, ...]:
    """The (ids, balances) lists of consecutive days as entries sorted by
    (day, id): each entry's id, its 0-based position in its list, and the
    [start, stop) positions of its tie run."""
    sizes = np.array([len(ids) for ids, _ in block], dtype=np.int64)
    ids, bal = (np.concatenate(c) for c in zip(*block))
    total = len(ids)
    pos = np.arange(total) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    # A tie run opens at a day's first entry and wherever the balance
    # changes.
    opens = pos == 0
    opens[1:] |= bal[1:] != bal[:-1]
    heads = np.flatnonzero(opens)
    lengths = np.diff(np.append(heads, total))
    start = np.repeat(pos[heads], lengths)
    span = int(ids.max()) + 1 if total else 1
    order = np.argsort(np.repeat(np.arange(len(block)), sizes) * span + ids)
    return (ids[order], pos[order].astype(np.int32), start[order].astype(np.int32),
            (start + np.repeat(lengths, lengths))[order].astype(np.int32))


class _DayLists:
    """Every day's ranking cut at `depth`, as one array of entries sorted by
    (day, id): ``keys = day * span + id``, each id's 0-based position in its
    ranking, and the [start, stop) positions of its tie run.  Day d holds
    entries ``ptr[d]:ptr[d + 1]``, ``sizes[d]`` of them.  The rankings are
    read once, as they come, and sorted in blocks of about _BLOCK_ENTRIES
    entries, so no more than one block of them is held at a time."""

    def __init__(self, rankings: Iterable[Ranking], depth: int):
        sizes: list[int] = []
        columns: tuple[list[np.ndarray], ...] = ([], [], [], [])
        block: list[tuple[np.ndarray, np.ndarray]] = []
        held = 0
        for r in rankings:
            ids = r.ids[:depth]
            block.append((ids, r.balances[:depth]))
            sizes.append(len(ids))
            held += len(ids)
            if held >= _BLOCK_ENTRIES:
                for column, part in zip(columns, _sort_block(block)):
                    column.append(part)
                block, held = [], 0
        if block:
            for column, part in zip(columns, _sort_block(block)):
                column.append(part)
        self.sizes = np.array(sizes, dtype=np.int64)
        self.ptr = np.concatenate(([0], np.cumsum(self.sizes)))
        self.max_size = max(sizes, default=0)
        ids, self.pos, self.start, self.stop = (
            _join(c, dtype) for c, dtype in zip(columns, (np.int64,) + (np.int32,) * 3))
        self.span = int(ids.max()) + 1 if len(ids) else 1
        self.keys = np.repeat(np.arange(len(sizes)), self.sizes) * self.span + ids

    def day(self, entries: np.ndarray) -> np.ndarray:
        return self.keys[entries] // self.span


def _doubled_ranks(start: np.ndarray, stop: np.ndarray, cut: int) -> np.ndarray:
    """Twice the tie ranks of the entries with tie runs [start, stop) in
    their lists cut at `cut`, as exact integers in float64: a run cut there
    averages only its kept positions, so each value is twice the one
    `Ranking.tie_ranks` gives on the truncated ranking."""
    return start + (np.minimum(stop, cut) + 1.0)


def _square_sums(lists: _DayLists, d0: int, d1: int, cut: int) -> np.ndarray:
    """For each day d0..d1-1, the sum of the squared doubled ranks of its
    list cut at `cut`."""
    e0, e1 = int(lists.ptr[d0]), int(lists.ptr[d1])
    kept = np.flatnonzero(lists.pos[e0:e1] < cut) + e0
    x = _doubled_ranks(lists.start[kept], lists.stop[kept], cut)
    return np.bincount(lists.day(kept) - d0, x * x, d1 - d0)


def _pearson(*moments: np.ndarray) -> Iterator[float | None]:
    """The Pearson coefficient of each pair from its moments m, Σx, Σy,
    Σx², Σy² and Σxy (integers, one array each), or None when it has fewer
    than two members or either side has no variance.  The moments become
    Python ints, so the cross terms cannot wrap, and rounding starts only
    at the final square root and division."""
    for m, sx, sy, sxx, syy, sxy in zip(*(map(int, a.tolist()) for a in moments)):
        vx, vy = m * sxx - sx * sx, m * syy - sy * sy
        if m < 2 or vx <= 0 or vy <= 0:
            yield None
        else:
            yield min(1.0, max(-1.0, (m * sxy - sx * sy) / math.sqrt(vx * vy)))


def _interval_values(
    lists: _DayLists,
    interval: int,
    specs: Sequence[tuple[str, int]],
    mode: str,
) -> dict[tuple[str, int], dict[int, float | None]]:
    """The values of the (day, day + interval) pairs of every (metric, n)
    in `specs`, by day."""
    values: dict[tuple[str, int], dict[int, float | None]] = {s: {} for s in specs}
    by_n: dict[int, list[str]] = {}
    for metric, n in specs:
        by_n.setdefault(n, []).append(metric)
    shift = interval * lists.span
    ptr, pos, start, stop = lists.ptr, lists.pos, lists.start, lists.stop
    for d0, d1 in _blocks(ptr, len(lists.sizes) - interval):
        a0, a1 = int(ptr[d0]), int(ptr[d1])
        b0, b1 = int(ptr[d0 + interval]), int(ptr[d1 + interval])
        # The ids of day d's list found in day d + interval's, ascending by
        # (d, id): entry ia of the first list is entry ib of the second.
        target = lists.keys[a0:a1] + shift
        hay = lists.keys[b0:b1]
        j = np.minimum(np.searchsorted(hay, target), max(len(hay) - 1, 0))
        found = hay[j] == target if len(hay) else np.zeros(len(target), dtype=bool)
        ia = np.flatnonzero(found) + a0
        ib = j[found] + b0
        del target, j, found
        pair = lists.day(ia) - d0
        deepest = np.maximum(pos[ia], pos[ib])
        a_start, a_stop, b_start, b_stop = start[ia], stop[ia], start[ib], stop[ib]
        days = range(d0, d1)
        for n, metrics in by_n.items():
            cut = min(n, lists.max_size)  # the same lists, and fits int32
            len_a = np.minimum(lists.sizes[d0:d1], cut)
            len_b = np.minimum(lists.sizes[d0 + interval:d1 + interval], cut)
            # An id is in both top-n lists when both its positions are.
            # (Positions, not masks: `take` is several times faster than
            # boolean indexing here.)
            shared = np.flatnonzero(deepest < cut)
            in_pair = pair.take(shared)
            m = np.bincount(in_pair, minlength=d1 - d0)
            if "retention" in metrics:
                denom = np.maximum(len_a, len_b)
                values[("retention", n)].update(
                    zip(days, np.where(denom == 0, 1.0, m / np.maximum(denom, 1)).tolist()))
            if "spearman" not in metrics:
                continue
            x = _doubled_ranks(a_start.take(shared), a_stop.take(shared), cut)
            y = _doubled_ranks(b_start.take(shared), b_stop.take(shared), cut)
            sx, sy, sxx, syy, sxy = (np.bincount(in_pair, w, d1 - d0)
                                     for w in (x, y, x * x, y * y, x * y))
            if mode == "penalized":
                # Each list's members that the other lacks join the pair at
                # the other's absent rank, doubled 2 * len + 2.  A list's
                # doubled ranks sum to len * (len + 1), since a tie run
                # keeps the sum of its positions, so those members' sums
                # are the list's sums less the shared ones.
                pa, pb = 2.0 * len_a + 2, 2.0 * len_b + 2
                only_a, only_b = len_a - m, len_b - m
                ta, tb = len_a * (len_a + 1.0), len_b * (len_b + 1.0)
                m, sx, sy, sxx, syy, sxy = (
                    m + only_a + only_b, ta + only_b * pa, tb + only_a * pb,
                    _square_sums(lists, d0, d1, cut) + only_b * pa * pa,
                    _square_sums(lists, d0 + interval, d1 + interval, cut) + only_a * pb * pb,
                    sxy + (ta - sx) * pb + (tb - sy) * pa)
            values[("spearman", n)].update(zip(days, _pearson(m, sx, sy, sxx, syy, sxy)))
    return values


def stability_table(
    rankings: Iterable[Ranking],
    specs: Iterable[tuple[str, int, int]],
    mode: str = "intersection",
) -> dict[tuple[str, int, int], StabilitySeries]:
    """Every (metric, top-N, interval) series of `specs` over the day
    rankings, keyed by spec in the order given (repeats dropped).

    Each series is the one `stability_series` describes; Spearman series
    use `mode`.  The rankings are read once, in one pass, and each distinct
    interval matches its day pairs once for all of its specs.
    """
    specs = list(dict.fromkeys(specs))
    for metric, n, interval in specs:
        if interval < 1:
            raise ValueError("interval must be >= 1")
        if metric not in METRICS:
            raise ValueError(f"unknown stability metric {metric!r}")
        if n < 1:
            raise ValueError("n must be >= 1")
        if metric == "spearman":
            _check_mode(mode)
    values: dict[tuple[str, int, int], dict[int, float | None]] = {s: {} for s in specs}
    if specs:
        lists = _DayLists(rankings, max(n for _, n, _ in specs))
        for interval in dict.fromkeys(i for _, _, i in specs):
            at = [(m, n) for m, n, i in specs if i == interval]
            for (m, n), vals in _interval_values(lists, interval, at, mode).items():
                values[(m, n, interval)] = vals
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
