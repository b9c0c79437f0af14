"""Ranking stability across day intervals: Spearman coefficient and
membership retention, plus the distribution summaries behind boxplots.

Spearman is computed as Pearson correlation on within-list positions, with
tied balances given average (fractional) ranks.  Addresses present in only
one list are dropped by default (`mode="intersection"`); `mode="penalized"`
keeps the union and assigns absentees rank len(list)+1.  Pairs with fewer
than two usable members, or with no rank variance, yield None rather than a
number.

Both measures run on one array kernel.  A series turns each day's top-N
list once into its ids in ascending order and their tie ranks, taken on
the truncated balances (a tie run cut at N averages only the kept
positions).  A day pair is then a sorted-set operation: `np.intersect1d`
gives the shared ids and their positions in both lists (intersection
Spearman, retention), and `np.union1d` with `searchsorted` places both lists
in their union (penalized Spearman).  The rank vectors reach the Pearson
step in ascending id order, so every float sum is made in a fixed order.
`spearman` and `retention` are thin wrappers over the same kernel.
"""

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .balances import Ranking

SPEARMAN_MODES = ("intersection", "penalized")


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


def _pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    xd = x - x.mean()
    yd = y - y.mean()
    den = float(np.dot(xd, xd)) * float(np.dot(yd, yd))
    if den <= 0.0:
        return None
    r = float(np.dot(xd, yd)) / float(np.sqrt(den))
    return min(1.0, max(-1.0, r))


def _side(ranking: Ranking, n: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One list of a pair: its ids (truncated to n) in ascending order, and
    the tie ranks of those ids within the truncated list."""
    if n is not None:
        ranking = ranking.truncated(n)
    order = np.argsort(ranking.ids)
    return ranking.ids[order], ranking.tie_ranks()[order]


def _spearman_pair(
    a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray], mode: str
) -> float | None:
    (a_ids, a_ranks), (b_ids, b_ranks) = a, b
    if mode == "intersection":
        common, ia, ib = np.intersect1d(a_ids, b_ids, assume_unique=True,
                                        return_indices=True)
        if len(common) < 2:
            return None
        x = a_ranks[ia]
        y = b_ranks[ib]
    else:
        universe = np.union1d(a_ids, b_ids)
        if len(universe) < 2:
            return None
        x = np.full(len(universe), float(len(a_ids) + 1))
        y = np.full(len(universe), float(len(b_ids) + 1))
        x[np.searchsorted(universe, a_ids)] = a_ranks
        y[np.searchsorted(universe, b_ids)] = b_ranks
    return _pearson(x, y)


def _retention_pair(a_ids: np.ndarray, b_ids: np.ndarray) -> float:
    denom = max(len(a_ids), len(b_ids))
    if denom == 0:
        return 1.0
    return len(np.intersect1d(a_ids, b_ids, assume_unique=True)) / denom


def _check_mode(mode: str) -> None:
    if mode not in SPEARMAN_MODES:
        raise ValueError(f"unknown spearman mode {mode!r}")


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
    return _spearman_pair(_side(rank_a), _side(rank_b), mode)


def retention(rank_a: Ranking, rank_b: Ranking, n: int) -> float:
    """Fraction of top-n membership shared by two rankings.

    Both rankings are truncated to n first.  The denominator is the larger
    truncated size, so identical memberships score 1.0 even when fewer than
    n addresses are funded.  Two empty rankings coincide and score 1.0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return _retention_pair(_side(rank_a, n)[0], _side(rank_b, n)[0])


def stability_series(
    rankings: Sequence[Ranking],
    n: int,
    interval: int,
    metric: str = "spearman",
    mode: str = "intersection",
) -> StabilitySeries:
    """Per-day stability between day d and day d+interval.

    The series covers every day d where both endpoints have rankings; an
    interval longer than the history yields an empty series.  A Spearman
    pair with an empty list is None.
    """
    if interval < 1:
        raise ValueError("interval must be >= 1")
    if metric not in ("spearman", "retention"):
        raise ValueError(f"unknown stability metric {metric!r}")
    if metric == "spearman":
        _check_mode(mode)
    # Each day's side is built once and serves both pairs it belongs to.
    sides = [_side(r, n) for r in rankings]
    values: dict[int, float | None] = {}
    for d in range(len(rankings) - interval):
        a, b = sides[d], sides[d + interval]
        if metric == "retention":
            values[d] = _retention_pair(a[0], b[0])
        elif not len(a[0]) or not len(b[0]):
            values[d] = None
        else:
            values[d] = _spearman_pair(a, b, mode)
    return StabilitySeries(metric, n, interval, values)


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
