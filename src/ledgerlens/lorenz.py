"""Static decentralization degree from cumulative top-N wealth curves.

The curve C_r(x) is the share of the top-N total held by the top-x
addresses (so C_r(N) = 1); C_e(x) = x/N is the equal-distribution line.
The decentralization degree is 1 minus the (scaled) area between them on a
rank axis normalized to [0, 1].  With the default scaling of 2 the result
equals 1 minus the discrete Gini coefficient of the top-N balances and
spans [0, 1]; scaling 1 gives the unscaled "1 minus area" form.
"""

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .balances import Ranking

SCALINGS = (1, 2)


@dataclass
class CumulativeCurve:
    """Cumulative wealth proportions for ranks 1..n of one day."""

    day: int
    n: int
    c_real: np.ndarray
    c_equal: np.ndarray


@dataclass
class DStaticSeries:
    scaling: int
    top_n: int
    values: dict[int, float]


def cumulative_curve(ranking: Ranking, n: int) -> CumulativeCurve:
    """Build the top-n cumulative proportion curve from a ranking.

    Normalization base is the top-n total, so the curve always reaches 1 at
    rank n.  When fewer than n addresses are funded the curve is flat at 1
    beyond the last one.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not len(ranking):
        raise ValueError("ranking is empty")
    take = min(n, len(ranking))
    bal = ranking.balances[:take]
    total = int(bal.sum())
    if total <= 0:
        raise ValueError("top-n total is zero")
    c_real = np.ones(n, dtype=np.float64)
    c_real[:take] = np.cumsum(bal, dtype=np.float64) / float(total)
    c_equal = np.arange(1, n + 1, dtype=np.float64) / float(n)
    return CumulativeCurve(ranking.day, n, c_real, c_equal)


def d_static(curve: CumulativeCurve, scaling: int = 2) -> float:
    """Static decentralization degree of a cumulative curve.

    Computed as ``1 - scaling * mean(C_r - C_e)``.  Equal distribution gives
    exactly 1.0; with scaling 2 a single dominant holder tends to 0.
    """
    if scaling not in SCALINGS:
        raise ValueError(f"scaling must be one of {SCALINGS}")
    area = float(np.mean(curve.c_real - curve.c_equal))
    return 1.0 - scaling * area


def d_static_series(
    rankings: Iterable[Ranking], n: int, scaling: int = 2
) -> DStaticSeries:
    """Daily decentralization degrees; days without funded addresses are skipped."""
    values: dict[int, float] = {}
    for ranking in rankings:
        if not len(ranking):
            continue
        values[ranking.day] = d_static(cumulative_curve(ranking, n), scaling)
    return DStaticSeries(scaling, n, values)
