"""Daily focus-filtered transaction graphs and their centrality metrics.

A day graph keeps every expanded edge of that day touching at least one
focus address (normally the previous day's top-100), drops self-loops, and
aggregates parallel edges into multiplicity counts.  Metrics are degree
centrality (in+out, multiplicity-weighted), damped PageRank, and the
max/min/mean dispersion that summarizes how top-heavy a metric is.
"""

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .balances import Ranking
from .errors import ConvergenceError
from .ledger import AddressTable, Ledger

FOCUS_N = 100
DAMPING = 0.85


@dataclass
class TransactionGraph:
    """Directed multigraph over interned address ids, multiplicities folded
    into per-edge counts.  `nodes` is sorted and unique; `src`/`dst` contain
    node values (not positions)."""

    day: int
    nodes: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    counts: np.ndarray
    weights: np.ndarray | None

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_edges(self) -> int:
        return len(self.src)


@dataclass
class MetricVector:
    """One per-node metric over a graph's node set."""

    kind: str
    node_ids: np.ndarray
    values: np.ndarray

    def as_dict(self, addresses: AddressTable | None = None) -> dict:
        if addresses is None:
            return {int(i): v for i, v in zip(self.node_ids, self.values)}
        names = addresses.names
        return {names[i]: v for i, v in zip(self.node_ids, self.values)}


def _aggregate(
    day: int,
    src: np.ndarray,
    dst: np.ndarray,
    cnt: np.ndarray,
    val: np.ndarray | None,
) -> TransactionGraph:
    keep = src != dst
    src, dst, cnt = src[keep], dst[keep], cnt[keep]
    if val is not None:
        val = val[keep]
    if len(src) == 0:
        z = np.zeros(0, dtype=np.int64)
        return TransactionGraph(day, z, z.copy(), z.copy(), z.copy(),
                                np.zeros(0) if val is not None else None)
    hi = int(max(src.max(), dst.max())) + 1
    packed = src * hi + dst
    uniq, inverse = np.unique(packed, return_inverse=True)
    counts = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(counts, inverse, cnt)
    weights = None
    if val is not None:
        weights = np.zeros(len(uniq), dtype=np.float64)
        np.add.at(weights, inverse, val)
    u_src = uniq // hi
    u_dst = uniq % hi
    nodes = np.unique(np.concatenate((u_src, u_dst)))
    return TransactionGraph(day, nodes, u_src, u_dst, counts, weights)


def build_day_graph(
    ledger: Ledger,
    day: int,
    focus: Iterable[int] | Ranking,
    value_weighted: bool = False,
) -> TransactionGraph:
    """Graph of one day's expanded edges touching the focus set.

    `focus` is a set of interned address ids (or a Ranking whose members are
    used).  The COINBASE pseudo-node appears whenever a kept coinbase edge
    exists.  Self-loops are dropped; parallel edges become counts.
    """
    if isinstance(focus, Ranking):
        focus_ids = focus.ids
    else:
        focus_ids = np.fromiter((int(f) for f in focus), dtype=np.int64)
    lut = np.zeros(len(ledger.addresses), dtype=bool)
    lut[focus_ids] = True
    edges = ledger._expand(*ledger.day_range(day), lut, with_values=value_weighted)
    return _aggregate(day, edges.src, edges.dst, np.ones(len(edges.src), dtype=np.int64),
                      edges.values)


def degree_centrality(graph: TransactionGraph) -> MetricVector:
    """In-degree plus out-degree per node, counting edge multiplicity."""
    if graph.n_nodes == 0:
        raise ValueError("graph has no nodes")
    pos_src = np.searchsorted(graph.nodes, graph.src)
    pos_dst = np.searchsorted(graph.nodes, graph.dst)
    deg = np.zeros(graph.n_nodes, dtype=np.int64)
    np.add.at(deg, pos_src, graph.counts)
    np.add.at(deg, pos_dst, graph.counts)
    return MetricVector("degree", graph.nodes.copy(), deg)


def pagerank(
    graph: TransactionGraph,
    tol: float = 1e-10,
    max_iter: int = 200,
    weighted_by_value: bool = False,
) -> MetricVector:
    """PageRank, damped by `DAMPING`, over the multiplicity-weighted
    directed graph.

    Dangling mass is redistributed uniformly each sweep; iteration stops
    when the L1 change drops below `tol` and the result is normalized to
    sum to 1.  Raises ConvergenceError (carrying the residual) if `max_iter`
    sweeps are not enough.
    """
    n = graph.n_nodes
    if n == 0:
        raise ValueError("graph has no nodes")
    if weighted_by_value:
        if graph.weights is None:
            raise ValueError("graph was built without edge values")
        w = graph.weights.astype(np.float64)
    else:
        w = graph.counts.astype(np.float64)
    pos_src = np.searchsorted(graph.nodes, graph.src)
    pos_dst = np.searchsorted(graph.nodes, graph.dst)
    out_w = np.zeros(n)
    np.add.at(out_w, pos_src, w)
    dangling = out_w == 0.0
    safe_out = np.where(dangling, 1.0, out_w)

    rank = np.full(n, 1.0 / n)
    residual = np.inf
    for _ in range(max_iter):
        contrib = rank[pos_src] * w / safe_out[pos_src]
        incoming = np.bincount(pos_dst, weights=contrib, minlength=n)
        loose = float(rank[dangling].sum())
        fresh = DAMPING * incoming + (DAMPING * loose + (1.0 - DAMPING)) / n
        residual = float(np.abs(fresh - rank).sum())
        rank = fresh
        if residual < tol:
            rank = rank / rank.sum()
            return MetricVector("pagerank", graph.nodes.copy(), rank)
    raise ConvergenceError(
        f"pagerank did not converge in {max_iter} iterations", residual
    )


def dispersion(metric: MetricVector) -> float:
    """(max - min) / (mean - min) of a metric vector.

    Large values mean a small clique dominates: one outstanding node in a
    hundred gives ~100, two give ~50.  A constant vector is defined as 1.
    """
    if len(metric.values) < 2:
        raise ValueError("dispersion needs at least 2 nodes")
    vals = metric.values.astype(np.float64)
    high = float(vals.max())
    low = float(vals.min())
    if high == low:
        return 1.0
    avg = float(vals.sum()) / len(vals)
    if low < avg < high:
        return (high - low) / (avg - low)
    # The float mean of a near-constant vector can round onto or past an
    # extreme; the mean of the offsets from the minimum stays above zero.
    return (high - low) / (float((vals - low).sum()) / len(vals))


def dispersion_series(
    ledger: Ledger,
    rankings: Iterable[Ranking],
    metrics: Sequence[str] = ("degree", "pagerank"),
    focus_n: int = FOCUS_N,
    value_weighted: bool = False,
) -> dict[str, dict[int, float]]:
    """Daily dispersion of each metric over the focus graph.

    The focus set for day d is the previous day's top-`focus_n`, so the
    day rankings are read in one pass, each one day behind the graph it
    focuses; day 0 has no predecessor and days whose graph has fewer than
    two nodes are skipped.  An unknown metric is refused before any day
    is read.
    """
    for m in metrics:
        if m not in ("degree", "pagerank"):
            raise ValueError(f"unknown metric {m!r}")
    out: dict[str, dict[int, float]] = {m: {} for m in metrics}
    previous = itertools.islice(rankings, max(ledger.n_days - 1, 0))
    for d, ranking in enumerate(previous, start=1):
        graph = build_day_graph(ledger, d, ranking.truncated(focus_n),
                                value_weighted=value_weighted)
        if graph.n_nodes < 2:
            continue
        for m in metrics:
            if m == "degree":
                vec = degree_centrality(graph)
            else:
                vec = pagerank(graph, weighted_by_value=value_weighted)
            out[m][d] = dispersion(vec)
    return out
