"""Daily focus-filtered transaction graphs and their centrality metrics.

A day graph keeps every expanded edge of that day touching at least one
focus address (normally the previous day's top-100), drops self-loops, and
aggregates parallel edges into multiplicity counts.  Metrics are degree
centrality (in+out, multiplicity-weighted), damped PageRank, and the
max/min/mean dispersion that summarizes how top-heavy a metric is.
"""

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .balances import Ranking
from .errors import ConvergenceError
from .ledger import AddressTable, Ledger, _concat

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
    first_day: int,
    n_days: int,
    day: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    values: np.ndarray | None,
) -> list[TransactionGraph]:
    """The graphs of the `n_days` days from `first_day` on, from edges
    given by day offset, source, destination and (or None) value.  Self-loops
    are dropped; a day's parallel edges fold into a count and a value sum,
    which adds in edge order, from one sort of packed (day, src, dst) keys
    over block node positions."""
    keep = src != dst
    day, src, dst = day[keep], src[keep], dst[keep]
    nodes, at = np.unique(np.concatenate((src, dst)), return_inverse=True)
    m = len(nodes)
    key = (day * m + at[:len(src)]) * m + at[len(src):]
    uniq, inverse = np.unique(key, return_inverse=True)
    counts = np.bincount(inverse, minlength=len(uniq))
    weights = None
    if values is not None:
        weights = np.bincount(inverse, weights=values[keep], minlength=len(uniq))
    pair = uniq % (m * m)
    u_src, u_dst = nodes[pair // m], nodes[pair % m]
    # Each day's nodes, from its (day, node) keys.
    day_nodes = np.unique(np.concatenate((uniq // m, (uniq // (m * m)) * m + pair % m)))
    edge_bounds = np.searchsorted(uniq, np.arange(n_days + 1) * (m * m)).tolist()
    node_bounds = np.searchsorted(day_nodes, np.arange(n_days + 1) * m).tolist()
    day_nodes = nodes[day_nodes % m]
    return [TransactionGraph(first_day + d, day_nodes[node_bounds[d]:node_bounds[d + 1]],
                             u_src[a:b], u_dst[a:b], counts[a:b],
                             weights[a:b] if weights is not None else None)
            for d, (a, b) in enumerate(zip(edge_bounds, edge_bounds[1:]))]


# Input plus output entries of the days one `_day_graphs` block expands at
# once (a day with more is a block of its own): about 100 days of 100
# transactions or 6 of 1200, and a transient of about 2.5 MB.
_BLOCK_ENTRIES = 1 << 15


def _day_graphs(
    ledger: Ledger,
    first_day: int,
    focus: Iterable[np.ndarray],
    value_weighted: bool,
) -> Iterator[TransactionGraph]:
    """The focus graph of each day from `first_day` on, one day per item
    of `focus` (the day's focus ids), read lazily.

    Days are built a block at a time, up to _BLOCK_ENTRIES entries: one
    expansion over the union of the block's focus sets, whose edges are
    kept where an end is in the focus of the edge's own day, found among
    sorted (day, id) keys.  Parallel edges of a day are counted from one
    sort of packed (day, src, dst) keys; `value_weighted` sums add in edge
    order, as the edges of the day alone would.
    """
    bounds = ledger.in_ptr + ledger.out_ptr
    lut = np.zeros(len(ledger.addresses), dtype=bool)
    block: list[np.ndarray] = []
    block_start = 0  # the block's first transaction
    for day, ids in enumerate(focus, start=first_day):
        start, stop = ledger.day_range(day)
        if block and bounds[stop] - bounds[block_start] > _BLOCK_ENTRIES:
            yield from _block_graphs(ledger, day - len(block), block, lut, value_weighted)
            block = []
        if not block:
            block_start = start
        block.append(ids)
    if block:
        yield from _block_graphs(ledger, day + 1 - len(block), block, lut, value_weighted)


def _block_graphs(
    ledger: Ledger,
    first_day: int,
    block: list[np.ndarray],
    lut: np.ndarray,
    value_weighted: bool,
) -> list[TransactionGraph]:
    """`_day_graphs` of one block; `lut` is all False and is left so."""
    n_days = len(block)
    union = _concat(block)
    lut[union] = True
    start, stop = ledger.day_range(first_day)[0], ledger.day_range(first_day + n_days - 1)[1]
    edges = ledger._expand(start, stop, lut, with_values=value_weighted)
    lut[union] = False
    # Sorted (day, id) keys of each day's focus.
    width = len(lut)
    members = np.sort(np.repeat(np.arange(n_days), [len(ids) for ids in block]) * width + union)
    j = ledger.days[edges.tx] - first_day

    def in_focus(ids: np.ndarray) -> np.ndarray:
        key = j * width + ids
        at = np.minimum(np.searchsorted(members, key), len(members) - 1)
        return members[at] == key

    keep = in_focus(edges.src) | in_focus(edges.dst)
    values = edges.values[keep] if value_weighted else None
    return _aggregate(first_day, n_days, j[keep], edges.src[keep], edges.dst[keep], values)


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
    (graph,) = _day_graphs(ledger, day, [focus_ids], value_weighted)
    return graph


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
    is read.  The graphs are built a block of days at a time
    (`_day_graphs`); degree and PageRank run on each day's graph.
    """
    for m in metrics:
        if m not in ("degree", "pagerank"):
            raise ValueError(f"unknown metric {m!r}")
    out: dict[str, dict[int, float]] = {m: {} for m in metrics}
    previous = itertools.islice(rankings, max(ledger.n_days - 1, 0))
    focus = (ranking.truncated(focus_n).ids for ranking in previous)
    for graph in _day_graphs(ledger, 1, focus, value_weighted):
        if graph.n_nodes < 2:
            continue
        for m in metrics:
            if m == "degree":
                vec = degree_centrality(graph)
            else:
                vec = pagerank(graph, weighted_by_value=value_weighted)
            out[m][graph.day] = dispersion(vec)
    return out
