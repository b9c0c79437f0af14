"""Market-concentration analysis: HHI under three entity-clustering schemes
and the min-max-normalized dynamic decentralization degree.

Schemes map addresses to "firms":

* A1 - every funded address is its own firm.
* A2 - firms are communities detected on the cumulative (day 0..t)
  transaction graph restricted to edges between day t's top-100 addresses;
  focus addresses without such edges, and all other funded addresses, are
  singleton firms.
* A3 - like A2, but coinbase is the single pseudo-firm V_c and every
  non-top-100 address is folded into the single pseudo-firm V_o.  V_c and
  V_o never enter community detection, which sees only the edges between
  focus addresses, so focus addresses never merge through them; a focus
  address whose only counterparty is coinbase therefore stays a singleton
  firm.

Community detection defaults to deterministic weighted label propagation
(node-id tie-breaking, optional seeded sweep order); greedy modularity
maximization is available behind ``method="modularity"``; it needs
networkx, the optional ``modularity`` extra.
"""

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

# `_apply_day` and `rank_balances` are not called here; they stay
# importable under this module's name because the benchmark's tracer
# (bench/tracer.py) wraps them here.  It also wraps `label_propagation` and
# `_focus_pair_weights`, whose `ledger` and `day` arguments it reads; this
# module calls neither (the day sweeps call `_propagate` and
# `_PairIndex.gather`), but the tests do.
from .balances import Ranking, _apply_day, pairwise_dot, rank_balances, snapshot_at
from .ledger import Ledger, _concat

SCHEMES = ("a1", "a2", "a3")
METHODS = ("label_propagation", "modularity")

HHI_COMPETITIVE_MAX = 1500.0
HHI_MODERATE_MAX = 2500.0


def hhi(holdings: Iterable[float] | np.ndarray, total: float) -> float:
    """Herfindahl-Hirschman index of holdings against a supply base.

    ``sum(10000 * (h / total)^2)``; 10000 means a single entity holds the
    entire counted supply.
    """
    if total <= 0:
        raise ValueError("total supply must be positive")
    arr = np.asarray(list(holdings) if not isinstance(holdings, np.ndarray) else holdings,
                     dtype=np.float64)
    if (arr < 0).any():
        raise ValueError("holdings must be non-negative")
    if arr.sum() > float(total) * (1 + 1e-12):
        raise ValueError("holdings exceed total supply")
    shares = arr / float(total)
    return 10000.0 * pairwise_dot(shares, shares)


def classify(value: float) -> str:
    """HHI band: competitive below 1500, moderate to 2500, concentrated above."""
    if value < HHI_COMPETITIVE_MAX:
        return "competitive"
    if value < HHI_MODERATE_MAX:
        return "moderately_concentrated"
    return "highly_concentrated"


_MAX_ROUNDS = 100
# Cells of the dense (group, label) table one label-propagation step
# scores: 512 KB of float64.
_STEP_CELLS = 1 << 16


def _propagate(
    n: int,
    graph: np.ndarray,
    p: np.ndarray,
    q: np.ndarray,
    w: np.ndarray,
    n_graphs: int,
    seed: int,
    max_rounds: int,
) -> np.ndarray:
    """Weighted label propagation on `n_graphs` graphs of `n` nodes each,
    swept in step.

    The i-th edge joins nodes ``p[i] != q[i]`` of graph ``graph[i]`` with
    weight ``w[i]``, finite and > 0.  Every node starts with its own position as
    label.  A round visits the nodes in one `order` in every graph: each
    adopts the heaviest label among its neighbors, the smallest on a tie,
    each label's weight summed in the graph's edge order.  `order` is
    ascending, or the Philox permutation of all n nodes keyed by a nonzero
    `seed`.  A graph stops after its first round that changes no label, or
    after `max_rounds`.  Returns the ``(n_graphs, n)`` labels, each the
    smallest position of its group.

    One step updates a run of consecutive nodes of `order` in every graph
    at once.  No node of a run neighbors another in any graph, so no vote
    reads a label that its own step changes, and the labels equal those
    of updating the nodes one at a time.  A step scores its k (node, graph)
    groups in a dense k x n table of label weights, at most _STEP_CELLS
    cells unless a single group needs more; a longer run is split into
    consecutive steps, which updates the nodes in the same order.
    """
    order = np.arange(n)
    if seed:
        order = np.random.Generator(np.random.Philox(key=seed)).permutation(n)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    # One voter entry per edge end, grouped by the sweep position of the
    # node it votes for.  `graph` ascends and the sort is stable, so each
    # node's entries run by graph, each (node, graph) group in edge order.
    # A sort key of 16 bits or fewer is radix-sorted.  Nodes with no voter
    # in any graph keep their labels and have no entry.
    node = np.column_stack((p, q)).ravel()
    voter = np.column_stack((q, p)).ravel()
    sweep = rank[node].astype(np.min_scalar_type(max(n - 1, 0)))
    by = sweep.argsort(kind="stable")
    node, voter, sweep = node[by], voter[by], sweep[by]
    g = np.repeat(graph, 2)[by]
    weight = np.repeat(w, 2)[by]
    voter_sweep = rank[voter]
    del by
    # A group is one node of one graph.
    opens = np.ones(len(node), dtype=bool)
    opens[1:] = (node[1:] != node[:-1]) | (g[1:] != g[:-1])
    group = np.cumsum(opens) - 1
    node_at = g[opens] * n + node[opens]
    voter_at = g * n + voter

    # Cut the sweep into runs: a node that has a member of the current run
    # among its voters starts the next run.  The run holds every node with
    # entries since the run's head, so that is the case when the node's
    # latest earlier voter comes at or after the head.
    node_starts = np.flatnonzero(np.diff(sweep, prepend=sweep[:1] + 1))
    voter_sweep[voter_sweep > sweep] = -1
    latest = (np.maximum.reduceat(voter_sweep, node_starts).tolist()
              if len(node) else [])
    heads = []  # first entry of each run
    head = -1
    for at, v, before in zip(node_starts.tolist(), sweep[node_starts].tolist(), latest):
        if not heads or before >= head:
            heads.append(at)
            head = v
    del node, voter, g, sweep, voter_sweep, opens, node_starts, latest
    # Split runs into steps of at most _STEP_CELLS // n groups, at least one.
    group_heads = []
    per_step = max(_STEP_CELLS // max(n, 1), 1)
    for c, d in zip(group[heads].tolist(), group[heads[1:]].tolist() + [len(node_at)]):
        group_heads.extend(range(c, d, per_step))
    group_heads.append(len(node_at))
    entry_heads = np.searchsorted(group, group_heads).tolist()
    # Each entry is stamped with its group's rank in the step times n, so
    # that adding the voter's label gives its cell of the step's table.
    row = (group - np.repeat(group_heads[:-1], np.diff(entry_heads))) * n
    steps = [(row[a:b], voter_at[a:b], weight[a:b], node_at[c:d], (d - c) * n)
             for a, b, c, d in zip(entry_heads, entry_heads[1:], group_heads, group_heads[1:])]
    del row, voter_at, weight, group
    labels = np.tile(np.arange(n), n_graphs)
    # A round that changes nothing in a graph leaves it at a fixed point,
    # so sweeping it on with the rest of the block changes nothing either.
    for _ in range(max_rounds):
        changed = False
        for rows, at, wts, own, cells in steps:
            # bincount adds each cell's votes in edge order; argmax takes
            # the heaviest label of each group, the smallest on a tie.
            votes = np.bincount(rows + labels[at], wts, minlength=cells)
            best = votes.reshape(-1, n).argmax(axis=1)
            if (best != labels[own]).any():
                labels[own] = best
                changed = True
        if not changed:
            break

    # Canonical label = smallest member position of each group.
    key = labels + np.repeat(np.arange(n_graphs) * n, n)
    roots, at = np.unique(key, return_index=True)
    smallest = np.empty(n_graphs * n, dtype=np.int64)
    smallest[roots] = at % n
    return smallest[key].reshape(n_graphs, n)


def label_propagation(
    nodes: Sequence[int],
    edges: Iterable[tuple[int, int, float]],
    seed: int = 0,
    max_rounds: int = _MAX_ROUNDS,
) -> dict[int, int]:
    """Deterministic weighted label propagation.

    Each node starts with its own id as label and repeatedly adopts the
    heaviest label among its neighbors, smallest label winning ties;
    self-loops cast no vote.  Sweep order is ascending node id, or a
    deterministic permutation of it when ``seed`` is nonzero.  Labels are
    canonicalized to the smallest member id before returning.  Every edge
    endpoint must be one of `nodes` and every weight finite and > 0;
    otherwise ``ValueError``.
    """
    ids = np.asarray(sorted({int(v) for v in nodes}), dtype=np.int64)
    edges = list(edges)
    ends = np.asarray([(int(u), int(v)) for u, v, _ in edges], dtype=np.int64).reshape(-1, 2)
    w = np.asarray([float(x) for _, _, x in edges], dtype=np.float64)
    pos = np.searchsorted(ids, ends)
    found = pos < len(ids)
    found[found] = ids[pos[found]] == ends[found]
    if not found.all():
        raise ValueError(f"edge endpoint {ends[~found][0]} is not among the nodes")
    if not (np.isfinite(w) & (w > 0)).all():
        raise ValueError("edge weights must be finite and > 0")
    keep = pos[:, 0] != pos[:, 1]
    (roots,) = _propagate(len(ids), np.zeros(int(keep.sum()), dtype=np.int64),
                          pos[keep, 0], pos[keep, 1], w[keep], 1, seed, max_rounds)
    return dict(zip(ids.tolist(), ids[roots].tolist()))


def check_method(method: str) -> None:
    """Reject an unknown detection method, or ``modularity`` when networkx
    (the ``modularity`` extra) is not installed, before any day is computed."""
    if method not in METHODS:
        raise ValueError(f"unknown community detection method {method!r}")
    if method == "modularity":
        try:
            import networkx  # noqa: F401
        except ImportError:
            raise ValueError(
                "--method modularity needs networkx: "
                "pip install 'ledgerlens[modularity]'"
            ) from None


def _modularity_communities(
    nodes: Sequence[int], edges: list[tuple[int, int, float]]
) -> dict[int, int]:
    """Greedy modularity communities of sorted unique `nodes` joined by
    unique ``lo < hi`` weighted pairs, labelled by smallest member id."""
    import networkx as nx

    if not edges:
        return {int(v): int(v) for v in nodes}
    g = nx.Graph()
    g.add_nodes_from(nodes)
    g.add_weighted_edges_from(edges)
    comms = nx.algorithms.community.greedy_modularity_communities(g, weight="weight")
    out: dict[int, int] = {}
    for comm in comms:
        root = min(comm)
        for v in comm:
            out[int(v)] = int(root)
    return out


# Input plus output entries of the transactions one `_PairIndex` build
# chunk expands at once (a transaction with more is a chunk of its own): 5
# chunks for the 327k entries of 1000 days of 100 transactions, and a
# transient of a few MB however long the history.
_CHUNK_ENTRIES = 1 << 16


class _PairIndex:
    """Undirected edge counts between the addresses of a focus union, by day.

    Built from the ledger's edges with an end in `focus_ids`, expanded a
    chunk of about _CHUNK_ENTRIES entries at a time: only those with both
    ends there are kept, self-pairs are dropped, and each remaining edge
    becomes one event of its pair, in day order, against the sorted unique
    pair keys ``lo * len(ids) + hi`` (union positions, ``lo < hi``).
    ``keys[start[i]:start[i + 1]]`` are the pairs whose lower end is union
    position i.  `counts` holds each pair's events of the days before
    `through`; a gather that reads later days advances it, and one that
    reads earlier days starts it again from day 0.
    """

    def __init__(self, ledger: Ledger, focus_ids: np.ndarray):
        self.ids = np.unique(focus_ids)
        u = len(self.ids)
        lut = np.zeros(len(ledger.addresses), dtype=bool)
        lut[self.ids] = True
        # Entries before each transaction; a chunk ends at the last
        # transaction boundary within its budget.
        bounds = ledger.in_ptr + ledger.out_ptr
        pair_keys, days = [], []
        start = 0
        while start < len(ledger):
            limit = np.searchsorted(bounds, bounds[start] + _CHUNK_ENTRIES, side="right")
            stop = max(start + 1, int(limit) - 1)
            edges = ledger._expand(start, stop, lut)
            keep = lut[edges.src] & lut[edges.dst] & (edges.src != edges.dst)
            src, dst = edges.src[keep], edges.dst[keep]
            lo = np.searchsorted(self.ids, np.minimum(src, dst))
            hi = np.searchsorted(self.ids, np.maximum(src, dst))
            pair_keys.append(lo * u + hi)
            days.append(ledger.days[edges.tx[keep]])
            start = stop
        # Transactions ascend by day, so the events do too.
        self.keys, self.events = np.unique(_concat(pair_keys), return_inverse=True)
        self.day_ptr = np.searchsorted(_concat(days), np.arange(ledger.n_days + 1))
        self.start = np.searchsorted(self.keys, np.arange(u + 1) * u)
        self.hi = self.keys % u
        self.counts = np.zeros(len(self.keys), dtype=np.int64)
        self.through = 0

    def _advance(self, day: int) -> None:
        """Count the events of the days before `day` into `counts`."""
        if day < self.through:
            self.counts[:] = 0
            self.through = 0
        np.add.at(self.counts, self.events[self.day_ptr[self.through]:self.day_ptr[day]], 1)
        self.through = day

    def gather(self, block: list) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Cumulative (day 0..day) edge counts between the sorted focus ids
        of each ``(day, focus_ids)`` of `block`, each focus inside the
        union: flat ``(graph, p, q, w)``, where entry i joins positions
        ``p[i] < q[i]`` in the focus of ``block[graph[i]]`` with float
        count ``w[i] > 0``, ascending by (graph, p, q).  One gather of the
        pair keys whose lower end is a focus member, a (day, union
        position) table that places the upper ends, and the running counts
        read at each day's end, which only advance while days ascend."""
        u = len(self.ids)
        sizes = [len(ids) for _, ids in block]
        pos = np.searchsorted(self.ids, _concat([ids for _, ids in block]))
        # Each focus member's day (block index) and place in the day's
        # focus, and a table of those places by (day, union position).
        member_day = np.repeat(np.arange(len(block)), sizes)
        local = np.arange(len(pos)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        table = np.full(len(block) * u, -1, dtype=np.int64)
        table[member_day * u + pos] = local
        # Gather every key whose lower end is a member, then keep those
        # whose upper end is a member of the same day.
        begin = self.start[pos]
        length = self.start[pos + 1] - begin
        k = np.arange(int(length.sum()))
        k += np.repeat(begin - (np.cumsum(length) - length), length)
        j = np.repeat(member_day, length)
        q = table[j * u + self.hi[k]]
        inside = q >= 0
        j, p, q, k = j[inside], np.repeat(local, length)[inside], q[inside], k[inside]
        # Each day's counts, read as the running counts reach its end.
        bounds = np.searchsorted(j, np.arange(len(block) + 1)).tolist()
        counts = np.empty(len(k), dtype=np.int64)
        for (day, _), a, b in zip(block, bounds, bounds[1:]):
            self._advance(day + 1)
            counts[a:b] = self.counts[k[a:b]]
        nz = counts > 0
        return j[nz], p[nz], q[nz], counts[nz].astype(np.float64)


def _focus_pair_weights(
    ledger: Ledger, day: int, focus_ids: np.ndarray, pairs: _PairIndex
) -> list[tuple[int, int, float]]:
    """Multiplicity weights of cumulative (day 0..day) edges between the
    sorted `focus_ids`, folded to undirected pairs in ascending (lo, hi)
    order.  `focus_ids` must lie inside the union `pairs` was built from."""
    _, p, q, w = pairs.gather([(day, focus_ids)])
    return list(zip(focus_ids[p].tolist(), focus_ids[q].tolist(), w.tolist()))


# Budget of one block of HHI days: its gathered pair keys, and the slots of
# its (day, union position) table; a day that would pass it opens the next
# block.  About 85 days of a 100-address focus over a 150-address union, and
# about 13 MB of arrays at the label sweep's peak.
_BLOCK_SLOTS = 1 << 17


def _focus_labels(
    days: Sequence[int],
    focus_ids: Sequence[np.ndarray],
    pairs: _PairIndex,
    method: str,
    seed: int,
) -> Iterator[list[int]]:
    """Yield the firm label of each of the sorted ``focus_ids[i]`` on day
    ``days[i]``: communities of the cumulative focus graph, each named by
    its smallest member id.  `method` has passed check_method; `days`
    ascend.

    The days are cut into blocks of consecutive days, each a day or more,
    up to _BLOCK_SLOTS gathered pair keys and table slots, and one
    `pairs.gather` reads a block's focus pairs.  Label propagation sweeps a
    block's days together, as graphs padded to its largest focus size; the
    ascending sweep order (seed 0) is the same for every size, but a seeded
    order depends on it, so a seeded block holds days of one focus size.
    Modularity reads each day's pairs out of the block's."""
    u = len(pairs.ids)
    blocks: list[list] = []
    size = 0
    for day, ids in zip(days, focus_ids):
        pos = np.searchsorted(pairs.ids, ids)
        gathered = int((pairs.start[pos + 1] - pairs.start[pos]).sum())
        if (not blocks or (seed and len(ids) != len(blocks[-1][0][1]))
                or max(size + gathered, (len(blocks[-1]) + 1) * u) > _BLOCK_SLOTS):
            blocks.append([])
            size = 0
        blocks[-1].append((day, ids))
        size += gathered
    for block in blocks:
        graph, p, q, w = pairs.gather(block)
        if method == "modularity":
            bounds = np.searchsorted(graph, np.arange(len(block) + 1)).tolist()
            for (_, ids), a, b in zip(block, bounds, bounds[1:]):
                nodes = ids.tolist()
                labels = _modularity_communities(nodes, list(zip(
                    ids[p[a:b]].tolist(), ids[q[a:b]].tolist(), w[a:b].tolist())))
                yield [labels[i] for i in nodes]
            continue
        width = max(len(ids) for _, ids in block)
        roots = _propagate(width, graph, p, q, w, len(block), seed, _MAX_ROUNDS)
        for (_, ids), day_roots in zip(block, roots):
            yield ids[day_roots[:len(ids)]].tolist()


def _check(schemes: Iterable[str], method: str, focus_n: int) -> list[str]:
    """The lower-cased `schemes` without repeats, in the order given, once
    they, `method` and `focus_n` have passed; otherwise ``ValueError``."""
    schemes = list(dict.fromkeys(s.lower() for s in schemes))
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
    check_method(method)
    if focus_n < 1:
        raise ValueError("focus_n must be >= 1")
    return schemes


def _check_depth(ranking: Ranking, focus_n: int) -> None:
    if ranking.n < focus_n:
        raise ValueError(f"rankings must be at least focus_n={focus_n} deep")


def _focus(ranking: Ranking, focus_n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ranking's top `focus_n` ids, sorted by id, and their balances."""
    top = ranking.truncated(focus_n)
    order = np.argsort(top.ids)
    return top.ids[order], top.balances[order]


def cluster(
    ledger: Ledger,
    scheme: str,
    ranking: Ranking,
    focus_n: int = 100,
    method: str = "label_propagation",
    seed: int = 0,
) -> dict[int, int]:
    """Firms of the ranking's day under a scheme: address id -> firm id.

    The focus set is the ranking's top `focus_n`, as in `hhi_series`, and
    the community graph accumulates all transactions from day 0 through the
    ranking's day.  A1 and A2 map every funded address (a replay to the
    day); A3 maps the focus set only, every other funded address lying in
    the V_o pseudo-firm.  A firm is named by its smallest member id.
    """
    (scheme,) = _check([scheme], method, focus_n)
    _check_depth(ranking, focus_n)
    firms: dict[int, int] = {}
    if scheme != "a3":
        funded = np.flatnonzero(snapshot_at(ledger, ranking.day).balances > 0).tolist()
        firms = dict(zip(funded, funded))
    if scheme != "a1":
        ids, _ = _focus(ranking, focus_n)
        (labels,) = _focus_labels([ranking.day], [ids], _PairIndex(ledger, ids), method, seed)
        firms.update(zip(ids.tolist(), labels))
    return firms


@dataclass
class HHISeries:
    scheme: str
    values: dict[int, float]


def hhi_series(
    ledger: Ledger,
    scheme: str,
    rankings: Iterable[Ranking],
    focus_n: int = 100,
    method: str = "label_propagation",
    seed: int = 0,
) -> HHISeries:
    """Daily HHI under one clustering scheme, read from the day rankings:
    `hhi_by_scheme` for that scheme alone."""
    (series,) = hhi_by_scheme(ledger, [scheme], rankings, focus_n, method, seed).values()
    return series


def hhi_by_scheme(
    ledger: Ledger,
    schemes: Iterable[str],
    rankings: Iterable[Ranking],
    focus_n: int = 100,
    method: str = "label_propagation",
    seed: int = 0,
) -> dict[str, HHISeries]:
    """Daily HHI under each clustering scheme, read from the day rankings:
    lower-cased scheme -> series, in the order given, repeats dropped.

    `rankings` gives one ranking per day of the ledger, each at least
    `focus_n` deep (as `compute_rankings(ledger, n)` yields for any
    ``n >= focus_n``); a day's focus set is its top `focus_n`.  They are
    read in one pass, which keeps only each day's funded totals and, when
    A2 or A3 is asked for, its focus members.  Entity holdings are day-end
    balances; the share base is the total minted supply of the day.  Days
    with no minted supply are skipped.  A2 and A3 share one set of firm
    labels, from one pair index over the union of the days' focus sets and
    one loop over blocks of days: each block's focus pairs are gathered at
    once, and label propagation sweeps the block's days together.
    """
    schemes = _check(schemes, method, focus_n)
    communities = any(scheme != "a1" for scheme in schemes)
    # Each day's funded totals and, for A2/A3, its focus members sorted by
    # id with their balances.
    totals: list[tuple[int, float]] = []
    focus = []
    for r in rankings:
        _check_depth(r, focus_n)
        totals.append((r.funded_total, r.funded_sq))
        if communities:
            focus.append(_focus(r, focus_n))
    if len(totals) != ledger.n_days:
        raise ValueError(f"hhi_series needs one ranking per day ({ledger.n_days}), "
                         f"got {len(totals)}")

    # The firm label of each focus member.
    labels: Iterable = itertools.repeat(None)
    if focus:
        focus_ids = [ids for ids, _ in focus]
        labels = _focus_labels(range(len(focus)), focus_ids,
                               _PairIndex(ledger, np.concatenate(focus_ids)), method, seed)

    values: dict[str, dict[int, float]] = {scheme: {} for scheme in schemes}
    for day, ((funded_total, funded_sq), day_labels) in enumerate(zip(totals, labels)):
        supply = ledger.supply_at(day)
        if supply <= 0:
            continue
        # Each scheme's sum of squared firm holdings.  A day with no funded
        # address has an empty focus, and every sum is 0.0.
        total_sq = {"a1": funded_sq}
        if focus:
            ids, bal = focus[day]
            # Each label is a focus member's id, so its position in the
            # sorted ids numbers its group.  The sums are exact in int64
            # (no day's holdings exceed its supply); their squares are
            # added as Python ints.
            group_sums = np.zeros(len(ids), dtype=np.int64)
            np.add.at(group_sums, np.searchsorted(ids, day_labels), bal)
            comm_sq = float(sum(s * s for s in group_sums[group_sums != 0].tolist()))
            as_float = bal.astype(np.float64)
            total_sq["a2"] = comm_sq + (funded_sq - pairwise_dot(as_float, as_float))
            vo = float(funded_total - int(bal.sum()))
            total_sq["a3"] = comm_sq + vo * vo
        c2 = float(supply) * float(supply)
        for scheme in schemes:
            values[scheme][day] = 10000.0 * total_sq[scheme] / c2
    return {scheme: HHISeries(scheme, values[scheme]) for scheme in schemes}


def d_hhi(series: HHISeries) -> dict[int, float]:
    """Dynamic decentralization degree: 1 minus the min-max-normalized HHI.

    Normalization spans the whole available series, so the series maximum
    maps to 0 and the minimum to 1.  A constant series is defined as all 1,
    and an empty one gives an empty map.
    """
    vals = series.values
    if not vals:
        return {}
    lo = min(vals.values())
    hi = max(vals.values())
    if hi == lo:
        return {d: 1.0 for d in vals}
    span = hi - lo
    return {d: 1.0 - (v - lo) / span for d, v in vals.items()}
