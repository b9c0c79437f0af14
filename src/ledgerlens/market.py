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
# (bench/tracer.py) wraps them here.  It also wraps `label_propagation`,
# which is not called in this module either (the day sweeps call
# `_propagate`), and `_focus_pair_weights`, whose `ledger` and `day`
# arguments it reads; that one is called through this module's globals,
# never bound locally.
from .balances import Ranking, _apply_day, pairwise_dot, rank_balances, snapshot_at
from .ledger import Ledger

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

    Edge i joins nodes ``p[i] != q[i]`` of graph ``graph[i]`` with weight
    ``w[i]``, finite and > 0.  Every node starts with its own position as
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
    of updating the nodes one at a time.
    """
    order = np.arange(n)
    if seed:
        order = np.random.Generator(np.random.Philox(key=seed)).permutation(n)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    # One voter entry per edge end, grouped by the node it votes for, in
    # sweep order, and then by graph; lexsort is stable, so each (node,
    # graph) group keeps the edge order.  Nodes with no voter in any graph
    # keep their labels and have no entry.
    node = np.column_stack((p, q)).ravel()
    voter = np.column_stack((q, p)).ravel()
    g = np.repeat(graph, 2)
    by = np.lexsort((g, rank[node]))
    node, voter, g = node[by], voter[by], g[by]
    weight = np.repeat(w, 2)[by]
    del by, rank
    # A group is one node of one graph.
    opens = np.ones(len(node), dtype=bool)
    opens[1:] = (node[1:] != node[:-1]) | (g[1:] != g[:-1])
    group = np.cumsum(opens) - 1
    node_at = g[opens] * n + node[opens]
    voter_at = g * n + voter

    # Cut the sweep into runs: a node that has a member of the current run
    # among its voters starts the next run.
    heads = [0] if len(node) else []  # first entry of each run
    node_starts = np.flatnonzero(np.diff(node, prepend=-1))
    bounds, voters = node_starts.tolist() + [len(node)], voter.tolist()
    run: set[int] = set()
    for v, a, b in zip(node[node_starts].tolist(), bounds, bounds[1:]):
        if not run.isdisjoint(voters[a:b]):
            heads.append(a)
            run = set()
        run.add(v)
    del node, voter, g, opens, node_starts, voters
    # Each entry is stamped with its group's rank in the run times n, so
    # that adding the voter's label gives one (group, label) key per vote.
    ends = heads[1:] + [len(group)]
    group_heads = group[heads].tolist() + [len(node_at)]
    row = (group - np.repeat(group_heads[:-1], np.diff([0] + ends))) * n
    steps = [(row[a:b], voter_at[a:b], weight[a:b], node_at[c:d], np.arange(d - c) * n)
             for a, b, c, d in zip(heads, ends, group_heads, group_heads[1:])]
    labels = np.tile(np.arange(n), n_graphs)
    # A round that changes nothing in a graph leaves it at a fixed point,
    # so sweeping it on with the rest of the block changes nothing either.
    # A step scores only the (group, label) keys that receive a vote, so it
    # costs O(e log e) for its e voter entries, whatever n is.
    for _ in range(max_rounds):
        changed = False
        for rows, at, wts, own, firsts in steps:
            # Sorted (group, label) keys; the stable sort keeps each key's
            # votes in edge order, and bincount adds them in that order.
            key = rows + labels[at]
            by = key.argsort(kind="stable")
            key = key[by]
            opens = np.empty(len(key), dtype=bool)
            opens[0] = True
            np.not_equal(key[1:], key[:-1], out=opens[1:])
            votes = np.bincount(opens.cumsum() - 1, wts[by])
            keys = key[opens]
            # Per group: its heaviest score, then the smallest key that has it.
            starts = np.searchsorted(keys, firsts)
            top = np.maximum.reduceat(votes, starts)[keys // n]
            best = np.minimum.reduceat(np.where(votes == top, keys, keys[-1]), starts) - firsts
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


class _PairIndex:
    """Undirected edge counts between the addresses of a focus union, by day.

    Built once from the whole ledger's edges with an end in `focus_ids`:
    only those with both ends there are kept, self-pairs are dropped, and
    each remaining edge is stamped ``pair * n_days + day`` against the
    sorted unique pair keys ``lo * len(ids) + hi`` (union positions,
    ``lo < hi``).  ``keys[start[i]:start[i + 1]]`` are the pairs whose lower
    end is union position i.  The cumulative (day 0..t) count of a pair is
    then one binary search.
    """

    def __init__(self, ledger: Ledger, focus_ids: np.ndarray):
        self.ids = np.unique(focus_ids)
        self.n_days = ledger.n_days
        lut = np.zeros(len(ledger.addresses), dtype=bool)
        lut[self.ids] = True
        edges = ledger._expand(0, len(ledger), lut)
        keep = lut[edges.src] & lut[edges.dst] & (edges.src != edges.dst)
        src, dst = edges.src[keep], edges.dst[keep]
        lo = np.searchsorted(self.ids, np.minimum(src, dst))
        hi = np.searchsorted(self.ids, np.maximum(src, dst))
        u = len(self.ids)
        self.keys, pair = np.unique(lo * u + hi, return_inverse=True)
        self.stamps = np.sort(pair * self.n_days + ledger.days[edges.tx[keep]])
        self.start = np.searchsorted(self.keys, np.arange(u + 1) * u)
        # stamps[first[k]:] begins with pair k's stamps.
        self.first = np.searchsorted(self.stamps, np.arange(len(self.keys)) * self.n_days)

    def lookup(self, day: int, focus_ids: np.ndarray):
        """Cumulative (day 0..day) edge counts between the sorted
        `focus_ids`, which must lie inside the union: ``(p, q, w)`` with
        positions ``p < q`` in `focus_ids` and float counts > 0, ascending
        by (p, q)."""
        pos = np.searchsorted(self.ids, focus_ids)
        # Gather every key whose lower end is a focus member, then keep
        # those whose upper end is one too.
        begin = self.start[pos]
        length = self.start[pos + 1] - begin
        k = np.arange(int(length.sum()))
        k += np.repeat(begin - (np.cumsum(length) - length), length)
        p = np.repeat(np.arange(len(pos)), length)
        hi = self.keys[k] % len(self.ids)
        q = np.minimum(np.searchsorted(pos, hi), len(pos) - 1)
        inside = pos[q] == hi
        p, q, k = p[inside], q[inside], k[inside]
        counts = np.searchsorted(self.stamps, k * self.n_days + day, side="right") - self.first[k]
        nz = counts > 0
        return p[nz], q[nz], counts[nz].astype(np.float64)


def _focus_pair_weights(
    ledger: Ledger, day: int, focus_ids: np.ndarray, pairs: _PairIndex
) -> list[tuple[int, int, float]]:
    """Multiplicity weights of cumulative (day 0..day) edges between the
    sorted `focus_ids`, folded to undirected pairs in ascending (lo, hi)
    order.  `focus_ids` must lie inside the union `pairs` was built from."""
    p, q, w = pairs.lookup(day, focus_ids)
    return list(zip(focus_ids[p].tolist(), focus_ids[q].tolist(), w.tolist()))


# Budget of labels (focus slots padded to the block's widest day) plus
# voter entries (two per pair) of one block sweep; a day that would pass it
# opens the next block.  About 85 days of 100 focus nodes and 700 pairs,
# about 10 MB of arrays at the sweep's peak.
_BLOCK_SLOTS = 1 << 17


def _sweep_block(block: list, width: int, seed: int) -> Iterator[list[int]]:
    """Labels of each (sorted focus ids, (p, q, w) pairs) day of `block`,
    swept together as graphs of `width` nodes: the positions past a day's
    own focus have no edges and keep their own labels."""
    p, q, w = (np.concatenate(c) for c in zip(*(found for _, found in block)))
    graph = np.repeat(np.arange(len(block)), [len(found[0]) for _, found in block])
    roots = _propagate(width, graph, p, q, w, len(block), seed, _MAX_ROUNDS)
    for (ids, _), day_roots in zip(block, roots):
        yield ids[day_roots[:len(ids)]].tolist()


def _focus_labels(
    ledger: Ledger,
    days: Sequence[int],
    focus_ids: Sequence[np.ndarray],
    pairs: _PairIndex,
    method: str,
    seed: int,
) -> Iterator[list[int]]:
    """Yield the firm label of each of the sorted ``focus_ids[i]`` on day
    ``days[i]``: communities of the cumulative focus graph, each named by
    its smallest member id.  `method` has passed check_method.  Label
    propagation sweeps consecutive days together, up to _BLOCK_SLOTS a
    block, padded to the block's largest focus size.  The ascending sweep
    order (seed 0) is the same for every size, but a seeded order depends
    on it, so a seeded block holds days of one focus size."""
    if method == "modularity":
        for day, ids in zip(days, focus_ids):
            nodes = ids.tolist()
            labels = _modularity_communities(
                nodes, _focus_pair_weights(ledger, day, ids, pairs))
            yield [labels[i] for i in nodes]
        return
    block: list = []
    width = voters = 0
    for day, ids in zip(days, focus_ids):
        found = pairs.lookup(day, ids)
        slots = max(width, len(ids)) * (len(block) + 1) + voters + 2 * len(found[0])
        if block and ((seed and len(ids) != width) or slots > _BLOCK_SLOTS):
            yield from _sweep_block(block, width, seed)
            block, width, voters = [], 0, 0
        block.append((ids, found))
        width = max(width, len(ids))
        voters += 2 * len(found[0])
    if block:
        yield from _sweep_block(block, width, seed)


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
        (labels,) = _focus_labels(ledger, [ranking.day], [ids], _PairIndex(ledger, ids),
                                  method, seed)
        firms.update(zip(ids.tolist(), labels))
    return firms


@dataclass
class HHISeries:
    scheme: str
    values: dict[int, float]

    def classes(self) -> dict[int, str]:
        return {d: classify(v) for d, v in self.values.items()}


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
    labels: every day's focus pairs are looked up in one pair index over
    the union of the days' focus sets, and label propagation sweeps a
    block of days at once.
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
        labels = _focus_labels(ledger, range(len(focus)), focus_ids,
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
            _, bal = focus[day]
            group_sums: dict[int, int] = {}
            for lab, b in zip(day_labels, bal.tolist()):
                group_sums[lab] = group_sums.get(lab, 0) + b
            comm_sq = float(sum(s * s for s in group_sums.values()))
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
