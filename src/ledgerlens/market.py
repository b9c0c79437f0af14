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

# `_apply_day` is not called here; it stays importable under this module's
# name because the benchmark's tracer (bench/tracer.py) wraps it here.  For
# the same reason `rank_balances`, `label_propagation` and
# `_focus_pair_weights` (whose `ledger` and `day` arguments the tracer
# reads) are called through this module's globals, never bound locally.
from .balances import BalanceSnapshot, Ranking, _apply_day, rank_balances, snapshot_at
from .ledger import Ledger

V_C_LABEL = -1  # coinbase pseudo-firm
V_O_LABEL = -2  # all non-top-100 addresses (scheme A3)

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
    return 10000.0 * float(np.dot(shares, shares))


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


@dataclass
class EntityClustering:
    """Partition of in-scope addresses into firms for one day.

    `address_ids` and `entity_ids` are parallel arrays of interned ids;
    entity labels are the smallest member id of the firm, or V_C_LABEL /
    V_O_LABEL for the coinbase and rest-of-world pseudo-firms (scheme A3).
    Addresses outside `address_ids` map to V_o under A3 and to themselves
    otherwise.
    """

    day: int
    scheme: str
    address_ids: np.ndarray
    entity_ids: np.ndarray
    has_specials: bool = False

    def holdings(self, snapshot: BalanceSnapshot) -> dict[int, int]:
        """Aggregate member balances per firm (V_c holds 0; V_o holds the
        whole non-focus remainder)."""
        balances = snapshot.balances
        out: dict[int, int] = {}
        for a, e in zip(self.address_ids, self.entity_ids):
            out[int(e)] = out.get(int(e), 0) + int(balances[a])
        if self.has_specials:
            funded_total = int(balances[balances > 0].sum())
            focus_total = int(balances[self.address_ids].sum())
            out[V_O_LABEL] = funded_total - focus_total
            out[V_C_LABEL] = 0
        return out

    def as_dict(self, addresses) -> dict[str, int]:
        names = addresses.names
        return {names[a]: int(e) for a, e in zip(self.address_ids, self.entity_ids)}


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


# Budget of labels plus voter entries (two per pair) of one block sweep;
# the day that reaches it closes the block.  About 85 days of 100 focus
# nodes and 700 pairs, about 10 MB of arrays at the sweep's peak.
_BLOCK_SLOTS = 1 << 17


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
    propagation sweeps consecutive days of one focus size together, up to
    _BLOCK_SLOTS a block; the seeded sweep order depends on the size."""
    if method == "modularity":
        for day, ids in zip(days, focus_ids):
            nodes = ids.tolist()
            labels = _modularity_communities(
                nodes, _focus_pair_weights(ledger, day, ids, pairs))
            yield [labels[i] for i in nodes]
        return
    block_ids, block_pairs, slots = [], [], 0
    for i, (day, ids) in enumerate(zip(days, focus_ids)):
        block_ids.append(ids)
        block_pairs.append(pairs.lookup(day, ids))
        slots += len(ids) + 2 * len(block_pairs[-1][0])
        if (i + 1 == len(days) or len(focus_ids[i + 1]) != len(ids)
                or slots >= _BLOCK_SLOTS):
            p, q, w = (np.concatenate(c) for c in zip(*block_pairs))
            graph = np.repeat(np.arange(len(block_ids)), [len(b[0]) for b in block_pairs])
            roots = _propagate(len(ids), graph, p, q, w, len(block_ids), seed, _MAX_ROUNDS)
            for day_ids, day_roots in zip(block_ids, roots):
                yield day_ids[day_roots].tolist()
            block_ids, block_pairs, slots = [], [], 0


def cluster(
    ledger: Ledger,
    day: int,
    scheme: str,
    focus_n: int = 100,
    method: str = "label_propagation",
    seed: int = 0,
    snapshot: BalanceSnapshot | None = None,
) -> EntityClustering:
    """Partition addresses into firms for one day under a scheme.

    The focus set is day `day`'s top-`focus_n` ranking and the community
    graph accumulates all transactions from day 0 through `day`.
    """
    scheme = scheme.lower()
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    check_method(method)
    if snapshot is None:
        snapshot = snapshot_at(ledger, day)
    balances = snapshot.balances
    if scheme == "a1":
        funded = np.flatnonzero(balances > 0)
        return EntityClustering(day, scheme, funded, funded.copy())

    focus_ids = np.sort(rank_balances(balances, focus_n, ledger.addresses, day).ids)
    (labels,) = _focus_labels(ledger, [day], [focus_ids], _PairIndex(ledger, focus_ids),
                              method, seed)
    focus_entities = np.asarray(labels, dtype=np.int64)

    if scheme == "a3":
        return EntityClustering(day, scheme, focus_ids, focus_entities, has_specials=True)

    funded = np.flatnonzero(balances > 0)
    lut = np.zeros(len(ledger.addresses), dtype=bool)
    lut[focus_ids] = True
    rest = funded[~lut[funded]]
    address_ids = np.concatenate((focus_ids, rest))
    entity_ids = np.concatenate((focus_entities, rest))
    return EntityClustering(day, scheme, address_ids, entity_ids)


@dataclass
class HHISeries:
    scheme: str
    values: dict[int, float]

    def classes(self) -> dict[int, str]:
        return {d: classify(v) for d, v in self.values.items()}


def hhi_series(
    ledger: Ledger,
    scheme: str,
    rankings: Sequence[Ranking],
    focus_n: int = 100,
    method: str = "label_propagation",
    seed: int = 0,
) -> HHISeries:
    """Daily HHI under one clustering scheme, read from the day rankings.

    `rankings` holds one ranking per day of the ledger, each at least
    `focus_n` deep (as `compute_rankings(ledger, n)` gives for any
    ``n >= focus_n``); a day's focus set is its top `focus_n`.  Entity
    holdings are day-end balances; the share base is the total minted
    supply of the day.  Days with no minted supply are skipped.  A2/A3 look
    up every day's focus pairs in one pair index over the union of the
    days' focus sets, and label propagation sweeps a block of days at once.
    """
    scheme = scheme.lower()
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    check_method(method)
    if len(rankings) != ledger.n_days:
        raise ValueError(f"hhi_series needs one ranking per day ({ledger.n_days}), "
                         f"got {len(rankings)}")
    if any(r.n < focus_n for r in rankings):
        raise ValueError(f"hhi_series needs rankings at least focus_n={focus_n} deep")

    # Each day's focus members sorted by id, with their balances, and the
    # firm label of each member.
    focus = []
    labels: Iterable = itertools.repeat(None)
    if scheme != "a1" and rankings:
        for r in rankings:
            top = r.truncated(focus_n)
            order = np.argsort(top.ids)
            focus.append((top.ids[order], top.balances[order]))
        focus_ids = [ids for ids, _ in focus]
        labels = _focus_labels(ledger, range(len(focus)), focus_ids,
                               _PairIndex(ledger, np.concatenate(focus_ids)), method, seed)

    values: dict[int, float] = {}
    for day, (r, day_labels) in enumerate(zip(rankings, labels)):
        supply = ledger.supply_at(day)
        if supply <= 0:
            continue
        c2 = float(supply) * float(supply)
        if scheme == "a1":
            values[day] = 10000.0 * r.funded_sq / c2
            continue
        ids, bal = focus[day]
        if not len(ids):
            # No funded address at all, so every firm holds nothing.
            values[day] = 0.0
            continue
        group_sums: dict[int, int] = {}
        for lab, b in zip(day_labels, bal.tolist()):
            group_sums[lab] = group_sums.get(lab, 0) + b
        comm_sq = float(sum(s * s for s in group_sums.values()))
        top_sq = float(np.dot(bal.astype(np.float64), bal.astype(np.float64)))
        if scheme == "a2":
            total_sq = comm_sq + (r.funded_sq - top_sq)
        else:
            vo = float(r.funded_total - int(bal.sum()))
            total_sq = comm_sq + vo * vo
        values[day] = 10000.0 * total_sq / c2
    return HHISeries(scheme, values)


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
