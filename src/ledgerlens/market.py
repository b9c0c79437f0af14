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

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# `_apply_day` is not called here; it stays importable under this module's
# name because the benchmark's tracer (bench/tracer.py) wraps it here.  For
# the same reason `rank_balances`, `label_propagation` and
# `_focus_pair_weights` (whose `ledger` and `day` arguments the tracer
# reads) are called through this module's globals, never bound locally.
from .balances import BalanceSnapshot, _apply_day, _replay, rank_balances, snapshot_at
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


def label_propagation(
    nodes: Sequence[int],
    edges: Iterable[tuple[int, int, float]],
    seed: int = 0,
    max_rounds: int = 100,
) -> dict[int, int]:
    """Deterministic weighted label propagation.

    Each node starts with its own id as label and repeatedly adopts the
    heaviest label among its neighbors, smallest label winning ties;
    self-loops cast no vote.  Sweep order is ascending node id, or a
    deterministic permutation of it when ``seed`` is nonzero.  Labels are
    canonicalized to the smallest member id before returning.
    """
    # Nodes are positions in the sorted unique ids, so the smallest label
    # is also the smallest position.
    ids = sorted({int(v) for v in nodes})
    pos = {v: p for p, v in enumerate(ids)}
    nbrs: list[list[tuple[int, float]]] = [[] for _ in ids]
    for u, v, w in edges:
        p, q = pos[int(u)], pos[int(v)]
        if p != q:
            w = float(w)
            nbrs[p].append((q, w))
            nbrs[q].append((p, w))
    order = range(len(ids))
    if seed:
        rng = np.random.Generator(np.random.Philox(key=seed))
        order = rng.permutation(len(ids)).tolist()
    # Drop edgeless nodes (they get no votes) only after the permutation,
    # which spans every node.
    order = [p for p in order if nbrs[p]]
    labels = list(range(len(ids)))

    for _ in range(max_rounds):
        changed = False
        for p in order:
            votes: dict[int, float] = {}
            for q, w in nbrs[p]:
                lab = labels[q]
                votes[lab] = votes.get(lab, 0.0) + w
            items = iter(votes.items())
            best, top = next(items)
            for lab, w in items:
                if w > top or (w == top and lab < best):
                    best, top = lab, w
            if best != labels[p]:
                labels[p] = best
                changed = True
        if not changed:
            break

    # Canonical label = smallest member id of each group.
    root: dict[int, int] = {}
    for p, lab in enumerate(labels):
        root.setdefault(lab, p)
    return {v: ids[root[labels[p]]] for p, v in enumerate(ids)}


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

    Built once from the whole ledger: only edges with both endpoints in
    `focus_ids` are kept, self-pairs are dropped, and each remaining edge is
    stamped ``pair * n_days + day`` against the sorted unique pair keys.  The
    cumulative (day 0..t) count of a pair is then two binary searches.
    """

    def __init__(self, ledger: Ledger, focus_ids: np.ndarray):
        self.ids = np.unique(focus_ids)
        self.n_days = ledger.n_days
        edges = ledger.expanded_edges()
        lut = np.zeros(len(ledger.addresses), dtype=bool)
        lut[self.ids] = True
        keep = lut[edges.src] & lut[edges.dst] & (edges.src != edges.dst)
        src, dst = edges.src[keep], edges.dst[keep]
        lo = np.searchsorted(self.ids, np.minimum(src, dst))
        hi = np.searchsorted(self.ids, np.maximum(src, dst))
        self.keys, pair = np.unique(lo * len(self.ids) + hi, return_inverse=True)
        self.stamps = np.sort(pair * self.n_days + edges.day[keep])


def _focus_pair_weights(
    ledger: Ledger, day: int, focus_ids: np.ndarray, pairs: _PairIndex
) -> list[tuple[int, int, float]]:
    """Multiplicity weights of cumulative (day 0..day) edges between the
    sorted `focus_ids`, folded to undirected pairs in ascending (lo, hi)
    order.  `focus_ids` must lie inside the union `pairs` was built from."""
    if not len(pairs.keys):
        return []
    i, j = np.triu_indices(len(focus_ids), 1)
    pos = np.searchsorted(pairs.ids, focus_ids)
    key = pos[i] * len(pairs.ids) + pos[j]
    at = np.minimum(np.searchsorted(pairs.keys, key), len(pairs.keys) - 1)
    found = pairs.keys[at] == key
    i, j, base = i[found], j[found], at[found] * pairs.n_days
    counts = (np.searchsorted(pairs.stamps, base + day, side="right")
              - np.searchsorted(pairs.stamps, base))
    nz = counts > 0
    return list(zip(focus_ids[i[nz]].tolist(), focus_ids[j[nz]].tolist(),
                    counts[nz].astype(np.float64).tolist()))


def _focus_labels(
    ledger: Ledger,
    day: int,
    focus_ids: np.ndarray,
    pairs: _PairIndex,
    method: str,
    seed: int,
) -> list[int]:
    """Firm label of each of the sorted `focus_ids` on `day`: communities of
    the cumulative focus graph.  `method` has passed check_method."""
    pair_weights = _focus_pair_weights(ledger, day, focus_ids, pairs)
    nodes = focus_ids.tolist()
    if method == "modularity":
        labels = _modularity_communities(nodes, pair_weights)
    else:
        labels = label_propagation(nodes, pair_weights, seed=seed)
    return [labels[i] for i in nodes]


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
    labels = _focus_labels(ledger, day, focus_ids, _PairIndex(ledger, focus_ids),
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
    focus_n: int = 100,
    method: str = "label_propagation",
    seed: int = 0,
) -> HHISeries:
    """Daily HHI under one clustering scheme.

    Entity holdings are day-end balances; the share base is the total minted
    supply of the day.  Days with no minted supply are skipped.  A2/A3 look
    up every day's focus pairs in one pair index over the union of the
    days' focus sets.
    """
    scheme = scheme.lower()
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    check_method(method)

    # One walk: per-day funded sum of squares and total, plus the focus
    # members sorted by id with their balances.
    walked = []
    for day, balances in _replay(ledger):
        funded = balances[balances > 0]
        funded_vals = funded.astype(np.float64)
        sumsq = float(np.dot(funded_vals, funded_vals))
        funded_total = int(funded.sum())
        ids = bal = None
        if scheme != "a1":
            ranking = rank_balances(balances, focus_n, ledger.addresses, day)
            order = np.argsort(ranking.ids)
            ids, bal = ranking.ids[order], ranking.balances[order]
        walked.append((day, sumsq, funded_total, ids, bal))

    if scheme != "a1" and walked:
        pairs = _PairIndex(ledger, np.concatenate([w[3] for w in walked]))

    values: dict[int, float] = {}
    for day, sumsq, funded_total, ids, bal in walked:
        supply = ledger.supply_at(day)
        if supply <= 0:
            continue
        c2 = float(supply) * float(supply)
        if scheme == "a1" or (scheme == "a2" and not len(ids)):
            # A2 without funded focus addresses degenerates to singletons.
            values[day] = 10000.0 * sumsq / c2
            continue
        if not len(ids):
            # A3 without funded focus addresses: V_o holds everything.
            vo = float(funded_total)
            values[day] = 10000.0 * vo * vo / c2
            continue
        labels = _focus_labels(ledger, day, ids, pairs, method, seed)
        group_sums: dict[int, int] = {}
        for lab, b in zip(labels, bal.tolist()):
            group_sums[lab] = group_sums.get(lab, 0) + b
        comm_sq = float(sum(s * s for s in group_sums.values()))
        top_sq = float(np.dot(bal.astype(np.float64), bal.astype(np.float64)))
        if scheme == "a2":
            total_sq = comm_sq + (sumsq - top_sq)
        else:
            vo = float(funded_total - int(bal.sum()))
            total_sq = comm_sq + vo * vo
        values[day] = 10000.0 * total_sq / c2
    return HHISeries(scheme, values)


def d_hhi(series: HHISeries) -> dict[int, float]:
    """Dynamic decentralization degree: 1 minus the min-max-normalized HHI.

    Normalization spans the whole available series, so the series maximum
    maps to 0 and the minimum to 1.  A constant series is defined as all 1.
    """
    if not series.values:
        raise ValueError("empty series")
    vals = series.values
    lo = min(vals.values())
    hi = max(vals.values())
    if hi == lo:
        return {d: 1.0 for d in vals}
    span = hi - lo
    return {d: 1.0 - (v - lo) / span for d, v in vals.items()}
