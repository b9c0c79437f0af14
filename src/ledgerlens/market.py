"""Market-concentration analysis: HHI under three entity-clustering schemes
and the min-max-normalized dynamic decentralization degree.

Schemes map addresses to "firms":

* A1 - every funded address is its own firm.
* A2 - firms are communities detected on the cumulative (day 0..t)
  transaction graph restricted to edges between day t's top-100 addresses;
  focus addresses without such edges, and all other funded addresses, are
  singleton firms.
* A3 - like A2, but coinbase is the single pseudo-firm V_c and every
  non-top-100 address is folded into the single pseudo-firm V_o.  The two
  aggregate pseudo-nodes hold fixed labels during detection and cast no
  votes, so focus addresses never merge through them; a focus address whose
  only counterparty is coinbase therefore stays a singleton firm.

Community detection defaults to deterministic weighted label propagation
(node-id tie-breaking, optional seeded sweep order); greedy modularity
maximization is available behind ``method="modularity"``; it needs
networkx, the optional ``modularity`` extra.
"""

import os
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# `_apply_day` is not called here; it stays importable under this module's
# name because the benchmark's tracer (bench/tracer.py) wraps it here.
from .balances import BalanceSnapshot, Ranking, _apply_day, _replay, rank_balances, snapshot_at
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
    pinned: Iterable[int] = (),
    seed: int = 0,
    max_rounds: int = 100,
) -> dict[int, int]:
    """Deterministic weighted label propagation.

    Each node starts with its own id as label and repeatedly adopts the
    heaviest label among its neighbors, smallest label winning ties.  Pinned
    nodes keep their labels and cast no votes.  Sweep order is ascending
    node id, or a deterministic permutation of it when ``seed`` is nonzero.
    Labels are canonicalized to the smallest member id before returning.
    """
    pinned = set(int(p) for p in pinned)
    adj: dict[int, list[tuple[int, float]]] = {int(v): [] for v in nodes}
    for u, v, w in edges:
        u, v = int(u), int(v)
        if u == v:
            continue
        adj[u].append((v, float(w)))
        adj[v].append((u, float(w)))
    labels = {v: v for v in adj}
    order = sorted(v for v in adj if v not in pinned)
    if seed:
        rng = np.random.Generator(np.random.Philox(key=seed))
        order = [order[i] for i in rng.permutation(len(order))]

    for _ in range(max_rounds):
        changed = False
        for node in order:
            votes: dict[int, float] = {}
            for nb, w in adj[node]:
                if nb in pinned:
                    continue
                lab = labels[nb]
                votes[lab] = votes.get(lab, 0.0) + w
            if not votes:
                continue
            top = max(votes.values())
            best = min(lab for lab, w in votes.items() if w == top)
            if best != labels[node]:
                labels[node] = best
                changed = True
        if not changed:
            break

    # Canonical label = smallest member id of each group.
    groups: dict[int, int] = {}
    for node in sorted(adj):
        lab = labels[node]
        if lab not in groups or node < groups[lab]:
            groups[lab] = min(groups.get(lab, node), node)
    return {node: groups[labels[node]] for node in adj}


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
    import networkx as nx

    if not edges:
        return {int(v): int(v) for v in nodes}
    g = nx.Graph()
    g.add_nodes_from(sorted(int(v) for v in nodes))
    for u, v, w in edges:
        if u == v:
            continue
        if g.has_edge(u, v):
            g[u][v]["weight"] += w
        else:
            g.add_edge(u, v, weight=w)
    comms = nx.algorithms.community.greedy_modularity_communities(g, weight="weight")
    out: dict[int, int] = {}
    for comm in comms:
        root = min(comm)
        for v in comm:
            out[int(v)] = int(root)
    for v in nodes:
        out.setdefault(int(v), int(v))
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

    def entity_of(self, address_id: int) -> int:
        idx = np.flatnonzero(self.address_ids == address_id)
        if len(idx):
            return int(self.entity_ids[idx[0]])
        return V_O_LABEL if self.has_specials else int(address_id)

    def entities(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for a, e in zip(self.address_ids, self.entity_ids):
            out.setdefault(int(e), []).append(int(a))
        if self.has_specials:
            out.setdefault(V_C_LABEL, [])
            out.setdefault(V_O_LABEL, [])
        return out

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


def _focus_pair_weights(
    ledger: Ledger, day: int, focus_ids: np.ndarray
) -> list[tuple[int, int, float]]:
    """Multiplicity weights of cumulative (day 0..day) edges between focus
    addresses, folded to undirected pairs."""
    edges = ledger.expanded_edges()
    hi = int(edges.day_ptr[day + 1])
    src = edges.src[:hi]
    dst = edges.dst[:hi]
    lut = np.zeros(len(ledger.addresses), dtype=bool)
    lut[focus_ids] = True
    mask = lut[src] & lut[dst]
    src, dst = src[mask], dst[mask]
    if not len(src):
        return []
    lo = np.minimum(src, dst)
    hi_ = np.maximum(src, dst)
    keep = lo != hi_
    lo, hi_ = lo[keep], hi_[keep]
    if not len(lo):
        return []
    span = int(hi_.max()) + 1
    packed = lo * span + hi_
    uniq, counts = np.unique(packed, return_counts=True)
    return [
        (int(p // span), int(p % span), float(c)) for p, c in zip(uniq, counts)
    ]


def _detect(
    focus_ids: np.ndarray,
    pair_weights: list[tuple[int, int, float]],
    method: str,
    seed: int,
) -> dict[int, int]:
    # `method` has passed check_method.
    if method == "modularity":
        return _modularity_communities(focus_ids.tolist(), pair_weights)
    return label_propagation(focus_ids.tolist(), pair_weights, seed=seed)


def cluster(
    ledger: Ledger,
    day: int,
    scheme: str,
    focus_n: int = 100,
    method: str = "label_propagation",
    seed: int = 0,
    snapshot: BalanceSnapshot | None = None,
    ranking: Ranking | None = None,
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

    if ranking is None:
        ranking = rank_balances(balances, focus_n, ledger.addresses, day)
    focus_ids = np.sort(ranking.ids)
    pair_weights = _focus_pair_weights(ledger, day, focus_ids)
    labels = _detect(focus_ids, pair_weights, method, seed)
    focus_entities = np.asarray([labels[int(i)] for i in focus_ids], dtype=np.int64)

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
    stride: int = 1,
    rankings: Sequence[Ranking] | None = None,
) -> HHISeries:
    """Daily HHI under one clustering scheme.

    Entity holdings are day-end balances; the share base is the total minted
    supply of the day.  `stride` evaluates every stride-th day (the
    cumulative-graph scan makes per-day evaluation quadratic in history
    length).  Days with no minted supply are skipped.  A2/A3 days run on a
    thread pool with one worker per CPU, which measured faster than a serial
    loop on a 1000-day store; A1 days are one division each and run serially.
    """
    from concurrent.futures import ThreadPoolExecutor

    scheme = scheme.lower()
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    check_method(method)

    eval_days = list(range(0, ledger.n_days, stride))
    if ledger.n_days and (ledger.n_days - 1) not in eval_days:
        eval_days.append(ledger.n_days - 1)

    # Sequential pass: per-day funded sum of squares plus focus membership.
    sumsq: dict[int, float] = {}
    funded_total: dict[int, int] = {}
    top_ids: dict[int, np.ndarray] = {}
    top_bal: dict[int, np.ndarray] = {}
    wanted = set(eval_days)
    for day, balances in _replay(ledger):
        if day not in wanted:
            continue
        funded_vals = balances[balances > 0].astype(np.float64)
        sumsq[day] = float(np.dot(funded_vals, funded_vals))
        funded_total[day] = int(balances[balances > 0].sum())
        if scheme != "a1":
            if rankings is not None:
                ranking = rankings[day].truncated(focus_n)
            else:
                ranking = rank_balances(balances, focus_n, ledger.addresses, day)
            order = np.argsort(ranking.ids)
            top_ids[day] = ranking.ids[order]
            top_bal[day] = ranking.balances[order]

    if scheme != "a1":
        ledger.expanded_edges()  # build the shared cache before threading

    def one_day(day: int) -> tuple[int, float | None]:
        supply = ledger.supply_at(day)
        if supply <= 0:
            return day, None
        c2 = float(supply) * float(supply)
        if scheme == "a1":
            return day, 10000.0 * sumsq[day] / c2
        ids = top_ids[day]
        if not len(ids):
            # No funded focus addresses: A2 degenerates to singletons, A3 to
            # V_o holding everything.
            if scheme == "a2":
                return day, 10000.0 * sumsq[day] / c2
            vo = float(funded_total[day])
            return day, 10000.0 * vo * vo / c2
        pair_weights = _focus_pair_weights(ledger, day, ids)
        labels = _detect(ids, pair_weights, method, seed)
        group_sums: dict[int, int] = {}
        for i, b in zip(ids, top_bal[day]):
            lab = labels[int(i)]
            group_sums[lab] = group_sums.get(lab, 0) + int(b)
        comm_sq = float(sum(s * s for s in group_sums.values()))
        top_sq = float(np.dot(top_bal[day].astype(np.float64),
                              top_bal[day].astype(np.float64)))
        if scheme == "a2":
            total_sq = comm_sq + (sumsq[day] - top_sq)
        else:
            vo = float(funded_total[day] - int(top_bal[day].sum()))
            total_sq = comm_sq + vo * vo
        return day, 10000.0 * total_sq / c2

    if scheme == "a1":
        results = [one_day(d) for d in eval_days]
    else:
        with ThreadPoolExecutor(max_workers=os.cpu_count()) as pool:
            results = list(pool.map(one_day, eval_days))
    values = {d: v for d, v in results if v is not None}
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
