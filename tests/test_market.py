import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ledgerlens import (
    SynthConfig,
    classify,
    cluster,
    compute_rankings,
    compute_snapshots,
    d_hhi,
    generate,
    hhi,
    hhi_by_scheme,
    hhi_series,
    label_propagation,
)
from ledgerlens import Ranking, market
from ledgerlens.ledger import AddressTable, Ledger
from ledgerlens.market import (
    HHISeries,
    _focus_labels,
    _focus_pair_weights,
    _PairIndex,
    _propagate,
)
from conftest import DAY, make_ledger, rec
from oracles import connected_components, expand_ledger


class TestHHI:
    def test_monopoly(self):
        assert hhi([1000], 1000) == 10000.0

    def test_two_equal(self):
        assert hhi([500, 500], 1000) == 5000.0

    def test_ten_equal_competitive(self):
        value = hhi([100] * 10, 1000)
        assert value == pytest.approx(1000.0, abs=1e-9)
        assert classify(value) == "competitive"

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            h = rng.integers(0, 10**6, n)
            total = int(h.sum()) + int(rng.integers(1, 10**6))
            for factor in (3, 1000):
                assert hhi(h * factor, total * factor) == pytest.approx(
                    hhi(h, total), rel=1e-12
                )

    @given(st.lists(st.integers(1, 10**6), min_size=2, max_size=30))
    def test_merge_increases(self, holdings):
        total = sum(holdings) * 2
        base = hhi(holdings, total)
        merged = [holdings[0] + holdings[1]] + holdings[2:]
        assert hhi(merged, total) > base

    def test_errors(self):
        with pytest.raises(ValueError):
            hhi([1], 0)
        with pytest.raises(ValueError):
            hhi([-1], 10)
        with pytest.raises(ValueError):
            hhi([6, 6], 10)


class TestClassify:
    @pytest.mark.parametrize("value,expected", [
        (1000, "competitive"),
        (1499.999, "competitive"),
        (1500, "moderately_concentrated"),
        (2000, "moderately_concentrated"),
        (2499.999, "moderately_concentrated"),
        (2500, "highly_concentrated"),
        (9000, "highly_concentrated"),
    ])
    def test_thresholds(self, value, expected):
        assert classify(value) == expected


def reference_label_propagation(nodes, edges, seed=0, max_rounds=100):
    """The former dict-adjacency kernel: vote sums and sweep order that the
    position kernel must reproduce exactly."""
    adj = {int(v): [] for v in nodes}
    for u, v, w in edges:
        u, v = int(u), int(v)
        if u == v:
            continue
        adj[u].append((v, float(w)))
        adj[v].append((u, float(w)))
    labels = {v: v for v in adj}
    order = sorted(adj)
    if seed:
        rng = np.random.Generator(np.random.Philox(key=seed))
        order = [order[i] for i in rng.permutation(len(order))]
    for _ in range(max_rounds):
        changed = False
        for node in order:
            votes = {}
            for nb, w in adj[node]:
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
    groups = {}
    for node in sorted(adj):
        lab = labels[node]
        if lab not in groups or node < groups[lab]:
            groups[lab] = min(groups.get(lab, node), node)
    return {node: groups[labels[node]] for node in adj}


WEIGHTS = st.one_of(st.integers(1, 5).map(float),
                   st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False))
SEEDS = st.one_of(st.just(0), st.integers(1, 2**32))
# Early stops pin the rounds a sweep runs, not only its fixed point.
MAX_ROUNDS = st.one_of(st.integers(1, 4), st.just(100))


@st.composite
def lp_graphs(draw):
    """Node lists with duplicates and edgeless ids among linked ones; edges
    with self-loops, parallel edges and integer or non-integer weights."""
    ids = draw(st.lists(st.integers(0, 60), min_size=1, max_size=25))
    nodes = ids + draw(st.lists(st.sampled_from(ids), max_size=5))
    linked = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=12))
    end = st.sampled_from(linked)
    edges = draw(st.lists(st.tuples(end, end, WEIGHTS), max_size=60))
    edges += draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []
    return nodes, edges, draw(SEEDS), draw(MAX_ROUNDS)


@st.composite
def lp_batches(draw):
    """Several graphs swept at a width of n nodes, edgeless ones among them,
    as positional edge lists without self-loops, and a step cell budget.
    Under seed 0 a graph may have fewer nodes than the width, as in a block
    of days of mixed focus sizes; a seeded order depends on the width, so
    seeded graphs have all n."""
    n = draw(st.integers(1, 12))
    seed = draw(SEEDS)
    graphs, widths = [], []
    for _ in range(draw(st.integers(1, 6))):
        width = draw(st.integers(1, n)) if seed == 0 else n
        graph = st.just([])
        if width > 1:
            # q = p + a nonzero offset, so p != q.
            edge = st.tuples(st.integers(0, width - 1), st.integers(1, width - 1),
                             WEIGHTS).map(lambda e, k=width: (e[0], (e[0] + e[1]) % k, e[2]))
            graph = st.one_of(graph, st.lists(edge, max_size=30))
        graphs.append(draw(graph))
        widths.append(width)
    # One group a step, a few, or the default budget.
    cells = draw(st.sampled_from([1, 2 * n, market._STEP_CELLS]))
    return n, graphs, widths, seed, draw(MAX_ROUNDS), cells


class TestLabelPropagation:
    def test_two_cliques_match_components_oracle(self):
        nodes = [1, 2, 3, 10, 11, 12]
        pairs = [(1, 2), (2, 3), (1, 3), (10, 11), (11, 12), (10, 12)]
        labels = label_propagation(nodes, [(a, b, 1.0) for a, b in pairs])
        groups = {}
        for node, lab in labels.items():
            groups.setdefault(lab, set()).add(node)
        assert set(map(frozenset, groups.values())) == set(
            connected_components(nodes, pairs)
        )

    def test_unpinned_star_collapses(self):
        nodes = list(range(8))
        edges = [(0, i, 1.0) for i in range(1, 8)]
        labels = label_propagation(nodes, edges)
        assert len(set(labels.values())) == 1

    def test_weight_beats_count(self):
        # 1-2 heavy edge, 2-3 light: 2 joins 1.
        labels = label_propagation([1, 2, 3], [(1, 2, 10.0), (2, 3, 1.0)])
        assert labels[2] == labels[1]

    def test_deterministic(self):
        rng = np.random.default_rng(17)
        nodes = list(range(30))
        edges = [
            (int(a), int(b), float(w))
            for a, b, w in zip(
                rng.integers(0, 30, 60), rng.integers(0, 30, 60),
                rng.integers(1, 5, 60),
            )
            if a != b
        ]
        assert label_propagation(nodes, edges) == label_propagation(nodes, edges)
        assert label_propagation(nodes, edges, seed=9) == label_propagation(
            nodes, edges, seed=9
        )

    @given(lp_graphs())
    # Sweep order decides this one: edgeless id 1 must take part in the
    # seeded permutation.
    @example(([0, 1, 2, 3, 4], [(2, 4, 1.0), (0, 2, 1.0), (2, 4, 1.0), (0, 3, 1.0)], 20, 100))
    # Node 0's 21 parallel votes for label 3 tie the one vote of 7.09 for
    # label 1 only when they are added in edge order; an unstable sort of
    # a step's votes adds them in another order and breaks the tie.
    @example(([0, 1, 2, 3, 4],
              [(0, 3, w) for w in (1.1, 0.03, 0.03, 0.03, 0.1, 0.3, 0.1, 0.7, 0.03, 0.7,
                                   0.7, 0.01, 0.7, 0.03, 0.2, 0.1, 0.7, 0.1, 0.03)]
              + [(0, 1, 7.09), (0, 3, 0.7), (0, 3, 0.7), (1, 2, 100.0), (3, 4, 100.0)],
              0, 100))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, graph):
        nodes, edges, seed, max_rounds = graph
        assert (label_propagation(nodes, edges, seed=seed, max_rounds=max_rounds)
                == reference_label_propagation(nodes, edges, seed=seed,
                                               max_rounds=max_rounds))

    @given(lp_batches())
    # A path needs more rounds than a single edge; one graph is edgeless.
    @example((8, [[(i, i + 1, 1.0) for i in range(7)], [(3, 4, 2.5)], []], [8, 8, 8], 0,
              100, 1 << 16))
    @example((8, [[(i, i + 1, 1.0) for i in range(7)], [(3, 4, 2.5)], []], [8, 8, 8], 7,
              100, 1 << 16))
    # The same, one group a step and narrower graphs padded to the width.
    @example((8, [[(i, i + 1, 0.5) for i in range(7)], [(0, 2, 2.5), (1, 2, 1.25)], []],
              [8, 3, 1], 0, 100, 1))
    @settings(max_examples=300, deadline=None)
    def test_batch_matches_each_graph_alone(self, batch):
        n, graphs, widths, seed, max_rounds, cells = batch
        edges = [e for g in graphs for e in g]
        graph = np.repeat(np.arange(len(graphs)), [len(g) for g in graphs])
        p, q = (np.asarray([e[i] for e in edges], dtype=np.int64) for i in (0, 1))
        w = np.asarray([e[2] for e in edges], dtype=np.float64)
        with mock.patch.object(market, "_STEP_CELLS", cells):
            labels = _propagate(n, graph, p, q, w, len(graphs), seed, max_rounds)
        for row, g, width in zip(labels.tolist(), graphs, widths):
            alone = reference_label_propagation(range(width), g, seed=seed,
                                                max_rounds=max_rounds)
            assert row == [alone[v] for v in range(width)] + list(range(width, n))

    @pytest.mark.parametrize("nodes,edge", [
        ([1, 2], (1, 3, 1.0)),
        ([1, 5], (3, 5, 1.0)),
        ([1, 5], (0, 1, 1.0)),
        ([], (0, 0, 1.0)),
    ])
    def test_endpoint_outside_nodes(self, nodes, edge):
        with pytest.raises(ValueError, match="not among the nodes"):
            label_propagation(nodes, [edge])

    @pytest.mark.parametrize("weight", [0.0, -1.0, float("nan"), float("inf")])
    def test_weight_not_finite_positive(self, weight):
        # A weight is a tie strength; NaN would also defeat the search for
        # the heaviest label.
        with pytest.raises(ValueError, match="finite and > 0"):
            label_propagation([1, 2, 3], [(1, 2, 1.0), (2, 3, weight)])


def firms(partition, ledger):
    """Member names of each firm of an address id -> firm map."""
    out = {}
    for a, firm in partition.items():
        out.setdefault(firm, set()).add(ledger.addresses.names[a])
    return out


# The A3 pseudo-firms, keyed apart from every address id.
V_C, V_O = "V_c", "V_o"


def firm_holdings(partition, balances, scheme):
    """Oracle of the firms' day-end holdings: member balances summed per
    firm; under A3 the coinbase firm V_c holds 0 and V_o holds every funded
    balance outside the partition."""
    out = {}
    for a, firm in partition.items():
        out[firm] = out.get(firm, 0) + int(balances[a])
    if scheme == "a3":
        out[V_O] = int(balances[balances > 0].sum()) - sum(out.values())
        out[V_C] = 0
    return out


def day_ranking(ledger, day, n=100):
    return list(compute_rankings(ledger, n))[day]


def equal_wealth_ledger(n=10, days=3):
    lines = [rec("c0", 0, [], [[f"h{i:02d}", 100] for i in range(n)])]
    for d in range(1, days):
        # One holder hands its whole stake to a fresh address: wealth stays
        # equal, membership churns.
        lines.append(rec(
            f"p{d}", d * DAY,
            [[f"h{(d - 1) % n:02d}" if d == 1 else f"n{d - 1:02d}", 100]],
            [[f"n{d:02d}", 100]],
        ))
    return make_ledger(lines)


def two_clique_ledger(loners=0):
    """Six funded addresses; a,b,c transact among themselves, d,e,f too.
    `loners` adds funded focus members with no transactions at all."""
    outs = [[x, 100] for x in "abcdef"]
    outs += [[f"q{i}", 90] for i in range(loners)]
    lines = [rec("c0", 0, [], outs)]
    t = 1
    for day in (1, 2):
        for u, v in (("a", "b"), ("b", "c"), ("c", "a"),
                     ("d", "e"), ("e", "f"), ("f", "d")):
            lines.append(rec(f"t{t}", day * DAY + t, [[u, 10]], [[v, 10]]))
            t += 1
    return make_ledger(lines)


def star_ledger():
    """Focus addresses only ever receive coinbase; no peer transactions."""
    lines = [rec("c0", 0, [], [[f"m{i:02d}", 50] for i in range(6)])]
    for d in (1, 2):
        lines.append(rec(f"c{d}", d * DAY, [], [[f"m{d % 6:02d}", 7]]))
    return make_ledger(lines)


def reference_pair_weights(ledger, day, focus_ids):
    """The former day-0 rescan: mask every edge of days 0..day to the focus
    set, fold to undirected pairs, drop self-pairs and count with np.unique."""
    edges = expand_ledger(ledger)
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


ACTIVE = [f"a{i}" for i in range(6)]


@st.composite
def pair_ledgers(draw):
    """A few days of payments among six addresses, self-loops included; two
    idle addresses only ever receive the day-0 coinbase."""
    outs = [[x, 1000] for x in ACTIVE + ["idle0", "idle1"]]
    lines = [rec("c0", 0, [], outs)]
    n_days = draw(st.integers(1, 4))
    side = st.lists(st.sampled_from(ACTIVE), min_size=1, max_size=3, unique=True)
    for t in range(draw(st.integers(0, 12))):
        day = draw(st.integers(0, n_days - 1))
        ins, outs = draw(side), draw(side)
        lines.append(rec(f"t{t}", day * DAY + t + 1,
                         [[a, 10] for a in ins], [[b, 1] for b in outs]))
    return make_ledger(lines)


class TestFocusPairWeights:
    @given(pair_ledgers(), st.data())
    def test_index_matches_rescan(self, ledger, data):
        ids = st.sampled_from(range(len(ledger.addresses)))
        union = data.draw(st.lists(ids, unique=True), "union")
        subset = (data.draw(st.lists(st.sampled_from(union), unique=True), "subset")
                  if union else [])
        pairs = _PairIndex(ledger, np.asarray(union, dtype=np.int64))
        for day in range(ledger.n_days):
            for focus in (union, subset):
                focus_ids = np.sort(np.asarray(focus, dtype=np.int64))
                assert (_focus_pair_weights(ledger, day, focus_ids, pairs)
                        == reference_pair_weights(ledger, day, focus_ids))
        # Built a chunk of one transaction, or of a few, at a time: the
        # same index as the one chunk above.
        for budget in (1, 7):
            with mock.patch.object(market, "_CHUNK_ENTRIES", budget):
                chunked = _PairIndex(ledger, np.asarray(union, dtype=np.int64))
            for name in ("ids", "keys", "events", "day_ptr", "start", "hi"):
                assert np.array_equal(getattr(chunked, name), getattr(pairs, name))

    @given(pair_ledgers(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_block_lookups_match_rescan(self, ledger, data):
        # Each day its own focus out of the union, looked up in chunks cut
        # inside the day range: one day, a few, or all.  A second pass
        # starts the running counts again from day 0.
        ids = st.sampled_from(range(len(ledger.addresses)))
        union = data.draw(st.lists(ids, unique=True), "union")
        focus = [np.sort(np.asarray(data.draw(st.lists(st.sampled_from(union), unique=True)
                                              if union else st.just([])), dtype=np.int64))
                 for _ in range(ledger.n_days)]
        pairs = _PairIndex(ledger, np.asarray(union, dtype=np.int64))
        budget = data.draw(st.sampled_from([1, 5, 20, 1 << 16]), "budget")
        with mock.patch.object(market, "_CHUNK_ENTRIES", budget):
            for _ in range(2):
                found = list(pairs.lookups(range(ledger.n_days), focus))
                assert len(found) == ledger.n_days
                for day, (focus_ids, (p, q, w)) in enumerate(zip(focus, found)):
                    assert (list(zip(focus_ids[p].tolist(), focus_ids[q].tolist(), w.tolist()))
                            == reference_pair_weights(ledger, day, focus_ids))

    def test_chunks_expand_each_transaction_once(self, monkeypatch):
        ledger = two_clique_ledger()
        spans = []
        expand = ledger._expand

        def recording(start, stop, focus):
            spans.append((start, stop))
            return expand(start, stop, focus)

        monkeypatch.setattr(ledger, "_expand", recording)
        ids = np.arange(1, len(ledger.addresses))
        for budget, chunks in ((1 << 16, 1), (1, len(ledger))):
            spans.clear()
            monkeypatch.setattr(market, "_CHUNK_ENTRIES", budget)
            _PairIndex(ledger, ids)
            assert len(spans) == chunks
            assert [a for a, _ in spans] == [0] + [b for _, b in spans[:-1]]
            assert spans[-1][1] == len(ledger)

    def test_build_memory_is_one_chunk(self, monkeypatch):
        # 50 000 transactions of two inputs and two outputs, none touching
        # the three focus addresses: the build's traced peak stays far
        # below the ledger's own entry arrays, which a whole-ledger
        # expansion would exceed.
        rng = np.random.default_rng(5)
        n, names = 50_000, [f"x{i}" for i in range(1000)]
        ptr = np.arange(0, 2 * n + 1, 2, dtype=np.int64)
        in_addr, out_addr = rng.integers(4, len(names) + 1, (2, 2 * n))
        ledger = Ledger(AddressTable(names), ["t"] * n, np.arange(n, dtype=np.int64),
                        ptr, in_addr, np.ones(2 * n, dtype=np.int64),
                        ptr.copy(), out_addr, np.ones(2 * n, dtype=np.int64), None)
        entry_bytes = sum(a.nbytes for a in (ledger.in_addr, ledger.in_val,
                                             ledger.out_addr, ledger.out_val))
        monkeypatch.setattr(market, "_CHUNK_ENTRIES", 4096)
        _PairIndex(ledger, np.array([1, 2, 3]))  # imports what the build needs
        tracemalloc.start()
        try:
            pairs = _PairIndex(ledger, np.array([1, 2, 3]))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pairs.events) == 0
        assert peak < entry_bytes / 4

    def test_self_loops_and_idle_ids(self):
        ledger = make_ledger([
            rec("c0", 0, [], [["a", 100], ["b", 100], ["idle", 100]]),
            rec("t1", DAY, [["a", 10]], [["a", 5], ["b", 5]]),
            rec("t2", 2 * DAY, [["b", 10]], [["b", 5]]),
        ])
        ids = np.asarray(sorted(ledger.addresses.id_of(x) for x in ("a", "b", "idle")))
        pairs = _PairIndex(ledger, ids)
        a, b = ledger.addresses.id_of("a"), ledger.addresses.id_of("b")
        assert _focus_pair_weights(ledger, 0, ids, pairs) == []
        assert _focus_pair_weights(ledger, 2, ids, pairs) == [(a, b, 1.0)]
        assert _focus_pair_weights(ledger, 2, ids[:1], pairs) == []
        assert _focus_pair_weights(ledger, 2, ids[:0], pairs) == []


class TestCluster:
    def test_a1_identity(self):
        ledger = make_ledger([rec("c0", 0, [], [["a", 5], ["b", 3], ["c", 1]])])
        partition = cluster(ledger, "a1", day_ranking(ledger, 0))
        assert len(partition) == 3
        assert all(a == firm for a, firm in partition.items())

    def test_a2_two_cliques(self):
        ledger = two_clique_ledger()
        partition = cluster(ledger, "a2", day_ranking(ledger, 2))
        members = firms(partition, ledger).values()
        assert set(map(frozenset, members)) == {frozenset("abc"), frozenset("def")}

    def test_a2_two_cliques_plus_singletons(self):
        ledger = two_clique_ledger(loners=2)
        partition = cluster(ledger, "a2", day_ranking(ledger, 2))
        members = firms(partition, ledger).values()
        assert sorted(len(v) for v in members) == [1, 1, 3, 3]

    def test_a2_isolated_focus_singletons(self):
        ledger = star_ledger()
        partition = cluster(ledger, "a2", day_ranking(ledger, 2))
        assert all(a == firm for a, firm in partition.items())

    def test_a3_star_keeps_focus_separate(self):
        ledger = star_ledger()
        ranking = day_ranking(ledger, 2)
        partition = cluster(ledger, "a3", ranking, focus_n=4)
        # Only the focus set has firms; the other funded addresses are V_o.
        assert set(partition) == set(ranking.truncated(4).ids.tolist())
        # No two focus addresses share a firm despite all touching coinbase.
        assert len(set(partition.values())) == len(partition)

    def test_a3_holdings_include_specials(self):
        ledger = two_clique_ledger()
        snap = list(compute_snapshots(ledger))[-1]
        partition = cluster(ledger, "a3", day_ranking(ledger, 2), focus_n=4)
        assert len(partition) == 4
        holdings = firm_holdings(partition, snap.balances, "a3")
        assert holdings[V_C] == 0
        focus_total = int(snap.balances[list(partition)].sum())
        funded_total = int(snap.balances[snap.balances > 0].sum())
        assert holdings[V_O] == funded_total - focus_total

    def test_deterministic(self):
        ledger = two_clique_ledger()
        ranking = day_ranking(ledger, 2)
        assert cluster(ledger, "a2", ranking) == cluster(ledger, "a2", ranking)

    def test_modularity_method_separates_cliques(self):
        ledger = two_clique_ledger()
        partition = cluster(ledger, "a2", day_ranking(ledger, 2), method="modularity")
        members = firms(partition, ledger).values()
        assert sorted(len(v) for v in members) == [3, 3]

    def test_unknown_scheme(self):
        ledger = star_ledger()
        with pytest.raises(ValueError):
            cluster(ledger, "a9", day_ranking(ledger, 0))

    @pytest.mark.parametrize("scheme", ["a1", "a2", "a3"])
    def test_needs_ranking_focus_n_deep(self, scheme):
        ledger = two_clique_ledger()
        with pytest.raises(ValueError, match="focus_n=6 deep"):
            cluster(ledger, scheme, day_ranking(ledger, 2, n=5), focus_n=6)

    @pytest.mark.parametrize("focus_n", [0, -5])
    @pytest.mark.parametrize("scheme", ["a1", "a2", "a3"])
    def test_focus_n_below_one(self, scheme, focus_n):
        ledger = two_clique_ledger()
        with pytest.raises(ValueError, match="focus_n must be >= 1"):
            cluster(ledger, scheme, day_ranking(ledger, 2), focus_n=focus_n)


class TestHHISeries:
    def test_a1_equal_wealth_constant(self):
        n = 10
        ledger = equal_wealth_ledger(n=n, days=4)
        series = hhi_series(ledger, "a1", compute_rankings(ledger, 100))
        assert len(series.values) == 4
        for v in series.values.values():
            assert v == pytest.approx(10000.0 / n, abs=1e-9)

    def test_day0_single_coinbase_monopoly(self):
        ledger = make_ledger([rec("c0", 0, [], [["a", 77]])])
        series = hhi_series(ledger, "a1", compute_rankings(ledger, 100))
        assert series.values[0] == pytest.approx(10000.0, abs=1e-12)

    def test_a2_at_least_a1_pointwise(self):
        for seed in (1, 2, 3):
            cfg = SynthConfig(seed=seed, days=8, txs_per_day=40, pool=30,
                              regime="preferential", alpha=1.0,
                              initial_supply=10**9, reward=10**6)
            ledger = generate(cfg)
            rankings = list(compute_rankings(ledger, 100))
            a1 = hhi_series(ledger, "a1", rankings)
            a2 = hhi_series(ledger, "a2", rankings)
            for d in a1.values:
                assert a2.values[d] >= a1.values[d] - 1e-9

    def test_classes_emitted(self):
        ledger = make_ledger([rec("c0", 0, [], [["a", 77]])])
        series = hhi_series(ledger, "a1", compute_rankings(ledger, 100))
        assert {d: classify(v) for d, v in series.values.items()} == {0: "highly_concentrated"}

    @pytest.mark.parametrize("scheme", ["a2", "a3"])
    def test_series_matches_cluster_holdings(self, scheme):
        # The series and `cluster` share one partition path: every day's
        # value equals the HHI of the partition's firm holdings.
        for seed in (1, 2):
            cfg = SynthConfig(seed=seed, days=10, txs_per_day=40, pool=30,
                              regime="preferential", alpha=1.0,
                              initial_supply=10**9, reward=10**6)
            ledger = generate(cfg)
            focus_n = 8
            rankings = list(compute_rankings(ledger, focus_n))
            series = hhi_series(ledger, scheme, rankings, focus_n=focus_n)
            snaps = list(compute_snapshots(ledger))
            funded_days = [d for d in range(ledger.n_days) if ledger.supply_at(d) > 0]
            assert sorted(series.values) == funded_days
            for day in funded_days:
                partition = cluster(ledger, scheme, rankings[day], focus_n=focus_n)
                expected = hhi(firm_holdings(partition, snaps[day].balances, scheme).values(),
                               ledger.supply_at(day))
                assert series.values[day] == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("block_slots", [None, 2000])
    @pytest.mark.parametrize("seed", [0, 9])
    # 300 funded addresses every day, or 60 growing to 82: focus sets of
    # 100, or of a size that changes every few days.
    @pytest.mark.parametrize("pool,growth", [(300, 0.0), (60, 5.0)])
    def test_swept_labels_match_cluster(self, pool, growth, seed, block_slots, monkeypatch):
        # The series sweeps blocks of days together; `cluster` sweeps one
        # day alone.  Both give every day the same A2 and A3 firms, also
        # when a small slot budget cuts the days into many blocks.
        if block_slots:
            monkeypatch.setattr(market, "_BLOCK_SLOTS", block_slots)
        cfg = SynthConfig(seed=5, days=40, txs_per_day=200, pool=pool, growth=growth,
                          regime="preferential", alpha=1.0,
                          initial_supply=10**9, reward=10**6)
        ledger = generate(cfg)
        rankings = list(compute_rankings(ledger, 100))
        focus = [np.sort(r.truncated(100).ids) for r in rankings]
        pairs = _PairIndex(ledger, np.concatenate(focus))
        snaps = list(compute_snapshots(ledger))
        merged = 0
        swept_days = _focus_labels(ledger, range(ledger.n_days), focus, pairs,
                                   "label_propagation", seed)
        for day, labels in enumerate(swept_days):
            groups = {}
            for a, lab in zip(focus[day].tolist(), labels):
                groups.setdefault(lab, set()).add(ledger.addresses.names[a])
            swept = set(map(frozenset, groups.values()))
            merged += len(focus[day]) - len(swept)
            funded = {ledger.addresses.names[a]
                      for a in np.flatnonzero(snaps[day].balances > 0).tolist()}
            rest = {frozenset([a]) for a in funded - set().union(*swept)}
            for scheme, expected in (("a2", swept | rest), ("a3", swept)):
                partition = cluster(ledger, scheme, rankings[day], seed=seed)
                assert set(map(frozenset, firms(partition, ledger).values())) == expected
        assert day == ledger.n_days - 1 and merged > 0

    def test_unseeded_blocks_span_focus_sizes(self, monkeypatch):
        # Fewer funded addresses than the focus size on every day, and a
        # count that grows along the chain.  The ascending sweep takes all
        # days in one block padded to the widest; a seeded sweep needs one
        # block per run of equal sizes.  Both give every day the labels of
        # sweeping it alone.
        cfg = SynthConfig(seed=5, days=40, txs_per_day=200, pool=60, growth=5.0,
                          regime="preferential", alpha=1.0,
                          initial_supply=10**9, reward=10**6)
        ledger = generate(cfg)
        focus = [np.sort(r.ids) for r in compute_rankings(ledger, 1000)]
        sizes = [len(ids) for ids in focus]
        assert max(sizes) < 1000 and len(set(sizes)) > 10
        pairs = _PairIndex(ledger, np.concatenate(focus))
        widths = []
        propagate = market._propagate
        monkeypatch.setattr(market, "_propagate",
                            lambda n, *args: widths.append(n) or propagate(n, *args))
        runs = 1 + sum(a != b for a, b in zip(sizes, sizes[1:]))
        for seed, blocks in ((0, [max(sizes)]), (9, None)):
            widths.clear()
            swept = list(_focus_labels(ledger, range(ledger.n_days), focus, pairs,
                                       "label_propagation", seed))
            if blocks:
                assert widths == blocks
            else:
                assert len(widths) == runs
            for day, labels in enumerate(swept):
                (alone,) = _focus_labels(ledger, [day], [focus[day]], pairs,
                                         "label_propagation", seed)
                assert labels == alone
        assert any(len(set(labels)) < len(labels) for labels in swept)

    @pytest.mark.parametrize("method", ["label_propagation", "modularity"])
    @pytest.mark.parametrize("scheme", ["a1", "a2", "a3"])
    def test_deeper_rankings_same_series(self, scheme, method):
        # Only each ranking's top focus_n and its funded totals are read,
        # and the funded totals do not depend on the ranking depth.
        cfg = SynthConfig(seed=4, days=10, txs_per_day=40, pool=30,
                          regime="preferential", alpha=1.0,
                          initial_supply=10**9, reward=10**6)
        ledger = generate(cfg)
        focus_n = 8
        shallow = hhi_series(ledger, scheme, compute_rankings(ledger, focus_n),
                             focus_n=focus_n, method=method)
        deep = hhi_series(ledger, scheme, compute_rankings(ledger, 40),
                          focus_n=focus_n, method=method)
        assert len(shallow.values) == ledger.n_days
        assert deep.values == shallow.values

    def test_needs_one_ranking_per_day(self):
        ledger = equal_wealth_ledger(n=4, days=4)
        rankings = list(compute_rankings(ledger, 100))
        for wrong in (rankings[:-1], rankings + rankings[-1:]):
            with pytest.raises(ValueError, match="one ranking per day"):
                hhi_series(ledger, "a1", wrong)

    @pytest.mark.parametrize("scheme", ["a1", "a2", "a3"])
    def test_needs_rankings_focus_n_deep(self, scheme):
        ledger = equal_wealth_ledger(n=4, days=4)
        with pytest.raises(ValueError, match="focus_n=6 deep"):
            hhi_series(ledger, scheme, compute_rankings(ledger, 5), focus_n=6)

    @pytest.mark.parametrize("focus_n", [0, -5])
    @pytest.mark.parametrize("scheme", ["a1", "a2", "a3"])
    def test_focus_n_below_one(self, scheme, focus_n):
        # Unchecked, focus_n=0 gives an empty focus and -5 slices each
        # ranking to all but its last five members: wrong firms, no error.
        ledger = equal_wealth_ledger(n=4, days=4)
        with pytest.raises(ValueError, match="focus_n must be >= 1"):
            hhi_series(ledger, scheme, compute_rankings(ledger, 100), focus_n=focus_n)


def late_tied_ledger():
    """No address is funded and nothing is minted before day 2 (the epoch
    is day 0); from day 2 twelve addresses hold equal balances, so a focus
    of 5 cuts through a tie, and pairs of them trade every day after."""
    lines = [rec("c0", 2 * DAY, [], [[f"h{i:02d}", 1000] for i in range(12)])]
    for day in range(3, 9):
        for k in range(3):
            u, v = (day + 2 * k) % 12, (day + 2 * k + 1) % 12
            lines.append(rec(f"t{day}.{k}", day * DAY + k,
                             [[f"h{u:02d}", 10]], [[f"h{v:02d}", 10]]))
    return make_ledger(lines, epoch=0)


def synth_ledger():
    return generate(SynthConfig(seed=6, days=12, txs_per_day=40, pool=30,
                                regime="preferential", alpha=1.0,
                                initial_supply=10**9, reward=10**6))


class TestHHIByScheme:
    """`hhi_by_scheme` scores every scheme from one read of the rankings
    and one set of A2/A3 labels; each series is the one `hhi_series`
    gives for its scheme alone."""

    @pytest.mark.parametrize("method,seed", [("label_propagation", 0),
                                             ("label_propagation", 9),
                                             ("modularity", 0)])
    # 5 cuts through late_tied_ledger's tie; 50 is above every funded count.
    @pytest.mark.parametrize("focus_n", [5, 50])
    @pytest.mark.parametrize("make", [lambda: make_ledger([]), late_tied_ledger,
                                      synth_ledger], ids=["empty", "late_tied", "synth"])
    def test_every_order_of_schemes_matches_hhi_series(self, make, focus_n, method, seed):
        ledger = make()
        rankings = list(compute_rankings(ledger, focus_n))
        alone = {s: hhi_series(ledger, s, rankings, focus_n, method, seed)
                 for s in ("a1", "a2", "a3")}
        for size in (1, 2, 3):
            for schemes in itertools.permutations(("a1", "a2", "a3"), size):
                batch = hhi_by_scheme(ledger, schemes, iter(rankings), focus_n, method, seed)
                assert list(batch) == list(schemes)
                for scheme, series in batch.items():
                    assert series.scheme == scheme
                    assert repr(series.values) == repr(alone[scheme].values)
        funded = [d for d in range(ledger.n_days) if ledger.supply_at(d) > 0]
        assert list(alone["a3"].values) == funded

    def test_late_tied_ledger_cases(self):
        # Days 0 and 1 have neither a funded address nor minted supply, and
        # day 2's twelve equal balances fill a focus of 5 from a tie.
        ledger = late_tied_ledger()
        rankings = list(compute_rankings(ledger, 5))
        assert [len(r) for r in rankings[:3]] == [0, 0, 5]
        assert [ledger.supply_at(d) for d in range(3)] == [0, 0, 12_000]
        series = hhi_by_scheme(ledger, ("a1", "a2", "a3"), rankings, focus_n=5)
        assert all(sorted(s.values) == list(range(2, ledger.n_days)) for s in series.values())
        # Equal balances with no trades yet: twelve singleton firms, or five
        # and the V_o pseudo-firm of seven.
        assert series["a1"].values[2] == series["a2"].values[2] == pytest.approx(10000 / 12)
        assert series["a3"].values[2] == pytest.approx(10000 * (5 + 49) / 144)

    def test_repeats_dropped_and_case_folded(self):
        ledger = synth_ledger()
        rankings = list(compute_rankings(ledger, 100))
        batch = hhi_by_scheme(ledger, ["A3", "a1", "a3", "A1"], rankings)
        assert list(batch) == ["a3", "a1"]
        assert batch["a3"].values == hhi_series(ledger, "a3", rankings).values

    def test_empty_focus_on_a_minted_day_scores_zero(self):
        # A day whose ranking holds no address scores 0.0 under every
        # scheme, the value of a supply that no firm holds.
        ledger = make_ledger([rec("c0", 0, [], [["a", 50]])])
        empty = Ranking(0, 100, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                        ledger.addresses)
        batch = hhi_by_scheme(ledger, ("a1", "a2", "a3"), [empty])
        assert {s: series.values for s, series in batch.items()} == {
            "a1": {0: 0.0}, "a2": {0: 0.0}, "a3": {0: 0.0}}

    @pytest.mark.parametrize("schemes", [("a1",), ("a2", "a3"), ("a1", "a2", "a3")])
    def test_refusals(self, schemes):
        ledger = equal_wealth_ledger(n=4, days=4)
        rankings = list(compute_rankings(ledger, 100))
        with pytest.raises(ValueError, match="unknown scheme 'a4'"):
            hhi_by_scheme(ledger, (*schemes, "A4"), rankings)
        for focus_n in (0, -5):
            with pytest.raises(ValueError, match="focus_n must be >= 1"):
                hhi_by_scheme(ledger, schemes, rankings, focus_n=focus_n)
        with pytest.raises(ValueError, match="focus_n=6 deep"):
            hhi_by_scheme(ledger, schemes, compute_rankings(ledger, 5), focus_n=6)
        for wrong in (rankings[:-1], rankings + rankings[-1:]):
            with pytest.raises(ValueError, match=r"hhi_series needs one ranking per day \(4\)"):
                hhi_by_scheme(ledger, schemes, wrong)


class TestDHHI:
    def test_hand_series(self):
        series = HHISeries("a3", {0: 2000.0, 1: 3000.0, 2: 4000.0})
        assert d_hhi(series) == {0: 1.0, 1: 0.5, 2: 0.0}

    def test_extremes_map_to_unit_interval_ends(self):
        series = HHISeries("a3", {0: 1234.0, 1: 801.5, 2: 5222.0, 3: 4000.0})
        out = d_hhi(series)
        assert out[2] == 0.0
        assert out[1] == 1.0
        assert all(0.0 <= v <= 1.0 for v in out.values())

    def test_constant_series_all_ones(self):
        series = HHISeries("a3", {0: 500.0, 1: 500.0})
        assert d_hhi(series) == {0: 1.0, 1: 1.0}

    def test_empty_series_empty_map(self):
        assert d_hhi(HHISeries("a3", {})) == {}
