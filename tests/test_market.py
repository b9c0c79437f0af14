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
    hhi_series,
    label_propagation,
)
from ledgerlens import market
from ledgerlens.market import (
    V_C_LABEL,
    V_O_LABEL,
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
    """Several graphs on nodes 0..n-1, edgeless ones among them, as
    positional edge lists without self-loops."""
    n = draw(st.integers(1, 12))
    if n > 1:
        # q = p + a nonzero offset, so p != q.
        edge = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1), WEIGHTS).map(
            lambda e: (e[0], (e[0] + e[1]) % n, e[2]))
        graph = st.one_of(st.just([]), st.lists(edge, max_size=30))
    else:
        graph = st.just([])
    graphs = draw(st.lists(graph, min_size=1, max_size=6))
    return n, graphs, draw(SEEDS), draw(MAX_ROUNDS)


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
    @example((8, [[(i, i + 1, 1.0) for i in range(7)], [(3, 4, 2.5)], []], 0, 100))
    @example((8, [[(i, i + 1, 1.0) for i in range(7)], [(3, 4, 2.5)], []], 7, 100))
    @settings(max_examples=300, deadline=None)
    def test_batch_matches_each_graph_alone(self, batch):
        n, graphs, seed, max_rounds = batch
        edges = [e for g in graphs for e in g]
        graph = np.repeat(np.arange(len(graphs)), [len(g) for g in graphs])
        p, q = (np.asarray([e[i] for e in edges], dtype=np.int64) for i in (0, 1))
        w = np.asarray([e[2] for e in edges], dtype=np.float64)
        labels = _propagate(n, graph, p, q, w, len(graphs), seed, max_rounds)
        for row, g in zip(labels.tolist(), graphs):
            alone = reference_label_propagation(range(n), g, seed=seed, max_rounds=max_rounds)
            assert row == [alone[v] for v in range(n)]

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


def firms(clustering, ledger):
    """Member names of each firm, from the public address -> firm map."""
    out = {}
    for name, firm in clustering.as_dict(ledger.addresses).items():
        out.setdefault(firm, set()).add(name)
    return out


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
        clustering = cluster(ledger, 0, "a1")
        assert len(clustering.address_ids) == 3
        assert (clustering.address_ids == clustering.entity_ids).all()

    def test_a2_two_cliques(self):
        ledger = two_clique_ledger()
        clustering = cluster(ledger, 2, "a2")
        members = firms(clustering, ledger).values()
        assert set(map(frozenset, members)) == {frozenset("abc"), frozenset("def")}

    def test_a2_two_cliques_plus_singletons(self):
        ledger = two_clique_ledger(loners=2)
        clustering = cluster(ledger, 2, "a2")
        members = firms(clustering, ledger).values()
        assert sorted(len(v) for v in members) == [1, 1, 3, 3]

    def test_a2_isolated_focus_singletons(self):
        ledger = star_ledger()
        clustering = cluster(ledger, 2, "a2")
        assert (clustering.address_ids == clustering.entity_ids).all()

    def test_a3_star_keeps_focus_separate(self):
        ledger = star_ledger()
        clustering = cluster(ledger, 2, "a3")
        assert clustering.has_specials
        # No two focus addresses share a firm despite all touching coinbase.
        assert len(set(clustering.entity_ids.tolist())) == len(clustering.entity_ids)

    def test_a3_holdings_include_specials(self):
        ledger = two_clique_ledger()
        snap = list(compute_snapshots(ledger))[-1]
        clustering = cluster(ledger, 2, "a3", focus_n=4, snapshot=snap)
        holdings = clustering.holdings(snap)
        assert holdings[V_C_LABEL] == 0
        focus_total = int(snap.balances[clustering.address_ids].sum())
        funded_total = int(snap.balances[snap.balances > 0].sum())
        assert holdings[V_O_LABEL] == funded_total - focus_total

    def test_deterministic(self):
        ledger = two_clique_ledger()
        c1 = cluster(ledger, 2, "a2")
        c2 = cluster(ledger, 2, "a2")
        assert (c1.address_ids == c2.address_ids).all()
        assert (c1.entity_ids == c2.entity_ids).all()

    def test_modularity_method_separates_cliques(self):
        ledger = two_clique_ledger()
        clustering = cluster(ledger, 2, "a2", method="modularity")
        members = firms(clustering, ledger).values()
        assert sorted(len(v) for v in members) == [3, 3]

    def test_unknown_scheme(self):
        ledger = star_ledger()
        with pytest.raises(ValueError):
            cluster(ledger, 0, "a9")


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
            rankings = compute_rankings(ledger, 100)
            a1 = hhi_series(ledger, "a1", rankings)
            a2 = hhi_series(ledger, "a2", rankings)
            for d in a1.values:
                assert a2.values[d] >= a1.values[d] - 1e-9

    def test_classes_emitted(self):
        ledger = make_ledger([rec("c0", 0, [], [["a", 77]])])
        series = hhi_series(ledger, "a1", compute_rankings(ledger, 100))
        assert series.classes() == {0: "highly_concentrated"}

    @pytest.mark.parametrize("scheme", ["a2", "a3"])
    def test_series_matches_cluster_holdings(self, scheme):
        # The series and `cluster` share one partition path: every day's
        # value equals the HHI of the clustering's firm holdings.
        for seed in (1, 2):
            cfg = SynthConfig(seed=seed, days=10, txs_per_day=40, pool=30,
                              regime="preferential", alpha=1.0,
                              initial_supply=10**9, reward=10**6)
            ledger = generate(cfg)
            focus_n = 8
            series = hhi_series(ledger, scheme, compute_rankings(ledger, focus_n),
                                focus_n=focus_n)
            snaps = list(compute_snapshots(ledger))
            funded_days = [d for d in range(ledger.n_days) if ledger.supply_at(d) > 0]
            assert sorted(series.values) == funded_days
            for day in funded_days:
                clustering = cluster(ledger, day, scheme, focus_n=focus_n,
                                     snapshot=snaps[day])
                expected = hhi(clustering.holdings(snaps[day]).values(),
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
        focus = [np.sort(r.truncated(100).ids) for r in compute_rankings(ledger, 100)]
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
                clustering = cluster(ledger, day, scheme, seed=seed, snapshot=snaps[day])
                assert set(map(frozenset, firms(clustering, ledger).values())) == expected
        assert day == ledger.n_days - 1 and merged > 0

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
        rankings = compute_rankings(ledger, 100)
        for wrong in (rankings[:-1], rankings + rankings[-1:]):
            with pytest.raises(ValueError, match="one ranking per day"):
                hhi_series(ledger, "a1", wrong)

    @pytest.mark.parametrize("scheme", ["a1", "a2", "a3"])
    def test_needs_rankings_focus_n_deep(self, scheme):
        ledger = equal_wealth_ledger(n=4, days=4)
        with pytest.raises(ValueError, match="focus_n=6 deep"):
            hhi_series(ledger, scheme, compute_rankings(ledger, 5), focus_n=6)


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
