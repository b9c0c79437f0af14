import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ledgerlens import (
    SynthConfig,
    classify,
    cluster,
    compute_snapshots,
    d_hhi,
    generate,
    hhi,
    hhi_series,
    label_propagation,
)
from ledgerlens.market import (
    V_C_LABEL,
    V_O_LABEL,
    HHISeries,
    _focus_pair_weights,
    _PairIndex,
)
from conftest import DAY, make_ledger, rec
from oracles import connected_components


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


@st.composite
def lp_graphs(draw):
    """Node lists with duplicates and edgeless ids among linked ones; edges
    with self-loops, parallel edges and integer or non-integer weights."""
    ids = draw(st.lists(st.integers(0, 60), min_size=1, max_size=25))
    nodes = ids + draw(st.lists(st.sampled_from(ids), max_size=5))
    linked = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=12))
    weight = st.one_of(st.integers(1, 5).map(float),
                       st.floats(0.01, 100.0, allow_nan=False, allow_infinity=False))
    end = st.sampled_from(linked)
    edges = draw(st.lists(st.tuples(end, end, weight), max_size=60))
    edges += draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []
    seed = draw(st.one_of(st.just(0), st.integers(1, 2**32)))
    return nodes, edges, seed


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
    @example(([0, 1, 2, 3, 4], [(2, 4, 1.0), (0, 2, 1.0), (2, 4, 1.0), (0, 3, 1.0)], 20))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, graph):
        nodes, edges, seed = graph
        assert (label_propagation(nodes, edges, seed=seed)
                == reference_label_propagation(nodes, edges, seed=seed))


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
        series = hhi_series(ledger, "a1")
        assert len(series.values) == 4
        for v in series.values.values():
            assert v == pytest.approx(10000.0 / n, abs=1e-9)

    def test_day0_single_coinbase_monopoly(self):
        ledger = make_ledger([rec("c0", 0, [], [["a", 77]])])
        series = hhi_series(ledger, "a1")
        assert series.values[0] == pytest.approx(10000.0, abs=1e-12)

    def test_a2_at_least_a1_pointwise(self):
        for seed in (1, 2, 3):
            cfg = SynthConfig(seed=seed, days=8, txs_per_day=40, pool=30,
                              regime="preferential", alpha=1.0,
                              initial_supply=10**9, reward=10**6)
            ledger = generate(cfg)
            a1 = hhi_series(ledger, "a1")
            a2 = hhi_series(ledger, "a2")
            for d in a1.values:
                assert a2.values[d] >= a1.values[d] - 1e-9

    def test_classes_emitted(self):
        ledger = make_ledger([rec("c0", 0, [], [["a", 77]])])
        series = hhi_series(ledger, "a1")
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
            series = hhi_series(ledger, scheme, focus_n=focus_n)
            snaps = list(compute_snapshots(ledger))
            funded_days = [d for d in range(ledger.n_days) if ledger.supply_at(d) > 0]
            assert sorted(series.values) == funded_days
            for day in funded_days:
                clustering = cluster(ledger, day, scheme, focus_n=focus_n,
                                     snapshot=snaps[day])
                expected = hhi(clustering.holdings(snaps[day]).values(),
                               ledger.supply_at(day))
                assert series.values[day] == pytest.approx(expected, rel=1e-9)


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

    def test_empty_error(self):
        with pytest.raises(ValueError):
            d_hhi(HHISeries("a3", {}))
