import math

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ledgerlens import (
    ConvergenceError,
    build_day_graph,
    compute_rankings,
    degree_centrality,
    dispersion,
    dispersion_series,
    pagerank,
)
from ledgerlens import txgraph
from ledgerlens.txgraph import MetricVector, _day_graphs
from conftest import DAY, make_ledger, rec
from oracles import expand_ledger, graph_of, pagerank_dense


def two_day_ledger():
    return make_ledger([
        rec("c0", 0, [], [["A", 100], ["B", 50], ["C", 10]]),
        rec("p1", DAY, [["A", 20]], [["B", 20]]),
        rec("p2", DAY + 1, [["B", 5]], [["C", 5]]),
        rec("p3", DAY + 2, [["C", 2]], [["C", 2]]),  # self-loop, dropped
    ])


class TestBuildDayGraph:
    def test_empty_day(self):
        ledger = make_ledger([
            rec("c0", 0, [], [["A", 10]]),
            rec("p1", 2 * DAY, [["A", 1]], [["B", 1]]),
        ])
        graph = build_day_graph(ledger, 1, focus={ledger.addresses.id_of("A")})
        assert graph.n_nodes == 0 and graph.n_edges == 0

    def test_single_focus_edge(self):
        ledger = two_day_ledger()
        a = ledger.addresses.id_of("A")
        graph = build_day_graph(ledger, 1, focus={a})
        names = ledger.addresses.names
        got = {(names[s], names[t]) for s, t in zip(graph.src, graph.dst)}
        assert got == {("A", "B")}

    def test_non_focus_excluded_vs_unfiltered(self):
        ledger = two_day_ledger()
        a = ledger.addresses.id_of("A")
        focused = build_day_graph(ledger, 1, focus={a})
        everything = build_day_graph(
            ledger, 1, focus=set(range(len(ledger.addresses)))
        )
        # Unfiltered brute-force build has B->C as well; the focus filter on A
        # must keep exactly the edges touching A.
        assert everything.n_edges == 2
        assert focused.n_edges == 1
        lut = np.zeros(len(ledger.addresses), dtype=bool)
        lut[a] = True
        assert all(lut[s] or lut[t] for s, t in zip(focused.src, focused.dst))

    def test_coinbase_node_present_when_kept(self):
        ledger = two_day_ledger()
        a = ledger.addresses.id_of("A")
        graph = build_day_graph(ledger, 0, focus={a})
        assert 0 in graph.nodes.tolist()  # COINBASE is id 0

    def test_self_loops_dropped(self):
        ledger = two_day_ledger()
        c = ledger.addresses.id_of("C")
        graph = build_day_graph(ledger, 1, focus={c})
        got = {(int(s), int(t)) for s, t in zip(graph.src, graph.dst)}
        assert (c, c) not in got

    def test_deterministic(self):
        ledger = two_day_ledger()
        a = ledger.addresses.id_of("A")
        g1 = build_day_graph(ledger, 1, focus={a})
        g2 = build_day_graph(ledger, 1, focus={a})
        assert (g1.nodes == g2.nodes).all()
        assert (g1.src == g2.src).all() and (g1.dst == g2.dst).all()
        assert (g1.counts == g2.counts).all()

    def test_multiplicity_counts(self):
        graph = graph_of([(1, 2), (1, 2), (2, 1)])
        assert graph.n_edges == 2
        pair_counts = {
            (int(s), int(t)): int(c)
            for s, t, c in zip(graph.src, graph.dst, graph.counts)
        }
        assert pair_counts == {(1, 2): 2, (2, 1): 1}


class TestDegree:
    def test_single_edge(self):
        vec = degree_centrality(graph_of([(1, 2)]))
        assert vec.as_dict() == {1: 1, 2: 1}

    def test_three_cycle(self):
        vec = degree_centrality(graph_of([(1, 2), (2, 3), (3, 1)]))
        assert set(vec.values.tolist()) == {2}

    def test_star(self):
        vec = degree_centrality(graph_of([(i, 9) for i in range(1, 6)]))
        d = vec.as_dict()
        assert d[9] == 5
        assert all(d[i] == 1 for i in range(1, 6))

    def test_counts_multiplicity(self):
        vec = degree_centrality(graph_of([(1, 2), (1, 2)]))
        assert vec.as_dict() == {1: 2, 2: 2}

    def test_empty_graph_error(self):
        with pytest.raises(ValueError):
            degree_centrality(graph_of([]))


class TestPageRank:
    def test_two_node_cycle(self):
        vec = pagerank(graph_of([(1, 2), (2, 1)]))
        assert vec.values == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_three_node_cycle(self):
        vec = pagerank(graph_of([(1, 2), (2, 3), (3, 1)]))
        assert vec.values == pytest.approx([1 / 3] * 3, abs=1e-12)

    def test_dangling_mass_redistributed(self):
        vec = pagerank(graph_of([(1, 2)]))
        assert vec.values.sum() == pytest.approx(1.0, abs=1e-9)
        assert (vec.values > 0).all()

    def test_matches_dense_solve(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 11))
            m = int(rng.integers(1, 3 * n))
            pairs = [
                (int(a), int(b))
                for a, b in zip(rng.integers(0, n, m), rng.integers(0, n, m))
                if a != b
            ]
            if not pairs:
                continue
            graph = graph_of(pairs, nodes=range(n))
            vec = pagerank(graph)
            weights = {(int(s), int(t)): int(c)
                       for s, t, c in zip(graph.src, graph.dst, graph.counts)}
            want = pagerank_dense(n, [(s, t, w) for (s, t), w in weights.items()])
            got = np.zeros(n)
            got[graph.nodes] = vec.values
            assert got == pytest.approx(want, abs=1e-8)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(29)
        pairs = [(int(a), int(b)) for a, b in rng.integers(0, 12, (30, 2)) if a != b]
        base = pagerank(graph_of(pairs)).as_dict()
        perm = {v: (v * 7 + 3) % 97 for v in range(12)}
        mapped = pagerank(graph_of([(perm[a], perm[b]) for a, b in pairs])).as_dict()
        for v, r in base.items():
            assert mapped[perm[v]] == pytest.approx(r, abs=1e-12)

    def test_nonconvergence_raises_with_residual(self):
        with pytest.raises(ConvergenceError) as err:
            pagerank(graph_of([(1, 2), (2, 1), (2, 3), (3, 1)]), tol=1e-30, max_iter=3)
        assert err.value.residual > 0

    def test_value_weighted_requires_values(self):
        with pytest.raises(ValueError):
            pagerank(graph_of([(1, 2)]), weighted_by_value=True)


def reference_day_graph(ledger, day, focus_ids, value_weighted):
    """Day `day` of the whole-ledger expansion: edges with an end in the
    focus, self-loops dropped, parallel edges counted and their values
    summed in edge order.  Returns nodes, (src, dst) pairs, counts and
    value sums (None without `value_weighted`)."""
    edges = expand_ledger(ledger, with_values=value_weighted)
    focus = set(focus_ids)
    counts, sums = {}, {}
    for i in range(edges.day_ptr[day], edges.day_ptr[day + 1]):
        pair = int(edges.src[i]), int(edges.dst[i])
        if pair[0] == pair[1] or focus.isdisjoint(pair):
            continue
        counts[pair] = counts.get(pair, 0) + 1
        if value_weighted:
            sums[pair] = sums.get(pair, 0.0) + float(edges.values[i])
    pairs = sorted(counts)
    return (sorted({x for pair in pairs for x in pair}), pairs, [counts[x] for x in pairs],
            [sums[x] for x in pairs] if value_weighted else None)


NAMES = [f"a{i}" for i in range(5)]


@st.composite
def graph_ledgers(draw):
    """Up to six days of coinbases and payments among five addresses, with
    self-loops and days that have no transaction, and a focus set for each
    day (COINBASE among the ids, and empty sets)."""
    n_days = draw(st.integers(1, 6))
    lines = [rec("c0", 0, [], [[x, 1000] for x in NAMES])]
    side = st.lists(st.sampled_from(NAMES), max_size=3, unique=True)
    for t in range(draw(st.integers(0, 14))):
        day = draw(st.integers(0, n_days - 1))
        ins = [[a, draw(st.integers(9, 20))] for a in draw(side)]
        outs = [[b, draw(st.integers(1, 3))] for b in draw(side.filter(bool))]
        lines.append(rec(f"t{t}", day * DAY + t + 1, ins, outs))
    ledger = make_ledger(lines)
    ids = st.integers(0, len(ledger.addresses) - 1)
    focus = [np.asarray(draw(st.lists(ids, unique=True)), dtype=np.int64)
             for _ in range(ledger.n_days)]
    return ledger, focus


def parallel_values_case():
    """Day 1 pays b from a three times, 0.1, 0.2 and 0.3 of a unit by input
    share: summed in edge order they make 0.6000000000000001, in reverse
    0.6."""
    ledger = make_ledger(
        [rec("c0", 0, [], [["a", 100], ["c", 100]])]
        + [rec(f"t{k}", DAY + k, [["a", k], ["c", 10 - k]], [["b", 1]]) for k in (1, 2, 3)])
    a = ledger.addresses.id_of("a")
    return ledger, [np.array([a]), np.array([a])]


class TestDayGraphBlocks:
    @given(graph_ledgers(), st.sampled_from([1, 8, 1 << 15]), st.booleans())
    @example(parallel_values_case(), 1 << 15, True)
    @settings(max_examples=150, deadline=None)
    def test_blocks_match_each_day_alone(self, case, budget, value_weighted):
        # Blocks of one day, a few or all: every day's graph is the one
        # `build_day_graph` gives for the day alone, and the reference's.
        ledger, focus = case
        with mock.patch.object(txgraph, "_BLOCK_ENTRIES", budget):
            graphs = list(_day_graphs(ledger, 0, iter(focus), value_weighted))
        assert [g.day for g in graphs] == list(range(ledger.n_days))
        for day, (graph, focus_ids) in enumerate(zip(graphs, focus)):
            alone = build_day_graph(ledger, day, focus_ids.tolist(), value_weighted)
            nodes, pairs, counts, sums = reference_day_graph(ledger, day, focus_ids,
                                                             value_weighted)
            for g in (graph, alone):
                assert g.nodes.tolist() == nodes
                assert list(zip(g.src.tolist(), g.dst.tolist())) == pairs
                assert g.counts.tolist() == counts
                assert (g.weights.tolist() if value_weighted else g.weights) == sums

    def test_day_outside_ledger(self):
        ledger = two_day_ledger()
        with pytest.raises(ValueError, match="outside ledger range"):
            list(_day_graphs(ledger, 1, iter([np.array([1]), np.array([1])]), False))


class TestDispersion:
    def test_one_dominant_in_hundred_is_exactly_100(self):
        values = np.zeros(100)
        values[0] = 1.0
        vec = MetricVector("x", np.arange(100), values)
        assert dispersion(vec) == 100.0

    def test_two_dominant_in_hundred_is_exactly_50(self):
        values = np.zeros(100)
        values[:2] = 1.0
        vec = MetricVector("x", np.arange(100), values)
        assert dispersion(vec) == 50.0

    def test_constant_vector_is_one(self):
        vec = MetricVector("x", np.arange(5), np.full(5, 3.3))
        assert dispersion(vec) == 1.0

    def test_scale_and_shift_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            vals = rng.random(int(rng.integers(2, 200)))
            vec = MetricVector("x", np.arange(len(vals)), vals)
            base = dispersion(vec)
            scaled = MetricVector("x", np.arange(len(vals)), vals * 37.5)
            shifted = MetricVector("x", np.arange(len(vals)), vals + 11.25)
            assert dispersion(scaled) == pytest.approx(base, rel=1e-9)
            assert dispersion(shifted) == pytest.approx(base, rel=1e-9)

    def test_at_least_one(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            vals = rng.random(int(rng.integers(2, 50)))
            vec = MetricVector("x", np.arange(len(vals)), vals)
            assert dispersion(vec) >= 1.0

    @pytest.mark.parametrize("vals, want", [
        ([0.01] * 3 + [math.nextafter(0.01, 1)], 4.0),
        ([0.1] * 100 + [math.nextafter(0.1, 1)], 101.0),
    ])
    def test_near_constant_vector(self, vals, want):
        # The float mean of these rounds onto the minimum (a division by
        # zero) or past the maximum (a dispersion below 1); one node one
        # ULP above the rest is the one-dominant case.
        vals = np.array(vals)
        mean = float(vals.sum()) / len(vals)
        assert not vals.min() < mean < vals.max()
        assert dispersion(MetricVector("x", np.arange(len(vals)), vals)) == want

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            dispersion(MetricVector("x", np.arange(1), np.ones(1)))


class TestDispersionSeries:
    def test_focus_is_previous_day_top(self):
        ledger = two_day_ledger()
        rankings = compute_rankings(ledger, 100)
        series = dispersion_series(ledger, rankings, ("degree",), focus_n=100)
        # Day 0 has no predecessor; day 1 graph exists.
        assert 0 not in series["degree"]
        assert 1 in series["degree"]

    @pytest.mark.parametrize("focus_n", [0, -5])
    def test_focus_n_below_one(self, focus_n):
        ledger = two_day_ledger()
        rankings = compute_rankings(ledger, 100)
        with pytest.raises(ValueError, match="n must be >= 1"):
            dispersion_series(ledger, rankings, ("degree",), focus_n=focus_n)

    # two_day_ledger's day 1 has a focus graph of three nodes; two coinbases
    # on days 0 and 1 give no day a graph of two nodes.
    @pytest.mark.parametrize("make", [
        two_day_ledger,
        lambda: make_ledger([rec("c0", 0, [], [["A", 5]]), rec("c1", DAY, [], [["B", 5]])]),
    ], ids=["graph_day", "no_graph_day"])
    def test_unknown_metric_refused_before_any_day(self, make):
        ledger = make()
        read = []

        def rankings():
            for r in compute_rankings(ledger, 100):
                read.append(r.day)
                yield r

        with pytest.raises(ValueError, match="unknown metric 'degre'"):
            dispersion_series(ledger, rankings(), ("degree", "degre"))
        assert read == []
