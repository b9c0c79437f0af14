"""The streamed day walk: `compute_rankings` yields one day at a time, and a
ranking orders its ids by name only when they are first read.  Every
consumer gives the same values from the generator as from the materialized
list, and the lazily ordered ids are the eagerly ordered ones."""

import itertools
import json

import numpy as np
import pytest

from ledgerlens import (
    SynthConfig,
    build_day_graph,
    cluster,
    compute_rankings,
    compute_snapshots,
    d_static_series,
    degree_centrality,
    dispersion_series,
    generate,
    hhi_series,
    load_ledger,
    pagerank,
    stability_table,
)
from ledgerlens.balances import proportion_series
from ledgerlens.cli import run
from ledgerlens.report import curve_chart
from conftest import DAY, make_ledger, rec
from oracles import eager_rank_balances


def _ties_ledger():
    # Thirty equal holders below five larger ones: a top-10 cut falls
    # inside the tie group, so the names decide who is ranked.
    outs = [[f"t{i:02d}", 100] for i in range(30)] + [[f"big{i}", 1000 + i] for i in range(5)]
    lines = [rec("c0", 0, [], outs)]
    lines += [rec(f"p{d}", d * DAY, [[f"t{d:02d}", 100]], [[f"t{d + 10:02d}", 100]])
              for d in range(1, 6)]
    return make_ledger(lines)


def _unfunded_days_ledger():
    # Days 0-2 hold no funded address and no minted supply.
    return make_ledger([rec("c0", 3 * DAY, [], [["a", 50], ["b", 50], ["c", 7]]),
                        rec("p1", 4 * DAY, [["a", 50]], [["b", 20], ["d", 30]]),
                        rec("p2", 6 * DAY, [["d", 30]], [["a", 30]])], epoch=0)


LEDGERS = {
    "empty": lambda: make_ledger([]),
    "unfunded_days": _unfunded_days_ledger,
    "ties": _ties_ledger,
    "uniform": lambda: generate(SynthConfig(seed=4, days=15, txs_per_day=20, pool=40)),
    "preferential": lambda: generate(SynthConfig(seed=2, days=12, txs_per_day=15, pool=30,
                                                 regime="preferential", alpha=1.0,
                                                 growth=3)),
}
# 1000 is above the funded count of every ledger here.
DEPTHS = (1, 10, 1000)


@pytest.fixture(params=list(LEDGERS), scope="module")
def ledger(request):
    return LEDGERS[request.param]()


@pytest.mark.parametrize("n", DEPTHS)
def test_lazy_ids_match_eager_ranking(ledger, n):
    days = 0
    for ranking, snap in zip(compute_rankings(ledger, n), compute_snapshots(ledger)):
        ids, balances, funded_total, funded_sq = eager_rank_balances(
            snap.balances, n, ledger.addresses)
        assert (ranking.day, ranking.n, len(ranking)) == (snap.day, n, len(ids))
        assert ranking.balances.dtype == balances.dtype
        assert np.array_equal(ranking.balances, balances)
        assert (ranking.funded_total, ranking.funded_sq) == (funded_total, funded_sq)
        assert ranking.ids.dtype == ids.dtype
        assert np.array_equal(ranking.ids, ids)
        days += 1
    assert days == ledger.n_days


def test_ids_are_ordered_on_first_read():
    ledger = _ties_ledger()
    (ranking,) = itertools.islice(compute_rankings(ledger, 10), 1)
    # Balances-only readers leave the ids unordered ...
    d_static_series([ranking], 10)
    proportion_series([ranking], [ledger.supply_at(0)], [3, 10])
    assert ranking._ids is None and ranking._candidates is not None
    # ... and the first read orders them once, dropping the candidates.
    ids = ranking.ids
    assert ranking._candidates is None and ranking.ids is ids
    assert [ledger.addresses.names[i] for i in ids] == (
        [f"big{i}" for i in range(4, -1, -1)] + [f"t{i:02d}" for i in range(5)])


@pytest.mark.parametrize("n", DEPTHS)
def test_consumers_read_the_stream_as_the_list(ledger, n):
    listed = list(compute_rankings(ledger, n))

    def both(consume):
        return consume(compute_rankings(ledger, n)), consume(listed)

    supplies = [ledger.supply_at(d) for d in range(ledger.n_days)]
    streamed, materialized = both(lambda r: proportion_series(r, supplies, sorted({1, 3, n})))
    assert streamed.shape == (ledger.n_days, len({1, 3, n}))
    np.testing.assert_array_equal(streamed, materialized)

    streamed, materialized = both(lambda r: d_static_series(r, n).values)
    assert streamed == materialized

    focus_n = min(n, 100)
    for weighted in (False, True):
        streamed, materialized = both(lambda r: dispersion_series(
            ledger, r, ("degree", "pagerank"), focus_n, value_weighted=weighted))
        assert streamed == materialized

    specs = [("spearman", n, 1), ("retention", n, 2), ("spearman", max(1, n // 3), 1),
             ("retention", 1, 1)]
    for mode in ("intersection", "penalized"):
        streamed, materialized = both(lambda r: {
            k: s.values for k, s in stability_table(r, specs, mode).items()})
        assert streamed == materialized

    for scheme in ("a1", "a2", "a3"):
        streamed, materialized = both(lambda r: hhi_series(
            ledger, scheme, r, focus_n=n).values)
        assert streamed == materialized


@pytest.mark.parametrize("scheme", ["a1", "a2", "a3"])
class TestHHIStreamErrors:
    """A streamed `hhi_series` refuses what the materialized one refuses."""

    LEDGER = staticmethod(lambda: generate(SynthConfig(seed=3, days=8, txs_per_day=10,
                                                       pool=20)))

    def test_shallow_ranking(self, scheme):
        ledger = self.LEDGER()
        with pytest.raises(ValueError, match="at least focus_n=6 deep"):
            hhi_series(ledger, scheme, compute_rankings(ledger, 5), focus_n=6)
        # A shallow ranking after deep ones is found as it arrives.
        late = itertools.chain(itertools.islice(compute_rankings(ledger, 10), 3),
                               itertools.islice(compute_rankings(ledger, 5), 3, None))
        with pytest.raises(ValueError, match="at least focus_n=6 deep"):
            hhi_series(ledger, scheme, late, focus_n=6)

    def test_wrong_day_count(self, scheme):
        ledger = self.LEDGER()
        short = itertools.islice(compute_rankings(ledger, 10), ledger.n_days - 1)
        extra = itertools.chain(compute_rankings(ledger, 10),
                                itertools.islice(compute_rankings(ledger, 10), 1))
        for wrong, got in ((short, ledger.n_days - 1), (extra, ledger.n_days + 1)):
            with pytest.raises(ValueError, match=f"one ranking per day .*got {got}"):
                hhi_series(ledger, scheme, wrong, focus_n=10)


class TestDayCaptures:
    """The one day's ranking that `dstatic --svg`, `dispersion --nodes-day`
    and `hhi --partition-day` keep from the stream gives the outputs of
    that day's ranking in the materialized list."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("captures")
        chain, store = tmp / "chain.jsonl", tmp / "store"
        assert run(["synth", "--seed", "5", "--days", "20", "--txs-per-day", "30",
                    "--pool", "60", "--regime", "preferential", "--alpha", "1",
                    "--out", str(chain)]) == 0
        assert run(["ingest", "--input", str(chain), "--store", str(store)]) == 0
        return str(store)

    def test_curve_day(self, store, tmp_path):
        svg, out = tmp_path / "c.svg", tmp_path / "d.csv"
        assert run(["dstatic", "--store", store, "--top", "25", "--svg", str(svg),
                    "--curve-day", "7", "--out", str(out)]) == 0
        cfg = out.read_text().splitlines()[2].removeprefix("# config: ")
        rankings = list(compute_rankings(load_ledger(store), 25))
        curve_chart(str(tmp_path / "want.svg"), rankings[7], 25, cfg)
        assert svg.read_bytes() == (tmp_path / "want.svg").read_bytes()

    @pytest.mark.parametrize("weighted", [[], ["--value-weighted"]])
    def test_nodes_day(self, store, tmp_path, weighted):
        nodes = tmp_path / "n.csv"
        assert run(["dispersion", "--store", store, "--focus", "12", "--nodes-day", "9",
                    "--nodes-out", str(nodes), "--out", str(tmp_path / "d.csv"),
                    *weighted]) == 0
        ledger = load_ledger(store)
        ranking = list(compute_rankings(ledger, 12))[8]
        graph = build_day_graph(ledger, 9, ranking, value_weighted=bool(weighted))
        deg = degree_centrality(graph).as_dict(ledger.addresses)
        pr = pagerank(graph, weighted_by_value=bool(weighted)).as_dict(ledger.addresses)
        rows = [line for line in nodes.read_text().splitlines() if not line.startswith("#")]
        assert rows == ["day,address,degree,pagerank"] + [
            f"9,{a},{int(deg[a])},{float(pr[a])!r}" for a in sorted(deg)]

    @pytest.mark.parametrize("scheme", ["a1", "a2", "a3"])
    def test_partition_day(self, store, tmp_path, scheme):
        part = tmp_path / "p.json"
        assert run(["hhi", "--store", store, "--scheme", scheme, "--focus", "15",
                    "--partition-day", "11", "--partition-out", str(part),
                    "--out", str(tmp_path / "h.csv")]) == 0
        ledger = load_ledger(store)
        firms = cluster(ledger, scheme, list(compute_rankings(ledger, 15))[11], focus_n=15)
        names = ledger.addresses.names
        assert json.loads(part.read_text())["partition"] == {
            names[a]: firm for a, firm in firms.items()}
