import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ledgerlens import (
    compute_snapshots, hhi, load_ledger, parse_ledger, save_ledger, summarize,
)
from ledgerlens import cli
from ledgerlens.cli import run
from ledgerlens.report import build_report
from ledgerlens.store import _pack_strings
from conftest import DAY, rec, rewrite_arrays


def read_csv(path):
    """Returns (meta_lines, header, rows)."""
    return parse_csv(Path(path).read_text())


def parse_csv(text):
    lines = text.splitlines()
    meta = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    return meta, body[0].split(","), [l.split(",") for l in body[1:]]


@pytest.fixture
def store(tmp_path):
    """A 30-day synthetic chain ingested into a store directory."""
    ledger_path = tmp_path / "chain.jsonl"
    store_path = tmp_path / "store"
    assert run(["synth", "--seed", "7", "--days", "30", "--txs-per-day", "40",
                "--pool", "30", "--out", str(ledger_path)]) == 0
    assert run(["ingest", "--input", str(ledger_path), "--out", str(store_path)]) == 0
    return str(store_path)


class TestPipeline:
    def test_dstatic_emits_one_row_per_day(self, store, tmp_path):
        out = tmp_path / "dstatic.csv"
        assert run(["dstatic", "--store", store, "--top", "2000",
                    "--out", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert header == ["day", "d_static"]
        assert len(rows) == 30
        assert [int(r[0]) for r in rows] == list(range(30))

    def test_stability_constant_ledger_all_ones(self, tmp_path):
        lines = [rec("c0", 0, [], [[f"h{i}", 10 + i] for i in range(5)])]
        lines.append(rec("end", 5 * 86_400, [["h0", 1]], [["h0", 1]]))
        src = tmp_path / "flat.jsonl"
        src.write_text("\n".join(lines) + "\n")
        store_path = str(tmp_path / "s")
        assert run(["ingest", "-i", str(src), "--store", store_path]) == 0
        out = tmp_path / "ret.csv"
        assert run(["stability", "--store", store_path, "--metric", "retention",
                    "--top", "100", "--interval", "1", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 5
        assert all(float(r[1]) == 1.0 for r in rows)

    def test_hhi_equal_wealth_is_1000(self, tmp_path):
        lines = [rec("c0", 0, [], [[f"h{i}", 100] for i in range(10)])]
        lines.append(rec("end", 2 * 86_400, [["h0", 100]], [["h0", 100]]))
        src = tmp_path / "equal.jsonl"
        src.write_text("\n".join(lines) + "\n")
        store_path = str(tmp_path / "s")
        assert run(["ingest", "-i", str(src), "--store", store_path]) == 0
        out = tmp_path / "hhi.csv"
        assert run(["hhi", "--store", store_path, "--scheme", "a1",
                    "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["day", "scheme", "hhi", "class"]
        assert len(rows) == 3
        for r in rows:
            assert float(r[2]) == pytest.approx(1000.0, abs=1e-9)
            assert r[3] == "competitive"

    def test_snapshot_and_proportions(self, store, tmp_path):
        assert run(["snapshot", "--store", store, "--dump-day", "29",
                    "--out", str(tmp_path / "snap.csv")]) == 0
        assert sorted(p.name for p in Path(store).iterdir()) == ["ledger.npz", "meta.json"]
        out = tmp_path / "prop.csv"
        assert run(["proportions", "--store", store, "--tops", "5,10",
                    "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["day", "p5", "p10"]
        assert len(rows) == 30

    def test_dispersion_and_nodes_dump(self, store, tmp_path):
        out = tmp_path / "disp.csv"
        nodes = tmp_path / "nodes.csv"
        assert run(["dispersion", "--store", store, "--metric", "both",
                    "--out", str(out), "--nodes-day", "3",
                    "--nodes-out", str(nodes)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["day", "metric", "dispersion"]
        assert {r[1] for r in rows} == {"degree", "pagerank"}
        _, nheader, nrows = read_csv(nodes)
        assert nheader == ["day", "address", "degree", "pagerank"]
        assert nrows
        total_rank = sum(float(r[3]) for r in nrows)
        assert total_rank == pytest.approx(1.0, abs=1e-9)
        assert all(float(r[2]) == int(float(r[2])) for r in nrows)

    def test_hhi_dhhi_and_partition(self, store, tmp_path):
        out = tmp_path / "hhi.csv"
        dhhi = tmp_path / "dhhi.csv"
        part = tmp_path / "part.json"
        assert run(["hhi", "--store", store, "--scheme", "a3", "--out", str(out),
                    "--dhhi", str(dhhi), "--partition-day", "5",
                    "--partition-out", str(part)]) == 0
        _, header, rows = read_csv(dhhi)
        assert header == ["day", "d_hhi"]
        values = [float(r[1]) for r in rows]
        assert min(values) == 0.0 and max(values) == 1.0
        payload = json.loads(part.read_text())
        assert payload["scheme"] == "a3" and payload["day"] == 5
        assert payload["partition"]

    @pytest.mark.parametrize("seed", ["0", "9"])
    @pytest.mark.parametrize("scheme", ["a1", "a2", "a3"])
    def test_partition_reproduces_hhi_row(self, growing_store, tmp_path, scheme, seed):
        # The partition of day D has the focus of that day's `hhi.csv` row:
        # its firms' holdings, with V_o holding the funded rest under A3,
        # give that row's value.
        supply = load_ledger(growing_store).supply_at
        for focus in ("100", "30"):
            for day in (7, 39):
                out, part, snap = (tmp_path / f"{focus}_{day}{ext}"
                                   for ext in (".csv", ".json", "_snap.csv"))
                assert run(["hhi", "--store", growing_store, "--scheme", scheme,
                            "--seed", seed, "--focus", focus, "--out", str(out),
                            "--partition-day", str(day), "--partition-out", str(part)]) == 0
                assert run(["snapshot", "--store", growing_store, "--dump-day", str(day),
                            "--out", str(snap)]) == 0
                balances = {a: int(b) for a, b in read_csv(snap)[2]}
                partition = json.loads(part.read_text())["partition"]
                holdings = {}
                for a, firm in partition.items():
                    holdings[firm] = holdings.get(firm, 0) + balances[a]
                if scheme == "a3":
                    assert len(partition) == min(int(focus), len(balances))
                    holdings["V_o"] = sum(balances.values()) - sum(holdings.values())
                else:
                    assert partition.keys() == balances.keys()
                value = {int(r[0]): float(r[2]) for r in read_csv(out)[2]}[day]
                assert hhi(holdings.values(), supply(day)) == pytest.approx(value, rel=1e-9)

    def test_dhhi_requires_a3(self, store, tmp_path):
        assert run(["hhi", "--store", store, "--scheme", "a1",
                    "--out", str(tmp_path / "x.csv"),
                    "--dhhi", str(tmp_path / "y.csv")]) == 1


class TestReport:
    def test_bundle_and_determinism(self, store, tmp_path):
        args = ["report", "--store", store, "--tops", "5,10,15",
                "--intervals", "1,2", "--focus", "10"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        names = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        assert names == sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        bundle = json.loads((out1 / "report.json").read_text())
        for key in ("meta", "proportions", "stability", "d_static",
                    "dispersion", "hhi", "d_hhi"):
            assert key in bundle
        charts = {p.name for p in (out1 / "charts").iterdir()}
        assert {"proportions.svg", "cumulative_curve.svg", "d_static.svg",
                "dispersion.svg", "hhi.svg", "d_hhi.svg"} <= charts

    def test_stability_rows_unique(self, store, tmp_path):
        # Focus 10 at interval 1 is also the tops series for N=10.
        out = tmp_path / "rep"
        assert run(["report", "--store", store, "--tops", "5,10,15",
                    "--intervals", "1,2", "--focus", "10", "--no-charts",
                    "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "stability.csv")
        keys = [tuple(r[:4]) for r in rows]
        assert len(keys) == len(set(keys))
        assert {(r[1], r[2], r[3]) for r in rows} == {
            (m, n, i) for m in ("spearman", "retention")
            for n, i in (("10", "1"), ("10", "2"), ("5", "1"), ("15", "1"))
        }

    def test_metadata_headers(self, store, tmp_path):
        out = tmp_path / "rep"
        assert run(["report", "--store", store, "--tops", "5",
                    "--intervals", "1", "--focus", "5", "--no-charts",
                    "--out", str(out)]) == 0
        meta, _, _ = read_csv(out / "d_static.csv")
        assert any("ledgerlens" in l for l in meta)
        assert any(l.startswith("# config:") for l in meta)
        assert any(l.startswith("# format:") for l in meta)

    def test_balances_replayed_once(self, store, tmp_path, monkeypatch):
        # Every metric of the bundle, HHI included, reads the one ranking
        # pass, so each day's transactions are applied exactly once.
        from ledgerlens import balances

        applied = []
        apply_day = balances._apply_day

        def counted(ledger, day, bal):
            applied.append(day)
            apply_day(ledger, day, bal)

        monkeypatch.setattr(balances, "_apply_day", counted)
        ledger = load_ledger(store)
        build_report(ledger, str(tmp_path / "rep"), tops=[5, 10], intervals=[1],
                     focus_n=5, charts=False)
        assert applied == list(range(ledger.n_days))

    def test_hhi_labels_swept_once(self, store, tmp_path, monkeypatch):
        # A2 and A3 read one pair index and one label sweep: every day's
        # focus labels are found once, not once per scheme.
        from ledgerlens import market

        built, calls, swept = [], [], []
        pair_index, focus_labels = market._PairIndex, market._focus_labels

        def counted_index(*args):
            built.append(args)
            return pair_index(*args)

        def counted_labels(days, *args):
            calls.append(days)
            for labels in focus_labels(days, *args):
                swept.append(labels)
                yield labels

        monkeypatch.setattr(market, "_PairIndex", counted_index)
        monkeypatch.setattr(market, "_focus_labels", counted_labels)
        ledger = load_ledger(store)
        build_report(ledger, str(tmp_path / "rep"), tops=[5, 10], intervals=[1],
                     focus_n=5, charts=False)
        assert len(built) == 1
        assert calls == [range(ledger.n_days)] and len(swept) == ledger.n_days

        built.clear()
        assert run(["hhi", "--store", store, "--scheme", "a1",
                    "--out", str(tmp_path / "a1.csv")]) == 0
        assert built == []


class TestAuxiliaryOutputs:
    def test_stability_summary_json(self, store, tmp_path):
        summary = tmp_path / "summary.json"
        assert run(["stability", "--store", store, "--metric", "retention",
                    "--top", "10", "--interval", "1",
                    "--out", str(tmp_path / "s.csv"), "--summary", str(summary)]) == 0
        payload = json.loads(summary.read_text())
        fields = set(payload["summary"])
        assert fields == {"mean", "std", "median", "q1", "q3", "iqr", "min", "max"}

    def test_dstatic_curve_svg(self, store, tmp_path):
        svg = tmp_path / "curve.svg"
        assert run(["dstatic", "--store", store, "--top", "20",
                    "--out", str(tmp_path / "d.csv"), "--svg", str(svg),
                    "--curve-day", "10"]) == 0
        text = svg.read_text()
        assert text.startswith("<svg") and "polyline" in text
        meta, _, _ = read_csv(tmp_path / "d.csv")
        cfg = next(l.split(": ")[1] for l in meta if l.startswith("# config:"))
        assert f"<!-- ledgerlens 0.1.0 format=1 config={cfg} -->" in text.splitlines()

    @pytest.mark.parametrize("command", [
        ["stability", "--out", "s.csv", "--summary", "-"],
        ["hhi", "--scheme", "a2", "--out", "h.csv", "--partition-day", "5",
         "--partition-out", "-"],
    ])
    def test_json_to_stdout(self, store, tmp_path, monkeypatch, capsys, command):
        # `-` is standard output for JSON as for CSV: the same bytes as the
        # file, and no file named `-`.
        monkeypatch.chdir(tmp_path)
        command = list(command)
        flag = command.index("-") - 1
        assert run([*command, "--store", store]) == 0
        printed = capsys.readouterr().out
        command[flag + 1] = "out.json"
        assert run([*command, "--store", store]) == 0
        assert printed == (tmp_path / "out.json").read_text()
        assert json.loads(printed)["meta"]["config_hash"]
        assert not (tmp_path / "-").exists()

    def test_svg_to_stdout(self, store, tmp_path, monkeypatch, capsys):
        # `--svg -` prints the chart that `--svg FILE` writes, and no file
        # named `-` is left behind.
        monkeypatch.chdir(tmp_path)
        command = ["dstatic", "--store", store, "--top", "20", "--out", "d.csv"]
        assert run([*command, "--svg", "-"]) == 0
        printed = capsys.readouterr().out
        assert run([*command, "--svg", "c.svg"]) == 0
        assert printed.startswith("<svg") and printed == (tmp_path / "c.svg").read_text()
        assert not (tmp_path / "-").exists()

    def test_snapshot_dump_day(self, store, tmp_path):
        out = tmp_path / "balances.csv"
        assert run(["snapshot", "--store", store, "--dump-day", "4",
                    "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["address", "balance"]
        assert all(int(r[1]) > 0 for r in rows)

    def test_snapshot_dump_day_matches_walk(self, store, tmp_path):
        snaps = list(compute_snapshots(load_ledger(store)))
        for snap in snaps:
            out = tmp_path / f"balances{snap.day}.csv"
            assert run(["snapshot", "--store", store, "--dump-day", str(snap.day),
                        "--out", str(out)]) == 0
            _, _, rows = read_csv(out)
            assert {a: int(b) for a, b in rows} == snap.as_dict()
            assert [a for a, _ in rows] == sorted(snap.as_dict())

    def test_snapshot_day_out_of_range(self, store, tmp_path):
        for day in ("30", "-1"):
            assert run(["snapshot", "--store", store, "--dump-day", day,
                        "--out", str(tmp_path / "b.csv")]) == 1

    def test_snapshot_requires_dump_day(self, store, tmp_path):
        assert run(["snapshot", "--store", store, "--out", str(tmp_path / "b.csv")]) == 1

    def test_proportions_long_format(self, store, tmp_path):
        out = tmp_path / "long.csv"
        assert run(["proportions", "--store", store, "--tops", "5,10",
                    "--long", "--out", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["day", "n", "proportion"]
        assert len(rows) == 30 * 2

    def test_value_weighted_dispersion(self, store, tmp_path):
        out = tmp_path / "disp.csv"
        nodes = tmp_path / "nodes.csv"
        assert run(["dispersion", "--store", store, "--metric", "pagerank",
                    "--value-weighted", "--out", str(out),
                    "--nodes-day", "5", "--nodes-out", str(nodes)]) == 0
        _, _, rows = read_csv(out)
        assert rows
        _, _, nrows = read_csv(nodes)
        assert sum(float(r[3]) for r in nrows) == pytest.approx(1.0, abs=1e-9)

    def test_hhi_modularity_method(self, store, tmp_path):
        out = tmp_path / "hhi.csv"
        assert run(["hhi", "--store", store, "--scheme", "a2",
                    "--method", "modularity", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert len(rows) == 30

    def test_synth_stdout(self, capsys):
        assert run(["synth", "--seed", "3", "--days", "2", "--txs-per-day", "2",
                    "--pool", "4", "--initial-supply", "1000"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert all(json.loads(l)["txid"].startswith("t") for l in lines)

    def test_ingest_epoch_flag(self, tmp_path):
        src = tmp_path / "c.jsonl"
        src.write_text(rec("c0", 3 * 86_400, [], [["a", 5]]) + "\n")
        store_path = str(tmp_path / "s")
        assert run(["ingest", "-i", str(src), "--store", store_path,
                    "--epoch", "0"]) == 0
        out = tmp_path / "d.csv"
        assert run(["dstatic", "--store", store_path, "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert [int(r[0]) for r in rows] == [3]  # earlier days have no supply


@pytest.fixture
def growing_store(tmp_path):
    """40 days of preferential payments among 60 addresses, 5 new a day."""
    ledger_path = tmp_path / "growing.jsonl"
    store_path = tmp_path / "growing"
    assert run(["synth", "--days", "40", "--pool", "60", "--growth", "5",
                "--regime", "preferential", "--alpha", "1", "--seed", "5",
                "--out", str(ledger_path)]) == 0
    assert run(["ingest", "--input", str(ledger_path), "--out", str(store_path)]) == 0
    return str(store_path)


@pytest.fixture
def empty_store(tmp_path):
    """A store ingested from an empty export: no days at all."""
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    store = str(tmp_path / "store")
    assert run(["ingest", "-i", str(empty), "--store", store]) == 0
    return store


class TestEmptyLedger:
    def test_full_pipeline_on_empty_input(self, empty_store, tmp_path):
        assert run(["report", "--store", empty_store, "--tops", "5", "--intervals",
                    "1", "--focus", "5", "--out", str(tmp_path / "rep")]) == 0
        _, _, rows = read_csv(tmp_path / "rep" / "d_static.csv")
        assert rows == []

    def test_hhi_dhhi_writes_empty_series(self, empty_store, tmp_path):
        # As in `report`: an empty A3 series gives an empty d_hhi CSV.
        dhhi = tmp_path / "dhhi.csv"
        assert run(["hhi", "--store", empty_store, "--scheme", "a3",
                    "--out", str(tmp_path / "hhi.csv"), "--dhhi", str(dhhi)]) == 0
        _, header, rows = read_csv(dhhi)
        assert header == ["day", "d_hhi"] and rows == []

    def test_dstatic_svg_has_no_day_to_chart(self, empty_store, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["dstatic", "--store", empty_store, "--out", "d.csv",
                    "--svg", "c.svg"]) == 1
        assert not (tmp_path / "d.csv").exists() and not (tmp_path / "c.svg").exists()

    def test_dstatic_svg_names_the_missing_days(self, empty_store, tmp_path, monkeypatch,
                                                capsys):
        # With no --curve-day the refusal names the empty ledger, not a day
        # -1 the command line never gave; a given day is named as given.
        monkeypatch.chdir(tmp_path)
        command = ["dstatic", "--store", empty_store, "--out", "d.csv", "--svg", "c.svg"]
        assert run(command) == 1
        assert capsys.readouterr().err == (
            "ledgerlens: the ledger has no day to chart a curve for\n")
        assert run(command + ["--curve-day", "0"]) == 1
        assert capsys.readouterr().err == (
            "ledgerlens: curve day 0 is not a day of the ledger (0 days)\n")
        assert sorted(os.listdir(tmp_path)) == ["empty.jsonl", "store"]


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["synth", "--bogus"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 1

    def test_missing_store_is_usage(self, tmp_path, monkeypatch):
        monkeypatch.delenv("LEDGERLENS_STORE", raising=False)
        assert run(["dstatic", "--out", str(tmp_path / "x.csv")]) == 1

    def test_nonexistent_store_is_data_error(self, tmp_path):
        assert run(["dstatic", "--store", str(tmp_path / "none"),
                    "--out", str(tmp_path / "x.csv")]) == 2

    def test_malformed_input_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        assert run(["ingest", "-i", str(bad), "--store", str(tmp_path / "s")]) == 2

    def test_value_beyond_int64_is_data_error(self, tmp_path):
        big = tmp_path / "big.jsonl"
        big.write_text(rec("a", 0, [], [["x", 2**63]]) + "\n")
        assert run(["ingest", "-i", str(big), "--store", str(tmp_path / "s")]) == 2

    def test_time_beyond_int64_is_data_error(self, tmp_path):
        big = tmp_path / "late.jsonl"
        big.write_text(rec("a", 2**63, [], [["x", 5]]) + "\n")
        assert run(["ingest", "-i", str(big), "--store", str(tmp_path / "s")]) == 2

    @pytest.mark.parametrize("first,last", [(0, 9 * 10**18),
                                            (-9223372036854720000, 2**63 - 1)])
    def test_day_span_beyond_limit_is_data_error(self, tmp_path, first, last):
        wide = tmp_path / "wide.jsonl"
        wide.write_text(rec("a", first, [], [["x", 5]]) + "\n"
                        + rec("b", last, [], [["y", 5]]) + "\n")
        assert run(["ingest", "-i", str(wide), "--store", str(tmp_path / "s")]) == 2
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("line,reason", [
        ("[" * 100_000, "nested too deeply"),
        ('{"txid": "b", "time": 1, "in": [], "out": [["y", %s]]}' % ("1" * 5000),
         "integer literal longer than"),
    ], ids=["nesting", "integer"])
    def test_decoder_limit_is_data_error(self, tmp_path, capsys, line, reason):
        src = tmp_path / "deep.jsonl"
        src.write_text(rec("a", 0, [], [["x", 5]]) + "\n" + line + "\n")
        assert run(["ingest", "-i", str(src), "--store", str(tmp_path / "s")]) == 2
        assert f"line 2: invalid JSON ({reason}" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_lone_surrogate_address_is_data_error(self, tmp_path, capsys):
        src = tmp_path / "s.jsonl"
        src.write_text(rec("a", 0, [], [["\ud800x", 5]]) + "\n")
        assert run(["ingest", "-i", str(src), "--store", str(tmp_path / "s")]) == 2
        assert "line 1" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("tops", ["5,-3", "0", ",", ""])
    def test_bad_tops_write_nothing(self, store, tmp_path, monkeypatch, capsys, tops):
        monkeypatch.chdir(tmp_path)
        assert run(["proportions", "--store", store, "--tops", tops, "--out", "p.csv"]) == 1
        assert run(["report", "--store", store, "--tops", tops, "--out", "rep"]) == 1
        assert "tops must be positive" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists() and not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("command", [
        ["report", "--intervals", "0", "--out", "rep"],
        ["report", "--intervals", "1,-5", "--out", "rep"],
        ["report", "--intervals", ",", "--out", "rep"],
        ["report", "--focus", "0", "--out", "rep"],
        ["hhi", "--scheme", "a1", "--focus", "0", "--out", "hhi.csv"],
        ["dispersion", "--focus", "-2", "--out", "disp.csv"],
        ["stability", "--top", "0", "--out", "s.csv"],
        ["stability", "--interval", "0", "--out", "s.csv"],
        ["dstatic", "--top", "0", "--out", "d.csv"],
    ])
    def test_bad_counts_write_nothing(self, store, tmp_path, monkeypatch, command):
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert run([*command, "--store", store]) == 1
        assert not any(work.iterdir())

    @pytest.mark.parametrize("counts", [{"intervals": [0]}, {"intervals": []},
                                        {"focus_n": 0}])
    def test_report_library_checks_counts_first(self, store, tmp_path, counts):
        out = tmp_path / "rep"
        with pytest.raises(ValueError, match="must be positive"):
            build_report(load_ledger(store), str(out), **counts)
        assert not out.exists()

    def test_invalid_utf8_is_data_error(self, tmp_path, monkeypatch, capsys):
        # Byte 0xff inside an address on line 2, from a file and from stdin.
        data = (rec("a", 0, [], [["x", 5]]) + "\n"
                + rec("b", 1, [], [["yZ", 5]]) + "\n").encode().replace(b"Z", b"\xff")
        src = tmp_path / "bad.jsonl"
        src.write_bytes(data)
        assert run(["ingest", "-i", str(src), "--store", str(tmp_path / "s1")]) == 2
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert run(["ingest", "--store", str(tmp_path / "s2")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and err[0] == err[1]
        assert "line 2: not valid UTF-8 (byte 0xff" in err[0]
        assert not (tmp_path / "s1").exists() and not (tmp_path / "s2").exists()

    def test_utf8_export_same_store_from_file_and_stdin(self, tmp_path, monkeypatch):
        lines = [{"txid": "a", "time": 0, "in": [], "out": [["caf\u00e9", 5]]},
                 {"txid": "b\u2028", "time": 9, "in": [["caf\u00e9", 5]],
                  "out": [["\U0001f600", 4]]}]
        data = "".join(json.dumps(l, ensure_ascii=False) + "\r\n" for l in lines).encode()
        src = tmp_path / "ok.jsonl"
        src.write_bytes(data)
        assert run(["ingest", "-i", str(src), "--store", str(tmp_path / "s1")]) == 0
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert run(["ingest", "--store", str(tmp_path / "s2")]) == 0
        # The same store as the library's text path writes.
        s1, s2, s3 = tmp_path / "s1", tmp_path / "s2", tmp_path / "s3"
        save_ledger(parse_ledger(io.StringIO(data.decode())), str(s3))
        for name in ("meta.json", "ledger.npz"):
            assert len({(s / name).read_bytes() for s in (s1, s2, s3)}) == 1
        assert load_ledger(str(s1)).addresses.names[1:] == ["caf\u00e9", "\U0001f600"]

    def test_epoch_far_before_first_tx_is_data_error(self, tmp_path):
        src = tmp_path / "c.jsonl"
        src.write_text(rec("a", 0, [], [["x", 5]]) + "\n")
        assert run(["ingest", "-i", str(src), "--store", str(tmp_path / "s"),
                    "--epoch", "-9223372036854720000"]) == 2

    @pytest.mark.parametrize("extra", [
        ["--partition-out", "part.json"],
        ["--partition-day", "5"],
        ["--partition-day", "5000", "--partition-out", "part.json"],
        ["--partition-day", "-1", "--partition-out", "part.json"],
        ["--scheme", "a1", "--dhhi", "dhhi.csv"],
    ])
    def test_hhi_bad_flags_write_nothing(self, store, tmp_path, monkeypatch, extra):
        monkeypatch.chdir(tmp_path)
        assert run(["hhi", "--store", store, "--scheme", "a3",
                    "--out", "hhi.csv", *extra]) == 1
        assert not any((tmp_path / f).exists()
                       for f in ("hhi.csv", "part.json", "dhhi.csv"))

    @pytest.mark.parametrize("extra", [
        ["--svg", "c.svg", "--curve-day", "30"],
        ["--svg", "c.svg", "--curve-day", "5000"],
        ["--svg", "c.svg", "--curve-day", "-3"],
        ["--curve-day", "5"],
    ])
    def test_dstatic_bad_curve_day_writes_nothing(self, store, tmp_path, monkeypatch, extra):
        monkeypatch.chdir(tmp_path)
        assert run(["dstatic", "--store", store, "--out", "d.csv", *extra]) == 1
        assert not (tmp_path / "d.csv").exists() and not (tmp_path / "c.svg").exists()

    def test_curve_day_without_funded_address(self, tmp_path, monkeypatch, capsys):
        # Days 0-2 of this store exist but hold no funded address, so there
        # is no curve to chart: `dstatic` and `report` with charts refuse
        # with the same message before writing any file of their output.
        src = tmp_path / "late.jsonl"
        src.write_text(rec("c0", 3 * 86_400, [], [["a", 5]]) + "\n"
                       + rec("p1", 4 * 86_400, [["a", 5]], [["b", 5]]) + "\n")
        store = str(tmp_path / "s")
        assert run(["ingest", "-i", str(src), "--epoch", "0", "--store", store]) == 0
        monkeypatch.chdir(tmp_path)
        assert run(["dstatic", "--store", store, "--out", "d.csv", "--svg", "c.svg",
                    "--curve-day", "1"]) == 1
        assert "curve day 1 has no funded address" in capsys.readouterr().err
        assert not (tmp_path / "d.csv").exists() and not (tmp_path / "c.svg").exists()
        assert run(["dstatic", "--store", store, "--out", "d.csv", "--svg", "c.svg",
                    "--curve-day", "3"]) == 0
        assert run(["report", "--store", store, "--out", "rep", "--curve-day", "1"]) == 1
        assert "curve day 1 has no funded address" in capsys.readouterr().err
        assert list((tmp_path / "rep").iterdir()) == []
        assert run(["report", "--store", store, "--out", "rep", "--curve-day", "1",
                    "--no-charts"]) == 0
        assert (tmp_path / "rep" / "report.json").exists()
        assert not (tmp_path / "rep" / "charts").exists()

    @pytest.mark.parametrize("day", ["30", "-3"])
    def test_report_bad_curve_day_writes_nothing(self, store, tmp_path, day):
        out = tmp_path / "rep"
        assert run(["report", "--store", store, "--out", str(out), "--curve-day", day]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        ["--nodes-day", "3"],
        ["--nodes-out", "nodes.csv"],
        ["--nodes-day", "30", "--nodes-out", "nodes.csv"],
        ["--nodes-day", "0", "--nodes-out", "nodes.csv"],
    ])
    def test_dispersion_bad_node_flags_write_nothing(self, store, tmp_path, monkeypatch,
                                                     extra):
        monkeypatch.chdir(tmp_path)
        assert run(["dispersion", "--store", store, "--out", "disp.csv", *extra]) == 1
        assert not (tmp_path / "disp.csv").exists() and not (tmp_path / "nodes.csv").exists()

    def test_dispersion_nodes_day_without_focus_graph(self, tmp_path, monkeypatch):
        # Day 1 is a day of the ledger, but it has no transaction, so its
        # focus graph has no node and `dispersion.csv` no row for it.
        monkeypatch.chdir(tmp_path)
        Path("two.jsonl").write_text(
            '{"txid":"a","time":0,"in":[],"out":[["x",100]]}\n'
            '{"txid":"b","time":200000,"in":[],"out":[["y",5]]}\n')
        assert run(["ingest", "--input", "two.jsonl", "--out", "store"]) == 0
        assert run(["dispersion", "--store", "store", "--nodes-day", "1",
                    "--nodes-out", "n.csv", "--out", "d.csv"]) == 0
        _, header, rows = read_csv("n.csv")
        assert header == ["day", "address", "degree", "pagerank"] and rows == []
        assert read_csv("d.csv")[2] == []

    @pytest.mark.parametrize("command", [
        ["stability", "--summary", "-"],
        ["dispersion", "--nodes-day", "3", "--nodes-out", "-"],
        ["hhi", "--scheme", "a3", "--dhhi", "-"],
        ["hhi", "--out", "h.csv", "--dhhi", "-", "--partition-day", "2",
         "--partition-out", "-"],
        ["dstatic", "--svg", "-"],
    ])
    def test_two_outputs_to_stdout_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                                  command):
        # Checked before the store loads: a missing store would be exit 2.
        monkeypatch.chdir(tmp_path)
        assert run([*command, "--store", str(tmp_path / "missing")]) == 1
        captured = capsys.readouterr()
        assert "standard output" in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", [
        ["hhi", "--scheme", "a1", "--dhhi", "x.csv"],
        ["hhi", "--partition-day", "3"],
        ["hhi", "--partition-out", "p.json"],
        ["dispersion", "--nodes-day", "3"],
        ["dispersion", "--nodes-out", "n.csv"],
        ["dstatic", "--curve-day", "3"],
    ], ids=["dhhi_a1", "partition_day", "partition_out", "nodes_day", "nodes_out",
            "curve_day"])
    def test_flag_pairing_is_usage_error_before_the_store_is_read(
            self, tmp_path, monkeypatch, capsys, command):
        # Decided from the command line alone: a missing store would be exit 2.
        monkeypatch.chdir(tmp_path)
        assert run([*command, "--store", "nowhere"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ledgerlens: --") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("seed", ["-1", str(2**128)])
    def test_hhi_seed_outside_philox_keys(self, store, tmp_path, monkeypatch, capsys,
                                          seed):
        monkeypatch.chdir(tmp_path)
        assert run(["hhi", "--store", store, "--scheme", "a2", "--seed", seed,
                    "--out", "h.csv"]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "h.csv").exists()

    def test_hhi_largest_seed(self, store, tmp_path):
        assert run(["hhi", "--store", store, "--scheme", "a2", "--seed", str(2**128 - 1),
                    "--out", str(tmp_path / "h.csv")]) == 0

    def test_synth_negative_halving_days(self, tmp_path, capsys):
        out = tmp_path / "chain.jsonl"
        assert run(["synth", "--days", "3", "--halving-days", "-1",
                    "--out", str(out)]) == 1
        assert "halving_days" in capsys.readouterr().err
        assert not out.exists()

    def test_truncated_meta_is_data_error(self, store, tmp_path, capsys):
        meta = Path(store) / "meta.json"
        meta.write_bytes(meta.read_bytes()[:40])
        assert run(["dstatic", "--store", store, "--out", str(tmp_path / "d.csv")]) == 2
        assert "meta.json" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["short_txids", "huge_address_id"])
    @pytest.mark.parametrize("command", [["snapshot", "--dump-day", "0"],
                                         ["hhi", "--scheme", "a2"], ["report"]],
                             ids=["snapshot", "hhi", "report"])
    def test_inconsistent_store_is_data_error(self, store, tmp_path, capsys, damage, command):
        def change(arrays):
            if damage == "short_txids":
                txids = json.loads(arrays["txids"].tobytes())
                arrays["txids"] = _pack_strings(txids[:-1])
            else:
                arrays["out_addr"][0] = 10**6

        rewrite_arrays(store, change)
        out = tmp_path / "out"
        assert run(command + ["--store", store, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("ledgerlens: store at ")
        assert "is corrupt" in err
        assert not out.exists()

    @pytest.mark.parametrize("epoch", ["x", [], 3600])
    @pytest.mark.parametrize("command", [["snapshot", "--dump-day", "0"], ["stability"],
                                         ["report"]], ids=["snapshot", "stability", "report"])
    def test_edited_epoch_is_data_error(self, store, tmp_path, capsys, epoch, command):
        # meta.json is not hashed; an epoch ingest never writes is refused
        # as a corrupt store, not a TypeError or an unnamed LedgerError.
        meta_path = Path(store) / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["epoch_start"] = epoch
        meta_path.write_text(json.dumps(meta))
        out = tmp_path / "out"
        assert run(command + ["--store", store, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"ledgerlens: store at {store!r} is corrupt (epoch_start ")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["hhi", "--scheme", "a2"], ["report"]],
                             ids=["hhi", "report"])
    def test_modularity_without_networkx(self, store, tmp_path, monkeypatch, capsys, command):
        # One line naming the extra, before any output is written.
        monkeypatch.setitem(sys.modules, "networkx", None)
        out = tmp_path / "out"
        assert run(command + ["--store", store, "--method", "modularity",
                              "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "ledgerlens[modularity]" in err
        assert not out.exists()

    def test_out_of_memory_is_data_error(self, store, tmp_path, monkeypatch, capsys):
        def exhausted(path):
            raise MemoryError("Unable to allocate 68.7 MiB for an array with shape "
                              "(9003000,) and data type int64")
        monkeypatch.setattr(cli, "load_ledger", exhausted)
        assert run(["dstatic", "--store", store, "--out", str(tmp_path / "d.csv")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "out of memory" in err
        assert "Traceback" not in err

    def test_truncated_store_is_data_error(self, store, tmp_path):
        npz = Path(store) / "ledger.npz"
        data = npz.read_bytes()
        npz.write_bytes(data[: len(data) // 2])
        assert run(["dstatic", "--store", store, "--out", str(tmp_path / "d.csv")]) == 2

    def test_store_env_fallback(self, store, tmp_path, monkeypatch):
        monkeypatch.setenv("LEDGERLENS_STORE", store)
        assert run(["dstatic", "--top", "10", "--out", str(tmp_path / "d.csv")]) == 0


class TestDayRange:
    def test_windowed_rows(self, store, tmp_path):
        out = tmp_path / "d.csv"
        assert run(["dstatic", "--store", store, "--top", "10",
                    "--day-range", "5:9", "--out", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert [int(r[0]) for r in rows] == [5, 6, 7, 8, 9]

    def test_report_windowed(self, store, tmp_path):
        out = tmp_path / "rep"
        assert run(["report", "--store", store, "--tops", "5,10",
                    "--intervals", "1", "--focus", "5", "--no-charts",
                    "--day-range", "10:12", "--out", str(out)]) == 0
        _, _, rows = read_csv(out / "proportions.csv")
        assert [int(r[0]) for r in rows] == [10, 11, 12]
        _, _, hhi_rows = read_csv(out / "hhi.csv")
        assert {int(r[0]) for r in hhi_rows} == {10, 11, 12}

    def test_invalid_range_is_usage_error(self, store, tmp_path):
        assert run(["dstatic", "--store", store, "--day-range", "9:5",
                    "--out", str(tmp_path / "d.csv")]) == 1

    @pytest.mark.parametrize("command", [
        ["proportions", "--tops", "5,10"],
        ["proportions", "--tops", "5,10", "--long"],
        ["stability", "--top", "10", "--interval", "2", "--summary", "summary.json"],
        ["stability", "--metric", "retention", "--mode", "penalized",
         "--summary", "summary.json"],
        ["dstatic", "--top", "10"],
        ["dispersion", "--focus", "10"],
        ["hhi", "--scheme", "a1"],
        ["hhi", "--scheme", "a2", "--focus", "10"],
        ["hhi", "--scheme", "a3", "--focus", "10", "--dhhi", "d_hhi.csv"],
        ["report", "--tops", "5,10", "--intervals", "1,3", "--focus", "10", "--no-charts"],
    ], ids=["proportions", "proportions_long", "stability_summary", "retention_summary",
            "dstatic", "dispersion", "hhi_a1", "hhi_a2", "hhi_a3_dhhi", "report"])
    def test_window_of_full_run(self, store, tmp_path, monkeypatch, command):
        # Every CSV row of a windowed run is the full run's row of that day,
        # and every summary is the one of the full series cut to the window.
        lo, hi = 6, 17
        for name, window in (("full", []), ("part", ["--day-range", f"{lo}:{hi}"])):
            (tmp_path / name).mkdir()
            monkeypatch.chdir(tmp_path / name)
            assert run([*command, "--store", store, "--out", "out", *window]) == 0
        full, part = tmp_path / "full", tmp_path / "part"
        files = sorted(p.relative_to(full) for p in full.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(part) for p in part.rglob("*") if p.is_file())

        def cut(by_day: dict) -> dict:
            # In day order: report.json sorts its day keys as strings.
            return {d: by_day[d] for d in sorted(by_day, key=int) if lo <= int(d) <= hi}

        def summary(values) -> dict | None:
            defined = [v for v in values if v is not None and v == v]
            return summarize(defined).to_dict() if defined else None

        for name in files:
            if name.suffix == ".json":
                continue
            _, header, rows = read_csv(full / name)
            assert read_csv(part / name)[1:] == (header, [r for r in rows
                                                          if lo <= int(r[0]) <= hi]), name
        if command[0] == "stability":
            _, _, rows = read_csv(full / "out")
            want = summary(float(r[1]) for r in rows if lo <= int(r[0]) <= hi)
            assert json.loads((part / "summary.json").read_text())["summary"] == want
        if command[0] == "report":
            want, got = (json.loads((d / "out" / "report.json").read_text())
                         for d in (full, part))
            days = [d for d in want["proportions"]["days"] if lo <= d <= hi]
            assert got["proportions"]["days"] == got["proportion_diffs"]["days"] == days
            for key in ("proportions", "proportion_diffs"):
                assert got[key]["values"] == [want[key]["values"][d] for d in days]
            series = {k: cut(v) for k, v in want["stability"]["series"].items()}
            summaries = {k: summary(v.values()) for k, v in series.items()}
            summaries = {k: v for k, v in summaries.items() if v is not None}
            assert got["stability"] == {"series": series, "summaries": summaries}
            assert json.loads((part / "out" / "stability_summary.json").read_text())[
                "summaries"] == summaries
            assert got["d_static"]["values"] == cut(want["d_static"]["values"])
            assert got["d_hhi"] == cut(want["d_hhi"])
            for key in ("dispersion", "hhi"):
                assert got[key] == {k: cut(v) for k, v in want[key].items()}
            assert got["meta"]["params"]["day_range"] == [lo, hi]


class TestOnePathPerTable:
    """Each single-metric command emits the same data rows as the matching
    `report` file at the same parameters; only the `# config` lines differ."""

    @pytest.mark.parametrize("day_range", [[], ["--day-range", "6:17"]],
                             ids=["all-days", "window"])
    def test_commands_match_report(self, store, tmp_path, capsys, day_range):
        rep = tmp_path / "rep"
        assert run(["report", "--store", store, "--tops", "5,10,20", "--intervals", "1,3",
                    "--focus", "10", "--no-charts", "--out", str(rep), *day_range]) == 0

        def rows(args, flag="--out"):
            assert run([*args, "--store", store, *day_range, flag, "-"]) == 0
            _, header, body = parse_csv(capsys.readouterr().out)
            return header, body

        def report_rows(name, keep=lambda row: True):
            _, header, body = read_csv(rep / name)
            return header, [r for r in body if keep(r)]

        assert rows(["proportions", "--tops", "5,10,20"]) == report_rows("proportions.csv")
        assert (rows(["proportions", "--tops", "5,10,20", "--long"])
                == report_rows("proportions_long.csv"))
        assert rows(["dstatic", "--top", "20"]) == report_rows("d_static.csv")
        assert rows(["dispersion", "--focus", "10"]) == report_rows("dispersion.csv")
        for scheme in ("a1", "a2", "a3"):
            assert (rows(["hhi", "--scheme", scheme, "--focus", "10"])
                    == report_rows("hhi.csv", lambda r, s=scheme: r[1] == s))
        assert rows(["hhi", "--scheme", "a3", "--focus", "10",
                     "--out", str(tmp_path / "a3.csv")], "--dhhi") == report_rows("d_hhi.csv")
        header, body = rows(["stability", "--metric", "retention", "--top", "10",
                             "--interval", "3"])
        _, stab = report_rows("stability.csv", lambda r: r[1:4] == ["retention", "10", "3"])
        assert header == ["day", "value"] and body == [[r[0], r[4]] for r in stab]
        assert body and (not day_range or {int(r[0]) for r in body} <= set(range(6, 18)))

        # A file output holds the same bytes as standard output.
        out = tmp_path / "d.csv"
        assert run(["dstatic", "--top", "20", "--store", store, *day_range,
                    "--out", str(out)]) == 0
        assert run(["dstatic", "--top", "20", "--store", store, *day_range,
                    "--out", "-"]) == 0
        assert capsys.readouterr().out == out.read_text()


# Address space for each child of TestBoundedMemory and TestLongHistoryMemory:
# Python and numpy alone take about 110-130 MiB of it.
CHILD_AS_LIMIT = 256 << 20


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_AS_LIMIT, CHILD_AS_LIMIT))


def _child_env(threads: str = "1") -> dict[str, str]:
    """The environment of a `python -m ledgerlens` child: this package on
    its path and `threads` BLAS threads."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join(filter(None, [package_root,
                                                         os.environ.get("PYTHONPATH")])))


def _run_in_256_mib(argv: list[str]) -> subprocess.CompletedProcess:
    """Run `ledgerlens argv` in a child limited to CHILD_AS_LIMIT of
    address space, with one BLAS thread."""
    return subprocess.run([sys.executable, "-m", "ledgerlens", *argv], env=_child_env(),
                          preexec_fn=_limit_address_space, capture_output=True, text=True,
                          timeout=300)


class TestBoundedMemory:
    """One 3000-in x 3000-out transaction is 9M input/output pairs, but
    only the pairs touching a focus address are ever expanded."""

    @pytest.fixture(scope="class")
    def wide_store(self, tmp_path_factory):
        width = 3000
        funded = [[f"in{i:04d}", 1_000_000 + i] for i in range(width)]
        paid = [[f"out{i:04d}", 1_000_000 + i] for i in range(width)]
        ledger = parse_ledger([rec("mint", 0, [], funded), rec("sweep", DAY, funded, paid)])
        store = tmp_path_factory.mktemp("wide") / "store"
        save_ledger(ledger, str(store))
        return str(store)

    @pytest.mark.parametrize("command", [
        ["hhi", "--scheme", "a2", "--out"],
        ["hhi", "--scheme", "a3", "--out"],
        ["dispersion", "--value-weighted", "--out"],
        ["report", "--no-charts", "--out"],
    ], ids=["hhi_a2", "hhi_a3", "dispersion_value_weighted", "report"])
    def test_wide_transaction_runs_in_256_mib(self, wide_store, tmp_path, command):
        done = _run_in_256_mib([*command, str(tmp_path / "out"), "--store", wide_store])
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "out").exists()


class TestLongHistoryMemory:
    """5000 funded addresses over 2000 days: every day's top-5000 ranking
    kept at once would take about 160 MB, but `dstatic`, `proportions` and
    `hhi --scheme a1` hold one day's ranking at a time, `stability` the
    lists of the last interval + 1 days, and `report` those lists plus
    each day's top `--focus`.  `hhi --scheme a3` keeps each day's top
    `--focus` and looks up and sweeps the days' focus graphs a block of
    days at a time."""

    @pytest.fixture(scope="class")
    def long_store(self, tmp_path_factory):
        width, days = 5000, 2000
        lines = [rec("mint", 0, [], [[f"h{i:04d}", 1_000_000 + i] for i in range(width)])]
        lines += [rec(f"t{d}", d * DAY, [[f"h{d % width:04d}", 1]],
                      [[f"h{(d + 1) % width:04d}", 1]]) for d in range(1, days)]
        store = tmp_path_factory.mktemp("long") / "store"
        save_ledger(parse_ledger(lines), str(store))
        return str(store)

    # A stability row is a day pair, so its series is `interval` days short.
    @pytest.mark.parametrize("command, rows", [
        (["dstatic", "--top", "5000"], 2000),
        (["proportions", "--tops", "5000"], 2000),
        (["hhi", "--scheme", "a1", "--focus", "5000"], 2000),
        (["hhi", "--scheme", "a3", "--focus", "2000"], 2000),
        (["stability", "--top", "5000"], 1999),
        (["stability", "--top", "5000", "--interval", "5", "--mode", "penalized"], 1995),
    ], ids=["dstatic", "proportions", "hhi_a1", "hhi_a3", "stability", "stability_penalized"])
    def test_long_history_runs_in_256_mib(self, long_store, tmp_path, command, rows):
        out = tmp_path / "out.csv"
        done = _run_in_256_mib([*command, "--out", str(out), "--store", long_store])
        assert done.returncode == 0, done.stderr
        assert len(read_csv(out)[2]) == rows

    def test_report_runs_in_256_mib(self, long_store, tmp_path):
        out = tmp_path / "report"
        done = _run_in_256_mib(["report", "--no-charts", "--tops", "5000", "--out", str(out),
                                "--store", long_store])
        assert done.returncode == 0, done.stderr
        assert len(read_csv(out / "d_static.csv")[2]) == 2000


class TestIngestMemory:
    """Ingest frees the duplicate check's txid set and the name index once
    every line has passed, packs the txids and builds the ledger one column
    at a time; a copy of the whole history beside that parse state does not
    fit.  While lines are read, memory beyond the columns is one chunk's
    decoded records."""

    def test_ingest_runs_in_256_mib(self, tmp_path):
        # 400 000 coinbase records with 64-character txids.
        n = 400_000
        export = tmp_path / "chain.jsonl"
        with open(export, "w") as fp:
            fp.writelines('{"txid":"%064d","time":%d,"in":[],"out":[["a%d",%d]]}\n'
                          % (i, i // 4, i % 1000, 1000 + i) for i in range(n))
        store = tmp_path / "store"
        done = _run_in_256_mib(["ingest", "--input", str(export), "--out", str(store)])
        assert done.returncode == 0, done.stderr
        assert json.loads((store / "meta.json").read_text())["transactions"] == n

    def test_wide_lines_run_in_256_mib(self, tmp_path):
        # 6400 lines of 200 entries with 40-character addresses: seven
        # chunks of 1024 lines.  One chunk's decoded records take about
        # 80 MiB of the child's address space beside its 106 MiB at start,
        # so one chunk's records fit and two would not.
        n, width = 6400, 200
        export = tmp_path / "chain.jsonl"
        with open(export, "w") as fp:
            for i in range(n):
                outs = ",".join('["a%039d",%d]' % ((i * width + j) % 3000, 1 + j)
                                for j in range(width))
                fp.write('{"txid":"t%d","time":%d,"in":[],"out":[%s]}\n' % (i, i, outs))
        store = tmp_path / "store"
        done = _run_in_256_mib(["ingest", "--input", str(export), "--out", str(store)])
        assert done.returncode == 0, done.stderr
        meta = json.loads((store / "meta.json").read_text())
        assert (meta["transactions"], meta["addresses"]) == (n, 3001)

    def test_lines_ten_times_wider_run_in_256_mib(self, tmp_path):
        # 400 lines of 2000 entries, about 99 kB each.  Cut by lines alone,
        # the 400 lines are one chunk, whose decoded records do not fit;
        # a chunk ends before its lines pass 1 MiB, so each holds 10 lines.
        n, width = 400, 2000
        export = tmp_path / "chain.jsonl"
        with open(export, "w") as fp:
            for i in range(n):
                outs = ",".join('["a%039d",%d]' % ((i * width + j) % 3000, 1 + j)
                                for j in range(width))
                fp.write('{"txid":"t%d","time":%d,"in":[],"out":[%s]}\n' % (i, i, outs))
        store = tmp_path / "store"
        done = _run_in_256_mib(["ingest", "--input", str(export), "--out", str(store)])
        assert done.returncode == 0, done.stderr
        meta = json.loads((store / "meta.json").read_text())
        assert (meta["transactions"], meta["addresses"]) == (n, 3001)


class TestReportTieGroups:
    """20 000 equal balances: every day's top 10 is cut from a tie group of
    20 000 candidates.  Kept unordered for 500 days they would take about
    160 MB; `report`'s one walk orders each day's ids as the day passes,
    which drops its candidates, and keeps its top 10."""

    @pytest.fixture(scope="class")
    def tied_store(self, tmp_path_factory):
        width, days = 20_000, 500
        lines = [rec("mint", 0, [], [[f"h{i:05d}", 1_000] for i in range(width)])]
        lines += [rec(f"t{d}", d * DAY, [["h00000", 1]], [["h00001", 1]])
                  for d in range(1, days)]
        store = tmp_path_factory.mktemp("tied") / "store"
        save_ledger(parse_ledger(lines), str(store))
        return str(store)

    def test_report_runs_in_256_mib(self, tied_store, tmp_path):
        out = tmp_path / "report"
        done = _run_in_256_mib(["report", "--tops", "10", "--intervals", "1", "--focus", "10",
                                "--no-charts", "--out", str(out), "--store", tied_store])
        assert done.returncode == 0, done.stderr
        assert len(read_csv(out / "hhi.csv")[2]) == 3 * 500


# A ledger whose day-3 focus graph has a degree and a PageRank dispersion
# of 3.0000000000000004 and 3.000000000000001, so `dispersion.svg` spans a
# y range two ULPs wide.
ULP_WIDE_EXPORT = [
    rec("t0", 259200, [], [["d", 4]]),
    rec("t1", 259200, [], [["f", 333332], ["e", 333332], ["a", 333333]]),
    rec("t2", 259200, [["f", 192524], ["a", 101340]], [["\u00e9", 293864]]),
    rec("t3", 0, [], [["b", 1], ["zz", 1], ["a", 1]]),
    rec("t4", 1, [], [["\u00e9", 1000000]]),
    rec("t5", 86399, [], [["zz", 4611686018427387903]]),
    rec("t6", 0, [], [["zz", 1], ["zz", 1]]),
]


class TestChartTicks:
    """A tick step below half an ULP of the tick value never moves it; the
    tick loop must still end.  Both run in a bounded child."""

    def test_ticks_over_a_range_two_ulps_wide(self):
        code = ("from ledgerlens.svg import _nice_ticks; "
                "print(_nice_ticks(3.0000000000000004, 3.000000000000001))")
        done = subprocess.run([sys.executable, "-c", code], env=_child_env(),
                              preexec_fn=_limit_address_space, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[3.0000000000000004]\n"

    def test_report_charts_a_range_two_ulps_wide(self, tmp_path):
        store = tmp_path / "store"
        save_ledger(parse_ledger(ULP_WIDE_EXPORT), str(store))
        out = tmp_path / "report"
        done = _run_in_256_mib(["report", "--tops", "1,3", "--intervals", "1,2", "--focus", "2",
                                "--out", str(out), "--store", str(store)])
        assert done.returncode == 0, done.stderr
        day3 = sorted(r[2] for r in read_csv(out / "dispersion.csv")[2] if r[0] == "3")
        assert day3 == ["3.0000000000000004", "3.000000000000001"]
        assert (out / "charts" / "dispersion.svg").read_text().startswith("<svg")


class TestBlasThreads:
    """Sums over more than 10 000 floats are where a threaded BLAS `dot`
    splits its work, so the thread count would move their last digits; no
    output may depend on it."""

    @pytest.fixture(scope="class")
    def deep_store(self, tmp_path_factory):
        # 12 000 funded addresses, then a mint to 11 000 of them and 1000
        # new ones: the A1 sum of squares, the 11 000-deep focus sum and
        # the Spearman pair of the two top-12 000 lists all sum more than
        # 10 000 floats.
        rng = np.random.default_rng(5)
        days = [[[f"h{i:05d}", int(rng.integers(1, 10**12))] for i in range(lo, lo + 12_000)]
                for lo in (0, 1000)]
        ledger = parse_ledger([rec(f"mint{d}", d * DAY, [], outs) for d, outs in enumerate(days)])
        store = tmp_path_factory.mktemp("deep") / "store"
        save_ledger(ledger, str(store))
        return str(store)

    @pytest.mark.parametrize("command", [
        ["hhi", "--scheme", "a1"],
        ["hhi", "--scheme", "a2", "--focus", "11000"],
        ["stability", "--top", "12000"],
    ], ids=["hhi_a1", "hhi_a2", "stability"])
    def test_outputs_do_not_depend_on_blas_threads(self, deep_store, command):
        outputs = []
        for threads in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-m", "ledgerlens", *command, "--store", deep_store],
                env=_child_env(threads), capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]


def test_startup_does_not_import_numpy_random():
    # numpy.random takes about 10 ms to import; only `synth` and seeded
    # label sweeps use it, and they reach it when they run.
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "ledgerlens", "--version"],
                          env=_child_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    modules = [line.rpartition("|")[2].strip() for line in done.stderr.splitlines()]
    assert "numpy" in modules
    assert [m for m in modules if m.startswith("numpy.random")] == []
