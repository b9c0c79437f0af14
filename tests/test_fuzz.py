"""Every command on small random exports: each one either answers or
refuses with one `ledgerlens:` line, and stability answers match oracles.

An export holds at most 20 records over a few days: tied values, values of
2**62, repeated and non-ASCII names, spends of up to an address's balance
and records written out of time order.  Each goes through `ingest` and then
every analysis command, in-process through `cli.run`.  A second test
damages each store first: a truncated or byte-flipped `ledger.npz`, or a
`meta.json` field set to any JSON value.
"""

import contextlib
import functools
import io
import json
import os
import tempfile

from hypothesis import given, settings, strategies as st

from ledgerlens import load_ledger
from ledgerlens.cli import run
from conftest import DAY
from oracles import spearman_int

NAMES = ["a", "b", "zz", "a b", "é", "日本", "éé"]
MINTED = st.sampled_from([1, 1, 2, 3, 4, 7, 2**62])


@st.composite
def exports(draw):
    """Records in file order, each spend funded in time order, so every
    day-end balance is non-negative."""
    n = draw(st.integers(0, 20))
    times = sorted(draw(st.lists(
        st.builds(lambda day, second: day * DAY + second, st.integers(0, 3),
                  st.sampled_from([0, 1, 5, DAY - 1])),
        min_size=n, max_size=n)))
    balances: dict[str, int] = {}
    minted = 0
    records = []
    for k, t in enumerate(times):
        ins = []
        for name in draw(st.lists(st.sampled_from(NAMES), max_size=3)):
            if balances.get(name, 0) > 0:
                value = draw(st.integers(1, balances[name]))
                balances[name] -= value
                ins.append([name, value])
        outs = []
        if ins:
            # Spend everything or leave a fee, in up to three outputs.
            left = sum(v for _, v in ins)
            while left and len(outs) < 3:
                value = draw(st.sampled_from([left, 1, max(left // 2, 1)]))
                outs.append([draw(st.sampled_from(NAMES)), value])
                left -= value
        else:
            for _ in range(draw(st.integers(1, 3))):
                # Keep the minted supply within int64, which ingest checks.
                value = draw(MINTED)
                value = value if minted + value < 2**63 else 1
                minted += value
                outs.append([draw(st.sampled_from(NAMES)), value])
        for name, value in outs:
            balances[name] = balances.get(name, 0) + value
        records.append({"txid": f"t{k}", "time": t, "in": ins, "out": outs})
    return draw(st.permutations(records))


def call(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    err = err.getvalue()
    assert code == 0 or (code in (1, 2) and err.startswith("ledgerlens: ")
                         and err.count("\n") == 1 and "out of memory" not in err), \
        (argv, code, err)
    return code


def day_lists(records):
    """Each day's funded (name, balance) pairs, largest first and ties by
    name, from a plain replay of each day's records."""
    if not records:
        return []
    records = sorted(records, key=lambda r: r["time"])
    day0 = records[0]["time"] // DAY
    balances: dict[str, int] = {}
    days = []
    for r in records:
        while len(days) < r["time"] // DAY - day0:
            days.append(sorted(((n, b) for n, b in balances.items() if b),
                               key=lambda e: (-e[1], e[0])))
        for name, value in r["in"]:
            balances[name] = balances.get(name, 0) - value
        for name, value in r["out"]:
            balances[name] = balances.get(name, 0) + value
    days.append(sorted(((n, b) for n, b in balances.items() if b),
                       key=lambda e: (-e[1], e[0])))
    return days


def expected(days, metric, n, interval, mode):
    out = {}
    for d in range(len(days) - interval):
        a, b = days[d][:n], days[d + interval][:n]
        if metric == "retention":
            shared = {k for k, _ in a} & {k for k, _ in b}
            out[d] = len(shared) / max(len(a), len(b)) if a or b else 1.0
        else:
            out[d] = spearman_int(a, b, mode) if a and b else None
    return out


def rows(path):
    with open(path) as fp:
        lines = [line.rstrip("\n").split(",") for line in fp if not line.startswith("#")]
    return lines[0], lines[1:]


def value(cell):
    return None if cell == "nan" else float(cell)


@settings(max_examples=25, deadline=None)
@given(records=exports(), top=st.integers(2, 6), interval=st.integers(1, 3),
       focus=st.integers(1, 3))
def test_every_command_answers_or_refuses(records, top, interval, focus):
    with tempfile.TemporaryDirectory() as tmp:
        export, store = os.path.join(tmp, "x.jsonl"), os.path.join(tmp, "store")
        with open(export, "w", encoding="utf-8") as fp:
            fp.writelines(json.dumps(r) + "\n" for r in records)
        if call(["ingest", "--input", export, "--out", store]):
            return
        days = day_lists(records)
        last = str(max(len(days) - 1, 0))
        out = functools.partial(os.path.join, tmp)
        queries = {}
        for metric, mode in (("spearman", "intersection"), ("spearman", "penalized"),
                             ("retention", "intersection")):
            name = out(f"{metric}_{mode}.csv")
            if not call(["stability", "--store", store, "--metric", metric, "--mode", mode,
                         "--top", str(top), "--interval", str(interval),
                         "--summary", out(f"{metric}_{mode}.json"), "--out", name]):
                queries[(metric, mode)] = name
        for argv in (["snapshot", "--dump-day", last, "--out", out("snapshot.csv")],
                     ["proportions", "--tops", f"{top},{top + 2}", "--out", out("p.csv")],
                     ["dstatic", "--top", str(top), "--svg", out("c.svg"),
                      "--out", out("d.csv")],
                     ["dispersion", "--value-weighted", "--focus", str(focus),
                      "--nodes-day", last, "--nodes-out", out("n.csv"), "--out", out("s.csv")],
                     *(["hhi", "--scheme", scheme, "--focus", str(focus),
                        "--partition-day", last, "--partition-out", out(f"{scheme}.json"),
                        "--out", out(f"{scheme}.csv")] for scheme in ("a1", "a2", "a3"))):
            call(argv[:1] + ["--store", store] + argv[1:])
        reports = {}
        for mode, charts in (("intersection", []), ("penalized", ["--no-charts"])):
            if not call(["report", "--store", store, "--out", out(mode), "--mode", mode,
                         "--tops", f"{top},{top + 2}", "--intervals", f"1,{interval}",
                         "--focus", str(focus), *charts]):
                reports[mode] = os.path.join(out(mode), "stability.csv")

        for (metric, mode), path in queries.items():
            header, body = rows(path)
            assert header == ["day", "value"]
            got = {int(d): value(v) for d, v in body}
            assert got == expected(days, metric, top, interval, mode)
        specs = {(metric, n, i) for metric in ("spearman", "retention")
                 for n, i in ((focus, 1), (focus, interval), (top, 1), (top + 2, 1))}
        for mode, path in reports.items():
            header, body = rows(path)
            assert header == ["day", "metric", "top", "interval", "value"]
            got = {spec: {} for spec in specs}
            for d, metric, n, i, v in body:
                got[(metric, int(n), int(i))][int(d)] = value(v)
            assert got == {spec: expected(days, *spec, mode) for spec in specs}


# Any JSON value, with whole days near the exports' times among them.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.integers(-3, 3).map(lambda k: k * DAY),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=4)


@settings(max_examples=25, deadline=None)
@given(records=exports().filter(len), data=st.data())
def test_damaged_store_answers_or_refuses(records, data):
    # A damaged store is refused in one line with exit 2, or answers only
    # if it still holds the ledger that was ingested (a flipped byte the
    # zip layer ignores, or a meta.json edit ingest could have written).
    with tempfile.TemporaryDirectory() as tmp:
        out = functools.partial(os.path.join, tmp)
        store, npz, meta_path = out("store"), out("store", "ledger.npz"), out("store", "meta.json")
        with open(out("x.jsonl"), "w", encoding="utf-8") as fp:
            fp.writelines(json.dumps(r) + "\n" for r in records)
        if call(["ingest", "--input", out("x.jsonl"), "--out", store]):
            return
        ingested = load_ledger(store).canonical_bytes()
        with open(meta_path) as fp:
            meta = json.load(fp)
        last = str(meta["days"] - 1)
        with open(npz, "rb") as fp:
            blob = bytearray(fp.read())
        kind = data.draw(st.sampled_from(["truncate", "flip", "meta"]))
        if kind == "truncate":
            del blob[data.draw(st.integers(0, len(blob) - 1)):]
        elif kind == "flip":
            blob[data.draw(st.integers(0, len(blob) - 1))] ^= data.draw(st.integers(1, 255))
        else:
            meta[data.draw(st.sampled_from(sorted(meta)))] = data.draw(JSON_VALUES)
            with open(meta_path, "w") as fp:
                json.dump(meta, fp)
        with open(npz, "wb") as fp:
            fp.write(blob)
        for argv in (["snapshot", "--dump-day", last], ["proportions"],
                     ["stability", "--mode", "penalized", "--summary", out("s.json")],
                     ["dstatic", "--svg", out("c.svg")],
                     ["dispersion", "--value-weighted"],
                     ["hhi", "--scheme", "a3", "--dhhi", out("d.csv")], ["report"]):
            argv = argv[:1] + ["--store", store, "--out", out(argv[0])] + argv[1:]
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run(argv)
            err = err.getvalue()
            if code:
                assert code == 2 and err.startswith("ledgerlens: ") and err.count("\n") == 1, \
                    (kind, argv, code, err)
            else:
                assert kind != "truncate" and load_ledger(store).canonical_bytes() == ingested
