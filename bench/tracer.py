"""In-process tracer for the benchmark's traced run.

The tracer wraps package functions from outside: each wrapper is installed
on every module attribute through which the CLI, ``report`` and the metric
modules look the function up, and records a span (name, start, end, parent
span, thread) plus counts taken from the call's arguments and result.
Spans are kept in memory and written out once, when the run ends.  A name
that no longer exists is recorded as absent and skipped.
"""

import inspect
import json
import os
import threading
import time
from collections import Counter


def tree_bytes(path: str) -> int:
    """Summed size of the files under `path`."""
    return sum(os.path.getsize(os.path.join(r, f)) for r, _, fs in os.walk(path) for f in fs)


# Counts taken after a call: (bound arguments, result, counts) -> None.

def _after_parse(args, ledger, counts):
    counts["ledger.txs"] += len(ledger)
    counts["ledger.entries"] += len(ledger.in_addr) + len(ledger.out_addr)
    counts["ledger.out_of_order"] += ledger.out_of_order


def _after_expand(args, edges, counts):
    counts["ledger.edges"] += len(edges.src)


def _after_save(args, meta, counts):
    counts["store.bytes"] += tree_bytes(args["store_dir"])


def _after_series(args, series, counts):
    counts["stability.pairs"] += len(series.values)


def _after_day_graph(args, graph, counts):
    counts["txgraph.graph_edges"] += graph.n_edges


def _after_pair_scan(args, weights, counts):
    # Cumulative edges of days 0..day that the scan reads.
    edges = args["ledger"].expanded_edges()
    counts["market.pair_scan_edges"] += int(edges.day_ptr[args["day"] + 1])


def _after_report(args, bundle, counts):
    counts["report.bytes"] += tree_bytes(args["out_dir"])


def _hhi_span(args) -> str:
    return f"market.hhi_{str(args['scheme']).lower()}"


def _counter(name):
    def after(args, result, counts):
        counts[name] += 1
    return after


# (module, attribute, span name or function of the bound arguments, after).
TARGETS = [
    ("cli", "parse_ledger", "ledger.parse", _after_parse),
    ("ledger", "Ledger._expand", "ledger.expand", _after_expand),
    ("cli", "save_ledger", "store.save", _after_save),
    ("cli", "load_ledger", "store.load", _counter("store.loads")),
    ("cli", "compute_rankings", "balances.rankings", None),
    ("report", "compute_rankings", "balances.rankings", None),
    ("balances", "rank_balances", "balances.rank", _counter("balances.rank_calls")),
    ("market", "rank_balances", "balances.rank", _counter("balances.rank_calls")),
    ("balances", "_apply_day", "balances.apply_day", _counter("balances.day_applies")),
    ("market", "_apply_day", "balances.apply_day", _counter("balances.day_applies")),
    ("store", "_apply_day", "balances.apply_day", _counter("balances.day_applies")),
    # `proportions` imports proportion_series from balances at call time.
    ("balances", "proportion_series", "balances.proportions", None),
    ("report", "proportion_series", "balances.proportions", None),
    ("cli", "d_static_series", "lorenz.dstatic", None),
    ("report", "d_static_series", "lorenz.dstatic", None),
    ("cli", "stability_series", "stability.series", _after_series),
    ("report", "stability_series", "stability.series", _after_series),
    ("cli", "dispersion_series", "txgraph.dispersion", None),
    ("report", "dispersion_series", "txgraph.dispersion", None),
    ("cli", "build_day_graph", "txgraph.day_graph", _after_day_graph),
    ("txgraph", "build_day_graph", "txgraph.day_graph", _after_day_graph),
    ("cli", "pagerank", "txgraph.pagerank", None),
    ("txgraph", "pagerank", "txgraph.pagerank", None),
    ("cli", "hhi_series", _hhi_span, None),
    ("report", "hhi_series", _hhi_span, None),
    ("market", "_focus_pair_weights", "market.pair_scan", _after_pair_scan),
    ("market", "label_propagation", "market.label_propagation", _counter("market.lp_calls")),
    ("cli", "build_report", "report.build", _after_report),
    ("cli", "line_chart", "svg.chart", None),
    ("report", "line_chart", "svg.chart", None),
    ("report", "box_plot", "svg.chart", None),
]

# Counts a traced round reports even when they stay 0.
COUNTS = (
    "ledger.txs", "ledger.entries", "ledger.out_of_order", "ledger.edges",
    "store.bytes", "store.loads", "balances.rank_calls", "balances.day_applies",
    "stability.series_calls", "stability.pairs", "txgraph.day_graphs",
    "txgraph.graph_edges", "market.pair_scan_edges", "market.lp_calls",
    "report.bytes",
)
# Per-layer times: metric name -> span name, summed over spans (and over
# worker threads for the functions the thread pools call).
TIMES = {
    "ledger.parse_s": "ledger.parse",
    "ledger.expand_s": "ledger.expand",
    "store.save_s": "store.save",
    "store.load_s": "store.load",
    "balances.rankings_s": "balances.rankings",
    "balances.proportions_s": "balances.proportions",
    "lorenz.dstatic_s": "lorenz.dstatic",
    "stability.series_s": "stability.series",
    "txgraph.dispersion_s": "txgraph.dispersion",
    "txgraph.pagerank_s": "txgraph.pagerank",
    "market.hhi_a1_s": "market.hhi_a1",
    "market.hhi_a2_s": "market.hhi_a2",
    "market.hhi_a3_s": "market.hhi_a3",
    "market.label_propagation_s": "market.label_propagation",
    "report.build_s": "report.build",
    "svg.charts_s": "svg.chart",
}
SPAN_COUNTS = {
    "stability.series_calls": "stability.series",
    "txgraph.day_graphs": "txgraph.day_graph",
}


class Tracer:
    """Installs the wrappers of TARGETS on a loaded package and records."""

    def __init__(self, package):
        self.package = package
        self.t0 = time.perf_counter()
        self.spans: list[list] = []  # [name, start, end, parent index, thread id]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, span, after in TARGETS:
            owner = getattr(self.package, module_name, None)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, name, None) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(owner, name, self._wrap(original, span, after))
            self._patched.append((owner, name, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _wrap(self, original, span, after):
        signature = inspect.signature(original)
        tracer = self

        def wrapper(*args, **kwargs):
            bound = None
            if after is not None or callable(span):
                bound = signature.bind(*args, **kwargs).arguments
            name = span(bound) if callable(span) else span
            stack = tracer._local.__dict__.setdefault("stack", [])
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append([name, time.perf_counter() - tracer.t0, None,
                                     stack[-1] if stack else None, threading.get_ident()])
            stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                stack.pop()
                tracer.spans[index][2] = time.perf_counter() - tracer.t0
            if after is not None:
                with tracer._lock:
                    after(bound, result, tracer.counts)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def metrics(self) -> dict[str, float]:
        """Per-layer times (s) and counts from the recorded spans."""
        totals: Counter = Counter()
        calls: Counter = Counter()
        for name, start, end, _, _ in self.spans:
            totals[name] += end - start
            calls[name] += 1
        out: dict[str, float] = {m: totals[s] for m, s in TIMES.items()}
        out["report.emit_s"] = self.self_time("report.build")
        for name in COUNTS:
            out[name] = self.counts[name]
        for metric, span in SPAN_COUNTS.items():
            out[metric] = calls[span]
        return out

    def self_time(self, name: str) -> float:
        """Summed duration of `name` spans net of the time their direct child
        spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        total = 0.0
        for index, (span, start, end, _, _) in enumerate(self.spans):
            if span != name:
                continue
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(index, [])):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            total += (end - start) - covered
        return total

    def write(self, path: str, extra: dict) -> None:
        threads = {tid: i for i, tid in enumerate(dict.fromkeys(s[4] for s in self.spans))}
        payload = dict(extra)
        payload["absent"] = self.absent
        payload["counts"] = dict(sorted(self.counts.items()))
        payload["span_fields"] = ["name", "start_s", "end_s", "parent", "thread"]
        payload["spans"] = [[n, round(s, 6), round(e, 6), p, threads[t]]
                            for n, s, e, p, t in self.spans]
        with open(path, "w") as fp:
            json.dump(payload, fp, separators=(",", ":"))
            fp.write("\n")
