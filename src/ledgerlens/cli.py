"""Command-line front end.

Subcommands: synth, ingest, snapshot, proportions, stability, dstatic,
dispersion, hhi, report.  Exit codes: 0 success, 1 usage error, 2 data or
store error.  The store directory defaults to the LEDGERLENS_STORE
environment variable.  All outputs are deterministic for identical
parameters over an identical store.
"""

import argparse
import os
import sys

from . import __version__
# `compute_rankings`, `d_static_series`, `hhi_series`, `stability_series`,
# `line_chart` and `dispersion_series` are not called here: every command's
# day walk runs in `report.walk`.  They stay importable under this module's
# name because the benchmark's tracer (bench/tracer.py) wraps them here, and
# its self-test fails on a traced name that is missing.
from .balances import compute_rankings, snapshot_at  # noqa: F401
from .errors import LedgerError
from .ledger import parse_ledger
from .lorenz import SCALINGS, d_static_series  # noqa: F401
from .market import METHODS, SCHEMES, cluster, hhi_series  # noqa: F401
from .report import (
    DEFAULT_INTERVALS, DEFAULT_TOPS, Plan, build_report, check_counts, check_curve_day,
    config_hash, curve_chart, day_table, dispersion_table, hhi_table, proportions_long_table,
    proportions_table, walk, write_csv, write_json,
)
from .stability import SPEARMAN_MODES, stability_series, summarize  # noqa: F401
from .store import load_ledger, load_meta, save_ledger
from .svg import line_chart, open_output  # noqa: F401
from .synth import REGIMES, SynthConfig, generate
from .txgraph import build_day_graph, degree_centrality, dispersion_series, pagerank  # noqa: F401

STORE_ENV = "LEDGERLENS_STORE"


class _Parser(argparse.ArgumentParser):
    """Argument parser that exits 1 on usage errors (argparse default is 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _counts(name: str):
    """Argument type of a comma-separated list of positive counts."""

    def parse(text: str) -> list[int]:
        values = [int(t) for t in text.split(",") if t.strip()]
        try:
            check_counts(name, values)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        return values

    return parse


def _seed(text: str) -> int:
    """A Philox key: an integer in [0, 2**128)."""
    value = int(text)
    if not 0 <= value < 2**128:
        raise argparse.ArgumentTypeError(f"must be in [0, 2**128), got {value}")
    return value


def _day_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    lo_i, hi_i = int(lo), int(hi)
    if lo_i < 0 or hi_i < lo_i:
        raise argparse.ArgumentTypeError("day range must be START:END with 0 <= START <= END")
    return lo_i, hi_i


# The options that name one output file each; `-` is standard output.
_OUTPUTS = ("out", "summary", "nodes_out", "dhhi", "partition_out", "svg")


def _check_stdout(args) -> None:
    """Reject a command line that sends two outputs to standard output."""
    to_stdout = [f"--{o.replace('_', '-')}" for o in _OUTPUTS if getattr(args, o, None) == "-"]
    if len(to_stdout) > 1:
        raise ValueError(f"{', '.join(to_stdout)} all go to standard output (-); "
                         "give all but one a file")


def _store_dir(args) -> str:
    store = args.store or os.environ.get(STORE_ENV)
    if not store:
        raise ValueError(f"no store given (use --store or ${STORE_ENV})")
    return store


def _open_store(args):
    """The ledger of the command's store and the store's content hash."""
    store = _store_dir(args)
    return load_ledger(store), load_meta(store)["content_hash"]


def _config(cmd: str, args, store_hash: str, **params) -> str:
    """Config hash of one command: its parameters, its output window (for
    the commands that take one) and the store's content hash."""
    params.update(cmd=cmd, store=store_hash)
    if "day_range" in args:
        params["day_range"] = list(args.day_range) if args.day_range else None
    return config_hash(params)


def _cmd_synth(args) -> int:
    cfg = SynthConfig(
        seed=args.seed,
        days=args.days,
        txs_per_day=args.txs_per_day,
        pool=args.pool,
        growth=args.growth,
        regime=args.regime,
        alpha=args.alpha,
        hubs=args.hubs,
        churn_rate=args.churn_rate,
        initial_supply=args.initial_supply,
        reward=args.reward,
        halving_days=args.halving_days,
        amount_frac=args.amount_frac,
    )
    ledger = generate(cfg)
    with open_output(args.out) as out:
        ledger.serialize(out)
    print(f"synth: {len(ledger)} transactions over {ledger.n_days} days", file=sys.stderr)
    return 0


def _cmd_ingest(args) -> int:
    store = _store_dir(args)
    # Bytes in: parse_ledger decodes each line as strict UTF-8 itself, so a
    # bad byte is a ParseError with its line number whatever the locale.
    if args.input == "-":
        ledger = parse_ledger(sys.stdin.buffer, epoch=args.epoch)
    else:
        with open(args.input, "rb") as fp:
            ledger = parse_ledger(fp, epoch=args.epoch)
    meta = save_ledger(ledger, store)
    if ledger.out_of_order:
        print(f"ingest: re-sorted {ledger.out_of_order} out-of-order records",
              file=sys.stderr)
    print(
        f"ingest: {meta['transactions']} transactions, {meta['days']} days, "
        f"{meta['addresses'] - 1} addresses -> {store}",
        file=sys.stderr,
    )
    return 0


def _cmd_snapshot(args) -> int:
    ledger, store_hash = _open_store(args)
    snap = snapshot_at(ledger, args.dump_day)
    cfg = _config("snapshot", args, store_hash, day=args.dump_day)
    write_csv(args.out, ["address", "balance"], sorted(snap.as_dict().items()), cfg)
    return 0


def _cmd_proportions(args) -> int:
    ledger, store_hash = _open_store(args)
    res = walk(ledger, Plan(tops=args.tops, day_range=args.day_range))
    cfg = _config("proportions", args, store_hash, tops=args.tops)
    table = proportions_long_table if args.long else proportions_table
    write_csv(args.out, *table(res.prop, args.tops, res.days), cfg)
    return 0


def _cmd_stability(args) -> int:
    ledger, store_hash = _open_store(args)
    spec = (args.metric, args.top, args.interval)
    res = walk(ledger, Plan(specs=[spec], mode=args.mode, day_range=args.day_range))
    series = res.stability[spec]
    cfg = _config("stability", args, store_hash, metric=args.metric, top=args.top,
                  interval=args.interval, mode=args.mode)
    write_csv(args.out, *day_table("value", series.values), cfg)
    if args.summary:
        write_json(args.summary, {
            "meta": {"config_hash": cfg},
            "summary": summarize(series).to_dict() if series.defined() else None,
        })
    return 0


def _cmd_dstatic(args) -> int:
    if args.curve_day is not None and not args.svg:
        raise ValueError("--curve-day needs --svg")
    ledger, store_hash = _open_store(args)
    curve_day = None
    if args.svg:
        if args.curve_day is None and not ledger.n_days:
            raise ValueError("the ledger has no day to chart a curve for")
        curve_day = args.curve_day if args.curve_day is not None else ledger.n_days - 1
        check_curve_day(curve_day, ledger.n_days)
    res = walk(ledger, Plan(d_static_top=args.top, scaling=args.scaling,
                            curve_day=curve_day, day_range=args.day_range))
    cfg = _config("dstatic", args, store_hash, top=args.top, scaling=args.scaling)
    write_csv(args.out, *day_table("d_static", res.d_static), cfg)
    if args.svg:
        curve_chart(args.svg, res.kept, args.top, cfg)
    return 0


def _cmd_dispersion(args) -> int:
    if (args.nodes_day is None) != (args.nodes_out is None):
        raise ValueError("--nodes-day and --nodes-out go together")
    ledger, store_hash = _open_store(args)
    if args.nodes_day is not None and not 1 <= args.nodes_day < ledger.n_days:
        raise ValueError(f"--nodes-day {args.nodes_day} has no focus graph")
    metrics = ("degree", "pagerank") if args.metric == "both" else (args.metric,)
    res = walk(ledger, Plan(metrics=metrics, value_weighted=args.value_weighted,
                            focus_n=args.focus, nodes_day=args.nodes_day,
                            day_range=args.day_range))
    cfg = _config("dispersion", args, store_hash, metrics=list(metrics), focus=args.focus,
                  value_weighted=args.value_weighted)
    write_csv(args.out, *dispersion_table(res.dispersion), cfg)
    if args.nodes_day is not None:
        d = args.nodes_day
        graph = build_day_graph(ledger, d, res.kept.truncated(args.focus),
                                value_weighted=args.value_weighted)
        rows = []
        # A day whose focus graph has no node has no row, in `--out` too.
        if graph.n_nodes:
            deg = degree_centrality(graph).as_dict(ledger.addresses)
            pr = pagerank(graph, weighted_by_value=args.value_weighted)
            pr = pr.as_dict(ledger.addresses)
            rows = [(d, a, deg[a], pr[a]) for a in sorted(deg)]
        write_csv(args.nodes_out, ["day", "address", "degree", "pagerank"], rows, cfg)
    return 0


def _cmd_hhi(args) -> int:
    if args.dhhi and args.scheme != "a3":
        raise ValueError("--dhhi requires --scheme a3")
    if (args.partition_day is None) != (args.partition_out is None):
        raise ValueError("--partition-day and --partition-out go together")
    ledger, store_hash = _open_store(args)
    if args.partition_day is not None and not 0 <= args.partition_day < ledger.n_days:
        raise ValueError(f"--partition-day {args.partition_day} outside ledger range")
    res = walk(ledger, Plan(schemes=[args.scheme], method=args.method, seed=args.seed,
                            d_hhi=bool(args.dhhi), focus_n=args.focus,
                            partition_day=args.partition_day, day_range=args.day_range))
    cfg = _config("hhi", args, store_hash, scheme=args.scheme, focus=args.focus,
                  method=args.method, seed=args.seed)
    write_csv(args.out, *hhi_table(res.hhi), cfg)
    if args.dhhi:
        write_csv(args.dhhi, *day_table("d_hhi", res.d_hhi), cfg)
    if args.partition_day is not None:
        firms = cluster(ledger, args.scheme, res.kept,
                        focus_n=args.focus, method=args.method, seed=args.seed)
        names = ledger.addresses.names
        write_json(args.partition_out, {
            "meta": {"config_hash": cfg},
            "day": args.partition_day,
            "scheme": args.scheme,
            "partition": {names[a]: firm for a, firm in firms.items()},
        })
    return 0


def _cmd_report(args) -> int:
    ledger, store_hash = _open_store(args)
    build_report(
        ledger,
        args.out,
        tops=args.tops,
        intervals=args.intervals,
        focus_n=args.focus,
        spearman_mode=args.mode,
        scaling=args.scaling,
        curve_day=args.curve_day,
        method=args.method,
        value_weighted=args.value_weighted,
        day_range=args.day_range,
        store_hash=store_hash,
        charts=not args.no_charts,
    )
    print(f"report: bundle written to {args.out}", file=sys.stderr)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="ledgerlens", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ledgerlens {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_store(p):
        p.add_argument("--store", "-s", default=None,
                       help=f"store directory (default ${STORE_ENV})")

    def add_day_range(p):
        p.add_argument("--day-range", type=_day_range, default=None,
                       metavar="START:END",
                       help="emit only days inside this inclusive window")

    p = sub.add_parser("synth", help="generate a deterministic synthetic ledger")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--days", type=int, default=30)
    p.add_argument("--txs-per-day", type=int, default=100)
    p.add_argument("--pool", type=int, default=200)
    p.add_argument("--growth", type=float, default=0.0)
    p.add_argument("--regime", choices=REGIMES, default="uniform")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--hubs", type=int, default=5)
    p.add_argument("--churn-rate", type=float, default=0.1)
    p.add_argument("--initial-supply", type=int, default=10**12)
    p.add_argument("--reward", type=int, default=50 * 10**8)
    p.add_argument("--halving-days", type=int, default=0)
    p.add_argument("--amount-frac", type=float, default=0.5,
                   help="largest share of a sender's balance per payment")
    p.add_argument("--out", default="-", help="output path or - for stdout")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="parse a JSON-lines ledger into a store")
    p.add_argument("--input", "-i", default="-", help="input path or - for stdin")
    p.add_argument("--epoch", type=int, default=None,
                   help="day-0 timestamp (UTC, floored to midnight)")
    add_store(p)
    p.add_argument("--out", dest="store_alias", default=None,
                   help="alias for --store")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("snapshot", help="dump one day's end-of-day balances")
    add_store(p)
    p.add_argument("--dump-day", type=int, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_snapshot)

    p = sub.add_parser("proportions", help="daily top-N supply proportions")
    add_store(p)
    add_day_range(p)
    p.add_argument("--tops", type=_counts("tops"), default=list(DEFAULT_TOPS))
    p.add_argument("--long", action="store_true", help="emit day,n,proportion rows")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_proportions)

    p = sub.add_parser("stability", help="ranking stability series")
    add_store(p)
    add_day_range(p)
    p.add_argument("--metric", choices=("spearman", "retention"), default="spearman")
    p.add_argument("--top", type=_count, default=100)
    p.add_argument("--interval", type=_count, default=1)
    p.add_argument("--mode", choices=SPEARMAN_MODES, default="intersection")
    p.add_argument("--summary", default=None, help="also write a summary JSON here")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("dstatic", help="static decentralization degree series")
    add_store(p)
    add_day_range(p)
    p.add_argument("--top", type=_count, default=2000)
    p.add_argument("--scaling", type=int, choices=SCALINGS, default=2)
    p.add_argument("--curve-day", type=int, default=None)
    p.add_argument("--svg", default=None,
                   help="write the cumulative curve chart here (- for stdout)")
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_dstatic)

    p = sub.add_parser("dispersion", help="daily centrality dispersion")
    add_store(p)
    add_day_range(p)
    p.add_argument("--metric", choices=("degree", "pagerank", "both"), default="both")
    p.add_argument("--focus", type=_count, default=100)
    p.add_argument("--value-weighted", action="store_true")
    p.add_argument("--nodes-day", type=int, default=None)
    p.add_argument("--nodes-out", default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_dispersion)

    p = sub.add_parser("hhi", help="market concentration series")
    add_store(p)
    add_day_range(p)
    p.add_argument("--scheme", choices=SCHEMES, default="a1")
    p.add_argument("--focus", type=_count, default=100)
    p.add_argument("--method", choices=METHODS, default="label_propagation")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--dhhi", default=None,
                   help="also write the dynamic decentralization series (a3 only)")
    p.add_argument("--partition-day", type=int, default=None)
    p.add_argument("--partition-out", default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=_cmd_hhi)

    p = sub.add_parser("report", help="run every metric and emit the full bundle")
    add_store(p)
    add_day_range(p)
    p.add_argument("--out", "-o", required=True, help="output directory")
    p.add_argument("--tops", type=_counts("tops"), default=list(DEFAULT_TOPS))
    p.add_argument("--intervals", type=_counts("intervals"),
                   default=list(DEFAULT_INTERVALS))
    p.add_argument("--focus", type=_count, default=100)
    p.add_argument("--mode", choices=SPEARMAN_MODES, default="intersection")
    p.add_argument("--scaling", type=int, choices=SCALINGS, default=2)
    p.add_argument("--method", choices=METHODS, default="label_propagation")
    p.add_argument("--curve-day", type=int, default=None)
    p.add_argument("--value-weighted", action="store_true")
    p.add_argument("--no-charts", action="store_true")
    p.set_defaults(func=_cmd_report)

    return parser


def run(argv: list[str] | None = None) -> int:
    """Parse arguments and execute one subcommand; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "store_alias", None) and not args.store:
        args.store = args.store_alias
    try:
        _check_stdout(args)
        return args.func(args)
    except ValueError as exc:
        print(f"ledgerlens: {exc}", file=sys.stderr)
        return 1
    except LedgerError as exc:
        print(f"ledgerlens: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ledgerlens: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"ledgerlens: out of memory{detail}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
