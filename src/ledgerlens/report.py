"""Full metric pipeline with CSV/JSON emission and chart generation.

Every output file starts with a metadata header (tool version, format
version, config hash) and is byte-deterministic: identical parameters over
an identical store always reproduce identical files.  Wall-clock time never
enters an output.
"""

import hashlib
import json
import math
import os
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .balances import Ranking, adjacent_diff, compute_rankings, proportion_series
from .ledger import Ledger
from .lorenz import cumulative_curve, d_static_series
# `hhi_series` and `stability_series` are not called here: `walk` reads
# every series through `hhi_by_scheme` and `stability_table`.  They stay
# importable under this module's name because the benchmark's tracer
# (bench/tracer.py) wraps them here, and its self-test fails on a traced
# name that is missing.
from .market import check_method, classify, d_hhi, hhi_by_scheme, hhi_series  # noqa: F401
from .stability import StabilitySeries, stability_series, stability_table, summarize  # noqa: F401
from .svg import box_plot, line_chart, open_output
from .txgraph import dispersion_series

FORMAT_VERSION = 1

DEFAULT_TOPS = tuple(range(100, 2001, 100))
DEFAULT_INTERVALS = (1, 5, 10, 50, 100)


def config_hash(params: dict) -> str:
    """Digest of the semantic run parameters (never paths or times)."""
    blob = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def check_counts(name: str, values: Sequence[int]) -> None:
    """Reject an empty list of counts (top-N sizes, intervals, focus sizes)
    or any count below 1; `name` names the option in the message."""
    if not values or min(values) < 1:
        raise ValueError(f"{name} must be positive integers, got {list(values)}")


def check_curve_day(day: int, n_days: int) -> None:
    """Reject a cumulative-curve day that is not a day of the ledger."""
    if not 0 <= day < n_days:
        raise ValueError(f"curve day {day} is not a day of the ledger ({n_days} days)")


def _cell(v) -> str:
    if v is None:
        return "nan"
    if isinstance(v, float):
        return repr(float(v))  # plain shortest round-trip form, numpy included
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def write_csv(path: str, columns: Sequence[str], rows, cfg_hash: str) -> None:
    """Write a CSV (`-` for standard output) under the metadata header."""
    with open_output(path) as fp:
        fp.write(f"# ledgerlens {__version__}\n# format: {FORMAT_VERSION}\n"
                 f"# config: {cfg_hash}\n")
        fp.write(",".join(columns) + "\n")
        for row in rows:
            fp.write(",".join(_cell(v) for v in row) + "\n")


def write_json(path: str, payload: dict) -> None:
    """Write a JSON document (`-` for standard output)."""
    with open_output(path) as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")


def day_table(column: str, values: dict) -> tuple[list[str], list[tuple]]:
    """A `day,<column>` table of a day-keyed map, in map order."""
    return ["day", column], list(values.items())


def proportions_table(prop: np.ndarray, tops: Sequence[int], days: Sequence[int]):
    """Wide top-N proportions: one row per day, one `p<N>` column per N."""
    return (["day"] + [f"p{n}" for n in tops],
            [(d, *[float(prop[d, j]) for j in range(len(tops))]) for d in days])


def proportions_long_table(prop: np.ndarray, tops: Sequence[int], days: Sequence[int]):
    """Long top-N proportions: one `day,n,proportion` row per day and N."""
    return (["day", "n", "proportion"],
            [(d, n, float(prop[d, j])) for d in days for j, n in enumerate(tops)])


def dispersion_table(disp: dict[str, dict[int, float]]):
    """`day,metric,dispersion` rows of day-ordered maps, metrics sorted."""
    return (["day", "metric", "dispersion"],
            [(d, m, v) for m in sorted(disp) for d, v in disp[m].items()])


def hhi_table(hhi: dict[str, dict[int, float]]):
    """`day,scheme,hhi,class` rows of day-ordered maps, scheme by scheme."""
    return (["day", "scheme", "hhi", "class"],
            [(d, scheme, v, classify(v)) for scheme, vals in hhi.items()
             for d, v in vals.items()])


def _svg_meta(cfg_hash: str) -> str:
    return f"ledgerlens {__version__} format={FORMAT_VERSION} config={cfg_hash}"


def curve_chart(path: str, ranking: Ranking, top: int, cfg_hash: str) -> None:
    """Chart of one day's cumulative top-N wealth share against equality."""
    curve = cumulative_curve(ranking, top)
    xs = list(range(1, curve.n + 1))
    line_chart(
        {"actual": (xs, curve.c_real.tolist()), "equal": (xs, curve.c_equal.tolist())},
        path, f"Cumulative top-N wealth share (day {ranking.day})", "rank", "share",
        meta=_svg_meta(cfg_hash),
    )


def _by_day(values: dict) -> dict:
    """A day-keyed map as JSON keys it: by the day's decimal string."""
    return {str(d): v for d, v in values.items()}


@dataclass(frozen=True)
class Plan:
    """The products of one day walk, with their parameters; an empty or
    None product field asks for nothing.  `report` asks for every product,
    and each single-metric command for its own."""

    tops: Sequence[int] = ()                     # top-N supply proportions
    d_static_top: int | None = None              # D_static of the top N, at `scaling`
    scaling: int = 2
    specs: Sequence[tuple[str, int, int]] = ()   # stability (metric, N, interval)
    mode: str = "intersection"                   # the Spearman mode of `specs`
    metrics: Sequence[str] = ()                  # dispersion of the focus graphs
    value_weighted: bool = False
    schemes: Sequence[str] = ()                  # HHI, by clustering scheme
    method: str = "label_propagation"
    seed: int = 0
    d_hhi: bool = False                          # D_HHI of the A3 series
    focus_n: int = 100                           # dispersion and HHI focus size
    curve_day: int | None = None                 # the day whose ranking is kept
    nodes_day: int | None = None                 # ... whose previous day's is kept
    partition_day: int | None = None             # ... whose ranking is kept
    day_range: tuple[int, int] | None = None     # the inclusive output window


@dataclass
class Walk:
    """The products of a `Plan`.  Every day-keyed series is cut to the
    plan's window, whose days are `days`; `prop` holds a row for every day
    of the ledger.  `kept` is the ranking of the day the curve, nodes or
    partition product reads, or None."""

    days: list[int]
    prop: np.ndarray
    stability: dict[tuple[str, int, int], StabilitySeries]
    d_static: dict[int, float]
    dispersion: dict[str, dict[int, float]]
    hhi: dict[str, dict[int, float]]
    d_hhi: dict[int, float]
    kept: Ranking | None


def walk(ledger: Ledger, plan: Plan) -> Walk:
    """Compute every product of `plan` from one walk over the day rankings.

    The rankings are cut at the largest N that any product reads, and only
    the ranking of the day that the curve, nodes or partition product reads
    is kept (a curve day with no funded address is refused as the walk
    passes it).  Proportions and D_static take each day's row from its
    balances as the day passes, so they order no ids.  Of stability, HHI
    and dispersion, the first asked for (in that order: dispersion stops a
    day short) reads the walk as it streams; only when another is asked
    for too does the walk keep each day's top `focus_n` for the others.
    Every metric is computed from day 0, whatever the window: balances and
    cumulative graphs need the whole prefix, and D_HHI normalizes over the
    whole series before it is cut.
    """
    focus_n = plan.focus_n if plan.metrics or plan.schemes else 1
    depth = max([*plan.tops, plan.d_static_top or 1, *(n for _, n, _ in plan.specs), focus_n])
    # A nodes day's focus is the previous day's top N.
    keep = plan.nodes_day - 1 if plan.nodes_day is not None else (
        plan.curve_day if plan.curve_day is not None else plan.partition_day)
    readers = sum(map(bool, (plan.specs, plan.schemes, plan.metrics)))
    prop = np.zeros((ledger.n_days, len(plan.tops)))
    d_static: dict[int, float] = {}
    focus: list[Ranking] = []
    kept: list[Ranking] = []

    def days() -> Iterator[Ranking]:
        for ranking in compute_rankings(ledger, depth):
            d = ranking.day
            if plan.tops:
                prop[d] = proportion_series([ranking], [ledger.supply_at(d)], plan.tops)[0]
            if plan.d_static_top:
                d_static.update(
                    d_static_series([ranking], plan.d_static_top, plan.scaling).values)
            if readers > 1:
                focus.append(ranking.truncated(plan.focus_n))
            if d == keep:
                if d == plan.curve_day and not len(ranking):
                    raise ValueError(f"curve day {d} has no funded address to chart")
                kept.append(ranking)
            yield ranking

    stream = days()
    rankings: Iterable[Ranking] = stream
    stab, hhi, disp = {}, {}, {}
    if plan.specs:
        stab = stability_table(rankings, plan.specs, plan.mode)
        rankings = focus
    if plan.schemes:
        hhi = hhi_by_scheme(ledger, plan.schemes, rankings, plan.focus_n, plan.method,
                            plan.seed)
        rankings = focus
    if plan.metrics:
        disp = dispersion_series(ledger, rankings, plan.metrics, plan.focus_n,
                                 value_weighted=plan.value_weighted)
    if plan.tops or plan.d_static_top:
        deque(stream, maxlen=0)  # their rows need every day, whoever read the walk

    lo, hi = plan.day_range if plan.day_range is not None else (-math.inf, math.inf)

    def cut(values: dict) -> dict:
        """The entries of a day-keyed map inside the window, in day order."""
        return {d: v for d, v in sorted(values.items()) if lo <= d <= hi}

    for s in stab.values():
        s.values = cut(s.values)
    return Walk(
        days=[d for d in range(ledger.n_days) if lo <= d <= hi],
        prop=prop,
        stability=stab,
        d_static=cut(d_static),
        dispersion={m: cut(vals) for m, vals in disp.items()},
        hhi={scheme: cut(series.values) for scheme, series in hhi.items()},
        d_hhi=cut(d_hhi(hhi["a3"])) if plan.d_hhi else {},
        kept=kept[0] if kept else None,
    )


def build_report(
    ledger: Ledger,
    out_dir: str,
    tops: Sequence[int] = DEFAULT_TOPS,
    intervals: Sequence[int] = DEFAULT_INTERVALS,
    focus_n: int = 100,
    spearman_mode: str = "intersection",
    scaling: int = 2,
    curve_day: int | None = None,
    method: str = "label_propagation",
    value_weighted: bool = False,
    day_range: tuple[int, int] | None = None,
    store_hash: str = "",
    charts: bool = True,
) -> dict:
    """Run every metric over a ledger and write the report bundle.

    `day_range` is an inclusive output window: metrics are still computed
    from day 0 (see `walk`), but only days inside the window are emitted.
    Returns the JSON-serializable bundle that was written to report.json.
    An unknown `method`, a `curve_day` outside the ledger, or `tops`,
    `intervals` or `focus_n` that `check_counts` refuses, is rejected
    before anything is written.  With `charts`, a curve day that has no
    funded address is rejected when the walk reaches it, before any file
    of the bundle is written.
    """
    check_method(method)
    check_counts("tops", tops)
    check_counts("intervals", intervals)
    check_counts("focus", [focus_n])
    if curve_day is not None:
        check_curve_day(curve_day, ledger.n_days)
    os.makedirs(out_dir, exist_ok=True)
    params = {
        "tops": list(tops),
        "intervals": list(intervals),
        "focus_n": focus_n,
        "spearman_mode": spearman_mode,
        "scaling": scaling,
        "curve_day": curve_day,
        "method": method,
        "value_weighted": value_weighted,
        "day_range": list(day_range) if day_range else None,
        "store": store_hash,
    }
    cfg = config_hash(params)

    # Every (metric, N, interval) stability series feeds the CSV, the JSON
    # bundle and the charts.
    curve_at = ledger.n_days - 1 if curve_day is None else curve_day
    res = walk(ledger, Plan(
        tops=tops, d_static_top=max(tops), scaling=scaling,
        specs=[(metric, n, interval) for metric in ("spearman", "retention")
               for n, interval in [(focus_n, i) for i in intervals] + [(t, 1) for t in tops]],
        mode=spearman_mode, metrics=("degree", "pagerank"), value_weighted=value_weighted,
        schemes=("a1", "a2", "a3"), method=method, d_hhi=True, focus_n=focus_n,
        curve_day=curve_at if charts else None, day_range=day_range,
    ))
    days, prop, stab = res.days, res.prop, res.stability
    # Column j of a difference row is the share gap between tops[j] and its
    # predecessor (0 for the first bucket).
    diff_xs = [0] + list(tops[:-1])
    diff = adjacent_diff(prop)
    keys = {spec: "{}_top{}_interval{}".format(*spec) for spec in stab}
    summaries = {keys[spec]: summarize(s).to_dict() for spec, s in stab.items() if s.defined()}

    def csv(name: str, columns: Sequence[str], rows) -> None:
        write_csv(os.path.join(out_dir, name), columns, rows, cfg)

    # The proportion matrices hold every day; their rows are emitted for
    # the window's days, as every series was cut to it.
    csv("proportions.csv", *proportions_table(prop, tops, days))
    csv("proportions_long.csv", *proportions_long_table(prop, tops, days))
    csv("proportion_diff.csv", ["day"] + [f"x{x}" for x in diff_xs],
        [(d, *[float(diff[d, j]) for j in range(len(diff_xs))]) for d in days])
    csv("stability.csv", ["day", "metric", "top", "interval", "value"],
        [(d, *spec, v) for spec, s in stab.items() for d, v in s.values.items()])
    write_json(os.path.join(out_dir, "stability_summary.json"),
               {"meta": {"config_hash": cfg}, "summaries": summaries})
    csv("d_static.csv", *day_table("d_static", res.d_static))
    csv("dispersion.csv", *dispersion_table(res.dispersion))
    csv("hhi.csv", *hhi_table(res.hhi))
    csv("d_hhi.csv", *day_table("d_hhi", res.d_hhi))
    if charts:
        _write_charts(out_dir, res, tops, intervals, focus_n, diff_xs, diff, cfg)

    bundle = {
        "meta": {
            "tool": "ledgerlens",
            "version": __version__,
            "format": FORMAT_VERSION,
            "config_hash": cfg,
            "params": params,
            "days": ledger.n_days,
            "transactions": len(ledger),
            "addresses": len(ledger.addresses) - 1,
            "final_supply": ledger.supply_at(ledger.n_days - 1) if ledger.n_days else 0,
            # Clustering schemes anchor the cumulative graph on the top-N of
            # the evaluation day itself; membership changes day to day.
            "hhi_focus_anchor": "evaluation-day top-N",
        },
        "proportions": {"tops": list(tops), "days": days,
                        "values": [[float(v) for v in prop[d]] for d in days]},
        "proportion_diffs": {"xs": diff_xs, "days": days,
                             "values": [[float(v) for v in diff[d]] for d in days]},
        "stability": {"series": {keys[spec]: _by_day(s.values) for spec, s in stab.items()},
                      "summaries": summaries},
        "d_static": {"scaling": scaling, "top": max(tops), "values": _by_day(res.d_static)},
        "dispersion": {m: _by_day(vals) for m, vals in res.dispersion.items()},
        "hhi": {scheme: _by_day(vals) for scheme, vals in res.hhi.items()},
        "d_hhi": _by_day(res.d_hhi),
    }
    write_json(os.path.join(out_dir, "report.json"), bundle)
    return bundle


def _write_charts(out_dir, res: Walk, tops, intervals, focus_n, diff_xs, diff, cfg):
    chart_dir = os.path.join(out_dir, "charts")
    os.makedirs(chart_dir, exist_ok=True)
    svg_meta = _svg_meta(cfg)
    days, stab = res.days, res.stability
    rows = days or slice(0)
    prop, diff = res.prop[rows], diff[rows]

    def day_lines(series: dict[str, dict]) -> dict:
        return {label: (list(vals), list(vals.values())) for label, vals in series.items()}

    line_chart(
        {f"top-{n}": (days, prop[:, j].tolist()) for j, n in enumerate(tops)},
        os.path.join(chart_dir, "proportions.svg"),
        "Top-N share of minted supply", "day", "proportion", meta=svg_meta,
    )
    line_chart(
        {f"x={x}": (days, diff[:, j].tolist()) for j, x in enumerate(diff_xs)},
        os.path.join(chart_dir, "proportion_diff.svg"),
        "Adjacent top-bucket share differences", "day", "difference",
        meta=svg_meta,
    )

    # Stability by interval at the focus size, and one-day stability by
    # list size: (file stem, [(line label, box label, N, interval)], line
    # title, box title, box x label).
    panels = (
        ("intervals", [(f"interval {i}", str(i), focus_n, i) for i in intervals],
         f"Top-{focus_n} {{}} by day interval",
         f"Top-{focus_n} {{}} distribution by interval", "interval (days)"),
        ("tops", [(f"top-{n}", str(n), n, 1) for n in tops],
         "One-day {} by list size", "One-day {} distribution by list size", "top-N"),
    )
    for metric in ("spearman", "retention"):
        for stem, members, title, box_title, box_x in panels:
            lines, groups = {}, []
            for label, group, n, interval in members:
                s = stab[(metric, n, interval)]
                lines[label] = (list(s.values), [float("nan") if v is None else v
                                                 for v in s.values.values()])
                groups.append((group, s.defined()))
            line_chart(lines, os.path.join(chart_dir, f"{metric}_{stem}.svg"),
                       title.format(metric), "day", metric, meta=svg_meta)
            box_plot(groups, os.path.join(chart_dir, f"{metric}_{stem}_box.svg"),
                     box_title.format(metric), box_x, metric, meta=svg_meta)

    if res.kept is not None:
        curve_chart(os.path.join(chart_dir, "cumulative_curve.svg"), res.kept, max(tops), cfg)
    line_chart(
        day_lines({"d_static": res.d_static}),
        os.path.join(chart_dir, "d_static.svg"),
        "Static decentralization degree", "day", "d_static", meta=svg_meta,
    )
    line_chart(
        day_lines(res.dispersion),
        os.path.join(chart_dir, "dispersion.svg"),
        "Centrality dispersion of the focus graph", "day", "dispersion",
        meta=svg_meta,
    )
    line_chart(
        day_lines({scheme.upper(): vals for scheme, vals in res.hhi.items()}),
        os.path.join(chart_dir, "hhi.svg"),
        "HHI by clustering scheme", "day", "HHI", meta=svg_meta,
    )
    line_chart(
        day_lines({"d_hhi": res.d_hhi}),
        os.path.join(chart_dir, "d_hhi.svg"),
        "Dynamic decentralization degree", "day", "d_hhi", meta=svg_meta,
    )
