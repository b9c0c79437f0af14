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
from typing import Iterator, Sequence

import numpy as np

from . import __version__
from .balances import Ranking, adjacent_diff, compute_rankings, proportion_series
from .ledger import Ledger
from .lorenz import cumulative_curve, d_static_series
# `hhi_series` and `stability_series` are not called here; they stay
# importable under this module's name because the benchmark's tracer
# (bench/tracer.py) wraps them here, and its self-test fails on a traced
# name that is missing.
from .market import check_method, classify, d_hhi, hhi_by_scheme, hhi_series
from .stability import StabilitySeries, stability_series, stability_table, summarize
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


def window(values: dict, day_range: tuple[int, int] | None) -> dict:
    """The entries of a day-keyed map inside the inclusive `day_range`
    (all of them when it is None), in day order."""
    lo, hi = day_range if day_range is not None else (-math.inf, math.inf)
    return {d: v for d, v in sorted(values.items()) if lo <= d <= hi}


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


def _series_rows(series: StabilitySeries) -> list[tuple]:
    return [
        (d, series.metric, series.top_n, series.interval, v)
        for d, v in sorted(series.values.items())
    ]


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
    from day 0 (balances and cumulative graphs need the full prefix, and the
    dynamic-degree normalization spans the whole history), but only days
    inside the window are emitted.  Returns the JSON-serializable bundle
    that was written to report.json.  An unknown `method`, a `curve_day`
    outside the ledger, or `tops`, `intervals` or `focus_n` that
    `check_counts` refuses, is rejected before anything is written.  With
    `charts`, a curve day that has no funded address is rejected after the
    walk, before any file of the bundle is written.
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

    all_days = range(ledger.n_days)
    supplies = [ledger.supply_at(d) for d in all_days]
    days = list(window(dict.fromkeys(all_days), day_range))
    # One walk over the day rankings: each day gives its proportions row
    # and D_static value, leaves its top `focus_n` for dispersion and HHI,
    # and passes on to stability, which holds the last max(interval) + 1.
    prop = np.zeros((ledger.n_days, len(tops)))
    d_static_values: dict[int, float] = {}
    focus: list[Ranking] = []
    curve: list[Ranking] = []
    curve_at = ledger.n_days - 1 if curve_day is None else curve_day

    def walk() -> Iterator[Ranking]:
        for ranking in compute_rankings(ledger, max(max(tops), focus_n)):
            d = ranking.day
            prop[d] = proportion_series([ranking], [supplies[d]], tops)[0]
            d_static_values.update(d_static_series([ranking], max(tops), scaling).values)
            focus.append(ranking.truncated(focus_n))
            if d == curve_at:
                curve.append(ranking)
            yield ranking

    # Ranking stability: every distinct (metric, N, interval) series comes
    # from one stability_table call and feeds the CSV, the JSON bundle and
    # the charts.  It reads the whole walk.
    stab = stability_table(
        walk(),
        [(metric, n, interval) for metric in ("spearman", "retention")
         for n, interval in [(focus_n, i) for i in intervals] + [(t, 1) for t in tops]],
        spearman_mode,
    )
    if charts and curve and not len(curve[0]):
        raise ValueError(f"curve day {curve_at} has no funded address to chart")

    bundle: dict = {
        "meta": {
            "tool": "ledgerlens",
            "version": __version__,
            "format": FORMAT_VERSION,
            "config_hash": cfg,
            "params": params,
            "days": ledger.n_days,
            "transactions": len(ledger),
            "addresses": len(ledger.addresses) - 1,
            "final_supply": supplies[-1] if supplies else 0,
            # Clustering schemes anchor the cumulative graph on the top-N of
            # the evaluation day itself; membership changes day to day.
            "hhi_focus_anchor": "evaluation-day top-N",
        }
    }

    # Top-N supply proportions (matrix rows cover the full history; emission
    # is windowed).
    write_csv(os.path.join(out_dir, "proportions.csv"),
              *proportions_table(prop, tops, days), cfg)
    write_csv(os.path.join(out_dir, "proportions_long.csv"),
              *proportions_long_table(prop, tops, days), cfg)
    bundle["proportions"] = {
        "tops": list(tops),
        "days": days,
        "values": [[float(v) for v in prop[d]] for d in days],
    }

    # Adjacent-bucket proportion differences; column j holds the share gap
    # between tops[j] and its predecessor (0 for the first bucket).
    diff_xs = [0] + list(tops[:-1])
    diff = adjacent_diff(prop)
    write_csv(
        os.path.join(out_dir, "proportion_diff.csv"),
        ["day"] + [f"x{x}" for x in diff_xs],
        [(d, *[float(diff[d, j]) for j in range(len(diff_xs))]) for d in days],
        cfg,
    )
    bundle["proportion_diffs"] = {
        "xs": diff_xs,
        "days": days,
        "values": [[float(v) for v in diff[d]] for d in days],
    }

    # Ranking stability, windowed like every series.
    for s in stab.values():
        s.values = window(s.values, day_range)
    stability_rows: list[tuple] = []
    summaries: dict[str, dict] = {}
    series_bundle: dict[str, dict] = {}
    for (metric, n, interval), s in stab.items():
        stability_rows.extend(_series_rows(s))
        key = f"{metric}_top{n}_interval{interval}"
        series_bundle[key] = {str(d): v for d, v in s.values.items()}
        if s.defined():
            summaries[key] = summarize(s).to_dict()
    write_csv(
        os.path.join(out_dir, "stability.csv"),
        ["day", "metric", "top", "interval", "value"],
        stability_rows,
        cfg,
    )
    write_json(os.path.join(out_dir, "stability_summary.json"),
               {"meta": {"config_hash": cfg}, "summaries": summaries})
    bundle["stability"] = {"series": series_bundle, "summaries": summaries}

    # Static decentralization degree.
    ds = window(d_static_values, day_range)
    write_csv(os.path.join(out_dir, "d_static.csv"), *day_table("d_static", ds), cfg)
    bundle["d_static"] = {
        "scaling": scaling,
        "top": max(tops),
        "values": {str(d): v for d, v in ds.items()},
    }

    # Dispersion of graph centralities.
    disp = dispersion_series(
        ledger, focus, ("degree", "pagerank"), focus_n,
        value_weighted=value_weighted,
    )
    disp = {m: window(vals, day_range) for m, vals in disp.items()}
    write_csv(os.path.join(out_dir, "dispersion.csv"), *dispersion_table(disp), cfg)
    bundle["dispersion"] = {
        m: {str(d): v for d, v in vals.items()} for m, vals in disp.items()
    }

    # HHI under the three clustering schemes, from one set of A2/A3 firm
    # labels, plus the dynamic degree.  The dynamic degree normalizes over
    # the full computed series before windowing.
    hhi = hhi_by_scheme(ledger, ("a1", "a2", "a3"), focus, focus_n=focus_n, method=method)
    hhi_values = {scheme: window(s.values, day_range) for scheme, s in hhi.items()}
    write_csv(os.path.join(out_dir, "hhi.csv"), *hhi_table(hhi_values), cfg)
    bundle["hhi"] = {
        scheme: {str(d): v for d, v in vals.items()} for scheme, vals in hhi_values.items()
    }

    dyn = window(d_hhi(hhi["a3"]), day_range)
    write_csv(os.path.join(out_dir, "d_hhi.csv"), *day_table("d_hhi", dyn), cfg)
    bundle["d_hhi"] = {str(d): v for d, v in dyn.items()}

    if charts:
        _write_charts(
            out_dir, days, tops, intervals, focus_n,
            prop[days] if days else prop[:0], diff[days] if days else diff[:0],
            diff_xs, stab, curve[0] if curve else None, ds, disp, hhi_values, dyn, cfg,
        )

    write_json(os.path.join(out_dir, "report.json"), bundle)
    return bundle


def _write_charts(
    out_dir, days, tops, intervals, focus_n, prop, diff, diff_xs, stab,
    curve, ds, disp, hhi_values, dyn, cfg,
):
    chart_dir = os.path.join(out_dir, "charts")
    os.makedirs(chart_dir, exist_ok=True)
    svg_meta = _svg_meta(cfg)

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

    if curve is not None:
        curve_chart(os.path.join(chart_dir, "cumulative_curve.svg"), curve, max(tops), cfg)
    line_chart(
        day_lines({"d_static": ds}),
        os.path.join(chart_dir, "d_static.svg"),
        "Static decentralization degree", "day", "d_static", meta=svg_meta,
    )
    line_chart(
        day_lines(disp),
        os.path.join(chart_dir, "dispersion.svg"),
        "Centrality dispersion of the focus graph", "day", "dispersion",
        meta=svg_meta,
    )
    line_chart(
        day_lines({scheme.upper(): vals for scheme, vals in hhi_values.items()}),
        os.path.join(chart_dir, "hhi.svg"),
        "HHI by clustering scheme", "day", "HHI", meta=svg_meta,
    )
    line_chart(
        day_lines({"d_hhi": dyn}),
        os.path.join(chart_dir, "d_hhi.svg"),
        "Dynamic decentralization degree", "day", "d_hhi", meta=svg_meta,
    )
