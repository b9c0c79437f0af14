"""Full metric pipeline with CSV/JSON emission and chart generation.

Every output file starts with a metadata header (tool version, format
version, config hash) and is byte-deterministic: identical parameters over
an identical store always reproduce identical files.  Wall-clock time never
enters an output.
"""

import hashlib
import json
import os
from typing import Sequence

import numpy as np

from . import __version__
from .balances import adjacent_diff, compute_rankings, proportion_series
from .ledger import Ledger
from .lorenz import cumulative_curve, d_static_series
from .market import check_method, d_hhi, hhi_series
from .stability import StabilitySeries, stability_series, summarize
from .svg import box_plot, line_chart
from .txgraph import dispersion_series

FORMAT_VERSION = 1

DEFAULT_TOPS = tuple(range(100, 2001, 100))
DEFAULT_INTERVALS = (1, 5, 10, 50, 100)


def config_hash(params: dict) -> str:
    """Digest of the semantic run parameters (never paths or times)."""
    blob = json.dumps(params, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def check_tops(tops: Sequence[int]) -> None:
    """Reject an empty top-N list or any N below 1."""
    if not tops or min(tops) < 1:
        raise ValueError(f"tops must be positive integers, got {list(tops)}")


def check_curve_day(day: int, n_days: int) -> None:
    """Reject a cumulative-curve day that is not a day of the ledger."""
    if not 0 <= day < n_days:
        raise ValueError(f"curve day {day} is not a day of the ledger ({n_days} days)")


def _meta_lines(cfg_hash: str) -> list[str]:
    return [
        f"# ledgerlens {__version__}",
        f"# format: {FORMAT_VERSION}",
        f"# config: {cfg_hash}",
    ]


def _cell(v) -> str:
    if v is None:
        return "nan"
    if isinstance(v, float):
        return repr(float(v))  # plain shortest round-trip form, numpy included
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def write_csv(path: str, columns: Sequence[str], rows, cfg_hash: str) -> None:
    with open(path, "w") as fp:
        for line in _meta_lines(cfg_hash):
            fp.write(line + "\n")
        fp.write(",".join(columns) + "\n")
        for row in rows:
            fp.write(",".join(_cell(v) for v in row) + "\n")


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
        fp.write("\n")


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
    that was written to report.json.  An unknown `method` or a `curve_day`
    outside the ledger, or a `tops` list that `check_tops` refuses, is
    rejected before anything is written.
    """
    check_method(method)
    check_tops(tops)
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

    def in_window(d: int) -> bool:
        return day_range is None or day_range[0] <= d <= day_range[1]

    max_top = max(max(tops), focus_n)
    rankings = compute_rankings(ledger, max_top)
    all_days = list(range(ledger.n_days))
    supplies = [ledger.supply_at(d) for d in all_days]
    days = [d for d in all_days if in_window(d)]

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
    svg_meta = f"ledgerlens {__version__} format={FORMAT_VERSION} config={cfg}"

    # Top-N supply proportions (matrix rows cover the full history; emission
    # is windowed).
    prop = proportion_series(rankings, supplies, tops)
    write_csv(
        os.path.join(out_dir, "proportions.csv"),
        ["day"] + [f"p{n}" for n in tops],
        [(d, *[float(prop[d, j]) for j in range(len(tops))]) for d in days],
        cfg,
    )
    write_csv(
        os.path.join(out_dir, "proportions_long.csv"),
        ["day", "n", "proportion"],
        [(d, n, float(prop[d, j])) for d in days for j, n in enumerate(tops)],
        cfg,
    )
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

    # Ranking stability: each distinct (metric, N, interval) series is built
    # once and feeds the CSV, the JSON bundle and the charts.
    stab: dict[tuple[str, int, int], StabilitySeries] = {}
    for metric in ("spearman", "retention"):
        for n, interval in [(focus_n, i) for i in intervals] + [(t, 1) for t in tops]:
            if (metric, n, interval) not in stab:
                s = stability_series(rankings, n, interval, metric, spearman_mode)
                s.values = {d: v for d, v in s.values.items() if in_window(d)}
                stab[(metric, n, interval)] = s
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
    ds = d_static_series(rankings, max(tops), scaling)
    ds.values = {d: v for d, v in ds.values.items() if in_window(d)}
    write_csv(
        os.path.join(out_dir, "d_static.csv"),
        ["day", "d_static"],
        sorted(ds.values.items()),
        cfg,
    )
    bundle["d_static"] = {
        "scaling": scaling,
        "top": max(tops),
        "values": {str(d): v for d, v in sorted(ds.values.items())},
    }

    # Dispersion of graph centralities.
    disp = dispersion_series(
        ledger, rankings, ("degree", "pagerank"), focus_n,
        value_weighted=value_weighted,
    )
    disp = {
        m: {d: v for d, v in vals.items() if in_window(d)}
        for m, vals in disp.items()
    }
    write_csv(
        os.path.join(out_dir, "dispersion.csv"),
        ["day", "metric", "dispersion"],
        [
            (d, m, v)
            for m in sorted(disp)
            for d, v in sorted(disp[m].items())
        ],
        cfg,
    )
    bundle["dispersion"] = {
        m: {str(d): v for d, v in sorted(vals.items())} for m, vals in disp.items()
    }

    # HHI under the three clustering schemes, plus the dynamic degree.  The
    # dynamic degree normalizes over the full computed series before
    # windowing.
    hhi_rows: list[tuple] = []
    hhi_bundle: dict[str, dict] = {}
    for scheme in ("a1", "a2", "a3"):
        series = hhi_series(ledger, scheme, focus_n=focus_n, method=method)
        if scheme == "a3":
            a3 = series
        classes = series.classes()
        hhi_rows.extend(
            (d, scheme, v, classes[d])
            for d, v in sorted(series.values.items())
            if in_window(d)
        )
        hhi_bundle[scheme] = {
            str(d): v for d, v in sorted(series.values.items()) if in_window(d)
        }
    write_csv(
        os.path.join(out_dir, "hhi.csv"),
        ["day", "scheme", "hhi", "class"],
        hhi_rows,
        cfg,
    )
    bundle["hhi"] = hhi_bundle

    dyn = {d: v for d, v in d_hhi(a3).items() if in_window(d)}
    write_csv(
        os.path.join(out_dir, "d_hhi.csv"),
        ["day", "d_hhi"],
        sorted(dyn.items()),
        cfg,
    )
    bundle["d_hhi"] = {str(d): v for d, v in sorted(dyn.items())}

    if charts:
        disp_plot = {m: dict(sorted(vals.items())) for m, vals in disp.items()}
        _write_charts(
            out_dir, days, tops, intervals, focus_n,
            prop[days] if days else prop[:0], diff[days] if days else diff[:0],
            diff_xs, stab, rankings, ds, disp_plot, hhi_bundle, dyn, curve_day,
            svg_meta,
        )

    write_json(os.path.join(out_dir, "report.json"), bundle)
    return bundle


def _write_charts(
    out_dir, days, tops, intervals, focus_n, prop, diff, diff_xs, stab,
    rankings, ds, disp, hhi_bundle, dyn, curve_day, svg_meta,
):
    chart_dir = os.path.join(out_dir, "charts")
    os.makedirs(chart_dir, exist_ok=True)

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

    for metric in ("spearman", "retention"):
        by_interval = {}
        interval_groups = []
        for interval in intervals:
            s = stab[(metric, focus_n, interval)]
            xs = sorted(s.values)
            by_interval[f"interval {interval}"] = (
                xs, [s.values[d] if s.values[d] is not None else float("nan") for d in xs]
            )
            interval_groups.append((str(interval), s.defined()))
        line_chart(
            by_interval,
            os.path.join(chart_dir, f"{metric}_intervals.svg"),
            f"Top-{focus_n} {metric} by day interval", "day", metric,
            meta=svg_meta,
        )
        box_plot(
            interval_groups,
            os.path.join(chart_dir, f"{metric}_intervals_box.svg"),
            f"Top-{focus_n} {metric} distribution by interval",
            "interval (days)", metric, meta=svg_meta,
        )
        by_top = {}
        top_groups = []
        for n in tops:
            s = stab[(metric, n, 1)]
            xs = sorted(s.values)
            by_top[f"top-{n}"] = (
                xs, [s.values[d] if s.values[d] is not None else float("nan") for d in xs]
            )
            top_groups.append((str(n), s.defined()))
        line_chart(
            by_top,
            os.path.join(chart_dir, f"{metric}_tops.svg"),
            f"One-day {metric} by list size", "day", metric, meta=svg_meta,
        )
        box_plot(
            top_groups,
            os.path.join(chart_dir, f"{metric}_tops_box.svg"),
            f"One-day {metric} distribution by list size", "top-N", metric,
            meta=svg_meta,
        )

    if rankings:
        day = curve_day if curve_day is not None else len(rankings) - 1
        if len(rankings[day]):
            curve = cumulative_curve(rankings[day], max(tops))
            xs = list(range(1, curve.n + 1))
            line_chart(
                {
                    "actual": (xs, curve.c_real.tolist()),
                    "equal": (xs, curve.c_equal.tolist()),
                },
                os.path.join(chart_dir, "cumulative_curve.svg"),
                f"Cumulative top-N wealth share (day {day})", "rank", "share",
                meta=svg_meta,
            )
    xs = sorted(ds.values)
    line_chart(
        {"d_static": (xs, [ds.values[d] for d in xs])},
        os.path.join(chart_dir, "d_static.svg"),
        "Static decentralization degree", "day", "d_static", meta=svg_meta,
    )

    line_chart(
        {
            m: (sorted(vals), [vals[d] for d in sorted(vals)])
            for m, vals in disp.items()
        },
        os.path.join(chart_dir, "dispersion.svg"),
        "Centrality dispersion of the focus graph", "day", "dispersion",
        meta=svg_meta,
    )

    line_chart(
        {
            scheme.upper(): (
                [int(d) for d in sorted(vals, key=int)],
                [vals[d] for d in sorted(vals, key=int)],
            )
            for scheme, vals in hhi_bundle.items()
        },
        os.path.join(chart_dir, "hhi.svg"),
        "HHI by clustering scheme", "day", "HHI", meta=svg_meta,
    )
    line_chart(
        {"d_hhi": (sorted(dyn), [dyn[d] for d in sorted(dyn)])},
        os.path.join(chart_dir, "d_hhi.svg"),
        "Dynamic decentralization degree", "day", "d_hhi", meta=svg_meta,
    )
