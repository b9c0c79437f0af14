"""Output checks for the benchmark.

Every expected value is computed here from the generator's ground truth
(``gen.Truth``) or is a property the method must have; nothing is compared
against a stored copy of an earlier output and nothing here imports the
package under test.  Each check returns a list of error strings, empty when
the output is right.
"""

import csv
import json
import math
import operator
import random
from fractions import Fraction

import numpy as np

DEFAULT_TOPS = tuple(range(100, 2001, 100))
DEFAULT_INTERVALS = (1, 5, 10, 50, 100)
FOCUS = 100
DSTATIC_N = 2000
DAMPING = 0.85
# ledgerlens stops PageRank once a sweep changes the ranks by less than this
# (L1); the exact ranks are then within DAMPING / (1 - DAMPING) times it.
PAGERANK_STEP_TOL = 1e-10
SPEARMAN_SAMPLES = 60   # stability rows checked per output
DISPERSION_SAMPLES = 4  # days whose focus graph is rebuilt and solved densely
MAX_ERRORS = 5  # errors reported per check; the first one already fails it


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a ledgerlens CSV, its '#' metadata lines skipped."""
    with open(path, newline="") as fp:
        lines = [line for line in fp if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _num(text: str) -> float | None:
    value = float(text)
    return None if math.isnan(value) else value


def _avg_ranks(balances_desc: np.ndarray) -> list[float]:
    """1-based positions in a descending list, equal balances sharing the
    mean of their positions."""
    values = balances_desc.tolist()
    ranks = [0.0] * len(values)
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and values[j + 1] == values[i]:
            j += 1
        for k in range(i, j + 1):
            ranks[k] = (i + j + 2) / 2.0
        i = j + 1
    return ranks


def _pearson(xs: list[float], ys: list[float]) -> float | None:
    n = len(xs)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    syy = math.fsum((y - my) ** 2 for y in ys)
    if sxx <= 0.0 or syy <= 0.0:
        return None
    sxy = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    return sxy / math.sqrt(sxx * syy)


def _dispersion(values: list[float]) -> float:
    high, low = max(values), min(values)
    if high == low:
        return 1.0
    avg = math.fsum(values) / len(values)
    return (high - low) / (avg - low)


class Expected:
    """Per-day rankings and aggregates derived from the generator's truth.

    Rankings order funded addresses by descending balance, ties by ascending
    address string, as the README documents.
    """

    def __init__(self, truth, seed: int, top_k: int = max(DEFAULT_TOPS)):
        self.truth = truth
        self.days = truth.days
        self.supply = truth.minted_cum
        names = np.asarray(truth.names)
        self.name_rank = np.empty(len(names), dtype=np.int64)
        self.name_rank[np.argsort(names, kind="stable")] = np.arange(len(names))
        self.top_ids: list[np.ndarray] = []
        self.top_bal: list[np.ndarray] = []
        self.sumsq: list[int] = []
        for _, bal in truth.day_end_balances():
            funded = np.flatnonzero(bal > 0)
            vals = bal[funded]
            if len(vals) > top_k:
                cut = np.partition(vals, len(vals) - top_k)[len(vals) - top_k]
                keep = vals >= cut
                funded, vals = funded[keep], vals[keep]
            order = np.lexsort((self.name_rank[funded], -vals))[:top_k]
            self.top_ids.append(funded[order])
            self.top_bal.append(vals[order])
            everyone = bal[bal > 0].tolist()
            self.sumsq.append(sum(map(operator.mul, everyone, everyone)))
        self.final = bal.copy()
        self.seed = seed

    def sample(self, items: list, k: int, tag: str) -> list:
        """A seeded sample of k items, the same for every call with this
        seed and tag."""
        rng = random.Random(f"ledgerlens-bench-checks:{self.seed}:{tag}")
        return sorted(rng.sample(items, min(k, len(items))))

    def top_share(self, day: int, n: int) -> Fraction:
        return Fraction(int(self.top_bal[day][:n].sum()), self.supply[day])

    def hhi_a1(self, day: int) -> float:
        return 10000 * self.sumsq[day] / (self.supply[day] ** 2)

    def d_static(self, day: int, n: int = DSTATIC_N) -> float:
        """1 - Gini of the top-n balances, zero-padded to n entries, from the
        exact integer form G = 2 * sum(i * y_i) / (n * sum(y)) - (n + 1) / n
        over ascending y."""
        desc = self.top_bal[day][:n].tolist()
        weighted = sum((n - j) * b for j, b in enumerate(desc))  # j = 0 is the largest
        gini = Fraction(2 * weighted, n * sum(desc)) - Fraction(n + 1, n)
        return float(1 - gini)

    def retention(self, day: int, later: int, n: int) -> float:
        a = set(self.top_ids[day][:n].tolist())
        b = set(self.top_ids[later][:n].tolist())
        denom = max(len(a), len(b))
        return 1.0 if denom == 0 else len(a & b) / denom

    def spearman(self, day: int, later: int, n: int) -> float | None:
        ids_a, ids_b = self.top_ids[day][:n], self.top_ids[later][:n]
        if not len(ids_a) or not len(ids_b):
            return None
        ra = dict(zip(ids_a.tolist(), _avg_ranks(self.top_bal[day][:n])))
        rb = dict(zip(ids_b.tolist(), _avg_ranks(self.top_bal[later][:n])))
        common = sorted(ra.keys() & rb.keys())
        if len(common) < 2:
            return None
        return _pearson([ra[i] for i in common], [rb[i] for i in common])

    def focus_graph(self, day: int) -> tuple[list[int], dict[tuple[int, int], int]]:
        """Nodes and (src, dst) -> multiplicity of day `day`'s N x M edges
        touching the previous day's top-100, self-loops dropped."""
        focus = set(self.top_ids[day - 1][:FOCUS].tolist())
        src, dst = self.truth.edges[day]
        counts: dict[tuple[int, int], int] = {}
        for a, b in zip(src.tolist(), dst.tolist()):
            if a != b and (a in focus or b in focus):
                counts[(a, b)] = counts.get((a, b), 0) + 1
        nodes = sorted({v for pair in counts for v in pair})
        return nodes, counts

    def dispersions(self, day: int) -> dict[str, float] | None:
        """Degree dispersion, PageRank dispersion from a dense linear solve
        and the relative tolerance on the latter, for one day's focus graph;
        None when it has under two nodes."""
        nodes, counts = self.focus_graph(day)
        n = len(nodes)
        if n < 2:
            return None
        pos = {v: i for i, v in enumerate(nodes)}
        degree = [0] * n
        weights = np.zeros((n, n))
        for (a, b), c in counts.items():
            degree[pos[a]] += c
            degree[pos[b]] += c
            weights[pos[a], pos[b]] = c
        out = weights.sum(axis=1)
        dangling = out == 0
        trans = np.where(dangling[:, None], 1.0 / n, weights / np.where(dangling, 1.0, out)[:, None])
        rank = np.linalg.solve(np.eye(n) - DAMPING * trans.T, np.full(n, (1.0 - DAMPING) / n))
        rank /= rank.sum()
        pagerank = _dispersion(rank.tolist())
        # A rank error e (doubled by the final normalization) moves
        # (max - min) / (mean - min) by at most (2 + D) * e / (mean - min).
        error = 2 * DAMPING / (1 - DAMPING) * PAGERANK_STEP_TOL
        spread = 1.0 / n - float(rank.min())
        return {
            "degree": _dispersion([float(d) for d in degree]),
            "pagerank": pagerank,
            "pagerank_rel_tol": max(1e-8, (2 + pagerank) * error / spread / pagerank),
        }


def _close(got: float | None, want: float | None, rel: float = 0.0, abs_: float = 0.0) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= max(abs_, rel * abs(want))


def _report(errors: list[str], message: str) -> None:
    if len(errors) < MAX_ERRORS:
        errors.append(message)


def check_meta(path: str, truth) -> list[str]:
    with open(path) as fp:
        meta = json.load(fp)
    want = {
        "transactions": truth.transactions,
        "days": truth.days,
        # meta.json counts the coinbase pseudo-address with the others.
        "addresses": truth.addresses + 1,
        "out_of_order": truth.out_of_order,
    }
    return [f"meta.json {k}={meta.get(k)!r}, expected {v}"
            for k, v in want.items() if meta.get(k) != v]


def check_proportions(path: str, exp: Expected) -> list[str]:
    """Every day's top-N share equals the exact top-N sum over the minted
    supply, to 1e-12 relative."""
    header, rows = read_csv(path)
    errors: list[str] = []
    tops = DEFAULT_TOPS
    if header != ["day"] + [f"p{n}" for n in tops]:
        return [f"{path}: header {header}"]
    if [int(r[0]) for r in rows] != list(range(exp.days)):
        return [f"{path}: days are not 0..{exp.days - 1}"]
    for row in rows:
        day = int(row[0])
        for n, cell in zip(tops, row[1:]):
            want = float(exp.top_share(day, n))
            if not _close(_num(cell), want, rel=1e-12):
                _report(errors, f"{path}: day {day} p{n}={cell}, expected {want!r}")
    return errors


def check_d_static(path: str, exp: Expected) -> list[str]:
    header, rows = read_csv(path)
    if header != ["day", "d_static"]:
        return [f"{path}: header {header}"]
    if [int(r[0]) for r in rows] != list(range(exp.days)):
        return [f"{path}: days are not 0..{exp.days - 1}"]
    errors: list[str] = []
    for day_s, cell in rows:
        want = exp.d_static(int(day_s))
        if not _close(_num(cell), want, abs_=1e-9):
            _report(errors, f"{path}: day {day_s} d_static={cell}, expected {want!r}")
    return errors


def _check_stability_value(path, exp, metric, n, interval, day, cell, errors):
    later = day + interval
    if later >= exp.days:
        _report(errors, f"{path}: day {day} + {interval} is past the history")
        return
    if metric == "retention":
        want = exp.retention(day, later, n)
        ok = _num(cell) == want
    else:
        want = exp.spearman(day, later, n)
        ok = _close(_num(cell), want, abs_=1e-12)
    if not ok:
        _report(errors, f"{path}: {metric} top{n} interval{interval} day {day}"
                        f" = {cell}, expected {want!r}")


def check_stability_report(path: str, exp: Expected) -> list[str]:
    """The report's stability.csv: every series present, every retention
    value exact, Spearman on sampled day pairs."""
    header, rows = read_csv(path)
    if header != ["day", "metric", "top", "interval", "value"]:
        return [f"{path}: header {header}"]
    want_series = {(m, FOCUS, i) for m in ("spearman", "retention") for i in DEFAULT_INTERVALS}
    want_series |= {(m, n, 1) for m in ("spearman", "retention") for n in DEFAULT_TOPS}
    seen: dict[tuple, list[int]] = {}
    errors: list[str] = []
    spearman_rows = []
    for day_s, metric, n_s, interval_s, cell in rows:
        key = (metric, int(n_s), int(interval_s))
        seen.setdefault(key, []).append(int(day_s))
        if metric == "spearman":
            spearman_rows.append((key, int(day_s), cell))
        else:
            _check_stability_value(path, exp, metric, key[1], key[2], int(day_s), cell, errors)
    for key in sorted(want_series):
        days = sorted(set(seen.get(key, [])))
        if days != list(range(max(0, exp.days - key[2]))):
            _report(errors, f"{path}: series {key} covers the wrong days")
    for (metric, n, interval), day, cell in exp.sample(spearman_rows, SPEARMAN_SAMPLES,
                                                        "spearman"):
        _check_stability_value(path, exp, metric, n, interval, day, cell, errors)
    return errors


def check_stability_query(path: str, exp: Expected) -> list[str]:
    """`stability` at its defaults: top-100 Spearman at interval 1."""
    header, rows = read_csv(path)
    if header != ["day", "value"]:
        return [f"{path}: header {header}"]
    if [int(r[0]) for r in rows] != list(range(exp.days - 1)):
        return [f"{path}: days are not 0..{exp.days - 2}"]
    errors: list[str] = []
    for day_s, cell in exp.sample(rows, SPEARMAN_SAMPLES, "spearman"):
        _check_stability_value(path, exp, "spearman", FOCUS, 1, int(day_s), cell, errors)
    return errors


def check_dispersion(path: str, exp: Expected) -> list[str]:
    """Sampled days: degree dispersion exact, PageRank dispersion equal to
    that of a dense linear solve, to 1e-8 relative or to the error that
    ledgerlens's PageRank stopping rule allows, whichever is larger; days
    under two nodes absent."""
    header, rows = read_csv(path)
    if header != ["day", "metric", "dispersion"]:
        return [f"{path}: header {header}"]
    got: dict[tuple[int, str], float | None] = {}
    for day_s, metric, cell in rows:
        got[(int(day_s), metric)] = _num(cell)
    errors: list[str] = []
    for day in exp.sample(list(range(1, exp.days)), DISPERSION_SAMPLES, "dispersion"):
        want = exp.dispersions(day)
        for metric in ("degree", "pagerank"):
            key = (day, metric)
            if want is None:
                if key in got:
                    _report(errors, f"{path}: day {day} has under two nodes but a {metric} row")
                continue
            if key not in got:
                _report(errors, f"{path}: day {day} has no {metric} row")
            elif metric == "degree" and got[key] != want[metric]:
                _report(errors, f"{path}: day {day} degree={got[key]!r}, expected {want[metric]!r}")
            elif metric == "pagerank" and not _close(got[key], want[metric],
                                                     rel=want["pagerank_rel_tol"]):
                _report(errors, f"{path}: day {day} pagerank={got[key]!r}, expected {want[metric]!r}")
    return errors


def _band(value: float) -> str:
    if value < 1500.0:
        return "competitive"
    if value < 2500.0:
        return "moderately_concentrated"
    return "highly_concentrated"


def read_hhi(paths: list[str]) -> tuple[dict[str, dict[int, float]], list[str]]:
    """HHI rows by scheme and day from one or more `hhi.csv`-shaped files;
    errors for a bad header or a class outside its band."""
    series: dict[str, dict[int, float]] = {}
    errors: list[str] = []
    for path in paths:
        header, rows = read_csv(path)
        if header != ["day", "scheme", "hhi", "class"]:
            errors.append(f"{path}: header {header}")
            continue
        for day_s, scheme, cell, klass in rows:
            value = float(cell)
            series.setdefault(scheme, {})[int(day_s)] = value
            if klass != _band(value):
                _report(errors, f"{path}: day {day_s} {scheme} hhi {cell} has class {klass}")
    return series, errors


def check_hhi(paths: list[str], exp: Expected, schemes: tuple[str, ...]) -> list[str]:
    """A1 against 10000 * sum(b^2) / supply^2 (1e-9 relative) on every day,
    A1 <= A2 <= A3 <= 10000 on every day, classes in their bands.  Where A1
    is not among the outputs, the generator's A1 takes its place in the
    ordering."""
    series, errors = read_hhi(paths)
    days = list(range(exp.days))
    for scheme in schemes:
        if sorted(series.get(scheme, {})) != days:
            _report(errors, f"hhi {scheme}: days are not 0..{exp.days - 1}")
            return errors
    for day in days:
        a1 = exp.hhi_a1(day)
        if "a1" in series and not _close(series["a1"][day], a1, rel=1e-9):
            _report(errors, f"hhi a1 day {day} = {series['a1'][day]!r}, expected {a1!r}")
        chain = [series["a1"][day] if "a1" in series else a1]
        chain += [series[s][day] for s in ("a2", "a3") if s in series]
        # The indices are sums of squares of ever coarser partitions; allow
        # only the rounding of a float sum.
        if any(lo > hi * (1 + 1e-12) for lo, hi in zip(chain, chain[1:])) or chain[-1] > 10000.0:
            _report(errors, f"hhi day {day}: A1 <= A2 <= A3 <= 10000 fails on {chain}")
    return errors


def check_d_hhi(path: str, exp: Expected) -> list[str]:
    header, rows = read_csv(path)
    if header != ["day", "d_hhi"]:
        return [f"{path}: header {header}"]
    values = [float(cell) for _, cell in rows]
    errors: list[str] = []
    if [int(r[0]) for r in rows] != list(range(exp.days)):
        errors.append(f"{path}: days are not 0..{exp.days - 1}")
    if any(not 0.0 <= v <= 1.0 for v in values):
        errors.append(f"{path}: a value lies outside [0, 1]")
    if values and (min(values) != 0.0 or max(values) != 1.0):
        errors.append(f"{path}: min {min(values)!r} and max {max(values)!r} are not 0 and 1")
    return errors


def check_snapshot(path: str, exp: Expected) -> list[str]:
    """The dump of the last day lists exactly the funded addresses, each with
    the generator's balance."""
    header, rows = read_csv(path)
    if header != ["address", "balance"]:
        return [f"{path}: header {header}"]
    names = exp.truth.names
    want = {names[g]: int(exp.final[g]) for g in np.flatnonzero(exp.final > 0)}
    got = {addr: int(bal) for addr, bal in rows}
    if got == want:
        return []
    wrong = sorted(a for a in want.keys() | got.keys() if want.get(a) != got.get(a))
    return [f"{path}: {len(wrong)} addresses differ, first {wrong[0]}:"
            f" {got.get(wrong[0])} vs {want.get(wrong[0])}"]
