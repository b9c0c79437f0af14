"""Independent brute-force oracles used to cross-check the implementations.

These deliberately avoid the code paths (and, where possible, the
libraries) used by the package: plain Python loops, exact integer
arithmetic, math.fsum summation, and dense linear solves.
"""

import math
from fractions import Fraction

import numpy as np


def pearson_fsum(xs, ys) -> float | None:
    """Pearson correlation with exact (fsum) accumulation."""
    n = len(xs)
    assert n == len(ys)
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    cov = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = math.fsum((x - mx) ** 2 for x in xs)
    vy = math.fsum((y - my) ** 2 for y in ys)
    if vx == 0 or vy == 0:
        return None
    return cov / math.sqrt(vx * vy)


def pearson_int(xs, ys) -> float | None:
    """Pearson correlation of two int vectors from exact Python-int
    moments: only the final division, square root and their operands are
    rounded.  None when there are fewer than two members or either side has
    no variance."""
    m = len(xs)
    sx, sy = sum(xs), sum(ys)
    vx = m * sum(x * x for x in xs) - sx * sx
    vy = m * sum(y * y for y in ys) - sy * sy
    if m < 2 or vx == 0 or vy == 0:
        return None
    r = (m * sum(x * y for x, y in zip(xs, ys)) - sx * sy) / math.sqrt(vx * vy)
    return min(1.0, max(-1.0, r))


def spearman_int(a, b, mode) -> float | None:
    """Spearman coefficient of two ranked lists of (key, value), largest
    value first, as `pearson_int` of doubled average ranks (integers).
    `intersection` keeps the keys both lists hold; `penalized` keeps every
    key, an absentee at rank len + 1 of the list that lacks it."""
    ra = {k: int(2 * r) for (k, _), r in zip(a, average_ranks([v for _, v in a]))}
    rb = {k: int(2 * r) for (k, _), r in zip(b, average_ranks([v for _, v in b]))}
    keys = set(ra) & set(rb) if mode == "intersection" else set(ra) | set(rb)
    pa, pb = 2 * len(a) + 2, 2 * len(b) + 2
    return pearson_int([ra.get(k, pa) for k in keys], [rb.get(k, pb) for k in keys])


def average_ranks(values_desc) -> list[float]:
    """1-based ranks of a descending list, ties sharing their mean position."""
    n = len(values_desc)
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values_desc[j + 1] == values_desc[i]:
            j += 1
        mean = (i + 1 + j + 1) / 2
        for k in range(i, j + 1):
            ranks[k] = mean
        i = j + 1
    return ranks


def gini_pairwise(balances) -> float:
    """Discrete Gini via the exact pairwise-difference formula."""
    b = [int(v) for v in balances]
    n = len(b)
    total = sum(b)
    assert total > 0
    acc = 0
    for i in range(n):
        for j in range(n):
            acc += abs(b[i] - b[j])
    return float(Fraction(acc, 2 * n * total))


def gini_pairwise_np(balances) -> float:
    """Same pairwise-difference Gini, vectorized with exact int64 sums."""
    b = np.asarray(balances, dtype=np.int64)
    n = len(b)
    total = int(b.sum())
    assert total > 0
    acc = int(np.abs(b[:, None] - b[None, :]).sum())
    return float(Fraction(acc, 2 * n * total))


def pagerank_dense(n: int, edges, damping: float = 0.85) -> np.ndarray:
    """Direct solve of the damped PageRank linear system.

    `edges` is an iterable of (src, dst, weight) over nodes 0..n-1.  Columns
    of the transition matrix are out-weight-normalized; dangling columns
    spread uniformly, so the matrix is stochastic and the solution of
    (I - d*M) x = (1-d)/n * 1 sums to 1.
    """
    out_w = [0.0] * n
    for s, t, w in edges:
        out_w[s] += w
    m = np.zeros((n, n))
    for s, t, w in edges:
        m[t, s] += w / out_w[s]
    for s in range(n):
        if out_w[s] == 0.0:
            m[:, s] = 1.0 / n
    a = np.eye(n) - damping * m
    b = np.full(n, (1.0 - damping) / n)
    return np.linalg.solve(a, b)


def eager_rank_balances(balances, n, addresses):
    """The top-n ranking with its ids ordered at once, as `rank_balances`
    made it before ids were ordered on their first read: returns (ids,
    balances, funded total, funded sum of squares).

    Every id at or above the n-th largest funded balance is kept and one
    `np.lexsort` on (balance, name position) orders them; the sum of
    squares is numpy's pairwise sum in id order."""
    funded = np.flatnonzero(balances > 0)
    vals = balances[funded]
    as_float = vals.astype(np.float64)
    totals = int(vals.sum()), float(np.add.reduce(as_float * as_float))
    if len(funded) > n:
        threshold = np.partition(vals, len(vals) - n)[len(vals) - n]
        keep = vals >= threshold
        funded, vals = funded[keep], vals[keep]
    order = np.lexsort((addresses.name_rank[funded], -vals))[:n]
    return (funded[order], vals[order], *totals)


def brute_force_pairs(inputs, outputs) -> set[tuple[str, str]]:
    """All (input address, output address) pairs by naive enumeration."""
    pairs = set()
    for a, _ in inputs:
        for b, _ in outputs:
            pairs.add((a, b))
    return pairs


def expand_ledger(ledger, with_values: bool = False):
    """The whole-ledger N x M expansion the focus expansion replaced.

    Every transaction's (input, output) pairs in (transaction, input,
    output) order, COINBASE (id 0) the one input of a coinbase.  Returns a
    namespace of `src`, `dst`, `tx`, `day`, `day_ptr` (``day_ptr[d]:
    day_ptr[d + 1]`` slices day d) and `values` (the output value split by
    input share, or None).
    """
    from types import SimpleNamespace

    n = len(ledger.txids)
    m = np.diff(ledger.in_ptr)
    k = np.diff(ledger.out_ptr)
    m_eff = np.where(m == 0, 1, m)  # coinbase contributes one pseudo-input

    # Effective input ids: real inputs copied in, coinbase slots left at 0.
    eff_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(m_eff, out=eff_ptr[1:])
    eff_in_addr = np.zeros(eff_ptr[-1], dtype=np.int64)
    dest = np.zeros(0, dtype=np.int64)
    if len(ledger.in_addr):
        tx_of_entry = np.repeat(np.arange(n), m)
        dest = (
            eff_ptr[tx_of_entry] - ledger.in_ptr[:-1][tx_of_entry]
            + np.arange(len(ledger.in_addr))
        )
        eff_in_addr[dest] = ledger.in_addr

    edges_per_tx = m_eff * k
    total = int(edges_per_tx.sum())
    edge_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(edges_per_tx, out=edge_ptr[1:])

    src = np.repeat(eff_in_addr, np.repeat(k, m_eff))
    tx_of_edge = np.repeat(np.arange(n), edges_per_tx)
    local = np.arange(total, dtype=np.int64) - edge_ptr[tx_of_edge]
    out_pos = ledger.out_ptr[:-1][tx_of_edge] + local % k[tx_of_edge]
    dst = ledger.out_addr[out_pos]
    day = ledger.days[tx_of_edge]
    day_ptr = np.searchsorted(day, np.arange(ledger.n_days + 1, dtype=np.int64))

    values = None
    if with_values:
        # Split each output's value across inputs proportionally to the
        # input values; a coinbase edge carries the full output value.
        eff_in_val = np.zeros(eff_ptr[-1], dtype=np.float64)
        in_total = np.ones(n, dtype=np.float64)
        if len(ledger.in_val):
            eff_in_val[dest] = ledger.in_val
            has_in = m > 0
            if has_in.any():
                in_total[has_in] = np.add.reduceat(
                    ledger.in_val, ledger.in_ptr[:-1][has_in]
                )
        is_cb = m == 0
        eff_in_val[eff_ptr[:-1][is_cb]] = 1.0
        src_val = np.repeat(eff_in_val, np.repeat(k, m_eff))
        values = (
            ledger.out_val[out_pos].astype(np.float64)
            * src_val
            / in_total[tx_of_edge]
        )
    return SimpleNamespace(src=src, dst=dst, tx=tx_of_edge, day=day,
                           day_ptr=day_ptr, values=values)


def graph_of(pairs, nodes=None):
    """A day-0 `TransactionGraph` of a list or array of (src, dst) pairs,
    built by the aggregation `build_day_graph` runs (`txgraph._aggregate`):
    parallel pairs fold into counts and self-loops drop.  `nodes` adds
    isolated nodes beyond the edge ends.  Not an oracle: it feeds graphs to
    the metrics that the oracles check."""
    from ledgerlens.txgraph import _aggregate

    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    (graph,) = _aggregate(0, 1, np.zeros(len(pairs), dtype=np.int64), pairs[:, 0], pairs[:, 1],
                          None)
    if nodes is not None:
        graph.nodes = np.union1d(graph.nodes, np.fromiter(nodes, dtype=np.int64))
    return graph


def connected_components(nodes, pairs) -> list[frozenset]:
    """Union-find components over undirected pairs."""
    parent = {int(v): int(v) for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in pairs:
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[ra] = rb
    groups: dict[int, set] = {}
    for v in parent:
        groups.setdefault(find(v), set()).add(v)
    return [frozenset(g) for g in groups.values()]


def parse_ledger_records(stream, epoch=None):
    """The record-at-a-time parser the columnar `parse_ledger` replaced.

    One `json.loads` and one `_validate_record` per line, Python dicts for
    interning and a Python sort over (time, txid).  Its only JSON errors are
    `json.JSONDecodeError`s: a nesting or integer-literal overflow escapes as
    the raw exception, so parity tests leave those two inputs out.
    """
    import json

    from ledgerlens.errors import ParseError
    from ledgerlens.ledger import (
        COINBASE, MAX_VALUE, MIN_TIME, SECONDS_PER_DAY, AddressTable, Ledger,
        _validate_record,
    )

    if epoch is not None and not MIN_TIME <= epoch <= MAX_VALUE:
        raise ValueError(f"epoch {epoch} outside [{MIN_TIME}, {MAX_VALUE}]")
    index = {COINBASE: 0}
    txids, times, sides = [], [], []
    seen = set()
    out_of_order = 0
    prev_time = None
    minted = 0
    for line_no, line in enumerate(stream, start=1):
        if isinstance(line, bytes):
            try:
                line = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                bad = exc.object[exc.start]
                raise ParseError(
                    line_no, f"not valid UTF-8 (byte {bad:#04x} at column {exc.start + 1})"
                ) from exc
        text = line.strip()
        if not text:
            continue
        try:
            rec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(line_no, f"invalid JSON ({exc.msg})") from exc
        txid, time, inputs, outputs = _validate_record(rec, line_no)
        if txid in seen:
            raise ParseError(line_no, f"duplicate txid {txid!r}")
        if not inputs:
            minted += sum(v for _, v in outputs)
            if minted > MAX_VALUE:
                raise ParseError(line_no, "minted supply exceeds 2^63-1")
        seen.add(txid)
        if prev_time is not None and time < prev_time:
            out_of_order += 1
        prev_time = time
        txids.append(txid)
        times.append(time)
        sides.append(tuple(
            [(index.setdefault(a, len(index)), v) for a, v in side]
            for side in (inputs, outputs)
        ))

    order = sorted(range(len(txids)), key=lambda i: (times[i], txids[i]))
    ptrs = {"in": [0], "out": [0]}
    cols = {"in": ([], []), "out": ([], [])}
    for i in order:
        for name, side in zip(("in", "out"), sides[i]):
            for a, v in side:
                cols[name][0].append(a)
                cols[name][1].append(v)
            ptrs[name].append(len(cols[name][0]))
    arr = lambda xs: np.asarray(xs, dtype=np.int64)  # noqa: E731
    if epoch is not None:
        epoch = epoch // SECONDS_PER_DAY * SECONDS_PER_DAY
    return Ledger(
        addresses=AddressTable(list(index)[1:]),
        txids=[txids[i] for i in order],
        times=arr([times[i] for i in order]),
        in_ptr=arr(ptrs["in"]),
        in_addr=arr(cols["in"][0]),
        in_val=arr(cols["in"][1]),
        out_ptr=arr(ptrs["out"]),
        out_addr=arr(cols["out"][0]),
        out_val=arr(cols["out"][1]),
        epoch_start=epoch,
        out_of_order=out_of_order,
    )
