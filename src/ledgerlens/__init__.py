"""Decentralization analytics over multi-input/multi-output transaction
ledgers: balance reconstruction, top-N rankings, ranking stability,
concentration indices, and transaction-graph centrality dispersion."""

__version__ = "0.1.0"

from .balances import (
    BalanceSnapshot,
    Ranking,
    compute_rankings,
    compute_snapshots,
)
from .errors import (
    BalanceError,
    ConvergenceError,
    LedgerError,
    ParseError,
    StoreError,
)
from .ledger import (
    COINBASE,
    AddressTable,
    Ledger,
    parse_ledger,
)
from .lorenz import CumulativeCurve, cumulative_curve, d_static, d_static_series
from .market import (
    HHISeries,
    classify,
    cluster,
    d_hhi,
    hhi,
    hhi_by_scheme,
    hhi_series,
    label_propagation,
)
from .stability import (
    DistributionSummary,
    StabilitySeries,
    retention,
    spearman,
    stability_series,
    stability_table,
    summarize,
)
from .store import load_ledger, save_ledger
from .synth import SynthConfig, generate
from .txgraph import (
    MetricVector,
    TransactionGraph,
    build_day_graph,
    degree_centrality,
    dispersion,
    dispersion_series,
    pagerank,
)

__all__ = [
    "__version__",
    "AddressTable", "BalanceError", "BalanceSnapshot", "COINBASE",
    "ConvergenceError", "CumulativeCurve", "DistributionSummary",
    "HHISeries", "Ledger", "LedgerError", "MetricVector",
    "ParseError", "Ranking", "StabilitySeries", "StoreError",
    "SynthConfig", "TransactionGraph", "build_day_graph",
    "classify", "cluster", "compute_rankings", "compute_snapshots",
    "cumulative_curve", "d_hhi", "d_static", "d_static_series",
    "degree_centrality", "dispersion", "dispersion_series",
    "generate", "hhi", "hhi_by_scheme", "hhi_series", "label_propagation",
    "load_ledger", "pagerank", "parse_ledger", "retention", "save_ledger",
    "spearman", "stability_series", "stability_table", "summarize",
]
