import io

import numpy as np
import pytest

from ledgerlens import (
    SynthConfig,
    compute_rankings,
    compute_snapshots,
    generate,
    parse_ledger,
)
from ledgerlens.balances import proportion_series
from ledgerlens.lorenz import d_static_series
from oracles import expand_ledger


def canonical(ledger) -> bytes:
    return ledger.canonical_bytes()


class TestBasics:
    def test_zero_days_empty(self):
        ledger = generate(SynthConfig(days=0))
        assert len(ledger) == 0
        assert ledger.n_days == 0

    def test_deterministic_bytes(self):
        cfg = SynthConfig(seed=42, days=10, txs_per_day=50, pool=40)
        assert canonical(generate(cfg)) == canonical(generate(cfg))

    def test_seed_changes_output(self):
        a = canonical(generate(SynthConfig(seed=1, days=10, txs_per_day=50, pool=40)))
        b = canonical(generate(SynthConfig(seed=2, days=10, txs_per_day=50, pool=40)))
        assert a != b

    def test_roundtrips_through_parser(self):
        cfg = SynthConfig(seed=7, days=12, txs_per_day=80, pool=50, growth=2.0)
        ledger = generate(cfg)
        reparsed = parse_ledger(io.StringIO(canonical(ledger).decode()))
        assert canonical(reparsed) == canonical(ledger)
        assert reparsed.out_of_order == 0

    def test_conservation_and_nonnegative(self):
        for regime, extra in (
            ("uniform", {}),
            ("preferential", {"alpha": 1.2}),
            ("hub", {"hubs": 3}),
            ("churn", {"reward": 0}),
        ):
            cfg = SynthConfig(seed=5, days=12, txs_per_day=60, pool=40, **extra,
                              regime=regime)
            ledger = generate(cfg)
            for snap in compute_snapshots(ledger):  # raises on negative balance
                assert int(snap.balances.sum()) + snap.fees_to_date == snap.total_supply

    def test_growth_adds_addresses(self):
        base = generate(SynthConfig(seed=1, days=10, txs_per_day=20, pool=30))
        grown = generate(SynthConfig(seed=1, days=10, txs_per_day=20, pool=30,
                                     growth=3.0))
        assert len(grown.addresses) > len(base.addresses)

    def test_halving_schedule(self):
        cfg = SynthConfig(seed=1, days=9, txs_per_day=0, pool=4,
                          reward=64, halving_days=3, initial_supply=1000)
        ledger = generate(cfg)
        assert ledger.minted_by_day.tolist() == [1000, 64, 64, 32, 32, 32, 16, 16, 16]

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            generate(SynthConfig(days=-1))
        with pytest.raises(ValueError):
            generate(SynthConfig(regime="nope"))
        with pytest.raises(ValueError):
            generate(SynthConfig(regime="hub", hubs=0))
        with pytest.raises(ValueError):
            generate(SynthConfig(churn_rate=1.5))
        with pytest.raises(ValueError):
            generate(SynthConfig(pool=100, initial_supply=10))
        with pytest.raises(ValueError, match="halving_days"):
            generate(SynthConfig(halving_days=-1))


class TestRegimes:
    def test_uniform_top100_share_near_membership_share(self):
        # Measurement-calibrated law-of-large-numbers band: with small
        # transfer sizes the balance spread stays close to equal, so the
        # top-100 share hovers a little above 100/n and far below what any
        # concentrating regime produces.
        cfg = SynthConfig(seed=1, days=40, txs_per_day=400, pool=400,
                          regime="uniform", initial_supply=10**12, reward=0,
                          amount_frac=0.05)
        ledger = generate(cfg)
        last = list(compute_snapshots(ledger))[-1]
        ranking = list(compute_rankings(ledger, 100))[-1]
        share = proportion_series([ranking], [last.total_supply], [100])[0, 0]
        target = 100 / last.funded_count
        assert abs(share - target) < 0.6 * target

    def test_preferential_concentrates_vs_uniform_alpha(self):
        for seed in (1, 2, 3):
            means = []
            for alpha in (0.0, 1.5):
                cfg = SynthConfig(seed=seed, days=20, txs_per_day=300, pool=250,
                                  regime="preferential", alpha=alpha,
                                  initial_supply=10**12, reward=10**8)
                rankings = compute_rankings(generate(cfg), 200)
                series = d_static_series(rankings, 200)
                means.append(float(np.mean(list(series.values.values()))))
            assert means[1] < means[0]

    def test_hub_regime_funnels_to_hubs(self):
        cfg = SynthConfig(seed=2, days=15, txs_per_day=200, pool=100,
                          regime="hub", hubs=2, initial_supply=10**12, reward=0)
        ledger = generate(cfg)
        arrays = expand_ledger(ledger)
        hub_ids = {ledger.addresses.id_of("a0000001"),
                   ledger.addresses.id_of("a0000002")}
        touches = sum(
            1 for s, t in zip(arrays.src, arrays.dst)
            if int(s) in hub_ids or int(t) in hub_ids
        )
        assert touches > 0.9 * len(arrays.src)  # only coinbase edges miss hubs

    def test_churn_creates_fresh_addresses_daily(self):
        cfg = SynthConfig(seed=3, days=6, regime="churn", churn_rate=0.1,
                          pool=120, reward=0, initial_supply=10**10)
        ledger = generate(cfg)
        assert len(ledger.addresses) == 1 + 120 + 10 * 5  # COINBASE + pool + churn
