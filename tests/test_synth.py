import hashlib
import io
import math

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
from ledgerlens.cli import run
from ledgerlens.lorenz import d_static_series
from ledgerlens.synth import MAX_ADDRESSES
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


# Configs that would wrap, overflow or crash, each as its SynthConfig
# fields, the `synth` flags that set them and a field its refusal names.
REFUSED = [
    ({"growth": math.inf}, ["--growth", "inf"], "growth"),
    ({"growth": math.nan}, ["--growth", "nan"], "growth"),
    ({"alpha": math.inf}, ["--alpha", "inf"], "alpha"),
    ({"alpha": math.nan}, ["--alpha", "nan"], "alpha"),
    ({"initial_supply": 10**20}, ["--initial-supply", str(10**20)], "initial_supply"),
    ({"reward": 10**20}, ["--reward", str(10**20)], "reward"),
    # Fits int64 alone, but the supply minted by day 2 does not.
    ({"reward": 2**63 - 1}, ["--reward", str(2**63 - 1)], "reward"),
    # (balance + 1) ** 30 overflows float64 on the first payment day.
    ({"regime": "preferential", "alpha": 30.0},
     ["--regime", "preferential", "--alpha", "30"], "alpha"),
    ({"seed": -1}, ["--seed", "-1"], "seed"),
    ({"seed": -(2**64)}, ["--seed", str(-(2**64))], "seed"),
    ({"seed": 2**128}, ["--seed", str(2**128)], "seed"),
    # Room for more addresses than MAX_ADDRESSES: numpy's "Maximum allowed
    # dimension exceeded", and an allocation of 21.8 TiB.
    ({"growth": 1e300}, ["--growth", "1e300"], "growth"),
    ({"growth": 1e12}, ["--growth", "1e12"], "growth"),
]


class TestRefusedConfigs:
    @pytest.mark.parametrize("fields, flags, name", REFUSED,
                             ids=[" ".join(flags) for _, flags, _ in REFUSED])
    def test_generate_refuses(self, fields, flags, name):
        with pytest.raises(ValueError, match=name):
            generate(SynthConfig(days=3, **fields))

    @pytest.mark.parametrize("fields, flags, name", REFUSED,
                             ids=[" ".join(flags) for _, flags, _ in REFUSED])
    def test_cli_exits_1_without_output(self, fields, flags, name, tmp_path, capsys):
        out = tmp_path / "chain.jsonl"
        assert run(["synth", "--days", "3", *flags, "--out", str(out)]) == 1
        assert name in capsys.readouterr().err
        assert not out.exists()

    def test_address_bound(self):
        # 1 + pool + int(growth * days) + churned addresses, up to the bound.
        churn = {"regime": "churn", "initial_supply": 2**62}
        SynthConfig(days=4, pool=MAX_ADDRESSES - 1).validate()
        SynthConfig(days=4, pool=1, growth=(MAX_ADDRESSES - 2) / 4).validate()
        SynthConfig(days=4, pool=MAX_ADDRESSES - 41, **churn).validate()
        for cfg in (SynthConfig(days=4, pool=MAX_ADDRESSES),
                    SynthConfig(days=4, pool=1, growth=(MAX_ADDRESSES - 1) / 4),
                    SynthConfig(days=4, pool=MAX_ADDRESSES - 40, **churn)):
            with pytest.raises(ValueError, match="growth"):
                cfg.validate()

    def test_seed_past_64_bits_is_its_own_chain(self):
        cfg = SynthConfig(seed=5, days=6, txs_per_day=30, pool=40)
        wide = SynthConfig(seed=2**64 + 5, days=6, txs_per_day=30, pool=40)
        assert canonical(generate(wide)) != canonical(generate(cfg))
        assert canonical(generate(SynthConfig(seed=2**128 - 1, days=2))) != canonical(
            generate(SynthConfig(seed=2**64 - 1, days=2)))

    @pytest.mark.parametrize("regime, extra, seed, digest", [
        ("uniform", {"growth": 1.5}, 5, "df39b976d4540a52"),
        ("uniform", {"growth": 1.5}, 2**64 - 1, "ae5b0175835c8569"),
        ("preferential", {"alpha": 1.0, "growth": 2.0}, 5, "dd1f193009b2a60f"),
        ("preferential", {"alpha": 1.0, "growth": 2.0}, 2**64 - 1, "ae96b0f185faa76a"),
        ("hub", {"hubs": 3}, 5, "a4738b9b61028819"),
        ("hub", {"hubs": 3}, 2**64 - 1, "05c9a4bacb609eb6"),
        ("churn", {}, 5, "7b5e8f88780cb74c"),
        ("churn", {}, 2**64 - 1, "a472368308c6a36e"),
    ])
    def test_seeds_below_2_64_keep_their_bytes(self, regime, extra, seed, digest):
        # Pinned SHA-256 prefixes: a seed below 2**64 keys Philox as it did
        # when keys were cut to 64 bits, so its chain keeps its bytes.
        cfg = SynthConfig(seed=seed, days=6, txs_per_day=30, pool=40, regime=regime, **extra)
        assert hashlib.sha256(canonical(generate(cfg))).hexdigest()[:16] == digest


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
        target = 100 / len(last.as_dict())
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
