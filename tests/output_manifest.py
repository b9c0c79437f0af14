"""The output contract: the SHA-256 of every file, stdout and stderr that
the CLI writes over a fixed set of small chains and command lines.

The chains are small exports of the benchmark's own generator
(``bench/gen.py``, which uses only Python's ``random`` and so writes the
same bytes on every platform), two shapes at seeds 1 and 3, and one
``synth`` chain per regime.  Each
chain is ingested, and each store is run through every command with the
variants below; every command runs in-process, from inside the case
directory, so no path enters an output.  ``tests/test_output_manifest.py``
compares a fresh run with the committed ``output_manifest.json``; a change
that moves an output byte rewrites that file and declares the move::

    PYTHONPATH=src python tests/output_manifest.py

The manifest records the numpy version that wrote it, so a mismatch under
another numpy is a finding about determinism, not noise.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "output_manifest.json"
sys.path.insert(0, str(HERE.parent / "bench"))

import gen  # noqa: E402  (bench/gen.py)

from ledgerlens.cli import run  # noqa: E402

# A few wide days and a longer narrow history, each a few hundred
# addresses; the benchmark's shapes scaled down.
SHAPES = {
    "wide": gen.Shape(
        days=8, hubs=30, hub_groups=5, miners=4, genesis_holders=400,
        max_regular=10**9, coinbase=4, payments=120, deposits=10, consolidations=30,
        batches=5, batch_outputs=10, hub_transfers=8, new_share=0.3, disorder=0.01,
    ),
    "long": gen.Shape(
        days=60, hubs=30, hub_groups=5, miners=4, genesis_holders=60,
        max_regular=300, coinbase=2, payments=10, deposits=2, consolidations=2,
        batches=1, batch_outputs=5, hub_transfers=4, new_share=0.05, disorder=0.01,
    ),
}
REGIMES = ("uniform", "preferential", "hub", "churn")

# Every command with the variants whose bytes a change could move: the
# plain run, each output flag, each mode and method, and `--day-range`.
# `{last}` is the store's last day and `{mid}` a day in its middle.
FULL = {
    "report": ["report", "--out", "rep"],
    "report_penalized": ["report", "--out", "rep", "--mode", "penalized"],
    "report_window": ["report", "--out", "rep", "--day-range", "2:{mid}",
                      "--curve-day", "{mid}", "--focus", "20", "--tops", "10,20,40",
                      "--intervals", "1,3"],
    "report_vw_modularity": ["report", "--out", "rep", "--value-weighted",
                             "--method", "modularity", "--no-charts"],
    "hhi_a1": ["hhi", "--scheme", "a1"],
    "hhi_a2": ["hhi", "--scheme", "a2", "--out", "h.csv"],
    "hhi_a3_dhhi": ["hhi", "--scheme", "a3", "--out", "h.csv", "--dhhi", "-"],
    "hhi_a3_seed": ["hhi", "--scheme", "a3", "--seed", "9", "--focus", "30"],
    "hhi_a1_partition": ["hhi", "--scheme", "a1", "--out", "h.csv",
                         "--partition-day", "{mid}", "--partition-out", "-"],
    "hhi_a2_partition": ["hhi", "--scheme", "a2", "--out", "h.csv",
                         "--partition-day", "{mid}", "--partition-out", "p.json"],
    "hhi_a3_seed_partition": ["hhi", "--scheme", "a3", "--seed", "9", "--focus", "30",
                              "--out", "h.csv", "--partition-day", "{last}",
                              "--partition-out", "p.json"],
    "hhi_a2_modularity": ["hhi", "--scheme", "a2", "--method", "modularity",
                          "--focus", "20"],
    "dispersion": ["dispersion"],
    "dispersion_nodes": ["dispersion", "--out", "d.csv", "--nodes-day", "{mid}",
                         "--nodes-out", "-"],
    "dispersion_vw": ["dispersion", "--value-weighted", "--metric", "pagerank",
                      "--focus", "40"],
    "stability": ["stability"],
    "stability_summary": ["stability", "--out", "s.csv", "--summary", "-"],
    "stability_penalized": ["stability", "--mode", "penalized", "--top", "50",
                            "--interval", "2"],
    "stability_retention": ["stability", "--metric", "retention", "--top", "20",
                            "--out", "s.csv", "--summary", "sum.json"],
    "dstatic": ["dstatic"],
    "dstatic_svg": ["dstatic", "--out", "d.csv", "--svg", "-"],
    "dstatic_svg_day": ["dstatic", "--top", "50", "--scaling", "1", "--out", "d.csv",
                        "--svg", "c.svg", "--curve-day", "{mid}"],
    "proportions": ["proportions"],
    "proportions_long": ["proportions", "--long", "--tops", "5,50,500"],
    "snapshot": ["snapshot", "--dump-day", "{last}"],
    "window_dstatic": ["dstatic", "--day-range", "3:{mid}"],
    "window_dispersion": ["dispersion", "--day-range", "3:{mid}"],
    "window_stability": ["stability", "--day-range", "3:{mid}", "--interval", "2",
                         "--out", "s.csv", "--summary", "-"],
    "window_hhi": ["hhi", "--scheme", "a3", "--day-range", "3:{mid}",
                   "--out", "h.csv", "--dhhi", "-"],
    "window_proportions": ["proportions", "--long", "--day-range", "3:{mid}"],
    "usage_dhhi": ["hhi", "--scheme", "a1", "--dhhi", "x.csv"],
    "usage_partition": ["hhi", "--partition-day", "{mid}"],
    "usage_nodes": ["dispersion", "--nodes-out", "n.csv"],
    "usage_curve": ["dstatic", "--curve-day", "{mid}"],
}
# The commands run over each synth regime's store.
SHORT = {name: FULL[name] for name in (
    "report", "hhi_a3_dhhi", "hhi_a2_partition", "dispersion", "stability_summary",
    "dstatic_svg", "proportions", "snapshot")}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# The chain's export and store stay in the case directory between commands;
# everything else a command writes is recorded and removed.
_KEEP = ("chain.jsonl", "store")


def _run(argv: list[str], entries: dict, key: str) -> None:
    """Run one command line in the current directory, then record its exit
    code and the digests of its stdout, its stderr and every file it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    entries[f"{key}:exit"] = str(code)
    entries[f"{key}:stdout"] = _digest(out.getvalue().encode())
    entries[f"{key}:stderr"] = _digest(err.getvalue().encode())
    written = [p for p in Path(".").iterdir() if p.name not in _KEEP]
    for path in sorted(f for top in written for f in [top, *top.rglob("*")] if f.is_file()):
        entries[f"{key}:{path.as_posix()}"] = _digest(path.read_bytes())
    for top in written:
        shutil.rmtree(top) if top.is_dir() else top.unlink()


def _chain(name: str, commands: dict, entries: dict) -> None:
    """Ingest `chain.jsonl` and run `commands` on the store, then remove
    both; `{last}` and `{mid}` become the store's last and middle day."""
    entries[f"{name}/export:chain.jsonl"] = _digest(Path("chain.jsonl").read_bytes())
    _run(["ingest", "--input", "chain.jsonl", "--out", "store"], entries, f"{name}/ingest")
    for member in ("ledger.npz", "meta.json"):
        entries[f"{name}/store:{member}"] = _digest((Path("store") / member).read_bytes())
    days = json.loads(Path("store/meta.json").read_text())["days"]
    fill = {"{last}": str(days - 1), "{mid}": str(days // 2)}
    for label, argv in commands.items():
        argv = [a.replace("{last}", fill["{last}"]).replace("{mid}", fill["{mid}"])
                for a in argv]
        _run([*argv, "--store", "store"], entries, f"{name}/{label}")
    Path("chain.jsonl").unlink()
    shutil.rmtree("store")


def outputs(workdir: str) -> dict[str, str]:
    """Every manifest entry, computed afresh inside the empty `workdir`."""
    entries: dict[str, str] = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for shape, seed in (("wide", 1), ("wide", 3), ("long", 1), ("long", 3)):
            gen.generate(SHAPES[shape], seed, "chain.jsonl")
            _chain(f"gen_{shape}{seed}", FULL, entries)
        for regime in REGIMES:
            _run(["synth", "--regime", regime, "--days", "20", "--seed", "4", "--pool", "80",
                  "--txs-per-day", "40", "--out", "chain.jsonl"], entries, f"synth_{regime}/synth")
            _chain(f"synth_{regime}", SHORT, entries)
    finally:
        os.chdir(cwd)
    return entries


def manifest(entries: dict[str, str]) -> dict:
    return {"numpy": np.__version__, "entries": dict(sorted(entries.items()))}


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        written = manifest(outputs(workdir))
    MANIFEST.write_text(json.dumps(written, indent=1) + "\n")
    print(f"{MANIFEST}: {len(written['entries'])} entries (numpy {written['numpy']})")


if __name__ == "__main__":
    main()
