"""End-to-end benchmark of the ledgerlens CLI.

    python3 bench/run.py --workload wide_report --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout.  The benchmark generates a JSON-lines
export from the seed with its own generator (``gen.py``), then runs the CLI
from ``src/`` on it as a user would: one child process per command, every
command at its defaults.  It times each command from outside the process,
checks every output against values computed from the generator's ground truth
(``checks.py``) and prints one JSON object as the last line of stdout.

With ``--trace 0`` the run repeats whole rounds (ingest, then the workload's
analysis commands) while they fit in ``--seconds`` and reports medians of the
end-to-end metrics.  With ``--trace 1`` it runs one round in child processes
and the same round in-process through ``ledgerlens.cli.run`` with the tracer
of ``tracer.py`` installed, and reports the per-layer metrics.

Generated files go to ``bench/_work/`` (removed when the run ends); results
and traces to ``bench/_results/``.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import checks
import gen
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
RESULTS = os.path.join(HERE, "_results")

SETUP_REPEATS = 3       # set-ups per run; setup_s is their median
INGESTS_PER_ROUND = 3   # ingest_s is the median over every ingest of the run
STARTUP_REPEATS = 5     # child processes behind cli.startup_s
CHILD_TIMEOUT_S = 150   # a child still running after this is killed and fails

# A few months of wide days: ingest, rankings, stability and emission carry
# the cost; the cumulative-graph HHI scan stays small.
WIDE = gen.Shape(
    days=102, hubs=150, hub_groups=15, miners=10, genesis_holders=12_000,
    max_regular=10**9, coinbase=8, payments=800, deposits=60, consolidations=250,
    batches=40, batch_outputs=20, hub_transfers=30, new_share=0.3, disorder=0.005,
)
# A long, narrow history: per-day loops, the replay every command repeats and
# the quadratic day-0..t rescan of HHI A2/A3 carry the cost.
LONG = gen.Shape(
    days=1000, hubs=150, hub_groups=15, miners=10, genesis_holders=600,
    max_regular=4_000, coinbase=4, payments=58, deposits=8, consolidations=12,
    batches=3, batch_outputs=10, hub_transfers=15, new_share=0.05, disorder=0.005,
)


@dataclass(frozen=True)
class Command:
    """One analysis command: its CLI arguments (templated on the store, the
    output directory and the last day), the outputs it writes and the check
    that reads them."""

    label: str
    argv: tuple[str, ...]
    outputs: tuple[str, ...]
    check: Callable[[str, checks.Expected], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    shape: gen.Shape
    commands: tuple[Command, ...]


def _report_check(out: str, exp: checks.Expected) -> list[str]:
    r = os.path.join(out, "report")
    return (checks.check_proportions(os.path.join(r, "proportions.csv"), exp)
            + checks.check_d_static(os.path.join(r, "d_static.csv"), exp)
            + checks.check_stability_report(os.path.join(r, "stability.csv"), exp)
            + checks.check_dispersion(os.path.join(r, "dispersion.csv"), exp)
            + checks.check_hhi([os.path.join(r, "hhi.csv")], exp, ("a1", "a2", "a3"))
            + checks.check_d_hhi(os.path.join(r, "d_hhi.csv"), exp))


def _path_check(fn, name):
    return lambda out, exp: fn(os.path.join(out, name), exp)


WORKLOADS = {
    w.name: w for w in (
        Workload("wide_report", WIDE, (
            Command("report", ("report", "--store", "{store}", "--out", "{out}/report"),
                    ("report",), _report_check),
        )),
        Workload("long_queries", LONG, (
            Command("hhi_a2", ("hhi", "--scheme", "a2", "--store", "{store}",
                               "--out", "{out}/hhi_a2.csv"),
                    ("hhi_a2.csv",),
                    lambda out, exp: checks.check_hhi(
                        [os.path.join(out, "hhi_a2.csv")], exp, ("a2",))),
            Command("hhi_a3", ("hhi", "--scheme", "a3", "--dhhi", "{out}/d_hhi.csv",
                               "--store", "{store}", "--out", "{out}/hhi_a3.csv"),
                    ("hhi_a3.csv", "d_hhi.csv"),
                    lambda out, exp: checks.check_hhi(
                        [os.path.join(out, "hhi_a2.csv"), os.path.join(out, "hhi_a3.csv")],
                        exp, ("a2", "a3"))
                    + checks.check_d_hhi(os.path.join(out, "d_hhi.csv"), exp)),
            Command("dispersion", ("dispersion", "--store", "{store}",
                                   "--out", "{out}/dispersion.csv"),
                    ("dispersion.csv",), _path_check(checks.check_dispersion, "dispersion.csv")),
            Command("stability", ("stability", "--store", "{store}",
                                  "--out", "{out}/stability.csv"),
                    ("stability.csv",),
                    _path_check(checks.check_stability_query, "stability.csv")),
            Command("dstatic", ("dstatic", "--store", "{store}", "--out", "{out}/d_static.csv"),
                    ("d_static.csv",), _path_check(checks.check_d_static, "d_static.csv")),
            Command("proportions", ("proportions", "--store", "{store}",
                                    "--out", "{out}/proportions.csv"),
                    ("proportions.csv",),
                    _path_check(checks.check_proportions, "proportions.csv")),
            Command("snapshot", ("snapshot", "--dump-day", "{last_day}", "--store", "{store}",
                                 "--out", "{out}/snapshot.csv"),
                    ("snapshot.csv",), _path_check(checks.check_snapshot, "snapshot.csv")),
        )),
    )
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def tree_digest(paths: list[str]) -> str:
    """Digest of the names and bytes of every file under `paths`."""
    h = hashlib.sha256()
    for top in paths:
        files = [top] if os.path.isfile(top) else sorted(
            os.path.join(r, f) for r, _, fs in os.walk(top) for f in fs)
        for path in files:
            name = os.path.basename(top) if path == top else os.path.relpath(path, top)
            h.update(name.encode() + b"\0")
            with open(path, "rb") as fp:
                h.update(hashlib.sha256(fp.read()).digest())
    return h.hexdigest()


class Child:
    """Runs CLI commands as child processes and measures them from outside."""

    def __init__(self, log_path: str):
        self.log_path = log_path
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, os.environ.get("PYTHONPATH")) if p)

    def run(self, argv: list[str]) -> tuple[float, float, int]:
        """Wall seconds, peak RSS (MB) and exit code of one child process."""
        with open(self.log_path, "ab") as log_fp:
            log_fp.write(("$ " + " ".join(argv) + "\n").encode())
            log_fp.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log_fp,
                                    stderr=log_fp, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, usage.ru_maxrss * 1024 / 1e6, proc.returncode

    def ledgerlens(self, args: list[str]) -> tuple[float, float, int]:
        return self.run([sys.executable, "-m", "ledgerlens", *args])


class Run:
    """One benchmark run: set-up, measured rounds, checks and the result."""

    def __init__(self, workload: Workload, seed: int, work: str):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.export = os.path.join(work, "export.jsonl")
        self.child = Child(os.path.join(work, "commands.log"))
        self.truth: gen.Truth | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # Every command run, in order, as (label, exit code, output digest),
        # and per label the check of its first output.
        self.runs: list[tuple[str, int, str]] = []
        self.checks: dict[str, Callable[[], list[str]]] = {}

    # -- set-up --------------------------------------------------------

    def setup(self, repeats: int) -> list[float]:
        times, digests = [], set()
        for _ in range(repeats):
            start = time.perf_counter()
            self.truth = gen.generate(self.workload.shape, self.seed, self.export)
            times.append(time.perf_counter() - start)
            digests.add(tree_digest([self.export]))
        if len(digests) != 1:
            raise RuntimeError("the generator gave different exports for one seed")
        return times

    # -- commands ----------------------------------------------------------

    def argv(self, command: Command, store: str, out: str) -> list[str]:
        fields = {"store": store, "out": out, "last_day": str(self.truth.days - 1)}
        return [a.format(**fields) for a in command.argv]

    def record(self, label: str, rc: int, outputs: list[str], check) -> None:
        digest = tree_digest(outputs) if rc == 0 else ""
        self.runs.append((label, rc, digest))
        self.checks.setdefault(label, check)

    def settle(self) -> None:
        """Count every command run.  One fails on a non-zero exit, on output
        that differs from the first run of its label, or when that first
        output fails its check."""
        reference: dict[str, tuple[str, bool]] = {}
        for label, rc, digest in self.runs:
            if label not in reference:
                try:
                    errors = self.checks[label]() if rc == 0 else []
                except Exception as exc:  # a malformed output fails its check
                    errors = [f"{label}: checking raised {exc!r}"]
                self.errors.extend(errors)
                reference[label] = (digest, rc == 0 and not errors)
            self.attempted += 1
            if not (rc == 0 and reference[label] == (digest, True)):
                self.failed += 1
                log(f"FAILED {label} (exit {rc})")

    def round(self, index: int, run_cmd, ingests: int) -> dict:
        """Ingest `ingests` times into fresh stores, then run the analysis
        commands on the last.  Round 0 keeps its files for the checks."""
        base = os.path.join(self.work, f"round{index}")
        result = {"ingest_s": [], "ingest_peak_mb": [], "store_mb": []}
        for i in range(ingests):
            store = os.path.join(base, f"store{i}")
            elapsed, rss, rc = run_cmd(["ingest", "--input", self.export, "--store", store])
            self.record("ingest", rc, [store], lambda s=store: checks.check_meta(
                os.path.join(s, "meta.json"), self.truth))
            result["ingest_s"].append(elapsed)
            result["ingest_peak_mb"].append(rss)
            result["store_mb"].append(tracing.tree_bytes(store) / 1e6)
        out = os.path.join(base, "out")
        os.makedirs(out)
        result["commands"] = {}
        for command in self.workload.commands:
            elapsed, rss, rc = run_cmd(self.argv(command, store, out))
            self.record(command.label, rc, [os.path.join(out, o) for o in command.outputs],
                        lambda c=command, o=out: c.check(o, self.expected))
            result["commands"][command.label] = {"s": elapsed, "peak_mb": rss, "exit": rc}
        result["analyze_s"] = sum(c["s"] for c in result["commands"].values())
        result["analyze_peak_mb"] = max(c["peak_mb"] for c in result["commands"].values())
        if index > 0:
            shutil.rmtree(base)
        return result

    @cached_property
    def expected(self) -> checks.Expected:
        return checks.Expected(self.truth, self.seed)

    def result(self, metrics: list[tuple[str, float, str]]) -> dict:
        return {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, v, u in metrics},
        }


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    setup = run.setup(SETUP_REPEATS)
    rounds = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        rounds.append(run.round(len(rounds), run.child.ledgerlens, INGESTS_PER_ROUND))
        last = time.perf_counter() - begun
        log(f"round {len(rounds)}: ingest {rounds[-1]['ingest_s']} analyze {rounds[-1]['analyze_s']:.3f}")
        if time.perf_counter() - start + last > seconds:
            break
    run.settle()
    med = statistics.median
    flat = lambda key: [v for r in rounds for v in r[key]]
    metrics = [
        ("setup_s", med(setup), "s"),
        ("ingest_s", med(flat("ingest_s")), "s"),
        ("ingest_peak_mb", med(flat("ingest_peak_mb")), "MB"),
        ("store_mb", med(flat("store_mb")), "MB"),
        ("analyze_s", med(r["analyze_s"] for r in rounds), "s"),
        ("analyze_peak_mb", med(r["analyze_peak_mb"] for r in rounds), "MB"),
    ]
    return run.result(metrics), {"setup_s": setup, "rounds": rounds}


def traced(run: Run) -> tuple[dict, dict]:
    """One round in child processes, then the same commands in-process with
    the tracer installed; per-layer metrics from the second."""
    run.setup(1)
    startup = [run.child.run([sys.executable, "-c", "import ledgerlens.cli"])
               for _ in range(STARTUP_REPEATS)]
    untraced = run.round(0, run.child.ledgerlens, 1)

    sys.path.insert(0, SRC)
    import ledgerlens.cli

    tracer = tracing.Tracer(ledgerlens)
    tracer.install()

    def in_process(args: list[str]) -> tuple[float, float, int]:
        start = time.perf_counter()
        try:
            rc = ledgerlens.cli.run(args)
        except Exception as exc:  # an uncaught error fails the command
            log(f"in-process {args[0]} raised {exc!r}")
            rc = 1
        return time.perf_counter() - start, 0.0, rc

    try:
        traced_round = run.round(1, in_process, 1)
    finally:
        tracer.uninstall()
    run.settle()
    layer = tracer.metrics()
    layer["cli.startup_s"] = statistics.median(s for s, _, _ in startup)
    layer["trace.analyze_s"] = traced_round["analyze_s"]
    layer["trace.overhead_s"] = traced_round["analyze_s"] - untraced["analyze_s"]
    if tracer.absent:
        log("absent from the package: " + ", ".join(tracer.absent))
    metrics = [(k, v, "s" if k.endswith("_s") else "bytes" if k.endswith(".bytes") else "count")
               for k, v in sorted(layer.items())]
    detail = {"untraced": untraced, "traced": traced_round, "absent": tracer.absent}
    os.makedirs(RESULTS, exist_ok=True)
    tracer.write(os.path.join(RESULTS, f"trace-{run.workload.name}-seed{run.seed}.json"),
                 {"workload": run.workload.name, "seed": run.seed, "metrics": layer})
    return run.result(metrics), detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "ledgerlens", "cli.py")):
        log(f"bench: no ledgerlens sources under {SRC}; run from a source checkout")
        return 2

    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work)
    run = Run(WORKLOADS[args.workload], args.seed, work)
    try:
        if args.trace:
            result, detail = traced(run)
        else:
            result, detail = measure(run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in run.errors:
        log(f"CHECK {error}")
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    with open(os.path.join(RESULTS, name), "w") as fp:
        json.dump({"args": vars(args), "result": result, "detail": detail}, fp, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
