"""Benchmark of the zerosum package: exhaustive `verify` and large-n `find`.

Run from the repository root:

    python3 bench/run.py --workload verify-k7 --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55

One run repeats whole rounds of the workload's operations for about
--seconds and prints, as its last line, a JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 untraced and traced
rounds alternate and the metrics are the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import corpus
from spans import LAYER_METRICS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("verify-k7", "find-large")
# set-ups timed per run, each an import in a fresh interpreter plus a build;
# the import alone spreads by a third from sample to sample
SETUP_SAMPLES = {"verify-k7": 21, "find-large": 9}
# find-large's n=6 verify calls would take an eighth of a round; running
# each three times a round gives their best-of timing more chances to
# meet a quiet host
VERIFY_REPEATS = {"verify-k7": 1, "find-large": 3}

# theorem of the oracle -> end-to-end metric
CPS_METRIC = {
    "tree": "verify_tree_cps",
    "diam3": "verify_diam3_cps",
    "path-census": "verify_path_cps",
    "connected": "verify_connected_cps",
}

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("verify_tree_cps", "colourings/s"),
    ("verify_diam3_cps", "colourings/s"),
    ("verify_path_cps", "colourings/s"),
    ("verify_connected_cps", "colourings/s"),
    ("find_solved_per_s", "solved/s"),
    ("find_p50_ms", "ms"),
    ("find_p90_ms", "ms"),
]

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import zerosum, zerosum.cli\n"
    "print(time.perf_counter() - t)\n"
)


def import_zerosum():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC_DIR / "zerosum" / "__init__.py").is_file():
        raise SystemExit(f"error: no zerosum package under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import zerosum
    import zerosum.cli  # noqa: F401  (the CLI is part of what a user imports)

    if Path(zerosum.__file__).resolve().parent != SRC_DIR / "zerosum":
        raise SystemExit(f"error: imported zerosum from {zerosum.__file__}, not {SRC_DIR}")
    return zerosum


def time_import() -> float:
    """Seconds to import zerosum and zerosum.cli in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC_DIR)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def build_inputs(zs, workload: str, seed: int):
    shards = corpus.verify_shards(workload, seed)
    if workload == "find-large":
        finds = corpus.find_corpus(seed, zs.extremal)
    else:
        finds = corpus.shard_find_inputs(shards, seed)
    return shards, finds


def time_setup(zs, workload: str, seed: int):
    """One set-up sample: a fresh import plus one build of the inputs.
    Returns its seconds and the inputs it built."""
    import_s = time_import()
    t0 = time.perf_counter()
    inputs = build_inputs(zs, workload, seed)
    return import_s + time.perf_counter() - t0, inputs


# --- operations ---------------------------------------------------------------


class Tally:
    """Operations attempted and failed, plus what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: Counter = Counter()
        self.errors: list[str] = []

    def fail(self, group: str, count: int = 1):
        self.failed += count
        self.failures[group] += count

    def wrong(self, message: str):
        self.correct = False
        if len(self.errors) < 20:
            self.errors.append(message)


def run_shard(zs, shard, tally: Tally) -> float:
    """One exhaustive_theorem_check over the shard; returns its wall time."""
    budget = zs.EnumerationBudget(max_colorings=shard.hi - shard.lo)
    t0 = time.perf_counter()
    report = zs.oracle.exhaustive_theorem_check(
        shard.theorem, shard.n, budget=budget, shard=(shard.lo, shard.hi)
    )
    elapsed = time.perf_counter() - t0
    bad = len(report.counterexamples)
    tally.attempted += shard.hi - shard.lo
    if bad:
        tally.fail(f"verify-{shard.theorem}", bad)
    met, confirmed = report.hypothesis_met, report.confirmed
    if met != shard.expected_met or confirmed != met - bad:
        tally.wrong(
            f"{shard.theorem} n={shard.n} [{shard.lo},{shard.hi}): hypothesis_met={met} "
            f"confirmed={confirmed}, formula count {shard.expected_met}"
        )
    return elapsed


def _host_class(zs, host):
    if host[0] == "complete":
        return zs.graphs.COMPLETE
    if host[0] == "triangle-free":
        return zs.graphs.TRIANGLE_FREE
    if host[0] == "dtree":
        return zs.graphs.DTree(host[1])
    return zs.graphs.MAXIMAL_PLANAR_STACKED


def run_find(zs, item, tally: Tally) -> tuple[float, bool]:
    """One parse plus one finder call (every pair, for "connect"); returns
    its wall time and whether its output passed the check."""
    finders = zs.finders
    t0 = time.perf_counter()
    g = zs.graphs.read_edge_list(item.text)
    if item.kind == "connect":
        reports = [finders.find_zero_sum_path_leq4(g, x, y) for x, y in item.pairs]
    elif item.kind == "tree":
        reports = [finders.find_zero_sum_spanning_tree(g, _host_class(zs, item.host))]
    elif item.kind == "path":
        reports = [finders.find_zero_sum_spanning_path(g)]
    else:
        reports = [finders.find_zero_sum_diam3_tree(g)]
    elapsed = time.perf_counter() - t0

    tally.attempted += 1
    pairs = item.pairs or (None,)
    for report, pair in zip(reports, pairs):
        if not report.found:
            # every input meets its census hypothesis, so a miss is a failure
            tally.fail(item.group)
            return elapsed, False
        reason = checks.check_output(
            item.kind, item.n, item.sign, report.subgraph.edges, report.weight, pair
        )
        if reason is not None:
            tally.fail(item.group)
            tally.wrong(f"{item.group} n={item.n} pair={pair}: {reason}")
            return elapsed, False
    return elapsed, True


def run_round(zs, shards, finds, tally: Tally, rng=None, verify_repeats=1) -> dict:
    """Every shard verify_repeats times, keeping its best time, and every
    find input once.  With rng, in an order shuffled afresh, so that no
    operation always meets the host at the same point of a round."""
    order = [(0, i) for i in range(len(shards))] * verify_repeats
    order += [(1, i) for i in range(len(finds))]
    if rng is not None:
        rng.shuffle(order)
    verify_s = [float("inf")] * len(shards)
    find_ms, solved = [0.0] * len(finds), [False] * len(finds)
    for kind, i in order:
        if kind == 0:
            verify_s[i] = min(verify_s[i], run_shard(zs, shards[i], tally))
        else:
            elapsed, solved[i] = run_find(zs, finds[i], tally)
            find_ms[i] = elapsed * 1e3
    return {"verify_s": verify_s, "find_ms": find_ms, "solved": solved}


def repeat_rounds(seconds: float, one_round) -> list:
    """Call one_round() at least once, and again while the next call is
    expected to end within `seconds` of the first one's start."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(one_round())
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


# --- runs ---------------------------------------------------------------------


def peak_rss_mb() -> float:
    """Every operation runs in this process (jobs=1); the only children
    are the small import probes of the set-up samples."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(setup_s: float, shards, rounds: list[dict]) -> dict:
    """Every operation runs once a round; each one's time is its best over
    the run's rounds.  On a shared 2-vCPU VM the speed of the same code
    swings by up to 2x within seconds (other tenants), so a total or median
    over a run mostly measures how long that run spent slowed down; an
    operation's best time is its cost when the host left it alone.  The
    benchmark's own output checks are not timed."""
    values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
    colourings, best_s = Counter(), Counter()
    for i, shard in enumerate(shards):
        colourings[shard.theorem] += shard.hi - shard.lo
        best_s[shard.theorem] += min(r["verify_s"][i] for r in rounds)
    for theorem, count in colourings.items():
        values[CPS_METRIC[theorem]] = count / best_s[theorem]
    best_ms = [min(times) for times in zip(*(r["find_ms"] for r in rounds))]
    solved = sum(all(oks) for oks in zip(*(r["solved"] for r in rounds)))
    values["find_solved_per_s"] = solved / (sum(best_ms) / 1e3)
    values["find_p50_ms"] = statistics.median(best_ms)
    values["find_p90_ms"] = statistics.quantiles(best_ms, n=10)[-1]
    units = dict(END_TO_END)
    return {name: {"value": values[name], "unit": units[name]} for name, _ in END_TO_END}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    zs = import_zerosum()
    first_s, (shards, finds) = time_setup(zs, workload, seed)
    setup_samples = [first_s]

    tally = Tally()
    if not trace:
        order_rng = random.Random(f"{seed}:order")

        def timed_round():
            result = run_round(zs, shards, finds, tally, order_rng, VERIFY_REPEATS[workload])
            # later set-up samples go between rounds, so that they meet the
            # host in the same states as the operations do
            if len(setup_samples) < SETUP_SAMPLES[workload]:
                setup_samples.append(time_setup(zs, workload, seed)[0])
            return result

        rounds = repeat_rounds(seconds, timed_round)
        while len(setup_samples) < SETUP_SAMPLES[workload]:
            setup_samples.append(time_setup(zs, workload, seed)[0])
        metrics = end_to_end(statistics.median(setup_samples), shards, rounds)
    else:
        tracer = Tracer(zs)
        repeats = VERIFY_REPEATS[workload]  # same rounds, so the same failed share

        def traced_pair():
            t0 = time.perf_counter()
            run_round(zs, shards, finds, tally, verify_repeats=repeats)
            plain_s = time.perf_counter() - t0
            tracer.install()
            try:
                t0 = time.perf_counter()
                run_round(zs, shards, finds, tally, verify_repeats=repeats)
                traced_s = time.perf_counter() - t0
            finally:
                tracer.uninstall()
            return tracer.layer_metrics(traced_s / plain_s)

        layers = repeat_rounds(seconds, traced_pair)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload}.tsv")
        metrics = {
            name: {"value": statistics.median(layer[name] for layer in layers), "unit": unit}
            for name, unit, _ in LAYER_METRICS
        }
    for group, count in sorted(tally.failures.items()):
        print(f"{workload}: {count} failed operations in {group}", file=sys.stderr)
    for message in tally.errors:
        print(f"{workload}: wrong output: {message}", file=sys.stderr)
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def print_result(workload: str, seed: int, result: dict) -> None:
    print(f"{workload} seed={seed}: attempted={result['attempted']} failed={result['failed']} "
          f"correct={str(result['correct']).lower()}")
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")


def run_all(seed: int, seconds: int, trace: int) -> dict:
    """Every workload in its own process, so set-up and memory stay its own."""
    results = {}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise SystemExit(f"error: workload {workload} exited with {done.returncode}")
        results[workload] = json.loads(done.stdout.strip().splitlines()[-1])
        print_result(workload, seed, results[workload])
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds, args.trace)))
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print_result(args.workload, args.seed, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
