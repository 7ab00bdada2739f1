#!/usr/bin/env python3
"""bench_e2e: one repeatable end-to-end + per-layer benchmark over EarthQubeAPI.

    python3 benchmarks/e2e/bench.py run --seed 1            # all workloads
    python3 benchmarks/e2e/bench.py run --seed 1 --trace    # per-layer run
    python3 benchmarks/e2e/bench.py run --workload portal_hot --seed 1 \\
        --seconds 14 --trace 0                              # driver contract
    python3 benchmarks/e2e/bench.py check-repeat --sets 2 --runs 3

Each workload runs in its own process under ``PYTHONHASHSEED=0``.  With
``--workload`` the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics untraced, the per-layer metrics with ``--trace 1``).  The exit code
is non-zero when any operation failed or any oracle comparison mismatched.
See README.md for the protocol and why it looks the way it does.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path[:0] = [str(HERE), str(REPO / "src")]

SETUP_REPEATS = 3
MIN_PASSES = 3
CLEAN_PASSES = 4
CLEAN_RATIO = 1.15
EXTRA_SECONDS = 8.0
ORACLE_SAMPLES = 50
CLASSES = ("search", "similar", "radius", "filtered", "batch", "ingest",
           "delete")
# (metric, class, percentile); every workload reports every one of them.
LATENCY_METRICS = (
    ("search_p50_ms", "search", 50), ("search_p90_ms", "search", 90),
    ("similar_p50_ms", "similar", 50), ("similar_p90_ms", "similar", 90),
    ("radius_p50_ms", "radius", 50),
    ("filtered_p50_ms", "filtered", 50), ("filtered_p90_ms", "filtered", 90),
    ("batch_p50_ms", "batch", 50),
    ("ingest_p50_ms", "ingest", 50), ("delete_p50_ms", "delete", 50),
)
# (metric, span name, class): mean self-ms per request of that class.
LAYER_TIMES = (
    ("api.parse_ms", "api.parse", "search"),
    ("api.self_ms", "api", "similar"),
    ("server.self_ms", "server", "similar"),
    ("planner.plan_ms", "planner.plan", "similar"),
    ("search.self_ms", "search", "search"),
    ("store.find_ms", "store.find", "search"),
    ("cbir.self_ms", "cbir", "filtered"),
    ("cbir.make_filter_ms", "cbir.make_filter", "filtered"),
    ("index.knn_ms", "index.knn", "similar"),
    ("index.radius_ms", "index.radius", "radius"),
    ("index.batch_ms", "index.batch", "batch"),
    ("index.add_ms", "index.add", "ingest"),
    ("index.remove_ms", "index.remove", "delete"),
    ("index.compact_ms", "index.compact", "delete"),
    ("gateway.self_ms", "gateway", "similar"),
    ("cache.get_ms", "cache.get", "similar"),
    ("batcher.wait_ms", "batcher.wait", "similar"),
    ("shards.scan_ms", "shards.scan", "similar"),
    ("features.extract_ms", "features.extract", "ingest"),
    ("hasher.hash_ms", "hasher.hash", "ingest"),
    ("autolabel.ms", "autolabel", "ingest"),
    ("wal.append_ms", "wal.append", "ingest"),
    ("federation.scatter_ms", "federation.scatter", "search"),
    ("federation.merge_ms", "federation.merge", "search"),
    ("obs.unattributed_ms", "obs.unattributed", "similar"),
)


def benchmark_contract() -> dict:
    with open(REPO / "BENCHMARK.json") as handle:
        return json.load(handle)


# --------------------------------------------------------------------- #
# Measurement primitives
# --------------------------------------------------------------------- #

def _relative_iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


class Calibration:
    """A fixed probe — a pure-Python dict loop plus a 10k-row popcount scan,
    best of 5 — run before and after every pass.  It uses nothing from the
    repository, so it reads the box, not the program: on this runner it sits
    near 3.6 ms and jumps to 5.5-6 ms for seconds at a time when a
    neighbour interferes.  Reported as ``machine.calib_ms``; when a repeat
    check fails it tells a slow box from a slow benchmark."""

    def __init__(self) -> None:
        import numpy as np
        self._np = np
        self._codes = np.random.default_rng(0).integers(
            0, 2 ** 64, size=10_000, dtype=np.uint64)
        self.samples_ms: list[float] = []

    def _work(self) -> None:
        np, codes = self._np, self._codes
        table: dict[int, int] = {}
        total = 0
        for i in range(20_000):
            table[i & 1023] = i
            total += table.get(i & 511, 0)
        for _ in range(40):
            np.argsort(np.bitwise_count(codes ^ codes[3]), kind="stable")[:11]

    def probe(self) -> None:
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            self._work()
            best = min(best, time.perf_counter() - start)
        self.samples_ms.append(best * 1e3)

    def clean_passes(self) -> int:
        """Timed passes (probe pairs after the warm-up's) whose two probes
        are both within ``CLEAN_RATIO`` of the best reading of this run."""
        probes = self.samples_ms
        limit = CLEAN_RATIO * min(probes)
        return sum(1 for i in range(2, len(probes) - 1, 2)
                   if probes[i] <= limit and probes[i + 1] <= limit)


def run_pass(ops, recorder=None):
    """Issue one pass, closed loop, one thread.  Returns
    ``(wall_s, {class: [latency_ms]}, failed, responses)``; ``responses``
    is only kept on traced passes (the explain sections)."""
    latencies = {kind: [] for kind in CLASSES}
    failed = 0
    responses = [] if recorder is not None else None
    clock = time.perf_counter
    pass_start = clock()
    for kind, call, argument in ops:
        start = clock()
        try:
            if recorder is None:
                result = call(argument)
            else:
                result = recorder.request(kind, call, argument)
        except Exception:
            result = {"ok": False, "error": "exception"}
            if failed < 3:
                traceback.print_exc()
        # A failed operation keeps its slot, so passes stay row-aligned.
        latencies[kind].append((clock() - start) * 1e3)
        if result.get("ok") is False:
            failed += 1
            if failed <= 3:
                print(f"[bench] {kind} failed: {result}", file=sys.stderr)
        if responses is not None:
            responses.append((kind, result))
    return clock() - pass_start, latencies, failed, responses


# --------------------------------------------------------------------- #
# One workload, in this process
# --------------------------------------------------------------------- #

def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: float) -> dict:
    import workloads

    # The structured-log stream goes to a null sink; obs config itself stays
    # at the shipped defaults, because that is what production pays.
    obs_logger = logging.getLogger("repro")
    obs_logger.addHandler(logging.NullHandler())
    obs_logger.propagate = False

    workload = workloads.scaled(workloads.BY_NAME[name], scale)
    inputs = workloads.generate_inputs(workload, seed)
    template = workloads.bootstrap_template(seed, workload)
    pool = template.archive.patches
    calibration = Calibration()

    build_s: list[float] = []
    rig = None
    for repeat in range(SETUP_REPEATS):
        if rig is not None:
            rig.close()
            rig = None
            gc.collect()
        start = time.perf_counter()
        rig = workloads.build_rig(workload, template, inputs.corpus,
                                  inputs.documents,
                                  tag=f"{os.getpid()}-{repeat}")
        build_s.append(time.perf_counter() - start)
    try:
        return _measure(workload, rig, inputs, pool, calibration, build_s,
                        seed, seconds, trace)
    finally:
        rig.close()


def _measure(workload, rig, inputs, pool, calibration, build_s, seed,
             seconds, trace) -> dict:
    import numpy as np
    import workloads
    from corpus import READ_CLASSES, observed

    attempted = failed = 0
    ingested: list[str] = []

    def one_pass(index: int, recorder=None):
        nonlocal attempted, failed
        ops, ids = workloads.pass_ops(workload, rig, inputs.reads, pool,
                                      index, explain=recorder is not None)
        ingested.extend(ids)
        calibration.probe()
        wall, latencies, bad, responses = run_pass(ops, recorder)
        calibration.probe()
        attempted += len(ops)
        failed += bad
        return wall, latencies, len(ops), responses

    one_pass(0)                     # warm-up: caches fill, lazy set-up ends
    gc.collect()
    gc.freeze()
    # Process start -> first timed request, the repeated build counted once
    # at its median.
    setup_s = (time.perf_counter() - PROCESS_START
               - sum(build_s) + statistics.median(build_s))

    # Timed passes for `seconds`; when the probe says a neighbour interfered
    # with most of them, up to EXTRA_SECONDS more, until CLEAN_PASSES passes
    # began and ended with the box at its own best speed.
    untraced_budget = seconds / 2 if trace else seconds
    measure_start = time.perf_counter()
    passes = []
    while True:
        passes.append(one_pass(len(passes) + 1))
        elapsed = time.perf_counter() - measure_start
        if len(passes) < (2 if trace else MIN_PASSES) or elapsed < untraced_budget:
            continue
        clean = calibration.clean_passes()
        if (trace or clean >= CLEAN_PASSES
                or elapsed >= untraced_budget + EXTRA_SECONDS):
            break

    metrics: dict[str, tuple[float, str]] = {}
    pass_iqr: dict[str, float] = {}
    if not trace:
        metrics["setup_s"] = (setup_s, "s")
        # This box runs 1.5x slower for seconds at a time.  Every pass issues
        # the identical list, so request i has one timing per pass; its best
        # one is its cost without the interference, and a class percentile
        # is taken over those per-request bests.  Throughput is the best pass.
        rates = [count / wall for wall, _, count, _ in passes]
        metrics["throughput_rps"] = (max(rates), "1/s")
        pass_iqr["throughput_rps"] = _relative_iqr(rates)
        best = {kind: np.min([latencies[kind]
                              for _, latencies, _, _ in passes], axis=0)
                for kind in CLASSES}
        for metric, kind, q in LATENCY_METRICS:
            metrics[metric] = (float(np.percentile(best[kind], q)), "ms")
            pass_iqr[metric] = _relative_iqr(
                [float(np.percentile(latencies[kind], q))
                 for _, latencies, _, _ in passes])
    else:
        layer = _traced_passes(workload, rig, one_pass, len(passes) + 1,
                               measure_start, seconds, seed,
                               statistics.median(w for w, _, _, _ in passes))
        layer["machine.calib_ms"] = (
            statistics.median(calibration.samples_ms), "ms")
        metrics.update(layer)

    # Oracle check, outside the timed passes.
    rng = np.random.default_rng([seed, 0x0C])
    api = rig.api
    route = {"search": api.search, "batch": api.similar_batch}
    for kind in READ_CLASSES:
        of_kind = [payload for k, payload in inputs.reads if k == kind]
        picks = rng.permutation(len(of_kind))[:ORACLE_SAMPLES]
        for pick in picks:
            payload = of_kind[int(pick)]
            response = route.get(kind, api.similar)(payload)
            attempted += 1
            if (not response.get("ok") or observed(kind, response)
                    != inputs.oracle.expected(kind, payload)):
                failed += 1
                print(f"[bench] oracle mismatch: {kind} {payload}",
                      file=sys.stderr)
    for patch_id in ingested:       # ingested then deleted: must be gone
        attempted += 1
        if api.similar({"name": patch_id, "k": 1}).get("ok") is not False:
            failed += 1
            print(f"[bench] deleted patch still served: {patch_id}",
                  file=sys.stderr)

    if not trace:
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return {
        "workload": workload.name, "passes": len(passes),
        "clean_passes": clean,
        "pass_iqr": pass_iqr, "build_s": build_s,
        "calib_ms": statistics.median(calibration.samples_ms),
        "result": {
            "correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {metric: {"value": value, "unit": unit}
                        for metric, (value, unit) in metrics.items()},
        },
    }


def _traced_passes(workload, rig, one_pass, first_index, measure_start,
                   seconds, seed, untraced_wall) -> dict:
    """Traced passes and the per-layer metrics derived from them."""
    import workloads
    from spans import Recorder, instrument

    recorder = Recorder()
    instrument(recorder, rig)
    gateway = rig.systems[0].gateway
    durability = rig.systems[0].durability
    wal_path = (Path(durability.directory) / "wal.log"
                if durability is not None else None)

    def counters() -> dict:
        cache = gateway.cache.stats_snapshot() if gateway else {}
        batcher = gateway.batcher.stats if gateway else {}
        return {
            "hits": cache.get("hits", 0), "misses": cache.get("misses", 0),
            "invalidations": cache.get("invalidations", 0),
            "batch_requests": batcher.get("requests", 0),
            "batches": batcher.get("batches", 0),
            "fsyncs": (durability.metrics.histogram("wal.fsync").count
                       if durability else 0),
            "wal_bytes": wal_path.stat().st_size if wal_path else 0,
        }

    before = counters()
    recorder.enabled = True
    walls, responses = [], []
    while not walls or time.perf_counter() - measure_start < seconds:
        wall, _, _, answered = one_pass(first_index + len(walls), recorder)
        walls.append(wall)
        responses.extend(answered)
    recorder.enabled = False
    after = counters()
    delta = {key: after[key] - before[key] for key in after}
    traced = len(walls)

    checkpoint_ms = 0.0
    if durability is not None:
        start = time.perf_counter()
        rig.api.admin_checkpoint()
        checkpoint_ms = (time.perf_counter() - start) * 1e3
    recorder.unwrap_all()

    per_request = recorder.self_times()
    by_class: dict[str, list] = {kind: [] for kind in CLASSES}
    for kind, wall_ms, self_ms, calls in per_request:
        by_class[kind].append((wall_ms, self_ms, calls))

    def mean_self(span: str, kind: str) -> float:
        rows = by_class[kind]
        return (sum(self_ms.get(span, 0.0) for _, self_ms, _ in rows)
                / len(rows)) if rows else 0.0

    layer = {metric: (mean_self(span, kind), "ms")
             for metric, span, kind in LAYER_TIMES}

    def costs_of(kind: str) -> list[dict]:
        return [response.get("explain", {}).get("costs", {})
                for k, response in responses if k == kind]

    similar = by_class["similar"]
    layer["planner.calls"] = (
        sum(calls.get("planner.plan", 0) for _, _, calls in similar)
        / max(1, len(similar)), "count")
    examined = sum(c.get("docs_examined", 0) for c in costs_of("search"))
    returned = sum(len(response.get("names", ()))
                   for k, response in responses if k == "search")
    layer["store.rows_examined_per_result"] = (examined / max(1, returned),
                                               "count")
    similar_costs = costs_of("similar")
    layer["index.fallback_share"] = (
        sum(1 for c in similar_costs if c.get("fallback_rows", 0))
        / max(1, len(similar_costs)), "ratio")
    layer["index.compactions"] = (
        sum(calls.get("index.compact", 0) for _, _, _, calls in per_request)
        / traced, "count")
    lookups = delta["hits"] + delta["misses"]
    layer["cache.hit_ratio"] = (delta["hits"] / lookups if lookups else 0.0,
                                "ratio")
    layer["cache.invalidations"] = (delta["invalidations"] / traced, "count")
    layer["batcher.mean_batch_size"] = (
        delta["batch_requests"] / delta["batches"] if delta["batches"]
        else 0.0, "count")
    layer["wal.bytes_per_ingest"] = (
        delta["wal_bytes"] / max(1, workload.writes * traced), "B")
    layer["wal.fsyncs"] = (delta["fsyncs"] / traced, "count")
    layer["durability.checkpoint_ms"] = (checkpoint_ms, "ms")
    node_ms = [list(response["federation"]["latency_ms"].values())
               for k, response in responses
               if k == "search" and "federation" in response]
    layer["federation.node_ms_max"] = (
        statistics.mean(max(row) for row in node_ms) if node_ms else 0.0, "ms")
    layer["federation.straggler_ratio"] = (
        statistics.mean(max(row) / statistics.median(row) for row in node_ms)
        if node_ms else 0.0, "ratio")
    layer["trace.overhead_ratio"] = (statistics.median(walls) / untraced_wall,
                                     "ratio")

    # Where each class's time goes, and the Σ self + unattributed = wall check.
    print(f"[trace] {workload.name}: {traced} traced pass(es), "
          f"{len(per_request)} requests")
    for kind in CLASSES:
        rows = by_class[kind]
        if not rows:
            continue
        wall = sum(w for w, _, _ in rows) / len(rows)
        totals: dict[str, float] = {}
        for _, self_ms, _ in rows:
            for span, value in self_ms.items():
                totals[span] = totals.get(span, 0.0) + value / len(rows)
        top = sorted(totals.items(), key=lambda item: -item[1])[:4]
        print(f"[trace]   {kind:9s} wall {wall:8.3f} ms  "
              f"sum(self) {sum(totals.values()):8.3f} ms  top: "
              + ", ".join(f"{span} {value:.3f}" for span, value in top))
    recorder.dump(workloads.OUT_DIR / f"trace-{workload.name}.json",
                  workload=workload.name, seed=seed, traced_passes=traced)
    return layer


# --------------------------------------------------------------------- #
# Commands
# --------------------------------------------------------------------- #

def _print_run(report: dict, bounds: dict) -> None:
    result = report["result"]
    builds = " ".join(f"{b:.2f}" for b in report["build_s"])
    print(f"[bench] {report['workload']}: {report['passes']} untraced "
          f"passes ({report['clean_passes']} clean), builds {builds} s, "
          f"calib {report['calib_ms']:.1f} ms, attempted "
          f"{result['attempted']}, failed {result['failed']}")
    for metric, entry in result["metrics"].items():
        iqr = report["pass_iqr"].get(metric)
        print(f"[bench]   {metric:32s} {entry['value']:12.4f} {entry['unit']:6s}"
              + (f"  pass-IQR {iqr:6.1%}" if iqr is not None else "")
              + (f"  bound {bounds[metric]:.0%}" if metric in bounds else ""))


def _child(workload: str, args, seed: int, trace: bool, *,
           relay: bool = False) -> dict:
    """Run one workload in a fresh process; returns its parsed report.
    ``relay`` passes the child's own report lines through."""
    command = [sys.executable, str(HERE / "bench.py"), "run",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(int(trace)),
               "--scale", str(args.scale), "--detail"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONHASHSEED": "0"})
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload}: no output (exit {done.returncode})")
    if relay:
        print("\n".join(lines[:-1]), flush=True)
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise SystemExit(f"{workload}: unreadable output {lines[-1]!r}")


def command_run(args) -> int:
    contract = benchmark_contract()
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    if args.workload is not None:
        if os.environ.get("PYTHONHASHSEED") != "0":
            os.environ["PYTHONHASHSEED"] = "0"
            os.execv(sys.executable, [sys.executable] + sys.argv)
        # One CPU for the whole process (threads inherit it): on this 2-vCPU
        # runner, GIL hand-offs across CPUs made the threaded workloads both
        # slower and 3x noisier than time-sharing one CPU (README, "noise").
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        report = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.scale)
        _print_run(report, bounds)
        print(json.dumps(report if args.detail else report["result"]))
        return 0 if report["result"]["correct"] else 1
    status = 0
    for workload in [w["name"] for w in contract["workloads"]]:
        report = _child(workload, args, args.seed, bool(args.trace), relay=True)
        if not report["result"]["correct"]:
            status = 1
    return status


def command_check_repeat(args) -> int:
    """Two back-to-back sets of the whole benchmark; every set-median gap
    must stay within the metric's bound."""
    contract = benchmark_contract()
    names = [w["name"] for w in contract["workloads"]]
    medians: list[dict] = []
    iqrs: dict[tuple[str, str], list[float]] = {}
    for set_index in range(args.sets):
        values: dict[tuple[str, str], list[float]] = {}
        for run in range(args.runs):
            for workload in names:
                report = _child(workload, args, args.seed + run, False)
                if not report["result"]["correct"]:
                    print(f"{workload}: oracle check failed", file=sys.stderr)
                    return 1
                for metric, entry in report["result"]["metrics"].items():
                    values.setdefault((workload, metric), []).append(
                        entry["value"])
                    iqrs.setdefault((workload, metric), []).append(
                        report["pass_iqr"].get(metric, 0.0))
            print(f"[check-repeat] set {set_index + 1} run {run + 1} done",
                  file=sys.stderr)
        medians.append({key: statistics.median(v) for key, v in values.items()})
    print(f"| workload | metric | unit | "
          + " | ".join(f"set {i + 1} median" for i in range(args.sets))
          + " | worst gap | pass-IQR | bound |")
    print("|---|---|---|" + "---|" * (args.sets + 3))
    status = 0
    for workload in names:
        for metric in contract["end_to_end"]:
            key = (workload, metric["name"])
            row = [m[key] for m in medians]
            gap = max(abs(value - row[0]) / row[0] for value in row)
            flag = ""
            if gap > metric["bound"]:
                status, flag = 1, " **over**"
            print(f"| {workload} | {metric['name']} | {metric['unit']} | "
                  + " | ".join(f"{value:.4f}" for value in row)
                  + f" | {gap:.1%}{flag} | "
                  f"{statistics.median(iqrs[key]):.1%} | "
                  f"{metric['bound']:.0%} |")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "check-repeat"):
        sub = commands.add_parser(name)
        sub.add_argument("--seed", type=int, default=1)
        sub.add_argument("--seconds", type=float,
                         default=benchmark_contract()["run_seconds"])
        sub.add_argument("--scale", type=float, default=1.0)
        if name == "run":
            sub.add_argument("--workload")
            sub.add_argument("--trace", type=int, nargs="?", const=1, default=0)
            sub.add_argument("--detail", action="store_true",
                             help=argparse.SUPPRESS)
        else:
            sub.add_argument("--sets", type=int, default=2)
            sub.add_argument("--runs", type=int, default=3)
    args = parser.parse_args()
    if args.command == "run":
        return command_run(args)
    return command_check_repeat(args)


if __name__ == "__main__":
    sys.exit(main())
