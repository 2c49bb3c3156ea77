#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload grid|replay|serve|all \\
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --bless   # rewrite perfbench/expected/

Run it from the root of a checkout.  It builds the `experiments` binary and
the `perfbench` worker in release mode (into $CARGO_TARGET_DIR, default
`.bench_build`), runs the workload for about --seconds seconds of measured
rounds, checks every output against perfbench/expected/, prints a report
and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones of the traced run.  A wrong output makes the command exit
with status 1.  See perfbench/README.md for what each number means.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

EXPECTED = HERE / "expected"
WORK = ROOT / ".perfbench"
WORKER_TIMEOUT_S = 150
PROFILE = "release (opt-level 3, thin LTO, 1 codegen unit, line-table debug info)"

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("req_per_s", "1/s"),
]

SERVE_CLASSES = ["hot", "stored", "cold", "multi", "bad"]

PER_LAYER = [
    ("dnn.build_ms", "ms"),
    ("dnn.profile_ms", "ms"),
    ("dnn.kernels", "count"),
    ("core.vitality_ms", "ms"),
    ("core.evict_ms", "ms"),
    ("core.evict_decisions", "count"),
    ("core.prefetch_ms", "ms"),
    ("core.prefetch_decisions", "count"),
    ("core.plan_ms", "ms"),
    ("core.plans", "count"),
    ("core.plans_unique", "count"),
    ("sim.policy_build_ms", "ms"),
    ("sim.replay_ms", "ms"),
    ("sim.replay_ns_per_kernel", "ns"),
    ("sim.migrations", "count"),
    ("sim.multi_ms", "ms"),
    ("sim.multi_jobs", "count"),
    ("bench.cache_replayed", "count"),
    ("bench.cache_memory_hits", "count"),
    ("bench.cache_disk_hits", "count"),
    ("bench.csv_ms", "ms"),
    ("bench.store_load_ms", "ms"),
    ("bench.store_save_ms", "ms"),
] + [(f"serve.{c}_p50_ms", "ms") for c in SERVE_CLASSES] + [
    ("serve.shed", "count"),
    ("serve.failed", "count"),
]


class BenchError(Exception):
    pass


def log(line=""):
    print(line, flush=True)


# ---------------------------------------------------------------------------
# Building and running workers
# ---------------------------------------------------------------------------


def build():
    """Builds the daemon and the worker; returns their paths."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise BenchError(f"{ROOT} is not a checkout of the repository (no Cargo.toml or crates/)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for command in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "g10-bench", "--bin", "experiments"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
        if done.returncode != 0:
            raise BenchError(f"build failed: {' '.join(command)}")
    return target / "release" / "experiments", target / "release" / "perfbench"


def run_worker(command):
    """Runs one worker process to completion.

    Returns its JSON result and the seconds from spawning it until it printed
    a `ready` line (None if it printed none).  The worker runs in a process
    group of its own, so a timeout also stops any daemon it started.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [str(part) for part in command],
        cwd=ROOT,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    timer = threading.Timer(WORKER_TIMEOUT_S, lambda: os.killpg(proc.pid, signal.SIGKILL))
    timer.start()
    ready = None
    lines = []
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - started
            else:
                lines.append(line)
        proc.wait()
    finally:
        timer.cancel()
        # Also reaps a daemon left behind by a worker that failed.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker {command[1]} exited with status {proc.returncode}")
    text = "".join(lines)
    return json.loads(text[text.index("{"):]), ready


def read_tsv(path):
    with open(path) as f:
        return [line.rstrip("\n").split("\t") for line in f if line.strip()]


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def summarize(setups, walls, rss_kib, samples_ms, unit):
    """The end-to-end metrics of one run, and notes on how they were taken.
    `samples_ms` are the latencies of what the caller waits for."""
    tail, percentile, n = benchlib.tail_percentile(samples_ms)
    metrics = {
        "setup_s": benchlib.median(setups),
        "wall_s": benchlib.median(walls),
        "peak_rss_mib": benchlib.median(rss_kib) / 1024,
        "req_p50_ms": benchlib.median(samples_ms),
        "req_p99_ms": tail,
        "req_per_s": len(samples_ms) / sum(walls),
    }
    notes = {"req_p99_ms": f"p{percentile:.2f} of n={n} {unit}", "setup_s": f"median of n={len(setups)}"}
    if len(walls) > 1:
        spread = benchlib.quartile_spread(walls)
        notes["wall_s"] = f"median of n={len(walls)}; quartiles {spread * 100:.1f}% of the median apart"
    return metrics, notes


def traced(ctx, layer_metrics, results, *extra):
    """Per-layer metrics of every traced pass, with the decomposed outputs
    checked and the ones found wrong."""
    rows = [layer_metrics(ctx, i, result, *extra) for i, result in enumerate(results)] if ctx.trace else []
    return [m for m, _, _ in rows], sum(c for _, c, _ in rows), sum(f for _, _, f in rows)


# ---------------------------------------------------------------------------
# Workload: grid
# ---------------------------------------------------------------------------


def check_csvs(out_dir, expected):
    """CSVs that are missing, unexpected or differ from the committed digest."""
    written = {p.name for p in Path(out_dir).glob("*.csv")}
    bad = [name for name, digest in expected.items() if name not in written or sha256(Path(out_dir) / name) != digest]
    return bad + sorted(written - expected.keys())


def grid(ctx):
    expected = {name: digest for digest, name in (line.split() for line in open(EXPECTED / "grid_csv.sha256"))}
    setups, passes, wrong = [], [], []
    started = time.monotonic()
    while not passes or time.monotonic() - started < ctx.seconds:
        out = ctx.tmp / f"grid-{len(passes)}"
        command = [ctx.worker, "grid", "--out", out]
        if ctx.trace:
            command += ["--trace-file", ctx.trace_path(len(passes))]
        result, ready = run_worker(command)
        setups.append(ready)
        wrong += check_csvs(out, expected)
        shutil.rmtree(out)
        passes.append(result)
    attempted = len(expected) * len(passes)
    last = passes[-1]
    headline = {(p["sim_g10_norm_perf"], p["sim_g10_best_speedup"]) for p in passes}
    if len(headline) != 1:
        wrong.append("simulated headline differs between passes")
    if wrong:
        log(f"grid: wrong outputs: {sorted(set(wrong))}")
    log(f"grid: {len(passes)} cold passes of experiments::figure_set()")
    log(f"grid: {last['cache_replayed']:.0f} cells replayed, {last['cache_memory_hits']:.0f} memory hits, "
        f"{last['cache_disk_hits']:.0f} disk hits per pass")
    log("grid: median seconds per figure: " + ", ".join(
        f"{name} {benchlib.median([p['figures'][name] for p in passes]):.3f}" for name in last["figures"]))
    log(f"sim_g10_norm_perf    = {last['sim_g10_norm_perf']:.4f} ratio (simulated; geomean of G10/Ideal over the 5 paper models)")
    log(f"sim_g10_best_speedup = {last['sim_g10_best_speedup']:.4f} ratio (simulated; on {last['sim_g10_best_model']}; "
        "the paper's abstract claims up to 1.75x; the model is unvalidated: the repo holds no per-figure reference numbers)")
    walls = [p["wall_s"] for p in passes]
    metrics, notes = summarize(setups, walls, [p["peak_rss_kib"] for p in passes],
                               [wall * 1e3 for wall in walls], "passes")
    layers, checked, wrong_layers = traced(ctx, grid_layers, passes)
    return attempted + checked, len(wrong) + wrong_layers, metrics, notes, layers


# ---------------------------------------------------------------------------
# Workload: replay
# ---------------------------------------------------------------------------


def replay(ctx):
    table = read_tsv(EXPECTED / "replay_cells.tsv")
    expected = dict(table)
    rounds, samples_ms, wrong = [], [], []
    started = time.monotonic()
    while not rounds or time.monotonic() - started < ctx.seconds:
        order = [cell for cell, _ in table]
        random.Random(f"replay:{ctx.seed}:{len(rounds)}").shuffle(order)
        cells_file = ctx.tmp / "cells.txt"
        cells_file.write_text("\n".join(order) + "\n")
        command = [ctx.worker, "replay", "--cells", cells_file]
        if ctx.trace:
            command += ["--trace-file", ctx.trace_path(len(rounds))]
        result, _ = run_worker(command)
        for row in result["cells"]:
            samples_ms.append(row["ns"] / 1e6)
            if row["fingerprint"] != expected[row["id"]]:
                wrong.append(row["id"])
        rounds.append(result)
    if wrong:
        log(f"replay: cells with a wrong fingerprint: {sorted(set(wrong))}")
    log(f"replay: {len(rounds)} cold rounds of {len(table)} distinct cells (Ideal, Base UVM, DeepUM+, FlashNeuron)")
    metrics, notes = summarize([r["setup_s"] for r in rounds], [r["wall_s"] for r in rounds],
                               [r["peak_rss_kib"] for r in rounds], samples_ms, "cells")
    log(f"cell_p50_ms = {metrics['req_p50_ms']:.4f} ms, cell_p99_ms = {metrics['req_p99_ms']:.4f} ms "
        f"({notes['req_p99_ms']}; reported as req_p50_ms / req_p99_ms)")
    layers, checked, wrong_layers = traced(ctx, replay_layers, rounds, expected)
    return len(samples_ms) + checked, len(wrong) + wrong_layers, metrics, notes, layers


# ---------------------------------------------------------------------------
# Workload: serve
# ---------------------------------------------------------------------------

# TENSILE without yielding replays like Base UVM.  On this mix its yielding
# runs: Base UVM, G10 and TENSILE answer with three different fingerprints
# (expected/serve_requests.tsv).
TENANTS = [
    {"model": "TinyCNN", "batch": 64, "priority": 4, "quota_mib": 24},
    {"model": "TinyCNN", "batch": 32, "priority": 2, "quota_mib": 16, "arrival_us": 20},
    {"model": "TinyTransformer", "batch": 32, "priority": 1, "quota_mib": 8, "arrival_us": 40},
]
PAPER_EVAL = [("BERT", 256), ("ViT", 1280), ("Inceptionv3", 1536), ("ResNet152", 1280), ("SENet154", 1024)]

# Request classes of the serve workload.  Cells are named as the worker's
# cell ids (MODEL:BATCH:POLICY:HW, HW = t2 or gpu=<MiB>).
SERVE_CATALOGUE = {
    "hot": ["TinyCNN:32:g10:gpu=64", "TinyTransformer:32:base-uvm:gpu=64",
            "BERT:256:ideal:t2", "ResNet152:1280:deepum+:t2"],
    "stored": ["TinyCNN:16:g10-host:gpu=64", "TinyTransformer:16:deepum+:gpu=48", "BERT:128:flashneuron:t2",
               "ViT:512:base-uvm:t2", "Inceptionv3:512:ideal:t2", "SENet154:256:base-uvm:t2"],
    "cold": [f"{m}:{b}:g10:t2" for m, b in PAPER_EVAL]
    + ["BERT:512:flashneuron:t2", "TinyCNN:64:g10-gds:gpu=64", "ViT:768:deepum+:t2"],
    "multi": ["multi:base-uvm", "multi:g10", "multi:tensile"],
    "bad": ["bad:unknown-policy", "bad:fault", "bad:deadline"],
}
BAD_BODIES = {
    "bad:unknown-policy": {"model": "TinyCNN", "batch": 16, "policy": "no-such-design"},
    "bad:fault": {"model": "TinyCNN", "batch": 16, "policy": "g10", "gpu_mib": 64,
                  "inject_fault": "3:tensor-out-of-range"},
    "bad:deadline": {"model": "BERT", "batch": 256, "policy": "g10", "deadline_ms": 0},
}
# The class weights are a choice, not measured traffic; README.md gives the
# reason for each.  A stored or cold cell is sent once, since its second
# touch would be a memory hit.
HOT_REQUESTS_PER_ROUND = 40
REPEATS_PER_ROUND = {"stored": 1, "cold": 1, "multi": 2, "bad": 2}


def request_body(request_id):
    if request_id in BAD_BODIES:
        return BAD_BODIES[request_id]
    if request_id.startswith("multi:"):
        return {"policy": request_id.split(":", 1)[1], "gpu_mib": 64, "jobs": TENANTS}
    model, batch, policy, hw = request_id.split(":")
    body = {"model": model, "batch": int(batch), "policy": policy}
    if hw.startswith("gpu="):
        body["gpu_mib"] = int(hw[4:])
    return body


def serve_requests(rng):
    """One round's request file: set-up lines, then the shuffled stream."""
    stream = [("hot", rng.choice(SERVE_CATALOGUE["hot"])) for _ in range(HOT_REQUESTS_PER_ROUND)]
    for cls, repeats in REPEATS_PER_ROUND.items():
        stream += [(cls, request_id) for request_id in SERVE_CATALOGUE[cls] for _ in range(repeats)]
    rng.shuffle(stream)
    setup = [("setup-store", r) for r in SERVE_CATALOGUE["stored"]]
    setup += [("setup-warm", r) for r in SERVE_CATALOGUE["hot"]]
    return [f"{cls}\t{r}\t{json.dumps(request_body(r))}" for cls, r in setup + stream]


def serve(ctx):
    expected = {row[0]: (int(row[1]), row[2], row[3]) for row in read_tsv(EXPECTED / "serve_requests.tsv")}
    rounds, latencies, wrong = [], defaultdict(list), []
    attempted = 0
    started = time.monotonic()
    while not rounds or time.monotonic() - started < ctx.seconds:
        rng = random.Random(f"serve:{ctx.seed}:{len(rounds)}")
        requests_file = ctx.tmp / "requests.tsv"
        requests_file.write_text("\n".join(serve_requests(rng)) + "\n")
        store = ctx.tmp / f"store-{len(rounds)}"
        command = [ctx.worker, "serve", "--experiments", ctx.experiments, "--cache-dir", store,
                   "--requests", requests_file]
        if ctx.trace:
            command += ["--trace-file", ctx.trace_path(len(rounds))]
        result, _ = run_worker(command)
        shutil.rmtree(store, ignore_errors=True)
        attempted += len(result["requests"]) + len(SERVE_CATALOGUE["hot"])
        if result["setup_failures"]:
            wrong += ["setup-warm"] * int(result["setup_failures"])
        for row in result["requests"]:
            latencies[row["class"]].append(row["ns"] / 1e6)
            if benchlib.request_failed(expected[row["id"]], row):
                wrong.append(f"{row['id']} -> {row.get('status', row.get('error'))} {row.get('kind')}")
        rounds.append(result)
    if wrong:
        log(f"serve: wrong answers: {sorted(set(wrong))[:20]} ({len(wrong)} in all)")
    everything = [ms for samples in latencies.values() for ms in samples]
    per_round = len(rounds[0]["requests"])
    log(f"serve: {len(rounds)} rounds, each a fresh `experiments serve --workers 2` over a fresh store, "
        f"{per_round} requests over 2 closed-loop connections")
    for cls in SERVE_CLASSES:
        log(f"serve: class {cls:6} n={len(latencies[cls]):5}  p50 {benchlib.median(latencies[cls]):8.3f} ms")
    metrics, notes = summarize([r["setup_s"] for r in rounds], [r["wall_s"] for r in rounds],
                               [r["peak_rss_kib"] for r in rounds], everything, "requests")
    layers, checked, wrong_layers = traced(ctx, serve_layers, rounds, expected)
    return attempted + checked, len(wrong) + wrong_layers, metrics, notes, layers


# ---------------------------------------------------------------------------
# The traced run: per-layer metrics from spans
# ---------------------------------------------------------------------------


class Spans:
    """The spans of one traced pass, with per-span self time (ms)."""

    def __init__(self, path, keep):
        self.events = json.loads(Path(path).read_text())["traceEvents"]
        if not keep:
            Path(path).unlink()
        intervals = [(e["ts"], e["ts"] + e["dur"], e["args"]["parent"]) for e in self.events]
        intervals = [(s, e, None if p is None else int(p)) for s, e, p in intervals]
        self.self_ms = [t / 1e3 for t in benchlib.self_times(intervals)]

    def total(self, name, where=lambda e: True):
        return sum(t for e, t in zip(self.events, self.self_ms) if e["name"] == name and where(e))

    def covered_s(self):
        """Seconds covered by at least one layer span (every span but `cell`)."""
        layer = [(e["ts"], e["ts"] + e["dur"]) for e in self.events if e["name"] != "cell"]
        return benchlib.union_length(layer) / 1e6


def common_layers(spans, counters):
    evict, prefetch = spans.total("core.evict"), spans.total("core.prefetch")
    replay_ms = spans.total("sim.replay")
    kernels = counters.get("kernels", 0)
    metrics = defaultdict(float)
    metrics.update({
        "dnn.build_ms": spans.total("dnn.build"),
        "dnn.profile_ms": spans.total("dnn.profile"),
        "dnn.kernels": counters.get("kernels_built", 0),
        "core.vitality_ms": spans.total("core.vitality"),
        "core.evict_ms": evict,
        "core.evict_decisions": counters.get("evict_decisions", 0),
        "core.prefetch_ms": prefetch,
        "core.prefetch_decisions": counters.get("prefetch_decisions", 0),
        # plan_with_analysis repeats both schedulers; its own share is the rest.
        "core.plan_ms": max(0.0, spans.total("core.plan") - evict - prefetch),
        "core.plans": counters.get("plans", 0),
        "core.plans_unique": counters.get("plans_unique", 0),
        "sim.policy_build_ms": spans.total("sim.policy_build"),
        "sim.replay_ms": replay_ms,
        "sim.replay_ns_per_kernel": replay_ms * 1e6 / kernels if kernels else 0.0,
        "sim.migrations": counters.get("migrations", 0),
        "sim.multi_ms": spans.total("sim.multi"),
        "bench.store_load_ms": spans.total("bench.store_load"),
        "bench.store_save_ms": spans.total("bench.store_save"),
    })
    return metrics


def coverage_line(spans, traced_wall_s, untraced_label):
    uncovered = 1 - spans.covered_s() / traced_wall_s
    log(f"trace: traced wall {traced_wall_s:.3f} s beside {untraced_label}; "
        f"{uncovered * 100:.1f}% of traced time is in no layer span")


def grid_layers(ctx, index, result):
    spans = Spans(ctx.trace_path(index), keep=index == 0)
    metrics = common_layers(spans, result["counters"])
    metrics.update({
        "bench.cache_replayed": result["cache_replayed"],
        "bench.cache_memory_hits": result["cache_memory_hits"],
        "bench.cache_disk_hits": result["cache_disk_hits"],
        "bench.csv_ms": result["csv_s"] * 1e3,
    })
    failed = int(result["decomposed_mismatched"])
    if result["decomposed_cells"] != result["cache_replayed"] or result["decomposed_uncached"]:
        log(f"grid trace: decomposed {result['decomposed_cells']:.0f} cells, "
            f"{result['decomposed_uncached']:.0f} of them not in the grid's cache, "
            f"but the grid replayed {result['cache_replayed']:.0f}")
        failed += 1
    if index == 0:
        log(f"grid trace: {result['decomposed_cells']:.0f} replayed cells + {result['decomposed_perturbed']:.0f} "
            f"Figure 19 perturbed runs decomposed; {result['decomposed_mismatched']:.0f} fingerprint mismatches")
        coverage_line(spans, result["traced_wall_s"],
                      f"untraced grid wall {result['wall_s']:.3f} s / CPU {result['cpu_s']:.2f} s (2 threads)")
        per_figure = defaultdict(float)
        for event in spans.events:
            if event["name"] == "cell":
                per_figure[event["args"]["group"]] += event["dur"] / 1e3
        log("grid trace: decomposed ms per figure: " + ", ".join(f"{k} {v:.1f}" for k, v in per_figure.items()))
        log("grid trace: G10 cell at eval batch, Table 2 system, ms by layer:")
        log("  (plan = all of plan_with_analysis, which runs eviction and prefetch scheduling again)")
        log(f"  {'model':12} {'vitality':>8} {'evict':>8} {'prefetch':>8} {'plan':>8} {'policy':>7} {'replay':>7}")
        for model, batch in PAPER_EVAL:
            cell = f"{model}:{batch}:g10:t2"
            of = lambda name: spans.total(name, lambda e: e["args"]["id"] == cell)  # noqa: E731
            log(f"  {model:12} {of('core.vitality'):8.2f} {of('core.evict'):8.2f} {of('core.prefetch'):8.2f} "
                f"{of('core.plan'):8.2f} {of('sim.policy_build'):7.2f} {of('sim.replay'):7.2f}")
    return metrics, result["decomposed_cells"] + result["decomposed_perturbed"], failed


def replay_layers(ctx, index, result, expected):
    spans = Spans(ctx.trace_path(index), keep=index == 0)
    metrics = common_layers(spans, result["counters"])
    failed = sum(row["fingerprint"] != expected[row["id"]] for row in result["decomposed"])
    if index == 0:
        log(f"replay trace: {len(result['decomposed'])} cells decomposed; {failed} fingerprint mismatches")
        coverage_line(spans, result["traced_wall_s"], f"untraced {result['wall_s']:.3f} s")
    return metrics, len(result["decomposed"]), failed


def serve_layers(ctx, index, result, expected):
    spans = Spans(ctx.trace_path(index), keep=index == 0)
    metrics = common_layers(spans, result["counters"])
    stats = result["stats"] or {}
    metrics.update({
        "sim.multi_jobs": result["multi_jobs"],
        "bench.cache_replayed": stats.get("replayed", 0),
        "bench.cache_memory_hits": stats.get("memory_hits", 0),
        "bench.cache_disk_hits": stats.get("disk_hits", 0),
        "serve.shed": stats.get("shed", 0),
        "serve.failed": stats.get("failed", 0),
    })
    by_class = defaultdict(list)
    by_source = defaultdict(list)
    for event in spans.events:
        if event["name"] == "serve.request":
            by_class[event["args"]["class"]].append(event["dur"] / 1e3)
            by_source[event["args"].get("source", "-")].append(event["dur"] / 1e3)
    for cls in SERVE_CLASSES:
        metrics[f"serve.{cls}_p50_ms"] = benchlib.median(by_class[cls]) if by_class[cls] else 0.0
    failed = sum(row["fingerprint"] != expected[row["id"]][2] for row in result["decomposed"])
    if index == 0:
        log(f"serve trace: {len(result['decomposed'])} cold cells and multi mixes decomposed in-process; "
            f"{failed} fingerprint mismatches")
        log("serve trace: client-side p50 ms by response source: " + ", ".join(
            f"{source} {benchlib.median(v):.3f} (n={len(v)})" for source, v in sorted(by_source.items())))
        log(f"serve trace: /stats at the end: {json.dumps(stats, sort_keys=True)}")
        coverage_line(spans, result["traced_wall_s"], f"untraced stream {result['wall_s']:.3f} s")
    return metrics, len(result["decomposed"]), failed


def predictions(workload, layers):
    """The per-layer predictions the benchmark was defined with."""
    if workload == "grid":
        times = {name: layers[name] for name, unit in PER_LAYER if unit == "ms" and not name.startswith("serve.")}
        largest = max(times, key=times.get)
        yield f"core.evict_ms is the largest layer time (largest: {largest})", largest == "core.evict_ms"
        yield (f"core.plans_unique < core.plans ({layers['core.plans_unique']:.0f} < {layers['core.plans']:.0f})",
               layers["core.plans_unique"] < layers["core.plans"])
    elif workload == "replay":
        zero = ("core.evict_ms", "core.prefetch_ms", "core.plans")
        yield ", ".join(zero) + " are 0", all(layers[name] == 0 for name in zero)


# ---------------------------------------------------------------------------
# Run context and the command line
# ---------------------------------------------------------------------------


def command_output(command):
    try:
        return subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def run_context(args):
    digest = hashlib.sha256()
    for path in sorted([*ROOT.glob("crates/**/*.rs"), *ROOT.glob("crates/*/Cargo.toml"), ROOT / "Cargo.toml",
                        ROOT / "Cargo.lock", *HERE.glob("src/*.rs"), *HERE.glob("*.py"), *HERE.glob("expected/*")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), "unknown")
    return {
        "commit": command_output(["git", "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": command_output(["rustc", "--version"]),
        "profile": PROFILE,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Context:
    def __init__(self, args, experiments, worker, tmp, workload):
        self.seed, self.seconds, self.trace = args.seed, args.seconds, bool(args.trace)
        self.experiments, self.worker, self.tmp = experiments, worker, tmp
        self.workload = workload

    def trace_path(self, index):
        return WORK / "traces" / f"{self.workload}-seed{self.seed}-{index}.json"


WORKLOADS = {"grid": grid, "replay": replay, "serve": serve}


def run_workload(args, experiments, worker, name):
    tmp = WORK / f"tmp-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    (WORK / "traces").mkdir(parents=True, exist_ok=True)
    try:
        ctx = Context(args, experiments, worker, tmp, name)
        attempted, failed, e2e, notes, layers = WORKLOADS[name](ctx)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    log(f"{name}: error_frac = {failed / attempted:.6f} ratio ({failed} of {attempted} operations wrong, missing or refused)")
    if args.trace:
        units = dict(PER_LAYER)
        metrics = {m: benchlib.median([layer[m] for layer in layers]) for m, _ in PER_LAYER}
        log(f"{name}: per-layer metrics, median of {len(layers)} traced passes (self time; 0 = layer not exercised):")
        for metric, unit in PER_LAYER:
            log(f"  {metric:26} {metrics[metric]:14.3f} {unit}")
        for text, holds in predictions(name, metrics):
            log(f"{name}: prediction {'holds' if holds else 'DOES NOT HOLD'}: {text}")
        log(f"{name}: first pass's spans kept in {(WORK / 'traces').relative_to(ROOT)}/{name}-seed{args.seed}-0.json "
            "(open in https://ui.perfetto.dev or chrome://tracing)")
    else:
        units = dict(END_TO_END)
        metrics = e2e
        for metric, unit in END_TO_END:
            note = f"  ({notes[metric]})" if metric in notes else ""
            log(f"{name}: {metric:12} = {metrics[metric]:12.4f} {unit}{note}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }


def bless(experiments, worker):
    """Rewrites perfbench/expected/ from the code as it is."""
    EXPECTED.mkdir(exist_ok=True)
    tmp = WORK / f"bless-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        run_worker([worker, "grid", "--out", tmp / "grid"])
        digests = [f"{sha256(p)}  {p.name}\n" for p in sorted((tmp / "grid").glob("*.csv"))]
        (EXPECTED / "grid_csv.sha256").write_text("".join(digests))
        space = subprocess.run([str(worker), "replay-space"], capture_output=True, text=True, check=True).stdout
        (EXPECTED / "replay_cells.tsv").write_text(space)
        requests = tmp / "catalogue.tsv"
        ids = [r for cls in SERVE_CLASSES for r in SERVE_CATALOGUE[cls]]
        requests.write_text("".join(f"any\t{r}\t{json.dumps(request_body(r))}\n" for r in ids))
        answers = subprocess.run([str(worker), "expect", "--requests", str(requests)],
                                 capture_output=True, text=True, check=True).stdout
        (EXPECTED / "serve_requests.tsv").write_text(answers)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    log(f"wrote {len(digests)} CSV digests, {len(space.splitlines())} replay cells, "
        f"{len(answers.splitlines())} serve answers to {EXPECTED.relative_to(ROOT)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured seconds per workload (BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--bless", action="store_true", help="rewrite perfbench/expected/ and exit")
    args = parser.parse_args()
    if args.seconds is None and not args.bless:
        parser.error("--seconds is required")
    try:
        experiments, worker = build()
        if args.bless:
            bless(experiments, worker)
            return 0
        context = run_context(args)
        log("context: " + json.dumps(context, sort_keys=True))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_workload(args, experiments, worker, name) for name in names}
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    if len(results) == 1:
        summary = results[args.workload]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    record = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json"
    record.write_text(json.dumps({"context": context, "result": summary}, indent=1, sort_keys=True))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
