"""Benchmark of sepfam: four workloads, end to end or layer by layer.

    python3 perfbench/run.py --workload count --seed 1 --seconds 25 --trace 0

Each workload is one caller in a closed loop: the next request is sent only
when the previous one has returned. All measuring happens in fresh
interpreters started from here (worker.py), so every run starts as cold as
a `sepfam` command does, and memory belongs to one workload alone.

--trace 0 reports the end-to-end metrics: throughput, p50 and p90 latency
and peak RSS of a loop of SECONDS of busy time (run on to the end of a
block of request kinds, so every run holds the workload's exact mix), the share of requests answered
correctly (a `sepfam count` whose answer passes Python's 4300-digit limit
exits 2 today; the check predicts this, so it lowers the share without
failing the run), and the median time to import sepfam and sepfam.cli over
several fresh interpreters. Times are scaled to the nominal speed of a
fixed calibration kernel timed alongside them (see worker.py), because a
shared machine's own swings in speed are larger than the bounds the
benchmark sets; the raw figures are printed above the result.

--trace 1 reports the per-layer metrics. It sends the same fixed list of
requests three times, each in a fresh interpreter: once untraced (its
outputs are checked) and twice traced. Call counts and the other counters
must be identical in the two traced passes, and the outputs identical in
all three; `trace.overhead_ratio` is untraced over traced throughput.

The last line printed is one JSON object: correct, attempted, failed and
metrics. Lines before it repeat the figures for a reader.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import COUNTERS, LAYERS

HERE = Path(__file__).resolve().parent
WORKLOADS = ("count", "verify", "families", "trees")
PROBES = 8  # fresh interpreters timed for setup_s, beside the loop's own import
# requests per traced pass for each second of --seconds; a pass then takes
# about a quarter of --seconds untraced with sepfam 0.1.0 on a 2-core machine
TRACE_REQUESTS_PER_SECOND = {"count": 35, "verify": 60, "families": 10, "trees": 230}
CHILD_TIMEOUT_S = 170


def worker(*args) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {' '.join(map(str, args))} exited with {proc.returncode}")
    return json.loads(proc.stdout)


def tally(verdicts: dict) -> tuple[bool, int, int]:
    """(correct, attempted, failed) from a worker's verdict counts.

    A request fails when its answer is wrong or it gave no answer for a
    reason the check does not predict. A request that gave no answer in the
    way the check predicts (KNOWN in workloads.py) does not fail the run; it
    lowers success_ratio and is counted in cli.digit_limit_exits.
    """
    attempted = sum(verdicts.values())
    failed = verdicts["wrong"] + verdicts["error"]
    return failed == 0, attempted, failed


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    worker("probe")  # unmeasured: lets the first probe find compiled bytecode
    # half the probes before the loop and half after, so the median does not
    # rest on one moment of a shared machine's speed
    probes = [worker("probe") for _ in range(PROBES // 2)]
    loop = worker("loop", workload, seed, seconds)
    probes += [loop] + [worker("probe") for _ in range(PROBES - PROBES // 2)]
    correct, attempted, failed = tally(loop["verdicts"])
    verdicts = loop["verdicts"]
    print(f"{workload} seed={seed}: {loop['completed']} requests, {loop['above_p90']} above p90, "
          f"verdicts {verdicts}, unanswered share {1 - verdicts['ok'] / attempted:.6f}")
    print(f"{workload} raw: {loop['completed'] / loop['raw_busy_s']:.4f} 1/s, "
          f"p50 {loop['raw_p50_s'] * 1e3:.4f} ms, p90 {loop['raw_p90_s'] * 1e3:.4f} ms, "
          f"setup {statistics.median(p['raw_setup_s'] for p in probes):.4f} s; "
          f"the kernel ran at {loop['raw_busy_s'] / loop['busy_s']:.3f} x its nominal time")
    if loop["capacity_reached"]:
        print(f"{workload}: record arrays filled before --seconds ran out")
    metrics = {
        "throughput_ops_s": (loop["completed"] / loop["busy_s"], "1/s"),
        "latency_p50_ms": (loop["p50_s"] * 1e3, "ms"),
        "latency_p90_ms": (loop["p90_s"] * 1e3, "ms"),
        "peak_rss_mb": (loop["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        # share of requests answered, and answered right; requests with a
        # predicted failure lower it without failing the run
        "success_ratio": (verdicts["ok"] / attempted, "ratio"),
    }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def per_layer(workload: str, seed: int, seconds: float) -> dict:
    requests = max(1, round(TRACE_REQUESTS_PER_SECOND[workload] * seconds))

    def traced(tag: str) -> dict:
        path = HERE / "traces" / f"{workload}-seed{seed}-{tag}.jsonl"
        return worker("pass", workload, seed, requests, "--trace-to", path)

    # the untraced pass sits between the traced ones, so drift in machine
    # speed over the run does not lean the overhead ratio one way
    a = traced("a")
    plain = worker("pass", workload, seed, requests, "--check")
    b = traced("b")
    correct, attempted, failed = tally(plain["verdicts"])
    same_counts = a["calls"] == b["calls"] and a["counts"] == b["counts"]
    same_outputs = plain["digest"] == a["digest"] == b["digest"]
    if not same_counts:
        print(f"{workload}: counts differ between two traced passes of seed {seed}")
    if not same_outputs:
        print(f"{workload}: outputs differ between traced and untraced passes of seed {seed}")
    print(f"{workload} seed={seed}: {requests} requests per pass, {a['spans']} spans, "
          f"verdicts {plain['verdicts']}")
    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = (a["calls"].get(name, 0), "count")
        metrics[f"{name}.self_s"] = ((a["self_s"][name] + b["self_s"][name]) / 2, "s")
    for name in COUNTERS:
        metrics[name] = (a["counts"].get(name, 0), "count")
    metrics["cli.digit_limit_exits"] = (plain["verdicts"]["known"], "count")
    traced_busy = (a["busy_s"] + b["busy_s"]) / 2
    metrics["trace.overhead_ratio"] = (traced_busy / plain["busy_s"], "ratio")
    return {"correct": correct and same_counts and same_outputs,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    measure = per_layer if args.trace else end_to_end
    result = measure(args.workload, args.seed, args.seconds)
    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload} {name} = {value} {unit}")
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
