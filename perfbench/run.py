"""The enchain benchmark: one workload, one seed, one run.

Usage:
    python3 perfbench/run.py --workload battery4|battery5|facts6 --seed N
        --seconds S --trace 0|1

A pass runs every request of a workload once, in a fresh interpreter, so
the library's lru_cache state starts cold as in a CLI run.  A request is
one poset; its inputs come from the seed (see inputs.py).  With --trace 0
the run makes whole passes until S seconds have gone, at least two.  Each
request's latency is its mean over the passes (the same poset in every
pass of battery4, the same isomorphism class otherwise), and the latency
statistics are taken over those means.  The median is estimated as the
mean of the central fifth of them (see `median_band`).  Times are scaled to the host's
reference speed (speed.py); the raw ones are printed too.
With --trace 1 it makes one untraced and one traced pass of the same
inputs and reports the per-layer metrics of the traced one.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it print every
metric with its unit.  The exit code is 0 when a result was printed, even
if some request failed (then correct is false), and 1 when no pass could
be completed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import WORKLOADS
from spans import UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

DEFAULT_SEED = 0
RUN_LIMIT_S = 170  # every run, its passes and set-up probes included, ends by then
MIN_PASSES = 2
SETUP_SAMPLES = 7
TAIL_BEYOND = 10
MEDIAN_BAND = 0.2

END_TO_END = {
    "setup_s": ("s", "lower"),
    "posets_per_s": ("1/s", "higher"),
    "poset_p50_ms": ("ms", "lower"),
    "poset_tail_ms": ("ms", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "checks_run": ("count", "higher"),
}


def tail(samples, beyond=TAIL_BEYOND):
    """(value, percentile) of the highest nearest-rank percentile that
    still has at least `beyond` samples above it."""
    rank = len(samples) - beyond
    if rank < 1:
        raise ValueError(f"{len(samples)} samples leave none with {beyond} beyond")
    return sorted(samples)[rank - 1], 100 * rank / len(samples)


def median_band(samples, band=MEDIAN_BAND):
    """The median, estimated as the mean of the central `band` share of
    the sorted samples; with a band of one or two samples it is the plain
    median.  Per-request noise on a shared host is about a fifth of a
    request's time, and averaging the central samples cuts what it does
    to the median by about half."""
    ordered = sorted(samples)
    width = max(1, int(len(ordered) * band))
    width += (len(ordered) - width) % 2
    low = (len(ordered) - width) // 2
    return statistics.fmean(ordered[low : low + width])


def spawn(workload, seed, pass_index, deadline, *flags):
    """Run worker.py in a new interpreter and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("run time limit reached before the pass could start")
    env = {k: v for k, v in os.environ.items() if not k.startswith("ENCHAIN_")}
    argv = [sys.executable, str(WORKER), workload, str(seed), str(pass_index)]
    argv.append(repr(time.monotonic()))
    try:
        proc = subprocess.run(
            argv + list(flags), capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"pass {pass_index} did not end within the run time limit")
    if proc.returncode != 0:
        raise RuntimeError(f"pass {pass_index} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def scaled_latencies(p):
    return [p["scale"] * t for t in p["latencies_s"]]


def slot_latencies(passes):
    """Each request slot's scaled latency, averaged over the passes."""
    by_slot = {}
    for p in passes:
        for slot, t in zip(p["slots"], scaled_latencies(p)):
            by_slot.setdefault(slot, []).append(t)
    return [statistics.fmean(ts) for ts in by_slot.values()]


def end_to_end(passes, setups):
    """End-to-end metrics of a run: latency statistics over the request
    slots, medians over passes and set-ups for the rest."""
    latencies = slot_latencies(passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "posets_per_s": len(latencies) / sum(latencies),
        "poset_p50_ms": 1000 * median_band(latencies),
        "poset_tail_ms": 1000 * tail(latencies)[0],
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "checks_run": statistics.median(p["checks"] for p in passes),
    }
    return {name: {"value": metrics[name], "unit": END_TO_END[name][0]} for name in END_TO_END}


def per_layer(untraced, traced):
    latency = sum(traced["latencies_s"])
    overhead = sum(scaled_latencies(traced)) / sum(scaled_latencies(untraced)) - 1
    metrics = {}
    for name, value in traced["layers"].items():
        stat = name.rsplit(".", 1)[1]
        if stat == "self_s":
            value *= traced["scale"]
        unit = "bytes" if name == "io.render_json.items" else UNITS[stat]
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace_overhead_frac"] = {"value": overhead, "unit": "frac"}
    metrics["trace_accounted_frac"] = {"value": traced["self_sum_s"] / latency, "unit": "frac"}
    return metrics


def measure(workload, seed, seconds, trace):
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    if trace:
        untraced = spawn(workload, seed, 0, deadline)
        traced = spawn(workload, seed, 0, deadline, "--trace")
        passes = [untraced, traced]
        metrics = per_layer(untraced, traced)
        accounted = metrics["trace_accounted_frac"]["value"]
        consistent = 0.95 <= accounted <= 1 + 1e-9 and traced["min_self_s"] >= -1e-9
        notes = [
            f"traced pass: {traced['span_count']} spans written to {traced['spans_file']}",
            f"self times account for {accounted:.4f} of the traced request time",
        ]
    else:
        passes = []
        while len(passes) < MIN_PASSES or time.monotonic() - started < seconds:
            t0 = time.monotonic()
            passes.append(spawn(workload, seed, len(passes), deadline))
            if time.monotonic() + (time.monotonic() - t0) > deadline - 10:
                break
        setups = [(p["setup_s"], p["setup_scale"]) for p in passes]
        while len(setups) < SETUP_SAMPLES:
            probe = spawn(workload, seed, 0, deadline, "--setup-only")
            setups.append((probe["setup_s"], probe["setup_scale"]))
        metrics = end_to_end(passes, [t * scale for t, scale in setups])
        consistent = True
        count = passes[0]["attempted"]
        _, percentile = tail(passes[0]["latencies_s"])
        raw = [sum(p["latencies_s"]) for p in passes]
        notes = [
            f"{len(passes)} passes of {count} posets; {len(setups)} set-ups",
            "raw pass times " + ", ".join(f"{t:.3f}" for t in raw) + " s, scaled by "
            + ", ".join(f"{p['scale']:.3f}" for p in passes),
            f"poset_tail_ms is the p{percentile:.2f} latency of {count} requests,"
            f" {TAIL_BEYOND} beyond it",
        ]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    notes.append(f"failed_frac = {failed / attempted:.6f} ({failed} of {attempted} requests)")
    for p in passes:
        for failure in p["failures"]:
            print(f"failure: {failure}", file=sys.stderr)
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        result, notes = measure(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, metric in result["metrics"].items():
        better = END_TO_END.get(name, ("", ""))[1]
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}" + (f" ({better} is better)" if better else ""))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
