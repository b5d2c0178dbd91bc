"""One pass of a workload, run in a fresh interpreter by run.py.

Usage: worker.py WORKLOAD SEED PASS_INDEX SPAWN_TIME [--trace] [--setup-only]

SPAWN_TIME is the parent's time.monotonic() just before it started this
process; on Linux that clock is shared by all processes, so the setup time
reported here covers interpreter start, `import enchain` and input
generation.  The pass result is one JSON object on standard output.  Times
are reported as measured, each with the factor (speed.py) that scales it
to the reference speed of the host.
"""

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(SRC))

from checks import check_outputs, reference_problems  # noqa: E402
from inputs import pass_inputs  # noqa: E402
from spans import Tracer  # noqa: E402
from speed import SpeedSampler  # noqa: E402

REFERENCES = HERE / "reference.json"


def import_enchain():
    """Import the library from this checkout's src/ and nowhere else."""
    try:
        import enchain.cli
    except ImportError as exc:
        raise SystemExit(f"worker: cannot import enchain from {SRC}: {exc}")
    if not Path(enchain.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"worker: enchain was imported from {enchain.cli.__file__}, not {SRC}")
    return enchain.cli


def request_runner(workload, cli):
    """The timed work of one request: poset -> rendered JSON texts."""
    from enchain import io, verify

    defaults = cli.DEFAULTS
    if workload == "facts6":
        cfg = cli.RunConfig(
            command="ehrhart",
            input_path=None,
            fmt="json",
            max_n=defaults["max_n"],
            max_m=defaults["max_m"],
            truncation=defaults["truncation"],
            guard_points=defaults["guard_points"],
            guard_spairs=defaults["guard_spairs"],
        )

        def run(poset):
            return [
                io.render_json(cli.cmd_ehrhart(poset, cfg)),
                io.render_json(cli.cmd_complex(poset, cfg)),
            ]

    else:
        kwargs = {
            key: defaults[key]
            for key in ("max_m", "truncation", "guard_points", "guard_spairs")
        }

        def run(poset):
            return [io.render_json(verify.verify_poset(poset, **kwargs))]

    return run


def run_pass(workload, requests, run, references, tracer=None, clock=time.perf_counter):
    """Run and check every request; return latencies and accounting.

    `requests` is a list of (slot, class key, poset).  Only the library
    calls are timed; parsing and checking the output happen outside the
    timer.
    """
    latencies = []
    failures = []
    checks = 0
    for _, key, poset in requests:
        t0 = clock()
        try:
            if tracer is None:
                texts = run(poset)
            else:
                with tracer.span("perfbench.request"):
                    texts = run(poset)
        except Exception as exc:  # a failed request is counted, the pass goes on
            latencies.append(clock() - t0)
            failures.append(f"{key}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(clock() - t0)
        facts, found, problems = check_outputs(workload, [json.loads(t) for t in texts])
        checks += found
        problems += reference_problems(facts, references.get(key, {}))
        if problems:
            failures.append(f"{key}: {'; '.join(problems)}")
    return {
        "slots": [slot for slot, _, _ in requests],
        "latencies_s": latencies,
        "attempted": len(requests),
        "failed": len(failures),
        "failures": failures[:5],
        "checks": checks,
    }


def build_requests(workload, seed, pass_index):
    from enchain.posets import poset_from_covers

    return [
        (slot, key, poset_from_covers(n, cover_pairs))
        for slot, key, n, cover_pairs in pass_inputs(workload, seed, pass_index)
    ]


def main(argv):
    workload, seed, pass_index, spawn_time = argv[:4]
    seed, pass_index, spawn_time = int(seed), int(pass_index), float(spawn_time)
    cli = import_enchain()
    requests = build_requests(workload, seed, pass_index)
    result = {"setup_s": time.monotonic() - spawn_time}
    probe = SpeedSampler()
    for _ in range(5):
        probe.sample()
    result["setup_scale"] = probe.scale()
    if "--setup-only" not in argv:
        with open(REFERENCES, encoding="utf-8") as handle:
            references = json.load(handle)
        runner = request_runner(workload, cli)
        sampler = SpeedSampler()
        tracer = None
        if "--trace" in argv:
            tracer = Tracer(clock=sampler.clock)
            tracer.install()
        with sampler:
            result.update(run_pass(workload, requests, runner, references, tracer, sampler.clock))
        result["scale"] = sampler.scale()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
            result["self_sum_s"] = sum(tracer.self_times())
            result["min_self_s"] = min(tracer.self_times(), default=0.0)
            OUT.mkdir(exist_ok=True)
            spans = OUT / f"spans-{workload}.tsv"
            tracer.write(spans)
            result["spans_file"] = str(spans.relative_to(ROOT))
            result["span_count"] = len(tracer.name)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
