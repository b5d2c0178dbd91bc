"""Record the reference facts checked by every run of the benchmark.

Usage: python3 perfbench/record_references.py

Runs one pass of each workload with the default seed, which between them
hold every isomorphism class the workloads draw from, and writes the facts
of each class to reference.json.  Record it only at a commit whose outputs
are trusted: a run compares every later commit against this file.
"""

import json
import sys

from run import DEFAULT_SEED
from inputs import WORKLOADS
from worker import REFERENCES, build_requests, import_enchain, request_runner
from checks import check_outputs


def main():
    cli = import_enchain()
    references = {}
    for workload in WORKLOADS:
        run = request_runner(workload, cli)
        for _, key, poset in build_requests(workload, DEFAULT_SEED, 0):
            outputs = [json.loads(text) for text in run(poset)]
            facts, _, problems = check_outputs(workload, outputs)
            if problems:
                raise SystemExit(f"{workload} {key}: {problems}")
            if references.setdefault(key, facts) != facts:
                raise SystemExit(f"{key}: facts differ between labellings")
    lines = [f"{json.dumps(key)}: {json.dumps(references[key], sort_keys=True)}" for key in sorted(references)]
    with open(REFERENCES, "w", encoding="utf-8") as out:
        out.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"{len(references)} classes written to {REFERENCES.name}", file=sys.stderr)


if __name__ == "__main__":
    main()
