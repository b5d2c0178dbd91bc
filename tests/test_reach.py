"""Which library functions the command line reaches.

Code that only the tests reach lives with the tests, in oracles.py.  This
audit runs fixed CLI traffic in a fresh interpreter, because the memos
warmed by earlier tests would hide calls, records every call with
sys.setprofile, and lists each module-level function, method, property
and cached_property written in src/enchain that no call reached.  Dunder
methods, the methods dataclasses generate and nested functions are not
audited.  What is left must be exactly the allow-list below, each name
with the reason it stays in the library.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from enchain.cli import COMMANDS

SRC = Path(__file__).resolve().parents[1] / "src"

# Run in the fresh interpreter: argv[1] is the traffic, a JSON list of CLI
# argument lists.  Prints the exit codes and the unreached names as JSON.
AUDIT = r"""
import contextlib, functools, importlib, inspect, io, json, pkgutil, sys

import enchain
from enchain import cli


def written_here(module):
    # name -> code object of every function and method in module's source
    found = {}
    for value in vars(module).values():
        members = vars(value).values() if isinstance(value, type) else [value]
        for member in members:
            if isinstance(member, property):
                member = member.fget
            elif isinstance(member, functools.cached_property):
                member = member.func
            member = inspect.unwrap(getattr(member, "__func__", member))
            if not inspect.isfunction(member):
                continue
            code, name = member.__code__, member.__name__
            if code.co_filename != module.__file__ or name.startswith("__") and name.endswith("__"):
                continue
            found[f"{module.__name__.removeprefix('enchain.')}.{member.__qualname__}"] = code
    return found


functions = written_here(enchain)
for info in pkgutil.iter_modules(enchain.__path__):
    functions.update(written_here(importlib.import_module(f"enchain.{info.name}")))

called = set()


def record(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


codes = []
sys.setprofile(record)
try:
    for argv in json.loads(sys.argv[1]):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(cli.main(argv))
finally:
    sys.setprofile(None)
unreached = sorted(name for name, code in functions.items() if code not in called)
print(json.dumps({"codes": codes, "unreached": unreached}))
"""

BENCHMARK = "traced by name in perfbench/spans.py; moves to the oracles with the benchmark's revision"
ALARM = "alarm text, reached only when its check fails"
COLORED_VIEW = (
    "a colored view of the complex, built on first read: perfbench/spans.py counts it"
    " as build_complex's items, and the tests read it"
)

ALLOWED = {
    "geometry.in_enriched_polytope": BENCHMARK,
    "linprog._integer_system": BENCHMARK,
    "linprog.feasible_point_eq": BENCHMARK,
    "linprog._pivot": BENCHMARK,
    "linprog._eliminate": BENCHMARK,
    "partitions.phi_map": BENCHMARK,
    "partitions.psi_map": BENCHMARK,
    "polynomials.interpolate_at": BENCHMARK,
    "posets.ideal_lattice": BENCHMARK,
    "posets._view": BENCHMARK + " (the helper of ideal_lattice)",
    "verify.kruskal_katona_alarm": ALARM,
    "gamma_complex.GammaComplex.vertices": COLORED_VIEW,
    "gamma_complex.GammaComplex.edges": COLORED_VIEW,
    "partitions.left_peak_positions": (
        "the left peak scan that DecoratedPermutation's validating constructor reads, which builds"
        " the colored views; moves to the oracles with the views at the benchmark's revision"
    ),
    "gamma_complex.DecoratedPermutation.bar_count": (
        "the bar count of a decorated permutation, which the oracles read"
    ),
    "posets.Poset.less": "the relation accessor of the exported Poset class, which the oracles read",
    "posets.Poset.pairs": (
        "the relation of the exported Poset class as a set, which __repr__, the orientation alarm"
        " and the tests read; a row writes the relation in order from the bitsets"
    ),
    "posets._memo_with_limit": "a decorator, which runs at import, before any traffic",
    "cli.on_natural_labels": "a decorator, which runs at import, before any traffic",
}

POSETS = {
    "natural.txt": "4\n1 < 3\n2 < 3\n2 < 4\n",
    "relabeled.txt": "4\n4 < 1\n",
    "v.json": '{"n": 3, "covers": [[1, 3], [2, 3]]}\n',
}


def traffic(directory):
    paths = []
    for name, text in POSETS.items():
        path = directory / name
        path.write_text(text)
        paths.append(str(path))
    natural = paths[0]
    runs = [[command, path] for path in paths for command in COMMANDS]
    runs += [
        ["partitions", natural, "--m", "2", "--kind", "enriched"],
        ["ehrhart", natural, "--format", "tsv"],
        ["peaks", natural, "--format", "text"],
    ]
    runs += [["verify-all", "--poset", path] for path in paths]
    runs.append(["verify-all", "--max-n", "3"])
    return runs


def test_cli_traffic_reaches_all_but_the_allow_list(tmp_path):
    runs = traffic(tmp_path)
    env = {k: v for k, v in os.environ.items() if not k.startswith("ENCHAIN_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", AUDIT, json.dumps(runs)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["codes"] == [0] * len(runs), list(zip(runs, result["codes"]))
    unreached = set(result["unreached"])
    assert not unreached - set(ALLOWED), (
        f"only the tests reach {sorted(unreached - set(ALLOWED))}: move them to tests/oracles.py"
    )
    assert not set(ALLOWED) - unreached, (
        f"the CLI now reaches {sorted(set(ALLOWED) - unreached)}: take them off the allow-list"
    )
