"""Spans around calls into the library, recorded from outside it.

A Tracer wraps library functions and rebinds every name under which an
`enchain` module holds them, so a call made through a name imported with
`from .geometry import count_dilation` is seen as well as one made through
`geometry.count_dilation`.  Each call becomes a span: its name, the span
that was open when it started (its parent), its start, its duration, the
part of that duration covered by child spans, and the size of its result.
A generator's span covers only the time spent producing its items, not
the time its consumer spends between them.

Spans are kept in flat arrays in memory and written out when the run
ends.  A span's self time is its duration minus the time of its children,
so the self times of all spans add up to the time of the root spans.
"""

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# Functions traced by the benchmark, with the statistics reported for each.
TARGETS = {
    "posets.antichains": ("calls", "self_s"),
    "posets.linear_extensions": ("calls", "self_s", "repeat_frac"),
    "posets.ideal_lattice": ("calls", "self_s"),
    "posets.maximal_chains": ("calls", "self_s"),
    "posets.comparability_orientations": ("calls", "self_s"),
    "geometry.count_dilation": ("calls", "self_s", "repeat_frac"),
    "geometry.in_enriched_polytope": ("calls", "self_s"),
    "geometry.hstar_and_gamma": ("self_s",),
    "geometry.volume_and_reflexivity": ("self_s",),
    "partitions.count_partitions": ("calls", "self_s", "repeat_frac"),
    "partitions.iter_partitions": ("items", "self_s"),
    "partitions.order_polynomial": ("calls", "self_s", "repeat_frac"),
    "partitions.peak_polynomials": ("calls", "self_s", "repeat_frac"),
    "partitions.phi_map": ("self_s",),
    "partitions.psi_map": ("self_s",),
    "polynomials.interpolate_at": ("calls", "self_s"),
    "polynomials.hstar_from_counts": ("self_s",),
    "toric.buchberger_verify": ("calls", "self_s"),
    "toric.construct_order": ("self_s",),
    "toric.generate_groebner_candidates": ("items",),
    "toric.initial_graph": ("calls", "self_s"),
    "toric.hilbert_certificate": ("self_s",),
    "toric.triangulation_extract": ("self_s", "items"),
    "linprog.feasible_point_eq": ("calls", "self_s"),
    "gamma_complex.build_complex": ("calls", "self_s", "items"),
    "verify.verify_poset": ("self_s",),
    "cli.cmd_ehrhart": ("self_s",),
    "cli.cmd_complex": ("self_s",),
    "io.render_json": ("self_s", "items"),
}

# Result sizes; a generator's size is the number of items it yields.
ITEMS = {
    "toric.generate_groebner_candidates": len,
    "toric.triangulation_extract": lambda tri: tri.simplex_count,
    "gamma_complex.build_complex": lambda cx: len(cx.vertices) + len(cx.edges),
    "io.render_json": len,  # ASCII JSON, so characters are bytes
}

UNITS = {"calls": "count", "self_s": "s", "repeat_frac": "frac", "items": "count"}


def layer_metric_names():
    """Every per-layer metric name, as `<module>.<function>.<stat>`."""
    return [f"{name}.{stat}" for name, stats in TARGETS.items() for stat in stats]


class Tracer:
    """Records spans around wrapped functions; see the module docstring."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.duration = array("d")
        self.child = array("d")
        self.items = array("q")
        self.repeats = Counter()
        self._seen = {}
        self._stack = []
        self._restore = []

    def _open(self, name_id):
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.duration.append(0.0)
        self.child.append(0.0)
        self.items.append(0)
        return idx

    def _add_time(self, idx, elapsed):
        self.duration[idx] += elapsed
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += elapsed

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name, items=None, track_repeats=False):
        """A traced stand-in for fn, recording one span per call."""
        name_id = self._name_id(name)
        signature = inspect.signature(fn) if track_repeats else None
        seen = self._seen.setdefault(name, set())
        clock = self.clock
        stack = self._stack

        def note_repeat(args, kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            key = tuple(bound.arguments.values())
            if key in seen:
                self.repeats[name] += 1
            else:
                seen.add(key)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if signature is not None:
                    note_repeat(args, kwargs)
                idx = self._open(name_id)
                inner = fn(*args, **kwargs)
                self.start[idx] = clock()
                while True:
                    stack.append(idx)
                    t0 = clock()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._add_time(idx, clock() - t0)
                        stack.pop()
                    self.items[idx] += 1
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if signature is not None:
                note_repeat(args, kwargs)
            idx = self._open(name_id)
            stack.append(idx)
            t0 = clock()
            self.start[idx] = t0
            try:
                result = fn(*args, **kwargs)
            finally:
                self._add_time(idx, clock() - t0)
                stack.pop()
            if items is not None:
                self.items[idx] = items(result)
            return result

        return traced

    @contextmanager
    def span(self, name):
        """A span around a block rather than a function (a root)."""
        idx = self._open(self._name_id(name))
        self._stack.append(idx)
        t0 = self.start[idx] = self.clock()
        try:
            yield
        finally:
            self._add_time(idx, self.clock() - t0)
            self._stack.pop()

    def install(self):
        """Wrap each `module.function` of enchain and rebind every name,
        in every loaded enchain module, that refers to the original."""
        importlib.import_module("enchain.cli")
        modules = [
            m
            for key, m in sorted(sys.modules.items())
            if key == "enchain" or key.startswith("enchain.")
        ]
        for name, stats in TARGETS.items():
            module_name, func_name = name.split(".")
            original = getattr(importlib.import_module(f"enchain.{module_name}"), func_name)
            wrapper = self.wrap(
                original, name, items=ITEMS.get(name), track_repeats="repeat_frac" in stats
            )
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def self_times(self):
        return [d - c for d, c in zip(self.duration, self.child)]

    def layer_metrics(self, targets=TARGETS):
        """{`<module>.<function>.<stat>`: value} over all recorded spans."""
        calls = Counter()
        self_s = Counter()
        items = Counter()
        for name_id, own, size in zip(self.name, self.self_times(), self.items):
            name = self.names[name_id]
            calls[name] += 1
            self_s[name] += own
            items[name] += size
        out = {}
        for name, stats in targets.items():
            values = {
                "calls": calls[name],
                "self_s": self_s[name],
                "items": items[name],
                "repeat_frac": self.repeats[name] / calls[name] if calls[name] else 0.0,
            }
            for stat in stats:
                out[f"{name}.{stat}"] = values[stat]
        return out

    def write(self, path):
        """Write every span as one tab-separated line."""
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tname\tparent\tstart_s\tduration_s\tself_s\titems\n")
            for idx, name_id in enumerate(self.name):
                out.write(
                    f"{idx}\t{self.names[name_id]}\t{self.parent[idx]}\t"
                    f"{self.start[idx]:.9f}\t{self.duration[idx]:.9f}\t"
                    f"{selfs[idx]:.9f}\t{self.items[idx]}\n"
                )

