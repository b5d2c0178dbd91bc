"""Command line interface.

One subcommand per library surface plus verify-all for identity sweeps.
Exit status: 0 on success, 1 on input or guard errors or when memory
runs out, 2 when any identity alarm fires.  Each subcommand reads
--format and the options OPTIONS gives it, each from its flag (--max-n
for max_n), else from its ENCHAIN_ variable (ENCHAIN_MAX_N), else from
DEFAULTS.
"""

import argparse
import functools
import os
import sys
from dataclasses import asdict, dataclass
from itertools import chain, product

from . import gamma_complex, geometry, partitions, polynomials, posets, toric, verify
from .errors import IdentityAlarm, InputError, SizeLimit
from .io import RENDERERS, load_poset
from .verify import int_coeffs, rat_coeffs

VERIFY_ALL_MAX_N = 6
DEFAULTS = {
    "format": "json",
    "max_n": 4,
    "max_m": 4,
    "truncation": 8,
    "guard_points": partitions.FRONTIER_WORK_GUARD,
    "guard_spairs": toric.SPAIR_GUARD_DEFAULT,
}
BOUNDS = tuple(DEFAULTS)[1:]  # the options that must be positive
ROW_BOUNDS = BOUNDS[1:]  # the keyword arguments of verify.verify_poset
OPTIONS = {"grobner": ("guard_spairs",), "verify-all": BOUNDS}  # read besides format


@dataclass
class RunConfig:
    # a field for every option, read or not: perfbench builds it from DEFAULTS
    command: str
    input_path: str
    fmt: str
    max_n: int
    max_m: int
    truncation: int
    guard_points: int
    guard_spairs: int
    m: int = 1
    kind: str = "left"

    def __post_init__(self):
        if self.fmt not in RENDERERS:
            raise InputError(
                f"unknown format {self.fmt!r}; expected one of {', '.join(RENDERERS)}"
            )
        for name in BOUNDS:
            if getattr(self, name) <= 0:
                raise SizeLimit(f"{name} must be positive")
        if self.m < 0:
            raise SizeLimit("m must be nonnegative")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="enchain",
        description="Exact computations on enriched chain polytopes of posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in [*COMMANDS, "verify-all"]:
        p = sub.add_parser(name)
        if name == "verify-all":  # a sweep to --max-n, or the one --poset file
            group = p.add_mutually_exclusive_group()
            group.add_argument("--poset", default=None, help="verify a single poset file")
        else:
            p.add_argument("poset", help="poset file (text or JSON format)")
        for option in ("format", *OPTIONS.get(name, ())):
            default = DEFAULTS[option]
            choices = RENDERERS if option == "format" else None
            (group if option == "max_n" else p).add_argument(
                "--" + option.replace("_", "-"), type=type(default), choices=choices
            )
        if name == "partitions":
            p.add_argument("--m", type=int, default=1)
            p.add_argument("--kind", choices=("left", "enriched"), default="left")
    return parser


def config_from_args(args):
    """Each option the subcommand reads from its flag (0 included), else
    from its ENCHAIN_ variable, else from DEFAULTS; every other option
    from DEFAULTS."""
    options = dict(DEFAULTS)
    for name in ("format", *OPTIONS.get(args.command, ())):
        value, variable = getattr(args, name), f"ENCHAIN_{name.upper()}"
        if value is None and variable in os.environ:
            text = os.environ[variable]
            try:
                value = type(options[name])(text)
            except ValueError:
                raise SizeLimit(f"bad {variable} value {text!r}") from None
        if value is not None:
            options[name] = value
    return RunConfig(
        command=args.command,
        input_path=args.poset,
        fmt=options.pop("format"),
        m=getattr(args, "m", 1),
        kind=getattr(args, "kind", "left"),
        **options,
    )


def on_natural_labels(command):
    """Run command on the naturally labelled copy of its poset, which the
    partition and peak facts need, and add the relabelling to the payload
    when the input was not naturally labelled."""

    @functools.wraps(command)
    def run(poset, cfg):
        payload = command(poset.canonicalized(), cfg)
        if not poset.naturally_labeled:
            payload["relabeled_by"] = list(poset.topological_order())
        return payload

    return run


def cmd_antichains(poset, cfg):
    chains = posets.antichains(poset)
    return {"n": poset.n, "count": len(chains), "antichains": [list(a) for a in chains]}


def cmd_extensions(poset, cfg):
    exts = posets.linear_extensions(poset)
    return {"n": poset.n, "count": len(exts), "extensions": exts}


def cmd_ehrhart(poset, cfg):
    data = geometry.hstar_and_gamma(poset)
    return {
        "L": rat_coeffs(data.ehrhart),
        "hstar": int_coeffs(data.hstar),
        "gamma": list(polynomials._trim(data.gamma)),
        "volume": data.volume,
    }


def cmd_hstar(poset, cfg):
    data = geometry.hstar_and_gamma(poset)
    props = polynomials.polynomial_properties(data.hstar)
    return {"hstar": int_coeffs(data.hstar), "properties": asdict(props)}


@on_natural_labels
def cmd_gamma(poset, cfg):
    data = geometry.hstar_and_gamma(poset)
    peaks = partitions.peak_polynomials(poset)
    return {
        "gamma": list(data.gamma),
        "left_peak": int_coeffs(peaks.left_peak),
        "identity": "pass",
    }


@on_natural_labels
def cmd_partitions(poset, cfg):
    count = partitions.count_partitions(poset, cfg.m, cfg.kind)
    if count > 5000:
        listed = "omitted"
    else:
        listed = [list(f) for f in partitions.iter_partitions(poset, cfg.m, cfg.kind)]
    return {"m": cfg.m, "kind": cfg.kind, "count": count, "partitions": listed}


@on_natural_labels
def cmd_peaks(poset, cfg):
    peaks = partitions.peak_polynomials(poset)
    return {
        "W": int_coeffs(peaks.peak),
        "W_left": int_coeffs(peaks.left_peak),
        "W_des": int_coeffs(peaks.descent),
        "extensions": peaks.extension_count,
    }


def cmd_grobner(poset, cfg):
    payload = {"variables": len(toric._sign_masks(poset)[0])}
    for path, _, _, cap, run in verify.CHECKS:  # the checks of a row's groebner section
        section, _, key = path.partition(".")
        if section != "groebner":
            continue
        if cap is not None and poset.n > cap:
            payload[key] = "skipped"
            continue
        alarms = []
        payload[key], extras = run(poset, alarms, guard_spairs=cfg.guard_spairs)
        payload.update(extras)
        if alarms:
            raise IdentityAlarm(alarms[0])
    if poset.n <= toric.EXTRACT_MAX_N:
        tri = toric.triangulation_extract(poset)
        payload["triangulation"] = {
            "faces": tri.simplex_count,
            "unimodular": True,
            "boundary_h": int_coeffs(tri.boundary_h),
        }
    else:
        payload["triangulation"] = "skipped"
    return payload


def cmd_triangulation(poset, cfg):
    tri = toric.triangulation_extract(poset)
    labels = toric.variable_labels(poset)
    return {
        "simplices": tri.simplex_count,
        "boundary_f": list(tri.boundary_f_vector),
        "boundary_h": int_coeffs(tri.boundary_h),
        "unimodular": True,
        "maximal_faces": [
            [labels[v] for v in face] for face in tri.maximal_faces
        ],
    }


@on_natural_labels
def cmd_complex(poset, cfg):
    complex_ = gamma_complex.build_complex(poset)
    # stored uncolored: cut each base's word at its peak before joining (labels may pass 9)
    colored = []
    for word, peak in complex_.bases:
        head, tail = "".join(map(str, word[:peak])), "".join(map(str, word[peak:]))
        colored.append([f"{head}|^{c} {tail}" for c in gamma_complex.COLORS])
    payload = {
        "f": list(complex_.f_vector),
        "identity": "pass",
        "kruskal_katona": "pass" if complex_.kruskal_katona else "fail",
        "vertices": list(chain.from_iterable(colored)),
        "edges": list(chain.from_iterable(product(colored[a], colored[b]) for a, b in complex_.pairs)),
    }
    if not complex_.kruskal_katona:
        raise IdentityAlarm(verify.kruskal_katona_alarm(complex_.f_vector))
    return payload


def cmd_verify_all(cfg):
    if cfg.input_path:
        chosen = [load_poset(cfg.input_path)]
    elif cfg.max_n > VERIFY_ALL_MAX_N:
        raise SizeLimit(
            f"verify-all sweeps are guarded at max-n <= {VERIFY_ALL_MAX_N}"
        )
    else:  # every naturally labelled poset with up to max_n elements, in generator order
        chosen = [p for n in range(1, cfg.max_n + 1) for p in posets.all_natural_posets(n)]
    kwargs = {name: getattr(cfg, name) for name in ROW_BOUNDS}
    rows = [verify.verify_poset(poset, **kwargs) for poset in chosen]
    alarm_count = sum(len(r["alarms"]) for r in rows)
    return {
        "rows": rows,
        "summary": {"posets": len(rows), "alarms": alarm_count},
    }, alarm_count


COMMANDS = {
    "antichains": cmd_antichains,
    "extensions": cmd_extensions,
    "ehrhart": cmd_ehrhart,
    "hstar": cmd_hstar,
    "gamma": cmd_gamma,
    "partitions": cmd_partitions,
    "peaks": cmd_peaks,
    "grobner": cmd_grobner,
    "triangulation": cmd_triangulation,
    "complex": cmd_complex,
}


def run_command(cfg):
    if cfg.command == "verify-all":
        return cmd_verify_all(cfg)
    return COMMANDS[cfg.command](load_poset(cfg.input_path), cfg), 0


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code != 2:  # argparse exits 2 on a usage error, the code of an alarm here
            raise
        return 1
    try:
        cfg = config_from_args(args)
        payload, alarms = run_command(cfg)
        text = RENDERERS[cfg.fmt](payload)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IdentityAlarm as exc:
        print(f"alarm: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: {args.command} ran out of memory", file=sys.stderr)
        return 1
    sys.stdout.write(text)
    return 2 if alarms else 0


if __name__ == "__main__":
    sys.exit(main())
