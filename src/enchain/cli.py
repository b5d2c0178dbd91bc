"""Command line interface.

One subcommand per library surface plus verify-all for identity sweeps.
Exit status: 0 on success, 1 on input or guard errors, 2 when any
identity alarm fires.  Flags can also be set through environment
variables with the ENCHAIN_ prefix (ENCHAIN_FORMAT, ENCHAIN_MAX_N,
ENCHAIN_MAX_M, ENCHAIN_TRUNCATION, ENCHAIN_GUARD_POINTS,
ENCHAIN_GUARD_SPAIRS); explicit flags win over the environment.
"""

import argparse
import os
import sys
from dataclasses import asdict, dataclass

from . import gamma_complex, geometry, partitions, polynomials, posets, toric, verify
from .errors import GuardExceeded, IdentityAlarm, InputError
from .io import RENDERERS, load_poset
from .verify import int_coeffs, rat_coeffs

VERIFY_ALL_MAX_N = 6
VERIFY_ALL_SWEEP_DEFAULT = 4
DEFAULTS = {
    "format": "json",
    "max_n": 8,
    "max_m": 4,
    "truncation": 8,
    "guard_points": partitions.PARTITION_GUARD_DEFAULT,
    "guard_spairs": toric.SPAIR_GUARD_DEFAULT,
}


@dataclass
class RunConfig:
    command: str
    input_path: str
    fmt: str
    max_n: int
    max_m: int
    truncation: int
    guard_points: int
    guard_spairs: int
    max_n_explicit: bool = False
    m: int = 1
    kind: str = "left"

    def __post_init__(self):
        if self.fmt not in RENDERERS:
            raise InputError(
                f"unknown format {self.fmt!r}; expected one of {', '.join(RENDERERS)}"
            )
        for guard in ("max_n", "max_m", "truncation", "guard_points", "guard_spairs"):
            if getattr(self, guard) <= 0:
                raise GuardExceeded(f"{guard} must be positive")
        if self.m < 0:
            raise GuardExceeded("m must be nonnegative")


def build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "tsv", "text"), default=None)
    common.add_argument("--max-n", type=int, default=None)
    common.add_argument("--max-m", type=int, default=None)
    common.add_argument("--truncation", type=int, default=None)
    common.add_argument("--guard-points", type=int, default=None)
    common.add_argument("--guard-spairs", type=int, default=None)

    parser = argparse.ArgumentParser(
        prog="enchain",
        description="Exact computations on enriched chain polytopes of posets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        p.add_argument("poset", help="poset file (text or JSON format)")
        if command is cmd_partitions:
            p.add_argument("--m", type=int, default=1)
            p.add_argument("--kind", choices=("left", "enriched"), default="left")
    p = sub.add_parser("verify-all", parents=[common])
    p.add_argument("--poset", default=None, help="verify a single poset file")
    return parser


def _flag_or_env(args, name, cast):
    """The flag's value when given (0 included), else the environment's,
    else the default."""
    value = getattr(args, name)
    if value is not None:
        return value
    value = os.environ.get(f"ENCHAIN_{name.upper()}")
    if value is None:
        return DEFAULTS[name]
    try:
        return cast(value)
    except ValueError:
        raise GuardExceeded(f"bad ENCHAIN_{name.upper()} value {value!r}") from None


def config_from_args(args):
    return RunConfig(
        command=args.command,
        input_path=getattr(args, "poset", None),
        fmt=_flag_or_env(args, "format", str),
        max_n=_flag_or_env(args, "max_n", int),
        max_m=_flag_or_env(args, "max_m", int),
        truncation=_flag_or_env(args, "truncation", int),
        guard_points=_flag_or_env(args, "guard_points", int),
        guard_spairs=_flag_or_env(args, "guard_spairs", int),
        max_n_explicit=args.max_n is not None
        or os.environ.get("ENCHAIN_MAX_N") is not None,
        m=getattr(args, "m", 1),
        kind=getattr(args, "kind", "left"),
    )


def _canonical_note(poset):
    if poset.naturally_labeled:
        return poset, None
    return poset.canonicalized(), list(poset.natural_relabeling)


def cmd_antichains(poset, cfg):
    chains = posets.antichains(poset)
    return {"n": poset.n, "count": len(chains), "antichains": [list(a) for a in chains]}


def cmd_extensions(poset, cfg):
    exts = posets.linear_extensions(poset)
    return {"n": poset.n, "count": len(exts), "extensions": [list(w) for w in exts]}


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


def cmd_gamma(poset, cfg):
    data = geometry.hstar_and_gamma(poset)
    canonical, relabeling = _canonical_note(poset)
    peaks = partitions.peak_polynomials(canonical)
    payload = {
        "gamma": list(data.gamma),
        "left_peak": int_coeffs(peaks.left_peak),
        "identity": "pass",
    }
    if relabeling:
        payload["relabeled_by"] = relabeling
    return payload


def cmd_partitions(poset, cfg):
    canonical, relabeling = _canonical_note(poset)
    count = partitions.count_partitions(canonical, cfg.m, cfg.kind)
    if 5000 < count <= cfg.guard_points:
        listed = "omitted"
    else:  # enumerate_partitions raises past the guard before listing any
        items = partitions.enumerate_partitions(
            canonical, cfg.m, cfg.kind, guard=cfg.guard_points
        )
        listed = [list(f) for f in items]
    payload = {"m": cfg.m, "kind": cfg.kind, "count": count, "partitions": listed}
    if relabeling:
        payload["relabeled_by"] = relabeling
    return payload


def cmd_peaks(poset, cfg):
    canonical, relabeling = _canonical_note(poset)
    peaks = partitions.peak_polynomials(canonical)
    payload = {
        "W": int_coeffs(peaks.peak),
        "W_left": int_coeffs(peaks.left_peak),
        "W_des": int_coeffs(peaks.descent),
        "extensions": peaks.extension_count,
    }
    if relabeling:
        payload["relabeled_by"] = relabeling
    return payload


def cmd_grobner(poset, cfg):
    payload = {"variables": len(toric._sign_masks(poset)[0])}
    checks, ok = toric.hilbert_certificate(poset, max_m=3)
    payload["hilbert_checks"] = [list(c) for c in checks]
    payload["hilbert_pass"] = ok
    if not ok:
        raise IdentityAlarm(verify.hilbert_alarm(checks))
    if poset.n <= verify.BUCHBERGER_MAX_N:
        basis_size, agree, verdict = toric.buchberger_outcome(poset, cfg.guard_spairs)
        payload["basis_size"] = basis_size
        payload["leading_terms"] = agree
        payload["buchberger"] = verdict
        if verdict == "fail":
            raise IdentityAlarm(verify.buchberger_alarm(basis_size, agree))
    else:
        payload["buchberger"] = "skipped"
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


def cmd_complex(poset, cfg):
    canonical, relabeling = _canonical_note(poset)
    complex_ = gamma_complex.build_complex(canonical)
    # vertices come four to a word, colors 0..3: render the word once
    texts = []
    for base in complex_.vertices[:: len(gamma_complex.COLORS)]:
        head, tail = base.text().split("|^0")
        texts.extend(f"{head}|^{c}{tail}" for c in gamma_complex.COLORS)
    payload = {
        "f": list(complex_.f_vector),
        "identity": "pass",
        "kruskal_katona": "pass" if complex_.kruskal_katona else "fail",
        "vertices": texts,
        "edges": [[texts[a], texts[b]] for a, b in complex_.edges],
    }
    if relabeling:
        payload["relabeled_by"] = relabeling
    if not complex_.kruskal_katona:
        raise IdentityAlarm(verify.kruskal_katona_alarm(complex_.f_vector))
    return payload


def cmd_verify_all(cfg):
    kwargs = {
        "max_m": cfg.max_m,
        "truncation": cfg.truncation,
        "guard_points": cfg.guard_points,
        "guard_spairs": cfg.guard_spairs,
    }
    if cfg.input_path:
        rows = [verify.verify_poset(load_poset(cfg.input_path), **kwargs)]
    else:
        sweep_n = cfg.max_n if cfg.max_n_explicit else VERIFY_ALL_SWEEP_DEFAULT
        if sweep_n > VERIFY_ALL_MAX_N:
            raise GuardExceeded(
                f"verify-all sweeps are guarded at max-n <= {VERIFY_ALL_MAX_N}"
            )
        rows = verify.verify_sweep(sweep_n, **kwargs)
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
    poset = load_poset(cfg.input_path)
    command = COMMANDS[cfg.command]
    if poset.n > cfg.max_n and command not in (cmd_antichains, cmd_extensions):
        raise GuardExceeded(f"poset has n={poset.n} > max-n={cfg.max_n}")
    return command(poset, cfg), 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        payload, alarms = run_command(cfg)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except IdentityAlarm as exc:
        print(f"alarm: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(RENDERERS[cfg.fmt](payload))
    return 2 if alarms else 0


if __name__ == "__main__":
    sys.exit(main())
