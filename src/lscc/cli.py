"""Command-line interface: analyze, validate, sweep, graph, report.

Scheme sources are builtin descriptors ("toy", "windowed:a=2,L=8,field=real",
"shiftinv:N=2,R=8") or a path to a scheme JSON file.  Signals are inline
comma-separated values, "@file.json", or the builtin families "ones" and
"random".  Every run resolves its full configuration into a manifest next to
the outputs; all randomness derives from --seed (or LSCC_SEED), so reruns are
byte-identical.

Exit codes: 0 success, 1 input error, 2 a verified inequality failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from .errors import LsccError
from .graphs import graph_to_dict
from .harness import format_cell, write_csv, write_manifest
from .measurement import BOUND_SLACK, COMPLEX, REAL
from .scheme import (
    DEFAULT_ZERO_TOL,
    LsccScheme,
    induce_graph,
    scheme_from_json,
    validate_scheme,
)
from .shiftinv import (
    EXPONENTIAL,
    POLYNOMIAL,
    DecayProfile,
    GeneratorModel,
    build_shiftinv_scheme,
    decay_cheeger_study,
)
from .stability import RANDOM_GAUSSIAN, SIGN_FLIPS, stability_report
from .toy import toy_scheme
from .windowed import WindowedConfig, build_windowed_scheme, fit_loglog_slope, scaling_sweep

SWEEP_CSV_HEADER = [
    "L",
    "d",
    "bound",
    "empirical_ratio",
    "adversarial_ratio",
    "cheeger",
    "lambda",
    "C2_or_C3",
]
DECAY_CSV_HEADER = ["R", "cheeger", "reference_bound", "pass"]


class InputError(Exception):
    pass


def _parse_kv(spec: str) -> dict:
    out = {}
    if not spec:
        return out
    for part in spec.split(","):
        if "=" not in part:
            raise InputError(f"malformed option {part!r} (expected key=value)")
        key, value = part.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _env_seed() -> int:
    """The default seed: LSCC_SEED if set, which must be a non-negative integer."""
    text = os.environ.get("LSCC_SEED", "0")
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise InputError(f"LSCC_SEED must be a non-negative integer, got {text!r}")
    return seed


def resolve_scheme(source: str, seed: int) -> LsccScheme:
    if source == "toy":
        return toy_scheme()
    if source.startswith("windowed"):
        opts = _parse_kv(source.partition(":")[2])
        try:
            cfg = WindowedConfig(
                a=int(opts.get("a", 2)),
                L=int(opts.get("L", 8)),
                field=opts.get("field", REAL),
                s=float(opts.get("s", 1.0)),
                t=float(opts.get("t", 1.0)),
                seed=int(opts.get("seed", seed)),
            )
            return build_windowed_scheme(cfg)
        except (ValueError, LsccError) as exc:
            raise InputError(f"bad windowed descriptor: {exc}") from exc
    if source.startswith("shiftinv"):
        opts = _parse_kv(source.partition(":")[2])
        try:
            gen = GeneratorModel(N=int(opts.get("N", 2)), p=float(opts.get("p", 2.0)))
            return build_shiftinv_scheme(gen, int(opts.get("R", 8)))
        except (ValueError, LsccError) as exc:
            raise InputError(f"bad shiftinv descriptor: {exc}") from exc
    if os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as handle:
                return scheme_from_json(handle.read())
        except (OSError, json.JSONDecodeError, LsccError, KeyError) as exc:
            raise InputError(f"cannot load scheme {source!r}: {exc}") from exc
    raise InputError(f"unknown scheme source {source!r}")


def resolve_signal(spec: str, scheme: LsccScheme, seed: int) -> np.ndarray:
    if spec == "ones":
        dtype = np.complex128 if scheme.field == COMPLEX else np.float64
        return np.ones(scheme.ambient_dim, dtype=dtype)
    if spec.startswith("random"):
        opts = spec.partition(":")[2]
        try:
            rng = np.random.default_rng(int(opts) if opts else seed)
        except ValueError as exc:
            raise InputError(f"malformed signal {spec!r}: {exc}") from exc
        return scheme.random_signal(rng)
    if spec.startswith("@"):
        path = spec[1:]
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot load signal {path!r}: {exc}") from exc
        try:
            if not isinstance(data, list):
                raise ValueError(f"expected a JSON list, got {type(data).__name__}")
            values = [_file_entry(e) for e in data]
        except (ValueError, OverflowError) as exc:
            raise InputError(f"malformed signal file {path!r}: {exc}") from exc
    else:
        try:
            values = [complex(tok) for tok in spec.split(",") if tok.strip()]
        except ValueError as exc:
            raise InputError(f"malformed signal {spec!r}: {exc}") from exc
    if not values:
        raise InputError("empty signal")
    if scheme.field == REAL:
        if any(v.imag != 0.0 for v in values):
            raise InputError("complex entries in a real-field signal")
        arr = np.array([v.real for v in values])
    else:
        arr = np.array(values, dtype=np.complex128)
    if not np.all(np.isfinite(arr)):
        raise InputError("signal has non-finite entries")
    if arr.size != scheme.ambient_dim:
        raise InputError(
            f"signal length {arr.size} != scheme ambient dimension {scheme.ambient_dim}"
        )
    return arr


def _file_entry(entry) -> complex:
    """One entry of a signal file: a number, or a [real, imag] pair of numbers."""
    parts = entry if isinstance(entry, list) else [entry, 0.0]
    if len(parts) != 2 or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts
    ):
        raise ValueError(f"entry {entry!r} is neither a number nor a [real, imag] pair")
    return complex(parts[0], parts[1])


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        digest.update(handle.read())
    return digest.hexdigest()


def cmd_analyze(args) -> int:
    scheme = resolve_scheme(args.scheme, args.seed)
    signal = resolve_signal(args.signal, scheme, args.seed)
    strategy = SIGN_FLIPS if args.strategy == "signflips" else RANDOM_GAUSSIAN
    report = stability_report(
        scheme, signal, strategy=strategy, trials=args.trials, seed=args.seed
    )
    text = report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text + "\n")
        write_manifest(
            args.out + ".manifest.json",
            {
                "command": "analyze",
                "scheme": args.scheme,
                "signal": args.signal,
                "seed": args.seed,
                "trials": args.trials,
                "strategy": args.strategy,
                "outputs": {args.out: _sha256(args.out)},
            },
        )
    print(text)
    if report.retrievability != "RetrievableByConnectivity":
        print(
            "warning: induced graph not connected; stability bound is infinite",
            file=sys.stderr,
        )
    return 0 if report.bound_satisfied else 2


def cmd_validate(args) -> int:
    scheme = resolve_scheme(args.scheme, args.seed)
    rng = np.random.default_rng(args.seed)
    reports = validate_scheme(scheme, trials=args.trials, rng=rng)
    all_ok = True
    for rep in reports:
        status = "pass" if rep.passed else "FAIL"
        print(f"{rep.check}: {status} (worst ratio {format_cell(rep.worst)})")
        if not rep.passed:
            all_ok = False
            print(f"  detail: {rep.detail}", file=sys.stderr)
    return 0 if all_ok else 2


def _doubling(lo: int, hi: int, option: str) -> list[int]:
    if lo < 1:
        raise InputError(f"{option} must be >= 1, got {lo}")
    vals = []
    v = lo
    while v <= hi:
        vals.append(v)
        v *= 2
    return vals


def _json_slope(slope: float) -> float | None:
    """A fitted slope for a manifest: null when there is no line to fit."""
    return None if math.isnan(slope) else slope


def cmd_sweep_windowed(args) -> int:
    l_values = _doubling(args.Lmin, args.Lmax, "--Lmin")
    if not l_values:
        print("error: empty L range", file=sys.stderr)
        return 1
    rows = scaling_sweep(args.a, l_values, args.field, trials=args.trials, seed=args.seed)
    failure = None
    if args.field == COMPLEX:
        for row in rows:
            if row["bound"] < row["adversarial_ratio"] * (1.0 - BOUND_SLACK):
                failure = {"L": row["L"], "reason": "bound below adversarial ratio"}
                break
    out_rows = [dict(row) for row in rows]
    if failure is not None:
        marker = {h: "" for h in SWEEP_CSV_HEADER}
        marker["L"] = f"FAILED:{failure['reason']}"
        out_rows.append(marker)
    write_csv(args.out, SWEEP_CSV_HEADER, out_rows)
    slope = fit_loglog_slope([r["L"] for r in rows], [r["bound"] for r in rows])
    manifest = {
        "command": "sweep windowed",
        "a": args.a,
        "field": args.field,
        "L_values": l_values,
        "seed": args.seed,
        "trials": args.trials,
        "bound_slope": _json_slope(slope),
        "failure": failure,
        "outputs": {args.out: _sha256(args.out)},
    }
    if args.field == COMPLEX:
        manifest["adversarial_slope"] = _json_slope(
            fit_loglog_slope([r["L"] for r in rows], [r["adversarial_ratio"] for r in rows])
        )
    write_manifest(args.out + ".manifest.json", manifest)
    if math.isnan(slope):
        print(f"wrote {args.out}: bound slope vs L is undefined for one L value")
    else:
        print(f"wrote {args.out}: bound slope vs L = {slope:.4f}")
    return 2 if failure else 0


def cmd_sweep_shiftinv(args) -> int:
    r_values = [r for r in _doubling(args.Rmin, args.Rmax, "--Rmin") if r >= args.N]
    if not r_values:
        print("error: empty R range", file=sys.stderr)
        return 1
    kind = EXPONENTIAL if args.kind == "exp" else POLYNOMIAL
    try:
        profile = DecayProfile(kind, args.beta)
        gen = GeneratorModel(N=args.N, p=args.p)
        rows = decay_cheeger_study(gen, profile, r_values)
    except LsccError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out_rows = [
        {
            "R": row["R"],
            "cheeger": row["cheeger"],
            "reference_bound": row["reference"],
            "pass": row["pass"],
        }
        for row in rows
    ]
    write_csv(args.out, DECAY_CSV_HEADER, out_rows)
    all_ok = all(row["pass"] for row in rows)
    write_manifest(
        args.out + ".manifest.json",
        {
            "command": "sweep shiftinv",
            "kind": args.kind,
            "beta": args.beta,
            "N": args.N,
            "p": args.p,
            "R_values": r_values,
            "all_pass": all_ok,
            "outputs": {args.out: _sha256(args.out)},
        },
    )
    print(f"wrote {args.out}: {'all rows pass' if all_ok else 'FAILURES present'}")
    return 0 if all_ok else 2


def cmd_graph(args) -> int:
    scheme = resolve_scheme(args.scheme, args.seed)
    signal = resolve_signal(args.signal, scheme, args.seed)
    graph = induce_graph(scheme, signal, zero_tol=args.zero_tol)
    payload = graph_to_dict(graph)
    payload["empty"] = graph.is_empty
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text + "\n")
    print(text)
    return 0


def cmd_report(args) -> int:
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read report: {exc}", file=sys.stderr)
        return 1
    if not isinstance(data, dict):
        print(f"error: report is a JSON {type(data).__name__}, not an object", file=sys.stderr)
        return 1
    che = data.get("cheeger")
    if che and not (isinstance(che, dict) and {"lower", "upper", "method"} <= che.keys()):
        print("error: report cheeger must be an object with lower, upper, method", file=sys.stderr)
        return 1
    print(f"scheme:       {data.get('scheme')}")
    print(f"field/p:      {data.get('field')} / {data.get('p')}")
    print(f"verdict:      {data.get('retrievability')}")
    if che:
        print(f"cheeger:      [{che['lower']}, {che['upper']}] via {che['method']}")
    print(f"lambda:       {data.get('lambda')}")
    print(f"bound:        {data.get('bound')}")
    print(f"worst ratio:  {data.get('empiricalWorstRatio')}")
    print(f"satisfied:    {data.get('boundSatisfied')}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lscc",
        description="Stability analysis of locally stable phase retrieval schemes",
    )
    default_seed = _env_seed()
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="per-signal stability report")
    pa.add_argument("--scheme", required=True)
    pa.add_argument("--signal", required=True)
    pa.add_argument("--seed", type=int, default=default_seed)
    pa.add_argument("--trials", type=int, default=1000)
    pa.add_argument(
        "--strategy",
        choices=["gaussian", "signflips"],
        default="gaussian",
        help="gaussian: --trials random comparison signals; signflips: ignores "
        "--trials and enumerates min(2^(d-1)-1, 2^20) sign patterns of the "
        "d-dimensional signal (real schemes only), so its cost doubles with d",
    )
    pa.add_argument("--out")
    pa.set_defaults(func=cmd_analyze)

    pv = sub.add_parser("validate", help="run the three scheme axiom validators")
    pv.add_argument("--scheme", required=True)
    pv.add_argument("--seed", type=int, default=default_seed)
    pv.add_argument("--trials", type=int, default=200)
    pv.set_defaults(func=cmd_validate)

    ps = sub.add_parser("sweep", help="scaling and decay sweeps")
    ssub = ps.add_subparsers(dest="sweep_kind", required=True)

    pw = ssub.add_parser("windowed", help="bound growth against cycle length")
    pw.add_argument("--a", type=int, default=2)
    pw.add_argument("--Lmin", type=int, default=8)
    pw.add_argument("--Lmax", type=int, default=64)
    pw.add_argument("--field", choices=[REAL, COMPLEX], default=REAL)
    pw.add_argument("--seed", type=int, default=default_seed)
    pw.add_argument("--trials", type=int, default=200)
    pw.add_argument("--out", required=True)
    pw.set_defaults(func=cmd_sweep_windowed)

    pd = ssub.add_parser("shiftinv", help="Cheeger decay against truncation radius")
    pd.add_argument("--kind", choices=["exp", "poly"], required=True)
    pd.add_argument("--beta", type=float, required=True)
    pd.add_argument("--N", type=int, default=2)
    pd.add_argument("--p", type=float, default=2.0)
    pd.add_argument("--Rmin", type=int, default=8)
    pd.add_argument("--Rmax", type=int, default=64)
    pd.add_argument("--out", required=True)
    pd.set_defaults(func=cmd_sweep_shiftinv)

    pg = sub.add_parser("graph", help="dump the induced weighted graph as JSON")
    pg.add_argument("--scheme", required=True)
    pg.add_argument("--signal", required=True)
    pg.add_argument("--seed", type=int, default=default_seed)
    pg.add_argument("--zero-tol", type=float, default=DEFAULT_ZERO_TOL, dest="zero_tol")
    pg.add_argument("--out")
    pg.set_defaults(func=cmd_graph)

    pr = sub.add_parser("report", help="re-render a saved stability report")
    pr.add_argument("--in", dest="input", required=True)
    pr.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) < 0:
            raise InputError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (InputError, LsccError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
