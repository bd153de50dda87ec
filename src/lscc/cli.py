"""Command-line interface: analyze, validate, sweep, graph, report.

Scheme sources are the builtins of `SOURCES` ("toy", "windowed:a=2,L=8",
"shiftinv:N=2,R=8"), named exactly before any ":", or else a path to a scheme
JSON file.  Signals are the families "ones" and "random[:seed]", named exactly,
"@file.json", or inline comma-separated values.  Every --out is written with
a manifest of the run's full configuration next to it; all randomness derives
from --seed (or LSCC_SEED), so reruns are byte-identical.

Exit codes: 0 success, 1 input error, 2 a verified inequality failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import LsccError
from .graphs import graph_to_dict
from .harness import format_cell, write_csv, write_manifest
from .measurement import BOUND_SLACK, COMPLEX, REAL
from .scheme import DEFAULT_ZERO_TOL, LsccScheme, induce_graph, scheme_from_json, validate_scheme
from .shiftinv import EXPONENTIAL, POLYNOMIAL, DecayProfile, GeneratorModel
from .shiftinv import build_shiftinv_scheme, decay_cheeger_study
from .stability import RANDOM_GAUSSIAN, SIGN_FLIPS, stability_report
from .toy import toy_scheme
from .windowed import WindowedConfig, build_windowed_scheme, fit_loglog_slope, scaling_sweep

SWEEP_CSV_HEADER = [
    "L", "d", "bound", "empirical_ratio", "adversarial_ratio", "cheeger", "lambda", "C2_or_C3"
]
DECAY_CSV_HEADER = ["R", "cheeger", "reference_bound", "pass"]


class InputError(Exception):
    pass


def _seed(text: str) -> int:
    """A seed: a non-negative integer."""
    seed = int(text)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return seed


#: builtin scheme sources: name -> ({key: (type, default)}, builder of those
#: keys).  A default of None is --seed.
SOURCES = {
    "toy": ({}, toy_scheme),
    "windowed": (
        {"a": (int, 2), "L": (int, 8), "field": (str, REAL), "seed": (_seed, None)},
        lambda **keys: build_windowed_scheme(WindowedConfig(**keys)),
    ),
    "shiftinv": (
        {"N": (int, 2), "R": (int, 8), "p": (float, 2.0)},
        lambda N, R, p: build_shiftinv_scheme(GeneratorModel(N=N, p=p), R),
    ),
}


def _env_seed() -> int:
    """The default seed: LSCC_SEED if set, which must be a non-negative integer."""
    text = os.environ.get("LSCC_SEED", "0")
    try:
        return _seed(text)
    except ValueError:
        raise InputError(f"LSCC_SEED must be a non-negative integer, got {text!r}") from None


def _source_keys(name: str, spec: str, seed: int) -> dict:
    """The keys of a builtin source's "key=value,..." spec, parsed as their
    declared types, with every key not given at its default."""
    declared = SOURCES[name][0]
    accepts = f"{name} accepts {', '.join(declared) or 'no keys'}"
    given = {}
    for part in spec.split(",") if spec else ():
        key, eq, text = part.partition("=")
        if not eq:
            raise InputError(f"malformed option {part!r} (expected key=value); {accepts}")
        if key not in declared or key in given:
            fault = "repeated" if key in given else "unknown"
            raise InputError(f"{fault} key {key!r} in {name!r}; {accepts}")
        try:
            given[key] = declared[key][0](text)
        except ValueError as exc:
            raise InputError(f"bad {name} key {key}={text!r}: {exc}") from None
    defaults = {key: seed if value is None else value for key, (_, value) in declared.items()}
    return {**defaults, **given}


def resolve_scheme(source: str, seed: int) -> LsccScheme:
    """A builtin source when the text before ":" is exactly a `SOURCES` name,
    else the scheme JSON file at that path."""
    name, _, spec = source.partition(":")
    if name in SOURCES:
        return SOURCES[name][1](**_source_keys(name, spec, seed))
    if not os.path.exists(source):
        builtins = ", ".join(SOURCES)
        raise InputError(f"scheme source {source!r} is neither a builtin ({builtins}) nor a file")
    try:
        with open(source, "r", encoding="utf-8") as handle:
            return scheme_from_json(handle.read())
    except (OSError, json.JSONDecodeError, LsccError, KeyError) as exc:
        raise InputError(f"cannot load scheme {source!r}: {exc}") from exc


def resolve_signal(spec: str, scheme: LsccScheme, seed: int) -> np.ndarray:
    """The family "ones" or "random[:seed]", named exactly, else "@file.json",
    else inline comma-separated values."""
    name, _, arg = spec.partition(":")
    if spec == "ones":
        dtype = np.complex128 if scheme.field == COMPLEX else np.float64
        return np.ones(scheme.ambient_dim, dtype=dtype)
    if name == "random":
        try:
            rng = np.random.default_rng(_seed(arg) if arg else seed)
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


def _write_out(path: str, write, manifest: dict) -> None:
    """Every --out: `write(path)`, then `<path>.manifest.json`, the manifest
    with the artefact's sha256.  A path that cannot be written is an input error."""
    try:
        write(path)
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        write_manifest(path + ".manifest.json", {**manifest, "outputs": {path: digest}})
    except OSError as exc:
        raise InputError(f"cannot write {path!r}: {exc}") from exc


def _text_writer(text: str):
    return lambda path: Path(path).write_text(text + "\n", encoding="utf-8", newline="\n")


def cmd_analyze(args) -> int:
    scheme = resolve_scheme(args.scheme, args.seed)
    signal = resolve_signal(args.signal, scheme, args.seed)
    strategy = SIGN_FLIPS if args.strategy == "signflips" else RANDOM_GAUSSIAN
    report = stability_report(
        scheme, signal, strategy=strategy, trials=args.trials, seed=args.seed
    )
    text = report.to_json()
    if args.out:
        manifest = {"command": "analyze", "scheme": args.scheme, "signal": args.signal,
                    "seed": args.seed, "trials": args.trials, "strategy": args.strategy}
        _write_out(args.out, _text_writer(text), manifest)
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
        raise InputError("empty L range")
    rows = scaling_sweep(args.a, l_values, args.field, trials=args.trials, seed=args.seed)
    failure = None
    if args.field == COMPLEX:
        for row in rows:
            if row["bound"] < row["adversarial_ratio"] * (1.0 - BOUND_SLACK):
                failure = {"L": row["L"], "reason": "bound below adversarial ratio"}
                break
    out_rows = rows
    if failure is not None:
        marker = {h: "" for h in SWEEP_CSV_HEADER}
        marker["L"] = f"FAILED:{failure['reason']}"
        out_rows = [*rows, marker]
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
    }
    if args.field == COMPLEX:
        manifest["adversarial_slope"] = _json_slope(
            fit_loglog_slope([r["L"] for r in rows], [r["adversarial_ratio"] for r in rows])
        )
    _write_out(args.out, lambda path: write_csv(path, SWEEP_CSV_HEADER, out_rows), manifest)
    if math.isnan(slope):
        print(f"wrote {args.out}: bound slope vs L is undefined for one L value")
    else:
        print(f"wrote {args.out}: bound slope vs L = {slope:.4f}")
    return 2 if failure else 0


def cmd_sweep_shiftinv(args) -> int:
    r_values = [r for r in _doubling(args.Rmin, args.Rmax, "--Rmin") if r >= args.N]
    if not r_values:
        raise InputError("empty R range")
    kind = EXPONENTIAL if args.kind == "exp" else POLYNOMIAL
    gen = GeneratorModel(N=args.N, p=args.p)
    rows = decay_cheeger_study(gen, DecayProfile(kind, args.beta), r_values)
    all_ok = all(row["pass"] for row in rows)
    _write_out(
        args.out,
        lambda path: write_csv(path, DECAY_CSV_HEADER, rows),
        {
            "command": "sweep shiftinv",
            "kind": args.kind,
            "beta": args.beta,
            "N": args.N,
            "p": args.p,
            "R_values": r_values,
            "all_pass": all_ok,
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
        manifest = {"command": "graph", "scheme": args.scheme, "signal": args.signal,
                    "seed": args.seed, "zero_tol": args.zero_tol}
        _write_out(args.out, _text_writer(text), manifest)
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
