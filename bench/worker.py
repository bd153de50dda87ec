"""Runs one workload once, in its own process, as a user would run it.

    python3 bench/worker.py --workload NAME --seed N --out DIR --record FILE [--trace]
    python3 bench/worker.py --probe

CLI workloads call `lscc.cli.main` with the workload's arguments, so stdout,
output files and exit code are the CLI's own.  `fuzz-bounds` builds test_04's
schemes and calls `lscc.harness.run_fuzz_experiment`.  The record file gets
the CLOCK_MONOTONIC time at which set-up ended and, with --trace, the tracer's
per-layer figures.  --probe imports lscc (compiling its bytecode) and prints
the library versions and OpenBLAS thread counts.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
import time
from pathlib import Path

from workloads import FUZZ_PAIRS, FUZZ_SCHEMES, WORKLOADS


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def openblas_threads() -> dict:
    """Thread count of every OpenBLAS the process has loaded, by library file."""
    found = {}
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


def probe() -> None:
    import numpy
    import scipy

    import lscc
    import lscc.cli  # noqa: F401  (compiles the CLI path's bytecode)

    print(json.dumps({
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "lscc": lscc.__version__,
        "lscc_path": str(Path(lscc.__file__).parent),
        "openblas_threads": openblas_threads(),
    }))


def fuzz_schemes(lscc) -> list:
    schemes = []
    for spec in FUZZ_SCHEMES:
        if spec[0] == "toy":
            schemes.append(lscc.toy.toy_scheme())
        elif spec[0] == "windowed":
            _, a, L, field = spec
            cfg = lscc.windowed.WindowedConfig(a=a, L=L, field=field, seed=7)
            schemes.append(lscc.windowed.build_windowed_scheme(cfg))
        else:
            _, n, radius = spec
            gen = lscc.shiftinv.GeneratorModel(N=n)
            schemes.append(lscc.shiftinv.build_shiftinv_scheme(gen, radius))
    return schemes


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--record", type=Path)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.probe:
        probe()
        return 0

    import lscc
    import lscc.cli

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install()
    marks = {}
    if workload.setup_end == "import":
        marks["setup_end"] = now()

    argv = workload.cli_argv(args.seed, args.out)
    if argv is not None:
        if workload.setup_end == "scheme":
            resolve = lscc.cli.resolve_scheme

            def resolve_and_mark(*a, **k):
                scheme = resolve(*a, **k)
                marks["setup_end"] = now()
                return scheme

            lscc.cli.resolve_scheme = resolve_and_mark
        code = lscc.cli.main(argv)
    else:
        schemes = fuzz_schemes(lscc)
        marks["setup_end"] = now()
        spec = lscc.harness.ExperimentSpec(
            kind="fuzz-bounds",
            scheme="test_04",
            trials=FUZZ_PAIRS,
            seed=args.seed,
            output=str(args.out / "fuzz.csv"),
        )
        code = lscc.harness.run_fuzz_experiment(spec, schemes)
    sys.stdout.flush()
    record = {"marks": marks, "trace": tracer.record() if tracer else None}
    args.record.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
