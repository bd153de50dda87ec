"""Benchmark of the lscc verification pipeline, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from anywhere; the program under test is <repo>/src/lscc.  Each run of a
workload is a fresh `python3 bench/worker.py` process, timed from spawn to
exit, guarded on resident memory and wall time, and its outputs are checked
(bench/workloads.py).  Runs repeat, one after another, while the next one is
expected to end within --seconds; at least one run is made, two with
--trace 1.

With --trace 0 the last stdout line carries the end-to-end metrics: medians
over the runs of wall time, set-up time and peak RSS, and the fraction of
runs that passed.  With --trace 1 traced and untraced runs alternate; the
metrics are per-layer self times, call counts and counters from the traced
runs (bench/tracer.py), plus the traced-minus-untraced wall time.  The traced
call counts are checked against values that repeat exactly on every seed.
The line before the last holds every run, the wall-time tail and the
environment (git sha, src hash, nproc, library versions, OpenBLAS threads,
transparent huge pages, load average).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import tracer
import workloads
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"

#: a run whose resident set passes this is killed and counted as failed; the
#: seed's largest workload peaks near 1.7 GB.  No address-space cap is set:
#: sweep-shiftinv reserves 8.6 GB of untouched dense projections and passes.
RSS_LIMIT_MB = 3072
#: runs still going this long after start are killed, keeping the whole
#: invocation under three minutes
DEADLINE_S = 160.0
POLL_S = 0.02
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Run:
    traced: bool
    wall_s: float
    cpu_s: float
    setup_s: float | None
    peak_rss_mb: float
    exit_code: int
    failure: str | None
    output_bytes: int
    trace: dict | None


def resident_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/statm") as handle:
            return int(handle.read().split()[1]) * PAGE_MB
    except (OSError, IndexError, ValueError):
        return 0.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def spawn(workload, seed: int, traced: bool, deadline: float, refs: dict) -> Run:
    """One workload process: spawn, guard, reap, check."""
    run_dir = Path(tempfile.mkdtemp(dir=RUNS_DIR))
    try:
        out = run_dir / "out"
        out.mkdir()
        stdout_path, record_path = run_dir / "stdout.txt", run_dir / "record.json"
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload.name,
               "--seed", str(seed), "--out", str(out), "--record", str(record_path)]
        if traced:
            cmd.append("--trace")
        with open(stdout_path, "wb") as stdout, open(run_dir / "stderr.txt", "wb") as stderr:
            start = now()
            proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=child_env(), cwd=ROOT)
        exited = []

        def wait_exit():
            # WNOWAIT leaves the child unreaped, so its pid stays safe to kill
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            exited.append(now())

        waiter = threading.Thread(target=wait_exit, daemon=True)
        waiter.start()
        failure = None
        try:
            while not exited:
                waiter.join(POLL_S)
                if exited or failure:
                    continue
                rss = resident_mb(proc.pid)
                if rss > RSS_LIMIT_MB:
                    failure = f"killed: resident set {rss:.0f} MB over the {RSS_LIMIT_MB} MB guard"
                elif now() > deadline:
                    failure = f"killed: still running {DEADLINE_S:.0f} s after the benchmark started"
                if failure:
                    proc.kill()
        finally:
            if not exited:  # interrupted: leave no workload process behind
                proc.kill()
            waiter.join()
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = code = os.waitstatus_to_exitcode(status)

        record = json.loads(record_path.read_text()) if record_path.exists() else {}
        setup_end = record.get("marks", {}).get("setup_end")
        trace = record.get("trace")
        stdout_text = stdout_path.read_text(errors="replace")
        if failure is None:
            failure = workload.check(code, stdout_text, out, seed, refs)
        if failure is None and traced:
            failure = trace_self_check(workload, trace)
        if failure is not None:
            err = (run_dir / "stderr.txt").read_text(errors="replace").strip()
            if err:
                failure += " | stderr: " + err.splitlines()[-1]
        return Run(
            traced=traced,
            wall_s=exited[0] - start,
            cpu_s=usage.ru_utime + usage.ru_stime,
            setup_s=None if setup_end is None else setup_end - start,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            exit_code=code,
            failure=failure,
            output_bytes=stdout_path.stat().st_size + sum(f.stat().st_size for f in out.iterdir()),
            trace=trace,
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def trace_self_check(workload, trace: dict | None) -> str | None:
    if trace is None:
        return "traced run wrote no trace"
    for span, expected in workload.expected_calls.items():
        got = trace["calls"].get(span, 0)
        if got != expected:
            return f"trace self-check: {span} called {got} times, expected {expected}"
    return None


def tail(walls: list[float]) -> dict | None:
    """Highest percentile with at least ten runs beyond it (needs 11 runs)."""
    n = len(walls)
    if n < 11:
        return None
    return {"percentile": round(100.0 * (n - 10) / n, 2), "value": sorted(walls)[n - 11]}


def median_of(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def end_to_end(runs: list[Run]) -> dict:
    plain = [r for r in runs if not r.traced]
    good = [r for r in plain if r.failure is None] or plain
    ok = sum(r.failure is None for r in runs)
    return {
        "wall_s": (median_of(r.wall_s for r in good), "s"),
        "setup_s": (median_of(r.setup_s for r in good), "s"),
        "peak_rss_mb": (median_of(r.peak_rss_mb for r in good), "MB"),
        "ok_frac": (ok / len(runs), "1"),
    }


def per_layer(runs: list[Run]) -> dict:
    traced = [r for r in runs if r.traced and r.trace]
    plain = [r for r in runs if not r.traced]

    def med(key, name):
        return median_of(r.trace[key].get(name, 0) for r in traced)

    def frac(useful, attempted):
        drawn = med("counts", attempted)
        return med("counts", useful) / drawn if drawn else 0.0

    metrics = {}
    for span in tracer.SPANS:
        metrics[f"{span}.s"] = (med("self_s", span), "s")
        metrics[f"{span}.calls"] = (med("calls", span), "count")
    metrics["scheme.dense_bytes"] = (med("counts", "scheme.dense_bytes"), "B")
    metrics["scheme.descriptor_bytes"] = (med("counts", "scheme.descriptor_bytes"), "B")
    metrics["graphs.max_vertices"] = (med("counts", "graphs.max_vertices"), "count")
    metrics["cli.output_bytes"] = (median_of(r.output_bytes for r in runs), "B")
    metrics["stability.valid_pair_frac"] = (
        frac("stability.pairs_valid", "stability.pairs_drawn"), "1")
    metrics["harness.valid_pair_frac"] = (frac("harness.pairs_valid", "harness.pairs_drawn"), "1")
    metrics["scheme.kept_vertex_frac"] = (frac("scheme.kept_vertices", "scheme.base_vertices"), "1")
    overhead = median_of(r.wall_s for r in traced) - median_of(r.wall_s for r in plain)
    metrics["trace.overhead_s"] = (overhead if traced and plain else 0.0, "s")
    return metrics


def probe() -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--probe"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lscc").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def read_text(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def measure(workload, seed: int, seconds: int, trace: bool, deadline: float, env: dict) -> bool:
    refs = workloads.load_references()
    inputs = workloads.input_seed(seed)
    begin = now()
    runs: list[Run] = []
    least = 2 if trace else 1
    while True:
        traced = trace and len(runs) % 2 == 0
        run = spawn(workload, inputs, traced, deadline, refs)
        runs.append(run)
        status = "ok" if run.failure is None else f"FAILED ({run.failure})"
        setup = "n/a" if run.setup_s is None else f"{run.setup_s:.3f} s"
        print(f"run {len(runs)} {'traced' if traced else 'untraced'}: wall {run.wall_s:.3f} s, "
              f"cpu {run.cpu_s:.3f} s, setup {setup}, peak RSS {run.peak_rss_mb:.1f} MB, {status}",
              flush=True)
        expected = median_of(r.wall_s for r in runs)
        if now() > deadline or (len(runs) >= least and now() - begin + expected > seconds):
            break

    missing = sorted({span for r in runs if r.trace for span in r.trace["missing"]})
    if missing:
        print(f"warning: not found in lscc, reported as 0: {', '.join(missing)}")
    metrics = per_layer(runs) if trace else end_to_end(runs)
    failed = sum(r.failure is not None for r in runs)
    plain_walls = [r.wall_s for r in runs if not r.traced]
    env["loadavg_end"] = list(os.getloadavg())
    detail = {
        "workload": workload.name,
        "seed": seed,
        "input_seed": inputs,
        "trace": trace,
        "wall_s": {"median": median_of(plain_walls), "tail": tail(plain_walls),
                   "runs": len(plain_walls)},
        "fail_frac": failed / len(runs),
        "runs": [{k: v for k, v in asdict(r).items() if k != "trace"} for r in runs],
        "env": env,
    }
    for name, (value, unit) in metrics.items():
        print(f"{workload.name}  {name:<48} {value:>16.6g} {unit}")
    print(f"{workload.name}  fail_frac {detail['fail_frac']:g} ({failed}/{len(runs)} runs failed)")
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)
    return failed == 0


def main() -> int:
    started = now()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "lscc" / "__init__.py").is_file():
        print(f"error: no lscc sources under {SRC}", file=sys.stderr)
        return 2
    RUNS_DIR.mkdir(exist_ok=True)
    try:
        libs = probe()
    except (OSError, subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"error: cannot import lscc from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(libs["lscc_path"]) != SRC / "lscc":
        print(f"error: lscc imports from {libs['lscc_path']}, not {SRC}", file=sys.stderr)
        return 2
    env = {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "nproc": len(os.sched_getaffinity(0)),
        **{k: libs[k] for k in ("python", "numpy", "scipy", "openblas_threads")},
        "transparent_hugepage": read_text("/sys/kernel/mm/transparent_hugepage/enabled"),
        "loadavg_start": list(os.getloadavg()),
    }
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        deadline = (started if len(names) == 1 else now()) + DEADLINE_S
        ok &= measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), deadline, dict(env))
    return 0 if ok or args.workload != "all" else 1


if __name__ == "__main__":
    sys.exit(main())
