"""The four benchmark workloads: how each runs and how its output is checked.

Everything here is stdlib-only so that the parent process (bench/run.py)
never imports numpy or lscc; only bench/worker.py, in the child, does.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

#: --seed values map to input seeds 0..INPUT_SEEDS-1, the range reference.json covers
INPUT_SEEDS = 1000
REL_TOL = 1e-9
VALIDATORS = ("local-phase-retrieval", "edge-domination", "exhaustion")

#: test_04's schemes: toy; windowed a in {1,2}, L in {4,8,16}, real and complex,
#: frame seed 7; shiftinv N in {2,3}, R in {8,16}
FUZZ_SCHEMES = (
    [("toy",)]
    + [("windowed", a, L, f) for a in (1, 2) for L in (4, 8, 16) for f in ("real", "complex")]
    + [("shiftinv", n, r) for n in (2, 3) for r in (8, 16)]
)
FUZZ_PAIRS = 100_000

REFERENCE = Path(__file__).with_name("reference.json")


def _close(value, expected) -> bool:
    return math.isclose(float(value), expected, rel_tol=REL_TOL, abs_tol=0.0)


def _check_analyze(_stdout: str, out: Path, seed: int, refs: dict) -> str | None:
    report = json.loads((out / "report.json").read_text())
    if report["boundSatisfied"] is not True:
        return "boundSatisfied is false"
    if report["retrievability"] != "RetrievableByConnectivity":
        return f"verdict {report['retrievability']}"
    bound, lam = refs["analyze-windowed"][str(seed)]
    if not _close(report["bound"], bound):
        return f"bound {report['bound']!r} != reference {bound!r}"
    if not _close(report["lambda"], lam):
        return f"lambda {report['lambda']!r} != reference {lam!r}"
    return None


def _check_sweep(_stdout: str, out: Path, _seed: int, refs: dict) -> str | None:
    with open(out / "decay.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    expected = refs["sweep-shiftinv"]
    if [row["R"] for row in rows] != list(expected):
        return f"rows for R = {[row['R'] for row in rows]}, expected {list(expected)}"
    for row in rows:
        if row["pass"] != "true":
            return f"row R={row['R']} does not pass"
        if not _close(row["cheeger"], expected[row["R"]]):
            return f"cheeger at R={row['R']} is {row['cheeger']}, reference {expected[row['R']]!r}"
    return None


def _check_fuzz(_stdout: str, out: Path, _seed: int, _refs: dict) -> str | None:
    manifest = json.loads((out / "fuzz.csv.manifest.json").read_text())
    if manifest["passed"] is not True:
        return "fuzz manifest reports failure"
    if manifest["violations"]:
        return f"{len(manifest['violations'])} violations"
    # harness.write_csv does not quote cells, and scheme names hold commas
    # ("windowed(a=1,L=4,real)"), so split the three numeric cells off the right
    lines = (out / "fuzz.csv").read_text().splitlines()
    if lines[0] != "scheme,pairs,max_quotient,violations":
        return f"unexpected CSV header {lines[0]!r}"
    rows = [line.rsplit(",", 3) for line in lines[1:]]
    if len(rows) != len(FUZZ_SCHEMES):
        return f"{len(rows)} schemes fuzzed, expected {len(FUZZ_SCHEMES)}"
    for scheme, pairs, _quotient, violations in rows:
        if int(pairs) < FUZZ_PAIRS:
            return f"{scheme}: only {pairs} pairs"
        if int(violations) != 0:
            return f"{scheme}: {violations} violations"
    return None


def _check_validate(stdout: str, _out: Path, _seed: int, _refs: dict) -> str | None:
    status = {}
    for line in stdout.splitlines():
        check, _, rest = line.partition(": ")
        status[check] = rest.split(" ", 1)[0]
    for check in VALIDATORS:
        if status.get(check) != "pass":
            return f"validator {check}: {status.get(check, 'missing')}"
    return None


@dataclass(frozen=True)
class Workload:
    name: str
    #: where set-up ends: "scheme" when cli.resolve_scheme returns, "import"
    #: right after import, "schemes" once the fuzz schemes are built
    setup_end: str
    #: `lscc` CLI arguments, formatted with the input seed and the output
    #: directory; None runs the fuzz harness API instead
    argv: tuple[str, ...] | None
    #: output check: (stdout, output dir, input seed, references) -> reason or None
    check_output: Callable[[str, Path, int, dict], str | None]
    #: traced call counts that repeat exactly on every seed
    expected_calls: dict = field(default_factory=dict)

    def cli_argv(self, seed: int, out: Path) -> list[str] | None:
        if self.argv is None:
            return None
        return [arg.format(seed=seed, out=out) for arg in self.argv]

    def check(self, exit_code: int, stdout: str, out: Path, seed: int, refs: dict) -> str | None:
        """Reason the run's output is wrong, or None when it is correct."""
        if exit_code != 0:
            return f"exit code {exit_code}"
        try:
            return self.check_output(stdout, out, seed, refs)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analyze-windowed",
            "scheme",
            ("analyze", "--scheme", "windowed:a=2,L=64,field=complex", "--signal", "random",
             "--seed", "{seed}", "--trials", "1000", "--out", "{out}/report.json"),
            _check_analyze,
            {
                "scheme.induce_graph": 2,
                "scheme.measure": 1001,
                "measurement.align_phase": 1000,
                "scheme.descriptor_hash": 1,
                "certify.estimate_local_stability": 1,
            },
        ),
        Workload(
            "sweep-shiftinv",
            "import",
            ("sweep", "shiftinv", "--kind", "poly", "--beta", "2.0", "--N", "2",
             "--Rmin", "8", "--Rmax", "512", "--out", "{out}/decay.csv"),
            _check_sweep,
            {
                "shiftinv.build_shiftinv_scheme": 7,
                "scheme.induce_graph": 7,
                "graphs.cheeger_interval": 7,
            },
        ),
        Workload("fuzz-bounds", "schemes", None, _check_fuzz, {"harness.signal_bound": 3400}),
        # R=64, not 128: at R=128 a run takes 5-7 s, only 4-5 fit in 30 s, and
        # the median's spread over seeds reached 0.25 on a 2-vCPU host
        Workload(
            "validate-shiftinv",
            "scheme",
            ("validate", "--scheme", "shiftinv:N=2,R=64", "--trials", "100", "--seed", "{seed}"),
            _check_validate,
            {
                "scheme.validate_local_phase_retrieval": 1,
                "scheme.validate_edge_domination": 1,
                "scheme.validate_exhaustion": 1,
                "measurement.align_phase": 13416,
            },
        ),
    )
}


def input_seed(seed: int) -> int:
    return seed % INPUT_SEEDS


def load_references() -> dict:
    return json.loads(REFERENCE.read_text())
