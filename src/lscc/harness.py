"""Randomized verification harnesses and reproducible experiment plumbing.

Everything here is an executable check of an inequality the library's bounds
are built on: bound domination over random signal pairs, the per-edge phase
mismatch bound, the unimodular-versus-linear alignment inequality, and the
noise-amplification chain for reconstruction from corrupted moduli.  All
sampling is derived from explicit seeds; identical specs produce identical
CSV bytes.
"""

from __future__ import annotations

import csv
import json
import math
import zlib
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DegenerateFamilyError, SchemeError
from .measurement import COMPLEX, align_phase, align_phase_batch, gaussian, p_norm, pair_ratios
from .scheme import LsccScheme
from .stability import signal_bound

BOUND_SLACK = 1e-9
#: measurement entries per fuzz_bounds column chunk: keeps pair_ratios' temporaries in cache
_CHUNK = 1 << 14


def derive_rng(seed: int, *keys) -> np.random.Generator:
    """Deterministic per-task stream: seed plus hashed subtask keys."""
    spawn = tuple(
        zlib.crc32(k.encode()) if isinstance(k, str) else int(k) & 0xFFFFFFFF for k in keys
    )
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=spawn))


def fuzz_bounds(
    schemes: list[LsccScheme],
    pairs_per_scheme: int = 10_000,
    seed: int = 0,
    refs_per_scheme: int | None = None,
) -> dict:
    """Assert bound domination on random signal pairs for every scheme.

    Pairs are organized as reference signals x comparison batches (scored in
    column chunks of _CHUNK measurements) so the per-reference bound is
    computed once.  Reports the max observed ratio/bound quotient per scheme;
    quotients must stay <= 1 up to slack, else the offending pair is serialized.
    `pairs` counts the pairs that are not phase-equivalent under
    `pair_ratios`; a collision is a violation unless the bound is infinite.
    """
    if pairs_per_scheme < 1:
        raise DegenerateFamilyError("pairs_per_scheme must be >= 1")
    if refs_per_scheme is None:
        refs_per_scheme = max(1, min(200, pairs_per_scheme // 500))
    elif refs_per_scheme < 1:
        raise DegenerateFamilyError("refs_per_scheme must be >= 1")
    per_ref = math.ceil(pairs_per_scheme / refs_per_scheme)
    report = {"pairs_per_scheme": pairs_per_scheme, "schemes": [], "passed": True}
    for scheme in schemes:
        rng = derive_rng(seed, "fuzz", scheme.name)
        max_quotient = 0.0
        violations = []
        pairs = 0
        for _ in range(refs_per_scheme):
            f = scheme.random_signal(rng)
            bound = signal_bound(scheme, f)
            comparisons = scheme.random_signal(rng, per_ref)
            x = scheme.measure(f)
            width = max(1, _CHUNK // x.size)
            cols = np.split(comparisons, range(width, per_ref, width), axis=1)
            chunks = [pair_ratios(x, scheme.measure_batch(c), scheme.field, scheme.p) for c in cols]
            num, den, equivalent, collision = (np.concatenate(parts) for parts in zip(*chunks))
            good = ~equivalent
            pairs += int(np.sum(good))
            if math.isinf(bound):
                # collisions are consistent with an infinite bound
                continue
            ratios = num[good] / den[good]
            if ratios.size:
                q = float(np.max(ratios)) / bound
                if q > max_quotient:
                    max_quotient = q
                    if q > 1.0 + BOUND_SLACK:
                        j = int(np.flatnonzero(good)[int(np.argmax(ratios))])
                        violations.append(
                            {
                                "f": _serialize_signal(f),
                                "g": _serialize_signal(comparisons[:, j]),
                                "ratio": float(np.max(ratios)),
                                "bound": bound,
                            }
                        )
            if np.any(collision):
                j = int(np.flatnonzero(collision)[0])
                violations.append(
                    {
                        "f": _serialize_signal(f),
                        "g": _serialize_signal(comparisons[:, j]),
                        "ratio": "inf",
                        "bound": bound,
                    }
                )
        entry = {
            "scheme": scheme.name,
            "pairs": pairs,
            "max_quotient": max_quotient,
            "violations": violations,
        }
        report["schemes"].append(entry)
        if violations or max_quotient > 1.0 + BOUND_SLACK:
            report["passed"] = False
    return report


def _serialize_signal(v: np.ndarray) -> list:
    if np.iscomplexobj(v):
        return [[float(z.real), float(z.imag)] for z in v]
    return [float(x) for x in v]


def check_edge_mismatch_batch(
    scheme: LsccScheme, fs: np.ndarray, gs: np.ndarray, tol: float = BOUND_SLACK
) -> tuple[int, int]:
    """Per-edge phase mismatch bound over the columns of (fs, gs).

    With xi_v the p-optimal phase aligning g to f on vertex v
    (`align_phase_batch`), every edge with w_uv = ||Psi_uv f||_p^p > 0 (a
    superset of f's induced edges) must satisfy |xi_u - xi_v|^p w_uv <=
    2^(p-1) C0^p C1^p (gap_u + gap_v), gap_v = || |Phi_v f| - |Phi_v g| ||_p^p.
    Returns (instances checked, violations).
    """
    p = scheme.p
    op = scheme.vertex_operator
    x, y = op @ fs, op @ gs
    bounds = zip(op.offsets[:-1], op.offsets[1:])
    xi = np.array([align_phase_batch(x[lo:hi], y[lo:hi], scheme.field, p)[0] for lo, hi in bounds])
    gap = np.add.reduceat(np.abs(np.abs(x) - np.abs(y)) ** p, op.offsets[:-1], axis=0)
    us, vs = scheme.graph.u, scheme.graph.v
    c = 2.0 ** (p - 1.0) * scheme.local_stability**p * scheme.edge_domination**p
    w_uv = scheme.edge_operator.power_sums(fs, p)
    lhs = np.abs(xi[us] - xi[vs]) ** p * w_uv
    rhs = c * (gap[us] + gap[vs])
    mask = w_uv > 0.0
    checked = int(np.sum(mask))
    bad = int(np.sum(mask & (lhs > rhs + tol * (rhs + 2.0**p * w_uv))))
    return checked, bad


def inequality_suite(seed: int = 0, trials: int = 100_000, length: int = 16) -> dict:
    """Standalone property checks of the two alignment inequalities.

    Part one: min over unimodular scalings is at most sqrt(2) times the best
    linear scaling plus the modulus gap, on random complex pairs (plus the
    degenerate y = 0 and x = y cases).  Part two: the per-edge mismatch bound
    on random pairs against the chain fixture.
    """
    from .toy import toy_scheme

    rng = derive_rng(seed, "alignment-suite")
    x = gaussian(rng, (length, trials), COMPLEX)
    y = gaussian(rng, (length, trials), COMPLEX)
    y[:, 0] = 0.0  # stated degenerate case
    y[:, 1] = x[:, 1]
    lhs, modgap, _, _ = pair_ratios(x, y, COMPLEX)
    inner = np.sum(np.conj(y) * x, axis=0)
    ynorm2 = np.sum(np.abs(y) ** 2, axis=0)
    xnorm2 = np.sum(np.abs(x) ** 2, axis=0)
    proj = np.where(ynorm2 > 0.0, np.abs(inner) ** 2 / np.where(ynorm2 > 0.0, ynorm2, 1.0), 0.0)
    linear = np.sqrt(np.maximum(xnorm2 - proj, 0.0))
    scale = np.sqrt(xnorm2) + np.sqrt(ynorm2)
    align_bad = int(np.sum(lhs > math.sqrt(2.0) * linear + modgap + BOUND_SLACK * (scale + 1.0)))

    scheme = toy_scheme()
    rng2 = derive_rng(seed, "edge-suite")
    # enough pairs that edge instances (2 per pair) reach the requested count
    n_pairs = max(trials // 2, 1)
    fs = rng2.standard_normal((scheme.ambient_dim, n_pairs))
    gs = rng2.standard_normal((scheme.ambient_dim, n_pairs))
    checked, edge_bad = check_edge_mismatch_batch(scheme, fs, gs)
    return {
        "alignment_trials": trials,
        "alignment_violations": align_bad,
        "edge_instances": checked,
        "edge_violations": edge_bad,
        "passed": align_bad == 0 and edge_bad == 0,
    }


def noisy_recovery_gap(
    scheme: LsccScheme,
    f,
    eta_norm: float,
    trials: int = 8,
    seed: int = 0,
    starts: int = 32,
    maxiter: int = 2000,
) -> list[dict]:
    """Reconstruction from nonnegative noisy moduli against the 2*C(f)*||eta|| chain.

    Noise of prescribed p-norm is added to the moduli and clipped at zero
    (clipping only shrinks it).  A multi-start derivative-free descent over
    coefficients approximates the modulus-fit minimizer; because the true
    signal is one start, the found objective never exceeds the noise level,
    which is what the inequality chain needs.  The solver is a heuristic:
    gaps are upper bounds on solver quality, not on the bound itself.
    """
    from scipy.optimize import minimize

    if eta_norm < 0.0:
        raise SchemeError("eta_norm must be nonnegative")
    rng = derive_rng(seed, "noise", scheme.name)
    fv = scheme.coerce(f)
    x = scheme.measure(fv)
    moduli = np.abs(x)
    bound = signal_bound(scheme, fv)
    p = scheme.p
    complex_field = scheme.field == COMPLEX
    dim = scheme.ambient_dim

    def pack(vec: np.ndarray) -> np.ndarray:
        if complex_field:
            return np.concatenate([vec.real, vec.imag])
        return np.asarray(vec, dtype=np.float64)

    def unpack(params: np.ndarray) -> np.ndarray:
        if complex_field:
            return params[:dim] + 1j * params[dim:]
        return params

    rows = []
    for trial in range(trials):
        direction = rng.standard_normal(moduli.size)
        nrm = p_norm(direction, p)
        eta = direction / nrm * eta_norm if eta_norm > 0.0 and nrm > 0.0 else np.zeros_like(moduli)
        z = np.maximum(moduli + eta, 0.0)
        effective = p_norm(z - moduli, p)

        def objective(params: np.ndarray) -> float:
            g = unpack(params)
            return p_norm(np.abs(scheme.vertex_operator @ g) - z, p)

        best_params = pack(fv)
        best_obj = objective(best_params)
        if eta_norm > 0.0:
            for s in range(starts - 1):
                if s < (starts - 1) // 2:
                    start = pack(fv) + 0.1 * rng.standard_normal(best_params.size)
                else:
                    start = rng.standard_normal(best_params.size)
                res = minimize(
                    objective,
                    start,
                    method="Nelder-Mead",
                    options={"maxiter": maxiter, "xatol": 1e-10, "fatol": 1e-12},
                )
                if res.fun < best_obj:
                    best_obj = float(res.fun)
                    best_params = res.x
        g_hat = unpack(best_params)
        _, gap = align_phase(x, scheme.measure(g_hat), scheme.field, p)
        limit = 2.0 * bound * eta_norm
        ok = True if math.isinf(limit) else gap <= limit + BOUND_SLACK * (limit + 1.0)
        rows.append(
            {
                "trial": trial,
                "eta_norm": eta_norm,
                "effective_noise": effective,
                "objective": best_obj,
                "gap": gap,
                "limit": limit,
                "ok": ok,
            }
        )
    return rows


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully seeded description of one harness run; reruns are byte-identical."""

    kind: str
    scheme: str
    parameters: dict = dc_field(default_factory=dict)
    trials: int = 1000
    seed: int = 0
    output: str | None = None

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "scheme": self.scheme,
            "parameters": self.parameters,
            "trials": self.trials,
            "seed": self.seed,
            "output": self.output,
        }


def format_cell(value) -> str:
    """Stable CSV cell formatting: shortest round-trip floats, inf/nan spelled out."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    return str(value)


def write_csv(path: str, header: list[str], rows: list[dict]) -> None:
    """RFC 4180 CSV; only cells holding a comma, quote or newline are quoted."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([format_cell(row[h]) for h in header] for row in rows)


def write_manifest(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run_fuzz_experiment(spec: ExperimentSpec, schemes: list[LsccScheme]) -> int:
    """Bound-domination fuzz across schemes, CSV + manifest, CI exit code.

    Returns 0 when every quotient stays within slack, 2 otherwise; violating
    pairs are serialized into the manifest.
    """
    out = fuzz_bounds(schemes, pairs_per_scheme=spec.trials, seed=spec.seed)
    rows = [
        {
            "scheme": entry["scheme"],
            "pairs": entry["pairs"],
            "max_quotient": entry["max_quotient"],
            "violations": len(entry["violations"]),
        }
        for entry in out["schemes"]
    ]
    if spec.output:
        write_csv(spec.output, ["scheme", "pairs", "max_quotient", "violations"], rows)
        write_manifest(
            spec.output + ".manifest.json",
            {
                "spec": spec.to_dict(),
                "passed": out["passed"],
                "violations": [v for e in out["schemes"] for v in e["violations"]],
            },
        )
    return 0 if out["passed"] else 2


def run_noise_experiment(spec: ExperimentSpec, scheme: LsccScheme, signal) -> int:
    """Noisy-recovery chain check for one signal, CSV + manifest, exit code."""
    eta = float(spec.parameters.get("eta_norm", 0.1))
    rows = noisy_recovery_gap(scheme, signal, eta, trials=spec.trials, seed=spec.seed)
    ok = all(row["ok"] for row in rows)
    if spec.output:
        header = ["trial", "eta_norm", "effective_noise", "objective", "gap", "limit", "ok"]
        write_csv(spec.output, header, rows)
        write_manifest(
            spec.output + ".manifest.json", {"spec": spec.to_dict(), "passed": ok}
        )
    return 0 if ok else 2
