"""Explicit stability bounds per signal, and empirical worst-case ratios.

The stability of recovering measurements up to a global phase is controlled
by connectivity of the induced graph: for real schemes the bound is

    C2 * (1 + C_G(f)^(-1/p)),   C2^p = max{2^(p-1) C0^p, 2^(2p-2) D C1^p C0^p},

and for complex schemes with p = 2

    C3 * (1 + lambda_G(f)^(-1/2)),   C3 = max{4 C0 C1 sqrt(D), sqrt(8 C0^2 + 2)}.

Vanishing connectivity yields an infinite (never NaN) bound.  Empirical
ratios are sampled lower bounds on the true stability constant; a sampled
pair with equal phaseless measurements but misaligned measurements is a
retrieval-failure certificate and reported as an infinite ratio.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFamilyError, FieldError, UnsupportedPError
from .graphs import (
    CheegerResult,
    SpectralResult,
    WeightedGraph,
    algebraic_connectivity,
    cheeger,
)
from .measurement import COMPLEX, REAL, align_phase, p_norm
from .scheme import LsccScheme, induce_graph, is_phase_retrievable

RANDOM_GAUSSIAN = "RandomGaussian"
LOCAL_PERTURBATION = "LocalPerturbation"
SIGN_FLIPS = "SignFlips"
ADVERSARIAL = "Adversarial"

#: relative denominator cutoff below which a comparison signal is considered
#: phase-equivalent to the reference
DENOM_CUTOFF = 1e-14
#: cap on enumerated sign patterns
SIGN_FLIP_CAP = 1 << 20
#: spawn key of stability_report's comparison stream under its seed
COMPARISON_SPAWN_KEY = (1,)


def real_constant(scheme: LsccScheme) -> float:
    """Prefactor of the real-field stability bound."""
    p, c0, c1 = scheme.p, scheme.local_stability, scheme.edge_domination
    d = scheme.graph.degree_bound
    return max(2.0 ** (p - 1.0) * c0**p, 2.0 ** (2.0 * p - 2.0) * d * c1**p * c0**p) ** (1.0 / p)


def complex_constant(scheme: LsccScheme) -> float:
    """Prefactor of the complex-field stability bound (p = 2 only)."""
    if scheme.p != 2.0:
        raise UnsupportedPError("complex bound requires p = 2")
    c0, c1 = scheme.local_stability, scheme.edge_domination
    d = scheme.graph.degree_bound
    return max(4.0 * c0 * c1 * math.sqrt(d), math.sqrt(8.0 * c0**2 + 2.0))


def _cheeger_of(scheme: LsccScheme, graph: WeightedGraph) -> CheegerResult | None:
    if graph.is_empty:
        return None
    return cheeger(graph, topology=scheme.graph.topology)


def real_bound(
    scheme: LsccScheme,
    f,
    cheeger_result: CheegerResult | None = None,
    graph: WeightedGraph | None = None,
) -> float:
    """C2 * (1 + C_G(f)^(-1/p)); infinite when the induced graph disconnects.

    When only a sandwich is available its certified lower end is used, so the
    returned value remains a true upper stability bound.
    """
    if scheme.field != REAL:
        raise FieldError("real bound applies to real-field schemes")
    if cheeger_result is None:
        graph = induce_graph(scheme, f) if graph is None else graph
        cheeger_result = _cheeger_of(scheme, graph)
    c2 = real_constant(scheme)
    if cheeger_result is None:  # empty graph: no connectivity to exploit
        return math.inf
    c_low = cheeger_result.lower
    if math.isinf(c_low):  # single vertex: purely local problem
        return c2
    if c_low <= 0.0:
        return math.inf
    return c2 * (1.0 + c_low ** (-1.0 / scheme.p))


def complex_bound(
    scheme: LsccScheme,
    f,
    spectral: SpectralResult | None = None,
    graph: WeightedGraph | None = None,
) -> float:
    """C3 * (1 + lambda_G(f)^(-1/2)); infinite when the spectral gap closes."""
    if scheme.field != COMPLEX:
        raise FieldError("complex bound applies to complex-field schemes")
    if scheme.p != 2.0:
        raise UnsupportedPError("complex bound requires p = 2")
    if spectral is None:
        graph = induce_graph(scheme, f) if graph is None else graph
        if graph.is_empty:
            return math.inf
        spectral = algebraic_connectivity(graph)
    c3 = complex_constant(scheme)
    if math.isinf(spectral.lam):
        return c3
    if spectral.lam <= 0.0:
        return math.inf
    return c3 * (1.0 + spectral.lam ** (-0.5))


def stability_bound(scheme: LsccScheme, f) -> float:
    """Field-appropriate bound for a single signal."""
    if scheme.field == REAL:
        return real_bound(scheme, f)
    return complex_bound(scheme, f)


def _sign_patterns(dim: int, region_size: int, cap: int = SIGN_FLIP_CAP):
    """Sign vectors constant on contiguous regions, one per +- class."""
    regions = math.ceil(dim / region_size)
    count = min((1 << (regions - 1)) - 1, cap) if regions > 1 else 0
    for mask in range(1, count + 1):
        sigma = np.ones(dim)
        for r in range(regions):
            if (mask >> r) & 1:
                sigma[r * region_size : (r + 1) * region_size] = -1.0
        yield sigma


def _comparison_signals(
    scheme: LsccScheme,
    f: np.ndarray,
    strategy: str,
    trials: int,
    rng: np.random.Generator,
    adversarial=None,
    region_size: int = 1,
):
    if strategy == RANDOM_GAUSSIAN:
        for _ in range(trials):
            yield scheme.random_signal(rng)
    elif strategy == LOCAL_PERTURBATION:
        eps = np.logspace(-8.0, 0.0, trials)
        for e in eps:
            yield f + e * scheme.random_signal(rng)
    elif strategy == SIGN_FLIPS:
        if scheme.field != REAL:
            raise FieldError("sign-flip enumeration applies to the real field")
        for sigma in _sign_patterns(scheme.ambient_dim, region_size):
            yield sigma * f
    elif strategy == ADVERSARIAL:
        if adversarial is None:
            raise DegenerateFamilyError("no adversarial generator supplied for this scheme")
        yield from adversarial
    else:
        raise FieldError(f"unknown strategy {strategy!r}")


def empirical_worst_ratio(
    scheme: LsccScheme,
    f,
    strategy: str = RANDOM_GAUSSIAN,
    trials: int = 1000,
    rng: np.random.Generator | None = None,
    adversarial=None,
    region_size: int = 1,
) -> tuple[float, np.ndarray | None]:
    """Worst sampled ratio of aligned to phaseless measurement distance.

    Returns (ratio, witness signal).  An infinite ratio certifies a retrieval
    failure: the witness has the same phaseless measurements as f but is not
    phase-equivalent.  Raises DegenerateFamilyError when every sample was
    phase-equivalent to f.
    """
    if trials < 1:
        raise DegenerateFamilyError("trials must be >= 1")
    rng = np.random.default_rng(0) if rng is None else rng
    fv = scheme.coerce(f)
    x = scheme.measure(fv)
    scale = p_norm(x, scheme.p)
    worst = -math.inf
    witness = None
    valid = 0
    for g in _comparison_signals(scheme, fv, strategy, trials, rng, adversarial, region_size):
        y = scheme.measure(g)
        den = p_norm(np.abs(x) - np.abs(y), scheme.p)
        if den < DENOM_CUTOFF * scale:
            _, num = align_phase(x, y, scheme.field, scheme.p)
            if num > 1e-9 * max(scale, 1e-300):
                return math.inf, g  # collision certificate
            continue
        valid += 1
        _, num = align_phase(x, y, scheme.field, scheme.p)
        ratio = num / den
        if ratio > worst:
            worst = ratio
            witness = g
    if valid == 0:
        raise DegenerateFamilyError("all sampled comparisons were phase-equivalent")
    return worst, witness


@dataclass
class StabilityReport:
    scheme_name: str
    field: str
    p: float
    retrievability: str
    cheeger: CheegerResult | None
    spectral: SpectralResult | None
    real_prefactor: float
    complex_prefactor: float | None
    bound: float
    empirical_worst_ratio: float
    bound_satisfied: bool
    strategy: str
    trials: int
    seed: int | None
    scheme_hash: str
    tolerances: dict

    def to_dict(self) -> dict:
        spec = self.spectral
        che = self.cheeger
        return {
            "scheme": self.scheme_name,
            "field": self.field,
            "p": self.p,
            "retrievability": self.retrievability,
            "cheeger": None
            if che is None
            else {
                "lower": _json_float(che.lower),
                "upper": _json_float(che.upper),
                "method": che.method,
                "witness": list(che.witness),
            },
            "lambda": None if spec is None else _json_float(spec.lam),
            "C2": _json_float(self.real_prefactor),
            "C3": None if self.complex_prefactor is None else _json_float(self.complex_prefactor),
            "bound": _json_float(self.bound),
            "empiricalWorstRatio": _json_float(self.empirical_worst_ratio),
            "boundSatisfied": self.bound_satisfied,
            "provenance": {
                "schemeHash": self.scheme_hash,
                "seed": self.seed,
                "strategy": self.strategy,
                "trials": self.trials,
                "tolerances": self.tolerances,
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _json_float(x: float) -> float | str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return float(x)


def stability_report(
    scheme: LsccScheme,
    f,
    strategy: str = RANDOM_GAUSSIAN,
    trials: int = 1000,
    seed: int | None = 0,
    region_size: int = 1,
    adversarial=None,
) -> StabilityReport:
    """Full per-signal analysis: verdict, connectivity, bound, sampled ratio.

    Comparison signals come from a stream spawned off `seed`, so a signal
    drawn from `default_rng(seed)` is never compared against itself.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=COMPARISON_SPAWN_KEY))
    fv = scheme.coerce(f)
    graph = induce_graph(scheme, fv)
    verdict = is_phase_retrievable(scheme, fv)
    che = _cheeger_of(scheme, graph)
    spec = None
    if scheme.p == 2.0 and not graph.is_empty:
        spec = algebraic_connectivity(graph)
    if scheme.field == REAL:
        bound = real_bound(scheme, fv, cheeger_result=che)
        c3 = complex_constant(scheme) if scheme.p == 2.0 else None
    else:
        bound = complex_bound(scheme, fv, spectral=spec, graph=graph)
        c3 = complex_constant(scheme)
    try:
        ratio, _ = empirical_worst_ratio(
            scheme, fv, strategy, trials, rng, adversarial, region_size
        )
    except DegenerateFamilyError:
        ratio = 0.0
    satisfied = ratio <= bound * (1.0 + 1e-9) if math.isfinite(bound) else True
    return StabilityReport(
        scheme_name=scheme.name,
        field=scheme.field,
        p=scheme.p,
        retrievability=verdict,
        cheeger=che,
        spectral=spec,
        real_prefactor=real_constant(scheme),
        complex_prefactor=c3,
        bound=bound,
        empirical_worst_ratio=ratio,
        bound_satisfied=satisfied,
        strategy=strategy,
        trials=trials,
        seed=seed,
        scheme_hash=scheme.descriptor_hash(),
        tolerances={"denominatorCutoff": DENOM_CUTOFF, "boundSlack": 1e-9},
    )
