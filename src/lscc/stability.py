"""Explicit stability bounds per signal, and empirical worst-case ratios.

The stability of recovering measurements up to a global phase is controlled
by connectivity of the induced graph: for real schemes the bound is

    C2 * (1 + C_G(f)^(-1/p)),   C2^p = max{2^(p-1) C0^p, 2^(2p-2) D C1^p C0^p},

and for complex schemes with p = 2

    C3 * (1 + lambda_G(f)^(-1/2)),   C3 = max{4 C0 C1 sqrt(D), sqrt(8 C0^2 + 2)}.

`bound` evaluates both from an induced graph, and it and `prefactor` are the
only functions that pick a connectivity or a prefactor by field.
Vanishing connectivity yields an infinite (never NaN) bound.  Empirical
ratios are sampled lower bounds on the true stability constant.  Each sampled
pair goes through `measurement.pair_ratios`, the one place that decides when
a pair is phase-equivalent (skipped, its ratio is 0/0) and when it is a
collision: equal phaseless measurements but misaligned measurements, a
retrieval-failure certificate reported as an infinite ratio.
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
from .measurement import BOUND_SLACK, DENOM_CUTOFF, REAL, pair_ratios
from .scheme import LsccScheme, induce_graph, is_phase_retrievable

RANDOM_GAUSSIAN = "RandomGaussian"
SIGN_FLIPS = "SignFlips"

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


def prefactor(scheme: LsccScheme) -> float:
    """The bound's scheme prefactor: C2 for real schemes, C3 for complex ones."""
    return real_constant(scheme) if scheme.field == REAL else complex_constant(scheme)


def bound(
    scheme: LsccScheme,
    graph: WeightedGraph,
    cheeger_result: CheegerResult | None = None,
    spectral: SpectralResult | None = None,
) -> float:
    """prefactor * (1 + connectivity^(-1/q)) for a signal's induced graph.

    The connectivity is the certified lower end of the Cheeger constant with
    q = p for real schemes (a sandwich still gives a true upper bound), and
    lambda with q = 2 for complex ones; either is computed from `graph`
    unless given.  Infinite on an empty graph or at zero connectivity, the
    prefactor alone on a single vertex.
    """
    c = prefactor(scheme)
    if graph.is_empty:
        return math.inf
    if scheme.field == REAL:
        conn, q = (cheeger(graph) if cheeger_result is None else cheeger_result).lower, scheme.p
    else:
        conn, q = (algebraic_connectivity(graph) if spectral is None else spectral).lam, 2.0
    if math.isinf(conn):
        return c
    if conn <= 0.0:
        return math.inf
    return c * (1.0 + conn ** (-1.0 / q))


def signal_bound(scheme: LsccScheme, f) -> float:
    """`bound` of the graph f induces."""
    return bound(scheme, induce_graph(scheme, f))


def complex_bound(scheme: LsccScheme, f, spectral=None, graph=None) -> float:
    """`bound` of f's induced graph, under the name bench/make_reference.py imports."""
    return bound(scheme, induce_graph(scheme, f) if graph is None else graph, spectral=spectral)


def _sign_patterns(dim: int, cap: int = SIGN_FLIP_CAP):
    """Sign vectors with a +1 first entry, one per +- class: bit r of the
    mask flips entry r (a mask below 2^62 has no bit beyond 62)."""
    count = min((1 << (dim - 1)) - 1, cap) if dim > 1 else 0
    shifts = np.minimum(np.arange(dim), 62)
    for mask in range(1, count + 1):
        yield np.where((mask >> shifts) & 1, -1.0, 1.0)


def _comparison_signals(scheme: LsccScheme, f: np.ndarray, strategy: str, trials: int, rng):
    if strategy == RANDOM_GAUSSIAN:
        for _ in range(trials):
            yield scheme.random_signal(rng)
    elif strategy == SIGN_FLIPS:
        if scheme.field != REAL:
            raise FieldError("sign-flip enumeration applies to the real field")
        for sigma in _sign_patterns(scheme.ambient_dim):
            yield sigma * f
    else:
        raise FieldError(f"unknown strategy {strategy!r}")


def empirical_worst_ratio(
    scheme: LsccScheme,
    f,
    strategy: str = RANDOM_GAUSSIAN,
    trials: int = 1000,
    rng: np.random.Generator | None = None,
) -> tuple[float, np.ndarray | None]:
    """Worst sampled ratio of aligned to phaseless measurement distance.

    Returns (ratio, witness signal).  An infinite ratio certifies a retrieval
    failure: the witness has the same phaseless measurements as f but is not
    phase-equivalent (a collision under `pair_ratios`).  Raises
    DegenerateFamilyError when every sample was phase-equivalent to f.
    """
    if trials < 1:
        raise DegenerateFamilyError("trials must be >= 1")
    rng = np.random.default_rng(0) if rng is None else rng
    fv = scheme.coerce(f)
    x = scheme.measure(fv)
    worst = -math.inf
    witness = None
    valid = 0
    for g in _comparison_signals(scheme, fv, strategy, trials, rng):
        num, den, equivalent, collision = pair_ratios(x, scheme.measure(g), scheme.field, scheme.p)
        if collision:
            return math.inf, g  # collision certificate
        if equivalent:
            continue
        valid += 1
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
) -> StabilityReport:
    """Full per-signal analysis: verdict, connectivity, bound, sampled ratio.

    Comparison signals come from a stream spawned off `seed`, so a signal
    drawn from `default_rng(seed)` is never compared against itself.
    """
    if trials < 1:
        raise DegenerateFamilyError("trials must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=COMPARISON_SPAWN_KEY))
    fv = scheme.coerce(f)
    graph = induce_graph(scheme, fv)
    verdict = is_phase_retrievable(scheme, fv)
    che = spec = None
    if not graph.is_empty:
        che = cheeger(graph)
        spec = algebraic_connectivity(graph) if scheme.p == 2.0 else None
    upper = bound(scheme, graph, che, spec)
    try:
        ratio, _ = empirical_worst_ratio(scheme, fv, strategy, trials, rng)
    except DegenerateFamilyError:
        ratio = 0.0
    satisfied = ratio <= upper * (1.0 + BOUND_SLACK) if math.isfinite(upper) else True
    return StabilityReport(
        scheme_name=scheme.name,
        field=scheme.field,
        p=scheme.p,
        retrievability=verdict,
        cheeger=che,
        spectral=spec,
        real_prefactor=real_constant(scheme),
        complex_prefactor=complex_constant(scheme) if scheme.p == 2.0 else None,
        bound=upper,
        empirical_worst_ratio=ratio,
        bound_satisfied=satisfied,
        strategy=strategy,
        trials=trials,
        seed=seed,
        scheme_hash=scheme.descriptor_hash(),
        tolerances={"denominatorCutoff": DENOM_CUTOFF, "boundSlack": BOUND_SLACK},
    )
