"""Cyclic scheme of overlapping local measurements on d = a*L coordinates.

One local frame on 2a coordinates slides along the L-cycle with stride a
(`scheme.sliding_scheme`): neighbouring windows share a coordinates, glued by
point evaluations there.  Connectivity constants of the induced graph have
closed forms for signals whose windowed energy is pinned between s^2 and t^2.

The complex-field construction also carries the explicit adversarial pair
(all-ones against the single-frequency exponential) whose measured stability
ratio grows linearly in L, matching the bound's growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certify import (
    COMPLEX_C0_MARGIN,
    SIGMA_BUDGET,
    estimate_local_stability,
    p_frame_bounds,
    real_local_stability,
    sigma_and_complement,
)
from .errors import ClassError, FieldError, SchemeError
from .graphs import algebraic_connectivity, cheeger
from .measurement import BOUND_SLACK, COMPLEX, REAL, as_field_array, gaussian, pair_ratios
from .scheme import LsccScheme, induce_graph, sliding_scheme
from .stability import bound, empirical_worst_ratio, prefactor

#: membership slack for window-average comparisons
CLASS_TOL = 1e-12


@dataclass(frozen=True)
class WindowedConfig:
    a: int
    L: int
    field: str = REAL
    s: float = 1.0
    t: float = 1.0
    local_rows: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if self.a < 1:
            raise SchemeError("half-window a must be >= 1")
        if self.L < 3:
            raise SchemeError("cycle length L must be >= 3")
        if not (0.0 < self.s <= self.t):
            raise SchemeError("require 0 < s <= t")
        if self.field not in (REAL, COMPLEX):
            raise FieldError(f"unknown field {self.field!r}")

    @property
    def d(self) -> int:
        return self.a * self.L


@dataclass(frozen=True)
class WindowMembership:
    window_averages: np.ndarray
    in_class: bool
    s: float
    t: float


@dataclass(frozen=True)
class AdversarialPair:
    f: np.ndarray
    g: np.ndarray
    measured_ratio: float
    statement_bound: float
    proof_bound: float


def default_local_rows(cfg: WindowedConfig) -> np.ndarray:
    """Seeded Gaussian local frame on the 2a window coordinates.

    Real frames use 4a+2 rows (enough for the complement property with
    margin).  Complex retrievability on 2a coordinates generically needs
    4*(2a)-4 rows, so the complex default takes max(4a+2, 8a-4).
    """
    n_local = 2 * cfg.a
    rng = np.random.default_rng(cfg.seed)
    m = max(4 * cfg.a + 2, 8 * cfg.a - 4) if cfg.field == COMPLEX else 4 * cfg.a + 2
    return gaussian(rng, (m, n_local), cfg.field)


def build_windowed_scheme(cfg: WindowedConfig) -> LsccScheme:
    """Assemble the cyclic scheme and certify/estimate its constants.

    Real local frames get a certified stability constant from the
    strong-split constant sigma; complex ones get an adversarially sampled
    estimate inflated by a fixed margin (no closed form exists).
    """
    local = cfg.local_rows
    local = default_local_rows(cfg) if local is None else as_field_array(local, cfg.field)
    name = f"windowed(a={cfg.a},L={cfg.L},{cfg.field})"
    return sliding_scheme(name, local, cfg.a, cfg.L, True, 2.0, *_local_constants(cfg, local))


def _local_constants(cfg: WindowedConfig, local: np.ndarray) -> tuple:
    """(C0, C1, (A, B)) of the local frame; an estimated C0 draws on cfg.seed + 1."""
    n_local = 2 * cfg.a
    if local.ndim != 2 or local.shape[1] != n_local:
        raise SchemeError(f"local frame must have {n_local} columns")

    lower, upper = p_frame_bounds(local, 2.0)
    if lower <= 0.0:
        raise SchemeError("local frame is rank deficient")

    if cfg.field == COMPLEX and local.shape[0] < 4 * n_local - 4:
        raise SchemeError(
            f"complex local frame needs at least {4 * n_local - 4} rows for retrievability"
        )
    if cfg.field == REAL and local.shape[0] <= SIGMA_BUDGET:
        sigma, retrievable = sigma_and_complement(local)
        if not retrievable:
            raise SchemeError("local frame fails the complement property")
        c0 = real_local_stability(local, sigma)
    else:
        rng = np.random.default_rng(cfg.seed + 1)
        c0 = COMPLEX_C0_MARGIN * estimate_local_stability(local, cfg.field, 2.0, 4000, rng)
    return c0, 1.0 / lower, (lower, upper)


def window_membership(cfg: WindowedConfig, f) -> WindowMembership:
    """Test every cyclic a-window average of |f|^2 against [s^2, t^2]."""
    vec = as_field_array(f, cfg.field)
    if vec.size != cfg.d:
        raise ClassError(f"signal length {vec.size} != ambient dimension {cfg.d}")
    sq = np.abs(vec) ** 2
    averages = np.mean(sq[(np.arange(cfg.d)[:, None] + np.arange(cfg.a)) % cfg.d], axis=1)
    slack = CLASS_TOL * max(cfg.t**2, 1.0)
    in_class = bool(
        np.all(averages >= cfg.s**2 - slack) and np.all(averages <= cfg.t**2 + slack)
    )
    return WindowMembership(averages, in_class, cfg.s, cfg.t)


def adversarial_pair(cfg: WindowedConfig, scheme: LsccScheme | None = None) -> AdversarialPair:
    """The all-ones / single-frequency pair with its closed-form ratio floors.

    The statement-form floor uses cos(4*pi*a/L), the proof-form floor
    cos(4*pi*a/d); the measured ratio, reported alongside both, is the
    `pair_ratios` one: inf on a collision, nan on a phase-equivalent pair.
    """
    if cfg.field != COMPLEX:
        raise FieldError("the adversarial construction is complex-field only")
    if not (cfg.s <= 1.0 <= cfg.t):
        raise ClassError("the all-ones signal requires s <= 1 <= t")
    scheme = build_windowed_scheme(cfg) if scheme is None else scheme
    d = cfg.d
    f = np.ones(d, dtype=np.complex128)
    g = np.exp(2j * math.pi * np.arange(d) / d)
    num, den, equivalent, collides = pair_ratios(scheme.measure(f), scheme.measure(g), COMPLEX)
    measured = math.inf if collides else math.nan if equivalent else num / den
    ratio_ab = scheme.frame_lower / scheme.frame_upper

    def closed_form(angle: float) -> float:
        gap = 1.0 - math.cos(angle)
        return ratio_ab / math.sqrt(gap) if gap > 0.0 else math.inf

    return AdversarialPair(
        f=f,
        g=g,
        measured_ratio=measured,
        statement_bound=closed_form(4.0 * math.pi * cfg.a / cfg.L),
        proof_bound=closed_form(4.0 * math.pi * cfg.a / d),
    )


@dataclass(frozen=True)
class LowerBoundCheck:
    cheeger_floor: float
    lambda_floor: float
    cheeger_value: float
    lambda_value: float

    @property
    def ok(self) -> bool:
        return (
            self.cheeger_value >= self.cheeger_floor * (1.0 - BOUND_SLACK)
            and self.lambda_value >= self.lambda_floor * (1.0 - BOUND_SLACK)
        )


def unweighted_cycle_cheeger(L: int) -> float:
    return 2.0 / float(L // 2)


def unweighted_cycle_lambda(L: int) -> float:
    """2 (1 - cos(2 pi / L)) as 4 sin^2(pi / L), which does not cancel at large L."""
    return 4.0 * math.sin(math.pi / L) ** 2


def lower_bound_constants(cfg: WindowedConfig, f, scheme: LsccScheme | None = None) -> LowerBoundCheck:
    """Connectivity floors s^2/(2 B^2 t^2) x (cycle closed forms) for class members.

    Raises ClassError outside the window class; the returned record carries
    both the floors and the actually computed connectivity values.
    """
    if not window_membership(cfg, f).in_class:
        raise ClassError("signal is outside the window class")
    scheme = build_windowed_scheme(cfg) if scheme is None else scheme
    factor = cfg.s**2 / (2.0 * scheme.frame_upper**2 * cfg.t**2)
    graph = induce_graph(scheme, f)
    che = cheeger(graph)
    spec = algebraic_connectivity(graph)
    return LowerBoundCheck(
        cheeger_floor=factor * unweighted_cycle_cheeger(cfg.L),
        lambda_floor=factor * unweighted_cycle_lambda(cfg.L),
        cheeger_value=che.value,
        lambda_value=spec.lam,
    )


def scaling_sweep(
    a: int,
    L_values: list[int],
    field: str,
    trials: int = 200,
    seed: int = 0,
) -> list[dict]:
    """Per-L rows of bound / sampled ratio / adversarial ratio / connectivity.

    The local frame is generated and certified once per (a, field, seed) and
    reused across L, so the bound prefactor is constant and growth comes only
    from the connectivity terms.
    """
    if not L_values:
        raise SchemeError("empty L range")
    if sorted(L_values) != list(L_values):
        raise SchemeError("L values must be ascending")
    base_cfg = WindowedConfig(a=a, L=L_values[0], field=field, seed=seed)
    local = default_local_rows(base_cfg)
    constants = _local_constants(base_cfg, local)
    cfgs = [WindowedConfig(a=a, L=L, field=field, seed=seed, local_rows=local) for L in L_values]
    return [_sweep_row(cfg, constants, idx, trials) for idx, cfg in enumerate(cfgs)]


def _sweep_row(cfg: WindowedConfig, constants: tuple, idx: int, trials: int) -> dict:
    """Row `idx` of `scaling_sweep`; its scheme and graph are freed on return,
    before the next L is built."""
    name = f"windowed(a={cfg.a},L={cfg.L},{cfg.field})"  # as build_windowed_scheme names it
    scheme = sliding_scheme(name, cfg.local_rows, cfg.a, cfg.L, True, 2.0, *constants)
    f = np.ones(cfg.d, dtype=np.complex128 if cfg.field == COMPLEX else np.float64)
    graph = induce_graph(scheme, f)
    che = cheeger(graph)
    spec = algebraic_connectivity(graph)
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(idx,)).generate_state(1)[0]
    )
    ratio, _ = empirical_worst_ratio(scheme, f, trials=trials, rng=rng)
    return {
        "L": cfg.L,
        "d": cfg.d,
        "bound": bound(scheme, graph, che, spec),
        "empirical_ratio": ratio,
        # the explicit adversarial pair is complex-only
        "adversarial_ratio": (
            adversarial_pair(cfg, scheme).measured_ratio if cfg.field == COMPLEX else math.nan
        ),
        "cheeger": che.value,
        "lambda": spec.lam,
        "C2_or_C3": prefactor(scheme),
    }


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x); NaN, the slope of no
    line, when fewer than two distinct x are given."""
    if np.unique(xs).size < 2:
        return math.nan
    lx = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(ys, dtype=np.float64))
    return float(np.polyfit(lx, ly, 1)[0])
