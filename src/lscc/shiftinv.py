"""Finite truncation of real sampling in a shift-invariant spline space.

Signals are coefficient sequences c = (c_k) expanded against integer shifts
of a compactly supported generator B_N (support [0, N], dimension one).  The
measurements of vertex ell are the point evaluations at Gamma + ell with
Gamma inside the unit interval, which in coefficient coordinates apply one
fixed local matrix (the generator sampled at Gamma against the N visible
shifts) to the coefficient block {ell-N+1, ..., ell}.  The vertices {-R, ...,
R} form a path, each sharing N-1 coefficients with the next, which act as the
gluing functionals (`scheme.sliding_scheme` with stride 1).

Decay profiles probe how connectivity of the induced graph behaves as the
truncation radius grows: exponentially decaying coefficients keep the Cheeger
constant above an explicit positive floor, while polynomial decay drives it
to zero like 1/R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .certify import (
    COMPLEX_C0_MARGIN,
    _check_sigma,
    estimate_local_stability,
    p_frame_bounds,
    sigma_and_complement,
)
from .errors import SchemeError, UnsupportedPError
from .graphs import cheeger
from .measurement import BOUND_SLACK, REAL
from .scheme import LsccScheme, induce_graph, sliding_scheme

EXPONENTIAL = "exponential"
POLYNOMIAL = "polynomial"


def bspline(n: int):
    """Cardinal B-spline of order n, supported on [0, n].

    Order 1 is the indicator of [0, 1); higher orders follow the two-term
    recurrence in the order.
    """
    if n < 1:
        raise SchemeError("B-spline order must be >= 1")

    def evaluate(x):
        x = np.asarray(x, dtype=np.float64)
        return _bspline_eval(x, n)

    return evaluate


def _bspline_eval(x: np.ndarray, n: int) -> np.ndarray:
    if n == 1:
        return np.where((x >= 0.0) & (x < 1.0), 1.0, 0.0)
    prev_here = _bspline_eval(x, n - 1)
    prev_left = _bspline_eval(x - 1.0, n - 1)
    return (x * prev_here + (n - x) * prev_left) / (n - 1.0)


def default_offsets(n: int) -> tuple[float, ...]:
    """2N-1 interior sample offsets j/(2N), enough for sign recovery of N coords."""
    return tuple(j / (2.0 * n) for j in range(1, 2 * n))


@dataclass(frozen=True)
class GeneratorModel:
    """Generator support length N, sample offsets in (0, 1), and exponent p."""

    N: int
    offsets: tuple[float, ...] = ()
    p: float = 2.0

    def __post_init__(self):
        if self.N < 2:
            raise SchemeError("support length N must be >= 2")
        if not (1.0 <= self.p < math.inf):
            raise SchemeError(f"p must lie in [1, inf), got {self.p}")
        if not self.offsets:
            object.__setattr__(self, "offsets", default_offsets(self.N))
        for g in self.offsets:
            if not (0.0 <= g <= 1.0):
                raise SchemeError("offsets must lie in [0, 1]")
        if len(self.offsets) < 2 * self.N - 1:
            raise SchemeError(
                f"need at least {2 * self.N - 1} offsets for {self.N} coefficients"
            )

    @cached_property
    def local_matrix(self) -> np.ndarray:
        """Rows: offsets; columns: visible shifts k in {-N+1, ..., 0}."""
        b = bspline(self.N)
        ks = np.arange(-self.N + 1, 1)
        return np.array([[float(b(g - k)) for k in ks] for g in self.offsets])

    @cached_property
    def frame_bounds(self) -> tuple[float, float]:
        return p_frame_bounds(self.local_matrix, self.p)

    @cached_property
    def _strong_split(self) -> tuple[float, bool]:
        """sigma and the complement property of the local matrix, from one split search."""
        return sigma_and_complement(self.local_matrix)

    @property
    def sigma(self) -> float:
        return self._strong_split[0]

    def validate(self) -> None:
        if not self._strong_split[1]:
            raise SchemeError("sampled generator rows are not phase retrievable")
        if self.frame_bounds[0] <= 0.0:
            raise SchemeError("local sampling matrix is rank deficient")


def sigma_based_constants(gen: GeneratorModel) -> tuple[float, float, float]:
    """(C0, C1, C_V): local stability, edge domination, and the combined
    stability prefactor for the sampled spline space at p = 2.

    C0 = sqrt(2) * sqrt(N) * lmax / sigma, C1 = sqrt(2) / sigma, and
    C_V = max{2 sqrt(N) lmax / sigma, 4 sqrt(2) N lmax / sigma^2}.
    """
    if gen.p != 2.0:
        raise UnsupportedPError("closed-form constants require p = 2")
    sigma = gen.sigma
    lmax = gen.frame_bounds[1]  # the top singular value at p = 2
    _check_sigma(sigma, lmax, "a row split defeats sign recovery")
    k0 = gen.N  # number of coefficients any vertex sees
    c0 = math.sqrt(2.0) * math.sqrt(k0) * lmax / sigma
    c1 = math.sqrt(2.0) / sigma
    c_v = max(2.0 * math.sqrt(k0) * lmax / sigma, 4.0 * math.sqrt(2.0) * k0 * lmax / sigma**2)
    return c0, c1, c_v


def coefficient_index(gen: GeneratorModel, R: int, k: int) -> int:
    """Ambient array slot of coefficient k; slots cover {-R-N+1, ..., R}."""
    return k + R + gen.N - 1


def ambient_dim(gen: GeneratorModel, R: int) -> int:
    return 2 * R + gen.N


def build_shiftinv_scheme(gen: GeneratorModel, R: int) -> LsccScheme:
    """Path scheme on vertices {-R, ..., R} in coefficient coordinates."""
    if R < gen.N:
        raise SchemeError("truncation radius must be at least N")
    gen.validate()
    local = gen.local_matrix
    if gen.p == 2.0:
        c0, c1, _ = sigma_based_constants(gen)
    else:
        est = estimate_local_stability(local, REAL, gen.p, 2000, np.random.default_rng(0))
        c0 = COMPLEX_C0_MARGIN * est  # no certified route away from p = 2
        c1 = 1.0 / gen.frame_bounds[0]

    return sliding_scheme(
        f"shiftinv(N={gen.N},R={R},p={gen.p:g})",
        local, 1, 2 * R + 1, False, gen.p, c0, c1, gen.frame_bounds,
        labels=tuple(range(-R, R + 1)),
    )


@dataclass(frozen=True)
class DecayProfile:
    """|c_k|^p = exp(-beta |k|) or (1 + |k|)^(-beta)."""

    kind: str
    beta: float

    def __post_init__(self):
        if self.kind not in (EXPONENTIAL, POLYNOMIAL):
            raise SchemeError(f"unknown decay kind {self.kind!r}")
        if not math.isfinite(self.beta):
            raise SchemeError(f"beta must be finite, got {self.beta}")
        if self.kind == EXPONENTIAL and self.beta <= 0.0:
            raise SchemeError("exponential decay needs beta > 0")
        if self.kind == POLYNOMIAL and self.beta <= 1.0:
            raise SchemeError("polynomial decay needs beta > 1 for summability")

    def coefficient(self, k: np.ndarray, p: float) -> np.ndarray:
        absk = np.abs(np.asarray(k, dtype=np.float64))
        if self.kind == EXPONENTIAL:
            return np.exp(-self.beta * absk / p)
        return (1.0 + absk) ** (-self.beta / p)


def profile_signal(gen: GeneratorModel, R: int, profile: DecayProfile) -> np.ndarray:
    """Coefficient vector of the profile truncated to |k| <= R (zeros pad the
    N-1 leading slots only visible to boundary frames)."""
    f = np.zeros(ambient_dim(gen, R))
    f[coefficient_index(gen, R, -R) :] = profile.coefficient(np.arange(-R, R + 1), gen.p)
    return f


def exponential_floor(gen: GeneratorModel, beta: float) -> float:
    """Positive lower bound on the truncated Cheeger constants."""
    n = gen.N
    b_upper = gen.frame_bounds[1]
    return (n - 1) / (n * b_upper**gen.p) * (1.0 - math.exp(-beta)) * math.exp(-2.0 * n * beta)


def polynomial_ceiling(gen: GeneratorModel, beta: float, graph_weights: np.ndarray, labels) -> float:
    """Witness-cut upper bound 2N(beta-1)/A^p * (k0-N+1)^(-1).

    k0 is the smallest index > N whose one-sided tail volume in the induced
    graph is at most half the total.
    """
    a_lower = gen.frame_bounds[0]
    total = float(np.sum(graph_weights))
    label_arr = np.asarray(labels)
    k0 = None
    for k in range(gen.N + 1, int(label_arr.max()) + 1):
        tail = float(np.sum(graph_weights[label_arr >= k]))
        if tail <= 0.5 * total:
            k0 = k
            break
    if k0 is None:
        return math.inf
    return 2.0 * gen.N * (beta - 1.0) / a_lower**gen.p / (k0 - gen.N + 1)


def decay_cheeger_study(gen: GeneratorModel, profile: DecayProfile, R_values: list[int]) -> list[dict]:
    """Per-radius Cheeger constants against the profile's floor or ceiling."""
    if sorted(R_values) != list(R_values):
        raise SchemeError("R values must be ascending")
    return [_decay_row(gen, profile, R) for R in R_values]


def _decay_row(gen: GeneratorModel, profile: DecayProfile, R: int) -> dict:
    """One radius of `decay_cheeger_study`; its scheme and graph are freed on
    return, before the next radius is built."""
    scheme = build_shiftinv_scheme(gen, R)
    f = profile_signal(gen, R, profile)
    # the profile's weights decay through the relative drop threshold yet
    # stay strictly positive, so induction must use exact positivity here
    graph = induce_graph(scheme, f, zero_tol=0.0)
    che = cheeger(graph)
    if profile.kind == EXPONENTIAL:
        reference = exponential_floor(gen, profile.beta)
        passed = che.value >= reference * (1.0 - BOUND_SLACK)
    else:
        reference = polynomial_ceiling(gen, profile.beta, graph.vertex_weights, graph.labels)
        passed = che.value <= reference * (1.0 + BOUND_SLACK)
    return {
        "R": R,
        "cheeger": che.value,
        "reference": reference,
        "kind": profile.kind,
        "pass": passed,
    }
