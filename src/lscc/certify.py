"""Certified and estimated frame constants.

For a real measurement matrix M, a worst-case constant for recovering the
measurement vector up to sign from its moduli follows from the strong-split
constant sigma: the minimum over all row splits of the larger of the two
sub-frame lower bounds.  Splitting measurement indices by the sign of the
product of the two signals' measurements turns any pair into a (difference,
sum) decomposition controlled by sigma, giving

    min_{s = +-1} ||Mf - s Mg||_2  <=  sqrt(2) * lmax(M) / sigma * || |Mf| - |Mg| ||_2.

No closed-form analogue exists over the complex field, so complex local
constants are estimated by adversarial sampling and inflated by a safety
margin.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceededError, DegenerateFrameError, FieldError
from .measurement import COMPLEX, gaussian, pair_ratios

#: largest row count the split search takes
SIGMA_BUDGET = 20
#: estimate_local_stability measures and scores pairs in chunks of about this
#: many measurements, a multiple of _COLUMN_BLOCK columns wide
_MEASURE_ENTRIES = 1 << 12
_COLUMN_BLOCK = 64
#: multiplier applied to sampled complex local stability estimates
COMPLEX_C0_MARGIN = 2.0
#: sigma below this fraction of the top singular value counts as zero
DEGENERATE_RTOL = 1e-12


def max_singular(m: np.ndarray) -> float:
    m = np.atleast_2d(m)
    if m.shape[0] == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _check_budget(rows: int) -> None:
    if rows > SIGMA_BUDGET:
        raise BudgetExceededError(f"{rows} rows exceeds subset budget {SIGMA_BUDGET}")


def _real(m: np.ndarray) -> np.ndarray:
    m = np.atleast_2d(np.asarray(m))
    if np.iscomplexobj(m):
        raise FieldError("real certification needs a real matrix, got complex entries")
    return m.astype(np.float64, copy=False)


def sigma_and_complement(m: np.ndarray) -> tuple[float, bool]:
    """(sigma_strong(m), complement_property_holds(m)) from one depth-first
    branch and bound over the row splits, in O(rows) memory.

    Rows join a split in order of descending norm, each first to the side
    holding fewer rows; the first row stays on side one, so each split is
    reached once.  A side's last singular value never falls as rows join it,
    so a partial split is cut once its larger side value exceeds the best
    complete split by more than the SVD's rounding, `slack`.  Each side is
    scored on its rows in ascending order: under n rows it scores 0 and is
    rank deficient; full rank follows `matrix_rank`'s tolerance rule,
    S.max * (max(k, n) * eps).  A rank-deficient side thus scores under
    k * eps * ||m||_2 < slack, so no split whose sides are both
    deficient, the only kind that breaks the complement property, is cut.
    """
    m = np.atleast_2d(m)
    rows, n = m.shape
    _check_budget(rows)
    eps = float(np.finfo(np.float64).eps)
    slack = 4 * max(rows, n) * eps * max_singular(m)
    order = np.argsort(-np.linalg.norm(m, axis=1), kind="stable").tolist()
    picked = np.zeros((2, rows), dtype=bool)
    sides = [(0, 0.0, False), (0, 0.0, False)]  # (rows, last singular value, full rank)
    best, holds = math.inf, True

    def visit(i: int) -> None:
        nonlocal best, holds
        (_, last_a, full_a), (_, last_b, full_b) = sides
        if i == rows:
            best, holds = min(best, max(last_a, last_b)), holds and (full_a or full_b)
            return
        if max(last_a, last_b) > best + slack:
            return
        first = (0, 1) if sides[0][0] <= sides[1][0] else (1, 0)
        for k in first[: 2 if i else 1]:
            saved, size = sides[k], sides[k][0] + 1
            picked[k, order[i]] = True
            sides[k] = (size, 0.0, False)
            if size >= n:
                s = np.linalg.svd(m[picked[k]], compute_uv=False)
                sides[k] = (size, float(s[-1]), float(s[-1]) > float(s[0]) * (size * eps))
            visit(i + 1)
            picked[k, order[i]] = False
            sides[k] = saved

    visit(0)
    return float(best), holds


def complement_property_holds(m: np.ndarray) -> bool:
    """True iff every row split leaves one side of full column rank.

    Equivalent to real phase retrievability of the row family.
    """
    return sigma_and_complement(m)[1]


def sigma_strong(m: np.ndarray) -> float:
    """Strong-split constant of a real m: min over row splits of the larger
    of the two sides' last singular values."""
    return sigma_and_complement(_real(m))[0]


def real_local_stability(m: np.ndarray, sigma: float | None = None) -> float:
    """Certified sign-recovery stability constant sqrt(2)*lmax/sigma of a real m."""
    m = _real(m)
    if sigma is None:
        sigma = sigma_strong(m)
    lmax = max_singular(m)
    _check_sigma(sigma, lmax, "the row family is not phase retrievable")
    return math.sqrt(2.0) * lmax / sigma


def _check_sigma(sigma: float, lmax: float, meaning: str) -> None:
    """Refuse sigma at or below DEGENERATE_RTOL * lmax, naming both values."""
    if sigma <= (floor := DEGENERATE_RTOL * lmax):
        message = f"sigma = {sigma:.3g} <= DEGENERATE_RTOL * lmax = {floor:.3g}: {meaning}"
        raise DegenerateFrameError(message)


def p_frame_bounds(m: np.ndarray, p: float, grid: int = 4096) -> tuple[float, float]:
    """Numerical (lower, upper) constants of ||M c||_p against the domain
    p-norm ||c||_p.

    Exact via singular values for p = 2, over either field.  Otherwise M must
    be real, and the scale-invariant ratio is optimized over directions:
    dense angle grid for 2 columns, seeded random starts for more, each
    refined by derivative-free descent.
    """
    m = np.atleast_2d(np.asarray(m, dtype=np.complex128 if np.iscomplexobj(m) else np.float64))
    n = m.shape[1]
    if p == 2.0:
        svals = np.linalg.svd(m, compute_uv=False)
        lo = float(svals[-1]) if m.shape[0] >= n else 0.0
        return lo, float(svals[0])
    m = _real(m)

    def ratio(c: np.ndarray) -> float:
        nc = float(np.sum(np.abs(c) ** p) ** (1.0 / p))
        if nc == 0.0:
            return math.inf
        return float(np.sum(np.abs(m @ c) ** p) ** (1.0 / p) / nc)

    if n == 1:
        v = ratio(np.ones(1))
        return v, v
    from scipy.optimize import minimize

    if n == 2:
        thetas = np.linspace(0.0, math.pi, grid, endpoint=False)
        dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    else:
        dirs = np.random.default_rng(0).standard_normal((grid, n))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    num = np.sum(np.abs(dirs @ m.T) ** p, axis=1) ** (1.0 / p)
    den = np.sum(np.abs(dirs) ** p, axis=1) ** (1.0 / p)
    vals = num / den
    lo_start = dirs[int(np.argmin(vals))]
    hi_start = dirs[int(np.argmax(vals))]
    res_lo = minimize(ratio, lo_start, method="Nelder-Mead", options={"xatol": 1e-12, "fatol": 1e-14})
    res_hi = minimize(lambda c: -ratio(c), hi_start, method="Nelder-Mead", options={"xatol": 1e-12, "fatol": 1e-14})
    lo = min(float(np.min(vals)), float(res_lo.fun))
    hi = max(float(np.max(vals)), float(-res_hi.fun))
    return lo, hi


def estimate_local_stability(
    m: np.ndarray,
    field: str,
    p: float,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Empirical worst ratio of aligned to phaseless measurement distance.

    Samples random pairs plus near-phase-equivalent pairs, where the ratio
    approaches its supremum; pairs that `pair_ratios` calls phase-equivalent
    are skipped.  A lower bound on the true constant: callers needing an
    upper bound must add a margin.

    The draws come in one order (fs, gs, then f, h and the phases), and the
    random pairs are scored before the near-collinear ones are drawn.  Pairs
    are measured and scored in column chunks of about _MEASURE_ENTRIES
    measurements, so that every ratio is the one a single batch gives.
    """
    half = max(trials // 2, 1)
    shape = (m.shape[1], half)
    rows = np.conj(m)
    # Chunks are whole blocks of _COLUMN_BLOCK columns: the BLAS kernel gives
    # a column the same bits wherever it sits among such blocks (a chunk of
    # any width need not).  A lone last column joins the chunk before it, as
    # numpy would sum a one-column chunk in another order.
    width = max(1, _MEASURE_ENTRIES // m.shape[0] // _COLUMN_BLOCK) * _COLUMN_BLOCK
    starts = list(range(0, half, width))
    if len(starts) > 1 and half - starts[-1] == 1:
        starts.pop()
    spans = list(zip(starts, starts[1:] + [half]))

    def worst_of(fs: np.ndarray, gs) -> float:
        worst = 1.0
        for a, b in spans:
            num, den, equivalent, _ = pair_ratios(rows @ fs[:, a:b], rows @ gs(a, b), field, p)
            good = ~equivalent
            if np.any(good):
                worst = max(worst, float(np.max(num[good] / den[good])))
        return worst

    # The four draws share one block, filled in draw order, so its pages are
    # touched as they are drawn and freed as one mapping.  Freeing a mapping
    # raises glibc's mmap and trim thresholds to its size, as the one-batch
    # measurements did: later batched code (the fuzz's chunks) then reuses
    # heap pages instead of mapping and faulting in fresh ones per chunk.
    draws = np.empty((4,) + shape, dtype=np.complex128 if field == COMPLEX else np.float64)
    fs, gs, f, h = draws
    fs[...], gs[...] = gaussian(rng, shape, field), gaussian(rng, shape, field)
    worst = worst_of(fs, lambda a, b: gs[:, a:b])
    # near-collinear pairs: g = xi*f + eps*h with shrinking eps
    f[...], h[...] = gaussian(rng, shape, field), gaussian(rng, shape, field)
    eps = np.logspace(-6, 0, half)
    if field == COMPLEX:
        xi = np.exp(2j * math.pi * rng.random(half))
    else:
        xi = np.where(rng.random(half) < 0.5, 1.0, -1.0)
    near = worst_of(f, lambda a, b: xi[None, a:b] * f[:, a:b] + eps[None, a:b] * h[:, a:b])
    return max(worst, near)
