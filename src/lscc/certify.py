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

import itertools
import math

import numpy as np

from .errors import BudgetExceededError, DegenerateFrameError
from .measurement import COMPLEX, gaussian, pair_ratios

#: largest row count for 2^m subset enumeration
SIGMA_BUDGET = 20
#: matrix entries per stacked SVD call of the subset table
_TABLE_ENTRIES = 1 << 16
#: splits whose smaller side sigma factors per round; each round tightens the
#: bound that rules out the later ones
_SPLIT_CHUNK = 4096
#: estimate_local_stability measures and scores pairs in chunks of about this
#: many measurements, a multiple of _COLUMN_BLOCK columns wide
_MEASURE_ENTRIES = 1 << 12
_COLUMN_BLOCK = 64
#: multiplier applied to sampled complex local stability estimates
COMPLEX_C0_MARGIN = 2.0
#: sigma below this fraction of the top singular value counts as zero
DEGENERATE_RTOL = 1e-12


def min_singular(m: np.ndarray) -> float:
    """inf over unit c of ||M c||_2; zero when M has a nontrivial null space."""
    m = np.atleast_2d(m)
    if m.shape[0] == 0 or m.shape[0] < m.shape[1]:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def max_singular(m: np.ndarray) -> float:
    m = np.atleast_2d(m)
    if m.shape[0] == 0:
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def _factor(m: np.ndarray, masks: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(last singular value, full column rank) of `m[picked]` for each row mask.

    `picked` holds the rows whose bits are set, in ascending order, and
    `sizes` the masks' bit counts.  Only subsets with at least n rows take an
    SVD: smaller ones have rank < n and last value 0 by definition, as in
    min_singular.  Subsets of one size are stacked, in chunks of at most
    _TABLE_ENTRIES matrix entries, into one `np.linalg.svd` call; LAPACK still
    factors each matrix on its own, so every value equals the per-subset call
    bit for bit.  Full rank follows `matrix_rank`'s tolerance rule,
    S.max * (max(k, n) * eps).
    """
    rows, n = m.shape
    last = np.zeros(masks.size)
    full = np.zeros(masks.size, dtype=bool)
    shifts = np.arange(rows)
    for k in range(n, rows + 1):
        at = np.flatnonzero(sizes == k)
        step = max(1, _TABLE_ENTRIES // (k * n))
        for start in range(0, at.size, step):
            chunk = at[start : start + step]
            idx = np.nonzero((masks[chunk, None] >> shifts) & 1)[1].reshape(chunk.size, k)
            s = np.linalg.svd(m[idx], compute_uv=False)
            last[chunk] = s[:, -1]
            tol = s.max(axis=-1, keepdims=True, initial=0) * (k * np.finfo(s.dtype).eps)
            full[chunk] = (s > tol).all(axis=-1)
    return last, full


def _check_budget(rows: int) -> None:
    if rows > SIGMA_BUDGET:
        raise BudgetExceededError(f"{rows} rows exceeds subset budget {SIGMA_BUDGET}")


def _split_table(m: np.ndarray) -> tuple[np.ndarray, ...]:
    """Every row split once, larger side factored: (its last singular value,
    its full rank, the smaller side's mask, the smaller side's size).

    A split of equal halves takes the half holding the last row as its
    larger side.  Bit counts come from a doubling table.
    """
    rows = m.shape[0]
    _check_budget(rows)
    sizes = np.zeros(1 << rows, dtype=np.int8)
    for i in range(rows):
        sizes[1 << i : 2 << i] = sizes[: 1 << i] + 1
    ties = sizes == sizes[::-1]
    ties[: sizes.size // 2] = False
    big = np.flatnonzero((sizes > sizes[::-1]) | ties)
    small = big ^ (sizes.size - 1)
    return *_factor(m, big, sizes[big]), small, sizes[small]


def _complement_holds(m: np.ndarray, table: tuple[np.ndarray, ...]) -> bool:
    """Factor a smaller side only where the larger side is rank deficient."""
    full, small, small_sizes = table[1:]
    unsure = np.flatnonzero(~full)
    if (small_sizes[unsure] < m.shape[1]).any():
        return False
    return bool(_factor(m, small[unsure], small_sizes[unsure])[1].all())


def _sigma(m: np.ndarray, table: tuple[np.ndarray, ...]) -> float:
    """min over splits of max(last[larger side], last[smaller side]).

    A smaller side of under n rows scores 0, so its split scores its larger
    side.  A split can only beat the best score so far if its larger side
    does, so the other smaller sides are factored _SPLIT_CHUNK splits at a
    time, each round skipping the splits the best score so far rules out.
    """
    last, _, small, small_sizes = table
    closed = small_sizes < m.shape[1]
    best = last[closed].min()
    open_ = np.flatnonzero(~closed & (last < best))
    for start in range(0, open_.size, _SPLIT_CHUNK):
        at = open_[start : start + _SPLIT_CHUNK]
        at = at[last[at] < best]
        if at.size:
            best = min(best, np.maximum(last[at], _factor(m, small[at], small_sizes[at])[0]).min())
    return float(best)


def sigma_and_complement(m: np.ndarray) -> tuple[float, bool]:
    """(sigma_strong(m), complement_property_holds(m)) of a real m from one
    split table, for callers that need both."""
    m = np.atleast_2d(m)
    table = _split_table(m)
    return _sigma(m, table), _complement_holds(m, table)


def complement_property_holds(m: np.ndarray) -> bool:
    """True iff every row split leaves one side of full column rank.

    Equivalent to real phase retrievability of the row family.
    """
    m = np.atleast_2d(m)
    return _complement_holds(m, _split_table(m))


def sigma_strong(m: np.ndarray) -> float:
    """Strong-split constant: min over row masks of the larger of the last
    singular values of m[mask] and m[~mask]."""
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    return _sigma(m, _split_table(m))


def sigma_strong_recursive(m: np.ndarray) -> float:
    """Independent second enumeration path over subsets by size.

    Uses itertools.combinations instead of bitmasks; shares only the singular
    value kernel, so agreement with sigma_strong is a structural cross-check.
    """
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    rows = m.shape[0]
    _check_budget(rows)
    all_rows = set(range(rows))
    best = math.inf
    for size in range(rows + 1):
        for combo in itertools.combinations(range(rows), size):
            rest = sorted(all_rows.difference(combo))
            val = max(min_singular(m[list(combo)]), min_singular(m[rest]))
            if val < best:
                best = val
    return best


def real_local_stability(m: np.ndarray, sigma: float | None = None) -> float:
    """Certified sign-recovery stability constant sqrt(2)*lmax/sigma."""
    if sigma is None:
        sigma = sigma_strong(m)
    lmax = max_singular(m)
    if sigma <= DEGENERATE_RTOL * lmax:
        raise DegenerateFrameError("sigma = 0: the row family is not phase retrievable")
    return math.sqrt(2.0) * lmax / sigma


def p_frame_bounds(m: np.ndarray, p: float, grid: int = 4096) -> tuple[float, float]:
    """Numerical (lower, upper) constants of ||M c||_p against the domain
    p-norm ||c||_p.

    Exact via singular values for p = 2.  Otherwise the scale-invariant ratio
    is optimized over directions: dense angle grid for 2 columns, seeded
    random starts for more, each refined by derivative-free descent.
    """
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    n = m.shape[1]
    if p == 2.0:
        svals = np.linalg.svd(m, compute_uv=False)
        lo = float(svals[-1]) if m.shape[0] >= n else 0.0
        return lo, float(svals[0])

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
