import math
import tracemalloc

import numpy as np
import pytest

from lscc.certify import (
    complement_property_holds,
    estimate_local_stability,
    max_singular,
    p_frame_bounds,
    real_local_stability,
    sigma_and_complement,
    sigma_strong,
)
from lscc.errors import BudgetExceededError, DegenerateFrameError, FieldError
from lscc.measurement import COMPLEX, REAL, align_phase, gaussian, pair_ratios
from lscc.shiftinv import GeneratorModel
from lscc.windowed import WindowedConfig, default_local_rows
from oracles import min_singular, sigma_strong_recursive


def one_batch_estimate(m, field, p, trials, rng):
    """estimate_local_stability as one batch per pair family: every pair
    measured and scored at once."""
    worst = 1.0
    half = max(trials // 2, 1)
    shape = (m.shape[1], half)
    blocks = [(gaussian(rng, shape, field), gaussian(rng, shape, field))]
    f, h = gaussian(rng, shape, field), gaussian(rng, shape, field)
    eps = np.logspace(-6, 0, half)
    if field == COMPLEX:
        xi = np.exp(2j * math.pi * rng.random(half))
    else:
        xi = np.where(rng.random(half) < 0.5, 1.0, -1.0)
    blocks.append((f, xi[None, :] * f + eps[None, :] * h))
    for fs, gs in blocks:
        num, den, equivalent, _ = pair_ratios(np.conj(m) @ fs, np.conj(m) @ gs, field, p)
        good = ~equivalent
        if np.any(good):
            worst = max(worst, float(np.max(num[good] / den[good])))
    return worst


def sigma_loop(m):
    """Reference strong-split constant: one mask at a time, two SVDs each."""
    m = np.atleast_2d(np.asarray(m, dtype=np.float64))
    idx = np.arange(m.shape[0])
    best = math.inf
    for mask in range(1 << m.shape[0]):
        picked = (mask >> idx) & 1 == 1
        best = min(best, max(min_singular(m[picked]), min_singular(m[~picked])))
    return best


def complement_loop(m):
    """Reference complement property: one matrix_rank call per side of each split."""
    m = np.atleast_2d(m)
    rows, n = m.shape
    idx = np.arange(rows)

    def rank(sub):
        return 0 if sub.shape[0] == 0 else int(np.linalg.matrix_rank(sub))

    for mask in range(1 << (rows - 1)):
        picked = (mask >> idx) & 1 == 1
        if rank(m[picked]) < n and rank(m[~picked]) < n:
            return False
    return True


def oracle_matrices():
    """Seeded random frames of 1-12 rows and 1-5 columns, then edge cases."""
    rng = np.random.default_rng(11)
    for rows in range(1, 13):
        for cols in range(1, 6) if rows <= 9 else (1 + rows % 5,):
            yield rng.standard_normal((rows, cols))
    frame = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -2.0]])
    yield np.vstack([frame, np.zeros((2, 2))])  # zero rows
    yield np.vstack([frame, frame[:2]])  # duplicate rows
    block = rng.standard_normal((6, 2)) @ np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 0.0]])
    yield block  # every subset has rank <= 2 < 3
    yield np.vstack([block, rng.standard_normal((2, 3))])
    yield np.round(3 * rng.standard_normal((7, 3)))  # tie-prone integer values
    # two rank-2 halves of 4 rows each: only that even split fails the
    # complement property, and both of its sides have at least n = 3 rows
    yield np.vstack([rng.standard_normal((4, 2)) @ rng.standard_normal((2, 3)) for _ in range(2)])
    yield np.eye(3, dtype=int)
    yield np.vstack([np.eye(2, dtype=int), [[1, 1], [1, -1]]])


def split_table(m):
    """(sigma, complement property) from a table over all 2^rows row masks.

    The route the depth-first search replaced: every row subset of at least
    n rows is factored once, subsets of one size stacked into one
    `np.linalg.svd` call, in ascending row order; full rank by
    `matrix_rank`'s tolerance rule.  Each split then reads its two sides.
    """
    m = np.atleast_2d(m)
    rows, n = m.shape
    masks = np.arange(1 << rows)
    picked = (masks[:, None] >> np.arange(rows)) & 1 == 1
    sizes = picked.sum(axis=1)
    last = np.zeros(masks.size)
    full = np.zeros(masks.size, dtype=bool)
    for k in range(n, rows + 1):
        at = np.flatnonzero(sizes == k)
        s = np.linalg.svd(m[np.nonzero(picked[at])[1].reshape(at.size, k)], compute_uv=False)
        last[at] = s[:, -1]
        full[at] = (s > s.max(axis=-1, keepdims=True) * (k * np.finfo(s.dtype).eps)).all(axis=-1)
    rest = masks[::-1]  # the other side of each split
    return float(np.maximum(last, last[rest]).min()), bool((full | full[rest]).all())


def windowed_real_frame(a):
    return default_local_rows(WindowedConfig(a=a, L=8))


class TestSubsetTable:
    # 4096 = 2^12 scales every entry, every singular value and the search's
    # slack exactly, so the scaled frame's sigma is the frame's times 4096
    @pytest.mark.parametrize("scale", [1, 4096])
    @pytest.mark.parametrize("m", list(oracle_matrices()), ids=lambda m: "x".join(map(str, m.shape)))
    def test_matches_per_mask_loops(self, m, scale):
        sigma, holds = sigma_and_complement(m)
        m = scale * m
        assert sigma_and_complement(m) == (scale * sigma, holds)
        assert sigma_strong(m) == sigma_loop(m)
        assert sigma_strong(m) == sigma_strong_recursive(m)
        assert complement_property_holds(m) == complement_loop(m)
        assert sigma_and_complement(m) == (sigma_loop(m), complement_loop(m)) == split_table(m)

    @pytest.mark.parametrize(
        "m",
        [
            windowed_real_frame(3),
            GeneratorModel(N=7).local_matrix,
            np.random.default_rng(16).standard_normal((16, 4)),
        ],
        ids=["windowed-a3-14x6", "shiftinv-N7-13x7", "random-16x4"],
    )
    def test_search_matches_split_table(self, m):
        assert sigma_and_complement(m) == split_table(m)

    def test_cut_keeps_near_ties(self):
        # zero rows give splits whose scores differ in the last bits; cut
        # without the rounding slack, the search returned a sigma 3e-17 high
        rng = np.random.default_rng(5)
        m = np.vstack([rng.standard_normal((5, 3)), np.zeros((2, 3))])[rng.permutation(7)]
        assert sigma_and_complement(m) == split_table(m) == (sigma_loop(m), complement_loop(m))

    def test_rank_tolerance_grows_with_rows(self):
        # rows 0 and 1 have last singular value 4.5e-16, between S.max * eps
        # and matrix_rank's S.max * 2 * eps: the split {0, 1} | {2} fails
        m = np.array([[1.0, 0.0], [1.0, 6.4e-16], [0.0, 1.0]])
        assert not complement_property_holds(m)
        assert not complement_loop(m) and not split_table(m)[1]

    def test_search_prunes(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: calls.append(1) or svd(a, **kw))
        sigma_and_complement(windowed_real_frame(3))
        assert len(calls) < 2**10  # the table factored all 2^14 row subsets

    def test_search_memory_is_linear_in_rows(self):
        m = np.random.default_rng(20).standard_normal((20, 4))
        tracemalloc.start()
        try:
            sigma, holds = sigma_and_complement(m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert holds and sigma > 0.0
        assert peak < 2**16  # the 2^20-mask table traced 18 MB

    def test_runs_without_numpy_2_names(self, monkeypatch):
        # pyproject allows numpy 1.x, which lacks these
        for name in ("bitwise_count", "vecdot"):
            monkeypatch.delattr(np, name, raising=False)
        m = np.random.default_rng(4).standard_normal((7, 3))
        assert sigma_and_complement(m) == (sigma_loop(m), complement_loop(m))

    def test_complex_complement_property(self):
        rng = np.random.default_rng(12)
        for rows, cols in [(5, 2), (6, 2), (7, 2), (8, 3), (9, 3)]:
            m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            assert complement_property_holds(m) == complement_loop(m)
        m = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1j], [1.0, 1.0]])
        assert complement_property_holds(m) == complement_loop(m)

    def test_real_certification_rejects_complex(self):
        # a float64 cast used to drop the imaginary parts and certify 4.81 here
        m = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1j], [1.0, 1.0]])
        for route in (sigma_strong, sigma_strong_recursive, real_local_stability):
            with pytest.raises(FieldError, match="complex"):
                route(m)
        with pytest.raises(FieldError):
            real_local_stability(m, sigma=1.0)

    def test_no_rows(self):
        assert sigma_strong(np.zeros((0, 2))) == sigma_loop(np.zeros((0, 2))) == 0.0

    def test_budget_raised_before_any_table(self):
        tracemalloc.start()
        try:
            for route in (sigma_strong, complement_property_holds, sigma_and_complement):
                with pytest.raises(BudgetExceededError, match="21 rows exceeds subset budget 20"):
                    route(np.ones((21, 2)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16  # a 2^21-entry table would take 16 MB


class TestSingularValues:
    def test_min_singular_identity(self):
        assert min_singular(np.eye(3)) == pytest.approx(1.0)

    def test_min_singular_wide_matrix_is_zero(self):
        assert min_singular(np.ones((1, 2))) == 0.0

    def test_min_singular_empty(self):
        assert min_singular(np.zeros((0, 2))) == 0.0

    def test_max_singular(self):
        assert max_singular(np.diag([3.0, 1.0])) == pytest.approx(3.0)


class TestComplementProperty:
    def test_identity_plus_diagonal_row(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        assert complement_property_holds(m)

    def test_two_rows_fail(self):
        assert not complement_property_holds(np.eye(2))

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            complement_property_holds(np.ones((21, 2)))


class TestSigma:
    def test_dual_paths_bit_identical(self):
        rng = np.random.default_rng(0)
        for rows in (3, 4, 5, 6):
            m = rng.standard_normal((rows, 2))
            assert sigma_strong(m) == sigma_strong_recursive(m)

    def test_identity_plus_balanced_row(self):
        m = np.vstack([np.eye(2), np.array([[1.0, 1.0]]) / math.sqrt(2.0)])
        # worst split isolates one identity row; computed both ways by hand
        expected = math.sqrt(1.0 - 1.0 / math.sqrt(2.0))
        assert sigma_strong(m) == pytest.approx(expected, abs=1e-12)
        assert sigma_strong(m) == sigma_strong_recursive(m)

    def test_zero_row_keeps_sigma_positive_if_rest_retrieves(self):
        m = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        assert complement_property_holds(m)
        assert sigma_strong(m) > 0.0

    def test_sigma_zero_iff_complement_fails(self):
        good = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        bad = np.eye(2)
        assert sigma_strong(good) > 0.0
        assert sigma_strong(bad) == 0.0
        assert complement_property_holds(good)
        assert not complement_property_holds(bad)


class TestRealLocalStability:
    def test_degenerate_frame_raises(self):
        message = r"sigma = 0 <= DEGENERATE_RTOL \* lmax = 1e-12"
        with pytest.raises(DegenerateFrameError, match=message):
            real_local_stability(np.eye(2))

    def test_certified_dominates_sampled_ratios(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            m = rng.standard_normal((7, 3))
            c0 = real_local_stability(m)
            for _ in range(2000):
                f = rng.standard_normal(3)
                g = rng.standard_normal(3)
                x, y = m @ f, m @ g
                den = np.linalg.norm(np.abs(x) - np.abs(y))
                if den < 1e-12:
                    continue
                _, num = align_phase(x, y, REAL)
                assert num / den <= c0 * (1.0 + 1e-9)

    def test_certified_dominates_near_collinear(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((7, 3))
        c0 = real_local_stability(m)
        f = rng.standard_normal(3)
        for eps in np.logspace(-8, 0, 200):
            g = f + eps * rng.standard_normal(3)
            x, y = m @ f, m @ g
            den = np.linalg.norm(np.abs(x) - np.abs(y))
            if den < 1e-13 * np.linalg.norm(x):
                continue
            _, num = align_phase(x, y, REAL)
            assert num / den <= c0 * (1.0 + 1e-9)


class TestPFrameBounds:
    def test_p2_matches_singular_values(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 3))
        svals = np.linalg.svd(m, compute_uv=False)
        lo, hi = p_frame_bounds(m, 2.0)
        assert lo == pytest.approx(svals[-1])
        assert hi == pytest.approx(svals[0])

    @pytest.mark.parametrize("p", [1.0, 3.0])
    def test_bounds_sandwich_probes(self, p):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((5, 2))
        lo, hi = p_frame_bounds(m, p)
        for _ in range(3000):
            c = rng.standard_normal(2)
            val = np.sum(np.abs(m @ c) ** p) ** (1.0 / p) / np.sum(np.abs(c) ** p) ** (1.0 / p)
            assert lo - 1e-9 <= val <= hi + 1e-9

    def test_three_columns(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((7, 3))
        lo, hi = p_frame_bounds(m, 1.0, grid=20000)
        for _ in range(3000):
            c = rng.standard_normal(3)
            val = np.sum(np.abs(m @ c)) / np.sum(np.abs(c))
            assert lo - 1e-6 <= val <= hi + 1e-6

    def test_complex_matrix(self):
        # a float64 cast dropped the imaginary part: this returned the real
        # part's bounds (1.1756, 1.9021) with only a ComplexWarning
        m = np.array([[1, 0], [0, 1], [1, 1j], [1, 1]])
        svals = np.linalg.svd(m, compute_uv=False)
        assert p_frame_bounds(m, 2.0) == (svals[-1], svals[0])
        assert p_frame_bounds(m.real, 2.0) != p_frame_bounds(m, 2.0)
        with pytest.raises(FieldError):
            p_frame_bounds(m, 3.0)

    def test_p2_keeps_real_bits(self):
        # integer and float32 input are factored in float64, as before
        m = np.array([[1, 0], [0, 2], [1, 1]])
        svals = np.linalg.svd(m.astype(np.float64), compute_uv=False)
        for given in (m, m.astype(np.float32), m.tolist()):
            assert p_frame_bounds(given, 2.0) == (svals[-1], svals[0])


class TestEstimate:
    def test_estimate_at_least_one(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        est = estimate_local_stability(m, COMPLEX, 2.0, 500, rng)
        assert est >= 1.0

    def test_estimate_below_certified_for_real(self):
        rng = np.random.default_rng(7)
        m = rng.standard_normal((7, 3))
        est = estimate_local_stability(m, REAL, 2.0, 2000, rng)
        assert est <= real_local_stability(m) * (1.0 + 1e-9)

    @pytest.mark.parametrize("field", [COMPLEX, REAL])
    def test_chunks_match_one_batch(self, field):
        # windowed default frames (8a - 4 complex rows, 4a + 2 real) and odd
        # trial counts, so chunks of several widths and a short last one occur
        for a in (1, 2, 3, 6):
            rows = max(4 * a + 2, 8 * a - 4) if field == COMPLEX else 4 * a + 2
            m = gaussian(np.random.default_rng(a), (rows, 2 * a), field)
            for trials in (1, 3, 37, 1000, 4000):
                got = estimate_local_stability(m, field, 2.0, trials, np.random.default_rng(a))
                want = one_batch_estimate(m, field, 2.0, trials, np.random.default_rng(a))
                assert got == want, (a, trials)

    def test_peak_memory_in_chunks(self):
        m = gaussian(np.random.default_rng(2), (12, 4), COMPLEX)
        estimate_local_stability(m, COMPLEX, 2.0, 4000, np.random.default_rng(3))
        tracemalloc.start()
        try:
            estimate_local_stability(m, COMPLEX, 2.0, 4000, np.random.default_rng(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each draw is 4 x 2000 complex entries (128 kB); one batch peaked at 2.5 MB
        assert peak <= 1.2e6, peak
