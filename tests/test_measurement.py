import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lscc
from lscc.errors import DimensionError, FieldError, UnsupportedPError
from lscc.measurement import (
    COLLISION_RTOL,
    COMPLEX,
    DENOM_CUTOFF,
    REAL,
    Frame,
    align_phase,
    align_phase_batch,
    p_norm,
    p_norms,
    pair_ratios,
    ratio_brackets,
)
from lscc.harness import BOUND_SLACK, derive_rng, inequality_suite
from lscc.graphs import WeightedGraph
from lscc.scheme import LsccScheme
from lscc.toy import FIXTURE_BROKEN, FIXTURE_BROKEN_TWIN, toy_scheme

TOY_LOCAL = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]])


def measure(frame, f):
    """f measured by a one-vertex scheme whose frame sees every coordinate."""
    scheme = LsccScheme(
        name="one-frame",
        field=frame.field,
        p=2.0,
        ambient_dim=frame.rows.shape[1],
        graph=WeightedGraph(np.ones(1)),
        vertex_frames=(frame,),
        vertex_projections=[np.arange(frame.rows.shape[1])],
        edge_functionals=(),
        edge_supports=(),
        local_stability=1.0,
        edge_domination=1.0,
        frame_lower=0.0,
        frame_upper=math.inf,
        exhaustion_lower=1.0,
        exhaustion_upper=1.0,
    )
    return scheme.measure(f)


def phaseless_measure(frame, f):
    return np.abs(measure(frame, f))


def linear_align(x, y):
    """Scalar c minimizing ||x - c*y||_2 (least squares) and the residual."""
    xv, yv = np.asarray(x).ravel(), np.asarray(y).ravel()
    ynorm2 = float(np.vdot(yv, yv).real)
    if ynorm2 == 0.0:
        return 0.0 + 0.0j, float(np.linalg.norm(xv))
    c = np.vdot(yv, xv) / ynorm2
    return complex(c), float(np.linalg.norm(xv - c * yv))


def alignment_holds(x, y, tol=1e-9, factor=math.sqrt(2.0)):
    """min_{|xi|=1} ||x - xi y||_2 <= factor * min_c ||x - c y||_2 + || |x|-|y| ||_2 + tol,
    one pair at a time: the scalar oracle of inequality_suite's part one."""
    xv = np.asarray(x, dtype=np.complex128).ravel()
    yv = np.asarray(y, dtype=np.complex128).ravel()
    _, lhs = align_phase(xv, yv, COMPLEX, 2.0)
    _, linear_res = linear_align(xv, yv)
    modulus_gap = float(np.linalg.norm(np.abs(xv) - np.abs(yv)))
    return lhs <= factor * linear_res + modulus_gap + tol


def finite_vectors(length, complex_=False):
    elems = st.floats(-10.0, 10.0, allow_nan=False)
    base = st.lists(elems, min_size=length, max_size=length)
    if not complex_:
        return base.map(np.array)
    return st.tuples(base, base).map(lambda ab: np.array(ab[0]) + 1j * np.array(ab[1]))


class TestMeasure:
    def test_identity(self):
        frame = Frame(np.eye(4))
        assert np.array_equal(measure(frame, np.array([1.0, 2.0, 3.0, 4.0])), [1, 2, 3, 4])

    def test_toy_first_window(self):
        frame = Frame(TOY_LOCAL)
        assert np.array_equal(measure(frame, np.array([1.0, 2.0, 0.0, 1.0])), [1.0, 2.0, 3.0])

    def test_zero_signal(self):
        rng = np.random.default_rng(0)
        frame = Frame(rng.standard_normal((5, 3)))
        assert np.array_equal(measure(frame, np.zeros(3)), np.zeros(5))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            measure(Frame(np.eye(3)), np.ones(4))

    def test_real_frame_rejects_complex_signal(self):
        with pytest.raises(FieldError):
            measure(Frame(np.eye(2)), np.array([1j, 0.0]))

    def test_conjugate_linear_in_rows(self):
        frame = Frame(np.array([[1j, 0.0]]), field=COMPLEX)
        out = measure(frame, np.array([1.0 + 0j, 0.0]))
        assert out[0] == pytest.approx(-1j)


class TestPhaseless:
    def test_toy_collision_pair(self):
        frame = Frame(TOY_LOCAL)
        a = phaseless_measure(frame, np.array([1.0, 2.0, 0.0, -1.0]))
        b = phaseless_measure(frame, np.array([1.0, 2.0, 0.0, 1.0]))
        assert np.array_equal(a, [1.0, 2.0, 3.0])
        assert np.array_equal(a, b)

    def test_global_sign_invariance(self):
        rng = np.random.default_rng(1)
        frame = Frame(rng.standard_normal((6, 4)))
        f = rng.standard_normal(4)
        assert np.array_equal(phaseless_measure(frame, f), phaseless_measure(frame, -f))

    def test_complex_modulus(self):
        frame = Frame(np.array([[1.0, 1j]]), field=COMPLEX)
        out = phaseless_measure(frame, np.array([1.0 + 0j, 1.0 + 0j]))
        # |1 - i| from the conjugated row
        assert out[0] == pytest.approx(math.sqrt(2.0))


class TestPNorm:
    def test_pythagorean(self):
        assert p_norm([3.0, 4.0], 2.0) == pytest.approx(5.0)

    def test_l1(self):
        assert p_norm([1.0, 1.0, 1.0], 1.0) == pytest.approx(3.0)

    def test_cubic(self):
        assert p_norm([1.0, 2.0, 3.0], 3.0) == pytest.approx(36.0 ** (1.0 / 3.0))

    def test_rejects_bad_p(self):
        with pytest.raises(FieldError):
            p_norm([1.0], 0.5)

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3.0])
    def test_matches_numpy_norm_bit_for_bit(self, p):
        # p_norm inlines np.linalg.norm's 1-D routes; any reordered sum shows here
        rng = np.random.default_rng(40)
        scales = 10.0 ** rng.uniform(-8, 8, 64)
        real = rng.standard_normal(64) * scales
        cplx = real + 1j * rng.standard_normal(64) * scales[::-1]
        wide = rng.standard_normal((9, 12))
        cases = [
            real,
            cplx,
            rng.integers(-9, 9, 31),
            np.array([True, False, True]),
            np.zeros(0),
            np.zeros(0, dtype=np.complex128),
            real[::3],  # strided views
            cplx[::-2],
            cplx.real,
            wide[:, 1::4],  # non-contiguous 2-D, flattened
            wide.T,
            real.tolist(),
        ]
        for x in cases:
            expected = np.linalg.norm(np.asarray(x).ravel(), ord=p)
            got = p_norm(x, p)
            assert type(got) is float
            assert got == expected, (x, p)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_row_norms_match_p_norm_bit_for_bit(self, p, field):
        rng = np.random.default_rng(41)
        rows = rng.standard_normal((20, 37)) * 10.0 ** rng.uniform(-6, 6, (20, 1))
        if field == COMPLEX:
            rows = rows + 1j * rng.standard_normal((20, 37))
        norms = p_norms(rows, p)
        assert norms.shape == (20,)
        assert all(norms[k] == p_norm(rows[k], p) for k in range(20))

    @given(finite_vectors(5), finite_vectors(5), st.floats(1.0, 6.0))
    @settings(max_examples=150, deadline=None)
    def test_triangle_inequality(self, x, y, p):
        assert p_norm(x + y, p) <= p_norm(x, p) + p_norm(y, p) + 1e-12

    @given(finite_vectors(5), st.floats(-5.0, 5.0), st.floats(1.0, 6.0))
    @settings(max_examples=150, deadline=None)
    def test_homogeneity(self, x, c, p):
        assert p_norm(c * x, p) == pytest.approx(abs(c) * p_norm(x, p), abs=1e-12)


class TestAlignPhase:
    def test_identity(self):
        xi, res = align_phase([1.0, 2.0], [1.0, 2.0], REAL)
        assert xi == 1.0 and res == 0.0

    def test_sign_flip(self):
        xi, res = align_phase([1.0, 2.0], [-1.0, -2.0], REAL)
        assert xi == -1.0 and res == 0.0

    def test_complex_closed_form(self):
        xi, res = align_phase(np.array([1.0 + 0j, 0.0]), np.array([1j, 0.0]), COMPLEX)
        assert xi == pytest.approx(-1j)
        assert res == pytest.approx(0.0, abs=1e-15)

    def test_zero_inner_product_tiebreak(self):
        xi, _ = align_phase(np.array([1.0 + 0j, 0.0]), np.array([0.0, 1.0 + 0j]), COMPLEX)
        assert xi == 1.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            align_phase([1.0], [1.0, 2.0], REAL)

    def test_real_residual_is_exact_minimum(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x, y = rng.standard_normal(6), rng.standard_normal(6)
            _, res = align_phase(x, y, REAL)
            assert res == min(np.linalg.norm(x - y), np.linalg.norm(x + y))

    def test_complex_p2_beats_random_unimodular(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        _, res = align_phase(x, y, COMPLEX)
        xis = np.exp(2j * math.pi * rng.random(10_000))
        sampled = np.linalg.norm(x[:, None] - xis[None, :] * y[:, None], axis=0)
        assert res <= sampled.min() + 1e-9

    def test_complex_p_not_two_is_refused(self):
        # a complex scheme is a p = 2 scheme: no kernel aligns complex p != 2
        rng = np.random.default_rng(5)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        for p in (1.0, 3.0):
            with pytest.raises(UnsupportedPError, match="p = 2"):
                align_phase(x, y, COMPLEX, p)
            with pytest.raises(UnsupportedPError, match="p = 2"):
                align_phase_batch(x[:, None], y[:, None], COMPLEX, p)
            with pytest.raises(UnsupportedPError, match="p = 2"):
                pair_ratios(x, y, COMPLEX, p)
            with pytest.raises(UnsupportedPError, match="p = 2"):
                pair_ratios(x, y[:, None], COMPLEX, p)
            with pytest.raises(UnsupportedPError, match="p = 2"):
                ratio_brackets(x, y[:, None], COMPLEX, p)

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(6)
        for field, cplx in ((REAL, False), (COMPLEX, True)):
            x = rng.standard_normal((7, 20))
            y = rng.standard_normal((7, 20))
            if cplx:
                x = x + 1j * rng.standard_normal((7, 20))
                y = y + 1j * rng.standard_normal((7, 20))
            for p in (2.0,) if cplx else (2.0, 1.0, 3.0):
                phases, residuals = align_phase_batch(x, y, field, p)
                for j in range(20):
                    xi, res = align_phase(x[:, j], y[:, j], field, p)
                    assert phases[j] == pytest.approx(xi, abs=1e-12)
                    assert residuals[j] == pytest.approx(res, rel=1e-12)


def _columns(rng, field, m, t):
    cols = rng.standard_normal((m, t))
    if field == COMPLEX:
        cols = cols + 1j * rng.standard_normal((m, t))
    return cols


def _reference_pair_ratios(x, ys, field, p):
    """The 2-D pair_ratios route in plain broadcast form (x broadcast to ys'
    shape, fresh temporaries, den from |x| - |y|): the oracle of the in-place route."""

    def column_pnorms(arr):
        if p == 2.0:
            return np.linalg.norm(arr, axis=0)
        return np.sum(np.abs(arr) ** p, axis=0) ** (1.0 / p)

    scale = p_norm(x, p) if x.ndim == 1 else column_pnorms(x)
    x = np.broadcast_to(x.reshape(len(x), -1), ys.shape)
    den = column_pnorms(np.abs(x) - np.abs(ys))
    if field == REAL:
        num = np.minimum(column_pnorms(x - ys), column_pnorms(x + ys))
    else:
        inner = np.sum(x * np.conj(ys), axis=0)
        mag = np.abs(inner)
        xi = np.where(mag > 0.0, inner / np.where(mag > 0.0, mag, 1.0), 1.0)
        num = np.linalg.norm(x - xi[None, :] * ys, axis=0)
    floor = np.maximum(scale, 1e-300)
    equivalent = den <= DENOM_CUTOFF * floor
    return num, den, equivalent, equivalent & (num > COLLISION_RTOL * floor)


def _special_columns(rng, field, x, t):
    """t random columns, then a zero column, x, -x, |x| and (complex) e^{0.7i} x."""
    extra = [np.zeros_like(x), x, -x, np.abs(x)] + ([np.exp(0.7j) * x] if field == COMPLEX else [])
    return np.column_stack([_columns(rng, field, len(x), t)] + extra)


class TestPairRatios:
    @pytest.mark.parametrize(
        "field, p", [(REAL, 1.0), (REAL, 2.0), (REAL, 3.0), (COMPLEX, 2.0)]
    )
    def test_batched_route_matches_reference_formulas(self, field, p):
        # bit for bit in the real field; the complex products may round
        # differently (FMA, broadcast loops), so 1e-15 relative there, with
        # cancelled residues of unimodular multiples compared against ||x||
        rng = np.random.default_rng(13)
        x = _columns(rng, field, 40, 1)[:, 0]
        ys = _special_columns(rng, field, x, 30)
        cases = [
            (x, ys),
            (np.zeros_like(x), ys),  # x = 0
            (_columns(rng, field, 40, ys.shape[1]), ys),  # same-shape x
        ]
        for refs, batch in cases:
            got = pair_ratios(refs, batch, field, p)
            want = _reference_pair_ratios(refs, batch, field, p)
            for g, w in zip(got[2:], want[2:]):
                assert np.array_equal(g, w)
            for g, w in zip(got[:2], want[:2]):
                if field == REAL:
                    assert np.array_equal(g, w)
                else:
                    atol = 1e-15 * np.linalg.norm(refs, axis=0)
                    assert np.all(np.abs(g - w) <= 1e-15 * np.abs(w) + atol)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_scalar_and_batched_routes_agree(self, field, p):
        rng = np.random.default_rng(11)
        x = _columns(rng, field, 6, 1)[:, 0]
        ys = _columns(rng, field, 6, 12)
        ys[:, 0] = x  # identical
        ys[:, 1] = -x  # phase-equivalent in both fields
        ys[:, 2] = 0.0  # phaseless distance ||x||_p
        ys[:, 3] = np.abs(x)  # equal moduli, no common phase in general
        scale = p_norm(x, p)
        for refs in (x, np.repeat(x[:, None], ys.shape[1], axis=1)):
            if field == COMPLEX and p != 2.0:  # a complex scheme is a p = 2 scheme
                for pair in ((refs, ys), (x, ys[:, 0])):
                    with pytest.raises(UnsupportedPError, match="p = 2"):
                        pair_ratios(*pair, field, p)
                continue
            num, den, equivalent, collision = pair_ratios(refs, ys, field, p)
            for j in range(ys.shape[1]):
                n1, d1, e1, c1 = pair_ratios(x, ys[:, j], field, p)
                assert e1 == equivalent[j] and c1 == collision[j]
                assert num[j] == pytest.approx(n1, rel=1e-12, abs=1e-12 * scale)
                assert den[j] == pytest.approx(d1, rel=1e-12, abs=1e-12 * scale)
        if field == COMPLEX and p != 2.0:
            return
        assert list(equivalent[:4]) == [True, True, False, True]
        assert list(collision[:4]) == [False, False, False, True]
        assert not np.any(equivalent[4:])

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_zero_pair_is_equivalent(self, field):
        zero = np.zeros(5)
        num, den, equivalent, collision = pair_ratios(zero, zero, field)
        assert num == 0.0 and den == 0.0
        assert equivalent and not collision
        if field == COMPLEX:
            with pytest.raises(UnsupportedPError, match="p = 2"):
                pair_ratios(zero, np.zeros((5, 3)), field, 3.0)
            return
        _, _, equivalent, collision = pair_ratios(zero, np.zeros((5, 3)), field, 3.0)
        assert np.all(equivalent) and not np.any(collision)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_unimodular_multiple_is_equivalent(self, p):
        rng = np.random.default_rng(12)
        x = _columns(rng, COMPLEX, 8, 1)[:, 0]
        for xi in (np.exp(0.7j), -1.0, 1j):
            if p != 2.0:
                with pytest.raises(UnsupportedPError, match="p = 2"):
                    pair_ratios(x, xi * x, COMPLEX, p)
                continue
            _, _, equivalent, collision = pair_ratios(x, xi * x, COMPLEX, p)
            assert equivalent and not collision
        _, _, equivalent, collision = pair_ratios(x.real, -x.real, REAL, p)
        assert equivalent and not collision

    def test_broken_twin_is_collision(self):
        toy = toy_scheme()
        x = toy.measure(FIXTURE_BROKEN)
        y = toy.measure(FIXTURE_BROKEN_TWIN)
        num, den, equivalent, collision = pair_ratios(x, y, REAL, toy.p)
        assert den == 0.0 and num > 0.0
        assert equivalent and collision
        _, _, equivalent, collision = pair_ratios(x, y[:, None], REAL, toy.p)
        assert equivalent[0] and collision[0]


def assert_brackets_hold(x, ys, field):
    """Every column pair_ratios calls equivalent (collisions included) is
    undecided, and every other column's ratio lies in its bracket."""
    lo, hi = ratio_brackets(x, ys, field)
    num, den, equivalent, _ = pair_ratios(x, ys, field)
    undecided = (lo == -np.inf) & (hi == np.inf)
    assert np.all(undecided[equivalent])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = num[~equivalent] / den[~equivalent]
    assert np.all((lo[~equivalent] <= ratio) & (ratio <= hi[~equivalent]))
    return lo, hi, undecided


def _near_multiples(rng, field, x):
    """y = +-x and xi x exactly, then xi x + delta for delta = 1e-6 ... 1e-15
    relative, then equal moduli with no common phase, then a zero column."""
    phases = [1.0, -1.0] + ([1j, -1j, np.exp(0.7j)] if field == COMPLEX else [])
    cols = [xi * x for xi in phases]
    for delta in 10.0 ** -np.arange(6, 16):
        for xi in phases:
            cols.append(xi * x + delta * np.linalg.norm(x) * _columns(rng, field, len(x), 1)[:, 0])
    flip = x.copy()
    flip[-1] *= np.exp(2.0j) if field == COMPLEX else -1.0
    cols.append(flip)
    return np.column_stack(cols + [np.zeros_like(x)])


class TestRatioBrackets:
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("m", [1, 4, 9, 40, 192])
    def test_random_batches(self, field, m):
        rng = np.random.default_rng(m)
        x = _columns(rng, field, m, 1)[:, 0]
        lo, hi, undecided = assert_brackets_hold(x, _columns(rng, field, m, 500), field)
        assert not np.any(undecided)
        assert np.median((hi - lo) / hi) < 1e-10  # tight enough to screen

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150, 1e-310])
    def test_adversarial_columns(self, field, scale):
        rng = np.random.default_rng(21)
        for m in (2, 8, 64):
            x = _columns(rng, field, m, 1)[:, 0]
            x[0] = 0.0
            ys = np.column_stack([_near_multiples(rng, field, x), _columns(rng, field, m, 20)])
            for ref in (x, np.zeros_like(x)):
                _, _, undecided = assert_brackets_hold(scale * ref, scale * ys, field)
                if scale < 1.0:  # squares below 1e-250: nothing decided
                    assert np.all(undecided)
            _, _, equivalent, collision = pair_ratios(x, ys, field)
            assert np.any(equivalent) and (m == 2 or np.any(collision))

    def test_subnormal_entries(self):
        rng = np.random.default_rng(5)
        x = _columns(rng, COMPLEX, 16, 1)[:, 0]
        ys = _columns(rng, COMPLEX, 16, 50)
        ys[3] = 1e-310
        x[5] = 5e-324
        assert_brackets_hold(x, ys, COMPLEX)
        assert_brackets_hold(x.real, ys.real, REAL)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_undecided_at_p_other_than_2(self, field):
        rng = np.random.default_rng(8)
        x = _columns(rng, field, 6, 1)[:, 0]
        for p in (1.0, 3.0):
            if field == COMPLEX:  # a complex scheme is a p = 2 scheme
                with pytest.raises(UnsupportedPError, match="p = 2"):
                    ratio_brackets(x, _columns(rng, field, 6, 30), field, p)
                continue
            lo, hi = ratio_brackets(x, _columns(rng, field, 6, 30), field, p)
            assert np.all(lo == -np.inf) and np.all(hi == np.inf)

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_strided_batch(self, field):
        rng = np.random.default_rng(9)
        x = _columns(rng, field, 12, 1)[:, 0]
        ys = _columns(rng, field, 12, 40)
        for got, want in zip(ratio_brackets(x, ys[:, ::2], field), ratio_brackets(x, ys, field)):
            assert np.array_equal(got, want[::2])

    @given(
        finite_vectors(6, complex_=True),
        finite_vectors(6, complex_=True),
        st.sampled_from([1.0, -1.0, 1j, np.exp(2.1j)]),
        st.integers(0, 17),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_brackets_contain_the_exact_ratio(self, x, y, xi, digits, real):
        if real:
            x, y, xi = x.real, y.real, np.sign(xi.real) or 1.0
        cols = np.column_stack([y, xi * x + 10.0**-digits * y, xi * x])
        assert_brackets_hold(x, cols, REAL if real else COMPLEX)


class TestPhaseInvariance:
    @given(finite_vectors(4))
    @settings(max_examples=100, deadline=None)
    def test_sign_flip_bit_level(self, f):
        frame = Frame(TOY_LOCAL)
        assert np.array_equal(phaseless_measure(frame, f), phaseless_measure(frame, -f))

    @given(finite_vectors(4, complex_=True), st.floats(0.0, 2.0 * math.pi))
    @settings(max_examples=100, deadline=None)
    def test_unimodular_componentwise(self, f, theta):
        rng = np.random.default_rng(7)
        frame = Frame(
            rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4)), field=COMPLEX
        )
        xi = np.exp(1j * theta)
        a = phaseless_measure(frame, xi * f)
        b = phaseless_measure(frame, f)
        assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(b))


class TestLinearAlignment:
    def test_zero_y_reduces_to_norm(self):
        x = np.array([3.0 + 0j, 4.0])
        c, res = linear_align(x, np.zeros(2, dtype=complex))
        assert c == 0.0 and res == pytest.approx(5.0)

    def test_exact_fit(self):
        y = np.array([1.0 + 1j, 2.0])
        c, res = linear_align(3.5 * y, y)
        assert c == pytest.approx(3.5)
        assert res == pytest.approx(0.0, abs=1e-12)

    def test_inequality_zero_y(self):
        assert alignment_holds(np.array([1.0 + 0j, 2.0]), np.zeros(2))

    def test_inequality_equal_vectors(self):
        x = np.array([1.0 + 2j, -0.5])
        assert alignment_holds(x, x)

    def test_inequality_fuzz(self):
        rng = np.random.default_rng(8)
        for _ in range(10_000):
            x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            assert alignment_holds(x, y)

    @pytest.mark.parametrize("factor", [math.sqrt(2.0), 0.5])
    def test_scalar_loop_matches_inequality_suite(self, monkeypatch, factor):
        # the suite's draws, pair by pair; at factor 0.5 the inequality is
        # false for many pairs, and both routes must count the same ones
        import types

        from lscc import harness

        trials, length = 2000, 16
        monkeypatch.setattr(harness, "math", types.SimpleNamespace(sqrt=lambda _: factor))
        counted = inequality_suite(seed=5, trials=trials, length=length)["alignment_violations"]
        rng = derive_rng(5, "alignment-suite")
        x = rng.standard_normal((length, trials)) + 1j * rng.standard_normal((length, trials))
        y = rng.standard_normal((length, trials)) + 1j * rng.standard_normal((length, trials))
        y[:, 0] = 0.0
        y[:, 1] = x[:, 1]
        bad = 0
        for a, b in zip(x.T, y.T):
            tol = BOUND_SLACK * (np.linalg.norm(a) + np.linalg.norm(b) + 1.0)
            bad += not alignment_holds(a, b, tol, factor)
        assert bad == counted
        assert (bad == 0) == (factor == math.sqrt(2.0))

    @given(finite_vectors(6, complex_=True), finite_vectors(6, complex_=True))
    @settings(max_examples=200, deadline=None)
    def test_reverse_triangle_on_moduli(self, x, y):
        lhs = abs(np.linalg.norm(x) - np.linalg.norm(y))
        rhs = np.linalg.norm(np.abs(x) - np.abs(y))
        assert lhs <= rhs + 1e-9


class TestTypes:
    def test_coerce_rejects_complex_in_real_field(self):
        with pytest.raises(FieldError):
            toy_scheme().coerce(np.array([1j, 0.0, 0.0, 0.0]))

    def test_frame_keeps_only_its_rows_and_field(self):
        # p and the frame constants A <= B are the scheme's alone
        assert [f.name for f in dataclasses.fields(Frame)] == ["rows", "field"]
        frame = Frame(np.eye(2, dtype=int), COMPLEX)
        assert frame.rows.dtype == np.complex128 and not frame.rows.flags.writeable
        assert not hasattr(lscc, "Signal") and not hasattr(lscc.measurement, "Signal")
