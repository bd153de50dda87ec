import math

import numpy as np
import pytest

from lscc import certify, toy
from lscc.certify import COMPLEX_C0_MARGIN, SIGMA_BUDGET, estimate_local_stability
from lscc.errors import ClassError, FieldError, SchemeError
from lscc.graphs import is_connected
from lscc.measurement import COMPLEX, REAL, align_phase
from lscc.scheme import induce_graph, validate_scheme
from lscc.stability import prefactor
from lscc.windowed import (
    WindowedConfig,
    adversarial_pair,
    build_windowed_scheme,
    default_local_rows,
    fit_loglog_slope,
    lower_bound_constants,
    scaling_sweep,
    window_membership,
)
from oracles import sample_class_signal


class TestConfig:
    def test_dimension(self):
        assert WindowedConfig(a=2, L=8).d == 16

    def test_rejects_small_cycle(self):
        with pytest.raises(SchemeError):
            WindowedConfig(a=1, L=2)

    def test_rejects_bad_class_interval(self):
        with pytest.raises(SchemeError):
            WindowedConfig(a=1, L=4, s=2.0, t=1.0)


class TestConstruction:
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_axioms_validate(self, field):
        cfg = WindowedConfig(a=2, L=4, field=field, seed=0)
        scheme = build_windowed_scheme(cfg)
        for report in validate_scheme(scheme, trials=80, rng=np.random.default_rng(1)):
            assert report.passed, report

    def test_overlap_row_counts(self):
        cfg = WindowedConfig(a=3, L=5, seed=0)
        scheme = build_windowed_scheme(cfg)
        for mat in scheme.edge_functionals.values():
            assert mat.shape[0] == cfg.a

    def test_cycle_degree_two(self):
        scheme = build_windowed_scheme(WindowedConfig(a=1, L=6, seed=0))
        assert scheme.graph.degree_bound == 2

    def test_toy_style_local_frame(self):
        rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        cfg = WindowedConfig(a=1, L=3, local_rows=rows)
        scheme = build_windowed_scheme(cfg)
        assert scheme.num_vertices == 3
        for report in validate_scheme(scheme, trials=60, rng=np.random.default_rng(2)):
            assert report.passed

    def test_caller_arrays_stay_writable(self):
        rows = default_local_rows(WindowedConfig(a=1, L=4))
        scheme = build_windowed_scheme(WindowedConfig(a=1, L=4, local_rows=rows))
        assert rows.flags.writeable
        frames = scheme.vertex_frames
        assert not frames[0].rows.flags.writeable
        assert frames[0].rows is frames[1].rows is frames[2].rows  # one block, shared
        kept = frames[0].rows.copy()
        rows[0, 0] += 1.0
        assert np.array_equal(frames[0].rows, kept)
        toy.toy_scheme()
        assert toy._LOCAL_ROWS.flags.writeable

    def test_rejects_rank_deficient_local_frame(self):
        rows = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        with pytest.raises(SchemeError):
            build_windowed_scheme(WindowedConfig(a=1, L=3, local_rows=rows))

    def test_complex_needs_enough_rows(self):
        rows = np.eye(2, dtype=complex)
        with pytest.raises(SchemeError):
            build_windowed_scheme(WindowedConfig(a=1, L=3, field=COMPLEX, local_rows=rows))

    @pytest.mark.parametrize("field, a", [(REAL, 5), (COMPLEX, 1), (COMPLEX, 2)])
    def test_sampled_c0(self, field, a):
        # real frames past SIGMA_BUDGET rows and complex frames share one
        # estimate: 4000 sampled pairs on default_rng(seed + 1), doubled
        cfg = WindowedConfig(a=a, L=4, field=field, seed=3)
        local = default_local_rows(cfg)
        assert field == COMPLEX or local.shape[0] > SIGMA_BUDGET
        est = estimate_local_stability(local, field, 2.0, 4000, np.random.default_rng(4))
        assert build_windowed_scheme(cfg).local_stability == COMPLEX_C0_MARGIN * est

    def test_supports_cover_each_coordinate_twice(self):
        cfg = WindowedConfig(a=2, L=5, seed=0)
        counts = np.zeros(cfg.d, dtype=int)
        for support in build_windowed_scheme(cfg).vertex_projections:
            counts[support] += 1
        assert np.all(counts == 2)

    def test_projection_axioms(self):
        # windows share the local block; the wrap window (coordinates 6, 7, 0, 1)
        # stores it with columns in the order of its sorted support [0, 1, 6, 7]
        cfg = WindowedConfig(a=2, L=4, field=COMPLEX, seed=0)
        scheme = build_windowed_scheme(cfg)
        local = default_local_rows(cfg)
        frames = scheme.vertex_frames
        assert frames[0] is frames[1] is frames[2]
        assert np.array_equal(frames[0].rows, local)
        assert scheme.vertex_projections[3].tolist() == [0, 1, 6, 7]
        assert np.array_equal(frames[3].rows, local[:, [2, 3, 0, 1]])


class TestMembership:
    def test_all_ones(self):
        cfg = WindowedConfig(a=2, L=4)
        assert window_membership(cfg, np.ones(8)).in_class

    def test_zero_coordinate_excluded_when_a_is_one(self):
        cfg = WindowedConfig(a=1, L=4, s=0.5, t=2.0)
        f = np.array([1.0, 1.0, 0.0, 1.0])
        assert not window_membership(cfg, f).in_class

    def test_roots_of_unity_in_class(self):
        cfg = WindowedConfig(a=2, L=4, field=COMPLEX)
        g = np.exp(2j * math.pi * np.arange(8) / 8)
        assert window_membership(cfg, g).in_class

    @pytest.mark.parametrize("a, L", [(1, 3), (2, 5), (3, 4), (5, 7)])
    def test_window_averages_match_loop(self, a, L):
        # each cyclic a-window average, one np.mean per window
        cfg = WindowedConfig(a=a, L=L, field=COMPLEX)
        rng = np.random.default_rng(a * L)
        f = sample_class_signal(cfg, rng) * 10.0 ** rng.uniform(-4, 4, cfg.d)
        sq = np.abs(f) ** 2
        loop = [np.mean(sq[[(j + i) % cfg.d for i in range(a)]]) for j in range(cfg.d)]
        assert np.array_equal(window_membership(cfg, f).window_averages, loop)

    def test_sampled_members_always_in_class(self):
        cfg = WindowedConfig(a=2, L=6, field=COMPLEX, s=0.7, t=1.8)
        rng = np.random.default_rng(3)
        for _ in range(100):
            assert window_membership(cfg, sample_class_signal(cfg, rng)).in_class

    def test_class_members_induce_full_cycle(self):
        cfg = WindowedConfig(a=2, L=6, s=0.5, t=2.0)
        scheme = build_windowed_scheme(cfg)
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = induce_graph(scheme, sample_class_signal(cfg, rng))
            assert g.num_vertices == cfg.L
            assert len(g.edges) == cfg.L
            assert is_connected(g)


class TestAdversarialPair:
    def test_real_field_rejected(self):
        with pytest.raises(FieldError):
            adversarial_pair(WindowedConfig(a=1, L=4, field=REAL))

    def test_requires_ones_in_class(self):
        with pytest.raises(ClassError):
            adversarial_pair(WindowedConfig(a=1, L=4, field=COMPLEX, s=2.0, t=3.0))

    def test_roots_of_unity_alignment_identity(self):
        # sum_k |1 - xi q_k|^2 = 2d for every unimodular xi
        rng = np.random.default_rng(5)
        for d in (8, 12, 30):
            q = np.exp(2j * math.pi * np.arange(d) / d)
            for _ in range(20):
                xi = np.exp(2j * math.pi * rng.random())
                total = np.sum(np.abs(1.0 - xi * q) ** 2)
                assert total == pytest.approx(2.0 * d, rel=1e-12)

    @pytest.mark.parametrize("a,L", [(1, 8), (1, 16), (2, 8), (2, 16), (2, 32)])
    def test_measured_dominates_closed_forms(self, a, L):
        cfg = WindowedConfig(a=a, L=L, field=COMPLEX, seed=6)
        pair = adversarial_pair(cfg)
        floor = min(pair.statement_bound, pair.proof_bound)
        assert pair.measured_ratio >= floor * (1.0 - 1e-9)

    def test_pair_members_in_class(self):
        cfg = WindowedConfig(a=2, L=8, field=COMPLEX)
        pair = adversarial_pair(cfg)
        assert window_membership(cfg, pair.f).in_class
        assert window_membership(cfg, pair.g).in_class

    @pytest.mark.parametrize("a", [1, 2])
    @pytest.mark.parametrize("L", [8, 16, 64])
    def test_matches_own_ratio_rule(self, a, L):
        # the ratio adversarial_pair computed before it used pair_ratios
        cfg = WindowedConfig(a=a, L=L, field=COMPLEX)
        scheme = build_windowed_scheme(cfg)
        pair = adversarial_pair(cfg, scheme)
        x, y = scheme.measure(pair.f), scheme.measure(pair.g)
        _, num = align_phase(x, y, COMPLEX, 2.0)
        den = float(np.linalg.norm(np.abs(x) - np.abs(y)))
        assert pair.measured_ratio == (num / den if den > 0.0 else math.inf)

    def test_ratio_roughly_doubles_with_L(self):
        measured = {}
        for L in (16, 32, 64):
            cfg = WindowedConfig(a=2, L=L, field=COMPLEX, seed=7)
            measured[L] = adversarial_pair(cfg).measured_ratio
        slope = fit_loglog_slope([16, 32, 64], [measured[L] for L in (16, 32, 64)])
        assert 0.8 <= slope <= 1.2


class TestShiftCovariance:
    def test_shift_permutes_phaseless_measurements(self):
        cfg = WindowedConfig(a=2, L=5, seed=8)
        scheme = build_windowed_scheme(cfg)
        rng = np.random.default_rng(9)
        f = rng.standard_normal(cfg.d)
        shifted = np.roll(f, cfg.a)
        original = np.sort(scheme.phaseless(f))
        moved = np.sort(scheme.phaseless(shifted))
        assert np.allclose(original, moved, rtol=1e-12)


class TestLowerBounds:
    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    def test_floors_hold_on_class_samples(self, field):
        cfg = WindowedConfig(a=2, L=8, field=field, s=0.8, t=1.5, seed=10)
        scheme = build_windowed_scheme(cfg)
        rng = np.random.default_rng(11)
        for _ in range(25):
            f = sample_class_signal(cfg, rng)
            check = lower_bound_constants(cfg, f, scheme)
            assert check.ok

    def test_rejects_non_members(self):
        cfg = WindowedConfig(a=1, L=4, s=0.9, t=1.1)
        with pytest.raises(ClassError):
            lower_bound_constants(cfg, np.array([5.0, 1.0, 1.0, 1.0]))

    def test_l4_reference_values(self):
        from lscc.windowed import unweighted_cycle_cheeger, unweighted_cycle_lambda

        assert unweighted_cycle_cheeger(4) == pytest.approx(1.0)
        assert unweighted_cycle_lambda(4) == pytest.approx(2.0)

    @pytest.mark.parametrize("L", [3, 64, 4096, 1 << 20])
    def test_cycle_lambda_without_cancellation(self, L):
        mpmath = pytest.importorskip("mpmath")
        from lscc.windowed import unweighted_cycle_lambda

        with mpmath.workdps(50):
            exact = 2 * (1 - mpmath.cos(2 * mpmath.pi / L))
            assert abs(unweighted_cycle_lambda(L) - exact) <= 1e-15 * exact

    def test_scaled_signal_same_floor_behavior(self):
        cfg = WindowedConfig(a=1, L=6, s=1.0, t=1.0, seed=12)
        scheme = build_windowed_scheme(cfg)
        one = np.ones(6)
        c1 = lower_bound_constants(cfg, one, scheme)
        cfg2 = WindowedConfig(a=1, L=6, s=2.0, t=2.0, seed=12, local_rows=cfg.local_rows)
        c2 = lower_bound_constants(cfg2, 2.0 * one, scheme)
        assert c1.ok and c2.ok
        assert c2.cheeger_value == pytest.approx(c1.cheeger_value, rel=1e-10)
        assert c2.cheeger_floor == pytest.approx(c1.cheeger_floor, rel=1e-10)


class TestScalingSweep:
    def test_single_L_row(self):
        rows = scaling_sweep(1, [8], REAL, trials=50, seed=13)
        assert len(rows) == 1
        row = rows[0]
        assert row["bound"] >= row["empirical_ratio"]

    def test_rejects_unsorted(self):
        with pytest.raises(SchemeError):
            scaling_sweep(1, [16, 8], REAL)

    @pytest.mark.parametrize(
        "field, search", [(REAL, "sigma_and_complement"), (COMPLEX, "estimate_local_stability")]
    )
    def test_certifies_once_per_sweep(self, monkeypatch, field, search):
        calls = []
        original = getattr(certify, search)
        monkeypatch.setattr(certify, search, lambda *a: calls.append(1) or original(*a))
        rows = scaling_sweep(1, [4, 8, 16], field, trials=10, seed=3)
        assert len(calls) == 1
        # each row's prefactor is the one a scheme certified for its own L has
        for row in rows:
            scheme = build_windowed_scheme(WindowedConfig(a=1, L=row["L"], field=field, seed=3))
            assert row["C2_or_C3"] == prefactor(scheme)

    def test_real_slope_near_half(self):
        rows = scaling_sweep(2, [8, 16, 32, 64], REAL, trials=40, seed=14)
        slope = fit_loglog_slope([r["L"] for r in rows], [r["bound"] for r in rows])
        assert 0.35 <= slope <= 0.65

    def test_complex_slopes_near_one(self):
        rows = scaling_sweep(2, [8, 16, 32, 64], COMPLEX, trials=40, seed=15)
        ls = [r["L"] for r in rows]
        bound_slope = fit_loglog_slope(ls, [r["bound"] for r in rows])
        adv_slope = fit_loglog_slope(ls, [r["adversarial_ratio"] for r in rows])
        assert 0.8 <= bound_slope <= 1.2
        assert 0.8 <= adv_slope <= 1.2
        for row in rows:
            assert row["bound"] >= row["adversarial_ratio"] * (1.0 - 1e-9)
