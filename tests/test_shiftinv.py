import math

import numpy as np
import pytest

from lscc import certify, shiftinv
from lscc.certify import complement_property_holds
from lscc.errors import DegenerateFrameError, SchemeError, UnsupportedPError
from lscc.graphs import cheeger_exact, cheeger_interval, is_connected
from lscc.measurement import align_phase
from lscc.scheme import induce_graph, validate_scheme
from lscc.shiftinv import (
    EXPONENTIAL,
    POLYNOMIAL,
    DecayProfile,
    GeneratorModel,
    ambient_dim,
    bspline,
    build_shiftinv_scheme,
    coefficient_index,
    sigma_based_constants,
    decay_cheeger_study,
    exponential_floor,
    profile_signal,
)
from lscc.windowed import fit_loglog_slope
from oracles import sigma_crosscheck


class TestBsplines:
    def test_hat_values(self):
        hat = bspline(2)
        assert hat(0.5) == pytest.approx(0.5)
        assert hat(1.0) == pytest.approx(1.0)
        assert hat(1.5) == pytest.approx(0.5)
        assert hat(2.0) == pytest.approx(0.0)
        assert hat(-0.1) == 0.0

    def test_partition_of_unity(self):
        for order in (2, 3, 4):
            b = bspline(order)
            xs = np.linspace(0.0, 1.0, 37, endpoint=False)
            for x in xs:
                total = sum(b(x - k) for k in range(-order, 1))
                assert total == pytest.approx(1.0, abs=1e-12)

    def test_support(self):
        b = bspline(3)
        assert b(3.0) == pytest.approx(0.0, abs=1e-15)
        assert b(1.5) > 0.0


class TestGeneratorModel:
    def test_hat_local_matrix_closed_form(self):
        gen = GeneratorModel(N=2)
        expected = np.array([[0.75, 0.25], [0.5, 0.5], [0.25, 0.75]])
        assert np.allclose(gen.local_matrix, expected, atol=1e-15)

    def test_local_matrix_is_retrieval_frame(self):
        for n in (2, 3):
            gen = GeneratorModel(N=n)
            assert complement_property_holds(gen.local_matrix)

    def test_needs_enough_offsets(self):
        with pytest.raises(SchemeError):
            GeneratorModel(N=3, offsets=(0.25, 0.75))

    @pytest.mark.parametrize("p", [0.0, -1.0, 0.5, math.nan, math.inf])
    def test_rejects_p_outside_one_to_inf(self, p):
        with pytest.raises(SchemeError, match=r"p must lie in \[1, inf\)"):
            GeneratorModel(N=2, p=p)

    def test_sigma_paths_bit_identical(self):
        for n in (2, 3):
            a, b = sigma_crosscheck(GeneratorModel(N=n))
            assert a == b
            assert a > 0.0


    def test_one_split_search_per_generator(self, monkeypatch):
        calls = []
        search = shiftinv.sigma_and_complement

        def counted(m):
            calls.append(1)
            return search(m)

        monkeypatch.setattr(shiftinv, "sigma_and_complement", counted)
        gen = GeneratorModel(N=2)
        for R in (8, 16):
            build_shiftinv_scheme(gen, R)
        assert len(calls) == 1
        assert gen.sigma == certify.sigma_strong(gen.local_matrix)


class TestSigmaConstants:
    def test_relations_to_prefactors(self):
        gen = GeneratorModel(N=2)
        c0, c1, c_v = sigma_based_constants(gen)
        lmax = float(np.linalg.svd(gen.local_matrix, compute_uv=False)[0])
        sigma = gen.sigma
        assert c0 == pytest.approx(math.sqrt(2.0) * math.sqrt(2) * lmax / sigma)
        assert c1 == pytest.approx(math.sqrt(2.0) / sigma)
        # first branch of the max is sqrt(2)*C0; recomputing the displayed
        # formula from (C0, C1) reproduces C_V
        recomputed = max(
            math.sqrt(2.0) * c0, 2.0 * math.sqrt(2.0) * math.sqrt(gen.N) * c0 * c1
        )
        assert c_v == pytest.approx(recomputed)

    def test_halving_sigma_at_least_doubles_cv(self):
        # scaling the matrix scales sigma and lmax together, so probe the
        # formula with sigma halved and everything else fixed
        gen = GeneratorModel(N=2)
        _, _, c_v = sigma_based_constants(gen)
        lmax = float(np.linalg.svd(gen.local_matrix, compute_uv=False)[0])
        sigma = gen.sigma
        cv_half = max(
            2.0 * math.sqrt(gen.N) * lmax / (sigma / 2.0),
            4.0 * math.sqrt(2.0) * gen.N * lmax / (sigma / 2.0) ** 2,
        )
        assert cv_half >= 2.0 * c_v * (1.0 - 1e-12)

    def test_doubling_lmax_doubles_cv(self):
        gen = GeneratorModel(N=2)
        lmax = float(np.linalg.svd(gen.local_matrix, compute_uv=False)[0])
        sigma = gen.sigma

        def cv(lm):
            return max(
                2.0 * math.sqrt(gen.N) * lm / sigma,
                4.0 * math.sqrt(2.0) * gen.N * lm / sigma**2,
            )

        assert cv(2.0 * lmax) == pytest.approx(2.0 * cv(lmax))

    def test_requires_p2(self):
        with pytest.raises(UnsupportedPError):
            sigma_based_constants(GeneratorModel(N=2, p=3.0))

    def test_degenerate_sigma(self):
        gen = GeneratorModel(N=2, offsets=(0.5, 0.5, 0.5))

        with pytest.raises(DegenerateFrameError):
            sigma_based_constants(gen)

    def test_degenerate_sigma_names_its_threshold(self):
        # at N = 9 sigma is about 1.8e-12: not 0, but under DEGENERATE_RTOL * lmax
        gen = GeneratorModel(N=9)
        assert gen.sigma > 0.0
        message = r"sigma = \S+ <= DEGENERATE_RTOL \* lmax = \S+: a row split defeats"
        with pytest.raises(DegenerateFrameError, match=message):
            sigma_based_constants(gen)


class TestSchemeConstruction:
    def test_dimensions_and_labels(self):
        gen = GeneratorModel(N=2)
        scheme = build_shiftinv_scheme(gen, 5)
        assert scheme.num_vertices == 11
        assert scheme.ambient_dim == 12
        assert scheme.vertex_labels == tuple(range(-5, 6))

    def test_edge_functional_size(self):
        for n in (2, 3):
            gen = GeneratorModel(N=n)
            scheme = build_shiftinv_scheme(gen, n + 2)
            for mat in scheme.edge_functionals.values():
                assert mat.shape[0] == n - 1

    def test_path_degree_two(self):
        scheme = build_shiftinv_scheme(GeneratorModel(N=2), 4)
        assert scheme.graph.degree_bound == 2

    @pytest.mark.parametrize("n", [2, 3])
    def test_axioms_validate(self, n):
        scheme = build_shiftinv_scheme(GeneratorModel(N=n), n + 3)
        for report in validate_scheme(scheme, trials=60, rng=np.random.default_rng(0)):
            assert report.passed, report

    def test_requires_radius_at_least_n(self):
        with pytest.raises(SchemeError):
            build_shiftinv_scheme(GeneratorModel(N=3), 2)

    def test_projection_axioms(self):
        # every vertex shares the generator's local block on its own support
        gen = GeneratorModel(N=3)
        scheme = build_shiftinv_scheme(gen, 5)
        for fr, support in zip(scheme.vertex_frames, scheme.vertex_projections):
            assert fr is scheme.vertex_frames[0]
            assert np.array_equal(fr.rows, gen.local_matrix) and support.size == 3


class TestFrameSandwich:
    @pytest.mark.parametrize("p", [2.0, 1.0, 3.0])
    def test_vertex_weights_sandwiched(self, p):
        gen = GeneratorModel(N=2, p=p)
        scheme = build_shiftinv_scheme(gen, 5)
        lower, upper = gen.frame_bounds
        rng = np.random.default_rng(1)
        for _ in range(40):
            c = rng.standard_normal(scheme.ambient_dim)
            for v in range(scheme.num_vertices):
                ell = v - 5
                block = np.array(
                    [c[coefficient_index(gen, 5, ell + kk)] for kk in range(-1, 1)]
                )
                local = np.conj(scheme.vertex_frames[v].rows) @ c[scheme.vertex_projections[v]]
                w_v = float(np.sum(np.abs(local) ** p))
                base = float(np.sum(np.abs(block) ** p))
                assert w_v >= lower**p * base * (1.0 - 1e-10) - 1e-12
                assert w_v <= upper**p * base * (1.0 + 1e-10) + 1e-12


class TestDecayStudies:
    def test_interval_matches_exact_small(self):
        # radius 11 gives 23 vertices, the largest truncation inside the
        # exact enumeration budget
        gen = GeneratorModel(N=2)
        profiles = [DecayProfile(EXPONENTIAL, 1.0), DecayProfile(POLYNOMIAL, 2.0)]
        for radius in (2, 5, 8, 11):
            scheme = build_shiftinv_scheme(gen, radius)
            for profile in profiles:
                f = profile_signal(gen, radius, profile)
                graph = induce_graph(scheme, f, zero_tol=0.0)
                assert cheeger_interval(graph).upper == cheeger_exact(graph).upper

    def test_exponential_floor_holds(self):
        gen = GeneratorModel(N=2)
        rows = decay_cheeger_study(gen, DecayProfile(EXPONENTIAL, 1.0), [8, 16, 32, 64])
        floor = exponential_floor(gen, 1.0)
        assert floor > 0.0
        for row in rows:
            assert row["pass"]
            assert row["cheeger"] >= floor * (1.0 - 1e-9)

    def test_polynomial_decays_to_zero_like_one_over_r(self):
        gen = GeneratorModel(N=2)
        rows = decay_cheeger_study(gen, DecayProfile(POLYNOMIAL, 2.0), [16, 32, 64, 128])
        values = [row["cheeger"] for row in rows]
        assert all(a > b for a, b in zip(values, values[1:]))
        slope = fit_loglog_slope([row["R"] for row in rows], values)
        assert -1.3 <= slope <= -0.7
        for row in rows:
            assert row["pass"]

    def test_smallest_radius_single_scheme(self):
        gen = GeneratorModel(N=2)
        rows = decay_cheeger_study(gen, DecayProfile(EXPONENTIAL, 0.5), [2])
        assert len(rows) == 1 and rows[0]["cheeger"] > 0.0

    def test_profile_validation(self):
        with pytest.raises(SchemeError):
            DecayProfile(POLYNOMIAL, 1.0)
        with pytest.raises(SchemeError):
            DecayProfile(EXPONENTIAL, 0.0)
        with pytest.raises(SchemeError):
            DecayProfile("gaussian", 1.0)

    @pytest.mark.parametrize("kind", [EXPONENTIAL, POLYNOMIAL])
    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_profile_rejects_non_finite_beta(self, kind, beta):
        with pytest.raises(SchemeError, match="beta must be finite"):
            DecayProfile(kind, beta)


class TestPhasePropagation:
    def test_zero_block_disconnects_and_creates_collision(self):
        gen = GeneratorModel(N=2)
        R = 6
        scheme = build_shiftinv_scheme(gen, R)
        f = np.zeros(scheme.ambient_dim)
        for k in range(-R, R + 1):
            if k != 2:  # a single zero coefficient: an N-1 gap for N=2
                f[coefficient_index(gen, R, k)] = 1.0 + 0.1 * k
        g = f.copy()
        for k in range(3, R + 1):  # flip everything right of the gap
            g[coefficient_index(gen, R, k)] *= -1.0
        assert np.array_equal(scheme.phaseless(f), scheme.phaseless(g))
        _, aligned = align_phase(scheme.measure(f), scheme.measure(g), "real", 2.0)
        assert aligned > 0.1
        graph = induce_graph(scheme, f, zero_tol=0.0)
        assert not is_connected(graph)


class TestCombinedBound:
    def test_holds_on_random_truncated_pairs(self):
        gen = GeneratorModel(N=2)
        R = 6
        scheme = build_shiftinv_scheme(gen, R)
        c0, c1, c_v = sigma_based_constants(gen)
        rng = np.random.default_rng(2)
        for _ in range(500):
            f = rng.standard_normal(scheme.ambient_dim)
            g = rng.standard_normal(scheme.ambient_dim)
            x, y = scheme.measure(f), scheme.measure(g)
            lhs = min(np.linalg.norm(x - y), np.linalg.norm(x + y))
            graph = induce_graph(scheme, f)
            che = cheeger_interval(graph).upper if graph.num_vertices > 1 else math.inf
            if che <= 0.0:
                continue
            factor = 1.0 if math.isinf(che) else 1.0 + che ** (-0.5)
            rhs = c_v * factor * np.linalg.norm(np.abs(x) - np.abs(y))
            assert lhs <= rhs * (1.0 + 1e-9)


def test_profile_signal_layout():
    gen = GeneratorModel(N=3)
    f = profile_signal(gen, 4, DecayProfile(EXPONENTIAL, 1.0))
    assert f.size == ambient_dim(gen, 4)
    assert f[coefficient_index(gen, 4, 0)] == pytest.approx(1.0)
    assert f[coefficient_index(gen, 4, -4)] == f[coefficient_index(gen, 4, 4)]
    assert np.all(f[: gen.N - 1] == 0.0)
    # coefficient k sits in slot coefficient_index(k), one slot at a time
    ks = np.arange(-4, 5)
    loop = np.zeros(f.size)
    loop[[coefficient_index(gen, 4, int(k)) for k in ks]] = np.exp(-np.abs(ks) / gen.p)
    assert np.array_equal(f, loop)
