import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lscc.errors import SchemeError
from lscc.graphs import is_connected
from lscc.measurement import COMPLEX, REAL, Frame
from lscc.scheme import (
    DESCRIPTOR_VERSION,
    INCONCLUSIVE,
    RETRIEVABLE,
    BaseGraph,
    LsccScheme,
    check_edge_phase_consistency,
    check_projection_axioms,
    induce_graph,
    is_phase_retrievable,
    scheme_from_dict,
    scheme_from_json,
    scheme_to_dict,
    scheme_to_json,
    validate_edge_domination,
    validate_exhaustion,
    validate_local_phase_retrieval,
    validate_scheme,
)
from lscc.toy import (
    FIXTURE_BROKEN,
    FIXTURE_BROKEN_TWIN,
    FIXTURE_CONNECTED,
    FIXTURE_LOCAL,
    toy_scheme,
)
from lscc.shiftinv import GeneratorModel, build_shiftinv_scheme
from lscc.windowed import WindowedConfig, build_windowed_scheme


@pytest.fixture(scope="module")
def toy():
    return toy_scheme()


def with_projections(scheme, projections):
    """Copy of `scheme` with other vertex projections (supports)."""
    return LsccScheme(
        name=scheme.name,
        field=scheme.field,
        p=scheme.p,
        ambient_dim=scheme.ambient_dim,
        graph=scheme.graph,
        vertex_frames=scheme.vertex_frames,
        vertex_projections=projections,
        edge_functionals=dict(scheme.edge_functionals),
        local_stability=scheme.local_stability,
        edge_domination=scheme.edge_domination,
        frame_lower=scheme.frame_lower,
        frame_upper=scheme.frame_upper,
        exhaustion_lower=scheme.exhaustion_lower,
        exhaustion_upper=scheme.exhaustion_upper,
    )


def degenerate_two_row_scheme():
    """Single vertex seeing R^2 through {e1, e2}: sign patterns collide."""
    rows = np.eye(2)
    return LsccScheme(
        name="degenerate",
        field=REAL,
        p=2.0,
        ambient_dim=2,
        graph=BaseGraph(1, ()),
        vertex_frames=(Frame(rows, lower=1.0, upper=1.0),),
        vertex_projections=(np.array([0, 1]),),
        edge_functionals={},
        local_stability=10.0,
        edge_domination=1.0,
        frame_lower=1.0,
        frame_upper=1.0,
        exhaustion_lower=1.0,
        exhaustion_upper=1.0,
    )


class TestBaseGraph:
    def test_degree_bound_is_actual_max(self):
        g = BaseGraph(4, ((0, 1), (1, 2), (1, 3)))
        assert g.degree_bound == 3

    def test_rejects_self_loop(self):
        with pytest.raises(SchemeError):
            BaseGraph(2, ((1, 1),))


class TestToyFixtures:
    def test_connected_signal_reproduces_base_graph(self, toy):
        g = induce_graph(toy, FIXTURE_CONNECTED)
        assert g.labels == (0, 1, 2)
        assert [e[:2] for e in g.edges] == [(0, 1), (1, 2)]
        assert np.array_equal(g.vertex_weights, [14.0, 38.0, 74.0])
        assert g.edges[0][2] == 4.0 and g.edges[1][2] == 9.0
        assert is_connected(g)

    def test_broken_signal_loses_one_edge(self, toy):
        g = induce_graph(toy, FIXTURE_BROKEN)
        assert g.labels == (0, 1, 2)
        assert [e[:2] for e in g.edges] == [(0, 1)]
        assert g.edges[0][2] == 4.0
        assert not is_connected(g)

    def test_local_signal_connected_on_support(self, toy):
        g = induce_graph(toy, FIXTURE_LOCAL)
        assert g.labels == (0, 1)
        assert [e[:2] for e in g.edges] == [(0, 1)]
        assert is_connected(g)

    def test_verdicts(self, toy):
        assert is_phase_retrievable(toy, FIXTURE_CONNECTED) == RETRIEVABLE
        assert is_phase_retrievable(toy, FIXTURE_BROKEN) == INCONCLUSIVE
        assert is_phase_retrievable(toy, FIXTURE_LOCAL) == RETRIEVABLE

    def test_broken_twin_is_genuine_collision(self, toy):
        a = toy.phaseless(FIXTURE_BROKEN)
        b = toy.phaseless(FIXTURE_BROKEN_TWIN)
        assert np.array_equal(a, b)
        diff = toy.measure(FIXTURE_BROKEN) - toy.measure(FIXTURE_BROKEN_TWIN)
        anti = toy.measure(FIXTURE_BROKEN) + toy.measure(FIXTURE_BROKEN_TWIN)
        assert min(np.linalg.norm(diff), np.linalg.norm(anti)) > 0.5

    def test_zero_signal_empty_graph(self, toy):
        g = induce_graph(toy, np.zeros(4))
        assert g.is_empty
        assert is_phase_retrievable(toy, np.zeros(4)) == INCONCLUSIVE


class TestInduceGraph:
    def test_zero_tol_drops_relative_dust(self, toy):
        f = np.array([1.0, 1.0, 1e-10, 1.0])
        kept = induce_graph(toy, f, zero_tol=0.0)
        dropped = induce_graph(toy, f, zero_tol=1e-12)
        assert [e[:2] for e in kept.edges] == [(0, 1), (1, 2)]
        assert [e[:2] for e in dropped.edges] == [(0, 1)]

    def test_vertex_and_edge_sets_subset_of_base(self, toy):
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = rng.standard_normal(4) * (rng.random(4) > 0.3)
            g = induce_graph(toy, f)
            assert set(g.labels) <= {0, 1, 2}
            base_edges = {(0, 1), (1, 2)}
            assert {(g.labels[u], g.labels[v]) for u, v, _ in g.edges} <= base_edges

    @given(st.floats(0.1, 10.0), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_scaling_covariance(self, c, flip):
        toy = toy_scheme()
        f = np.array([1.0, 2.0, 3.0, 4.0])
        scale = -c if flip else c
        g1 = induce_graph(toy, f)
        g2 = induce_graph(toy, scale * f)
        assert np.allclose(g2.vertex_weights, abs(scale) ** 2 * g1.vertex_weights, rtol=1e-12)
        for (u1, v1, w1), (u2, v2, w2) in zip(g1.edges, g2.edges):
            assert (u1, v1) == (u2, v2)
            assert w2 == pytest.approx(abs(scale) ** 2 * w1, rel=1e-12)
        assert is_phase_retrievable(toy, scale * f) == is_phase_retrievable(toy, f)

    def test_unimodular_invariance_complex(self):
        scheme = build_windowed_scheme(WindowedConfig(a=1, L=4, field=COMPLEX, seed=0))
        rng = np.random.default_rng(1)
        f = scheme.random_signal(rng)
        xi = np.exp(1j * 0.77)
        g1 = induce_graph(scheme, f)
        g2 = induce_graph(scheme, xi * f)
        assert np.allclose(g2.vertex_weights, g1.vertex_weights, rtol=1e-12)


class TestValidators:
    def test_toy_passes_all(self, toy):
        for report in validate_scheme(toy, trials=150, rng=np.random.default_rng(0)):
            assert report.passed, report

    def test_local_validation_flags_collision(self):
        scheme = degenerate_two_row_scheme()
        report = validate_local_phase_retrieval(scheme, trials=50, rng=np.random.default_rng(1))
        assert not report.passed
        assert math.isinf(report.worst)
        assert report.detail["collision_found"]

    def test_local_validation_equal_pairs_pass(self, toy):
        # all-equal sampling degenerates to 0/0 ratios, which count as pass
        class ConstRng:
            def __init__(self):
                self._rng = np.random.default_rng(2)
                self.last = None

            def standard_normal(self, shape):
                out = self._rng.standard_normal(shape)
                return out * 0.0

        report = validate_local_phase_retrieval(toy, trials=5, rng=ConstRng())
        assert report.passed

    def test_estimate_mode_reports_lower_bound(self, toy):
        report = validate_local_phase_retrieval(
            toy, trials=100, rng=np.random.default_rng(3), estimate=True
        )
        assert report.passed
        assert 1.0 <= report.detail["estimated_c0"] <= toy.local_stability

    def test_edge_domination_scaled_functionals_fail(self, toy):
        bad = LsccScheme(
            name="bad-c1",
            field=toy.field,
            p=toy.p,
            ambient_dim=toy.ambient_dim,
            graph=toy.graph,
            vertex_frames=toy.vertex_frames,
            vertex_projections=toy.vertex_projections,
            edge_functionals={e: 10.0 * m for e, m in toy.edge_functionals.items()},
            local_stability=toy.local_stability,
            edge_domination=toy.edge_domination,
            frame_lower=toy.frame_lower,
            frame_upper=toy.frame_upper,
            exhaustion_lower=toy.exhaustion_lower,
            exhaustion_upper=toy.exhaustion_upper,
        )
        report = validate_edge_domination(bad, trials=50, rng=np.random.default_rng(4))
        assert not report.passed
        assert report.witness is not None

    def test_exhaustion_gap_fails(self, toy):
        # drop the last coordinate from every support: e_4 is invisible
        mangled = tuple(support[support != 3] for support in toy.vertex_projections)
        bad = with_projections(toy, mangled)
        report = validate_exhaustion(bad, trials=50, rng=np.random.default_rng(5))
        assert not report.passed

    def test_single_vertex_full_projection_ratio_one(self):
        scheme = degenerate_two_row_scheme()
        report = validate_exhaustion(scheme, trials=50, rng=np.random.default_rng(6))
        assert report.passed
        lo, hi = report.detail["observed"]
        assert lo == pytest.approx(1.0) and hi == pytest.approx(1.0)

    def test_toy_exhaustion_range(self, toy):
        report = validate_exhaustion(toy, trials=300, rng=np.random.default_rng(7))
        lo, hi = report.detail["observed"]
        assert lo >= 1.0 - 1e-12
        assert hi <= math.sqrt(2.0) + 1e-12

    def test_projection_axioms(self, toy):
        assert check_projection_axioms(toy)

    def test_projection_axioms_catch_rows_off_support(self, toy):
        # vertex 2's frame reads coordinates 2 and 3; a support of {2} misses one
        supports = toy.vertex_projections[:2] + (np.array([2]),)
        assert not check_projection_axioms(with_projections(toy, supports))


class TestProjectionSupports:
    def test_builders_store_sorted_int64_supports(self, toy):
        assert [s.tolist() for s in toy.vertex_projections] == [[0, 1], [1, 2], [2, 3]]
        windowed = build_windowed_scheme(WindowedConfig(a=2, L=4, field=REAL, seed=0))
        assert windowed.vertex_projections[3].tolist() == [0, 1, 6, 7]
        for scheme in (toy, windowed):
            for support in scheme.vertex_projections:
                assert support.dtype == np.int64

    def test_rejects_non_integer_support(self, toy):
        with pytest.raises(SchemeError):
            with_projections(toy, (np.array([0.0, 1.0]),) + toy.vertex_projections[1:])

    def test_rejects_dense_projection_matrix(self, toy):
        dense = np.diag([1.0, 1.0, 0.0, 0.0])
        with pytest.raises(SchemeError):
            with_projections(toy, (dense,) + toy.vertex_projections[1:])

    def test_rejects_unsorted_support(self, toy):
        with pytest.raises(SchemeError):
            with_projections(toy, ([1, 0],) + toy.vertex_projections[1:])

    def test_rejects_duplicated_support(self, toy):
        with pytest.raises(SchemeError):
            with_projections(toy, ([1, 1],) + toy.vertex_projections[1:])

    @pytest.mark.parametrize("support", [[-1, 0], [3, 4]])
    def test_rejects_out_of_range_support(self, toy, support):
        with pytest.raises(SchemeError):
            with_projections(toy, (support,) + toy.vertex_projections[1:])


class TestEdgePhaseConsistency:
    def test_toy_random_pairs(self, toy):
        rng = np.random.default_rng(8)
        for _ in range(200):
            f = rng.standard_normal(4)
            g = rng.standard_normal(4)
            assert check_edge_phase_consistency(toy, f, g)

    def test_windowed_complex_pairs(self):
        scheme = build_windowed_scheme(WindowedConfig(a=1, L=4, field=COMPLEX, seed=3))
        rng = np.random.default_rng(9)
        for _ in range(100):
            f = scheme.random_signal(rng)
            g = scheme.random_signal(rng)
            assert check_edge_phase_consistency(scheme, f, g)


class TestSerialization:
    def test_roundtrip_real(self, toy):
        for scheme in (toy, build_shiftinv_scheme(GeneratorModel(N=3), 6)):
            text = scheme_to_json(scheme)
            again = scheme_from_json(text)
            assert scheme_to_json(again) == text
            f = scheme.random_signal(np.random.default_rng(11))
            assert np.array_equal(again.measure(f), scheme.measure(f))

    def test_roundtrip_complex(self):
        scheme = build_windowed_scheme(WindowedConfig(a=1, L=4, field=COMPLEX, seed=4))
        text = scheme_to_json(scheme)
        again = scheme_from_json(text)
        assert scheme_to_json(again) == text
        rng = np.random.default_rng(10)
        f = scheme.random_signal(rng)
        assert np.allclose(again.measure(f), scheme.measure(f), rtol=0, atol=0)
        for fr, fr2 in zip(scheme.vertex_frames, again.vertex_frames):
            assert fr2.rows.dtype == fr.rows.dtype and np.array_equal(fr2.rows, fr.rows)
        for e, mat in scheme.edge_functionals.items():
            assert np.array_equal(again.edge_functionals[e], mat)

    def test_descriptor_stores_supports_and_local_blocks(self, toy):
        d = scheme_to_dict(toy)
        assert d["version"] == DESCRIPTOR_VERSION == 2
        assert d["projections"] == [[0, 1], [1, 2], [2, 3]]
        assert d["frames"][1] == {"m": 3, "support": [1, 2], "block": [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]}
        assert d["edgeFunctionals"][0] == {"m": 1, "support": [1], "block": [[1.0]]}

    def test_rejects_descriptor_without_version_2(self, toy):
        d = scheme_to_dict(toy)
        d["version"] = 1
        with pytest.raises(SchemeError, match="version"):
            scheme_from_dict(d)
        del d["version"]
        with pytest.raises(SchemeError, match="version"):
            scheme_from_dict(d)

    def test_rejects_malformed_block(self, toy):
        d = scheme_to_dict(toy)
        d["frames"][0]["block"] = [[1.0]]
        with pytest.raises(SchemeError):
            scheme_from_dict(d)

    def test_hash_stable(self, toy):
        assert toy.descriptor_hash() == toy_scheme().descriptor_hash()


class TestLocalStorageGuards:
    """Descriptors and in-memory projections grow with the supports, not with d^2."""

    def test_windowed_descriptor_size(self):
        scheme = build_windowed_scheme(WindowedConfig(a=2, L=64, field=COMPLEX, seed=0))
        assert len(scheme_to_json(scheme).encode()) <= 256 * 1024

    def test_shiftinv_array_footprint(self):
        scheme = build_shiftinv_scheme(GeneratorModel(N=2), 512)
        arrays = [fr.rows for fr in scheme.vertex_frames]
        arrays += list(scheme.vertex_projections) + list(scheme.edge_functionals.values())
        arrays += [a for a in vars(scheme).values() if isinstance(a, np.ndarray)]
        assert sum(a.nbytes for a in arrays) <= 64 * 2**20
