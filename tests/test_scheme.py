import dataclasses
import functools
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lscc import measurement
from lscc.blocks import EdgeMap
from lscc.certify import (
    COMPLEX_C0_MARGIN,
    estimate_local_stability,
    p_frame_bounds,
    real_local_stability,
    sigma_and_complement,
    sigma_strong,
)
from lscc.errors import FieldError, InvalidWeightError, SchemeError, UnsupportedPError
from lscc.graphs import WeightedGraph, algebraic_connectivity, cheeger, is_connected
from lscc.harness import check_edge_mismatch_batch
from lscc.measurement import COMPLEX, DENOM_CUTOFF, REAL, Frame, p_norm, pair_ratios
from lscc.scheme import (
    DEFAULT_ZERO_TOL,
    DESCRIPTOR_VERSION,
    INCONCLUSIVE,
    RETRIEVABLE,
    LsccScheme,
    _as_support,
    _as_supports,
    cycle_graph,
    induce_graph,
    is_phase_retrievable,
    path_graph,
    scheme_from_dict,
    scheme_from_json,
    scheme_to_json,
    sliding_scheme,
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
from lscc.shiftinv import (
    POLYNOMIAL,
    DecayProfile,
    GeneratorModel,
    build_shiftinv_scheme,
    coefficient_index,
    profile_signal,
    sigma_based_constants,
)
from lscc.windowed import WindowedConfig, build_windowed_scheme, default_local_rows
from oracles import scheme_to_dict


@pytest.fixture(scope="module")
def toy():
    return toy_scheme()


def with_projections(scheme, projections, frames=None):
    """Copy of `scheme` with other vertex projections (supports) and frames."""
    return LsccScheme(
        name=scheme.name,
        field=scheme.field,
        p=scheme.p,
        ambient_dim=scheme.ambient_dim,
        graph=scheme.graph,
        vertex_frames=scheme.vertex_frames if frames is None else frames,
        vertex_projections=projections,
        edge_functionals=dict(scheme.edge_functionals),
        edge_supports=dict(scheme.edge_supports),
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
        graph=WeightedGraph(np.ones(1)),
        vertex_frames=(Frame(rows),),
        vertex_projections=(np.array([0, 1]),),
        edge_functionals={},
        edge_supports={},
        local_stability=10.0,
        edge_domination=1.0,
        frame_lower=1.0,
        frame_upper=1.0,
        exhaustion_lower=1.0,
        exhaustion_upper=1.0,
    )


def with_edges(scheme, edges):
    """`scheme`'s descriptor with its graph's edges replaced."""
    d = scheme_to_dict(scheme)
    d["graph"]["edges"] = [list(e) for e in edges]
    return d


class TestBaseGraph:
    """A scheme's base graph is the unit-weight WeightedGraph on its edges."""

    def test_degree_bound_is_actual_max(self):
        g = WeightedGraph(np.ones(4), ((0, 1, 1.0), (1, 2, 1.0), (1, 3, 1.0)))
        assert g.degree_bound == 3
        assert WeightedGraph(np.ones(1)).degree_bound == 0
        assert WeightedGraph(np.zeros(0)).degree_bound == 0

    def test_rejects_self_loop(self, toy):
        with pytest.raises(InvalidWeightError, match="self-loop"):
            WeightedGraph(np.ones(2), ((1, 1, 1.0),))
        with pytest.raises(SchemeError, match="malformed scheme descriptor: .*self-loop"):
            scheme_from_dict(with_edges(toy, [(0, 1), (1, 1)]))

    def test_rejects_fractional_endpoint(self, toy):
        # a descriptor edge [0.5, 1] used to be accepted, and its end arrays truncated it
        with pytest.raises(InvalidWeightError, match="must be integers"):
            WeightedGraph(np.ones(3), ((0.5, 1, 1.0), (1, 2, 1.0)))
        with pytest.raises(SchemeError, match="must be integers"):
            scheme_from_dict(with_edges(toy, [(0.5, 1), (1, 2)]))
        assert WeightedGraph(np.ones(1)).u.dtype == np.int64

    def test_scheme_keeps_unit_weight_graph(self, toy):
        weighted = WeightedGraph([2.0, 3.0, 4.0], ((1, 2, 5.0), (0, 1, 7.0)), ("x", "y", "z"))
        scheme = dataclasses.replace(toy, graph=weighted, vertex_labels=("a", "b", "c"))
        g = scheme.graph
        assert isinstance(g, WeightedGraph) and g is not weighted
        assert g.edges == ((0, 1, 1.0), (1, 2, 1.0)) and g.labels == ("a", "b", "c")
        assert g.vertex_weights.tolist() == [1.0, 1.0, 1.0]
        assert scheme.descriptor_hash() == dataclasses.replace(
            toy, vertex_labels=("a", "b", "c")
        ).descriptor_hash()
        with pytest.raises(SchemeError, match="graph needs at least one vertex"):
            dataclasses.replace(toy, graph=WeightedGraph(np.zeros(0)))

    def test_induced_graph_reweights_base_graph(self, toy):
        g = induce_graph(toy, FIXTURE_CONNECTED)
        assert g.u is toy.graph.u and g.v is toy.graph.v and g.labels is toy.graph.labels
        che = cheeger(toy.graph)
        assert (che.value, che.witness) == (1.0, (0,))
        assert algebraic_connectivity(toy.graph).lam == pytest.approx(1.0, rel=1e-12)


class TestSchemeConstants:
    @pytest.mark.parametrize("p", [0.5, 0.0, -1.0, math.nan, math.inf], ids=str)
    def test_rejects_p_outside_range(self, toy, p):
        with pytest.raises(FieldError, match=r"p must lie in \[1, inf\), got"):
            dataclasses.replace(toy, p=p)

    def test_p_one_is_in_range(self, toy):
        assert dataclasses.replace(toy, p=1.0).p == 1.0

    def test_rejects_frame_bounds_out_of_order(self, toy):
        with pytest.raises(SchemeError, match="0 <= A <= B"):
            dataclasses.replace(toy, frame_lower=2.0, frame_upper=1.0)


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

    def test_relabel_keeps_label_objects(self, toy):
        # a JSON scheme may name its vertices with strings; the kept vertices
        # keep those very objects, never a numpy cast of them
        d = scheme_to_dict(toy)
        d["graph"]["V"] = ["left", 7, "right"]
        named = scheme_from_dict(d)
        for f in (np.array([1.0, 2.0, 3.0, 4.0]), np.array([1.0, 1.0, 1e-10, 1.0])):
            by_index, by_name = induce_graph(toy, f), induce_graph(named, f)
            assert by_name.labels == tuple(d["graph"]["V"][i] for i in by_index.labels)
            expected = [type(d["graph"]["V"][i]) for i in by_index.labels]
            assert [type(x) for x in by_name.labels] == expected
            assert by_name.edges == by_index.edges
            assert np.array_equal(by_name.vertex_weights, by_index.vertex_weights)
        dropped = induce_graph(named, np.array([0.0, 0.0, 1.0, 1.0]))
        assert dropped.labels == (7, "right") and type(dropped.labels[0]) is int

    @pytest.mark.parametrize("zero_tol", [-1e-12, math.nan, math.inf])
    def test_zero_tol_outside_zero_to_inf_rejected(self, toy, zero_tol):
        # nan used to compare false against every weight and return an empty graph
        with pytest.raises(SchemeError, match="zero_tol must lie in"):
            induce_graph(toy, np.ones(4), zero_tol=zero_tol)

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


def validating_induce(scheme, f, zero_tol=DEFAULT_ZERO_TOL):
    """`induce_graph` through the validating WeightedGraph constructor alone:
    the dropping rule written out, every graph checked and sorted afresh."""
    vec = scheme.coerce(f)
    w_v = scheme.vertex_operator.power_sums(vec, scheme.p)
    w_e = scheme.edge_operator.power_sums(vec, scheme.p)
    w_max = max(w_v.max(initial=0.0), w_e.max(initial=0.0))
    if w_max == 0.0:
        return WeightedGraph(np.zeros(0), (), ())
    cut = zero_tol * w_max
    keep = w_v > cut
    u, v = scheme.graph.u, scheme.graph.v
    kept = keep[u] & keep[v] & (w_e > cut)
    index = keep.cumsum() - 1
    labels = tuple(scheme.vertex_labels[i] for i in np.flatnonzero(keep))
    return WeightedGraph(w_v[keep], (index[u[kept]], index[v[kept]], w_e[kept]), labels)


def assert_same_graph(g, ref):
    """Field by field: dtype, shape and bytes of every array, the very label
    objects, and the bytes of `ring_weights`."""
    for name in ("vertex_weights", "u", "v", "w"):
        a, b = getattr(g, name), getattr(ref, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert not a.flags.writeable, name
    assert g.labels == ref.labels
    assert [type(x) for x in g.labels] == [type(x) for x in ref.labels]
    if ref.ring_weights is None:
        assert g.ring_weights is None
    else:
        assert g.ring_weights.tobytes() == ref.ring_weights.tobytes()
        assert not g.ring_weights.flags.writeable


def chord_scheme():
    """`mixed_block_scheme` with the chord (0, 2) added, loaded from JSON: not
    ring-shaped."""
    d = scheme_to_dict(mixed_block_scheme())
    d["graph"]["edges"].insert(1, [0, 2])
    d["edgeFunctionals"].insert(1, {"m": 1, "support": [2], "block": [[[1.0, 0.5]]]})
    return scheme_from_json(json.dumps(d))


class TestInducedStructure:
    """A graph that drops nothing shares its scheme's edges, labels and ring
    layout; it must equal the one the validating constructor builds."""

    @pytest.fixture(scope="class")
    def schemes(self):
        from test_harness import acceptance_schemes

        return acceptance_schemes() + [chord_scheme()]

    def test_acceptance_schemes_match_validating_path(self, schemes):
        rng = np.random.default_rng(40)
        for scheme in schemes:
            for _ in range(20):
                f = scheme.random_signal(rng)
                for zero_tol in (DEFAULT_ZERO_TOL, 0.0):
                    g = induce_graph(scheme, f, zero_tol)
                    assert_same_graph(g, validating_induce(scheme, f, zero_tol))
        assert chord_scheme().graph.ring_weights is None

    def test_structure_is_shared(self, schemes):
        rng = np.random.default_rng(41)
        for scheme in schemes:
            g1, g2 = (induce_graph(scheme, scheme.random_signal(rng)) for _ in range(2))
            assert g1.u is g2.u and g1.v is g2.v
            assert g1.labels is g2.labels is scheme.vertex_labels

    def test_dropped_window_and_zero_signal(self, schemes):
        rng = np.random.default_rng(42)
        for scheme in schemes:
            for k in (0, scheme.num_vertices // 2):
                f = scheme.random_signal(rng)
                f[scheme.vertex_projections[k]] = 0.0
                for zero_tol in (DEFAULT_ZERO_TOL, 0.0):
                    g = induce_graph(scheme, f, zero_tol)
                    assert g.num_vertices < scheme.num_vertices
                    assert_same_graph(g, validating_induce(scheme, f, zero_tol))
            zero = np.zeros(scheme.ambient_dim, dtype=f.dtype)
            assert_same_graph(induce_graph(scheme, zero), validating_induce(scheme, zero))
            assert induce_graph(scheme, zero).is_empty

    def test_relative_dust_only_under_zero_tol(self, toy):
        # a weight of 1e-20 relative is kept at zero_tol = 0 (nothing dropped,
        # the shared structure) and dropped under the default
        f = np.array([1.0, 1.0, 1e-10, 1.0])
        for zero_tol in (0.0, DEFAULT_ZERO_TOL):
            assert_same_graph(induce_graph(toy, f, zero_tol), validating_induce(toy, f, zero_tol))


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

    def test_collision_witness_is_a_collision(self):
        # a later non-equivalent pair with a larger ratio used to overwrite
        # the witness of the first collision
        scheme = degenerate_two_row_scheme()
        report = validate_local_phase_retrieval(scheme, trials=50, rng=np.random.default_rng(1))
        v, f, g = report.witness
        assert v == 0 and f.shape == g.shape == (2,)
        x, y = scheme.measure(f), scheme.measure(g)
        _, _, equivalent, collision = pair_ratios(x, y, scheme.field, scheme.p)
        assert equivalent and collision

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
        report = validate_local_phase_retrieval(toy, trials=100, rng=np.random.default_rng(3))
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
            edge_supports=toy.edge_supports,
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
        # drop the last coordinate from every support, and the frame columns
        # reading it: e_4 is invisible
        keep = [support != 3 for support in toy.vertex_projections]
        mangled = tuple(support[k] for support, k in zip(toy.vertex_projections, keep))
        frames = tuple(Frame(fr.rows[:, k]) for fr, k in zip(toy.vertex_frames, keep))
        bad = with_projections(toy, mangled, frames)
        assert all(3 not in support for support in bad.vertex_projections)
        report = validate_exhaustion(bad, trials=50, rng=np.random.default_rng(5))
        assert not report.passed
        assert report.detail["observed"][0] == 0.0

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
        # Phi_v P_v = Phi_v by construction: each frame is a block on its support
        for fr, support in zip(toy.vertex_frames, toy.vertex_projections):
            assert fr.rows.shape == (3, support.size)

    def test_projection_axioms_catch_rows_off_support(self, toy):
        # vertex 2's frame reads coordinates 2 and 3; a support of {2} misses one
        supports = toy.vertex_projections[:2] + (np.array([2]),)
        with pytest.raises(SchemeError, match="inside its support"):
            with_projections(toy, supports)


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

    def test_supports_validated_in_one_pass(self):
        # a support may start at or below where the previous one ended
        supports = _as_supports([[2, 3], [], np.array([0, 1], dtype=np.uint8), [1]], 4)
        assert [s.tolist() for s in supports] == [[2, 3], [], [0, 1], [1]]
        for s in supports:
            assert s.dtype == np.int64 and not s.flags.writeable
        assert _as_support([0], 1).tolist() == [0]
        for bad, message in [
            ([[], [3, 2]], "sorted"),
            ([[0, 1], [1, 1]], "sorted"),
            ([[1], np.array([3, 2], dtype=np.uint64)], "sorted"),
            ([[0, 3], [4]], r"range \[0, 4\)"),
            ([[0], [-1, 0]], "range"),
            ([[0], [[0, 1]]], "1-D array of integer indices"),
            ([[0.0]], "1-D array of integer indices"),
        ]:
            with pytest.raises(SchemeError, match=message):
                _as_supports(bad, 4)

    def test_rejects_unsorted_edge_support(self, toy):
        with pytest.raises(SchemeError, match="sorted"):
            dataclasses.replace(toy, edge_supports={**toy.edge_supports, (0, 1): [2, 1]})

    def test_rejects_both_orientations_of_an_edge_support(self, toy):
        # (1, 0) names edge (0, 1) again; it must not replace that edge's support
        functionals = {**toy.edge_functionals, (1, 0): [[5.0]]}
        with pytest.raises(SchemeError, match=r"edge \(0, 1\) has a support under both"):
            dataclasses.replace(
                toy, edge_supports={**toy.edge_supports, (1, 0): [0]}, edge_functionals=functionals
            )

    def test_rejects_both_orientations_of_an_edge_functional(self, toy):
        with pytest.raises(SchemeError, match=r"edge \(0, 1\) has a functional under both"):
            dataclasses.replace(toy, edge_functionals={**toy.edge_functionals, (1, 0): [[5.0]]})


class TestEdgePhaseConsistency:
    """The per-edge mismatch bound, one pair at a time as one-column batches."""

    def test_toy_random_pairs(self, toy):
        rng = np.random.default_rng(8)
        for _ in range(200):
            f = rng.standard_normal(4)
            g = rng.standard_normal(4)
            checked, bad = check_edge_mismatch_batch(toy, f[:, None], g[:, None])
            assert (checked, bad) == (len(toy.graph.edges), 0)

    def test_windowed_complex_pairs(self):
        scheme = build_windowed_scheme(WindowedConfig(a=1, L=4, field=COMPLEX, seed=3))
        rng = np.random.default_rng(9)
        for _ in range(100):
            f = scheme.random_signal(rng)
            g = scheme.random_signal(rng)
            checked, bad = check_edge_mismatch_batch(scheme, f[:, None], g[:, None])
            assert (checked, bad) == (len(scheme.graph.edges), 0)


KEYED_SPECS = {
    "toy": toy_scheme,
    "windowed-complex": lambda: build_windowed_scheme(
        WindowedConfig(a=1, L=5, field=COMPLEX, seed=3)
    ),
    "shiftinv": lambda: build_shiftinv_scheme(GeneratorModel(N=2), 3),
}


@functools.cache
def keyed_descriptor(name: str) -> tuple[dict, str]:
    """A built-in scheme's descriptor dict and its hash."""
    scheme = KEYED_SPECS[name]()
    return scheme_to_dict(scheme), scheme.descriptor_hash()


class TestFieldRules:
    """A complex scheme is a p = 2 scheme, and its frames are in its field."""

    def test_complex_p_not_two_refused(self):
        scheme = build_windowed_scheme(WindowedConfig(a=1, L=4, field=COMPLEX, seed=4))
        with pytest.raises(UnsupportedPError, match="complex schemes require p = 2"):
            dataclasses.replace(scheme, p=3.0)
        local = scheme.vertex_frames[0].rows
        with pytest.raises(UnsupportedPError, match="complex schemes require p = 2"):
            sliding_scheme("slid", local, 1, 4, True, 1.5, 1.0, 1.0, (1.0, 2.0))
        d = scheme_to_dict(scheme)
        d["p"] = 3.0
        with pytest.raises(UnsupportedPError, match="complex schemes require p = 2"):
            scheme_from_dict(d)

    def test_frames_in_the_scheme_field(self, toy):
        frames = [Frame(fr.rows, COMPLEX) for fr in toy.vertex_frames]
        with pytest.raises(FieldError, match="frame 0 is complex, the scheme real"):
            dataclasses.replace(toy, vertex_frames=frames)
        scheme = build_windowed_scheme(WindowedConfig(a=1, L=4, field=COMPLEX, seed=4))
        frames = list(scheme.vertex_frames)
        frames[2] = Frame(frames[2].rows.real, REAL)
        with pytest.raises(FieldError, match="frame 2 is real, the scheme complex"):
            dataclasses.replace(scheme, vertex_frames=frames)


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
            assert np.array_equal(again.edge_supports[e], scheme.edge_supports[e])

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

    def test_rejects_frame_off_its_projection(self, toy):
        d = scheme_to_dict(toy)
        d["projections"][2] = [2]  # frame 2 still reads coordinates 2 and 3
        with pytest.raises(SchemeError, match="inside its projection"):
            scheme_from_dict(d)

    def test_rejects_malformed_block(self, toy):
        d = scheme_to_dict(toy)
        d["frames"][0]["block"] = [[1.0]]
        with pytest.raises(SchemeError):
            scheme_from_dict(d)

    def test_loads_descriptor_with_topology_key(self):
        # descriptors written before the route was read off the edges carry a
        # "topology" entry; the reader ignores it
        scheme = build_windowed_scheme(WindowedConfig(a=2, L=8, field=COMPLEX))
        d = scheme_to_dict(scheme)
        d["graph"]["topology"] = "cycle"
        again = scheme_from_dict(d)
        assert scheme_to_json(again) == scheme_to_json(scheme)
        f = scheme.random_signal(np.random.default_rng(12))
        assert np.array_equal(again.measure(f), scheme.measure(f))

    def test_edge_objects_keyed_by_the_listed_edge(self, toy):
        # reversing both lists used to give edge (0, 1) the support [2]
        d = scheme_to_dict(toy)
        d["graph"]["edges"].reverse()
        d["edgeFunctionals"].reverse()
        again = scheme_from_dict(d)
        assert again.edge_supports[(0, 1)].tolist() == [1]
        assert again.descriptor_hash() == toy.descriptor_hash()

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_listed_edge_order_leaves_the_hash(self, data):
        name = data.draw(st.sampled_from(sorted(KEYED_SPECS)))
        d, digest = keyed_descriptor(name)
        count = len(d["graph"]["edges"])
        order = data.draw(st.permutations(range(count)))
        flips = data.draw(st.lists(st.booleans(), min_size=count, max_size=count))
        edges = [d["graph"]["edges"][k][:: -1 if flip else 1] for k, flip in zip(order, flips)]
        listed = dict(d, graph=dict(d["graph"], edges=edges))
        listed["edgeFunctionals"] = [d["edgeFunctionals"][k] for k in order]
        assert scheme_from_dict(listed).descriptor_hash() == digest

    @pytest.mark.parametrize("value", [4.9, True, "4", math.inf, math.nan], ids=repr)
    def test_rejects_non_integral_n(self, toy, value):
        # n = 4.9 used to load as n = 4 under toy's hash
        d = scheme_to_dict(toy)
        d["n"] = value
        with pytest.raises(SchemeError, match="n must be an integer"):
            scheme_from_dict(d)

    @pytest.mark.parametrize("value", [3.7, False], ids=repr)
    def test_rejects_non_integral_m(self, toy, value):
        d = scheme_to_dict(toy)
        d["frames"][1]["m"] = value
        with pytest.raises(SchemeError, match="m must be an integer"):
            scheme_from_dict(d)
        d = scheme_to_dict(toy)
        d["edgeFunctionals"][0]["m"] = value
        with pytest.raises(SchemeError, match="m must be an integer"):
            scheme_from_dict(d)

    def test_integral_float_counts_load(self, toy):
        d = scheme_to_dict(toy)
        d["n"] = 4.0
        d["frames"][1]["m"] = 3.0
        assert scheme_from_dict(d).descriptor_hash() == toy.descriptor_hash()

    def test_rejects_edge_list_and_functionals_of_two_lengths(self, toy):
        d = scheme_to_dict(toy)
        d["edgeFunctionals"].pop()
        with pytest.raises(SchemeError, match="malformed scheme descriptor"):
            scheme_from_dict(d)

    def test_rejects_duplicate_vertex_labels(self, toy):
        d = scheme_to_dict(toy)
        d["graph"]["V"] = [7, 7, 8]
        with pytest.raises(SchemeError, match="distinct"):
            scheme_from_dict(d)
        with pytest.raises(SchemeError, match="distinct"):
            dataclasses.replace(toy, vertex_labels=(7, 7, 8))

    def test_rejects_wrong_label_count(self, toy):
        with pytest.raises(SchemeError, match="2 vertex labels for 3 vertices"):
            dataclasses.replace(toy, vertex_labels=(7, 8))
        d = scheme_to_dict(toy)
        d["graph"]["V"] = [7, 8]  # the base graph gets two vertices, the frames stay three
        with pytest.raises(SchemeError):
            scheme_from_dict(d)

    def test_hash_stable(self, toy):
        assert toy.descriptor_hash() == toy_scheme().descriptor_hash()


def mixed_block_scheme():
    """A complex JSON scheme whose frames and functionals come in three block
    shapes each; frame 2 reads only part of its projection."""
    rng = np.random.default_rng(13)

    def block(m, support):
        values = rng.standard_normal((m, len(support), 2))
        return {"m": m, "support": support, "block": values.tolist()}

    descriptor = {
        "version": DESCRIPTOR_VERSION,
        "name": "mixed",
        "field": COMPLEX,
        "p": 2.0,
        "n": 8,
        "graph": {"V": [0, 1, 2, 3], "edges": [[0, 1], [0, 3], [1, 2], [2, 3]]},
        "projections": [[0, 1, 2], [2, 3], [3, 4, 5, 6], [0, 6, 7]],
        "frames": [
            block(8, [0, 1, 2]), block(4, [2, 3]), block(8, [3, 5, 6]), block(8, [0, 6, 7])
        ],
        "edgeFunctionals": [block(1, [2]), block(2, [0, 6]), block(1, [3]), block(3, [6])],
        "constants": {"D": 2, "C0": 10.0, "C1": 10.0, "A": 0.1, "B": 10.0},
        "exhaustion": [1.0, 2.0],
    }
    return scheme_from_json(json.dumps(descriptor))


ORACLE_SCHEMES = {
    "toy": toy_scheme,
    **{
        f"windowed-{field}-a{a}": (
            lambda a=a, field=field: build_windowed_scheme(
                WindowedConfig(a=a, L=5, field=field, seed=a)
            )
        )
        for field in (REAL, COMPLEX)
        for a in (1, 2, 3)
    },
    "shiftinv-N2": lambda: build_shiftinv_scheme(GeneratorModel(N=2), 4),
    "shiftinv-N3-p3": lambda: build_shiftinv_scheme(GeneratorModel(N=3, p=3.0), 5),
    "json-mixed-shapes": mixed_block_scheme,
}


def dense_rows(scheme):
    """Each frame and edge functional as dense rows over all d coordinates."""
    dtype = np.complex128 if scheme.field == COMPLEX else np.float64

    def dense(block, support):
        rows = np.zeros((block.shape[0], scheme.ambient_dim), dtype=dtype)
        rows[:, support] = block
        return rows

    vertex = [dense(fr.rows, s) for fr, s in zip(scheme.vertex_frames, scheme.vertex_projections)]
    edge = [dense(scheme.edge_functionals[e], scheme.edge_supports[e]) for e in scheme.edge_supports]
    return vertex, edge


def assert_rel_close(actual, expected, rtol=1e-13):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected))


class TestBlockOperatorOracle:
    """The block operators against dense m x d matrices assembled from the blocks."""

    @pytest.mark.parametrize("name", sorted(ORACLE_SCHEMES))
    def test_matches_dense(self, name):
        scheme = ORACLE_SCHEMES[name]()
        vertex, edge = dense_rows(scheme)
        op = np.conj(np.vstack(vertex))
        rng = np.random.default_rng(21)
        p = scheme.p
        for _ in range(5):
            f = scheme.random_signal(rng)
            columns = scheme.random_signal(rng, 6)
            assert_rel_close(scheme.measure(f), op @ f)
            assert_rel_close(scheme.measure_batch(columns), op @ columns)
            graph = induce_graph(scheme, f, zero_tol=0.0)
            w_v = [np.sum(np.abs(np.conj(rows) @ f) ** p) for rows in vertex]
            w_e = [np.sum(np.abs(np.conj(rows) @ f) ** p) for rows in edge]
            assert graph.num_vertices == scheme.num_vertices
            assert_rel_close(graph.vertex_weights, w_v)
            assert [e[:2] for e in graph.edges] == list(scheme.edge_supports)
            assert_rel_close([e[2] for e in graph.edges], w_e)

    def test_mixed_shapes_form_one_stack_per_shape(self):
        # every block of a JSON-loaded scheme is its own object, used once:
        # such blocks are stacked by shape
        scheme = mixed_block_scheme()
        shapes = sorted(stack.shape for _, stack, _ in scheme.vertex_operator.stacks)
        assert shapes == [(1, 4, 2), (1, 8, 4), (2, 8, 3)]
        assert len(scheme.edge_operator.stacks) == 3
        # a block several members share is one (1, r, s) stack broadcast over
        # them: the windows' shared frame, then the wrap window's own block
        windowed = build_windowed_scheme(WindowedConfig(a=2, L=9, field=COMPLEX, seed=2))
        stacks = windowed.vertex_operator.stacks
        assert [(cols.shape, stack.shape) for cols, stack, _ in stacks] == [
            ((8, 4), (1, 12, 4)),
            ((1, 4), (1, 12, 4)),
        ]
        assert [rows for _, _, rows in stacks] == [slice(0, 96), slice(96, 108)]
        [(cols, stack, rows)] = windowed.edge_operator.stacks
        assert cols.shape == (9, 2) and stack.shape == (1, 2, 2) and rows == slice(0, 18)
        # frame 2 reads coordinates 3, 5, 6 of its projection {3, 4, 5, 6}
        assert np.all(scheme.vertex_frames[2].rows[:, 1] == 0)
        assert scheme_to_json(scheme_from_json(scheme_to_json(scheme))) == scheme_to_json(scheme)

    @pytest.mark.parametrize(
        "build, digest",
        [
            (toy_scheme, "f7cb81efdc0ef02cfa747f98d138dec05ed1584e71b6668c407fbfbd1849890d"),
            (
                lambda: build_windowed_scheme(WindowedConfig(a=2, L=64, field=COMPLEX, seed=0)),
                "18e0690e0aedf035b166537321e49633d8502677a797f33e040587b9f8368dc6",
            ),
            (
                lambda: build_shiftinv_scheme(GeneratorModel(N=2), 64),
                "755af875a96357b1d1dbeddc465eb90b641d7a940193d8f7272b0ba18d853d05",
            ),
        ],
    )
    def test_descriptor_hash_pinned(self, build, digest):
        # the local layout writes the same descriptor v2 bytes as dense rows did
        assert build().descriptor_hash() == digest


def oracle_json(scheme):
    """The descriptor text as the dict route writes it."""
    return json.dumps(scheme_to_dict(scheme), sort_keys=True, separators=(",", ":"))


def fuzz_schemes():
    """test_04's 17 schemes."""
    schemes = [toy_scheme()]
    for a in (1, 2):
        for L in (4, 8, 16):
            for field in (REAL, COMPLEX):
                schemes.append(build_windowed_scheme(WindowedConfig(a=a, L=L, field=field, seed=7)))
    for n in (2, 3):
        for radius in (8, 16):
            schemes.append(build_shiftinv_scheme(GeneratorModel(N=n), radius))
    return schemes


class TestStreamedDescriptor:
    """scheme_to_json and descriptor_hash against the json.dumps oracle."""

    @staticmethod
    def check(scheme):
        text = oracle_json(scheme)
        assert scheme_to_json(scheme) == text
        assert scheme.descriptor_hash() == hashlib.sha256(text.encode()).hexdigest()

    def test_fuzz_schemes(self):
        schemes = fuzz_schemes()
        assert len(schemes) == 17
        for scheme in schemes:
            self.check(scheme)

    def test_json_loaded_schemes(self):
        self.check(mixed_block_scheme())
        windowed = build_windowed_scheme(WindowedConfig(a=2, L=6, field=COMPLEX, seed=3))
        loaded = scheme_from_json(scheme_to_json(windowed))
        assert loaded.vertex_frames[0].rows is not loaded.vertex_frames[1].rows
        self.check(loaded)
        assert loaded.descriptor_hash() == windowed.descriptor_hash()

    def test_shared_and_distinct_equal_blocks(self):
        shared = build_windowed_scheme(WindowedConfig(a=2, L=9, field=COMPLEX, seed=2))
        assert shared.vertex_frames[0] is shared.vertex_frames[1]
        distinct = dataclasses.replace(
            shared,
            vertex_frames=tuple(
                dataclasses.replace(fr, rows=fr.rows.copy()) for fr in shared.vertex_frames
            ),
            edge_functionals={e: m.copy() for e, m in shared.edge_functionals.items()},
        )
        assert distinct.vertex_frames[0].rows is not distinct.vertex_frames[1].rows
        for scheme in (shared, distinct):
            self.check(scheme)
        assert distinct.descriptor_hash() == shared.descriptor_hash()

    def test_shared_block_with_zero_column(self):
        # one block object on every vertex: its kept columns select a different
        # part of each vertex's support
        base = build_windowed_scheme(WindowedConfig(a=2, L=7, field=REAL, seed=1))
        rows = base.vertex_frames[0].rows.copy()
        rows[:, 1] = 0.0
        frame = dataclasses.replace(base.vertex_frames[0], rows=rows)
        self.check(dataclasses.replace(base, vertex_frames=(frame,) * base.num_vertices))

    def test_edgeless_scheme(self):
        frame = Frame(np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]]))
        one = LsccScheme(
            name="edgeless",
            field=REAL,
            p=2.0,
            ambient_dim=3,
            graph=WeightedGraph(np.ones(1)),
            vertex_frames=(frame,),
            vertex_projections=[np.array([0, 2])],
            edge_functionals=(),
            edge_supports=(),
            local_stability=2.0,
            edge_domination=1.0,
            frame_lower=0.5,
            frame_upper=3.0,
            exhaustion_lower=1.0,
            exhaustion_upper=1.0,
        )
        self.check(one)

    def test_hash_peak_memory(self):
        scheme = build_windowed_scheme(WindowedConfig(a=2, L=4096, field=COMPLEX))
        tracemalloc.start()
        try:
            scheme.descriptor_hash()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the descriptor text alone is 8.9 MB; the dict route peaked at 18 MB
        assert peak <= 4e6, peak
        self.check(scheme)  # 4095 frames share one block: one run, many text chunks


def reference_edge_domination(scheme, trials, rng):
    """The scalar loop the batched check replaced: (worst, edge, probe) of the
    first vanishing pair, else of the first worst pair."""
    vertex, edge = dense_rows(scheme)
    dtype = np.complex128 if scheme.field == COMPLEX else np.float64
    probes = [scheme.random_signal(rng) for _ in range(trials)]
    probes.extend(np.eye(scheme.ambient_dim, dtype=dtype))
    worst, witness = 0.0, None
    for f in probes:
        for rows, (u, v) in zip(edge, scheme.edge_supports):
            n_psi = p_norm(np.conj(rows) @ f, scheme.p)
            low = min(p_norm(np.conj(vertex[w]) @ f, scheme.p) for w in (u, v))
            if n_psi == 0.0:
                continue
            if low <= DENOM_CUTOFF * n_psi:
                return math.inf, (u, v), f
            if n_psi / low > worst:
                worst, witness = n_psi / low, ((u, v), f)
    return (worst,) + witness


def reference_exhaustion(scheme, trials, rng):
    """The scalar loop the batched check replaced: (lo, hi)."""
    dtype = np.complex128 if scheme.field == COMPLEX else np.float64
    probes = [scheme.random_signal(rng) for _ in range(trials)]
    probes.extend(np.eye(scheme.ambient_dim, dtype=dtype))
    ratios = []
    for f in probes:
        base = p_norm(f, scheme.p)
        if base > 0.0:
            agg = sum(p_norm(f[s], scheme.p) ** scheme.p for s in scheme.vertex_projections)
            ratios.append(agg ** (1.0 / scheme.p) / base)
    return min(ratios), max(ratios)


def toy_with_blind_frames():
    """Toy with frame 2 reading only coordinate 3 and edge (0, 1) reading
    coordinate 3, which frame 0 does not see: probe e_3 loses edge (1, 2),
    and the later probe e_4 loses edge (0, 1)."""
    toy = toy_scheme()
    return dataclasses.replace(
        toy,
        vertex_projections=toy.vertex_projections[:2] + (np.array([3]),),
        vertex_frames=toy.vertex_frames[:2] + (Frame(toy.vertex_frames[2].rows[:, 1:]),),
        edge_supports={**toy.edge_supports, (0, 1): np.array([3])},
    )


class TestBatchedValidators:
    """The batched edge-domination and exhaustion checks against their loops."""

    @pytest.mark.parametrize(
        "name", ["toy", "windowed-complex-a2", "shiftinv-N3-p3", "json-mixed-shapes", "blind"]
    )
    def test_edge_domination_matches_loop(self, name):
        scheme = toy_with_blind_frames() if name == "blind" else ORACLE_SCHEMES[name]()
        scheme.edge_domination = 1e-3  # below the worst ratio, so the witness is reported
        report = validate_edge_domination(scheme, trials=40, rng=np.random.default_rng(30))
        worst, edge, probe = reference_edge_domination(scheme, 40, np.random.default_rng(30))
        assert not report.passed
        if math.isinf(worst):
            assert math.isinf(report.worst) and report.detail["edge"] == edge
            assert report.witness[0] == edge and np.array_equal(report.witness[1], probe)
        else:
            assert report.worst == pytest.approx(worst, rel=1e-12)
            witness_edge, witness_probe = report.witness
            i = list(scheme.edge_supports).index(witness_edge)
            n_psi = scheme.edge_operator.power_sums(witness_probe, scheme.p)[i]
            n_phi = scheme.vertex_operator.power_sums(witness_probe, scheme.p)[list(witness_edge)]
            ratio = (n_psi / min(n_phi)) ** (1.0 / scheme.p)
            assert ratio == pytest.approx(worst, rel=1e-12)

    def test_first_vanishing_pair_in_probe_order(self):
        report = validate_edge_domination(toy_with_blind_frames(), trials=40)
        assert math.isinf(report.worst) and report.detail["edge"] == (1, 2)
        assert np.array_equal(report.witness[1], [0.0, 0.0, 1.0, 0.0])

    @pytest.mark.parametrize("name", sorted(ORACLE_SCHEMES))
    def test_exhaustion_matches_loop(self, name):
        scheme = ORACLE_SCHEMES[name]()
        report = validate_exhaustion(scheme, trials=40, rng=np.random.default_rng(31))
        lo, hi = reference_exhaustion(scheme, 40, np.random.default_rng(31))
        assert report.detail["observed"] == pytest.approx([lo, hi], rel=1e-12)


def reference_local_phase_retrieval(scheme, trials, rng):
    """The per-pair loop the array route replaced: (passed, worst, witness,
    collision, frame_lo, frame_hi), one matvec and np.linalg.norm per probe.
    It passes when no pair collides, no ratio exceeds C0 and the frame ratios
    stay within the declared [A, B], each up to a relative 1e-9.  When only
    the frame envelope fails, the witness is (v, f, None), f the first probe
    reaching the out-of-range lower, else upper, frame ratio."""

    def norm(x):
        return float(np.linalg.norm(x, ord=scheme.p))

    def pairs(v):
        support = scheme.vertex_projections[v]
        basis = np.eye(min(4, support.size), support.size)
        for i in range(len(basis)):
            for j in range(i, len(basis)):
                yield basis[i], basis[j]
                if j > i:
                    yield basis[i] + basis[j], basis[i] - basis[j]
        # each probe vector is |supp_v| normals, a complex one real part first
        shape = (2, support.size) if scheme.field == COMPLEX else (support.size,)
        width = max(1, 2**15 // math.prod(shape))
        for start in range(0, trials, width):
            draws = rng.standard_normal((2 * min(width, trials - start),) + shape)
            draws = draws[:, 0] + 1j * draws[:, 1] if scheme.field == COMPLEX else draws
            yield from zip(draws[0::2], draws[1::2])

    worst, witness, collision = 0.0, None, False
    frame_lo, frame_hi = math.inf, 0.0
    envelope = [None, None]
    for v, fr in enumerate(scheme.vertex_frames):
        for f, g in pairs(v):
            x, y = np.conj(fr.rows) @ f, np.conj(fr.rows) @ g
            for sig, meas in ((f, x), (g, y)):
                if norm(sig) > 0.0:
                    ratio = norm(meas) / norm(sig)
                    if ratio < frame_lo:
                        frame_lo, envelope[0] = ratio, (v, sig, None)
                    if ratio > frame_hi:
                        frame_hi, envelope[1] = ratio, (v, sig, None)
            num, den, equivalent, collides = pair_ratios(x, y, scheme.field, scheme.p)
            if collides and not collision:
                collision, witness = True, (v, f, g)
            if not equivalent and num / den > worst:
                worst = num / den
                if not collision:
                    witness = (v, f, g)
    c0_holds = not collision and worst <= scheme.local_stability * (1.0 + 1e-9)
    low_holds = scheme.frame_lower * (1.0 - 1e-9) <= frame_lo
    passed = c0_holds and low_holds and frame_hi <= scheme.frame_upper * (1.0 + 1e-9)
    if c0_holds and not passed:  # only the frame envelope fails
        witness = envelope[0 if not low_holds else 1]
    return passed, (math.inf if collision else worst), witness, collision, frame_lo, frame_hi


class ZeroRng:
    """A generator stand-in with only `standard_normal`, drawing zeros."""

    def standard_normal(self, shape):
        return np.zeros(shape)


LOCAL_ORACLE_SCHEMES = {
    **{
        name: ORACLE_SCHEMES[name]
        for name in ("toy", "shiftinv-N2", "shiftinv-N3-p3")
        + tuple(f"windowed-{field}-a{a}" for field in (REAL, COMPLEX) for a in (1, 2))
    },
    "shiftinv-N3": lambda: build_shiftinv_scheme(GeneratorModel(N=3), 5),
    "degenerate": degenerate_two_row_scheme,
}


@functools.cache
def local_oracle_scheme(name):
    return LOCAL_ORACLE_SCHEMES[name]()


class TestBatchedLocalValidator:
    """The array route of validate_local_phase_retrieval against its per-pair loop."""

    @pytest.mark.parametrize("rng_kind", ["seeded", "zeros"])
    @pytest.mark.parametrize("declared, on_frame", [("built", False), ("tiny", False), ("tiny", True)])
    @pytest.mark.parametrize("name", sorted(LOCAL_ORACLE_SCHEMES))
    def test_matches_per_pair_loop(self, name, declared, on_frame, rng_kind):
        # "tiny" puts the declared C0, or with on_frame the declared B, below
        # every observed ratio: the check fails and reports its witness (A
        # drops to 0, since a scheme needs A <= B)
        scheme = built = local_oracle_scheme(name)
        if declared == "tiny":
            tiny = {"local_stability": 1e-3}
            if on_frame:
                tiny = {"frame_lower": 0.0, "frame_upper": 1e-3}
            scheme = dataclasses.replace(scheme, **tiny)
        rngs = [np.random.default_rng(50) if rng_kind == "seeded" else ZeroRng() for _ in "ab"]
        report = validate_local_phase_retrieval(scheme, 23, rngs[0])
        passed, worst, witness, collision, lo, hi = reference_local_phase_retrieval(
            scheme, 23, rngs[1]
        )
        assert report.passed == passed
        assert passed == (scheme is built and name != "degenerate")
        assert report.worst == worst and report.detail["estimated_c0"] <= worst
        assert report.detail["collision_found"] == collision
        if collision or not passed:
            v, f, g = report.witness
            full = np.zeros((2, scheme.ambient_dim), dtype=report.witness[1].dtype)
            full[0, scheme.vertex_projections[witness[0]]] = witness[1]
            assert v == witness[0]
            assert np.array_equal(f, full[0])
            if on_frame and not collision:  # only the frame envelope fails: one probe
                assert g is None and witness[2] is None
                local = f[scheme.vertex_projections[v]]
                ratio = p_norm(np.conj(scheme.vertex_frames[v].rows) @ local, scheme.p) / p_norm(
                    local, scheme.p
                )
                assert ratio == report.detail["frame_upper_observed"]
            else:
                full[1, scheme.vertex_projections[witness[0]]] = witness[2]
                assert np.array_equal(g, full[1])
        else:
            assert report.witness is None
        observed = report.detail["frame_lower_observed"], report.detail["frame_upper_observed"]
        if scheme.field == REAL:
            assert observed == (lo, hi)
        else:
            assert observed == pytest.approx((lo, hi), rel=1e-15, abs=0.0)
        if rng_kind == "seeded":  # the same draws, in the same order
            assert rngs[0].bit_generator.state == rngs[1].bit_generator.state

    def test_one_align_phase_call_per_pair(self, monkeypatch):
        # validate-shiftinv's bench pin counts these calls; batching pair_ratios breaks it
        calls = []
        align = measurement.align_phase
        monkeypatch.setattr(measurement, "align_phase", lambda *a: calls.append(1) or align(*a))
        scheme = build_shiftinv_scheme(GeneratorModel(N=2), 64)
        validate_local_phase_retrieval(scheme, trials=100, rng=np.random.default_rng(3))
        canonical = [min(4, s.size) ** 2 for s in scheme.vertex_projections]
        assert len(calls) == 13416 == sum(canonical) + 100 * scheme.num_vertices


class TestLocalStorageGuards:
    """Descriptors and in-memory projections grow with the supports, not with d^2."""

    def test_windowed_descriptor_size(self):
        scheme = build_windowed_scheme(WindowedConfig(a=2, L=64, field=COMPLEX, seed=0))
        assert len(scheme_to_json(scheme).encode()) <= 256 * 1024

    def test_shiftinv_array_footprint(self):
        # one support table, two distinct blocks and the operators' column
        # views and row offsets (98 kB); a stack's rows are a slice when its
        # members are consecutive
        scheme = build_shiftinv_scheme(GeneratorModel(N=2), 512)
        arrays = [a for a in vars(scheme).values() if isinstance(a, np.ndarray)]
        arrays += scheme._blocks
        for op in (scheme.vertex_operator, scheme.edge_operator):
            arrays += [op.offsets]
            arrays += [a for stack in op.stacks for a in stack if isinstance(a, np.ndarray)]
        assert len(scheme._blocks) == 2
        assert sum(a.nbytes for a in arrays) <= 2**17

    def test_shiftinv_build_and_induce_peak(self):
        # one dense frame stack of this scheme is 25 MB
        gen = GeneratorModel(N=2)
        profile = DecayProfile(POLYNOMIAL, 2.0)
        tracemalloc.start()
        try:
            scheme = build_shiftinv_scheme(gen, 512)
            graph = induce_graph(scheme, profile_signal(gen, 512, profile), zero_tol=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert graph.num_vertices == 1025
        assert peak < 2 * 2**20

    def test_windowed_build_and_measure_peak(self):
        # one m x d operator of this scheme is 384 MiB
        cfg = WindowedConfig(a=2, L=1024, field=COMPLEX, seed=0)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            scheme = build_windowed_scheme(cfg)
            x = scheme.measure(scheme.random_signal(rng))
            batch = scheme.measure_batch(scheme.random_signal(rng, 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.shape == (12 * 1024,) and batch.shape == (12 * 1024, 8)
        assert peak < 16 * 2**20


def legacy_layout(kind, *params):
    """(projections, edge supports, edge functional of each edge) as the
    builders wrote them when every local object was its own list, dict entry
    and array: per-vertex loops and set intersections."""
    if kind == "toy":
        projections = [[k, k + 1] for k in range(3)]
        supports = {(k, k + 1): [k + 1] for k in range(2)}
        return projections, supports, dict.fromkeys(supports, np.ones((1, 1)))
    if kind == "windowed":
        a, L, field = params
        cfg = WindowedConfig(a=a, L=L, field=field, seed=7)
        projections = [sorted((ell * a + j) % cfg.d for j in range(2 * a)) for ell in range(L)]
        edges = sorted([(i, i + 1) for i in range(L - 1)] + [(0, L - 1)])
        supports = {
            (u, v): sorted(set(projections[u]) & set(projections[v])) for u, v in edges
        }
        dtype = np.complex128 if field == COMPLEX else np.float64
        return projections, supports, dict.fromkeys(supports, np.eye(a, dtype=dtype))
    n, radius = params
    gen = GeneratorModel(N=n)
    projections = [
        [coefficient_index(gen, radius, ell + kk) for kk in range(-n + 1, 1)]
        for ell in range(-radius, radius + 1)
    ]
    supports = {(v, v + 1): projections[v + 1][:-1] for v in range(2 * radius)}
    return projections, supports, dict.fromkeys(supports, np.eye(n - 1))


FUZZ_SPECS = (
    [("toy",)]
    + [("windowed", a, L, f) for a in (1, 2) for L in (4, 8, 16) for f in (REAL, COMPLEX)]
    + [("shiftinv", n, r) for n in (2, 3) for r in (8, 16)]
)


def descriptor_layout(descriptor):
    """The per-object layout a JSON descriptor spells out."""
    edges = sorted(tuple(sorted(e)) for e in descriptor["graph"]["edges"])
    entries = descriptor["edgeFunctionals"]
    supports = {e: entry["support"] for e, entry in zip(edges, entries)}
    blocks = [np.asarray(entry["block"]) for entry in entries]
    if descriptor["field"] == COMPLEX:
        blocks = [block[..., 0] + 1j * block[..., 1] for block in blocks]
    return descriptor["projections"], supports, dict(zip(edges, blocks))


def assert_same_layout(scheme, layout):
    projections, supports, functionals = layout
    assert len(scheme.vertex_projections) == len(projections)
    for view, support in zip(scheme.vertex_projections, projections):
        assert view.tolist() == support
        assert view.dtype == np.int64 and not view.flags.writeable
    assert list(scheme.edge_supports) == list(supports) == [e[:2] for e in scheme.graph.edges]
    assert list(scheme.edge_functionals) == list(functionals)
    for e, support in supports.items():
        view = scheme.edge_supports[e]
        assert view.tolist() == support
        assert view.dtype == np.int64 and not view.flags.writeable
    for e, block in functionals.items():
        legacy = measurement.as_field_array(block, scheme.field)
        mat = scheme.edge_functionals[e]
        assert mat.dtype == legacy.dtype and np.array_equal(mat, legacy)
        assert not mat.flags.writeable  # frozen as frame rows are
    items = [(e, v.tolist()) for e, v in scheme.edge_supports.items()]
    assert items == [(e, v.tolist()) for e, v in zip(supports, scheme.edge_supports.values())]


def stacked_copy_apply(supports, blocks, F):
    """`op @ F` and the member offsets as the operators computed them with
    one (k, r, s) stack per block shape holding a copy of each member's block."""
    offsets = np.cumsum([0] + [block.shape[0] for block in blocks])
    by_shape = {}
    for k, block in enumerate(blocks):
        by_shape.setdefault(block.shape, []).append(k)
    F = np.asarray(F)
    tail, width = F.shape[1:], math.prod(F.shape[1:])
    out = np.empty((offsets[-1],) + tail, dtype=np.result_type(F, *blocks))
    for (r, s), members in by_shape.items():
        cols = np.array([supports[k] for k in members], dtype=np.int64).reshape(len(members), s)
        stack = np.conj(np.array([blocks[k] for k in members]))
        rows = (offsets[members][:, None] + np.arange(r)).ravel()
        prod = stack @ F[cols].reshape(cols.shape + (width,))
        out[rows] = prod.reshape((rows.size,) + tail)
    return out, offsets


class TestArrayBackedScheme:
    """One support table and one copy of each distinct block, read through views."""

    @pytest.mark.parametrize("spec", FUZZ_SPECS, ids=lambda spec: "-".join(map(str, spec)))
    def test_views_hold_the_per_object_layout(self, spec):
        kind, *params = spec
        if kind == "toy":
            scheme = toy_scheme()
        elif kind == "windowed":
            a, L, field = params
            scheme = build_windowed_scheme(WindowedConfig(a=a, L=L, field=field, seed=7))
        else:
            scheme = build_shiftinv_scheme(GeneratorModel(N=params[0]), params[1])
        layout = legacy_layout(kind, *params)
        assert_same_layout(scheme, layout)
        # a round trip through dataclasses.replace, from the views or from
        # tuples and dicts, keeps every value and the descriptor bytes
        again = dataclasses.replace(scheme)
        assert again._blocks == scheme._blocks
        rebuilt = dataclasses.replace(
            scheme,
            vertex_projections=tuple(scheme.vertex_projections),
            edge_supports=dict(scheme.edge_supports),
            edge_functionals=dict(scheme.edge_functionals),
        )
        for copy in (again, rebuilt):
            assert_same_layout(copy, layout)
            assert scheme_to_json(copy) == scheme_to_json(scheme)
        # shared blocks are held once: one frame block (two on a wrapping
        # windowed cycle) and one gluing block
        assert len(scheme._blocks) == (3 if kind == "windowed" else 2)

    def test_json_loaded_mixed_shapes(self):
        scheme = mixed_block_scheme()
        descriptor = json.loads(scheme_to_json(scheme))
        assert_same_layout(scheme, descriptor_layout(descriptor))
        assert_same_layout(dataclasses.replace(scheme), descriptor_layout(descriptor))
        assert len(scheme._blocks) == 8  # every loaded block is its own object

    def test_edge_views_read_like_dicts(self, toy):
        functionals, supports = toy.edge_functionals, toy.edge_supports
        assert len(functionals) == 2 and (0, 1) in functionals and (1, 0) not in functionals
        assert "edge" not in functionals and (0, 1, 2) not in supports
        with pytest.raises(KeyError):
            supports[(0, 2)]
        assert functionals.get((0, 3)) is None
        assert [e for e, _ in functionals.items()] == [(0, 1), (1, 2)]
        assert functionals[(0, 1)] is functionals[(1, 2)]  # one shared block
        assert {**supports}.keys() == {(0, 1), (1, 2)}
        assert toy.vertex_projections[-1].tolist() == [2, 3]
        assert [s.tolist() for s in toy.vertex_projections[1:]] == [[1, 2], [2, 3]]
        with pytest.raises(IndexError):
            toy.vertex_projections[3]

    @pytest.mark.parametrize("name", sorted(ORACLE_SCHEMES) + ["windowed-wrap", "loaded"])
    def test_block_operators_match_stacked_copies(self, name):
        if name == "windowed-wrap":
            scheme = build_windowed_scheme(WindowedConfig(a=2, L=64, field=COMPLEX, seed=0))
        elif name == "loaded":
            windowed = build_windowed_scheme(WindowedConfig(a=2, L=9, field=COMPLEX, seed=2))
            scheme = scheme_from_json(scheme_to_json(windowed))
        else:
            scheme = ORACLE_SCHEMES[name]()
        members = {
            "vertex": (
                scheme.vertex_operator,
                list(scheme.vertex_projections),
                [fr.rows for fr in scheme.vertex_frames],
            ),
            "edge": (
                scheme.edge_operator,
                list(scheme.edge_supports.values()),
                list(scheme.edge_functionals.values()),
            ),
        }
        rng = np.random.default_rng(40)
        f, columns = scheme.random_signal(rng), scheme.random_signal(rng, 5)
        for op, supports, blocks in members.values():
            for F in (f, columns):
                expected, offsets = stacked_copy_apply(supports, blocks, F)
                got = op @ F
                assert got.dtype == expected.dtype and np.array_equal(got, expected)
                assert np.array_equal(op.offsets, offsets)
                sums = np.add.reduceat(np.abs(expected) ** scheme.p, offsets[:-1], axis=0)
                assert np.array_equal(op.power_sums(F, scheme.p), sums)
        vertex_supports, frames = members["vertex"][1:]
        assert np.array_equal(scheme.measure(f), stacked_copy_apply(vertex_supports, frames, f)[0])
        assert np.array_equal(
            scheme.measure_batch(columns), stacked_copy_apply(vertex_supports, frames, columns)[0]
        )

    @pytest.mark.parametrize(
        "edges, message",
        [
            (((0, 1), (1, 1)), "self-loop at vertex 1"),
            (((0, 5), (1, 1)), r"edge \(0,5\) outside vertex range"),
            (((0, 1), (-1, 2)), r"edge \(-1,2\) outside vertex range"),
            (((0, 1), (1, 0)), r"duplicate edge \(0,1\)"),
            (((1, 2), (0, 1), (2, 1)), r"duplicate edge \(1,2\)"),
            (((0, 1), (0.5, 2)), "must be integers"),
            (((0, 1, 2),), r"\(u, v\) pairs"),
        ],
    )
    def test_malformed_edges_keep_their_messages(self, toy, edges, message):
        # a descriptor's graph is checked by WeightedGraph, whose error the loader reports
        with pytest.raises(SchemeError, match="malformed scheme descriptor: .*" + message):
            scheme_from_dict(with_edges(toy, edges))
        if all(len(e) == 2 for e in edges):
            with pytest.raises(InvalidWeightError, match=message):
                WeightedGraph(np.ones(3), [(a, b, 1.0) for a, b in edges])

    def test_graph_arrays(self):
        g = WeightedGraph(np.ones(4), (np.array([2, 1, 0]), np.array([3, 0, 2]), np.ones(3)))
        assert g.edges == ((0, 1, 1.0), (0, 2, 1.0), (2, 3, 1.0))
        assert g.u.tolist() == [0, 0, 2] and g.v.tolist() == [1, 2, 3]
        assert g.u.dtype == np.int64 and not g.u.flags.writeable
        by_edge = EdgeMap(g, "abc")
        assert by_edge[(0, 2)] == "b" and list(by_edge) == [(0, 1), (0, 2), (2, 3)]
        for missing in [(2, 0), (1, 3), (0, 2.5), "ab", 7, (2**70, 1)]:
            with pytest.raises(KeyError):
                by_edge[missing]
        ring = ((0, 1, 1.0), (0, 3, 1.0), (1, 2, 1.0), (2, 3, 1.0))
        assert cycle_graph(4).edges == ring and cycle_graph(4).vertex_weights.tolist() == [1.0] * 4
        assert path_graph(1).edges == () and cycle_graph(2).edges == ((0, 1, 1.0),)

    def test_edge_blocks_are_frozen_copies(self, toy):
        blocks = {e: np.array(m) for e, m in toy.edge_functionals.items()}
        scheme = dataclasses.replace(toy, edge_functionals=blocks)
        digest = scheme.descriptor_hash()
        blocks[(0, 1)][0, 0] = 99.0
        assert scheme.descriptor_hash() == digest and scheme.edge_functionals[(0, 1)][0, 0] == 1.0
        assert not any(m.flags.writeable for m in scheme.edge_functionals.values())
        loaded = scheme_from_json(scheme_to_json(scheme))
        assert not any(m.flags.writeable for m in loaded.edge_functionals.values())

    def test_malformed_tables_keep_their_messages(self, toy):
        for table, message in [
            (np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0]]), "1-D array of integer indices"),
            (np.array([[1, 0], [1, 2], [2, 3]]), "sorted"),
            (np.array([[0, 1], [1, 2], [2, 4]]), r"range \[0, 4\)"),
        ]:
            with pytest.raises(SchemeError, match=message):
                with_projections(toy, table)
        with pytest.raises(SchemeError, match="cover exactly"):
            dataclasses.replace(toy, edge_supports=np.array([[1]]))
        with pytest.raises(SchemeError, match="cover exactly"):
            dataclasses.replace(toy, edge_functionals=(np.ones((1, 1)),) * 3)
        with pytest.raises(SchemeError, match=r"edge \(0, 1\) has shape \(1, 2\)"):
            dataclasses.replace(toy, edge_functionals=(np.ones((1, 2)), np.ones((1, 1))))
        with pytest.raises(SchemeError, match=r"frame 1 has shape \(3, 2\)"):
            with_projections(toy, [[0, 1], [1], [2, 3]])

    def test_shiftinv_16384_footprint(self):
        gen = GeneratorModel(N=2)
        build_shiftinv_scheme(gen, 8)  # the generator caches its constants
        tracemalloc.start()
        try:
            scheme = build_shiftinv_scheme(gen, 16384)
            scheme.vertex_operator, scheme.edge_operator
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one list, dict entry and array per object kept 26 MB and peaked at 45 MB
        assert scheme.num_vertices == 32769
        assert kept <= 8e6 and peak <= 16e6, (kept, peak)

    def test_windowed_16384_operators_peak(self):
        cfg = WindowedConfig(a=2, L=16384, field=COMPLEX, seed=0)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            scheme = build_windowed_scheme(cfg)
            scheme.vertex_operator, scheme.edge_operator
            kept = tracemalloc.get_traced_memory()[0]
            graph = induce_graph(scheme, scheme.random_signal(rng))
            x = scheme.measure(scheme.random_signal(rng))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a (16384, 12, 4) complex stack of copies of one frame is 12.6 MB;
        # the per-object layout kept 27 MB and peaked at 38 MB here
        assert graph.num_vertices == 16384 and x.shape == (12 * 16384,)
        assert kept <= 4e6 and peak <= 12e6, (kept, peak)


def oracle_toy():
    """The toy chain as spelled out before `sliding_scheme` built it."""
    local = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    svals = np.linalg.svd(local, compute_uv=False)
    lower, upper = float(svals[-1]), float(svals[0])
    frame = Frame(local, REAL)
    return LsccScheme(
        name="toy",
        field=REAL,
        p=2.0,
        ambient_dim=4,
        graph=path_graph(3),
        vertex_frames=(frame,) * 3,
        vertex_projections=np.arange(3)[:, None] + np.arange(2),
        edge_functionals=(np.ones((1, 1)),) * 2,
        edge_supports=np.arange(1, 3)[:, None],
        local_stability=real_local_stability(local, sigma_strong(local)),
        edge_domination=1.0 / lower,
        frame_lower=lower,
        frame_upper=upper,
        exhaustion_lower=1.0,
        exhaustion_upper=math.sqrt(2.0),
    )


def oracle_windowed(cfg):
    """The windowed cycle as spelled out before `sliding_scheme` built it."""
    local = default_local_rows(cfg)
    svals = np.linalg.svd(local, compute_uv=False)
    lower, upper = float(svals[-1]), float(svals[0])
    if cfg.field == REAL:
        c0 = real_local_stability(local, sigma_and_complement(local)[0])
    else:
        rng = np.random.default_rng(cfg.seed + 1)
        c0 = COMPLEX_C0_MARGIN * estimate_local_stability(local, cfg.field, 2.0, 4000, rng)
    graph = cycle_graph(cfg.L)
    frames = (Frame(local, cfg.field),) * (cfg.L - 1)
    frames += (Frame(np.roll(local, -cfg.a, axis=1), cfg.field),)
    later = np.where(graph.v - graph.u == 1, graph.v, graph.u)
    return LsccScheme(
        name=f"windowed(a={cfg.a},L={cfg.L},{cfg.field})",
        field=cfg.field,
        p=2.0,
        ambient_dim=cfg.d,
        graph=graph,
        vertex_frames=frames,
        vertex_projections=np.sort(
            (np.arange(cfg.L)[:, None] * cfg.a + np.arange(2 * cfg.a)) % cfg.d, axis=1
        ),
        edge_functionals=(np.eye(cfg.a, dtype=local.dtype),) * cfg.L,
        edge_supports=later[:, None] * cfg.a + np.arange(cfg.a),
        local_stability=c0,
        edge_domination=1.0 / lower,
        frame_lower=lower,
        frame_upper=upper,
        exhaustion_lower=math.sqrt(2.0),
        exhaustion_upper=math.sqrt(2.0),
    )


def oracle_shiftinv(gen, R):
    """The shiftinv path as spelled out before `sliding_scheme` built it."""
    n_vert = 2 * R + 1
    lower, upper = gen.frame_bounds
    first = np.arange(n_vert)[:, None]
    if gen.p == 2.0:
        c0, c1, _ = sigma_based_constants(gen)
    else:
        rng = np.random.default_rng(0)
        c0 = COMPLEX_C0_MARGIN * estimate_local_stability(gen.local_matrix, REAL, gen.p, 2000, rng)
        c1 = 1.0 / lower
    return LsccScheme(
        name=f"shiftinv(N={gen.N},R={R},p={gen.p:g})",
        field=REAL,
        p=gen.p,
        ambient_dim=2 * R + gen.N,
        graph=path_graph(n_vert),
        vertex_frames=(Frame(gen.local_matrix, REAL),) * n_vert,
        vertex_projections=first + np.arange(gen.N),
        edge_functionals=(np.eye(gen.N - 1),) * (n_vert - 1),
        edge_supports=first[1:] + np.arange(gen.N - 1),
        local_stability=c0,
        edge_domination=c1,
        frame_lower=lower,
        frame_upper=upper,
        exhaustion_lower=1.0,
        exhaustion_upper=float(gen.N) ** (1.0 / gen.p),
        vertex_labels=tuple(range(-R, R + 1)),
    )


SLIDING_SPECS = {
    "toy": (toy_scheme, oracle_toy),
    **{
        f"windowed-a{a}-L{L}-{field}": (
            lambda cfg=WindowedConfig(a=a, L=L, field=field): build_windowed_scheme(cfg),
            lambda cfg=WindowedConfig(a=a, L=L, field=field): oracle_windowed(cfg),
        )
        for a in (1, 2, 3)
        for L in (3, 4, 8, 17)
        for field in (REAL, COMPLEX)
    },
    **{
        f"shiftinv-N{n}-R{radius}-p{p:g}": (
            lambda n=n, radius=radius, p=p: build_shiftinv_scheme(GeneratorModel(N=n, p=p), radius),
            lambda n=n, radius=radius, p=p: oracle_shiftinv(GeneratorModel(N=n, p=p), radius),
        )
        for n, radius, p in [(n, r, 2.0) for n in (2, 3, 5) for r in (5, 8, 33)]
        + [(2, 8, 3.0), (3, 8, 1.5)]
    },
}


class TestSlidingScheme:
    """`sliding_scheme` and the three builders that call it."""

    @pytest.mark.parametrize("name", sorted(SLIDING_SPECS))
    def test_builders_match_oracles(self, name):
        build, oracle = SLIDING_SPECS[name]
        assert scheme_to_json(build()) == scheme_to_json(oracle())

    @staticmethod
    def slid(local, stride, count, cycle):
        lower, upper = p_frame_bounds(local, 2.0)
        return sliding_scheme("slid", local, stride, count, cycle, 2.0, 1.0, 1.0, (lower, upper))

    @staticmethod
    def window_measurements(local, stride, count, dim, f):
        """Every window's measurements, reading `local` column j at k * stride + j."""
        return np.concatenate(
            [np.conj(local) @ f[(k * stride + np.arange(local.shape[1])) % dim] for k in range(count)]
        )

    def test_path_with_uneven_cover(self):
        rng = np.random.default_rng(30)
        local = rng.standard_normal((7, 3))
        scheme = self.slid(local, 2, 4, False)
        assert scheme.ambient_dim == 9 and list(scheme.edge_supports) == [(0, 1), (1, 2), (2, 3)]
        assert [s.tolist() for s in scheme.vertex_projections] == [
            [0, 1, 2], [2, 3, 4], [4, 5, 6], [6, 7, 8]
        ]
        assert [s.tolist() for s in scheme.edge_supports.values()] == [[2], [4], [6]]
        # coordinates 2, 4 and 6 sit in two windows, the others in one
        assert (scheme.exhaustion_lower, scheme.exhaustion_upper) == (1.0, math.sqrt(2.0))
        assert validate_exhaustion(scheme, trials=50).passed
        f = rng.standard_normal(9)
        assert np.array_equal(scheme.measure(f), self.window_measurements(local, 2, 4, 9, f))

    def test_cycle_last_window_wraps(self):
        rng = np.random.default_rng(31)
        local = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        scheme = self.slid(local, 2, 4, True)
        assert scheme.field == COMPLEX and scheme.ambient_dim == 8
        assert scheme.vertex_projections[3].tolist() == [0, 6, 7]
        assert np.array_equal(scheme.vertex_frames[3].rows, local[:, [2, 0, 1]])
        assert scheme.vertex_frames[0] is scheme.vertex_frames[2]
        # the wrap edge (0, 3) is glued on the first coordinate of window 0
        assert dict(scheme.edge_supports.items())[(0, 3)].tolist() == [0]
        assert (scheme.exhaustion_lower, scheme.exhaustion_upper) == (1.0, math.sqrt(2.0))
        assert validate_exhaustion(scheme, trials=50).passed
        f = scheme.random_signal(rng)
        expected = self.window_measurements(local, 2, 4, 8, f)
        assert np.allclose(scheme.measure(f), expected, rtol=1e-14, atol=1e-14)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_write_load_write_is_identity(self, data):
        width = data.draw(st.integers(2, 4), label="width")
        stride = data.draw(st.integers(1, width - 1), label="stride")
        cycle = width <= 2 * stride and data.draw(st.booleans(), label="cycle")
        count = data.draw(st.integers(3 if cycle else 2, 6), label="count")
        rows = data.draw(st.integers(width, 2 * width), label="rows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        local = rng.standard_normal((rows, width))
        if data.draw(st.booleans(), label="complex"):
            local = local + 1j * rng.standard_normal(local.shape)
        local[rng.random(local.shape) < 0.2] = 0.0  # blocks keep only their nonzero columns
        p = 2.0 if np.iscomplexobj(local) else data.draw(st.sampled_from([2.0, 3.0]), label="p")
        scheme = sliding_scheme("slid", local, stride, count, cycle, p, 1.0, 1.0, (0.5, 2.0))
        text = scheme_to_json(scheme)
        again = scheme_from_json(text)
        assert scheme_to_json(again) == text
        assert again.descriptor_hash() == scheme.descriptor_hash()

    @pytest.mark.parametrize("stride, count", [(1, 4), (2, 2)])
    def test_cycle_rejects_more_wrapping_windows(self, stride, count):
        with pytest.raises(SchemeError, match="only the last may wrap"):
            self.slid(np.eye(3), stride, count, True)
