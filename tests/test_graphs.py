import math
import tracemalloc

import numpy as np
import pytest

import lscc.graphs

from lscc.errors import (
    BudgetExceededError,
    EmptyGraphError,
    InvalidWeightError,
    TopologyError,
)
from lscc.graphs import (
    EXACT_BUDGET,
    WeightedGraph,
    algebraic_connectivity,
    check_cheeger_inequality,
    cheeger,
    cheeger_exact,
    cheeger_interval,
    cheeger_sweep,
    graph_from_json,
    graph_to_json,
    is_connected,
    laplacian,
    normalized_degree,
    normalized_laplacian,
    rayleigh_quotient,
)


def unweighted_cycle(n):
    edges = [(i, i + 1, 1.0) for i in range(n - 1)]
    if n > 2:
        edges.append((0, n - 1, 1.0))
    return WeightedGraph(np.ones(n), tuple(edges))


def unweighted_path(n):
    return WeightedGraph(np.ones(n), tuple((i, i + 1, 1.0) for i in range(n - 1)))


def scalar_cheeger_interval(g):
    """Reference (value, witness) of the interval reduction: the plain scalar
    double loop, one member tuple per admissible interval or arc."""
    n = g.num_vertices
    if n == 1:
        return math.inf, ()
    ew = np.zeros(n)
    for u, v, w_e in g.edges:
        ew[u if v == u + 1 else v] = w_e
    w = g.vertex_weights
    half = 0.5 * g.total_volume()
    best = math.inf
    best_witness = None

    def consider(ratio, members):
        nonlocal best, best_witness
        if ratio < best:
            best = ratio
            best_witness = members
        elif ratio == best and (best_witness is None or members < best_witness):
            best_witness = members

    for k in range(n):
        acc = 0.0
        for ell in range(k, n):
            acc += w[ell]
            if k == 0 and ell == n - 1:
                continue
            if acc > half:
                continue
            consider((ew[k - 1] + ew[ell]) / acc, tuple(range(k, ell + 1)))

    if ew[-1] > 0.0:
        small = n <= EXACT_BUDGET
        total = g.total_volume()
        csum = np.concatenate(([0.0], np.cumsum(w)))
        for j in range(n - 2):
            for k in range(j + 2, n):
                if small:
                    acc = 0.0
                    for i in range(j + 1):
                        acc += w[i]
                    for i in range(k, n):
                        acc += w[i]
                else:
                    acc = total - float(csum[k] - csum[j + 1])
                if acc > half:
                    continue
                bd = ew[j] + ew[k - 1]
                consider(bd / acc, tuple(range(j + 1)) + tuple(range(k, n)))

    return float(best), tuple(g.labels[i] for i in best_witness)


def random_ring_graph(rng, n, style):
    """Path or cycle on n vertices with edges dropped; style 0 draws
    continuous weights, 1 small integers, 2 unit vertices (tie-prone)."""
    ring = [(i, i + 1) for i in range(n - 1)] + ([(0, n - 1)] if n > 2 else [])
    keep = rng.choice([1.0, 0.97, 0.8])
    if rng.random() < 0.3:
        ring = ring[: n - 1]  # a path
    kept = [e for e in ring if rng.random() < keep]
    if style == 0:
        w, ew = rng.uniform(0.2, 3.0, n), rng.uniform(0.1, 2.0, len(kept))
    elif style == 1:
        w = rng.integers(1, 4, n).astype(float)
        ew = rng.integers(1, 4, len(kept)).astype(float)
    else:
        w, ew = np.ones(n), np.full(len(kept), rng.choice([0.1, 1.0]))
    return WeightedGraph(w, tuple((u, v, float(x)) for (u, v), x in zip(kept, ew)))


def random_connected_graph(rng, n):
    """Random spanning tree plus extra edges, positive random weights."""
    edges = {}
    order = rng.permutation(n)
    for i in range(1, n):
        u, v = int(order[i]), int(order[int(rng.integers(0, i))])
        edges[(min(u, v), max(u, v))] = float(rng.uniform(0.1, 3.0))
    extra = int(rng.integers(0, n))
    for _ in range(extra):
        u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
        edges.setdefault((u, v), float(rng.uniform(0.1, 3.0)))
    weights = rng.uniform(0.2, 4.0, n)
    return WeightedGraph(weights, tuple((u, v, w) for (u, v), w in edges.items()))


class TestConstruction:
    def test_rejects_zero_weight(self):
        with pytest.raises(InvalidWeightError):
            WeightedGraph(np.array([1.0, 0.0]), ((0, 1, 1.0),))

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidWeightError):
            WeightedGraph(np.ones(2), ((0, 0, 1.0),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InvalidWeightError):
            WeightedGraph(np.ones(2), ((0, 1, 1.0), (1, 0, 2.0)))

    def test_edges_normalized_sorted(self):
        g = WeightedGraph(np.ones(3), ((2, 1, 1.0), (1, 0, 2.0)))
        assert g.edges == ((0, 1, 2.0), (1, 2, 1.0))


class TestConnectivity:
    def test_toy_connected_weights(self):
        g = WeightedGraph(np.array([14.0, 8.0, 2.0]), ((0, 1, 4.0), (1, 2, 9.0)))
        assert is_connected(g)

    def test_toy_broken_weights(self):
        g = WeightedGraph(np.array([14.0, 8.0, 2.0]), ((0, 1, 4.0),))
        assert not is_connected(g)

    def test_single_vertex(self):
        assert is_connected(WeightedGraph(np.ones(1), ()))

    def test_empty_graph_raises(self):
        with pytest.raises(EmptyGraphError):
            is_connected(WeightedGraph(np.zeros(0), ()))


class TestCheegerExact:
    def test_four_cycle(self):
        res = cheeger_exact(unweighted_cycle(4))
        assert res.upper == 1.0 and res.lower == 1.0
        assert res.witness == (0, 1)

    def test_two_path(self):
        res = cheeger_exact(unweighted_path(2))
        assert res.upper == 1.0
        assert res.witness == (0,)

    def test_disconnected_zero_with_component_witness(self):
        g = WeightedGraph(np.ones(4), ((0, 1, 1.0), (2, 3, 1.0)))
        res = cheeger_exact(g)
        assert res.upper == 0.0
        assert set(res.witness) in ({0, 1}, {2, 3})

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            cheeger_exact(unweighted_cycle(25))

    def test_single_vertex_infimum_over_empty_family(self):
        res = cheeger_exact(WeightedGraph(np.ones(1), ()))
        assert math.isinf(res.upper)

    def test_witness_achieves_value(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            g = random_connected_graph(rng, int(rng.integers(3, 9)))
            res = cheeger_exact(g)
            members = set(res.witness)
            vol = 0.0
            for i in sorted(members):
                vol += g.vertex_weights[i]
            bd = sum(w for (u, v, w) in g.edges if (u in members) != (v in members))
            assert vol <= 0.5 * g.total_volume() + 1e-12
            assert bd / vol == pytest.approx(res.upper, abs=1e-10)


class TestCheegerInterval:
    def test_cycle_matches_exact_bitwise(self):
        rng = np.random.default_rng(1)
        for n in range(3, 13):
            weights = rng.uniform(0.2, 3.0, n)
            edges = [(i, i + 1, float(rng.uniform(0.1, 2.0))) for i in range(n - 1)]
            edges.append((0, n - 1, float(rng.uniform(0.1, 2.0))))
            g = WeightedGraph(weights, tuple(edges))
            assert cheeger_interval(g).upper == cheeger_exact(g).upper

    def test_path_matches_exact_bitwise(self):
        rng = np.random.default_rng(2)
        for n in range(2, 13):
            weights = rng.uniform(0.2, 3.0, n)
            edges = tuple((i, i + 1, float(rng.uniform(0.1, 2.0))) for i in range(n - 1))
            g = WeightedGraph(weights, edges)
            assert cheeger_interval(g).upper == cheeger_exact(g).upper

    def test_four_cycle(self):
        assert cheeger_interval(unweighted_cycle(4)).upper == 1.0

    def test_two_path(self):
        assert cheeger_interval(unweighted_path(2)).upper == 1.0

    def test_topology_mismatch(self):
        g = WeightedGraph(np.ones(4), ((0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)))
        with pytest.raises(TopologyError):
            cheeger_interval(g)

    def test_cycle_closed_form_large(self):
        for L in (32, 48, 64):
            res = cheeger_interval(unweighted_cycle(L))
            assert res.upper == pytest.approx(2.0 / (L // 2), abs=1e-10)

    def test_ring_route_matches_exact(self):
        # rings with dropped edges (broken cycles, broken paths, disconnected
        # pieces), with continuous and tie-prone integer weights
        rng = np.random.default_rng(4)
        for trial in range(300):
            n = int(rng.integers(2, 13))
            ring = [(i, i + 1) for i in range(n - 1)] + ([(0, n - 1)] if n > 2 else [])
            kept = [e for e in ring if rng.random() < 0.8]
            if trial % 2:
                w = rng.uniform(0.2, 3.0, n)
                ew = rng.uniform(0.1, 2.0, len(kept))
            else:
                w = rng.integers(1, 4, n).astype(float)
                ew = rng.integers(1, 4, len(kept)).astype(float)
            g = WeightedGraph(w, tuple((u, v, float(x)) for (u, v), x in zip(kept, ew)))
            res, exact = cheeger(g), cheeger_exact(g)
            assert res.method == "IntervalReduction"
            assert res.value == exact.value
            if exact.value > 0.0:  # zero-value cuts of disconnected graphs tie widely
                assert res.witness == exact.witness

    def test_blocks_match_scalar_oracle(self, monkeypatch):
        # bit-identical value and witness to the scalar double loop, across
        # EXACT_BUDGET, under the default block size and under blocks of 1-4
        # start rows (many blocks, a partial last block)
        rng = np.random.default_rng(5)
        for trial in range(500):
            n = int(rng.integers(1, 301) if trial % 50 == 0 else rng.integers(1, 41))
            g = random_ring_graph(rng, n, trial % 3)
            chunk = lscc.graphs._CHUNK if trial % 2 else int(rng.integers(1, 4 * n + 1))
            monkeypatch.setattr(lscc.graphs, "_CHUNK", chunk)
            res = cheeger_interval(g)
            assert (res.upper, res.witness) == scalar_cheeger_interval(g), (trial, n, chunk)

    def test_large_cycle_tie_and_memory(self):
        # every 2048-arc of the unweighted 4096-cycle ties; the smallest
        # witness wins, and no n x n block (134 MB of float64) is formed
        n = 4096
        g = unweighted_cycle(n)
        tracemalloc.start()
        try:
            res = cheeger_interval(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.value == 4.0 / n
        assert res.witness == tuple(range(n // 2))
        assert peak < 16 * 2**20

    def test_agreement_at_enumeration_budget(self):
        # the full 24-vertex budget: 2^23 cuts against the O(n^2) reduction
        rng = np.random.default_rng(3)
        n = 24
        w = rng.uniform(0.2, 3.0, n)
        path_edges = tuple((i, i + 1, float(rng.uniform(0.1, 2.0))) for i in range(n - 1))
        path = WeightedGraph(w, path_edges)
        assert cheeger_interval(path).upper == cheeger_exact(path).upper
        cyc = WeightedGraph(w, path_edges + ((0, n - 1, float(rng.uniform(0.1, 2.0))),))
        exact = cheeger_exact(cyc)
        interval = cheeger_interval(cyc)
        assert interval.upper == exact.upper
        assert interval.witness == exact.witness


class TestLaplacian:
    def test_two_path(self):
        assert np.array_equal(laplacian(unweighted_path(2)), [[1.0, -1.0], [-1.0, 1.0]])

    def test_triangle(self):
        g = unweighted_cycle(3)
        lap = laplacian(g)
        adjacency = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        assert np.array_equal(lap, np.diag([2.0, 2.0, 2.0]) - adjacency)

    def test_toy_row_sums(self):
        g = WeightedGraph(np.array([14.0, 8.0, 2.0]), ((0, 1, 4.0), (1, 2, 9.0)))
        assert np.max(np.abs(laplacian(g).sum(axis=1))) <= 1e-12


class TestAlgebraicConnectivity:
    def test_cycle_closed_forms(self):
        for L in range(3, 65):
            res = algebraic_connectivity(unweighted_cycle(L))
            assert res.lam == pytest.approx(2.0 * (1.0 - math.cos(2.0 * math.pi / L)), abs=1e-10)

    def test_disconnected_zero(self):
        g = WeightedGraph(np.ones(4), ((0, 1, 1.0), (2, 3, 1.0)))
        assert algebraic_connectivity(g).lam == pytest.approx(0.0, abs=1e-12)

    def test_complete_three_unit_weights(self):
        # S = I so the normalized operator is the plain Laplacian: gap 3
        assert algebraic_connectivity(unweighted_cycle(3)).lam == pytest.approx(3.0, abs=1e-10)

    def test_fiedler_conventions(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(3, 10)))
            res = algebraic_connectivity(g)
            z = res.fiedler
            # weighted orthogonality to the constant vector
            assert abs(np.sum(g.vertex_weights * z)) <= 1e-10
            # unit weighted norm and positive leading entry
            assert np.sum(g.vertex_weights * z * z) == pytest.approx(1.0, abs=1e-10)
            lead = z[np.flatnonzero(np.abs(z) > 1e-12 * np.max(np.abs(z)))[0]]
            assert lead > 0.0
            assert rayleigh_quotient(g, z) == pytest.approx(res.lam, abs=1e-9)

    def test_eigensolver_certificate(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(3, 12)))
            res = algebraic_connectivity(g)
            m = normalized_laplacian(g)
            y = np.sqrt(g.vertex_weights) * res.fiedler
            assert np.linalg.norm(m @ y - res.lam * y) <= 1e-9 * np.linalg.norm(m, "fro")

    def test_single_vertex(self):
        res = algebraic_connectivity(WeightedGraph(np.ones(1), ()))
        assert math.isinf(res.lam)


class TestCheegerSweep:
    def test_sandwich_contains_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            g = random_connected_graph(rng, int(rng.integers(3, 12)))
            exact = cheeger_exact(g).upper
            sw = cheeger_sweep(g)
            assert sw.lower <= exact + 1e-10
            assert sw.upper >= exact - 1e-10

    def test_four_cycle_finds_optimum(self):
        assert cheeger_sweep(unweighted_cycle(4)).upper == pytest.approx(1.0)

    def test_two_path_single_cut(self):
        assert cheeger_sweep(unweighted_path(2)).upper == pytest.approx(1.0)

    def test_sweep_witness_achieves_upper(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_connected_graph(rng, int(rng.integers(3, 12)))
            sw = cheeger_sweep(g)
            members = set(sw.witness)
            vol = sum(g.vertex_weights[i] for i in sorted(members))
            bd = sum(w for (u, v, w) in g.edges if (u in members) != (v in members))
            assert vol <= 0.5 * g.total_volume() + 1e-12
            assert bd / vol == pytest.approx(sw.upper, abs=1e-10)

    def test_fallback_dispatch(self):
        # the route follows the edges: a ring takes the interval reduction at
        # any size; one chord sends it to enumeration, then to the sandwich
        assert cheeger(unweighted_cycle(30)).method == "IntervalReduction"
        for n, method in ((12, "ExactEnumeration"), (30, "SpectralSweepSandwich")):
            ring = tuple((i, i + 1, 1.0) for i in range(n - 1)) + ((0, n - 1, 1.0),)
            chorded = WeightedGraph(np.ones(n), ring + ((0, n // 2, 1.0),))
            assert cheeger(chorded).method == method


class TestCheegerInequality:
    def test_four_cycle_closed_forms(self):
        g = unweighted_cycle(4)
        assert check_cheeger_inequality(g, d_n=2.0)

    def test_disconnected(self):
        g = WeightedGraph(np.ones(4), ((0, 1, 1.0), (2, 3, 1.0)))
        assert check_cheeger_inequality(g)

    def test_fuzzed(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            g = random_connected_graph(rng, int(rng.integers(2, 13)))
            assert check_cheeger_inequality(g)

    def test_normalized_degree_formula(self):
        g = WeightedGraph(np.array([2.0, 1.0]), ((0, 1, 3.0),))
        assert normalized_degree(g) == pytest.approx(3.0)


class TestScalingInvariance:
    def test_cheeger_and_lambda_scale_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            g = random_connected_graph(rng, 7)
            scaled = g.scaled(math.pi)
            assert cheeger_exact(scaled).upper == pytest.approx(
                cheeger_exact(g).upper, rel=1e-10
            )
            assert algebraic_connectivity(scaled).lam == pytest.approx(
                algebraic_connectivity(g).lam, rel=1e-10, abs=1e-12
            )

    def test_lambda_zero_iff_disconnected(self):
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(2, 10))
            g = random_connected_graph(rng, n)
            assert algebraic_connectivity(g).lam > 1e-12
            if n >= 4:
                half = n // 2
                kept = tuple((u, v, w) for (u, v, w) in g.edges if (u < half) == (v < half))
                broken = WeightedGraph(g.vertex_weights, kept)
                assert algebraic_connectivity(broken).lam <= 1e-12


class TestSerialization:
    def test_roundtrip_exact(self):
        rng = np.random.default_rng(9)
        g = random_connected_graph(rng, 6)
        again = graph_from_json(graph_to_json(g))
        assert np.array_equal(again.vertex_weights, g.vertex_weights)
        assert again.edges == g.edges
        assert again.labels == g.labels
        assert graph_to_json(again) == graph_to_json(g)

    def test_labels_preserved(self):
        g = WeightedGraph(np.array([1.0, 2.0]), ((0, 1, 3.0),), labels=(5, 9))
        again = graph_from_json(graph_to_json(g))
        assert again.labels == (5, 9)
