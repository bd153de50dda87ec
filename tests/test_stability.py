import json
import math
import types

import numpy as np
import pytest

from lscc.errors import DegenerateFamilyError, UnsupportedPError
from lscc.graphs import (
    SPECTRAL_SWEEP,
    CheegerResult,
    WeightedGraph,
    algebraic_connectivity,
    cheeger,
    cheeger_exact,
)
from lscc.measurement import COMPLEX, REAL, pair_ratios
from lscc.scheme import induce_graph
from lscc.shiftinv import GeneratorModel, build_shiftinv_scheme
from lscc.stability import (
    RANDOM_GAUSSIAN,
    SIGN_FLIP_CAP,
    SIGN_FLIPS,
    _sign_patterns,
    bound,
    complex_bound,
    complex_constant,
    empirical_worst_ratio,
    prefactor,
    real_constant,
    signal_bound,
    stability_report,
)
from lscc.toy import FIXTURE_BROKEN, FIXTURE_BROKEN_TWIN, FIXTURE_CONNECTED, toy_scheme
from lscc.windowed import WindowedConfig, build_windowed_scheme


def old_real_bound(scheme, f, cheeger_result=None, graph=None):
    """The removed per-field real route, kept as the oracle of `bound`."""
    if cheeger_result is None:
        graph = induce_graph(scheme, f) if graph is None else graph
        cheeger_result = None if graph.is_empty else cheeger(graph)
    c2 = real_constant(scheme)
    if cheeger_result is None:
        return math.inf
    c_low = cheeger_result.lower
    if math.isinf(c_low):
        return c2
    if c_low <= 0.0:
        return math.inf
    return c2 * (1.0 + c_low ** (-1.0 / scheme.p))


def old_complex_bound(scheme, f, spectral=None, graph=None):
    """The removed per-field complex route, kept as the oracle of `bound`."""
    if spectral is None:
        graph = induce_graph(scheme, f) if graph is None else graph
        if graph.is_empty:
            return math.inf
        spectral = algebraic_connectivity(graph)
    c3 = complex_constant(scheme)
    if math.isinf(spectral.lam):
        return c3
    if spectral.lam <= 0.0:
        return math.inf
    return c3 * (1.0 + spectral.lam ** (-0.5))


def old_bound(scheme, graph):
    if scheme.field == REAL:
        return old_real_bound(scheme, None, graph=graph)
    return old_complex_bound(scheme, None, graph=graph)


def old_sign_patterns(dim, region_size, cap=SIGN_FLIP_CAP):
    """The removed per-region loop, kept as the oracle of `_sign_patterns`."""
    regions = math.ceil(dim / region_size)
    count = min((1 << (regions - 1)) - 1, cap) if regions > 1 else 0
    for mask in range(1, count + 1):
        sigma = np.ones(dim)
        for r in range(regions):
            if (mask >> r) & 1:
                sigma[r * region_size : (r + 1) * region_size] = -1.0
        yield sigma


def fuzz_schemes():
    """The 17 schemes of the acceptance fuzz (test_04)."""
    schemes = [toy_scheme()]
    for a in (1, 2):
        for L in (4, 8, 16):
            for field in (REAL, COMPLEX):
                schemes.append(build_windowed_scheme(WindowedConfig(a=a, L=L, field=field, seed=7)))
    for n in (2, 3):
        for radius in (8, 16):
            schemes.append(build_shiftinv_scheme(GeneratorModel(N=n), radius))
    return schemes


def scheme_with_constants(p, c0, c1, degree, field=REAL):
    """Minimal scheme stub carrying just what the prefactor formulas read,
    constants a built scheme refuses (C0 = 0, C1 = 0) included."""
    return types.SimpleNamespace(
        p=p, field=field, local_stability=c0, edge_domination=c1,
        graph=types.SimpleNamespace(degree_bound=degree),
    )


class TestPrefactors:
    def test_real_p2_unit_constants(self):
        s = scheme_with_constants(2.0, 1.0, 1.0, 2)
        assert real_constant(s) == pytest.approx(2.0 * math.sqrt(2.0))

    def test_real_p1_all_unit(self):
        s = scheme_with_constants(1.0, 1.0, 1.0, 1)
        assert real_constant(s) == pytest.approx(1.0)

    def test_real_p2_mixed(self):
        s = scheme_with_constants(2.0, 3.0, 2.0, 4)
        assert real_constant(s) == pytest.approx(24.0)

    def test_complex_unit_constants(self):
        s = scheme_with_constants(2.0, 1.0, 1.0, 2)
        assert complex_constant(s) == pytest.approx(4.0 * math.sqrt(2.0))

    def test_complex_degenerate_c0(self):
        s = scheme_with_constants(2.0, 0.0, 1.0, 2)
        assert complex_constant(s) == pytest.approx(math.sqrt(2.0))

    def test_complex_zero_c1(self):
        s = scheme_with_constants(2.0, 1.0, 0.0, 2)
        assert complex_constant(s) == pytest.approx(math.sqrt(10.0))

    def test_complex_requires_p2(self):
        s = scheme_with_constants(3.0, 1.0, 1.0, 2)
        with pytest.raises(UnsupportedPError):
            complex_constant(s)


    def test_prefactor_picks_by_field(self):
        real = build_windowed_scheme(WindowedConfig(a=1, L=4, seed=0))
        cplx = build_windowed_scheme(WindowedConfig(a=1, L=4, field=COMPLEX, seed=0))
        assert prefactor(real) == real_constant(real)
        assert prefactor(cplx) == complex_constant(cplx)


class TestBounds:
    def test_disconnected_infinite(self):
        toy = toy_scheme()
        assert math.isinf(signal_bound(toy, FIXTURE_BROKEN))

    def test_connected_finite_and_dominates(self):
        toy = toy_scheme()
        upper = signal_bound(toy, FIXTURE_CONNECTED)
        assert math.isfinite(upper)
        rng = np.random.default_rng(0)
        ratio, _ = empirical_worst_ratio(
            toy, FIXTURE_CONNECTED, RANDOM_GAUSSIAN, trials=2000, rng=rng
        )
        assert ratio <= upper * (1.0 + 1e-9)

    def test_scale_invariance(self):
        toy = toy_scheme()
        b1 = signal_bound(toy, FIXTURE_CONNECTED)
        b2 = signal_bound(toy, 7.5 * np.asarray(FIXTURE_CONNECTED))
        assert b2 == pytest.approx(b1, rel=1e-10)

    def test_complex_bound_disconnected_infinite(self):
        scheme = build_windowed_scheme(WindowedConfig(a=1, L=4, field=COMPLEX, seed=0))
        f = np.zeros(4, dtype=complex)
        f[0] = 1.0
        f[2] = 1.0  # two lit islands separated by dark overlaps
        assert math.isinf(signal_bound(scheme, f))

    def test_complex_bound_allones_dominates_adversarial(self):
        cfg = WindowedConfig(a=2, L=8, field=COMPLEX, seed=1)
        scheme = build_windowed_scheme(cfg)
        from lscc.windowed import adversarial_pair

        pair = adversarial_pair(cfg, scheme)
        assert signal_bound(scheme, pair.f) >= pair.measured_ratio * (1.0 - 1e-9)

    def test_lambda_consistency_via_cheeger(self):
        # bound from lambda is at most the bound recomputed from the
        # Cheeger-based lower estimate lambda >= C^2/(2 D_N)
        from lscc.graphs import normalized_degree

        cfg = WindowedConfig(a=1, L=8, field=COMPLEX, seed=2)
        scheme = build_windowed_scheme(cfg)
        f = np.ones(cfg.d, dtype=complex)
        graph = induce_graph(scheme, f)
        lam = algebraic_connectivity(graph).lam
        che = cheeger_exact(graph).upper
        d_n = normalized_degree(graph)
        lam_floor = che**2 / (2.0 * d_n)
        c3 = complex_constant(scheme)
        assert c3 * (1.0 + lam ** (-0.5)) <= c3 * (1.0 + lam_floor ** (-0.5)) * (1.0 + 1e-9)

    def test_monotone_in_connectivity(self):
        # same Cheeger formula evaluated on nested values must be ordered
        toy = toy_scheme()
        c2 = real_constant(toy)
        values = [0.05, 0.1, 0.5, 1.0, 2.0]
        bounds = [c2 * (1.0 + v ** (-1.0 / toy.p)) for v in values]
        assert bounds == sorted(bounds, reverse=True)

    def test_monotone_under_edge_reweighting(self):
        # shrinking every edge weight shrinks connectivity, so recomputed
        # bounds can only grow
        from lscc.graphs import WeightedGraph, cheeger_exact

        toy = toy_scheme()
        c2 = real_constant(toy)
        graph = induce_graph(toy, FIXTURE_CONNECTED)
        previous = -math.inf
        for shrink in (1.0, 0.5, 0.25, 0.1):
            weaker = WeightedGraph(
                graph.vertex_weights,
                tuple((u, v, w * shrink) for u, v, w in graph.edges),
                graph.labels,
            )
            che = cheeger_exact(weaker).upper
            lam = algebraic_connectivity(weaker).lam
            upper = c2 * (1.0 + che ** (-0.5))
            assert upper >= previous - 1e-12
            previous = upper
            assert lam > 0.0


class TestEmpiricalWorstRatio:
    def test_degenerate_family(self):
        # a sign pattern keeps entry 0, so every flip of e_0 is e_0 itself
        toy = toy_scheme()
        with pytest.raises(DegenerateFamilyError):
            empirical_worst_ratio(toy, [1.0, 0.0, 0.0, 0.0], SIGN_FLIPS)

    def test_sign_flips_find_broken_twin(self):
        toy = toy_scheme()
        ratio, witness = empirical_worst_ratio(toy, FIXTURE_BROKEN, SIGN_FLIPS, trials=1)
        assert math.isinf(ratio)
        assert np.allclose(np.abs(witness), np.abs(FIXTURE_BROKEN_TWIN))
        assert np.array_equal(toy.phaseless(witness), toy.phaseless(FIXTURE_BROKEN))

    def test_random_strategy_finite(self):
        toy = toy_scheme()
        rng = np.random.default_rng(1)
        ratio, witness = empirical_worst_ratio(
            toy, FIXTURE_CONNECTED, RANDOM_GAUSSIAN, trials=500, rng=rng
        )
        assert 0.0 < ratio < math.inf
        assert witness is not None

    def test_local_perturbation_strategy(self):
        # comparisons f + eps*h close to f, at eps from 1e-8 to 1
        toy = toy_scheme()
        rng = np.random.default_rng(2)
        f = np.asarray(FIXTURE_CONNECTED)
        gs = np.stack([f + e * toy.random_signal(rng) for e in np.logspace(-8.0, 0.0, 300)], 1)
        num, den, equivalent, _ = pair_ratios(toy.measure(f), toy.measure_batch(gs), REAL)
        assert not equivalent.any()
        assert np.max(num / den) <= signal_bound(toy, f) * (1.0 + 1e-9)

    @pytest.mark.parametrize("dim", range(1, 14))
    def test_sign_patterns_match_region_loop(self, dim):
        new, old = list(_sign_patterns(dim)), list(old_sign_patterns(dim, 1))
        assert len(new) == len(old) == max(0, (1 << (dim - 1)) - 1)
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(new, old))

    def test_sign_patterns_past_bit_63(self):
        new, old = list(_sign_patterns(70, 3000)), list(old_sign_patterns(70, 1, 3000))
        assert len(new) == len(old) == 3000
        assert all(np.array_equal(a, b) for a, b in zip(new, old))


class TestReport:
    def test_report_self_consistency(self):
        toy = toy_scheme()
        report = stability_report(toy, FIXTURE_CONNECTED, trials=300, seed=3)
        assert report.retrievability == "RetrievableByConnectivity"
        assert report.bound_satisfied == (
            report.empirical_worst_ratio <= report.bound * (1.0 + 1e-9)
        )
        payload = json.loads(report.to_json())
        assert payload["boundSatisfied"] is True
        assert payload["provenance"]["seed"] == 3
        assert payload["C2"] == pytest.approx(real_constant(toy))

    def test_report_disconnected_infinite_bound(self):
        toy = toy_scheme()
        report = stability_report(toy, FIXTURE_BROKEN, trials=100, seed=4)
        assert report.retrievability == "Inconclusive"
        assert math.isinf(report.bound)
        assert report.bound_satisfied  # no finite claim to violate
        payload = json.loads(report.to_json())
        assert payload["bound"] == "inf"

    def test_report_hash_matches_scheme(self):
        toy = toy_scheme()
        report = stability_report(toy, FIXTURE_CONNECTED, trials=50, seed=5)
        assert report.scheme_hash == toy.descriptor_hash()


class TestInducedGraphCalls:
    @pytest.mark.parametrize(
        "signal", [np.zeros(4), FIXTURE_CONNECTED, FIXTURE_BROKEN], ids=["zero", "connected", "broken"]
    )
    def test_report_induces_twice(self, monkeypatch, signal):
        # once for the bound and once for the verdict, even when the graph is empty
        import lscc.scheme
        import lscc.stability

        calls = []
        original = lscc.scheme.induce_graph

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(lscc.scheme, "induce_graph", counted)
        monkeypatch.setattr(lscc.stability, "induce_graph", counted)
        stability_report(toy_scheme(), signal, trials=20, seed=1)
        assert len(calls) == 2


class TestBoundOracle:
    """`bound` against the removed per-field routes, bit for bit."""

    @pytest.fixture(scope="class")
    def schemes(self):
        return fuzz_schemes()

    def test_fuzz_schemes_random_signals(self, schemes):
        rng = np.random.default_rng(12)
        for scheme in schemes:
            for _ in range(3):
                graph = induce_graph(scheme, scheme.random_signal(rng))
                assert bound(scheme, graph) == old_bound(scheme, graph), scheme.name

    @pytest.mark.parametrize("field", [REAL, COMPLEX])
    @pytest.mark.parametrize(
        "graph",
        [
            WeightedGraph([]),
            WeightedGraph([2.0]),
            WeightedGraph([1.0, 3.0]),  # two components
            WeightedGraph([1.0, 2.0, 1.0], [(0, 1, 0.5), (1, 2, 0.25)]),
        ],
        ids=["empty", "one-vertex", "disconnected", "path"],
    )
    def test_edge_graphs(self, field, graph):
        scheme = build_windowed_scheme(WindowedConfig(a=1, L=4, field=field, seed=0))
        expected = old_bound(scheme, graph)
        assert bound(scheme, graph) == expected
        if graph.num_vertices == 1:
            assert expected == prefactor(scheme)
        elif graph.num_vertices != 3:
            assert math.isinf(expected)

    def test_induced_disconnected(self):
        toy = toy_scheme()
        graph = induce_graph(toy, FIXTURE_BROKEN)
        assert bound(toy, graph) == old_real_bound(toy, FIXTURE_BROKEN) == math.inf

    def test_sandwich_uses_lower_end(self):
        toy = toy_scheme()
        graph = induce_graph(toy, FIXTURE_CONNECTED)
        sandwich = CheegerResult(0.125, 0.5, SPECTRAL_SWEEP, (0,))
        expected = old_real_bound(toy, None, cheeger_result=sandwich)
        assert bound(toy, graph, cheeger_result=sandwich) == expected
        assert expected == real_constant(toy) * (1.0 + 0.125**-0.5)

    def test_given_spectral_is_used(self):
        scheme = build_windowed_scheme(WindowedConfig(a=1, L=8, field=COMPLEX, seed=2))
        graph = induce_graph(scheme, np.ones(8, dtype=complex))
        spec = algebraic_connectivity(graph)
        assert bound(scheme, graph, spectral=spec) == old_complex_bound(scheme, None, spec)
        assert complex_bound(scheme, np.ones(8), spec, graph) == bound(scheme, graph)

    def test_complex_p3_raises_even_when_empty(self):
        stub = scheme_with_constants(3.0, 1.0, 1.0, 2, COMPLEX)
        with pytest.raises(UnsupportedPError):  # before the emptiness test, as before
            bound(stub, WeightedGraph([]))
