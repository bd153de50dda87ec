import json
import math

import numpy as np
import pytest

from lscc.errors import DegenerateFamilyError, UnsupportedPError
from lscc.graphs import algebraic_connectivity, cheeger_exact
from lscc.measurement import COMPLEX
from lscc.scheme import induce_graph
from lscc.stability import (
    ADVERSARIAL,
    LOCAL_PERTURBATION,
    RANDOM_GAUSSIAN,
    SIGN_FLIPS,
    complex_bound,
    complex_constant,
    empirical_worst_ratio,
    real_bound,
    real_constant,
    stability_report,
)
from lscc.toy import FIXTURE_BROKEN, FIXTURE_BROKEN_TWIN, FIXTURE_CONNECTED, toy_scheme
from lscc.windowed import WindowedConfig, build_windowed_scheme


def scheme_with_constants(p, c0, c1, degree):
    """Minimal scheme stub carrying just the constants the formulas read."""
    base = toy_scheme()
    base.p = p
    base.local_stability = c0
    base.edge_domination = c1

    class _G:
        degree_bound = degree
        edges = base.graph.edges
        num_vertices = base.graph.num_vertices

    base.graph = _G()
    return base


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


class TestBounds:
    def test_disconnected_infinite(self):
        toy = toy_scheme()
        assert math.isinf(real_bound(toy, FIXTURE_BROKEN))

    def test_connected_finite_and_dominates(self):
        toy = toy_scheme()
        bound = real_bound(toy, FIXTURE_CONNECTED)
        assert math.isfinite(bound)
        rng = np.random.default_rng(0)
        ratio, _ = empirical_worst_ratio(
            toy, FIXTURE_CONNECTED, RANDOM_GAUSSIAN, trials=2000, rng=rng
        )
        assert ratio <= bound * (1.0 + 1e-9)

    def test_scale_invariance(self):
        toy = toy_scheme()
        b1 = real_bound(toy, FIXTURE_CONNECTED)
        b2 = real_bound(toy, 7.5 * np.asarray(FIXTURE_CONNECTED))
        assert b2 == pytest.approx(b1, rel=1e-10)

    def test_complex_bound_disconnected_infinite(self):
        scheme = build_windowed_scheme(WindowedConfig(a=1, L=4, field=COMPLEX, seed=0))
        f = np.zeros(4, dtype=complex)
        f[0] = 1.0
        f[2] = 1.0  # two lit islands separated by dark overlaps
        assert math.isinf(complex_bound(scheme, f))

    def test_complex_bound_allones_dominates_adversarial(self):
        cfg = WindowedConfig(a=2, L=8, field=COMPLEX, seed=1)
        scheme = build_windowed_scheme(cfg)
        from lscc.windowed import adversarial_pair

        pair = adversarial_pair(cfg, scheme)
        bound = complex_bound(scheme, pair.f)
        assert bound >= pair.measured_ratio * (1.0 - 1e-9)

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
            bound = c2 * (1.0 + che ** (-0.5))
            assert bound >= previous - 1e-12
            previous = bound
            assert lam > 0.0


class TestEmpiricalWorstRatio:
    def test_degenerate_family(self):
        toy = toy_scheme()
        f = np.asarray(FIXTURE_CONNECTED, dtype=float)
        with pytest.raises(DegenerateFamilyError):
            empirical_worst_ratio(toy, f, ADVERSARIAL, trials=4, adversarial=[f, -f])

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
        toy = toy_scheme()
        rng = np.random.default_rng(2)
        ratio, _ = empirical_worst_ratio(
            toy, FIXTURE_CONNECTED, LOCAL_PERTURBATION, trials=300, rng=rng
        )
        assert ratio <= real_bound(toy, FIXTURE_CONNECTED) * (1.0 + 1e-9)


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
