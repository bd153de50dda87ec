"""End-to-end acceptance checks.

Each test enforces one headline guarantee at its stated tolerance and prints
a single PASS line with timing so the suite doubles as a checklist.  Run with
`pytest tests/test_acceptance.py -v -s`.
"""

import hashlib
import math
import time

import numpy as np
import pytest

from lscc.cli import main as cli_main
from lscc.graphs import (
    WeightedGraph,
    algebraic_connectivity,
    cheeger_exact,
    cheeger_interval,
    is_connected,
    normalized_degree,
)
from lscc.harness import derive_rng, fuzz_bounds, inequality_suite
from lscc.measurement import COMPLEX, REAL
from lscc.scheme import INCONCLUSIVE, RETRIEVABLE, induce_graph, is_phase_retrievable
from lscc.shiftinv import (
    EXPONENTIAL,
    POLYNOMIAL,
    DecayProfile,
    GeneratorModel,
    build_shiftinv_scheme,
    sigma_based_constants,
    decay_cheeger_study,
    exponential_floor,
)
from lscc.stability import SIGN_FLIPS, empirical_worst_ratio
from lscc.toy import (
    FIXTURE_BROKEN,
    FIXTURE_BROKEN_TWIN,
    FIXTURE_CONNECTED,
    FIXTURE_LOCAL,
    toy_scheme,
)
from lscc.windowed import (
    WindowedConfig,
    adversarial_pair,
    build_windowed_scheme,
    fit_loglog_slope,
    scaling_sweep,
    unweighted_cycle_cheeger,
    unweighted_cycle_lambda,
)
from oracles import sample_class_signal, sigma_crosscheck


def report(number: int, label: str, started: float, budget: float):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number:02d} PASS ({elapsed:6.2f}s / budget {budget:g}s): {label}")
    assert elapsed < budget, f"criterion {number} exceeded its runtime budget"


def test_01_chain_fixture_fidelity():
    started = time.monotonic()
    toy = toy_scheme()

    g0 = induce_graph(toy, FIXTURE_CONNECTED)
    assert is_connected(g0)
    assert is_phase_retrievable(toy, FIXTURE_CONNECTED) == RETRIEVABLE

    g1 = induce_graph(toy, FIXTURE_BROKEN)
    assert not is_connected(g1)
    assert is_phase_retrievable(toy, FIXTURE_BROKEN) == INCONCLUSIVE
    ratio, witness = empirical_worst_ratio(toy, FIXTURE_BROKEN, SIGN_FLIPS, trials=1)
    assert math.isinf(ratio)
    gap = np.linalg.norm(toy.phaseless(FIXTURE_BROKEN) - toy.phaseless(witness))
    assert gap == 0.0  # exact collision
    twin = np.asarray(FIXTURE_BROKEN_TWIN)
    assert np.array_equal(witness, twin) or np.array_equal(witness, -twin)

    g2 = induce_graph(toy, FIXTURE_LOCAL)
    assert is_connected(g2)
    assert is_phase_retrievable(toy, FIXTURE_LOCAL) == RETRIEVABLE

    report(1, "chain fixtures: verdicts, exact collision witness", started, 1.0)


def test_02_cycle_closed_forms():
    started = time.monotonic()
    for L in range(3, 65):
        edges = [(i, i + 1, 1.0) for i in range(L - 1)]
        if L > 2:
            edges.append((0, L - 1, 1.0))
        g = WeightedGraph(np.ones(L), tuple(edges))
        lam = algebraic_connectivity(g).lam
        assert abs(lam - 2.0 * (1.0 - math.cos(2.0 * math.pi / L))) <= 1e-10
        che = cheeger_interval(g).upper
        assert abs(che - 2.0 / (L // 2)) <= 1e-10
        if L <= 14:
            assert cheeger_exact(g).upper == che
    report(2, "cycle spectral gap and cut constants, L in 3..64", started, 5.0)


def test_03_cheeger_inequality_fuzz():
    started = time.monotonic()
    rng = derive_rng(2024, "cheeger-fuzz")
    tol = 1e-9
    checked = 0
    for _ in range(500):
        n = int(rng.integers(2, 13))
        edges = {}
        order = rng.permutation(n)
        for i in range(1, n):
            u, v = int(order[i]), int(order[int(rng.integers(0, i))])
            edges[(min(u, v), max(u, v))] = float(rng.uniform(0.05, 5.0))
        for _ in range(int(rng.integers(0, 2 * n))):
            u, v = sorted(rng.choice(n, size=2, replace=False).tolist())
            edges.setdefault((u, v), float(rng.uniform(0.05, 5.0)))
        g = WeightedGraph(
            rng.uniform(0.1, 5.0, n), tuple((u, v, w) for (u, v), w in edges.items())
        )
        che = cheeger_exact(g).upper
        lam = algebraic_connectivity(g).lam
        d_n = normalized_degree(g)
        assert 2.0 * che >= lam - tol
        assert lam >= che**2 / (2.0 * d_n) - tol
        checked += 1
    assert checked == 500
    report(3, "two-sided Cheeger inequality on 500 random graphs", started, 60.0)


def _fuzz_schemes():
    schemes = [toy_scheme()]
    for a in (1, 2):
        for L in (4, 8, 16):
            for field in (REAL, COMPLEX):
                schemes.append(build_windowed_scheme(WindowedConfig(a=a, L=L, field=field, seed=7)))
    for n in (2, 3):
        for radius in (8, 16):
            schemes.append(build_shiftinv_scheme(GeneratorModel(N=n), radius))
    return schemes


def test_04_bound_domination_fuzz():
    started = time.monotonic()
    schemes = _fuzz_schemes()
    out = fuzz_bounds(schemes, pairs_per_scheme=100_000, seed=41)
    for entry in out["schemes"]:
        assert entry["pairs"] >= 100_000, entry["scheme"]
        assert entry["violations"] == [], entry
        assert entry["max_quotient"] <= 1.0 + 1e-9, entry
    assert out["passed"]
    report(
        4,
        f"bound domination, {len(schemes)} schemes x 1e5 pairs (quotient <= 1)",
        started,
        600.0,
    )


def test_05_alignment_and_edge_mismatch_suites():
    started = time.monotonic()
    out = inequality_suite(seed=17, trials=100_000)
    assert out["alignment_trials"] >= 100_000
    assert out["edge_instances"] >= 100_000
    assert out["alignment_violations"] == 0
    assert out["edge_violations"] == 0
    report(5, "alignment and per-edge mismatch inequalities, 1e5 each", started, 120.0)


@pytest.fixture(scope="module")
def complex_sweep_rows():
    return scaling_sweep(2, [8, 16, 32, 64, 128, 256], COMPLEX, trials=60, seed=23)


def test_06_scaling_laws(complex_sweep_rows):
    started = time.monotonic()
    ls = [8, 16, 32, 64, 128, 256]
    real_rows = scaling_sweep(2, ls, REAL, trials=60, seed=23)
    real_slope = fit_loglog_slope(ls, [r["bound"] for r in real_rows])
    assert 0.4 <= real_slope <= 0.6, real_slope

    complex_slope = fit_loglog_slope(ls, [r["bound"] for r in complex_sweep_rows])
    assert 0.9 <= complex_slope <= 1.1, complex_slope
    adv_slope = fit_loglog_slope(ls, [r["adversarial_ratio"] for r in complex_sweep_rows])
    assert 0.9 <= adv_slope <= 1.1, adv_slope
    report(
        6,
        f"growth exponents: real {real_slope:.3f}, complex {complex_slope:.3f}, "
        f"adversarial {adv_slope:.3f}",
        started,
        300.0,
    )


def test_07_adversarial_ratio_floor():
    started = time.monotonic()
    for a in (1, 2):
        for L in (8, 16, 32):
            pair = adversarial_pair(WindowedConfig(a=a, L=L, field=COMPLEX, seed=5))
            floor = min(pair.statement_bound, pair.proof_bound)
            assert pair.measured_ratio >= floor * (1.0 - 1e-9), (a, L)
    report(7, "adversarial measured ratio dominates both closed forms", started, 60.0)


def test_08_window_class_connectivity_floors():
    started = time.monotonic()
    for a in (1, 2):
        for L in (8, 16):
            for field in (REAL, COMPLEX):
                cfg = WindowedConfig(a=a, L=L, field=field, s=0.8, t=1.25, seed=13)
                scheme = build_windowed_scheme(cfg)
                rng = derive_rng(13, "class", a, L, field)
                factor = cfg.s**2 / (2.0 * scheme.frame_upper**2 * cfg.t**2)
                che_floor = factor * unweighted_cycle_cheeger(L)
                lam_floor = factor * unweighted_cycle_lambda(L)
                for _ in range(100):
                    f = sample_class_signal(cfg, rng)
                    graph = induce_graph(scheme, f)
                    che = cheeger_interval(graph).upper
                    lam = algebraic_connectivity(graph).lam
                    assert che >= che_floor * (1.0 - 1e-9)
                    assert lam >= lam_floor * (1.0 - 1e-9)
    report(8, "class-member connectivity floors, 100 draws x 8 configs", started, 120.0)


def test_09_decay_profiles():
    started = time.monotonic()
    gen = GeneratorModel(N=2)
    exp_rows = decay_cheeger_study(gen, DecayProfile(EXPONENTIAL, 1.0), [8, 16, 32, 64, 128])
    floor = exponential_floor(gen, 1.0)
    assert floor > 0.0
    for row in exp_rows:
        assert row["cheeger"] >= floor * (1.0 - 1e-9), row

    poly_rows = decay_cheeger_study(
        gen, DecayProfile(POLYNOMIAL, 2.0), [16, 32, 64, 128, 256, 512]
    )
    values = [row["cheeger"] for row in poly_rows]
    assert all(a > b for a, b in zip(values, values[1:]))
    slope = fit_loglog_slope([row["R"] for row in poly_rows], values)
    assert -1.3 <= slope <= -0.7, slope
    report(
        9,
        f"decay studies: exponential floor holds, polynomial slope {slope:.3f}",
        started,
        120.0,
    )


def test_10_sigma_crosscheck_and_combined_inequality():
    started = time.monotonic()
    for n in (2, 3):
        one, two = sigma_crosscheck(GeneratorModel(N=n))
        assert one == two  # bit-for-bit across the two enumerations

    gen = GeneratorModel(N=2)
    radius = 8
    scheme = build_shiftinv_scheme(gen, radius)
    _, _, c_v = sigma_based_constants(gen)
    rng = derive_rng(10, "combined-bound")
    pairs = 0
    for _ in range(100):
        f = rng.standard_normal(scheme.ambient_dim)
        graph = induce_graph(scheme, f)
        che = cheeger_interval(graph).upper
        assert che > 0.0
        factor = 1.0 + che ** (-0.5)
        x = scheme.measure(f)
        gs = rng.standard_normal((scheme.ambient_dim, 100))
        ys = scheme.measure_batch(gs)
        lhs = np.minimum(
            np.linalg.norm(x[:, None] - ys, axis=0), np.linalg.norm(x[:, None] + ys, axis=0)
        )
        rhs = c_v * factor * np.linalg.norm(np.abs(x)[:, None] - np.abs(ys), axis=0)
        assert np.all(lhs <= rhs * (1.0 + 1e-9))
        pairs += 100
    assert pairs >= 10_000
    report(10, "sigma enumeration cross-check and combined bound, 1e4 pairs", started, 120.0)


def test_11_cli_byte_reproducibility(tmp_path):
    started = time.monotonic()
    digests = {"sweep": [], "decay": [], "analyze": []}
    for run_id in ("one", "two"):
        sweep_out = tmp_path / f"sweep_{run_id}.csv"
        code = cli_main(
            [
                "sweep",
                "windowed",
                "--a",
                "1",
                "--Lmin",
                "8",
                "--Lmax",
                "32",
                "--field",
                "complex",
                "--trials",
                "40",
                "--seed",
                "77",
                "--out",
                str(sweep_out),
            ]
        )
        assert code == 0
        digests["sweep"].append(hashlib.sha256(sweep_out.read_bytes()).hexdigest())

        decay_out = tmp_path / f"decay_{run_id}.csv"
        code = cli_main(
            [
                "sweep",
                "shiftinv",
                "--kind",
                "poly",
                "--beta",
                "2.0",
                "--Rmax",
                "32",
                "--out",
                str(decay_out),
            ]
        )
        assert code == 0
        digests["decay"].append(hashlib.sha256(decay_out.read_bytes()).hexdigest())

        analyze_out = tmp_path / f"report_{run_id}.json"
        code = cli_main(
            [
                "analyze",
                "--scheme",
                "toy",
                "--signal",
                "1,2,3,4",
                "--seed",
                "77",
                "--trials",
                "200",
                "--out",
                str(analyze_out),
            ]
        )
        assert code == 0
        digests["analyze"].append(hashlib.sha256(analyze_out.read_bytes()).hexdigest())
    for kind, (first, second) in digests.items():
        assert first == second, kind
    report(11, "CLI outputs byte-identical across reruns with fixed seed", started, 120.0)
