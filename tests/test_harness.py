import csv
import json
import math

import numpy as np
import pytest

from lscc.harness import (
    ExperimentSpec,
    check_edge_mismatch_batch,
    derive_rng,
    format_cell,
    fuzz_bounds,
    inequality_suite,
    noisy_recovery_gap,
    signal_bound,
    write_csv,
)
from lscc.measurement import COMPLEX, REAL
from lscc.shiftinv import GeneratorModel, build_shiftinv_scheme
from lscc.toy import FIXTURE_BROKEN, FIXTURE_CONNECTED, toy_scheme
from lscc.windowed import WindowedConfig, build_windowed_scheme


class TestSeeding:
    def test_derive_rng_deterministic(self):
        a = derive_rng(7, "task", 3).standard_normal(5)
        b = derive_rng(7, "task", 3).standard_normal(5)
        assert np.array_equal(a, b)

    def test_derive_rng_streams_differ(self):
        a = derive_rng(7, "task", 0).standard_normal(5)
        b = derive_rng(7, "task", 1).standard_normal(5)
        assert not np.array_equal(a, b)


class TestFuzzBounds:
    def test_toy_clean(self):
        report = fuzz_bounds([toy_scheme()], pairs_per_scheme=3000, seed=0)
        assert report["passed"]
        entry = report["schemes"][0]
        assert entry["pairs"] >= 3000
        assert entry["max_quotient"] <= 1.0 + 1e-9
        assert entry["violations"] == []

    def test_complex_windowed_clean(self):
        scheme = build_windowed_scheme(WindowedConfig(a=1, L=4, field=COMPLEX, seed=1))
        report = fuzz_bounds([scheme], pairs_per_scheme=3000, seed=1)
        assert report["passed"]

    def test_identical_pair_quotient_zero(self):
        toy = toy_scheme()
        f = np.asarray(FIXTURE_CONNECTED, dtype=float)
        x = toy.measure(f)
        # a pair with itself has zero phaseless gap and zero aligned gap:
        # it is skipped, never counted as a violation
        report = fuzz_bounds([toy], pairs_per_scheme=10, seed=2, refs_per_scheme=1)
        assert report["passed"]
        assert np.linalg.norm(np.abs(x) - np.abs(x)) == 0.0


class TestInequalitySuite:
    def test_full_suite(self):
        report = inequality_suite(seed=0, trials=20_000)
        assert report["passed"]
        assert report["alignment_violations"] == 0
        assert report["edge_violations"] == 0
        assert report["edge_instances"] >= 20_000

    def test_edge_batch_on_complex_scheme(self):
        scheme = build_windowed_scheme(WindowedConfig(a=1, L=4, field=COMPLEX, seed=3))
        rng = derive_rng(3, "edges")
        fs = scheme.random_signal(rng, 500)
        gs = scheme.random_signal(rng, 500)
        checked, bad = check_edge_mismatch_batch(scheme, fs, gs)
        assert checked == 4 * 500
        assert bad == 0


class TestNoisyRecovery:
    def test_zero_noise_zero_gap(self):
        rows = noisy_recovery_gap(toy_scheme(), FIXTURE_CONNECTED, 0.0, trials=2, seed=0)
        for row in rows:
            assert row["gap"] == pytest.approx(0.0, abs=1e-12)
            assert row["ok"]

    def test_small_noise_within_chain(self):
        rows = noisy_recovery_gap(
            toy_scheme(), FIXTURE_CONNECTED, 0.05, trials=3, seed=1, starts=8, maxiter=300
        )
        for row in rows:
            assert row["objective"] <= row["effective_noise"] + 1e-12
            assert row["gap"] <= row["limit"] + 1e-9
            assert row["ok"]

    def test_disconnected_witness_only_mode(self):
        rows = noisy_recovery_gap(
            toy_scheme(), FIXTURE_BROKEN, 0.05, trials=1, seed=2, starts=4, maxiter=100
        )
        assert math.isinf(rows[0]["limit"])
        assert rows[0]["ok"]

    def test_determinism(self):
        kwargs = dict(trials=2, seed=5, starts=6, maxiter=200)
        a = noisy_recovery_gap(toy_scheme(), FIXTURE_CONNECTED, 0.02, **kwargs)
        b = noisy_recovery_gap(toy_scheme(), FIXTURE_CONNECTED, 0.02, **kwargs)
        assert a == b

    def test_clipping_never_grows_noise(self):
        rows = noisy_recovery_gap(
            toy_scheme(), FIXTURE_CONNECTED, 5.0, trials=4, seed=3, starts=4, maxiter=50
        )
        for row in rows:
            assert row["effective_noise"] <= 5.0 + 1e-12


class TestSignalBound:
    def test_matches_field_dispatch(self):
        toy = toy_scheme()
        from lscc.stability import real_bound

        assert signal_bound(toy, FIXTURE_CONNECTED) == real_bound(toy, FIXTURE_CONNECTED)

    def test_empty_graph_infinite(self):
        assert math.isinf(signal_bound(toy_scheme(), np.zeros(4)))


class TestCsvPlumbing:
    def test_format_cell(self):
        assert format_cell(True) == "true"
        assert format_cell(float("inf")) == "inf"
        assert format_cell(float("nan")) == "nan"
        assert format_cell(0.1) == "0.1"
        assert format_cell(3) == "3"

    def test_write_csv_stable(self, tmp_path):
        rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": float("inf")}]
        path1 = tmp_path / "one.csv"
        path2 = tmp_path / "two.csv"
        write_csv(str(path1), ["a", "b"], rows)
        write_csv(str(path2), ["a", "b"], rows)
        assert path1.read_bytes() == path2.read_bytes()
        assert path1.read_text() == "a,b\n1,0.5\n2,inf\n"

    def test_fuzz_csv_keeps_scheme_names_with_commas(self, tmp_path):
        from lscc.harness import run_fuzz_experiment

        # the 17 schemes of the acceptance fuzz
        schemes = [toy_scheme()]
        schemes += [
            build_windowed_scheme(WindowedConfig(a=a, L=L, field=field, seed=7))
            for a in (1, 2)
            for L in (4, 8, 16)
            for field in (REAL, COMPLEX)
        ]
        schemes += [build_shiftinv_scheme(GeneratorModel(N=n), r) for n in (2, 3) for r in (8, 16)]
        out = tmp_path / "fuzz.csv"
        spec = ExperimentSpec(kind="fuzz", scheme="test_04", trials=200, seed=1, output=str(out))
        assert run_fuzz_experiment(spec, schemes) == 0
        with open(out, newline="") as handle:
            reader = csv.DictReader(handle)
            rows = list(reader)
        assert reader.fieldnames == ["scheme", "pairs", "max_quotient", "violations"]
        assert len(rows) == 17
        assert all(len(row) == 4 and None not in row for row in rows)
        assert [row["scheme"] for row in rows] == [s.name for s in schemes]
        assert "windowed(a=1,L=4,real)" in [row["scheme"] for row in rows]

    def test_experiment_spec_roundtrip(self):
        spec = ExperimentSpec(kind="fuzz", scheme="toy", trials=10, seed=3)
        assert spec.to_dict()["kind"] == "fuzz"


class TestExperimentRunners:
    def test_fuzz_experiment_clean_and_reproducible(self, tmp_path):
        from lscc.harness import run_fuzz_experiment

        digests = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.csv"
            spec = ExperimentSpec(kind="fuzz", scheme="toy", trials=2000, seed=4, output=str(out))
            assert run_fuzz_experiment(spec, [toy_scheme()]) == 0
            digests.append(out.read_bytes())
        assert digests[0] == digests[1]

    def test_fuzz_experiment_flags_corrupt_constants(self, tmp_path):
        from lscc.harness import run_fuzz_experiment

        broken = toy_scheme()
        broken.local_stability = 1e-3  # declared constant far below reality
        out = tmp_path / "bad.csv"
        spec = ExperimentSpec(kind="fuzz", scheme="toy", trials=500, seed=5, output=str(out))
        assert run_fuzz_experiment(spec, [broken]) == 2
        manifest = json.loads((tmp_path / "bad.csv.manifest.json").read_text())
        assert manifest["passed"] is False
        assert manifest["violations"]

    def test_noise_experiment(self, tmp_path):
        from lscc.harness import run_noise_experiment

        out = tmp_path / "noise.csv"
        spec = ExperimentSpec(
            kind="noise",
            scheme="toy",
            parameters={"eta_norm": 0.05},
            trials=2,
            seed=6,
            output=str(out),
        )
        code = run_noise_experiment(spec, toy_scheme(), np.asarray(FIXTURE_CONNECTED))
        assert code == 0
        assert out.read_text().startswith("trial,eta_norm,")
