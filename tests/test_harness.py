import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import lscc.harness as harness
from lscc.errors import DegenerateFamilyError
from lscc.harness import (
    ExperimentSpec,
    check_edge_mismatch_batch,
    derive_rng,
    format_cell,
    fuzz_bounds,
    inequality_suite,
    signal_bound,
    write_csv,
)
from lscc.measurement import COMPLEX, REAL, Frame
from lscc.graphs import WeightedGraph
from lscc.scheme import LsccScheme
from lscc.shiftinv import GeneratorModel, build_shiftinv_scheme
from lscc.toy import FIXTURE_CONNECTED, toy_scheme
from lscc.windowed import WindowedConfig, build_windowed_scheme
from oracles import fuzz_samples_reference


class TestSeeding:
    def test_derive_rng_deterministic(self):
        a = derive_rng(7, "task", 3).standard_normal(5)
        b = derive_rng(7, "task", 3).standard_normal(5)
        assert np.array_equal(a, b)

    def test_derive_rng_streams_differ(self):
        a = derive_rng(7, "task", 0).standard_normal(5)
        b = derive_rng(7, "task", 1).standard_normal(5)
        assert not np.array_equal(a, b)


def sign_blind_scheme():
    """One vertex seeing R^2 through e1 and e2: flipping the sign of one
    coordinate keeps every modulus, a collision with a finite bound."""
    return LsccScheme(
        name="sign-blind",
        field=REAL,
        p=2.0,
        ambient_dim=2,
        graph=WeightedGraph(np.ones(1)),
        vertex_frames=(Frame(np.eye(2)),),
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


class RoundedRng:
    """Integer-valued draws: equal moduli, phase-equivalent pairs and exact
    arithmetic become common."""

    def __init__(self, rng):
        self._rng = rng

    def standard_normal(self, shape):
        return np.round(self._rng.standard_normal(shape))


def acceptance_schemes():
    """The 17 schemes of the acceptance fuzz."""
    schemes = [toy_scheme()]
    schemes += [
        build_windowed_scheme(WindowedConfig(a=a, L=L, field=field, seed=7))
        for a in (1, 2)
        for L in (4, 8, 16)
        for field in (REAL, COMPLEX)
    ]
    schemes += [build_shiftinv_scheme(GeneratorModel(N=n), r) for n in (2, 3) for r in (8, 16)]
    return schemes


def fuzz_by_chunk(monkeypatch, schemes, chunks, pairs, **kwargs):
    """One fuzz_bounds report per column-chunk budget."""
    reports = []
    for chunk in chunks:
        monkeypatch.setattr(harness, "_CHUNK", chunk)
        reports.append(fuzz_bounds(schemes, pairs, **kwargs))
    return reports


class TestFuzzBounds:
    @pytest.mark.parametrize("pairs", [0, -5])
    def test_rejects_vacuous_pair_counts(self, pairs, tmp_path):
        with pytest.raises(DegenerateFamilyError, match="pairs_per_scheme must be >= 1"):
            fuzz_bounds([toy_scheme()], pairs)
        spec = ExperimentSpec(
            kind="fuzz", scheme="toy", trials=pairs, seed=0, output=str(tmp_path / "f.csv")
        )
        with pytest.raises(DegenerateFamilyError):
            harness.run_fuzz_experiment(spec, [toy_scheme()])
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("refs", [0, -3])
    def test_rejects_vacuous_reference_counts(self, refs):
        # a count below one used to check nothing and pass (0 meant the default)
        with pytest.raises(DegenerateFamilyError, match="refs_per_scheme must be >= 1"):
            fuzz_bounds([toy_scheme()], 100, refs_per_scheme=refs)

    def test_column_chunks_keep_witnesses_and_collisions(self, monkeypatch):
        # one-column chunks against one chunk per reference: with integer
        # draws the arithmetic is exact, so the reports must be equal,
        # collision witnesses and their order included
        original = harness.derive_rng
        monkeypatch.setattr(harness, "derive_rng", lambda *a: RoundedRng(original(*a)))
        broken = toy_scheme()
        broken.local_stability = 1e-3
        schemes = [sign_blind_scheme(), broken]
        one, whole = fuzz_by_chunk(
            monkeypatch, schemes, (1, 10**9), 600, seed=1, refs_per_scheme=6
        )
        assert one == whole
        blind, toy = whole["schemes"]
        assert len(blind["violations"]) > 1 and blind["violations"][0]["ratio"] == "inf"
        assert toy["violations"] and toy["pairs"] < 600

    def test_column_chunks_keep_pairs_and_quotients(self, monkeypatch):
        # a one-column chunk is measured by a matrix-vector product and summed
        # pairwise, so max_quotient may move in its last bits: 1e-15 relative
        schemes = [
            build_windowed_scheme(WindowedConfig(a=2, L=8, field=REAL, seed=7)),
            build_windowed_scheme(WindowedConfig(a=2, L=8, field=COMPLEX, seed=7)),
            build_shiftinv_scheme(GeneratorModel(N=2), 8),
        ]
        reports = fuzz_by_chunk(monkeypatch, schemes, (1, 2**14, 10**9), 2000, seed=4)
        for entries in zip(*(r["schemes"] for r in reports)):
            assert len({(e["pairs"], len(e["violations"])) for e in entries}) == 1
            quotients = [e["max_quotient"] for e in entries]
            assert max(quotients) - min(quotients) <= 1e-15 * max(quotients)

    def test_chunked_fuzz_memory_stays_small(self):
        # one unchunked batch of 500 columns peaks at 4.8 MB here; chunks of
        # 2^15 measurement entries (harness._CHUNK) peak near 1.5 MB
        scheme = build_windowed_scheme(WindowedConfig(a=2, L=16, field=COMPLEX, seed=7))
        fuzz_bounds([scheme], 500, seed=0)  # build the cached operators first
        tracemalloc.start()
        try:
            fuzz_bounds([scheme], 20_000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

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


def assert_same_samples(got, want):
    for name in ("refs", "pairs", "witness", "collided", "collision"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert np.array_equal(np.isnan(got.best), np.isnan(want.best))
    drift = np.abs(got.best - want.best)
    assert np.all(drift[~np.isnan(drift)] <= 2e-15 * want.best[~np.isnan(drift)])


class TestBracketScreen:
    """_fuzz_samples screens with ratio_brackets; the oracle scores every column."""

    def test_matches_the_unscreened_sampler(self):
        for scheme in acceptance_schemes():
            for per_ref in (500, 37):
                got = harness._fuzz_samples(scheme, 12, per_ref, 5)
                assert_same_samples(got, fuzz_samples_reference(scheme, 12, per_ref, 5))

    @pytest.mark.parametrize("chunk", [1, 10**9])
    def test_matches_on_collisions_and_equivalent_pairs(self, monkeypatch, chunk):
        original = harness.derive_rng
        monkeypatch.setattr(harness, "derive_rng", lambda *a: RoundedRng(original(*a)))
        monkeypatch.setattr(harness, "_CHUNK", chunk)
        broken = toy_scheme()
        broken.local_stability = 1e-3
        for scheme in (sign_blind_scheme(), broken):
            got = harness._fuzz_samples(scheme, 6, 100, 1)
            assert_same_samples(got, fuzz_samples_reference(scheme, 6, 100, 1))
            assert np.any(got.pairs < 100) and got.collided.size

    def test_p3_keeps_every_column(self):
        scheme = build_shiftinv_scheme(GeneratorModel(N=2, p=3.0), 8)
        assert_same_samples(
            harness._fuzz_samples(scheme, 3, 200, 2), fuzz_samples_reference(scheme, 3, 200, 2)
        )

    def test_fuzz_makes_few_page_faults(self, tmp_path):
        # chunk temporaries that glibc maps and trims afresh each time cost
        # 145k-570k minor faults per fuzz; served from its heap, a few hundred
        code = (
            "import resource\n"
            "import lscc.harness as h\n"
            "from test_harness import acceptance_schemes\n"
            "h._fuzz_workers = lambda n: 1\n"
            "schemes = acceptance_schemes()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "assert h.fuzz_bounds(schemes, 20_000, seed=0)['passed']\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 5000


class SamplingFailure(RuntimeError):
    pass


def fail_sampling(_columns):
    raise SamplingFailure("measure_batch failed")


def force_workers(monkeypatch, count):
    monkeypatch.setattr(harness, "_fuzz_workers", lambda n: min(count, n))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestFuzzWorkers:
    """Sampling in forked workers, scoring in the caller."""

    def test_any_worker_count_gives_the_same_bytes(self, monkeypatch, tmp_path):
        schemes = acceptance_schemes()
        out = tmp_path / "fuzz.csv"
        spec = ExperimentSpec(kind="fuzz", scheme="test_04", trials=1500, seed=9, output=str(out))
        results = []
        for count in (1, 2, 3):
            force_workers(monkeypatch, count)
            report = fuzz_bounds(schemes, 1500, seed=9)
            assert harness.run_fuzz_experiment(spec, schemes) == 0
            manifest = (tmp_path / "fuzz.csv.manifest.json").read_bytes()
            results.append((report, out.read_bytes(), manifest))
            assert_no_child_left()
        assert results[0] == results[1] == results[2]
        assert [e["scheme"] for e in results[0][0]["schemes"]] == [s.name for s in schemes]

    def test_any_worker_count_keeps_witnesses_and_collisions(self, monkeypatch, tmp_path):
        # the monkeypatched stream reaches the workers through fork
        original = harness.derive_rng
        monkeypatch.setattr(harness, "derive_rng", lambda *a: RoundedRng(original(*a)))
        broken = toy_scheme()
        broken.local_stability = 1e-3
        schemes = [sign_blind_scheme(), broken, toy_scheme()]
        out = tmp_path / "fuzz.csv"
        spec = ExperimentSpec(kind="fuzz", scheme="rounded", trials=600, seed=1, output=str(out))
        results = []
        for count in (1, 2, 3):
            force_workers(monkeypatch, count)
            report = fuzz_bounds(schemes, 600, seed=1, refs_per_scheme=6)
            assert harness.run_fuzz_experiment(spec, schemes) == 2
            manifest = (tmp_path / "fuzz.csv.manifest.json").read_bytes()
            results.append((report, out.read_bytes(), manifest))
        assert results[0] == results[1] == results[2]
        blind, toy, clean = results[0][0]["schemes"]
        assert len(blind["violations"]) > 1 and blind["violations"][0]["ratio"] == "inf"
        assert toy["violations"] and not clean["violations"]
        assert_no_child_left()

    def test_worker_exception_is_raised_in_the_caller(self, monkeypatch):
        force_workers(monkeypatch, 2)
        bad = toy_scheme()
        bad.measure_batch = fail_sampling
        with pytest.raises(SamplingFailure, match="measure_batch failed") as info:
            fuzz_bounds([toy_scheme(), bad], 1000, seed=0)
        notes = getattr(info.value, "__notes__", None)
        if notes is not None:  # Python >= 3.11: the worker's traceback rides along
            assert "raised in fuzz worker" in notes[0]
            assert f"worker {os.getpid()}:" not in notes[0]
        assert_no_child_left()

    def test_worker_that_dies_is_reported(self, monkeypatch):
        force_workers(monkeypatch, 2)
        dead = toy_scheme()
        dead.measure_batch = lambda _columns: os._exit(3)
        with pytest.raises(RuntimeError, match="fuzz worker ended with 1 schemes unsent"):
            fuzz_bounds([toy_scheme(), dead], 1000, seed=0)
        assert_no_child_left()

    def test_interrupt_in_the_caller_leaves_no_child(self, monkeypatch):
        force_workers(monkeypatch, 2)

        def interrupt(_scheme, _f):
            raise KeyboardInterrupt

        monkeypatch.setattr(harness, "signal_bound", interrupt)
        with pytest.raises(KeyboardInterrupt):
            fuzz_bounds(acceptance_schemes()[:4], 2000, seed=0)
        assert_no_child_left()

    def test_fork_with_threads_warning_is_filtered(self, monkeypatch):
        # CPython >= 3.12 warns so in the parent on every fork; OpenBLAS's
        # pool threads make the fuzz's process multi-threaded
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn(
                    f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                    "may lead to deadlocks in the child.",
                    DeprecationWarning,
                    stacklevel=2,
                )
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        force_workers(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fuzz_bounds([toy_scheme(), toy_scheme()], 1000, seed=0)["passed"]
        assert_no_child_left()

    def test_worker_count_follows_cpus_and_schemes(self):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        assert harness._fuzz_workers(1) == 1
        assert harness._fuzz_workers(100) == min(cpus, 100)


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


class TestSignalBound:
    def test_matches_field_dispatch(self):
        from lscc.graphs import cheeger
        from lscc.scheme import induce_graph
        from lscc.stability import real_constant

        toy = toy_scheme()
        che = cheeger(induce_graph(toy, FIXTURE_CONNECTED))
        expected = real_constant(toy) * (1.0 + che.lower**-0.5)
        assert signal_bound(toy, FIXTURE_CONNECTED) == expected

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

        schemes = acceptance_schemes()
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


class TestBenchTracerView:
    def test_tracer_finds_every_layer(self, tmp_path):
        # bench/tracer.py wraps lscc's functions by name: a rename should fail
        # here, not only in the bench run
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        code = (
            "import json, sys\n"
            f"sys.path.insert(0, {str(root / 'bench')!r})\n"
            "import numpy as np\n"
            "import lscc, tracer\n"
            "t = tracer.install()\n"
            "cfg = lscc.windowed.WindowedConfig(a=1, L=4, field='complex', seed=0)\n"
            "scheme = lscc.windowed.build_windowed_scheme(cfg)\n"
            "lscc.harness.signal_bound(scheme, np.ones(cfg.d, dtype=complex))\n"
            "print(json.dumps([t.missing, t.counts['scheme.dense_bytes'], t.calls]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        missing, dense_bytes, calls = json.loads(proc.stdout)
        assert missing == []
        assert dense_bytes > 0
        assert calls["harness.signal_bound"] == 1
        assert calls["graphs.algebraic_connectivity"] == 1


class TestBenchPins:
    def test_traced_call_counts(self, tmp_path):
        # the bench pins one harness.signal_bound and one scheme.induce_graph
        # per fuzz reference, and one graphs.cheeger_interval per decay row
        # (a 17-vertex path at R = 8); a change that routes bounds or small
        # rings around these traced names should fail here
        import subprocess
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        code = (
            "import json, sys\n"
            f"sys.path.insert(0, {str(root / 'bench')!r})\n"
            "import lscc, tracer\n"
            "from lscc import harness, shiftinv, toy, windowed\n"
            "t = tracer.install()\n"
            "harness._fuzz_workers = lambda n: 1\n"
            "cfg = windowed.WindowedConfig(a=1, L=4, field='complex', seed=7)\n"
            "schemes = [toy.toy_scheme(), windowed.build_windowed_scheme(cfg)]\n"
            "harness.fuzz_bounds(schemes, 600, seed=0, refs_per_scheme=3)\n"
            "fuzz = dict(t.calls)\n"
            "profile = shiftinv.DecayProfile(shiftinv.POLYNOMIAL, 2.0)\n"
            "shiftinv.decay_cheeger_study(shiftinv.GeneratorModel(N=2), profile, [8, 16])\n"
            "print(json.dumps([t.missing, fuzz, t.calls, t.counts['graphs.max_vertices']]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        missing, fuzz, calls, max_vertices = json.loads(proc.stdout)
        assert missing == []
        assert fuzz["harness.signal_bound"] == fuzz["scheme.induce_graph"] == 6
        assert fuzz["graphs.cheeger_interval"] == fuzz["graphs.algebraic_connectivity"] == 3
        decay = {name: calls[name] - fuzz[name] for name in calls}
        assert decay["graphs.cheeger_interval"] == decay["scheme.induce_graph"] == 2
        assert decay["harness.signal_bound"] == 0
        assert max_vertices == 33  # R = 16's path
