import hashlib
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from lscc.cli import main, resolve_scheme
from lscc.measurement import COMPLEX
from lscc.scheme import scheme_to_json
from lscc.toy import toy_scheme
from lscc.windowed import WindowedConfig, build_windowed_scheme


def run(argv):
    return main(argv)


def _cap_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def run_python(args, cwd):
    """A fresh interpreter capped at 1 GB and 60 s, so a runaway input fails
    the test instead of hanging it or exhausting memory."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_cap_address_space,
    )


def run_subprocess(argv, cwd):
    """The CLI in a child process."""
    return run_python(["-m", "lscc.cli", *argv], cwd)


class TestColdImport:
    """In fresh processes: the test process itself already holds scipy."""

    def test_import_loads_no_scipy(self, tmp_path):
        # scipy.optimize alone costs about 0.5 s per CLI call, and logging
        # 0.5 MB; each is imported only inside the functions that use it
        code = (
            "import sys, lscc, lscc.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'logging')))"
        )
        proc = run_python(["-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_forked_fuzz_loads_no_multiprocessing(self, tmp_path):
        # the fuzz forks its sampling workers itself: importing multiprocessing
        # alone costs 0.76 MB of resident memory, a Pool three threads
        code = (
            "import os, sys\n"
            "import lscc.harness as h\n"
            "from lscc.toy import toy_scheme\n"
            "from lscc.windowed import WindowedConfig, build_windowed_scheme\n"
            "h._fuzz_workers = lambda n: min(2, n)\n"
            "schemes = [toy_scheme(), build_windowed_scheme(WindowedConfig(a=1, L=4, seed=7))]\n"
            "assert h.fuzz_bounds(schemes, 2000, seed=3)['passed']\n"
            "import threading\n"
            "assert threading.active_count() == 1, threading.enumerate()\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    pass\n"
            "else:\n"
            "    sys.exit('a fuzz worker outlived the fuzz')\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'multiprocessing' or m.startswith('concurrent')))"
        )
        proc = run_python(["-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_deferred_scipy_paths_run_cold(self, tmp_path):
        code = (
            "import numpy as np\n"
            "from lscc.certify import p_frame_bounds\n"
            "lo, hi = p_frame_bounds(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), 3.0)\n"
            "assert 0.0 < lo <= hi, (lo, hi)\n"
        )
        proc = run_python(["-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr
        proc = run_subprocess(
            ["analyze", "--scheme", "shiftinv:p=3", "--signal", "ones", "--trials", "20"], tmp_path
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["p"] == 3.0


class TestAnalyze:
    def test_disconnected_complex_bound_is_infinite(self, capsys):
        code = run(
            [
                "analyze",
                "--scheme",
                "windowed:a=1,L=8,field=complex",
                "--signal",
                "1,1,1,0,1,0,1,1",
                "--trials",
                "20",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["retrievability"] == "Inconclusive"
        assert payload["lambda"] == 0.0
        assert payload["bound"] == "inf"
        assert "stability bound is infinite" in captured.err

    def test_long_ring_runs_in_linear_memory(self, tmp_path):
        # the dense eigensolve took 14.5 s and 962 MB here
        code = (
            "import resource, sys\n"
            "from lscc.cli import main\n"
            "code = main(['analyze', '--scheme', 'windowed:a=2,L=4096,field=complex',"
            " '--signal', 'ones', '--trials', '10'])\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        proc = run_python(["-c", code], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["retrievability"] == "RetrievableByConnectivity"
        assert int(proc.stderr.split()[-1]) < 200 * 1024  # kB

    def test_connected_fixture_exit_zero(self, capsys):
        code = run(["analyze", "--scheme", "toy", "--signal", "1,2,3,4", "--trials", "100"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["retrievability"] == "RetrievableByConnectivity"
        assert payload["boundSatisfied"] is True

    def test_broken_fixture_warns_but_exits_zero(self, capsys):
        code = run(
            [
                "analyze",
                "--scheme",
                "toy",
                "--signal",
                "1,2,0,1",
                "--trials",
                "20",
                "--strategy",
                "signflips",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["retrievability"] == "Inconclusive"
        assert payload["bound"] == "inf"
        assert "warning" in captured.err

    def test_missing_signal_file(self, capsys):
        code = run(["analyze", "--scheme", "toy", "--signal", "@/no/such/file.json"])
        assert code == 1

    def test_bad_scheme_source(self):
        assert run(["analyze", "--scheme", "nonsense", "--signal", "1,2"]) == 1

    def test_random_signal_is_not_its_own_first_comparison(self, capsys):
        # with a single comparison drawn from the signal's own stream, the pair
        # was phase-equivalent and the sampled worst ratio degenerated to 0
        code = run(
            ["analyze", "--scheme", "toy", "--signal", "random", "--seed", "5", "--trials", "1"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["empiricalWorstRatio"] > 0.0

    def test_wrong_length_signal(self):
        assert run(["analyze", "--scheme", "toy", "--signal", "1,2"]) == 1

    def test_zero_trials_exit_one(self, capsys):
        code = run(["analyze", "--scheme", "toy", "--signal", "1,2,3,4", "--trials", "0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "trials must be >= 1" in captured.err

    def test_malformed_random_seed_exit_one(self, capsys):
        code = run(["analyze", "--scheme", "toy", "--signal", "random:abc"])
        assert code == 1
        assert "malformed signal 'random:abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("signal", ["nan,1,2,3", "inf,1,2,3", "1,2,-inf,3"])
    def test_non_finite_signal_exit_one(self, capsys, signal):
        # a nan/inf entry used to yield bound "inf" with boundSatisfied true
        code = run(["analyze", "--scheme", "toy", "--signal", signal, "--trials", "10"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "signal has non-finite entries" in captured.err

    def test_non_finite_signal_file_exit_one(self, tmp_path, capsys):
        path = tmp_path / "signal.json"
        path.write_text("[1, [NaN, 0], 2, 3]")
        code = run(["analyze", "--scheme", "toy", "--signal", f"@{path}", "--trials", "10"])
        assert code == 1
        assert "signal has non-finite entries" in capsys.readouterr().err

    @pytest.mark.parametrize("p", ["0", "-1"])
    def test_shiftinv_p_below_one_exit_one(self, capsys, p):
        # p=0 used to die with a ZeroDivisionError in p_frame_bounds
        code = run(["analyze", "--scheme", f"shiftinv:p={p}", "--signal", "ones", "--trials", "5"])
        assert code == 1
        assert "p must lie in [1, inf)" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ['{"a": 1}', "5", '["x"]', "[null]"])
    def test_malformed_signal_file_exit_one(self, tmp_path, capsys, content):
        # each of these used to escape resolve_signal as a ValueError or TypeError
        path = tmp_path / "signal.json"
        path.write_text(content)
        code = run(["analyze", "--scheme", "toy", "--signal", f"@{path}", "--trials", "10"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "malformed signal file" in captured.err

    def test_negative_seed_exit_one(self, capsys):
        # a negative seed used to reach numpy and die with a traceback
        code = run(["analyze", "--scheme", "toy", "--signal", "ones", "--seed", "-1"])
        assert code == 1
        assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "-3"])
    def test_bad_env_seed_exit_one(self, monkeypatch, capsys, value):
        monkeypatch.setenv("LSCC_SEED", value)
        code = run(["analyze", "--scheme", "toy", "--signal", "ones", "--trials", "10"])
        assert code == 1
        assert f"LSCC_SEED must be a non-negative integer, got '{value}'" in capsys.readouterr().err


class TestValidate:
    def test_toy_passes(self, capsys):
        assert run(["validate", "--scheme", "toy", "--trials", "60"]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 3

    def test_windowed_passes(self):
        assert run(["validate", "--scheme", "windowed:a=2,L=8", "--trials", "50"]) == 0

    def test_negative_seed_exit_one(self, capsys):
        assert run(["validate", "--scheme", "toy", "--seed", "-1"]) == 1
        assert "--seed must be a non-negative integer, got -1" in capsys.readouterr().err

    def test_corrupted_constant_fails(self, tmp_path, capsys):
        scheme = toy_scheme()
        data = json.loads(scheme_to_json(scheme))
        data["constants"]["C1"] = data["constants"]["C1"] * 0.01
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run(["validate", "--scheme", str(path), "--trials", "50"]) == 2

    @pytest.mark.parametrize("key, factor", [("A", 2.0), ("B", 0.5)])
    def test_declared_frame_constant_outside_envelope_fails(self, tmp_path, capsys, key, factor):
        data = json.loads(scheme_to_json(toy_scheme()))
        consts = data["constants"]
        consts[key] *= factor
        consts["B"] = max(consts["A"], consts["B"])  # a scheme needs A <= B
        path = tmp_path / "frame.json"
        path.write_text(json.dumps(data))
        assert run(["validate", "--scheme", str(path), "--trials", "50"]) == 2
        assert "local-phase-retrieval: FAIL" in capsys.readouterr().out


class TestSweeps:
    def test_windowed_sweep_writes_csv_and_manifest(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(
            [
                "sweep",
                "windowed",
                "--a",
                "1",
                "--Lmin",
                "8",
                "--Lmax",
                "16",
                "--field",
                "real",
                "--trials",
                "20",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert header == "L,d,bound,empirical_ratio,adversarial_ratio,cheeger,lambda,C2_or_C3"
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["L_values"] == [8, 16]
        assert str(out) in manifest["outputs"]

    def test_empty_range_exit_one(self, tmp_path):
        code = run(
            [
                "sweep",
                "windowed",
                "--Lmin",
                "32",
                "--Lmax",
                "8",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["windowed", "--Lmin", "0"],
            ["windowed", "--Lmin", "-1"],
            ["shiftinv", "--kind", "poly", "--beta", "2", "--Rmin", "0"],
            ["shiftinv", "--kind", "exp", "--beta", "1", "--Rmin", "-3"],
        ],
    )
    def test_nonpositive_lower_end_exit_one(self, tmp_path, argv):
        # doubling from a lower end <= 0 never passes the upper end
        proc = run_subprocess(["sweep", *argv, "--out", str(tmp_path / "x.csv")], tmp_path)
        assert proc.returncode == 1
        assert "must be >= 1" in proc.stderr
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("kind", ["exp", "poly"])
    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_shiftinv_non_finite_beta_exit_one(self, tmp_path, capsys, kind, beta):
        out = tmp_path / "x.csv"
        code = run(["sweep", "shiftinv", "--kind", kind, "--beta", beta, "--out", str(out)])
        assert code == 1
        assert "beta must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_shiftinv_exp_floor_pass(self, tmp_path):
        out = tmp_path / "decay.csv"
        code = run(
            [
                "sweep",
                "shiftinv",
                "--kind",
                "exp",
                "--beta",
                "1.0",
                "--Rmax",
                "16",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "R,cheeger,reference_bound,pass"
        assert all(line.endswith("true") for line in lines[1:])

    # `cheeger` columns written by the O(n^2) interval enumeration that the
    # Dinkelbach route replaced, same commands
    PINNED_CHEEGER = {
        "poly": (
            ["shiftinv", "--kind", "poly", "--beta", "2", "--Rmax", "512"],
            [
                0.14317150852260682,
                0.0770496321346047,
                0.040041192641705095,
                0.020419967539241465,
                0.01031244080446963,
                0.005182165761154789,
                0.0025976108524970783,
            ],
        ),
        "exp": (
            ["shiftinv", "--kind", "exp", "--beta", "1", "--Rmax", "512"],
            [
                0.32343425922062236,
                0.3233257954995954,
                0.32332575911407463,
                0.3233257591140703,
                0.32332575911407024,
                0.32332575911407024,
                0.3233257591140702,
            ],
        ),
        "windowed": (
            ["windowed", "--field", "real", "--Lmax", "64"],
            [
                0.025821423313500177,
                0.012910711656750088,
                0.006455355828375044,
                0.003227677914187522,
            ],
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED_CHEEGER))
    def test_cheeger_column_matches_pinned_values(self, tmp_path, name):
        argv, pinned = self.PINNED_CHEEGER[name]
        out = tmp_path / "sweep.csv"
        assert run(["sweep", *argv, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        column = lines[0].split(",").index("cheeger")
        values = [float(line.split(",")[column]) for line in lines[1:]]
        assert values == pytest.approx(pinned, rel=1e-13, abs=0.0)

    def test_one_point_windowed_sweep_has_no_slope(self, tmp_path, capsys):
        # a line through one point has no slope: null in the manifest, no
        # numpy warning, exit 0
        out = tmp_path / "one.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(
                ["sweep", "windowed", "--field", "complex", "--Lmin", "8", "--Lmax", "8",
                 "--trials", "20", "--out", str(out)]
            )
        assert code == 0
        assert "slope vs L is undefined for one L value" in capsys.readouterr().out
        manifest = json.loads((tmp_path / "one.csv.manifest.json").read_text())
        assert manifest["bound_slope"] is None
        assert manifest["adversarial_slope"] is None
        assert len(out.read_text().splitlines()) == 2

    def test_byte_reproducible_given_seed(self, tmp_path):
        digests = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = run(
                [
                    "sweep",
                    "windowed",
                    "--a",
                    "1",
                    "--Lmin",
                    "8",
                    "--Lmax",
                    "16",
                    "--field",
                    "real",
                    "--trials",
                    "30",
                    "--seed",
                    "11",
                    "--out",
                    str(out),
                ]
            )
            assert code == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]


class TestGraphDump:
    def test_broken_fixture_graph(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = run(["graph", "--scheme", "toy", "--signal", "1,2,0,1", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["V"] == [0, 1, 2]
        assert payload["edges"] == [[0, 1, 4.0]]
        assert payload["empty"] is False

    def test_nan_zero_tol_exit_one(self, capsys):
        # nan used to drop every vertex and print an empty graph with exit 0
        code = run(["graph", "--scheme", "toy", "--signal", "ones", "--zero-tol", "nan"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "zero_tol must lie in [0, inf), got nan" in captured.err


class TestReport:
    def test_roundtrip_render(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert (
            run(
                [
                    "analyze",
                    "--scheme",
                    "toy",
                    "--signal",
                    "1,2,3,4",
                    "--trials",
                    "50",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert run(["report", "--in", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "RetrievableByConnectivity" in rendered

    def test_missing_report(self):
        assert run(["report", "--in", "/no/such/report.json"]) == 1

    @pytest.mark.parametrize("content", ["[1, 2]", '{"cheeger": "x"}', '{"cheeger": {"lower": 1}}'])
    def test_malformed_report_exit_one(self, tmp_path, capsys, content):
        # these used to die with AttributeError, TypeError or KeyError
        path = tmp_path / "report.json"
        path.write_text(content)
        assert run(["report", "--in", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: report ")


class TestSchemeLoading:
    def test_json_scheme_source(self, tmp_path):
        path = tmp_path / "scheme.json"
        path.write_text(scheme_to_json(toy_scheme()))
        assert run(["analyze", "--scheme", str(path), "--signal", "1,2,3,4", "--trials", "30"]) == 0

    def test_dense_descriptor_rejected_with_message(self, tmp_path, capsys):
        # the earlier layout: no version, d x d projection matrices, dense frames
        toy = toy_scheme()
        data = json.loads(scheme_to_json(toy))
        del data["version"]

        def dense(block, support):
            rows = np.zeros((block.shape[0], 4))
            rows[:, support] = block
            return rows.tolist()

        data["frames"] = [
            dense(fr.rows, s) for fr, s in zip(toy.vertex_frames, toy.vertex_projections)
        ]
        data["projections"] = [
            np.diag(np.isin(np.arange(4), s).astype(float)).tolist()
            for s in toy.vertex_projections
        ]
        data["edgeFunctionals"] = [
            dense(toy.edge_functionals[e], toy.edge_supports[e]) for e in toy.edge_supports
        ]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data))
        assert run(["validate", "--scheme", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load scheme") and "version" in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("C0", math.nan),
            ("C0", -1.0),
            ("C0", 0.0),
            ("C0", math.inf),
            ("C1", math.nan),
            ("C1", -2.0),
            ("A", math.nan),
            ("A", -0.5),
            ("B", math.nan),
            ("B", 0.1),
            ("exhaustion", [math.nan, 2.0]),
            ("exhaustion", [-1.0, 2.0]),
            ("exhaustion", [2.0, 1.0]),
            ("exhaustion", [1.0, math.nan]),
        ],
        ids=lambda v: str(v),
    )
    def test_bad_constants_rejected(self, tmp_path, capsys, key, value):
        # C0 = NaN used to print NaN (not JSON) with boundSatisfied true, and
        # C0 = -1 a positive C2
        data = json.loads(scheme_to_json(toy_scheme()))
        (data if key == "exhaustion" else data["constants"])[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run(["analyze", "--scheme", str(path), "--signal", "1,2,3,4", "--trials", "20"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot load scheme")

    @pytest.mark.parametrize("p", [0.5, 0.0, math.nan, math.inf], ids=str)
    def test_p_outside_range_rejected(self, tmp_path, capsys, p):
        data = json.loads(scheme_to_json(toy_scheme()))
        data["p"] = p
        path = tmp_path / "bad_p.json"
        path.write_text(json.dumps(data))
        assert run(["analyze", "--scheme", str(path), "--signal", "1,2,3,4", "--trials", "20"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot load scheme")
        assert f"p must lie in [1, inf), got {p}" in captured.err

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([[0, 1], [1, 1]], "self-loop at vertex 1"),
            ([[0, 1], [1, 0]], r"duplicate edge \(0,1\)"),
            ([[0, 1], [1, 3]], r"edge \(1,3\) outside vertex range"),
            ([[0, 1], [0.5, 2]], "must be integers"),
        ],
        ids=["self-loop", "duplicate", "out-of-range", "non-integer"],
    )
    def test_malformed_graph_rejected(self, tmp_path, capsys, edges, message):
        data = json.loads(scheme_to_json(toy_scheme()))
        data["graph"]["edges"] = edges
        path = tmp_path / "bad_graph.json"
        path.write_text(json.dumps(data))
        assert run(["analyze", "--scheme", str(path), "--signal", "1,2,3,4", "--trials", "20"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.match(r"error: cannot load scheme .*malformed scheme descriptor: ", captured.err)
        assert re.search(message, captured.err)

    def test_complex_p_not_two_rejected(self, tmp_path, capsys):
        scheme = build_windowed_scheme(WindowedConfig(a=2, L=8, field=COMPLEX))
        data = json.loads(scheme_to_json(scheme))
        data["p"] = 3
        path = tmp_path / "complex_p3.json"
        path.write_text(json.dumps(data))
        for argv in (["analyze", "--signal", "ones"], ["validate"], ["graph", "--signal", "ones"]):
            assert run([*argv, "--scheme", str(path)]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: cannot load scheme")
            assert "complex schemes require p = 2, got p = 3" in captured.err

    def test_open_constant_ranges_load(self, tmp_path, capsys):
        # A = 0 and B = inf leave the frame envelope open; exhaustion defaults to [0, inf]
        data = json.loads(scheme_to_json(toy_scheme()))
        data["constants"].update(A=0.0, B=math.inf)
        del data["exhaustion"]
        path = tmp_path / "open.json"
        path.write_text(json.dumps(data))
        assert run(["analyze", "--scheme", str(path), "--signal", "1,2,3,4", "--trials", "20"]) == 0
        json.loads(capsys.readouterr().out)

    def test_env_seed_respected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LSCC_SEED", "99")
        code = run(["analyze", "--scheme", "toy", "--signal", "1,2,3,4", "--trials", "30"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["provenance"]["seed"] == 99


# descriptor hashes at seed 0 of the builtin specs that tests, bench/ and CI run
BUILTIN_HASHES = {
    "toy": "f7cb81efdc0ef02cfa747f98d138dec05ed1584e71b6668c407fbfbd1849890d",
    "windowed": "a668e52f0ad86ce74f4f7f78ce256c99ca883c0252a0f09b812548b3dfc46918",
    "windowed:a=2,L=8": "a668e52f0ad86ce74f4f7f78ce256c99ca883c0252a0f09b812548b3dfc46918",
    "windowed:a=2,L=8,field=real": "a668e52f0ad86ce74f4f7f78ce256c99ca883c0252a0f09b812548b3dfc46918",
    "windowed:a=2,L=8,field=complex": "536390d49626d480ed3d112855d28d10aac6a0030c67d7e43d1b192924a11f72",
    "windowed:a=1,L=8,field=complex": "ff8fe1b9d9f8d310506aa30892e3b18d361696ad945bcc50f1e3c552b6905a0a",
    "windowed:a=4,L=8,field=real": "7d366f8420443f64fcb9ecb52c966df2efe472f5d51318dd469275eb380eaf98",
    "windowed:a=2,L=64,field=complex": "18e0690e0aedf035b166537321e49633d8502677a797f33e040587b9f8368dc6",
    "windowed:a=2,L=4096,field=complex": "e08aa3896be72d29ece2fb0aff994a4ef2bb55a6dc5b94ae96706a72c449ad01",
    "windowed:seed=1": "ab4b0616946a87b61c034719d99f8e4a05e0117f8fe4b0bd460948aee1bb6673",
    "shiftinv": "8f87b5991c46336159627c55544a399566310cf5d2f17821f4e6fd02d5c2d55e",
    "shiftinv:N=2,R=8": "8f87b5991c46336159627c55544a399566310cf5d2f17821f4e6fd02d5c2d55e",
    "shiftinv:R=10": "2e7c5b74dd17ab57033f38d6d2afd90840c3336bf2008fb3edc54c9a7d1d13c3",
    "shiftinv:p=3": "df0e4ef17171c78e545be99581a2a8f3b50e598734156ee3bd72288b6f4af07a",
    "shiftinv:N=2,R=8,p=3": "df0e4ef17171c78e545be99581a2a8f3b50e598734156ee3bd72288b6f4af07a",
    "shiftinv:N=2,R=64": "755af875a96357b1d1dbeddc465eb90b641d7a940193d8f7272b0ba18d853d05",
    "shiftinv:N=3,R=64": "50b59c8391eed4aa009d622971350d5c2e1d6e163af15630848c5fa9f7a16909",
    "shiftinv:N=2,R=512": "a762535081daca176b0454b80e919b49c4e18ee3cc441888df4cbbbcee0d7c77",
}


def one_error_line(capsys) -> str:
    """The run's single stderr line, asserting it is an `error:` line and stdout is empty."""
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


class TestSourceGrammar:
    @pytest.mark.parametrize("spec", sorted(BUILTIN_HASHES))
    def test_builtin_spec_hash(self, spec):
        assert resolve_scheme(spec, 0).descriptor_hash() == BUILTIN_HASHES[spec]

    def test_windowed_seed_defaults_to_the_run_seed(self):
        assert resolve_scheme("windowed", 1).descriptor_hash() == BUILTIN_HASHES["windowed:seed=1"]

    @pytest.mark.parametrize(
        "scheme, message",
        [
            # each of these used to build a scheme the spec did not name
            ("windowed:a=2,l=64", "unknown key 'l' in 'windowed'; windowed accepts a, L, field, seed"),
            ("shiftinv:n=3", "unknown key 'n' in 'shiftinv'; shiftinv accepts N, R, p"),
            ("windowed:s=5,t=9", "unknown key 's' in 'windowed'"),
            ("windowed:a=2,a=3", "repeated key 'a' in 'windowed'"),
            ("toy:x=1", "toy accepts no keys"),
            ("windowed:a", "malformed option 'a' (expected key=value)"),
            ("windowed:a=x", "bad windowed key a='x'"),
            ("windowed:seed=-1", "bad windowed key seed='-1'"),
            ("shiftinv:p=x", "bad shiftinv key p='x'"),
            ("windowedx", "neither a builtin (toy, windowed, shiftinv) nor a file"),
        ],
    )
    def test_bad_spec_exit_one(self, capsys, scheme, message):
        assert run(["analyze", "--scheme", scheme, "--signal", "ones", "--trials", "5"]) == 1
        assert message in one_error_line(capsys)

    @pytest.mark.parametrize("signal", ["random5", "ones:3", "random:-1"])
    def test_signal_family_named_exactly(self, capsys, signal):
        # "random5" used to read as "random"
        assert run(["analyze", "--scheme", "toy", "--signal", signal, "--trials", "5"]) == 1
        assert f"malformed signal {signal!r}" in one_error_line(capsys)

    def test_relative_file_named_like_a_builtin_loads_the_file(self, tmp_path, monkeypatch, capsys):
        # "shiftinv_R64.json" used to build the builtin shiftinv (N=2, R=8)
        monkeypatch.chdir(tmp_path)
        Path("shiftinv_R64.json").write_text(scheme_to_json(resolve_scheme("shiftinv:N=2,R=64", 0)))
        Path("toy").write_text(scheme_to_json(resolve_scheme("windowed", 0)))
        for source, spec in [("shiftinv_R64.json", "shiftinv:N=2,R=64"), ("toy", "toy"),
                             ("./toy", "windowed")]:
            assert run(["analyze", "--scheme", source, "--signal", "ones", "--trials", "5"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["provenance"]["schemeHash"] == BUILTIN_HASHES[spec]


class TestOutputs:
    COMMANDS = {
        "analyze": ["analyze", "--scheme", "toy", "--signal", "ones", "--trials", "5"],
        "graph": ["graph", "--scheme", "toy", "--signal", "ones"],
        "sweep-windowed": ["sweep", "windowed", "--Lmin", "8", "--Lmax", "8", "--trials", "5"],
        "sweep-shiftinv": ["sweep", "shiftinv", "--kind", "exp", "--beta", "1", "--Rmax", "8"],
    }

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_every_out_writes_a_manifest(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        assert run([*self.COMMANDS[name], "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "out.manifest.json").read_text())
        assert manifest["command"] == name.replace("-", " ")
        assert manifest["outputs"] == {str(out): hashlib.sha256(out.read_bytes()).hexdigest()}

    @pytest.mark.parametrize("name", sorted(COMMANDS))
    def test_unwritable_out_exit_one(self, tmp_path, capsys, name):
        # each used to end in a FileNotFoundError traceback
        out = tmp_path / "missing" / "out"
        assert run([*self.COMMANDS[name], "--out", str(out)]) == 1
        assert one_error_line(capsys).startswith(f"error: cannot write '{out}': ")
