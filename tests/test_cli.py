import hashlib
import json

import numpy as np

from lscc.cli import main
from lscc.scheme import scheme_to_json
from lscc.toy import toy_scheme


def run(argv):
    return main(argv)


class TestAnalyze:
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


class TestValidate:
    def test_toy_passes(self, capsys):
        assert run(["validate", "--scheme", "toy", "--trials", "60"]) == 0
        out = capsys.readouterr().out
        assert out.count("pass") == 3

    def test_windowed_passes(self):
        assert run(["validate", "--scheme", "windowed:a=2,L=8", "--trials", "50"]) == 0

    def test_corrupted_constant_fails(self, tmp_path, capsys):
        scheme = toy_scheme()
        data = json.loads(scheme_to_json(scheme))
        data["constants"]["C1"] = data["constants"]["C1"] * 0.01
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert run(["validate", "--scheme", str(path), "--trials", "50"]) == 2


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
        data["frames"] = [fr.rows.tolist() for fr in toy.vertex_frames]
        data["projections"] = [
            np.diag(np.isin(np.arange(4), s).astype(float)).tolist()
            for s in toy.vertex_projections
        ]
        data["edgeFunctionals"] = [toy.edge_functionals[e].tolist() for e in toy.graph.edges]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(data))
        assert run(["validate", "--scheme", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load scheme") and "version" in err

    def test_env_seed_respected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LSCC_SEED", "99")
        code = run(["analyze", "--scheme", "toy", "--signal", "1,2,3,4", "--trials", "30"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["provenance"]["seed"] == 99
