import json

import numpy as np
import pytest

from ncyclo.cli import main


def write_config(tmp_path, data, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2) + "\n")
    return str(path)


def circle2d(tmp_path, **overrides):
    data = {
        "n": 2,
        "metric": "euclidean",
        "gauge": "antisymmetric",
        "field": [[0.0, 1.0], [-1.0, 0.0]],
        "initial": {"x": [0.0, 0.0], "p": [1.0, 0.0]},
        "integration": {"dt": 2.0 * np.pi / 512, "steps": 512, "method": "exact"},
        "output": {"path": str(tmp_path / "traj.csv"), "format": "csv"},
    }
    data.update(overrides)
    return write_config(tmp_path, data)


class TestDecomposeCommand:
    def test_3d_axis_field(self, tmp_path, capsys):
        config = write_config(tmp_path, {"n": 3, "field": [0.0, 0.0, 1.0]})
        assert main(["decompose", "--config", config]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_blocks"] == 1
        assert doc["free_dims"] == 1
        np.testing.assert_allclose(doc["strengths"], [1.0])
        assert doc["reconstruction_residual"] < 1e-10
        assert doc["orthonormality_residual"] < 1e-10

    def test_2d_fully_blocked(self, tmp_path, capsys):
        config = write_config(tmp_path, {"n": 2, "field": [[0.0, 1.0], [-1.0, 0.0]]})
        assert main(["decompose", "--config", config]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_blocks"] == 1
        assert doc["free_dims"] == 0

    def test_random_5d_seeded_residual(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((5, 5))
        m = m - m.T
        config = write_config(tmp_path, {"n": 5, "field": m.tolist()})
        assert main(["decompose", "--config", config]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["reconstruction_residual"] < 1e-10
        basis = np.array(doc["basis"])
        theta_strengths = doc["strengths"]
        assert len(theta_strengths) == doc["num_blocks"]
        np.testing.assert_allclose(basis.T @ basis, np.eye(5), atol=1e-10)

    def test_out_file_and_determinism(self, tmp_path):
        config = write_config(tmp_path, {"n": 2, "field": [[0.0, 1.0], [-1.0, 0.0]]})
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["decompose", "--config", config, "--out", str(out1)]) == 0
        assert main(["decompose", "--config", config, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        config = write_config(tmp_path, {"n": 2, "field": [[0.0, 1.0], [-1.0, 0.0, 9]]})
        assert main(["decompose", "--config", config]) == 2
        assert "row 1" in capsys.readouterr().err


class TestSimulateCommand:
    def test_circular_orbit_closes(self, tmp_path, capsys):
        config = circle2d(tmp_path)
        assert main(["simulate", "--config", config]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["geometric_interpretation_valid"] is True
        rows = (tmp_path / "traj.csv").read_text().strip().split("\n")
        assert rows[0] == "t,x1,x2,p1,p2,pT1,pT2,E_total"
        assert len(rows) == 514
        first = np.array([float(v) for v in rows[1].split(",")])
        last = np.array([float(v) for v in rows[-1].split(",")])
        np.testing.assert_allclose(last[1:3], first[1:3], atol=1e-9)

    def test_report_contents(self, tmp_path, capsys):
        config = circle2d(tmp_path)
        main(["simulate", "--config", config])
        report = json.loads(capsys.readouterr().out)
        assert report["num_blocks"] == 1
        block = report["blocks"][0]
        np.testing.assert_allclose(block["center"], [0.0, -1.0], atol=1e-12)
        assert block["radius"] == pytest.approx(1.0, abs=1e-12)
        assert block["measured_frequency"] == pytest.approx(1.0, rel=1e-8)
        assert report["residuals"]["dual_momentum_drift"] < 1e-12

    def test_free_particle_straight_line(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "n": 2,
            "field": [[0.0, 0.0], [0.0, 0.0]],
            "initial": {"x": [0.0, 0.0], "p": [1.0, 2.0]},
            "integration": {"dt": 0.1, "steps": 50, "method": "exact"},
            "output": {"path": str(tmp_path / "line.csv"), "format": "csv"},
        })
        assert main(["simulate", "--config", config]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["blocks"] == []
        assert report["num_blocks"] == 0
        rows = (tmp_path / "line.csv").read_text().strip().split("\n")[1:]
        last = [float(v) for v in rows[-1].split(",")]
        np.testing.assert_allclose(last[1:3], [5.0, 10.0], atol=1e-12)

    def test_rk4_method(self, tmp_path, capsys):
        config = circle2d(tmp_path, integration={
            "dt": 2.0 * np.pi / 2048, "steps": 2048, "method": "rk4"})
        assert main(["simulate", "--config", config]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["method"] == "rk4"
        assert report["passed"] is True

    def test_minkowski_flagged_not_geometric(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "n": 4,
            "metric": "minkowski",
            "field": [[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
            "initial": {"x": [0.0] * 4, "p": [1.0, 0.0, 0.5, 0.25]},
            "integration": {"dt": 0.05, "steps": 100, "method": "exact"},
            "output": {"path": str(tmp_path / "mink.csv"), "format": "csv"},
        })
        assert main(["simulate", "--config", config]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["geometric_interpretation_valid"] is False
        assert "radius_drift" not in report["residuals"]
        assert report["residuals"]["dual_momentum_drift"] < 1e-10

    def test_structured_trajectory_format(self, tmp_path, capsys):
        out = tmp_path / "traj.json"
        config = circle2d(tmp_path, integration={"dt": 0.1, "steps": 5, "method": "exact"})
        assert main(["simulate", "--config", config,
                     "--out", str(out), "--format", "structured"]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["trajectory"]) == 6
        assert set(payload["trajectory"][0]) == {"t", "x", "p", "pT", "E_total"}

    def test_tolerance_env_override(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NCYCLO_TOL", "1e-30")
        config = circle2d(tmp_path, integration={
            "dt": 2.0 * np.pi / 64, "steps": 64, "method": "rk4"})
        assert main(["simulate", "--config", config]) == 1
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["passed"] is False
        assert report["failed_invariants"]
        assert "residuals above tolerance" in captured.err

    def test_overflowing_orbit_refused_by_name(self, tmp_path, capsys):
        # A Minkowski boost grows like exp(t), so at dt = 10 it overflows at step 72.
        out = tmp_path / "boost.csv"
        config = write_config(tmp_path, {
            "n": 2,
            "metric": "minkowski",
            "field": [[0.0, 1.0], [-1.0, 0.0]],
            "initial": {"x": [0.0, 0.0], "p": [1.0, 0.5]},
            "integration": {"dt": 10.0, "steps": 100, "method": "exact"},
            "output": {"path": str(out), "format": "csv"},
        })
        assert main(["simulate", "--config", config]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "step 72 (t = 720)" in err
        assert not out.exists()

    def test_missing_output_path(self, tmp_path, capsys):
        config = circle2d(tmp_path, output=None)
        data = json.loads((tmp_path / "run.json").read_text())
        del data["output"]
        config = write_config(tmp_path, data, name="no_output.json")
        assert main(["simulate", "--config", config]) == 2
        assert "output path" in capsys.readouterr().err


class TestSpectrumCommand:
    def test_2d_discrete(self, tmp_path, capsys):
        config = write_config(tmp_path, {"n": 2, "field": [[0.0, 1.0], [-1.0, 0.0]]})
        assert main(["spectrum", "--config", config]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fully_discrete"] is True
        assert doc["ground_energy"] == pytest.approx(0.5)
        assert doc["levels"][0]["quantum_numbers"] == [0]

    def test_tiny_planar_field_discrete(self, tmp_path, capsys):
        config = write_config(tmp_path, {"n": 2, "field": [[0.0, 1e-11], [-1e-11, 0.0]]})
        assert main(["spectrum", "--config", config]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["num_blocks"] == 1
        assert doc["fully_discrete"] is True

    def test_3d_continuum(self, tmp_path, capsys):
        config = write_config(tmp_path, {"n": 3, "field": [0.0, 0.0, 1.0]})
        assert main(["spectrum", "--config", config]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fully_discrete"] is False
        assert doc["free_count"] == 1

    def test_4d_two_blocks_discrete(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "n": 4,
            "field": [[0.0, 2.0, 0.0, 0.0], [-2.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]],
        })
        assert main(["spectrum", "--config", config, "--levels", "4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fully_discrete"] is True
        np.testing.assert_allclose(doc["frequencies"], [2.0, 1.0])
        assert [entry["energy"] for entry in doc["levels"]] == [1.5, 2.5, 3.5, 3.5]

    def test_indefinite_metric_null_classification(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "n": 2, "metric": "minkowski", "field": [[0.0, 1.0], [-1.0, 0.0]]})
        assert main(["spectrum", "--config", config]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fully_discrete"] is None
        assert doc["metric_definite"] is False


class TestVerifyCommand:
    def test_unit_field_all_relations_exact(self, tmp_path, capsys):
        config = write_config(tmp_path, {"n": 2, "field": [[0.0, 1.0], [-1.0, 0.0]]})
        assert main(["verify", "--config", config]) == 0
        out = capsys.readouterr().out
        assert "maximum deviation: 0.000e+00" in out

    def test_triangular_gauge_matches(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "n": 3, "gauge": "triangular", "field": [0.0, 0.0, 2.0]})
        assert main(["verify", "--config", config]) == 0

    def test_tables_printed(self, tmp_path, capsys):
        config = write_config(tmp_path, {"n": 2, "field": [[0.0, 1.0], [-1.0, 0.0]]})
        main(["verify", "--config", config])
        out = capsys.readouterr().out
        assert "[p, p]" in out
        assert "[pT, pT]" in out
        assert "[p, pT]" in out

    def test_radiation_warning_for_traceful_gauge(self, tmp_path, capsys):
        config = write_config(tmp_path, {
            "n": 2, "gauge": [[1.0, 1.0], [0.0, 1.0]]})
        assert main(["verify", "--config", config]) == 0
        assert "radiation" in capsys.readouterr().err


class TestEntryPoint:
    def test_console_script_runs(self, tmp_path):
        import subprocess
        import sys
        config = write_config(tmp_path, {"n": 2, "field": [[0.0, 1.0], [-1.0, 0.0]]})
        proc = subprocess.run(
            [sys.executable, "-m", "ncyclo.cli", "decompose", "--config", config],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["num_blocks"] == 1
