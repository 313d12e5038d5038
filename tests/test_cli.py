import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import random_antisymmetric, random_spd
from ncyclo import cli
from ncyclo.cli import cmd_verify, main
from ncyclo.config import RunConfig

SAMPLE_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
ANISOTROPIC = Path(__file__).resolve().parent.parent / "configs" / "anisotropic2d.json"
GAMMA_ERROR = "error: unknown configuration key 'gamma'\n"


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

    def test_strengths_nine_orders_apart(self, tmp_path, capsys):
        q, r = np.linalg.qr(np.random.default_rng(9).standard_normal((5, 5)))
        q = q * np.sign(np.diag(r))
        theta = np.zeros((5, 5))
        theta[0, 1], theta[2, 3] = 1.0, 1e-9
        m = q @ (theta - theta.T) @ q.T
        config = write_config(tmp_path, {"n": 5, "field": ((m - m.T) / 2.0).tolist()})
        assert main(["decompose", "--config", config]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert (doc["num_blocks"], doc["free_dims"]) == (2, 1)
        np.testing.assert_allclose(doc["strengths"], [1.0, 1e-9], rtol=1e-6)
        assert main(["spectrum", "--config", config]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["num_blocks"] == 2

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        nan = float("nan")
        field = [[0.0, 1.0], [-1.0, 0.0]]
        cases = [
            ({"n": 2, "field": [[0.0, 1.0], [-1.0, 0.0, 9]]}, "row 1"),
            ({"n": 2, "field": field, "initial": {"x": [0.0, nan], "p": [1.0, 0.0]}},
             "error: initial: particle state entries must be finite\n"),
            ({"n": 2, "field": field, "gauge": [[0.0, nan], [0.0, 0.0]]},
             "error: gauge: gauge has a non-finite entry at row 0, column 1\n"),
        ]
        for data, message in cases:
            config = write_config(tmp_path, data)
            assert main(["decompose", "--config", config]) == 2
            captured = capsys.readouterr()
            assert message in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("text, message", [
        (b'{"n": 2, "field": [[0.0, 1.0], [-1.0, 0.0]], "note": "\xe9"}',
         "{path}: not valid UTF-8 ("),
        (b'{"n": ' + b"1" * 5000 + b"}", "{path}: not valid JSON ("),
        (b'{"n": 2, "field": [[0.0, 1' + b"0" * 400 + b'], [-1.0, 0.0]]}',
         "field: row 0, column 1: the number is outside the floating-point range"),
    ], ids=["latin-1", "long-integer", "integer-past-float"])
    def test_unreadable_config_exit_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "run.json"
        path.write_bytes(text)
        assert main(["decompose", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message.format(path=path) in captured.err
        assert captured.out == ""


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

    def test_anisotropic_metric_is_geometric(self, tmp_path, capsys):
        # metric diag(4, 1), unit field: the frame is g itself, so the orbit is
        # read geometrically and turns at 0.5, the frequency of K = H g^-1.
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", str(ANISOTROPIC), "--out", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["geometric_interpretation_valid"] is True
        assert (report["dt"], report["steps"], report["method"]) == (0.01, 2000, "exact")
        residuals = report["residuals"]
        assert residuals["radius_drift"] <= report["tolerance"]
        assert residuals["frequency_mismatch"] <= report["tolerance"]
        assert report["blocks"][0]["measured_frequency"] == pytest.approx(0.5, rel=1e-9)
        first = out.read_text().split("\n")[1].split(",")
        total = sum(report["block_energies"]) + report["free_energy"]
        assert total == pytest.approx(float(first[-1]), rel=1e-12)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_definite_metric_energies_and_gates(self, tmp_path, capsys, rng, sign):
        # In the frame g (or -g) the block and free energies sum to the kinetic
        # energy (or to minus it), and every definite metric gets the radius and
        # frequency gates.
        n = 5
        g = random_spd(rng, n)
        out = tmp_path / "traj.csv"
        config = write_config(tmp_path, {
            "n": n,
            "metric": (sign * (g + g.T) / 2.0).tolist(),
            "field": random_antisymmetric(rng, n).tolist(),
            "particle": {"m": 2.5, "q": -0.7, "c": 3.0},
            "initial": {"x": rng.standard_normal(n).tolist(),
                        "p": rng.standard_normal(n).tolist()},
            "integration": {"dt": 0.05, "steps": 400, "method": "exact"},
            "output": {"path": str(out), "format": "csv"},
        })
        assert main(["simulate", "--config", config]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["geometric_interpretation_valid"] is True
        assert {"radius_drift", "frequency_mismatch"} <= set(report["residuals"])
        first = out.read_text().split("\n")[1].split(",")
        total = sum(report["block_energies"]) + report["free_energy"]
        assert total == pytest.approx(sign * float(first[-1]), rel=1e-12)

    def test_structured_trajectory_format(self, tmp_path, capsys):
        out = tmp_path / "traj.json"
        config = circle2d(tmp_path, integration={"dt": 0.1, "steps": 5, "method": "exact"})
        assert main(["simulate", "--config", config,
                     "--out", str(out), "--format", "structured"]) == 0
        payload = json.loads(out.read_text())
        assert len(payload["trajectory"]) == 6
        assert set(payload["trajectory"][0]) == {"t", "x", "p", "pT", "E_total"}

    def test_residual_above_tolerance_exits_1(self, tmp_path, capsys):
        # 64 RK4 steps per turn drift the energy by ~4e-7, above the 1e-8 tolerance.
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

    def test_overflowing_free_drift_refused_by_name(self, tmp_path, capsys):
        # Euclidean, so sampled in closed form: the free drift 1e307 per step
        # leaves the floating-point range at step 18, the step where repeated
        # addition of that drift overflows too.  No floating-point warning.
        out = tmp_path / "drift.csv"
        config = write_config(tmp_path, {
            "n": 3,
            "field": [0.0, 0.0, 1.0],
            "initial": {"x": [0.0, 0.0, 0.0], "p": [1.0, 0.0, 1e300]},
            "integration": {"dt": 1e7, "steps": 40, "method": "exact"},
            "output": {"path": str(out), "format": "csv"},
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the orbit leaves the floating-point range "
                                "at step 18 (t = 180000000)\n")
        assert not out.exists()

    def test_orbit_with_overflowing_squares_refused_by_name(self, tmp_path, capsys):
        # RK4 at dt = 10 multiplies the boost mode by about 644 per step: the
        # samples stay finite to the end, but their squares overflow at step 55.
        out = tmp_path / "boost.csv"
        config = write_config(tmp_path, {
            "n": 2,
            "metric": "minkowski",
            "field": [[0.0, 1.0], [-1.0, 0.0]],
            "initial": {"x": [0.0, 0.0], "p": [1.0, 0.5]},
            "integration": {"dt": 10.0, "steps": 100, "method": "rk4"},
            "output": {"path": str(out), "format": "csv"},
        })
        assert main(["simulate", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "step 55 (t = 550)" in captured.err
        assert not out.exists()

    def test_missing_output_path(self, tmp_path, capsys):
        config = circle2d(tmp_path, output=None)
        data = json.loads((tmp_path / "run.json").read_text())
        del data["output"]
        config = write_config(tmp_path, data, name="no_output.json")
        assert main(["simulate", "--config", config]) == 2
        assert "output path" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["exact", "rk4"])
    def test_missing_output_path_refused_before_propagating(self, tmp_path, capsys,
                                                            monkeypatch, method):
        def refuse(*args):
            raise AssertionError("propagated an orbit with nowhere to write it")

        monkeypatch.setattr(cli, "evolve_exact_trajectory", refuse)
        monkeypatch.setattr(cli, "evolve_rk4", refuse)
        config = write_config(tmp_path, {
            "n": 2, "field": [[0.0, 1.0], [-1.0, 0.0]],
            "initial": {"x": [0.0, 0.0], "p": [1.0, 0.0]},
            "integration": {"dt": 0.01, "steps": 10, "method": method}})
        assert main(["simulate", "--config", config]) == 2
        assert capsys.readouterr().err == ("error: simulate needs an output path "
                                           "(config output.path or --out)\n")

    def test_missing_output_path_named_before_overflow(self, tmp_path, capsys):
        # The boost of test_overflowing_orbit_refused_by_name, with no path:
        # the output is resolved first, so the path is what gets named.
        config = write_config(tmp_path, {
            "n": 2,
            "metric": "minkowski",
            "field": [[0.0, 1.0], [-1.0, 0.0]],
            "initial": {"x": [0.0, 0.0], "p": [1.0, 0.5]},
            "integration": {"dt": 10.0, "steps": 100, "method": "exact"},
        })
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

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_frequencies_are_the_eigenvalues_of_k(self, tmp_path, capsys, rng, sign):
        # Oracle: the positive imaginary parts of the eigenvalues of
        # K = (q / m c) H g^-1, on definite metrics and non-unit constants.
        n, m, q, c = 5, 2.5, -0.7, 3.0
        for _ in range(5):
            g = random_spd(rng, n)
            g = sign * (g + g.T) / 2.0
            h = random_antisymmetric(rng, n)
            config = write_config(tmp_path, {
                "n": n, "metric": g.tolist(), "field": h.tolist(),
                "particle": {"m": m, "q": q, "c": c}})
            assert main(["spectrum", "--config", config]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            imag = np.linalg.eigvals((q / (m * c)) * h @ np.linalg.inv(g)).imag
            oracle = np.sort(imag[imag > 1e-8 * np.abs(imag).max()])[::-1]
            np.testing.assert_allclose(json.loads(captured.out)["frequencies"], oracle,
                                       rtol=1e-12, atol=0.0)

    def test_anisotropic_metric(self, capsys):
        assert main(["spectrum", "--config", str(ANISOTROPIC)]) == 0
        doc = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(doc["frequencies"], [0.5], rtol=1e-12, atol=0.0)
        assert doc["ground_energy"] == pytest.approx(0.25, rel=1e-12)
        assert doc["fully_discrete"] is True

    def test_negative_levels_refused(self, tmp_path, capsys):
        config = write_config(tmp_path, {"n": 2, "field": [[0.0, 1.0], [-1.0, 0.0]]})
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--config", config, "--levels", "-3"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "argument --levels" in captured.err
        assert captured.out == ""

    def test_zero_levels_listed_empty(self, tmp_path, capsys):
        config = write_config(tmp_path, {"n": 2, "field": [[0.0, 1.0], [-1.0, 0.0]]})
        assert main(["spectrum", "--config", config, "--levels", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["levels"] == []
        assert doc["frequencies"] == [1.0]

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
        # The cut is relative to the gauge's scale, so a tiny traceful gauge warns too.
        for gauge in ([[1.0, 1.0], [0.0, 1.0]], [[1e-11, 1e-11], [0.0, 0.0]]):
            config = write_config(tmp_path, {"n": 2, "gauge": gauge})
            assert main(["verify", "--config", config]) == 0
            assert "radiation" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", [0.0, 1e-11, 1.0, 1e6])
    def test_verdict_independent_of_field_scale(self, tmp_path, capsys, scale):
        a = np.random.default_rng(0).standard_normal((4, 4))
        config = write_config(tmp_path, {
            "n": 4, "field": (scale * (a - a.T)).tolist(),
            "particle": {"q": 3.0, "c": 1.7, "hbar": 0.3}})
        assert main(["verify", "--config", config]) == 0
        assert capsys.readouterr().err == ""

    def test_violation_measured_against_field_scale(self, tmp_path, capsys):
        # The gauge generates a field 5e-7 off in relative terms: the config's
        # relative consistency check refuses it at parse time, and verify's own
        # gate, fed the same pair without validation, calls it a violation.
        field, gauge = [[0.0, 1e-6], [-1e-6, 0.0]], [[0.0, 1e-6 + 5e-13], [0.0, 0.0]]
        config = write_config(tmp_path, {"n": 2, "field": field, "gauge": gauge})
        assert main(["verify", "--config", config]) == 2
        assert "inconsistent" in capsys.readouterr().err
        assert cmd_verify(RunConfig(n=2, field=field, gauge=gauge)) == 1
        assert "relation violated: [p, p]" in capsys.readouterr().err


class TestFrame:
    # The metric alone decides the frame, so a run config has no gamma key;
    # decomposing against a chosen gamma is a library call (test_canonical).
    @pytest.mark.parametrize("metric", ["euclidean", [[2.0, 0.5], [0.5, 1.0]],
                                        [[-2.0, 0.0], [0.0, -1.0]]],
                             ids=["euclidean", "positive", "negative"])
    def test_gamma_next_to_definite_metric_refused(self, tmp_path, capsys, metric):
        config = write_config(tmp_path, {
            "n": 2, "metric": metric, "gamma": [[2.0, 0.0], [0.0, 1.0]],
            "field": [[0.0, 1.0], [-1.0, 0.0]]})
        for command in ("decompose", "spectrum", "verify"):
            assert main([command, "--config", config]) == 2
            captured = capsys.readouterr()
            assert captured.err == GAMMA_ERROR
            assert captured.out == ""

    def test_gamma_next_to_indefinite_metric_refused(self, tmp_path, capsys, rng):
        n = 4
        gamma = random_spd(rng, n)
        gamma = (gamma + gamma.T) / 2.0
        config = write_config(tmp_path, {
            "n": n, "metric": "minkowski", "gamma": gamma.tolist(),
            "field": random_antisymmetric(rng, n).tolist()})
        assert main(["decompose", "--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.err == GAMMA_ERROR
        assert captured.out == ""

    def test_field_checked_before_sections(self, tmp_path, capsys):
        # Each tensor key is checked where it is built, before the object
        # sections: a field that is not antisymmetric is named ahead of a
        # missing integration.dt.
        config = write_config(tmp_path, {
            "n": 2, "field": [[0.0, 1.0], [1.0, 0.0]],
            "initial": {"x": [0.0, 0.0], "p": [1.0, 0.0]},
            "integration": {"steps": 10}})
        assert main(["decompose", "--config", config]) == 2
        assert capsys.readouterr().err == (
            "error: field: field tensor is not antisymmetric: H[0,1] + H[1,0] = 2.000e+00\n")


@pytest.mark.parametrize("path", SAMPLE_CONFIGS, ids=lambda path: path.stem)
def test_every_sample_config_runs(path, tmp_path, capsys):
    for command, *rest in (["decompose"], ["spectrum"], ["verify"],
                           ["simulate", "--out", str(tmp_path / "trajectory")]):
        assert main([command, "--config", str(path), *rest]) == 0, command
    assert capsys.readouterr().err == ""


SCIPY_PROBE = """
import json, sys
from ncyclo.cli import main
calls, minkowski = json.loads(sys.argv[1]), sys.argv[2:]
codes = [main(args) for args in calls]
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
codes.append(main(minkowski))
print(json.dumps({"codes": codes, "scipy_before_minkowski": loaded,
                  "scipy_after": "scipy.linalg" in sys.modules}))
"""


def test_scipy_loaded_only_for_an_indefinite_exact_orbit(tmp_path):
    # One fresh interpreter runs every command on uniform3d, exact and RK4,
    # through main; only then does the indefinite exact orbit need expm.
    import subprocess
    import sys
    uniform = next(path for path in SAMPLE_CONFIGS if path.stem == "uniform3d")
    minkowski = next(path for path in SAMPLE_CONFIGS if path.stem == "minkowski4d")
    data = json.loads(uniform.read_text())
    data["integration"]["method"] = "rk4"
    rk4 = write_config(tmp_path, data)
    calls = [["decompose", "--config", str(uniform)], ["spectrum", "--config", str(uniform)],
             ["verify", "--config", str(uniform)],
             ["simulate", "--config", str(uniform), "--out", str(tmp_path / "exact.csv")],
             ["simulate", "--config", rk4, "--out", str(tmp_path / "rk4.csv")]]
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, json.dumps(calls),
         "simulate", "--config", str(minkowski), "--out", str(tmp_path / "minkowski.csv")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 6, "scipy_before_minkowski": [], "scipy_after": True}
    assert (tmp_path / "minkowski.csv").stat().st_size > 0


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
