import json
import math
import os
import re
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (
    assert_no_child_left,
    fail_in_forked_children,
    random_antisymmetric,
    random_spd,
)
from ncyclo import cli, dynamics, modes
from ncyclo.cli import OUTPUT_FORMATS, cmd_verify, main
from ncyclo.config import RunConfig
from ncyclo.operators import canonical_momentum, commutator, dual_momentum

SAMPLE_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
ANISOTROPIC = Path(__file__).resolve().parent.parent / "configs" / "anisotropic2d.json"
UNIT_FIELD = [[0.0, 1.0], [-1.0, 0.0]]
GAMMA_ERROR = "error: unknown configuration key 'gamma'\n"
WHITENED_ERROR = ("error: the field whitened by the metric's frame leaves the floating-point "
                  "range: G^-1/2 H G^-1/2 overflows\n")


def write_config(tmp_path, data, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data, indent=2) + "\n")
    return str(path)


def argparse_refusal(argv, capsys):
    """The usage error of ``argv``, which argparse refuses with exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    return captured.err


def strict_json(text):
    """Parse a document that must be strict JSON: no NaN or Infinity."""
    def refuse(constant):
        raise AssertionError(f"{constant} in a JSON document")
    return json.loads(text, parse_constant=refuse)


def run_without_warnings(argv, capsys):
    """Exit code and captured streams of ``main``, failing on any warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, capsys.readouterr()


def circle2d(tmp_path, **overrides):
    data = {
        "n": 2,
        "metric": "euclidean",
        "gauge": "antisymmetric",
        "field": [[0.0, 1.0], [-1.0, 0.0]],
        "initial": {"x": [0.0, 0.0], "p": [1.0, 0.0]},
        "integration": {"dt": 2.0 * np.pi / 512, "steps": 512, "method": "exact"},
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
             "error: initial.x: entry 1: expected a finite number, got nan\n"),
            ({"n": 3, "field": [0.0, nan, 1.0]},
             "error: field: entry 1: expected a finite number, got nan\n"),
            ({"n": 2, "field": field, "particle": {"m": nan}},
             "error: particle.m: expected a finite number, got nan\n"),
            ({"n": 2, "field": field, "gauge": [[0.0, nan], [0.0, 0.0]]},
             "error: gauge: gauge has a non-finite entry at row 0, column 1\n"),
            # Entries past half the largest float overflow H - H^T.
            ({"n": 2, "field": [[0.0, 1e308], [-1e308, 0.0]]},
             "error: field: field tensor leaves the floating-point range: "
             "its Frobenius norm overflows\n"),
            ({"n": 2, "gauge": [[0.0, 1e308], [-1e308, 0.0]]},
             "error: field: field has a non-finite entry at row 0, column 1\n"),
        ]
        for data, message in cases:
            config = write_config(tmp_path, data)
            code, captured = run_without_warnings(["decompose", "--config", config], capsys)
            assert code == 2
            assert message in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("scale", [1e-300, 1e200])
    def test_fields_far_from_unit_scale_keep_their_blocks(self, tmp_path, capsys, scale):
        # The zero cut and the residual scale are Frobenius norms taken at the
        # power of two of the largest entry, so neither overflows at 1e200 nor
        # underflows at 1e-300 (where these seeds let roundoff through a zero cut).
        for n, seed in ((2, 0), (5, 1), (7, 0)):
            a = np.random.default_rng(seed).standard_normal((n, n))
            config = write_config(tmp_path, {"n": n, "field": (scale * (a - a.T)).tolist()})
            code, captured = run_without_warnings(["decompose", "--config", config], capsys)
            assert (code, captured.err) == (0, "")
            doc = strict_json(captured.out)
            assert doc["num_blocks"] == n // 2
            assert doc["reconstruction_residual"] <= 1e-12
            assert doc["orthonormality_residual"] <= 1e-12

    def test_huge_field_vector_has_its_frequency(self, tmp_path, capsys):
        config = write_config(tmp_path, {"n": 3, "field": [0.0, 0.0, 1e200]})
        code, captured = run_without_warnings(["spectrum", "--config", config], capsys)
        assert (code, captured.err) == (0, "")
        doc = strict_json(captured.out)
        assert doc["frequencies"] == [1e200]
        assert (doc["num_blocks"], doc["free_count"], doc["fully_discrete"]) == (1, 1, False)

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


    @pytest.mark.parametrize("command, data, message", [
        ("decompose", {"n": 2, "metric": 5, "field": UNIT_FIELD},
         "metric: expected a nested array of 2 rows"),
        ("decompose", {"n": 2, "field": [[0.0, 1.0], 5]}, "field: row 1 is not an array"),
        ("decompose", {"n": 2, "field": UNIT_FIELD, "initial": {"x": [[0.0], [0.0]],
                                                                "p": [1.0, 0.0]}},
         "initial.x: expected a flat array of 2 numbers"),
        ("decompose", [2, UNIT_FIELD], "configuration must be a JSON object"),
        ("decompose", {"n": 2, "field": UNIT_FIELD, "particle": 5},
         "particle: expected an object with keys m, q, c, hbar"),
        ("simulate", {"n": 2, "field": UNIT_FIELD,
                      "integration": {"dt": 0.1, "steps": 10}},
         "this command needs an 'initial' section with x and p"),
        ("simulate", {"n": 2, "field": UNIT_FIELD,
                      "initial": {"x": [0.0, 0.0], "p": [1.0, 0.0]}},
         "this command needs an 'integration' section with dt, steps, and method"),
    ], ids=["metric-not-nested", "field-row-not-array", "vector-nested", "not-an-object",
            "section-not-an-object", "no-initial", "no-integration"])
    def test_config_refusal_names_its_key(self, tmp_path, capsys, command, data, message):
        out = tmp_path / "traj.csv"
        argv = [command, "--config", write_config(tmp_path, data)]
        argv += ["--out", str(out)] if command == "simulate" else []
        code, captured = run_without_warnings(argv, capsys)
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")
        assert not out.exists()


class TestSimulateCommand:
    def test_circular_orbit_closes(self, tmp_path, capsys):
        config = circle2d(tmp_path)
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "traj.csv")]) == 0
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
        main(["simulate", "--config", config, "--out", str(tmp_path / "traj.csv")])
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
        })
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "line.csv")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["blocks"] == []
        assert report["num_blocks"] == 0
        rows = (tmp_path / "line.csv").read_text().strip().split("\n")[1:]
        last = [float(v) for v in rows[-1].split(",")]
        np.testing.assert_allclose(last[1:3], [5.0, 10.0], atol=1e-12)

    def test_rk4_method(self, tmp_path, capsys):
        config = circle2d(tmp_path, integration={
            "dt": 2.0 * np.pi / 2048, "steps": 2048, "method": "rk4"})
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "traj.csv")]) == 0
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
        })
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "mink.csv")]) == 0
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

    @pytest.mark.parametrize("fmt", OUTPUT_FORMATS)
    def test_failed_writer_process_leaves_no_file(self, fmt, tmp_path, capsys, monkeypatch):
        # 2001 rows are two batches, so one of them is formatted by a forked child.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        fail_in_forked_children(monkeypatch)
        out = tmp_path / "traj.out"
        argv = ["simulate", "--config", str(ANISOTROPIC), "--out", str(out), "--format", fmt]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: the trajectory writer process \d+ failed with exit "
                            r"status 1\n", captured.err)
        assert not out.exists()
        assert_no_child_left()

    def test_failed_write_through_a_link_removes_nothing(self, tmp_path, capsys, monkeypatch):
        # Only a regular file opened at the path itself is removed, never a
        # link or what it points to, as a device would be.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        fail_in_forked_children(monkeypatch)
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        link.symlink_to(target)
        assert main(["simulate", "--config", str(ANISOTROPIC), "--out", str(link)]) == 2
        assert capsys.readouterr().err.startswith("error: the trajectory writer process")
        assert link.is_symlink() and target.exists()

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
        })
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["geometric_interpretation_valid"] is True
        assert {"radius_drift", "frequency_mismatch"} <= set(report["residuals"])
        first = out.read_text().split("\n")[1].split(",")
        total = sum(report["block_energies"]) + report["free_energy"]
        assert total == pytest.approx(sign * float(first[-1]), rel=1e-12)

    @pytest.mark.parametrize("q", [1.0, -1.0])
    @pytest.mark.parametrize("metric", ["euclidean", [[-1.0, 0.0], [0.0, -1.0]]],
                             ids=["g", "minus-g"])
    def test_frequency_measured_past_half_a_turn_per_sample(self, tmp_path, capsys, metric, q):
        # At dt = 4 the orbit turns by more than half a turn per sample, so its
        # angle alone unwraps to steps of 2 pi - 4, a frequency of 0.571, not 1.
        # Its phase less the expected turn, -s sign(q) t in the frame s g,
        # moves by roundoff only; the sign of that turn is pinned by these four
        # cases, since an orbit sampled finely measures |slope| either way.
        config = circle2d(tmp_path, metric=metric, particle={"q": q},
                          integration={"dt": 4.0, "steps": 20, "method": "exact"})
        argv = ["simulate", "--config", config, "--out", str(tmp_path / "traj.csv")]
        code, captured = run_without_warnings(argv, capsys)
        assert (code, captured.err) == (0, "")
        report = strict_json(captured.out)
        assert report["residuals"]["frequency_mismatch"] <= 1e-15
        assert report["blocks"][0]["measured_frequency"] == pytest.approx(1.0, rel=1e-15)

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
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "traj.csv")]) == 1
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
        })
        assert main(["simulate", "--config", config, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "step 72 (t = 720)" in err
        assert not out.exists()

    def test_overflowing_free_drift_refused_by_name(self, tmp_path, capsys):
        # Euclidean, so sampled in closed form: the free drift 1e307 per step
        # leaves the floating-point range at step 18, the step where repeated
        # addition of that drift overflows too.  No floating-point warning.
        self.refuse_free_drift(tmp_path, capsys, {})

    def test_overflowing_free_drift_refused_by_name_under_minkowski(self, tmp_path, capsys):
        # The same drift along the time-like axis, sampled as a mode at zero:
        # the orbit's reach (4e8) times the drift would overflow at once, so
        # the drift is stored free of it and overflows at step 18 too.
        self.refuse_free_drift(tmp_path, capsys, {"metric": "minkowski"})

    def refuse_free_drift(self, tmp_path, capsys, metric):
        out = tmp_path / "drift.csv"
        config = write_config(tmp_path, {
            "n": 3,
            **metric,
            "field": [0.0, 0.0, 1.0],
            "initial": {"x": [0.0, 0.0, 0.0], "p": [1.0, 0.0, 1e300]},
            "integration": {"dt": 1e7, "steps": 40, "method": "exact"},
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", "--config", config, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the orbit leaves the floating-point range "
                                "at step 18 (t = 180000000)\n")
        assert not out.exists()

    def test_long_boost_refused_at_the_sample_that_overflows(self, tmp_path, capsys):
        # The boost block of minkowski4d grows like exp(t / 2); propagated in
        # blocks, its first non-finite sample is the one that stepping one step
        # at a time reaches too, for both methods read in row order.  simulate
        # refuses the first block that fails, at E_total, a square of p.
        sample = json.loads((SAMPLE_CONFIGS[0].parent / "minkowski4d.json").read_text())
        field = np.zeros((4, 4))
        field[2:, 2:] = np.array(sample["field"])[2:, 2:]
        out = tmp_path / "boost.csv"
        config = write_config(tmp_path, {
            "n": 4,
            "metric": "minkowski",
            "field": field.tolist(),
            "initial": sample["initial"],
            "integration": {"dt": 0.02, "steps": 100_000, "method": "exact"},
        })
        run = RunConfig.load(config)
        metric, field, constants = run.metric_tensor(), run.field_tensor(), run.constants()
        k = dynamics.dynamics_matrix(field, metric, constants)
        for evolve in (dynamics.evolve_exact_trajectory, dynamics.evolve_rk4):
            trajectory = evolve(run.initial_state(), k, metric, constants, 0.02, 100_000)
            with pytest.raises(ValueError) as refusal:
                for start in range(0, len(trajectory), 1000):
                    trajectory[start:start + 1000]
            assert str(refusal.value) == ("the orbit leaves the floating-point range "
                                          "at step 71168 (t = 1423.36)")
        assert main(["simulate", "--config", config, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the trajectory column E_total leaves the "
                                "floating-point range at step 35749 (t = 714.98)\n")
        assert not out.exists()

    def test_orbit_with_overflowing_squares_refused_by_name(self, tmp_path, capsys):
        # RK4 at dt = 10 multiplies the boost mode by about 644 per step: the
        # samples stay finite to the end, but the energy column, which squares
        # them, overflows at step 56.
        out = tmp_path / "boost.csv"
        config = write_config(tmp_path, {
            "n": 2,
            "metric": "minkowski",
            "field": [[0.0, 1.0], [-1.0, 0.0]],
            "initial": {"x": [0.0, 0.0], "p": [1.0, 0.5]},
            "integration": {"dt": 10.0, "steps": 100, "method": "rk4"},
        })
        assert main(["simulate", "--config", config, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: the trajectory column E_total leaves the "
                                "floating-point range at step 56 (t = 560)\n")
        assert not out.exists()

    def test_missing_output_path(self, tmp_path, capsys):
        config = circle2d(tmp_path)
        assert "the following arguments are required: --out" in argparse_refusal(
            ["simulate", "--config", config], capsys)

    @pytest.mark.parametrize("method", ["exact", "rk4"])
    def test_missing_output_path_refused_before_propagating(self, tmp_path, capsys,
                                                            monkeypatch, method):
        def refuse(*args):
            raise AssertionError("read a config or propagated an orbit with nowhere to write it")

        monkeypatch.setattr(cli.RunConfig, "load", refuse)
        monkeypatch.setattr(cli, "evolve_exact_trajectory", refuse)
        monkeypatch.setattr(cli, "evolve_rk4", refuse)
        config = write_config(tmp_path, {
            "n": 2, "field": [[0.0, 1.0], [-1.0, 0.0]],
            "initial": {"x": [0.0, 0.0], "p": [1.0, 0.0]},
            "integration": {"dt": 0.01, "steps": 10, "method": method}})
        assert "--out" in argparse_refusal(["simulate", "--config", config], capsys)

    def test_missing_output_path_named_before_overflow(self, tmp_path, capsys):
        # The boost of test_overflowing_orbit_refused_by_name, with no path:
        # the command line is checked first, so the path is what gets named.
        config = write_config(tmp_path, {
            "n": 2,
            "metric": "minkowski",
            "field": [[0.0, 1.0], [-1.0, 0.0]],
            "initial": {"x": [0.0, 0.0], "p": [1.0, 0.5]},
            "integration": {"dt": 10.0, "steps": 100, "method": "exact"},
        })
        err = argparse_refusal(["simulate", "--config", config], capsys)
        assert "--out" in err and "floating-point" not in err

    def test_rk4_step_map_overflow_refused_without_warnings(self, tmp_path, capsys):
        # At dt = 1e300 the RK4 step map itself overflows; the first sample
        # is named, as for any orbit that leaves the float range.
        out = tmp_path / "traj.csv"
        config = circle2d(tmp_path, integration={"dt": 1e300, "steps": 10, "method": "rk4"})
        code, captured = run_without_warnings(
            ["simulate", "--config", config, "--out", str(out)], capsys)
        assert (code, captured.out) == (2, "")
        assert captured.err == ("error: the orbit leaves the floating-point range "
                                "at step 1 (t = 1e+300)\n")
        assert not out.exists()

    def test_overflowing_dynamics_matrix_refused_by_name(self, tmp_path, capsys):
        # The field is finite; (q/(m c)) H is not, and is named as such.
        out = tmp_path / "traj.csv"
        config = circle2d(tmp_path, field=[[0.0, 1e300], [-1e300, 0.0]], particle={"q": 1e10})
        code, captured = run_without_warnings(
            ["simulate", "--config", config, "--out", str(out)], capsys)
        assert (code, captured.out) == (2, "")
        assert captured.err == ("error: the field times the particle's q/(m c) = 1.000e+10 "
                                "leaves the floating-point range: K = (q/(m c)) H g^-1 "
                                "overflows\n")
        assert not out.exists()

    @pytest.mark.parametrize("method", ["exact", "rk4"])
    def test_unallocatable_step_count_refused_by_name(self, tmp_path, capsys, method):
        # No array grows with the step count, so nothing fails to allocate;
        # past 2**53 the sample times i*dt run together, and the count is
        # refused by its key when the config is read.
        out = tmp_path / "traj.csv"
        config = circle2d(tmp_path, integration={"dt": 0.01, "steps": 10**17, "method": method})
        code, captured = run_without_warnings(
            ["simulate", "--config", config, "--out", str(out)], capsys)
        assert (code, captured.out) == (2, "")
        assert captured.err == ("error: integration.steps: 100000000000000000 steps index "
                                "samples past 2**53, where float64 no longer tells "
                                "consecutive sample times i*dt apart\n")
        assert not out.exists()

    @pytest.mark.parametrize("method", ["exact", "rk4"])
    def test_unallocatable_table_refused_by_name(self, tmp_path, capsys, monkeypatch, method):
        # The orbit fits, but the columns the table adds to it do not.
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(dynamics, "kinetic_energy", exhausted)
        out = tmp_path / "traj.csv"
        config = circle2d(tmp_path, integration={"dt": 0.01, "steps": 300, "method": method})
        code, captured = run_without_warnings(
            ["simulate", "--config", config, "--out", str(out)], capsys)
        assert (code, captured.out) == (2, "")
        assert captured.err == ("error: integration.steps: 300 steps make an orbit of 301 "
                                "samples, too many to allocate\n")
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "structured"])
    @pytest.mark.parametrize("method", ["exact", "rk4"])
    @pytest.mark.parametrize("data, column", [
        # p - (q/c) H x = (0, 1 + 1e310), though x, p and their squares fit.
        ({"n": 2, "field": [[0.0, 1e300], [-1e300, 0.0]],
          "initial": {"x": [1e10, 0.0], "p": [0.0, 1.0]},
          "integration": {"dt": 1e-303, "steps": 10}}, "pT2"),
        # g^-1 p . p / 2m = 5e309, though p . p = 1e304 fits.
        ({"n": 2, "metric": [[1e-6, 0.0], [0.0, 1e-6]], "field": [[0.0, 1e6], [-1e6, 0.0]],
          "initial": {"x": [0.0, 0.0], "p": [1e152, 0.0]},
          "integration": {"dt": 1e-14, "steps": 10}}, "E_total"),
    ], ids=["dual-momentum", "energy"])
    def test_overflowing_column_refused_by_name(self, tmp_path, capsys, data, column, method,
                                                fmt):
        config = write_config(tmp_path, {**data, "integration": {**data["integration"],
                                                                 "method": method}})
        out = tmp_path / "traj.out"
        code, captured = run_without_warnings(
            ["simulate", "--config", config, "--out", str(out), "--format", fmt], capsys)
        assert (code, captured.out) == (2, "")
        assert captured.err == (f"error: the trajectory column {column} leaves the "
                                f"floating-point range at step 0 (t = 0)\n")
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "structured"])
    @pytest.mark.parametrize("batch", [1, 3, 1024])
    def test_overflow_in_a_later_block_refused_by_name(self, tmp_path, capsys, monkeypatch,
                                                       batch, fmt):
        # A 1+1 D runaway with H = 1e300 and q = 1e-300, so K is of order 1:
        # x grows like cosh(t), and H x passes the float range from step 1642
        # on, in the second block of 1024 rows, though the orbit stays finite.
        # The check names the first bad entry by its step in the whole orbit,
        # as the table of the whole orbit does, before the file opens.
        monkeypatch.setattr(cli, "_BATCH", batch)
        data = {"n": 2, "metric": "minkowski", "field": [[0.0, 1e300], [-1e300, 0.0]],
                "particle": {"m": 1.0, "q": 1e-300, "c": 1.0},
                "initial": {"x": [0.0, 0.0], "p": [0.0, -1.0]},
                "integration": {"dt": 0.012, "steps": 1800, "method": "exact"}}
        config = write_config(tmp_path, data)
        run = RunConfig.load(config)
        metric, field, constants = run.metric_tensor(), run.field_tensor(), run.constants()
        trajectory = dynamics.evolve_exact_trajectory(
            run.initial_state(), dynamics.dynamics_matrix(field, metric, constants), metric,
            constants, 0.012, 1800)
        with pytest.raises(ValueError) as whole:
            dynamics.trajectory_table(trajectory, field, metric, constants)
        assert str(whole.value) == ("the trajectory column pT1 leaves the floating-point "
                                    "range at step 1642 (t = 19.704)")
        out = tmp_path / "traj.out"
        code, captured = run_without_warnings(
            ["simulate", "--config", config, "--out", str(out), "--format", fmt], capsys)
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {whole.value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("method", ["exact", "rk4"])
    def test_first_failing_block_refused_at_its_column(self, tmp_path, capsys, method):
        # A boost at rate 0.5 in (x3, t) under Minkowski: E_total, a square of p,
        # leaves the float range at step 35749, and the sample itself at
        # step 71168.  The walk refuses the first block that fails, as the
        # writers would, so the column is named and no later block is read.
        config = write_config(tmp_path, {
            "n": 4, "metric": "minkowski",
            "field": [[0.0] * 4, [0.0] * 4, [0.0, 0.0, 0.0, 0.5], [0.0, 0.0, -0.5, 0.0]],
            "initial": {"x": [0.0] * 4, "p": [1.0, 0.0, 0.25, 0.1]},
            "integration": {"dt": 0.02, "steps": 100_000, "method": method}})
        out = tmp_path / "traj.csv"
        code, captured = run_without_warnings(
            ["simulate", "--config", config, "--out", str(out)], capsys)
        assert (code, captured.out) == (2, "")
        assert captured.err == ("error: the trajectory column E_total leaves the "
                                "floating-point range at step 35749 (t = 714.98)\n")
        assert not out.exists()

    @pytest.mark.parametrize("fmt", OUTPUT_FORMATS)
    @pytest.mark.parametrize("steps", [1, 1023, 1024, 2048])
    def test_report_does_not_depend_on_the_block_size(self, tmp_path, capsys, monkeypatch,
                                                      steps, fmt):
        # RK4, so both integrals drift past a step: walked in blocks of 1, 3
        # or 1024 rows, the check reads the drifts of the whole table's columns.
        config = circle2d(tmp_path, integration={"dt": 0.05, "steps": steps, "method": "rk4"})
        run = RunConfig.load(config)
        metric, field, constants = run.metric_tensor(), run.field_tensor(), run.constants()
        trajectory = dynamics.evolve_rk4(
            run.initial_state(), dynamics.dynamics_matrix(field, metric, constants), metric,
            constants, 0.05, steps)
        table = dynamics.trajectory_table(trajectory, field, metric, constants)
        drifts = [np.abs(table[name] - table[name][0]).max()
                  / max(1.0, np.abs(table[name][0]).max()) for name in ("pT", "E_total")]
        reports = set()
        for batch in (1, 3, 1024):
            monkeypatch.setattr(cli, "_BATCH", batch)
            out = tmp_path / f"traj{batch}.out"
            main(["simulate", "--config", config, "--out", str(out), "--format", fmt])
            report = capsys.readouterr().out.replace(str(out), "traj.out")
            residuals = json.loads(report)["residuals"]
            assert [residuals["dual_momentum_drift"], residuals["energy_drift"]] == drifts
            reports.add(report)
        assert len(reports) == 1
        assert steps == 1 or min(drifts) > 0.0

    @pytest.mark.parametrize("fmt", ["csv", "structured"])
    @pytest.mark.parametrize("method", ["exact", "rk4"])
    def test_non_finite_report_entry_refused_by_name(self, tmp_path, capsys, method, fmt):
        # The orbit and its columns fit, but the orbit center (c/q) pT / s =
        # 1e10 / 1e-300 does not: the report names it before the file opens.
        config = write_config(tmp_path, {
            "n": 2, "field": [[0.0, 1e-300], [-1e-300, 0.0]],
            "initial": {"x": [0.0, 0.0], "p": [1e10, 0.0]},
            "integration": {"dt": 0.1, "steps": 20, "method": method}})
        out = tmp_path / "traj.out"
        code, captured = run_without_warnings(
            ["simulate", "--config", config, "--out", str(out), "--format", fmt], capsys)
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: the document entry blocks[0].center[1] is not "
                                       "finite: Out of range float values are not JSON "
                                       "compliant")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("data, radius", [
        # m = 1e-300: radius |p| / (q s) = 1.41e200, whose square is past the float range.
        ({"field": [[0.0, 1e-300], [-1e-300, 0.0]], "particle": {"m": 1e-300},
          "initial": {"x": [0.0, 0.0], "p": [1.4142135623730951e-100, 0.0]}},
         1.4142135623730951e200),
        # A free particle whose position's square is past the float range.
        ({"field": [[0.0, 0.0], [0.0, 0.0]],
          "initial": {"x": [1e160, 0.0], "p": [1.0, 0.0]}}, None),
    ], ids=["radius-1e200", "free-1e160"])
    def test_orbit_with_squares_past_the_float_range_runs(self, tmp_path, capsys, data,
                                                           radius):
        config = write_config(tmp_path, {"n": 2, **data,
                                         "integration": {"dt": 0.05, "steps": 200}})
        out = tmp_path / "traj.csv"
        code, captured = run_without_warnings(
            ["simulate", "--config", config, "--out", str(out)], capsys)
        assert (code, captured.err) == (0, "")
        report = strict_json(captured.out)
        assert all(value <= 1e-14 for value in report["residuals"].values())
        if radius is not None:
            assert report["blocks"][0]["radius"] == pytest.approx(radius, rel=1e-14)
        assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)).all()

    def test_definite_metric_factored_once(self, tmp_path, capsys, rng, monkeypatch):
        # The frame is the metric's own, so decompose and the closed-form orbit
        # share one real eigh of G; the complex ones are the two generators.
        calls = []
        eigh = np.linalg.eigh

        def counted(matrix):
            calls.append(np.iscomplexobj(matrix))
            return eigh(matrix)

        n = 4
        g = random_spd(rng, n)
        config = write_config(tmp_path, {
            "n": n, "metric": ((g + g.T) / 2.0).tolist(),
            "field": random_antisymmetric(rng, n).tolist(),
            "initial": {"x": [0.0] * n, "p": [1.0] * n},
            "integration": {"dt": 0.05, "steps": 100, "method": "exact"}})
        monkeypatch.setattr(np.linalg, "eigh", counted)
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "traj.csv")]) == 0
        assert sorted(calls) == [False, True, True]

    @pytest.mark.parametrize("fmt", OUTPUT_FORMATS)
    @pytest.mark.parametrize("count", [2, 1001, 1024, 1025])
    def test_one_table_and_the_report_samples(self, tmp_path, capsys, monkeypatch, fmt, count):
        # One run evaluates each integral of the motion a block of rows at a
        # time, never over the whole orbit: the check walks every row once in
        # blocks of cli._BATCH, and the writer, in one share here, every row
        # once more in its chunks.  The report splits every (count // 512)-th
        # of its count samples and the last.
        calls = []

        def spy(owner, name):
            original = getattr(owner, name)

            def logged(state, *args):
                calls.append((name, state))
                return original(state, *args)
            monkeypatch.setattr(owner, name, logged)

        for owner, name in ((dynamics, "dual_momentum_value"), (dynamics, "kinetic_energy"),
                            (cli, "orbit_decomposition")):
            spy(owner, name)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        dt = 2.0 * np.pi / 512
        config = circle2d(tmp_path, integration={"dt": dt, "steps": count - 1, "method": "exact"})
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "traj"),
                     "--format", fmt]) == 0
        [samples] = [state for name, state in calls if name == "orbit_decomposition"]
        for integral in ("dual_momentum_value", "kinetic_energy"):
            blocks = [state.time for name, state in calls if name == integral
                      and state is not samples and state.time.size]
            assert max(block.size for block in blocks) <= min(count, cli._BATCH)
            rows = np.concatenate(blocks)
            np.testing.assert_array_equal(rows[:count], np.arange(count) * dt)
            np.testing.assert_array_equal(rows[count:], np.arange(count) * dt)
        stride = max(1, count // 512)
        index = sorted(set(range(0, count, stride)) | {count - 1})
        np.testing.assert_array_equal(samples.time, np.arange(count)[index] * dt)

    @pytest.mark.parametrize("fmt", OUTPUT_FORMATS)
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_each_orbit_row_is_evaluated_twice(self, tmp_path, capsys, monkeypatch, fmt, cpus):
        # The check's walk evaluates every block of the exact orbit once, and
        # the writer once more: in one share, every block once; in two, each
        # share its own blocks, the block that holds the cut in both.  The
        # report's samples come from the walk.
        rows = []

        def counted(state, t, *args):
            rows.append(t.size)
            return sample(state, t, *args)

        sample = modes.sample
        monkeypatch.setattr(modes, "sample", counted)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        config = circle2d(tmp_path, integration={"dt": 0.01, "steps": 2500, "method": "exact"})
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "traj"),
                     "--format", fmt]) == 0
        # In this process: the walk, then the first share, all of the orbit
        # or its first 1250 rows; a structured file's last row, written on
        # its own, is in the block the share ended in or in the last one.
        walk = [1024, 1024, 453]
        share = walk if cpus == 1 else [1024, 1024] + [453] * (fmt == "structured")
        assert rows == walk + share

    def test_bad_output_format(self, tmp_path, capsys):
        config = circle2d(tmp_path)
        out = tmp_path / "traj.xml"
        assert "argument --format: invalid choice: 'xml'" in argparse_refusal(
            ["simulate", "--config", config, "--out", str(out), "--format", "xml"], capsys)
        assert not out.exists()

    def test_output_section_refused(self, tmp_path, capsys):
        # The destination comes from the command line alone.
        config = circle2d(tmp_path, output={"path": str(tmp_path / "o.csv"), "format": "csv"})
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: unknown configuration key 'output'\n"
        assert captured.out == ""
        assert not out.exists() and not (tmp_path / "o.csv").exists()


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
        assert "argument --levels" in argparse_refusal(
            ["spectrum", "--config", config, "--levels", "-3"], capsys)

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


    @pytest.mark.parametrize("field, extra, omega, overflow", [
        # |q|/(m c) = 1e10 and the strength 1e300 are finite, their product is not.
        (1e300, {"particle": {"q": 1e10}}, None, "the field's strength 1.000e+300 times the "
         "particle's |q|/(m c) = 1.000e+10 leaves the floating-point range: the cyclotron "
         "frequency"),
        (1.0, {"particle": {"q": 1e10, "hbar": 1e300}}, None, "the particle's hbar = 1.000e+300 "
         "times the field's cyclotron frequencies leaves the floating-point range: the ground "
         "energy"),
        # omega = 1e308: the ground and first excited levels fit, the third does not.
        (1e298, {"particle": {"q": 1e10}}, 1e308, "the particle's hbar = 1.000e+00 times the "
         "field's cyclotron frequencies leaves the floating-point range: a level energy"),
        # G^(-1/2) H G^(-1/2) = 100 H is past the float range.
        (8.9e307, {"metric": [[0.01, 0.0], [0.0, 0.01]]}, None, "the field whitened by the "
         "metric's frame leaves the floating-point range: G^-1/2 H G^-1/2"),
        # H / 0.9 fits, though H - H^T does not: one block, and its third level overflows.
        (8.9e307, {"metric": [[0.9, 0.0], [0.0, 0.9]]}, 8.9e307 / 0.9, "the particle's hbar = "
         "1.000e+00 times the field's cyclotron frequencies leaves the floating-point range: "
         "a level energy"),
    ], ids=["frequency", "ground", "level", "whitened-field", "near-limit-field"])
    def test_overflow_refused_by_name(self, tmp_path, capsys, field, extra, omega, overflow):
        config = write_config(tmp_path, {"n": 2, "field": [[0.0, field], [-field, 0.0]], **extra})
        levels = "10" if omega is None else "3"
        code, captured = run_without_warnings(
            ["spectrum", "--config", config, "--levels", levels], capsys)
        assert (code, captured.out) == (2, "")
        assert captured.err == f"error: {overflow} overflows\n"
        if omega is not None:  # the levels that fit are listed
            code, captured = run_without_warnings(
                ["spectrum", "--config", config, "--levels", "2"], capsys)
            assert code == 0
            doc = strict_json(captured.out)
            assert doc["frequencies"] == pytest.approx([omega], rel=1e-15)
            levels = [v["energy"] for v in doc["levels"]]
            assert levels == pytest.approx([omega / 2, 1.5 * omega], rel=1e-12)


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

    def test_non_finite_deviation_fails_by_name(self, tmp_path, capsys):
        # hbar (q/c) H overflows, so the [p, p] table is NaN: a failure that
        # names the table, not a pass behind a sentinel maximum.  With q = 1e10
        # and H = 1e300 the momenta's own (q/c) A overflows already.
        for field, particle in ((1.0, {"q": 1e10, "hbar": 1e300}), (1e300, {"q": 1e10})):
            config = write_config(tmp_path, {"n": 2, "field": [[0.0, field], [-field, 0.0]],
                                             "particle": particle})
            code, captured = run_without_warnings(["verify", "--config", config], capsys)
            assert code == 1
            assert captured.out.endswith("maximum deviation: nan\n")
            assert captured.err == "verify: relation violated: [p, p] vs i*hbar*(q/c)*H\n"

    @pytest.mark.parametrize("kind", ["seeded8", "non-finite"])
    def test_rows_render_entry_by_entry(self, tmp_path, capsys, rng, kind):
        # Each row is printed through one template; the bytes are those of
        # f"{v:.3e}" per entry, nan included.
        if kind == "seeded8":
            data = {"n": 8, "field": random_antisymmetric(rng, 8).tolist(),
                    "particle": {"q": -1.3, "c": 2.0, "hbar": 0.7}}
        else:
            data = {"n": 2, "field": [[0.0, 1.0], [-1.0, 0.0]],
                    "particle": {"q": 1e10, "hbar": 1e300}}
        config = RunConfig.load(write_config(tmp_path, data))
        gauge, constants = config.gauge_matrix(), config.constants()
        kin = canonical_momentum(gauge, constants, np.arange(gauge.n))
        dual = dual_momentum(gauge, constants, np.arange(gauge.n))
        with np.errstate(over="ignore", invalid="ignore"):
            expected = 1j * constants.hbar * constants.coupling * config.field_tensor().matrix
            tables = [("[p, p] vs i*hbar*(q/c)*H", np.abs(commutator(kin, kin) - expected)),
                      ("[pT, pT] vs -i*hbar*(q/c)*H", np.abs(commutator(dual, dual) + expected)),
                      ("[p, pT] vs 0", np.abs(commutator(kin, dual)))]
        lines = []
        for name, table in tables:
            lines.append(f"{name}  (max deviation {float(table.max()):.3e})")
            lines += ["  " + "  ".join(f"{value:.3e}" for value in row) for row in table]
        code, captured = run_without_warnings(
            ["verify", "--config", write_config(tmp_path, data)], capsys)
        assert code == (0 if kind == "seeded8" else 1)
        assert captured.out.startswith("\n".join(lines) + "\nmaximum deviation: ")
        assert captured.out.count("\n") == len(lines) + 1
        assert ("  nan  nan\n" in captured.out) == (kind == "non-finite")

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


@pytest.mark.parametrize("particle", [{"q": 1e300, "c": 1e-300}, {"m": 1e-320}],
                         ids=["q-over-c", "q-over-mc"])
@pytest.mark.parametrize("command", ["spectrum", "verify", "simulate"])
def test_overflowing_particle_ratios_refused(tmp_path, capsys, particle, command):
    config = circle2d(tmp_path, particle=particle)
    out = tmp_path / "traj.csv"
    extra = ["--out", str(out)] if command == "simulate" else []
    code, captured = run_without_warnings([command, "--config", config, *extra], capsys)
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: particle: q/c and q/(m c) must be finite, got ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_underflowing_cyclotron_frequency_refused(tmp_path, capsys):
    # |q| s / (m c) = 1e-30 * 1e-300 rounds to zero: spectrum and simulate
    # refuse it by name, for either kind of metric; decompose has no frequency
    # and runs.
    for metric in ("euclidean", "minkowski"):
        config = circle2d(tmp_path, metric=metric, field=[[0.0, 1e-300], [-1e-300, 0.0]],
                          particle={"q": 1e-30})
        out = tmp_path / "traj.csv"
        for argv in (["spectrum"], ["simulate", "--out", str(out)]):
            code, captured = run_without_warnings([argv[0], "--config", config, *argv[1:]],
                                                  capsys)
            assert (code, captured.out) == (2, "")
            assert captured.err == ("error: the field's strength 1.000e-300 times the "
                                    "particle's |q|/(m c) = 1.000e-30 leaves the floating-point "
                                    "range: the cyclotron frequency underflows to zero\n")
        assert not out.exists()
        code, captured = run_without_warnings(["decompose", "--config", config], capsys)
        assert (code, captured.err) == (0, "")


@pytest.mark.parametrize("command", ["decompose", "spectrum", "verify", "simulate"])
def test_metric_with_overflowing_inverse_refused(tmp_path, capsys, command):
    # 1e-310 I has eigenvalue ratio 1, but its inverse is past the float range.
    config = circle2d(tmp_path, metric=[[1e-310, 0.0], [0.0, 1e-310]])
    out = tmp_path / "traj.csv"
    extra = ["--out", str(out)] if command == "simulate" else []
    code, captured = run_without_warnings([command, "--config", config, *extra], capsys)
    assert (code, captured.out) == (2, "")
    assert captured.err == ("error: metric: metric's inverse leaves the floating-point range: "
                            "its smallest eigenvalue magnitude 1.000e-310 is too small to "
                            "invert\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["decompose", "spectrum", "simulate"])
def test_overflowing_whitened_field_refused(tmp_path, capsys, command):
    # Two blocks of 8.9e307 in the metric 0.9 I: K = H g^-1 is finite, the
    # Frobenius norm of the whitened field H / 0.9 is not.  simulate refuses
    # before it writes the trajectory.
    field = np.kron(np.eye(2), [[0.0, 8.9e307], [-8.9e307, 0.0]])
    config = write_config(tmp_path, {
        "n": 4, "metric": (0.9 * np.eye(4)).tolist(), "field": field.tolist(),
        "initial": {"x": [0.0] * 4, "p": [1.0, 0.0, 0.0, 0.0]},
        "integration": {"dt": 0.01, "steps": 10, "method": "exact"}})
    out = tmp_path / "traj.csv"
    extra = ["--out", str(out)] if command == "simulate" else []
    code, captured = run_without_warnings([command, "--config", config, *extra], capsys)
    assert (code, captured.out) == (2, "")
    assert captured.err == WHITENED_ERROR
    assert not out.exists()


def test_whitened_field_in_range_decomposed(tmp_path, capsys):
    # The metric is the float inverse of [[1000.1, 1000], [1000, 1000.1]], so
    # G^-1/2 has an entry near 45 and G^-1/2 H overflows at H = 1e306; the
    # whitened field H_01 / sqrt(det g) = 1.41e307 does not.
    metric = [[5.000249987499464, -4.999750012498214],
              [-4.999750012498214, 5.000249987499464]]
    config = write_config(tmp_path, {"n": 2, "metric": metric,
                                     "field": [[0.0, 1e306], [-1e306, 0.0]]})
    with mpmath.workdps(40):
        g = [[mpmath.mpf(v) for v in row] for row in metric]
        strength = float(mpmath.mpf(1e306) / mpmath.sqrt(g[0][0] * g[1][1] - g[0][1] * g[1][0]))
    for command, key in (("decompose", "strengths"), ("spectrum", "frequencies")):
        code, captured = run_without_warnings([command, "--config", config], capsys)
        assert (code, captured.err) == (0, "")
        doc = strict_json(captured.out)
        assert doc["num_blocks"] == 1
        assert doc[key] == pytest.approx([strength], rel=1e-12)


def rotated_draw(k):
    """Metric and field of 0-based draw ``k``: a rotated definite metric
    ``Q diag(+-10^u) Q^T``, ``|u| <= 3``, and a field near the largest float."""
    rng = np.random.default_rng(5)
    for _ in range(k + 1):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        g = (q * (10.0 ** rng.uniform(-3, 3, 4) * rng.choice([-1, 1]))) @ q.T
        a = rng.standard_normal((4, 4))
        with np.errstate(over="ignore"):  # some draws are past the float range
            h = (a - a.T) * 10.0 ** rng.uniform(300, 308)
    return (g + g.T) / 2.0, h


@pytest.mark.parametrize("draw, command", [(85, "decompose"), (185, "spectrum"),
                                           (310, "spectrum")])
def test_huge_field_in_rotated_frame_runs_without_warnings(tmp_path, capsys, draw, command):
    # Unscaled, draw 85 overflows B^T H B into an Infinity reconstruction
    # residual, and 185 and 310 overflow g^-1 * A in the radiation check.
    metric, field = rotated_draw(draw)
    config = write_config(tmp_path, {"n": 4, "metric": metric.tolist(),
                                     "field": field.tolist()})
    code, captured = run_without_warnings([command, "--config", config], capsys)
    assert (code, captured.err) == (0, "")
    doc = strict_json(captured.out)
    if command == "decompose":
        assert doc["reconstruction_residual"] <= 1e-12


def test_emit_renders_numpy_values_and_refuses_non_finite(capsys):
    basis = np.array([[0.1, 1e300], [-0.0, 5e-324]])
    cli._emit({"basis": basis, "scale": basis[0, 1], "count": np.int64(2),
               "definite": np.bool_(True)}, None)
    assert capsys.readouterr().out == json.dumps(
        {"basis": basis.tolist(), "scale": 1e300, "count": 2, "definite": True},
        indent=2, sort_keys=True) + "\n"
    for value in (np.inf, np.nan):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._emit({"energy": np.array([1.0, value])}, None)
    assert capsys.readouterr().out == ""


def test_render_writes_the_bytes_of_json_dumps(rng):
    # Numbers in bulk, mixed lists, tuples, empty containers, numpy scalars
    # (np.float64 is a float, np.int64 and np.bool_ are not), escaped keys.
    document = {"basis": rng.standard_normal((40, 40)), "ints": np.arange(-3, 4),
                "mixed": [1, 2.5, True, None, "é", np.float64(0.1), [], {}, (1, [2.0])],
                "nested": {"z": [[1.0, -0.0], [5e-324, 1e300]], "a\n": {"b": ()}},
                "scalars": [np.int64(7), np.bool_(False), np.float32(0.5)], "empty": np.zeros(0)}
    assert cli._render(document) == json.dumps(document, indent=2, sort_keys=True,
                                               default=lambda value: value.tolist()) + "\n"
    refused = [({"rows": [[1.0, 2.0, 3.0], [4, 5, value]], "x": 1.0}, "rows[1][2]", value)
               for value in (float("inf"), float("-inf"), float("nan"))] + [
        ({"x": float("nan"), "y": [1.0]}, "x", float("nan")),
        ({"blocks": [{"center": [0.0, 1.0], "strength": np.float64("inf")}]},
         "blocks[0].strength", float("inf")),
        ({"basis": np.array([[1.0, 2.0], [3.0, -np.inf]])}, "basis[1][1]", float("-inf")),
        # json writes "a" before "b", so the later-written key is the one named.
        ({"b": [float("inf")], "a": {"c": float("nan")}}, "a.c", float("nan")),
    ]
    for document, path, value in refused:
        with pytest.raises(ValueError) as refusal:
            cli._render(document)
        assert str(refusal.value) == (f"the document entry {path} is not finite: Out of range "
                                      f"float values are not JSON compliant: {value!r}")


def json_documents(keys, floats):
    """Dicts of json's types, numpy scalars and small numpy arrays, nested."""
    arrays = st.one_of(
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3),
                   elements=floats),
        hnp.arrays(np.int64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3)),
        hnp.arrays(np.bool_, hnp.array_shapes(max_dims=1, max_side=3)))
    leaves = st.one_of(
        st.none(), st.booleans(), st.text(max_size=3),
        # Ints within and past 64 bits, and past the float range.
        st.integers(), st.integers(-2**70, 2**70), st.integers(2**1030, 2**1100),
        floats, st.sampled_from([0.0, -0.0, 5e-324, -2.5e-320, 1e308, -1e308]),
        floats.map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
        st.booleans().map(np.bool_), arrays)
    entries = st.recursive(
        leaves, lambda children: st.one_of(
            st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
            st.dictionaries(keys, children, max_size=4)),
        max_leaves=20)
    return st.dictionaries(keys, entries, max_size=4)


def entry_at(document, path):
    # The entry named by a key path such as blocks[0].center[1].
    for key, index in re.findall(r"\.?([^.\[\]]+)|\[(\d+)\]", path):
        document = document[key] if key else document[int(index)]
    return document


# A failing example makes hypothesis import libcst, whose own deprecation
# warning would otherwise turn the report into a pytest internal error.
@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict:DeprecationWarning")
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(document=json_documents(st.text(max_size=3),
                               st.floats(allow_nan=False, allow_infinity=False)))
def test_render_of_finite_documents_is_json_dumps(document):
    assert cli._render(document) == json.dumps(document, indent=2, sort_keys=True,
                                               default=lambda value: value.tolist()) + "\n"


@pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict:DeprecationWarning")
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(document=json_documents(st.text("ab", min_size=1, max_size=2),
                               st.floats() | st.sampled_from([math.inf, -math.inf, math.nan])))
def test_render_names_a_non_finite_entry(document):
    try:
        expected = json.dumps(document, indent=2, sort_keys=True, allow_nan=False,
                              default=lambda value: value.tolist())
    except ValueError:
        with pytest.raises(ValueError) as refusal:
            cli._render(document)
        path = re.fullmatch(r"the document entry (.*) is not finite: Out of range float "
                            r"values are not JSON compliant: .*", str(refusal.value))[1]
        entry = entry_at(document, path)
        if isinstance(entry, (np.ndarray, np.generic)):
            entry = entry.tolist()
        assert type(entry) is float and not math.isfinite(entry)
    else:
        assert cli._render(document) == expected + "\n"


class TestRobustnessProperties:
    """Huge fields in rotated definite frames: the blocks, or one named refusal."""

    # A failing example makes hypothesis import libcst, whose own deprecation
    # warning would otherwise turn the report into a pytest internal error.
    @pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict:DeprecationWarning")
    # The field exponents come largest first, since hypothesis favours the
    # leading entries and the frames that overflow are near the float limit.
    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6),
           log_metric=st.lists(st.integers(-3, 3), min_size=6, max_size=6),
           sign=st.sampled_from([1.0, -1.0]),
           log_field=st.sampled_from(range(307, 295, -1)))
    def test_blocks_or_one_error_line(self, tmp_path, capsys, seed, n, log_metric, sign,
                                      log_field):
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = rng.standard_normal((n, n))
        h = (a - a.T) / np.abs(a - a.T).max() * 10.0 ** log_field
        g = (q * (sign * 10.0 ** np.array(log_metric[:n], dtype=float))) @ q.T
        metric = (g + g.T) / 2.0
        config = write_config(tmp_path, {"n": n, "metric": metric.tolist(),
                                         "field": h.tolist()})
        # Oracle: the field scaled by a power of two, so that nothing
        # overflows, whitened by the frame's inverse root and taken through a
        # general eigensolver.  Its norm scaled back decides whether the field
        # may be refused.
        e, v = np.linalg.eigh(sign * metric)
        exponent = math.frexp(np.abs(h).max())[1]
        white = (v / np.sqrt(e)) @ v.T @ np.ldexp(h, -exponent) @ ((v / np.sqrt(e)) @ v.T)
        norm = np.linalg.norm(white)
        in_range = math.log2(norm) + exponent < 1024
        blocks = int((np.linalg.eigvals(white).imag > 1e-10 * norm).sum())
        for command in ("decompose", "spectrum"):
            code, captured = run_without_warnings([command, "--config", config], capsys)
            if code == 0:
                assert in_range
                assert captured.err == ""
                assert strict_json(captured.out)["num_blocks"] == blocks
            else:
                assert (code, captured.out) == (2, "")
                assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
                # Only spectrum may refuse a field in range: a level energy overflows.
                assert (captured.err == WHITENED_ERROR) == (not in_range)
                assert command == "spectrum" or not in_range

    # As above for the libcst warning of a failing example.
    @pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict:DeprecationWarning")
    @settings(max_examples=60, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4),
           metric=st.sampled_from(["euclidean", "minkowski", "rotated"]),
           log_metric=st.lists(st.integers(-3, 3), min_size=4, max_size=4),
           sign=st.sampled_from([1.0, -1.0]), log_field=st.integers(-300, 300),
           log_q=st.integers(-30, 30), log_x=st.integers(0, 160),
           log_p=st.integers(-100, 150), log_dt=st.integers(-3, 3),
           fmt=st.sampled_from(cli.OUTPUT_FORMATS))
    def test_simulate_reports_finite_values_or_one_error_line(
            self, tmp_path, capsys, seed, n, metric, log_metric, sign, log_field, log_q, log_x,
            log_p, log_dt, fmt):
        # Extreme scales: the run writes finite values only, to both the file
        # and the report, or it refuses with one line before the file opens.
        rng = np.random.default_rng(seed)
        if metric == "rotated":
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            g = (q * (sign * 10.0 ** np.array(log_metric[:n], dtype=float))) @ q.T
            metric = ((g + g.T) / 2.0).tolist()
        a = rng.standard_normal((n, n))
        x, p = rng.standard_normal(n), rng.standard_normal(n)
        data = {"n": n, "metric": metric,
                "field": ((a - a.T) / np.abs(a - a.T).max() * 10.0 ** log_field).tolist(),
                "particle": {"q": float(rng.choice([-1.0, 1.0]) * 10.0 ** log_q)},
                "initial": {"x": (x / np.abs(x).max() * 10.0 ** log_x).tolist(),
                            "p": (p / np.abs(p).max() * 10.0 ** log_p).tolist()}}
        for method in ("exact", "rk4"):
            config = write_config(tmp_path, {**data, "integration": {
                "dt": 10.0 ** log_dt, "steps": 20, "method": method}})
            out = tmp_path / "traj.out"
            out.unlink(missing_ok=True)  # tmp_path is shared by the examples
            code, captured = run_without_warnings(
                ["simulate", "--config", config, "--out", str(out), "--format", fmt], capsys)
            if code == 2:
                assert captured.out == "" and not out.exists()
                assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
                continue
            assert code in (0, 1)
            strict_json(captured.out)
            if fmt == "csv":
                assert np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1)).all()
            else:
                strict_json(out.read_text())


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
calls = json.loads(sys.argv[1])
codes = [main(args) for args in calls]
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy"
                or name == "numpy.ma" or name.startswith("numpy.ma.") or name == "dataclasses")
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_no_command_loads_scipy(tmp_path):
    # One fresh interpreter runs every command on uniform3d, exact and RK4,
    # and the indefinite exact orbit of minkowski4d, through main: none of
    # them loads scipy, numpy.ma or dataclasses (no value class generates code).
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
             ["simulate", "--config", rk4, "--out", str(tmp_path / "rk4.csv")],
             ["simulate", "--config", str(minkowski), "--out", str(tmp_path / "minkowski.csv")]]
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, json.dumps(calls)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0] * 6, "loaded": []}
    assert (tmp_path / "minkowski.csv").stat().st_size > 0


MODES_PROBE = """
import json, sys
from ncyclo.cli import main
loaded = []
for args in json.loads(sys.argv[1]):
    assert main(args) == 0, args
    loaded.append("ncyclo.modes" in sys.modules)
print(json.dumps(loaded))
"""


def test_only_the_exact_flow_loads_modes(tmp_path):
    # ncyclo.modes is imported where the exact flow runs, as the writers
    # import digits: a fresh interpreter that runs decompose, spectrum,
    # verify and an RK4 simulate on uniform3d never compiles it, and the
    # exact simulate run after them does.
    import subprocess
    import sys
    uniform = next(path for path in SAMPLE_CONFIGS if path.stem == "uniform3d")
    data = json.loads(uniform.read_text())
    data["integration"]["method"] = "rk4"
    rk4 = write_config(tmp_path, data)
    calls = [["decompose", "--config", str(uniform)], ["spectrum", "--config", str(uniform)],
             ["verify", "--config", str(uniform)],
             ["simulate", "--config", rk4, "--out", str(tmp_path / "rk4.csv")],
             ["simulate", "--config", str(uniform), "--out", str(tmp_path / "exact.csv")]]
    proc = subprocess.run([sys.executable, "-c", MODES_PROBE, json.dumps(calls)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [False] * 4 + [True]


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
