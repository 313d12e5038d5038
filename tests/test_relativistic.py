"""Textbook relativistic orbits as oracles of the indefinite exact path.

With a Minkowski metric, ``p' = (q/mc) H g^-1 p`` and ``x' = g^-1 p / m`` are
the covariant Lorentz force ``m du/dtau = (q/c) F u`` in proper time ``tau``,
and ``E_total = g^-1(p, p) / 2m`` is the mass shell, ``-mc^2/2``.  Landau and
Lifshitz, *The Classical Theory of Fields*, gives the orbits in a pure
electric field (section 20), in a pure magnetic field (section 21) and the
drift in crossed fields (section 22) in closed form, owing nothing to the
decomposition or to ``expm``.
"""

import json

import numpy as np
import pytest

from ncyclo.cli import main

M, Q, C, E = 1.3, 1.1, 2.0, 0.7


@pytest.fixture
def hyperbolic_motion(tmp_path, capsys):
    """Report and trajectory columns of a 1+1 D orbit in a pure electric field, at rest at 0."""
    config = tmp_path / "electric.json"
    config.write_text(json.dumps({
        "n": 2, "metric": "minkowski", "field": [[0.0, E], [-E, 0.0]],
        "particle": {"m": M, "q": Q, "c": C},
        "initial": {"x": [0.0, 0.0], "p": [0.0, -M * C]},
        "integration": {"dt": 0.01, "steps": 2000, "method": "exact"}}))
    out = tmp_path / "electric.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    report = json.loads(capsys.readouterr().out)
    return report, np.loadtxt(out, delimiter=",", skiprows=1)


def test_pure_electric_field_is_hyperbolic_motion(hyperbolic_motion):
    # x1 = (mc^2/qE)(cosh(qE tau/mc) - 1) and the time-like x2 = ct =
    # (mc^2/qE) sinh(qE tau/mc), with tau the CSV's t.
    _, rows = hyperbolic_motion
    tau, x, p, energy = rows[:, 0], rows[:, 1:3], rows[:, 3:5], rows[:, 7]
    length, rate = M * C**2 / (Q * E), Q * E / (M * C)
    expected = length * np.column_stack([np.cosh(rate * tau) - 1.0, np.sinh(rate * tau)])
    assert np.abs(x - expected).max() <= 1e-13 * np.abs(x).max()
    mass_shell = np.abs(energy + M * C**2 / 2.0).max()
    assert mass_shell <= 1e-13 * np.square(p).sum(axis=1).max() / (2.0 * M)


def test_pure_magnetic_field_is_a_helix(tmp_path):
    # Section 21: in 3+1 D with H[0, 1] = B the velocity across B turns at
    # qB/(mc) per proper time tau, the CSV's t, so at omega = qB/(m c gamma)
    # per coordinate time t = gamma tau, on a circle of radius v_perp/omega,
    # while x3 = u3 tau and x4 = ct = gamma c tau.
    b = 0.7
    velocity = np.array([0.6, 0.2, 0.3]) * C
    gamma = 1.0 / np.sqrt(1.0 - velocity @ velocity / C**2)
    field = np.zeros((4, 4))
    field[0, 1], field[1, 0] = b, -b
    config = tmp_path / "magnetic.json"
    config.write_text(json.dumps({
        "n": 4, "metric": "minkowski", "field": field.tolist(),
        "particle": {"m": M, "q": Q, "c": C},
        "initial": {"x": [0.0] * 4, "p": [*(M * gamma * velocity), -M * gamma * C]},
        "integration": {"dt": 0.01, "steps": 2000, "method": "exact"}}))
    out = tmp_path / "magnetic.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    tau, x, p, energy = rows[:, 0], rows[:, 1:5], rows[:, 5:9], rows[:, 13]
    omega, time = Q * b / (M * C * gamma), gamma * tau
    vx, vy = velocity[:2]
    expected = np.column_stack([
        (vx * np.sin(omega * time) + vy * (1.0 - np.cos(omega * time))) / omega,
        (vy * np.sin(omega * time) - vx * (1.0 - np.cos(omega * time))) / omega,
        gamma * velocity[2] * tau,
        C * time,
    ])
    assert np.abs(x - expected).max() <= 1e-13 * np.abs(x).max()
    mass_shell = np.abs(energy + M * C**2 / 2.0).max()
    assert mass_shell <= 1e-13 * np.square(p).sum(axis=1).max() / (2.0 * M)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a boost is reported as a cyclotron block")
def test_pure_electric_field_has_no_cyclotron_block(hyperbolic_motion):
    report, _ = hyperbolic_motion
    assert report["num_blocks"] == 0


def crossed_fields(tmp_path, e, b, steps=7000):
    """Section 22's config: E along x1, B along x3, from 0 on the mass shell.

    Returns the config's path and the proper-time rate
    ``|q| sqrt(|B^2 - E^2|) / mc``: the frequency of the turn for E < B, the
    growth rate for E > B.  The run takes ``steps`` steps of 2 pi / 1000 over
    it: 7000 cover 7 periods of the turn.
    """
    field = np.zeros((4, 4))
    field[0, 1], field[0, 3] = b, e
    field -= field.T
    momentum = np.array([0.3, -0.2, 0.1]) * M * C
    rate = abs(Q) * np.sqrt(abs(b * b - e * e)) / (M * C)
    config = tmp_path / "crossed.json"
    config.write_text(json.dumps({
        "n": 4, "metric": "minkowski", "field": field.tolist(),
        "particle": {"m": M, "q": Q, "c": C},
        "initial": {"x": [0.0] * 4,
                    "p": [*momentum, -np.sqrt((M * C) ** 2 + momentum @ momentum)]},
        "integration": {"dt": 2.0 * np.pi / (1000.0 * rate), "steps": steps,
                        "method": "exact"}}))
    return config, rate


CROSSED = pytest.mark.parametrize("e, b", [(0.6, 1.0), (0.3, 0.7)])


@CROSSED
def test_crossed_fields_drift_at_e_cross_b_over_b_squared(tmp_path, e, b):
    # Over whole periods of proper time the orbit closes in the frame that
    # drifts at c E x B / B^2, so the mean velocity c dx/dx4 is that drift:
    # 0 along x1 and -cE/B along x2, E x B pointing along -x2.
    config, _ = crossed_fields(tmp_path, e, b)
    out = tmp_path / "crossed.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    x, p, energy = rows[:, 1:5], rows[:, 5:9], rows[:, 13]
    dx = x[-1] - x[0]
    velocity = C * dx[:2] / dx[3]
    assert np.abs(velocity - [0.0, -C * e / b]).max() <= 1e-12 * C
    mass_shell = np.abs(energy + M * C**2 / 2.0).max()
    assert mass_shell <= 1e-13 * np.square(p).sum(axis=1).max() / (2.0 * M)


@CROSSED
@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: spectrum lists the identity-frame "
                                       "strength |q| sqrt(B^2 + E^2) / mc")
def test_crossed_fields_list_one_cyclotron_frequency(tmp_path, capsys, e, b):
    config, frequency = crossed_fields(tmp_path, e, b)
    assert main(["spectrum", "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["frequencies"] == pytest.approx([frequency],
                                                                                rel=1e-12)


RUNAWAY = pytest.mark.parametrize("e, b", [(1.0, 0.5), (0.7, 0.3)])


@RUNAWAY
def test_crossed_fields_with_e_above_b_run_away(tmp_path, e, b):
    # Section 22, E > B: in the frame that moves at c B / E along E x B the
    # field is electric alone, of strength sqrt(E^2 - B^2), and the motion is
    # hyperbolic at kappa = |q| sqrt(E^2 - B^2) / mc per proper time tau, the
    # CSV's t.  Here K = (q/mc) H g^-1 has K^3 = kappa^2 K, so
    # exp(tau K) = I + sinh(kappa tau) K / kappa + (cosh(kappa tau) - 1) K^2 / kappa^2,
    # and |p| grows like exp(kappa tau) at late times: over the last 100
    # steps of 1200 (kappa tau = 7.5) the terms in exp(-kappa tau) and 1 move
    # its rate by 2e-4 of kappa.  A much longer run exceeds simulate's energy
    # tolerance, 1e-8 of the first energy, since the energy rounds like |p|^2.
    config, kappa = crossed_fields(tmp_path, e, b, steps=1200)
    data = json.loads(config.read_text())
    out = tmp_path / "crossed.csv"
    assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    tau, x, p, energy = rows[:, 0], rows[:, 1:5], rows[:, 5:9], rows[:, 13]
    ginv = np.diag([1.0, 1.0, 1.0, -1.0])
    k = Q / (M * C) * np.array(data["field"]) @ ginv
    p0 = np.array(data["initial"]["p"])
    angle = kappa * tau[:, None, None]
    turn = (np.sinh(angle) / kappa * k + (np.cosh(angle) - 1.0) / kappa**2 * (k @ k)) @ p0
    swept = ((np.cosh(angle) - 1.0) / kappa**2 * k
             + (np.sinh(angle) - angle) / kappa**3 * (k @ k)) @ p0
    assert np.abs(p - (p0 + turn)).max() <= 1e-13 * np.abs(p).max()
    assert np.abs(x - (tau[:, None] * p0 + swept) @ ginv / M).max() <= 1e-13 * np.abs(x).max()
    size = np.linalg.norm(p, axis=1)
    growth = np.log(size[-1] / size[-101]) / (tau[-1] - tau[-101])
    assert growth == pytest.approx(kappa, rel=1e-3)
    mass_shell = np.abs(energy + M * C**2 / 2.0).max()
    assert mass_shell <= 1e-13 * np.square(p).sum(axis=1).max() / (2.0 * M)


@RUNAWAY
@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: spectrum lists the identity-frame "
                                       "strength |q| sqrt(B^2 + E^2) / mc where no turn exists")
def test_crossed_fields_with_e_above_b_list_no_frequency(tmp_path, capsys, e, b):
    config, _ = crossed_fields(tmp_path, e, b)
    assert main(["spectrum", "--config", str(config)]) == 0
    assert json.loads(capsys.readouterr().out)["frequencies"] == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4: energy_drift is taken relative to the "
                                       "first energy, while the energy rounds like |p|^2")
def test_exact_runaway_passes_its_checks(tmp_path, capsys):
    # Section 22, E > B, 2000 exact steps to kappa tau = 10: every sample
    # lies within 1e-15 of the scale off the closed form, but the mass shell
    # -mc^2/2 is computed from momenta of order e^10 |p0|, so its roundoff is
    # 2.5e-7 of the first energy and simulate exits 1 on energy_drift.
    e, b = 1.0, 0.5
    config, kappa = crossed_fields(tmp_path, e, b, steps=2000)
    data = json.loads(config.read_text())
    data["integration"]["dt"] = 10.0 / (2000 * kappa)
    config.write_text(json.dumps(data))
    out = tmp_path / "runaway.csv"
    code = main(["simulate", "--config", str(config), "--out", str(out)])
    rows = np.loadtxt(out, delimiter=",", skiprows=1)
    tau, p = rows[:, 0], rows[:, 5:9]
    k = Q / (M * C) * np.array(data["field"]) @ np.diag([1.0, 1.0, 1.0, -1.0])
    p0 = np.array(data["initial"]["p"])
    angle = kappa * tau[:, None, None]
    turn = (np.sinh(angle) / kappa * k + (np.cosh(angle) - 1.0) / kappa**2 * (k @ k)) @ p0
    assert kappa * tau[-1] == pytest.approx(10.0, rel=1e-12)
    assert np.abs(p - (p0 + turn)).max() <= 1e-15 * np.abs(p).max()
    report = json.loads(capsys.readouterr().out)
    assert (code, report["failed_invariants"]) == (0, [])
