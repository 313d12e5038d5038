"""Acceptance checks for the whole pipeline.

One test per criterion; each prints its own pass/fail line, so running
``pytest tests/test_acceptance.py -s`` doubles as a human-readable report.
"""

import numpy as np
import pytest

from ncyclo import (
    FieldTensor,
    GaugeMatrix,
    MetricTensor,
    ParticleState,
    PhysicalConstants,
    canonical_momentum,
    canonical_tensor,
    classify_spectrum,
    commutator,
    cyclotron_frequencies,
    decompose,
    dual_momentum,
    dual_momentum_value,
    dynamics_matrix,
    evolve_exact_trajectory,
    evolve_rk4,
    field_from_3d_vector,
    field_from_gauge,
    gauge_antisymmetric,
    gauge_triangular,
    orbit_decomposition,
    to_canonical,
    translation_phase,
)


def check(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def random_antisymmetric(rng, n):
    m = rng.standard_normal((n, n))
    return m - m.T


def test_criterion_1_decomposition_round_trip():
    rng = np.random.default_rng(1)
    worst_recon, worst_ortho, worst_eig = 0.0, 0.0, 0.0
    total = 0
    sizes = list(range(2, 9))
    per_size = [143] * 6 + [142]  # 1000 matrices across n = 2..8
    for n, reps in zip(sizes, per_size):
        for _ in range(reps):
            m = random_antisymmetric(rng, n)
            h = FieldTensor(m)
            form = decompose(h)
            b = form.basis
            theta = canonical_tensor(form)
            worst_recon = max(worst_recon,
                              np.linalg.norm(b @ theta @ b.T - m) / np.linalg.norm(m))
            worst_ortho = max(worst_ortho, np.linalg.norm(b.T @ b - np.eye(n)))
            imag = np.linalg.eigvals(m).imag
            oracle = np.sort(imag[imag > 1e-10 * max(1.0, np.linalg.norm(m))])[::-1]
            if len(oracle) == form.num_blocks:
                gap = np.abs(form.strengths - oracle).max() if len(oracle) else 0.0
                worst_eig = max(worst_eig, float(gap))
            else:
                worst_eig = np.inf
            total += 1
    check("criterion 1: decomposition round trip on 1000 random tensors",
          total == 1000 and worst_recon <= 1e-10 and worst_ortho <= 1e-10
          and worst_eig <= 1e-8,
          f"recon {worst_recon:.2e}, ortho {worst_ortho:.2e}, eig {worst_eig:.2e}")


def test_criterion_2_commutator_identities():
    rng = np.random.default_rng(2)
    constants = PhysicalConstants(mass=1.0, charge=3.0, light_speed=1.5, hbar=0.5)
    factor = 1j * constants.hbar * constants.coupling
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 6))
        gauge = GaugeMatrix(rng.standard_normal((n, n)))
        h = field_from_gauge(gauge)
        kin = [canonical_momentum(gauge, constants, j) for j in range(n)]
        dual = [dual_momentum(gauge, constants, j) for j in range(n)]
        for j in range(n):
            for k in range(n):
                worst = max(worst,
                            abs(commutator(kin[j], kin[k]) - factor * h.matrix[j, k]),
                            abs(commutator(dual[j], dual[k]) + factor * h.matrix[j, k]),
                            abs(commutator(kin[j], dual[k])))
    exact_worst = 0.0
    unit = PhysicalConstants()
    for _ in range(10):
        gauge = GaugeMatrix(rng.integers(-4, 5, size=(3, 3)).astype(float))
        h = field_from_gauge(gauge)
        kin = [canonical_momentum(gauge, unit, j) for j in range(3)]
        dual = [dual_momentum(gauge, unit, j) for j in range(3)]
        for j in range(3):
            for k in range(3):
                exact_worst = max(exact_worst,
                                  abs(commutator(kin[j], kin[k]) - 1j * h.matrix[j, k]),
                                  abs(commutator(dual[j], dual[k]) + 1j * h.matrix[j, k]),
                                  abs(commutator(kin[j], dual[k])))
    check("criterion 2: commutator identities on 100 random gauges",
          worst <= 1e-12 and exact_worst == 0.0,
          f"float worst {worst:.2e}, small-integer worst {exact_worst:.1e}")


def test_criterion_3_conservation_over_long_trajectories():
    rng = np.random.default_rng(3)
    n = 4
    h = FieldTensor(random_antisymmetric(rng, n))
    metric = MetricTensor.euclidean(n)
    constants = PhysicalConstants()
    k = dynamics_matrix(h, metric, constants)
    form = decompose(h)
    state = ParticleState(rng.standard_normal(n), rng.standard_normal(n))
    reference_dual = dual_momentum_value(state, h, constants)
    scale = max(1.0, float(np.abs(reference_dual).max()))
    reference_centers = orbit_decomposition(state, form, h, constants).centers

    worst_dual, worst_center = 0.0, 0.0
    steps = 10_000
    for integrate in (
        lambda: evolve_exact_trajectory(state, k, metric, constants, 0.01, steps),
        lambda: evolve_rk4(state, k, metric, constants, 0.01, steps),
    ):
        trajectory = integrate()
        duals = np.array([dual_momentum_value(s, h, constants) for s in trajectory])
        worst_dual = max(worst_dual, float(np.abs(duals - reference_dual).max()) / scale)
        for sample in (trajectory[i] for i in range(0, len(trajectory), 500)):
            centers = orbit_decomposition(sample, form, h, constants).centers
            worst_center = max(worst_center,
                               float(np.abs(centers - reference_centers).max()) / scale)
    check("criterion 3: dual momentum and centers constant over 1e4 steps",
          worst_dual <= 1e-10 and worst_center <= 1e-10,
          f"dual drift {worst_dual:.2e}, center drift {worst_center:.2e}")


def test_criterion_4_textbook_3d_reduction():
    b0 = 1.7
    constants = PhysicalConstants(mass=1.5, charge=-2.0, light_speed=2.0)
    expected_omega = abs(constants.charge) * b0 / (constants.mass * constants.light_speed)
    h = field_from_3d_vector([0.0, 0.0, b0])
    metric = MetricTensor.euclidean(3)
    k = dynamics_matrix(h, metric, constants)
    form = decompose(h)
    state = ParticleState([0.0, 0.0, 0.0], [1.0, 0.0, 0.75])
    period = 2.0 * np.pi / expected_omega
    samples = evolve_exact_trajectory(state, k, metric, constants, period / 512, 512)

    rel = np.array([orbit_decomposition(s, form, h, constants).relatives[0]
                    for s in samples])
    angles = np.unwrap(np.arctan2(rel[:, 1], rel[:, 0]))
    measured = abs(np.polyfit([s.time for s in samples], angles, 1)[0])

    axis_positions = np.array([s.position[2] for s in samples])
    axis_expected = state.position[2] + np.array([s.time for s in samples]) \
        * state.momentum[2] / constants.mass
    axis_uniform = float(np.abs(axis_positions - axis_expected).max())

    spectrum_omega = cyclotron_frequencies(form, constants)
    check("criterion 4: 3-D reduction to the textbook cyclotron frequency",
          abs(measured - expected_omega) / expected_omega <= 1e-8
          and axis_uniform <= 1e-10
          and len(spectrum_omega) == 1
          and abs(spectrum_omega[0] - expected_omega) <= 1e-12,
          f"measured {measured:.12f}, expected {expected_omega:.12f}, "
          f"axis drift {axis_uniform:.2e}")


def test_criterion_5_rk4_fourth_order_convergence():
    h = FieldTensor([[0.0, 1.0], [-1.0, 0.0]])
    metric = MetricTensor.euclidean(2)
    constants = PhysicalConstants()
    k = dynamics_matrix(h, metric, constants)
    state = ParticleState([0.0, 0.0], [1.0, 0.0])
    period = 2.0 * np.pi
    exact = evolve_exact_trajectory(state, k, metric, constants, period, 1)[-1]
    errors = []
    for steps in (128, 256):
        end = evolve_rk4(state, k, metric, constants, period / steps, steps)[-1]
        errors.append(float(np.linalg.norm(end.position - exact.position)))
    ratio = errors[0] / errors[1]
    check("criterion 5: RK4 endpoint error shows fourth-order convergence",
          16.0 * 0.8 <= ratio <= 16.0 * 1.2,
          f"errors {errors[0]:.3e} -> {errors[1]:.3e}, ratio {ratio:.2f}")


def test_criterion_6_block_identities_on_random_states():
    rng = np.random.default_rng(6)
    constants = PhysicalConstants(charge=-0.8, light_speed=1.25)
    metric_constants = PhysicalConstants()
    worst_block_eq, worst_split, worst_energy = 0.0, 0.0, 0.0
    for n in (2, 4, 5, 6):
        h = FieldTensor(random_antisymmetric(rng, n))
        form = decompose(h)
        theta = canonical_tensor(form)
        metric = MetricTensor.euclidean(n)
        for _ in range(25):
            state = ParticleState(rng.standard_normal(n), rng.standard_normal(n))
            coords = to_canonical(form, state, h, constants)
            gap = theta @ coords.position - (coords.momentum - coords.dual_momentum)
            worst_block_eq = max(worst_block_eq, float(np.abs(gap).max()))
            split = orbit_decomposition(state, form, h, constants)
            for l in range(form.num_blocks):
                pair = coords.position[2 * l: 2 * l + 2]
                worst_split = max(worst_split, float(np.abs(
                    split.centers[l] + split.relatives[l] - pair).max()))
            unit_split = orbit_decomposition(state, form, h, metric_constants)
            total = unit_split.block_energies.sum() + unit_split.free_energy
            kinetic = float(state.momentum @ metric.inverse @ state.momentum) / 2.0
            worst_energy = max(worst_energy, abs(total - kinetic))
    check("criterion 6: block equations, center/relative split, energy split",
          worst_block_eq <= 1e-10 and worst_split <= 1e-10 and worst_energy <= 1e-12,
          f"block eq {worst_block_eq:.2e}, split {worst_split:.2e}, "
          f"energy {worst_energy:.2e}")


def test_criterion_7_spectrum_classification():
    planar = classify_spectrum(decompose(FieldTensor([[0.0, 1.0], [-1.0, 0.0]])))
    generic_3d = classify_spectrum(decompose(field_from_3d_vector([0.4, -1.1, 0.7])))
    m = np.zeros((4, 4))
    m[0, 1], m[1, 0] = 2.0, -2.0
    m[2, 3], m[3, 2] = 1.0, -1.0
    two_block = classify_spectrum(decompose(FieldTensor(m)))
    check("criterion 7: discreteness classification for n = 2, 3, 4",
          planar.fully_discrete is True
          and generic_3d.fully_discrete is False and generic_3d.free_count == 1
          and two_block.fully_discrete is True and two_block.num_blocks == 2)


def test_criterion_8_gauge_invariance_end_to_end():
    rng = np.random.default_rng(8)
    constants = PhysicalConstants(charge=1.5, light_speed=0.75, hbar=2.0)
    m = random_antisymmetric(rng, 4)
    base = FieldTensor(m)
    gauges = (gauge_antisymmetric(base), gauge_triangular(base))
    fields = [field_from_gauge(g) for g in gauges]
    same_field = bool(np.array_equal(fields[0].matrix, fields[1].matrix))

    tables = []
    for gauge in gauges:
        kin = [canonical_momentum(gauge, constants, j) for j in range(4)]
        dual = [dual_momentum(gauge, constants, j) for j in range(4)]
        tables.append(np.array(
            [[[commutator(kin[j], kin[k]), commutator(dual[j], dual[k]),
               commutator(kin[j], dual[k])] for k in range(4)] for j in range(4)]))
    table_gap = float(np.abs(tables[0] - tables[1]).max())

    metric = MetricTensor.euclidean(4)
    state = ParticleState(rng.standard_normal(4), rng.standard_normal(4))
    trajectories = []
    for field in fields:
        k = dynamics_matrix(field, metric, constants)
        trajectories.append(evolve_exact_trajectory(state, k, metric, constants, 0.05, 200))
    trajectory_gap = max(
        float(np.abs(a.position - b.position).max())
        + float(np.abs(a.momentum - b.momentum).max())
        for a, b in zip(*trajectories))

    spectra = [cyclotron_frequencies(decompose(field), constants) for field in fields]
    spectrum_gap = float(np.abs(spectra[0] - spectra[1]).max())

    check("criterion 8: gauge choice leaves field, commutators, motion, spectra unchanged",
          same_field and table_gap <= 1e-12 and trajectory_gap <= 1e-12
          and spectrum_gap <= 1e-12,
          f"tables {table_gap:.1e}, trajectories {trajectory_gap:.1e}, "
          f"spectra {spectrum_gap:.1e}")


def test_criterion_9_translation_phase_cocycle():
    rng = np.random.default_rng(9)
    h = FieldTensor(random_antisymmetric(rng, 4))
    constants = PhysicalConstants(charge=-1.5, hbar=0.5, light_speed=2.0)
    worst_antisym, worst_cocycle = 0.0, 0.0
    for _ in range(1000):
        x, y, z = (rng.standard_normal(4) for _ in range(3))
        worst_antisym = max(worst_antisym, abs(
            translation_phase(x, y, h, constants) + translation_phase(y, x, h, constants)))
        lhs = translation_phase(x, y, h, constants) \
            + translation_phase(x + y, z, h, constants)
        rhs = translation_phase(y, z, h, constants) \
            + translation_phase(x, y + z, h, constants)
        worst_cocycle = max(worst_cocycle, abs(lhs - rhs))
    check("criterion 9: translation phase antisymmetry and cocycle identity",
          worst_antisym <= 1e-12 and worst_cocycle <= 1e-12,
          f"antisymmetry {worst_antisym:.2e}, cocycle {worst_cocycle:.2e}")
