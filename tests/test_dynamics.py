import io
import json
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncyclo import dynamics, modes
from ncyclo import (
    CanonicalForm,
    FieldTensor,
    MetricTensor,
    ParticleState,
    PhysicalConstants,
    Trajectory,
    canonical_tensor,
    decompose,
    dual_momentum_value,
    dynamics_matrix,
    evolve_exact_trajectory,
    evolve_rk4,
    field_from_3d_vector,
    kinetic_energy,
    orbit_decomposition,
    to_canonical,
    trajectory_table,
    write_trajectory_csv,
    write_trajectory_structured,
)
from ncyclo.config import RunConfig
from conftest import (
    assert_no_child_left,
    fail_in_forked_children,
    random_antisymmetric,
    random_orthogonal,
    random_spd,
)
from oracle import van_loan_final

EUCLID2 = MetricTensor.euclidean(2)
UNIT = PhysicalConstants()


def unit_circle_setup(b_field=1.0):
    h = FieldTensor([[0.0, b_field], [-b_field, 0.0]])
    k = dynamics_matrix(h, EUCLID2, UNIT)
    state = ParticleState([0.0, 0.0], [1.0, 0.0])
    return h, k, state


class TestDynamicsMatrix:
    def test_planar_unit_metric(self):
        h = FieldTensor([[0.0, 2.0], [-2.0, 0.0]])
        k = dynamics_matrix(h, EUCLID2, UNIT)
        np.testing.assert_array_equal(k, [[0.0, 2.0], [-2.0, 0.0]])

    def test_zero_field_free_particle(self):
        k = dynamics_matrix(FieldTensor(np.zeros((3, 3))), MetricTensor.euclidean(3), UNIT)
        assert np.all(k == 0.0)

    def test_indefinite_metric_is_symmetric_generator(self):
        # H scaled by diag(1, -1) flips one column: hyperbolic motion
        h = FieldTensor([[0.0, 2.0], [-2.0, 0.0]])
        metric = MetricTensor(np.diag([1.0, -1.0]))
        k = dynamics_matrix(h, metric, UNIT)
        np.testing.assert_array_equal(k, [[0.0, -2.0], [-2.0, 0.0]])

    def test_constants_scaling(self):
        h = FieldTensor([[0.0, 1.0], [-1.0, 0.0]])
        constants = PhysicalConstants(mass=2.0, charge=3.0, light_speed=0.5)
        k = dynamics_matrix(h, EUCLID2, constants)
        np.testing.assert_allclose(k, (3.0 / (2.0 * 0.5)) * h.matrix)

    def test_paired_eigenvalues_any_metric(self, rng):
        h = FieldTensor(random_antisymmetric(rng, 4))
        metric = MetricTensor(np.diag([1.0, 1.0, -1.0, 1.0]))
        eigvals = np.linalg.eigvals(dynamics_matrix(h, metric, UNIT))
        for lam in eigvals:  # the spectrum is symmetric under negation
            assert np.abs(eigvals + lam).min() < 1e-10

    def test_eigenvalues_match_decomposition(self, rng):
        h = FieldTensor(random_antisymmetric(rng, 5))
        constants = PhysicalConstants(mass=1.7, charge=0.9, light_speed=1.3)
        k = dynamics_matrix(h, MetricTensor.euclidean(5), constants)
        factor = constants.charge / (constants.mass * constants.light_speed)
        strengths = decompose(h).strengths
        expected = np.sort(np.concatenate(
            [factor * strengths, -factor * strengths, np.zeros(5 - 2 * len(strengths))]))
        np.testing.assert_allclose(np.sort(np.linalg.eigvals(k).imag),
                                   expected, atol=1e-8)


class TestTrajectory:
    def test_sequence_access(self):
        h, k, state = unit_circle_setup()
        trajectory = evolve_exact_trajectory(state, k, EUCLID2, UNIT, 0.25, 8)
        assert len(trajectory) == 9
        third = trajectory[3]
        assert isinstance(third, ParticleState) and third.time == 0.75
        np.testing.assert_array_equal(third.position, trajectory.position[3])
        assert trajectory[np.int64(-1)].time == 2.0
        evens = trajectory[::2]
        assert isinstance(evens, Trajectory)
        np.testing.assert_array_equal(evens.time, [0.0, 0.5, 1.0, 1.5, 2.0])
        np.testing.assert_array_equal(trajectory[[0, 8]].momentum,
                                      trajectory.momentum[[0, 8]])
        assert [st.time for st in trajectory] == list(trajectory.time)

    def test_arrays_are_read_only(self):
        h, k, state = unit_circle_setup()
        trajectory = evolve_rk4(state, k, EUCLID2, UNIT, 0.1, 3)
        for arr in (trajectory.time, trajectory.position, trajectory.momentum):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_names_first_non_finite_sample(self):
        position = np.zeros((5, 2))
        position[3, 1] = np.inf
        position[4] = np.nan
        with pytest.raises(ValueError, match=r"step 3 \(t = 1\.5\)"):
            Trajectory(0.5 * np.arange(5), position, np.zeros((5, 2)))

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="shapes"):
            Trajectory(np.arange(3.0), np.zeros((3, 2)), np.zeros((2, 2)))

    def test_table_check_names_the_first_overflowing_entry(self):
        # The samples are finite, but from step 3 on p - (q/c) H x = (0, 1e310):
        # the check names pT2 there, with no warning.
        h = FieldTensor([[0.0, 1e300], [-1e300, 0.0]])
        position = np.zeros((5, 2))
        position[3:, 0] = 1e10
        trajectory = Trajectory(0.5 * np.arange(5), position, np.zeros((5, 2)))
        trajectory_table(trajectory[:3], h, EUCLID2, UNIT)
        with pytest.raises(ValueError) as exc:
            trajectory_table(trajectory, h, EUCLID2, UNIT)
        assert str(exc.value) == ("the trajectory column pT2 leaves the floating-point range "
                                  "at step 3 (t = 1.5)")


class TestEvolveExact:
    def test_free_flight(self):
        metric = MetricTensor(np.diag([1.0, 4.0]))
        k = dynamics_matrix(FieldTensor(np.zeros((2, 2))), metric, UNIT)
        state = ParticleState([1.0, 2.0], [3.0, 4.0])
        out = evolve_exact_trajectory(state, k, metric, UNIT, 0.5, 1)[-1]
        np.testing.assert_allclose(out.position, state.position
                                   + 0.5 * metric.inverse @ state.momentum)
        np.testing.assert_array_equal(out.momentum, state.momentum)
        assert out.time == 0.5

    def test_circular_orbit_closes_after_one_period(self):
        h, k, state = unit_circle_setup()
        out = evolve_exact_trajectory(state, k, EUCLID2, UNIT, 2.0 * np.pi, 1)[-1]
        np.testing.assert_allclose(out.position, state.position, atol=1e-12)
        np.testing.assert_allclose(out.momentum, state.momentum, atol=1e-12)

    def test_matches_rk4_reference(self):
        h, k, state = unit_circle_setup()
        period = 2.0 * np.pi
        exact = evolve_exact_trajectory(state, k, EUCLID2, UNIT, period, 1)[-1]
        reference = evolve_rk4(state, k, EUCLID2, UNIT, period / 8192, 8192)[-1]
        np.testing.assert_allclose(exact.position, reference.position, atol=1e-10)
        np.testing.assert_allclose(exact.momentum, reference.momentum, atol=1e-10)

    def test_dual_momentum_conserved_stepwise(self, rng):
        h = FieldTensor(random_antisymmetric(rng, 4))
        metric = MetricTensor.euclidean(4)
        k = dynamics_matrix(h, metric, UNIT)
        state = ParticleState(rng.standard_normal(4), rng.standard_normal(4))
        before = dual_momentum_value(state, h, UNIT)
        for _ in range(50):
            state = evolve_exact_trajectory(state, k, metric, UNIT, 0.17, 1)[-1]
            np.testing.assert_allclose(dual_momentum_value(state, h, UNIT), before, atol=1e-12)

    def test_trajectory_matches_repeated_single_steps(self):
        h, k, state = unit_circle_setup()
        trajectory = evolve_exact_trajectory(state, k, EUCLID2, UNIT, 0.3, 5)
        assert len(trajectory) == 6
        stepped = state
        for sample in trajectory[1:]:
            stepped = evolve_exact_trajectory(stepped, k, EUCLID2, UNIT, 0.3, 1)[-1]
            np.testing.assert_allclose(sample.position, stepped.position, atol=1e-13)
            np.testing.assert_allclose(sample.momentum, stepped.momentum, atol=1e-13)

    def test_negative_dt_reverses(self):
        h, k, state = unit_circle_setup()
        forward = evolve_exact_trajectory(state, k, EUCLID2, UNIT, 0.7, 1)[-1]
        back = evolve_exact_trajectory(forward, k, EUCLID2, UNIT, -0.7, 1)[-1]
        np.testing.assert_allclose(back.position, state.position, atol=1e-14)
        np.testing.assert_allclose(back.momentum, state.momentum, atol=1e-14)

    def test_rejects_non_finite_dt(self):
        h, k, state = unit_circle_setup()
        with pytest.raises(ValueError, match="finite"):
            evolve_exact_trajectory(state, k, EUCLID2, UNIT, np.inf, 1)[-1]


def oracle_error(trajectory, field, metric, constants, dt, steps):
    """Final-sample deviation from the 40-digit oracle, and the orbit's scale."""
    x, p = van_loan_final(field.matrix, metric.matrix, constants.mass, constants.charge,
                          constants.light_speed, trajectory.position[0],
                          trajectory.momentum[0], dt, steps)
    deviation = max(np.abs(trajectory.position[-1] - x).max(),
                    np.abs(trajectory.momentum[-1] - p).max())
    return float(deviation), max(1.0, float(np.abs(x).max()), float(np.abs(p).max()))


def definite_case(rng, sign):
    """A random definite metric at n = 5 (two blocks, one free column), m, q, c != 1."""
    n = 5
    h = FieldTensor(random_antisymmetric(rng, n))
    metric = MetricTensor(sign * random_spd(rng, n))
    constants = PhysicalConstants(mass=1.7, charge=-0.8, light_speed=2.5)
    state = ParticleState(rng.standard_normal(n), rng.standard_normal(n))
    return h, metric, constants, state


class TestClosedForm:
    """Definite metrics: every sample from the closed form, checked on the oracle."""

    def test_uniform3d_long_orbit_on_the_oracle(self):
        config = RunConfig.load(Path(__file__).resolve().parents[1] / "configs" / "uniform3d.json")
        h, metric, constants = config.field_tensor(), config.metric_tensor(), config.constants()
        dt, steps = config.integration_settings()[0], 100_000
        k = dynamics_matrix(h, metric, constants)
        trajectory = evolve_exact_trajectory(config.initial_state(), k, metric, constants,
                                             dt, steps)
        deviation, _ = oracle_error(trajectory, h, metric, constants, dt, steps)
        assert deviation <= 1e-12

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_random_definite_metric_on_the_oracle(self, rng, sign):
        h, metric, constants, state = definite_case(rng, sign)
        assert decompose(h).num_blocks == 2
        k = dynamics_matrix(h, metric, constants)
        trajectory = evolve_exact_trajectory(state, k, metric, constants, 0.05, 2000)
        deviation, scale = oracle_error(trajectory, h, metric, constants, 0.05, 2000)
        assert deviation <= 1e-12 * scale

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_negative_dt(self, rng, sign):
        h, metric, constants, state = definite_case(rng, sign)
        k = dynamics_matrix(h, metric, constants)
        back = evolve_exact_trajectory(state, k, metric, constants, -0.05, 300)
        deviation, scale = oracle_error(back, h, metric, constants, -0.05, 300)
        assert deviation <= 1e-12 * scale
        assert back[-1].time == pytest.approx(-15.0)
        forth = evolve_exact_trajectory(back[-1], k, metric, constants, 15.0, 1)[-1]
        np.testing.assert_allclose(forth.position, state.position, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(forth.momentum, state.momentum, rtol=0, atol=1e-12 * scale)

    def test_single_step(self, rng):
        h, metric, constants, state = definite_case(rng, 1.0)
        k = dynamics_matrix(h, metric, constants)
        trajectory = evolve_exact_trajectory(state, k, metric, constants, 0.3, 1)
        assert len(trajectory) == 2
        np.testing.assert_array_equal(trajectory.position[0], state.position)
        np.testing.assert_array_equal(trajectory.momentum[0], state.momentum)
        deviation, scale = oracle_error(trajectory, h, metric, constants, 0.3, 1)
        assert deviation <= 1e-14 * scale
        one = evolve_exact_trajectory(state, k, metric, constants, 0.3, 1)[-1]
        np.testing.assert_array_equal(one.position, trajectory.position[1])
        np.testing.assert_array_equal(one.momentum, trajectory.momentum[1])
        assert one.time == trajectory.time[1]

    @pytest.mark.parametrize("strengths", [[1.0, 1e-11], [1.0]], ids=["1e-11", "zero"])
    def test_block_below_the_zero_cut_still_turns(self, strengths):
        # decompose cuts the 1e-11 block to zero, yet over 1e5 steps it turns
        # the orbit by 1.2e-8 rad: moved as a free direction, x ends 5.8e-6
        # off the oracle.  The exact zero block is the control.
        q = random_orthogonal(np.random.default_rng(0), 4)
        m = q @ canonical_tensor(CanonicalForm(np.eye(4), strengths)) @ q.T
        h, metric = FieldTensor((m - m.T) / 2.0), MetricTensor.euclidean(4)
        assert decompose(h).num_blocks == 1
        state = ParticleState([0.3, -0.2, 0.5, 0.1], [0.7, 0.4, -0.6, 0.9])
        trajectory = evolve_exact_trajectory(state, dynamics_matrix(h, metric, UNIT), metric,
                                             UNIT, 0.0123, 100_000)
        deviation, scale = oracle_error(trajectory, h, metric, UNIT, 0.0123, 100_000)
        assert scale > 1000.0
        assert deviation <= 1e-10

    @pytest.mark.parametrize("cond, gate", [(1e4, 5e-12), (1e6, 5e-10), (1e8, 5e-8)])
    def test_ill_conditioned_frames_on_the_oracle(self, rng, cond, gate):
        # K = (q/mc) H g^-1 is itself rounded to about cond(g) roundoffs, and
        # the phase carries that over the orbit, so the gate grows with the
        # condition: 5e-16 cond(g) times the orbit's scale.
        n, constants = 6, PhysicalConstants(mass=1.7, charge=-0.8, light_speed=2.5)
        for sign in (1.0, -1.0):
            q = random_orthogonal(rng, n)
            metric = MetricTensor(sign * q @ np.diag(np.logspace(0.0, np.log10(cond), n)) @ q.T)
            h = FieldTensor(random_antisymmetric(rng, n))
            state = ParticleState(rng.standard_normal(n), rng.standard_normal(n))
            k = dynamics_matrix(h, metric, constants)
            trajectory = evolve_exact_trajectory(state, k, metric, constants, 0.05, 4000)
            deviation, scale = oracle_error(trajectory, h, metric, constants, 0.05, 4000)
            assert deviation <= gate * scale

    def test_batches_join(self, rng):
        # Samples are evaluated 1024 rows at a time; each row depends on its
        # time alone, so samples on both sides of a batch boundary match a
        # single step to that time.
        h, metric, constants, state = definite_case(rng, -1.0)
        k = dynamics_matrix(h, metric, constants)
        trajectory = evolve_exact_trajectory(state, k, metric, constants, 0.05, 2100)
        for i in (1023, 1024, 1025, 2047, 2048, 2100):
            one = evolve_exact_trajectory(state, k, metric, constants, i * 0.05, 1)[-1]
            assert trajectory.time[i] == one.time
            np.testing.assert_allclose(trajectory.position[i], one.position, rtol=0, atol=1e-14)
            np.testing.assert_allclose(trajectory.momentum[i], one.momentum, rtol=0, atol=1e-14)

    def test_one_hermitian_eigensolve(self, rng, monkeypatch):
        # The frame's own eigh, then one of the whitened generator: no
        # decomposition, so no strength cut and no remainder to split again.
        calls = []
        eigh = np.linalg.eigh

        def counted(matrix):
            calls.append(np.iscomplexobj(matrix))
            return eigh(matrix)

        h, metric, constants, state = definite_case(rng, 1.0)
        k = dynamics_matrix(h, metric, constants)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        evolve_exact_trajectory(state, k, metric, constants, 0.1, 50)
        assert calls == [False, True]
        # The metric keeps its frame, so a second orbit solves the generator only.
        evolve_exact_trajectory(state, k, metric, constants, 0.2, 50)
        assert calls == [False, True, True]
        assert not hasattr(dynamics, "decompose")

    def test_no_per_sample_iteration(self, rng, monkeypatch):
        # Definite or not, an exact orbit is evaluated from each sample's time;
        # only RK4 iterates a step map.
        def refuse(*args):
            raise AssertionError("an exact orbit iterated a step map")

        h, metric, constants, state = definite_case(rng, -1.0)
        monkeypatch.setattr(dynamics, "_taylor4", refuse)
        for metric in (metric, MetricTensor.minkowski(5)):
            k = dynamics_matrix(h, metric, constants)
            assert len(evolve_exact_trajectory(state, k, metric, constants, 0.1, 50)) == 51
            with pytest.raises(AssertionError, match="iterated"):
                evolve_rk4(state, k, metric, constants, 0.1, 50)


@pytest.mark.parametrize("metric, evolve", [
    (MetricTensor.euclidean(4), evolve_exact_trajectory),
    (MetricTensor.minkowski(4), evolve_exact_trajectory),
    (MetricTensor.euclidean(4), evolve_rk4),
], ids=["definite-exact", "indefinite-exact", "rk4"])
def test_peak_memory_is_the_orbit_itself(metric, evolve):
    # A 1e5-step orbit holds 7.2 MB of samples; every path evaluates them
    # in place, with temporaries of one batch or one sqrt(N) block.
    h = FieldTensor([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.5, 0.0],
                     [0.0, -0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])  # spatial, so bounded
    state = ParticleState([0.1, 0.2, 0.3, 0.4], [1.0, 0.0, 0.0, 0.5])
    k = dynamics_matrix(h, metric, UNIT)
    evolve(state, k, metric, UNIT, 0.0123, 2)
    tracemalloc.start()
    try:
        trajectory = evolve(state, k, metric, UNIT, 0.0123, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = trajectory.time.nbytes + trajectory.position.nbytes + trajectory.momentum.nbytes
    assert peak <= 1.5 * size


@pytest.mark.parametrize("write", [write_trajectory_csv, write_trajectory_structured])
def test_writer_peak_memory_is_below_the_orbit(write, monkeypatch):
    # The writers stack and format one batch of rows at a time: beside the
    # table's own pT and E_total columns, they hold one batch, not a stacked
    # copy of the whole orbit.  With 64-row batches a 1e4-step orbit spans
    # 157 of them, as a long one does with the default size.
    monkeypatch.setattr(dynamics, "_BATCH", 64)
    metric = MetricTensor.euclidean(4)
    h = FieldTensor([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.5, 0.0],
                     [0.0, -0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    state = ParticleState([0.1, 0.2, 0.3, 0.4], [1.0, 0.0, 0.0, 0.5])
    trajectory = evolve_exact_trajectory(state, dynamics_matrix(h, metric, UNIT), metric,
                                         UNIT, 0.0123, 10_000)
    size = trajectory.time.nbytes + trajectory.position.nbytes + trajectory.momentum.nbytes
    with open(os.devnull, "w", encoding="utf-8") as sink:  # nothing kept in memory
        write(trajectory[:3], h, metric, UNIT, sink)
        tracemalloc.start()
        try:
            write(trajectory, h, metric, UNIT, sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 1.5 * size


def stagewise_rk4(state, k, metric, constants, dt, steps):
    """Final ``(x, p)`` of classic RK4 on ``p' = K p``, ``x' = g^{-1} p / m``, stage by stage."""
    ginv_over_m = metric.inverse / constants.mass
    x, p = state.position, state.momentum
    for _ in range(steps):
        k1p, k1x = k @ p, ginv_over_m @ p
        p2 = p + 0.5 * dt * k1p
        k2p, k2x = k @ p2, ginv_over_m @ p2
        p3 = p + 0.5 * dt * k2p
        k3p, k3x = k @ p3, ginv_over_m @ p3
        p4 = p + dt * k3p
        k4p, k4x = k @ p4, ginv_over_m @ p4
        x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        p = p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
    return x, p


def rotated_minkowski_case(rng):
    """A bounded orbit under ``diag(1, 1, 1, -1)``: one unit block in randomly rotated space axes."""
    rotation = np.eye(4)
    rotation[:3, :3] = random_orthogonal(rng, 3)
    theta = np.zeros((4, 4))
    theta[0, 1], theta[1, 0] = 1.0, -1.0
    h = FieldTensor(rotation @ theta @ rotation.T)
    state = ParticleState(rng.uniform(-1.0, 1.0, 4), rotation @ [1.0, 0.0, 0.25, 0.1])
    return h, MetricTensor.minkowski(4), state


def stepwise(state, k, metric, constants, dt, steps, exact):
    """Every sample ``(x, p)`` from applying the one-step map once per step.

    The map is ``expm(dt [[K, I], [0, 0]])`` when ``exact``, else the sum of
    its first five Taylor terms: one classic RK4 step of the linear flow.
    """
    from scipy.linalg import expm

    n = state.n
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n], aug[:n, n:] = dt * k, dt * np.eye(n)
    if exact:
        full = expm(aug)
    else:
        full, term = np.eye(2 * n), np.eye(2 * n)
        for j in range(1, 5):
            term = term @ aug / j
            full = full + term
    prop, integral = full[:n, :n], full[:n, n:]
    x, p = [state.position], [state.momentum]
    for _ in range(steps):
        x.append(x[-1] + metric.inverse @ (integral @ p[-1]) / constants.mass)
        p.append(prop @ p[-1])
    return np.array(x), np.array(p)


class TestBlockPropagation:
    def test_rotated_minkowski_frames_on_the_oracle(self):
        # After 1e5 steps the closed form lands 6e-16 to 4.2e-14 of the orbit's
        # scale off the oracle on these frames; the step map applied once per
        # step lands 1.5e-12 to 2.1e-12 off.
        for seed in (1, 2, 3):
            h, metric, state = rotated_minkowski_case(np.random.default_rng(seed))
            k = dynamics_matrix(h, metric, UNIT)
            trajectory = evolve_exact_trajectory(state, k, metric, UNIT, 0.02, 100_000)
            deviation, scale = oracle_error(trajectory, h, metric, UNIT, 0.02, 100_000)
            assert deviation <= 5e-13 * scale, (seed, deviation, scale)

    @pytest.mark.parametrize("exact", [True, False])
    @pytest.mark.parametrize("steps", [1, 2, 3, 99, 101])
    def test_blocks_match_the_step_map_applied_per_step(self, rng, steps, exact):
        # 1 and 2 make blocks of one and of two samples, 3 and 99 fill whole
        # blocks (4 and 100 samples), and 101 is prime, so its last block is short.
        h, metric, state = rotated_minkowski_case(rng)
        constants = PhysicalConstants(mass=1.7, charge=-0.8, light_speed=2.5)
        k = dynamics_matrix(h, metric, constants)
        evolve = evolve_exact_trajectory if exact else evolve_rk4
        trajectory = evolve(state, k, metric, constants, 0.1, steps)
        x, p = stepwise(state, k, metric, constants, 0.1, steps, exact)
        scale = max(1.0, float(np.abs(x).max()), float(np.abs(p).max()))
        assert len(trajectory) == steps + 1
        np.testing.assert_allclose(trajectory.position, x, rtol=0, atol=1e-13 * scale)
        np.testing.assert_allclose(trajectory.momentum, p, rtol=0, atol=1e-13 * scale)


def lorentz_transform(rng, rapidity, n):
    """``L`` with ``L^T g L = g`` for ``g = diag(1, ..., 1, -1)``: a seeded
    rotation of the space axes after a boost along the first."""
    rotation = np.eye(n)
    rotation[:-1, :-1] = random_orthogonal(rng, n - 1)
    boost = np.eye(n)
    boost[0, 0] = boost[-1, -1] = np.cosh(rapidity)
    boost[0, -1] = boost[-1, 0] = np.sinh(rapidity)
    return rotation @ boost


def spacetime_field(n, entries):
    """The antisymmetric field with ``H[i, j] = value`` for each ``(i, j): value``;
    the last axis is time-like, so ``H[i, n - 1]`` is an electric component."""
    h = np.zeros((n, n))
    for (i, j), value in entries.items():
        h[i, j], h[j, i] = value, -value
    return h


# E along x1, B along x3, |E| = |B|: K^3 = 0 under diag(1, 1, 1, -1).
NULL_FIELD = spacetime_field(4, {(0, 1): 1.0, (0, 3): 1.0})


def null_field_case(rapidity):
    """The null field and a start point, rotated and boosted by a seeded ``L``
    (none at rapidity None): ``H -> L^T H L``, ``x0 -> L^-1 x0``, ``p0 -> L^T p0``."""
    rng = np.random.default_rng(22)
    x0, p0 = rng.uniform(-1.0, 1.0, 4), rng.uniform(-1.0, 1.0, 4)
    if rapidity is None:
        return FieldTensor(NULL_FIELD), ParticleState(x0, p0)
    lorentz = lorentz_transform(rng, rapidity, 4)
    return (FieldTensor(lorentz.T @ NULL_FIELD @ lorentz),
            ParticleState(np.linalg.solve(lorentz, x0), lorentz.T @ p0))


SO22 = MetricTensor(np.diag([1.0, 1.0, -1.0, -1.0]))


def so22_field(block):
    """A field under ``diag(1, 1, -1, -1)`` whose ``K`` is ``block x I + I x [[0, 1], [0, 0]]``.

    ``kron(e, e)`` with ``e = [[0, 1], [-1, 0]]`` is a form of signature
    (2, 2) that ``X x I`` and ``I x Y`` keep for traceless ``X`` and ``Y``, and
    the orthogonal ``q`` takes it to the diagonal.  The nilpotent factor makes
    every eigenvalue of ``block`` a Jordan block of size 2.
    """
    q = np.array([[1.0, 0, 1, 0], [0, 1, 0, 1], [0, -1, 0, 1], [1, 0, -1, 0]]) / np.sqrt(2.0)
    k = q.T @ (np.kron(block, np.eye(2)) + np.kron(np.eye(2), [[0.0, 1.0], [0.0, 0.0]])) @ q
    h = k @ SO22.matrix
    return FieldTensor((h - h.T) / 2.0)


class TestIndefiniteClosedForm:
    """Indefinite metrics: modes, and a series on each near-defective cluster, on the oracle."""

    def on_the_oracle(self, h, state, dt, steps, constants=UNIT, metric=None):
        metric = metric or MetricTensor.minkowski(state.n)
        trajectory = evolve_exact_trajectory(state, dynamics_matrix(h, metric, constants),
                                             metric, constants, dt, steps)
        deviation, scale = oracle_error(trajectory, h, metric, constants, dt, steps)
        assert deviation <= 1e-12 * scale, (deviation, scale)
        return trajectory

    @pytest.mark.parametrize("rapidity", [None, 0.5, 2.0], ids=["plain", "0.5", "2"])
    def test_null_field_on_the_oracle(self, rapidity):
        # No eigenbasis spans a null field: eig alone lands hundreds off.  The
        # seeded frame is rounded to floats, which leaves the field null only
        # to about 1e-16, a boost of rate about 1e-8 |K| that no float64
        # method resolves; over t = 20 it stays below the gate.
        h, state = null_field_case(rapidity)
        self.on_the_oracle(h, state, 0.05, 400)

    @pytest.mark.parametrize("rapidity", [None, 0.5, 2.0], ids=["plain", "0.5", "2"])
    def test_null_field_orbit_is_a_cubic(self, rapidity):
        # Landau-Lifshitz section 22: for E = B the coordinates are cubic in
        # the proper time (here t) and the momenta quadratic.
        h, state = null_field_case(rapidity)
        trajectory = self.on_the_oracle(h, state, 0.05, 400)
        tau = trajectory.time / trajectory.time[-1]
        for column in (*trajectory.position.T, *trajectory.momentum.T):
            fit = np.polyval(np.polyfit(tau, column, 3), tau)
            assert np.abs(fit - column).max() <= 1e-12 * np.abs(column).max()

    @pytest.mark.parametrize("coupling", [{}, {(2, 1): 1e-6}, {(1, 3): 1e-3}],
                             ids=["uncoupled", "x3-x2", "x2-x4"])
    def test_null_rotation_beside_a_cyclotron_block(self, coupling):
        # 1+5 D: the null field in (x1, x2, t), a cyclotron block in (x4, x5),
        # in seeded space axes.  Coupling x3 to x2 by 1e-6 makes the null
        # block a cluster of four eigenvalues of size 1e-3 whose eigenbasis
        # has condition 2e6; coupling x2 to x4 by 1e-3 leaves a boost of rate
        # 1.4e-3 beside a double zero, with condition 1e3.  Either way the
        # cluster about zero moves onto the series, on a basis whose subspace
        # iteration runs until it stops moving: the nilpotent part swings it
        # about for the first few steps.  The rounded frame is near-defective
        # itself: over t = 100 this orbit and the iterated exponential both
        # land near 1e-12 of the scale, over t = 20 below 2e-14.
        h = spacetime_field(6, {(0, 1): 1.0, (0, 5): 1.0, (3, 4): 0.7, **coupling})
        rng = np.random.default_rng(6)
        rotation = np.eye(6)
        rotation[:5, :5] = random_orthogonal(rng, 5)
        state = ParticleState(rng.uniform(-1.0, 1.0, 6), rng.uniform(-1.0, 1.0, 6))
        self.on_the_oracle(FieldTensor(rotation.T @ h @ rotation), state, 0.05, 400)

    @pytest.mark.parametrize("e_field", [0.6, 1.0 / 0.6], ids=["E<B", "E>B"])
    def test_crossed_fields_on_the_oracle(self, e_field):
        # E < B drifts and turns at sqrt(B^2 - E^2); E > B runs away like
        # exp(sqrt(E^2 - B^2) t).
        h = FieldTensor(spacetime_field(4, {(0, 1): 1.0, (0, 3): e_field}))
        constants = PhysicalConstants(mass=1.7, charge=-0.8, light_speed=2.5)
        self.on_the_oracle(h, ParticleState([0.1, -0.2, 0.3, 0.4], [0.5, 0.2, -0.1, 1.2]),
                           0.05, 2000, constants)

    def test_zero_field_on_the_oracle(self):
        trajectory = self.on_the_oracle(FieldTensor(np.zeros((4, 4))),
                                        ParticleState([0.1, -0.2, 0.3, 0.4],
                                                      [0.5, 0.2, -0.1, 1.2]), 0.05, 2000)
        np.testing.assert_array_equal(trajectory.momentum, np.tile([0.5, 0.2, -0.1, 1.2],
                                                                   (2001, 1)))

    @pytest.mark.parametrize("strength", [1e-6, 1e-9, 1e-13])
    def test_weak_boost_still_acts(self, strength):
        # A boost 1e-13 of the cyclotron block is below every cut, yet over
        # 1e5 steps it moves the orbit by 1e-10 of its scale: its eigenbasis
        # is well conditioned, so the modes carry it.
        h = FieldTensor(spacetime_field(5, {(0, 1): 1.0, (2, 4): strength}))
        state = ParticleState([0.3, -0.2, 0.5, 0.1, 0.2], [0.7, 0.4, -0.6, 0.9, 1.1])
        self.on_the_oracle(h, state, 0.0123, 100_000)

    @pytest.mark.parametrize("seed", range(4))
    def test_strongly_boosted_frame_keeps_turning_blocks_as_modes(self, seed):
        # At rapidity 5 the unit cyclotron block is below 1e-3 of |K|, so the
        # largest cut would join it to the cluster about zero, where over
        # t = 2000 it turns 2000 rad: that series does not end, and the cuts
        # stop short of it.
        # The frame has condition e^10, and rounding the boosted field costs
        # that many roundoffs, hence the gate.
        lorentz = lorentz_transform(np.random.default_rng(seed), 5.0, 5)
        h = spacetime_field(5, {(0, 1): 1.0, (2, 3): 5e-4})
        metric = MetricTensor.minkowski(5)
        h = FieldTensor(lorentz.T @ h @ lorentz)
        state = ParticleState([0.1, 0.2, 0.3, 0.4, 0.5], [0.3, -0.2, 0.5, 0.1, 1.2])
        trajectory = evolve_exact_trajectory(state, dynamics_matrix(h, metric, UNIT), metric,
                                             UNIT, 2.0, 1000)
        deviation, scale = oracle_error(trajectory, h, metric, UNIT, 2.0, 1000)
        assert deviation <= 1e-9 * scale


    def test_weak_boost_at_a_long_reach(self):
        # Over t = 4e14 the boost 1e-13 grows by e^40: no short series holds
        # it, so it stays on the modes.
        h = FieldTensor(spacetime_field(5, {(0, 1): 1.0, (2, 4): 1e-13}))
        state = ParticleState([0.3, -0.2, 0.5, 0.1, 0.2], [0.7, 0.4, -0.6, 0.9, 1.1])
        self.on_the_oracle(h, state, 2e11, 2000)

    @pytest.mark.parametrize("block", [[[0.5, 0.0], [0.0, -0.5]], [[0.0, -0.5], [0.5, 0.0]],
                                       [[1e-4, 0.0], [0.0, -1e-4]]],
                             ids=["real", "complex", "near-zero"])
    def test_jordan_blocks_at_nonzero_eigenvalues(self, block):
        # Under signature (2, 2) each eigenvalue of the block is a Jordan
        # block of size 2, which no eigenbasis spans: each cluster takes a
        # series about its own center.
        h = so22_field(np.array(block))
        k = dynamics_matrix(h, SO22, UNIT)
        assert np.linalg.cond(np.linalg.eig(k)[1]) > 1e6
        state = ParticleState([0.1, 0.2, -0.3, 0.4], [0.5, -0.1, 0.2, 0.3])
        self.on_the_oracle(h, state, 0.01, 2000, metric=SO22)

    def test_cluster_series_ends_or_refuses(self):
        nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
        np.testing.assert_array_equal(modes._cluster_series(nilpotent, 2, 1e3, 1.0),
                                      [np.eye(2), 1e3 * nilpotent])
        turning = np.array([[0.0, -1e-3], [1e-3, 0.0]])
        assert len(modes._cluster_series(turning, 2, 1e2, 1.0)) < modes._SERIES_MAX
        assert modes._cluster_series(turning, 2, 1e6, 1.0) is None


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rapidity=st.floats(0.0, 1.5))
def test_lorentz_covariance(seed, rapidity):
    # H -> L^T H L, x0 -> L^-1 x0, p0 -> L^T p0 with L^T g L = g maps every
    # sample the same way.
    rng = np.random.default_rng(seed)
    lorentz = lorentz_transform(rng, rapidity, 4)
    metric = MetricTensor.minkowski(4)
    h = FieldTensor(random_antisymmetric(rng, 4))
    moved = FieldTensor(lorentz.T @ h.matrix @ lorentz)
    state = ParticleState(rng.standard_normal(4), rng.standard_normal(4))
    image = ParticleState(np.linalg.solve(lorentz, state.position), lorentz.T @ state.momentum)
    orbit = evolve_exact_trajectory(state, dynamics_matrix(h, metric, UNIT), metric, UNIT,
                                    0.01, 2000)
    seen = evolve_exact_trajectory(image, dynamics_matrix(moved, metric, UNIT), metric, UNIT,
                                   0.01, 2000)
    expected_x = np.linalg.solve(lorentz, orbit.position.T).T
    expected_p = orbit.momentum @ lorentz
    scale = max(1.0, np.abs(expected_x).max(), np.abs(expected_p).max())
    np.testing.assert_allclose(seen.position, expected_x, rtol=0, atol=1e-12 * scale)
    np.testing.assert_allclose(seen.momentum, expected_p, rtol=0, atol=1e-12 * scale)


class TestEvolveRk4:
    def test_straight_line_for_zero_field(self):
        metric = MetricTensor.euclidean(2)
        k = dynamics_matrix(FieldTensor(np.zeros((2, 2))), metric, UNIT)
        states = evolve_rk4(ParticleState([0.0, 0.0], [1.0, -2.0]), k, metric, UNIT, 0.1, 10)
        assert len(states) == 11
        for i, st in enumerate(states):
            np.testing.assert_allclose(st.position, [0.1 * i, -0.2 * i], atol=1e-13)
            np.testing.assert_array_equal(st.momentum, [1.0, -2.0])

    def test_fourth_order_convergence(self):
        h, k, state = unit_circle_setup()
        period = 2.0 * np.pi
        exact = evolve_exact_trajectory(state, k, EUCLID2, UNIT, period, 1)[-1]
        errors = []
        for steps in (128, 256):
            end = evolve_rk4(state, k, EUCLID2, UNIT, period / steps, steps)[-1]
            errors.append(np.linalg.norm(end.position - exact.position))
        ratio = errors[0] / errors[1]
        assert 16.0 * 0.8 <= ratio <= 16.0 * 1.2

    def test_endpoint_error_small_at_fine_step(self):
        h, k, state = unit_circle_setup()
        period = 2.0 * np.pi
        steps = int(round(period / 1e-3))
        end = evolve_rk4(state, k, EUCLID2, UNIT, period / steps, steps)[-1]
        exact = evolve_exact_trajectory(state, k, EUCLID2, UNIT, period, 1)[-1]
        assert np.linalg.norm(end.position - exact.position) < 1e-9

    def test_energy_drift_over_one_period(self):
        h, k, state = unit_circle_setup()
        period = 2.0 * np.pi
        steps = int(round(period / 1e-3))
        states = evolve_rk4(state, k, EUCLID2, UNIT, period / steps, steps)
        first = kinetic_energy(states[0], EUCLID2, UNIT)
        last = kinetic_energy(states[-1], EUCLID2, UNIT)
        assert abs(last - first) < 1e-10

    def test_rejects_bad_stepping(self):
        h, k, state = unit_circle_setup()
        with pytest.raises(ValueError, match="dt"):
            evolve_rk4(state, k, EUCLID2, UNIT, 0.0, 5)
        with pytest.raises(ValueError, match="steps"):
            evolve_rk4(state, k, EUCLID2, UNIT, 0.1, 0)

    @pytest.mark.parametrize("kind", ["spd", "-spd", "minkowski"])
    @pytest.mark.parametrize("dt, steps, rtol", [(0.1, 1, 1e-15), (0.01, 2000, 1e-12)])
    def test_matches_stagewise_rk4(self, rng, kind, dt, steps, rtol):
        # evolve_rk4 iterates a step-map matrix; the stage-by-stage form is
        # the same map in exact arithmetic, so they differ only by roundoff.
        h, metric, constants, state = definite_case(rng, -1.0 if kind == "-spd" else 1.0)
        if kind == "minkowski":
            metric = MetricTensor.minkowski(5)
        k = dynamics_matrix(h, metric, constants)
        x, p = stagewise_rk4(state, k, metric, constants, dt, steps)
        end = evolve_rk4(state, k, metric, constants, dt, steps)[-1]
        scale = max(1.0, float(np.abs(x).max()), float(np.abs(p).max()))
        np.testing.assert_allclose(end.position, x, rtol=0, atol=rtol * scale)
        np.testing.assert_allclose(end.momentum, p, rtol=0, atol=rtol * scale)


class TestDualMomentum:
    def test_zero_field_returns_momentum(self, rng):
        state = ParticleState(rng.standard_normal(3), rng.standard_normal(3))
        h = FieldTensor(np.zeros((3, 3)))
        np.testing.assert_array_equal(dual_momentum_value(state, h, UNIT), state.momentum)

    def test_origin_returns_momentum(self, rng):
        h = FieldTensor(random_antisymmetric(rng, 3))
        state = ParticleState(np.zeros(3), rng.standard_normal(3))
        np.testing.assert_array_equal(dual_momentum_value(state, h, UNIT), state.momentum)

    def test_constant_along_trajectory(self, rng):
        h = FieldTensor(random_antisymmetric(rng, 3))
        metric = MetricTensor.euclidean(3)
        constants = PhysicalConstants(mass=0.8, charge=-1.2, light_speed=2.0)
        k = dynamics_matrix(h, metric, constants)
        state = ParticleState(rng.standard_normal(3), rng.standard_normal(3))
        reference = dual_momentum_value(state, h, constants)
        for sample in evolve_exact_trajectory(state, k, metric, constants, 0.05, 200):
            np.testing.assert_allclose(dual_momentum_value(sample, h, constants),
                                       reference, atol=1e-12)


    def test_trajectory_rows_match_per_state_values(self, rng):
        # The array forms must give each sample's own per-state bits.
        n = 5
        h = FieldTensor(random_antisymmetric(rng, n))
        a = rng.standard_normal((n, n))
        metric = MetricTensor(a @ a.T + n * np.eye(n))
        constants = PhysicalConstants(mass=0.7, charge=1.3, light_speed=0.9)
        k = dynamics_matrix(h, metric, constants)
        state = ParticleState(rng.standard_normal(n), rng.standard_normal(n))
        trajectory = evolve_rk4(state, k, metric, constants, 0.05, 40)[::3]
        np.testing.assert_array_equal(
            dual_momentum_value(trajectory, h, constants),
            [dual_momentum_value(st, h, constants) for st in trajectory])
        np.testing.assert_array_equal(
            kinetic_energy(trajectory, metric, constants),
            [kinetic_energy(st, metric, constants) for st in trajectory])


class TestOrbitDecomposition:
    def test_rest_state_is_all_zero(self, rng):
        h = FieldTensor(random_antisymmetric(rng, 4))
        form = decompose(h)
        split = orbit_decomposition(ParticleState(np.zeros(4), np.zeros(4)), form, h, UNIT)
        assert np.all(split.centers == 0.0)
        assert np.all(split.relatives == 0.0)
        assert np.all(split.block_energies == 0.0)
        assert split.free_energy == 0.0

    def test_unit_circle_center_and_radius(self):
        h, k, state = unit_circle_setup()
        form = decompose(h)
        split = orbit_decomposition(state, form, h, UNIT)
        np.testing.assert_allclose(split.centers, [[0.0, -1.0]], atol=1e-14)
        np.testing.assert_allclose(np.linalg.norm(split.relatives[0]), 1.0, atol=1e-14)

    def test_center_and_radius_against_fitted_circle(self):
        # oracle: sample one period and fit the circle from the positions
        h, k, state = unit_circle_setup()
        steps = 256
        samples = evolve_exact_trajectory(state, k, EUCLID2, UNIT, 2 * np.pi / steps, steps)
        points = np.array([s.position for s in samples[:-1]])  # uniform on the circle
        fitted_center = points.mean(axis=0)
        fitted_radius = float(np.linalg.norm(points - fitted_center, axis=1).mean())
        form = decompose(h)
        split = orbit_decomposition(state, form, h, UNIT)
        # identity basis: canonical coordinates are plain coordinates here
        np.testing.assert_allclose(split.centers[0], fitted_center, atol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(split.relatives[0]), fitted_radius, atol=1e-9)

    def test_center_plus_relative_is_canonical_position(self, rng):
        from ncyclo import to_canonical
        for n in (2, 4, 5):
            h = FieldTensor(random_antisymmetric(rng, n))
            form = decompose(h)
            constants = PhysicalConstants(charge=-0.5, light_speed=1.5)
            for _ in range(10):
                state = ParticleState(rng.standard_normal(n), rng.standard_normal(n))
                split = orbit_decomposition(state, form, h, constants)
                coords = to_canonical(form, state, h, constants)
                for l in range(form.num_blocks):
                    pair = coords.position[2 * l: 2 * l + 2]
                    np.testing.assert_allclose(split.centers[l] + split.relatives[l],
                                               pair, atol=1e-10)

    def test_energy_split_sums_to_kinetic_energy(self, rng):
        for n in (2, 3, 5, 6):
            h = FieldTensor(random_antisymmetric(rng, n))
            metric = MetricTensor.euclidean(n)
            form = decompose(h)
            for _ in range(10):
                state = ParticleState(rng.standard_normal(n), rng.standard_normal(n))
                split = orbit_decomposition(state, form, h, UNIT)
                total = split.block_energies.sum() + split.free_energy
                assert total == pytest.approx(kinetic_energy(state, metric, UNIT), abs=1e-12)

    def test_centers_constant_along_trajectory(self, rng):
        h = FieldTensor(random_antisymmetric(rng, 4))
        metric = MetricTensor.euclidean(4)
        k = dynamics_matrix(h, metric, UNIT)
        form = decompose(h)
        state = ParticleState(rng.standard_normal(4), rng.standard_normal(4))
        reference = orbit_decomposition(state, form, h, UNIT).centers
        for sample in evolve_exact_trajectory(state, k, metric, UNIT, 0.1, 100):
            split = orbit_decomposition(sample, form, h, UNIT)
            np.testing.assert_allclose(split.centers, reference, atol=1e-10)

    def test_trajectory_rows_match_per_state_splits(self, rng):
        # A general metric makes the basis non-orthogonal, so to_canonical's
        # solve is exercised; one free dimension checks the free part.
        n = 5
        h = FieldTensor(random_antisymmetric(rng, n))
        metric = MetricTensor(random_spd(rng, n))
        constants = PhysicalConstants(mass=1.3, charge=-0.7, light_speed=2.0)
        form = decompose(h, metric)
        assert form.num_blocks == 2
        k = dynamics_matrix(h, metric, constants)
        state = ParticleState(rng.standard_normal(n), rng.standard_normal(n))
        samples = evolve_exact_trajectory(state, k, metric, constants, 0.05, 40)
        checks = ((lambda s: to_canonical(form, s, h, constants),
                   ("position", "momentum", "dual_momentum")),
                  (lambda s: orbit_decomposition(s, form, h, constants),
                   ("centers", "relatives", "free_velocity", "block_energies", "free_energy")))
        for split, names in checks:
            whole, per_state = split(samples), [split(s) for s in samples]
            for name in names:
                rows = np.array([getattr(item, name) for item in per_state])
                table = getattr(whole, name)
                assert table.shape == rows.shape
                assert np.abs(table - rows).max() <= 1e-14 * np.abs(rows).max()

    def test_relative_rotation_rate_and_radius(self, rng):
        # two distinct blocks: each relative pair turns rigidly at its own frequency
        strengths = (2.0, 0.5)
        m = np.zeros((4, 4))
        m[0, 1], m[1, 0] = strengths[0], -strengths[0]
        m[2, 3], m[3, 2] = strengths[1], -strengths[1]
        h = FieldTensor(m)
        metric = MetricTensor.euclidean(4)
        constants = PhysicalConstants(mass=1.25, charge=-0.8, light_speed=1.0)
        k = dynamics_matrix(h, metric, constants)
        form = decompose(h)
        state = ParticleState(rng.standard_normal(4), rng.standard_normal(4))
        period = 2 * np.pi / (abs(constants.charge) * strengths[1]
                              / (constants.mass * constants.light_speed))
        steps = 400
        samples = evolve_exact_trajectory(state, k, metric, constants, period / steps, steps)
        times = np.array([s.time for s in samples])
        for l in range(2):
            rel = np.array([orbit_decomposition(s, form, h, constants).relatives[l]
                            for s in samples])
            radii = np.linalg.norm(rel, axis=1)
            assert radii.max() - radii.min() <= 1e-9
            angles = np.unwrap(np.arctan2(rel[:, 1], rel[:, 0]))
            slope = np.polyfit(times, angles, 1)[0]
            omega = abs(constants.charge) * form.strengths[l] / (
                constants.mass * constants.light_speed)
            assert abs(slope) == pytest.approx(omega, rel=1e-8)

    def test_indefinite_metric_free_pair_and_conservation(self):
        # block in the spatial plane; time-like pair stays force free
        m = np.zeros((4, 4))
        m[0, 1], m[1, 0] = 1.0, -1.0
        h = FieldTensor(m)
        metric = MetricTensor(np.diag([1.0, 1.0, 1.0, -1.0]))
        k = dynamics_matrix(h, metric, UNIT)
        state = ParticleState([0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.5, 0.25])
        reference = dual_momentum_value(state, h, UNIT)
        samples = evolve_exact_trajectory(state, k, metric, UNIT, 0.05, 200)
        for sample in samples:
            np.testing.assert_allclose(dual_momentum_value(sample, h, UNIT),
                                       reference, atol=1e-12)
        np.testing.assert_allclose(samples[-1].momentum[2:], [0.5, 0.25], atol=1e-14)
        np.testing.assert_allclose(samples[-1].position[2],
                                   0.5 * samples[-1].time, atol=1e-12)
        np.testing.assert_allclose(samples[-1].position[3],
                                   -0.25 * samples[-1].time, atol=1e-12)


class TestTrajectoryCsv:
    def test_header_and_shape(self):
        h, k, state = unit_circle_setup()
        states = evolve_exact_trajectory(state, k, EUCLID2, UNIT, 0.1, 3)
        buffer = io.StringIO()
        write_trajectory_csv(states, h, EUCLID2, UNIT, buffer)
        lines = buffer.getvalue().strip().split("\n")
        assert lines[0] == "t,x1,x2,p1,p2,pT1,pT2,E_total"
        assert len(lines) == 5

    def test_values_round_trip(self):
        h, k, state = unit_circle_setup()
        states = evolve_exact_trajectory(state, k, EUCLID2, UNIT, 0.37, 2)
        buffer = io.StringIO()
        write_trajectory_csv(states, h, EUCLID2, UNIT, buffer)
        rows = [line.split(",") for line in buffer.getvalue().strip().split("\n")[1:]]
        parsed = np.array([[float(v) for v in row] for row in rows])
        np.testing.assert_array_equal(parsed[:, 0], [s.time for s in states])
        np.testing.assert_array_equal(parsed[:, 1:3], [s.position for s in states])
        np.testing.assert_array_equal(parsed[:, 3:5], [s.momentum for s in states])
        duals = np.array([dual_momentum_value(s, h, UNIT) for s in states])
        np.testing.assert_array_equal(parsed[:, 5:7], duals)
        energies = [kinetic_energy(s, EUCLID2, UNIT) for s in states]
        np.testing.assert_array_equal(parsed[:, 7], energies)


class TestTrajectoryStructured:
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("rows", [1, 1024, 1025])
    def test_bytes_are_those_of_json_dumps(self, rng, n, rows):
        # The batch holds 1024 rows, so 1025 crosses its boundary.
        specials = np.array([-0.0, 5e-324, 1.0 / 3.0, -2.5e150])
        time = rng.choice(np.array([-0.0, 5e-324, 1e308, 1.0 / 3.0]), rows)
        position = rng.choice(specials, (rows, n)) * rng.choice([1.0, 0.7], (rows, n))
        momentum = np.where(rng.random((rows, n)) < 0.5, rng.choice(specials, (rows, n)),
                            rng.standard_normal((rows, n)))
        trajectory = Trajectory(time, position, momentum)
        h = FieldTensor(random_antisymmetric(rng, n))
        metric = MetricTensor.euclidean(n)
        constants = PhysicalConstants(mass=0.7, charge=-1.3, light_speed=3.0)

        table = trajectory_table(trajectory, h, metric, constants)
        columns = {name: column.tolist() for name, column in table.items()}
        dicts = [dict(zip(columns, values)) for values in zip(*columns.values())]
        expected = json.dumps({"trajectory": dicts}, indent=2, sort_keys=True) + "\n"
        buffer = io.StringIO()
        write_trajectory_structured(trajectory, h, metric, constants, buffer)
        assert buffer.getvalue() == expected


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def circle_orbit(rows):
    """The first ``rows`` samples of the unit circle orbit, and its field."""
    h, k, state = unit_circle_setup()
    return h, evolve_exact_trajectory(state, k, EUCLID2, UNIT, 0.37, 999)[:rows]


class TestShareWriters:
    """The batches are formatted in one contiguous share per usable CPU, all but the first forked."""

    @pytest.mark.parametrize("write", [write_trajectory_csv, write_trajectory_structured])
    @pytest.mark.parametrize("rows", [1, 64, 65, 128, 129, 1000])
    def test_bytes_do_not_depend_on_the_share_count(self, write, rows, tmp_path, monkeypatch):
        monkeypatch.setattr(dynamics, "_BATCH", 64)
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(None) or fork())
        h, trajectory = circle_orbit(rows)
        written = {}
        for cpus in (1, 2, 3):
            usable_cpus(monkeypatch, cpus)
            del forks[:]
            buffer = io.StringIO()
            write(trajectory, h, EUCLID2, UNIT, buffer)
            path = tmp_path / f"{cpus}.out"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                write(trajectory, h, EUCLID2, UNIT, fh)
            # One child per share but the first, for each of the two writes,
            # and none of them left.
            assert len(forks) == 2 * (min(cpus, -(-rows // 64)) - 1)
            assert_no_child_left()
            written[cpus] = buffer.getvalue(), path.read_bytes()
        text, data = written[1]
        assert data == text.encode()
        if write is write_trajectory_csv:
            assert len(text.splitlines()) == rows + 1
        else:
            assert len(json.loads(text)["trajectory"]) == rows
        assert written[2] == written[1]
        assert written[3] == written[1]

    def test_one_batch_forks_nothing(self, monkeypatch):
        def fork():
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)
        usable_cpus(monkeypatch, 4)
        h, trajectory = circle_orbit(dynamics._BATCH)
        for write in (write_trajectory_csv, write_trajectory_structured):
            write(trajectory, h, EUCLID2, UNIT, io.StringIO())

    def test_failing_child_is_named_and_reaped(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_BATCH", 64)
        usable_cpus(monkeypatch, 3)
        fail_in_forked_children(monkeypatch)
        h, trajectory = circle_orbit(1000)
        with pytest.raises(ChildProcessError,
                           match=r"^the trajectory writer process \d+ failed with exit status 1$"):
            write_trajectory_structured(trajectory, h, EUCLID2, UNIT, io.StringIO())
        assert_no_child_left()

    def test_children_are_stopped_when_this_process_fails(self, monkeypatch):
        class FullDisk(io.StringIO):
            def write(self, text):
                raise OSError("no space left on device")

        monkeypatch.setattr(dynamics, "_BATCH", 64)
        usable_cpus(monkeypatch, 3)
        h, trajectory = circle_orbit(1000)
        with pytest.raises(OSError, match="no space left"):
            dynamics._write_rows(FullDisk(), [trajectory.time], lambda rows: "%r\n" % rows[0, 0])
        assert_no_child_left()
