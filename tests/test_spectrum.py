import itertools

import numpy as np
import pytest

from ncyclo import (
    CanonicalForm,
    FieldTensor,
    MetricTensor,
    ParticleState,
    PhysicalConstants,
    classify_spectrum,
    cyclotron_frequencies,
    decompose,
    dynamics_matrix,
    evolve_exact_trajectory,
    field_from_3d_vector,
    field_from_gauge,
    gauge_antisymmetric,
    gauge_triangular,
    landau_level,
    level_listing,
    orbit_decomposition,
)
from ncyclo.canonical import canonical_tensor
from conftest import random_antisymmetric

UNIT = PhysicalConstants()


def two_block_field(s1=2.0, s2=1.0):
    m = np.zeros((4, 4))
    m[0, 1], m[1, 0] = s1, -s1
    m[2, 3], m[3, 2] = s2, -s2
    return FieldTensor(m)


class TestCyclotronFrequencies:
    def test_textbook_3d_value(self):
        b0 = 1.75
        form = decompose(field_from_3d_vector([0.0, 0.0, b0]))
        np.testing.assert_allclose(cyclotron_frequencies(form, UNIT), [b0])

    def test_constants_scaling(self):
        form = decompose(field_from_3d_vector([0.0, 0.0, 3.0]))
        constants = PhysicalConstants(mass=2.0, charge=-4.0, light_speed=3.0)
        np.testing.assert_allclose(cyclotron_frequencies(form, constants),
                                   [abs(-4.0) * 3.0 / (2.0 * 3.0)])

    def test_zero_field_empty(self):
        form = decompose(FieldTensor(np.zeros((3, 3))))
        assert cyclotron_frequencies(form, UNIT).size == 0

    def test_doubling_field_doubles_frequencies(self, rng):
        m = random_antisymmetric(rng, 5)
        w1 = cyclotron_frequencies(decompose(FieldTensor(m)), UNIT)
        w2 = cyclotron_frequencies(decompose(FieldTensor(2.0 * m)), UNIT)
        np.testing.assert_allclose(w2, 2.0 * w1, rtol=1e-12)

    def test_matches_measured_classical_rotation(self):
        # classical oracle: angle regression on the relative coordinates
        b0 = 1.4
        h = field_from_3d_vector([0.0, 0.0, b0])
        metric = MetricTensor.euclidean(3)
        k = dynamics_matrix(h, metric, UNIT)
        form = decompose(h)
        state = ParticleState([0.0, 0.0, 0.0], [1.0, 0.25, 0.5])
        period = 2 * np.pi / b0
        samples = evolve_exact_trajectory(state, k, metric, UNIT, period / 256, 256)
        rel = np.array([orbit_decomposition(s, form, h, UNIT).relatives[0] for s in samples])
        angles = np.unwrap(np.arctan2(rel[:, 1], rel[:, 0]))
        slope = np.polyfit([s.time for s in samples], angles, 1)[0]
        assert abs(slope) == pytest.approx(cyclotron_frequencies(form, UNIT)[0], rel=1e-8)


class TestLandauLevel:
    def test_single_block_ground_state(self):
        form = decompose(FieldTensor([[0.0, 1.0], [-1.0, 0.0]]))
        assert landau_level(form, UNIT, [0]) == pytest.approx(0.5)

    def test_two_blocks_mixed_numbers(self):
        form = decompose(two_block_field(2.0, 1.0))
        assert landau_level(form, UNIT, [1, 0]) == pytest.approx(2.0 * 1.5 + 1.0 * 0.5)

    def test_spacing_is_hbar_omega_per_block(self):
        constants = PhysicalConstants(hbar=0.5)
        form = decompose(two_block_field(2.0, 1.0))
        omegas = cyclotron_frequencies(form, constants)
        for l in range(2):
            base = [3, 4]
            up = list(base)
            up[l] += 1
            gap = landau_level(form, constants, up) - landau_level(form, constants, base)
            assert gap == pytest.approx(constants.hbar * omegas[l])

    def test_strictly_increasing_in_each_number(self):
        form = decompose(two_block_field(2.0, 1.0))
        assert landau_level(form, UNIT, [1, 1]) > landau_level(form, UNIT, [0, 1])
        assert landau_level(form, UNIT, [1, 1]) > landau_level(form, UNIT, [1, 0])

    def test_validates_quantum_numbers(self):
        form = decompose(two_block_field())
        with pytest.raises(ValueError, match="expected 2"):
            landau_level(form, UNIT, [1])
        for bad in (-1, np.inf, np.nan):
            with pytest.raises(ValueError, match="non-negative"):
                landau_level(form, UNIT, [0, bad])


class TestClassifySpectrum:
    def test_planar_field_fully_discrete(self):
        report = classify_spectrum(decompose(FieldTensor([[0.0, 1.0], [-1.0, 0.0]])))
        assert report.fully_discrete is True
        assert report.free_count == 0
        assert report.num_blocks == 1

    def test_3d_field_has_continuum(self, rng):
        b = rng.standard_normal(3)
        report = classify_spectrum(decompose(field_from_3d_vector(b)))
        assert report.fully_discrete is False
        assert report.free_count == 1

    def test_two_block_4d_fully_discrete(self):
        report = classify_spectrum(decompose(two_block_field()))
        assert report.fully_discrete is True
        assert report.free_count == 0
        assert report.num_blocks == 2

    def test_ground_energy(self):
        constants = PhysicalConstants(hbar=2.0)
        report = classify_spectrum(decompose(two_block_field(2.0, 1.0)), constants)
        assert report.ground_energy == pytest.approx(2.0 * (2.0 + 1.0) / 2.0)

    def test_indefinite_metric_not_applicable(self):
        metric = MetricTensor.minkowski(4)
        report = classify_spectrum(decompose(two_block_field()), UNIT, metric)
        assert report.fully_discrete is None
        assert not report.metric_definite

    def test_definite_metric_keeps_boolean(self):
        metric = MetricTensor(np.diag([2.0, 1.0, 0.5, 1.5]))
        report = classify_spectrum(decompose(two_block_field()), UNIT, metric)
        assert report.fully_discrete is True
        assert report.metric_definite

    def test_gauge_invariance(self, rng):
        m = random_antisymmetric(rng, 4)
        h = FieldTensor(m)
        h1 = field_from_gauge(gauge_antisymmetric(h))
        h2 = field_from_gauge(gauge_triangular(h))
        w1 = cyclotron_frequencies(decompose(h1), UNIT)
        w2 = cyclotron_frequencies(decompose(h2), UNIT)
        np.testing.assert_array_equal(w1, w2)


class TestLevelListing:
    def test_empty_for_zero_field(self):
        form = decompose(FieldTensor(np.zeros((3, 3))))
        assert level_listing(form, UNIT, 5) == []

    def test_sorted_and_complete(self):
        form = decompose(two_block_field(2.0, 1.0))
        levels = level_listing(form, UNIT, 6)
        energies = [entry["energy"] for entry in levels]
        assert energies == sorted(energies)
        # brute-force oracle over a quantum-number box
        brute = sorted(landau_level(form, UNIT, [i, j])
                       for i in range(8) for j in range(8))[:6]
        np.testing.assert_allclose(energies, brute, atol=1e-12)

    def test_quantum_numbers_match_energies(self):
        constants = PhysicalConstants(hbar=0.7)
        form = decompose(two_block_field(2.0, 0.5))
        for entry in level_listing(form, constants, 12):
            assert entry["energy"] == pytest.approx(
                landau_level(form, constants, entry["quantum_numbers"]))

    @pytest.mark.parametrize("count", [1, 57, 300])
    def test_order_matches_a_sorted_enumeration(self, count):
        # Degenerate ladders (2, 2 and 1, 1) and ladders at integer multiples
        # of each other, so most energies are shared: the listing must be the
        # box enumeration sorted by (energy, multi-index), ties included.
        omegas = [3, 2, 2, 1, 1]
        form = CanonicalForm(np.eye(10), omegas)
        top = 16  # every multi-index with sum(omega * n) <= top lies in the box
        box = itertools.product(*(range(top // w + 1) for w in omegas))
        brute = sorted((sum(w * (k + 0.5) for w, k in zip(omegas, numbers)), list(numbers))
                       for numbers in box if sum(w * k for w, k in zip(omegas, numbers)) <= top)
        assert len(brute) >= count
        listing = level_listing(form, UNIT, count)
        assert [entry["quantum_numbers"] for entry in listing] == [n for _, n in brute[:count]]
        for entry in listing:
            exact = landau_level(form, UNIT, entry["quantum_numbers"])
            assert abs(entry["energy"] - exact) <= 2.0 ** -42 * exact

    @pytest.mark.parametrize("seed", [1, 2])
    def test_listing_independent_of_the_last_bits_of_the_strengths(self, seed):
        # Strengths 16, 32 and 48, each about three times, in a dense frame: a
        # signed, row-permuted 16x16 Sylvester-Hadamard matrix W (W W^T = 16 I).
        # Its levels come in degenerate shells, also across ladders (2 * 16 =
        # 32), which a nudge of 2 ulps must not reorder.
        rng = np.random.default_rng(seed)
        w = np.ones((1, 1))
        while w.shape[0] < 16:
            w = np.block([[w, w], [w, -w]])
        w = w[rng.permutation(16)] * rng.choice([-1.0, 1.0], 16)[:, None]
        values = np.sort(rng.integers(1, 4, 8))[::-1].astype(float)
        form = decompose(FieldTensor(w @ canonical_tensor(CanonicalForm(np.eye(16), values)) @ w.T))
        listing = level_listing(form, UNIT, 200)
        for direction in ([1.0] * 8, [-1.0] * 8, [1.0, -1.0] * 4, [-1.0, 1.0] * 4):
            nudged = form.strengths
            for _ in range(2):
                nudged = np.nextafter(nudged, np.multiply(direction, np.inf))
            other = level_listing(CanonicalForm(form.basis, np.sort(nudged)[::-1], form.frame),
                                  UNIT, 200)
            assert ([entry["quantum_numbers"] for entry in other]
                    == [entry["quantum_numbers"] for entry in listing])
            np.testing.assert_allclose([entry["energy"] for entry in other],
                                       [entry["energy"] for entry in listing], rtol=1e-13)
