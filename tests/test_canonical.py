import numpy as np
import pytest

from ncyclo import (
    CanonicalForm,
    FieldTensor,
    GammaTensor,
    ParticleState,
    PhysicalConstants,
    canonical_tensor,
    decompose,
    field_from_3d_vector,
    metric_singular_columns,
    orthonormality_residual,
    reconstruction_residual,
    to_canonical,
)
from conftest import random_antisymmetric, random_orthogonal, random_spd


def positive_imag_eigenvalues(matrix, cut=1e-10):
    """Independent oracle: positive imaginary parts of a complex eigensolve."""
    imag = np.linalg.eigvals(matrix).imag
    return np.sort(imag[imag > cut])[::-1]


class TestDecompose:
    def test_already_canonical_2d(self):
        h = FieldTensor([[0.0, 1.0], [-1.0, 0.0]])
        form = decompose(h)
        assert form.num_blocks == 1
        assert form.free_dims == 0
        np.testing.assert_allclose(form.strengths, [1.0])
        np.testing.assert_allclose(form.basis, np.eye(2), atol=1e-14)

    def test_3d_axis_field(self):
        form = decompose(field_from_3d_vector([0.0, 0.0, 2.0]))
        assert form.num_blocks == 1
        assert form.free_dims == 1
        np.testing.assert_allclose(form.strengths, [2.0])

    def test_random_5x5_matches_eigen_oracle(self, rng):
        m = random_antisymmetric(rng, 5)
        form = decompose(FieldTensor(m))
        oracle = positive_imag_eigenvalues(m)
        assert form.num_blocks == len(oracle)
        np.testing.assert_allclose(form.strengths, oracle, atol=1e-8)

    def test_round_trip_many_sizes(self, rng):
        for n in range(2, 9):
            for _ in range(25):
                m = random_antisymmetric(rng, n)
                h = FieldTensor(m)
                form = decompose(h)
                theta = canonical_tensor(form)
                b = form.basis
                scale = np.linalg.norm(m)
                assert np.linalg.norm(b @ theta @ b.T - m) <= 1e-10 * scale
                assert np.linalg.norm(b.T @ b - np.eye(n)) <= 1e-10

    def test_eigenvalue_multiset_including_zeros(self, rng):
        m = random_antisymmetric(rng, 7)
        form = decompose(FieldTensor(m))
        expected = np.sort(np.concatenate(
            [form.strengths, -form.strengths, np.zeros(form.free_dims)]))
        actual = np.sort(np.linalg.eigvals(m).imag)
        np.testing.assert_allclose(actual, expected, atol=1e-8)

    def test_two_n_at_most_n(self, rng):
        for n in (2, 3, 4, 5, 6):
            form = decompose(FieldTensor(random_antisymmetric(rng, n)))
            assert 2 * form.num_blocks <= n
            assert form.free_dims == n - 2 * form.num_blocks
            assert form.free_dims >= 0

    def test_invariance_under_orthogonal_conjugation(self, rng):
        for _ in range(10):
            m = random_antisymmetric(rng, 5)
            q = random_orthogonal(rng, 5)
            a = decompose(FieldTensor(m)).strengths
            b = decompose(FieldTensor(q.T @ m @ q)).strengths
            np.testing.assert_allclose(a, b, atol=1e-8)

    def test_degenerate_equal_blocks(self):
        c = 1.5
        m = np.zeros((4, 4))
        m[0, 1], m[1, 0] = c, -c
        m[2, 3], m[3, 2] = c, -c
        h = FieldTensor(m)
        form = decompose(h)
        np.testing.assert_allclose(form.strengths, [c, c])
        assert orthonormality_residual(form) <= 1e-12
        assert reconstruction_residual(form, h) <= 1e-12

    def test_zero_field(self):
        form = decompose(FieldTensor(np.zeros((3, 3))))
        assert form.num_blocks == 0
        assert form.free_dims == 3
        assert orthonormality_residual(form) <= 1e-12
        assert np.all(canonical_tensor(form) == 0.0)

    def test_block_count_independent_of_field_scale(self):
        m = random_antisymmetric(np.random.default_rng(16), 16)
        reference = decompose(FieldTensor(m))
        assert reference.num_blocks == 8
        for scale in (1e-12, 1e6):
            form = decompose(FieldTensor(scale * m))
            assert form.num_blocks == reference.num_blocks
            np.testing.assert_allclose(form.strengths, scale * reference.strengths, rtol=1e-10)

    def test_general_gamma(self, rng):
        for _ in range(10):
            n = 5
            m = random_antisymmetric(rng, n)
            gamma = GammaTensor(random_spd(rng, n))
            h = FieldTensor(m)
            form = decompose(h, gamma)
            assert orthonormality_residual(form, gamma) <= 1e-10
            assert reconstruction_residual(form, h) <= 1e-10
            oracle = positive_imag_eigenvalues(np.linalg.inv(gamma.matrix) @ m)
            np.testing.assert_allclose(form.strengths, oracle, atol=1e-8)

    def test_deterministic(self, rng):
        m = random_antisymmetric(rng, 6)
        f1 = decompose(FieldTensor(m))
        f2 = decompose(FieldTensor(m))
        np.testing.assert_array_equal(f1.basis, f2.basis)
        np.testing.assert_array_equal(f1.strengths, f2.strengths)

    def test_rejects_mismatched_gamma(self):
        with pytest.raises(ValueError, match="gamma"):
            decompose(FieldTensor(np.zeros((3, 3))), GammaTensor(np.eye(2)))

    def test_gamma_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            GammaTensor(np.diag([1.0, -1.0]))


class TestCanonicalTensor:
    def test_single_block(self):
        form = CanonicalForm(np.eye(2), [3.0])
        np.testing.assert_array_equal(canonical_tensor(form), [[0.0, 3.0], [-3.0, 0.0]])

    def test_two_blocks_with_free_dim(self):
        form = CanonicalForm(np.eye(5), [2.0, 1.0])
        theta = canonical_tensor(form)
        expected = np.zeros((5, 5))
        expected[0, 1], expected[1, 0] = 2.0, -2.0
        expected[2, 3], expected[3, 2] = 1.0, -1.0
        np.testing.assert_array_equal(theta, expected)
        assert np.linalg.matrix_rank(theta) == 4

    def test_empty(self):
        form = CanonicalForm(np.eye(3), [])
        assert np.all(canonical_tensor(form) == 0.0)

    def test_rejects_unsorted_strengths(self):
        with pytest.raises(ValueError, match="descending"):
            CanonicalForm(np.eye(4), [1.0, 2.0])

    def test_rejects_too_many_blocks(self):
        with pytest.raises(ValueError, match="blocks"):
            CanonicalForm(np.eye(3), [2.0, 1.0])


class TestToCanonical:
    def test_frozen_2d_example(self):
        # hand evaluation: p_dual = p - H x = (0, 1); identity basis
        h = FieldTensor([[0.0, 1.0], [-1.0, 0.0]])
        form = decompose(h)
        state = ParticleState([1.0, 0.0], [0.0, 0.0])
        coords = to_canonical(form, state, h, PhysicalConstants())
        np.testing.assert_allclose(coords.position, [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(coords.momentum, [0.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(coords.dual_momentum, [0.0, 1.0], atol=1e-14)
        lhs = canonical_tensor(form) @ coords.position
        np.testing.assert_allclose(lhs, coords.momentum - coords.dual_momentum, atol=1e-14)

    def test_zero_state(self, rng):
        h = FieldTensor(random_antisymmetric(rng, 4))
        form = decompose(h)
        coords = to_canonical(form, ParticleState(np.zeros(4), np.zeros(4)),
                              h, PhysicalConstants())
        assert np.all(coords.position == 0.0)
        assert np.all(coords.momentum == 0.0)
        assert np.all(coords.dual_momentum == 0.0)

    def test_block_identity_random_states(self, rng):
        constants = PhysicalConstants(mass=1.3, charge=-0.7, light_speed=2.0)
        for n in (2, 3, 5, 6):
            h = FieldTensor(random_antisymmetric(rng, n))
            form = decompose(h)
            theta = canonical_tensor(form)
            for _ in range(10):
                state = ParticleState(rng.standard_normal(n), rng.standard_normal(n))
                coords = to_canonical(form, state, h, constants)
                gap = theta @ coords.position - (coords.momentum - coords.dual_momentum)
                assert np.abs(gap).max() <= 1e-10

    def test_block_identity_general_gamma(self, rng):
        n = 4
        h = FieldTensor(random_antisymmetric(rng, n))
        gamma = GammaTensor(random_spd(rng, n))
        form = decompose(h, gamma)
        theta = canonical_tensor(form)
        state = ParticleState(rng.standard_normal(n), rng.standard_normal(n))
        coords = to_canonical(form, state, h, PhysicalConstants())
        gap = theta @ coords.position - (coords.momentum - coords.dual_momentum)
        assert np.abs(gap).max() <= 1e-10

    def test_dimension_mismatch(self):
        h = FieldTensor([[0.0, 1.0], [-1.0, 0.0]])
        form = decompose(h)
        with pytest.raises(ValueError, match="dimensions"):
            to_canonical(form, ParticleState([0.0] * 3, [0.0] * 3), h, PhysicalConstants())


class TestMetricSingularColumns:
    def test_null_direction_is_flagged(self):
        basis = np.array([
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1 / np.sqrt(2), 1 / np.sqrt(2)],
            [0.0, 0.0, 1 / np.sqrt(2), -1 / np.sqrt(2)],
        ])
        form = CanonicalForm(basis, [1.0])
        minkowski = np.diag([1.0, 1.0, 1.0, -1.0])
        assert metric_singular_columns(form, minkowski) == [2, 3]
        assert metric_singular_columns(form, np.eye(4)) == []
