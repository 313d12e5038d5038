import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncyclo import (
    CanonicalForm,
    FieldTensor,
    MetricTensor,
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
        # From the smallest subnormal to near the float limit the block is
        # its own strength: no rounding of the field before the eigensolve.
        for s in (1.0, 5e-324, 8.9e307):
            form = decompose(FieldTensor([[0.0, s], [-s, 0.0]]))
            assert form.num_blocks == 1
            assert form.free_dims == 0
            np.testing.assert_allclose(form.strengths, [s], rtol=2e-16, atol=0)
            np.testing.assert_array_equal(form.basis, np.eye(2))

    def test_3d_axis_field(self):
        form = decompose(field_from_3d_vector([0.0, 0.0, 2.0]))
        assert form.num_blocks == 1
        assert form.free_dims == 1
        np.testing.assert_allclose(form.strengths, [2.0])

    def test_block_form_keeps_the_identity_basis(self):
        five = np.zeros((5, 5))
        five[0, 1], five[1, 0] = 1.5, -1.5
        # n = 256: the Euclidean frame's roots are exactly I, so whitening by
        # them changes no bit of the field or of the basis.
        wide = canonical_tensor(CanonicalForm(np.eye(256), np.arange(128, 0, -1) / 7.0))
        for h in (field_from_3d_vector([0.0, 0.0, 2.0]), FieldTensor(five),
                  FieldTensor(np.zeros((4, 4))), FieldTensor(wide)):
            np.testing.assert_array_equal(decompose(h).basis, np.eye(h.n))

    def test_free_columns_are_an_orthonormal_kernel_basis(self, rng):
        # One block in a rotated frame leaves a four-dimensional kernel, whose
        # basis the block form alone does not fix.
        n = 6
        q = random_orthogonal(rng, n)
        m = q @ canonical_tensor(CanonicalForm(np.eye(n), [1.5])) @ q.T
        h = FieldTensor((m - m.T) / 2.0)
        for metric in (None, MetricTensor(random_spd(rng, n))):
            form = decompose(h, metric)
            assert form.free_dims == 4
            g, pairs, free = form.frame, form.basis[:, :2], form.basis[:, 2:]
            np.testing.assert_allclose(free.T @ g @ free, np.eye(4), rtol=0, atol=1e-14)
            np.testing.assert_allclose(pairs.T @ g @ free, 0.0, rtol=0, atol=1e-14)
            # The sign rule holds in the whitened coordinates G^(1/2) B.
            w, v = np.linalg.eigh(g)
            white = (v * np.sqrt(w)) @ v.T @ free
            assert np.all(white[np.argmax(np.abs(white), axis=0), np.arange(4)] > 0)

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
        # Two equal blocks in the canonical frame, and integer blocks 1..3
        # conjugated by a 64x64 Sylvester-Hadamard matrix W (W W^T = 64 I): each
        # strength 64, 128 or 192 repeats about ten times in a dense frame.
        c = 1.5
        m = np.zeros((4, 4))
        m[0, 1], m[1, 0] = c, -c
        m[2, 3], m[3, 2] = c, -c
        w = np.ones((1, 1))
        while w.shape[0] < 64:
            w = np.block([[w, w], [w, -w]])
        values = np.sort(np.random.default_rng(64).integers(1, 4, 32))[::-1]
        dense = w @ canonical_tensor(CanonicalForm(np.eye(64), values)) @ w.T
        for tensor, expected in ((m, [c, c]), (dense, 64 * values)):
            h = FieldTensor(tensor)
            form = decompose(h)
            np.testing.assert_allclose(form.strengths, expected, rtol=1e-10)
            assert orthonormality_residual(form) <= 1e-12
            assert reconstruction_residual(form, h) <= 1e-12
            np.testing.assert_array_equal(decompose(h).basis, form.basis)

    def test_zero_field(self):
        form = decompose(FieldTensor(np.zeros((3, 3))))
        assert form.num_blocks == 0
        assert form.free_dims == 3
        assert orthonormality_residual(form) <= 1e-12
        assert np.all(canonical_tensor(form) == 0.0)

    def test_block_count_independent_of_field_scale(self):
        # A dense generic field, and one in a rotated frame whose two blocks
        # are nine orders of magnitude apart, both far above the zero cut.
        # The small strength is exact only to the roundoff of the whole
        # tensor, so its tolerance is a share of the largest strength.
        q = random_orthogonal(np.random.default_rng(5), 5)
        spread = q @ canonical_tensor(CanonicalForm(np.eye(5), [1.0, 1e-9])) @ q.T
        cases = [(random_antisymmetric(np.random.default_rng(16), 16), 8, 0.0),
                 ((spread - spread.T) / 2.0, 2, 1e-14)]
        for m, blocks, share in cases:
            reference = decompose(FieldTensor(m))
            assert reference.num_blocks == blocks
            for scale in (1.0, 1e-12, 1e6, 1e-300, 1e200):
                h = FieldTensor(scale * m)
                form = decompose(h)
                assert form.num_blocks == reference.num_blocks
                assert form.free_dims == m.shape[0] - 2 * blocks
                np.testing.assert_allclose(form.strengths, scale * reference.strengths,
                                           rtol=1e-10, atol=share * form.strengths[0])
                assert orthonormality_residual(form) <= 1e-12
                assert reconstruction_residual(form, h) <= 1e-12

    def test_general_gamma(self, rng):
        # The frame of a definite metric g is g, or -g when negative definite;
        # either way the strengths are the eigenvalues of g^-1 H.
        for _ in range(10):
            n = 5
            m = random_antisymmetric(rng, n)
            spd = random_spd(rng, n)
            h = FieldTensor(m)
            for metric in (MetricTensor(spd), MetricTensor(-spd)):
                form = decompose(h, metric)
                assert orthonormality_residual(form) <= 1e-10
                assert reconstruction_residual(form, h) <= 1e-10
                oracle = positive_imag_eigenvalues(np.linalg.inv(metric.matrix) @ m)
                np.testing.assert_allclose(form.strengths, oracle, atol=1e-8)

    def test_negative_definite_metric_is_its_negation(self, rng):
        h = FieldTensor(random_antisymmetric(rng, 5))
        spd = random_spd(rng, 5)
        positive, negative = decompose(h, MetricTensor(spd)), decompose(h, MetricTensor(-spd))
        np.testing.assert_array_equal(negative.basis, positive.basis)
        np.testing.assert_array_equal(negative.strengths, positive.strengths)

    def test_deterministic(self, rng):
        m = random_antisymmetric(rng, 6)
        f1 = decompose(FieldTensor(m))
        f2 = decompose(FieldTensor(m))
        np.testing.assert_array_equal(f1.basis, f2.basis)
        np.testing.assert_array_equal(f1.strengths, f2.strengths)

    def test_rejects_mismatched_gamma(self):
        with pytest.raises(ValueError, match="^metric is 2x2 but the field tensor is 3x3$"):
            decompose(FieldTensor(np.zeros((3, 3))), MetricTensor.euclidean(2))

    def test_rejects_indefinite_metric(self):
        # An indefinite metric has no frame; the identity is asked for with None.
        h = FieldTensor([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="indefinite"):
            decompose(h, MetricTensor.minkowski(2))

    def test_form_carries_its_frame(self, rng):
        n = 5
        h = FieldTensor(random_antisymmetric(rng, n))
        spd = MetricTensor(random_spd(rng, n))
        positive, negative = decompose(h, spd), decompose(h, MetricTensor(-spd.matrix))
        np.testing.assert_array_equal(positive.frame, spd.matrix)
        # The frame of -g is -(-g), and negation is exact.
        np.testing.assert_array_equal(negative.frame, spd.matrix)
        np.testing.assert_array_equal(decompose(h).frame, np.eye(n))
        with pytest.raises(ValueError, match="read-only"):
            positive.frame[0, 0] = 1.0
        with pytest.raises(ValueError, match="^frame is 2x2 but the basis is 3x3$"):
            CanonicalForm(np.eye(3), [1.0], frame=np.eye(2))
        b = positive.basis
        assert orthonormality_residual(positive) == np.linalg.norm(b.T @ spd.matrix @ b
                                                                   - np.eye(n))


def planted_field(seed, n, clustered):
    """A field with known strengths in a random frame: descending ones in
    ``(0.1, 1]``, then, when ``clustered``, a cluster of near-equal strengths
    at 1e-9, still above the zero cut (the Frobenius norm stays below 6)."""
    rng = np.random.default_rng(seed)
    blocks = int(rng.integers(0, n // 2 + 1))
    tiny = int(rng.integers(1, blocks + 1)) if clustered and blocks else 0
    strengths = np.concatenate([np.sort(rng.uniform(0.1, 1.0, blocks - tiny))[::-1],
                                1e-9 * (1.0 + 1e-3 * np.arange(tiny, 0, -1))])
    q = random_orthogonal(rng, n)
    m = q @ canonical_tensor(CanonicalForm(np.eye(n), strengths)) @ q.T
    return (m - m.T) / 2.0, blocks, random_orthogonal(rng, n)


class TestFactorizationProperties:
    """Invariants of decompose under change of frame and of units."""

    # A failing example makes hypothesis import libcst, whose own deprecation
    # warning would otherwise turn the report into a pytest internal error.
    @pytest.mark.filterwarnings("ignore:mypy_extensions.TypedDict:DeprecationWarning")
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 32), clustered=st.booleans(),
           log_scale=st.floats(-12.0, 6.0))
    def test_rotation_and_scale(self, seed, n, clustered, log_scale):
        m, blocks, q = planted_field(seed, n, clustered)
        scale = 10.0 ** log_scale
        reference = decompose(FieldTensor(m))
        assert reference.num_blocks == blocks
        for tensor, factor in ((m, 1.0), (q.T @ m @ q, 1.0), (scale * m, scale)):
            h = FieldTensor(tensor)
            form = decompose(h)
            assert form.num_blocks == blocks
            top = 1e-13 * factor * max(reference.strengths[:1], default=0.0)
            np.testing.assert_allclose(form.strengths, factor * reference.strengths,
                                       rtol=0, atol=top)
            moduli = np.sort(np.abs(np.linalg.eigvals(h.matrix)))[::-1]
            np.testing.assert_allclose(form.strengths, moduli[:2 * blocks:2], rtol=0, atol=top)
            assert orthonormality_residual(form) <= 1e-13 * n
            assert reconstruction_residual(form, h) <= 1e-13 * n


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
        form = decompose(h, MetricTensor(random_spd(rng, n)))
        theta = canonical_tensor(form)
        state = ParticleState(rng.standard_normal(n), rng.standard_normal(n))
        coords = to_canonical(form, state, h, PhysicalConstants())
        gap = theta @ coords.position - (coords.momentum - coords.dual_momentum)
        assert np.abs(gap).max() <= 1e-10

    def test_block_identity_ill_conditioned_frames(self):
        # decompose's whitening leaves the basis G-orthonormal only to about
        # cond(G) roundoffs, so the position is solved from B xi = x rather
        # than read off as B^T G x: at condition 1e6 the shortcut misses the
        # block equations by ~1e-10 of the dual gap, solve by ~1e-13.
        rng = np.random.default_rng(6)
        constants = PhysicalConstants(mass=1.3, charge=-0.7, light_speed=2.0)
        n = 6
        for cond in (1e4, 1e5, 1e6):
            for _ in range(3):
                spectrum = np.logspace(0.0, np.log10(cond), n)
                q = random_orthogonal(rng, n)
                h = FieldTensor(random_antisymmetric(rng, n))
                form = decompose(h, MetricTensor(q @ np.diag(spectrum) @ q.T))
                theta = canonical_tensor(form)
                for _ in range(10):
                    state = ParticleState(rng.standard_normal(n), rng.standard_normal(n))
                    coords = to_canonical(form, state, h, constants)
                    gap = coords.momentum - coords.dual_momentum
                    miss = np.abs(theta @ coords.position - gap).max()
                    assert miss <= 1e-12 * np.abs(gap).max()

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
        # The cut is relative to the metric's own scale.
        assert metric_singular_columns(form, 1e-13 * minkowski) == [2, 3]
        assert metric_singular_columns(form, 1e-13 * np.eye(4)) == []
