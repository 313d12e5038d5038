import numpy as np
import pytest

from ncyclo import (
    FieldTensor,
    GammaTensor,
    GaugeMatrix,
    MetricTensor,
    PhysicalConstants,
    check_radiation_gauge,
    field_from_3d_vector,
    field_from_gauge,
    gauge_antisymmetric,
    gauge_triangular,
)
from conftest import random_antisymmetric, random_gauge


class TestFieldFromGauge:
    def test_antisymmetric_gauge_unit_field(self):
        a = GaugeMatrix([[0.0, 0.5], [-0.5, 0.0]])
        h = field_from_gauge(a)
        np.testing.assert_array_equal(h.matrix, [[0.0, 1.0], [-1.0, 0.0]])

    def test_symmetric_gauge_gives_zero_field(self, rng):
        m = rng.standard_normal((4, 4))
        h = field_from_gauge(GaugeMatrix(m + m.T))
        np.testing.assert_array_equal(h.matrix, np.zeros((4, 4)))

    def test_landau_type_gauge(self):
        h = field_from_gauge(GaugeMatrix([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_array_equal(h.matrix, [[0.0, 1.0], [-1.0, 0.0]])

    def test_result_exactly_antisymmetric(self, rng):
        for n in (2, 3, 5, 7):
            h = field_from_gauge(GaugeMatrix(random_gauge(rng, n, scale=10.0)))
            assert np.all(h.matrix + h.matrix.T == 0.0)

    def test_symmetric_shift_invariance(self, rng):
        for _ in range(20):
            a = random_gauge(rng, 4)
            s = rng.standard_normal((4, 4))
            s = s + s.T
            h1 = field_from_gauge(GaugeMatrix(a))
            h2 = field_from_gauge(GaugeMatrix(a + s))
            np.testing.assert_allclose(h1.matrix, h2.matrix, atol=1e-13)


class TestGaugesOfField:
    def test_antisymmetric_is_half(self):
        h = FieldTensor([[0.0, 2.0], [-2.0, 0.0]])
        a = gauge_antisymmetric(h)
        np.testing.assert_array_equal(a.matrix, [[0.0, 1.0], [-1.0, 0.0]])

    def test_zero_field_zero_gauges(self):
        h = FieldTensor(np.zeros((3, 3)))
        assert np.all(gauge_antisymmetric(h).matrix == 0.0)
        assert np.all(gauge_triangular(h).matrix == 0.0)

    def test_triangular_is_strict_upper(self):
        h = FieldTensor([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(gauge_triangular(h).matrix, [[0.0, 1.0], [0.0, 0.0]])

    def test_triangular_two_blocks_round_trip(self):
        h = np.zeros((4, 4))
        h[0, 1], h[1, 0] = 1.0, -1.0
        h[2, 3], h[3, 2] = 2.0, -2.0
        field = FieldTensor(h)
        a = gauge_triangular(field)
        expected = np.zeros((4, 4))
        expected[0, 1], expected[2, 3] = 1.0, 2.0
        np.testing.assert_array_equal(a.matrix, expected)
        assert np.all(np.diag(a.matrix) == 0.0)
        np.testing.assert_array_equal(field_from_gauge(a).matrix, h)

    def test_both_gauges_right_invert_field_from_gauge(self, rng):
        for n in (2, 4, 5):
            h = FieldTensor(random_antisymmetric(rng, n))
            for gauge in (gauge_antisymmetric(h), gauge_triangular(h)):
                np.testing.assert_array_equal(field_from_gauge(gauge).matrix, h.matrix)


class TestRadiationGauge:
    def test_antisymmetric_gauge_identity_metric(self, rng):
        a = GaugeMatrix(random_antisymmetric(rng, 4))
        assert check_radiation_gauge(a, MetricTensor.euclidean(4)) == 0.0

    def test_zero_diagonal_gauge(self):
        a = GaugeMatrix([[0.0, 1.0], [0.0, 0.0]])
        assert check_radiation_gauge(a, MetricTensor.euclidean(2)) == 0.0

    def test_identity_gauge_traces(self):
        a = GaugeMatrix(np.eye(2))
        assert check_radiation_gauge(a, MetricTensor.euclidean(2)) == pytest.approx(2.0)

    def test_antisymmetric_gauge_any_diagonal_metric(self, rng):
        for _ in range(10):
            diag = np.exp(rng.standard_normal(5))
            metric = MetricTensor(np.diag(diag))
            a = GaugeMatrix(random_antisymmetric(rng, 5))
            assert check_radiation_gauge(a, metric) < 1e-14


class TestFieldFrom3dVector:
    def test_axis_aligned(self):
        h = field_from_3d_vector([0.0, 0.0, 1.0])
        np.testing.assert_array_equal(
            h.matrix, [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

    def test_zero_vector(self):
        assert np.all(field_from_3d_vector([0.0, 0.0, 0.0]).matrix == 0.0)

    def test_ones_vector(self):
        # expanding eps_jkm B^m by hand for B = (1, 1, 1)
        h = field_from_3d_vector([1.0, 1.0, 1.0])
        np.testing.assert_array_equal(
            h.matrix, [[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -1.0, 0.0]])

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="3-vector"):
            field_from_3d_vector([1.0, 2.0])


class TestDomainTypes:
    def test_field_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError, match=r"H\[0,1\]"):
            FieldTensor([[0.0, 1.0], [-0.5, 0.0]])

    def test_field_accepts_tiny_violation_and_cleans_it(self):
        h = FieldTensor([[0.0, 1.0 + 5e-15], [-1.0, 0.0]])
        assert np.all(h.matrix + h.matrix.T == 0.0)

    def test_field_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            FieldTensor([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])

    def test_metric_inverse_and_signature(self):
        g = MetricTensor.minkowski(4)
        np.testing.assert_allclose(g.matrix @ g.inverse, np.eye(4), atol=1e-12)
        assert g.signature == (3, 1)
        assert not g.is_definite
        assert MetricTensor.euclidean(3).signature == (3, 0)
        assert MetricTensor.euclidean(3).is_definite

    def test_metric_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            MetricTensor([[1.0, 0.5], [0.0, 1.0]])

    def test_symmetry_check_is_relative(self):
        # 10% asymmetric at any scale; a cut floored at 1 would pass it at 1e-13.
        skewed = 1e-13 * np.array([[1.0, 0.5], [0.4, 1.0]])
        for cls in (MetricTensor, GammaTensor):
            with pytest.raises(ValueError, match="not symmetric"):
                cls(skewed)

    def test_metric_rejects_singular(self):
        with pytest.raises(ValueError, match="singular"):
            MetricTensor([[1.0, 1.0], [1.0, 1.0]])

    def test_metric_singularity_cut_is_relative(self):
        tiny = MetricTensor(1e-13 * np.eye(2))
        np.testing.assert_allclose(tiny.inverse, 1e13 * np.eye(2))
        with pytest.raises(ValueError, match="singular"):
            MetricTensor(np.diag([1.0, 1e-13]))

    def test_constants_validation(self):
        with pytest.raises(ValueError, match="mass"):
            PhysicalConstants(mass=0.0)
        with pytest.raises(ValueError, match="charge"):
            PhysicalConstants(charge=0.0)
        with pytest.raises(ValueError, match="hbar"):
            PhysicalConstants(hbar=-1.0)
        assert PhysicalConstants(charge=-2.0, light_speed=4.0).coupling == -0.5

    def test_associated_field_is_negation(self, rng):
        h = FieldTensor(random_antisymmetric(rng, 4))
        np.testing.assert_array_equal(h.associated.matrix, -h.matrix)

    def test_matrices_are_read_only(self):
        h = FieldTensor([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            h.matrix[0, 1] = 2.0
