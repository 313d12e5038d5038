import numpy as np
import pytest

from ncyclo import (
    AffineOperator,
    CanonicalCoords,
    CanonicalForm,
    FieldTensor,
    GaugeMatrix,
    MetricTensor,
    OrbitDecomposition,
    ParticleState,
    PhysicalConstants,
    SpectrumReport,
    Trajectory,
    check_radiation_gauge,
    dynamics_matrix,
    evolve_exact_trajectory,
    field_from_3d_vector,
    field_from_gauge,
    frobenius_norm,
    gauge_antisymmetric,
    gauge_triangular,
)
from ncyclo.config import RunConfig
from conftest import random_antisymmetric, random_gauge, random_orthogonal


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

    def test_antisymmetric_gauge_near_the_float_limit(self, rng):
        # g^-1 has entries near 1e3, so g^-1 * A overflowed entry by entry for
        # a gauge near 1e307; the contraction of unit-scaled factors scales
        # with the gauge by powers of two, bit for bit.
        q = random_orthogonal(rng, 4)
        g = q @ np.diag([1e-3, 1e-2, 1.0, 1e3]) @ q.T
        metric = MetricTensor((g + g.T) / 2.0)
        a = random_antisymmetric(rng, 4)
        residual = check_radiation_gauge(GaugeMatrix(a), metric)
        assert residual < 1e-14 * frobenius_norm(metric.inverse) * frobenius_norm(a)
        huge = check_radiation_gauge(GaugeMatrix(np.ldexp(a, 1018)), metric)
        assert huge == np.ldexp(residual, 1018)


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


class TestFrobeniusNorm:
    @pytest.mark.parametrize("scale", [1e-150, 1e-12, 1.0, 1e6, 1e150])
    def test_equals_numpy_in_range(self, rng, scale):
        for n in (2, 5, 16):
            m = scale * random_gauge(rng, n)
            assert frobenius_norm(m) == np.linalg.norm(m)

    @pytest.mark.parametrize("scale", [1e-300, 1e200])
    def test_no_overflow_or_underflow_far_from_unit_scale(self, rng, scale):
        m = random_gauge(rng, 5)
        assert frobenius_norm(scale * m) == pytest.approx(scale * np.linalg.norm(m),
                                                          rel=1e-15)

    def test_zero(self):
        assert frobenius_norm(np.zeros((3, 3))) == 0.0


class TestDomainTypes:
    def test_field_rejects_non_antisymmetric(self):
        with pytest.raises(ValueError, match=r"H\[0,1\]"):
            FieldTensor([[0.0, 1.0], [-0.5, 0.0]])

    def test_field_accepts_tiny_violation_and_cleans_it(self):
        h = FieldTensor([[0.0, 1.0 + 5e-15], [-1.0, 0.0]])
        assert np.all(h.matrix + h.matrix.T == 0.0)

    def test_field_antisymmetry_cut_is_relative(self):
        # One ulp of asymmetry passes at any scale; a tiny field that is not
        # antisymmetric at all is refused rather than antisymmetrized.
        for h in ([[0.0, 1.0], [-1.0000000000000002, 0.0]],
                  [[0.0, 1e6], [-1000000.0000000001, 0.0]]):
            field = FieldTensor(h)
            assert np.all(field.matrix + field.matrix.T == 0.0)
        with pytest.raises(ValueError,
                           match=r"not antisymmetric: H\[0,1\] \+ H\[1,0\] = 1\.000e-15"):
            FieldTensor([[0.0, 1e-15], [0.0, 0.0]])

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

    @pytest.mark.parametrize("make, diagonal", [
        (lambda: MetricTensor.euclidean(3), [1.0, 1.0, 1.0]),
        (lambda: MetricTensor.minkowski(4), [1.0, 1.0, 1.0, -1.0]),
        (lambda: MetricTensor([[4.0, 0.0], [0.0, 1.0]]), [4.0, 1.0]),
    ], ids=["euclidean", "minkowski", "anisotropic2d"])
    def test_diagonal_metric_factored_once_exactly(self, monkeypatch, make, diagonal):
        # One eigh of the metric gives the signature, the cut and the frame;
        # on a diagonal metric the inverse and both roots are exact, bit for
        # bit, signed zeros included.
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(m) or eigh(m))
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        d = np.array(diagonal)
        metric = make()
        assert metric.inverse.tobytes() == np.diag(1.0 / d).tobytes()
        assert metric.signature == (int((d > 0).sum()), int((d < 0).sum()))
        if metric.is_definite:
            sign, root, inverse_root = metric.frame
            assert sign == 1.0 and metric.frame is metric.frame
            assert root.tobytes() == np.diag(np.sqrt(d)).tobytes()
            assert inverse_root.tobytes() == np.diag(1.0 / np.sqrt(d)).tobytes()
        else:
            with pytest.raises(ValueError, match="indefinite"):
                metric.frame
        assert len(calls) == 1

    def test_metric_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            MetricTensor([[1.0, 0.5], [0.0, 1.0]])

    def test_symmetry_check_is_relative(self):
        # 10% asymmetric at any scale; a cut floored at 1 would pass it at 1e-13.
        skewed = 1e-13 * np.array([[1.0, 0.5], [0.4, 1.0]])
        with pytest.raises(ValueError, match="not symmetric"):
            MetricTensor(skewed)

    def test_metric_rejects_singular(self):
        with pytest.raises(ValueError, match="singular"):
            MetricTensor([[1.0, 1.0], [1.0, 1.0]])

    def test_metric_singularity_cut_is_relative(self):
        tiny = MetricTensor(1e-13 * np.eye(2))
        np.testing.assert_allclose(tiny.inverse, 1e13 * np.eye(2))
        with pytest.raises(ValueError, match="singular"):
            MetricTensor(np.diag([1.0, 1e-13]))

    @pytest.mark.parametrize("condition, accepted", [(1e6, True), (1e7, True), (1e13, False)])
    def test_metric_verdict_is_frame_invariant(self, rng, condition, accepted):
        # An inversion residual |g g^-1 - I| depends on the frame: at condition
        # 1e7 it refused most rotations of an accepted diagonal metric.
        diagonal = np.diag(np.logspace(0.0, np.log10(condition), 6))
        metrics = [diagonal] + [q @ diagonal @ q.T
                                for q in (random_orthogonal(rng, 6) for _ in range(200))]
        verdicts = []
        for g in metrics:
            try:
                MetricTensor(g)
            except ValueError as exc:
                assert "singular or too ill-conditioned" in str(exc) and "1e+12" in str(exc)
                verdicts.append(False)
            else:
                verdicts.append(True)
        assert verdicts == [accepted] * len(metrics)

    def test_constants_validation(self):
        with pytest.raises(ValueError, match="mass"):
            PhysicalConstants(mass=0.0)
        with pytest.raises(ValueError, match="charge"):
            PhysicalConstants(charge=0.0)
        with pytest.raises(ValueError, match="hbar"):
            PhysicalConstants(hbar=-1.0)
        assert PhysicalConstants(charge=-2.0, light_speed=4.0).coupling == -0.5

    @pytest.mark.parametrize("constants", [
        {"charge": 1e300, "light_speed": 1e-300},   # q/c overflows
        {"mass": 1e-320},                           # q/(m c) overflows
        {"mass": 1e-200, "light_speed": 1e-200},    # m c underflows to zero
    ])
    def test_constants_with_overflowing_ratios_refused(self, constants):
        with pytest.raises(ValueError, match=r"^q/c and q/\(m c\) must be finite"):
            PhysicalConstants(**constants)

    def test_field_past_the_float_range_refused(self):
        # 1e308 - (-1e308) overflows on symmetrization, and three pairs of
        # entries at 1e308 overflow the Frobenius norm.
        with pytest.raises(ValueError, match="leaves the floating-point range"):
            FieldTensor([[0.0, 1e308], [-1e308, 0.0]])
        with pytest.raises(ValueError, match="leaves the floating-point range"):
            field_from_3d_vector([8e307, 8e307, 8e307])

    def test_matrices_are_read_only(self):
        h = FieldTensor([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            h.matrix[0, 1] = 2.0


    def test_constants_compare_and_hash_by_value(self):
        # A value, as a frozen dataclass was: equal constants are one dict key.
        a, b = PhysicalConstants(mass=2.0, hbar=0.5), PhysicalConstants(mass=2.0, hbar=0.5)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        for other in (PhysicalConstants(mass=2.0), PhysicalConstants(mass=2.0, hbar=0.25)):
            assert a != other
        assert PhysicalConstants() == PhysicalConstants(1, 1, 1, 1)
        assert PhysicalConstants() != (1.0, 1.0, 1.0, 1.0)


VALUE_OBJECTS = {
    "MetricTensor": (lambda: MetricTensor([[4.0, 0.0], [0.0, 1.0]]),
                     ("matrix", "inverse", "signature", "frame")),
    "GaugeMatrix": (lambda: GaugeMatrix([[0.0, 1.0], [0.0, 0.0]]), ("matrix",)),
    "FieldTensor": (lambda: FieldTensor([[0.0, 1.0], [-1.0, 0.0]]), ("matrix",)),
    "PhysicalConstants": (PhysicalConstants, ("mass", "charge", "light_speed", "hbar")),
    "CanonicalForm": (lambda: CanonicalForm(np.eye(2), [1.0]), ("basis", "strengths", "frame")),
    "ParticleState": (lambda: ParticleState([0.0, 1.0], [1.0, 0.0]),
                      ("position", "momentum", "time")),
    "Trajectory": (lambda: Trajectory([0.0], [[0.0, 1.0]], [[1.0, 0.0]]),
                   ("time", "position", "momentum")),
    "CanonicalCoords": (lambda: CanonicalCoords([0.0, 1.0], [1.0, 0.0], [0.0, 0.0]),
                        ("position", "momentum", "dual_momentum")),
    "OrbitDecomposition": (lambda: OrbitDecomposition([[0.0, 1.0]], [[1.0, 0.0]], [], [0.5], 0.0),
                           ("centers", "relatives", "free_velocity", "block_energies",
                            "free_energy")),
    "AffineOperator": (lambda: AffineOperator(0.0, [1.0, 0.0], [0.0, 1.0]),
                       ("scalar", "position", "momentum", "hbar")),
    "SpectrumReport": (lambda: SpectrumReport([1.0], 0, True, 0.5),
                       ("frequencies", "free_count", "fully_discrete", "ground_energy",
                        "metric_definite")),
    "RunConfig": (lambda: RunConfig.from_dict({"n": 2, "field": [[0.0, 1.0], [-1.0, 0.0]]}),
                  ("n", "metric", "gauge", "field", "particle", "initial", "integration")),
}


@pytest.mark.parametrize("name", VALUE_OBJECTS)
def test_value_objects_are_read_only(name):
    # Assigning or deleting a field, or adding an attribute, raises
    # AttributeError and leaves the object as it was.
    make, names = VALUE_OBJECTS[name]
    value = make()
    for field in names:
        before = getattr(value, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(value, field)
        assert getattr(value, field) is before
    with pytest.raises(AttributeError):
        value.extra = 1


EMPTY_INPUTS = {
    "metric": lambda: MetricTensor(np.zeros((0, 0))),
    "field": lambda: FieldTensor(np.zeros((0, 0))),
    "gauge": lambda: GaugeMatrix(np.zeros((0, 0))),
    "basis": lambda: CanonicalForm(np.zeros((0, 0)), []),
    "position": lambda: ParticleState([], []),
    "coefficient": lambda: AffineOperator(0.0, [], []),
    "canonical": lambda: CanonicalCoords([], [], []),
    "trajectory": lambda: Trajectory(np.zeros(2), np.zeros((2, 0)), np.zeros((2, 0))),
}


@pytest.mark.parametrize("name", EMPTY_INPUTS)
def test_empty_inputs_are_refused_by_name(name):
    # n = 0 is no system: each constructor names its input instead of
    # accepting it or failing inside numpy.
    with pytest.raises(ValueError, match=f"^{name} .*must .*nonempty"):
        EMPTY_INPUTS[name]()


def test_a_trajectory_of_no_samples_keeps_its_dimension():
    # n = 0 is refused, but zero samples of n >= 1 are a trajectory.
    trajectory = Trajectory(np.zeros(0), np.zeros((0, 3)), np.zeros((0, 3)))
    assert len(trajectory) == 0 and trajectory.position.shape == (0, 3)


REFUSALS = {
    "state-dimensions": (lambda: ParticleState([0.0, 1.0], [1.0]),
                         r"^position and momentum must have one nonempty dimension, got 2 and 1$"),
    "state-not-finite": (lambda: ParticleState([0.0, np.nan], [1.0, 0.0]),
                         r"^particle state entries must be finite$"),
    "canonical-shapes": (lambda: CanonicalCoords([0.0, 1.0], [1.0, 0.0], [0.0]),
                         r"^canonical coordinate arrays must share one shape, n nonempty$"),
    "K-sizes": (lambda: dynamics_matrix(FieldTensor([[0.0, 1.0], [-1.0, 0.0]]),
                                        MetricTensor(np.eye(3)), PhysicalConstants()),
                r"^field is 2x2 but the metric is 3x3$"),
    "exact-steps": (lambda: evolve_exact_trajectory(
        ParticleState([0.0, 0.0], [1.0, 0.0]), np.zeros((2, 2)), MetricTensor(np.eye(2)),
        PhysicalConstants(), 0.1, 0), r"^steps must be at least 1$"),
    "operator-shapes": (lambda: AffineOperator(0.0, [1.0, 0.0], [1.0]),
                        r"^coefficient shapes \(2,\) and \(1,\) must be one \(n,\) or \(k, n\), "
                        r"n nonempty$"),
    "operator-hbar": (lambda: AffineOperator(0.0, [1.0, 0.0], [0.0, 1.0], hbar=0.0),
                      r"^hbar must be positive and finite$"),
    "Minkowski-n": (lambda: MetricTensor.minkowski(1),
                    r"^a Minkowski metric needs at least 2 dimensions$"),
    "light-speed": (lambda: PhysicalConstants(light_speed=0.0),
                    r"^light_speed must be positive and finite$"),
    "gauge-sizes": (lambda: check_radiation_gauge(GaugeMatrix(np.zeros((2, 2))),
                                                  MetricTensor(np.eye(3))),
                    r"^gauge is 2x2 but the metric is 3x3$"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_library_refusals_name_their_reason(case):
    # Each library-level refusal that the CLI's own config checks never reach.
    make, message = REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        make()
