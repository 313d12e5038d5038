import numpy as np
import pytest
import sympy as sp

from ncyclo import (
    AffineOperator,
    FieldTensor,
    GaugeMatrix,
    PhysicalConstants,
    canonical_momentum,
    commutator,
    dual_momentum,
    field_from_gauge,
    gauge_antisymmetric,
    gauge_triangular,
    translation_phase,
)
from conftest import random_antisymmetric, random_gauge


def apply_symbolically(op, expr, xs):
    """Independent oracle: apply an affine operator to a sympy expression."""
    hbar = sp.Rational(op.hbar) if op.hbar == int(op.hbar) else sp.Float(op.hbar)
    out = sp.Integer(0)
    s = op.scalar
    out += (sp.nsimplify(s.real) + sp.I * sp.nsimplify(s.imag)) * expr
    for k, x in enumerate(xs):
        a = op.position[k]
        b = op.momentum[k]
        out += (sp.nsimplify(a.real) + sp.I * sp.nsimplify(a.imag)) * x * expr
        out += (sp.nsimplify(b.real) + sp.I * sp.nsimplify(b.imag)) * (-sp.I * hbar) * sp.diff(expr, x)
    return sp.expand(out)


class TestMomentumConstruction:
    def test_free_particle_is_pure_derivative(self):
        p = canonical_momentum(GaugeMatrix(np.zeros((3, 3))), PhysicalConstants(), 1)
        assert np.all(p.position == 0.0)
        np.testing.assert_array_equal(p.momentum, [0.0, 1.0, 0.0])
        assert p.scalar == 0.0

    def test_antisymmetric_gauge_coefficients(self):
        # A = H/2 with H12 = B: the x2 coefficient of p1 is +(q/c) B/2
        b_field = 3.0
        gauge = GaugeMatrix([[0.0, b_field / 2], [-b_field / 2, 0.0]])
        constants = PhysicalConstants(charge=2.0, light_speed=4.0)
        p1 = canonical_momentum(gauge, constants, 0)
        np.testing.assert_allclose(p1.position, [0.0, (2.0 / 4.0) * b_field / 2])

    def test_landau_gauge_coefficients(self):
        b_field = 2.0
        gauge = GaugeMatrix([[0.0, b_field], [0.0, 0.0]])
        constants = PhysicalConstants()
        p1 = canonical_momentum(gauge, constants, 0)
        p2 = canonical_momentum(gauge, constants, 1)
        assert np.all(p1.position == 0.0)
        np.testing.assert_allclose(p2.position, [-b_field, 0.0])

    def test_dual_equals_momentum_for_zero_gauge(self):
        gauge = GaugeMatrix(np.zeros((2, 2)))
        constants = PhysicalConstants()
        for j in range(2):
            p = canonical_momentum(gauge, constants, j)
            d = dual_momentum(gauge, constants, j)
            np.testing.assert_array_equal(p.position, d.position)
            np.testing.assert_array_equal(p.momentum, d.momentum)
            assert p.scalar == d.scalar

    def test_dual_minus_canonical_is_field_row(self, rng):
        constants = PhysicalConstants(charge=-1.5, light_speed=3.0)
        gauge = GaugeMatrix(random_gauge(rng, 4))
        h = field_from_gauge(gauge)
        for j in range(4):
            dual, kin = dual_momentum(gauge, constants, j), canonical_momentum(gauge, constants, j)
            assert np.all(dual.momentum - kin.momentum == 0.0)
            np.testing.assert_allclose(dual.position - kin.position,
                                       -constants.coupling * h.matrix[j, :], atol=1e-14)
        # The same for the stacks of all components: one row per component.
        index = np.arange(4)
        dual = dual_momentum(gauge, constants, index)
        kin = canonical_momentum(gauge, constants, index)
        diff = dual.momentum - kin.momentum
        assert diff.shape == (4, 4) and np.all(diff == 0.0)
        np.testing.assert_allclose(dual.position - kin.position, -constants.coupling * h.matrix,
                                   atol=1e-14)

    def test_antisymmetric_gauge_dual_flips_gauge_sign(self, rng):
        constants = PhysicalConstants()
        h = FieldTensor(random_antisymmetric(rng, 3))
        gauge = gauge_antisymmetric(h)
        for j in range(3):
            d = dual_momentum(gauge, constants, j)
            np.testing.assert_allclose(d.position, +constants.coupling * gauge.matrix[:, j],
                                       atol=1e-15)

    def test_index_out_of_range(self):
        gauge = GaugeMatrix(np.zeros((2, 2)))
        with pytest.raises(IndexError):
            canonical_momentum(gauge, PhysicalConstants(), 2)
        with pytest.raises(IndexError):
            dual_momentum(gauge, PhysicalConstants(), -1)
        # An index array must not wrap a negative entry around.
        for index in ([0, 2], [-1, 1]):
            with pytest.raises(IndexError):
                canonical_momentum(gauge, PhysicalConstants(), np.array(index))
            with pytest.raises(IndexError):
                dual_momentum(gauge, PhysicalConstants(), np.array(index))


def with_dtype(op, dtype):
    """The same operator with its coefficients cast to ``dtype``."""
    return AffineOperator(op.scalar, op.position.astype(dtype), op.momentum.astype(dtype), op.hbar)


class TestCoefficientTypes:
    def test_real_coefficients_stay_real(self, rng):
        gauge = GaugeMatrix(random_gauge(rng, 4))
        for build in (canonical_momentum, dual_momentum):
            for index in (1, np.arange(4)):
                op = build(gauge, PhysicalConstants(charge=-1.5), index)
                assert op.position.dtype == op.momentum.dtype == np.float64
        op = AffineOperator(2, [1, 0], [0, 1])
        assert op.position.dtype == op.momentum.dtype == np.float64
        assert op.scalar.dtype == np.complex128

    def test_complex_coefficients_stay_complex(self):
        for position, momentum in (([1j, 0.0], [0.0, 1.0]), ([1.0, 0.0], [0.0, 1.0 + 2j])):
            op = AffineOperator(0.0, position, momentum)
            assert op.position.dtype == op.momentum.dtype == np.complex128
            np.testing.assert_array_equal(op.position, position)
            np.testing.assert_array_equal(op.momentum, momentum)

    def test_verify_stacks_equal_the_complex_tables_bit_for_bit(self, rng):
        # Every momentum row is a unit row, so each product picks out one
        # position coefficient exactly, in real and in complex arithmetic.
        constants = PhysicalConstants(charge=-1.3, light_speed=2.0, hbar=0.7)
        gauge = GaugeMatrix(random_gauge(rng, 64))
        index = np.arange(64)
        stacks = (canonical_momentum(gauge, constants, index),
                  dual_momentum(gauge, constants, index))
        for a, b in ((0, 0), (1, 1), (0, 1)):
            real = commutator(stacks[a], stacks[b])
            full = commutator(with_dtype(stacks[a], complex), with_dtype(stacks[b], complex))
            assert real.dtype == full.dtype == np.complex128
            assert real.tobytes() == full.tobytes()

    def test_random_real_operators_agree_with_complex_to_roundoff(self, rng):
        for _ in range(20):
            k1, k2, n = (int(v) for v in rng.integers(1, 9, size=3))
            ops = [AffineOperator(0.0, rng.standard_normal((k, n)), rng.standard_normal((k, n)),
                                  hbar=0.3) for k in (k1, k2)]
            real = commutator(*ops)
            full = commutator(*(with_dtype(op, complex) for op in ops))
            # Two sums of n products of standard normals, each to a few ulps.
            scale = 0.3 * sum(np.abs(ops[0].position) @ np.abs(ops[1].momentum).T
                              + np.abs(ops[0].momentum) @ np.abs(ops[1].position).T)
            assert np.all(np.abs(real - full) <= 4 * n * np.finfo(float).eps * scale)


class TestCommutator:
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_momentum_commutators_random_gauges(self, rng, dtype):
        # The library's real operators, and the same operators made complex.
        constants = PhysicalConstants(charge=2.0, light_speed=0.5, hbar=0.25)
        factor = 1j * constants.hbar * constants.coupling
        def kin_of(*args):
            return with_dtype(canonical_momentum(*args), dtype)

        def dual_of(*args):
            return with_dtype(dual_momentum(*args), dtype)

        for _ in range(25):
            n = int(rng.integers(2, 6))
            gauge = GaugeMatrix(random_gauge(rng, n))
            h = field_from_gauge(gauge)
            kin = [kin_of(gauge, constants, j) for j in range(n)]
            dual = [dual_of(gauge, constants, j) for j in range(n)]
            for j in range(n):
                for k in range(n):
                    assert commutator(kin[j], kin[k]) == pytest.approx(
                        factor * h.matrix[j, k], abs=1e-12)
                    assert commutator(dual[j], dual[k]) == pytest.approx(
                        -factor * h.matrix[j, k], abs=1e-12)
                    assert commutator(kin[j], dual[k]) == pytest.approx(0.0, abs=1e-12)
        # The stacked tables of one n = 5 gauge equal the per-pair values bit for bit.
        gauge = GaugeMatrix(random_gauge(rng, 5))
        index = np.arange(5)
        stacks = (kin_of(gauge, constants, index), dual_of(gauge, constants, index))
        singles = [[build(gauge, constants, j) for j in range(5)] for build in (kin_of, dual_of)]
        for a, b in ((0, 0), (1, 1), (0, 1)):
            table = commutator(stacks[a], stacks[b])
            pairs = np.array([[commutator(x, y) for y in singles[b]] for x in singles[a]])
            assert table.shape == (5, 5)
            assert table.tobytes() == pairs.tobytes()

    def test_small_integer_mode_is_exact(self, rng):
        constants = PhysicalConstants()
        for _ in range(10):
            gauge = GaugeMatrix(rng.integers(-4, 5, size=(3, 3)).astype(float))
            h = field_from_gauge(gauge)
            for j in range(3):
                for k in range(3):
                    pj = canonical_momentum(gauge, constants, j)
                    pk = canonical_momentum(gauge, constants, k)
                    dj = dual_momentum(gauge, constants, j)
                    dk = dual_momentum(gauge, constants, k)
                    assert commutator(pj, pk) == 1j * h.matrix[j, k]
                    assert commutator(dj, dk) == -1j * h.matrix[j, k]
                    assert commutator(pj, dk) == 0.0

    def test_gauge_independence_of_tables(self, rng):
        constants = PhysicalConstants()
        a = random_gauge(rng, 3)
        s = rng.standard_normal((3, 3))
        gauges = (GaugeMatrix(a), GaugeMatrix(a + s + s.T))
        tables = []
        for gauge in gauges:
            kin = [canonical_momentum(gauge, constants, j) for j in range(3)]
            tables.append([[commutator(kin[j], kin[k]) for k in range(3)] for j in range(3)])
        np.testing.assert_allclose(np.array(tables[0]), np.array(tables[1]), atol=1e-13)

    def test_centrality_against_symbolic_application(self, rng):
        # commutator applied to quadratic polynomials acts as a plain scalar
        n = 3
        xs = sp.symbols(f"x1:{n + 1}", real=True)
        for _ in range(3):
            op1 = AffineOperator(int(rng.integers(-3, 4)),
                                 rng.integers(-3, 4, size=n).astype(float),
                                 rng.integers(-3, 4, size=n).astype(float))
            op2 = AffineOperator(int(rng.integers(-3, 4)),
                                 rng.integers(-3, 4, size=n).astype(float),
                                 rng.integers(-3, 4, size=n).astype(float))
            central = commutator(op1, op2)
            c_sym = sp.nsimplify(central.real) + sp.I * sp.nsimplify(central.imag)
            coeffs = rng.integers(-2, 3, size=(n, n))
            poly = sp.expand(sum(int(coeffs[i][j]) * xs[i] * xs[j]
                                 for i in range(n) for j in range(n))
                             + sum(int(rng.integers(-2, 3)) * x for x in xs)
                             + int(rng.integers(-2, 3)))
            lhs = apply_symbolically(op1, apply_symbolically(op2, poly, xs), xs) \
                - apply_symbolically(op2, apply_symbolically(op1, poly, xs), xs)
            assert sp.expand(lhs - c_sym * poly) == 0

    def test_mismatched_operators_rejected(self):
        a = AffineOperator(0.0, np.zeros(2), np.ones(2), hbar=1.0)
        b = AffineOperator(0.0, np.zeros(3), np.ones(3), hbar=1.0)
        c = AffineOperator(0.0, np.zeros(2), np.ones(2), hbar=2.0)
        with pytest.raises(ValueError, match="dimension"):
            commutator(a, b)
        with pytest.raises(ValueError, match="hbar"):
            commutator(a, c)


class TestTranslationPhase:
    def test_vanishes_on_equal_arguments(self, rng):
        h = FieldTensor(random_antisymmetric(rng, 4))
        constants = PhysicalConstants()
        for _ in range(10):
            x = rng.standard_normal(4)
            assert translation_phase(x, x, h, constants) == pytest.approx(0.0, abs=1e-14)

    def test_unit_lattice_value(self):
        b_field = 3.0
        h = FieldTensor([[0.0, b_field], [-b_field, 0.0]])
        phase = translation_phase([1.0, 0.0], [0.0, 1.0], h, PhysicalConstants())
        assert phase == pytest.approx(b_field / 2)

    def test_antisymmetric_in_arguments(self, rng):
        h = FieldTensor(random_antisymmetric(rng, 3))
        constants = PhysicalConstants(charge=-2.0, hbar=0.5)
        for _ in range(20):
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            assert translation_phase(x, y, h, constants) == pytest.approx(
                -translation_phase(y, x, h, constants), abs=1e-13)

    def test_cocycle_identity(self, rng):
        h = FieldTensor(random_antisymmetric(rng, 4))
        constants = PhysicalConstants()
        for _ in range(50):
            x, y, z = (rng.standard_normal(4) for _ in range(3))
            lhs = translation_phase(x, y, h, constants) + translation_phase(x + y, z, h, constants)
            rhs = translation_phase(y, z, h, constants) + translation_phase(x, y + z, h, constants)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_dimension_mismatch(self):
        h = FieldTensor([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError, match="dimension"):
            translation_phase([1.0, 0.0, 0.0], [0.0, 1.0], h, PhysicalConstants())

    def test_triangular_gauge_same_phase(self, rng):
        # phase depends only on the field, so both standard gauges agree
        h = FieldTensor(random_antisymmetric(rng, 4))
        constants = PhysicalConstants()
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        h1 = field_from_gauge(gauge_antisymmetric(h))
        h2 = field_from_gauge(gauge_triangular(h))
        assert translation_phase(x, y, h1, constants) == translation_phase(x, y, h2, constants)
