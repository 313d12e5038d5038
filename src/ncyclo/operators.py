"""Exact calculus of affine differential operators.

An operator here is ``scalar + position_coeff . x + momentum_coeff . (-i hbar grad)``.
The commutator of two such operators is a plain number, so it is evaluated in
closed form from the coefficient vectors (for two stacks of operators, the
table of all pairs); no grid, truncation, or operator application is involved.
"""

from __future__ import annotations

import numpy as np

from .tensors import FieldTensor, GaugeMatrix, PhysicalConstants, _ReadOnly, _frozen

__all__ = [
    "AffineOperator",
    "canonical_momentum",
    "dual_momentum",
    "commutator",
    "translation_phase",
]


class AffineOperator(_ReadOnly):
    """First-order operator ``scalar + position . x + momentum . (-i hbar grad)``.

    ``(n,)`` coefficients make one operator, ``(k, n)`` rows a stack of ``k``.
    Real coefficients stay real, so :func:`commutator` takes real products.
    """

    def __init__(self, scalar: complex, position: np.ndarray, momentum: np.ndarray,
                 hbar: float = 1.0) -> None:
        dtype = np.result_type(np.asarray(position), np.asarray(momentum), float)
        pos, mom = np.array(position, dtype=dtype), np.array(momentum, dtype=dtype)
        if pos.shape != mom.shape or pos.ndim not in (1, 2) or not pos.shape[-1]:
            raise ValueError(f"coefficient shapes {pos.shape} and {mom.shape} must be one "
                             f"(n,) or (k, n), n nonempty")
        if not (np.isfinite(hbar) and hbar > 0):
            raise ValueError("hbar must be positive and finite")
        scalar = np.full(pos.shape[:-1], scalar, dtype=complex)
        self._set(scalar=_frozen(scalar)[()], position=_frozen(pos), momentum=_frozen(mom),
                  hbar=hbar)

    @property
    def n(self) -> int:
        return self.position.shape[-1]

    def _like(self, other: "AffineOperator") -> None:
        if self.n != other.n:
            raise ValueError(f"operators act on different dimensions ({self.n} vs {other.n})")
        if self.hbar != other.hbar:
            raise ValueError("operators carry different values of hbar")


def _momentum(rows: np.ndarray, constants: PhysicalConstants, index) -> AffineOperator:
    # -i hbar d_j - (q/c) rows[j, k] x^k for one component j or an array of them.
    n = rows.shape[0]
    index = np.asarray(index)
    bad = index[(index < 0) | (index >= n)]
    if bad.size:
        raise IndexError(f"component {bad[0]} out of range for dimension {n}")
    return AffineOperator(0.0, -constants.coupling * rows[index], np.eye(n)[index],
                          constants.hbar)


def canonical_momentum(gauge: GaugeMatrix, constants: PhysicalConstants,
                       index) -> AffineOperator:
    """Kinetic momentum ``-i hbar d_j - (q/c) A[k, j] x^k``; an int array ``j`` gives a stack."""
    return _momentum(gauge.matrix.T, constants, index)


def dual_momentum(gauge: GaugeMatrix, constants: PhysicalConstants,
                  index) -> AffineOperator:
    """Conserved dual of :func:`canonical_momentum`, for an int or an int array ``j``.

    Built from the transposed gauge, ``-i hbar d_j - (q/c) A[j, k] x^k``; it
    equals the kinetic momentum minus ``(q/c) H[j, k] x^k`` componentwise and
    generates magnetic translations.
    """
    return _momentum(gauge.matrix, constants, index)


def commutator(op1: AffineOperator, op2: AffineOperator) -> complex | np.ndarray:
    """Central value of ``[O1, O2]`` for affine operators.

    Only the cross terms between a position coefficient and an elementary
    momentum survive, giving the exact scalar
    ``i hbar (position1 . momentum2 - momentum1 . position2)``; for stacks of
    ``k1`` and ``k2`` operators, the ``(k1, k2)`` table of all pairs.
    """
    op1._like(op2)
    return 1j * op1.hbar * (np.inner(op1.position, op2.momentum)
                            - np.inner(op1.momentum, op2.position))


def translation_phase(x, y, field: FieldTensor, constants: PhysicalConstants) -> float:
    """Composition phase of two magnetic translations.

    The translations are the unitaries generated by the conserved dual momenta.
    Because the generators' commutators are plain numbers, the
    Baker-Campbell-Hausdorff series terminates after the first bracket, and
    composing translations by ``x`` and ``y`` equals the translation by
    ``x + y`` times ``exp(i phi)`` with ``phi = (q / (2 hbar c)) x . H . y``.
    Antisymmetric in its arguments.
    """
    xv = np.asarray(x, dtype=float).reshape(-1)
    yv = np.asarray(y, dtype=float).reshape(-1)
    if xv.size != field.n or yv.size != field.n:
        raise ValueError("translation vectors must match the field dimension")
    return float(constants.charge / (2.0 * constants.hbar * constants.light_speed)
                 * (xv @ field.matrix @ yv))
