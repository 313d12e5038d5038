"""Metric, gauge, and field tensors for a charged particle in a constant magnetic field.

In n dimensions the magnetic field is an antisymmetric matrix rather than a
vector.  A linear vector potential is stored as a square matrix ``A`` acting
through ``A_j(x) = A[k, j] x^k`` -- the row index is contracted against the
position.  With that convention the field induced by ``A`` is ``A - A.T``;
the transposed convention would silently flip the sign of the field, so it is
fixed here once and relied on everywhere else.

All quantities are in dimensionless desk units; mass, charge, the speed of
light, and the quantum of action default to 1 and can be overridden through
:class:`PhysicalConstants`.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

__all__ = [
    "MetricTensor",
    "GaugeMatrix",
    "FieldTensor",
    "PhysicalConstants",
    "field_from_gauge",
    "gauge_antisymmetric",
    "gauge_triangular",
    "check_radiation_gauge",
    "field_from_3d_vector",
    "frobenius_norm",
]

# External input is accepted as (anti)symmetric up to this fraction of its
# largest entry; everything built internally is antisymmetric to the last bit.
SYMMETRY_RTOL = 1e-12
# A metric whose largest eigenvalue magnitude is this multiple of its smallest,
# or more, is refused as singular or too ill-conditioned to invert.  The ratio
# is the same in every orthonormal frame, so the verdict is too.
METRIC_CONDITION_MAX = 1e12
# Orbit rows are evaluated this many at a time, which bounds the memory held
# by the temporaries of one batch: the blocks of an exact orbit
# (ncyclo.dynamics) and of the table that simulate checks.
_BATCH = 1024


def _as_square_matrix(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
        raise ValueError(f"{name} must be a nonempty square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        j, k = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"{name} has a non-finite entry at row {j}, column {k}")
    return arr


def _unit_scaled(matrix: np.ndarray) -> tuple[np.ndarray, int]:
    """``(matrix * 2**-e, e)``, ``e`` the binary exponent of the largest entry's magnitude.

    The scaling is exact and leaves every entry below 1 in magnitude, so
    products and sums of the result cannot overflow; ``e`` is 0 for a zero or
    non-finite matrix.
    """
    exponent = math.frexp(float(np.abs(matrix).max(initial=0.0)))[1]
    return np.ldexp(matrix, -exponent), exponent


def frobenius_norm(matrix: np.ndarray) -> float:
    """Frobenius norm of a real array, with no overflow or underflow of the squares.

    The norm is taken of the unit-scaled entries (:func:`_unit_scaled`) and
    scaled back, so the result is bit for bit ``np.linalg.norm`` wherever that
    stays in range, and still right for entries near 1e300 or 1e-300.  It is
    ``inf`` only when the norm itself is past the largest float.
    """
    unit, exponent = _unit_scaled(matrix)
    with np.errstate(over="ignore"):
        return float(np.ldexp(np.linalg.norm(unit), exponent))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class _ReadOnly:
    """Base of the read-only value classes.

    ``__init__`` sets each field once, through :meth:`_set`; assigning or
    deleting an attribute afterwards raises ``AttributeError``, as on a frozen
    dataclass, but no code is generated at import.  A ``cached_property``
    still works: it writes the instance ``__dict__`` directly.
    """

    def _set(self, **values) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class MetricTensor(_ReadOnly):
    """Invertible symmetric metric together with its inverse, signature and frame.

    The inverse is what enters the equations of motion; the signature
    ``(n_plus, n_minus)`` records how many eigenvalues are positive and
    negative.  Singular and nearly singular metrics, whose eigenvalue magnitudes
    span a ratio of ``METRIC_CONDITION_MAX`` or more, are rejected, and so are
    metrics whose inverse leaves the floating-point range.  One ``eigh`` of the
    metric gives the signature, the condition cut and the frame.  The inverse
    comes from an LU factorization: ``v diag(1/e) v^T`` from that ``eigh``
    carries the eigenvectors' roundoff, and through ``K`` it put orbits on
    metrics of condition 1e4 to 1e8 up to 15 times further off the exact flow.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        g = _as_square_matrix(matrix, "metric")
        asym = float(np.abs(g - g.T).max())
        if asym > SYMMETRY_RTOL * float(np.abs(g).max()):
            raise ValueError(f"metric is not symmetric: max |g - g^T| = {asym:.3e}")
        g = (g + g.T) / 2.0
        # The sign of g[0, 0] is that of every eigenvalue of a definite metric,
        # so the eigenpairs of sign * g are those of its frame G = s g.
        sign = -1.0 if g[0, 0] < 0 else 1.0
        e, v = np.linalg.eigh(sign * g)
        low, high = float(np.abs(e).min()), float(np.abs(e).max())
        if low * METRIC_CONDITION_MAX <= high:
            ratio = f"{high / low:.3e}" if low else "infinite"
            raise ValueError(f"metric is singular or too ill-conditioned: the ratio of its "
                             f"largest to smallest eigenvalue magnitude is {ratio}, at or "
                             f"above the cut {METRIC_CONDITION_MAX:.0e}")
        inv = np.linalg.inv(g)
        if not np.isfinite(inv).all():
            raise ValueError(f"metric's inverse leaves the floating-point range: its smallest "
                             f"eigenvalue magnitude {low:.3e} is too small to invert")
        self._set(matrix=_frozen(g), inverse=_frozen((inv + inv.T) / 2.0),
                  signature=(int((sign * e > 0).sum()), int((sign * e < 0).sum())))
        if self.is_definite:  # the frame's eigenpairs
            self._set(_eigen=(e, v))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_definite(self) -> bool:
        """True when all eigenvalues share one sign (no mixed signature)."""
        return min(self.signature) == 0

    @cached_property
    def frame(self) -> tuple[float, np.ndarray, np.ndarray]:
        """``(s, G^{1/2}, G^{-1/2})`` of the positive-definite frame ``G = s g``.

        Both read-only roots come on first use from the eigenpairs of ``G``
        that the metric's one ``eigh`` found; the identity's are exactly the
        identity.  An indefinite metric raises ``ValueError``.
        """
        if not self.is_definite:
            raise ValueError(f"metric is indefinite (signature {self.signature}), so it has no "
                             f"frame; pass metric=None to decompose in the identity")
        sign = 1.0 if self.signature[0] else -1.0
        e, v = self._eigen
        return sign, _frozen((v * np.sqrt(e)) @ v.T), _frozen((v / np.sqrt(e)) @ v.T)

    @classmethod
    def euclidean(cls, n: int) -> "MetricTensor":
        return cls(np.eye(n))

    @classmethod
    def minkowski(cls, n: int) -> "MetricTensor":
        """Flat metric ``diag(1, ..., 1, -1)``: the last axis is time-like."""
        if n < 2:
            raise ValueError("a Minkowski metric needs at least 2 dimensions")
        return cls(np.diag([1.0] * (n - 1) + [-1.0]))


class GaugeMatrix(_ReadOnly):
    """Constant matrix defining a linear vector potential ``A_j(x) = A[k, j] x^k``."""

    def __init__(self, matrix: np.ndarray) -> None:
        self._set(matrix=_frozen(_as_square_matrix(matrix, "gauge")))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


class FieldTensor(_ReadOnly):
    """Antisymmetric tensor of a constant, uniform magnetic field.

    Construction symmetrizes away representational dust, so the stored matrix
    satisfies ``H + H.T == 0`` exactly; input violating antisymmetry by more
    than ``SYMMETRY_RTOL`` times its largest entry is rejected with the
    offending entry named, and so is a tensor whose symmetrization or
    Frobenius norm overflows.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        h = _as_square_matrix(matrix, "field")
        with np.errstate(over="ignore"):
            dev = np.abs(h + h.T)
            anti = (h - h.T) / 2.0
        worst = float(dev.max(initial=0.0))
        if worst > SYMMETRY_RTOL * float(np.abs(h).max(initial=0.0)):
            j, k = np.unravel_index(int(dev.argmax()), dev.shape)
            raise ValueError(
                f"field tensor is not antisymmetric: H[{j},{k}] + H[{k},{j}] = {worst:.3e}"
            )
        if frobenius_norm(anti) == math.inf:
            raise ValueError("field tensor leaves the floating-point range: "
                             "its Frobenius norm overflows")
        self._set(matrix=_frozen(anti))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


class PhysicalConstants(_ReadOnly):
    """Particle and unit constants.  Defaults give dimensionless desk units.

    Two sets compare and hash by their values, so equal sets are one dict
    key, as a frozen dataclass's are (``__eq__`` alone would unhash them).
    """

    def __init__(self, mass: float = 1.0, charge: float = 1.0, light_speed: float = 1.0,
                 hbar: float = 1.0) -> None:
        if not (np.isfinite(mass) and mass > 0):
            raise ValueError("mass must be positive and finite")
        if not (np.isfinite(charge) and charge != 0):
            raise ValueError("charge must be nonzero and finite")
        if not (np.isfinite(light_speed) and light_speed > 0):
            raise ValueError("light_speed must be positive and finite")
        if not (np.isfinite(hbar) and hbar > 0):
            raise ValueError("hbar must be positive and finite")
        # Every formula takes q/c or q/(m c), so both must be finite floats.
        q, m, c = float(charge), float(mass), float(light_speed)
        if not (m * c > 0 and math.isfinite(q / c) and math.isfinite(q / (m * c))):
            raise ValueError(f"q/c and q/(m c) must be finite, got q = {q}, m = {m}, c = {c}")
        self._set(mass=mass, charge=charge, light_speed=light_speed, hbar=hbar)

    def _values(self) -> tuple:
        return self.mass, self.charge, self.light_speed, self.hbar

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    @property
    def coupling(self) -> float:
        """Charge-to-light-speed ratio ``q / c`` multiplying every gauge term."""
        return self.charge / self.light_speed


def field_from_gauge(gauge: GaugeMatrix) -> FieldTensor:
    """Antisymmetrize a linear gauge into its field tensor ``H = A - A.T``.

    Total on square matrices; adding any symmetric matrix to ``A`` leaves the
    result unchanged.
    """
    a = gauge.matrix
    with np.errstate(over="ignore"):  # an overflow is named by FieldTensor
        return FieldTensor(a - a.T)


def gauge_antisymmetric(field: FieldTensor) -> GaugeMatrix:
    """The gauge ``A = H / 2``; antisymmetrizing it reproduces ``H`` exactly."""
    return GaugeMatrix(field.matrix / 2.0)


def gauge_triangular(field: FieldTensor) -> GaugeMatrix:
    """Strictly upper-triangular gauge reproducing ``H``.

    Reduces to the textbook Landau gauge in two dimensions.  Its diagonal is
    zero, so the radiation condition holds for every diagonal metric.
    """
    return GaugeMatrix(np.triu(field.matrix, k=1))


def check_radiation_gauge(gauge: GaugeMatrix, metric: MetricTensor) -> float:
    """Residual ``|g^{jk} A_{jk}|`` of the radiation-gauge condition.

    Returns the magnitude only; deciding pass/fail is left to the caller.  The
    contraction is taken of both matrices unit-scaled (:func:`_unit_scaled`)
    and scaled back, so no product overflows: an antisymmetric gauge near the
    largest float has the same relative residual as at unit scale.
    """
    if gauge.n != metric.n:
        raise ValueError(f"gauge is {gauge.n}x{gauge.n} but the metric is {metric.n}x{metric.n}")
    inverse, e_inverse = _unit_scaled(metric.inverse)
    a, e_gauge = _unit_scaled(gauge.matrix)
    with np.errstate(over="ignore"):
        return float(np.ldexp(abs(np.sum(inverse * a)), e_inverse + e_gauge))


def field_from_3d_vector(b) -> FieldTensor:
    """Field tensor of an ordinary 3-D field vector, ``H_jk = eps_jkm B^m``."""
    v = np.asarray(b, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    bx, by, bz = v
    return FieldTensor(np.array([
        [0.0, bz, -by],
        [-bz, 0.0, bx],
        [by, -bx, 0.0],
    ]))
