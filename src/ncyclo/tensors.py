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

from dataclasses import dataclass, field as _field

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
]

# External input is accepted as antisymmetric only up to this absolute slack;
# everything built internally is antisymmetric to the last bit.
ANTISYMMETRY_ATOL = 1e-14
SYMMETRY_RTOL = 1e-12


def _as_square_matrix(value, name: str) -> np.ndarray:
    arr = np.array(value, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        j, k = np.argwhere(~np.isfinite(arr))[0]
        raise ValueError(f"{name} has a non-finite entry at row {j}, column {k}")
    return arr


def _as_symmetric_matrix(value, name: str) -> np.ndarray:
    """A square matrix, symmetrized after checking its asymmetry against its own scale."""
    g = _as_square_matrix(value, name)
    asym = float(np.abs(g - g.T).max())
    if asym > SYMMETRY_RTOL * float(np.abs(g).max()):
        raise ValueError(f"{name} is not symmetric: max |g - g^T| = {asym:.3e}")
    return (g + g.T) / 2.0


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MetricTensor:
    """Invertible symmetric metric together with its inverse and signature.

    The inverse is what enters the equations of motion; the signature
    ``(n_plus, n_minus)`` records how many eigenvalues are positive and
    negative.  Degenerate (singular) metrics are rejected.
    """

    matrix: np.ndarray
    inverse: np.ndarray = _field(init=False)
    signature: tuple[int, int] = _field(init=False)

    def __post_init__(self) -> None:
        g = _as_symmetric_matrix(self.matrix, "metric")
        eigvals = np.linalg.eigvalsh(g)
        if np.abs(eigvals).min() <= 1e-12 * float(np.abs(eigvals).max()):
            raise ValueError("metric is singular: it has a (near-)zero eigenvalue")
        inv = np.linalg.inv(g)
        inv = (inv + inv.T) / 2.0
        residual = float(np.abs(g @ inv - np.eye(g.shape[0])).max())
        if residual > 1e-10:
            raise ValueError(f"metric is too ill-conditioned to invert reliably "
                             f"(inversion residual {residual:.3e})")
        object.__setattr__(self, "matrix", _frozen(g))
        object.__setattr__(self, "inverse", _frozen(inv))
        object.__setattr__(
            self, "signature", (int((eigvals > 0).sum()), int((eigvals < 0).sum()))
        )

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_definite(self) -> bool:
        """True when all eigenvalues share one sign (no mixed signature)."""
        return min(self.signature) == 0

    @classmethod
    def euclidean(cls, n: int) -> "MetricTensor":
        return cls(np.eye(n))

    @classmethod
    def minkowski(cls, n: int) -> "MetricTensor":
        """Flat metric ``diag(1, ..., 1, -1)``: the last axis is time-like."""
        if n < 2:
            raise ValueError("a Minkowski metric needs at least 2 dimensions")
        diag = np.ones(n)
        diag[-1] = -1.0
        return cls(np.diag(diag))


@dataclass(frozen=True, eq=False)
class GaugeMatrix:
    """Constant matrix defining a linear vector potential ``A_j(x) = A[k, j] x^k``."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _frozen(_as_square_matrix(self.matrix, "gauge")))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class FieldTensor:
    """Antisymmetric tensor of a constant, uniform magnetic field.

    Construction symmetrizes away representational dust, so the stored matrix
    satisfies ``H + H.T == 0`` exactly; input violating antisymmetry by more
    than ``ANTISYMMETRY_ATOL`` is rejected with the offending entry named.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        h = _as_square_matrix(self.matrix, "field")
        dev = np.abs(h + h.T)
        worst = float(dev.max()) if h.size else 0.0
        if worst > ANTISYMMETRY_ATOL:
            j, k = np.unravel_index(int(dev.argmax()), dev.shape)
            raise ValueError(
                f"field tensor is not antisymmetric: H[{j},{k}] + H[{k},{j}] = {worst:.3e}"
            )
        object.__setattr__(self, "matrix", _frozen((h - h.T) / 2.0))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.matrix))

    @property
    def associated(self) -> "FieldTensor":
        """The field generated by the transposed gauge matrix; equal to ``-H``."""
        return FieldTensor(-self.matrix)


@dataclass(frozen=True)
class PhysicalConstants:
    """Particle and unit constants.  Defaults give dimensionless desk units."""

    mass: float = 1.0
    charge: float = 1.0
    light_speed: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.mass) and self.mass > 0):
            raise ValueError("mass must be positive and finite")
        if not (np.isfinite(self.charge) and self.charge != 0):
            raise ValueError("charge must be nonzero and finite")
        if not (np.isfinite(self.light_speed) and self.light_speed > 0):
            raise ValueError("light_speed must be positive and finite")
        if not (np.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError("hbar must be positive and finite")

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

    Returns the magnitude only; deciding pass/fail is left to the caller.
    """
    if gauge.n != metric.n:
        raise ValueError(f"gauge is {gauge.n}x{gauge.n} but the metric is {metric.n}x{metric.n}")
    return float(abs(np.sum(metric.inverse * gauge.matrix)))


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
