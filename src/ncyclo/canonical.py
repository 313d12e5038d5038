"""Block decomposition of an antisymmetric field tensor in a positive-definite frame.

A real antisymmetric matrix has purely imaginary eigenvalues that come in
conjugate pairs.  Equivalently there is a basis, orthonormal with respect to a
chosen positive-definite quadratic form, in which the tensor is a direct sum of
2x2 rotation generators ``[[0, s], [-s, 0]]`` with positive strengths ``s``,
padded by a zero block spanning the force-free directions.  Each nonzero block
singles out a plane of circular motion; the zero block carries free motion.

The frame is a definite dynamical metric ``g`` itself: ``g`` when it is
positive definite, ``-g`` when it is negative definite.  Then
``B.T @ K @ inv(B.T) = +-(q/mc) Theta`` and the strengths give the true
frequencies.  An indefinite ``g`` has no frame, so callers pass no metric and
the identity stands in; the basis may then hold ``g``-null vectors (see
:func:`metric_singular_columns`).  Any positive-definite form ``G`` is a frame,
passed as ``MetricTensor(G)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import schur

from .tensors import FieldTensor, MetricTensor, PhysicalConstants, _as_square_matrix, _frozen

if TYPE_CHECKING:  # pragma: no cover
    from .dynamics import ParticleState, Trajectory

__all__ = [
    "CanonicalForm",
    "CanonicalCoords",
    "decompose",
    "canonical_tensor",
    "to_canonical",
    "orthonormality_residual",
    "reconstruction_residual",
    "metric_singular_columns",
]

# A block strength is treated as zero below this fraction of the tensor scale.
ZERO_STRENGTH_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Basis and block data of one decomposed field tensor.

    ``basis`` holds the new basis vectors as columns, expressed in the original
    coordinates; block ``l`` lives in columns ``2l`` and ``2l + 1``.
    ``strengths`` are the positive block values in descending order; the
    remaining ``free_dims`` columns span the kernel of the tensor.
    """

    basis: np.ndarray
    strengths: np.ndarray

    def __post_init__(self) -> None:
        b = _as_square_matrix(self.basis, "basis")
        s = np.array(self.strengths, dtype=float).reshape(-1)
        if 2 * s.size > b.shape[0]:
            raise ValueError(f"{s.size} blocks cannot fit in {b.shape[0]} dimensions")
        if s.size and (not np.all(s > 0) or np.any(np.diff(s) > 0)):
            raise ValueError("strengths must be positive and sorted in descending order")
        object.__setattr__(self, "basis", _frozen(b))
        object.__setattr__(self, "strengths", _frozen(s))

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def num_blocks(self) -> int:
        return int(self.strengths.size)

    @property
    def free_dims(self) -> int:
        return self.n - 2 * self.num_blocks


@dataclass(frozen=True, eq=False)
class CanonicalCoords:
    """Position and momenta in a decomposition basis, of one state or of each sample.

    Each field is one ``(n,)`` vector, or ``(N, n)`` with one row per sample.
    Both momenta carry the light-speed-over-charge rescaling that makes the
    block equations read ``Theta @ position = momentum - dual_momentum``.
    """

    position: np.ndarray
    momentum: np.ndarray
    dual_momentum: np.ndarray

    def __post_init__(self) -> None:
        for name in ("position", "momentum", "dual_momentum"):
            object.__setattr__(self, name, _frozen(np.array(getattr(self, name), dtype=float)))
        if not (self.position.shape == self.momentum.shape == self.dual_momentum.shape):
            raise ValueError("canonical coordinate arrays must share one shape")


def _inverse_sqrt(matrix: np.ndarray) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh(matrix)
    return eigvecs @ np.diag(1.0 / np.sqrt(eigvals)) @ eigvecs.T


def _frame(metric: MetricTensor | None, n: int) -> np.ndarray:
    """The positive-definite form of a metric's frame: the identity, ``g`` or ``-g``."""
    if metric is None:
        return np.eye(n)
    if metric.n != n:
        raise ValueError(f"metric is {metric.n}x{metric.n} but the field tensor is {n}x{n}")
    if not metric.is_definite:
        raise ValueError(f"metric is indefinite (signature {metric.signature}), so it has no "
                         f"frame; pass metric=None to decompose in the identity")
    return metric.matrix if metric.signature[0] else -metric.matrix


def decompose(field: FieldTensor, metric: MetricTensor | None = None) -> CanonicalForm:
    """Block-diagonalize a field tensor in a basis orthonormal against a metric's frame.

    Parameters
    ----------
    field:
        Antisymmetric tensor to decompose.
    metric:
        Definite metric whose frame ``G`` (``g``, or ``-g`` when negative
        definite) the basis columns are orthonormalized against; the identity
        when omitted.  An indefinite metric raises ``ValueError``.

    Returns
    -------
    CanonicalForm
        Basis ``B`` with ``B.T @ G @ B = I`` and
        ``B.T @ H @ B = canonical_tensor(form)``.

    Notes
    -----
    The tensor is first whitened with the inverse square root of ``G``,
    which keeps it antisymmetric.  An antisymmetric matrix is normal, so its
    real Schur form ``Z.T @ S @ Z = T`` is block diagonal: 2x2 blocks, found
    where the subdiagonal of ``T`` is nonzero, and 1x1 zeros.  Each block's
    strength is the mean of its two off-diagonal magnitudes; a block with
    negative orientation gets its second column negated, so every strength is
    positive.  Blocks are ordered by descending strength with a stable sort,
    so equal strengths keep their Schur order and the output is deterministic.
    Strengths at or below ``ZERO_STRENGTH_RTOL`` times the Frobenius norm of
    the whitened tensor are treated as zero and their columns join the free
    ones, which come last in Schur order; the cut has no absolute floor, so
    the block count does not depend on the field's units.
    """
    n = field.n
    frame = _frame(metric, n)
    if np.array_equal(frame, np.eye(n)):
        white = None
        skew = field.matrix
    else:
        white = _inverse_sqrt(frame)
        skew = white @ field.matrix @ white
        skew = (skew - skew.T) / 2.0

    t, z = schur(skew, output="real")
    lead = np.flatnonzero(np.diag(t, -1))
    strengths = (t[lead, lead + 1] - t[lead + 1, lead]) / 2.0
    z[:, lead[strengths < 0.0] + 1] *= -1.0
    strengths = np.abs(strengths)
    kept = strengths > ZERO_STRENGTH_RTOL * float(np.linalg.norm(skew))
    order = np.argsort(-strengths[kept], kind="stable")
    lead, strengths = lead[kept][order], strengths[kept][order]
    paired = np.column_stack([lead, lead + 1]).reshape(-1)
    vmat = z[:, np.r_[paired, np.setdiff1d(np.arange(n), paired)]]
    basis = vmat if white is None else white @ vmat
    return CanonicalForm(basis=basis, strengths=strengths)


def canonical_tensor(form: CanonicalForm) -> np.ndarray:
    """Assemble the block-diagonal tensor encoded by a canonical form."""
    theta = np.zeros((form.n, form.n))
    for l, s in enumerate(form.strengths):
        theta[2 * l, 2 * l + 1] = s
        theta[2 * l + 1, 2 * l] = -s
    return theta


def to_canonical(
    form: CanonicalForm,
    state: "ParticleState | Trajectory",
    field: FieldTensor,
    constants: PhysicalConstants,
) -> CanonicalCoords:
    """Express a state, or every sample of a trajectory, in the decomposition basis.

    The returned momenta are rescaled by ``c / q`` so that, together with the
    assembled block tensor, they satisfy
    ``canonical_tensor(form) @ position = momentum - dual_momentum``; for a
    trajectory each array has one row per sample.
    """
    x, p = state.position, state.momentum
    if form.n != field.n or x.shape[-1] != form.n:
        raise ValueError("form, field, and state dimensions do not agree")
    b = form.basis
    scale = constants.light_speed / constants.charge
    p_dual = p - constants.coupling * (x @ field.matrix.T)
    return CanonicalCoords(
        position=np.linalg.solve(b, x.T).T,
        momentum=scale * (p @ b),
        dual_momentum=scale * (p_dual @ b),
    )


def orthonormality_residual(form: CanonicalForm, metric: MetricTensor | None = None) -> float:
    """Frobenius norm of ``B.T @ G @ B - I`` for the frame ``G`` of ``metric``."""
    b = form.basis
    return float(np.linalg.norm(b.T @ _frame(metric, form.n) @ b - np.eye(form.n)))


def reconstruction_residual(form: CanonicalForm, field: FieldTensor) -> float:
    """Relative Frobenius residual between the transformed tensor and its blocks."""
    mismatch = float(np.linalg.norm(form.basis.T @ field.matrix @ form.basis
                                    - canonical_tensor(form)))
    scale = field.norm
    return mismatch / scale if scale > 0 else mismatch


def metric_singular_columns(form: CanonicalForm, metric_matrix: np.ndarray) -> list[int]:
    """Indices of basis columns that are null with respect to a dynamical metric.

    For an indefinite metric the frame's orthonormal basis can contain vectors of
    vanishing metric norm; motion along them has no velocity interpretation, so
    callers typically just surface the indices in reports.
    """
    g = np.asarray(metric_matrix, dtype=float)
    norms = np.einsum("ja,jk,ka->a", form.basis, g, form.basis)
    cut = ZERO_STRENGTH_RTOL * float(np.abs(norms).max(initial=0.0))
    return [int(i) for i in np.nonzero(np.abs(norms) <= cut)[0]]
