"""Block decomposition of an antisymmetric field tensor in a positive-definite frame.

A real antisymmetric matrix ``S`` has purely imaginary eigenvalues in conjugate
pairs, found by numpy's Hermitian eigensolver on ``iS``.  Equivalently there is
a basis, orthonormal with respect to a chosen positive-definite form, in which
the tensor is a direct sum of 2x2 rotation generators ``[[0, s], [-s, 0]]``
with positive strengths ``s``, padded by a zero block spanning the force-free
directions.  Each nonzero block singles out a plane of circular motion; the
zero block carries free motion.

The frame is a definite dynamical metric ``g`` itself, ``G = s g`` with ``s``
the sign of its eigenvalues (:attr:`MetricTensor.frame`).  Then
``B.T @ K @ inv(B.T) = +-(q/mc) Theta`` and the strengths give the true
frequencies.  An indefinite ``g`` has no frame, so callers pass no metric and
the Euclidean one, whose frame is the identity, stands in; the basis may then
hold ``g``-null vectors (see :func:`metric_singular_columns`).  Any
positive-definite form ``G`` is a frame, passed as ``MetricTensor(G)``.  The
form that :func:`decompose` returns keeps its frame as ``frame``, so nothing
downstream works the frame out again.
"""

from __future__ import annotations

import numpy as np

from .tensors import (
    FieldTensor,
    MetricTensor,
    _ReadOnly,
    _as_square_matrix,
    _frozen,
    _unit_scaled,
    frobenius_norm,
)

__all__ = [
    "CanonicalForm",
    "decompose",
    "canonical_tensor",
    "orthonormality_residual",
    "reconstruction_residual",
    "metric_singular_columns",
]

# A block strength is treated as zero below this fraction of the tensor scale.
ZERO_STRENGTH_RTOL = 1e-10


class CanonicalForm(_ReadOnly):
    """Basis and block data of one decomposed field tensor.

    ``basis`` holds the new basis vectors as columns, expressed in the original
    coordinates; block ``l`` lives in columns ``2l`` and ``2l + 1``.
    ``strengths`` are the positive block values in descending order; the
    remaining ``free_dims`` columns span the kernel of the tensor.  ``frame``
    is the positive-definite form ``G`` the basis is orthonormal against,
    ``B.T @ G @ B = I``; the identity when omitted.
    """

    def __init__(self, basis: np.ndarray, strengths: np.ndarray,
                 frame: np.ndarray | None = None) -> None:
        b = _as_square_matrix(basis, "basis")
        s = np.array(strengths, dtype=float).reshape(-1)
        if 2 * s.size > b.shape[0]:
            raise ValueError(f"{s.size} blocks cannot fit in {b.shape[0]} dimensions")
        if s.size and (not np.all(s > 0) or np.any(np.diff(s) > 0)):
            raise ValueError("strengths must be positive and sorted in descending order")
        g = np.eye(b.shape[0]) if frame is None else _as_square_matrix(frame, "frame")
        if g.shape != b.shape:
            raise ValueError(f"frame is {g.shape[0]}x{g.shape[0]} but the basis is "
                             f"{b.shape[0]}x{b.shape[0]}")
        self._set(basis=_frozen(b), strengths=_frozen(s), frame=_frozen(g))

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def num_blocks(self) -> int:
        return int(self.strengths.size)

    @property
    def free_dims(self) -> int:
        return self.n - 2 * self.num_blocks


def decompose(field: FieldTensor, metric: MetricTensor | None = None) -> CanonicalForm:
    """Block-diagonalize a field tensor in a basis orthonormal against a metric's frame.

    Parameters
    ----------
    field:
        Antisymmetric tensor to decompose.
    metric:
        Definite metric whose frame ``G = s g`` (``g``, or ``-g`` when
        negative definite) the basis columns are orthonormalized against; the
        Euclidean metric, whose frame is the identity, when omitted.  An
        indefinite metric or one of another size raises ``ValueError``.

    Returns
    -------
    CanonicalForm
        Basis ``B`` with ``B.T @ G @ B = I`` and
        ``B.T @ H @ B = canonical_tensor(form)``, and ``G`` as its ``frame``.

    Notes
    -----
    The tensor, unit-scaled by the power of two ``2^-e`` of its largest
    entry, which is exact, is first whitened with ``G^{-1/2}`` of
    ``metric.frame``, so no intermediate product overflows; the strengths and
    the norm are scaled back by ``2^e``, and a norm past the float range
    raises ``ValueError``.  The whitened tensor's strict upper
    triangle, mirrored, is ``S``: exactly antisymmetric with no rounding, so
    ``iS`` is Hermitian.  An eigenvector
    ``v`` of ``iS`` with eigenvalue ``s > 0`` gives a block of strength ``s``
    and column pair ``(v.imag, v.real)``, as ``S v.imag = -s v.real`` and
    ``S v.real = s v.imag``.  Each ``v`` is first turned so that its largest
    entry is ``+i`` times its modulus, so a tensor already in block form keeps
    ``B = I``.  Blocks come in descending strength; strengths at or below
    ``ZERO_STRENGTH_RTOL`` times the Frobenius norm of the whitened tensor are
    zero, a cut with no absolute floor, so the block count does not depend on
    the field's units; only a strength that scales back below the smallest
    float is zero too.  One complete QR factorization of the pairs gives the
    basis: its leading columns, with ``diag(R)`` made positive, undo the
    roundoff mixing of nearly equal or tiny strengths, and its trailing
    columns, each with its largest entry positive, span the kernel.
    """
    n = field.n
    metric = MetricTensor.euclidean(n) if metric is None else metric
    if metric.n != n:
        raise ValueError(f"metric is {metric.n}x{metric.n} but the field tensor is {n}x{n}")
    sign, _, white = metric.frame
    unit, exponent = _unit_scaled(field.matrix)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        whitened = white @ unit @ white
        scale = frobenius_norm(whitened)
        if not np.isfinite(np.ldexp(scale, exponent)):
            raise ValueError("the field whitened by the metric's frame leaves the "
                             "floating-point range: G^-1/2 H G^-1/2 overflows")
    upper = np.triu(whitened, 1)
    skew = upper - upper.T

    w, v = np.linalg.eigh(1j * skew)
    strengths = np.ldexp(w, exponent)
    kept = np.flatnonzero((w > ZERO_STRENGTH_RTOL * scale) & (strengths > 0.0))[::-1]
    top = v[np.argmax(np.abs(v), axis=0), np.arange(n)][kept]
    v = v[:, kept] * (1j * np.conj(top) / np.abs(top))
    pairs = np.stack([v.imag, v.real], axis=2).reshape(n, 2 * kept.size)
    q, r = np.linalg.qr(pairs, mode="complete")
    free = q[:, 2 * kept.size:]
    top = free[np.argmax(np.abs(free), axis=0), np.arange(n - 2 * kept.size)]
    vmat = q * np.where(np.concatenate([np.diag(r), top]) < 0.0, -1.0, 1.0)
    basis = white @ vmat + 0.0  # + 0.0 turns -0.0 into 0.0
    return CanonicalForm(basis=basis, strengths=strengths[kept], frame=sign * metric.matrix)


def canonical_tensor(form: CanonicalForm) -> np.ndarray:
    """Assemble the block-diagonal tensor encoded by a canonical form."""
    theta = np.zeros((form.n, form.n))
    for l, s in enumerate(form.strengths):
        theta[2 * l, 2 * l + 1] = s
        theta[2 * l + 1, 2 * l] = -s
    return theta


def orthonormality_residual(form: CanonicalForm) -> float:
    """Frobenius norm of ``B.T @ G @ B - I`` for the form's own ``frame`` ``G``."""
    b = form.basis
    return float(np.linalg.norm(b.T @ form.frame @ b - np.eye(form.n)))


def reconstruction_residual(form: CanonicalForm, field: FieldTensor) -> float:
    """Relative Frobenius residual between the transformed tensor and its blocks.

    Both are unit-scaled by one power of two, which is exact and leaves the
    ratio unchanged, so neither product overflows for a field near 1e308.
    """
    unit, exponent = _unit_scaled(field.matrix)
    b = form.basis
    mismatch = frobenius_norm(b.T @ unit @ b - np.ldexp(canonical_tensor(form), -exponent))
    scale = frobenius_norm(unit)
    return mismatch / scale if scale > 0 else mismatch


def metric_singular_columns(form: CanonicalForm, metric_matrix: np.ndarray) -> list[int]:
    """Indices of basis columns that are null with respect to a dynamical metric.

    For an indefinite metric the frame's orthonormal basis can contain vectors of
    vanishing metric norm; motion along them has no velocity interpretation, so
    callers typically just surface the indices in reports.
    """
    g = np.asarray(metric_matrix, dtype=float)
    # One BLAS product, then a dot per column: a three-operand einsum has no BLAS path.
    norms = np.einsum("ja,ja->a", form.basis, g @ form.basis)
    cut = ZERO_STRENGTH_RTOL * float(np.abs(norms).max(initial=0.0))
    return [int(i) for i in np.nonzero(np.abs(norms) <= cut)[0]]
