"""A linear flow ``p' = K p``, ``x' = g^{-1} p / m`` sampled as a sum of modes.

:func:`sample` evaluates a batch of samples, each from its time alone, as a
sum of modes ``exp(-i nu t) c`` and terms of a series: the form of every
exact orbit of :mod:`ncyclo.dynamics`, whose free motion is a mode at
``nu = 0``.  :func:`orbit` analyses ``K`` once and returns that sampler.  A
definite metric takes its modes from one Hermitian eigensolve in its own
frame; any other ``K`` from one eigensolve (the eigenvector method of Moler
and Van Loan), where :func:`split` moves each near-defective cluster of
eigenvalues, which no eigenbasis spans, onto an orthonormal basis of its
invariant subspace and the power series of ``exp(t(N - sigma))`` about the
cluster's center ``sigma``.
"""

from __future__ import annotations

import math

import numpy as np

from .tensors import MetricTensor, _unit_scaled, frobenius_norm

__all__: list[str] = []

# Eigenvalues of K within these shares of |K| of each other form clusters,
# tried in turn while the eigenvectors of the others have a condition number
# past _MODE_CONDITION_MAX: a near-defective cluster, which no
# well-conditioned eigenbasis spans, moves onto a series about its center.
_CLUSTER_CUTS = (1e-6, 1e-3)
_MODE_CONDITION_MAX = 1e2
# The basis of a cluster takes at most this many powers.
_POWERS_MAX = 64
# The series of a cluster has at most this many terms, and a term counts
# only above this many roundoffs of the error that rounding K leaves in it.
_SERIES_MAX = 64
_SERIES_NOISE = 64.0


def sample(state, t: np.ndarray, nu: np.ndarray, c: np.ndarray, to_momentum: np.ndarray,
           to_position: np.ndarray, powers: np.ndarray,
           reach: float) -> tuple[np.ndarray, np.ndarray]:
    """Positions and momenta ``x(t)``, ``p(t)`` of a sum of modes ``exp(-i nu t) c``.

    ``state`` holds the start ``x0``, ``p0``, and
    ``p(t) = p0 + Re to_momentum [(exp(-i nu t) - 1) c]``,
    ``x(t) = x0 + Re to_position [phi c]``, with ``phi`` the integral of
    ``exp(-i nu t)`` over ``[0, t]``, exactly ``t`` at ``nu = 0``; the half
    angle ``w = nu t / 2`` gives both without cancellation near ``w = 0``:
    ``-2i sin(w) e^{-iw}`` and ``t sinc(w) e^{-iw}``.  That holds for a
    column whose ``powers`` entry is -1; one with ``j >= 0`` is a term of a
    cluster's series instead, where the momentum takes ``exp(-i nu t) s^j``,
    less 1 at ``j = 0``, with ``s = t / reach``.  The position takes the
    same (its ``to_position`` holds the inverse of ``K`` on the cluster),
    except about zero (``nu = 0``), where it takes the integral
    ``t s^j / (j + 1)``, so no coefficient is multiplied by ``reach``.
    Each row depends on its time alone, but BLAS may round it differently
    in a batch of another shape, so a caller that wants the same bits for a
    row however it asks for it evaluates the same batches
    (:func:`ncyclo.dynamics.evolve_exact_trajectory` takes blocks of
    ``_BATCH`` rows).  A growing mode (``nu`` off the real axis) can pass the
    float range before its projection does, so a row whose mode amplitudes
    pass ``2^1000`` is scaled down by a power of two, which the projection's
    result gets back: the orbit is refused at the first sample that leaves
    the range itself.
    """
    # An orbit that overflows is reported once, by the caller's Trajectory,
    # instead of through a floating-point warning per operation.
    series, cluster = powers > 0, powers >= 0
    integral = cluster & (nu == 0)
    with np.errstate(over="ignore", invalid="ignore"):
        # half and turn are formed in place, by the same operations: fewer
        # temporaries per batch keep the heap from returning pages to the
        # system and faulting them in again for the next batch.
        half = np.outer(t, nu)
        half /= 2.0
        turn = np.multiply(-1j, half)
        np.exp(turn, out=turn)
        turn *= c
        kick = -2j * np.sin(half)
        swept = t[:, None] * np.sinc(half / np.pi)
        if cluster.any():
            kick[:, series] = (np.exp(-1j * half[:, series])
                               * (t[:, None] / reach) ** powers[series])
            swept = np.where(cluster, kick, swept)
            swept[:, integral] = (t[:, None] * (t[:, None] / reach) ** powers[integral]
                                  / (powers[integral] + 1))
        excess = 0
        if nu.imag.any():
            excess = (np.maximum(_exponent(kick), _exponent(swept))
                      + _exponent(turn)).max(axis=1, initial=0) - 1000
            excess = np.maximum(excess, 0)[:, None]
            np.ldexp(turn.real, -excess, out=turn.real)
            np.ldexp(turn.imag, -excess, out=turn.imag)
        momentum = state.momentum + np.ldexp(((kick * turn) @ to_momentum.T).real, excess)
        position = state.position + np.ldexp(((swept * turn) @ to_position.T).real, excess)
    return position, momentum


def _exponent(values: np.ndarray) -> np.ndarray:
    # The binary exponent e of each entry's larger part: both parts are below 2^e.
    return np.frexp(np.maximum(np.abs(values.real), np.abs(values.imag)))[1]


def orbit(state, k: np.ndarray, metric: MetricTensor, mass: float, reach: float):
    """The sampler of ``p' = K p``, ``x' = g^{-1} p / m`` from ``state``, up to ``|t| = reach``.

    The analysis of ``K`` is made here, once; the sampler it returns maps a
    batch of times ``t`` to their positions and momenta, one :func:`sample`
    call each.  ``reach`` is the largest ``|t|`` asked for, which the series
    of a cluster are built to hold (:func:`split`).  For a definite metric ``g``
    of sign ``s``, with the frame ``G = s g`` and ``y = G^{-1/2} p``, the
    generator ``A = G^{-1/2} K G^{1/2}`` of ``y`` is real antisymmetric.  One
    Hermitian eigensolve ``i A = U diag(lam) U^H`` gives the modes,
    ``nu = lam`` and ``c = U^H y0``, projected by ``G^{1/2} U`` and
    ``(s/m) G^{-1/2} U``.  ``s`` and both roots of ``G`` are the metric's
    ``frame``, worked out once per metric.  No strength is cut to zero, so a
    weak block turns however long the orbit.

    An indefinite metric has no such frame, and ``K`` can be defective: a
    null field (``E`` perpendicular to ``B``, ``|E| = |B|``) has ``K^3 = 0``,
    and from signature (2, 2) on a Jordan block can sit at a nonzero
    eigenvalue.  No eigenbasis spans such a cluster of eigenvalues.  So one
    eigensolve ``K = V diag(mu) V^{-1}`` gives the modes outside every
    cluster, ``nu = i mu`` projected by ``V`` and ``g^{-1} V / m``, and each
    cluster has an orthonormal basis ``Z`` of its invariant subspace
    (:func:`split`), with ``p0 = V c + sum Z b``.  On ``Z``,
    ``exp(tN) b = e^{sigma t} exp(t(N - sigma)) b`` with ``N = Z^H K Z`` and
    ``sigma`` the cluster's center, and ``exp(t(N - sigma))`` is its power
    series, a polynomial of degree below the cluster's size when
    ``N - sigma`` is nilpotent.  The position gains the integral,
    ``N^{-1} (exp(tN) - I) b``, or the series' own for a cluster about zero.
    The frequencies are real unless a mode grows.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if metric.is_definite:
            sign, root, inverse_root = metric.frame
            a = inverse_root @ k @ root
            lam, u = np.linalg.eigh(1j * (a / 2.0 - a.T / 2.0))  # exp(tA) = U e^{-i lam t} U^H
            modes = (lam, u.conj().T @ (inverse_root @ state.momentum), root @ u,
                     (sign / mass) * (inverse_root @ u), np.full(lam.size, -1))
            return lambda t: sample(state, t, *modes, reach)
        to_velocity = metric.inverse / mass
        mu, v, clusters = split(k, reach)
        coords = np.linalg.solve(np.hstack([v, *(z for _, z, _ in clusters)]), state.momentum)
        # K is real, so its complex modes come in conjugate pairs, whose real
        # parts are the same: each upper mode is taken twice, its pair not.
        amplitude = np.where(mu.imag > 0, 2.0, 1.0) * coords[:mu.size]
        keep = mu.imag >= 0
        nu, c, to_momentum = [1j * mu[keep]], [amplitude[keep]], [v[:, keep]]
        to_position = [to_velocity @ to_momentum[0]]
        powers, start = [np.full(keep.sum(), -1)], mu.size
        for sigma, z, series in clusters:
            b = coords[start:start + z.shape[1]]
            start += z.shape[1]
            terms = (series @ b).T
            nu.append(np.full(terms.shape[1], 1j * sigma))
            c.append(np.ones(terms.shape[1]))
            to_momentum.append(z @ terms)
            # A cluster about zero has no N^-1: sample integrates its series.
            to_position.append(to_velocity @ z @ (
                terms if sigma == 0 else np.linalg.solve(z.conj().T @ k @ z, terms)))
            powers.append(np.arange(terms.shape[1]))
        nu = np.concatenate(nu)
        modes = (nu if nu.imag.any() else nu.real, np.concatenate(c), np.hstack(to_momentum),
                 np.hstack(to_position), np.concatenate(powers))
        return lambda t: sample(state, t, *modes, reach)


def split(k: np.ndarray, reach: float) -> tuple:
    """Eigenpairs ``mu, V`` of ``K`` outside every cluster, and each cluster's ``(sigma, Z, P)``.

    One eigensolve gives ``mu`` and ``V``.  While the columns of ``V`` left
    have a condition number past ``_MODE_CONDITION_MAX`` (100), eigenvalues
    linked within ``_CLUSTER_CUTS`` (1e-6, then 1e-3 of ``|K|``) form clusters
    (:func:`_clusters`): a near-defective cluster, which no well-conditioned
    eigenbasis spans, leaves the modes.  Each cluster takes an orthonormal
    basis ``Z`` of its invariant subspace (:func:`_cluster_basis`) and the
    series ``P`` of ``exp(t(Z^H K Z - sigma))`` (:func:`_cluster_series`).  A
    cut is skipped when a basis does not settle, which happens when it splits
    a Jordan block or when the roundoff of an ill-conditioned ``K`` keeps
    moving it, and the cuts stop short of one whose series does not end
    within ``_SERIES_MAX`` terms over the orbit's ``reach``, the largest
    ``|t|``: that cluster turns or grows too far for a series, and raising the
    cut only widens it.
    """
    mu, v = np.linalg.eig(k)
    scale = frobenius_norm(k)
    chosen = mu, v, []
    for cut in _CLUSTER_CUTS:
        if not chosen[1].size or np.linalg.cond(chosen[1]) <= _MODE_CONDITION_MAX:
            break
        found = _clusters(mu, cut * scale)
        bases = [_cluster_basis(k, sigma, members.sum()) for sigma, members in found]
        if not found or any(z is None for z in bases):
            continue
        clusters = []
        for (sigma, members), z in zip(found, bases):
            series = _cluster_series(z.conj().T @ k @ z - sigma * np.eye(z.shape[1]),
                                     members.sum(), reach, scale)
            if series is None:
                return chosen
            clusters.append((sigma, z, series))
        rest = ~np.any([members for _, members in found], axis=0)
        chosen = mu[rest], v[:, rest], clusters
    return chosen


def _clusters(mu: np.ndarray, tol: float) -> list[tuple[complex, np.ndarray]]:
    """Center and member mask of each group of two or more eigenvalues linked within ``tol``.

    Linked eigenvalues share a group, and so on along the links.  A group's
    center is the mean of its eigenvalues, which a perturbation of a Jordan
    block moves by roundoff only, though each eigenvalue moves by its root;
    it is taken real within ``tol`` of the real axis, and the groups whose
    centers lie within ``tol`` of zero are one group about zero, centered at
    0.
    """
    label = np.arange(mu.size)
    linked = np.abs(mu[:, None] - mu[None, :]) <= tol
    while True:
        spread = np.where(linked, label[None, :], mu.size).min(axis=1)
        if (spread == label).all():
            break
        label = spread
    groups, zero = [], np.zeros(mu.size, bool)
    for first in np.unique(label):
        members = label == first
        sigma = complex(mu[members].mean())
        if abs(sigma) <= tol:
            zero |= members
        elif members.sum() > 1:
            groups.append((sigma.real if abs(sigma.imag) <= tol else sigma, members))
    if zero.sum() > 1:
        groups.append((0.0, zero))
    return groups


def _cluster_basis(k: np.ndarray, sigma: complex, m: int) -> np.ndarray | None:
    """Orthonormal basis of the invariant subspace of the ``m`` eigenvalues of ``K`` nearest ``sigma``.

    It is the orthogonal complement of the left invariant subspace of the
    other eigenvalues, the dominant one of ``(K - sigma)^H``: subspace
    iteration at rank ``n - m`` (Golub and Van Loan, section 7.3) from the
    leading singular vectors of ``(K - sigma)^{H m}``, whose range is that
    subspace in exact arithmetic, until the basis stops moving, or None when
    it still moves after ``_POWERS_MAX`` steps.  The nilpotent part of a
    Jordan cluster can swing the basis about for the first few steps, so no
    step short of that settling ends it.  ``K`` is unit-scaled by a power of
    two so that no power can overflow.
    """
    n = k.shape[0]
    if m == n:
        return np.eye(n)
    unit, exponent = _unit_scaled(k)
    shift = np.ldexp(np.real(sigma), -exponent)
    if np.iscomplexobj(sigma):
        shift = shift + 1j * np.ldexp(np.imag(sigma), -exponent)
    step = (unit - shift * np.eye(n)).conj().T
    settled = 4 * n * np.finfo(float).eps
    left = np.linalg.svd(np.linalg.matrix_power(step, m))[0][:, :n - m]
    for _ in range(_POWERS_MAX):
        new = np.linalg.qr(step @ left)[0]
        moved = np.abs(new - left @ (left.conj().T @ new)).max()
        left = new
        if moved <= settled:
            return np.linalg.svd(left)[0][:, n - m:]
    return None


def _cluster_series(n: np.ndarray, m: int, reach: float, scale: float) -> np.ndarray | None:
    """Terms ``P_j = (reach N)^j / j!`` with ``exp(tN) = sum_j P_j (t / reach)^j``, or None.

    ``N`` is ``K`` on a cluster of size ``m`` less its center: nilpotent for a
    Jordan cluster, when its first ``m`` terms are the whole series.  A term
    counts while it stands above ``eps`` times the largest and above a bound
    on the error that rounding ``K`` (of norm ``scale``) by ``e`` leaves in
    it, ``sum_{a+c=j-1} |N^a| |e| |N^c| reach^j / j!``: past it a term only
    carries that roundoff, amplified by the time.  A term that does not count
    is dropped, and the series ends at the first such term from the ``m``-th
    on.  None when it does not end within ``_SERIES_MAX`` terms.
    """
    eps = np.finfo(float).eps
    power = np.eye(len(n))
    terms, norms = [power], [1.0]
    noise = _SERIES_NOISE * eps * scale * reach
    for j in range(1, _SERIES_MAX):
        power = (reach / j) * (n @ power)
        norms.append(np.linalg.norm(power, 2))
        if not np.isfinite(norms[-1]):
            return None
        floor = noise * sum(norms[a] * norms[j - 1 - a] / math.comb(j - 1, a)
                            for a in range(j)) / j
        if norms[-1] > max(eps * max(norms[:-1]), floor):
            terms.append(power)
        elif j >= m:
            return np.array(terms)
        else:
            terms.append(np.zeros_like(power))
    return None
