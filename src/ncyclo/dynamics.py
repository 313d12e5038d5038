"""Classical motion in a constant magnetic field.

The momentum obeys a linear equation ``p' = K p`` with a constant matrix, so
the flow has a closed form, and every exact sample is evaluated directly from
its time as a sum of modes.  For a definite metric the modes come from one
Hermitian eigensolve: whitened by the metric's own frame the generator is
real antisymmetric, with ``+-lambda`` pairs for the cyclotron motions and
zeros for the free drift, and no strength cut.  An indefinite metric has no
such frame, and ``K`` can be defective: a null field (``E`` perpendicular to
``B``, ``|E| = |B|``) has ``K^3 = 0``.  There one eigensolve gives the modes
(the eigenvector method of Moler and Van Loan), and each near-defective
cluster of eigenvalues, which no eigenbasis spans, takes its own invariant
subspace, where ``exp(tN)`` is ``e^{sigma t}`` times a short power series
about the cluster's center ``sigma`` (:mod:`ncyclo.modes`).  Both paths use
numpy alone.  Classic fourth-order Runge-Kutta propagates in blocks of about
``sqrt(N)`` samples with the degree-4 Taylor polynomial of the step's
exponential: on a linear flow that polynomial is exactly one RK4 step.  Every
method samples the orbit into one :class:`Trajectory` of time, position and
momentum arrays, which :func:`write_trajectory_csv` and
:func:`write_trajectory_structured` stream to a file a batch of rows at a
time: CSV numbers through the exact numpy ``'%.17g'`` kernel of
:mod:`ncyclo.digits`, structured rows through a ``%r`` row template.
Formatting floats at 17 digits is still most of a long run's time, so the
batches are split into one contiguous share per usable CPU: the calling
process formats the first share into the file, forked children the others
into temporary files that it then copies after it in order, and the bytes do
not depend on the share count.  The dual momentum
``p - (q/c) H x`` is an integral of the motion for every metric, and in the
block basis it locates the centers of the cyclotron orbits.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from . import modes
from .canonical import CanonicalForm
from .tensors import FieldTensor, MetricTensor, PhysicalConstants, _frozen

__all__ = [
    "ParticleState",
    "Trajectory",
    "OrbitDecomposition",
    "CanonicalCoords",
    "dynamics_matrix",
    "evolve_exact_trajectory",
    "evolve_rk4",
    "dual_momentum_value",
    "to_canonical",
    "kinetic_energy",
    "orbit_decomposition",
    "trajectory_table",
    "write_trajectory_csv",
    "write_trajectory_structured",
]

# Trajectory rows are formatted this many at a time, so each writing process
# holds the temporaries of one batch.
_BATCH = 1024


@dataclass(frozen=True, eq=False)
class ParticleState:
    """Position, covariant kinetic momentum, and time of one classical particle."""

    position: np.ndarray
    momentum: np.ndarray
    time: float = 0.0

    def __post_init__(self) -> None:
        x = np.array(self.position, dtype=float).reshape(-1)
        p = np.array(self.momentum, dtype=float).reshape(-1)
        if x.size != p.size:
            raise ValueError("position and momentum must have the same dimension")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p)) and np.isfinite(self.time)):
            raise ValueError("particle state entries must be finite")
        object.__setattr__(self, "position", _frozen(x))
        object.__setattr__(self, "momentum", _frozen(p))
        object.__setattr__(self, "time", float(self.time))

    @property
    def n(self) -> int:
        return self.position.size


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Samples of one orbit: ``time`` (N,), ``position`` and ``momentum`` (N, n).

    Reads as a sequence of :class:`ParticleState`: ``len`` and iteration work,
    an int index returns one state, and a slice or an index array returns a
    shorter trajectory.  Finiteness is checked once, over all samples; the
    error names the first sample that left the floating-point range.  Values
    derived from the samples are checked where they are computed, the written
    columns by :func:`trajectory_table`.
    """

    time: np.ndarray
    position: np.ndarray
    momentum: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.time, dtype=float)
        x = np.asarray(self.position, dtype=float)
        p = np.asarray(self.momentum, dtype=float)
        if t.ndim != 1 or x.ndim != 2 or x.shape != p.shape or x.shape[0] != t.size:
            raise ValueError(f"a trajectory needs N times and (N, n) positions and momenta, "
                             f"got shapes {t.shape}, {x.shape} and {p.shape}")
        finite = np.isfinite(t) & np.isfinite(x).all(axis=1) & np.isfinite(p).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise ValueError(f"the orbit leaves the floating-point range at step {i} "
                             f"(t = {t[i]:.12g})")
        # Frozen views, so arrays passed in keep their own write flag.
        object.__setattr__(self, "time", _frozen(t.view()))
        object.__setattr__(self, "position", _frozen(x.view()))
        object.__setattr__(self, "momentum", _frozen(p.view()))

    def __len__(self) -> int:
        return self.time.size

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            return ParticleState(self.position[index], self.momentum[index], self.time[index])
        return Trajectory(self.time[index], self.position[index], self.momentum[index])

    def __iter__(self):
        return (self[i] for i in range(len(self)))


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


@dataclass(frozen=True, eq=False)
class OrbitDecomposition:
    """Split of a state, or of each sample, into orbit centers, relatives and free motion.

    ``centers`` and ``relatives`` hold one coordinate pair per block, expressed
    in the decomposition basis and carrying the same ``c/q`` rescaling as the
    block equations; their sum reproduces the in-block canonical position.
    Energies are physical (no rescaling); in the frame ``g`` of a positive-definite
    metric they sum to the kinetic energy (to minus it in the frame ``-g``).  A
    trajectory's split has one leading row per sample, so ``free_energy`` is an array.
    """

    centers: np.ndarray
    relatives: np.ndarray
    free_velocity: np.ndarray
    block_energies: np.ndarray
    free_energy: float | np.ndarray

    def __post_init__(self) -> None:
        for name in ("centers", "relatives", "free_velocity", "block_energies"):
            object.__setattr__(self, name, _frozen(np.array(getattr(self, name), dtype=float)))
        energy = _frozen(np.array(self.free_energy, dtype=float))
        object.__setattr__(self, "free_energy", float(energy) if energy.ndim == 0 else energy)


def dynamics_matrix(field: FieldTensor, metric: MetricTensor,
                    constants: PhysicalConstants) -> np.ndarray:
    """Read-only ``K = (q / m c) H g^{-1}``, so that ``p' = K p``, ``x' = g^{-1} p / m``.

    Raises ``ValueError`` when an entry of ``K`` leaves the floating-point range.
    """
    if field.n != metric.n:
        raise ValueError(f"field is {field.n}x{field.n} but the metric is {metric.n}x{metric.n}")
    factor = constants.charge / (constants.mass * constants.light_speed)
    with np.errstate(over="ignore", invalid="ignore"):
        k = factor * (field.matrix @ metric.inverse)
    if not np.isfinite(k).all():
        raise ValueError(f"the field times the particle's q/(m c) = {factor:.3e} leaves the "
                         f"floating-point range: K = (q/(m c)) H g^-1 overflows")
    return _frozen(k)


def _taylor4(a: np.ndarray) -> np.ndarray:
    # I + a + a^2/2 + a^3/6 + a^4/24, by Horner's rule.
    eye = np.eye(a.shape[0])
    poly = eye
    for j in (4.0, 3.0, 2.0, 1.0):
        poly = eye + (a @ poly) / j
    return poly


def evolve_exact_trajectory(state: ParticleState, k: np.ndarray, metric: MetricTensor,
                            constants: PhysicalConstants, dt: float,
                            steps: int) -> Trajectory:
    """Sample the closed-form flow at ``steps`` uniform increments of ``dt``.

    Every sample is evaluated directly from its time, a batch of rows at a
    time, as a sum of modes (:func:`ncyclo.modes.sample`).

    For a definite metric ``g`` of sign ``s``, with the frame ``G = s g`` and
    ``y = G^{-1/2} p``, the generator ``A = G^{-1/2} K G^{1/2}`` of ``y`` is
    real antisymmetric.  One Hermitian eigensolve ``i A = U diag(lam) U^H``
    gives ``exp(tA) = U exp(-i lam t) U^H``, so with ``c = U^H y0``
    ``p(t) = p0 + G^{1/2} Re U [(exp(-i lam t) - 1) c]`` and
    ``x(t) = x0 + (s/m) G^{-1/2} Re U [phi c]``, with ``phi`` the integral
    of ``exp(-i lam t)`` over ``[0, t]``, exactly ``t`` at ``lam = 0``.
    ``s`` and both roots of ``G`` are the metric's :attr:`~MetricTensor.frame`,
    worked out once per metric.  No strength is cut to zero, so a weak block
    turns however long the orbit.

    An indefinite metric has no such frame, and ``K`` can be defective, so
    its orbit is the same kind of sum over the modes of one eigensolve and
    the series of each near-defective cluster of eigenvalues
    (:func:`ncyclo.modes.orbit`).
    Returns ``steps + 1`` samples, the input first.
    """
    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    t = np.arange(steps + 1) * dt
    with np.errstate(over="ignore", invalid="ignore"):
        if metric.is_definite:
            sign, root, inverse_root = metric.frame
            a = inverse_root @ k @ root
            lam, u = np.linalg.eigh(1j * (a / 2.0 - a.T / 2.0))  # exp(tA) = U e^{-i lam t} U^H
            c = u.conj().T @ (inverse_root @ state.momentum)
            to_momentum, to_position = root @ u, (sign / constants.mass) * (inverse_root @ u)
            return Trajectory(state.time + t, *modes.sample(
                state, t, lam, c, to_momentum, to_position, np.full(lam.size, -1),
                np.zeros((0, 2, state.n)), 1.0))
        return Trajectory(state.time + t, *modes.orbit(
            state, k, metric.inverse / constants.mass, t))


def evolve_rk4(state: ParticleState, k: np.ndarray, metric: MetricTensor,
               constants: PhysicalConstants, dt: float, steps: int) -> Trajectory:
    """Classic fourth-order Runge-Kutta trajectory: ``steps + 1`` samples, the input first.

    The flow of ``z = (p, x)`` is linear, so an RK4 step is the fixed step map
    ``E = [[P, 0], [g^{-1} J / m, I]]``.  ``F(dt [[K, I], [0, 0]]) = [[P, J], [0, I]]``
    with ``F`` the degree-4 Taylor polynomial of the exponential: one classic
    RK4 step of this linear flow.  ``P`` advances the momentum and ``J``, the
    integral of ``P`` over the step (Van Loan), the position.  No inverse of
    ``K`` appears, so free directions need no care.

    With ``b = round(sqrt(steps + 1))`` the first ``b`` samples come from
    iterating ``E``, and every later block of ``b`` samples is the block before
    it times the leap ``E^b``: about ``2 sqrt(steps)`` array operations instead
    of one matrix-vector product pair per sample, and roundoff that grows like
    ``2 sqrt(steps)`` roundoffs instead of ``steps``.  Only samples grow, never
    a power of ``E``, so an orbit that overflows is refused at the sample that
    leaves the float range.  The independent check of it and of the exact
    orbits is the 40-digit oracle of the tests (``tests/oracle.py``).
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    n = state.n
    b = round(np.sqrt(steps + 1))
    rows = np.empty((steps + 1, 2 * n))
    rows[0, :n], rows[0, n:] = state.momentum, state.position
    aug = np.zeros((2 * n, 2 * n))
    # An orbit that overflows, or a step map that does, is reported once, by
    # Trajectory, instead of through a floating-point warning per operation.
    with np.errstate(over="ignore", invalid="ignore"):
        aug[:n, :n] = dt * k
        aug[:n, n:] = dt * np.eye(n)
        full = _taylor4(aug)
        step = np.eye(2 * n)
        step[:n, :n] = full[:n, :n]
        step[n:, :n] = (metric.inverse / constants.mass) @ full[:n, n:]
        leap = np.linalg.matrix_power(step, b)
        for i in range(1, b):
            rows[i] = step @ rows[i - 1]
        for j in range(b, steps + 1, b):
            end = min(j + b, steps + 1)
            rows[j:end] = rows[j - b:end - b] @ leap.T
    return Trajectory(state.time + np.arange(steps + 1) * dt, rows[:, n:], rows[:, :n])


def _apply(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    # matrix @ v for one vector or for each row of a stack.  einsum sums every
    # row in the same order whatever the stack's shape, so a state and the
    # same sample of a trajectory give identical bits (BLAS does not promise
    # that between its vector and matrix kernels).
    return np.einsum("jk,...k->...j", matrix, vectors)


def dual_momentum_value(state: ParticleState | Trajectory, field: FieldTensor,
                        constants: PhysicalConstants) -> np.ndarray:
    """Conserved dual momentum ``p - (q/c) H x``: one vector, or one row per sample."""
    return state.momentum - constants.coupling * _apply(field.matrix, state.position)


def to_canonical(form: CanonicalForm, state: ParticleState | Trajectory, field: FieldTensor,
                 constants: PhysicalConstants) -> CanonicalCoords:
    """Express a state, or every sample of a trajectory, in the decomposition basis.

    The returned momenta are rescaled by ``c / q`` so that, together with the
    assembled block tensor, they satisfy
    ``canonical_tensor(form) @ position = momentum - dual_momentum``; for a
    trajectory each array has one row per sample.  The position solves
    ``B xi = x`` instead of applying ``B^-1 = B^T G``: the basis is
    ``G``-orthonormal only to about ``cond(G)`` roundoffs, and on seeded n = 6
    frames of condition 1e6 the block equations held to 1.2e-13 of the dual
    gap through ``solve`` but only to 1.9e-10 through ``B^T G``.
    """
    x, p = state.position, state.momentum
    if form.n != field.n or x.shape[-1] != form.n:
        raise ValueError("form, field, and state dimensions do not agree")
    b = form.basis
    scale = constants.light_speed / constants.charge
    return CanonicalCoords(
        position=np.linalg.solve(b, x.T).T,
        momentum=scale * (p @ b),
        dual_momentum=scale * (dual_momentum_value(state, field, constants) @ b),
    )


def kinetic_energy(state: ParticleState | Trajectory, metric: MetricTensor,
                   constants: PhysicalConstants) -> float | np.ndarray:
    """Kinetic energy ``g^{jk} p_j p_k / 2m``: a float, or an array with one per sample."""
    p = state.momentum
    energy = np.einsum("...j,...j->...", _apply(metric.inverse, p), p) / (2.0 * constants.mass)
    return float(energy) if energy.ndim == 0 else energy


def orbit_decomposition(state: ParticleState | Trajectory, form: CanonicalForm,
                        field: FieldTensor, constants: PhysicalConstants) -> OrbitDecomposition:
    """Split a state, or each sample of a trajectory, into orbits and free motion.

    Per block the center comes from the conserved dual momentum pair and the
    relative coordinate from the kinetic one, each rotated a quarter turn and
    divided by the block strength; the geometric reading (fixed center, rigidly
    rotating relative vector) holds for every definite metric decomposed in its
    own frame, ``g`` or ``-g``.  The formulas are evaluated verbatim for any
    other frame too, so callers decide how to label the result.
    """
    raw = state.momentum @ form.basis  # physical momenta, no c/q rescaling
    dual = dual_momentum_value(state, field, constants) @ form.basis
    scale = constants.light_speed / constants.charge
    nb, mass = form.num_blocks, constants.mass

    def turned(v: np.ndarray) -> np.ndarray:
        # (..., n) -> (..., nb, 2): block l's pair (a, b) = (v[2l], v[2l + 1])
        # turned a quarter, to (b, -a).
        return v[..., :2 * nb].reshape(v.shape[:-1] + (nb, 2))[..., ::-1] * [1.0, -1.0]

    strengths = form.strengths[:, None]
    tail = raw[..., 2 * nb:]
    return OrbitDecomposition(
        centers=turned(scale * dual) / strengths,
        relatives=-turned(scale * raw) / strengths,
        free_velocity=tail / mass,
        block_energies=np.square(turned(raw)).sum(axis=-1) / (2.0 * mass),
        free_energy=np.einsum("...j,...j->...", tail, tail) / (2.0 * mass),
    )


@lru_cache(maxsize=1)
def trajectory_table(trajectory: Trajectory, field: FieldTensor, metric: MetricTensor,
                     constants: PhysicalConstants) -> MappingProxyType:
    """Columns of both trajectory formats, in order: ``t, x, p, pT, E_total``.

    ``x``, ``p`` and the dual momentum ``pT`` have one row of n values per
    sample; ``t`` and ``E_total`` one value per sample.  The samples of a
    :class:`Trajectory` are finite, but ``pT`` and ``E_total`` can still
    overflow: a ``ValueError`` then names the first non-finite entry by its
    CSV column and step, so every table returned is finite.  The last result
    is kept and shared, keyed on its immutable arguments, so a check and a
    writer of one run build one table; the mapping and its arrays are read-only.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        table = {
            "t": trajectory.time,
            "x": trajectory.position,
            "p": trajectory.momentum,
            "pT": _frozen(dual_momentum_value(trajectory, field, constants)),
            "E_total": _frozen(kinetic_energy(trajectory, metric, constants)),
        }
    finite = np.column_stack([np.isfinite(column) for column in table.values()])
    if not finite.all():
        step, column = np.argwhere(~finite)[0]
        raise ValueError(f"the trajectory column {_column_labels(table)[column]} leaves the "
                         f"floating-point range at step {step} (t = {trajectory.time[step]:.12g})")
    return MappingProxyType(table)


def _column_labels(table: dict[str, np.ndarray]) -> list[str]:
    # The CSV header: a 1-D column's name, name1..namen for the values of a 2-D one.
    labels = []
    for name, column in table.items():
        if column.ndim == 1:
            labels.append(name)
        else:
            labels += [f"{name}{i + 1}" for i in range(column.shape[1])]
    return labels


def _write_rows(stream, columns: list[np.ndarray], text, separator: str = "") -> None:
    """Write the rows of ``columns`` as ``text(batch)``, a batch at a time, ``separator`` between.

    Each row holds the sample's values of ``columns`` in order, a 2-D column
    contributing one value per entry, and ``text`` renders a ``(rows, values)``
    batch of them, ``separator`` between its rows.  The batches are split into
    one contiguous share per usable CPU, at most one per batch.  This process
    formats the first share into ``stream``; a forked child formats each other
    share into a temporary file, which is copied into ``stream`` after the
    child exits.  Every share writes the separator before each of its batches
    but the orbit's first, so the bytes are those of one share.  A child that
    fails raises ``ChildProcessError``; every child is reaped before this
    returns or raises, the ones still running on an error after a ``SIGTERM``.
    """
    def write_share(out, starts: range) -> None:
        for start in starts:
            if start:
                out.write(separator)
            out.write(text(np.column_stack([column[start:start + _BATCH] for column in columns])))

    starts = range(0, len(columns[0]), _BATCH)
    # Where os has sched_getaffinity (Linux) it has fork; elsewhere one share.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    count = max(1, min(cpus, len(starts)))
    shares = [starts[len(starts) * i // count:len(starts) * (i + 1) // count]
              for i in range(count)]
    spools, pids = [], []  # a temporary file per forked share; the children not yet reaped
    try:
        for share in shares[1:]:
            spools.append(tempfile.TemporaryFile("w+", encoding="utf-8", newline=""))
            pid = os.fork()
            if pid == 0:  # leave by _exit alone: no flush of inherited buffers, no cleanup
                status = 1
                try:
                    write_share(spools[-1], share)
                    spools[-1].flush()
                    status = 0
                finally:
                    os._exit(status)
            pids.append(pid)
        write_share(stream, shares[0])
        for spool in spools:
            status = os.waitpid(pids[0], 0)[1]
            pid = pids.pop(0)
            if status:
                raise ChildProcessError(f"the trajectory writer process {pid} failed with "
                                        f"exit status {os.waitstatus_to_exitcode(status)}")
            spool.seek(0)
            shutil.copyfileobj(spool, stream)
    except BaseException:
        import signal  # here alone, on the error path: it costs a millisecond of import

        for pid in pids:
            os.kill(pid, signal.SIGTERM)
        for pid in pids:
            os.waitpid(pid, 0)
        raise
    finally:
        for spool in spools:
            spool.close()


def write_trajectory_csv(trajectory: Trajectory, field: FieldTensor,
                         metric: MetricTensor, constants: PhysicalConstants,
                         stream) -> None:
    """Write a trajectory as CSV: ``t, x1..xn, p1..pn, pT1..pTn, E_total``.

    Numbers are rendered with 17 significant digits so the file round-trips
    bit-faithfully: the bytes of ``'%.17g' % value``, made a batch at a time
    by numpy (:mod:`ncyclo.digits`).
    """
    from . import digits  # here alone: no other command compiles it

    table = trajectory_table(trajectory, field, metric, constants)
    stream.write(",".join(_column_labels(table)) + "\n")
    _write_rows(stream, list(table.values()), digits._csv_rows)


def write_trajectory_structured(trajectory: Trajectory, field: FieldTensor,
                                metric: MetricTensor, constants: PhysicalConstants,
                                stream) -> None:
    """Write a trajectory as JSON: ``{"trajectory": [row, ...]}``, one object per sample.

    Each row has the keys of :func:`trajectory_table`, with ``x``, ``p`` and
    ``pT`` as lists.  The bytes are those of ``json.dumps(document, indent=2,
    sort_keys=True)`` and a final newline by construction: the layout is
    ``json``'s own, of a one-row document of ``%r`` slots, ``json`` renders a
    float with ``float.__repr__``, which is ``%r``, and
    :func:`trajectory_table` returns finite columns only.
    """
    table = trajectory_table(trajectory, field, metric, constants)
    slots = {name: "%r" if column.ndim == 1 else ["%r"] * column.shape[1]
             for name, column in table.items()}
    # json's own layout of a one-row document: its first two and last two
    # lines open and close the document, the lines between are the row.
    lines = json.dumps({"trajectory": [slots]}, indent=2, sort_keys=True).split("\n")
    row = "\n".join(lines[2:-2]).replace('"%r"', "%r")
    stream.write("\n".join(lines[:2]) + "\n")
    _write_rows(stream, [table[name] for name in sorted(table)],
                lambda rows: ",\n".join(row % tuple(values) for values in rows.tolist()), ",\n")
    stream.write("\n" + "\n".join(lines[-2:]) + "\n")
