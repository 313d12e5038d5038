"""Classical motion in a constant magnetic field.

The momentum obeys a linear equation ``p' = K p`` with a constant matrix, so
the flow has a closed form, and every exact sample is evaluated directly from
its time as a sum of modes and cluster series (:func:`ncyclo.modes.orbit`,
with numpy alone).  Classic fourth-order Runge-Kutta propagates in blocks of
about ``sqrt(N)`` samples with the degree-4 Taylor polynomial of the step's
exponential: on a linear flow that polynomial is exactly one RK4 step.  Every
method returns one :class:`Trajectory` backed by its row source, which
evaluates the orbit a block of rows at a time as it is read, so no array of
the whole orbit need ever exist.  :func:`write_trajectory_csv` and
:func:`write_trajectory_structured` lay out the text around the numbers and
pass the columns to :mod:`ncyclo.digits`, whose exact numpy kernel writes
``'%.17g'`` text in CSV and ``repr``'s shortest text in the structured rows,
in one share per usable CPU; the bytes do not depend on the share count.
The dual momentum
``p - (q/c) H x`` is an integral of the motion for every metric, and in the
block basis it locates the centers of the cyclotron orbits.
"""

from __future__ import annotations

import json
from functools import cached_property

import numpy as np

from .canonical import CanonicalForm
from .tensors import _BATCH, FieldTensor, MetricTensor, PhysicalConstants, _ReadOnly, _frozen

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


class ParticleState(_ReadOnly):
    """Position, covariant kinetic momentum, and time of one classical particle."""

    def __init__(self, position: np.ndarray, momentum: np.ndarray, time: float = 0.0) -> None:
        x = np.array(position, dtype=float).reshape(-1)
        p = np.array(momentum, dtype=float).reshape(-1)
        if x.size != p.size or not x.size:
            raise ValueError(f"position and momentum must have one nonempty dimension, "
                             f"got {x.size} and {p.size}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(p)) and np.isfinite(time)):
            raise ValueError("particle state entries must be finite")
        self._set(position=_frozen(x), momentum=_frozen(p), time=float(time))

    @property
    def n(self) -> int:
        return self.position.size


class Trajectory(_ReadOnly):
    """Samples of one orbit: ``time`` (N,), ``position`` and ``momentum`` (N, n).

    Reads as a sequence of :class:`ParticleState`: ``len`` and iteration work,
    an int index returns one state, and a slice of step 1 returns a shorter
    trajectory of arrays; an index array, a mask or another step is refused.
    One built from arrays is checked finite once, when it is built.  One that
    :func:`evolve_exact_trajectory` or :func:`evolve_rk4` returns is backed
    by its row source: it evaluates whole blocks of rows as they are asked
    for, checks each one as it evaluates it and keeps the last, so a walk in
    row order evaluates each block once and holds one, and a row's bits do
    not depend on how it was asked for.  ``time``, ``position`` and
    ``momentum`` evaluate every row on first access.  The error names the
    first sample past the floating-point range in the rows read, by its step
    in the whole orbit.  Values derived from the samples are checked where
    they are computed, the written columns by :func:`trajectory_table`.
    """

    def __init__(self, time: np.ndarray, position: np.ndarray, momentum: np.ndarray) -> None:
        t = np.asarray(time, dtype=float)
        x = np.asarray(position, dtype=float)
        p = np.asarray(momentum, dtype=float)
        if (t.ndim != 1 or x.ndim != 2 or x.shape != p.shape or x.shape[0] != t.size
                or not x.shape[1]):
            raise ValueError(f"trajectory must have N times and (N, n) positions and momenta, "
                             f"n nonempty, got shapes {t.shape}, {x.shape} and {p.shape}")
        _check_samples(t, x, p, 0)
        # Frozen views, so arrays passed in keep their own write flag.
        self._hold(_frozen(t.view()), _frozen(x.view()), _frozen(p.view()))

    def _hold(self, *rows: np.ndarray) -> "Trajectory":
        # Every row in one block, finite and read-only: nothing to evaluate.
        t, x, _ = rows
        self._set(_count=t.size, _size=max(t.size, 1), _n=x.shape[1], _source=None,
                  _last=[0, rows])
        return self

    @classmethod
    def _from_source(cls, count: int, size: int, n: int, source) -> "Trajectory":
        """``count`` rows in blocks of ``size``; ``source(i)`` gives block ``i``'s ``t, x, p``."""
        trajectory = cls.__new__(cls)
        trajectory._set(_count=count, _size=size, _n=n, _source=source, _last=[-1, None])
        return trajectory

    def _block(self, i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._last[0] != i:
            self._last[:] = -1, None  # so the last block is not held beside the next one
            # An orbit that overflows is refused once, below, instead of
            # through a floating-point warning per operation.
            with np.errstate(over="ignore", invalid="ignore"):
                rows = self._source(i)
            _check_samples(*rows, i * self._size)
            self._last[:] = i, tuple(map(_frozen, rows))
        return self._last[1]

    def _rows(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``t, x, p`` of the rows ``start:stop``: views of one block, or copies across blocks."""
        size, count = self._size, stop - start
        first, last = start // size, (stop - 1) // size
        if first == last:
            return tuple(column[start - first * size:stop - first * size]
                         for column in self._block(first))
        out = np.empty(count), np.empty((count, self._n)), np.empty((count, self._n))
        for i in range(first, last + 1):
            low, high = max(start, i * size), min(stop, (i + 1) * size)
            for column, block in zip(out, self._block(i)):
                column[low - start:high - start] = block[low - i * size:high - i * size]
        return tuple(map(_frozen, out))

    @cached_property
    def _whole(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self._rows(0, self._count)

    time = property(lambda self: self._whole[0])
    position = property(lambda self: self._whole[1])
    momentum = property(lambda self: self._whole[2])

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index):
        rows = range(self._count)[index]  # an index array or a mask raises TypeError here
        if isinstance(rows, range):
            if rows.step != 1:
                raise ValueError(f"a trajectory is sliced in steps of 1, not {rows.step}")
            part = self._rows(rows.start, rows.start + len(rows))
            return Trajectory.__new__(Trajectory)._hold(*part)
        t, x, p = self._block(rows // self._size)
        i = rows % self._size
        return ParticleState(x[i], p[i], t[i])

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def _check_samples(t: np.ndarray, x: np.ndarray, p: np.ndarray, first: int) -> None:
    # Rows from step `first` on: the first one past the float range is named.
    if not (np.isfinite(t).all() and np.isfinite(x).all() and np.isfinite(p).all()):
        finite = np.isfinite(t) & np.isfinite(x).all(axis=1) & np.isfinite(p).all(axis=1)
        i = int(np.argmin(finite))
        raise ValueError(f"the orbit leaves the floating-point range at step {first + i} "
                         f"(t = {t[i]:.12g})")


class CanonicalCoords(_ReadOnly):
    """Position and momenta in a decomposition basis, of one state or of each sample.

    Each field is one ``(n,)`` vector, or ``(N, n)`` with one row per sample.
    Both momenta carry the light-speed-over-charge rescaling that makes the
    block equations read ``Theta @ position = momentum - dual_momentum``.
    """

    def __init__(self, position: np.ndarray, momentum: np.ndarray,
                 dual_momentum: np.ndarray) -> None:
        x, p, dual = (_frozen(np.array(value, dtype=float))
                      for value in (position, momentum, dual_momentum))
        if not (x.shape == p.shape == dual.shape) or 0 in x.shape[-1:]:
            raise ValueError("canonical coordinate arrays must share one shape, n nonempty")
        self._set(position=x, momentum=p, dual_momentum=dual)


class OrbitDecomposition(_ReadOnly):
    """Split of a state, or of each sample, into orbit centers, relatives and free motion.

    ``centers`` and ``relatives`` hold one coordinate pair per block, expressed
    in the decomposition basis and carrying the same ``c/q`` rescaling as the
    block equations; their sum reproduces the in-block canonical position.
    Energies are physical (no rescaling); in the frame ``g`` of a positive-definite
    metric they sum to the kinetic energy (to minus it in the frame ``-g``).  A
    trajectory's split has one leading row per sample, so ``free_energy`` is an array.
    """

    def __init__(self, centers: np.ndarray, relatives: np.ndarray, free_velocity: np.ndarray,
                 block_energies: np.ndarray, free_energy: float | np.ndarray) -> None:
        c, r, v, e, f = (_frozen(np.array(value, dtype=float)) for value in
                         (centers, relatives, free_velocity, block_energies, free_energy))
        self._set(centers=c, relatives=r, free_velocity=v, block_energies=e,
                  free_energy=float(f) if f.ndim == 0 else f)


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
    poly = eye = np.eye(a.shape[0])
    for j in (4.0, 3.0, 2.0, 1.0):
        poly = eye + (a @ poly) / j
    return poly


def evolve_exact_trajectory(state: ParticleState, k: np.ndarray, metric: MetricTensor,
                            constants: PhysicalConstants, dt: float,
                            steps: int) -> Trajectory:
    """Sample the closed-form flow at ``steps`` uniform increments of ``dt``.

    Returns ``steps + 1`` samples, the input first, backed by their source:
    the analysis of ``K`` is made here, once (:func:`ncyclo.modes.orbit`,
    which gives both closed forms, over the orbit's reach ``|steps dt|``),
    and every sample is evaluated from its time alone, as a sum of modes and
    cluster series, in blocks of ``_BATCH`` rows as they are asked for.
    """
    from . import modes  # here alone: no other command compiles it

    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    sampler = modes.orbit(state, k, metric, constants.mass, abs(float(steps) * dt) or 1.0)

    def block(i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        t = np.arange(i * _BATCH, min((i + 1) * _BATCH, steps + 1), dtype=float)
        t *= dt
        position, momentum = sampler(t)
        if i == 0:
            position[0], momentum[0] = state.position, state.momentum
        t += state.time
        return t, position, momentum

    return Trajectory._from_source(steps + 1, _BATCH, state.n, block)


def evolve_rk4(state: ParticleState, k: np.ndarray, metric: MetricTensor,
               constants: PhysicalConstants, dt: float, steps: int) -> Trajectory:
    """Classic fourth-order Runge-Kutta trajectory: ``steps + 1`` samples, the input first.

    The flow of ``z = (p, x)`` is linear, ``z' = L z`` with
    ``L = [[K, 0], [g^{-1} / m, 0]]``, so an RK4 step is the fixed step map
    ``E = F(dt L)``, ``F`` the degree-4 Taylor polynomial of the exponential:
    one classic RK4 step of this linear flow.  No inverse of ``K`` appears,
    so free directions need no care.

    With ``b = round(sqrt(steps + 1))`` the first ``b`` samples come from
    iterating ``E``, and every later block of ``b`` samples is the block before
    it times the leap ``E^b``: about ``2 sqrt(steps)`` array operations instead
    of one matrix-vector product pair per sample, and roundoff that grows like
    ``2 sqrt(steps)`` roundoffs instead of ``steps``.  The trajectory is backed
    by that recurrence, which holds the last block it reached and walks on
    from it, or from the first block again for an earlier one.  Only samples
    grow, never a power of ``E``, so an orbit that overflows is refused at the
    sample that leaves the float range.  The independent check of it and of
    the exact orbits is the 40-digit oracle of the tests (``tests/oracle.py``).
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    n = state.n
    b = round(np.sqrt(steps + 1))
    generator = np.zeros((2 * n, 2 * n))
    # A step map or a leap that overflows is refused through the samples it
    # makes, by Trajectory, instead of through a floating-point warning.
    with np.errstate(over="ignore", invalid="ignore"):
        generator[:n, :n], generator[n:, :n] = k, metric.inverse / constants.mass
        step = _taylor4(dt * generator)
        leap = np.linalg.matrix_power(step, b)
    reached = [-1, None]  # the last block of the recurrence, and its rows z = (p, x)

    def block(i: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        j, rows = reached
        if not 0 <= j <= i:
            j, rows = 0, np.empty((b, 2 * n))
            rows[0, :n], rows[0, n:] = state.momentum, state.position
            for r in range(1, b):
                rows[r] = step @ rows[r - 1]
        for j in range(j + 1, i + 1):
            rows = rows[:min(b, steps + 1 - j * b)] @ leap.T
        reached[:] = i, rows
        t = np.arange(i * b, i * b + len(rows), dtype=float)
        t *= dt
        t += state.time
        return t, rows[:, n:], rows[:, :n]

    return Trajectory._from_source(steps + 1, b, n, block)


def _apply(matrix: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    # matrix @ v for one vector or for each row of a stack.  einsum sums every
    # row in the same order whatever the stack's shape, so a state and the
    # same sample of a trajectory give identical bits (BLAS does not promise
    # that between its vector and matrix kernels).
    return np.einsum("jk,...k->...j", matrix, vectors)


def dual_momentum_value(state: ParticleState | Trajectory, field: FieldTensor,
                        constants: PhysicalConstants) -> np.ndarray:
    """Conserved dual momentum ``p - (q/c) H x``: one vector, or one row per sample."""
    value = _apply(field.matrix, state.position)
    value *= constants.coupling  # in place: the one array allocated is the result
    return np.subtract(state.momentum, value, out=value)


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


def trajectory_table(trajectory: Trajectory, field: FieldTensor, metric: MetricTensor,
                     constants: PhysicalConstants, start: int = 0,
                     stop: int | None = None) -> dict[str, np.ndarray]:
    """Columns of both trajectory formats over the rows ``start:stop``: ``t, x, p, pT, E_total``.

    ``x``, ``p`` and the dual momentum ``pT`` have one row of n values per
    sample; ``t`` and ``E_total`` one value per sample.  ``t``, ``x`` and
    ``p`` are the trajectory's rows, evaluated by its source if it has one;
    ``pT`` and ``E_total`` are computed for the rows asked for alone, so a
    caller that walks an orbit a block of rows at a time never holds any
    column for the whole orbit, and each row's bits do not depend on the
    block (:func:`_apply`).  The samples of a :class:`Trajectory` are finite,
    and one past the float range is refused as its rows are evaluated, but
    ``pT`` and ``E_total`` can still overflow: a ``ValueError`` then names
    the first non-finite entry by its CSV column and its step in the whole
    trajectory, so every table returned is finite.
    """
    rows = range(len(trajectory))[start:stop]
    part = trajectory[rows.start:rows.stop]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        table = {
            "t": part.time,
            "x": part.position,
            "p": part.momentum,
            "pT": dual_momentum_value(part, field, constants),
            "E_total": kinetic_energy(part, metric, constants),
        }
    if not (np.isfinite(table["pT"]).all() and np.isfinite(table["E_total"]).all()):
        finite = np.column_stack([np.isfinite(column) for column in table.values()])
        step, column = np.argwhere(~finite)[0]
        raise ValueError(f"the trajectory column {_column_labels(table)[column]} leaves the "
                         f"floating-point range at step {rows[step]} "
                         f"(t = {part.time[step]:.12g})")
    return table


def _column_labels(table: dict[str, np.ndarray]) -> list[str]:
    # The CSV header: a 1-D column's name, name1..namen for the values of a 2-D one.
    return [label for name, column in table.items()
            for label in ([name] if column.ndim == 1
                          else [f"{name}{i + 1}" for i in range(column.shape[1])])]


def write_trajectory_csv(trajectory: Trajectory, field: FieldTensor,
                         metric: MetricTensor, constants: PhysicalConstants,
                         stream) -> None:
    """Write a trajectory as CSV: ``t, x1..xn, p1..pn, pT1..pTn, E_total``.

    Numbers are rendered with 17 significant digits so the file round-trips
    bit-faithfully: the bytes of ``'%.17g' % value``, made a chunk at a time
    by numpy (:func:`ncyclo.digits._write_rows`), each chunk's columns from
    :func:`trajectory_table` of its rows.  That raises at the first chunk
    with an entry past the float range, so a caller checks the table before
    it writes, as ``simulate`` does before it opens the file.
    """
    from . import digits  # here alone: no other command compiles it

    def columns(start: int, stop: int) -> list[np.ndarray]:
        return list(trajectory_table(trajectory, field, metric, constants, start, stop).values())

    labels = _column_labels(trajectory_table(trajectory, field, metric, constants, 0, 0))
    stream.write(",".join(labels) + "\n")
    digits._write_rows(stream, range(len(trajectory)), columns,
                       (",",) * (len(labels) - 1) + ("\n",), False)


def write_trajectory_structured(trajectory: Trajectory, field: FieldTensor,
                                metric: MetricTensor, constants: PhysicalConstants,
                                stream) -> None:
    """Write a trajectory as JSON: ``{"trajectory": [row, ...]}``, one object per sample.

    Each row has the keys of :func:`trajectory_table`, with ``x``, ``p`` and
    ``pT`` as lists.  The bytes are those of ``json.dumps(document, indent=2,
    sort_keys=True)`` and a final newline by construction: the text around
    the numbers is ``json``'s own layout of a one-row document, ``json``
    renders a float with ``float.__repr__``, whose bytes the numpy kernel of
    :mod:`ncyclo.digits` writes a chunk at a time, and :func:`trajectory_table`
    of each chunk's rows returns finite columns only.  Each row's last number
    is followed by the text that opens the next row, or, for the last row,
    closes the list.
    """
    from . import digits  # here alone: no other command compiles it

    def columns(start: int, stop: int) -> list[np.ndarray]:
        table = trajectory_table(trajectory, field, metric, constants, start, stop)
        return [table[name] for name in sorted(table)]

    count = len(trajectory)
    if not count:  # json's own text of an empty list
        stream.write(json.dumps({"trajectory": []}, indent=2) + "\n")
        return
    empty = trajectory_table(trajectory, field, metric, constants, 0, 0)
    slots = {name: None if column.ndim == 1 else [None] * column.shape[1]
             for name, column in empty.items()}
    # json's own layout of a one-row document: its first two and last two
    # lines open and close the document, the lines between are the row, and
    # the text between its null slots follows each number.
    lines = json.dumps({"trajectory": [slots]}, indent=2, sort_keys=True).split("\n")
    head, *ends, tail = "\n".join(lines[2:-2]).split("null")
    stream.write("\n".join(lines[:2]) + "\n" + head)
    digits._write_rows(stream, range(count - 1), columns, (*ends, tail + ",\n" + head), True)
    digits._write_rows(stream, range(count - 1, count), columns, (*ends, tail), True)
    stream.write("\n" + "\n".join(lines[-2:]) + "\n")
