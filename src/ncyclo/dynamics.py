"""Classical motion in a constant magnetic field.

The momentum obeys a linear equation ``p' = K p`` with a constant matrix, so
the flow has a closed form.  For a definite metric every sample is evaluated
directly from the block decomposition of the field in the metric's own frame:
a rotation per block and a uniform drift per free direction.  An indefinite
metric has no such frame, so its one-step map, the exponential of the Van Loan
augmented matrix ``dt [[K, I], [0, 0]]``, is built once and iterated; only
this path imports ``scipy.linalg.expm``.  Classic fourth-order Runge-Kutta is
the same iteration with the exponential's degree-4 Taylor polynomial: on a
linear flow that polynomial is exactly one RK4 step.  Every method samples the
orbit into one :class:`Trajectory` of time, position and momentum arrays, which
:func:`write_trajectory_csv` and :func:`write_trajectory_structured` stream to
a file.  The dual momentum ``p - (q/c) H x`` is an integral of the motion for
every metric, and in the block basis it locates the centers of the cyclotron
orbits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import CanonicalForm, decompose, to_canonical
from .tensors import FieldTensor, MetricTensor, PhysicalConstants, _frozen

__all__ = [
    "ParticleState",
    "Trajectory",
    "OrbitDecomposition",
    "dynamics_matrix",
    "evolve_exact_trajectory",
    "evolve_rk4",
    "dual_momentum_value",
    "kinetic_energy",
    "orbit_decomposition",
    "trajectory_table",
    "write_trajectory_csv",
    "write_trajectory_structured",
]

# Trajectory rows are formatted this many at a time, which bounds the memory
# held by the Python floats of one batch.
_CSV_BATCH = 1024


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
    error names the first sample that left the floating-point range.
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
        # Energies, radii and drifts square the samples, so those squares must
        # stay finite too.
        with np.errstate(over="ignore"):
            squares = np.isfinite(np.einsum("ij,ij->i", x, x) + np.einsum("ij,ij->i", p, p))
        if not squares.all():
            i = int(np.argmin(squares))
            raise ValueError(f"the squares of the orbit overflow at step {i} "
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

    @property
    def num_blocks(self) -> int:
        return self.centers.shape[-2]


def dynamics_matrix(field: FieldTensor, metric: MetricTensor,
                    constants: PhysicalConstants) -> np.ndarray:
    """Read-only ``K = (q / m c) H g^{-1}``, so that ``p' = K p``, ``x' = g^{-1} p / m``."""
    if field.n != metric.n:
        raise ValueError(f"field is {field.n}x{field.n} but the metric is {metric.n}x{metric.n}")
    factor = constants.charge / (constants.mass * constants.light_speed)
    return _frozen(factor * (field.matrix @ metric.inverse))


def _taylor4(a: np.ndarray) -> np.ndarray:
    # I + a + a^2/2 + a^3/6 + a^4/24, by Horner's rule.
    eye = np.eye(a.shape[0])
    poly = eye
    for j in (4.0, 3.0, 2.0, 1.0):
        poly = eye + (a @ poly) / j
    return poly


def _sample(state: ParticleState, k: np.ndarray, metric: MetricTensor,
            constants: PhysicalConstants, dt: float, steps: int, exact: bool) -> Trajectory:
    """Iterate the step map ``F(dt [[K, I], [0, 0]])`` ``steps`` times into preallocated rows.

    ``F`` is the matrix exponential when ``exact``, else its degree-4 Taylor
    polynomial: one classic RK4 step of this linear flow.  The map's top-left
    block ``P`` advances the momentum and its top-right block ``J``, the
    integral of ``P`` over the step (Van Loan), the position:
    ``(x, p) -> (x + g^{-1} J p / m, P p)``.  No inverse of ``K`` appears, so
    free directions need no care.
    """
    n = state.n
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = dt * k
    aug[:n, n:] = dt * np.eye(n)
    if exact:  # only an indefinite exact orbit loads scipy
        from scipy.linalg import expm
    full = expm(aug) if exact else _taylor4(aug)
    prop, integral = full[:n, :n], full[:n, n:]
    ginv_over_m = metric.inverse / constants.mass
    position = np.empty((steps + 1, n))
    momentum = np.empty((steps + 1, n))
    x, p = state.position, state.momentum
    position[0], momentum[0] = x, p
    # An orbit that overflows is reported once, by Trajectory, instead of
    # through a floating-point warning per operation.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            x, p = x + ginv_over_m @ (integral @ p), prop @ p
            position[i], momentum[i] = x, p
    return Trajectory(state.time + np.arange(steps + 1) * dt, position, momentum)


def evolve_exact_trajectory(state: ParticleState, k: np.ndarray, metric: MetricTensor,
                            constants: PhysicalConstants, dt: float,
                            steps: int) -> Trajectory:
    """Sample the closed-form flow at ``steps`` uniform increments of ``dt``.

    For a definite metric ``g`` of sign ``s``, ``(k g - (k g)^T) / 2``, that is
    ``(q/mc) H``, is decomposed in the frame ``s g``.  With ``u = B^T p`` each
    block pair of ``u`` turns at ``s`` times its strength and each free
    component stays constant, so every sample is evaluated directly from its
    time: ``p(t) = p0 + s g B (u(t) - u0)`` and ``x(t) = x0 + (s/m) B`` times
    the integral of ``u`` over ``[0, t]``.  Blocks that :func:`decompose` cuts
    to zero still turn over a long orbit, so the free columns' remainder
    ``B_f^T (q/mc) H B_f`` is split again at its own scale.  An indefinite
    metric has no such frame: its one-step map is built once and iterated, one
    matrix-vector product pair per sample.  Returns ``steps + 1`` samples, the
    input first.
    """
    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    if not metric.is_definite:
        return _sample(state, k, metric, constants, dt, steps, True)

    sign = 1.0 if metric.signature[0] else -1.0
    g = metric.matrix
    kg = k @ g
    skew = (kg - kg.T) / 2.0
    form = decompose(FieldTensor(skew), metric)
    basis, strengths, nb = form.basis, form.strengths, form.num_blocks
    rest = basis[:, 2 * nb:].T @ skew @ basis[:, 2 * nb:]
    if np.any(rest - rest.T):
        inner = decompose(FieldTensor((rest - rest.T) / 2.0))
        basis = np.hstack([basis[:, :2 * nb], basis[:, 2 * nb:] @ inner.basis])
        strengths = np.concatenate([strengths, inner.strengths])
        nb = strengths.size
    first, second = slice(0, 2 * nb, 2), slice(1, 2 * nb, 2)  # of each block pair
    u0 = state.momentum @ basis
    a, b = u0[first], u0[second]
    omega = sign * strengths
    t = np.arange(steps + 1) * dt
    # An orbit that overflows is reported once, by Trajectory, instead of
    # through a floating-point warning per operation.
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.outer(t, omega)
        # 1 - cos as 2 sin^2 of the half angle, without cancellation near t = 0.
        sin, vers = np.sin(phase), 2.0 * np.sin(phase / 2.0) ** 2
        du = np.zeros((t.size, state.n))  # u(t) - u0
        du[:, first] = b * sin - a * vers
        du[:, second] = -a * sin - b * vers
        swept = np.outer(t, u0)  # integral of u over [0, t]
        swept[:, first] = (a * sin + b * vers) / omega
        swept[:, second] = (b * sin - a * vers) / omega
        momentum = state.momentum + sign * (du @ (g @ basis).T)
        position = state.position + (sign / constants.mass) * (swept @ basis.T)
    position[0], momentum[0] = state.position, state.momentum
    return Trajectory(state.time + t, position, momentum)


def evolve_rk4(state: ParticleState, k: np.ndarray, metric: MetricTensor,
               constants: PhysicalConstants, dt: float, steps: int) -> Trajectory:
    """Classic fourth-order Runge-Kutta trajectory: ``steps + 1`` samples, the input first.

    The flow is linear, so an RK4 step is a fixed matrix pair: the degree-4
    Taylor polynomial of the step's exponential, iterated like the exact map
    of an indefinite metric.  Its roundoff grows with the step count like that
    map's; the independent check of both is the 40-digit oracle of the tests
    (``tests/oracle.py``).
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    return _sample(state, k, metric, constants, dt, steps, False)


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
    coords = to_canonical(form, state, field, constants)
    raw = state.momentum @ form.basis  # physical momenta, no c/q rescaling
    nb, mass = form.num_blocks, constants.mass

    def turned(v: np.ndarray) -> np.ndarray:
        # (..., n) -> (..., nb, 2): block l's pair (a, b) = (v[2l], v[2l + 1])
        # turned a quarter, to (b, -a).
        return v[..., :2 * nb].reshape(v.shape[:-1] + (nb, 2))[..., ::-1] * [1.0, -1.0]

    strengths = form.strengths[:, None]
    tail = raw[..., 2 * nb:]
    return OrbitDecomposition(
        centers=turned(coords.dual_momentum) / strengths,
        relatives=-turned(coords.momentum) / strengths,
        free_velocity=tail / mass,
        block_energies=np.square(turned(raw)).sum(axis=-1) / (2.0 * mass),
        free_energy=np.einsum("...j,...j->...", tail, tail) / (2.0 * mass),
    )


def trajectory_table(trajectory: Trajectory, field: FieldTensor, metric: MetricTensor,
                     constants: PhysicalConstants) -> dict[str, np.ndarray]:
    """Columns of both trajectory formats, in order: ``t, x, p, pT, E_total``.

    ``x``, ``p`` and the dual momentum ``pT`` have one row of n values per
    sample; ``t`` and ``E_total`` one value per sample.
    """
    return {
        "t": trajectory.time,
        "x": trajectory.position,
        "p": trajectory.momentum,
        "pT": dual_momentum_value(trajectory, field, constants),
        "E_total": kinetic_energy(trajectory, metric, constants),
    }


def _write_rows(stream, columns: list[np.ndarray], line: str, separator: str = "") -> None:
    """Write ``line % row`` per sample, ``separator`` between rows, a batch at a time.

    Each row holds the sample's values of ``columns`` in order, a 2-D column
    contributing one value per entry.
    """
    rows = np.column_stack(columns)
    for start in range(0, len(rows), _CSV_BATCH):
        if start:
            stream.write(separator)
        stream.write(separator.join(line % tuple(row)
                                    for row in rows[start:start + _CSV_BATCH].tolist()))


def write_trajectory_csv(trajectory: Trajectory, field: FieldTensor,
                         metric: MetricTensor, constants: PhysicalConstants,
                         stream) -> None:
    """Write a trajectory as CSV: ``t, x1..xn, p1..pn, pT1..pTn, E_total``.

    Numbers are rendered with 17 significant digits so the file round-trips
    bit-faithfully.
    """
    table = trajectory_table(trajectory, field, metric, constants)
    header = []
    for name, column in table.items():
        if column.ndim == 1:
            header.append(name)
        else:
            header += [f"{name}{i + 1}" for i in range(column.shape[1])]
    stream.write(",".join(header) + "\n")
    _write_rows(stream, list(table.values()), ",".join(["%.17g"] * len(header)) + "\n")


def write_trajectory_structured(trajectory: Trajectory, field: FieldTensor,
                                metric: MetricTensor, constants: PhysicalConstants,
                                stream) -> None:
    """Write a trajectory as JSON: ``{"trajectory": [row, ...]}``, one object per sample.

    Each row has the keys of :func:`trajectory_table`, with ``x``, ``p`` and
    ``pT`` as lists.  The bytes are those of ``json.dumps(document, indent=2,
    sort_keys=True)`` and a final newline: ``json`` renders a float with
    ``float.__repr__``, which is ``%r``, and :class:`Trajectory` holds finite
    samples only.
    """
    table = trajectory_table(trajectory, field, metric, constants)
    names = sorted(table)
    entries = []
    for name in names:
        column = table[name]
        value = ("%r" if column.ndim == 1 else
                 "[\n" + ",\n".join(["        %r"] * column.shape[1]) + "\n      ]")
        entries.append(f'      "{name}": {value}')
    stream.write('{\n  "trajectory": [\n')
    _write_rows(stream, [table[name] for name in names],
                "    {\n" + ",\n".join(entries) + "\n    }", ",\n")
    stream.write("\n  ]\n}\n")
