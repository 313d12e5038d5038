"""Classical motion in a constant magnetic field.

The momentum obeys a linear equation ``p' = K p`` with a constant matrix, so
the flow has a closed form through the matrix exponential; a classical
Runge-Kutta integrator is kept alongside as an independent cross-check.  Both
sample the orbit into one :class:`Trajectory` of time, position and momentum
arrays.  The dual momentum ``p - (q/c) H x`` is an integral of the motion for
every metric, and in the block basis it locates the centers of the cyclotron
orbits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .canonical import CanonicalForm, to_canonical
from .tensors import FieldTensor, MetricTensor, PhysicalConstants, _frozen

__all__ = [
    "ParticleState",
    "Trajectory",
    "OrbitDecomposition",
    "dynamics_matrix",
    "evolve_exact",
    "evolve_exact_trajectory",
    "evolve_rk4",
    "dual_momentum_value",
    "kinetic_energy",
    "orbit_decomposition",
    "trajectory_table",
    "write_trajectory_csv",
]

# CSV rows are formatted this many at a time, which bounds the memory held by
# the Python floats of one batch.
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
    """Split of one state into orbit centers, relative coordinates, and free motion.

    ``centers`` and ``relatives`` hold one coordinate pair per block, expressed
    in the decomposition basis and carrying the same ``c/q`` rescaling as the
    block equations; their sum reproduces the in-block canonical position.
    Energies are physical (no rescaling) and sum to the kinetic energy whenever
    the metric is the identity.
    """

    centers: np.ndarray
    relatives: np.ndarray
    free_velocity: np.ndarray
    block_energies: np.ndarray
    free_energy: float

    def __post_init__(self) -> None:
        for name, width in (("centers", 2), ("relatives", 2)):
            arr = np.array(getattr(self, name), dtype=float).reshape(-1, width)
            object.__setattr__(self, name, _frozen(arr))
        for name in ("free_velocity", "block_energies"):
            arr = np.array(getattr(self, name), dtype=float).reshape(-1)
            object.__setattr__(self, name, _frozen(arr))
        object.__setattr__(self, "free_energy", float(self.free_energy))

    @property
    def num_blocks(self) -> int:
        return self.centers.shape[0]


def dynamics_matrix(field: FieldTensor, metric: MetricTensor,
                    constants: PhysicalConstants) -> np.ndarray:
    """Read-only ``K = (q / m c) H g^{-1}``, so that ``p' = K p``, ``x' = g^{-1} p / m``."""
    if field.n != metric.n:
        raise ValueError(f"field is {field.n}x{field.n} but the metric is {metric.n}x{metric.n}")
    factor = constants.charge / (constants.mass * constants.light_speed)
    return _frozen(factor * (field.matrix @ metric.inverse))


def _step_maps(k: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    # Van Loan augmented exponential: the top-right block of
    # expm(dt * [[K, I], [0, 0]]) is the integral of expm(s K) over [0, dt].
    # No inverse of K appears, so singular K (free directions) needs no care.
    n = k.shape[0]
    aug = np.zeros((2 * n, 2 * n))
    aug[:n, :n] = dt * k
    aug[:n, n:] = dt * np.eye(n)
    full = expm(aug)
    return full[:n, :n], full[:n, n:]


def _sample(state: ParticleState, dt: float, steps: int, advance) -> Trajectory:
    """Iterate ``(x, p) -> advance(x, p)`` ``steps`` times into preallocated rows."""
    position = np.empty((steps + 1, state.n))
    momentum = np.empty((steps + 1, state.n))
    x, p = state.position, state.momentum
    position[0], momentum[0] = x, p
    # An orbit that overflows is reported once, by Trajectory, instead of
    # through a floating-point warning per operation.
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            x, p = advance(x, p)
            position[i], momentum[i] = x, p
    return Trajectory(state.time + np.arange(steps + 1) * dt, position, momentum)


def evolve_exact(state: ParticleState, k: np.ndarray, metric: MetricTensor,
                 constants: PhysicalConstants, dt: float) -> ParticleState:
    """Advance a state by ``dt`` using the closed-form flow.

    Exact up to matrix-exponential accuracy; there is no step-size error, and
    ``dt`` may be negative.  This is the one-step case of
    :func:`evolve_exact_trajectory`.
    """
    return evolve_exact_trajectory(state, k, metric, constants, dt, 1)[1]


def evolve_exact_trajectory(state: ParticleState, k: np.ndarray, metric: MetricTensor,
                            constants: PhysicalConstants, dt: float,
                            steps: int) -> Trajectory:
    """Sample the closed-form flow at ``steps`` uniform increments of ``dt``.

    The propagator is built once and iterated, so each sample costs one
    matrix-vector product pair.  Returns ``steps + 1`` samples, the input first.
    """
    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    prop, integral = _step_maps(k, dt)
    ginv_over_m = metric.inverse / constants.mass
    return _sample(state, dt, steps,
                   lambda x, p: (x + ginv_over_m @ (integral @ p), prop @ p))


def evolve_rk4(state: ParticleState, k: np.ndarray, metric: MetricTensor,
               constants: PhysicalConstants, dt: float, steps: int) -> Trajectory:
    """Classic fourth-order Runge-Kutta reference trajectory.

    Returns ``steps + 1`` samples including the initial one.  Kept independent
    of :func:`evolve_exact` so the two can cross-validate each other.
    """
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError("dt must be positive")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    ginv_over_m = metric.inverse / constants.mass

    def advance(x, p):
        k1p = k @ p
        k1x = ginv_over_m @ p
        p2 = p + 0.5 * dt * k1p
        k2p = k @ p2
        k2x = ginv_over_m @ p2
        p3 = p + 0.5 * dt * k2p
        k3p = k @ p3
        k3x = ginv_over_m @ p3
        p4 = p + dt * k3p
        k4p = k @ p4
        k4x = ginv_over_m @ p4
        return (x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
                p + (dt / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p))

    return _sample(state, dt, steps, advance)


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


def orbit_decomposition(state: ParticleState, form: CanonicalForm, field: FieldTensor,
                        constants: PhysicalConstants) -> OrbitDecomposition:
    """Split a state into orbit centers, relative coordinates, and free motion.

    Per block the center comes from the conserved dual momentum pair and the
    relative coordinate from the kinetic one, each rotated a quarter turn and
    divided by the block strength; the geometric reading (fixed center, rigidly
    rotating relative vector) holds when the dynamical metric equals the form
    the decomposition was orthonormalized against.  The formulas are evaluated
    verbatim regardless, so callers decide how to label the result.
    """
    coords = to_canonical(form, state, field, constants)
    raw = form.basis.T @ state.momentum  # physical momenta, no c/q rescaling
    nb = form.num_blocks
    mass = constants.mass
    centers = np.zeros((nb, 2))
    relatives = np.zeros((nb, 2))
    block_energies = np.zeros(nb)
    for l, s in enumerate(form.strengths):
        lead, trail = 2 * l, 2 * l + 1
        centers[l] = (coords.dual_momentum[trail] / s, -coords.dual_momentum[lead] / s)
        relatives[l] = (-coords.momentum[trail] / s, coords.momentum[lead] / s)
        block_energies[l] = (raw[lead] ** 2 + raw[trail] ** 2) / (2.0 * mass)
    tail = raw[2 * nb:]
    return OrbitDecomposition(
        centers=centers,
        relatives=relatives,
        free_velocity=tail / mass,
        block_energies=block_energies,
        free_energy=float(tail @ tail) / (2.0 * mass),
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
    rows = np.column_stack(list(table.values()))
    line = ",".join(["%.17g"] * len(header)) + "\n"
    stream.write(",".join(header) + "\n")
    for start in range(0, len(rows), _CSV_BATCH):
        stream.write("".join(line % tuple(row)
                             for row in rows[start:start + _CSV_BATCH].tolist()))
