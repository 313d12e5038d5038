"""Quantum structure of the motion.

Each nonzero block of the decomposed field tensor quantizes into an evenly
spaced oscillator ladder; the free directions contribute a continuum.  The
energy spectrum is therefore fully discrete exactly when the blocks exhaust
every dimension, which cannot happen in odd dimension.
"""

from __future__ import annotations

import heapq
import math
import numpy as np

from .canonical import CanonicalForm
from .tensors import MetricTensor, PhysicalConstants, _ReadOnly, _frozen

__all__ = [
    "SpectrumReport",
    "cyclotron_frequencies",
    "landau_level",
    "classify_spectrum",
    "level_listing",
]

# Frequencies agreeing to 2**-LADDER_BITS (1.1e-13) of the larger one form one
# degenerate ladder, and level_listing rounds each ladder's frequency to this
# many bits, so that equal ladder energies tie exactly.
LADDER_BITS = 43


class SpectrumReport(_ReadOnly):
    """Frequencies and discreteness classification of one field configuration.

    ``fully_discrete`` is ``None`` when the dynamical metric has mixed
    signature: the oscillator reading of the blocks presumes a definite kinetic
    form, so the discrete/continuous label is not applicable there.
    """

    def __init__(self, frequencies: np.ndarray, free_count: int, fully_discrete: bool | None,
                 ground_energy: float, metric_definite: bool = True) -> None:
        self._set(frequencies=_frozen(np.array(frequencies, dtype=float).reshape(-1)),
                  free_count=free_count, fully_discrete=fully_discrete,
                  ground_energy=ground_energy, metric_definite=metric_definite)

    @property
    def num_blocks(self) -> int:
        return int(self.frequencies.size)


def cyclotron_frequencies(form: CanonicalForm,
                          constants: PhysicalConstants) -> np.ndarray:
    """Angular frequency ``|q| s / (m c)`` of each block, descending.

    Raises ``ValueError`` when one leaves the floating-point range: past the
    largest float, or down to zero from a positive strength.
    """
    ratio = abs(constants.charge) / (constants.mass * constants.light_speed)
    with np.errstate(over="ignore"):
        omegas = ratio * form.strengths
    lost = ~(np.isfinite(omegas) & (omegas > 0))  # every strength is positive
    if lost.any():
        l = int(lost.argmax())
        how = "underflows to zero" if omegas[l] == 0 else "overflows"
        raise ValueError(f"the field's strength {form.strengths[l]:.3e} times the particle's "
                         f"|q|/(m c) = {ratio:.3e} leaves the floating-point range: the "
                         f"cyclotron frequency {how}")
    return omegas


def landau_level(form: CanonicalForm, constants: PhysicalConstants,
                 quantum_numbers) -> float:
    """Ladder energy ``sum_l hbar w_l (n_l + 1/2)`` for one multi-index."""
    numbers = list(quantum_numbers)
    if len(numbers) != form.num_blocks:
        raise ValueError(f"expected {form.num_blocks} quantum numbers, got {len(numbers)}")
    if any(not (n >= 0 and math.isfinite(n) and int(n) == n) for n in numbers):
        raise ValueError("quantum numbers must be non-negative integers")
    omegas = cyclotron_frequencies(form, constants)
    return float(constants.hbar * np.sum(omegas * (np.asarray(numbers, dtype=float) + 0.5)))


def _energy_overflow(constants: PhysicalConstants, which: str) -> ValueError:
    return ValueError(f"the particle's hbar = {constants.hbar:.3e} times the field's cyclotron "
                      f"frequencies leaves the floating-point range: {which} overflows")


def classify_spectrum(form: CanonicalForm, constants: PhysicalConstants | None = None,
                      metric: MetricTensor | None = None) -> SpectrumReport:
    """Classify the energy spectrum of one decomposed configuration.

    Discrete ladders come one per block; the remaining directions carry a
    continuum, so the spectrum is fully discrete exactly when there are no
    free directions.  ``form`` must come from ``decompose(field, metric)`` for a
    definite metric, decomposed in its frame; with an indefinite metric the
    label is ``None``.
    """
    constants = constants or PhysicalConstants()
    omegas = cyclotron_frequencies(form, constants)
    with np.errstate(over="ignore"):
        ground = float(constants.hbar * omegas.sum() / 2.0)
    if not math.isfinite(ground):
        raise _energy_overflow(constants, "the ground energy")
    definite = metric is None or metric.is_definite
    return SpectrumReport(
        frequencies=omegas,
        free_count=form.free_dims,
        fully_discrete=(form.free_dims == 0) if definite else None,
        ground_energy=ground,
        metric_definite=definite,
    )


def level_listing(form: CanonicalForm, constants: PhysicalConstants,
                  count: int) -> list[dict]:
    """The ``count`` lowest ladder energies with their quantum numbers.

    Best-first search over multi-indices, each pushed once, by its canonical
    parent: the level with one quantum fewer in its last excited block.  A
    parent precedes its child in ``(energy, multi-index)`` order, so the pops,
    ties included, come in that order.  Frequencies within ``2**-LADDER_BITS``
    of the largest of their run form one degenerate ladder, and each ladder's
    frequency is rounded to ``LADDER_BITS`` bits, an integer multiple of one
    power of two.  A level's energy is then an exact integer sum over its
    quanta that depends on the multi-index alone, not on the search path, so
    equal energies tie exactly, also between ladders whose frequencies are
    integer multiples of each other, and the tie resolves lexicographically:
    the last bits of the strengths do not reorder the listing.  Each energy is
    within ``2**(1 - LADDER_BITS)`` of its :func:`landau_level`, relatively.
    Empty when there are no blocks.
    """
    if form.num_blocks == 0 or count <= 0:
        return []
    rounded = []  # (mantissa, exponent) of each block's rounded frequency
    leader = math.inf
    for omega in cyclotron_frequencies(form, constants).tolist():
        if omega < leader * (1.0 - 2.0 ** -LADDER_BITS):
            leader = omega
            mantissa, exponent = math.frexp(omega)
            ladder = (round(math.ldexp(mantissa, LADDER_BITS)), exponent - LADDER_BITS)
        rounded.append(ladder)
    unit = min(exponent for _, exponent in rounded)
    quanta = [mantissa << (exponent - unit) for mantissa, exponent in rounded]
    # Twice the energy in units of hbar * 2**unit: sum of quanta * (2 n + 1).
    heap = [(sum(quanta), (0,) * form.num_blocks, 0)]
    out: list[dict] = []
    while heap and len(out) < count:
        key, numbers, last = heapq.heappop(heap)
        try:
            energy = constants.hbar * math.ldexp(key, unit - 1)
        except OverflowError:
            energy = math.inf
        if not math.isfinite(energy):
            raise _energy_overflow(constants, "a level energy")
        out.append({"energy": energy, "quantum_numbers": list(numbers)})
        for l in range(last, form.num_blocks):
            heapq.heappush(heap, (key + 2 * quanta[l],
                                  numbers[:l] + (numbers[l] + 1,) + numbers[l + 1:], l))
    return out
