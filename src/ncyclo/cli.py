"""Command-line front end: decompose, simulate, spectrum, and verify.

Each command reads one JSON run configuration (see :mod:`ncyclo.config`),
writes deterministic output, and signals success through its exit code, so the
commands double as an acceptance harness.  Each boundary rule is stated
once.  Every refusal of the library, a malformed configuration or a result
past the float range, is a ``ValueError``, and :func:`main` alone prints it
as the one ``error:`` line of exit status 2.  :func:`_layout` alone renders
numpy arrays and scalars, into strict JSON with the bytes of
``json.dumps(..., indent=2, sort_keys=True)``, in one walk that also names
the first entry that is not finite.  ``simulate`` checks its trajectory table
and renders its report before it opens the trajectory file, so a refusal
leaves no file behind, and removes the file again when the write fails.  The
orbit is never held whole: its trajectory evaluates a block of rows at a
time as it is read.  The check walks it once, a block at a time, refuses
the first block with an entry past the float range (a sample of it before
a column, as the writers do), reads both integrals of the motion, the dual
momentum and the kinetic energy, at every written row, and keeps the
report's samples; each writer share then evaluates its own rows again.
No array of ``simulate`` grows with the step count.  The report measures
each block's frequency from its phase demodulated by the turn the closed
form predicts.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys

import numpy as np

from . import __version__
from .canonical import (
    decompose,
    metric_singular_columns,
    orthonormality_residual,
    reconstruction_residual,
)
from .config import RunConfig
# Not called here: perfbench's tracer wraps dual_momentum_value and kinetic_energy in cli.
from .dynamics import (
    Trajectory,
    dual_momentum_value,
    dynamics_matrix,
    evolve_exact_trajectory,
    evolve_rk4,
    kinetic_energy,
    orbit_decomposition,
    trajectory_table,
    write_trajectory_csv,
    write_trajectory_structured,
)
from .operators import canonical_momentum, commutator, dual_momentum
from .spectrum import classify_spectrum, cyclotron_frequencies, level_listing
from .tensors import _BATCH, _frozen, _unit_scaled, check_radiation_gauge, frobenius_norm

__all__ = ["main"]

DEFAULT_TOLERANCE = 1e-8
RADIATION_WARN_TOL = 1e-10
VERIFY_TOL = 1e-12
OUTPUT_FORMATS = ("csv", "structured")
# Orbit statistics are read from every (N // this)-th of N samples and the
# last: all of them below 1024 samples, 513 to 768 of them from there on.
_REPORT_SAMPLES = 512


def _layout(value, newline: str = "\n", path: str = "") -> str:
    """The text of ``json.dumps(value, indent=2, sort_keys=True)``, checked as it is laid out.

    Numpy values go through tolist, and dict keys are strings.  A list of
    plain ints and floats, as every numeric array becomes, is one join of
    their reprs, the text json writes for each; any other value is json's
    own.  The one walk carries the key path of each entry (``a.b[1][2]``), so
    the first NaN or infinity in json's order raises a ``ValueError`` that
    names it.
    """
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    inner = newline + "  "
    if isinstance(value, dict) and value:
        items = (f"{json.dumps(key)}: {_layout(item, inner, f'{path}.{key}' if path else key)}"
                 for key, item in sorted(value.items()))
    elif isinstance(value, (list, tuple)) and value:
        if all(type(item) is float or type(item) is int for item in value):
            items = [("," + inner).join(map(repr, value))]
            if "n" in items[0]:  # the reprs of nan and inf; no finite one has an n
                index = next(i for i, item in enumerate(value) if "n" in repr(item))
                return _layout(value[index], inner, f"{path}[{index}]")  # raises, by name
        else:
            items = (_layout(item, inner, f"{path}[{i}]") for i, item in enumerate(value))
    elif isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"the document entry {path} is not finite: Out of range float values "
                         f"are not JSON compliant: {value!r}")
    else:
        return json.dumps(value)
    brackets = "{}" if isinstance(value, dict) else "[]"
    return brackets[0] + inner + ("," + inner).join(items) + newline + brackets[1]


def _render(document: dict) -> str:
    return _layout(document) + "\n"


def _emit(document: dict, out_path: str | None) -> None:
    text = _render(document)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _warn_radiation(config: RunConfig) -> None:
    gauge, metric = config.gauge_matrix(), config.metric_tensor()
    residual = check_radiation_gauge(gauge, metric)
    # Relative to |g^-1|_F |A|_F, the Cauchy-Schwarz bound of the contraction.
    bound = frobenius_norm(metric.inverse) * frobenius_norm(gauge.matrix)
    if residual > RADIATION_WARN_TOL * bound:
        print(f"warning: gauge violates the radiation condition "
              f"(|g^jk A_jk| = {residual:.3e})", file=sys.stderr)


def cmd_decompose(config: RunConfig, out_path: str | None) -> int:
    form = decompose(config.field_tensor(), config.gamma_tensor())
    document = {
        "n": form.n,
        "basis": form.basis,
        "strengths": form.strengths,
        "num_blocks": form.num_blocks,
        "free_dims": form.free_dims,
        "orthonormality_residual": orthonormality_residual(form),
        "reconstruction_residual": reconstruction_residual(form, config.field_tensor()),
        "metric_singular_columns": metric_singular_columns(form, config.metric_tensor().matrix),
    }
    _emit(document, out_path)
    return 0


def cmd_spectrum(config: RunConfig, out_path: str | None, levels: int) -> int:
    constants, metric = config.constants(), config.metric_tensor()
    form = decompose(config.field_tensor(), config.gamma_tensor())
    report = classify_spectrum(form, constants, metric)
    listing = level_listing(form, constants, levels)
    document = {
        "frequencies": report.frequencies,
        "num_blocks": report.num_blocks,
        "free_count": report.free_count,
        "fully_discrete": report.fully_discrete,
        "metric_definite": report.metric_definite,
        "ground_energy": report.ground_energy,
        "levels": listing,
    }
    _emit(document, out_path)
    return 0


def _drift(first: np.ndarray, high: np.ndarray, low: np.ndarray) -> float:
    """Largest deviation of a row from the first, relative to ``max(1, |first row|)``.

    ``high`` and ``low`` are the column extremes of the rows: rounding is
    monotone, so this is bit for bit ``np.abs(values - first).max()``.
    """
    deviation = np.maximum(high - first, first - low).max()
    return deviation / max(1.0, np.abs(first).max())


def _block_statistics(times, split, form, turns):
    """Center, radius, and measured-frequency statistics per block of a sampled split.

    Block ``l``'s relative pair turns at ``turns[l]`` radians per unit time in
    the closed form.  Its angle less that turn is unwrapped and fit by a line,
    and the measured frequency is ``|turns[l] + slope|``: the demodulated phase
    moves little between samples, so samples more than half a turn apart do not
    alias, and two samples suffice for the fit.
    """
    blocks = []
    for l in range(form.num_blocks):
        centers, relatives = split.centers[:, l], split.relatives[:, l]
        # Norms of the unit-scaled pairs, scaled back: no square overflows.
        unit, exponent = _unit_scaled(relatives)
        unit_radii = np.linalg.norm(unit, axis=1)
        radii, mean_radius = np.ldexp(unit_radii, exponent), np.ldexp(unit_radii.mean(), exponent)
        entry = {"strength": form.strengths[l], "center": centers[0],
                 "center_drift": _drift(centers[0], centers.max(axis=0), centers.min(axis=0)),
                 "radius": mean_radius,
                 "radius_drift": 0.0, "measured_frequency": None}
        if mean_radius > 1e-12:
            angle = np.arctan2(relatives[:, 1], relatives[:, 0])
            slope = np.polyfit(times, np.unwrap(angle - turns[l] * times), 1)[0]
            entry.update(radius_drift=(radii.max() - radii.min()) / mean_radius,
                         measured_frequency=abs(turns[l] + slope))
        blocks.append(entry)
    return blocks


def _walk(trajectory, field, metric, constants) -> tuple[dict, Trajectory]:
    """Check the orbit and its table in one walk, a block of ``_BATCH`` rows at a time.

    Of both integrals of the motion it keeps the first row and the column
    extremes, which the drifts need, and of the samples every
    ``(count // _REPORT_SAMPLES)``-th and the last, each once; nothing it
    holds grows with the orbit.  It refuses the first block with an entry
    past the float range, a sample of it before a ``pT`` or ``E_total``
    entry: the rule of :func:`trajectory_table` and of both writers.
    """
    count = len(trajectory)
    index = np.r_[0:count - 1:max(1, count // _REPORT_SAMPLES), count - 1]
    samples = np.empty(index.size), np.empty((index.size, field.n)), np.empty((index.size, field.n))
    extremes = {}
    for start in range(0, count, _BATCH):
        stop = min(start + _BATCH, count)
        table = trajectory_table(trajectory, field, metric, constants, start, stop)
        for name in ("pT", "E_total"):
            column = table[name]
            first, high, low = extremes.get(name, (column[0],) * 3)
            extremes[name] = (first, np.maximum(high, column.max(axis=0)),
                              np.minimum(low, column.min(axis=0)))
        low, high = np.searchsorted(index, (start, stop))
        for column, name in zip(samples, ("t", "x", "p")):
            column[low:high] = table[name][index[low:high] - start]
    return extremes, Trajectory(*samples)


def cmd_simulate(config: RunConfig, path: str, fmt: str) -> int:
    metric = config.metric_tensor()
    field = config.field_tensor()
    constants = config.constants()
    state = config.initial_state()
    dt, steps, method = config.integration_settings()

    evolve = evolve_exact_trajectory if method == "exact" else evolve_rk4
    kmat = dynamics_matrix(field, metric, constants)
    trajectory = evolve(state, kmat, metric, constants, dt, steps)
    form = decompose(field, config.gamma_tensor())
    try:
        extremes, samples = _walk(trajectory, field, metric, constants)
    except MemoryError:  # only a block of the orbit or of its table can outgrow it
        raise ValueError(f"integration.steps: {steps} steps make an orbit of {steps + 1} "
                         f"samples, too many to allocate") from None

    with np.errstate(all="ignore"):  # a report value past the float range is named by _layout
        residuals = {"dual_momentum_drift": _drift(*extremes["pT"]),
                     "energy_drift": _drift(*extremes["E_total"])}
        split = orbit_decomposition(samples, form, field, constants)
        # p' = K p turns block l at -s sign(q) omega_l in the frame s g; the
        # identity stands in for an indefinite metric's frame.
        omegas = cyclotron_frequencies(form, constants)
        sign = metric.frame[0] if metric.is_definite else 1.0
        blocks = _block_statistics(samples.time, split, form,
                                   -sign * np.sign(constants.charge) * omegas)
        if blocks:
            residuals["center_drift"] = max(entry["center_drift"] for entry in blocks)
        if metric.is_definite and blocks:
            residuals["radius_drift"] = max(entry["radius_drift"] for entry in blocks)
            mismatches = [abs(entry["measured_frequency"] - w) / w
                          for entry, w in zip(blocks, omegas)
                          if entry["measured_frequency"] is not None]
            if mismatches:
                residuals["frequency_mismatch"] = max(mismatches)

    failing = sorted(name for name, value in residuals.items() if not value <= DEFAULT_TOLERANCE)
    report = _render({
        "method": method,
        "dt": dt,
        "steps": steps,
        "trajectory_path": path,
        "trajectory_format": fmt,
        "num_blocks": form.num_blocks,
        "free_dims": form.free_dims,
        "geometric_interpretation_valid": metric.is_definite,
        "metric_singular_columns": metric_singular_columns(form, metric.matrix),
        "blocks": blocks,
        "free_velocity": split.free_velocity[0],
        "block_energies": split.block_energies[0],
        "free_energy": split.free_energy[0],
        "residuals": residuals,
        "tolerance": DEFAULT_TOLERANCE,
        "failed_invariants": failing,
        "passed": not failing,
    })

    write = write_trajectory_csv if fmt == "csv" else write_trajectory_structured
    with open(path, "w", encoding="utf-8", newline="") as fh:
        try:
            write(trajectory, field, metric, constants, fh)
        except BaseException:
            # A failed write leaves no truncated file: the one regular file
            # opened at the path is removed, never a device or a link to one.
            opened = os.fstat(fh.fileno())
            if stat.S_ISREG(opened.st_mode) and os.path.samestat(opened, os.lstat(path)):
                os.remove(path)
            raise
    sys.stdout.write(report)
    if failing:
        print("simulate: residuals above tolerance: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


@functools.cache
def _e3_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``"  d.ddde"`` of 1.000 to 9.999 and 0.000, ``"e±XX"`` of -99 to 99, ``10**(-95 to 102)``."""
    mantissas = np.full((9001, 8), ord(" "), np.uint8)
    mantissas[:, 3], mantissas[:, 7] = ord("."), ord("e")
    digits = np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1).T  # of 0 to 9999
    mantissas[:, [2, 4, 5, 6]] = ord("0") + digits[np.r_[1000:10000, 0]]
    exponents = "".join(["e%+03d" % e for e in range(-99, 100)]).encode()
    return (_frozen(mantissas.view(np.uint64)[:, 0]), np.frombuffer(exponents, np.uint32),
            _frozen(10.0 ** np.arange(-95, 103)))


def _e3_text(block: np.ndarray) -> str:
    """The text of ``'  %.3e'`` per entry and ``'\\n'`` per row of a block of floats.

    Digits: the entry times a power of ten, rounded.  Exponent: ``floor(log10)``, plus one
    where the digits carry to 10000, as they do where ``log10`` is one low.  An entry within
    1e-6 of a rounding tie, and a block with a sign, nan, inf or an exponent outside -99..98
    (past which a carry could need three digits), take Python's own text.
    """
    rows, n = block.shape
    zero = block == 0
    value = np.where(zero, 1.0, block)
    with np.errstate(invalid="ignore"):  # a sign or a nan reads nan, and '%' writes the block
        exponent = np.floor(np.log10(value))
    if np.signbit(block).any() or not (-99 <= exponent.min() and exponent.max() <= 98):
        return "".join(("  %.3e" * n + "\n") % tuple(row) for row in block.tolist())
    mantissas, exponents, powers = _e3_tables()
    exponent = exponent.astype(np.intp)
    scaled = value * powers[98 - exponent]
    digits = np.rint(scaled)
    carry = digits == 10000
    index = np.where(zero, 9000, np.where(carry, 0, digits.astype(np.intp) - 1000))
    width = n * 11 + 1
    text = np.full(rows * width, ord("\n"), np.uint8)
    np.ndarray((rows, n), np.uint64, text, 0, (width, 11))[...] = mantissas[index]
    np.ndarray((rows, n), np.uint32, text, 7, (width, 11))[...] = exponents[exponent + carry + 99]
    for i, j in np.argwhere(np.abs(scaled - digits) > 0.5 - 1e-6):
        text[i * width + j * 11:][:11] = np.frombuffer(b"  %.3e" % block[i, j], np.uint8)
    return text.tobytes().decode("ascii")


def cmd_verify(config: RunConfig) -> int:
    """Print the deviation tables of the momenta's commutators from the paper's relations.

    The tables come from the momenta's real coefficient stacks.  numpy writes
    them in blocks of about 4096 entries, with the bytes of ``'  %.3e'`` per entry.
    """
    gauge = config.gauge_matrix()
    constants = config.constants()
    components = np.arange(gauge.n)
    # A deviation that leaves the float range fails the gate below, by name.
    with np.errstate(over="ignore", invalid="ignore"):
        kin = canonical_momentum(gauge, constants, components)
        dual = dual_momentum(gauge, constants, components)
        expected = 1j * constants.hbar * constants.coupling * config.field_tensor().matrix
        tables = {
            "[p, p] vs i*hbar*(q/c)*H": np.abs(commutator(kin, kin) - expected),
            "[pT, pT] vs -i*hbar*(q/c)*H": np.abs(commutator(dual, dual) + expected),
            "[p, pT] vs 0": np.abs(commutator(kin, dual)),
        }

    peaks = {name: float(table.max()) for name, table in tables.items()}
    step = max(1, 4096 // gauge.n)  # rows a block
    for name, table in tables.items():
        print(f"{name}  (max deviation {peaks[name]:.3e})")
        for start in range(0, gauge.n, step):
            sys.stdout.write(_e3_text(table[start:start + step]))
    # The first largest peak, a NaN one above all.
    worst_name = max(peaks, key=lambda name: np.nan_to_num(peaks[name], nan=np.inf))
    worst = peaks[worst_name]
    print(f"maximum deviation: {worst:.3e}")
    # Relative to the largest expected entry; a zero field has zero deviations.
    if not (np.isfinite(worst) and worst <= VERIFY_TOL * float(np.abs(expected).max())):
        print(f"verify: relation violated: {worst_name}", file=sys.stderr)
        return 1
    return 0


def non_negative_int(text: str) -> int:
    if int(text) < 0:
        raise ValueError(text)  # argparse: "argument --levels: invalid non_negative_int value"
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncyclo",
        description="Cyclotron decomposition of charged-particle motion in an "
                    "n-dimensional constant magnetic field.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", required=True, help="path to the JSON run configuration")

    p = sub.add_parser("decompose", parents=[config], help="block-diagonalize the field tensor")
    p.add_argument("--out", help="write the document here instead of stdout")

    p = sub.add_parser("simulate", parents=[config],
                       help="integrate the motion and report the orbits")
    p.add_argument("--out", required=True, help="trajectory file path")
    p.add_argument("--format", choices=OUTPUT_FORMATS, default="csv",
                   help="trajectory format (default csv)")

    p = sub.add_parser("spectrum", parents=[config], help="frequencies, levels, and discreteness")
    p.add_argument("--out", help="write the document here instead of stdout")
    p.add_argument("--levels", type=non_negative_int, default=10,
                   help="how many ladder levels to list (default 10)")

    sub.add_parser("verify", parents=[config],
                   help="check the commutation relations of the momenta")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.load(args.config)
        _warn_radiation(config)
        if args.command == "decompose":
            return cmd_decompose(config, args.out)
        if args.command == "simulate":
            return cmd_simulate(config, args.out, args.format)
        if args.command == "spectrum":
            return cmd_spectrum(config, args.out, args.levels)
        return cmd_verify(config)
    except (ValueError, OSError) as exc:  # every refusal of the library, a failed write too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
