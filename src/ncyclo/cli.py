"""Command-line front end: decompose, simulate, spectrum, and verify.

Each command reads one JSON run configuration (see :mod:`ncyclo.config`),
writes deterministic output, and signals success through its exit code, so the
commands double as an acceptance harness.  The environment variable
``NCYCLO_TOL`` overrides the default reporting tolerance of 1e-8.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .canonical import (
    decompose,
    metric_singular_columns,
    orthonormality_residual,
    reconstruction_residual,
)
from .config import OUTPUT_FORMATS, ConfigError, RunConfig
from .dynamics import (
    dual_momentum_value,
    dynamics_matrix,
    evolve_exact_trajectory,
    evolve_rk4,
    kinetic_energy,
    orbit_decomposition,
    trajectory_table,
    write_trajectory_csv,
)
from .operators import canonical_momentum, commutator, dual_momentum
from .spectrum import classify_spectrum, cyclotron_frequencies, level_listing
from .tensors import check_radiation_gauge

__all__ = ["main"]

DEFAULT_TOLERANCE = 1e-8
RADIATION_WARN_TOL = 1e-10
VERIFY_TOL = 1e-12
# Orbit statistics are evaluated on at most this many trajectory samples.
_REPORT_SAMPLES = 512


def _tolerance() -> float:
    raw = os.environ.get("NCYCLO_TOL")
    if raw is None:
        return DEFAULT_TOLERANCE
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"NCYCLO_TOL is not a number: {raw!r}") from None
    if not (np.isfinite(value) and value > 0):
        raise ConfigError(f"NCYCLO_TOL must be positive, got {raw!r}")
    return value


def _emit(document: dict, out_path: str | None) -> None:
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _warn_radiation(config: RunConfig) -> None:
    gauge, metric = config.gauge_matrix(), config.metric_tensor()
    residual = check_radiation_gauge(gauge, metric)
    # Relative to |g^-1|_F |A|_F, the Cauchy-Schwarz bound of the contraction.
    bound = float(np.linalg.norm(metric.inverse) * np.linalg.norm(gauge.matrix))
    if residual > RADIATION_WARN_TOL * bound:
        print(f"warning: gauge violates the radiation condition "
              f"(|g^jk A_jk| = {residual:.3e})", file=sys.stderr)


def cmd_decompose(config: RunConfig, out_path: str | None) -> int:
    _warn_radiation(config)
    gamma = config.gamma_tensor()
    form = decompose(config.field_tensor(), gamma)
    metric = config.metric_tensor()
    document = {
        "n": form.n,
        "basis": [[float(v) for v in row] for row in form.basis],
        "strengths": [float(s) for s in form.strengths],
        "num_blocks": form.num_blocks,
        "free_dims": form.free_dims,
        "orthonormality_residual": orthonormality_residual(form, gamma),
        "reconstruction_residual": reconstruction_residual(form, config.field_tensor()),
        "metric_singular_columns": metric_singular_columns(form, metric.matrix),
    }
    _emit(document, out_path)
    return 0


def cmd_spectrum(config: RunConfig, out_path: str | None, levels: int) -> int:
    _warn_radiation(config)
    form = decompose(config.field_tensor(), config.gamma_tensor())
    constants = config.constants()
    report = classify_spectrum(form, constants, config.metric_tensor())
    document = {
        "frequencies": [float(w) for w in report.frequencies],
        "num_blocks": report.num_blocks,
        "free_count": report.free_count,
        "fully_discrete": report.fully_discrete,
        "metric_definite": report.metric_definite,
        "ground_energy": report.ground_energy,
        "levels": level_listing(form, constants, levels),
    }
    _emit(document, out_path)
    return 0


def _block_statistics(times, split, form):
    """Center, radius, and measured-frequency statistics per block of a sampled split."""
    blocks = []
    for l in range(form.num_blocks):
        centers, relatives = split.centers[:, l], split.relatives[:, l]
        center0 = centers[0]
        drift = float(np.abs(centers - center0).max())
        radii = np.linalg.norm(relatives, axis=1)
        mean_radius = float(radii.mean())
        entry = {
            "strength": float(form.strengths[l]),
            "center": [float(center0[0]), float(center0[1])],
            "center_drift": drift / max(1.0, float(np.abs(center0).max())),
            "radius": mean_radius,
            "radius_drift": (float(radii.max() - radii.min()) / mean_radius
                             if mean_radius > 1e-12 else 0.0),
            "measured_frequency": None,
        }
        if mean_radius > 1e-12 and len(times) >= 8:
            angle = np.unwrap(np.arctan2(relatives[:, 1], relatives[:, 0]))
            slope = np.polyfit(times, angle, 1)[0]
            entry["measured_frequency"] = float(abs(slope))
        blocks.append(entry)
    return blocks


def cmd_simulate(config: RunConfig, out_path: str | None, out_format: str | None) -> int:
    _warn_radiation(config)
    metric = config.metric_tensor()
    gamma = config.gamma_tensor()
    field = config.field_tensor()
    constants = config.constants()
    state = config.initial_state()
    dt, steps, method = config.integration_settings()
    tol = _tolerance()

    kmat = dynamics_matrix(field, metric, constants)
    evolve = evolve_exact_trajectory if method == "exact" else evolve_rk4
    try:
        trajectory = evolve(state, kmat, metric, constants, dt, steps)
    except ValueError as exc:  # the configured orbit leaves the floating-point range
        raise ConfigError(str(exc)) from None

    output = config.settings("output")
    path = out_path or output["path"]
    fmt = out_format or output["format"]
    if not path:
        raise ConfigError("simulate needs an output path (config output.path or --out)")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            write_trajectory_csv(trajectory, field, metric, constants, fh)
        else:
            table = trajectory_table(trajectory, field, metric, constants)
            columns = {name: column.tolist() for name, column in table.items()}
            rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
            fh.write(json.dumps({"trajectory": rows}, indent=2, sort_keys=True) + "\n")

    form = decompose(field, gamma)
    gamma_matrix = np.eye(form.n) if gamma is None else gamma.matrix
    geometric_valid = bool(np.abs(metric.matrix - gamma_matrix).max() <= 1e-12)

    # Every stride-th sample, and the last one.
    count = len(trajectory)
    stride = max(1, count // _REPORT_SAMPLES)
    samples = trajectory[np.unique(np.r_[0:count:stride, count - 1])]

    duals = dual_momentum_value(samples, field, constants)
    dual_scale = max(1.0, float(np.abs(duals[0]).max()))
    energies = kinetic_energy(samples, metric, constants)
    residuals = {
        "dual_momentum_drift": float(np.abs(duals - duals[0]).max()) / dual_scale,
        "energy_drift": (float(np.abs(energies - energies[0]).max())
                         / max(1.0, abs(float(energies[0])))),
    }
    split = orbit_decomposition(samples, form, field, constants)
    blocks = _block_statistics(samples.time, split, form)
    if blocks:
        residuals["center_drift"] = max(entry["center_drift"] for entry in blocks)
    if geometric_valid and blocks:
        residuals["radius_drift"] = max(entry["radius_drift"] for entry in blocks)
        omegas = cyclotron_frequencies(form, constants)
        mismatches = [abs(entry["measured_frequency"] - w) / w
                      for entry, w in zip(blocks, omegas)
                      if entry["measured_frequency"] is not None]
        if mismatches:
            residuals["frequency_mismatch"] = float(max(mismatches))

    failing = sorted(name for name, value in residuals.items() if not value <= tol)
    report = {
        "method": method,
        "dt": dt,
        "steps": steps,
        "trajectory_path": path,
        "trajectory_format": fmt,
        "num_blocks": form.num_blocks,
        "free_dims": form.free_dims,
        "geometric_interpretation_valid": geometric_valid,
        "metric_singular_columns": metric_singular_columns(form, metric.matrix),
        "blocks": blocks,
        "free_velocity": [float(v) for v in split.free_velocity[0]],
        "block_energies": [float(e) for e in split.block_energies[0]],
        "free_energy": float(split.free_energy[0]),
        "residuals": residuals,
        "tolerance": tol,
        "failed_invariants": failing,
        "passed": not failing,
    }
    _emit(report, None)
    if failing:
        print("simulate: residuals above tolerance: " + ", ".join(failing), file=sys.stderr)
        return 1
    return 0


def cmd_verify(config: RunConfig) -> int:
    _warn_radiation(config)
    gauge = config.gauge_matrix()
    constants = config.constants()
    components = np.arange(gauge.n)
    kin = canonical_momentum(gauge, constants, components)
    dual = dual_momentum(gauge, constants, components)
    expected = 1j * constants.hbar * constants.coupling * config.field_tensor().matrix

    tables = {
        "[p, p] vs i*hbar*(q/c)*H": np.abs(commutator(kin, kin) - expected),
        "[pT, pT] vs -i*hbar*(q/c)*H": np.abs(commutator(dual, dual) + expected),
        "[p, pT] vs 0": np.abs(commutator(kin, dual)),
    }

    worst_name, worst = None, -1.0
    for name, table in tables.items():
        print(f"{name}  (max deviation {table.max():.3e})")
        for row in table:
            print("  " + "  ".join(f"{value:.3e}" for value in row))
        if table.max() > worst:
            worst_name, worst = name, float(table.max())
    print(f"maximum deviation: {worst:.3e}")
    # Relative to the largest expected entry; a zero field has zero deviations.
    if worst > VERIFY_TOL * float(np.abs(expected).max()):
        print(f"verify: relation violated: {worst_name}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncyclo",
        description="Cyclotron decomposition of charged-particle motion in an "
                    "n-dimensional constant magnetic field.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="block-diagonalize the field tensor")
    p.add_argument("--config", required=True, help="path to the JSON run configuration")
    p.add_argument("--out", help="write the document here instead of stdout")

    p = sub.add_parser("simulate", help="integrate the motion and report the orbits")
    p.add_argument("--config", required=True, help="path to the JSON run configuration")
    p.add_argument("--out", help="trajectory file path (overrides config output.path)")
    p.add_argument("--format", choices=OUTPUT_FORMATS,
                   help="trajectory format (overrides config output.format)")

    p = sub.add_parser("spectrum", help="frequencies, levels, and discreteness")
    p.add_argument("--config", required=True, help="path to the JSON run configuration")
    p.add_argument("--out", help="write the document here instead of stdout")
    p.add_argument("--levels", type=int, default=10,
                   help="how many ladder levels to list (default 10)")

    p = sub.add_parser("verify", help="check the commutation relations of the momenta")
    p.add_argument("--config", required=True, help="path to the JSON run configuration")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig.load(args.config)
        if args.command == "decompose":
            return cmd_decompose(config, args.out)
        if args.command == "simulate":
            return cmd_simulate(config, args.out, args.format)
        if args.command == "spectrum":
            return cmd_spectrum(config, args.out, args.levels)
        return cmd_verify(config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
