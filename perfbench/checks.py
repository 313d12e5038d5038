"""Independent checks of every CLI output.

Nothing here imports ncyclo.  The block structure is checked against
``numpy.linalg.eigvals`` with a zero cut relative to the field's own norm, and
every trajectory's final sample against the Van Loan augmented exponential
(Van Loan 1978, IEEE TAC 23(3)) evaluated once, at the final time, with 40
digits of ``mpmath``.  Every benchmark config carries a ``field``, a named
metric and no ``gamma``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import LEVELS

# A strength is zero below this share of ||H||_F: the same ratio as the
# program's cut, without its max(1, ...) floor, so the count is scale-free.
ZERO_CUT_RTOL = 1e-10
# Strengths, frequencies and residuals must agree to this share of the scale.
STRUCTURE_RTOL = 1e-8
# Final-sample tolerance as a share of the largest |x| or |p| of the orbit.
# Exact propagation lands near 1e-12 of it after 1e5 steps; RK4 at
# |w dt| = 0.012 near 4e-10, from its own truncation error.
SAMPLE_RTOL = {"exact": 1e-9, "rk4": 1e-6}
ORACLE_DIGITS = 40
_CHUNK = 1 << 22


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    samples: int = 0
    orbit_error: float | None = None


class CheckFailed(Exception):
    pass


def _require(condition: bool, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def field_matrix(cfg: dict) -> np.ndarray:
    h = np.array(cfg["field"], dtype=float)
    if h.ndim == 1:
        bx, by, bz = h
        return np.array([[0.0, bz, -by], [-bz, 0.0, bx], [by, -bx, 0.0]])
    return h


def metric_matrix(cfg: dict) -> np.ndarray:
    n = cfg["n"]
    if cfg.get("metric", "euclidean") == "euclidean":
        return np.eye(n)
    return np.diag([1.0] * (n - 1) + [-1.0])


def _constants(cfg: dict) -> tuple[float, float, float, float]:
    raw = cfg.get("particle") or {}
    return (float(raw.get("m", 1.0)), float(raw.get("q", 1.0)),
            float(raw.get("c", 1.0)), float(raw.get("hbar", 1.0)))


def reference_strengths(cfg: dict) -> tuple[np.ndarray, float]:
    """Block strengths, descending, and the Frobenius norm of the field."""
    h = field_matrix(cfg)
    norm = float(np.linalg.norm(h))
    imag = np.linalg.eigvals(h).imag
    return np.sort(imag[imag > ZERO_CUT_RTOL * norm])[::-1], norm


def _check_blocks(cfg: dict, num_blocks: int, values, unit: float) -> np.ndarray:
    """Compare a block count and per-block values (strengths times ``unit``)."""
    strengths, norm = reference_strengths(cfg)
    _require(num_blocks == strengths.size,
             f"block count {num_blocks} != {strengths.size}")
    got = np.sort(np.asarray(values, dtype=float))[::-1]
    _require(got.size == strengths.size
             and np.allclose(got, unit * strengths, rtol=0, atol=STRUCTURE_RTOL * unit * norm),
             "block values differ from eigvals")
    return unit * strengths


def check_decompose(cfg: dict, doc: dict) -> None:
    strengths = _check_blocks(cfg, doc["num_blocks"], doc["strengths"], 1.0)
    _require(doc["free_dims"] == cfg["n"] - 2 * strengths.size, "free_dims")
    _require(doc["orthonormality_residual"] <= STRUCTURE_RTOL * cfg["n"], "orthonormality")
    _require(doc["reconstruction_residual"] <= STRUCTURE_RTOL, "reconstruction")


def check_spectrum(cfg: dict, doc: dict, levels: int) -> None:
    m, q, c, hbar = _constants(cfg)
    omegas = _check_blocks(cfg, doc["num_blocks"], doc["frequencies"], abs(q) / (m * c))
    _require(np.isclose(doc["ground_energy"], hbar * omegas.sum() / 2, rtol=1e-9, atol=0),
             "ground energy")
    listing = doc["levels"]
    _require(len(listing) == (levels if omegas.size else 0), "level count")
    if listing:
        numbers = np.array([entry["quantum_numbers"] for entry in listing], dtype=float)
        energies = np.array([entry["energy"] for entry in listing])
        _require(np.allclose(energies, hbar * (numbers + 0.5) @ omegas, rtol=1e-9, atol=0),
                 "level energies")
        _require(np.all(np.diff(energies) >= 0) and not numbers[0].any(), "level order")
        _require(len({tuple(row) for row in numbers}) == len(listing), "repeated level")


def orbit_oracle(cfg: dict) -> tuple[np.ndarray, np.ndarray]:
    """Final (x, p) from the 40-digit Van Loan exponential at t = steps * dt."""
    import mpmath as mp

    n = cfg["n"]
    m, q, c, _ = _constants(cfg)
    integ = cfg["integration"]
    with mp.workdps(ORACLE_DIGITS):
        ginv = mp.matrix(metric_matrix(cfg).tolist()) ** -1
        k = (mp.mpf(q) / (mp.mpf(m) * mp.mpf(c))) * mp.matrix(field_matrix(cfg).tolist()) * ginv
        t = mp.mpf(integ["dt"]) * integ["steps"]
        aug = mp.zeros(2 * n)
        for i in range(n):
            for j in range(n):
                aug[i, j] = t * k[i, j]
            aug[i, n + i] = t
        full = mp.expm(aug)
        p0 = mp.matrix(cfg["initial"]["p"])
        p = full[:n, :n] * p0
        x = mp.matrix(cfg["initial"]["x"]) + (ginv / m) * (full[:n, n:] * p0)
        return (np.array([float(v) for v in x]), np.array([float(v) for v in p]))


def _count(path: Path, needle: bytes) -> int:
    total, tail = 0, b""
    with open(path, "rb") as fh:
        while chunk := fh.read(_CHUNK):
            block = tail + chunk
            total += block.count(needle)
            tail = block[len(block) - len(needle) + 1:] if len(needle) > 1 else b""
    return total


def _tail(path: Path, size: int) -> bytes:
    with open(path, "rb") as fh:
        fh.seek(0, 2)
        fh.seek(max(0, fh.tell() - size))
        return fh.read()


def _final_csv_sample(path: Path, n: int, rows: int) -> np.ndarray:
    lines = _count(path, b"\n")
    _require(lines == rows + 1, f"rows {lines - 1} != {rows}")
    _require(_count(path, b",") == lines * (3 * n + 1), "columns")
    return np.array([float(v) for v in _tail(path, 64 * (3 * n + 2)).split(b"\n")[-2].split(b",")])


def _final_structured_sample(path: Path, n: int, rows: int) -> np.ndarray:
    found = _count(path, b'"E_total"')
    _require(found == rows, f"rows {found} != {rows}")
    # json.dumps(indent=2) puts each row object at four spaces of indent.
    text = _tail(path, 128 * (3 * n + 2)).decode()
    row = json.loads(text[text.rindex("\n    {") + 1:text.rindex("\n  ]")])
    _require(all(len(row[key]) == n for key in ("x", "p", "pT")), "columns")
    return np.array([row["t"], *row["x"], *row["p"], *row["pT"], row["E_total"]])


def check_simulate(cfg: dict, report_text: str, path: Path, fmt: str) -> Outcome:
    n, integ = cfg["n"], cfg["integration"]
    report = json.loads(report_text)
    _require(report["passed"] is True and report["steps"] == integ["steps"], "report")
    rows = integ["steps"] + 1
    if fmt == "csv":
        final = _final_csv_sample(path, n, rows)
    else:
        final = _final_structured_sample(path, n, rows)
    _require(final.size == 3 * n + 2, "columns")
    x_ref, p_ref = orbit_oracle(cfg)
    deviation = float(max(np.abs(final[1:n + 1] - x_ref).max(),
                          np.abs(final[n + 1:2 * n + 1] - p_ref).max()))
    scale = max(1.0, float(np.abs(x_ref).max()), float(np.abs(p_ref).max()))
    method = integ.get("method", "exact")
    _require(deviation <= SAMPLE_RTOL[method] * scale, f"final sample off by {deviation:.3e}")
    return Outcome(True, samples=rows, orbit_error=deviation if method == "exact" else None)


def check(call, cfg: dict, status: int, stdout: Path, stderr: Path, out: Path | None) -> Outcome:
    """Judge one finished invocation from its exit status and files."""
    err = stderr.read_text(errors="replace")
    try:
        _require("Traceback" not in err, "traceback")
        if call.refuse:
            _require(status in (1, 2) and bool(err.strip()), f"exit {status}")
            return Outcome(True)
        _require(status == 0, f"exit {status}: {err.strip()[-120:]}")
        if call.command == "simulate":
            return check_simulate(cfg, stdout.read_text(), out, call.fmt)
        if call.command == "decompose":
            check_decompose(cfg, json.loads(out.read_text()))
        elif call.command == "spectrum":
            check_spectrum(cfg, json.loads(out.read_text()), LEVELS)
        return Outcome(True)
    except CheckFailed as exc:
        return Outcome(False, str(exc))
    except (ValueError, KeyError, TypeError, OSError) as exc:
        return Outcome(False, f"unreadable output: {exc!r}")
