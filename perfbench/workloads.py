"""Seeded inputs of the three benchmark workloads.

A workload is a list of CLI invocations that run one after the other.  The
seed changes the generated numbers but never the size or the difficulty of an
input, so a metric's spread across seeds reflects the program and the machine.
Two inputs are kept although they fail at the seed, because they expose real
defects (see ``KNOWN_DEFECTS``): the 1e-12-rescaled fields and the
long-horizon boost run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ORBIT_STEPS = 100_000
# 2*pi/512, the step of the circle2d and uniform3d samples.
ORBIT_DT = 0.012271846303085129
LEVELS = 200
WIDE_SIZES = (16, 64, 128, 256)
# The rescaled copies probe unit covariance, which does not depend on n, so
# only the cheapest size gets them; that keeps a wide_field run near 45 s.
RESCALED_SIZES = (16,)
SCALES = {"x1e-12": 1e-12, "x1e6": 1e6}
SAMPLES = ("circle2d", "uniform3d", "minkowski4d")
WORKLOADS = ("orbit_definite", "orbit_indefinite", "wide_field")
# The decompose/spectrum/verify controls of the orbit workloads run this many
# times per pass, spread over it; paced (see run.typical_pass), a few repeats of
# them are steady, so the time goes to repeating the simulate runs instead.
CONTROL_ROUNDS = 3
# Wall time of one pass on a quiet machine.  A run makes --seconds / this many
# passes (at least one), a number that does not depend on how busy the
# machine is, so every run takes the median of the same number of repeats.
PASS_SECONDS = {"orbit_definite": 28.0, "orbit_indefinite": 13.0, "wide_field": 38.0}

# (command, config suffix) -> the reason its check fails at the seed.
KNOWN_DEFECTS = {
    ("simulate", "boost4-1e5"): "traceback",
    ("decompose", "x1e-12"): "block count",
    ("spectrum", "x1e-12"): "block count",
}


@dataclass(frozen=True)
class Call:
    """One CLI invocation: ``ncyclo <command> --config <config>``."""

    command: str
    config: str
    fmt: str = "csv"
    # The input is physically out of range: the program must refuse it with a
    # named reason (exit 1 or 2, no traceback) instead of producing output.
    refuse: bool = False
    # A 1e5-step simulate run, seconds long: paced by the median reference of
    # the whole run rather than by the one just before it (see run.typical_pass).
    long: bool = False

    @property
    def label(self) -> str:
        return f"{self.command}:{self.config}"

    def known_defect(self) -> str | None:
        for (command, suffix), reason in KNOWN_DEFECTS.items():
            if self.command == command and self.config.endswith(suffix):
                return reason
        return None


def _signed_permutation(rng, n: int) -> np.ndarray:
    p = np.zeros((n, n))
    p[np.arange(n), rng.permutation(n)] = rng.choice([-1.0, 1.0], n)
    return p


def _blocks(strengths, n: int) -> np.ndarray:
    theta = np.zeros((n, n))
    for l, s in enumerate(strengths):
        theta[2 * l, 2 * l + 1] = s
        theta[2 * l + 1, 2 * l] = -s
    return theta


def _hadamard(n: int) -> np.ndarray:
    h = np.ones((1, 1), dtype=np.int64)
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def generic_field(rng, n: int) -> np.ndarray:
    """Dense Gaussian antisymmetric field: distinct strengths, no structure."""
    a = rng.standard_normal((n, n))
    return a - a.T


def integer_field(rng, n: int) -> np.ndarray:
    """Dense integer field with degenerate strengths.

    Integer blocks of strength 1, 2 or 3 conjugated by a signed, row-permuted
    Sylvester-Hadamard matrix ``W`` (``W W^T = n I``), so the strengths are
    ``n`` times the block values, each repeated about ``n/6`` times, and every
    commutator is exact in floating point.
    """
    w = _hadamard(n)[rng.permutation(n)] * rng.choice([-1, 1], n)[:, None]
    theta = _blocks(rng.integers(1, 4, n // 2), n).astype(np.int64)
    return w @ theta @ w.T


def _orbit(field, metric, x0, p0, dt, steps) -> dict:
    """An exact-method orbit config."""
    return {
        "n": len(x0),
        "metric": metric,
        "field": np.asarray(field).tolist(),
        "initial": {"x": [float(v) for v in x0], "p": [float(v) for v in p0]},
        "integration": {"dt": dt, "steps": steps, "method": "exact"},
    }


def _controls(config: str) -> list[Call]:
    return [Call(cmd, config) for cmd in ("decompose", "spectrum", "verify")]


def _interleave(heavy: list[Call], controls: list[Call]) -> list[Call]:
    """``CONTROL_ROUNDS`` rounds of the controls, spread evenly from before the
    first heavy call to after the last."""
    slots = [round(i * len(heavy) / (CONTROL_ROUNDS - 1)) for i in range(CONTROL_ROUNDS)]
    calls = []
    for done in range(len(heavy) + 1):
        calls += slots.count(done) * controls + heavy[done:done + 1]
    return calls


def _copy(config: dict, **integration) -> dict:
    """A sample config without its output section (the benchmark passes --out)."""
    out = json.loads(json.dumps(config))
    out["integration"].update(integration)
    out.pop("output", None)
    return out


def build(workload: str, seed: int, sample_dir: Path) -> tuple[dict, list[Call]]:
    """Return the workload's configs (name -> JSON document) and its calls."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    samples = {name: json.loads((sample_dir / f"{name}.json").read_text())
               for name in SAMPLES}
    configs: dict = {}
    calls: list[Call] = []

    if workload == "orbit_definite":
        # The seed picks the frame (a signed permutation, which keeps the
        # roundoff pattern of the block-diagonal field) and the start point.
        p = _signed_permutation(rng, 4)
        field = p @ _blocks([1.0, 0.5], 4) @ p.T
        configs["uniform3d-1e5"] = _copy(samples["uniform3d"], steps=ORBIT_STEPS)
        configs["uniform3d-1e5-rk4"] = _copy(samples["uniform3d"], steps=ORBIT_STEPS,
                                           method="rk4")
        configs["blocks4-1e5"] = _orbit(field, "euclidean", rng.uniform(-1, 1, 4),
                                        p @ [1.0, 0.0, 0.0, 0.5], ORBIT_DT, ORBIT_STEPS)
        calls = _interleave([Call("simulate", "uniform3d-1e5", long=True),
                             Call("simulate", "uniform3d-1e5-rk4", long=True),
                             Call("simulate", "blocks4-1e5", fmt="structured", long=True)],
                            _controls("blocks4-1e5"))

    elif workload == "orbit_indefinite":
        # A spatial block only, so the orbit stays bounded under the
        # Minkowski metric; the seed permutes the spatial axes and moves the
        # start point.
        p = np.eye(4)
        p[:3, :3] = _signed_permutation(rng, 3)
        spatial = p @ _blocks([1.0], 4) @ p.T
        mink = samples["minkowski4d"]
        boost = np.zeros((4, 4))
        boost[2:, 2:] = np.array(mink["field"])[2:, 2:]
        dt = mink["integration"]["dt"]
        configs["spatial4-1e5"] = _orbit(spatial, "minkowski", rng.uniform(-1, 1, 4),
                                         p @ [1.0, 0.0, 0.25, 0.1], dt, ORBIT_STEPS)
        configs["minkowski4d"] = _copy(mink)
        configs["boost4-1e5"] = _orbit(boost, "minkowski", mink["initial"]["x"],
                                       mink["initial"]["p"], dt, ORBIT_STEPS)
        calls = _interleave([Call("simulate", "spatial4-1e5", long=True),
                             Call("simulate", "minkowski4d"),
                             Call("simulate", "boost4-1e5", refuse=True, long=True)],
                            _controls("minkowski4d"))

    elif workload == "wide_field":
        sample_simulates = [Call("simulate", name) for name in SAMPLES]
        for name in SAMPLES:
            configs[name] = _copy(samples[name])
            calls += _controls(name)
        # The sample simulate runs go at the start, middle and end of the pass.
        for n in WIDE_SIZES:
            if n in (WIDE_SIZES[0], WIDE_SIZES[2]):
                calls += sample_simulates
            for kind, make in (("generic", generic_field), ("integer", integer_field)):
                field = make(rng, n)
                name = f"{kind}{n}"
                configs[name] = {"n": n, "field": field.tolist()}
                calls += _controls(name)
                if n in RESCALED_SIZES:
                    for suffix, scale in SCALES.items():
                        scaled = name + suffix
                        configs[scaled] = {"n": n, "field": (scale * field).tolist()}
                        calls += [Call(cmd, scaled) for cmd in ("decompose", "spectrum")]
        calls += sample_simulates
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return configs, calls
