"""Run configuration for the command-line tools.

A run is described by one JSON file with nested keys and row-major matrices.
Parsing keeps the raw values, so a parsed configuration serializes back to the
exact document it came from; the heavyweight objects (tensors, constants,
initial state) are materialized on demand.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as _field
from pathlib import Path

import numpy as np

from .canonical import GammaTensor
from .dynamics import ParticleState
from .tensors import (
    FieldTensor,
    GaugeMatrix,
    MetricTensor,
    PhysicalConstants,
    field_from_3d_vector,
    field_from_gauge,
    gauge_antisymmetric,
    gauge_triangular,
)

__all__ = ["ConfigError", "RunConfig"]

NAMED_METRICS = ("euclidean", "minkowski")
NAMED_GAUGES = ("antisymmetric", "triangular")
INTEGRATION_METHODS = ("exact", "rk4")
OUTPUT_FORMATS = ("csv", "structured")
GAUGE_FIELD_CONSISTENCY_ATOL = 1e-12

_PARTICLE_KEYS = ("m", "q", "c", "hbar")


class ConfigError(ValueError):
    """Raised for a malformed or inconsistent run configuration."""


def _check_number(value, ctx: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{ctx}: expected a number, got {value!r}")
    return float(value)


def _check_matrix(value, n: int, ctx: str) -> None:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{ctx}: expected a nested array of {n} rows")
    if len(value) != n:
        raise ConfigError(f"{ctx}: expected {n} rows, got {len(value)}")
    for i, row in enumerate(value):
        if not isinstance(row, (list, tuple)):
            raise ConfigError(f"{ctx}: row {i} is not an array")
        if len(row) != n:
            raise ConfigError(f"{ctx}: row {i} has {len(row)} entries, expected {n}")
        for j, entry in enumerate(row):
            _check_number(entry, f"{ctx}: row {i}, column {j}")


def _check_vector(value, n: int, ctx: str) -> None:
    if not isinstance(value, (list, tuple)) or any(isinstance(e, (list, tuple)) for e in value):
        raise ConfigError(f"{ctx}: expected a flat array of {n} numbers")
    if len(value) != n:
        raise ConfigError(f"{ctx}: expected {n} entries, got {len(value)}")
    for j, entry in enumerate(value):
        _check_number(entry, f"{ctx}: entry {j}")


def _tupled(value):
    if isinstance(value, (list, tuple)):
        return tuple(_tupled(v) for v in value)
    return value


def _listed(value):
    if isinstance(value, tuple):
        return [_listed(v) for v in value]
    return value


@dataclass(frozen=True)
class RunConfig:
    """Validated run description holding the raw (serializable) values."""

    n: int
    metric: object = "euclidean"
    gamma: object = None
    gauge: object = None
    field: object = None
    particle: object = None
    initial: object = None
    integration: object = None
    output: object = None
    _resolved: dict = _field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_resolved", {})

    # ---------------------------------------------------------- construction

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("configuration must be a JSON object")
        known = {"n", "metric", "gamma", "gauge", "field",
                 "particle", "initial", "integration", "output"}
        for key in data:
            if key not in known:
                raise ConfigError(f"unknown configuration key '{key}'")
        if "n" not in data:
            raise ConfigError("missing required key 'n'")
        n = data["n"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ConfigError(f"n must be a positive integer, got {n!r}")
        config = cls(
            n=n,
            metric=_tupled(data.get("metric", "euclidean")),
            gamma=_tupled(data.get("gamma")),
            gauge=_tupled(data.get("gauge")),
            field=_tupled(data.get("field")),
            particle=_tupled(data.get("particle")),
            initial=_tupled(data.get("initial")),
            integration=_tupled(data.get("integration")),
            output=_tupled(data.get("output")),
        )
        config._validate()
        return config

    @classmethod
    def load(cls, path) -> "RunConfig":
        text = Path(path).read_text(encoding="utf-8")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
        return cls.from_dict(data)

    def _field_is_3_vector(self) -> bool:
        """Whether ``field`` is an ordinary 3-D field vector rather than a matrix."""
        return (self.n == 3 and isinstance(self.field, tuple)
                and not any(isinstance(e, tuple) for e in self.field))

    def _validate(self) -> None:
        n = self.n
        if isinstance(self.metric, str):
            if self.metric not in NAMED_METRICS:
                raise ConfigError(f"metric: unknown name '{self.metric}' "
                                  f"(expected one of {', '.join(NAMED_METRICS)})")
        else:
            _check_matrix(self.metric, n, "metric")
        if self.gamma is not None:
            _check_matrix(self.gamma, n, "gamma")

        if self.gauge is None and self.field is None:
            raise ConfigError("either 'field' or an explicit 'gauge' matrix is required")
        if isinstance(self.gauge, str):
            if self.gauge not in NAMED_GAUGES:
                raise ConfigError(f"gauge: unknown name '{self.gauge}' "
                                  f"(expected one of {', '.join(NAMED_GAUGES)})")
            if self.field is None:
                raise ConfigError(f"gauge '{self.gauge}' needs a 'field' to derive from")
        elif self.gauge is not None:
            _check_matrix(self.gauge, n, "gauge")
        if self.field is not None:
            if self._field_is_3_vector():
                _check_vector(self.field, 3, "field")
            else:
                _check_matrix(self.field, n, "field")

        if self.particle is not None:
            if not isinstance(self.particle, dict):
                raise ConfigError("particle: expected an object with keys m, q, c, hbar")
            for key, value in self.particle.items():
                if key not in _PARTICLE_KEYS:
                    raise ConfigError(f"particle: unknown key '{key}'")
                _check_number(value, f"particle.{key}")
        if self.initial is not None:
            if not isinstance(self.initial, dict):
                raise ConfigError("initial: expected an object with keys x, p")
            for key in ("x", "p"):
                if key not in self.initial:
                    raise ConfigError(f"initial: missing key '{key}'")
                _check_vector(self.initial[key], n, f"initial.{key}")
            for key in self.initial:
                if key not in ("x", "p"):
                    raise ConfigError(f"initial: unknown key '{key}'")
        if self.integration is not None:
            if not isinstance(self.integration, dict):
                raise ConfigError("integration: expected an object with keys dt, steps, method")
            for key in self.integration:
                if key not in ("dt", "steps", "method"):
                    raise ConfigError(f"integration: unknown key '{key}'")
            dt = _check_number(self.integration.get("dt", 0.0), "integration.dt")
            if dt <= 0 or not np.isfinite(dt):
                raise ConfigError(f"integration.dt must be positive, got {dt}")
            steps = self.integration.get("steps", 0)
            if isinstance(steps, bool) or not isinstance(steps, int) or steps < 1:
                raise ConfigError(f"integration.steps must be a positive integer, got {steps!r}")
            method = self.integration.get("method", "exact")
            if method not in INTEGRATION_METHODS:
                raise ConfigError(f"integration.method must be one of "
                                  f"{', '.join(INTEGRATION_METHODS)}, got {method!r}")
        if self.output is not None:
            if not isinstance(self.output, dict):
                raise ConfigError("output: expected an object with keys path, format")
            for key in self.output:
                if key not in ("path", "format"):
                    raise ConfigError(f"output: unknown key '{key}'")
            if "path" in self.output and not isinstance(self.output["path"], str):
                raise ConfigError("output.path must be a string")
            fmt = self.output.get("format", "csv")
            if fmt not in OUTPUT_FORMATS:
                raise ConfigError(f"output.format must be one of "
                                  f"{', '.join(OUTPUT_FORMATS)}, got {fmt!r}")

        # Materialize everything once so value-level errors surface at parse time.
        self.metric_tensor()
        self.gamma_tensor()
        self.constants()
        field = self.field_tensor()
        gauge = self.gauge_matrix()
        derived = field_from_gauge(gauge)
        mismatch = float(np.abs(derived.matrix - field.matrix).max())
        if mismatch > GAUGE_FIELD_CONSISTENCY_ATOL:
            raise ConfigError(f"gauge and field are inconsistent: the gauge generates a "
                              f"field differing by {mismatch:.3e}")
        if self.initial is not None:
            self.initial_state()

    # ----------------------------------------------------------- resolution

    def _cache(self, key: str, build):
        if key not in self._resolved:
            self._resolved[key] = build()
        return self._resolved[key]

    def metric_tensor(self) -> MetricTensor:
        def build():
            if self.metric == "euclidean":
                return MetricTensor.euclidean(self.n)
            if self.metric == "minkowski":
                return MetricTensor.minkowski(self.n)
            try:
                return MetricTensor(_listed(self.metric))
            except ValueError as exc:
                raise ConfigError(f"metric: {exc}") from None
        return self._cache("metric", build)

    def gamma_tensor(self) -> GammaTensor | None:
        def build():
            if self.gamma is None:
                return None
            try:
                return GammaTensor(_listed(self.gamma))
            except ValueError as exc:
                raise ConfigError(f"gamma: {exc}") from None
        return self._cache("gamma", build)

    def field_tensor(self) -> FieldTensor:
        def build():
            try:
                if self.field is None:
                    return field_from_gauge(GaugeMatrix(_listed(self.gauge)))
                if self._field_is_3_vector():
                    return field_from_3d_vector(_listed(self.field))
                return FieldTensor(_listed(self.field))
            except ValueError as exc:
                raise ConfigError(f"field: {exc}") from None
        return self._cache("field", build)

    def gauge_matrix(self) -> GaugeMatrix:
        def build():
            if self.gauge is None or self.gauge == "antisymmetric":
                return gauge_antisymmetric(self.field_tensor())
            if self.gauge == "triangular":
                return gauge_triangular(self.field_tensor())
            return GaugeMatrix(_listed(self.gauge))
        return self._cache("gauge", build)

    def constants(self) -> PhysicalConstants:
        def build():
            raw = dict(self.particle or {})
            try:
                return PhysicalConstants(
                    mass=float(raw.get("m", 1.0)),
                    charge=float(raw.get("q", 1.0)),
                    light_speed=float(raw.get("c", 1.0)),
                    hbar=float(raw.get("hbar", 1.0)),
                )
            except ValueError as exc:
                raise ConfigError(f"particle: {exc}") from None
        return self._cache("constants", build)

    def initial_state(self) -> ParticleState:
        if self.initial is None:
            raise ConfigError("this command needs an 'initial' section with x and p")
        def build():
            return ParticleState(_listed(self.initial["x"]), _listed(self.initial["p"]))
        return self._cache("initial", build)

    def integration_settings(self) -> tuple[float, int, str]:
        if self.integration is None:
            raise ConfigError("this command needs an 'integration' section "
                              "with dt, steps, and method")
        return (float(self.integration["dt"]), int(self.integration["steps"]),
                str(self.integration.get("method", "exact")))

    # -------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        out: dict = {"n": self.n}
        for key in ("metric", "gamma", "gauge", "field", "particle",
                    "initial", "integration", "output"):
            value = getattr(self, key)
            if value is not None:
                out[key] = _listed(value)
        return out

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
