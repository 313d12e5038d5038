"""Run configuration for the command-line tools.

A run is described by one JSON file with nested keys and row-major matrices.
The top-level keys are the fields of :class:`RunConfig`.  Each tensor key
(``metric``, ``gauge``, ``field``) is checked by the accessor that builds it;
the keys, checks and defaults of the object sections live in one table,
``SECTIONS``, the one place that validation and every default read them from.
A section number or a vector entry that is NaN or infinite is refused by its
key path (``initial.x: entry 1``); a matrix entry is refused, by its row and
column, by the tensor built from it.
Parsing keeps the parsed JSON values as given, so a parsed configuration
serializes back to the exact document it came from.  The tensors, the
constants and the initial state are built once, while parsing, by the
accessors that check them (``_validate``); each accessor then returns the
object it kept.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .dynamics import ParticleState
from .tensors import (
    FieldTensor,
    GaugeMatrix,
    MetricTensor,
    PhysicalConstants,
    _ReadOnly,
    field_from_3d_vector,
    field_from_gauge,
    gauge_antisymmetric,
    gauge_triangular,
)

__all__ = ["ConfigError", "RunConfig"]

NAMED_METRICS = {"euclidean": MetricTensor.euclidean, "minkowski": MetricTensor.minkowski}
NAMED_GAUGES = {"antisymmetric": gauge_antisymmetric, "triangular": gauge_triangular}
INTEGRATION_METHODS = ("exact", "rk4")
GAUGE_FIELD_CONSISTENCY_RTOL = 1e-12


class ConfigError(ValueError):
    """Raised for a malformed or inconsistent run configuration."""


# Every checker takes (value, ctx, n) and raises ConfigError naming ``ctx``.

def _check_number(value, ctx: str, *_) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{ctx}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer literal past the largest float
        raise ConfigError(f"{ctx}: the number is outside the floating-point range") from None


def _check_finite(value, ctx: str, *_) -> float:
    number = _check_number(value, ctx)
    if not np.isfinite(number):
        raise ConfigError(f"{ctx}: expected a finite number, got {number}")
    return number


def _check_positive(value, ctx: str, *_) -> None:
    number = _check_finite(value, ctx)
    if number <= 0:
        raise ConfigError(f"{ctx} must be positive, got {number}")


def _check_count(value, ctx: str, *_) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError(f"{ctx} must be a positive integer, got {value!r}")


def _check_steps(value, ctx: str, *_) -> None:
    # Sample i is taken at i * dt: past 2**53 float64 no longer tells i from i + 1.
    _check_count(value, ctx)
    if value > 2**53:
        raise ConfigError(f"{ctx}: {value} steps index samples past 2**53, where float64 no "
                          f"longer tells consecutive sample times i*dt apart")


def _one_of(choices: tuple):
    def check(value, ctx: str, *_) -> None:
        if value not in choices:
            raise ConfigError(f"{ctx} must be one of {', '.join(choices)}, got {value!r}")
    return check


def _named(table: dict, name: str, ctx: str):
    """The constructor a name stands for in ``table``."""
    if name not in table:
        raise ConfigError(f"{ctx}: unknown name '{name}' (expected one of {', '.join(table)})")
    return table[name]


def _check_matrix(value, ctx: str, n: int) -> None:
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{ctx}: expected a nested array of {n} rows")
    if len(value) != n:
        raise ConfigError(f"{ctx}: expected {n} rows, got {len(value)}")
    for i, row in enumerate(value):
        if not isinstance(row, (list, tuple)):
            raise ConfigError(f"{ctx}: row {i} is not an array")
        if len(row) != n:
            raise ConfigError(f"{ctx}: row {i} has {len(row)} entries, expected {n}")
        # A row of plain numbers that all fit a float passes without a call
        # per entry; any other row is checked entry by entry for the message.
        if not (set(map(type, row)) <= {int, float}
                and max(map(abs, row)) <= sys.float_info.max):
            for j, entry in enumerate(row):
                _check_number(entry, f"{ctx}: row {i}, column {j}")


def _check_vector(value, ctx: str, n: int) -> None:
    if not isinstance(value, (list, tuple)) or any(isinstance(e, (list, tuple)) for e in value):
        raise ConfigError(f"{ctx}: expected a flat array of {n} numbers")
    if len(value) != n:
        raise ConfigError(f"{ctx}: expected {n} entries, got {len(value)}")
    for j, entry in enumerate(value):
        _check_finite(entry, f"{ctx}: entry {j}")


REQUIRED = object()

# Object section -> key -> (checker, default); REQUIRED marks a key with no
# default.  Key order is the order of the error messages and of settings().
SECTIONS = {
    "particle": {key: (_check_finite, 1.0) for key in ("m", "q", "c", "hbar")},
    "initial": {key: (_check_vector, REQUIRED) for key in ("x", "p")},
    "integration": {"dt": (_check_positive, REQUIRED), "steps": (_check_steps, REQUIRED),
                    "method": (_one_of(INTEGRATION_METHODS), "exact")},
}


class RunConfig(_ReadOnly):
    """Validated run description holding the parsed (serializable) values.

    The fields, ``KEYS``, are the top-level keys of the JSON document; two
    configurations are equal when their fields are.
    """

    KEYS = ("n", "metric", "gauge", "field", "particle", "initial", "integration")

    def __init__(self, n: int, metric: object = "euclidean", gauge: object = None,
                 field: object = None, particle: object = None, initial: object = None,
                 integration: object = None) -> None:
        # _resolved keeps the materialized objects: not a field, so not compared or serialized.
        self._set(n=n, metric=metric, gauge=gauge, field=field, particle=particle,
                  initial=initial, integration=integration, _resolved={})

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.to_dict() == other.to_dict()

    # ---------------------------------------------------------- construction

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError("configuration must be a JSON object")
        for key in data:
            if key not in cls.KEYS:
                raise ConfigError(f"unknown configuration key '{key}'")
        if "n" not in data:
            raise ConfigError("missing required key 'n'")
        config = cls(**data)
        config._validate()
        return config

    @classmethod
    def load(cls, path) -> "RunConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not valid UTF-8 ({exc})") from None
        try:
            data = json.loads(text)
        except ValueError as exc:  # malformed, or an integer of more than 4300 digits
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
        return cls.from_dict(data)

    def _validate(self) -> None:
        n = self.n
        _check_count(n, "n")
        # Each accessor checks its key's raw value, then builds it, so
        # value-level errors surface at parse time.
        self.metric_tensor()
        if self.gauge is None and self.field is None:
            raise ConfigError("either 'field' or an explicit 'gauge' matrix is required")
        gauge, field = self.gauge_matrix(), self.field_tensor()

        for name, keys in SECTIONS.items():
            section = getattr(self, name)
            if section is None:
                continue
            if not isinstance(section, dict):
                raise ConfigError(f"{name}: expected an object with keys {', '.join(keys)}")
            for key in section:
                if key not in keys:
                    raise ConfigError(f"{name}: unknown key '{key}'")
            for key, (check, default) in keys.items():
                if key in section:
                    check(section[key], f"{name}.{key}", n)
                elif default is REQUIRED:
                    raise ConfigError(f"{name}: missing key '{key}'")

        self.constants()
        # Only an explicit gauge next to a field can disagree with it (halving
        # a subnormal field for the default gauge is not exact).  The cut is
        # relative to the field's largest entry, with no floor: a zero field
        # needs an exact match.
        if self.field is not None and isinstance(self.gauge, (list, tuple)):
            mismatch = float(np.abs(field_from_gauge(gauge).matrix - field.matrix).max())
            if mismatch > GAUGE_FIELD_CONSISTENCY_RTOL * float(np.abs(field.matrix).max()):
                raise ConfigError(f"gauge and field are inconsistent: the gauge generates a "
                                  f"field differing by {mismatch:.3e}")
        if self.initial is not None:
            self.initial_state()

    # ----------------------------------------------------------- resolution

    def _cache(self, key: str, build):
        """Build and keep one materialized object; a value error names ``key``."""
        if key not in self._resolved:
            try:
                self._resolved[key] = build()
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"{key}: {exc}") from None
        return self._resolved[key]

    def settings(self, section: str) -> dict:
        """Every key of an object section: its given value, else its default."""
        given = getattr(self, section) or {}
        return {key: given.get(key, default) for key, (_, default) in SECTIONS[section].items()}

    def metric_tensor(self) -> MetricTensor:
        def build():
            if isinstance(self.metric, str):
                return _named(NAMED_METRICS, self.metric, "metric")(self.n)
            _check_matrix(self.metric, "metric", self.n)
            return MetricTensor(self.metric)
        return self._cache("metric", build)

    def gamma_tensor(self) -> MetricTensor | None:
        """The metric to decompose against: the metric itself when definite, else None.

        :func:`~ncyclo.canonical.decompose` reads a definite metric's frame
        (``g`` or ``-g``); None stands for the Euclidean metric, framed by ``I``.
        """
        metric = self.metric_tensor()
        return metric if metric.is_definite else None

    def field_tensor(self) -> FieldTensor:
        def build():
            if self.field is None:
                return field_from_gauge(self.gauge_matrix())
            if (self.n == 3 and isinstance(self.field, (list, tuple))
                    and not any(isinstance(e, (list, tuple)) for e in self.field)):
                _check_vector(self.field, "field", 3)
                return field_from_3d_vector(self.field)
            _check_matrix(self.field, "field", self.n)
            return FieldTensor(self.field)
        return self._cache("field", build)

    def gauge_matrix(self) -> GaugeMatrix:
        def build():
            if self.gauge is not None and not isinstance(self.gauge, str):
                _check_matrix(self.gauge, "gauge", self.n)
                return GaugeMatrix(self.gauge)
            derive = (gauge_antisymmetric if self.gauge is None
                      else _named(NAMED_GAUGES, self.gauge, "gauge"))
            if self.field is None:
                raise ConfigError(f"gauge '{self.gauge}' needs a 'field' to derive from")
            return derive(self.field_tensor())
        return self._cache("gauge", build)

    def constants(self) -> PhysicalConstants:
        def build():
            m, q, c, hbar = map(float, self.settings("particle").values())
            return PhysicalConstants(mass=m, charge=q, light_speed=c, hbar=hbar)
        return self._cache("particle", build)

    def initial_state(self) -> ParticleState:
        if self.initial is None:
            raise ConfigError("this command needs an 'initial' section with x and p")
        return self._cache("initial", lambda: ParticleState(self.initial["x"], self.initial["p"]))

    def integration_settings(self) -> tuple[float, int, str]:
        if self.integration is None:
            raise ConfigError("this command needs an 'integration' section "
                              "with dt, steps, and method")
        dt, steps, method = self.settings("integration").values()
        return float(dt), int(steps), str(method)

    # -------------------------------------------------------- serialization

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.KEYS if getattr(self, key) is not None}

    def dumps(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
