"""The bulk kernel writes the bytes of Python's ``'%.17g' %`` and of ``repr``, value for value."""

import io
import json
import math
import os
from decimal import ROUND_FLOOR, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncyclo import digits
from ncyclo import (
    FieldTensor,
    MetricTensor,
    ParticleState,
    PhysicalConstants,
    dynamics_matrix,
    evolve_exact_trajectory,
    trajectory_table,
    write_trajectory_csv,
    write_trajectory_structured,
)
from conftest import random_antisymmetric


def expected(rows):
    return "".join(",".join("%.17g" % value for value in row) + "\n" for row in rows.tolist())


def text_rows(rows, shortest):
    """The writer's text of ``rows`` as one 2-D column, values joined by commas."""
    buffer = io.StringIO()
    digits._write_rows(buffer, range(len(rows)), lambda start, stop: [rows[start:stop]],
                       (",",) * (rows.shape[1] - 1) + ("\n",), shortest)
    return buffer.getvalue()


def csv_rows(rows):
    return text_rows(rows, False)


def assert_same_text(rows):
    got, want = csv_rows(rows).splitlines(), expected(rows).splitlines()
    assert len(got) == len(want)
    wrong = [(row, values, text) for row, values, text in zip(rows.tolist(), got, want)
             if values != text]
    assert not wrong, wrong[:5]


def fraction_at_17_digits(value):
    """The exact fraction of ``|value|`` scaled to 17 integer digits."""
    exact = abs(Decimal(value))
    with localcontext() as context:
        context.prec = 1200
        scaled = exact.scaleb(16 - exact.adjusted())
        return scaled - scaled.to_integral_value(ROUND_FLOOR)


def count_python_calls(monkeypatch, name="_printf"):
    """The values formatted by Python itself, all of them in this process."""
    one_share(monkeypatch)
    calls = []
    python = getattr(digits, name)
    monkeypatch.setattr(digits, name, lambda value: calls.append(value) or python(value))
    return calls


def one_share(monkeypatch):
    """Let the writers format every batch in this process, where a count sees each call."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def expected_repr(rows):
    return "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist())


def repr_rows(rows):
    return text_rows(rows, True)


def assert_same_repr(rows):
    got, want = repr_rows(rows).splitlines(), expected_repr(rows).splitlines()
    assert len(got) == len(want)
    wrong = [(row, values, text) for row, values, text in zip(rows.tolist(), got, want)
             if values != text]
    assert not wrong, wrong[:5]


def near_a_shortest_tie(value):
    """Whether a decision about ``|value|`` lies within 1e-9 of a tie, in exact arithmetic.

    With ``D = |value| * 10**(16 - k)`` in [1e16, 1e17), the half-gaps to the
    neighbouring doubles and the units 1, 10 and 100 of 17, 16 and 15 digits:
    a remainder against half its unit, or a distance against its gap.
    """
    exact = abs(Decimal(value))
    mantissa = int(math.frexp(abs(value))[0] * 2**53)
    with localcontext() as context:
        context.prec = 1200
        scaled = exact.scaleb(16 - exact.adjusted())
        up = scaled / (2 * mantissa)
        down = up / 2 if mantissa == 2**52 else up
        for unit in (1, 10, 100):
            below = scaled % unit
            if min(abs(below - down), abs(unit - below - up), abs(below - Decimal(unit) / 2)) < \
                    Decimal("1e-9"):
                return True
    return False


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
def test_any_finite_row(row):
    rows = np.array([row])
    assert csv_rows(rows) == expected(rows)


def test_random_bit_patterns():
    # Every exponent and sign, in rows of seven: several chunks, a partial last one.
    rng = np.random.default_rng(20261019)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64)
    subnormal = rng.integers(0, 2**52, 20_000, dtype=np.uint64) | (
        rng.integers(0, 2, 20_000, dtype=np.uint64) << np.uint64(63))
    values = np.concatenate([bits, subnormal]).view(np.float64)
    values = values[np.isfinite(values)]
    assert_same_text(values[:values.size // 7 * 7].reshape(-1, 7))


def test_fixed_corpus(monkeypatch):
    values = [0.0, -0.0, 5e-324, np.finfo(float).max, 1e-5, 1e-4, 1e16, 1e17, 0.5, 123.0, 1.0,
              9.9999999999999997e-305]
    values += [float(f"1e{p}") for p in range(-323, 309)]
    values += [np.nextafter(v, direction) for v in values for direction in (-np.inf, np.inf)
               if v < np.finfo(float).max]
    values += [1250000000000000.25, 1250000000000000.75, np.inf, -np.inf, np.nan]
    values = np.array(values)
    calls = count_python_calls(monkeypatch)
    rows = np.concatenate([values, -values]).reshape(-1, 1)
    assert_same_text(rows)
    # Only the values whose 17-digit fraction lies within 1e-9 of one half,
    # such as the two ties, and those that are not finite go through %.
    assert {1250000000000000.25, -1250000000000000.75} <= set(calls)
    assert sum(not np.isfinite(value) for value in calls) == 6
    assert all(abs(fraction_at_17_digits(value) - Decimal("0.5")) < Decimal("1e-9")
               for value in calls if np.isfinite(value))


def test_orbit_table_needs_no_python(monkeypatch, rng, tmp_path):
    # A seeded n = 4 orbit: every value is decided by the kernel, so a bound
    # that sent values to % would show here, not only as a slower benchmark.
    n = 4
    field = FieldTensor(random_antisymmetric(rng, n))
    metric = MetricTensor.euclidean(n)
    constants = PhysicalConstants(mass=0.7, charge=-1.3, light_speed=3.0)
    state = ParticleState(rng.standard_normal(n), rng.standard_normal(n))
    trajectory = evolve_exact_trajectory(state, dynamics_matrix(field, metric, constants), metric,
                                         constants, 0.37, 5000)
    calls = count_python_calls(monkeypatch)
    path = tmp_path / "orbit.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_trajectory_csv(trajectory, field, metric, constants, fh)
    assert calls == []
    table = trajectory_table(trajectory, field, metric, constants)
    rows = np.column_stack(list(table.values()))
    assert path.read_text().split("\n", 1)[1] == expected(rows)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
def test_any_finite_row_shortest(row):
    rows = np.array([row])
    assert repr_rows(rows) == expected_repr(rows)


def test_random_bit_patterns_shortest():
    # Every exponent and sign, in rows of seven; the subnormals go to repr.
    rng = np.random.default_rng(20261020)
    bits = rng.integers(0, 2**64, 200_000, dtype=np.uint64)
    subnormal = rng.integers(0, 2**52, 20_000, dtype=np.uint64) | (
        rng.integers(0, 2, 20_000, dtype=np.uint64) << np.uint64(63))
    values = np.concatenate([bits, subnormal]).view(np.float64)
    values = values[np.isfinite(values)]
    assert_same_repr(values[:values.size // 7 * 7].reshape(-1, 7))


def test_fixed_corpus_shortest(monkeypatch):
    largest = np.finfo(float).max
    values = [0.0, 5e-324, largest, 1e-5, 1e-4, 1e15, 9999999999999998.0, 1e16, 1e17]
    values += [float(f"1e{p}") for p in range(-323, 309)]
    values += [np.nextafter(v, direction) for v in values for direction in (-np.inf, np.inf)
               if 0 < v < largest]
    # Powers of two and their lower neighbours: the gap below is half the gap above.
    powers = [2.0**e for e in range(-1074, 1024)]
    values += powers + [np.nextafter(v, 0.0) for v in powers]
    # Shortest texts of 1, 15, 16 and 17 digits.
    shortest = [0.3, 7e-300, 123456789012345.0, 0.1 + 0.7, 1.0 / 3.0, 0.1 + 0.2, 2.0 / 3.0]
    assert sorted({len(repr(v).split("e")[0].replace(".", "").strip("0")) for v in shortest}) == \
        [1, 15, 16, 17]
    values += shortest
    values = np.array(values + [np.inf, np.nan])
    calls = count_python_calls(monkeypatch, "_repr")
    assert_same_repr(np.concatenate([values, -values]).reshape(-1, 1))
    # Only the values that are not finite, the subnormals, the least normal
    # value and those with a decision within 1e-9 of a tie go through repr.
    finite = [value for value in calls if np.isfinite(value)]
    assert len(calls) - len(finite) == 4
    assert all(abs(value) <= np.finfo(float).tiny or near_a_shortest_tie(value)
               for value in finite)


def test_orbit_structured_write_needs_no_repr(monkeypatch, rng, tmp_path):
    # The seeded n = 4 orbit of test_orbit_table_needs_no_python, written as
    # JSON: every number is decided by the kernel, none by repr.
    n = 4
    field = FieldTensor(random_antisymmetric(rng, n))
    metric = MetricTensor.euclidean(n)
    constants = PhysicalConstants(mass=0.7, charge=-1.3, light_speed=3.0)
    state = ParticleState(rng.standard_normal(n), rng.standard_normal(n))
    trajectory = evolve_exact_trajectory(state, dynamics_matrix(field, metric, constants), metric,
                                         constants, 0.37, 5000)
    calls = count_python_calls(monkeypatch, "_repr")
    path = tmp_path / "orbit.json"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_trajectory_structured(trajectory, field, metric, constants, fh)
    assert calls == []
    table = trajectory_table(trajectory, field, metric, constants)
    columns = {name: column.tolist() for name, column in table.items()}
    rows = [dict(zip(columns, values)) for values in zip(*columns.values())]
    assert path.read_text() == json.dumps({"trajectory": rows}, indent=2, sort_keys=True) + "\n"


def test_powers_of_ten_are_built_for_the_exponents_used():
    digits._power.cache_clear()
    csv_rows(np.array([[1.5, 2.5e-300, -7.0]]))
    # Two decimal exponents, 0 and -300, and nothing else.
    assert digits._power.cache_info().currsize == 2


@pytest.mark.parametrize("width", [1, 3, 14, 4097])
def test_chunks_and_row_ends(width):
    rng = np.random.default_rng(width)
    rows = rng.standard_normal((3 * digits._CHUNK // width + 2, width)) * 10.0 ** rng.integers(
        -20, 20, (1, width))
    assert csv_rows(rows) == expected(rows)
