"""The bulk CSV kernel writes the bytes of Python's ``'%.17g' %``, value for value."""

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
)
from conftest import random_antisymmetric


def expected(rows):
    return "".join(",".join("%.17g" % value for value in row) + "\n" for row in rows.tolist())


def assert_same_text(rows):
    got, want = digits._csv_rows(rows).splitlines(), expected(rows).splitlines()
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


def count_python_calls(monkeypatch):
    calls = []
    printf = digits._printf
    monkeypatch.setattr(digits, "_printf", lambda value: calls.append(value) or printf(value))
    return calls


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8))
def test_any_finite_row(row):
    rows = np.array([row])
    assert digits._csv_rows(rows) == expected(rows)


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


def test_powers_of_ten_are_built_for_the_exponents_used():
    digits._power.cache_clear()
    digits._csv_rows(np.array([[1.5, 2.5e-300, -7.0]]))
    # Two decimal exponents, 0 and -300, and nothing else.
    assert digits._power.cache_info().currsize == 2


@pytest.mark.parametrize("width", [1, 3, 14, 4097])
def test_chunks_and_row_ends(width):
    rng = np.random.default_rng(width)
    rows = rng.standard_normal((3 * digits._CHUNK // width + 2, width)) * 10.0 ** rng.integers(
        -20, 20, (1, width))
    assert digits._csv_rows(rows) == expected(rows)
