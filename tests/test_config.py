import json

import numpy as np
import pytest

from ncyclo.config import ConfigError, RunConfig


BASE = {
    "n": 2,
    "metric": "euclidean",
    "gauge": "antisymmetric",
    "field": [[0.0, 1.0], [-1.0, 0.0]],
    "particle": {"m": 1.0, "q": 1.0, "c": 1.0, "hbar": 1.0},
    "initial": {"x": [0.0, 0.0], "p": [1.0, 0.0]},
    "integration": {"dt": 0.01, "steps": 10, "method": "exact"},
}

# An integer literal that no float holds: 1 followed by 400 zeros.
BIG = 10 ** 400


def with_overrides(**kwargs):
    data = json.loads(json.dumps(BASE))
    data.update(kwargs)
    return {k: v for k, v in data.items() if v is not None}


class TestParsing:
    def test_full_config(self):
        config = RunConfig.from_dict(BASE)
        assert config.n == 2
        np.testing.assert_array_equal(config.field_tensor().matrix, [[0, 1], [-1, 0]])
        np.testing.assert_array_equal(config.gauge_matrix().matrix, [[0, 0.5], [-0.5, 0]])
        assert config.constants().mass == 1.0
        assert config.integration_settings() == (0.01, 10, "exact")

    def test_minimal_config(self):
        config = RunConfig.from_dict({"n": 2, "field": [[0.0, 2.0], [-2.0, 0.0]]})
        assert config.metric == "euclidean"
        # gauge defaults to the antisymmetric one
        np.testing.assert_array_equal(config.gauge_matrix().matrix, [[0, 1], [-1, 0]])

    def test_named_metrics(self):
        config = RunConfig.from_dict(with_overrides(metric="minkowski",
                                                    n=2, field=[[0.0, 1.0], [-1.0, 0.0]],
                                                    initial=None, integration=None))
        assert config.metric_tensor().signature == (1, 1)

    def test_explicit_metric_matrix(self):
        config = RunConfig.from_dict(with_overrides(metric=[[2.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(config.metric_tensor().inverse, [[0.5, 0], [0, 1]])

    def test_field_as_3_vector(self):
        config = RunConfig.from_dict({"n": 3, "field": [0.0, 0.0, 2.0]})
        assert config.field_tensor().matrix[0, 1] == 2.0

    def test_explicit_gauge_without_field(self):
        config = RunConfig.from_dict({"n": 2, "gauge": [[0.0, 1.0], [0.0, 0.0]]})
        np.testing.assert_array_equal(config.field_tensor().matrix, [[0, 1], [-1, 0]])

    def test_triangular_gauge(self):
        config = RunConfig.from_dict(with_overrides(gauge="triangular"))
        np.testing.assert_array_equal(config.gauge_matrix().matrix, [[0, 1], [0, 0]])

    def test_gamma_key_refused(self):
        # The frame comes from the metric alone, even an indefinite one.
        with pytest.raises(ConfigError, match="^unknown configuration key 'gamma'$"):
            RunConfig.from_dict(with_overrides(metric="minkowski",
                                               gamma=[[2.0, 0.0], [0.0, 1.0]]))


class TestValidation:
    def test_frame_is_the_definite_metric(self):
        for metric in ("euclidean", [[4.0, 1.0], [1.0, 2.0]], [[-4.0, 0.0], [0.0, -1.0]]):
            config = RunConfig.from_dict(with_overrides(metric=metric))
            assert config.gamma_tensor() is config.metric_tensor()
        assert RunConfig.from_dict(with_overrides(metric="minkowski")).gamma_tensor() is None

    def test_gamma_next_to_definite_metric_refused(self):
        with pytest.raises(ConfigError, match="^unknown configuration key 'gamma'$"):
            RunConfig.from_dict(with_overrides(gamma=[[2.0, 0.0], [0.0, 1.0]]))

    def test_accessor_checks_unvalidated_field(self):
        # A config built without from_dict still has its field checked where
        # it is built: a 2x2 field does not pass for an n = 3 run.
        config = RunConfig(n=3, field=[[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(ConfigError, match="^field: expected 3 rows, got 2$"):
            config.field_tensor()

    def test_missing_n(self):
        with pytest.raises(ConfigError, match="'n'"):
            RunConfig.from_dict({"field": [[0.0, 1.0], [-1.0, 0.0]]})

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            RunConfig.from_dict(with_overrides(bogus=1))

    def test_requires_field_or_gauge(self):
        with pytest.raises(ConfigError, match="field"):
            RunConfig.from_dict({"n": 2})

    def test_named_gauge_needs_field(self):
        with pytest.raises(ConfigError, match="derive"):
            RunConfig.from_dict({"n": 2, "gauge": "antisymmetric"})

    def test_unknown_gauge_name(self):
        with pytest.raises(ConfigError, match="unknown name"):
            RunConfig.from_dict(with_overrides(gauge="coulomb"))

    def test_ragged_matrix_reports_row(self):
        with pytest.raises(ConfigError, match="row 1 has 3 entries"):
            RunConfig.from_dict({"n": 2, "field": [[0.0, 1.0], [-1.0, 0.0, 0.0]]})

    def test_non_numeric_entry_reports_position(self):
        with pytest.raises(ConfigError, match="row 0, column 1"):
            RunConfig.from_dict({"n": 2, "field": [[0.0, "x"], [-1.0, 0.0]]})

    @pytest.mark.parametrize("bad", [True, "1.0", None, [0.0], {"v": 0.0}])
    def test_first_bad_entry_of_a_wide_matrix_named(self, bad):
        # Rows of plain numbers pass in bulk; the first other entry is still
        # named by row and column, with the per-entry message.
        field = [[0.0] * 64 for _ in range(64)]
        field[37][12] = bad
        field[37][40] = "later"
        field[50][3] = "later"
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict({"n": 64, "field": field})
        assert str(exc.value) == f"field: row 37, column 12: expected a number, got {bad!r}"

    @pytest.mark.parametrize("overrides, ctx", [
        ({"field": [[0.0, 1.0], [-1.0, BIG]]}, "field: row 1, column 1"),
        ({"n": 3, "field": [0.0, BIG, 1.0], "initial": None}, "field: entry 1"),
        ({"metric": [[1.0, 0.0], [0.0, BIG]]}, "metric: row 1, column 1"),
        ({"particle": {"m": BIG}}, "particle.m"),
        ({"initial": {"x": [0.0, BIG], "p": [1.0, 0.0]}}, "initial.x: entry 1"),
        ({"integration": {"dt": BIG, "steps": 10}}, "integration.dt"),
    ], ids=["field", "field-vector", "metric", "particle", "initial", "integration"])
    def test_integer_past_the_float_range_named(self, overrides, ctx):
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict(with_overrides(**overrides))
        assert str(exc.value) == f"{ctx}: the number is outside the floating-point range"

    def test_non_antisymmetric_field_rejected(self):
        with pytest.raises(ConfigError, match="antisymmetric"):
            RunConfig.from_dict({"n": 2, "field": [[0.0, 1.0], [-0.5, 0.0]]})

    def test_gauge_field_consistency(self):
        with pytest.raises(ConfigError, match="inconsistent"):
            RunConfig.from_dict({"n": 2,
                                 "gauge": [[0.0, 1.0], [0.0, 0.0]],
                                 "field": [[0.0, 2.0], [-2.0, 0.0]]})

    @pytest.mark.parametrize("scale", [1e-11, 1.0, 1e6])
    def test_consistency_relative_to_field_scale(self, scale):
        # H/3 + H/6 generates H only to roundoff, which grows with the scale
        # (1.164e-10 at 1e6 for this seed).
        m = scale * np.random.default_rng(5).standard_normal((4, 4))
        h = m - m.T
        config = RunConfig.from_dict({"n": 4, "field": h.tolist(),
                                      "gauge": (h / 3 + h / 6).tolist()})
        assert config.gauge_matrix().n == 4

    def test_default_gauge_of_subnormal_field_accepted(self):
        # H/2 of the smallest subnormal rounds to 0; the derived gauge is not checked.
        config = RunConfig.from_dict({"n": 2, "field": [[0.0, 5e-324], [-5e-324, 0.0]]})
        assert config.field_tensor().matrix[0, 1] == 5e-324

    def test_consistent_gauge_and_field_accepted(self):
        config = RunConfig.from_dict({"n": 2,
                                      "gauge": [[0.0, 1.0], [0.0, 0.0]],
                                      "field": [[0.0, 1.0], [-1.0, 0.0]]})
        np.testing.assert_array_equal(config.gauge_matrix().matrix, [[0, 1], [0, 0]])

    def test_bad_integration(self):
        with pytest.raises(ConfigError, match="dt"):
            RunConfig.from_dict(with_overrides(
                integration={"dt": -1.0, "steps": 10, "method": "exact"}))
        with pytest.raises(ConfigError, match="steps"):
            RunConfig.from_dict(with_overrides(
                integration={"dt": 0.1, "steps": 0, "method": "exact"}))
        with pytest.raises(ConfigError, match="method"):
            RunConfig.from_dict(with_overrides(
                integration={"dt": 0.1, "steps": 5, "method": "euler"}))
        with pytest.raises(ConfigError, match="^integration: missing key 'dt'$"):
            RunConfig.from_dict(with_overrides(integration={"steps": 5}))
        with pytest.raises(ConfigError, match="^integration: missing key 'steps'$"):
            RunConfig.from_dict(with_overrides(integration={"dt": 0.1}))

    def test_step_count_bound_is_2_to_the_53(self):
        # Sample i is taken at i * dt; up to 2**53 every index is a distinct float.
        config = RunConfig.from_dict(with_overrides(integration={"dt": 0.1, "steps": 2**53}))
        assert config.integration_settings()[1] == 2**53
        with pytest.raises(ConfigError, match=r"^integration\.steps: 9007199254740993 steps "
                                              r"index samples past 2\*\*53"):
            RunConfig.from_dict(with_overrides(integration={"dt": 0.1, "steps": 2**53 + 1}))

    def test_bad_initial_length(self):
        with pytest.raises(ConfigError, match="initial.x"):
            RunConfig.from_dict(with_overrides(initial={"x": [0.0], "p": [1.0, 0.0]}))

    def test_bad_particle_key(self):
        with pytest.raises(ConfigError, match="particle"):
            RunConfig.from_dict(with_overrides(particle={"mass": 1.0}))

    def test_bad_metric_value(self):
        with pytest.raises(ConfigError, match="metric"):
            RunConfig.from_dict(with_overrides(metric=[[1.0, 0.0], [0.5, 1.0]]))


class TestRoundTrip:
    def test_parse_serialize_parse_identical(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(BASE, indent=2, sort_keys=True) + "\n")
        first = RunConfig.load(path)
        second = RunConfig.from_dict(json.loads(first.dumps()))
        assert first == second
        assert first.dumps() == second.dumps()

    def test_shipped_configs_parse_and_round_trip(self):
        from pathlib import Path
        paths = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))
        assert len(paths) >= 4
        for path in paths:
            config = RunConfig.load(path)
            again = RunConfig.from_dict(json.loads(config.dumps()))
            assert config == again

    def test_defaults_are_materialized_consistently(self):
        config = RunConfig.from_dict({"n": 2, "field": [[0.0, 1.0], [-1.0, 0.0]]})
        again = RunConfig.from_dict(json.loads(config.dumps()))
        assert config == again
        assert again.metric == "euclidean"
