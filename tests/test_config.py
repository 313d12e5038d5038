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
    "output": {"path": "out.csv", "format": "csv"},
}


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
                                                    initial=None, integration=None,
                                                    output=None))
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

    def test_gamma_matrix(self):
        config = RunConfig.from_dict(with_overrides(gamma=[[2.0, 0.0], [0.0, 1.0]]))
        assert config.gamma_tensor().matrix[0, 0] == 2.0


class TestValidation:
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

    def test_bad_initial_length(self):
        with pytest.raises(ConfigError, match="initial.x"):
            RunConfig.from_dict(with_overrides(initial={"x": [0.0], "p": [1.0, 0.0]}))

    def test_bad_output_format(self):
        with pytest.raises(ConfigError, match="format"):
            RunConfig.from_dict(with_overrides(output={"path": "o.csv", "format": "xml"}))

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
        for name in ("circle2d.json", "uniform3d.json", "minkowski4d.json"):
            path = Path(__file__).resolve().parent.parent / "configs" / name
            config = RunConfig.load(path)
            again = RunConfig.from_dict(json.loads(config.dumps()))
            assert config == again

    def test_defaults_are_materialized_consistently(self):
        config = RunConfig.from_dict({"n": 2, "field": [[0.0, 1.0], [-1.0, 0.0]]})
        again = RunConfig.from_dict(json.loads(config.dumps()))
        assert config == again
        assert again.metric == "euclidean"
