"""Tests for the uniform experiment API (registry + protocol entry)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments import pdn_validation, registry
from repro.runtime import Engine

EXPECTED_NAMES = {
    "ablation-calib",
    "ablation-chain",
    "defense",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "pdn-validation",
    "sensor-zoo",
    "table1",
}


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(registry.names()) == EXPECTED_NAMES

    def test_specs_have_titles_and_renderers(self):
        for name in registry.names():
            spec = registry.get(name)
            assert spec.name == name
            assert spec.title
            assert callable(spec.runner)
            assert callable(spec.renderer)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            registry.get("frobnicate")

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            registry.ExperimentConfig(scale="huge")

    def test_run_returns_uniform_result(self):
        config = registry.ExperimentConfig(scale="quick", seed=3)
        result = registry.run("pdn-validation", config)
        assert isinstance(result, registry.ExperimentResult)
        assert result.name == "pdn-validation"
        assert result.payload is not None
        assert result.seconds > 0
        assert result.metadata["scale"] == "quick"
        assert result.metadata["seed"] == 3
        assert result.metadata["workers"] == 1
        assert "near_field_error" in result.metrics
        assert any("kernel fit" in line for line in result.lines())

    def test_options_override_scale_defaults(self):
        config = registry.ExperimentConfig(scale="quick", options={"nx": 13, "ny": 13})
        result = registry.run("pdn-validation", config)
        assert result.metadata["options"] == {"nx": 13, "ny": 13}

    def test_params_merging(self):
        config = registry.ExperimentConfig(scale="quick", options={"b": 9})
        assert config.params(quick={"a": 1, "b": 2}, paper={}) == {"a": 1, "b": 9}
        config = registry.ExperimentConfig(scale="paper", options={})
        assert config.params(quick={"a": 1}, paper={"a": 5}) == {"a": 5}

    def test_spawn_seeds_deterministic(self):
        a = registry.ExperimentConfig(seed=4).spawn_seeds(3)
        b = registry.ExperimentConfig(seed=4).spawn_seeds(3)
        assert [s.generate_state(1)[0] for s in a] == [
            s.generate_state(1)[0] for s in b
        ]

    def test_explicit_engine_used(self):
        engine = Engine(workers=1, shard_size=128)
        result = registry.run(
            "pdn-validation", registry.ExperimentConfig(scale="quick"), engine
        )
        assert result.metadata["workers"] == 1


class TestProtocolEntry:
    def test_config_dispatches_through_registry(self):
        result = pdn_validation.run(registry.ExperimentConfig(scale="quick"))
        assert isinstance(result, registry.ExperimentResult)
        assert result.name == "pdn-validation"

    def test_legacy_kwargs_rejected(self):
        with pytest.raises(TypeError):
            pdn_validation.run(nx=13, ny=13)

    def test_bare_call_rejected(self):
        from repro.experiments import defense_study

        with pytest.raises(TypeError):
            defense_study.run()
        with pytest.raises(TypeError):
            defense_study.run(fence_sizes=(500,))

    def test_config_plus_kwargs_rejected(self):
        with pytest.raises(TypeError):
            pdn_validation.run(registry.ExperimentConfig(), nx=13)

    def test_positional_non_config_rejected(self):
        with pytest.raises(TypeError):
            pdn_validation.run(17)

    def test_quick_scale_deterministic_in_seed(self):
        from repro.experiments import fig3_sensitivity

        cfg = lambda: registry.ExperimentConfig(scale="quick", seed=8, shard_size=64)
        a = fig3_sensitivity.run(cfg())
        b = fig3_sensitivity.run(cfg())
        assert a.metrics == b.metrics

    def test_workers_do_not_change_results(self):
        from repro.experiments import fig3_sensitivity

        serial = fig3_sensitivity.run(
            registry.ExperimentConfig(scale="quick", seed=8, workers=1, shard_size=64)
        )
        pooled = fig3_sensitivity.run(
            registry.ExperimentConfig(scale="quick", seed=8, workers=2, shard_size=64)
        )
        for name in serial.payload.curves:
            assert (
                serial.payload.curves[name].mean_readouts
                == pooled.payload.curves[name].mean_readouts
            )
