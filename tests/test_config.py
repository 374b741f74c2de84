"""Unit tests for the configuration dataclasses."""

import numpy as np
import pytest

from repro.config import (
    DEFAULT_C_GRID,
    AnsatzConfig,
    ExperimentConfig,
    ServingConfig,
    SimulationConfig,
    SVMConfig,
    TuningConfig,
    config_from_mapping,
    make_rng,
)
from repro.exceptions import ConfigurationError


def test_make_rng_accepts_seed_none_and_generator():
    a = make_rng(3)
    b = make_rng(3)
    assert a.integers(1000) == b.integers(1000)
    gen = np.random.default_rng(0)
    assert make_rng(gen) is gen
    assert make_rng(None) is not None


def test_simulation_config_defaults_and_validation():
    cfg = SimulationConfig()
    assert cfg.truncation_cutoff == 1e-16
    assert cfg.max_bond_dim is None
    d = cfg.to_dict()
    assert d["dtype"] == "complex128"
    with pytest.raises(ConfigurationError):
        SimulationConfig(truncation_cutoff=-1)
    with pytest.raises(ConfigurationError):
        SimulationConfig(max_bond_dim=0)
    with pytest.raises(ConfigurationError):
        SimulationConfig(dtype=np.float64)


def test_ansatz_config_validation():
    cfg = AnsatzConfig(num_features=10, interaction_distance=3, layers=2, gamma=0.5)
    assert cfg.num_qubits == 10
    assert cfg.to_dict()["gamma"] == 0.5
    with pytest.raises(ConfigurationError):
        AnsatzConfig(num_features=0)
    with pytest.raises(ConfigurationError):
        AnsatzConfig(num_features=5, interaction_distance=0)
    with pytest.raises(ConfigurationError):
        AnsatzConfig(num_features=5, interaction_distance=5)
    with pytest.raises(ConfigurationError):
        AnsatzConfig(num_features=5, layers=0)
    with pytest.raises(ConfigurationError):
        AnsatzConfig(num_features=5, gamma=0.0)


def test_single_feature_ansatz_allowed():
    cfg = AnsatzConfig(num_features=1, interaction_distance=1)
    assert cfg.num_qubits == 1


def test_svm_config_validation():
    assert SVMConfig().C == 1.0
    assert SVMConfig().to_dict()["tol"] == 1e-3
    with pytest.raises(ConfigurationError):
        SVMConfig(C=0)
    with pytest.raises(ConfigurationError):
        SVMConfig(tol=0)
    with pytest.raises(ConfigurationError):
        SVMConfig(max_iter=0)


def test_default_c_grid_matches_paper_range():
    assert min(DEFAULT_C_GRID) == 0.01
    assert max(DEFAULT_C_GRID) == 4.0
    assert all(c > 0 for c in DEFAULT_C_GRID)


def test_experiment_config_roundtrip():
    exp = ExperimentConfig(
        ansatz=AnsatzConfig(num_features=8, interaction_distance=2, gamma=0.5),
        train_size=32,
        test_size=8,
        seed=11,
    )
    mapping = exp.to_dict()
    rebuilt = config_from_mapping(mapping)
    assert rebuilt.ansatz == exp.ansatz
    assert rebuilt.train_size == 32
    assert rebuilt.seed == 11
    assert rebuilt.simulation.truncation_cutoff == exp.simulation.truncation_cutoff


def test_experiment_config_validation():
    ansatz = AnsatzConfig(num_features=4)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(ansatz=ansatz, train_size=1)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(ansatz=ansatz, test_size=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(ansatz=ansatz, svm_c_grid=())
    with pytest.raises(ConfigurationError):
        ExperimentConfig(ansatz=ansatz, svm_c_grid=(0.0, 1.0))


def test_tuning_config_defaults_and_roundtrip():
    tuning = TuningConfig()
    assert tuning.max_batch == 32
    assert tuning.queue_depth_high_water is None
    d = tuning.to_dict()
    assert TuningConfig(**d) == tuning


def test_tuning_config_validates_knobs():
    # Regression: these used to slip through to the serving layer unvalidated.
    with pytest.raises(ConfigurationError, match="queue_depth_high_water"):
        TuningConfig(queue_depth_high_water=0)
    with pytest.raises(ConfigurationError, match="max_batch"):
        TuningConfig(max_batch=0)


def test_serving_config_nested_tuning_is_canonical():
    config = ServingConfig(
        tuning=TuningConfig(max_batch=4),
        num_replicas=2,
    )
    assert config.tuning.max_batch == 4
    assert config.tuning.queue_depth_high_water is None
    assert ServingConfig().tuning == TuningConfig()


def test_serving_config_validates_fields():
    with pytest.raises(ConfigurationError, match="num_replicas"):
        ServingConfig(num_replicas=0)
    with pytest.raises(ConfigurationError, match="warm_max_keys"):
        ServingConfig(warm_max_keys=-1)
