"""Integration tests exercising the full stack at toy scale.

These mirror the paper's experiments in miniature: kernel construction on a
balanced fraud sample, the quantum-versus-Gaussian comparison, the distributed
Gram matrix feeding the SVM, and the depth-induced kernel concentration.
"""

import numpy as np
import pytest

from repro.config import AnsatzConfig
from repro.core import ClassificationExperiment, run_classification_experiment
from repro.data import DatasetSpec, balanced_subsample, generate_elliptic_like, select_features
from repro.kernels import QuantumKernel, kernel_concentration
from repro.parallel import compute_gram_distributed
from repro.svm import FeatureScaler, PrecomputedKernelSVC, roc_auc_score, train_test_split


@pytest.fixture(scope="module")
def dataset():
    return generate_elliptic_like(DatasetSpec(num_samples=900, num_features=10, seed=21))


def test_quantum_and_gaussian_both_learn(dataset):
    """Both kernels reach AUC well above chance on the synthetic fraud task."""
    results = {}
    for kernel in ("quantum", "gaussian"):
        exp = ClassificationExperiment(
            num_features=6, sample_size=40, gamma=0.5, kernel=kernel, seed=5
        )
        outcome = run_classification_experiment(exp, dataset=dataset, c_grid=(1.0, 4.0))
        results[kernel] = outcome.test_auc
    assert results["quantum"] > 0.65
    assert results["gaussian"] > 0.65


def test_more_training_data_does_not_hurt(dataset):
    """Trend behind Fig. 10: larger samples give equal or better test AUC
    (checked with a tolerance because the samples are tiny)."""
    aucs = []
    for size in (16, 48):
        exp = ClassificationExperiment(
            num_features=6, sample_size=size, gamma=0.5, seed=13
        )
        aucs.append(
            run_classification_experiment(exp, dataset=dataset, c_grid=(1.0, 4.0)).test_auc
        )
    assert aucs[1] >= aucs[0] - 0.1


def test_distributed_gram_feeds_svm(dataset):
    """Round-robin distributed kernel -> SVM gives the same AUC as sequential."""
    sample = balanced_subsample(dataset, 24, seed=2)
    X = select_features(sample.features, 5)
    y = sample.labels
    X_train, X_test, y_train, y_test = train_test_split(X, y, seed=0)
    scaler = FeatureScaler()
    Xs_train = scaler.fit_transform(X_train)
    Xs_test = scaler.transform(X_test)

    ansatz = AnsatzConfig(num_features=5, interaction_distance=1, layers=2, gamma=0.5)

    # Sequential reference.
    qk = QuantumKernel(ansatz)
    train_states = qk.encode(Xs_train)
    K_train_seq = qk.gram_matrix(Xs_train).matrix
    K_test = qk.cross_matrix(Xs_test, train_states).matrix

    # Distributed training kernel.
    distributed = compute_gram_distributed(
        Xs_train, ansatz, num_processes=3, strategy="round-robin"
    )
    assert np.allclose(distributed.matrix, K_train_seq, atol=1e-10)

    model_seq = PrecomputedKernelSVC(C=2.0).fit(K_train_seq, y_train)
    model_dist = PrecomputedKernelSVC(C=2.0).fit(distributed.matrix, y_train)
    auc_seq = roc_auc_score(y_test, model_seq.decision_function(K_test))
    auc_dist = roc_auc_score(y_test, model_dist.decision_function(K_test))
    assert auc_seq == pytest.approx(auc_dist, abs=1e-9)


def test_depth_causes_kernel_concentration(dataset):
    """Trend behind Table III: deep ansatze concentrate the kernel."""
    sample = balanced_subsample(dataset, 16, seed=7)
    X = select_features(sample.features, 5)
    scaler = FeatureScaler()
    Xs = scaler.fit_transform(X)

    means = []
    for layers in (1, 2, 8):
        ansatz = AnsatzConfig(num_features=5, layers=layers, gamma=1.0)
        K = QuantumKernel(ansatz).gram_matrix(Xs).matrix
        means.append(kernel_concentration(K)["off_diagonal_mean"])
    assert means[2] < means[0]
    # All kernels are valid similarity matrices regardless of depth.
    assert all(0.0 <= m <= 1.0 for m in means)


def test_interaction_distance_increases_resource_usage(dataset):
    """Trend behind Fig. 5 / Table I: larger d means larger bond dimension,
    more memory and more modelled simulation time."""
    sample = balanced_subsample(dataset, 8, seed=3)
    X = select_features(sample.features, 8)
    Xs = FeatureScaler().fit_transform(X)

    stats, modelled = {}, {}
    for d in (1, 3):
        ansatz = AnsatzConfig(num_features=8, interaction_distance=d, layers=2, gamma=1.0)
        kernel = QuantumKernel(ansatz)
        stats[d] = kernel.gram_matrix(Xs)
        # Modelled device time is priced on per-point simulation only.
        modelled[d] = sum(kernel.engine.simulate_row(row).modelled_time_s for row in Xs)
    assert stats[3].max_bond_dimension >= stats[1].max_bond_dimension
    assert stats[3].total_state_memory_bytes >= stats[1].total_state_memory_bytes
    assert modelled[3] > modelled[1]
