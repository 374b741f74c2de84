"""Unit tests for the quantum fidelity kernel."""

import numpy as np
import pytest

from repro.backends import CpuBackend, SimulatedGpuBackend
from repro.config import AnsatzConfig
from repro.exceptions import KernelError
from repro.kernels import QuantumKernel, QuantumKernelResult, is_positive_semidefinite


@pytest.fixture
def ansatz():
    return AnsatzConfig(num_features=4, interaction_distance=2, layers=2, gamma=0.8)


@pytest.fixture
def X(rng):
    return rng.uniform(0.1, 1.9, size=(5, 4))


def test_gram_matrix_basic_properties(ansatz, X):
    qk = QuantumKernel(ansatz)
    result = qk.gram_matrix(X)
    K = result.matrix
    assert isinstance(result, QuantumKernelResult)
    assert K.shape == (5, 5)
    assert np.allclose(np.diag(K), 1.0)
    assert np.allclose(K, K.T)
    assert np.all(K >= -1e-12) and np.all(K <= 1.0 + 1e-12)
    assert is_positive_semidefinite(K)


def test_identical_points_give_unit_kernel(ansatz):
    x = np.full(4, 1.2)
    X = np.vstack([x, x])
    K = QuantumKernel(ansatz).gram_matrix(X).matrix
    assert K[0, 1] == pytest.approx(1.0)


def test_result_bookkeeping(ansatz, X):
    qk = QuantumKernel(ansatz)
    result = qk.gram_matrix(X)
    n = X.shape[0]
    assert result.num_simulations == n
    assert result.num_inner_products == n * (n - 1) // 2
    assert result.max_bond_dimension >= 1
    assert result.total_state_memory_bytes > 0
    assert result.total_time_s >= 0


def test_cross_matrix_shape_and_consistency(ansatz, X):
    qk = QuantumKernel(ansatz)
    train_states = qk.encode(X[:3])
    cross = qk.cross_matrix(X[3:], train_states)
    assert cross.matrix.shape == (2, 3)
    # Cross entries for identical points must equal the Gram entries.
    full = qk.gram_matrix(X).matrix
    assert np.allclose(cross.matrix, full[3:, :3], atol=1e-10)


def test_train_test_matrices(ansatz, X):
    qk = QuantumKernel(ansatz)
    train_result, test_result = qk.train_test_matrices(X[:3], X[3:])
    assert train_result.matrix.shape == (3, 3)
    assert test_result.matrix.shape == (2, 3)
    assert np.allclose(np.diag(train_result.matrix), 1.0)


def test_encode_one_and_validation(ansatz):
    qk = QuantumKernel(ansatz)
    state = qk.encode_one(np.full(4, 0.5))
    assert state.num_qubits == 4
    with pytest.raises(KernelError):
        qk.encode(np.ones((2, 3)))  # wrong feature count
    with pytest.raises(KernelError):
        qk.encode(np.ones((0, 4)))  # no rows
    with pytest.raises(KernelError):
        qk.encode(np.ones((2, 2, 2)))  # wrong rank
    with pytest.raises(KernelError):
        qk.cross_matrix(np.ones((1, 4)), [])


def test_backend_equivalence_cpu_vs_gpu(ansatz, X):
    """Both backends run identical numerics -> identical kernels (Table I)."""
    K_cpu = QuantumKernel(ansatz, backend=CpuBackend()).gram_matrix(X).matrix
    K_gpu = QuantumKernel(ansatz, backend=SimulatedGpuBackend()).gram_matrix(X).matrix
    assert np.allclose(K_cpu, K_gpu, atol=1e-12)


def test_kernel_depends_on_gamma(X):
    small = QuantumKernel(AnsatzConfig(num_features=4, gamma=0.1)).gram_matrix(X).matrix
    large = QuantumKernel(AnsatzConfig(num_features=4, gamma=1.0)).gram_matrix(X).matrix
    # Larger bandwidth rotates states further apart -> smaller off-diagonals.
    off = ~np.eye(4 + 1, dtype=bool)[:5, :5]
    assert large[off].mean() < small[off].mean()


def test_kernel_off_diagonal_decreases_with_depth(X):
    """Kernel concentration: deeper circuits shrink the overlaps (Table III)."""
    shallow = QuantumKernel(
        AnsatzConfig(num_features=4, layers=1, gamma=1.0)
    ).gram_matrix(X).matrix
    deep = QuantumKernel(
        AnsatzConfig(num_features=4, layers=8, gamma=1.0)
    ).gram_matrix(X).matrix
    off = ~np.eye(5, dtype=bool)
    assert deep[off].mean() < shallow[off].mean()
