"""Regression tests: percentile getters fail loudly instead of numpy-crashing."""

import pytest

from repro.exceptions import ReproError
from repro.profiling import ServingMetrics


def _metrics_with_latencies(latencies):
    metrics = ServingMetrics()
    for latency in latencies:
        metrics.record_enqueue(1, 0.0)
    metrics.record_batch(list(latencies), wall_s=0.01, now=1.0)
    return metrics


# ----------------------------------------------------------------------
# Empty-sample guards (the regression: numpy warning / crash before)
# ----------------------------------------------------------------------
def test_latency_percentile_empty_raises_repro_error():
    metrics = ServingMetrics()
    with pytest.raises(ReproError, match="no completed requests"):
        metrics.latency_percentile(50.0)
    with pytest.raises(ReproError):
        _ = metrics.p50_latency_s
    with pytest.raises(ReproError):
        _ = metrics.p99_latency_s


def test_mean_batch_size_empty_raises_repro_error():
    with pytest.raises(ReproError, match="no flushed batches"):
        _ = ServingMetrics().mean_batch_size


def test_throughput_empty_raises_repro_error():
    with pytest.raises(ReproError, match="no completed requests"):
        _ = ServingMetrics().throughput_rps


# ----------------------------------------------------------------------
# Out-of-range percentiles raise ReproError, not numpy's ValueError
# ----------------------------------------------------------------------
@pytest.mark.parametrize("q", [-1.0, 100.5, 1000.0])
def test_out_of_range_percentile_raises_repro_error(q):
    metrics = _metrics_with_latencies([0.01, 0.02])
    with pytest.raises(ReproError, match=r"percentile must be in \[0, 100\]"):
        metrics.latency_percentile(q)


# ----------------------------------------------------------------------
# The happy path still works
# ----------------------------------------------------------------------
def test_percentiles_work_with_samples():
    metrics = _metrics_with_latencies([0.01, 0.02, 0.03, 0.04])
    assert metrics.latency_percentile(0.0) == pytest.approx(0.01)
    assert metrics.latency_percentile(100.0) == pytest.approx(0.04)
    assert metrics.p50_latency_s == pytest.approx(0.025)


def test_sample_getters_return_copies():
    metrics = _metrics_with_latencies([0.01, 0.02])
    samples = metrics.latency_samples()
    assert samples == [0.01, 0.02]
    samples.append(99.0)
    assert metrics.latency_samples() == [0.01, 0.02]
    assert metrics.batch_size_samples() == [2]
