import collections

import numpy as np
import pytest

from poslab import CurvatureTensor, MetricField


def random_hermitian(n, seed, shift=0.0):
    rng = np.random.Generator(np.random.Philox(key=seed))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T) + shift * np.eye(n)


def random_positive(n, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T + 0.1 * np.eye(n)


def random_curvature(n, r, seed, normalized=True):
    """Random tensor with the Chern-curvature Hermitian symmetry."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    v = rng.standard_normal((n, n, r, r)) + 1j * rng.standard_normal((n, n, r, r))
    v = 0.5 * (v + v.transpose(1, 0, 3, 2).conj())
    return CurvatureTensor(v, normalized=normalized)


def constant_metric(mat, n, label="const"):
    mat = np.asarray(mat, dtype=complex)
    return MetricField(rank=mat.shape[0], base_dim=n,
                       evaluate=lambda z: mat.copy(), label=label)


@pytest.fixture
def origin2():
    return np.zeros(2, dtype=complex)


@pytest.fixture
def metric_calls(monkeypatch):
    """Counter of MetricField calls by field label, for the rest of the test."""
    calls = collections.Counter()
    checked_call = MetricField.__call__
    monkeypatch.setattr(MetricField, "__call__",
                        lambda f, z: calls.update([f.label]) or checked_call(f, z))
    return calls
