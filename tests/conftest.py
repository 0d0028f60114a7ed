"""Shared generators for the test suite."""

import numpy as np
import pytest

from fdia_lab.data_pipeline import RawDataset
from fdia_lab.dc_estimation import DcSystem


def random_dc_system(rng, m=None, n=None):
    """A well-conditioned random DC system with at most 12x6 shape."""
    if n is None:
        n = int(rng.integers(2, 7))
    if m is None:
        m = int(rng.integers(n + 1, 13))
    h = rng.normal(0.0, 1.0, size=(m, n))
    # nudge toward full column rank
    h[:n, :n] += 3.0 * np.eye(n)
    weights = rng.uniform(0.5, 2.0, size=m)
    return DcSystem(jacobian=h, weights=weights)


def make_labeled_dataset(n_rows, attack_fraction, seed, missing_fraction=0.0):
    """Synthetic per-row-separable dataset: attacked rows are scaled up 6%."""
    rng = np.random.default_rng(seed)
    m = 4
    base = np.array([10.0, 20.0, 5.0, 15.0])
    sigma = 0.02 * base
    labels = (rng.random(n_rows) < attack_fraction).astype(int)
    values = base + rng.normal(0.0, 1.0, size=(n_rows, m)) * sigma
    values[labels == 1] *= 1.06
    if missing_fraction > 0:
        mask = rng.random(values.shape) < missing_fraction
        values[mask] = np.nan
    return RawDataset(columns=[f"f{i}" for i in range(m)], values=values,
                      labels=labels)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
