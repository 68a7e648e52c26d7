"""Shared construction helpers for the test suite."""

import numpy as np


def plant_instance(rng, m, l, k):
    """Random 0/1 source matrix with a planted k-sparse solution of U y = 1.

    The planted columns are indicator vectors of a random partition of the
    rows into k groups, so they sum to the all-ones vector exactly; the
    remaining columns are random 0/1 noise.
    """
    assert 1 <= k <= min(m, l)
    groups = np.zeros(m, dtype=int)
    groups[:k] = np.arange(k)  # every group nonempty
    groups[k:] = rng.integers(0, k, size=m - k)
    rng.shuffle(groups)
    planted_cols = rng.choice(np.arange(l), size=k, replace=False)
    U = rng.integers(0, 2, size=(m, l)).astype(float)
    for g, col in enumerate(planted_cols):
        U[:, col] = (groups == g).astype(float)
    y = np.zeros(l)
    y[planted_cols] = 1.0
    assert np.array_equal(U @ y, np.ones(m))
    return U, y


def random_source_matrix(rng):
    """A planted 0/1 or a dense Gaussian matrix, sometimes with a repeated
    column or a column that is the sum of two others."""
    m = int(rng.integers(1, 6))
    l = int(rng.integers(1, 7))
    if rng.random() < 0.5:
        U, _ = plant_instance(rng, m, l, int(rng.integers(1, min(m, l) + 1)))
    else:
        U = rng.normal(size=(m, l))
    if l >= 3 and rng.random() < 0.5:
        i, j, k = rng.choice(l, size=3, replace=False)
        U[:, k] = U[:, i] if rng.random() < 0.5 else U[:, i] + U[:, j]
    return U
