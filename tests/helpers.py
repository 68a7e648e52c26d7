"""Shared construction helpers for the test suite."""

import numpy as np

from reachkit.setfun import ColumnSelectionFunction
from reachkit.solvers import VarSelInstance


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


def planted_varsel(rng, m, l, k):
    """Gaussian dictionary with z an exact combination of its last k
    columns, the last support of size k that the scan reaches."""
    U = rng.normal(size=(m, l))
    y = np.zeros(l)
    y[l - k :] = rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.5, 2.0, size=k)
    return VarSelInstance(U=U, z=U @ y, delta=0.0)


def planted_violation_fn(rng, l):
    """Columns p = v + u and q = u with u orthogonal to v and ||u|| = ||v||:
    adding p to {} lowers f by ||v||^2 / 2, adding p to {q} by ||v||^2."""
    m = l // 2 + 2
    v = rng.normal(size=m)
    u = rng.normal(size=m)
    u -= (u @ v) / (v @ v) * v
    u *= np.linalg.norm(v) / np.linalg.norm(u)
    M = rng.normal(size=(m, l))
    p, q = rng.choice(l, size=2, replace=False)
    M[:, p] = v + u
    M[:, q] = u
    return ColumnSelectionFunction(v=v, M=M)


def orthonormal_fn(rng, l):
    """Orthonormal columns make the function modular, hence supermodular."""
    Q, _ = np.linalg.qr(rng.normal(size=(l + 2, l)))
    return ColumnSelectionFunction(v=rng.normal(size=l + 2), M=Q)
