"""Dense numerical kernel: rank decisions, orthonormal range bases,
point-to-subspace distance, and the matrix exponential.

Every rank and membership decision in the package goes through one routine,
:func:`extend_basis`, or its stacked form :func:`range_bases`, which applies
the same rule to each matrix of a stack, with two exceptions: the
eigenvalue cut of the synthesis Gramian (``lambda >= rank_rel * lambda_max``
in :mod:`reachkit.synth`), and :func:`reachkit.solvers.fit_support`, whose
``np.linalg.lstsq(rcond=None)`` applies numpy's own cutoff,
``eps * max(m, k) * sigma_max`` of the support columns.
:func:`extend_basis` grows an orthonormal basis by a block of new
columns and keeps only the directions whose singular value clears
``rank_rel`` times a caller-chosen scale.  :func:`numerical_rank`,
:func:`range_basis` and :func:`dist_sq_to_range` are thin wrappers over it
that validate their arguments; library code calls :func:`extend_basis` and
:func:`dist_sq_to_basis` directly on arrays it has already validated (one
call per Krylov block in :mod:`reachkit.system`).  Brute-force scans over
column subsets (:mod:`reachkit.setfun`, :func:`reachkit.solvers.varsel_exact`)
take their subsets from :func:`column_stacks`, one stack of equal-size
submatrices per chunk, and measure them with :func:`range_bases` and
:func:`dist_sq_to_bases` (together :func:`dist_sq_to_ranges`): one batched
SVD per stack instead of one factorization per subset.  All
thresholds come from a :class:`Tolerance`, so callers control numerical
strictness in one place.  Functions never modify their inputs and hold no
state; concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterator

import numpy as np

# ||A @ A|| below this fraction of max(1, ||A||^2) counts as "squares to zero",
# switching mat_exp to the exact two-term form I + A t.
NILPOTENT_REL_TOL = 1e-12

# column_stacks hands out at most this many subsets, and at most this many
# matrix entries, per stack, which bounds the working memory of a scan.
STACK_SUBSETS = 4096
STACK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class Tolerance:
    """Relative thresholds for rank and membership decisions.

    rank_rel
        Singular values below ``rank_rel * scale`` count as zero when
        computing numerical rank.  For a single matrix the scale is its
        largest singular value; for the first Krylov block ``M(S) B`` it is
        ``sigma_max(B)``, whatever ``S``; for a Krylov block ``A Q_k``
        appended to an orthonormal basis it is ``||A||_F``.  Relative
        thresholding keeps decisions invariant under rescaling of the data
        and of ``A``.
    feas_rel
        Residual threshold for subspace-membership tests: a vector ``w`` is
        accepted as a member when its squared distance to the subspace is at
        most ``feas_rel**2 * max(1, ||w||^2)``.
    """

    rank_rel: float = 1e-9
    feas_rel: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("rank_rel", "feas_rel"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly in (0, 1), got {value!r}")


DEFAULT_TOL = Tolerance()


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d float array, rejecting NaN/Inf entries."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def as_vector(v, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-d float array, rejecting NaN/Inf entries."""
    v = np.asarray(v, dtype=float).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def extend_basis(
    Q: np.ndarray | None,
    M,
    tol: Tolerance = DEFAULT_TOL,
    scale: float | None = None,
) -> np.ndarray:
    """Orthonormal basis of ``span(Q) + span(M)``, grown from ``Q``.

    Every singular-value rank decision in the package is made here.  ``M`` is
    projected off the orthonormal columns of ``Q`` twice (Gram-Schmidt with
    one reorthogonalization pass), one SVD of the remainder follows, and its
    left singular vectors with ``sigma >= rank_rel * scale`` are appended to
    ``Q``.  ``scale`` defaults to ``sigma_max(M)``, so with ``Q`` empty (or
    ``None``) this is the relative rank rule of a single matrix.  Callers that
    grow a basis block by block pass the scale of the operator producing the
    blocks instead, so that a block of pure roundoff never counts as new
    directions.  ``Q`` itself is returned when nothing is added.
    """
    M = as_matrix(M)
    if Q is None:
        Q = np.zeros((M.shape[0], 0))
    if M.size == 0:
        return Q
    R = M
    if Q.shape[1]:
        R = R - Q @ (Q.T @ R)
        R = R - Q @ (Q.T @ R)
    U, s, _ = np.linalg.svd(R, full_matrices=False)
    if scale is None:
        scale = float(np.linalg.norm(M, 2)) if Q.shape[1] else float(s[0])
    if scale <= 0.0:
        return Q
    new = U[:, : np.count_nonzero(s >= tol.rank_rel * scale)]
    if new.shape[1] == 0:
        return Q
    return np.hstack([Q, new]) if Q.shape[1] else new


def numerical_rank(M, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of singular values at or above ``rank_rel * sigma_max``."""
    return extend_basis(None, M, tol).shape[1]


def range_basis(M, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis for the numerical column space of ``M``.

    Returns a matrix ``Q`` whose columns are orthonormal and span the columns
    of ``M`` up to the rank threshold.  A matrix with no columns, or with all
    entries zero, yields a basis with zero columns, representing the subspace
    ``{0}``.
    """
    return extend_basis(None, M, tol)


def dist_sq_to_basis(v: np.ndarray, Q: np.ndarray) -> float:
    """Squared distance from ``v`` to the span of the orthonormal columns of
    ``Q`` (``||v||^2`` when ``Q`` has no columns)."""
    r = v - Q @ (Q.T @ v)
    return float(r @ r)


def dist_sq_to_range(v, M, tol: Tolerance = DEFAULT_TOL) -> float:
    """Squared Euclidean distance from ``v`` to the column space of ``M``.

    Computed as ``||v - Q Q^T v||^2`` with ``Q = range_basis(M)``.  For a
    zero-column ``M`` the subspace is ``{0}`` and the result is ``||v||^2``.
    """
    v = as_vector(v)
    Q = range_basis(M, tol)  # validates M; Q has as many rows as M
    if Q.shape[0] != v.shape[0]:
        raise ValueError(
            f"vector length {v.shape[0]} does not match matrix rows {Q.shape[0]}"
        )
    return dist_sq_to_basis(v, Q)


def range_bases(stack: np.ndarray, rank_rel: float) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal range bases of each matrix of a ``(b, m, k)`` stack.

    The rule of ``extend_basis(None, M)`` applied to every matrix ``M`` of
    the stack with one batched SVD: the left singular vectors with
    ``sigma >= rank_rel * sigma_max`` are kept, none when ``sigma_max = 0``.
    Returns ``(Q, s)``: ``Q`` is a ``(b, m, p)`` stack, ``p = min(m, k)``,
    whose kept columns are those singular vectors and whose dropped columns
    are zero, so every matrix has the same shape whatever its rank; ``s``
    holds each matrix's ``p`` singular values, dropped ones included.
    """
    b, m, k = stack.shape
    if not (m and k):
        return np.zeros((b, m, 0)), np.zeros((b, 0))
    Q, s, _ = np.linalg.svd(stack, full_matrices=False)
    top = s[:, :1]
    Q *= ((s >= rank_rel * top) & (top > 0.0))[:, None, :]
    return Q, s


def dist_sq_to_bases(v: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Squared distance from ``v`` to the span of the columns of each matrix
    of a ``(b, m, p)`` stack of orthonormal-or-zero columns, as
    :func:`range_bases` returns.

    Each value is ``||v - Q Q^T v||^2``.  The products are taken one matrix
    at a time, so a matrix's value does not depend on the other matrices of
    the stack.
    """
    r = v - (Q @ (v @ Q)[..., None])[..., 0]
    return (r[:, None, :] @ r[:, :, None])[:, 0, 0]


def dist_sq_to_ranges(v: np.ndarray, stack: np.ndarray, rank_rel: float) -> np.ndarray:
    """Squared distance from ``v`` to the range of each matrix of a
    ``(b, m, k)`` stack, with the rank rule of :func:`range_bases`
    (``||v||^2`` for a matrix with no columns or no nonzero entry)."""
    return dist_sq_to_bases(v, range_bases(stack, rank_rel)[0])


def column_stacks(M: np.ndarray, k: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The ``k``-column submatrices of ``M``, lexicographically by their
    0-based column indices, in chunks.

    Yields ``(idx, stack)`` pairs: ``idx`` is a ``(b, k)`` array of column
    indices and ``stack[i]`` is ``M[:, idx[i]]``.  A chunk holds at most
    ``STACK_SUBSETS`` submatrices and at most ``STACK_ENTRIES`` entries, but
    never fewer than one submatrix.
    """
    m, l = M.shape
    size = max(1, min(STACK_SUBSETS, STACK_ENTRIES // max(1, m * k)))
    scan = combinations(range(l), k)
    while batch := list(islice(scan, size)):
        idx = np.array(batch, dtype=np.intp).reshape(len(batch), k)
        yield idx, M.T[idx].transpose(0, 2, 1)


def mat_exp(A, t: float = 1.0) -> np.ndarray:
    """Matrix exponential ``exp(A t)``.

    When ``A @ A`` vanishes (relative to ``max(1, ||A||^2)``) the power series
    truncates and ``I + A t`` is returned exactly; this removes quadrature and
    feasibility noise for the corner-stacked instances, which all square to
    zero.  Otherwise the computation is delegated to :func:`scipy.linalg.expm`
    (scaling and squaring).
    """
    A = as_matrix(A, name="A")
    n, m = A.shape
    if n != m:
        raise ValueError(f"matrix exponential needs a square matrix, got {A.shape}")
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    norm = float(np.linalg.norm(A))
    norm_sq_of_square = float(np.linalg.norm(A @ A))
    if norm_sq_of_square <= NILPOTENT_REL_TOL * max(1.0, norm * norm):
        return np.eye(n) + A * t
    import scipy.linalg  # loaded on first use: most commands never form exp(A t)

    return scipy.linalg.expm(A * t)
