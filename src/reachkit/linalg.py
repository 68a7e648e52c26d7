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
call per Krylov block in :mod:`reachkit.system`), and neither validates
again.  Count arguments (grid sizes, caps, budgets, stack counts) and
1-based indices follow one integer rule, :func:`as_count` and
:func:`as_indices`; so do the counts the CLI reads from instance files,
flags and the environment.

The two brute-force scans over column subsets, :mod:`reachkit.setfun`
(from ``l = 7``) and :func:`reachkit.solvers.varsel_exact` (sizes up to
``m``), measure most subsets with one Gram-Schmidt walk over the subset
lattice, :func:`lattice_walk` on the columns of :func:`unit_columns`: a
subset's orthonormal basis grows from its parent's by one column, and a
Gram-determinant bound certifies the subsets whose smallest singular value
clears the caller's floor.  The walk alone decides how far it goes: it ends
before a level whose bases would hold more than ``STACK_ENTRIES`` floats.
The subsets the walk does not certify, or whose verdicts it leaves close,
go to stacks of submatrices, from :func:`subset_stacks` (a given list of
equal-size subsets) or :func:`column_stacks` (all subsets of one size, for
the sizes the walk does not reach), measured with :func:`range_bases` and
:func:`dist_sq_to_bases` (together :func:`dist_sq_to_ranges`): one batched
SVD per stack instead of one factorization per subset.  All thresholds
come from a :class:`Tolerance`, so callers control numerical strictness in
one place.  Functions never modify their inputs and hold no state;
concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import combinations, islice
from typing import Iterable, Iterator

import numpy as np

# column_stacks hands out at most this many subsets, and at most this many
# matrix entries, per stack, which bounds the working memory of a scan;
# lattice_walk builds no level whose bases hold more than STACK_ENTRIES, and
# solvers.greedy_min_reach keeps no more than STACK_ENTRIES floats of
# per-node Krylov bases.
STACK_SUBSETS = 4096
STACK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class Tolerance:
    """Relative thresholds for rank and membership decisions.

    rank_rel
        Singular values below ``rank_rel * scale`` count as zero when
        computing numerical rank.  For a single matrix the scale is its
        largest singular value; for the first Krylov block ``M(S) B`` it is
        ``sigma_max(B)``, whatever ``S`` (``LinearSystem.input_scale``); for a
        Krylov block ``A Q_k`` appended to an orthonormal basis it is
        ``||A||_F`` (``LinearSystem.drift_scale``).  Relative
        thresholding keeps decisions invariant under rescaling of the data
        and of ``A``.
    feas_rel
        Residual threshold for subspace-membership tests: a vector ``w`` is
        accepted as a member when its squared distance to the subspace is at
        most ``feas_rel**2 * max(1, ||w||^2)``.  Its square must be a
        positive float, so ``feas_rel`` has a floor of about 1.57e-162;
        below it the threshold is 0, and the exact search's pruning calls
        feasible instances infeasible.
    """

    rank_rel: float = 1e-9
    feas_rel: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("rank_rel", "feas_rel"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly in (0, 1), got {value!r}")
        if self.feas_rel**2 == 0.0:
            raise ValueError(
                "feas_rel must be at least about 1.57e-162, so that its square is "
                f"positive, got {self.feas_rel!r}"
            )


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


def _is_integer(value) -> bool:
    # int() would truncate 1.7 to 1 and read True as 1.  as_indices tests
    # each index here rather than through as_count, which a tracer that
    # wraps public functions would record once per index.
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def as_count(value, name: str, least: int = 0) -> int:
    """``value`` as an ``int`` of at least ``least``; only Python and numpy
    integers are counts, and ``bool`` is not one (ValueError naming ``name``)."""
    if not _is_integer(value):
        raise ValueError(f"{name} is not an integer: {value!r}")
    value = int(value)
    if value < least:
        floor = "be nonnegative" if least == 0 else f"be at least {least}, got {value}"
        raise ValueError(f"{name} must {floor}")
    return value


def as_indices(S: Iterable, size: int, name: str) -> tuple[int, ...]:
    """Validate 1-based ``name`` indices into ``1..size`` and return them
    sorted and deduplicated.

    Indices follow the integer rule of :func:`as_count`.  Raises ValueError
    naming a value that is not an integer, or the indices when one falls
    outside ``1..size``.
    """
    indices = set()
    for i in S:
        if not _is_integer(i):
            raise ValueError(f"{name} index is not an integer: {i!r}")
        indices.add(int(i))
    ordered = sorted(indices)
    if ordered and (ordered[0] < 1 or ordered[-1] > size):
        raise ValueError(f"{name} indices must lie in 1..{size}, got {ordered}")
    return tuple(ordered)


def extend_basis(
    Q: np.ndarray | None,
    M: np.ndarray,
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
    directions.  ``Q`` itself is returned when nothing is added; when the
    projected block is exactly zero, as the last Krylov block of a
    nilpotent, diagonal or chain system often is, no SVD is taken.  ``M``
    must be a finite 2-d float array; the public wrappers validate theirs.
    """
    if Q is None:
        Q = np.zeros((M.shape[0], 0))
    if M.size == 0:
        return Q
    R = M
    if Q.shape[1]:
        R = R - Q @ (Q.T @ R)
        R = R - Q @ (Q.T @ R)
    if not R.any():
        # every singular value is zero, and none clears a cut
        return Q
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
    return range_basis(M, tol).shape[1]


def range_basis(M, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis for the numerical column space of ``M``.

    Returns a matrix ``Q`` whose columns are orthonormal and span the columns
    of ``M`` up to the rank threshold.  A matrix with no columns, or with all
    entries zero, yields a basis with zero columns, representing the subspace
    ``{0}``.
    """
    return extend_basis(None, as_matrix(M), tol)


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


def _stack_size(m: int, k: int) -> int:
    return max(1, min(STACK_SUBSETS, STACK_ENTRIES // max(1, m * k)))


def column_stacks(M: np.ndarray, k: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The ``k``-column submatrices of ``M``, lexicographically by their
    0-based column indices, in chunks.

    Yields ``(idx, stack)`` pairs: ``idx`` is a ``(b, k)`` array of column
    indices and ``stack[i]`` is ``M[:, idx[i]]``.  A chunk holds at most
    ``STACK_SUBSETS`` submatrices and at most ``STACK_ENTRIES`` entries, but
    never fewer than one submatrix.  Each chunk of the scan fills one stack
    of :func:`subset_stacks`, which gathers it.
    """
    size = _stack_size(M.shape[0], k)
    scan = combinations(range(M.shape[1]), k)
    while batch := list(islice(scan, size)):
        yield from subset_stacks(M, np.array(batch, dtype=np.intp).reshape(len(batch), k))


def subset_stacks(M: np.ndarray, idx: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The submatrices ``M[:, idx[i]]`` for the rows of a ``(b, k)`` array of
    0-based column indices, in order, in chunks bounded as in
    :func:`column_stacks`; yields ``(idx chunk, stack)`` pairs."""
    size = _stack_size(M.shape[0], idx.shape[1])
    for start in range(0, len(idx), size):
        chunk = idx[start:start + size]
        yield chunk, M.T[chunk].transpose(0, 2, 1)


@cache
def _lattice_level(l: int, k: int) -> tuple[np.ndarray, ...]:
    """How the ``(k + 1)``-subsets of ``l`` columns grow from the ``k``-subsets,
    both in colex order, which is ascending bitmask order (bit ``j`` is
    column ``j``).  Returns ``(parent, x, masks, members, drop)``: the
    ``i``-th ``(k + 1)``-subset is ``S + x[i]`` with ``S`` the
    ``parent[i]``-th ``k``-subset and ``x[i]`` above every member of ``S``;
    ``masks[i]`` is its bitmask, ``members[:, i]`` its columns in ascending
    order, and ``drop[j, i]`` the index of the ``k``-subset left when its
    ``j``-th member is removed.  In colex order the ``k``-subsets below ``x``
    are the first ``C(x, k)``."""
    if k:
        _, _, below, above, _ = _lattice_level(l, k - 1)
    else:
        below, above = np.zeros(1, dtype=np.intp), np.zeros((0, 1), dtype=np.intp)
    parent = np.concatenate([np.arange(math.comb(x, k)) for x in range(k, l)])
    x = np.repeat(np.arange(k, l), [math.comb(x, k) for x in range(k, l)])
    masks = below[parent] | 1 << x
    members = np.concatenate([above[:, parent], x[None]])
    drop = np.searchsorted(below, masks ^ 1 << members)
    return parent, x, masks, members, drop


def unit_columns(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The columns of ``M`` scaled to unit norm, as the rows of an ``(l, m)``
    array, and their squared norms relative to the largest.  A zero column
    gives a row of NaN, and so does every column of an all-zero ``M``; a
    NaN row certifies no subset in :func:`lattice_walk`."""
    with np.errstate(divide="ignore", invalid="ignore"):
        M = M / np.abs(M).max(initial=0.0)
        norms2 = np.einsum("ij,ij->j", M, M)
        return (M / np.sqrt(norms2)).T, norms2 / norms2.max(initial=0.0)


def lattice_walk(
    v: np.ndarray, N: np.ndarray, w: np.ndarray, floor: float
) -> Iterator[tuple[np.ndarray, ...]]:
    """Gram-Schmidt walk over the subset lattice of the unit columns ``N``
    (rows, from :func:`unit_columns`, with relative squared norms ``w``),
    certifying each subset at ``sigma_min(M(S)) >= floor * ||M(S)||_F``.

    Yields, for ``k = 1 .. min(l, m)``, the ``k``-subsets in colex order as
    ``(masks, members, d2, sig2, frob2)`` (see :func:`_lattice_level` for the
    first two).  The child ``S + x`` appends the twice-projected column
    ``x`` to the orthonormal basis of ``S``; ``d2`` is the squared distance
    from ``v`` to that span, updated from the parent's residual.  The Gram
    determinant of the unit columns gains the factor ``rho**2``, the squared
    norm of the projected column.  ``frob2`` is ``||M(S)||_F**2`` and
    ``sig2 = det G_S / sum_{i in S} det G_{S-i}``, with ``G`` the Gram matrix
    of the columns scaled by ``sqrt(w)``, a lower bound on
    ``sigma_min(M(S))**2``, both in units of the largest squared column norm
    and summed over the members in ascending order.

    ``sig2`` is NaN where it certifies nothing: where it is below
    ``floor**2 * frob2``, and where some ``S - i`` is uncertified.  In exact
    arithmetic the bound of ``S - i`` is at least that of ``S``, so the second
    rule only drops subsets built on a step whose ``rho`` was too small for
    Gram-Schmidt to keep its basis orthonormal; their determinants, and so
    their bounds, are noise.  Level ``k``'s bases take ``C(l, k) * k * m``
    floats; the walk ends before the first level that would take more than
    ``STACK_ENTRIES``, and builds none of its index arrays.
    """
    l, m = N.shape
    det, frob2 = np.ones(1), np.zeros(1)
    certified = np.ones(1, dtype=bool)
    Q, r = np.zeros((1, 0, m)), v[None]
    for k in range(min(l, m)):
        if m * math.comb(l, k + 1) * (k + 1) > STACK_ENTRIES:
            return
        parent, x, masks, members, drop = _lattice_level(l, k)
        with np.errstate(all="ignore"):
            child = np.empty((len(parent), k + 1, m))
            Q = np.take(Q, parent, axis=0, out=child[:, :k])
            c = N[x]
            # Gram-Schmidt with one reorthogonalization; a first column has
            # nothing to be projected off
            for _ in range(2 if k else 0):
                c -= np.einsum("bk,bkm->bm", np.einsum("bkm,bm->bk", Q, c), Q)
            rho2 = np.einsum("ij,ij->i", c, c)
            q = np.divide(c, np.sqrt(rho2)[:, None], out=child[:, k])
            r = r[parent]
            r -= np.einsum("ij,ij->i", r, q)[:, None] * q
            den = np.add.accumulate(det[drop] / w[members])[-1]
            det = det[parent] * rho2
            sig2 = det / den
            frob2 = frob2[parent] + w[x]
            certified = (sig2 >= floor ** 2 * frob2) & certified[drop].all(axis=0)
            sig2[~certified] = np.nan
            level = masks, members, np.einsum("ij,ij->i", r, r), sig2, frob2
        Q = child
        yield level


def mat_exp(A, t: float = 1.0) -> np.ndarray:
    """Matrix exponential ``exp(A t)``.

    When ``A @ A`` is exactly zero the power series ends after two terms and
    ``I + A t`` is returned.  The square is taken of ``A`` divided exactly by
    a power of two, so that its entries lie below 1: it cannot overflow, and
    it underflows only where entries are tiny next to the largest, so the
    test does not depend on the scale of ``A``.  An exact test suffices
    because every nilpotent matrix the package builds (the corner-stacked
    reductions and the hub row of :func:`reachkit.system.star_system`)
    squares to exactly zero.  Otherwise the computation is delegated to
    :func:`scipy.linalg.expm` (scaling and squaring).
    """
    A = as_matrix(A, name="A")
    n, m = A.shape
    if n != m:
        raise ValueError(f"matrix exponential needs a square matrix, got {A.shape}")
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    P = np.ldexp(A, -math.frexp(np.abs(A).max(initial=0.0))[1])
    if not (P @ P).any():
        return np.eye(n) + A * t
    import scipy.linalg  # loaded on first use: most commands never form exp(A t)

    return scipy.linalg.expm(A * t)
