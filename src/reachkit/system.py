"""System representation and transfer-feasibility decisions.

A :class:`LinearSystem` bundles the dynamics ``x' = A x + B u`` with one
transfer task ``x(t0) = x0 -> x(t1) = x1``.  Actuated node sets are plain
iterables of 1-based node indices; :func:`actuation_mask` turns a set into the
diagonal selector that gates which rows of ``B`` the input reaches.

A transfer is feasible under node set ``S`` exactly when the offset
``x1 - exp(A (t1 - t0)) x0``, cached as ``LinearSystem.offset``, lies in the
Krylov space spanned by ``[M(S) B, A M(S) B, A^2 M(S) B, ...]`` with ``M(S)``
the actuation mask; :func:`is_feasible` is the one call that decides it.
That space is represented by an orthonormal basis built by block Arnoldi
(Saad, *Iterative Methods for Sparse Linear Systems*): each block is ``A``
applied to the previous block's new directions, orthonormalized against the
basis so far by :func:`reachkit.linalg.extend_basis`.  The first block is
judged against its own largest singular value and every later block against
``||A||_F``, so verdicts do not change when ``A`` and the time window are
rescaled together (``A -> c A``, ``t -> t / c``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_matrix,
    as_vector,
    dist_sq_to_basis,
    extend_basis,
    mat_exp,
)

NodeSet = Sequence[int]


@dataclass(frozen=True)
class LinearSystem:
    """Dynamics ``x' = A x + B u`` plus one state-transfer task.

    A is n x n, B is n x m, ``x0``/``x1`` have length n, and ``t1 > t0``.
    Instances are treated as immutable; no function in this package writes to
    the stored arrays.
    """

    A: np.ndarray
    B: np.ndarray
    t0: float
    t1: float
    x0: np.ndarray
    x1: np.ndarray

    def __post_init__(self) -> None:
        A = as_matrix(self.A, name="A")
        B = as_matrix(self.B, name="B")
        x0 = as_vector(self.x0, name="x0")
        x1 = as_vector(self.x1, name="x1")
        n = A.shape[0]
        if A.shape[1] != n:
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise ValueError(f"B has {B.shape[0]} rows, expected {n}")
        if x0.shape[0] != n or x1.shape[0] != n:
            raise ValueError("x0 and x1 must have length n")
        t0 = float(self.t0)
        t1 = float(self.t1)
        if not (np.isfinite(t0) and np.isfinite(t1)):
            raise ValueError("t0 and t1 must be finite")
        if not t1 > t0:
            raise ValueError(f"t1 must exceed t0, got t0={t0}, t1={t1}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "t1", t1)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @cached_property
    def offset(self) -> np.ndarray:
        """:func:`transfer_offset`, computed once per system and shared by
        every node set tested against it."""
        return transfer_offset(self)


@dataclass(frozen=True)
class FeasibilityResult:
    """Verdict for one node set: the thresholded decision, the squared
    distance of the transfer offset to the reachable space, and the dimension
    of that space."""

    feasible: bool
    residual_sq: float
    rank: int


def check_node_set(S: Iterable[int], n: int) -> tuple[int, ...]:
    """Validate 1-based node indices and return them sorted and deduplicated.

    Raises ValueError if any index falls outside ``1..n``.
    """
    nodes = sorted({int(i) for i in S})
    if nodes and (nodes[0] < 1 or nodes[-1] > n):
        raise ValueError(f"node indices must lie in 1..{n}, got {nodes}")
    return tuple(nodes)


def actuation_mask(S: Iterable[int], n: int) -> np.ndarray:
    """Diagonal n x n selector with 1 at the actuated node positions."""
    nodes = check_node_set(S, n)
    mask = np.zeros((n, n))
    for i in nodes:
        mask[i - 1, i - 1] = 1.0
    return mask


def masked_input_matrix(sys: LinearSystem, S: Iterable[int]) -> np.ndarray:
    """Rows of ``B`` kept at actuated nodes, zero elsewhere (``M(S) B``)."""
    nodes = check_node_set(S, sys.n)
    IB = np.zeros_like(sys.B)
    idx = [i - 1 for i in nodes]
    IB[idx, :] = sys.B[idx, :]
    return IB


def reachability_matrix(
    sys: LinearSystem,
    S: Iterable[int],
    max_power: int | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Orthonormal basis of the reachable space
    ``span[M(S)B, A M(S)B, ..., A^p M(S)B]`` under node set ``S``.

    The basis is built by block Arnoldi.  The first block is the nonzero
    columns of ``M(S)B``, kept up to the rank threshold relative to their own
    largest singular value.  Each later block is ``A`` times the previous
    block's new directions, projected off the basis and kept where its
    singular values reach ``rank_rel * ||A||_F``.  ``p`` defaults to ``n - 1``
    and the loop stops as soon as a block adds no direction; the span is
    unchanged, since ``A`` then maps the basis into itself.  An empty ``S``,
    or one whose rows of ``B`` are all zero, yields the all-zero ``n x m``
    block.
    """
    IB = masked_input_matrix(sys, S)
    Q = extend_basis(None, IB[:, np.any(IB != 0.0, axis=0)], tol)
    if Q.shape[1] == 0:
        return np.zeros_like(sys.B)
    p = sys.n - 1 if max_power is None else int(max_power)
    if p < 0:
        raise ValueError("max_power must be nonnegative")
    a_scale = float(np.linalg.norm(sys.A))
    new = Q
    for _ in range(p):
        rank = Q.shape[1]
        if rank == sys.n:
            break
        Q = extend_basis(Q, sys.A @ new, tol, scale=a_scale)
        if Q.shape[1] == rank:
            break
        new = Q[:, rank:]
    return Q


def transfer_offset(sys: LinearSystem) -> np.ndarray:
    """The vector ``x1 - exp(A (t1 - t0)) x0`` whose reachability decides the
    transfer.

    A zero start state gives ``x1`` without forming the exponential, which
    may overflow.  Raises ValueError when the drift term is not finite.
    """
    if not sys.x0.any():
        return sys.x1.copy()
    with np.errstate(over="ignore", invalid="ignore"):
        w = sys.x1 - mat_exp(sys.A, sys.t1 - sys.t0) @ sys.x0
    if not np.all(np.isfinite(w)):
        raise ValueError(
            "transfer offset x1 - exp(A (t1 - t0)) x0 is not finite: "
            "the drift term overflows"
        )
    return w


def is_feasible(
    sys: LinearSystem, S: Iterable[int], tol: Tolerance = DEFAULT_TOL
) -> FeasibilityResult:
    """Decide whether the transfer task is achievable by actuating ``S``.

    The squared distance of ``w = sys.offset`` to the orthonormal Krylov
    basis is compared with ``feas_rel**2 * max(1, ||w||^2)``; the floor of 1
    makes the degenerate ``w = 0`` transfer (already at the target under
    drift alone) feasible for every ``S``.  Returns that distance, the
    verdict and the dimension of the reachable space.
    """
    w = sys.offset
    Q = reachability_matrix(sys, S, tol=tol)
    residual_sq = dist_sq_to_basis(w, Q)
    bound = tol.feas_rel**2 * max(1.0, float(w @ w))
    # an empty reachable space comes back as the all-zero n x m block
    rank = Q.shape[1] if Q.any() else 0
    return FeasibilityResult(
        feasible=residual_sq <= bound, residual_sq=residual_sq, rank=rank
    )


def star_system(
    n: int,
    x1: np.ndarray | None = None,
    t0: float = 0.0,
    t1: float = 1.0,
) -> LinearSystem:
    """Hub-and-spokes benchmark system of size ``n``.

    Node 1 integrates the sum of all other nodes (``x1' = x2 + ... + xn``)
    and every other node is constant.  ``B`` is the identity, the start state
    is the origin, and the default target is the first basis vector, which a
    single actuated node already reaches.
    """
    if n < 2:
        raise ValueError("star system needs at least 2 nodes")
    A = np.zeros((n, n))
    A[0, 1:] = 1.0
    target = np.eye(n)[0] if x1 is None else as_vector(x1, name="x1")
    return LinearSystem(A=A, B=np.eye(n), t0=t0, t1=t1, x0=np.zeros(n), x1=target)
