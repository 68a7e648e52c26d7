"""System representation and transfer-feasibility decisions.

A :class:`LinearSystem` bundles the dynamics ``x' = A x + B u`` with one
transfer task ``x(t0) = x0 -> x(t1) = x1``.  Actuated node sets are plain
iterables of 1-based integer node indices (:func:`check_node_set`).  The
input reaches only the rows of ``B`` at actuated nodes, ``M(S) B`` with
``M(S)`` the diagonal selector of :func:`actuation_mask`;
:func:`input_columns` gives the nonzero columns of ``M(S) B``, the input
that the Krylov space and the synthesis in :mod:`reachkit.synth` start from.

A transfer is feasible under node set ``S`` exactly when the offset
``x1 - exp(A (t1 - t0)) x0``, cached as ``LinearSystem.offset``, lies in the
Krylov space spanned by ``[M(S) B, A M(S) B, A^2 M(S) B, ...]`` with ``M(S)``
the actuation mask; :func:`is_feasible` is the one call that decides it.
That space is represented by an orthonormal basis built by block Arnoldi
(Saad, *Iterative Methods for Sparse Linear Systems*): each block is ``A``
applied to the previous block's new directions, orthonormalized against the
basis so far by :func:`reachkit.linalg.extend_basis`.  The first block is
judged against ``sigma_max(B)`` (``LinearSystem.input_scale``), which does
not depend on ``S``, and every later block against ``||A||_F``
(``LinearSystem.drift_scale``), so verdicts do not change when ``A`` and the
time window are rescaled together (``A -> c A``, ``t -> t / c``).  Both
scales are cached on the system.  The norms of data that may be huge,
``||A||_F`` and the offset's, follow one rule (:func:`_peak_norm`): divide by
the largest entry first.  The verdict is taken on the offset scaled by
``max(1, ||offset||)`` (``LinearSystem.scaled_offset``), so an offset whose
squared norm overflows is still judged.  The verdict on a basis already built
is one private rule, shared by :func:`is_feasible` and the greedy solver.

``B`` is node-local (``LinearSystem.node_local``) when each of its columns is
nonzero on at most one node, as for a diagonal ``B``.  Then the first block of
``S + {i}`` is the first block of ``S`` next to that of ``{i}``, and in exact
arithmetic the reachable space of ``S + {i}`` is the sum of those of ``S``
and of ``{i}`` alone.  That lets :func:`reachkit.solvers.greedy_min_reach`
value a candidate from one basis per node; the computed bases can differ
from that sum by directions near the rank cut, so greedy checks such values
against verdicts.  A node that reaches only itself and keeps its row of
``B`` through the first-block cut (:func:`first_block_kept`) has its own
axis as its reachable space, so greedy values it without building a basis.
Every Krylov basis is built by :func:`reachability_matrix`, looked up as this
module's attribute at call time.  The nonzero pattern of ``B`` is cached on the system
(``LinearSystem.input_pattern``) and read by :func:`input_columns`, the
node-local test and the structural reach.

``LinearSystem.reach`` caches the structural bound of Lin ("Structural
controllability", IEEE TAC 1974) and Olshevsky ("Minimal controllability
problems", IEEE TCNS 2014) that the solvers prune with.  Let ``R(S)`` be the
nodes reachable in the graph of ``A`` (edge ``j -> i`` when ``A[i, j] != 0``)
from the members of ``S`` whose row of ``B`` is nonzero.  Every Krylov block
is supported on ``R(S)``, so the squared mass of the scaled offset off
``R(S)`` is a lower bound on the scaled residual, and ``R`` grows with ``S``
for every ``B``.  The computed basis leaks up to about ``1e-13`` off
``R(S)``, so a bound is only trusted with a margin (see
:mod:`reachkit.solvers`).  ``LinearSystem.reached_by`` holds, per node, the
nodes that reach it; it is packed from the same cached closure on first use.
:func:`reached_rows` gives ``R(S)`` as row indices, the rows that the
synthesis in :mod:`reachkit.synth` is restricted to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Tolerance,
    as_count,
    as_indices,
    as_matrix,
    as_vector,
    dist_sq_to_basis,
    extend_basis,
    mat_exp,
)


def _row_masks(M: np.ndarray) -> tuple[int, ...]:
    """Each row of a boolean matrix as a bitmask, bit ``j`` for column ``j``."""
    packed = np.packbits(M, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def _peak_norm(M: np.ndarray, what: str) -> float:
    """Frobenius norm of ``M``, taken after dividing by its largest entry so
    that squaring does not overflow.  Raises ValueError naming ``what`` when
    the norm itself exceeds the float range."""
    peak = float(np.max(np.abs(M), initial=0.0))
    norm = peak * float(np.linalg.norm(M / peak)) if peak else 0.0
    if norm == float("inf"):
        raise ValueError(f"{what} norm exceeds the float range")
    return norm


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

    @cached_property
    def input_scale(self) -> float:
        """``sigma_max(B)``, the scale the first Krylov block of every node
        set is judged against; computed once per system.  Raises ValueError
        when it exceeds the float range."""
        scale = float(np.linalg.norm(self.B, 2))
        if not np.isfinite(scale):
            raise ValueError("input matrix B norm exceeds the float range")
        return scale

    @cached_property
    def drift_scale(self) -> float:
        """``||A||_F``, the scale every Krylov block after the first is judged
        against; computed once per system by :func:`_peak_norm`."""
        return _peak_norm(self.A, "drift matrix A")

    @cached_property
    def offset_scale(self) -> float:
        """``max(1, ||offset||)``, the scale that feasibility verdicts and
        structural bounds divide the offset by (:func:`_peak_norm`)."""
        return max(1.0, _peak_norm(self.offset, "transfer offset"))

    @cached_property
    def scaled_offset(self) -> np.ndarray:
        """The offset divided by :attr:`offset_scale`; its norm is at most 1."""
        return self.offset / self.offset_scale

    @cached_property
    def input_row_norms(self) -> np.ndarray:
        """``||B[i]||`` for every node, each taken after dividing the row by
        its largest entry, so that it neither overflows nor underflows;
        computed once per system."""
        peak = np.abs(self.B).max(axis=1, initial=0.0)
        peak[peak == 0.0] = 1.0
        return peak * np.linalg.norm(self.B / peak[:, None], axis=1)

    @cached_property
    def input_pattern(self) -> np.ndarray:
        """``B != 0``, the nonzero pattern of the input matrix; computed once
        per system."""
        return self.B != 0.0

    @cached_property
    def node_local(self) -> bool:
        """Whether every column of ``B`` is nonzero on at most one node, so
        that the reachable space of a node set is the sum of its members'."""
        return bool((np.count_nonzero(self.input_pattern, axis=0) <= 1).all())

    @cached_property
    def _closure(self) -> np.ndarray:
        """Boolean ``n x n`` matrix whose entry ``[i, j]`` says that node
        ``i`` reaches node ``j``: ``j`` is ``i`` or a descendant of it in the
        graph of ``A``, and ``i`` has a nonzero row of ``B``.  Taken by
        repeated squaring of the adjacency pattern as ``float32`` through
        BLAS, which numpy's ``bool`` product does not use: each entry of the
        square counts paths, at most ``n``, so it is exact while
        ``n < 2**24``; read-only."""
        closure = (self.A != 0.0).T | np.eye(self.n, dtype=bool)
        while True:
            C = closure.astype(np.float32)
            longer = C @ C > 0.0
            if np.array_equal(longer, closure):
                break
            closure = longer
        closure[~self.input_pattern.any(axis=1)] = False
        closure.flags.writeable = False
        return closure

    @cached_property
    def reach(self) -> tuple[int, ...]:
        """Structural reach of every node as a bitmask: bit ``j - 1`` of
        ``reach[i - 1]`` is set when node ``j`` is node ``i`` or a descendant
        of it in the graph of ``A`` (edge ``j -> i`` when ``A[i, j] != 0``).

        A node whose row of ``B`` is zero reaches nothing (mask 0), so the
        reach ``R(S)`` of a node set is the union of its members' masks.
        """
        return _row_masks(self._closure)

    @cached_property
    def reached_by(self) -> tuple[int, ...]:
        """The transpose of :attr:`reach`: bit ``i - 1`` of
        ``reached_by[j - 1]`` is set when node ``i`` reaches node ``j``, so a
        node set ``S`` reaches ``j`` exactly when it meets that mask."""
        return _row_masks(self._closure.T)

    def off_reach_sq(self, mask: int) -> float:
        """Squared norm of :attr:`scaled_offset` on the nodes outside the
        bitmask ``mask``.

        For ``mask = R(S)`` this is a lower bound on the scaled squared
        residual of ``S`` and of every subset of ``S``, up to the leak of the
        computed Krylov basis off ``R(S)``.  Only nodes where the offset is
        nonzero are summed, so a mask that covers them gives exactly zero.
        """
        support, weights = self._offset_weights
        rest = support & ~mask
        total = 0.0
        while rest:
            low = rest & -rest
            total += weights[low.bit_length() - 1]
            rest ^= low
        return total

    @cached_property
    def _offset_weights(self) -> tuple[int, list[float]]:
        """Bitmask of the nodes where :attr:`scaled_offset` is nonzero, and
        its squared entries."""
        weights = (self.scaled_offset**2).tolist()
        support = sum(1 << j for j, value in enumerate(weights) if value)
        return support, weights


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

    Raises ValueError if an index is not an integer or falls outside
    ``1..n`` (:func:`reachkit.linalg.as_indices`).
    """
    return as_indices(S, n, "node")


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


def input_columns(sys: LinearSystem, S: Iterable[int]) -> tuple[np.ndarray, np.ndarray]:
    """``M(S) B`` restricted to its nonzero columns, and those columns.

    The columns are read off :attr:`LinearSystem.input_pattern` at the rows
    of ``S``, and only the kept entries of ``B`` are gathered; the block
    equals ``masked_input_matrix(sys, S)[:, cols]`` entry for entry.
    """
    idx = [i - 1 for i in check_node_set(S, sys.n)]
    cols = sys.input_pattern[idx].any(axis=0).nonzero()[0]
    block = np.zeros((sys.n, cols.size))
    block[idx] = sys.B[idx][:, cols]
    return block, cols


def reached_rows(sys: LinearSystem, S: Iterable[int]) -> np.ndarray:
    """The nodes of the structural reach ``R(S)``, as increasing 0-based
    indices read off the closure cached for :attr:`LinearSystem.reach`.

    The span of the axes ``e_j``, ``j`` in ``R(S)``, holds every nonzero row
    of ``M(S) B`` and is mapped into itself by ``A``, so the input response
    ``exp(A t) M(S) B`` lives on these rows.
    """
    idx = [i - 1 for i in check_node_set(S, sys.n)]
    return np.flatnonzero(sys._closure[idx].any(axis=0))


def first_block_kept(sys: LinearSystem, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Which nodes keep a first Krylov block when actuated alone.

    ``M({i}) B`` has one nonzero row, ``B[i]``, so its one singular value is
    ``||B[i]||`` (``LinearSystem.input_row_norms``) and
    :func:`reachability_matrix` ``(sys, [i])`` is nonzero exactly when
    ``0 < ||B[i]|| >= rank_rel * sigma_max(B)``, up to the rounding of the SVD.
    """
    norms = sys.input_row_norms
    return (norms > 0.0) & (norms >= tol.rank_rel * sys.input_scale)


def reachability_matrix(
    sys: LinearSystem,
    S: Iterable[int],
    max_power: int | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """Orthonormal basis of the reachable space
    ``span[M(S)B, A M(S)B, ..., A^p M(S)B]`` under node set ``S``.

    The basis is built by block Arnoldi.  The first block is the nonzero
    columns of ``M(S)B``, kept where their singular values reach
    ``rank_rel * sigma_max(B)``.  That scale does not depend on ``S``, so for
    a node-local ``B`` (each column nonzero on at most one node, as for a
    diagonal ``B``) a node kept in ``S`` stays kept in every superset, and
    feasibility is monotone in ``S``.  Each later block is ``A`` times the
    previous block's new directions, projected off the basis and kept where
    its singular values reach ``rank_rel * ||A||_F``
    (``LinearSystem.drift_scale``, computed once per system), so the rank
    decisions hold under ``A -> c A`` at every ``c`` whose data are finite.
    ``p`` defaults to ``n - 1`` and the loop stops as soon as a block adds no
    direction; the span is unchanged, since ``A`` then maps the basis into
    itself.  An empty ``S``, or one whose rows of ``B`` are all zero, yields
    the all-zero ``n x m`` block.  A ``max_power`` that is not a nonnegative integer raises
    ValueError, whatever ``S``, and so does an ``A`` whose norm exceeds the
    float range, once a second block is formed.
    """
    p = sys.n - 1 if max_power is None else as_count(max_power, "max_power")
    Q = extend_basis(None, input_columns(sys, S)[0], tol, scale=sys.input_scale)
    if Q.shape[1] == 0:
        return np.zeros_like(sys.B)
    new = Q
    for _ in range(p):
        rank = Q.shape[1]
        if rank == sys.n:
            break
        Q = extend_basis(Q, sys.A @ new, tol, scale=sys.drift_scale)
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

    The offset ``w = sys.offset`` is feasible when its squared distance to
    the orthonormal Krylov basis is at most
    ``feas_rel**2 * max(1, ||w||^2)``; the floor of 1 makes the degenerate
    ``w = 0`` transfer (already at the target under drift alone) feasible
    for every ``S``.  The test is made on ``sys.scaled_offset`` against
    ``feas_rel**2``, so it still holds when ``||w||^2`` overflows.  Returns
    the verdict, the squared distance of ``w`` itself (``inf`` past the
    float range) and the dimension of the reachable space.
    """
    return _verdict(sys, reachability_matrix(sys, S, tol=tol), tol)


def _verdict(sys: LinearSystem, Q: np.ndarray, tol: Tolerance) -> FeasibilityResult:
    """The :func:`is_feasible` verdict on the Krylov basis ``Q`` of a node
    set."""
    with np.errstate(over="ignore"):
        residual_sq = dist_sq_to_basis(sys.offset, Q)
    scaled_sq = dist_sq_to_basis(sys.scaled_offset, Q)
    # an empty reachable space comes back as the all-zero n x m block
    rank = Q.shape[1] if Q.any() else 0
    return FeasibilityResult(
        feasible=scaled_sq <= tol.feas_rel**2, residual_sq=residual_sq, rank=rank
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
