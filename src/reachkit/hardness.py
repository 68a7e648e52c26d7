"""Reduction machinery between sparse variable selection and minimal
reachability.

A variable-selection instance ``(U, z = all-ones, delta)`` maps to a
reachability instance whose dynamics matrix carries ``d`` vertically stacked
copies of ``U`` in its top-right corner and is zero elsewhere.  Sizing the
matrix as ``n = max(m, l) * (d + 1)`` makes it square to zero exactly, so the
reachable set of any node choice stabilizes after the first power.

Solutions translate both ways:

* forward: a sparse ``y`` with ``U y = 1`` becomes the node set obtained by
  shifting its support into the last ``l`` coordinates
  (:func:`forward_map`), feasible with the same cardinality;
* backward: from any feasible node set ``S`` with fewer than ``d`` members
  among the stacked rows, a pigeonhole argument yields a full block of ``m``
  consecutive target rows untouched by ``S``
  (:func:`find_disjoint_block`), and a least-squares fit of those rows over
  the actuated columns of ``U`` (:func:`reachkit.solvers.fit_support`)
  recovers a solution no denser than ``S`` (:func:`extract_solution`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import ReductionIntegrityError
from .linalg import DEFAULT_TOL, Tolerance, as_count, as_indices, as_matrix, as_vector
from .solvers import VarSelInstance, check_varsel_solution, fit_support
from .system import LinearSystem, check_node_set, is_feasible


@dataclass(frozen=True)
class ReductionDims:
    """Bookkeeping for one generated instance: source shape ``m x l``, stack
    count ``d``, system size ``n = max(m, l) * (d + 1)``."""

    m: int
    l: int
    d: int
    n: int


@dataclass(frozen=True)
class HardInstance:
    """A generated reachability instance bundled with its source
    variable-selection instance and index bookkeeping."""

    sys: LinearSystem
    source: VarSelInstance
    dims: ReductionDims


@dataclass(frozen=True)
class BlockSelection:
    """A length-``m`` run of target rows disjoint from the actuated set:
    rows ``block_index * m + 1 .. block_index * m + m``."""

    block_index: int
    indices: tuple[int, ...]


def stacked_corner(M, n: int, d: int) -> np.ndarray:
    """n x n matrix with ``d`` vertical copies of ``M`` in the top-right
    corner and zeros elsewhere.

    Requires ``n >= max(m, l) * d`` so the copies fit; once
    ``n >= max(m, l) * (d + 1)`` the result squares to zero exactly (the
    nonzero rows and nonzero columns no longer overlap).
    """
    M = as_matrix(M, name="M")
    m, l = M.shape
    d = as_count(d, "stack count d", 1)
    n = as_count(n, "n")
    if n < max(m, l) * d:
        raise ValueError(
            f"n={n} is too small to stack a {m}x{l} block {d} times "
            f"(need n >= {max(m, l) * d})"
        )
    out = np.zeros((n, n))
    for j in range(d):
        out[j * m : (j + 1) * m, n - l :] = M
    return out


def generate(U, d: int, delta: float = 0.0) -> HardInstance:
    """Build the reachability instance encoding variable selection on ``U``.

    The system is ``n = max(m, l) * (d + 1)`` dimensional with the stacked
    matrix as dynamics, identity input matrix, zero start state, and a target
    of ``m * d`` ones followed by zeros.  Times are fixed at ``t0=0, t1=1``:
    the start state is the origin, so the drift term vanishes and the times
    never matter.  ``d`` is a free parameter; choosing it above the expected
    optimal sparsity keeps solution extraction in the pigeonhole regime.
    """
    U = as_matrix(U, name="U")
    d = as_count(d, "stack count d", 1)
    m, l = U.shape
    n = max(m, l) * (d + 1)
    A = stacked_corner(U, n, d)
    x1 = np.zeros(n)
    x1[: m * d] = 1.0
    sys = LinearSystem(A=A, B=np.eye(n), t0=0.0, t1=1.0, x0=np.zeros(n), x1=x1)
    source = VarSelInstance(U=U, z=np.ones(m), delta=float(delta))
    return HardInstance(sys=sys, source=source, dims=ReductionDims(m=m, l=l, d=d, n=n))


def forward_map(
    inst: HardInstance,
    y,
    support: Iterable[int] | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[int, ...]:
    """Map a variable-selection solution to an actuated node set.

    ``y`` must satisfy ``U y = all-ones`` within the source instance's fit
    slack, ``feas_rel * max(1, sqrt(m))`` (``delta`` is not added).  Its
    support, the 1-based indices of its entries above ``1e-12`` times its
    largest magnitude (the rule ``norm0`` counts by,
    :func:`reachkit.solvers.check_varsel_solution`), shifts by ``n - l``
    into node indices; a declared ``support`` must equal it.  The resulting
    set is feasible with cardinality ``norm0`` by construction, and that is
    asserted here: a failure raises :class:`ReductionIntegrityError` because
    it means the kernel, not the caller, is wrong.
    """
    l, n = inst.dims.l, inst.dims.n
    check = check_varsel_solution(inst.source, y, tol)
    if support is None:
        support = check.support
    else:
        support = as_indices(support, l, "column")
        if support != check.support:
            raise ValueError(
                f"declared support {support} does not match the nonzero "
                f"entries of y {check.support}"
            )
    if check.residual > inst.source.slack(tol):
        raise ValueError(
            f"y does not solve the source system: ||U y - z|| = {check.residual:.3e}"
        )
    nodes = tuple(k + n - l for k in support)
    verdict = is_feasible(inst.sys, nodes, tol)
    if not verdict.feasible:
        raise ReductionIntegrityError(
            "forward-mapped node set is infeasible "
            f"(residual_sq={verdict.residual_sq:.3e}); this indicates a kernel bug"
        )
    return nodes


def find_disjoint_block(S: Iterable[int], m: int, d: int) -> BlockSelection:
    """Smallest-index length-``m`` block of ``{1..m*d}`` disjoint from ``S``.

    The blocks partition the first ``m*d`` indices into ``d`` runs, so a
    disjoint one is guaranteed whenever ``S`` hits fewer than ``d`` of them
    (in particular whenever ``|S| < d``).  ``m``, ``d`` and the members of
    ``S`` must be integers of at least 1 (:func:`reachkit.linalg.as_count`).
    """
    m = as_count(m, "block width m", 1)
    d = as_count(d, "block count d", 1)
    hit = {as_count(i, "node index", 1) for i in S}
    for kappa in range(d):
        block = tuple(range(kappa * m + 1, kappa * m + m + 1))
        if hit.isdisjoint(block):
            return BlockSelection(block_index=kappa, indices=block)
    raise ValueError(
        f"every length-{m} block of 1..{m * d} intersects the actuated set; "
        f"need fewer than {d} actuated nodes among the stacked rows"
    )


@dataclass(frozen=True)
class ExtractionResult:
    """Recovered variable-selection solution and its least-squares residual
    against the extracted target rows."""

    y: np.ndarray
    residual_sq: float


def extract_solution(inst: HardInstance, S: Iterable[int], xhat1) -> ExtractionResult:
    """Recover a variable-selection solution from a feasible node set.

    Picks a block of ``m`` consecutive target rows disjoint from ``S``,
    extracts those rows of the (approximately) reached state ``xhat1``, and
    least-squares fits them over the columns of ``U`` whose shifted indices
    appear in ``S``.  Members of ``S`` outside the last ``l`` coordinates
    contribute nothing to those rows and are ignored.  The recovered ``y``
    has at most ``|S|`` nonzeros; when ``xhat1`` is reachable under ``S`` the
    fit is exact up to float noise, so its residual against the all-ones
    vector is bounded by how far ``xhat1`` strays from the true target.  If
    ``S`` actuates no columns of ``U``, the fit is over the empty span and
    the full target norm is reported as residual rather than raising.
    """
    m, l, d, n = inst.dims.m, inst.dims.l, inst.dims.d, inst.dims.n
    nodes = check_node_set(S, n)
    xhat1 = as_vector(xhat1, name="xhat1")
    if xhat1.shape[0] != n:
        raise ValueError(f"xhat1 must have length {n}, got {xhat1.shape[0]}")
    block = find_disjoint_block(nodes, m, d)
    target = xhat1[[i - 1 for i in block.indices]]
    col_ids = [s - (n - l) for s in nodes if s > n - l]
    y, residual = fit_support(inst.source.U, col_ids, target)
    return ExtractionResult(y=y, residual_sq=residual**2)
