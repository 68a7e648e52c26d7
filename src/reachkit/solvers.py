"""Exact and greedy actuator-selection solvers, plus the brute-force sparse
variable-selection solver they reduce to.

The exact solver enumerates node subsets by increasing cardinality and
returns the lexicographically first feasible set, so its answer has provably
minimal size.  The greedy solver adds one node at a time, always the node
whose addition shrinks the residual most; because the underlying
distance-to-subspace objective is not supermodular, greedy can stall or
overshoot the optimum, and its result is reported honestly (it may be
infeasible, and its ``optimal`` flag is always False).  Both decide each node
set with :func:`reachkit.system.is_feasible`; variable selection and the
reduction's backward map fit supports with :func:`fit_support`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import CapacityError, InfeasibleError
from .linalg import DEFAULT_TOL, Tolerance, as_matrix, as_vector
from .system import LinearSystem, is_feasible

# Exact enumeration beyond this many nodes needs an explicit cardinality budget.
DEFAULT_EXACT_CAP = 20

# Default support-enumeration cap for the variable-selection solver.
DEFAULT_VARSEL_CAP = 20

# A greedy step must shrink the residual by more than this to count as progress.
GREEDY_IMPROVEMENT_EPS = 1e-12

# Entries of a variable-selection vector at or below this magnitude count as
# zero when its support is read off.
SUPPORT_EPS = 1e-12


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solver run.

    ``nodes`` is the selected actuated node set (1-based, sorted).
    ``optimal`` is True only for the exact solver, whose enumeration order
    proves minimal cardinality.  ``feasible`` records whether the returned set
    actually achieves the transfer; the greedy solver may terminate without
    reaching feasibility.  ``nodes_explored`` counts candidate evaluations.
    """

    nodes: tuple[int, ...]
    cardinality: int
    residual_sq: float
    feasible: bool
    optimal: bool
    nodes_explored: int


@dataclass(frozen=True)
class VarSelInstance:
    """Sparse variable selection data: minimize ``||y||_0`` subject to
    ``||U y - z|| <= delta``."""

    U: np.ndarray
    z: np.ndarray
    delta: float

    def __post_init__(self) -> None:
        U = as_matrix(self.U, name="U")
        z = as_vector(self.z, name="z")
        if U.shape[0] != z.shape[0]:
            raise ValueError(f"U has {U.shape[0]} rows but z has length {z.shape[0]}")
        delta = float(self.delta)
        if not (np.isfinite(delta) and delta >= 0.0):
            raise ValueError(f"delta must be a nonnegative real, got {self.delta!r}")
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "delta", delta)

    @cached_property
    def _z_norm(self) -> float:
        return float(np.linalg.norm(self.z))

    def fits(self, residual: float, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Whether a fit residual ``||U y - z||`` meets the budget.

        The budget carries a small relative slack,
        ``delta + feas_rel * max(1, ||z||)``, so exact fits survive float
        noise when ``delta = 0``.
        """
        return residual <= self.delta + tol.feas_rel * max(1.0, self._z_norm)


@dataclass(frozen=True)
class VarSelResult:
    y: np.ndarray
    support: tuple[int, ...]
    norm0: int
    residual: float


@dataclass(frozen=True)
class VarSelCheck:
    """Independent check of a candidate vector ``y`` against an instance:
    its number of entries above ``1e-12`` in magnitude, its fit residual
    ``||U y - z||`` and whether that residual meets the budget."""

    norm0: int
    residual: float
    fits: bool


def check_varsel_solution(
    inst: VarSelInstance, y, tol: Tolerance = DEFAULT_TOL
) -> VarSelCheck:
    """Measure ``y`` against ``inst`` with the rule :func:`varsel_exact`
    accepts supports by."""
    y = as_vector(y, name="y")
    if y.shape[0] != inst.U.shape[1]:
        raise ValueError(f"y must have length {inst.U.shape[1]}, got {y.shape[0]}")
    residual = float(np.linalg.norm(inst.U @ y - inst.z))
    return VarSelCheck(
        norm0=int(np.sum(np.abs(y) > SUPPORT_EPS)),
        residual=residual,
        fits=inst.fits(residual, tol),
    )


def fit_support(
    U: np.ndarray, support: Sequence[int], target: np.ndarray
) -> tuple[np.ndarray, float]:
    """Least-squares fit of ``target`` over the 1-based ``support`` columns
    of ``U``: the length-``l`` coefficients ``y``, zero off the support, and
    the residual ``||U y - target||`` (``||target||`` for an empty support).
    """
    y = np.zeros(U.shape[1])
    idx = [j - 1 for j in support]
    if not idx:
        return y, float(np.linalg.norm(target))
    cols = U[:, idx]
    coef, *_ = np.linalg.lstsq(cols, target, rcond=None)
    y[idx] = coef
    return y, float(np.linalg.norm(cols @ coef - target))


def exact_min_reach(
    sys: LinearSystem,
    tol: Tolerance = DEFAULT_TOL,
    budget: int | None = None,
    cap: int = DEFAULT_EXACT_CAP,
) -> SolveResult:
    """Minimum-cardinality actuated node set by cardinality-ordered
    enumeration.

    Subsets are scanned by increasing size and lexicographically within each
    size, so the first feasible set found has minimal cardinality and is the
    lexicographically least witness of it.  Systems with more than ``cap``
    nodes are refused unless ``budget`` bounds the cardinality to search;
    exhausting the budget raises :class:`InfeasibleError`.
    """
    n = sys.n
    if budget is None and n > cap:
        raise CapacityError(
            f"exact enumeration over {n} nodes exceeds the cap of {cap}; "
            "pass a cardinality budget to proceed"
        )
    kmax = n if budget is None else min(int(budget), n)
    if kmax < 0:
        raise ValueError("budget must be nonnegative")
    explored = 0
    for k in range(kmax + 1):
        for S in combinations(range(1, n + 1), k):
            explored += 1
            verdict = is_feasible(sys, S, tol)
            if verdict.feasible:
                return SolveResult(
                    nodes=S,
                    cardinality=k,
                    residual_sq=verdict.residual_sq,
                    feasible=True,
                    optimal=True,
                    nodes_explored=explored,
                )
    if budget is not None and kmax < n:
        raise InfeasibleError(
            f"no feasible actuated set of cardinality <= {kmax} (budget exhausted)"
        )
    raise InfeasibleError("transfer is infeasible even with every node actuated")


def greedy_min_reach(
    sys: LinearSystem,
    tol: Tolerance = DEFAULT_TOL,
    max_iters: int | None = None,
) -> SolveResult:
    """Greedy marginal-decrease heuristic for the same problem.

    Starting from the empty set, repeatedly add the node whose inclusion
    minimizes the residual (ties broken toward the smallest index).  Stops on
    feasibility, on a stall (no addition shrinks the residual by more than
    ``1e-12``), or after ``max_iters`` additions.  A stall returns the current
    set with ``feasible=False`` rather than raising: stalls are expected
    behavior for a non-supermodular objective and worth observing.
    """
    n = sys.n
    iters = n if max_iters is None else min(int(max_iters), n)
    selected: list[int] = []
    current = is_feasible(sys, selected, tol)
    explored = 0
    while not current.feasible and len(selected) < iters:
        best_node = None
        best = None
        for i in range(1, n + 1):
            if i in selected:
                continue
            explored += 1
            verdict = is_feasible(sys, selected + [i], tol)
            if best is None or verdict.residual_sq < best.residual_sq:
                best_node, best = i, verdict
        if (
            best_node is None
            or current.residual_sq - best.residual_sq <= GREEDY_IMPROVEMENT_EPS
        ):
            break
        selected.append(best_node)
        current = best
    return SolveResult(
        nodes=tuple(sorted(selected)),
        cardinality=len(selected),
        residual_sq=current.residual_sq,
        feasible=current.feasible,
        optimal=False,
        nodes_explored=explored,
    )


def varsel_exact(
    inst: VarSelInstance,
    cap: int = DEFAULT_VARSEL_CAP,
    tol: Tolerance = DEFAULT_TOL,
) -> VarSelResult:
    """Exact sparse variable selection by support enumeration.

    Supports are scanned by increasing size and lexicographically within each
    size; each candidate support gets a least-squares fit of ``z`` over the
    selected columns, and the first support whose residual meets the budget
    (:meth:`VarSelInstance.fits`) wins.
    """
    m, l = inst.U.shape
    if l > cap:
        raise CapacityError(
            f"support enumeration over {l} columns exceeds the cap of {cap}"
        )
    for k in range(l + 1):
        for support in combinations(range(1, l + 1), k):
            y, residual = fit_support(inst.U, support, inst.z)
            if inst.fits(residual, tol):
                return VarSelResult(
                    y=y, support=support, norm0=k, residual=residual
                )
    raise InfeasibleError(
        f"no support of size <= {l} meets the residual budget {inst.delta}"
    )
