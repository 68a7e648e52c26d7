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

Variable selection screens each size's supports before fitting them.  The
screen's rule is a lower bound from one batched SVD per chunk of equal-size
supports (:func:`reachkit.linalg.range_bases` with ``rank_rel = eps``): the
distance from ``z`` to the span of each support's columns.  That span keeps
every direction that ``lstsq``'s cutoff ``eps max(m, k) sigma_max`` keeps,
so the distance bounds the support's least-squares residual from below, up
to roundoff: on columns whose singular values spread by a factor ``kappa``,
the residual ``lstsq`` computes can fall short of the exact one by about
``eps * kappa * ||z||``.  A support is skipped when its bound exceeds the fit
budget by more than ``margin = delta + 2 feas_rel * max(1, ||z||)`` plus
``SCREEN_ROUNDOFF`` times that roundoff; so a support with a nonzero
singular value below ``eps * sigma_max`` is always fitted.

The sizes ``1 <= k <= m`` that the Gram-Schmidt walk over the subset
lattice reaches (:func:`reachkit.linalg.lattice_walk`, which
:mod:`reachkit.setfun` uses too, and which ends at its memory budget) take
most of those verdicts from it, walked one size further only when the size
before fitted nothing.  Its certification is the set-function
checks': ``sigma_min**2 >= det G_S / sum_{i in S} det G_{S-i}`` must clear
``(setfun.SAFETY * eps * ||U(S)||_F)**2`` for ``S`` and for every ``S - i``.
A certified distance ``d`` then lies within ``a = setfun.ALLOW * eps *
(m + 1) * kappa * ||z||`` of the bound's, and within ``a * ||z||`` in
squared distance (observed: at most 0.02 of either), where ``kappa =
||U(S)||_F / sigma_min bound`` is at least the bound's spread.  A certified
support is skipped when ``d**2 - a ||z||`` exceeds ``(margin + roundoff *
kappa)**2``, and fitted without the bound when ``d + a`` is at most
``margin + roundoff``; both are verdicts the bound would give.  Every other
support (uncertified ones, those with zero or repeated columns, and every
size past ``m`` or past the walk) gets the bound itself.  The
supports left are fitted by :func:`fit_support` in lexicographic order, so
the supports fitted are those the bound alone keeps, and the support, ``y``
and ``residual`` returned are those of the unscreened scan.

Both node-set solvers first consult the structural bound cached as
``LinearSystem.reach``: the squared mass of the scaled offset off the reach
``R(S)`` is a lower bound on the scaled residual of ``S`` and of every subset
of ``S``.  The exact solver runs a lexicographic depth-first search within
each cardinality and drops a prefix when the prefix together with every later
candidate already leaves mass ``>= 4 feas_rel**2`` off its reach; a subset
whose own reach fails that test is not evaluated either.  If the full set
fails, nothing is evaluated.  The greedy solver scans candidates in index
order and, once the round has a best candidate, skips one whose bound (the
mass off the reach of the selected nodes and the candidate together) exceeds
the best residual of the round so far by more than ``2 feas_rel``.  Both
margins hold while the computed Krylov basis leaks less than ``feas_rel`` off
``R(S)`` (observed: about ``1e-13``), so every skipped set is one that
:func:`reachkit.system.is_feasible` would reject or that greedy would not
pick, and the answers are those of the unpruned scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Sequence

import numpy as np

from . import setfun
from .errors import CapacityError, InfeasibleError
from .linalg import (
    DEFAULT_TOL, Tolerance, as_count, as_matrix, as_vector, column_stacks,
    dist_sq_to_bases, lattice_walk, range_bases, subset_stacks, unit_columns,
)
from .system import LinearSystem, is_feasible

# Exact enumeration beyond this many nodes needs an explicit cardinality budget.
DEFAULT_EXACT_CAP = 20

# Default support-enumeration cap for the variable-selection solver.
DEFAULT_VARSEL_CAP = 20

# A greedy step must shrink the residual by more than this to count as progress.
GREEDY_IMPROVEMENT_EPS = 1e-12

# The exact search drops a node set whose scaled offset keeps at least
# EXACT_PRUNE_FACTOR * feas_rel**2 of squared mass off its structural reach.
EXACT_PRUNE_FACTOR = 4.0

# Greedy skips a candidate whose structural bound on the scaled residual
# exceeds the best scaled residual of the round so far by more than
# GREEDY_SKIP_FACTOR * feas_rel.
GREEDY_SKIP_FACTOR = 2.0

# lstsq's computed residual on columns with singular-value spread kappa can
# undercut the exact distance from z to their span by about
# eps * kappa * ||z||; the variable-selection screen allows this many times
# that on top of its feasibility margin.
SCREEN_ROUNDOFF = 64.0

_EPS = float(np.finfo(float).eps)

# Entries of a variable-selection vector at or below this fraction of its
# largest magnitude count as zero when its support is read off.
SUPPORT_EPS = 1e-12


@dataclass(frozen=True)
class SolveResult:
    """Outcome of a solver run.

    ``nodes`` is the selected actuated node set (1-based, sorted).
    ``optimal`` is True only for the exact solver, whose enumeration order
    proves minimal cardinality.  ``feasible`` records whether the returned set
    actually achieves the transfer; the greedy solver may terminate without
    reaching feasibility.  ``nodes_explored`` counts candidate evaluations
    (calls of :func:`reachkit.system.is_feasible`); ``nodes_pruned`` counts
    the candidates the structural bound ruled out without one: node subsets
    for the exact solver, skipped additions for the greedy one.
    """

    nodes: tuple[int, ...]
    cardinality: int
    residual_sq: float
    feasible: bool
    optimal: bool
    nodes_explored: int
    nodes_pruned: int = 0


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

    def slack(self, tol: Tolerance = DEFAULT_TOL) -> float:
        """How far a fit residual may exceed ``delta``: ``feas_rel * max(1, ||z||)``."""
        return tol.feas_rel * max(1.0, self._z_norm)

    def fits(self, residual: float, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Whether a fit residual ``||U y - z||`` meets the budget.

        The budget carries a small relative slack,
        ``delta + feas_rel * max(1, ||z||)``, so exact fits survive float
        noise when ``delta = 0``.
        """
        return residual <= self.delta + self.slack(tol)


@dataclass(frozen=True)
class VarSelResult:
    y: np.ndarray
    support: tuple[int, ...]
    norm0: int
    residual: float


@dataclass(frozen=True)
class VarSelCheck:
    """Independent check of a candidate vector ``y`` against an instance:
    its support (the 1-based indices of its entries above ``1e-12`` times
    its largest magnitude), its fit residual ``||U y - z||`` and whether it
    fits."""

    support: tuple[int, ...]
    residual: float
    fits: bool

    @property
    def norm0(self) -> int:
        return len(self.support)


def check_varsel_solution(
    inst: VarSelInstance, y, tol: Tolerance = DEFAULT_TOL
) -> VarSelCheck:
    """Measure ``y`` against ``inst`` with the rule :func:`varsel_exact`
    accepts supports by."""
    y = as_vector(y, name="y")
    if y.shape[0] != inst.U.shape[1]:
        raise ValueError(f"y must have length {inst.U.shape[1]}, got {y.shape[0]}")
    residual = float(np.linalg.norm(inst.U @ y - inst.z))
    magnitude = np.abs(y)
    support = np.flatnonzero(magnitude > SUPPORT_EPS * magnitude.max(initial=0.0)) + 1
    return VarSelCheck(
        support=tuple(support.tolist()),
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


def _bound_keeps(
    z: np.ndarray, stack: np.ndarray, margin: float, roundoff: float
) -> np.ndarray:
    """Which supports of a stack of equal-size column submatrices the
    batched-SVD bound keeps: those whose distance from ``z`` exceeds
    ``margin`` by at most ``roundoff`` times their singular-value spread."""
    Q, s = range_bases(stack, _EPS)
    bound = np.sqrt(dist_sq_to_bases(z, Q))
    spread = s.max(axis=1, initial=0.0) / np.min(
        s, axis=1, where=s > 0.0, initial=np.inf
    )
    # a NaN limit, from an ||z|| that overflows, skips nothing
    return ~(bound > margin + roundoff * spread)


def _lattice_survivors(
    inst: VarSelInstance, level: tuple[np.ndarray, ...], margin: float, roundoff: float
) -> np.ndarray:
    """The supports of one level of :func:`reachkit.linalg.lattice_walk`
    that :func:`_bound_keeps` keeps, as rows of 0-based columns in
    lexicographic order.  Certified supports are decided from the walk (see
    the module docstring); the rest get the bound itself."""
    _, members, d2, sig2, frob2 = level
    m = inst.U.shape[0]
    z_norm = inst._z_norm
    # an uncertified support has a NaN bound, so both tests below are False
    with np.errstate(all="ignore"):
        kappa = np.maximum(1.0, np.sqrt(frob2 / sig2))
        # how far a certified distance may lie from the bound's, times ||z||
        # in squared distance
        allow = setfun.ALLOW * _EPS * (m + 1) * z_norm * kappa
        skip = d2 - allow * z_norm > (margin + roundoff * kappa) ** 2
        keep = np.sqrt(d2) + allow <= margin + roundoff
    left = np.flatnonzero(~skip)
    left = left[np.lexsort(members[::-1, left])]
    idx, keep = members[:, left].T, keep[left]
    if not keep.all():
        keep[~keep] = np.concatenate([
            _bound_keeps(inst.z, stack, margin, roundoff)
            for _, stack in subset_stacks(inst.U, idx[~keep])
        ])
    return idx[keep]


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
    lexicographically least witness of it.  Within a size the scan is a
    depth-first search that drops every subset the structural bound rules
    out (see the module docstring); ``nodes_pruned`` counts them.  Systems
    with more than ``cap`` nodes are refused unless ``budget`` bounds the
    cardinality to search; exhausting the budget raises
    :class:`InfeasibleError`.
    """
    n = sys.n
    cap = as_count(cap, "cap")
    if budget is None and n > cap:
        raise CapacityError(
            f"exact enumeration over {n} nodes exceeds the cap of {cap}; "
            "pass a cardinality budget to proceed"
        )
    kmax = n if budget is None else min(as_count(budget, "budget"), n)
    masks = sys.reach
    # later[j]: the reach of nodes j+1..n together
    later = [0] * (n + 1)
    for j in range(n - 1, -1, -1):
        later[j] = later[j + 1] | masks[j]
    off = sys.off_reach_sq
    prune_at = EXACT_PRUNE_FACTOR * tol.feas_rel**2
    explored = pruned = 0
    for k in range(kmax + 1):
        chosen: list[int] = []  # 0-based nodes of the current prefix
        covered = [0]  # covered[p]: the reach of chosen[:p]
        j = 0  # next candidate to extend the prefix with
        while True:
            need = k - len(chosen)
            if need and j <= n - need and off(covered[-1] | later[j]) < prune_at:
                chosen.append(j)
                covered.append(covered[-1] | masks[j])
                j += 1
                continue
            if need:
                # no k-subset extends the prefix by a node >= j
                if j <= n - need:
                    pruned += comb(n - j, need)
            elif off(covered[-1]) >= prune_at:
                pruned += 1
            else:
                explored += 1
                S = tuple(i + 1 for i in chosen)
                verdict = is_feasible(sys, S, tol)
                if verdict.feasible:
                    return SolveResult(
                        nodes=S,
                        cardinality=k,
                        residual_sq=verdict.residual_sq,
                        feasible=True,
                        optimal=True,
                        nodes_explored=explored,
                        nodes_pruned=pruned,
                    )
            if not chosen:
                break
            j = chosen.pop() + 1
            covered.pop()
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
    ``1e-12``), or after ``max_iters >= 0`` additions.  A stall returns the current
    set with ``feasible=False`` rather than raising: stalls are expected
    behavior for a non-supermodular objective and worth observing.
    Candidates whose structural bound cannot beat the best residual of the
    round so far are skipped unevaluated (see the module docstring) and
    counted in ``nodes_pruned``.
    """
    n = sys.n
    iters = n if max_iters is None else min(as_count(max_iters, "max_iters"), n)
    scale = sys.offset_scale
    reach = sys.reach
    off = sys.off_reach_sq
    slack = GREEDY_SKIP_FACTOR * tol.feas_rel
    covered = 0  # reach of the selected nodes
    selected: list[int] = []
    current = is_feasible(sys, selected, tol)
    explored = skipped = 0
    while not current.feasible and len(selected) < iters:
        best = None
        for i in range(1, n + 1):
            if i in selected:
                continue
            # lower bound on the scaled residual of selected + [i]
            if best is not None and off(covered | reach[i - 1]) > best_scaled + slack:
                skipped += 1
                continue
            explored += 1
            verdict = is_feasible(sys, selected + [i], tol)
            if best is None or verdict.residual_sq < best.residual_sq:
                best_node, best = i, verdict
                best_scaled = best.residual_sq / scale / scale
        if current.residual_sq - best.residual_sq <= GREEDY_IMPROVEMENT_EPS:
            break
        selected.append(best_node)
        covered |= reach[best_node - 1]
        current = best
    return SolveResult(
        nodes=tuple(sorted(selected)),
        cardinality=len(selected),
        residual_sq=current.residual_sq,
        feasible=current.feasible,
        optimal=False,
        nodes_explored=explored,
        nodes_pruned=skipped,
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
    (:meth:`VarSelInstance.fits`) wins.  Supports whose lower bound rules
    them out are not fitted (see the module docstring).
    """
    l = inst.U.shape[1]
    if l > as_count(cap, "cap"):
        raise CapacityError(
            f"support enumeration over {l} columns exceeds the cap of {cap}"
        )
    margin = inst.delta + 2.0 * inst.slack(tol)
    roundoff = SCREEN_ROUNDOFF * _EPS * inst._z_norm
    walk = lattice_walk(inst.z, *unit_columns(inst.U), setfun.SAFETY * _EPS)
    for k in range(l + 1):
        level = next(walk, None) if k else None
        if level is not None:
            chunks = [_lattice_survivors(inst, level, margin, roundoff)]
        else:
            chunks = (
                idx[_bound_keeps(inst.z, stack, margin, roundoff)]
                for idx, stack in column_stacks(inst.U, k)
            )
        for chunk in chunks:
            for row in chunk.tolist():
                support = tuple(j + 1 for j in row)
                y, residual = fit_support(inst.U, support, inst.z)
                if inst.fits(residual, tol):
                    return VarSelResult(
                        y=y, support=support, norm0=k, residual=residual
                    )
    raise InfeasibleError(
        f"no support of size <= {l} meets the residual budget {inst.delta}"
    )
