"""Exact and greedy actuator-selection solvers, plus the brute-force sparse
variable-selection solver they reduce to.

The exact solver enumerates node subsets by increasing cardinality and
returns the lexicographically first feasible set, so its answer has provably
minimal size.  The greedy solver adds one node at a time, always the node
whose addition shrinks the residual most; because the underlying
distance-to-subspace objective is not supermodular, greedy can stall or
overshoot the optimum, and its result is reported honestly (it may be
infeasible, and its ``optimal`` flag is always False).  Both decide each node
set they return by the rule of :func:`reachkit.system.is_feasible`; variable
selection and the reduction's backward map fit supports with
:func:`fit_support`.

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
of ``S``.  The exact solver evaluates a subset exactly when the mass off its
reach is below ``4 feas_rel**2``, in the order of the full scan, and reaches
those subsets without visiting the others.  The mass off a mask is summed
node by node in index order over nonnegative floats, so in floating point
too it can only grow as the mask shrinks.  A lexicographic depth-first
search within each cardinality therefore drops a prefix when the prefix
together with every later candidate already fails the test: no subset below
it passes.  The last node of a set is not searched for.  Call a node
*heavy* when its own squared entry is ``>= 4 feas_rel**2``; a set whose
reach misses a heavy node fails the test on that entry alone.  So the last
node is taken among the nodes that reach the lowest heavy node the prefix
misses (its ``LinearSystem.reached_by`` mask, built on first use), and only
those that reach every heavy node the prefix misses get the test; after one
fails it, the scan stops once the prefix together with every later node
fails too.  Nothing is kept from one prefix to the next.  ``nodes_pruned``
is the number of subsets the full scan visits up to the answer, less those
evaluated.  If the full set fails, nothing is evaluated.
The greedy solver scans candidates in index order and, once the round has a
lead (its least value so far), skips one whose bound (the mass off the reach
of the selected nodes and the candidate together) exceeds the lead's
verdict by more than ``2 feas_rel``.  Both margins hold while the
computed Krylov basis leaks less than ``feas_rel`` off ``R(S)`` (observed:
about ``1e-13``), so every skipped set is one that
:func:`reachkit.system.is_feasible` would reject or that greedy would not
pick, and the answers are those of the unpruned scans.

A greedy candidate's value is its residual over the offset scale, squared
(``residual_sq / offset_scale**2``, ``inf`` once ``residual_sq`` overflows).
Each round keeps one table of verdicts: node ``i`` to the
:func:`reachkit.system.is_feasible` verdict on ``selected + [i]`` and its
Krylov basis, taken at most once a round.  The winner is read off the table:
the least ``residual_sq``, the smallest node among equal ones.  The scan
values candidates by an estimate.  For a general ``B`` that is the verdict.
For a node-local ``B`` (``LinearSystem.node_local``) let ``Q_S`` be the
winner's basis of the round before (none in the first round), ``r`` the
scaled offset's residual off it, and ``covered`` the reach of the selected
nodes.  An *inert* candidate reaches neither the offset's support nor
``covered``: its Krylov space is orthogonal to ``r``, so its value is
``||r||**2``.  A *sink* reaches only itself, keeps its row of ``B`` through
the first-block cut (:func:`reachkit.system.first_block_kept`) and lies
outside ``covered``: its Krylov space is its own axis ``e_i``, orthogonal to
``Q_S``, so its value is ``||r||**2 - r_i**2``.  Neither takes a Krylov build
or an SVD.  Any other candidate is valued on its node's basis
:func:`reachkit.system.reachability_matrix` ``(sys, [i])``, kept for the
call (up to ``linalg.STACK_ENTRIES`` floats of them; a node past that is
built again when needed), and projected twice off ``Q_S`` with one small
SVD (:func:`reachkit.linalg.extend_basis`) when there is a ``Q_S``.  In
the first round there is none, so such a value is the one-node verdict's
own: the verdict is taken at once, on the kept basis.  An estimate spans
the reachable space of ``S + {i}`` in exact arithmetic only: the Krylov build of ``S + {i}`` drops
directions under ``rank_rel ||A||_F`` and may keep fewer or more of them, so
an estimate can lie far from its verdict either way.  So estimates only
choose the lead, and two rules keep the answer that of the verdicts.  A skip
rests on the lead's verdict, taken once a bound exceeds the lead's bound by
more than ``2 feas_rel`` (a verdict is at least its bound), and the last
lead is judged.  Every valued candidate whose bound is within ``2 feas_rel``
of the least verdict is judged.  A skipped or unjudged candidate's verdict
then lies above one in the table, so the nodes, ``residual_sq`` and
``feasible`` are those of the unpruned scan, under the leak margin above.
The counts are those of a scan on verdicts for a general ``B``; for a
node-local ``B`` the estimates choose the lead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb, inf
from typing import Iterator, Sequence

import numpy as np

from . import linalg, setfun, system
from .errors import CapacityError, InfeasibleError
from .linalg import (
    DEFAULT_TOL, Tolerance, as_count, as_matrix, as_vector, column_stacks,
    dist_sq_to_basis, dist_sq_to_bases, extend_basis, lattice_walk, range_bases,
    subset_stacks, unit_columns,
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
    reaching feasibility.  ``nodes_explored`` counts the candidates the
    index-order scan values: node subsets decided by
    :func:`reachkit.system.is_feasible` for the exact solver, additions
    valued for the greedy one (see the module docstring); ``nodes_pruned``
    counts the candidates the structural bound ruled out without a value.
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


def _sets_through(S: Sequence[int], n: int) -> int:
    """How many node sets the cardinality-ordered scan visits up to and
    including the 0-based sorted ``S``: every set of size at most
    ``k = len(S)``, less the ``C(n - 1 - S[p], k - p)`` sets of size ``k``
    after ``S`` that first differ from it at each position ``p``."""
    k = len(S)
    after = sum(comb(n - 1 - c, k - p) for p, c in enumerate(S))
    return sum(comb(n, s) for s in range(k + 1)) - after


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
    lexicographically least witness of it.  A subset is evaluated exactly
    when the squared mass of the scaled offset off its structural reach is
    below ``4 feas_rel**2``; the search reaches those subsets in scan order
    without visiting the others (see the module docstring), and
    ``nodes_pruned`` counts the subsets scanned but not evaluated.  Systems
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
    # a set whose reach misses a heavy node fails the test on that node alone
    weights = sys._offset_weights[1]
    heavy = sum(1 << j for j, w in enumerate(weights) if w >= prune_at)

    def passing(k: int) -> Iterator[tuple[int, ...]]:
        """The 0-based k-subsets that pass the test, in lexicographic order:
        a depth-first search that drops a prefix when it fails the test
        together with every later node, and takes its last node among the
        nodes that reach the lowest heavy node the prefix misses, testing
        those that reach every heavy node it misses."""
        if k == 0:
            if off(0) < prune_at:
                yield ()
            return
        chosen: list[int] = []  # the current prefix
        covered = [0]  # covered[p]: the reach of chosen[:p]
        j = 0  # next candidate to extend the prefix with
        while True:
            need = k - len(chosen)
            if need == 1:
                prefix = covered[-1]
                left = heavy & ~prefix
                # the nodes that reach the lowest heavy node left, or every
                # node when none is left
                rest = sys.reached_by[(left & -left).bit_length() - 1] if left else (1 << n) - 1
                rest = rest >> j << j
                while rest:
                    low = rest & -rest
                    rest ^= low
                    i = low.bit_length() - 1
                    if masks[i] & left != left:
                        continue  # it misses another heavy node
                    if off(prefix | masks[i]) < prune_at:
                        yield (*chosen, i)
                    elif off(prefix | later[i + 1]) >= prune_at:
                        break  # no later node completes the prefix either
            elif j <= n - need and off(covered[-1] | later[j]) < prune_at:
                chosen.append(j)
                covered.append(covered[-1] | masks[j])
                j += 1
                continue
            if not chosen:
                return
            j = chosen.pop() + 1
            covered.pop()

    explored = 0
    # when even every node together fails the test, every set does
    sizes = range(kmax + 1) if off(later[0]) < prune_at else ()
    for k in sizes:
        for S in passing(k):
            explored += 1
            nodes = tuple(i + 1 for i in S)
            verdict = is_feasible(sys, nodes, tol)
            if verdict.feasible:
                return SolveResult(
                    nodes=nodes,
                    cardinality=k,
                    residual_sq=verdict.residual_sq,
                    feasible=True,
                    optimal=True,
                    nodes_explored=explored,
                    nodes_pruned=_sets_through(S, n) - explored,
                )
    if budget is not None and kmax < n:
        raise InfeasibleError(
            f"no feasible actuated set of cardinality <= {kmax} (budget exhausted)"
        )
    raise InfeasibleError("transfer is infeasible even with every node actuated")


def _sinks(sys: LinearSystem, tol: Tolerance) -> int:
    """Bitmask of the nodes whose Krylov space alone is their own axis: they
    reach only themselves and their row of ``B`` survives the first-block
    cut (:func:`reachkit.system.first_block_kept`)."""
    kept = system.first_block_kept(sys, tol).tolist()
    return sum(1 << j for j, mask in enumerate(sys.reach) if mask == 1 << j and kept[j])


def _closed_form(
    sys: LinearSystem, sinks: int, Q_S: np.ndarray | None, covered: int
):
    """Values of a greedy round's inert and sink candidates, for a
    node-local ``B``, without a Krylov build or an SVD (see the module
    docstring).  ``Q_S`` is the basis of the selected nodes (None when there
    are none), ``covered`` their reach, and ``sinks`` the bitmask of the nodes
    whose Krylov space alone is their own axis.  Returns a function of the
    1-based node that gives its value, or None for any other candidate."""
    r = sys.scaled_offset
    if Q_S is not None:
        r = r - Q_S @ (Q_S.T @ r)
    total, sq = float(r @ r), (r * r).tolist()
    seen = sys._offset_weights[0] | covered
    reach, scale = sys.reach, sys.offset_scale

    def value(i: int) -> float | None:
        bit = 1 << (i - 1)
        if not reach[i - 1] & seen:
            v = total
        elif sinks & bit and not covered & bit:
            v = max(total - sq[i - 1], 0.0)
        else:
            return None
        # residual_sq / scale**2, which is inf once residual_sq overflows
        return v if v * scale * scale < inf else inf

    return value


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
    Candidates whose structural bound cannot beat the verdict on the round's
    least value so far are skipped unvalued and counted in ``nodes_pruned``.
    Each round keeps one table of verdicts, taken once per candidate, and reads
    its winner off it.  For a general ``B`` every valued candidate is judged.
    For a node-local ``B`` candidates are valued in closed form where their
    Krylov space is known (nodes that reach neither the offset nor the selected
    nodes, and nodes that reach only themselves), and otherwise from per-node
    Krylov bases; beyond the first round, whose node-basis values are
    verdicts, only the candidates that set a skip or that can win are
    judged (see the module docstring).  The nodes and residual are those of
    valuing every candidate by ``is_feasible``.
    """
    n = sys.n
    iters = n if max_iters is None else min(as_count(max_iters, "max_iters"), n)
    reach = sys.reach
    off = sys.off_reach_sq
    support = sys._offset_weights[0]
    scale = sys.offset_scale
    slack = GREEDY_SKIP_FACTOR * tol.feas_rel
    local = sys.node_local
    sinks = _sinks(sys, tol) if local else 0
    kept: dict[int, np.ndarray] = {}  # node -> the Krylov basis of the node alone
    room = linalg.STACK_ENTRIES  # floats of node bases kept; later ones are rebuilt

    def node_basis(i: int) -> np.ndarray:
        nonlocal room
        K = kept.get(i)
        if K is None:
            K = system.reachability_matrix(sys, [i], tol=tol)
            if K.size <= room:
                kept[i], room = K, room - K.size
        return K

    def judge(i: int) -> float:
        """Take the verdict on ``selected + [i]``, once a round, and return
        its value."""
        if i not in verdicts:
            if local and not selected:
                Q = node_basis(i)
            else:
                Q = system.reachability_matrix(sys, selected + [i], tol=tol)
            verdicts[i] = system._verdict(sys, Q, tol), Q
        return verdicts[i][0].residual_sq / scale / scale

    covered = 0  # reach of the selected nodes
    selected: list[int] = []
    Q_S = None  # the basis of selected
    current = is_feasible(sys, selected, tol)
    explored = skipped = 0
    while not current.feasible and len(selected) < iters:
        verdicts: dict[int, tuple[system.FeasibilityResult, np.ndarray]] = {}
        base = off(covered)  # the bound of a candidate that adds no support
        # the round's candidates in index order, with their structural bounds
        bounds = {
            i: off(covered | reach[i - 1]) if reach[i - 1] & support & ~covered else base
            for i in range(1, n + 1) if i not in selected
        }
        value = _closed_form(sys, sinks, Q_S, covered) if local else judge
        # skip a candidate whose bound exceeds the verdict of the lead (the
        # least value so far) by the slack; that verdict is at least its bound
        lead = lead_value = None
        for i, bound in bounds.items():
            if lead is not None and bound > bounds[lead] + slack and bound > judge(lead) + slack:
                skipped += 1
                continue
            v = value(i)
            if v is None and not selected:
                # valued on its node basis alone, which is the verdict's
                v = judge(i)
            elif v is None:
                # the columns of a node basis are orthonormal: sigma_max is 1
                Q = extend_basis(Q_S, node_basis(i), tol, scale=1.0)
                with np.errstate(over="ignore"):
                    v = dist_sq_to_basis(sys.offset, Q) / scale / scale
            explored += 1
            if lead is None or v < lead_value:
                lead, lead_value = i, v
        judge(lead)
        # the winner's verdict is at most the least one judged and at least
        # its structural bound: judge every candidate so bounded (a skipped
        # one's bound exceeds a judged verdict by the slack)
        least = min(map(judge, verdicts)) + slack
        for i, bound in bounds.items():
            if bound <= least:
                judge(i)
        best_node = min(verdicts, key=lambda i: (verdicts[i][0].residual_sq, i))
        best, Q_S = verdicts[best_node]
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
