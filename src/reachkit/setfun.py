"""Distance-to-subspace set functions and brute-force structure checks.

Given a target vector ``v`` and a column dictionary ``M``, the set function
maps a column subset ``S`` to ``dist(v, Range(M(S)))**c`` where ``M(S)`` keeps
only the selected columns.  The function is always non-increasing (adding a
column can only shrink the distance), but it is *not* supermodular: marginal
decreases can grow as the base set grows, and :func:`check_supermodular`
hunts for an explicit witness of that among the single-column decreases
``f(A) - f(A + x)`` of all ``2**l`` column subsets.  Their values are
computed one subset size at a time, with one batched SVD per chunk of
equal-size subsets (:func:`reachkit.linalg.dist_sq_to_ranges`), and
:func:`evaluate` is the same kernel on a stack of one, so the table and
:func:`evaluate` agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import CapacityError
from .linalg import (
    DEFAULT_TOL, Tolerance, as_count, as_indices, as_matrix, as_vector, column_stacks,
    dist_sq_to_ranges,
)

# Both checks evaluate f on all 2^l column subsets: too many past this cap.
DEFAULT_BRUTE_FORCE_CAP = 12

# A reported violation must beat float noise by this absolute margin.
VIOLATION_SLACK = 1e-9


@dataclass(frozen=True)
class ColumnSelectionFunction:
    """Set function ``S -> dist(v, Range(M(S)))**c`` over columns of ``M``.

    ``c`` defaults to 2 (squared distance); any positive exponent is allowed
    and none of them restores supermodularity.
    """

    v: np.ndarray
    M: np.ndarray
    c: float = 2.0

    def __post_init__(self) -> None:
        v = as_vector(self.v, name="v")
        M = as_matrix(self.M, name="M")
        if M.shape[0] != v.shape[0]:
            raise ValueError(
                f"v has length {v.shape[0]} but M has {M.shape[0]} rows"
            )
        c = float(self.c)
        if not (np.isfinite(c) and c > 0.0):
            raise ValueError(f"exponent c must be finite and positive, got {self.c!r}")
        # f never increases, so f({}) = ||v||**c, computed as evaluate does,
        # bounds every value
        try:
            top = float(v @ v) ** (c / 2.0)
        except OverflowError:
            top = np.inf
        if not np.isfinite(top):
            raise ValueError(f"||v||**c overflows a float with exponent c = {c!r}")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "c", c)

    @property
    def ground_size(self) -> int:
        return self.M.shape[1]


@dataclass(frozen=True)
class Violation:
    """A witnessed failure of the diminishing-decrease inequality.

    ``lhs = f(subset) - f(subset + element)`` fell strictly below
    ``rhs = f(superset) - f(superset + element)`` although
    ``subset <= superset`` and ``element`` lies outside ``superset``.
    """

    subset: tuple[int, ...]
    superset: tuple[int, ...]
    element: int
    lhs: float
    rhs: float


@dataclass(frozen=True)
class SetFunctionReport:
    monotone_nonincreasing: bool
    supermodular: bool
    violation: Violation | None


def evaluate(
    fn: ColumnSelectionFunction, S: Iterable[int], tol: Tolerance = DEFAULT_TOL
) -> float:
    """Value of the set function on column subset ``S`` (1-based indices).

    The empty selection denotes the subspace ``{0}``, so ``f({}) = ||v||**c``.
    Raises ValueError if an index is not an integer or falls outside
    ``1..l`` (:func:`reachkit.linalg.as_indices`).
    """
    cols = as_indices(S, fn.ground_size, "column")
    # fn.v and fn.M were validated when fn was built
    return float(_values(fn, fn.M[:, [k - 1 for k in cols]][None], tol)[0])


def _values(fn: ColumnSelectionFunction, stack: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Values of ``fn`` on the column subsets whose submatrices of ``fn.M``
    form the ``(b, m, k)`` stack."""
    # Python's float power, as the bound in ColumnSelectionFunction takes it;
    # numpy's vectorized power can differ from it in the last bit
    e = fn.c / 2.0
    return np.array([d ** e for d in dist_sq_to_ranges(fn.v, stack, tol.rank_rel).tolist()])


def _check_cap(fn: ColumnSelectionFunction, cap: int) -> None:
    if fn.ground_size > as_count(cap, "cap"):
        raise CapacityError(
            f"ground set of size {fn.ground_size} is too large for brute force "
            f"(cap {cap})"
        )


def _members(mask: int) -> tuple[int, ...]:
    """1-based columns of a bitmask subset (bit ``k - 1`` is column ``k``)."""
    return tuple(k + 1 for k in range(mask.bit_length()) if mask >> k & 1)


def _drop_table(fn: ColumnSelectionFunction, tol: Tolerance) -> np.ndarray:
    """``drops[x, A] = f(A) - f(A + x)`` over bitmasks ``A`` (bit ``k - 1`` is
    column ``k``), zero where ``x`` is in ``A``; the values are filled one
    subset size at a time, one stacked kernel call per chunk."""
    l = fn.ground_size
    values = np.empty(1 << l)
    for k in range(l + 1):
        for idx, stack in column_stacks(fn.M, k):
            values[(1 << idx).sum(axis=1)] = _values(fn, stack, tol)
    masks = np.arange(1 << l)
    return values - values[masks | 1 << np.arange(l)[:, None]]


def check_monotone(
    fn: ColumnSelectionFunction,
    cap: int = DEFAULT_BRUTE_FORCE_CAP,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """True iff the function never increases when a column is added.

    Checks every single-column extension, which is equivalent to checking all
    nested pairs.  A failure here indicates a kernel bug: projection geometry
    guarantees monotonicity for every column-selection function.
    """
    _check_cap(fn, cap)
    return not (_drop_table(fn, tol) < -VIOLATION_SLACK).any()


def check_supermodular(
    fn: ColumnSelectionFunction,
    cap: int = DEFAULT_BRUTE_FORCE_CAP,
    tol: Tolerance = DEFAULT_TOL,
) -> SetFunctionReport:
    """Exhaustively test the diminishing-decrease property and report the
    first violation found.

    Supermodularity requires ``f(A) - f(A + x) >= f(A') - f(A' + x)`` for
    every nested pair ``A <= A'`` and ``x`` outside ``A'``.  Summing along a
    chain shows this equals the local condition with ``A' = A + y``
    (Schrijver, *Combinatorial Optimization*, ch. 44), which is what is
    checked, so a witness superset is the subset plus one element.  The
    witness is the first violating triple with bases ordered from largest to
    smallest cardinality (lexicographic within a size), then ``y`` ascending,
    then ``x`` ascending, so reports are reproducible.  Each local step must
    beat an absolute slack of ``1e-9`` so a reported violation exceeds float
    noise; a gap that beats it only when summed along a chain is not found.
    """
    _check_cap(fn, cap)
    drops = _drop_table(fn, tol)
    monotone = not (drops < -VIOLATION_SLACK).any()
    l, size = drops.shape
    masks = np.arange(size)
    # Base A violates if drops[x, A] < drops[x, A + y] for some x != y; when
    # x or y lies in A both sides are equal, so no mask is needed.  first_y[A]
    # and first_x[A] record A's first violating pair, y then x ascending.
    first_y = np.full(size, -1)
    first_x = np.zeros(size, dtype=int)
    for y in range(l):
        local = drops < drops[:, masks | 1 << y] - VIOLATION_SLACK
        local[y] = False
        hit = (first_y < 0) & local.any(axis=0)
        first_y[hit] = y
        first_x[hit] = local[:, hit].argmax(axis=0)
    violation = None
    violated = np.flatnonzero(first_y >= 0).tolist()
    if violated:
        base = min(violated, key=lambda mask: (-bin(mask).count("1"), _members(mask)))
        y, x = int(first_y[base]), int(first_x[base])
        violation = Violation(
            subset=_members(base),
            superset=_members(base | 1 << y),
            element=x + 1,
            lhs=float(drops[x, base]),
            rhs=float(drops[x, base | 1 << y]),
        )
    return SetFunctionReport(
        monotone_nonincreasing=monotone,
        supermodular=violation is None,
        violation=violation,
    )
