"""Distance-to-subspace set functions and brute-force structure checks.

Given a target vector ``v`` and a column dictionary ``M``, the set function
maps a column subset ``S`` to ``dist(v, Range(M(S)))**c`` where ``M(S)`` keeps
only the selected columns.  The function is always non-increasing (adding a
column can only shrink the distance), but it is *not* supermodular: marginal
decreases can grow as the base set grows, and :func:`check_supermodular`
hunts for an explicit witness of that among the single-column decreases
``f(A) - f(A + x)`` of all ``2**l`` column subsets.

The kernel value of a subset is the batched SVD of
:func:`reachkit.linalg.dist_sq_to_ranges` on a stack of equal-size subsets,
and :func:`evaluate` is the same kernel on a stack of one, so the two agree
bit for bit.  Below ``l = 7`` (a cost rule fitted to timings) the checks
take every value from the kernel.  From there on they walk the subset
lattice one size at a time instead, as far as
:func:`reachkit.linalg.lattice_walk` goes, the walk that screens
:func:`reachkit.solvers.varsel_exact`'s supports too: the child ``S + x``,
with ``x`` above every member of ``S``, appends one twice-projected unit
column to the orthonormal basis of ``S``, updates the residual of ``v`` and
multiplies the Gram determinant of ``S`` (columns scaled to unit norm) by
the squared norm ``rho**2`` of that projected column.  A lattice value is
used only where it is certified:

* ``sigma_min(M(S))**2 >= det G_S / sum_{i in S} det G_{S-i}`` (an
  eigenvalue bound) must clear ``(SAFETY * rank_rel * ||M(S)||_F)**2``, so the
  kernel keeps every column of ``S`` and both compute the same distance;
  every ``S - i`` must be certified too, or the walk's basis of ``S`` may
  rest on a step that lost orthogonality;
* a subset of more than ``m`` columns gets value 0 when it holds a certified
  ``m``-column subset whose bound clears ``SAFETY * rank_rel * ||M(S)||_F``:
  by interlacing its range is all of ``R^m`` for the kernel too;
* a determinant that overflows or underflows certifies nothing, and
  neither does a subset on a level the walk does not reach.

A certified value lies within ``ALLOW * eps * kappa * ||v||**2 * (m + 1)`` of
the kernel's in squared distance, ``kappa = ||M(S)||_F / sigma_min`` bound,
mapped through ``d -> d**(c/2)`` as an interval.  Each monotone and local test
whose lattice margin exceeds the summed allowances of its subsets is decided
as the kernel would decide it; the subsets of every other test, and the
uncertified ones, get kernel values (:func:`_needs_kernel`).  The checks then
run on that mixed table exactly as on the kernel's, so their verdicts and
witnesses are the kernel table's, and a witness's ``lhs`` and ``rhs`` are
differences of kernel values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import CapacityError
from .linalg import (
    DEFAULT_TOL, Tolerance, as_count, as_indices, as_matrix, as_vector, dist_sq_to_ranges,
    lattice_walk, subset_stacks, unit_columns,
)

# Both checks evaluate f on all 2^l column subsets: too many past this cap.
DEFAULT_BRUTE_FORCE_CAP = 12

# A reported violation must beat float noise by this absolute margin.
VIOLATION_SLACK = 1e-9

# The lattice walk certifies a subset when its smallest singular value is
# provably at least SAFETY * rank_rel * ||M(S)||_F, and then trusts its value
# to ALLOW * eps * kappa * ||v||^2 * (m + 1) of the kernel's.  The
# variable-selection screen of reachkit.solvers reads both at call time.
SAFETY = 1e3
ALLOW = 64.0
_EPS = float(np.finfo(float).eps)

# Ground sets below this size keep the whole kernel table (the cost rule).
_LATTICE_MIN_L = 7


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


def _lattice_table(fn: ColumnSelectionFunction, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    """Lattice values of ``fn`` on every bitmask, NaN where uncertified, and
    a bound on how far each lies from the kernel's value.

    :func:`reachkit.linalg.lattice_walk` gives the squared distance ``d2``
    and the certified bound ``sig2`` on ``sigma_min**2`` (NaN where
    uncertified) of every subset of at most ``m`` columns on the levels it
    reaches, and both stay NaN on the others; ``w`` holds the squared column
    norms relative to the largest.
    """
    v, M = fn.v, fn.M
    m, l = M.shape
    N, w = unit_columns(M)
    size = 1 << l
    d2 = np.full(size, np.nan)
    sig2 = np.full(size, np.nan)
    # the empty set: det G = 1 over an empty sum
    d2[0], sig2[0] = v @ v, np.inf
    for masks, _, level_d2, level_sig2, _ in lattice_walk(v, N, w, SAFETY * tol.rank_rel):
        d2[masks] = level_d2
        sig2[masks] = level_sig2
    # frob2 = ||M(S)||_F^2 in units of the largest squared column norm
    frob2 = np.zeros(size)
    count = np.zeros(size, dtype=np.intp)
    for i in range(l):
        frob2[1 << i:2 << i] = frob2[:1 << i] + w[i]
        count[1 << i:2 << i] = count[:1 << i] + 1
    floor2 = (SAFETY * tol.rank_rel) ** 2 * frob2
    # an m-column subset that certifies rank m for a superset makes the
    # superset's span all of R^m (interlacing), so its distance is 0
    best = np.where((count == m) & (sig2 >= floor2), sig2, 0.0)
    for i in range(l):
        view = best.reshape(-1, 2, 1 << i)
        np.maximum(view[:, 1], view[:, 0], out=view[:, 1])
    wide = count > m
    sig2[wide] = best[wide]
    d2[wide] = 0.0
    certified = sig2 >= floor2
    kappa = np.maximum(1.0, np.sqrt(frob2 / sig2))
    vv = float(v @ v)
    allow = ALLOW * _EPS * (m + 1) * vv * kappa
    e = fn.c / 2.0
    values = d2 ** e
    err = np.maximum((d2 + allow) ** e - values, values - np.maximum(d2 - allow, 0.0) ** e)
    # the float rounding of the checks' own sums and comparisons
    err += 4.0 * _EPS * (vv ** e + VIOLATION_SLACK)
    # an allowance that overflowed, or is 0/0 for columns that are all zero,
    # certifies nothing
    values[~(certified & np.isfinite(err))] = np.nan
    return values, err


def _halves(table: np.ndarray, y: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of an ``(l, 2**l)`` table at the bases ``A`` without ``y`` and
    at ``A + y``, each shaped ``(l, 2**l >> (y + 1), 2**y)``."""
    split = table.reshape(len(table), -1, 2, 1 << y)
    return split[:, :, 0], split[:, :, 1]


def _needs_kernel(values: np.ndarray, err: np.ndarray, local: bool) -> np.ndarray:
    """Bitmasks that need kernel values: the uncertified ones and the four
    subsets of every test whose lattice margin is inside its allowance (two
    for a monotone test)."""
    need = np.isnan(values)
    drops = _drop_table(np.where(need, 0.0, values))
    # -inf where x is in A: no test there can be close, and the local tests
    # with x = y are excluded along with them
    spread = _pair_table(np.where(need, np.inf, err), np.add, -np.inf)
    l = len(drops)
    close = np.abs(drops + VIOLATION_SLACK) <= spread
    xs, bases = np.nonzero(close)
    need[bases] = need[bases | 1 << xs] = True
    # a local test's margin f(A) - f(A+x) - f(A+y) + f(A+x+y) is symmetric
    # in x and y, so each pair is screened once, with x > y
    for y in range(l - 1 if local else 0):
        (lo, hi), (slo, shi) = _halves(drops[y + 1:], y), _halves(spread[y + 1:], y)
        gap = lo - hi
        gap += VIOLATION_SLACK
        close = np.abs(gap, out=gap) <= slo + shi
        if close.any():
            xs, high, low = np.nonzero(close)
            xs += y + 1
            bases = high << (y + 1) | low
            need[bases] = need[bases | 1 << y] = True
            need[bases | 1 << xs] = need[bases | 1 << xs | 1 << y] = True
    return need


def _fill(fn: ColumnSelectionFunction, values: np.ndarray, masks: np.ndarray | None,
          tol: Tolerance) -> None:
    """Write kernel values of ``fn`` into ``values`` at ``masks`` (at every
    bitmask when None), one stacked kernel call per chunk of equal-size
    subsets."""
    l = fn.ground_size
    masks = np.arange(1 << l) if masks is None else masks
    bits = masks[:, None] >> np.arange(l) & 1
    sizes = bits.sum(axis=1)
    # the members of every subset, row by row, the smallest subsets first
    cols = np.nonzero(bits[np.argsort(sizes, kind="stable")])[1]
    end = 0
    for k, count in enumerate(np.bincount(sizes).tolist()):
        start, end = end, end + k * count
        for chunk, stack in subset_stacks(fn.M, cols[start:end].reshape(count, k)):
            values[(1 << chunk).sum(axis=1)] = _values(fn, stack, tol)


def _value_table(fn: ColumnSelectionFunction, tol: Tolerance,
                 local: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Values of ``fn`` over bitmasks (bit ``k - 1`` is column ``k``) and
    which of them are kernel values (None when all are).

    A lattice value stands only where its certified allowance already
    decides every monotone test it is in, and every local test too when
    ``local``; so each check decides as it would on the kernel's table.
    """
    if fn.ground_size < _LATTICE_MIN_L:
        values = np.empty(1 << fn.ground_size)
        _fill(fn, values, None, tol)
        return values, None
    with np.errstate(all="ignore"):
        values, err = _lattice_table(fn, tol)
        kernel = _needs_kernel(values, err, local)
    _fill(fn, values, np.flatnonzero(kernel), tol)
    return values, kernel


def _pair_table(table: np.ndarray, op: np.ufunc, inside: float) -> np.ndarray:
    """``op(table[A], table[A + x])`` at ``[x, A]`` over bitmasks ``A``, and
    ``inside`` where ``x`` is in ``A``."""
    l = len(table).bit_length() - 1
    out = np.full((l, len(table)), inside)
    for x in range(l):
        pair = table.reshape(-1, 2, 1 << x)
        op(pair[:, 0], pair[:, 1], out=out[x].reshape(-1, 2, 1 << x)[:, 0])
    return out


def _drop_table(values: np.ndarray) -> np.ndarray:
    """``drops[x, A] = f(A) - f(A + x)`` over bitmasks ``A``, zero where
    ``x`` is in ``A``."""
    return _pair_table(values, np.subtract, 0.0)


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
    values, _ = _value_table(fn, tol, local=False)
    return not (_drop_table(values) < -VIOLATION_SLACK).any()


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
    values, kernel = _value_table(fn, tol, local=True)
    drops = _drop_table(values)
    monotone = not (drops < -VIOLATION_SLACK).any()
    l, size = drops.shape
    # Base A violates if drops[x, A] < drops[x, A + y] for some x != y; when
    # y lies in A both sides are equal, so only the bases without y are
    # tested.  first_y[A] and first_x[A] record A's first violating pair, y
    # then x ascending.
    first_y = np.full(size, -1)
    first_x = np.zeros(size, dtype=int)
    for y in range(l):
        lo, hi = _halves(drops, y)
        local = lo < hi - VIOLATION_SLACK
        local[y] = False
        fy = first_y.reshape(-1, 2, 1 << y)[:, 0]
        hit = (fy < 0) & local.any(axis=0)
        fy[hit] = y
        first_x.reshape(-1, 2, 1 << y)[:, 0][hit] = local[:, hit].argmax(axis=0)
    violation = None
    violated = np.flatnonzero(first_y >= 0)
    if len(violated):
        # the largest base, and among those the lexicographically least
        # member tuple: the one holding the lowest bit where two differ, so
        # the largest mask once its bits are reversed
        bits = violated[:, None] >> np.arange(l) & 1
        sizes = bits.sum(axis=1)
        largest = sizes == sizes.max()
        reversed_masks = (bits[largest] << np.arange(l)[::-1]).sum(axis=1)
        base = int(violated[largest][reversed_masks.argmax()])
        y, x = int(first_y[base]), int(first_x[base])
        witness = np.array([base, base | 1 << x, base | 1 << y, base | 1 << x | 1 << y])
        if kernel is not None:
            _fill(fn, values, witness[~kernel[witness]], tol)
        violation = Violation(
            subset=_members(base),
            superset=_members(base | 1 << y),
            element=x + 1,
            lhs=float(values[base] - values[base | 1 << x]),
            rhs=float(values[base | 1 << y] - values[base | 1 << x | 1 << y]),
        )
    return SetFunctionReport(
        monotone_nonincreasing=monotone,
        supermodular=violation is None,
        violation=violation,
    )
