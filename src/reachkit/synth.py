"""Constructive feasibility checks: minimum-energy input synthesis and ODE
simulation.

Feasibility of a transfer is a rank statement; this module backs it up with
an actual input signal.  On the uniform grid ``tau_0 < ... < tau_N`` with
spacing ``h = (t1 - t0) / N``, the input response is
``H[j] = E^(N - j) M(S) B`` with ``E = exp(A h)``, restricted to the
nonzero columns of ``M(S) B`` (:func:`reachkit.system.input_columns`).
One matrix exponential is formed per call, the half step
``exp(A h/2)`` that RK4 needs at the interval midpoints, and ``E`` is its
square.  The reachability Gramian is the Simpson quadrature
``W = h sum_j c_j H[j] H[j]^T``, with ``c_j`` the Simpson weights (scipy's
``simpson`` applied to the unit vectors, all positive), computed once per
grid size and cached.
The minimum-energy open-loop input steering the system to the target is
``H[j]^T W^+ w``.

Two paths compute ``W`` and the input, and :func:`_gramian` picks one per
call by a cost rule on the grid size, the number of input columns and ``n``
(see :func:`_stack_is_cheaper`).  With few input columns, the stack ``H``
itself is filled by doubling passes and ``W`` is one symmetric product of
its ``sqrt(h c_j)``-weighted rows.  With many, ``W`` is summed without the
stack: the Simpson weights repeat with period 2 away from the ends, so the
middle of the sum is a geometric Lyapunov series in ``E^2``, summed by
binary doubling, and the ends are added by Horner steps
(:func:`_doubling_gramian`); the input is then read off the ``N + 1``
vectors ``E^(N - j)^T W^+ w``, filled by the same doubling passes as the
stack.  A fixed-step RK4 simulation of the actuated dynamics then
independently confirms (or honestly refutes) that the target is hit.  RK4
applied to a linear system is an affine map per interval,
``x_{j+1} = Phi x_j + d_j``; the stage formula applied once to unit rows
gives ``Phi`` and the three input maps, every ``d_j`` is one product with
them, and the states are summed by a Brent-Kung scan.  On the doubling path
the three interval inputs are fixed linear images of the vector
``v_(N-j-1)``, so ``d_j = v_(N-j-1)^T D`` with one ``n x n`` map ``D``,
and the stage formula runs on ``2 n`` rows that give ``Phi^T`` and ``D``.

The input response ``exp(A t) M(S) B`` lives on the rows of the structural
reach ``R(S)`` (:func:`reachkit.system.reached_rows`): the span of the axes
``e_j``, ``j`` in ``R(S)``, holds every nonzero row of ``M(S) B`` and is
mapped into itself by ``A``, so ``A[i, j] = 0`` for ``j`` in ``R(S)`` and
``i`` outside it.  The Gramian, its pseudoinverse and the input therefore
only involve the ``k = |R(S)|`` reached rows: the one matrix exponential is
that of the ``k x k`` block ``A[R, R]``, the Gramian is ``k x k`` (zero
elsewhere in ``n x n``), the path is picked for ``k`` rows, and on the
doubling path the stage formula runs on ``n + k`` rows, whose last ``k``
give a ``k x n`` drive map.  The RK4 check still simulates all ``n`` states
on the full ``A``.  When ``R(S)`` is every node (or empty) nothing is
gathered and the arithmetic is the full-``n`` one.

A result that cannot be computed in floating point raises ValueError rather
than coming back as NaN: a Gramian that is not finite (the input response
overflows over ``[t0, t1]``), or an RK4 terminal state that is not finite
(the step ``h`` lies outside RK4's stability region for the drift, or the
states overflow; a finer grid may cure it).  The terminal error is a norm
taken after dividing by the largest entry, so it does not overflow for
states near the float range.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.integrate import simpson

from .linalg import DEFAULT_TOL, Tolerance, as_count, mat_exp
from .system import LinearSystem, _peak_norm, input_columns, reached_rows


@dataclass(frozen=True)
class SynthesisResult:
    """Sampled input and state trajectories for one synthesized transfer.

    ``grid`` holds ``N + 1`` strictly increasing times from ``t0`` to ``t1``;
    ``u_samples`` and ``x_samples`` hold one input/state vector per grid
    point.  ``terminal_error`` is ``||x(t1) - x1||``, taken after dividing
    by the largest entry, so it is finite wherever the error itself is; large
    values mean the requested target is not reachable under the chosen node
    set, never that the failure was silently smoothed over.
    """

    grid: np.ndarray
    u_samples: np.ndarray
    x_samples: np.ndarray
    terminal_error: float
    gramian_rank: int


# Head length of the Simpson weight template; every composite Simpson rule
# scipy has shipped repeats a period-2 pattern this far from either end.
_SIMPSON_HEAD = 8

# Grid sizes whose Simpson weights are kept; a caller uses one or a few grids,
# and each entry holds N + 1 floats.
_WEIGHT_GRIDS = 8


@functools.lru_cache(maxsize=_WEIGHT_GRIDS)
def _simpson_weights(N: int) -> np.ndarray:
    """Unit-spacing weights ``c`` with ``c @ y == simpson(y, dx=1.0, axis=0)``
    for ``N + 1`` samples.

    They are scipy's own rule applied to the unit vectors, so the odd-``N``
    last-interval correction is whatever the installed scipy uses.  The rule
    is applied to a short grid of the same parity, at most
    ``2 * _SIMPSON_HEAD + 1`` intervals, and the weight pair that starts its
    interior is repeated until the grid has ``N`` intervals, so the weights
    take ``O(N)`` memory where the ``N + 1`` unit vectors would take
    ``O(N^2)``.  They are cached per ``N`` and read-only, since every
    caller shares them.
    """
    M = min(N, 2 * _SIMPSON_HEAD + N % 2)
    short = simpson(np.eye(M + 1), dx=1.0, axis=0)
    head, rest = short[:_SIMPSON_HEAD], short[_SIMPSON_HEAD:]
    c = np.concatenate([head, np.tile(rest[:2], (N - M) // 2), rest])
    c.flags.writeable = False
    return c


_input_columns = input_columns  # still importable from here under this name


# Cost of the doubling path beyond its vector recurrence: _DOUBLING_N3 times
# n^3 flops per bit of N, plus a fixed part worth _DOUBLING_FIXED flops, most
# of it the interpreter overhead of its small products.  Both were fitted to
# timings of the two paths over n = 3..160, r = 1..n and N = 200..4000, with
# one BLAS thread.
_DOUBLING_N3 = 4
_DOUBLING_FIXED = 2**16


def _stack_is_cheaper(N: int, r: int, n: int) -> bool:
    """Whether the response stack costs less than the doubling path.

    The stack fills ``r`` rows per grid point and the doubling path one
    vector, each about ``N n^2`` flops per row, so the stack wins whenever
    ``r = 1`` and otherwise while its ``r - 1`` extra rows cost less than
    the doubling sums.
    """
    return (r - 1) * N * n * n <= _DOUBLING_N3 * n**3 * N.bit_length() + _DOUBLING_FIXED


def _fill_backwards(last: np.ndarray, step: np.ndarray, N: int) -> np.ndarray:
    """The stack ``R`` of ``N + 1`` entries with ``R[N] = last`` and
    ``R[j] = R[j + 1] @ step``.

    ``last`` is one row or a block of rows.  The stack is filled backwards
    by doubling passes: with ``P = step^k``, the ``k`` filled entries give
    the ``k`` before them in one product, ``R[j] = R[j + k] @ P``; then
    ``P`` is squared and ``k`` doubled, so about ``log2 N`` products fill it.
    """
    n = step.shape[0]
    R = np.empty((N + 1, *last.shape))
    R[N] = last
    # R[lo:] holds the k = N + 1 - lo filled entries and step = step^k
    lo, k = N, 1
    while lo > 0:
        start = max(lo - k, 0)
        block = R[start + k :].reshape(-1, n) @ step
        R[start:lo] = block.reshape(R[start:lo].shape)
        lo, k = start, 2 * k
        if lo > 0:
            step = step @ step
    return R


@functools.lru_cache(maxsize=_WEIGHT_GRIDS)
def _periodic_window(N: int) -> tuple[np.ndarray, int, int]:
    """The Simpson weights ``d_i = c_(N - i)``, indexed by the power ``i`` of
    ``E``, and the window ``[lo, hi)`` on which they repeat with period 2.

    ``lo`` and ``hi - lo`` are even and ``d[lo + 2k + b] == d[lo + b]``
    exactly inside the window; outside it lie at most a few entries at each
    end, where scipy's end rules apply.  Cached per ``N``; ``d`` is a
    read-only view of :func:`_simpson_weights`.
    """
    d = _simpson_weights(N)[::-1]
    mid = N // 2 & ~1
    i = np.arange(N + 1)
    off = np.flatnonzero(d != d[mid + i % 2])
    below, above = off[off < mid], off[off > mid]
    lo = below[-1] + 2 - below[-1] % 2 if below.size else 0
    hi = above[0] if above.size else N + 1
    return d, int(lo), int(lo + (hi - lo) // 2 * 2)


def _doubling_gramian(E: np.ndarray, IB: np.ndarray, h: float, N: int) -> np.ndarray:
    """The Simpson Gramian ``h sum_i d_i E^i G E^i^T``, ``G = IB IB^T``,
    without the response stack.

    On the window ``[lo, hi)`` of :func:`_periodic_window` the weights are
    ``p_0, p_1, p_0, ...``, so that part is ``E^lo S_K E^lo^T`` with
    ``S_K = sum_(k < K) F^k G' F^k^T``, ``F = E^2``,
    ``G' = p_0 G + p_1 E G E^T`` and ``K = (hi - lo) / 2``.  ``S_K`` is
    summed by binary doubling over the bits of ``K``,
    ``S_2m = S_m + F^m S_m F^m^T`` and ``S_(m+1) = G' + F S_m F^T``, which
    also yields ``F^K``.  The entries past the window are a Horner sum ``T``
    shifted by ``E^hi = E^lo F^K``, and the entries before it are Horner
    steps around ``S_K + F^K T F^K^T``, so no power of ``E`` is formed per
    index.  The result is symmetrized, so it is exactly symmetric.
    """
    d, lo, hi = _periodic_window(N)
    G = IB @ IB.T

    def horner(Y: np.ndarray, weights: np.ndarray) -> np.ndarray:
        # sum_t weights[t] E^t G E^t^T + E^len Y E^len^T
        for w in weights[::-1]:
            Y = w * G + E @ Y @ E.T
        return Y

    F = E @ E
    G1 = d[lo] * G + d[lo + 1] * (E @ G @ E.T)
    S, P = G1, F  # S_m and F^m for m = 1
    for bit in bin((hi - lo) // 2)[3:]:
        S, P = S + P @ S @ P.T, P @ P
        if bit == "1":
            S, P = G1 + F @ S @ F.T, F @ P
    tail = horner(np.zeros_like(G), d[hi:])
    Y = horner(S + P @ tail @ P.T, d[:lo])
    return (0.5 * h) * (Y + Y.T)


def _reached(sys: LinearSystem, S: Iterable[int]) -> np.ndarray | None:
    """The rows of ``R(S)`` (:func:`reachkit.system.reached_rows`) that the
    synthesis is restricted to, or None where it runs on all ``n`` rows:
    ``R(S)`` is every node, or empty (then ``M(S) B`` has no column)."""
    rows = reached_rows(sys, S)
    return None if rows.size in (0, sys.n) else rows


def _gramian(
    sys: LinearSystem, IB: np.ndarray, N: int, rows: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The Simpson Gramian of the input columns ``IB`` on ``N`` intervals,
    the half step ``exp(A h/2)`` and, on the stack path, the response stack.

    With ``rows`` given, all three are those of the block ``A[rows, rows]``
    with input ``IB[rows]``: for ``rows = R(S)`` the Gramian is the block of
    the full one on ``R(S) x R(S)``, which is zero elsewhere (see the module
    docstring).  The half step is the one matrix exponential formed; the
    step ``E = exp(A h)`` is its square.  :func:`_stack_is_cheaper` picks
    the path for the ``k`` rows.  On the stack path the rows
    ``R[j] = H[j]^T = IB^T E^(N - j)^T`` are filled by
    :func:`_fill_backwards` and the Gramian ``h sum_j c_j H[j] H[j]^T`` is
    one symmetric product of the ``sqrt(h c_j)``-weighted rows with
    themselves; on the doubling path it is :func:`_doubling_gramian` and
    ``R`` is None.  ``N`` is an ``int`` of at least 2.  Raises ValueError
    when the Gramian is not finite.
    """
    A = sys.A
    if rows is not None:
        A, IB = A[np.ix_(rows, rows)], IB[rows]
    n, r = IB.shape
    h = (sys.t1 - sys.t0) / N
    # overflow is caught by the finiteness check, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        half = mat_exp(A, h / 2.0)
        E = half @ half
        if _stack_is_cheaper(N, r, n):
            R = _fill_backwards(IB.T, E.T, N)
            # sqrt needs the Simpson weights positive; Y.T @ Y is a symmetric rank-k product
            Y = (R * np.sqrt(h * _simpson_weights(N))[:, None, None]).reshape((N + 1) * r, n)
            W = Y.T @ Y
        else:
            R = None
            W = _doubling_gramian(E, IB, h, N)
    if not np.all(np.isfinite(W)):
        raise ValueError(
            "reachability Gramian is not finite: the input response "
            "exp(A (t1 - tau)) M(S) B overflows over [t0, t1]"
        )
    return W, half, R


def reach_gramian(sys: LinearSystem, S: Iterable[int], N: int = 1000) -> np.ndarray:
    """Reachability Gramian of the actuated system over ``[t0, t1]``.

    ``W = integral of exp(A (t1 - tau)) M(S) B B^T M(S) exp(A^T (t1 - tau))``
    evaluated by composite Simpson quadrature on ``N`` grid intervals, on
    the path :func:`_gramian` picks: with few input columns one symmetric
    product of the weighted rows of the input response stack, with many the
    same quadrature summed by doubling without the stack
    (:func:`_doubling_gramian`).  It is computed on the ``k x k`` block of
    the rows ``R(S)`` the actuated nodes reach, and placed in an ``n x n``
    zero matrix.  ``N`` must be an integer of at least 2.
    The result is exactly symmetric and positive semidefinite up to
    quadrature noise.  Raises ValueError when it is not finite.
    """
    N = as_count(N, "N (grid intervals)", 2)
    rows = _reached(sys, S)
    W = _gramian(sys, input_columns(sys, S)[0], N, rows)[0]
    if rows is None:
        return W
    full = np.zeros((sys.n, sys.n))
    full[np.ix_(rows, rows)] = W
    return full


def _thresholded_pinv(W: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, int]:
    """Pseudoinverse of a finite symmetric PSD matrix, zeroing eigenvalues
    below ``rank_rel`` times the largest."""
    lam, V = np.linalg.eigh(W)
    lam_max = float(lam[-1]) if lam.size else 0.0
    if lam_max <= 0.0:
        return np.zeros_like(W), 0
    keep = lam >= tol.rank_rel * lam_max
    inv = np.where(keep, 1.0 / np.where(keep, lam, 1.0), 0.0)
    return (V * inv) @ V.T, int(np.sum(keep))


def _scan_states(x: np.ndarray, P: np.ndarray) -> None:
    """Turn the rows ``y`` of ``x`` into ``x[j] = x[j - 1] @ P + y[j]`` in
    place, by a Brent-Kung scan.

    The up-sweep with shift ``s = 1, 2, 4, ...`` adds ``x[j - s] @ P^s`` to
    the rows ``j`` with ``j + 1`` a multiple of ``2 s``, so each holds the sum
    of its last ``2 s`` terms; the down-sweep, with the same shifts in
    reverse, completes the rows ``j`` with ``j + 1`` an odd multiple of
    ``s`` from the complete row ``j - s``.  That is about ``2 N`` row
    products in all, against ``N log2 N`` for a doubling scan.
    """
    powers = []
    s = 1
    while 2 * s <= len(x):
        if powers:
            P = P @ P
        powers.append(P)
        hi = x[2 * s - 1 :: 2 * s]
        hi += x[s - 1 :: 2 * s][: len(hi)] @ P
        s *= 2
    for P in reversed(powers):
        s //= 2
        hi = x[3 * s - 1 :: 2 * s]
        hi += x[2 * s - 1 :: 2 * s][: len(hi)] @ P


def min_energy_transfer(
    sys: LinearSystem,
    S: Iterable[int],
    N: int = 1000,
    tol: Tolerance = DEFAULT_TOL,
) -> SynthesisResult:
    """Synthesize the minimum-energy input for the transfer and simulate it.

    The input is ``u(t) = B^T M(S) exp(A^T (t1 - t)) W^+ w`` with ``W`` the
    reachability Gramian, ``W^+`` its rank-thresholded pseudoinverse, and
    ``w`` the transfer offset ``sys.offset``.  ``W`` comes from
    :func:`_gramian`, on the path it picks, together with the half step
    ``exp(A h/2)``, the one matrix exponential of the call; all three, the
    pseudoinverse and the input fill are taken on the ``k`` rows of
    ``R(S)``, where ``W`` and ``w`` are the blocks of the full ones.  The state is
    then integrated by fixed-step RK4 on the same ``N``-interval grid the
    quadrature used, which avoids any interpolation bookkeeping between the
    two.  Each RK4 step is the affine map ``x_{j+1} = Phi x_j + d_j``, with
    ``d_j`` linear in the interval's three stage inputs, and the states are
    summed by :func:`_scan_states`.  On the stack path the inputs at the
    grid points and midpoints are read off the response stack, the stage
    formula is evaluated once on ``n + 3 r`` unit rows, which gives ``Phi``
    and the three input maps, and every ``d_j`` is one product of the
    stacked interval inputs with them.  On the doubling path the input is
    ``u(tau_j) = (M(S) B)^T v_(N-j)`` with ``v_i = E^i^T W^+ w``, one vector
    per grid point, so the memory is ``O(N n)``.  Since
    ``v_(N-j) = E^T v_(N-j-1)``, the three inputs of interval ``j`` are
    fixed maps of ``v_(N-j-1)`` and ``d_j = v_(N-j-1)^T D``: the stage
    formula is evaluated once on the ``n + k`` rows
    ``(x, u1, u2, u4) = ([I; 0], [0; E IB], [0; exp(A h/2) IB], [0; IB])``,
    with ``E`` and ``IB`` on the reached rows, whose first ``n`` rows are
    ``Phi^T`` and last ``k`` rows ``D`` (``k x n``).  For
    infeasible targets the synthesized input reaches only the projection of
    ``w`` onto the reachable set and ``terminal_error`` stays large.  Raises
    ValueError when the Gramian or the simulated terminal state is not
    finite; the latter may be cured by a larger ``N``.
    """
    N = as_count(N, "N (grid intervals)", 2)
    IB, cols = input_columns(sys, S)
    n, r = sys.n, cols.size
    h = (sys.t1 - sys.t0) / N

    def f(x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return x @ sys.A.T + u @ IB.T

    def rk4_step(x: np.ndarray, u1, u2, u4) -> np.ndarray:
        """One RK4 step of ``x' = A x + IB u``, with states and inputs
        stored as rows so that a block of rows steps in one pass."""
        k1 = f(x, u1)
        k2 = f(x + 0.5 * h * k1, u2)
        k3 = f(x + 0.5 * h * k2, u2)
        k4 = f(x + h * k3, u4)
        return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    rows = _reached(sys, S)
    W, half, R = _gramian(sys, IB, N, rows)
    k = W.shape[0]
    grid = np.linspace(sys.t0, sys.t1, N + 1)
    # overflow is caught by the finiteness checks, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        W_pinv, gramian_rank = _thresholded_pinv(W, tol)
        g = W_pinv @ (sys.offset if rows is None else sys.offset[rows])
        x_samples = np.empty((N + 1, n))
        x_samples[0] = sys.x0
        # the step is linear in (x, u1, u2, u4): on unit rows x it gives Phi^T,
        # and on the input rows the drive of the states
        if R is not None:
            flat = R.reshape(-1, k)
            u_grid = (flat @ g).reshape(N + 1, r)
            # the response at the midpoint tau_j + h/2 is exp(A h/2) H[j + 1]
            u_mid = (flat[r:] @ (half.T @ g)).reshape(N, r)
            # the input rows give the stacked maps Gamma_1, Gamma_2, Gamma_3
            maps = rk4_step(*np.split(np.eye(n + 3 * r), [n, n + r, n + 2 * r], axis=1))
            x_samples[1:] = np.concatenate([u_grid[:-1], u_mid, u_grid[1:]], axis=1) @ maps[n:]
        else:
            IB_R = IB if rows is None else IB[rows]
            E = half @ half
            V = _fill_backwards(g, E, N)  # V[j] = v_(N-j)^T
            u_grid = V @ IB_R
            # interval j reads V[j] @ IB_R = V[j + 1] @ E IB_R,
            # V[j + 1] @ half IB_R and V[j + 1] @ IB_R, so its drive is V[j + 1] @ D
            x, lift = np.split(np.eye(n + k), [n], axis=1)
            maps = rk4_step(x, lift @ (E @ IB_R), lift @ (half @ IB_R), lift @ IB_R)
            x_samples[1:] = V[1:] @ maps[n:]
        _scan_states(x_samples, maps[:n])
        if not np.all(np.isfinite(x_samples[N])):
            raise ValueError(
                f"the simulated terminal state is not finite: RK4 on N = {N} grid "
                f"intervals (step h = {h:.3g}) is unstable or overflows; refine N"
            )
        terminal_error = _peak_norm(x_samples[N] - sys.x1, "terminal error")

    u_samples = np.zeros((N + 1, sys.m))
    u_samples[:, cols] = u_grid
    return SynthesisResult(
        grid=grid,
        u_samples=u_samples,
        x_samples=x_samples,
        terminal_error=terminal_error,
        gramian_rank=gramian_rank,
    )
