"""Constructive feasibility checks: minimum-energy input synthesis and ODE
simulation.

Feasibility of a transfer is a rank statement; this module backs it up with
an actual input signal.  On the uniform grid ``tau_0 < ... < tau_N`` with
spacing ``h = (t1 - t0) / N``, the input response is
``H[j] = E^(N - j) M(S) B`` with ``E = exp(A h)``, restricted to the
nonzero columns of ``M(S) B`` (:func:`reachkit.system.input_columns`).
The reachability Gramian is its Simpson quadrature
``W = h sum_j c_j H[j] H[j]^T``, with ``c_j`` the Simpson weights (scipy's
``simpson`` applied to the unit vectors, all positive).
The minimum-energy open-loop input steering the system to the target is
``H[j]^T W^+ w``.

Two paths compute ``W`` and the input, and a cost rule on the grid size,
the number of input columns and ``n`` picks one per call (see
:func:`_stack_is_cheaper`).  With few input columns, the stack ``H`` itself
is filled by doubling passes and ``W`` is one symmetric product of its
``sqrt(h c_j)``-weighted rows (:func:`_input_response`).  With many, ``W``
is summed without the stack: the Simpson weights repeat with period 2 away
from the ends, so the middle of the sum is a geometric Lyapunov series in
``E^2``, summed by binary doubling, and the ends are added by Horner steps
(:func:`_doubling_gramian`); the input is then read off the ``N + 1``
vectors ``E^(N - j)^T W^+ w``, filled by the same doubling passes as the
stack.  A fixed-step RK4 simulation of the actuated dynamics then
independently confirms (or honestly refutes) that the target is hit.  RK4
applied to a linear system is an affine map per interval,
``x_{j+1} = Phi x_j + d_j``; the stage formula applied once to unit rows
gives ``Phi`` and the three input maps, every ``d_j`` is one product with
them, and the states are summed by a Brent-Kung scan.

A result that cannot be computed in floating point raises ValueError rather
than coming back as NaN: a Gramian that is not finite (the input response
overflows over ``[t0, t1]``), or an RK4 terminal state that is not finite
(the step ``h`` lies outside RK4's stability region for the drift, or the
states overflow; a finer grid may cure it).  The terminal error is a norm
taken after dividing by the largest entry, so it does not overflow for
states near the float range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.integrate import simpson

from .linalg import DEFAULT_TOL, Tolerance, as_count, mat_exp
from .system import LinearSystem, _peak_norm, input_columns


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


def _simpson_weights(N: int) -> np.ndarray:
    """Unit-spacing weights ``c`` with ``c @ y == simpson(y, dx=1.0, axis=0)``
    for ``N + 1`` samples.

    They are scipy's own rule applied to the unit vectors, so the odd-``N``
    last-interval correction is whatever the installed scipy uses.  The rule
    is applied to a short grid of the same parity, at most
    ``2 * _SIMPSON_HEAD + 1`` intervals, and the weight pair that starts its
    interior is repeated until the grid has ``N`` intervals, so the weights
    take ``O(N)`` memory where the ``N + 1`` unit vectors would take
    ``O(N^2)``.
    """
    M = min(N, 2 * _SIMPSON_HEAD + N % 2)
    short = simpson(np.eye(M + 1), dx=1.0, axis=0)
    head, rest = short[:_SIMPSON_HEAD], short[_SIMPSON_HEAD:]
    return np.concatenate([head, np.tile(rest[:2], (N - M) // 2), rest])


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


def _input_response(
    sys: LinearSystem, S: Iterable[int], N: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The grid, its Gramian, the nonzero input columns and their response.

    ``H[j] = exp(A (t1 - tau_j)) M(S) B[:, cols]`` for the ``N + 1`` grid
    times ``tau_j``, with ``cols`` the nonzero columns of ``M(S) B``.  The
    stack is stored as rows ``R[j] = H[j]^T``, filled by
    :func:`_fill_backwards` with the step ``exp(A h)^T``, and ``H`` is
    returned as a transposed view of it.  The Gramian
    ``h sum_j c_j H[j] H[j]^T``, with ``c`` the unit-spacing Simpson weights,
    is one symmetric product of the ``sqrt(h c_j)``-weighted rows with
    themselves.  ``N`` is an ``int`` of at least 2.
    """
    IB, cols = input_columns(sys, S)
    n, r = sys.n, cols.size
    h = (sys.t1 - sys.t0) / N
    R = _fill_backwards(IB.T, mat_exp(sys.A, h).T, N)
    # sqrt needs the Simpson weights positive; Y.T @ Y is a symmetric rank-k product
    Y = (R * np.sqrt(h * _simpson_weights(N))[:, None, None]).reshape((N + 1) * r, n)
    grid = np.linspace(sys.t0, sys.t1, N + 1)
    return grid, Y.T @ Y, cols, R.transpose(0, 2, 1)


def _periodic_window(N: int) -> tuple[np.ndarray, int, int]:
    """The Simpson weights ``d_i = c_(N - i)``, indexed by the power ``i`` of
    ``E``, and the window ``[lo, hi)`` on which they repeat with period 2.

    ``lo`` and ``hi - lo`` are even and ``d[lo + 2k + b] == d[lo + b]``
    exactly inside the window; outside it lie at most a few entries at each
    end, where scipy's end rules apply.
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


def reach_gramian(sys: LinearSystem, S: Iterable[int], N: int = 1000) -> np.ndarray:
    """Reachability Gramian of the actuated system over ``[t0, t1]``.

    ``W = integral of exp(A (t1 - tau)) M(S) B B^T M(S) exp(A^T (t1 - tau))``
    evaluated by composite Simpson quadrature on ``N`` grid intervals.  With
    few input columns it is one symmetric product of the weighted rows of
    the input response stack (:func:`_input_response`); with many, the same
    quadrature is summed by doubling without the stack
    (:func:`_doubling_gramian`).  ``N`` must be an integer of at least 2.
    The result is exactly symmetric and positive semidefinite up to
    quadrature noise.  Raises ValueError when it is not finite.
    """
    N = as_count(N, "N (grid intervals)", 2)
    IB, cols = input_columns(sys, S)
    with np.errstate(over="ignore", invalid="ignore"):
        if _stack_is_cheaper(N, cols.size, sys.n):
            W = _input_response(sys, S, N)[1]
        else:
            h = (sys.t1 - sys.t0) / N
            W = _doubling_gramian(mat_exp(sys.A, h), IB, h, N)
    return _finite_gramian(W)


def _finite_gramian(W: np.ndarray) -> np.ndarray:
    """``W``, or ValueError if it has an entry that is not finite."""
    if not np.all(np.isfinite(W)):
        raise ValueError(
            "reachability Gramian is not finite: the input response "
            "exp(A (t1 - tau)) M(S) B overflows over [t0, t1]"
        )
    return W


def _thresholded_pinv(W: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, int]:
    """Pseudoinverse of a symmetric PSD matrix, zeroing eigenvalues below
    ``rank_rel`` times the largest; ValueError if ``W`` is not finite."""
    lam, V = np.linalg.eigh(_finite_gramian(W))
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
    ``w`` the transfer offset ``sys.offset``.  ``W`` comes from the path
    :func:`reach_gramian` would take.  On the stack path the input is read
    off the response stack; on the doubling path it is
    ``u(tau_j) = (M(S) B)^T v_(N-j)`` with ``v_i = exp(A h)^i^T W^+ w``, one
    vector per grid point, so the memory is ``O(N n)``.  The state is then
    integrated by fixed-step RK4 on the same ``N``-interval grid the
    quadrature used, which avoids any interpolation bookkeeping between the
    two.  Each RK4 step is the affine map ``x_{j+1} = Phi x_j + d_j``, with
    ``d_j`` linear in the interval's three stage inputs: the stage formula
    is evaluated once on unit rows, which gives ``Phi`` and the three input
    maps, every ``d_j`` is one product of the stacked interval inputs with
    them, and the states are summed by :func:`_scan_states`.  For
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

    # overflow is caught by the finiteness checks, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        half = mat_exp(sys.A, h / 2.0)
        if _stack_is_cheaper(N, r, n):
            grid, W, _, H = _input_response(sys, S, N)
            W_pinv, gramian_rank = _thresholded_pinv(W, tol)
            g = W_pinv @ sys.offset
            # H is a transposed view of the contiguous rows H[j]^T
            rows = H.transpose(0, 2, 1).reshape((N + 1) * r, n)
            u_grid = (rows @ g).reshape(N + 1, r)
            # the response at the midpoint tau_j + h/2 is exp(A h/2) H[j + 1]
            u_mid = (rows[r:] @ (half.T @ g)).reshape(N, r)
        else:
            E = mat_exp(sys.A, h)
            W_pinv, gramian_rank = _thresholded_pinv(_doubling_gramian(E, IB, h, N), tol)
            grid = np.linspace(sys.t0, sys.t1, N + 1)
            V = _fill_backwards(W_pinv @ sys.offset, E, N)  # V[j] = v_(N-j)^T
            u_grid = V @ IB
            u_mid = V[1:] @ (half @ IB)

        # the step is linear in (x, u1, u2, u4): on unit rows it gives Phi^T
        # over the stacked input maps Gamma_1, Gamma_2, Gamma_3
        maps = rk4_step(*np.split(np.eye(n + 3 * r), [n, n + r, n + 2 * r], axis=1))
        x_samples = np.empty((N + 1, n))
        x_samples[0] = sys.x0
        x_samples[1:] = np.concatenate([u_grid[:-1], u_mid, u_grid[1:]], axis=1) @ maps[n:]
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
