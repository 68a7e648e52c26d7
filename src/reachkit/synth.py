"""Constructive feasibility checks: minimum-energy input synthesis and ODE
simulation.

Feasibility of a transfer is a rank statement; this module backs it up with
an actual input signal.  Everything is read off one input response stack
``H[j] = exp(A (t1 - tau_j)) M(S) B`` on the uniform grid
``tau_0 < ... < tau_N`` with spacing ``h = (t1 - t0) / N``.  The stack is
filled from its last entry by doubling passes, each one matrix product with
``exp(A k h)`` for ``k = 1, 2, 4, ...``, so about ``log2 N`` products build
it.  The reachability Gramian, the Simpson quadrature of ``H[j] H[j]^T``, is
one symmetric product of the stack's rows weighted by ``sqrt(h c_j)``, with
``c_j`` the Simpson weights (scipy's ``simpson`` applied to the unit
vectors, all positive) and ``h`` the spacing; no ``H[j] H[j]^T`` is
formed.  The minimum-energy open-loop input steering the system to the
target is ``H[j]^T W^+ w``.  A fixed-step RK4 simulation of the actuated
dynamics then independently confirms (or honestly refutes) that the target
is hit.  RK4 applied to a linear system is an affine map per interval,
``x_{j+1} = Phi x_j + d_j``; the stage formula is applied once to the
identity (giving ``Phi``) and once to all ``N`` interval inputs stacked
(giving every ``d_j``), and the states are then summed by a doubling scan:
the pass with shift ``s`` adds ``Phi^s`` times the state ``s`` rows back,
for ``s = 1, 2, 4, ...``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.integrate import simpson

from .linalg import DEFAULT_TOL, Tolerance, mat_exp
from .system import LinearSystem, masked_input_matrix


@dataclass(frozen=True)
class SynthesisResult:
    """Sampled input and state trajectories for one synthesized transfer.

    ``grid`` holds ``N + 1`` strictly increasing times from ``t0`` to ``t1``;
    ``u_samples`` and ``x_samples`` hold one input/state vector per grid
    point.  ``terminal_error`` is ``||x(t1) - x1||``; large values mean the
    requested target is not reachable under the chosen node set, never that
    the failure was silently smoothed over.
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


def _input_response(
    sys: LinearSystem, S: Iterable[int], N: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The grid, its Gramian, the nonzero input columns and their response.

    ``H[j] = exp(A (t1 - tau_j)) M(S) B[:, cols]`` for the ``N + 1`` grid
    times ``tau_j``, with ``cols`` the nonzero columns of ``M(S) B``.  The
    stack is stored as rows ``R[j] = H[j]^T`` and ``H`` is returned as a
    transposed view of it.  It is filled backwards from ``R[N]`` by doubling
    passes: with ``P = exp(A k h)``, ``h = (t1 - t0) / N``, the ``k`` filled
    rows give the ``k`` before them in one product, ``R[j] = R[j + k] P^T``;
    then ``P`` is squared and ``k`` doubled.  The Gramian
    ``h sum_j c_j H[j] H[j]^T``, with ``c`` the unit-spacing Simpson weights,
    is one symmetric product of the ``sqrt(h c_j)``-weighted rows with
    themselves.
    """
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)):
        raise ValueError(f"N (grid intervals) is not an integer: {N!r}")
    N = int(N)
    if N < 2:
        raise ValueError(f"need at least 2 grid intervals, got {N}")
    IB = masked_input_matrix(sys, S)
    cols = np.flatnonzero(np.any(IB != 0.0, axis=0))
    n, r = sys.n, cols.size
    h = (sys.t1 - sys.t0) / N
    R = np.empty((N + 1, r, n))
    R[N] = IB[:, cols].T
    # R[lo:] holds the k = N + 1 - lo filled rows and P_T = exp(A k h)^T
    P_T = mat_exp(sys.A, h).T
    lo, k = N, 1
    while lo > 0:
        start = max(lo - k, 0)
        block = R[start + k :].reshape((lo - start) * r, n) @ P_T
        R[start:lo] = block.reshape(lo - start, r, n)
        lo, k = start, 2 * k
        if lo > 0:
            P_T = P_T @ P_T
    # sqrt needs the Simpson weights positive; Y.T @ Y is a symmetric rank-k product
    Y = (R * np.sqrt(h * _simpson_weights(N))[:, None, None]).reshape((N + 1) * r, n)
    grid = np.linspace(sys.t0, sys.t1, N + 1)
    return grid, Y.T @ Y, cols, R.transpose(0, 2, 1)


def reach_gramian(sys: LinearSystem, S: Iterable[int], N: int = 1000) -> np.ndarray:
    """Reachability Gramian of the actuated system over ``[t0, t1]``.

    ``W = integral of exp(A (t1 - tau)) M(S) B B^T M(S) exp(A^T (t1 - tau))``
    evaluated by composite Simpson quadrature on ``N`` grid intervals, as
    one symmetric product of the ``sqrt(h c_j)``-weighted rows of the input
    response stack (see :func:`_input_response`).  ``N`` must be an integer
    of at least 2.  The result is symmetric by construction and positive
    semidefinite up to quadrature noise.
    """
    return _input_response(sys, S, N)[1]


def _thresholded_pinv(W: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, int]:
    """Pseudoinverse of a symmetric PSD matrix, zeroing eigenvalues below
    ``rank_rel`` times the largest."""
    lam, V = np.linalg.eigh(W)
    lam_max = float(lam[-1]) if lam.size else 0.0
    if lam_max <= 0.0:
        return np.zeros_like(W), 0
    keep = lam >= tol.rank_rel * lam_max
    inv = np.where(keep, 1.0 / np.where(keep, lam, 1.0), 0.0)
    return (V * inv) @ V.T, int(np.sum(keep))


def min_energy_transfer(
    sys: LinearSystem,
    S: Iterable[int],
    N: int = 1000,
    tol: Tolerance = DEFAULT_TOL,
) -> SynthesisResult:
    """Synthesize the minimum-energy input for the transfer and simulate it.

    The input is ``u(t) = B^T M(S) exp(A^T (t1 - t)) W^+ w`` with ``W`` the
    reachability Gramian, ``W^+`` its rank-thresholded pseudoinverse, and
    ``w`` the transfer offset ``sys.offset``.  The state is then integrated
    by fixed-step RK4 on the same ``N``-interval grid the quadrature used,
    which avoids any interpolation bookkeeping between the two.  Each RK4
    step is the affine map ``x_{j+1} = Phi x_j + d_j``: the stage formula is
    evaluated once on the identity with zero input, which gives ``Phi``, and
    once on zero states with every interval's inputs (grid, midpoint, grid)
    stacked, which gives all ``d_j``.  The states are then summed by a
    doubling (Hillis-Steele) scan, about ``log2 N`` block products with the
    powers ``Phi^1, Phi^2, Phi^4, ...``.  For infeasible targets the
    synthesized input reaches only the projection of ``w`` onto the
    reachable set and ``terminal_error`` stays large.
    """
    grid, W, cols, H = _input_response(sys, S, N)
    W_pinv, gramian_rank = _thresholded_pinv(W, tol)
    g = W_pinv @ sys.offset
    N = grid.size - 1
    n, r = sys.n, cols.size
    h = (sys.t1 - sys.t0) / N
    IB = H[N]  # M(S) B on its nonzero columns
    # H is a transposed view of the contiguous rows H[j]^T
    rows = H.transpose(0, 2, 1).reshape((N + 1) * r, n)
    u_grid = (rows @ g).reshape(N + 1, r)
    # the response at the midpoint tau_j + h/2 is exp(A h/2) H[j + 1]
    u_mid = (rows[r:] @ (mat_exp(sys.A, h / 2.0).T @ g)).reshape(N, r)

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

    no_input = np.zeros((n, r))
    power = rk4_step(np.eye(n), no_input, no_input, no_input)  # Phi^T
    x_samples = np.empty((N + 1, n))
    x_samples[0] = sys.x0
    x_samples[1:] = rk4_step(np.zeros((N, n)), u_grid[:-1], u_mid, u_grid[1:])
    # x_j = sum_{i <= j} y_i (Phi^T)^(j - i) with y = (x0, d_0, ..., d_{N-1}):
    # after the pass with shift s, row j sums the 2s terms i in (j - 2s, j]
    s = 1
    while s <= N:
        x_samples[s:] += x_samples[:-s] @ power
        s *= 2
        if s <= N:
            power = power @ power

    u_samples = np.zeros((N + 1, sys.m))
    u_samples[:, cols] = u_grid
    terminal_error = float(np.linalg.norm(x_samples[N] - sys.x1))
    return SynthesisResult(
        grid=grid,
        u_samples=u_samples,
        x_samples=x_samples,
        terminal_error=terminal_error,
        gramian_rank=gramian_rank,
    )
