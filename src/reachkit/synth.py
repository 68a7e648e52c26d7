"""Constructive feasibility checks: minimum-energy input synthesis and ODE
simulation.

Feasibility of a transfer is a rank statement; this module backs it up with
an actual input signal.  Everything is read off one input response stack
``H[j] = exp(A (t1 - tau_j)) M(S) B`` on the grid ``tau_0 < ... < tau_N``,
propagated once: the reachability Gramian is the Simpson quadrature of
``H[j] H[j]^T``, and the minimum-energy open-loop input steering the system
to the target is ``H[j]^T W^+ w``.  The grid is uniform with spacing
``h = (t1 - t0) / N``, so the quadrature is called with ``dx=h``.  A
fixed-step RK4 simulation of the actuated dynamics then independently
confirms (or honestly refutes) that the target is hit.  RK4 applied to a
linear system is an affine map per interval, ``x_{j+1} = Phi x_j + d_j``;
the stage formula is applied once to the identity (giving ``Phi``) and once
to all ``N`` interval inputs stacked (giving every ``d_j``), and the state is
then stepped with one matrix-vector product per interval.
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


def _input_response(
    sys: LinearSystem, S: Iterable[int], N: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The grid, its Gramian, the nonzero input columns and their response.

    ``H[j] = exp(A (t1 - tau_j)) M(S) B[:, cols]`` for the ``N + 1`` grid
    times ``tau_j``, with ``cols`` the nonzero columns of ``M(S) B``; the
    stack is built backwards from ``H[N] = M(S) B[:, cols]`` by one
    ``exp(A h)`` product per interval, ``h = (t1 - t0) / N``.  The Gramian is
    the Simpson rule over ``H[j] H[j]^T`` with the uniform spacing ``dx=h``,
    symmetrized after assembly.
    """
    N = int(N)
    if N < 2:
        raise ValueError(f"need at least 2 grid intervals, got {N}")
    IB = masked_input_matrix(sys, S)
    cols = np.flatnonzero(np.any(IB != 0.0, axis=0))
    h = (sys.t1 - sys.t0) / N
    step = mat_exp(sys.A, h)
    H = np.empty((N + 1, sys.n, cols.size))
    H[N] = IB[:, cols]
    for j in range(N, 0, -1):
        H[j - 1] = step @ H[j]
    grid = np.linspace(sys.t0, sys.t1, N + 1)
    W = simpson(H @ H.transpose(0, 2, 1), dx=h, axis=0)
    return grid, 0.5 * (W + W.T), cols, H


def reach_gramian(sys: LinearSystem, S: Iterable[int], N: int = 1000) -> np.ndarray:
    """Reachability Gramian of the actuated system over ``[t0, t1]``.

    ``W = integral of exp(A (t1 - tau)) M(S) B B^T M(S) exp(A^T (t1 - tau))``
    evaluated by composite Simpson quadrature on ``N`` grid intervals.  The
    result is symmetrized after assembly, so it is symmetric by construction
    and positive semidefinite up to quadrature noise.
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
    stacked, which gives all ``d_j``.  For infeasible targets the
    synthesized input reaches only the projection of ``w`` onto the
    reachable set and ``terminal_error`` stays large.
    """
    grid, W, cols, H = _input_response(sys, S, N)
    W_pinv, gramian_rank = _thresholded_pinv(W, tol)
    g = W_pinv @ sys.offset
    N = grid.size - 1
    h = (sys.t1 - sys.t0) / N
    IB = H[N]  # M(S) B on its nonzero columns
    u_grid = g @ H
    # the response at the midpoint tau_j + h/2 is exp(A h/2) H[j + 1]
    u_mid = (mat_exp(sys.A, h / 2.0).T @ g) @ H[1:]

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

    no_input = np.zeros((sys.n, cols.size))
    step_T = rk4_step(np.eye(sys.n), no_input, no_input, no_input)  # Phi^T
    x_samples = np.empty((N + 1, sys.n))
    x_samples[0] = sys.x0
    x_samples[1:] = rk4_step(np.zeros((N, sys.n)), u_grid[:-1], u_mid, u_grid[1:])
    for j in range(N):
        x_samples[j + 1] += x_samples[j] @ step_T

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
