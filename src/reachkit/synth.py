"""Constructive feasibility checks: minimum-energy input synthesis and ODE
simulation.

Feasibility of a transfer is a rank statement; this module backs it up with
an actual input signal.  Everything is read off one input response stack
``H[j] = exp(A (t1 - tau_j)) M(S) B`` on the grid ``tau_0 < ... < tau_N``,
propagated once: the reachability Gramian is the Simpson quadrature of
``H[j] H[j]^T``, and the minimum-energy open-loop input steering the system
to the target is ``H[j]^T W^+ w``.  A fixed-step RK4 simulation of the
actuated dynamics then independently confirms (or honestly refutes) that the
target is hit.
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
    ``exp(A h)`` product per interval.  The Gramian is the Simpson rule over
    ``H[j] H[j]^T``, symmetrized after assembly.
    """
    N = int(N)
    if N < 2:
        raise ValueError(f"need at least 2 grid intervals, got {N}")
    IB = masked_input_matrix(sys, S)
    cols = np.flatnonzero(np.any(IB != 0.0, axis=0))
    step = mat_exp(sys.A, (sys.t1 - sys.t0) / N)
    H = np.empty((N + 1, sys.n, cols.size))
    H[N] = IB[:, cols]
    for j in range(N, 0, -1):
        H[j - 1] = step @ H[j]
    grid = np.linspace(sys.t0, sys.t1, N + 1)
    W = simpson(H @ H.transpose(0, 2, 1), x=grid, axis=0)
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
    which avoids any interpolation bookkeeping between the two.  For
    infeasible targets the synthesized input reaches only the projection of
    ``w`` onto the reachable set and ``terminal_error`` stays large.
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
        return sys.A @ x + IB @ u

    x_samples = np.empty((N + 1, sys.n))
    x_samples[0] = sys.x0
    x = sys.x0.copy()
    for j in range(N):
        u1, u2, u4 = u_grid[j], u_mid[j], u_grid[j + 1]
        k1 = f(x, u1)
        k2 = f(x + 0.5 * h * k1, u2)
        k3 = f(x + 0.5 * h * k2, u2)
        k4 = f(x + h * k3, u4)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x_samples[j + 1] = x

    u_samples = np.zeros((N + 1, sys.m))
    u_samples[:, cols] = u_grid
    terminal_error = float(np.linalg.norm(x - sys.x1))
    return SynthesisResult(
        grid=grid,
        u_samples=u_samples,
        x_samples=x_samples,
        terminal_error=terminal_error,
        gramian_rank=gramian_rank,
    )
