import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import simpson

from reachkit.linalg import DEFAULT_TOL, mat_exp
from reachkit.synth import (
    _SIMPSON_HEAD,
    _doubling_gramian,
    _gramian,
    _input_columns,
    _periodic_window,
    _scan_states,
    _simpson_weights,
    _stack_floats,
    _stack_is_cheaper,
    _thresholded_pinv,
    min_energy_transfer,
    reach_gramian,
)
from reachkit.system import (
    LinearSystem,
    actuation_mask,
    input_columns,
    is_feasible,
    masked_input_matrix,
    reachability_matrix,
    star_system,
    transfer_offset,
)


def scalar_integrator():
    return LinearSystem(
        A=np.zeros((1, 1)),
        B=np.ones((1, 1)),
        t0=0.0,
        t1=1.0,
        x0=np.zeros(1),
        x1=np.ones(1),
    )


def feasible_fixture(rng, n):
    """Random stable-ish system with a target planted inside the reachable set."""
    A = 0.5 * rng.normal(size=(n, n))
    x0 = rng.normal(size=n)
    size = int(rng.integers(1, n + 1))
    S = sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False).tolist())
    sys0 = LinearSystem(A=A, B=np.eye(n), t0=0.0, t1=1.0, x0=x0, x1=np.zeros(n))
    R = reachability_matrix(sys0, S)
    x1 = mat_exp(A, 1.0) @ x0 + R @ rng.normal(size=R.shape[1])
    sys = LinearSystem(A=A, B=np.eye(n), t0=0.0, t1=1.0, x0=x0, x1=x1)
    assert is_feasible(sys, S).feasible
    return sys, S


def propagator_reference(sys, S, N):
    """Gramian, input and state samples computed the long way: a list of
    ``N + 1`` dense propagators ``exp(A k h)`` for the Gramian and a half-step
    recursion ``psi[k] = exp(A^T k h/2) W^+ w`` for the input, followed by the
    same RK4 simulation."""
    n = sys.n
    IB = masked_input_matrix(sys, S)
    h = (sys.t1 - sys.t0) / N
    grid = np.linspace(sys.t0, sys.t1, N + 1)
    step = mat_exp(sys.A, h)
    propagators = [np.eye(n)]
    for _ in range(N):
        propagators.append(step @ propagators[-1])
    integrand = np.empty((N + 1, n, n))
    for j in range(N + 1):
        G = propagators[N - j] @ IB
        integrand[j] = G @ G.T
    W = simpson(integrand, x=grid, axis=0)
    W = 0.5 * (W + W.T)

    W_pinv, _ = _thresholded_pinv(W, DEFAULT_TOL)
    half_step_T = mat_exp(sys.A, h / 2.0).T
    psi = np.empty((2 * N + 1, n))
    psi[0] = W_pinv @ transfer_offset(sys)
    for k in range(2 * N):
        psi[k + 1] = half_step_T @ psi[k]
    selector = np.zeros(n)
    selector[[i - 1 for i in S]] = 1.0
    u_half = np.array([sys.B.T @ (selector * psi[2 * N - k]) for k in range(2 * N + 1)])

    x_samples = np.empty((N + 1, n))
    x_samples[0] = x = sys.x0
    for j in range(N):
        u1, u2, u4 = u_half[2 * j], u_half[2 * j + 1], u_half[2 * j + 2]
        k1 = sys.A @ x + IB @ u1
        k2 = sys.A @ (x + 0.5 * h * k1) + IB @ u2
        k3 = sys.A @ (x + 0.5 * h * k2) + IB @ u2
        k4 = sys.A @ (x + h * k3) + IB @ u4
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x_samples[j + 1] = x
    return W, u_half[::2], x_samples


def rel_diff(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def stage_loop_reference(sys, S, N):
    """State samples by the per-interval RK4 stage loop, fed the same grid
    and midpoint inputs that ``min_energy_transfer`` computes: the Gramian
    of the path the cost rule picks, and the inputs read off the stack."""
    IB = _input_columns(sys, S)[0]
    W = _gramian(sys, IB, N)[0]
    with mock.patch("reachkit.synth._stack_is_cheaper", return_value=True):
        R = _gramian(sys, IB, N)[2]
    H = R.transpose(0, 2, 1)
    g = _thresholded_pinv(W, DEFAULT_TOL)[0] @ sys.offset
    h = (sys.t1 - sys.t0) / N
    IB = H[N]
    u_grid = g @ H
    u_mid = (mat_exp(sys.A, h / 2.0).T @ g) @ H[1:]

    def f(x, u):
        return sys.A @ x + IB @ u

    x_samples = np.empty((N + 1, sys.n))
    x_samples[0] = x = sys.x0
    for j in range(N):
        u1, u2, u4 = u_grid[j], u_mid[j], u_grid[j + 1]
        k1 = f(x, u1)
        k2 = f(x + 0.5 * h * k1, u2)
        k3 = f(x + 0.5 * h * k2, u2)
        k4 = f(x + h * k3, u4)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        x_samples[j + 1] = x
    return x_samples


class TestResponseStack:
    """The Gramian and input read off one input response stack agree with
    the propagator-list reference; odd ``N`` exercises the last-interval
    rule of ``simpson``."""

    @pytest.mark.parametrize("N", [2, 3, 7, 64, 101, 200, 1000, 1001])
    def test_matches_propagator_reference(self, N):
        rng = np.random.default_rng(N)
        for _ in range(9):
            sys, S = feasible_fixture(rng, int(rng.integers(2, 7)))
            W_ref, u_ref, x_ref = propagator_reference(sys, S, N)
            assert rel_diff(reach_gramian(sys, S, N=N), W_ref) <= 1e-12
            result = min_energy_transfer(sys, S, N=N)
            assert rel_diff(result.u_samples, u_ref) <= 1e-6
            assert rel_diff(result.x_samples, x_ref) <= 1e-6

    def test_simpson_weights_are_scipys_rule(self):
        # the weights are built from a short grid; they must equal scipy's
        # rule applied to every unit vector of the full grid
        for N in [*range(2, 41), 1000, 1001]:
            expected = simpson(np.eye(N + 1), dx=1.0, axis=0)
            assert np.array_equal(_simpson_weights(N), expected), N

    def test_simpson_weights_are_positive(self):
        # the Gramian product weights the stack rows by their square roots
        for N in [*range(2, 41), 1000, 1001]:
            assert (_simpson_weights(N) > 0).all(), N

    def test_simpson_runs_once_per_grid(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return simpson(*args, **kwargs)

        monkeypatch.setattr("reachkit.synth.simpson", counting)
        _simpson_weights.cache_clear()
        _periodic_window.cache_clear()
        sys = star_system(5)
        for stack in (True, False, True, False):
            monkeypatch.setattr("reachkit.synth._stack_is_cheaper", lambda N, r, n, v=stack: v)
            for N in (200, 201):
                min_energy_transfer(sys, range(1, 6), N=N)
                reach_gramian(sys, [1], N=N)
        assert len(calls) == 2
        # every caller shares the cached weights, so none may write to them
        for N in (200, 201):
            with pytest.raises(ValueError, match="read-only"):
                _simpson_weights(N)[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                _periodic_window(N)[0][0] = 1.0

    def test_transfer_computes_offset_once(self, monkeypatch):
        import reachkit.synth
        import reachkit.system

        calls = []
        original = reachkit.system.transfer_offset

        def counting(sys):
            calls.append(sys)
            return original(sys)

        # count direct calls from synth as well as those through sys.offset
        for module in (reachkit.system, reachkit.synth):
            monkeypatch.setattr(module, "transfer_offset", counting, raising=False)
        rng = np.random.default_rng(113)
        sys = LinearSystem(
            A=rng.normal(size=(3, 3)), B=np.eye(3), t0=0.0, t1=1.0,
            x0=rng.normal(size=3), x1=rng.normal(size=3),
        )
        verdict = is_feasible(sys, [1, 2, 3])
        result = min_energy_transfer(sys, [1, 2, 3], N=50)
        assert verdict.feasible and result.terminal_error <= 1e-3
        assert len(calls) == 1

    def test_peak_memory_stays_below_two_and_a_half_stacks(self):
        # dense n x n propagators kept beside the integrand peak at 3.0 stacks
        n, N = 60, 1000
        sys = star_system(n)
        min_energy_transfer(star_system(3), [1], N=10)  # warm lazy imports
        tracemalloc.start()
        try:
            min_energy_transfer(sys, [1], N=N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * (N + 1) * n * n * 8

    def test_peak_memory_has_no_integrand(self):
        # the (N+1, n, n) integrand H H^T alone would be 1.0 stack; with one
        # input column the response stack is (N+1) * n
        n, N = 60, 1000
        sys = star_system(n)
        min_energy_transfer(sys, [1], N=N)  # warm lazy imports at the same N
        tracemalloc.start()
        try:
            min_energy_transfer(sys, [1], N=N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * (N + 1) * n * n * 8

    def test_peak_memory_without_the_stack(self):
        # every node actuated: the response stack and its weighted copy alone
        # would be 2 n = 60 vectors per grid point.  The doubling path keeps
        # the returned inputs and states (2), the vector stack, the grid and
        # midpoint inputs (3) and the stacked interval inputs (3).
        n, N = 30, 5000
        rng = np.random.default_rng(127)
        sys = LinearSystem(
            A=rng.normal(size=(n, n)) / np.sqrt(n) - 1.5 * np.eye(n), B=np.eye(n),
            t0=0.0, t1=1.0, x0=rng.normal(size=n), x1=rng.normal(size=n),
        )
        S = range(1, n + 1)
        assert not _stack_is_cheaper(N, n, n)
        min_energy_transfer(sys, S, N=10)  # warm lazy imports
        tracemalloc.start()
        try:
            result = min_energy_transfer(sys, S, N=N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.terminal_error <= 1e-6 * max(1.0, np.linalg.norm(sys.x1))
        assert peak <= 10 * (N + 1) * n * 8

    def test_peak_memory_of_the_doubling_drive(self):
        # the RK4 drive is read off the vector stack itself, so beside it
        # lie only the grid inputs and the returned inputs and states: no
        # midpoint inputs and no stacked interval inputs
        n, N = 30, 5000
        rng = np.random.default_rng(131)
        sys = LinearSystem(
            A=rng.normal(size=(n, n)) / np.sqrt(n) - 1.5 * np.eye(n), B=np.eye(n),
            t0=0.0, t1=1.0, x0=rng.normal(size=n), x1=rng.normal(size=n),
        )
        S = range(1, n + 1)
        assert not _stack_is_cheaper(N, n, n)
        min_energy_transfer(sys, S, N=N)  # warm lazy imports and the weights
        tracemalloc.start()
        try:
            result = min_energy_transfer(sys, S, N=N)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.terminal_error <= 1e-6 * max(1.0, np.linalg.norm(sys.x1))
        assert peak <= 5 * (N + 1) * n * 8


class TestGramianPaths:
    """The response stack and the doubling sums give the same Gramian and
    the same transfer.  The paths are called directly, or chosen by patching
    the cost rule, so the rule cannot hide either one."""

    @pytest.mark.parametrize("N", [2, 3, 7, 16, 17, 18, 33, 34, 101, 1000, 1001])
    def test_gramians_agree(self, N, monkeypatch):
        monkeypatch.setattr("reachkit.synth._stack_is_cheaper", lambda N, r, n: True)
        rng = np.random.default_rng(300 + N)
        for n in (2, 3, 5, 8, 13, 21, 30):
            A = 0.5 * rng.normal(size=(n, n))
            # every node actuated, with n input columns and with one
            for m in (n, 1):
                sys = LinearSystem(
                    A=A, B=rng.normal(size=(n, m)), t0=0.0, t1=1.5,
                    x0=np.zeros(n), x1=np.zeros(n),
                )
                S = range(1, n + 1)
                IB = _input_columns(sys, S)[0]
                stack = _gramian(sys, IB, N)[0]
                h = 1.5 / N
                doubling = _doubling_gramian(mat_exp(A, h), IB, h, N)
                assert rel_diff(doubling, stack) <= 1e-12, (n, m)
                assert np.array_equal(stack, stack.T)
                assert np.array_equal(doubling, doubling.T)

    def test_window_and_ends_rebuild_the_weights(self):
        # d is indexed by the power of exp(A h): d_i = c_(N - i)
        for N in [*range(2, 42), 1000, 1001]:
            d, lo, hi = _periodic_window(N)
            assert lo % 2 == 0 and (hi - lo) % 2 == 0 and lo < hi, N
            periodic = np.zeros(N + 1)
            periodic[lo:hi] = np.tile(d[lo : lo + 2], (hi - lo) // 2)
            ends = d.copy()
            ends[lo:hi] = 0.0
            assert np.array_equal((periodic + ends)[::-1], _simpson_weights(N)), N
            # the ends are Horner steps; only the window is summed by doubling
            assert lo + (N + 1 - hi) <= 2 * _SIMPSON_HEAD + 2, N

    @pytest.mark.parametrize("N", [7, 200, 1001])
    def test_transfers_agree(self, N, monkeypatch):
        rng = np.random.default_rng(400 + N)
        for n in (2, 5, 12, 30):
            sys = LinearSystem(
                A=rng.normal(size=(n, n)) / np.sqrt(n) - 1.5 * np.eye(n), B=np.eye(n),
                t0=0.0, t1=1.0, x0=rng.normal(size=n), x1=rng.normal(size=n),
            )
            S = range(1, n + 1)
            results = []
            for stack in (True, False):
                monkeypatch.setattr(
                    "reachkit.synth._stack_is_cheaper", lambda N, r, n, v=stack: v
                )
                results.append(min_energy_transfer(sys, S, N=N))
            on_stack, doubled = results
            assert rel_diff(doubled.u_samples, on_stack.u_samples) <= 1e-12
            assert rel_diff(doubled.x_samples, on_stack.x_samples) <= 1e-12
            assert doubled.gramian_rank == on_stack.gramian_rank == n
            assert np.array_equal(doubled.grid, on_stack.grid)

    @pytest.mark.parametrize("stack", [True, False], ids=["stack", "doubling"])
    def test_input_columns_are_gathered_once_per_call(self, stack, monkeypatch):
        # M(S) B is built once per call and shared by the Gramian and the input
        monkeypatch.setattr("reachkit.synth._stack_is_cheaper", lambda N, r, n: stack)
        calls = []

        def counting(*args):
            calls.append(args)
            return input_columns(*args)

        monkeypatch.setattr("reachkit.synth.input_columns", counting)
        sys = star_system(40)
        min_energy_transfer(sys, [1], N=1000)
        assert len(calls) == 1
        reach_gramian(sys, [1], N=1000)
        assert len(calls) == 2

    @pytest.mark.parametrize("stack", [True, False], ids=["stack", "doubling"])
    def test_one_matrix_exponential_per_call(self, stack, monkeypatch):
        # exp(A h/2) is formed once; the step exp(A h) is its square
        monkeypatch.setattr("reachkit.synth._stack_is_cheaper", lambda N, r, n: stack)
        calls = []

        def counting(*args):
            calls.append(args)
            return mat_exp(*args)

        monkeypatch.setattr("reachkit.synth.mat_exp", counting)
        rng = np.random.default_rng(137)
        sys = LinearSystem(
            A=0.5 * rng.normal(size=(6, 6)), B=np.eye(6), t0=0.0, t1=1.0,
            x0=rng.normal(size=6), x1=rng.normal(size=6),
        )
        min_energy_transfer(sys, range(1, 7), N=200)
        assert len(calls) == 1
        reach_gramian(sys, range(1, 7), N=200)
        assert len(calls) == 2

    def test_cost_rule_placements(self):
        # one input column: the stack fills no more rows than the vector
        # recurrence would, so it stays
        for n in (2, 40, 60, 80, 120, 160, 400):
            assert _stack_is_cheaper(1000, 1, n)
        # small dense systems on a short grid stay on the stack
        for n in (3, 4, 5):
            assert _stack_is_cheaper(200, n, n)
        # dense, fully actuated systems on a fine grid are doubled
        for n in (20, 30):
            assert not _stack_is_cheaper(1000, n, n)
        assert _stack_is_cheaper(1000, 0, 5)


class TestStepMap:
    """The precomputed RK4 step map reproduces the per-interval stage loop:
    same tableau, grid and inputs, only the evaluation order differs."""

    @pytest.mark.parametrize(
        "N", [2, 3, 7, 15, 16, 17, 101, 127, 128, 129, 1000, 1001, 1023, 1024, 1025]
    )
    def test_matches_stage_loop(self, N):
        rng = np.random.default_rng(200 + N)
        for _ in range(4):
            n, m = 5, 3
            sys = LinearSystem(
                A=0.5 * rng.normal(size=(n, n)), B=rng.normal(size=(n, m)),
                t0=0.0, t1=1.5, x0=rng.normal(size=n), x1=rng.normal(size=n),
            )
            for S in ([2, 4], range(1, n + 1)):
                x_ref = stage_loop_reference(sys, S, N)
                x_samples = min_energy_transfer(sys, S, N=N).x_samples
                assert rel_diff(x_samples, x_ref) <= 1e-12

    @pytest.mark.parametrize("N", [2, 3, 7, 15, 16, 17, 101])
    def test_doubling_drive_matches_stage_loop(self, N, monkeypatch):
        # with at most 3 input columns the cost rule keeps every grid above on
        # the stack, so the doubling path is forced on the same systems
        monkeypatch.setattr("reachkit.synth._stack_is_cheaper", lambda N, r, n: False)
        self.test_matches_stage_loop(N)

    @pytest.mark.parametrize(
        "S, dead_rows", [([], []), ([2, 3], [1, 2])], ids=["empty", "zero-rows"]
    )
    def test_zero_input_follows_the_drift(self, S, dead_rows):
        # no input column reaches the batched stages, so only Phi acts
        rng = np.random.default_rng(211)
        n, m, N = 4, 2, 200
        B = rng.normal(size=(n, m))
        B[dead_rows] = 0.0
        sys = LinearSystem(
            A=0.5 * rng.normal(size=(n, n)), B=B, t0=0.0, t1=1.0,
            x0=rng.normal(size=n), x1=rng.normal(size=n),
        )
        result = min_energy_transfer(sys, S, N=N)
        drift = mat_exp(sys.A, 1.0) @ sys.x0
        assert result.u_samples.shape == (N + 1, m)
        assert not result.u_samples.any()
        assert result.gramian_rank == 0
        assert np.allclose(result.x_samples[-1], drift, rtol=1e-9, atol=1e-9)
        assert result.terminal_error == pytest.approx(
            np.linalg.norm(drift - sys.x1), rel=1e-9
        )


class TestReachGramian:
    def test_scalar_integrator_unit_gramian(self):
        W = reach_gramian(scalar_integrator(), [1], N=100)
        assert W.shape == (1, 1)
        assert W[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_empty_set_gives_zero(self):
        W = reach_gramian(star_system(4), [], N=50)
        assert not W.any()

    def test_matches_closed_form_for_nilpotent_dynamics(self):
        # with A @ A = 0 the integrand is a quadratic polynomial in time and
        # integrates to T*C C' + T^2/2 (A C C' + C C' A') + T^3/3 A C C' A'
        rng = np.random.default_rng(101)
        for _ in range(10):
            n = 6
            A = np.zeros((n, n))
            A[:2, 4:] = rng.normal(size=(2, 2))
            A[2:4, 4:] = A[:2, 4:]
            assert not (A @ A).any()
            sys = LinearSystem(
                A=A, B=np.eye(n), t0=0.0, t1=1.5, x0=np.zeros(n), x1=np.zeros(n)
            )
            S = sorted(rng.choice(np.arange(1, n + 1), size=3, replace=False).tolist())
            C = actuation_mask(S, n) @ sys.B
            T = 1.5
            CC = C @ C.T
            analytic = T * CC + T**2 / 2 * (A @ CC + CC @ A.T) + T**3 / 3 * (A @ CC @ A.T)
            W = reach_gramian(sys, S, N=200)
            assert np.allclose(W, analytic, atol=1e-8)

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(103)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            sys, S = feasible_fixture(rng, n)
            W = reach_gramian(sys, S, N=120)
            assert np.allclose(W, W.T, atol=1e-12)
            assert np.linalg.eigvalsh(W).min() >= -1e-10

    @pytest.mark.parametrize("N", [120, 121])
    def test_exactly_symmetric(self, N):
        rng = np.random.default_rng(N)
        for _ in range(10):
            sys, S = feasible_fixture(rng, int(rng.integers(2, 7)))
            W = reach_gramian(sys, S, N=N)
            assert np.array_equal(W, W.T)
        # r = 1: one actuated input column
        for n, S in [(4, [1]), (30, [2])]:
            W = reach_gramian(star_system(n), S, N=N)
            assert np.array_equal(W, W.T)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            reach_gramian(scalar_integrator(), [1], N=1)
        # int() would truncate 10.9 and 3.5, overflow on inf and read True as 1
        for N in (10.9, np.float64(3.5), float("inf"), True):
            with pytest.raises(ValueError, match=r"\bN\b"):
                reach_gramian(star_system(4), [1], N=N)
            with pytest.raises(ValueError, match=r"\bN\b"):
                min_energy_transfer(star_system(4), [1], N=N)

    def test_integral_float_and_short_grids_are_rejected(self):
        N = np.float64(2.0)
        message = re.escape(f"N (grid intervals) is not an integer: {N!r}")
        with pytest.raises(ValueError, match=message):
            reach_gramian(star_system(4), [1], N=N)
        with pytest.raises(ValueError, match=message):
            min_energy_transfer(star_system(4), [1], N=N)
        with pytest.raises(ValueError, match=r"^N \(grid intervals\) must be at least 2, got 1$"):
            reach_gramian(star_system(4), [1], N=np.int64(1))

    def test_numpy_integer_grid_is_accepted(self):
        sys = star_system(4)
        W = reach_gramian(sys, [1], N=np.int64(10))
        assert W.tobytes() == reach_gramian(sys, [1], N=10).tobytes()
        u = min_energy_transfer(sys, [1], N=np.int64(10)).u_samples
        assert u.tobytes() == min_energy_transfer(sys, [1], N=10).u_samples.tobytes()


class TestMinEnergyTransfer:
    def test_scalar_integrator_constant_input(self):
        result = min_energy_transfer(scalar_integrator(), [1], N=100)
        assert np.allclose(result.u_samples, 1.0, atol=1e-9)
        assert result.terminal_error <= 1e-9
        assert result.gramian_rank == 1

    def test_star_transfer_hits_target(self):
        for n in (3, 5, 10):
            result = min_energy_transfer(star_system(n), [1], N=1000)
            assert result.terminal_error <= 1e-3

    def test_unreachable_target_reports_honest_error(self):
        # actuating the hub reaches only the first axis; a spoke target stays
        # a unit distance away
        sys = star_system(5, x1=np.eye(5)[2])
        assert not is_feasible(sys, [1]).feasible
        result = min_energy_transfer(sys, [1], N=400)
        assert result.terminal_error == pytest.approx(1.0, abs=1e-6)

    def test_grid_shape_and_endpoints(self):
        result = min_energy_transfer(star_system(3), [1], N=64)
        assert result.grid.shape == (65,)
        assert result.grid[0] == 0.0 and result.grid[-1] == 1.0
        assert np.all(np.diff(result.grid) > 0)
        assert result.u_samples.shape == (65, 3)
        assert result.x_samples.shape == (65, 3)
        assert np.array_equal(result.x_samples[0], np.zeros(3))

    def test_energy_matches_gramian_quadratic_form(self):
        rng = np.random.default_rng(107)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            sys, S = feasible_fixture(rng, n)
            N = 200
            result = min_energy_transfer(sys, S, N=N)
            energy = simpson(np.sum(result.u_samples**2, axis=1), x=result.grid)
            W = reach_gramian(sys, S, N=N)
            w = sys.x1 - mat_exp(sys.A, 1.0) @ sys.x0
            expected = float(w @ np.linalg.pinv(W, rcond=1e-9, hermitian=True) @ w)
            assert energy == pytest.approx(expected, rel=1e-6)

    def test_zero_offset_transfer_reproduces_drift(self):
        rng = np.random.default_rng(109)
        A = rng.normal(size=(4, 4))
        x0 = rng.normal(size=4)
        x1 = mat_exp(A, 1.0) @ x0
        sys = LinearSystem(A=A, B=np.eye(4), t0=0.0, t1=1.0, x0=x0, x1=x1)
        result = min_energy_transfer(sys, [1, 2], N=500)
        assert not result.u_samples.any()
        assert result.terminal_error <= 1e-6 * np.linalg.norm(x1)

    def test_error_decays_with_grid_refinement(self):
        # oscillatory dynamics so discretization error genuinely dominates
        A = np.array([[0.0, 2.0], [-2.0, 0.0]])
        sys = LinearSystem(
            A=A, B=np.eye(2), t0=0.0, t1=1.0, x0=np.zeros(2), x1=np.array([0.3, 0.7])
        )
        coarse = min_energy_transfer(sys, [1], N=100).terminal_error
        fine = min_energy_transfer(sys, [1], N=1000).terminal_error
        assert fine > 0.0
        assert coarse / fine >= 5.0


def overflowing_system(n=2):
    """``A = diag(50, -1, ..., -1)`` on ``[0, 20]``: ``exp(50 (t1 - tau))``
    reaches ``e^1000`` and overflows the input response."""
    return LinearSystem(
        A=np.diag([50.0] + [-1.0] * (n - 1)), B=np.eye(n), t0=0.0, t1=20.0,
        x0=np.zeros(n), x1=np.ones(n),
    )


def stiff_system():
    """``A = diag(-1000, -1)`` on ``[0, 10]``: at ``N = 100`` the RK4 step
    ``h = 0.1`` gives ``h * 1000 = 100``, outside RK4's stability region."""
    return LinearSystem(
        A=np.diag([-1000.0, -1.0]), B=np.eye(2), t0=0.0, t1=10.0,
        x0=np.ones(2), x1=np.full(2, 0.5),
    )


class TestNotFinite:
    """A synthesis that cannot be computed in floating point raises
    ValueError, never a NaN result, and numpy does not warn on the way."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize("stack", [True, False])
    def test_overflowing_gramian_raises_on_each_path(self, stack, monkeypatch):
        monkeypatch.setattr("reachkit.synth._stack_is_cheaper", lambda N, r, n: stack)
        sys = overflowing_system()
        with pytest.raises(ValueError, match="Gramian is not finite"):
            min_energy_transfer(sys, [1, 2])
        with pytest.raises(ValueError, match="Gramian is not finite"):
            reach_gramian(sys, [1, 2])

    def test_overflowing_gramian_raises_on_the_doubling_path(self):
        # 20 input columns on 1000 intervals: the cost rule picks doubling
        sys = overflowing_system(20)
        assert not _stack_is_cheaper(1000, 20, 20)
        with pytest.raises(ValueError, match="Gramian is not finite"):
            min_energy_transfer(sys, range(1, 21))

    def test_unstable_rk4_check_raises_and_a_finer_grid_cures_it(self):
        with pytest.raises(ValueError, match="terminal state is not finite.*refine N"):
            min_energy_transfer(stiff_system(), [1, 2], N=100)
        # h * 1000 = 0.1, well inside RK4's stability interval (about -2.79, 0)
        result = min_energy_transfer(stiff_system(), [1, 2], N=100_000)
        assert result.terminal_error <= 1e-5

    def test_terminal_error_of_a_huge_target_is_finite(self):
        x1 = np.full(2, 1e200)
        sys = LinearSystem(A=np.zeros((2, 2)), B=np.eye(2), t0=0.0, t1=1.0,
                           x0=np.zeros(2), x1=x1)
        result = min_energy_transfer(sys, [1, 2], N=10)
        # ||x1|| itself overflows a plain sum of squares
        assert np.isfinite(result.terminal_error)
        assert result.terminal_error <= 1e-6 * max(1.0, math.hypot(*x1))


def two_block_system(start=()):
    """An upstream block of nodes 1-5 feeding a downstream block of nodes
    6-8, which does not feed back: ``R([6, 7])`` is the downstream block, so
    synthesis runs on k = 3 of n = 8 rows.

    ``x0`` is nonzero on the 1-based nodes ``start`` and zero elsewhere, and
    ``x1`` is its drift plus a part on the downstream block, which nodes 6
    and 7 reach."""
    rng = np.random.default_rng(521)
    A = 0.5 * rng.normal(size=(8, 8))
    A[:5, 5:] = 0.0
    x1 = np.zeros(8)
    x1[5:] = rng.normal(size=3)
    x0 = np.zeros(8)
    x0[[i - 1 for i in start]] = rng.normal(size=len(start))
    if start:
        x1 += mat_exp(A, 1.0) @ x0
    return LinearSystem(A=A, B=np.eye(8), t0=0.0, t1=1.0, x0=x0, x1=x1)


def scanned_widths(monkeypatch):
    """Record the number of state columns each ``_scan_states`` call gets."""
    widths = []

    def recording(x, P):
        widths.append(x.shape[1])
        return _scan_states(x, P)

    monkeypatch.setattr("reachkit.synth._scan_states", recording)
    return widths


class TestReachedRows:
    """Synthesis runs on the rows of R(S): the input response of the actuated
    nodes never leaves them."""

    def test_two_block_fixture_reaches_the_downstream_block(self):
        from reachkit.system import reached_rows

        sys = two_block_system()
        assert reached_rows(sys, [6, 7]).tolist() == [5, 6, 7]
        assert reached_rows(sys, [1]).tolist() == list(range(8))
        assert reached_rows(sys, []).tolist() == []

    def test_star_exponentiates_one_row(self, monkeypatch):
        shapes = []

        def recording(A, t):
            shapes.append(np.shape(A))
            return mat_exp(A, t)

        monkeypatch.setattr("reachkit.synth.mat_exp", recording)
        sys = star_system(40)
        min_energy_transfer(sys, [1], N=1000)
        reach_gramian(sys, [1], N=1000)
        assert shapes == [(1, 1), (1, 1)]

    def test_gramian_lives_on_the_reach(self):
        sys = two_block_system()
        S, N = [6, 7], 200
        W = reach_gramian(sys, S, N=N)
        off = np.ones((8, 8), dtype=bool)
        off[5:, 5:] = False
        assert not W[off].any()
        assert np.array_equal(W, W.T)
        assert rel_diff(W, propagator_reference(sys, S, N)[0]) <= 1e-12

    @pytest.mark.parametrize("stack", [True, False], ids=["stack", "doubling"])
    @pytest.mark.parametrize("N", [7, 200, 1001])
    def test_transfer_matches_the_references(self, stack, N, monkeypatch):
        sys = two_block_system()
        S = [6, 7]
        _, u_ref, x_ref = propagator_reference(sys, S, N)
        x_loop = stage_loop_reference(sys, S, N)
        monkeypatch.setattr("reachkit.synth._stack_is_cheaper", lambda N, r, n: stack)
        result = min_energy_transfer(sys, S, N=N)
        assert result.gramian_rank == 3
        assert rel_diff(result.u_samples, u_ref) <= 1e-6
        assert rel_diff(result.x_samples, x_ref) <= 1e-6
        assert rel_diff(result.x_samples, x_loop) <= 1e-12

    def test_star_scans_the_reached_state_alone(self, monkeypatch):
        widths = scanned_widths(monkeypatch)
        result = min_energy_transfer(star_system(40), [1], N=1000)
        assert widths == [1]
        assert not result.x_samples[:, 1:].any()
        assert result.terminal_error <= 1e-6

    @pytest.mark.parametrize("stack", [True, False], ids=["stack", "doubling"])
    @pytest.mark.parametrize("N", [7, 200, 1001])
    @pytest.mark.parametrize(
        "start, width", [((6, 7, 8), 3), ((1, 2, 3, 4, 5), 8)], ids=["reached", "upstream"]
    )
    def test_start_state_matches_the_references(self, start, width, stack, N, monkeypatch):
        # a start on R(S) is simulated on its 3 rows; one upstream of it moves
        # and feeds R(S), so all 8 states are simulated
        sys = two_block_system(start)
        S = [6, 7]
        _, u_ref, x_ref = propagator_reference(sys, S, N)
        x_loop = stage_loop_reference(sys, S, N)
        monkeypatch.setattr("reachkit.synth._stack_is_cheaper", lambda N, r, n: stack)
        widths = scanned_widths(monkeypatch)
        result = min_energy_transfer(sys, S, N=N)
        assert widths == [width]
        assert result.gramian_rank == 3
        assert rel_diff(result.u_samples, u_ref) <= 1e-6
        assert rel_diff(result.x_samples, x_ref) <= 1e-6
        assert rel_diff(result.x_samples, x_loop) <= 1e-12
        if width == 3:
            assert not result.x_samples[:, :5].any()
        if N == 1001:
            assert result.terminal_error <= 1e-6 * max(1.0, np.linalg.norm(sys.x1))


def dense_system(n=20):
    """A dense stable system with B = I: every node actuated reaches every
    node, on the doubling path at N = 200."""
    rng = np.random.default_rng(523)
    return LinearSystem(
        A=rng.normal(size=(n, n)) / np.sqrt(n) - np.eye(n), B=np.eye(n),
        t0=0.0, t1=1.0, x0=rng.normal(size=n), x1=rng.normal(size=n),
    )


class TestStackFloats:
    """``_stack_floats`` counts the response stack that ``_gramian`` fills,
    so the CLI's size cap reads the stack synthesis builds."""

    @pytest.mark.parametrize(
        "make, S, N, stack, counted",
        [
            (lambda: star_system(40), [1], 1000, None, (1, 1001 * 1 * 1)),
            (two_block_system, [6, 7], 200, True, (2, 201 * 2 * 3)),
            (two_block_system, [6, 7], 200, False, (2, 0)),
            (dense_system, range(1, 21), 200, None, (20, 0)),
        ],
        ids=["star", "two-block-stack", "two-block-doubling", "dense-doubling"],
    )
    def test_counts_the_stack_gramian_fills(self, make, S, N, stack, counted, monkeypatch):
        if stack is not None:
            monkeypatch.setattr("reachkit.synth._stack_is_cheaper", lambda N, r, n: stack)
        sizes = []

        def recording(*args, **kwargs):
            W, half, R = _gramian(*args, **kwargs)
            sizes.append(0 if R is None else R.size)
            return W, half, R

        monkeypatch.setattr("reachkit.synth._gramian", recording)
        sys = make()
        min_energy_transfer(sys, S, N=N)
        reach_gramian(sys, S, N=N)
        assert _stack_floats(sys, S, N) == counted
        assert sizes == [counted[1]] * 2

    def test_an_empty_node_set_has_no_input_column(self):
        # M(S) B has no column: nothing is stacked, the input is zero and the
        # state stays at x0 = 0, a distance ||x1|| = 1 from the target
        sys = star_system(40)
        assert _stack_floats(sys, [], 1000) == (0, 0)
        res = min_energy_transfer(sys, [], N=1000)
        assert res.u_samples.shape == (1001, 40)
        assert not res.u_samples.any()
        assert res.gramian_rank == 0
        assert res.terminal_error == 1.0


class TestOneShotNodeSets:
    """A node set given as an iterator is read once, so it gives the same
    result as the list of its nodes."""

    def test_gramian_of_an_iterator(self):
        sys = star_system(4)
        W = reach_gramian(sys, iter([1]))
        assert np.array_equal(W, reach_gramian(sys, [1]))
        assert W[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "make, S",
        [(lambda: star_system(40), [1]), (lambda: two_block_system((6, 7, 8)), [6, 7])],
        ids=["star", "two-block"],
    )
    def test_transfer_of_a_generator(self, make, S):
        sys = make()
        want = min_energy_transfer(sys, S, N=200)
        got = min_energy_transfer(sys, (i for i in S), N=200)
        assert np.array_equal(got.u_samples, want.u_samples)
        assert np.array_equal(got.x_samples, want.x_samples)
        assert got.terminal_error == want.terminal_error
        assert got.gramian_rank == want.gramian_rank

    def test_star_iterator_exponentiates_one_row(self, monkeypatch):
        shapes = []

        def recording(A, t):
            shapes.append(np.shape(A))
            return mat_exp(A, t)

        monkeypatch.setattr("reachkit.synth.mat_exp", recording)
        min_energy_transfer(star_system(40), iter([1]), N=1000)
        assert shapes == [(1, 1)]

    def test_every_node_with_input_skips_the_closure(self):
        rng = np.random.default_rng(523)
        n = 20
        sys = LinearSystem(
            A=rng.normal(size=(n, n)) / np.sqrt(n) - np.eye(n), B=np.eye(n),
            t0=0.0, t1=1.0, x0=rng.normal(size=n), x1=rng.normal(size=n),
        )
        min_energy_transfer(sys, range(1, n + 1), N=200)
        reach_gramian(sys, range(1, n + 1), N=200)
        assert "_closure" not in sys.__dict__
        # a zero row of B reaches nothing, so the closure decides R(S)
        B = np.eye(n)
        B[3] = 0.0
        sys = LinearSystem(A=sys.A, B=B, t0=0.0, t1=1.0, x0=sys.x0, x1=sys.x1)
        min_energy_transfer(sys, range(1, n + 1), N=200)
        assert "_closure" in sys.__dict__
