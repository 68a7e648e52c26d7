from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from reachkit.errors import CapacityError, InfeasibleError
from reachkit.hardness import generate
from reachkit.instance_io import load_instance
from reachkit.linalg import mat_exp
from reachkit.solvers import (
    VarSelInstance,
    check_varsel_solution,
    exact_min_reach,
    fit_support,
    greedy_min_reach,
    varsel_exact,
)
from reachkit.system import LinearSystem, is_feasible, star_system, transfer_offset

from helpers import plant_instance, random_source_matrix

FIXTURES = Path(__file__).parent / "fixtures"

COUNTEREXAMPLE_M = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def lstsq_varsel(inst):
    """Reference support scan with its own least-squares fit per support;
    returns ``(y, support, norm0, residual)`` or None when no support fits."""
    m, l = inst.U.shape
    for k in range(l + 1):
        for support in combinations(range(1, l + 1), k):
            if k == 0:
                residual = float(np.linalg.norm(inst.z))
                coef = np.zeros(0)
            else:
                cols = inst.U[:, [j - 1 for j in support]]
                coef, *_ = np.linalg.lstsq(cols, inst.z, rcond=None)
                residual = float(np.linalg.norm(cols @ coef - inst.z))
            if inst.fits(residual):
                y = np.zeros(l)
                for j, c in zip(support, coef):
                    y[j - 1] = c
                return y, support, k, residual
    return None


def brute_force_optimum(sys):
    """Independent referee: scan all 2^n subsets, return minimal feasible size."""
    best = None
    for mask in range(2 ** sys.n):
        S = [i + 1 for i in range(sys.n) if mask >> i & 1]
        if is_feasible(sys, S).feasible:
            if best is None or len(S) < best:
                best = len(S)
    return best


class TestExactMinReach:
    def test_star_needs_one_node(self):
        for n in (3, 5, 10):
            result = exact_min_reach(star_system(n))
            assert result.nodes == (1,)
            assert result.cardinality == 1
            assert result.feasible and result.optimal

    def test_drift_only_transfer_needs_nothing(self):
        rng = np.random.default_rng(61)
        A = rng.normal(size=(4, 4))
        x0 = rng.normal(size=4)
        sys = LinearSystem(A=A, B=np.eye(4), t0=0.0, t1=1.5, x0=x0, x1=mat_exp(A, 1.5) @ x0)
        result = exact_min_reach(sys)
        assert result.nodes == ()
        assert result.cardinality == 0

    def test_generated_identity_instance_needs_both_columns(self):
        inst = generate(np.eye(2), d=2)
        assert brute_force_optimum(inst.sys) == 2
        result = exact_min_reach(inst.sys)
        assert result.cardinality == 2
        assert result.nodes == (5, 6)

    def test_optimality_matches_brute_force(self):
        rng = np.random.default_rng(67)
        for _ in range(15):
            n = int(rng.integers(3, 6))
            A = rng.normal(size=(n, n)) * (rng.random(size=(n, n)) < 0.4)
            x1 = rng.integers(0, 2, size=n).astype(float)
            sys = LinearSystem(A=A, B=np.eye(n), t0=0.0, t1=1.0, x0=np.zeros(n), x1=x1)
            assert exact_min_reach(sys).cardinality == brute_force_optimum(sys)

    def test_lexicographically_least_witness(self):
        # both {1} and {2} are feasible for the star target; {1} wins
        result = exact_min_reach(star_system(4))
        assert result.nodes == (1,)
        assert is_feasible(star_system(4), [2]).feasible

    def test_cap_requires_budget(self):
        sys = star_system(25)
        with pytest.raises(CapacityError):
            exact_min_reach(sys)
        assert exact_min_reach(sys, budget=2).nodes == (1,)

    def test_budget_exhaustion_is_explicit(self):
        # the all-ones target needs every node of a driftless system
        n = 5
        sys = LinearSystem(
            A=np.zeros((n, n)), B=np.eye(n), t0=0.0, t1=1.0, x0=np.zeros(n), x1=np.ones(n)
        )
        with pytest.raises(InfeasibleError):
            exact_min_reach(sys, budget=3)
        assert exact_min_reach(sys).cardinality == n

    def test_globally_infeasible_is_explicit(self):
        # input only enters node 1, target needs node 2 of a driftless system
        sys = LinearSystem(
            A=np.zeros((2, 2)),
            B=np.array([[1.0], [0.0]]),
            t0=0.0,
            t1=1.0,
            x0=np.zeros(2),
            x1=np.array([0.0, 1.0]),
        )
        with pytest.raises(InfeasibleError):
            exact_min_reach(sys)


class TestGreedyMinReach:
    def test_star_zeroes_residual_immediately(self):
        result = greedy_min_reach(star_system(5))
        assert result.nodes == (1,)
        assert result.feasible
        assert not result.optimal

    def test_full_set_instance(self):
        n = 4
        sys = LinearSystem(
            A=np.zeros((n, n)), B=np.eye(n), t0=0.0, t1=1.0, x0=np.zeros(n), x1=np.ones(n)
        )
        exact = exact_min_reach(sys)
        greedy = greedy_min_reach(sys)
        assert exact.cardinality == n
        assert greedy.cardinality == n
        assert greedy.feasible

    def test_gap_fixture_beats_greedy(self):
        # persisted instance found by seeded random search with the exact
        # solver as referee: greedy needs strictly more nodes
        doc = load_instance(FIXTURES / "greedy_gap.json")
        exact = exact_min_reach(doc.system)
        greedy = greedy_min_reach(doc.system)
        assert greedy.feasible
        assert greedy.cardinality > exact.cardinality

    def test_never_beats_exact(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            n = int(rng.integers(3, 6))
            A = rng.normal(size=(n, n)) * (rng.random(size=(n, n)) < 0.4)
            x1 = rng.integers(0, 2, size=n).astype(float)
            sys = LinearSystem(A=A, B=np.eye(n), t0=0.0, t1=1.0, x0=np.zeros(n), x1=x1)
            exact = exact_min_reach(sys)
            greedy = greedy_min_reach(sys)
            assert greedy.cardinality >= exact.cardinality

    def test_residual_non_increasing_across_iterations(self):
        # greedy is deterministic, so truncated runs are prefixes of longer ones
        doc = load_instance(FIXTURES / "greedy_gap.json")
        residuals = [
            greedy_min_reach(doc.system, max_iters=k).residual_sq for k in range(5)
        ]
        for before, after in zip(residuals, residuals[1:]):
            assert after <= before + 1e-12

    def test_max_iters_caps_additions(self):
        doc = load_instance(FIXTURES / "greedy_gap.json")
        result = greedy_min_reach(doc.system, max_iters=1)
        assert result.cardinality == 1
        assert not result.feasible

    def test_stall_reports_infeasible_instead_of_raising(self):
        # input only reaches node 1 but the target lives on node 2, so no
        # addition ever improves the residual and greedy stops empty-handed
        sys = LinearSystem(
            A=np.zeros((3, 3)),
            B=np.array([[1.0], [0.0], [0.0]]),
            t0=0.0,
            t1=1.0,
            x0=np.zeros(3),
            x1=np.array([0.0, 1.0, 0.0]),
        )
        result = greedy_min_reach(sys)
        assert not result.feasible
        assert result.nodes == ()
        assert result.residual_sq == pytest.approx(1.0, abs=1e-12)


class TestVarselExact:
    def test_identity_single_support(self):
        inst = VarSelInstance(U=np.eye(3), z=np.array([1.0, 0.0, 0.0]), delta=0.0)
        result = varsel_exact(inst)
        assert result.support == (1,)
        assert result.norm0 == 1

    def test_counterexample_dictionary_exact_fit_needs_all(self):
        inst = VarSelInstance(U=COUNTEREXAMPLE_M, z=np.array([-1.0, 1.0, 1.0]), delta=0.0)
        result = varsel_exact(inst)
        assert result.support == (1, 2, 3)
        assert result.norm0 == 3

    def test_counterexample_dictionary_with_unit_budget(self):
        z = np.array([-1.0, 1.0, 1.0])
        # independent oracle: enumerate every support of size <= 2 and check
        # the least-squares residual against the budget
        feasible_small = []
        for k in (0, 1, 2):
            for support in combinations(range(3), k):
                cols = COUNTEREXAMPLE_M[:, list(support)]
                if k == 0:
                    resid = float(np.linalg.norm(z))
                else:
                    coef, *_ = np.linalg.lstsq(cols, z, rcond=None)
                    resid = float(np.linalg.norm(cols @ coef - z))
                if resid <= 1.0 + 1e-9:
                    feasible_small.append(tuple(j + 1 for j in support))
        assert feasible_small == [(1, 2)]
        inst = VarSelInstance(U=COUNTEREXAMPLE_M, z=z, delta=1.0)
        result = varsel_exact(inst)
        assert result.support == (1, 2)
        assert result.residual == pytest.approx(1.0, abs=1e-9)

    def test_zero_vector_budget_met_by_empty_support(self):
        inst = VarSelInstance(U=np.eye(2), z=np.zeros(2), delta=0.0)
        result = varsel_exact(inst)
        assert result.support == ()
        assert result.norm0 == 0

    def test_infeasible_budget_is_explicit(self):
        inst = VarSelInstance(
            U=np.array([[1.0], [1.0]]), z=np.array([1.0, -1.0]), delta=0.1
        )
        with pytest.raises(InfeasibleError):
            varsel_exact(inst)

    def test_cap_enforced(self):
        inst = VarSelInstance(U=np.zeros((2, 21)), z=np.zeros(2), delta=1.0)
        with pytest.raises(CapacityError):
            varsel_exact(inst)

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            VarSelInstance(U=np.eye(2), z=np.zeros(2), delta=-1.0)


class TestCheckVarselSolution:
    def test_accepts_what_varsel_exact_returns(self):
        rng = np.random.default_rng(71)
        for _ in range(30):
            U, _ = plant_instance(rng, 4, 6, 2)
            inst = VarSelInstance(U=U, z=np.ones(4), delta=float(rng.choice([0.0, 0.5])))
            result = varsel_exact(inst)
            check = check_varsel_solution(inst, result.y)
            assert check.fits
            assert check.norm0 <= result.norm0
            assert check.residual == pytest.approx(result.residual, abs=1e-9)

    def test_slack_is_relative_to_target_norm(self):
        inst = VarSelInstance(U=np.eye(2), z=np.array([1e6, 0.0]), delta=0.0)
        # feas_rel * ||z|| = 1e-3 absorbs a fit error of 5e-4 but not 2e-3
        assert check_varsel_solution(inst, [1e6 - 5e-4, 0.0]).fits
        assert not check_varsel_solution(inst, [1e6 - 2e-3, 0.0]).fits

    def test_tiny_entries_leave_the_support(self):
        inst = VarSelInstance(U=np.eye(3), z=np.array([1.0, 0.0, 0.0]), delta=0.0)
        check = check_varsel_solution(inst, [1.0, 1e-13, 0.0])
        assert check.norm0 == 1
        assert check.fits

    def test_rejects_wrong_length(self):
        inst = VarSelInstance(U=np.eye(3), z=np.ones(3), delta=0.0)
        with pytest.raises(ValueError):
            check_varsel_solution(inst, [1.0, 1.0])


class TestFitSupport:
    def test_scatters_coefficients_off_support_zero(self):
        U = np.array([[1.0, 5.0, 0.0], [0.0, 5.0, 2.0]])
        y, residual = fit_support(U, (1, 3), np.array([3.0, 4.0]))
        assert np.allclose(y, [3.0, 0.0, 2.0])
        assert residual == pytest.approx(0.0, abs=1e-12)

    def test_empty_support_calls_no_lstsq(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("lstsq called for an empty support")

        monkeypatch.setattr(np.linalg, "lstsq", fail)
        y, residual = fit_support(np.ones((2, 3)), (), np.array([3.0, 4.0]))
        assert not y.any() and y.shape == (3,)
        assert residual == 5.0

    def test_varsel_matches_per_support_lstsq(self):
        rng = np.random.default_rng(113)
        for _ in range(80):
            U = random_source_matrix(rng)
            z = np.ones(U.shape[0]) if rng.random() < 0.5 else rng.normal(size=U.shape[0])
            inst = VarSelInstance(U=U, z=z, delta=float(rng.choice([0.0, 1e-3, 0.5])))
            ref = lstsq_varsel(inst)
            if ref is None:
                with pytest.raises(InfeasibleError):
                    varsel_exact(inst)
                continue
            result = varsel_exact(inst)
            assert result.support == ref[1]
            assert result.norm0 == ref[2]
            np.testing.assert_allclose(result.y, ref[0], rtol=1e-12, atol=0)
            np.testing.assert_allclose(result.residual, ref[3], rtol=1e-12, atol=0)


class TestTransferOffset:
    def test_cached_offset_is_transfer_offset(self):
        rng = np.random.default_rng(127)
        A = rng.normal(size=(4, 4))
        sys = LinearSystem(
            A=A, B=np.eye(4), t0=0.5, t1=2.0, x0=rng.normal(size=4), x1=rng.normal(size=4)
        )
        assert np.array_equal(sys.offset, transfer_offset(sys))
        assert sys.offset is sys.offset

    def test_greedy_solve_computes_offset_once(self, monkeypatch):
        import reachkit.system

        calls = []
        original = reachkit.system.transfer_offset

        def counting(sys):
            calls.append(sys)
            return original(sys)

        monkeypatch.setattr(reachkit.system, "transfer_offset", counting)
        sys = generate(np.array([[1.0, 0.0], [1.0, 1.0]]), d=3).sys
        result = greedy_min_reach(sys)
        assert result.nodes_explored > 1
        assert len(calls) == 1
