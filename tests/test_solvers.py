import re
import tracemalloc
from functools import reduce
from itertools import combinations
from math import comb
from operator import or_
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import block_diag

import reachkit.linalg
import reachkit.solvers
from reachkit.errors import CapacityError, InfeasibleError
from reachkit.hardness import generate
from reachkit.instance_io import load_instance
from reachkit.linalg import DEFAULT_TOL, Tolerance, dist_sq_to_ranges, mat_exp
from reachkit.solvers import (
    DEFAULT_EXACT_CAP,
    GREEDY_IMPROVEMENT_EPS,
    SolveResult,
    VarSelInstance,
    check_varsel_solution,
    exact_min_reach,
    fit_support,
    greedy_min_reach,
    varsel_exact,
)
from reachkit.system import LinearSystem, is_feasible, star_system, transfer_offset

from helpers import plant_instance, planted_varsel, random_source_matrix

FIXTURES = Path(__file__).parent / "fixtures"

# int() would truncate 1.7 to 1 and read True as 1
NOT_COUNTS = [1.7, True, np.float64(2.0)]

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


def unpruned_exact(sys, tol=DEFAULT_TOL, budget=None, cap=DEFAULT_EXACT_CAP):
    """Reference exact search without the structural prune: every subset by
    size, then lexicographically, each decided by ``is_feasible``."""
    n = sys.n
    if budget is None and n > cap:
        raise CapacityError(
            f"exact enumeration over {n} nodes exceeds the cap of {cap}; "
            "pass a cardinality budget to proceed"
        )
    kmax = n if budget is None else min(int(budget), n)
    if kmax < 0:
        raise ValueError("budget must be nonnegative")
    explored = 0
    for k in range(kmax + 1):
        for S in combinations(range(1, n + 1), k):
            explored += 1
            verdict = is_feasible(sys, S, tol)
            if verdict.feasible:
                return SolveResult(
                    nodes=S,
                    cardinality=k,
                    residual_sq=verdict.residual_sq,
                    feasible=True,
                    optimal=True,
                    nodes_explored=explored,
                )
    if budget is not None and kmax < n:
        raise InfeasibleError(
            f"no feasible actuated set of cardinality <= {kmax} (budget exhausted)"
        )
    raise InfeasibleError("transfer is infeasible even with every node actuated")


def unpruned_greedy(sys, tol=DEFAULT_TOL, max_iters=None):
    """Reference greedy scan that evaluates every candidate of every round."""
    n = sys.n
    iters = n if max_iters is None else min(int(max_iters), n)
    selected = []
    current = is_feasible(sys, selected, tol)
    explored = 0
    while not current.feasible and len(selected) < iters:
        best_node = None
        best = None
        for i in range(1, n + 1):
            if i in selected:
                continue
            explored += 1
            verdict = is_feasible(sys, selected + [i], tol)
            if best is None or verdict.residual_sq < best.residual_sq:
                best_node, best = i, verdict
        if (
            best_node is None
            or current.residual_sq - best.residual_sq <= GREEDY_IMPROVEMENT_EPS
        ):
            break
        selected.append(best_node)
        current = best
    return SolveResult(
        nodes=tuple(sorted(selected)),
        cardinality=len(selected),
        residual_sq=current.residual_sq,
        feasible=current.feasible,
        optimal=False,
        nodes_explored=explored,
    )


def random_input_matrix(rng, n):
    """Identity, diagonal with tiny and zero entries, dense, or one input
    broadcast to every node (not node-local: ``M(S)B`` mixes the rows of
    ``S``)."""
    kind = rng.integers(4)
    if kind == 0:
        return np.eye(n)
    if kind == 1:
        return np.diag(rng.choice([1.0, 1e-11, 0.0], size=n, p=[0.6, 0.2, 0.2]))
    if kind == 2:
        return rng.normal(size=(n, int(rng.integers(1, 4))))
    return rng.choice([-1.0, 1.0], size=(n, 1))


def random_solver_system(rng):
    """Sparse ``A`` scaled by 1e-3, 1 or 1e3 (with the time window scaled
    back), a random ``B`` and, 40% of the time, a nonzero start state.  The
    target is reachable from a random node set, a random vector, or a 0/1
    vector."""
    n = int(rng.integers(2, 7))
    c = float(rng.choice([1e-3, 1.0, 1e3]))
    A = c * rng.normal(size=(n, n)) * (rng.random(size=(n, n)) < 0.3)
    B = random_input_matrix(rng, n)
    kind = rng.integers(3)
    if kind == 0:
        T = rng.random(size=n) < 0.5
        block = B * T[:, None]
        x1 = np.zeros(n)
        for _ in range(int(rng.integers(1, n + 1))):
            x1 += block @ rng.normal(size=B.shape[1])
            block = A @ block
    elif kind == 1:
        x1 = rng.normal(size=n)
    else:
        x1 = rng.integers(0, 2, size=n).astype(float)
    x0 = rng.normal(size=n) if rng.random() < 0.4 else np.zeros(n)
    return LinearSystem(A=A, B=B, t0=0.0, t1=1.0 / c, x0=x0, x1=x1)


def prefix_difference_sets_through(S, n):
    """Reference for ``_sets_through``: every smaller set, plus, position by
    position, the sets of ``S``'s size that agree with it before ``p`` and
    hold a node strictly between ``S[p - 1]`` and ``S[p]`` there."""
    k = len(S)
    count = sum(comb(n, size) for size in range(k)) + 1
    prev = -1
    for p, c in enumerate(S):
        count += comb(n - prev - 1, k - p) - comb(n - c, k - p)
        prev = c
    return count


def outcome(solve, *args, **kwargs):
    try:
        return solve(*args, **kwargs)
    except (InfeasibleError, CapacityError, ValueError) as exc:
        return type(exc), str(exc)


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

    def test_subnormal_feasibility_threshold_matches_is_feasible(self):
        # 1e-160 squared is subnormal, yet positive: the prune threshold
        # 4 feas_rel**2 still passes the star's empty offsets
        tol = Tolerance(feas_rel=1e-160)
        assert 0.0 < tol.feas_rel**2 < np.finfo(float).tiny
        assert exact_min_reach(star_system(5), tol=tol).nodes == (1,)
        assert is_feasible(star_system(5), [1], tol).feasible

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


    @pytest.mark.parametrize("key", ["budget", "cap"])
    @pytest.mark.parametrize("value", NOT_COUNTS)
    def test_non_integer_budget_and_cap_are_rejected(self, key, value):
        message = re.escape(f"{key} is not an integer: {value!r}")
        with pytest.raises(ValueError, match=message):
            exact_min_reach(star_system(4), **{key: value})

    def test_numpy_integer_budget_and_cap_are_accepted(self):
        sys = star_system(25)
        assert exact_min_reach(sys, budget=np.int64(2)) == exact_min_reach(sys, budget=2)
        assert exact_min_reach(star_system(4), cap=np.int64(4)).nodes == (1,)
        with pytest.raises(CapacityError, match="cap of 24"):
            exact_min_reach(sys, cap=np.int64(24))

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="^cap must be nonnegative$"):
            exact_min_reach(star_system(4), cap=-1)
        with pytest.raises(ValueError, match="^cap must be nonnegative$"):
            exact_min_reach(star_system(4), budget=1, cap=-1)


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

    def test_rejects_negative_max_iters(self):
        doc = load_instance(FIXTURES / "greedy_gap.json")
        with pytest.raises(ValueError, match="max_iters must be nonnegative"):
            greedy_min_reach(doc.system, max_iters=-1)
        result = greedy_min_reach(doc.system, max_iters=0)
        assert (result.nodes, result.feasible) == ((), False)

    @pytest.mark.parametrize("value", NOT_COUNTS)
    def test_non_integer_max_iters_is_rejected(self, value):
        doc = load_instance(FIXTURES / "greedy_gap.json")
        message = re.escape(f"max_iters is not an integer: {value!r}")
        with pytest.raises(ValueError, match=message):
            greedy_min_reach(doc.system, max_iters=value)

    def test_numpy_integer_max_iters_is_accepted(self):
        doc = load_instance(FIXTURES / "greedy_gap.json")
        for k in range(3):
            assert greedy_min_reach(doc.system, max_iters=np.int64(k)) == greedy_min_reach(
                doc.system, max_iters=k
            )

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

    def test_negative_cap_rejected(self):
        inst = VarSelInstance(U=np.eye(2), z=np.ones(2), delta=0.0)
        with pytest.raises(ValueError, match="^cap must be nonnegative$"):
            varsel_exact(inst, cap=-1)
        empty = VarSelInstance(U=np.zeros((2, 0)), z=np.zeros(2), delta=0.0)
        assert varsel_exact(empty, cap=0).support == ()

    @pytest.mark.parametrize("value", NOT_COUNTS + [3.5])
    def test_non_integer_cap_is_rejected(self, value):
        inst = VarSelInstance(U=np.eye(2), z=np.ones(2), delta=0.0)
        message = re.escape(f"cap is not an integer: {value!r}")
        with pytest.raises(ValueError, match=message):
            varsel_exact(inst, cap=value)

    def test_numpy_integer_cap_is_accepted(self):
        inst = VarSelInstance(U=np.eye(2), z=np.ones(2), delta=0.0)
        assert varsel_exact(inst, cap=np.int64(2)).support == (1, 2)
        with pytest.raises(CapacityError, match="cap of 1"):
            varsel_exact(inst, cap=np.int64(1))

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

    def test_support_rule_is_relative_to_the_largest_entry(self):
        # U scaled by 1e13 scales every coefficient of y by 1e-13
        rng = np.random.default_rng(73)
        for trial in range(30):
            inst = planted_varsel(rng, 6, 10, trial % 3 + 1)
            scaled = VarSelInstance(U=inst.U * 1e13, z=inst.z, delta=inst.delta)
            result = varsel_exact(scaled)
            assert check_varsel_solution(scaled, result.y).support == result.support

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


def awkward_dictionary(rng, m, l):
    """Gaussian columns, then a zero column, a duplicate column and columns
    that are near-combinations of others (singular-value ratios 1e-16 to
    1e-8), at random positions."""
    U = rng.normal(size=(m, l))
    j = rng.permutation(l)
    U[:, j[0]] = 0.0
    U[:, j[1]] = U[:, j[2]]
    ratio = 10.0 ** rng.uniform(-16, -8)
    U[:, j[3]] = U[:, j[4]] + ratio * rng.normal(size=m)
    if l > 6:
        ratio = 10.0 ** rng.uniform(-16, -8)
        U[:, j[5]] = U[:, j[2]] - U[:, j[4]] + ratio * rng.normal(size=m)
    return U


def recorded_varsel(monkeypatch):
    """Record the supports ``varsel_exact`` fits; the function returned maps
    an instance to its answer (``(support, y bytes, residual)``, or None when
    infeasible) and the supports fitted, in order."""
    fitted = []
    fit = reachkit.solvers.fit_support

    def recording(U, support, target):
        fitted.append(tuple(support))
        return fit(U, support, target)

    def run(inst):
        fitted.clear()
        try:
            result = varsel_exact(inst)
        except InfeasibleError:
            return None, list(fitted)
        return (result.support, result.y.tobytes(), result.residual), list(fitted)

    monkeypatch.setattr(reachkit.solvers, "fit_support", recording)
    return run


class TestVarselScreen:
    def test_planted_instance_fits_one_support(self, monkeypatch):
        inst = planted_varsel(np.random.default_rng(5), 8, 12, 3)
        calls = []
        lstsq = np.linalg.lstsq

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", counting)
        result = varsel_exact(inst)
        assert result.support == (10, 11, 12)
        assert calls == [(8, 3)]

    @pytest.mark.parametrize("delta", [0.0, 1e-3, 0.5])
    def test_matches_unscreened_scan_on_awkward_dictionaries(self, delta):
        rng = np.random.default_rng({0.0: 211, 1e-3: 223, 0.5: 227}[delta])
        for trial in range(60):
            m = int(rng.integers(2, 7))
            l = int(rng.integers(5, 9))
            U = awkward_dictionary(rng, m, l)
            if trial % 3 == 0:
                z = rng.normal(size=m)
            else:
                # a combination of a few columns, dependent ones included
                z = U[:, rng.choice(l, size=trial % 3 + 1, replace=False)].sum(axis=1)
            inst = VarSelInstance(U=U, z=z, delta=delta)
            ref = lstsq_varsel(inst)
            if ref is None:
                with pytest.raises(InfeasibleError):
                    varsel_exact(inst)
                continue
            result = varsel_exact(inst)
            assert result.support == ref[1]
            assert result.norm0 == ref[2]
            assert np.array_equal(result.y, ref[0])
            assert result.residual == ref[3]

    def test_ill_conditioned_fit_below_its_bound_is_kept(self):
        # span{a, a + t e2} is the e1-e2 plane, at distance 0.5 from z; with
        # t = 1e-13 or 1e-14 lstsq's coefficients reach 1/t, and the residual
        # it computes lands a few 1e-3 off 0.5, below the bound as often as
        # above it
        undercut = 0
        for seed in range(20):
            R, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
            for t in (1e-13, 1e-14):
                U = R @ np.array([[1.0, 1.0], [0.0, t], [0.0, 0.0]])
                z = R @ np.array([2.0, 1.0, 0.5])
                _, fitted = fit_support(U, (1, 2), z)
                inst = VarSelInstance(U=U, z=z, delta=fitted)
                bound = np.sqrt(dist_sq_to_ranges(z, U[None], np.finfo(float).eps)[0])
                undercut += bool(bound > fitted + 2 * DEFAULT_TOL.feas_rel * np.linalg.norm(z))
                result = varsel_exact(inst)
                assert result.support == (1, 2)
                assert result.residual == fitted
        assert undercut

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_overflowing_target_norm_matches_unscreened_scan(self):
        # ||z|| overflows, so the budget is infinite and the empty support
        # fits with an infinite residual, screened or not
        for z in ([1e200, 0.0], [1e160, 3.0]):
            for U in (np.eye(2), np.array([[1.0], [0.0]]), np.zeros((2, 1))):
                inst = VarSelInstance(U=U, z=np.array(z), delta=0.0)
                ref = lstsq_varsel(inst)
                result = varsel_exact(inst)
                assert (result.support, result.residual) == (ref[1], ref[3]) == ((), np.inf)

    def test_small_chunks_keep_the_lexicographic_order(self, monkeypatch):
        rng = np.random.default_rng(229)
        cases = []
        for _ in range(20):
            U = awkward_dictionary(rng, 4, 7)
            inst = VarSelInstance(U=U, z=rng.normal(size=4), delta=float(rng.choice([0.0, 0.5])))
            cases.append((inst, lstsq_varsel(inst)))
        fitted = []
        fit = reachkit.solvers.fit_support

        def recording(U, support, target):
            fitted.append(tuple(support))
            return fit(U, support, target)

        monkeypatch.setattr(reachkit.linalg, "STACK_SUBSETS", 3)
        monkeypatch.setattr(reachkit.solvers, "fit_support", recording)
        for inst, ref in cases:
            fitted.clear()
            if ref is None:
                with pytest.raises(InfeasibleError):
                    varsel_exact(inst)
                continue
            result = varsel_exact(inst)
            assert (result.support, result.norm0) == ref[1:3]
            assert np.array_equal(result.y, ref[0])
            # fits happen in scan order, ending at the answer
            order = [(len(s), s) for s in fitted]
            assert order == sorted(set(order))
            assert fitted[-1] == result.support

    def test_memory_stays_below_one_size_stack(self):
        m, l, k = 200, 20, 5
        inst = planted_varsel(np.random.default_rng(233), m, l, k)
        whole = comb(l, k) * m * k * 8  # bytes of one unchunked size-5 stack
        tracemalloc.start()
        try:
            result = varsel_exact(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.support == tuple(range(l - k + 1, l + 1))
        assert comb(l, k) > reachkit.linalg.STACK_SUBSETS
        assert peak < whole / 2

    def test_lattice_fits_the_supports_the_bound_fits(self, monkeypatch):
        # SAFETY * eps = inf certifies nothing, so every support gets the
        # batched-SVD bound; the lattice's verdicts must be the bound's
        rng = np.random.default_rng(239)
        cases = []
        for trial in range(60):
            m, l = int(rng.integers(2, 7)), int(rng.integers(5, 9))
            U = awkward_dictionary(rng, m, l)
            if trial % 2:
                z = rng.normal(size=m)
            else:
                z = U[:, rng.choice(l, size=trial % 3 + 1, replace=False)].sum(axis=1)
            cases.append(VarSelInstance(U=U, z=z, delta=float(rng.choice([0.0, 1e-3, 0.5]))))
        run = recorded_varsel(monkeypatch)
        runs = [run(inst) for inst in cases]
        monkeypatch.setattr(reachkit.setfun, "SAFETY", np.inf)
        for inst, default in zip(cases, runs):
            assert run(inst) == default
            ref = lstsq_varsel(inst)
            if ref is None:
                assert default[0] is None
            else:
                assert default[0] == (ref[1], ref[0].tobytes(), ref[3])

    # 150 floats hold the first level of these dictionaries and 600 the
    # first two; the planted supports of sizes 3 and 4 lie past the walk
    @pytest.mark.parametrize("budget", [150, 600])
    @pytest.mark.filterwarnings("error")
    def test_lowered_walk_budget_gives_the_same_results(self, monkeypatch, budget):
        rng = np.random.default_rng(257)
        cases = [planted_varsel(rng, m, l, k) for m, l, k in ((6, 10, 2), (6, 10, 3), (5, 8, 3), (4, 8, 4))]
        for _ in range(4):
            U = awkward_dictionary(rng, 5, 8)
            cases.append(VarSelInstance(U=U, z=rng.normal(size=5), delta=float(rng.choice([1e-3, 0.5]))))
        zero = np.zeros((4, 8))
        cases.append(VarSelInstance(U=zero, z=rng.normal(size=4), delta=0.0))
        cases.append(VarSelInstance(U=zero, z=np.zeros(4), delta=0.0))
        run = recorded_varsel(monkeypatch)
        runs = [run(inst) for inst in cases]
        assert runs[-2] == (None, [])
        assert runs[-1] == (((), np.zeros(8).tobytes(), 0.0), [()])
        monkeypatch.setattr(reachkit.linalg, "STACK_ENTRIES", budget)
        for inst, default in zip(cases, runs):
            assert run(inst) == default

    def test_planted_instance_needs_no_svd(self, monkeypatch):
        inst = planted_varsel(np.random.default_rng(241), 8, 16, 3)
        calls = {"svd": 0, "lstsq": 0}
        svd, lstsq = np.linalg.svd, np.linalg.lstsq

        def counting_svd(*args, **kwargs):
            calls["svd"] += 1
            return svd(*args, **kwargs)

        def counting_lstsq(*args, **kwargs):
            calls["lstsq"] += 1
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
        assert varsel_exact(inst).support == (14, 15, 16)
        assert calls == {"svd": 0, "lstsq": 1}


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


BROADCAST = LinearSystem(
    A=np.zeros((2, 2)), B=np.array([[1.0], [1.0]]), t0=0.0, t1=1.0,
    x0=np.zeros(2), x1=np.array([1.0, 0.0]),
)


class TestSetsThrough:
    """``nodes_pruned`` of the exact search rests on ``_sets_through``, the
    1-based position of a set in the cardinality-ordered scan."""

    def test_positions_in_the_scan_order(self):
        for n in range(1, 8):
            scan = [S for k in range(n + 1) for S in combinations(range(n), k)]
            for position, S in enumerate(scan):
                assert reachkit.solvers._sets_through(S, n) == position + 1

    def test_matches_the_prefix_differences_at_n_200(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            S = sorted(rng.choice(200, size=int(rng.integers(13)), replace=False).tolist())
            assert reachkit.solvers._sets_through(S, 200) == prefix_difference_sets_through(S, 200)


class TestStructuralPrune:
    """The pruned solvers against the unpruned reference scans."""

    @staticmethod
    def assert_same(result, ref):
        if isinstance(ref, tuple):
            assert result == ref
            return
        assert result.nodes == ref.nodes
        assert result.cardinality == ref.cardinality
        assert result.feasible == ref.feasible
        assert result.residual_sq == ref.residual_sq  # bit-equal
        assert result.nodes_explored <= ref.nodes_explored
        # every candidate the reference evaluated was evaluated or pruned
        assert result.nodes_explored + result.nodes_pruned == ref.nodes_explored

    def test_matches_unpruned_scans_on_random_systems(self):
        rng = np.random.default_rng(131)
        systems = [BROADCAST] + [random_solver_system(rng) for _ in range(320)]
        kinds = set()
        for sys in systems:
            budget = None if rng.random() < 0.7 else int(rng.integers(0, sys.n))
            exact = outcome(exact_min_reach, sys, budget=budget)
            self.assert_same(exact, outcome(unpruned_exact, sys, budget=budget))
            max_iters = None if rng.random() < 0.8 else int(rng.integers(0, sys.n))
            greedy = outcome(greedy_min_reach, sys, max_iters=max_iters)
            self.assert_same(greedy, outcome(unpruned_greedy, sys, max_iters=max_iters))
            kinds.add(exact[0] if isinstance(exact, tuple) else exact.cardinality)
        # the draw covers both infeasible messages and several optimal sizes
        assert {InfeasibleError, 0, 1, 2, 3} <= kinds

    def test_broadcast_input_keeps_the_single_node(self):
        # {1} is feasible and {1, 2} is not: M({1,2})B = e1 + e2
        assert is_feasible(BROADCAST, [1]).feasible
        assert not is_feasible(BROADCAST, [1, 2]).feasible
        assert exact_min_reach(BROADCAST).nodes == (1,)
        assert greedy_min_reach(BROADCAST).nodes == (1,)

    def test_matches_unpruned_scans_on_generated_instances(self):
        rng = np.random.default_rng(137)
        for _ in range(6):
            U = random_source_matrix(rng)
            sys = generate(U, d=2).sys
            budget = min(sys.n, 3)
            self.assert_same(
                outcome(exact_min_reach, sys, budget=budget),
                outcome(unpruned_exact, sys, budget=budget),
            )
            self.assert_same(greedy_min_reach(sys), unpruned_greedy(sys))

    def test_infeasible_full_set_evaluates_nothing(self, monkeypatch):
        # node 3 carries no input and nothing drives it, yet the target needs it
        import reachkit.solvers

        calls = []
        original = reachkit.solvers.is_feasible

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(reachkit.solvers, "is_feasible", counting)
        A = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        B = np.diag([1.0, 1.0, 0.0])
        sys = LinearSystem(A=A, B=B, t0=0.0, t1=1.0, x0=np.zeros(3), x1=np.ones(3))
        with pytest.raises(InfeasibleError, match="every node actuated"):
            exact_min_reach(sys)
        with pytest.raises(InfeasibleError, match="budget exhausted"):
            exact_min_reach(sys, budget=1)
        assert calls == []

    def test_pruned_count_covers_skipped_subsets(self):
        # the star target e1 is only reached through node 1: every subset
        # without node 1 is pruned, {1} is the one evaluated set
        result = exact_min_reach(star_system(6))
        assert result.nodes == (1,)
        assert (result.nodes_explored, result.nodes_pruned) == (1, 1)
        # all-ones target of a driftless system: only the full set reaches it
        n = 6
        sys = LinearSystem(
            A=np.zeros((n, n)), B=np.eye(n), t0=0.0, t1=1.0, x0=np.zeros(n), x1=np.ones(n)
        )
        result = exact_min_reach(sys)
        assert result.nodes == tuple(range(1, n + 1))
        assert result.nodes_explored == 1
        assert result.nodes_pruned == sum(comb(n, k) for k in range(n))

    def test_light_offsets_match_the_unpruned_scan(self):
        # every offset entry's squared weight lies below the bound's threshold
        # and their sum above it: no node alone decides a set, so the last
        # level of the search tests every candidate
        prune_at = reachkit.solvers.EXACT_PRUNE_FACTOR * DEFAULT_TOL.feas_rel**2
        rng = np.random.default_rng(149)
        explored = set()
        for n in (8, 9, 10, 8, 9, 10):
            support = rng.choice(n, size=int(rng.integers(4, n + 1)), replace=False)
            x1 = np.zeros(n)
            x1[support] = rng.choice([-1.0, 1.0], size=support.size) * np.sqrt(
                rng.uniform(0.05, 0.95, size=support.size) * prune_at
            )
            sys = LinearSystem(
                A=np.diag(rng.normal(size=n)), B=np.eye(n), t0=0.0, t1=1.0,
                x0=np.zeros(n), x1=x1,
            )
            weights = sys.scaled_offset**2
            assert weights.max() < prune_at < weights.sum()
            result = exact_min_reach(sys)
            self.assert_same(result, unpruned_exact(sys))
            # a set is evaluated exactly when its reach passes the bound
            scanned = [
                S for k in range(result.cardinality + 1)
                for S in combinations(range(1, n + 1), k)
            ]
            scanned = scanned[: scanned.index(result.nodes) + 1]
            passing = [
                S for S in scanned
                if sys.off_reach_sq(reduce(or_, (sys.reach[i - 1] for i in S), 0)) < prune_at
            ]
            assert result.nodes_explored == len(passing)
            explored.add(result.nodes_explored)
        # several sets pass the bound before the answer
        assert max(explored) > 1

    def test_generated_instances_with_the_support_last_match_the_unpruned_scan(self):
        # the last three columns of U split the rows among them and every
        # other column has fewer ones than the smallest part, so the planted
        # support is the last 3-subset of columns that fits
        rng = np.random.default_rng(151)
        for m, l in ((6, 5), (6, 6)):
            U = np.zeros((m, l))
            for j in range(l - 3):
                U[rng.choice(m, size=int(rng.integers(0, m // 3)), replace=False), j] = 1.0
            parts = rng.permutation(np.arange(m) % 3)
            for g in range(3):
                U[:, l - 3 + g] = parts == g
            sys = generate(U, d=2).sys
            result = exact_min_reach(sys, budget=3)
            self.assert_same(result, unpruned_exact(sys, budget=3))
            assert result.cardinality == 3

    def test_last_level_tests_only_nodes_reaching_the_heavy_ones(self, monkeypatch):
        # a diagonal n = 200 system: a set passes the bound only if it holds
        # all three target nodes, and the last level tests only those
        sys = self.diagonal_system(
            np.linspace(-1.0, 1.0, 200), {7: 1.0, 90: -2.0, 199: 0.5}
        )
        calls = []
        original = LinearSystem.off_reach_sq

        def counting(self, mask):
            calls.append(mask)
            return original(self, mask)

        monkeypatch.setattr(LinearSystem, "off_reach_sq", counting)
        result = exact_min_reach(sys, budget=3)
        assert (result.nodes, result.nodes_explored, result.nodes_pruned) == (
            (7, 90, 199), 1, 147888
        )
        assert len(calls) < 1000

    def test_greedy_skips_candidates_on_a_diagonal_system(self):
        # decoupled nodes: once a target node is found, nodes off the
        # target's support cannot beat it
        n = 30
        x1 = np.zeros(n)
        x1[[2, 11, 19]] = [1.0, -2.0, 0.5]
        sys = LinearSystem(
            A=np.diag(np.linspace(-1.0, 1.0, n)), B=np.eye(n), t0=0.0, t1=1.0,
            x0=np.zeros(n), x1=x1,
        )
        result = greedy_min_reach(sys)
        ref = unpruned_greedy(sys)
        self.assert_same(result, ref)
        assert result.nodes == (3, 12, 20)
        assert result.nodes_pruned > result.nodes_explored

    @pytest.mark.parametrize("c", [1.0, 1e3, 1e100, 1e-6])
    def test_node_local_greedy_keeps_the_tie_breaks_at_every_scale(self, c):
        # feasible candidates tie near 1e-28, where only float noise orders
        # them; greedy must judge every candidate that can be that close
        rng = np.random.default_rng(211)
        for _ in range(200):
            n = int(rng.integers(4, 12))
            A = rng.normal(size=(n, n)) * (rng.random(size=(n, n)) < 0.3)
            B = np.diag(rng.choice([1.0, 2.5, 1e-11, 0.0], size=n))
            block, x1 = B * (rng.random(size=n) < 0.4)[:, None], np.zeros(n)
            for _ in range(int(rng.integers(1, n + 1))):
                x1 += block @ rng.normal(size=n)
                block = A @ block
            x0 = rng.normal(size=n) if rng.random() < 0.3 else np.zeros(n)
            sys = LinearSystem(A=A, B=B, t0=0.0, t1=1.0, x0=c * x0, x1=c * x1)
            self.assert_same(greedy_min_reach(sys), unpruned_greedy(sys))

    @pytest.mark.parametrize(
        "entries, diagonal, x1, expected",
        [
            # ||A||_F is 1e6, so a Krylov block is cut at 1e-3.  A e2 passes
            # the cut alone, but its e4 part (2e-4) does not once e3 is in the
            # basis: K({2, 3}) is smaller than K({2}) + K({3}), and the
            # residual off the sum (0.25) is far below the verdict's (1.25)
            ({(0, 0): 1e6, (2, 1): 1.99e-3, (3, 1): 2e-4}, [1.0, 1.0, 1.0, 0.0],
             [0.5, 1.0, 1.0, 1.0], ((1, 2), 7, 2)),
            # A e1 and A e2 (8e-4 e3 each) fail the cut alone and pass it
            # together: the residual off K({1}) + K({2}) (104) is far above
            # the verdict's (4)
            ({(3, 3): 1e6, (2, 0): 8e-4, (2, 1): 8e-4}, [1.0, 1.0, 0.0, 0.0, 1.0],
             [3.0, 1.0, 10.0, 0.0, 2.0], ((1, 2, 5), 7, 5)),
            # A e2 = 1.99e-3 e4 + 2e-4 e5 and A e3 = e4: the residual off
            # K({2}) + K({3}) is 1 below the verdict's and, the least of
            # round 2 so far, skips nodes 4 to 6, which the verdicts value
            ({(0, 0): 1e6, (3, 1): 1.99e-3, (4, 1): 2e-4, (3, 2): 1.0},
             [0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0], [0.0, 2.0, 0.5, 1.0, 1.0, 0.3, 1.2],
             ((2, 3, 6, 7), 20, 5)),
        ],
    )
    def test_node_local_greedy_survives_values_off_their_verdicts(
        self, entries, diagonal, x1, expected
    ):
        n = len(diagonal)
        A = np.zeros((n, n))
        for (i, j), value in entries.items():
            A[i, j] = value
        sys = LinearSystem(
            A=A, B=np.diag(diagonal), t0=0.0, t1=1.0, x0=np.zeros(n), x1=np.array(x1)
        )
        assert sys.node_local
        result = greedy_min_reach(sys)
        self.assert_same(result, unpruned_greedy(sys))
        assert (result.nodes, result.nodes_explored, result.nodes_pruned) == expected

    @pytest.mark.parametrize("x1", [np.arange(1.0, 7.0), np.arange(6.0, 0.0, -1.0)])
    def test_overflowing_residuals_tie_and_prune_nothing(self, x1):
        # residual_sq overflows to inf short of the full set, so every value
        # of a round ties at inf: nothing is skipped and the first candidate
        # wins each round, as in the unpruned scan
        sys = LinearSystem(
            A=np.zeros((6, 6)), B=np.eye(6), t0=0.0, t1=1.0, x0=np.zeros(6), x1=1e200 * x1
        )
        result = greedy_min_reach(sys, max_iters=2)
        self.assert_same(result, unpruned_greedy(sys, max_iters=2))
        assert (result.nodes, result.nodes_explored, result.nodes_pruned) == ((1, 2), 11, 0)

    @staticmethod
    def count_krylov_builds(monkeypatch):
        import reachkit.system

        calls = []
        build = reachkit.system.reachability_matrix

        def counting(*args, **kwargs):
            calls.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(reachkit.system, "reachability_matrix", counting)
        return calls

    def test_node_local_greedy_builds_fewer_bases_than_it_values(self, monkeypatch):
        n = 200
        targets = {3: 1.0, 30: -2.0, 61: 0.5, 90: 1.5, 118: -1.0, 150: 2.0, 171: 0.25, 196: -0.5}
        sys = self.diagonal_system(np.linspace(-1.0, 1.0, n), targets)
        assert sys.node_local
        ref = unpruned_greedy(sys)
        calls = self.count_krylov_builds(monkeypatch)
        result = greedy_min_reach(sys)
        self.assert_same(result, ref)
        assert result.nodes == tuple(targets)
        assert len(calls) < result.nodes_explored

    @pytest.mark.parametrize("budget", [0, 20])
    def test_node_bases_past_the_memory_budget_are_rebuilt(self, monkeypatch, budget):
        # greedy keeps node bases up to linalg.STACK_ENTRIES floats and builds
        # the others again when it needs them
        rng = np.random.default_rng(223)
        systems = [random_solver_system(rng) for _ in range(40)]
        calls = self.count_krylov_builds(monkeypatch)
        refs = [greedy_min_reach(sys) for sys in systems]
        kept_all = len(calls)
        monkeypatch.setattr(reachkit.linalg, "STACK_ENTRIES", budget)
        assert [greedy_min_reach(sys) for sys in systems] == refs
        assert len(calls) - kept_all > kept_all

    def test_general_input_builds_one_basis_per_candidate(self, monkeypatch):
        # columns on several nodes: M(S) B is not the sum of its members'
        rng = np.random.default_rng(7)
        dense = LinearSystem(
            A=rng.normal(size=(6, 6)) * (rng.random(size=(6, 6)) < 0.4),
            B=rng.normal(size=(6, 2)), t0=0.0, t1=1.0, x0=np.zeros(6), x1=rng.normal(size=6),
        )
        assert not (BROADCAST.node_local or dense.node_local)
        refs = [unpruned_greedy(sys) for sys in (BROADCAST, dense)]
        calls = self.count_krylov_builds(monkeypatch)
        for sys, ref in zip((BROADCAST, dense), refs):
            calls.clear()
            result = greedy_min_reach(sys)
            self.assert_same(result, ref)
            assert len(calls) == result.nodes_explored + 1

    def test_greedy_builds_no_node_set_twice(self, monkeypatch):
        # a round keeps one verdict per candidate, and a scan on verdicts
        # reuses them: within one call no node set's Krylov basis is built
        # twice.  The first three systems are those of
        # test_node_local_greedy_survives_values_off_their_verdicts, whose
        # rounds are scanned again
        import reachkit.system

        systems = []
        for entries, diagonal, x1 in [
            ({(0, 0): 1e6, (2, 1): 1.99e-3, (3, 1): 2e-4}, [1.0, 1.0, 1.0, 0.0],
             [0.5, 1.0, 1.0, 1.0]),
            ({(3, 3): 1e6, (2, 0): 8e-4, (2, 1): 8e-4}, [1.0, 1.0, 0.0, 0.0, 1.0],
             [3.0, 1.0, 10.0, 0.0, 2.0]),
            ({(0, 0): 1e6, (3, 1): 1.99e-3, (4, 1): 2e-4, (3, 2): 1.0},
             [0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0], [0.0, 2.0, 0.5, 1.0, 1.0, 0.3, 1.2]),
        ]:
            n = len(diagonal)
            A = np.zeros((n, n))
            for (i, j), value in entries.items():
                A[i, j] = value
            systems.append(LinearSystem(
                A=A, B=np.diag(diagonal), t0=0.0, t1=1.0, x0=np.zeros(n), x1=np.array(x1)
            ))
        rng = np.random.default_rng(5)
        systems += [random_solver_system(rng) for _ in range(300)]
        systems += self.systems_with_sinks(rng, 1.0) + self.systems_with_sinks(rng, 1e3)
        built = []
        build = reachkit.system.reachability_matrix

        def recording(sys, S, *args, **kwargs):
            built.append(tuple(sorted(S)))
            return build(sys, S, *args, **kwargs)

        monkeypatch.setattr(reachkit.system, "reachability_matrix", recording)
        for k, sys in enumerate(systems):
            built.clear()
            greedy_min_reach(sys)
            twice = sorted({S for S in built if built.count(S) > 1})
            assert not twice, f"system {k} built {twice} more than once"

    @pytest.mark.parametrize(
        "entries, diagonal, x1, builds, verdicts",
        [
            # the systems of test_node_local_greedy_survives_values_off_their_verdicts
            ({(0, 0): 1e6, (2, 1): 1.99e-3, (3, 1): 2e-4}, [1.0, 1.0, 1.0, 0.0],
             [0.5, 1.0, 1.0, 1.0], 8, 7),
            ({(3, 3): 1e6, (2, 0): 8e-4, (2, 1): 8e-4}, [1.0, 1.0, 0.0, 0.0, 1.0],
             [3.0, 1.0, 10.0, 0.0, 2.0], 6, 6),
            ({(0, 0): 1e6, (3, 1): 1.99e-3, (4, 1): 2e-4, (3, 2): 1.0},
             [0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0], [0.0, 2.0, 0.5, 1.0, 1.0, 0.3, 1.2], 17, 16),
        ],
    )
    def test_node_local_greedy_scans_each_round_once(
        self, monkeypatch, entries, diagonal, x1, builds, verdicts
    ):
        # estimates off their verdicts only choose the round's lead: the
        # round is scanned once, and only the verdicts that set a skip or
        # can win are taken
        import reachkit.system

        n = len(diagonal)
        A = np.zeros((n, n))
        for (i, j), value in entries.items():
            A[i, j] = value
        sys = LinearSystem(
            A=A, B=np.diag(diagonal), t0=0.0, t1=1.0, x0=np.zeros(n), x1=np.array(x1)
        )
        ref = unpruned_greedy(sys)
        built = self.count_krylov_builds(monkeypatch)
        judged = []
        verdict = reachkit.system._verdict

        def judging(*args, **kwargs):
            judged.append(1)
            return verdict(*args, **kwargs)

        monkeypatch.setattr(reachkit.system, "_verdict", judging)
        self.assert_same(greedy_min_reach(sys), ref)
        assert (len(built), len(judged)) == (builds, verdicts)

    def test_node_local_greedy_answers_do_not_rest_on_estimates(self, monkeypatch):
        # every skip rests on a verdict, so closed-form values that are
        # wrong on every odd node (too low, too high or anywhere in between)
        # change which candidates are valued but not the answer
        from reachkit.solvers import _closed_form

        rng = np.random.default_rng(239)
        systems = []
        for c in (1.0, 1e3, 1e-6):
            systems += self.systems_with_sinks(rng, c)
        draws = (random_solver_system(rng) for _ in range(150))
        systems += [sys for sys in draws if sys.node_local]
        assert all(sys.node_local for sys in systems)
        refs = [unpruned_greedy(sys) for sys in systems]
        for wrong in (lambda: 0.0, lambda: 1e300, lambda: float(rng.uniform(0.0, 2.0))):

            def values(*args):
                value = _closed_form(*args)
                return lambda i: wrong() if i % 2 else value(i)

            monkeypatch.setattr(reachkit.solvers, "_closed_form", values)
            for sys, ref in zip(systems, refs):
                self.assert_same(greedy_min_reach(sys), ref)

    @staticmethod
    def systems_with_sinks(rng, c):
        """Node-local systems where many nodes reach only themselves: block
        diagonal ``A`` with some 1 x 1 blocks and ``B`` diagonal with cut and
        zero entries, ``hardness.generate`` instances and stars, each with
        ``x1`` (and any ``x0``) scaled by ``c``."""
        systems = []
        for _ in range(12):
            sizes = rng.integers(1, 4, size=int(rng.integers(2, 6)))
            A = block_diag(*(rng.normal(size=(k, k)) for k in sizes))
            n = A.shape[0]
            B = np.diag(rng.choice([1.0, 2.5, 1e-11, 0.0], size=n, p=[0.5, 0.3, 0.1, 0.1]))
            x1 = rng.normal(size=n) * (rng.random(size=n) < 0.6)
            x0 = rng.normal(size=n) if rng.random() < 0.3 else np.zeros(n)
            systems.append(LinearSystem(A=A, B=B, t0=0.0, t1=1.0, x0=c * x0, x1=c * x1))
        for _ in range(8):
            sys = generate(random_source_matrix(rng), d=int(rng.integers(1, 4))).sys
            x1 = sys.x1 * rng.uniform(0.5, 2.0, size=sys.n)
            systems.append(LinearSystem(
                A=sys.A, B=sys.B, t0=0.0, t1=1.0, x0=sys.x0, x1=c * x1
            ))
        for n in (2, 5, 8):
            systems.append(star_system(n, x1=c * rng.normal(size=n)))
        return systems

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e3, 1e100, 1e200])
    def test_closed_form_values_match_projections(self, c):
        # the value greedy gives an inert or sink candidate without a Krylov
        # build is the projection of the scaled offset it would otherwise
        # take, within feas_rel, and inf exactly where that projection times
        # the scale squared overflows.  (Past about 1e154 the projection of
        # the offset itself reads inf where roundoff leaves 1e-16 of it.)
        from reachkit.linalg import dist_sq_to_basis, extend_basis
        from reachkit.solvers import _closed_form, _sinks
        from reachkit.system import reachability_matrix

        rng = np.random.default_rng(227)
        kinds = {"inert": 0, "sink": 0}
        for sys in self.systems_with_sinks(rng, c):
            assert sys.node_local
            sinks, scale = _sinks(sys, DEFAULT_TOL), sys.offset_scale
            for _ in range(4):
                S = sorted(set(rng.integers(1, sys.n + 1, size=rng.integers(0, 3)).tolist()))
                Q_S = reachability_matrix(sys, S) if S else None
                covered = 0
                for j in S:
                    covered |= sys.reach[j - 1]
                value = _closed_form(sys, sinks, Q_S, covered)
                for i in range(1, sys.n + 1):
                    if i in S or (v := value(i)) is None:
                        continue
                    Q = extend_basis(Q_S, reachability_matrix(sys, [i]), scale=1.0)
                    ref = dist_sq_to_basis(sys.scaled_offset, Q)
                    assert type(v) is float
                    if v == np.inf:
                        assert ref * scale * scale == np.inf
                    else:
                        assert abs(v - ref) <= DEFAULT_TOL.feas_rel
                        if c <= 1e100:
                            with np.errstate(over="ignore"):
                                unscaled = dist_sq_to_basis(sys.offset, Q)
                            assert abs(v - unscaled / scale / scale) <= DEFAULT_TOL.feas_rel
                    sink = sinks >> (i - 1) & 1 and sys.reach[i - 1] & sys._offset_weights[0]
                    kinds["sink" if sink else "inert"] += 1
        assert min(kinds.values()) > 50

    def test_generated_instance_builds_no_sink_basis_outside_judging(self, monkeypatch):
        # the target rows of a generated instance reach only themselves:
        # greedy values them in closed form and builds the basis of one only
        # to take its verdict, or to project it once a selected node reaches
        # it (a sink in covered has no closed form)
        import reachkit.system

        from reachkit.solvers import _closed_form, _sinks

        rng = np.random.default_rng(229)
        U, _ = plant_instance(rng, 5, 5, 2)
        sys = generate(U, d=3).sys
        sinks = _sinks(sys, DEFAULT_TOL)
        assert bin(sinks).count("1") >= 15
        ref = unpruned_greedy(sys)
        rounds, built, judged = [], [], []
        build, verdict = reachkit.system.reachability_matrix, reachkit.system._verdict

        def values(sys, sinks, Q_S, covered):
            rounds.append(covered)
            return _closed_form(sys, sinks, Q_S, covered)

        def building(sys, S, *args, **kwargs):
            K = build(sys, S, *args, **kwargs)
            if len(S) == 1 and sinks >> (S[0] - 1) & 1:
                built.append((K, S[0], rounds[-1]))
            return K

        def judging(sys, Q, tol):
            judged.append(Q)
            return verdict(sys, Q, tol)

        monkeypatch.setattr(reachkit.solvers, "_closed_form", values)
        monkeypatch.setattr(reachkit.system, "reachability_matrix", building)
        monkeypatch.setattr(reachkit.system, "_verdict", judging)
        result = greedy_min_reach(sys)
        self.assert_same(result, ref)
        assert len(rounds) == result.cardinality >= 2
        assert 0 < len(built) < result.nodes_explored
        for K, i, covered in built:
            assert any(K is Q for Q in judged) or covered >> (i - 1) & 1

    def test_sink_rule_matches_the_first_krylov_block(self):
        # a node keeps a first block alone exactly when first_block_kept
        # says so, and a sink's Krylov space is then its own axis
        from reachkit.solvers import _sinks
        from reachkit.system import first_block_kept, reachability_matrix

        rng = np.random.default_rng(233)
        systems = self.systems_with_sinks(rng, 1.0)
        for B in (np.diag([1.0, 1e-10]), np.diag([1.0, 1e-9]), np.diag([1e-170, 1e-175]),
                  np.diag([1e200, 3e190]), np.array([[1.0, 2.0], [0.0, 0.0]]), np.zeros((2, 2))):
            for A in (np.zeros((2, 2)), np.diag([0.5, -1.0]), np.array([[0.0, 1.0], [0.0, 0.0]])):
                systems.append(LinearSystem(
                    A=A, B=B, t0=0.0, t1=1.0, x0=np.zeros(2), x1=np.ones(2)
                ))
        for sys in systems:
            kept, sinks = first_block_kept(sys, DEFAULT_TOL), _sinks(sys, DEFAULT_TOL)
            for i in range(1, sys.n + 1):
                K = reachability_matrix(sys, [i])
                rank = K.shape[1] if K.any() else 0
                assert kept[i - 1] == (rank > 0)
                own = sys.reach[i - 1] == 1 << (i - 1)
                assert bool(sinks >> (i - 1) & 1) == (own and rank == 1)
                if own:
                    assert rank == int(kept[i - 1])

    @staticmethod
    def diagonal_system(diagonal, targets):
        n = len(diagonal)
        x1 = np.zeros(n)
        x1[[i - 1 for i in targets]] = list(targets.values())
        return LinearSystem(
            A=np.diag(diagonal), B=np.eye(n), t0=0.0, t1=1.0, x0=np.zeros(n), x1=x1
        )

    @pytest.mark.parametrize(
        "name, solve, counts",
        [
            ("diag30", greedy_min_reach, ((3, 12, 20), 25, 62)),
            ("generated", greedy_min_reach, ((7,), 7, 1)),
            ("generated", exact_min_reach, ((7,), 1, 7)),
            ("greedy_gap", exact_min_reach, ((5, 6), 11, 11)),
            ("greedy_gap", greedy_min_reach, ((1, 3, 5), 15, 0)),
            ("diag10", exact_min_reach, ((4, 8, 10), 1, 154)),
            ("diag10", greedy_min_reach, ((4, 8, 10), 18, 9)),
        ],
    )
    def test_work_counts_are_pinned(self, name, solve, counts):
        # (nodes, nodes_explored, nodes_pruned): a change to the scan order or
        # to the bound shows here even when the answer stays the same
        systems = {
            "diag30": lambda: self.diagonal_system(
                np.linspace(-1.0, 1.0, 30), {3: 1.0, 12: -2.0, 20: 0.5}
            ),
            "generated": lambda: generate(np.array([[1.0, 0.0], [1.0, 1.0]]), d=3).sys,
            "greedy_gap": lambda: load_instance(FIXTURES / "greedy_gap.json").system,
            "diag10": lambda: self.diagonal_system(
                np.arange(10) / 10, {4: 1.0, 8: 2.0, 10: -1.0}
            ),
        }
        result = solve(systems[name]())
        assert (result.nodes, result.nodes_explored, result.nodes_pruned) == counts

    @pytest.mark.parametrize(
        "name, budget, counts, off_calls",
        [
            ("diag200", 3, ((7, 90, 199), 1, 147888), 128),
            ("generated0", 4, ((9, 10, 11), 12, 284), 78),
            ("generated1", 4, ((11, 12, 13, 14), 348, 1589), 916),
            ("generated2", 4, ((16, 17, 18), 218, 1124), 421),
        ],
    )
    def test_exact_call_counts_are_pinned(self, monkeypatch, name, budget, counts, off_calls):
        # the bound's calls and the verdicts of the exact search: a change to
        # how its last level picks candidates shows here even when the
        # answer stays the same.  In the generated instances every target
        # node is reached by several nodes, so several heavy nodes can be
        # left at the last level.
        rng = np.random.default_rng(157)
        sources = [
            (rng.normal(size=(m, l)) * (rng.random(size=(m, l)) < 0.6), d)
            for m, l, d in ((3, 4, 2), (4, 5, 2), (3, 5, 3))
        ]
        if name == "diag200":
            sys = self.diagonal_system(
                np.linspace(-1.0, 1.0, 200), {7: 1.0, 90: -2.0, 199: 0.5}
            )
        else:
            sys = generate(*sources[int(name[-1])]).sys
        calls = {"off": 0, "verdicts": 0}
        off, feasible = LinearSystem.off_reach_sq, reachkit.solvers.is_feasible

        def counting_off(self, mask):
            calls["off"] += 1
            return off(self, mask)

        def counting_feasible(*args, **kwargs):
            calls["verdicts"] += 1
            return feasible(*args, **kwargs)

        monkeypatch.setattr(LinearSystem, "off_reach_sq", counting_off)
        monkeypatch.setattr(reachkit.solvers, "is_feasible", counting_feasible)
        result = exact_min_reach(sys, budget=budget)
        assert (result.nodes, result.nodes_explored, result.nodes_pruned) == counts
        assert calls == {"off": off_calls, "verdicts": counts[1]}
