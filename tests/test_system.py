import re
from itertools import combinations

import numpy as np
import pytest

from reachkit.linalg import DEFAULT_TOL, dist_sq_to_range
from reachkit.system import (
    LinearSystem,
    actuation_mask,
    check_node_set,
    input_columns,
    is_feasible,
    masked_input_matrix,
    reachability_matrix,
    star_system,
    transfer_offset,
)
from reachkit.hardness import generate
from reachkit.solvers import (
    EXACT_PRUNE_FACTOR,
    GREEDY_SKIP_FACTOR,
    exact_min_reach,
    greedy_min_reach,
)


def random_system(rng, n, zero_start=True):
    A = rng.normal(size=(n, n)) * (rng.random(size=(n, n)) < 0.4)
    x0 = np.zeros(n) if zero_start else rng.normal(size=n)
    x1 = rng.normal(size=n)
    return LinearSystem(A=A, B=np.eye(n), t0=0.0, t1=1.0, x0=x0, x1=x1)


class TestActuationMask:
    def test_single_node(self):
        assert np.array_equal(actuation_mask([1], 3), np.diag([1.0, 0.0, 0.0]))

    def test_full_set_is_identity(self):
        assert np.array_equal(actuation_mask([1, 2, 3], 3), np.eye(3))

    def test_empty_set_is_zero(self):
        assert np.array_equal(actuation_mask([], 3), np.zeros((3, 3)))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            actuation_mask([0], 3)
        with pytest.raises(ValueError):
            actuation_mask([4], 3)


class TestReachabilityMatrix:
    def test_star_hub_only_spans_first_axis(self):
        # hub dynamics send nothing back into node 1's column: A e1 = 0, so
        # actuating the hub reaches exactly span{e1}
        sys = star_system(5)
        assert np.array_equal(sys.A @ np.eye(5)[0], np.zeros(5))
        R = reachability_matrix(sys, [1])
        e1, e2 = np.eye(5)[0], np.eye(5)[1]
        assert dist_sq_to_range(e1, R) == pytest.approx(0.0, abs=1e-18)
        assert dist_sq_to_range(e2, R) == pytest.approx(1.0, abs=1e-12)

    def test_empty_set_gives_zero_block(self):
        sys = star_system(4)
        R = reachability_matrix(sys, [])
        assert R.shape == (4, 4)
        assert not R.any()

    def test_generated_instance_saturates_at_power_one(self):
        inst = generate(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), d=2)
        for S in [[1], [7, 8], [2, 9], [1, 2, 3]]:
            R = reachability_matrix(inst.sys, S)
            # at most the power-0 and power-1 blocks survive (A squares to 0)
            assert R.shape[1] <= 2 * len(S)

    def test_max_power_limits_blocks(self):
        # two-node chain: reaching node 1 from node 2's input needs power 1
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        sys = LinearSystem(
            A=A, B=np.eye(2), t0=0.0, t1=1.0, x0=np.zeros(2), x1=np.eye(2)[0]
        )
        truncated = reachability_matrix(sys, [2], max_power=0)
        full = reachability_matrix(sys, [2])
        e1 = np.eye(2)[0]
        assert dist_sq_to_range(e1, truncated) == pytest.approx(1.0, abs=1e-12)
        assert dist_sq_to_range(e1, full) == pytest.approx(0.0, abs=1e-18)

    def test_early_stop_spans_full_version(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(3, 7))
            sys = random_system(rng, n)
            S = sorted(
                rng.choice(np.arange(1, n + 1), size=rng.integers(1, n + 1), replace=False)
            )
            R = reachability_matrix(sys, S)
            mask = actuation_mask(S, n)
            blocks = [mask @ sys.B]
            for _ in range(n - 1):
                blocks.append(sys.A @ blocks[-1])
            full = np.hstack(blocks)
            for _ in range(100):
                probe = rng.normal(size=n)
                assert dist_sq_to_range(probe, R) == pytest.approx(
                    dist_sq_to_range(probe, full), rel=1e-8, abs=1e-8
                )


class TestIsFeasible:
    def test_star_hub_transfer(self):
        for n in (3, 5, 10):
            assert is_feasible(star_system(n), [1]).feasible

    def test_full_actuation_always_feasible_with_identity_input(self):
        rng = np.random.default_rng(37)
        sys = random_system(rng, 5, zero_start=False)
        assert is_feasible(sys, range(1, 6)).feasible

    def test_empty_set_residual_is_offset_norm(self):
        sys = star_system(4, x1=np.array([1.0, 2.0, 0.0, 0.0]))
        w = transfer_offset(sys)
        out = is_feasible(sys, [])
        assert not out.feasible
        assert out.residual_sq == pytest.approx(float(w @ w), rel=1e-12)

    def test_drift_only_transfer_feasible_for_any_set(self):
        rng = np.random.default_rng(41)
        A = rng.normal(size=(4, 4))
        x0 = rng.normal(size=4)
        from reachkit.linalg import mat_exp

        x1 = mat_exp(A, 2.5) @ x0
        sys = LinearSystem(A=A, B=np.eye(4), t0=0.0, t1=2.5, x0=x0, x1=x1)
        assert is_feasible(sys, []).feasible
        assert is_feasible(sys, [2]).feasible

    def test_feasibility_monotone_under_set_growth(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            n = int(rng.integers(3, 7))
            sys = random_system(rng, n)
            size = int(rng.integers(1, n))
            small = sorted(rng.choice(np.arange(1, n + 1), size=size, replace=False))
            extra = [i for i in range(1, n + 1) if i not in small]
            big = sorted(small + list(rng.choice(extra, size=1)))
            r_small = is_feasible(sys, small)
            r_big = is_feasible(sys, big)
            assert r_big.residual_sq <= r_small.residual_sq + 1e-10
            if r_small.feasible:
                assert r_big.feasible


def diagonal_input_case(rng):
    """Sparse ``A`` scaled by 1e-3..1e3, diagonal ``B`` with entries spanning
    1e-11..1, and a target planted in the reachable space of a random set."""
    n = int(rng.integers(3, 6))
    A = rng.normal(size=(n, n)) * (rng.random(size=(n, n)) < 0.3)
    A *= 10.0 ** rng.uniform(-3, 3)
    B = np.diag(10.0 ** rng.uniform(-11, 0, size=n))
    S = rng.choice(np.arange(1, n + 1), size=int(rng.integers(1, n)), replace=False)
    sys0 = LinearSystem(A=A, B=B, t0=0.0, t1=1.0, x0=np.zeros(n), x1=np.zeros(n))
    basis = reachability_matrix(sys0, S)
    x1 = basis @ rng.normal(size=basis.shape[1])
    if not x1.any():
        x1 = rng.normal(size=n)
    return LinearSystem(A=A, B=B, t0=0.0, t1=1.0, x0=np.zeros(n), x1=x1)


class TestMonotoneRankRule:
    """The first Krylov block is judged against ``sigma_max(B)``, not its
    own largest singular value, so a weak input column that a superset
    drops is dropped by every set."""

    def test_weak_input_column_is_dropped_for_every_set(self):
        sys = LinearSystem(
            A=np.zeros((2, 2)), B=np.diag([1.0, 1e-10]), t0=0.0, t1=1.0,
            x0=np.zeros(2), x1=np.array([0.0, 1.0]),
        )
        assert sys.input_scale == 1.0
        for S in ([2], [1, 2]):
            assert not is_feasible(sys, S).feasible
        assert is_feasible(sys, [2]).rank == 0

    def test_no_single_node_extension_loses_feasibility(self):
        rng = np.random.default_rng(157)
        extensions = 0
        for _ in range(200):
            sys = diagonal_input_case(rng)
            nodes = range(1, sys.n + 1)
            feasible = {
                S: is_feasible(sys, S).feasible
                for k in range(sys.n + 1)
                for S in combinations(nodes, k)
            }
            for S in (S for S, ok in feasible.items() if ok):
                for i in set(nodes) - set(S):
                    extensions += 1
                    assert feasible[tuple(sorted(S + (i,)))], (S, i)
        assert extensions > 1000


class TestLinearSystemValidation:
    def test_rejects_time_order(self):
        with pytest.raises(ValueError):
            LinearSystem(np.eye(2), np.eye(2), 1.0, 0.5, np.zeros(2), np.ones(2))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LinearSystem(np.eye(2), np.eye(3), 0.0, 1.0, np.zeros(2), np.ones(2))
        with pytest.raises(ValueError):
            LinearSystem(np.eye(2), np.eye(2), 0.0, 1.0, np.zeros(3), np.ones(2))

    def test_rejects_non_finite(self):
        A = np.array([[0.0, np.inf], [0.0, 0.0]])
        with pytest.raises(ValueError):
            LinearSystem(A, np.eye(2), 0.0, 1.0, np.zeros(2), np.ones(2))


class TestOverflowingDrift:
    """``exp(A (t1 - t0))`` overflows for ``A = diag(800, 0)``."""

    @staticmethod
    def system(x0):
        return LinearSystem(
            A=np.diag([800.0, 0.0]), B=np.eye(2), t0=0.0, t1=1.0,
            x0=np.asarray(x0, dtype=float), x1=np.array([1.0, 0.0]),
        )

    def test_zero_start_offset_is_target(self):
        sys = self.system([0.0, 0.0])
        assert np.array_equal(transfer_offset(sys), sys.x1)
        assert is_feasible(sys, [1]).feasible
        assert exact_min_reach(sys).nodes == (1,)

    def test_non_finite_offset_raises(self):
        sys = self.system([0.0, 1.0])
        with pytest.raises(ValueError, match="not finite"):
            transfer_offset(sys)
        with pytest.raises(ValueError, match="not finite"):
            is_feasible(sys, [1])


class TestOverflowingOffset:
    """``||w||^2`` overflows although ``w`` itself is finite."""

    def test_huge_target_is_not_feasible_for_every_set(self):
        sys = LinearSystem(
            A=np.zeros((2, 2)), B=np.eye(2), t0=0.0, t1=1.0,
            x0=np.zeros(2), x1=np.array([1e200, 0.0]),
        )
        empty = is_feasible(sys, [])
        assert not empty.feasible
        assert empty.residual_sq == np.inf
        assert is_feasible(sys, [1]).feasible
        assert not is_feasible(sys, [2]).feasible
        assert exact_min_reach(sys).nodes == (1,)

    def test_huge_drift_term(self):
        # w = e2 - exp(400) e1 lies within relative 1e-173 of span{e1}
        sys = LinearSystem(
            A=np.diag([400.0, 0.0]), B=np.eye(2), t0=0.0, t1=1.0,
            x0=np.array([1.0, 0.0]), x1=np.array([0.0, 1.0]),
        )
        assert not is_feasible(sys, []).feasible
        assert not is_feasible(sys, [2]).feasible
        verdict = is_feasible(sys, [1])
        assert verdict.feasible
        assert verdict.residual_sq == pytest.approx(1.0)
        assert exact_min_reach(sys).nodes == (1,)
        assert greedy_min_reach(sys).nodes == (1,)

    def test_norm_beyond_float_range_raises(self):
        sys = LinearSystem(
            A=np.zeros((2, 2)), B=np.eye(2), t0=0.0, t1=1.0,
            x0=np.zeros(2), x1=np.array([1.7e308, 1.7e308]),
        )
        with pytest.raises(ValueError, match="float range"):
            is_feasible(sys, [1])

    def test_scaled_offset(self):
        for x1, scale in (([0.3, 0.4], 1.0), ([3.0, 4.0], 5.0), ([3e200, 4e200], 5e200)):
            sys = LinearSystem(
                A=np.zeros((2, 2)), B=np.eye(2), t0=0.0, t1=1.0,
                x0=np.zeros(2), x1=np.array(x1),
            )
            assert sys.offset_scale == pytest.approx(scale, rel=1e-15)
            np.testing.assert_allclose(sys.scaled_offset, np.array(x1) / scale, rtol=1e-15)


class TestDriftScale:
    """``LinearSystem.drift_scale`` is ``||A||_F``, the scale of every
    Krylov block after the first."""

    def test_matches_the_frobenius_norm(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            sys = random_system(rng, int(rng.integers(1, 12)))
            assert sys.drift_scale == pytest.approx(np.linalg.norm(sys.A), rel=1e-15, abs=0.0)

    def test_finite_where_the_squared_norm_overflows(self):
        A = np.random.default_rng(41).normal(size=(6, 6))
        sys = LinearSystem(1e200 * A, np.eye(6), 0.0, 1.0, np.zeros(6), np.ones(6))
        assert sys.drift_scale == pytest.approx(1e200 * np.linalg.norm(A), rel=1e-15)

    def test_computed_once_per_system(self, monkeypatch):
        import reachkit.system

        sys = random_system(np.random.default_rng(43), 10)
        peak_norm = reachkit.system._peak_norm
        norms_of_A = []

        def counting(M, what):
            norms_of_A.append(M is sys.A)
            return peak_norm(M, what)

        calls = []
        krylov = reachkit.system.reachability_matrix

        def counting_krylov(*args, **kwargs):
            calls.append(1)
            return krylov(*args, **kwargs)

        monkeypatch.setattr(reachkit.system, "_peak_norm", counting)
        monkeypatch.setattr(reachkit.system, "reachability_matrix", counting_krylov)
        greedy_min_reach(sys)
        assert len(calls) > 1
        assert sum(norms_of_A) == 1

    def test_norm_beyond_float_range_raises(self):
        # ||A||_F is about 2e308; at A = ones, S = [1] reaches x1 = ones
        # in two blocks
        def system(A):
            return LinearSystem(A, np.eye(20)[:, :1], 0.0, 1.0, np.zeros(20), np.ones(20))

        verdict = is_feasible(system(np.ones((20, 20))), [1])
        assert verdict.feasible and verdict.rank == 2
        with pytest.raises(ValueError, match="drift matrix A norm exceeds the float range"):
            is_feasible(system(1e307 * np.ones((20, 20))), [1])


class TestInputScale:
    """``LinearSystem.input_scale`` is ``sigma_max(B)``, the scale of the
    first Krylov block of every node set."""

    @staticmethod
    def system(B):
        return LinearSystem(
            A=np.zeros((2, 2)), B=np.array(B), t0=0.0, t1=1.0,
            x0=np.zeros(2), x1=np.array([0.0, 1.0]),
        )

    def test_finite_values_are_the_spectral_norm(self):
        rng = np.random.default_rng(47)
        for B in [rng.normal(size=(2, int(rng.integers(1, 4)))) for _ in range(20)] + [
            [[1e308, 0.0], [0.0, 1.0]], [[1.7e308, 0.0], [0.0, 1.0]], np.zeros((2, 2)),
        ]:
            assert self.system(B).input_scale == float(np.linalg.norm(np.array(B), 2))

    def test_norm_beyond_float_range_raises(self):
        # B is full rank; with its 1.7e308 entries replaced by 1, S = {1, 2}
        # reaches e2 with rank 2
        verdict = is_feasible(self.system([[1.0, 0.0], [1.0, 1.0]]), [1, 2])
        assert verdict.feasible and verdict.rank == 2
        huge = self.system([[1.7e308, 0.0], [1.7e308, 1.0]])
        with pytest.raises(ValueError, match="input matrix B norm exceeds the float range"):
            is_feasible(huge, [1, 2])
        with pytest.raises(ValueError, match="input matrix B norm exceeds the float range"):
            exact_min_reach(huge)


def graph_reach(A, B, i):
    """Nodes reachable from node ``i`` (1-based) by breadth-first search over
    the edges ``j -> k`` with ``A[k, j] != 0``; empty when row ``i`` of ``B``
    is zero."""
    if not np.any(B[i - 1]):
        return set()
    seen = {i}
    frontier = [i]
    while frontier:
        j = frontier.pop()
        for k in np.flatnonzero(A[:, j - 1]) + 1:
            if int(k) not in seen:
                seen.add(int(k))
                frontier.append(int(k))
    return seen


def reach_of(sys, S):
    mask = 0
    for i in S:
        mask |= sys.reach[i - 1]
    return mask


def structural_case(rng):
    """Sparse ``A`` (sometimes with a cycle), ``B`` with some zero rows and
    a random target, 40% of the time with a nonzero start state."""
    n = int(rng.integers(3, 9))
    A = rng.normal(size=(n, n)) * (rng.random(size=(n, n)) < 0.25)
    if rng.random() < 0.3:
        A[0, n - 1] = 1.0
    B = rng.normal(size=(n, int(rng.integers(1, 3))))
    B[rng.random(size=n) < 0.25] = 0.0
    if rng.random() < 0.5:
        x1 = rng.normal(size=n)
    else:
        x1 = np.zeros(n)
        x1[rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)] = 1.0
    x0 = rng.normal(size=n) if rng.random() < 0.4 else np.zeros(n)
    return LinearSystem(A=A, B=B, t0=0.0, t1=1.0, x0=x0, x1=x1)


class TestStructuralReach:
    def test_reach_matches_graph_search(self):
        rng = np.random.default_rng(139)
        for _ in range(40):
            sys = structural_case(rng)
            for i in range(1, sys.n + 1):
                expected = sum(1 << (k - 1) for k in graph_reach(sys.A, sys.B, i))
                assert sys.reach[i - 1] == expected, (i, sys.A, sys.B)

    def test_star_reach(self):
        sys = star_system(4)
        assert sys.reach == (0b0001, 0b0011, 0b0101, 0b1001)
        assert sys.off_reach_sq(0b0001) == 0.0
        assert sys.off_reach_sq(0b1110) == 1.0

    def test_pruned_subsets_are_infeasible(self):
        # every subset of every system: a subset the exact search prunes is
        # one is_feasible rejects, and the scaled residual never falls below
        # the bound by more than the greedy skip margin
        rng = np.random.default_rng(149)
        prune_at = EXACT_PRUNE_FACTOR * DEFAULT_TOL.feas_rel**2
        pruned = leaky = 0
        for _ in range(40):
            sys = structural_case(rng)
            nodes = range(1, sys.n + 1)
            for S in (tuple(c) for k in range(sys.n + 1) for c in combinations(nodes, k)):
                mask = reach_of(sys, S)
                bound = sys.off_reach_sq(mask)
                verdict = is_feasible(sys, S)
                scaled_sq = verdict.residual_sq / sys.offset_scale**2
                assert scaled_sq >= bound - GREEDY_SKIP_FACTOR * DEFAULT_TOL.feas_rel
                if bound >= prune_at:
                    pruned += 1
                    assert not verdict.feasible, (S, bound, verdict)
                off = [j for j in range(sys.n) if not mask >> j & 1]
                Q = reachability_matrix(sys, S)
                leaky += bool(off) and bool(Q[off].any())
        assert pruned > 500
        # the Krylov basis is not exactly zero off the reach in some cases
        assert leaky > 0


class TestInputColumns:
    def test_matches_the_nonzero_columns_of_the_masked_input(self):
        # row 3 of B is zero, column 2 is zero, column 3 spans nodes 1 and 4
        B = np.array([
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, 3.0],
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 0.0],
        ])
        sys = LinearSystem(A=np.eye(4), B=B, t0=0.0, t1=1.0, x0=np.zeros(4), x1=np.ones(4))
        for k in range(5):
            for S in combinations(range(1, 5), k):
                IB = masked_input_matrix(sys, S)
                keep = np.flatnonzero(np.any(IB != 0.0, axis=0))
                block, cols = input_columns(sys, S)
                assert np.array_equal(cols, keep), S
                assert block.tobytes() == IB[:, keep].tobytes(), S
        assert input_columns(sys, [4])[1].tolist() == [2]
        assert input_columns(sys, [3])[0].shape == (4, 0)


class TestMaxPowerValidation:
    @pytest.mark.parametrize("S", [[], [1], [2, 3]])
    def test_negative_max_power_is_rejected_for_every_node_set(self, S):
        with pytest.raises(ValueError, match="max_power must be nonnegative"):
            reachability_matrix(star_system(4), S, max_power=-1)

    @pytest.mark.parametrize("power", [1.7, True, np.float64(2.0)])
    def test_non_integer_max_power_is_rejected(self, power):
        # int() would read 1.7 and True as 1
        message = re.escape(f"max_power is not an integer: {power!r}")
        with pytest.raises(ValueError, match=message):
            reachability_matrix(star_system(4), [2], max_power=power)

    def test_numpy_integer_max_power_is_accepted(self):
        sys = star_system(4)
        for p in range(3):
            expected = reachability_matrix(sys, [2], max_power=p)
            got = reachability_matrix(sys, [2], max_power=np.int64(p))
            assert got.tobytes() == expected.tobytes()


class TestIntegerIndices:
    @pytest.mark.parametrize("index", [1.7, 2.0, True, np.float64(1)])
    def test_non_integer_node_index_is_rejected(self, index):
        message = re.escape(f"node index is not an integer: {index!r}")
        with pytest.raises(ValueError, match=message):
            check_node_set([index], 4)
        with pytest.raises(ValueError, match="node index is not an integer"):
            check_node_set([1, index], 4)
        with pytest.raises(ValueError, match="node index is not an integer"):
            is_feasible(star_system(4), [index])

    def test_python_and_numpy_integers_are_accepted(self):
        assert check_node_set([np.int64(3), 1, np.uint8(3)], 4) == (1, 3)
        assert check_node_set(np.array([2, 1]), 4) == (1, 2)
        assert check_node_set(iter([4]), 4) == (4,)

    def test_range_message_is_kept(self):
        with pytest.raises(ValueError, match=r"node indices must lie in 1\.\.4, got \[0, 2\]"):
            check_node_set([2, 0], 4)
