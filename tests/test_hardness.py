import re

import numpy as np
import pytest

from reachkit.hardness import (
    extract_solution,
    find_disjoint_block,
    forward_map,
    generate,
    stacked_corner,
)
from reachkit.solvers import (
    VarSelInstance, check_varsel_solution, exact_min_reach, varsel_exact,
)
from reachkit.system import check_node_set, is_feasible

from helpers import plant_instance, random_source_matrix


def lstsq_extract(inst, S, xhat1):
    """Reference backward map with its own least-squares fit over the
    actuated columns; returns ``(y, residual_sq)``."""
    m, l, d, n = inst.dims.m, inst.dims.l, inst.dims.d, inst.dims.n
    nodes = check_node_set(S, n)
    block = find_disjoint_block(nodes, m, d)
    target = xhat1[[i - 1 for i in block.indices]]
    col_ids = [s - (n - l) for s in nodes if s > n - l]
    y = np.zeros(l)
    if col_ids:
        cols = inst.source.U[:, [k - 1 for k in col_ids]]
        coef, *_ = np.linalg.lstsq(cols, target, rcond=None)
        for k, c in zip(col_ids, coef):
            y[k - 1] = c
    residual = inst.source.U @ y - target
    return y, float(residual @ residual)


class TestStackedCorner:
    def test_matches_hand_expanded_five_by_five(self):
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        expected = np.array(
            [
                [0.0, 0.0, 0.0, 1.0, 2.0],
                [0.0, 0.0, 0.0, 3.0, 4.0],
                [0.0, 0.0, 0.0, 1.0, 2.0],
                [0.0, 0.0, 0.0, 3.0, 4.0],
                [0.0, 0.0, 0.0, 0.0, 0.0],
            ]
        )
        assert np.array_equal(stacked_corner(M, 5, 2), expected)

    def test_single_copy_in_corner(self):
        M = np.array([[1.0, 2.0, 3.0]])
        A = stacked_corner(M, 4, 1)
        assert np.array_equal(A[0, 1:], M[0])
        assert np.count_nonzero(A) == 3

    def test_squares_to_zero_above_threshold(self):
        rng = np.random.default_rng(73)
        for _ in range(50):
            m = int(rng.integers(1, 6))
            l = int(rng.integers(1, 6))
            d = int(rng.integers(1, 5))
            M = rng.normal(size=(m, l))
            A = stacked_corner(M, max(m, l) * (d + 1), d)
            assert not (A @ A).any()

    def test_reads_back_losslessly(self):
        rng = np.random.default_rng(79)
        M = rng.normal(size=(3, 2))
        n, d = 12, 3
        A = stacked_corner(M, n, d)
        for j in range(d):
            assert np.array_equal(A[3 * j : 3 * (j + 1), n - 2 :], M)
        # everything outside the stacked corner is zero
        corner = A[: 3 * d, n - 2 :]
        assert np.count_nonzero(A) == np.count_nonzero(corner)

    def test_rejects_too_small_n(self):
        with pytest.raises(ValueError):
            stacked_corner(np.ones((2, 2)), 3, 2)

    def test_rejects_zero_stack_count(self):
        with pytest.raises(ValueError):
            stacked_corner(np.ones((2, 2)), 5, 0)

    @pytest.mark.parametrize("key", ["n", "d"])
    @pytest.mark.parametrize("value", [1.7, True, np.float64(2.0)])
    def test_non_integer_size_is_rejected(self, key, value):
        # int() would truncate 1.7 to 1 and read True as 1
        args = {"n": 4, "d": 1, key: value}
        name = "stack count d" if key == "d" else "n"
        message = re.escape(f"{name} is not an integer: {value!r}")
        with pytest.raises(ValueError, match=message):
            stacked_corner(np.ones((2, 2)), **args)

    def test_numpy_integer_sizes_are_accepted(self):
        M = np.ones((2, 2))
        expected = stacked_corner(M, 6, 2)
        assert np.array_equal(stacked_corner(M, np.int64(6), np.int64(2)), expected)


class TestGenerate:
    @pytest.mark.parametrize("d", [1.7, True, np.float64(2.0)])
    def test_non_integer_stack_count_is_rejected(self, d):
        message = re.escape(f"stack count d is not an integer: {d!r}")
        with pytest.raises(ValueError, match=message):
            generate(np.eye(2), d=d)

    def test_numpy_integer_stack_count_is_accepted(self):
        inst = generate(np.eye(2), d=np.int64(2))
        assert inst.dims == generate(np.eye(2), d=2).dims
        assert type(inst.dims.d) is int

    def test_scalar_source(self):
        inst = generate(np.array([[1.0]]), d=1)
        assert inst.dims.n == 2
        assert np.array_equal(inst.sys.A, np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert np.array_equal(inst.sys.x1, np.array([1.0, 0.0]))
        assert np.array_equal(inst.sys.x0, np.zeros(2))

    def test_identity_source(self):
        inst = generate(np.eye(2), d=2)
        assert inst.dims.n == 6
        assert np.array_equal(inst.sys.x1, np.array([1.0, 1.0, 1.0, 1.0, 0.0, 0.0]))
        assert not (inst.sys.A @ inst.sys.A).any()
        assert np.array_equal(inst.sys.B, np.eye(6))

    def test_three_by_three_source(self):
        inst = generate(np.arange(9, dtype=float).reshape(3, 3), d=3)
        assert inst.dims.n == 12
        assert int(inst.sys.x1.sum()) == 9
        assert np.array_equal(np.nonzero(inst.sys.x1)[0], np.arange(9))

    def test_source_bundles_all_ones_target(self):
        inst = generate(np.eye(3), d=2, delta=0.5)
        assert np.array_equal(inst.source.z, np.ones(3))
        assert inst.source.delta == 0.5


class TestForwardMap:
    def test_identity_two_by_two(self):
        inst = generate(np.eye(2), d=2)
        nodes = forward_map(inst, np.array([1.0, 1.0]))
        assert nodes == (5, 6)
        assert is_feasible(inst.sys, nodes).feasible

    def test_scalar(self):
        inst = generate(np.array([[1.0]]), d=1)
        assert forward_map(inst, np.array([1.0])) == (2,)

    def test_cardinality_equals_sparsity(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            m = int(rng.integers(1, 5))
            l = int(rng.integers(1, 5))
            k = int(rng.integers(1, min(m, l) + 1))
            U, y = plant_instance(rng, m, l, k)
            inst = generate(U, d=k + 2)
            nodes = forward_map(inst, y)
            assert len(nodes) == k
            assert is_feasible(inst.sys, nodes).feasible

    def test_rejects_non_solution(self):
        inst = generate(np.eye(2), d=2)
        with pytest.raises(ValueError):
            forward_map(inst, np.array([1.0, 0.0]))

    def test_rejects_mismatched_support(self):
        inst = generate(np.eye(2), d=2)
        with pytest.raises(ValueError):
            forward_map(inst, np.array([1.0, 1.0]), support=[1])


class TestFindDisjointBlock:
    def test_first_block_hit(self):
        block = find_disjoint_block([1], m=2, d=2)
        assert block.block_index == 1
        assert block.indices == (3, 4)

    def test_empty_set_takes_first_block(self):
        block = find_disjoint_block([], m=3, d=2)
        assert block.block_index == 0
        assert block.indices == (1, 2, 3)

    def test_two_blocks_hit(self):
        block = find_disjoint_block([2, 3], m=2, d=3)
        assert block.block_index == 2
        assert block.indices == (5, 6)

    def test_indices_above_stacked_rows_are_ignored(self):
        block = find_disjoint_block([5, 6], m=2, d=2)
        assert block.block_index == 0

    def test_all_blocks_hit_is_an_error(self):
        with pytest.raises(ValueError):
            find_disjoint_block([1, 3], m=2, d=2)

    @pytest.mark.parametrize("value", [1.7, True, np.float64(2.0)])
    def test_non_integer_arguments_are_rejected(self, value):
        # int() would read 1.7 and True as node 1 and pick block 1
        for S, m, d, name in (
            ([value], 2, 2, "node index"),
            ([1], value, 2, "block width m"),
            ([1], 2, value, "block count d"),
        ):
            message = re.escape(f"{name} is not an integer: {value!r}")
            with pytest.raises(ValueError, match=message):
                find_disjoint_block(S, m, d)

    def test_node_indices_start_at_one(self):
        with pytest.raises(ValueError, match="^node index must be at least 1, got 0$"):
            find_disjoint_block([0], 2, 2)
        with pytest.raises(ValueError, match="^block width m must be at least 1, got 0$"):
            find_disjoint_block([], 0, 2)

    def test_numpy_integers_are_accepted(self):
        block = find_disjoint_block([np.int64(1)], np.int64(2), np.int64(2))
        assert block == find_disjoint_block([1], 2, 2)
        assert block.indices == (3, 4)


class TestExtractSolution:
    def test_rejects_a_target_of_the_wrong_length(self):
        inst = generate(np.array([[1.0, 0.0], [1.0, 1.0]]), d=3)
        with pytest.raises(ValueError, match="xhat1 must have length 8, got 3"):
            extract_solution(inst, [7], np.ones(3))

    def test_round_trip_identity(self):
        inst = generate(np.eye(2), d=2)
        y0 = np.array([1.0, 1.0])
        nodes = forward_map(inst, y0)
        out = extract_solution(inst, nodes, inst.sys.x1)
        assert np.allclose(out.y, y0, atol=1e-12)
        assert out.residual_sq == pytest.approx(0.0, abs=1e-18)

    def test_round_trip_scalar(self):
        inst = generate(np.array([[1.0]]), d=1)
        nodes = forward_map(inst, np.array([1.0]))
        out = extract_solution(inst, nodes, inst.sys.x1)
        assert np.allclose(out.y, [1.0], atol=1e-12)

    def test_no_actuated_columns_reports_full_residual(self):
        inst = generate(np.eye(2), d=2)
        out = extract_solution(inst, [1], inst.sys.x1)
        assert not out.y.any()
        assert out.residual_sq == pytest.approx(2.0, abs=1e-12)

    def test_recovery_no_denser_than_node_set(self):
        rng = np.random.default_rng(89)
        for _ in range(20):
            m = int(rng.integers(1, 5))
            l = int(rng.integers(1, 5))
            k = int(rng.integers(1, min(m, l) + 1))
            U, y = plant_instance(rng, m, l, k)
            inst = generate(U, d=k + 2)
            result = exact_min_reach(inst.sys, budget=k)
            out = extract_solution(inst, result.nodes, inst.sys.x1)
            norm0 = int(np.sum(np.abs(out.y) > 1e-12))
            assert norm0 <= result.cardinality
            assert np.linalg.norm(U @ out.y - np.ones(m)) <= 1e-9

    def test_matches_actuated_column_lstsq(self):
        rng = np.random.default_rng(131)
        for _ in range(80):
            U = random_source_matrix(rng)
            delta = float(rng.choice([0.0, 1e-3, 0.5]))
            inst = generate(U, d=int(rng.integers(2, 6)), delta=delta)
            n, l, d = inst.dims.n, inst.dims.l, inst.dims.d
            # fewer than d nodes keep a target block free (pigeonhole)
            size = int(rng.integers(0, d))
            pool = np.arange(n - l + 1, n + 1) if rng.random() < 0.7 else np.arange(1, n + 1)
            S = rng.choice(pool, size=min(size, pool.size), replace=False).tolist()
            xhat1 = inst.sys.x1 + (0.0 if rng.random() < 0.5 else rng.normal(scale=1e-3, size=n))
            out = extract_solution(inst, S, xhat1)
            y, residual_sq = lstsq_extract(inst, S, xhat1)
            np.testing.assert_allclose(out.y, y, rtol=1e-12, atol=0)
            # the residual is summed over the selected columns only, so an
            # exact fit's roundoff (~eps * ||target||) may differ
            roundoff = (16 * np.finfo(float).eps * np.linalg.norm(xhat1)) ** 2
            np.testing.assert_allclose(
                out.residual_sq, residual_sq, rtol=1e-12, atol=roundoff
            )


class TestReductionConsistency:
    def test_exact_cardinalities_agree_with_variable_selection(self):
        rng = np.random.default_rng(97)
        for _ in range(15):
            m = int(rng.integers(1, 5))
            l = int(rng.integers(1, 5))
            k = int(rng.integers(1, min(m, l) + 1))
            U, _ = plant_instance(rng, m, l, k)
            source = VarSelInstance(U=U, z=np.ones(m), delta=0.0)
            sparse = varsel_exact(source)
            # in the pigeonhole regime the two problems have equal optima
            inst = generate(U, d=sparse.norm0 + 1)
            reach = exact_min_reach(inst.sys, budget=sparse.norm0)
            assert reach.cardinality == sparse.norm0


class TestForwardMapSupportRule:
    """``forward_map`` reads the support of ``y`` by the rule ``norm0``
    counts by: entries above ``1e-12`` in magnitude."""

    def test_tiny_entry_is_not_actuated(self):
        inst = generate(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), d=2)
        y = np.array([0.0, 1e-15, 1.0])
        nodes = forward_map(inst, y)
        assert nodes == (9,)
        assert len(nodes) == check_varsel_solution(inst.source, y).norm0

    def test_declared_support_must_match_the_rule(self):
        inst = generate(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), d=2)
        y = np.array([0.0, 1e-15, 1.0])
        assert forward_map(inst, y, support=[3]) == (9,)
        with pytest.raises(ValueError, match="does not match"):
            forward_map(inst, y, support=[2, 3])

    @pytest.mark.parametrize("index", [1.7, 2.0, True, np.float64(1)])
    def test_declared_support_rejects_non_integers(self, index):
        inst = generate(np.eye(2), d=2)
        message = re.escape(f"column index is not an integer: {index!r}")
        with pytest.raises(ValueError, match=message):
            forward_map(inst, np.array([1.0, 1.0]), support=[index, 2])

    def test_fit_slack_is_the_source_instances(self):
        # ||U y - z|| just inside and just outside feas_rel * max(1, ||z||)
        inst = generate(np.eye(4), d=2)
        slack = inst.source.slack()
        assert slack == 1e-9 * np.sqrt(4)
        assert forward_map(inst, np.array([1.0, 1.0, 1.0, 1.0 + 0.9 * slack])) == (9, 10, 11, 12)
        with pytest.raises(ValueError, match="does not solve"):
            forward_map(inst, np.array([1.0, 1.0, 1.0, 1.0 + 1.1 * slack]))
