from itertools import combinations

import numpy as np
import pytest
import scipy.linalg

import reachkit.linalg
from reachkit.linalg import (
    STACK_ENTRIES,
    STACK_SUBSETS,
    Tolerance,
    column_stacks,
    dist_sq_to_range,
    dist_sq_to_ranges,
    extend_basis,
    mat_exp,
    numerical_rank,
    range_bases,
    range_basis,
)

# The 3x3 dictionary and target used throughout: the target is orthogonal to
# columns 1 and 3, the first two columns span the plane x3 = 0, and all three
# columns together span R^3.
V = np.array([-1.0, 1.0, 1.0])
M = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def lstsq_dist_sq(v, cols):
    """Independent distance oracle: residual of an explicit least-squares fit."""
    if cols.shape[1] == 0:
        return float(v @ v)
    coef, *_ = np.linalg.lstsq(cols, v, rcond=None)
    r = v - cols @ coef
    return float(r @ r)


class TestRangeBasis:
    def test_identity_spans_r3(self):
        Q = range_basis(np.eye(3))
        assert Q.shape == (3, 3)
        assert np.allclose(Q @ Q.T, np.eye(3), atol=1e-12)

    def test_two_columns_span_coordinate_plane(self):
        Q = range_basis(M[:, :2])
        assert Q.shape == (3, 2)
        # projector onto span must equal the projector onto {x : x3 = 0}
        assert np.allclose(Q @ Q.T, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    def test_zero_matrix_gives_empty_basis(self):
        assert range_basis(np.zeros((4, 3))).shape == (4, 0)

    def test_zero_columns_gives_empty_basis(self):
        assert range_basis(np.zeros((4, 0))).shape == (4, 0)

    def test_columns_orthonormal(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rows = rng.integers(2, 8)
            cols = rng.integers(1, 8)
            Q = range_basis(rng.normal(size=(rows, cols)))
            assert np.allclose(Q.T @ Q, np.eye(Q.shape[1]), atol=1e-10)

    def test_rejects_non_finite(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError):
            range_basis(bad)


class TestDistSqToRange:
    def test_counterexample_columns_one_two(self):
        assert dist_sq_to_range(V, M[:, :2]) == pytest.approx(1.0, abs=1e-12)

    def test_full_dictionary_contains_target(self):
        assert dist_sq_to_range(V, M) == pytest.approx(0.0, abs=1e-12)

    def test_empty_selection_is_norm_sq(self):
        assert dist_sq_to_range(V, np.zeros((3, 0))) == pytest.approx(3.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dist_sq_to_range(np.ones(4), M)

    def test_rejects_non_finite_matrix(self):
        bad = np.array([[1.0], [np.inf], [0.0]])
        with pytest.raises(ValueError, match="^matrix contains non-finite entries$"):
            dist_sq_to_range(V, bad)

    def test_monotone_under_column_augmentation(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            rows = rng.integers(2, 7)
            cols = rng.integers(0, 5)
            A = rng.normal(size=(rows, cols))
            extra = rng.normal(size=(rows, 1))
            v = rng.normal(size=rows)
            before = dist_sq_to_range(v, A)
            after = dist_sq_to_range(v, np.hstack([A, extra]))
            assert after <= before + 1e-10

    def test_zero_for_exact_combinations(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            rows = rng.integers(2, 7)
            cols = rng.integers(1, 5)
            A = rng.normal(size=(rows, cols))
            v = A @ rng.normal(size=cols)
            assert dist_sq_to_range(v, A) == pytest.approx(0.0, abs=1e-16)

    def test_invariant_under_orthogonal_maps(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            rows = rng.integers(2, 7)
            cols = rng.integers(1, 5)
            A = rng.normal(size=(rows, cols))
            v = rng.normal(size=rows)
            Q, _ = np.linalg.qr(rng.normal(size=(rows, rows)))
            d0 = dist_sq_to_range(v, A)
            d1 = dist_sq_to_range(Q @ v, Q @ A)
            assert d1 == pytest.approx(d0, rel=1e-8, abs=1e-12)

    def test_agrees_with_lstsq_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            rows = rng.integers(2, 8)
            cols = rng.integers(0, 6)
            A = rng.normal(size=(rows, cols))
            v = rng.normal(size=rows)
            assert dist_sq_to_range(v, A) == pytest.approx(
                lstsq_dist_sq(v, A), rel=1e-9, abs=1e-12
            )


class TestMatExp:
    def test_zero_matrix(self):
        assert np.array_equal(mat_exp(np.zeros((3, 3)), 2.0), np.eye(3))

    def test_nilpotent_is_exact_two_term(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        t = 0.37
        assert np.array_equal(mat_exp(A, t), np.eye(2) + A * t)

    def test_diagonal(self):
        d = np.array([0.5, -1.0, 2.0])
        E = mat_exp(np.diag(d), 1.3)
        assert np.allclose(E, np.diag(np.exp(d * 1.3)), rtol=1e-12)

    def test_semigroup_property(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = rng.integers(2, 5)
            A = rng.normal(size=(n, n))
            s, t = rng.normal(size=2)
            prod = mat_exp(A, s) @ mat_exp(A, t)
            assert np.allclose(prod, mat_exp(A, s + t), rtol=1e-8, atol=1e-10)

    def test_matches_scipy_on_general_matrices(self):
        rng = np.random.default_rng(29)
        A = rng.normal(size=(4, 4))
        assert np.allclose(mat_exp(A, 0.7), scipy.linalg.expm(A * 0.7), rtol=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            mat_exp(np.zeros((2, 3)), 1.0)


class TestTolerance:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            Tolerance(rank_rel=bad)
        with pytest.raises(ValueError):
            Tolerance(feas_rel=bad)

    def test_rank_threshold_is_relative(self):
        # a scaled copy of a rank-2 matrix keeps rank 2
        A = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
        assert numerical_rank(A) == 2
        assert numerical_rank(1e8 * A) == 2
        assert numerical_rank(1e-8 * A) == 2


class TestExtendBasis:
    def test_appends_only_new_directions(self):
        Q = range_basis(M[:, :2])
        grown = extend_basis(Q, M)
        assert grown.shape == (3, 3)
        assert np.array_equal(grown[:, :2], Q)
        assert np.allclose(grown.T @ grown, np.eye(3), atol=1e-12)

    def test_columns_inside_span_add_nothing(self):
        Q = range_basis(M[:, :2])
        assert extend_basis(Q, M[:, :2] @ np.array([[2.0], [-3.0]])) is Q

    def test_scale_sets_the_threshold(self):
        # a column of norm 1e-6 is new relative to itself, roundoff relative
        # to a scale of 1e4
        tiny = np.array([[0.0], [0.0], [1e-6]])
        Q = range_basis(M[:, :2])
        assert extend_basis(Q, tiny).shape[1] == 3
        assert extend_basis(Q, tiny, scale=1e4).shape[1] == 2

    def test_none_basis_matches_range_basis(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            A = rng.normal(size=(5, 3)) @ rng.normal(size=(3, 4))
            assert extend_basis(None, A).shape[1] == numerical_rank(A) == 3


def with_singular_values(rng, m, k, s):
    """An m x k matrix with the given singular values (len(s) <= min(m, k))
    and random singular vectors."""
    U, _ = np.linalg.qr(rng.normal(size=(m, m)))
    V, _ = np.linalg.qr(rng.normal(size=(k, k)))
    return (U[:, : len(s)] * s) @ V[:, : len(s)].T


def kernel_stack(rng, b, m, k, rank_rel):
    """A (b, m, k) stack mixing the cases the rank rule must get right: zero
    matrices, duplicate columns, and singular-value ratios just above and
    just below rank_rel."""
    stack = rng.normal(size=(b, m, k))
    for i in range(b):
        kind = i % 5
        if kind == 1:
            stack[i] = 0.0
        elif kind == 2 and k >= 2:
            stack[i][:, -1] = stack[i][:, 0]
        elif kind in (3, 4) and min(m, k) >= 2:
            ratio = rank_rel * (2.0 if kind == 3 else 0.5)
            top = 10.0 ** rng.uniform(-3, 3)
            stack[i] = with_singular_values(rng, m, k, [top, top * ratio])
    return stack


class TestStackedKernel:
    SHAPES = [(4, 2), (6, 3), (3, 5), (5, 5), (1, 1), (3, 1), (1, 4), (4, 0), (0, 3)]

    @pytest.mark.parametrize("rank_rel", [1e-9, 1e-4, float(np.finfo(float).eps)])
    @pytest.mark.parametrize("m, k", SHAPES)
    def test_matches_single_matrix_rule(self, m, k, rank_rel):
        rng = np.random.default_rng(1000 * m + k)
        tol = Tolerance(rank_rel=rank_rel)
        stack = kernel_stack(rng, 20, m, k, rank_rel)
        v = rng.normal(size=m)
        Q, sigma = range_bases(stack, rank_rel)
        assert Q.shape == (20, m, min(m, k))
        assert sigma.shape == (20, min(m, k))
        values = dist_sq_to_ranges(v, stack, rank_rel)
        assert values.shape == (20,)
        for i, A in enumerate(stack):
            kept = Q[i][:, (Q[i] != 0).any(axis=0)]
            rank = numerical_rank(A, tol)
            assert kept.shape[1] == rank
            # the kept columns come first, and they are orthonormal
            assert not Q[i][:, rank:].any()
            assert np.allclose(kept.T @ kept, np.eye(rank), atol=1e-12)
            if min(m, k):
                assert np.allclose(sigma[i], np.linalg.svd(A, compute_uv=False), rtol=1e-12)
            ref = dist_sq_to_range(v, A, tol)
            assert abs(values[i] - ref) <= 1e-14 * max(ref, v @ v)

    def test_ratios_on_both_sides_of_the_threshold(self):
        rng = np.random.default_rng(3)
        for ratio, rank in ((2e-9, 2), (5e-10, 1)):
            A = with_singular_values(rng, 5, 3, [1.0, ratio])
            Q, _ = range_bases(A[None], 1e-9)
            assert np.count_nonzero((Q[0] != 0).any(axis=0)) == rank == numerical_rank(A)

    def test_zero_and_empty_matrices_keep_nothing(self):
        v = np.array([3.0, 4.0])
        for stack in (np.zeros((3, 2, 2)), np.zeros((3, 2, 0))):
            assert not range_bases(stack, 1e-9)[0].any()
            assert np.array_equal(dist_sq_to_ranges(v, stack, 1e-9), [25.0] * 3)
        assert np.array_equal(dist_sq_to_ranges(np.zeros(0), np.zeros((2, 0, 3)), 1e-9),
                              [0.0, 0.0])

    @pytest.mark.parametrize("m, k", [(4, 2), (7, 3), (3, 5), (14, 12)])
    def test_value_does_not_depend_on_the_rest_of_the_stack(self, m, k):
        rng = np.random.default_rng(7 * m + k)
        stack = kernel_stack(rng, 500, m, k, 1e-9)
        v = rng.normal(size=m)
        values = dist_sq_to_ranges(v, stack, 1e-9)
        for i in (0, 1, 2, 3, 4, 257, 499):
            alone = dist_sq_to_ranges(v, stack[i : i + 1], 1e-9)
            assert alone[0] == values[i]
            # a strided view of the same matrix gives the same bits too
            assert dist_sq_to_ranges(v, stack[i].T.copy().T[None], 1e-9)[0] == values[i]


class TestColumnStacks:
    def test_chunks_follow_combinations_across_boundaries(self, monkeypatch):
        monkeypatch.setattr(reachkit.linalg, "STACK_SUBSETS", 4)
        rng = np.random.default_rng(23)
        M = rng.normal(size=(3, 7))
        for k in range(8):
            chunks = list(column_stacks(M, k))
            assert all(1 <= len(idx) <= 4 for idx, _ in chunks)
            order = [tuple(row) for idx, _ in chunks for row in idx.tolist()]
            assert order == list(combinations(range(7), k))
            for idx, stack in chunks:
                assert stack.shape == (len(idx), 3, k)
                for row, sub in zip(idx, stack):
                    assert np.array_equal(sub, M[:, row])

    def test_empty_subset_is_one_chunk(self):
        ((idx, stack),) = column_stacks(np.ones((2, 3)), 0)
        assert idx.shape == (1, 0)
        assert stack.shape == (1, 2, 0)

    def test_chunks_are_bounded(self):
        # the largest size of the largest ground set the CLI accepts
        M = np.zeros((3, 20))
        sizes = [len(idx) for idx, _ in column_stacks(M, 10)]
        assert sum(sizes) == 184_756
        assert max(sizes) == STACK_SUBSETS
        tall = np.zeros((200, 20))
        idx, stack = next(column_stacks(tall, 5))
        assert len(idx) == STACK_ENTRIES // (200 * 5)
        # one subset even when it alone exceeds the entry bound
        idx, stack = next(column_stacks(np.zeros((STACK_ENTRIES // 2 + 1, 2)), 2))
        assert len(idx) == 1
