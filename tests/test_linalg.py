import re
import warnings
from itertools import combinations

import numpy as np
import pytest
import scipy.linalg

import reachkit.linalg
from reachkit.linalg import (
    STACK_ENTRIES,
    STACK_SUBSETS,
    Tolerance,
    as_count,
    as_indices,
    as_matrix,
    column_stacks,
    dist_sq_to_range,
    dist_sq_to_ranges,
    extend_basis,
    lattice_walk,
    mat_exp,
    numerical_rank,
    range_bases,
    range_basis,
    unit_columns,
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


class TestAsCount:
    @pytest.mark.parametrize("value", [1.7, True, np.float64(2.0), np.bool_(True), "2"])
    def test_non_integer_is_rejected(self, value):
        message = re.escape(f"k is not an integer: {value!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            as_count(value, "k")

    def test_python_and_numpy_integers_are_returned_as_int(self):
        for value in (3, np.int64(3), np.uint8(3), np.intp(3)):
            count = as_count(value, "k")
            assert count == 3 and type(count) is int

    def test_floor_messages(self):
        assert as_count(0, "k") == 0
        with pytest.raises(ValueError, match="^k must be nonnegative$"):
            as_count(-1, "k")
        assert as_count(np.int64(2), "k", 2) == 2
        with pytest.raises(ValueError, match="^k must be at least 2, got 1$"):
            as_count(np.int64(1), "k", 2)

    def test_indices_make_no_count_call(self, monkeypatch):
        # as_count is traced as a public function: one call per index would
        # add a span per node to every feasibility test
        def refuse(*args, **kwargs):
            raise AssertionError("as_indices called as_count")

        monkeypatch.setattr(reachkit.linalg, "as_count", refuse)
        assert as_indices(range(1, 5), 4, "node") == (1, 2, 3, 4)


class TestAsMatrix:
    def test_rejects_a_vector(self):
        with pytest.raises(ValueError, match=re.escape("A must be 2-dimensional, got shape (3,)")):
            as_matrix(np.zeros(3), name="A")


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

    def test_rejects_non_finite_time(self):
        with pytest.raises(ValueError, match="t must be finite"):
            mat_exp(np.eye(2), np.inf)

    @pytest.mark.parametrize("c", [1e-200, 1e-9, 1e160])
    def test_rescaled_rotation(self, c):
        # exp(c R t) with t = 1 / c is the rotation by 1 rad at every scale,
        # although (c R)^2 underflows or overflows at the extremes
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        rotation = np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]])
        np.testing.assert_allclose(mat_exp(c * R, 1.0 / c), rotation, rtol=0, atol=1e-14)

    def test_small_matrix_that_does_not_square_to_zero(self):
        A = 1e-7 * np.random.default_rng(31).normal(size=(3, 3))
        assert np.linalg.norm(A) ** 2 < 1e-12
        assert np.array_equal(mat_exp(A, 1.0), scipy.linalg.expm(A))
        np.testing.assert_allclose(mat_exp(A, 1e7), scipy.linalg.expm(A * 1e7), rtol=1e-12)


class TestTolerance:
    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            Tolerance(rank_rel=bad)
        with pytest.raises(ValueError):
            Tolerance(feas_rel=bad)

    def test_feas_rel_whose_square_underflows_is_refused(self):
        # 1e-300 squared is 0: every membership threshold would be 0
        with pytest.raises(ValueError, match=r"feas_rel .*square .*got 1e-300"):
            Tolerance(feas_rel=1e-300)
        assert Tolerance(rank_rel=1e-300).rank_rel == 1e-300

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

    @staticmethod
    def count_svds(monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        return calls

    @pytest.mark.parametrize("scale", [None, 0.0, 1.0, 1e4])
    def test_zero_remainder_returns_the_basis_without_an_svd(self, monkeypatch, scale):
        # an SVD of an all-zero block has no singular value to keep, whatever
        # the scale: the basis comes back as it was
        axes = np.eye(4)[:, :2]
        inside = axes @ np.array([[2.0, 0.0, -1.5], [0.5, 3.0, 0.0]])
        calls = self.count_svds(monkeypatch)
        assert extend_basis(axes, inside, scale=scale) is axes
        assert extend_basis(axes, np.zeros((4, 2)), scale=scale) is axes
        empty = extend_basis(None, np.zeros((4, 3)), scale=scale)
        assert empty.shape == (4, 0)
        assert calls == []
        # a remainder that is not exactly zero still gets its SVD
        assert extend_basis(axes, np.eye(4)[:, 2:], scale=scale).shape[1] == (
            2 if scale == 0.0 else 4
        )
        assert len(calls) == 1

    def test_diagonal_krylov_build_takes_one_svd_per_node(self, monkeypatch):
        # A e_i lies on e_i: the second block projects to exactly zero
        from reachkit.system import LinearSystem, reachability_matrix

        n = 6
        sys = LinearSystem(
            A=np.diag(np.linspace(-2.0, 3.0, n)), B=np.eye(n), t0=0.0, t1=1.0,
            x0=np.zeros(n), x1=np.ones(n),
        )
        calls = self.count_svds(monkeypatch)
        for i in range(1, n + 1):
            calls.clear()
            K = reachability_matrix(sys, [i])
            assert len(calls) == 1
            assert np.array_equal(np.abs(K), np.eye(n)[:, [i - 1]])


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


class TestLatticeWalk:
    FLOOR = 1e3 * np.finfo(float).eps

    def test_levels_hold_every_subset_in_colex_order(self):
        M = np.random.default_rng(251).normal(size=(5, 7))
        levels = list(lattice_walk(np.ones(5), *unit_columns(M), self.FLOOR))
        assert len(levels) == 5
        for k, (masks, members, d2, sig2, frob2) in enumerate(levels, start=1):
            subsets = sorted(combinations(range(7), k), key=lambda S: sum(1 << j for j in S))
            assert [tuple(col) for col in members.T.tolist()] == subsets
            assert masks.tolist() == [sum(1 << j for j in S) for S in subsets]
            assert d2.shape == sig2.shape == frob2.shape == (len(subsets),)

    @pytest.mark.parametrize("spread", [0.0, 5.0])
    def test_values_match_the_stacked_kernel(self, spread):
        # columns scaled by e^[-spread, spread]
        rng = np.random.default_rng(257)
        for _ in range(10):
            m, l = int(rng.integers(2, 7)), int(rng.integers(2, 8))
            M = rng.normal(size=(m, l)) * np.exp(rng.uniform(-spread, spread, size=l))
            v = rng.normal(size=m)
            norms2 = (M * M).sum(axis=0)
            for masks, members, d2, sig2, frob2 in lattice_walk(v, *unit_columns(M), self.FLOOR):
                stack = np.stack([M[:, S] for S in members.T])
                kernel = dist_sq_to_ranges(v, stack, np.finfo(float).eps)
                np.testing.assert_allclose(d2, kernel, rtol=0, atol=1e-12 * (v @ v))
                np.testing.assert_allclose(frob2 * norms2.max(), (stack**2).sum(axis=(1, 2)), rtol=1e-13)
                # a lower bound on sigma_min^2, in units of the largest
                # squared column norm
                smin2 = np.linalg.svd(stack, compute_uv=False)[:, -1] ** 2 / norms2.max()
                assert not np.isnan(sig2).any()
                assert (sig2 <= smin2 * (1 + 1e-9)).all()

    def test_dependent_columns_certify_nothing(self):
        # columns 1-3 are equal, 5 and 6 are equal and column 4 is column 1
        # plus column 7: the Gram determinant of a subset built on a step
        # that adds a dependent column is noise, and so is every bound built
        # on it, however large
        M = 0.1 * np.array([[0, 0, 0, 1, 0, 0, 1], [1, 1, 1, 1, 1, 1, 0], [1, 1, 1, 1, 0, 0, 0.0]])
        for _, members, _, sig2, _ in lattice_walk(np.ones(3), *unit_columns(M), self.FLOOR):
            for S, bound in zip(members.T.tolist(), sig2):
                assert np.isnan(bound) == (np.linalg.matrix_rank(M[:, S]) < len(S)), S

    def test_zero_column_gives_nan(self):
        M = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        masks, members, d2, sig2, frob2 = next(lattice_walk(np.ones(2), *unit_columns(M), self.FLOOR))
        assert np.isnan(sig2).tolist() == [False, True, False]
        assert np.isnan(d2).tolist() == [False, True, False]

    # level k of 9 columns in R^4 holds 4 * C(9, k) * k floats: 36, 288,
    # 1008, then 2016
    @pytest.mark.parametrize("budget, reached", [(35, 0), (36, 1), (1007, 2), (1008, 3), (2016, 4)])
    def test_walk_ends_at_its_memory_budget(self, monkeypatch, budget, reached):
        M = np.random.default_rng(263).normal(size=(4, 9))
        built = []
        level = reachkit.linalg._lattice_level

        def recording(l, k):
            built.append(k)
            return level(l, k)

        monkeypatch.setattr(reachkit.linalg, "_lattice_level", recording)
        monkeypatch.setattr(reachkit.linalg, "STACK_ENTRIES", budget)
        levels = list(lattice_walk(np.ones(4), *unit_columns(M), self.FLOOR))
        assert [members.shape[0] for _, members, *_ in levels] == list(range(1, reached + 1))
        # the (k + 1)-subsets grow from _lattice_level(l, k); no level past
        # the last one yielded is built
        assert max(built, default=-1) == reached - 1

    @pytest.mark.parametrize("shape", [(3, 5), (0, 4), (3, 0), (0, 0)])
    def test_zero_or_empty_matrix_certifies_nothing_without_a_warning(self, shape):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            N, w = unit_columns(np.zeros(shape))
            levels = list(lattice_walk(np.ones(shape[0]), N, w, self.FLOOR))
        assert N.shape == shape[::-1]
        assert len(levels) == min(shape)
        for _, _, d2, sig2, _ in levels:
            assert np.isnan(d2).all() and np.isnan(sig2).all()
