"""Verdicts that must not depend on how the data is scaled or labelled.

Rank and membership decisions are checked against exact rational arithmetic
and against metamorphic twins of random systems: time-rescaling
(``A -> c A``, ``t1 -> t1 / c``), positive scaling of ``B``, and node
permutations.
"""

from fractions import Fraction

import numpy as np
import pytest

from reachkit.linalg import numerical_rank
from reachkit.solvers import exact_min_reach
from reachkit.system import LinearSystem, is_feasible, reachability_matrix, star_system


def exact_rank(rows):
    """Rank of a matrix of Fractions by Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            if factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def exact_krylov_rank(A, B, S):
    """Exact dimension of ``span[M(S)B, A M(S)B, ..., A^(n-1) M(S)B]`` for
    integer ``A`` and ``B``."""
    n, m = B.shape
    Af = [[Fraction(int(v)) for v in row] for row in A]
    block = [
        [Fraction(int(B[i, j])) if i + 1 in S else Fraction(0) for j in range(m)]
        for i in range(n)
    ]
    cols = []
    for _ in range(n):
        cols.extend([block[i][j] for i in range(n)] for j in range(m))
        block = [
            [sum(Af[i][k] * block[k][j] for k in range(n)) for j in range(m)]
            for i in range(n)
        ]
    return exact_rank(cols)


def random_subset(rng, n):
    size = int(rng.integers(1, n + 1))
    return sorted(int(i) for i in rng.choice(np.arange(1, n + 1), size=size, replace=False))


class TestScaledChain:
    @pytest.mark.parametrize("n", [5, 6])
    def test_chain_hub_reaches_first_node(self, n):
        # A e_i = 1e3 e_(i+1): the raw Krylov stack of e1 spans singular values
        # from 1 to 1e3^(n-1), yet e1 itself is the first basis vector
        A = 1e3 * np.eye(n, k=-1)
        sys = LinearSystem(A=A, B=np.eye(n), t0=0.0, t1=1.0, x0=np.zeros(n), x1=np.eye(n)[0])
        assert is_feasible(sys, [1]).feasible
        assert exact_min_reach(sys).nodes == (1,)


class TestExactKrylovRank:
    def test_rank_matches_rational_arithmetic_at_every_scale(self):
        # nilpotent integer A: every Krylov block past the nilpotency index is
        # exactly zero, so roundoff blocks must not count as new directions
        rng = np.random.default_rng(101)
        for _ in range(60):
            n = int(rng.integers(4, 8))
            m = int(rng.integers(1, 3))
            upper = np.triu(rng.integers(-3, 4, size=(n, n)), k=1)
            A = upper * (rng.random(size=(n, n)) < 0.5)
            perm = rng.permutation(n)
            A = A[np.ix_(perm, perm)]
            B = rng.integers(-3, 4, size=(n, m))
            S = random_subset(rng, n)
            expected = exact_krylov_rank(A, B, S)
            for c in (1.0, 1e3, 1e-3):
                sys = LinearSystem(
                    A=c * A.astype(float),
                    B=B.astype(float),
                    t0=0.0,
                    t1=1.0 / c,
                    x0=np.zeros(n),
                    x1=np.zeros(n),
                )
                got = numerical_rank(reachability_matrix(sys, S))
                assert got == expected, (n, m, S, c)
                assert is_feasible(sys, S).rank == expected


def random_sparse_case(rng):
    """Random sparse system with a target in the reachable space of a random
    node set ``T``: ``x1`` is a combination of ``A^k M(T) B`` columns."""
    n = int(rng.integers(4, 9))
    m = int(rng.integers(1, 4))
    A = rng.normal(size=(n, n)) * (rng.random(size=(n, n)) < 0.35)
    B = rng.normal(size=(n, m))
    T = random_subset(rng, n)
    block = np.zeros((n, m))
    block[[i - 1 for i in T]] = B[[i - 1 for i in T]]
    x1 = np.zeros(n)
    for _ in range(int(rng.integers(1, n + 1))):
        x1 += block @ rng.normal(size=m)
        block = A @ block
    return A, B, x1, T


class TestMetamorphic:
    def test_time_rescaling_input_scaling_and_permutation(self):
        rng = np.random.default_rng(103)
        for _ in range(150):
            A, B, x1, T = random_sparse_case(rng)
            n = A.shape[0]
            # M(S) B mixes the rows of S into shared inputs, so only S = T is
            # known feasible; a larger S may lose the target
            S = T if rng.random() < 0.5 else random_subset(rng, n)
            zero = np.zeros(n)
            base = is_feasible(LinearSystem(A, B, 0.0, 1.0, zero, x1), S)
            if S == T:
                assert base.feasible
            for c in (1e4, 1e-4):
                twin = LinearSystem(c * A, B, 0.0, 1.0 / c, zero, x1)
                assert is_feasible(twin, S).feasible == base.feasible, (c, S, T)
            for b in (1e3, 1e-3):
                twin = LinearSystem(A, b * B, 0.0, 1.0, zero, x1)
                assert is_feasible(twin, S).feasible == base.feasible, (b, S, T)
            perm = rng.permutation(n)  # new node k is old node perm[k]
            inv = np.argsort(perm)
            twin = LinearSystem(A[np.ix_(perm, perm)], B[perm], 0.0, 1.0, zero, x1[perm])
            S_perm = sorted(int(inv[i - 1]) + 1 for i in S)
            assert is_feasible(twin, S_perm).feasible == base.feasible, (perm, S, T)


def metamorphic_cases():
    """The 150 systems and node sets of :class:`TestMetamorphic`, drawn in
    its order."""
    rng = np.random.default_rng(103)
    for _ in range(150):
        A, B, x1, T = random_sparse_case(rng)
        n = A.shape[0]
        S = T if rng.random() < 0.5 else random_subset(rng, n)
        yield A, B, x1, S
        rng.permutation(n)


class TestExtremeRescaling:
    """Time-rescaling far past ``1e±4``: ``||A||_F**2`` and the entries of
    ``A @ A`` leave the float range from about ``c = 1e±154``, and
    ``||A @ A||`` is tiny next to 1 for every small ``c``."""

    def test_verdicts_survive_time_rescaling(self):
        for A, B, x1, S in metamorphic_cases():
            zero = np.zeros(A.shape[0])
            base = is_feasible(LinearSystem(A, B, 0.0, 1.0, zero, x1), S)
            for c in (1e-200, 1e-9, 1e-7, 1e155, 1e200):
                twin = LinearSystem(c * A, B, 0.0, 1.0 / c, zero, x1)
                assert is_feasible(twin, S).feasible == base.feasible, (c, S)

    @pytest.mark.parametrize("c", [1e-200, 1e-9, 1e-7, 1e160])
    def test_transfer_offset_survives_time_rescaling(self, c):
        for A, B, x1, _ in metamorphic_cases():
            ones = np.ones(A.shape[0])
            w = LinearSystem(A, B, 0.0, 1.0, ones, x1).offset
            twin = LinearSystem(c * A, B, 0.0, 1.0 / c, ones, x1).offset
            assert np.linalg.norm(twin - w) <= 1e-12 * np.linalg.norm(w), c

    def test_huge_star_keeps_the_minimum_set(self):
        # ||A||_F**2 overflows: A e3 = 1e160 e1 must still count as a
        # direction, so actuating node 3 alone reaches e1 + e3
        star = star_system(5, x1=np.eye(5)[0] + np.eye(5)[2])
        huge = LinearSystem(1e160 * star.A, star.B, 0.0, 1.0, star.x0, star.x1)
        assert exact_min_reach(star).nodes == (3,)
        assert exact_min_reach(huge).nodes == (3,)


class TestOffsetScale:
    def test_huge_target_keeps_the_node_sets(self):
        # ||x1||^2 overflows at 1e200, so verdicts must be taken on the
        # scaled offset
        rng = np.random.default_rng(151)
        for _ in range(40):
            A, B, x1, T = random_sparse_case(rng)
            n = A.shape[0]
            zero = np.zeros(n)
            base = LinearSystem(A, B, 0.0, 1.0, zero, x1)
            huge = LinearSystem(A, B, 0.0, 1.0, zero, 1e200 * x1)
            S = random_subset(rng, n)
            assert is_feasible(huge, S).feasible == is_feasible(base, S).feasible
            assert is_feasible(huge, T).feasible
            assert exact_min_reach(huge).nodes == exact_min_reach(base).nodes

    def test_tiny_target_is_within_the_floor(self):
        # the bound feas_rel**2 * max(1, ||w||^2) has a floor of feas_rel**2,
        # so a target 1e-200 from the drift is met by the empty set
        rng = np.random.default_rng(157)
        for _ in range(10):
            A, B, x1, T = random_sparse_case(rng)
            n = A.shape[0]
            tiny = LinearSystem(A, B, 0.0, 1.0, np.zeros(n), 1e-200 * x1)
            result = exact_min_reach(tiny)
            assert result.nodes == () and result.feasible
