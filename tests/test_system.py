import numpy as np
import pytest

from reachkit.linalg import dist_sq_to_range
from reachkit.system import (
    LinearSystem,
    actuation_mask,
    is_feasible,
    reachability_matrix,
    star_system,
    transfer_offset,
)
from reachkit.hardness import generate
from reachkit.solvers import exact_min_reach


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
