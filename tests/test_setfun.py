import re
from itertools import combinations

import numpy as np
import pytest

import reachkit.linalg
import reachkit.setfun
from reachkit.errors import CapacityError
from reachkit.linalg import DEFAULT_TOL, lattice_walk, unit_columns
from reachkit.setfun import (
    ColumnSelectionFunction,
    SetFunctionReport,
    _fill,
    _lattice_table,
    _value_table,
    check_monotone,
    check_supermodular,
    evaluate,
)

from helpers import orthonormal_fn, planted_violation_fn

# Target orthogonal to columns 1 and 3; columns 1 and 2 span the plane x3 = 0.
V = np.array([-1.0, 1.0, 1.0])
M = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def counterexample(c=2.0):
    return ColumnSelectionFunction(v=V, M=M, c=c)


def brute_verdicts(fn):
    """Second, independent enumeration of the definitions in plain ascending
    order; returns (monotone_nonincreasing, supermodular) verdicts only."""
    ground = list(range(1, fn.ground_size + 1))
    values = {}
    for size in range(len(ground) + 1):
        for sub in combinations(ground, size):
            values[frozenset(sub)] = evaluate(fn, sub)
    monotone = True
    supermodular = True
    for a in values:
        for b in values:
            if not a <= b:
                continue
            if values[frozenset(b)] > values[frozenset(a)] + 1e-9:
                monotone = False
            for x in ground:
                if x in b:
                    continue
                lhs = values[a] - values[a | {x}]
                rhs = values[b] - values[b | {x}]
                if lhs < rhs - 1e-9:
                    supermodular = False
    return monotone, supermodular


def nested_pair_scan(fn):
    """Reference scan over every nested pair ``A <= A'``: bases by size
    descending, supersets by size ascending, both lexicographic within a
    size, then ``x`` ascending.  Returns (monotone, supermodular, witness)
    with witness ``(subset, superset, element, lhs, rhs)`` or None."""
    ground = tuple(range(1, fn.ground_size + 1))
    values = {}
    for size in range(len(ground) + 1):
        for sub in combinations(ground, size):
            values[frozenset(sub)] = evaluate(fn, sub)
    monotone = all(
        values[a | {x}] <= values[a] + 1e-9
        for a in values
        for x in ground
        if x not in a
    )
    for size_a in range(len(ground), -1, -1):
        for a in combinations(ground, size_a):
            a_set = frozenset(a)
            rest = tuple(k for k in ground if k not in a_set)
            for extra_size in range(len(rest) + 1):
                for extra in combinations(rest, extra_size):
                    sup = a_set | set(extra)
                    for x in ground:
                        if x in sup:
                            continue
                        lhs = values[a_set] - values[a_set | {x}]
                        rhs = values[sup] - values[sup | {x}]
                        if lhs < rhs - 1e-9:
                            subset, superset = tuple(sorted(a_set)), tuple(sorted(sup))
                            return monotone, False, (subset, superset, x, lhs, rhs)
    return monotone, True, None


def report_tuple(report):
    w = report.violation
    witness = None if w is None else (w.subset, w.superset, w.element, w.lhs, w.rhs)
    return report.monotone_nonincreasing, report.supermodular, witness


class TestEvaluate:
    @pytest.mark.parametrize(
        "subset,expected",
        [
            ((1,), 3.0),
            ((1, 3), 3.0),
            ((1, 2), 1.0),
            ((1, 2, 3), 0.0),
            ((), 3.0),
            ((2,), 2.0),
        ],
    )
    def test_counterexample_values(self, subset, expected):
        assert evaluate(counterexample(), subset) == pytest.approx(expected, abs=1e-9)

    def test_exponent_one_takes_square_root(self):
        fn = counterexample(c=1.0)
        assert evaluate(fn, (1,)) == pytest.approx(np.sqrt(3.0), abs=1e-12)
        assert evaluate(fn, (1, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_subset_rejected(self):
        with pytest.raises(ValueError):
            evaluate(counterexample(), (4,))

    def test_zero_target_is_identically_zero(self):
        fn = ColumnSelectionFunction(v=np.zeros(3), M=M)
        for size in range(4):
            for sub in combinations(range(1, 4), size):
                assert evaluate(fn, sub) == pytest.approx(0.0, abs=1e-18)


class TestCheckSupermodular:
    def test_counterexample_witness(self):
        report = check_supermodular(counterexample())
        assert not report.supermodular
        assert report.monotone_nonincreasing
        v = report.violation
        assert v is not None
        assert v.subset == (1,)
        assert v.superset == (1, 2)
        assert v.element == 3
        assert v.lhs == pytest.approx(0.0, abs=1e-9)
        assert v.rhs == pytest.approx(1.0, abs=1e-9)
        assert v.lhs < v.rhs - 1e-9

    @pytest.mark.parametrize("c", [1.0, 2.0, 3.0])
    def test_no_exponent_restores_supermodularity(self, c):
        assert not check_supermodular(counterexample(c)).supermodular

    def test_identity_dictionary_is_supermodular(self):
        # discarding coordinates makes the function additive, hence supermodular
        rng = np.random.default_rng(47)
        for _ in range(5):
            fn = ColumnSelectionFunction(v=rng.normal(size=4), M=np.eye(4))
            report = check_supermodular(fn)
            assert report.supermodular
            assert report.violation is None

    def test_single_column_is_supermodular(self):
        fn = ColumnSelectionFunction(v=np.array([1.0, 2.0]), M=np.array([[1.0], [1.0]]))
        assert check_supermodular(fn).supermodular

    def test_verdicts_match_independent_enumeration(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            rows = int(rng.integers(2, 5))
            cols = int(rng.integers(1, 5))
            fn = ColumnSelectionFunction(
                v=rng.normal(size=rows), M=rng.normal(size=(rows, cols))
            )
            report = check_supermodular(fn)
            monotone, supermodular = brute_verdicts(fn)
            assert report.supermodular == supermodular
            assert report.monotone_nonincreasing == monotone

    def test_matches_nested_pair_scan(self):
        rng = np.random.default_rng(53)
        fns = []
        for _ in range(25):
            rows = int(rng.integers(2, 5))
            cols = int(rng.integers(1, 5))
            fns.append(
                ColumnSelectionFunction(
                    v=rng.normal(size=rows), M=rng.normal(size=(rows, cols))
                )
            )
        rng = np.random.default_rng(61)
        for l in (6, 7, 8):
            fns += [planted_violation_fn(rng, l), orthonormal_fn(rng, l)]
        for fn in fns:
            assert report_tuple(check_supermodular(fn)) == nested_pair_scan(fn)

    def test_at_cap(self):
        rng = np.random.default_rng(67)
        report = check_supermodular(orthonormal_fn(rng, 12))
        assert report.supermodular
        assert report.violation is None
        fn = planted_violation_fn(rng, 12)
        report = check_supermodular(fn)
        assert not report.supermodular
        w = report.violation
        (y,) = set(w.superset) - set(w.subset)
        assert w.superset == tuple(sorted(w.subset + (y,)))
        assert w.element not in w.superset
        x = (w.element,)
        assert w.lhs == evaluate(fn, w.subset) - evaluate(fn, w.subset + x)
        assert w.rhs == evaluate(fn, w.superset) - evaluate(fn, w.superset + x)
        assert w.lhs < w.rhs - 1e-9

    def test_witness_is_deterministic(self):
        a = check_supermodular(counterexample()).violation
        b = check_supermodular(counterexample()).violation
        assert a == b

    def test_cap_enforced(self):
        fn = ColumnSelectionFunction(v=np.zeros(2), M=np.zeros((2, 13)))
        with pytest.raises(CapacityError):
            check_supermodular(fn)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="^cap must be nonnegative$"):
            check_supermodular(counterexample(), cap=-1)
        empty = ColumnSelectionFunction(v=V, M=np.zeros((3, 0)))
        assert check_supermodular(empty, cap=0).supermodular

    def test_small_chunks_give_the_same_report(self, monkeypatch):
        rng = np.random.default_rng(71)
        fns = [planted_violation_fn(rng, 7), orthonormal_fn(rng, 6), counterexample(c=1.0)]
        reports = [report_tuple(check_supermodular(fn)) for fn in fns]
        monkeypatch.setattr(reachkit.linalg, "STACK_SUBSETS", 3)
        assert [report_tuple(check_supermodular(fn)) for fn in fns] == reports


class TestCheckMonotone:
    def test_counterexample_monotone(self):
        assert check_monotone(counterexample())

    def test_random_functions_always_monotone(self):
        rng = np.random.default_rng(59)
        for _ in range(30):
            rows = int(rng.integers(2, 6))
            cols = int(rng.integers(1, 7))
            fn = ColumnSelectionFunction(
                v=rng.normal(size=rows), M=rng.normal(size=(rows, cols))
            )
            assert check_monotone(fn)

    def test_cap_enforced(self):
        fn = ColumnSelectionFunction(v=np.zeros(2), M=np.zeros((2, 13)))
        with pytest.raises(CapacityError):
            check_monotone(fn)

    def test_negative_cap_rejected(self):
        with pytest.raises(ValueError, match="^cap must be nonnegative$"):
            check_monotone(counterexample(), cap=-1)


class TestValidation:
    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            ColumnSelectionFunction(v=V, M=M, c=0.0)

    def test_rejects_infinite_exponent(self):
        with pytest.raises(ValueError):
            ColumnSelectionFunction(v=V, M=M, c=float("inf"))

    def test_rejects_overflowing_largest_value(self):
        # f({}) = ||V||**c = 3**1000 is not a finite float
        with pytest.raises(ValueError, match="overflows"):
            ColumnSelectionFunction(v=V, M=M, c=2000.0)
        unit = ColumnSelectionFunction(v=np.array([1.0, 0.0, 0.0]), M=M, c=2000.0)
        assert evaluate(unit, ()) == 1.0
        assert check_supermodular(unit).monotone_nonincreasing

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ColumnSelectionFunction(v=np.ones(2), M=M)


class TestIntegerCap:
    @pytest.mark.parametrize("check", [check_supermodular, check_monotone])
    @pytest.mark.parametrize("cap", [1.7, True, np.float64(2.0), 3.5])
    def test_non_integer_cap_is_rejected(self, check, cap):
        # int() would truncate 3.5 to 3 and read True as 1
        message = re.escape(f"cap is not an integer: {cap!r}")
        with pytest.raises(ValueError, match=message):
            check(counterexample(), cap=cap)

    @pytest.mark.parametrize("check", [check_supermodular, check_monotone])
    def test_numpy_integer_cap_is_accepted(self, check):
        fn = counterexample()
        assert check(fn, cap=np.int64(3)) == check(fn, cap=3)
        with pytest.raises(CapacityError, match="cap 2"):
            check(fn, cap=np.int64(2))


class TestIntegerColumns:
    @pytest.mark.parametrize("index", [1.5, 1.7, 2.0, True, np.float64(1)])
    def test_non_integer_column_index_is_rejected(self, index):
        fn = ColumnSelectionFunction(v=V, M=M)
        message = re.escape(f"column index is not an integer: {index!r}")
        with pytest.raises(ValueError, match=message):
            evaluate(fn, [index])

    def test_numpy_integers_are_accepted(self):
        fn = ColumnSelectionFunction(v=V, M=M)
        assert evaluate(fn, [np.int64(1)]) == evaluate(fn, [1])

    def test_range_message_is_kept(self):
        fn = ColumnSelectionFunction(v=V, M=M)
        with pytest.raises(ValueError, match=r"column indices must lie in 1\.\.3, got \[4\]"):
            evaluate(fn, [4])


def near_threshold_fn(rng, l, ratio, c=2.0):
    """Columns 1 and 2 differ by ``ratio`` times a random vector, so the
    smaller singular value of that pair is about ``ratio`` times the larger,
    near the default ``rank_rel`` of 1e-9."""
    m = l // 2 + 2
    M = rng.normal(size=(m, l))
    M[:, 1] = M[:, 0] + ratio * rng.normal(size=m)
    return ColumnSelectionFunction(v=rng.normal(size=m), M=M, c=c)


def kernel_table(fn):
    values = np.empty(1 << fn.ground_size)
    _fill(fn, values, None, DEFAULT_TOL)
    return values


def screen_cases(rng, c):
    """Random, scaled and near-threshold functions with exponent ``c``; the
    scale keeps ||v||**c finite."""
    big = 10.0 ** (300 / max(c, 2.0))
    fns = []
    for l in (7, 9):
        m = int(rng.integers(3, 9))
        fns.append(ColumnSelectionFunction(v=rng.normal(size=m), M=rng.normal(size=(m, l)), c=c))
        fn = planted_violation_fn(rng, l)
        fns.append(ColumnSelectionFunction(v=fn.v * big, M=fn.M * 1e-150, c=c))
        fns.append(ColumnSelectionFunction(v=fn.v * 1e-150, M=fn.M * 1e-150, c=c))
        fns.append(ColumnSelectionFunction(v=fn.v, M=fn.M * 1e150, c=c))
        fns += [near_threshold_fn(rng, l, ratio, c) for ratio in (1e-10, 1e-9, 1e-8)]
    return fns


class TestLatticeScreen:
    """The lattice walk stands in for the kernel only where its certified
    allowance cannot change a verdict, so every report is the kernel's."""

    @pytest.mark.parametrize("c", [1.0, 2.0, 3.0])
    def test_certified_values_lie_within_the_allowance(self, c):
        rng = np.random.default_rng(83)
        for fn in screen_cases(rng, c):
            with np.errstate(all="ignore"):
                lattice, err = _lattice_table(fn, DEFAULT_TOL)
            certified = ~np.isnan(lattice)
            assert certified.sum() > len(lattice) // 2
            gap = np.abs(lattice - kernel_table(fn))
            assert (gap[certified] <= err[certified]).all()

    @pytest.mark.parametrize("ratio", [1e-10, 1e-9, 1e-8])
    def test_near_threshold_pair_is_not_certified(self, ratio):
        fn = near_threshold_fn(np.random.default_rng(89), 8, ratio)
        with np.errstate(all="ignore"):
            lattice, _ = _lattice_table(fn, DEFAULT_TOL)
        # every subset of at most m columns holding columns 1 and 2 falls to
        # the kernel; a larger one can span R^m without that pair
        m = fn.M.shape[0]
        pair = [mask for mask in range(0b11, 1 << 8, 4) if bin(mask).count("1") <= m]
        assert np.isnan(lattice[pair]).all()

    @pytest.mark.parametrize("c", [1.0, 2.0, 3.0])
    def test_near_threshold_reports_match_nested_pair_scan(self, c):
        rng = np.random.default_rng(97)
        for ratio in (1e-10, 3e-10, 1e-9, 3e-9, 1e-8):
            fn = near_threshold_fn(rng, 7, ratio, c)
            report = check_supermodular(fn)
            assert report_tuple(report) == nested_pair_scan(fn)
            assert check_monotone(fn) == report.monotone_nonincreasing

    def test_nothing_certified_gives_the_same_reports(self, monkeypatch):
        rng = np.random.default_rng(101)
        fns = [planted_violation_fn(rng, 9), orthonormal_fn(rng, 8),
               near_threshold_fn(rng, 8, 1e-9, c=1.0)]
        fns += screen_cases(rng, 3.0)[:4]
        reports = [(repr(check_supermodular(fn)), check_monotone(fn)) for fn in fns]
        # SAFETY * rank_rel = inf: no bound clears it, the empty set included
        monkeypatch.setattr(reachkit.setfun, "SAFETY", np.inf)
        for fn, report in zip(fns, reports):
            assert _value_table(fn, DEFAULT_TOL, local=True)[1].all()
            assert (repr(check_supermodular(fn)), check_monotone(fn)) == report

    def test_screen_sends_few_subsets_to_the_kernel(self):
        rng = np.random.default_rng(103)
        for fn in (planted_violation_fn(rng, 10), orthonormal_fn(rng, 10)):
            for local in (False, True):
                _, kernel = _value_table(fn, DEFAULT_TOL, local)
                assert kernel.sum() <= len(kernel) // 8

    def test_small_ground_sets_keep_the_kernel_table(self):
        assert _value_table(counterexample(), DEFAULT_TOL, local=True)[1] is None

    def test_dependent_columns_stay_within_the_allowance(self):
        # columns 1-3 are equal, 5 and 6 are equal and column 4 is column 1
        # plus column 7; a subset whose walk added a dependent column has a
        # Gram bound of noise, which must certify nothing
        M = 0.1 * np.array([[0, 0, 0, 1, 0, 0, 1], [1, 1, 1, 1, 1, 1, 0], [1, 1, 1, 1, 0, 0, 0.0]])
        rng = np.random.default_rng(109)
        for _ in range(5):
            fn = ColumnSelectionFunction(v=rng.normal(size=3), M=M)
            with np.errstate(all="ignore"):
                lattice, err = _lattice_table(fn, DEFAULT_TOL)
            certified = ~np.isnan(lattice)
            assert certified.sum() > len(lattice) // 2
            gap = np.abs(lattice - kernel_table(fn))
            assert (gap[certified] <= err[certified]).all()

    # 150 floats hold only the first level of these functions, 500 the
    # first one or two
    @pytest.mark.parametrize("budget", [150, 500])
    @pytest.mark.filterwarnings("error")
    def test_lowered_walk_budget_gives_the_same_reports(self, monkeypatch, budget):
        rng = np.random.default_rng(113)
        zero = ColumnSelectionFunction(v=rng.normal(size=4), M=np.zeros((4, 8)))
        fns = [planted_violation_fn(rng, 9), planted_violation_fn(rng, 7), orthonormal_fn(rng, 8),
               near_threshold_fn(rng, 8, 1e-9, c=1.0), zero]
        reports = [(repr(check_supermodular(fn)), check_monotone(fn)) for fn in fns]
        # every value of an all-zero M is ||v||**2: modular, hence supermodular
        assert check_supermodular(zero) == SetFunctionReport(True, True, None)
        monkeypatch.setattr(reachkit.linalg, "STACK_ENTRIES", budget)
        for fn, report in zip(fns, reports):
            m, l = fn.M.shape
            reached = sum(1 for _ in lattice_walk(fn.v, *unit_columns(fn.M), 1.0))
            assert reached < min(m, l)
            # the subsets of sizes the walk does not reach have kernel values
            sizes = np.array([bin(mask).count("1") for mask in range(1 << l)])
            far = (sizes > reached) & (sizes <= m)
            values, _ = _value_table(fn, DEFAULT_TOL, local=True)
            assert np.array_equal(values[far], kernel_table(fn)[far])
            assert (repr(check_supermodular(fn)), check_monotone(fn)) == report

    def test_planted_with_small_chunks(self, monkeypatch):
        rng = np.random.default_rng(107)
        fn = planted_violation_fn(rng, 10)
        report = check_supermodular(fn)
        assert not report.supermodular
        monkeypatch.setattr(reachkit.linalg, "STACK_SUBSETS", 3)
        assert check_supermodular(fn) == report
        monkeypatch.setattr(reachkit.setfun, "SAFETY", np.inf)
        assert check_supermodular(fn) == report
