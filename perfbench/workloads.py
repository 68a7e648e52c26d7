"""Seeded task lists for the four benchmark workloads.

Every task pairs one call into ``reachkit`` with the answer known from how
its input was built.  Inputs come from ``numpy.random.default_rng(seed)``
only, so one seed always gives the same task list.  Each list is stratified:
the seed changes the numbers in the inputs and their order, never the mix of
task kinds and sizes, so the work in one pass stays comparable across seeds.

Calls go through module attributes of ``reachkit`` looked up at call time
(``rk.exact_min_reach``, ``rk.cli.main``), so the traced run sees the
wrappers it installs.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reachkit as rk
import reachkit.cli  # noqa: F401  (binds rk.cli)

# Grid intervals for every synthesis task of the ``synth`` workload.
SYNTH_N = 1000

# Accepted terminal error of a feasible synthesized transfer, relative to
# max(1, ||x1||).  Observed values are 1e-15 (stars) to 1e-11 (dense).
SYNTH_REL_ERR = 1e-6

# Absolute slack the set-function checker allows before it reports a
# violation; a re-checked witness must beat it too.
VIOLATION_SLACK = 1e-9

# Fit slack of the variable-selection solver with the default tolerance.
FEAS_REL = 1e-9


@dataclass(frozen=True)
class Task:
    """One call into the program and its construction-known answer.

    ``check`` returns None when the output is right and a message otherwise.
    ``raises`` names the exception the input calls for; such a task passes
    only if exactly that exception is raised.  ``known_defect`` marks a
    wrong output this commit is known to give (the message says why); it
    still counts as failed.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None] | None = None
    raises: type[BaseException] | None = None
    known_defect: Callable[[object], str | None] | None = None


@dataclass(frozen=True)
class CliOutput:
    code: int
    stdout: str


def build(name: str, seed: int, workdir: Path) -> list[Task]:
    """Seeded, shuffled task list of workload ``name``."""
    rng = np.random.default_rng(seed)
    builders = {
        "select": _select_tasks,
        "synth": _synth_tasks,
        "analyze": _analyze_tasks,
        "cli": _cli_tasks,
    }
    tasks = builders[name](rng, workdir)
    order = rng.permutation(len(tasks))
    return [tasks[i] for i in order]


# --------------------------------------------------------------------------
# shared input constructions


def planted_U(rng, m: int, l: int, k: int) -> np.ndarray:
    """0/1 matrix whose last k columns are the indicator vectors of a
    balanced row partition, so ``U y = 1`` has a k-sparse 0/1 solution.

    Every other column has fewer ones than the smallest group.  Each planted
    column then shrinks the greedy residual by ``d * |group|`` and no other
    node by more than ``d * (|group| - 1)``, so greedy stops at k nodes too.
    Planting in the last columns puts the planted node set last among the
    k-subsets, so exact enumeration does the same amount of work every seed.
    """
    groups = np.arange(m) % k
    rng.shuffle(groups)
    smallest = m // k
    U = np.zeros((m, l))
    for j in range(l - k):
        ones = rng.choice(m, size=int(rng.integers(0, smallest)), replace=False)
        U[ones, j] = 1.0
    for g in range(k):
        U[:, l - k + g] = (groups == g).astype(float)
    return U


def _system(A, B, x0, x1, t1=1.0) -> rk.LinearSystem:
    return rk.LinearSystem(A=A, B=B, t0=0.0, t1=t1, x0=x0, x1=x1)


def infeasible_system(rng, n: int) -> rk.LinearSystem:
    """Transfer that no node set reaches, not even all n nodes.

    Two coordinates Z carry no input (zero rows of B) and ``A`` never maps
    the other coordinates into Z, so every reachable set lies in the
    complement of Z while the target has a unit-size component in Z.
    """
    r = n - 2
    A = np.zeros((n, n))
    A[:r, :r] = np.outer(rng.standard_normal(r), rng.standard_normal(r)) / r
    A[:r, r:] = rng.standard_normal((r, 2))
    A[r:, r:] = rng.standard_normal((2, 2))
    B = np.zeros((n, 2))
    B[:r] = rng.standard_normal((r, 2))
    x1 = rng.standard_normal(n)
    x1[r:] = rng.choice([-1.0, 1.0], size=2) * rng.uniform(0.5, 2.0, size=2)
    P = rng.permutation(n)
    return _system(A[np.ix_(P, P)], B[P], np.zeros(n), x1[P])


def chain_system(n: int, c: float) -> rk.LinearSystem:
    """Chain ``x_{i+1}' = c x_i`` with target e1: actuating node 1 suffices
    whatever the scale c."""
    x1 = np.zeros(n)
    x1[0] = 1.0
    return _system(c * np.eye(n, k=-1), np.eye(n), np.zeros(n), x1)


def diagonal_system(rng, n: int, support: np.ndarray) -> rk.LinearSystem:
    """Decoupled nodes with a target on ``support``: node i reaches only e_i,
    so the feasible sets are exactly the supersets of the support."""
    x1 = np.zeros(n)
    x1[support] = rng.choice([-1.0, 1.0], size=support.size) * rng.uniform(
        0.5, 2.0, size=support.size
    )
    return _system(np.diag(rng.uniform(-1.0, 1.0, n)), np.eye(n), np.zeros(n), x1)


def stable_dense_system(rng, n: int) -> rk.LinearSystem:
    """Random dense ``A`` shifted to be stable, every node actuated."""
    A = rng.standard_normal((n, n)) / np.sqrt(n) - 1.5 * np.eye(n)
    return _system(A, np.eye(n), rng.standard_normal(n), rng.standard_normal(n))


def star_transfer(rng, n: int) -> rk.LinearSystem:
    """Star system steered along e1, the only direction node 1 reaches."""
    a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
    x1 = np.zeros(n)
    x1[0] = a
    return rk.star_system(n, x1=x1, t1=float(rng.uniform(0.5, 2.0)))


def planted_varsel(rng, m: int, l: int, k: int, delta: float) -> rk.VarSelInstance:
    """Gaussian dictionary with ``z`` an exact combination of its last k
    columns, the last support of size k that enumeration tries."""
    U = rng.standard_normal((m, l))
    y = np.zeros(l)
    y[l - k :] = rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.5, 2.0, size=k)
    return rk.VarSelInstance(U=U, z=U @ y, delta=delta)


def planted_violation_fn(rng, l: int) -> rk.ColumnSelectionFunction:
    """Random column set-function with a planted supermodularity violation.

    Columns p = v + u and q = u with u orthogonal to v and ||u|| = ||v||:
    adding p to {} lowers f by ||v||^2 / 2, adding p to {q} lowers it by
    ||v||^2, which breaks diminishing decreases by ||v||^2 / 2.
    """
    m = l // 2 + 2
    v = rng.standard_normal(m)
    u = rng.standard_normal(m)
    u -= (u @ v) / (v @ v) * v
    u *= np.linalg.norm(v) / np.linalg.norm(u)
    M = rng.standard_normal((m, l))
    p, q = rng.choice(l, size=2, replace=False)
    M[:, p] = v + u
    M[:, q] = u
    return rk.ColumnSelectionFunction(v=v, M=M)


def orthonormal_fn(rng, l: int) -> rk.ColumnSelectionFunction:
    """Orthonormal columns make the function modular, hence supermodular."""
    Q, _ = np.linalg.qr(rng.standard_normal((l + 2, l)))
    return rk.ColumnSelectionFunction(v=rng.standard_normal(l + 2), M=Q)


# --------------------------------------------------------------------------
# answer checks


def _expect_nodes(expected: tuple[int, ...]):
    def check(res) -> str | None:
        if tuple(res.nodes) != expected or not res.feasible:
            return f"returned {tuple(res.nodes)} (feasible={res.feasible}), expected {expected}"
        return None

    return check


def _expect_at_most(k: int):
    def check(res) -> str | None:
        if not res.feasible or res.cardinality > k or len(res.nodes) != res.cardinality:
            return (
                f"returned {tuple(res.nodes)} (feasible={res.feasible}), "
                f"expected a feasible set of at most {k} nodes"
            )
        return None

    return check


def _expect_synth(sys: rk.LinearSystem):
    limit = SYNTH_REL_ERR * max(1.0, float(np.linalg.norm(sys.x1)))

    def check(res) -> str | None:
        err = float(np.linalg.norm(res.x_samples[-1] - sys.x1))
        if not np.allclose(res.x_samples[0], sys.x0):
            return "trajectory does not start at x0"
        if abs(err - res.terminal_error) > 1e-12 * max(1.0, err):
            return f"reported terminal_error {res.terminal_error:.3e} != {err:.3e}"
        if not err <= limit:
            return f"terminal error {err:.3e} exceeds {limit:.1e}"
        return None

    return check


def _expect_varsel(inst: rk.VarSelInstance, k: int):
    slack = FEAS_REL * max(1.0, float(np.linalg.norm(inst.z)))

    def check(res) -> str | None:
        support = tuple(int(j) + 1 for j in np.flatnonzero(res.y))
        if not set(support) <= set(res.support) or res.norm0 != len(res.support):
            return f"support {res.support} does not match y"
        if res.norm0 > k:
            return f"norm0 {res.norm0} exceeds the planted {k}"
        residual = float(np.linalg.norm(inst.U @ res.y - inst.z))
        if residual > inst.delta + slack:
            return f"residual {residual:.3e} exceeds delta {inst.delta} + slack"
        return None

    return check


def _expect_violation(fn: rk.ColumnSelectionFunction):
    def check(report) -> str | None:
        w = report.violation
        if report.supermodular or w is None or not report.monotone_nonincreasing:
            return f"expected a violation and monotone=True, got {report}"
        if not set(w.subset) <= set(w.superset) or w.element in w.superset:
            return f"witness {w} is not a nested pair with an outside element"
        f = lambda S: rk.evaluate(fn, S)  # noqa: E731
        lhs = f(w.subset) - f(w.subset + (w.element,))
        rhs = f(w.superset) - f(w.superset + (w.element,))
        if not lhs < rhs - VIOLATION_SLACK:
            return f"witness does not re-check: lhs={lhs:.3e}, rhs={rhs:.3e}"
        return None

    return check


def _expect_supermodular(report) -> str | None:
    if not report.supermodular or not report.monotone_nonincreasing:
        return f"expected supermodular and monotone, got {report}"
    return None


def _expect_true(value) -> str | None:
    return None if value is True else f"expected True, got {value!r}"


# --------------------------------------------------------------------------
# select: rank decisions, Krylov stacking and subset enumeration


def _chain_defect(c: float):
    """At c = 1e3 the raw Krylov stack of the chain ties the relative rank
    threshold exactly (sigma ratio 1e9), e1 is dropped and the solver
    returns (1, 2)."""

    def known(res) -> str | None:
        if c == 1e3 and tuple(res.nodes) == (1, 2):
            return "scale-dependent rank threshold (ROADMAP item 2)"
        return None

    return known


def _select_tasks(rng, workdir: Path) -> list[Task]:
    tasks: list[Task] = []
    # (m, l, d) with n = max(m, l) * (d + 1) in 16..20
    exact_shapes = [(4, 4, 3), (4, 5, 3), (5, 5, 3), (3, 3, 5), (3, 4, 4), (4, 4, 4)]
    for m, l, d in exact_shapes:
        for k, budget in ((2, None), (2, 2), (3, 3)):
            inst = rk.generate(planted_U(rng, m, l, k), d)
            tasks.append(
                Task(
                    f"exact hard n={inst.dims.n} k={k} budget={budget}",
                    lambda s=inst.sys, b=budget: rk.exact_min_reach(s, budget=b),
                    _expect_at_most(k),
                )
            )
    greedy_shapes = [(4, 4, 3, 2), (5, 5, 3, 2), (6, 6, 2, 2), (6, 6, 2, 3)]
    for m, l, d, k in greedy_shapes * 10:
        inst = rk.generate(planted_U(rng, m, l, k), d)
        tasks.append(
            Task(
                f"greedy hard n={inst.dims.n} k={k}",
                lambda s=inst.sys: rk.greedy_min_reach(s),
                _expect_at_most(k),
            )
        )
    for n in (60, 120, 200):
        support = np.sort(rng.choice(n, size=8, replace=False))
        sys = diagonal_system(rng, n, support)
        tasks.append(
            Task(
                f"greedy diagonal n={n}",
                lambda s=sys: rk.greedy_min_reach(s),
                _expect_nodes(tuple(int(i) + 1 for i in support)),
            )
        )
    for n in range(5, 21):
        tasks.append(
            Task(
                f"exact star n={n}",
                lambda s=rk.star_system(n): rk.exact_min_reach(s),
                _expect_nodes((1,)),
            )
        )
    for n in (10, 11, 12):
        tasks.append(
            Task(
                f"exact infeasible n={n}",
                lambda s=infeasible_system(rng, n): rk.exact_min_reach(s),
                raises=rk.InfeasibleError,
            )
        )
    # c log-uniform on a quarter-decade grid over [1e-3, 1e3], one chain each
    for q in range(-12, 13):
        c = 10.0 ** (q / 4)
        n = 5 + (q + 12) % 6
        tasks.append(
            Task(
                f"exact chain n={n} c={c:.4g}",
                lambda s=chain_system(n, c): rk.exact_min_reach(s),
                _expect_nodes((1,)),
                known_defect=_chain_defect(c),
            )
        )
    return tasks


# --------------------------------------------------------------------------
# synth: propagator and integrand stacks, Simpson quadrature, RK4


def _synth_tasks(rng, workdir: Path) -> list[Task]:
    tasks: list[Task] = []
    # eight equal-size n = 60 stars hold task_p90_s inside one stratum
    for n in (40,) * 16 + (60,) * 8 + (80,) * 4 + (120, 160):
        sys = star_transfer(rng, n)
        tasks.append(
            Task(
                f"synth star n={n}",
                lambda s=sys: rk.min_energy_transfer(s, [1], N=SYNTH_N),
                _expect_synth(sys),
            )
        )
    for n in (20,) * 60 + (30,) * 10:
        sys = stable_dense_system(rng, n)
        tasks.append(
            Task(
                f"synth dense n={n}",
                lambda s=sys: rk.min_energy_transfer(s, range(1, s.n + 1), N=SYNTH_N),
                _expect_synth(sys),
            )
        )
    return tasks


# --------------------------------------------------------------------------
# analyze: set-function subset loops and variable-selection supports


def _analyze_tasks(rng, workdir: Path) -> list[Task]:
    tasks: list[Task] = []
    for l in (8,) * 6 + (9,) * 2 + (10, 11):
        fn = planted_violation_fn(rng, l)
        tasks.append(
            Task(f"supermodular random l={l}", lambda f=fn: rk.check_supermodular(f),
                 _expect_violation(fn))
        )
        fn = orthonormal_fn(rng, l)
        tasks.append(
            Task(f"supermodular orthonormal l={l}", lambda f=fn: rk.check_supermodular(f),
                 _expect_supermodular)
        )
    for l in (8, 8, 9, 9, 10, 10):
        for make in (planted_violation_fn, orthonormal_fn):
            fn = make(rng, l)
            tasks.append(
                Task(f"monotone {make.__name__} l={l}", lambda f=fn: rk.check_monotone(f),
                     _expect_true)
            )
    shapes = [(6, 10), (6, 12), (7, 12), (7, 14), (8, 14), (8, 16)]
    for m, l in shapes * 4:
        for k in (1, 2, 3):
            delta = float(rng.choice([0.0, 1e-3]))
            inst = planted_varsel(rng, m, l, k, delta)
            tasks.append(
                Task(f"varsel {m}x{l} k={k}", lambda i=inst: rk.varsel_exact(i),
                     _expect_varsel(inst, k))
            )
    return tasks


# --------------------------------------------------------------------------
# cli: instance parsing, argparse and JSON emission, all 8 subcommands

# The pinned supermodularity counterexample and its witness.
COUNTEREXAMPLE = {
    "v": [-1.0, 1.0, 1.0],
    "M": [[1.0, 0.0, 1.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
}
COUNTEREXAMPLE_WITNESS = {"A": [1], "A_prime": [1, 2], "x": 3, "lhs": 0.0, "rhs": 1.0}

# tests/fixtures/greedy_gap.json stacks an invertible 2x2 block twice with
# target ones on rows 1..4: the two column nodes {5, 6} are the unique
# minimum, while greedy needs more nodes.
GREEDY_GAP = Path("tests") / "fixtures" / "greedy_gap.json"
GREEDY_GAP_EXACT = [5, 6]


def run_cli(argv: list[str]) -> CliOutput:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = rk.cli.main(argv)
    return CliOutput(code=code, stdout=out.getvalue())


def _expect_cli(code: int, **fields):
    """Exit code, and for --json output the given keys with these values
    (a callable value is a predicate on the field)."""

    def check(res: CliOutput) -> str | None:
        if res.code != code:
            return f"exit code {res.code}, expected {code}"
        if not fields:
            return None
        try:
            payload = json.loads(res.stdout)
        except json.JSONDecodeError:
            return "stdout is not one JSON document"
        for key, want in fields.items():
            if key not in payload:
                return f"missing key {key!r}"
            ok = want(payload[key]) if callable(want) else payload[key] == want
            if not ok:
                return f"{key} = {payload[key]!r}"
        return None

    return check


def _system_doc(sys: rk.LinearSystem) -> dict:
    return {
        "n": sys.n,
        "m": sys.m,
        "A": sys.A.tolist(),
        "B": sys.B.tolist(),
        "t0": sys.t0,
        "t1": sys.t1,
        "x0": sys.x0.tolist(),
        "x1": sys.x1.tolist(),
    }


def _write(path: Path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


def _cli_tasks(rng, workdir: Path) -> list[Task]:
    if not GREEDY_GAP.is_file():
        raise FileNotFoundError(f"{GREEDY_GAP} is missing; run from the repository root")
    tasks: list[Task] = []

    def add(label, argv, check):
        tasks.append(Task(label, lambda a=argv: run_cli(a), check))

    for i in range(8):
        n = 5 + i
        star = _write(workdir / f"star{i}.json", _system_doc(rk.star_system(n)))
        add("check-feasible star", ["check-feasible", star, "--actuate", "1", "--json"],
            _expect_cli(0, feasible=True, reachability_rank=1, actuated=[1]))
        add("solve-exact star", ["solve-exact", star, "--json"],
            _expect_cli(0, S=[1], cardinality=1, optimal=True))
        add("solve-greedy star", ["solve-greedy", star, "--json"],
            _expect_cli(0, S=[1], feasible=True))

        n = 6 + i % 4
        support = np.sort(rng.choice(n, size=3, replace=False))
        diag = _write(workdir / f"diag{i}.json", _system_doc(diagonal_system(rng, n, support)))
        nodes = [str(int(j) + 1) for j in support]
        add("check-feasible diagonal", ["check-feasible", diag, "--actuate", *nodes, "--json"],
            _expect_cli(0, feasible=True, reachability_rank=3))
        add("check-feasible diagonal short",
            ["check-feasible", diag, "--actuate", *nodes[1:], "--json"],
            _expect_cli(1, feasible=False, reachability_rank=2))

        m, l, d, k = 3, 4, 3, 2
        U = _write(workdir / f"U{i}.json", {"U": planted_U(rng, m, l, k).tolist()})
        out = str(workdir / f"hard{i}.json")
        add("gen-hard", ["gen-hard", "--U", U, "--d", str(d), "--out", out, "--json"],
            _expect_cli(0, m=m, l=l, d=d, n=max(m, l) * (d + 1)))
        add("roundtrip", ["roundtrip", "--U", U, "--d", str(d), "--json"],
            _expect_cli(0, verified=True, cardinality=lambda c: c <= k))

        inst = planted_varsel(rng, 5, 8, 2, 0.0)
        vs = _write(workdir / f"varsel{i}.json",
                    {"varsel": {"U": inst.U.tolist(), "z": inst.z.tolist(), "delta": 0.0}})
        add("varsel", ["varsel", vs, "--json"], _expect_cli(0, norm0=lambda k0: k0 <= 2))

        fn = orthonormal_fn(rng, 4 + i % 3)
        ortho = _write(workdir / f"ortho{i}.json",
                       {"setfun": {"v": fn.v.tolist(), "M": fn.M.tolist()}})
        add("check-supermodular orthonormal", ["check-supermodular", ortho, "--json"],
            _expect_cli(0, supermodular=True, violation=None))

        sys = stable_dense_system(rng, 3 + i % 3)
        dense = _write(workdir / f"dense{i}.json", _system_doc(sys))
        limit = SYNTH_REL_ERR * max(1.0, float(np.linalg.norm(sys.x1)))
        add("synthesize dense",
            ["synthesize", dense, "--actuate", *map(str, range(1, sys.n + 1)),
             "--grid", "200", "--json"],
            _expect_cli(0, feasible=True, terminal_error=lambda e: e <= limit))

        bad = _write(workdir / f"infeasible{i}.json", _system_doc(infeasible_system(rng, 6)))
        add("solve-exact infeasible", ["solve-exact", bad, "--json"], _expect_cli(1))

    cx = _write(workdir / "counterexample.json", {"setfun": COUNTEREXAMPLE})
    gap = str(GREEDY_GAP)
    malformed = workdir / "malformed.json"
    malformed.write_text("{nope")
    big_star = _write(workdir / "star24.json", _system_doc(rk.star_system(24)))
    big_fn = _write(workdir / "fn13.json",
                    {"setfun": {"v": [1.0] * 13, "M": np.eye(13).tolist()}})
    for _ in range(4):
        add("check-supermodular counterexample", ["check-supermodular", cx, "--json"],
            _expect_cli(1, supermodular=False, violation=COUNTEREXAMPLE_WITNESS))
        add("solve-exact greedy_gap", ["solve-exact", gap, "--json"],
            _expect_cli(0, S=GREEDY_GAP_EXACT, optimal=True))
        add("solve-greedy greedy_gap", ["solve-greedy", gap, "--json"],
            _expect_cli(0, feasible=True,
                        cardinality=lambda c: c > len(GREEDY_GAP_EXACT)))
        add("check-feasible malformed", ["check-feasible", str(malformed), "--json"],
            _expect_cli(2))
        add("solve-exact over cap", ["solve-exact", big_star, "--json"], _expect_cli(3))
        add("check-supermodular over cap", ["check-supermodular", big_fn, "--json"],
            _expect_cli(3))
    return tasks

