"""Command-line front-end.

Exit codes are a stable contract across all subcommands:

* 0: success / positive verdict (feasible, supermodular, solved, verified)
* 1: negative verdict (infeasible, violated, not verified)
* 2: usage or input error (bad flags, malformed or inconsistent files)
* 3: resource cap exceeded (brute-force or enumeration limits, or memory)

The subcommand ``check-feasible`` runs ``cmd_check_feasible``, and so on.
Each ``cmd_*`` returns ``(ok, payload, lines)``: the positive verdict, the
``--json`` report and the human one. :func:`main` alone prints the report and
maps the verdict to the exit code.  The argument parser is built once per
process; a flag two subcommands take is declared once, in an argparse parent,
and :func:`_generate_from_args` alone requires ``--d``.  ``roundtrip`` takes
its instance from ``--file`` or from the generation flags, never from both.

``gen-hard`` and ``roundtrip`` exit 3 before generating an instance whose
drift matrix would hold more than ``MAX_GENERATED_ENTRIES`` entries, and
``synthesize`` exits 3 before synthesis when its report or its response
stack would hold more than ``MAX_SYNTH_FLOATS`` floats.  Both caps are
``hardness.MAX_STACKED_ENTRIES`` (2^22), are read when a command runs, and
are enforced by :func:`reachkit.errors.refuse_past_cap`, which also refuses
an instance file's oversized stacked ``A`` or ``source`` section.
``REACHKIT_MAX_EXACT_N`` overrides the exact solver's node-count cap.  It and
``--random M L`` follow the count rule of :func:`reachkit.linalg.as_count`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from dataclasses import asdict
from functools import cache
from pathlib import Path

import numpy as np

from . import hardness, instance_io, setfun, solvers
from .errors import CapacityError, InfeasibleError, InstanceFormatError, refuse_past_cap
from .linalg import DEFAULT_TOL, Tolerance, as_count
from .system import check_node_set, input_columns, is_feasible

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_CAP = 3

# gen-hard and roundtrip refuse to generate a system whose n x n drift matrix
# A (n = max(M, L) * (d + 1)) has more entries than this, before allocating
# anything; A then takes at most 32 MiB.
MAX_GENERATED_ENTRIES = hardness.MAX_STACKED_ENTRIES

# synthesize refuses, before synthesis, a report of more than this many floats
# ((N + 1)(n + m + 1): the grid, the inputs and the states) and, where the
# response stack is the cheaper path, a stack of more than this many
# ((N + 1) r n for r actuated input columns): the same 2^22 as above.  The
# stack then takes at most 32 MiB, and the report at most 32 MiB of floats
# before its Python lists and JSON text.  The stack check stays keyed to n,
# although synthesis fills the stack on the k <= n rows of R(S): where the
# cost rule picks the stack at n rows, (N + 1) r n over-approximates the
# (N + 1) r k stack, and where it picks it only at k rows, the rule's fixed
# part keeps that stack below the cap once the report is.
MAX_SYNTH_FLOATS = hardness.MAX_STACKED_ENTRIES

Report = tuple[bool, dict, list[str]]


def _tolerance(args) -> Tolerance:
    return Tolerance(rank_rel=args.tol_rank, feas_rel=args.tol_feas)


def _exact_cap() -> int:
    raw = os.environ.get("REACHKIT_MAX_EXACT_N")
    if not raw:
        return solvers.DEFAULT_EXACT_CAP
    try:
        return as_count(int(raw), "REACHKIT_MAX_EXACT_N")
    except ValueError:
        raise ValueError(
            f"REACHKIT_MAX_EXACT_N must be a nonnegative integer, got {raw!r}"
        ) from None


def _node_list(nodes) -> str:
    return "{" + ", ".join(str(i) for i in sorted(nodes)) + "}"


def cmd_check_feasible(args) -> Report:
    system = instance_io.load_section(args.file, "system")
    verdict = is_feasible(system, args.actuate, _tolerance(args))
    payload = {
        "feasible": verdict.feasible,
        "residual_sq": verdict.residual_sq,
        "reachability_rank": verdict.rank,
        "actuated": list(check_node_set(args.actuate, system.n)),
    }
    return verdict.feasible, payload, [
        "feasible" if verdict.feasible else "infeasible",
        f"residual_sq = {verdict.residual_sq:.6e}",
        f"reachability rank = {verdict.rank}",
    ]


def _solve_report(result: solvers.SolveResult) -> Report:
    payload = asdict(result)
    payload["S"] = list(payload.pop("nodes"))
    return result.feasible, payload, [
        f"S = {_node_list(result.nodes)}",
        f"cardinality = {result.cardinality}",
        f"residual_sq = {result.residual_sq:.6e}",
        f"feasible = {'yes' if result.feasible else 'no'}",
        f"optimal = {'yes' if result.optimal else 'no'}",
    ]


def cmd_solve_exact(args) -> Report:
    result = solvers.exact_min_reach(
        instance_io.load_section(args.file, "system"),
        tol=_tolerance(args), budget=args.budget, cap=_exact_cap(),
    )
    return _solve_report(result)


def cmd_solve_greedy(args) -> Report:
    result = solvers.greedy_min_reach(
        instance_io.load_section(args.file, "system"),
        tol=_tolerance(args), max_iters=args.max_iters,
    )
    return _solve_report(result)


def cmd_varsel(args) -> Report:
    result = solvers.varsel_exact(
        instance_io.load_section(args.file, "varsel"), cap=args.cap, tol=_tolerance(args)
    )
    return True, dict(asdict(result), y=result.y.tolist()), [
        f"support = {_node_list(result.support)}",
        f"norm0 = {result.norm0}",
        f"residual = {result.residual:.6e}",
        f"y = {np.array2string(result.y, precision=6)}",
    ]


def _generate_from_args(args) -> hardness.HardInstance:
    if args.U is not None and args.random is not None:
        raise ValueError("provide either --U FILE or --random M L, not both")
    if args.U is not None:
        U = instance_io.load_matrix(args.U)
        m, l = U.shape
    elif args.random is not None:
        m, l = (as_count(k, f"--random {name}", least=1) for k, name in zip(args.random, "ML"))
    else:
        raise ValueError("provide either --U FILE or --random M L")
    if args.d is None:
        raise ValueError("--d is required when generating an instance")
    dims = hardness.reduction_dims(m, l, args.d)
    n = dims.n
    refuse_past_cap(n * n, MAX_GENERATED_ENTRIES,
                    f"a {m}x{l} source stacked {dims.d} times gives n = {n}: A would hold",
                    "entries")
    if args.U is None:
        rng = np.random.default_rng(0 if args.seed is None else args.seed)
        U = rng.integers(0, 2, size=(m, l)).astype(float)
    return hardness.generate(U, d=dims.d, delta=0.0 if args.delta is None else args.delta)


def cmd_gen_hard(args) -> Report:
    inst = _generate_from_args(args)
    instance_io.write_instance(inst, args.out)
    dims = asdict(inst.dims)
    return True, {**dims, "out": str(args.out)}, [
        ", ".join(f"{k} = {v}" for k, v in dims.items()),
        f"wrote {args.out}",
    ]


def cmd_check_supermodular(args) -> Report:
    report = setfun.check_supermodular(
        instance_io.load_section(args.file, "setfun"), cap=args.cap, tol=_tolerance(args)
    )
    payload = {
        "monotone_nonincreasing": report.monotone_nonincreasing,
        "supermodular": report.supermodular,
        "violation": None,
    }
    lines = [
        f"monotone nonincreasing = {'yes' if report.monotone_nonincreasing else 'no'}",
        f"supermodular = {'yes' if report.supermodular else 'no'}",
    ]
    if report.violation is not None:
        v = report.violation
        payload["violation"] = {
            "A": list(v.subset),
            "A_prime": list(v.superset),
            "x": v.element,
            "lhs": v.lhs,
            "rhs": v.rhs,
        }
        lines.append(
            f"violation: A = {_node_list(v.subset)}, A' = {_node_list(v.superset)}, "
            f"x = {v.element}, lhs = {v.lhs:.6g}, rhs = {v.rhs:.6g}"
        )
    return report.supermodular, payload, lines


def cmd_synthesize(args) -> Report:
    from . import synth  # scipy.integrate loads only for this command

    system = instance_io.load_section(args.file, "system")
    N, n = args.grid, system.n
    report = (N + 1) * (n + system.m + 1)
    refuse_past_cap(report, MAX_SYNTH_FLOATS,
                    f"a report on {N} grid intervals would hold", "floats")
    r = input_columns(system, args.actuate)[1].size
    if synth._stack_is_cheaper(N, r, n):
        refuse_past_cap((N + 1) * r * n, MAX_SYNTH_FLOATS,
                        f"the response stack of {r} input columns on {N} grid intervals "
                        "would hold", "floats")
    tol = _tolerance(args)
    verdict = is_feasible(system, args.actuate, tol)
    result = synth.min_energy_transfer(system, args.actuate, N=args.grid, tol=tol)
    payload = {
        "terminal_error": result.terminal_error,
        "gramian_rank": result.gramian_rank,
        "feasible": verdict.feasible,
        "grid_intervals": args.grid,
        "grid": result.grid.tolist(),
        "u": result.u_samples.tolist(),
        "x": result.x_samples.tolist(),
    }
    lines = [
        f"terminal_error = {result.terminal_error:.6e}",
        f"gramian rank = {result.gramian_rank}",
        "feasible" if verdict.feasible else "infeasible (best-effort transfer)",
    ]
    if args.out:
        Path(args.out).write_text(json.dumps(payload, sort_keys=True) + "\n")
        lines.append(f"wrote {args.out}")
        payload["out"] = str(args.out)
    return verdict.feasible, payload, lines


def cmd_roundtrip(args) -> Report:
    if args.file is not None:
        # the generation flags (the gen parent) all default to None
        given = [f"--{key}" for key in ("U", "random", "seed", "delta", "d")
                 if getattr(args, key) is not None]
        if given:
            raise ValueError(f"--file cannot be combined with {', '.join(given)}: "
                             "the instance comes from the file")
        inst = instance_io.load_instance(args.file).hard_instance(args.file)
    else:
        inst = _generate_from_args(args)
    tol = _tolerance(args)
    result = solvers.exact_min_reach(
        inst.sys, tol=tol, budget=args.budget, cap=_exact_cap()
    )
    y = hardness.extract_solution(inst, result.nodes, inst.sys.x1).y
    check = solvers.check_varsel_solution(inst.source, y, tol)
    verified = check.fits and check.norm0 <= result.cardinality
    payload = {
        "S": list(result.nodes),
        "cardinality": result.cardinality,
        "y": y.tolist(),
        "norm0": check.norm0,
        "fit_residual": check.residual,
        "verified": verified,
        "dims": asdict(inst.dims),
    }
    return verified, payload, [
        f"S = {_node_list(result.nodes)} (cardinality {result.cardinality})",
        f"recovered y = {np.array2string(y, precision=6)}",
        f"norm0 = {check.norm0}",
        f"||U y - z|| = {check.residual:.6e}",
        "verified" if verified else "NOT verified",
    ]


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reachkit",
        description="Actuator selection for single state transfers in linear systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    json_out = argparse.ArgumentParser(add_help=False)
    json_out.add_argument("--json", action="store_true", help="machine-readable output")
    tol = argparse.ArgumentParser(add_help=False, parents=[json_out])
    tol.add_argument("--tol-rank", type=float, help="relative rank threshold")
    tol.add_argument("--tol-feas", type=float, help="relative feasibility threshold")
    tol.set_defaults(tol_rank=DEFAULT_TOL.rank_rel, tol_feas=DEFAULT_TOL.feas_rel)
    gen = argparse.ArgumentParser(add_help=False)
    gen.add_argument("--U", help="JSON file holding the source matrix")
    gen.add_argument("--random", nargs=2, type=int, metavar=("M", "L"),
                     help="draw a random 0/1 source matrix of shape M x L")
    gen.add_argument("--seed", type=int, help="seed for --random (default 0)")
    gen.add_argument("--delta", type=float, help="residual budget (default 0)")
    gen.add_argument("--d", type=int, help="stack count (>= 1)")
    budget = argparse.ArgumentParser(add_help=False)
    budget.add_argument("--budget", type=int, help="cardinality cap for the exact solve")
    actuate = argparse.ArgumentParser(add_help=False, parents=[tol])
    actuate.add_argument("--actuate", nargs="*", type=int, default=[],
                         help="1-based node indices")

    def add(name, help, parents, file=True):
        p = sub.add_parser(name, help=help, parents=parents)
        if file:
            p.add_argument("file")
        return p

    add("check-feasible", "decide transfer feasibility for a node set", [actuate])

    add("solve-exact", "minimum-cardinality node set by enumeration", [tol, budget])

    p = add("solve-greedy", "greedy marginal-decrease heuristic", [tol])
    p.add_argument("--max-iters", type=int, help="cap on greedy additions")

    p = add("varsel", "exact sparse variable selection", [tol])
    p.add_argument("--cap", type=int, default=solvers.DEFAULT_VARSEL_CAP)

    p = add("gen-hard", "generate a reduction instance file", [gen, json_out], file=False)
    p.add_argument("--out", required=True, help="output instance file")

    p = add("check-supermodular", "brute-force set-function verdicts", [tol])
    p.add_argument("--cap", type=int, default=setfun.DEFAULT_BRUTE_FORCE_CAP)

    p = add("synthesize", "minimum-energy input synthesis and simulation", [actuate])
    p.add_argument("--grid", type=int, default=1000, help="grid intervals N")
    p.add_argument("--out", help="write grid/input/state trajectories to this file")

    p = add("roundtrip", "generate (or load), solve, extract, and verify in one shot",
            [gen, tol, budget], file=False)
    p.add_argument("--file", help="existing instance file with a 'source' section")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        # looked up per call rather than bound into the cached parser, so a
        # rebound cmd_* (a test's or a profiler's patch) is the one that runs
        command = globals()["cmd_" + args.command.replace("-", "_")]
        ok, payload, lines = command(args)
        if args.json:
            print(json.dumps(payload, sort_keys=True))
        else:
            for line in lines:
                print(line)
        return EXIT_OK if ok else EXIT_NEGATIVE
    except CapacityError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_CAP
    except MemoryError as exc:
        # a size no cap stopped; exit 1 would read as a negative verdict
        print(f"error: out of memory: {str(exc) or type(exc).__name__}", file=_sys.stderr)
        return EXIT_CAP
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=_sys.stderr)
        return EXIT_NEGATIVE
    except (InstanceFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
