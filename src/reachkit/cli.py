"""Command-line front-end.

Exit codes are a stable contract across all subcommands:

* 0: success / positive verdict (feasible, supermodular, solved, verified)
* 1: negative verdict (infeasible, violated, not verified)
* 2: usage or input error (bad flags, malformed or inconsistent files)
* 3: resource cap exceeded (brute-force or enumeration limits)

``REACHKIT_MAX_EXACT_N`` overrides the exact solver's node-count cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import hardness, instance_io, setfun, solvers, synth
from .errors import CapacityError, InfeasibleError, InstanceFormatError
from .linalg import Tolerance
from .system import is_feasible

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _tolerance(args) -> Tolerance:
    return Tolerance(rank_rel=args.tol_rank, feas_rel=args.tol_feas)


def _exact_cap() -> int:
    raw = os.environ.get("REACHKIT_MAX_EXACT_N")
    return int(raw) if raw else solvers.DEFAULT_EXACT_CAP


def _emit(args, payload: dict, human_lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _load_system(path: str):
    doc = instance_io.load_instance(path)
    if doc.system is None:
        raise InstanceFormatError(f"{path}: no system section (keys n, m, A, B, ...)")
    return doc


def _node_list(nodes) -> str:
    return "{" + ", ".join(str(i) for i in sorted(nodes)) + "}"


def cmd_check_feasible(args) -> int:
    doc = _load_system(args.file)
    tol = _tolerance(args)
    S = args.actuate or []
    verdict = is_feasible(doc.system, S, tol)
    payload = {
        "feasible": verdict.feasible,
        "residual_sq": verdict.residual_sq,
        "reachability_rank": verdict.rank,
        "actuated": sorted(int(i) for i in S),
    }
    _emit(
        args,
        payload,
        [
            "feasible" if verdict.feasible else "infeasible",
            f"residual_sq = {verdict.residual_sq:.6e}",
            f"reachability rank = {verdict.rank}",
        ],
    )
    return EXIT_OK if verdict.feasible else EXIT_NEGATIVE


def _solve_payload(result: solvers.SolveResult) -> dict:
    return {
        "S": list(result.nodes),
        "cardinality": result.cardinality,
        "residual_sq": result.residual_sq,
        "feasible": result.feasible,
        "optimal": result.optimal,
        "nodes_explored": result.nodes_explored,
        "nodes_pruned": result.nodes_pruned,
    }


def _solve_lines(result: solvers.SolveResult) -> list[str]:
    return [
        f"S = {_node_list(result.nodes)}",
        f"cardinality = {result.cardinality}",
        f"residual_sq = {result.residual_sq:.6e}",
        f"feasible = {'yes' if result.feasible else 'no'}",
        f"optimal = {'yes' if result.optimal else 'no'}",
    ]


def cmd_solve_exact(args) -> int:
    doc = _load_system(args.file)
    result = solvers.exact_min_reach(
        doc.system, tol=_tolerance(args), budget=args.budget, cap=_exact_cap()
    )
    _emit(args, _solve_payload(result), _solve_lines(result))
    return EXIT_OK


def cmd_solve_greedy(args) -> int:
    doc = _load_system(args.file)
    result = solvers.greedy_min_reach(
        doc.system, tol=_tolerance(args), max_iters=args.max_iters
    )
    _emit(args, _solve_payload(result), _solve_lines(result))
    return EXIT_OK if result.feasible else EXIT_NEGATIVE


def cmd_varsel(args) -> int:
    doc = instance_io.load_instance(args.file)
    if doc.varsel is None:
        raise InstanceFormatError(f"{args.file}: no 'varsel' section")
    result = solvers.varsel_exact(doc.varsel, cap=args.cap, tol=_tolerance(args))
    payload = {
        "support": list(result.support),
        "norm0": result.norm0,
        "residual": result.residual,
        "y": result.y.tolist(),
    }
    _emit(
        args,
        payload,
        [
            f"support = {_node_list(result.support)}",
            f"norm0 = {result.norm0}",
            f"residual = {result.residual:.6e}",
            f"y = {np.array2string(result.y, precision=6)}",
        ],
    )
    return EXIT_OK


def _generate_from_args(args) -> hardness.HardInstance:
    if args.U is not None:
        U = instance_io.load_matrix(args.U)
    elif args.random is not None:
        m, l = args.random
        if m < 1 or l < 1:
            raise ValueError("--random dimensions must be positive")
        rng = np.random.default_rng(args.seed)
        U = rng.integers(0, 2, size=(m, l)).astype(float)
    else:
        raise ValueError("provide either --U FILE or --random M L")
    if args.d is None:
        raise ValueError("--d is required when generating an instance")
    return hardness.generate(U, d=args.d, delta=args.delta)


def cmd_gen_hard(args) -> int:
    inst = _generate_from_args(args)
    instance_io.write_instance(inst, args.out)
    dims = asdict(inst.dims)
    _emit(
        args,
        {**dims, "out": str(args.out)},
        [", ".join(f"{k} = {v}" for k, v in dims.items()), f"wrote {args.out}"],
    )
    return EXIT_OK


def cmd_check_supermodular(args) -> int:
    doc = instance_io.load_instance(args.file)
    if doc.setfun is None:
        raise InstanceFormatError(f"{args.file}: no 'setfun' section")
    report = setfun.check_supermodular(doc.setfun, cap=args.cap, tol=_tolerance(args))
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
    _emit(args, payload, lines)
    return EXIT_OK if report.supermodular else EXIT_NEGATIVE


def cmd_synthesize(args) -> int:
    doc = _load_system(args.file)
    tol = _tolerance(args)
    S = args.actuate or []
    verdict = is_feasible(doc.system, S, tol)
    result = synth.min_energy_transfer(doc.system, S, N=args.grid, tol=tol)
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
    _emit(args, payload, lines)
    return EXIT_OK if verdict.feasible else EXIT_NEGATIVE


def cmd_roundtrip(args) -> int:
    if args.file is not None:
        inst = instance_io.load_instance(args.file).hard_instance()
    else:
        inst = _generate_from_args(args)
    tol = _tolerance(args)
    result = solvers.exact_min_reach(
        inst.sys, tol=tol, budget=args.budget, cap=_exact_cap()
    )
    extraction = hardness.extract_solution(inst, result.nodes, inst.sys.x1, tol)
    y = extraction.y
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
    _emit(
        args,
        payload,
        [
            f"S = {_node_list(result.nodes)} (cardinality {result.cardinality})",
            f"recovered y = {np.array2string(y, precision=6)}",
            f"norm0 = {check.norm0}",
            f"||U y - z|| = {check.residual:.6e}",
            "verified" if verified else "NOT verified",
        ],
    )
    return EXIT_OK if verified else EXIT_NEGATIVE


def _add_tolerance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol-rank", type=float, default=1e-9, help="relative rank threshold")
    p.add_argument("--tol-feas", type=float, default=1e-9, help="relative feasibility threshold")


def _add_json_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable output")


def _add_gen_flags(p: argparse.ArgumentParser, require_d: bool) -> None:
    p.add_argument("--U", help="JSON file holding the source matrix")
    p.add_argument("--random", nargs=2, type=int, metavar=("M", "L"),
                   help="draw a random 0/1 source matrix of shape M x L")
    p.add_argument("--seed", type=int, default=0, help="seed for --random")
    p.add_argument("--d", type=int, required=require_d, help="stack count (>= 1)")
    p.add_argument("--delta", type=float, default=0.0, help="residual budget")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reachkit",
        description="Actuator selection for single state transfers in linear systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-feasible", help="decide transfer feasibility for a node set")
    p.add_argument("file")
    p.add_argument("--actuate", nargs="*", type=int, default=[], help="1-based node indices")
    _add_tolerance_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_check_feasible)

    p = sub.add_parser("solve-exact", help="minimum-cardinality node set by enumeration")
    p.add_argument("file")
    p.add_argument("--budget", type=int, help="cardinality cap for the search")
    _add_tolerance_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_solve_exact)

    p = sub.add_parser("solve-greedy", help="greedy marginal-decrease heuristic")
    p.add_argument("file")
    p.add_argument("--max-iters", type=int, help="cap on greedy additions")
    _add_tolerance_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_solve_greedy)

    p = sub.add_parser("varsel", help="exact sparse variable selection")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=solvers.DEFAULT_VARSEL_CAP)
    _add_tolerance_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_varsel)

    p = sub.add_parser("gen-hard", help="generate a reduction instance file")
    _add_gen_flags(p, require_d=True)
    p.add_argument("--out", required=True, help="output instance file")
    _add_json_flag(p)
    p.set_defaults(func=cmd_gen_hard)

    p = sub.add_parser("check-supermodular", help="brute-force set-function verdicts")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=setfun.DEFAULT_BRUTE_FORCE_CAP)
    _add_tolerance_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_check_supermodular)

    p = sub.add_parser("synthesize", help="minimum-energy input synthesis and simulation")
    p.add_argument("file")
    p.add_argument("--actuate", nargs="*", type=int, default=[], help="1-based node indices")
    p.add_argument("--grid", type=int, default=1000, help="grid intervals N")
    p.add_argument("--out", help="write grid/input/state trajectories to this file")
    _add_tolerance_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser(
        "roundtrip",
        help="generate (or load), solve, extract, and verify in one shot",
    )
    p.add_argument("--file", help="existing instance file with a 'source' section")
    _add_gen_flags(p, require_d=False)
    p.add_argument("--budget", type=int, help="cardinality cap for the exact solve")
    _add_tolerance_flags(p)
    _add_json_flag(p)
    p.set_defaults(func=cmd_roundtrip)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=_sys.stderr)
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
