"""Command-line surface: decomposition, Dirichlet solves, scans, verification.

Every run prints a single machine-readable JSON envelope to stdout and exits
0 only when all certificates pass.  Exit codes: 2 for unreadable or invalid
input files, 3 for an exactly singular graded system, 1 for any failed
certificate or check.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import dirichlet, entire, fischer, spectral, verification
from .polynomials import Polynomial, polynomial_from_json_dict


class InputError(ValueError):
    pass


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_problem(path: str) -> fischer.FischerProblem:
    data = _load_json(path)
    try:
        if "domain" in data:
            return dirichlet.to_fischer_problem(dirichlet.DomainSpec.from_json_dict(data["domain"]))
        if "kind" in data:
            return dirichlet.to_fischer_problem(dirichlet.DomainSpec.from_json_dict(data))
        return fischer.FischerProblem.from_json_dict(data)
    except (KeyError, ValueError) as exc:
        raise InputError(f"invalid problem file {path}: {exc}") from exc


def _load_data(path: str):
    data = _load_json(path)
    try:
        if "parts" in data:
            return entire.EntireSeries.from_json_dict(data)
        return polynomial_from_json_dict(data)
    except (KeyError, ValueError) as exc:
        raise InputError(f"invalid data file {path}: {exc}") from exc


def _emit(envelope: dict, output: Optional[str]) -> None:
    text = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
    if output:
        with open(output, "w") as handle:
            handle.write(text + "\n")
    print(text)


def _cmd_decompose(args) -> int:
    problem = _load_problem(args.problem)
    data = _load_data(args.data)
    if data.dimension != problem.dimension:
        raise InputError(
            f"data dimension {data.dimension} does not match problem dimension {problem.dimension}"
        )
    if isinstance(data, Polynomial) and not args.tail_csv:
        result = fischer.decompose_recursive(problem, data)
        payload = result.to_json_dict()
        exact = result.exact
    else:
        if isinstance(data, Polynomial):
            data = entire.EntireSeries.from_polynomial(data)
        decomposition = entire.decompose_entire(problem, data)
        payload = decomposition.to_json_dict()
        exact = decomposition.exact
        if args.tail_csv:
            entire.tail_report_csv(decomposition, args.tail_csv)
    envelope = {"command": "decompose", "ok": exact, "result": payload}
    _emit(envelope, args.output)
    return 0 if exact else 1


def _cmd_dirichlet(args) -> int:
    request = _load_json(args.request)
    try:
        spec = dirichlet.DomainSpec.from_json_dict(request["domain"])
        data_entry = request["data"]
        data = (
            entire.EntireSeries.from_json_dict(data_entry)
            if "parts" in data_entry else polynomial_from_json_dict(data_entry)
        )
        series = dirichlet.boundary_series(spec, data, request.get("truncation"))
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"invalid request: {exc}") from exc
    solution = dirichlet.solve(spec, series)
    if args.csv:
        dirichlet.boundary_samples_csv(solution, args.csv)
    ok = solution.decomposition.exact
    envelope = {"command": "dirichlet", "ok": ok, "result": solution.to_json_dict()}
    _emit(envelope, args.output)
    return 0 if ok else 1


def _cmd_bound_scan(args) -> int:
    if args.m_max < 0:
        raise InputError(f"--m-max must be nonnegative, got {args.m_max}")
    # verify_main_inequality raises BoundViolated (exit 1) on any failed degree.
    reports = spectral.verify_main_inequality(args.m_max)
    if args.output:
        spectral.reports_to_csv(reports, args.output)
    envelope = {
        "command": "bound-scan",
        "ok": True,
        "rows": len(reports),
        "worst_margin": min(report.margin for report in reports),
        "output": args.output,
    }
    _emit(envelope, None)
    return 0


def _cmd_order(args) -> int:
    if args.samples is not None and args.samples < 1:
        raise InputError(f"--samples must be positive, got {args.samples}")
    data = _load_data(args.data)
    if isinstance(data, Polynomial):
        data = entire.EntireSeries.from_polynomial(data, max(args.min_truncation, data.degree or 0))
    if data.truncation < entire.ORDER_MIN_TRUNCATION:
        raise InputError(
            f"order estimation needs truncation at least {entire.ORDER_MIN_TRUNCATION}, "
            f"got {data.truncation}"
        )
    estimate = entire.order_estimate(
        data, use_certified_bound=args.certified, samples=args.samples
    )
    envelope = {
        "command": "order",
        "ok": True,
        "order": estimate.order,
        "type": estimate.type,
        "window": list(estimate.window),
        "all_zero_tail": estimate.all_zero_tail,
        "sup_norms": {str(m): value for m, value in sorted(estimate.sup_norms.items())},
    }
    _emit(envelope, args.output)
    return 0


def _cmd_chebyshev_check(args) -> int:
    results = {n: spectral.chebyshev_identity_check(n) for n in range(1, args.n + 1)}
    ok = all(results.values())
    for n, passed in results.items():
        status = "PASS" if passed else "FAIL"
        print(f"{status} det(A_{n} - t I) = 2 T_{n}(-t/2)", file=sys.stderr)
    envelope = {"command": "chebyshev-check", "ok": ok, "n_max": args.n}
    _emit(envelope, None)
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    results = verification.run_all(
        seed=args.seed,
        m_max=args.m_max,
        exactness_count=args.count,
        equivalence_count=args.equivalence_count,
    )
    print(verification.format_table(results), file=sys.stderr)
    ok = all(result.passed for result in results)
    envelope = {
        "command": "verify",
        "ok": ok,
        "seed": args.seed,
        "checks": [
            {"name": r.name, "passed": r.passed, "detail": r.detail, "seconds": r.seconds}
            for r in results
        ],
    }
    _emit(envelope, args.output)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fischerdec",
        description="Exact quotient-remainder splittings against powers of the Laplacian, "
                    "spectral bound scans, and Dirichlet solves on quadric domains.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("decompose", help="decompose polynomial or series data")
    p.add_argument("--problem", required=True, help="problem or domain JSON file")
    p.add_argument("--data", required=True, help="polynomial or series JSON file")
    p.add_argument("--output", help="write the result JSON here as well")
    p.add_argument("--tail-csv", help="write the per-degree quotient-norm CSV here")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("dirichlet", help="solve a Dirichlet problem from a request file")
    p.add_argument("--request", required=True, help="JSON with domain, data, truncation")
    p.add_argument("--output", help="write the solution JSON here as well")
    p.add_argument("--csv", help="write boundary samples CSV here")
    p.set_defaults(func=_cmd_dirichlet)

    p = sub.add_parser("bound-scan", help="scan the spectral lower bound over degrees")
    p.add_argument("--m-max", type=int, default=verification.SPECTRAL_M_MAX)
    p.add_argument("--output", help="CSV output path")
    p.set_defaults(func=_cmd_bound_scan)

    p = sub.add_parser("order", help="estimate growth order and type of series data")
    p.add_argument("--data", required=True)
    p.add_argument("--certified", action="store_true",
                   help="use certified sup-norm bounds instead of sampling")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--min-truncation", type=int, default=entire.ORDER_MIN_TRUNCATION)
    p.add_argument("--output", help="write the estimate JSON here as well")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("chebyshev-check", help="verify the tridiagonal determinant identity")
    p.add_argument("--n", type=int, default=verification.CHEBYSHEV_N_MAX)
    p.set_defaults(func=_cmd_chebyshev_check)

    p = sub.add_parser("verify", help="run the full invariant suite")
    p.add_argument("--seed", type=int, default=verification.DEFAULT_SEED)
    p.add_argument("--m-max", type=int, default=verification.SPECTRAL_M_MAX)
    p.add_argument("--count", type=int, default=verification.EXACTNESS_COUNT)
    p.add_argument("--equivalence-count", type=int, default=verification.EQUIVALENCE_COUNT)
    p.add_argument("--output", help="write the check table JSON here as well")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(json.dumps({"command": args.subcommand, "ok": False, "error": str(exc)}),
              file=sys.stdout)
        return 2
    except fischer.SingularFischerOperator as exc:
        print(json.dumps({
            "command": args.subcommand,
            "ok": False,
            "error": f"singular graded system: {exc}",
        }))
        return 3
    except fischer.BoundViolated as exc:
        print(json.dumps({"command": args.subcommand, "ok": False, "error": str(exc)}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
