"""Command-line interface.

Subcommands: certify, reduce, combine, alpha, ms-solve, search, radius-min,
hurwitz-search, pipeline. Structured output is JSON (--json); the default is
a short human summary. Exit codes: searches use 0 FEASIBLE, 1 INFEASIBLE,
2 UNKNOWN; certify uses 0 YES, 1 NO, 2 MARGINAL or DISAGREE; 64 usage
error, 65 malformed input; pipeline reserves 70 for a soundness violation
(search said FEASIBLE but the oracle says the instance is infeasible).

Seeds default to 0, never to entropy; identical arguments give byte
identical JSON output. The MPOLY_TOL environment variable overrides the
default tolerance and --tol overrides both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import config
from .errors import DomainError
from .linalg import Matrix, matrices_from_json, matrices_to_json
from .mmatrix import certify
from .oracle import alpha_lower_bound, max_independent_set, motzkin_straus_min
from .reduction import build_instance, convex_combination, parse_graph
from .search import (
    SearchStatus,
    hurwitz_search,
    minimize_spectral_radius,
    search_general,
    search_symmetric,
)
from .simplex import SimplexPoint

EX_USAGE = 64
EX_DATAERR = 65
EX_SOUNDNESS = 70

PIPELINE_MAX_VERTICES = 12


class _UsageError(Exception):
    pass


class _InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc


def _load_matrices(
    path: str, backing: str | None, single: bool = False
) -> list[Matrix]:
    """The matrices of a family file, or of a one-matrix file when `single`.

    --float converts every entry to float64. --exact reads every entry as
    the rational its text denotes, so 2.0 becomes 2 and 0.1 becomes 1/10.
    """
    text = _read_text(path)
    try:
        mats = [Matrix.loads(text)] if single else matrices_from_json(text)
        if backing == "exact":
            payload = json.loads(text, parse_float=Fraction)
            objs = [payload] if single else payload
            mats = [Matrix.exact(obj["entries"]) for obj in objs]
    except (DomainError, ValueError) as exc:
        raise _InputError(f"{path}: {exc}") from exc
    if backing == "float":
        mats = [m.to_float() for m in mats]
    return mats


def _load_graph(path: str):
    text = _read_text(path)
    try:
        return parse_graph(text)
    except DomainError as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(args, payload: dict, human_lines) -> None:
    if args.json:
        print(_dump(payload))
    else:
        for line in human_lines:
            print(line)


def _parse_weights(spec: str, count: int) -> SimplexPoint:
    tokens = [t.strip() for t in spec.split(",") if t.strip()]
    if len(tokens) != count:
        raise _UsageError(f"need {count} weights, got {len(tokens)}")
    exact = all("." not in t and "e" not in t.lower() for t in tokens)
    try:
        if exact:
            weights = tuple(Fraction(t) for t in tokens)
        else:
            weights = tuple(float(t) for t in tokens)
        return SimplexPoint(weights)
    except (ValueError, ZeroDivisionError, DomainError) as exc:
        raise _UsageError(f"bad weights {spec!r}: {exc}") from exc


# -- subcommand handlers ------------------------------------------------------


def cmd_certify(args) -> int:
    (matrix,) = _load_matrices(args.matrix, args.backing, single=True)
    report = certify(matrix)
    payload = report.to_json_dict()
    lines = [
        f"n={report.input_dim} z_matrix={str(report.is_z).lower()} "
        f"consensus={report.consensus}"
    ]
    for name in sorted(report.verdicts):
        v = report.verdicts[name]
        lines.append(f"  {name:<11} {v.status.value:<8} margin={v.margin:.6g}")
    for name in sorted(report.errors):
        lines.append(f"  {name:<11} ERROR    {report.errors[name]}")
    _emit(args, payload, lines)
    return {"YES": 0, "NO": 1}.get(report.consensus, 2)


def cmd_reduce(args) -> int:
    graph = _load_graph(args.graph)
    if not 1 <= args.j <= graph.n:
        raise _UsageError(f"j must be in [1, {graph.n}], got {args.j}")
    instance = build_instance(graph, args.j)
    text = matrices_to_json(instance.gadgets)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_combine(args) -> int:
    mats = _load_matrices(args.matrices, args.backing)
    point = _parse_weights(args.weights, len(mats))
    combo = convex_combination(mats, point)
    payload = combo.to_json_dict()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(_dump(payload) + "\n")
        return 0
    print(_dump(payload))
    return 0


def cmd_alpha(args) -> int:
    graph = _load_graph(args.graph)
    result = max_independent_set(graph, node_budget=args.node_budget)
    witness = sorted(v + 1 for v in result.witness)
    payload = {
        "alpha": result.alpha,
        "witness": witness,
        "node_count": result.node_count,
    }
    _emit(
        args,
        payload,
        [
            f"alpha={result.alpha}",
            f"witness={witness}",
            f"nodes={result.node_count}",
        ],
    )
    return 0


def cmd_ms_solve(args) -> int:
    graph = _load_graph(args.graph)
    result = motzkin_straus_min(
        graph, restarts=args.restarts, iters=args.iters, seed=args.seed
    )
    bound = alpha_lower_bound(result.value)
    payload = {
        "value": result.value,
        "minimizer": result.minimizer.to_json_list(),
        "restarts_used": result.restarts_used,
        "alpha_lower_bound": bound,
    }
    _emit(
        args,
        payload,
        [
            f"value={result.value:.12g}",
            f"alpha_lower_bound={bound}",
            f"restarts={result.restarts_used}",
        ],
    )
    return 0


_STATUS_CODE = {
    SearchStatus.FEASIBLE: 0,
    SearchStatus.INFEASIBLE: 1,
    SearchStatus.UNKNOWN: 2,
}


def _emit_outcome(args, outcome) -> int:
    payload = outcome.to_json_dict()
    lines = [f"status={outcome.status.value}", f"budget_spent={outcome.budget_spent}"]
    if outcome.certificate is not None:
        lines.append(f"certificate={outcome.certificate.to_json_list()}")
    _emit(args, payload, lines)
    return _STATUS_CODE[outcome.status]


def cmd_search(args) -> int:
    mats = _load_matrices(args.matrices, args.backing)
    if args.symmetric:
        outcome = search_symmetric(mats, tolerance=args.gap_tol)
    else:
        outcome = search_general(mats, budget=args.budget, seed=args.seed)
    return _emit_outcome(args, outcome)


def cmd_radius_min(args) -> int:
    mats = _load_matrices(args.matrices, args.backing)
    point, rho = minimize_spectral_radius(mats, budget=args.budget, seed=args.seed)
    tol = config.tolerance()
    below_one = rho < 1.0 - tol
    combo = convex_combination([m.to_float() for m in mats], point)
    cross = certify(Matrix.identity(combo.n) - combo)
    payload = {
        "weights": point.to_json_list(),
        "spectral_radius": rho,
        "below_one": below_one,
        "cross_check_consensus": cross.consensus,
    }
    _emit(
        args,
        payload,
        [
            f"spectral_radius={rho:.12g}",
            f"below_one={str(below_one).lower()}",
            f"cross_check_consensus={cross.consensus}",
            f"weights={point.to_json_list()}",
        ],
    )
    return 0 if below_one else 2


def cmd_hurwitz(args) -> int:
    mats = _load_matrices(args.matrices, args.backing)
    outcome = hurwitz_search(mats, budget=args.budget, seed=args.seed)
    return _emit_outcome(args, outcome)


def run_pipeline(graph, j: int, budget: int = 50_000, seed: int = 0) -> dict:
    """Reduce, search, then compare against the brute-force oracle.

    Returns a report dict with an ``exit_code`` field: 70 flags a soundness
    violation (search found a witness although alpha <= j), 2 an honest
    completeness miss, 0 agreement.
    """
    if graph.n > PIPELINE_MAX_VERTICES:
        raise DomainError(
            f"pipeline supports n <= {PIPELINE_MAX_VERTICES} (oracle in the loop)"
        )
    instance = build_instance(graph, j)
    outcome = search_general(instance.gadgets, budget=budget, seed=seed)
    oracle = max_independent_set(graph)
    truly_feasible = oracle.alpha > j
    found = outcome.status is SearchStatus.FEASIBLE
    if found and not truly_feasible:
        verdict, code = "DISAGREE", EX_SOUNDNESS
    elif not found and truly_feasible:
        verdict, code = "DISAGREE", 2
    else:
        verdict, code = "AGREE", 0
    return {
        "n": graph.n,
        "j": j,
        "alpha": oracle.alpha,
        "oracle_witness": sorted(v + 1 for v in oracle.witness),
        "truly_feasible": truly_feasible,
        "search": outcome.to_json_dict(),
        "verdict": verdict,
        "exit_code": code,
    }


def cmd_pipeline(args) -> int:
    graph = _load_graph(args.graph)
    if graph.n > PIPELINE_MAX_VERTICES:
        raise _UsageError(f"pipeline supports n <= {PIPELINE_MAX_VERTICES}")
    if not 1 <= args.j <= graph.n:
        raise _UsageError(f"j must be in [1, {graph.n}], got {args.j}")
    report = run_pipeline(graph, args.j, budget=args.budget, seed=args.seed)
    lines = [
        f"search={report['search']['status']} alpha={report['alpha']} "
        f"j={report['j']} feasible={str(report['truly_feasible']).lower()}",
        f"verdict={report['verdict']}",
    ]
    _emit(args, report, lines)
    return report["exit_code"]


# -- parser -------------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _add_common(sub, budget=False, seed=False, backing=False):
    sub.add_argument("--json", action="store_true", help="emit JSON output")
    sub.add_argument("--tol", type=float, default=None, help="global tolerance")
    if budget:
        sub.add_argument("--budget", type=_positive_int, default=50_000)
    if seed:
        sub.add_argument("--seed", type=int, default=0)
    if backing:
        group = sub.add_mutually_exclusive_group()
        group.add_argument(
            "--exact",
            dest="backing",
            action="store_const",
            const="exact",
            help="reinterpret input entries as exact rationals",
        )
        group.add_argument(
            "--float",
            dest="backing",
            action="store_const",
            const="float",
            help="convert input entries to float64",
        )
        sub.set_defaults(backing=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="mpoly", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("certify", help="certify a matrix as a nonsingular M-matrix")
    p.add_argument("matrix", help="matrix JSON file")
    _add_common(p, backing=True)
    p.set_defaults(func=cmd_certify)

    p = subs.add_parser("reduce", help="build the gadget family for a graph and j")
    p.add_argument("graph", help="graph file (p edge / e lines)")
    p.add_argument("j", type=_positive_int, help="independent-set threshold")
    p.add_argument("-o", "--output", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_reduce)

    p = subs.add_parser("combine", help="convex combination of a matrix family")
    p.add_argument("matrices", help="matrix-list JSON file")
    p.add_argument("--weights", required=True, help="comma-separated weights")
    p.add_argument("-o", "--output", default=None)
    _add_common(p, backing=True)
    p.set_defaults(func=cmd_combine)

    p = subs.add_parser("alpha", help="exact maximum independent set")
    p.add_argument("graph")
    p.add_argument("--node-budget", type=_positive_int, default=100_000_000)
    _add_common(p)
    p.set_defaults(func=cmd_alpha)

    p = subs.add_parser("ms-solve", help="minimize the simplex quadratic form")
    p.add_argument("graph")
    p.add_argument("--restarts", type=_positive_int, default=None)
    p.add_argument("--iters", type=_positive_int, default=1000)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_ms_solve)

    p = subs.add_parser("search", help="search for an M-matrix combination")
    p.add_argument("matrices")
    p.add_argument("--symmetric", action="store_true", help="certified convex path")
    p.add_argument(
        "--gap-tol",
        type=float,
        default=1e-6,
        help="symmetric path: FEASIBLE needs a smallest eigenvalue above it, "
        "INFEASIBLE an upper bound below minus it",
    )
    _add_common(p, budget=True, seed=True, backing=True)
    p.set_defaults(func=cmd_search)

    p = subs.add_parser("radius-min", help="minimize spectral radius of combinations")
    p.add_argument("matrices")
    _add_common(p, budget=True, seed=True, backing=True)
    p.set_defaults(func=cmd_radius_min)

    p = subs.add_parser("hurwitz-search", help="search for a Hurwitz combination")
    p.add_argument("matrices")
    _add_common(p, budget=True, seed=True, backing=True)
    p.set_defaults(func=cmd_hurwitz)

    p = subs.add_parser("pipeline", help="reduce, search, and compare to the oracle")
    p.add_argument("graph")
    p.add_argument("j", type=_positive_int)
    _add_common(p, budget=True, seed=True)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    env_tol = os.environ.get("MPOLY_TOL")
    config.reset_tolerance()
    try:
        if env_tol is not None:
            config.set_tolerance(float(env_tol))
    except ValueError:
        print(f"mpoly: invalid MPOLY_TOL {env_tol!r}", file=sys.stderr)
        return EX_USAGE
    if getattr(args, "tol", None) is not None:
        try:
            config.set_tolerance(args.tol)
        except ValueError as exc:
            print(f"mpoly: {exc}", file=sys.stderr)
            return EX_USAGE
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"mpoly: {exc}", file=sys.stderr)
        return EX_USAGE
    except _InputError as exc:
        print(f"mpoly: {exc}", file=sys.stderr)
        return EX_DATAERR
    except DomainError as exc:
        # argument values are validated before work starts, so a domain
        # failure here means the input data violated an operation contract
        print(f"mpoly: {exc}", file=sys.stderr)
        return EX_DATAERR


def entry() -> None:
    sys.exit(main())
