"""Command-line interface.

Subcommands: certify, reduce, combine, alpha, ms-solve, search, radius-min,
hurwitz-search, pipeline. Structured output is JSON (--json); the default is
a short human summary. Every proof of alpha <= t in JSON is one threshold
tree with 1-based vertices, a list of clique parts at a leaf and
{"links": [{"vertex", "with"}, ...], "rest"} at a branch, whose chain of
links ends in the leaf "rest": ``proof`` of alpha, at t = alpha, and
``threshold_proof.tree`` of an INFEASIBLE gadget search, at t = j. Exit
codes: searches use 0 FEASIBLE, 1 INFEASIBLE, 2 UNKNOWN; certify uses
0 YES, 1 NO, 2 MARGINAL or DISAGREE; alpha uses 2 when its --node-budget
runs out or its search recurses past Python's limit; 64 usage error (an
-o path that cannot be written and a negative --seed included), 65
malformed input (an entry beyond the float64 range, a decimal exponent
beyond Python's int-string digit limit and JSON nested past the recursion
limit included); pipeline reserves 70 for a soundness violation (search
said FEASIBLE but the oracle says the instance is infeasible, or
INFEASIBLE but the oracle says it is feasible, or the oracle's own
witness or proof fails its re-check).

Seeds default to 0, never to entropy; identical arguments give byte
identical JSON output. The MPOLY_TOL environment variable overrides the
default tolerance and --tol overrides both; :func:`main` runs in a fresh
context, so it neither sees nor keeps its caller's tolerance setting.
"""

from __future__ import annotations

import argparse
import contextvars
import math
import os
import sys
from fractions import Fraction

from . import config
from .errors import BudgetExceeded, DomainError
from .linalg import Matrix, _canonical_json, _read_matrices, matrices_to_json
from .mmatrix import certify
from .oracle import (
    DEFAULT_NODE_BUDGET,
    _proves_alpha,
    _tree_json,
    alpha_lower_bound,
    extract_independent_set,
    max_independent_set,
    motzkin_straus_min,
)
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


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _load(path: str, parse):
    """parse(text) of the file `path`; its DomainError names the file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    try:
        return parse(text)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from exc


def _write_output(path: str | None, text: str) -> None:
    """Write `text` to the file `path` (-o), or to stdout without one."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def _load_matrices(path: str, backing: str | None, single: bool = False) -> list[Matrix]:
    """The matrices of a family file, or of a one-matrix file when `single`.

    --float converts every entry to float64. --exact reads every entry as
    the rational its text denotes, so 2.0 becomes 2 and 0.1 becomes 1/10.
    """

    def parse(text: str) -> list[Matrix]:
        mats = _read_matrices(text, single, exact=backing == "exact")
        return [m.to_float() for m in mats] if backing == "float" else mats

    return _load(path, parse)


def _emit(args, payload: dict, human_lines) -> None:
    if args.json:
        print(_canonical_json(payload))
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
    graph = _load(args.graph, parse_graph)
    if not 1 <= args.j <= graph.n:
        raise _UsageError(f"j must be in [1, {graph.n}], got {args.j}")
    instance = build_instance(graph, args.j)
    _write_output(args.output, matrices_to_json(instance.gadgets))
    return 0


def cmd_combine(args) -> int:
    mats = _load_matrices(args.matrices, args.backing)
    point = _parse_weights(args.weights, len(mats))
    combo = convex_combination(mats, point)
    _write_output(args.output, combo.dumps() + "\n")
    return 0


def cmd_alpha(args) -> int:
    graph = _load(args.graph, parse_graph)
    result = max_independent_set(graph, node_budget=args.node_budget)
    witness = sorted(v + 1 for v in result.witness)
    payload = {
        "alpha": result.alpha,
        "witness": witness,
        "node_count": result.node_count,
        "proof": _tree_json(result.proof),
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
    graph = _load(args.graph, parse_graph)
    result = motzkin_straus_min(
        graph, restarts=args.restarts, iters=args.iters, seed=args.seed
    )
    bound = alpha_lower_bound(result.value)
    # an independent set rounded from the minimizer: a reader can check it
    # in O(n^2), unlike the float-derived bound
    independent = sorted(v + 1 for v in extract_independent_set(graph, result.minimizer))
    payload = {
        "value": result.value,
        "minimizer": result.minimizer.to_json_list(),
        "restarts_used": result.restarts_used,
        "alpha_lower_bound": bound,
        "independent_set": independent,
    }
    _emit(
        args,
        payload,
        [
            f"value={result.value:.12g}",
            f"alpha_lower_bound={bound}",
            f"independent_set={independent}",
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
    """Reduce, search, then compare against the exact oracle,
    :func:`oracle.max_independent_set`.

    Both sides run one branch and bound, so the oracle's own answer is
    re-checked first, by :func:`oracle._proves_alpha`.
    Returns a report dict with an ``exit_code`` field: 70 flags a soundness
    violation (an oracle answer that fails its re-check, a search witness
    although alpha <= j, or INFEASIBLE although alpha > j), 2 an honest
    completeness miss (UNKNOWN although alpha > j), 0 agreement.
    """
    instance = build_instance(graph, j)
    outcome = search_general(instance.gadgets, budget=budget, seed=seed)
    oracle = max_independent_set(graph)
    truly_feasible = oracle.alpha > j
    status = outcome.status
    if not _proves_alpha(graph, oracle):
        verdict, code = "ORACLE_REFUTED", EX_SOUNDNESS
    elif status is SearchStatus.FEASIBLE and not truly_feasible:
        verdict, code = "DISAGREE", EX_SOUNDNESS
    elif status is SearchStatus.INFEASIBLE and truly_feasible:
        verdict, code = "DISAGREE", EX_SOUNDNESS
    elif status is SearchStatus.UNKNOWN and truly_feasible:
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
    graph = _load(args.graph, parse_graph)
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


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0.0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError("must be a positive finite number")
    return value


def _add_common(sub, budget=False, seed=False, backing=False):
    sub.add_argument("--json", action="store_true", help="emit JSON output")
    sub.add_argument("--tol", type=_positive_float, default=None, help="global tolerance")
    if budget:
        sub.add_argument("--budget", type=_positive_int, default=50_000)
    if seed:
        sub.add_argument("--seed", type=_nonnegative_int, default=0)
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
    p.add_argument("--node-budget", type=_positive_int, default=DEFAULT_NODE_BUDGET,
                   help="threshold-tree nodes the search may visit")
    _add_common(p)
    p.set_defaults(func=cmd_alpha)

    p = subs.add_parser(
        "ms-solve",
        help="minimize the simplex quadratic form y'(I + C)y, whose minimum is "
        "1/alpha: the restarts descend Bomze's form y'(C + I/2)y, each round "
        "to the minimum of the form on the projected-gradient ray at the "
        "fixed step 1/2, from the point to the simplex boundary (a restart "
        "keeps its point when the ray does not lower its form); the best is "
        "picked on that form, snapped to the uniform point on its support "
        "when that is independent, and the value is reported on I + C; "
        "reports the float-derived alpha_lower_bound and an independent_set "
        "(1-based) rounded from the minimizer, which a reader can check",
    )
    p.add_argument("graph")
    p.add_argument("--restarts", type=_positive_int, default=None)
    p.add_argument("--iters", type=_positive_int, default=1000)
    _add_common(p, seed=True)
    p.set_defaults(func=cmd_ms_solve)

    p = subs.add_parser(
        "search",
        help="search for an M-matrix combination; an exact gadget family is "
        "answered from its graph by one branch and bound, FEASIBLE from an "
        "independent set of more than j vertices or INFEASIBLE from a "
        "re-checked threshold tree (JSON threshold_proof, a clique partition "
        "when the tree is one leaf), as mpoly.search.search_general documents",
    )
    p.add_argument("matrices")
    p.add_argument("--symmetric", action="store_true", help="certified convex path")
    p.add_argument(
        "--gap-tol",
        type=_positive_float,
        default=1e-6,
        help="symmetric path, a positive finite number: FEASIBLE needs a "
        "smallest eigenvalue above it, INFEASIBLE an upper bound below minus it; "
        "absolute, in the units of the matrix entries",
    )
    _add_common(p, budget=True, seed=True, backing=True)
    p.set_defaults(func=cmd_search)

    p = subs.add_parser(
        "radius-min",
        help="minimize spectral radius of combinations; on exact nonnegative "
        "parts I - B of a gadget family it prints the exact minimum's weights, "
        "uniform on a maximum independent set",
    )
    p.add_argument("matrices")
    _add_common(p, budget=True, seed=True, backing=True)
    p.set_defaults(func=cmd_radius_min)

    p = subs.add_parser(
        "hurwitz-search",
        help="search for a Hurwitz combination; an exact negated gadget family "
        "gets the gadget decision of search",
    )
    p.add_argument("matrices")
    _add_common(p, budget=True, seed=True, backing=True)
    p.set_defaults(func=cmd_hurwitz)

    p = subs.add_parser(
        "pipeline",
        help="reduce, search, and compare to the oracle; the search answers "
        "as search does, and UNKNOWN at alpha <= j agrees",
    )
    p.add_argument("graph")
    p.add_argument("j", type=_positive_int)
    _add_common(p, budget=True, seed=True)
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    return contextvars.Context().run(_main, argv)


def _main(argv) -> int:
    args = build_parser().parse_args(argv)
    env_tol = os.environ.get("MPOLY_TOL")
    try:
        if env_tol is not None:
            config.set_tolerance(float(env_tol))
    except ValueError:
        print(f"mpoly: invalid MPOLY_TOL {env_tol!r}", file=sys.stderr)
        return EX_USAGE
    if args.tol is not None:
        config.set_tolerance(args.tol)
    try:
        return args.func(args)
    except (_UsageError, BudgetExceeded, DomainError) as exc:
        # only the exact alpha of alpha and pipeline can run out of nodes or
        # recursion depth (no answer, as with UNKNOWN);
        # argument values are validated before work starts, so a domain
        # failure means malformed input data or an unreadable input file
        print(f"mpoly: {exc}", file=sys.stderr)
        return {_UsageError: EX_USAGE, BudgetExceeded: 2}.get(type(exc), EX_DATAERR)


def entry() -> None:
    sys.exit(main())
