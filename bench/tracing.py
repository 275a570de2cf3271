"""Spans around calls into mpoly's layers, for the benchmark's traced run.

The tracer rebinds, in the traced process only, the public names that each
mpoly module imports from the layer below (``mpoly.search.certify``,
``mpoly.mmatrix.leading_principal_minors``, ...) and the names the package
re-exports, so a call made through any of them records a span. A span has a
name ``<layer>.<function>[.<backing>]``, a start, an end and its parent, the
span open when it started. Spans stay in memory until the run writes them
out. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass

import mpoly
import mpoly.cli
import mpoly.linalg
import mpoly.mmatrix
import mpoly.oracle
import mpoly.reduction
import mpoly.search
import mpoly.simplex

MODULES = (mpoly, mpoly.linalg, mpoly.mmatrix, mpoly.reduction, mpoly.oracle,
           mpoly.simplex, mpoly.search, mpoly.cli)

# the five conditions certify runs through its private dispatch tuple
CHECKS = ("E17", "D16", "N38", "POS_STABLE", "RHO_SPLIT")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    item: int  # workload item the span belongs to
    note: object = None


class Tracer:
    """Records spans for the functions it wraps; single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span | None] = []
        self.item = -1
        self._stack: list[int] = []
        self._clock = clock
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, describe=None):
        """Wrap fn so each call records a span.

        ``describe(args, kwargs, result)`` returns a name suffix and a note
        for calls that return.
        """
        spans, stack, clock = self.spans, self._stack, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = Span(name, start, clock(), parent, self.item, "raised")
                raise
            finally:
                stack.pop()
            end = clock()
            suffix, note = describe(args, kwargs, result) if describe else ("", None)
            spans[sid] = Span(name + suffix, start, end, parent, self.item, note)
            return result

        return traced

    def install(self, targets) -> None:
        """Rebind each target at every module that imported it.

        A function's home module is left alone, so calls inside one layer do
        not nest, except in ``mpoly.cli``: it is the top layer, and the
        benchmark calls into it by its own names.
        """
        for name, fn, describe in targets:
            wrapped = self.wrap(name, fn, describe)
            for module in MODULES:
                home = module.__name__ == fn.__module__
                if home and module is not mpoly.cli:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patches.append((module, attr, value))
                        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, value = self._patches.pop()
            setattr(module, attr, value)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps([s.name, s.start, s.end, s.parent, s.item]) + "\n")


def _backing(m) -> str:
    return "exact" if m.is_exact else "float"


def _by_first_arg(args, kwargs, result):
    return "." + _backing(args[0]), None


def _budget(args, kwargs, outcome):
    return "", outcome.budget_spent


def mpoly_targets(certify_inputs: list):
    """The functions the traced run wraps, one per layer entry point.

    ``certify`` dispatches its five conditions through a private tuple, so
    its inputs are kept in ``certify_inputs`` for ``replay_checks``.
    """
    L, M, R, O = mpoly.linalg, mpoly.mmatrix, mpoly.reduction, mpoly.oracle
    SX, S, C = mpoly.simplex, mpoly.search, mpoly.cli

    def certify_note(args, kwargs, report):
        certify_inputs.append(args[0])
        return "." + _backing(args[0]), report.is_z and report.consensus == "YES"

    return [
        ("linalg.det", L.det, _by_first_arg),
        ("linalg.leading_principal_minors", L.leading_principal_minors, _by_first_arg),
        ("linalg.eigenvalues", L.eigenvalues, None),
        ("linalg.spectral_radius", L.spectral_radius, None),
        ("mmatrix.certify", M.certify, certify_note),
        ("reduction.build_instance", R.build_instance, None),
        ("reduction.nonneg_parts", R.nonneg_parts, None),
        ("reduction.convex_combination", R.convex_combination,
         lambda a, k, r: ("." + _backing(r), None)),
        ("oracle.max_independent_set", O.max_independent_set,
         lambda a, k, r: ("", r.node_count)),
        ("oracle.motzkin_straus_min", O.motzkin_straus_min, None),
        ("simplex.project_to_simplex", SX.project_to_simplex, None),
        ("simplex.project_rows_to_simplex", SX.project_rows_to_simplex, None),
        ("simplex.rationalize", SX.rationalize, None),
        ("search.search_general", S.search_general, _budget),
        ("search.search_symmetric", S.search_symmetric, _budget),
        ("search.hurwitz_search", S.hurwitz_search, _budget),
        ("search.minimize_spectral_radius", S.minimize_spectral_radius, None),
        ("search.linprog", S.linprog, None),
        ("cli.run_pipeline", C.run_pipeline, None),
        ("cli.main", C.main, None),
    ]


def replay_checks(matrices) -> dict:
    """Time each public check_* on every matrix certify received.

    Returns {(condition, backing): [seconds, ...]}. A condition that raises
    on an input (RHO_SPLIT on a non-Z matrix) is timed all the same, as
    certify would have spent that time too.
    """
    fns = dict(zip(CHECKS, (mpoly.check_e17, mpoly.check_d16, mpoly.check_n38,
                            mpoly.check_positive_stable, mpoly.check_rho_split)))
    times = defaultdict(list)
    for m in matrices:
        for name, fn in fns.items():
            start = time.perf_counter()
            try:
                fn(m)
            except (mpoly.DomainError, mpoly.NoConvergence):
                pass
            times[name, _backing(m)].append(time.perf_counter() - start)
    return times


def _covered(intervals) -> float:
    total, reach = 0.0, None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children[i]]
        out.append(s.end - s.start - _covered([iv for iv in clipped if iv[1] > iv[0]]))
    return out


def layer_metrics(spans, replay: dict) -> dict:
    """The per-layer metrics that come from spans, as {name: value}.

    Times are milliseconds summed over the traced items unless the name says
    per call; counts are summed over the traced items.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    notes = defaultdict(int)
    for s, self_s in zip(spans, selfs):
        calls[s.name] += 1
        total[s.name] += s.end - s.start
        own[s.name] += self_s
        if isinstance(s.note, int) and not isinstance(s.note, bool):
            notes[s.name] += s.note
    verify = [s for s in spans if s.name.startswith("mmatrix.certify")
              and s.parent >= 0 and spans[s.parent].name == "search.search_general"]
    evals = notes["search.search_general"]
    ms = 1000.0
    out = {
        "search.general.self_ms": own["search.search_general"] * ms,
        "search.general.us_per_eval":
            own["search.search_general"] * 1e6 / evals if evals else 0.0,
        "search.general.evals": evals,
        "search.general.verify_calls": len(verify),
        "search.general.verify_accept_ratio":
            sum(bool(s.note) for s in verify) / len(verify) if verify else 0.0,
        "search.symmetric.self_ms": own["search.search_symmetric"] * ms,
        "search.symmetric.lp_calls": calls["search.linprog"],
        "search.symmetric.lp_ms": total["search.linprog"] * ms,
        "search.hurwitz.self_ms": own["search.hurwitz_search"] * ms,
        "search.hurwitz.evals": notes["search.hurwitz_search"],
        "search.radius.self_ms": own["search.minimize_spectral_radius"] * ms,
        "simplex.project.calls": calls["simplex.project_to_simplex"]
        + calls["simplex.project_rows_to_simplex"],
        "simplex.project.ms": (total["simplex.project_to_simplex"]
                               + total["simplex.project_rows_to_simplex"]) * ms,
        "simplex.rationalize.calls": calls["simplex.rationalize"],
        "linalg.leading_principal_minors.exact.ms":
            total["linalg.leading_principal_minors.exact"] * ms,
        "linalg.det.exact.ms": total["linalg.det.exact"] * ms,
        "linalg.eigenvalues.ms": total["linalg.eigenvalues"] * ms,
        "linalg.spectral_radius.ms": total["linalg.spectral_radius"] * ms,
        "reduction.build_instance.ms": total["reduction.build_instance"] * ms,
        "reduction.convex_combination.exact.ms":
            total["reduction.convex_combination.exact"] * ms,
        "reduction.convex_combination.float.ms":
            total["reduction.convex_combination.float"] * ms,
        "reduction.nonneg_parts.ms": total["reduction.nonneg_parts"] * ms,
        "oracle.mis.ms": total["oracle.max_independent_set"] * ms,
        "oracle.mis.nodes": notes["oracle.max_independent_set"],
        "oracle.ms_solve.ms": total["oracle.motzkin_straus_min"] * ms,
        "cli.main_ms": total["cli.main"] * ms,
    }
    for backing in ("exact", "float"):
        name = f"mmatrix.certify.{backing}"
        out[name + ".calls"] = calls[name]
        out[name + ".ms_per_call"] = total[name] * ms / calls[name] if calls[name] else 0.0
        for check in CHECKS:
            times = replay.get((check, backing), [])
            out[f"mmatrix.check.{check}.{backing}.ms"] = (
                sum(times) * ms / len(times) if times else 0.0)
    return out
