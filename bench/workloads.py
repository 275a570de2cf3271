"""The four seeded workloads of the mpoly benchmark.

A workload turns (seed, index) into the inputs of one item, runs the item
against the program and checks the output against ground truth from
``truth.py``. Item inputs depend only on (seed, workload, index), so one seed
always gives the same items in the same order, whatever the run length.

Items come in passes of ``cycle`` items. The shape of an item (sizes,
densities, thresholds, families: its ``stratum``) depends only on its place
in its pass; the seed and the pass number draw the random content. A run
that ends at a pass boundary therefore measures the same mix as any other.

Every call into the program goes through an attribute of ``mpoly`` or one of
its modules at call time, so the traced run can rebind those names.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

import mpoly
import mpoly.cli

import truth

P_CYCLE = (0.2, 0.35, 0.5, 0.65, 0.8)
TOL = 1e-9


@dataclass
class Check:
    """What the independent check made of one item's output."""

    known: int  # calls whose answer is known and reachable by the program
    found: int  # ... and which reached it
    failure: str | None  # why the output is refuted, or None
    record: object  # statuses and certificates, for the run digest


@dataclass
class Item:
    index: int
    kind: str
    args: dict
    truth: dict = field(default_factory=dict)
    stratum: tuple = ()  # the item's shape, the same at one place of every pass


def item_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def gnp_with_reference_alpha(n: int, p: float, reference_key, draw_key):
    """G(n, p) drawn again until its alpha equals that of one reference draw.

    Returns (edges, alpha). The draws use ``item_rng(*draw_key, attempt)``
    and the reference ``item_rng(*reference_key)``. Fixing alpha for one
    (n, p) fixes the mix of feasible thresholds and the witness size, the
    two things besides n that set an item's cost most.
    """
    reference = truth.gnp_edges(item_rng(*reference_key), n, p)
    target = len(truth.maximum_independent_set(n, reference))
    for attempt in range(10_000):
        edges = truth.gnp_edges(item_rng(*draw_key, attempt), n, p)
        alpha = len(truth.maximum_independent_set(n, edges))
        if alpha == target:
            break
    return edges, alpha


def _float_weights(cert) -> np.ndarray:
    return np.array([float(Fraction(x)) for x in cert], dtype=np.float64)


def _failed(record, reason: str) -> Check:
    return Check(False, False, reason, record)


def _merge(labelled_checks) -> Check:
    """One Check for an item of several calls, from (label, Check) pairs.

    The first failure, prefixed with its call's label, fails the item.
    """
    known = found = 0
    failure = None
    records = []
    for label, check in labelled_checks:
        records.append(check.record)
        known += check.known
        if check.failure is None:
            found += check.found
        elif failure is None:
            failure = f"{label}: {check.failure}"
    return Check(known, found, failure, records)


def _check_gadget_certificate(edges, j, alpha, status, cert, record) -> Check:
    """FEASIBLE on a gadget family: the certificate must make det > 0."""
    feasible = alpha > j
    if status == "FEASIBLE":
        if cert is None:
            return _failed(record, "FEASIBLE without a certificate")
        if truth.closed_form_det(edges, j, [Fraction(x) for x in cert]) <= 0:
            return _failed(record, "certificate has det <= 0")
        if not feasible:
            return _failed(record, f"FEASIBLE although alpha={alpha} <= j={j}")
    elif status == "INFEASIBLE" and feasible:
        return _failed(record, f"INFEASIBLE although alpha={alpha} > j={j}")
    return Check(feasible, feasible and status == "FEASIBLE", None, record)


# -- pipeline-sweep -------------------------------------------------------------


class PipelineSweep:
    """criterion-7 shape: reduce, search and oracle for every threshold j.

    One item is one graph and a ``run_pipeline`` call at every threshold
    j = 1..n of it. Single calls range from 2 ms (j < alpha, an early
    witness) to 0.2 s (an exhausted ascent), and how long the ascent runs
    differs from graph to graph, so a median over single calls would move
    with the few graphs a run draws; the latency of a whole sweep does not.
    """

    name = "pipeline-sweep"
    wid = 1
    SIZES = tuple(range(3, 10))
    cycle = len(SIZES)  # one graph of each size in a pass
    census = 3 * cycle  # 126 calls

    def make(self, seed: int, index: int) -> Item:
        graph_no, pos = divmod(index, self.cycle)
        n = self.SIZES[pos]
        # p cycles with n: 0.2 at n = 3 up to 0.8 at n = 7, then again
        p = P_CYCLE[(n + 2) % len(P_CYCLE)]
        # calls with j < alpha end early with a witness and the others
        # exhaust the ascent, so fixed alpha gives every pass the same mix
        edges, alpha = gnp_with_reference_alpha(
            n, p, (0, self.wid, n), (seed, self.wid, n, graph_no))
        return Item(index, "pipeline", {"graph": mpoly.Graph.from_edges(n, edges)},
                    {"edges": edges, "alpha": alpha}, (n, p, alpha))

    def run(self, item: Item):
        g = item.args["graph"]
        return [mpoly.cli.run_pipeline(g, j, budget=50_000, seed=0)
                for j in range(1, g.n + 1)]

    def check(self, item: Item, reports) -> Check:
        return _merge((f"j={j}", self._check_call(item, j, report))
                      for j, report in enumerate(reports, start=1))

    @staticmethod
    def _check_call(item: Item, j: int, report) -> Check:
        alpha = item.truth["alpha"]
        search = report["search"]
        record = [j, search["status"], search["certificate"], report["exit_code"]]
        if report["j"] != j:
            return _failed(record, f"report for j={report['j']}")
        if report["exit_code"] == 70:
            return _failed(record, "pipeline exit 70")
        if report["alpha"] != alpha:
            return _failed(record, f"oracle alpha {report['alpha']} != {alpha}")
        return _check_gadget_certificate(
            item.truth["edges"], j, alpha, search["status"],
            search["certificate"], record)


# -- gadget-certify -------------------------------------------------------------


class GadgetCertify:
    """Exact gadget work at n = 12..30: MIS, Motzkin-Straus, build, combine,
    certify on both sides of the threshold."""

    name = "gadget-certify"
    wid = 2
    # one pass: each size n = 12..30 once, in strides of 7 so small and
    # large n mix
    PASS = tuple(12 + (7 * k) % 19 for k in range(19))
    cycle = len(PASS)
    census = 2 * cycle

    def make(self, seed: int, index: int) -> Item:
        n = self.PASS[index % self.cycle]
        p = P_CYCLE[n % len(P_CYCLE)]
        edges, alpha = gnp_with_reference_alpha(
            n, p, (0, self.wid, n), (seed, self.wid, index))
        return Item(index, "gadget", {"graph": mpoly.Graph.from_edges(n, edges)},
                    {"edges": edges, "n": n, "alpha": alpha}, (n, p, alpha))

    def run(self, item: Item):
        g = item.args["graph"]
        mis = mpoly.max_independent_set(g)
        ms = mpoly.motzkin_straus_min(g)
        witness = mpoly.witness_from_independent_set(g, mis.witness)
        combos, reports = {}, {}
        for j in (mis.alpha - 1, mis.alpha):
            if j < 1:
                continue
            inst = mpoly.build_instance(g, j)
            combos[j] = mpoly.convex_combination(inst.gadgets, witness)
            reports[j] = mpoly.certify(combos[j])
        return {"alpha": mis.alpha, "witness": mis.witness, "ms": ms.value,
                "combos": combos, "reports": reports}

    def check(self, item: Item, out) -> Check:
        n, edges = item.truth["n"], item.truth["edges"]
        alpha, witness = out["alpha"], out["witness"]
        reports = out["reports"]
        record = [alpha, sorted(witness), repr(out["ms"])] + [
            [j, r.consensus, r.verdicts["E17"].status.value,
             r.verdicts["N38"].status.value] for j, r in sorted(reports.items())]
        true_alpha = item.truth["alpha"]
        if alpha != true_alpha:
            return _failed(record, f"alpha {alpha} != {true_alpha}")
        if len(witness) != alpha or not truth.is_independent(edges, witness):
            return _failed(record, "MIS witness is not an independent set of size alpha")
        weights = truth.uniform_weights(n, witness)
        for j, report in reports.items():
            # the benchmark's own gadget sum at the witness, whose determinant
            # is 1/j - w'(I + C)w = 1/j - 1/alpha
            combo = out["combos"][j]
            if not combo.is_exact or \
                    [list(r) for r in combo.rows()] != \
                    truth.exact_combination_rows(n, edges, j, weights):
                return _failed(record, f"combination at the witness, j={j}, "
                                       "is not the exact gadget sum")
            if not report.is_z:
                return _failed(record, f"combination at j={j} is not a Z-matrix")
            if j < alpha and report.consensus != "YES":
                return _failed(record, f"consensus {report.consensus} at j=alpha-1")
            if j == alpha:
                if report.consensus == "YES":
                    return _failed(record, "consensus YES at j=alpha")
                for name in ("E17", "N38"):
                    if report.verdicts[name].status.value != "NO":
                        return _failed(record, f"exact {name} not NO at j=alpha")
        if out["ms"] < 1.0 / alpha - TOL:
            return _failed(record, f"Motzkin-Straus value {out['ms']} < 1/alpha")
        return Check(True, abs(out["ms"] - 1.0 / alpha) <= 1e-6, None, record)


# -- spectral-float -------------------------------------------------------------


class SpectralFloat:
    """Float families: radius, Hurwitz, symmetric LP path and float certify.

    One item is one round of five calls, one of each family plus a second
    certify. Single calls range from 0.2 ms to 0.6 s, so a median over single
    calls would sit in a gap between families and jump from run to run; a
    round's latency does not.
    """

    name = "spectral-float"
    wid = 3
    ROUND = ("radius", "hurwitz", "certify", "certify", "symmetric")
    SYMMETRIC = ("sym-planted", "sym-negdef", "sym-shifted")
    cycle = 15  # rounds in a pass: each symmetric kind five times
    census = 2 * cycle  # 150 calls

    def make(self, seed: int, index: int) -> Item:
        pos = index % self.cycle
        calls = []
        for slot, kind in enumerate(self.ROUND):
            if kind in ("radius", "hurwitz"):
                calls.append(self._graph_item(seed, index, slot, kind))
                continue
            rng = item_rng(seed, self.wid, index, slot)
            if kind == "symmetric":
                kind = self.SYMMETRIC[pos % len(self.SYMMETRIC)]
                calls.append(self._symmetric_item(index, kind, pos // 3, rng))
            else:
                # turns 0..29 of a pass cover n = 2..31 once each
                calls.append(self._certify_item(index, 2 * pos + slot % 2, rng))
        return Item(index, "round", {"calls": calls},
                    stratum=tuple(call.stratum for call in calls))

    def _graph_item(self, seed, index, slot, kind) -> Item:
        pos = index % self.cycle
        hurwitz = kind == "hurwitz"
        n = 5 + (pos + 2 * hurwitz) % 5
        p = P_CYCLE[(pos // 3) % len(P_CYCLE)]
        # the radius descent takes up to 5x longer at alpha = 2 than at
        # alpha = 3, so alpha is fixed for each place in the pass
        edges, alpha = gnp_with_reference_alpha(
            n, p, (0, self.wid, pos, slot), (seed, self.wid, index, slot))
        # one of radius and Hurwitz is feasible (j = alpha-1) in each round
        below = (pos + hurwitz) % 2 == 0
        j = max(1, alpha - 1) if below else alpha
        return Item(index, kind, {"graph": mpoly.Graph.from_edges(n, edges), "j": j},
                    {"edges": edges, "alpha": alpha, "n": n}, (kind, n, p, alpha, j))

    @staticmethod
    def _certify_item(index, turn, rng) -> Item:
        n = 2 + (turn * 7) % 30
        nonneg = rng.random((n, n)) * rng.integers(0, 2, size=(n, n))
        rho = truth.spectral_radius(nonneg)
        ratio = rng.uniform(1.1, 2.0) if turn % 2 == 0 else rng.uniform(0.5, 0.9)
        s = ratio * rho if rho > 1e-6 else ratio
        m = s * np.eye(n) - nonneg
        return Item(index, "certify", {"matrix": mpoly.Matrix.float64(m)},
                    {"expected": "YES" if s > rho else "NO"}, ("certify", n, turn % 2))

    @staticmethod
    def _symmetric_item(index, kind, turn, rng) -> Item:
        if kind == "sym-planted":
            dim, k = 2 + turn % 4, 2 + turn % 3
            raw = rng.random((dim, dim))
            nonneg = (raw + raw.T) / 2
            family = [(truth.spectral_radius(nonneg) + 1.0) * np.eye(dim) - nonneg]
            for _ in range(k - 1):
                sym = rng.normal(size=(dim, dim))
                family.append((sym + sym.T) / 2)
            expected = "FEASIBLE"
        elif kind == "sym-negdef":
            dim, k = 2 + turn % 4, 2 + (turn + 1) % 3
            family = []
            for _ in range(k):
                a = rng.normal(size=(dim, dim))
                family.append(-(a @ a.T + 0.5 * np.eye(dim)))
            expected = "INFEASIBLE"
        else:
            # each vertex sits just below the M-matrix boundary, so only
            # mixtures can cross it and the cutting planes have a gap to close
            dim, k = 12 + 3 * turn, 4
            family = []
            for _ in range(k):
                raw = rng.random((dim, dim)) * rng.integers(0, 2, size=(dim, dim))
                nonneg = (raw + raw.T) / 2
                shift = truth.spectral_radius(nonneg) * rng.uniform(0.96, 1.0)
                family.append(shift * np.eye(dim) - nonneg)
            expected = None
        mats = [mpoly.Matrix.float64(a) for a in family]
        return Item(index, kind, {"family": mats},
                    {"expected": expected, "stack": np.stack(family)}, (kind, dim, k))

    def run(self, item: Item):
        return [self._call(call) for call in item.args["calls"]]

    @staticmethod
    def _call(call: Item):
        args = call.args
        if call.kind == "radius":
            parts = mpoly.nonneg_parts(args["graph"], args["j"])
            return mpoly.minimize_spectral_radius(parts)
        if call.kind == "hurwitz":
            inst = mpoly.build_instance(args["graph"], args["j"])
            return mpoly.hurwitz_search([-m for m in inst.gadgets])
        if call.kind == "certify":
            return mpoly.certify(args["matrix"])
        return mpoly.search_symmetric(args["family"], tolerance=1e-6)

    def check(self, item: Item, outs) -> Check:
        return _merge((call.kind, self._check_call(call, out))
                      for call, out in zip(item.args["calls"], outs))

    def _check_call(self, call: Item, out) -> Check:
        if call.kind == "radius":
            return self._check_radius(call, *out)
        if call.kind == "hurwitz":
            return self._check_hurwitz(call, out)
        if call.kind == "certify":
            return self._check_certify(call, out)
        return self._check_symmetric(call, out)

    @staticmethod
    def _check_radius(item, point, rho) -> Check:
        n, edges, alpha = item.truth["n"], item.truth["edges"], item.truth["alpha"]
        j = item.args["j"]
        record = [j, point.to_json_list(), repr(rho)]
        parts = truth.nonneg_part_arrays(n, edges, j)
        fresh = truth.spectral_radius(truth.combine(parts, point.to_floats()))
        if abs(fresh - rho) > 1e-9 * max(1.0, rho):
            return _failed(record, f"radius {rho} but {fresh} at the returned point")
        feasible = alpha > j
        if not feasible and rho < 1.0 - 1e-7:
            return _failed(record, f"radius {rho} < 1 although alpha <= j")
        return Check(feasible, feasible and rho < 1.0 - TOL, None, record)

    @staticmethod
    def _check_hurwitz(item, outcome) -> Check:
        n, edges, alpha = item.truth["n"], item.truth["edges"], item.truth["alpha"]
        j = item.args["j"]
        status = outcome.status.value
        cert = None if outcome.certificate is None else outcome.certificate.to_json_list()
        record = [j, status, cert]
        feasible = alpha > j
        if status == "FEASIBLE":
            combo = truth.combine(truth.gadget_arrays(n, edges, j), _float_weights(cert))
            if not truth.is_z(combo) or truth.spectral_abscissa(-combo) >= -TOL:
                return _failed(record, "Hurwitz witness refuted by fresh eigvals")
            if not feasible:
                return _failed(record, "Hurwitz witness although alpha <= j")
        return Check(feasible, feasible and status == "FEASIBLE", None, record)

    @staticmethod
    def _check_certify(item, report) -> Check:
        expected = item.truth["expected"]
        record = [report.consensus, report.is_z]
        if not report.is_z:
            return _failed(record, "sI - N reported as not a Z-matrix")
        if report.consensus == "MARGINAL":
            return Check(True, False, None, record)
        if report.consensus != expected:
            return _failed(record, f"consensus {report.consensus}, expected {expected}")
        return Check(True, True, None, record)

    @staticmethod
    def _check_symmetric(item, outcome) -> Check:
        stack, expected = item.truth["stack"], item.truth["expected"]
        status = outcome.status.value
        cert = None if outcome.certificate is None else outcome.certificate.to_json_list()
        record = [item.kind, status, cert]
        if status == "FEASIBLE":
            combo = truth.combine(stack, _float_weights(cert))
            if not truth.is_z(combo) or truth.smallest_symmetric_eigenvalue(combo) <= 0:
                return _failed(record, "symmetric witness refuted by fresh eigvalsh")
        if status == "INFEASIBLE":
            k = stack.shape[0]
            for w in list(np.eye(k)) + [np.full(k, 1.0 / k)]:
                b = truth.combine(stack, w)
                if truth.is_z(b) and truth.smallest_symmetric_eigenvalue(b) > 1e-6:
                    return _failed(record, "INFEASIBLE but a probe point is an M-matrix")
        if expected is None:
            return Check(False, False, None, record)
        if status not in (expected, "UNKNOWN"):
            return _failed(record, f"{status}, expected {expected}")
        return Check(True, status == expected, None, record)


# -- cli-oneshot ----------------------------------------------------------------


def _graph_text(n: int, edges) -> str:
    lines = [f"p edge {n} {len(edges)}"] + [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


def _matrix_json(rows) -> dict:
    return {"n": len(rows), "entries": [[str(x) for x in r] for r in rows], "exact": True}


class CliOneshot:
    """Fresh ``python -m mpoly`` processes over a fixed mix of subcommands."""

    name = "cli-oneshot"
    wid = 4
    # subcommand: (graph size, edge probability)
    MIX = {"certify": (30, 0.5), "pipeline": (6, 0.5), "search": (7, 0.35),
           "alpha": (22, 0.2)}
    cycle = len(MIX)
    census = 4 * cycle

    def __init__(self, workdir: str, env: dict):
        self.workdir = workdir
        self.env = env
        self.in_process = False
        self.peak_child_kb = 0

    def make(self, seed: int, index: int) -> Item:
        pos = index % self.cycle
        kind = list(self.MIX)[pos]
        n, p = self.MIX[kind]
        edges, alpha = gnp_with_reference_alpha(
            n, p, (0, self.wid, pos), (seed, self.wid, index))
        mis = truth.maximum_independent_set(n, edges)
        j = max(1, alpha - 1)
        stem = os.path.join(self.workdir, f"{seed}-{index}")
        if kind == "certify":
            rows = truth.exact_combination_rows(
                n, edges, j, truth.uniform_weights(n, mis))
            path = stem + ".json"
            _write(path, json.dumps(_matrix_json(rows)))
            argv = ["certify", path, "--json"]
        elif kind == "search":
            stack = []
            for i in range(n):
                w = [Fraction(int(v == i)) for v in range(n)]
                stack.append(_matrix_json(truth.exact_combination_rows(n, edges, j, w)))
            path = stem + ".json"
            _write(path, json.dumps(stack))
            argv = ["search", path, "--json"]
        else:
            path = stem + ".col"
            _write(path, _graph_text(n, edges))
            argv = ["pipeline", path, str(j), "--json"] if kind == "pipeline" \
                else ["alpha", path, "--json"]
        return Item(index, kind, {"argv": argv, "path": path},
                    {"edges": edges, "alpha": alpha, "j": j, "n": n}, (kind, n, p, alpha))

    def run(self, item: Item):
        argv = item.args["argv"]
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = mpoly.cli.main(argv)
            return code, buf.getvalue()
        cmd = [sys.executable, "-m", "mpoly"] + argv
        code, out, _, _, rss_kb = run_child(cmd, self.env, self.workdir)
        self.peak_child_kb = max(self.peak_child_kb, rss_kb)
        return code, out

    def cleanup(self, item: Item) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(item.args["path"])

    def check(self, item: Item, out) -> Check:
        code, text = out
        t = item.truth
        record = [item.kind, code, text]
        try:
            payload = json.loads(text)
        except ValueError:
            return _failed(record, f"exit {code} without JSON output")
        if item.kind == "certify":
            if code == 2:
                return Check(True, False, None, record)
            if code != 0 or payload["consensus"] != "YES":
                return _failed(record, f"certify exit {code} on an M-matrix")
            return Check(True, True, None, record)
        if item.kind == "alpha":
            witness = [v - 1 for v in payload["witness"]]
            if code != 0 or payload["alpha"] != t["alpha"]:
                return _failed(record, f"alpha {payload['alpha']} != {t['alpha']}")
            if len(witness) != t["alpha"] or not truth.is_independent(t["edges"], witness):
                return _failed(record, "alpha witness is not independent")
            return Check(True, True, None, record)
        if code == 70:
            return _failed(record, "pipeline exit 70")
        search = payload["search"] if item.kind == "pipeline" else payload
        if code not in (0, 2):
            return _failed(record, f"{item.kind} exit {code}")
        return _check_gadget_certificate(
            t["edges"], t["j"], t["alpha"], search["status"],
            search["certificate"], record)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def run_child(cmd, env, workdir):
    """Run one child process to its end.

    Returns (exit code, stdout, stderr, wall seconds, peak RSS in KiB); the
    peak RSS is the child's own, read from wait4.
    """
    with open(os.devnull, "rb") as devnull, \
            tempfile.TemporaryFile(dir=workdir) as out, \
            tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=devnull,
                                stdout=out, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(), err.read().decode(),
                seconds, usage.ru_maxrss)


def all_workloads(workdir: str, env: dict) -> dict:
    return {w.name: w for w in (PipelineSweep(), GadgetCertify(), SpectralFloat(),
                                CliOneshot(workdir, env))}
