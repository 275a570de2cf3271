#!/usr/bin/env python3
"""Run one workload of the mpoly benchmark and print its metrics.

    python3 bench/run.py --workload pipeline-sweep --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the run prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it is a JSON report with the run's details.
See ``bench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("pipeline-sweep", "gadget-certify", "spectral-float", "cli-oneshot")
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
TAIL_BEYOND = 10
# enough items that the tail percentile sits above the median
MIN_ITEMS = 2 * TAIL_BEYOND + 1
# a run that has not ended by this many seconds fails, so that even a much
# slower program ends within three minutes
HARD_STOP_S = 120.0


class HardStop(RuntimeError):
    """The run reached HARD_STOP_S before it could end at a pass boundary."""


def tail(samples):
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count); the value is the sample with
    exactly TAIL_BEYOND samples above it in sorted order.
    """
    xs = sorted(samples)
    if len(xs) <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples, got {len(xs)}")
    index = len(xs) - TAIL_BEYOND - 1
    return xs[index], 100.0 * (index + 1) / len(xs), len(xs)


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({v: str(BLAS_THREADS) for v in THREAD_VARS})
    return env


def environment(np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def measure_setup(run_child, env, workdir) -> float:
    """Median wall time of a fresh interpreter running ``import mpoly``."""
    times = []
    for _ in range(SETUP_REPEATS):
        code, _, err, seconds, _ = run_child(
            [sys.executable, "-c", "import mpoly"], env, workdir)
        if code != 0:
            raise RuntimeError(f"import mpoly failed in a fresh interpreter: {err}")
        times.append(seconds)
    return statistics.median(times)


def parse_importtime(text: str, module: str) -> float:
    """Cumulative microseconds of one module from ``-X importtime`` output."""
    for line in text.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if m and m.group(2) == module:
            return float(m.group(1))
    raise ValueError(f"{module} not in -X importtime output")


def measure_imports(run_child, env, workdir) -> dict:
    mpoly_us, scipy_us = [], []
    for _ in range(IMPORTTIME_REPEATS):
        code, _, err, _, _ = run_child(
            [sys.executable, "-X", "importtime", "-c", "import mpoly"], env, workdir)
        if code != 0:
            raise RuntimeError(f"import mpoly failed in a fresh interpreter: {err}")
        mpoly_us.append(parse_importtime(err, "mpoly"))
        scipy_us.append(parse_importtime(err, "scipy.optimize"))
    return {"cli.import_mpoly_ms": statistics.median(mpoly_us) / 1000.0,
            "cli.import_scipy_optimize_ms": statistics.median(scipy_us) / 1000.0}


class Tally:
    """Latencies and check results of the items a pass ran."""

    def __init__(self):
        self.latencies: list[float] = []
        self.records: list = []
        self.failures: list[str] = []
        self.known = self.found = self.census_failed = 0

    def run_item(self, wl, item, census: bool):
        start = time.perf_counter()
        try:
            out = wl.run(item)
        except Exception as exc:  # an item that raises counts as failed
            self.latencies.append(time.perf_counter() - start)
            self._fail(item, census, f"raised {exc!r}")
            return
        self.latencies.append(time.perf_counter() - start)
        try:
            check = wl.check(item, out)
        except (KeyError, TypeError, ValueError) as exc:  # malformed output
            self._fail(item, census, f"output the check cannot read: {exc!r}")
            return
        if check.failure is not None:
            self.failures.append(f"item {item.index} ({item.kind}): {check.failure}")
        if census:
            self.records.append([item.index, check.record])
            self.known += check.known
            self.found += check.found
            self.census_failed += check.failure is not None

    def _fail(self, item, census: bool, reason: str) -> None:
        self.failures.append(f"item {item.index} ({item.kind}): {reason}")
        if census:
            self.records.append([item.index, reason])
            self.census_failed += 1

    def digest(self) -> str:
        text = json.dumps(self.records, sort_keys=True, separators=(",", ":"), default=str)
        return hashlib.sha256(text.encode()).hexdigest()


def run_untraced(wl, seed: int, seconds: float, started: float):
    """Closed loop, one client: the next item starts when the last returns.

    Takes items until the window has passed, at least the census and
    MIN_ITEMS have run, and the items fill whole passes of the workload.
    The shape of an item depends only on its place in its pass, so every
    run measures the same mix.
    """
    tally = Tally()
    warm = wl.make(seed, 0)
    wl.run(warm)  # lazy imports and LAPACK start-up are not item latency
    _cleanup(wl, warm)
    deadline = time.perf_counter() + seconds
    index = 0
    while (index < max(wl.census, MIN_ITEMS) or index % wl.cycle
           or time.perf_counter() < deadline):
        if time.perf_counter() - started >= HARD_STOP_S:
            raise HardStop(f"{index} items done after {HARD_STOP_S:.0f} s; the run "
                           f"ends only after the census ({wl.census} items), "
                           f"{MIN_ITEMS} items and a whole pass of {wl.cycle}")
        item = wl.make(seed, index)
        tally.run_item(wl, item, census=index < wl.census)
        _cleanup(wl, item)
        index += 1
    return tally


def _cleanup(wl, item) -> None:
    if hasattr(wl, "cleanup"):
        wl.cleanup(item)


def end_to_end(wl, tally: Tally, setup_s: float):
    """The end-to-end metrics as {name: (value, unit)}, and run details."""
    census = wl.census
    value, pct, count = tail(tally.latencies)
    # the CLI workload's program is its child processes
    rss_kb = getattr(wl, "peak_child_kb", 0) or \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(tally.latencies) / sum(tally.latencies), "1/s"),
        "item_p50_ms": (statistics.median(tally.latencies) * 1000.0, "ms"),
        "item_tail_ms": (value * 1000.0, "ms"),
        "found_ratio": (tally.found / tally.known if tally.known else 0.0, "ratio"),
        "sound_ratio": (1.0 - tally.census_failed / census, "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    details = {"tail_percentile": pct, "samples": count, "census": census,
               "census_known": tally.known, "census_found": tally.found,
               "census_failed": tally.census_failed, "digest": tally.digest(),
               "items": len(tally.latencies)}
    return metrics, details


def run_traced(wl, seed: int):
    """Untraced, then traced, over the census items; then replay certify."""
    import tracing

    items = [wl.make(seed, i) for i in range(wl.census)]
    if hasattr(wl, "in_process"):
        wl.in_process = True  # spans need the CLI in this process
    wl.run(items[0])
    plain = Tally()
    for item in items:
        plain.run_item(wl, item, census=True)
    tracer = tracing.Tracer()
    certify_inputs: list = []
    tracer.install(tracing.mpoly_targets(certify_inputs))
    traced = Tally()
    try:
        for item in items:
            tracer.item = item.index
            traced.run_item(wl, item, census=True)
    finally:
        tracer.uninstall()
    for item in items:
        _cleanup(wl, item)
    replay = tracing.replay_checks(certify_inputs)
    metrics = tracing.layer_metrics(tracer.spans, replay)
    metrics["trace.overhead_ratio"] = sum(plain.latencies) / sum(traced.latencies)
    spans_path = OUT / f"spans-{wl.name}-{seed}.jsonl"
    tracer.write(spans_path)
    details = {"census": wl.census, "spans": len(tracer.spans),
               "spans_file": str(spans_path.relative_to(ROOT)),
               "certify_replayed": len(certify_inputs),
               "digest_untraced": plain.digest(), "digest_traced": traced.digest()}
    return metrics, details, plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "mpoly" / "__init__.py").is_file():
        print(f"bench: no mpoly package under {SRC}", file=sys.stderr)
        return 2
    # fix BLAS threads before numpy loads, here and in every child
    env = child_env()
    os.environ.update({v: env[v] for v in THREAD_VARS})
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        return _run(args, env, workdir, started)
    except HardStop as exc:
        print(f"bench: no result: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, env, workdir: str, started: float) -> int:
    import numpy as np
    import scipy

    import mpoly
    import workloads

    if Path(mpoly.__file__).resolve().parent != SRC / "mpoly":
        print(f"bench: imported mpoly from {mpoly.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.all_workloads(workdir, env)[args.workload]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(np, scipy)}
    if args.trace:
        imports = measure_imports(workloads.run_child, env, workdir)
        layer, details, plain, traced = run_traced(wl, args.seed)
        metrics = {**imports, **layer}
        failures = plain.failures + traced.failures
        if details["digest_untraced"] != details["digest_traced"]:
            failures.append("the traced pass gave other outputs than the untraced one")
        attempted = len(plain.latencies) + len(traced.latencies)
        result_metrics = {k: {"value": v, "unit": tracing_unit(k)} for k, v in metrics.items()}
    else:
        setup_s = measure_setup(workloads.run_child, env, workdir)
        tally = run_untraced(wl, args.seed, args.seconds, started)
        metrics, details = end_to_end(wl, tally, setup_s)
        failures = tally.failures
        attempted = len(tally.latencies)
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    report.update(details)
    report["failures"] = failures
    report["elapsed_s"] = time.perf_counter() - started
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result_metrics}))
    return 0


def tracing_unit(name: str) -> str:
    """The unit of a per-layer metric, read from its name."""
    if name.endswith("us_per_eval"):
        return "us"
    if name.endswith(("ms", "ms_per_call")):
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
