"""Self-tests of the benchmark's own logic.

    python3 -m pytest -q bench

They cover the tail-percentile rule, the self-time arithmetic, seeded input
generation, the pass mix, the stop rule and the agreement between the
metrics the runner prints and the ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mpoly  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- tail percentile ------------------------------------------------------------


@pytest.mark.parametrize("count", [11, 12, 21, 100, 199, 200, 1000])
def test_tail_leaves_exactly_ten_samples_beyond(count):
    samples = [float(x) for x in range(count, 0, -1)]  # unsorted on purpose
    value, pct, n = run.tail(samples)
    assert n == count
    assert sum(x > value for x in samples) == run.TAIL_BEYOND
    assert pct == pytest.approx(100.0 * (count - run.TAIL_BEYOND) / count)


def test_tail_known_values():
    assert run.tail(range(1, 201)) == (190, 95.0, 200)
    assert run.tail(range(1, 1001)) == (990, 99.0, 1000)


@pytest.mark.parametrize("count", [0, 1, 10])
def test_tail_refuses_too_few_samples(count):
    with pytest.raises(ValueError):
        run.tail(range(count))


# -- self time ------------------------------------------------------------------


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, 0)


def test_self_time_on_a_synthetic_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 2.0, 4.0, 0),  # overlaps a: the cover is 1..4, not 4
        _span("c", 6.0, 7.0, 0),
        _span("c.child", 6.25, 6.75, 3),
        _span("spill", 9.5, 11.0, 0),  # clipped to the parent's interval
        _span("other-root", 20.0, 21.0, -1),
    ]
    assert tracing.self_times(spans) == pytest.approx(
        [10.0 - 3.0 - 1.0 - 0.5, 2.0, 2.0, 0.5, 0.5, 1.5, 1.0])


def test_tracer_records_nesting_and_self_time():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("layer.inner", lambda: None)
    outer = tracer.wrap("layer.outer", lambda: (inner(), inner()))
    outer()
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("layer.outer", -1), ("layer.inner", 0), ("layer.inner", 0)]
    # outer 0..5, inner 1..2 and 3..4
    assert tracing.self_times(tracer.spans) == [3.0, 1.0, 1.0]


def test_tracer_records_a_span_for_a_call_that_raises():
    tracer = tracing.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("layer.boom", boom)()
    assert tracer.spans[0].note == "raised"
    assert tracer._stack == []


def test_install_rebinds_import_sites_and_uninstall_restores_them():
    before = {(m.__name__, k): v for m in tracing.MODULES for k, v in vars(m).items()}
    tracer = tracing.Tracer()
    tracer.install(tracing.mpoly_targets([]))
    try:
        assert mpoly.search.certify is not mpoly.mmatrix.certify
        assert mpoly.mmatrix.leading_principal_minors is not \
            mpoly.linalg.leading_principal_minors
        # a function's home module keeps its own binding below the CLI layer
        assert mpoly.linalg.eigenvalues is before["mpoly.linalg", "eigenvalues"]
        assert mpoly.cli.run_pipeline is not before["mpoly.cli", "run_pipeline"]
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in tracing.MODULES for k, v in vars(m).items()}
    assert after == before


# -- seeded inputs --------------------------------------------------------------


def _fingerprint(value):
    if isinstance(value, workloads.Item):
        return [value.kind, _fingerprint(value.args)]
    if isinstance(value, mpoly.Graph):
        return ["graph", value.n, sorted(value.edges)]
    if isinstance(value, mpoly.Matrix):
        return ["matrix", value.as_array().tolist()]
    if isinstance(value, (list, tuple)):
        return [_fingerprint(v) for v in value]
    if isinstance(value, dict):
        return {k: _fingerprint(v) for k, v in sorted(value.items())}
    if isinstance(value, str) and os.path.isfile(value):
        with open(value, encoding="utf-8") as handle:
            return ["file", os.path.basename(value), handle.read()]
    return value


def _inputs(wl, seed, count):
    out = []
    for i in range(count):
        item = wl.make(seed, i)
        out.append([item.kind, _fingerprint(item.args)])
        if hasattr(wl, "cleanup"):
            wl.cleanup(item)
    return out


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_one_seed_always_generates_identical_inputs(name, tmp_path):
    def fresh():
        return workloads.all_workloads(str(tmp_path), dict(os.environ))[name]

    count = 12
    first = _inputs(fresh(), 7, count)
    assert _inputs(fresh(), 7, count) == first
    assert _inputs(fresh(), 8, count) != first
    # an item's inputs do not depend on which items were made before it
    wl = fresh()
    late = wl.make(7, count - 1)
    assert [late.kind, _fingerprint(late.args)] == first[-1]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_pass_holds_the_same_mix(name, tmp_path):
    wl = workloads.all_workloads(str(tmp_path), dict(os.environ))[name]

    def strata(seed, first):
        out = []
        for i in range(first, first + wl.cycle):
            item = wl.make(seed, i)
            out.append(item.stratum)
            if hasattr(wl, "cleanup"):
                wl.cleanup(item)
        return out

    mix = strata(7, 0)
    assert all(mix)
    assert strata(8, 2 * wl.cycle) == mix
    assert wl.census % wl.cycle == 0


# -- stop rule ------------------------------------------------------------------


class _Instant:
    """A workload whose items take no time and always pass their check."""

    name = "instant"
    cycle = 4
    census = 8

    def make(self, seed, index):
        return workloads.Item(index, "instant", {})

    def run(self, item):
        return None

    def check(self, item, out):
        return workloads.Check(1, 1, None, item.index)


def test_a_run_ends_at_a_pass_boundary_after_min_items():
    tally = run.run_untraced(_Instant(), 1, 0.0, time.perf_counter())
    # 21 items at least, rounded up to whole passes of 4
    assert len(tally.latencies) == 24
    assert [r[0] for r in tally.records] == list(range(8))


def test_a_run_past_the_hard_stop_fails_without_a_result():
    started = time.perf_counter() - run.HARD_STOP_S
    with pytest.raises(run.HardStop):
        run.run_untraced(_Instant(), 1, 0.0, started)


# -- agreement with BENCHMARK.json ----------------------------------------------


def test_end_to_end_metrics_match_the_spec(tmp_path):
    wl = workloads.all_workloads(str(tmp_path), dict(os.environ))["pipeline-sweep"]
    tally = run.Tally()
    tally.latencies = [0.001 * (i + 1) for i in range(30)]
    tally.known = tally.found = 3
    metrics, _ = run.end_to_end(wl, tally, setup_s=0.5)
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: unit for k, (_, unit) in metrics.items()} == declared
    assert all(value > 0 for value, _ in metrics.values())


def test_per_layer_metrics_match_the_spec():
    names = set(tracing.layer_metrics([], {}))
    names |= {"cli.import_mpoly_ms", "cli.import_scipy_optimize_ms",
              "trace.overhead_ratio"}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert names == set(declared)
    assert {n: run.tracing_unit(n) for n in names} == declared


def test_importtime_parser():
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:      1342 |     663279 |     scipy.optimize\n"
            "import time:       676 |     872902 | mpoly\n")
    assert run.parse_importtime(text, "mpoly") == 872902.0
    assert run.parse_importtime(text, "scipy.optimize") == 663279.0
    with pytest.raises(ValueError):
        run.parse_importtime(text, "numpy")

