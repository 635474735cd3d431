"""Tests of the benchmark itself: inputs, self-time arithmetic, tracer cleanup, gates.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import inspect
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
from workloads import MEASURED, WARMUP, WORKLOADS, Context  # noqa: E402

import haartorus  # noqa: E402
import haartorus.cli  # noqa: E402,F401  (the package does not import its cli itself)
from haartorus import experiments, serialize, torus  # noqa: E402


def _same(a, b):
    if set(a) != set(b):
        return False
    return all(
        np.array_equal(a[k], b[k]) if isinstance(a[k], np.ndarray) else a[k] == b[k]
        for k in a
    )


@pytest.fixture
def ctx(tmp_path):
    return Context(haartorus, serialize.load_golden_c0(ROOT / "golden"), str(tmp_path))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(name):
    w = WORKLOADS[name]
    count = 3 * w.cycle
    first = [w.inputs(11, MEASURED, i) for i in range(count)]
    again = [w.inputs(11, MEASURED, i) for i in range(count)]
    other = [w.inputs(12, MEASURED, i) for i in range(count)]
    warm = [w.inputs(11, WARMUP, i) for i in range(count)]
    assert all(_same(a, b) for a, b in zip(first, again))
    assert not all(_same(a, b) for a, b in zip(first, other))
    assert not all(_same(a, b) for a, b in zip(first, warm))


def _span(name, layer, start, end, parent, ok=True, work=0):
    return (name, layer, start, end, parent, 0, work, ok)


def test_self_time_of_nested_and_same_layer_spans():
    spans = [
        _span("run_duality_experiment", "experiments", 0.0, 10.0, -1),
        _span("bundle_inner", "torus", 1.0, 5.0, 0, work=8),
        _span("inner_product", "torus", 2.0, 4.0, 1, work=4),
        _span("riesz_apply", "torus", 5.5, 6.0, 0, work=3),
        _span("TrigPoly.map_terms", "torus", 5.6, 5.9, 3),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.5, 2.0, 2.0, 0.2, 0.3])
    assert tracing.stages(spans) == [None, "inner", "inner", "riesz", "riesz"]
    m = tracing.layer_metrics(spans)
    assert m["experiments.self_s"] == pytest.approx(5.5)
    assert m["torus.self_s"] == pytest.approx(4.5)
    assert m["torus.inner_s"] == pytest.approx(4.0)
    assert m["torus.riesz_s"] == pytest.approx(0.5)
    # calls and work count where a call enters the layer, not the nested ones
    assert m["torus.calls"] == 2
    assert m["torus.terms_in"] == 11
    assert m["torus.terms_per_s"] == pytest.approx(11 / 4.5)


def test_errors_count_where_the_exception_was_raised():
    spans = [
        _span("cli.main", "cli", 0.0, 3.0, -1, ok=False),
        _span("read_haar_coeffs", "serialize", 0.5, 2.0, 0, ok=False),
        _span("load_json", "serialize", 0.6, 1.5, 1, ok=False),
    ]
    m = tracing.layer_metrics(spans)
    assert m["serialize.errors"] == 1
    assert m["cli.errors"] == 0


def _bindings():
    out = {}
    for module in (haartorus, *(getattr(haartorus, layer) for layer in tracing.LAYERS)):
        for name, obj in vars(module).items():
            if inspect.isfunction(obj):
                out[(module.__name__, name)] = obj
    for cls in (torus.TrigPoly, haartorus.HaarCoeffs):
        for name, obj in vars(cls).items():
            if inspect.isfunction(obj):
                out[(cls.__name__, name)] = obj
    return out


def test_wrappers_are_gone_after_the_traced_run():
    before = _bindings()
    tr = tracing.Tracer()
    tr.install(haartorus)
    try:
        assert experiments.riesz_apply is not before[("haartorus.experiments", "riesz_apply")]
        assert experiments.riesz_apply is torus.riesz_apply
        assert torus.arc_average is before[("haartorus.torus", "arc_average")]
        tr.recording = True
        experiments.verify_lemma_hvs(2, 1, 0, 1, N=63)
        tr.recording = False
        names = {s[0] for s in tr.spans}
        assert {"verify_lemma_hvs", "riesz_apply", "TrigPoly.__init__"} <= names
    finally:
        tr.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    count = len(tr.spans)
    experiments.verify_lemma_hvs(2, 1, 0, 1, N=63)
    assert len(tr.spans) == count


def test_hvs_gate_flags_a_perturbed_fitted_constant(ctx):
    w = WORKLOADS["hvs-lemma"]
    inp = w.inputs(1, MEASURED, 0)
    report = experiments.verify_lemma_hvs(1, 1, 0, inp["sign"], N=1 << 14)
    assert w.check(ctx, inp, report) is None
    bad = experiments.LemmaReport(**dict(vars(report), fitted_constant=report.fitted_constant + 1e-5))
    assert "golden c0" in w.check(ctx, inp, bad)


def test_duality_gate_flags_a_false_report_flag(ctx):
    w = WORKLOADS["duality-chain"]
    report = experiments.run_duality_experiment(3, d=2, depth=2, N=64, c0=ctx.c0)
    assert w.check(ctx, {}, report) is None
    bad = experiments.DualityReport(**dict(vars(report), inequality_holds=False))
    assert "inequality_holds" in w.check(ctx, {}, bad)


def test_norm_gate_flags_a_decrease_in_cutoff_and_a_loose_shift_norm(ctx):
    w = WORKLOADS["norm-sweep"]

    def est(value):
        return experiments.NormEstimate("h", 4.0, 1, value, 1, True, None, ())

    ok_rows = [experiments.DimensionFreeRow(1, 10, 1.0, 2, True)]
    curve = {4.0: [est(1.8), est(1.9), est(2.0)]}
    assert w.check(ctx, {}, (curve, ok_rows)) is None
    assert "decrease" in w.check(ctx, {}, ({4.0: [est(1.8), est(1.95), est(1.9)]}, ok_rows))
    assert "finite" in w.check(ctx, {}, ({4.0: [est(float("nan"))]}, ok_rows))
    loose = [experiments.DimensionFreeRow(1, 10, 1.0 + 1e-9, 2, True)]
    assert "shift-vector" in w.check(ctx, {}, (curve, loose))


def test_dyadic_gate_flags_an_edited_output_file(ctx):
    w = WORKLOADS["dyadic-files"]
    inp = dict(w.inputs(1, MEASURED, 0), samples=np.random.default_rng(0).standard_normal((64, 1)))
    w.prepare(ctx, inp)
    codes = w.run(ctx, inp)
    assert w.check(ctx, inp, codes) is None
    shifted = w.paths(ctx)[2]
    text = Path(shifted).read_text()
    Path(shifted).write_text(text.replace("0", "1", 1))
    assert "shifted.json" in w.check(ctx, inp, codes)
    assert "exit codes" in w.check(ctx, inp, [0, 2, 0, 0])


class _Flaky:
    """Stub workload whose every third operation fails its gate."""

    cycle = 2

    def inputs(self, seed, stream, index):
        return {"index": index}

    def prepare(self, ctx, inp):
        pass

    def run(self, ctx, inp):
        if inp["index"] == 4:
            raise ValueError("boom")
        return inp["index"]

    def check(self, ctx, inp, out):
        return "bad result" if out % 3 == 0 else None


def test_failed_operations_are_counted_not_retried():
    latencies, _, failures, _ = bench.run_ops(None, _Flaky(), seed=1, count=6)
    assert len(latencies) == 6
    assert failures == [
        {"op": 0, "reason": "bad result"},
        {"op": 3, "reason": "bad result"},
        {"op": 4, "reason": "ValueError: boom"},
    ]


def test_timed_loop_stops_on_a_cycle_boundary():
    latencies, _, _, threads = bench.run_ops(None, _Flaky(), seed=1, seconds=1e-9)
    assert len(latencies) == 2
    assert threads >= 1


class _Burner(_Flaky):
    """Stub workload whose operations take `work` loop steps each and always pass."""

    trace_ops = 4

    def __init__(self, work):
        self.work = work

    def run(self, ctx, inp):
        return sum(range(self.work))

    def check(self, ctx, inp, out):
        return None


@pytest.mark.parametrize("work", [20_000, 400_000])
def test_traced_run_does_the_same_work_however_fast_the_program(monkeypatch, work):
    ctx = SimpleNamespace(package=None)
    monkeypatch.setattr(bench, "setup", lambda *a: (ctx, 0.0, None))
    monkeypatch.setattr(tracing.Tracer, "install", lambda self, package: None)
    args = SimpleNamespace(seed=1, seconds=1e-9)
    _, metrics, details, failures, attempted = bench.measure_per_layer(_Burner(work), args, "")
    assert (details["samples"], attempted, failures) == (4, 8, [])
    assert "trace.overhead_frac" in metrics


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_is_a_whole_number_of_cycles(name):
    w = WORKLOADS[name]
    assert w.trace_ops > 0 and w.trace_ops % w.cycle == 0


def test_every_measured_metric_is_declared_with_its_unit(monkeypatch):
    monkeypatch.setattr(bench, "setup", lambda *a: (None, 0.0, None))
    args = SimpleNamespace(seed=1, seconds=1e-9)
    _, end_to_end, *_ = bench.measure_end_to_end(_Burner(20_000), args, "")
    assert end_to_end.keys() == bench.metric_units("end_to_end").keys()
    per_layer = dict(tracing.layer_metrics([]), **{"trace.overhead_frac": 0.0})
    assert per_layer.keys() == bench.metric_units("per_layer").keys()


def test_cpu_clock_counts_child_processes():
    start_self, start = bench.time.process_time(), bench.CLOCK()
    subprocess.run([sys.executable, "-c", "sum(range(3_000_000))"], check=True)
    child = (bench.CLOCK() - start) - (bench.time.process_time() - start_self)
    assert child > 0.01


def test_tail_is_the_highest_percentile_with_ten_beyond_but_not_below_the_median():
    xs = [float(i) for i in range(1, 101)]
    assert bench.tail(xs) == (90.0, 90.0, 10)
    assert bench.tail(xs[:25]) == (15.0, 60.0, 10)
    assert bench.tail(xs[:12]) == (6.0, 50.0, 6)
