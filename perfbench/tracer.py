"""Spans around calls into each haartorus layer, recorded from outside the package.

`install` replaces every public function of a layer module wherever a
haartorus module binds it (for example `experiments.riesz_apply`, which is
`torus.riesz_apply`), plus the public methods and constructors of `TrigPoly`
and `HaarCoeffs`, with a wrapper that records one span per call. `uninstall`
puts the original objects back. Nothing under `src/` changes.

A span is (name, layer, start, end, parent, op_id, work, ok), with start and
end read from `cpu_time`, the clock of the benchmark's latencies. Spans stay in
memory; `layer_metrics` reduces them to the per-layer totals of one run.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import time

import numpy as np

LAYERS = ("haar", "shifts", "torus", "coding", "experiments", "serialize", "cli")

# Scalar helpers called once per term or per matrix column. Wrapping them would
# add a span per arithmetic step and distort the layers that call them, so their
# time stays in the caller's self time. The largest such share crossing a layer
# is arc_average/arc_exp_integral called from experiments._transform_factor:
# under cProfile about 2% of a depth-6 duality run (see README.md).
UNTRACED = frozenset({
    "arc_average", "arc_exp_integral", "arc_of_angle", "basis_position",
    "block_depth", "prefix_of_index", "index_of_prefix", "square_wave_arc_values",
})

TRACED_CLASSES = ("TrigPoly", "HaarCoeffs")


def cpu_time():
    """CPU seconds of this process, all its threads, and its waited-for child processes."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


# Stage of a span by function name. A span with no stage of its own takes the
# stage of its parent when the parent is in the same layer, so that helper
# calls (map_terms inside riesz_apply, inner_product inside bundle_inner)
# count toward the stage that asked for them.
STAGES = {
    "torus": {
        "square_wave": "square_wave",
        "embed_variable": "embed",
        "riesz_apply": "riesz",
        "directional_hilbert": "riesz",
        "quarter_arc_project": "project",
        "inner_product": "inner",
        "bundle_inner": "inner",
        "bundle_poly_inner": "inner",
        "poly_norm": "inner",
        "bundle_norm": "inner",
    },
    "experiments": {"lp_norm_estimate": "lp"},
    "haar": {"haar_analyze": "analyze", "haar_synthesize": "synthesize"},
    "shifts": {
        "apply_s0": "apply",
        "apply_sj": "apply",
        "apply_riesz_vector": "apply",
        "operator_matrix": "matrix",
    },
    "coding": {
        "martingale_decompose": "decompose",
        "blocks_to_haar": "decompose",
        "coded_shift_blocks": "coded_shift",
        "duality_transfer_check": "transfer",
    },
}


def _serialize_stage(name):
    if name.startswith(("read_", "load_")) or name.endswith("_from_dict"):
        return "read"
    if name.startswith(("write_", "dumps_", "atomic_write")) or name.endswith("_to_dict"):
        return "write"
    return None


def stage_of(layer, name):
    if layer == "serialize":
        return _serialize_stage(name)
    return STAGES.get(layer, {}).get(name.rsplit(".", 1)[-1])


def _size(obj):
    """Work carried by one argument: terms, coefficient entries or array cells."""
    terms = getattr(obj, "terms", None)
    if isinstance(terms, dict):
        return len(terms)
    arcs = getattr(obj, "arcs", None)
    if isinstance(arcs, dict):
        return sum(len(m.terms) for m in arcs.values())
    entries = getattr(obj, "entries", None)
    if isinstance(entries, dict):
        return len(entries)
    if isinstance(obj, np.ndarray):
        return int(obj.size)
    if isinstance(obj, list) and obj and isinstance(getattr(obj[0], "entries", None), dict):
        return sum(len(b.entries) for b in obj)
    return 0


def _args_work(args, kwargs, _result):
    return sum(_size(a) for a in args) + sum(_size(v) for v in kwargs.values())


def _matrix_work(args, kwargs, _result):
    depth = kwargs.get("depth_limit", args[1] if len(args) > 1 else 0)
    return (1 << (int(depth) + 1)) ** 2


def _bytes_read(args, kwargs, _result):
    path = args[0] if args else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _bytes_written(args, kwargs, _result):
    text = args[1] if len(args) > 1 else kwargs.get("text", "")
    return len(text) if text.isascii() else len(text.encode())


def _lp_iterations(_args, _kwargs, result):
    return int(result.iterations)


# Work counted by a dedicated counter, on every span of that function.
COUNTERS = {
    ("serialize", "load_json"): (_bytes_read, "serialize.bytes_read"),
    ("serialize", "read_samples_csv"): (_bytes_read, "serialize.bytes_read"),
    ("serialize", "atomic_write_text"): (_bytes_written, "serialize.bytes_written"),
    ("experiments", "lp_norm_estimate"): (_lp_iterations, "experiments.lp_iters"),
}

# Layers whose work is the size of the arguments where a call enters the layer
# (`<layer>.work`); a dense shift matrix counts its n*n entries instead.
ARG_WORK_LAYERS = ("torus", "haar", "shifts", "coding")
MATRIX_WORK = {("shifts", "operator_matrix"): _matrix_work}

# cli entry points report failure through the exit status, not an exception
EXIT_STATUS = {("cli", "main"), ("cli", "run")}


class Tracer:
    """In-memory span recorder; `recording` gates every wrapper."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = -1
        self.recording = False
        self._patches = []

    def wrap(self, fn, layer, name):
        key = (layer, name)
        work = COUNTERS[key][0] if key in COUNTERS else MATRIX_WORK.get(key)
        if work is None and layer in ARG_WORK_LAYERS:
            work = _args_work
        returns_status = key in EXIT_STATUS
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = cpu_time()
            result = None
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = result == 0 if returns_status else True
                return result
            finally:
                end = cpu_time()
                stack.pop()
                amount = work(args, kwargs, result) if (work and ok) else 0
                spans[idx] = (name, layer, start, end, parent, self.op_id, amount, ok)

        return traced

    def install(self, package):
        """Wrap every public layer function where any haartorus module binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        wrappers = {}
        for namespace in (package, *modules.values()):
            for name, obj in list(vars(namespace).items()):
                if name.startswith("_") or name in UNTRACED or not inspect.isfunction(obj):
                    continue
                layer = obj.__module__.rsplit(".", 1)[-1]
                if layer not in modules or obj.__module__ != modules[layer].__name__:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self.wrap(obj, layer, obj.__name__)
                self._patches.append((namespace, name, obj))
                setattr(namespace, name, wrappers[id(obj)])
        for cls_name in TRACED_CLASSES:
            for layer, module in modules.items():
                cls = vars(module).get(cls_name)
                if cls is None or cls.__module__ != module.__name__:
                    continue
                for name, obj in list(vars(cls).items()):
                    if inspect.isfunction(obj) and (name == "__init__" or not name.startswith("_")):
                        self._patches.append((cls, name, obj))
                        setattr(cls, name, self.wrap(obj, layer, f"{cls_name}.{name}"))

    def uninstall(self):
        while self._patches:
            namespace, name, obj = self._patches.pop()
            setattr(namespace, name, obj)
        self.recording = False


def self_times(spans):
    """Duration of each span minus the time its direct children cover."""
    out = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            out[s[4]] -= s[3] - s[2]
    return out


def stages(spans):
    """Stage of each span: its own, else its same-layer parent's, else None."""
    out = []
    for name, layer, _start, _end, parent, *_ in spans:
        stage = stage_of(layer, name)
        if stage is None and parent >= 0 and spans[parent][1] == layer:
            stage = out[parent]
        out.append(stage)
    return out


def layer_metrics(spans):
    """Per-layer totals of one run: self time by layer and stage, calls, work, errors.

    A call counts toward `<layer>.calls` and the layer's work where it enters
    the layer, that is when its parent span is in another layer or absent.
    An error counts in the layer of the innermost span that raised.
    """
    selfs = self_times(spans)
    stage = stages(spans)
    failed_child = [False] * len(spans)
    for s in spans:
        if not s[7] and s[4] >= 0:
            failed_child[s[4]] = True
    totals = {}

    def add(key, value):
        totals[key] = totals.get(key, 0) + value

    for i, (name, layer, _s, _e, parent, _op, work, ok) in enumerate(spans):
        add(f"{layer}.self_s", selfs[i])
        if stage[i]:
            add(f"{layer}.{stage[i]}_s", selfs[i])
        if parent < 0 or spans[parent][1] != layer:
            add(f"{layer}.calls", 1)
            if layer in ARG_WORK_LAYERS:
                add(f"{layer}.work", work)
        if (layer, name) in COUNTERS:
            add(COUNTERS[(layer, name)][1], work)
        if not ok and not failed_child[i]:
            add(f"{layer}.errors", 1)

    def get(key):
        return float(totals.get(key, 0))

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m = {}
    m["torus.self_s"] = get("torus.self_s")
    for st in ("square_wave", "embed", "riesz", "project", "inner"):
        m[f"torus.{st}_s"] = get(f"torus.{st}_s")
    m["torus.calls"] = get("torus.calls")
    m["torus.terms_in"] = get("torus.work")
    m["torus.terms_per_s"] = rate(m["torus.terms_in"], m["torus.self_s"])
    m["experiments.self_s"] = get("experiments.self_s")
    m["experiments.calls"] = get("experiments.calls")
    m["experiments.lp_s"] = get("experiments.lp_s")
    m["experiments.lp_iters"] = get("experiments.lp_iters")
    m["experiments.lp_iter_s"] = rate(m["experiments.lp_s"], m["experiments.lp_iters"])
    m["haar.self_s"] = get("haar.self_s")
    m["haar.analyze_s"] = get("haar.analyze_s")
    m["haar.synthesize_s"] = get("haar.synthesize_s")
    m["haar.calls"] = get("haar.calls")
    m["haar.coeffs_per_s"] = rate(get("haar.work"), m["haar.self_s"])
    m["shifts.self_s"] = get("shifts.self_s")
    m["shifts.apply_s"] = get("shifts.apply_s")
    m["shifts.matrix_s"] = get("shifts.matrix_s")
    m["shifts.calls"] = get("shifts.calls")
    m["shifts.entries_per_s"] = rate(get("shifts.work"), m["shifts.self_s"])
    m["coding.self_s"] = get("coding.self_s")
    m["coding.decompose_s"] = get("coding.decompose_s")
    m["coding.coded_shift_s"] = get("coding.coded_shift_s")
    m["coding.transfer_s"] = get("coding.transfer_s")
    m["coding.calls"] = get("coding.calls")
    m["coding.entries"] = get("coding.work")
    m["serialize.self_s"] = get("serialize.self_s")
    m["serialize.read_s"] = get("serialize.read_s")
    m["serialize.write_s"] = get("serialize.write_s")
    m["serialize.bytes_read"] = get("serialize.bytes_read")
    m["serialize.bytes_written"] = get("serialize.bytes_written")
    io_bytes = m["serialize.bytes_read"] + m["serialize.bytes_written"]
    m["serialize.mb_per_s"] = rate(io_bytes / 1e6, m["serialize.read_s"] + m["serialize.write_s"])
    m["cli.self_s"] = get("cli.self_s")
    m["cli.calls"] = get("cli.calls")
    for layer in LAYERS:
        m[f"{layer}.errors"] = get(f"{layer}.errors")
    return m
