"""JSON and CSV interchange with atomic writes and golden-file comparison.

All writers are deterministic: fixed key order, repr-based float text, sorted
term lists. A coefficient file stores the root mode as the (0, 0) entry and
the mean as its own field.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .coding import EkSpaceElement, make_ek_element
from .errors import GoldenMismatchError, InvalidInputError, ParseError
from .haar import HaarCoeffs
from .torus import TrigPoly

GOLDEN_DIR_ENV = "HAARTORUS_GOLDEN_DIR"
SCHEMA_VERSION = 1


def atomic_write_text(path, text):
    """Write via a sibling temp file and rename, so readers never see halves."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_lines(path, lines):
    """atomic_write_text for text given as an iterable of lines, written as they come."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dumps_json(obj):
    """Indented, key-sorted JSON text; a NaN or infinite float raises ValueError."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path, obj):
    atomic_write_text(path, dumps_json(obj))


def load_json(path):
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(str(exc), path=str(path)) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, path=str(path), line=exc.lineno) from exc


def _require(obj, key, path):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError("missing required field", path=str(path), field=key)
    return obj[key]


def _check_schema(obj, path):
    version = _require(obj, "schema", path)
    if version != SCHEMA_VERSION:
        raise ParseError(
            f"unsupported schema version {version}", path=str(path), field="schema"
        )


def _real_array(arr, field, writer):
    """Real part of values bound for a file, which holds real numbers only.

    Complex values raise an InvalidInputError that names the writer.
    """
    arr = np.asarray(arr)
    if np.iscomplexobj(arr):
        if np.any(arr.imag):
            raise InvalidInputError(f"{writer}: field {field!r} holds complex values, "
                                    "which the file format cannot represent")
        arr = arr.real
    return arr


def _real_list(arr, field, writer):
    return [float(x) for x in _real_array(arr, field, writer)]


def _list_layout(n, indent):
    """Layout json.dumps(indent=2) gives an n-item list opened at `indent`, one %r per item."""
    if n == 0:
        return "[]"
    pad = " " * indent
    return "[\n" + ",\n".join([pad + "  %r"] * n) + "\n" + pad + "]"


# ---------------------------------------------------------------------------
# Haar coefficients


def haar_coeffs_to_dict(coeffs: HaarCoeffs):
    entries = [
        {
            "depth": int(t),
            "index": int(i),
            "value": _real_list(v, field="value", writer="haar_coeffs_to_dict"),
        }
        for (t, i), v in zip(coeffs.nodes, coeffs.values)
    ]
    if np.any(coeffs.root_part):
        entries.insert(
            0,
            {
                "depth": 0,
                "index": 0,
                "value": _real_list(coeffs.root_part, field="value",
                                    writer="haar_coeffs_to_dict"),
            },
        )
    return {
        "schema": SCHEMA_VERSION,
        "kind": "haar_coeffs",
        "depth_limit": coeffs.depth_limit,
        "value_dim": coeffs.value_dim,
        "mean": _real_list(coeffs.mean_part, field="mean", writer="haar_coeffs_to_dict"),
        "entries": entries,
    }


def haar_coeffs_text(coeffs: HaarCoeffs):
    """dumps_json(haar_coeffs_to_dict(coeffs)), formatted in one pass over the rows."""
    nodes, values = coeffs.nodes, coeffs.values
    if np.any(coeffs.root_part):
        nodes, values = [(0, 0)] + nodes, np.concatenate((coeffs.root_part[None], values))
    row = ('    {\n      "depth": %d,\n      "index": %d,\n      "value": '
           + _list_layout(coeffs.value_dim, 6) + "\n    }")
    values = _real_array(values, field="value", writer="haar_coeffs_text").tolist()
    rows = ",\n".join([row % (*node, *v) for node, v in zip(nodes, values)])
    mean = _list_layout(coeffs.value_dim, 2) % tuple(
        _real_array(coeffs.mean_part, field="mean", writer="haar_coeffs_text").tolist())
    return (f'{{\n  "depth_limit": {coeffs.depth_limit},\n  "entries": '
            + (f"[\n{rows}\n  ]" if rows else "[]")
            + f',\n  "kind": "haar_coeffs",\n  "mean": {mean},\n  "schema": {SCHEMA_VERSION},'
            f'\n  "value_dim": {coeffs.value_dim}\n}}\n')


def _entry_columns(rows, depth_limit, value_dim, path):
    """Depth, index and value columns of a coefficient file's entry rows, in file order."""
    try:
        t = np.array([row["depth"] for row in rows], dtype=np.int64)
        i = np.array([row["index"] for row in rows], dtype=np.int64)
        vals = np.array([row["value"] for row in rows], dtype=float)
        vals = vals.reshape(len(t), value_dim) if vals.size == 0 else vals
        node = (t >= 1) & (t <= depth_limit) & (i >= 0) & (i < np.left_shift(1, t.clip(0, 62)))
        if vals.shape == (len(t), value_dim) and (node | ((t == 0) & (i == 0))).all():
            return t, i, vals
    except (KeyError, TypeError, ValueError, OverflowError):
        pass
    # Name the first bad row the way a row-by-row reader does.
    for pos, row in enumerate(rows):
        t = int(_require(row, "depth", path))
        i = int(_require(row, "index", path))
        vals = np.array(_require(row, "value", path), dtype=float)
        if vals.shape != (value_dim,):
            raise ParseError(
                f"entry {pos} has {vals.size} components, expected {value_dim}",
                path=str(path),
                field="value",
            )
        if (t, i) != (0, 0) and not (1 <= t <= depth_limit and 0 <= i < 1 << t):
            raise InvalidInputError(f"{path}: field 'entries': entry {pos} ({t}, {i}) is not "
                                    f"a node of depth 0..{depth_limit}")
    raise ParseError("malformed entry rows", path=str(path), field="entries")


def haar_coeffs_from_dict(obj, path="<memory>"):
    _check_schema(obj, path)
    depth_limit = int(_require(obj, "depth_limit", path))
    value_dim = int(_require(obj, "value_dim", path))
    mean = np.array(_require(obj, "mean", path), dtype=float)
    if mean.shape != (value_dim,):
        raise ParseError(
            f"mean has {mean.size} components, expected {value_dim}",
            path=str(path),
            field="mean",
        )
    t, i, vals = _entry_columns(_require(obj, "entries", path), depth_limit, value_dim, path)
    root_rows = np.flatnonzero(t == 0)
    node = t > 0
    try:
        if len(root_rows) > 1:
            raise InvalidInputError("repeated root entry (0, 0)")
        root = vals[root_rows[0]] if len(root_rows) else np.zeros(value_dim)
        return HaarCoeffs(depth_limit, value_dim, mean, root,
                          (np.left_shift(1, t[node]) + i[node], vals[node]))
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc


def write_haar_coeffs(path, coeffs):
    atomic_write_text(path, haar_coeffs_text(coeffs))


def read_haar_coeffs(path):
    return haar_coeffs_from_dict(load_json(path), path=path)


# ---------------------------------------------------------------------------
# trig polynomials and constrained spectra


def trig_poly_to_dict(p: TrigPoly):
    terms = [
        {
            "freq": freq,
            "re": coeff.real.tolist(),
            "im": coeff.imag.tolist(),
        }
        for freq, coeff in zip(p.freqs.tolist(), p.coeffs)
    ]
    return {
        "schema": SCHEMA_VERSION,
        "kind": "trig_poly",
        "d": p.d,
        "clusters": p.clusters,
        "value_dim": p.value_dim,
        "terms": terms,
    }


def trig_poly_from_dict(obj, path="<memory>"):
    _check_schema(obj, path)
    d = int(_require(obj, "d", path))
    clusters = int(_require(obj, "clusters", path))
    value_dim = int(_require(obj, "value_dim", path))
    terms = {}
    for row in _require(obj, "terms", path):
        freq = _require(row, "freq", path)
        try:
            freq = tuple(int(x) for x in freq)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"not an integer frequency: {exc}", path=str(path),
                             field="freq") from exc
        re = np.array(_require(row, "re", path), dtype=float)
        im = np.array(_require(row, "im", path), dtype=float)
        terms[freq] = re + 1j * im
    try:
        return TrigPoly(d, clusters, terms, value_dim)
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: field 'terms': {exc}") from exc


def write_trig_poly(path, p):
    write_json(path, trig_poly_to_dict(p))


def read_trig_poly(path):
    return trig_poly_from_dict(load_json(path), path=path)


def ek_element_to_dict(e: EkSpaceElement):
    terms = [
        {
            "k": t.k,
            "m": t.m,
            "sign": t.sign,
            "freq": [int(x) for x in t.freq],
            "re": [float(c.real) for c in t.coeff],
            "im": [float(c.imag) for c in t.coeff],
        }
        for t in e.terms
    ]
    return {
        "schema": SCHEMA_VERSION,
        "kind": "ek_element",
        "d": e.d,
        "clusters": e.clusters,
        "value_dim": e.value_dim,
        "terms": terms,
    }


def ek_element_from_dict(obj, path="<memory>"):
    _check_schema(obj, path)
    d = int(_require(obj, "d", path))
    clusters = int(_require(obj, "clusters", path))
    value_dim = int(_require(obj, "value_dim", path))
    specs = []
    for n, row in enumerate(_require(obj, "terms", path)):
        re = np.array(_require(row, "re", path), dtype=float)
        im = np.array(_require(row, "im", path), dtype=float)
        for name, part in (("re", re), ("im", im)):
            if not np.all(np.isfinite(part)):
                raise InvalidInputError(
                    f"{path}: field 'terms[{n}].{name}': non-finite coefficient "
                    f"{part.tolist()}"
                )
        specs.append(
            (
                int(_require(row, "k", path)),
                int(_require(row, "m", path)),
                int(_require(row, "sign", path)),
                tuple(int(x) for x in _require(row, "freq", path)),
                re + 1j * im,
            )
        )
    return make_ek_element(d, clusters, specs, value_dim)


def write_ek_element(path, e):
    write_json(path, ek_element_to_dict(e))


def read_ek_element(path):
    return ek_element_from_dict(load_json(path), path=path)


def _block_rows(b, writer):
    """A block's prefixes and real weights in sorted prefix order: descending position."""
    values = _real_array(b.values[::-1], "values", writer).astype(float)
    return b.prefixes[::-1].tolist(), values.tolist()


def blocks_to_dict(blocks, d):
    rows = []
    for b in blocks:
        entries = [{"prefix": p, "values": v}
                   for p, v in zip(*_block_rows(b, "blocks_to_dict"))]
        rows.append(
            {"kind": b.kind, "k": b.k, "m": b.m, "sign": b.sign, "entries": entries}
        )
    return {
        "schema": SCHEMA_VERSION,
        "kind": "martingale_blocks",
        "d": d,
        "blocks": rows,
    }


def blocks_text(blocks, d):
    """dumps_json(blocks_to_dict(blocks, d)), formatted in one pass over the entries."""
    layouts = {}

    def layout(n_prefix, n_values):
        if (n_prefix, n_values) not in layouts:
            layouts[n_prefix, n_values] = (
                '        {\n          "prefix": ' + _list_layout(n_prefix, 10)
                + ',\n          "values": ' + _list_layout(n_values, 10) + "\n        }"
            ).replace("%r", "%d", n_prefix)
        return layouts[n_prefix, n_values]

    rows = []
    for b in blocks:
        entries = ",\n".join([layout(len(p), len(v)) % (*p, *v)
                               for p, v in zip(*_block_rows(b, "blocks_text"))])
        rows.append(
            '    {\n      "entries": ' + (f"[\n{entries}\n      ]" if entries else "[]")
            + f',\n      "k": {b.k},\n      "kind": {json.dumps(b.kind)},\n      "m": {b.m},'
            f'\n      "sign": {b.sign}\n    }}'
        )
    body = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
    return (f'{{\n  "blocks": {body},\n  "d": {d},\n  "kind": "martingale_blocks",'
            f'\n  "schema": {SCHEMA_VERSION}\n}}\n')


def arc_bundle_to_dict(bundle):
    return {
        "schema": SCHEMA_VERSION,
        "kind": "arc_bundle",
        "var": bundle.var,
        "arcs": [
            {"n": n, "poly": trig_poly_to_dict(bundle.member(n))}
            for n in sorted(bundle.arcs)
        ],
    }


# ---------------------------------------------------------------------------
# CSV


def samples_csv_text(samples):
    """One line per grid cell, its components as repr floats joined by commas."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    line = ",".join(["%r"] * samples.shape[1])
    return "\n".join([line] * len(samples)) % tuple(samples.ravel().tolist()) + "\n"


def write_samples_csv(path, samples):
    atomic_write_text(path, samples_csv_text(samples))


def read_samples_csv(path):
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(str(exc), path=str(path)) from exc
    rows = [line.split(",") for line in map(str.strip, text.splitlines()) if line]
    if not rows:
        raise ParseError("no data rows", path=str(path))
    width = len(rows[0])
    try:
        if all(len(cells) == width for cells in rows):
            arr = np.array(list(map(float, itertools.chain.from_iterable(rows))))
            return arr if width == 1 else arr.reshape(len(rows), width)
    except ValueError:
        pass
    # Name the first bad line.
    for lineno, line in enumerate(text.splitlines(), start=1):
        cells = line.strip().split(",")
        if cells == [""]:
            continue
        if len(cells) != width:
            raise ParseError(
                f"expected {width} columns, found {len(cells)}",
                path=str(path),
                line=lineno,
            )
        try:
            [float(c) for c in cells]
        except ValueError as exc:
            raise ParseError(str(exc), path=str(path), line=lineno) from exc
    raise ParseError("unreadable rows", path=str(path))


def write_matrix_csv(path, matrix):
    matrix = np.asarray(matrix)
    lines = [",".join(str(int(x)) for x in row) for row in matrix]
    atomic_write_text(path, "\n".join(lines) + "\n")


def signed_permutation_csv_lines(n, src, dst, sign):
    """CSV lines of the n x n integer matrix with sign[k] at row dst[k], column src[k].

    Each row holds at most one nonzero, so the lines are made one at a time
    from (column, value) and the matrix itself never exists; they are the
    lines write_matrix_csv writes for that matrix.
    """
    entry = dict(zip(dst.tolist(), zip(src.tolist(), sign.tolist())))
    zero_row = ",".join(["0"] * n) + "\n"
    for row in range(n):
        if row not in entry:
            yield zero_row
        else:
            col, value = entry[row]
            yield "0," * col + str(value) + ",0" * (n - 1 - col) + "\n"


def write_modulation_sweep_csv(path, A_values, errors, slope):
    lines = ["A,aggregate_error"]
    for A, err in zip(A_values, errors):
        lines.append(f"{int(A)},{repr(float(err))}")
    lines.append(f"slope,{repr(float(slope)) if slope is not None else 'nan'}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_modulation_sweep_csv(path):
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(str(exc), path=str(path)) from exc
    rows = []
    slope = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line == "A,aggregate_error":
            continue
        cells = line.split(",")
        if len(cells) != 2:
            raise ParseError("expected two columns", path=str(path), line=lineno)
        if cells[0] == "slope":
            slope = float(cells[1])
            continue
        try:
            rows.append((int(cells[0]), float(cells[1])))
        except ValueError as exc:
            raise ParseError(str(exc), path=str(path), line=lineno) from exc
    if slope is None:
        raise ParseError("missing slope row", path=str(path))
    return rows, slope


def write_dimension_sweep_csv(path, rows):
    lines = ["d,estimate"]
    for row in rows:
        lines.append(f"{row.d},{row.estimate:.12f}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_dimension_sweep_csv(path):
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(str(exc), path=str(path)) from exc
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line == "d,estimate":
            continue
        cells = line.split(",")
        if len(cells) != 2:
            raise ParseError("expected two columns", path=str(path), line=lineno)
        try:
            rows.append((int(cells[0]), float(cells[1])))
        except ValueError as exc:
            raise ParseError(str(exc), path=str(path), line=lineno) from exc
    return rows


# ---------------------------------------------------------------------------
# reports


def lemma_report_to_dict(report):
    return {
        "schema": SCHEMA_VERSION,
        "kind": "lemma_report",
        "lemma_id": report.lemma_id,
        "parameters": report.parameters,
        "fitted_constant": report.fitted_constant,
        "residual": report.residual,
        "tolerance": report.tolerance,
        "passed": report.passed,
        "both_sides_zero": report.both_sides_zero,
        "details": report.details,
    }


def norm_estimate_to_dict(est):
    """The estimate with its convergence record.

    last_relative_change is the quantity the convergence test compares with
    its tolerance, |t[-1] - t[-2]| / max(1, t[-1]) over the trace t; it is
    None when the trace holds a single iterate.
    """
    trace = [float(t) for t in est.trace]
    last_change = None
    if len(trace) >= 2:
        last_change = abs(trace[-1] - trace[-2]) / max(1.0, trace[-1])
    return {
        "schema": SCHEMA_VERSION,
        "kind": "norm_estimate",
        "operator_id": est.operator_id,
        "p": est.p,
        "resolution": est.resolution,
        "estimate": est.estimate,
        "iterations": est.iterations,
        "converged": est.converged,
        "trace": trace,
        "last_relative_change": last_change,
    }


def duality_report_to_dict(report):
    """The report as a JSON object. slack_ratio is null when the dyadic pairing is 0:
    the duality inequality then holds with unbounded slack (the report's ratio is inf)."""
    out = {
        "schema": SCHEMA_VERSION,
        "kind": "duality_report",
    }
    for name in (
        "d",
        "p",
        "A",
        "cutoff",
        "dyadic_pairing",
        "coded_pairing",
        "projected_pairing",
        "multiplier_pairing",
        "fitted_wave_constant",
        "reference_constant",
        "truncation_bound",
        "coded_matches",
        "projected_within_bound",
        "multiplier_within_bound",
        "norm_estimate",
        "f_norm",
        "partner_norm",
        "inequality_holds",
        "slack_ratio",
        "transfer_bound",
        "transfer_within_bound",
    ):
        out[name] = getattr(report, name)
    if math.isinf(report.slack_ratio):
        out["slack_ratio"] = None
    out["transfer_sliced"] = [
        report.transfer_sliced.real,
        report.transfer_sliced.imag,
    ]
    out["transfer_modulated"] = [
        report.transfer_modulated.real,
        report.transfer_modulated.imag,
    ]
    return out


def decay_result_to_dict(result):
    return {
        "schema": SCHEMA_VERSION,
        "kind": "modulation_decay",
        "d": result.d,
        "A_values": list(result.A_values),
        "aggregate_errors": list(result.aggregate_errors),
        "slope": result.slope,
        "all_exact_zero": result.all_exact_zero,
    }


# ---------------------------------------------------------------------------
# golden data


def golden_dir(override=None):
    if override is not None:
        return Path(override)
    env = os.environ.get(GOLDEN_DIR_ENV)
    if env:
        return Path(env)
    repo = Path(__file__).resolve().parents[2] / "golden"
    if repo.is_dir():
        return repo
    return Path.cwd() / "golden"


def load_golden_c0(override=None):
    path = golden_dir(override) / "c0.json"
    obj = load_json(path)
    _check_schema(obj, path)
    return float(_require(obj, "c0", path))


def compare_to_golden_scalar(name, value, golden_value, tolerance):
    gap = abs(value - golden_value)
    if not (gap <= tolerance) or math.isnan(gap):
        raise GoldenMismatchError(
            f"{name}: value {value!r} differs from golden {golden_value!r} "
            f"by {gap:.3e} (tolerance {tolerance:.3e})"
        )
    return gap


def compare_modulation_sweep(result, path, tolerance=1e-9):
    rows, slope = read_modulation_sweep_csv(path)
    if [a for a, _ in rows] != [int(a) for a in result.A_values]:
        raise GoldenMismatchError(
            f"modulation sweep: scale grid differs from golden file {path}"
        )
    for (A, golden_err), err in zip(rows, result.aggregate_errors):
        compare_to_golden_scalar(f"aggregate error at A={A}", err, golden_err,
                                 tolerance * max(1.0, abs(golden_err)))
    if result.slope is None:
        raise GoldenMismatchError("modulation sweep: slope undefined for result")
    compare_to_golden_scalar("slope", result.slope, slope, 1e-6)


def compare_dimension_sweep(rows, path, tolerance=1e-9):
    golden = read_dimension_sweep_csv(path)
    got = [(row.d, row.estimate) for row in rows]
    if [d for d, _ in golden] != [d for d, _ in got]:
        raise GoldenMismatchError(
            f"dimension sweep: d grid differs from golden file {path}"
        )
    for (d, golden_est), (_, est) in zip(golden, got):
        compare_to_golden_scalar(f"estimate at d={d}", est, golden_est, tolerance)
