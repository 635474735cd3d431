"""Row-array Haar code against the dict-loop references it replaced.

The references keep the old per-node loops: analysis and synthesis level by
level with one dict entry per node, and the shift as a per-entry sibling
swap. The row code must give the same bits (signed zeros included), the same
node sets and the same dtypes. The one-pass text writers must give the bytes
of json.dumps on the dict forms, and the vectorized coefficient reader the
same coefficients and the same ParseError field and message as the per-row
reader.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haartorus.coding import MartingaleBlock, martingale_decompose
from haartorus.errors import InvalidInputError, ParseError
from haartorus.haar import HaarCoeffs, haar_analyze, haar_synthesize
from haartorus.serialize import (
    _check_schema,
    _require,
    blocks_text,
    blocks_to_dict,
    dumps_json,
    haar_coeffs_from_dict,
    haar_coeffs_text,
    haar_coeffs_to_dict,
    samples_csv_text,
)
from haartorus.shifts import ShiftOperator, apply_s0, apply_sj

# a few exact values, so that coefficients cancel to zero and zeros carry both signs
SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.25, 1e-300)
ELEMENTS = st.one_of(st.sampled_from(SPECIAL),
                     st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))


def ref_analyze(arr, depth_limit):
    entries = {}
    avg = arr
    for t in range(depth_limit, -1, -1):
        left, right = avg[0::2], avg[1::2]
        scale = 0.5 * 2.0 ** (-t / 2.0)
        coeffs = (left - right) * scale
        for i in range(coeffs.shape[0]):
            c = coeffs[i]
            if t >= 1 and np.any(c):
                entries[(t, i)] = c.copy()
        avg = (left + right) * 0.5
        if t == 0:
            root = coeffs[0].copy()
    return avg[0].copy(), root, entries


def ref_synthesize(depth_limit, mean, root, entries):
    dtype = np.result_type(mean, root, *entries.values())
    cur = np.array([mean], dtype=dtype)
    for t in range(depth_limit + 1):
        nxt = np.repeat(cur, 2, axis=0)
        scale = 2.0 ** (t / 2.0)
        if t == 0:
            if np.any(root):
                nxt[0] = nxt[0] + root * scale
                nxt[1] = nxt[1] - root * scale
        else:
            for (tt, i), c in entries.items():
                if tt == t:
                    nxt[2 * i] = nxt[2 * i] + c * scale
                    nxt[2 * i + 1] = nxt[2 * i + 1] - c * scale
        cur = nxt
    return cur


def ref_apply(op, entries):
    out = {}
    for (t, i), c in entries.items():
        if not op.acts_on_depth(t):
            continue
        if i % 2 == 0:
            out[(t, i + 1)] = c.copy()
        else:
            out[(t, i - 1)] = -c
    return out


def ref_haar_from_dict(obj, path="<memory>"):
    """The per-row coefficient reader."""
    _check_schema(obj, path)
    depth_limit = int(_require(obj, "depth_limit", path))
    value_dim = int(_require(obj, "value_dim", path))
    mean = np.array(_require(obj, "mean", path), dtype=float)
    if mean.shape != (value_dim,):
        raise ParseError(f"mean has {mean.size} components, expected {value_dim}",
                         path=str(path), field="mean")
    root = np.zeros(value_dim)
    entries = {}
    for pos, row in enumerate(_require(obj, "entries", path)):
        t = int(_require(row, "depth", path))
        i = int(_require(row, "index", path))
        vals = np.array(_require(row, "value", path), dtype=float)
        if vals.shape != (value_dim,):
            raise ParseError(f"entry {pos} has {vals.size} components, expected {value_dim}",
                             path=str(path), field="value")
        if (t, i) == (0, 0):
            root = vals
        else:
            entries[(t, i)] = vals
    return HaarCoeffs(depth_limit, value_dim, mean, root, entries)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def same_entries(got: dict, want: dict):
    return set(got) == set(want) and all(same_bits(got[k], want[k]) for k in want)


def as_float(v):
    return np.asarray(v, dtype=float)


def coeffs_of(case):
    depth_limit, value_dim, mean, root, entries = case
    return HaarCoeffs(depth_limit, value_dim, mean, root, entries)


@st.composite
def samples(draw):
    depth_limit = draw(st.integers(0, 7))
    value_dim = draw(st.sampled_from((1, 2, 3)))
    n = 2 << depth_limit
    if draw(st.booleans()):  # sparse: mostly equal neighbours, so most coefficients vanish
        base = draw(st.sampled_from(SPECIAL))
        arr = np.full((n, value_dim), base)
        for _ in range(draw(st.integers(0, 4))):
            arr[draw(st.integers(0, n - 1)), draw(st.integers(0, value_dim - 1))] = draw(ELEMENTS)
    else:  # dense, from a drawn seed, with some equal neighbours
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        arr = rng.choice(np.array(SPECIAL + (np.pi,)), size=(n, value_dim))
        arr[rng.random(n) < 0.5] *= rng.standard_normal(value_dim)
    if draw(st.booleans()):
        arr = arr + 1j * arr[::-1]
    return depth_limit, arr


@st.composite
def coefficient_sets(draw, complex_ok=True):
    depth_limit = draw(st.integers(0, 7))
    value_dim = draw(st.sampled_from((1, 2, 3)))
    vec = st.lists(ELEMENTS, min_size=value_dim, max_size=value_dim).map(np.array)
    zero = np.zeros(value_dim)
    mean = draw(st.one_of(st.just(zero), vec))
    root = draw(st.one_of(st.just(zero), st.just(-zero), vec))
    nodes = [(t, i) for t in range(1, depth_limit + 1) for i in range(1 << t)]
    if nodes and draw(st.booleans()):  # dense, with zero rows of either sign
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        vals = rng.standard_normal((len(nodes), value_dim))
        vals[rng.random(len(nodes)) < 0.2] = 0.0
        vals[rng.random(len(nodes)) < 0.1] = -0.0
        entries = dict(zip(nodes, vals))
    else:
        keys = draw(st.lists(st.sampled_from(nodes), max_size=12, unique=True)) if nodes else []
        entries = {k: draw(st.one_of(vec, st.just(zero.copy()), st.just(-zero))) for k in keys}
    if complex_ok and draw(st.booleans()):
        entries = {k: v + 1j * v[::-1] for k, v in entries.items()}
    return depth_limit, value_dim, mean, root, entries


class TestAgainstDictLoops:
    @settings(max_examples=80, deadline=None)
    @given(samples())
    def test_analyze(self, case):
        depth_limit, arr = case
        mean, root, entries = ref_analyze(arr, depth_limit)
        got = haar_analyze(arr)
        assert same_bits(got.mean_part, mean) and same_bits(got.root_part, root)
        assert same_entries(got.entries, entries)

    @settings(max_examples=80, deadline=None)
    @given(coefficient_sets())
    def test_synthesize(self, case):
        depth_limit, value_dim, mean, root, entries = case
        got = haar_synthesize(HaarCoeffs(depth_limit, value_dim, mean, root, entries))
        assert same_bits(got, ref_synthesize(depth_limit, as_float(mean), as_float(root), entries))

    @settings(max_examples=80, deadline=None)
    @given(coefficient_sets(), st.data())
    def test_shifts(self, case, data):
        depth_limit, value_dim, mean, root, entries = case
        coeffs = HaarCoeffs(depth_limit, value_dim, mean, root, entries)
        d = data.draw(st.integers(1, 4))
        j = data.draw(st.integers(1, d))
        for op, got in ((ShiftOperator("s0"), apply_s0(coeffs)),
                        (ShiftOperator("sj", j=j, d=d), apply_sj(j, d, coeffs))):
            assert same_entries(got.entries, ref_apply(op, entries))
            assert not np.any(got.mean_part) and not np.any(got.root_part)

    @settings(max_examples=60, deadline=None)
    @given(samples())
    def test_analyze_then_synthesize(self, case):
        depth_limit, arr = case
        coeffs = haar_analyze(arr)
        want = ref_synthesize(depth_limit, coeffs.mean_part, coeffs.root_part,
                              ref_analyze(arr, depth_limit)[2])
        assert same_bits(haar_synthesize(coeffs), want)


class TestTextWriters:
    @settings(max_examples=80, deadline=None)
    @given(coefficient_sets(complex_ok=False))
    def test_haar_coeffs_text(self, case):
        coeffs = coeffs_of(case)
        assert haar_coeffs_text(coeffs) == dumps_json(haar_coeffs_to_dict(coeffs))

    def test_haar_coeffs_text_without_entries(self):
        for root in (np.zeros(2), np.array([0.0, -1.5])):
            coeffs = HaarCoeffs(3, 2, np.array([1.0, -0.0]), root, {})
            assert haar_coeffs_text(coeffs) == dumps_json(haar_coeffs_to_dict(coeffs))

    def test_complex_coefficients_raise_like_the_dict_writer(self):
        for mean, entries, field in (
            (np.array([1j]), {}, "mean"),
            (np.zeros(1), {(1, 0): np.array([1 + 1j])}, "value"),
        ):
            coeffs = HaarCoeffs(2, 1, mean, np.zeros(1), entries)
            with pytest.raises(ParseError) as want:
                haar_coeffs_to_dict(coeffs)
            with pytest.raises(ParseError) as got:
                haar_coeffs_text(coeffs)
            assert (got.value.field, str(got.value)) == (want.value.field, str(want.value))
            assert got.value.field == field
        real = HaarCoeffs(2, 1, np.array([1 + 0j]), np.zeros(1), {(2, 3): np.array([2 + 0j])})
        assert haar_coeffs_text(real) == dumps_json(haar_coeffs_to_dict(real))

    @settings(max_examples=60, deadline=None)
    @given(coefficient_sets(complex_ok=False), st.integers(1, 3))
    def test_blocks_text(self, case, d):
        coeffs = coeffs_of(case)
        blocks = martingale_decompose(coeffs, d, coeffs.depth_limit // d)
        assert blocks_text(blocks, d) == dumps_json(blocks_to_dict(blocks, d))

    def test_blocks_text_edge_cases(self):
        cases = (
            [],
            [MartingaleBlock("pm", 0, 1, -1, {})],
            [MartingaleBlock("mean", -1, 0, 1, {(): np.array([1.5, -0.0])}),
             MartingaleBlock("pm", 1, 0, 1, {(1, -1, 1): np.array([2, 3]),
                                             (-1, 1, 1): np.array([0.25 + 0j, 1.0])})],
            [MartingaleBlock("pm", 0, 1, 1, {(1, 1): np.array([1.0]), (-1, 1): np.array([1.0, 2.0])})],
        )
        for blocks in cases:
            assert blocks_text(blocks, 2) == dumps_json(blocks_to_dict(blocks, 2))
        bad = [MartingaleBlock("pm", 0, 0, 1, {(1,): np.array([1j])})]
        with pytest.raises(ParseError) as want:
            blocks_to_dict(bad, 1)
        with pytest.raises(ParseError) as got:
            blocks_text(bad, 1)
        assert (got.value.field, str(got.value)) == (want.value.field, str(want.value))

    @settings(max_examples=60, deadline=None)
    @given(samples())
    def test_samples_csv_text(self, case):
        arr = case[1].real
        for grid in (arr, arr[:, 0]):
            rows = grid[:, None] if grid.ndim == 1 else grid
            want = "\n".join(",".join(repr(float(x)) for x in row) for row in rows) + "\n"
            assert samples_csv_text(grid) == want


class TestCoefficientReader:
    @settings(max_examples=60, deadline=None)
    @given(coefficient_sets(complex_ok=False))
    def test_reads_what_the_per_row_reader_reads(self, case):
        obj = haar_coeffs_to_dict(coeffs_of(case))
        got, want = haar_coeffs_from_dict(obj), ref_haar_from_dict(obj)
        assert same_bits(got.mean_part, want.mean_part)
        assert same_bits(got.root_part, want.root_part)
        assert same_entries(got.entries, want.entries)

    def test_explicit_zero_rows_round_trip(self):
        coeffs = HaarCoeffs(2, 1, np.zeros(1), np.zeros(1),
                            {(1, 1): np.zeros(1), (2, 0): -np.zeros(1)})
        back = haar_coeffs_from_dict(haar_coeffs_to_dict(coeffs))
        assert same_entries(back.entries, coeffs.entries)

    @pytest.mark.parametrize("mutate", [
        lambda o: o["entries"][1].pop("value"),
        lambda o: o["entries"][2].pop("depth"),
        lambda o: o["entries"][0].pop("index"),
        lambda o: o["entries"].__setitem__(1, "not a row"),
        lambda o: o["entries"][2].__setitem__("value", [1.0, 2.0]),
        lambda o: o["entries"][1].__setitem__("value", 1.0),
        lambda o: o["entries"][2].__setitem__("value", [[1.0]]),
        lambda o: o.__setitem__("entries", {"depth": 1}),
        lambda o: o.pop("entries"),
    ])
    def test_parse_errors_keep_field_and_position(self, mutate):
        obj = haar_coeffs_to_dict(HaarCoeffs(2, 1, np.ones(1), np.ones(1),
                                             {(1, 0): np.ones(1), (2, 3): np.ones(1)}))
        mutate(obj)
        with pytest.raises(ParseError) as want:
            ref_haar_from_dict(obj, path="f.json")
        with pytest.raises(ParseError) as got:
            haar_coeffs_from_dict(obj, path="f.json")
        assert (got.value.field, str(got.value)) == (want.value.field, str(want.value))

    @pytest.mark.parametrize("row", [
        {"depth": 3, "index": 0}, {"depth": 1, "index": 2}, {"depth": 0, "index": 1},
        {"depth": -1, "index": 0}, {"depth": 10**30, "index": 0}, {"depth": 2, "index": 1},
    ])
    def test_bad_nodes_are_invalid_input(self, row):
        obj = haar_coeffs_to_dict(HaarCoeffs(2, 1, np.ones(1), np.ones(1), {(2, 1): np.ones(1)}))
        obj["entries"].append({**row, "value": [1.0]})
        with pytest.raises(InvalidInputError, match="f.json"):
            haar_coeffs_from_dict(obj, path="f.json")
