"""The array torus operations against term-by-term dict references.

The references below walk `TrigPoly.terms` one frequency at a time, the way
the torus layer computed before it moved to frequency and coefficient
matrices. Coefficientwise multipliers must agree exactly; results that sum
several terms agree within REL_TOL times the sum of the absolute values that
enter the sum. The merge, the canonical form, the row lookup and the arc
integrals are also checked bit for bit against the forms that sort every
input, add duplicate rows with np.add.at and divide by ik in complex
arithmetic. The producers that hand TrigPoly rows already in order, the
shared quarter-arc merge and the shared probe runs of `bundle_poly_inner`
are checked bit for bit against the forms that canonicalize every poly,
project arc by arc and look the probe up per arc.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haartorus.torus import (
    _I_POWERS,
    ARC_NS,
    MAX_FREQUENCY,
    TWO_PI,
    ArcBundle,
    TrigPoly,
    _canonical,
    _lookup,
    _merge,
    _multiplier,
    arc_average,
    arc_averages,
    arc_exp_integral,
    arc_integrals,
    bundle_inner,
    bundle_poly_inner,
    directional_hilbert,
    embed_variable,
    inner_product,
    quarter_arc_project,
    riesz_apply,
    square_wave,
)
from haartorus.errors import InvalidInputError

REL_TOL = 1e-13

# ---------------------------------------------------------------------------
# dict references


def ref_dict_merge(d, clusters, freqs, coeffs, value_dim):
    terms = {}
    for freq, coeff in zip(map(tuple, freqs.tolist()), coeffs):
        terms[freq] = terms.get(freq, np.zeros(value_dim, dtype=np.complex128)) + coeff
    return {f: c for f, c in terms.items() if np.any(c)}


def ref_riesz_apply(j, p):
    new = {}
    for freq, coeff in p.terms.items():
        norm = math.sqrt(sum(x * x for x in freq))
        if norm == 0.0:
            continue
        factor = -1j * freq[j - 1] / norm
        if factor != 0:
            new[freq] = coeff * factor
    return TrigPoly(p.d, p.clusters, new, p.value_dim)


def ref_directional_hilbert(j, p):
    new = {}
    for freq, coeff in p.terms.items():
        s = (freq[j - 1] > 0) - (freq[j - 1] < 0)
        if s != 0:
            new[freq] = coeff * (-1j * s)
    return TrigPoly(p.d, p.clusters, new, p.value_dim)


def ref_inner_product(p, q):
    total = 0.0 + 0.0j
    small, large = (p.terms, q.terms) if len(p.terms) <= len(q.terms) else (q.terms, p.terms)
    flipped = small is q.terms
    for freq, coeff in small.items():
        other = large.get(freq)
        if other is not None:
            if flipped:
                total += complex(np.sum(other * np.conj(coeff)))
            else:
                total += complex(np.sum(coeff * np.conj(other)))
    return total


def ref_quarter_arc_project(j, p):
    arcs = {}
    for n in ARC_NS:
        terms = {}
        for freq, coeff in p.terms.items():
            zeroed = freq[: j - 1] + (0,) + freq[j:]
            add = coeff * arc_average(freq[j - 1], n)
            terms[zeroed] = terms[zeroed] + add if zeroed in terms else add
        arcs[n] = TrigPoly(p.d, p.clusters, terms, p.value_dim)
    return ArcBundle(j, arcs)


def ref_bundle_inner(a, b):
    total = 0.0 + 0.0j
    for n in ARC_NS:
        total += 0.25 * ref_inner_product(a.arcs[n], b.arcs[n])
    return total


def ref_bundle_poly_inner(a, q):
    total = 0.0 + 0.0j
    for n in ARC_NS:
        member = a.arcs[n]
        for freq, coeff in q.terms.items():
            zeroed = freq[: a.var - 1] + (0,) + freq[a.var:]
            mine = member.terms.get(zeroed)
            if mine is not None:
                weight = np.conj(arc_exp_integral(freq[a.var - 1], n)) / TWO_PI
                total += complex(np.sum(mine * np.conj(coeff))) * weight
    return total


def ref_sorted_runs(freqs):
    order = np.lexsort(freqs.T[::-1])
    ranked = freqs[order]
    start = np.ones(len(freqs), dtype=bool)
    start[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return order, start


def ref_merge(freqs, coeffs):
    """The merge that sorts every input and adds each row into its run with np.add.at."""
    order, start = ref_sorted_runs(freqs)
    merged = np.zeros((int(start.sum()),) + coeffs.shape[1:], dtype=np.complex128)
    np.add.at(merged, np.cumsum(start) - 1, coeffs[order])
    return freqs[order[start]], merged


def ref_canonical(freqs, coeffs):
    """The canonical form that sorts every input."""
    freqs, merged = ref_merge(freqs, coeffs)
    keep = merged.any(axis=1)
    return freqs[keep], merged[keep]


def ref_lookup(keys, rows):
    """The lookup that sorts keys and rows together."""
    both = np.concatenate((keys, rows))
    order, start = ref_sorted_runs(both)
    head = order[start][np.cumsum(start) - 1]
    found = np.empty(len(both), dtype=np.intp)
    found[order] = np.where(head < len(keys), head, -1)
    return found[len(keys):]


def ref_arc_integrals(k):
    """Arc integrals through one complex division by ik."""
    k = np.asarray(k, dtype=np.int64)[:, None]
    ns = np.array(ARC_NS)
    diff = _I_POWERS[k * (ns + 1) % 4] - _I_POWERS[k * ns % 4]
    return np.where(k == 0, math.pi / 2.0, diff / (1j * np.where(k == 0, 1, k)))


# ---------------------------------------------------------------------------
# random small polys with repeated, cancelling and zero-frequency rows

SHAPES = [(d, c) for d in (1, 2, 3) for c in (1, 2, 3) if d * c <= 3]
SIGNED_ZEROS = [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                complex(1.5, -0.0), complex(-0.0, -2.5)]
COEFF = st.one_of(
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    st.sampled_from(SIGNED_ZEROS))


@st.composite
def poly_rows(draw, single_cluster=False, shape=None):
    """(d, clusters, value_dim, freqs, coeffs); freqs may repeat rows.

    Half the draws come in ascending row order, repeated rows side by side in
    the order drawn, so the canonical form meets input it need not sort.
    """
    if shape is None:
        d, clusters = draw(st.sampled_from([s for s in SHAPES if s[1] == 1 or not single_cluster]))
        shape = (d, clusters, draw(st.sampled_from((1, 2))))
    d, clusters, value_dim = shape
    dim = d * clusters
    freq = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    coeff = st.lists(COEFF, min_size=value_dim, max_size=value_dim)
    rows = draw(st.lists(st.tuples(freq, coeff), max_size=10))
    for f, c in list(rows):
        how = draw(st.sampled_from(("keep", "repeat", "cancel")))
        if how == "repeat":
            rows.append((f, draw(coeff)))
        elif how == "cancel":
            rows.append((f, [-x for x in c]))
    if draw(st.booleans()):
        rows.append(([0] * dim, draw(coeff)))
    if draw(st.booleans()):
        rows = sorted(rows, key=lambda row: row[0])
    else:
        rows = draw(st.permutations(rows))
    freqs = np.array([f for f, _ in rows], dtype=np.int64).reshape(len(rows), dim)
    coeffs = np.array([c for _, c in rows], dtype=np.complex128).reshape(len(rows), value_dim)
    return d, clusters, value_dim, freqs, coeffs


def make(rows):
    d, clusters, value_dim, freqs, coeffs = rows
    return TrigPoly(d, clusters, (freqs, coeffs), value_dim)


def mass(p):
    return float(np.abs(p.coeffs).sum())


def assert_same_terms(got, want):
    assert list(got.terms) == list(want.terms)
    for f, c in want.terms.items():
        assert np.array_equal(got.terms[f], c)


def assert_close_terms(got, want, tol):
    for f in set(got.terms) | set(want.terms):
        a = got.terms.get(f, 0.0)
        b = want.terms.get(f, 0.0)
        assert np.max(np.abs(np.asarray(a) - b)) <= tol


@st.composite
def poly_pair(draw, single_cluster=False):
    first = draw(poly_rows(single_cluster=single_cluster))
    second = draw(poly_rows(shape=(first[0], first[1], first[2])))
    return make(first), make(second)


class TestAgainstDictReferences:
    @given(poly_rows())
    @settings(max_examples=60, deadline=None)
    def test_canonical_form_is_the_sorted_dict_merge(self, rows):
        p = make(rows)
        want = ref_dict_merge(rows[0], rows[1], rows[3], rows[4], rows[2])
        assert list(p.terms) == sorted(want)
        for f, c in want.items():
            assert np.array_equal(p.terms[f], c)
        assert p.freqs.shape == (len(want), rows[0] * rows[1])
        assert p.coeffs.shape == (len(want), rows[2])

    @given(poly_rows(single_cluster=True), st.data())
    @settings(max_examples=60, deadline=None)
    def test_riesz_apply_exact(self, rows, data):
        p = make(rows)
        j = data.draw(st.integers(1, p.d))
        assert_same_terms(riesz_apply(j, p), ref_riesz_apply(j, p))

    @given(poly_rows(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_directional_hilbert_exact(self, rows, data):
        p = make(rows)
        j = data.draw(st.integers(1, p.total_dim))
        assert_same_terms(directional_hilbert(j, p), ref_directional_hilbert(j, p))

    @given(poly_rows(single_cluster=True), st.data())
    @settings(max_examples=60, deadline=None)
    def test_quarter_arc_project(self, rows, data):
        p = make(rows)
        j = data.draw(st.integers(1, p.d))
        got, want = quarter_arc_project(j, p), ref_quarter_arc_project(j, p)
        assert got.var == want.var
        for n in ARC_NS:
            assert_close_terms(got.member(n), want.member(n), REL_TOL * mass(p))

    @given(poly_pair())
    @settings(max_examples=60, deadline=None)
    def test_inner_product(self, pair):
        p, q = pair
        tol = REL_TOL * mass(p) * mass(q)
        assert abs(inner_product(p, q) - ref_inner_product(p, q)) <= tol
        assert abs(inner_product(q, p) - ref_inner_product(q, p)) <= tol

    @given(poly_pair(single_cluster=True), st.data())
    @settings(max_examples=60, deadline=None)
    def test_bundle_inner_products(self, pair, data):
        p, q = pair
        j = data.draw(st.integers(1, p.d))
        a, b = ref_quarter_arc_project(j, p), ref_quarter_arc_project(j, q)
        tol = REL_TOL * mass(p) * mass(q)
        assert abs(bundle_inner(a, b) - ref_bundle_inner(a, b)) <= tol
        assert abs(bundle_poly_inner(a, q) - ref_bundle_poly_inner(a, q)) <= tol


def assert_same_bits(got, want):
    assert got[0].dtype == want[0].dtype and got[0].shape == want[0].shape
    assert (got[0] == want[0]).all()
    assert got[1].dtype == want[1].dtype and got[1].shape == want[1].shape
    assert (got[1].view(np.uint64) == want[1].view(np.uint64)).all()  # signed zeros count


# finite parts whose sums of up to 40 stay finite, with signed zeros and subnormals
MERGE_PART = st.one_of(st.floats(-1e300, 1e300),
                       st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308]))


@st.composite
def merge_case(draw):
    """(freqs, coeffs) for `_merge`: rows in any order, from no row to many runs.

    A frequency range of one value makes every row one run; wider ranges give
    many runs. Coefficients are (rows, value_dim) or, as the quarter-arc
    projection merges them, (rows, 4, value_dim), their parts picked by a
    seeded generator from a drawn pool of values.
    """
    rows, dim, value_dim = draw(st.integers(0, 40)), draw(st.integers(1, 3)), draw(st.integers(1, 3))
    width = draw(st.sampled_from((0, 1, 3, 50)))
    pool = draw(st.lists(MERGE_PART, min_size=1, max_size=8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    freqs = rng.integers(-width, width + 1, size=(rows, dim))
    how = draw(st.sampled_from(("as drawn", "ascending", "descending")))
    if how != "as drawn":
        up = np.lexsort(freqs.T[::-1])
        freqs = freqs[up if how == "ascending" else up[::-1]]
    shape = (rows, value_dim) if draw(st.booleans()) else (rows, 4, value_dim)
    parts = rng.choice(np.array(pool), size=shape + (2,))
    return freqs, parts.view(np.complex128)[..., 0]


def row_orders(freqs):
    """Rows as drawn, ascending (repeats side by side, as drawn) and descending."""
    up = np.lexsort(freqs.T[::-1])
    return [np.arange(len(freqs)), up, up[::-1]]


class TestOrderAwareCanonicalForm:
    @given(poly_rows())
    @settings(max_examples=100, deadline=None)
    def test_canonical_equals_the_lexsort_form(self, rows):
        for order in row_orders(rows[3]):
            freqs, coeffs = rows[3][order], rows[4][order]
            assert_same_bits(_canonical(freqs, coeffs), ref_canonical(freqs, coeffs))

    @pytest.mark.parametrize("dim, value_dim", [(1, 1), (3, 2)])
    def test_canonical_equals_the_lexsort_form_on_small_and_flat_input(self, dim, value_dim):
        zeros = complex(-0.0, -0.0)
        cases = [
            (np.zeros((0, dim), np.int64), np.zeros((0, value_dim), complex)),
            (np.full((1, dim), -2), np.full((1, value_dim), complex(1.0, -0.0))),
            (np.full((1, dim), 5), np.full((1, value_dim), zeros)),
            (np.zeros((6, dim), np.int64), np.arange(6 * value_dim).reshape(6, value_dim) - 7.5j),
            (np.zeros((3, dim), np.int64), np.array([[1.0], [-1.0], [zeros]]).repeat(value_dim, 1)),
            (np.arange(4 * dim).reshape(4, dim), np.full((4, value_dim), complex(-0.0, 2.0))),
        ]
        for freqs, coeffs in cases:
            coeffs = coeffs.astype(np.complex128)
            for order in row_orders(freqs):
                f, c = freqs[order], coeffs[order]
                assert_same_bits(_canonical(f, c), ref_canonical(f, c))

    @given(merge_case())
    @settings(max_examples=200, deadline=None)
    def test_merge_equals_the_add_at_merge(self, case):
        freqs, coeffs = case
        assert_same_bits(_merge(freqs, coeffs), ref_merge(freqs, coeffs))

    @given(poly_rows(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_lookup_equals_the_lexsort_lookup(self, key_rows, data):
        keys = make(key_rows).freqs
        rows = data.draw(poly_rows(shape=key_rows[:3]))[3]
        col = data.draw(st.integers(0, keys.shape[1] - 1))
        zeroed = keys * (np.arange(keys.shape[1]) != col)  # as bundle_poly_inner probes
        probes = [keys, keys[:0], keys[:1]]
        for raw in (rows, zeroed):
            probes += [raw[order] for order in row_orders(raw)]
        for probe in probes:
            assert np.array_equal(_lookup(keys, probe), ref_lookup(keys, probe))


def test_arc_integrals_equal_complex_division_bit_for_bit():
    steps = np.arange(1, 4100)
    k = np.concatenate(([0, MAX_FREQUENCY, -MAX_FREQUENCY], steps, -steps))
    got, want = arc_integrals(k), ref_arc_integrals(k)
    assert got.shape == want.shape == (len(k), len(ARC_NS))
    assert (got.view(np.uint64) == want.view(np.uint64)).all()


# ---------------------------------------------------------------------------
# order-trusting producers, the shared projection merge and the shared probe
# runs, bit for bit against the forms that canonicalize every poly


def canonical_poly(d, clusters, freqs, coeffs, value_dim):
    """The poly through the full canonical form: steps, sort, merge, zero-row drop."""
    return TrigPoly(d, clusters, (freqs, coeffs), value_dim)


def sorting_quarter_arc_project(j, p):
    """One canonicalized poly per arc, as projected before the arcs shared one merge."""
    zeroed = p.freqs * (np.arange(p.d) != j - 1)
    avg = arc_averages(p.freqs[:, j - 1])
    return ArcBundle(j, {n: canonical_poly(p.d, p.clusters, zeroed, p.coeffs * avg[:, col, None],
                                           p.value_dim)
                         for col, n in enumerate(ARC_NS)})


def per_arc_bundle_poly_inner(a, q):
    """The bundle pairing that looks the whole zeroed probe up once per arc."""
    zeroed = q.freqs * (np.arange(q.total_dim) != a.var - 1)
    weights = np.conj(arc_integrals(q.freqs[:, a.var - 1])) / TWO_PI
    total = 0.0 + 0.0j
    for col, n in enumerate(ARC_NS):
        idx = _lookup(a.arcs[n].freqs, zeroed)
        hit = idx >= 0
        pair = np.sum(a.arcs[n].coeffs[idx[hit]] * np.conj(q.coeffs[hit]), axis=1)
        total += complex(np.sum(pair * weights[hit, col]))
    return total


def assert_same_poly(got, want):
    assert (got.d, got.clusters, got.value_dim) == (want.d, want.clusters, want.value_dim)
    assert_same_bits((got.freqs, got.coeffs), (want.freqs, want.coeffs))


def same_complex_bits(x, y):
    return np.array([x]).view(np.uint64).tolist() == np.array([y]).view(np.uint64).tolist()


# subnormal parts: an arc average or a scale factor below 1/2 rounds them to 0
TINY = [complex(5e-324, 0.0), complex(0.0, -5e-324), complex(-1e-323, 5e-324)]
TRUST_COEFF = st.one_of(COEFF, st.sampled_from(TINY))


@st.composite
def projection_case(draw):
    """(j, p): a single-cluster poly and a projection variable.

    In "one run" draws only coordinate j is nonzero, so the zeroed rows
    collapse to one run; in "sorts" draws coordinate j leads the row, so
    zeroing it leaves rows that must be sorted; "mixed" draws anything.
    Coefficients include signed zeros and subnormals that underflow to a zero
    row once multiplied by an arc average.
    """
    d = draw(st.integers(1, 3))
    value_dim = draw(st.integers(1, 3))
    how = draw(st.sampled_from(("one run", "sorts", "mixed")))
    j = 1 if how == "sorts" else draw(st.integers(1, d))
    freq = st.lists(st.integers(-4, 4), min_size=d, max_size=d)
    coeff = st.lists(TRUST_COEFF, min_size=value_dim, max_size=value_dim)
    rows = draw(st.lists(st.tuples(freq, coeff), max_size=12))
    freqs = np.array([f for f, _ in rows], dtype=np.int64).reshape(len(rows), d)
    if how == "one run":
        freqs *= np.arange(d) == j - 1
    coeffs = np.array([c for _, c in rows], dtype=np.complex128).reshape(len(rows), value_dim)
    return j, canonical_poly(d, 1, freqs, coeffs, value_dim)


class TestOrderTrustingPaths:
    @given(projection_case())
    @settings(max_examples=150, deadline=None)
    def test_shared_projection_merge_equals_per_arc_canonical_form(self, case):
        j, p = case
        got, want = quarter_arc_project(j, p), sorting_quarter_arc_project(j, p)
        assert got.var == want.var == j
        zeroed = p.freqs * (np.arange(p.d) != j - 1)
        avg = arc_averages(p.freqs[:, j - 1])
        for col, n in enumerate(ARC_NS):
            assert_same_poly(got.member(n), want.member(n))
            member = got.member(n)
            assert_same_bits((member.freqs, member.coeffs),
                             ref_canonical(zeroed, p.coeffs * avg[:, col, None]))

    @given(projection_case(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_shared_probe_runs_equal_per_arc_lookup(self, case, data):
        j, p = case
        a = quarter_arc_project(j, p)
        other = data.draw(projection_case())[1]
        probes = [p, riesz_apply(1, p)]
        if other.value_dim == p.value_dim and other.d == p.d:
            probes.append(other)
        for q in probes:
            got, want = bundle_poly_inner(a, q), per_arc_bundle_poly_inner(a, q)
            assert same_complex_bits(got, want)

    @given(projection_case(), st.sampled_from([1.0, -1.0, 0.0, -0.0, 0.3 - 2j, 1e-300, -1j]))
    @settings(max_examples=100, deadline=None)
    def test_trusting_producers_equal_the_canonical_form(self, case, factor):
        j, p = case
        assert_same_poly(p.scale(factor),
                         canonical_poly(p.d, 1, p.freqs, p.coeffs * factor, p.value_dim))
        norm = np.sqrt(np.einsum("ij,ij->i", p.freqs, p.freqs).astype(np.float64))
        for got, mult in (
                (riesz_apply(j, p), 1j * (-p.freqs[:, j - 1] / np.where(norm == 0.0, 1.0, norm))),
                (directional_hilbert(j, p), -1j * np.sign(p.freqs[:, j - 1]))):
            keep = mult != 0
            want = canonical_poly(p.d, 1, p.freqs[keep], p.coeffs[keep] * mult[keep, None],
                                  p.value_dim)
            assert_same_poly(got, want)
            assert_same_poly(_multiplier(p, mult), want)

    @pytest.mark.parametrize("kind", ["sqsin", "sqcos"])
    @pytest.mark.parametrize("cutoff", [1, 2, 7, 64])
    def test_square_waves_and_embeddings_equal_the_canonical_form(self, kind, cutoff):
        wave = square_wave(kind, cutoff)
        assert_same_poly(wave, canonical_poly(1, 1, wave.freqs[::-1], wave.coeffs[::-1], 1))
        for d, clusters, var in ((1, 1, 0), (3, 1, 1), (2, 2, 3)):
            freqs = np.zeros((len(wave.freqs), d * clusters), dtype=np.int64)
            freqs[:, var] = wave.freqs[:, 0]
            assert_same_poly(embed_variable(wave, var, d, clusters),
                             canonical_poly(d, clusters, freqs[::-1], wave.coeffs[::-1], 1))

    @pytest.mark.parametrize("factor", [math.inf, -math.inf, math.nan, complex(0.0, math.inf)])
    def test_non_finite_scale_raises_the_constructor_error(self, factor):
        p = TrigPoly(2, 1, {(1, -2): 3.0, (0, 5): 0.0 + 0.0j, (2, 0): 1e-300})
        with np.errstate(invalid="ignore"):  # inf times a zero part is nan
            with pytest.raises(InvalidInputError) as trusted:
                p.scale(factor)
            with pytest.raises(InvalidInputError) as canonical:
                canonical_poly(2, 1, p.freqs, p.coeffs * factor, 1)
        assert str(trusted.value) == str(canonical.value)
        assert str(trusted.value) == "coefficient of frequency (1, -2) is not finite"
