"""The ancestor-walk duality pairing against the all-pairs reference.

The reference pairs every coded x entry with every partner y entry, the way
the engine did before it walked ancestors only. The skipped pairs multiply to
exact zeros and the surviving pairs are summed in the same order, so the two
totals must be equal, not merely close.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from haartorus.coding import block_depth, coded_shift_blocks, martingale_decompose
from haartorus.experiments import (
    _coord_expectation,
    _coded_pairing,
    _indicator_factor,
    _pattern_factor,
    _transform_factor,
)
from haartorus.haar import HaarCoeffs

CUTOFF = 64
VARIANTS = ("exact", "projected", "plain")


def _entry_factor_map(prefix, top_factor, depth):
    factors = {}
    for s in range(depth):
        prev = prefix[s - 1] if s > 0 else 1
        factors[s] = _indicator_factor(prefix[s], prev)
    if depth >= 0 and top_factor is not None:
        factors[depth] = top_factor
    return factors


def ref_coded_pairing(j, d, f, g, variant, N, c0):
    fb = coded_shift_blocks(j, d, martingale_decompose(f, d, f.depth_limit // d))
    gb = martingale_decompose(g, d, g.depth_limit // d)

    y_entries = []
    for by in gb:
        t_y = block_depth(by, d)
        top = None if by.kind == "mean" else _pattern_factor(by.sign)
        for prefix, w in by.entries.items():
            y_entries.append(
                (_entry_factor_map(prefix, top, t_y), np.asarray(w, dtype=float))
            )

    transformed = {}
    total = 0.0 + 0.0j
    for bx in fb:
        t_x = block_depth(bx, d)
        sigma = -bx.sign
        if variant == "exact":
            top = _pattern_factor(bx.sign)
        else:
            if sigma not in transformed:
                transformed[sigma] = _transform_factor(j, d, N, c0, sigma, variant)
            top = transformed[sigma]
        for prefix, w in bx.entries.items():
            wx = np.asarray(w, dtype=float)
            fmap = _entry_factor_map(prefix, top, t_x)
            for ymap, wy in y_entries:
                prod = 1.0 + 0.0j
                for s in sorted(set(fmap) | set(ymap)):
                    val = _coord_expectation(fmap.get(s), ymap.get(s))
                    if val == 0.0:
                        prod = 0.0 + 0.0j
                        break
                    prod *= val
                if prod != 0.0:
                    total += float(np.dot(wx, wy)) * prod
    return total


values = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def pairing_inputs(draw):
    d = draw(st.integers(1, 3))
    depth = draw(st.integers(1, 5))
    value_dim = draw(st.integers(1, 2))
    nodes = [(t, i) for t in range(1, depth + 1) for i in range(1 << t)]
    node_sets = st.sets(st.sampled_from(nodes), max_size=12)
    vec = st.lists(values, min_size=value_dim, max_size=value_dim)

    zero = [0.0] * value_dim

    def coeffs(support, mean, root):
        return HaarCoeffs(
            depth, value_dim, np.array(mean), np.array(root),
            {node: np.array(draw(vec)) for node in sorted(support)},
        )

    f_support = draw(node_sets)
    g_support = draw(node_sets)
    if draw(st.booleans()):
        g_support -= f_support
    f = coeffs(f_support, zero, zero)
    g = coeffs(g_support, draw(st.one_of(st.just(zero), vec)),
               draw(st.one_of(st.just(zero), vec)))
    return d, draw(st.integers(1, d)), f, g


@settings(max_examples=60, deadline=None)
@given(pairing_inputs(), st.sampled_from(VARIANTS))
def test_ancestor_walk_equals_all_pairs(inputs, variant):
    d, j, f, g = inputs
    c0 = 0.9
    got = _coded_pairing(j, d, martingale_decompose(f, d), g, CUTOFF, c0)
    assert got[VARIANTS.index(variant)] == ref_coded_pairing(j, d, f, g, variant, CUTOFF, c0)


def test_dense_pairing_equals_all_pairs(golden_c0):
    rng = np.random.default_rng(7)
    for d in (1, 2, 3):
        entries = {(t, i): rng.standard_normal(2)
                   for t in range(1, 6) for i in range(1 << t)}
        f = HaarCoeffs(5, 2, np.zeros(2), np.zeros(2), entries)
        g = HaarCoeffs(5, 2, rng.standard_normal(2), rng.standard_normal(2),
                       {k: rng.standard_normal(2) for k in entries})
        for j in range(1, d + 1):
            for variant in VARIANTS:
                got = _coded_pairing(j, d, martingale_decompose(f, d), g, CUTOFF,
                                     golden_c0)[VARIANTS.index(variant)]
                assert got == ref_coded_pairing(j, d, f, g, variant, CUTOFF, golden_c0)
