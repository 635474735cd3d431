"""Sign-toss coding, martingale blocks, constrained spectra, modulation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haartorus import (
    DyadicNode,
    InvalidInputError,
    MartingaleBlock,
    blocks_to_haar,
    check_ek_membership,
    coded_shift_blocks,
    duality_transfer_check,
    ek_to_trig_poly,
    encode_path,
    evaluate_blocks_at_path,
    haar_analyze,
    haar_synthesize,
    make_ek_element,
    martingale_decompose,
    modulate,
    modulated_riesz_multiplier,
    modulation_difference,
    path_outcomes,
    random_ek_element,
    random_paths,
    sliced_multiplier_apply,
    apply_sj,
)


def block_table(blocks):
    return {(b.kind, b.k, b.m, b.sign): b.entries for b in blocks}


class TestSignToss:
    def test_zero_angle_goes_left(self):
        assert encode_path([(0.0, 0.0)], 1) == DyadicNode(1, 0)

    def test_first_toss_reads_cosine(self):
        # cos(0.1) > 0 then, conditioned on +1, cos(2.0) < 0
        assert path_outcomes([(0.1, 2.0)], 2) == [1, -1]
        assert encode_path([(0.1, 2.0)], 2) == DyadicNode(2, 1)

    def test_negative_outcome_switches_to_sine(self):
        # cos(2.0) < 0 then, conditioned on -1, sin(2.0) > 0
        assert path_outcomes([(2.0, 2.0)], 2) == [-1, 1]
        assert encode_path([(2.0, 2.0)], 2) == DyadicNode(2, 2)

    def test_zero_sample_counts_as_plus(self):
        assert path_outcomes([(2.0, 0.0)], 2) == [-1, 1]

    def test_depth_zero_is_empty(self):
        assert path_outcomes([(1.0, 1.0)], 0) == []

    def test_cluster_shortage_rejected(self):
        with pytest.raises(InvalidInputError):
            path_outcomes([(1.0, 1.0)], 3)
        with pytest.raises(InvalidInputError):
            path_outcomes([(1.0, 1.0), (1.0,)], 4)

    @given(clusters=st.integers(1, 3), d=st.integers(1, 3), data=st.data(),
           bad=st.sampled_from((math.nan, math.inf, -math.inf)))
    @settings(max_examples=60, deadline=None)
    def test_non_finite_angle_rejected_by_position(self, clusters, d, data, bad):
        k = data.draw(st.integers(0, clusters - 1))
        m = data.draw(st.integers(0, d - 1))
        points = [[0.5] * d for _ in range(clusters)]
        points[k][m] = bad
        with pytest.raises(InvalidInputError,
                           match=f"at cluster {k}, coordinate {m} is not finite"):
            path_outcomes(points, data.draw(st.integers(1, clusters * d)))

    def test_outcomes_uniform_over_leaves(self):
        depth, count = 3, 100_000
        counts = np.zeros(1 << depth, dtype=np.int64)
        for path in random_paths(2, 2, count, seed=2024):
            counts[path.node(depth).index] += 1
        expected = count / (1 << depth)
        sigma = math.sqrt(count * (1 / 8) * (7 / 8))
        assert np.all(np.abs(counts - expected) <= 3.0 * sigma)

    def test_random_paths_deterministic(self):
        a = random_paths(2, 2, 5, seed=7)
        b = random_paths(2, 2, 5, seed=7)
        assert [p.node(4) for p in a] == [p.node(4) for p in b]

    @given(depth=st.integers(0, 62), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_prefix_index_bijection(self, depth, data):
        index = data.draw(st.integers(min_value=0, max_value=(1 << depth) - 1))
        block = MartingaleBlock("pm", 0, 0, 1, np.array([(1 << depth) + index]),
                                np.zeros((1, 1)))
        prefix = block.prefixes[0].tolist()
        assert len(prefix) == depth
        assert set(prefix) <= {-1, 1}
        back = 0
        for outcome in prefix:
            back = 2 * back + (0 if outcome > 0 else 1)
        assert back == index

    @given(depth=st.integers(0, 62), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_prefix_reads_the_low_depth_bits(self, depth, data):
        indices = sorted(data.draw(st.sets(st.integers(0, (1 << depth) - 1), min_size=1,
                                           max_size=8)))
        positions = np.array([(1 << depth) + i for i in indices], dtype=np.int64)
        block = MartingaleBlock("pm", 0, 0, 1, positions, np.zeros((len(indices), 1)))
        want = [[1 if ((i >> (depth - 1 - s)) & 1) == 0 else -1 for s in range(depth)]
                for i in indices]
        assert block.prefixes.shape == (len(indices), depth)
        assert block.prefixes.tolist() == want
        assert list(block.entries) == [tuple(p) for p in want]
        assert block.entries is block.entries


class TestMartingaleBlocks:
    def small_coeffs(self):
        samples = np.array([4.0, 2.0, -1.0, 3.0, 0.5, 0.5, 2.0, -2.0])
        return haar_analyze(samples)

    def test_prefixes_are_the_outcomes_of_paths_to_the_node(self):
        for path in random_paths(3, 3, 40, seed=5):
            for depth in (1, 4, 8):
                node = path.node(depth)
                block = MartingaleBlock("pm", 0, 0, 1, np.array([(1 << depth) + node.index]),
                                        np.zeros((1, 1)))
                assert block.prefixes[0].tolist() == path.outcomes(depth)
        root_modes = (MartingaleBlock("mean", -1, 0, 1, np.array([0]), np.ones((1, 2))),
                      MartingaleBlock("eps0", 0, 0, 1, np.array([1]), np.ones((1, 2))))
        for b in root_modes:
            assert b.prefixes.shape == (1, 0) and list(b.entries) == [()]

    def test_default_K_fits_the_depth_limit(self):
        coeffs = haar_analyze(np.arange(64.0))
        for d in (1, 2, 3, 7):
            got = martingale_decompose(coeffs, d)
            want = martingale_decompose(coeffs, d, K=coeffs.depth_limit // d)
            assert [(b.kind, b.k, b.m, b.sign) for b in got] \
                == [(b.kind, b.k, b.m, b.sign) for b in want]
        for d in (0, -1):
            with pytest.raises(InvalidInputError, match="need d >= 1"):
                martingale_decompose(coeffs, d)
        with pytest.raises(InvalidInputError, match="K >= 0"):
            martingale_decompose(coeffs, 2, K=-1)

    def test_depth_cap_enforced(self):
        coeffs = haar_analyze(np.arange(32.0))
        with pytest.raises(InvalidInputError):
            martingale_decompose(coeffs, d=2, K=1)

    def test_block_grouping_and_weights(self):
        coeffs = self.small_coeffs()
        blocks = block_table(martingale_decompose(coeffs, d=2, K=1))
        assert ("mean", -1, 0, 1) in blocks
        plus = blocks[("pm", 0, 1, 1)]
        minus = blocks[("pm", 0, 1, -1)]
        assert set(plus) == {(1,)} and set(minus) == {(-1,)}
        w = coeffs.entries[(1, 0)][0] * math.sqrt(2.0)
        assert plus[(1,)][0] == pytest.approx(w, abs=1e-15)
        deep = blocks[("pm", 1, 0, -1)]
        assert (-1, -1) in deep
        assert deep[(-1, -1)][0] == coeffs.entries[(2, 3)][0] * 2.0

    def test_roundtrip_to_haar(self, rng):
        coeffs = haar_analyze(rng.standard_normal(64))
        blocks = martingale_decompose(coeffs, d=2, K=2)
        back = blocks_to_haar(blocks, d=2, depth_limit=5)
        assert np.array_equal(back.mean_part, coeffs.mean_part)
        assert np.array_equal(back.root_part, coeffs.root_part)
        assert set(back.entries) == set(coeffs.entries)
        for key, c in coeffs.entries.items():
            assert abs(back.entries[key][0] - c[0]) <= 1e-14 * max(1.0, abs(c[0]))

    def test_pathwise_evaluation_matches_synthesis(self, rng):
        depth_limit = 5
        coeffs = haar_analyze(rng.standard_normal(1 << (depth_limit + 1)))
        blocks = martingale_decompose(coeffs, d=2, K=2)
        grid = haar_synthesize(coeffs)
        for path in random_paths(2, 3, 20, seed=11):
            leaf = path.node(depth_limit + 1)
            got = evaluate_blocks_at_path(blocks, path)[0]
            assert abs(got - grid[leaf.index]) <= 1e-12

    def test_coded_shift_matches_dyadic_shift(self, rng):
        coeffs = haar_analyze(rng.standard_normal(64))
        d = 2
        blocks = martingale_decompose(coeffs, d, K=2)
        for j in (1, 2):
            direct = block_table(martingale_decompose(apply_sj(j, d, coeffs), d, K=2))
            direct = {k: v for k, v in direct.items() if k[0] == "pm"}
            coded = block_table(coded_shift_blocks(j, d, blocks))
            assert set(coded) == set(direct)
            for key, entries in coded.items():
                assert set(entries) == set(direct[key])
                for prefix, w in entries.items():
                    assert np.array_equal(w, direct[key][prefix])

    def test_coded_shift_kills_root_blocks(self, rng):
        coeffs = haar_analyze(rng.standard_normal(16))
        blocks = martingale_decompose(coeffs, d=2, K=1)
        out = coded_shift_blocks(1, 2, blocks)
        assert all(b.kind == "pm" for b in out)

    def test_coded_shift_flips_wave_and_prefix(self):
        coeffs = haar_analyze(np.array([1.0, 0.0, 0.0, 0.0]))
        blocks = martingale_decompose(coeffs, d=1, K=1)
        out = block_table(coded_shift_blocks(1, 1, blocks))
        # the (1, 0) node has prefix (+1,); its image conditions on (-1,)
        assert ("pm", 1, 0, -1) in out
        assert set(out[("pm", 1, 0, -1)]) == {(-1,)}

    def test_bad_component_rejected(self):
        with pytest.raises(InvalidInputError):
            coded_shift_blocks(3, 2, [])


class TestEkSpace:
    def test_random_element_is_member(self):
        ok, violations = check_ek_membership(random_ek_element(seed=5))
        assert ok and violations == []

    def test_random_element_can_hold_every_frequency(self):
        # (2*1 + 1)^(2*1) - 1 = 8 nonzero frequencies on two clusters of one coordinate
        e = random_ek_element(d=1, k_max=1, n_terms=8, seed=3, max_mag=1)
        every = {(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)} - {(0, 0)}
        assert {t.freq for t in e.terms} == every
        # the count is not formed when it plainly exceeds the terms asked for
        assert random_ek_element(d=3, k_max=10**9, n_terms=0).terms == ()

    @pytest.mark.parametrize("kwargs, named", [
        (dict(d=1, k_max=1, n_terms=9, max_mag=1), "only 8 are nonzero"),
        (dict(d=2, k_max=0, n_terms=25, max_mag=1), "only 8 are nonzero"),
        (dict(d=0), "d = 0"),
        (dict(k_max=-1), "k_max = -1"),
        (dict(max_mag=0), "max_mag = 0"),
        (dict(n_terms=-1), "n_terms = -1"),
    ])
    def test_random_element_rejects_bounds_before_drawing(self, kwargs, named):
        with pytest.raises(InvalidInputError, match=named):
            random_ek_element(**kwargs)

    def test_violation_support_beyond_cluster(self):
        e = make_ek_element(2, 2, [(0, 0, 1, (1, 0, 3, 0), 1.0)])
        ok, violations = check_ek_membership(e)
        assert not ok and "beyond cluster" in violations[0]

    def test_violation_zero_active_coordinate(self):
        e = make_ek_element(2, 1, [(0, 1, 1, (2, 0), 1.0)])
        ok, violations = check_ek_membership(e)
        assert not ok and "mean-zero" in violations[0]

    def test_violation_tail_of_active_cluster(self):
        e = make_ek_element(2, 1, [(0, 0, 1, (2, 5), 1.0)])
        ok, violations = check_ek_membership(e)
        assert not ok and "after coordinate" in violations[0]

    def test_sliced_multiplier_selects_block(self):
        e = make_ek_element(2, 1, [
            (0, 0, 1, (3, 0), 2.0),
            (0, 0, -1, (-2, 0), 1.0),
            (0, 1, 1, (1, 4), 1.0),
        ])
        out = sliced_multiplier_apply(1, e)
        assert [t.freq for t in out.terms] == [(3, 0), (-2, 0)]
        assert out.terms[0].coeff[0] == 2.0 * -1j
        assert out.terms[1].coeff[0] == 1.0 * 1j
        other = sliced_multiplier_apply(2, e)
        assert [t.freq for t in other.terms] == [(1, 4)]

    def test_sliced_multiplier_preserves_membership(self):
        e = random_ek_element(seed=9)
        for j in (1, 2):
            ok, _ = check_ek_membership(sliced_multiplier_apply(j, e))
            assert ok

    def test_poly_merges_duplicate_frequencies(self):
        e = make_ek_element(2, 1, [
            (0, 0, 1, (1, 0), 1.0),
            (0, 0, -1, (1, 0), 2.0),
        ])
        p = ek_to_trig_poly(e)
        assert p.terms[(1, 0)][0] == 3.0

    def test_random_element_deterministic(self):
        a = random_ek_element(seed=4)
        b = random_ek_element(seed=4)
        assert [t.freq for t in a.terms] == [t.freq for t in b.terms]
        assert all(np.array_equal(x.coeff, y.coeff)
                   for x, y in zip(a.terms, b.terms))
        assert len(a.terms) == 30
        assert a.max_frequency() <= 7


def ref_stacked(term, d, clusters, A):
    """Exact stacked integers: coordinate u is sum over clusters s of coef * A^(s*d + u + 1)."""
    return tuple(sum(term.freq[s * d + u] * A ** (s * d + u + 1) for s in range(clusters))
                 for u in range(d))


# float.hex of (sliced, modulated, bound) from duality_transfer_check at A = 1024 for
# the spectrum and partners of a seeded duality run, taken before modulation ran on floats
PINNED_TRANSFERS = [
    (1, 2, ('-0x1.9249520ce34fdp+3', '0x1.5d92b4e9c2a56p+0'), ('-0x1.922e03089b680p+3', '0x1.5ced88e3dbe68p+0'), '0x1.ae6d311da264dp-7'),
    (1, 3, ('0x1.e7bb6153ab210p-2', '0x1.70fef124f64f5p+1'), ('0x1.edb0d14dc4b25p-2', '0x1.71a31704dd959p+1'), '0x1.32a105cc23538p-6'),
    (2, 2, ('-0x1.19e2695199018p+2', '0x1.53db22ea07b91p+3'), ('-0x1.19d250b1be5fap+2', '0x1.53b440d4d9db2p+3'), '0x1.20f4bbdefff91p-5'),
    (2, 3, ('-0x1.22a6d8a0ec38ap+3', '0x1.9987c1093be27p+0'), ('-0x1.229acb803b077p+3', '0x1.96b286595ad3ap+0'), '0x1.a23dd21b8207cp-5'),
    (3, 2, ('-0x1.b17c4e0d7e1a2p+2', '-0x1.7f6514afb62e5p+0'), ('-0x1.b1d4a8d7ff298p+2', '-0x1.7fca7e87bf412p+0'), '0x1.b96fe6b1d0b44p-7'),
    (3, 3, ('0x1.d7b41b072ca4cp+2', '0x1.4fb01ddc343c4p+2'), ('0x1.d7a9cad291bfcp+2', '0x1.4fc6e75e0f9c8p+2'), '0x1.4c8d94193ddc6p-6'),
    (11, 2, ('-0x1.148f8de484c54p+2', '-0x1.0b28a0c04867ep+2'), ('-0x1.14b2c58d08ab4p+2', '-0x1.0ae286ec3a14dp+2'), '0x1.cc8edba120ec7p-5'),
    (11, 3, ('0x1.745e60977a003p+1', '0x1.58048e0dafe12p+0'), ('0x1.745092e42b397p+1', '0x1.57aa6bee8de47p+0'), '0x1.27bddd2c00067p-6'),
]


class TestModulation:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_stacked_equals_exact_power_oracle(self, data):
        d = data.draw(st.integers(1, 4))
        k_max = data.draw(st.integers(0, 4))
        max_mag = data.draw(st.integers(1, 9))
        n_terms = data.draw(st.integers(0, min(8, (2 * max_mag + 1) ** ((k_max + 1) * d) - 1)))
        e = random_ek_element(d=d, k_max=k_max, n_terms=n_terms,
                              seed=data.draw(st.integers(0, 2**16)), max_mag=max_mag)
        A = data.draw(st.one_of(st.integers(2 * max_mag + 1, 2**12),
                                st.integers(2**60, 2**200), st.just(10**400)))
        spectrum = modulate(e, A)
        for mt, t in zip(spectrum.terms, e.terms):
            stacked = mt.stacked
            assert stacked == ref_stacked(t, d, e.clusters, A)
            assert all(type(x) is int for x in stacked)

    @pytest.mark.parametrize("seed, d, sliced, modulated, bound", PINNED_TRANSFERS)
    def test_transfer_triple_pinned_bit_for_bit(self, seed, d, sliced, modulated, bound):
        from haartorus.experiments import _partner_element

        phi = random_ek_element(d=d, k_max=1, n_terms=8, seed=seed, max_mag=5)
        gammas = [_partner_element(phi, seed + 101 * j) for j in range(1, d + 1)]
        s, m, b = duality_transfer_check(phi, gammas, 1024)
        assert (s.real.hex(), s.imag.hex()) == sliced
        assert (m.real.hex(), m.imag.hex()) == modulated
        assert b.hex() == bound

    def test_single_cluster_worked_example(self):
        e = make_ek_element(2, 1, [(0, 0, 1, (1, 0), 1.0)])
        spectrum = modulate(e, 100)
        (mt,) = spectrum.terms
        assert mt.stacked == (100, 0)
        assert mt.leading_power == 1
        assert mt.scaled.values() == (1.0, 0.0)
        assert modulated_riesz_multiplier(1, mt.scaled) == -1j
        assert modulated_riesz_multiplier(2, mt.scaled) == 0.0

    def test_two_cluster_worked_example(self):
        e = make_ek_element(2, 2, [(1, 0, 1, (1, 1, 2, 0), 1.0)])
        spectrum = modulate(e, 10)
        (mt,) = spectrum.terms
        assert mt.stacked == (2010, 100)
        assert mt.leading_power == 3
        assert mt.scaled.values() == (2.01, 0.1)
        got = modulated_riesz_multiplier(1, mt.scaled)
        assert abs(got - (-1j * 2.01 / math.hypot(2.01, 0.1))) <= 1e-15

    def test_scale_threshold(self):
        e = make_ek_element(1, 1, [(0, 0, 1, (2,), 1.0)])
        with pytest.raises(InvalidInputError):
            modulate(e, 4)
        assert modulate(e, 5).terms[0].stacked == (10,)

    def test_distinct_frequencies_stay_distinct(self):
        e = random_ek_element(n_terms=50, seed=6)
        assert modulate(e, 1024).all_distinct()

    def test_axis_only_element_is_exact(self):
        e = make_ek_element(2, 1, [
            (0, 0, 1, (3, 0), 1.5),
            (0, 0, -1, (-1, 0), 2.0),
        ])
        for j in (1, 2):
            assert modulation_difference(j, modulate(e, 64)) == 0.0

    def test_difference_linear_in_coefficients(self):
        specs = [(0, 1, 1, (2, 3), 1.0 + 0.5j), (0, 0, -1, (-4, 0), 0.75)]
        doubled = [(k, m, s, f, 2.0 * c) for (k, m, s, f, c) in specs]
        base = modulation_difference(1, modulate(make_ek_element(2, 1, specs), 128))
        twice = modulation_difference(1, modulate(make_ek_element(2, 1, doubled), 128))
        assert twice == 2.0 * base

    def test_difference_decays_like_one_over_scale(self):
        e = random_ek_element(seed=3)
        errs = [modulation_difference(1, modulate(e, A)) for A in (64, 128, 256)]
        assert errs[0] > errs[1] > errs[2] > 0.0
        for a, b in zip(errs, errs[1:]):
            assert 0.35 <= b / a <= 0.65

    def test_transfer_pairing_within_bound(self):
        phi = random_ek_element(d=2, k_max=1, n_terms=6, seed=3, max_mag=4)
        rng = np.random.default_rng(17)
        gammas = []
        for _ in range(2):
            specs = [(t.k, t.m, t.sign, t.freq,
                      rng.standard_normal() + 1j * rng.standard_normal())
                     for t in phi.terms]
            gammas.append(make_ek_element(2, 2, specs))
        results = {}
        for A in (512, 1024):
            sliced, modulated, bound = duality_transfer_check(phi, gammas, A)
            assert abs(sliced - modulated) <= bound
            results[A] = bound
        assert 0.3 <= results[1024] / results[512] <= 0.7

    def test_transfer_validates_partners(self):
        phi = random_ek_element(d=2, k_max=1, n_terms=4, seed=3, max_mag=4)
        with pytest.raises(InvalidInputError):
            duality_transfer_check(phi, [phi], 512)
        other = random_ek_element(d=2, k_max=2, n_terms=4, seed=3, max_mag=4)
        with pytest.raises(InvalidInputError):
            duality_transfer_check(phi, [other, other], 512)
