"""Sign-toss coding, martingale blocks, constrained spectra, modulation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haartorus import (
    DyadicNode,
    InvalidInputError,
    blocks_to_haar,
    check_ek_membership,
    coded_shift_blocks,
    duality_transfer_check,
    ek_to_trig_poly,
    encode_path,
    evaluate_blocks_at_path,
    haar_analyze,
    haar_synthesize,
    index_of_prefix,
    make_ek_element,
    martingale_decompose,
    modulate,
    modulated_riesz_multiplier,
    modulation_difference,
    path_outcomes,
    prefix_of_index,
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

    @given(depth=st.integers(min_value=1, max_value=16), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_prefix_index_bijection(self, depth, data):
        index = data.draw(st.integers(min_value=0, max_value=(1 << depth) - 1))
        prefix = prefix_of_index(depth, index)
        assert len(prefix) == depth
        assert set(prefix) <= {-1, 1}
        assert index_of_prefix(prefix) == index

    @given(depth=st.integers(min_value=0, max_value=70), index=st.integers(-(1 << 80), 1 << 80))
    @settings(max_examples=60, deadline=None)
    def test_prefix_reads_the_low_depth_bits(self, depth, index):
        want = tuple(1 if ((index >> (depth - 1 - s)) & 1) == 0 else -1 for s in range(depth))
        assert prefix_of_index(depth, index) == want


class TestMartingaleBlocks:
    def small_coeffs(self):
        samples = np.array([4.0, 2.0, -1.0, 3.0, 0.5, 0.5, 2.0, -2.0])
        return haar_analyze(samples)

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


class TestModulation:
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
            assert modulation_difference(j, e, 64).aggregate == 0.0

    def test_difference_linear_in_coefficients(self):
        specs = [(0, 1, 1, (2, 3), 1.0 + 0.5j), (0, 0, -1, (-4, 0), 0.75)]
        doubled = [(k, m, s, f, 2.0 * c) for (k, m, s, f, c) in specs]
        base = modulation_difference(1, make_ek_element(2, 1, specs), 128)
        twice = modulation_difference(1, make_ek_element(2, 1, doubled), 128)
        assert twice.aggregate == 2.0 * base.aggregate

    def test_difference_decays_like_one_over_scale(self):
        e = random_ek_element(seed=3)
        errs = [modulation_difference(1, e, A).aggregate for A in (64, 128, 256)]
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
