"""Shift operators: sibling rule, slicing, and exact matrix algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haartorus import (
    HaarCoeffs,
    InvalidInputError,
    ResourceLimitError,
    ShiftOperator,
    apply_s0,
    apply_sj,
    basis_position,
    coeff_inner,
    haar_analyze,
    operator_matrix,
)


def single_entry(depth_limit, t, i, c=1.0):
    z = np.zeros(1)
    return HaarCoeffs(depth_limit, 1, z, z.copy(), {(t, i): np.array([c])})


def dense_vector(coeffs):
    n = 1 << (coeffs.depth_limit + 1)
    vec = np.zeros(n)
    vec[0] = coeffs.mean_part[0]
    vec[1] = coeffs.root_part[0]
    for (t, i), c in coeffs.entries.items():
        vec[basis_position(t, i)] = c[0]
    return vec


def random_coeffs(rng, depth_limit):
    samples = rng.standard_normal(1 << (depth_limit + 1))
    return haar_analyze(samples)


class TestSiblingRule:
    def test_left_child_moves_right(self):
        out = apply_s0(single_entry(4, 3, 2, 2.5))
        assert set(out.entries) == {(3, 3)}
        assert out.entries[(3, 3)][0] == 2.5

    def test_right_child_moves_left_negated(self):
        out = apply_s0(single_entry(4, 3, 5, 2.5))
        assert set(out.entries) == {(3, 4)}
        assert out.entries[(3, 4)][0] == -2.5

    def test_root_modes_killed(self):
        coeffs = HaarCoeffs(3, 1, np.array([1.0]), np.array([2.0]),
                            {(1, 0): np.array([3.0])})
        out = apply_s0(coeffs)
        assert out.mean_part[0] == 0.0
        assert out.root_part[0] == 0.0
        assert set(out.entries) == {(1, 1)}

    def test_double_application_negates(self):
        f = single_entry(4, 2, 1, 1.0)
        twice = apply_s0(apply_s0(f))
        assert twice.entries[(2, 1)][0] == -1.0

    def test_sliced_drops_other_depths(self):
        # d = 2, j = 1 acts on even depths >= 2... i.e. depth % 2 == 0
        f = single_entry(4, 3, 0, 1.0)
        assert apply_sj(1, 2, f).entries == {}
        moved = apply_sj(2, 2, f)
        assert set(moved.entries) == {(3, 1)}

    def test_sliced_sum_equals_full_shift(self, rng):
        f = random_coeffs(rng, 6)
        d = 3
        total = {}
        for comp in [apply_sj(j, d, f) for j in range(1, d + 1)]:
            for key, c in comp.entries.items():
                total[key] = total.get(key, 0.0) + c[0]
        full = apply_s0(f)
        assert set(total) == set(full.entries)
        for key in total:
            assert total[key] == full.entries[key][0]

    def test_invalid_j_rejected(self):
        with pytest.raises(InvalidInputError):
            ShiftOperator("sj", j=0, d=2)
        with pytest.raises(InvalidInputError):
            ShiftOperator("sj", j=3, d=2)
        with pytest.raises(InvalidInputError):
            ShiftOperator("bogus")


class TestSlicePartition:
    @given(depth=st.integers(min_value=1, max_value=40),
           d=st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_each_depth_in_exactly_one_slice(self, depth, d):
        hits = [j for j in range(1, d + 1)
                if ShiftOperator("sj", j=j, d=d).acts_on_depth(depth)]
        assert hits == [depth % d + 1]

    def test_root_depths_in_no_slice(self):
        for d in (1, 2, 3):
            for j in range(1, d + 1):
                op = ShiftOperator("sj", j=j, d=d)
                assert not op.acts_on_depth(0)
                assert not op.acts_on_depth(-1)


class TestMatrices:
    def test_s0_depth_one_block(self):
        mat = operator_matrix(ShiftOperator("s0"), 1)
        expected = np.zeros((4, 4), dtype=np.int64)
        expected[2:, 2:] = [[0, -1], [1, 0]]
        assert mat.dtype == np.int64
        assert np.array_equal(mat, expected)

    def test_antisymmetry_exact(self):
        for d in (1, 2, 3, 4):
            for j in range(1, d + 1):
                mat = operator_matrix(ShiftOperator("sj", j=j, d=d), 6)
                assert np.array_equal(mat.T, -mat)
        mat = operator_matrix(ShiftOperator("s0"), 6)
        assert np.array_equal(mat.T, -mat)

    def test_entries_are_signs(self):
        mat = operator_matrix(ShiftOperator("s0"), 5)
        assert set(np.unique(mat)) <= {-1, 0, 1}

    def test_components_sum_to_full_shift(self):
        for d in (2, 3, 4):
            total = sum(operator_matrix(ShiftOperator("sj", j=j, d=d), 6)
                        for j in range(1, d + 1))
            assert np.array_equal(total, operator_matrix(ShiftOperator("s0"), 6))

    def test_square_is_negative_slice_projection(self):
        depth = 6
        n = 1 << (depth + 1)
        for d in (2, 3):
            for j in range(1, d + 1):
                op = ShiftOperator("sj", j=j, d=d)
                mat = operator_matrix(op, depth).astype(np.float64)
                proj = np.zeros((n, n))
                for t in range(1, depth + 1):
                    if op.acts_on_depth(t):
                        for i in range(1 << t):
                            p = basis_position(t, i)
                            proj[p, p] = 1.0
                assert np.array_equal(mat @ mat, -proj)

    def test_cross_components_orthogonal(self):
        d = 3
        mats = [operator_matrix(ShiftOperator("sj", j=j, d=d), 6).astype(np.float64)
                for j in range(1, d + 1)]
        for a in range(d):
            for b in range(d):
                if a != b:
                    assert not np.any(mats[a].T @ mats[b])

    def test_apply_matches_matrix(self, rng):
        depth = 5
        f = random_coeffs(rng, depth)
        vec = dense_vector(f)
        for d in (1, 2, 3):
            for j in range(1, d + 1):
                op = ShiftOperator("sj", j=j, d=d)
                mat = operator_matrix(op, depth)
                assert np.array_equal(mat @ vec, dense_vector(apply_sj(j, d, f)))

    def test_depth_cap_enforced(self):
        with pytest.raises(ResourceLimitError):
            operator_matrix(ShiftOperator("s0"), 13)


class TestEnergyIdentities:
    def test_components_partition_energy(self, rng):
        # sum_j ||S_j f||^2 recovers the energy off the two root modes
        f = random_coeffs(rng, 6)
        d = 3
        total = sum(apply_sj(j, d, f).coefficient_norm_sq() for j in range(1, d + 1))
        off_root = (f.coefficient_norm_sq()
                    - float(f.mean_part[0] ** 2) - float(f.root_part[0] ** 2))
        assert abs(total - off_root) <= 1e-12 * max(1.0, off_root)

    def test_shift_preserves_energy_off_roots(self, rng):
        f = random_coeffs(rng, 6)
        shifted = apply_s0(f)
        off_root = (f.coefficient_norm_sq()
                    - float(f.mean_part[0] ** 2) - float(f.root_part[0] ** 2))
        assert abs(shifted.coefficient_norm_sq() - off_root) <= 1e-12

    def test_component_images_mutually_orthogonal(self, rng):
        f = random_coeffs(rng, 6)
        comps = [apply_sj(j, 3, f) for j in range(1, 4)]
        for a in range(3):
            for b in range(a + 1, 3):
                assert coeff_inner(comps[a], comps[b]) == 0.0

    def test_d_one_reduces_to_full_shift(self, rng):
        f = random_coeffs(rng, 5)
        only = apply_sj(1, 1, f)
        full = apply_s0(f)
        assert set(only.entries) == set(full.entries)
        for key, c in only.entries.items():
            assert c[0] == full.entries[key][0]
