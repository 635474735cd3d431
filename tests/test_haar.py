import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haartorus import (
    DyadicNode,
    HaarCoeffs,
    InvalidInputError,
    basis_position,
    coeff_inner,
    cube_haar_eval,
    haar_analyze,
    haar_synthesize,
)


def haar_basis_function(depth_limit, mode):
    """Grid samples of one basis element; mode is 'mean' or a (depth, index) pair."""
    n = 1 << (depth_limit + 1)
    if mode == "mean":
        return np.ones(n)
    t, i = mode
    root, entries = (np.ones(1), {}) if t == 0 else (np.zeros(1), {(t, i): np.ones(1)})
    return haar_synthesize(HaarCoeffs(depth_limit, 1, np.zeros(1), root, entries))[:, 0]


def dense_basis(depth_limit):
    """Rows are basis functions sampled on the full grid; the test oracle."""
    n = 2 ** (depth_limit + 1)
    rows = [haar_basis_function(depth_limit, "mean")]
    for t in range(depth_limit + 1):
        for i in range(2**t):
            rows.append(haar_basis_function(depth_limit, (t, i)))
    return np.array(rows), n


class TestDyadicNode:
    def test_index_range_validated(self):
        with pytest.raises(InvalidInputError):
            DyadicNode(2, 4)
        with pytest.raises(InvalidInputError):
            DyadicNode(1, -1)


class TestBasisPosition:
    def test_enumeration_is_bijective(self):
        depth = 5
        positions = [0]
        for t in range(depth + 1):
            positions.extend(basis_position(t, i) for i in range(2**t))
        assert sorted(positions) == list(range(2 ** (depth + 1)))

    def test_known_positions(self):
        assert basis_position(0, 0) == 1
        assert basis_position(1, 0) == 2
        assert basis_position(3, 5) == 13


class TestAnalyzeSynthesize:
    def test_roundtrip_simple(self):
        samples = np.array([1.0, 2.0, 3.0, 4.0])
        coeffs = haar_analyze(samples)
        back = haar_synthesize(coeffs)[:, 0]
        np.testing.assert_allclose(back, samples, atol=1e-14)

    def test_constant_function_only_mean(self):
        coeffs = haar_analyze(np.full(16, 3.25))
        assert coeffs.mean_part[0] == 3.25
        assert not np.any(coeffs.root_part)
        assert coeffs.entries == {}

    def test_single_mode_coefficients(self):
        # step down at the midpoint: only the depth-0 mode survives
        samples = np.array([1.0, 1.0, -1.0, -1.0])
        coeffs = haar_analyze(samples)
        assert coeffs.mean_part[0] == 0.0
        assert coeffs.root_part[0] == pytest.approx(1.0, abs=1e-15)
        assert coeffs.entries == {}

    def test_analyze_against_dense_basis(self, rng):
        depth = 4
        basis, n = dense_basis(depth)
        samples = rng.standard_normal(n)
        coeffs = haar_analyze(samples)
        oracle = basis @ samples / n
        got = [coeffs.mean_part[0], coeffs.root_part[0]]
        pos = 2
        for t in range(1, depth + 1):
            for i in range(2**t):
                entry = coeffs.entries.get((t, i))
                got.append(0.0 if entry is None else entry[0])
                pos += 1
        np.testing.assert_allclose(got, oracle, atol=1e-12)

    def test_gram_identity(self):
        basis, n = dense_basis(8)
        gram = basis @ basis.T / n
        np.testing.assert_allclose(gram, np.eye(len(basis)), atol=1e-12)

    @given(
        st.integers(1, 6),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_random(self, depth, seed):
        n = 2 ** (depth + 1)
        samples = np.random.default_rng(seed).standard_normal(n)
        back = haar_synthesize(haar_analyze(samples))[:, 0]
        np.testing.assert_allclose(back, samples, atol=1e-12)

    @given(st.integers(1, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_parseval(self, depth, seed):
        n = 2 ** (depth + 1)
        samples = np.random.default_rng(seed).standard_normal(n)
        coeffs = haar_analyze(samples)
        assert coeffs.coefficient_norm_sq() == pytest.approx(
            float(np.mean(samples**2)), rel=1e-12
        )

    def test_vector_valued_roundtrip(self, rng):
        samples = rng.standard_normal((16, 3))
        coeffs = haar_analyze(samples)
        assert coeffs.value_dim == 3
        np.testing.assert_allclose(haar_synthesize(coeffs), samples, atol=1e-12)

    def test_depth_limit_must_match_sample_count(self, rng):
        samples = rng.standard_normal(32)
        coeffs = haar_analyze(samples, depth_limit=4)
        assert coeffs.depth_limit == 4
        with pytest.raises(InvalidInputError):
            haar_analyze(samples, depth_limit=2)
        with pytest.raises(InvalidInputError):
            haar_analyze(samples, depth_limit=5)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(InvalidInputError):
            haar_analyze(np.zeros(6))

    def test_coefficient_inner_matches_grid(self, rng):
        a = rng.standard_normal(32)
        b = rng.standard_normal(32)
        ca, cb = haar_analyze(a), haar_analyze(b)
        assert coeff_inner(ca, cb) == pytest.approx(float(np.mean(a * b)), rel=1e-12)


class TestCubeGeometry:
    def test_cube_eval_unit_interval_matches_grid(self, rng):
        depth_limit = 4
        for t in range(1, depth_limit):
            i = int(rng.integers(0, 2**t))
            grid = haar_basis_function(depth_limit, (t, i))
            n = len(grid)
            for _ in range(8):
                x = float(rng.uniform())
                cell = int(x * n)
                val = cube_haar_eval(DyadicNode(t, i), (x,))
                assert val == pytest.approx(grid[cell], abs=1e-12)

    def test_cube_eval_outside_support_is_zero(self):
        assert cube_haar_eval(DyadicNode(2, 0), (0.9, 0.1)) == 0.0

    def test_cube_eval_magnitude(self):
        node = DyadicNode(3, 0)
        val = cube_haar_eval(node, (0.01, 0.01))
        assert abs(val) == pytest.approx(2 ** (3 / 2), rel=1e-12)


class TestHaarCoeffsContainer:
    def test_entry_depth_validation(self):
        with pytest.raises(InvalidInputError):
            HaarCoeffs(2, 1, np.zeros(1), np.zeros(1), {(3, 0): np.ones(1)})

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((1, 2, 3)), st.integers(0, 3), st.data())
    def test_malformed_rows_rejected(self, value_dim, extra, data):
        shape = data.draw(st.sampled_from([(), (value_dim + 1 + extra,), (1, value_dim),
                                           (value_dim, 1)]))
        z = np.zeros(value_dim)
        with pytest.raises(InvalidInputError):
            HaarCoeffs(2, value_dim, z, z, {(1, 0): z, (2, 3): np.ones(shape)})
        with pytest.raises(InvalidInputError):
            HaarCoeffs(2, value_dim, z, z, (np.array([2, 3]), np.ones((2,) + shape)))

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((1, 2, 3)), st.sampled_from((np.nan, np.inf, -np.inf)),
           st.sampled_from(("mean", "root", (1, 1), (3, 5))), st.booleans(), st.data())
    def test_non_finite_values_rejected_by_name(self, value_dim, bad, where, imag, data):
        parts = {"mean": np.zeros(value_dim), "root": np.ones(value_dim),
                 (1, 1): np.ones(value_dim), (3, 5): np.full(value_dim, -2.0)}
        if imag:
            parts = {k: v + 0j for k, v in parts.items()}
        parts[where] = parts[where].copy()
        parts[where][data.draw(st.integers(0, value_dim - 1))] = complex(0, bad) if imag else bad
        entries = {k: v for k, v in parts.items() if isinstance(k, tuple)}
        with pytest.raises(InvalidInputError, match="not finite") as info:
            HaarCoeffs(3, value_dim, parts["mean"], parts["root"], entries)
        assert str(where) in str(info.value)

    def test_depth_limit_beyond_int64_positions_rejected(self):
        HaarCoeffs(62, 1, np.zeros(1), np.zeros(1), {(62, (1 << 62) - 1): np.ones(1)})
        with pytest.raises(InvalidInputError):
            HaarCoeffs(63, 1, np.zeros(1), np.zeros(1), {})

    def test_repeated_position_rejected(self):
        with pytest.raises(InvalidInputError, match="repeated"):
            HaarCoeffs(2, 1, np.zeros(1), np.zeros(1), (np.array([5, 5]), np.ones((2, 1))))

    def test_row_layout(self):
        coeffs = HaarCoeffs(3, 1, np.zeros(1), np.zeros(1),
                            {(3, 2): np.array([1.0]), (1, 1): np.array([0.0])})
        assert coeffs.positions.tolist() == [3, 10]
        assert coeffs.values.tolist() == [[0.0], [1.0]]
        assert list(coeffs.entries) == [(1, 1), (3, 2)]
        assert coeffs.entries is coeffs.entries

    def test_zeros_like_keeps_shape(self):
        coeffs = haar_analyze(np.arange(8.0))
        empty = coeffs.zeros_like()
        assert empty.entries == {}
        assert not np.any(empty.mean_part) and not np.any(empty.root_part)
