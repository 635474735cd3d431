"""Acceptance gate: every shipped guarantee, one check each, with runtime caps.

Each test pins the tolerance it promises and fails loudly if the property or
the runtime budget is violated. No test here relaxes a bound to pass.
"""

import math
import time

import numpy as np
import pytest

from haartorus import (
    HaarCoeffs,
    ShiftOperator,
    TrigPoly,
    evaluate_blocks_at_path,
    haar_analyze,
    haar_synthesize,
    martingale_decompose,
    operator_matrix,
    random_paths,
    riesz_apply,
)
from haartorus.experiments import (
    dimension_free_check,
    duality_chain_check,
    hilbert_multiplier_operator,
    lp_norm_estimate,
    modulation_decay_experiment,
    run_duality_experiment,
    verify_lemma_hvs,
)


def sparse_coeffs(depth_limit, entries):
    z = np.zeros(1)
    data = {key: np.array([val]) for key, val in entries.items()}
    return HaarCoeffs(depth_limit, 1, z, z.copy(), data)


def poly_terms(p):
    return {f: complex(c[0]) for f, c in p.terms.items()}


def test_01_haar_roundtrip_and_gram_identity(rng):
    t0 = time.perf_counter()
    samples = rng.standard_normal(1 << 11)
    back = haar_synthesize(haar_analyze(samples))
    assert np.max(np.abs(back[:, 0] - samples)) <= 1e-12

    n = 1 << 9
    eye = np.eye(n)
    basis_coeffs = HaarCoeffs(
        8, n, eye[0], eye[1],
        {(t, i): eye[(1 << t) + i] for t in range(1, 9) for i in range(1 << t)},
    )
    basis = haar_synthesize(basis_coeffs)
    gram = basis.T @ basis / n
    assert np.max(np.abs(gram - eye)) <= 1e-12
    assert time.perf_counter() - t0 < 1.0


def test_02_shift_algebra_is_exact():
    t0 = time.perf_counter()
    depth = 8
    n = 1 << (depth + 1)
    expected_sum = -np.eye(n)
    expected_sum[0, 0] = expected_sum[1, 1] = 0.0
    for d in range(1, 5):
        mats = [
            operator_matrix(ShiftOperator("sj", j=j, d=d), depth)
            for j in range(1, d + 1)
        ]
        for m in mats:
            assert np.array_equal(m.T, -m)
        # products of {-1,0,1} matrices stay integer-exact in float64
        floats = [m.astype(float) for m in mats]
        square_sum = np.zeros((n, n))
        for a in range(d):
            for b in range(d):
                prod = floats[a] @ floats[b]
                if a == b:
                    square_sum += prod
                else:
                    assert not prod.any()
        assert np.array_equal(square_sum, expected_sum)
    assert time.perf_counter() - t0 < 5.0


def test_03_vector_norm_is_dimension_free():
    t0 = time.perf_counter()
    for row in dimension_free_check(list(range(1, 7)), depth=6):
        assert row.converged
        assert abs(row.estimate - 1.0) <= 1e-10
    assert time.perf_counter() - t0 < 30.0


def test_04_multiplier_rotation_table():
    t0 = time.perf_counter()
    sin1 = TrigPoly(2, 1, {(1, 0): -0.5j, (-1, 0): 0.5j})
    cos1 = TrigPoly(2, 1, {(1, 0): 0.5 + 0.0j, (-1, 0): 0.5 + 0.0j})
    assert poly_terms(riesz_apply(1, sin1)) == {(1, 0): -0.5, (-1, 0): -0.5}
    assert poly_terms(riesz_apply(1, cos1)) == {(1, 0): -0.5j, (-1, 0): 0.5j}
    assert poly_terms(riesz_apply(2, cos1)) == {}
    assert poly_terms(riesz_apply(2, sin1)) == {}
    assert time.perf_counter() - t0 < 0.1


def test_05_projected_multiplier_matches_scaled_shift(golden_c0):
    t0 = time.perf_counter()
    for d in range(1, 5):
        for j in range(1, d + 1):
            report = verify_lemma_hvs(d, j, j - 1, 1, N=1 << 14)
            assert not report.both_sides_zero
            assert report.residual <= 5e-3
            assert abs(report.fitted_constant - golden_c0) <= 1e-6
            assert report.passed
    for d in range(1, 5):
        for j in range(1, d + 1):
            for i in range(d):
                if i == j - 1:
                    continue
                report = verify_lemma_hvs(d, j, i, 1)
                assert report.both_sides_zero
                assert report.residual == 0.0
    assert time.perf_counter() - t0 < 60.0


def test_06_modulation_error_scales_like_inverse_a():
    t0 = time.perf_counter()
    result = modulation_decay_experiment()
    assert result.A_values == tuple(2 ** r for r in range(4, 13))
    assert -1.3 <= result.slope <= -0.8
    assert time.perf_counter() - t0 < 10.0


def test_07_duality_chain_within_truncation_bound(golden_c0):
    t0 = time.perf_counter()
    for seed in range(1, 21):
        report = run_duality_experiment(seed, c0=golden_c0)
        assert report.coded_matches
        assert report.projected_within_bound
        assert report.multiplier_within_bound
    f = sparse_coeffs(3, {(3, 0): 1.0, (3, 1): -0.5, (2, 0): 2.0})
    g = sparse_coeffs(3, {(3, 6): 1.0, (3, 7): 2.0, (2, 3): -1.0})
    off_diag = duality_chain_check(f, [g, g], 2, c0=golden_c0)
    assert off_diag.dyadic_pairing == 0.0
    assert off_diag.coded_pairing == 0.0
    assert off_diag.projected_pairing == 0.0
    assert off_diag.multiplier_pairing == 0.0
    assert time.perf_counter() - t0 < 60.0


def test_08_hilbert_lower_bound_reaches_conjugate_norm():
    t0 = time.perf_counter()
    estimates = [
        lp_norm_estimate(hilbert_multiplier_operator(cutoff), 4.0, seed=1).estimate
        for cutoff in (128, 256, 512)
    ]
    assert estimates == sorted(estimates)
    target = 0.9 * (1.0 + math.sqrt(2.0))
    assert estimates[-1] >= target, (
        f"lower bound {estimates[-1]:.6f} has not reached {target:.6f} by "
        f"cutoff 512; observed growth per doubling is "
        f"{estimates[-1] - estimates[-2]:.4f}, consistent with a slow "
        f"logarithmic approach to the limit"
    )
    assert time.perf_counter() - t0 < 120.0


def test_09_pathwise_reconstruction_is_exact(rng):
    t0 = time.perf_counter()
    depth_limit = 5
    for d, clusters in ((1, 6), (2, 3), (3, 2)):
        coeffs = haar_analyze(rng.standard_normal(1 << (depth_limit + 1)))
        grid = haar_synthesize(coeffs)
        blocks = martingale_decompose(coeffs, d, clusters - 1)
        for path in random_paths(d, clusters, 1000, seed=99 + d):
            leaf = path.node(depth_limit + 1)
            got = evaluate_blocks_at_path(blocks, path)[0]
            assert abs(got - grid[leaf.index, 0]) <= 1e-12
    assert time.perf_counter() - t0 < 10.0
