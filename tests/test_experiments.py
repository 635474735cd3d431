"""Lemma certification, duality chain, norm estimation, decay experiments."""

import math

import numpy as np
import pytest

from haartorus import (
    ARC_NS,
    HaarCoeffs,
    InvalidInputError,
    ResourceLimitError,
    ShiftOperator,
    arc_average,
    arc_exp_integral,
    dimension_free_check,
    duality_chain_check,
    embed_variable,
    hilbert_multiplier_operator,
    identity_operator,
    lp_norm_estimate,
    make_ek_element,
    matrix_operator,
    modulation_decay_experiment,
    operator_matrix,
    riesz_apply,
    riesz_vector_operator,
    run_duality_experiment,
    square_wave,
    verify_lemma_hvs,
)
from haartorus.experiments import (
    _coord_expectation,
    _fsum_complex,
    _stack_amplitude,
    _transform_factor,
    _vec_p_norm,
    fitted_wave_constant,
    random_mean_zero_coeffs,
)


def sparse_coeffs(depth_limit, entries):
    z = np.zeros(1)
    data = {key: np.array([val]) for key, val in entries.items()}
    return HaarCoeffs(depth_limit, 1, z, z.copy(), data)


class TestLemmaCertification:
    def test_residual_frozen_values(self):
        assert verify_lemma_hvs(2, 1, 0, 1, N=255).residual == pytest.approx(
            0.0295, rel=2e-3)
        assert verify_lemma_hvs(2, 1, 0, 1, N=1023).residual == pytest.approx(
            0.01477, rel=2e-3)

    def test_residual_halves_per_quadrupled_cutoff(self):
        residuals = [verify_lemma_hvs(2, 1, 0, 1, N=N).residual
                     for N in (255, 1023, 4095)]
        for coarse, fine in zip(residuals, residuals[1:]):
            assert 0.45 <= fine / coarse <= 0.55

    def test_fitted_constant_frozen(self):
        assert fitted_wave_constant(1023) == pytest.approx(
            0.7424533589130059, abs=1e-12)

    def test_fitted_constant_approaches_golden(self, golden_c0):
        assert abs(fitted_wave_constant(4095) - golden_c0) <= 1e-7
        gaps = [abs(fitted_wave_constant(N) - golden_c0) for N in (255, 1023, 4095)]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_fitted_constant_independent_of_setup(self):
        runs = [
            verify_lemma_hvs(1, 1, 0, 1, N=1023),
            verify_lemma_hvs(2, 1, 0, 1, N=1023),
            verify_lemma_hvs(2, 2, 1, 1, N=1023),
            verify_lemma_hvs(3, 2, 1, -1, N=1023),
        ]
        values = [r.fitted_constant for r in runs]
        assert max(values) - min(values) <= 1e-9

    def test_negative_sign_uses_conjugate_waves(self):
        report = verify_lemma_hvs(2, 1, 0, -1, N=1023)
        assert report.details["image_kind"] == "sqcos"
        assert report.fitted_constant == pytest.approx(
            fitted_wave_constant(1023), abs=1e-9)

    def test_mismatched_direction_vanishes(self):
        for i in (1,):
            report = verify_lemma_hvs(2, 1, i, 1, N=511)
            assert report.both_sides_zero
            assert report.residual == 0.0
            assert report.fitted_constant == 0.0
            assert report.passed

    def test_one_based_indexing(self):
        report = verify_lemma_hvs(2, 2, 2, 1, N=255, index_base=1)
        assert report.parameters["matched"]
        assert not report.both_sides_zero

    def test_projection_variable_override(self):
        report = verify_lemma_hvs(2, 1, 0, 1, N=255, projection_var=2)
        assert report.parameters["projection_variable"] == 2
        assert math.isfinite(report.fitted_constant)

    def test_pass_flag_tracks_tolerance(self):
        tight = verify_lemma_hvs(2, 1, 0, 1, N=255, tolerance=1e-3)
        loose = verify_lemma_hvs(2, 1, 0, 1, N=255, tolerance=5e-2)
        assert not tight.passed
        assert loose.passed

    def test_invalid_arguments_rejected(self):
        for call in (
            lambda: verify_lemma_hvs(0, 1, 0, 1),
            lambda: verify_lemma_hvs(2, 3, 0, 1),
            lambda: verify_lemma_hvs(2, 1, 2, 1),
            lambda: verify_lemma_hvs(2, 1, 0, 1, index_base=2),
            lambda: verify_lemma_hvs(2, 1, 0, 1, N=0),
            lambda: verify_lemma_hvs(2, 1, 0, 1, projection_var=3),
            lambda: verify_lemma_hvs(2, 1, 0, 0),
        ):
            with pytest.raises(InvalidInputError):
                call()


class TestDualityChain:
    def test_seeded_run_passes_all_checks(self, golden_c0):
        report = run_duality_experiment(seed=1, c0=golden_c0)
        assert report.coded_matches
        assert report.projected_within_bound
        assert report.multiplier_within_bound
        assert report.inequality_holds
        assert report.transfer_within_bound
        assert abs(report.coded_pairing - report.dyadic_pairing) <= 1e-10
        assert report.reference_constant == golden_c0
        assert report.slack_ratio >= 1.0

    def test_lone_transform_factor_is_compensated_sum_of_contributions(self, golden_c0):
        # the contributions as the term-by-term loop forms them, one per term and arc
        d, j, N = 3, 2, 63
        for sigma, kind in ((1, "sqcos"), (-1, "sqsin")):
            q = riesz_apply(j, embed_variable(square_wave(kind, N), j - 1, d))
            for variant in ("projected", "plain"):
                contributions = []
                for freq, coeff in q.terms.items():
                    base = sigma / golden_c0 * complex(coeff[0])
                    for n in ARC_NS:
                        if variant == "projected":
                            contributions.append(base * arc_average(freq[j - 1], n))
                        else:
                            contributions.append(
                                base * arc_exp_integral(freq[j - 1], n) / (2.0 * math.pi))
                total = _fsum_complex(contributions)
                want = 0.25 * total if variant == "projected" else total
                factor = _transform_factor(j, d, N, golden_c0, sigma, variant)
                assert want == 0.0  # no zero mode, so the arc averages cancel
                assert _coord_expectation(None, factor) == want
                assert _coord_expectation(factor, None) == want

    def test_single_mode_pairing_is_coefficient_product(self, golden_c0):
        f = sparse_coeffs(1, {(1, 0): 2.0})
        zero = sparse_coeffs(1, {})
        g = sparse_coeffs(1, {(1, 1): 3.0})
        report = duality_chain_check(f, [zero, g], 2, c0=golden_c0)
        assert report.dyadic_pairing == 6.0
        assert report.coded_pairing == pytest.approx(6.0, abs=1e-11)
        assert report.coded_matches

    def test_disjoint_supports_pair_to_exact_zero(self, golden_c0):
        f = sparse_coeffs(3, {(3, 0): 1.0, (3, 1): -0.5, (2, 0): 2.0})
        g = sparse_coeffs(3, {(3, 6): 1.0, (3, 7): 2.0, (2, 3): -1.0})
        report = duality_chain_check(f, [g, g], 2, c0=golden_c0)
        assert report.dyadic_pairing == 0.0
        assert report.coded_pairing == 0.0
        assert report.projected_pairing == 0.0
        assert report.multiplier_pairing == 0.0

    def test_truncation_bound_shrinks_with_cutoff(self, golden_c0):
        coarse = run_duality_experiment(seed=2, N=256, c0=golden_c0)
        fine = run_duality_experiment(seed=2, N=1024, c0=golden_c0)
        assert coarse.dyadic_pairing == fine.dyadic_pairing
        if coarse.dyadic_pairing != 0.0:
            assert fine.truncation_bound < coarse.truncation_bound

    def test_deterministic_given_seed(self, golden_c0):
        a = run_duality_experiment(seed=3, c0=golden_c0)
        b = run_duality_experiment(seed=3, c0=golden_c0)
        assert a == b

    def test_requires_mean_free_input(self, golden_c0):
        bad = HaarCoeffs(2, 1, np.array([1.0]), np.zeros(1), {})
        with pytest.raises(InvalidInputError):
            duality_chain_check(bad, [bad, bad], 2, c0=golden_c0)

    def test_requires_reference_constant(self):
        f = sparse_coeffs(2, {(1, 0): 1.0})
        with pytest.raises(InvalidInputError):
            duality_chain_check(f, [f, f], 2)

    def test_partner_count_checked(self, golden_c0):
        f = sparse_coeffs(2, {(1, 0): 1.0})
        with pytest.raises(InvalidInputError):
            duality_chain_check(f, [f], 2, c0=golden_c0)

    def test_exponent_range_checked(self, golden_c0):
        f = sparse_coeffs(2, {(1, 0): 1.0})
        with pytest.raises(InvalidInputError):
            duality_chain_check(f, [f, f], 2, p=1.0, c0=golden_c0)


class TestModulationDecay:
    def test_default_spectrum_slope_frozen(self):
        result = modulation_decay_experiment()
        assert result.A_values == tuple(2**r for r in range(4, 13))
        assert result.slope == pytest.approx(-1.0089290760972671, abs=1e-9)
        assert not result.all_exact_zero

    def test_errors_strictly_decreasing(self):
        result = modulation_decay_experiment()
        for a, b in zip(result.aggregate_errors, result.aggregate_errors[1:]):
            assert 0.0 < b < a
            assert 0.35 <= b / a <= 0.65

    def test_axis_only_spectrum_is_exact(self):
        e = make_ek_element(2, 1, [
            (0, 0, 1, (3, 0), 1.0),
            (0, 0, -1, (-5, 0), 2.0),
        ])
        result = modulation_decay_experiment(element=e, A_list=[16, 64])
        assert result.all_exact_zero
        assert result.slope is None
        assert result.aggregate_errors == (0.0, 0.0)

    def test_custom_scale_list(self):
        result = modulation_decay_experiment(A_list=[32, 128])
        assert result.A_values == (32, 128)
        assert len(result.aggregate_errors) == 2

    def test_deterministic(self):
        assert modulation_decay_experiment() == modulation_decay_experiment()


class TestNormEstimation:
    def test_matches_singular_value_oracle(self, rng):
        M = rng.standard_normal((12, 12))
        op = matrix_operator([M], "dense12")
        est = lp_norm_estimate(op, 2.0)
        sigma = float(np.linalg.svd(M, compute_uv=False)[0])
        assert est.estimate <= sigma * (1.0 + 1e-12)
        assert est.estimate == pytest.approx(sigma, rel=1e-9)
        assert est.converged

    def test_identity_has_unit_norm(self):
        for p in (1.5, 2.0, 3.0):
            est = lp_norm_estimate(identity_operator(16), p)
            assert est.estimate == pytest.approx(1.0, abs=1e-12)

    def test_estimate_is_certified_by_test_vector(self, rng):
        M = rng.standard_normal((10, 10))
        op = matrix_operator([M], "dense10")
        est = lp_norm_estimate(op, 3.0, max_iter=60)
        v = est.test_vector / _vec_p_norm(est.test_vector, 3.0)
        assert _vec_p_norm(_stack_amplitude(op.apply(v)), 3.0) == pytest.approx(
            est.estimate, abs=1e-12)

    def test_shift_vector_unit_norm_on_restricted_span(self):
        est = lp_norm_estimate(riesz_vector_operator(2, 6), 2.0)
        assert est.estimate == pytest.approx(1.0, abs=1e-8)

    def test_shift_vector_permutations_equal_dense_products(self, rng):
        for d in range(1, 5):
            for depth in range(1, 7):
                for restricted in (True, False):
                    op = riesz_vector_operator(d, depth, restricted=restricted)
                    mats = [operator_matrix(ShiftOperator("sj", j=j, d=d), depth)
                            .astype(float) for j in range(1, d + 1)]
                    if restricted:
                        mats = [m[2:, 2:] for m in mats]
                    dense = matrix_operator(mats, "dense")
                    v = rng.standard_normal(op.dim)
                    y = rng.standard_normal((d, op.dim))
                    assert (op.dim, op.components) == (dense.dim, dense.components)
                    assert np.array_equal(op.apply(v), dense.apply(v))
                    assert np.array_equal(op.apply_adjoint(y), dense.apply_adjoint(y))

    def test_unrestricted_operator_kills_root_modes(self):
        est = lp_norm_estimate(riesz_vector_operator(1, 5, restricted=False), 2.0)
        assert est.estimate <= 1.0 + 1e-9

    def test_band_multiplier_unit_norm_at_two(self):
        est = lp_norm_estimate(hilbert_multiplier_operator(32), 2.0)
        assert est.estimate == pytest.approx(1.0, abs=1e-6)

    def test_band_multiplier_sweep_monotone(self):
        values = [lp_norm_estimate(hilbert_multiplier_operator(N), 4.0, max_iter=600).estimate
                  for N in (64, 128, 256)]
        assert values[0] < values[1] < values[2]
        assert all(1.5 < v < 1.0 + math.sqrt(2.0) for v in values)

    def test_dimension_free_estimates(self):
        rows = dimension_free_check([1, 2, 3], depth=6)
        for row, d in zip(rows, (1, 2, 3)):
            assert row.d == d
            assert row.estimate == pytest.approx(1.0, abs=1e-10)

    def test_invalid_arguments_rejected(self):
        op = identity_operator(8)
        with pytest.raises(InvalidInputError):
            lp_norm_estimate(op, 1.0)
        with pytest.raises(InvalidInputError):
            lp_norm_estimate(op, 2.0, v0=np.zeros(8))
        with pytest.raises(InvalidInputError):
            lp_norm_estimate(op, 2.0, v0=np.ones(4))
        with pytest.raises(InvalidInputError):
            hilbert_multiplier_operator(0)
        with pytest.raises(ResourceLimitError):
            riesz_vector_operator(2, 13)
        with pytest.raises(InvalidInputError):
            riesz_vector_operator(0, 4)
        with pytest.raises(InvalidInputError):
            matrix_operator([np.zeros((2, 2)), np.zeros((3, 3))], "ragged")

    def test_random_mean_zero_coeffs_have_no_root_modes(self):
        f = random_mean_zero_coeffs(4, seed=9)
        assert not np.any(f.mean_part)
        assert not np.any(f.root_part)
        assert len(f.entries) == sum(1 << t for t in range(1, 5))
