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


# float.hex of these DualityReport fields, recorded with the engine that
# walked once per variant; the pairing engine must reproduce them bit for bit
PINNED_FIELDS = ("dyadic_pairing", "coded_pairing", "projected_pairing",
                 "multiplier_pairing", "truncation_bound", "slack_ratio")
PINNED_REPORTS = [
    (1, 2, 4, (
        '-0x1.8f3e5d800437cp+3', '-0x1.8f3e5d800437bp+3',
        '-0x1.8f3e4fe10d3b8p+3', '-0x1.8f3e4fe10d3b8p+3',
        '0x1.b3df1acc7228ep-18', '0x1.74d53507ffb7dp+1',
    )),
    (1, 2, 6, (
        '-0x1.70b4ccaa49f27p+4', '-0x1.70b4ccaa49f28p+4',
        '-0x1.70b4c0160903ap+4', '-0x1.70b4c0160903ap+4',
        '0x1.928852b77a70cp-17', '0x1.cb68e039cc6f8p+2',
    )),
    (1, 3, 4, (
        '0x1.624001414d9f0p+1', '0x1.624001414d9ecp+1',
        '0x1.623ff52b4f290p+1', '0x1.623ff52b4f290p+1',
        '0x1.82c01108cee8ap-20', '0x1.0190b6e616fe9p+4',
    )),
    (1, 3, 6, (
        '0x1.f898dc54e13c0p-1', '0x1.f898dc54e13a8p-1',
        '0x1.f898cb1dc3e60p-1', '0x1.f898cb1dc3e60p-1',
        '0x1.13721b421e577p-21', '0x1.8fd3e85d76a6fp+7',
    )),
    (2, 2, 4, (
        '-0x1.459939e80179fp+2', '-0x1.459939e80179fp+2',
        '-0x1.45992ecc4070dp+2', '-0x1.45992ecc4070dp+2',
        '0x1.637856aee3490p-19', '0x1.cf17435b5c9f8p+2',
    )),
    (2, 2, 6, (
        '-0x1.828c4aafd5a30p+2', '-0x1.828c4aafd5a30p+2',
        '-0x1.828c3d7fc08f0p+2', '-0x1.828c3d7fc08f0p+2',
        '0x1.a602e0738acf8p-19', '0x1.b44994d71a71dp+4',
    )),
    (2, 3, 4, (
        '-0x1.5786aa47e822cp+2', '-0x1.5786aa47e822bp+2',
        '-0x1.57869e8f93460p+2', '-0x1.57869e8f93460p+2',
        '0x1.770ad39e50bcbp-19', '0x1.18d1d0a301d93p+3',
    )),
    (2, 3, 6, (
        '-0x1.9893e3faa3e61p+3', '-0x1.9893e3faa3e62p+3',
        '-0x1.9893d60a26f90p+3', '-0x1.9893d60a26f90p+3',
        '0x1.be0fda302d499p-18', '0x1.f8ae926148fa5p+3',
    )),
    (3, 2, 4, (
        '0x1.bab32639e4200p+0', '0x1.bab32639e4201p+0',
        '0x1.bab3171f6214fp+0', '0x1.bab3171f6214fp+0',
        '0x1.e350a1683c5cbp-21', '0x1.9ca442c6c622ep+4',
    )),
    (3, 2, 6, (
        '0x1.f7cf7158ab06ep+1', '0x1.f7cf7158ab06ep+1',
        '0x1.f7cf60286cdbfp+1', '0x1.f7cf60286cdbfp+1',
        '0x1.13040e1ae05a3p-19', '0x1.898975a0e1c83p+5',
    )),
    (3, 3, 4, (
        '-0x1.df6f73c7f16e3p+1', '-0x1.df6f73c7f16e2p+1',
        '-0x1.df6f636c96e33p+1', '-0x1.df6f636c96e33p+1',
        '0x1.05b5d26fa50fcp-19', '0x1.e215e0815ddb1p+3',
    )),
    (3, 3, 6, (
        '-0x1.3cd2aff4affaep+2', '-0x1.3cd2aff4affacp+2',
        '-0x1.3cd2a525940d5p+2', '-0x1.3cd2a525940d5p+2',
        '0x1.59e3b2085f651p-19', '0x1.7f18a01b56306p+5',
    )),
    (11, 2, 4, (
        '-0x1.d0742243f0a52p+2', '-0x1.d0742243f0a53p+2',
        '-0x1.d074126b6f7ecp+2', '-0x1.d074126b6f7ecp+2',
        '0x1.fb106d7052d18p-19', '0x1.61b129b79b181p+2',
    )),
    (11, 2, 6, (
        '-0x1.51c36d6155302p+4', '-0x1.51c36d6155302p+4',
        '-0x1.51c361db54f24p+4', '-0x1.51c361db54f24p+4',
        '0x1.70c0385cec43dp-17', '0x1.0cb2c51a00fbcp+3',
    )),
    (11, 3, 4, (
        '0x1.12be48d62a282p+2', '0x1.12be48d62a282p+2',
        '0x1.12be3f76939d4p+2', '0x1.12be3f76939d4p+2',
        '0x1.2bf2ffeba90f1p-19', '0x1.748b3beaa81bap+3',
    )),
    (11, 3, 6, (
        '0x1.2d9d4def36dc0p-2', '0x1.2d9d4def36dc0p-2',
        '0x1.2d9d43a4ef7a0p-2', '0x1.2d9d43a4ef7a0p-2',
        '0x1.4949a31db8d84p-23', '0x1.6c73d0e7c8010p+9',
    )),
]


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

    @pytest.mark.parametrize("seed, d, depth, hexes", PINNED_REPORTS)
    def test_pairings_pinned_bit_for_bit(self, seed, d, depth, hexes, golden_c0):
        report = run_duality_experiment(seed, d=d, depth=depth, c0=golden_c0)
        got = tuple(float.hex(getattr(report, name)) for name in PINNED_FIELDS)
        assert got == hexes

    def test_transform_factor_cache_equals_rebuild(self, golden_c0):
        keys = [(j, d, N, golden_c0, sigma, variant)
                for N in (63, 1024) for d in (1, 2, 3) for j in range(1, d + 1)
                for sigma in (1, -1) for variant in ("projected", "plain")]
        for key in keys:
            kind, vec, total = _transform_factor(*key)
            want_kind, want_vec, want_total = _transform_factor.__wrapped__(*key)
            assert kind == want_kind
            assert vec.shape == want_vec.shape and (vec == want_vec).all()
            assert total == want_total
            assert not vec.flags.writeable
            with pytest.raises(ValueError):
                vec[0] = 0.0
            assert _transform_factor(*key)[1] is vec

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
