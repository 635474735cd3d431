"""Trig polynomials, multiplier operators, square waves, arc projection."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haartorus import (
    ARC_NS,
    InvalidInputError,
    ResourceLimitError,
    TrigPoly,
    arc_average,
    arc_exp_integral,
    arc_of_angle,
    bundle_inner,
    bundle_poly_inner,
    directional_hilbert,
    embed_variable,
    inner_product,
    quarter_arc_project,
    riesz_apply,
    square_wave,
    square_wave_arc_values,
    square_wave_exact,
)
from haartorus.torus import MAX_FREQUENCY, MAX_WAVE_CUTOFF

GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(48)


def gauss_integral(fn, a, b):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    values = np.array([fn(mid + half * x) for x in GAUSS_NODES])
    return half * np.sum(GAUSS_WEIGHTS * values)


def random_poly(rng, d, max_freq=4, n_terms=8, real=False):
    terms = {}
    for _ in range(n_terms):
        freq = tuple(int(x) for x in rng.integers(-max_freq, max_freq + 1, d))
        c = complex(rng.standard_normal(), rng.standard_normal())
        terms[freq] = terms.get(freq, 0.0) + c
        if real:
            neg = tuple(-x for x in freq)
            terms[neg] = terms.get(neg, 0.0) + c.conjugate()
    return TrigPoly(d, 1, terms)


def axis_wave(d, c_plus, c_minus):
    """c_plus e^{i theta_1} + c_minus e^{-i theta_1} as a poly in d variables."""
    e = (1,) + (0,) * (d - 1)
    return TrigPoly(d, 1, {e: c_plus, tuple(-x for x in e): c_minus})


def cos_poly(d):
    return axis_wave(d, 0.5, 0.5)


def sin_poly(d):
    return axis_wave(d, -0.5j, 0.5j)


def is_real_valued(p, tol=0.0):
    """Conjugate symmetry: c(-l) = conj(c(l)) for every frequency l."""
    terms = p.terms
    flip = {f: tuple(-x for x in f) for f in terms}
    return all(flip[f] in terms and np.all(np.abs(np.conj(terms[flip[f]]) - c) <= tol)
               for f, c in terms.items())


def norm(inner):
    """Norm from a Parseval self-pairing."""
    return math.sqrt(max(inner.real, 0.0))


class TestArcs:
    def test_integral_matches_quadrature(self):
        for k in range(-9, 10):
            for n in ARC_NS:
                a, b = n * math.pi / 2.0, (n + 1) * math.pi / 2.0
                oracle = gauss_integral(lambda t: np.exp(1j * k * t), a, b)
                assert abs(arc_exp_integral(k, n) - oracle) <= 1e-12

    def test_zero_frequency_average_is_one(self):
        for n in ARC_NS:
            assert arc_exp_integral(0, n) == math.pi / 2.0
            assert arc_average(0, n) == 1.0

    def test_odd_frequencies_antisymmetric_across_half_turn(self):
        # shifting the arc by pi flips e^{ik theta} for odd k, exactly in floats
        for k in range(-15, 16, 2):
            assert arc_exp_integral(k, -2) == -arc_exp_integral(k, 0)
            assert arc_exp_integral(k, -1) == -arc_exp_integral(k, 1)

    def test_bad_label_rejected(self):
        with pytest.raises(InvalidInputError):
            arc_exp_integral(1, 2)

    def test_arc_of_angle_brackets_the_point(self):
        for theta in np.linspace(-9.0, 9.0, 401):
            n = arc_of_angle(float(theta))
            assert n in ARC_NS
            red = math.remainder(theta, 2.0 * math.pi)
            if red >= math.pi:
                red -= 2.0 * math.pi
            assert n * math.pi / 2.0 <= red < (n + 1) * math.pi / 2.0 + 1e-12

    def test_arc_of_angle_boundaries(self):
        assert arc_of_angle(0.0) == 0
        assert arc_of_angle(math.pi / 2.0) == 1
        assert arc_of_angle(-0.1) == -1
        assert arc_of_angle(-math.pi) == -2
        assert arc_of_angle(2.0 * math.pi) == 0


class TestTrigPoly:
    def test_evaluate_matches_direct_sum(self, rng):
        p = random_poly(rng, 2)
        theta = rng.uniform(-math.pi, math.pi, 2)
        direct = sum(c[0] * np.exp(1j * np.dot(f, theta)) for f, c in p.terms.items())
        assert abs(p.evaluate(theta)[0] - direct) <= 1e-12

    def test_real_polys_have_conjugate_symmetry(self, rng):
        p = random_poly(rng, 2, real=True)
        assert is_real_valued(p)
        theta = rng.uniform(-math.pi, math.pi, 2)
        assert abs(p.evaluate(theta)[0].imag) <= 1e-12

    def test_add_and_scale(self, rng):
        p, q = random_poly(rng, 2), random_poly(rng, 2)
        theta = rng.uniform(-math.pi, math.pi, 2)
        combined = p.scale(2.0).add(q)
        expected = 2.0 * p.evaluate(theta)[0] + q.evaluate(theta)[0]
        assert abs(combined.evaluate(theta)[0] - expected) <= 1e-12

    def test_zero_coefficients_dropped(self):
        p = TrigPoly(1, 1, {(3,): 0.0 + 0.0j, (1,): 1.0 + 0.0j})
        assert set(p.terms) == {(1,)}

    def test_frequency_length_checked(self):
        with pytest.raises(InvalidInputError):
            TrigPoly(2, 1, {(1,): 1.0 + 0.0j})

    def test_embed_variable_places_frequency(self):
        p = embed_variable(cos_poly(1), 2, 3)
        assert set(p.terms) == {(0, 0, 1), (0, 0, -1)}

    def test_inner_product_basics(self):
        s, c = sin_poly(1), cos_poly(1)
        assert inner_product(s, s) == 0.5
        assert inner_product(s, c) == 0.0

    def test_inner_product_matches_grid(self, rng):
        p, q = random_poly(rng, 1, max_freq=6), random_poly(rng, 1, max_freq=6)
        grid = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
        vals = np.array([p.evaluate([t])[0] * np.conj(q.evaluate([t])[0]) for t in grid])
        assert abs(inner_product(p, q) - np.mean(vals)) <= 1e-10


class TestMultipliers:
    def test_riesz_on_single_variable(self):
        # first component turns sin into -cos and cos into sin
        assert riesz_apply(1, sin_poly(1)).terms == pytest.approx(
            cos_poly(1).scale(-1.0).terms)
        assert riesz_apply(1, cos_poly(1)).terms == pytest.approx(
            sin_poly(1).terms)

    def test_riesz_off_axis_component_vanishes(self):
        for p in (cos_poly(2), sin_poly(2)):
            assert riesz_apply(2, p).terms == {}

    def test_zero_mode_killed(self):
        p = TrigPoly(2, 1, {(0, 0): 3.0 + 0.0j, (1, 0): 1.0 + 0.0j})
        out = riesz_apply(1, p)
        assert (0, 0) not in out.terms

    def test_multiplier_homogeneity(self, rng):
        base = (3, -4)
        p = TrigPoly(2, 1, {base: 1.0 + 0.0j})
        for c in (1, 2, 5):
            scaled = TrigPoly(2, 1, {tuple(c * x for x in base): 1.0 + 0.0j})
            for j in (1, 2):
                a = riesz_apply(j, p).terms[base]
                b = riesz_apply(j, scaled).terms[tuple(c * x for x in base)]
                assert abs(a[0] - b[0]) <= 1e-15

    def test_antisymmetric_pairing(self, rng):
        p = random_poly(rng, 2, real=True)
        q = random_poly(rng, 2, real=True)
        for j in (1, 2):
            lhs = inner_product(riesz_apply(j, p), q)
            rhs = -inner_product(p, riesz_apply(j, q))
            assert abs(lhs - rhs) <= 1e-12

    def test_riesz_squares_sum_to_negative_identity(self, rng):
        p = random_poly(rng, 3, max_freq=5)
        total = {}
        for j in (1, 2, 3):
            twice = riesz_apply(j, riesz_apply(j, p))
            for f, c in twice.terms.items():
                total[f] = total.get(f, 0.0) + c[0]
        for f, c in p.terms.items():
            if any(f):
                assert abs(total[f] + c[0]) <= 1e-12 * max(1.0, abs(c[0]))

    def test_riesz_preserves_real_valuedness(self, rng):
        p = random_poly(rng, 2, real=True)
        assert is_real_valued(riesz_apply(1, p), tol=1e-15)

    def test_hilbert_on_axis_matches_riesz(self, rng):
        terms = {(k, 0): complex(rng.standard_normal(), rng.standard_normal())
                 for k in range(-5, 6)}
        p = TrigPoly(2, 1, terms)
        h, r = directional_hilbert(1, p), riesz_apply(1, p)
        assert set(h.terms) == set(r.terms)
        for f in h.terms:
            assert abs(h.terms[f][0] - r.terms[f][0]) <= 1e-15

    def test_hilbert_square_is_negative_identity(self, rng):
        p = random_poly(rng, 1, max_freq=6)
        twice = directional_hilbert(1, directional_hilbert(1, p))
        for f, c in p.terms.items():
            if f != (0,):
                assert twice.terms[f][0] == -c[0]
        assert (0,) not in twice.terms

    def test_hilbert_of_sine(self):
        out = directional_hilbert(1, sin_poly(1))
        assert out.terms == pytest.approx(cos_poly(1).scale(-1.0).terms)


class TestSquareWaves:
    def test_odd_harmonics_only(self):
        p = square_wave("sqsin", 20)
        assert all(f[0] % 2 == 1 for f in p.terms)
        assert max(abs(f[0]) for f in p.terms) == 19

    def test_coefficients_match_quadrature(self):
        # integrate the exact sign wave against e^{-ik theta}, arc by arc
        for kind in ("sqsin", "sqcos"):
            p = square_wave(kind, 9)
            for k in range(-9, 10):
                pieces = [gauss_integral(
                    lambda t: square_wave_exact(kind, t) * np.exp(-1j * k * t),
                    n * math.pi / 2.0, (n + 1) * math.pi / 2.0) for n in ARC_NS]
                oracle = sum(pieces) / (2.0 * math.pi)
                got = p.terms.get((k,), np.zeros(1))[0]
                assert abs(got - oracle) <= 1e-10

    def test_sine_coefficient_of_third_harmonic(self):
        p = square_wave("sqsin", 9)
        b3 = 1j * (p.terms[(3,)][0] - p.terms[(-3,)][0])
        assert abs(b3 - 4.0 / (3.0 * math.pi)) <= 1e-10

    def test_truncation_approximates_away_from_jumps(self):
        p = square_wave("sqsin", 10001)
        for theta in (0.4, math.pi / 2.0, 2.0, -1.0, -2.8):
            exact = square_wave_exact("sqsin", theta)
            assert abs(p.evaluate([theta])[0].real - exact) <= 1e-3

    def test_exact_values_at_special_points(self):
        assert square_wave_exact("sqsin", math.pi / 2.0) == 1.0
        assert square_wave_exact("sqsin", 0.0) == 0.0
        assert square_wave_exact("sqcos", 0.0) == 1.0

    def test_arc_tables_match_exact_wave(self):
        for kind in ("sqsin", "sqcos"):
            table = square_wave_arc_values(kind)
            for n in ARC_NS:
                mid = (n + 0.5) * math.pi / 2.0
                assert table[n] == square_wave_exact(kind, mid)

    def test_waves_are_real_valued(self):
        for kind in ("sqsin", "sqcos"):
            assert is_real_valued(square_wave(kind, 15))

    def test_bad_arguments_rejected(self):
        with pytest.raises(InvalidInputError):
            square_wave("triangle", 5)
        with pytest.raises(InvalidInputError):
            square_wave("sqsin", 0)


class TestQuarterArcProjection:
    def test_constant_passes_through(self):
        p = TrigPoly(2, 1, {(0, 0): 2.5 + 0.0j})
        bundle = quarter_arc_project(1, p)
        for n in ARC_NS:
            assert bundle.member(n).terms[(0, 0)][0] == 2.5

    def test_cosine_arc_averages(self):
        bundle = quarter_arc_project(1, cos_poly(2))
        expected = {0: 2.0 / math.pi, 1: -2.0 / math.pi,
                    -2: -2.0 / math.pi, -1: 2.0 / math.pi}
        for n, want in expected.items():
            got = bundle.member(n).terms[(0, 0)][0]
            assert abs(got - want) <= 1e-15

    def test_projection_idempotent(self, rng):
        bundle = quarter_arc_project(1, random_poly(rng, 2))
        for n in ARC_NS:
            again = quarter_arc_project(1, bundle.member(n))
            for m in ARC_NS:
                assert again.member(m).terms.keys() == bundle.member(n).terms.keys()
                for f, c in bundle.member(n).terms.items():
                    assert abs(again.member(m).terms[f][0] - c[0]) <= 1e-15

    def test_projected_wave_is_fixed_point(self):
        # the sign wave is constant per arc, so projecting its truncation
        # reproduces the arc table up to the truncation error
        bundle = quarter_arc_project(1, square_wave("sqcos", 4095))
        table = square_wave_arc_values("sqcos")
        for n in ARC_NS:
            got = bundle.member(n).terms[(0,)][0]
            assert abs(got - table[n]) <= 1e-3

    def test_bundle_evaluate_selects_arc(self, rng):
        p = random_poly(rng, 2)
        bundle = quarter_arc_project(1, p)
        theta = np.array([0.3, -1.2])
        assert bundle.evaluate(theta) == pytest.approx(
            bundle.member(0).evaluate(theta))
        theta = np.array([-3.0, 0.5])
        assert bundle.evaluate(theta) == pytest.approx(
            bundle.member(-2).evaluate(theta))

    def test_projection_contracts_norm(self, rng):
        p = random_poly(rng, 2)
        bundle = quarter_arc_project(1, p)
        assert norm(bundle_inner(bundle, bundle)) <= norm(inner_product(p, p)) + 1e-12

    def test_bundle_inner_matches_quadrature(self, rng):
        p, q = random_poly(rng, 1, max_freq=3), random_poly(rng, 1, max_freq=3)
        a, b = quarter_arc_project(1, p), quarter_arc_project(1, q)
        total = sum(gauss_integral(
            lambda t: a.evaluate([t])[0] * np.conj(b.evaluate([t])[0]),
            n * math.pi / 2.0, (n + 1) * math.pi / 2.0) for n in ARC_NS)
        assert abs(bundle_inner(a, b) - total / (2.0 * math.pi)) <= 1e-12

    def test_bundle_poly_inner_matches_quadrature(self, rng):
        p, q = random_poly(rng, 1, max_freq=3), random_poly(rng, 1, max_freq=3)
        a = quarter_arc_project(1, p)
        total = sum(gauss_integral(
            lambda t: a.evaluate([t])[0] * np.conj(q.evaluate([t])[0]),
            n * math.pi / 2.0, (n + 1) * math.pi / 2.0) for n in ARC_NS)
        assert abs(bundle_poly_inner(a, q) - total / (2.0 * math.pi)) <= 1e-12

    def test_diagonal_pairing_unchanged_by_projection(self):
        # pairing against an arc-constant function cannot see the projection
        for sigma, rho in (("sqcos", "sqcos"), ("sqsin", "sqcos")):
            phi = riesz_apply(1, square_wave(sigma, 2047))
            other = square_wave(rho, 2047)
            direct = inner_product(phi, other)
            projected = bundle_poly_inner(quarter_arc_project(1, phi), other)
            assert abs(projected - direct) <= 1e-3

    def test_mismatched_bundle_vars_rejected(self, rng):
        p = random_poly(rng, 2)
        with pytest.raises(InvalidInputError):
            bundle_inner(quarter_arc_project(1, p), quarter_arc_project(2, p))

    @pytest.mark.parametrize("q", [
        TrigPoly(1, 2, {(1, 2): 1.0, (0, 1): 3.0, (3, 1): 1.0}),  # same width, two clusters
        TrigPoly(2, 1, {(1, 2): [1.0, 2.0], (0, 0): [3.0, 1.0]}, value_dim=2),
        TrigPoly(3, 1, {(1, 2, 0): 1.0, (0, 0, 1): 3.0}),  # width 3
    ], ids=["d1-clusters2", "value-dim2", "width3"])
    def test_bundle_poly_inner_rejects_structure_mismatch(self, q):
        a = quarter_arc_project(1, TrigPoly(2, 1, {(1, 2): 1.0, (-1, 0): 2.0j, (3, 1): 0.5}))
        with pytest.raises(InvalidInputError, match="cluster structure mismatch"):
            bundle_poly_inner(a, q)


class TestHypothesisProperties:
    @given(k=st.integers(min_value=-30, max_value=30),
           n=st.sampled_from(ARC_NS))
    @settings(max_examples=80, deadline=None)
    def test_arc_integrals_sum_to_full_circle(self, k, n):
        total = sum(arc_exp_integral(k, m) for m in ARC_NS)
        expected = 2.0 * math.pi if k == 0 else 0.0
        assert abs(total - expected) <= 1e-12

    @given(st.integers(min_value=1, max_value=25))
    @settings(max_examples=25, deadline=None)
    def test_wave_norm_below_one(self, cutoff):
        # Parseval mass of the truncation increases toward the full wave
        p = square_wave("sqsin", cutoff)
        shorter = square_wave("sqsin", max(cutoff - 2, 1))
        wave_norm = norm(inner_product(p, p))
        assert wave_norm < 1.0
        assert wave_norm >= norm(inner_product(shorter, shorter)) - 1e-15

    @given(value_dim=st.sampled_from((1, 2)), slot=st.integers(0, 3),
           bad=st.sampled_from((math.nan, math.inf, -math.inf)), imag=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_non_finite_coefficient_rejected(self, value_dim, slot, bad, imag):
        freqs = np.arange(4)[:, None]
        coeffs = np.ones((4, value_dim), dtype=np.complex128)
        coeffs[slot, value_dim - 1] = complex(0.0, bad) if imag else complex(bad, 0.0)
        with pytest.raises(InvalidInputError, match="not finite"):
            TrigPoly(1, 1, (freqs, coeffs), value_dim)
        with pytest.raises(InvalidInputError, match="not finite"):
            TrigPoly(1, 1, {(int(f),): c for f, c in zip(freqs[:, 0], coeffs)}, value_dim)

    @given(size=st.integers(MAX_FREQUENCY + 1, 10**30), sign=st.sampled_from((1, -1)),
           pos=st.integers(0, 2))
    @settings(max_examples=40, deadline=None)
    def test_frequency_beyond_bound_rejected(self, size, sign, pos):
        freq = [0, 0, 0]
        freq[pos] = sign * size
        with pytest.raises(InvalidInputError, match="beyond the bound"):
            TrigPoly(3, 1, {tuple(freq): 1.0})
        if -(2**63) <= sign * size < 2**63:
            with pytest.raises(InvalidInputError, match="beyond the bound"):
                TrigPoly(3, 1, (np.array([freq]), np.ones((1, 1))))
        # the bound itself is accepted
        freq[pos] = sign * MAX_FREQUENCY
        assert TrigPoly(3, 1, {tuple(freq): 1.0}).freqs[0, pos] == sign * MAX_FREQUENCY

    def test_wave_cutoff_beyond_bound_rejected_before_building(self):
        with pytest.raises(InvalidInputError):
            square_wave("sqsin", MAX_FREQUENCY + 1)
        with pytest.raises(InvalidInputError):
            square_wave("sqcos", 10**20)

    @pytest.mark.parametrize("cutoff", [MAX_WAVE_CUTOFF + 1, MAX_FREQUENCY])
    def test_wave_cutoff_beyond_cap_is_resource_limit(self, cutoff):
        for kind in ("sqsin", "sqcos"):
            with pytest.raises(ResourceLimitError, match="MAX_WAVE_CUTOFF"):
                square_wave(kind, cutoff)


def test_lemma_check_runs_no_order_check_per_poly(monkeypatch):
    """Only the probes that zero a coordinate have their row order read.

    A lemma check builds ten polys (two waves, two embeddings, a Riesz image,
    a scaled image and four arc members), and every producer hands the rows
    over already ascending. The rows are read step by step twice: once for
    the projection's shared merge and once for the pairing's probe runs. Both
    zeroed matrices are one run, so nothing is sorted. An order check in
    every constructor would add ten to the first count.
    """
    from haartorus import torus
    from haartorus.experiments import verify_lemma_hvs

    calls = {"_row_steps": 0, "lexsort": 0}
    row_steps, lexsort = torus._row_steps, np.lexsort

    def counting_row_steps(freqs):
        calls["_row_steps"] += 1
        return row_steps(freqs)

    def counting_lexsort(keys, *args, **kwargs):
        calls["lexsort"] += 1
        return lexsort(keys, *args, **kwargs)

    monkeypatch.setattr(torus, "_row_steps", counting_row_steps)
    monkeypatch.setattr(np, "lexsort", counting_lexsort)
    report = verify_lemma_hvs(4, 4, 3, -1, N=63)
    assert report.parameters["matched"]
    assert calls == {"_row_steps": 2, "lexsort": 0}
