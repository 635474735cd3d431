"""Verification harness: lemma certification, duality chain, norm estimates.

Everything here reduces a structural identity to finite arithmetic: truncated
square waves stand in for their limits, martingale blocks stand in for
conditional expectations, and index and sign arrays stand in for shift
operators. Each report records the fitted quantities next to the tolerance
used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .coding import (
    EkSpaceElement,
    block_depth,
    coded_shift_blocks,
    duality_transfer_check,
    martingale_decompose,
    modulation_difference,
    random_ek_element,
)
from .errors import InvalidInputError, ResourceLimitError
from .haar import HaarCoeffs, coeff_inner, haar_synthesize
from .shifts import MAX_MATRIX_DEPTH, ShiftOperator, apply_sj, signed_permutation
from .torus import (
    ARC_NS,
    arc_averages,
    arc_integrals,
    embed_variable,
    inner_product,
    quarter_arc_project,
    riesz_apply,
    square_wave,
    square_wave_arc_values,
    bundle_inner,
    bundle_poly_inner,
)

TWO_PI = 2.0 * math.pi


def _parse_sign(sign):
    if sign in (1, +1, "+", "plus"):
        return 1
    if sign in (-1, "-", "minus"):
        return -1
    raise InvalidInputError(f"sign must be +1 or -1, got {sign!r}")


def _wave_kind(sign):
    return "sqcos" if sign > 0 else "sqsin"


# ---------------------------------------------------------------------------
# reflection identity certification


@dataclass(frozen=True)
class LemmaReport:
    lemma_id: str
    parameters: dict
    fitted_constant: float
    residual: float
    tolerance: float
    passed: bool
    both_sides_zero: bool
    details: dict = field(default_factory=dict)


def verify_lemma_hvs(d, j, i, sign, N=4095, index_base=0, projection_var=None,
                     tolerance=5e-3):
    """Certify that the projected Riesz image of a square wave is the other wave.

    The cutoff-N wave in variable i is pushed through the j-th multiplier and
    averaged over quarter arcs; the result is fitted against the cutoff-N
    image wave, reporting the fitted constant and the bundle-norm residual.
    Matching holds when the wave variable equals the multiplier direction;
    otherwise both sides are identically zero.
    """
    if d < 1:
        raise InvalidInputError(f"need d >= 1, got {d}")
    if not 1 <= j <= d:
        raise InvalidInputError(f"j must be in [1, {d}], got {j}")
    if index_base not in (0, 1):
        raise InvalidInputError(f"index_base must be 0 or 1, got {index_base}")
    if N < 1:
        raise InvalidInputError(f"cutoff must be positive, got {N}")
    sgn = _parse_sign(sign)
    wave_var = i - index_base
    if not 0 <= wave_var < d:
        raise InvalidInputError(
            f"wave index {i} (base {index_base}) outside [0, {d})"
        )
    matched = wave_var == j - 1

    wave = embed_variable(square_wave(_wave_kind(sgn), N), wave_var, d)
    lhs_poly = riesz_apply(j, wave)
    proj_var = (wave_var + 1) if projection_var is None else projection_var
    if not 1 <= proj_var <= d:
        raise InvalidInputError(f"projection variable {proj_var} outside [1, {d}]")
    lhs = quarter_arc_project(proj_var, lhs_poly)

    if sgn > 0:
        image = square_wave("sqsin", N)
    else:
        image = square_wave("sqcos", N).scale(-1.0)
    rhs = embed_variable(image, wave_var, d) if matched else embed_variable(
        image.scale(0.0), wave_var, d
    )

    lhs_sq = bundle_inner(lhs, lhs).real
    rhs_sq = inner_product(rhs, rhs).real
    cross = bundle_poly_inner(lhs, rhs).real
    if rhs_sq > 0.0:
        fitted = cross / rhs_sq
    else:
        fitted = 0.0
    residual_sq = lhs_sq - 2.0 * fitted * cross + fitted * fitted * rhs_sq
    residual = math.sqrt(max(residual_sq, 0.0))
    both_zero = lhs_sq == 0.0 and rhs_sq == 0.0
    passed = residual <= tolerance

    return LemmaReport(
        lemma_id="hvs",
        parameters={
            "d": d,
            "j": j,
            "wave_index": i,
            "index_base": index_base,
            "wave_variable_zero_based": wave_var,
            "sign": sgn,
            "cutoff": N,
            "projection_variable": proj_var,
            "matched_zero_based": i == j - 1,
            "matched_one_based": i == j,
            "matched": matched,
        },
        fitted_constant=float(fitted),
        residual=float(residual),
        tolerance=float(tolerance),
        passed=bool(passed),
        both_sides_zero=bool(both_zero),
        details={
            "lhs_norm": math.sqrt(max(lhs_sq, 0.0)),
            "rhs_norm": math.sqrt(max(rhs_sq, 0.0)),
            "image_kind": "sqsin" if sgn > 0 else "sqcos",
        },
    )


@lru_cache(maxsize=None)
def fitted_wave_constant(N):
    """Best-fit projection constant at cutoff N (approaches the exact one)."""
    return verify_lemma_hvs(1, 1, 0, 1, N=N).fitted_constant


# ---------------------------------------------------------------------------
# duality pairing engine
#
# Every expectation over the product of tori factors through the quarter-arc
# sigma-algebra coordinate by coordinate. A factor is ("arc", vec, total) for
# arc-constant functions (vec holds the four values) or ("polyarc", vec,
# total) for a trig polynomial reduced to per-arc integrals against the
# normalized measure. total is the compensated sum of the unsummed
# contributions, taken once when the factor is built, so that a lone
# mean-zero factor evaluates to an exact 0.0. Factors are cached with
# read-only arrays: the four indicators and two patterns once per process,
# a transform factor per (j, d, N, c0, sigma, variant), all it depends on.
#
# Rows are named by basis position, as in HaarCoeffs. An x row at position p
# and depth t is paired only with the y rows at its ancestors p >> (t - s),
# s = -1..t (the mean 0, the root 1, ...). Every other pair is an exact
# 0: two prefixes that first differ at toss s meet in indicator factors
# 0.5(1 + p) and 0.5(1 - p) with p = +-1 there, and a y entry deeper than t
# leaves its pattern factor alone, whose total is an exact 0.0. The pairs
# that remain are summed in y order, so the total is the all-pairs total.
#
# One walk scores all three variants, which differ only in the x factor at
# coordinate t. A pair's product multiplies its coordinate expectations in
# coordinate order from 1: the diagonal ones of the shared indicators below
# s, kept as a running prefix product along the walk; coordinate s against
# y's pattern; x's indicators alone; last the variant's top factor. Each
# expectation is looked up in a per-pairing table keyed by its two factor
# objects. A zero expectation drops the pair, as it does in the all-pairs
# product, so every total is bit for bit the all-pairs total.


def _fsum_complex(values):
    values = np.asarray(values, dtype=np.complex128).ravel()
    return complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist()))


def _frozen_factor(kind, vec, total):
    vec = np.array(vec, dtype=np.complex128)
    vec.flags.writeable = False
    return (kind, vec, total)


@lru_cache(maxsize=None)
def _pattern_vec(kind):
    vals = square_wave_arc_values(kind)
    return tuple(float(vals[n]) for n in ARC_NS)


@lru_cache(maxsize=None)
def _pattern_factor(sign):
    vec = _pattern_vec(_wave_kind(sign))
    return _frozen_factor("arc", vec, _fsum_complex(vec))


@lru_cache(maxsize=None)
def _indicator_factor(outcome, prev_outcome):
    pattern = _pattern_vec(_wave_kind(prev_outcome))
    vec = tuple(0.5 * (1.0 + outcome * p) for p in pattern)
    return _frozen_factor("arc", vec, _fsum_complex(vec))


@lru_cache(maxsize=64)
def _transform_factor(j, d, N, c0, sigma, variant):
    """Coordinate factor replacing the image wave through the multiplier.

    variant "projected" averages the multiplier image over quarter arcs and
    scales by sigma / c0; variant "plain" keeps the full polynomial as
    per-arc integrals with the same scaling.
    """
    wave = embed_variable(square_wave(_wave_kind(sigma), N), j - 1, d)
    q = riesz_apply(j, wave)
    k = q.freqs[:, j - 1]
    base = (sigma / c0) * q.coeffs[:, :1]
    weights = arc_averages(k) if variant == "projected" else arc_integrals(k)
    # the complex product written out, so that every contribution rounds
    # exactly as base * arc_average(k, n) does in scalar arithmetic
    re = base.real * weights.real - base.imag * weights.imag
    im = base.real * weights.imag + base.imag * weights.real
    if variant != "projected":
        re, im = re / TWO_PI, im / TWO_PI
    contrib = re + 1j * im
    kind = "arc" if variant == "projected" else "polyarc"
    return _frozen_factor(kind, contrib.sum(axis=0), _fsum_complex(contrib))


def _coord_expectation(fx, fy):
    if fx is None and fy is None:
        return 1.0 + 0.0j
    if fy is None:
        fx, fy = None, fx
    if fx is None:
        kind, _vec, total = fy
        return 0.25 * total if kind == "arc" else total
    kx, vx, _ = fx
    ky, vy, _ = fy
    if kx == "polyarc" and ky == "polyarc":
        raise InvalidInputError("two multiplier factors on one coordinate")
    val = complex(np.sum(vx * vy))
    if kx == "arc" and ky == "arc":
        val *= 0.25
    return val


def _coded_pairing(j, d, f_blocks, g: HaarCoeffs, N, c0):
    """Expectations of (coded shift of f) times g over the coding measure.

    f enters as its blocks, `martingale_decompose(f, d)`, which do not depend
    on j. Returns the totals of three variants, (exact, projected, plain):
    "exact" keeps the image waves; "projected" and "plain" replace them
    through the multiplier identity divided by the reference constant.
    """
    fb = coded_shift_blocks(j, d, f_blocks)

    y_at = {}  # basis position -> (wave factor, weight row)
    for by in martingale_decompose(g, d):
        top = None if by.kind == "mean" else _pattern_factor(by.sign)
        for p, wy in zip(by.positions.tolist(), np.asarray(by.values, dtype=float)):
            y_at[p] = (top, wy)

    table = {}

    def expect(fx, fy):
        key = (id(fx), id(fy))
        val = table.get(key)
        if val is None:
            val = table[key] = _coord_expectation(fx, fy)
        return val

    tops_of = {}  # held for the whole pairing, so the table's ids stay unique
    totals = [0.0 + 0.0j] * 3
    for bx in fb:
        t_x = block_depth(bx, d)
        sigma = -bx.sign
        if sigma not in tops_of:
            tops_of[sigma] = (_pattern_factor(bx.sign),
                              _transform_factor(j, d, N, c0, sigma, "projected"),
                              _transform_factor(j, d, N, c0, sigma, "plain"))
        tops = tops_of[sigma]
        # a y entry shallower than t_x leaves every top factor alone
        lone_tops_vanish = all(expect(top, None) == 0.0 for top in tops)
        for p, prefix, wx in zip(bx.positions.tolist(), bx.prefixes.tolist(),
                                 np.asarray(bx.values, dtype=float)):
            xs = [_indicator_factor(o, prev) for o, prev in zip(prefix, [1] + prefix)]
            head = 1.0 + 0.0j  # diagonal expectations at coordinates below t_y
            for t_y in range(-1, t_x + 1):
                if t_y > 0:
                    val = expect(xs[t_y - 1], xs[t_y - 1])
                    if val == 0.0:
                        break
                    head *= val
                y = y_at.get(p >> (t_x - t_y))  # the ancestor at depth t_y; mean at -1
                if y is None or (t_y < t_x and lone_tops_vanish):
                    continue
                y_top, wy = y
                # coordinate t_y against y's pattern, then x's indicators alone
                rest = [expect(xs[s], y_top if s == t_y else None)
                        for s in range(max(t_y, 0), t_x)]
                if 0.0 in rest:
                    continue
                prod = head
                for val in rest:
                    prod *= val
                dot = float(np.dot(wx, wy))
                y_last = y_top if t_y == t_x else None
                for v, top in enumerate(tops):
                    val = expect(top, y_last)
                    if val != 0.0 and prod * val != 0.0:
                        totals[v] += dot * (prod * val)
    return tuple(totals)


# ---------------------------------------------------------------------------
# duality chain


@dataclass(frozen=True)
class DualityReport:
    d: int
    p: float
    A: int
    cutoff: int
    dyadic_pairing: float
    coded_pairing: float
    projected_pairing: float
    multiplier_pairing: float
    fitted_wave_constant: float
    reference_constant: float
    truncation_bound: float
    coded_matches: bool
    projected_within_bound: bool
    multiplier_within_bound: bool
    norm_estimate: float
    f_norm: float
    partner_norm: float
    inequality_holds: bool
    slack_ratio: float
    transfer_sliced: complex
    transfer_modulated: complex
    transfer_bound: float
    transfer_within_bound: bool


def _grid_p_norm(samples, p):
    amp = np.sqrt(np.sum(np.abs(samples) ** 2, axis=tuple(range(1, samples.ndim))))
    return float(np.mean(amp**p) ** (1.0 / p))


def duality_chain_check(f: HaarCoeffs, partners, d, p=2.0, A=1024, N=1024,
                        c0=None, seed=0):
    """Certify the pairing chain between the shift vector and its partners.

    Computes (a) the coefficient pairing of each sliced shift of f against
    its partner, (b) the coded pairing with the image wave replaced by the
    projected multiplier image over the reference constant, (c) the same
    with the unprojected polynomial, and checks (a), (b), (c) agree within
    the wave-truncation bound. Also checks the duality inequality against a
    certified lower estimate of the shift-vector norm, and the transfer of
    the pairing through modulation on a seeded sparse spectrum.
    """
    if c0 is None:
        raise InvalidInputError("reference constant required (see golden data)")
    if np.any(f.mean_part) or np.any(f.root_part):
        raise InvalidInputError("pairing input must have zero mean and root modes")
    partners = list(partners)
    if len(partners) != d:
        raise InvalidInputError(f"need {d} partner coefficient sets, got {len(partners)}")
    if not 1.0 < p < float("inf"):
        raise InvalidInputError(f"exponent must lie in (1, inf), got {p}")

    a = 0.0
    coded = 0.0 + 0.0j
    projected = 0.0 + 0.0j
    multiplier = 0.0 + 0.0j
    f_blocks = martingale_decompose(f, d)
    for j in range(1, d + 1):
        a += coeff_inner(apply_sj(j, d, f), partners[j - 1])
        exact, proj, plain = _coded_pairing(j, d, f_blocks, partners[j - 1], N, c0)
        coded += exact
        projected += proj
        multiplier += plain

    chat = fitted_wave_constant(N)
    fuzz = 1e-12 * (1.0 + abs(a))
    bound = abs(1.0 - chat / c0) * abs(a) + fuzz
    coded_ok = abs(coded.real - a) <= fuzz and abs(coded.imag) <= fuzz
    proj_ok = abs(projected.real - a) <= bound and abs(projected.imag) <= bound
    mult_ok = abs(multiplier.real - a) <= bound and abs(multiplier.imag) <= bound

    est = lp_norm_estimate(
        riesz_vector_operator(d, min(f.depth_limit, 8)), p
    ).estimate
    q = p / (p - 1.0)
    f_norm = _grid_p_norm(haar_synthesize(f), p)
    stacked = np.stack([haar_synthesize(g) for g in partners])
    amp = np.sqrt(np.sum(np.abs(stacked) ** 2, axis=(0, 2)))
    partner_norm = float(np.mean(amp**q) ** (1.0 / q))
    rhs = est * f_norm * partner_norm
    inequality = abs(a) <= rhs * (1.0 + 1e-9) + 1e-12
    slack = rhs / abs(a) if a != 0.0 else float("inf")

    phi = random_ek_element(d=d, k_max=1, n_terms=8, seed=seed, max_mag=5)
    gammas = [_partner_element(phi, seed + 101 * j) for j in range(1, d + 1)]
    t_sliced, t_modulated, t_bound = duality_transfer_check(phi, gammas, A)
    transfer_ok = abs(t_sliced - t_modulated) <= t_bound + 1e-12

    return DualityReport(
        d=d,
        p=float(p),
        A=int(A),
        cutoff=int(N),
        dyadic_pairing=float(a),
        coded_pairing=float(coded.real),
        projected_pairing=float(projected.real),
        multiplier_pairing=float(multiplier.real),
        fitted_wave_constant=float(chat),
        reference_constant=float(c0),
        truncation_bound=float(bound),
        coded_matches=bool(coded_ok),
        projected_within_bound=bool(proj_ok),
        multiplier_within_bound=bool(mult_ok),
        norm_estimate=float(est),
        f_norm=float(f_norm),
        partner_norm=float(partner_norm),
        inequality_holds=bool(inequality),
        slack_ratio=float(slack),
        transfer_sliced=t_sliced,
        transfer_modulated=t_modulated,
        transfer_bound=float(t_bound),
        transfer_within_bound=bool(transfer_ok),
    )


def _partner_element(phi: EkSpaceElement, seed):
    """Same block structure and frequencies as phi, fresh coefficients.

    Sharing the frequency support keeps the transfer pairing nonzero, so the
    comparison actually exercises the multiplier gap.
    """
    rng = np.random.default_rng(seed)
    specs = [
        (
            t.k,
            t.m,
            t.sign,
            t.freq,
            rng.standard_normal(phi.value_dim)
            + 1j * rng.standard_normal(phi.value_dim),
        )
        for t in phi.terms
    ]
    from .coding import make_ek_element

    return make_ek_element(phi.d, phi.clusters, specs, phi.value_dim)


def random_mean_zero_coeffs(depth, seed, value_dim=1):
    """Seeded coefficients on all nodes of depth 1..depth, zero mean and root."""
    rng = np.random.default_rng(seed)
    n = (2 << depth) - 2  # every node (t, i), 1 <= t <= depth, in position order
    return HaarCoeffs(
        depth, value_dim, np.zeros(value_dim), np.zeros(value_dim),
        (np.arange(2, n + 2), rng.standard_normal((n, value_dim))),
    )


# Deepest level of a seeded duality run, whose f and partners fill every node: on a
# 2-core VM one d = 3 run takes 0.8 s CPU, 53 MB RSS at depth 14; 2.2 s, 110 MB at 16.
MAX_DUALITY_DEPTH = 16


def run_duality_experiment(seed, d=2, depth=4, p=2.0, A=1024, N=1024, c0=None):
    if depth < 1:
        raise InvalidInputError(f"duality depth must be at least 1, got {depth}")
    if depth > MAX_DUALITY_DEPTH:
        raise ResourceLimitError(
            f"duality depth {depth} exceeds MAX_DUALITY_DEPTH = {MAX_DUALITY_DEPTH}")
    f = random_mean_zero_coeffs(depth, seed)
    partners = [random_mean_zero_coeffs(depth, seed + 7919 * j) for j in range(1, d + 1)]
    return duality_chain_check(f, partners, d, p=p, A=A, N=N, c0=c0, seed=seed)


# ---------------------------------------------------------------------------
# modulation decay


@dataclass(frozen=True)
class ModulationDecayResult:
    d: int
    A_values: tuple
    aggregate_errors: tuple
    slope: float | None
    all_exact_zero: bool


def modulation_decay_experiment(element: EkSpaceElement | None = None,
                                A_list=None, seed=1):
    """Aggregate multiplier error against the separation scale, with slope.

    The error for one scale sums modulation_difference over every direction
    j. The slope is the log-log least-squares fit; it is None when every
    aggregate vanishes (axis-only spectra).
    """
    if element is None:
        element = random_ek_element(d=2, k_max=2, n_terms=30, seed=seed, max_mag=7)
    if A_list is None:
        A_list = [2**r for r in range(4, 13)]
    A_values = [int(A) for A in A_list]
    errors = []
    for A in A_values:
        total = 0.0
        for j in range(1, element.d + 1):
            total += modulation_difference(j, element, A).aggregate
        errors.append(total)
    all_zero = all(e == 0.0 for e in errors)
    if all_zero or len(errors) < 2:
        slope = None
    else:
        if any(e == 0.0 for e in errors):
            raise InvalidInputError("mixed zero and nonzero aggregates; no slope")
        slope = float(
            np.polyfit(np.log(np.array(A_values, float)), np.log(errors), 1)[0]
        )
    return ModulationDecayResult(
        element.d, tuple(A_values), tuple(errors), slope, all_zero
    )


# ---------------------------------------------------------------------------
# operator norm estimation


@dataclass(frozen=True)
class OperatorHandle:
    operator_id: str
    dim: int
    components: int
    apply: object
    apply_adjoint: object


@dataclass(frozen=True)
class NormEstimate:
    operator_id: str
    p: float
    resolution: int
    estimate: float
    iterations: int
    converged: bool
    test_vector: np.ndarray
    trace: tuple


def identity_operator(n):
    return OperatorHandle(
        operator_id=f"identity[{n}]",
        dim=n,
        components=1,
        apply=lambda v: v[None, :].copy(),
        apply_adjoint=lambda y: y[0].copy(),
    )


def matrix_operator(mats, operator_id):
    mats = [np.asarray(m, dtype=float) for m in mats]
    n = mats[0].shape[1]
    if any(m.shape != mats[0].shape for m in mats):
        raise InvalidInputError("component matrices must share a shape")

    def apply(v):
        return np.stack([m @ v for m in mats])

    def apply_adjoint(y):
        out = np.zeros(n)
        for m, row in zip(mats, y):
            out += m.T @ row
        return out

    return OperatorHandle(operator_id, n, len(mats), apply, apply_adjoint)


def signed_permutation_operator(ops, depth, operator_id, restricted=True):
    """Shift operators stacked, each applied as its signed permutation of coefficient space.

    restricted drops the mean and root coordinates. The images are exactly the
    dense-matrix products: each row and column of a component holds at most
    one sign.
    """
    if depth > MAX_MATRIX_DEPTH:
        raise ResourceLimitError(
            f"depth {depth} exceeds the shift-vector depth cap {MAX_MATRIX_DEPTH}"
        )
    offset = 2 if restricted else 0
    n = (1 << (depth + 1)) - offset
    rules = []
    for op in ops:
        src, dst, sign = signed_permutation(op, depth)
        rules.append((src - offset, dst - offset, sign.astype(float)))

    def apply(v):
        out = np.zeros((len(rules), n))
        for row, (src, dst, sign) in zip(out, rules):
            row[dst] = sign * v[src]
        return out

    def apply_adjoint(y):
        out = np.zeros(n)
        for row, (src, dst, sign) in zip(y, rules):
            out[src] += sign * row[dst]
        return out

    return OperatorHandle(operator_id, n, len(rules), apply, apply_adjoint)


def riesz_vector_operator(d, depth, restricted=True):
    """All d sliced shifts stacked; restricted keeps the span where the stack is isometric."""
    if d < 1:
        raise InvalidInputError(f"need d >= 1, got {d}")
    tag = "restricted" if restricted else "full"
    return signed_permutation_operator(
        [ShiftOperator("sj", j=j, d=d) for j in range(1, d + 1)], depth,
        f"shift-vector[d={d},depth={depth},{tag}]", restricted,
    )


def hilbert_multiplier_operator(N, grid_factor=8):
    """Band-limited directional multiplier on a one-variable grid.

    Acts as -i sign(k) on frequencies 1..N and annihilates everything else;
    the grid oversamples the band by grid_factor.
    """
    if N < 1:
        raise InvalidInputError(f"cutoff must be positive, got {N}")
    n = int(grid_factor) * int(N)
    freqs = np.arange(n // 2 + 1)
    mult = np.where((freqs >= 1) & (freqs <= N), -1j, 0.0 + 0.0j)

    def apply(v):
        return np.fft.irfft(np.fft.rfft(v) * mult, n)[None, :]

    def apply_adjoint(y):
        return np.fft.irfft(np.fft.rfft(y[0]) * np.conj(mult), n)

    return OperatorHandle(f"hilbert[N={N},grid={n}]", n, 1, apply, apply_adjoint)


def _stack_amplitude(W):
    return np.sqrt(np.sum(W * W, axis=0))


def _vec_p_norm(v, p):
    return float(np.mean(np.abs(v) ** p) ** (1.0 / p))


def lp_norm_estimate(op: OperatorHandle, p, max_iter=400, tol=1e-13, seed=0):
    """Certified lower bound for the operator norm on mean-normalized L^p.

    Fixed-point iteration: push the current vector through the operator,
    dualize the image pointwise, pull back through the adjoint, and dualize
    again with the conjugate exponent. The returned estimate is the best
    quotient seen, attained by the recorded test vector, so it is a genuine
    lower bound regardless of convergence.
    """
    if not 1.0 < p < float("inf"):
        raise InvalidInputError(f"exponent must lie in (1, inf), got {p}")
    q = p / (p - 1.0)
    v = np.random.default_rng(seed).standard_normal(op.dim)
    v = v / _vec_p_norm(v, p)

    best = -1.0
    best_v = v.copy()
    prev = None
    trace = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        W = op.apply(v)
        amp = _stack_amplitude(W)
        quot = _vec_p_norm(amp, p)
        trace.append(quot)
        if quot > best:
            best = quot
            best_v = v.copy()
        if prev is not None and abs(quot - prev) <= tol * max(1.0, quot):
            converged = True
            break
        prev = quot
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(amp > 0.0, amp ** (p - 2.0), 0.0)
        Y = W * scale
        u = op.apply_adjoint(Y)
        w = np.abs(u) ** (q - 1.0) * np.sign(u)
        nw = _vec_p_norm(w, p)
        if nw == 0.0:
            break
        v = w / nw

    return NormEstimate(
        operator_id=op.operator_id,
        p=float(p),
        resolution=op.dim,
        estimate=float(max(best, 0.0)),
        iterations=iterations,
        converged=converged,
        test_vector=best_v,
        trace=tuple(trace),
    )


# ---------------------------------------------------------------------------
# dimension-free certification


@dataclass(frozen=True)
class DimensionFreeRow:
    d: int
    depth: int
    estimate: float
    iterations: int
    converged: bool


def dimension_free_check(d_list, depth=6, p=2.0):
    """Estimate the stacked shift-vector norm on the mean-free span per d."""
    rows = []
    for d in d_list:
        if d < 1:
            raise InvalidInputError(f"need d >= 1, got {d}")
        op = riesz_vector_operator(d, depth, restricted=True)
        est = lp_norm_estimate(op, p, max_iter=200, seed=d)
        rows.append(
            DimensionFreeRow(d, depth, est.estimate, est.iterations, est.converged)
        )
    return rows
