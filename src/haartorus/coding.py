"""Sign-toss coding between the dyadic tree and products of tori.

A path spends d consecutive tosses per torus cluster. Toss number s (from 0)
reads cluster l = s // d, coordinate m = s % d; the first toss is the sign of
cos, afterwards the active wave is sign(cos) when the previous outcome was +1
and sign(sin) when it was -1. Outcome +1 selects the left child. A zero
sample of cos or sin counts as +1 so the walk is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .haar import DyadicNode, HaarCoeffs


def _toss_value(prev_outcome, theta, first):
    base = math.cos(theta) if (first or prev_outcome > 0) else math.sin(theta)
    return 1 if base >= 0.0 else -1


def path_outcomes(theta_points, depth, d=None):
    """The first `depth` toss outcomes driven by the given torus points."""
    if depth == 0:
        return []
    pts = [tuple(float(x) for x in cluster) for cluster in theta_points]
    if d is None:
        if not pts:
            raise InvalidInputError("no clusters supplied")
        d = len(pts[0])
    if any(len(c) != d for c in pts):
        raise InvalidInputError("all clusters must have d coordinates")
    for k, cluster in enumerate(pts):
        for m, theta in enumerate(cluster):
            if not math.isfinite(theta):
                raise InvalidInputError(f"angle {theta} at cluster {k}, coordinate {m} "
                                        "is not finite")
    needed = (depth - 1) // d + 1
    if len(pts) < needed:
        raise InvalidInputError(
            f"depth {depth} needs {needed} clusters of {d} tosses, got {len(pts)}"
        )
    outcomes = []
    prev = 1
    for s in range(depth):
        theta = pts[s // d][s % d]
        prev = _toss_value(prev, theta, first=(s == 0))
        outcomes.append(prev)
    return outcomes


def encode_path(theta_points, depth, d=None):
    """Dyadic node of the given depth selected by the sign-toss walk."""
    index = 0
    for outcome in path_outcomes(theta_points, depth, d):
        index = 2 * index + (0 if outcome > 0 else 1)
    return DyadicNode(depth, index)


@dataclass(frozen=True)
class SignTossPath:
    d: int
    theta_points: tuple

    def outcomes(self, depth):
        return path_outcomes(self.theta_points, depth, self.d)

    def node(self, depth):
        return encode_path(self.theta_points, depth, self.d)


def random_paths(d, clusters, count, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 2.0 * math.pi, size=(count, clusters, d))
    return [SignTossPath(d, tuple(tuple(row) for row in p)) for p in pts]


# ---------------------------------------------------------------------------
# martingale decomposition


@dataclass(frozen=True)
class MartingaleBlock:
    """One predictable-times-wave summand of the pathwise expansion.

    kind is "mean" (the constant term), "eps0" (the depth-0 Haar mode times
    the first toss), or "pm" (a generic increment). entries maps a prefix of
    outcomes (length k*d + m, ending in `sign` for pm blocks) to the weight
    carried along that prefix; the attached wave factor is sign(cos) for +1
    and sign(sin) for -1, evaluated at cluster k coordinate m.
    """

    kind: str
    k: int
    m: int
    sign: int
    entries: dict


def block_depth(block: MartingaleBlock, d):
    if block.kind == "mean":
        return -1
    if block.kind == "eps0":
        return 0
    return block.k * d + block.m


_OUTCOME_OF_BIT = {"0": 1, "1": -1}


def prefix_of_index(depth, index):
    """Outcome prefix (+1 left / -1 right) leading to node (depth, index)."""
    # the low `depth` bits of index, most significant first, behind a leading 1
    bits = bin((index & ((1 << depth) - 1)) | (1 << depth))[3:]
    return tuple(map(_OUTCOME_OF_BIT.__getitem__, bits))


def index_of_prefix(prefix):
    index = 0
    for outcome in prefix:
        index = 2 * index + (0 if outcome > 0 else 1)
    return index


def martingale_decompose(coeffs: HaarCoeffs, d, K):
    """Group Haar coefficients into predictable blocks, one wave per toss.

    A node of depth t consumes toss t, which lives in cluster t // d; every
    populated depth must therefore be strictly below (K+1)*d.
    """
    if d < 1 or K < 0:
        raise InvalidInputError("need d >= 1 and K >= 0")
    cap = (K + 1) * d
    deep = coeffs.depths.max(initial=0)
    if deep >= cap:
        raise InvalidInputError(
            f"populated depth {deep} needs cluster {deep // d} > K = {K}"
        )
    blocks = {}
    blocks[("mean", -1, 0, 1)] = {(): coeffs.mean_part.copy()}
    if np.any(coeffs.root_part):
        blocks[("eps0", 0, 0, 1)] = {(): coeffs.root_part.copy()}
    scales = np.array([2.0 ** (t / 2.0) for t in range(coeffs.depth_limit + 1)])
    for (t, i), c in zip(coeffs.nodes, coeffs.values * scales[coeffs.depths][:, None]):
        prefix = prefix_of_index(t, i)
        key = ("pm", t // d, t % d, prefix[-1])
        blocks.setdefault(key, {})[prefix] = c
    return [
        MartingaleBlock(kind, k, m, sign, entries)
        for (kind, k, m, sign), entries in sorted(
            blocks.items(), key=lambda kv: (kv[0][1], kv[0][2], kv[0][3], kv[0][0])
        )
    ]


def evaluate_blocks_at_path(blocks, path: SignTossPath):
    """Pathwise sum of all blocks with sign-exact waves; the coding oracle."""
    depth_needed = 1 + max(
        (block_depth(b, path.d) for b in blocks if b.kind != "mean"), default=-1
    )
    outcomes = path.outcomes(max(depth_needed, 0))
    total = None
    for b in blocks:
        for prefix, w in b.entries.items():
            if b.kind == "mean":
                contrib = w
            else:
                t = block_depth(b, path.d)
                if tuple(outcomes[:t]) != prefix:
                    continue
                contrib = w * outcomes[t]
            total = contrib.copy() if total is None else total + contrib
    if total is None:
        total = np.zeros(1)
    return total


def coded_shift_blocks(j, d, blocks):
    """Blockwise action of the sliced shift in the coding picture.

    Only increments at tosses t = j-1 (mod d) survive; each prefix has its
    last conditioning outcome flipped, the weight picks up that outcome as a
    sign, and the attached wave swaps kind. Mean and first-toss blocks are
    annihilated. This reproduces the dyadic sibling rule exactly.
    """
    if not 1 <= j <= d:
        raise InvalidInputError(f"j must be in [1, {d}], got {j}")
    out = []
    for b in blocks:
        if b.kind != "pm" or b.m != j - 1:
            continue
        entries = {}
        for prefix, w in b.entries.items():
            sigma = prefix[-1]
            flipped = prefix[:-1] + (-sigma,)
            entries[flipped] = w * float(sigma)
        out.append(MartingaleBlock("pm", b.k, b.m, -b.sign, entries))
    return out


def blocks_to_haar(blocks, d, depth_limit, value_dim=1):
    """Inverse of martingale_decompose on well-formed block lists."""
    mean = np.zeros(value_dim)
    root = np.zeros(value_dim)
    entries = {}
    for b in blocks:
        for prefix, w in b.entries.items():
            if b.kind == "mean":
                mean = mean + w
            elif b.kind == "eps0":
                root = root + w
            else:
                t = block_depth(b, d)
                entries[(t, index_of_prefix(prefix))] = w * 2.0 ** (-t / 2.0)
    return HaarCoeffs(depth_limit, value_dim, mean, root, entries)


# ---------------------------------------------------------------------------
# constrained spectra


@dataclass(frozen=True)
class EkTerm:
    k: int
    m: int
    sign: int
    freq: tuple
    coeff: np.ndarray


@dataclass(frozen=True)
class EkSpaceElement:
    """Stacked-frequency terms with block metadata and support constraints.

    Each term belongs to the block (k, m, sign): its frequency must vanish on
    clusters beyond k, must be nonzero at coordinate m of cluster k, and must
    vanish at coordinates m+1..d-1 of cluster k.
    """

    d: int
    clusters: int
    terms: tuple
    value_dim: int = 1

    def max_frequency(self):
        return max((max(abs(x) for x in t.freq) for t in self.terms), default=0)


def make_ek_element(d, clusters, term_specs, value_dim=1):
    terms = []
    for k, m, sign, freq, coeff in term_specs:
        arr = np.asarray(coeff, dtype=np.complex128)
        if arr.ndim == 0:
            arr = arr[None]
        freq = tuple(int(x) for x in freq)
        if len(freq) != d * clusters:
            raise InvalidInputError(
                f"frequency length {len(freq)} != d*clusters = {d * clusters}"
            )
        terms.append(EkTerm(int(k), int(m), int(sign), freq, arr))
    return EkSpaceElement(d, clusters, tuple(terms), value_dim)


def check_ek_membership(e: EkSpaceElement):
    """True plus an empty report iff every term satisfies the support rules."""
    violations = []
    for idx, t in enumerate(e.terms):
        if not 0 <= t.k < e.clusters:
            violations.append(f"term {idx}: cluster index {t.k} out of range")
            continue
        if not 0 <= t.m < e.d:
            violations.append(f"term {idx}: coordinate {t.m} out of range")
            continue
        last = t.freq[t.k * e.d : (t.k + 1) * e.d]
        beyond = t.freq[(t.k + 1) * e.d :]
        if any(beyond):
            violations.append(f"term {idx}: support beyond cluster {t.k}")
        if last[t.m] == 0:
            violations.append(
                f"term {idx}: zero frequency at coordinate {t.m} (mean-zero fails)"
            )
        if any(last[t.m + 1 :]):
            violations.append(
                f"term {idx}: nonzero frequency after coordinate {t.m} in cluster {t.k}"
            )
    return len(violations) == 0, violations


def ek_to_trig_poly(e: EkSpaceElement):
    from .torus import TrigPoly

    terms = {}
    for t in e.terms:
        terms[t.freq] = terms.get(t.freq, 0) + t.coeff
    return TrigPoly(e.d, e.clusters, terms, e.value_dim)


def sliced_multiplier_apply(j, e: EkSpaceElement):
    """Riesz multiplier seen only through the last increment's axis frequency.

    Blocks with m != j-1 are annihilated; surviving coefficients are scaled
    by -i sign(l^k_m).
    """
    if not 1 <= j <= e.d:
        raise InvalidInputError(f"j must be in [1, {e.d}], got {j}")
    new_terms = []
    for t in e.terms:
        if t.m != j - 1:
            continue
        lm = t.freq[t.k * e.d + t.m]
        s = (lm > 0) - (lm < 0)
        if s == 0:
            raise InvalidInputError("term violates the nonzero-coordinate constraint")
        new_terms.append(EkTerm(t.k, t.m, t.sign, t.freq, t.coeff * (-1j * s)))
    return EkSpaceElement(e.d, e.clusters, tuple(new_terms), e.value_dim)


def random_ek_element(d=2, k_max=2, n_terms=30, seed=1, max_mag=7, value_dim=1):
    """Seeded random element; frequency magnitudes stay <= max_mag."""
    rng = np.random.default_rng(seed)
    clusters = k_max + 1
    seen = set()
    specs = []
    while len(specs) < n_terms:
        k = int(rng.integers(0, k_max + 1))
        m = int(rng.integers(0, d))
        sign = 1 if rng.integers(0, 2) == 0 else -1
        freq = np.zeros(d * clusters, dtype=np.int64)
        for s in range(k + 1):
            hi = m + 1 if s == k else d
            freq[s * d : s * d + hi] = rng.integers(-max_mag, max_mag + 1, size=hi)
        if freq[k * d + m] == 0:
            freq[k * d + m] = int(rng.integers(1, max_mag + 1)) * (
                1 if rng.integers(0, 2) == 0 else -1
            )
        key = tuple(int(x) for x in freq)
        if key in seen:
            continue
        seen.add(key)
        coeff = rng.standard_normal(value_dim) + 1j * rng.standard_normal(value_dim)
        specs.append((k, m, sign, key, coeff))
    return make_ek_element(d, clusters, specs, value_dim)


# ---------------------------------------------------------------------------
# modulation


@dataclass(frozen=True)
class ScaledFrequency:
    """Stacked frequency in powers-of-1/A form relative to the leading power.

    entries[u] lists (offset, coef) pairs with offset <= 0; the float value of
    coordinate u is sum(coef * A**offset).
    """

    A: int
    entries: tuple

    def values(self):
        try:
            a = float(self.A)
        except OverflowError:
            raise InvalidInputError(f"A of {self.A.bit_length()} bits is beyond the float "
                                    "range the multiplier is evaluated in") from None
        return tuple(
            math.fsum(coef * a ** offset for offset, coef in entry)
            for entry in self.entries
        )


@dataclass(frozen=True)
class ModulatedTerm:
    term: EkTerm
    stacked: tuple
    leading_power: int
    scaled: ScaledFrequency


@dataclass(frozen=True)
class ModulatedSpectrum:
    A: int
    d: int
    clusters: int
    terms: tuple

    def all_distinct(self):
        distinct_inputs = len({t.term.freq for t in self.terms})
        distinct_stacked = len({t.stacked for t in self.terms})
        return distinct_stacked == distinct_inputs


def modulate(e: EkSpaceElement, A):
    """Separate clusters by scale: coordinate u picks up powers A^(s*d+u+1).

    Requires A > 2 * max frequency magnitude so distinct stacked frequencies
    cannot collide.
    """
    A = int(A)
    max_mag = e.max_frequency()
    if A <= 2 * max_mag:
        raise InvalidInputError(
            f"A = {A} too small: needs A > {2 * max_mag} for this spectrum"
        )
    out = []
    for t in e.terms:
        lead = t.k * e.d + t.m + 1
        stacked = []
        scaled_entries = []
        for u in range(e.d):
            total = 0
            pairs = []
            for s in range(e.clusters):
                coef = t.freq[s * e.d + u]
                if coef:
                    power = s * e.d + u + 1
                    total += coef * A**power
                    pairs.append((power - lead, coef))
            stacked.append(total)
            scaled_entries.append(tuple(pairs))
        out.append(
            ModulatedTerm(
                t, tuple(stacked), lead, ScaledFrequency(A, tuple(scaled_entries))
            )
        )
    return ModulatedSpectrum(A, e.d, e.clusters, tuple(out))


def modulated_riesz_multiplier(j, scaled: ScaledFrequency):
    """-i n_j / |n| evaluated on a scaled stacked frequency (leading power cancels)."""
    vals = scaled.values()
    if not 1 <= j <= len(vals):
        raise InvalidInputError(f"j must be in [1, {len(vals)}], got {j}")
    norm = math.sqrt(math.fsum(v * v for v in vals))
    if norm == 0.0:
        return 0.0 + 0.0j
    return -1j * vals[j - 1] / norm


@dataclass(frozen=True)
class ModulationDifference:
    per_term: tuple
    aggregate: float


def modulation_difference(j, e: EkSpaceElement, A):
    """Per-term |modulated multiplier - sliced multiplier| * coefficient norm."""
    spectrum = modulate(e, A)
    rows = []
    for mt in spectrum.terms:
        t = mt.term
        approx = modulated_riesz_multiplier(j, mt.scaled)
        if t.m == j - 1:
            lm = t.freq[t.k * e.d + t.m]
            exact = -1j * float((lm > 0) - (lm < 0))
        else:
            exact = 0.0 + 0.0j
        rows.append(abs(approx - exact) * float(np.sqrt(np.sum(np.abs(t.coeff) ** 2))))
    return ModulationDifference(tuple(rows), float(math.fsum(rows)))


def duality_transfer_check(phi: EkSpaceElement, gammas, A):
    """Compare the sliced-multiplier pairing with the post-modulation pairing.

    Returns (sliced value, modulated value, Cauchy-Schwarz style bound). The
    bound is sum_j ||(multiplier gap) . phi||_2 * ||gamma_j||_2, which is
    O(1/A) by construction.
    """
    from .torus import inner_product

    d = phi.d
    if len(gammas) != d:
        raise InvalidInputError(f"need {d} partner elements, got {len(gammas)}")
    if any(g.d != d or g.clusters != phi.clusters for g in gammas):
        raise InvalidInputError("partner elements must share d and cluster count")
    spectrum = modulate(phi, A)
    sliced_total = 0.0 + 0.0j
    modulated_total = 0.0 + 0.0j
    bound = 0.0
    for j in range(1, d + 1):
        gamma_poly = ek_to_trig_poly(gammas[j - 1])
        sliced_total += inner_product(
            ek_to_trig_poly(sliced_multiplier_apply(j, phi)), gamma_poly
        )
        gap_sq = 0.0
        for mt in spectrum.terms:
            t = mt.term
            approx = modulated_riesz_multiplier(j, mt.scaled)
            if t.m == j - 1:
                lm = t.freq[t.k * d + t.m]
                exact = -1j * float((lm > 0) - (lm < 0))
            else:
                exact = 0.0 + 0.0j
            partner = gamma_poly.terms.get(t.freq)
            if partner is not None:
                modulated_total += approx * complex(np.sum(t.coeff * np.conj(partner)))
            gap_sq += (abs(approx - exact) * float(np.sqrt(np.sum(np.abs(t.coeff) ** 2)))) ** 2
        gnorm = math.sqrt(max(inner_product(gamma_poly, gamma_poly).real, 0.0))
        bound += math.sqrt(gap_sq) * gnorm
    return sliced_total, modulated_total, bound
