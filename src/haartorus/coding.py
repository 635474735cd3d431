"""Sign-toss coding between the dyadic tree and products of tori.

A path spends d consecutive tosses per torus cluster. Toss number s (from 0)
reads cluster l = s // d, coordinate m = s % d; the first toss is the sign of
cos, afterwards the active wave is sign(cos) when the previous outcome was +1
and sign(sin) when it was -1. Outcome +1 selects the left child. A zero
sample of cos or sin counts as +1 so the walk is deterministic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ResourceLimitError
from .haar import DyadicNode, HaarCoeffs, basis_position
from .torus import TrigPoly, _lookup, inner_product


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


@dataclass(frozen=True, eq=False)
class MartingaleBlock:
    """One predictable-times-wave summand of the pathwise expansion, as Haar basis rows.

    kind is "mean" (the constant term, position 0), "eps0" (the depth-0 Haar
    mode times the first toss, position 1), or "pm" (a generic increment at
    the nodes 2^t + i of depth t = k*d + m whose last outcome is `sign`: even
    positions for +1, odd for -1). `positions` ascend; `values` (rows,
    value_dim) are the weights carried along each node's prefix. The attached
    wave factor is sign(cos) for +1 and sign(sin) for -1, at cluster k coordinate m.
    """

    kind: str
    k: int
    m: int
    sign: int
    positions: np.ndarray
    values: np.ndarray

    @property
    def prefixes(self):
        """(rows, t) int matrix of the outcomes (+1 left, -1 right) leading to each row's node."""
        t = int(self.positions.max(initial=1)).bit_length() - 1
        bits = (self.positions[:, None] >> np.arange(t - 1, -1, -1)) & 1
        return 1 - 2 * bits

    @functools.cached_property
    def entries(self):
        """{prefix: weight}, built from the rows the first time it is read."""
        return dict(zip(map(tuple, self.prefixes.tolist()), self.values))


def block_depth(block: MartingaleBlock, d):
    if block.kind == "mean":
        return -1
    if block.kind == "eps0":
        return 0
    return block.k * d + block.m


def martingale_decompose(coeffs: HaarCoeffs, d, K=None):
    """Group Haar rows into predictable blocks: mean, eps0 if the root mode is nonzero,
    then per depth the -1 block before the +1 block, each holding at least one row.

    A node of depth t consumes toss t, which lives in cluster t // d; every populated
    depth must therefore be below (K+1)*d. K defaults to depth_limit // d.
    """
    if d < 1 or (K is not None and K < 0):
        raise InvalidInputError("need d >= 1 and K >= 0")
    K = coeffs.depth_limit // d if K is None else K
    depths = coeffs.depths
    deep = depths.max(initial=0)
    if deep >= (K + 1) * d:
        raise InvalidInputError(f"populated depth {deep} needs cluster {deep // d} > K = {K}")
    blocks = [MartingaleBlock("mean", -1, 0, 1, np.array([0]), np.array([coeffs.mean_part]))]
    if np.any(coeffs.root_part):
        blocks.append(MartingaleBlock("eps0", 0, 0, 1, np.array([1]), np.array([coeffs.root_part])))
    scales = np.array([2.0 ** (t / 2.0) for t in range(coeffs.depth_limit + 1)])
    weights = coeffs.values * scales[depths][:, None]
    starts = np.searchsorted(depths, np.arange(coeffs.depth_limit + 2))
    for t in range(1, coeffs.depth_limit + 1):
        pos, w = coeffs.positions[starts[t]:starts[t + 1]], weights[starts[t]:starts[t + 1]]
        odd = (pos & 1).astype(bool)
        for sign, rows in ((-1, odd), (1, ~odd)):
            if rows.any():
                blocks.append(MartingaleBlock("pm", t // d, t % d, sign, pos[rows], w[rows]))
    return blocks


def evaluate_blocks_at_path(blocks, path: SignTossPath):
    """Pathwise sum of all blocks with sign-exact waves; the coding oracle."""
    depth_needed = 1 + max(
        (block_depth(b, path.d) for b in blocks if b.kind != "mean"), default=-1
    )
    outcomes = path.outcomes(depth_needed)
    leaf = basis_position(depth_needed, path.node(depth_needed).index)
    total = None
    for b in blocks:
        t = block_depth(b, path.d)
        for p, w in zip(b.positions.tolist(), b.values):
            if b.kind != "mean":
                if p != leaf >> (depth_needed - t):  # the path's node at depth t
                    continue
                w = w * outcomes[t]
            total = w.copy() if total is None else total + w
    return np.zeros(1) if total is None else total


def coded_shift_blocks(j, d, blocks):
    """Blockwise action of the sliced shift in the coding picture.

    Only increments at tosses t = j-1 (mod d) survive; each row moves to its
    sibling, `positions ^ 1` (last outcome flipped), the weight picks up that
    outcome as a sign, and the attached wave swaps kind. Mean and first-toss
    blocks are annihilated. This is the dyadic sibling rule exactly.
    """
    if not 1 <= j <= d:
        raise InvalidInputError(f"j must be in [1, {d}], got {j}")
    return [MartingaleBlock("pm", b.k, b.m, -b.sign, b.positions ^ 1, b.values * float(b.sign))
            for b in blocks if b.kind == "pm" and b.m == j - 1]


def blocks_to_haar(blocks, d, depth_limit, value_dim=1):
    """Inverse of martingale_decompose on well-formed block lists."""
    pos = np.concatenate([np.zeros(0, np.int64), *(b.positions for b in blocks)])
    vals = np.concatenate([np.zeros((0, value_dim)), *(
        b.values * 2.0 ** (-max(block_depth(b, d), 0) / 2.0) for b in blocks)])
    mean, root = (np.zeros(value_dim) + vals[pos == p].sum(axis=0) for p in (0, 1))
    return HaarCoeffs(depth_limit, value_dim, mean, root, (pos[pos > 1], vals[pos > 1]))


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
        return max((max(max(t.freq), -min(t.freq)) for t in self.terms), default=0)


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


# Most frequency cells a random element may draw: n_terms x d x (k_max + 1), the
# coordinates of its terms. At the defaults of `experiment modulation` (30 terms,
# d = 2) kmax 4096 draws 245,820 cells in 0.55 s CPU on a 2-core VM (Python 3.11);
# d = 1 costs most per cell, about 3 us, and draws at the cap in 1.5 s.
MAX_DRAW_CELLS = 2**19


def random_ek_element(d=2, k_max=2, n_terms=30, seed=1, max_mag=7, value_dim=1):
    """Seeded random element of n_terms distinct frequencies, magnitudes <= max_mag.

    More terms than the (2 max_mag + 1)^((k_max+1) d) - 1 nonzero frequencies, and
    d < 1, k_max < 0, max_mag < 1 or n_terms < 0, are rejected before the first draw,
    as are more than MAX_DRAW_CELLS cells n_terms * d * (k_max + 1) (a ResourceLimitError).
    """
    if d < 1 or k_max < 0 or max_mag < 1 or n_terms < 0:
        raise InvalidInputError(f"need d >= 1, k_max >= 0, max_mag >= 1, n_terms >= 0; got d = "
                                f"{d}, k_max = {k_max}, max_mag = {max_mag}, n_terms = {n_terms}")
    cells = n_terms * d * (k_max + 1)
    if cells > MAX_DRAW_CELLS:
        raise ResourceLimitError(f"{n_terms} terms of d = {d} x {k_max + 1} clusters draw {cells} "
                                 f"cells, over the cap MAX_DRAW_CELLS = {MAX_DRAW_CELLS}")
    # past bit_length + 1 coordinates there are more than n_terms frequencies
    count = (2 * max_mag + 1) ** min((k_max + 1) * d, int(n_terms).bit_length() + 1) - 1
    if n_terms > count:
        raise InvalidInputError(f"{n_terms} distinct frequencies asked for, but only {count} are "
                                f"nonzero with magnitudes <= {max_mag}")
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
    coordinate u is sum(coef * A**offset), evaluated once and kept.
    """

    A: int
    entries: tuple

    def values(self):
        return self._values

    @functools.cached_property
    def _values(self):
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
    leading_power: int
    scaled: ScaledFrequency

    @property
    def stacked(self):
        """Exact stacked integers: coordinate u is sum(coef * A**(offset + leading_power))."""
        A, lead = self.scaled.A, self.leading_power
        return tuple(sum(coef * A ** (offset + lead) for offset, coef in entry)
                     for entry in self.scaled.entries)


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

    Each term keeps its powers relative to the leading one, A^(k*d+m+1), as a
    ScaledFrequency; the exact integers are formed only when `stacked` is read.
    Requires A > 2 * max frequency magnitude so distinct stacked frequencies
    cannot collide.
    """
    A = int(A)
    max_mag = e.max_frequency()
    if A <= 2 * max_mag:
        raise InvalidInputError(
            f"A = {A} too small: needs A > {2 * max_mag} for this spectrum"
        )
    d = e.d
    out = []
    for t in e.terms:
        lead = t.k * d + t.m + 1
        entries = tuple(
            tuple([(s * d + u + 1 - lead, coef) for s, coef in enumerate(t.freq[u::d]) if coef])
            for u in range(d)
        )
        out.append(ModulatedTerm(t, lead, ScaledFrequency(A, entries)))
    return ModulatedSpectrum(A, d, e.clusters, tuple(out))


def modulated_riesz_multiplier(j, scaled: ScaledFrequency):
    """-i n_j / |n| evaluated on a scaled stacked frequency (leading power cancels)."""
    vals = scaled.values()
    if not 1 <= j <= len(vals):
        raise InvalidInputError(f"j must be in [1, {len(vals)}], got {j}")
    norm = math.sqrt(math.fsum(v * v for v in vals))
    if norm == 0.0:
        return 0.0 + 0.0j
    return -1j * vals[j - 1] / norm


def _multiplier_gaps(j, spectrum: ModulatedSpectrum):
    """Per term: the modulated multiplier and |it - sliced multiplier| * coefficient norm."""
    for mt in spectrum.terms:
        t = mt.term
        approx = modulated_riesz_multiplier(j, mt.scaled)
        if t.m == j - 1:
            lm = t.freq[t.k * spectrum.d + t.m]
            exact = -1j * float((lm > 0) - (lm < 0))
        else:
            exact = 0.0 + 0.0j
        yield approx, abs(approx - exact) * float(np.sqrt(np.sum(np.abs(t.coeff) ** 2)))


def modulation_difference(j, spectrum: ModulatedSpectrum):
    """Sum over terms of |modulated multiplier - sliced multiplier| * coefficient norm."""
    return math.fsum(gap for _, gap in _multiplier_gaps(j, spectrum))


def duality_transfer_check(phi: EkSpaceElement, gammas, A):
    """Compare the sliced-multiplier pairing with the post-modulation pairing.

    Returns (sliced value, modulated value, Cauchy-Schwarz style bound). The
    bound is sum_j ||(multiplier gap) . phi||_2 * ||gamma_j||_2, which is
    O(1/A) by construction.
    """
    d = phi.d
    if len(gammas) != d:
        raise InvalidInputError(f"need {d} partner elements, got {len(gammas)}")
    if any(g.d != d or g.clusters != phi.clusters for g in gammas):
        raise InvalidInputError("partner elements must share d and cluster count")
    spectrum = modulate(phi, A)
    freqs = np.array([t.freq for t in phi.terms], dtype=np.int64).reshape(-1, d * phi.clusters)
    sliced_total = 0.0 + 0.0j
    modulated_total = 0.0 + 0.0j
    bound = 0.0
    for j in range(1, d + 1):
        gamma_poly = ek_to_trig_poly(gammas[j - 1])
        sliced_total += inner_product(
            ek_to_trig_poly(sliced_multiplier_apply(j, phi)), gamma_poly
        )
        partners = _lookup(gamma_poly.freqs, freqs)
        gap_sq = 0.0
        for t, row, (approx, gap) in zip(phi.terms, partners, _multiplier_gaps(j, spectrum)):
            if row >= 0:
                modulated_total += approx * complex(np.sum(t.coeff * np.conj(gamma_poly.coeffs[row])))
            gap_sq += gap**2
        gnorm = math.sqrt(max(inner_product(gamma_poly, gamma_poly).real, 0.0))
        bound += math.sqrt(gap_sq) * gnorm
    return sliced_total, modulated_total, bound
