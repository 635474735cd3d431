"""Sparse trigonometric polynomials on products of tori.

A poly is an int64 matrix of stacked frequencies, one row of length
d*clusters per term in lexicographic row order, beside a complex matrix of
coefficient vectors. Multipliers act rowwise and exactly; dense grids appear
only in test oracles.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ResourceLimitError

TWO_PI = 2.0 * math.pi

# quarter arcs A_n = [n pi/2, (n+1) pi/2) in this fixed order
ARC_NS = (-2, -1, 0, 1)

# exact values of the ideal square waves on (A_-2, A_-1, A_0, A_1)
SQCOS_ARC_VALUES = {-2: -1.0, -1: 1.0, 0: 1.0, 1: -1.0}
SQSIN_ARC_VALUES = {-2: -1.0, -1: -1.0, 0: 1.0, 1: 1.0}

_I_POWERS = np.array([1.0 + 0.0j, 0.0 + 1.0j, -1.0 + 0.0j, 0.0 - 1.0j])


def _arc_numerators():
    """Arc-integral numerators a + bi = i^(r(n+1)) - i^(rn), stored as (b, -a).

    Rows are r = k mod 4, columns the arcs n of ARC_NS. Dividing b and -a by k
    gives the complex quotient (a + bi) / (ik) bit for bit; -a is taken as
    0.0 - a, so a zero a carries the sign that complex division gives.
    """
    r = np.arange(4)[:, None]
    ns = np.array(ARC_NS)
    diff = _I_POWERS[r * (ns + 1) % 4] - _I_POWERS[r * ns % 4]
    table = np.stack((diff.imag, 0.0 - diff.real), axis=-1)
    table.flags.writeable = False
    return table


_ARC_NUMERATORS = _arc_numerators()

# Largest |frequency| a poly may carry. With |l_i| < 2**24 and at most 2**15
# coordinates, a squared norm stays below 2**63, so the int64 arithmetic of the
# multipliers (squared norms) cannot overflow.
MAX_FREQUENCY = 2**24 - 1
MAX_STACK = 2**15

# Largest square-wave cutoff. A wave carries one row per odd harmonic and
# sign, and a d = 4 lemma check peaks at about 0.4 KB per row: this cap keeps
# one check near 0.5 GB, where MAX_FREQUENCY would allow about 6.5 GB.
MAX_WAVE_CUTOFF = 2**20


def arc_integrals(k):
    """Integrals of e^{ik theta} over each arc of ARC_NS (columns), for an integer array k."""
    k = np.asarray(k, dtype=np.int64)
    parts = np.take(_ARC_NUMERATORS, k & 3, axis=0)
    parts /= np.where(k == 0, 1.0, k)[:, None, None]
    out = parts.view(np.complex128)[..., 0]
    out[k == 0] = math.pi / 2.0
    return out


def arc_averages(k):
    """arc_integrals(k) / (pi/2), part by part so each entry is arc_average(k, n) exactly."""
    z = arc_integrals(k)
    return z.real / (math.pi / 2.0) + 1j * (z.imag / (math.pi / 2.0))


def arc_exp_integral(k, n):
    """Integral of e^{ik theta} over A_n = [n pi/2, (n+1) pi/2), in closed form."""
    if n not in ARC_NS:
        raise InvalidInputError(f"arc label must be one of {ARC_NS}, got {n}")
    return complex(arc_integrals([k])[0, ARC_NS.index(n)])


def arc_average(k, n):
    """Average of e^{ik theta} over the quarter arc A_n."""
    return arc_exp_integral(k, n) / (math.pi / 2.0)


def arc_of_angle(theta):
    """Label of the quarter arc containing theta (reduced to [-pi, pi))."""
    red = math.remainder(theta, TWO_PI)
    if red >= math.pi:
        red -= TWO_PI
    n = math.floor(red / (math.pi / 2.0))
    return int(min(max(n, -2), 1))


def _dict_arrays(terms, dim, value_dim):
    for freq, coeff in terms.items():
        if len(freq) != dim:
            raise InvalidInputError(f"frequency {freq} has length {len(freq)}, expected {dim}")
        if any(abs(int(x)) > MAX_FREQUENCY for x in freq):
            raise InvalidInputError(f"frequency {freq} beyond the bound {MAX_FREQUENCY}")
        if (np.shape(coeff) or (1,)) != (value_dim,):
            raise InvalidInputError(
                f"coefficient shape {np.shape(coeff)} does not match value_dim {value_dim}")
    freqs = np.array([[int(x) for x in f] for f in terms], dtype=np.int64)
    coeffs = np.array([np.reshape(c, -1) for c in terms.values()], dtype=np.complex128)
    return freqs.reshape(len(terms), dim), coeffs.reshape(len(terms), value_dim)


def _row_steps(freqs):
    """Sign (-1, 0 or 1) of each lexicographic step from one row to the next."""
    diff = freqs[1:] - freqs[:-1]
    np.sign(diff, out=diff)
    return diff[np.arange(len(diff)), (diff != 0).argmax(axis=1)]


def _run_starts(steps):
    start = np.ones(len(steps) + 1, dtype=bool)
    start[1:] = steps != 0
    return start


def _sort_plan(freqs):
    """Rows in lexicographic order, the order that sorts them, and the sign of each step.

    The order is None when the rows already ascend; the steps run between
    consecutive sorted rows.
    """
    steps = _row_steps(freqs)
    if not (steps < 0).any():
        return freqs, None, steps
    order = np.lexsort(freqs.T[::-1])
    freqs = freqs[order]
    return freqs, order, _row_steps(freqs)


def _merge(freqs, coeffs):
    """Rows in lexicographic order with duplicates summed, in input order within a run.

    `coeffs` may carry any trailing shape. Rows that already ascend skip the
    sort, and rows that strictly ascend skip the merge; the result has the
    same bits either way. Each real and imaginary part sums with one
    `np.bincount`, which adds the rows of a run to 0.0 in input order: the
    order, and so the bits, of adding them one at a time.
    """
    freqs, order, steps = _sort_plan(freqs)
    if order is not None:
        coeffs = coeffs[order]
    if (steps > 0).all():
        return freqs, coeffs + 0.0  # as the merge adds a lone row to zero: -0.0 becomes 0.0
    start = _run_starts(steps)
    run, runs = np.cumsum(start) - 1, int(start.sum())
    parts = np.ascontiguousarray(coeffs, dtype=np.complex128).view(np.float64)
    merged = np.stack([np.bincount(run, weights=column, minlength=runs)
                       for column in parts.reshape(len(run), -1).T], axis=1)
    return freqs[start], merged.view(np.complex128).reshape((runs,) + coeffs.shape[1:])


def _canonical(freqs, coeffs):
    """Rows in lexicographic frequency order, duplicates summed, zero rows dropped."""
    freqs, merged = _merge(freqs, coeffs)
    keep = merged.any(axis=1)
    return freqs[keep], merged[keep]


class _Ascending(tuple):
    """(freqs, coeffs) with strictly ascending rows within MAX_FREQUENCY, taken unchecked."""


def _lookup(keys, rows):
    """Index of each row of `rows` in the canonical matrix `keys`, or -1."""
    if np.array_equal(keys, rows):
        return np.arange(len(rows))
    both = np.concatenate((keys, rows))
    order = np.lexsort(both.T[::-1])  # stable: a key sorts before the rows equal to it
    start = _run_starts(_row_steps(both[order]))
    head = order[start][np.cumsum(start) - 1]
    found = np.empty(len(both), dtype=np.intp)
    found[order] = np.where(head < len(keys), head, -1)
    return found[len(keys):]


class TrigPoly:
    """Finite sum of coeff(l) * e^{i <l, theta>} over stacked frequencies l.

    `freqs` is an int64 (terms, d*clusters) matrix of distinct rows in lexicographic
    order, `coeffs` a complex (terms, value_dim) matrix with no zero row. `terms` is
    a dict {frequency tuple: coeff} or a (freqs, coeffs) pair, canonicalized alike.
    """

    def __init__(self, d, clusters, terms, value_dim=1):
        if d < 1 or clusters < 1 or d * clusters > MAX_STACK:
            raise InvalidInputError(f"need d, clusters >= 1 and d*clusters <= {MAX_STACK}")
        dim = d * clusters
        if isinstance(terms, dict):
            freqs, coeffs = _dict_arrays(terms, dim, value_dim)
        else:
            freqs = np.asarray(terms[0], dtype=np.int64)
            coeffs = np.asarray(terms[1], dtype=np.complex128)
            if freqs.shape != (len(coeffs), dim) or coeffs.shape != (len(freqs), value_dim):
                raise InvalidInputError(f"array shapes {freqs.shape}, {coeffs.shape} do not "
                                        f"fit {dim} coordinates and value_dim {value_dim}")
            if not isinstance(terms, _Ascending) and (
                    (freqs > MAX_FREQUENCY) | (freqs < -MAX_FREQUENCY)).any():
                raise InvalidInputError(f"frequency beyond the bound {MAX_FREQUENCY}")
        if not np.isfinite(coeffs).all():
            bad = tuple(int(x) for x in freqs[~np.isfinite(coeffs).all(axis=1)][0])
            raise InvalidInputError(f"coefficient of frequency {bad} is not finite")
        self.d, self.clusters, self.value_dim = d, clusters, value_dim
        if isinstance(terms, _Ascending):
            coeffs = coeffs + 0.0
            keep = coeffs.any(axis=1)
            if not keep.all():
                freqs, coeffs = freqs[keep], coeffs[keep]
            self.freqs, self.coeffs = freqs, coeffs
        else:
            self.freqs, self.coeffs = _canonical(freqs, coeffs)
        self.freqs.flags.writeable = self.coeffs.flags.writeable = False

    @functools.cached_property
    def terms(self):
        """{frequency tuple: coefficient vector}, built on first read."""
        return dict(zip(map(tuple, self.freqs.tolist()), self.coeffs))

    @property
    def total_dim(self):
        return self.d * self.clusters

    def _with(self, terms):
        return TrigPoly(self.d, self.clusters, terms, self.value_dim)

    def scale(self, factor):
        return self._with(_Ascending((self.freqs, self.coeffs * factor)))

    def add(self, other):
        if (self.d, self.clusters, self.value_dim) != (other.d, other.clusters, other.value_dim):
            raise InvalidInputError("cluster structure mismatch in addition")
        return self._with((np.concatenate((self.freqs, other.freqs)),
                           np.concatenate((self.coeffs, other.coeffs))))

    def evaluate(self, theta):
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.total_dim,):
            raise InvalidInputError(f"point has shape {theta.shape}, expected ({self.total_dim},)")
        return np.exp(1j * (self.freqs @ theta)) @ self.coeffs


def embed_variable(p: TrigPoly, var_index, d, clusters=1):
    """Re-house a single-variable poly as depending on one coordinate of a stack."""
    if p.d * p.clusters != 1:
        raise InvalidInputError("embed_variable expects a single-variable poly")
    dim = d * clusters
    if not 0 <= var_index < dim:
        raise InvalidInputError(f"variable index {var_index} out of range for {dim}")
    freqs = np.zeros((len(p.freqs), dim), dtype=np.int64)
    freqs[:, var_index] = p.freqs[:, 0]
    return TrigPoly(d, clusters, _Ascending((freqs, p.coeffs)), p.value_dim)


def square_wave(kind, harmonic_cutoff):
    """Fourier truncation of sign(sin) or sign(cos) at |frequency| <= cutoff.

    Odd harmonics only: sign(sin) has sine coefficients 4/(pi k), sign(cos)
    the alternating cosine series.
    """
    if kind not in ("sqsin", "sqcos"):
        raise InvalidInputError(f"kind must be 'sqsin' or 'sqcos', got {kind!r}")
    if not 1 <= harmonic_cutoff <= MAX_FREQUENCY:
        raise InvalidInputError(f"harmonic cutoff must lie in [1, {MAX_FREQUENCY}]")
    if harmonic_cutoff > MAX_WAVE_CUTOFF:
        raise ResourceLimitError(
            f"harmonic cutoff {harmonic_cutoff} exceeds the wave cap MAX_WAVE_CUTOFF = "
            f"{MAX_WAVE_CUTOFF}")
    k = np.arange(1, harmonic_cutoff + 1, 2)
    sine = kind == "sqsin"
    c = -2.0j / (math.pi * k) if sine else 2.0 * (-1.0) ** ((k - 1) // 2) / (math.pi * k)
    # rows in ascending order, -cutoff ... -1 then 1 ... cutoff
    coeffs = np.concatenate(((-c if sine else c)[::-1], c))[:, None]
    return TrigPoly(1, 1, _Ascending((np.concatenate((-k[::-1], k))[:, None], coeffs)))


def square_wave_exact(kind, theta):
    """Pointwise sign(sin theta) or sign(cos theta), with sign(0) = 0."""
    val = math.sin(theta) if kind == "sqsin" else math.cos(theta)
    return float(np.sign(val))


def square_wave_arc_values(kind):
    return dict(SQSIN_ARC_VALUES if kind == "sqsin" else SQCOS_ARC_VALUES)


def _multiplier(p: TrigPoly, factor):
    keep = factor != 0
    return p._with(_Ascending((p.freqs[keep], p.coeffs[keep] * factor[keep, None])))


def riesz_apply(j, p: TrigPoly):
    """Multiplier -i n_j / |n| on a single-cluster poly; the zero mode is killed."""
    if p.clusters != 1:
        raise InvalidInputError("riesz_apply expects a single-cluster poly")
    if not 1 <= j <= p.d:
        raise InvalidInputError(f"j must be in [1, {p.d}], got {j}")
    norm = np.sqrt(np.einsum("ij,ij->i", p.freqs, p.freqs).astype(np.float64))
    return _multiplier(p, 1j * (-p.freqs[:, j - 1] / np.where(norm == 0.0, 1.0, norm)))


def directional_hilbert(j, p: TrigPoly):
    """Multiplier -i sign(n_j) in the j-th coordinate of the stack; sign(0) = 0."""
    if not 1 <= j <= p.total_dim:
        raise InvalidInputError(f"j must be in [1, {p.total_dim}], got {j}")
    return _multiplier(p, -1j * np.sign(p.freqs[:, j - 1]))


def inner_product(p: TrigPoly, q: TrigPoly):
    """Parseval pairing sum_l <p(l), conj(q(l))>; the normalized torus integral."""
    if (p.d, p.clusters, p.value_dim) != (q.d, q.clusters, q.value_dim):
        raise InvalidInputError("cluster structure mismatch in inner product")
    idx = _lookup(p.freqs, q.freqs)
    hit = idx >= 0
    return complex(np.sum(p.coeffs[idx[hit]] * np.conj(q.coeffs[hit])))


@dataclass(frozen=True)
class ArcBundle:
    """Arc-indexed family of polys, the image of the quarter-arc projection.

    Each member poly carries frequency 0 in the projected coordinate; the
    bundle as a function selects the member whose arc contains that
    coordinate of the evaluation point.
    """

    var: int  # 1-based projected variable
    arcs: dict  # arc label -> TrigPoly

    def evaluate(self, theta):
        n = arc_of_angle(float(np.asarray(theta)[self.var - 1]))
        return self.arcs[n].evaluate(theta)

    def member(self, n):
        return self.arcs[n]


def quarter_arc_project(j, p: TrigPoly):
    """Replace dependence on variable j by arc averages; one poly per arc."""
    if p.clusters != 1:
        raise InvalidInputError("quarter_arc_project expects a single-cluster poly")
    if not 1 <= j <= p.d:
        raise InvalidInputError(f"j must be in [1, {p.d}], got {j}")
    zeroed = p.freqs * (np.arange(p.d) != j - 1)
    avg = arc_averages(p.freqs[:, j - 1])
    # one merge for all four arcs: each (arc, value) column sums in row order
    freqs, merged = _merge(zeroed, p.coeffs[:, None, :] * avg[:, :, None])
    return ArcBundle(j, {n: p._with(_Ascending((freqs, merged[:, col])))
                         for col, n in enumerate(ARC_NS)})


def bundle_inner(a: ArcBundle, b: ArcBundle):
    """Normalized integral of a * conj(b) over the torus, arc by arc."""
    if a.var != b.var:
        raise InvalidInputError("bundles project different variables")
    return sum(0.25 * inner_product(a.arcs[n], b.arcs[n]) for n in ARC_NS)


def bundle_poly_inner(a: ArcBundle, q: TrigPoly):
    """Normalized integral of a * conj(q) with q an ordinary poly."""
    member = a.arcs[ARC_NS[0]]
    if (member.d, member.clusters, member.value_dim) != (q.d, q.clusters, q.value_dim):
        raise InvalidInputError("cluster structure mismatch in bundle pairing")
    zeroed = q.freqs * (np.arange(q.total_dim) != a.var - 1)
    # the probe's distinct rows, found once and looked up once per arc
    zeroed, order, steps = _sort_plan(zeroed)
    start = _run_starts(steps)[:len(zeroed)]  # an empty probe has no run
    run = np.cumsum(start) - 1
    if order is not None:
        run[order] = run.copy()
    heads = zeroed[start]
    weights = np.conj(arc_integrals(q.freqs[:, a.var - 1])) / TWO_PI
    conj_q = np.conj(q.coeffs)
    total = 0.0 + 0.0j
    for col, n in enumerate(ARC_NS):
        idx = _lookup(a.arcs[n].freqs, heads)[run]
        hit = idx >= 0
        pair = np.sum(a.arcs[n].coeffs[idx[hit]] * conj_q[hit], axis=1)
        total += complex(np.sum(pair * weights[hit, col]))
    return total
