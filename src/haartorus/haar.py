"""L2-normalized dyadic Haar system on the unit interval and unit cube.

Conventions (global for the whole package):
  * h_I = (chi_left - chi_right) / sqrt|I|, the LEFT half is the "+" child;
  * node (t, i) is the dyadic interval [i 2^-t, (i+1) 2^-t);
  * basis order: mean mode first, then position(t, i) = 2^t + i;
  * functions are represented by their averages on the finest dyadic grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

MAX_DEPTH = 62  # positions 2^t + i are int64


def _as_components(value, dim=None):
    """Coerce a scalar or sequence to a 1-d numpy array of components."""
    arr = np.atleast_1d(np.asarray(value))
    if arr.ndim != 1:
        raise InvalidInputError(f"value must be scalar or 1-d, got shape {arr.shape}")
    if not np.iscomplexobj(arr):
        arr = arr.astype(np.float64)
    if dim is not None and arr.shape[0] != dim:
        raise InvalidInputError(f"expected {dim} components, got {arr.shape[0]}")
    return arr


@dataclass(frozen=True)
class DyadicNode:
    """The dyadic interval [index 2^-depth, (index+1) 2^-depth)."""

    depth: int
    index: int

    def __post_init__(self):
        if self.depth < 0:
            raise InvalidInputError(f"depth must be nonnegative, got {self.depth}")
        if not 0 <= self.index < (1 << self.depth):
            raise InvalidInputError(
                f"index {self.index} out of range for depth {self.depth}"
            )


def basis_position(depth, index):
    # mean mode occupies position 0; Haar modes follow in breadth-first order
    return (1 << depth) + index


class HaarCoeffs:
    """Sparse Haar expansion: mean_part (constant mode), root_part (depth-0 Haar mode) and rows.

    Nodes of depth >= 1 are rows, zero rows kept: int64 `positions` (basis_position,
    increasing) and float64 or complex128 (rows, value_dim) `values`. `entries` is a dict
    {(t, i): vector} or a (positions, values) pair; read back, it is a cached dict view.
    """

    def __init__(self, depth_limit, value_dim, mean_part, root_part, entries):
        if not 0 <= depth_limit <= MAX_DEPTH:
            raise InvalidInputError(f"depth_limit {depth_limit} outside [0, {MAX_DEPTH}]")
        self.depth_limit, self.value_dim = int(depth_limit), int(value_dim)
        self.mean_part = _as_components(mean_part, value_dim)
        self.root_part = _as_components(root_part, value_dim)
        if isinstance(entries, dict):
            for (t, i), v in entries.items():
                if not (1 <= t <= depth_limit and 0 <= i < 1 << t and np.shape(v) == (value_dim,)):
                    raise InvalidInputError(f"entry {(t, i)} of shape {np.shape(v)} is no node of "
                                            f"depth 1..{depth_limit} with {value_dim} components")
            entries = ([basis_position(t, i) for t, i in entries],
                       np.reshape(list(entries.values()), (len(entries), value_dim)))
        positions, values = np.asarray(entries[0], dtype=np.int64), np.asarray(entries[1])
        if (positions.ndim != 1 or values.shape != (len(positions), value_dim)
                or ((positions < 2) | (positions >= 2 << depth_limit)).any()):
            raise InvalidInputError(f"rows of shape {positions.shape}, {values.shape} need "
                                    f"value_dim {value_dim}, positions in [2, {2 << depth_limit})")
        order = np.argsort(positions, kind="stable")
        self.positions = positions[order]
        self.values = values[order].astype(np.complex128 if np.iscomplexobj(values) else float)
        if (self.positions[1:] == self.positions[:-1]).any():
            raise InvalidInputError("repeated node position")
        rows = np.vstack((self.mean_part, self.root_part, self.values))
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if len(bad):
            where = ("mean", "root", *(f"entry {node}" for node in self.nodes))[bad[0]]
            raise InvalidInputError(f"{where} {rows[bad[0]].tolist()} is not finite")
        self.positions.flags.writeable = self.values.flags.writeable = False

    @property
    def depths(self):
        """Depth t of each row: how many of 2, 4, ..., 2^62 are <= its position 2^t + i."""
        return np.searchsorted(np.left_shift(2, np.arange(MAX_DEPTH)), self.positions, side="right")

    @property
    def nodes(self):
        """(t, i) of each row, as a list in row order."""
        t = self.depths
        return list(zip(t.tolist(), (self.positions - np.left_shift(1, t)).tolist()))

    @functools.cached_property
    def entries(self):
        return dict(zip(self.nodes, self.values))

    def zeros_like(self, entries=None):
        z = np.zeros(self.value_dim)
        return HaarCoeffs(self.depth_limit, self.value_dim, z, z.copy(), entries or {})

    def coefficient_norm_sq(self):
        """Sum of squared coefficient norms, mean and root modes included."""
        return sum(float(np.sum(np.abs(a) ** 2))
                   for a in (self.mean_part, self.root_part, self.values))


def coeff_inner(a: HaarCoeffs, b: HaarCoeffs):
    """Coefficient pairing sum_modes <a_m, conj(b_m)> (equals the grid L2 pairing)."""
    if a.value_dim != b.value_dim:
        raise InvalidInputError("value dimensions differ")
    _, ia, ib = np.intersect1d(a.positions, b.positions, assume_unique=True, return_indices=True)
    total = np.sum(a.mean_part * np.conj(b.mean_part))
    total += np.sum(a.root_part * np.conj(b.root_part))
    total += np.sum(a.values[ia] * np.conj(b.values[ib]))
    return complex(total) if np.iscomplexobj(a.mean_part) or np.iscomplexobj(b.mean_part) else float(np.real(total))


def _as_sample_array(samples):
    if not isinstance(samples, np.ndarray):
        samples = np.stack([_as_components(s) for s in samples])
    arr = samples[:, None] if samples.ndim == 1 else samples
    if arr.ndim != 2:
        raise InvalidInputError(f"samples must be 1-d or 2-d, got shape {arr.shape}")
    return arr if np.iscomplexobj(arr) else arr.astype(np.float64)


def haar_analyze(samples, depth_limit=None):
    """Expand finest-grid averages into Haar coefficients.

    samples holds 2^(depth_limit+1) grid averages; the coefficient at node
    (t, i) is (avg_left - avg_right) * 2^(-t/2 - 1); all-zero rows are left out.
    """
    arr = _as_sample_array(samples)
    n = arr.shape[0]
    if n < 2 or n & (n - 1):
        raise InvalidInputError(f"sample count must be a power of two >= 2, got {n}")
    if depth_limit is not None and depth_limit != n.bit_length() - 2:
        raise InvalidInputError(f"depth_limit {depth_limit} needs {1 << (depth_limit + 1)} "
                                f"samples, got {n}")
    depth_limit = n.bit_length() - 2
    dense = np.empty_like(arr)  # row p holds the coefficient at basis position p
    avg = arr
    for t in range(depth_limit, -1, -1):
        left, right = avg[0::2], avg[1::2]
        dense[1 << t:2 << t] = (left - right) * (0.5 * 2.0 ** (-t / 2.0))
        avg = (left + right) * 0.5
    positions = 2 + np.flatnonzero(dense[2:].any(axis=1))
    return HaarCoeffs(depth_limit, arr.shape[1], avg[0].copy(), dense[1].copy(),
                      (positions, dense[positions]))


def haar_synthesize(coeffs: HaarCoeffs):
    """Exact left inverse of haar_analyze; returns the grid-average array.

    Level t adds c * 2^(t/2) to the left child and subtracts it from the right
    one, at present rows only: adding an absent zero would turn -0.0 into 0.0.
    """
    pos, depths, vals = coeffs.positions, coeffs.depths, coeffs.values
    if np.any(coeffs.root_part):
        pos, depths = np.append(1, pos), np.append(0, depths)
        vals = np.concatenate((coeffs.root_part[None], vals))
    starts = np.searchsorted(depths, np.arange(coeffs.depth_limit + 2))
    cur = np.array([coeffs.mean_part], np.result_type(coeffs.mean_part, coeffs.root_part, vals))
    for t in range(coeffs.depth_limit + 1):
        cur = np.repeat(cur, 2, axis=0)
        left = 2 * (pos[starts[t]:starts[t + 1]] - (1 << t))
        c = vals[starts[t]:starts[t + 1]] * 2.0 ** (t / 2.0)
        cur[left] = cur[left] + c
        cur[left + 1] = cur[left + 1] - c
    return cur


def cube_haar_eval(node: DyadicNode, point, root_mode=False):
    """Evaluate the iterated cube Haar function h_Q at a point of [0,1)^d.

    Splits cycle through the dimensions in order 0..d-1; the value is
    +-2^(depth/2) inside the node's cube (sign from the next split), else 0.
    The constant mode (root_mode=True) is identically 1 on the unit cube.
    """
    point = np.asarray(point, dtype=np.float64)
    d = point.shape[0]
    if np.any(point < 0.0) or np.any(point >= 1.0):
        raise InvalidInputError("point must lie in the half-open unit cube")
    if root_mode:
        return 1.0
    lo = np.zeros(d)
    hi = np.ones(d)
    t = node.depth
    for s in range(1, t + 1):
        u = (s - 1) % d
        bit = (node.index >> (t - s)) & 1
        mid = 0.5 * (lo[u] + hi[u])
        if bit == 0:
            hi[u] = mid
        else:
            lo[u] = mid
        if not lo[u] <= point[u] < hi[u]:
            return 0.0
    u = t % d
    mid = 0.5 * (lo[u] + hi[u])
    sign = 1.0 if point[u] < mid else -1.0
    return sign * 2.0 ** (t / 2.0)
