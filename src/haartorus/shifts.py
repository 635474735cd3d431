"""Dyadic shift, sliced shifts, their signed permutations and dense matrices.

The sibling-pair rule at the coefficient level: for children J+ (left) and
J- (right) of a common parent, out[J-] = in[J+] and out[J+] = -in[J-]. The
plain shift applies it at every depth >= 1; the sliced shift with index j
applies it only where depth = j-1 (mod d). All variants kill the mean mode
and the depth-0 Haar mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ResourceLimitError
from .haar import HaarCoeffs

MAX_MATRIX_DEPTH = 12


@dataclass(frozen=True)
class ShiftOperator:
    kind: str  # "s0" or "sj"
    j: int | None = None
    d: int | None = None

    def __post_init__(self):
        if self.kind not in ("s0", "sj"):
            raise InvalidInputError(f"unknown shift kind {self.kind!r}")
        if self.kind == "sj":
            if self.d is None or self.d < 1:
                raise InvalidInputError("sliced shift needs d >= 1")
            if self.j is None or not 1 <= self.j <= self.d:
                raise InvalidInputError(f"j must be in [1, {self.d}], got {self.j}")

    def acts_on_depth(self, depth):
        if depth < 1:
            return False
        if self.kind == "s0":
            return True
        return depth % self.d == self.j - 1


def _apply(op: ShiftOperator, coeffs: HaarCoeffs) -> HaarCoeffs:
    acting = [t for t in range(1, coeffs.depth_limit + 1) if op.acts_on_depth(t)]
    keep = np.isin(coeffs.depths, acting)
    src, vals = coeffs.positions[keep], coeffs.values[keep]
    return coeffs.zeros_like((src ^ 1, np.where(src[:, None] % 2 == 0, vals, -vals)))


def apply_s0(coeffs: HaarCoeffs) -> HaarCoeffs:
    """Sibling swap with one sign flip on every depth >= 1; root modes go to 0."""
    return _apply(ShiftOperator("s0"), coeffs)


def apply_sj(j, d, coeffs: HaarCoeffs) -> HaarCoeffs:
    """Sliced shift: the sibling rule restricted to depths = j-1 (mod d).

    Coefficients outside the slice are sent to 0, not kept. The depth-0 Haar
    mode is annihilated by every component (for j = 1 as the stated
    exception, for j > 1 because depth 0 is outside slice j-1).
    """
    return _apply(ShiftOperator("sj", j=j, d=d), coeffs)


def signed_permutation(op: ShiftOperator, depth_limit):
    """The shift on the truncated basis as index and sign arrays (src, dst, sign).

    Basis position src[k] is sent to sign[k] times position dst[k], positions
    as in basis_position; every position not in src is sent to 0. Siblings
    share a parent, so dst is src with its last bit flipped, and the left
    (even) child keeps its sign.
    """
    src = np.concatenate(
        [np.zeros(0, dtype=np.int64)]
        + [
            np.arange(1 << t, 2 << t, dtype=np.int64)
            for t in range(1, depth_limit + 1)
            if op.acts_on_depth(t)
        ]
    )
    return src, src ^ 1, np.where(src % 2 == 0, 1, -1)


def operator_matrix(op: ShiftOperator, depth_limit):
    """Dense integer matrix on the truncated basis (mean, root, then (t, i)).

    Entries are in {-1, 0, +1}; column p holds the image of basis element p.
    """
    if depth_limit > MAX_MATRIX_DEPTH:
        raise ResourceLimitError(
            f"depth_limit {depth_limit} exceeds the dense-basis cap {MAX_MATRIX_DEPTH}"
        )
    n = 1 << (depth_limit + 1)
    src, dst, sign = signed_permutation(op, depth_limit)
    mat = np.zeros((n, n), dtype=np.int64)
    mat[dst, src] = sign
    return mat
