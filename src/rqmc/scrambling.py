"""Nested uniform scrambling of base-2 digital nets.

Each coordinate's digit string is rewritten digit by digit: the
permutation applied to digit ``k`` depends on the digits before it, every
permutation is an independent fair draw, and the same (dimension, prefix)
node always reuses the permutation it drew first.  For base 2 a uniform
random permutation of {0,1} is a fair swap/no-swap bit, so the whole
scheme reduces to XOR with a prefix-keyed bit mask.

Instead of materializing the permutation tree, the swap bit of a node is
computed on demand from a keyed integer hash of (master seed, replicate
index, dimension, digit position, prefix digits).  This gives the exact
nested-uniform law in O(1) memory and makes replicates independent by
construction.

The scramble also extends every coordinate with freshly drawn digits up
to the target depth, so outputs land in the open interval (0,1): a
coordinate whose float image would round to 0.0 or 1.0 has its filler
digits redrawn (a probability ~2^-53 event).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .digital_nets import PointSet
from .errors import ContractError

DEFAULT_DEPTH = 64

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Domain tags keep the scramble stream and the plain-uniform stream of the
# same seed disjoint.
_DOMAIN_SCRAMBLE = 0x243F6A8885A308D3
_DOMAIN_UNIFORM = 0x13198A2E03707344

_U64 = np.uint64
_M1 = _U64(0xBF58476D1CE4E5B9)
_M2 = _U64(0x94D049BB133111EB)


def _mix(x: int) -> int:
    """SplitMix64 finalizer on plain ints (reference path)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix_vec(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on uint64 arrays (bit-identical to ``_mix``)."""
    x = (x ^ (x >> _U64(30))) * _M1
    x = (x ^ (x >> _U64(27))) * _M2
    return x ^ (x >> _U64(31))


@dataclass(frozen=True)
class ScrambleSeed:
    """Deterministic randomness source for one scramble replicate.

    Distinct ``replicate_index`` values give independent scrambles under
    the same master seed.
    """

    master_seed: int
    replicate_index: int = 0

    def __post_init__(self):
        if not 0 <= self.master_seed <= _MASK64:
            raise ContractError("master_seed must fit in 64 bits")
        if self.replicate_index < 0:
            raise ContractError("replicate_index must be >= 0")

    def _key(self, domain: int) -> int:
        h = _mix(self.master_seed ^ domain)
        return _mix(h ^ (self.replicate_index + 1) * _GOLDEN)


def _dim_key(seed: ScrambleSeed, dim: int) -> int:
    return _mix(seed._key(_DOMAIN_SCRAMBLE) ^ (dim + 1) * _GOLDEN)


def permutation_for(
    seed: ScrambleSeed, dim: int, prefix: Sequence[int]
) -> tuple[int, ...]:
    """Base-2 permutation at the (dimension, digit-prefix) tree node.

    ``prefix`` holds the digits before the position being permuted, most
    significant first.  The result is deterministic in (seed, dim,
    prefix) and uniform over the two permutations as the seed varies.
    """
    for digit in prefix:
        if digit not in (0, 1):
            raise ContractError("prefix digits must be 0 or 1")
    if len(prefix) >= DEFAULT_DEPTH:
        raise ContractError(f"prefix length must be < {DEFAULT_DEPTH}")
    k = len(prefix) + 1
    prefix_int = 0
    for digit in prefix:
        prefix_int = (prefix_int << 1) | digit
    swap = _mix(_mix(_dim_key(seed, dim) ^ k) ^ prefix_int) & 1
    return (1, 0) if swap else (0, 1)


def _swap_mask(col: np.ndarray, hj: int, digits: range, salt: int = 0) -> np.ndarray:
    """XOR mask of the node swap bits at the given digit positions.

    The swap bit of digit ``k`` hashes the ``k-1`` leading digits of
    ``col`` under a key for (dimension, ``k``); a nonzero ``salt`` rekeys
    the draw, for the filler redraw.
    """
    mask = np.zeros_like(col)
    for k in digits:
        key_k = _mix(hj ^ k)
        if salt:
            key_k = _mix(key_k ^ salt * _GOLDEN)
        prefix = col >> _U64(65 - k) if k > 1 else np.zeros_like(col)
        swaps = _mix_vec(prefix ^ _U64(key_k)) & _U64(1)
        mask |= swaps << _U64(64 - k)
    return mask


def _scramble_column(
    col: np.ndarray,
    seed: ScrambleSeed,
    dim: int,
    in_depth: int,
    depth: int,
    identity_prefix: bool,
) -> np.ndarray:
    """Scramble one coordinate column given as left-aligned 64-bit digits."""
    hj = _dim_key(seed, dim)
    first = in_depth + 1 if identity_prefix else 1
    out = col ^ _swap_mask(col, hj, range(first, depth + 1))

    # Exclude float images 0.0 and 1.0 by redrawing the filler digits
    # (positions in_depth+1 .. depth) with a salted key.  Equal input
    # values redraw identically, preserving nested consistency.
    if depth > in_depth:
        shift = _U64(64 - depth)
        salt = 0
        while True:
            vals = (out >> shift).astype(np.float64) * 2.0**-depth
            bad = (vals == 0.0) | (vals == 1.0)
            if not bad.any():
                break
            salt += 1
            refill = _swap_mask(col[bad], hj, range(in_depth + 1, depth + 1), salt)
            keep = _U64(_MASK64 ^ ((1 << (64 - in_depth)) - 1))
            out[bad] = (out[bad] & keep) | refill
    return out


def scramble(
    points: PointSet,
    seed: ScrambleSeed,
    depth: int = DEFAULT_DEPTH,
    identity_prefix: bool = False,
) -> PointSet:
    """Nested uniform scramble of a base-2 point set.

    Applies prefix-keyed digit permutations to the first ``depth`` digits
    of every coordinate; digits beyond the input's own depth are fresh
    uniform draws, so every output coordinate lies strictly inside (0,1).
    Identical (points, seed, depth) always produce identical output, and
    output point ``i`` corresponds to input point ``i``.

    ``identity_prefix`` is a test hook: it pins the permutations on the
    represented digits to the identity while keeping the uniform filler,
    so the output equals the input with extra digits appended.

    Parameters
    ----------
    points : PointSet
        Base-2 points; ``points.depth`` digits per coordinate.
    seed : ScrambleSeed
    depth : int
        Output digits per coordinate, ``points.depth <= depth <= 64``.
    """
    if depth < points.depth:
        raise ContractError(
            f"scramble depth {depth} below input depth {points.depth}: "
            "distinct points could alias"
        )
    if depth > 64:
        raise ContractError("depth beyond 64 digits is not representable")
    lifted = points.ints << _U64(64 - points.depth)
    out = np.empty_like(lifted)
    for j in range(points.d):
        out[:, j] = _scramble_column(
            lifted[:, j], seed, j, points.depth, depth, identity_prefix
        )
    return PointSet(out >> _U64(64 - depth), depth)


def uniform_points(seed: ScrambleSeed, n: int, d: int) -> np.ndarray:
    """Plain-uniform points from the same keyed-hash generator.

    The Monte Carlo baseline: point ``i`` is a pure function of (seed, i,
    dimension), so the first ``n`` points of a fixed stream are shared
    across sample sizes exactly as with the digital sequence.  Values lie
    strictly inside (0,1).
    """
    if n < 0 or d < 1:
        raise ContractError("need n >= 0 and d >= 1")
    base = seed._key(_DOMAIN_UNIFORM)
    idx = np.arange(n, dtype=_U64)
    out = np.empty((n, d), dtype=np.float64)
    for j in range(d):
        key_j = _U64(_mix(base ^ (j + 1) * _GOLDEN))
        h = _mix_vec(idx ^ key_j)
        out[:, j] = ((h >> _U64(12)).astype(np.float64) + 0.5) * 2.0**-52
    return out
