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
nested-uniform law without storing the tree and makes replicates
independent by construction.  ``permutation_for`` and ``_mix`` are the
scalar reference for the tree; the array kernel ``_swap_mask`` realizes
it bit for bit.  For a column of n rows it hashes each tree node of the
leading ``n.bit_length() - 1`` digits once, into a table the rows gather
from, does the first xorshift of the finalizer once per column, and
finishes each later digit's hash in uint32 arithmetic, in place, with 32
bytes of scratch a row and no allocation per digit (see ``_swap_mask`` for
the identities).  ``scramble`` lifts each column straight into its result,
XORs the mask there and looks for 0.0 and 1.0 images on the integers, so
it holds nothing a row beyond the result and the kernel's scratch.  A
scramble runs on the calling thread and shares no state between calls, so
callers on several threads at once each get the serial bits of their own
seed.

The scramble has one law: at most ``PRECISION_DEPTH`` = 53 digits in, 64
out.  Digits past the input's are fresh filler, redrawn where a coordinate
would round to 0.0 or 1.0, so outputs lie in the open interval (0,1).
Digit 54, the first past the float mantissa, decides whether a coordinate
rounds to 1.0; it must be filler for the redraw to move it, so 53 is the
input limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .digital_nets import PRECISION_DEPTH, PointSet
from .errors import ContractError, index, index_fields, instance

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Domain tags keep the scramble stream and the plain-uniform stream of the
# same seed disjoint.
_DOMAIN_SCRAMBLE = 0x243F6A8885A308D3
_DOMAIN_UNIFORM = 0x13198A2E03707344

_U64 = np.uint64
_M1 = _U64(0xBF58476D1CE4E5B9)
_M2 = _U64(0x94D049BB133111EB)
_U32 = np.uint32
# Low 32 bits of M2 times 2^31 + 1: bit 31 of c * _M2_BIT (mod 2^32) is the
# SplitMix64 output bit 0 for a finalizer state c before its second multiply.
_M2_BIT = _U32((0x94D049BB133111EB * (2**31 + 1)) & 0xFFFFFFFF)
# Bits of the double 1.0: OR-ed onto a 52-bit integer m they give 1 + m 2^-52.
_ONE_BITS = _U64(0x3FF0000000000000)
# The least 64-digit integer whose float image 2^-64 * float64(bits) is 1.0:
# 2^64 - 2^10 lies halfway between the doubles 2^64 - 2^11 and 2^64 and
# rounds to the even one, 2^64.  The image is 0.0 only for bits == 0.
_ONE_IMAGE = _U64(2**64 - 2**10)


def _mix(x: int) -> int:
    """SplitMix64 finalizer on plain ints (reference path)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix_into(x: np.ndarray, tmp: np.ndarray) -> None:
    """SplitMix64 finalizer applied to the uint64 array ``x`` in place
    (bit-identical to ``_mix``); ``tmp`` is scratch space of ``x``'s shape."""
    np.right_shift(x, _U64(30), out=tmp)
    x ^= tmp
    x *= _M1
    np.right_shift(x, _U64(27), out=tmp)
    x ^= tmp
    x *= _M2
    np.right_shift(x, _U64(31), out=tmp)
    x ^= tmp


def _mix_vec(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer on a copy of the uint64 array ``x``."""
    x = np.array(x, dtype=_U64)
    _mix_into(x, np.empty_like(x))
    return x


@dataclass(frozen=True)
class ScrambleSeed:
    """Deterministic randomness source for one scramble replicate.

    Distinct ``replicate_index`` values give independent scrambles under
    the same master seed.
    """

    master_seed: int
    replicate_index: int = 0

    def __post_init__(self):
        index_fields(self, "master_seed", "replicate_index")
        if not 0 <= self.master_seed <= _MASK64:
            raise ContractError("master_seed must fit in 64 bits")
        if self.replicate_index < 0:
            raise ContractError("replicate_index must be >= 0")

    def _key(self, domain: int) -> int:
        h = _mix(self.master_seed ^ domain)
        return _mix(h ^ (self.replicate_index + 1) * _GOLDEN)


def _dim_key(seed: ScrambleSeed, dim: int, domain: int = _DOMAIN_SCRAMBLE) -> int:
    return _mix(seed._key(domain) ^ (dim + 1) * _GOLDEN)


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
    if len(prefix) >= 64:
        raise ContractError("prefix length must be < 64")
    k = len(prefix) + 1
    prefix_int = 0
    for digit in prefix:
        prefix_int = (prefix_int << 1) | digit
    swap = _mix(_mix(_dim_key(seed, dim) ^ k) ^ prefix_int) & 1
    return (1, 0) if swap else (0, 1)


def _node_table(keys: np.ndarray) -> np.ndarray:
    """High-word swap bits of digits ``1..t`` for every ``t-1``-digit prefix.

    ``keys[k-1]`` is the key of digit ``k``.  Entry ``p`` of the result
    holds, at bit ``32 - k``, the swap bit of the node that digit ``k`` of
    a coordinate whose ``t-1`` leading digits are ``p`` passes through:
    the node of prefix ``p >> (t - k)``.  The table is built level by
    level by doubling: level ``k`` hashes its ``2^(k-1)`` nodes once, and
    its entries inherit the bits of their parent prefix ``p >> 1``, so the
    whole table costs ``2^t - 1`` hashes.
    """
    table = np.zeros(1, dtype=_U32)
    for k, key in enumerate(keys.tolist(), start=1):
        if k > 1:
            table = np.repeat(table, 2)
        nodes = np.arange(table.size, dtype=_U64)
        nodes ^= _U64(key)
        _mix_into(nodes, np.empty_like(nodes))
        nodes &= _U64(1)
        nodes <<= _U64(32 - k)
        table |= nodes.astype(_U32)
    return table


def _swap_mask(digits: np.ndarray, depth: int, hj: int, salt: int = 0) -> np.ndarray:
    """XOR mask of the node swap bits of digits 1..64.

    ``digits`` is a column of ``depth``-digit integers, ``depth <= 63``, of
    any stride.  The swap bit of digit ``k`` is ``_mix(p ^ key_k) & 1``,
    where ``p`` is the ``k-1`` leading digits of the column's entry and
    ``key_k`` a key for (dimension, ``k``); a nonzero ``salt`` rekeys the
    draw, for the filler redraw.  The bits are exactly those
    ``permutation_for`` describes; the kernel gets them with less work
    through four exact identities:

    1. Digit ``k``'s bit depends only on its prefix, and digits ``1..t``
       have only ``2^t - 1`` distinct nodes.  So for ``t = n.bit_length() -
       1`` (at least 1) they are gathered from ``_node_table``, at most
       ``n`` hashes instead of ``t*n``.  Digit ``t + 1`` would add ``2^t >
       n/2`` nodes to the table, at about three row passes' cost (2^16
       rows), so it is hashed row by row like the digits after it.  The
       table depends only on the keys, so each row still depends on its
       own input row alone.
    2. Right shifts distribute over XOR, so the first xorshift of the
       finalizer, ``y ^ (y >> 30)`` with ``y = (half >> s) ^ key``, equals
       ``(h >> s) ^ (key ^ (key >> 30))`` for ``h = half ^ (half >> 30)``,
       which is computed once per column.
    3. The swap bit is bit 0 ^ bit 31 of the second product ``c * M2``,
       and those bits depend only on the low 32 bits of ``c``.  So the
       tail runs on a uint32 copy of ``c``.
    4. Multiplying a uint32 ``y`` by ``2^31 + 1`` adds bit 0 into bit 31,
       so bit 31 of ``c * (M2 * (2^31 + 1) mod 2^32)`` is the swap bit.

    The remaining digits are hashed digit by digit in place, with five
    uint64 and four uint32 passes each.  The kernel holds three
    column-length uint64 arrays (``x``, which holds the column's lifted
    digits and then each digit's hash, ``h`` and a scratch buffer, whose
    first half also holds the uint32 copy of ``c``) and two uint32
    accumulators for the high and low words of the mask: 32 bytes a row.
    """
    n = digits.size
    keys = _mix_vec(np.arange(1, 65, dtype=_U64) ^ _U64(hj))
    if salt:
        keys = _mix_vec(keys ^ _U64(salt * _GOLDEN & _MASK64))
    # The table's bits sit in the high word, so it covers at most 32 digits;
    # it is built before the column buffers, which keeps the peak at those.
    t = min(max(n.bit_length() - 1, 1), 32)
    table = _node_table(keys[:t])
    # x = half, the left-aligned digits >> 1: digit k's prefix is
    # half >> (64 - k), and k = 1 gets the empty prefix 0.
    x = np.left_shift(digits, _U64(63 - depth), dtype=_U64)
    hi = np.take(table, (x >> _U64(64 - t)).view(np.int64))
    del table
    lo = np.zeros(n, dtype=_U32)
    h = x >> _U64(30)
    h ^= x
    tmp = np.empty_like(x)
    c = tmp.view(_U32)[:n]
    keys = keys[t:]
    keys ^= keys >> _U64(30)
    for k, key in zip(range(t + 1, 65), keys):
        word, pos = (hi, 32 - k) if k <= 32 else (lo, 64 - k)
        np.right_shift(h, _U64(64 - k), out=x)
        x ^= key
        x *= _M1
        np.right_shift(x, _U64(27), out=tmp)
        x ^= tmp
        np.copyto(c, x, casting="unsafe")
        c *= _M2_BIT
        c >>= _U32(31)
        c <<= _U32(pos)
        word |= c
    np.copyto(x, hi)
    x <<= _U64(32)
    np.copyto(tmp, lo)
    x |= tmp
    return x


def _edge_images(bits: np.ndarray) -> np.ndarray:
    """Indices of the 64-digit integers in ``bits`` whose float image
    ``float64(bits) * 2**-64`` is 0.0 or 1.0: 0, and ``_ONE_IMAGE`` up.

    Two reductions find the usual case of none without a temporary.
    """
    if bits.min(initial=1) != 0 and bits.max(initial=0) < _ONE_IMAGE:
        return np.empty(0, dtype=np.intp)
    return np.flatnonzero((bits == 0) | (bits >= _ONE_IMAGE))


def scramble(points: PointSet, seed: ScrambleSeed) -> PointSet:
    """Nested uniform scramble of a base-2 point set.

    Takes points of at most ``PRECISION_DEPTH`` = 53 digits and applies
    prefix-keyed digit permutations to all 64 digits of every coordinate.
    Digits beyond the input's own are fresh uniform draws, redrawn where a
    coordinate would round to 0.0 or 1.0, so every output lies strictly
    inside (0,1).  Digit 54 decides whether a coordinate rounds to 1.0, so
    it must be such a draw: hence the input limit of 53.  Identical
    (points, seed) always produce identical output, and output point ``i``
    corresponds to input point ``i``: it depends only on input point ``i``
    and the seed, so the first n points of a scrambled net are the scramble
    of the net's first n points.

    Each coordinate is scrambled as one column by ``_swap_mask``, which
    gives exactly the bits of the tree ``permutation_for`` describes.  Each
    column is lifted to left-aligned digits straight into the result and
    XOR-ed there with its mask, so the call holds the result plus the
    kernel's 32 bytes a row.
    """
    instance("points", points, PointSet)
    instance("seed", seed, ScrambleSeed)
    in_depth = points.depth
    if in_depth > PRECISION_DEPTH:
        raise ContractError(f"input depth {in_depth} exceeds {PRECISION_DEPTH} digits")
    keep = _U64(_MASK64 ^ ((1 << (64 - in_depth)) - 1))
    out = np.empty_like(points.ints)
    for j in range(points.d):
        digits, bits = points.ints[:, j], out[:, j]
        np.left_shift(digits, _U64(64 - in_depth), out=bits)
        hj = _dim_key(seed, j)
        bits ^= _swap_mask(digits, in_depth, hj)
        # Exclude float images 0.0 and 1.0 by redrawing the filler digits
        # (positions in_depth+1 .. 64) with a salted key.  Equal input
        # values redraw identically, preserving nested consistency.
        salt = 0
        while (bad := _edge_images(bits)).size:
            salt += 1
            refill = _swap_mask(digits[bad], in_depth, hj, salt)
            bits[bad] = (bits[bad] & keep) | (refill & ~keep)
    return PointSet(out, 64)


def uniform_points(seed: ScrambleSeed, n: int, d: int, start: int = 0) -> np.ndarray:
    """Plain-uniform points ``start .. start + n - 1`` from the keyed-hash generator.

    The Monte Carlo baseline: point ``i`` is a pure function of (seed, i,
    dimension), so the first ``n`` points of a fixed stream are shared
    across sample sizes exactly as with the digital sequence, and a draw
    from ``start`` equals rows ``start:start + n`` of one longer draw.
    Values lie strictly inside (0,1): coordinate j of point i is
    ``((h >> 12) + 0.5) * 2**-52`` for the hash ``h`` of i under the key of
    dimension j.

    Each column is hashed in place in one reused buffer.  Its float is built
    exactly: ``(h >> 12) | _ONE_BITS`` is the double ``1 + (h >> 12) 2^-52``
    in [1, 2), and subtracting ``1 - 2^-53`` is exact by Sterbenz's lemma,
    since the double lies within a factor of two of it.
    """
    instance("seed", seed, ScrambleSeed)
    n, d, start = index("n", n), index("d", d), index("start", start)
    if n < 0 or d < 1:
        raise ContractError("need n >= 0 and d >= 1")
    if not (0 <= start < 2**64 and start + n <= 2**64):
        raise ContractError("point indices must lie in 0 .. 2^64 - 1")
    idx = np.arange(n, dtype=_U64)
    idx += _U64(start)
    h, tmp = np.empty_like(idx), np.empty_like(idx)
    out = np.empty((n, d), dtype=np.float64)
    for j in range(d):
        np.bitwise_xor(idx, _U64(_dim_key(seed, j, _DOMAIN_UNIFORM)), out=h)
        _mix_into(h, tmp)
        h >>= _U64(12)
        h |= _ONE_BITS
        np.subtract(h.view(np.float64), 1.0 - 2.0**-53, out=out[:, j])
    return out
