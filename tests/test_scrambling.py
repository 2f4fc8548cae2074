"""Nested uniform scrambling: law, determinism, and net preservation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from rqmc.digital_nets import PointSet, generate_net, verify_net
from rqmc.errors import ContractError
from rqmc.scrambling import (
    DEFAULT_DEPTH,
    ScrambleSeed,
    _mix,
    _mix_vec,
    permutation_for,
    scramble,
    uniform_points,
)

SEED = ScrambleSeed(12345)


def digits_of(value: int, depth: int) -> list[int]:
    return [(value >> (depth - k)) & 1 for k in range(1, depth + 1)]


# ---------------------------------------------------------------- hash layer


def test_scalar_and_vector_mix_agree():
    rng = np.random.default_rng(0)
    xs = rng.integers(0, 2**64, size=1000, dtype=np.uint64)
    with np.errstate(over="ignore"):
        vec = _mix_vec(xs)
    for x, v in zip(xs.tolist(), vec.tolist()):
        assert _mix(x) == v


def test_seed_validation():
    with pytest.raises(ContractError):
        ScrambleSeed(-1)
    with pytest.raises(ContractError):
        ScrambleSeed(2**64)
    with pytest.raises(ContractError):
        ScrambleSeed(0, replicate_index=-1)


# ---------------------------------------------------------------- permutations


def test_permutation_is_a_permutation_of_base_digits():
    for prefix in ([], [0], [1], [0, 1, 1], [1] * 20):
        perm = permutation_for(SEED, 0, prefix)
        assert sorted(perm) == [0, 1]


def test_permutation_rejects_bad_prefix():
    with pytest.raises(ContractError):
        permutation_for(SEED, 0, [0, 2])
    with pytest.raises(ContractError):
        permutation_for(SEED, 0, [0] * 64)


def test_permutation_deterministic_across_calls():
    p1 = permutation_for(ScrambleSeed(7, 3), 5, [1, 0, 1])
    p2 = permutation_for(ScrambleSeed(7, 3), 5, [1, 0, 1])
    assert p1 == p2


def swap_bits(seed: ScrambleSeed, dim: int, k: int, prefixes: np.ndarray) -> np.ndarray:
    """Vectorized swap bit at digit k for packed (k-1)-digit prefixes."""
    from rqmc.scrambling import _dim_key

    key = np.uint64(_mix(_dim_key(seed, dim) ^ k))
    with np.errstate(over="ignore"):
        return (_mix_vec(prefixes.astype(np.uint64) ^ key) & np.uint64(1)).astype(int)


def test_swap_fraction_near_half():
    n = 10**5
    prefixes = np.arange(n)
    bits = swap_bits(SEED, 0, 18, prefixes)
    frac = bits.mean()
    assert 0.497 <= frac <= 0.503, frac
    # and the vector path matches the scalar reference on a sample
    for p in (0, 1, 999, 54321):
        expect = permutation_for(SEED, 0, digits_of(p, 17))
        assert bits[p] == (expect == (1, 0))


def test_replicates_agree_about_half_the_time():
    n = 10**5
    prefixes = np.arange(n)
    a = swap_bits(ScrambleSeed(9, 0), 2, 9, prefixes)
    b = swap_bits(ScrambleSeed(9, 1), 2, 9, prefixes)
    agree = (a == b).mean()
    assert 0.49 <= agree <= 0.51, agree
    assert not np.array_equal(a, b)


# ---------------------------------------------------------------- scramble


def test_scramble_deterministic_and_replicates_differ():
    net = generate_net(5, 3)
    s1 = scramble(net, ScrambleSeed(42, 0))
    s2 = scramble(net, ScrambleSeed(42, 0))
    s3 = scramble(net, ScrambleSeed(42, 1))
    assert np.array_equal(s1.ints, s2.ints)
    assert not np.array_equal(s1.ints, s3.ints)


def test_scramble_matches_digitwise_permutations():
    # the array implementation must realize exactly the permutation tree
    # that permutation_for describes
    depth = 8
    pts = PointSet(np.array([[0], [173], [255], [64]], dtype=np.uint64), depth)
    out = scramble(pts, SEED, depth=depth)
    for i in range(pts.n):
        a = digits_of(int(pts.ints[i, 0]), depth)
        b = digits_of(int(out.ints[i, 0]), depth)
        for k in range(depth):
            perm = permutation_for(SEED, 0, a[:k])
            assert b[k] == perm[a[k]], (i, k)


def test_scramble_prefix_sharing():
    # nested property: points sharing p leading digits share exactly p
    # scrambled leading digits (they diverge where the inputs diverge)
    depth_in, depth_out = 16, 32
    for p in (0, 1, 7, 15):
        a = 0b1011001110001101 & ~((1 << (16 - p)) - 1)
        b = a | (1 << (15 - p))  # differs from a at digit p+1
        pts = PointSet(np.array([[a], [b]], dtype=np.uint64), depth_in)
        out = scramble(pts, SEED, depth=depth_out)
        x, y = int(out.ints[0, 0]), int(out.ints[1, 0])
        shared = 32 - (x ^ y).bit_length()
        assert shared == p, p


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**64 - 1), st.integers(0, 63))
def test_scramble_preserves_net_property(master, rep):
    net = generate_net(6, 2)
    s = scramble(net, ScrambleSeed(master, rep))
    assert s.depth == DEFAULT_DEPTH
    assert verify_net(s, 0, 6).passed


def test_scramble_preserves_higher_dim_net():
    net = generate_net(7, 4)
    s = scramble(net, ScrambleSeed(2024))
    assert verify_net(s, 3, 7).passed


def test_scramble_keeps_points_distinct():
    net = generate_net(8, 1)
    s = scramble(net, ScrambleSeed(5))
    assert len(np.unique(s.ints[:, 0])) == 256


def test_identity_prefix_hook():
    pts = PointSet(np.array([[3, 9], [0, 15], [7, 2]], dtype=np.uint64), 4)
    s = scramble(pts, ScrambleSeed(3), identity_prefix=True)
    # represented digits unchanged, filler appended below them
    assert np.array_equal(s.ints >> np.uint64(s.depth - pts.depth), pts.ints)
    assert np.all(s.coords >= pts.coords)
    assert np.all(s.coords - pts.coords < 2.0**-pts.depth)


def test_scramble_outputs_open_interval():
    net = generate_net(4, 3)
    for master in range(200):
        u = scramble(net, ScrambleSeed(master)).coords
        assert np.all(u > 0.0) and np.all(u < 1.0)


def test_filler_redraw_keeps_outputs_open_and_distinct():
    # one input digit scrambled to two output digits: a quarter of the draws
    # land on 0.0 and take the salted filler redraw
    pts = PointSet(np.array([[0], [1]], dtype=np.uint64), 1)
    for master in range(50):
        s = scramble(pts, ScrambleSeed(master), depth=2)
        assert np.all(s.coords > 0.0) and np.all(s.coords < 1.0)
        assert s.ints[0, 0] >> np.uint64(1) != s.ints[1, 0] >> np.uint64(1)
        assert np.array_equal(s.ints, scramble(pts, ScrambleSeed(master), depth=2).ints)


def test_scramble_depth_contract():
    pts = PointSet(np.array([[3]], dtype=np.uint64), 8)
    with pytest.raises(ContractError):
        scramble(pts, SEED, depth=4)
    with pytest.raises(ContractError):
        scramble(pts, SEED, depth=65)


def test_scrambled_origin_is_uniform():
    # the image of a single fixed point under independent scrambles is
    # exactly U(0,1); check with a KS test across seeds
    origin = PointSet(np.zeros((1, 1), dtype=np.uint64), 1)
    vals = np.array(
        [scramble(origin, ScrambleSeed(s)).coords[0, 0] for s in range(2000)]
    )
    assert stats.kstest(vals, "uniform").pvalue > 1e-3


def test_scrambled_replicates_of_point_are_uniform():
    pts = PointSet(np.array([[11, 4]], dtype=np.uint64), 4)
    vals = np.array(
        [scramble(pts, ScrambleSeed(77, r)).coords[0] for r in range(2000)]
    )
    for j in range(2):
        assert stats.kstest(vals[:, j], "uniform").pvalue > 1e-3


# ---------------------------------------------------------------- uniform baseline


def test_uniform_points_deterministic():
    a = uniform_points(SEED, 100, 4)
    b = uniform_points(SEED, 100, 4)
    assert np.array_equal(a, b)
    c = uniform_points(ScrambleSeed(12345, 1), 100, 4)
    assert not np.array_equal(a, c)


def test_uniform_points_open_interval_and_shape():
    u = uniform_points(ScrambleSeed(0), 10**4, 3)
    assert u.shape == (10**4, 3)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    assert uniform_points(SEED, 0, 2).shape == (0, 2)


def test_uniform_points_prefix_is_one_stream():
    # studies read every smaller n off the prefix of one draw
    assert np.array_equal(uniform_points(SEED, 5, 3), uniform_points(SEED, 10, 3)[:5])


def test_uniform_points_pass_ks():
    u = uniform_points(ScrambleSeed(31337), 20000, 2)
    for j in range(2):
        assert stats.kstest(u[:, j], "uniform").pvalue > 1e-3


def test_uniform_points_validation():
    with pytest.raises(ContractError):
        uniform_points(SEED, -1, 2)
    with pytest.raises(ContractError):
        uniform_points(SEED, 5, 0)
