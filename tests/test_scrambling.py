"""Nested uniform scrambling: law, determinism, and net preservation."""

import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from goldens import LONG_FORM_SHA256, long_form_digest

from rqmc import scrambling
from rqmc.digital_nets import (
    PRECISION_DEPTH,
    PointSet,
    generate_net,
    generate_points,
    verify_net,
)
from rqmc.errors import ContractError
from rqmc.scrambling import (
    _GOLDEN,
    ScrambleSeed,
    _dim_key,
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
    # that permutation_for describes, on all 64 output digits
    pts = PointSet(np.array([[0], [173], [255], [64]], dtype=np.uint64), 8)
    out = scramble(pts, SEED)
    assert out.depth == 64
    for i in range(pts.n):
        a = digits_of(int(pts.ints[i, 0]) << 56, 64)
        b = digits_of(int(out.ints[i, 0]), 64)
        for k in range(64):
            perm = permutation_for(SEED, 0, a[:k])
            assert b[k] == perm[a[k]], (i, k)


def assert_digitwise(points: PointSet, out: PointSet, rows) -> None:
    """Every digit of the given output rows is the permutation_for image of
    the input digit under its prefix."""
    depth = out.depth
    for j in range(points.d):
        for i in rows:
            a = digits_of(int(points.ints[i, j]) << (depth - points.depth), depth)
            b = digits_of(int(out.ints[i, j]), depth)
            for k in range(depth):
                assert b[k] == permutation_for(SEED, j, a[:k])[a[k]], (depth, j, i, k)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 1000])
def test_short_columns_match_digitwise_permutations(n):
    # n = 1 and 2 take the leading digits from a one- and two-entry node
    # table, n = 3, 5 and 1000 from a table with fewer entries than rows
    pts = generate_points(range(n), 2)
    rows = range(n) if n <= 5 else (0, 1, 2, 511, 512, 513, 777, 998, 999)
    assert_digitwise(pts, scramble(pts, SEED), rows)


def test_scramble_of_no_points():
    out = scramble(generate_points([], 3), SEED)
    assert out.ints.shape == (0, 3) and out.depth == 64


def test_repeated_rows_scramble_identically():
    # more rows than distinct prefixes: the node table has more levels
    # (n.bit_length() = 3) than a depth-2 input has digits
    ints = np.array([[0, 3], [3, 1], [1, 1], [3, 1], [0, 3], [0, 3]], dtype=np.uint64)
    for in_depth in (2, 53):
        pts = PointSet(ints << np.uint64(in_depth - 2), in_depth)
        out = scramble(pts, SEED)
        assert_digitwise(pts, out, range(pts.n))
        for i, k in ((0, 4), (0, 5), (1, 3)):
            assert np.array_equal(out.ints[i], out.ints[k]), in_depth


def test_long_columns_match_digitwise_permutations():
    # the golden-byte tests run at n <= 1024; the kernel must realize the
    # same tree on a longer column too, on every digit, filler included
    net = generate_net(12, 3)
    assert_digitwise(net, scramble(net, SEED), (0, 1, 777, 2048, 4095))


def test_long_form_golden_bits():
    for k, expected in enumerate(LONG_FORM_SHA256):
        assert long_form_digest(k) == expected, k


def test_concurrent_scrambles_match_serial():
    # callers on several threads at once, more threads than cores, each
    # get exactly the serial bits of their own seed: the study engine
    # scrambles its replicates concurrently
    net = generate_net(13, 3)
    seeds = [ScrambleSeed(7, k) for k in range(4)]
    serial = [scramble(net, seed).ints for seed in seeds]
    results: list = [None] * len(seeds)
    start = threading.Barrier(len(seeds))

    def worker(i: int) -> None:
        start.wait(timeout=30)
        results[i] = scramble(net, seeds[i]).ints

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for got, want in zip(results, serial):
        assert got is not None and np.array_equal(got, want)


def test_scramble_prefix_sharing():
    # nested property: points sharing p leading digits share exactly p
    # scrambled leading digits (they diverge where the inputs diverge)
    for p in (0, 1, 7, 15):
        a = 0b1011001110001101 & ~((1 << (16 - p)) - 1)
        b = a | (1 << (15 - p))  # differs from a at digit p+1
        pts = PointSet(np.array([[a], [b]], dtype=np.uint64), 16)
        out = scramble(pts, SEED)
        x, y = int(out.ints[0, 0]), int(out.ints[1, 0])
        shared = 64 - (x ^ y).bit_length()
        assert shared == p, p


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 2**64 - 1), st.integers(0, 63))
def test_scramble_preserves_net_property(master, rep):
    net = generate_net(6, 2)
    s = scramble(net, ScrambleSeed(master, rep))
    assert s.depth == 64
    assert verify_net(s, 0, 6).passed


def test_scramble_preserves_higher_dim_net():
    net = generate_net(7, 4)
    s = scramble(net, ScrambleSeed(2024))
    assert verify_net(s, 3, 7).passed


def test_scramble_keeps_points_distinct():
    net = generate_net(8, 1)
    s = scramble(net, ScrambleSeed(5))
    assert len(np.unique(s.ints[:, 0])) == 256


def test_scramble_outputs_open_interval():
    net = generate_net(4, 3)
    for master in range(200):
        u = scramble(net, ScrambleSeed(master)).coords
        assert np.all(u > 0.0) and np.all(u < 1.0)


def from_digits(digits: list[int]) -> int:
    return int("".join(map(str, digits)), 2)


def preimage(seed: ScrambleSeed, depth: int, digit: int) -> int:
    """The input of ``depth`` digits whose scrambled digits 1..depth in
    dimension 0 all equal ``digit``."""
    a: list[int] = []
    for _ in range(depth):
        a.append(permutation_for(seed, 0, a).index(digit))
    return from_digits(a)


def crafted(seed: ScrambleSeed, depth: int, *digits: int) -> PointSet:
    """One row per ``digit``: its ``preimage`` at ``depth``."""
    rows = [[preimage(seed, depth, digit)] for digit in digits]
    return PointSet(np.array(rows, dtype=np.uint64), depth)


def redraw_bit(seed: ScrambleSeed, dim: int, k: int, prefix: int, salt: int) -> int:
    """Scalar swap bit of digit k under a salted key."""
    hj = _dim_key(seed, dim)
    return _mix(_mix(_mix(k ^ hj) ^ salt * _GOLDEN) ^ prefix) & 1


def oracle_scramble(seed: ScrambleSeed, a: int) -> tuple[int, int]:
    """Scalar scramble of the 53-digit input ``a`` in dimension 0, and the
    salt that ends its filler redraw: digits 1..64 from permutation_for,
    then filler digits 54..64 redrawn with salt 1, 2, ... while the value
    rounds to 0.0 or 1.0."""
    a_digits = digits_of(a << 11, 64)
    out = [permutation_for(seed, 0, a_digits[:k])[a_digits[k]] for k in range(64)]
    salt = 0
    while float(from_digits(out)) in (0.0, 2.0**64):
        salt += 1
        out[53:] = [redraw_bit(seed, 0, k, a << (k - 54), salt) for k in range(54, 65)]
    return from_digits(out), salt


def zero_redraw_masters(count: int) -> list[int]:
    """Master seeds below ``count`` whose all-zeros input (``preimage`` at
    depth 53 and digit 0) has eleven unsalted filler digits 0 as well, so
    its scramble is exactly 0 before the redraw.  The swap bits are the
    ``swap_bits`` formula, vectorized over seeds."""
    hj = np.array([_dim_key(ScrambleSeed(m), 0) for m in range(count)], np.uint64)
    a = np.zeros(count, dtype=np.uint64)
    filler = np.zeros(count, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for k in range(1, 65):
            prefix = a << np.uint64(max(k - 54, 0))
            bit = _mix_vec(_mix_vec(hj ^ np.uint64(k)) ^ prefix) & np.uint64(1)
            if k <= 53:
                a = (a << np.uint64(1)) | bit
            else:
                filler |= bit
    return np.flatnonzero(filler == 0).tolist()


def test_filler_redraw_keeps_outputs_open_and_distinct():
    # a 53-digit input scrambled to all ones takes the salted filler
    # redraw for about half the seeds: digit 54 rounds it up to 1.0
    for master in range(50):
        seed = ScrambleSeed(master)
        pts = crafted(seed, 53, 1, 0)
        s = scramble(pts, seed)
        assert np.all(s.coords > 0.0) and np.all(s.coords < 1.0)
        assert s.ints[0, 0] >> np.uint64(11) != s.ints[1, 0] >> np.uint64(11)
        assert np.array_equal(s.ints, scramble(pts, seed).ints)


def test_filler_redraw_bits_match_scalar_oracle():
    # the whole redraw loop on crafted 53-digit inputs: all-ones inputs
    # redraw for about half the seeds, all-zeros inputs for the seeds
    # whose filler digits are all 0 too; the salt that ends the loop shows
    # in the output
    redrawn = 0
    for master in range(50):
        seed = ScrambleSeed(master)
        pts = crafted(seed, 53, 1)
        expect, salt = oracle_scramble(seed, int(pts.ints[0, 0]))
        assert int(scramble(pts, seed).ints[0, 0]) == expect, master
        redrawn += salt > 0
    assert redrawn > 10
    masters = zero_redraw_masters(2**15)
    assert len(masters) > 10
    for master in masters:
        seed = ScrambleSeed(master)
        pts = crafted(seed, 53, 0)
        expect, salt = oracle_scramble(seed, int(pts.ints[0, 0]))
        assert salt > 0, master
        assert int(scramble(pts, seed).ints[0, 0]) == expect, master


def test_swap_mask_matches_scalar_formula():
    # all 64 digits, salted (the filler redraw's keys) and unsalted, on
    # random odd columns of 1, 3 and 300 rows, whose leading digits come
    # from node tables of 1, 2 and 9 levels
    rng = np.random.default_rng(11)
    col = rng.integers(0, 2**63, 300, dtype=np.uint64) * np.uint64(2) + np.uint64(1)
    hj = _dim_key(SEED, 2)
    for salt in (0, 1, 5):
        keys = [_mix(k ^ hj) for k in range(1, 65)]
        if salt:
            keys = [_mix(key ^ salt * _GOLDEN) for key in keys]
        for rows in (1, 3, 300):
            mask = scrambling._swap_mask(col[:rows], hj, salt).tolist()
            for x, got in zip(col.tolist(), mask):
                expect = 0
                for k, key in enumerate(keys, start=1):
                    expect |= (_mix(key ^ (x >> (65 - k))) & 1) << (64 - k)
                assert got == expect, (salt, rows, x)


def test_scramble_depth_contract():
    # at most 53 digits in, 64 out.  Past 53, digit 54 is an input digit
    # that the filler redraw cannot move: all-ones inputs of depth 54 and
    # 60 looped forever, and depth-64 all-ones and all-zeros inputs came
    # out as exactly 1.0 and 0.0
    seed = ScrambleSeed(0)
    out = scramble(crafted(seed, PRECISION_DEPTH, 1, 0), seed)
    assert out.depth == 64
    assert np.all(out.coords > 0.0) and np.all(out.coords < 1.0)
    for depth, digit in ((54, 1), (60, 1), (64, 1), (64, 0)):
        pts = crafted(seed, depth, digit)
        with pytest.raises(ContractError, match=f"input depth {depth} exceeds 53"):
            scramble(pts, seed)


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
    # studies read every smaller n off the prefix of one draw, and draw it a
    # block at a time
    whole = uniform_points(SEED, 10, 3)
    assert np.array_equal(uniform_points(SEED, 5, 3), whole[:5])
    for start, n in ((0, 10), (3, 4), (7, 3), (10, 0)):
        assert np.array_equal(uniform_points(SEED, n, 3, start), whole[start : start + n])
    # the last indices of the stream, against the scalar hash of the index
    start = 2**64 - 2
    top = uniform_points(SEED, 2, 3, start)
    base = SEED._key(scrambling._DOMAIN_UNIFORM)
    for j in range(3):
        key = scrambling._mix(base ^ (j + 1) * scrambling._GOLDEN)
        for i in range(2):
            h = scrambling._mix((start + i) ^ key)
            assert top[i, j] == ((h >> 12) + 0.5) * 2.0**-52


def test_uniform_points_pass_ks():
    u = uniform_points(ScrambleSeed(31337), 20000, 2)
    for j in range(2):
        assert stats.kstest(u[:, j], "uniform").pvalue > 1e-3


def test_uniform_points_validation():
    with pytest.raises(ContractError):
        uniform_points(SEED, -1, 2)
    with pytest.raises(ContractError):
        uniform_points(SEED, 5, 0)
    for start, n in ((-1, 5), (2**64 - 4, 5), (2**64, 0)):
        with pytest.raises(ContractError, match="2\\^64"):
            uniform_points(SEED, n, 2, start)


def test_uniform_points_match_scalar_formula():
    # coordinate j of point i hashes i with the dimension key of the
    # uniform domain, written out here from the scalar finalizer
    seed, start = ScrambleSeed(77, 3), 2**40 - 3
    u = uniform_points(seed, 6, 3, start)
    base = seed._key(scrambling._DOMAIN_UNIFORM)
    for i in range(6):
        for j in range(3):
            h = _mix((start + i) ^ _mix(base ^ (j + 1) * _GOLDEN))
            assert u[i, j] == ((h >> 12) + 0.5) * 2.0**-52, (i, j)


@pytest.mark.parametrize("m", [0, 1, 2**52 - 1])
def test_uniform_points_float_is_exact(monkeypatch, m):
    # With the hash made the identity and the key 0, index h gives the float
    # of m = h >> 12, which must be (m + 1/2) 2^-52 exactly; the low 12 bits
    # of h are dropped.
    monkeypatch.setattr(scrambling, "_mix_into", lambda x, tmp: None)
    monkeypatch.setattr(scrambling, "_dim_key", lambda seed, j, domain: 0)
    for low in (0, 0xFFF):
        (u,) = uniform_points(SEED, 1, 1, m << 12 | low)[0]
        assert Fraction(u) == (Fraction(m) + Fraction(1, 2)) * Fraction(1, 2**52)
