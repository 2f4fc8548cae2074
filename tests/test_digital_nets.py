"""Generation and exhaustive verification of base-2 digital nets."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqmc.digital_nets import (
    PRECISION_DEPTH,
    DirectionTable,
    ElementaryInterval,
    PointSet,
    _cell_columns,
    certify_t,
    generate_net,
    generate_points,
    load_direction_numbers,
    locate_cell,
    radical_inverse,
    verify_net,
)
from rqmc.errors import CapacityError, ContractError

# Net quality certified for the bundled table (m up to 10); measured, not
# assumed, and pinned here so a table regression is caught.
CERTIFIED_T = {1: 0, 2: 0, 3: 1, 4: 3, 5: 3, 6: 4}


# ---------------------------------------------------------------- radical inverse


def brute_digit_reversal(i: int, b: int) -> float:
    digits = []
    while i:
        i, r = divmod(i, b)
        digits.append(r)
    return sum(dig * b ** -(k + 1) for k, dig in enumerate(digits))


def test_radical_inverse_basic_values():
    assert radical_inverse(0, 2) == 0.0
    assert radical_inverse(1, 2) == 0.5
    assert radical_inverse(3, 2) == 0.75


@given(st.integers(0, 10**6), st.integers(2, 7))
def test_radical_inverse_matches_brute_force(i, b):
    assert radical_inverse(i, b) == pytest.approx(brute_digit_reversal(i, b), abs=1e-15)


def test_radical_inverse_bijection_on_dyadic_grid():
    m = 10
    vals = {radical_inverse(i, 2) for i in range(2**m)}
    assert vals == {k * 2.0**-m for k in range(2**m)}


def test_radical_inverse_rejects_bad_inputs():
    with pytest.raises(ContractError):
        radical_inverse(-1, 2)
    with pytest.raises(ContractError):
        radical_inverse(3, 1)


# ---------------------------------------------------------------- direction table


def test_direction_table_covers_64_dimensions():
    table = load_direction_numbers()
    assert table.max_dim == 64
    v = table.direction_integers(64)
    assert v.shape == (64, PRECISION_DEPTH)
    assert v.dtype == np.uint64


def test_direction_table_rejects_bad_lines():
    with pytest.raises(ValueError, match="too few"):
        DirectionTable.from_text("2 1 0\n")
    with pytest.raises(ValueError, match="expected 2"):
        DirectionTable.from_text("3 2 1 1\n")
    with pytest.raises(ValueError, match="odd"):
        DirectionTable.from_text("2 1 0 2\n")  # m_1 = 2 is even
    with pytest.raises(ValueError, match="odd"):
        DirectionTable.from_text("3 2 1 1 5\n")  # m_2 = 5 >= 2^2


def test_direction_table_comments_and_blank_lines():
    table = DirectionTable.from_text("# header\n\n2 1 0 1\n")
    assert table.max_dim == 2


def test_dimension_beyond_table_is_capacity_error():
    with pytest.raises(CapacityError):
        generate_points(np.arange(4), 65)


# ---------------------------------------------------------------- generation


def test_dimension_one_equals_radical_inverse():
    pts = generate_points(np.arange(256), 1)
    expect = [radical_inverse(i, 2) for i in range(256)]
    assert np.array_equal(pts.coords[:, 0], expect)


def test_m2_d1_net_values():
    net = generate_net(2, 1)
    assert net.coords[:, 0].tolist() == [0.0, 0.5, 0.25, 0.75]


def test_one_point_net_is_origin():
    net = generate_net(0, 3)
    assert net.n == 1
    assert np.all(net.coords == 0.0)


def test_first_points_d2_frozen():
    # leading points of the standard base-2 sequence in natural index order
    pts = generate_points(np.arange(8), 2).coords
    expect = [
        [0.0, 0.0],
        [0.5, 0.5],
        [0.25, 0.75],
        [0.75, 0.25],
        [0.125, 0.625],
        [0.625, 0.125],
        [0.375, 0.375],
        [0.875, 0.875],
    ]
    assert np.array_equal(pts, expect)


def test_matches_external_generator_up_to_gray_order():
    # scipy enumerates the same sequence in Gray-code order: its point i is
    # our point gray(i); the underlying net is identical.
    qmc = pytest.importorskip("scipy.stats.qmc")
    n = 256
    idx = np.arange(n)
    gray = idx ^ (idx >> 1)
    for d in (2, 3, 8, 21):
        ours = generate_points(idx, d).coords
        theirs = qmc.Sobol(d, scramble=False).random(n)
        assert np.allclose(ours[gray], theirs, atol=1e-15), d


def test_coords_are_exact_dyadics():
    pts = generate_points(np.arange(64), 3)
    back = pts.coords * 2.0**PRECISION_DEPTH
    assert np.array_equal(back.astype(np.uint64), pts.ints)


def test_generation_capacity_errors():
    with pytest.raises(CapacityError):
        generate_net(54, 1)
    with pytest.raises(CapacityError):
        generate_points([2**53], 1)  # needs 54 digits
    generate_points([2**53 - 1], 1)  # last representable index is fine


def test_generate_points_rejects_bad_shapes():
    with pytest.raises(ContractError):
        generate_points(np.arange(4).reshape(2, 2), 1)


def test_pointset_validates_depth():
    with pytest.raises(ContractError):
        PointSet(np.array([[4]], dtype=np.uint64), 2)  # 4 >= 2^2
    with pytest.raises(ContractError):
        PointSet(np.array([[0]], dtype=np.uint64), 65)
    ps = PointSet(np.array([[3]], dtype=np.uint64), 2)
    assert ps.coords[0, 0] == 0.75


def test_pointset_rejects_fractional_integers():
    with pytest.raises(ContractError, match="dtype float64"):
        PointSet(np.array([[0.5]]), 1)


def test_pointset_rejects_negative_integers():
    with pytest.raises(ContractError, match="-1"):
        PointSet(np.array([[-1]]), 64)


def test_generate_points_rejects_fractional_index():
    with pytest.raises(ContractError, match="dtype float64"):
        generate_points([1.5], 2)


def test_generate_points_rejects_negative_python_index():
    with pytest.raises(ContractError, match="-1"):
        generate_points([-1], 2)


def test_generate_points_rejects_negative_array_index():
    with pytest.raises(ContractError, match="-1"):
        generate_points(np.array([-1]), 2)


def test_generate_points_is_xor_of_generator_columns():
    # the byte tables give, for any index, the XOR of the generator columns
    # its set bits pick
    rng = np.random.default_rng(3)
    idx = np.concatenate(
        [[0, 1, 255, 256, 2**53 - 1], rng.integers(0, 2**53, 200, dtype=np.uint64)]
    ).astype(np.uint64)
    for d in (1, 3, 8):
        v = load_direction_numbers().direction_integers(d).tolist()
        pts = generate_points(idx, d).ints
        for row, i in zip(pts.tolist(), idx.tolist()):
            expect = [0] * d
            for bit in range(i.bit_length()):
                if i >> bit & 1:
                    expect = [e ^ v[j][bit] for j, e in enumerate(expect)]
            assert row == expect, (d, i)
    assert generate_points([], 2).ints.shape == (0, 2)


# ---------------------------------------------------------------- intervals


def test_elementary_interval_geometry():
    itv = ElementaryInterval((2, 0), (3, 0))
    assert itv.volume == 0.25
    assert itv.lower.tolist() == [0.75, 0.0]
    assert itv.upper.tolist() == [1.0, 1.0]
    assert itv.contains((0.8, 0.2))
    assert not itv.contains((0.5, 0.2))


def test_elementary_interval_rejects_bad_cell():
    with pytest.raises(ContractError):
        ElementaryInterval((1,), (2,))


def test_locate_cell_examples():
    assert locate_cell((0.3,), (1,), 2) == (0,)
    assert locate_cell((0.75, 0.2), (2, 0), 2) == (3, 0)
    assert locate_cell((0.999,), (3,), 2) == (7,)


@given(
    st.lists(st.floats(0, 1, exclude_max=True, allow_nan=False), min_size=1, max_size=4),
    st.data(),
)
def test_locate_cell_point_in_returned_interval(point, data):
    shape = tuple(
        data.draw(st.integers(0, 6), label=f"k{i}") for i in range(len(point))
    )
    cells = locate_cell(point, shape, 2)
    assert ElementaryInterval(shape, cells, 2).contains(point)


@given(st.data())
def test_locate_cell_neighbor_cells_exclude_point(data):
    point = data.draw(
        st.lists(st.floats(0, 1, exclude_max=True, allow_nan=False), min_size=2, max_size=2)
    )
    shape = (data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)))
    cells = locate_cell(point, shape, 2)
    for j in range(2):
        for delta in (-1, 1):
            moved = list(cells)
            moved[j] += delta
            if 0 <= moved[j] < 2 ** shape[j]:
                assert not ElementaryInterval(shape, tuple(moved)).contains(point)


@pytest.mark.parametrize(
    "b, net", [(2, True), (2, False), (3, False)], ids=["net", "float_b2", "float_b3"]
)
def test_cell_columns_match_locate_cell(b, net):
    # locate_cell is the scalar oracle for the cell kernel verify_net counts
    # with: a depth-53 net takes the bit path, a float array the float path
    rng = np.random.default_rng(20260419)
    if net:
        points = generate_net(8, 3)
        assert points.depth == PRECISION_DEPTH
        coords = points.coords
    else:
        points = coords = rng.random((200, 3))
        coords[:3] = [[0.0] * 3, [1 / 3] * 3, [np.nextafter(1.0, 0.0)] * 3]
    max_k = 20 if b == 2 else 12
    for _ in range(10):
        shape = tuple(int(k) for k in rng.integers(0, max_k + 1, size=3))
        cols = _cell_columns(points, shape, b)
        expected = np.array([locate_cell(row, shape, b) for row in coords])
        for j, col in enumerate(cols):
            assert col.tolist() == expected[:, j].tolist(), (shape, j)


# ---------------------------------------------------------------- verification


def test_verify_van_der_corput_prefixes():
    for m in (0, 1, 4, 8):
        pts = generate_points(np.arange(2**m), 1)
        assert verify_net(pts, 0, m).passed


def test_verify_single_point_m0():
    assert verify_net(np.array([[0.3, 0.9]]), 0, 0).passed


def test_verify_identical_points_fails_lexicographically_first():
    pts = np.tile([[0.3, 0.4]], (16, 1))
    res = verify_net(pts, 0, 4)
    assert not res.passed
    # first shape in lexicographic order is (0, 4); its first empty cell is
    # cell 0 of the second coordinate (0.4 lands in cell 6)
    assert res.violation.digit_counts == (0, 4)
    assert res.violation.cells == (0, 0)
    assert res.observed_count == 0
    assert res.expected_count == 1


def test_verify_reports_counts_and_shapes():
    net = generate_net(4, 2)
    res = verify_net(net, 0, 4)
    assert res.passed and res.violation is None
    assert res.shapes_checked == 5  # shapes (0,4),(1,3),(2,2),(3,1),(4,0)


def test_verify_full_table_dimension():
    # d = 64 is above numpy's axis cap for ravel_multi_index: the flat cell
    # index is built without it, so every dimension the table gives verifies
    assert verify_net(generate_net(1, 64), 0, 1).passed
    assert verify_net(generate_net(2, 64), 1, 2).passed
    # base 3, three points: axis 40 puts two points in its middle third and
    # none in the last, so that shape fails first, at the middle cell
    pts = np.tile([[0.1], [0.4], [0.7]], (1, 64))
    assert verify_net(pts, 0, 1, b=3).passed
    pts[2, 40] = 0.5
    res = verify_net(pts, 0, 1, b=3)
    assert not res.passed
    assert res.violation.digit_counts == tuple(int(j == 40) for j in range(64))
    assert res.violation.cells == tuple(int(j == 40) for j in range(64))
    assert (res.observed_count, res.expected_count) == (2, 1)
    assert res.shapes_checked == 64 - 40


def test_verify_wrong_count_is_contract_error_not_fail():
    with pytest.raises(ContractError):
        verify_net(np.zeros((5, 2)), 0, 2)


def test_verify_huge_m_is_rejected_before_any_power():
    # b^m is never built: at m = 20000 its decimal string alone would
    # exceed Python's integer-to-string limit
    with pytest.raises(ContractError, match="m=20000 is too large for 16 points"):
        verify_net(np.zeros((16, 2)), 0, 20000)
    # up to the count's bit length, m still gets the count check
    with pytest.raises(ContractError, match="expected 32 points for m=5, got 17"):
        verify_net(np.zeros((17, 2)), 0, 5)
    with pytest.raises(ContractError, match="m=6 is too large for 17 points"):
        verify_net(np.zeros((17, 2)), 0, 6)


def test_verify_huge_base_is_rejected_before_any_power():
    # a base above the count makes b^m > n at any m >= 1; neither b nor b^m
    # is formatted, as a 4001-digit b^2 would exceed the same limit
    b = 10**4000
    with pytest.raises(ContractError, match="base is too large for 4 points at m=2") as exc:
        verify_net(np.zeros((4, 2)), 0, 2, b=b)
    assert len(str(exc.value)) < 100
    # at m = 0 any base gives one point
    assert verify_net(np.zeros((1, 2)), 0, 0, b=b).passed


def test_verify_rejects_out_of_range_coords():
    with pytest.raises(ContractError):
        verify_net(np.array([[0.5], [1.0]]), 0, 1)


def test_verify_work_budget():
    # 2^14 points in 8 dimensions: C(21, 7) shapes times 2^14 points
    # is about 1.9e9 point-cell tests, above the 10^8 budget
    with pytest.raises(CapacityError, match="budget"):
        verify_net(np.zeros((2**14, 8)), 0, 14)


def test_float_and_exact_paths_agree():
    net = generate_net(6, 3)
    exact = verify_net(net, 1, 6)
    floats = verify_net(net.coords, 1, 6)
    assert exact.passed and floats.passed
    bad = net.coords.copy()
    bad[0] = bad[1]
    exact_b = verify_net(PointSet(net.ints.copy(), net.depth), 1, 6)
    assert exact_b.passed  # untouched copy still passes
    res_f = verify_net(bad, 1, 6)
    assert not res_f.passed


def test_verify_base3_hammersley_net():
    # (i/9, digit-reversed i) is a (0,2,2)-net in base 3
    u = np.array([[i / 9, radical_inverse(i, 3)] for i in range(9)])
    assert verify_net(u, 0, 2, b=3).passed
    v = u.copy()
    v[0] = v[1]
    assert not verify_net(v, 0, 2, b=3).passed


def test_certified_quality_of_bundled_table():
    for d, expect in CERTIFIED_T.items():
        assert certify_t(d, m_max=10) == expect, d


def test_sequence_blocks_are_nets():
    # consecutive index blocks [k 2^m, (k+1) 2^m) of the sequence are nets of
    # the same quality, not just the leading block
    for d in (2, 3, 4):
        t = CERTIFIED_T[d]
        m = 6
        for k in (1, 2, 5, 117):
            idx = np.arange(k * 2**m, (k + 1) * 2**m, dtype=np.uint64)
            pts = generate_points(idx, d)
            assert verify_net(pts, t, m).passed, (d, k)


def test_generate_net_validation():
    with pytest.raises(ContractError):
        generate_net(-1, 1)
    with pytest.raises(ContractError):
        generate_net(2, 0)
