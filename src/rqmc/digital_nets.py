"""Base-2 digital sequences and exhaustive net verification.

Generates the first ``2^m`` points of a base-2 digital sequence (van der
Corput in dimension 1, direction-number construction above it) and checks
the defining property of a quality-``t`` net directly: every base-``b``
elementary interval of volume ``b^(t-m)`` must contain exactly ``b^t`` of
the ``b^m`` points.

Points are kept as unsigned 64-bit integers holding the leading base-2
digits of each coordinate, so interval membership is exact bit arithmetic
rather than float comparison.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from typing import Iterator, Sequence

import numpy as np

from .errors import CapacityError, ContractError

# Digits produced per coordinate; 53 keeps every generated coordinate an
# exactly representable binary64 value.
PRECISION_DEPTH = 53

_DATA_FILE = "joe_kuo_64.txt"

# Most point-in-cell tests one exhaustive net verification may make.
_VERIFY_BUDGET = 10**8


class DirectionTable:
    """Per-dimension generator data parsed from a direction-number file.

    File format (whitespace separated, ``#`` starts a comment line), one
    line per dimension ``d >= 2``::

        d  s  a  m_1 m_2 ... m_s

    where ``s`` is the degree of a primitive polynomial over GF(2), ``a``
    packs its middle coefficients, and the ``m_i`` are odd initial
    direction integers with ``m_i < 2^i``.  Dimension 1 is the van der
    Corput identity and carries no line.
    """

    def __init__(self, rows: dict[int, tuple[int, int, list[int]]]):
        self._rows = rows
        self.max_dim = max(rows) if rows else 1
        self._cache: dict[int, np.ndarray] = {}

    @classmethod
    def from_text(cls, text: str) -> "DirectionTable":
        rows: dict[int, tuple[int, int, list[int]]] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 4:
                raise ValueError(f"direction-number line {lineno}: too few fields")
            d, s, a = int(parts[0]), int(parts[1]), int(parts[2])
            ms = [int(x) for x in parts[3:]]
            if len(ms) != s:
                raise ValueError(
                    f"direction-number line {lineno}: expected {s} initial "
                    f"integers, got {len(ms)}"
                )
            for i, m in enumerate(ms, start=1):
                if m % 2 == 0 or not 0 < m < 2**i:
                    raise ValueError(
                        f"direction-number line {lineno}: m_{i}={m} is not an "
                        f"odd integer below 2^{i}"
                    )
            rows[d] = (s, a, ms)
        return cls(rows)

    def direction_integers(self, d: int) -> np.ndarray:
        """Direction integers ``V[j, k]`` scaled to ``PRECISION_DEPTH`` digits.

        ``V[j, k]`` is the generator column for digit ``k+1`` of dimension
        ``j+1``; a point with index ``i`` is the XOR of the columns picked
        by the set bits of ``i``.
        """
        if d < 1:
            raise ContractError("dimension must be >= 1")
        if d > self.max_dim:
            raise CapacityError(
                f"dimension {d} exceeds the bundled direction-number table "
                f"(max {self.max_dim})"
            )
        if d not in self._cache:
            depth = PRECISION_DEPTH
            v = np.zeros((d, depth), dtype=np.uint64)
            # Dimension 1: identity generator matrix (van der Corput).
            v[0, :] = [1 << (depth - k) for k in range(1, depth + 1)]
            for j in range(2, d + 1):
                s, a, m_init = self._rows[j]
                m = list(m_init)
                for k in range(s, depth):
                    # m_k = 2 a_1 m_{k-1} ^ ... ^ 2^{s-1} a_{s-1} m_{k-s+1}
                    #       ^ 2^s m_{k-s} ^ m_{k-s}
                    new = m[k - s] ^ (m[k - s] << s)
                    for i in range(1, s):
                        if (a >> (s - 1 - i)) & 1:
                            new ^= m[k - i] << i
                    m.append(new)
                v[j - 1, :] = [m[k] << (depth - 1 - k) for k in range(depth)]
            self._cache[d] = v
        return self._cache[d]


_default_table: DirectionTable | None = None


def load_direction_numbers() -> DirectionTable:
    """Parse the bundled direction-number file (cached)."""
    global _default_table
    if _default_table is None:
        text = resources.files("rqmc.data").joinpath(_DATA_FILE).read_text()
        _default_table = DirectionTable.from_text(text)
    return _default_table


@dataclass
class PointSet:
    """Points in [0,1)^d with exact digit representation.

    ``ints[i, j] / 2^depth`` is coordinate ``j`` of point ``i``; digits
    beyond ``depth`` are zero.
    """

    ints: np.ndarray  # (n, d) uint64
    depth: int

    def __post_init__(self):
        self.ints = _as_uint64(self.ints, "point integers")
        if self.ints.ndim != 2:
            raise ContractError("point integers must be a 2-d array")
        if not 1 <= self.depth <= 64:
            raise ContractError("depth must be in 1..64")
        if self.depth < 64 and self.ints.size:
            if int(self.ints.max()) >> self.depth:
                raise ContractError("digit integer exceeds the declared depth")

    @property
    def n(self) -> int:
        return self.ints.shape[0]

    @property
    def d(self) -> int:
        return self.ints.shape[1]

    @property
    def coords(self) -> np.ndarray:
        """Coordinates as float64, correctly rounded from the digit string."""
        return self.ints.astype(np.float64) * 2.0 ** -self.depth

    def __len__(self) -> int:
        return self.n


@dataclass(frozen=True)
class ElementaryInterval:
    """Half-open box prod_i [c_i/b^k_i, (c_i+1)/b^k_i) in base b."""

    digit_counts: tuple[int, ...]
    cells: tuple[int, ...]
    b: int = 2

    def __post_init__(self):
        for k, c in zip(self.digit_counts, self.cells):
            if k < 0 or not 0 <= c < self.b**k:
                raise ContractError("cell index out of range for digit count")

    @property
    def volume(self) -> float:
        return float(self.b) ** -sum(self.digit_counts)

    @property
    def lower(self) -> np.ndarray:
        return np.array(
            [c / self.b**k for k, c in zip(self.digit_counts, self.cells)]
        )

    @property
    def upper(self) -> np.ndarray:
        return np.array(
            [(c + 1) / self.b**k for k, c in zip(self.digit_counts, self.cells)]
        )

    def contains(self, u: Sequence[float]) -> bool:
        return bool(np.all(self.lower <= u) and np.all(u < self.upper))


def radical_inverse(i: int, b: int) -> float:
    """Digit-reversed fraction of ``i`` in base ``b``.

    Exact integer digit reversal followed by one correctly rounded
    division, so indices below ``b^53`` stay distinct in dimension one.
    """
    if i < 0:
        raise ContractError("index must be >= 0")
    if b < 2:
        raise ContractError("base must be >= 2")
    rev, scale = 0, 1
    while i > 0:
        i, digit = divmod(i, b)
        rev = rev * b + digit
        scale *= b
    return rev / scale


def _as_uint64(values, what: str) -> np.ndarray:
    """``values`` as a contiguous uint64 array, if they are integers >= 0.

    A cast alone would truncate fractions and wrap negatives; an empty
    array of any dtype is accepted.
    """
    arr = np.asarray(values)
    if arr.size:
        if arr.dtype.kind not in "iu":
            raise ContractError(
                f"{what} must be integers in 0..2^64-1, got dtype {arr.dtype}"
            )
        if arr.dtype.kind == "i" and arr.min() < 0:
            raise ContractError(f"{what} must be >= 0, got {int(arr.min())}")
    return np.ascontiguousarray(arr, dtype=np.uint64)


def generate_points(indices: np.ndarray | Sequence[int], d: int) -> PointSet:
    """Points of the base-2 digital sequence at the given index positions.

    Point ``i`` is the XOR of the generator columns picked by the set bits
    of ``i``.  Each byte of the index picks one row of a 256-row table of
    the XORs of that byte's eight columns, built by doubling, so a point
    is the XOR of at most seven table rows.
    """
    idx = _as_uint64(indices, "indices")
    if idx.ndim != 1:
        raise ContractError("indices must be one-dimensional")
    v = load_direction_numbers().direction_integers(d)
    out = np.zeros((idx.size, d), dtype=np.uint64)
    if idx.size:
        nbits = int(idx.max()).bit_length()
        if nbits > PRECISION_DEPTH:
            raise CapacityError(
                f"index {int(idx.max())} needs {nbits} digits, above the "
                f"{PRECISION_DEPTH}-digit precision"
            )
        for low in range(0, nbits, 8):
            table = np.zeros((1, d), dtype=np.uint64)
            for bit in range(low, min(low + 8, nbits)):
                table = np.concatenate([table, table ^ v[:, bit]])
            rows = ((idx >> np.uint64(low)) & np.uint64(255)).astype(np.intp)
            out ^= np.take(table, rows, axis=0)
    return PointSet(out, PRECISION_DEPTH)


def generate_net(m: int, d: int) -> PointSet:
    """First ``2^m`` sequence points in ``d`` dimensions, in natural index order."""
    if m < 0:
        raise ContractError("m must be >= 0")
    if d < 1:
        raise ContractError("dimension must be >= 1")
    if m > PRECISION_DEPTH:
        raise CapacityError(f"m={m} exceeds {PRECISION_DEPTH}-digit precision")
    return generate_points(np.arange(2**m, dtype=np.uint64), d)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All (k_1..k_parts) with sum == total, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def locate_cell(
    point: Sequence[float], shape: Sequence[int], b: int = 2
) -> tuple[int, ...]:
    """Cell indices of the shape-(k_1..k_d) elementary interval holding ``point``."""
    cells = []
    for u, k in zip(point, shape):
        if not 0.0 <= u < 1.0:
            raise ContractError(f"coordinate {u!r} outside [0,1)")
        cells.append(min(int(math.floor(u * b**k)), b**k - 1))
    return tuple(cells)


def _cell_columns(points, shape: Sequence[int], b: int) -> list[np.ndarray]:
    """Per-dimension cell indices for every point, as integer arrays."""
    if isinstance(points, PointSet) and b == 2:
        cols = []
        for j, k in enumerate(shape):
            if k == 0:
                cols.append(np.zeros(points.n, dtype=np.int64))
            else:
                cols.append(
                    (points.ints[:, j] >> np.uint64(points.depth - k)).astype(np.int64)
                )
        return cols
    coords = points.coords if isinstance(points, PointSet) else np.asarray(points)
    return [
        np.minimum(np.floor(coords[:, j] * b**k).astype(np.int64), b**k - 1)
        for j, k in enumerate(shape)
    ]


@dataclass
class VerifyResult:
    passed: bool
    violation: ElementaryInterval | None
    expected_count: int
    observed_count: int | None
    shapes_checked: int

    def __bool__(self) -> bool:
        return self.passed


def verify_net(
    points, t: int, m: int, d: int | None = None, b: int = 2
) -> VerifyResult:
    """Exhaustively test the quality-``t`` net property of ``b^m`` points.

    Enumerates every shape ``(k_1..k_d)`` with ``sum k_i = m - t`` and
    counts the points in each of its ``b^(m-t)`` cells; each must hold
    exactly ``b^t`` points.  On failure the first violating interval in
    lexicographic shape/cell order is reported.

    This is a test oracle, exponential in ``m - t``: an input needing more
    than ``_VERIFY_BUDGET`` (10^8) point-in-cell tests is a `CapacityError`
    before any cell is counted.

    Parameters
    ----------
    points : PointSet or (n, d) float array
        Exactly ``b^m`` points in ``[0,1)^d``.
    t, m : int
        Net quality and size parameters, ``0 <= t <= m``.
    d : int, optional
        Dimension; inferred from ``points`` when omitted.
    b : int
        Base, ``b >= 2``.
    """
    if b < 2:
        raise ContractError("base must be >= 2")
    if isinstance(points, PointSet):
        n, pd = points.n, points.d
    else:
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points[:, None]
        n, pd = points.shape
        # written so that NaN, which fails every comparison, is rejected too
        if not np.all((points >= 0.0) & (points < 1.0)):
            raise ContractError("coordinates must lie in [0,1)")
    d = pd if d is None else d
    if d != pd:
        raise ContractError(f"points have dimension {pd}, expected {d}")
    if t < 0 or m < 0 or t > m:
        raise ContractError(f"need 0 <= t <= m, got t={t}, m={m}")
    if m > max(n, 1).bit_length():  # then b^m > 2n for every b >= 2: not built
        raise ContractError(f"m={m} is too large for {n} points: b^m > {n}")
    if m >= 1 and b > n:  # b is not formatted: it may have thousands of digits
        raise ContractError(f"base is too large for {n} points at m={m}: b^m > {n}")
    if n != b**m:
        raise ContractError(f"expected {b**m} points for m={m}, got {n}")

    q = m - t
    n_shapes = math.comb(q + d - 1, d - 1)
    if n_shapes * n > _VERIFY_BUDGET:
        raise CapacityError(
            f"exhaustive verification needs {n_shapes * n:.3g} point-cell "
            f"tests, above the budget of {_VERIFY_BUDGET:.3g}"
        )

    expected = b**t
    shapes_checked = 0
    for shape in _compositions(q, d):
        # mixed-radix cell index; np.ravel_multi_index caps axes below d = 64
        cols = _cell_columns(points, shape, b)
        flat = np.zeros(n, dtype=np.int64)
        for k, col in zip(shape, cols):
            flat = flat * b**k + col
        counts = np.bincount(flat, minlength=b**q)
        shapes_checked += 1
        if not np.all(counts == expected):
            bad = int(np.argmin(counts == expected))
            cells = []
            rem = bad
            for k in reversed(shape):
                rem, c = divmod(rem, b**k)
                cells.append(c)
            cells.reverse()
            return VerifyResult(
                passed=False,
                violation=ElementaryInterval(shape, tuple(cells), b),
                expected_count=expected,
                observed_count=int(counts[bad]),
                shapes_checked=shapes_checked,
            )
    return VerifyResult(
        passed=True,
        violation=None,
        expected_count=expected,
        observed_count=None,
        shapes_checked=shapes_checked,
    )


def certify_t(d: int, m_max: int) -> int:
    """Smallest ``t`` for which the first ``2^m`` points pass verification
    for every ``m`` in ``t..m_max``.

    The generator's quality parameter is a property of its direction
    numbers; it is measured here rather than assumed.
    """
    full = generate_net(m_max, d)
    for t in range(m_max + 1):
        ok = True
        for m in range(t, m_max + 1):
            prefix = PointSet(full.ints[: 2**m], full.depth)
            if not verify_net(prefix, t, m, d):
                ok = False
                break
        if ok:
            return t
    raise RuntimeError(f"no t <= {m_max} certified for dimension {d}")
