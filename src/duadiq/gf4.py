"""Arithmetic over the 4-element field.

Symbols are encoded as two bits: 0, 1, w (omega), w2 (omega squared) map to
the integers 0, 1, 2, 3.  Bit 0 is the coefficient of 1 and bit 1 the
coefficient of w, so addition is bitwise XOR of symbols.  Vectors and
matrices are plain numpy uint8 arrays of symbols.  Two packed views hold
their bit planes: ``pack_rows`` makes one Python int per row (row reduction,
orthonormalization and polynomial products work on these), and
``pack_planes`` makes the uint64 words of the distance kernels.

All values are immutable by convention: functions never mutate their inputs,
so arrays may be shared freely between callers.
"""

from __future__ import annotations

import numpy as np

from .extfield import _clmul

ZERO, ONE, OMEGA, OMEGA2 = 0, 1, 2, 3

# Multiplication table for GF(4) = GF(2)[w]/(w^2+w+1).
MUL_TABLE = np.array(
    [
        [0, 0, 0, 0],
        [0, 1, 2, 3],
        [0, 2, 3, 1],
        [0, 3, 1, 2],
    ],
    dtype=np.uint8,
)

# conj(x) = x^2 (Frobenius); fixes the prime subfield, swaps w and w^2.
CONJ_TABLE = np.array([0, 1, 3, 2], dtype=np.uint8)


def weight(v: np.ndarray) -> int:
    """Hamming weight: number of nonzero symbols."""
    return int(np.count_nonzero(v))


# ---------------------------------------------------------------------------
# polynomials over GF(4): little-endian uint8 coefficient arrays
# ---------------------------------------------------------------------------

# symbol bytes to the ASCII digits of their low and of their high bit
_LOW_DIGITS = bytes.maketrans(bytes(range(4)), b"0101")
_HIGH_DIGITS = bytes.maketrans(bytes(range(4)), b"0011")


def poly_planes(p: np.ndarray) -> tuple[int, int]:
    """The bit planes (lo, hi) of a polynomial: bit i of lo and of hi holds
    the low and the high bit of coefficient i.  Each plane is read as a
    binary numeral, leading coefficient first."""
    digits = b"0" + np.asarray(p, dtype=np.uint8)[::-1].tobytes()
    return int(digits.translate(_LOW_DIGITS), 2), int(digits.translate(_HIGH_DIGITS), 2)


def planes_poly(lo: int, hi: int) -> np.ndarray:
    """The trimmed coefficient array of bit planes (poly_planes)."""
    length = max(lo.bit_length(), hi.bit_length())
    return unpack_rows([lo | hi << length], length)[0]


def planes_mul(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    """The product of two polynomials on bit planes, three carry-less products.

    (p0 + p1 w)(q0 + q1 w) = (p0 q0 + p1 q1) + (p0 q1 + p1 q0 + p1 q1) w,
    since w^2 = w + 1, and the w-part is (p0 + p1)(q0 + q1) + p0 q0.  Each
    _clmul walks the set bits of its second factor, so put the sparser
    polynomial second.
    """
    (p0, p1), (q0, q1) = p, q
    low = _clmul(p0, q0)
    return low ^ _clmul(p1, q1), _clmul(p0 ^ p1, q0 ^ q1) ^ low


# ---------------------------------------------------------------------------
# packed views: int rows (row reduction, polynomials) and uint64 words
# (substrate of the distance kernels)
# ---------------------------------------------------------------------------

def pack_rows(m: np.ndarray) -> list[int]:
    """The packed rows of a (rows, cols) symbol matrix: one int per row,
    bit c of the low plane at bit c and bit c of the high plane at bit
    cols + c."""
    rows = m.shape[0]
    packed = np.packbits(np.concatenate((m & 1, m >> 1), axis=1), axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i * width : (i + 1) * width], "little") for i in range(rows)]


def unpack_rows(rs: list[int], cols: int) -> np.ndarray:
    """The (len(rs), cols) uint8 symbol matrix of packed rows (pack_rows)."""
    nbytes = (2 * cols + 7) // 8
    data = np.frombuffer(b"".join(x.to_bytes(nbytes, "little") for x in rs), dtype=np.uint8)
    bits = np.unpackbits(data.reshape(len(rs), nbytes), axis=1, count=2 * cols, bitorder="little")
    return bits[:, :cols] | bits[:, cols:] << 1


def n_words(n: int) -> int:
    return (n + 63) // 64


def pack_planes(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pack a (k, n) symbol matrix into (k, W) uint64 low/high bit planes.

    Bit j of word w holds the plane bit of coordinate w*64 + j.  Both
    planes, zero-padded to W*64 bits, go through one little-endian
    np.packbits, whose 8 W bytes per row are read as W words.
    """
    m = np.atleast_2d(np.asarray(m, dtype=np.uint8))
    k, n = m.shape
    planes = np.zeros((2, k, n_words(n) * 64), dtype=np.uint8)
    planes[0, :, :n] = m & 1
    planes[1, :, :n] = m >> 1
    lo, hi = np.packbits(planes, axis=2, bitorder="little").view("<u8").astype(np.uint64, copy=False)
    return lo, hi
