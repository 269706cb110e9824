"""Arithmetic over the 4-element field.

Symbols are encoded as two bits: 0, 1, w (omega), w2 (omega squared) map to
the integers 0, 1, 2, 3.  Bit 0 is the coefficient of 1 and bit 1 the
coefficient of w, so addition is bitwise XOR of symbols.  Vectors and
matrices are plain numpy uint8 arrays of symbols; the packed bit-plane view
used by the distance kernels is produced by ``pack_planes``.

All values are immutable by convention: functions never mutate their inputs,
so arrays may be shared freely between callers.
"""

from __future__ import annotations

import numpy as np

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

INV_TABLE = np.array([0, 1, 3, 2], dtype=np.uint8)  # entry 0 is a placeholder: 0 has no inverse


def weight(v: np.ndarray) -> int:
    """Hamming weight: number of nonzero symbols."""
    return int(np.count_nonzero(v))


# ---------------------------------------------------------------------------
# polynomials over GF(4): little-endian uint8 coefficient arrays
# ---------------------------------------------------------------------------

def poly_trim(p: np.ndarray) -> np.ndarray:
    """Drop trailing zero coefficients; the zero polynomial becomes []."""
    p = np.asarray(p, dtype=np.uint8)
    nz = np.nonzero(p)[0]
    if nz.size == 0:
        return np.zeros(0, dtype=np.uint8)
    return p[: nz[-1] + 1].copy()


def poly_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    p = poly_trim(p)
    q = poly_trim(q)
    if len(p) == 0 or len(q) == 0:
        return np.zeros(0, dtype=np.uint8)
    out = np.zeros(len(p) + len(q) - 1, dtype=np.uint8)
    for i, c in enumerate(p):
        if c:
            out[i : i + len(q)] ^= MUL_TABLE[c][q]
    return out


# ---------------------------------------------------------------------------
# packed bit-plane view (substrate of the distance kernels)
# ---------------------------------------------------------------------------

def n_words(n: int) -> int:
    return (n + 63) // 64


def pack_planes(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pack a (k, n) symbol matrix into (k, W) uint64 low/high bit planes.

    Bit j of word w holds the plane bit of coordinate w*64 + j.
    """
    m = np.atleast_2d(np.asarray(m, dtype=np.uint8))
    k, n = m.shape
    W = n_words(n)
    padded = np.zeros((k, W * 64), dtype=np.uint64)
    padded[:, :n] = m
    shifts = np.arange(64, dtype=np.uint64)
    bits_lo = (padded & np.uint64(1)).reshape(k, W, 64)
    bits_hi = ((padded >> np.uint64(1)) & np.uint64(1)).reshape(k, W, 64)
    lo = np.bitwise_or.reduce(bits_lo << shifts, axis=2)
    hi = np.bitwise_or.reduce(bits_hi << shifts, axis=2)
    return np.ascontiguousarray(lo), np.ascontiguousarray(hi)
