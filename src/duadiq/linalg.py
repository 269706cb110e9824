"""Row reduction, duals and subspace lattice operations over GF(4).

Matrices are (rows, cols) uint8 symbol arrays.  Row spaces are always
represented by their reduced row echelon form, which makes bases canonical:
the pivot is the leftmost column held by a row at or below the rank, the
topmost such row is swapped with the row at the rank, and the pivot is
scaled to 1.

rref works on packed rows (gf4.pack_rows, gf4.unpack_rows), as does the
extension's Hermitian orthonormalizer.  A row is one Python int holding its
two bit planes, the low plane in bits 0..cols-1 and the high plane above
it, bit c of each for column c.  So a pivot step is a mask and an XOR per
row, whatever the width.  The Gram tests on whole matrices (gram_matrix,
matmul) stay on uint8 arrays.
"""

from __future__ import annotations

from functools import reduce
from operator import or_

import numpy as np

from .gf4 import CONJ_TABLE, pack_rows, unpack_rows


def rref(m: np.ndarray) -> tuple[np.ndarray, int, list[int]]:
    """Reduced row echelon form.

    Returns (R, rank, pivot_columns).  R is a new uint8 array of the input's
    shape; rows beyond the rank are zero.  Row space is preserved.  Symbols
    above 3 raise ValueError.

    On the planes (l, h) of a row, l + h omega times omega is (h, l ^ h) and
    times omega^2 is (l ^ h, l).  So the pivot row is scaled to 1 by moving
    planes, and each row holding s at the pivot column is cleared by XORing
    in s times the pivot row, one of three multiples found by the row's two
    bits at that column.  held, the union of the rows below the rank, gives
    the next pivot column as its lowest set bit in either plane.
    """
    r = np.asarray(m, dtype=np.uint8)
    if r.ndim != 2:
        raise ValueError("rref expects a 2-d array")
    if r.size and r.max() > 3:
        raise ValueError("rref expects GF(4) symbols 0..3")
    cols = r.shape[1]
    rs = pack_rows(r)
    low = (1 << cols) - 1
    held = reduce(or_, rs, 0)
    pivots: list[int] = []
    rank = 0
    while held:
        held = (held | held >> cols) & low
        bit = held & -held
        hbit = bit << cols
        both = bit | hbit
        p = rank
        while not rs[p] & both:
            p += 1
        l, h = rs[p] & low, rs[p] >> cols
        rs[p] = rs[rank]
        if h & bit:  # an omega pivot (l clear) times omega^2, an omega^2 pivot times omega
            l, h = (h, l ^ h) if l & bit else (l ^ h, l)
        # the pivot row times the symbol a row holds, keyed by its two bits;
        # the pivot row itself is cleared too and put back after
        one, lh = l | h << cols, l ^ h
        times = {0: 0, bit: one, hbit: h | lh << cols, both: lh | l << cols}
        rs = [x ^ times[x & both] for x in rs]
        rs[rank] = one
        held = reduce(or_, rs[rank + 1 :], 0)
        pivots.append(bit.bit_length() - 1)
        rank += 1
    return unpack_rows(rs, cols), rank, pivots


def row_basis(m: np.ndarray) -> np.ndarray:
    """Canonical basis (nonzero rref rows) of the row space."""
    r, rank, _ = rref(m)
    return r[:rank]


def rref_pivots(g: np.ndarray) -> list[int] | None:
    """The pivots of g when g is an RREF without zero rows, else None: its
    rows' leading columns rise and hold the identity, so rref would
    return g unchanged."""
    pivots = (g != 0).argmax(axis=1)
    if g.any(axis=1).all() and (np.diff(pivots) > 0).all() and np.array_equal(g[:, pivots], np.eye(len(g))):
        return pivots.tolist()
    return None


def nullspace(m: np.ndarray) -> np.ndarray:
    """Canonical basis of the right kernel {x : m @ x^T = 0 over GF(4)}.

    m is reduced only when it is not an RREF already (rref_pivots).
    """
    m = np.atleast_2d(np.asarray(m, dtype=np.uint8))
    rows, cols = m.shape
    r, rk, pivots = m, rows, rref_pivots(m)
    if pivots is None:
        r, rk, pivots = rref(m)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.uint8)
    basis[np.arange(len(free)), free] = 1
    # pivot values are 1, so each pivot variable equals its row's entry at f
    basis[:, pivots] = r[:rk, free].T
    return basis


def hermitian_dual_space(g: np.ndarray) -> np.ndarray:
    """Basis of {v : <v, row>_h = 0 for all rows of g}.

    <v,g> = sum v_i conj(g_i), so the dual is the kernel of conj(g).
    Conjugation fixes 0 and 1, so the conjugate of an RREF is an RREF and
    is not reduced again.
    """
    g = np.atleast_2d(np.asarray(g, dtype=np.uint8))
    return nullspace(CONJ_TABLE[g])


def subspace_intersection(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Zassenhaus: rref of [[A A],[B 0]]; rows with zero left half carry
    an intersection basis in the right half."""
    a = row_basis(a)
    b = row_basis(b)
    n = a.shape[1]
    if b.shape[1] != n:
        raise ValueError("ambient length mismatch")
    top = np.hstack([a, a])
    bot = np.hstack([b, np.zeros_like(b)])
    r, rk, _ = rref(np.vstack([top, bot]))
    out = []
    for i in range(rk):
        if not r[i, :n].any():
            out.append(r[i, n:])
    if not out:
        return np.zeros((0, n), dtype=np.uint8)
    return row_basis(np.array(out, dtype=np.uint8))


def complement_basis(sub: np.ndarray, sup: np.ndarray) -> np.ndarray:
    """Rows of sup extending a basis of sub to one of sup (greedy, deterministic).

    A row is taken when it lies outside the span of sub and the rows before
    it.  Those rows are the pivot columns of the transpose of (sub; sup)
    past the rows of sub, since a column is a pivot exactly when it lies
    outside the span of the columns before it.
    """
    sub = np.atleast_2d(np.asarray(sub, dtype=np.uint8))
    sup = np.atleast_2d(np.asarray(sup, dtype=np.uint8))
    pivots = rref(np.vstack([sub, sup]).T)[2]
    return sup[[p - sub.shape[0] for p in pivots if p >= sub.shape[0]]]


def gram_matrix(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """Hermitian Gram matrix G[i,j] = <a_i, b_j>_h = sum_l a_il conj(b_jl), b = a by default.

    On the bit planes x = x0 + x1 omega of a and of c = conj(b),
        a c = (a0 c0 + a1 c1) + ((a0 + a1) c1 + a1 c0) omega,
    so each plane of G is the parity of one real product of 0/1 matrices
    with 2 * cols inner terms, computed in float32 and exact below 2^24.
    einsum keeps the products on the calling thread: a threaded BLAS
    product stalls for milliseconds when the other cores are busy.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.uint8))
    b = a if b is None else np.atleast_2d(np.asarray(b, dtype=np.uint8))
    c = CONJ_TABLE[b]
    a0, a1 = (a & 1).astype(np.float32), (a >> 1).astype(np.float32)
    c0, c1 = (c & 1).astype(np.float32), (c >> 1).astype(np.float32)
    one = np.einsum("ik,jk->ij", np.concatenate((a0, a1), axis=1), np.concatenate((c0, c1), axis=1))
    omega = np.einsum("ik,jk->ij", np.concatenate((a0 + a1, a1), axis=1), np.concatenate((c1, c0), axis=1))
    return ((one.astype(np.int32) & 1) | (omega.astype(np.int32) & 1) << 1).astype(np.uint8)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product a b over GF(4): the Gram matrix of a against the
    conjugate of b's columns, since conjugation is an involution."""
    return gram_matrix(a, CONJ_TABLE[np.atleast_2d(np.asarray(b, dtype=np.uint8))].T)


def is_hermitian_self_orthogonal(g: np.ndarray) -> bool:
    return not gram_matrix(g).any()
