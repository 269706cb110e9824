"""Hot codeword-enumeration kernels: numba primary, pure numpy fallback.

The hot loops of the package are the Gray walk over all 4^k (or 2^k) words
of a span, and the information-set walk (InfoSetLevels, numpy only) that
the Brouwer-Zimmermann search in distance runs level by level.

Each Gray-walk step XORs one precomputed scaled generator into the
running word (two packed bit planes over GF(4), one over GF(2)) and bins
the weight of the word shifted by each requested offset.  The walk visits
every codeword exactly once, so the returned per-offset weight histograms
are exact counts and independent of backend, sharding and thread count.

The numpy walker splits the F2-basis into a suffix of up to _SUFFIX_BITS
rows, whose span is tabulated once as a block of up to 65536 words, and a
prefix walked in Gray order.  Each prefix step XORs one basis row into the
running word; then, per offset, the block is XORed with the running word and
the offset, the two planes are ORed, popcounted and binned, all into buffers
allocated once per call.

Backend selection: numba (the optional `numba` extra) is used when
importable unless the environment variable DUADIQ_BACKEND=numpy forces the
fallback; without numba the numpy walker runs.  Both implementations are
kept semantically identical and are compared in the test suite.

Sharding: walks with k above _SHARD_MIN_K split into 16 shards fixing the
two leading information symbols; shard histograms are summed, so the merge
is order independent.
"""

from __future__ import annotations

import math
import os

import numpy as np

_env = os.environ.get("DUADIQ_BACKEND", "").strip().lower()
if _env not in ("", "numba", "numpy"):
    raise RuntimeError(f"DUADIQ_BACKEND must be 'numba' or 'numpy', got {_env!r}")

_HAVE_NUMBA = False
if _env != "numpy":
    try:
        import warnings

        import numba as _nb
        from numba import njit as _njit
        from numba import prange as _prange
        from numba.core.errors import NumbaWarning as _NumbaWarning

        # the TBB-version notice is harmless: numba falls back to omp/workqueue
        warnings.filterwarnings("ignore", message=".*TBB.*", category=_NumbaWarning)
        _HAVE_NUMBA = True
    except ImportError:  # numba is an optional extra
        if _env == "numba":
            raise
        _HAVE_NUMBA = False


def active_backend() -> str:
    return "numba" if _HAVE_NUMBA else "numpy"


def set_num_threads(workers: int) -> None:
    if workers < 1:
        raise ValueError("worker count must be >= 1")
    if _HAVE_NUMBA:
        _nb.set_num_threads(min(workers, _nb.config.NUMBA_NUM_THREADS))


_SHARD_MIN_K = 10  # below this a single serial walk is faster than 16 shards


# ---------------------------------------------------------------------------
# numba implementation
# ---------------------------------------------------------------------------

if _HAVE_NUMBA:

    @_njit(inline="always")
    def _pop64(x):
        x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
        x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
        x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        return (x * np.uint64(0x0101010101010101)) >> np.uint64(56)

    @_njit(cache=True)
    def _hist_q4_range(sg_lo, sg_hi, off_lo, off_hi, out, start, count):
        """Walk Gray positions [start, start+count) of the 4^k span (W = 1)."""
        m = off_lo.shape[0]
        gray = np.uint64(start ^ (start >> 1))
        cur_lo = np.uint64(0)
        cur_hi = np.uint64(0)
        for i in range(sg_lo.shape[0]):
            if (gray >> np.uint64(i)) & np.uint64(1):
                cur_lo ^= sg_lo[i]
                cur_hi ^= sg_hi[i]
        for j in range(m):
            out[j, _pop64((cur_lo ^ off_lo[j]) | (cur_hi ^ off_hi[j]))] += 1
        for t in range(start + 1, start + count):
            tt = t
            idx = 0
            while tt & 1 == 0:
                tt >>= 1
                idx += 1
            cur_lo ^= sg_lo[idx]
            cur_hi ^= sg_hi[idx]
            for j in range(m):
                out[j, _pop64((cur_lo ^ off_lo[j]) | (cur_hi ^ off_hi[j]))] += 1

    @_njit(cache=True)
    def _hist_q4_range_w(sg_lo, sg_hi, off_lo, off_hi, out, start, count):
        """Multi-word variant for n > 64."""
        m = off_lo.shape[0]
        W = sg_lo.shape[1]
        gray = start ^ (start >> 1)
        cur_lo = np.zeros(W, dtype=np.uint64)
        cur_hi = np.zeros(W, dtype=np.uint64)
        for i in range(sg_lo.shape[0]):
            if (gray >> i) & 1:
                for w in range(W):
                    cur_lo[w] ^= sg_lo[i, w]
                    cur_hi[w] ^= sg_hi[i, w]
        for j in range(m):
            wt = np.uint64(0)
            for w in range(W):
                wt += _pop64((cur_lo[w] ^ off_lo[j, w]) | (cur_hi[w] ^ off_hi[j, w]))
            out[j, wt] += 1
        for t in range(start + 1, start + count):
            tt = t
            idx = 0
            while tt & 1 == 0:
                tt >>= 1
                idx += 1
            for w in range(W):
                cur_lo[w] ^= sg_lo[idx, w]
                cur_hi[w] ^= sg_hi[idx, w]
            for j in range(m):
                wt = np.uint64(0)
                for w in range(W):
                    wt += _pop64((cur_lo[w] ^ off_lo[j, w]) | (cur_hi[w] ^ off_hi[j, w]))
                out[j, wt] += 1

    @_njit(cache=True, parallel=True)
    def _hist_q4_sharded(sg_lo, sg_hi, off_lo, off_hi, outs, total):
        chunk = total // 16
        for s in _prange(16):
            _hist_q4_range(sg_lo, sg_hi, off_lo, off_hi, outs[s], s * chunk, chunk)

    @_njit(cache=True)
    def _hist_f2_range(sg, off, out, start, count):
        m = off.shape[0]
        gray = np.uint64(start ^ (start >> 1))
        cur = np.uint64(0)
        for i in range(sg.shape[0]):
            if (gray >> np.uint64(i)) & np.uint64(1):
                cur ^= sg[i]
        for j in range(m):
            out[j, _pop64(cur ^ off[j])] += 1
        for t in range(start + 1, start + count):
            tt = t
            idx = 0
            while tt & 1 == 0:
                tt >>= 1
                idx += 1
            cur ^= sg[idx]
            for j in range(m):
                out[j, _pop64(cur ^ off[j])] += 1

    @_njit(cache=True)
    def _hist_f2_range_w(sg, off, out, start, count):
        m = off.shape[0]
        W = sg.shape[1]
        gray = start ^ (start >> 1)
        cur = np.zeros(W, dtype=np.uint64)
        for i in range(sg.shape[0]):
            if (gray >> i) & 1:
                for w in range(W):
                    cur[w] ^= sg[i, w]
        for j in range(m):
            wt = np.uint64(0)
            for w in range(W):
                wt += _pop64(cur[w] ^ off[j, w])
            out[j, wt] += 1
        for t in range(start + 1, start + count):
            tt = t
            idx = 0
            while tt & 1 == 0:
                tt >>= 1
                idx += 1
            for w in range(W):
                cur[w] ^= sg[idx, w]
            for j in range(m):
                wt = np.uint64(0)
                for w in range(W):
                    wt += _pop64(cur[w] ^ off[j, w])
                out[j, wt] += 1

    @_njit(cache=True, parallel=True)
    def _hist_f2_sharded(sg, off, outs, total):
        chunk = total // 16
        for s in _prange(16):
            _hist_f2_range(sg, off, outs[s], s * chunk, chunk)


# ---------------------------------------------------------------------------
# numpy fallback: block enumeration over a suffix table
# ---------------------------------------------------------------------------

_SUFFIX_BITS = 16  # 2^16 = 65536-word blocks


def _numpy_hist_planes(basis_lo, basis_hi, off_lo, off_hi, nbins):
    """Exact per-offset weight histograms over the F2-span of basis rows.

    basis rows are (W,) uint64 plane pairs; the span is walked as
    prefix Gray walk x vectorized suffix block.  The block buffers are
    allocated once per call and every block step writes into them.
    """
    nb_rows, W = basis_lo.shape
    m = off_lo.shape[0]
    out = np.zeros((m, nbins), dtype=np.int64)
    k2 = min(nb_rows, _SUFFIX_BITS)
    prefix_rows = nb_rows - k2
    block = 1 << k2
    suf_lo = np.zeros((block, W), dtype=np.uint64)
    suf_hi = np.zeros((block, W), dtype=np.uint64)
    for b, i in enumerate(range(prefix_rows, nb_rows)):
        h = 1 << b
        np.bitwise_xor(suf_lo[:h], basis_lo[i], out=suf_lo[h : 2 * h])
        np.bitwise_xor(suf_hi[:h], basis_hi[i], out=suf_hi[h : 2 * h])
    x_lo = np.empty_like(suf_lo)
    x_hi = np.empty_like(suf_hi)
    pop = np.empty((block, W), dtype=np.uint8)
    wt = np.empty(block, dtype=np.intp)  # bincount reads intp without a copy
    cur_lo = np.zeros(W, dtype=np.uint64)
    cur_hi = np.zeros(W, dtype=np.uint64)
    for t in range(1 << prefix_rows):
        if t:
            idx = (t & -t).bit_length() - 1  # Gray code: the lowest set bit flips
            cur_lo ^= basis_lo[idx]
            cur_hi ^= basis_hi[idx]
        for j in range(m):
            np.bitwise_xor(suf_lo, cur_lo ^ off_lo[j], out=x_lo)
            np.bitwise_xor(suf_hi, cur_hi ^ off_hi[j], out=x_hi)
            np.bitwise_or(x_lo, x_hi, out=x_lo)
            if W == 1:
                np.bitwise_count(x_lo[:, 0], out=wt)
            else:
                np.bitwise_count(x_lo, out=pop)
                np.sum(pop, axis=1, dtype=np.int64, out=wt)
            out[j] += np.bincount(wt, minlength=nbins)
    return out


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def _scaled_generators(gen_lo, gen_hi, omega_lo, omega_hi):
    """Interleave (g_i, omega*g_i) plane pairs: the F2-basis of the F4-span."""
    k, W = gen_lo.shape
    sg_lo = np.empty((2 * k, W), dtype=np.uint64)
    sg_hi = np.empty((2 * k, W), dtype=np.uint64)
    sg_lo[0::2] = gen_lo
    sg_hi[0::2] = gen_hi
    sg_lo[1::2] = omega_lo
    sg_hi[1::2] = omega_hi
    return sg_lo, sg_hi


def gray_weight_hists(
    sg_lo: np.ndarray,
    sg_hi: np.ndarray,
    off_lo: np.ndarray,
    off_hi: np.ndarray,
    nbins: int,
    backend: str | None = None,
) -> np.ndarray:
    """Per-offset weight histograms over the F2-span of 2k scaled generators.

    Arguments are (2k, W) scaled generator planes and (m, W) offset planes;
    the result is an (m, nbins) int64 count array covering all 4^k words
    (the zero word included, binned at the offset weights).
    """
    sg_lo = np.ascontiguousarray(sg_lo, dtype=np.uint64)
    sg_hi = np.ascontiguousarray(sg_hi, dtype=np.uint64)
    off_lo = np.ascontiguousarray(np.atleast_2d(off_lo), dtype=np.uint64)
    off_hi = np.ascontiguousarray(np.atleast_2d(off_hi), dtype=np.uint64)
    twok, W = sg_lo.shape
    m = off_lo.shape[0]
    total = 1 << twok
    use = backend or active_backend()
    if use == "numba" and not _HAVE_NUMBA:
        raise RuntimeError("numba backend requested but numba is unavailable")
    if use == "numba":
        out = np.zeros((m, nbins), dtype=np.int64)
        if W == 1:
            if twok >= 2 * _SHARD_MIN_K:
                outs = np.zeros((16, m, nbins), dtype=np.int64)
                _hist_q4_sharded(sg_lo[:, 0], sg_hi[:, 0], off_lo[:, 0], off_hi[:, 0], outs, total)
                out = outs.sum(axis=0)
            else:
                _hist_q4_range(sg_lo[:, 0], sg_hi[:, 0], off_lo[:, 0], off_hi[:, 0], out, 0, total)
        else:
            _hist_q4_range_w(sg_lo, sg_hi, off_lo, off_hi, out, 0, total)
        return out
    return _numpy_hist_planes(sg_lo, sg_hi, off_lo, off_hi, nbins)


def gray_weight_hists_binary(
    sg: np.ndarray,
    off: np.ndarray,
    nbins: int,
    backend: str | None = None,
) -> np.ndarray:
    """Binary analogue: histograms over the 2^k span of (k, W) row masks."""
    sg = np.ascontiguousarray(sg, dtype=np.uint64)
    off = np.ascontiguousarray(np.atleast_2d(off), dtype=np.uint64)
    k, W = sg.shape
    m = off.shape[0]
    total = 1 << k
    use = backend or active_backend()
    if use == "numba" and not _HAVE_NUMBA:
        raise RuntimeError("numba backend requested but numba is unavailable")
    if use == "numba":
        out = np.zeros((m, nbins), dtype=np.int64)
        if W == 1:
            if k >= 2 * _SHARD_MIN_K:
                outs = np.zeros((16, m, nbins), dtype=np.int64)
                _hist_f2_sharded(sg[:, 0], off[:, 0], outs, total)
                out = outs.sum(axis=0)
            else:
                _hist_f2_range(sg[:, 0], off[:, 0], out, 0, total)
        else:
            _hist_f2_range_w(sg, off, out, 0, total)
        return out
    zeros = np.zeros_like(sg)
    zoff = np.zeros_like(off)
    return _numpy_hist_planes(sg, zeros, off, zoff, nbins)


# ---------------------------------------------------------------------------
# information-set levels: meet in the middle over packed parity columns
# ---------------------------------------------------------------------------

# A block of prefix x suffix pairs holds at most this many words, so the
# temporaries of a level walk stay under about 0.5 MB whatever the budget.
_BLOCK_WORDS = 1 << 14


def _subset_table(rows: list[np.ndarray], t: int) -> np.ndarray:
    """XOR sums of every t-subset of the message rows under every pattern of scalars.

    rows[c][:, x] is packed message row x times the c-th nonzero scalar, one
    uint64 word per line, and so is every column of the table.  The columns
    are in colex order: the sums over subsets of the first x rows are the
    first comb(x, t) * s^t, s = len(rows).
    """
    width, k = rows[0].shape
    table = np.zeros((width, 1), dtype=np.uint64)
    for level in range(1, t + 1):
        blocks = [np.zeros((width, 0), dtype=np.uint64)]
        for x in range(level - 1, k):
            head = math.comb(x, level - 1) * len(rows) ** (level - 1)
            blocks += [table[:, :head] ^ scaled[:, x : x + 1] for scaled in rows]
        table = np.hstack(blocks)
    return table


class InfoSetLevels:
    """The messages of one information set, walked level by level.

    Built from the (k, W) packed planes of the parity part of a systematic
    form: a message of weight w has codeword weight w plus the weight of the
    XOR of its scaled parity rows.  Level w is walked by its pivot, the
    (w//2 + 1)-th smallest message position m: the w//2 positions below m
    come from a prefix table, m carries the scalar 1 (a word and its
    multiples have the same weight) and the (w-1)//2 positions above m come
    from a table over the reversed rows, whose suffix is a prefix.  Blocks
    are outer XORs of the two, one word line at a time, into buffers
    allocated once per level.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray, q: int):
        lo, hi = lo.T.copy(), hi.T.copy()
        self.planes = 1 if q == 2 else 2
        # omega (a + b omega) = b + (a + b) omega, omega^2 (a + b omega) = (a + b) + a omega
        self.rows = [lo] if q == 2 else [np.vstack(p) for p in ((lo, hi), (hi, lo ^ hi), (lo ^ hi, lo))]
        self.tables: dict[tuple[bool, int, int], np.ndarray] = {}

    def _table(self, reverse: bool, span: int, t: int) -> np.ndarray:
        """The subset table over the first span rows, in reverse order if asked."""
        if (reverse, span, t) not in self.tables:
            cols = slice(span - 1, None, -1) if reverse else slice(span)
            self.tables[reverse, span, t] = _subset_table([scaled[:, cols] for scaled in self.rows], t)
        return self.tables[reverse, span, t]

    def least_weight(self, w: int, span: int) -> int:
        """Least codeword weight over the weight-w messages on the first span positions."""
        s = len(self.rows)
        a, c = w // 2, (w - 1) // 2
        prefix, suffix = self._table(False, span, a), self._table(True, span, c)
        bufs = tuple(np.empty(_BLOCK_WORDS, dtype=t) for t in (np.uint64, np.uint64, np.uint8, np.uint16))
        return w + min(
            self._least_pair_weight(
                prefix[:, : math.comb(m, a) * s**a],
                suffix[:, : math.comb(span - 1 - m, c) * s**c] ^ self.rows[0][:, m : m + 1],
                bufs,
            )
            for m in range(a, span - c)
        )

    def _least_pair_weight(self, low: np.ndarray, high: np.ndarray, bufs) -> int:
        """min over (i, j) of the weight of the XOR of columns low[:, i] and high[:, j].

        A column holds its planes one after the other; a coordinate counts
        when any plane has its bit set.  The longer side is the contiguous one.
        """
        if low.shape[1] > high.shape[1]:
            low, high = high, low
        words = low.shape[0] // self.planes
        xor_buf, or_buf, count_buf, sum_buf = bufs
        best = words * 64
        step_h = min(high.shape[1], _BLOCK_WORDS)
        for j in range(0, high.shape[1], step_h):
            h = high[:, j : j + step_h]
            step_l = max(1, _BLOCK_WORDS // h.shape[1])
            for i in range(0, low.shape[1], step_l):
                l_blk = low[:, i : i + step_l]
                size = l_blk.shape[1] * h.shape[1]
                shape = (l_blk.shape[1], h.shape[1])
                x, y = xor_buf[:size].reshape(shape), or_buf[:size].reshape(shape)
                total, count = sum_buf[:size].reshape(shape), count_buf[:size].reshape(shape)
                for t in range(words):
                    np.bitwise_xor.outer(l_blk[t], h[t], out=x)
                    if self.planes == 2:
                        np.bitwise_xor.outer(l_blk[words + t], h[words + t], out=y)
                        np.bitwise_or(x, y, out=x)
                    if t == 0:
                        np.bitwise_count(x, out=total)
                    else:
                        total += np.bitwise_count(x, out=count)
                best = min(best, int(total.min()))
        return best


def warm_up() -> None:
    """Force JIT compilation of the hot kernels (no-op on the numpy path)."""
    if not _HAVE_NUMBA:
        return
    sg = np.array([[1], [2], [4], [8]], dtype=np.uint64)
    off = np.zeros((1, 1), dtype=np.uint64)
    gray_weight_hists(sg, sg, off, off, 8)
    out = np.zeros((1, 8), dtype=np.int64)
    _hist_q4_range_w(sg, sg, off, off, out, 0, 4)
    gray_weight_hists_binary(sg, off, 8)
    _hist_f2_range_w(sg, off, out, 0, 4)
    outs = np.zeros((16, 1, 8), dtype=np.int64)
    _hist_q4_sharded(sg[:, 0].repeat(2), sg[:, 0].repeat(2), off[:, 0], off[:, 0], outs, 1 << 8)
    _hist_f2_sharded(sg[:, 0].repeat(2), off[:, 0], outs, 1 << 8)
