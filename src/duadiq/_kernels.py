"""Hot codeword-enumeration kernels, in numpy.

The Gray walk bins the weight of every word of a span (all 4^k words over
GF(4), 2^k over GF(2)) moved by one start word.  Words are packed bit
planes, two over GF(4) and one over GF(2), so a step is an XOR and a weight
is a popcount.  The walk visits every word exactly once, so the returned
weight histogram is an exact count.

_numpy_hist_planes splits the F2-basis into a suffix of up to _SUFFIX_BITS
rows, whose span is tabulated once as a block of up to 65536 words, and a
prefix walked in Gray order from the start word.  Each prefix step XORs one
basis row into the running word; then the block is XORed with the running
word, the planes are ORed (a binary walk has one and skips this), popcounted
and binned, two weights to a key.

A plane lives in lanes of one width for the whole walk.  When every plane
of the span fits in 32 bits, one word of a code of length n <= 32, the walk
copies the basis and start word into uint32 lanes and tabulates the block
in them, so each step moves half the bytes of a uint64 walk and a block of
two planes takes 512 KB instead of 1 MB; every other walk keeps uint64
lanes, W words to a plane.  The width follows from the words themselves.

A walk of at least 2 * _MIN_STEPS prefix steps is cut into contiguous
ranges of prefix steps, one per CPU the process may run on (_THREADS) but
no more than one per _MIN_STEPS steps.  Helper threads walk every range
but the last, which the calling thread walks; numpy releases the GIL in
the XORs, popcounts and sums of a block step, so the ranges run side by
side.  Their histograms are integer counts and are summed, so the result
is the same for any number of threads.  Shorter walks, among them every
span of at most 2^19 words at the default sizes, run on the calling
thread alone.

InfoSetLevels walks the messages of one information set a level (message
weight) at a time, for the Brouwer-Zimmermann search in distance.  A level
is a stream of blocks of at most _BLOCK_WORDS words: consecutive pivots with
small pair grids share a block, so a level of a few hundred words is one
numpy pass rather than one Python call per pivot, and a pivot too big for
one block is cut into blocks; the walk reads both kinds of plan entry as
one stream of blocks (_blocks).  That layout depends on _BLOCK_WORDS and the
level's shape (w, span, q) alone, and the gather that builds a level of a
subset table from the one before on (rows, q, level), so both are built once
and shared by every code: a level plan has at most span entries, whatever
the level's size, and each cache keeps _SHARED_SHAPES entries, gathers only
of levels of at most _BLOCK_WORDS columns.  The caller passes a threshold, the
weight of the best word it holds, and only lighter words are sought; inside
a level it tightens to the lightest word found so far.  A block computes the
first uint64 word line of every pair (an outer XOR per plane, an OR and a
popcount into uint8); with one line that is the weight and one argmin reads
it, with more only the pairs whose first line already weighs less than the
threshold get their other lines.  The buffers are sized once a level to its
largest block.  It returns the first lightest word under the threshold in
its walk order, which does not depend on how pivots share blocks, and runs
on the calling thread.
"""

from __future__ import annotations

import math
import os
import threading
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import gf4


def active_backend() -> str:
    """The enumeration backend; numpy is the only one."""
    return "numpy"


# ---------------------------------------------------------------------------
# Gray walk: block enumeration over a suffix table
# ---------------------------------------------------------------------------

_SUFFIX_BITS = 16  # 2^16 = 65536-word blocks
# Threads of one walk at most: the CPUs this process may run on.  Each
# helper adds its own block buffers (the planes, the weights and the
# bincount keys and counts): at 65536-word blocks about 1.5 MB for two
# uint64 planes (33 <= n <= 64), about 0.95 MB for two uint32 lanes (n <= 32).
_THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# Prefix steps of one range at least; a step of a full block takes about
# 0.1 ms at n <= 32 and 0.15 ms at n <= 64, a thread start about 0.1 ms.
_MIN_STEPS = 8


def _bin_block(sufs, curs, bufs, acc) -> None:
    """One block step: add the weights of suffix block + running word to acc.

    sufs and curs are the planes of the block and of the running word, one
    over GF(2) and two over GF(4).  bufs are the range's (xs, pop, wt)
    buffers, xs one block per plane.  A uint8 wt is read as uint16 keys,
    each holding the weights of two words (see _fold); an intp wt is binned
    one weight to a key.
    """
    xs, pop, wt = bufs
    for suf, cur, x in zip(sufs, curs, xs):
        np.bitwise_xor(suf, cur, out=x)
    x = xs[0]
    for y in xs[1:]:  # a coordinate counts when any plane has its bit set
        np.bitwise_or(x, y, out=x)
    if pop is None:  # one word per line
        np.bitwise_count(x[:, 0], out=wt)
    else:
        np.bitwise_count(x, out=pop)
        np.sum(pop, axis=1, dtype=wt.dtype, out=wt)
    keys = wt.view(np.uint16) if wt.dtype == np.uint8 else wt
    acc += np.bincount(keys, minlength=acc.size)


def _fold(acc: np.ndarray, nbins: int) -> np.ndarray:
    """The weight histogram from a range's accumulator.

    A pair accumulator has 256 * nbins bins: key b * 256 + a counts the
    word pairs whose two bytes hold the weights b and a, in either byte
    order, so each pair adds one count to hist[a] and one to hist[b].
    """
    if acc.size == nbins:
        return acc
    pairs = acc.reshape(nbins, 256)
    return pairs.sum(axis=0)[:nbins] + pairs.sum(axis=1)


def _walk_range(basis, sufs, start, t0, t1, nbins, stop):
    """The weight histogram of the prefix steps t0 <= t < t1 over the block.

    Step t's running word is start + the basis rows of gray(t) = t ^ (t >> 1),
    so a range starts anywhere.  Weights of at most 255 are binned in pairs
    of a block of two words or more; other walks bin one weight to a key.
    The walk ends early once stop is set.
    """
    block, W = sufs[0].shape
    paired = nbins <= 256 and block > 1
    bufs = (
        [np.empty_like(suf) for suf in sufs],
        np.empty((block, W), dtype=np.uint8) if W > 1 else None,
        np.empty(block, dtype=np.uint8 if paired else np.intp),  # bincount reads intp uncopied
    )
    acc = np.zeros(256 * nbins if paired else nbins, dtype=np.int64)
    gray = t0 ^ (t0 >> 1)
    rows = [i for i in range(gray.bit_length()) if gray >> i & 1]
    curs = [np.bitwise_xor.reduce(b[rows], axis=0) ^ s for b, s in zip(basis, start)]
    for t in range(t0, t1):
        if stop.is_set():
            break
        if t > t0:
            idx = (t & -t).bit_length() - 1  # Gray code: the lowest set bit flips
            for cur, b in zip(curs, basis):
                cur ^= b[idx]
        _bin_block(sufs, curs, bufs, acc)
    return _fold(acc, nbins)


def _numpy_hist_planes(basis, start, nbins):
    """Exact weight histogram over start + the F2-span of basis rows.

    basis is a tuple of (rows, W) uint64 planes, one over GF(2) and two over
    GF(4), and start the matching tuple of (W,) planes; the span is walked
    as prefix Gray walk x vectorized suffix block.  When every plane fits in
    32 bits (W = 1 and n <= 32 for packed words of length n) the walk runs
    in uint32 lanes, so each step moves half the bytes; else in uint64.
    The suffix block is tabulated once and shared, read only, by the ranges
    of the prefix walk (module docstring); each range allocates its buffers
    once and every block step writes into them.  Each step popcounts the
    block into uint8 weights and bins them as uint16 keys, two words to a
    key, into 256 * nbins bins that live for the whole range and are folded
    into the histogram once at its end.  Weights above 255 (nbins > 256) and
    a block of one word are binned one weight to a key.

    Threads are joined before this returns or raises, also on
    KeyboardInterrupt; an exception in a helper is raised here.
    """
    nb_rows, W = basis[0].shape
    start = [np.asarray(s, dtype=np.uint64) for s in start]
    if W == 1 and all(int(p.max(initial=0)) < 1 << 32 for p in (*basis, *start)):
        basis, start = ([p.astype(np.uint32) for p in planes] for planes in (basis, start))
    k2 = min(nb_rows, _SUFFIX_BITS)
    prefix_rows = nb_rows - k2
    block = 1 << k2
    sufs = [np.zeros((block, W), dtype=b.dtype) for b in basis]
    for suf, plane in zip(sufs, basis):
        for j, i in enumerate(range(prefix_rows, nb_rows)):
            h = 1 << j
            np.bitwise_xor(suf[:h], plane[i], out=suf[h : 2 * h])
    steps = 1 << prefix_rows
    count = max(1, min(_THREADS, steps // _MIN_STEPS))
    cuts = [steps * i // count for i in range(count + 1)]
    stop = threading.Event()
    hists: list[np.ndarray] = []
    errors: list[BaseException] = []

    def walk(i):
        return _walk_range(basis, sufs, start, cuts[i], cuts[i + 1], nbins, stop)

    def helper(i):
        try:
            hists.append(walk(i))
        except BaseException as exc:  # raised to the caller after the join
            errors.append(exc)
            stop.set()

    helpers = []
    try:
        for i in range(count - 1):
            thread = threading.Thread(target=helper, args=(i,), daemon=True)
            thread.start()
            helpers.append(thread)
        hist = walk(count - 1)
        for thread in helpers:  # the helpers finish their ranges
            thread.join()
    finally:  # after an exception here, also one raised in a join, they stop
        stop.set()
        for thread in helpers:
            thread.join()
    if errors:
        raise errors[0]
    return sum(hists, hist)


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def gray_weight_hists(
    sg_lo: np.ndarray,
    sg_hi: np.ndarray,
    start_lo: np.ndarray,
    start_hi: np.ndarray,
    nbins: int,
) -> np.ndarray:
    """Weight histogram over start + the F2-span of 2k scaled generators.

    Arguments are (2k, W) scaled generator planes and the (W,) planes of the
    start word; the result is an (nbins,) int64 count array covering all
    4^k words (the start itself included).
    """
    sg_lo = np.ascontiguousarray(sg_lo, dtype=np.uint64)
    sg_hi = np.ascontiguousarray(sg_hi, dtype=np.uint64)
    return _numpy_hist_planes((sg_lo, sg_hi), (start_lo, start_hi), nbins)


def gray_weight_hists_binary(sg: np.ndarray, nbins: int) -> np.ndarray:
    """Binary analogue: the histogram over the 2^k span of (k, W) row masks,
    walked on its one plane."""
    sg = np.ascontiguousarray(sg, dtype=np.uint64)
    return _numpy_hist_planes((sg,), (np.zeros(sg.shape[1], dtype=np.uint64),), nbins)


# ---------------------------------------------------------------------------
# information-set levels: meet in the middle over packed parity columns
# ---------------------------------------------------------------------------

# A block of a level walk holds at most this many words, so its buffers (two
# uint64 planes, the uint8 line-0 counts and a bool mask) stay under about
# 1.2 MB whatever the level; a level sizes them to its largest block.
_BLOCK_WORDS = 1 << 16
# Shapes whose level plans, and levels whose subset-table gathers, are kept.
_SHARED_SHAPES = 256


@lru_cache(maxsize=_SHARED_SHAPES)
def _level_gather(k: int, s: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """The (column, source) gather of one level of a subset table over k rows
    and s scalars: its column j is column[j] of level - 1 XOR scaled row
    source[j], where scaled column x * s + c is message row x times the
    c-th nonzero scalar.  Row x's block holds s copies, one per scalar, of the
    first comb(x, level - 1) s^(level - 1) columns of level - 1, so the
    gather over fewer rows is a prefix of this one.  The cache is for levels
    of at most _BLOCK_WORDS columns (2 * _BLOCK_WORDS indices an entry); a
    larger level calls __wrapped__, the same function uncached.
    """
    combs = np.array([math.comb(x, level - 1) for x in range(k)], dtype=np.intp)
    lengths = np.repeat(combs * s ** (level - 1), s)  # row x's block, under each scalar
    column = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return _read_only(column, np.repeat(np.arange(k * s), lengths))


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, marked read only: a cache hands the same ones to every caller."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _subset_of_column(index: int, t: int, s: int) -> list[tuple[int, int]]:
    """The (row, scalar index) pairs whose sum is column index of a subset table.

    At level t the rows up to x fill the first comb(x + 1, t) s^t columns:
    row x's block starts at comb(x, t) s^t and holds s copies, one per
    scalar, of the first comb(x, t - 1) s^(t-1) columns of level t - 1.
    """
    out = []
    for level in range(t, 0, -1):
        x = level - 1
        while math.comb(x + 1, level) * s**level <= index:
            x += 1
        scalar, index = divmod(index - math.comb(x, level) * s**level,
                               math.comb(x, level - 1) * s ** (level - 1))
        out.append((x, scalar))
    return out


class _Group(NamedTuple):
    """Consecutive pivots whose grids share one block: row r pairs shorter
    column idx[r] under pivot pivots[r] with the longer columns below width;
    the columns of rows r0 <= r < r1 from col on are padding, for each
    (r0, r1, col) in pads."""

    swap: bool
    pivots: np.ndarray
    idx: np.ndarray
    pads: tuple[tuple[int, int, int], ...]
    width: int


class _Pivot(NamedTuple):
    """A pivot whose (shorter, longer) grid does not fit in one block."""

    swap: bool
    m: int
    shorter: int
    longer: int


def _blocks(entry: _Group | _Pivot, short: np.ndarray, pivot_rows: np.ndarray, block_words: int):
    """The blocks of a plan entry in walk order, (rows, pivots, idx, j0, j1,
    pads): rows[:, r] is shorter column idx[r] XORed with the row of its
    pivot pivots[r], paired with the longer columns j0 <= j < j1 and padded
    as a _Group's pads say.  A _Group is one block; a _Pivot is cut into
    blocks of at most block_words longer columns, then as many shorter rows
    as fill one, sliced rather than gathered."""
    if isinstance(entry, _Group):
        rows = short[:, entry.idx] ^ pivot_rows[:, entry.pivots]
        yield rows, entry.pivots, entry.idx, 0, entry.width, entry.pads
        return
    shorter, longer, pivot = entry.shorter, entry.longer, pivot_rows[:, entry.m, None]
    step_h = min(longer, block_words)
    for j in range(0, longer, step_h):
        step_l = max(1, block_words // min(step_h, longer - j))
        for i in range(0, shorter, step_l):
            idx = range(i, min(i + step_l, shorter))
            yield short[:, i : idx.stop] ^ pivot, [entry.m] * len(idx), idx, j, min(j + step_h, longer), ()


@lru_cache(maxsize=_SHARED_SHAPES)
def _level_plan(a: int, c: int, span: int, s: int, block_words: int
                ) -> tuple[tuple[_Group | _Pivot, ...], int]:
    """The walk of a level (InfoSetLevels) and the words of its largest block.

    Pivots whose grids fit in one block together and whose shorter side is
    the same table make one _Group, all of their rows and the columns up to
    the longest longer side; a pivot whose grid alone does not fit is a
    _Pivot, cut into blocks by _blocks as it is walked.  The shorter side
    changes tables at most once a level, since the prefix side grows with m
    and the suffix side shrinks.  So a plan has at most span entries,
    whatever the level's size.  Its index arrays hold one entry per row of a
    group: a pivot's shorter side is no longer than its longer side, so the
    rows of g pivots under width are at most g * width and, times width, at
    most block_words; that is at most sqrt(g * block_words) rows a group and
    span * sqrt(block_words) a plan.  A plan depends on its shape alone and
    is kept for every code of that shape.
    """
    plan, size = [], 0
    group, rows, width, swap = [], 0, 0, False

    def close():
        counts = np.array([shorter for _, shorter, _ in group], dtype=np.intp)
        ends = np.cumsum(counts)
        pivots, idx = _read_only(np.repeat(np.array([m for m, _, _ in group], dtype=np.intp), counts),
                                 np.arange(rows) - np.repeat(ends - counts, counts))
        pads = tuple((int(end) - shorter, int(end), longer)
                     for (_, shorter, longer), end in zip(group, ends) if longer < width)
        plan.append(_Group(swap, pivots, idx, pads, width))
        return rows * width

    for m in range(a, span - c):
        low, high = math.comb(m, a) * s**a, math.comb(span - 1 - m, c) * s**c
        shorter, longer = (high, low) if low > high else (low, high)
        if group and (swap != (low > high) or (rows + shorter) * max(width, longer) > block_words):
            size = max(size, close())
            group, rows, width = [], 0, 0
        swap = low > high
        if shorter * longer <= block_words:
            group.append((m, shorter, longer))
            rows, width = rows + shorter, max(width, longer)
            continue
        plan.append(_Pivot(swap, m, shorter, longer))
        # every column block is step_h wide but the last, which may be narrower and take more rows
        step_h = min(longer, block_words)
        for cols in {step_h, longer - (longer - 1) // step_h * step_h}:
            size = max(size, cols * min(shorter, max(1, block_words // cols)))
    if group:
        size = max(size, close())
    return tuple(plan), size


class InfoSetLevels:
    """The messages of one information set, walked level by level.

    Built from the (k, n - k) parity part of a systematic form [I | P]: a
    message of weight w has codeword weight w plus the weight of the XOR of
    its scaled parity rows, held as packed planes.  Level w is walked by its
    pivot, the (w//2 + 1)-th smallest message position m: the w//2
    positions below m come from a prefix table, m carries the scalar 1 (a
    word and its multiples have the same weight) and the (w-1)//2 positions
    above m come from a table over the reversed rows, whose suffix is a
    prefix.  Pivot m pairs the first comb(m, w//2) s^(w//2) prefix columns
    with the first comb(span-1-m, (w-1)//2) s^((w-1)//2) suffix columns,
    s = q - 1: a grid of the shorter side (the prefix on a tie) by the
    longer.

    The walk order is: pivot m ascending; inside m, the blocks of at most
    _BLOCK_WORDS columns of the longer side, then the blocks of rows of the
    shorter side that fill one, then every (shorter, longer) pair in
    row-major order.  A level is walked as a stream of blocks of at most
    _BLOCK_WORDS words in that order.  Consecutive pivots whose shorter side
    is the same table share a block while all their rows times the longest
    of their longer sides fit in one: their rows are gathered by index, and
    a row's columns past its own pivot's longer side are padding, never a
    candidate.  A pivot whose grid does not fit in one block is walked in
    blocks of its own, its rows sliced rather than gathered.  One loop walks
    both: _blocks yields a group as one block and cuts a big pivot into its
    blocks, each with its pivot-XORed rows, where they came from and its
    longer columns.

    That layout depends on (w, span, q) and _BLOCK_WORDS alone, not on the
    code, so it is planned once a shape (_level_plan) and kept for every
    code of that shape: the gathered row indices of each shared block, and
    each pivot too big for one block, whose blocks are cut as the walk
    reaches them.  A plan has at most span entries whatever the level's
    size; the module keeps the plans of at most _SHARED_SHAPES shapes.

    A block XORs its rows (shorter columns, each XORed with its pivot row)
    with its longer columns, first on word line 0 of every pair, then
    popcounts that line into uint8.  With one line (at most 64 parity
    columns) those counts are the weights, read by one argmin.  With more,
    a pair whose line 0 already weighs the threshold or more cannot be
    lighter, so only the others get their further lines, gathered by (row,
    column).  The threshold starts at below - w and drops to each lighter
    word found, so a later block keeps only strictly lighter words and the
    first lightest in walk order stands.  The buffers (one per plane, the
    line-0 counts and, with more lines, the candidate mask) are allocated
    once a level, the size of its largest block, so a small level allocates
    little and at most _BLOCK_WORDS words are live; the tables (_table) hold
    the level's columns.
    """

    def __init__(self, parity: np.ndarray, q: int):
        self.parity = parity
        lo, hi = (p.T.copy() for p in gf4.pack_planes(parity))
        self.planes = 1 if q == 2 else 2
        # scaled[:, x, c] is message row x times the c-th nonzero scalar:
        # omega (a + b omega) = b + (a + b) omega, omega^2 (a + b omega) = (a + b) + a omega
        scalars = [lo] if q == 2 else [np.vstack(p) for p in ((lo, hi), (hi, lo ^ hi), (lo ^ hi, lo))]
        self.scaled = np.stack(scalars, axis=2)
        self.tables: dict[tuple[bool, int], list[np.ndarray]] = {}
        self.empty_sum = np.zeros((len(self.scaled), 1), dtype=np.uint64)  # level 0 of every table

    def _table(self, reverse: bool, span: int, t: int) -> np.ndarray:
        """Level t of the subset table over the first span rows, reversed if
        asked: the XOR sums of every t-subset of the rows under every pattern
        of scalars, in colex order.  A side's levels are a list grown a level
        at a time (_level_gather).  Forward, the table over span rows is the
        first comb(span, t) s^t columns of the one over all k rows, so one
        list serves every span, each level built over the rows asked for so
        far; the reversed rows differ with span, so each span has a list.
        """
        width, k, s = self.scaled.shape
        levels = self.tables.setdefault((reverse, span if reverse else k), [self.empty_sum])
        for level in range(1, t + 1):
            columns = math.comb(span, level) * s**level
            if level < len(levels) and levels[level].shape[1] >= columns:
                continue
            rows = self.scaled[:, :span]
            scaled = (rows[:, ::-1] if reverse else rows).reshape(width, span * s)
            gather = _level_gather if columns <= _BLOCK_WORDS else _level_gather.__wrapped__
            column, source = gather(span, s, level)
            levels[level:level + 1] = [levels[level - 1][:, column] ^ scaled[:, source]]
        return levels[t][:, : math.comb(span, t) * s**t]

    def least_weight(self, w: int, span: int, below: int) -> tuple[int, np.ndarray] | None:
        """The lightest codeword of weight < below over the weight-w messages
        on the first span positions: (weight, word), the word as k message
        symbols followed by their encoding, message times the parity part;
        None when every such word weighs below or more.

        The word is the first of the lightest in the walk order of the class
        docstring.  Its message is read back from the indices of its two
        table columns (_subset_of_column) and encoded from the parity
        symbols, so the caller can check the word against the weight.
        """
        bound = below - w  # the parity weight a word must stay under
        if bound <= 0:
            return None
        s = self.scaled.shape[2]
        a, c = w // 2, (w - 1) // 2
        tables = self._table(False, span, a), self._table(True, span, c)
        if len(tables[0]):
            block_words = _BLOCK_WORDS
            plan, size = _level_plan(a, c, span, s, block_words)
            lines = len(tables[0]) // self.planes
            bufs = (np.empty(size, dtype=np.uint64),
                    np.empty(size, dtype=np.uint64) if self.planes == 2 else None,
                    np.empty(size, dtype=np.uint8),
                    np.empty(size, dtype=bool) if lines > 1 else None)
            pivot_rows = self.scaled[:, :, 0]
            best = None
            for entry in plan:
                short, long = tables[::-1] if entry.swap else tables
                for rows, pivots, idx, j0, j1, pads in _blocks(entry, short, pivot_rows, block_words):
                    found = self._least_in_block(bufs, bound, rows, long[:, j0:j1], pads)
                    if found is not None:
                        weight, row, col = found
                        m, r, col = int(pivots[row]), int(idx[row]), j0 + col
                        best, bound = (weight, m, col, r) if entry.swap else (weight, m, r, col), weight
            if best is None:
                return None
        else:  # no parity columns (the full space): every word weighs 0
            best = (0, a, 0, 0)
        weight, m, i, j = best
        message = np.zeros(self.parity.shape[0], dtype=np.uint8)
        message[m] = 1
        for x, scalar in _subset_of_column(i, a, s):
            message[x] = scalar + 1
        for x, scalar in _subset_of_column(j, c, s):
            message[span - 1 - x] = scalar + 1
        support = message.nonzero()[0]
        parity = np.bitwise_xor.reduce(gf4.MUL_TABLE[message[support, None], self.parity[support]], axis=0)
        return w + weight, np.concatenate([message, parity])

    def _least_in_block(self, bufs, bound: int, rows: np.ndarray, high: np.ndarray, pads
                        ) -> tuple[int, int, int] | None:
        """(weight, row, column) of the first lightest pair of one block
        whose parity weight is below bound, or None.

        rows are the block's shorter-side columns, each XORed with its pivot
        row, and high its longer-side columns; the pairs of rows r0 <= r < r1
        from column col on are padding, for each (r0, r1, col) in pads.  A
        column holds its planes one after the other, one uint64 word line at
        a time; a coordinate counts when any plane has its bit set.  Only
        the pairs whose line 0 weighs less than bound get their other lines
        (class docstring).
        """
        shape = (rows.shape[1], high.shape[1])
        size = shape[0] * shape[1]
        xor_buf, or_buf, count_buf, mask_buf = bufs
        lines = len(rows) // self.planes
        x = xor_buf[:size].reshape(shape)
        np.bitwise_xor.outer(rows[0], high[0], out=x)
        if self.planes == 2:
            y = or_buf[:size].reshape(shape)
            np.bitwise_xor.outer(rows[lines], high[lines], out=y)
            np.bitwise_or(x, y, out=x)
        count = np.bitwise_count(x, out=count_buf[:size].reshape(shape))
        # a line counts at most 64 bits, so 255 lies above every real count:
        # the padded pairs weigh 255, and as every row has a real pair,
        # neither an argmin nor a count below min(bound, 255) is ever a
        # padded pair
        for r0, r1, col in pads:
            count[r0:r1, col:] = 255
        if lines == 1:
            flat = int(count.argmin())
            weight = int(count.flat[flat])
        else:
            flat = np.flatnonzero(np.less(count, min(bound, 255), out=mask_buf[:size].reshape(shape)))
            if not len(flat):
                return None
            row, col = np.divmod(flat, shape[1])
            total = count.ravel()[flat].astype(np.intp)
            for t in range(1, lines):
                z = rows[t, row] ^ high[t, col]
                if self.planes == 2:
                    z |= rows[lines + t, row] ^ high[lines + t, col]
                total += np.bitwise_count(z)
            first = int(total.argmin())
            flat, weight = int(flat[first]), int(total[first])
        if weight >= bound:
            return None
        return (weight, *divmod(flat, shape[1]))
