"""Oracle checks for the enumeration kernels."""

import itertools
import math
import threading

import numpy as np
import pytest

from duadiq import _kernels, distance, gf4

import oracle


def _span_inputs(rng, k, n):
    g = rng.integers(0, 4, (k, n)).astype(np.uint8)
    sg_lo, sg_hi = distance._packed_span(g)
    return g, sg_lo, sg_hi


def _naive_hist(g, start, n):
    naive = [0] * (n + 1)
    for word in oracle.span_words([list(r) for r in g]):
        naive[oracle.weight([oracle.ADD[a, b] for a, b in zip(word, start)])] += 1
    return naive


def test_backend_selection_reports():
    assert _kernels.active_backend() == "numpy"


@pytest.mark.parametrize("seed", range(6))
def test_hist_matches_naive_enumeration(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 6))
    n = int(rng.integers(k, 14))
    g, sg_lo, sg_hi = _span_inputs(rng, k, n)
    for start in (np.zeros(n, dtype=np.uint8), rng.integers(0, 4, n).astype(np.uint8)):
        (start_lo,), (start_hi,) = gf4.pack_planes(start)
        hist = _kernels.gray_weight_hists(sg_lo, sg_hi, start_lo, start_hi, n + 1)
        assert hist.tolist() == _naive_hist(g, start, n), (seed, start)


@pytest.mark.parametrize("suffix_bits", [16, 3])
@pytest.mark.parametrize("k,n", [(4, 13), (3, 64), (4, 71), (4, 100), (2, 130)])
def test_numpy_walker_matches_oracle(monkeypatch, suffix_bits, k, n):
    # n = 64 fills one word, n > 64 takes W >= 2; 3 suffix bits force the
    # prefix Gray walk, from a random start word, across reused block buffers
    monkeypatch.setattr(_kernels, "_SUFFIX_BITS", suffix_bits)
    rng = np.random.default_rng(k * n + suffix_bits)
    g, sg_lo, sg_hi = _span_inputs(rng, k, n)
    start = rng.integers(0, 4, n).astype(np.uint8)
    (start_lo,), (start_hi,) = gf4.pack_planes(start)
    hist = _kernels.gray_weight_hists(sg_lo, sg_hi, start_lo, start_hi, n + 1)
    assert hist.tolist() == _naive_hist(g, start, n)


@pytest.mark.parametrize("threads", [1, 2, 3, "more than steps"])
@pytest.mark.parametrize("k,n,suffix_bits", [(4, 13, 3), (3, 100, 2), (2, 300, 1), (0, 20, 3)])
def test_threaded_walk_matches_oracle(monkeypatch, threads, k, n, suffix_bits):
    # W = 1, W = 2, nbins > 256 (one weight to a key) and the span of zero
    # rows (a one-word block), from a random start word, with the prefix walk
    # cut into as many ranges as threads, one step each at the least
    steps = 1 << max(0, 2 * k - suffix_bits)
    monkeypatch.setattr(_kernels, "_SUFFIX_BITS", suffix_bits)
    monkeypatch.setattr(_kernels, "_MIN_STEPS", 1)
    monkeypatch.setattr(_kernels, "_THREADS", steps + 1 if threads == "more than steps" else threads)
    rng = np.random.default_rng(k * n + suffix_bits)
    g, sg_lo, sg_hi = _span_inputs(rng, k, n)
    start = rng.integers(0, 4, n).astype(np.uint8)
    (start_lo,), (start_hi,) = gf4.pack_planes(start)
    before = threading.active_count()
    hist = _kernels.gray_weight_hists(sg_lo, sg_hi, start_lo, start_hi, n + 1)
    assert threading.active_count() == before
    if k:
        assert hist.tolist() == _naive_hist(g, start, n)
    else:
        assert hist.tolist() == [int(w == oracle.weight(start)) for w in range(n + 1)]


def test_weight_histograms_same_at_every_thread_count(monkeypatch):
    # one [24, 10] code, 4^10 words: 64 prefix steps on the first peeled level
    g = np.random.default_rng(10).integers(0, 4, (10, 24)).astype(np.uint8)
    monkeypatch.setattr(_kernels, "_THREADS", 1)
    hist, work = distance.weight_histograms(g)
    assert work == 4**10 and hist.sum() == 4**10
    monkeypatch.setattr(_kernels, "_SUFFIX_BITS", 12)
    monkeypatch.setattr(_kernels, "_MIN_STEPS", 1)
    for threads in (1, 2, 3):
        monkeypatch.setattr(_kernels, "_THREADS", threads)
        again, again_work = distance.weight_histograms(g)
        assert again.tolist() == hist.tolist() and again_work == work, threads


def _threaded_walk_inputs(monkeypatch):
    """A walk of 8 prefix steps cut into 3 ranges."""
    monkeypatch.setattr(_kernels, "_SUFFIX_BITS", 3)
    monkeypatch.setattr(_kernels, "_MIN_STEPS", 1)
    monkeypatch.setattr(_kernels, "_THREADS", 3)
    _, sg_lo, sg_hi = _span_inputs(np.random.default_rng(3), 3, 40)
    zero = np.zeros(1, dtype=np.uint64)
    return sg_lo, sg_hi, zero, zero, 41


def _raising_step(monkeypatch, in_main: bool, exc: BaseException):
    """Make the block step raise exc on the calling thread or on the helpers."""
    step = _kernels._bin_block

    def bin_block(*args):
        if (threading.current_thread() is threading.main_thread()) == in_main:
            raise exc
        step(*args)

    monkeypatch.setattr(_kernels, "_bin_block", bin_block)


@pytest.mark.parametrize("exc", [RuntimeError("step failed"), KeyboardInterrupt()])
def test_raising_main_range_joins_every_helper(monkeypatch, exc):
    args = _threaded_walk_inputs(monkeypatch)
    _raising_step(monkeypatch, True, exc)
    before = threading.active_count()
    with pytest.raises(type(exc)):
        _kernels.gray_weight_hists(*args)
    assert threading.active_count() == before


def test_helper_exception_reaches_the_caller(monkeypatch):
    args = _threaded_walk_inputs(monkeypatch)
    _raising_step(monkeypatch, False, ValueError("helper failed"))
    before = threading.active_count()
    with pytest.raises(ValueError, match="helper failed"):
        _kernels.gray_weight_hists(*args)
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("n", [31, 32, 33, 64, 65])
def test_walks_match_oracle_at_lane_boundaries(monkeypatch, threads, n):
    # n <= 32 walks uint32 lanes, n = 33 and 64 one uint64 word, n = 65 two;
    # the last coordinate is set, so n = 32 fills the lane's top bit and n =
    # 33 does not fit one.  3 suffix bits cut the prefix walk into ranges,
    # one per thread; the GF(4) walk starts from a random word
    monkeypatch.setattr(_kernels, "_SUFFIX_BITS", 3)
    monkeypatch.setattr(_kernels, "_MIN_STEPS", 1)
    monkeypatch.setattr(_kernels, "_THREADS", threads)
    planes = []
    step = _kernels._bin_block

    def bin_block(sufs, *args):
        planes.append((len(sufs), sufs[0].dtype))
        step(sufs, *args)

    monkeypatch.setattr(_kernels, "_bin_block", bin_block)
    lane = np.dtype(np.uint32 if n <= 32 else np.uint64)
    rng = np.random.default_rng(n * 10 + threads)
    g = rng.integers(0, 4, (5, n)).astype(np.uint8)
    g[0, -1] = 1
    sg_lo, sg_hi = distance._packed_span(g)
    start = rng.integers(0, 4, n).astype(np.uint8)
    (start_lo,), (start_hi,) = gf4.pack_planes(start)
    hist = _kernels.gray_weight_hists(sg_lo, sg_hi, start_lo, start_hi, n + 1)
    assert hist.tolist() == oracle.weight_counts(g.tolist(), n, start=start.tolist())
    assert set(planes) == {(2, lane)}
    planes.clear()
    b = rng.integers(0, 2, (10, n)).astype(np.uint8)
    b[0, -1] = 1
    hist = _kernels.gray_weight_hists_binary(gf4.pack_planes(b)[0], n + 1)
    assert hist.tolist() == oracle.weight_counts(b.tolist(), n, q=2)
    assert set(planes) == {(1, lane)}  # the binary walk builds no hi plane


@pytest.mark.parametrize("k,n", [(4, 12), (10, 31), (6, 80)])
def test_binary_walker_matches_enumeration(k, n):
    rng = np.random.default_rng(k * n)
    g = rng.integers(0, 2, (k, n)).astype(np.uint8)
    lo, _ = gf4.pack_planes(g)
    hist = _kernels.gray_weight_hists_binary(lo, n + 1)
    naive = [0] * (n + 1)
    for coeffs in itertools.product(range(2), repeat=k):
        word = np.zeros(n, dtype=np.uint8)
        for c, row in zip(coeffs, g):
            if c:
                word ^= row
        naive[int(word.sum())] += 1
    assert hist.tolist() == naive


@pytest.mark.parametrize("block_words", [1 << 14, 3])
@pytest.mark.parametrize("q,k,n_parity", [(4, 5, 7), (4, 6, 70), (2, 7, 9)])
def test_info_set_levels_returns_its_lightest_word(monkeypatch, block_words, q, k, n_parity):
    # the word is a codeword (message | message P) of the reported weight,
    # its message has weight w on the first span positions, and no such
    # message gives a lighter word; 3-word blocks split both sides of a level
    monkeypatch.setattr(_kernels, "_BLOCK_WORDS", block_words)
    rng = np.random.default_rng(k * n_parity + q)
    parity = rng.integers(0, q, (k, n_parity)).astype(np.uint8)
    walk = _kernels.InfoSetLevels(parity, q)
    rows = [list(r) for r in parity]

    def encode(message):
        out = [0] * n_parity
        for c, row in zip(message, rows):
            out = [oracle.ADD[x, oracle.MUL[c, y]] for x, y in zip(out, row)]
        return list(message) + out

    for w in range(1, 4):
        for span in range(w, k + 1):
            weight, word = walk.least_weight(w, span, k + n_parity + 1)
            assert word.shape == (k + n_parity,) and oracle.weight(word) == weight
            assert word.tolist() == encode(word[:k])
            assert oracle.weight(word[:k]) == w and not word[span:k].any()
            best = min(
                oracle.weight(encode([dict(zip(pos, scalars)).get(x, 0) for x in range(k)]))
                for pos in itertools.combinations(range(span), w)
                for scalars in itertools.product(range(1, q), repeat=w)
            )
            assert weight == best, (w, span)


@pytest.mark.parametrize("block_words", [1 << 14, _kernels._BLOCK_WORDS, 3, 7])
@pytest.mark.parametrize("n_parity", [0, 5, 70, 130])
@pytest.mark.parametrize("q,k", [(2, 10), (4, 9)])
def test_level_walk_returns_the_oracle_witness(monkeypatch, block_words, n_parity, q, k):
    # the exact (weight, word) of the walk order: the witness is the hi the
    # search reports, so another word of the same weight would change it.
    # 0, 5, 70 and 130 parity columns take W = 0, 1, 2 and 3 word lines; 3-
    # and 7-word blocks cut pivots into several blocks and gather few; 2^14
    # words bounds the gathering tighter than the shipped size.  Below
    # the threshold the walk finds the oracle's word, pruned on line 0 or
    # not; at or above it, nothing
    monkeypatch.setattr(_kernels, "_BLOCK_WORDS", block_words)
    rng = np.random.default_rng(q * 1000 + n_parity)
    parity = rng.integers(0, q, (k, n_parity)).astype(np.uint8)
    walk = _kernels.InfoSetLevels(parity, q)
    for w in range(1, 5):
        for span in range(w, k + 1):
            want = oracle.first_lightest_message(parity.tolist(), q, w, span, block_words)
            least = want[0]
            for below in sorted({least, least + 1, k + n_parity + 1} | ({0} if least > 0 else set())):
                found = walk.least_weight(w, span, below)
                if least >= below:
                    assert found is None, (w, span, below)
                else:
                    weight, word = found
                    assert (weight, tuple(word.tolist())) == want, (w, span, below)
    assert [key for key in walk.tables if not key[0]] == [(False, k)]  # one forward table for every span


def _least_words(parity, q):
    """(w, span, weight, word) of every level the oracle witness test walks."""
    k, n_parity = parity.shape
    walk = _kernels.InfoSetLevels(parity, q)
    return [(w, span, weight, tuple(word.tolist()))
            for w in range(1, 5) for span in range(w, k + 1)
            for weight, word in [walk.least_weight(w, span, k + n_parity + 1)]]


@pytest.mark.parametrize("n_parity", [5, 70])
def test_level_plans_are_kept_per_block_size(monkeypatch, n_parity):
    # a plan warmed at the shipped block size must not serve a walk at
    # another: the walk still gives the oracle's witness of that block size,
    # and cold caches give the same words
    q, k = 4, 9
    parity = np.random.default_rng(q * 1000 + n_parity).integers(0, q, (k, n_parity)).astype(np.uint8)
    _least_words(parity, q)
    for block_words in (3, 7):
        monkeypatch.setattr(_kernels, "_BLOCK_WORDS", block_words)
        warm = _least_words(parity, q)
        for w, span, weight, word in warm:
            assert (weight, word) == oracle.first_lightest_message(parity.tolist(), q, w, span, block_words)
        _kernels._level_plan.cache_clear()
        _kernels._level_gather.cache_clear()
        assert _least_words(parity, q) == warm


def test_level_plans_and_shared_gathers_are_bounded(monkeypatch):
    # the n = 141 level-6 shape has 617,821 blocks; its plan has one entry a
    # pivot or group of pivots, covers every message of the level once and
    # sizes its buffers to at most one block
    block_words = _kernels._BLOCK_WORDS
    plan, size = _kernels._level_plan(3, 2, 72, 3, block_words)
    assert len(plan) <= 72 and size <= block_words
    rows = words = 0
    for entry in plan:
        if isinstance(entry, _kernels._Group):
            rows += len(entry.idx)
            words += len(entry.idx) * entry.width - sum((r1 - r0) * (entry.width - col) for r0, r1, col in entry.pads)
        else:
            words += entry.shorter * entry.longer
    assert rows <= 72 * math.isqrt(block_words)
    assert words == math.comb(72, 6) * 3**5
    # a level of at most _BLOCK_WORDS columns keeps its gather, a larger one
    # does not, and both equal an uncached build
    rng = np.random.default_rng(5)
    for k, cached in ((25, 3), (26, 2)):  # level 3 has 62,100 and 70,200 columns
        _kernels._level_gather.cache_clear()
        parity = rng.integers(0, 4, (k, 5)).astype(np.uint8)
        table = _kernels.InfoSetLevels(parity, 4)._table(False, k, 3)
        assert _kernels._level_gather.cache_info().currsize == cached
        with monkeypatch.context() as m:
            m.setattr(_kernels, "_BLOCK_WORDS", 0)
            assert (_kernels.InfoSetLevels(parity, 4)._table(False, k, 3) == table).all()
        assert _kernels._level_gather.cache_info().currsize == cached


@pytest.mark.parametrize("t", [0, 1, 2, 3])
def test_subset_table_columns_are_their_subsets(t):
    # column j of a side's table over the first span rows is the sum of the
    # scaled rows _subset_of_column names, rows span - 1 down to 0 on the
    # reversed side; the spans rise, so the forward levels grow, then fall,
    # so they are sliced
    k = 6
    parity = np.random.default_rng(t).integers(0, 4, (k, 70)).astype(np.uint8)
    walk = _kernels.InfoSetLevels(parity, 4)
    for span in [*range(k + 1), *range(k, -1, -1)]:
        for reverse in (False, True):
            table = walk._table(reverse, span, t)
            assert table.shape == (len(walk.scaled), math.comb(span, t) * 3**t)
            for j in range(table.shape[1]):
                want = np.zeros(len(table), dtype=np.uint64)
                for x, scalar in _kernels._subset_of_column(j, t, 3):
                    want ^= walk.scaled[:, span - 1 - x if reverse else x, scalar]
                assert (table[:, j] == want).all(), (reverse, span, j)
