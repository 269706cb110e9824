"""Backend equivalence and oracle checks for the enumeration kernels."""

import numpy as np
import pytest

from duadiq import _kernels, gf4

import oracle


needs_both = pytest.mark.skipif(
    _kernels.active_backend() != "numba",
    reason="backend comparison needs the numba path enabled",
)


def _span_inputs(rng, k, n):
    g = rng.integers(0, 4, (k, n)).astype(np.uint8)
    lo, hi = gf4.pack_planes(g)
    olo, ohi = gf4.pack_planes(gf4.MUL_TABLE[2][g])
    sg_lo, sg_hi = _kernels._scaled_generators(lo, hi, olo, ohi)
    return g, sg_lo, sg_hi


def test_backend_selection_reports():
    assert _kernels.active_backend() in ("numba", "numpy")


@pytest.mark.parametrize("seed", range(6))
def test_hist_matches_naive_enumeration(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 6))
    n = int(rng.integers(k, 14))
    g, sg_lo, sg_hi = _span_inputs(rng, k, n)
    offsets = rng.integers(0, 4, (2, n)).astype(np.uint8)
    offsets[0] = 0
    off_lo, off_hi = gf4.pack_planes(offsets)
    hist = _kernels.gray_weight_hists(sg_lo, sg_hi, off_lo, off_hi, n + 1)
    for j in range(2):
        naive = [0] * (n + 1)
        for word in oracle.span_words([list(r) for r in g]):
            shifted = [oracle.ADD[a, b] for a, b in zip(word, offsets[j])]
            naive[oracle.weight(shifted)] += 1
        assert list(hist[j]) == naive, (seed, j)


@pytest.mark.parametrize("suffix_bits", [16, 3])
@pytest.mark.parametrize("k,n", [(4, 13), (3, 64), (4, 71), (2, 130)])
def test_numpy_walker_matches_oracle(monkeypatch, suffix_bits, k, n):
    # n = 64 fills one word, n > 64 takes W >= 2; 3 suffix bits force the
    # prefix Gray walk across reused block buffers
    monkeypatch.setattr(_kernels, "_SUFFIX_BITS", suffix_bits)
    rng = np.random.default_rng(k * n + suffix_bits)
    g, sg_lo, sg_hi = _span_inputs(rng, k, n)
    offsets = rng.integers(0, 4, (3, n)).astype(np.uint8)
    off_lo, off_hi = gf4.pack_planes(offsets)
    hist = _kernels._numpy_hist_planes(sg_lo, sg_hi, off_lo, off_hi, n + 1)
    for j in range(3):
        naive = [0] * (n + 1)
        for word in oracle.span_words([list(r) for r in g]):
            naive[oracle.weight([oracle.ADD[a, b] for a, b in zip(word, offsets[j])])] += 1
        assert list(hist[j]) == naive, j


@needs_both
def test_backends_identical_quaternary():
    rng = np.random.default_rng(99)
    for k, n in [(3, 10), (6, 29), (8, 40), (5, 70)]:
        _, sg_lo, sg_hi = _span_inputs(rng, k, n)
        offsets = rng.integers(0, 4, (3, n)).astype(np.uint8)
        off_lo, off_hi = gf4.pack_planes(offsets)
        a = _kernels.gray_weight_hists(sg_lo, sg_hi, off_lo, off_hi, n + 1, backend="numba")
        b = _kernels.gray_weight_hists(sg_lo, sg_hi, off_lo, off_hi, n + 1, backend="numpy")
        assert np.array_equal(a, b)
        assert a.sum() == 3 * 4**k


@needs_both
def test_backends_identical_binary():
    rng = np.random.default_rng(5)
    for k, n in [(4, 12), (10, 31), (6, 80)]:
        g = rng.integers(0, 2, (k, n)).astype(np.uint8)
        lo, _ = gf4.pack_planes(g)
        off = rng.integers(0, 2, (2, n)).astype(np.uint8)
        off_lo, _ = gf4.pack_planes(off)
        a = _kernels.gray_weight_hists_binary(lo, off_lo, n + 1, backend="numba")
        b = _kernels.gray_weight_hists_binary(lo, off_lo, n + 1, backend="numpy")
        assert np.array_equal(a, b)
        naive = [0] * (n + 1)
        import itertools

        for coeffs in itertools.product(range(2), repeat=k):
            word = off[0].copy()
            for c, row in zip(coeffs, g):
                if c:
                    word ^= row
            naive[int(word.sum())] += 1
        assert list(a[0]) == naive


@needs_both
def test_sharded_path_equals_serial():
    # k = 10 hits the sharded dispatch on the numba path; the numpy backend
    # used as the reference is shard free
    rng = np.random.default_rng(123)
    _, sg_lo, sg_hi = _span_inputs(rng, 10, 30)
    off = np.zeros((1, 1), dtype=np.uint64)
    a = _kernels.gray_weight_hists(sg_lo, sg_hi, off, off, 31, backend="numba")
    b = _kernels.gray_weight_hists(sg_lo, sg_hi, off, off, 31, backend="numpy")
    assert np.array_equal(a, b)
    assert a.sum() == 4**10


def test_thread_count_does_not_change_result():
    rng = np.random.default_rng(321)
    _, sg_lo, sg_hi = _span_inputs(rng, 10, 25)
    off = np.zeros((1, 1), dtype=np.uint64)
    if _kernels.active_backend() != "numba":
        pytest.skip("thread scaling only applies to the numba backend")
    _kernels.set_num_threads(1)
    a = _kernels.gray_weight_hists(sg_lo, sg_hi, off, off, 26)
    _kernels.set_num_threads(2)
    b = _kernels.gray_weight_hists(sg_lo, sg_hi, off, off, 26)
    _kernels.set_num_threads(1)
    assert np.array_equal(a, b)


@needs_both
def test_multiword_path():
    # n > 64 forces the multi-word kernels
    rng = np.random.default_rng(77)
    g = rng.integers(0, 4, (4, 100)).astype(np.uint8)
    lo, hi = gf4.pack_planes(g)
    olo, ohi = gf4.pack_planes(gf4.MUL_TABLE[2][g])
    sg_lo, sg_hi = _kernels._scaled_generators(lo, hi, olo, ohi)
    off = np.zeros((1, lo.shape[1]), dtype=np.uint64)
    a = _kernels.gray_weight_hists(sg_lo, sg_hi, off, off, 101, backend="numba")
    b = _kernels.gray_weight_hists(sg_lo, sg_hi, off, off, 101, backend="numpy")
    assert np.array_equal(a, b)
    naive = [0] * 101
    for word in oracle.span_words([list(r) for r in g]):
        naive[oracle.weight(word)] += 1
    assert list(a[0]) == naive
