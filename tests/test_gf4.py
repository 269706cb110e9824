import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duadiq import gf4, linalg

import oracle


MUL, CONJ = gf4.MUL_TABLE, gf4.CONJ_TABLE


def test_field_axioms_exhaustive():
    # addition is XOR of the 2-bit symbols; the tables are what src/ reads
    for a in range(4):
        for b in range(4):
            assert a ^ b == oracle.ADD[a, b]
            assert MUL[a, b] == oracle.MUL[a, b]
            assert MUL[a, b] == MUL[b, a]
            for c in range(4):
                assert MUL[a, b ^ c] == MUL[a, b] ^ MUL[a, c]
                assert MUL[MUL[a, b], c] == MUL[a, MUL[b, c]]


def test_defining_relations():
    w, w2 = gf4.OMEGA, gf4.OMEGA2
    assert MUL[w, w] == w2
    assert MUL[w, w2] == 1
    assert w ^ 1 == w2
    assert CONJ[w] == w2
    assert CONJ[w2] == w
    for a in range(4):
        assert CONJ[CONJ[a]] == a
        assert CONJ[a] == MUL[a, a]
        assert a ^ a == 0


def test_inverses():
    # exhaustive over the 3-element multiplicative group: each nonzero
    # element has exactly one inverse, and omega^2's is omega
    for a in range(1, 4):
        assert [b for b in range(4) if MUL[a, b] == 1] == [CONJ[a]]
    assert MUL[3, 2] == 1


def _inner(u, v):
    """The Hermitian form of two vectors, by linalg.gram_matrix."""
    return int(linalg.gram_matrix(u, v)[0, 0])


def test_hermitian_inner_examples():
    v = np.array([1, 2], dtype=np.uint8)
    assert _inner(v, v) == 0  # 1 + w*conj(w) = 1 + 1
    ones5 = np.ones(5, dtype=np.uint8)
    assert _inner(ones5, ones5) == 1
    z = np.zeros(5, dtype=np.uint8)
    assert _inner(z, ones5) == 0
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        u, v = rng.integers(0, 4, (2, n)).astype(np.uint8)
        assert _inner(u, v) == oracle.inner(u.tolist(), v.tolist())


def test_sesquilinearity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        u = rng.integers(0, 4, n).astype(np.uint8)
        v = rng.integers(0, 4, n).astype(np.uint8)
        lam = int(rng.integers(1, 4))
        assert _inner(oracle.scalar_mul(lam, u), v) == MUL[lam, _inner(u, v)]
        assert _inner(u, oracle.scalar_mul(lam, v)) == MUL[CONJ[lam], _inner(u, v)]
        assert _inner(u, v) == CONJ[_inner(v, u)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=64))
def test_norm_is_weight_mod_2(symbols):
    v = np.array(symbols, dtype=np.uint8)
    assert _inner(v, v) == gf4.weight(v) % 2


def test_norm_weight_big_sample():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 65))
        v = rng.integers(0, 4, n).astype(np.uint8)
        assert _inner(v, v) == gf4.weight(v) % 2


def _plane_product(p, q):
    """The trimmed product of two coefficient arrays, on bit planes."""
    return gf4.planes_poly(*gf4.planes_mul(gf4.poly_planes(p), gf4.poly_planes(q)))


def test_poly_mul_divmod():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = rng.integers(0, 4, int(rng.integers(1, 10))).astype(np.uint8)
        q = rng.integers(0, 4, int(rng.integers(1, 8))).astype(np.uint8)
        if oracle.poly_deg(q) < 0:
            continue
        quot, rem = oracle.poly_divmod(p, q)
        recon = _plane_product(np.array(quot, dtype=np.uint8), q)
        if len(rem):
            padded = np.zeros(max(len(recon), len(rem)), dtype=np.uint8)
            padded[: len(recon)] ^= recon
            padded[: len(rem)] ^= np.array(rem, dtype=np.uint8)
            recon = padded
        assert recon[: oracle.poly_deg(recon) + 1].tolist() == p[: oracle.poly_deg(p) + 1].tolist()
        assert oracle.poly_deg(rem) < oracle.poly_deg(q)


def test_poly_mul_matches_oracle():
    # random polynomials with trailing zeros, the zero polynomial and more
    # than 64 coefficients: the plane product is the coefficientwise one,
    # and the planes of a trimmed polynomial give it back
    rng = np.random.default_rng(26)
    for _ in range(300):
        p, q = (rng.integers(0, 4, int(rng.integers(0, 90))).astype(np.uint8) for _ in range(2))
        product = _plane_product(p, q)
        assert product.dtype == np.uint8 and product.tolist() == oracle.poly_mul(p, q)
        assert gf4.planes_poly(*gf4.poly_planes(p)).tolist() == p[: oracle.poly_deg(p) + 1].tolist()


def test_poly_eval():
    # p(x) = 1 + w x + x^2 at x = w: 1 + w^2 + w^2 = 1
    p = np.array([1, 2, 1], dtype=np.uint8)
    assert oracle.poly_eval(p, 2) == 1


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(11)
    for n in (1, 5, 63, 64, 65, 130):
        m = rng.integers(0, 4, (3, n)).astype(np.uint8)
        lo, hi = gf4.pack_planes(m)
        assert lo.shape == (3, gf4.n_words(n))
        back = oracle.unpack_planes(lo, hi, n)
        assert np.array_equal(back, m)


def test_packed_weight_matches_symbol_weight():
    rng = np.random.default_rng(13)
    for _ in range(50):
        n = int(rng.integers(1, 100))
        v = rng.integers(0, 4, (1, n)).astype(np.uint8)
        lo, hi = gf4.pack_planes(v)
        assert int(np.bitwise_count(lo | hi).sum()) == gf4.weight(v[0])
