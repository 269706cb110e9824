import numpy as np
import pytest

from duadiq import extfield
from duadiq.cyclic import all_cosets, cyclotomic_coset

import oracle


def test_factorize():
    assert extfield.factorize(1) == {}
    assert extfield.factorize(12) == {2: 2, 3: 1}
    assert extfield.factorize(2**28 - 1) == {3: 1, 5: 1, 29: 1, 43: 1, 113: 1, 127: 1}
    assert extfield.is_prime(23) and not extfield.is_prime(21)


def test_mult_order():
    assert extfield.mult_order(4, 5) == 2
    assert extfield.mult_order(4, 3) == 1
    assert extfield.mult_order(4, 13) == 6
    assert extfield.mult_order(2, 23) == 11
    assert extfield.mult_order(2, 1) == extfield.mult_order(4, 1) == 1
    with pytest.raises(ValueError):
        extfield.mult_order(3, 9)


def test_smallest_irreducible_degree2():
    # the only irreducible quadratic over GF(2)
    assert extfield.smallest_irreducible(2, True) == 0b111


def test_irreducibility_checker():
    assert extfield.is_irreducible(0b111)        # x^2+x+1
    assert not extfield.is_irreducible(0b101)    # x^2+1 = (x+1)^2
    assert extfield.is_irreducible(0b1011)       # x^3+x+1
    assert not extfield.is_irreducible(0b1111)   # x^3+x^2+x+1


@pytest.mark.parametrize("n,r", [(5, 2), (3, 1), (13, 6), (7, 3), (9, 3), (15, 2), (29, 14)])
def test_ext_build_orders(n, r):
    ext = extfield.ext_build(n)
    assert ext.r == r
    assert ext.n % 1 == 0
    # alpha has exact multiplicative order n
    assert extfield._field_pow(ext.alpha, n, ext.modulus) == 1
    for p in extfield.factorize(n):
        assert extfield._field_pow(ext.alpha, n // p, ext.modulus) != 1
    # omega spans the GF(4) subfield consistently
    assert ext.mul(ext.omega, ext.omega) == ext.omega ^ 1
    assert ext.omega != 1 and extfield._field_pow(ext.omega, 3, ext.modulus) == 1


def test_ext_build_rejects_even():
    with pytest.raises(ValueError):
        extfield.ext_build(6)


def test_minimal_poly_examples():
    e3 = extfield.ext_build(3)
    mp = extfield.minimal_poly(e3, {0})
    assert np.array_equal(mp, [1, 1])  # x + 1

    e5 = extfield.ext_build(5)
    mp5 = extfield.minimal_poly(e5, cyclotomic_coset(5, 1))
    assert len(mp5) == 3 and mp5[0] == 1  # constant term alpha^5 = 1

    e9 = extfield.ext_build(9)
    mp9 = extfield.minimal_poly(e9, cyclotomic_coset(9, 1))
    assert len(mp9) == 4  # degree 3 coset {1,4,7}
    _, rem = oracle.poly_divmod(oracle.x_pow_n_minus_1(9), mp9)
    assert len(rem) == 0


def test_minimal_poly_cached_read_only():
    ext = extfield.ext_build(23)
    coset = cyclotomic_coset(23, 1)
    mp = extfield.minimal_poly(ext, coset)
    assert extfield.minimal_poly(ext, set(coset)) is mp
    assert not mp.flags.writeable


def test_minimal_poly_rejects_unclosed():
    e5 = extfield.ext_build(5)
    with pytest.raises(ValueError):
        extfield.minimal_poly(e5, {1, 2})


@pytest.mark.parametrize("n", [3, 5, 7, 9, 13, 15, 21, 33])
def test_minimal_polys_factor_x_n_minus_1(n):
    ext = extfield.ext_build(n)
    part = all_cosets(n)
    product = [1]
    for coset in part.cosets:
        mp = extfield.minimal_poly(ext, coset)
        assert len(mp) == len(coset) + 1
        _, rem = oracle.poly_divmod(oracle.x_pow_n_minus_1(n), mp)
        assert len(rem) == 0
        product = oracle.poly_mul(product, mp.tolist())
    assert product == oracle.x_pow_n_minus_1(n)


def test_large_degree_fallback():
    # ord_47(4) = 23 forces a degree-46 modulus, beyond the primitivity limit
    ext = extfield.ext_build(47)
    assert extfield._pdeg(ext.modulus) == 46
    assert extfield._field_pow(ext.alpha, 47, ext.modulus) == 1
    assert ext.alpha != 1
    assert ext.mul(ext.omega, ext.omega) == ext.omega ^ 1


def _unsieved_modulus(degree, primitive):
    """The modulus search without the small-factor sieve: every candidate
    with constant term 1, in the same order, goes to the irreducibility test."""
    group = (1 << degree) - 1
    for key in range(1 << (degree - 1), 1 << degree):
        m = extfield._lex_key_to_poly(key, degree)
        if extfield.is_irreducible(m) and (not primitive or all(
                extfield._field_pow(2, group // p, m) != 1 for p in extfield.factorize(group))):
            return m
    raise AssertionError(f"no modulus of degree {degree}")


def test_sieved_modulus_search_matches_the_unsieved_one():
    # every field degree of an odd n <= 41 or of the research lengths 123
    # and 141, over GF(2) and GF(4), including the primitive degree 36 of
    # n = 37 and the non-primitive degree 46 of n = 141
    degrees = {extfield.mult_order(q, n) * (q // 2) for q in (2, 4)
               for n in [*range(3, 42, 2), 123, 141]}
    assert {36, 46} <= degrees and max(degrees) == 46
    for degree in sorted(degrees):
        primitive = degree <= extfield._PRIMITIVITY_DEGREE_LIMIT
        assert extfield.smallest_irreducible(degree, primitive) == _unsieved_modulus(degree, primitive)


@pytest.mark.parametrize("n,modulus,gamma,alpha,omega", [
    (29, 0x12000001, 2, 0xFA27F10, 0x31F7A06),
    (37, 0x1DC0000001, 2, 0x6C8998E69, 0xEA0EC58B0),
    (123, 0x120001, 2, 0x83A32, 0x629AE),
    # degree 46: the smallest irreducible, not primitive, so gamma is not x
    (141, 0x600000000001, 7, 0x3A2A36BD70B3, 0x39E8DF059263),
])
def test_ext_build_is_pinned(n, modulus, gamma, alpha, omega):
    # the modulus convention and the pinned roots label every cyclic code
    ext = extfield.ext_build(n)
    assert (ext.modulus, ext.gamma, ext.alpha, ext.omega) == (modulus, gamma, alpha, omega)
