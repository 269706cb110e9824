"""Extension fields GF(4^r) and primitive n-th roots of unity.

Every cyclic code of the package lives over GF(4), so ext_build(n) builds
GF(4^r), r = ord_n(4), alone.  A binary cyclic code enters as the GF(4)
code of a defining set closed under t -> 2t, whose generator polynomial is
binary; no GF(2^r) is built for it.

Field elements are Python ints whose bits are GF(2) polynomial coefficients,
reduced modulo a fixed irreducible polynomial.  The modulus convention is
deterministic and system independent:

* degree <= 40: the lexicographically smallest primitive polynomial, where
  coefficient strings are compared low-degree-first.  The residue class of x
  is then a generator of the multiplicative group.
* degree > 40: the lexicographically smallest irreducible polynomial
  (primitivity testing would require factoring 2^d - 1, which is not desk
  scale for the degrees reached by lengths up to 241).  The generator is the
  first element, in integer encoding order, whose powers yield a root of
  unity of the exact order required.

Either way the resulting cyclic-code labeling is reproducible; it may differ
from other systems' labeling by a coset relabeling, which never changes code
parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_PRIMITIVITY_DEGREE_LIMIT = 40


def factorize(n: int) -> dict[int, int]:
    """Deterministic trial-division factorization (adequate below ~2^41)."""
    if n <= 0:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == {n: 1}


def mult_order(a: int, n: int) -> int:
    """Multiplicative order of a modulo n; requires gcd(a, n) = 1."""
    a %= n
    if math.gcd(a, n) != 1:
        raise ValueError(f"gcd({a}, {n}) != 1")
    # multiply up by a until the power returns to 1 mod n, which is 0 when n = 1
    order = 1
    x = a
    while x != 1 % n:
        x = x * a % n
        order += 1
        if order > n:
            raise RuntimeError("order computation overflow")
    return order


# ---------------------------------------------------------------------------
# GF(2)[x] on int bitmasks
# ---------------------------------------------------------------------------

def _clmul(a: int, b: int) -> int:
    """Carry-less product, one shifted XOR per set bit of b."""
    out = 0
    while b:
        low = b & -b
        out ^= a << (low.bit_length() - 1)
        b ^= low
    return out


def _pdeg(a: int) -> int:
    return a.bit_length() - 1


def _pmod(a: int, m: int) -> int:
    dm = m.bit_length()
    da = a.bit_length()
    while da >= dm:
        a ^= m << (da - dm)
        da = a.bit_length()
    return a


def _pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, _pmod(a, b)
    return a


def _pow_x_mod(exp: int, m: int) -> int:
    """x^(2^exp) mod m via repeated squaring of the Frobenius."""
    v = 2  # the polynomial x
    for _ in range(exp):
        v = _pmod(_clmul(v, v), m)
    return v


def is_irreducible(m: int) -> bool:
    """Deterministic irreducibility test for a GF(2) polynomial bitmask."""
    d = _pdeg(m)
    if d <= 0:
        return False
    if d == 1:
        return True
    if m & 1 == 0:  # divisible by x
        return False
    if _pow_x_mod(d, m) != 2:  # x^(2^d) == x required
        return False
    for p in factorize(d):
        if _pgcd(_pow_x_mod(d // p, m) ^ 2, m) != 1:
            return False
    return True


def _lex_key_to_poly(key: int, degree: int) -> int:
    # key bit (degree-1-i) is coefficient c_i; leading coefficient implicit
    m = 1 << degree
    for i in range(degree):
        if (key >> (degree - 1 - i)) & 1:
            m |= 1 << i
    return m


# x^15 - 1 times x^7 - 1: every irreducible polynomial of degree 1 to 4 but
# x divides it, since x^(2^d - 1) - 1 is the product of those of degree dividing d
_SMALL_FACTORS = _clmul(1 << 15 | 1, 1 << 7 | 1)


@lru_cache(maxsize=None)
def smallest_irreducible(degree: int, primitive: bool) -> int:
    """Deterministic modulus search in low-degree-first lexicographic order.

    Above degree 4 a candidate with a factor of degree at most 4 is
    rejected before the irreducibility test: by its weight when the factor
    is x + 1 (even weight), else by its gcd with _SMALL_FACTORS.  At degree
    36 that leaves 16 of the 60 candidates up to the modulus.
    """
    if primitive:
        fac = factorize((1 << degree) - 1)
    # keys below 2^(degree-1) have constant term 0, hence are divisible by x
    start = 1 << (degree - 1) if degree > 1 else 0
    for key in range(start, 1 << degree):
        m = _lex_key_to_poly(key, degree)
        if degree > 4 and (m.bit_count() % 2 == 0 or _pgcd(m, _SMALL_FACTORS) != 1):
            continue
        if not is_irreducible(m):
            continue
        if not primitive:
            return m
        group = (1 << degree) - 1
        ok = True
        for p in fac:
            if _field_pow(2, group // p, m) == 1:
                ok = False
                break
        if ok:
            return m
    raise RuntimeError(f"no irreducible polynomial of degree {degree}?")


def _field_pow(base: int, exp: int, modulus: int) -> int:
    out = 1
    b = base
    while exp:
        if exp & 1:
            out = _pmod(_clmul(out, b), modulus)
        b = _pmod(_clmul(b, b), modulus)
        exp >>= 1
    return out


# ---------------------------------------------------------------------------
# extension fields carrying a designated n-th root of unity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtField:
    """GF(4^r) with a pinned primitive n-th root of unity alpha.

    The field is realized as GF(2)[x]/(modulus) of degree 2r.  Its subfield
    GF(4) is {0, 1, omega, omega^2} with omega an element of order 3, and
    alpha's coset labeling follows it.
    """

    n: int
    r: int
    modulus: int
    gamma: int
    alpha: int
    omega: int  # the order-3 element

    def mul(self, a: int, b: int) -> int:
        return _pmod(_clmul(a, b), self.modulus)

    # -- subfield coding ----------------------------------------------------

    def to_base_symbol(self, a: int) -> int:
        """Map a GF(4) element back to its symbol 0, 1, 2 (omega) or 3 (omega^2)."""
        if a == 0:
            return 0
        if a == 1:
            return 1
        if a == self.omega:
            return 2
        if a == self.mul(self.omega, self.omega):
            return 3
        raise ValueError("element does not lie in the base subfield")


@lru_cache(maxsize=None)
def ext_build(n: int) -> ExtField:
    """Field GF(4^r) with r = ord_n(4) minimal, plus the pinned alpha.

    n must be odd and >= 3 (gcd(n, 4) = 1 is then automatic).
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    r = mult_order(4, n)
    degree = 2 * r
    primitive = degree <= _PRIMITIVITY_DEGREE_LIMIT
    modulus = smallest_irreducible(degree, primitive)
    group = (1 << degree) - 1
    n_fac = factorize(n)
    sub_exp = group // n

    def try_gamma(g: int) -> tuple[int, int] | None:
        alpha = _field_pow(g, sub_exp, modulus)
        if alpha == 0 or _field_pow(alpha, n, modulus) != 1:
            return None
        for p in n_fac:
            if _field_pow(alpha, n // p, modulus) == 1:
                return None
        omega = _field_pow(g, group // 3, modulus)
        if omega == 1 or _field_pow(omega, 3, modulus) != 1:
            return None
        return alpha, omega

    gamma = 2  # the residue class of x; always works for a primitive modulus
    found = try_gamma(gamma)
    while found is None:
        gamma += 1
        if gamma > group + 1:
            raise RuntimeError("no suitable generator found")
        found = try_gamma(gamma)
    alpha, omega = found
    return ExtField(n=n, r=r, modulus=modulus, gamma=gamma, alpha=alpha, omega=omega)


def minimal_poly(ext: ExtField, coset: frozenset[int] | set[int]) -> np.ndarray:
    """prod_{j in coset} (X - alpha^j), coefficients as base-field symbols.

    The coset must be closed under multiplication by 4 mod n; the product
    then has GF(4) coefficients by Galois invariance.  Results are cached
    per field and coset and returned read-only.
    """
    coset = frozenset(int(c) % ext.n for c in coset)
    if not coset:
        raise ValueError("empty coset")
    for c in coset:
        if (c * 4) % ext.n not in coset:
            raise ValueError(f"set not closed under multiplication by 4 mod {ext.n}")
    return _minimal_poly(ext, coset)


@lru_cache(maxsize=None)
def _alpha_powers(ext: ExtField) -> tuple[int, ...]:
    """alpha^j for j = 0..n-1, by n - 1 multiplications."""
    powers = [1]
    for _ in range(ext.n - 1):
        powers.append(ext.mul(powers[-1], ext.alpha))
    return tuple(powers)


@lru_cache(maxsize=None)
def _minimal_poly(ext: ExtField, coset: frozenset[int]) -> np.ndarray:
    # Horner-style product in the big field, little-endian coefficients
    powers = _alpha_powers(ext)
    poly = [1]
    for j in sorted(coset):
        root = powers[j]
        nxt = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i] ^= ext.mul(c, root)  # times (-root) = root in char 2
            nxt[i + 1] ^= c
        poly = nxt
    out = np.array([ext.to_base_symbol(c) for c in poly], dtype=np.uint8)
    out.setflags(write=False)
    return out
