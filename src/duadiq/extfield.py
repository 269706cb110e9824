"""Extension fields GF(4^r) and primitive n-th roots of unity.

Every cyclic code of the package lives over GF(4), so ext_build(n) builds
GF(4^r), r = ord_n(4), alone.  A binary cyclic code enters as the GF(4)
code of a defining set closed under t -> 2t, whose generator polynomial is
binary; no GF(2^r) is built for it.

Field elements are Python ints whose bits are GF(2) polynomial coefficients,
reduced modulo a fixed irreducible polynomial m of degree D = 2r.  A product
is reduced a byte at a time: each field keeps the table
T[t] = t x^D + (t x^D mod m) of min(256, 2^(D - 1)) entries, and XOR-ing
T[t] << s into a product clears its byte t at bits D + s to D + s + 7, from
the top byte down.  A square spreads the bits of its factor, bit i to bit
2i.  The modulus search reduces a bit at a time and builds no table for the
candidates it tests.

The minimal polynomial of a 4-cyclotomic coset, least member j and size d,
comes from one GF(2) elimination, not from the product of its d linear
factors: with beta = alpha^j, beta^d = sum_{i<d} (a_i + b_i omega) beta^i
has one solution in bits a_i, b_i, read off the 2r-bit coordinates of the
powers beta^i, cached with alpha's, and of the products omega beta^i.  That
is d field products per coset where the product took about d^2 / 2.

The modulus convention is deterministic and system independent:

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
from dataclasses import dataclass, field
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


def _square(a: int) -> int:
    """a^2, which moves bit i to bit 2i: the binary numeral of a read in base 4."""
    return int(bin(a)[2:], 4)


def _reduction_table(m: int) -> tuple[int, ...]:
    """T[t] = t x^D + (t x^D mod m) for each t below min(256, 2^(D - 1)),
    D = deg m, built from its entries at powers of two by linearity.  A
    product or square of field elements has degree at most 2D - 2, so each
    index _reduce reads has at most min(8, D - 1) bits."""
    d = _pdeg(m)
    table = [0]
    for k in range(min(8, d - 1)):
        row = 1 << (d + k)
        row ^= _pmod(row, m)
        table += [t ^ row for t in table]
    return tuple(table)


def _reduce(a: int, m: int, table: tuple[int, ...]) -> int:
    """a mod m a byte at a time, table = _reduction_table(m).  The top byte
    above bit D - 1 goes first, so each index is below 256 without a mask,
    and below 2^(D - 1) for a product of field elements."""
    d = m.bit_length() - 1
    for s in range((a.bit_length() - d - 1) & -8, -1, -8):
        a ^= table[a >> (d + s)] << s
    return a


def _pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, _pmod(a, b)
    return a


def _pow_x_mod(exp: int, m: int) -> int:
    """x^(2^exp) mod m via repeated squaring of the Frobenius."""
    v = 2  # the polynomial x
    for _ in range(exp):
        v = _pmod(_square(v), m)
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


def _field_pow(base: int, exp: int, modulus: int, table: tuple[int, ...] | None = None) -> int:
    """base^exp mod modulus, square and multiply from the top bit of exp
    down, reducing with table, _reduction_table(modulus), or without one a
    bit at a time.  Every product has base as _clmul's second factor, which
    is short when base is a small element such as a gamma candidate."""
    def reduce(a: int) -> int:
        return _pmod(a, modulus) if table is None else _reduce(a, modulus, table)

    out = 1
    for bit in bin(exp)[2:]:
        out = reduce(_square(out))
        if bit == "1":
            out = reduce(_clmul(out, base))
    return out


# ---------------------------------------------------------------------------
# extension fields carrying a designated n-th root of unity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtField:
    """GF(4^r) with a pinned primitive n-th root of unity alpha.

    The field is realized as GF(2)[x]/(modulus) of degree 2r.  Its subfield
    GF(4) is {0, 1, omega, omega^2} with omega an element of order 3, and
    alpha's coset labeling follows it.  table, the modulus's byte reduction
    table, takes no part in equality, hashing or repr.
    """

    n: int
    r: int
    modulus: int
    gamma: int
    alpha: int
    omega: int  # the order-3 element
    table: tuple[int, ...] = field(repr=False, compare=False)  # _reduction_table(modulus)

    def mul(self, a: int, b: int) -> int:
        return _reduce(_clmul(a, b), self.modulus, self.table)


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
    table = _reduction_table(modulus)
    group = (1 << degree) - 1
    n_fac = factorize(n)
    sub_exp = group // n

    def try_gamma(g: int) -> tuple[int, int] | None:
        alpha = _field_pow(g, sub_exp, modulus, table)
        if alpha == 0 or _field_pow(alpha, n, modulus, table) != 1:
            return None
        for p in n_fac:
            if _field_pow(alpha, n // p, modulus, table) == 1:
                return None
        omega = _field_pow(g, group // 3, modulus, table)
        if omega == 1 or _field_pow(omega, 3, modulus, table) != 1:
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
    return ExtField(n=n, r=r, modulus=modulus, gamma=gamma, alpha=alpha, omega=omega, table=table)


def minimal_poly(ext: ExtField, coset: frozenset[int] | set[int]) -> np.ndarray:
    """prod_{j in coset} (X - alpha^j), the minimal polynomial of alpha^j
    over GF(4), coefficients as base-field symbols, little-endian.

    The coset must be one 4-cyclotomic coset mod n; the generator
    polynomial of a union of cosets is CyclicCode.gen_poly.  Results are
    cached per field and coset and returned read-only.
    """
    coset = frozenset(int(c) % ext.n for c in coset)
    if not coset:
        raise ValueError("empty coset")
    j = min(coset)
    orbit, t = {j}, 4 * j % ext.n
    while t != j:
        orbit.add(t)
        t = 4 * t % ext.n
    if orbit != coset:
        raise ValueError(f"set is not one 4-cyclotomic coset mod {ext.n}")
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
    # beta = alpha^j solves beta^d = sum_{i<d} (a_i + b_i omega) beta^i.
    # Vector k of the 2d vectors beta^i, then omega beta^i, carries its
    # index bit k below the field bits, so eliminating beta^d down to those
    # bits leaves the solution: bit i is a_i and bit d + i is b_i.
    n, j, d = ext.n, min(coset), len(coset)
    powers = _alpha_powers(ext)
    betas = [powers[i * j % n] for i in range(d)]
    shift = 2 * d
    pivots: dict[int, int] = {}  # leading bit -> row
    for k, v in enumerate(betas + [ext.mul(ext.omega, b) for b in betas]):
        row = v << shift | 1 << k
        while (top := row.bit_length()) in pivots:
            row ^= pivots[top]
        pivots[top] = row
    x = powers[d * j % n] << shift
    while x >> shift:
        x ^= pivots[x.bit_length()]
    out = np.array([(x >> i & 1) | (x >> (d + i) & 1) << 1 for i in range(d)] + [1], dtype=np.uint8)
    out.setflags(write=False)
    return out
