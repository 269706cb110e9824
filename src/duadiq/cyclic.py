"""Cyclotomic cosets, defining sets and cyclic codes over GF(4).

A cyclic code of odd length n is identified by its defining set, the set of
exponents t with g(alpha^t) = 0 for the generator polynomial g.  GF(4) is
the only field a code lives over: defining sets are unions of 4-cyclotomic
cosets, and codes compare equal by (n, defining set) alone.  A defining set
that is also closed under t -> 2t is a union of 2-cyclotomic cosets; its
generator polynomial is fixed by squaring, so binary.  The q of
cyclotomic_coset and all_cosets is arithmetic on Z_n only.  Generator
polynomials and matrices are materialized lazily and cached; everything is
immutable after construction.  The generator matrix is the code's RREF
[I_k | P], built from g(x) by the systematic encoding with no row
reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import extfield, gf4


def cyclotomic_coset(n: int, a: int, q: int = 4) -> frozenset[int]:
    """Orbit of a under multiplication by q modulo n."""
    _check_n_q(n, q)
    a %= n
    out = {a}
    x = a * q % n
    while x not in out:
        out.add(x)
        x = x * q % n
    return frozenset(out)


def _check_n_q(n: int, q: int) -> None:
    if q not in (2, 4):
        raise ValueError("q must be 2 or 4")
    if n < 1 or n % 2 == 0:
        raise ValueError(f"n must be a positive odd integer, got {n}")


@lru_cache(maxsize=None)
def all_cosets(n: int, q: int = 4) -> tuple[frozenset[int], ...]:
    """The q-cyclotomic cosets mod n, ordered by ascending leader."""
    _check_n_q(n, q)
    seen: set[int] = set()
    cosets = []
    for a in range(n):
        if a in seen:
            continue
        c = cyclotomic_coset(n, a, q)
        seen |= c
        cosets.append(c)
    return tuple(cosets)


@dataclass(frozen=True)
class DefiningSet:
    """A union of 4-cyclotomic cosets mod n."""

    n: int
    members: frozenset[int]

    def __post_init__(self):
        _check_n_q(self.n, 4)
        for t in self.members:
            if not 0 <= t < self.n:
                raise ValueError(f"member {t} outside Z_{self.n}")
            if (t * 4) % self.n not in self.members:
                raise ValueError(
                    f"set is not closed under multiplication by 4: "
                    f"{t} present but {(t * 4) % self.n} missing"
                )

    @classmethod
    def from_leaders(cls, n: int, leaders) -> "DefiningSet":
        members: set[int] = set()
        for a in leaders:
            members |= cyclotomic_coset(n, a)
        return cls(n=n, members=frozenset(members))

    @property
    def leaders(self) -> tuple[int, ...]:
        return tuple(sorted(min(c) for c in all_cosets(self.n) if c <= self.members))

    def __len__(self) -> int:
        return len(self.members)

    def scaled(self, a: int) -> "DefiningSet":
        """{a*t mod n}; stays coset-closed for gcd(a, n) = 1."""
        if math.gcd(a, self.n) != 1:
            raise ValueError(f"gcd({a}, {self.n}) != 1")
        return DefiningSet(self.n, frozenset(a * t % self.n for t in self.members))


def dual_defining_set(a: DefiningSet) -> DefiningSet:
    """Defining set of the Hermitian dual: Z_n minus (-2 A)."""
    neg2 = frozenset((-2 * t) % a.n for t in a.members)
    return DefiningSet(a.n, frozenset(range(a.n)) - neg2)


def apply_multiplier(a: int, v: np.ndarray) -> np.ndarray:
    """Coordinate permutation y_i = x_{a^{-1} i mod n}, n the length of v."""
    v = np.asarray(v, dtype=np.uint8)
    n = v.shape[-1]
    if math.gcd(a, n) != 1:
        raise ValueError(f"gcd({a}, {n}) != 1")
    a_inv = pow(a % n, -1, n)
    idx = (a_inv * np.arange(n)) % n
    return v[..., idx]


class CyclicCode:
    """Length-n cyclic code over GF(4) with a fixed defining set.

    Thread-safety: instances are immutable; the generator polynomial and
    matrix caches are filled idempotently (any racing writer computes the
    same value).
    """

    def __init__(self, defining_set: DefiningSet):
        self.defining_set = defining_set
        self.n = defining_set.n
        self.dim = self.n - len(defining_set)
        self._gen_poly: np.ndarray | None = None
        self._gen_matrix: np.ndarray | None = None

    @classmethod
    def from_leaders(cls, n: int, leaders) -> "CyclicCode":
        return cls(DefiningSet.from_leaders(n, leaders))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CyclicCode)
            and self.n == other.n
            and self.defining_set.members == other.defining_set.members
        )

    def __hash__(self) -> int:
        return hash((self.n, self.defining_set.members))

    def __repr__(self) -> str:
        return f"CyclicCode(n={self.n}, dim={self.dim}, leaders={list(self.defining_set.leaders)})"

    @property
    def gen_poly(self) -> np.ndarray:
        """Generator polynomial, product of the minimal polynomials of the
        cosets inside the defining set (1 for the full space).  The running
        product stays on bit planes (gf4.planes_mul, each minimal polynomial
        the sparser second factor) and is unpacked once."""
        if self._gen_poly is None:
            poly = (1, 0)
            if self.defining_set.members:
                ext = extfield.ext_build(self.n)
                for coset in all_cosets(self.n):
                    if coset <= self.defining_set.members:
                        poly = gf4.planes_mul(poly, gf4.poly_planes(extfield.minimal_poly(ext, coset)))
            self._gen_poly = gf4.planes_poly(*poly)
        return self._gen_poly

    @property
    def gen_matrix(self) -> np.ndarray:
        """The code's RREF [I_k | P], k = dim, r = deg g: row i is
        x^i + x^k (x^(r+i) mod g), the systematic encoding of x^i
        (MacWilliams and Sloane 1977, ch. 7).

        x^k x^(r+i) = x^(n+i) is x^i mod g, so each row is a codeword,
        and the rows hold I_k on columns 0..k-1.  The RREF is unique, so
        this is linalg.rref of the matrix of shifts x^i g(x).  The
        remainders stay on bit planes (gf4.poly_planes): x^r mod g is g
        without its leading term, and each next one is the last times x
        with its x^r coefficient c cleared by XOR-ing in c g.  The rows are
        unpacked once and returned read-only.
        """
        if self._gen_matrix is None:
            n, k = self.n, self.dim
            r = n - k
            g0, g1 = gf4.poly_planes(self.gen_poly)
            # c g keyed by c's two bits: (l, h) times omega is (h, l ^ h)
            times = {0: (0, 0), 1: (g0, g1), 2: (g1, g0 ^ g1), 3: (g0 ^ g1, g0)}
            lo, hi = g0 ^ 1 << r, g1
            rows = []
            for i in range(k):
                rows.append(1 << i | lo << k | hi << (n + k))
                lo, hi = lo << 1, hi << 1
                c0, c1 = times[(lo >> r & 1) | (hi >> r & 1) << 1]
                lo, hi = lo ^ c0, hi ^ c1
            m = gf4.unpack_rows(rows, n)
            m.setflags(write=False)
            self._gen_matrix = m
        return self._gen_matrix
