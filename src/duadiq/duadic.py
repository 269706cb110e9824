"""Splittings of Z_n, duadic code pairs and quadratic-residue codes.

A splitting is a partition of the nonzero residues into two coset-closed
halves swapped by some multiplier.  The four associated duadic codes have
defining sets S1, S2 (odd-like) and S1 + {0}, S2 + {0} (even-like).

Enumeration walks multipliers and 2-colors the induced permutation on
cyclotomic cosets, so it never touches the 2^#cosets subset lattice.
Output order is deterministic: splittings sort by the leader tuple of S1,
and the canonical orientation puts the coset of 1 in S1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .cyclic import CyclicCode, DefiningSet, all_cosets
from .errors import InputError
from .extfield import is_prime


@dataclass(frozen=True)
class Splitting:
    n: int
    s1: DefiningSet
    s2: DefiningSet
    multipliers: tuple[int, ...]  # known witnesses, at least one; -1/-2 always probed

    def __post_init__(self):
        if not self.multipliers:
            raise ValueError("a splitting requires at least one witness multiplier")

    @property
    def key(self) -> tuple[int, ...]:
        return self.s1.leaders

    def has_multiplier(self, b: int) -> bool:
        b %= self.n
        if b in self.multipliers:
            return True
        return frozenset(b * t % self.n for t in self.s1.members) == self.s2.members

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "s1_leaders": [int(x) for x in self.s1.leaders],
            "s2_leaders": [int(x) for x in self.s2.leaders],
            "multipliers": [int(b) for b in sorted(self.multipliers)],
        }


# 2^(#cycles) masks per multiplier: every odd n <= 257 but 255 needs at most 2^19
_MAX_SPLITTING_MASKS = 1 << 20


def _splittings_for_multiplier(n: int, b: int) -> list[tuple[frozenset[int], frozenset[int]]]:
    """All unordered {S1, S2} swapped by mu_b, as member-set pairs."""
    nonzero = [c for c in all_cosets(n) if 0 not in c]
    index = {}
    for i, c in enumerate(nonzero):
        for x in c:
            index[x] = i
    b %= n
    perm = [index[(b * min(c)) % n] for c in nonzero]
    # 2-color each cycle of the permutation with alternating colors;
    # odd cycles (including fixed points) admit no swap coloring
    color = [-1] * len(nonzero)
    cycles = []
    seen = [False] * len(nonzero)
    for start in range(len(nonzero)):
        if seen[start]:
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = perm[x]
        if len(cyc) % 2 == 1:
            return []
        cycles.append(cyc)
    if 1 << len(cycles) > _MAX_SPLITTING_MASKS:
        raise InputError(
            f"splittings of Z_{n} by mu_{b}: 2^{len(cycles)} masks to search, "
            f"more than the limit 2^{_MAX_SPLITTING_MASKS.bit_length() - 1}"
        )
    out = []
    for mask in range(1 << len(cycles)):
        for ci, cyc in enumerate(cycles):
            c0 = (mask >> ci) & 1
            for pos, node in enumerate(cyc):
                color[node] = (c0 + pos) % 2
        s1 = frozenset().union(*(nonzero[i] for i in range(len(nonzero)) if color[i] == 0))
        s2 = frozenset(range(1, n)) - s1
        if 1 in s1:  # canonical orientation; kills the mask complement duplicate
            out.append((s1, s2))
    return out


@lru_cache(maxsize=None)
def _find_splittings_cached(n: int, b: int | None) -> tuple[Splitting, ...]:
    if n < 3 or n % 2 == 0:
        raise ValueError(f"n must be odd and >= 3, got {n}")
    candidates: dict[frozenset[int], frozenset[int]] = {}
    witnesses: dict[frozenset[int], set[int]] = {}
    if b is not None:
        if math.gcd(b, n) != 1:
            raise ValueError(f"gcd({b}, {n}) != 1")
        bs = [b % n]
    else:
        bs = [x for x in range(2, n) if math.gcd(x, n) == 1]
    for mult in bs:
        for s1, s2 in _splittings_for_multiplier(n, mult):
            if s1 not in candidates:
                candidates[s1] = s2
                witnesses[s1] = set()
            witnesses[s1].add(mult)
    out = []
    for s1, s2 in candidates.items():
        w = witnesses[s1]
        for probe in ((-1) % n, (-2) % n):
            if probe not in w and math.gcd(probe, n) == 1:
                if frozenset(probe * t % n for t in s1) == s2:
                    w.add(probe)
        out.append(
            Splitting(
                n=n,
                s1=DefiningSet(n, s1),
                s2=DefiningSet(n, s2),
                multipliers=tuple(sorted(w)),
            )
        )
    out.sort(key=lambda s: s.key)
    return tuple(out)


def find_splittings(n: int, b: int | None = None) -> list[Splitting]:
    """Splittings of Z_n over GF(4) given by mu_b, or by any multiplier when
    b is omitted.  Returns [] when none exists."""
    return list(_find_splittings_cached(n, None if b is None else b % n))


def qr_splitting(p: int) -> Splitting:
    """The quadratic-residue splitting {squares, nonsquares} of Z_p.

    Works for every odd prime over GF(4) since 4 is always a square mod p.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"{p} is not an odd prime")
    squares = frozenset(x * x % p for x in range(1, p))
    nonsquares = frozenset(range(1, p)) - squares
    # any nonsquare is a witness; record the canonical ones plus -1/-2 if present
    witnesses = set()
    smallest_nonsquare = min(nonsquares)
    witnesses.add(smallest_nonsquare)
    for probe in ((-1) % p, (-2) % p):
        if probe in nonsquares:
            witnesses.add(probe)
    # S1 is the half that holds 1, which is always a square
    return Splitting(n=p, s1=DefiningSet(p, squares), s2=DefiningSet(p, nonsquares),
                     multipliers=tuple(sorted(witnesses)))


@dataclass(frozen=True)
class DuadicPair:
    splitting: Splitting
    even1: CyclicCode
    even2: CyclicCode
    odd1: CyclicCode
    odd2: CyclicCode


def duadic_from_splitting(s: Splitting) -> DuadicPair:
    zero = frozenset([0])
    return DuadicPair(
        splitting=s,
        even1=CyclicCode(DefiningSet(s.n, s.s1.members | zero)),
        even2=CyclicCode(DefiningSet(s.n, s.s2.members | zero)),
        odd1=CyclicCode(s.s1),
        odd2=CyclicCode(s.s2),
    )
