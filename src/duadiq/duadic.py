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

import numpy as np

from . import linalg
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
    part = all_cosets(n, 4)
    nonzero = [c for c in part.cosets if 0 not in c]
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


def is_self_orthogonal_even_duadic(c: CyclicCode) -> bool:
    """True iff c is an even-like duadic code whose splitting admits mu_-2.

    Structural test on the defining set; agrees with the generator Gram test
    (see the duadic property suite).
    """
    n = c.n
    if c.dim != (n - 1) // 2:
        raise ValueError(f"dimension {c.dim} != (n-1)/2 = {(n - 1) // 2}")
    a = c.defining_set.members
    if 0 not in a:
        return False
    s1 = a - {0}
    s2 = frozenset((-2) * t % n for t in s1)
    return not (s1 & s2) and (s1 | s2 | {0}) == frozenset(range(n))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class DuadicReport:
    n: int
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def verify_duadic_properties(pair: DuadicPair) -> DuadicReport:
    """Machine check of the classical duadic structure theorems on one pair."""
    n = pair.splitting.n
    c1, c2, d1, d2 = pair.even1, pair.even2, pair.odd1, pair.odd2
    checks: list[CheckResult] = []

    def add(name: str, passed: bool, detail: str = ""):
        checks.append(CheckResult(name, bool(passed), detail))

    add("dim_even", c1.dim == (n - 1) // 2 and c2.dim == (n - 1) // 2,
        f"dims {c1.dim},{c2.dim}")
    add("dim_odd", d1.dim == (n + 1) // 2 and d2.dim == (n + 1) // 2,
        f"dims {d1.dim},{d2.dim}")

    inter_even = c1.intersection(c2)
    add("even_intersection_zero", inter_even.dim == 0, f"dim {inter_even.dim}")
    sum_even = c1.plus(c2)
    add("even_sum_is_x_minus_1_code",
        sum_even.defining_set.members == frozenset([0]),
        f"defining set {sorted(sum_even.defining_set.members)}")

    ones = np.ones(n, dtype=np.uint8)
    inter_odd = d1.intersection(d2)
    add("odd_intersection_is_allones_span",
        inter_odd.dim == 1 and linalg.in_row_space(inter_odd.gen_matrix, ones),
        f"dim {inter_odd.dim}")
    sum_odd = d1.plus(d2)
    add("odd_sum_is_full_space", sum_odd.dim == n, f"dim {sum_odd.dim}")

    add("even_inside_odd", d1.contains_code(c1) and d2.contains_code(c2))

    # C_i is exactly the even-like subcode of D_i and D_i = C_i + <j>
    g1 = d1.gen_matrix
    even_sub_ok = True
    for row in c1.gen_matrix:
        if int(np.bitwise_xor.reduce(row)) != 0:
            even_sub_ok = False
    add("even_rows_sum_zero", even_sub_ok)
    stacked = np.vstack([c1.gen_matrix, ones[None, :]])
    add("odd_is_even_plus_allones",
        linalg.row_space_equal(stacked, g1)
        and linalg.row_space_equal(np.vstack([c2.gen_matrix, ones[None, :]]), d2.gen_matrix))

    if linalg.is_hermitian_self_orthogonal(c1.gen_matrix):
        dual1 = linalg.hermitian_dual_space(c1.gen_matrix)
        dual2 = linalg.hermitian_dual_space(c2.gen_matrix)
        add("self_orthogonal_even_dual_is_odd",
            linalg.row_space_equal(dual1, d1.gen_matrix)
            and linalg.row_space_equal(dual2, d2.gen_matrix))

    return DuadicReport(n=n, checks=tuple(checks))


@dataclass(frozen=True)
class SplittingPrediction:
    p: int
    p_mod_8: int
    splitting_count: int
    mu_minus2_count: int
    claims: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.claims)


def splitting_predictions(p: int) -> SplittingPrediction:
    """Evaluate the mod-8 splitting laws against actual enumeration."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"{p} is not an odd prime")
    splits = find_splittings(p)
    with_m2 = [s for s in splits if s.has_multiplier(-2)]
    claims: list[CheckResult] = []
    m = p % 8
    if m in (5, 7):  # p = -3 or -1 mod 8
        claims.append(CheckResult(
            "every_splitting_by_mu_minus2",
            len(with_m2) == len(splits) and len(splits) > 0,
            f"{len(with_m2)}/{len(splits)}"))
    if m == 3:
        claims.append(CheckResult(
            "no_mu_minus2_splitting", len(with_m2) == 0, f"found {len(with_m2)}"))
    if m == 1:
        claims.append(CheckResult(
            "mu_minus2_unconstrained", True,
            f"empirically {len(with_m2)}/{len(splits)} splittings admit mu_-2"))
    if m == 7:
        same = all(s.has_multiplier(-1) == s.has_multiplier(-2) for s in splits)
        claims.append(CheckResult("mu_minus1_matches_mu_minus2", same))
    return SplittingPrediction(
        p=p, p_mod_8=m, splitting_count=len(splits),
        mu_minus2_count=len(with_m2), claims=tuple(claims))
