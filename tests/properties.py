"""Property suites: the structure theorems behind the package's codes.

Each suite re-proves classical facts on computed codes (the duadic
structure theorems, the mod-8 splitting laws, the fixed-subcode coincidence
and the square-root bound) and reports named checks.  Row spaces compare by
their canonical bases (linalg.row_basis), membership by oracle.is_subspace.
"""

from dataclasses import dataclass

import numpy as np

from duadiq import distance as dist
from duadiq import linalg
from duadiq.cyclic import CyclicCode, DefiningSet, dual_defining_set
from duadiq.duadic import DuadicPair, find_splittings
from duadiq.errors import InputError
from duadiq.extfield import is_prime, mult_order

import oracle


def same_span(a, b) -> bool:
    return np.array_equal(linalg.row_basis(a), linalg.row_basis(b))


def near_orthogonality(code_or_matrix) -> int:
    """dim(E) - dim(E intersect E^perp_h); zero exactly for self-orthogonal E.

    For a cyclic code this reduces to defining-set arithmetic; for a raw
    generator matrix it is the rank of the Gram matrix of a basis, whose
    left kernel holds the coordinates of E intersect E^perp_h in that basis.
    Both routes agree (tested).
    """
    if isinstance(code_or_matrix, CyclicCode):
        c = code_or_matrix
        dual_members = dual_defining_set(c.defining_set).members
        return c.dim - (c.n - len(c.defining_set.members | dual_members))
    return linalg.rref(linalg.gram_matrix(linalg.row_basis(np.atleast_2d(code_or_matrix))))[1]


def is_self_orthogonal_even_duadic(c: CyclicCode) -> bool:
    """True iff c is an even-like duadic code whose splitting admits mu_-2.

    Structural test on the defining set; agrees with the Gram test (tested)."""
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
class Report:
    """The checks of one suite on one length n."""

    n: int
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def verify_duadic_properties(pair: DuadicPair) -> Report:
    """Machine check of the classical duadic structure theorems on one pair.

    The intersection of two cyclic codes has the union of their defining
    sets, their sum the intersection, and a code contains another exactly
    when its defining set is the smaller."""
    n = pair.splitting.n
    c1, c2, d1, d2 = pair.even1, pair.even2, pair.odd1, pair.odd2
    a1, a2, s1, s2 = (code.defining_set.members for code in (c1, c2, d1, d2))
    checks: list[CheckResult] = []

    def add(name: str, passed: bool, detail: str = ""):
        checks.append(CheckResult(name, bool(passed), detail))

    add("dim_even", c1.dim == (n - 1) // 2 and c2.dim == (n - 1) // 2,
        f"dims {c1.dim},{c2.dim}")
    add("dim_odd", d1.dim == (n + 1) // 2 and d2.dim == (n + 1) // 2,
        f"dims {d1.dim},{d2.dim}")

    inter_even = n - len(a1 | a2)
    add("even_intersection_zero", inter_even == 0, f"dim {inter_even}")
    add("even_sum_is_x_minus_1_code", a1 & a2 == frozenset([0]),
        f"defining set {sorted(a1 & a2)}")

    ones = np.ones(n, dtype=np.uint8)
    inter_odd = CyclicCode(DefiningSet(n, s1 | s2))
    add("odd_intersection_is_allones_span",
        inter_odd.dim == 1 and oracle.is_subspace([ones], inter_odd.gen_matrix),
        f"dim {inter_odd.dim}")
    sum_odd = n - len(s1 & s2)
    add("odd_sum_is_full_space", sum_odd == n, f"dim {sum_odd}")

    add("even_inside_odd", s1 <= a1 and s2 <= a2)

    # C_i is exactly the even-like subcode of D_i and D_i = C_i + <j>
    add("even_rows_sum_zero", not np.bitwise_xor.reduce(c1.gen_matrix, axis=1).any())
    add("odd_is_even_plus_allones",
        same_span(np.vstack([c1.gen_matrix, ones]), d1.gen_matrix)
        and same_span(np.vstack([c2.gen_matrix, ones]), d2.gen_matrix))

    if linalg.is_hermitian_self_orthogonal(c1.gen_matrix):
        add("self_orthogonal_even_dual_is_odd",
            same_span(linalg.hermitian_dual_space(c1.gen_matrix), d1.gen_matrix)
            and same_span(linalg.hermitian_dual_space(c2.gen_matrix), d2.gen_matrix))

    return Report(n=n, checks=tuple(checks))


def splitting_predictions(p: int) -> Report:
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
    return Report(n=p, checks=tuple(claims))


@dataclass(frozen=True)
class WeightCheck:
    t: int
    count: int            # A_t, the number of weight-t words in the code
    fixed_has_weight: bool
    ok: bool              # fixed_has_weight or order | count


@dataclass(frozen=True)
class CoincidenceReport:
    n: int
    a: int
    order: int
    subcodes_equal: bool  # C_{a^j} = C_a for all j
    checked_weights: tuple[WeightCheck, ...]
    complete: bool

    @property
    def all_passed(self) -> bool:
        return self.subcodes_equal and all(c.ok for c in self.checked_weights)


def fixed_subcode_coincidence(
    code: CyclicCode, a: int, budget: int = dist.DEFAULT_BUDGET
) -> CoincidenceReport:
    """Verify C_a = C_{a^j} and the weight-count divisibility: for every t
    with no weight-t word in C_a, the multiplier order divides A_t.  The
    report is complete, and checks weights, when both GF(4) walks fit the
    budget: when the 4^dim words of C do, as C_a is a subcode.  Fixed
    subcode bases are canonical (row bases), so equal ones are equal arrays.

    Raises InputError, naming a as given, unless gcd(a, n) = 1."""
    n = code.n
    base = dist.fixed_subcode(code, a)
    a %= n
    order = mult_order(a, n)
    if not is_prime(order):
        raise InputError(f"multiplier order {order} is not prime")
    if code.defining_set.scaled(a).members != code.defining_set.members:
        raise InputError(f"mu_{a} does not fix the code")
    equal = all(np.array_equal(base, dist.fixed_subcode(code, pow(a, j, n)))
                for j in range(2, order))
    checked = []
    complete = 4**code.dim <= budget
    if complete:
        # the GF(4) weight enumerators, also of a binary basis
        full = dist.weight_histograms(code.gen_matrix, budget)[0]
        sub = (dist.weight_histograms(base, budget)[0] if base.shape[0]
               else np.eye(1, n + 1, dtype=np.int64)[0])
        checked = [WeightCheck(t, int(full[t]), bool(sub[t]), bool(sub[t]) or int(full[t]) % order == 0)
                   for t in range(1, n + 1) if full[t]]
    return CoincidenceReport(n, a, order, equal, tuple(checked), complete)


@dataclass(frozen=True)
class SquareRootReport:
    n: int
    d_o: int
    d_odd_code: int
    checks: tuple[tuple[str, bool], ...]

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def square_root_bounds(pair: DuadicPair, budget: int = dist.DEFAULT_BUDGET) -> SquareRootReport:
    """Evaluate the odd-like-weight bounds on a computed duadic pair."""
    s = pair.splitting
    dd = dist.duadic_distances(s, budget=budget)
    d_o = dd.d_min_odd_coset
    d_odd_code = dd.d_odd
    checks = [("d_o_squared_ge_n", d_o * d_o >= s.n)]
    if s.has_multiplier(-1):
        checks.append(("d_o_sq_minus_d_o_plus_1_ge_n", d_o * d_o - d_o + 1 >= s.n))
    if is_prime(s.n):
        qr = frozenset(x * x % s.n for x in range(1, s.n))
        if s.s1.members == qr or s.s2.members == qr:
            checks.append(("qr_distance_equals_d_o", d_odd_code == d_o))
            if s.n % 8 == 7:
                checks.append(("qr_distance_3_mod_4", d_odd_code % 4 == 3))
    return SquareRootReport(n=s.n, d_o=d_o, d_odd_code=d_odd_code, checks=tuple(checks))
