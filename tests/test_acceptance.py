"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  All tolerances are exact (zero slack) unless a criterion states a
wall-clock limit, which is asserted against a monotonic timer.
"""

import math
import time

import numpy as np
import pytest

from duadiq import distance as dist
from duadiq import gf4, linalg, quantum
from duadiq.cyclic import CyclicCode, DefiningSet, all_cosets, dual_defining_set
from duadiq.duadic import duadic_from_splitting, find_splittings, qr_splitting
from duadiq.errors import BudgetExceededError
from duadiq.extfield import mult_order

import oracle
from properties import near_orthogonality, square_root_bounds

DEFAULT_BUDGET = 1 << 30
SMALL_BUDGET = 1 << 20  # for n > 31 route-equivalence comparisons


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status}{' - ' + detail if detail else ''}")
    assert ok, f"{name}: {detail}"


def _mu2_splittings(n):
    return [s for s in find_splittings(n) if s.has_multiplier(-2)]


def test_criterion_01_table_reproduction():
    """Rows n=5..23 exact in under 60 s; n=29 (slow) exact in under 15 min."""
    dist._CACHE.clear()
    expected = {5: "[[6,0,4]]", 7: "[[8,0,4]]", 13: "[[14,0,6]]",
                17: "[[18,0,8]]", 23: "[[24,0,8]]"}
    t0 = time.monotonic()
    got = {}
    for n in expected:
        split = _mu2_splittings(n)[0]
        params, _ = quantum.extended_duadic_quantum(duadic_from_splitting(split))
        got[n] = params.params_str()
        assert params.d.exact
    elapsed = time.monotonic() - t0
    ok = got == expected and elapsed < 60.0
    _report("1a table n<=23", ok, f"{got} in {elapsed:.1f}s")

    t0 = time.monotonic()
    split29 = _mu2_splittings(29)[0]
    params29, _ = quantum.extended_duadic_quantum(duadic_from_splitting(split29))
    elapsed29 = time.monotonic() - t0
    ok29 = params29.params_str() == "[[30,0,12]]" and params29.d.exact and elapsed29 < 900.0
    _report("1b table n=29 (slow)", ok29, f"{params29.params_str()} in {elapsed29:.1f}s")


def test_criterion_02_hexacode_identity():
    """The e=1 extension of the n=5 odd-like QR code is the [6,3,4] code."""
    pair = duadic_from_splitting(qr_splitting(5))
    params, sd = quantum.extended_duadic_quantum(pair)
    checks = []
    checks.append(sd.gen.shape == (3, 6))
    gram_ok = all(
        oracle.inner(sd.gen[i], sd.gen[j]) == 0 for i in range(3) for j in range(3)
    )
    checks.append(gram_ok)
    counts = oracle.weight_counts([list(r) for r in sd.gen], 6)
    checks.append(sum(counts) == 64)
    checks.append(all(c == 0 for w, c in enumerate(counts) if w % 2 == 1))
    d = min(w for w, c in enumerate(counts) if c and w)
    checks.append(d == 4)
    checks.append(params.params_str() == "[[6,0,4]]")
    _report("2 hexacode identity", all(checks),
            f"shape {sd.gen.shape}, gram {gram_ok}, d {d}")


def test_criterion_03_odd_weight_lemma():
    """mu_-2 pairs, n <= 41: even-like words even, odd-like cosets odd."""
    failures = []
    checked = 0
    rng = np.random.default_rng(12345)
    for n in range(5, 42, 2):
        for s in _mu2_splittings(n):
            for side, split in ((1, s), (2, oracle.mirror(s))):
                try:
                    dd = dist.duadic_distances(split)
                    if any(c for w, c in enumerate(dd.even_hist) if w % 2 == 1):
                        failures.append((n, side, "even-like code has an odd weight"))
                    if any(c for w, c in enumerate(dd.coset_hist) if w % 2 == 0):
                        failures.append((n, side, "odd-like coset has an even weight"))
                    checked += 1
                except BudgetExceededError:
                    # beyond the enumeration budget: verify on random samples
                    even = CyclicCode(DefiningSet(n, split.s1.members | {0}))
                    g = even.gen_matrix
                    ones = np.ones(n, dtype=np.uint8)
                    for _ in range(200):
                        coeffs = rng.integers(0, 4, g.shape[0]).astype(np.uint8)
                        word = np.zeros(n, dtype=np.uint8)
                        for j in np.nonzero(coeffs)[0]:
                            word ^= gf4.MUL_TABLE[int(coeffs[j])][g[j]]
                        if gf4.weight(word) % 2 == 1:
                            failures.append((n, side, "sampled even-like word is odd"))
                        alpha = int(rng.integers(1, 4))
                        shifted = word ^ oracle.scalar_mul(alpha, ones)
                        if gf4.weight(shifted) % 2 == 0:
                            failures.append((n, side, "sampled odd-like word is even"))
                    checked += 1
    _report("3 odd-weight lemma", not failures,
            f"{checked} codes checked" + (f"; failures {failures[:3]}" if failures else ""))


def test_criterion_04_e1_iff_mu_minus_2():
    """near self-orthogonality e = 1 exactly for mu_-2 splittings, n <= 41."""
    exceptions = []
    checked = 0
    for n in range(5, 42, 2):
        for s in find_splittings(n):
            has_mu2 = s.has_multiplier(-2)
            pair = duadic_from_splitting(s)
            for odd in (pair.odd1, pair.odd2):
                e = near_orthogonality(odd)
                if (e == 1) != has_mu2:
                    exceptions.append((n, s.key, e, has_mu2))
                checked += 1
    _report("4 e=1 iff mu_-2", not exceptions,
            f"{checked} odd-like duadic codes, {len(exceptions)} exceptions")


def test_criterion_05_dual_formula_oracle():
    """Defining-set dual equals matrix-nullspace dual for all A, n <= 35."""
    mismatches = []
    total = 0
    for n in range(3, 36, 2):
        cosets = all_cosets(n, 4)
        assert len(cosets) <= 16, f"n={n} has {len(cosets)} cosets"  # exhaustive everywhere
        for mask in range(2 ** len(cosets)):
            members = frozenset().union(
                *(c for i, c in enumerate(cosets) if (mask >> i) & 1)
            ) if mask else frozenset()
            ds = DefiningSet(n, members)
            code = CyclicCode(ds)
            dual_rows = linalg.hermitian_dual_space(code.gen_matrix)
            recovered = oracle.defining_set_of_matrix(dual_rows, n)
            if recovered != dual_defining_set(ds).members:
                mismatches.append((n, sorted(members)))
            total += 1
    _report("5 dual-formula oracle", not mismatches,
            f"{total} defining sets across n<=35, {len(mismatches)} mismatches")


def test_criterion_06_fixed_subcode_sandwich():
    """Order-2 sandwich on invariant codes n <= 41, plus the reference arithmetic."""
    arithmetic_ok = (dist.order2_lower_bound(36) == 19 and dist.order2_lower_bound(37) == 20)
    _report("6a fixed-subcode arithmetic", arithmetic_ok,
            "d(C_a)=36 -> lo 19; d(C_a)=37 -> lo 20")

    violations = []
    checked = 0
    for n in range(5, 42, 2):
        units = [a for a in range(2, n) if math.gcd(a, n) == 1 and (a * a) % n == 1]
        if not units:
            continue
        cosets = all_cosets(n, 4)
        for mask in range(1, 2 ** len(cosets) - 1):
            members = frozenset().union(*(c for i, c in enumerate(cosets) if (mask >> i) & 1))
            dim = n - len(members)
            if dim == 0 or dim > 12:  # desk-scale cutoff: exact d by enumeration
                continue
            for a in units:
                if frozenset(a * t % n for t in members) != members:
                    continue
                code = CyclicCode(DefiningSet(n, members))
                bound = dist.fixed_subcode_lower_bound(code, a)
                exact = dist.min_distance_exact(code)
                if not (bound.lo <= exact.lo <= bound.hi):
                    violations.append((n, a, sorted(members), bound, exact.lo))
                checked += 1
    _report("6b fixed-subcode sandwich", not violations,
            f"{checked} (code, multiplier) pairs, {len(violations)} violations")


def _binary_walk_distance(gen):
    hist, _ = dist.weight_histograms(gen, q=2)
    return int(np.flatnonzero(hist[1:])[0]) + 1


def test_criterion_07_binary_shadow_equivalence():
    """Binary and quaternary exact distances agree where the cosets coincide:
    there every defining set is closed under t -> 2t, so the GF(4) code's
    generator is binary, and the walk of its binary span gives the distance
    the duadic pass reads from the GF(4) span."""
    mismatches = []
    checked = 0
    golay_seen = None
    for n in range(3, 32, 2):
        if mult_order(2, n) != mult_order(4, n):
            continue
        for s in find_splittings(n):
            for side, split in ((1, s), (2, oracle.mirror(s))):
                members = split.s1.members
                dd = dist.duadic_distances(split)
                quaternary = {"odd": dd.d_odd, "even": dd.d_even}
                binary = {
                    name: _binary_walk_distance(CyclicCode(DefiningSet(n, ds)).gen_matrix)
                    for name, ds in (("odd", members), ("even", members | {0}))
                }
                if quaternary != binary:
                    mismatches.append((n, side, quaternary, binary))
                checked += 2
                if n == 23 and side == 1:
                    golay_seen = binary["odd"]
    ok = not mismatches and golay_seen == 7
    _report("7 binary-shadow equivalence", ok,
            f"{checked} codes at n in (7, 23, 31); n=23 gives {golay_seen}")


def test_criterion_08_square_root_bounds():
    """d_o^2 >= n always; d_o^2 - d_o + 1 >= n under mu_-1; QR mod-4 law at n = 7, 23."""
    failures = []
    checked = []
    mod4_checked = {}
    for n in range(5, 42, 2):
        for s in _mu2_splittings(n):
            if 4 ** ((n - 1) // 2) > DEFAULT_BUDGET:
                continue  # not computable at desk scale
            for split in (s, oracle.mirror(s)):
                rep = square_root_bounds(duadic_from_splitting(split))
                if not rep.all_passed:
                    failures.append((n, rep))
                checked.append(n)
                names = dict(rep.checks)
                if "qr_distance_3_mod_4" in names:
                    mod4_checked[n] = names["qr_distance_3_mod_4"]
    ok = not failures and mod4_checked.get(7) and mod4_checked.get(23)
    _report("8 square-root bounds", ok,
            f"pairs at n={sorted(set(checked))}; mod-4 law at {sorted(mod4_checked)}")


def test_criterion_09_route_equivalence():
    """extended duadic route and cyclic zero-dim route give identical output."""
    mismatches = []
    checked = 0
    for n in range(5, 42, 2):
        budget = DEFAULT_BUDGET if n <= 31 else SMALL_BUDGET
        for s in _mu2_splittings(n):
            for split in (s, oracle.mirror(s)):
                p1, _ = quantum.extended_duadic_quantum(duadic_from_splitting(split), budget=budget)
                p2, _ = quantum.cyclic_zero_dim(split.s1, budget=budget)
                if (p1.n, p1.k, p1.d.lo, p1.d.hi) != (p2.n, p2.k, p2.d.lo, p2.d.hi):
                    mismatches.append((n, p1.to_json(), p2.to_json()))
                checked += 1
    _report("9 route equivalence", not mismatches,
            f"{checked} e=1 inputs, {len(mismatches)} mismatches")


def test_criterion_10_research_scale_bound_honesty():
    """n=141 / n=123 runs emit honest lower bounds under small budgets."""
    budget = 100_000
    a141 = DefiningSet.from_leaders(141, [2, 3, 10])
    p141, _ = quantum.cyclic_zero_dim(a141, budget=budget)
    a123 = DefiningSet.from_leaders(123, [1, 2, 6, 7, 9, 11])
    p123, _ = quantum.cyclic_zero_dim(a123, budget=budget)
    checks = []
    checks.append((p141.n, p141.k) == (144, 0))
    checks.append((p123.n, p123.k) == (126, 0))
    # the budget is far below what certifies the record bounds, so the lo
    # must be strictly smaller and carry budget provenance, never the
    # record value uncited
    for p, record in ((p141, 20), (p123, 22)):
        checks.append(p.d.lo < record)
        checks.append(p.d.lo_src in (dist.BUDGET, dist.PARITY))
        checks.append(any("budget" in line for line in p.trace))
        checks.append(p.d.lo % 2 == 0)  # even lift still applies
    _report("10 research-scale honesty", all(checks),
            f"n=141 -> {p141.params_str()} ({p141.d.lo_src}); "
            f"n=123 -> {p123.params_str()} ({p123.d.lo_src})")


def test_criterion_11_secondary_arithmetic():
    """[[240,0,32]] annotation -> the nine [[240-i,0,32-i]] codes, exactly."""
    d = dist.DistanceBound(lo=32, hi=32, lo_src=dist.LITERATURE, hi_src=dist.LITERATURE)
    base = quantum.QuantumParams(n=240, k=0, d=d, pure="unknown", trace=())
    chain = quantum.secondary_chain(base, 9)
    got = [(c.n, c.k, c.d.lo, c.d.hi) for c in chain]
    want = [(240 - i, 0, 32 - i, 32 - i) for i in range(1, 10)]
    _report("11 secondary arithmetic", got == want,
            f"derived {[c.params_str() for c in chain]}")
