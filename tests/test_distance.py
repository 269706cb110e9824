import dataclasses
import math

import numpy as np
import pytest

from duadiq import distance as dist
from duadiq import _kernels, extfield, gf4, linalg, quantum
from duadiq.cyclic import CyclicCode, DefiningSet, all_cosets, apply_multiplier, dual_defining_set
from duadiq.duadic import duadic_from_splitting, find_splittings, qr_splitting
from duadiq.errors import BudgetExceededError, InputError, InvariantError

import oracle
import properties


# frozen expected distances, computed with the naive oracle in tests below
KNOWN_DISTANCES = {
    (5, (1,)): 3,     # odd-like QR
    (5, (0, 1)): 4,   # even-like QR
    (7, (1,)): 3,
    (7, (0, 1)): 4,
    (13, (1,)): 5,
    (13, (0, 1)): 6,
}


@pytest.mark.parametrize("key,expected", sorted(KNOWN_DISTANCES.items()))
def test_known_distances_against_oracle(key, expected):
    (n, leaders) = key
    code = CyclicCode.from_leaders(n, list(leaders))
    if code.dim <= 7:
        assert oracle.min_distance([list(r) for r in code.gen_matrix]) == expected
    b = dist.min_distance_exact(code)
    assert b.exact and b.lo == expected


def test_gray_equals_naive_on_random_codes():
    # oracle equivalence on 200 random small-span codes
    rng = np.random.default_rng(2024)
    for _ in range(200):
        k = int(rng.integers(1, 6))
        n = int(rng.integers(k + 1, 16))
        g = rng.integers(0, 4, (k, n)).astype(np.uint8)
        if linalg.rref(g)[1] == 0:
            continue
        b = dist.min_distance_exact(g)
        assert b.exact
        assert b.lo == oracle.min_distance([list(r) for r in g])


@pytest.mark.parametrize("k,n,suffix_bits", [(9, 20, 16), (10, 70, 16), (7, 30, 4), (6, 90, 6)])
def test_symmetric_walk_equals_plain_walk(monkeypatch, k, n, suffix_bits):
    # k = 9 and 10 peel on the default block; a smaller block peels deeper
    monkeypatch.setattr(_kernels, "_SUFFIX_BITS", suffix_bits)
    rng = np.random.default_rng(k * n)
    g = rng.integers(0, 4, (k, n)).astype(np.uint8)
    assert linalg.rref(g)[1] == k
    hist, work = dist.weight_histograms(g)
    sg_lo, sg_hi = dist._packed_span(g)
    zero = np.zeros(sg_lo.shape[1], dtype=np.uint64)
    plain = _kernels.gray_weight_hists(sg_lo, sg_hi, zero, zero, n + 1)
    assert work == 4**k
    assert np.array_equal(hist, plain)
    assert hist.shape == (n + 1,) and hist.sum() == 4**k


def _cyclic_codes(max_n, q, max_dim):
    """Every nonzero cyclic code of odd length n <= max_n and dimension
    <= max_dim whose defining set is a union of q-cyclotomic cosets: with
    q = 2 the codes whose generator is binary."""
    for n in range(3, max_n + 1, 2):
        cosets = all_cosets(n, q)
        for mask in range(1, 1 << len(cosets)):
            members = frozenset().union(*(c for i, c in enumerate(cosets) if mask >> i & 1))
            code = CyclicCode(DefiningSet(n, members))
            if 0 < code.dim <= max_dim:
                yield code


def _binary_cyclic(n, poly):
    """The generator matrix of the binary cyclic code of length n whose
    generator polynomial is poly, a 0/1 string with the constant term
    first.  The pins below were taken on these codes: the defining sets
    they come from label them by a root of unity of GF(2^r), so the GF(4)
    code of the same defining set is a multiplier image of each."""
    g = [int(c) for c in poly]
    m = np.zeros((n - len(g) + 1, n), dtype=np.uint8)
    for i in range(m.shape[0]):
        m[i, i : i + len(g)] = g
    return m


def _counted_words(monkeypatch):
    """Count, into the returned list, the words each Gray-walk kernel call evaluates."""
    walked = []
    for name in ("gray_weight_hists", "gray_weight_hists_binary"):
        def counting(*args, kernel=getattr(_kernels, name)):
            hist = kernel(*args)
            walked.append(int(hist.sum()))
            return hist
        monkeypatch.setattr(_kernels, name, counting)
    return walked


def test_cyclic_test_matches_row_space_membership():
    # _is_cyclic against the definition: pivots {0..k-1} and the shifted
    # rows inside the row space, on every cyclic code with n <= 21, a
    # column-permuted copy of each and random RREFs over both fields
    rng = np.random.default_rng(17)
    bases = []
    for q in (4, 2):
        for code in _cyclic_codes(21, q, 21):
            r = linalg.row_basis(code.gen_matrix)
            bases += [r, linalg.row_basis(r[:, rng.permutation(code.n)])]
    bases += [linalg.row_basis(rng.integers(0, (2, 4)[i % 2], (int(rng.integers(1, 6)), int(rng.integers(5, 9))))
                               .astype(np.uint8)) for i in range(400)]
    seen = set()
    for r in bases:
        k = r.shape[0]
        cyclic = (np.array_equal(r[:, :k], np.eye(k, dtype=np.uint8))
                  and oracle.is_subspace(np.roll(r, 1, axis=1), r))
        assert dist._is_cyclic(r) == cyclic, r.tolist()
        seen.add((cyclic, np.array_equal(r[:, :k], np.eye(k, dtype=np.uint8))))
    assert seen == {(True, True), (False, True), (False, False)}


def _generated(gens, n):
    """The subgroup of the units of Z_n that gens generate."""
    group = {1}
    while not group >= (grown := group | {g * x % n for g in gens for x in group}):
        group = grown
    return group


def _evaluated(m, q):
    """The words the walk of an m-dimensional GF(q) span evaluates: over GF(4)
    4^(m - j - 1) per generator j peeled while more than 8 are left, then the rest."""
    if q == 2:
        return 2**m
    return sum(4 ** (m - j - 1) for j in range(max(0, m - 8))) + 4 ** min(m, 8)


def _shortened_spans(r, q):
    """The spans the walk of a cyclic RREF r over GF(q) enumerates: for
    each orbit on {1..n-1} of the group F of units a of Z_n with mu_a(C),
    or over GF(4) conj(mu_a(C)), inside C = span(r), r without rows 0 and
    the orbit's least element, when n is odd, k >= 2, the orbits are fewer
    than q, each least element is below k and their walks evaluate no more
    words than that of r[1:]; else r[1:] alone.

    F is a group and holds q, so a unit a is tested only when it is not
    yet known to be in F, nor in a coset a F of one known to be outside."""
    k, n = r.shape
    if n % 2 == 0 or k < 2:
        return [r[1:]]
    maps = [lambda m: m] + [lambda m: gf4.CONJ_TABLE[m]] * (q == 4)
    fixing, outside = _generated([q], n), set()
    for a in range(1, n):
        if math.gcd(a, n) > 1 or a in fixing or any(a * f % n in outside for f in fixing):
            continue
        if any(oracle.is_subspace(m(apply_multiplier(a, r)), r) for m in maps):
            fixing = _generated(fixing | {a}, n)
        else:
            outside.add(a)
    orbits = []
    for j in range(1, n):
        if all(j not in o for o in orbits):
            orbits.append({a * j % n for a in fixing})
    if (len(orbits) < q and all(min(o) < k for o in orbits)
            and len(orbits) * _evaluated(k - 2, q) <= _evaluated(k - 1, q)):
        return [np.delete(r, [0, min(o)], axis=0) for o in orbits]
    return [r[1:]]


@pytest.mark.parametrize("q,max_dim", [(4, 10), (2, 20)])
def test_shortened_walk_equals_plain_walk(monkeypatch, q, max_dim):
    # every cyclic code with n <= 41 up to the dimension cap: the walk of
    # its two-point shortened codes (fewer than q of them, q^(k-2) words
    # each) or of its shortened code (q^(k-1) words) rebuilds the plain
    # walk's histogram.  Over GF(4), conj o mu_2 fixes every code, so more
    # codes take the two-point walk than over GF(2); 23 [n, 10] codes with
    # 3 orbits (n = 15, 27, 31, 35) do not, as the one peeled walk
    # evaluates fewer words
    walked = _counted_words(monkeypatch)
    walk = dist.weight_histograms if q == 4 else dist.weight_histograms_binary
    plain = dist._symmetric_hist if q == 4 else dist._binary_hist
    checked, two_point = 0, 0
    for code in _cyclic_codes(41, q, max_dim):
        r = linalg.row_basis(code.gen_matrix)
        assert dist._is_cyclic(r)
        walked.clear()
        hist, work = walk(code.gen_matrix)
        shortened = sum(walked)
        walked.clear()
        spans = _shortened_spans(r, q)
        for span in spans:
            plain(span)
        assert shortened == sum(walked), (code.n, sorted(code.defining_set.members))
        assert work == q**code.dim
        assert np.array_equal(hist, plain(r)), (code.n, sorted(code.defining_set.members))
        checked += 1
        two_point += spans[0].shape[0] == code.dim - 2
    assert checked > (150 if q == 4 else 250), checked
    assert two_point == (139 if q == 4 else 7), two_point


def test_binary_name_is_the_gf2_walk():
    # weight_histograms_binary is weight_histograms over GF(2), kept by name
    # for callers outside the package
    for code in _cyclic_codes(41, 2, 20):
        g, words = code.gen_matrix, 2**code.dim
        hist, work = dist.weight_histograms(g, q=2)
        again, again_work = dist.weight_histograms_binary(g, words)
        assert np.array_equal(hist, again) and work == again_work == words
    with pytest.raises(BudgetExceededError):
        dist.weight_histograms_binary(g, words - 1)


def test_exact_distance_reduces_once(monkeypatch):
    # min_distance_exact reduces a generator that is not an RREF once, here
    # the matrix of shifts of g(x); the walk reads the RREF's pivots
    # (linalg.rref_pivots) instead of reducing it again.  A CyclicCode's
    # gen_matrix is its RREF already, so it is not reduced at all
    reduced = []
    rref = linalg.rref
    monkeypatch.setattr(linalg, "rref", lambda m: reduced.append(m) or rref(m))
    monkeypatch.setattr(dist, "_CACHE", {})
    code = CyclicCode.from_leaders(23, [1])
    b = dist.min_distance_exact(np.array(oracle.shift_matrix(code.gen_poly, 23), dtype=np.uint8))
    assert b.exact and b.lo == 7 and len(reduced) == 1
    reduced.clear()
    b = dist.min_distance_exact(code)
    assert b.exact and b.lo == 7 and len(reduced) == 0


@pytest.mark.parametrize("rows", [
    [[1, 0, 1, 0], [0, 1, 0, 1]],  # even length: mu_q is no permutation
    [[1, 1]],                      # even length and k = 1
    [[1, 1, 1, 1, 1]],             # k = 1
    # the [9, 2] code with defining set {1, 2, 3, 4, 5, 7, 8}: the orbit
    # {3, 6} of its fixing multipliers starts at k
    [[1, 0, 2, 1, 0, 2, 1, 0, 2], [0, 1, 3, 0, 1, 3, 0, 1, 3]],
])
def test_one_point_fallbacks_walk_the_shortened_code(monkeypatch, rows):
    # cyclic spans outside the two-point guards walk r[1:], q^(k-1) words,
    # and give the plain walk's histogram
    r = linalg.row_basis(np.array(rows, dtype=np.uint8))
    assert dist._is_cyclic(r) and np.array_equal(r, rows)
    assert dist._two_point_orbits(r, 4) is None
    walked = _counted_words(monkeypatch)
    hist, work = dist.weight_histograms(r)
    shortened = sum(walked)
    walked.clear()
    dist._symmetric_hist(r[1:])
    assert shortened == sum(walked) and work == 4 ** r.shape[0]
    assert np.array_equal(hist, dist._symmetric_hist(r))


def test_semilinear_multiplier_joins_the_orbits(monkeypatch):
    # the [5, 2] code with defining set {0, 1, 4}: the mu_4 orbit {2, 3}
    # starts at k, but conj o mu_2 fixes the code and joins it to {1, 4},
    # so the walk takes the one span zero at 0 and 1, the zero code
    r = np.array([[1, 0, 1, 3, 3], [0, 1, 3, 3, 1]], dtype=np.uint8)
    code = CyclicCode(DefiningSet(5, frozenset({0, 1, 4})))
    assert np.array_equal(linalg.row_basis(code.gen_matrix), r)
    assert dist._fixing_multipliers(r) == [(1, False), (4, False), (2, True), (3, True)]
    assert dist._two_point_orbits(r, 4) == [(1, 4)]
    walked = _counted_words(monkeypatch)
    hist, work = dist.weight_histograms(r)
    assert walked == [1] and work == 16
    assert np.array_equal(hist, dist._symmetric_hist(r))


def test_two_point_walk_only_when_it_evaluates_fewer_words(monkeypatch):
    # the [15, 10] code with defining set {3, 5, 6, 9, 12} has 3 orbits,
    # each least element below k; its three [15, 8] spans would evaluate
    # 3 x 4^8 words, the peeled walk of its [15, 9] shortened code 2 x 4^8
    r = linalg.row_basis(CyclicCode.from_leaders(15, [3, 5, 6]).gen_matrix)
    group = {a for a, _ in dist._fixing_multipliers(r)}
    least = sorted({min(a * j % 15 for a in group) for j in range(1, 15)})
    assert r.shape == (10, 15) and len(least) == 3 and max(least) < 10
    assert dist._two_point_orbits(r, 4) is None
    walked = _counted_words(monkeypatch)
    for j in least:
        dist._symmetric_hist(np.delete(r, [0, j], axis=0))
    assert sum(walked) == 3 * 4**8
    walked.clear()
    hist, work = dist.weight_histograms(r)
    assert sum(walked) == 2 * 4**8 == 131072 and work == 4**10
    assert np.array_equal(hist, dist._symmetric_hist(r))


@pytest.mark.parametrize("q,leaders", [(4, [0, 1]), (2, [1])])
def test_permuted_copy_takes_the_plain_walk(monkeypatch, q, leaders):
    # the [23, 11] even-like code over GF(4) and the binary [23, 12] code:
    # a column-permuted copy is not cyclic, so it walks all its words (one
    # per scaling orbit over GF(4)) and gives the same histogram
    walked = _counted_words(monkeypatch)
    walk = dist.weight_histograms if q == 4 else dist.weight_histograms_binary
    plain = dist._symmetric_hist if q == 4 else dist._binary_hist
    g = CyclicCode.from_leaders(23, leaders).gen_matrix
    moved = g[:, np.random.default_rng(23).permutation(23)]
    r = linalg.row_basis(moved)
    assert not dist._is_cyclic(r)
    hist, work = walk(g)
    shortened = sum(walked)
    walked.clear()
    moved_hist, moved_work = walk(moved)
    assert np.array_equal(moved_hist, hist) and moved_work == work == q ** g.shape[0]
    whole = sum(walked)
    walked.clear()
    plain(r)
    assert whole == sum(walked) > shortened


@pytest.mark.parametrize("q,leaders", [(4, [0, 1]), (2, [1])])
def test_shortened_walk_counts_the_words_of_the_code(q, leaders):
    # work and the budget check count the q^k words of the code, not the
    # q^(k-1) of the shortened code walked
    code = CyclicCode.from_leaders(23, leaders)
    walk = dist.weight_histograms if q == 4 else dist.weight_histograms_binary
    words = q**code.dim
    assert walk(code.gen_matrix, budget=words)[1] == words
    with pytest.raises(BudgetExceededError, match=f"{q}\\^{code.dim} = {words} exceeds budget {words - 1}"):
        walk(code.gen_matrix, budget=words - 1)


def _miscounting_kernel(kernel, corrupt):
    """kernel, whose first call's histogram gets one extra word of its
    least nonzero weight w ("extra") or one word moved from w to w + 2
    ("moved")."""
    calls = []

    def corrupted(*args):
        hist = kernel(*args)
        calls.append(args)
        if len(calls) == 1:
            hist = hist.copy()
            w = int(np.flatnonzero(hist[1:])[0]) + 1
            if corrupt == "moved":
                hist[w] -= 1
                w += 2
            hist[w] += 1
        return hist
    return corrupted


@pytest.mark.parametrize("corrupt", ["extra", "moved"])
@pytest.mark.parametrize("q,leaders", [(4, [0, 1]), (2, [1])])
def test_shortened_walk_rejects_a_miscounted_kernel(monkeypatch, q, leaders, corrupt):
    # over GF(4) the first of the two two-point walks of the [23, 11] code
    # (its fixing multipliers, the residues mod 23, have 2 orbits), [23, 9]
    # each: an extra or moved word of weight w
    # breaks sum_O 11 D^O_w = (22 - w) B_w.  The binary [23, 12] code walks
    # its shortened [23, 11] code (mu_2 has 2 orbits, not fewer than 2):
    # the same word breaks 23 B_w = (23 - w) A_w
    name = "gray_weight_hists" if q == 4 else "gray_weight_hists_binary"
    monkeypatch.setattr(_kernels, name, _miscounting_kernel(getattr(_kernels, name), corrupt))
    walk = dist.weight_histograms if q == 4 else dist.weight_histograms_binary
    g = CyclicCode.from_leaders(23, leaders).gen_matrix
    with pytest.raises(InvariantError, match="shortened walk of a cyclic \\[23,1[12]\\] code miscounted") as raised:
        walk(g)
    assert ("two-point" in str(raised.value)) == (q == 4)


@pytest.mark.parametrize("weight,message", [
    (4, "two-point shortened walk of a cyclic \\[5,4\\] code met a word of weight >= 4"),
    (3, "two-point shortened walk of a cyclic \\[5,4\\] code miscounted: its counts pass 2\\^3 words"),
])
def test_two_point_walk_rejects_impossible_counts(monkeypatch, weight, message):
    # the binary even-weight [5, 4] code: mu_2 has the one orbit {1, 2, 3, 4},
    # so it walks the 4 words zero at coordinates 0 and 1.  None can weigh
    # 4 = n - 1, and one more of weight 3 counts 4 words of weight 3 zero at
    # 0, so B_4 = 1 - 4 < 0
    r = np.array([[1, 0, 0, 0, 1], [0, 1, 0, 0, 1], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1]], dtype=np.uint8)
    assert dist._is_cyclic(r)
    plain = _kernels.gray_weight_hists_binary

    def heavier(*args):
        hist = plain(*args).copy()
        hist[weight] += 1
        return hist
    monkeypatch.setattr(_kernels, "gray_weight_hists_binary", heavier)
    with pytest.raises(InvariantError, match=message):
        dist.weight_histograms(r, q=2)


@pytest.mark.parametrize("q,hist", [(4, [1, 3]), (2, [1, 1])])
def test_length_one_span(q, hist):
    # [1, 1] is cyclic, and its fixing multipliers, mu_0 and conj o mu_0 on
    # Z_1, have no orbit on the empty {1..n-1}: the walk takes the
    # one-point rebuild of its shortened code, the zero word.  The cyclic
    # code is a GF(4) code, whose enumerator is GF(4)'s
    g = np.array([[1]], dtype=np.uint8)
    assert dist._fixing_multipliers(g) == [(0, False), (0, True)]
    assert dist._two_point_orbits(g, q) is None
    got, work = dist.weight_histograms(g, q=q)
    assert got.tolist() == hist and work == q
    assert dist.weight_histograms(CyclicCode(DefiningSet(1, frozenset())).gen_matrix)[0].tolist() == [1, 3]


def test_full_space_distance_one():
    full = CyclicCode(DefiningSet(9, frozenset()))
    b = dist.min_distance_exact(full)
    assert b.exact and b.lo == 1 and b.work == 0


def test_zero_code_rejected():
    zero = CyclicCode(DefiningSet(5, frozenset(range(5))))
    with pytest.raises(InputError):
        dist.min_distance_exact(zero)


def test_weight_distribution_matches_oracle():
    code = CyclicCode.from_leaders(7, [1])
    counts = dist.weight_histograms(code.gen_matrix)[0]
    assert list(counts) == oracle.weight_counts([list(r) for r in code.gen_matrix], 7)
    assert counts.sum() == 4**code.dim


def test_binary_histograms_reject_bad_input():
    g = np.eye(2, 10, dtype=np.uint8)
    # omega and omega^2 are not binary symbols
    with pytest.raises(InputError, match="0/1 symbols"):
        dist.weight_histograms_binary(g * 2)
    with pytest.raises(InputError, match="0/1 symbols"):
        dist.weight_histograms_binary(np.full((1, 10), 3, dtype=np.uint8))
    hist, work = dist.weight_histograms_binary(g)
    assert work == 4 and hist.tolist() == [1, 2, 1] + [0] * 8


def test_histograms_reject_symbols_above_3():
    g = CyclicCode.from_leaders(7, [1]).gen_matrix
    for bad in (4, 5):
        rows = g.copy()
        rows[0, 0] = bad
        with pytest.raises(InputError, match="symbols 0 to 3"):
            dist.weight_histograms(rows)
    with pytest.raises(InputError, match="symbols 0 to 3"):
        dist.weight_histograms(np.array([[7, 0, 0], [0, 1, 0]], dtype=np.uint8))
    with pytest.raises(InputError, match="symbols 0 to 3"):
        dist.min_distance_exact(np.array([[1, 4, 0]], dtype=np.uint8))
    hist, work = dist.weight_histograms(np.eye(2, 3, dtype=np.uint8))
    assert work == 16 and hist.tolist() == [1, 6, 9, 0]


def test_min_weight_difference_oracle():
    # the least weight of a code outside a subcode is the first weight w
    # with A_w(code) > A_w(subcode)
    rng = np.random.default_rng(31)
    for _ in range(30):
        n = int(rng.integers(4, 12))
        sup = linalg.row_basis(rng.integers(0, 4, (4, n)).astype(np.uint8))
        if sup.shape[0] < 2:
            continue
        sub = sup[:-1]
        a, b = dist.weight_histograms(sup)[0], dist.weight_histograms(sub)[0]
        assert (a >= b).all()
        d = next(w for w in range(1, n + 1) if a[w] > b[w])
        sub_words = set(oracle.span_words([list(r) for r in sub]))
        best = min(
            oracle.weight(w)
            for w in oracle.span_words([list(r) for r in sup])
            if w not in sub_words
        )
        assert d == best


def _transform_matches_walked_dual(g, dual, max_words):
    """Whether dual_distribution of the walked span(g) is the walked
    distribution of span(dual); None when the dual's walk passes max_words
    (4^10, or 2^26 when both generators are binary)."""
    q = 2 if (g <= 1).all() and (dual <= 1).all() else 4
    if q ** dual.shape[0] > max_words[q]:
        return None
    walk = dist.weight_histograms if q == 4 else dist.weight_histograms_binary
    hist, words = walk(g)
    return dist.dual_distribution(hist.tolist(), words, q) == walk(dual)[0].tolist()


def test_dual_distribution_matches_walked_dual():
    # the transform against a direct walk of the dual: the self-orthogonal
    # ingredients C_A^perp_h of dimension <= 8 of every searched A (A and
    # -2A disjoint) with n <= 41, as given and column-permuted, where the
    # dual's walk stays within 4^10 words (2^26 for binary generators, which
    # takes in n = 31); then the duals of the reference extensions
    # (oracle.block_extension) of random GF(4) and GF(2) generators
    rng = np.random.default_rng(41)
    max_words = {4: 4**10, 2: 2**26}
    checked = {2: 0, 4: 0}
    for n in range(3, 42, 2):
        cosets = all_cosets(n, 4)[1:]
        for mask in range(1, 1 << len(cosets)):
            a = DefiningSet(n, frozenset().union(*(c for i, c in enumerate(cosets) if mask >> i & 1)))
            if any((-2 * t) % n in a.members for t in a.members) or len(a.members) > 8:
                continue
            g = CyclicCode(dual_defining_set(a)).gen_matrix
            for copy in (g, g[:, rng.permutation(n)]):
                ok = _transform_matches_walked_dual(copy, linalg.hermitian_dual_space(copy), max_words)
                assert ok is not False, (n, sorted(a.members))
                if ok:
                    checked[2 if (copy <= 1).all() else 4] += 1
    for field in (4, 2) * 20:
        n = int(rng.integers(3, 11))
        g = linalg.row_basis(rng.integers(0, field, (int(rng.integers(1, n)), n)).astype(np.uint8))
        dual = linalg.hermitian_dual_space(g)
        extended, extended_dual = (np.array(m, dtype=np.uint8) for m in
                                   oracle.block_extension(g, linalg.subspace_intersection(g, dual), dual))
        if len(extended_dual) <= 8:
            assert _transform_matches_walked_dual(extended_dual, extended, max_words) is not False
            checked[2 if (extended <= 1).all() else 4] += 1
    assert checked[2] > 20 and checked[4] > 40, checked


def test_dual_distribution_rejects_what_is_no_walk():
    # the [7, 3] binary simplex code (seven words of weight 4) and its dual
    # the [7, 4] Hamming code
    a = [1, 0, 0, 0, 7, 0, 0, 0]
    assert dist.dual_distribution(a, 8, q=2) == [1, 0, 0, 7, 7, 0, 0, 1]
    with pytest.raises(InvariantError, match="sums to 9, not 2\\^3"):
        dist.dual_distribution([1, 0, 1, 0, 7, 0, 0, 0], 8, q=2)
    with pytest.raises(InvariantError, match="MacWilliams identity at weight 1"):
        dist.dual_distribution([1, 0, 1, 0, 6, 0, 0, 0], 8, q=2)
    # the Hamming code is not inside its dual, the simplex code
    with pytest.raises(InvariantError, match="not that of a code inside its dual"):
        dist.dual_distribution([1, 0, 0, 7, 7, 0, 0, 1], 16, q=2)


def test_duadic_coset_hist_matches_odd_like_walk(monkeypatch):
    # every splitting with n <= 23, both sides, mu_-2 or not: the odd-like
    # cosets from MacWilliams against an independent walk of the odd-like
    # code, coset_hist = hist(C_o) - hist(C_e)
    monkeypatch.setattr(dist, "_CACHE", {})
    cases = other = 0
    for n in range(3, 24, 2):
        for s in find_splittings(n):
            for side, split in ((1, s), (2, oracle.mirror(s))):
                half = split.s1
                dd = dist.duadic_distances(split)
                even = CyclicCode(DefiningSet(n, half.members | {0}))
                even_hist, work = dist.weight_histograms(even.gen_matrix)
                odd_hist, _ = dist.weight_histograms(CyclicCode(half).gen_matrix)
                assert dd.even_hist == tuple(even_hist.tolist()) and dd.work == work
                assert dd.coset_hist == tuple((odd_hist - even_hist).tolist()), (n, side)
                cases += 1
                other += not s.has_multiplier(-2)
    assert cases == 56 and other > 0, (cases, other)


def test_duadic_distances_pass():
    dd = dist.duadic_distances(find_splittings(5)[0])
    assert (dd.d_even, dd.d_min_odd_coset, dd.d_odd) == (4, 3, 3)
    dd23 = dist.duadic_distances(qr_splitting(23))
    assert (dd23.d_even, dd23.d_min_odd_coset) == (8, 7)
    # parity structure from the same pass
    assert all(c == 0 for w, c in enumerate(dd23.even_hist) if w % 2 == 1)
    assert all(c == 0 for w, c in enumerate(dd23.coset_hist) if w % 2 == 0)


def test_duadic_pass_caches_odd_like_distance(monkeypatch):
    # after the duadic pass, min_distance_exact of the odd-like and of the
    # even-like code of its side returns what it returns on an empty cache:
    # the cached entry where 4^dim fits, a fresh search below it
    for n in range(3, 18, 2):
        for s in find_splittings(n):
            for side, split in ((1, s), (2, oracle.mirror(s))):
                pair = duadic_from_splitting(split)
                odd, even = pair.odd1, pair.even1
                full = 4**odd.dim
                for budget in (4**even.dim, full - 1, full):
                    for code in (odd, even):
                        monkeypatch.setattr(dist, "_CACHE", {})
                        fresh = dist.min_distance_exact(code, budget=budget)
                        monkeypatch.setattr(dist, "_CACHE", {})
                        dist.duadic_distances(split, budget=budget)
                        assert dist.min_distance_exact(code, budget=budget) == fresh, (n, side, budget)
                        assert (fresh.lo_src == dist.EXACT) == (4**code.dim <= budget)


def test_cached_results_independent_of_history(monkeypatch):
    # an exact information-set result must not answer a budget that would
    # enumerate the whole code, nor the reverse
    code = CyclicCode(DefiningSet(9, frozenset({3, 6})))  # [9, 7, 2]
    full = 4**code.dim
    monkeypatch.setattr(dist, "_CACHE", {})
    fresh = {b: dist.min_distance_exact(code, budget=b) for b in (full, full - 1)}
    assert fresh[full].lo_src == dist.EXACT and fresh[full - 1].lo_src == dist.INFO_SET
    monkeypatch.setattr(dist, "_CACHE", {})
    for b in (full - 1, full, full - 1):
        assert dist.min_distance_exact(code, budget=b) == fresh[b]


def test_inexact_interval_not_cached(monkeypatch):
    # a search below the full pass leaves no entry; the next call searches again
    # ([9, 7, 2] is certified at budget 100 by cyclic averaging, [17, 9, 7] is not)
    code = CyclicCode.from_leaders(17, [1, 3])
    monkeypatch.setattr(dist, "_CACHE", {})
    for b in (100, 100, 101):
        assert not dist.min_distance_exact(code, budget=b).exact
    assert dist._CACHE == {}


def test_fixed_subcode_basics():
    c = CyclicCode.from_leaders(7, [1])
    fs = dist.fixed_subcode(c, 2)  # 2 is a residue mod 7, so 2A = A
    assert fs.shape[0] > 0
    for row in fs:
        assert np.array_equal(apply_multiplier(2, row), row)
    assert oracle.is_subspace(fs, c.gen_matrix)
    # a = 1 fixes everything
    fs1 = dist.fixed_subcode(c, 1)
    assert np.array_equal(fs1, linalg.row_basis(c.gen_matrix))


def test_fixed_subcode_allones():
    ones = np.ones((1, 9), dtype=np.uint8)
    code = CyclicCode(DefiningSet(9, frozenset(range(1, 9))))
    assert code.dim == 1
    assert np.array_equal(linalg.row_basis(code.gen_matrix), ones)
    for a in (2, 4, 5, 7, 8):
        assert np.array_equal(dist.fixed_subcode(code, a), ones)


def test_order2_bound_arithmetic():
    # reference arithmetic: d(C_a)=36 -> 19, d(C_a)=37 -> 20
    assert dist.order2_lower_bound(36) == 19
    assert dist.order2_lower_bound(37) == 20
    assert dist.odd_order_lower_bound(7, 3) == 3
    # degenerate case: a weight-1 fixed word forces equality, not 1.5
    assert dist.order2_lower_bound(1) == 1


def test_fixed_subcode_lower_bound_sandwich_small():
    # mu_-1 invariant codes at n = 13: -1 lies in <4>, so every code qualifies
    n = 13
    for leaders in ([1], [0, 1], [2], [0, 2]):
        code = CyclicCode.from_leaders(n, leaders)
        if code.dim == 0 or code.dim > 10:
            continue
        bound = dist.fixed_subcode_lower_bound(code, n - 1)
        exact = dist.min_distance_exact(code)
        assert bound.lo <= exact.lo <= bound.hi, (leaders, bound, exact)


def test_fixed_subcode_requires_invariance():
    c = CyclicCode.from_leaders(5, [1])
    with pytest.raises(InputError):
        dist.fixed_subcode_lower_bound(c, 2)  # 2*{1,4} = {2,3} != {1,4}


def test_coincidence_report():
    c = CyclicCode.from_leaders(7, [1])
    rep = properties.fixed_subcode_coincidence(c, 2)  # order 3 multiplier
    assert rep.order == 3
    assert rep.subcodes_equal  # C_2 = C_4 as row spaces
    assert rep.complete and rep.all_passed
    # the divisibility claim must be exercised: some weights lack fixed words
    assert any(not chk.fixed_has_weight for chk in rep.checked_weights)
    for chk in rep.checked_weights:
        if not chk.fixed_has_weight:
            assert chk.count % 3 == 0


def test_coincidence_order_two_trivial():
    # ord = 2 leaves only j = 1; the subcode-equality part is trivially true
    c = CyclicCode.from_leaders(13, [1])
    rep = properties.fixed_subcode_coincidence(c, 12)
    assert rep.order == 2 and rep.subcodes_equal and rep.all_passed


def test_coincidence_completeness_decided_before_walking():
    # at budgets on both sides of each walk's word count, 4^dim for C and
    # for its fixed subcode, the report is the one from trying both walks:
    # incomplete, with no weight checked, when either would exceed the
    # budget.  The subcode's walk never outgrows C's.
    cap = 4**7
    for code in _cyclic_codes(21, 4, 7):
        for a in range(2, code.n):
            try:
                full = properties.fixed_subcode_coincidence(code, a, budget=cap)
            except InputError:
                continue
            base = dist.fixed_subcode(code, a)
            words = (4**code.dim, 4**base.shape[0])
            if max(words) > cap:
                continue
            assert full.complete
            assert words[1] <= words[0]
            for budget in {w + step for w in words for step in (-1, 0)}:
                try:
                    dist.weight_histograms(code.gen_matrix, budget)
                    if base.shape[0]:
                        dist.weight_histograms(base, budget)
                    want = full
                except BudgetExceededError:
                    want = dataclasses.replace(full, checked_weights=(), complete=False)
                assert properties.fixed_subcode_coincidence(code, a, budget=budget) == want, (code, a, budget)


def test_library_ignores_duadiq_budget(monkeypatch):
    # only the CLI reads DUADIQ_BUDGET; a call without a budget gets DEFAULT_BUDGET
    monkeypatch.setenv("DUADIQ_BUDGET", "0")
    monkeypatch.setattr(dist, "_CACHE", {})
    b = dist.min_distance_exact(CyclicCode.from_leaders(23, [1]))
    assert b.exact and b.lo == 7


def test_coincidence_names_the_multiplier_as_given():
    # a = n is 0 mod n, which has no inverse; the error names a as given
    c = CyclicCode.from_leaders(5, [1])
    for a in (5, 10):
        with pytest.raises(InputError, match=rf"^gcd\({a}, 5\) != 1$"):
            properties.fixed_subcode_coincidence(c, a)


def test_square_root_bounds_reports():
    for p in (5, 7, 13, 23):
        rep = properties.square_root_bounds(duadic_from_splitting(qr_splitting(p)))
        assert rep.all_passed, (p, rep)
        assert rep.d_o * rep.d_o >= p
    rep23 = properties.square_root_bounds(duadic_from_splitting(qr_splitting(23)))
    assert dict(rep23.checks)["qr_distance_3_mod_4"]


def test_binary_shadow():
    # a defining set whose 2- and 4-cyclotomic cosets coincide gives a GF(4)
    # code with a binary generator, of the binary code's distance
    golay = CyclicCode(DefiningSet(23, qr_splitting(23).s1.members))
    hamming = CyclicCode.from_leaders(7, [1])
    assert (golay.gen_matrix <= 1).all() and (hamming.gen_matrix <= 1).all()
    b = dist.min_distance_exact(golay)
    assert b.exact and b.lo == 7  # the binary Golay code
    b7 = dist.min_distance_exact(hamming)
    assert b7.exact and b7.lo == 3  # binary Hamming [7,4,3]


def test_binary_shadow_matches_quaternary_small():
    # min_distance_exact walks these binary bases over GF(2); the walk
    # forced onto GF(4) gives the same distance
    for n in (7, 23):
        for s in find_splittings(n):
            for ds in (s.s1, s.s2):
                for members in (ds.members, ds.members | {0}):
                    code = CyclicCode(DefiningSet(n, members))
                    bq = dist.min_distance_exact(code)
                    hist, _ = dist.weight_histograms(code.gen_matrix, q=4)
                    assert bq.exact and bq.lo == int(np.flatnonzero(hist[1:])[0]) + 1, (n, members)


def test_binary_basis_walks_and_searches_gf2(monkeypatch):
    # the 404 binary-generated GF(4) cyclic codes with n <= 41: d is the
    # distance of the binary span of the generator (its GF(2) walk for every
    # code of dimension <= 24, so the many whose route searches are checked
    # against a walk, else the search at 2^24), and that of the walk forced
    # onto GF(4) wherever 4^k <= 2^20; small budgets bracket d; every walk
    # of the default budget is binary
    calls = {"gray_weight_hists": 0, "gray_weight_hists_binary": 0}

    def counting(name):
        kernel = getattr(_kernels, name)

        def run(*args):
            calls[name] += 1
            return kernel(*args)
        return run

    for name in calls:
        monkeypatch.setattr(_kernels, name, counting(name))
    # defining sets closed under x2, neither empty nor all of Z_n, so the
    # generator polynomial and the RREF basis are binary
    codes = []
    for n in range(3, 42, 2):
        cosets = all_cosets(n, 2)
        for mask in range(1, (1 << len(cosets)) - 1):
            codes.append((n, frozenset().union(*(c for i, c in enumerate(cosets) if mask >> i & 1))))
    assert len(codes) == 404
    for n, members in codes:
        code = CyclicCode(DefiningSet(n, members))
        monkeypatch.setattr(dist, "_CACHE", {})
        before = dict(calls)
        d = dist.min_distance_exact(code)
        walks = 4**code.dim <= dist.DEFAULT_BUDGET
        assert d.exact and d.lo_src == (dist.EXACT if walks else dist.INFO_SET), (n, members)
        assert calls["gray_weight_hists"] == before["gray_weight_hists"], (n, members)
        assert (calls["gray_weight_hists_binary"] > before["gray_weight_hists_binary"]) == walks
        assert not walks or d.work == 2**code.dim, (n, members)
        if 2**code.dim <= 1 << 24:
            hist, _ = dist.weight_histograms(code.gen_matrix, 1 << 24, q=2)
            assert int(np.flatnonzero(hist[1:])[0]) + 1 == d.lo, (n, members)
        else:
            monkeypatch.setattr(dist, "_CACHE", {})
            binary = dist.min_distance_exact(code, budget=1 << 24)
            assert binary.exact and binary.lo == d.lo, (n, members)
        if 4**code.dim <= 1 << 20:
            hist, _ = dist.weight_histograms(code.gen_matrix, q=4)
            assert int(np.flatnonzero(hist[1:])[0]) + 1 == d.lo, (n, members)
        for budget in (0, 100, 4096):
            monkeypatch.setattr(dist, "_CACHE", {})
            b = dist.min_distance_exact(code, budget=budget)
            assert b.lo <= d.lo and (b.hi is None or b.hi >= d.lo), (n, members, budget)
            assert b.work <= budget or b.work == 0, (n, members, budget)


def test_binary_basis_walks_only_when_its_gf4_words_fit(monkeypatch):
    # the [31, 30] even-weight code, defining set {0}, has a binary basis
    # whose 2^30 words fit the default budget, but its 4^30 GF(4) words do
    # not: it is searched, not walked, and certified d = 2 at once
    code = CyclicCode(DefiningSet(31, frozenset({0})))
    assert code.dim == 30 and (code.gen_matrix <= 1).all()
    assert 2**code.dim <= dist.DEFAULT_BUDGET < 4**code.dim

    def no_walk(*args):
        raise AssertionError("a Gray walk ran")
    for name in ("gray_weight_hists", "gray_weight_hists_binary"):
        monkeypatch.setattr(_kernels, name, no_walk)
    monkeypatch.setattr(dist, "_CACHE", {})
    b = dist.min_distance_exact(code)
    assert (b.lo, b.hi, b.lo_src, b.hi_src) == (2, 2, dist.INFO_SET, dist.INFO_SET)
    assert b.work <= 100


def test_budget_interval_honesty():
    code = CyclicCode.from_leaders(17, [1, 3])  # dim 9
    exact = dist.min_distance_exact(code)
    assert exact.exact
    for budget in (0, 10, 500, 20000):
        b = dist.min_distance_exact(code, budget=budget)
        assert b.lo <= exact.lo
        assert b.hi is None or b.hi >= exact.lo
        assert b.work <= budget or b.work == 0


def test_info_set_reaches_exactness():
    # low-distance code: the info-set walk terminates with an exact value
    g = np.zeros((6, 20), dtype=np.uint8)
    g[:, :6] = np.eye(6, dtype=np.uint8)
    g[0, 6] = 1  # weight-2 row; everything else weight 1... make it distance 1
    b = dist.min_distance_exact(g, budget=4**6 - 1)  # force the info-set path
    assert b.exact and b.lo == 1 and b.lo_src == dist.INFO_SET
    # a set walked to level k has met every word: the [10, 2, 6] code's
    # levels 1 and 2 (4^2 - 1 messages) prove only d >= 3, yet d = 6
    g = np.array([[1, 1, 1, 1, 1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1, 1, 1, 1, 1]], dtype=np.uint8)
    b = dist._info_set_bounds(g, 4, 4**2 - 1)
    assert b.exact and (b.lo, b.work) == (oracle.min_distance(g.tolist()), 15) == (6, 15)
    # the full space has no parity columns
    b = dist._info_set_bounds(np.eye(3, dtype=np.uint8), 4, 9)
    assert b.exact and (b.lo, b.work) == (1, 9)


# (lo, hi, work, lo_src) of the one-set search at budgets 0, 100, 4096 and
# 10^5, with the distance of the code where it is known
_B, _I = dist.BUDGET, dist.INFO_SET
ONE_SET_PINNED = {
    (4, 13, (1,)): (5, [(1, None, 0, _B), (2, 5, 21, _B), (5, 5, 3990, _I), (5, 5, 3990, _I)]),
    (4, 17, (1, 3)): (7, [(1, None, 0, _B), (2, 7, 27, _B), (4, 7, 2619, _B), (6, 7, 43443, _B)]),
    (4, 23, (1,)): (7, [(1, None, 0, _B), (2, 7, 36, _B), (3, 7, 630, _B), (5, 7, 46665, _B)]),
    (4, 29, (1,)): (11, [(1, None, 0, _B), (2, 11, 45, _B), (3, 11, 990, _B), (4, 11, 13275, _B)]),
    (4, 31, (1,)): (3, [(1, None, 0, _B), (2, 3, 78, _B), (3, 3, 3003, _I), (3, 3, 3003, _I)]),
    (4, 41, (1,)): (6, [(1, None, 0, _B), (2, 7, 93, _B), (2, 7, 93, _B), (3, 6, 4278, _B)]),
    (2, 21, (1,)): (3, [(1, None, 0, _B), (2, 3, 15, _B), (3, 3, 120, _I), (3, 3, 120, _I)]),
    (2, 23, (1,)): (7, [(1, None, 0, _B), (3, 7, 78, _B), (7, 7, 2509, _I), (7, 7, 2509, _I)]),
    (2, 31, (1,)): (3, [(1, None, 0, _B), (2, 3, 26, _B), (3, 3, 351, _I), (3, 3, 351, _I)]),
    # the Hermitian duals extended for the paper's [[144,0]] and [[126,0]]
    # codes, whose distances are not known
    ("dual", 141, (2, 3, 10)): (None, [(1, None, 0, _B), (1, None, 0, _B), (2, 28, 207, _B),
                                       (3, 28, 21321, _B)]),
    ("dual", 123, (1, 2, 6, 7, 9, 11)): (None, [(1, None, 0, _B), (1, None, 0, _B), (2, 40, 180, _B),
                                                (3, 38, 16110, _B)]),
}
# the generator polynomials of the binary codes above, leaders (1,)
_BINARY_GENERATORS = {21: "1010111", 23: "101011100011", 31: "100101"}
# the rows the former one-set rule, exact once best <= w (a level late),
# gave where they differ
LATE_RULE = {
    (4, 13, (1,)): [(1, None, 0, _B), (2, 5, 21, _B), (5, 5, 3990, _B), (5, 5, 9093, _I)],
    (4, 31, (1,)): [(1, None, 0, _B), (2, 3, 78, _B), (3, 3, 3003, _B), (3, 3, 73203, _I)],
    (2, 21, (1,)): [(1, None, 0, _B), (2, 3, 15, _B), (3, 3, 575, _I), (3, 3, 575, _I)],
    (2, 23, (1,)): [(1, None, 0, _B), (3, 7, 78, _B), (7, 7, 3301, _I), (7, 7, 3301, _I)],
    (2, 31, (1,)): [(1, None, 0, _B), (2, 3, 26, _B), (3, 3, 2951, _I), (3, 3, 2951, _I)],
}


@pytest.mark.parametrize("key", list(ONE_SET_PINNED), ids=str)
def test_one_set_search_matches_pinned(monkeypatch, key):
    # exact once best <= lo: against the former rule every row keeps the
    # same or a tighter interval for the same or lower work.  The rows are
    # the search's own, without the cyclic averaging these cyclic codes get
    monkeypatch.setattr(dist, "_is_cyclic", lambda r: False)
    q, n, leaders = key
    if q == "dual":
        gen, q = CyclicCode(dual_defining_set(DefiningSet.from_leaders(n, leaders))).gen_matrix, 4
    elif q == 2:
        gen = _binary_cyclic(n, _BINARY_GENERATORS[n])
    else:
        gen = CyclicCode.from_leaders(n, leaders).gen_matrix
    g = linalg.row_basis(gen)
    got = [dist._info_set_bounds(g, q, budget) for budget in (0, 100, 4096, 10**5)]
    d, pinned = ONE_SET_PINNED[key]
    assert [(b.lo, b.hi, b.work, b.lo_src) for b in got] == pinned
    for b, (lo, hi, work, _) in zip(got, LATE_RULE.get(key, pinned)):
        assert b.lo >= lo and (hi is None or b.hi <= hi) and b.work <= work
        if d is not None:
            assert b.lo <= d <= (n if b.hi is None else b.hi)
            assert not b.exact or b.lo == d


def _extension_generators():
    """Extended generators of the mu_-2 duadic codes with n <= 17, one binary."""
    for n in (7, 13, 17):
        for s in find_splittings(n):
            if s.has_multiplier(-2):
                yield quantum._extend(duadic_from_splitting(s).even1)


def test_small_blocks_give_same_bounds(monkeypatch):
    cases = [(CyclicCode.from_leaders(23, [1]).gen_matrix, 4)]
    cases += [(_binary_cyclic(23, _BINARY_GENERATORS[23]), 2)]
    cases += [(ext, 2 if (ext.gen <= 1).all() else 4) for ext in _extension_generators()]
    for budget in (100, 4096, 10**5):
        want = [dist._info_set_bounds(code, q, budget) for code, q in cases]
        monkeypatch.setattr(_kernels, "_BLOCK_WORDS", 4)
        got = [dist._info_set_bounds(code, q, budget) for code, q in cases]
        monkeypatch.undo()
        assert got == want


def test_level_plans_are_shared_across_codes():
    # two codes with the same k walk levels of the same shapes: the second
    # reuses the first's plans, and each gives what it gives from cold caches
    rng = np.random.default_rng(8)
    codes = [linalg.row_basis(rng.integers(0, 4, (8, 24)).astype(np.uint8)) for _ in range(2)]
    assert codes[0].shape == codes[1].shape and (codes[0] != codes[1]).any()

    def bounds(code):
        b = dist._info_set_bounds(code, 4, 10**5)
        return b, b.word.tolist()

    cold = []
    for code in codes:
        _kernels._level_plan.cache_clear()
        _kernels._level_gather.cache_clear()
        cold.append(bounds(code))
    _kernels._level_plan.cache_clear()
    warm = [bounds(codes[0])]
    hits = _kernels._level_plan.cache_info().hits
    warm.append(bounds(codes[1]))
    assert _kernels._level_plan.cache_info().hits > hits
    assert warm == cold


def _sweep_extensions(max_n):
    """The self-dual extensions of the code search: the Hermitian dual of
    every cyclic code whose defining set A, nonzero cosets, misses -2A."""
    for n in range(3, max_n + 1, 2):
        cosets = [c for c in all_cosets(n) if 0 not in c]
        for mask in range(1, 1 << len(cosets)):
            a = frozenset().union(*(c for i, c in enumerate(cosets) if mask >> i & 1))
            if all((-2 * t) % n not in a for t in a):
                yield quantum._extend(CyclicCode(dual_defining_set(DefiningSet(n, a))))


def _research_extensions():
    """The extensions of the paper's [[144, 0]] and [[126, 0]] codes."""
    for n, leaders in ((141, (2, 3, 10)), (123, (1, 2, 6, 7, 9, 11))):
        yield quantum._extend(CyclicCode(dual_defining_set(DefiningSet.from_leaders(n, leaders))))


def test_derived_systematic_forms_are_the_reductions():
    # the two forms of a self-dual extension, on I = pivots(C) + units and
    # on its complement, and the one-set form of an RREF, equal the
    # linalg.rref they replace; the form on I, read from one (e x k) (k x N)
    # product, is the whole product M G of the block M of the generator on
    # I, its own inverse
    exts = list(_extension_generators()) + list(_sweep_extensions(41)) + list(_research_extensions())
    assert len(exts) > 220
    for ext in exts:
        gen = ext.gen
        k, n = gen.shape
        info = [int(c) for c in (ext.original != 0).argmax(axis=1)] + list(range(n - ext.e, n))
        rest = sorted(set(range(n)) - set(info))
        g, forms = dist._systematic_forms(ext)
        assert g is gen and [cols for cols, _ in forms] == [info + rest, rest + info]
        assert np.array_equal(forms[0][1], linalg.matmul(gen[:, info], gen[:, info + rest]))
        for cols, r in forms:
            reduced, rank, pivots = linalg.rref(gen[:, cols])
            assert pivots == list(range(k)) and (r == reduced[:k]).all()
        for g in (ext.original, gen):
            r, rank, pivots = linalg.rref(g)
            _, ((cols, form),) = dist._systematic_forms(r[:rank])
            assert cols[:rank] == pivots and (form == linalg.rref(r[:rank][:, cols])[0][:rank]).all()


def test_two_set_search_makes_no_row_reduction(monkeypatch):
    # the n = 141 extension's two forms come from its block form alone, so
    # the search reduces no 72 x 144 matrix
    ext, _ = _research_extensions()
    calls = []
    rref = linalg.rref

    def counting(m):
        calls.append(m.shape)
        return rref(m)

    monkeypatch.setattr(linalg, "rref", counting)
    b = dist._info_set_bounds(ext, 4, 10**4)
    assert calls == [] and (b.lo, b.hi, b.work, b.levels) == (5, 28, 9747, (1, 1))


def test_odd_order_fixed_subcode_bound_brackets_distance():
    # the odd-order branch (odd_order_lower_bound): every cyclic code with
    # n in {7, 9, 11, 15, 21} and 1 <= dim <= 5, and every multiplier a of
    # odd order > 1 with aA = A and a nonzero fixed subcode
    orders = []
    for n in (7, 9, 11, 15, 21):
        odd = [(a, o) for a in range(2, n) if math.gcd(a, n) == 1 and (o := extfield.mult_order(a, n)) % 2]
        cosets = all_cosets(n)
        for mask in range(1, 1 << len(cosets)):
            members = frozenset().union(*(c for i, c in enumerate(cosets) if mask >> i & 1))
            code = CyclicCode(DefiningSet(n, members))
            if not 1 <= code.dim <= 5:
                continue
            d = oracle.min_distance(code.gen_matrix.tolist())
            for a, order in odd:
                if code.defining_set.scaled(a).members != members or not len(dist.fixed_subcode(code, a)):
                    continue
                bound = dist.fixed_subcode_lower_bound(code, a)
                assert bound.lo <= d <= bound.hi, (n, sorted(members), a)
                orders.append(order)
    assert (len(orders), orders.count(3), orders.count(5)) == (162, 150, 12)


def test_derived_form_on_the_information_set_is_checked():
    # a generator whose unit rows are not the identity on the unit
    # coordinates is not (g | 0) above (f | I_e): the derived form is refused
    ext = next(_extension_generators())
    gen = ext.gen.copy()
    gen[-1, -1] = 2
    with pytest.raises(InvariantError, match="not \\[I \\| P\\]"):
        dist._systematic_forms(dataclasses.replace(ext, gen=gen))


def test_compose_bounds():
    a = dist.DistanceBound(lo=19, hi=None, lo_src=dist.FIXED_SUBCODE, hi_src=dist.BUDGET)
    b = dist.DistanceBound(lo=1, hi=36, lo_src=dist.BUDGET, hi_src=dist.FIXED_SUBCODE)
    c = dist.compose_bounds([a, b])
    assert (c.lo, c.hi) == (19, 36)
    assert c.lo_src == dist.FIXED_SUBCODE and c.hi_src == dist.FIXED_SUBCODE

    exact7 = dist.DistanceBound.exact_value(7)
    wide = dist.DistanceBound(lo=5, hi=12, lo_src=dist.BUDGET, hi_src=dist.INFO_SET)
    c2 = dist.compose_bounds([exact7, wide])
    assert (c2.lo, c2.hi) == (7, 7)

    with pytest.raises(InvariantError):
        dist.compose_bounds([
            dist.DistanceBound(lo=8, hi=None, lo_src=dist.FIXED_SUBCODE, hi_src=dist.BUDGET),
            dist.DistanceBound(lo=1, hi=6, lo_src=dist.BUDGET, hi_src=dist.INFO_SET),
        ])


def test_compose_never_widens():
    rng = np.random.default_rng(65)
    for _ in range(50):
        lo1, lo2 = sorted(int(x) for x in rng.integers(1, 10, 2))
        hi1, hi2 = sorted(int(x) for x in rng.integers(10, 20, 2))
        parts = [
            dist.DistanceBound(lo=lo1, hi=hi2, lo_src=dist.BUDGET, hi_src=dist.BUDGET),
            dist.DistanceBound(lo=lo2, hi=hi1, lo_src=dist.BUDGET, hi_src=dist.BUDGET),
        ]
        c = dist.compose_bounds(parts)
        assert c.lo == max(lo1, lo2) and c.hi == min(hi1, hi2)


def test_bound_json_schema():
    b = dist.DistanceBound(lo=3, hi=None, lo_src=dist.BUDGET, hi_src=dist.INFO_SET, work=42)
    assert b.to_json() == {"lo": 3, "hi": None, "lo_src": "budget-exhausted",
                           "hi_src": "information-set", "work": 42}


def test_fixed_subcode_sandwich_invariant_sweep():
    # full sandwich for order-2 multipliers on small codes; acceptance covers n <= 41
    import itertools
    import math

    for n in (5, 7, 9, 13, 15):
        cosets = all_cosets(n, 4)
        order2 = [a for a in range(2, n) if math.gcd(a, n) == 1 and (a * a) % n == 1]
        for a in order2:
            for take in range(1, 2 ** len(cosets) - 1):
                members = frozenset().union(
                    *(c for i, c in enumerate(cosets) if (take >> i) & 1)
                )
                ds = DefiningSet(n, members)
                if frozenset(a * t % n for t in members) != members:
                    continue
                code = CyclicCode(ds)
                if code.dim == 0 or code.dim > 8:
                    continue
                bound = dist.fixed_subcode_lower_bound(code, a)
                exact = dist.min_distance_exact(code)
                assert bound.lo <= exact.lo <= bound.hi, (n, a, sorted(members))
