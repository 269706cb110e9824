import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duadiq import distance as dist
from duadiq import _kernels, cli, gf4, linalg, quantum
from duadiq.cyclic import (
    CyclicCode,
    apply_multiplier,
    DefiningSet,
    all_cosets,
    dual_defining_set,
)
from duadiq.duadic import duadic_from_splitting, find_splittings, qr_splitting
from duadiq.errors import InputError, InvariantError, NotApplicableError

import oracle
from properties import near_orthogonality


def _mu2_pairs(n):
    return [duadic_from_splitting(s) for s in find_splittings(n) if s.has_multiplier(-2)]


def test_hexacode_from_n5():
    pair = _mu2_pairs(5)[0]
    params, sd = quantum.extended_duadic_quantum(pair)
    assert params.params_str() == "[[6,0,4]]"
    assert params.pure == "yes"
    m, length = sd.gen.shape
    assert (m, length) == (3, 6)
    # Gram test over all 9 generator pairs
    for i in range(3):
        for j in range(3):
            assert oracle.inner(sd.gen[i], sd.gen[j]) == 0
    # all 64 codewords have even weight, minimum 4
    counts = oracle.weight_counts([list(r) for r in sd.gen], 6)
    assert sum(counts) == 64
    assert all(c == 0 for w, c in enumerate(counts) if w % 2 == 1)
    assert min(w for w, c in enumerate(counts) if c and w) == 4


@pytest.mark.parametrize(
    "n,expected",
    [(5, "[[6,0,4]]"), (7, "[[8,0,4]]"), (13, "[[14,0,6]]"), (17, "[[18,0,8]]"), (23, "[[24,0,8]]")],
)
def test_small_table_rows(n, expected):
    pair = _mu2_pairs(n)[0]
    params, _ = quantum.extended_duadic_quantum(pair)
    assert params.params_str() == expected


def test_extension_gram_certificates():
    # every emitted extension passes the self-duality Gram test by
    # construction; re-verify externally with the dual-space computation
    for n in (5, 7, 13):
        pair = _mu2_pairs(n)[0]
        ext = quantum._extend(pair.even1)
        dual = linalg.hermitian_dual_space(ext.gen)
        assert oracle.is_subspace(dual, ext.gen)
        assert np.array_equal(linalg.row_basis(dual), linalg.row_basis(ext.gen))


def test_extend_reduces_its_basis_once(monkeypatch):
    # the even-like [23, 11] code (e = 1): rref reduces the generator matrix,
    # then the radical (here the code itself) on the 12 free columns; the
    # Hermitian dual reads the pivots of the conjugated RREF, and the rank
    # k + e is read from g's pivots and the unit block, so neither is reduced
    calls = []
    rref = linalg.rref

    def counting(m):
        calls.append(np.array(m).shape)
        return rref(m)
    monkeypatch.setattr(linalg, "rref", counting)
    ext = quantum._extend(CyclicCode(DefiningSet.from_leaders(23, [0, 1])))
    assert ext.e == 1
    assert calls == [(11, 23), (11, 12)]


def _search_sets(n):
    """Every union A of nonzero cosets mod n with A and -2A disjoint."""
    cosets = all_cosets(n, 4)[1:]
    for mask in range(1, 1 << len(cosets)):
        a = DefiningSet(n, frozenset().union(*(c for i, c in enumerate(cosets) if mask >> i & 1)))
        if not a.members & a.scaled(-2).members:
            yield a


def _repeat_a_row_of_g(monkeypatch):
    """Make the reduction that yields g in _extend repeat g's first row."""
    rref, extend = linalg.rref, quantum._extend
    armed = []

    def extend_armed(code):
        armed.append(True)
        return extend(code)

    def repeating(m):
        r, rank, pivots = rref(m)
        if armed:
            armed.clear()
            r[rank - 1] = r[0]
        return r, rank, pivots

    monkeypatch.setattr(quantum, "_extend", extend_armed)
    monkeypatch.setattr(linalg, "rref", repeating)


def _corrupt_the_complement(monkeypatch):
    """Make the orthonormalizer change the first symbol of its first row."""
    orthonormalize = quantum._hermitian_orthonormalize

    def corrupted(rows):
        out = orthonormalize(rows)
        out[0, 0] ^= 1
        return out

    monkeypatch.setattr(quantum, "_hermitian_orthonormalize", corrupted)


_EXTENSION_FAULTS = [
    (_repeat_a_row_of_g, "extended generators are dependent"),
    (_corrupt_the_complement, "dual-containment Gram test"),
]


@pytest.mark.parametrize("fault, message", _EXTENSION_FAULTS)
def test_extend_raises_on_a_broken_block(monkeypatch, fault, message):
    fault(monkeypatch)
    with pytest.raises(InvariantError, match=message):
        quantum._extend(CyclicCode(DefiningSet.from_leaders(23, [0, 1])))


@pytest.mark.parametrize("fault, message", _EXTENSION_FAULTS)
def test_cli_exits_4_on_a_broken_block(capsys, monkeypatch, fault, message):
    fault(monkeypatch)
    code = cli.main(["quantum", "-n", "13", "--leaders", "1"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert message in captured.err


def test_extend_reads_the_complement_from_the_free_columns(monkeypatch):
    # every searched code for odd n <= 41, as given and column-permuted: the
    # rows kept by the code's reduction on the free columns are
    # complement_basis's, and the extension is the reference one
    # (oracle.block_extension)
    kept = []
    orthonormalize = quantum._hermitian_orthonormalize

    def record(rows):
        kept.append(rows)
        return orthonormalize(rows)

    monkeypatch.setattr(quantum, "_hermitian_orthonormalize", record)
    inputs = [CyclicCode(dual_defining_set(a)).gen_matrix for n in range(3, 42, 2) for a in _search_sets(n)]
    assert len(inputs) == 220
    rng = np.random.default_rng(22)
    inputs += [g[:, rng.permutation(g.shape[1])] for g in inputs]
    for g in inputs:
        kept.clear()
        ext = quantum._extend(g)
        dual = linalg.hermitian_dual_space(ext.original)
        assert np.array_equal(kept[0], linalg.complement_basis(ext.original, dual))
        extended, _ = oracle.block_extension(ext.original, ext.original, dual)
        assert ext.gen.dtype == np.uint8 and ext.gen.tolist() == extended
        assert linalg.rref(ext.gen)[1] == ext.gen.shape[0]


def test_orthonormalize_matches_oracle_greedy(monkeypatch):
    # the complement bases the extension orthonormalizes on the search route
    # (the Hermitian dual of each A), plus random nondegenerate spans
    seen = []
    orthonormalize = quantum._hermitian_orthonormalize

    def record(rows):
        out = orthonormalize(rows)
        seen.append((rows, out))
        return out

    monkeypatch.setattr(quantum, "_hermitian_orthonormalize", record)
    for n in range(3, 24, 2):
        for a in _search_sets(n):
            quantum._extend(CyclicCode(dual_defining_set(a)))
    searched = len(seen)
    rng = np.random.default_rng(3)
    while len(seen) < searched + 200:
        rows = linalg.row_basis(rng.integers(0, 4, (int(rng.integers(1, 7)), int(rng.integers(6, 12)))))
        if linalg.rref(linalg.gram_matrix(rows))[1] == rows.shape[0]:
            seen.append((rows, orthonormalize(rows)))
    # both picking rules run: a unit row, and a combination of two norm-0 rows
    all_even = [rows for rows, _ in seen if not linalg.gram_matrix(rows).diagonal().any()]
    assert searched == 68 and all_even and len(all_even) < len(seen)
    for rows, out in seen:
        assert out.tolist() == oracle.orthonormalize(rows.tolist())
        assert np.array_equal(linalg.gram_matrix(out), np.eye(len(out), dtype=np.uint8))


def test_orthonormalize_raises_on_a_totally_isotropic_span():
    # no unit row and no pair with a nonzero form: one even-weight row, and
    # the [6, 3] hexacode and a self-orthogonal [13, 6] cyclic code, whose
    # Gram matrices are zero
    spans = [np.array([[1, 1, 0]], dtype=np.uint8),
             np.array([[1, 0, 0, 1, 2, 2], [0, 1, 0, 2, 1, 2], [0, 0, 1, 2, 2, 1]], dtype=np.uint8),
             CyclicCode(dual_defining_set(DefiningSet.from_leaders(13, [1]))).gen_matrix]
    for rows in spans:
        assert not linalg.gram_matrix(rows).any()
        with pytest.raises(InvariantError, match="degenerate"):
            quantum._hermitian_orthonormalize(rows)


def test_orthonormalize_wide_rows_match_oracle():
    # random nondegenerate spans of rows wider than 64 columns, so each
    # packed plane spans several machine words; a third have only norm-0
    # rows and take the combination branch
    rng = np.random.default_rng(26)
    spans = all_even = 0
    while spans < 60:
        n, k = int(rng.integers(65, 141)), int(rng.integers(1, 6))
        rows = rng.integers(0, 4, (k, n)).astype(np.uint8)
        if spans % 3 == 0:  # make every norm 0: clear one nonzero symbol of each odd-weight row
            for row in rows:
                if gf4.weight(row) % 2:
                    row[np.flatnonzero(row)[0]] = 0
        if linalg.rref(linalg.gram_matrix(rows))[1] != k:
            continue
        out = quantum._hermitian_orthonormalize(rows)
        assert out.tolist() == oracle.orthonormalize(rows.tolist())
        assert np.array_equal(linalg.gram_matrix(out), np.eye(k, dtype=np.uint8))
        spans += 1
        all_even += not linalg.gram_matrix(rows).diagonal().any()
    assert all_even >= 20


def test_self_dual_extension_runs_one_gram_test(monkeypatch):
    # a self-orthogonal input's extension carries its SelfDualCode, whose
    # Gram test is the dual-containment certificate, so the extended
    # generator's Gram product is formed once on the way to the code; a
    # SelfDualCode built directly still validates
    products = []
    gram = linalg.gram_matrix

    def record(a, b=None):
        products.append((np.shape(a), None if b is None else np.shape(b)))
        return gram(a, b)

    monkeypatch.setattr(linalg, "gram_matrix", record)
    for n, leaders in ((13, [1]), (31, [1, 3, 5])):
        products.clear()
        params, sd = quantum.cyclic_zero_dim(DefiningSet.from_leaders(n, leaders), budget=16)
        shape = sd.gen.shape
        assert shape == (params.n // 2, params.n)
        assert products.count((shape, None)) + products.count((shape, shape)) == 1
    monkeypatch.setattr(linalg, "gram_matrix", gram)
    with pytest.raises(InvariantError, match="Gram test"):
        quantum.SelfDualCode(gen=np.array([[1, 0]], dtype=np.uint8), original=np.zeros((0, 1), dtype=np.uint8), e=1)
    with pytest.raises(InvariantError, match="shape"):
        quantum.SelfDualCode(gen=np.array([[1, 1, 0]], dtype=np.uint8), original=np.zeros((0, 2), dtype=np.uint8), e=1)


def test_near_orthogonality_e1_iff_mu2():
    # both directions of the classification on enumerated splittings
    for n in (5, 7, 9, 13, 15, 17, 21, 23):
        for s in find_splittings(n):
            pair = duadic_from_splitting(s)
            for odd in (pair.odd1, pair.odd2):
                e = near_orthogonality(odd)
                assert (e == 1) == s.has_multiplier(-2), (n, s.key, e)


def test_general_zero_dim_pure_hexacode():
    # the self-dual hexacode is its own self-orthogonal input, with e = 0
    pair = _mu2_pairs(5)[0]
    _, sd = quantum.extended_duadic_quantum(pair)
    q, _ = quantum.general_zero_dim(sd.gen)
    assert q.params_str() == "[[6,0,4]]" and q.pure == "yes"


def _moved_word(walk, call, w_from, w_to, field=4):
    """walk (weight_histograms), with one word of the call-th result
    (counted from 0) of its walks over GF(field) moved from weight w_from
    to w_to; the list returned grows by one per such walk."""
    calls = []

    def corrupted(g, budget=None, q=4):
        hist, work = walk(g, budget, q)
        if q != field:
            return hist, work
        calls.append(g)
        if len(calls) == call + 1:
            hist = hist.copy()
            assert hist[w_from] > 0
            hist[w_from] -= 1
            hist[w_to] += 1
        return hist, work
    return corrupted, calls


def test_pass_checks_macwilliams_pair_and_binary(monkeypatch):
    # the e = 1 pass walks only the even-like [13, 6] ingredient: a word
    # moved from weight 6 to 8 keeps its count and breaks the divisibility
    # of the transform
    pair = _mu2_pairs(13)[0]
    corrupted, calls = _moved_word(dist.weight_histograms, 0, 6, 8)
    monkeypatch.setattr(dist, "weight_histograms", corrupted)
    with pytest.raises(InvariantError, match="MacWilliams"):
        quantum.general_zero_dim(pair.even1)
    assert len(calls) == 1
    # the binary e = 1 pass of the [[8,0,4]] code, from a GF(4) cyclic code
    # with a binary generator, walks the 2^3 binary words of its [7, 3] ingredient
    lift = CyclicCode(DefiningSet(7, qr_splitting(7).s1.members | {0}))
    corrupted, calls = _moved_word(dist.weight_histograms, 0, 4, 2, field=2)
    monkeypatch.setattr(dist, "weight_histograms", corrupted)
    with pytest.raises(InvariantError, match="MacWilliams"):
        quantum.general_zero_dim(lift)
    assert len(calls) == 1
    monkeypatch.undo()
    p, _ = quantum.general_zero_dim(lift)
    assert p.params_str() == "[[8,0,4]]" and p.d.work == 2**3


def _miscounted(walk, corrupt, field):
    """walk (weight_histograms), with the histogram of each of its walks
    over GF(field) given one extra word of its least nonzero weight w
    ("extra") or one word moved from weight w to w + 2 ("moved")."""
    def corrupted(g, budget=None, q=4):
        hist, work = walk(g, budget, q)
        if q != field:
            return hist, work
        hist = hist.copy()
        w = int(np.flatnonzero(hist[1:])[0]) + 1
        if corrupt == "moved":
            hist[w] -= 1
            w += 2
        hist[w] += 1
        return hist, work
    return corrupted


@pytest.mark.parametrize("corrupt", ["extra", "moved"])
@pytest.mark.parametrize("field,n,count", [
    pytest.param(4, 13, "not 2\\^12", id="gf4-13"),
    pytest.param(2, 7, "not 2\\^3", id="gf2-7"),
])
def test_unit_pass_rejects_a_miscounted_ingredient(monkeypatch, corrupt, field, n, count):
    # the e = 1 pass of the even-like mu_-2 code walks only that code, the
    # [13, 6] one over GF(4) or the binary [7, 3] one, and takes its
    # Hermitian dual from the transform: an extra word breaks the count, a
    # moved one the divisibility of the transform
    monkeypatch.setattr(dist, "weight_histograms", _miscounted(dist.weight_histograms, corrupt, field))
    with pytest.raises(InvariantError, match=count if corrupt == "extra" else "MacWilliams"):
        quantum.general_zero_dim(_mu2_pairs(n)[0].even1)


def _counted_kernels(mp):
    """Wrap both Gray-walk kernels with mp; the returned list gets the
    words each call evaluated, the counts of its histograms."""
    walked = []

    def counting(kernel):
        def run(*args):
            hist = kernel(*args)
            walked.append(int(hist.sum()))
            return hist
        return run

    for name in ("gray_weight_hists", "gray_weight_hists_binary"):
        mp.setattr(_kernels, name, counting(getattr(_kernels, name)))
    return walked


def test_budget_bounds_the_words_walked(monkeypatch):
    # n = 25, leader 1: the [25, 10] ingredient extends by e = 5 to a
    # [30, 15] code, whose 4^15 words do not fit 4^10, so no pass runs and
    # the search certifies d; n = 35, leaders 1, 2, 5: a [40, 20] binary
    # extension, whose 2^20 binary words fit the default budget
    walked = _counted_kernels(monkeypatch)
    p, _ = quantum.cyclic_zero_dim(DefiningSet.from_leaders(25, [1]), budget=4**10)
    assert sum(walked) <= 4**10 and p.d.work <= 4**10
    assert p.d.exact and p.d.lo == 4
    walked.clear()
    p, _ = quantum.cyclic_zero_dim(DefiningSet.from_leaders(35, [1, 2, 5]))
    assert p.params_str() == "[[40,0,8]]" and p.d.work == sum(walked) == 2**20


def test_route_equivalence_small():
    for n in (5, 7, 13, 17, 23):
        for s in find_splittings(n):
            if not s.has_multiplier(-2):
                continue
            p1, _ = quantum.extended_duadic_quantum(duadic_from_splitting(s))
            p2, _ = quantum.cyclic_zero_dim(s.s1)
            assert (p1.n, p1.k, p1.d.lo, p1.d.hi) == (p2.n, p2.k, p2.d.lo, p2.d.hi)


def test_route_equivalence_budget_limited():
    s = find_splittings(13)[0]
    p1, _ = quantum.extended_duadic_quantum(duadic_from_splitting(s), budget=50)
    p2, _ = quantum.cyclic_zero_dim(s.s1, budget=50)
    assert (p1.n, p1.k, p1.d.lo, p1.d.hi) == (p2.n, p2.k, p2.d.lo, p2.d.hi)
    # below the exact pass, levels 1 and 1 give lo 5 and the even code's
    # best word 6 certifies d = 6
    assert p1.d.exact and p1.d.lo_src == dist.INFO_SET and p1.d.work == 42


def test_cyclic_zero_dim_examples():
    p, sd = quantum.cyclic_zero_dim(DefiningSet(5, frozenset({1, 4})))
    assert p.params_str() == "[[6,0,4]]"
    assert sd.gen.shape == (3, 6)
    with pytest.raises(NotApplicableError):
        quantum.cyclic_zero_dim(DefiningSet.from_leaders(5, [0]))


@pytest.mark.parametrize("route", ["general_zero_dim", "extend_nearly_self_orthogonal",
                                   "dual_containing_to_zero_dim"])
def test_general_zero_dim_guards(monkeypatch, route):
    # {0} meets -2{0}: neither the [5, 4] code nor its Hermitian dual, the
    # [5, 1] repetition code of odd weight, is self-orthogonal, and each
    # route refuses its extension's input before any Gray walk or search
    run = getattr(quantum, route)
    walked, searched = _counted_kernels(monkeypatch), []
    search = dist._info_set_bounds
    monkeypatch.setattr(dist, "_info_set_bounds", lambda *args, **kw: searched.append(args) or search(*args, **kw))
    with pytest.raises(NotApplicableError, match="code is not Hermitian self-orthogonal") as refused:
        run(CyclicCode.from_leaders(5, [0]))
    assert refused.value.failed == ["C <= C^perp_h"]
    assert walked == [] and searched == []
    # the zero code is refused as every construction refuses it; the full
    # space is the Hermitian dual of the zero code
    if route == "dual_containing_to_zero_dim":
        zeros = [CyclicCode(DefiningSet(5, frozenset())), np.eye(4, dtype=np.uint8)]
    else:
        zeros = [CyclicCode(DefiningSet(5, frozenset(range(5)))), np.zeros((2, 5), dtype=np.uint8),
                 np.zeros((0, 4), dtype=np.uint8)]
    for zero in zeros:
        with pytest.raises(InputError, match="refusing the zero code"):
            run(zero)


def test_dual_containing_to_zero_dim():
    pair = _mu2_pairs(5)[0]
    _, sd = quantum.extended_duadic_quantum(pair)
    p, _ = quantum.dual_containing_to_zero_dim(sd.gen)
    assert p.params_str() == "[[6,0,4]]"
    # [n,n] full space: dual is zero, refused
    with pytest.raises(InputError):
        quantum.dual_containing_to_zero_dim(CyclicCode(DefiningSet(5, frozenset())))


def test_dual_containing_to_zero_dim_rejects_non_dual_containing():
    # {0} meets -2{0}: the Hermitian dual is not self-orthogonal
    code = CyclicCode.from_leaders(5, [0])
    for c in (code, code.gen_matrix):
        with pytest.raises(NotApplicableError):
            quantum.dual_containing_to_zero_dim(c)


@pytest.mark.parametrize("route", ["general_zero_dim", "extend_nearly_self_orthogonal",
                                   "dual_containing_to_zero_dim"])
def test_bad_symbols_are_input_errors(route):
    with pytest.raises(InputError):
        getattr(quantum, route)(np.array([[5, 0, 1, 1]]))


def _bound_key(d):
    return (d.lo, d.hi, d.work, d.lo_src, d.hi_src)


def _zero_dim_budgets(k):
    # the coset pass walks 4^(k+e) words; its threshold is tested where that is cheap
    return sorted({0, 100, 4096, 65536} | ({4**k - 1, 4**k} if k <= 8 else set()))


def test_one_bound_per_self_orthogonal_code():
    # general_zero_dim reads one extension_distance call on the code's
    # Extension: the coset pass when its 4^k words fit, else the two-set
    # search, also on a self-dual extended generator (here the permuted
    # copy's), which extends with e = 0
    rng = np.random.default_rng(17)
    cases = 0
    for n in range(3, 42, 2):
        for a in _search_sets(n):
            code = CyclicCode(dual_defining_set(a))
            for c in (code, code.gen_matrix[:, rng.permutation(n)]):
                for budget in _zero_dim_budgets(code.dim):
                    p, sd = quantum.general_zero_dim(c, budget=budget)
                    q = dist.extension_distance(quantum._extend(c), budget).bound
                    assert _bound_key(q) == _bound_key(p.d), (n, sorted(a.members), budget)
                    cases += 1
            for budget in _zero_dim_budgets(sd.gen.shape[0]):
                p, _ = quantum.general_zero_dim(sd.gen, budget=budget)
                q = dist.extension_distance(quantum._extend(sd.gen), budget).bound
                assert _bound_key(q) == _bound_key(p.d), (n, sorted(a.members), budget)
                cases += 1
    assert cases > 2000


def test_self_dual_input_checks_macwilliams(monkeypatch):
    # moving one word of the [14, 7] self-dual code from weight 8 to 6
    # keeps the count 2^14 and breaks the MacWilliams identity
    _, sd = quantum.extended_duadic_quantum(_mu2_pairs(13)[0])
    walk = dist.weight_histograms

    def corrupted(*args, **kwargs):
        hist, work = walk(*args, **kwargs)
        hist = hist.copy()
        hist[6] += 1
        hist[8] -= 1
        return hist, work

    monkeypatch.setattr(dist, "weight_histograms", corrupted)
    with pytest.raises(InvariantError, match="MacWilliams"):
        quantum.general_zero_dim(sd.gen)


def test_dual_containing_to_zero_dim_doubles_k():
    pair = _mu2_pairs(13)[0]
    p, sd = quantum.dual_containing_to_zero_dim(pair.odd1)
    assert (p.n, p.k) == (14, 0)  # 2k = 2 * 7
    assert p.d.lo % 2 == 0
    assert sd.gen.shape == (7, 14)


def test_binary_cyclic_quantum():
    # GF(4) cyclic codes with binary generators (ord_n(2) = ord_n(4), so the
    # cosets coincide) extend to binary self-dual codes
    s23 = qr_splitting(23)
    p, sd = quantum.general_zero_dim(CyclicCode(DefiningSet(23, s23.s1.members | {0})))
    assert p.params_str() == "[[24,0,8]]"
    assert (sd.gen <= 1).all()
    s7 = qr_splitting(7)
    p7, _ = quantum.general_zero_dim(CyclicCode(DefiningSet(7, s7.s1.members | {0})))
    assert p7.params_str() == "[[8,0,4]]"


def test_binary_duadic_below_the_duadic_pass_takes_the_binary_pass():
    # the even-like QR code of a prime p = 7 mod 8 has a binary generator:
    # when its 4^dim words do not fit but its 2^dim binary words do, the
    # duadic route's extension_distance walks the binary span, and reads the
    # bound of the cyclic route's extension of the same even-like code
    for n, budget in ((7, 10), (23, 10**4), (31, 10**6)):
        split = qr_splitting(n)
        dim = (n - 1) // 2
        assert 2**dim <= budget < 4**dim
        p, _ = quantum.extended_duadic_quantum(duadic_from_splitting(split), budget=budget)
        b, _ = quantum.general_zero_dim(CyclicCode(DefiningSet(n, split.s1.members | {0})), budget=budget)
        assert p.d.exact and p.d.work == 2**dim
        assert (p.d, p.pure, p.trace[-1]) == (b.d, b.pure, b.trace[-1])


def test_budget_limited_zero_dim_extension_brackets_oracle():
    # without the exact pass, the information-set search on the self-dual
    # extension meets every word of C padded by zeros, so hi <= d(C); the
    # extension's own lightest word can be lighter still
    for n in (5, 7, 13):
        even = _mu2_pairs(n)[0].even1
        for budget in (0, 4**even.dim - 1, 4**even.dim):
            params, sd = quantum.general_zero_dim(even, budget=budget)
            d = oracle.min_distance(sd.gen.tolist())
            assert params.k == 0 and params.d.lo <= d
            assert params.d.hi is None or d <= params.d.hi
        assert d <= params.d.hi <= dist.min_distance_exact(even).lo
    # a GF(4) cyclic code with a binary generator below the exact pass, which
    # walks the 2^k words of the binary ingredient C (e = 1): d(C), the
    # distance of its binary span, bounds the extension.
    # The search walks binary messages, comb(K, w) of them at level w of
    # each set, where GF(4) messages would number comb(K, w) 3^w
    want = {
        7: ("[7,3]", "[[2(7-3), 0]]", "[8,4]", (1, 0), 4),
        23: ("[23,11]", "[[2(23-11), 0]]", "[24,12]", (2, 2), 8),
    }
    for n, oracle_d in ((7, oracle.min_distance), (23, oracle.binary_min_distance)):
        a = DefiningSet(n, qr_splitting(n).s1.members | {0})
        bin_dim = n - len(a.members)
        p, sd = quantum.general_zero_dim(CyclicCode(a), budget=2**bin_dim - 1)
        code, zero_dim, extended, levels, d_want = want[n]
        assert p.k == 0 and p.trace == (
            f"self-orthogonal {code} input: {zero_dim} with e = 1",
            f"budget-limited bound: information set and complement of the extended {extended} code, "
            f"levels {levels[0]} and {levels[1]}: d = {d_want}",
        )
        assert p.d.levels == levels
        assert p.d.work == sum(math.comb(sd.gen.shape[0], w) for top in levels for w in range(1, top + 1))
        d = oracle_d(sd.gen.tolist())
        assert p.d.lo <= d <= p.d.hi <= dist.min_distance_exact(CyclicCode(a)).lo


def test_research_codes_two_set_intervals():
    # (lo, hi, work) of the paper's [[144,0]] and [[126,0]] codes at budgets
    # 10^5, 10^6 and 10^7: whole levels on both sets, then for n = 123 the
    # fixed subcode of mu_40 within a third of the budget left, then the next
    # level's colex prefix with the rest.  Cyclic averaging over the [n, k]
    # ingredient and its dual gives an odd lo one above the two-set sum,
    # which the even lift raises by one more
    want = {
        (141, (2, 3, 10)): [(8, 28, 94257), (8, 24, 970380), (10, 24, 9929331)],
        (123, (1, 2, 6, 7, 9, 11)): [(8, 32, 94185), (8, 28, 982269), (10, 24, 9863001)],
    }
    for (n, leaders), rows in want.items():
        for budget, row in zip((10**5, 10**6, 10**7), rows):
            p, _ = quantum.cyclic_zero_dim(DefiningSet.from_leaders(n, leaders), budget=budget)
            assert (p.d.lo, p.d.hi, p.d.work) == row and p.d.lo_src == dist.PARITY
            # n = 123's hi is a word of the fixed subcode of mu_40
            assert p.d.hi_src == (dist.FIXED_SUBCODE if n == 123 else dist.INFO_SET)
    assert "levels 3 and 3: d >= 8, cyclic averaging: d >= 9, even: d >= 10" in p.trace[1]


def _exact_distance(gen):
    """Full enumeration: the oracle up to dimension 6, the Gray walk above."""
    k = gen.shape[0]
    if k <= 6:
        return oracle.min_distance(gen.tolist())
    b = dist.min_distance_exact(gen, budget=4**k)
    assert b.lo_src == dist.EXACT
    return b.lo


def _assert_brackets(b, d, n, budget):
    assert b.lo <= d <= (n if b.hi is None else b.hi), (b, d)
    assert b.lo % 2 == 0 and b.work <= budget


def test_two_set_bound_brackets_search_extensions():
    # the bound alone, for every searched A whose extension has dimension <= 10
    checked = 0
    for n in range(3, 42, 2):
        for a in _search_sets(n):
            if n - len(a.members) > 10:
                continue
            ext = quantum._extend(CyclicCode(dual_defining_set(a)))
            d = _exact_distance(ext.gen)
            for budget in (0, 4096, 65536):
                _assert_brackets(dist.extension_distance(ext, budget).bound, d, ext.gen.shape[1], budget)
            checked += 1
    assert checked == 18


def test_two_set_bound_brackets_mu2_extensions():
    # the reference is full enumeration where it fits: the duadic pass up to
    # n = 29 and the binary span of a binary generator (n = 31); for
    # n = 35, 37, 41 it is the search's own certificate at budget 2^26
    for n in range(5, 42, 2):
        for s in find_splittings(n):
            if not s.has_multiplier(-2):
                continue
            pair = duadic_from_splitting(s)
            for split in (s, oracle.mirror(s)):
                ext = quantum._extend(duadic_from_splitting(split).even1)
                if n <= 29:
                    dd = dist.duadic_distances(split)
                    d = min(dd.d_even, dd.d_min_odd_coset + 1)
                elif (ext.gen <= 1).all():
                    hist, _ = dist.weight_histograms_binary(ext.gen)
                    d = int(np.flatnonzero(hist[1:])[0]) + 1
                else:
                    cert = dist.extension_distance(ext, 1 << 26).bound
                    assert cert.exact
                    d = cert.lo
                for budget in (0, 4096, 65536):
                    _assert_brackets(dist.extension_distance(ext, budget).bound, d, ext.gen.shape[1], budget)


def _two_set_breakpoints(big_k, q):
    """The work after each whole level of the two-set search, in its order."""
    levels, work, out = [0, 0], 0, []
    while min(levels) < big_k:
        j = levels.index(min(levels))
        levels[j] += 1
        work += math.comb(big_k, levels[j]) * (q - 1) ** levels[j]
        out.append(work)
    return out


def test_cyclic_averaging_dominates_two_set_rule(monkeypatch):
    # every searched extension with K <= 9, at budget 0 and one below, at and
    # one above each whole level: with the rule the interval still brackets
    # d, lo is never below the two-set lo, hi is the same and work no higher;
    # both runs search without fixed-subcode seeds, so only averaging differs
    cases = tighter = 0
    monkeypatch.setattr(dist, "_fixing_involutions", lambda r: [])
    for n in range(3, 42, 2):
        for a in _search_sets(n):
            if n - len(a.members) > 9:
                continue
            ext = quantum._extend(CyclicCode(dual_defining_set(a)))
            assert dist._is_cyclic(ext.original)
            gen = ext.gen
            big_n = gen.shape[1]
            q = 2 if (gen <= 1).all() else 4
            d = _exact_distance(gen)
            points = _two_set_breakpoints(gen.shape[0], q)
            for budget in sorted({0} | {b + s for b in points for s in (-1, 0, 1)}):
                with monkeypatch.context() as m:
                    m.setattr(dist, "_is_cyclic", lambda r: False)
                    off = dist._info_set_bounds(ext, q, budget)
                on = dist._info_set_bounds(ext, q, budget)
                assert on.lo <= d <= (big_n if on.hi is None else on.hi), (n, a, budget)
                assert not on.exact or on.lo == d
                assert on.lo >= off.lo and on.hi == off.hi and on.work <= off.work
                cases += 1
                tighter += on.lo > off.lo
    assert cases == 826 and tighter > 0


def _involutions(n):
    return [a for a in range(2, n) if a * a % n == 1]


def test_fixed_rows_and_one_row_fixing_test():
    # the seed's fixed subcode from the RREF rows is fixed_subcode's basis,
    # and the one-row fixing test agrees with aA == A, for every order-2
    # multiplier of every searched ingredient
    pairs = fixing = 0
    for n in range(3, 42, 2):
        for a_set in _search_sets(n):
            code = CyclicCode(dual_defining_set(a_set))
            r = quantum._extend(code).original
            fixes = dist._fixing_involutions(r)
            for a in _involutions(n):
                assert np.array_equal(dist._fixed_rows(r, a), dist.fixed_subcode(code, a))
                invariant = code.defining_set.scaled(a).members == code.defining_set.members
                assert (a in fixes) == invariant, (n, sorted(a_set.members), a)
                pairs += 1
                fixing += invariant
    assert pairs > 100 and 0 < fixing < pairs


def test_fixed_subcode_seed_brackets_and_dominates(monkeypatch):
    # every searched extension with K <= 9, at one below, at and one above
    # each whole level of the two-set search and at 4096 and 65536: the
    # seeded interval brackets d, its lo is the seed-free search's lo, its
    # hi is no higher and its work stays within the budget
    cases = seeded = 0
    involutions = dist._fixing_involutions
    for n in range(3, 42, 2):
        for a in _search_sets(n):
            ext = quantum._extend(CyclicCode(dual_defining_set(a)))
            gen = ext.gen
            if gen.shape[0] > 9:
                continue
            d = _exact_distance(gen)
            points = _two_set_breakpoints(gen.shape[0], 2 if (gen <= 1).all() else 4)
            for budget in sorted({4096, 65536} | {b + s for b in points for s in (-1, 0, 1)}):
                monkeypatch.setattr(dist, "_fixing_involutions", involutions)
                on = dist.extension_distance(ext, budget).bound
                monkeypatch.setattr(dist, "_fixing_involutions", lambda r: [])
                off = dist.extension_distance(ext, budget).bound
                _assert_brackets(on, d, ext.gen.shape[1], budget)
                assert not on.exact or on.lo == d
                assert on.lo == off.lo and (off.hi is None or on.hi <= off.hi)
                cases += 1
                seeded += on.work != off.work
    assert cases > 800 and seeded > 0


def test_research_hi_is_a_checked_fixed_subcode_word():
    # n = 123: mu_40 (order 2) fixes the [123, 60] ingredient, and its
    # [123, 30] fixed subcode gives the hi; the word is returned and checked
    a = DefiningSet.from_leaders(123, (1, 2, 6, 7, 9, 11))
    ext = quantum._extend(CyclicCode(dual_defining_set(a)))
    assert dist._fixing_involutions(ext.original) == [40]
    assert dist._fixed_rows(ext.original, 40).shape == (30, 123)
    b = dist._info_set_bounds(ext, 4, 10**6)
    assert (b.hi, b.hi_src) == (28, dist.FIXED_SUBCODE)
    assert gf4.weight(b.word) == 28 and not b.word[123:].any()
    assert np.array_equal(apply_multiplier(40, b.word[:123]), b.word[:123])
    assert not linalg.gram_matrix(b.word, ext.gen).any()


def test_self_dual_search_stops_at_even_distance():
    # n = 47 QR: levels 4 and 4 give lo 11, and the even code's best word
    # 12 certifies d = 12 there, at any budget past those levels
    pair = duadic_from_splitting(qr_splitting(47))
    for budget in (65536, 10**6):
        p, _ = quantum.extended_duadic_quantum(pair, budget=budget)
        assert (p.d.lo, p.d.hi, p.d.work) == (12, 12, 25900) and p.d.exact
        assert p.trace[-1].endswith("levels 4 and 4: d = 12")


def test_non_cyclic_copy_keeps_two_set_bound():
    # swapping two coordinates of a cyclic ingredient (no multiplier does
    # that) leaves a code that is not cyclic: no averaging, today's bound.
    # The search runs below the exact pass, which walks the 2^11 and 2^15
    # words of the binary n = 23 and n = 31 ingredients (e = 1)
    for n in (23, 29, 31):
        even = _mu2_pairs(n)[0].even1
        g = even.gen_matrix[:, [1, 0] + list(range(2, n))]
        ext = quantum._extend(g)
        q = 2 if (ext.gen <= 1).all() else 4
        for budget in sorted({min(b, q ** ext.original.shape[0] - 1) for b in (0, 4096, 65536)}):
            got = dist.extension_distance(ext, budget)
            assert got.bound == dist.even_lift(dist._info_set_bounds(ext, q, budget))
            assert "cyclic averaging" not in got.note
            # at n = 29 the cyclic original gains a level (the others are exact)
            cyclic = dist.extension_distance(quantum._extend(even), budget)
            assert cyclic.bound.lo >= got.bound.lo + 2 * (n == 29 and budget > 0)


def test_cyclic_average_terms():
    # a [20, 10] ingredient: ceil((w_I + 1) 2), ceil((w_R + 1) 2) + 1 and
    # best - e + 1, since the walked word of a lightest v may carry e units
    assert dist._cyclic_average([3, 0], 30, 20, 10, 1) == 3
    assert dist._cyclic_average([5, 5], 30, 20, 10, 1) == 12
    assert dist._cyclic_average([5, 5], 12, 20, 10, 3) == 10
    # e = 0: the extension is C itself, with no (v | alpha) words, so the
    # complement's level adds no term
    assert dist._cyclic_average([3, 0], 30, 20, 10, 0) == 8
    assert dist._cyclic_average([3], 30, 20, 10, 0) == 8
    # the cyclic Hermitian self-dual [2m, m, 2] codes {(u | u)} extend with e = 0
    for m in (2, 3, 5):
        ext = quantum._extend(np.hstack([np.eye(m, dtype=np.uint8)] * 2))
        assert ext.e == 0 and dist._is_cyclic(ext.original)
        for budget in (0, 1, 2 * m):
            b = dist.extension_distance(ext, budget).bound
            assert b.lo <= 2 <= (2 * m if b.hi is None else b.hi)
            assert not b.exact or b.lo == 2


def test_binary_route_brackets_with_cyclic_averaging():
    # binary extensions of K <= 16 searched on GF(2) messages, against the
    # binary enumeration of the extended code
    notes = []
    for n in (7, 23, 31):
        for a in _search_sets(n):
            lift = CyclicCode(dual_defining_set(a))
            ext = quantum._extend(lift)
            if ext.gen.shape[0] > 16 or not (ext.gen <= 1).all():
                continue
            hist, _ = dist.weight_histograms_binary(ext.gen)
            d = int(np.flatnonzero(hist[1:])[0]) + 1
            for budget in (0, 100, 1000, 10000, 2**ext.gen.shape[0] - 1):
                p, _ = quantum.general_zero_dim(lift, budget=budget)
                _assert_brackets(p.d, d, ext.gen.shape[1], budget)
                assert not p.d.exact or p.d.lo == d
                notes.append(p.trace[-1])
    assert len(notes) == 60 and any("cyclic averaging" in line for line in notes)


def _cyclic_codes(n):
    """Every nonzero cyclic code of length n over GF(4), by defining set."""
    cosets = all_cosets(n, 4)
    for mask in range(1 << len(cosets)):
        a = DefiningSet(n, frozenset().union(*(c for i, c in enumerate(cosets) if mask >> i & 1)))
        if len(a.members) < n:
            yield a


def test_cyclic_code_search_brackets_and_dominates(monkeypatch):
    # min_distance_exact on a cyclic code averages over its one window, the
    # same for a CyclicCode and its generator matrix; without the averaging
    # (_is_cyclic off) the one-set rule certifies a level later
    cases = tighter = 0
    for n in range(5, 42, 2):
        for code in (CyclicCode(a) for a in _search_sets(n)):
            if not 2 <= code.dim <= 9:
                continue
            d = dist.min_distance_exact(code, budget=4**code.dim).lo
            for budget in (0, 10, 100, 1000, 4**code.dim - 1):
                on = dist.min_distance_exact(code, budget=budget)
                assert dist.min_distance_exact(code.gen_matrix, budget=budget) == on
                monkeypatch.setattr(dist, "_is_cyclic", lambda r: False)
                off = dist.min_distance_exact(code.gen_matrix, budget=budget)
                monkeypatch.undo()
                assert on.lo <= d <= (n if on.hi is None else on.hi)
                assert not on.exact or on.lo == d
                assert on.lo >= off.lo and on.work <= off.work
                cases += 1
                tighter += on.lo > off.lo
    assert cases == 90 and tighter > 0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0, 100, 4096, 1 << 20]))
def test_general_zero_dim_brackets_random_self_orthogonal(seed, budget):
    # the Hermitian dual of the reference extension of a random code (dual
    # containing by construction) is self-orthogonal; half the inputs are
    # binary, so some extensions take the binary search
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    g = linalg.row_basis(rng.integers(0, int(rng.choice([2, 4])), (int(rng.integers(1, n)), n)).astype(np.uint8))
    if not g.any():
        return
    dual = linalg.hermitian_dual_space(g)
    _, code = oracle.block_extension(g, linalg.subspace_intersection(g, dual), dual)
    params, sd = quantum.general_zero_dim(np.array(code, dtype=np.uint8), budget=budget)
    assert params.k == 0
    _assert_brackets(params.d, _exact_distance(sd.gen), params.n, max(budget, params.d.work))


@functools.lru_cache(maxsize=None)
def _enumerable_search_sets():
    """The searched A with n <= 41 whose [[2(n-|A|), 0]] code full
    enumeration certifies: K <= 10, or a binary generator with K <= 20."""
    out = []
    for n in range(3, 42, 2):
        for a in _search_sets(n):
            gen = quantum._extend(CyclicCode(dual_defining_set(a))).gen
            if gen.shape[0] <= 10 or ((gen <= 1).all() and gen.shape[0] <= 20):
                out.append(a)
    return tuple(out)


def _enumerated_distance(gen):
    if (gen <= 1).all() and gen.shape[0] > 6:
        hist, _ = dist.weight_histograms_binary(gen, budget=2 ** gen.shape[0])
        return int(np.flatnonzero(hist[1:])[0]) + 1
    return _exact_distance(gen)


@settings(max_examples=25, deadline=None)
@given(st.data(), st.integers(0, 2**16))
def test_budget_bounds_work_and_walk_random_defining_sets(data, budget):
    # a random searched defining set and budget through cyclic_zero_dim and,
    # when A is a mu_-2 half, extended_duadic_quantum: the interval brackets
    # the enumerated distance, and the words the Gray walk evaluates stay
    # within the reported work, and that within the budget.  Both routes
    # walk the 4^dim words of the even-like code, so a GF(4) generator gets
    # one bound from both; a binary one is walked in 2^dim words on the
    # cyclic route, whose interval then lies inside the duadic route's
    a = data.draw(st.sampled_from(_enumerable_search_sets()))
    routes = {"cyclic": quantum.cyclic_zero_dim}
    # a mu_-2 half A is side 1 of its splitting or of that splitting's mirror
    for s in find_splittings(a.n):
        for split in (s, oracle.mirror(s)):
            if split.s1 == a and split.has_multiplier(-2):
                pair = duadic_from_splitting(split)
                routes["duadic"] = lambda _, budget: quantum.extended_duadic_quantum(pair, budget=budget)
    bounds = {}
    for name, route in routes.items():
        with pytest.MonkeyPatch.context() as mp:
            walked = _counted_kernels(mp)
            p, sd = route(a, budget=budget)
        d = _enumerated_distance(sd.gen)
        assert p.d.lo <= d <= (p.n if p.d.hi is None else p.d.hi), (a, budget, p.d)
        assert not p.d.exact or p.d.lo == d
        assert sum(walked) <= p.d.work <= budget
        bounds[name] = p.d
    if "duadic" in bounds:
        cyclic, duadic = bounds["cyclic"], bounds["duadic"]
        if (sd.gen <= 1).all():
            assert duadic.lo <= cyclic.lo and (duadic.hi is None or cyclic.hi <= duadic.hi), (a, budget)
        else:
            assert _bound_key(cyclic) == _bound_key(duadic), (a, budget)


def test_zero_dim_extremal_bound():
    def params(n, d, k=0):
        bound = dist.DistanceBound(lo=d, hi=None, lo_src=dist.LITERATURE, hi_src=dist.BUDGET)
        return quantum.QuantumParams(n=n, k=k, d=bound, pure="unknown", trace=())

    # 2 floor(n/6) + 2, and + 3 for n = 5 mod 6
    for n, limit in ((2, 2), (6, 4), (11, 5), (24, 10), (29, 11), (30, 12), (144, 50)):
        params(n, limit)
        with pytest.raises(InvariantError, match=f"d <= {limit}"):
            params(n, limit + 1)
    params(24, 12, k=1)  # only k = 0 codes are bounded


def test_secondary_constructions():
    pair = _mu2_pairs(5)[0]
    _, sd = quantum.extended_duadic_quantum(pair)
    q, _ = quantum.general_zero_dim(sd.gen)
    outs = quantum.secondary_constructions(q)
    strs = {o.params_str() for o in outs}
    assert "[[5,1,3]]" in strs  # pure route raises k
    assert "[[5,0,3]]" in strs
    with pytest.raises(InputError):
        quantum.secondary_constructions(
            quantum.QuantumParams(1, 0, dist.DistanceBound.exact_value(2), "unknown", ())
        )


def _literature(n, d):
    """A literature [[n, 0, d]] value, exact on both ends, of unknown purity."""
    bound = dist.DistanceBound(lo=d, hi=d, lo_src=dist.LITERATURE, hi_src=dist.LITERATURE)
    return quantum.QuantumParams(n=n, k=0, d=bound, pure="unknown", trace=())


def test_secondary_chain_240():
    base = _literature(240, 32)
    chain = quantum.secondary_chain(base, 9)
    assert [(c.n, c.k, c.d.lo, c.d.hi) for c in chain] == [
        (240 - i, 0, 32 - i, 32 - i) for i in range(1, 10)
    ]
    # the pure k+1 route must not be offered for a code of unknown purity
    outs = quantum.secondary_constructions(base)
    assert all(o.k == 0 for o in outs)


def test_secondary_chain_234():
    base = _literature(234, 30)
    chain = quantum.secondary_chain(base, 7)
    assert [(c.n, c.k, c.d.lo) for c in chain] == [(234 - i, 0, 30 - i) for i in range(1, 8)]


def test_annotations_file_roundtrip(tmp_path):
    path = tmp_path / "ann.json"
    path.write_text('[{"n": 93, "k": 48, "d": 21, "source": "code tables"}]')
    anns = quantum.load_annotations(path)
    assert anns == [quantum.Annotation(n=93, k=48, d=21, source="code tables")]
    q = quantum.zero_dim_from_classical_annotation(anns[0])
    assert (q.n, q.k, q.d.lo) == (96, 0, 22)
    assert q.d.lo_src == dist.PARITY  # odd 21 lifted through the even dual
    path.write_text('{"not": "a list"}')
    with pytest.raises(InputError):
        quantum.load_annotations(path)


def test_even_weight_certificate_small():
    # k = 0 outputs are even-weight codes: enumerate where cheap
    for n in (5, 7, 13):
        pair = _mu2_pairs(n)[0]
        _, sd = quantum.extended_duadic_quantum(pair)
        hist, _ = dist.weight_histograms(sd.gen)
        assert all(hist[w] == 0 for w in range(1, sd.gen.shape[1] + 1, 2))


def test_lower_bounds_never_exceed_exact():
    # emitted bounds vs a direct enumeration of the emitted generator matrix;
    # n=31 would need a 4^16 walk, beyond the default budget
    for n in (5, 7, 13, 17, 23, 29):
        pair = _mu2_pairs(n)[0]
        params, sd = quantum.extended_duadic_quantum(pair)
        actual = dist.min_distance_exact(sd.gen)
        assert actual.exact
        assert params.d.lo <= actual.lo
        if params.d.exact:
            assert params.d.lo == actual.lo


def test_budgeted_lower_bound_stays_below_exact():
    for budget in (0, 30, 1000):
        pair = _mu2_pairs(17)[0]
        params, sd = quantum.extended_duadic_quantum(pair, budget=budget)
        actual = dist.min_distance_exact(sd.gen)
        assert params.d.lo <= actual.lo, (budget, params.d, actual)


def test_json_schema():
    pair = _mu2_pairs(5)[0]
    params, _ = quantum.extended_duadic_quantum(pair)
    payload = params.to_json()
    assert set(payload) == {"n", "k", "d_lo", "d_hi", "pure", "trace"}
    assert payload["n"] == 6 and payload["k"] == 0
    assert payload["d_lo"] == 4 and payload["d_hi"] == 4
    assert payload["pure"] == "yes"
    assert isinstance(payload["trace"], list)


def test_even_lift_arithmetic():
    from duadiq.errors import InvariantError
    from duadiq.distance import even_lift

    lifted = even_lift(dist.DistanceBound(lo=19, hi=36, lo_src=dist.FIXED_SUBCODE,
                                          hi_src=dist.FIXED_SUBCODE))
    assert lifted.lo == 20 and lifted.lo_src == dist.PARITY and lifted.hi == 36
    same = even_lift(dist.DistanceBound(lo=20, hi=None, lo_src=dist.BUDGET,
                                        hi_src=dist.BUDGET))
    assert same.lo == 20 and same.lo_src == dist.BUDGET
    with pytest.raises(InvariantError):
        even_lift(dist.DistanceBound.exact_value(7))


def _oracle_rref(m):
    m = np.asarray(m, dtype=np.uint8)
    rows, rank, pivots = oracle.rref(m.tolist(), m.shape[1])
    return np.array(rows, dtype=np.uint8).reshape(m.shape), rank, pivots


def test_code_search_is_the_same_under_the_oracle_rref(monkeypatch):
    # the code search (every A of nonzero cosets missing -2A) with n <= 21,
    # at the search's budget, with linalg.rref and with the row-by-row
    # oracle under every linalg caller: the same parameters, trace and
    # generator bytes
    search = [a for n in range(3, 22, 2) for a in _cyclic_codes(n)
              if a.members and 0 not in a.members
              and all((-2 * t) % n not in a.members for t in a.members)]

    def run():
        monkeypatch.setattr(dist, "_CACHE", {})
        out = []
        for a in search:
            params, sd = quantum.cyclic_zero_dim(a, budget=65536)
            out.append((params, sd.gen.shape, sd.gen.tobytes()))
        return out

    want = run()
    monkeypatch.setattr(linalg, "rref", _oracle_rref)
    assert run() == want
    assert len(search) == 66
