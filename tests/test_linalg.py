import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

from duadiq import gf4, linalg

import oracle

# a [6,3,4] Hermitian self-dual code (checked below by the Gram test)
HEXACODE = np.array(
    [
        [1, 0, 0, 1, 2, 2],
        [0, 1, 0, 2, 1, 2],
        [0, 0, 1, 2, 2, 1],
    ],
    dtype=np.uint8,
)


def random_matrix(rng, rows=None, cols=None):
    rows = rows or int(rng.integers(1, 6))
    cols = cols or int(rng.integers(rows, 10))
    return rng.integers(0, 4, (rows, cols)).astype(np.uint8)


def test_rref_identity_and_zero():
    eye = np.eye(3, dtype=np.uint8)
    r, rank, piv = linalg.rref(eye)
    assert np.array_equal(r, eye) and rank == 3 and piv == [0, 1, 2]
    z = np.zeros((2, 4), dtype=np.uint8)
    r, rank, piv = linalg.rref(z)
    assert not r.any() and rank == 0 and piv == []


def test_rref_scalar_multiple_rows():
    m = np.array([[1, 2], [2, 3]], dtype=np.uint8)  # second row = w * first
    _, rank, _ = linalg.rref(m)
    assert rank == 1


def test_rref_idempotent():
    rng = np.random.default_rng(5)
    for _ in range(50):
        m = random_matrix(rng)
        r1, k1, p1 = linalg.rref(m)
        r2, k2, p2 = linalg.rref(r1)
        assert np.array_equal(r1, r2) and k1 == k2 and p1 == p2


def test_rref_preserves_row_space():
    rng = np.random.default_rng(6)
    for _ in range(30):
        m = random_matrix(rng)
        r, rank, _ = linalg.rref(m)
        # every original row must be a combination of the rref rows
        assert oracle.is_subspace(m, r[:rank])


def test_dual_space_small():
    g = np.array([[1, 1]], dtype=np.uint8)
    d = linalg.hermitian_dual_space(g)
    assert d.shape == (1, 2)
    assert oracle.inner(d[0], g[0]) == 0
    # full space -> zero dual
    eye = np.eye(4, dtype=np.uint8)
    assert linalg.hermitian_dual_space(eye).shape[0] == 0


def test_dual_dimension_and_double_dual():
    rng = np.random.default_rng(8)
    for _ in range(40):
        m = linalg.row_basis(random_matrix(rng))
        n = m.shape[1]
        d = linalg.hermitian_dual_space(m)
        assert m.shape[0] + d.shape[0] == n
        dd = linalg.hermitian_dual_space(d) if d.shape[0] else np.eye(n, dtype=np.uint8)
        assert np.array_equal(linalg.row_basis(dd), m) or (d.shape[0] == 0 and m.shape[0] == n)
        for row in d:
            for g in m:
                assert oracle.inner(row, g) == 0


def test_nullspace_of_an_rref_matches_the_reduced_path(monkeypatch):
    # random RREFs and their conjugates (RREFs too) skip the reduction and
    # give the basis the reduced path gives
    rng = np.random.default_rng(9)
    cases = []
    for _ in range(200):
        r = linalg.row_basis(random_matrix(rng))
        for m in (r, gf4.CONJ_TABLE[r]):
            assert linalg.rref_pivots(m) is not None
            cases.append((m, linalg.nullspace(m)))
    monkeypatch.setattr(linalg, "rref_pivots", lambda m: None)
    for m, basis in cases:
        assert np.array_equal(basis, linalg.nullspace(m)), m.tolist()
        assert basis.shape[0] == m.shape[1] - m.shape[0]
        assert not linalg.matmul(m, basis.T).any()


def test_hexacode_self_dual():
    assert linalg.is_hermitian_self_orthogonal(HEXACODE)
    d = linalg.hermitian_dual_space(HEXACODE)
    assert np.array_equal(linalg.row_basis(d), linalg.row_basis(HEXACODE))
    assert oracle.min_distance([list(r) for r in HEXACODE]) == 4


def _meet_join(a, b):
    """The intersection and the sum of two row spaces."""
    return linalg.subspace_intersection(a, b), linalg.row_basis(np.vstack([a, b]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_meet_join_modular_law(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    a = linalg.row_basis(rng.integers(0, 4, (int(rng.integers(1, 5)), n)).astype(np.uint8))
    b = linalg.row_basis(rng.integers(0, 4, (int(rng.integers(1, 5)), n)).astype(np.uint8))
    meet, join = _meet_join(a, b)
    assert meet.shape[0] + join.shape[0] == a.shape[0] + b.shape[0]
    assert oracle.is_subspace(meet, a) and oracle.is_subspace(meet, b)
    assert oracle.is_subspace(a, join) and oracle.is_subspace(b, join)


def test_meet_join_trivial_cases():
    a = np.array([[1, 0], [0, 1]], dtype=np.uint8)
    meet, join = _meet_join(a, a)
    assert np.array_equal(meet, a) and np.array_equal(join, a)
    l1 = np.array([[1, 0]], dtype=np.uint8)
    l2 = np.array([[0, 1]], dtype=np.uint8)
    meet, join = _meet_join(l1, l2)
    assert meet.shape[0] == 0 and join.shape[0] == 2


def test_complement_basis():
    rng = np.random.default_rng(9)
    for _ in range(30):
        sup = linalg.row_basis(random_matrix(rng, rows=4, cols=8))
        if sup.shape[0] < 2:
            continue
        sub = sup[:1]
        comp = linalg.complement_basis(sub, sup)
        assert comp.shape[0] == sup.shape[0] - 1
        assert np.array_equal(linalg.row_basis(np.vstack([sub, comp])), sup)


def _complement_by_rank(sub, sup):
    """The greedy definition: take each row of sup that raises the rank."""
    cur = linalg.row_basis(np.atleast_2d(sub))
    out = []
    for row in sup:
        trial = np.vstack([cur, row[None, :]])
        if linalg.rank(trial) > linalg.rank(cur):
            out.append(row)
            cur = trial
    return np.array(out, dtype=np.uint8).reshape(len(out), sup.shape[1])


@pytest.mark.parametrize("case", ["random", "empty-sub", "rank-deficient", "equal"])
def test_complement_basis_matches_rank_greedy(case):
    rng = np.random.default_rng(["random", "empty-sub", "rank-deficient", "equal"].index(case))
    for _ in range(25):
        n = int(rng.integers(1, 20))
        sub = random_matrix(rng, rows=int(rng.integers(1, n + 1)), cols=n)
        sup = np.vstack([sub, random_matrix(rng, rows=int(rng.integers(1, n + 3)), cols=n)])
        if case == "empty-sub":
            sub = np.zeros((0, n), dtype=np.uint8)
        elif case == "rank-deficient":
            # repeated rows, a zero row and a combination of two others
            sup = np.vstack([sup, sup[:1], np.zeros((1, n), dtype=np.uint8),
                             sup[0] ^ oracle.scalar_mul(2, sup[-1])])
        elif case == "equal":
            sup = sub
        sup = sup[rng.permutation(sup.shape[0])]
        got = linalg.complement_basis(sub, sup)
        assert np.array_equal(got, _complement_by_rank(sub, sup))
        assert linalg.rank(np.vstack([sub, got])) == linalg.rank(np.vstack([sub, sup]))


def test_gram_matrix_hexacode():
    gram = linalg.gram_matrix(HEXACODE)
    assert not gram.any()


def _gf4_rows(n):
    return st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), max_size=5)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 9).flatmap(lambda n: st.tuples(st.just(n), _gf4_rows(n), _gf4_rows(n))))
@example((301, [[3] * 301, [1, 2, 3, 0] * 75 + [2]], [[1] * 301, [2] * 301, [3, 3, 0] * 100 + [1]]))
def test_gram_matrix_matches_oracle(case):
    # 0-row and 0-column shapes included; 301 columns pass any 8-bit count
    n, a_rows, b_rows = case
    a = np.array(a_rows, dtype=np.uint8).reshape(len(a_rows), n)
    b = np.array(b_rows, dtype=np.uint8).reshape(len(b_rows), n)
    gram = linalg.gram_matrix(a, b)
    assert gram.dtype == np.uint8 and gram.shape == (len(a_rows), len(b_rows))
    assert gram.tolist() == [[oracle.inner(u, v) for v in b_rows] for u in a_rows]
    assert np.array_equal(linalg.gram_matrix(a), linalg.gram_matrix(a, a))


def test_meet_join_duadic_even_pair():
    # even-like duadic pair at n=5: trivial intersection, sum generated by
    # the single-root polynomial vanishing at 1
    from duadiq.cyclic import CyclicCode, DefiningSet
    from duadiq.duadic import find_splittings

    s = find_splittings(5)[0]
    c1 = CyclicCode(DefiningSet(5, s.s1.members | {0})).gen_matrix
    c2 = CyclicCode(DefiningSet(5, s.s2.members | {0})).gen_matrix
    meet, join = _meet_join(c1, c2)
    assert meet.shape[0] == 0
    assert join.shape[0] == 4
    x_minus_1 = CyclicCode(DefiningSet(5, frozenset({0}))).gen_matrix
    assert np.array_equal(join, linalg.row_basis(x_minus_1))


_RNG = np.random.default_rng(11)


def _read_only(m):
    m = m.copy()
    m.setflags(write=False)
    return m


_WIDE = _RNG.integers(0, 4, (12, 140)).astype(np.uint8)


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(0, 80), st.integers(0, 160))
       .flatmap(lambda shape: hnp.arrays(np.uint8, shape, elements=st.integers(0, 3))))
@example(_RNG.integers(0, 4, (80, 160)).astype(np.uint8))
@example(np.tile(_RNG.integers(0, 4, (10, 160)).astype(np.uint8), (8, 1)))  # rank <= 10
@example(_RNG.integers(0, 4, (80, 40)).astype(np.uint8))
# widths on both sides of the byte and 64-bit boundaries of the packed planes
@example(_RNG.integers(0, 4, (9, 7)).astype(np.uint8))
@example(_RNG.integers(0, 4, (9, 8)).astype(np.uint8))
@example(_RNG.integers(0, 4, (9, 9)).astype(np.uint8))
@example(_RNG.integers(0, 4, (20, 63)).astype(np.uint8))
@example(_RNG.integers(0, 4, (20, 64)).astype(np.uint8))
@example(_RNG.integers(0, 4, (20, 65)).astype(np.uint8))
@example(_RNG.integers(0, 4, (30, 129)).astype(np.uint8))
@example(_read_only(_RNG.integers(0, 4, (6, 13)).astype(np.uint8)))
# a column-permuted copy, and strided and transposed views as
# complement_basis passes
@example(_WIDE[:, _RNG.permutation(140)])
@example(_WIDE[:, ::-3])
@example(_WIDE.T)
@example(np.zeros((0, 5), dtype=np.uint8))
@example(np.zeros((4, 0), dtype=np.uint8))
def test_rref_matches_row_by_row_oracle(m):
    # the packed reduction against one row operation at a time
    before = m.copy()
    r, rank, pivots = linalg.rref(m)
    rows, rank_o, pivots_o = oracle.rref(m.tolist(), m.shape[1])
    assert (r.tolist(), rank, pivots) == (rows, rank_o, pivots_o)
    assert r.shape == m.shape and r.dtype == np.uint8 and r.flags.writeable
    assert np.array_equal(m, before)


@pytest.mark.parametrize("bad", [[[1, 4]], [[0, 0], [2, 7]], [[255]]])
def test_rref_rejects_symbols_above_3(bad):
    with pytest.raises(ValueError, match="symbols"):
        linalg.rref(np.array(bad, dtype=np.uint8))
