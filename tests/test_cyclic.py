import numpy as np
import pytest

from duadiq import extfield, linalg, quantum
from duadiq.cyclic import (
    CosetPartition,
    CyclicCode,
    DefiningSet,
    all_cosets,
    apply_multiplier,
    cyclotomic_coset,
    dual_defining_set,
)
from duadiq.errors import InputError, NotApplicableError

import oracle
from properties import near_orthogonality


def test_coset_examples():
    assert cyclotomic_coset(15, 1, 4) == frozenset({1, 4})
    assert cyclotomic_coset(9, 0, 4) == frozenset({0})
    assert cyclotomic_coset(13, 1, 4) == frozenset({1, 4, 3, 12, 9, 10})
    with pytest.raises(ValueError):
        cyclotomic_coset(4, 1, 2)


def test_all_cosets_partitions():
    part = all_cosets(5, 4)
    assert [sorted(c) for c in part.cosets] == [[0], [1, 4], [2, 3]]
    part3 = all_cosets(3, 4)
    assert len(part3.cosets) == 3  # three singletons since 4 = 1 mod 3
    part21 = all_cosets(21, 4)
    assert len(part21.cosets) == 9
    assert frozenset({1, 4, 16}) in part21.cosets
    assert frozenset({3, 12, 6}) in part21.cosets
    for n in (5, 9, 15, 21, 33):
        part = all_cosets(n, 4)
        union = set()
        for c in part.cosets:
            assert not (union & c)
            union |= c
            for x in c:
                assert (4 * x) % n in c
        assert union == set(range(n))


def test_defining_set_validation():
    DefiningSet(5, frozenset({1, 4}))
    with pytest.raises(ValueError):
        DefiningSet(5, frozenset({1}))  # 4 missing
    ds = DefiningSet.from_leaders(7, [1])
    assert ds.members == frozenset({1, 2, 4})
    assert ds.leaders == (1,)


def test_code_construction():
    c = CyclicCode.from_leaders(5, [1])
    assert (c.n, c.dim) == (5, 3)
    # generator polynomial divides x^n - 1 and has degree |A|
    assert oracle.poly_deg(c.gen_poly) == 2
    _, rem = oracle.poly_divmod(oracle.x_pow_n_minus_1(5), c.gen_poly)
    assert len(rem) == 0
    assert linalg.rref(c.gen_matrix)[1] == c.dim
    # cyclic shift invariance of the row space
    assert oracle.is_subspace(np.roll(c.gen_matrix, 1, axis=1), c.gen_matrix)

    full = CyclicCode(DefiningSet(5, frozenset()))
    assert full.dim == 5 and np.array_equal(full.gen_poly, [1])
    zero = CyclicCode(DefiningSet(5, frozenset(range(5))))
    assert zero.dim == 0
    assert np.array_equal(zero.gen_poly, oracle.x_pow_n_minus_1(5))


def _research_and_search_sets():
    """Every defining set of the search for odd n <= 41 (A with A and -2A
    disjoint) and its Hermitian dual's, and the research sets."""
    for n in range(3, 42, 2):
        cosets = all_cosets(n, 4).cosets[1:]
        for mask in range(1, 1 << len(cosets)):
            a = DefiningSet(n, frozenset().union(*(c for i, c in enumerate(cosets) if mask >> i & 1)))
            if not a.members & a.scaled(-2).members:
                yield a
                yield dual_defining_set(a)
    yield DefiningSet.from_leaders(141, (2, 3, 10))
    yield DefiningSet.from_leaders(123, (1, 2, 6, 7, 9, 11))


def test_gen_poly_matches_the_oracle_product():
    # the plane product of the minimal polynomials is the coefficientwise
    # product, of degree |A|, and divides x^n - 1
    sets = list(_research_and_search_sets())
    assert len(sets) == 442
    for a in sets:
        ext = extfield.ext_build(a.n)
        expected = [1]
        for coset in all_cosets(a.n, 4).cosets:
            if coset <= a.members:
                expected = oracle.poly_mul(expected, extfield.minimal_poly(ext, coset).tolist())
        g = CyclicCode(a).gen_poly
        assert g.dtype == np.uint8 and g.tolist() == expected, (a.n, a.leaders)
        assert oracle.poly_deg(g) == len(a.members)
        _, rem = oracle.poly_divmod(oracle.x_pow_n_minus_1(a.n), g)
        assert rem == []


def test_two_closed_defining_sets_give_binary_generators():
    # a defining set closed under t -> 2t is a union of 2-cyclotomic cosets;
    # its roots are closed under squaring, so the generator polynomial is
    # fixed by the Frobenius of GF(4): binary.  Every other nonzero defining
    # set has a generator with a symbol outside GF(2)
    binary = 0
    for n in range(3, 42, 2):
        cosets = all_cosets(n).cosets
        for mask in range(1 << len(cosets)):
            members = frozenset().union(*(c for i, c in enumerate(cosets) if mask >> i & 1))
            two_closed = all(2 * t % n in members for t in members)
            g = CyclicCode(DefiningSet(n, members)).gen_poly
            assert bool((g <= 1).all()) == two_closed, (n, sorted(members))
            binary += two_closed
    # the 404 proper ones, the empty set and each full Z_n
    assert binary == 404 + 2 * 20


def test_code_equality_by_defining_set():
    a = CyclicCode.from_leaders(5, [1])
    b = CyclicCode(DefiningSet(5, frozenset({1, 4})))
    assert a == b and hash(a) == hash(b)
    assert a != CyclicCode.from_leaders(5, [2])


def test_dual_defining_set_examples():
    assert dual_defining_set(DefiningSet(5, frozenset({1, 4}))).members == frozenset({0, 1, 4})
    assert dual_defining_set(DefiningSet(5, frozenset())).members == frozenset(range(5))
    assert dual_defining_set(DefiningSet.from_leaders(7, [1])).members == frozenset({0, 1, 2, 4})


def test_is_dual_containing():
    # dual containing exactly when A and -2A are disjoint
    assert not {1, 4} & DefiningSet(5, frozenset({1, 4})).scaled(-2).members
    assert DefiningSet(5, frozenset({0})).scaled(-2).members == {0}
    # a length-141 set with three cosets that misses its -2 image
    a141 = DefiningSet.from_leaders(141, [2, 3, 10])
    assert len(a141.members) == 69
    neg2 = frozenset((-2 * t) % 141 for t in a141.members)
    assert not a141.members & neg2
    expected = DefiningSet.from_leaders(141, [1, 5, 15]).members
    assert neg2 == expected


def test_n123_example():
    a = DefiningSet.from_leaders(123, [1, 2, 6, 7, 9, 11])
    assert len(a.members) == 60
    neg2 = frozenset((-2 * t) % 123 for t in a.members)
    assert not a.members & neg2
    assert neg2 == DefiningSet.from_leaders(123, [43, 23, 3, 19, 18, 14]).members


def test_apply_multiplier():
    v = np.array([10, 11, 12], dtype=np.uint8) & 3
    # y_i = x_{2i mod 3} via a = 2: a_inv = 2, y = (x_0, x_2, x_1)
    out = apply_multiplier(2, v)
    assert np.array_equal(out, v[[0, 2, 1]])
    assert np.array_equal(apply_multiplier(1, v), v)
    with pytest.raises(ValueError):
        apply_multiplier(3, v)


def test_apply_multiplier_group_action():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.choice([5, 7, 9, 11, 13]))
        v = rng.integers(0, 4, n).astype(np.uint8)
        units = [a for a in range(1, n) if np.gcd(a, n) == 1]
        a, b = int(rng.choice(units)), int(rng.choice(units))
        lhs = apply_multiplier(a, apply_multiplier(b, v))
        rhs = apply_multiplier((a * b) % n, v)
        assert np.array_equal(lhs, rhs)


def test_multiplier_moves_code_correctly():
    # mu_a(C) has defining set a^{-1} A: check by root recovery
    c = CyclicCode.from_leaders(7, [1])
    a = 3
    moved_rows = np.array([apply_multiplier(a, row) for row in c.gen_matrix])
    assert oracle.defining_set_of_matrix(moved_rows, 7) == c.defining_set.scaled(pow(a, -1, 7)).members
    assert oracle.defining_set_of_matrix(moved_rows, 7) == {3, 5, 6}


def test_near_orthogonality():
    hexa = np.array(
        [[1, 0, 0, 1, 2, 2], [0, 1, 0, 2, 1, 2], [0, 0, 1, 2, 2, 1]], dtype=np.uint8
    )
    assert near_orthogonality(hexa) == 0
    odd5 = CyclicCode.from_leaders(5, [1])
    assert near_orthogonality(odd5) == 1
    assert near_orthogonality(odd5.gen_matrix) == 1


def test_near_orthogonality_routes_agree():
    for n in (5, 7, 9, 13, 15):
        part = all_cosets(n, 4)
        import itertools

        for take in range(1, 2 ** len(part.cosets)):
            members = frozenset().union(
                *(c for i, c in enumerate(part.cosets) if (take >> i) & 1)
            )
            code = CyclicCode(DefiningSet(n, members))
            if code.dim == 0:
                continue
            assert near_orthogonality(code) == near_orthogonality(code.gen_matrix), (n, members)


def test_dual_set_matches_matrix_dual_small():
    # spot checks here; the exhaustive n <= 35 sweep is an acceptance criterion
    for n, leaders in [(5, [1]), (7, [1]), (9, [1]), (13, [1]), (15, [1, 3])]:
        ds = DefiningSet.from_leaders(n, leaders)
        code = CyclicCode(ds)
        dual_rows = linalg.hermitian_dual_space(code.gen_matrix)
        assert oracle.defining_set_of_matrix(dual_rows, n) == dual_defining_set(ds).members


def test_dim_plus_dual_dim():
    for n in (5, 7, 9, 13):
        for leaders in ([0], [1], [0, 1]):
            code = CyclicCode.from_leaders(n, leaders)
            dual = CyclicCode(dual_defining_set(code.defining_set))
            assert code.dim + dual.dim == n


def test_n123_e3_example():
    # length-123 input missing self-orthogonality by 3;
    # extending its (self-orthogonal) dual uses 3 new coordinates
    a = DefiningSet.from_leaders(123, [1, 2, 6, 7, 9, 11])
    code = CyclicCode(a)
    assert near_orthogonality(code) == 3
    dual = CyclicCode(dual_defining_set(a))
    assert near_orthogonality(dual) == 0  # self-orthogonal
    assert code.n - 2 * dual.dim == 3


def test_n141_e3_example():
    a = DefiningSet.from_leaders(141, [2, 3, 10])
    code = CyclicCode(a)
    assert near_orthogonality(code) == 3
    dual = CyclicCode(dual_defining_set(a))
    assert near_orthogonality(dual) == 0
    assert code.n - 2 * dual.dim == 3


def test_is_dual_containing_matches_matrix_test():
    # cyclic_zero_dim refuses (exit 3) exactly the defining sets whose
    # code's Hermitian dual is not inside the code; the empty set, whose
    # dual is the zero code, is refused as input
    for n in (5, 7, 9, 13, 15, 21):
        part = all_cosets(n, 4)
        for mask in range(2 ** len(part.cosets)):
            members = frozenset().union(
                *(c for i, c in enumerate(part.cosets) if (mask >> i) & 1)
            ) if mask else frozenset()
            ds = DefiningSet(n, members)
            code = CyclicCode(ds)
            dual_rows = linalg.hermitian_dual_space(code.gen_matrix)
            matrix_says = dual_rows.shape[0] == 0 or (
                code.dim > 0 and oracle.is_subspace(dual_rows, code.gen_matrix)
            )
            if not members:
                with pytest.raises(InputError, match="refusing the zero code"):
                    quantum.cyclic_zero_dim(ds, budget=0)
                continue
            try:
                quantum.cyclic_zero_dim(ds, budget=0)
                refused = False
            except NotApplicableError:
                refused = True
            assert refused != matrix_says, (n, sorted(members))
