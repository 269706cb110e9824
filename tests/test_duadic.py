import numpy as np
import pytest

from duadiq import linalg
from duadiq.cyclic import CyclicCode, DefiningSet
from duadiq.duadic import duadic_from_splitting, find_splittings, qr_splitting

import oracle
from properties import is_self_orthogonal_even_duadic, splitting_predictions, verify_duadic_properties


def test_n5_unique_splitting():
    splits = find_splittings(5)
    assert len(splits) == 1
    s = splits[0]
    assert s.s1.members == frozenset({1, 4}) and s.s2.members == frozenset({2, 3})
    assert s.has_multiplier(-2)
    # -1 = 4 is a square mod 5, so mu_-1 fixes each half
    assert not s.has_multiplier(-1)


def test_no_mu2_splitting_mod3():
    assert find_splittings(3, b=-2) == []
    assert find_splittings(11, b=-2) == []  # 11 = 3 mod 8


def test_n7_qr():
    s = qr_splitting(7)
    assert s.s1.members == frozenset({1, 2, 4})
    assert s.s2.members == frozenset({3, 5, 6})
    assert s.has_multiplier(-1) and s.has_multiplier(-2)
    with pytest.raises(ValueError):
        qr_splitting(9)


def test_qr_splitting_values():
    assert qr_splitting(5).s1.members == frozenset({1, 4})
    assert qr_splitting(13).s1.members == frozenset({1, 3, 4, 9, 10, 12})


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61])
def test_qr_set_multiplication_properties(p):
    s = qr_splitting(p)
    q_set, n_set = s.s1.members, s.s2.members
    assert len(q_set) == len(n_set) == (p - 1) // 2
    for a in q_set:
        assert frozenset(a * x % p for x in q_set) == q_set
        assert frozenset(a * x % p for x in n_set) == n_set
    for b in n_set:
        assert frozenset(b * x % p for x in q_set) == n_set
        assert frozenset(b * x % p for x in n_set) == q_set


def test_splitting_structure_invariants():
    for n in (5, 7, 9, 13, 15, 17, 21, 23, 31):
        for s in find_splittings(n):
            assert 0 not in s.s1.members | s.s2.members
            assert s.s1.members | s.s2.members | {0} == frozenset(range(n))
            assert not (s.s1.members & s.s2.members)
            assert len(s.s1.members) == len(s.s2.members) == (n - 1) // 2
            assert s.multipliers
            for b in s.multipliers:
                assert frozenset(b * t % n for t in s.s1.members) == s.s2.members


def test_splittings_dedupe_and_order():
    splits = find_splittings(17)
    keys = [s.key for s in splits]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    for s in splits:
        assert 1 in s.s1.members  # canonical orientation


def test_duadic_pair_dimensions():
    for n in (5, 7, 13, 17):
        for s in find_splittings(n):
            pair = duadic_from_splitting(s)
            assert pair.even1.dim == pair.even2.dim == (n - 1) // 2
            assert pair.odd1.dim == pair.odd2.dim == (n + 1) // 2
            # C_e lies in C_o: the defining set of C_e holds that of C_o
            assert pair.odd1.defining_set.members <= pair.even1.defining_set.members
            assert pair.odd2.defining_set.members <= pair.even2.defining_set.members


def test_mirror_swaps_the_pair():
    # the mirror of a splitting (oracle.mirror) puts side 2 first: its pair
    # is the original's with the halves exchanged, and it keeps mu_-2
    checked = 0
    for n in range(5, 42, 2):
        for s in find_splittings(n):
            if not s.has_multiplier(-2):
                continue
            pair, mirrored = duadic_from_splitting(s), duadic_from_splitting(oracle.mirror(s))
            assert (mirrored.even1, mirrored.even2, mirrored.odd1, mirrored.odd2) == \
                (pair.even2, pair.even1, pair.odd2, pair.odd1), (n, s.key)
            assert mirrored.splitting.has_multiplier(-2)
            checked += 1
    assert checked == 24


def test_duadic_properties_small():
    # all checks of the structure theorem pass on every enumerated splitting
    for n in range(5, 42, 2):
        for s in find_splittings(n):
            report = verify_duadic_properties(duadic_from_splitting(s))
            assert report.all_passed, (n, report.failures())


def test_self_orthogonal_even_duadic():
    # n=23: QR even-like code is self-orthogonal (23 = -1 mod 8)
    s23 = qr_splitting(23)
    even = CyclicCode(DefiningSet(23, s23.s1.members | {0}))
    assert is_self_orthogonal_even_duadic(even)
    assert linalg.is_hermitian_self_orthogonal(even.gen_matrix)

    s13 = qr_splitting(13)
    even13 = CyclicCode(DefiningSet(13, s13.s1.members | {0}))
    assert is_self_orthogonal_even_duadic(even13)

    # 17 = 1 mod 8: the QR splitting is not given by mu_-2
    s17 = qr_splitting(17)
    even17 = CyclicCode(DefiningSet(17, s17.s1.members | {0}))
    assert not is_self_orthogonal_even_duadic(even17)
    assert not linalg.is_hermitian_self_orthogonal(even17.gen_matrix)

    with pytest.raises(ValueError):
        is_self_orthogonal_even_duadic(CyclicCode.from_leaders(5, [1]))  # wrong dim


def test_self_orthogonal_matches_gram_everywhere():
    for n in (5, 7, 9, 13, 15, 17, 21):
        for s in find_splittings(n):
            pair = duadic_from_splitting(s)
            for even in (pair.even1, pair.even2):
                assert is_self_orthogonal_even_duadic(even) == \
                    linalg.is_hermitian_self_orthogonal(even.gen_matrix), (n, even)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61])
def test_splitting_predictions_never_contradict(p):
    pred = splitting_predictions(p)
    assert pred.all_passed, (p, pred)


def test_splitting_json():
    s = find_splittings(5)[0]
    payload = s.to_json()
    assert payload == {
        "n": 5,
        "s1_leaders": [1],
        "s2_leaders": [2],
        "multipliers": sorted(int(b) for b in s.multipliers),
    }
