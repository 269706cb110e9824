"""Each output check rejects a corrupted output and accepts the true one.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402

# the hexacode: a Hermitian self-dual [6, 3, 4] code over GF(4)
HEXACODE = [
    [1, 0, 0, 1, 2, 2],
    [0, 1, 0, 2, 1, 2],
    [0, 0, 1, 2, 2, 1],
]
# its weight enumerator: 1 + 45 y^4 + 18 y^6
HEXACODE_A = [1, 0, 0, 0, 45, 0, 18]

TABLE_ROWS = [
    {"n": "5", "params": "[[6,0,4]]"},
    {"n": "7", "params": "[[8,0,4]]"},
    {"n": "13", "params": "[[14,0,6]]"},
    {"n": "17", "params": "[[18,0,8]]"},
    {"n": "23", "params": "[[24,0,8]]"},
]


def test_true_outputs_pass():
    checks.check_self_dual(HEXACODE, 6, "hexacode")
    checks.check_macwilliams(HEXACODE_A, "hexacode")
    assert checks.min_weight(HEXACODE) == 4
    checks.check_zero_dim_interval(6, 0, 4, 4, "hexacode")
    checks.check_table(TABLE_ROWS, 23, "table")
    checks.check_zero_dim_interval(144, 0, 4, None, "unknown hi")


def test_odd_d_rejected():
    with pytest.raises(CheckError, match="odd"):
        checks.check_zero_dim_interval(14, 0, 5, 5, "odd d")


def test_wrong_table_row_rejected():
    rows = [dict(r) for r in TABLE_ROWS]
    rows[2]["params"] = "[[14,0,4]]"
    with pytest.raises(CheckError, match="literature"):
        checks.check_table(rows, 23, "table")
    with pytest.raises(CheckError, match="lengths"):
        checks.check_table(TABLE_ROWS[:-1], 23, "table")


def test_lo_above_hi_rejected():
    with pytest.raises(CheckError, match="lo 8 > hi 6"):
        checks.check_zero_dim_interval(24, 0, 8, 6, "lo > hi")


def test_above_extremal_bound_rejected():
    with pytest.raises(CheckError, match="extremal"):
        checks.check_zero_dim_interval(24, 0, 12, 12, "too good")


def test_gram_failure_rejected():
    broken = [row[:] for row in HEXACODE]
    broken[0][5] = 1
    with pytest.raises(CheckError, match="Gram"):
        checks.check_self_dual(broken, 6, "broken")
    dependent = [HEXACODE[0], HEXACODE[1], [a ^ b for a, b in zip(HEXACODE[0], HEXACODE[1])]]
    with pytest.raises(CheckError, match="dependent"):
        checks.check_self_dual(dependent, 6, "dependent")


def test_broken_macwilliams_rejected():
    moved = HEXACODE_A[:]
    moved[4] -= 1
    moved[6] += 1  # same total 2^6, wrong distribution
    with pytest.raises(CheckError, match="MacWilliams"):
        checks.check_macwilliams(moved, "moved")
    with pytest.raises(CheckError, match="sum"):
        checks.check_macwilliams(HEXACODE_A[:-1] + [17], "short")


def test_extended_duadic_enumerator():
    # the n = 5 QR code: even-like [5, 2] and its odd-like cosets give the hexacode
    even = [1, 0, 0, 0, 15, 0]
    coset = [0, 0, 0, 30, 0, 18]
    assert checks.extended_duadic_enumerator(even, coset) == HEXACODE_A


def test_sweep_check_rejects_interval_missing_true_distance():
    item = {"kind": "cyclic", "n": 5, "members": [1, 4], "budget": 65536}
    capture = {"fn": "cyclic_zero_dim", "n": 6, "k": 0, "lo": 4, "hi": 4, "work": 1,
               "gen": ["".join(map(str, r)) for r in HEXACODE], "hists": None}
    ok = {"rc": 0, "error": None, "stdout": "", "captures": [capture]}
    workloads.check_sweep([item], [ok])
    lying = dict(ok, captures=[dict(capture, lo=2, hi=2)])
    with pytest.raises(CheckError, match="own enumeration"):
        workloads.check_sweep([item], [lying])


def test_sweep_candidates_match_the_definition():
    for n, a in workloads.sweep_candidates(21):
        assert a and all(4 * t % n in a for t in a)
        assert not {(-2 * t) % n for t in a} & a
    assert len(workloads.sweep_candidates(35)) == 184


def test_scaling_removes_handler_time_and_follows_the_loop():
    import calib

    s = calib.Sampler()
    ref = calib.REF_S
    # a 1 s item at the reference speed, with 10 ms of handler time inside it
    s.samples = [(0.0, 0.0, ref), (0.5, 0.51, ref), (1.0, 1.0, ref)]
    assert s.scaled(0.0, 1.0) == pytest.approx(0.99)
    # the machine at half speed all through the item: half the time on the reference
    s.samples = [(0.0, 0.0, 2 * ref), (0.5, 0.51, 2 * ref), (1.0, 1.0, 2 * ref)]
    assert s.scaled(0.0, 1.0) == pytest.approx(0.495)
