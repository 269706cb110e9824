"""Output checks made apart from duadiq: own GF(4) arithmetic, own enumeration.

Nothing here imports the package under test.  Every check raises
CheckError with a message naming the output it rejects.

Symbols follow the package's output encoding: 0, 1, w, w^2 are 0, 1, 2, 3,
bit 0 being the coefficient of 1 and bit 1 that of w.  A vector is held as
two bit planes (lo, hi) of Python integers or numpy uint64 arrays, so that
a symbol is lo + w*hi and addition is XOR on both planes.
"""

from __future__ import annotations

import math

import numpy as np


class CheckError(AssertionError):
    """An output of the program failed a check."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckError(what)


# ---------------------------------------------------------------------------
# GF(4) on bit planes: (a + b w)(c + d w) = (ac + bd) + (ad + bc + bd) w,
# since w^2 = 1 + w; conj(a + b w) = (a + b) + b w.
# ---------------------------------------------------------------------------

def planes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, N) symbol matrix -> (k, N) 0/1 int64 planes (lo, hi)."""
    m = np.asarray(rows, dtype=np.int64)
    if m.size and (m.min() < 0 or m.max() > 3):
        raise CheckError("generator holds a symbol outside 0..3")
    return m & 1, m >> 1


def gram_is_zero(gen: np.ndarray) -> bool:
    """Hermitian Gram test: <g_i, g_j> = sum_t g_it conj(g_jt) is 0 for all i, j."""
    a_lo, a_hi = planes(gen)
    c_lo, c_hi = a_lo ^ a_hi, a_hi  # conjugate of every row
    g_lo = (a_lo @ c_lo.T + a_hi @ c_hi.T) & 1
    g_hi = (a_lo @ c_hi.T + a_hi @ c_lo.T + a_hi @ c_hi.T) & 1
    return not (g_lo.any() or g_hi.any())


_MUL = np.array([[0, 0, 0, 0], [0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]], dtype=np.uint8)
_INV = np.array([0, 1, 3, 2], dtype=np.uint8)


def rank_gf4(gen: np.ndarray) -> int:
    """Rank by Gaussian elimination with the multiplication table above."""
    r = np.array(gen, dtype=np.uint8)
    rank = 0
    for col in range(r.shape[1] if r.ndim == 2 else 0):
        nz = np.nonzero(r[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        r[[rank, piv]] = r[[piv, rank]]
        r[rank] = _MUL[_INV[r[rank, col]]][r[rank]]
        factors = r[:, col].copy()
        factors[rank] = 0
        r ^= _MUL[factors[:, None], r[rank][None, :]]
        rank += 1
        if rank == r.shape[0]:
            break
    return rank


def check_self_dual(gen: np.ndarray, n_total: int, label: str) -> None:
    """A [[N, 0]] output's generator spans a Hermitian self-dual [N, N/2] code."""
    gen = np.asarray(gen)
    require(gen.shape == (n_total // 2, n_total),
            f"{label}: generator shape {gen.shape}, expected ({n_total // 2}, {n_total})")
    require(gram_is_zero(gen), f"{label}: generator fails the Hermitian Gram test")
    require(rank_gf4(gen) == n_total // 2, f"{label}: generator rows are dependent")


_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)


def _popcount(x: np.ndarray) -> np.ndarray:
    return _POP8[x.astype(np.uint64).view(np.uint8).reshape(x.shape[0], -1)].sum(axis=1)


def _pack(bits: np.ndarray) -> np.uint64:
    return np.uint64(sum(1 << int(i) for i in np.nonzero(bits)[0]))


BRUTE_MAX_DIM = 9  # 4^9 = 262144 words


def min_weight(gen: np.ndarray) -> int:
    """Minimum nonzero weight of the GF(4) span of gen's rows, by listing all
    4^k words.  Needs N <= 64 and k <= BRUTE_MAX_DIM."""
    gen = np.asarray(gen)
    k, n = gen.shape
    if n > 64 or k > BRUTE_MAX_DIM:
        raise ValueError(f"span of a {k}x{n} generator is too large to list")
    lo_bits, hi_bits = planes(gen)
    lo = np.zeros(1, dtype=np.uint64)
    hi = np.zeros(1, dtype=np.uint64)
    for gl, gh in zip(map(_pack, lo_bits), map(_pack, hi_bits)):
        # the row times 1, w and w^2: w(a + b w) = b + (a + b) w
        scaled = ((gl, gh), (gh, gl ^ gh), (gl ^ gh, gl))
        lo = np.concatenate([lo] + [lo ^ s_lo for s_lo, _ in scaled])
        hi = np.concatenate([hi] + [hi ^ s_hi for _, s_hi in scaled])
    wts = _popcount(lo | hi)[1:]
    require(wts.size and wts.min() > 0, "generator rows are dependent")
    return int(wts.min())


# ---------------------------------------------------------------------------
# weight enumerators
# ---------------------------------------------------------------------------

def extended_duadic_enumerator(even_hist, coset_hist) -> list[int]:
    """A_w of the extended code: even-like words padded by 0 and odd-like
    coset words padded by a unit, so A_w = even_hist[w] + coset_hist[w-1]."""
    n = len(even_hist) - 1
    return [(int(even_hist[w]) if w <= n else 0) + (int(coset_hist[w - 1]) if w >= 1 else 0)
            for w in range(n + 2)]


def check_macwilliams(a: list[int], label: str) -> None:
    """A Hermitian self-dual [N, N/2] code over GF(4) has 2^N words and
    W(x, y) = 2^-N W(x + 3y, x - y), checked in exact integer arithmetic."""
    n = len(a) - 1
    require(all(x >= 0 for x in a), f"{label}: negative weight count")
    require(sum(a) == 2**n, f"{label}: weight counts sum to {sum(a)}, expected 2^{n}")
    require(a[0] == 1, f"{label}: A_0 = {a[0]}, expected 1")
    for j in range(n + 1):
        # coefficient of x^(n-j) y^j in sum_w A_w (x + 3y)^(n-w) (x - y)^w
        total = 0
        for w, aw in enumerate(a):
            if aw == 0:
                continue
            kj = sum(math.comb(n - w, j - i) * 3 ** (j - i) * math.comb(w, i) * (-1) ** i
                     for i in range(max(0, j - (n - w)), min(j, w) + 1))
            total += aw * kj
        require(total == 2**n * a[j], f"{label}: MacWilliams identity fails at weight {j}")


def enumerator_min_weight(a: list[int]) -> int:
    return next(w for w in range(1, len(a)) if a[w])


# ---------------------------------------------------------------------------
# interval properties
# ---------------------------------------------------------------------------

def extremal_bound(n_total: int) -> int:
    """d <= 2 floor(N/6) + 2 for Hermitian self-dual GF(4) codes
    (MacWilliams, Odlyzko, Sloane, Ward 1978)."""
    return 2 * (n_total // 6) + 2


def check_zero_dim_interval(n_total: int, k: int, lo: int, hi, label: str) -> None:
    """[[N, 0, lo-hi]]: lo even (the code is even), lo <= hi and lo <= the
    extremal bound; an unknown hi stands for N."""
    hi_v = n_total if hi is None else hi
    require(k == 0, f"{label}: k = {k}, expected 0")
    require(lo >= 1, f"{label}: lower bound {lo} < 1")
    require(lo <= hi_v, f"{label}: lo {lo} > hi {hi_v}")
    require(lo % 2 == 0, f"{label}: lower bound {lo} is odd; self-dual codes are even")
    require(lo <= extremal_bound(n_total),
            f"{label}: lower bound {lo} above the extremal bound {extremal_bound(n_total)}")


# Hermitian self-dual [[N, 0, d]] values of the paper's small-length table,
# matching the extremal codes in the literature.
LITERATURE_D = {6: 4, 8: 4, 14: 6, 18: 8, 24: 8, 30: 12}
TABLE_NS = (5, 7, 13, 17, 23)


def parse_params(text: str) -> tuple[int, int, int, int | None]:
    """'[[N,k,d]]', '[[N,k,lo-hi]]' or '[[N,k,>=lo]]' -> (N, k, lo, hi)."""
    require(text.startswith("[[") and text.endswith("]]"), f"bad params string {text!r}")
    n_s, k_s, d_s = text[2:-2].split(",")
    if d_s.startswith(">="):
        lo, hi = int(d_s[2:]), None
    elif "-" in d_s:
        lo_s, hi_s = d_s.split("-")
        lo, hi = int(lo_s), int(hi_s)
    else:
        lo = hi = int(d_s)
    return int(n_s), int(k_s), lo, hi


def check_literature(n_total: int, lo: int, hi, label: str) -> None:
    if n_total in LITERATURE_D:
        d = LITERATURE_D[n_total]
        require(lo == d and hi == d,
                f"{label}: [[{n_total},0,{lo}-{hi}]] differs from the literature d = {d}")


def check_table(rows: list[dict], max_n: int, label: str) -> None:
    """The table command: one row per length of the paper's table up to max_n,
    each the literature [[n+1, 0, d]]."""
    want = [n for n in TABLE_NS if n <= max_n]
    got = [int(r["n"]) for r in rows]
    require(got == want, f"{label}: table lengths {got}, expected {want}")
    for r in rows:
        n_total, k, lo, hi = parse_params(r["params"])
        require(n_total == int(r["n"]) + 1, f"{label}: row {r} has length {n_total}")
        check_zero_dim_interval(n_total, k, lo, hi, f"{label} n={r['n']}")
        check_literature(n_total, lo, hi, f"{label} n={r['n']}")
