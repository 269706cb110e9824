"""Minimum-distance computation: exact at desk scale, interval bounds beyond.

Every distance is reported as a DistanceBound, an integer interval whose
endpoints carry provenance tags.  Every code is a GF(4) code, and exact
values come from the full Gray-walk enumeration whenever its 4^dim words
fit the work budget.  One function (_field) picks the field a distance is
walked and searched over: GF(2) for a binary basis, whose GF(4) span has
the distance of its binary span (the walk then counts 2^dim words), else
GF(4).
Above the budget a Brouwer-Zimmermann search (_info_set_bounds) walks
messages by rising weight over disjoint information sets: after level w_j
on set j every unseen word weighs at least sum_j (w_j + 1), an honest lower
bound, and the best word found is the upper one; the two meet when the
search certifies the distance.  The search takes its shape from the code
it is given.  A generator matrix is searched on one set, the pivots of its
RREF.  A Hermitian self-dual extension [2K, K] (every extension) is
searched on two: I, the pivots of its ingredient C and its e unit
coordinates, and the complement of I, so one budgeted search bounds the
extended code directly.  Both systematic forms are read from the
extension's block form, neither by a row reduction; such a code is even,
so the search also stops once its best word is lo rounded up to even.

The upper bound is a witness: the search returns its lightest word, and the
word is checked before hi is reported, its weight recomputed and its
membership shown by the Gram test on a self-dual code or by re-encoding
from its information-set entries otherwise; a failed check is an invariant
failure.  Its words come from the whole levels, then, for the extension of
a cyclic code, from the paper's fixed subcodes: a multiplier of order 2
that fixes the cyclic ingredient C fixes a subcode of C, whose words padded
by zeros lie in the extended code, and a one-set search of it within a
third of the budget the levels leave meets light words the colex prefix of
the next level seldom reaches.  The two-set search picks these seeds
itself (_info_set_bounds).  The prefix takes the rest.

Cyclic averaging lifts the lower bound of a search over cyclic windows
(_cyclic_average).  In an [n, k] cyclic code any k cyclically consecutive
coordinates form an information set, and the n shifts of a word of weight
d meet the window {0..k-1} in dk nonzeros together, so some shift, a word of
the same weight, has at most floor(dk/n) of them.  Once every message of
weight <= w on the window is walked, that shift was met (best <= d) unless
floor(dk/n) > w, so d >= min(best, ceil((w + 1) n / k)).  A cyclic code's
own search (min_distance_exact on a CyclicCode) applies this to its one
window; the extension of a cyclic code applies it to both of its cyclic
ingredients (_self_dual_bound).  Budgets count words.  An exact pass
counts the words of the code it enumerates, 4^dim (2^dim for a binary
span), against the budget and reports them as its work.  Each pass walks
one self-orthogonal code W and takes the weight distribution of its dual
from the MacWilliams identity (dual_distribution), so of a code and its
dual only the smaller is walked: the duadic pass walks the even-like code
alone, 4^dim words, for the odd-like distribution too.  The quaternary
walk evaluates about a third of the words: a word and its nonzero
multiples have the same weight, so weight_histograms enumerates one word
per scaling orbit of the span.  A cyclic span walks only its shortened
code, the words zero at coordinate 0, about 4^(dim-1)/3 words over GF(4)
and 2^(dim-1) over GF(2), while the work still counts 4^dim (2^dim).  For
odd n, the multipliers a for which mu_a: j -> a j mod n, or conj o mu_a
over GF(4), fixes the code form a group (_fixing_multipliers).  When it
has fewer than q orbits on {1..n-1}, each with its least element j below
dim, the walk takes instead, per orbit, the words zero at 0 and j,
q^(dim-2) words, unless those walks evaluate more words than the one
(_two_point_orbits).  One identity rebuilds the code from
either walk (_rebuild): the words of weight w zero at each of x
coordinates number (x - w) A_w in all, and a group that fixes the code
makes the counts equal along its orbits (MacWilliams & Sloane, 1977,
ch. 8).  The [29, 14] code of quantum -n 29 --qr has one orbit, mu_4
and conj o mu_2 together, and walks about 4^12 / 3 words.  A count that
breaks a divisibility, or overruns its total, raises InvariantError.
The information-set search counts the messages it covers,
comb(x, w) (q - 1)^w for level w over x positions, and likewise walks
one per scaling orbit.

The distance of an extension (extension_distance) is certified in one
place: one exact pass (_extension_pass) when its words fit the budget,
else a search.

Results are a pure function of the input and the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, gf4, linalg
from .cyclic import CyclicCode, DefiningSet, all_cosets, apply_multiplier
from .duadic import Splitting
from .errors import BudgetExceededError, InputError, InvariantError
from .extfield import mult_order

# provenance tags
EXACT = "exact-enumeration"
INFO_SET = "information-set"
FIXED_SUBCODE = "fixed-subcode"
PARITY = "parity"
BUDGET = "budget-exhausted"
LITERATURE = "literature-annotation"

# the budget of a call that gives none; the library reads no environment
DEFAULT_BUDGET = 1 << 30


@dataclass(frozen=True)
class DistanceBound:
    """Interval [lo, hi] for a minimum distance; hi None means unknown."""

    lo: int
    hi: int | None
    lo_src: str
    hi_src: str
    work: int = 0

    def __post_init__(self):
        if self.lo < 1:
            raise InvariantError(f"distance lower bound {self.lo} < 1")
        if self.hi is not None and self.lo > self.hi:
            raise InvariantError(f"inconsistent interval [{self.lo}, {self.hi}]")

    @property
    def exact(self) -> bool:
        return self.hi == self.lo and self.lo_src in (EXACT, INFO_SET)

    @classmethod
    def exact_value(cls, d: int, work: int = 0) -> "DistanceBound":
        return cls(lo=d, hi=d, lo_src=EXACT, hi_src=EXACT, work=work)

    def to_json(self) -> dict:
        return {
            "lo": int(self.lo),
            "hi": None if self.hi is None else int(self.hi),
            "lo_src": self.lo_src,
            "hi_src": self.hi_src,
            "work": int(self.work),
        }


def compose_bounds(parts: list[DistanceBound]) -> DistanceBound:
    """Interval intersection with provenance tracking; never widens."""
    if not parts:
        raise InputError("compose_bounds needs at least one part")
    lo, lo_src = parts[0].lo, parts[0].lo_src
    hi, hi_src = parts[0].hi, parts[0].hi_src
    work = parts[0].work
    for p in parts[1:]:
        work += p.work
        if p.lo > lo:
            lo, lo_src = p.lo, p.lo_src
        if p.hi is not None and (hi is None or p.hi < hi):
            hi, hi_src = p.hi, p.hi_src
    if hi is not None and lo > hi:
        raise InvariantError(
            f"inconsistent distance evidence: lo {lo} ({lo_src}) > hi {hi} ({hi_src})"
        )
    return DistanceBound(lo=lo, hi=hi, lo_src=lo_src, hi_src=hi_src, work=work)


# ---------------------------------------------------------------------------
# exact enumeration primitives
# ---------------------------------------------------------------------------

def _packed_span(g: np.ndarray):
    """The F2-basis of the F4 span of g as packed planes: g_i and omega g_i
    interleaved."""
    basis = np.empty((2 * g.shape[0], g.shape[1]), dtype=np.uint8)
    basis[0::2] = g
    basis[1::2] = gf4.MUL_TABLE[2][g]
    return gf4.pack_planes(basis)


def _symmetric_hist(g: np.ndarray) -> np.ndarray:
    """The weight histogram of span(g), walking about 4^k/3 words.

    For S = span(g_2..g_k),
        hist(span(g_1..g_k)) = hist(S) + 3 hist(g_1 + S),
    because gamma g_1 + S = gamma (g_1 + S) has the weights of g_1 + S for
    each gamma in F4*.  Leading generators are peeled one at a time, each
    level one kernel call over the remaining span started at g_j, until
    that span fits one suffix block of the numpy walker.
    """
    k, n = g.shape
    sg_lo, sg_hi = _packed_span(g)
    zero = np.zeros(sg_lo.shape[1], dtype=np.uint64)
    hist = np.zeros(n + 1, dtype=np.int64)
    peel = max(0, k - _kernels._SUFFIX_BITS // 2)
    for j in range(peel):
        rest = slice(2 * j + 2, None)
        hist += 3 * _kernels.gray_weight_hists(sg_lo[rest], sg_hi[rest], sg_lo[2 * j], sg_hi[2 * j], n + 1)
    rest = slice(2 * peel, None)
    return hist + _kernels.gray_weight_hists(sg_lo[rest], sg_hi[rest], zero, zero, n + 1)


def _binary_hist(g: np.ndarray) -> np.ndarray:
    """The weight histogram of the binary span of g (0/1 rows), walked on one plane."""
    lo, _ = gf4.pack_planes(g)
    return _kernels.gray_weight_hists_binary(lo, g.shape[1] + 1)


def _is_cyclic(r: np.ndarray) -> bool:
    """Whether the row space of r, an RREF, is cyclic: its pivots are
    {0..k-1} and it holds the cyclic shift of each row.

    On the pivots the shift of row i reads r[i, n-1] at column 0 and the
    pivot of row i + 1 (none for the last row), so it lies in the row
    space exactly when it is r[i, n-1] r_0 + r_(i+1), the combination its
    pivot entries name.
    """
    k = r.shape[0]
    if not np.array_equal(r[:, :k], np.eye(k, dtype=np.uint8)):
        return False
    combination = gf4.MUL_TABLE[r[:, -1:], r[:1]]
    combination[:-1] ^= r[1:]
    return np.array_equal(np.concatenate((r[:, -1:], r[:, :-1]), axis=1), combination)


def _fixing_multipliers(r: np.ndarray) -> list[tuple[int, bool]]:
    """The pairs (a, semilinear), a a unit of Z_n, for which mu_a (False)
    or conj o mu_a (True) maps the cyclic code whose RREF r has pivots
    {0..k-1} onto itself: first the linear maps, then the semilinear ones,
    each in ascending a.

    Its last row x^(k-1) g(x) / g_0 generates the code as an ideal of
    GF(4)[x] / (x^n - 1), and mu_a and conj o mu_a are ring automorphisms,
    so either maps the code onto itself exactly when it maps that one row
    into it.  A word lies in the row space of r exactly when it is the
    combination of r's rows given by its own first k entries, so one
    product tests the images of all the maps.  For odd n, mu_4 fixes every
    cyclic code, so a map fixes it exactly when its composite with mu_4
    does: one a per 4-cyclotomic coset of units is tested, 2 phi(n) /
    ord_n(4) images in all.
    """
    n = r.shape[1]
    if n % 2:
        classes = [sorted(c) for c in all_cosets(n) if math.gcd(min(c), n) == 1]
    else:
        classes = [[a] for a in range(n) if math.gcd(a, n) == 1]
    images = np.vstack([apply_multiplier(c[0], r[-1]) for c in classes])
    images = np.vstack((images, gf4.CONJ_TABLE[images]))
    inside = ~(images ^ linalg.matmul(images[:, : r.shape[0]], r)).any(axis=1)
    maps = [(c, semilinear) for semilinear in (False, True) for c in classes]
    fixing = [(a, semilinear) for (c, semilinear), fixes in zip(maps, inside) if fixes for a in c]
    return sorted(fixing, key=lambda m: (m[1], m[0]))


def _walked_words(m: int, q: int) -> int:
    """The words the walk of an m-dimensional GF(q) span evaluates: 2^m
    (_binary_hist), or 4^(m - j - 1) per peeled generator j and 4^8 for the
    rest (_symmetric_hist), so 4^m up to m = 8 and (4^m - 4^8) / 3 + 4^8 above."""
    if q == 2:
        return 2**m
    rest = min(m, _kernels._SUFFIX_BITS // 2)
    return (4**m - 4**rest) // 3 + 4**rest


def _two_point_orbits(r: np.ndarray, q: int) -> list[tuple[int, int]] | None:
    """(least element, size) of each orbit on {1..n-1} of the multipliers
    that fix the cyclic span of r over GF(q) (_fixing_multipliers), when
    it walks its two-point shortened codes (_span_hist): n odd, at least
    one and fewer than q orbits, each orbit's least element below k, so
    k >= 2, and their walks evaluate no more words than the one walk of
    the shortened code (_walked_words).  Else None.  The last rule decides
    only over GF(4) with k > 9: a [15, 10] code with 3 orbits walks 2 x 4^8
    words, not 3 x 4^8.

    The multipliers a for which mu_a or conj o mu_a fixes the code form a
    group, as the maps that fix it do, and it holds q: mu_q fixes every
    q-ary cyclic code.  So the orbit of j is {a j mod n : a in the group}."""
    k, n = r.shape
    if n % 2 == 0:
        return None
    group = {a for a, _ in _fixing_multipliers(r)}
    orbits, seen = [], set()
    for j in range(1, n):
        if j not in seen:
            orbit = {a * j % n for a in group}
            seen |= orbit
            orbits.append((j, len(orbit)))
    if (not orbits or len(orbits) >= q or any(j >= k for j, _ in orbits)
            or len(orbits) * _walked_words(k - 2, q) > _walked_words(k - 1, q)):
        return None
    return orbits


def _rebuild(d: np.ndarray, x: int, q: int, e: int, what: str) -> np.ndarray:
    """The distribution A of a code of q^e words whose words of weight w
    are zero at x - w of x coordinates, from d_w = (x - w) A_w, the words
    zero at each of the x summed: A_w = d_w / (x - w) for w < x, A_x the
    rest of q^e, none above x, in an array as long as d.  Raises
    InvariantError, naming the walk (what), for a count at a weight >= x,
    a d_w not divisible by x - w, or A_x < 0."""
    d = [int(v) for v in d]
    if any(d[x:]):
        raise InvariantError(f"the {what} met a word of weight >= {x}")
    bad = next((w for w in range(x) if d[w] % (x - w)), None)
    if bad is not None:
        raise InvariantError(f"the {what} miscounted: its count {d[bad]} at weight {bad} "
                             f"is not divisible by {x - bad}")
    a = [d[w] // (x - w) for w in range(x)]
    a.append(q**e - sum(a))
    if a[x] < 0:
        raise InvariantError(f"the {what} miscounted: its counts pass {q}^{e} words")
    return np.array(a + [0] * (len(d) - x - 1), dtype=np.int64)


def _span_hist(r: np.ndarray, q: int) -> np.ndarray:
    """The weight histogram of the GF(q) span of r, an RREF basis: walked
    by _symmetric_hist (q = 4) or _binary_hist (q = 2), and for a cyclic
    span (_is_cyclic) on its shortened codes alone, rebuilt by _rebuild.

    A cyclic C = span(r) of length n and dimension k has pivots {0..k-1},
    so span(r[1:]) is the shortened code {c in C : c_0 = 0}, q^(k-1) words.
    The shift acts transitively on the coordinates, so the words of weight
    w zero at each one are equally many, B_w = (n - w) A_w / n of them
    (MacWilliams & Sloane, 1977), and A is _rebuild of n B, x = n, e = k.

    For odd n, take any multiplier a that fixes C, through mu_a or
    conj o mu_a (_fixing_multipliers; mu_q always does).  The map fixes
    C and the coordinate 0 and moves coordinate j to a j; conj keeps zero
    entries zero and weights unchanged.  So it maps the words of weight w
    zero at 0 and j one to one onto those zero at 0 and a j, and these
    are equally many along each orbit of the group of such a on {1..n-1}.
    When _two_point_orbits accepts r, B comes from the words zero at two
    coordinates: for each orbit O, with least element j < k, row j is the
    only row with an entry in column j, so span(r without rows 0 and j) is
    D^O = {c in C : c_0 = c_j = 0}, q^(k-2) words.  A word of B of weight
    w is zero at n - 1 - w of the coordinates 1..n-1, so B is _rebuild of
    sum_O |O| D^O, x = n - 1, e = k - 1, which walks (number of orbits)
    q^(k-2) < q^(k-1) words, and evaluates no more than the walk of B
    would.  Any other cyclic span walks B itself.
    _rebuild's InvariantError rejects counts that cannot be a cyclic
    code's.
    """
    walk = _symmetric_hist if q == 4 else _binary_hist
    k, n = r.shape
    if k == 0 or not _is_cyclic(r):
        return walk(r)
    what = f"shortened walk of a cyclic [{n},{k}] code"
    orbits = _two_point_orbits(r, q)
    if orbits is None:
        b = walk(r[1:])
    else:
        d = sum(size * walk(np.delete(r, [0, j], axis=0)) for j, size in orbits)
        b = _rebuild(d, n - 1, q, k - 1, "two-point " + what)
    return _rebuild(n * b, n, q, k, what)


def _rows(g, q: int) -> np.ndarray:
    """The generator rows as a uint8 matrix.

    Raises InputError for a symbol outside GF(q).
    """
    g = np.atleast_2d(np.asarray(g, dtype=np.uint8))
    if (g >= q).any():
        raise InputError("binary rows must hold 0/1 symbols" if q == 2
                         else "GF(4) rows must hold the symbols 0 to 3")
    return g


def weight_histograms(g: np.ndarray, budget: int = DEFAULT_BUDGET, q: int = 4) -> tuple[np.ndarray, int]:
    """The exact weight histogram of the GF(q) span of g: q = 4, or q = 2
    for 0/1 rows, whose GF(4) RREF is their GF(2) one.

    Returns (hist, work), hist[w] the words of weight w and work the q^dim
    words of the span, which the budget check counts too.  g is reduced
    only when it is not an RREF (linalg.rref_pivots).  The walk evaluates
    fewer words (_span_hist): over GF(4) one per scaling orbit, and of a
    cyclic span only its shortened codes, 5,636,096 words for the
    [29, 14] code of quantum -n 29 --qr.  Raises BudgetExceededError when
    q^dim exceeds the budget, InputError for a symbol outside GF(q).
    """
    g = _rows(g, q)
    if linalg.rref_pivots(g) is None:
        g = linalg.row_basis(g)
    k = g.shape[0]
    total = q**k
    if total > budget:
        raise BudgetExceededError(f"{q}^{k} = {total} exceeds budget {budget}")
    return _span_hist(g, q), total


def weight_histograms_binary(g_rows: np.ndarray, budget: int = DEFAULT_BUDGET) -> tuple[np.ndarray, int]:
    """weight_histograms over GF(2); kept as a name for callers outside the package."""
    return weight_histograms(g_rows, budget, q=2)


def _generators(code) -> np.ndarray:
    """Generator matrix of a CyclicCode or a GF(4) matrix."""
    if isinstance(code, CyclicCode):
        return code.gen_matrix
    return _rows(code, 4)


def _field(g: np.ndarray) -> int:
    """The field a distance computation walks and searches g over: 2 when
    every symbol of g is 0 or 1, else 4.  A binary basis spans a GF(4) code
    of the distance of its binary span: a word a + omega b, a and b in the
    binary span, has weight >= max(wt(a), wt(b))."""
    return 2 if (g <= 1).all() else 4


def _first_nonzero_weight(hist: np.ndarray) -> int:
    nz = np.nonzero(hist[1:])[0]
    if nz.size == 0:
        raise InvariantError("empty weight histogram")
    return int(nz[0]) + 1


def dual_distribution(a: list[int], words: int, q: int = 4) -> list[int]:
    """The weight distribution B of the dual of a code W from W's own, A.

    a is the walked distribution of W, a code of length N = len(a) - 1
    with words = q^dim(W) words; the dual is the Hermitian one over GF(4)
    (q = 4) and the Euclidean one over GF(2) (q = 2).  By MacWilliams,
        |W| B_i = [y^i] sum_w A_w (x + (q - 1) y)^(N-w) (x - y)^w,
    computed in exact integer arithmetic by Horner's rule in x - y, as
    coefficients of y^i.  Raises InvariantError unless sum(A) = |W|, every
    coefficient is divisible by |W|, B_0 = 1 and B_w >= A_w >= 0: W lies in
    its dual, or is equivalent to a code that does (as the even-like
    duadic codes are).  A miscounted word breaks the sum; a word moved
    between weights u and v changes the weight-1 coefficient by q (u - v),
    which breaks divisibility whenever q^(dim - 1) > N.
    """
    big_n = len(a) - 1
    if sum(a) != words:
        raise InvariantError(f"weight distribution sums to {sum(a)}, not 2^{words.bit_length() - 1}")
    t = [0] * (big_n + 1)
    for w in range(big_n, -1, -1):
        t = [t[0]] + [t[i] - t[i - 1] for i in range(1, big_n + 1)]
        for i in range(big_n - w + 1 if a[w] else 0):
            t[i] += a[w] * math.comb(big_n - w, i) * (q - 1) ** i
    for i in range(big_n + 1):
        if t[i] % words:
            raise InvariantError(f"weight distribution violates the MacWilliams identity at weight {i}")
    b = [x // words for x in t]
    if b[0] != 1 or any(not y >= x >= 0 for x, y in zip(a, b)):
        raise InvariantError("weight distribution violates the MacWilliams identity: "
                             "the transform is not that of a code inside its dual")
    return b


def _check_macwilliams(a: list[int], q: int = 4) -> None:
    """Check the weight distribution A of a self-dual code of length N
    (Hermitian over GF(4), Euclidean over GF(2)): only even weights, and
    the MacWilliams transform of A with |C| = q^(N/2) (dual_distribution) is A."""
    big_n = len(a) - 1
    odd = [w for w in range(1, big_n + 1, 2) if a[w]]
    if odd:
        raise InvariantError(f"self-dual code with a word of odd weight {odd[0]}")
    b = dual_distribution(a, q ** (big_n // 2), q)
    wrong = [i for i in range(big_n + 1) if a[i] != b[i]]
    if wrong:
        raise InvariantError(f"weight distribution violates the MacWilliams identity at weight {wrong[0]}")


# ---------------------------------------------------------------------------
# budgeted information-set bounds (Brouwer-Zimmermann)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InfoSetBound(DistanceBound):
    """An information-set interval with the levels completed on each set
    and the checked codeword of weight hi (None when hi is)."""

    levels: tuple[int, ...] = ()
    word: np.ndarray | None = field(default=None, compare=False, repr=False)


def _cyclic_average(levels: list[int], best: int, n: int, k: int, e: int) -> int:
    """Lower bound on d by cyclic averaging after full levels on cyclic windows.

    levels[0] is walked on the window {0..k-1} of an [n, k] cyclic code C
    (plus, for an extension, its e unit coordinates): d(C) >= min(best,
    ceil((w_0 + 1) n / k)), as the module docstring shows.  That is the
    bound of a cyclic code's own search (one level) and of an extension
    with e = 0, which is C itself.  With e >= 1, levels[1] is walked on the
    complement, the window {k..n-1} of the cyclic [n, n-k] code C^perp_h.
    The extension's words are (c | 0), c in C, and (v | alpha) with v in
    C^perp_h and alpha != 0, of weight >= d(C^perp_h) + 1.  Every v in
    C^perp_h is the first part of an extended word (v | alpha), of weight
    <= wt(v) + e and with v's weight on the window, so the same argument
    gives d(C^perp_h) >= min(best - e, ceil((w_1 + 1) n / (n - k))).  Together
        d >= min(best - e + 1, ceil((w_0 + 1) n / k), ceil((w_1 + 1) n / (n - k)) + 1).
    """
    lo = min(best, -(-(levels[0] + 1) * n // k))
    if len(levels) == 2 and e:
        lo = min(lo, best - e + 1, -(-(levels[1] + 1) * n // (n - k)) + 1)
    return lo


def _check_witness(word: np.ndarray, weight: int, g: np.ndarray, self_dual: bool, form) -> None:
    """Raise InvariantError unless word is a codeword of span(g) of the given weight.

    Membership is the Gram test on a Hermitian self-dual code (span(g) is
    its own dual) and otherwise the re-encoding of the word's entries on
    the information set of form = (columns, systematic form [I | P]).
    """
    if gf4.weight(word) != weight:
        raise InvariantError(f"witness word has weight {gf4.weight(word)}, not the reported {weight}")
    if self_dual:
        foreign = linalg.gram_matrix(word, g).any()
    else:
        cols, r = form
        foreign = (word[cols] != linalg.matmul(word[cols][None, : r.shape[0]], r)[0]).any()
    if foreign:
        raise InvariantError(f"the weight-{weight} witness word is not a codeword")


def _systematic_forms(code) -> tuple[np.ndarray, list]:
    """The generator the search walks and (columns, [I | P]) for each of
    its information sets: the set's columns, then the others in ascending
    order, and the systematic form of the generator on those columns.

    A generator matrix has one set, the pivots of its RREF, and its form
    is that RREF read on those columns; the matrix is reduced only when it
    is not an RREF already (linalg.rref_pivots).  An extension (a
    SelfDualCode), whose generator is (g | 0) above (f | I_e) with g an RREF
    of pivots P, has two: I = P and the e unit coordinates, and its
    complement R.  Neither form is a row reduction.  On I the generator is
    M = [[I_k, 0], [f_P, I_e]], and M M = I over GF(4), so the form on I is
    M times the generator's columns (refused with InvariantError unless it
    is [I | P]).  C^perp_h = C is spanned by (conj(P) y | y), y running
    over the unit vectors on R, so the form on R is [I | conj(P)^T]: I and
    R are both in ascending order.
    """
    if isinstance(code, np.ndarray):
        g, pivots = code, linalg.rref_pivots(code)
        if pivots is None:
            r, rank, pivots = linalg.rref(code)
            g = r[:rank]
        cols = pivots + sorted(set(range(g.shape[1])) - set(pivots))
        return g, [(cols, g[:, cols])]
    g = code.gen
    k, n = g.shape
    info = [int(c) for c in (code.original != 0).argmax(axis=1)] + list(range(n - code.e, n))
    rest = sorted(set(range(n)) - set(info))
    r = linalg.matmul(g[:, info], g[:, info + rest])
    eye = np.eye(k, dtype=np.uint8)
    if not np.array_equal(r[:, :k], eye):
        raise InvariantError("the extended generator is not [I | P] on its information set")
    return g, [(info + rest, r), (rest + info, np.hstack([eye, gf4.CONJ_TABLE[r[:, k:]].T]))]


def _info_set_bounds(code, q: int, budget: int) -> InfoSetBound:
    """Brouwer-Zimmermann search over the information sets of a code.

    The search takes its shape from code (_systematic_forms).  A generator
    matrix is searched on one set, the pivots of its RREF: min_distance_exact
    and the seeds (_fixed_rows) pass RREF bases, which are not reduced
    again.  A Hermitian self-dual extension is searched on two, the
    information set I = pivots(C) + the e unit coordinates of its generator
    and the complement of I (_self_dual_bound).  Each set's messages are
    walked by _kernels.InfoSetLevels over the parity part of its systematic
    form, a level (message weight) at a time, for a word lighter than the
    best so far, the only kind the search keeps.  Levels alternate between the
    sets, the set with fewer completed levels first (I on a tie).  A
    codeword not met after level w_j on set j has weight >= w_j + 1 on each
    set, so >= sum_j (w_j + 1).  The walk stops when the next level's
    comb(k, w) (q - 1)^w words would pass the budget, or when the best word
    found is no heavier than the lower bound, or when a set has walked all
    k levels and so met every codeword: then it is the distance
    (information-set provenance).  Otherwise lo is the bound
    (budget-exhausted) and hi the best word, or None (budget-exhausted too)
    when no level fit the budget and no seed found a word.  With two sets
    the budget left after the whole levels goes, a third of it, to the
    seeds and then, all that remains, to the next level over the first x
    positions of its set, the colex prefix of that level.  Both lower hi
    but not lo.

    The search picks its own seeds, and only when the whole levels leave it
    inexact: for an extension whose ingredient C is cyclic, the fixed
    subcode of C under each multiplier of order 2 that fixes it
    (_fixing_involutions, _fixed_rows), padded by e zeros, a subcode of the
    extended code.  Each is searched on its own (one set, whole levels)
    within what is left of that third, and its lightest word, already a
    codeword, can be hi (fixed-subcode provenance).  work counts every word
    walked, the seeds' included.  The third is a trade: the seeds take
    budget the prefix would have walked, and with half of it two [18, 9]
    extensions (n = 15) lost a weight-6 word the prefix had met at budget
    377.

    When the code, or the ingredient C of the extension, is cyclic
    (_is_cyclic of its RREF basis), the RREF pivots are its window {0..k-1},
    and lo is also at least the cyclic average of the completed levels
    (_cyclic_average).  Every search is exact once best <= lo.  A self-dual code is even, so a
    two-set search is also exact once best <= lo + 1 with lo odd.  A single
    set walks no partial level, so each seed's search leaves what it does
    not walk of the seeds' third to the next seed.

    hi is a witness: the lightest word found, checked (_check_witness)
    before it is returned.
    """
    self_dual = not isinstance(code, np.ndarray)
    g, forms = _systematic_forms(code)
    k, n = g.shape
    e = code.e if self_dual else 0
    cyclic = _is_cyclic(code.original if self_dual else g)
    walks = [_kernels.InfoSetLevels(r[:, k:], q) for _, r in forms]
    levels = [0] * len(walks)
    best, word, hi_src, work = n + 1, None, BUDGET, 0

    def cost(x: int, w: int) -> int:
        return math.comb(x, w) * (q - 1) ** w

    def lower() -> int:
        lo = sum(levels) + len(levels)
        if cyclic:
            lo = max(lo, _cyclic_average(levels, best, n - e, k - e, e))
        return lo

    def certified() -> bool:
        # a set walked to level k has met every codeword
        return best <= lo + (self_dual and lo % 2) or k in levels

    def meet(weight: int, found: np.ndarray, cols, src: str = INFO_SET) -> None:
        nonlocal best, word, hi_src
        if weight < best:
            best, hi_src = weight, src
            word = np.empty(n, dtype=np.uint8)
            word[cols] = found

    def result(exact: bool) -> InfoSetBound:
        if word is not None:
            _check_witness(word, best, g, self_dual, forms[0])
        if exact:
            return InfoSetBound(lo=best, hi=best, lo_src=INFO_SET, hi_src=INFO_SET,
                                work=work, levels=tuple(levels), word=word)
        return InfoSetBound(lo=lo, hi=best if best <= n else None, lo_src=BUDGET, hi_src=hi_src,
                            work=work, levels=tuple(levels), word=word)

    lo = lower()
    while True:
        j = levels.index(min(levels))
        w = levels[j] + 1
        if w > k or work + cost(k, w) > budget:
            break
        found = walks[j].least_weight(w, k, best)
        if found is not None:
            meet(*found, forms[j][0])
        work += cost(k, w)
        levels[j] = w
        lo = lower()
        if certified():
            return result(exact=True)
    allowance = (budget - work) // 3
    for a in _fixing_involutions(code.original) if self_dual and cyclic and allowance > 0 else ():
        rows = _fixed_rows(code.original, a)
        if len(rows):
            b = _info_set_bounds(np.pad(rows, ((0, 0), (0, e))), q, allowance)
            allowance -= b.work
            work += b.work
            if b.word is not None:
                meet(b.hi, b.word, slice(None), FIXED_SUBCODE)
    if certified():
        return result(exact=True)
    span = w - 1
    while span < k and work + cost(span + 1, w) <= budget:
        span += 1
    if len(walks) == 1 or span < w:
        return result(exact=False)
    found = walks[j].least_weight(w, span, best)
    if found is not None:
        meet(*found, forms[j][0])
    work += cost(span, w)
    return result(exact=certified())


# ---------------------------------------------------------------------------
# public distance operations
# ---------------------------------------------------------------------------

# One cache for the certified results: exact min_distance_exact bounds and
# duadic passes.  An entry is served only if this budget could have produced
# it itself, so results stay a pure function of (input, budget).  Inexact
# intervals are not cached.
_CACHE: dict[tuple, DistanceBound | DuadicDistances] = {}


def _cached(key: tuple, budget: int) -> DistanceBound | DuadicDistances | None:
    hit = _CACHE.get(key)
    return hit if hit is not None and hit.work <= budget else None


def min_distance_exact(code, budget: int = DEFAULT_BUDGET) -> DistanceBound:
    """Exact distance by full enumeration when 4^dim fits the budget, else
    an information-set interval with budget-exhausted provenance; for a
    cyclic code (a CyclicCode, or a matrix whose RREF basis is cyclic) its
    lower bound is lifted by cyclic averaging.  Both the walk and the
    search run over _field of the RREF basis, so a code with a
    binary basis walks its 2^dim binary words, which are its work, but only
    when its 4^dim words would fit: walk or search is decided on GF(4)."""
    key = None
    if isinstance(code, CyclicCode):
        # an information-set result is what only budgets below the full
        # enumeration compute, so the route is part of the key
        route = EXACT if 4**code.dim <= budget else INFO_SET
        key = (route, code.n, code.defining_set.members)
        hit = _cached(key, budget)
        if hit is not None:
            return hit
    g = linalg.row_basis(_generators(code))
    k, n = g.shape
    if k == 0:
        raise InputError("the zero code has no minimum distance")
    if k == n:
        result = DistanceBound.exact_value(1, work=0)
    elif 4**k <= budget:
        hist, work = weight_histograms(g, budget, _field(g))
        result = DistanceBound.exact_value(_first_nonzero_weight(hist), work=work)
    else:
        result = _info_set_bounds(g, _field(g), budget)
    if key is not None and result.exact:
        _CACHE[key] = result
    return result


# ---------------------------------------------------------------------------
# duadic ingredient pass: one walk gives d(C_e), d_o and the weight parities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DuadicDistances:
    even_hist: tuple[int, ...]
    coset_hist: tuple[int, ...]  # summed over the three nonzero cosets
    work: int

    @property
    def d_even(self) -> int:  # distance of the even-like code
        return _first_nonzero_weight(self.even_hist)

    @property
    def d_min_odd_coset(self) -> int:  # min weight over odd-like cosets (the odd-like weight d_o)
        return _first_nonzero_weight(self.coset_hist)

    @property
    def d_odd(self) -> int:
        """Distance of the odd-like code C_e + <all-ones>."""
        return min(self.d_even, self.d_min_odd_coset)


def duadic_distances(splitting: Splitting, budget: int = DEFAULT_BUDGET) -> DuadicDistances:
    """Exact even-like distance and minimum odd-like weight of side 1, the
    half S1; side 2 is side 1 of the splitting with its halves swapped.

    Walks the even-like code C_e once, 4^dim words of work, of which the
    walk evaluates at most about 4^(dim-1)/3: C_e is cyclic, so only its
    shortened code, or its two-point shortened codes, one per orbit of
    the multipliers that fix C_e, is walked (_span_hist).  It takes the
    odd-like distribution from MacWilliams
    (dual_distribution): the dual of C_e1 has defining set
    -S2, so it is mu_-1 of C_o2, which the splitting's multiplier maps onto
    C_o1, and hist(C_o1) = MW(hist(C_e1)) / |C_e1|, on either side of any
    splitting.  The odd-like code is C_e with
    the three cosets of the all-ones vector, so coset_hist is that
    distribution minus even_hist, d_o its first nonzero weight and
    d(odd-like) = min(d_even, d_o).  Both distances are cached as
    min_distance_exact would return them, with the work of its own walks:
    q^dim and q^(dim + 1) words, q the _field of C_e's generator, which is
    also the odd-like code's, C_e + <all-ones>.
    """
    s = splitting.s1
    n = splitting.n
    key = ("duadic", n, s.members)
    hit = _cached(key, budget)
    if hit is not None:
        return hit
    even = CyclicCode(DefiningSet(n, s.members | {0}))
    hist, work = weight_histograms(even.gen_matrix, budget=budget)
    even_hist = [int(x) for x in hist]
    coset_hist = [b - a for a, b in zip(even_hist, dual_distribution(even_hist, work))]
    result = DuadicDistances(even_hist=tuple(even_hist), coset_hist=tuple(coset_hist), work=work)
    q, dim = _field(even.gen_matrix), even.dim
    _CACHE[(EXACT, n, even.defining_set.members)] = DistanceBound.exact_value(result.d_even, work=q**dim)
    _CACHE[(EXACT, n, s.members)] = DistanceBound.exact_value(result.d_odd, work=q ** (dim + 1))
    _CACHE[key] = result
    return result


def even_lift(b: DistanceBound) -> DistanceBound:
    """Round an odd lower bound up to even; valid for even-weight codes."""
    if b.lo % 2 == 0:
        return b
    if b.hi is not None and b.hi == b.lo:
        raise InvariantError(f"exact odd distance {b.lo} contradicts an even-weight certificate")
    return DistanceBound(lo=b.lo + 1, hi=b.hi, lo_src=PARITY, hi_src=b.hi_src, work=b.work)


# ---------------------------------------------------------------------------
# extensions: the one place an extension's distance gets certified
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionDistance:
    """An extension's distance with an account of it (note): the exact
    pass's, or that of the bound that replaced the pass, whose lower end
    is not exact-enumeration."""

    bound: DistanceBound
    note: str

    @property
    def trace_line(self) -> str:
        """The note as a construction's trace prints it."""
        return self.note if self.bound.lo_src == EXACT else f"budget-limited bound: {self.note}"


def _exact(d: int, work: int, note: str) -> ExtensionDistance:
    """The result of an exact pass."""
    return ExtensionDistance(DistanceBound.exact_value(d, work=work), note=note)


def _walked(ext) -> np.ndarray:
    """The generator _extension_pass walks, a self-orthogonal code whose
    weight distribution gives the extended code's: the ingredient C
    (ext.original) when e = 1, else the self-dual extended code itself."""
    return ext.original if ext.e == 1 else ext.gen


def _unit_pass(c_hist, coset_hist, work: int, q: int = 4) -> ExtensionDistance:
    """The e = 1 pass from the distributions of C and of the words of
    C^perp_h off C (coset_hist): the extended words are (c | 0) and
    (v | lambda), lambda != 0, for v off C, so A_w = C_w + coset_(w - 1),
    checked (_check_macwilliams), and d = min(d(C), d_o + 1) with d_o the
    least weight off C.  C is Hermitian self-orthogonal, so even."""
    _check_macwilliams([c + x for c, x in zip(list(c_hist) + [0], [0] + list(coset_hist))], q)
    d_c, d_o = _first_nonzero_weight(c_hist), _first_nonzero_weight(coset_hist)
    d = min(d_c, d_o + 1)
    return _exact(d, work, f"d = min(d(even) = {d_c}, d_o + 1 = {d_o + 1}) = {d} [exact]")


def _extension_pass(ext, q: int, budget: int) -> ExtensionDistance:
    """The exact pass of an extension: one walk of _walked(ext), whose
    q^dim words are the work, and the weight distribution A of the extended
    [N, K] code from it by dual_distribution.

    q = 2 (_field) walks binary spans: the Hermitian dual of a binary
    generator's GF(4) span is spanned by the binary Euclidean dual.

    e = 1: the walk gives A_C, and dual_distribution the distribution B
    of C^perp_h = C + <f>, f the one orthonormal complement vector.  The
    extended words are (c + lambda f | lambda): the first n coordinates run
    over C^perp_h, and the unit coordinate is nonzero exactly off C, so
    _unit_pass reads the extended code from A_C and B - A_C.  With e >= 2
    the unit coordinates depend on the coset, so the extended code is
    walked.  A self-dual code's d is its first nonzero weight, and its
    distribution is checked (_check_macwilliams).
    """
    hist, work = weight_histograms(_walked(ext), budget, q)
    walked = [int(x) for x in hist]
    if ext.e == 1:
        coset = [y - x for x, y in zip(walked, dual_distribution(walked, work, q))]
        return _unit_pass(walked, coset, work, q)
    _check_macwilliams(walked, q)
    first = _first_nonzero_weight(walked)
    return _exact(first, work, f"d = min over cosets of (coset weight + unit weight) = {first} [exact]")


def _fixing_involutions(r: np.ndarray) -> list[int]:
    """The multipliers a != 1 with a^2 = 1 (mod n) whose mu_a fixes the
    cyclic code whose RREF r has pivots {0..k-1}, in ascending order: the
    linear maps of order 2 among _fixing_multipliers."""
    n = r.shape[1]
    return [a for a, semilinear in _fixing_multipliers(r)
            if not semilinear and a != 1 and a * a % n == 1]


def _fixed_rows(g: np.ndarray, a: int) -> np.ndarray:
    """Canonical basis of {v in span(g) : mu_a(v) = v}.

    mu_a permutes coordinates, so mu_a(c g) = c mu_a(g), and c g is fixed
    exactly when c (g - mu_a(g)) = 0: the fixed words are the left kernel
    of g - mu_a(g) applied to g.
    """
    coeffs = linalg.nullspace((g ^ apply_multiplier(a, g)).T)
    return linalg.row_basis(linalg.matmul(coeffs, g))


def _self_dual_bound(ext, q: int, budget: int) -> ExtensionDistance:
    """Information-set bound on a Hermitian self-dual extension [2K, K].

    I = pivots(C) + the e unit coordinates is an information set of the
    extended generator (its columns on I are block triangular with unit
    diagonal blocks), and the complement of an information set of a
    self-dual code is one too.  Every word of C, padded by zeros, is a
    message on I of the weight it has on C's own information set.  With
    q = 2 (_field) a message has (q - 1)^w = 1 scalar pattern.  The code
    is even, so the search is exact once its best word is lo rounded up
    to even.

    When C is cyclic, which the RREF basis shows (_is_cyclic), its
    pivots are the window {0..k-1} and the complement is the window
    {k..n-1} of the cyclic C^perp_h, so cyclic averaging also bounds both
    ingredients of d >= min(d(C), d(C^perp_h) + 1): after levels w_I, w_R
    with best word best,
        d >= min(best - e + 1, ceil((w_I + 1) n / k), ceil((w_R + 1) n / (n - k)) + 1),
    and min(best, ceil((w_I + 1) n / k)) when e = 0 (_cyclic_average).  The
    walks are the same as without it; only lo can rise.

    A cyclic C also seeds hi: for every multiplier a of order 2 that fixes
    C, the search itself walks the fixed subcode {c in C : mu_a(c) = c},
    padded by e zeros, which meets light words that the colex prefix
    seldom reaches (_info_set_bounds); lo comes from the levels and the
    averaging alone.
    """
    big_k, big_n = ext.gen.shape
    b = _info_set_bounds(ext, q, budget)
    two_set = sum(b.levels) + len(b.levels)
    found = f"d = {b.lo}" if b.exact else f"d >= {two_set}"
    if not b.exact and b.lo > two_set:
        found += f", cyclic averaging: d >= {b.lo}"
    lifted = even_lift(b)
    if lifted.lo != b.lo:
        found += f", even: d >= {lifted.lo}"
    note = (f"information set and complement of the extended [{big_n},{big_k}] code, "
            f"levels {b.levels[0]} and {b.levels[1]}: {found}")
    return ExtensionDistance(lifted, note=note)


def extension_distance(ext, budget: int) -> ExtensionDistance:
    """Distance of the Hermitian self-dual extension ext of a code C (a
    quantum.SelfDualCode: gen; original, the RREF basis of C; e), the
    least weight of the extended [N, K] code.

    The exact pass (_extension_pass) runs when its words fit the budget.
    It walks one self-orthogonal code and takes the extended code's
    distribution from MacWilliams: the ingredient C, q^(K - 1) words, when
    e = 1, else the extended code, q^K words; q = 2 when the extended
    generator is binary.  The pass checks its weight distribution
    (_check_macwilliams).  Below the pass the information-set search on
    the extended generator bounds d (_self_dual_bound).
    """
    q = _field(ext.gen)
    if q ** _walked(ext).shape[0] <= budget:
        return _extension_pass(ext, q, budget)
    return _self_dual_bound(ext, q, budget)


# ---------------------------------------------------------------------------
# fixed subcodes under multipliers
# ---------------------------------------------------------------------------

def fixed_subcode(code: CyclicCode, a: int) -> np.ndarray:
    """Basis of {v in C : mu_a(v) = v} (_fixed_rows on the generator matrix).

    Raises InputError, naming a as given, unless gcd(a, n) = 1."""
    n = code.n
    if math.gcd(a, n) != 1:
        raise InputError(f"gcd({a}, {n}) != 1")
    return _fixed_rows(code.gen_matrix, a)


def order2_lower_bound(d_fixed: int) -> int:
    """d(C) >= ceil(d(C_a)/2) + 1 for an order-2 multiplier fixing the code.

    Degenerate case: when d(C_a) = 1 the minimum-weight vector is itself
    fixed and the bound collapses to d(C) = d(C_a)."""
    if d_fixed <= 1:
        return d_fixed
    return -(-d_fixed // 2) + 1


def odd_order_lower_bound(d_fixed: int, order: int) -> int:
    """d(C) >= ceil((d(C_a) - 1)/order) + 1 for odd multiplier order > 1."""
    if order <= 1 or order % 2 == 0:
        raise InputError("order must be an odd integer > 1")
    return -(-(d_fixed - 1) // order) + 1


def fixed_subcode_lower_bound(code: CyclicCode, a: int, budget: int = DEFAULT_BUDGET) -> DistanceBound:
    """Sandwich d(C) between the fixed-subcode bounds: lower from the order
    formula applied to d(C_a), upper d(C) <= d(C_a)."""
    sub = fixed_subcode(code, a)
    a %= code.n
    if code.defining_set.scaled(a).members != code.defining_set.members:
        raise InputError(f"mu_{a} does not fix the code: aA != A")
    order = mult_order(a, code.n)
    if order != 2 and (order <= 1 or order % 2 == 0):
        raise InputError(f"multiplier order {order} is neither 2 nor odd > 1")
    if sub.shape[0] == 0:
        raise InvariantError("fixed subcode is trivial; no bound available")
    d_sub = min_distance_exact(sub, budget=budget)
    if order == 2:
        lo = order2_lower_bound(d_sub.lo)
    else:
        lo = odd_order_lower_bound(d_sub.lo, order)
    return DistanceBound(
        lo=max(lo, 1),
        hi=d_sub.hi,
        lo_src=FIXED_SUBCODE if d_sub.exact else BUDGET,
        hi_src=FIXED_SUBCODE,
        work=d_sub.work,
    )
