"""Independent reference implementations used only to cross-check results.

Everything here is deliberately naive: dict-based GF(4) arithmetic and
itertools enumeration, sharing no code with the package internals, except
that defining_set_of_matrix evaluates in the package's extension field,
whose pinned alpha is the labeling convention of every defining set, and
that mirror builds the package's Splitting.
"""

import itertools

from duadiq import extfield
from duadiq.duadic import Splitting

# GF(4) = {0, 1, w, w2} with w2 = w + 1; integer encoding 0,1,2,3
ADD = {}
for a in range(4):
    for b in range(4):
        ADD[a, b] = a ^ b

MUL = {(0, 0): 0}
_log = {1: 0, 2: 1, 3: 2}  # powers of w: w^0=1, w^1=2, w^2=3
_exp = {0: 1, 1: 2, 2: 3}
for a in range(4):
    for b in range(4):
        if a == 0 or b == 0:
            MUL[a, b] = 0
        else:
            MUL[a, b] = _exp[(_log[a] + _log[b]) % 3]

CONJ = {0: 0, 1: 1, 2: 3, 3: 2}


def mirror(s):
    """The splitting with its halves swapped, so that side 2 of s is its
    side 1; a multiplier swaps the halves both ways, so the witnesses stay."""
    return Splitting(s.n, s.s2, s.s1, s.multipliers)


def inner(u, v):
    acc = 0
    for x, y in zip(u, v):
        acc = ADD[acc, MUL[x, CONJ[y]]]
    return acc


def weight(v):
    return sum(1 for x in v if x != 0)


def scalar_mul(c, v):
    """The vector v times the scalar c."""
    return [MUL[c, int(x)] for x in v]


def poly_deg(p):
    """Degree of a little-endian coefficient sequence; -1 for the zero polynomial."""
    return max((i for i, c in enumerate(p) if c), default=-1)


def poly_divmod(p, q):
    """Quotient and remainder of p by q (q nonzero), both trimmed lists: long
    division, one leading term of the remainder at a time."""
    dq = poly_deg(q)
    if dq < 0:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [int(c) for c in p[: poly_deg(p) + 1]]
    inv = next(x for x in (1, 2, 3) if MUL[int(q[dq]), x] == 1)
    quot = [0] * max(0, len(rem) - dq)
    for shift in range(len(rem) - dq - 1, -1, -1):
        c = MUL[rem[shift + dq], inv]
        quot[shift] = c
        for i in range(dq + 1):
            rem[shift + i] = ADD[rem[shift + i], MUL[c, int(q[i])]]
    return quot[: poly_deg(quot) + 1], rem[: poly_deg(rem) + 1]


def poly_mul(p, q):
    """The product of two coefficient sequences, one coefficient of the
    result at a time: c_k = sum over i + j = k of p_i q_j."""
    if not len(p) or not len(q):
        return []
    out = []
    for k in range(len(p) + len(q) - 1):
        acc = 0
        for i in range(max(0, k - len(q) + 1), min(k, len(p) - 1) + 1):
            acc = ADD[acc, MUL[int(p[i]), int(q[k - i])]]
        out.append(acc)
    return out[: poly_deg(out) + 1]


def poly_eval(p, x):
    """p(x) at a GF(4) point, summing c x^i term by term."""
    acc, power = 0, 1
    for c in p:
        acc = ADD[acc, MUL[int(c), power]]
        power = MUL[power, x]
    return acc


def unpack_planes(lo, hi, n):
    """The (k, n) symbols of packed (k, W) low/high bit planes: bit j % 64 of
    word j // 64 holds coordinate j."""
    def bit(word, j):
        return int(word[j // 64]) >> (j % 64) & 1

    return [[bit(l, j) | bit(h, j) << 1 for j in range(n)] for l, h in zip(lo, hi)]


def x_pow_n_minus_1(n):
    """The coefficients of x^n - 1 = x^n + 1, constant term first."""
    return [1] + [0] * (n - 1) + [1]


def defining_set_of_matrix(g, n):
    """Exponents t where every row polynomial vanishes at alpha^t, the
    oracle against the defining-set arithmetic.  A row sum_i c_i x^i takes
    at alpha^t the value sum_i c_i alpha^(i t mod n), so each term is read
    from a table of symbol times alpha^j, built once per n in the extension
    field, whose omega is the symbol 2 and omega^2 = omega + 1 the symbol 3."""
    ext = extfield.ext_build(n)
    powers = [1]
    for _ in range(n - 1):
        powers.append(ext.mul(powers[-1], ext.alpha))
    omega_powers = [ext.mul(ext.omega, p) for p in powers]
    times = {1: powers, 2: omega_powers, 3: [x ^ p for x, p in zip(omega_powers, powers)]}
    terms = [[(i, times[int(c)]) for i, c in enumerate(row) if c] for row in g]

    def value(row_terms, t):
        acc = 0
        for i, table in row_terms:
            acc ^= table[i * t % n]
        return acc

    return frozenset(t for t in range(n) if all(value(row_terms, t) == 0 for row_terms in terms))


def span_words(rows, q=4):
    """Every word in the GF(q) span, q = 2 or 4 (the zero word included)."""
    k = len(rows)
    n = len(rows[0]) if k else 0
    for coeffs in itertools.product(range(q), repeat=k):
        word = [0] * n
        for c, row in zip(coeffs, rows):
            if c:
                for i, x in enumerate(row):
                    word[i] = ADD[word[i], MUL[c, x]]
        yield tuple(word)


def min_distance(rows):
    best = None
    for word in span_words(rows):
        w = weight(word)
        if w and (best is None or w < best):
            best = w
    return best


def weight_counts(rows, n, start=None, q=4):
    """Words of each weight in start + the GF(q) span of rows (start zero by default)."""
    start = [0] * n if start is None else start
    counts = [0] * (n + 1)
    for word in span_words(rows, q):
        counts[weight([ADD[x, y] for x, y in zip(word, start)])] += 1
    return counts


def binary_min_distance(rows):
    best = None
    n = len(rows[0]) if rows else 0
    for coeffs in itertools.product(range(2), repeat=len(rows)):
        word = [0] * n
        for c, row in zip(coeffs, rows):
            if c:
                for i, x in enumerate(row):
                    word[i] ^= x
        w = sum(word)
        if w and (best is None or w < best):
            best = w
    return best


def orthonormalize(rows):
    """Greedy Hermitian orthonormalization, one row at a time.

    The pick is the first remaining row of norm 1; failing that, the first
    pair (i, j), i != j, with <r_i, r_j> != 0 and the first lambda in
    (1, w, w2) that gives r_i + lambda r_j norm 1, which replaces r_i.  The
    pick leaves, and every other row r becomes r + <r, pick> pick.
    """
    remaining = [list(r) for r in rows]
    out = []
    while remaining:
        pick = next((v for v in remaining if inner(v, v) == 1), None)
        if pick is None:
            pick = _unit_combination(remaining)
        remaining = [v for v in remaining if v is not pick]
        scales = [inner(v, pick) for v in remaining]
        remaining = [[ADD[x, MUL[c, p]] for x, p in zip(v, pick)] for v, c in zip(remaining, scales)]
        out.append(pick)
    return out


def _unit_combination(remaining):
    for i, j in itertools.permutations(range(len(remaining)), 2):
        if inner(remaining[i], remaining[j]) == 0:
            continue
        for lam in (1, 2, 3):
            cand = [ADD[x, MUL[lam, y]] for x, y in zip(remaining[i], remaining[j])]
            if inner(cand, cand) == 1:
                remaining[i] = cand
                return cand
    raise ValueError("no unit-norm vector: the form is degenerate")


def block_extension(g, radical, dual):
    """The extension by its definition: the rows of dual that lie outside
    the span of radical and of the rows taken before them, orthonormalized
    (orthonormalize) to f_1..f_e, and (m | 0) above (f | I_e) for m = g and
    m = radical.  Returns the two stacks, the extended code and its
    Hermitian dual, as lists of rows."""
    echelon = []  # (pivot, row scaled to 1 there) in the order taken

    def taken(v):
        """Whether v leaves the span so far; if so it joins it."""
        v = [int(x) for x in v]
        for p, r in echelon:
            c = v[p]
            if c:
                v = [ADD[x, MUL[c, y]] for x, y in zip(v, r)]
        p = next((i for i, x in enumerate(v) if x), None)
        if p is None:
            return False
        inv = next(x for x in (1, 2, 3) if MUL[v[p], x] == 1)
        echelon.append((p, [MUL[inv, x] for x in v]))
        return True

    for r in radical:
        taken(r)
    units = orthonormalize([[int(x) for x in r] for r in dual if taken(r)])
    e = len(units)
    tail = [f + [int(i == j) for j in range(e)] for i, f in enumerate(units)]
    return [[[int(x) for x in r] + [0] * e for r in m] + tail for m in (g, radical)]


def rref(rows, ncols):
    """Reduced row echelon form, one row operation at a time: for each
    column from the left, the topmost remaining row holding it becomes the
    pivot row, is scaled to pivot 1 and is subtracted from every other row
    holding the column.  Returns (rows, rank, pivot columns); rows beyond
    the rank are zero."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        rank = len(pivots)
        p = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[rank], rows[p] = rows[p], rows[rank]
        inv = next(x for x in (1, 2, 3) if MUL[rows[rank][c], x] == 1)
        rows[rank] = [MUL[inv, x] for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c]
                rows[i] = [ADD[x, MUL[f, y]] for x, y in zip(rows[i], rows[rank])]
        pivots.append(c)
    return rows, len(pivots), pivots


def is_subspace(sub, sup):
    """Whether the row space of sub lies in that of sup: stacking sub under
    sup leaves the rank of sup."""
    sub, sup = [list(map(int, r)) for r in sub], [list(map(int, r)) for r in sup]
    ncols = len((sup or sub or [[]])[0])
    return rref(sup + sub, ncols)[1] == rref(sup, ncols)[1]


def _colex_messages(positions, t, s):
    """The t-position messages on positions (a list), in the colex order of
    the level walk's tables: by the rank of their last position, then its
    scalar, then the messages on the earlier positions in the same order.
    Each is a tuple of (position, symbol), symbol in 1..s."""
    if t == 0:
        return [()]
    out = []
    for x in range(t - 1, len(positions)):
        for symbol in range(1, s + 1):
            out += [head + ((positions[x], symbol),) for head in _colex_messages(positions[:x], t - 1, s)]
    return out


def first_lightest_message(parity, q, w, span, block_words):
    """(weight, word) of the first lightest codeword over the weight-w
    messages on the first span positions of [I | parity], in the order of
    the information-set level walk; the word is the message followed by its
    encoding.

    Pivot m, the (w//2 + 1)-th smallest position, carries the symbol 1; the
    w//2 positions below it and the (w-1)//2 above it are listed in colex
    order, the upper ones counted from span - 1 down.  Of the two lists the
    shorter (the lower one on a tie) runs in the outer loop, the longer in
    the inner one, and the longer is cut into blocks of at most block_words
    messages walked one after another.
    """
    k = len(parity)
    cols = len(parity[0]) if k else 0
    s = q - 1
    a, c = w // 2, (w - 1) // 2

    def encode(msg):
        out = [0] * cols
        for x, symbol in msg:
            out = [ADD[y, MUL[symbol, p]] for y, p in zip(out, parity[x])]
        return out

    best = None
    for m in range(a, span - c):
        low = _colex_messages(list(range(m)), a, s)
        high = _colex_messages(list(range(span - 1, m, -1)), c, s)
        pivot = encode([(m, 1)])
        encoded = {msg: encode(msg) for msg in low + high}
        swap = len(low) > len(high)
        shorter, longer = (high, low) if swap else (low, high)
        step = min(len(longer), block_words)
        for start in range(0, len(longer), step):
            for u in shorter:
                for v in longer[start : start + step]:
                    msg = dict(u + v + ((m, 1),))
                    tail = [ADD[ADD[x, y], z] for x, y, z in zip(encoded[u], encoded[v], pivot)]
                    word = tuple(msg.get(x, 0) for x in range(k)) + tuple(tail)
                    if best is None or weight(word) < best[0]:
                        best = (weight(word), word)
    return best
