"""Quantum code constructions from quaternary linear codes.

Every construction funnels through the nearly-self-orthogonal extension: a
Hermitian self-orthogonal [n, k] code C gains e = n - 2k new coordinates,
one per orthonormalized complement vector of C in C^perp_h, and the result
is a Hermitian self-dual [n + e, n - k] code, the [[n + e, 0, d]] stabilizer
code whose distance d is the code's.  Any other input is refused
(NotApplicableError), so every output is 0-dimensional.

Distance reporting is bound-honest: exact values appear only when the
enumeration budget allowed computing them; otherwise lower bounds carry the
provenance of the theorem or budget that produced them.  The outputs are
Hermitian self-dual, hence even-weight, and lower bounds are lifted to
even.  Every distance of an extension is certified by one call,
distance.extension_distance, from general_zero_dim, the one entry point of
the extension.  The one exception is the duadic route, whose exact pass is
duadic_distances read by distance._unit_pass whenever it fits the budget.
Every construction then assembles its parameters in one place (_params):
[[n + e, 0]] from the extension, d from the certificate, and the trace as
the construction's head lines followed by the certificate's line.  Each
returns the SelfDualCode it certified, with its ingredient C and e.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from . import distance as dist
from . import gf4, linalg
from .cyclic import CyclicCode, DefiningSet, dual_defining_set
from .distance import BUDGET, DEFAULT_BUDGET, LITERATURE, PARITY, DistanceBound
from .duadic import DuadicPair
from .errors import InputError, InvariantError, NotApplicableError

# purity flags: every extension-based code is pure; annotated and derived
# codes are of unknown purity
PURE_YES = "yes"
PURE_UNKNOWN = "unknown"


@dataclass(frozen=True)
class QuantumParams:
    n: int
    k: int
    d: DistanceBound
    pure: str
    trace: tuple[str, ...]

    def __post_init__(self):
        if not (0 <= self.k <= self.n):
            raise InvariantError(f"invalid parameters [[{self.n},{self.k}]]")
        if self.pure not in (PURE_YES, PURE_UNKNOWN):
            raise InvariantError(f"invalid purity flag {self.pure!r}")
        # [[n, 0, d]] codes are additive self-dual codes: d <= 2 floor(n/6) + 2,
        # or + 3 for n = 5 mod 6 (MacWilliams-Odlyzko-Sloane-Ward 1978; Rains 1999)
        limit = 2 * (self.n // 6) + (3 if self.n % 6 == 5 else 2)
        if self.k == 0 and self.d.lo > limit:
            raise InvariantError(
                f"[[{self.n},0]] with d >= {self.d.lo} exceeds the self-dual bound d <= {limit}"
            )

    def to_json(self) -> dict:
        return {
            "n": int(self.n),
            "k": int(self.k),
            "d_lo": int(self.d.lo),
            "d_hi": None if self.d.hi is None else int(self.d.hi),
            "pure": self.pure,
            "trace": list(self.trace),
        }

    def params_str(self) -> str:
        if self.d.hi == self.d.lo:
            dstr = str(self.d.lo)
        elif self.d.hi is None:
            dstr = f">={self.d.lo}"
        else:
            dstr = f"{self.d.lo}-{self.d.hi}"
        return f"[[{self.n},{self.k},{dstr}]]"


@dataclass(frozen=True)
class SelfDualCode:
    """Hermitian self-dual code emitted by the k = 0 constructions."""

    gen: np.ndarray             # generators of the length n+e Hermitian self-dual code
    original: np.ndarray        # RREF basis of the self-orthogonal input code
    e: int

    def __post_init__(self):
        m, length = self.gen.shape
        if length != 2 * m:
            raise InvariantError(f"self-dual shape must be (m, 2m), got {self.gen.shape}")
        if not linalg.is_hermitian_self_orthogonal(self.gen):
            raise InvariantError("generator matrix fails the dual-containment Gram test")


# ---------------------------------------------------------------------------
# Hermitian Gram-Schmidt and the extension
# ---------------------------------------------------------------------------

def _hermitian_orthonormalize(rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span, assuming the form is nondegenerate on it.

    Norms over GF(4) lie in GF(2), so a norm-1 vector always exists among
    the basis vectors or the combinations f + lambda g with <f,g> != 0, and
    scaling never changes a norm.  Each step takes the first remaining row
    of norm 1; failing that, the first pair (i, j) with <f_i,f_j> = a != 0 in
    row-major order replaces f_i by f_i + lambda f_j, whose norm is
    tr(conj(lambda) a) since both norms are 0, so the first lambda in
    (1, omega, omega^2) that gives norm 1 is 1 unless a = 1, then omega.
    The other rows f become f + <f, pick> pick.

    The rows are packed rows (gf4.pack_rows), as in linalg.rref.  For
    p = p0 + p1 omega, <x, p> = sum x conj(p) has the 1-part
    parity(x0 (p0 + p1) + x1 p1) and the omega-part parity(x0 p1 + x1 p0):
    each is the parity of x AND one packed mask of p, conj(p) and p with
    its planes swapped.  Norms are kept, not recomputed: a norm is the
    parity of the weight, and f + a pick with a = <f, pick> has norm
    <f, f> + 3 a conj(a) (as <pick, pick> = 1), which differs from <f, f>
    exactly when a != 0.
    """
    rows = np.asarray(rows, dtype=np.uint8)
    cols = rows.shape[1]
    low = (1 << cols) - 1
    remaining = gf4.pack_rows(rows)

    def inners(p: int) -> list[int]:
        """<x, p> for every remaining row x."""
        p0, p1 = p & low, p >> cols
        one, omega = (p0 ^ p1) | p1 << cols, p1 | p0 << cols
        return [((x & one).bit_count() & 1) | ((x & omega).bit_count() & 1) << 1 for x in remaining]

    def multiples(p: int) -> tuple[int, int, int, int]:
        """p times 0, 1, omega and omega^2: (l, h) times omega is (h, l ^ h)."""
        l, h = p & low, p >> cols
        return 0, p, h | (l ^ h) << cols, (l ^ h) | l << cols

    norms = [((x | x >> cols) & low).bit_count() & 1 for x in remaining]
    out = []
    while remaining:
        if 1 in norms:
            i = norms.index(1)
            pick = remaining[i]
        else:
            # row i of the Gram matrix is zero where inners(f_i) is, since
            # <f_i, f_j> = conj(<f_j, f_i>), and a = 1 exactly when its conjugate is
            i, column = next(((i, c) for i, c in enumerate(map(inners, remaining)) if any(c)), (None, None))
            if i is None:
                raise InvariantError("no unit-norm vector found; form is degenerate")
            j = next(j for j, a in enumerate(column) if a)
            pick = remaining[i] ^ multiples(remaining[j])[2 if column[j] == 1 else 1]
        del remaining[i], norms[i]
        times = multiples(pick)
        for t, a in enumerate(inners(pick)):
            if a:
                remaining[t] ^= times[a]
                norms[t] ^= 1
        out.append(pick)
    return gf4.unpack_rows(out, cols)


def _extend(code) -> SelfDualCode:
    """The extension of a Hermitian self-orthogonal code C with RREF basis
    g, k x n, in block form.

    With f_1..f_e an orthonormal basis of a complement of C in C^perp_h,
    the extended code is (g | 0) above (f | I_e), its own Hermitian dual.
    Any other code is refused with NotApplicableError, before any walk or
    search.  g is reduced only when it is not an RREF (linalg.rref_pivots);
    a CyclicCode's gen_matrix is its RREF [I_k | P] already.  Two facts are
    read from this form instead of recomputed:
    - complement: the dual basis is the identity on g's free columns F,
      so dual row i lies in the span of C and the rows before it exactly
      when some word of C has its last nonzero F-coordinate at F[i].  Those
      i, counted from the end of F, are the pivots of one rref of g's
      columns F in reverse order, and the other rows are the ones
      linalg.complement_basis(g, dual) picks, in its order.  A CyclicCode
      needs no rref: F is k..n-1, x^(p-r) g(x) is a word of C ending at p
      for every p >= r = deg g, and every nonzero word of C has degree
      >= r, so the kept rows are the first r - k = e;
    - rank: (g | 0) is an RREF of k rows and the unit rows hold I_e where
      it is zero, so the rank is k + e when g's pivots are k unit columns.
    The Gram test of the SelfDualCode, run once, certifies that the
    extended code is self-dual.
    """
    g = dist._generators(code)
    cyclic = isinstance(code, CyclicCode)
    pivots = linalg.rref_pivots(g)
    # k unit pivot columns (0..dim-1 for a CyclicCode): g has rank k, and so
    # (g | 0) above (f | I_e) has k + e
    if cyclic:
        if pivots != list(range(code.dim)):
            raise InvariantError("extended generators are dependent")
    elif pivots is None:
        r, k, pivots = linalg.rref(g)
        g = r[:k]
        if linalg.rref_pivots(g) != pivots:
            raise InvariantError("extended generators are dependent")
    k, n = g.shape
    if k == 0:
        raise InputError("refusing the zero code (dimension must be >= 1)")
    if linalg.gram_matrix(g).any():
        raise NotApplicableError("code is not Hermitian self-orthogonal", failed=["C <= C^perp_h"])
    dual = linalg.hermitian_dual_space(g)
    e = dual.shape[0] - k
    if cyclic:
        kept = dual[:e]
    else:
        free = np.delete(np.arange(n), pivots)
        # dual row i is dropped when a word of C ends at free[i]
        keep = np.ones(len(free), dtype=bool)
        keep[[len(free) - 1 - p for p in linalg.rref(g[:, free[::-1]])[2]]] = False
        kept = dual[keep]
    ortho = _hermitian_orthonormalize(kept)
    if ortho.shape[0] != e:
        raise InvariantError("orthonormal complement has wrong dimension")
    extended = np.zeros((k + e, n + e), dtype=np.uint8)
    extended[:k, :n] = g
    extended[k:, :n] = ortho
    extended[np.arange(k, k + e), np.arange(n, n + e)] = 1
    return SelfDualCode(gen=extended, original=g, e=e)


def _params(ext: SelfDualCode, cert: dist.ExtensionDistance, *head: str) -> QuantumParams:
    """The pure stabilizer code [[n + e, 0]] of the self-dual extension of
    an [n, k] code, with its certificate's distance and, after the head
    lines, its trace line."""
    return QuantumParams(n=ext.gen.shape[1], k=0, d=cert.bound, pure=PURE_YES, trace=(*head, cert.trace_line))


# ---------------------------------------------------------------------------
# primary constructions
# ---------------------------------------------------------------------------

def extended_duadic_quantum(
    pair: DuadicPair, budget: int = DEFAULT_BUDGET
) -> tuple[QuantumParams, SelfDualCode]:
    """[[n+1, 0, d]] from the odd-like code odd1 of a duadic pair whose
    splitting has the multiplier mu_-2.

    The even-like subcode extends by one coordinate (e = 1).  When its
    4^dim words fit the budget, the duadic pass (duadic_distances: one walk
    of the even-like code and the odd-like distribution from MacWilliams)
    gives d exactly: the extended words are the even-like words padded by 0
    and the odd-like cosets padded by a unit, so d = min(d(even), d_o + 1),
    which distance._unit_pass reads as every e = 1 pass does.  The walk
    stays duadic_distances' for the histograms that call returns and
    caches.  Otherwise extension_distance certifies the extension as it
    does every other: by its binary pass when the even-like code has a
    binary generator and its 2^dim words fit, else by the information-set
    search on an information set and its complement; the odd-like code is
    not searched on its own.
    """
    splitting = pair.splitting
    if not splitting.has_multiplier(-2):
        raise NotApplicableError(
            "splitting does not admit the multiplier mu_-2",
            failed=["mu_-2 witness"],
        )
    ext = _extend(pair.even1)
    if ext.e != 1:
        raise InvariantError(f"duadic extension produced e = {ext.e}, expected e = 1")
    # the pass walks the even-like span alone: 4^dim words
    if 4 ** pair.even1.dim <= budget:
        dd = dist.duadic_distances(splitting, budget=budget)
        cert = dist._unit_pass(dd.even_hist, dd.coset_hist, dd.work)
    else:
        cert = dist.extension_distance(ext, budget)
    params = _params(
        ext, cert,
        f"odd-like duadic n={splitting.n} leaders={list(pair.odd1.defining_set.leaders)} with mu_-2",
        "even-like subcode extended by one unit coordinate (e=1)",
    )
    return params, ext


def general_zero_dim(
    code, budget: int = DEFAULT_BUDGET
) -> tuple[QuantumParams, SelfDualCode]:
    """[[2(n-k), 0, d]] from a self-orthogonal [n, k] code, d even and
    d >= min(d(C), d(C^perp_h) + 1); also yields the classical Hermitian
    self-dual [2(n-k), n-k] code.  extension_distance certifies d: exact
    from the pass when its words fit the budget, q^k for an input with
    e = n - 2k = 1 (it walks the input) and q^(n-k) otherwise (q = 2 for a
    binary generator, else 4), else bounded by the information-set search
    on the self-dual code.  Any other code is refused (NotApplicableError)."""
    ext = _extend(code)
    k, n = ext.original.shape
    params = _params(ext, dist.extension_distance(ext, budget),
                     f"self-orthogonal [{n},{k}] input: [[2({n}-{k}), 0]] with e = {ext.e}")
    return params, ext


# perfbench/probes.py TRACED wraps this name, so it stays a module attribute
extend_nearly_self_orthogonal = general_zero_dim


def cyclic_zero_dim(a: DefiningSet, budget: int = DEFAULT_BUDGET) -> tuple[QuantumParams, SelfDualCode]:
    """[[2(n-|A|), 0, d]] from a cyclic code whose defining set misses -2A."""
    for t in sorted(a.members):
        if (-2 * t) % a.n in a.members:
            raise NotApplicableError(
                "no construction applies to this defining set",
                failed=[f"A cap -2A nonempty (witness {t} -> {(-2 * t) % a.n})"],
            )
    dual_code = CyclicCode(dual_defining_set(a))
    params, sd = general_zero_dim(dual_code, budget=budget)
    trace = list(params.trace) + [
        f"cyclic input n={a.n} leaders={list(a.leaders)}: extension applied to the Hermitian dual"
    ]
    return replace(params, trace=tuple(trace)), sd


def dual_containing_to_zero_dim(code, budget: int = DEFAULT_BUDGET) -> tuple[QuantumParams, SelfDualCode]:
    """[[2k, 0, d]] from a dual-containing [n, k] code: general_zero_dim of
    its Hermitian dual, which is self-orthogonal exactly when the code is
    dual containing (NotApplicableError otherwise) and the zero code when
    the code is the full space (InputError)."""
    return general_zero_dim(linalg.hermitian_dual_space(dist._generators(code)), budget=budget)


# ---------------------------------------------------------------------------
# secondary constructions and annotations
# ---------------------------------------------------------------------------

def secondary_constructions(q: QuantumParams) -> list[QuantumParams]:
    """One-step derived codes: [[n-1, k, d-1]] always, and additionally
    [[n-1, k+1, d-1]] when the input is pure."""
    if q.n < 2:
        raise InputError("secondary constructions need n >= 2")
    if q.d.lo < 2:
        raise InputError("secondary constructions need d >= 2")
    d_new = DistanceBound(
        lo=q.d.lo - 1,
        hi=None if q.d.hi is None else q.d.hi - 1,
        lo_src=q.d.lo_src,
        hi_src=q.d.hi_src,
        work=0,
    )
    out = []
    if q.pure == PURE_YES:
        out.append(
            QuantumParams(
                n=q.n - 1, k=q.k + 1, d=d_new, pure=PURE_UNKNOWN,
                trace=q.trace + (f"length-1 reduction (pure) from {q.params_str()}",),
            )
        )
    out.append(
        QuantumParams(
            n=q.n - 1, k=q.k, d=d_new, pure=PURE_UNKNOWN,
            trace=q.trace + (f"length-1 reduction from {q.params_str()}",),
        )
    )
    return out


def secondary_chain(q: QuantumParams, steps: int) -> list[QuantumParams]:
    """Iterated k-preserving reductions: [[n-i, k, d-i]] for i = 1..steps."""
    if steps < 0:
        raise InputError(f"secondary steps must be >= 0, not {steps}")
    out = []
    cur = q
    for _ in range(steps):
        cur = secondary_constructions(cur)[-1]
        out.append(cur)
    return out


@dataclass(frozen=True)
class Annotation:
    n: int
    k: int
    d: int
    source: str


def load_annotations(path) -> list[Annotation]:
    """The {n, k, d, source} entries of a JSON list; InputError names a path
    it cannot read or whose content is not UTF-8 JSON."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as exc:
        raise InputError(f"cannot read annotation file {str(path)!r}: {exc.strerror}") from exc
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise InputError(f"annotation file {str(path)!r} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise InputError("annotation file must hold a JSON list")
    out = []
    for entry in raw:
        try:
            out.append(
                Annotation(n=int(entry["n"]), k=int(entry["k"]), d=int(entry["d"]),
                           source=str(entry["source"]))
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad annotation entry {entry!r}: {exc}") from exc
    return out


def zero_dim_from_classical_annotation(a: Annotation) -> QuantumParams:
    """[[2k, 0]] from an annotated dual-containing classical [n, k, d] code.

    The dual is an even-weight subcode, so d(dual) >= d rounded up to even;
    combined with d(output) >= min(d(dual), d + 1) this gives d + 1 for odd
    annotated d and d otherwise.
    """
    lo = a.d + 1 if a.d % 2 else a.d
    return QuantumParams(
        n=2 * a.k, k=0,
        d=DistanceBound(lo=lo, hi=None,
                        lo_src=PARITY if a.d % 2 else LITERATURE, hi_src=BUDGET),
        pure=PURE_UNKNOWN,
        trace=(
            f"annotated dual-containing [{a.n},{a.k},{a.d}] ({a.source})",
            f"[[{2 * a.k},0]]: d >= min(d(dual), d + 1) = {lo} (dual has even weights)",
        ),
    )
