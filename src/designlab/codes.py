"""Binary codes, their shells as block families, and discrete harmonics.

Codewords and block supports are bitmasks (bit i = coordinate i).  The
discrete harmonic space Harm_k on k-subsets of an n-set is realized through
its difference-product basis: for disjoint pairs (a_1,b_1),...,(a_k,b_k) the
function

    f(z) = prod_i ( [b_i in z] - [a_i in z] )     (z a k-subset)

lies in the kernel of the boundary map gamma whenever its 2k points are
distinct, and the pair systems read off standard two-row Young tableaux give
exactly dim = C(n,k) - C(n,k-1) of them, a basis, built as one pair array
from which elements are built when read.  One check (``_distinct_in_range``)
certifies every pair system, of a basis or built by hand: its 2k points are
distinct and lie in range(n).  That is all ker gamma needs: a (k-1)-subset
y that is a partial transversal missing pair j extends to a transversal
only by a_j or b_j, two terms that cancel, and any other y extends to none.
Sums of f-tilde over word supports are products of factors in {-1, 0, 1},
exact in one int8 kernel, which makes Delsarte-style checks cheap.  Lambda
counting sorts the lexicographic rank of each covered t-subset, built from
two tables of half-subset sums.
"""

from __future__ import annotations

import functools
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from ._fixtures import fixture_path
from .errors import CapExceededError, InternalCheckError
from .qseries import _int_convolve

__all__ = [
    "BinaryCode", "BlockFamily", "DiscreteHarmonic",
    "code_from_rows", "code_from_text",
    "hamming_e8", "golay_g24", "d16_plus", "direct_sum",
    "is_doubly_even", "is_self_dual", "min_weight", "weight_distribution",
    "shell", "design_lambda", "LambdaResult",
    "harm_dim", "harm_basis", "harmonic_family_sums",
    "delsarte_design_check", "two_weight_design_check", "TwoWeightReport",
    "harmonic_weight_enumerator", "antisymmetry_check", "AntisymmetryReport",
    "divisibility_structure_check", "DivisibilityReport",
]

WORD_CAP_LOG2 = 24          # refuse to enumerate more than 2^24 codewords
TABLEAU_CAP = 100_000       # cap on C(n, k) when building harmonic bases
LAMBDA_CAP = 1 << 24        # cap on the t-subsets design_lambda lists


# ---------------------------------------------------------------------------
# codes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinaryCode:
    """A binary linear code given by a row-reduced generator matrix."""
    n: int
    gens: tuple[int, ...]
    name: str = ""

    def __post_init__(self):
        if not 1 <= self.n <= 32:
            raise ValueError("code length must be between 1 and 32")

    @property
    def k(self) -> int:
        return len(self.gens)


def _rref(rows: list[int]) -> tuple[int, ...]:
    """GF(2) reduced row echelon form, one row per pivot bit."""
    piv: dict[int, int] = {}
    for r in rows:
        while r:
            h = r.bit_length() - 1
            if h in piv:
                r ^= piv[h]
            else:
                piv[h] = r
                break
    for h in sorted(piv, reverse=True):
        for h2 in piv:
            if h2 != h and piv[h2] >> h & 1:
                piv[h2] ^= piv[h]
    return tuple(sorted(piv.values(), reverse=True))


def code_from_rows(n: int, rows: list[int], name: str = "") -> BinaryCode:
    """Build a code from generator bitmask rows (reduced internally)."""
    for r in rows:
        if r >> n:
            raise ValueError("generator row exceeds code length")
    return BinaryCode(n, _rref(rows), name)


def code_from_text(text: str, name: str = "") -> BinaryCode:
    """Parse a generator matrix written as lines of 0/1 characters."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("a generator matrix needs at least one row")
    n = len(lines[0])
    rows = []
    for ln in lines:
        if len(ln) != n or set(ln) - {"0", "1"}:
            raise ValueError(f"bad generator row: {ln!r}")
        rows.append(sum(1 << i for i, ch in enumerate(ln) if ch == "1"))
    return code_from_rows(n, rows, name)


@functools.lru_cache(maxsize=None)
def codewords(code: BinaryCode) -> tuple[int, ...]:
    """All 2^k codewords as bitmasks (Gray-code order, cached)."""
    if code.k > WORD_CAP_LOG2:
        raise CapExceededError(
            f"2^{code.k} codewords exceed the enumeration cap")
    words = [0] * (1 << code.k)
    w = 0
    for i in range(1, 1 << code.k):
        w ^= code.gens[(i & -i).bit_length() - 1]
        words[i] = w
    return tuple(words)


# -- fixtures ----------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def hamming_e8() -> BinaryCode:
    """The [8,4,4] extended Hamming code (first-order Reed-Muller)."""
    return code_from_text(fixture_path("codes", "hamming8.txt").read_text(),
                          name="hamming8")


@functools.lru_cache(maxsize=None)
def golay_g24() -> BinaryCode:
    """The [24,12,8] extended binary Golay code."""
    return code_from_text(fixture_path("codes", "golay24.txt").read_text(),
                          name="golay24")


@functools.lru_cache(maxsize=None)
def d16_plus() -> BinaryCode:
    """The indecomposable [16,8,4] doubly even self-dual code."""
    return code_from_text(fixture_path("codes", "d16plus.txt").read_text(),
                          name="d16plus")


def direct_sum(a: BinaryCode, b: BinaryCode, name: str = "") -> BinaryCode:
    rows = list(a.gens) + [g << a.n for g in b.gens]
    return code_from_rows(a.n + b.n, rows,
                          name or f"{a.name}+{b.name}")


# -- predicates --------------------------------------------------------------

def is_doubly_even(code: BinaryCode) -> bool:
    """All codeword weights divisible by 4.

    Checked on generators: doubly even generators with pairwise even
    intersections generate a doubly even code (weights add mod 4 via
    wt(u+v) = wt(u) + wt(v) - 2|u&v|).
    """
    gens = code.gens
    if any(g.bit_count() % 4 for g in gens):
        return False
    return all((gens[i] & gens[j]).bit_count() % 2 == 0
               for i in range(len(gens)) for j in range(i + 1, len(gens)))


def is_self_dual(code: BinaryCode) -> bool:
    if 2 * code.k != code.n:
        return False
    gens = code.gens
    return all((gens[i] & gens[j]).bit_count() % 2 == 0
               for i in range(len(gens)) for j in range(i, len(gens)))


def weight_distribution(code: BinaryCode) -> list[int]:
    out = [0] * (code.n + 1)
    for w in codewords(code):
        out[w.bit_count()] += 1
    return out


def min_weight(code: BinaryCode) -> int:
    return min(w.bit_count() for w in codewords(code) if w)


# ---------------------------------------------------------------------------
# block families and brute-force design counting
# ---------------------------------------------------------------------------

def _read_only(arr: np.ndarray) -> np.ndarray:
    """A copy of an array over an immutable ``bytes`` buffer: unlike a
    read-only flag, no caller can turn it, a view or its base writeable."""
    return np.frombuffer(arr.tobytes(), dtype=arr.dtype).reshape(arr.shape)


def _int_dtype(bound: int) -> np.dtype:
    """The one integer-width rule: the narrowest of int8 to int64 holding
    every value in [-bound, bound], else Python ints (object)."""
    for dt in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dt).max:
            return np.dtype(dt)
    return np.dtype(object)


def _combinations(n: int, k: int) -> np.ndarray:
    """The rows of ``itertools.combinations(range(n), k)``, 0 <= k <= n, as
    one intp table, built a column at a time: ``np.repeat`` extends each row
    by every point after its last one that leaves room for the columns
    still to come.
    """
    rows = np.zeros((1, 0), dtype=np.intp)
    for i in range(k):
        start = rows[:, -1] + 1 if i else np.zeros(1, dtype=np.intp)
        widths = n - k + i + 1 - start
        parent = np.repeat(np.arange(len(rows)), widths)
        ends = np.cumsum(widths)
        grown = np.empty((len(parent), i + 1), dtype=np.intp)
        grown[:, :i] = rows[parent]
        grown[:, i] = (start[parent] + np.arange(len(parent))
                       - np.repeat(ends - widths, widths))
        rows = grown
    return rows


_SCAN = 1 << 16             # entries per chunk of a scan


def _points(masks, n: int) -> np.ndarray:
    """Transposed incidence, points x masks: row p holds [p in u] as int8."""
    arr = np.array(masks, dtype=_int_dtype((1 << n) - 1))
    out = np.empty((n, len(arr)), dtype=np.int8)
    shifts = np.arange(n, dtype=arr.dtype)[:, None]
    for lo in range(0, len(arr), _SCAN):
        out[:, lo:lo + _SCAN] = arr[lo:lo + _SCAN] >> shifts & 1
    return out


@dataclass(frozen=True)
class BlockFamily:
    """A family of distinct subsets of an n-set, stored as bitmasks."""
    n: int
    blocks: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.blocks)) != len(self.blocks):
            raise ValueError("blocks repeat")
        if any(b < 0 or b >> self.n for b in self.blocks):
            raise ValueError(f"a block is not a subset of range({self.n})")

    def union(self, other: "BlockFamily") -> "BlockFamily":
        if self.n != other.n:
            raise ValueError(f"families on {self.n} and {other.n} points")
        return BlockFamily(self.n, self.blocks + other.blocks)


def shell(code: BinaryCode, w: int) -> BlockFamily:
    """Supports of the weight-w codewords."""
    masks = tuple(c for c in codewords(code) if c.bit_count() == w)
    return BlockFamily(code.n, masks)


@dataclass(frozen=True)
class LambdaResult:
    is_design: bool
    lam: int | None
    witness: tuple[tuple[int, ...], int, tuple[int, ...], int] | None


def _subset_ranks(support: np.ndarray, n: int, t: int,
                  dtype: np.dtype) -> np.ndarray:
    """Lex ranks among the t-subsets of range(n) of the t-subsets of each
    row of ``support`` (one block's points, ascending), a row per block and
    each row in lexicographic order.

    The rank of c_0 < ... < c_{t-1} is C(n,t) - 1 - sum_i C(n-1-c_i, t-i),
    a sum of one term per (point, position).  A subset is a head, its first
    h = t // 2 points, and a tail; each block sums its terms once per head
    and once per tail, and a subset's rank is one head sum plus one tail
    sum.  After a head ending at support index m come, in lexicographic
    order, the last C(w-1-m, t-h) tails.
    """
    w, h = support.shape[1], t // 2
    # the i-th point of a subset is at least i, so only C(x, t-i) with
    # x <= n-1-i is read, and that is at most C(n, t): it fits the dtype
    binom = np.array([[comb(x, t - i) if x + i < n else 0 for i in range(t)]
                      for x in range(n)], dtype=dtype)
    terms = binom[n - 1 - support]      # (block, support index, position)
    heads = _combinations(w - (t - h), h)
    tails = _combinations(w - h, t - h) + h
    head_sums = np.full((len(support), len(heads)), comb(n, t) - 1, dtype)
    for i in range(h):
        head_sums -= terms[:, heads[:, i], i]
    tail_sums = np.zeros((len(support), len(tails)), dtype)
    for i in range(t - h):
        tail_sums -= terms[:, tails[:, i], h + i]
    last = heads[:, -1] if h else np.full(1, -1)
    start = tails[:, 0].searchsorted(last, side="right")
    follow = len(tails) - start
    head_of = np.repeat(np.arange(len(heads)), follow)
    tail_of = np.arange(len(head_of)) + np.repeat(
        start - np.cumsum(follow) + follow, follow)
    ranks = head_sums.take(head_of, axis=1)
    ranks += tail_sums.take(tail_of, axis=1)
    return ranks


def _unrank(rank: int, n: int, t: int) -> tuple[int, ...]:
    """The t-subset of range(n) with lexicographic rank ``rank``: the
    greedy combinadic of C(n,t) - 1 - rank = sum_i C(n-1-c_i, t-i)."""
    rest, x, out = comb(n, t) - 1 - rank, n, []
    for i in range(t):
        x -= 1
        while comb(x, t - i) > rest:
            x -= 1
        rest -= comb(x, t - i)
        out.append(n - 1 - x)
    return tuple(out)


def design_lambda(family: BlockFamily, t: int) -> LambdaResult:
    """Brute-force t-design check: count blocks over every t-subset.

    The covered t-subsets are listed by their lexicographic ranks, block by
    block and each block's in lexicographic order, built from two tables of
    half-subset rank sums per block (``_subset_ranks``), and counted by one
    sort.  Returns the common count lambda, or a witness pair with different
    counts: the first listed subsets with the least and the largest count,
    or the lexicographically first uncovered subset (the first gap in the
    sorted ranks) in place of the least.  Any family is counted, mixed block
    sizes included.  A listing of more than ``LAMBDA_CAP`` subsets is
    refused before any array is built.
    """
    if not 0 <= t <= family.n:
        raise ValueError(f"t must lie in 0..{family.n}")
    if t == 0:
        return LambdaResult(True, len(family.blocks), None)
    n, total = family.n, comb(family.n, t)
    sizes = [b.bit_count() for b in family.blocks]
    per_size = Counter(sizes)
    listed = sum(comb(w, t) * m for w, m in per_size.items())
    if listed > LAMBDA_CAP:
        raise CapExceededError(
            f"{listed} listed {t}-subsets exceed the cap {LAMBDA_CAP}")
    if not listed:
        return LambdaResult(True, 0, None)
    support = (-_points(family.blocks, n).T).argsort(axis=1, kind="stable")
    # one table per block size, so each holds exactly its blocks' subsets
    widths = sorted(w for w in per_size if w >= t)
    sizes = np.array(sizes)
    groups = [np.flatnonzero(sizes == w) for w in widths]
    ranks = [_subset_ranks(support[g, :w], n, t, _int_dtype(total))
             for g, w in zip(groups, widths)]
    ordered = np.concatenate([r.ravel() for r in ranks])
    ordered.sort()
    starts = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    starts = starts.nonzero()[0]
    keys = ordered[starts]
    counts = np.concatenate((starts[1:], [len(ordered)])) - starts
    least, most = int(counts.min()), int(counts.max())
    if least == most and len(keys) == total:
        return LambdaResult(True, least, None)

    def first(count) -> tuple[int, ...]:
        # each size group is scanned in listing order, a chunk of blocks at
        # a time, up to its first hit; the earliest (block, position) wins
        wanted, hits = keys[counts == count], []
        for g, r in zip(groups, ranks):
            step = max(1, _SCAN // r.shape[1])
            for lo in range(0, len(r), step):
                part = r[lo:lo + step]
                pos = np.minimum(wanted.searchsorted(part), len(wanted) - 1)
                hit = wanted[pos] == part
                if hit.any():
                    b, j = np.unravel_index(hit.argmax(), hit.shape)
                    hits.append((g[lo + b], j, int(part[b, j])))
                    break
        return _unrank(min(hits)[2], n, t)

    if len(keys) == total:
        return LambdaResult(False, None, (first(least), least,
                                          first(most), most))
    # some t-subset is covered zero times: the first gap in the sorted ranks
    gap = np.flatnonzero(keys != np.arange(len(keys)))
    missing = int(gap[0]) if len(gap) else len(keys)
    return LambdaResult(False, None, (_unrank(missing, n, t), 0,
                                      first(most), most))


# ---------------------------------------------------------------------------
# discrete harmonics
# ---------------------------------------------------------------------------

def _distinct_in_range(pairs: np.ndarray, n: int) -> bool:
    """Whether every pair system of a (len, k, 2) array has 2k distinct
    points in range(n): the one condition under which its difference
    product lies in ker gamma and ``_tilde_sums`` reads it exactly."""
    flat = np.sort(pairs.reshape(len(pairs), 2 * pairs.shape[1]), axis=1)
    return bool((flat[:, :1] >= 0).all() and (flat[:, -1:] < n).all()
                and (flat[:, 1:] != flat[:, :-1]).all())


@dataclass(frozen=True)
class DiscreteHarmonic:
    """An element of Harm_k, a function on k-subsets killed by gamma: the
    difference product of its k pairs (a_i, b_i), whose 2k points must be
    distinct and lie in range(n).  The constant (k = 0) has no pairs."""
    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        pairs = np.array(self.pairs, dtype=object).reshape(1, self.degree, 2)
        if not _distinct_in_range(pairs, self.n):
            raise ValueError(f"a pair system needs {2 * self.degree} "
                             f"distinct points in range({self.n})")

    @property
    def degree(self) -> int:
        return len(self.pairs)

    @classmethod
    def _certified(cls, n: int, pairs) -> "DiscreteHarmonic":
        """An element over a pair system that its basis has certified: the
        fields are set without running the check again."""
        f = object.__new__(cls)
        f.__dict__.update(n=n, pairs=pairs)
        return f


def _harm_degree(n: int, k: int) -> None:
    """The one Harm_k degree rule: k must lie in 0..n (``ValueError``) and
    C(n, k) within ``TABLEAU_CAP`` (``CapExceededError``)."""
    if not 0 <= k <= n:
        raise ValueError(f"harmonic degree {k} must lie in 0..{n}")
    if comb(n, k) > TABLEAU_CAP:
        raise CapExceededError(f"C({n},{k}) exceeds cap {TABLEAU_CAP}")


def harm_dim(n: int, k: int) -> int:
    """dim Harm_k = C(n,k) - C(n,k-1), zero once k exceeds n/2."""
    if k == 0:
        return 1
    return max(0, comb(n, k) - comb(n, k - 1))


def _tableau_pairs(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Pair systems (a, b): b holds the rows c of combinations(range(n), k)
    with c_i >= 2i+1, a the k smallest points outside each (all below 2k)."""
    b = _combinations(n, k)
    b = b[(b >= 2 * np.arange(k) + 1).all(axis=1)]
    member = np.zeros((len(b), 2 * k + 1), dtype=bool)
    np.put_along_axis(member, np.minimum(b, 2 * k), True, axis=1)
    a = np.argsort(member[:, :2 * k], axis=1, kind="stable")[:, :k]
    return a, b


@dataclass(frozen=True, eq=False)
class _HarmBasis(Sequence):
    """Harm_k as its pair systems: ``pairs`` is one (len, k, 2) array over
    an immutable buffer (``_read_only``), in the dtype ``_int_dtype(n)``.
    An element is built when it is read, with no second check of its
    certified system (``DiscreteHarmonic._certified``); a slice is a tuple.
    """
    n: int
    pairs: np.ndarray

    def __len__(self) -> int:
        return len(self.pairs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return tuple(self[j] for j in range(*i.indices(len(self))))
        return DiscreteHarmonic._certified(
            self.n, tuple(map(tuple, self.pairs[i].tolist())))


@functools.lru_cache(maxsize=32)
def harm_basis(n: int, k: int) -> Sequence[DiscreteHarmonic]:
    """Difference-product basis of Harm_k from standard two-row tableaux.

    Pair systems are the columns of standard Young tableaux of shape
    (n-k, k): second rows c_0 < ... < c_{k-1} with c_i >= 2i+1, each paired
    with the matching order statistic of the complement; the constant
    (k = 0) is the one empty system.  Every system is certified in ker
    gamma by the check ``DiscreteHarmonic`` runs (``_distinct_in_range``):
    its 2k points are distinct and lie in range(n).  The degree passes
    ``_harm_degree`` first.
    """
    _harm_degree(n, k)
    a, b = _tableau_pairs(n, k)
    if len(b) != harm_dim(n, k):
        raise InternalCheckError("tableau count mismatch")
    pairs = np.stack([a, b], axis=2)
    if not _distinct_in_range(pairs, n):
        raise InternalCheckError("a pair system repeats a point or leaves "
                                 f"range({n}), so it may escape ker gamma")
    return _HarmBasis(n, _read_only(pairs.astype(_int_dtype(n))))


# ---------------------------------------------------------------------------
# batch evaluation of harmonic sums
# ---------------------------------------------------------------------------

_KERNEL_CELLS = 1 << 20     # int8 cells per chunk of the product table


def _pair_array(basis) -> np.ndarray:
    """The (len, k, 2) pair array of harmonics of one degree k; a
    ``harm_basis`` result holds its own."""
    if isinstance(basis, _HarmBasis):
        return basis.pairs
    k = basis[0].degree if len(basis) else 0
    return np.array([f.pairs for f in basis],
                    dtype=np.intp).reshape(len(basis), k, 2)


def _tilde_sums(pairs: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Sum of f-tilde over the masks of ``points`` (``_points``), per pair
    system of a (len, k, 2) array: products of factors [b_i in u] -
    [a_i in u] in {-1, 0, 1}, exact in int8, summed in int64.  The chunks
    reuse buffers allocated once per call, so its page faults do not
    depend on what earlier calls freed."""
    a, b = pairs[:, :, 0], pairs[:, :, 1]
    out = np.empty(len(pairs), dtype=np.int64)
    step = max(1, min(len(pairs), _KERNEL_CELLS // max(1, points.shape[1])))
    bufs = np.empty((3, step, points.shape[1]), dtype=np.int8)
    for lo in range(0, len(pairs), step):
        hi = min(lo + step, len(pairs))
        prod, ins, outs = bufs[:, :hi - lo]
        prod.fill(1)
        for i in range(a.shape[1]):
            np.take(points, b[lo:hi, i], axis=0, out=ins, mode="clip")
            np.take(points, a[lo:hi, i], axis=0, out=outs, mode="clip")
            prod *= np.subtract(ins, outs, out=ins)
        out[lo:hi] = prod.sum(axis=1, dtype=np.int64)
    return out


def _complement_half(family: BlockFamily) -> tuple[int, ...] | None:
    """The blocks u < u-bar of a family closed under complement, u-bar =
    u ^ (2^n - 1), in family order; None when some complement is missing."""
    full = (1 << family.n) - 1
    blocks = set(family.blocks)
    if any(full ^ u not in blocks for u in family.blocks):
        return None
    return tuple(u for u in family.blocks if u < full ^ u)


def harmonic_family_sums(basis, family: BlockFamily) -> list[int]:
    """Exact sums over the family of f-tilde, one per basis element.

    A difference product of degree k has f-tilde(u-bar) = (-1)^k
    f-tilde(u), so on a family closed under complement the odd-degree sums
    are zero and the even-degree sums are twice those over half the blocks.
    Every harmonic must live on the family's n points.
    """
    ns = ({basis.n} if isinstance(basis, _HarmBasis)
          else {f.n for f in basis})
    if ns - {family.n}:
        raise ValueError(f"harmonics on {sorted(ns)} points, a family on "
                         f"{family.n}")
    pairs = _pair_array(basis)
    half = _complement_half(family)
    if half is None:
        return _tilde_sums(pairs, _points(family.blocks, family.n)).tolist()
    if pairs.shape[1] % 2:
        return [0] * len(pairs)
    return (2 * _tilde_sums(pairs, _points(half, family.n))).tolist()


def delsarte_design_check(family: BlockFamily, degrees) -> dict[int, tuple[bool, int | None]]:
    """Harmonic-sum criterion per degree: zero sums across a Harm_j basis.

    Returns {j: (passes, witness basis index or None)}.  Every degree
    meets ``harm_basis``'s rule (``_harm_degree``) before any work, odd ones
    on a closed family included.  On a family closed under complement every
    odd degree passes with no basis built (see ``harmonic_family_sums``).
    """
    degrees = sorted(set(degrees))
    for j in degrees:
        _harm_degree(family.n, j)
    closed = _complement_half(family) is not None
    out = {}
    for j in degrees:
        if j == 0 or closed and j % 2:
            out[j] = (True, None)
            continue
        basis = harm_basis(family.n, j)
        sums = harmonic_family_sums(basis, family)
        bad = next((i for i, s in enumerate(sums) if s != 0), None)
        out[j] = (bad is None, bad)
    return out


@dataclass(frozen=True)
class TwoWeightReport:
    n: int
    weights: tuple[int, int]
    family_size: int
    verdicts: dict[int, tuple[bool, int | None]]
    complement_closed: bool     # odd degrees passed by the complement

    def passes(self, degrees) -> bool:
        return all(self.verdicts[j][0] for j in degrees)


def two_weight_design_check(code: BinaryCode, ell: int, degrees) -> TwoWeightReport:
    """Design test for the union of the weight-ell and weight-(n-ell) shells.

    The degree-1 verdict is exactly the statement that all points are
    covered equally often by the union family.  The union is closed under
    complement when the code holds the all-ones word.  A pair with no
    codewords is refused (``ValueError``) before any basis is built.
    """
    fam = shell(code, ell)
    if 2 * ell != code.n:       # the middle shell is its own complement
        fam = fam.union(shell(code, code.n - ell))
    if not fam.blocks:
        raise ValueError(f"no codewords of weight {ell} or {code.n - ell}")
    verdicts = delsarte_design_check(fam, degrees)
    return TwoWeightReport(code.n, (ell, code.n - ell), len(fam.blocks),
                           verdicts, _complement_half(fam) is not None)


# ---------------------------------------------------------------------------
# harmonic weight enumerators
# ---------------------------------------------------------------------------

def harmonic_weight_enumerator(code: BinaryCode, f: DiscreteHarmonic) -> tuple[Fraction, ...]:
    """Coefficients c_0..c_n with c_w = sum of f-tilde over weight-w words."""
    if f.n != code.n:
        raise ValueError(f"a harmonic on {f.n} points, a code of length "
                         f"{code.n}")
    row = _hwe_batch(code, _pair_array((f,)))[0]
    return tuple(map(Fraction, row.tolist()))


def _hwe_batch(code: BinaryCode, pairs: np.ndarray) -> np.ndarray:
    """Stacked harmonic weight enumerators, one row per pair system."""
    points = _points(codewords(code), code.n)
    weights = points.sum(axis=0)
    out = np.zeros((len(pairs), code.n + 1), dtype=np.int64)
    for w in np.flatnonzero(np.bincount(weights)):
        out[:, w] = _tilde_sums(pairs, points[:, weights == w])
    return out


@dataclass(frozen=True)
class AntisymmetryReport:
    """``tested`` counts the Harm_k basis elements, every one of them, and
    ``witness`` is (basis index, weight) of the first failure."""
    mode: str                 # always "full basis"
    tested: int
    ok: bool
    witness: tuple[int, int] | None


def antisymmetry_check(code: BinaryCode, k: int) -> AntisymmetryReport:
    """Verify c(i) + c(n-i) = 0 for the harmonic weight enumerators of odd
    degree k, over the full Harm_k basis: antisymmetry is linear, so the
    verdict is a proof for all of Harm_k.
    """
    if k % 2 == 0:
        raise ValueError("antisymmetry concerns odd degrees")
    basis = harm_basis(code.n, k)
    table = _hwe_batch(code, basis.pairs)
    bad = np.argwhere(table + table[:, ::-1] != 0)
    witness = tuple(bad[0].tolist()) if len(bad) else None
    return AntisymmetryReport("full basis", len(basis), witness is None,
                              witness)


# ---------------------------------------------------------------------------
# invariant-ring divisibility structure
# ---------------------------------------------------------------------------

def _conv(p: list[int], q: list[int]) -> list[int]:
    return _int_convolve(p, q, len(p) + len(q) - 1)


def _bachoc_polynomials() -> dict[int, list[int]]:
    """Generators of the relevant invariant ring, as y-coefficient lists."""
    x8y8 = [1, 0, 0, 0, 0, 0, 0, 0, -1]            # x^8 - y^8
    x8_34 = [1, 0, 0, 0, -34, 0, 0, 0, 1]          # x^8 - 34 x^4 y^4 + y^8
    x4y4 = [1, 0, 0, 0, -1]                        # x^4 - y^4
    p8 = [1, 0, 0, 0, 14, 0, 0, 0, 1]
    p12 = _conv([0, 0, 1], _conv(x4y4, x4y4))       # x^2 y^2 (x^4-y^4)^2
    p18 = _conv([0, 1], _conv(x8y8, x8_34))         # x y (...)(...)
    p24 = _conv([0, 0, 0, 0, 1],
                _conv(_conv(x4y4, x4y4), _conv(x4y4, x4y4)))
    p30 = _conv(p12, p18)
    return {8: p8, 12: p12, 18: p18, 24: p24, 30: p30}


def _poly_divides(divisor: list[int], divisor_degree: int,
                  target: list[Fraction]) -> bool:
    """Exact divisibility of homogeneous bivariate forms.

    Both forms are given as y-power coefficient lists; the target's
    homogeneous degree is len(target) - 1.  Division runs on the y-lists,
    and the quotient's y-degree is checked against the degree budget so the
    quotient really is a form (no negative x powers).
    """
    if all(c == 0 for c in target):
        return True
    lo = next(i for i, c in enumerate(divisor) if c)
    tlo = next(i for i, c in enumerate(target) if c)
    if tlo < lo or len(target) < len(divisor):
        return False
    quotient_budget = len(target) - 1 - divisor_degree
    work = [Fraction(c) for c in target]
    qlen = len(target) - len(divisor) + 1
    for m in range(qlen):
        q = work[m + lo] / divisor[lo]
        if q:
            if m > quotient_budget:
                return False
            for j in range(lo, len(divisor)):
                work[m + j] -= q * divisor[j]
    return all(c == 0 for c in work)


@dataclass(frozen=True)
class DivisibilityReport:
    degree: int
    zero_range_ok: bool
    factor_degree: int | None
    factor_divides: bool | None
    enumerator_is_zero: bool


def divisibility_structure_check(code: BinaryCode, f: DiscreteHarmonic) -> DivisibilityReport:
    """Structural constraints on a harmonic weight enumerator.

    Checks the forced zero coefficient ranges i < k and i > n-k, and the
    extra polynomial factor demanded by k mod 4 (degree 30 / 12 / 18 for
    k = 1, 2, 3 mod 4; none for k = 0 mod 4).
    """
    k = f.degree
    coeffs = harmonic_weight_enumerator(code, f)
    n = code.n
    zero_ok = all(coeffs[i] == 0 for i in range(n + 1)
                  if (i < k or i > n - k) and k >= 1)
    table = {1: 30, 2: 12, 3: 18, 0: None}
    fdeg = table[k % 4]
    divides = None
    if fdeg is not None:
        divides = _poly_divides(_bachoc_polynomials()[fdeg], fdeg,
                                list(coeffs))
    return DivisibilityReport(k, zero_ok, fdeg, divides,
                              all(c == 0 for c in coeffs))
