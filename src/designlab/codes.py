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
exact in one int8 kernel, which makes Delsarte-style checks cheap.

Each code holds its 2^k codewords as one read-only int64 array, cached for
the last few codes (``codewords``): shells, the weight distribution and the
harmonic weight enumerators all read it, so every shell lists its blocks in
the same Gray-code order.  A block family is one read-only array of masks
too, checked by array operations.  Lambda counting takes block sizes by
``np.bitwise_count`` and each size group's supports from one incidence
table, lists the lexicographic rank of each covered t-subset, built from two
tables of half-subset sums, a tile of at most ``_LAMBDA_TILE`` ranks at a
time in two buffers reused from tile to tile, and counts them in place in
one table over all C(n,t) ranks, or by one sort when fewer than C(n,t) are
listed, so it holds min(listed, C(n,t)) counts and one tile.  Each function
that runs array code imports numpy itself, so importing this module does not
load it.

A code shell is first offered to the Assmus-Mattson theorem, which reads
only the code's weight distribution, counted once per request, and its
dual's by the MacWilliams transform (``macwilliams``, Krawtchouk values by
their three-term recurrence in exact integers); ``assmus_mattson`` and
``min_weight`` take a distribution A_0..A_n too, not a code (``_code_size``
refuses one that no linear code has).  A proved strength t gives
lambda = A_w C(w,t) / C(n,t) with no block family built and no subset listed
(``shell_design_report``); only the other requests are listed.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import NamedTuple

from ._fixtures import fixture_text
from .errors import CapExceededError, InternalCheckError
from .qseries import _int_convolve

__all__ = [
    "BinaryCode", "BlockFamily", "DiscreteHarmonic",
    "code_from_rows", "code_from_text",
    "hamming_e8", "golay_g24", "d16_plus", "direct_sum",
    "is_doubly_even", "is_self_dual", "min_weight", "weight_distribution",
    "shell", "design_lambda",
    "macwilliams", "assmus_mattson", "shell_design_report",
    "ShellDesignReport", "Verdict",
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
        if len(ln) != n or ln.strip("01"):
            raise ValueError(f"bad generator row: {ln!r}")
        rows.append(int(ln[::-1], 2))       # character i is bit i
    return code_from_rows(n, rows, name)


@functools.lru_cache(maxsize=4)     # 128 MiB a code at the cap
def codewords(code: BinaryCode) -> np.ndarray:
    """All 2^k codewords as one read-only int64 array of bitmasks, held
    for the last four codes asked (room for the three bundled ones), in
    Gray-code order: word i is the sum of the generators at the set bits
    of i ^ (i >> 1).  The array doubles once per generator j, its first
    2^j words followed by the same words in reverse order plus generator j,
    which is the reflected Gray code."""
    import numpy as np
    if code.k > WORD_CAP_LOG2:
        raise CapExceededError(
            f"2^{code.k} codewords exceed the enumeration cap")
    words = np.zeros(1 << code.k, dtype=np.int64)
    for j, g in enumerate(code.gens):
        words[1 << j:2 << j] = words[:1 << j][::-1] ^ g
    return _read_only(words)


# -- fixtures ----------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def hamming_e8() -> BinaryCode:
    """The [8,4,4] extended Hamming code (first-order Reed-Muller)."""
    return code_from_text(fixture_text("codes", "hamming8.txt"),
                          name="hamming8")


@functools.lru_cache(maxsize=None)
def golay_g24() -> BinaryCode:
    """The [24,12,8] extended binary Golay code."""
    return code_from_text(fixture_text("codes", "golay24.txt"),
                          name="golay24")


@functools.lru_cache(maxsize=None)
def d16_plus() -> BinaryCode:
    """The indecomposable [16,8,4] doubly even self-dual code."""
    return code_from_text(fixture_text("codes", "d16plus.txt"),
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
    import numpy as np
    weights = np.bitwise_count(codewords(code))
    return np.bincount(weights, minlength=code.n + 1).tolist()


def _code_size(dist: Sequence[int]) -> int:
    """|C| = sum A_i of a weight distribution A_0..A_n (n = len - 1),
    refused (``ValueError``) when no linear code has it: A_0 must be 1, no
    A_i negative, and the sum a power of two."""
    size = sum(dist)
    if not dist or dist[0] != 1 or min(dist) < 0 or size & (size - 1):
        raise ValueError("not a linear code's weight distribution: A_0 must "
                         "be 1, no A_i negative and the sum a power of 2")
    return size


def min_weight(dist: Sequence[int]) -> int:
    """The minimum distance d, the least nonzero weight of a distribution
    (``_code_size``); a zero-dimensional code has none (``ValueError``)."""
    _code_size(dist)
    d = next((i for i in range(1, len(dist)) if dist[i]), None)
    if d is None:
        raise ValueError("a zero-dimensional code has no minimum weight")
    return d


# ---------------------------------------------------------------------------
# block families and brute-force design counting
# ---------------------------------------------------------------------------

def _read_only(arr: np.ndarray) -> np.ndarray:
    """The array over an immutable ``bytes`` buffer: unlike a read-only
    flag, no caller can turn it, a view or its base writeable.  An array
    already over such a buffer, a view of one included, is returned as it
    is; any other is copied into one."""
    import numpy as np
    base = arr
    while isinstance(base, np.ndarray):
        base = base.base
    if isinstance(base, bytes):
        return arr
    return np.frombuffer(arr.tobytes(), dtype=arr.dtype).reshape(arr.shape)


# the largest value of each integer width, constants so that importing
# this module needs no numpy
_INT_WIDTHS = ((2 ** 7 - 1, "int8"), (2 ** 15 - 1, "int16"),
               (2 ** 31 - 1, "int32"), (2 ** 63 - 1, "int64"))


def _int_dtype(bound: int) -> np.dtype:
    """The one integer-width rule: the narrowest of int8 to int64 holding
    every value in [-bound, bound], else Python ints (object)."""
    import numpy as np
    for top, name in _INT_WIDTHS:
        if bound <= top:
            return np.dtype(name)
    return np.dtype(object)


def _combinations(n: int, k: int) -> np.ndarray:
    """The rows of ``itertools.combinations(range(n), k)``, 0 <= k <= n, as
    one intp table, built a column at a time: ``np.repeat`` extends each row
    by every point after its last one that leaves room for the columns
    still to come.
    """
    import numpy as np
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
    import numpy as np
    arr = np.array(masks, dtype=_int_dtype((1 << n) - 1))
    out = np.empty((n, len(arr)), dtype=np.int8)
    shifts = np.arange(n, dtype=arr.dtype)[:, None]
    for lo in range(0, len(arr), _SCAN):
        out[:, lo:lo + _SCAN] = arr[lo:lo + _SCAN] >> shifts & 1
    return out


def _mask_array(blocks, n: int) -> np.ndarray:
    """Bitmasks of distinct subsets of range(n) as one read-only array:
    int64 when every subset fits (n < 64), else Python ints (object).  An
    integer array is read as it is, anything else as Python integers (a
    ``TypeError`` for any other value)."""
    import numpy as np
    raw = (blocks if isinstance(blocks, np.ndarray)
           else np.asarray(blocks, dtype=object))
    if raw.ndim != 1 or raw.dtype.kind not in "iuO":
        raise ValueError("blocks are one sequence of integer bitmasks")
    if raw.dtype == object:
        raw = np.frompyfunc(operator.index, 1, 1)(raw)
    try:
        masks = np.array(raw, dtype=np.int64 if n < 64 else object)
    except OverflowError:
        raise ValueError(f"a block is not a subset of range({n})") from None
    ordered = np.sort(masks)
    # a uint64 past 2^63 - 1 wraps to a negative int64
    if len(ordered) and (ordered[0] < 0 or ordered[-1] >> n):
        raise ValueError(f"a block is not a subset of range({n})")
    if (ordered[1:] == ordered[:-1]).any():
        raise ValueError("blocks repeat")
    if masks.dtype == object:
        masks.flags.writeable = False
        return masks
    return _read_only(masks)


@dataclass(frozen=True, eq=False)
class BlockFamily:
    """A family of distinct subsets of an n-set: ``blocks`` is one
    read-only array of their bitmasks (``_mask_array``), built from any
    sequence of ints and checked when the family is made."""
    n: int
    blocks: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "blocks", _mask_array(self.blocks, self.n))

    def union(self, other: "BlockFamily") -> "BlockFamily":
        import numpy as np
        if self.n != other.n:
            raise ValueError(f"families on {self.n} and {other.n} points")
        return BlockFamily(self.n, np.concatenate((self.blocks, other.blocks)))


def shell(code: BinaryCode, w: int) -> BlockFamily:
    """Supports of the weight-w codewords, in codeword order."""
    import numpy as np
    words = codewords(code)
    return BlockFamily(code.n, words[np.bitwise_count(words) == w])


_LAMBDA_TILE = 1 << 15      # most ranks per tile of a lambda listing


def _subset_ranks(support: np.ndarray, n: int, t: int, dtype: np.dtype):
    """Yield ``(b, j, ranks)``, a tile of at most ``_LAMBDA_TILE`` ranks at a
    time: the lex ranks among the t-subsets of range(n) of the t-subsets of
    the blocks whose rows ``support`` holds (one block's points, ascending,
    all blocks of one size), each block's in lexicographic order.  Column c
    of ``ranks`` is block b + c and row r its subset at position j + r.  A
    tile holds whole blocks (j = 0) when a block has at most a tile of
    t-subsets, else a slice of one block's positions; tiles come block by
    block and position by position.  Every tile is written into the same
    two buffers, allocated once, so a tile must be read before the next one
    is taken.

    The rank of c_0 < ... < c_{t-1} is C(n,t) - 1 - sum_i C(n-1-c_i, t-i),
    a sum of one term per (point, position).  A subset is a head, its first
    h = t // 2 points, and a tail; each block sums its terms once per head
    and once per tail, and a subset's rank is one head sum plus one tail
    sum.  After a head ending at support index m come, in lexicographic
    order, the last C(w-1-m, t-h) tails, so a position's head is the first
    whose run of positions ends past it, and its tail lies as far before
    the last tail as the position lies before the end of that run.  The
    head and tail indices are built once for a whole block, or per tile for
    a block split across tiles.
    """
    import numpy as np
    w, h = support.shape[1], t // 2
    # the i-th point of a subset is at least i, so only C(x, t-i) with
    # x <= n-1-i is read, and that is at most C(n, t): it fits the dtype
    binom = np.array([[comb(x, t - i) if x + i < n else 0 for i in range(t)]
                      for x in range(n)], dtype=dtype)
    heads = _combinations(w - (t - h), h)
    tails = _combinations(w - h, t - h) + h
    last = heads[:, -1] if h else np.full(1, -1)
    ends = np.cumsum(len(tails) - tails[:, 0].searchsorted(last, side="right"))
    width, tile = int(ends[-1]), _LAMBDA_TILE

    def index(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        tail_of = np.arange(lo, hi)
        head_of = ends.searchsorted(tail_of, side="right")
        tail_of += (len(tails) - ends)[head_of]
        return head_of, tail_of

    whole = index(0, width) if width <= tile else None
    step = max(1, tile // width)
    out, more = np.empty((2, min(len(support), step) * min(width, tile)),
                         dtype)
    for b in range(0, len(support), step):
        # support index x block x term, so each head and tail sum is a row
        terms = binom[n - 1 - support[b:b + step].T]
        head_sums = np.full((len(heads), terms.shape[1]), comb(n, t) - 1,
                            dtype)
        for i in range(h):
            head_sums -= terms[heads[:, i], :, i]
        tail_sums = np.zeros((len(tails), terms.shape[1]), dtype)
        for i in range(t - h):
            tail_sums -= terms[tails[:, i], :, h + i]
        for j in range(0, width, tile):
            head_of, tail_of = whole or index(j, min(j + tile, width))
            shape = len(head_of), terms.shape[1]
            ranks = out[:shape[0] * shape[1]].reshape(shape)
            np.take(head_sums, head_of, axis=0, out=ranks, mode="clip")
            ranks += np.take(tail_sums, tail_of, axis=0, mode="clip",
                             out=more[:ranks.size].reshape(shape))
            # a split block's indices go before the next tile builds its own
            del head_of, tail_of
            yield b, j, ranks


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


def design_lambda(family: BlockFamily, t: int) -> ShellDesignReport:
    """Brute-force t-design check: count blocks over every t-subset.

    The covered t-subsets are listed by their lexicographic ranks, size
    group by size group (ascending), block by block and each block's in
    lexicographic order, a tile of at most ``_LAMBDA_TILE`` ranks at a time,
    built from two tables of half-subset rank sums per block
    (``_subset_ranks``).  A listing of at least C(n,t) subsets, as every
    design has, is counted in place into one table of C(n,t) int32 counts,
    one tile at a time (``np.bincount`` when C(n,t) fits a tile, else
    ``np.add.at``); a shorter one leaves some subset uncovered and is
    written into one array and sorted.  Either way no more than
    min(listed, C(n,t)) counts and a tile are held.  Returns the family's
    ``ShellDesignReport``: lambda, or None and a failed "listing" verdict
    whose witness (subset_a, count_a, subset_b, count_b) names the first
    listed subsets with the least and the largest count, found by listing
    again up to the first hit in each size group, or the lexicographically
    first uncovered subset in place of the least.  Any family is counted, mixed
    block sizes included.  Block sizes come from ``np.bitwise_count``, and
    a listing of more than ``LAMBDA_CAP`` subsets is refused from them,
    before the incidence (``_points``) or any rank is built.
    """
    import numpy as np
    if not 0 <= t <= family.n:
        raise ValueError(f"t must lie in 0..{family.n}")

    def report(lam, witness=None) -> ShellDesignReport:
        return ShellDesignReport(len(family.blocks), lam, {t: Verdict(
            lam is not None, "listing", witness)})

    if t == 0:
        return report(len(family.blocks))
    n, total = family.n, comb(family.n, t)
    sizes = np.bitwise_count(family.blocks).astype(np.intp)
    per_size = np.bincount(sizes).tolist()
    listed = sum(comb(w, t) * m for w, m in enumerate(per_size))
    if listed > LAMBDA_CAP:
        raise CapExceededError(
            f"{listed} listed {t}-subsets exceed the cap {LAMBDA_CAP}")
    if not listed:
        return report(0)
    # one listing per block size, so each tile holds one size's subsets;
    # nonzero reads a group's incidence rows in order, each row's points
    # ascending, which are the group's supports
    incidence = _points(family.blocks, n).T
    groups = [np.flatnonzero(sizes == w)
              for w in range(t, len(per_size)) if per_size[w]]
    supports = [np.nonzero(incidence[g])[1].reshape(len(g), -1)
                for g in groups]
    dtype = _int_dtype(total)

    def listing():
        return ((g, _subset_ranks(support, n, t, dtype))
                for g, support in zip(groups, supports))

    def first(count) -> tuple[int, ...]:
        # each size group is listed up to its first hit, where its listing
        # stops; the hit in the earliest block wins (a block lies in one
        # group), and within a block the earliest position
        hits = []
        for g, tiles in listing():
            for b, _, ranks in tiles:
                hit = count_of(ranks) == count
                if hit.any():
                    c = int(hit.any(axis=0).argmax())
                    hits.append((g[b + c], int(ranks[hit[:, c].argmax(), c])))
                    break
        return _unrank(min(hits)[1], n, t)

    if listed >= total:
        # total <= listed <= LAMBDA_CAP < 2^31 bounds every rank and count
        table = np.zeros(total, dtype=np.int32)
        one = table.dtype.type(1)   # an untyped 1 takes add.at's slow path
        for _, tiles in listing():
            for _, _, ranks in tiles:
                if total <= _LAMBDA_TILE:
                    table += np.bincount(ranks.ravel(), minlength=total)
                else:
                    np.add.at(table, ranks.ravel(), one)

        def count_of(ranks):
            return table[ranks]

        least, most = int(table.min()), int(table.max())
        if least == most:
            return report(least)
        # the first zero entry is the first uncovered subset
        low = _unrank(int(table.argmin()), n, t) if not least else first(least)
        return report(None, (low, least, first(most), most))
    # fewer listed subsets than C(n,t): some subset is uncovered
    ordered, at = np.empty(listed, dtype), 0
    for _, tiles in listing():
        for _, _, ranks in tiles:
            ordered[at:at + ranks.size] = ranks.ravel()
            at += ranks.size
    ordered.sort()
    starts = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    starts = starts.nonzero()[0]
    keys = ordered[starts]
    counts = np.concatenate((starts[1:], [len(ordered)])) - starts

    def count_of(ranks):
        # a block's ranks ascend, and searchsorted is fastest on keys that
        # ascend: search block by block
        return counts[keys.searchsorted(ranks.T)].T

    # the first gap in the sorted ranks
    gap = np.flatnonzero(keys != np.arange(len(keys)))
    missing = int(gap[0]) if len(gap) else len(keys)
    most = int(counts.max())
    return report(None, (_unrank(missing, n, t), 0, first(most), most))


# ---------------------------------------------------------------------------
# the MacWilliams transform and the Assmus-Mattson theorem
# ---------------------------------------------------------------------------

def macwilliams(dist: Sequence[int]) -> list[int]:
    """The weight distribution B_0..B_n of the dual code, from the code's
    own A_i (``_code_size``): B_j = |C|^-1 sum_i A_i K_j(i).  The values
    K_j(i) are built in exact integers by the Krawtchouk recurrence
    (j+1) K_{j+1}(i) = (n-2i) K_j(i) - (n-j+1) K_{j-1}(i), from K_0 = 1, for
    the weights i of some codeword.  Every sum must be divisible by |C|."""
    size, n = _code_size(dist), len(dist) - 1
    sums = [0] * (n + 1)
    for i, a in enumerate(dist):
        if not a:
            continue
        before, k_j = 0, 1
        for j in range(n + 1):
            sums[j] += a * k_j
            before, k_j = k_j, ((n - 2 * i) * k_j
                                - (n - j + 1) * before) // (j + 1)
    dual = [divmod(s, size) for s in sums]
    if any(rest for _, rest in dual):
        raise InternalCheckError(f"a MacWilliams sum is not divisible by "
                                 f"|C| = {size}: not a code's distribution")
    return [b for b, _ in dual]


def assmus_mattson(dist: Sequence[int]) -> int:
    """The largest t < d such that at most d - t of the weights
    0 < i <= n - t have B_i != 0 (``macwilliams``), else 0, from a code's
    weight distribution A_0..A_n alone.  By the Assmus-Mattson theorem
    every shell of the code is then a t-design."""
    d, dual = min_weight(dist), macwilliams(dist)
    return next((t for t in range(d - 1, 0, -1)
                 if sum(map(bool, dual[1:len(dist) - t])) <= d - t), 0)


class Verdict(NamedTuple):
    """The verdict at one degree: whether it ``holds``, the ``mode`` that
    decided it and, on a failure, what that route computed (``witness``,
    None on a pass).  It has no truth value: a read names ``.holds``."""
    holds: bool
    mode: str
    witness: object = None

    def __bool__(self):
        raise TypeError("a Verdict has no truth value; read .holds")


@dataclass(frozen=True)
class ShellDesignReport:
    """One code shell, or any block family, at one t: ``blocks`` counts its
    blocks, ``lam`` is lambda or None, and ``verdicts`` holds t's
    ``Verdict``, mode "Assmus-Mattson" or "listing" (``design_lambda``,
    whose witness is two t-subsets with different counts)."""
    blocks: int
    lam: int | None
    verdicts: dict[int, Verdict]


def shell_design_report(code: BinaryCode, w: int, t: int) -> ShellDesignReport:
    """Whether the weight-w shell of a code is a t-design, and its lambda.

    The code's weight distribution is counted once, for every step.  A
    shell with no codewords is refused first, then t outside 0..n (both
    ``ValueError``).  When the Assmus-Mattson theorem proves it
    (1 <= t <= ``assmus_mattson``), lambda = A_w C(w,t) / C(n,t) with no
    block family built and no subset listed.  Any other request is listed:
    the answer is ``design_lambda``'s report on ``shell``, its cap refusal
    included.
    """
    dist = weight_distribution(code)
    if not 0 <= w <= code.n or not dist[w]:
        raise ValueError(f"{code.name or 'the code'} has no codewords of "
                         f"weight {w}")
    if not 0 <= t <= code.n:
        raise ValueError(f"t must lie in 0..{code.n}")
    # a zero-dimensional code has only the empty block, and no d
    if code.k and 1 <= t <= assmus_mattson(dist):
        lam, rest = divmod(dist[w] * comb(w, t), comb(code.n, t))
        if rest:
            raise InternalCheckError(
                f"{dist[w]} blocks of size {w} give no integral lambda at "
                f"t = {t}, which Assmus-Mattson proved")
        return ShellDesignReport(dist[w], lam,
                                 {t: Verdict(True, "Assmus-Mattson")})
    return design_lambda(shell(code, w), t)


# ---------------------------------------------------------------------------
# discrete harmonics
# ---------------------------------------------------------------------------

def _distinct_in_range(pairs: np.ndarray, n: int) -> bool:
    """Whether every pair system of a (len, k, 2) array has 2k distinct
    points in range(n): the one condition under which its difference
    product lies in ker gamma and ``_tilde_sums`` reads it exactly."""
    import numpy as np
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
        import numpy as np
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
    import numpy as np
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
    import numpy as np
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
    import numpy as np
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
    import numpy as np
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


def _complement_half(family: BlockFamily) -> np.ndarray | None:
    """The blocks u < u-bar of a family closed under complement, u-bar =
    u ^ (2^n - 1), in family order; None when some complement is missing."""
    import numpy as np
    blocks = family.blocks
    bars = blocks ^ ((1 << family.n) - 1)
    # np.isin would sort through np.unique, which imports numpy.ma
    ordered = np.sort(blocks)
    at = ordered.searchsorted(bars).clip(max=max(len(blocks) - 1, 0))
    if (ordered[at] != bars).any():
        return None
    return blocks[blocks < bars]


def harmonic_family_sums(basis, family: BlockFamily) -> list[int]:
    """Exact sums over the family of f-tilde, one per basis element, every
    block summed.  Every harmonic must live on the family's n points."""
    ns = ({basis.n} if isinstance(basis, _HarmBasis)
          else {f.n for f in basis})
    if ns - {family.n}:
        raise ValueError(f"harmonics on {sorted(ns)} points, a family on "
                         f"{family.n}")
    return _tilde_sums(_pair_array(basis),
                       _points(family.blocks, family.n)).tolist()


def delsarte_design_check(family: BlockFamily, degrees) -> dict[int, Verdict]:
    """Harmonic-sum criterion per degree: zero sums across a Harm_j basis.

    Returns {j: Verdict}, mode "harmonic sums" unless noted, a failure's
    witness its first basis index with a nonzero sum.  Every degree meets
    ``harm_basis``'s rule (``_harm_degree``) before any work, odd ones on a
    closed family included; degree 0 passes (mode "constant").  A
    difference product of degree j has f-tilde(u-bar) = (-1)^j f-tilde(u),
    so on a family closed under complement every odd degree passes with no
    basis built (mode "complement"), and an even degree's sums are twice
    those over one block of each complement pair (``_complement_half``):
    the same zero test and the same witness.
    """
    degrees = sorted(set(degrees))
    for j in degrees:
        _harm_degree(family.n, j)
    half = _complement_half(family)
    summed = family if half is None else BlockFamily(family.n, half)
    out = {}
    for j in degrees:
        if j == 0:
            out[j] = Verdict(True, "constant")
        elif half is not None and j % 2:
            out[j] = Verdict(True, "complement")
        else:
            sums = harmonic_family_sums(harm_basis(family.n, j), summed)
            bad = next((i for i, s in enumerate(sums) if s != 0), None)
            out[j] = Verdict(bad is None, "harmonic sums", bad)
    return out


@dataclass(frozen=True)
class TwoWeightReport:
    weights: tuple[int, int]
    family_size: int
    verdicts: dict[int, Verdict]

    def passes(self, degrees) -> bool:
        return all(self.verdicts[j].holds for j in degrees)


def two_weight_design_check(code: BinaryCode, ell: int, degrees) -> TwoWeightReport:
    """Design test for the union of the weight-ell and weight-(n-ell) shells.

    The degree-1 verdict is exactly the statement that all points are
    covered equally often by the union family.  The union is closed under
    complement when the code holds the all-ones word; then its odd degrees
    pass by the complement.  Each degree's ``Verdict`` and mode come from
    ``delsarte_design_check``, which checks closure once.  A pair with no
    codewords is refused (``ValueError``) before any basis is built.
    """
    fam = shell(code, ell)
    if 2 * ell != code.n:       # the middle shell is its own complement
        fam = fam.union(shell(code, code.n - ell))
    if not len(fam.blocks):
        raise ValueError(f"no codewords of weight {ell} or {code.n - ell}")
    return TwoWeightReport((ell, code.n - ell), len(fam.blocks),
                           delsarte_design_check(fam, degrees))


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
    import numpy as np
    words = codewords(code)
    points = _points(words, code.n)
    weights = np.bitwise_count(words)
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
    import numpy as np
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
