"""Exact lattices, shell enumeration, harmonic polynomials, theta series.

A lattice is its doubled Gram matrix 2G (``Lattice.g2``): symmetric,
positive definite, integer, so G has entries in (1/2)*Z.  Vectors are
integer coordinate rows v with norm v*G*v^T.  Nothing irrational is ever
stored; construction A absorbs its 1/sqrt(2) scaling into the Gram matrix.

Shell search is a breadth-wise Fincke-Pohst search in numpy, run in one
process: each level expands a chunk of frontier rows at once, and the
frontier is walked depth-first in chunks so memory stays bounded.  It runs
in an exactly checked LLL-reduced basis and over half the ball (v and -v
are one candidate), maps the rows back, turns each so its first nonzero
coordinate is positive and sorts only that half: a sorted shell is its
half negated and reversed, then the half.  It prunes with floats (bounds
inflated by a fixed slack) but accepts exclusively by exact integer
arithmetic, so the enumerated shells are exact.  Integer width has one
rule, from a bound on every partial sum: float64 BLAS below 2^53, else the
narrowest integer dtype, else Python ints (``_int_matmul``,
``_int_dtype``); shell coordinates past int64 are refused, so negating a
row never wraps.  The ball is held as one ``Shell`` per doubled norm,
each built once with the ball: its sorted rows, a view of the ball's
one immutable buffer, so no caller can write to them.  A shell derives
its pair histogram on first use and holds it.
One ball is kept per lattice (and cap), the largest asked, and a smaller
bound is served its prefix of those shells, so a warm process enumerates
a lattice again only past its largest bound so far, and builds each
shell's pair histogram once.  Size caps are checked on counts, before
any row is mapped back to the caller's basis: the search stops once the
ball's candidates pass 4*cap + 64, and the per-norm tallies refuse the
smallest norm whose shell is larger than the cap.
Design tests run off the histogram of pairwise inner products: raw power
moments give the cumulative strength-t criterion, and the zonal kernel
(the monic Gegenbauer recurrence in integers, ``_zonal_sums``) per-degree
verdicts; weighted thetas, refused first and fitted in one predicted space
per degree (``_theta_fits``), decide even unimodular shells past
enumeration.  Each criterion is one report, ``moment_design_report``,
``spherical_T_design_report`` or ``theta_design_report``, holding one
``codes.Verdict`` per degree, and each checks its degrees first, before
any other refusal and before enumerating.  A harmonic polynomial, 1 or a
zonal harmonic along an integer lattice coordinate row, is summed over
a shell by the same kernel.  Every degree passes one ``DEGREE_CAP`` check
(``_degree_list``).  Each function that runs array code imports numpy
itself, so importing this module does not load it.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from ._fixtures import fixture_text
from ._grow import grow_once
from .codes import (BinaryCode, Verdict, _int_dtype, _read_only,
                    is_doubly_even, is_self_dual)
from .errors import CapExceededError, InternalCheckError
from .modforms import (FitResult, ModFormSpace, _check_prec, cusp_monomials,
                       fit_in_space, mf_basis, mf_dim)
from .qseries import QSeries, exact_str

__all__ = [
    "Lattice", "Shell", "HarmonicPolynomial",
    "gram_from_text", "lattice_zn", "lattice_a2", "lattice_e8",
    "construction_a", "determinant", "is_even", "require_even_unimodular",
    "shell_enum", "shell_sizes_up_to", "SHELL_CAP", "DEGREE_CAP",
    "sphere_moment", "moment_design_test",
    "moment_design_report", "prefix_strength",
    "gegenbauer_component_sums", "spherical_T_design_report", "TDesignReport",
    "zonal_harmonic_coords", "zonal_shell_sum",
    "constant_poly",
    "harmonic_theta", "to_modular_q", "theta_membership_check",
    "MembershipReport", "theta_directions", "theta_fit_norm",
    "zonal_theta_fits", "theta_design_report", "ThetaDesignReport",
]

SHELL_CAP = 1_000_000       # refuse to enumerate larger shells
DEGREE_CAP = 1000           # refuse moment, kernel and zonal degrees past this
_SLACK = 1 + 2.0 ** -20     # float pruning radius inflation
_CHUNK = 1 << 13            # rows expanded per level, or compared, at once
_PAIR_BLOCK = 4_000_000     # inner products computed at once per histogram
_BLAS_SERIAL = 1 << 18      # multiply-adds per float product kept on one thread
_MAGIC = 1.5 * 2.0 ** 52


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------

@dataclass(frozen=True, init=False)
class Lattice:
    """Positive definite lattice with an exact Gram matrix G over (1/2)Z,
    given as ints or ``Fraction``s.  ``g2``, 2G as int tuples, is built once
    and read by every computation, equality and hashing included: ``label``
    only names the lattice, so every name of one Gram matrix shares its
    caches.  ``gram`` gives G back as ``Fraction``s."""
    g2: tuple[tuple[int, ...], ...]
    label: str = field(compare=False)

    def __init__(self, gram, label: str = ""):
        g2 = tuple(tuple(2 * x for x in row) for row in gram)
        if any(x.denominator != 1 for row in g2 for x in row):
            raise ValueError("gram entries must lie in (1/2)Z")
        self._set(tuple(tuple(map(int, row)) for row in g2), label)

    @classmethod
    def _from_g2(cls, g2: tuple[tuple[int, ...], ...], label: str):
        lat = cls.__new__(cls)
        lat._set(g2, label)
        return lat

    def _set(self, g2: tuple[tuple[int, ...], ...], label: str) -> None:
        n = len(g2)
        if not n or any(len(row) != n for row in g2) or any(
                g2[i][j] != g2[j][i] for i in range(n) for j in range(i)):
            raise ValueError("gram matrix must be nonempty, square and "
                             "symmetric")
        _ldl(g2)     # raises unless positive definite
        object.__setattr__(self, "g2", g2)
        object.__setattr__(self, "label", label)

    @property
    def gram(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(x, 2) for x in row) for row in self.g2)

    @property
    def rank(self) -> int:
        return len(self.g2)


@functools.lru_cache(maxsize=64)
def _ldl(g2) -> tuple[tuple[Fraction, ...], tuple[tuple[Fraction, ...], ...]]:
    """Exact decomposition G = U^T D U with U unit upper triangular, from
    the doubled Gram matrix G2 = 2G.

    Returns (diag of D, rows of U).  Fraction-free (Bareiss) elimination on
    the integer matrix G2: the pivot p_k of step k is its leading
    (k+1)-minor, D_k = p_k / (2 p_(k-1)), and the entries right of it,
    divided by p_k, form row k of U.  Positive pivots certify positive
    definiteness; a nonpositive pivot raises.
    """
    n = len(g2)
    work = [list(row) for row in g2]
    diag, upper = [], []
    prev = 1
    for k in range(n):
        p = work[k][k]
        if p <= 0:
            raise ValueError("gram matrix is not positive definite")
        diag.append(Fraction(p, 2 * prev))
        upper.append((Fraction(0),) * k + (Fraction(1),)
                     + tuple(Fraction(x, p) for x in work[k][k + 1:]))
        for i in range(k + 1, n):
            f = work[i][k]
            work[i][k + 1:] = [(p * x - f * y) // prev for x, y in
                               zip(work[i][k + 1:], work[k][k + 1:])]
        prev = p
    return tuple(diag), tuple(upper)


def determinant(lat: Lattice) -> Fraction:
    return math.prod(_ldl(lat.g2)[0], start=Fraction(1))


def is_even(lat: Lattice) -> bool:
    """Diagonal even integers, off-diagonal integers: all norms even."""
    g2 = lat.g2
    return all(g2[i][j] % (4 if i == j else 2) == 0
               for i in range(lat.rank) for j in range(i + 1))


def require_even_unimodular(lat: Lattice, what: str) -> None:
    """Refuse (``ValueError``) a lattice that is not even unimodular."""
    if not is_even(lat) or determinant(lat) != 1:
        raise ValueError(f"{what} needs an even unimodular lattice")


def gram_from_text(text: str, label: str = "") -> Lattice:
    """Parse a Gram matrix: one row per line, entries int or num/den."""
    try:
        gram = [[Fraction(tok) for tok in ln.split()]
                for ln in text.splitlines() if ln.strip()]
    except ZeroDivisionError:
        raise ValueError("a gram entry has denominator zero") from None
    return Lattice(gram, label)


def lattice_zn(n: int) -> Lattice:
    return Lattice(tuple(tuple(int(i == j) for j in range(n))
                         for i in range(n)), f"Z{n}")


@functools.lru_cache(maxsize=None)
def lattice_a2() -> Lattice:
    return gram_from_text(fixture_text("lattices", "a2.txt"), "A2")


@functools.lru_cache(maxsize=None)
def lattice_e8() -> Lattice:
    return gram_from_text(fixture_text("lattices", "e8.txt"), "E8")


def construction_a(code: BinaryCode, label: str = "") -> Lattice:
    """Even unimodular lattice from a doubly even self-dual binary code.

    Basis rows over Z: the lifted generator rows plus 2*e_j for each
    non-pivot coordinate j; the 1/sqrt(2) scaling halves the Gram matrix,
    so the doubled Gram matrix is the integer product of the basis rows.
    """
    if not is_doubly_even(code):
        raise ValueError("construction A needs a doubly even code")
    if not is_self_dual(code):
        raise ValueError("construction A fixture requires self-duality")
    n = code.n
    pivots = {g.bit_length() - 1 for g in code.gens}
    rows = [[(g >> j) & 1 for j in range(n)] for g in code.gens]
    rows += [[2 * (i == j) for i in range(n)] for j in range(n)
             if j not in pivots]
    g2 = tuple(tuple(sum(a * b for a, b in zip(r1, r2)) for r2 in rows)
               for r1 in rows)
    return Lattice._from_g2(g2, label or f"A({code.name or 'code'})")


# ---------------------------------------------------------------------------
# shell enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Shell:
    """All lattice vectors of one exact norm, in sorted coordinate order.

    ``rows`` is an integer array, one vector of ``lattice.rank``
    coordinates per row, built by one rule from any input, tuples or an
    array: held in the ``_int_dtype`` of its largest magnitude
    (``_coordinates``) over an immutable buffer (``_read_only``), so rows
    already of that width over such a buffer, a held ball's slices, are
    kept as they are and any other input is copied once; rows of another
    width are refused.  The items of the pair histogram (``_pair_histogram``)
    are held on first use, as ``_histogram``.  Length reads the rows;
    equality and hashing are by identity.
    """
    lattice: Lattice
    norm: Fraction
    rows: np.ndarray

    def __post_init__(self):
        rank = self.lattice.rank
        rows = _ints(self.rows)
        if len(rows) and (rows.ndim != 2 or rows.shape[1] != rank):
            raise ValueError(f"shell rows must each hold {rank} coordinates, "
                             "one per basis vector of the lattice")
        rows = _coordinates(rows).reshape(len(rows), rank)
        object.__setattr__(self, "rows", _read_only(rows))

    @functools.cached_property
    def _histogram(self) -> tuple[tuple[int, int], ...]:
        return tuple(_pair_histogram(self).items())

    def __len__(self):
        return len(self.rows)


def _lll(g2) -> tuple[list[list[int]], list[list[int]]]:
    """Integral LLL (Cohen, Alg. 2.6.7) with delta = 99/100 on a positive
    definite integer Gram matrix G2.  Returns (U, R): the reduced basis is
    U times the old one, and R = U G2 U^T is kept up to date alongside.

    d[i] is the determinant of the leading i x i block of the current Gram
    matrix and lam[k][j] = d[j+1] * mu_kj, so every quantity is an integer.
    """
    n = len(g2)
    g = [list(row) for row in g2]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]

    def reduce(k: int, j: int) -> None:
        # b_k -= q b_j, q the integer nearest to mu_kj, when |mu_kj| > 1/2
        if 2 * abs(lam[k][j]) <= d[j + 1]:
            return
        q = (2 * lam[k][j] + d[j + 1]) // (2 * d[j + 1])
        u[k] = [a - q * b for a, b in zip(u[k], u[j])]
        gkk = g[k][k] - 2 * q * g[k][j] + q * q * g[j][j]
        for i in range(n):
            g[k][i] -= q * g[j][i]
            g[i][k] = g[k][i]
        g[k][k] = gkk
        lam[k][j] -= q * d[j + 1]
        for i in range(j):
            lam[k][i] -= q * lam[j][i]

    def swap(k: int, kmax: int) -> None:
        # exchange b_k and b_(k-1)
        u[k], u[k - 1] = u[k - 1], u[k]
        g[k], g[k - 1] = g[k - 1], g[k]
        for row in g:
            row[k], row[k - 1] = row[k - 1], row[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        mu = lam[k][k - 1]
        b = (d[k - 1] * d[k + 1] + mu * mu) // d[k]
        for i in range(k + 1, kmax + 1):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - mu * t) // d[k]
            lam[i][k - 1] = (b * t + mu * lam[i][k]) // d[k + 1]
        d[k] = b

    d[1] = g[0][0]
    k, kmax = 1, 0
    while k < n:
        if k > kmax:                    # Gram-Schmidt data of a new row
            kmax = k
            for j in range(k + 1):
                x = g[k][j]
                for i in range(j):
                    x = (d[i + 1] * x - lam[k][i] * lam[j][i]) // d[i]
                if j < k:
                    lam[k][j] = x
                else:
                    d[k + 1] = x
        reduce(k, k - 1)
        if 100 * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) < 99 * d[k] ** 2:
            swap(k, kmax)
            k = max(1, k - 1)
        else:
            for j in range(k - 2, -1, -1):
                reduce(k, j)
            k += 1
    return u, g


@functools.lru_cache(maxsize=64)
def _reduced_basis(g2) -> tuple[tuple[tuple[int, ...], ...],
                                tuple[tuple[int, ...], ...]]:
    """(U, doubled Gram matrix of the LLL-reduced basis U * B) of the
    lattice with doubled Gram matrix G2.

    Checked exactly, so the search may run in the reduced basis: U G2 U^T
    must equal the reduced doubled Gram matrix, and both Gram matrices must
    have the same determinant, which makes U unimodular.
    """
    u, r2 = _lll(g2)
    if _int_matmul(_int_matmul(u, g2), list(zip(*u))).tolist() != r2:
        raise InternalCheckError("LLL transform does not give the reduced "
                                 "Gram matrix")
    reduced = tuple(map(tuple, r2))
    if math.prod(_ldl(reduced)[0]) != math.prod(_ldl(g2)[0]):
        raise InternalCheckError("LLL transform is not unimodular")
    return tuple(map(tuple, u)), reduced


def _ints(values) -> np.ndarray:
    """An integer array as it is; nested Python ints as an object array,
    so that entries in [2^63, 2^64) do not turn into uint64."""
    import numpy as np
    return values if isinstance(values, np.ndarray) else np.array(
        values, dtype=object)


def _max_abs(arr: np.ndarray) -> int:
    return max(int(arr.max(initial=0)), -int(arr.min(initial=0)))


def _coordinates(values) -> np.ndarray:
    """Integer coordinate rows in ``_int_dtype`` of their largest magnitude.
    Rows past int64 are refused, so no negation of a row can wrap, and so
    are rows that are not integers."""
    import numpy as np
    arr = _ints(values)
    dtype = _int_dtype(_max_abs(arr))
    if dtype == object:
        raise ValueError("shell coordinates must fit in int64")
    out = arr.astype(dtype, copy=False)
    if arr.dtype.kind != "i" and not np.array_equal(out, arr):
        raise ValueError("shell coordinates must be integers")
    return out


def _int_matmul(a, b) -> np.ndarray:
    """Exact a @ b of integer matrices (arrays or nested Python ints), in
    ``_int_dtype`` of the bound inner * max|a| * max|b| on every partial
    sum.  Below 2^53 float64 BLAS is exact, in tiles of at most
    ``_BLAS_SERIAL`` multiply-adds (one OpenBLAS thread); else both
    operands take that dtype, int64 or Python ints."""
    import numpy as np
    a, b = _ints(a), _ints(b)
    bound = len(b) * _max_abs(a) * _max_abs(b)
    dtype = _int_dtype(bound)
    if bound >= 2 ** 53:
        return a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
    right = b.astype(np.float64)
    out = np.empty((len(a), right.shape[1]), dtype=dtype)
    step = max(1, _BLAS_SERIAL // right.size)
    for lo in range(0, len(a), step):
        out[lo:lo + step] = a[lo:lo + step].astype(np.float64) @ right
    return out


def _doubled_norms(g2, rows) -> np.ndarray:
    """v G2 v^T per row from v G2 (``_int_matmul``), summed a column at a
    time in ``_int_dtype`` of the bound n * max|v G2| * max|v|."""
    xg = _int_matmul(rows, g2)
    dtype = _int_dtype(len(g2) * _max_abs(xg) * _max_abs(rows))
    return sum(xg[:, j].astype(dtype) * rows[:, j] for j in range(len(g2)))


def _search_candidates(g2, bound2: int, cap: int) -> Iterator[np.ndarray]:
    """Float-pruned breadth-wise search for all v with 2*Q(v) <= bound2.

    Fincke-Pohst over the exact decomposition G = U^T D U of the lattice
    with doubled Gram matrix G2 (``_ldl``), top coordinate first.  At
    level i every frontier row gets its centre c = sum_{j>i} U_ij v_j and
    its radius sqrt(budget / 2 d_i) at once;
    ``np.repeat`` expands each row into the integers of [-c - rad, -c + rad],
    and a child whose remaining budget goes negative is pruned.  Bounds use
    the LDL data rounded to float and inflated by a slack factor, so the
    candidate set is a superset of the true ball; callers accept exactly.

    The search covers half the ball: the zero row and the rows whose first
    nonzero coordinate, v_{n-1} first, is positive.  Only the first row of
    a level, all zeros so far, needs the rule: its range starts at 0.

    The levels form a pipeline of generators that expands the frontier
    depth-first in pieces of about ``_CHUNK`` rows, so memory stays bounded
    whatever the size of the ball; coordinates are stored in the narrowest
    integer dtype that holds them.  Yields the candidate rows chunk by
    chunk, in lexicographic order of (v_{n-1}, ..., v_0), and raises
    ``CapExceededError`` as soon as a chunk takes the count of candidates
    in the whole ball, each nonzero row counted with its negation, past
    4*cap + 64, before the caller has built anything from them, or at
    once, before any float, if one basis vector's multiples in the ball do.
    """
    import numpy as np
    n = len(g2)
    if any(2 * math.isqrt(bound2 // g2[j][j]) + 1 > 4 * cap + 64
           for j in range(n)):
        raise CapExceededError("shell search exceeded the cap")
    diag, upper = _ldl(g2)
    df = [float(2 * d) for d in diag]
    uf = np.array([[float(x) for x in row] for row in upper])
    top_rad = math.sqrt(float(bound2) / df[n - 1]) * _SLACK + 1e-9

    def children(i: int, pieces):
        # a piece is (cols, budget): cols[j] holds v_j of every row
        for cols, budget in pieces:
            c = np.zeros(len(budget))
            for j in range(i + 1, n):       # summed in the order j = i+1..n-1
                c += uf[i, j] * cols[j].astype(np.float64)
            if i == n - 1:      # the top coordinate ranges over bound2's radius
                rad = top_rad
            else:
                rad = np.sqrt(np.maximum(budget, 0.0) / df[i]) * _SLACK + 1e-9
            lo = np.ceil(-c - rad)
            if not cols[:, 0].any():
                lo[0] = max(lo[0], 0.0)
            widths = np.maximum(np.floor(-c + rad) - lo + 1, 0).astype(np.int64)
            if not widths.any():
                continue
            reach = int(max(-lo.min(), lo.max() + widths.max()))
            dtype = np.promote_types(cols.dtype, _int_dtype(reach))
            ends = np.cumsum(widths)
            a = 0
            while a < len(budget):
                # rows a..b-1 expand into at most about _CHUNK children
                base = ends[a] - widths[a]
                b = max(a + 1, int(np.searchsorted(ends, base + _CHUNK,
                                                   side="right")))
                w = widths[a:b]
                parent = np.repeat(np.arange(a, b), w)
                first = np.repeat(ends[a:b] - w - base, w)
                vi = lo[parent] + (np.arange(len(parent)) - first)
                t = vi + c[parent]
                rem = budget[parent] - df[i] * t * t
                keep = rem >= -1e-9
                if keep.any():
                    child = cols[:, parent[keep]].astype(dtype, copy=False)
                    child[i] = vi[keep]
                    yield child, rem[keep]
                a = b

    stream = iter([(np.zeros((n, 1), dtype=np.int8),
                    np.array([float(bound2) * _SLACK + 1e-9]))])
    for i in range(n - 1, -1, -1):
        stream = _regroup(children(i, stream))
    produced = -1           # the zero row is its own negation
    for cols, _ in stream:
        produced += 2 * cols.shape[1]
        if produced > 4 * cap + 64:
            raise CapExceededError("shell search exceeded the cap")
        yield cols.T


def _regroup(pieces):
    """Merge consecutive (coordinates, budgets) pieces, in order, into
    blocks of at least ``_CHUNK`` rows."""
    buf: list[tuple[np.ndarray, np.ndarray]] = []
    rows = 0
    for piece in pieces:
        buf.append(piece)
        rows += len(piece[1])
        if rows >= _CHUNK:
            yield _merge(buf)
            buf, rows = [], 0
    if buf:
        yield _merge(buf)


def _merge(pieces):
    import numpy as np
    if len(pieces) == 1:
        return pieces[0]
    return (np.concatenate([cols for cols, _ in pieces], axis=1),
            np.concatenate([budget for _, budget in pieces]))


def _sorted_ball(lat: Lattice, bound2: int, cap: int
                 ) -> tuple[dict[int, int], np.ndarray]:
    """All v with 0 < 2*Q(v) <= bound2: the shell sizes by doubled norm, in
    increasing order, and the rows sorted by (norm, coordinates).

    The half-ball search runs in the LLL-reduced basis.  Count first: each
    chunk of candidates gets exact doubled norms, and the accepted rows,
    each standing for itself and its negation, are tallied twice per norm.
    Once a tally has passed ``cap``, rows are only counted, not kept; after
    the search the smallest doubled norm over the cap is refused, whatever
    the basis.  Then the kept rows go back to the caller's coordinates
    through U (unless U = I), a chunk at a time, refused past int64
    (``_coordinates``), each turned so its first nonzero coordinate is
    positive, and one lexsort orders this half; a repeated row (the
    search emitted v twice, or v and -v) is refused.
    Vectors with a negative first nonzero coordinate sort before the rest,
    and negation reverses the order, so each shell is its sorted half H as
    -reverse(H) then H.
    """
    import numpy as np
    u, g2 = _reduced_basis(lat.g2)
    tally: dict[int, int] = {}
    kept_rows, kept_norms = [], []
    over = False
    for cand in _search_candidates(g2, bound2, cap):
        norms = _doubled_norms(g2, cand)
        keep = (norms > 0) & (norms <= bound2)
        norms = norms[keep]
        vals, counts = np.unique(norms, return_counts=True)
        for w, c in zip(vals.tolist(), counts.tolist()):
            tally[w] = tally.get(w, 0) + 2 * c
            over = over or tally[w] > cap
        if over:
            kept_rows.clear()
            kept_norms.clear()
        elif len(norms):
            kept_rows.append(cand[keep])
            kept_norms.append(norms)
    sizes = dict(sorted(tally.items()))
    for w, size in sizes.items():
        if size > cap:
            raise CapExceededError(
                f"shell at doubled norm {w} has {size} > cap {cap}")
    if not sizes:
        return sizes, np.zeros((0, lat.rank), dtype=np.int8)
    identity = all(x == (i == j) for i, row in enumerate(u)
                   for j, x in enumerate(row))
    for i, part in enumerate(kept_rows):
        if not identity:
            part = _coordinates(_int_matmul(part, u))
        lead = part[np.arange(len(part)), (part != 0).argmax(axis=1)]
        kept_rows[i] = np.negative(part, out=part, where=(lead < 0)[:, None])
    half = np.concatenate(kept_rows)
    kept_rows.clear()
    order = np.lexsort(tuple(half[:, j] for j in range(lat.rank - 1, -1, -1))
                       + (np.concatenate(kept_norms),))
    half = half[order]          # frees the unsorted half before the copy
    if (half[1:] == half[:-1]).all(axis=1).any():
        raise InternalCheckError("search emitted a row twice or with -row")
    rows, start = np.empty((2 * len(half), lat.rank), half.dtype), 0
    for size in sizes.values():
        h = half[start // 2:(start + size) // 2]
        np.negative(h[::-1], out=rows[start:start + size // 2])
        rows[start + size // 2:start + size] = h
        start += size
    return sizes, rows


def _is_antipodal(rows: np.ndarray) -> bool:
    """Whether the rows equal their own negation read backwards, as a sorted
    antipodal shell does; compared ``_CHUNK`` rows of the first half at a
    time, so no copy of the whole shell is made."""
    import numpy as np
    n = len(rows)
    half = (n + 1) // 2
    for lo in range(0, half, _CHUNK):
        hi = min(lo + _CHUNK, half)
        if not np.array_equal(rows[lo:hi], -rows[n - hi:n - lo][::-1]):
            return False
    return True


@grow_once(lambda lat, bound2, cap, workers: ((lat, cap), bound2),
           lambda table, bound2: MappingProxyType(
               {w: shell for w, shell in table.items() if w <= bound2}))
def _vectors_by_doubled_norm(lat: Lattice, bound2: int, cap: int,
                             workers: int) -> MappingProxyType:
    """All vectors with 0 < 2*Q(v) <= bound2 (``_sorted_ball``), copied
    once into an immutable buffer (``_read_only``), one ``Shell`` per exact
    doubled norm in a read-only map, each a view of that buffer (a copy
    only where its rows fit a narrower dtype than the ball's) and checked
    antipodal before any is handed out.  One ball is held per (lattice,
    cap), the largest asked (``_grow.grow_once``): a smaller bound is served
    its prefix of doubled norms, the same ``Shell`` objects, with the rows
    of the shells a build there would give, since every smaller ball
    passes the cap when the larger one did.  A held shell's ``lattice`` is
    the object that built the ball.  ``workers`` changes nothing and stays
    because ``bench/spans.py`` reads the table with four arguments.
    """
    if bound2 < 0:
        return MappingProxyType({})
    sizes, rows = _sorted_ball(lat, bound2, cap)
    rows = _read_only(rows)
    out = {}
    start = 0
    for w, size in sizes.items():
        shell = Shell(lat, Fraction(w, 2), rows[start:start + size])
        if not _is_antipodal(shell.rows):
            raise InternalCheckError(f"shell at doubled norm {w} not antipodal")
        out[w] = shell
        start += size
    return MappingProxyType(out)


def shell_enum(lat: Lattice, norm) -> Shell:
    """All vectors of the exact given norm, antipodal and sorted: the held
    ``Shell`` itself (``_vectors_by_doubled_norm``), or a new empty one
    for a norm with no vectors.

    Float pruning only widens the search box; acceptance is by exact
    integer arithmetic on the doubled Gram matrix, and the vector table
    checks every shell antipodal.
    """
    import numpy as np
    norm = Fraction(norm)
    if norm < 0:
        raise ValueError("norm must be nonnegative")
    doubled = 2 * norm
    if norm == 0 or doubled.denominator != 1:
        return Shell(lat, norm, np.zeros((int(norm == 0), lat.rank), np.int8))
    table = _vectors_by_doubled_norm(lat, int(doubled), SHELL_CAP, 1)
    shell = table.get(int(doubled))
    return Shell(lat, norm, ()) if shell is None else shell


def shell_sizes_up_to(lat: Lattice, max_norm) -> dict[Fraction, int]:
    doubled = int(2 * Fraction(max_norm))
    table = _vectors_by_doubled_norm(lat, doubled, SHELL_CAP, 1)
    return {Fraction(w, 2): len(shell) for w, shell in sorted(table.items())}


# ---------------------------------------------------------------------------
# sphere moments and pairwise design tests
# ---------------------------------------------------------------------------

def sphere_moment(n: int, k: int) -> Fraction:
    """Average of (x.u)^k over the unit sphere in R^n, u any unit vector."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    if k % 2:
        return Fraction(0)
    num = math.prod(range(k - 1, 0, -2), start=1)      # (k-1)!!
    den = math.prod(range(n, n + k - 1, 2), start=1)   # n(n+2)...(n+k-2)
    return Fraction(num, den)


def _pair_histogram(shell: Shell) -> dict[int, int]:
    """Histogram of doubled pairwise inner products 2*(x.y) over X x X.

    A sorted antipodal shell is X+ followed by -X+ read backwards (checked
    on the array, ``_is_antipodal``).  Then the pairs (+-a, +-b) give
    hist(v) = 2*(H(v) + H(-v)), with H the histogram over ordered pairs of
    X+ x X+, a quarter of the products; any other shell counts X x X.

    When n * max|row| * max|row @ G2| < 2^53 every partial sum of a product
    is an integer below 2^53, so float64 BLAS computes the products exactly.
    Cauchy-Schwarz puts them in [-2Q, 2Q], where ``np.bincount`` counts
    them (if that range fits one block).  The products run in square tiles
    on and above the diagonal; a tile above it also counts for its mirror.
    A tile holds at most ``_BLAS_SERIAL`` multiply-adds, which OpenBLAS
    runs on one thread: with the rank as inner dimension, threads saved no
    time, and on a busy 2-vCPU host their hand-offs made one E8 norm-6
    histogram take 0.09 to 0.45 s.  Other inputs take ``_int_matmul``
    products and ``np.unique``.
    """
    import numpy as np
    arr = shell.rows
    fold = len(arr) % 2 == 0 and _is_antipodal(arr)
    if fold:
        arr = arr[:len(arr) // 2]
    xg = _int_matmul(arr, shell.lattice.g2)
    size = len(arr)
    w = int(2 * shell.norm)
    rank = shell.lattice.rank
    hist: dict[int, int] = {}
    if 2 * w < _PAIR_BLOCK and rank * _max_abs(arr) * _max_abs(xg) < 2 ** 53:
        left, right = xg.astype(np.float64), arr.astype(np.float64).T
        side = max(1, math.isqrt(min(_PAIR_BLOCK, _BLAS_SERIAL // rank)))
        # row 0 counts the diagonal tiles, row 1 the tiles above them
        counts = np.zeros((2, 2 * w + 1), dtype=np.int64)
        buf = np.empty(min(side, size) ** 2)
        # p + w + 1.5*2^52 is an integer in [2^52, 2^53), where floats are
        # spaced by 1: its low mantissa bits read as an int64 are p + w
        # above the bits of 1.5*2^52
        shift = np.float64(_MAGIC + w)
        base = np.float64(_MAGIC).view(np.int64)
        for lo in range(0, size, side):
            hi = min(lo + side, size)
            for col in range(lo, size, side):
                shape = (hi - lo, min(col + side, size) - col)
                prods = np.matmul(left[lo:hi], right[:, col:col + shape[1]],
                                  out=buf[:shape[0] * shape[1]].reshape(shape))
                prods += shift
                bins = prods.view(np.int64)
                bins -= base
                counts[int(col > lo)] += np.bincount(bins.ravel(),
                                                     minlength=2 * w + 1)
        total = counts[0] + 2 * counts[1]
        hist = {v - w: c for v, c in enumerate(total.tolist()) if c}
    else:
        chunk = max(1, _PAIR_BLOCK // max(1, size))
        for lo in range(0, size, chunk):
            prods = _int_matmul(xg[lo:lo + chunk], arr.T)
            vals, counts = np.unique(prods, return_counts=True)
            for v, c in zip(vals.tolist(), counts.tolist()):
                hist[v] = hist.get(v, 0) + c
    if not fold:
        return hist
    return {v: 2 * (hist.get(v, 0) + hist.get(-v, 0))
            for v in sorted(hist.keys() | {-v for v in hist})}


@dataclass(frozen=True)
class TDesignReport:
    size: int
    verdicts: dict[int, Verdict]
    strength: int

    def passes(self, degrees) -> bool:
        return all(self.verdicts[j].holds for j in degrees)


def moment_design_test(shell: Shell, t: int) -> TDesignReport:
    """Cumulative strength test via exact power moments of inner products.

    For each k <= t compares sum over X x X of (x.y)^k with the spherical
    average |X|^2 r^{2k} m_k (mode "power moments").  The shell is a
    spherical s-design exactly when the identity holds for all k <= s.
    """
    if not len(shell) or shell.norm <= 0:
        raise ValueError("moment test needs a nonempty positive-norm shell")
    degrees = _degree_list(range(1, t + 1))
    hist = shell._histogram
    size = len(shell)
    verdicts: dict[int, Verdict] = {}
    for k in degrees:
        lhs = sum(cnt * w ** k for w, cnt in hist)   # sum (2 x.y)^k
        rhs = (size * size * (2 * shell.norm) ** k
               * sphere_moment(shell.lattice.rank, k))
        verdicts[k] = Verdict(lhs == rhs, "power moments")
    return TDesignReport(size, verdicts, prefix_strength(verdicts))


def moment_design_report(lat: Lattice, norm, t: int) -> TDesignReport:
    """The moment criterion on one shell (``moment_design_test``); degrees
    1..t are checked against ``DEGREE_CAP`` before the shell is enumerated.
    """
    _degree_list(range(1, t + 1))
    return moment_design_test(shell_enum(lat, norm), t)


def prefix_strength(verdicts: dict[int, Verdict]) -> int:
    """Largest s such that degrees 1..s all hold."""
    return next(s for s in itertools.count()
                if s + 1 not in verdicts or not verdicts[s + 1].holds)


def _degree_list(degrees) -> list[int]:
    """The distinct degrees, sorted; one over ``DEGREE_CAP`` is refused as
    it is read, before more than ``DEGREE_CAP`` of them are held."""
    seen = set()
    for j in degrees:
        if j < 0:
            raise ValueError("degrees must be nonnegative")
        if j > DEGREE_CAP:
            raise CapExceededError(f"degree {exact_str(j)} exceeds cap "
                                   f"{DEGREE_CAP}")
        seen.add(j)
    return sorted(seen)


def _zonal_sums(rank: int, values, counts, d2: int,
                degrees: list[int]) -> dict[int, Fraction]:
    """Sum of count * Z_j(value) over a histogram, for each degree j of the
    checked, sorted list ``degrees`` (``_degree_list``).

    Z_j(v) = D^j p_j(v/D) is the monic rank-n Gegenbauer kernel p_j,
    orthogonal under the sphere moments, made homogeneous in v and
    D^2 = d2: Z_0 = 1, Z_1 = v, Z_(j+1) = v Z_j - (b_j/a_j) D^2 Z_(j-1),
    with b_1/a_1 = 1/n and b_j/a_j = j(j+n-3)/((2j+n-2)(2j+n-4)); on S^0
    every p_j, j >= 2, vanishes at s = +-1.  Integer values and d2 keep it
    in integers: Q_j = A_j Z_j, A_(j+1) = a_j A_j, a_0 = 1, obeys
    Q_(j+1) = a_j v Q_j - D^2 b_j a_(j-1) Q_(j-1).
    """
    prev, cur = [0] * len(values), [1] * len(values)    # Q_(j-1), Q_j
    scale, a_prev = 1, 1                                # A_j, a_(j-1)
    out: dict[int, Fraction] = {}
    for j in range(degrees[-1] + 1 if degrees else 0):
        if j == degrees[len(out)]:
            out[j] = Fraction(sum(c * q for c, q in zip(counts, cur)), scale)
        a, b = ((1, 0), (rank, 1))[j] if j < 2 else (
            (2 * j + rank - 2) * (2 * j + rank - 4), j * (j + rank - 3))
        lag = d2 * b * a_prev
        prev, cur = cur, [a * v * q - lag * p
                          for v, q, p in zip(values, cur, prev)]
        scale, a_prev = a * scale, a
    return out


def gegenbauer_component_sums(shell: Shell, degrees) -> dict[int, Fraction]:
    """Exact per-degree kernel sums S_j = sum over X x X of p_j(x.y / r^2);
    S_j = 0 iff the shell averages every degree-j harmonic polynomial to zero.

    The zonal kernel (``_zonal_sums``) reads the pair histogram at
    v = e w with D = d, where d/e = 2r^2: S_j = Z_j(e w) / d^j.
    """
    if not len(shell) or shell.norm <= 0:
        raise ValueError("component sums need a nonempty positive-norm shell")
    wanted = _degree_list(degrees)
    hist = shell._histogram
    d, e = (2 * shell.norm).numerator, (2 * shell.norm).denominator
    sums = _zonal_sums(shell.lattice.rank, [e * w for w, _ in hist],
                       [cnt for _, cnt in hist], d * d, wanted)
    return {j: s / d ** j for j, s in sums.items()}


def spherical_T_design_report(lat: Lattice, norm, degrees) -> TDesignReport:
    """Per-degree design verdicts for one shell.

    Even degrees are decided by the exact kernel sums (mode "kernel sums",
    a failure's witness its nonzero sum); odd degrees hold for every
    antipodal shell, and antipodality is asserted at enumeration, but the
    odd sums are computed anyway rather than assumed.  The degrees are
    checked against ``DEGREE_CAP`` before the shell is enumerated.
    """
    degrees = _degree_list(degrees)
    shell = shell_enum(lat, norm)
    verdicts = {j: Verdict(v == 0, "kernel sums", v or None) for j, v in
                gegenbauer_component_sums(shell, degrees).items()}
    return TDesignReport(len(shell), verdicts, prefix_strength(verdicts))


# ---------------------------------------------------------------------------
# harmonic polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HarmonicPolynomial:
    """Homogeneous polynomial with zero Laplacian on a rank-n lattice: the
    constant 1 (degree 0, no direction) or the degree-k zonal harmonic
    along ``direction``, a nonzero integer lattice coordinate row (on Z^n,
    a Euclidean direction), held as ints; a non-integer entry is refused.
    Its shell sums go through the Gram matrix only (``zonal_shell_sum``),
    so they are exact even where Euclidean coordinates are not."""
    n: int
    degree: int
    direction: tuple[int, ...] | None = None

    def __post_init__(self):
        u = self.direction
        _degree_list((self.degree,))      # nonnegative, at most DEGREE_CAP
        if u is None and self.degree != 0:
            raise ValueError("only the constant 1 has no direction")
        if u is not None:
            ints = tuple(map(int, u))
            if ints != tuple(u):
                raise ValueError("direction entries must be integers")
            if len(ints) != self.n or not any(ints):
                raise ValueError(f"direction must be a nonzero row of "
                                 f"{self.n} coordinates")
            object.__setattr__(self, "direction", ints)


def constant_poly(n: int) -> HarmonicPolynomial:
    return HarmonicPolynomial(n, 0)


def zonal_harmonic_coords(lat: Lattice, k: int, direction) -> HarmonicPolynomial:
    """Zonal harmonic whose direction is an integer lattice coordinate row."""
    return HarmonicPolynomial(lat.rank, k, direction)


def zonal_shell_sum(lat: Lattice, shell: Shell, k: int, direction) -> Fraction:
    """Exact sum over the shell of the degree-k zonal harmonic along the
    lattice-coordinate row u, checked as a ``HarmonicPolynomial`` direction:
    the zonal kernel (``_zonal_sums``) at the histogram of v = 2 (x.u),
    with D^2 = 4 r^2 |u|^2 = (2 r^2)(2 |u|^2), an integer; the sum is
    divided by 2^k.  The shell must be one of ``lat``'s: another Gram
    matrix is refused."""
    import numpy as np
    u = HarmonicPolynomial(lat.rank, k, direction).direction
    if shell.lattice.g2 != lat.g2:
        raise ValueError("the shell belongs to another Gram matrix")
    if not len(shell):
        return Fraction(0)
    gu = [[sum(gij * y for gij, y in zip(row, u))] for row in lat.g2]
    dots2 = _int_matmul(shell.rows, gu)[:, 0]          # 2 (x.u)
    vals, counts = np.unique(dots2, return_counts=True)
    d2 = int(2 * shell.norm) * sum(x * g[0] for x, g in zip(u, gu))
    return _zonal_sums(lat.rank, vals.tolist(), counts.tolist(), d2,
                       [k])[k] / 2 ** k


# ---------------------------------------------------------------------------
# theta series
# ---------------------------------------------------------------------------

def harmonic_theta(lat: Lattice, p: HarmonicPolynomial, prec_norm: int,
                   cap: int = SHELL_CAP, workers: int = 1) -> QSeries:
    """Sum of P(x) q^{(x,x)} over norms <= prec_norm, exponent = norm.

    Norms are integral exactly when every diagonal entry of 2G is even;
    any other lattice is refused (``ValueError``) before anything is
    enumerated, as is a ``prec_norm`` over ``modforms.SERIES_CAP``.  For
    an even lattice odd norms are provably empty and skipped.
    """
    if p.n != lat.rank:
        raise ValueError("polynomial dimension must match the lattice rank")
    if any(lat.g2[i][i] % 2 for i in range(lat.rank)):
        raise ValueError("a theta series needs integral norms: every "
                         "diagonal entry of 2G must be even")
    _check_prec(prec_norm)
    even = is_even(lat)
    table = _vectors_by_doubled_norm(lat, 2 * prec_norm, cap, workers)
    coeffs: dict[int, Fraction] = {0: Fraction(1)} if p.degree == 0 else {}
    for w, shell in table.items():
        norm = w // 2
        if even and norm % 2:
            raise InternalCheckError("odd norm on an even lattice")
        val = len(shell) if p.degree == 0 else zonal_shell_sum(
            lat, shell, p.degree, p.direction)
        if val:
            coeffs[norm] = val
    return QSeries(0, prec_norm, coeffs)


def to_modular_q(series: QSeries) -> QSeries:
    """Reindex a lattice-convention theta (exponent = norm) by halving
    exponents; only valid when odd-exponent coefficients vanish."""
    if series.offset24 % 24 != 0:
        raise ValueError("expected a whole-exponent lattice series")
    base = series.offset24 // 24          # normalization may have shifted
    coeffs: dict[int, Fraction] = {}
    for i, c in series.nonzero_terms():
        if (base + i) % 2:
            raise ValueError(f"odd exponent {base + i} present; cannot halve")
        coeffs[(base + i) // 2] = c
    return QSeries(0, (base + series.prec) // 2, coeffs)


@dataclass(frozen=True)
class MembershipReport:
    weight: int
    with_e6_factor: bool
    fit: FitResult              # as fit_in_space returned it
    series: QSeries             # the theta fitted, exponent = norm


def _theta_fits(lat: Lattice, degree: int, polys, prec_norm: int, prec: int
                ) -> Iterator[tuple[QSeries, FitResult, ModFormSpace]]:
    """Refuse first, once (degree cap, even unimodular lattice, even degree,
    depth ``theta_fit_norm``); then fit each polynomial's theta, q-halved,
    in one canonical echelon basis of M_k, k = n/2 + degree, exact through
    max(prec, prec_norm // 2): its pivots 0..dim-1 give the coordinates and
    the theta's later terms check them.  Yield (theta, fit, space)."""
    _degree_list((degree,))
    require_even_unimodular(lat, "membership prediction")
    if degree % 2:
        raise ValueError("harmonic degree must be even here")
    if prec_norm < (needed := theta_fit_norm(lat.rank, degree)):
        raise ValueError("not enough theta coefficients for a meaningful fit: "
                         f"enumerate to norm {needed} at least")
    _check_prec(prec)
    space = None
    for p in polys:
        theta = harmonic_theta(lat, p, prec_norm)   # its refusals come first
        space = space or mf_basis(lat.rank // 2 + degree,
                                  max(prec, prec_norm // 2))
        yield theta, fit_in_space(to_modular_q(theta), space), space


def theta_membership_check(lat: Lattice, p: HarmonicPolynomial,
                           prec_norm: int = 8) -> MembershipReport:
    """Fit the theta of ``p`` into M_k, k = n/2 + degree (``_theta_fits``);
    ``mf_basis(k, prec).element(report.fit.coords)`` extends it to any
    precision.  ``with_e6_factor`` records k = 2 (mod 4):
    M_k = E6 * M_{k-6}."""
    (series, fit, space), = _theta_fits(lat, p.degree, [p], prec_norm, 0)
    return MembershipReport(space.weight, space.weight % 4 == 2, fit, series)


def theta_fit_norm(rank: int, degree: int) -> int:
    """Smallest enumeration norm that overdetermines a theta fit in M_k,
    k = rank/2 + degree: the fit reads q^0..q^(norm // 2), one coefficient
    more than dim M_k."""
    return 2 * mf_dim(rank // 2 + degree)


def theta_directions(rank: int) -> list[tuple[int, ...]]:
    """The lattice-coordinate directions a zonal theta is fitted along:
    every unit row up to rank 8, else rows 0, rank/2 and rank - 1; then
    the all-ones row and the row (i mod 3) - 1.  Row e_0 comes first."""
    rows = range(rank) if rank <= 8 else (0, rank // 2, rank - 1)
    return ([tuple(int(i == r) for i in range(rank)) for r in rows]
            + [(1,) * rank, tuple((i % 3) - 1 for i in range(rank))])


def zonal_theta_fits(lat: Lattice, degree: int, prec_norm: int, prec: int
                     ) -> Iterator[tuple[tuple, tuple[Fraction, ...], QSeries]]:
    """Fit the degree-``degree`` zonal theta along each direction of
    ``theta_directions`` in one space (``_theta_fits``); yield (direction,
    coords, form), the form exact through q^max(prec, prec_norm // 2).  A
    failed fit is an internal error: membership is a theorem here."""
    dirs = theta_directions(lat.rank)
    fits = _theta_fits(lat, degree, (zonal_harmonic_coords(lat, degree, u)
                                     for u in dirs), prec_norm, prec)
    for u, (_, fit, space) in zip(dirs, fits):
        if not fit.ok:
            raise InternalCheckError(
                f"degree-{degree} theta along {u} escaped M_{space.weight}: "
                f"mismatch at q^{fit.mismatch_exponent}")
        yield u, fit.coords, space.element(fit.coords)


@dataclass(frozen=True)
class ThetaDesignReport:
    prec_norm: int
    directions_tested: int
    verdicts: dict[int, Verdict]
    strength: int


def theta_design_report(lat: Lattice, norm, t: int,
                        prec_norm: int = 0) -> ThetaDesignReport:
    """A ``Verdict`` for each degree 1..t on the shell of a
    positive even norm of an even unimodular lattice, from an enumeration to
    ``prec_norm`` (0: norm 8 up to rank 8, else 4); every refusal comes
    first, the ``DEGREE_CAP`` check on degrees 1..t before all others.

    Odd degrees hold by antipodality.  An even degree's weighted theta lies
    in the weight-(rank/2 + degree) forms vanishing at q = 0; when that space
    (``cusp_monomials``) is zero the verdict is a proof for every harmonic.
    Otherwise the zonal theta is fitted along ``theta_directions`` and each
    fitted form's coefficient at the norm is read: a nonzero disproves, and
    zeros mean no obstruction along the tested directions.
    """
    _degree_list(range(1, t + 1))
    require_even_unimodular(lat, "theta criterion")
    norm = Fraction(norm)
    if norm <= 0 or norm.denominator != 1 or int(norm) % 2:
        raise ValueError("theta criterion needs a positive even integer norm")
    if prec_norm < 0:
        raise ValueError("--prec-norm must be nonnegative")
    prec_norm = prec_norm or (8 if lat.rank <= 8 else 4)

    def fitted(j: int) -> bool:         # odd weight or no cusp form: False
        return bool(cusp_monomials(lat.rank // 2 + j, 1))

    # dim M_k falls only at k = 12m + 2: the two largest fitted degrees suffice
    top = itertools.islice(filter(fitted, range(t // 2 * 2, 0, -2)), 2)
    needed = max((theta_fit_norm(lat.rank, j) for j in top), default=0)
    if prec_norm < needed:
        raise ValueError(f"--prec-norm {prec_norm} is too shallow for the theta "
                         f"fits up to degree {t}; use at least {needed}")
    target = int(norm) // 2
    prec = max(target, needed)          # rebuild the fitted forms through here
    dirs = theta_directions(lat.rank)
    verdicts: dict[int, Verdict] = {}
    for j in range(1, t + 1):
        if not fitted(j):
            verdicts[j] = Verdict(True, "antipodal" if j % 2
                                  else "cusp space zero")
        elif all(form[target - form.offset24 // 24] == 0 for _, _, form in
                 zonal_theta_fits(lat, j, prec_norm, prec)):
            verdicts[j] = Verdict(True, f"fit along {len(dirs)} directions")
        else:
            verdicts[j] = Verdict(False, "nonzero fitted coefficient")
    return ThetaDesignReport(prec_norm, len(dirs), verdicts,
                             prefix_strength(verdicts))
