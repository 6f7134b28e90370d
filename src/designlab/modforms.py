"""Level-one modular form machinery on exact q-series.

Everything here is a finite exact computation: eta quotients expand through
Euler's pentagonal number theorem and J.C.P. Miller's power recurrence, so
no series is ever divided; Eisenstein series through sieved divisor sums;
and the weight-k space is handled via the echelonized monomial basis in E4
and E6 (leading exponents 0, 1, ..., dim-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from ._grow import grow_once
from .errors import (CapExceededError, InternalCheckError, OffsetError,
                     PrecisionError)
from .qseries import QSeries, exact_str

__all__ = [
    "eta", "eta_quotient", "eisenstein", "delta_eta", "delta_eisenstein",
    "mf_dim", "mf_basis", "cusp_monomials", "echelon_rows", "fit_in_space",
    "ModFormSpace", "FitResult",
    "factorize", "sigma", "ord_p", "ramanujan_tau",
    "SERIES_CAP",
]

SERIES_CAP = 100_000        # refuse eta and Eisenstein expansions past q^this


# ---------------------------------------------------------------------------
# eta and friends
# ---------------------------------------------------------------------------

def _check_prec(prec: int) -> None:
    """Refuse a precision over ``SERIES_CAP`` before any list is built."""
    if prec > SERIES_CAP:
        raise CapExceededError(f"series precision {exact_str(prec)} exceeds "
                               f"cap {SERIES_CAP}")


def _euler_ints(prec: int) -> list[int]:
    """Coefficients of prod (1 - q^i), pentagonal-number sparse."""
    out = [0] * (prec + 1)
    out[0] = 1
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > prec:
            break
        s = -1 if k % 2 else 1
        out[g1] += s
        if g2 <= prec:
            out[g2] += s
        k += 1
    return out


@grow_once(lambda r, n: (r, n), lambda f, n: f[:n + 1])
def _euler_power(r: int, n: int) -> tuple[int, ...]:
    """Coefficients 0..n of prod (1 - q^i)^r for any integer r.

    Miller's rule for powers of a series (Knuth, TAOCP vol. 2, 4.7): from
    E = prod (1 - q^i) = sum g_k q^k and F = E^r, E F' = r E' F gives

        n f_n = sum_{k>=1} ((r + 1) k - n) g_k f_{n-k}.

    Only the ~2 sqrt(2n/3) pentagonal g_k = +-1 are nonzero, so each
    coefficient costs that many integer steps and nothing is inverted.
    The division by n is exact, which is checked.  Coefficient i does not
    depend on n, so one tuple is held per exponent, the longest asked
    (``_grow.grow_once``), and a shorter one is its prefix.
    """
    g = _euler_ints(n)
    pentagonal = [k for k in range(1, n + 1) if g[k]]
    f = [1] + [0] * n
    live: list[tuple[int, int, int]] = []   # (k, (r + 1) k g_k, g_k)
    for i in range(1, n + 1):
        if len(live) < len(pentagonal) and pentagonal[len(live)] <= i:
            k = pentagonal[len(live)]
            live.append((k, (r + 1) * k * g[k], g[k]))
        acc = 0
        for k, w, c in live:
            acc += (w - c * i) * f[i - k]
        q, rem = divmod(acc, i)
        if rem:
            raise InternalCheckError(
                f"power recurrence for eta^{r} left a remainder at q^{i}")
        f[i] = q
    return tuple(f)


def eta(prec: int) -> QSeries:
    """Dedekind eta: q^(1/24) * prod (1 - q^i), exact through q^prec."""
    _check_prec(prec)
    return QSeries.from_int_list(1, _euler_ints(prec))


def eta_quotient(factors: list[tuple[int, int]], prec: int) -> QSeries:
    """Product of eta(m z)^r for (m, r) in ``factors``; r may be negative.

    The leading exponent is sum(m * r) / 24 by construction.  Exponents of
    one multiplier are merged first; each merged eta(m z)^r, of either
    sign, expands by the power recurrence ``_euler_power`` to prec // m and
    is spread onto every m-th index.  The factors are then multiplied, so
    nothing divides.
    """
    _check_prec(prec)
    merged: dict[int, int] = {}
    for m, r in factors:
        if m < 1:
            raise ValueError(f"eta argument multiplier must be >= 1, got {m}")
        merged[m] = merged.get(m, 0) + r
    out = None
    for m, r in sorted(merged.items()):
        if r == 0:
            continue
        power = _euler_power(r, prec // m)
        if m == 1:
            ints = power        # the held tuple, shared by the series
        else:
            ints = [0] * (prec + 1)
            ints[::m] = power
        factor = QSeries._from_ints(m * r, prec, ints)
        out = factor if out is None else out * factor
    return QSeries.one(prec) if out is None else out


def _sigma_sieve(power: int, bound: int) -> list[int]:
    """sigma_power(n) for n = 0..bound (index 0 unused), by a multiplicative
    sieve.  ``spf[n]`` is the smallest prime factor of n: for d from
    isqrt(bound) down to 2 a slice writes d to its multiples from d*d on,
    so the last to write a composite is its smallest divisor above 1, and a
    prime keeps itself.  With n = p*m, p = spf[n], and r = n with every
    factor p removed, sigma(n) = sigma(m)*(p^k + 1) when p does not divide
    m, else sigma(m)*p^k + sigma(r)."""
    spf = list(range(bound + 1))
    for d in range(isqrt(bound), 1, -1):
        spf[d * d::d] = [d] * len(range(d * d, bound + 1, d))
    out, rest, pk = [0] * (bound + 1), [1] * (bound + 1), [0] * (bound + 1)
    if bound:
        out[1] = 1
    for n in range(2, bound + 1):
        p = spf[n]
        if p == n:
            pk[n] = n ** power
        m = n // p
        if spf[m] == p:
            r = rest[n] = rest[m]
            out[n] = out[m] * pk[p] + out[r]
        else:
            rest[n] = m
            out[n] = out[m] * (pk[p] + 1)
    return out


def eisenstein(k: int, prec: int) -> QSeries:
    """Normalized Eisenstein series E4 or E6."""
    _check_prec(prec)
    if k == 4:
        mult, power = 240, 3
    elif k == 6:
        mult, power = -504, 5
    else:
        raise ValueError(f"only weights 4 and 6 are generators, got {k}")
    sig = _sigma_sieve(power, prec)
    ints = [1] + [mult * sig[n] for n in range(1, prec + 1)]
    return QSeries.from_int_list(0, ints)


def delta_eta(prec: int) -> QSeries:
    """The discriminant cusp form as the 24th power of eta."""
    return eta_quotient([(1, 24)], prec)


def delta_eisenstein(prec: int) -> QSeries:
    """The discriminant cusp form as (E4^3 - E6^2)/1728.

    Computed at prec+1 internally: the constant terms cancel, so one
    leading index is consumed by normalisation.
    """
    e4 = eisenstein(4, prec + 1)
    e6 = eisenstein(6, prec + 1)
    return (e4.pow(3) - e6.pow(2)).scale(Fraction(1, 1728))


# ---------------------------------------------------------------------------
# elementary number theory
# ---------------------------------------------------------------------------

def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division, smallest prime first."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def sigma(n: int, k: int) -> int:
    """Sum of k-th powers of the divisors of n."""
    total = 1
    for p, e in factorize(n):
        if k == 0:
            total *= e + 1
        else:
            total *= (p ** (k * (e + 1)) - 1) // (p ** k - 1)
    return total


def ord_p(n: int, p: int) -> int:
    """Exponent of the prime p in n (n != 0)."""
    if n == 0:
        raise ValueError("ord_p of zero is infinite")
    n = abs(n)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def ramanujan_tau(n: int) -> int:
    """tau(n) read off the eta-power expansion of the discriminant: delta =
    q * prod(1-q^i)^24, so tau(n) is coefficient n-1 of the held eta^24.

    The coefficients are asked through the power of two at or above n, at
    least 1024 and at most ``SERIES_CAP`` (n itself past it, which is
    refused), so a scan of ascending n builds them once per doubling.
    """
    if n < 1:
        raise ValueError("tau is indexed from 1")
    bound = max(n, min(max(1024, 1 << (n - 1).bit_length()), SERIES_CAP))
    _check_prec(bound)
    return _euler_power(24, bound - 1)[n - 1]


# ---------------------------------------------------------------------------
# weight-k spaces
# ---------------------------------------------------------------------------

def _monomials(k: int) -> range:
    """E6 exponents b of the weight-k monomials E4^a E6^b, a = (k - 6b)/4."""
    stop = k // 6 + 1 if k % 2 == 0 else 0      # none for odd or negative k
    return range(k // 2 % 2, stop, 2)           # 4a + 6b = k: b = k/2 mod 2


def cusp_monomials(k: int, mu: int) -> range:
    """Weight-k forms of ord_q >= mu, Delta^mu M_{k-12mu}, as _monomials."""
    return _monomials(k - 12 * mu)


def mf_dim(k: int) -> int:
    """Dimension of the full level-one space of weight k, the number of its
    monomials E4^a E6^b: floor(k/12) + [k != 2 mod 12] for even k >= 0."""
    return len(_monomials(k))


@dataclass(frozen=True)
class ModFormSpace:
    """Echelonized basis of the weight-k space, exact through q^prec."""
    weight: int
    dim: int
    prec: int
    basis: list[QSeries]

    def __post_init__(self):
        leads = [None if f.is_zero() else f.leading()[0] for f in self.basis]
        if leads != list(range(self.dim)):
            raise InternalCheckError(
                "echelon basis must lead at exponents 0..dim-1")

    def element(self, coords) -> QSeries:
        """sum coords[i] * basis[i] through q^prec.  Echelon bases are
        canonical, so coordinates fitted at any precision fit here too."""
        if len(coords) != self.dim:
            raise ValueError(f"need {self.dim} coordinates, got {len(coords)}")
        form = QSeries.zero(self.prec)
        for c, g in zip(coords, self.basis):
            if c:
                form = form + g.scale(c)
        return form


def echelon_rows(rows: list[QSeries], prec: int) -> list[QSeries]:
    """Fully reduced row echelon form of the spanned series space.

    Rows sit at exponents 0, 1, ... and must be known through q^prec;
    later terms are dropped, so a row leading beyond q^prec counts as zero.
    The row leading lowest is the next pivot: scaled to lead 1, its leading
    exponent is cleared from every other row.  Sorted by pivot.
    """
    live = []
    for f in rows:
        e0, rem = divmod(f.offset24, 24)
        if rem or e0 < 0:
            raise OffsetError("echelon rows must sit on exponents 0, 1, ...")
        if e0 + f.prec < prec:
            raise PrecisionError(f"row known only through q^{e0 + f.prec}")
        if e0 <= prec:
            live.append(f.truncate(prec - e0))
    done: list[QSeries] = []
    while live := [f for f in live if not f.is_zero()]:
        low = min(live, key=lambda f: f.offset24)
        pivot = low.scale(1 / low[0])

        def clear(f: QSeries) -> QSeries:
            c = f[(pivot.offset24 - f.offset24) // 24]
            return f - pivot.scale(c) if c else f

        live = [clear(f) for f in live if f is not low]
        done = [clear(f) for f in done] + [pivot]
    return done


def mf_basis(k: int, prec: int) -> ModFormSpace:
    """Monomials E4^a E6^b of weight k, Gauss-reduced to echelon form."""
    dim = mf_dim(k)
    if dim == 0:
        return ModFormSpace(k, 0, prec, [])
    if prec < dim - 1:
        raise PrecisionError(
            f"prec {prec} cannot hold {dim} echelon leading exponents")
    e4, e6 = eisenstein(4, prec), eisenstein(6, prec)
    rows = []
    for b in _monomials(k):
        a = (k - 6 * b) // 4        # no factor at exponent 0: none is 1
        rows.append(e4.pow(a) * e6.pow(b) if a and b
                    else e6.pow(b) if b else e4.pow(a))
    # pivots of the reduced echelon form land at exponents 0..dim-1, which
    # ModFormSpace checks
    return ModFormSpace(k, dim, prec, echelon_rows(rows, prec))


@dataclass(frozen=True)
class FitResult:
    """Outcome of expressing a series in a ModFormSpace."""
    ok: bool
    coords: tuple[Fraction, ...] | None
    mismatch_exponent: int | None

    def __bool__(self) -> bool:
        return self.ok


def fit_in_space(f: QSeries, space: ModFormSpace, margin: int = 10) -> FitResult:
    """Exact coordinates of f in the space, or the first failing exponent.

    Insufficient precision raises; non-membership is an ordinary result.
    The margin demands that many checkable coefficients beyond the ones that
    merely determine the coordinates.  These are f's coefficients at the
    echelon pivots 0..dim-1; a mismatch leads f - space.element(coords).
    """
    if f.offset24 % 24 != 0:
        raise OffsetError("candidate lives on a fractional exponent grid")
    e0 = f.offset24 // 24
    if not f.is_zero() and e0 < 0:
        return FitResult(False, None, e0)
    top = e0 + f.prec          # exponents 0..top are all known
    if top + 1 < space.dim + margin:
        raise PrecisionError(
            f"need {space.dim + margin} known coefficients, have {top + 1}")
    coords = tuple(f[e - e0] for e in range(space.dim))
    diff = f - space.element(coords)
    if diff.is_zero():
        return FitResult(True, coords, None)
    return FitResult(False, None, diff.offset24 // 24)
