"""Exact truncated q-expansions with fractional leading exponents.

A series is stored as  q^(offset24/24) * (c_0 + c_1 q + ... + c_prec q^prec)
with exact rational coefficients.  The denominator of the leading exponent
always divides 24, which is enough for eta quotients and the graded traces
built on top of them.  Coefficients beyond index ``prec`` are *unknown*, not
zero; any operation that would need them raises :class:`PrecisionError`
instead of silently padding.

The coefficients are kept as a dense tuple of integer numerators over one
common positive denominator, reduced so that the denominator shares no
factor with all numerators at once; they are handed out as ``Fraction``s.
Products go through the Kronecker kernel ``_int_convolve``, and division
inverts the divisor by Newton iteration on integers.  Its cost therefore
follows the bit size of the coefficients, not only their number: at prec
10^4 the inverse of eta^8 carries ~1000-bit coefficients and takes about
11 s, and that of eta^24 ~1700-bit ones and about 26 s, nearly all of it
in CPython's big-int multiply (2-vCPU x86 host, CPython 3.11).  Eta
quotients never divide: ``modforms.eta_quotient`` expands those two
inverses directly in 0.3-0.4 s.
"""

from __future__ import annotations

import json
from collections.abc import Iterator, Sequence
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from .errors import OffsetError, PrecisionError

__all__ = ["QSeries"]


def exact_str(x) -> str:
    """``str(x)`` of an int or Fraction at any size: ``decimal`` writes the
    digits, and has no ``sys.get_int_max_str_digits()`` limit to refuse."""
    if x.denominator != 1:
        return f"{exact_str(x.numerator)}/{exact_str(x.denominator)}"
    return str(Decimal(x.numerator))


# ---------------------------------------------------------------------------
# integer kernels
# ---------------------------------------------------------------------------

def _int_convolve(a: Sequence[int], b: Sequence[int], out_len: int
                  ) -> list[int]:
    """First ``out_len`` coefficients of the product of two integer polys.

    Uses Kronecker substitution: pack each polynomial into one big integer
    with fixed-width digit slots, multiply once, and read the digits back.
    CPython's big-int multiply is subquadratic, which makes 10^4-term series
    products effectively instant; a schoolbook loop in Python would not be.
    """
    max_a = max(abs(x) for x in a)
    max_b = max(abs(x) for x in b)
    if max_a == 0 or max_b == 0:
        return [0] * out_len
    # every product coefficient is a sum of at most min(len) terms
    bound = max_a * max_b * min(len(a), len(b))
    slot_bits = ((bound.bit_length() + 2) + 7) // 8 * 8
    nbytes = slot_bits // 8

    def pack(coeffs: Sequence[int]) -> int:
        pos = bytearray(nbytes * len(coeffs))
        neg = bytearray(nbytes * len(coeffs))
        for i, c in enumerate(coeffs):
            if c > 0:
                pos[i * nbytes:(i + 1) * nbytes] = c.to_bytes(nbytes, "little")
            elif c < 0:
                neg[i * nbytes:(i + 1) * nbytes] = (-c).to_bytes(nbytes, "little")
        return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")

    prod = pack(a) * pack(b)
    total = len(a) + len(b) - 1
    half = 1 << (slot_bits - 1)
    # shift every digit into [0, 2^slot_bits) so that to_bytes is well defined
    bias = int.from_bytes(half.to_bytes(nbytes, "little") * total, "little")
    raw = (prod + bias).to_bytes(total * nbytes, "little")
    out = []
    for k in range(min(out_len, total)):
        out.append(int.from_bytes(raw[k * nbytes:(k + 1) * nbytes], "little") - half)
    out.extend([0] * (out_len - len(out)))
    return out


def _int_inverse(b: Sequence[int], n: int) -> list[int]:
    """First ``n`` coefficients of 1/b for an integer series with b[0] == 1.

    Newton iteration g <- g + g*(1 - b*g) doubles the number of correct
    coefficients per step; with b[0] == 1 every iterate stays integral.
    """
    g = [1]
    k = 1
    while k < n:
        k2 = min(2 * k, n)
        # b*g == 1 through x^(k-1), so 1 - b*g == x^k * e (mod x^k2)
        e = [-c for c in _int_convolve(b[:k2], g, k2)[k:]]
        g += _int_convolve(g[:k2 - k], e, k2 - k)
        k = k2
    return g


# ---------------------------------------------------------------------------
# the series type
# ---------------------------------------------------------------------------

class QSeries:
    """Truncated q-expansion with exact rational coefficients.

    Attributes:
        offset24: leading exponent times 24 (may be negative).
        prec: largest stored index; coefficients are exact for 0..prec.
        coeffs: read-only map index -> nonzero Fraction.
    """

    __slots__ = ("offset24", "prec", "_num", "_den", "_coeffs")

    def __init__(self, offset24: int, prec: int, coeffs: dict[int, Fraction]):
        if prec < 0:
            raise PrecisionError("series with negative precision")
        cc = {int(i): Fraction(c) for i, c in coeffs.items() if c != 0}
        if cc and (min(cc) < 0 or max(cc) > prec):
            raise ValueError("coefficient index outside 0..prec")
        den = lcm(*(c.denominator for c in cc.values()))
        num = [0] * (prec + 1)
        for i, c in cc.items():
            num[i] = c.numerator * (den // c.denominator)
        self._set(int(offset24), prec, num, den)

    @classmethod
    def _from_ints(cls, offset24: int, prec: int, num: Sequence[int],
                   den: int = 1) -> "QSeries":
        """Series with coefficients num[i]/den; ``num`` holds prec+1 ints
        and ``den`` is positive."""
        s = cls.__new__(cls)
        s._set(offset24, prec, num, den)
        return s

    def _set(self, off: int, prec: int, num: Sequence[int], den: int
             ) -> None:
        if prec < 0:
            raise PrecisionError("series with negative precision")
        # keep index 0 as the first potentially-nonzero slot
        lead = next((i for i, c in enumerate(num) if c), None)
        if lead is None:
            num, den = (0,) * (prec + 1), 1
        else:
            if lead:
                off += 24 * lead
                prec -= lead
                num = num[lead:]
            if den != 1:
                g = gcd(den, *num)
                if g != 1:
                    num = [c // g for c in num]
                    den //= g
        self.offset24 = off
        self.prec = prec
        self._num = tuple(num)
        self._den = den
        self._coeffs = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls, prec: int) -> "QSeries":
        return cls._from_ints(0, prec, [1] + [0] * prec)

    @classmethod
    def zero(cls, prec: int) -> "QSeries":
        return cls._from_ints(0, prec, [0] * (prec + 1))

    @classmethod
    def from_int_list(cls, offset24: int, ints: list[int]) -> "QSeries":
        return cls._from_ints(offset24, len(ints) - 1, [int(c) for c in ints])

    # -- basic access ------------------------------------------------------

    @property
    def coeffs(self) -> MappingProxyType:
        """Read-only map index -> Fraction of the nonzero known terms."""
        if self._coeffs is None:
            self._coeffs = MappingProxyType(dict(self.nonzero_terms()))
        return self._coeffs

    def nonzero_terms(self) -> Iterator[tuple[int, Fraction]]:
        """(index, Fraction) of the nonzero known terms in index order; each
        Fraction is built only when the iteration reaches it."""
        d = self._den
        return ((i, Fraction(c, d)) for i, c in enumerate(self._num) if c)

    def __getitem__(self, i: int) -> Fraction:
        """Coefficient at stored index i (exponent offset24/24 + i)."""
        if i > self.prec:
            raise PrecisionError(
                f"index {i} beyond known precision {self.prec}")
        if i < 0:
            return Fraction(0)
        return Fraction(self._num[i], self._den)

    def exponent(self, i: int) -> Fraction:
        """The q-exponent carried by stored index i."""
        return Fraction(self.offset24 + 24 * i, 24)

    def int_list(self, count: int) -> list[int]:
        """First ``count`` coefficients as ints; fails on true fractions."""
        out = []
        for i in range(count):
            if i > self.prec:
                raise PrecisionError(
                    f"index {i} beyond known precision {self.prec}")
            q, r = divmod(self._num[i], self._den)
            if r:
                raise ValueError(f"coefficient at index {i} is not integral")
            out.append(q)
        return out

    def is_zero(self) -> bool:
        """True when every known coefficient vanishes."""
        return self._num[0] == 0        # a nonzero series leads at index 0

    def is_integral(self) -> bool:
        return self._den == 1

    def leading(self) -> tuple[Fraction, Fraction]:
        """(exponent, coefficient) of the first nonzero known term."""
        if self.is_zero():
            raise ValueError("zero series has no leading term")
        return self.exponent(0), self[0]

    def truncate(self, prec: int) -> "QSeries":
        if prec > self.prec:
            raise PrecisionError(
                f"cannot extend precision {self.prec} to {prec}")
        return QSeries._from_ints(self.offset24, prec, self._num[:prec + 1],
                                  self._den)

    def shift24(self, k: int) -> "QSeries":
        """Multiply by q^(k/24)."""
        return QSeries._from_ints(self.offset24 + k, self.prec, self._num,
                                  self._den)

    # -- arithmetic --------------------------------------------------------

    def _aligned(self, other: "QSeries") -> tuple[int, int, int]:
        d = other.offset24 - self.offset24
        if d % 24 != 0:
            raise OffsetError(
                f"offsets {self.offset24}/24 and {other.offset24}/24 differ "
                "by a fractional q-power; sum not representable")
        k = d // 24
        if k >= 0:
            return self.offset24, 0, k
        return other.offset24, -k, 0

    def _window(self, shift: int, top: int, mult: int = 1) -> list[int]:
        """Numerators times ``mult`` placed at indices shift.., cut to 0..top."""
        if top < 0:
            return []
        body = self._num[:max(top + 1 - shift, 0)]
        if mult != 1:
            body = [c * mult for c in body]
        return ([0] * shift + list(body))[:top + 1]

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        off, sa, sb = self._aligned(other)
        # a term below the other series' offset meets only known zeros
        prec = min(self.prec + sa, other.prec + sb)
        den = lcm(self._den, other._den)
        num = [x + y for x, y in zip(self._window(sa, prec, den // self._den),
                                     other._window(sb, prec, den // other._den))]
        return QSeries._from_ints(off, prec, num, den)

    def __neg__(self) -> "QSeries":
        return QSeries._from_ints(self.offset24, self.prec,
                                  [-c for c in self._num], self._den)

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        return self + (-other)

    def scale(self, s) -> "QSeries":
        s = Fraction(s)
        num = [c * s.numerator for c in self._num]
        return QSeries._from_ints(self.offset24, self.prec, num,
                                  self._den * s.denominator)

    def __mul__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        prec = min(self.prec, other.prec)
        raw = _int_convolve(self._num[:prec + 1], other._num[:prec + 1],
                            prec + 1)
        return QSeries._from_ints(self.offset24 + other.offset24, prec, raw,
                                  self._den * other._den)

    def pow(self, e: int) -> "QSeries":
        if e < 0:
            return QSeries.one(self.prec).div(self.pow(-e))
        result = QSeries.one(self.prec)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def div(self, other: "QSeries") -> "QSeries":
        """Exact series division; the divisor's leading term must be known
        nonzero.

        The divisor's numerators b are inverted by Newton iteration.  When
        b0 = b[0] is not 1, the iteration runs on the integral, unit-led
        series B'(x) = B(b0*x)/b0, and the numerator is rescaled the same
        way: A/B at index i is (A(b0*x) / B'(x))[i] / b0^(i+1).
        """
        if other.is_zero():
            raise ZeroDivisionError("division by a series with no known "
                                    "nonzero coefficient")
        prec = min(self.prec, other.prec)
        n = prec + 1
        a, b = self._num[:n], other._num[:n]
        b0 = b[0]
        if b0 != 1:
            pw, a2, b2 = 1, [], []
            for ai, bi in zip(a, b):
                a2.append(ai * pw)
                b2.append(bi * pw // b0)    # exact: b0^(i-1) for i >= 1
                pw *= b0
            a, b = a2, b2
        out = _int_convolve(a, _int_inverse(b, n), n)
        den = self._den
        if b0 != 1:
            # index i still carries 1/b0^(i+1): move it onto b0^n
            pw = 1
            for i in range(n - 1, -1, -1):
                out[i] *= pw
                pw *= b0
            den *= pw
            if den < 0:
                out, den = [-c for c in out], -den
        if other._den != 1:
            out = [c * other._den for c in out]
        return QSeries._from_ints(self.offset24 - other.offset24, prec, out,
                                  den)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, QSeries):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return self.prec == other.prec
        return (self.offset24 == other.offset24 and self.prec == other.prec
                and self._den == other._den and self._num == other._num)

    def __hash__(self):
        if self.is_zero():
            # every zero series of one precision is equal, whatever its offset
            return hash(("zero", self.prec))
        return hash((self.offset24, self.prec, self._den, self._num))

    def agrees_with(self, other: "QSeries", through: int | None = None) -> bool:
        """Coefficientwise equality over the shared known range.

        ``through`` restricts the comparison to stored indices <= through
        (after aligning offsets).  Series on incompatible grids never agree.
        """
        if self.is_zero() and other.is_zero():
            return True
        try:
            _, sa, sb = self._aligned(other)
        except OffsetError:
            return False
        top = min(self.prec + sa, other.prec + sb)
        if through is not None:
            top = min(top, through)
        # a/da == b/db  <=>  a*db == b*da
        return (self._window(sa, top, other._den)
                == other._window(sb, top, self._den))

    def proportional_to(self, other: "QSeries",
                        through: int | None = None) -> Fraction | None:
        """Exact ratio self = r * other over the shared range, or None."""
        if other.is_zero():
            return None
        d = self.offset24 - other.offset24
        if d % 24 != 0:
            return None
        # self index j lines up with other's leading index 0
        j = -(d // 24)
        if j < 0 or j > self.prec:
            return None
        r = self[j] / other[0]
        if self.agrees_with(other.scale(r), through=through):
            return r
        return None

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """The object ``to_json`` writes: offset24, prec and the nonzero
        terms as [index, "numerator/denominator"] in lowest terms."""
        d = self._den
        if d == 1:
            items = [[i, f"{exact_str(c)}/1"]
                     for i, c in enumerate(self._num) if c]
        else:
            items = []
            for i, c in enumerate(self._num):
                if c:
                    g = gcd(c, d)
                    num, den = exact_str(c // g), exact_str(d // g)
                    items.append([i, f"{num}/{den}"])
        return {"offset24": self.offset24, "prec": self.prec, "coeffs": items}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "QSeries":
        obj = json.loads(text)
        coeffs = {}
        for i, s in obj["coeffs"]:      # "n/d", read at any size by decimal
            n, _, d = s.partition("/")
            coeffs[int(i)] = Fraction(int(Decimal(n)), int(Decimal(d or 1)))
        return cls(int(obj["offset24"]), int(obj["prec"]), coeffs)

    def __repr__(self) -> str:
        terms = []
        for i in sorted(self.coeffs)[:6]:
            c = exact_str(self.coeffs[i])
            terms.append(f"{c}*q^({self.exponent(i)})")
        body = " + ".join(terms) if terms else "0"
        if len(self.coeffs) > 6:
            body += " + ..."
        return f"QSeries({body}; prec={self.prec})"
