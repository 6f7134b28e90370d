"""Conformal design strength via exact trace series.

No vertex-algebra internals live here: every question about homogeneous
spaces reduces to coefficient vanishing in explicit q-series (eta powers,
Eisenstein series, weighted thetas divided by eta^rank), so the whole layer
is series bookkeeping plus dimension counts of level-one modular forms.

Indexing convention: a trace displayed as q^{-c/24} * sum_{i>=base} t(i) q^i
is stored reduced; ``index_base``, derived from the stored offset, is the
display index of the stored leading coefficient, and ``coeff(i)`` looks up
display indices directly.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction

from ._grow import grow_once
from .codes import Verdict
from .errors import (DesignLabError, InternalCheckError, OffsetError,
                     PrecisionError)
from .lattices import (HarmonicPolynomial, Lattice, gegenbauer_component_sums,
                       harmonic_theta, lattice_e8, require_even_unimodular,
                       shell_enum, to_modular_q, zonal_theta_fits)
from .modforms import (cusp_monomials, eisenstein, eta_quotient, factorize,
                       mf_dim, ramanujan_tau)
from .qseries import QSeries

__all__ = [
    "TraceSeries", "a_series", "b_series",
    "graded_trace", "ord_criterion", "ConformalTSet", "conformal_T_set",
    "ObstructionResult", "modular_obstruction", "StrengthReport",
    "strength_at", "LehmerScan", "lehmer_scan", "Remark4Report",
    "remark4_series", "certified_zonal_trace", "ProportionalityCertificate",
]


# ---------------------------------------------------------------------------
# trace series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceSeries:
    """An exact graded trace q^{-c/24}(sum over display indices >= base).

    The stored series is offset-reduced, so the literal -c/24 prefactor is
    recovered through ``index_base``: stored index 0 holds the coefficient
    of display index ``index_base`` = (offset24 + c) / 24, which must be an
    integer.
    """
    central_charge: int
    series: QSeries
    source: str

    def __post_init__(self):
        if self.central_charge <= 0:
            raise ValueError("central charge must be positive")
        if (self.series.offset24 + self.central_charge) % 24:
            raise ValueError("offset off the -c/24 grid of the charge")

    @property
    def index_base(self) -> int:
        return (self.series.offset24 + self.central_charge) // 24

    def coeff(self, i: int) -> Fraction:
        """Coefficient at display index i (meaningful for i >= index_base)."""
        j = i - self.index_base
        if j < 0:
            return Fraction(0)
        return self.series[j]

    def max_index(self) -> int:
        return self.index_base + self.series.prec

    def zero_indices_up_to(self, bound: int) -> tuple[int, ...]:
        if bound > self.max_index():
            raise PrecisionError(f"series known only to index "
                                 f"{self.max_index()}, asked {bound}")
        return tuple(i for i in range(self.index_base, bound + 1)
                     if self.coeff(i) == 0)


@grow_once(lambda c, s, prec: ((c, s), prec),
           lambda trace, prec: replace(
               trace, series=trace.series.truncate(prec)))
def _witness_trace(c: int, s: int, prec: int) -> TraceSeries:
    """The one form Delta E4^a E6^b of the surviving weight-(c/2 + s) space
    (mu = 1) over eta^c, eta^(24 - c) E4^a E6^b, from factors other than 1.

    One trace is held per (c, s), at the largest precision asked
    (``_grow.grow_once``): a call at that precision gets the held trace,
    and a smaller one its ``QSeries.truncate``, which is canonical and so
    equals a build there.  Eta^(24 - c) is the held ``_euler_power`` tuple,
    so the (16, 4) and (16, 8) traces share one eta^8."""
    k = c // 2 + s
    monomials = cusp_monomials(k, 1)
    if len(monomials) != 1:
        raise InternalCheckError(f"weight-{k} witness space is not a line")
    b = monomials[0]
    a = (k - 12 - 6 * b) // 4
    forms = [eisenstein(4, prec)] * a if a else []
    forms += [eisenstein(6, prec)] * b if b else []
    forms += [eta_quotient([(1, 24 - c)], prec)] if c != 24 else []
    return TraceSeries(c, functools.reduce(QSeries.__mul__, forms), "*".join(
        ["E4"] * a + ["E6"] * b + [f"eta^{24 - c}"] * (c != 24)))


# the paper's a(i) and b(i), read at a precision: eta^16 (charge 8, degree 8)
# and eta^8 (charge 16, degree 4), displayed q^{-c/24} sum_{i>=1} t(i) q^i
a_series = functools.partial(_witness_trace, 8, 8)
b_series = functools.partial(_witness_trace, 16, 4)


def graded_trace(lat: Lattice, p: HarmonicPolynomial,
                 prec_norm: int) -> TraceSeries:
    """Weighted theta over eta^rank, the lattice-VOA graded trace."""
    require_even_unimodular(lat, "graded traces")
    theta = to_modular_q(harmonic_theta(lat, p, prec_norm))
    rank = lat.rank
    trace = _over_eta_rank(theta, rank)
    if (trace.offset24 + rank) % 24:    # a fault here, not a bad request
        raise InternalCheckError("trace offset must sit on the -c/24 grid")
    return TraceSeries(rank, trace, f"theta/eta^{rank}")


def _over_eta_rank(form: QSeries, rank: int) -> QSeries:
    """form / eta^rank, exact through the precision of ``form``."""
    return form * eta_quotient([(1, -rank)], form.prec)


# ---------------------------------------------------------------------------
# coefficient criteria
# ---------------------------------------------------------------------------

def ord_criterion(ell: int) -> bool:
    """True iff some prime p = 2 (mod 3) divides 3*ell - 2 to an odd power."""
    if ell < 1:
        raise ValueError("index must be positive")
    return any(p % 3 == 2 and e % 2 == 1
               for p, e in factorize(3 * ell - 2))


@dataclass(frozen=True)
class ObstructionResult:
    forced: bool
    space_dim: int
    witness_leads: range        # lead exponents mu..dim-1, empty if forced


@functools.lru_cache(maxsize=256)
def modular_obstruction(c: int, s: int, min_weight_mu: int = 1) -> ObstructionResult:
    """Can a trace q^{-c/24} * F, F of weight c/2 + s with ord_q F >= mu,
    be nonzero?

    Such F lie in the predicted space Delta^mu * M_{weight - 12 mu}, and
    the candidate survives exactly when that space is nonzero; an odd
    weight has no forms at all.
    """
    if s < 1 or min_weight_mu < 1 or c <= 0 or c % 8:
        raise ValueError("need c a positive multiple of 8, s >= 1, mu >= 1")
    weight = c // 2 + s
    dim = mf_dim(weight)
    forced = not cusp_monomials(weight, min_weight_mu)
    return ObstructionResult(forced, dim, range(min_weight_mu, dim))


@dataclass(frozen=True)
class ConformalTSet:
    """Guaranteed design degrees: every odd degree, and ``explicit``."""
    central_charge: int
    explicit: frozenset[int]

    def __contains__(self, degree: int) -> bool:
        return degree % 2 == 1 or degree in self.explicit


_EXPECTED_T = {
    8: frozenset({1, 2, 3, 4, 5, 6, 7, 9, 10, 11}),
    16: frozenset({1, 2, 3, 5, 6, 7}),
    24: frozenset({1, 2, 3}),
}


@functools.lru_cache(maxsize=None)
def conformal_T_set(c: int) -> ConformalTSet:
    """Guaranteed design degrees for the three supported charges.

    The hardcoded expectation is re-derived: every even degree <= 12 must
    be classified identically by the modular obstruction count (mu = 1),
    and odd degrees come from the odd-weight rule.
    """
    if c not in _EXPECTED_T:
        raise ValueError(f"unsupported central charge {c}")
    expected = _EXPECTED_T[c]
    derived_even = {s for s in range(2, 13, 2)
                    if modular_obstruction(c, s, 1).forced}
    if derived_even != {s for s in expected if s % 2 == 0}:
        raise InternalCheckError(
            f"derived even degrees {sorted(derived_even)} disagree with "
            f"the expected T-set for c={c}")
    return ConformalTSet(c, expected)


# ---------------------------------------------------------------------------
# strength reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrengthReport:
    central_charge: int
    ell: int
    base_T: frozenset[int]
    verdicts: dict[int, Verdict]
    strength: int | str


# the (central charge, even degree) pairs whose witness traces the paper reads
_WITNESSES = frozenset({(8, 8), (16, 4), (16, 8), (24, 4)})


def strength_at(c: int, ell: int, prec: int | None = None) -> StrengthReport:
    """Design strength of the degree-ell homogeneous space.

    Walks the even degrees s = 2, 4, ...: where the modular obstruction
    count forces the weight-(c/2 + s) trace to vanish, degree s holds for
    every ell.  At a surviving degree the witness trace decides: a nonzero
    coefficient at ell, the ``Verdict``'s witness, gives strength s - 1.
    ``verdicts`` holds the degrees read, in reading order, each in mode
    "witness trace"; the first is the contested one.  Past the last witness
    the strength is only a lower bound.
    """
    if ell < 1:
        raise ValueError("ell must be positive")
    prec = prec if prec is not None else max(ell + 2, 16)
    if ell > prec:
        raise PrecisionError("requested index beyond the computed range")
    tset = conformal_T_set(c)
    verdicts: dict[int, Verdict] = {}
    for s in itertools.count(2, 2):
        if modular_obstruction(c, s).forced:
            continue
        if (c, s) not in _WITNESSES:
            strength: int | str = f"≥ {s - 1} (bounded scan)"
            break
        coeff = _witness_trace(c, s, prec).coeff(ell)
        verdicts[s] = Verdict(coeff == 0, "witness trace", coeff or None)
        if coeff:
            strength = s - 1
            break
    return StrengthReport(c, ell, tset.explicit, verdicts, strength)


# ---------------------------------------------------------------------------
# scans and closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LehmerScan:
    tau_zeros: tuple[int, ...]
    shell_degree8_failures: dict[int, bool]
    a_values: dict[int, Fraction]


def lehmer_scan(bound: int, shells_to: int = 2) -> LehmerScan:
    """Scan tau for zeros and tie the small cases to the shell picture.

    For ell <= shells_to the rank-8 norm-2ell shell is enumerated and its
    degree-8 verdict recorded: the shell fails degree 8 exactly when
    tau(ell) is nonzero.
    """
    zeros = tuple(ell for ell in range(1, bound + 1)
                  if ramanujan_tau(ell) == 0)
    failures: dict[int, bool] = {}
    e8 = lattice_e8()
    for ell in range(1, shells_to + 1):
        sh = shell_enum(e8, 2 * ell)
        s8 = gegenbauer_component_sums(sh, [8])[8]
        failures[ell] = s8 != 0
        if (ramanujan_tau(ell) != 0) != failures[ell]:
            raise InternalCheckError(
                f"tau({ell}) and the degree-8 shell verdict disagree")
    aa = a_series(max(min(bound, 10), 2))
    a_vals = {ell: aa.coeff(ell) for ell in range(1, min(bound, 10) + 1)}
    return LehmerScan(zeros, failures, a_vals)


@dataclass(frozen=True)
class Remark4Report:
    prec: int
    trace: TraceSeries
    zero_indices: tuple[int, ...]

    @property
    def all_nonzero(self) -> bool:
        return not self.zero_indices


def remark4_series(prec: int) -> Remark4Report:
    """q^{1/24} * eta(2z)^15 / eta(z)^7, scanned for vanishing coefficients.

    Read as a trace of central charge 1, eta(2z)^15 / eta(z)^7 =
    q^{-1/24} (q + 7 q^2 + ...) carries the q^{1/24} itself: its display
    indices start at 1.
    """
    if prec < 1:
        raise ValueError("prec must be positive")
    ser = eta_quotient([(2, 15), (1, -7)], prec)
    if ser.offset24 != 23:
        raise InternalCheckError("closed form must start exactly at "
                                 "q^(23/24)")
    trace = TraceSeries(1, ser, "eta(2z)^15/eta(z)^7")
    return Remark4Report(prec, trace, trace.zero_indices_up_to(prec))


# ---------------------------------------------------------------------------
# certified proportionality between traces and reference series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProportionalityCertificate:
    ratio: Fraction
    coefficients_checked: int
    direction: tuple[int, ...]
    fit_coords: tuple[Fraction, ...]


def certified_zonal_trace(lat: Lattice, degree: int, reference: TraceSeries,
                          prec_norm: int = 8) -> ProportionalityCertificate:
    """Certify graded_trace(lat, zonal) = ratio * reference to >= 50 terms.

    ``zonal_theta_fits`` refuses a bad request (``ValueError``) before any
    shell or space, then fits the zonal theta along each direction of
    ``theta_directions`` in the predicted weight-(rank/2 + degree) space
    and rebuilds it through the precision of the reference.  Dividing by
    eta^rank then certifies the proportionality far beyond enumeration
    range, on every coefficient the reference knows.  Directions whose
    coordinates all vanish have the zero theta and are skipped.
    """
    nonzero = False
    for w, coords, form in zonal_theta_fits(lat, degree, prec_norm,
                                            reference.series.prec):
        if not any(coords):
            continue                    # the zero theta
        nonzero = True
        trace = _over_eta_rank(form, lat.rank)
        if trace.offset24 != reference.series.offset24:
            raise OffsetError("trace sits on a different exponent grid "
                              f"than {reference.source}")
        through = min(trace.prec, reference.series.prec)
        if through < 50:
            raise PrecisionError("need at least 50 comparable coefficients")
        ratio = trace.proportional_to(reference.series, through)
        if ratio is not None:
            return ProportionalityCertificate(ratio, through + 1, w, coords)
    if nonzero:
        raise DesignLabError(f"trace not proportional to {reference.source}")
    raise DesignLabError("every candidate direction gave the zero theta")
