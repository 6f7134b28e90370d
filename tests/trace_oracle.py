"""The paper's witness traces in closed form: an oracle for the package's
predicted-space witnesses (``voa._witness_trace``).

Each trace is written out from ``eta_quotient`` and ``eisenstein`` as the
paper states it, not derived from the E4^a E6^b monomials of a predicted
space: eta^16 (central charge 8, degree 8), eta^8 (16, 4), E4 * eta^8
(16, 8) and E4 (24, 4), each displayed q^{-c/24} sum_{i>=1} t(i) q^i.
"""

import functools

from designlab.modforms import eisenstein, eta_quotient
from designlab.voa import TraceSeries


@functools.lru_cache(maxsize=None)
def eta16(prec):
    return TraceSeries(8, eta_quotient([(1, 16)], prec), "eta^16")


@functools.lru_cache(maxsize=None)
def eta8(prec):
    return TraceSeries(16, eta_quotient([(1, 8)], prec), "eta^8")


@functools.lru_cache(maxsize=None)
def e4_eta8(prec):
    return TraceSeries(16, eisenstein(4, prec) * eta_quotient([(1, 8)], prec),
                       "E4*eta^8")


@functools.lru_cache(maxsize=None)
def e4(prec):
    return TraceSeries(24, eisenstein(4, prec), "E4")


# (central charge, degree) -> closed form
CLOSED_FORMS = {(8, 8): eta16, (16, 4): eta8, (16, 8): e4_eta8, (24, 4): e4}
