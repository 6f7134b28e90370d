"""Core q-series arithmetic: offsets, precision bookkeeping, exactness."""

import functools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designlab import OffsetError, PrecisionError, QSeries, qseries
from designlab.modforms import eta, eta_quotient
from designlab.qseries import _int_convolve


def brute_convolve(a, b, out_len):
    """Schoolbook polynomial product, the oracle for the packed kernel."""
    out = [0] * out_len
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < out_len:
                out[i + j] += x * y
    return out


def long_divide(f, g):
    """Schoolbook long division over Fractions, the oracle for Newton div.

    Solves g * h = f one coefficient at a time; normalisation keeps the
    divisor's leading coefficient at index 0.
    """
    if g.is_zero():
        raise ZeroDivisionError("zero divisor")
    prec = min(f.prec, g.prec)
    b = [g[j] for j in range(prec + 1)]
    out = []
    for n in range(prec + 1):
        acc = f[n] - sum((b[j] * out[n - j] for j in range(1, n + 1)),
                         Fraction(0))
        out.append(acc / b[0])
    return QSeries(f.offset24 - g.offset24, prec, dict(enumerate(out)))


def partition_numbers(n):
    """p(0..n) by Euler's pentagonal recurrence."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k, total = 1, 0
        while k * (3 * k - 1) // 2 <= m:
            sign = 1 if k % 2 else -1
            total += sign * p[m - k * (3 * k - 1) // 2]
            if k * (3 * k + 1) // 2 <= m:
                total += sign * p[m - k * (3 * k + 1) // 2]
            k += 1
        p[m] = total
    return p


fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9))
nonzero_fractions = fractions.filter(bool)


@st.composite
def rational_series(draw, lead=fractions):
    prec = draw(st.integers(0, 24))
    coeffs = {0: draw(lead)}
    coeffs.update({i: draw(fractions) for i in range(1, prec + 1)})
    return QSeries(draw(st.integers(-60, 60)), prec, coeffs)


@settings(max_examples=300, deadline=None)
@given(rational_series(), rational_series(lead=nonzero_fractions))
def test_newton_div_matches_long_division(f, g):
    # offsets are arbitrary multiples of 1/24, leading coefficients of the
    # divisor any nonzero rational, and the numerator may be zero
    h = f.div(g)
    assert h == long_divide(f, g)
    assert (h * g).agrees_with(f)
    zero = QSeries(f.offset24, f.prec, {})
    assert zero.div(g) == long_divide(zero, g) == QSeries.zero(h.prec)


@pytest.mark.parametrize("lead", [Fraction(1), Fraction(-1), Fraction(2),
                                  Fraction(-6, 5), Fraction(1, 7)])
def test_newton_div_deep_non_unit_divisor(lead):
    rng = random.Random(7)
    g = QSeries(0, 150, {0: lead, **{i: Fraction(rng.randint(-5, 5),
                                                 rng.randint(1, 3))
                                     for i in range(1, 151)}})
    f = eta(150)
    assert f.div(g) == long_divide(f, g)


def test_inverse_eta_gives_partition_numbers():
    p = partition_numbers(2000)
    assert p[100] == 190569292
    inv = eta_quotient([(1, -1)], 2000)
    assert inv.offset24 == -1
    assert inv.prec == 2000
    assert inv.int_list(2001) == p


def test_division_by_vanishing_leading_block_fails():
    f = QSeries.from_int_list(0, [1, 2, 3])
    g = QSeries.from_int_list(3, [4, 5, 6])
    with pytest.raises(ZeroDivisionError):
        f.div(g - g)            # every known coefficient cancels
    with pytest.raises(ZeroDivisionError):
        f.div(QSeries(5, 0, {0: 0}))


def test_scale_by_zero_keeps_offset():
    e = eta(10)
    z = e.scale(0)
    assert z.is_zero()
    assert z.offset24 == e.offset24 and z.prec == e.prec
    assert e + z == e


def test_zero_series_hash_agrees_with_eq():
    a, b = QSeries(0, 5, {}), QSeries(24, 5, {})
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    half = QSeries(0, 2, {0: Fraction(2, 4), 1: 1})
    same = QSeries.from_int_list(0, [1, 2, 0]).scale(Fraction(1, 2))
    assert half == same and hash(half) == hash(same)


def test_coefficients_are_read_as_fractions():
    f = QSeries(0, 3, {0: Fraction(1, 2), 2: 3})
    assert dict(f.nonzero_terms()) == {0: Fraction(1, 2), 2: Fraction(3)}
    assert all(isinstance(c, Fraction) for _, c in f.nonzero_terms())
    assert isinstance(f[2], Fraction) and isinstance(f[1], Fraction)
    # the series keeps no coefficient map beside its integer numerators
    assert not hasattr(f, "coeffs") and not hasattr(f, "__dict__")


def test_kronecker_multiply_matches_schoolbook():
    rng = random.Random(20240817)
    for _ in range(25):
        la = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 40))]
        lb = [rng.randint(-10**6, 10**6) for _ in range(rng.randint(1, 40))]
        f = QSeries.from_int_list(0, la)
        g = QSeries.from_int_list(0, lb)
        got = f * g
        n = min(len(la), len(lb))
        expect = brute_convolve(la, lb, n)
        assert [got[i] for i in range(n)] == expect


@st.composite
def int_polys(draw):
    """Integer coefficient lists of 1..40 terms up to 2^300 in size, some
    all negative and some mostly zero."""
    top = 1 << draw(st.sampled_from([1, 8, 64, 300]))
    kind = draw(st.sampled_from(["mixed", "negative", "sparse"]))
    if kind == "negative":
        coeff = st.integers(-top, -1)
    elif kind == "sparse":
        coeff = st.one_of(st.just(0), st.integers(-top, top))
    else:
        coeff = st.integers(-top, top)
    return draw(st.lists(coeff, min_size=1, max_size=40))


@settings(max_examples=300, deadline=None)
@given(int_polys(), int_polys(), st.integers(-3, 3), st.booleans())
def test_int_convolve_matches_schoolbook(a, b, extra, short):
    # out_len below, at and above the len(a) + len(b) - 1 product terms
    full = len(a) + len(b) - 1
    out_len = max(1, (full // 2 if short else full) + extra)
    assert _int_convolve(a, b, out_len) == brute_convolve(a, b, out_len)


def test_20000_bit_coefficients_multiply_exactly():
    rng = random.Random(3)
    a = [rng.randrange(-(1 << 20000), 1 << 20000) for _ in range(16)]
    b = [rng.randrange(-(1 << 20000), 1 << 20000) for _ in range(16)]
    f, g = QSeries.from_int_list(0, a), QSeries.from_int_list(0, b)
    assert (f * g).int_list(16) == brute_convolve(a, b, 16)


def test_multiply_adds_offsets_and_takes_min_prec():
    f = QSeries.from_int_list(1, [1, 2, 3])          # prec 2
    g = QSeries.from_int_list(8, [1, -1, 0, 5])      # prec 3
    h = f * g
    assert h.offset24 == 9
    assert h.prec == 2
    assert [h[i] for i in range(3)] == [1, 1, 1]


def test_addition_requires_compatible_grid():
    f = QSeries.from_int_list(1, [1, 1, 1])
    g = QSeries.from_int_list(0, [1, 1, 1])
    with pytest.raises(OffsetError):
        _ = f + g


def test_addition_aligns_integer_offset_gaps():
    f = QSeries.from_int_list(0, [1, 2, 3, 4])       # 1 + 2q + 3q^2 + 4q^3
    g = QSeries.from_int_list(48, [7, 7])            # 7q^2 + 7q^3
    h = f + g
    assert h.offset24 == 0
    assert h.prec == 3
    assert [h[i] for i in range(4)] == [1, 2, 10, 11]


def test_leading_zero_cancellation_reduces_offset():
    f = QSeries.from_int_list(0, [1, 5, 2, 9])
    g = QSeries.from_int_list(0, [1, 3, 2, 1])
    d = f - g
    # difference is 2q + 8q^3: offset moves onto the first nonzero slot
    assert d.offset24 == 24
    assert d.prec == 2
    assert [d[i] for i in range(3)] == [2, 0, 8]


def test_reading_past_prec_fails_loudly():
    f = QSeries.from_int_list(0, [1, 2])
    assert f[1] == 2
    with pytest.raises(PrecisionError):
        _ = f[2]


def test_truncate_only_shrinks():
    f = QSeries.from_int_list(0, [1, 2, 3])
    assert f.truncate(1).prec == 1
    with pytest.raises(PrecisionError):
        f.truncate(5)


@pytest.mark.parametrize("call, error, match", [
    (lambda: QSeries(0, -1, {}), PrecisionError, "negative precision"),
    (lambda: QSeries(0, 2, {3: 1}), ValueError, "outside 0..prec"),
    (lambda: QSeries.one(3).truncate(-1), PrecisionError,
     "negative precision"),
    (lambda: QSeries.one(2).int_list(4), PrecisionError,
     "index 3 beyond known precision 2"),
    (lambda: QSeries(0, 1, {0: 1, 1: Fraction(1, 2)}).int_list(2), ValueError,
     "index 1 is not integral"),
    (lambda: QSeries.zero(3).leading(), ValueError, "no leading term")])
def test_malformed_series_requests_are_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_pow_and_div_are_inverse():
    f = QSeries.from_int_list(2, [1, -3, 5, 7, -2, 1])
    cube = f.pow(3)
    assert cube.offset24 == 6
    back = cube.div(f.pow(2))
    assert back.agrees_with(f)


def test_division_by_unknown_leading_block_fails():
    z = QSeries.zero(5)
    f = QSeries.one(5)
    with pytest.raises(ZeroDivisionError):
        f.div(z)


def test_rational_coefficients_survive_roundtrip():
    f = QSeries(0, 2, {0: Fraction(1, 3), 2: Fraction(-7, 24)})
    g = QSeries.from_json(f.to_json())
    assert g == f
    assert g[2] == Fraction(-7, 24)


def test_coefficients_past_the_int_str_limit_roundtrip():
    # 5,000-digit numerators and denominators: more than str(int) converts
    # under CPython's default limit of 4,300 digits
    big = 7 ** 5916
    f = QSeries(0, 2, {0: Fraction(big, 3), 2: Fraction(-1, big)})
    g = QSeries.from_json(f.to_json())
    assert g == f and g[0] == Fraction(big, 3)
    assert "*q^(0)" in repr(f) and "-1/" in repr(f)


def test_json_shape_is_stable():
    f = QSeries.from_int_list(8, [1, -8])
    assert f.to_json() == (
        '{"offset24": 8, "prec": 1, "coeffs": [[0, "1/1"], [1, "-8/1"]]}')
    g = QSeries(8, 3, {0: Fraction(1, 3), 2: Fraction(-7, 24), 3: 2})
    assert g.to_json() == ('{"offset24": 8, "prec": 3, "coeffs": '
                           '[[0, "1/3"], [2, "-7/24"], [3, "2/1"]]}')


def test_dict_payload_is_the_json_document():
    for f in (QSeries.from_int_list(8, [1, -8, 0, 3 << 200]),
              QSeries(-3, 4, {0: Fraction(1, 3), 2: Fraction(-7, 24), 4: 6}),
              QSeries.zero(3)):
        assert f.to_dict() == json.loads(f.to_json())
    assert QSeries(0, 2, {0: 1, 1: Fraction(-4, 6)}).to_dict()["coeffs"] == [
        [0, "1/1"], [1, "-2/3"]]


def test_nonzero_terms_are_read_lazily():
    f = QSeries(0, 5, {0: Fraction(1, 2), 3: -1, 5: 4})
    assert list(f.nonzero_terms()) == [(0, Fraction(1, 2)), (3, -1), (5, 4)]
    terms = QSeries.from_int_list(0, [1] * 10**5).nonzero_terms()
    assert next(terms) == (0, 1) and next(terms) == (1, 1)


def test_scale_and_proportionality():
    f = QSeries.from_int_list(24, [1, -24, 252])
    g = f.scale(Fraction(3, 7))
    assert g.proportional_to(f) == Fraction(3, 7)
    assert f.proportional_to(g) == Fraction(7, 3)
    h = QSeries.from_int_list(24, [1, -24, 251])
    assert f.proportional_to(h) is None


def test_mixed_rational_product_is_exact():
    f = QSeries(0, 3, {0: Fraction(1, 2), 1: Fraction(1, 3)})
    g = QSeries(0, 3, {0: Fraction(3), 1: Fraction(-1, 5)})
    h = f * g
    assert h[0] == Fraction(3, 2)
    assert h[1] == Fraction(1) - Fraction(1, 10)
    assert h[2] == Fraction(-1, 15)


def test_pow_squares_up_from_the_lowest_set_bit(monkeypatch):
    # no product is by the series 1: e = 1..12 take bit_length(e) - 1
    # squarings and popcount(e) - 1 products into the result
    calls = []
    kernel = qseries._int_convolve

    def counted(*args):
        calls.append(args[:2])
        return kernel(*args)

    f = QSeries(-3, 12, {0: Fraction(2, 3), 1: -1, 5: 7, 12: Fraction(1, 5)})
    for e in range(1, 13):
        monkeypatch.setattr(qseries, "_int_convolve", counted)
        calls.clear()
        got = f.pow(e)
        products = len(calls)
        monkeypatch.undo()
        assert got == functools.reduce(QSeries.__mul__, [f] * e), e
        assert products == e.bit_length() + bin(e).count("1") - 2, e
    monkeypatch.setattr(qseries, "_int_convolve", counted)
    calls.clear()
    assert f.pow(0) == QSeries.one(12) and calls == []
