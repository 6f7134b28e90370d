"""Eta quotients, Eisenstein series, weight-k spaces, integer helpers."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designlab import (OffsetError, PrecisionError, QSeries, TraceSeries,
                       delta_eisenstein, delta_eta, eisenstein, eta,
                       eta_quotient, factorize, fit_in_space, mf_basis, mf_dim,
                       ord_p, ramanujan_tau, sigma)
from designlab.lattices import (harmonic_theta, lattice_e8,
                                theta_membership_check, to_modular_q,
                                zonal_harmonic_coords)
from designlab import modforms, qseries
from designlab.errors import CapExceededError, InternalCheckError
from designlab.modforms import (SERIES_CAP, ModFormSpace, _euler_power,
                                _monomials, cusp_monomials, echelon_rows)


# -- oracles ---------------------------------------------------------------

def brute_eta_power(power, prec):
    """prod_{i>=1} (1-q^i)^power expanded term by term, no shortcuts."""
    out = [0] * (prec + 1)
    out[0] = 1
    for i in range(1, prec + 1):
        for _ in range(power):
            nxt = list(out)
            for j in range(i, prec + 1):
                nxt[j] -= out[j - i]
            out = nxt
    return out


def pow_newton_eta_quotient(factors, prec):
    """The product of eta(m z)^r the way it was first computed: each
    eta(m z)^|r| by repeated squaring, the negative powers gathered in one
    denominator and divided out by Newton iteration at the end."""
    merged = {}
    for m, r in factors:
        merged[m] = merged.get(m, 0) + r
    num = den = QSeries.one(prec)
    for m, r in sorted(merged.items()):
        if r == 0:
            continue
        base = [0] * (prec + 1)
        base[::m] = eta(prec // m).int_list(prec // m + 1)
        factor = QSeries.from_int_list(m, base).pow(abs(r))
        if r > 0:
            num = num * factor
        else:
            den = den * factor
    return num.div(den)


def fit_oracle(f, space):
    """fit_in_space re-summed exponent by exponent in Fractions: (ok,
    coords, mismatch exponent), or "precision" where the fit must raise."""
    e0 = f.offset24 // 24
    if not f.is_zero() and e0 < 0:
        return False, None, e0
    top = e0 + f.prec
    if top < space.dim:        # no known coefficient past the pivots
        return "precision"

    def coeff_at(g, e):
        i = e - g.offset24 // 24
        return g[i] if i >= 0 else Fraction(0)

    coords = tuple(coeff_at(f, i) for i in range(space.dim))
    for e in range(min(top, space.prec) + 1):
        expect = sum((c * coeff_at(g, e) for c, g in zip(coords, space.basis)),
                     Fraction(0))
        if coeff_at(f, e) != expect:
            return False, None, e
    return True, coords, None


def echelon_oracle(rows, prec):
    """Dense Fraction Gauss-Jordan elimination over exponents 0..prec:
    the reduced rows, or "precision" where a row is known too shortly."""
    mats = []
    for f in rows:
        e0 = f.offset24 // 24
        if e0 + f.prec < prec:
            return "precision"
        mats.append([f[i - e0] if i - e0 >= 0 else Fraction(0)
                     for i in range(prec + 1)])
    basis_rows = []
    col = 0
    while len(basis_rows) < len(rows) and col <= prec:
        pivot = next((r for r in mats if r[col] != 0), None)
        if pivot is None:
            col += 1
            continue
        mats.remove(pivot)
        pivot = [c / pivot[col] for c in pivot]
        for r in mats + basis_rows:
            if r[col] != 0:
                f = r[col]
                for j in range(col, prec + 1):
                    r[j] -= f * pivot[j]
        basis_rows.append(pivot)
        col += 1
    return [QSeries(0, prec, {i: c for i, c in enumerate(row) if c})
            for row in basis_rows]


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


# -- eta -------------------------------------------------------------------

def test_eta_pentagonal_prefix():
    f = eta(12)
    assert f.offset24 == 1
    assert f.int_list(13) == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1]


def test_eta_matches_brute_product():
    assert eta(60).int_list(61) == brute_eta_power(1, 60)


def test_eta_power_eight_matches_brute_product():
    f = eta_quotient([(1, 8)], 40)
    assert f.offset24 == 8
    assert f.int_list(41) == brute_eta_power(8, 40)


def test_eta_quotient_offset_accumulates():
    f = eta_quotient([(3, 8)], 30)
    assert f.offset24 == 24
    g = eta_quotient([(2, 15), (1, -7)], 30)
    assert g.offset24 == 23


def test_eta_rescaled_argument_spreads_support():
    f = eta_quotient([(3, 8)], 33)
    base = brute_eta_power(8, 11)
    for i in range(34):
        expect = base[i // 3] if i % 3 == 0 else 0
        assert f[i] == expect


def test_eta_quotient_cancelling_exponents_telescope():
    # eta(z)^8 * eta(z)^-8 telescopes to 1
    f = eta_quotient([(1, 8), (1, -8)], 25)
    assert f.offset24 == 0
    assert f.int_list(26) == [1] + [0] * 25


def test_power_recurrence_matches_the_pow_newton_route():
    for m in range(1, 5):
        for r in range(-24, 25):
            assert (eta_quotient([(m, r)], 200)
                    == pow_newton_eta_quotient([(m, r)], 200)), (m, r)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 4), st.integers(-24, 24)),
                max_size=4),
       st.integers(0, 200))
def test_eta_quotients_match_the_pow_newton_route(factors, prec):
    assert eta_quotient(factors, prec) == pow_newton_eta_quotient(factors,
                                                                  prec)


def test_jacobi_eta_cube_to_3000():
    # eta^3 = sum_n (-1)^n (2n + 1) q^((2n + 1)^2 / 8)
    f = eta_quotient([(1, 3)], 3000)
    assert f.offset24 == 3
    expect = [0] * 3001
    n = 0
    while n * (n + 1) // 2 <= 3000:
        expect[n * (n + 1) // 2] = (-1) ** n * (2 * n + 1)
        n += 1
    assert f.int_list(3001) == expect


@pytest.mark.parametrize("factors, sign", [
    ([(2, 5), (1, -2), (4, -2)], 1),     # theta_3 = 1 + 2 sum q^(n^2)
    ([(1, 2), (2, -1)], -1),             # theta_4 = 1 + 2 sum (-1)^n q^(n^2)
])
def test_theta_eta_quotients_to_3000(factors, sign):
    f = eta_quotient(factors, 3000)
    assert f.offset24 == 0 and f.prec == 3000
    expect = [1] + [0] * 3000
    n = 1
    while n * n <= 3000:
        expect[n * n] = 2 * sign ** n
        n += 1
    assert f.int_list(3001) == expect


def test_power_recurrence_remainder_is_refused():
    # a non-integral exponent leaves a remainder at q^1, which the exact
    # division check refuses
    with pytest.raises(InternalCheckError):
        _euler_power(Fraction(1, 2), 5)


# -- eisenstein ------------------------------------------------------------

def test_e4_first_coefficients_from_divisor_sums():
    f = eisenstein(4, 30)
    assert f[0] == 1
    for n in range(1, 31):
        assert f[n] == 240 * sum(d ** 3 for d in divisors(n))


def test_e6_first_coefficients_from_divisor_sums():
    f = eisenstein(6, 30)
    assert f[0] == 1
    for n in range(1, 31):
        assert f[n] == -504 * sum(d ** 5 for d in divisors(n))


def additive_sigma_sieve(power, bound):
    """The divisor-sum oracle: d^power added to every multiple of d."""
    out = [0] * (bound + 1)
    for d in range(1, bound + 1):
        dk = d ** power
        for m in range(d, bound + 1, d):
            out[m] += dk
    return out


@pytest.mark.parametrize("power", [0, 1, 2, 3, 5, 7, 11])
def test_sigma_sieve_matches_the_additive_sieve(power):
    # the multiplicative sieve against adding d^power to each multiple of d,
    # at every bound from 0 to 40 and at bounds past a prime square and a
    # prime power (2^12 = 4096), up to a few thousand
    for bound in [*range(41), 121, 1024, 3000, 4099]:
        assert modforms._sigma_sieve(power, bound) == \
            additive_sigma_sieve(power, bound), bound


def test_eisenstein_rejects_other_weights():
    with pytest.raises(ValueError):
        eisenstein(8, 10)


def test_series_precision_cap_is_checked_before_any_expansion(monkeypatch):
    def no_expansion(*args):
        raise AssertionError("expanded a series over the cap")
    for kernel in ("_euler_ints", "_euler_power", "_sigma_sieve"):
        monkeypatch.setattr(modforms, kernel, no_expansion)
    for make in (eta, lambda p: eta_quotient([(1, -1)], p),
                 lambda p: eta_quotient([], p), lambda p: eisenstein(4, p),
                 lambda p: eisenstein(6, p)):
        for prec in (SERIES_CAP + 1, 10 ** 11, 10 ** 5000):
            with pytest.raises(CapExceededError, match="series precision"):
                make(prec)
    with pytest.raises(CapExceededError):
        ramanujan_tau(SERIES_CAP + 1)


# -- discriminant ----------------------------------------------------------

def test_delta_routes_agree():
    a = delta_eta(80)
    b = delta_eisenstein(80)
    assert a.offset24 == b.offset24 == 24
    assert a.agrees_with(b)
    assert b.is_integral()


def test_delta_is_the_eisenstein_route():
    d = delta_eisenstein(60)
    assert d.offset24 == 24
    assert d[0] == 1 and d[1] == -24
    assert d.agrees_with(delta_eta(60))


def test_tau_values():
    assert ramanujan_tau(1) == 1
    assert ramanujan_tau(2) == -24
    assert ramanujan_tau(3) == 252
    assert ramanujan_tau(4) == -1472
    assert ramanujan_tau(5) == 4830
    assert ramanujan_tau(6) == -6048
    # multiplicativity on a coprime pair, an independent structural check
    assert ramanujan_tau(6) == ramanujan_tau(2) * ramanujan_tau(3)
    assert ramanujan_tau(10) == ramanujan_tau(2) * ramanujan_tau(5)


def test_tau_is_read_off_one_growing_table():
    # tau(n) is coefficient n-1 of eta^24: the tuple _euler_power holds for
    # exponent 24, grown once per doubling, which delta_eta reads too
    want = delta_eisenstein(3000).int_list(3000)    # the other route
    power = modforms._euler_power
    power.cache_clear()
    assert [ramanujan_tau(n) for n in range(1, 3001)] == want
    assert power.cache_info().misses == 3       # through q^1023, 2047, 4095
    # every smaller table is a prefix of the held one
    order = random.Random(36).sample(range(1, 3001), 3000)
    assert [ramanujan_tau(n) for n in order] == [want[n - 1] for n in order]
    held = power(24, 4095)
    assert held[:5] == tuple(want[:5])
    # the discriminant is that tuple, shifted by q, and no second copy
    assert delta_eta(4095)._num is held
    assert power.cache_info().misses == 3
    # a refused size keeps the held table; clearing it forces a build
    with pytest.raises(CapExceededError):
        ramanujan_tau(SERIES_CAP + 1)
    assert power(24, 4095) is held and power.cache_info().misses == 3
    power.cache_clear()
    assert ramanujan_tau(3000) == want[-1]
    assert power.cache_info().misses == 1 and power(24, 4095) is not held


def test_held_eta_powers_are_shared_prefixes_that_cannot_be_written():
    power = modforms._euler_power
    power.cache_clear()
    held = power(8, 60)
    assert power(8, 60) is held
    with pytest.raises(TypeError):
        held[1] = 0
    # coefficients 0..n do not depend on n: a prefix equals a build there
    for n in range(61):
        assert power(8, n) == power.__wrapped__(8, n)
    # eta^8 and eta(3z)^8 read the one held tuple, eta^8 without a copy
    assert eta_quotient([(1, 8)], 60)._num is held
    assert eta_quotient([(3, 8)], 60).int_list(58)[::3] == list(held[:20])
    assert power.cache_info().misses == 1


# -- weight-k spaces -------------------------------------------------------

def seed_mf_basis(k, prec):
    """The seed's construction, the oracle: each monomial E4^a E6^b a
    product of factors from the series 1 on, reduced by echelon_rows."""
    e4, e6 = eisenstein(4, prec), eisenstein(6, prec)
    rows = [functools.reduce(QSeries.__mul__,
                             [e4] * ((k - 6 * b) // 4) + [e6] * b,
                             QSeries.one(prec))
            for b in _monomials(k)]
    return echelon_rows(rows, prec)


def test_mf_basis_matches_the_seed_construction(monkeypatch):
    # and multiplies no factor by the series 1
    kernel = qseries._int_convolve

    def no_unit(a, b, out_len):
        for x in (a, b):
            assert not (x[0] == 1 and not any(x[1:])), "a product by 1"
        return kernel(a, b, out_len)

    for k in range(4, 41, 2):
        for prec in (mf_dim(k) + 1, 30):
            want = seed_mf_basis(k, prec)
            monkeypatch.setattr(qseries, "_int_convolve", no_unit)
            got = mf_basis(k, prec)
            monkeypatch.undo()
            assert got.basis == want, (k, prec)


def test_dimension_table():
    expect = {0: 1, 2: 0, 4: 1, 6: 1, 8: 1, 10: 1, 12: 2, 14: 1, 16: 2,
              18: 2, 20: 2, 22: 2, 24: 3, 26: 2, 38: 3}
    for k, d in expect.items():
        assert mf_dim(k) == d, k
    assert mf_dim(-4) == 0
    assert mf_dim(7) == 0


def test_dimension_matches_monomial_count():
    for k in range(0, 60, 2):
        count = sum(1 for a in range(k // 4 + 1) for b in range(k // 6 + 1)
                    if 4 * a + 6 * b == k)
        assert mf_dim(k) == count


def loop_mf_dim(k):
    """The weight-k monomial count by a loop over the E6 exponent."""
    if k < 0 or k % 2:
        return 0
    return sum(1 for b in range(k // 6 + 1) if (k - 6 * b) % 4 == 0)


def test_closed_form_dimension_matches_the_loop():
    for k in range(-24, 3000):
        closed = k // 12 + (k % 12 != 2) if k >= 0 and k % 2 == 0 else 0
        assert mf_dim(k) == loop_mf_dim(k) == closed, k


def test_monomials_are_the_weight_k_exponent_pairs():
    for k in range(-24, 200):
        pairs = [((k - 6 * b) // 4, b) for b in _monomials(k)]
        want = [(a, b) for b in range(max(k // 6 + 1, 0))
                for a in range(k // 4 + 1) if 4 * a + 6 * b == k]
        assert pairs == want, k


def test_predicted_space_dimension_is_dim_minus_mu():
    # Delta^mu * M_{k - 12 mu}: the mu leading echelon coefficients are
    # independent conditions on M_k
    for k in range(400):
        for mu in range(8):
            assert len(cusp_monomials(k, mu)) == max(loop_mf_dim(k) - mu, 0)
    # the length is read, not counted: a weight of 10^12 costs nothing
    assert len(cusp_monomials(10 ** 12 + 4, 1)) == mf_dim(10 ** 12 + 4) - 1


def test_basis_is_echelon_with_unit_pivots():
    space = mf_basis(24, 20)
    assert space.dim == 3
    for i, f in enumerate(space.basis):
        lead_exp, lead_coeff = f.leading()
        assert lead_exp == i
        assert lead_coeff == 1
        # reduced above and below: unit vector pattern on exponents < dim
        shift = f.offset24 // 24
        vals = [f[j - shift] if j - shift >= 0 else Fraction(0)
                for j in range(space.dim)]
        assert vals == [Fraction(int(i == j)) for j in range(space.dim)]


def test_weight_2_mod_4_spaces_are_e6_multiples():
    # oracle: M_k = E6 * M_{k-6} when k = 2 (mod 4), re-echelonized
    for k in range(6, 79, 4):
        for prec in (mf_dim(k) + 1, 24, 41):
            e6 = eisenstein(6, prec)
            rows = echelon_rows([e6 * b for b in mf_basis(k - 6, prec).basis],
                                prec)
            assert rows == mf_basis(k, prec).basis, (k, prec)


def test_element_extends_the_fitted_theta():
    e8 = lattice_e8()
    p = zonal_harmonic_coords(e8, 8, (1, 0, 0, 0, 0, 0, 0, 0))
    coords = theta_membership_check(e8, p, prec_norm=8).coords
    assert coords == (0, 144)
    form = mf_basis(12, 60).element(coords)
    assert form.prec + form.offset24 // 24 == 60
    # enumerated beyond the fit: q^5 and q^6 are predictions
    theta = to_modular_q(harmonic_theta(e8, p, 12))
    assert theta.offset24 // 24 + theta.prec == 6
    assert form.agrees_with(theta)
    assert not theta.is_zero()
    with pytest.raises(ValueError):
        mf_basis(12, 60).element((1,))


def test_fit_recovers_monomial_coordinates():
    space = mf_basis(12, 18)
    e4cube = eisenstein(4, 18).pow(3)
    res = fit_in_space(e4cube, space)
    assert res.ok
    # Miller-style basis reads coordinates straight off the q-expansion
    assert res.coords == (Fraction(1), Fraction(720))
    recon = space.basis[0] + space.basis[1].scale(720)
    assert recon.agrees_with(e4cube)


def test_fit_flags_first_bad_exponent():
    space = mf_basis(12, 18)
    f = eisenstein(4, 18).pow(3)
    wrong = f + QSeries.from_int_list(24 * 13, [1])  # poke exponent 13
    res = fit_in_space(wrong, space)
    assert not res.ok
    assert res.mismatch_exponent == 13


def test_fit_distinguishes_low_precision_from_nonmembership():
    space = mf_basis(12, 18)             # dim 2: pivots at q^0 and q^1
    shallow = eisenstein(4, 1).pow(3)    # only 2 coefficients known
    with pytest.raises(PrecisionError, match="need 3 known coefficients"):
        fit_in_space(shallow, space)
    # one coefficient past the pivots checks the fit
    assert fit_in_space(eisenstein(4, 2).pow(3), space).ok
    wrong = eisenstein(4, 2).pow(3) + QSeries.from_int_list(48, [1])
    assert fit_in_space(wrong, space).mismatch_exponent == 2


def test_fit_zero_space_accepts_only_zero():
    space = mf_basis(2, 30)              # empty space
    assert space.dim == 0
    zero = QSeries.zero(30)
    assert fit_in_space(zero, space).ok
    res = fit_in_space(delta_eta(30), space)
    assert not res.ok
    assert res.mismatch_exponent == 1    # delta leads at q^1


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_fit_in_space_matches_per_exponent_oracle(data):
    k = data.draw(st.sampled_from(range(2, 41, 2)), label="weight")
    dim = mf_dim(k)
    space = mf_basis(k, max(dim - 1, 0) + data.draw(st.integers(0, 20)))
    top = max(dim - 1, 0) + data.draw(st.integers(0, 20))
    small = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    coords = data.draw(st.lists(small, min_size=dim, max_size=dim))
    f = mf_basis(k, top).element(coords)
    poke = data.draw(st.none() | st.integers(0, top), label="poke")
    if poke is not None:
        f = f + QSeries(0, top, {poke: data.draw(small.filter(bool))})
    shift = data.draw(st.integers(-2, 3), label="shift")
    f = f.shift24(24 * shift)
    try:
        res = fit_in_space(f, space)
        got = res.ok, res.coords, res.mismatch_exponent
    except PrecisionError:
        got = "precision"
    assert got == fit_oracle(f, space)
    if got != "precision" and shift == 0 and poke is not None \
            and dim <= poke <= space.prec:
        assert got == (False, None, poke)    # the poke is the first mismatch


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_echelon_rows_match_dense_oracle(data):
    prec = data.draw(st.integers(0, 12), label="prec")
    small = st.fractions(min_value=-9, max_value=9, max_denominator=6)

    def row():
        lead = data.draw(st.integers(0, prec + 3), label="lead exponent")
        # known through q^(prec - 2) at the least: short rows must raise
        top = data.draw(st.integers(max(lead, prec - 2), prec + 3))
        coeffs = data.draw(st.lists(small, min_size=top - lead + 1,
                                    max_size=top - lead + 1))
        return QSeries(24 * lead, top - lead, dict(enumerate(coeffs)))

    rows = [row() for _ in range(data.draw(st.integers(0, 5), label="rows"))]
    combos = data.draw(st.integers(0, 2), label="dependent rows")
    for _ in range(combos if rows else 0):
        a, b = (data.draw(st.sampled_from(rows)) for _ in range(2))
        rows.append(a.scale(data.draw(small)) + b.scale(data.draw(small)))
    try:
        got = echelon_rows(rows, prec)
    except PrecisionError:
        got = "precision"
    assert got == echelon_oracle(rows, prec)


def test_echelon_rows_refuse_rows_off_the_grid():
    with pytest.raises(OffsetError):
        echelon_rows([QSeries.one(4).shift24(12)], 4)
    with pytest.raises(OffsetError):
        echelon_rows([QSeries.one(4).shift24(-24)], 2)


def test_echelon_bases_must_lead_at_0_to_dim_minus_1(monkeypatch):
    # one row short of the dimension, a row leading at q^1 instead of q^0,
    # and a basis whose reduction lost a row
    one = QSeries.one(4)
    for dim, basis in ((2, [one]), (1, [one.shift24(24)])):
        with pytest.raises(InternalCheckError, match="lead at exponents"):
            ModFormSpace(4, dim, 4, basis)
    monkeypatch.setattr(modforms, "echelon_rows", lambda rows, prec: rows[:1])
    with pytest.raises(InternalCheckError, match="lead at exponents"):
        mf_basis(12, 4)


# -- integer helpers -------------------------------------------------------

def test_factorize_and_sigma():
    assert factorize(1) == []
    assert factorize(28) == [(2, 2), (7, 1)]
    assert factorize(97) == [(97, 1)]
    for n in (1, 2, 12, 28, 360, 9973):
        for k in (0, 1, 3, 5):
            assert sigma(n, k) == sum(d ** k for d in divisors(n))


@pytest.mark.parametrize("call, error, match", [
    (lambda: factorize(0), ValueError, "positive integer"),
    (lambda: ramanujan_tau(0), ValueError, "indexed from 1"),
    (lambda: mf_basis(12, 0), PrecisionError, "cannot hold 2"),
    (lambda: fit_in_space(QSeries(12, 4, {0: 1}), mf_basis(4, 4)),
     OffsetError, "fractional exponent grid")])
def test_malformed_form_requests_are_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_ord_p():
    assert ord_p(48, 2) == 4
    assert ord_p(48, 3) == 1
    assert ord_p(-50, 5) == 2
    assert ord_p(7, 5) == 0
    with pytest.raises(ValueError):
        ord_p(0, 3)


# -- vanishing indices -----------------------------------------------------
# read off a trace q^(-c/24) sum_(i >= base) t(i) q^i by display index

def test_vanishing_indices_constant():
    # q^(-1/24) * 1 at charge 1: display base 0
    one = TraceSeries(1, QSeries.one(5).shift24(-1), "1")
    assert one.zero_indices_up_to(5) == (1, 2, 3, 4, 5)


def test_vanishing_indices_eta_power_eight():
    f = TraceSeries(16, eta_quotient([(1, 8)], 12), "eta^8")
    assert f.zero_indices_up_to(9) == (4, 8)


def test_vanishing_indices_e4_empty():
    e4 = TraceSeries(8, eisenstein(4, 60).shift24(-8), "E4")
    assert e4.zero_indices_up_to(50) == ()


def test_vanishing_indices_needs_enough_coefficients():
    with pytest.raises(PrecisionError):
        TraceSeries(23, eta(5), "eta").zero_indices_up_to(50)
