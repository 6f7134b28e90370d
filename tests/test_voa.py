"""Trace series, design-degree sets, strength reports, scans.

The closed-form series are pinned against hand-checked coefficients and an
independent dense-convolution oracle; criterion equivalences are scanned in
both directions.
"""

import inspect
import io
import itertools
import random
from fractions import Fraction as F

import pytest

from designlab import cli, lattices, modforms, voa
from designlab.errors import (DesignLabError, InternalCheckError, OffsetError,
                              PrecisionError)
from designlab.lattices import (constant_poly, construction_a, lattice_a2,
                                lattice_e8, lattice_zn, shell_enum,
                                theta_directions, zonal_harmonic_coords,
                                zonal_shell_sum)
from designlab.codes import d16_plus, golay_g24
from designlab.modforms import sigma
from designlab.qseries import QSeries
from designlab.voa import (TraceSeries, _witness_trace, a_series, b_series,
                           certified_zonal_trace, conformal_T_set,
                           graded_trace, lehmer_scan, modular_obstruction,
                           ord_criterion, remark4_series, strength_at)
from trace_oracle import CLOSED_FORMS, e4, e4_eta8, eta8, eta16


# -- dense-list series oracle ---------------------------------------------------

def poly_mul(a, b, prec):
    out = [0] * (prec + 1)
    for i, x in enumerate(a[:prec + 1]):
        if x:
            for j, y in enumerate(b[:prec + 1 - i]):
                if y:
                    out[i + j] += x * y
    return out


def euler_power(scale, power, prec):
    """Coefficients of prod_n (1 - q^(scale*n))^power, power >= 1."""
    from math import comb
    out = [1] + [0] * prec
    for n in range(1, prec // scale + 1):
        fac = [0] * (prec + 1)
        for i in range(0, prec // (scale * n) + 1):
            if i <= power:
                fac[scale * n * i] = (-1) ** i * comb(power, i)
        out = poly_mul(out, fac, prec)
    return out


def invert(a, prec):
    assert a[0] == 1
    out = [F(1)] + [F(0)] * prec
    for k in range(1, prec + 1):
        out[k] = -sum(F(a[j]) * out[k - j] for j in range(1, k + 1) if a[j])
    return out


# -- trace series -----------------------------------------------------------------

def test_series_coefficients_match_hand_values():
    b = b_series(12)
    assert [b.coeff(i) for i in range(1, 10)] == \
        [1, -8, 20, 0, -70, 64, 56, 0, -125]
    a = a_series(8)
    assert [a.coeff(i) for i in range(1, 5)] == [1, -16, 104, -320]
    c = _witness_trace(24, 4, 8)
    assert [c.coeff(i) for i in range(1, 5)] == [1, 240, 2160, 6720]
    assert c.coeff(7) == 240 * sigma(6, 3)
    d = _witness_trace(16, 8, 8)
    assert [d.coeff(i) for i in range(1, 5)] == [1, 232, 260, -5760]


def test_a_series_equals_b_series_squared():
    a, b = a_series(40), b_series(41)
    assert a.series == (b.series * b.series).truncate(40)


def test_d_series_is_a_sigma_convolution_of_b():
    b, d = b_series(30), _witness_trace(16, 8, 30)
    for i in range(1, 31):
        want = b.coeff(i) + 240 * sum(sigma(m, 3) * b.coeff(i - m)
                                      for m in range(1, i))
        assert d.coeff(i) == want


def test_trace_series_invariants():
    with pytest.raises(ValueError):
        TraceSeries(8, QSeries(8, 4, {0: F(1)}), "x")
    with pytest.raises(ValueError):
        TraceSeries(0, QSeries(0, 4, {0: F(1)}), "x")
    t = b_series(6)
    assert t.coeff(0) == 0 and t.coeff(-3) == 0
    assert t.max_index() == 7
    with pytest.raises(PrecisionError):
        t.zero_indices_up_to(10)
    assert t.zero_indices_up_to(7) == (4,)


def test_trace_series_derives_its_display_index():
    # eta^16 over charge 8 starts at display index (16 + 8) / 24 = 1
    eta16_ser = eta16(10).series
    tr = TraceSeries(8, eta16_ser, "eta^16")
    assert tr.index_base == 1 and tr.coeff(1) == a_series(10).coeff(1) == 1
    with pytest.raises(TypeError):
        TraceSeries(8, eta16_ser, "eta^16", index_base=5)
    shifted = TraceSeries(8, eta16_ser.shift24(48), "q^2 eta^16")
    assert shifted.index_base == 3 and shifted.coeff(3) == 1
    assert shifted.coeff(1) == shifted.coeff(2) == 0
    with pytest.raises(ValueError, match="grid"):
        TraceSeries(8, eta16_ser.shift24(1), "x")


@pytest.mark.parametrize("prec", [16, 60, 1002])
def test_witness_traces_equal_the_closed_forms(prec):
    for (c, s), closed in CLOSED_FORMS.items():
        got, want = _witness_trace(c, s, prec), closed(prec)
        assert got.series == want.series, (c, s, prec)
        assert (got.central_charge, got.index_base, got.source) == \
            (want.central_charge, want.index_base, want.source)


def test_witness_trace_needs_a_one_dimensional_space():
    # weight 6: Delta * M_{-6} is zero; weight 24: Delta * M_12 is a plane
    for c, s in ((8, 2), (24, 12)):
        with pytest.raises(InternalCheckError, match="not a line"):
            _witness_trace(c, s, 16)


def test_witness_trace_expands_only_factors_other_than_one(monkeypatch):
    calls = []

    def spy(name, fn):
        def wrapped(*args):
            calls.append((name, args[0]))
            return fn(*args)
        return wrapped

    monkeypatch.setattr(voa, "eisenstein", spy("E", voa.eisenstein))
    monkeypatch.setattr(voa, "eta_quotient", spy("eta", voa.eta_quotient))
    monkeypatch.setattr(QSeries, "__mul__", spy("mul", QSeries.__mul__))
    expected = {(8, 8): [("eta", [(1, 16)])], (16, 4): [("eta", [(1, 8)])],
                (24, 4): [("E", 4)], (16, 8): [("E", 4), ("eta", [(1, 8)])],
                # past the paper's pairs: Delta E6 and Delta E4 E6
                (24, 6): [("E", 6)],
                (8, 18): [("E", 4), ("E", 6), ("eta", [(1, 16)])]}
    for (c, s), want in expected.items():
        calls.clear()
        _witness_trace.__wrapped__(c, s, 20)
        products = sum(1 for name, _ in calls if name == "mul")
        assert [x for x in calls if x[0] != "mul"] == want, (c, s)
        assert products == len(want) - 1, (c, s)


# the factors other than 1 of the paper's four witness traces
WITNESS_FACTORS = {(8, 8): ["eta"], (16, 4): ["eta"], (24, 4): ["E"],
                   (16, 8): ["E", "eta"]}


def test_witness_traces_are_served_by_truncation():
    # one trace held per (c, s), at the largest precision asked so far: a
    # smaller one is its truncation, equal to a build there
    rng = random.Random(33)
    for c, s in WITNESS_FACTORS:
        _witness_trace.cache_clear()
        precs = rng.sample(range(1, 251), 250)
        for prec in precs:
            served = _witness_trace(c, s, prec)
            built = _witness_trace.__wrapped__(c, s, prec)
            assert served == built, (c, s, prec)
            assert served.series.to_dict() == built.series.to_dict()
        maxima = len(set(itertools.accumulate(precs, max)))
        assert _witness_trace.cache_info()[:2] == (250 - maxima, maxima)


def test_strength_reports_do_not_depend_on_what_is_held():
    asks = [(c, ell) for c in (8, 16, 24) for ell in range(1, 301)]
    random.Random(34).shuffle(asks)
    warm = [strength_at(c, ell) for c, ell in asks]
    cold = []
    for c, ell in asks:
        _witness_trace.cache_clear()
        cold.append(strength_at(c, ell))
    assert warm == cold


def test_witness_traces_build_once_per_running_maximum(monkeypatch):
    calls = []

    def spy(name, fn):
        def wrapped(*args):
            calls.append((name, args[-1]))
            return fn(*args)
        return wrapped

    monkeypatch.setattr(voa, "eisenstein", spy("E", voa.eisenstein))
    monkeypatch.setattr(voa, "eta_quotient", spy("eta", voa.eta_quotient))
    precs = random.Random(35).sample(range(16, 400), 24)
    maxima = sorted(set(itertools.accumulate(precs, max)))
    for (c, s), factors in WITNESS_FACTORS.items():
        _witness_trace.cache_clear()
        calls.clear()
        for prec in precs:
            assert _witness_trace(c, s, prec).series.prec == prec
        assert calls == [(name, m) for m in maxima for name in factors]


def test_a_c16_scan_builds_eta8_once_and_truncates_nothing(monkeypatch):
    # the (16, 4) and (16, 8) traces share the held eta^8, and each ell
    # reads the held trace at the scan's precision itself
    def no_truncate(self, prec):
        raise RuntimeError("truncated a series")

    modforms._euler_power.cache_clear()
    _witness_trace.cache_clear()
    monkeypatch.setattr(QSeries, "truncate", no_truncate)
    out = io.StringIO()
    assert cli.main(["--format", "json", "voa-strength", "--c", "16",
                     "--scan-to", "200"], out) == 0
    lines = out.getvalue().splitlines()
    # b(4) = 0, so ell = 4 reads the (16, 8) trace too
    assert len(lines) == 200 and '"extra": {"8": [' in lines[3]
    assert modforms._euler_power.cache_info().misses == 1
    assert _witness_trace.cache_info().misses == 2


# -- coefficient criteria ----------------------------------------------------------

def test_ord_criterion_matches_b_vanishing():
    b = b_series(2000)
    for ell in range(1, 2001):
        assert (b.coeff(ell) == 0) == ord_criterion(ell), ell
    with pytest.raises(ValueError):
        ord_criterion(0)


def test_conformal_T_sets():
    assert sorted(conformal_T_set(8).explicit) == [1, 2, 3, 4, 5, 6, 7, 9, 10, 11]
    assert sorted(conformal_T_set(16).explicit) == [1, 2, 3, 5, 6, 7]
    assert sorted(conformal_T_set(24).explicit) == [1, 2, 3]
    ts = conformal_T_set(16)
    assert 99 in ts and 4 not in ts and 2 in ts
    with pytest.raises(ValueError):
        conformal_T_set(32)


def test_modular_obstruction_classification():
    assert modular_obstruction(8, 1).forced           # odd weight
    assert modular_obstruction(8, 8).forced is False  # dim M12 = 2
    assert tuple(modular_obstruction(8, 8).witness_leads) == (1,)
    # the surviving leads are a range: read at any degree in constant space
    # (dim M_k - 1 leads at k = 10^12 + 4 = 8 mod 12)
    assert len(modular_obstruction(8, 10 ** 12).witness_leads) == \
        (10 ** 12 + 4) // 12
    for m in (1, 2, 3):
        for s in (1, 2, 3):
            ob = modular_obstruction(24 * m, s, min_weight_mu=m)
            assert ob.forced, (m, s)
    ob = modular_obstruction(48, 4, min_weight_mu=2)
    assert not ob.forced and ob.space_dim == 3
    for bad in ((7, 2), (8, 0)):
        with pytest.raises(ValueError):
            modular_obstruction(*bad)
    with pytest.raises(ValueError):
        modular_obstruction(8, 2, min_weight_mu=0)


# -- strength reports ---------------------------------------------------------------

def test_strength_reports_charge_8():
    for ell in range(1, 30):
        rep = strength_at(8, ell)
        assert rep.contested_degree == 8
        assert rep.contested_coefficient == a_series(32).coeff(ell)
        assert rep.strength == 7 and not rep.is_design_at_contested


def test_strength_reports_charge_16():
    assert strength_at(16, 1).strength == 3
    rep = strength_at(16, 4)
    assert rep.is_design_at_contested and rep.strength == 7
    assert rep.extra[8] == (False, F(-5760))
    rep8 = strength_at(16, 8)
    assert rep8.is_design_at_contested and rep8.strength == 7
    for ell in (2, 3, 5, 6, 7, 9):
        assert strength_at(16, ell).strength == 3


def test_strength_reports_charge_24():
    for ell in range(1, 60):
        rep = strength_at(24, ell)
        assert rep.strength == 3 and rep.contested_degree == 4
        if ell >= 2:
            assert rep.contested_coefficient == 240 * sigma(ell - 1, 3)
    with pytest.raises(ValueError):
        strength_at(24, 0)
    with pytest.raises(PrecisionError):
        strength_at(24, 100, prec=50)
    with pytest.raises(ValueError):
        strength_at(32, 1)


def strength_oracle(c, ell, prec=None,
                    series=(eta16, eta8, e4, e4_eta8)):
    """strength_at with one branch per charge, as the paper states it, on
    the closed-form traces a, b, c, d: (contested degree, coefficient,
    verdict, extra, strength)."""
    a, b, c_, d = series
    prec = prec if prec is not None else max(ell + 2, 16)
    contested = {8: 8, 16: 4, 24: 4}[c]
    coeff = {8: a, 16: b, 24: c_}[c](prec).coeff(ell)
    passes = coeff == 0
    extra = {}
    if c == 8:
        strength = "≥ 11 (bounded scan)" if passes else 7
    elif c == 16:
        if not passes:
            strength = 3
        else:
            dcoef = d(prec).coeff(ell)
            extra[8] = (dcoef == 0, dcoef)
            strength = "≥ 9 (bounded scan)" if dcoef == 0 else 7
    else:
        strength = "≥ 5 (bounded scan)" if passes else 3
    return contested, coeff, passes, extra, strength


def report_fields(rep):
    return (rep.contested_degree, rep.contested_coefficient,
            rep.is_design_at_contested, rep.extra, rep.strength)


@pytest.mark.parametrize("c", [8, 16, 24])
def test_strength_matches_per_charge_oracle(c):
    for ell in range(1, 301):
        for prec in (None, 300):
            rep = strength_at(c, ell, prec)
            assert (rep.central_charge, rep.ell) == (c, ell)
            assert rep.base_T == conformal_T_set(c).explicit
            assert report_fields(rep) == strength_oracle(c, ell, prec), \
                (c, ell, prec)


def test_strength_past_the_last_witness_is_a_bounded_scan(monkeypatch):
    def zero(c):
        return lambda prec: TraceSeries(c, QSeries.zero(prec).shift24(24 - c),
                                        "0")
    zeros = (zero(8), zero(16), zero(24), zero(16))
    monkeypatch.setattr(voa, "_witness_trace",
                        lambda c, s, prec: zero(c)(prec))
    got = {}
    for c in (8, 16, 24):
        rep = strength_at(c, 5)
        assert report_fields(rep) == strength_oracle(c, 5, series=zeros)
        got[c] = rep.strength
    assert got == {8: "≥ 11 (bounded scan)", 16: "≥ 9 (bounded scan)",
                   24: "≥ 5 (bounded scan)"}
    # only c = 16 reads a second degree
    assert strength_at(16, 5).extra == {8: (True, F(0))}


# -- graded traces -------------------------------------------------------------------

def test_graded_trace_e8_vacuum_character():
    tr = graded_trace(lattice_e8(), constant_poly(8), 8)
    assert tr.central_charge == 8 and tr.index_base == 0
    assert [tr.coeff(i) for i in range(4)] == [1, 248, 4124, 34752]


def test_graded_trace_rejects_unsuitable_lattices():
    with pytest.raises(ValueError):
        graded_trace(lattice_a2(), constant_poly(2), 4)
    with pytest.raises(ValueError):
        graded_trace(lattice_zn(8), constant_poly(8), 4)


def test_graded_trace_zonal_traces_are_proportional_to_the_witnesses():
    e8 = lattice_e8()
    p8 = zonal_harmonic_coords(e8, 8, (1, 0, 0, 0, 0, 0, 0, 0))
    tr = graded_trace(e8, p8, 8)
    assert tr.index_base == 1
    ratio = tr.series.proportional_to(a_series(tr.max_index()).series)
    assert ratio == 144

    d16 = construction_a(d16_plus(), "d16plus")
    p4 = zonal_harmonic_coords(d16, 4, tuple([0] * 15 + [1]))
    tr4 = graded_trace(d16, p4, 4)
    ratio4 = tr4.series.proportional_to(b_series(tr4.max_index()).series)
    assert ratio4 == 64


def test_certified_zonal_trace_e8():
    cert = certified_zonal_trace(lattice_e8(), 8, a_series(60), prec_norm=8)
    assert cert.ratio == 144 and cert.coefficients_checked == 60
    assert cert.fit_coords == (0, 144)


def test_certified_zonal_trace_compares_all_the_reference_knows():
    # the fitted forms are rebuilt through the reference's precision, so a
    # longer reference is compared on every coefficient it holds
    cert = certified_zonal_trace(lattice_e8(), 8, a_series(70))
    assert cert.ratio == 144 and cert.coefficients_checked == 70


def test_shell_theta_and_trace_signatures():
    # a parameter only where a caller sets it: the shell cap is the
    # module constant SHELL_CAP, the fit directions are theta_directions,
    # and the certified trace reads its precision off its reference; the
    # vector table takes the four arguments bench/spans.py passes it
    want = {
        lattices.shell_enum: "lat, norm",
        lattices.shell_sizes_up_to: "lat, max_norm",
        lattices.spherical_T_design_report: "lat, norm, degrees",
        lattices.theta_membership_check: "lat, p, prec_norm=8",
        lattices.zonal_theta_fits: "lat, degree, prec_norm, prec",
        lattices.theta_design_report: "lat, norm, t, prec_norm=0",
        lattices.harmonic_theta:
            "lat, p, prec_norm, cap=1000000, workers=1",
        lattices._vectors_by_doubled_norm: "lat, bound2, cap, workers",
        graded_trace: "lat, p, prec_norm",
        certified_zonal_trace: "lat, degree, reference, prec_norm=8",
    }
    for fn, params in want.items():
        got = ", ".join(
            p.name if p.default is p.empty else f"{p.name}={p.default!r}"
            for p in inspect.signature(fn).parameters.values())
        assert got == params, fn.__name__


def test_certified_zonal_trace_d16_and_golay():
    d16 = construction_a(d16_plus(), "d16plus")
    cert = certified_zonal_trace(d16, 4, b_series(60), prec_norm=4)
    assert cert.coefficients_checked >= 50
    sh = shell_enum(d16, 2)
    assert cert.ratio == zonal_shell_sum(d16, sh, 4, cert.direction) == -80

    g24 = construction_a(golay_g24(), "CA(golay)")
    certc = certified_zonal_trace(g24, 4, e4(60), prec_norm=4)
    assert certc.coefficients_checked >= 50
    shg = shell_enum(g24, 2)
    assert certc.ratio == zonal_shell_sum(g24, shg, 4, certc.direction)
    assert certc.ratio == F(-120, 13)


def test_certified_zonal_trace_guards():
    with pytest.raises(ValueError, match="not enough theta coefficients"):
        certified_zonal_trace(lattice_e8(), 8, a_series(60), prec_norm=2)
    with pytest.raises(OffsetError):
        certified_zonal_trace(lattice_e8(), 8, b_series(60), prec_norm=8)
    with pytest.raises(PrecisionError, match="at least 50"):
        certified_zonal_trace(lattice_e8(), 8, a_series(40))


def test_theta_fit_refusals_come_before_any_shell_or_space(monkeypatch):
    # Z8 was refused only after mf_basis(12, 20000) was built: 2 s
    def never(*args):
        raise AssertionError("a shell or space was built before the refusal")

    monkeypatch.setattr(lattices, "mf_basis", never)
    monkeypatch.setattr(lattices, "_vectors_by_doubled_norm", never)
    reference = a_series(60)
    for lat, degree, prec_norm, message in (
            (lattice_zn(8), 8, 8, "even unimodular"),
            (lattice_e8(), 7, 8, "must be even"),
            (lattice_e8(), 8, 2, "not enough theta coefficients")):
        with pytest.raises(ValueError, match=message):
            next(lattices.zonal_theta_fits(lat, degree, prec_norm, 20000))
        with pytest.raises(ValueError, match=message):
            certified_zonal_trace(lat, degree, reference, prec_norm)


def test_one_predicted_space_per_fitted_degree(monkeypatch):
    built = []

    def spy(k, prec):
        built.append(k)
        return modforms.mf_basis(k, prec)

    monkeypatch.setattr(lattices, "mf_basis", spy)
    # E8 fits degrees 8 and 12 (weights 12 and 16) up to t = 12
    lattices.theta_design_report(lattice_e8(), 1000, 12)
    assert built == [12, 16]
    built.clear()
    assert certified_zonal_trace(lattice_e8(), 8, a_series(60)).ratio == 144
    assert built == [12]
    built.clear()
    # all ten directions of E8, fitted in one weight-12 space
    assert len(list(lattices.zonal_theta_fits(lattice_e8(), 8, 8, 60))) == 10
    assert built == [12]



def test_all_zero_zonal_thetas_are_a_failed_computation():
    # every degree-2 zonal theta of E8 is a weight-6 cusp form, so zero:
    # the request is well formed, and no certificate comes out of it
    with pytest.raises(DesignLabError, match="zero theta"):
        certified_zonal_trace(lattice_e8(), 2, a_series(60))

def test_certified_zonal_trace_tries_the_direction_policy(monkeypatch):
    tried = []

    def zonal(lat, k, direction):
        tried.append(tuple(direction))
        return zonal_harmonic_coords(lat, k, direction)

    monkeypatch.setattr(lattices, "zonal_harmonic_coords", zonal)
    d16 = construction_a(d16_plus(), "d16plus")
    # E4*eta^8 shares the grid of eta^8, but no degree-4 trace is
    # proportional to it, so every direction is tried
    with pytest.raises(DesignLabError, match="not proportional"):
        certified_zonal_trace(d16, 4, e4_eta8(60), prec_norm=4)
    assert tried == theta_directions(16)


def test_trace_guards_refuse_planted_faults(monkeypatch):
    # a trace off the -c/24 grid, a closed form at the wrong offset, an
    # expected T-set the obstruction count does not re-derive, and a tau
    # that disagrees with the degree-8 shell sums
    faults = [
        ("_over_eta_rank", lambda form, rank: form.shift24(1),
         lambda: graded_trace(lattice_e8(), constant_poly(8), 2), "grid"),
        ("eta_quotient", lambda factors, prec: QSeries.one(prec),
         lambda: remark4_series(5), "23/24"),
        ("_EXPECTED_T", {**voa._EXPECTED_T, 8: frozenset({1, 3})},
         lambda: conformal_T_set.__wrapped__(8), "expected T-set"),
        ("ramanujan_tau", lambda n: 0,
         lambda: lehmer_scan(1, shells_to=1), "disagree")]
    for name, planted, call, why in faults:
        with monkeypatch.context() as m:
            m.setattr(voa, name, planted)
            with pytest.raises(InternalCheckError, match=why):
                call()


# -- scans and closed forms ------------------------------------------------------------

def test_lehmer_scan_small():
    scan = lehmer_scan(5000, shells_to=2)
    assert scan.tau_zeros == ()
    assert scan.shell_degree8_failures == {1: True, 2: True}
    assert scan.a_values[1] == 1 and scan.a_values[2] == -16


def test_lehmer_scan_reads_a_values_from_ten_terms():
    # the scan reports a(1..10) and builds a_series that far, not to its
    # bound: a later a_series(11) has to grow the held trace
    voa._witness_trace.cache_clear()
    scan = lehmer_scan(3000)
    misses = voa._witness_trace.cache_info().misses
    a_series(11)
    assert voa._witness_trace.cache_info().misses == misses + 1
    assert scan.a_values == {ell: a_series(3000).coeff(ell)
                             for ell in range(1, 11)}
    assert lehmer_scan(1, shells_to=1).a_values == {1: 1}


def test_remark4_series_against_dense_convolution():
    prec = 30
    num = euler_power(2, 15, prec)
    den = invert(euler_power(1, 7, prec), prec)
    oracle = poly_mul(num, den, prec)
    rep = remark4_series(prec)
    # charge 1 carries the closed form's q^(1/24): no extra shift
    assert rep.trace.central_charge == 1 and rep.trace.series.offset24 == 23
    for i in range(1, prec + 1):
        assert rep.trace.coeff(i) == oracle[i - 1]
    assert [rep.trace.coeff(i) for i in range(1, 6)] == [1, 7, 20, 35, 55]


def test_remark4_has_no_zero_through_1000():
    rep = remark4_series(1000)
    assert rep.all_nonzero and rep.zero_indices == ()
    with pytest.raises(ValueError):
        remark4_series(0)
