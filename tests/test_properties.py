"""Cross-route consistency: independent criteria must reach the same verdict.

Each test here pits two separately implemented routes against each other
(moment identities vs kernel sums, brute-force counting vs harmonic sums,
number theory vs q-expansion), so a bug in either side shows up as a
disagreement rather than a silently wrong constant.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designlab.codes import (Verdict, codewords, d16_plus,
                             delsarte_design_check, design_lambda, direct_sum,
                             golay_g24, hamming_e8, harm_basis,
                             harmonic_weight_enumerator, shell,
                             weight_distribution)
from designlab.lattices import (Lattice, constant_poly, construction_a,
                                determinant, harmonic_theta, is_even,
                                lattice_a2, lattice_e8, lattice_zn,
                                moment_design_test, shell_enum,
                                shell_sizes_up_to, spherical_T_design_report,
                                zonal_harmonic_coords)
from designlab.modforms import (eisenstein, eta_quotient, mf_basis, mf_dim,
                                sigma)
from designlab.qseries import QSeries
from designlab.voa import (_witness_trace, b_series, conformal_T_set,
                           ord_criterion, remark4_series, strength_at)
from poly_oracle import ladder, laplacian, recurrence_terms, zonal_terms
from trace_oracle import CLOSED_FORMS, e4, eta8


# -- modular layer -----------------------------------------------------

@pytest.mark.parametrize("k", range(4, 41, 2))
def test_space_basis_is_reduced_echelon(k):
    space = mf_basis(k, mf_dim(k) + 4)
    assert space.dim == mf_dim(k) == len(space.basis)
    for i, row in enumerate(space.basis):
        # integral exponents only; normalization may store a positive offset
        assert row.offset24 % 24 == 0
        lead = row.offset24 // 24
        assert lead == i                      # leads strictly increasing
        for j in range(space.dim):            # identity block when reduced
            logical = row[j - lead] if j >= lead else 0
            assert logical == (1 if i == j else 0)


def test_one_dimensional_spaces_are_eisenstein_products():
    e4, e6 = eisenstein(4, 12), eisenstein(6, 12)
    assert mf_basis(8, 12).basis[0] == (e4 * e4).truncate(12)
    assert mf_basis(10, 12).basis[0] == (e4 * e6).truncate(12)
    assert mf_basis(14, 12).basis[0] == (e4 * e4 * e6).truncate(12)


def test_discriminant_three_ways():
    n = 200
    e4, e6 = eisenstein(4, n), eisenstein(6, n)
    delta = (e4.pow(3) - e6.pow(2)).scale(Fraction(1, 1728))
    eta24 = eta_quotient([(1, 24)], n)
    cusp = mf_basis(12, n).basis[1]          # second echelon row leads with q
    assert delta.offset24 == eta24.offset24 == cusp.offset24 == 24
    assert delta.agrees_with(eta24, through=n - 1)
    assert delta.agrees_with(cusp, through=n - 1)


def test_eta_spec_scales_merge():
    assert eta_quotient([(1, 8), (1, 16)], 40) == eta_quotient([(1, 24)], 40)
    assert eta_quotient([(2, 3), (2, -3)], 20) == QSeries.one(20)


# -- lattice layer: two design criteria --------------------------------

def _criteria_agree(lat, norm, t):
    """The degree-k moment identity constrains the same-parity harmonics
    up to k, so it must equal the conjunction of those kernel verdicts;
    the derived strengths must also coincide."""
    sh = shell_enum(lat, norm)
    mom = moment_design_test(sh, t)
    zon = spherical_T_design_report(lat, norm, range(1, t + 1))
    for k in range(1, t + 1):
        same_parity = all(zon.verdicts[j].holds
                          for j in range(2 - (k % 2), k + 1, 2))
        assert mom.verdicts[k].holds == same_parity, (lat.label, norm, k)
    zs = 0
    while zs < t and zon.verdicts[zs + 1].holds:
        zs += 1
    assert mom.strength == zs, (lat.label, norm)
    return mom.strength


def test_square_lattice_shells_agree():
    sizes = shell_sizes_up_to(lattice_zn(2), 16)
    for norm in sizes:
        assert _criteria_agree(lattice_zn(2), norm, 5) == 3


def test_hexagonal_shells_agree():
    sizes = shell_sizes_up_to(lattice_a2(), 16)
    for norm in sizes:
        assert _criteria_agree(lattice_a2(), norm, 7) == 5


def test_cubic_lattice_shells_agree():
    for norm in shell_sizes_up_to(lattice_zn(3), 6):
        _criteria_agree(lattice_zn(3), norm, 5)


def test_rank8_shells_agree():
    assert _criteria_agree(lattice_e8(), 2, 9) == 7
    assert _criteria_agree(lattice_e8(), 4, 9) == 7
    assert _criteria_agree(construction_a(hamming_e8()), 2, 9) == 7


def test_rank16_and_rank24_shells_agree():
    d16 = construction_a(d16_plus())
    e8e8 = construction_a(direct_sum(hamming_e8(), hamming_e8()))
    for lat in (d16, e8e8):
        s = _criteria_agree(lat, 2, 8)
        assert s == 3
    golay_lat = construction_a(golay_g24())
    _criteria_agree(golay_lat, 2, 6)


def test_theta_coefficients_are_shell_sizes():
    for lat in (lattice_zn(3), lattice_a2(), lattice_e8()):
        theta = harmonic_theta(lat, constant_poly(lat.rank), 8)
        sizes = shell_sizes_up_to(lat, 8)
        for norm in range(9):
            expect = sizes.get(Fraction(norm), 0) + (1 if norm == 0 else 0)
            assert theta[norm] == expect


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["Z3", "A2", "E8"]), st.data())
def test_shell_sizes_survive_a_change_of_basis(name, data):
    """A random GL_n(Z) matrix U turns G into U G U^T, the same lattice
    in another basis: the search runs on other LDL data, but every shell
    keeps its size."""
    lat = {"Z3": lattice_zn(3), "A2": lattice_a2(), "E8": lattice_e8()}[name]
    n = lat.rank
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    index = st.integers(0, n - 1)
    for _ in range(data.draw(st.integers(0, 6))):
        i, j = data.draw(index), data.draw(index)
        k = data.draw(st.integers(-2, 2))
        if i == j:
            u[i] = [-x for x in u[i]]
        else:
            u[i] = [a + k * b for a, b in zip(u[i], u[j])]
    g = lat.gram
    gram = tuple(tuple(sum(u[i][a] * g[a][b] * u[j][b]
                           for a in range(n) for b in range(n))
                       for j in range(n)) for i in range(n))
    max_norm = 6 if n == 8 else 12
    assert shell_sizes_up_to(Lattice(gram, "moved"), max_norm) == \
        shell_sizes_up_to(lat, max_norm)


def test_rank8_even_shell_sizes_are_divisor_sums():
    sizes = shell_sizes_up_to(lattice_e8(), 16)
    for m in range(1, 9):
        assert sizes[Fraction(2 * m)] == 240 * sigma(m, 3)


def test_construction_a_outputs_even_unimodular():
    for code in (hamming_e8(), d16_plus(), golay_g24(),
                 direct_sum(hamming_e8(), hamming_e8())):
        lat = construction_a(code)
        assert is_even(lat)
        assert determinant(lat) == 1
        assert lat.rank == code.n


@pytest.mark.parametrize("n,k", [(2, 3), (2, 6), (3, 4), (8, 8), (16, 4)])
def test_zonal_polynomials_are_homogeneous_harmonics(n, k):
    # the kernel's recurrence, expanded term by term by the oracle on Z^n,
    # is the harmonic whose coefficients the ladder gives
    direction = tuple(1 if i % 2 else 2 for i in range(n))
    p = zonal_harmonic_coords(lattice_zn(n), k, direction)
    u2 = sum(x * x for x in direction)      # Euclidean on Z^n
    terms = recurrence_terms(n, k, p.direction)
    assert {sum(m) for m in terms} == {k}
    assert laplacian(terms) == {}
    assert terms == zonal_terms(n, k, p.direction, ladder(n, k, u2))


# -- code layer: counting vs harmonic sums -----------------------------

_FIXTURE_SHELLS = [
    (hamming_e8, 4), (golay_g24, 8), (golay_g24, 12),
    (d16_plus, 4), (d16_plus, 8),
]


@pytest.mark.parametrize("maker,w", _FIXTURE_SHELLS)
def test_lambda_counting_matches_harmonic_criterion(maker, w):
    fam = shell(maker(), w)
    for t in range(1, 5):
        brute = design_lambda(fam, t).verdicts[t].holds
        harmonic = all(v.holds for v in
                       delsarte_design_check(fam, range(1, t + 1)).values())
        assert brute == harmonic, (maker.__name__, w, t)


@pytest.mark.parametrize("maker", [hamming_e8, golay_g24, d16_plus])
def test_enumerator_vanishes_off_weight_support(maker):
    code = maker()
    dist = weight_distribution(code)
    for k in (1, 2):
        for f in harm_basis(code.n, k)[:2]:
            c = harmonic_weight_enumerator(code, f)
            for i, v in enumerate(c):
                if dist[i] == 0 or i < k:
                    assert v == 0


def test_weight_distributions_pin_fixture_identity():
    assert weight_distribution(hamming_e8())[4] == 14
    assert weight_distribution(golay_g24())[8] == 759
    assert weight_distribution(d16_plus())[4] == 28
    for code in (hamming_e8(), golay_g24(), d16_plus()):
        dist = weight_distribution(code)
        assert sum(dist) == len(codewords(code))
        assert dist == dist[::-1]       # self-dual fixtures are symmetric


# -- trace layer: number theory vs expansion ---------------------------

def test_rank16_vanishing_matches_prime_criterion():
    b = b_series(3000)
    for ell in range(1, 3001):
        assert (b.coeff(ell) == 0) == ord_criterion(ell)


def test_rank24_trace_is_positive():
    c = e4(500)
    for ell in range(1, 501):
        assert c.coeff(ell) > 0


def test_degree8_witness_is_product_of_smaller_traces():
    d, b = _witness_trace(16, 8, 64), eta8(64)
    prod = eisenstein(4, 64) * b.series
    assert d.series == prod.truncate(d.series.prec)


def test_all_odd_degrees_below_bound_are_guaranteed():
    for c in (8, 16, 24):
        ts = conformal_T_set(c)
        bound = max(ts.explicit) + 2
        assert all(j in ts for j in range(1, 4 * bound, 2))
        assert all((j in ts) == (j in ts.explicit)
                   for j in range(0, 4 * bound, 2))


@pytest.mark.parametrize("c,expected_when_nonzero", [(8, 7), (16, 3), (24, 3)])
def test_strength_report_is_internally_consistent(c, expected_when_nonzero):
    for ell in range(1, 41):
        rep = strength_at(c, ell)
        assert sorted(rep.base_T) == sorted(conformal_T_set(c).explicit)
        # each degree read holds exactly when its witness coefficient at ell
        # vanishes, and a failure carries that coefficient
        for s, v in rep.verdicts.items():
            coeff = _witness_trace(c, s, max(ell + 2, 16)).coeff(ell)
            assert v == Verdict(coeff == 0, "witness trace", coeff or None)
        # a failure at the contested degree, the first read, ends the walk
        if not next(iter(rep.verdicts.values())).holds:
            assert len(rep.verdicts) == 1
            assert rep.strength == expected_when_nonzero


def test_trace_offsets_encode_central_charge():
    for tr in ([_witness_trace(c, s, 16) for c, s in CLOSED_FORMS]
               + [remark4_series(16).trace]):
        # each is displayed q^{-c/24} sum_{i>=1} t(i) q^i
        assert tr.index_base == 1
        assert 24 * tr.index_base == tr.series.offset24 + tr.central_charge
