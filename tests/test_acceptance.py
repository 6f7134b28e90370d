"""Acceptance checklist: one test per criterion, exact arithmetic throughout.

Run with -v for the per-criterion pass/fail lines (add -s to also see the
timing summaries printed on success).  Every comparison is exact equality;
runtime ceilings are asserted so regressions in the fast paths fail loudly.
"""

import math
import time
from fractions import Fraction

from designlab.codes import (antisymmetry_check, d16_plus,
                             delsarte_design_check, design_lambda, direct_sum,
                             golay_g24, hamming_e8, shell,
                             two_weight_design_check, weight_distribution)
from designlab.lattices import (construction_a, gegenbauer_component_sums,
                                lattice_a2, lattice_e8, lattice_zn,
                                moment_design_test, shell_enum,
                                shell_sizes_up_to, spherical_T_design_report,
                                zonal_shell_sum)
from designlab.modforms import eisenstein, eta_quotient, ramanujan_tau
from designlab.voa import (a_series, b_series, certified_zonal_trace,
                           conformal_T_set, modular_obstruction, ord_criterion,
                           remark4_series, strength_at)
from trace_oracle import e4


class budget:
    """Context manager asserting the block finishes inside its ceiling."""

    def __init__(self, criterion: int, seconds: float, label: str):
        self.criterion, self.seconds, self.label = criterion, seconds, label

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        if exc_type is not None:
            print(f"criterion {self.criterion:2d}: FAIL {self.label}")
            return False
        if elapsed > self.seconds:
            print(f"criterion {self.criterion:2d}: FAIL (took {elapsed:.2f}s,"
                  f" ceiling {self.seconds:g}s) {self.label}")
            raise AssertionError(
                f"criterion {self.criterion} exceeded its {self.seconds:g}s "
                f"ceiling: {elapsed:.2f}s")
        print(f"criterion {self.criterion:2d}: PASS "
              f"({elapsed:6.2f}s <= {self.seconds:g}s) {self.label}")
        return False


def test_criterion_01_eta8_leading_coefficients():
    with budget(1, 1.0, "eta^8 leading coefficients"):
        f = eta_quotient([(1, 8)], 8)
        assert [f[i] for i in range(9)] == [1, -8, 20, 0, -70, 64, 56, 0, -125]
        assert f.offset24 == 8                       # leads with q^(1/3)


def test_criterion_02_eta_3z_8_support():
    with budget(2, 1.0, "eta(3z)^8 head and support mod 3"):
        f = eta_quotient([(3, 8)], 3000)
        assert f.offset24 == 24
        head = {1 + i: c for i, c in f.nonzero_terms() if i <= 12}
        assert head == {1: 1, 4: -8, 7: 20, 13: -70}
        for i, _ in f.nonzero_terms():
            assert (1 + i) % 3 == 1                  # exponent = 1 + index


def test_criterion_03_discriminant_identity_and_tau():
    with budget(3, 5.0, "eisenstein discriminant equals eta^24"):
        n = 500
        e4, e6 = eisenstein(4, n), eisenstein(6, n)
        delta = (e4.pow(3) - e6.pow(2)).scale(Fraction(1, 1728))
        assert delta.agrees_with(eta_quotient([(1, 24)], n), through=n - 1)
        assert ramanujan_tau(1) == 1
        assert ramanujan_tau(2) == -24
        assert delta[0] == 1 and delta[1] == -24     # stored indices; q, q^2


def test_criterion_04_rank16_vanishing_criterion_to_1e4():
    with budget(4, 30.0, "b(l)=0 iff odd 3l-2 prime order, l <= 10^4"):
        b = b_series(10_000)
        for ell in range(1, 10_001):
            assert (b.coeff(ell) == 0) == ord_criterion(ell), ell


def test_criterion_05_rank24_strength_3_everywhere():
    with budget(5, 1.0, "c=24 scan: strength 3 for all l <= 10^3"):
        c = e4(1_001)
        for ell in range(1, 1_001):
            assert c.coeff(ell) > 0, ell
        for ell in range(1, 1_001):
            rep = strength_at(24, ell, prec=1_001)
            assert rep.strength == 3 and not rep.verdicts[4].holds


def test_criterion_06_fixture_block_designs():
    with budget(6, 60.0, "golay octads 5-(24,8,1); hamming 3-(8,4,1); "
                         "dodecads T2"):
        assert math.comb(24, 5) == 42_504
        octads = design_lambda(shell(golay_g24(), 8), 5)
        assert octads.verdicts[5].holds and octads.lam == 1
        tetrads = design_lambda(shell(hamming_e8(), 4), 3)
        assert tetrads.verdicts[3].holds and tetrads.lam == 1
        dodecads = design_lambda(shell(golay_g24(), 12), 1)
        assert dodecads.verdicts[1].holds and dodecads.lam == 1288
        rep = two_weight_design_check(golay_g24(), 12, (1, 3, 5))
        assert rep.passes((1, 3, 5))


def test_criterion_07_enumerator_antisymmetry():
    with budget(7, 120.0, "hwe antisymmetry, full Harm_1/Harm_3 bases"):
        for code in (golay_g24(), hamming_e8()):
            for k in (1, 3):
                rep = antisymmetry_check(code, k)
                assert rep.ok and rep.mode == "full basis"


def test_criterion_08_plane_lattice_strengths():
    with budget(8, 60.0, "Z2 shells strength 3; A2 shells strength 5, "
                         "norms to 50"):
        z2 = lattice_zn(2)
        for norm in shell_sizes_up_to(z2, 50):
            assert moment_design_test(shell_enum(z2, norm), 4).strength == 3
        a2 = lattice_a2()
        norms = [n for n in shell_sizes_up_to(a2, 50) if n >= 2]
        assert norms and all(
            moment_design_test(shell_enum(a2, n), 6).strength == 5
            for n in norms)


def test_criterion_09_rank8_roots_and_certified_trace():
    with budget(9, 120.0, "rank-8 roots: 7-design, degree-8 failure, "
                          "certified trace ratio"):
        e8 = lattice_e8()
        rep = spherical_T_design_report(e8, 2, range(1, 9))
        assert rep.passes(range(1, 8)) and not rep.verdicts[8].holds
        # the degree-8 obstruction, the failure's nonzero kernel sum,
        # carries the tau(1) != 0 statement
        assert ((rep.verdicts[8].witness or 0) != 0) == (ramanujan_tau(1) != 0)
        cert = certified_zonal_trace(e8, 8, a_series(60))
        assert cert.coefficients_checked >= 50
        assert cert.ratio == zonal_shell_sum(e8, shell_enum(e8, 2), 8,
                                             cert.direction)
        assert cert.ratio != 0


def test_criterion_10_rank16_shells_and_traces():
    with budget(10, 300.0, "rank-16 norm-2 shells: degrees {1,2,3,5,6,7}, "
                           "degree 4 tied to b, certified trace"):
        b = b_series(60)
        for code in (direct_sum(hamming_e8(), hamming_e8(), "e8e8"),
                     d16_plus()):
            lat = construction_a(code)
            rep = spherical_T_design_report(lat, 2, range(1, 8))
            assert rep.passes((1, 2, 3, 5, 6, 7))
            # norm-2 shell matches trace index 1
            deg4 = rep.verdicts[4].witness or 0     # the kernel sum
            assert (deg4 == 0) == (b.coeff(1) == 0)
            assert deg4 != 0
            cert = certified_zonal_trace(lat, 4, b, prec_norm=4)
            assert cert.coefficients_checked >= 50
            assert cert.ratio == zonal_shell_sum(lat, shell_enum(lat, 2), 4,
                                                 cert.direction)
            assert cert.ratio != 0


def test_criterion_11_closed_form_trace_never_vanishes():
    with budget(11, 5.0, "closed-form trace nonzero through exponent 1000"):
        rep = remark4_series(1000)
        assert rep.all_nonzero
        assert [rep.trace.coeff(i) for i in range(1, 6)] == [1, 7, 20, 35, 55]


def test_criterion_12_t_sets_and_forced_vanishing():
    with budget(12, 1.0, "derived T-sets match; forced vanishing for "
                         "small charges"):
        assert conformal_T_set(8).explicit == frozenset(
            {1, 2, 3, 4, 5, 6, 7, 9, 10, 11})
        assert conformal_T_set(16).explicit == frozenset({1, 2, 3, 5, 6, 7})
        assert conformal_T_set(24).explicit == frozenset({1, 2, 3})
        for m in (1, 2, 3):
            for s in (1, 2, 3):
                assert modular_obstruction(24 * m, s, m).forced


def _moment_matches_kernel(lat, norm, t):
    mom = moment_design_test(shell_enum(lat, norm), t)
    zon = spherical_T_design_report(lat, norm, range(1, t + 1))
    for k in range(1, t + 1):
        same_parity = all(zon.verdicts[j].holds
                          for j in range(2 - (k % 2), k + 1, 2))
        assert mom.verdicts[k].holds == same_parity, (lat.label, norm, k)


def test_criterion_13_property_suite():
    with budget(13, 300.0, "moment vs kernel on criteria 8-10 shells; "
                           "counting vs harmonic on all code shells"):
        z2, a2 = lattice_zn(2), lattice_a2()
        for norm in shell_sizes_up_to(z2, 50):
            _moment_matches_kernel(z2, norm, 4)
        for norm in shell_sizes_up_to(a2, 50):
            _moment_matches_kernel(a2, norm, 6)
        _moment_matches_kernel(lattice_e8(), 2, 8)
        for code in (direct_sum(hamming_e8(), hamming_e8(), "e8e8"),
                     d16_plus()):
            _moment_matches_kernel(construction_a(code), 2, 7)

        for maker in (hamming_e8, golay_g24, d16_plus):
            code = maker()
            dist = weight_distribution(code)
            for w in range(1, code.n + 1):
                if dist[w] == 0:
                    continue
                fam = shell(code, w)
                # the equivalence concerns t up to the block size
                for t in range(1, min(5, w) + 1):
                    brute = design_lambda(fam, t).verdicts[t].holds
                    harmonic = all(
                        v.holds for v in
                        delsarte_design_check(fam, range(1, t + 1)).values())
                    assert brute == harmonic, (code.name, w, t)
