"""Lattice shells, moments, zonal harmonics, theta series.

Enumeration is checked against plain box searches, sphere moments against
exact Wallis integrals (odd dimension) and Gauss-Legendre quadrature (even
dimension), and the E8 zonal sums against an explicit coordinate model of
the root system built without any of the lattice machinery.
"""

import math
from fractions import Fraction as F
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from designlab import lattices
from designlab.codes import (Verdict, _read_only, code_from_rows, codewords,
                             d16_plus, golay_g24, hamming_e8)
from designlab.errors import (CapExceededError, InternalCheckError,
                              PrecisionError)
from designlab.lattices import (_SLACK, DEGREE_CAP, SHELL_CAP,
                                HarmonicPolynomial, Lattice,
                                Shell, _ldl, _lll, _pair_histogram,
                                _reduced_basis, _search_candidates,
                                _vectors_by_doubled_norm, constant_poly,
                                construction_a, determinant,
                                gegenbauer_component_sums, gram_from_text,
                                harmonic_theta, is_even, lattice_a2,
                                lattice_e8, lattice_zn, moment_design_report,
                                moment_design_test, prefix_strength,
                                shell_enum, shell_sizes_up_to, sphere_moment,
                                spherical_T_design_report,
                                theta_design_report, theta_directions,
                                theta_fit_norm, theta_membership_check,
                                to_modular_q, zonal_harmonic_coords,
                                zonal_shell_sum)
from designlab.modforms import SERIES_CAP, delta_eta, eisenstein
from designlab.qseries import QSeries
from kernel_oracle import kernel_sums, moment_inner, orthogonal_kernel_polys
from poly_oracle import (evaluate, ladder, laplacian, recurrence_terms,
                         zonal_terms)


# -- oracles ------------------------------------------------------------------

def box_shells(gram, max_norm2):
    """Brute-force shell table: scan an integer box, filter by exact norm.

    Valid whenever Q(v) >= max(v_i^2)/2 over the box, which holds for the
    identity and A2 grams used below (box radius 2*sqrt(norm) is generous).
    """
    n = len(gram)
    rad = 2 * math.isqrt(max_norm2) + 2
    table = {}
    for v in product(range(-rad, rad + 1), repeat=n):
        q = sum(gram[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
        if 0 < q <= max_norm2:
            table.setdefault(q, set()).add(v)
    return table


def dfs_candidates(g2, bound2):
    """Per-node depth-first Fincke-Pohst search: every v whose float-pruned
    path survives, top coordinate first, in visiting order.

    The same float bounds as the library search (exact LDL data of the
    doubled Gram matrix g2 rounded to float, slack-inflated radii, the top
    coordinate over bound2's radius), one node at a time.
    """
    diag, upper = _ldl(g2)
    n = len(diag)
    df = [float(2 * d) for d in diag]
    uf = [[float(x) for x in row] for row in upper]
    top = math.sqrt(float(bound2) / df[n - 1]) * _SLACK + 1e-9
    out = []
    v = [0] * n

    def rec(i, budget):
        if i < 0:
            out.append(tuple(v))
            return
        c = 0.0
        for j in range(i + 1, n):
            c += uf[i][j] * v[j]
        rad = top if i == n - 1 else \
            math.sqrt(max(budget, 0.0) / df[i]) * _SLACK + 1e-9
        for vi in range(math.ceil(-c - rad), math.floor(-c + rad) + 1):
            t = vi + c
            rem = budget - df[i] * t * t
            if rem >= -1e-9:
                v[i] = vi
                rec(i - 1, rem)
        v[i] = 0

    rec(n - 1, float(bound2) * _SLACK + 1e-9)
    return out


def ldl_oracle(gram):
    """G = U^T D U by plain Fraction elimination, one entry at a time."""
    n = len(gram)
    work = [[F(x) for x in row] for row in gram]
    diag = []
    upper = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        d = work[i][i]
        if d <= 0:
            raise ValueError("not positive definite")
        diag.append(d)
        upper[i][i] = F(1)
        for j in range(i + 1, n):
            upper[i][j] = work[i][j] / d
        for r in range(i + 1, n):
            f = work[r][i] / d
            for c in range(i + 1, n):
                work[r][c] -= f * work[i][c]
    return tuple(diag), tuple(tuple(row) for row in upper)


def in_half_ball(v):
    """The half-ball rule: v is zero, or its first nonzero coordinate, v[-1]
    first, is positive."""
    return next((x for x in reversed(v) if x), 0) >= 0


def check_half_search(g2, bound2, cands):
    """The search yields the depth-first list restricted to the half ball,
    and with the negations it covers the whole list."""
    full = dfs_candidates(g2, bound2)
    assert cands == [v for v in full if in_half_ball(v)]
    mirrored = [tuple(-x for x in v) for v in cands if any(v)]
    assert sorted(cands + mirrored) == sorted(full)


def exact_det(rows):
    """Determinant by exact Fraction elimination."""
    m = [[F(x) for x in row] for row in rows]
    n = len(m)
    det = F(1)
    for i in range(n):
        p = next((r for r in range(i, n) if m[r][i]), None)
        if p is None:
            return F(0)
        if p != i:
            m[i], m[p] = m[p], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, n):
            f = m[r][i] / m[i][i]
            m[r] = [a - f * b for a, b in zip(m[r], m[i])]
    return det


def check_lll(lat):
    """U is an integer matrix with |det U| = 1, U G2 U^T is the reduced
    Gram matrix exactly, and the reduced basis is size-reduced and meets
    the Lovasz condition with delta = 99/100 (exact Gram-Schmidt)."""
    g2 = doubled(lat.gram)
    u, r2 = _lll(g2)
    n = lat.rank
    assert all(isinstance(x, int) for row in u for x in row)
    assert abs(exact_det(u)) == 1
    assert [[sum(u[i][a] * g2[a][b] * u[j][b] for a in range(n)
                 for b in range(n)) for j in range(n)] for i in range(n)] == r2
    mu = [[F(0)] * n for _ in range(n)]
    bstar = []                      # squared Gram-Schmidt lengths
    for i in range(n):
        for j in range(i):
            mu[i][j] = (F(r2[i][j]) - sum(mu[j][k] * mu[i][k] * bstar[k]
                                          for k in range(j))) / bstar[j]
            assert abs(mu[i][j]) <= F(1, 2)
        bstar.append(F(r2[i][i]) - sum(mu[i][k] ** 2 * bstar[k]
                                       for k in range(i)))
        if i:
            assert bstar[i] >= (F(99, 100) - mu[i][i - 1] ** 2) * bstar[i - 1]
    assert _reduced_basis(lat.g2) == (tuple(map(tuple, u)),
                                      tuple(map(tuple, r2)))
    return u


def doubled(gram):
    """A Gram matrix of (1/2)Z entries as doubled integer tuples, the form
    the private helpers take."""
    return tuple(tuple(int(2 * F(x)) for x in row) for row in gram)


def dfs_shells(lat, bound2):
    """Exact doubled norm -> sorted vectors, from the depth-first search."""
    g2 = doubled(lat.gram)
    n = lat.rank
    table = {}
    for v in dfs_candidates(lat.g2, bound2):
        w = sum(g2[i][j] * v[i] * v[j] for i in range(n) for j in range(n))
        if 0 < w <= bound2:
            table.setdefault(w, []).append(v)
    return {w: tuple(sorted(vs)) for w, vs in table.items()}


def tuple_table(table):
    """A vector table with every shell array turned into sorted tuples."""
    return {w: tuple(map(tuple, rows.tolist())) for w, rows in table.items()}


def brute_pair_histogram(lat, vectors):
    """2*(x.y) over all ordered pairs, one product at a time."""
    g2 = doubled(lat.gram)
    n = lat.rank
    hist = {}
    for x in vectors:
        xg = [sum(x[i] * g2[i][j] for i in range(n)) for j in range(n)]
        for y in vectors:
            p = sum(a * b for a, b in zip(xg, y))
            hist[p] = hist.get(p, 0) + 1
    return hist


@st.composite
def gram_lattices(draw, max_rank=4):
    """G = B B^T for a random nonsingular integer matrix B."""
    n = draw(st.integers(1, max_rank))
    b = [[draw(st.integers(1, 3) if i == j else st.integers(-3, 3))
          for j in range(n)] for i in range(n)]
    assume(round(np.linalg.det(np.array(b, dtype=float))) != 0)
    gram = tuple(tuple(F(sum(b[i][k] * b[j][k] for k in range(n)))
                       for j in range(n)) for i in range(n))
    return Lattice(gram, "random")


def wallis_moment(n, k):
    """m_k(n) for odd n >= 3: ratio of exact integrals of t^k (1-t^2)^m."""
    assert n % 2 == 1 and n >= 3
    m = (n - 3) // 2

    def integral(kk):
        if kk % 2:
            return F(0)
        return sum(F(math.comb(m, i) * (-1) ** i * 2, kk + 2 * i + 1)
                   for i in range(m + 1))

    return integral(k) / integral(0)


def d8plus_roots():
    """The 240 norm-2 vectors of the even unimodular rank-8 lattice in its
    Euclidean coordinate model: (+-1, +-1, 0^6) and (+-1/2)^8 with an even
    number of minus signs."""
    roots = []
    for i, j in combinations(range(8), 2):
        for si, sj in product((1, -1), repeat=2):
            v = [F(0)] * 8
            v[i], v[j] = F(si), F(sj)
            roots.append(tuple(v))
    for signs in product((F(1, 2), F(-1, 2)), repeat=8):
        if sum(signs) % 2 == 0:
            roots.append(signs)
    return roots


# -- gram validation ----------------------------------------------------------

def test_gram_validation_rules():
    with pytest.raises(ValueError):
        Lattice(((F(2), F(1)), (F(0), F(2))))          # asymmetric
    with pytest.raises(ValueError):
        Lattice(((F(2), F(3)), (F(3), F(2))))          # indefinite
    with pytest.raises(ValueError):
        Lattice(((F(-1),),))                           # negative
    with pytest.raises(ValueError):
        gram_from_text("1/3")                          # off the (1/2)Z grid
    for text in ("2 1\n1 2/0", "", " \n"):             # no number, no rows
        with pytest.raises(ValueError):
            gram_from_text(text)
    with pytest.raises(ValueError, match="nonempty"):
        Lattice(())
    half = gram_from_text("1 1/2\n1/2 1")
    assert determinant(half) == F(3, 4)


def test_lattice_equality_reads_the_doubled_gram():
    ints = Lattice(((2, 1), (1, 2)), "A2")
    fracs = Lattice(((F(2), F(1)), (F(1), F(2))), "A2")
    text = gram_from_text("2 1\n1 2", "A2")
    assert ints == fracs == text == lattice_a2()
    assert hash(ints) == hash(fracs) == hash(text) == hash(lattice_a2())
    # the label only names the lattice
    other = Lattice(((2, 1), (1, 2)), "other")
    assert ints == other and hash(ints) == hash(other)
    assert ints.g2 == ((4, 2), (2, 4))
    assert all(type(x) is int for row in ints.g2 for x in row)
    assert ints.gram == ((F(2), F(1)), (F(1), F(2)))
    half = gram_from_text("1 1/2\n1/2 1")
    assert half.g2 == ((2, 1), (1, 2)) and half.gram[0][1] == F(1, 2)


def test_warm_shell_enum_hashes_no_fraction(monkeypatch):
    # the lru caches keyed by a lattice hash its integer doubled Gram matrix
    golay = construction_a(golay_g24())
    shell_enum(golay, 4)
    calls = []
    fraction_hash = F.__hash__

    def counted(self):
        calls.append(self)
        return fraction_hash(self)

    monkeypatch.setattr(F, "__hash__", counted)
    assert len(shell_enum(construction_a(golay_g24()), 4)) == 195408
    assert calls == []


def test_fixture_lattice_invariants():
    a2 = lattice_a2()
    assert determinant(a2) == 3 and is_even(a2) and a2.rank == 2
    e8 = lattice_e8()
    assert determinant(e8) == 1 and is_even(e8) and e8.rank == 8
    z4 = lattice_zn(4)
    assert determinant(z4) == 1 and not is_even(z4)


# -- shell enumeration vs box oracle ------------------------------------------

def test_z2_shells_match_box_oracle():
    z2 = lattice_zn(2)
    brute = box_shells([[1, 0], [0, 1]], 26)
    sizes = shell_sizes_up_to(z2, 26)
    assert {int(k): v for k, v in sizes.items()} == \
        {q: len(vs) for q, vs in brute.items()}
    for norm in (1, 2, 5, 25):
        assert set(shell_enum(z2, norm).vectors) == brute[norm]
    assert shell_enum(z2, 3).vectors == ()
    assert shell_enum(z2, 7).vectors == ()


def test_a2_shells_match_box_oracle():
    a2 = lattice_a2()
    gram = [[2, 1], [1, 2]]
    brute = box_shells(gram, 14)
    sizes = shell_sizes_up_to(a2, 14)
    assert {int(k): v for k, v in sizes.items()} == \
        {q: len(vs) for q, vs in brute.items()}
    for norm in (2, 6, 8, 14):
        assert set(shell_enum(a2, norm).vectors) == brute[norm]
    assert len(shell_enum(a2, 14)) == 12
    assert shell_enum(a2, 4).vectors == ()


def test_z3_shell_sizes_are_sum_of_three_squares_counts():
    z3 = lattice_zn(3)
    brute = box_shells([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 9)
    sizes = shell_sizes_up_to(z3, 9)
    assert {int(k): v for k, v in sizes.items()} == \
        {q: len(vs) for q, vs in brute.items()}
    assert 7 not in {int(k) for k in sizes}      # no three squares sum to 7
    assert shell_enum(z3, 7).vectors == ()


def test_e8_shell_sizes_track_sigma3():
    def sigma3(m):
        return sum(d ** 3 for d in range(1, m + 1) if m % d == 0)

    sizes = shell_sizes_up_to(lattice_e8(), 10)
    assert {int(k): v for k, v in sizes.items()} == \
        {2 * m: 240 * sigma3(m) for m in range(1, 6)}


def test_shells_are_exact_antipodal_and_sorted():
    e8 = lattice_e8()
    sh = shell_enum(e8, 4)
    g = e8.gram
    vset = set(sh.vectors)
    for v in sh.vectors:
        q = sum(g[i][j] * v[i] * v[j] for i in range(8) for j in range(8))
        assert q == 4
        assert tuple(-x for x in v) in vset
    assert list(sh.vectors) == sorted(sh.vectors)
    assert shell_enum(e8, 0).vectors == ((0,) * 8,)
    assert shell_enum(e8, F(1, 2)).vectors == ()
    with pytest.raises(ValueError):
        shell_enum(e8, -2)


def test_huge_gram_entries_stay_exact():
    g = 2 ** 61
    lat = Lattice(((F(g), F(0)), (F(0), F(g))))
    assert shell_enum(lat, 4 * g).vectors == ((-2, 0), (0, -2), (0, 2), (2, 0))
    assert shell_sizes_up_to(lat, 5 * g) == {g: 4, 2 * g: 4, 4 * g: 4, 5 * g: 8}
    # doubled Gram entries beyond int64: a scaled copy of Z2
    s = 2 ** 62
    big = Lattice(((F(s), F(0)), (F(0), F(s))))
    sh = shell_enum(big, s)
    assert sh.vectors == ((-1, 0), (0, -1), (0, 1), (1, 0))
    z2 = lattice_zn(2)
    unit = shell_enum(z2, 1)
    assert moment_design_test(sh, 4).verdicts == \
        moment_design_test(unit, 4).verdicts
    assert gegenbauer_component_sums(sh, [2, 4]) == \
        gegenbauer_component_sums(unit, [2, 4])
    assert zonal_shell_sum(big, sh, 4, (1, 0)) == \
        s ** 4 * zonal_shell_sum(z2, unit, 4, (1, 0)) != 0


@settings(max_examples=60, deadline=None)
@given(gram_lattices(), st.integers(0, 40))
def test_search_matches_the_depth_first_oracle(lat, bound2):
    cands = [tuple(r) for chunk in _search_candidates(lat.g2, bound2, 10**9)
             for r in chunk.tolist()]
    check_half_search(lat.g2, bound2, cands)
    assert tuple_table(_vectors_by_doubled_norm(lat, bound2, 10**9, 1)) == \
        dfs_shells(lat, bound2)


@pytest.mark.parametrize("chunk", [7, lattices._CHUNK, 1 << 15])
def test_search_matches_the_oracle_on_fixture_lattices(monkeypatch, chunk):
    # a tiny chunk splits and regroups the frontier at every level; the
    # default and a larger chunk keep the fixture frontiers whole or nearly
    monkeypatch.setattr(lattices, "_CHUNK", chunk)
    d16 = construction_a(d16_plus(), "d16plus")
    for lat, bound2 in ((lattice_e8(), 8), (d16, 4), (lattice_zn(6), 8)):
        cands = [tuple(r) for c in _search_candidates(lat.g2, bound2, 10**9)
                 for r in c.tolist()]
        check_half_search(lat.g2, bound2, cands)
        assert tuple_table(_vectors_by_doubled_norm.__wrapped__(
            lat, bound2, 10**9, 1)) == dfs_shells(lat, bound2)


@settings(max_examples=60, deadline=None)
@given(gram_lattices(max_rank=6), st.integers(1, 2))
def test_fraction_free_ldl_matches_plain_elimination(lat, halve):
    gram = tuple(tuple(x / halve for x in row) for row in lat.gram)
    assert _ldl(doubled(gram)) == ldl_oracle(gram)


def test_ldl_on_fixtures_and_refusals():
    golay = construction_a(golay_g24(), "CA(golay)")
    for gram in (lattice_e8().gram, lattice_a2().gram, golay.gram,
                 gram_from_text("1 1/2\n1/2 1").gram):
        assert _ldl(doubled(gram)) == ldl_oracle(gram)
    for bad in (((F(1), F(2)), (F(2), F(1))), ((F(0),),), ((F(-1, 2),),)):
        with pytest.raises(ValueError, match="positive definite"):
            _ldl(doubled(bad))


@settings(max_examples=40, deadline=None)
@given(gram_lattices(max_rank=6))
def test_lll_transform_is_unimodular_and_reduces(lat):
    check_lll(lat)


def test_lll_on_the_fixture_lattices():
    golay = construction_a(golay_g24(), "CA(golay)")
    for lat in (lattice_e8(), construction_a(d16_plus(), "d16plus"), golay):
        check_lll(lat)
    # an orthonormal basis is already reduced: LLL changes nothing
    z12 = lattice_zn(12)
    assert check_lll(z12) == [[int(i == j) for j in range(12)]
                              for i in range(12)]
    assert _reduced_basis(z12.g2)[1] == z12.g2


def test_half_ball_search_of_the_golay_lattice():
    # 1 + 48 + 195408 vectors to doubled norm 8: the zero row and half the
    # rest, where the unreduced full search produced 195457 rows
    golay = construction_a(golay_g24(), "CA(golay)")
    reduced = _reduced_basis(golay.g2)[1]
    assert sum(len(c) for c in _search_candidates(reduced, 8, SHELL_CAP)) \
        == 97729


def test_corrupted_lll_transforms_are_refused(monkeypatch):
    def scaled(g2):
        # U with one row doubled and its matching Gram matrix: consistent,
        # but a sublattice of index 2
        u = [[int(i == j) for j in range(len(g2))] for i in range(len(g2))]
        u[0][0] = 2
        r2 = [list(row) for row in g2]
        r2[0] = [2 * x for x in r2[0]]
        for row in r2:
            row[0] *= 2
        return u, r2

    # an earlier test may have cached this Gram matrix, and a cached
    # reduced basis, or a ball held at any bound, would never call the
    # patched _lll
    lattices._reduced_basis.cache_clear()
    _vectors_by_doubled_norm.cache_clear()
    monkeypatch.setattr(lattices, "_lll", scaled)
    a2 = Lattice(((F(2), F(1)), (F(1), F(2))))
    with pytest.raises(InternalCheckError, match="unimodular"):
        shell_enum(a2, 2)


def test_corrupted_lll_transform_refused_under_optimize(monkeypatch):
    # the product check in _reduced_basis is a plain raise, so it holds
    # under python -O too (test_every_guard_runs_under_optimize)
    lll = lattices._lll

    def skewed(g2):
        # U off by one entry: U G2 U^T is no longer the reduced matrix
        u, r2 = lll(g2)
        u[0][-1] += 1
        return u, r2

    lattices._reduced_basis.cache_clear()
    _vectors_by_doubled_norm.cache_clear()
    monkeypatch.setattr(lattices, "_lll", skewed)
    with pytest.raises(InternalCheckError, match="reduced Gram matrix"):
        shell_enum(lattice_e8(), 2)


# the shell functions read SHELL_CAP; the vector table takes the cap, so
# the cap boundaries are probed there

def test_shell_cap_enforced():
    with pytest.raises(CapExceededError):
        _vectors_by_doubled_norm(lattice_zn(2), 50, 5, 1)


def test_cap_boundaries():
    e8 = lattice_e8()
    assert len(_vectors_by_doubled_norm(e8, 8, 2160, 1)[8]) == 2160
    with pytest.raises(CapExceededError, match="has 2160 > cap 2159"):
        _vectors_by_doubled_norm(e8, 8, 2159, 1)
    # of several shells over the cap, the smallest doubled norm is
    # reported, whatever basis the search runs in
    with pytest.raises(CapExceededError, match="doubled norm 10 has 8 > cap 7"):
        _vectors_by_doubled_norm(lattice_zn(2), 50, 7, 1)
    # the candidate rule: more than 4*cap + 64 leaves of the whole ball
    # refuse in the search, though it yields only the zero row and half
    # the rest
    z3 = lattice_zn(3)
    count = len(dfs_candidates(z3.g2, 20))
    cap = -(-(count - 64) // 4)             # smallest cap with 4*cap+64 >= count
    assert sum(len(c) for c in _search_candidates(z3.g2, 20, cap)) == \
        (count + 1) // 2
    with pytest.raises(CapExceededError, match="search exceeded"):
        list(_search_candidates(z3.g2, 20, cap - 1))



def test_search_refuses_a_ball_too_long_along_one_basis_vector():
    # the multiples of e_0 alone pass 4*cap + 64: refused before a row is
    # built or the bound becomes a float (2*10^400 overflows one)
    for bound2 in (2 * 10**30, 2 * 10**400):
        with pytest.raises(CapExceededError, match="search exceeded"):
            next(_search_candidates(((2,),), bound2, SHELL_CAP))
    # exact at the boundary: 63 multiples fit 4*0 + 64, 65 do not
    assert sum(len(c) for c in _search_candidates(((2,),), 2 * 31**2, 0)) == 32
    with pytest.raises(CapExceededError, match="search exceeded"):
        next(_search_candidates(((2,),), 2 * 32**2, 0))


def test_shell_rows_beyond_int64_are_refused_by_name():
    with pytest.raises(ValueError, match="int64"):
        Shell(lattice_zn(2), F(2**140), ((2**70, 0), (-2**70, 0)))
    # -2^63 fits int64, but its negation would wrap back to -2^63
    for rows in (((-(2 ** 63), 1),), np.array([[-(2 ** 63), 1]])):
        with pytest.raises(ValueError, match="int64"):
            Shell(lattice_zn(2), F(2 ** 126 + 1), rows)
    # a coordinate that is not an integer is refused, not truncated
    for rows in (((F(1, 2), 0),), np.array([[0.5, 0.0]])):
        with pytest.raises(ValueError, match="integers"):
            Shell(lattice_zn(2), F(1, 4), rows)


def test_read_only_rows_meet_the_width_check():
    # -(-128) wraps to -128 in int8, so these read-only rows are widened
    z2 = lattice_zn(2)
    rows = _read_only(np.array([[-128, 0], [-128, 0]], dtype=np.int8))
    sh = Shell(z2, F(128 ** 2), rows)
    assert sh.rows.dtype == np.int16 and not sh.rows.flags.writeable
    assert (_pair_histogram(sh) == brute_pair_histogram(z2, sh.vectors)
            == {2 * 128 ** 2: 4})
    # read-only rows wide enough are kept as they are, never narrowed
    wide = _read_only(np.array([[-1, 0], [0, 1]], dtype=np.int64))
    assert Shell(z2, F(1), wide).rows is wide
    with pytest.raises(ValueError, match="integers"):
        Shell(z2, F(1, 4), _read_only(np.array([[0.5, 0.0]])))


def test_odd_norm_on_an_even_lattice_is_an_internal_fault(monkeypatch):
    # the enumerator never puts an odd norm into an even lattice's table;
    # one that did would be a fault of the program, not of the request
    e8 = lattice_e8()
    rows = shell_enum(e8, 2).rows
    monkeypatch.setattr(lattices, "_vectors_by_doubled_norm",
                        lambda *args: {6: rows})
    with pytest.raises(InternalCheckError, match="odd norm"):
        harmonic_theta(e8, constant_poly(8), 3)

@pytest.mark.parametrize("block", [lattices._PAIR_BLOCK, 1000])
def test_pair_histogram_matches_brute_force(monkeypatch, block):
    # a small block cuts the products into many row blocks
    monkeypatch.setattr(lattices, "_PAIR_BLOCK", block)
    z2 = lattice_zn(2)
    big = Lattice(((F(2 ** 52), F(0)), (F(0), F(2 ** 52))))   # int64 route
    cases = [(z2, 5), (z2, 25), (lattice_a2(), 14), (lattice_zn(3), 3),
             (lattice_e8(), 2), (big, 2 ** 52)]
    for lat, norm in cases:
        sh = shell_enum(lat, norm)
        assert _pair_histogram(sh) == brute_pair_histogram(lat, sh.vectors)
    # hand-built shells that are not antipodal take the full X x X path
    for vectors in (((0, 1), (1, 0)), ((0, 1), (1, 0), (0, -1)),
                    ((1, 0), (0, 1), (-1, 0), (0, 1)), ((0, 0),)):
        sh = Shell(z2, F(sum(vectors[0]) ** 2), vectors)
        assert _pair_histogram(sh) == brute_pair_histogram(z2, vectors)


def test_half_shell_histogram_equals_the_full_one(monkeypatch):
    # the folded X+ x X+ count against the full X x X count, forced by
    # reading every shell as not antipodal
    e8 = lattice_e8()
    shells = [shell_enum(e8, 2), shell_enum(e8, 4),
              shell_enum(lattice_zn(3), 3), shell_enum(lattice_a2(), 14)]
    folded = [_pair_histogram(sh) for sh in shells]
    monkeypatch.setattr(lattices, "_is_antipodal", lambda rows: False)
    assert folded == [_pair_histogram(sh) for sh in shells]


def test_moment_and_zonal_criteria_share_one_pair_histogram(monkeypatch):
    kernel_runs = []

    def counted(shell):
        kernel_runs.append((shell.lattice, shell.norm))
        return _pair_histogram(shell)

    monkeypatch.setattr(lattices, "_pair_histogram", counted)
    lattices._shell_pair_histogram.cache_clear()
    e8 = lattice_e8()
    # E8 norm 4: tau(2) != 0, so a 7-design and not an 8-design
    assert moment_design_test(shell_enum(e8, 4), 8).strength == 7
    sums = gegenbauer_component_sums(shell_enum(e8, 4), range(1, 9))
    assert [j for j, v in sums.items() if v] == [8]
    assert kernel_runs == [(e8, F(4))]


def test_shell_arrays_refuse_writes():
    e8 = lattice_e8()
    table = _vectors_by_doubled_norm(e8, 8, SHELL_CAP, 1)
    sh = shell_enum(e8, 2)
    hand = Shell(lattice_zn(2), F(1), np.array([[0, 1], [1, 0]]))
    for rows in (table[4], table[8], sh.rows, hand.rows):
        with pytest.raises(ValueError, match="read-only"):
            rows[0, 0] = 7
        # the buffer underneath is immutable: neither the array, nor a view
        # of it, nor what it is a view of can be made writeable again
        for arr in (rows, rows[1:], rows.base):
            with pytest.raises(ValueError, match="WRITEABLE"):
                arr.setflags(write=True)
    # the shell hands out the cached slice itself, and builds its tuples once
    assert sh.rows is _vectors_by_doubled_norm(e8, 4, SHELL_CAP, 1)[4]
    assert np.array_equal(sh.rows, table[4])
    assert sh.vectors is sh.vectors and len(sh.vectors) == len(sh) == 240


def test_equal_sized_shells_do_not_share_a_histogram():
    # same lattice, norm and size, so the same hash: only the rows differ
    z2 = lattice_zn(2)
    unit = shell_enum(z2, 1)
    lopsided = Shell(z2, F(1), ((-1, 0), (0, 1), (0, 1), (1, 0)))
    assert hash(unit) == hash(lopsided) and unit != lopsided
    assert unit == Shell(z2, F(1), unit.vectors)
    lattices._shell_pair_histogram.cache_clear()
    for sh in (unit, lopsided):
        assert dict(lattices._shell_pair_histogram(sh)) == \
            brute_pair_histogram(z2, sh.vectors)
    assert moment_design_test(unit, 3).strength == 3
    assert moment_design_test(lopsided, 3).strength == 0


def test_antipodality_is_checked_block_by_block(monkeypatch):
    # a tiny block splits the first half of the 240 roots into 18 blocks;
    # the check reads the sorted array, before any tuple is built
    monkeypatch.setattr(lattices, "_CHUNK", 7)
    e8 = lattice_e8()
    roots = np.array(shell_enum(e8, 2).vectors)
    assert len(roots) == 240
    build = _vectors_by_doubled_norm.__wrapped__
    assert tuple_table(build(e8, 4, SHELL_CAP, 1)) == \
        {4: shell_enum(e8, 2).vectors}
    for i in (0, 7, 64, 119, 120, 239):     # first, inner and last blocks
        bad = roots.copy()
        bad[i] = -bad[i]
        monkeypatch.setattr(lattices, "_sorted_ball",
                            lambda *args: ({4: 240}, bad))
        with pytest.raises(InternalCheckError, match="antipodal"):
            build(e8, 4, SHELL_CAP, 1)


# (lattice, largest doubled norm): every smaller bound is served from the
# one ball built there; the last is Z2 scaled by 2^62, whose doubled norms
# are multiples of 2^63
SERVED_BALLS = [
    (lattice_e8(), 16), (lattice_a2(), 52), (lattice_zn(2), 100),
    (construction_a(d16_plus(), "d16plus"), 8),
    (Lattice(((F(2 ** 62), F(0)), (F(0), F(2 ** 62)))), 13 * 2 ** 63)]


@pytest.mark.parametrize("lat, top", SERVED_BALLS,
                         ids=["E8", "A2", "Z2", "d16plus", "Z2x2^62"])
def test_smaller_bounds_are_served_from_the_largest_ball(lat, top):
    table = _vectors_by_doubled_norm
    table.cache_clear()
    held = table(lat, top, SHELL_CAP, 1)
    # each doubled norm up to the top, or for the scaled Z2 each shell's
    # doubled norm and its two neighbours
    bounds = list(range(-1, top + 1)) if top <= 100 else sorted(
        {0} | {w + d for w in held for d in (-1, 0, 1)} - {top + 1})
    np.random.default_rng(7).shuffle(bounds)
    for bound2 in bounds:
        served = table(lat, bound2, SHELL_CAP, 1)
        built = table.__wrapped__(lat, bound2, SHELL_CAP, 1)
        assert list(served) == list(built), bound2
        for w, rows in served.items():
            assert rows is held[w]          # a slice of the one ball
            assert rows.dtype == built[w].dtype
            assert np.array_equal(rows, built[w])
            assert not rows.flags.writeable and not rows.base.flags.writeable
    assert table.cache_info()[:2] == (len(bounds), 1)


def test_the_held_vector_table_cannot_be_written():
    table = _vectors_by_doubled_norm
    table.cache_clear()
    e8 = lattice_e8()
    held = table(e8, 8, SHELL_CAP, 1)       # the shells of norms 2 and 4
    assert table(e8, 8, SHELL_CAP, 1) is held
    for served in (held, table(e8, 4, SHELL_CAP, 1),
                   table(e8, -1, SHELL_CAP, 1)):
        with pytest.raises(TypeError):
            served[12] = held[4]
        with pytest.raises(TypeError):
            del served[4]
        for rows in served.values():
            with pytest.raises(ValueError):
                rows[0, 0] = 1
    assert dict(table(e8, 4, SHELL_CAP, 1)) == {4: held[4]}


def test_a_refused_bound_keeps_the_held_ball(monkeypatch):
    d16 = construction_a(d16_plus())
    table = _vectors_by_doubled_norm
    table.cache_clear()
    held = table(d16, 8, SHELL_CAP, 1)
    # norm 6 holds more than SHELL_CAP vectors
    with pytest.raises(CapExceededError, match="doubled norm 12"):
        table(d16, 12, SHELL_CAP, 1)
    balls = []

    def spy(*args):
        balls.append(args[1])
        return sorted_ball(*args)

    sorted_ball = lattices._sorted_ball
    monkeypatch.setattr(lattices, "_sorted_ball", spy)
    for bound2 in (8, 4, 2, 0):
        assert table(d16, bound2, SHELL_CAP, 1) == {
            w: held[w] for w in held if w <= bound2}
    assert len(shell_enum(d16, 2)) == 480 and balls == []
    assert table.cache_info()[:2] == (5, 2)
    table.cache_clear()
    assert len(shell_enum(d16, 2)) == 480 and balls == [4]
    assert table.cache_info()[:2] == (0, 1)


def test_the_plane_strength_loop_builds_one_ball(monkeypatch):
    # the loop of the bench's plane_strengths requests: the sizes to norm
    # 50, then a shell per norm, each a prefix of the first ball
    balls = []

    def spy(*args):
        balls.append(args[:2])
        return sorted_ball(*args)

    sorted_ball = lattices._sorted_ball
    monkeypatch.setattr(lattices, "_sorted_ball", spy)
    _vectors_by_doubled_norm.cache_clear()
    # every Z2 shell is a 3-design, every A2 shell a 5-design
    for lat, t in ((lattice_zn(2), 4), (lattice_a2(), 6)):
        strengths = {moment_design_test(shell_enum(lat, norm), t).strength
                     for norm in shell_sizes_up_to(lat, 50)}
        assert strengths == {t - 1}
    assert balls == [(lattice_zn(2), 100), (lattice_a2(), 100)]
    assert _vectors_by_doubled_norm.cache_info().misses == 2


def test_half_ball_with_a_vector_and_its_negation_is_refused(monkeypatch):
    # a search that emits v and -v (or v twice) would double a shell; the
    # half is sorted after the sign turn, so the two rows sit side by side
    for emitted in ([[1, 0], [-1, 0]], [[0, 1], [0, 1]]):
        monkeypatch.setattr(lattices, "_search_candidates",
                            lambda *a, rows=emitted: iter([np.array(rows)]))
        with pytest.raises(InternalCheckError, match="twice or with -row"):
            lattices._sorted_ball(lattice_zn(2), 2, SHELL_CAP)


def python_products(rows, mat):
    return [[sum(a * b for a, b in zip(r, col)) for col in zip(*mat)]
            for r in rows]


@pytest.mark.parametrize("serial", [lattices._BLAS_SERIAL, 5])
def test_int_matmul_is_exact_in_every_regime(monkeypatch, serial):
    # a tiny serial budget cuts the float64 product into one-row tiles
    monkeypatch.setattr(lattices, "_BLAS_SERIAL", serial)
    mat = ((3, 1, -7), (1, 5, 2))
    # n * max|row| * max|M| = 14 * 2^49 < 2^53: float64, exact
    small = [[2 ** 49 - 1, -(2 ** 49) + 3], [5, -2], [0, 0]]
    # 14 * 2^55 >= 2^53, n^2 * 7 * 2^55 < 2^63: int64; products past 2^53
    # that float64 would round
    mid = [[2 ** 55 + 1, -(2 ** 55) + 7], [3, 2 ** 54 + 1]]
    # past 2^63: Python ints
    big = [[2 ** 62 + 1, -(2 ** 62)], [1, 2 ** 61 - 1]]
    for rows, dtype in ((small, np.int64), (mid, np.int64), (big, object)):
        out = lattices._int_matmul(np.array(rows, dtype=np.int64), mat)
        assert out.dtype == dtype
        assert out.tolist() == python_products(rows, mat)
    # a column right factor and narrow rows, as the zonal sums use it
    col = [[2 ** 40], [-3]]
    rows = np.array([[127, -128], [-1, 0]], dtype=np.int8)
    assert lattices._int_matmul(rows, col).tolist() == \
        python_products(rows.tolist(), col)


def test_int_dtype_is_the_narrowest_symmetric_range():
    bounds = (127, 128, 2 ** 63 - 1, 2 ** 63)
    assert [lattices._int_dtype(b) for b in bounds] == [
        np.dtype(np.int8), np.dtype(np.int16), np.dtype(np.int64),
        np.dtype(object)]
    # the width bounds are constants: each is numpy's largest value
    for dt in (np.int8, np.int16, np.int32, np.int64):
        top = int(np.iinfo(dt).max)
        assert lattices._int_dtype(top) == np.dtype(dt)
        assert lattices._int_dtype(top + 1) != np.dtype(dt)


def test_int_matmul_reads_nested_ints_past_int64_as_python_ints():
    # np.array would read the right factor as uint64 and wrap the products
    rows = np.array([[1, -1], [3, 2], [0, 0]], dtype=np.int8)
    mat = [[2 ** 63, 2 ** 64 - 1], [2 ** 63 + 5, 1]]
    out = lattices._int_matmul(rows, mat)
    assert out.dtype == object
    assert out.tolist() == python_products(rows.tolist(), mat)


def test_doubled_norms_keep_the_quadratic_bound():
    g2 = ((2, 1), (1, 4))
    cases = [
        ([[3, -1], [2 ** 20, 5]], np.int64),        # float64, then int64
        # v G2 is below 2^53 (float64), but the norms pass 2^63: the row
        # sums must run in Python ints, not wrap around in int64
        ([[2 ** 40, 3], [-(2 ** 40) + 1, 2 ** 40]], object),
        ([[2 ** 60, 1], [1, -(2 ** 61)]], object),  # Python ints throughout
    ]
    for rows, dtype in cases:
        want = [sum(g2[i][j] * v[i] * v[j] for i in range(2) for j in range(2))
                for v in rows]
        got = lattices._doubled_norms(g2, np.array(rows, dtype=np.int64))
        assert got.dtype == dtype
        assert got.tolist() == want


def test_zonal_theta_fits_refuse_the_degree_before_any_form(monkeypatch):
    # the weight-1006 basis took seconds to build before the degree cap
    # refused the request; the cap must come first
    def never(*args):
        raise AssertionError("mf_basis built before the degree check")

    monkeypatch.setattr(lattices, "mf_basis", never)
    with pytest.raises(CapExceededError, match="exceeds cap"):
        next(lattices.zonal_theta_fits(lattice_e8(), DEGREE_CAP + 2, 8, 200))


# -- construction A -----------------------------------------------------------

def test_construction_a_hamming_gives_the_root_lattice():
    lat = construction_a(hamming_e8(), "CA(hamming)")
    assert determinant(lat) == 1 and is_even(lat)
    assert shell_sizes_up_to(lat, 8) == shell_sizes_up_to(lattice_e8(), 8)
    theta = to_modular_q(harmonic_theta(lat, constant_poly(8), 8))
    assert theta.agrees_with(eisenstein(4, 4), through=4)


def test_construction_a_golay_lattice_theta():
    lat = construction_a(golay_g24(), "CA(golay)")
    assert determinant(lat) == 1 and is_even(lat)
    sizes = shell_sizes_up_to(lat, 4)
    assert {int(k): v for k, v in sizes.items()} == {2: 48, 4: 195408}
    theta = to_modular_q(harmonic_theta(lat, constant_poly(24), 4))
    e4 = eisenstein(4, 2)
    expected = e4 * e4 * e4 + delta_eta(2).scale(-672)
    assert theta.agrees_with(expected, through=2)


def test_construction_a_rejects_unsuitable_codes():
    with pytest.raises(ValueError):
        construction_a(code_from_rows(4, [0b0011, 0b1100]))   # not doubly even
    sub = code_from_rows(8, list(hamming_e8().gens)[:3])      # not self-dual
    with pytest.raises(ValueError):
        construction_a(sub)


# -- sphere moments -----------------------------------------------------------

def test_sphere_moments_match_wallis_integrals():
    for n in (3, 5, 7, 9):
        for k in range(0, 11):
            assert sphere_moment(n, k) == wallis_moment(n, k)
    for n in range(2, 10):
        assert sphere_moment(n, 2) == F(1, n)
        assert sphere_moment(n, 3) == 0


@pytest.mark.parametrize("call, match", [
    (lambda: sphere_moment(0, 2), "need n >= 1"),
    (lambda: gegenbauer_component_sums(shell_enum(lattice_e8(), 1), [2]),
     "nonempty positive-norm shell"),
    (lambda: to_modular_q(QSeries(12, 4, {0: 1})), "whole-exponent")])
def test_malformed_sphere_and_theta_requests_are_refused(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_sphere_moment_even_dimension_against_quadrature():
    nodes, weights = np.polynomial.legendre.leggauss(400)
    dens = (1 - nodes ** 2) ** 2.5          # (n-3)/2 for n = 8
    den = float((weights * dens).sum())
    for k in (2, 4, 6, 8):
        num = float((weights * dens * nodes ** k).sum())
        assert abs(num / den - float(sphere_moment(8, k))) < 1e-12


# -- moment and per-degree design tests ----------------------------------------

def test_moment_report_square_in_plane():
    rep = moment_design_test(shell_enum(lattice_zn(2), 1), 5)
    assert rep.size == 4 and rep.strength == 3
    assert not rep.verdicts[rep.strength + 1].holds
    assert rep.verdicts == {j: Verdict(j != 4, "power moments")
                            for j in range(1, 6)}


def test_moment_strengths_z2_and_a2_samples():
    z2 = lattice_zn(2)
    for norm in (1, 2, 4, 5, 8, 9):
        assert moment_design_test(shell_enum(z2, norm), 4).strength == 3
    a2 = lattice_a2()
    for norm in (2, 6, 8):
        assert moment_design_test(shell_enum(a2, norm), 6).strength == 5


def test_e8_root_shell_is_a_seven_design_failing_degree_eight():
    e8 = lattice_e8()
    rep = moment_design_test(shell_enum(e8, 2), 8)
    assert rep.strength == 7 and not rep.verdicts[rep.strength + 1].holds
    tre = spherical_T_design_report(e8, 2, range(1, 13))
    expect = {j: j != 8 and j != 12 for j in range(1, 13)}
    assert {j: v.holds for j, v in tre.verdicts.items()} == expect
    # a failure's witness is its kernel sum
    assert tre.verdicts[8].witness > 0 and tre.verdicts[12].witness > 0


def test_component_sums_locate_the_first_moment_failure():
    cases = [(lattice_zn(2), 1), (lattice_zn(3), 1), (lattice_a2(), 2)]
    for lat, norm in cases:
        sh = shell_enum(lat, norm)
        rep = moment_design_test(sh, 8)
        sums = gegenbauer_component_sums(sh, range(1, 9))
        evens_bad = [j for j in (2, 4, 6, 8) if sums[j] != 0]
        assert rep.strength + 1 == evens_bad[0]
        for j in range(1, rep.strength + 1):
            assert sums[j] == 0


def test_kernel_polynomials_are_orthogonal():
    polys = orthogonal_kernel_polys(8, 8)
    for a in range(9):
        assert len(polys[a]) == a + 1 and polys[a][-1] == 1
        for b in range(a):
            assert moment_inner(8, polys[a], polys[b]) == 0
        assert moment_inner(8, polys[a], polys[a]) > 0


def _scaled_z2(scale):
    return Lattice(((F(scale), F(0)), (F(0), F(scale))))


# the nonempty fixture shells the tests build, rank >= 2: (lattice, norm)
KERNEL_SHELLS = [
    *((lattice_zn(2), m) for m in (1, 25, 65)),
    *((lattice_zn(3), m) for m in (1, 9)),
    (lattice_zn(4), 2), (lattice_zn(4), 6),
    *((lattice_a2(), m) for m in (2, 14)),
    *((lattice_e8(), m) for m in (2, 4, 6, 8)),
    (construction_a(d16_plus()), 2), (construction_a(golay_g24()), 2),
    (_scaled_z2(2 ** 61), 4 * 2 ** 61), (_scaled_z2(2 ** 62), 2 ** 62)]


@pytest.mark.parametrize("lat, norm", KERNEL_SHELLS,
                         ids=[f"{lat.label or lat.g2[0][0]}-{norm}"
                              for lat, norm in KERNEL_SHELLS])
def test_component_sums_match_the_gram_schmidt_oracle(lat, norm):
    sh = shell_enum(lat, norm)
    hist = lattices._shell_pair_histogram(sh)
    assert gegenbauer_component_sums(sh, range(1, 13)) == \
        kernel_sums(hist, lat.rank, norm, range(1, 13))


def test_component_sums_on_the_zero_sphere():
    # on S^0 every kernel of degree >= 2 vanishes at s = +-1, and degree 1
    # cancels over an antipodal pair: Gram-Schmidt would divide by zero
    z1 = lattice_zn(1)
    for norm in (1, 4, 9):
        sh = shell_enum(z1, norm)
        sums = gegenbauer_component_sums(sh, range(13))
        assert sums == {0: 4, **{j: 0 for j in range(1, 13)}}
        assert moment_design_test(sh, 12).strength == 12


def test_degree_cap_refuses_before_any_work(monkeypatch):
    e8 = lattice_e8()
    sh = shell_enum(e8, 2)
    top = gegenbauer_component_sums(sh, [DEGREE_CAP])
    assert list(top) == [DEGREE_CAP] and top[DEGREE_CAP] != 0
    assert moment_design_test(sh, DEGREE_CAP).strength == 7
    row = (1,) + (0,) * 7
    assert zonal_harmonic_coords(e8, DEGREE_CAP, row).degree == DEGREE_CAP
    assert zonal_shell_sum(e8, sh, DEGREE_CAP, row) != 0

    def refuse(*args):
        raise AssertionError("histogram or enumeration built")

    monkeypatch.setattr(lattices, "_pair_histogram", refuse)
    monkeypatch.setattr(lattices, "_vectors_by_doubled_norm", refuse)
    lattices._shell_pair_histogram.cache_clear()
    for call in (lambda: moment_design_test(sh, DEGREE_CAP + 1),
                 lambda: gegenbauer_component_sums(sh, [2, DEGREE_CAP + 1]),
                 lambda: spherical_T_design_report(e8, 8, range(1, 10 ** 12)),
                 lambda: moment_design_report(e8, 2, DEGREE_CAP + 1),
                 # before the theta depth, lattice and norm checks too
                 lambda: theta_design_report(e8, 2, DEGREE_CAP + 1),
                 lambda: theta_design_report(e8, 2, DEGREE_CAP + 1, 168),
                 lambda: theta_design_report(lattice_a2(), 3, DEGREE_CAP + 1,
                                             -1),
                 # a zonal degree is refused where its polynomial is built,
                 # before any theta, and by the shell sum, even when empty
                 lambda: zonal_harmonic_coords(e8, DEGREE_CAP + 1, row),
                 lambda: zonal_shell_sum(e8, sh, DEGREE_CAP + 1, row),
                 lambda: zonal_shell_sum(e8, Shell(e8, F(1), ()),
                                         DEGREE_CAP + 1, row)):
        with pytest.raises(CapExceededError,
                           match=f"degree {DEGREE_CAP + 1} exceeds cap"):
            call()
    with pytest.raises(ValueError, match="nonnegative"):
        gegenbauer_component_sums(sh, [-2])


@pytest.mark.parametrize("label, norm", [
    ("Z2", 5), ("A2", 26), ("E8", 4), ("CA:d16plus", 2)])
def test_moment_design_report_is_the_test_on_the_shell(label, norm):
    lat = {"Z2": lambda: lattice_zn(2), "A2": lattice_a2, "E8": lattice_e8,
           "CA:d16plus": lambda: construction_a(d16_plus())}[label]()
    assert moment_design_report(lat, norm, 8) == \
        moment_design_test(shell_enum(lat, norm), 8)


def test_harmonic_theta_checks_the_series_cap_first(monkeypatch):
    def refuse(*args):
        raise AssertionError("the ball was enumerated")

    monkeypatch.setattr(lattices, "_vectors_by_doubled_norm", refuse)
    for prec in (SERIES_CAP + 1, 10 ** 12):
        with pytest.raises(CapExceededError, match="series precision"):
            harmonic_theta(lattice_zn(1), constant_poly(1), prec)
    with pytest.raises(ValueError, match="dimension"):
        harmonic_theta(lattice_zn(1), constant_poly(2), 10 ** 12)


# the parent CLI's payload fields, recorded: (lattice, norm, t, prec_norm)
# -> prec_norm, directions_tested, strength, failing degrees, and the mode
# of every even degree (every odd degree is "antipodal")
THETA_PAYLOADS = {
    ("E8", 2, 12, 0): (8, 10, 7, [8, 12], {
        2: "cusp space zero", 4: "cusp space zero", 6: "cusp space zero",
        8: "nonzero fitted coefficient", 10: "cusp space zero",
        12: "nonzero fitted coefficient"}),
    ("E8", 100, 14, 0): (8, 10, 7, [8, 12, 14], {
        2: "cusp space zero", 4: "cusp space zero", 6: "cusp space zero",
        8: "nonzero fitted coefficient", 10: "cusp space zero",
        12: "nonzero fitted coefficient", 14: "nonzero fitted coefficient"}),
    ("E8", 1000, 7, 0): (8, 10, 7, [], {
        2: "cusp space zero", 4: "cusp space zero", 6: "cusp space zero"}),
    ("E8", 2, 8, 4): (4, 10, 7, [8], {
        2: "cusp space zero", 4: "cusp space zero", 6: "cusp space zero",
        8: "nonzero fitted coefficient"}),
    ("CA:d16plus", 4, 8, 0): (4, 5, 3, [4, 8], {
        2: "cusp space zero", 4: "nonzero fitted coefficient",
        6: "cusp space zero", 8: "nonzero fitted coefficient"}),
    ("CA:d16plus", 100, 10, 0): (4, 5, 3, [4, 8, 10], {
        2: "cusp space zero", 4: "nonzero fitted coefficient",
        6: "cusp space zero", 8: "nonzero fitted coefficient",
        10: "nonzero fitted coefficient"}),
    ("CA:golay24", 4, 3, 0): (4, 5, 3, [], {2: "cusp space zero"}),
    ("CA:golay24", 4, 4, 0): (4, 5, 3, [4], {
        2: "cusp space zero", 4: "nonzero fitted coefficient"}),
}


@pytest.mark.parametrize("key", THETA_PAYLOADS)
def test_theta_design_report_keeps_the_cli_payload(key):
    name, norm, t, prec_norm = key
    lat = {"E8": lattice_e8, "CA:d16plus": lambda: construction_a(d16_plus()),
           "CA:golay24": lambda: construction_a(golay_g24())}[name]()
    depth, dirs, strength, fails, even_modes = THETA_PAYLOADS[key]
    rep = theta_design_report(lat, norm, t, prec_norm)
    assert (rep.prec_norm, rep.directions_tested, rep.strength) == \
        (depth, dirs, strength)
    assert rep.verdicts == {
        j: Verdict(j not in fails, even_modes.get(j, "antipodal"))
        for j in range(1, t + 1)}


@pytest.mark.parametrize("lat, norm, t, prec_norm, message", [
    (lattice_e8(), 2, 8, 2, "too shallow"),
    (lattice_e8(), 2, DEGREE_CAP, 0, "use at least 168"),
    (lattice_e8(), 3, 4, 0, "even integer norm"),
    (lattice_e8(), F(1, 2), 4, 0, "even integer norm"),
    (lattice_e8(), 2, 4, -4, "nonnegative"),
    (lattice_a2(), 2, 4, 0, "even unimodular"),
    (lattice_zn(8), 2, 4, 0, "even unimodular")])
def test_theta_design_report_refuses_before_enumerating(
        monkeypatch, lat, norm, t, prec_norm, message):
    def refuse(*args):
        raise AssertionError("the ball was enumerated")

    monkeypatch.setattr(lattices, "_vectors_by_doubled_norm", refuse)
    with pytest.raises(ValueError, match=message):
        theta_design_report(lat, norm, t, prec_norm)


# -- zonal harmonics ----------------------------------------------------------

def test_zonal_coefficient_ladder():
    # the recurrence, expanded term by term, is the harmonic the ladder gives
    assert ladder(8, 2, F(2)) == [1, F(-2, 8)]
    for n in (3, 8, 16):
        for k in (2, 4, 6, 8):
            direction = (1, 1, 1) + (0,) * (n - 3)
            terms = recurrence_terms(n, k, direction)
            assert laplacian(terms) == {}
            assert terms == zonal_terms(n, k, direction, ladder(n, k, F(3)))


def zonal_kernel(n, k, a, r2, u2):
    """The package kernel Z_k(a; r2 u2) at a rational value a, through one
    integer scaling: Z_k(lam a; lam^2 D^2) = lam^k Z_k(a; D^2)."""
    lam = math.lcm(a.denominator, (r2 * u2).denominator)
    return lattices._zonal_sums(n, [int(lam * a)], [1],
                                int(lam * lam * r2 * u2), [k])[k] / lam ** k


def test_zonal_kernel_equals_the_ladder():
    values = (F(0), F(3), F(-5, 2), F(7, 3))
    for n in range(1, 25):
        for u2, r2 in ((F(1), F(2)), (F(5, 2), F(7, 2)), (F(3), F(2, 3))):
            for k in range(17):
                cs = ladder(n, k, u2)
                for a in values:
                    want = sum(c * a ** (k - 2 * j) * r2 ** j
                               for j, c in enumerate(cs))
                    assert zonal_kernel(n, k, a, r2, u2) == want
    # a histogram sums count * Z_k(value) over its bins, degrees at once
    sums = lattices._zonal_sums(5, [0, 3, -4], [2, 1, 7], 6, [0, 3, 4, 9])
    for k, got in sums.items():
        assert got == sum(c * zonal_kernel(5, k, F(v), F(6), F(1))
                          for v, c in ((0, 2), (3, 1), (-4, 7)))


def test_zonal_harmonic_explicit_terms_degree_two():
    p = zonal_harmonic_coords(lattice_zn(3), 2, (1, 0, 0))
    assert p == HarmonicPolynomial(3, 2, (F(1), F(0), F(0)))
    terms = zonal_terms(3, 2, p.direction, ladder(3, 2, F(1)))
    assert terms == {(2, 0, 0): F(2, 3), (0, 2, 0): F(-1, 3),
                     (0, 0, 2): F(-1, 3)}
    assert laplacian(terms) == {}


def test_zonal_inputs_validated():
    z3 = lattice_zn(3)
    with pytest.raises(ValueError):
        zonal_harmonic_coords(z3, 4, (0, 0, 0))
    with pytest.raises(ValueError):
        zonal_harmonic_coords(z3, 4, (1, 0))
    with pytest.raises(ValueError):
        zonal_harmonic_coords(lattice_e8(), 4, (1, 0))
    with pytest.raises(ValueError, match="constant 1"):
        HarmonicPolynomial(3, 2)
    for direction in ((F(0),) * 3, (F(1), F(0)), (F(1),) * 4):
        with pytest.raises(ValueError, match="nonzero row of 3"):
            HarmonicPolynomial(3, 2, direction)
    with pytest.raises(ValueError, match="nonnegative"):
        zonal_harmonic_coords(z3, -2, (1, 0, 0))
    assert HarmonicPolynomial(3, 0).direction is None


def test_zonal_shell_sum_refuses_a_shell_of_another_lattice():
    # the norm-2 hexagon of A2 read with the Gram matrix of Z2 summed to
    # -2 at degree 2; with A2 itself the hexagon gives 0
    a2 = lattice_a2()
    hexagon = shell_enum(a2, 2)
    assert zonal_shell_sum(a2, hexagon, 2, (1, 0)) == 0
    with pytest.raises(ValueError, match="another Gram matrix"):
        zonal_shell_sum(lattice_zn(2), hexagon, 2, (1, 0))
    # an equal Gram matrix under another label is the same lattice
    twin = Lattice(a2.gram, "twin")
    assert zonal_shell_sum(twin, hexagon, 2, (1, 0)) == 0


def test_zonal_gram_route_matches_direct_evaluation_on_z4():
    # on Z^n lattice coordinates are Euclidean: the explicit expansion,
    # evaluated vector by vector, is an independent route to the sum
    z4 = lattice_zn(4)
    sh = shell_enum(z4, 2)
    for direction in ((1, 1, 0, 0), (2, 1, 0, -1)):
        for k in (2, 4, 6):
            u2 = sum(x * x for x in direction)      # Euclidean on Z^4
            terms = zonal_terms(4, k, direction, ladder(4, k, u2))
            direct = sum(evaluate(terms, v) for v in sh.vectors)
            assert zonal_shell_sum(z4, sh, k, direction) == direct


@pytest.mark.parametrize("factor,norms", [(1, (2, 6, 14)), (F(1, 2), (1, 3, 7))])
def test_zonal_sums_along_fractional_directions_on_a2(factor, norms):
    # A2 and A2 scaled by 1/2, whose Gram matrix has halves, along
    # directions with denominators up to 6: the kernel reads integers
    # 2 scale (x.u), the oracle the ladder at the Fraction values x.G.u
    a2 = Lattice([[factor * x for x in row] for row in lattice_a2().gram])
    gram = a2.gram
    for direction in ((F(1, 3), F(1, 2)), (F(2, 3), F(-5, 2)), (1, F(1, 2))):
        u = [F(x) for x in direction]
        u2 = sum(u[i] * gram[i][j] * u[j] for i in range(2) for j in range(2))
        for norm in norms:
            sh = shell_enum(a2, norm)
            assert len(sh) in (6, 12)
            dots = [sum(x[i] * gram[i][j] * u[j] for i in range(2)
                        for j in range(2)) for x in sh.vectors]
            for k in range(9):
                cs = ladder(2, k, u2)
                want = sum(sum(c * a ** (k - 2 * j) * F(norm) ** j
                               for j, c in enumerate(cs)) for a in dots)
                assert zonal_shell_sum(a2, sh, k, direction) == want
        # the minimal hexagon is a 5-design but not a 6-design
        sh = shell_enum(a2, norms[0])
        assert zonal_shell_sum(a2, sh, 4, direction) == 0
        assert zonal_shell_sum(a2, sh, 6, direction) != 0


def test_e8_zonal_sums_match_the_euclidean_root_model():
    # the frozen model values: degrees 2,4,6,10 vanish, degree 8 gives 144
    roots = d8plus_roots()
    assert len(roots) == 240
    u = (F(1), F(1)) + (F(0),) * 6
    model = {}
    for k in (2, 4, 6, 8, 10):
        cs = ladder(8, k, F(2))
        tot = F(0)
        for x in roots:
            a = sum(ui * xi for ui, xi in zip(u, x))
            tot += sum(c * a ** (k - 2 * j) * F(2) ** j
                       for j, c in enumerate(cs))
        model[k] = tot
    assert model == {2: 0, 4: 0, 6: 0, 8: 144, 10: 0}

    e8 = lattice_e8()
    sh = shell_enum(e8, 2)
    root_row = (1, 0, 0, 0, 0, 0, 0, 0)     # a simple root, norm 2
    for k, want in model.items():
        assert zonal_shell_sum(e8, sh, k, root_row) == want


def test_d16_norm2_zonal_sums_cover_both_direction_orbits():
    # oracle: enumerate the 480 integer lifts straight from the code
    words4 = [c for c in codewords(d16_plus()) if bin(c).count("1") == 4]
    assert len(words4) == 28
    lifts = []
    for w in words4:
        sup = [i for i in range(16) if (w >> i) & 1]
        for signs in product((1, -1), repeat=4):
            x = [0] * 16
            for i, s in zip(sup, signs):
                x[i] = s
            lifts.append(tuple(x))
    for i in range(16):
        for s in (2, -2):
            x = [0] * 16
            x[i] = s
            lifts.append(tuple(x))
    assert len(lifts) == 480

    def oracle(k, dot):     # direction of lattice norm 2; dot maps lift -> x.u
        cs = ladder(16, k, F(2))
        return sum(sum(c * dot(x) ** (k - 2 * j) * F(2) ** j
                       for j, c in enumerate(cs)) for x in lifts)

    # orbit 1: direction lifting 2e_i; orbit 2: a weight-4 codeword over sqrt2
    sup0 = [i for i in range(16) if (words4[0] >> i) & 1]
    for k, want in ((2, 0), (4, 64), (6, 0)):
        assert oracle(k, lambda x: F(x[0])) == want
        assert oracle(k, lambda x: F(sum(x[i] for i in sup0), 2)) == want

    d16 = construction_a(d16_plus(), "d16plus")
    sh = shell_enum(d16, 2)
    last_row = tuple([0] * 15 + [1])         # basis row lifting 2e_j
    assert [zonal_shell_sum(d16, sh, k, last_row) for k in (2, 4, 6)] == \
        [0, 64, 0]


def test_golay_norm2_zonal_sums_match_cross_polytope_arithmetic():
    # the 48 vectors are lifts of +-2e_i: x.u in {+-2, 0} against a 2e-row
    def manual(k):
        cs = ladder(24, k, F(2))
        z = lambda a: sum(c * a ** (k - 2 * j) * F(2) ** j
                          for j, c in enumerate(cs))
        return 2 * z(F(2)) + 46 * z(F(0))

    assert manual(4) == F(368, 13) and manual(6) == F(506, 7)
    g24 = construction_a(golay_g24(), "CA(golay)")
    sh = shell_enum(g24, 2)
    row = tuple([0] * 23 + [1])
    assert zonal_shell_sum(g24, sh, 4, row) == F(368, 13)
    assert zonal_shell_sum(g24, sh, 6, row) == F(506, 7)


# -- theta series and membership -----------------------------------------------

def test_plain_theta_counts_and_modular_reindex_guard():
    z2 = lattice_zn(2)
    th = harmonic_theta(z2, constant_poly(2), 9)
    assert [th[i] for i in range(10)] == [1, 4, 4, 0, 4, 8, 0, 0, 4, 4]
    with pytest.raises(ValueError):
        to_modular_q(th)                     # odd norms present
    with pytest.raises(ValueError):
        harmonic_theta(z2, constant_poly(3), 4)


def test_to_modular_q_halves_exponents():
    plain = to_modular_q(QSeries(0, 6, {0: F(1), 2: F(5), 4: F(7)}))
    assert plain.offset24 == 0 and plain.prec == 3
    assert [plain[i] for i in range(4)] == [1, 5, 7, 0]
    cusp = to_modular_q(QSeries(0, 4, {2: F(3), 4: F(9)}))
    assert cusp.offset24 == 24 and cusp[0] == 3 and cusp[1] == 9


def test_e8_membership_across_degrees():
    e8 = lattice_e8()
    rep = theta_membership_check(e8, constant_poly(8), prec_norm=8)
    assert (rep.weight, rep.with_e6_factor, rep.coords) == (4, False, (F(1),))
    root = (1, 0, 0, 0, 0, 0, 0, 0)
    for deg, weight, odd_half, coords in (
            (2, 6, True, (F(0),)),
            (4, 8, False, (F(0),)),
            (6, 10, True, (F(0),)),
            (8, 12, False, (F(0), F(144))),
            (10, 14, True, (F(0),))):
        p = zonal_harmonic_coords(e8, deg, root)
        rep = theta_membership_check(e8, p, prec_norm=8)
        assert rep.fit_ok
        assert (rep.weight, rep.with_e6_factor, rep.coords) == \
            (weight, odd_half, coords)


def test_membership_for_construction_a_fixtures():
    d16 = construction_a(d16_plus(), "d16plus")
    p4 = zonal_harmonic_coords(d16, 4, tuple([0] * 15 + [1]))
    rep = theta_membership_check(d16, p4, prec_norm=4)
    assert rep.fit_ok and rep.weight == 12 and rep.coords == (0, 64)

    g24 = construction_a(golay_g24(), "CA(golay)")
    p6 = zonal_harmonic_coords(g24, 6, tuple([0] * 23 + [1]))
    rep6 = theta_membership_check(g24, p6, prec_norm=4)
    assert rep6.fit_ok and rep6.weight == 18 and rep6.with_e6_factor
    assert rep6.coords == (0, F(506, 7))


def test_membership_rejections():
    e8 = lattice_e8()
    with pytest.raises(ValueError):
        theta_membership_check(e8, zonal_harmonic_coords(e8, 3, (1,) + (0,) * 7))
    with pytest.raises(ValueError):
        theta_membership_check(lattice_a2(), constant_poly(2))
    d16 = construction_a(d16_plus(), "d16plus")
    p4 = zonal_harmonic_coords(d16, 4, tuple([0] * 15 + [1]))
    with pytest.raises(ValueError):
        theta_membership_check(d16, p4, prec_norm=2)


def test_membership_refuses_shallow_depth_before_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumerated before refusing")

    monkeypatch.setattr(lattices, "_vectors_by_doubled_norm", no_enumeration)
    d16 = construction_a(d16_plus(), "d16plus")
    e8 = lattice_e8()
    # M_12 is 2-dimensional: a fit reads q^0..q^2, so norm 4 is needed
    assert theta_fit_norm(16, 4) == theta_fit_norm(8, 8) == 4
    for lat, p, prec_norm in (
            (d16, zonal_harmonic_coords(d16, 4, tuple([0] * 15 + [1])), 3),
            (e8, zonal_harmonic_coords(e8, 8, (1,) + (0,) * 7), 1),
            (e8, constant_poly(8), 1)):
        with pytest.raises(ValueError, match="not enough theta coefficients"):
            theta_membership_check(lat, p, prec_norm=prec_norm)


def test_theta_direction_policy():
    assert theta_directions(8) == [
        tuple(int(i == r) for i in range(8)) for r in range(8)] + [
        (1,) * 8, (-1, 0, 1, -1, 0, 1, -1, 0)]
    dirs = theta_directions(16)
    assert len(dirs) == 5 and dirs[0] == (1,) + (0,) * 15
    assert dirs[1][8] == dirs[2][15] == 1 and sum(map(abs, dirs[1])) == 1


def test_T_design_report_for_d16():
    d16 = construction_a(d16_plus(), "d16plus")
    rep = spherical_T_design_report(d16, 2, range(1, 8))
    assert rep.size == 480
    assert rep.passes({1, 2, 3, 5, 6, 7}) and not rep.passes({4})
    assert rep.verdicts[4].witness == gegenbauer_component_sums(
        shell_enum(d16, 2), [4])[4] != 0
    assert rep.strength == prefix_strength(rep.verdicts) == 3
