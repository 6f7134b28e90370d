"""Codes, block designs, discrete harmonics, harmonic weight enumerators."""

import io
import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from designlab import cli, codes
from designlab.codes import (BlockFamily, LambdaResult, Verdict,
                             antisymmetry_check, assmus_mattson,
                             code_from_rows, code_from_text, codewords,
                             d16_plus, delsarte_design_check,
                             design_lambda, direct_sum,
                             divisibility_structure_check, golay_g24,
                             hamming_e8, harm_basis, harm_dim,
                             harmonic_family_sums, harmonic_weight_enumerator,
                             is_doubly_even, is_self_dual, macwilliams,
                             min_weight, shell, shell_design_report,
                             two_weight_design_check, weight_distribution)
from designlab.errors import CapExceededError, InternalCheckError


# -- oracles -----------------------------------------------------------------

def brute_codewords(gens):
    """Span by direct subset sums, no Gray-code shortcut."""
    words = {0}
    for g in gens:
        words |= {w ^ g for w in words}
    return words


def gray_codewords(gens):
    """Word i is the sum of the generators at the set bits of i ^ (i >> 1),
    each word built on its own."""
    words = []
    for i in range(1 << len(gens)):
        gray, word = i ^ (i >> 1), 0
        for j, g in enumerate(gens):
            if gray >> j & 1:
                word ^= g
        words.append(word)
    return words


def brute_dual_distribution(code):
    """Weights of every vector of GF(2)^n orthogonal to each generator,
    read off all 2^n vectors a chunk at a time."""
    dist = np.zeros(code.n + 1, dtype=np.int64)
    for lo in range(0, 1 << code.n, 1 << 18):
        x = np.arange(lo, min(lo + (1 << 18), 1 << code.n), dtype=np.int64)
        odd = np.zeros(len(x), dtype=np.uint8)
        for g in code.gens:
            odd |= np.bitwise_count(x & g) & 1
        dist += np.bincount(np.bitwise_count(x[odd == 0]),
                            minlength=code.n + 1)
    return dist.tolist()


def brute_gamma(n, k, values):
    """Boundary map as an explicit dict of (k-1)-subset sums."""
    acc = {}
    for z, c in values:
        support = [i for i in range(n) if z >> i & 1]
        for drop in support:
            y = z ^ (1 << drop)
            acc[y] = acc.get(y, 0) + c
    return acc


def oracle_design_lambda(family, t):
    """Dict-loop lambda counting: count every t-subset of every block."""
    if not 0 <= t <= family.n:
        raise ValueError(f"t must lie in 0..{family.n}")
    if t == 0:
        return LambdaResult(True, len(family.blocks), None)
    counts = {}
    for b in family.blocks:
        support = [i for i in range(family.n) if b >> i & 1]
        for sub in itertools.combinations(support, t):
            counts[sub] = counts.get(sub, 0) + 1
    total = comb(family.n, t)
    if not counts:
        return LambdaResult(True, 0, None)
    values = set(counts.values())
    if len(values) == 1 and len(counts) == total:
        return LambdaResult(True, values.pop(), None)
    lo = min(counts, key=counts.get)
    hi = max(counts, key=counts.get)
    if len(counts) < total:
        for sub in itertools.combinations(range(family.n), t):
            if sub not in counts:
                return LambdaResult(False, None, (sub, 0, hi, counts[hi]))
    return LambdaResult(False, None, (lo, counts[lo], hi, counts[hi]))


def oracle_harm_pairs(n, k):
    """Per-tableau loop: each second row c_i >= 2i+1 with the complement's
    matching order statistics as first row."""
    out = []
    for second in itertools.combinations(range(n), k):
        if any(c < 2 * i + 1 for i, c in enumerate(second)):
            continue
        complement = [x for x in range(n) if x not in second]
        out.append(tuple(zip(complement, second)))
    return out


def oracle_values(pairs):
    """The +-1 table of a difference product, one subset per choice."""
    vals = []
    for bits in range(1 << len(pairs)):
        mask = 0
        for i, (a, b) in enumerate(pairs):
            mask |= 1 << (a if bits >> i & 1 else b)
        vals.append((mask, Fraction(-1 if bin(bits).count("1") % 2 else 1)))
    return tuple(vals)


def oracle_tilde(f, mask):
    """f-tilde(u) as the sum of the explicit table over subsets of u."""
    return sum(c for z, c in oracle_values(f.pairs) if z & mask == z)


# -- code basics --------------------------------------------------------------

def test_row_reduction_preserves_span():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(3, 12)
        rows = [rng.getrandbits(n) for _ in range(rng.randint(1, 6))]
        code = code_from_rows(n, rows)
        assert brute_codewords(rows) == set(codewords(code))


def test_code_from_text_needs_a_row():
    for text in ("", "\n  \n"):
        with pytest.raises(ValueError, match="at least one row"):
            codes.code_from_text(text)


def test_fixture_shapes():
    h, g, d = hamming_e8(), golay_g24(), d16_plus()
    assert (h.n, h.k) == (8, 4)
    assert (g.n, g.k) == (24, 12)
    assert (d.n, d.k) == (16, 8)


def test_code_from_generator_strings():
    code = code_from_text("1100\n0110\n1010")
    # third row is the sum of the first two, so it reduces away
    assert code.k == 2
    assert set(codewords(code)) == brute_codewords([0b0011, 0b0110])
    with pytest.raises(ValueError):
        code_from_text("110\n0a1")


def test_fixtures_doubly_even_self_dual():
    for code in (hamming_e8(), golay_g24(), d16_plus(),
                 direct_sum(hamming_e8(), hamming_e8())):
        assert is_self_dual(code)
        assert is_doubly_even(code)
        # enumeration cross-check of the generator-level predicate
        assert all(w.bit_count() % 4 == 0 for w in codewords(code))


def test_weight_distributions():
    assert weight_distribution(hamming_e8()) == [1, 0, 0, 0, 14, 0, 0, 0, 1]
    wd = weight_distribution(golay_g24())
    assert wd[0] == 1 and wd[8] == 759 and wd[12] == 2576
    assert wd[16] == 759 and wd[24] == 1
    assert sum(wd) == 4096
    wd16 = weight_distribution(d16_plus())
    assert wd16 == weight_distribution(direct_sum(hamming_e8(), hamming_e8()))
    assert wd16[4] == 28


def test_min_weights():
    assert min_weight(weight_distribution(hamming_e8())) == 4
    assert min_weight(weight_distribution(golay_g24())) == 8
    assert min_weight(weight_distribution(d16_plus())) == 4


# -- the codeword array -----------------------------------------------------------

@pytest.mark.parametrize("make", [hamming_e8, d16_plus, golay_g24])
def test_shells_list_the_gray_order_block_by_block(make):
    code = make()
    words = gray_codewords(code.gens)
    got = codewords(code)
    assert got.dtype == np.int64 and got.tolist() == words
    for w in range(code.n + 1):
        blocks = shell(code, w).blocks
        assert blocks.dtype == np.int64
        assert blocks.tolist() == [u for u in words if u.bit_count() == w], w


def test_codewords_are_held_for_the_last_few_codes():
    # 2^k words a code: a process that meets many codes holds a bounded
    # number of arrays, and a cycle over the three bundled codes is served
    # from the cache after its first round
    bound = codewords.cache_info().maxsize
    assert bound >= 3
    rng = random.Random(32)
    for _ in range(2 * bound):
        codewords(code_from_rows(20, [rng.getrandbits(20) for _ in range(8)]))
        assert codewords.cache_info().currsize <= bound
    bundled = (hamming_e8(), d16_plus(), golay_g24())
    held = [codewords(code) for code in bundled]
    misses = codewords.cache_info().misses
    for _ in range(2):
        assert all(codewords(code) is words
                   for code, words in zip(bundled, held))
    assert codewords.cache_info().misses == misses


def test_weight_distribution_and_min_weight_match_the_brute_span():
    rng = random.Random(35)
    codes_ = [hamming_e8(), d16_plus(), golay_g24()]
    codes_ += [code_from_rows(n, [rng.getrandbits(n) for _ in range(5)])
               for n in (5, 9, 13) for _ in range(3)]
    for code in codes_:
        words = brute_codewords(code.gens)
        dist = [0] * (code.n + 1)
        for u in words:
            dist[u.bit_count()] += 1
        assert weight_distribution(code) == dist
        if code.k:
            assert min_weight(dist) == min(u.bit_count() for u in words if u)
            assert type(min_weight(weight_distribution(code))) is int


def test_a_zero_dimensional_code_has_no_minimum_weight():
    zero = code_from_rows(8, [0])
    assert zero.k == 0 and weight_distribution(zero) == [1] + [0] * 8
    for fn in (min_weight, assmus_mattson):
        with pytest.raises(ValueError, match="zero-dimensional code has no "
                                             "minimum weight"):
            fn(weight_distribution(zero))
    # its one shell, the empty block, is still listed: lambda 0 at t >= 1
    rep = shell_design_report(zero, 0, 3)
    assert rep == codes.ShellDesignReport(1, 0, {3: Verdict(True, "listing")})


def test_codeword_arrays_refuse_writes():
    words = codewords(hamming_e8())
    with pytest.raises(ValueError):
        words[0] = 1
    with pytest.raises(ValueError):
        words.setflags(write=True)
    for fam in (shell(golay_g24(), 8), BlockFamily(70, (3, 1 << 69))):
        with pytest.raises(ValueError):
            fam.blocks[0] = 5


def test_generator_rows_past_the_length_are_refused():
    with pytest.raises(ValueError, match="exceeds code length"):
        code_from_rows(4, [0b10000])


def test_not_self_dual_examples():
    rep = code_from_rows(4, [0b1111])
    assert not is_self_dual(rep)
    even6 = code_from_rows(6, [0b000011, 0b001100, 0b110000])
    assert is_self_dual(even6)          # k = n/2 and even intersections
    assert not is_doubly_even(even6)


# -- brute-force design counting ----------------------------------------------

def test_golay_weight8_is_steiner_system():
    fam = shell(golay_g24(), 8)
    assert len(fam.blocks) == 759
    res = design_lambda(fam, 5)
    assert res.is_design and res.lam == 1


def test_golay_lambda_chain():
    # 5-(24,8,1) forces lambda_t = C(24-t,5-t)/C(8-t,5-t) for t <= 5
    fam = shell(golay_g24(), 8)
    for t in range(6):
        res = design_lambda(fam, t)
        assert res.is_design
        assert res.lam == comb(24 - t, 5 - t) // comb(8 - t, 5 - t)


def test_hamming_weight4_is_3_design():
    fam = shell(hamming_e8(), 4)
    assert len(fam.blocks) == 14
    for t, lam in {1: 7, 2: 3, 3: 1}.items():
        res = design_lambda(fam, t)
        assert res.is_design and res.lam == lam


def test_design_lambda_strength_range():
    fam = shell(hamming_e8(), 4)
    # t between the block size and n: no t-subset is covered, lambda = 0
    for t in (5, 8):
        res = design_lambda(fam, t)
        assert res.is_design and res.lam == 0
    for t in (-1, 9):
        with pytest.raises(ValueError):
            design_lambda(fam, t)


def test_design_lambda_witness_on_failure():
    fam = shell(d16_plus(), 4)
    res = design_lambda(fam, 2)
    assert not res.is_design
    t1, c1, t2, c2 = res.witness
    assert c1 != c2
    # recount the witness subsets directly
    for sub, cnt in ((t1, c1), (t2, c2)):
        m = sum(1 << i for i in sub)
        assert sum(1 for b in fam.blocks if b & m == m) == cnt


def test_design_lambda_counts_mixed_sizes():
    fam = shell(golay_g24(), 8).union(shell(golay_g24(), 16))
    # 759 * 8 + 759 * 16 incidences spread over 24 points
    res = design_lambda(fam, 1)
    assert res.is_design and res.lam == 759
    assert res == oracle_design_lambda(fam, 1)


@st.composite
def families(draw):
    n = draw(st.integers(1, 12))
    blocks = draw(st.lists(st.integers(0, (1 << n) - 1), unique=True,
                           max_size=40))
    return BlockFamily(n, tuple(blocks)), draw(st.integers(0, n))


@settings(max_examples=300, deadline=None)
@given(families())
def test_design_lambda_matches_dict_oracle(case):
    fam, t = case
    assert design_lambda(fam, t) == oracle_design_lambda(fam, t)


def wide_set_families():
    cases = []
    rng = random.Random(62)
    for n in (62, 63, 70):      # int64 masks, then Python-int masks
        blocks = {sum(1 << i for i in rng.sample(range(n), rng.randint(1, 6)))
                  for _ in range(30)}
        cases += [(BlockFamily(n, tuple(blocks)), t) for t in (1, 2, 3)]
    cases.append((BlockFamily(70, tuple(sum(1 << i for i in sub) for sub in
                                        itertools.combinations(range(70), 2))),
                  2))
    # C(70, 30) and C(70, 29) exceed 2^63: ranks are Python ints
    first30, next30 = (1 << 30) - 1, ((1 << 30) - 1) << 1
    return cases + [(BlockFamily(70, (first30,)), 30),
                    (BlockFamily(70, (first30, next30)), 29)]


def test_design_lambda_oracle_on_fixture_shells_and_wide_sets():
    cases = [(shell(d16_plus(), 4).union(shell(d16_plus(), 12)), t)
             for t in range(5)]
    cases += [(shell(golay_g24(), w), t) for w in (8, 12) for t in (4, 6)]
    for fam, t in cases + wide_set_families():
        assert design_lambda(fam, t) == oracle_design_lambda(fam, t), \
            (fam.n, t)


def test_combinations_table_matches_itertools():
    for n in range(13):
        for k in range(n + 1):
            want = np.array(list(itertools.combinations(range(n), k)),
                            dtype=np.intp).reshape(comb(n, k), k)
            got = codes._combinations(n, k)
            assert got.dtype == np.intp and got.shape == want.shape
            assert np.array_equal(got, want), (n, k)


FIXTURE_WITNESSES = [
    (golay_g24, 16, 6, ((0, 1, 3, 4, 6, 7), 45, (0, 1, 3, 4, 6, 17), 46)),
    (golay_g24, 16, 8, ((0, 1, 3, 4, 6, 7, 8, 9), 13,
                        (0, 1, 3, 4, 7, 10, 21, 22), 30)),
    (golay_g24, 12, 6, ((0, 1, 2, 3, 4, 6), 16, (0, 1, 2, 3, 4, 5), 18)),
    (golay_g24, 8, 6, ((0, 1, 2, 3, 4, 5), 0, (0, 3, 7, 8, 9, 11), 1)),
    (d16_plus, 4, 2, ((0, 14), 1, (0, 1), 7)),
]


@pytest.mark.parametrize("code, w, t, witness", FIXTURE_WITNESSES)
def test_design_lambda_fixture_witnesses(code, w, t, witness):
    # golay24 weight 16 at t = 8 lists 9,768,330 subsets, the largest
    # fixture listing, and stays under LAMBDA_CAP
    assert design_lambda(shell(code(), w), t) == \
        LambdaResult(False, None, witness)


TILE_SHAPES = {
    1: [(1, 1)] * 70,                   # one rank a tile
    4: [(4, 1), (4, 1), (2, 1)] * 7,    # a block split across three tiles
    10: [(10, 1)] * 7,                  # one whole block a tile
    25: [(10, 2)] * 3 + [(10, 1)],      # two whole blocks a tile
    1 << 15: [(10, 7)],
}


@pytest.mark.parametrize("tile", TILE_SHAPES)
def test_subset_ranks_lists_in_tiles(monkeypatch, tile):
    n, t = 9, 3
    rng = random.Random(93)
    blocks = [sorted(rng.sample(range(n), 5)) for _ in range(7)]
    lex = {sub: r for r, sub in
           enumerate(itertools.combinations(range(n), t))}
    want = [[lex[sub] for sub in itertools.combinations(b, t)]
            for b in blocks]
    monkeypatch.setattr(codes, "_LAMBDA_TILE", tile)
    got, starts, seen = [[None] * comb(5, t) for _ in blocks], [], []
    for b, j, ranks in codes._subset_ranks(np.array(blocks), n, t,
                                           np.dtype(np.int16)):
        starts.append((b, j))
        seen.append(ranks.shape)
        for (r, c), rank in np.ndenumerate(ranks):
            assert got[b + c][j + r] is None
            got[b + c][j + r] = int(rank)
    assert seen == TILE_SHAPES[tile] and starts == sorted(starts)
    assert got == want


@pytest.mark.parametrize("tile", [1, 4, 32])
def test_design_lambda_across_tile_boundaries(monkeypatch, tile):
    monkeypatch.setattr(codes, "_LAMBDA_TILE", tile)
    # tiles of ranks of one or of several whole blocks, and blocks split
    # across tiles; mixed sizes, wide sets and sorted (listed < C(n,t))
    # families
    test_design_lambda_matches_dict_oracle()
    mixed = shell(d16_plus(), 4).union(shell(d16_plus(), 12))
    for fam, t in [(mixed, t) for t in range(5)] + wide_set_families():
        assert design_lambda(fam, t) == oracle_design_lambda(fam, t), \
            (fam.n, t)
    test_design_lambda_fixture_witnesses(*FIXTURE_WITNESSES[-1])
    # the least count is first met in a later block, a later tile
    fam = BlockFamily(4, (0b0011, 0b0101, 0b1001, 0b0110))
    assert design_lambda(fam, 1) == oracle_design_lambda(fam, 1) == \
        LambdaResult(False, None, ((3,), 1, (0,), 3))


def test_design_lambda_across_split_blocks(monkeypatch):
    monkeypatch.setattr(codes, "_LAMBDA_TILE", 1000)
    # blocks that outgrow a tile: the single golay24 block of weight 24
    # (C(24,6) = 134,596 subsets at t = 6) with the octads, counted in the
    # table, and two blocks of 20 and 18 points, fewer subsets than C(24,t),
    # counted by the sort
    octads, whole = shell(golay_g24(), 8), shell(golay_g24(), 24)
    big = BlockFamily(24, ((1 << 20) - 1, ((1 << 18) - 1) << 6))
    for fam, t in ((octads.union(whole), 6), (whole.union(octads), 5),
                   (big, 6), (big, 3)):
        assert design_lambda(fam, t) == oracle_design_lambda(fam, t), t
    test_design_lambda_oracle_on_fixture_shells_and_wide_sets()
    for case in FIXTURE_WITNESSES:
        test_design_lambda_fixture_witnesses(*case)


def test_witness_scans_stop_at_their_hit(monkeypatch):
    # golay24 weight 16 at t = 6: each block's C(16,6) = 8,008 subsets
    # take eight tiles of 1,000 ranks and one of 8
    monkeypatch.setattr(codes, "_LAMBDA_TILE", 1000)
    listed = []

    def spy(*args):
        for b, j, ranks in subset_ranks(*args):
            listed.append((b, j, ranks.size))
            yield b, j, ranks
    subset_ranks = codes._subset_ranks
    monkeypatch.setattr(codes, "_subset_ranks", spy)
    fam = shell(golay_g24(), 16)
    low, least, high, most = design_lambda(fam, 6).witness

    def first_tile(sub):
        m = sum(1 << i for i in sub)
        b = next(i for i, u in enumerate(fam.blocks) if u & m == m)
        points = [i for i in range(24) if fam.blocks[b] >> i & 1]
        j = list(itertools.combinations(points, 6)).index(sub)
        return b, j // 1000 * 1000
    tiles = [(b, j, 8 if j == 8000 else 1000)
             for b in range(759) for j in range(0, 8008, 1000)]
    starts = [(b, j) for b, j, _ in tiles]
    # the table count lists every tile, and each witness scan every tile
    # up to the one of its hit
    scans = [tiles[:starts.index(first_tile(sub)) + 1] for sub in (low, high)]
    assert listed == tiles + scans[0] + scans[1]


def test_design_lambda_holds_no_whole_listing():
    # golay24 at t = 6: the weight-16 shell lists 6,075,072 subsets (23 MiB
    # as int32), the weight-12 shell 2,380,224 and the weight-24 block
    # 134,596 in one block; the table of C(24,6) counts, the tiles and the
    # block supports take about 2 MiB
    for w in (12, 16, 24):
        fam = shell(golay_g24(), w)
        tracemalloc.start()
        try:
            design_lambda(fam, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 << 20, (w, peak)


def test_lambda_listing_over_the_cap_is_refused_first(tmp_path, monkeypatch,
                                                       capsys):
    def no_arrays(*args):
        raise AssertionError("built an array for an over-cap listing")
    monkeypatch.setattr(codes, "_points", no_arrays)
    monkeypatch.setattr(codes, "_subset_ranks", no_arrays)
    # a [32,16] code [I | R] with a seeded random R
    rng, path = random.Random(3216), tmp_path / "c32.txt"
    path.write_text("".join(
        "".join("1" if j == i else "0" for j in range(16))
        + "".join(rng.choice("01") for _ in range(16)) + "\n"
        for i in range(16)))
    fam = shell(code_from_text(path.read_text()), 16)
    listed = len(fam.blocks) * comb(16, 8)
    assert listed > codes.LAMBDA_CAP
    with pytest.raises(CapExceededError, match=f"{listed} listed 8-subsets"):
        design_lambda(fam, 8)
    status = cli.main(["--format", "json", "code-design", "--code", str(path),
                       "--weight", "16", "--t", "8"], out=io.StringIO())
    assert status == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "CapExceededError"


# -- the MacWilliams transform and Assmus-Mattson ----------------------------

def hamming7():
    """The [7,4,3] cyclic Hamming code, generated by 1 + x + x^3."""
    return code_from_rows(7, [0b1011 << s for s in range(4)], "hamming7")


def reed_muller_1_4():
    """RM(1,4), [16,5,8]: the all-ones word and the four coordinate
    functions on the points 0..15 of GF(2)^4."""
    rows = [sum(1 << p for p in range(16) if p >> b & 1) for b in range(4)]
    return code_from_rows(16, rows + [(1 << 16) - 1], "rm14")


def seeded_codes():
    rng = random.Random(43)
    out = [code_from_rows(6, [0])]
    for n in (5, 9, 12, 16):
        for k in (1, n // 3, n // 2, n - 1):
            out.append(code_from_rows(n, [rng.getrandbits(n)
                                          for _ in range(k)]))
    return out


def test_macwilliams_matches_the_brute_dual():
    bundled = [hamming_e8(), d16_plus(), golay_g24()]
    for code in bundled + [hamming7(), reed_muller_1_4()] + seeded_codes():
        assert macwilliams(weight_distribution(code)) == \
            brute_dual_distribution(code), code


@pytest.mark.parametrize("code, t", [
    (hamming_e8(), 3), (d16_plus(), 1), (golay_g24(), 5),
    (direct_sum(hamming_e8(), d16_plus()), 0),
    (hamming7(), 2), (reed_muller_1_4(), 3)])
def test_assmus_mattson_strengths(code, t):
    assert assmus_mattson(weight_distribution(code)) == t


def test_every_shell_is_a_design_up_to_the_assmus_mattson_t():
    bundled = [hamming_e8(), d16_plus(), golay_g24()]
    proved = 0
    for code in bundled + [hamming7(), reed_muller_1_4()] + seeded_codes():
        if not code.k:
            continue
        dist = weight_distribution(code)
        for w in np.flatnonzero(dist).tolist():
            for t in range(1, assmus_mattson(dist) + 1):
                listed = design_lambda(shell(code, w), t)
                assert listed.is_design, (code, w, t)
                rep = shell_design_report(code, w, t)
                assert rep == codes.ShellDesignReport(
                    dist[w], listed.lam, {t: Verdict(True, "Assmus-Mattson")}
                ), (code, w, t)
                proved += 1
    # 9 + 5 + 25 + 8 + 9 from the structured codes; the seeded ones have d
    # too small for the theorem to prove any t
    assert proved == 56


def test_a_shell_past_the_assmus_mattson_t_is_listed(monkeypatch):
    calls = []
    listing = codes.design_lambda

    def spy(family, t):
        calls.append(t)
        return listing(family, t)
    monkeypatch.setattr(codes, "design_lambda", spy)
    assert shell_design_report(hamming_e8(), 4, 3).verdicts == {
        3: Verdict(True, "Assmus-Mattson")}
    assert calls == []
    for t in (0, 4):
        rep = shell_design_report(hamming_e8(), 4, t)
        res = listing(shell(hamming_e8(), 4), t)
        assert rep == codes.ShellDesignReport(14, res.lam, {t: Verdict(
            res.is_design, "listing", res.witness)})
    assert calls == [0, 4]
    # refused in the order the listing route always had: the empty shell
    # first, then t out of range
    for w, t, message in ((6, 1, "hamming8 has no codewords of weight 6"),
                          (6, 9, "hamming8 has no codewords of weight 6"),
                          (-4, 1, "hamming8 has no codewords of weight -4"),
                          (9, 1, "hamming8 has no codewords of weight 9"),
                          (4, 9, "t must lie in 0..8"),
                          (4, -1, "t must lie in 0..8")):
        with pytest.raises(ValueError, match=message):
            shell_design_report(hamming_e8(), w, t)


def qr32_text():
    """The extended quadratic-residue code of length 32 as generator rows:
    the cyclic shifts of the indicator of {0} and the squares mod 31, each
    with a parity bit, and the all-ones row."""
    squares = {x * x % 31 for x in range(1, 31)}
    base = "".join("1" if i == 0 or i in squares else "0" for i in range(31))
    rows = []
    for s in range(31):
        row = base[-s:] + base[:-s] if s else base
        rows.append(row + str(row.count("1") % 2))
    return "\n".join(rows + ["1" * 32]) + "\n"


def test_qr32_weight_16_is_a_3_design_with_no_listing(tmp_path, monkeypatch,
                                                      capsys):
    def no_arrays(*args):
        raise AssertionError("built an array for a proved shell")
    monkeypatch.setattr(codes, "_points", no_arrays)
    monkeypatch.setattr(codes, "_subset_ranks", no_arrays)
    path = tmp_path / "qr32.txt"
    path.write_text(qr32_text())
    code = code_from_text(path.read_text())
    dist = weight_distribution(code)
    assert (code.n, code.k, min_weight(dist)) == (32, 16, 8)
    assert assmus_mattson(dist) == 3
    # a listing would take 36,518 C(16,3) = 20,450,080 subsets, over the cap
    assert 36518 * comb(16, 3) > codes.LAMBDA_CAP
    out = io.StringIO()
    assert cli.main(["--format", "json", "code-design", "--code", str(path),
                     "--weight", "16", "--t", "3"], out=out) == 0
    got = json.loads(out.getvalue())
    assert (got["verdict"], got["lambda"], got["blocks"], got["mode"]) == \
        ("design", 4123, 36518, "Assmus-Mattson")
    # t = 4 is past the theorem: the listing is refused before any array
    assert cli.main(["--format", "json", "code-design", "--code", str(path),
                     "--weight", "16", "--t", "4"], out=io.StringIO()) == 1
    error = json.loads(capsys.readouterr().err)["error"]
    assert error["type"] == "CapExceededError"
    assert error["message"].startswith(f"{36518 * comb(16, 4)} listed")


def test_assmus_mattson_guards_refuse_planted_distributions(monkeypatch):
    # no linear code has these: one word short of hamming8 (sum 15), A_0 = 0,
    # a negative A_i, no entries at all
    for fn in (macwilliams, min_weight, assmus_mattson):
        for planted in ([1, 0, 0, 0, 13, 0, 0, 0, 1], [0, 0, 0, 0, 16],
                        [1, 0, -1, 0, 16, 0, 0, 0, 0], []):
            with pytest.raises(ValueError, match="not a linear code's"):
                fn(planted)
    # 16 words whose dual sums are not multiples of 16
    with pytest.raises(InternalCheckError, match=r"divisible by \|C\| = 16"):
        macwilliams([1, 0, 0, 1, 12, 1, 0, 0, 1])
    # one dodecad too many, which the theorem would refuse, "proved" t = 5:
    # 2577 C(12,5) is no multiple of C(24,5)
    words = codewords(golay_g24())
    planted = np.append(words, words[np.bitwise_count(words) == 12][:1])
    monkeypatch.setattr(codes, "codewords", lambda code: planted)
    monkeypatch.setattr(codes, "assmus_mattson", lambda dist: 5)
    assert weight_distribution(golay_g24())[12] == 2577
    with pytest.raises(InternalCheckError, match="no integral lambda"):
        shell_design_report(golay_g24(), 12, 5)


def extremal_type_ii(n, shells):
    """The weight distribution of an extremal Type II code of length n from
    its shells below n/2, {w: A_w}, mirrored by A_w = A_{n-w}."""
    dist = [0] * (n + 1)
    dist[0] = dist[n] = 1
    for w, count in shells.items():
        dist[w] = dist[n - w] = count
    return dist


def test_extremal_distributions_need_no_code(monkeypatch):
    def no_words(code):
        raise AssertionError("enumerated a code")
    monkeypatch.setattr(codes, "codewords", no_words)
    # length 48 is past BinaryCode's n <= 32: the distribution alone
    for n, shells, size, d, t in (
            (32, {8: 620, 12: 13888, 16: 36518}, 1 << 16, 8, 3),
            (48, {12: 17296, 16: 535095, 20: 3995376, 24: 7681680},
             1 << 24, 12, 5)):
        dist = extremal_type_ii(n, shells)
        assert sum(dist) == size
        assert macwilliams(dist) == dist        # self-dual
        assert min_weight(dist) == d
        assert assmus_mattson(dist) == t


@pytest.mark.parametrize("make, w, t, mode", [
    (golay_g24, 12, 5, "Assmus-Mattson"), (d16_plus, 8, 4, "listing")])
def test_a_shell_report_counts_the_weight_distribution_once(
        make, w, t, mode, monkeypatch):
    # the fixture's rows under a new name, which no cache holds: every count
    # the report needs is made in this call
    code = code_from_rows(make().n, list(make().gens), "spied")
    calls = []
    count = codes.weight_distribution

    def spy(c):
        calls.append(c)
        return count(c)
    monkeypatch.setattr(codes, "weight_distribution", spy)
    assert shell_design_report(code, w, t).verdicts[t].mode == mode
    assert calls == [code]


def test_block_family_guards():
    with pytest.raises(ValueError):
        BlockFamily(8, (3, 3))
    with pytest.raises(ValueError):
        BlockFamily(8, (1 << 8,))
    with pytest.raises(ValueError):
        BlockFamily(8, (-1,))
    with pytest.raises(ValueError):
        BlockFamily(8, (3,)).union(BlockFamily(9, (5,)))
    # the same refusals for array input, in every width
    for dt in (np.int8, np.int64, np.uint8, np.uint64):
        with pytest.raises(ValueError, match="repeat"):
            BlockFamily(6, np.array([3, 5, 3], dtype=dt))
        with pytest.raises(ValueError, match="subset"):
            BlockFamily(6, np.array([3, 1 << 6], dtype=dt))
    with pytest.raises(ValueError, match="subset"):
        BlockFamily(8, np.array([3, -1]))
    # a uint64 past 2^63 - 1 is no subset of range(63), not a wrapped int
    with pytest.raises(ValueError, match="subset"):
        BlockFamily(63, np.array([1 << 63], dtype=np.uint64))
    with pytest.raises(ValueError, match="subset"):
        BlockFamily(62, (1 << 64,))
    for bad in (np.array([1.0, 2.0]), np.array([[1, 2]]), [[1, 2]]):
        with pytest.raises(ValueError, match="integer bitmasks"):
            BlockFamily(8, bad)
    for n in (8, 70):
        for bad in ((1, 1.5), ("3",), np.array([1, 2.5], dtype=object)):
            with pytest.raises(TypeError):
                BlockFamily(n, bad)
    with pytest.raises(ValueError, match="subset"):
        BlockFamily(62, (-1, 1 << 63))
    assert BlockFamily(8, np.array([5, 3], dtype=np.uint8)).blocks.tolist() \
        == [5, 3]
    assert len(BlockFamily(8, ()).blocks) == 0


def test_wide_families_hold_python_int_masks():
    # past 63 points a mask needs more than int64: object arrays of ints
    top = 1 << 69
    fam = BlockFamily(70, np.array([3, top, top | 1], dtype=object))
    assert fam.blocks.dtype == object
    assert [type(u) for u in fam.blocks] == [int] * 3
    assert BlockFamily(70, np.array([3, 5])).blocks.dtype == object
    for bad, why in (((3, 3), "repeat"), ((-1,), "subset"),
                     ((1 << 70,), "subset"), ((top, top), "repeat")):
        with pytest.raises(ValueError, match=why):
            BlockFamily(70, bad)
    assert fam.union(BlockFamily(70, (6,))).blocks.tolist() == \
        [3, top, top | 1, 6]
    assert design_lambda(fam, 1) == oracle_design_lambda(fam, 1)
    # a closed family on 70 points folds like an int64 one
    full = (1 << 70) - 1
    closed = BlockFamily(70, (3, full ^ 3, top, full ^ top))
    assert codes._complement_half(closed).tolist() == [3, full ^ top]
    assert codes._complement_half(fam) is None
    basis = harm_basis(70, 2)
    assert harmonic_family_sums(basis, closed) == [
        sum(oracle_tilde(f, u) for u in closed.blocks) for f in basis[:]]
    assert delsarte_design_check(closed, [1, 2]) == \
        oracle_verdicts(closed, [1, 2])


# -- discrete harmonics --------------------------------------------------------

def test_harm_dim_formula():
    assert harm_dim(4, 1) == 3
    assert harm_dim(8, 3) == 28
    assert harm_dim(24, 5) == comb(24, 5) - comb(24, 4) == 31878
    assert harm_dim(6, 0) == 1
    assert harm_dim(6, 4) == 0          # above the equator


def test_harm_basis_small_explicit():
    basis = harm_basis(4, 1)
    assert len(basis) == 3
    # degree-1 point differences rooted at the smallest point
    seen = {f.pairs for f in basis}
    assert seen == {((0, 1),), ((0, 2),), ((0, 3),)}


def test_harm_basis_gamma_via_oracle():
    for n, k in [(6, 2), (8, 3), (7, 3), (9, 1)]:
        basis = harm_basis(n, k)
        assert len(basis) == harm_dim(n, k)
        for f in basis:
            acc = brute_gamma(n, k, oracle_values(f.pairs))
            assert all(v == 0 for v in acc.values())


def test_harm_basis_pairs_match_tableau_oracle():
    for n in range(1, 17):
        for k in range(1, min(n, 5) + 1):
            basis = harm_basis(n, k)
            assert [f.pairs for f in basis] == oracle_harm_pairs(n, k), (n, k)


def test_distinct_pair_systems_lie_in_ker_gamma():
    # the theorem behind the one certificate: 2k distinct points suffice
    rng = random.Random(2024)
    for _ in range(400):
        n = rng.randint(2, 10)
        k = rng.randint(1, min(4, n // 2))
        points = rng.sample(range(n), 2 * k)
        pairs = tuple(zip(points[::2], points[1::2]))
        assert not any(brute_gamma(n, k, oracle_values(pairs)).values())
        assert codes.DiscreteHarmonic(n, pairs).pairs == pairs
    # gamma alone takes a degenerate pair for the zero function
    assert not any(brute_gamma(4, 1, oracle_values(((3, 3),))).values())
    with pytest.raises(ValueError, match="distinct points"):
        codes.DiscreteHarmonic(4, ((3, 3),))


def test_pair_check_is_distinct_points_in_range():
    rng = random.Random(7)
    for _ in range(400):
        n, k = rng.randint(2, 10), rng.randint(0, 4)
        pairs = tuple((rng.randrange(-1, n + 2), rng.randrange(-1, n + 2))
                      for _ in range(k))
        points = [p for pair in pairs for p in pair]
        valid = len(set(points)) == 2 * k and all(0 <= p < n for p in points)
        arr = np.array(pairs, dtype=np.int64).reshape(1, k, 2)
        assert codes._distinct_in_range(arr, n) == valid, (n, pairs)


def test_hand_built_harmonics_are_refused():
    for pairs in (((0, 9),), ((0, 1), (1, 2)), ((-1, 2),), ((0, 2 ** 70),)):
        with pytest.raises(ValueError, match="distinct points in range"):
            codes.DiscreteHarmonic(8, pairs)
    assert codes.DiscreteHarmonic(8, ((0, 7), (1, 2))).degree == 2
    assert codes.DiscreteHarmonic(8, ()).degree == 0


TABLEAU_PAIRS = codes._tableau_pairs


def reuse_a_point(a, b, n):
    a[-1, 0] = b[-1, -1]


def pair_a_point_with_itself(a, b, n):
    a[-1, 0] = b[-1, 0]


def leave_the_range(a, b, n):
    b[-1, -1] = n


CORRUPTIONS = (reuse_a_point, pair_a_point_with_itself, leave_the_range)


def test_harm_basis_certification_rejects_corrupt_pair_system(monkeypatch):
    build = harm_basis.__wrapped__      # bypass the cache
    for corrupt in CORRUPTIONS:
        def corrupted(n, k, corrupt=corrupt):
            a, b = TABLEAU_PAIRS(n, k)
            corrupt(a, b, n)            # the last system
            return a, b
        monkeypatch.setattr(codes, "_tableau_pairs", corrupted)
        for n, k in ((8, 3), (24, 5)):
            with pytest.raises(InternalCheckError, match="ker gamma"):
                build(n, k)
    monkeypatch.setattr(codes, "_tableau_pairs",
                        lambda n, k: [x[1:] for x in TABLEAU_PAIRS(n, k)])
    with pytest.raises(InternalCheckError, match="count"):
        build(8, 3)


def test_harm_basis_is_independent_mod_p():
    # mod-p independence certifies independence over Q
    p = 1_000_003
    for n, k in [(6, 2), (8, 3), (8, 4)]:
        basis = harm_basis(n, k)
        cols = {z: j for j, z in enumerate(
            sum(1 << i for i in sub)
            for sub in itertools.combinations(range(n), k))}
        rows = []
        for f in basis:
            r = [0] * len(cols)
            for z, c in oracle_values(f.pairs):
                r[cols[z]] = int(c) % p
            rows.append(r)
        rank = 0
        pivots = {}
        for r in rows:
            r = list(r)
            for col, pr in pivots.items():
                if r[col]:
                    f = r[col] * pow(pr[col], -1, p) % p
                    r = [(a - f * b) % p for a, b in zip(r, pr)]
            lead = next((i for i, a in enumerate(r) if a), None)
            assert lead is not None, "dependent basis element"
            pivots[lead] = r
            rank += 1
        assert rank == len(basis)


def test_tilde_pairs_path_matches_subset_sum():
    # the kernel, one mask at a time, against the explicit +-1 table
    rng = random.Random(11)
    masks = [rng.getrandbits(8) for _ in range(20)]
    points = codes._points(masks, 8)
    constant, = harm_basis(8, 0)
    assert constant.pairs == () and constant.degree == 0
    for f in rng.sample(harm_basis(8, 3), 10) + [constant]:
        pairs = codes._pair_array((f,))
        got = [int(codes._tilde_sums(pairs, points[:, [j]])[0])
               for j in range(len(masks))]
        assert got == [oracle_tilde(f, m) for m in masks]
    assert oracle_tilde(constant, 0b101) == 1


def test_harmonic_family_sums_matches_per_element():
    fam = shell(hamming_e8(), 4)
    basis = harm_basis(8, 3)
    sums = harmonic_family_sums(basis, fam)
    for f, s in zip(basis, sums):
        assert s == sum(oracle_tilde(f, b) for b in fam.blocks)


def test_harmonic_family_sums_refuse_harmonics_on_other_points():
    # the kernel reads points clipped into range, so a degree-2 basis on
    # 24 points summed over a family on 8 gave 136 nonzero "sums"
    fam = shell(hamming_e8(), 4)
    with pytest.raises(ValueError, match="on \\[24\\] points"):
        harmonic_family_sums(harm_basis(24, 2), fam)
    mixed = [harm_basis(8, 2)[0],
             codes.DiscreteHarmonic(24, ((0, 20), (1, 2)))]
    with pytest.raises(ValueError, match="on \\[8, 24\\] points"):
        harmonic_family_sums(mixed, fam)
    assert harmonic_family_sums(mixed[:1], fam) == \
        harmonic_family_sums(harm_basis(8, 2)[:1], fam)


def test_harmonic_weight_enumerator_refuses_a_harmonic_on_other_points():
    # a harmonic on 24 points read on the 8 points of a code gave an
    # all-zero enumerator, and so a divisibility report of zeros
    f = codes.DiscreteHarmonic(24, ((0, 20),))
    for check in (harmonic_weight_enumerator, divisibility_structure_check):
        with pytest.raises(ValueError, match="on 24 points, a code of "
                                             "length 8"):
            check(hamming_e8(), f)


def test_cached_basis_carries_its_pair_array():
    # the basis is its pair array: equal to the elements' pairs, read-only,
    # and the one the kernel reads
    for n, k in ((8, 3), (24, 1), (24, 5)):
        basis = harm_basis(n, k)
        assert basis.pairs is harm_basis(n, k).pairs
        assert basis.pairs.shape == (harm_dim(n, k), k, 2)
        assert np.array_equal(basis.pairs[::97],
                              np.array([f.pairs for f in basis[::97]]))
        assert not basis.pairs.flags.writeable
        # its buffer is immutable: the flag cannot be turned back on
        for arr in (basis.pairs, basis.pairs[1:], basis.pairs.base):
            with pytest.raises(ValueError, match="WRITEABLE"):
                arr.setflags(write=True)
    fam = shell(d16_plus(), 4)              # no 2-design
    basis = harm_basis(16, 2)
    sums = harmonic_family_sums(list(basis), fam)     # rebuilt from tuples
    assert harmonic_family_sums(basis, fam) == sums and any(sums)
    reordered = codes._HarmBasis(16, basis.pairs[::-1])
    assert harmonic_family_sums(reordered, fam) == sums[::-1]


def test_harm_basis_builds_elements_only_when_read(monkeypatch):
    built = []
    monkeypatch.setattr(codes.DiscreteHarmonic, "_certified",
                        lambda n, pairs: built.append(pairs) or pairs)
    basis = harm_basis.__wrapped__(24, 5)       # bypass the cache
    fam = shell(golay_g24(), 8)
    assert len(basis) == harm_dim(24, 5) and built == []
    assert not any(harmonic_family_sums(basis, fam))
    assert antisymmetry_check(golay_g24(), 5).ok
    assert built == []
    assert basis[-1] == tuple(map(tuple, basis.pairs[-1].tolist()))
    assert basis[3:9:2] == tuple(built[1:]) and len(built) == 4
    with pytest.raises(IndexError):
        basis[len(basis)]


def test_reading_a_basis_runs_no_second_check(monkeypatch):
    basis = harm_basis(8, 3)
    calls, check = [], codes._distinct_in_range

    def spy(pairs, n):
        calls.append(len(pairs))
        return check(pairs, n)
    monkeypatch.setattr(codes, "_distinct_in_range", spy)
    elements = list(basis)
    assert calls == []
    # each element equals the one built by hand, which runs the check
    assert elements == [codes.DiscreteHarmonic(8, f.pairs) for f in elements]
    assert calls == [1] * len(basis)
    with pytest.raises(ValueError, match="distinct points in range"):
        codes.DiscreteHarmonic(8, ((0, 9),))


def test_shared_kernel_matches_tilde_sums_on_golay_degree_5():
    rng = random.Random(24)
    union = shell(golay_g24(), 8).union(shell(golay_g24(), 16))
    part = BlockFamily(24, rng.sample(list(union.blocks), 300))
    sample = rng.sample(harm_basis(24, 5), 12)
    for fam in (union, part):
        sums = harmonic_family_sums(sample, fam)
        assert sums == [sum(oracle_tilde(f, b) for b in fam.blocks)
                        for f in sample]
    assert any(sums)                    # a random part is no 5-design
    assert not any(harmonic_family_sums(harm_basis(24, 5), union))
    # sums far outside int8: dodecads through point 1 that miss point 0
    lopsided = BlockFamily(24, tuple(b for b in shell(golay_g24(), 12).blocks
                                     if b & 0b11 == 0b10))
    basis = harm_basis(24, 1)
    sums = harmonic_family_sums(basis, lopsided)
    assert sums == [sum(oracle_tilde(f, b) for b in lopsided.blocks)
                    for f in basis]
    assert sums[0] == len(lopsided.blocks) > 600


def test_delsarte_refuses_over_cap_degree_first(monkeypatch):
    fam = shell(golay_g24(), 8).union(shell(golay_g24(), 16))
    asked, build = [], codes.harm_basis

    def spy(n, k):
        asked.append(k)
        return build(n, k)

    def no_sums(basis, family):
        raise AssertionError("summed a basis before the refusal")
    monkeypatch.setattr(codes, "harm_basis", spy)
    monkeypatch.setattr(codes, "harmonic_family_sums", no_sums)
    with pytest.raises(CapExceededError,
                       match=r"C\(24,6\) exceeds cap 100000"):
        delsarte_design_check(fam, [1, 2, 3, 4, 5, 6, 7])
    # every degree meets harm_basis's rule before any basis is built; an
    # over-cap degree is at most n, so it sorts before any degree past n
    with pytest.raises(CapExceededError, match=r"C\(24,6\)"):
        delsarte_design_check(fam, [25, 6, 1])
    ham = shell(hamming_e8(), 4)
    for degrees, bad in (([9, 1], 9), ([-1, 1], -1)):
        with pytest.raises(ValueError,
                           match=f"harmonic degree {bad} must lie in 0..8"):
            delsarte_design_check(ham, degrees)
    for k in (-1, 9):
        with pytest.raises(ValueError,
                           match=f"harmonic degree {k} must lie in 0..8"):
            harm_basis(8, k)
    assert asked == []
    monkeypatch.undo()
    checks = delsarte_design_check(shell(hamming_e8(), 4), [3, 1, 2])
    assert list(checks) == [1, 2, 3]


def test_delsarte_agrees_with_brute_force_on_random_families():
    rng = random.Random(20240818)
    for trial in range(12):
        n = rng.randint(6, 9)
        w = rng.randint(3, n - 2)
        nblocks = rng.randint(4, 14)
        pool = list(itertools.combinations(range(n), w))
        picks = rng.sample(pool, min(nblocks, len(pool)))
        fam = BlockFamily(n, tuple(sum(1 << i for i in sub) for sub in picks))
        for t in range(1, min(w, 4) + 1):
            brute = design_lambda(fam, t).is_design
            harmonic = all(
                v.holds for v in
                delsarte_design_check(fam, range(1, t + 1)).values())
            assert brute == harmonic, (trial, n, w, t)


def test_complete_uniform_family_is_design_of_every_degree():
    n, w = 7, 3
    fam = BlockFamily(n, tuple(sum(1 << i for i in sub)
                               for sub in itertools.combinations(range(n), w)))
    checks = delsarte_design_check(fam, [1, 2, 3])
    assert checks == {j: Verdict(True, "harmonic sums") for j in (1, 2, 3)}


def test_index_0_of_a_verdict_is_the_pass_bool():
    # bench/gen_expected.py checks each counted verdict against the harmonic
    # sums by reading delsarte_design_check(family, [j])[j][0] as the pass
    # bool; were a mode string first, that read would always be truthy
    d16 = shell(d16_plus(), 4)
    assert delsarte_design_check(d16, [1])[1][0] is True
    assert delsarte_design_check(d16, [2])[2][0] is False
    assert delsarte_design_check(d16, [1, 2]) == {
        1: Verdict(True, "harmonic sums"),
        2: Verdict(False, "harmonic sums", 13)}
    # a witness index of 0 is falsy too: index 0 must not be the witness
    ham = delsarte_design_check(shell(hamming_e8(), 4), [4])[4]
    assert ham[0] is False and ham == Verdict(False, "harmonic sums", 0)


# -- the complement fold ---------------------------------------------------------

def unfolded_sums(basis, fam):
    """The kernel over every block of the family, with no complement fold."""
    return codes._tilde_sums(basis.pairs, codes._points(fam.blocks, fam.n)
                             ).tolist()


def oracle_verdicts(fam, degrees):
    """The verdicts from unfolded sums, with the mode each degree's route
    names: closure is read off a set of the blocks and their complements."""
    blocks = set(fam.blocks.tolist())
    closed = {u ^ ((1 << fam.n) - 1) for u in blocks} == blocks
    out = {}
    for k in degrees:
        sums = unfolded_sums(harm_basis(fam.n, k), fam) if k else []
        bad = next((i for i, s in enumerate(sums) if s), None)
        mode = ("constant" if k == 0 else "complement" if closed and k % 2
                else "harmonic sums")
        out[k] = Verdict(bad is None, mode, bad)
    return out


def capped_degrees(n):
    # Harm_k is zero past n/2
    return [k for k in range(n // 2 + 1) if comb(n, k) <= codes.TABLEAU_CAP]


def shell_pair(code, w):
    fam = shell(code, w)
    return fam if 2 * w == code.n else fam.union(shell(code, code.n - w))


@pytest.mark.parametrize("make, w", [
    (hamming_e8, 0), (hamming_e8, 4),
    (d16_plus, 0), (d16_plus, 4), (d16_plus, 8),
    (golay_g24, 0), (golay_g24, 8), (golay_g24, 12)])
def test_folded_sums_match_the_unfolded_kernel(make, w):
    code = make()
    fam = shell_pair(code, w)
    half = codes._complement_half(fam)
    assert half is not None and 2 * len(half) == len(fam.blocks)
    degrees = capped_degrees(code.n)
    for k in degrees:
        basis = harm_basis(code.n, k)
        assert harmonic_family_sums(basis, fam) == unfolded_sums(basis, fam)
    assert delsarte_design_check(fam, degrees) == oracle_verdicts(fam, degrees)


def random_code_without_all_ones():
    rng = random.Random(1612)
    while True:
        code = code_from_rows(12, [rng.getrandbits(12) for _ in range(5)])
        if (1 << 12) - 1 not in codewords(code):
            return code


def test_families_not_closed_take_the_full_path(monkeypatch):
    ham = shell(hamming_e8(), 4)
    code = random_code_without_all_ones()
    w = max(range(1, 7), key=lambda w: len(shell_pair(code, w).blocks))
    families = [BlockFamily(8, ham.blocks[1:]), shell_pair(code, w)]
    columns, kernel = [], codes._tilde_sums

    def spy(pairs, points):
        columns.append(points.shape[1])
        return kernel(pairs, points)
    monkeypatch.setattr(codes, "_tilde_sums", spy)
    for fam in families:
        assert codes._complement_half(fam) is None
        degrees = capped_degrees(fam.n)
        for k in degrees:
            basis = harm_basis(fam.n, k)
            del columns[:]
            assert harmonic_family_sums(basis, fam) == unfolded_sums(basis, fam)
            assert columns == [len(fam.blocks)] * 2
        assert (delsarte_design_check(fam, degrees)
                == oracle_verdicts(fam, degrees))
    assert two_weight_design_check(code, w, [1]).verdicts[1].mode == \
        "harmonic sums"
    # a fold would pass it: one missing block makes degree 1 fail
    assert not delsarte_design_check(families[0], [1])[1].holds
    # the decision on a closed family reads half its blocks at an even degree
    del columns[:]
    assert delsarte_design_check(ham, [2]) == {2: Verdict(True,
                                                          "harmonic sums")}
    assert columns == [len(ham.blocks) // 2]


def test_odd_degrees_of_a_closed_family_build_nothing(monkeypatch):
    fam = shell_pair(golay_g24(), 8)
    asked, build = [], codes.harm_basis

    def spy(n, k):
        asked.append(k)
        return build(n, k)

    def kernel(pairs, points):
        raise AssertionError("ran the kernel on an odd degree")
    monkeypatch.setattr(codes, "harm_basis", spy)
    monkeypatch.setattr(codes, "_tilde_sums", kernel)
    assert (delsarte_design_check(fam, [1, 3, 5])
            == {j: Verdict(True, "complement") for j in (1, 3, 5)})
    assert asked == []


def test_the_decision_folds_a_closed_family_once(monkeypatch):
    # golay24's 8/16 pair is closed: one closure check for the whole call,
    # a two-weight call included, and each even degree sums one block of
    # each of its 759 pairs
    fam = shell_pair(golay_g24(), 8)
    checks, summed = [], []
    check, sums = codes._complement_half, codes.harmonic_family_sums

    def check_spy(family):
        checks.append(len(family.blocks))
        return check(family)

    def sums_spy(basis, family):
        summed.append((len(basis), len(family.blocks)))
        return sums(basis, family)
    monkeypatch.setattr(codes, "_complement_half", check_spy)
    monkeypatch.setattr(codes, "harmonic_family_sums", sums_spy)
    verdicts = delsarte_design_check(fam, [1, 2, 3, 4])
    assert verdicts == {j: Verdict(True, "complement" if j % 2
                                   else "harmonic sums") for j in (1, 2, 3, 4)}
    assert checks == [1518]
    assert summed == [(harm_dim(24, 2), 759), (harm_dim(24, 4), 759)]
    # a direct call sums every block it is given, to the same exact numbers
    basis = harm_basis(8, 4)            # hamming8's 4-shell is no 4-design
    ham = shell(hamming_e8(), 4)
    full = sums(basis, ham)
    assert full == [2 * s for s in sums(basis, BlockFamily(8, check(ham)))]
    assert any(full)
    assert checks == [1518]
    # the two-weight report names its modes from those verdicts, with no
    # second closure check
    del checks[:]
    rep = two_weight_design_check(golay_g24(), 8, [1, 2, 3, 4])
    assert rep.verdicts == verdicts and checks == [1518]


# -- two-weight checks ---------------------------------------------------------

def test_golay_two_weight_odd_degrees():
    rep = two_weight_design_check(golay_g24(), 8, [1, 2, 3, 4, 5])
    assert rep.family_size == 1518
    # golay24 holds the all-ones word: its 8/16 union is closed under
    # complement, so odd degrees pass by the complement
    assert rep.verdicts == {j: Verdict(True, "complement" if j % 2
                                       else "harmonic sums")
                            for j in range(1, 6)}
    assert rep.passes([1, 2, 3, 4, 5])   # both shells are 5-designs


def test_two_weight_degree_zero_is_the_constant():
    # no sum is taken for degree 0: the constant's sum is the family size
    rep = two_weight_design_check(golay_g24(), 8, [0, 1, 2])
    assert rep.verdicts == {0: Verdict(True, "constant"),
                            1: Verdict(True, "complement"),
                            2: Verdict(True, "harmonic sums")}


def test_d16plus_two_weight_T_design():
    # odd degrees pass by antisymmetry; even degrees genuinely fail here
    rep = two_weight_design_check(d16_plus(), 4, [1, 2, 3, 4, 5])
    assert rep.passes([1, 3, 5])
    assert not rep.verdicts[2].holds
    assert not rep.verdicts[4].holds
    # brute-force cross-check of the degree-2 failure
    fam = shell(d16_plus(), 4).union(shell(d16_plus(), 12))
    res = design_lambda(fam, 2)
    assert not res.is_design
    # ... and the weight-4 shell alone is not a 2-design either
    assert not design_lambda(shell(d16_plus(), 4), 2).is_design


def test_self_complementary_shell_is_not_doubled():
    rep = two_weight_design_check(golay_g24(), 12, [1, 3, 5])
    assert rep.family_size == 2576
    assert rep.passes([1, 3, 5])


def test_empty_shell_pair_is_refused_before_any_basis(monkeypatch):
    # no golay24 codeword has weight 4, 20, -6 or 30: a verdict on an
    # empty union would hold vacuously, so the pair is refused
    def never(n, k):
        raise AssertionError("basis built")

    monkeypatch.setattr(codes, "harm_basis", never)
    for w in (4, -6):
        with pytest.raises(ValueError, match=f"weight {w} or {24 - w}"):
            two_weight_design_check(golay_g24(), w, [1, 2])


# -- harmonic weight enumerators ------------------------------------------------

def test_hwe_of_golay_low_degrees_vanish():
    # every shell of the Golay code is a 5-design, so degrees 1..5 die
    g = golay_g24()
    for k in (1, 2, 3):
        for f in random.Random(5).sample(harm_basis(24, k), 6):
            assert all(c == 0 for c in harmonic_weight_enumerator(g, f))


def test_hwe_zero_ranges_and_antisymmetry_small():
    d = d16_plus()
    for f in harm_basis(16, 3)[:40]:
        w = harmonic_weight_enumerator(d, f)
        assert all(w[i] == 0 for i in range(3))
        assert all(w[16 - i] == 0 for i in range(3))
        assert all(w[i] + w[16 - i] == 0 for i in range(17))


def test_antisymmetry_full_basis_modes():
    rep1 = antisymmetry_check(hamming_e8(), 1)
    assert rep1.mode == "full basis" and rep1.ok
    rep3 = antisymmetry_check(hamming_e8(), 3)
    assert rep3.ok
    with pytest.raises(ValueError):
        antisymmetry_check(hamming_e8(), 2)


def test_antisymmetry_full_basis_on_golay_degree_5():
    rep = antisymmetry_check(golay_g24(), 5)
    assert (rep.mode, rep.tested, rep.ok, rep.witness) == \
        ("full basis", 31878, True, None)


def test_antisymmetry_fails_without_the_all_ones_word():
    # the [4,1] code generated by 1100: its weight-2 word has no
    # complement in the code, so c(2) + c(4-2) = 2 c(2) can be nonzero
    code = code_from_text("1100")
    rep = antisymmetry_check(code, 1)
    assert rep.mode == "full basis" and rep.tested == harm_dim(4, 1)
    assert not rep.ok

    def c(f, w):            # an enumerator coefficient, recounted
        return sum(oracle_tilde(f, u) for u in codewords(code)
                   if u.bit_count() == w)
    failures = [(i, w) for i, f in enumerate(harm_basis(4, 1))
                for w in range(5) if c(f, w) + c(f, 4 - w)]
    assert rep.witness == failures[0]


def test_hwe_numpy_path_matches_dict_path():
    d = d16_plus()
    basis = harm_basis(16, 2)
    words = codewords(d)
    for f in random.Random(3).sample(basis, 8) + [harm_basis(16, 0)[0]]:
        slow = [Fraction(0)] * (d.n + 1)
        for c in words:
            slow[c.bit_count()] += oracle_tilde(f, c)
        assert harmonic_weight_enumerator(d, f) == tuple(slow)


# -- divisibility structure ------------------------------------------------------

def test_hamming_degree1_enumerator_is_zero():
    h = hamming_e8()
    for f in harm_basis(8, 1):
        rep = divisibility_structure_check(h, f)
        assert rep.enumerator_is_zero
        assert rep.zero_range_ok
        assert rep.factor_degree == 30 and rep.factor_divides


def test_d16plus_degree2_divisible_by_degree12_invariant():
    d = d16_plus()
    saw_nonzero = False
    for f in harm_basis(16, 2):
        rep = divisibility_structure_check(d, f)
        assert rep.zero_range_ok
        assert rep.factor_degree == 12
        assert rep.factor_divides
        saw_nonzero |= not rep.enumerator_is_zero
    assert saw_nonzero, "expected a nonzero degree-2 enumerator somewhere"


def test_golay_degree3_divisible_by_degree18_invariant():
    g = golay_g24()
    for f in random.Random(9).sample(harm_basis(24, 3), 5):
        rep = divisibility_structure_check(g, f)
        assert rep.zero_range_ok
        assert rep.factor_degree == 18
        assert rep.factor_divides
